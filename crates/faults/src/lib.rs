//! Deterministic seeded fault injection for the hyperfex pipeline.
//!
//! The paper's robustness claim — holographic representations degrade
//! gracefully under storage faults — is only a claim until the pipeline is
//! actually run against corrupted inputs. This crate supplies the
//! corruption, in three layers that mirror where real systems fail:
//!
//! - [`storage`]: bit-level faults on packed hypervectors — i.i.d. flips
//!   at a rate *p*, stuck-at words, burst errors, and deliberate tail-word
//!   corruption (behind `fault-injection`).
//! - [`table`]: data faults on loaded [`hyperfex_data::Table`]s — missing
//!   cells, out-of-range outliers, label noise, truncation, duplication,
//!   whole-feature dropout.
//! - `registry` (behind `fault-injection`): scheduled failpoint rules
//!   injected into the pipeline seams compiled into `hyperfex-hdc` and
//!   `hyperfex-data` (CSV loading, imputation, batch encoding, LOOCV).
//!
//! [`FaultPlan`] combines all three into a single seeded, replayable
//! value; every injector is deterministic given its seed, so any observed
//! failure reproduces bit-exactly from the plan that caused it.

pub mod plan;
// lint: gate-ok (the failpoint registry drives live handlers, which only
// exist in chaos builds; plans themselves stay buildable everywhere)
#[cfg(feature = "fault-injection")]
pub mod registry;
pub mod storage;
pub mod table;

pub use plan::{FaultPlan, PIPELINE_FAILPOINTS};

/// What a scheduled failpoint rule injects when it fires.
///
/// Mirrors the per-crate `FaultAction` enums in `hyperfex_hdc::failpoint`
/// and `hyperfex_data::failpoint`; the registry translates at install time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// The instrumented seam returns its crate's `Injected` error.
    Fail,
    /// The seam sleeps this many milliseconds, then proceeds.
    Delay(u64),
}

/// One scheduled failpoint rule: *at* `point`, *after* `after` hits, do
/// `action` for `times` hits (forever when `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRule {
    /// Failpoint name, e.g. `"hdc/encode_batch"` (see
    /// [`PIPELINE_FAILPOINTS`]).
    pub point: String,
    /// What to inject when the rule fires.
    pub action: FaultAction,
    /// Number of evaluations to let pass before firing (0 = immediately).
    pub after: usize,
    /// How many evaluations to fire for; `None` fires forever.
    pub times: Option<usize>,
}
