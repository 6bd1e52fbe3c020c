//! # hyperfex-eval
//!
//! Evaluation substrate: the confusion-matrix metrics the paper reports
//! (accuracy, precision, recall, specificity, F1), a generic k-fold
//! cross-validation harness over [`hyperfex_ml::Estimator`] factories, and
//! plain-text / JSON table rendering used by the experiment binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cv;
pub mod metrics;
pub mod report;

pub use cv::{cross_validate, CvOutcome};
pub use metrics::{BinaryMetrics, ConfusionMatrix};
pub use report::TableReport;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::cv::{cross_validate, CvOutcome};
    pub use crate::metrics::{BinaryMetrics, ConfusionMatrix};
    pub use crate::report::TableReport;
}
