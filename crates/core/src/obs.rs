//! Observability facade over `hyperfex-obs`.
//!
//! Unlike the private shims inside the substrate crates, this module is
//! PUBLIC: experiment binaries call `hyperfex::obs::...` unconditionally
//! and get either the real instrumentation (with the `obs` cargo feature,
//! which also switches on the `obs` features of `hyperfex-hdc`,
//! `hyperfex-ml` and `hyperfex-data`) or inert inlined stubs.
//!
//! [`StageTimer`] is the one primitive that always measures: experiment
//! reports (e.g. the timing comparison) need wall-clock numbers even in
//! uninstrumented builds, so it wraps a plain `Instant` and *additionally*
//! records a span when the `obs` feature is on. The pure [`span`] hook
//! stays a zero-cost no-op without the feature.

#[cfg(feature = "obs")]
pub use hyperfex_obs::{
    counter_add, current_depth, gauge_max, gauge_value, observe, reset, span, SpanGuard,
};

// lint: gate-ok (report types are instrumented-build-only by design: a
// snapshot of a build that records nothing would be a lie; consumers of
// these names are themselves cfg(feature = "obs")-gated)
#[cfg(feature = "obs")]
pub use hyperfex_obs::{
    snapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Recorder, RunReport, Snapshot,
    SpanSnapshot,
};

#[cfg(not(feature = "obs"))]
mod noop {
    /// Inert stand-in for `hyperfex_obs::SpanGuard`: nothing is measured
    /// and dropping it records nothing.
    #[derive(Debug)]
    #[must_use = "a span measures the scope holding its guard"]
    pub struct SpanGuard(());

    /// No-op span; compiled out without the `obs` feature.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard(())
    }

    /// No-op counter increment; compiled out without the `obs` feature.
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op histogram observation; compiled out without the `obs` feature.
    #[inline(always)]
    pub fn observe(_name: &'static str, _bounds: &'static [f64], _value: f64) {}

    /// No-op gauge watermark; compiled out without the `obs` feature.
    #[inline(always)]
    pub fn gauge_max(_name: &'static str, _value: u64) {}

    /// Always 0 without the `obs` feature.
    #[inline(always)]
    #[must_use]
    pub fn gauge_value(_name: &'static str) -> u64 {
        0
    }

    /// Always 0 without the `obs` feature.
    #[inline(always)]
    #[must_use]
    pub fn current_depth() -> usize {
        0
    }

    /// No-op reset; compiled out without the `obs` feature.
    #[inline(always)]
    pub fn reset() {}
}

#[cfg(not(feature = "obs"))]
pub use noop::{
    counter_add, current_depth, gauge_max, gauge_value, observe, reset, span, SpanGuard,
};

/// A stage timer that always measures wall-clock time.
///
/// Created by [`timer`]. [`StageTimer::finish`] returns the elapsed
/// [`std::time::Duration`] in every build; when the `obs` feature is on
/// the same measurement is also recorded as a span under the given name,
/// so experiment reports and observability snapshots agree on the number.
#[derive(Debug)]
#[must_use = "a stage timer measures the scope holding it; call finish() to read it"]
pub struct StageTimer {
    #[cfg(feature = "obs")]
    guard: hyperfex_obs::SpanGuard,
    #[cfg(not(feature = "obs"))]
    start: std::time::Instant,
}

/// Starts a [`StageTimer`] for the stage called `name`.
pub fn timer(name: &'static str) -> StageTimer {
    #[cfg(feature = "obs")]
    {
        StageTimer { guard: span(name) }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = name;
        StageTimer {
            start: std::time::Instant::now(),
        }
    }
}

impl StageTimer {
    /// Stops the timer and returns the measured duration.
    pub fn finish(self) -> std::time::Duration {
        #[cfg(feature = "obs")]
        {
            self.guard.finish()
        }
        #[cfg(not(feature = "obs"))]
        {
            self.start.elapsed()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_measures_in_every_build() {
        let t = timer("obs_facade_test/stage");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.finish() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn span_and_counters_are_callable_in_every_build() {
        // Smoke-coverage for whichever variant (real or no-op) is compiled.
        let _g = span("obs_facade_test/span");
        counter_add("obs_facade_test/counter", 1);
        observe("obs_facade_test/hist", &[1.0, 2.0], 0.5);
        assert!(current_depth() <= 1);
    }
}
