//! Dimension-distillation Pareto sweep: how many of the paper's 10,000
//! bits does *serving* actually need?
//!
//! The sweep encodes a cohort at full width, ranks bit positions by class
//! discrimination ([`hyperfex_hdc::distill::discrimination_scores`]),
//! prunes to a ladder of target widths with both the ranked selection and
//! a random-selection control, and measures the two axes of the trade:
//! Hamming LOOCV accuracy and the per-query time of the full-distance
//! batch Hamming kernel ([`hamming_between`]). The [`gate`] helper turns
//! one sweep into the CI verdict: a ranked selection at or under the gate
//! width must stay within an accuracy budget of the full model while
//! beating a speedup floor on that kernel.
//!
//! The timed kernel is not what k-NN serving runs. The serving store and
//! the packed KNN classifier scan through [`hyperfex_hdc::topk::TopK`],
//! which skips or stops reading a row once it cannot enter the k
//! nearest; on perfbench's `query` bank `HvStore::predict_batch` reads
//! about 12% of the words a full-distance sweep reads. So the speedup is
//! a full-distance kernel speedup, not a measured serving speedup.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_eval::report::{pct, TableReport};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::{hamming_between, BitMatrix};
use hyperfex_hdc::classify::{ClassAccumulators, LeaveOneOut};
use hyperfex_hdc::distill::{discrimination_scores, BitSelection};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// How a pruned selection's bit positions were chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Top-k bits by class-discrimination margin.
    Ranked,
    /// A seeded uniform random selection — the control arm.
    Random,
}

impl Strategy {
    /// Display label used by reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Ranked => "ranked",
            Self::Random => "random",
        }
    }
}

/// One (dimensionality, strategy) point of the accuracy/latency Pareto.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Serving bits after pruning.
    pub dim: usize,
    /// How the retained bits were chosen.
    pub strategy: Strategy,
    /// Hamming LOOCV accuracy at this width.
    pub accuracy: f64,
    /// Accuracy drop vs the full-width model, in percentage points
    /// (positive = worse than full width).
    pub accuracy_drop_pts: f64,
    /// Best-of-N per-query time of the full-distance batch Hamming kernel
    /// ([`hamming_between`]), in nanoseconds. The pruned k-NN scans read
    /// fewer words, so this is not a serving latency.
    pub predict_ns_per_query: f64,
    /// Full-width kernel time divided by this point's kernel time.
    pub speedup: f64,
}

/// The full sweep for one cohort.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoSweep {
    /// Cohort label ("Pima R", "Sylhet").
    pub dataset: String,
    /// Full-width bits the sweep prunes from.
    pub full_dim: usize,
    /// Hamming LOOCV accuracy at full width.
    pub full_accuracy: f64,
    /// Full-width per-query time of the full-distance kernel, in
    /// nanoseconds.
    pub full_predict_ns_per_query: f64,
    /// One point per (dimensionality, strategy) pair, in sweep order.
    pub points: Vec<ParetoPoint>,
}

/// The CI verdict distilled from one cohort's sweep (see [`gate`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateOutcome {
    /// Cohort label the verdict refers to.
    pub dataset: String,
    /// Largest ranked width at or under the gate width, the "prune to
    /// this many bits" CI contract.
    pub gate_dim: usize,
    /// Accuracy drop of the gate-width ranked selection, in points.
    pub accuracy_drop_pts: f64,
    /// Best speedup among ranked selections at or under the gate width
    /// that also meet the accuracy budget (0.0 when none do).
    pub speedup: f64,
    /// Whether the cohort passes the gate.
    pub pass: bool,
    /// Human-readable reason, pass or fail.
    pub detail: String,
}

/// Best-of-`repeats` per-query wall time of the full-distance batch
/// Hamming kernel, [`hamming_between`]. No k-NN path computes every full
/// distance any more (see the module docs): this times the kernel, not
/// serving.
fn predict_ns_per_query(
    queries: &BitMatrix,
    bank: &BitMatrix,
    repeats: usize,
) -> Result<f64, HyperfexError> {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let distances = hamming_between(black_box(queries), black_box(bank))?;
        black_box(&distances);
        best = best.min(start.elapsed().as_secs_f64() * 1e9);
    }
    Ok(best / queries.n_rows().max(1) as f64)
}

/// Runs the Pareto sweep for one cohort: full-width baseline plus every
/// `dims × {ranked, random}` point. `timing_repeats` controls the
/// best-of-N latency measurement (higher = less noise, more wall time).
pub fn pareto_sweep(
    table: &Table,
    full_dim: Dim,
    dims: &[usize],
    seed: u64,
    label: &str,
    timing_repeats: usize,
) -> Result<ParetoSweep, HyperfexError> {
    let labels = table.labels();
    let mut extractor = HdcFeatureExtractor::new(full_dim, seed);
    let hvs = extractor.fit_transform(table)?;
    let full_accuracy = LeaveOneOut::new().run(&hvs, labels)?.accuracy();
    let bank = BitMatrix::from_hypervectors(&hvs)?;
    let full_ns = predict_ns_per_query(&bank, &bank, timing_repeats)?;

    let mut acc = ClassAccumulators::new(full_dim);
    for (hv, &class) in hvs.iter().zip(labels) {
        acc.grow(class)?;
        acc.add(class, hv, 1);
    }
    let scores = discrimination_scores(&acc)?;

    let mut points = Vec::with_capacity(dims.len() * 2);
    for &d in dims {
        for strategy in [Strategy::Ranked, Strategy::Random] {
            let selection = match strategy {
                Strategy::Ranked => BitSelection::top_k(full_dim, &scores, d)?,
                Strategy::Random => {
                    BitSelection::random(full_dim, d, seed ^ 0x9E37_79B9 ^ d as u64)?
                }
            };
            let pruned_bank = selection.gather_matrix(&bank)?;
            let pruned_hvs = hvs
                .iter()
                .map(|hv| selection.gather_hypervector(hv))
                .collect::<Result<Vec<_>, _>>()?;
            let accuracy = LeaveOneOut::new().run(&pruned_hvs, labels)?.accuracy();
            let ns = predict_ns_per_query(&pruned_bank, &pruned_bank, timing_repeats)?;
            points.push(ParetoPoint {
                dim: d,
                strategy,
                accuracy,
                accuracy_drop_pts: (full_accuracy - accuracy) * 100.0,
                predict_ns_per_query: ns,
                speedup: full_ns / ns.max(f64::MIN_POSITIVE),
            });
        }
    }

    Ok(ParetoSweep {
        dataset: label.to_string(),
        full_dim: full_dim.get(),
        full_accuracy,
        full_predict_ns_per_query: full_ns,
        points,
    })
}

/// Renders one cohort's sweep as a report table.
#[must_use]
pub fn pareto_report(sweep: &ParetoSweep) -> TableReport {
    let mut t = TableReport::new(
        format!(
            "Distillation Pareto — {} (full width {} bits, LOOCV {}, {:.0} ns/query)",
            sweep.dataset,
            sweep.full_dim,
            pct(sweep.full_accuracy),
            sweep.full_predict_ns_per_query
        ),
        &[
            "Bits",
            "Selection",
            "Accuracy",
            "Δ pts",
            "ns/query",
            "Speedup",
        ],
    );
    for p in &sweep.points {
        t.push_row(vec![
            p.dim.to_string(),
            p.strategy.label().to_string(),
            pct(p.accuracy),
            format!("{:+.1}", p.accuracy_drop_pts),
            format!("{:.0}", p.predict_ns_per_query),
            format!("{:.1}x", p.speedup),
        ]);
    }
    t
}

/// Applies the CI gate to one cohort's sweep.
///
/// Two conditions, both required:
///
/// 1. **Accuracy contract** — the largest ranked selection at or under
///    `max_bits` (the "prune to 2k" width) must lose at most
///    `max_drop_pts` percentage points of LOOCV accuracy vs full width.
/// 2. **Kernel-speed contract** — some ranked selection at or under
///    `max_bits` that meets the accuracy budget must also run the
///    full-distance Hamming kernel `min_speedup`× faster than full width.
#[must_use]
pub fn gate(
    sweep: &ParetoSweep,
    max_bits: usize,
    max_drop_pts: f64,
    min_speedup: f64,
) -> GateOutcome {
    let ranked: Vec<&ParetoPoint> = sweep
        .points
        .iter()
        .filter(|p| p.strategy == Strategy::Ranked && p.dim <= max_bits)
        .collect();
    let Some(gate_point) = ranked.iter().max_by_key(|p| p.dim) else {
        return GateOutcome {
            dataset: sweep.dataset.clone(),
            gate_dim: 0,
            accuracy_drop_pts: f64::NAN,
            speedup: 0.0,
            pass: false,
            detail: format!("no ranked sweep point at or under {max_bits} bits"),
        };
    };
    let accuracy_ok = gate_point.accuracy_drop_pts <= max_drop_pts;
    let best_speedup = ranked
        .iter()
        .filter(|p| p.accuracy_drop_pts <= max_drop_pts)
        .map(|p| p.speedup)
        .fold(0.0f64, f64::max);
    let speedup_ok = best_speedup >= min_speedup;
    let detail = format!(
        "{} bits ranked: {:+.2} pts vs full (budget {:+.1}); best qualifying speedup {:.1}x \
         (floor {:.1}x)",
        gate_point.dim, gate_point.accuracy_drop_pts, max_drop_pts, best_speedup, min_speedup
    );
    GateOutcome {
        dataset: sweep.dataset.clone(),
        gate_dim: gate_point.dim,
        accuracy_drop_pts: gate_point.accuracy_drop_pts,
        speedup: best_speedup,
        pass: accuracy_ok && speedup_ok,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn small_table() -> Table {
        sylhet::generate(&SylhetConfig {
            n_positive: 30,
            n_negative: 24,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn sweep_covers_every_dim_strategy_pair_and_stays_sane() {
        let table = small_table();
        let sweep = pareto_sweep(&table, Dim::new(512), &[64, 256, 512], 7, "Sylhet", 2).unwrap();
        assert_eq!(sweep.dataset, "Sylhet");
        assert_eq!(sweep.full_dim, 512);
        assert_eq!(sweep.points.len(), 6);
        assert!(sweep.full_predict_ns_per_query > 0.0);
        for p in &sweep.points {
            assert!((0.0..=1.0).contains(&p.accuracy), "{p:?}");
            assert!(p.predict_ns_per_query > 0.0, "{p:?}");
            assert!(p.speedup > 0.0, "{p:?}");
            assert!(
                (p.accuracy_drop_pts - (sweep.full_accuracy - p.accuracy) * 100.0).abs() < 1e-9
            );
        }
        // Full-width points prune nothing, so their LOOCV accuracy is the
        // baseline's exactly (both selections retain all 512 bits).
        for p in sweep.points.iter().filter(|p| p.dim == 512) {
            assert!((p.accuracy - sweep.full_accuracy).abs() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic_in_everything_but_wall_time() {
        let table = small_table();
        let a = pareto_sweep(&table, Dim::new(256), &[64], 3, "Sylhet", 1).unwrap();
        let b = pareto_sweep(&table, Dim::new(256), &[64], 3, "Sylhet", 1).unwrap();
        assert_eq!(a.full_accuracy, b.full_accuracy);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.accuracy, pb.accuracy);
            assert_eq!(pa.strategy, pb.strategy);
        }
    }

    fn synthetic_sweep(points: Vec<ParetoPoint>) -> ParetoSweep {
        ParetoSweep {
            dataset: "Test".to_string(),
            full_dim: 10_000,
            full_accuracy: 0.90,
            full_predict_ns_per_query: 1_000.0,
            points,
        }
    }

    fn point(dim: usize, strategy: Strategy, drop: f64, speedup: f64) -> ParetoPoint {
        ParetoPoint {
            dim,
            strategy,
            accuracy: 0.90 - drop / 100.0,
            accuracy_drop_pts: drop,
            predict_ns_per_query: 1_000.0 / speedup,
            speedup,
        }
    }

    #[test]
    fn gate_passes_when_both_contracts_hold() {
        let sweep = synthetic_sweep(vec![
            point(1_000, Strategy::Ranked, 0.4, 9.0),
            point(2_000, Strategy::Ranked, 0.2, 4.8),
            point(2_000, Strategy::Random, 5.0, 4.8),
            point(4_000, Strategy::Ranked, 0.1, 2.4),
        ]);
        let outcome = gate(&sweep, 2_000, 1.0, 5.0);
        assert!(outcome.pass, "{}", outcome.detail);
        assert_eq!(outcome.gate_dim, 2_000);
        assert!((outcome.accuracy_drop_pts - 0.2).abs() < 1e-12);
        // The qualifying 1k point supplies the speedup.
        assert!((outcome.speedup - 9.0).abs() < 1e-12);
    }

    #[test]
    fn gate_fails_on_accuracy_regression_at_the_gate_width() {
        let sweep = synthetic_sweep(vec![
            point(1_000, Strategy::Ranked, 0.1, 9.0),
            point(2_000, Strategy::Ranked, 1.7, 4.8),
        ]);
        let outcome = gate(&sweep, 2_000, 1.0, 5.0);
        assert!(!outcome.pass);
        assert!(outcome.detail.contains("+1.70 pts"));
    }

    #[test]
    fn gate_fails_when_no_qualifying_point_is_fast_enough() {
        let sweep = synthetic_sweep(vec![
            point(1_000, Strategy::Ranked, 2.0, 9.0), // fast but inaccurate
            point(2_000, Strategy::Ranked, 0.2, 4.8), // accurate but slow
        ]);
        let outcome = gate(&sweep, 2_000, 1.0, 5.0);
        assert!(!outcome.pass);
        assert!((outcome.speedup - 4.8).abs() < 1e-12);
    }

    #[test]
    fn gate_handles_an_empty_sweep() {
        let outcome = gate(&synthetic_sweep(vec![]), 2_000, 1.0, 5.0);
        assert!(!outcome.pass);
        assert_eq!(outcome.gate_dim, 0);
    }

    #[test]
    fn random_control_is_no_better_than_ranked_at_a_squeezed_width() {
        // At an aggressive prune the ranked selection must not lose to the
        // random control by a wide margin — the ranking is the product
        // under test. (Equality is fine: on easy cohorts both saturate.)
        let table = small_table();
        let sweep = pareto_sweep(&table, Dim::new(1_024), &[96], 11, "Sylhet", 1).unwrap();
        let ranked = sweep
            .points
            .iter()
            .find(|p| p.strategy == Strategy::Ranked)
            .unwrap();
        let random = sweep
            .points
            .iter()
            .find(|p| p.strategy == Strategy::Random)
            .unwrap();
        assert!(
            ranked.accuracy >= random.accuracy - 0.05,
            "ranked {} vs random {}",
            ranked.accuracy,
            random.accuracy
        );
    }
}
