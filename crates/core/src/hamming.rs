//! The paper's pure-HDC classification model (§II-C): encode, then 1-NN
//! under Hamming distance, validated leave-one-out.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_eval::metrics::{BinaryMetrics, ConfusionMatrix};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::{LeaveOneOut, LoocvOutcome};
use hyperfex_hdc::encoding::QuarantineReport;

/// End-to-end pure-HDC model.
#[derive(Debug, Clone)]
pub struct HammingModel {
    dim: Dim,
    seed: u64,
    k: usize,
}

impl HammingModel {
    /// Creates the paper's configuration: 1 nearest neighbour.
    #[must_use]
    pub fn new(dim: Dim, seed: u64) -> Self {
        Self { dim, seed, k: 1 }
    }

    /// Uses `k` neighbours instead of 1 (extension).
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Runs the full §II-C procedure: encode every patient, then
    /// leave-one-out 1-NN classification.
    ///
    /// Note: like the paper, the encoder ranges are fitted on the whole
    /// table — under leave-one-out the encoding step is part of the
    /// dataset preparation, not of the per-fold model (there is no model
    /// to fit: "we only need to measure distances").
    pub fn evaluate_loocv(&self, table: &Table) -> Result<LoocvOutcome, HyperfexError> {
        let _span = crate::obs::span("core/evaluate_loocv");
        let mut extractor = HdcFeatureExtractor::new(self.dim, self.seed);
        let hvs = extractor.fit_transform(table)?;
        let outcome = LeaveOneOut::with_k(self.k)?.run(&hvs, table.labels())?;
        Ok(outcome)
    }

    /// Degradation-aware variant of [`HammingModel::evaluate_loocv`]:
    /// rows that fail to encode (missing values, NaN, injected faults) are
    /// quarantined and LOOCV runs over the survivors, so one corrupt
    /// record degrades coverage instead of aborting the evaluation.
    ///
    /// Still fails on structural problems: an empty table, a column with
    /// no observable range, or fewer than two surviving rows.
    pub fn evaluate_loocv_lenient(&self, table: &Table) -> Result<RobustLoocv, HyperfexError> {
        let _span = crate::obs::span("core/evaluate_loocv_lenient");
        let mut extractor = HdcFeatureExtractor::new(self.dim, self.seed);
        extractor.fit(table, None)?;
        let lenient = extractor.transform_lenient(table, None)?;
        let labels: Vec<usize> = lenient
            .kept_rows
            .iter()
            .map(|&i| table.labels()[i])
            .collect();
        let outcome = LeaveOneOut::with_k(self.k)?.run(&lenient.hypervectors, &labels)?;
        Ok(RobustLoocv {
            outcome,
            kept_rows: lenient.kept_rows,
            report: lenient.report,
        })
    }

    /// Derives the paper's metric set from a LOOCV outcome.
    pub fn metrics(outcome: &LoocvOutcome) -> Option<BinaryMetrics> {
        outcome
            .binary_counts()
            .map(|(tp, tn, fp, fn_)| ConfusionMatrix { tp, tn, fp, fn_ }.metrics())
    }
}

/// The outcome of [`HammingModel::evaluate_loocv_lenient`]: LOOCV results
/// over the rows that survived encoding, plus quarantine accounting.
#[derive(Debug, Clone)]
pub struct RobustLoocv {
    /// LOOCV outcome over the surviving rows, in `kept_rows` order.
    pub outcome: LoocvOutcome,
    /// Original table index of each surviving row.
    pub kept_rows: Vec<usize>,
    /// Which rows were quarantined and why.
    pub report: QuarantineReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn cohort() -> Table {
        sylhet::generate(&SylhetConfig {
            n_positive: 60,
            n_negative: 40,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn loocv_on_separable_cohort_beats_base_rate() {
        let table = cohort();
        let outcome = HammingModel::new(Dim::new(2_000), 3)
            .evaluate_loocv(&table)
            .unwrap();
        // Base rate = 0.6 (majority class); Sylhet-style symptoms are
        // strongly separating, so Hamming 1-NN should be well above it.
        assert!(outcome.accuracy() > 0.70, "accuracy {}", outcome.accuracy());
        assert_eq!(outcome.total, 100);
        let m = HammingModel::metrics(&outcome).unwrap();
        assert!(m.recall > 0.7);
        assert!(m.specificity > 0.5);
    }

    #[test]
    fn k3_variant_runs() {
        let table = cohort();
        let outcome = HammingModel::new(Dim::new(1_000), 3)
            .with_k(3)
            .evaluate_loocv(&table)
            .unwrap();
        assert!(outcome.accuracy() > 0.7);
    }

    #[test]
    fn lenient_loocv_quarantines_corrupt_rows() {
        let table = cohort();
        // Corrupt two rows with NaN ages.
        let mut rows: Vec<Vec<f64>> = table.rows().to_vec();
        rows[5][0] = f64::NAN;
        rows[40][0] = f64::NAN;
        let corrupt = Table::new(table.columns().to_vec(), rows, table.labels().to_vec()).unwrap();
        let model = HammingModel::new(Dim::new(1_000), 3);
        let robust = model.evaluate_loocv_lenient(&corrupt).unwrap();
        assert_eq!(robust.report.quarantined(), 2);
        assert_eq!(robust.kept_rows.len(), 98);
        assert!(!robust.kept_rows.contains(&5));
        assert!(!robust.kept_rows.contains(&40));
        assert_eq!(robust.outcome.total, 98);
        assert!(robust.outcome.accuracy() > 0.7);
        // On a clean table the lenient path matches the strict one.
        let strict = model.evaluate_loocv(&table).unwrap();
        let robust = model.evaluate_loocv_lenient(&table).unwrap();
        assert!(robust.report.is_clean());
        assert_eq!(robust.outcome, strict);
    }

    #[test]
    fn deterministic_per_seed() {
        let table = cohort();
        let a = HammingModel::new(Dim::new(1_000), 5)
            .evaluate_loocv(&table)
            .unwrap();
        let b = HammingModel::new(Dim::new(1_000), 5)
            .evaluate_loocv(&table)
            .unwrap();
        assert_eq!(a.predictions, b.predictions);
    }
}
