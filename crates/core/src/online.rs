//! Pure-hyperspace online models: the perceptron, passive-aggressive and
//! LVQ trainers evaluated like the paper's Hamming model — encode every
//! patient once, then leave-one-out validation. Unlike 1-NN ("we only
//! need to measure distances"), each fold refits a small prototype model
//! with pocketed multi-epoch training, so the comparison isolates what
//! the trained prototypes add over raw distance lookups.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_eval::metrics::{BinaryMetrics, ConfusionMatrix};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::{LoocvOutcome, UpdateRule};
use hyperfex_ml::online::OnlineHdcClassifier;

/// End-to-end pure-HDC online model: encode, then LOOCV with a prototype
/// trainer refitted per held-out fold.
#[derive(Debug, Clone)]
pub struct OnlineHdcModel {
    dim: Dim,
    seed: u64,
    rule: UpdateRule,
}

impl OnlineHdcModel {
    /// Creates the default configuration for one update rule.
    #[must_use]
    pub fn new(dim: Dim, seed: u64, rule: UpdateRule) -> Self {
        Self { dim, seed, rule }
    }

    /// Runs the full pipeline: encode every patient, then leave-one-out
    /// validation with a freshly pocket-fitted trainer per fold.
    ///
    /// Like [`crate::hamming::HammingModel::evaluate_loocv`] the encoder
    /// ranges are fitted on the whole table — encoding is part of dataset
    /// preparation, shared across folds.
    pub fn evaluate_loocv(&self, table: &Table) -> Result<LoocvOutcome, HyperfexError> {
        let _span = crate::obs::span("core/online_loocv");
        let mut extractor = HdcFeatureExtractor::new(self.dim, self.seed);
        let hvs = extractor.fit_transform(table)?;
        let labels = table.labels();
        if hvs.len() < 2 {
            return Err(HyperfexError::Pipeline(
                "LOOCV needs at least two rows".into(),
            ));
        }
        let fold = |held_out: usize| -> Result<usize, HyperfexError> {
            let train_hvs: Vec<_> = hvs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != held_out)
                .map(|(_, hv)| hv.clone())
                .collect();
            let train_labels: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != held_out)
                .map(|(_, &l)| l)
                .collect();
            let mut clf = OnlineHdcClassifier::new(self.rule);
            clf.fit_hypervectors(&train_hvs, &train_labels)?;
            let mut p = clf.predict_hypervectors(std::slice::from_ref(&hvs[held_out]))?;
            p.pop()
                .ok_or_else(|| HyperfexError::Pipeline("predict returned no prediction".into()))
        };
        // Each fold is a full pocketed refit, independent of every other
        // fold: folds run in parallel chunks and stay in row order.
        let predictions: Vec<usize> = rayon::map_ranges(hvs.len(), 1, |folds| {
            folds.map(fold).collect::<Result<Vec<_>, _>>()
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(LoocvOutcome::from_predictions(
            labels,
            &predictions,
            n_classes,
        ))
    }

    /// Derives the paper's metric set from a LOOCV outcome.
    #[must_use]
    pub fn metrics(outcome: &LoocvOutcome) -> Option<BinaryMetrics> {
        outcome
            .binary_counts()
            .map(|(tp, tn, fp, fn_)| ConfusionMatrix { tp, tn, fp, fn_ }.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn cohort() -> Table {
        sylhet::generate(&SylhetConfig {
            n_positive: 40,
            n_negative: 30,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn every_trainer_beats_the_base_rate_under_loocv() {
        let table = cohort();
        for rule in UpdateRule::ALL {
            let outcome = OnlineHdcModel::new(Dim::new(1_000), 3, rule)
                .evaluate_loocv(&table)
                .unwrap();
            assert_eq!(outcome.total, 70);
            // Base rate = 40/70 ≈ 0.57; the Sylhet symptoms separate well.
            assert!(
                outcome.accuracy() > 0.7,
                "{rule:?} accuracy {}",
                outcome.accuracy()
            );
            let m = OnlineHdcModel::metrics(&outcome).unwrap();
            assert!(m.recall > 0.5, "{rule:?} recall {}", m.recall);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let table = cohort();
        let run = || {
            OnlineHdcModel::new(Dim::new(512), 5, UpdateRule::Perceptron)
                .evaluate_loocv(&table)
                .unwrap()
        };
        assert_eq!(run().predictions, run().predictions);
    }

    #[test]
    fn tiny_tables_rejected() {
        let table = cohort();
        let two = Table::new(
            table.columns().to_vec(),
            vec![table.row(0).to_vec()],
            vec![table.labels()[0]],
        )
        .unwrap();
        assert!(OnlineHdcModel::new(Dim::new(256), 0, UpdateRule::Lvq)
            .evaluate_loocv(&two)
            .is_err());
    }
}
