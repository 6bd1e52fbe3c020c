//! Table II — the paper's headline comparison: pure-HDC Hamming
//! classification (leave-one-out) vs the Sequential NN trained on raw
//! features and on hypervectors (70/15/15 split, averaged over repeats).

use crate::error::HyperfexError;
use crate::experiments::{raw_features, DatasetId, Datasets, ExperimentConfig};
use crate::extractor::HdcFeatureExtractor;
use crate::hamming::HammingModel;
use crate::models::{make_model, ModelKind};
use crate::online::OnlineHdcModel;
use hyperfex_data::split::{stratified_split, SplitFractions};
use hyperfex_data::Table;
use hyperfex_eval::report::{pct, TableReport};
use hyperfex_hdc::classify::UpdateRule;
use serde::{Deserialize, Serialize};

/// One dataset's Table II numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Which dataset.
    pub dataset: DatasetId,
    /// Hamming LOOCV accuracy.
    pub hamming_accuracy: f64,
    /// Sequential NN mean test accuracy on raw features.
    pub nn_features_accuracy: f64,
    /// Sequential NN mean test accuracy on hypervectors.
    pub nn_hypervector_accuracy: f64,
    /// Perceptron trainer LOOCV accuracy (extension row; pure hyperspace).
    pub perceptron_accuracy: f64,
    /// Passive-aggressive trainer LOOCV accuracy (extension row).
    pub passive_aggressive_accuracy: f64,
    /// LVQ trainer LOOCV accuracy (extension row).
    pub lvq_accuracy: f64,
}

/// Full Table II result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// Per-dataset rows in paper column order.
    pub rows: Vec<Table2Row>,
}

/// Mean test accuracy of the Sequential NN over `repeats` random 70/15/15
/// splits, on the given feature representation.
fn nn_test_accuracy(
    table: &Table,
    config: &ExperimentConfig,
    use_hypervectors: bool,
) -> Result<f64, HyperfexError> {
    let mut total = 0.0;
    for rep in 0..config.repeats {
        let split_seed = config.seed.wrapping_add(1000 + rep as u64);
        let split = stratified_split(table, SplitFractions::PAPER, split_seed)?;
        // Per the paper we train on the 70% part; our early stopping
        // monitors training loss, so the 15% validation part is simply
        // held out (documented deviation — Keras monitors `loss` by
        // default too).
        let (x_train, x_test) = if use_hypervectors {
            let mut extractor = HdcFeatureExtractor::new(config.dim(), config.seed + rep as u64);
            extractor.fit(table, Some(&split.train))?;
            let train = extractor.transform(table, Some(&split.train))?;
            let test = extractor.transform(table, Some(&split.test))?;
            (
                HdcFeatureExtractor::to_matrix(&train)?,
                HdcFeatureExtractor::to_matrix(&test)?,
            )
        } else {
            let all = raw_features(table)?;
            (all.select_rows(&split.train), all.select_rows(&split.test))
        };
        let y_train: Vec<usize> = split.train.iter().map(|&i| table.labels()[i]).collect();
        let y_test: Vec<usize> = split.test.iter().map(|&i| table.labels()[i]).collect();
        let mut nn = make_model(
            ModelKind::SequentialNn,
            config.seed.wrapping_add(rep as u64),
            &config.budget,
        );
        nn.fit(&x_train, &y_train)?;
        total += nn.accuracy(&x_test, &y_test)?;
    }
    Ok(total / config.repeats as f64)
}

/// Runs the full Table II experiment.
pub fn run(datasets: &Datasets, config: &ExperimentConfig) -> Result<Table2Result, HyperfexError> {
    let mut rows = Vec::new();
    for id in Datasets::ALL {
        let table = datasets.get(id);
        let hamming = HammingModel::new(config.dim(), config.seed)
            .evaluate_loocv(table)?
            .accuracy();
        let nn_features = nn_test_accuracy(table, config, false)?;
        let nn_hv = nn_test_accuracy(table, config, true)?;
        // Extension rows: the online trainer family under the same
        // leave-one-out protocol as the Hamming model, so the trained
        // prototypes compete directly with the paper's 1-NN floor.
        let online_loocv = |rule: UpdateRule| -> Result<f64, HyperfexError> {
            Ok(OnlineHdcModel::new(config.dim(), config.seed, rule)
                .evaluate_loocv(table)?
                .accuracy())
        };
        rows.push(Table2Row {
            dataset: id,
            hamming_accuracy: hamming,
            nn_features_accuracy: nn_features,
            nn_hypervector_accuracy: nn_hv,
            perceptron_accuracy: online_loocv(UpdateRule::Perceptron)?,
            passive_aggressive_accuracy: online_loocv(UpdateRule::PassiveAggressive)?,
            lvq_accuracy: online_loocv(UpdateRule::Lvq)?,
        });
    }
    Ok(Table2Result { rows })
}

/// Paper-published Table II values for side-by-side printing:
/// `(hamming, nn features, nn hypervectors)` per dataset.
#[must_use]
pub fn paper_values(id: DatasetId) -> (f64, f64, f64) {
    match id {
        DatasetId::PimaR => (0.707, 0.712, 0.796),
        DatasetId::PimaM => (0.788, 0.759, 0.888),
        DatasetId::Sylhet => (0.959, 0.974, 0.974),
    }
}

impl Table2Result {
    /// Renders the paper-style report with published values inline.
    #[must_use]
    pub fn to_report(&self) -> TableReport {
        let mut t = TableReport::new(
            "Table II — testing accuracy: Hamming model and Sequential NN (features vs hypervectors)",
            &["Model", "Dataset", "Ours", "Paper"],
        );
        for row in &self.rows {
            let (p_ham, p_feat, p_hv) = paper_values(row.dataset);
            t.push_row(vec![
                "Hamming (LOOCV)".into(),
                row.dataset.label().into(),
                pct(row.hamming_accuracy),
                pct(p_ham),
            ]);
            t.push_row(vec![
                "Sequential NN / features".into(),
                row.dataset.label().into(),
                pct(row.nn_features_accuracy),
                pct(p_feat),
            ]);
            t.push_row(vec![
                "Sequential NN / hypervectors".into(),
                row.dataset.label().into(),
                pct(row.nn_hypervector_accuracy),
                pct(p_hv),
            ]);
            for (rule, acc) in [
                (UpdateRule::Perceptron, row.perceptron_accuracy),
                (
                    UpdateRule::PassiveAggressive,
                    row.passive_aggressive_accuracy,
                ),
                (UpdateRule::Lvq, row.lvq_accuracy),
            ] {
                t.push_row(vec![
                    format!("{} (LOOCV)", rule.label()),
                    row.dataset.label().into(),
                    pct(acc),
                    "-".into(),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    /// A miniature end-to-end run (tiny cohorts, tiny dim) to keep the
    /// test fast while exercising every code path.
    #[test]
    fn miniature_table2_runs_and_orders_sanely() {
        let sylhet = sylhet::generate(&SylhetConfig {
            n_positive: 40,
            n_negative: 30,
            ..Default::default()
        })
        .unwrap();
        let datasets = Datasets {
            pima_r: sylhet.clone(),
            pima_m: sylhet.clone(),
            sylhet,
        };
        let config = ExperimentConfig {
            dim: 256,
            repeats: 1,
            budget: crate::models::ModelBudget {
                ensemble_scale: 0.1,
                nn_max_epochs: 40,
            },
            ..ExperimentConfig::quick()
        };
        let result = run(&datasets, &config).unwrap();
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.hamming_accuracy > 0.5, "{row:?}");
            assert!((0.0..=1.0).contains(&row.nn_features_accuracy));
            assert!((0.0..=1.0).contains(&row.nn_hypervector_accuracy));
            for acc in [
                row.perceptron_accuracy,
                row.passive_aggressive_accuracy,
                row.lvq_accuracy,
            ] {
                assert!(acc > 0.5, "online trainer accuracy {acc} in {row:?}");
            }
        }
        let report = result.to_report();
        // 3 paper rows + 3 online-trainer rows per dataset.
        assert_eq!(report.rows.len(), 18);
        assert!(report.render().contains("Hamming"));
        assert!(report.render().contains("HDC Perceptron"));
    }

    #[test]
    fn paper_values_match_the_publication() {
        assert_eq!(paper_values(DatasetId::PimaR), (0.707, 0.712, 0.796));
        assert_eq!(paper_values(DatasetId::Sylhet).2, 0.974);
    }
}
