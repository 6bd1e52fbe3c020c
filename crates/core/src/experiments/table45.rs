//! Tables IV and V — held-out test metrics (precision, recall,
//! specificity, F1, accuracy) of the nine models on Pima M and Sylhet,
//! 90/10 stratified split, features vs hypervectors. Table V adds the
//! Hamming model (leave-one-out) as a reference row.

use crate::error::HyperfexError;
use crate::experiments::{raw_features, DatasetId, Datasets, ExperimentConfig};
use crate::extractor::HdcFeatureExtractor;
use crate::hamming::HammingModel;
use crate::models::{make_model, ModelKind, PAPER_MODELS};
use hyperfex_data::split::{stratified_split, SplitFractions};
use hyperfex_data::Table;
use hyperfex_eval::metrics::{BinaryMetrics, ConfusionMatrix};
use hyperfex_eval::report::{metric3, pct, TableReport};
use hyperfex_hdc::classify::UpdateRule;
use hyperfex_ml::online::OnlineHdcClassifier;
use serde::{Deserialize, Serialize};

/// One model's metrics on both input representations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsRow {
    /// Model row (None = an online-trainer or Hamming reference row).
    pub model: Option<ModelKind>,
    /// Online HDC trainer row (extension; hypervector input only).
    pub online: Option<UpdateRule>,
    /// Metrics with raw features (None for online/Hamming rows).
    pub features: Option<BinaryMetrics>,
    /// Metrics with hypervectors.
    pub hypervectors: BinaryMetrics,
}

/// Full Table IV/V result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsTableResult {
    /// Which dataset this table covers.
    pub dataset: DatasetId,
    /// Rows in paper order.
    pub rows: Vec<MetricsRow>,
}

fn evaluate_split(
    table: &Table,
    config: &ExperimentConfig,
) -> Result<MetricsTableResult, HyperfexError> {
    // "We used a sample of 10% of the dataset for testing, training on the
    // other 90%."
    let split = stratified_split(table, SplitFractions::train_test(0.9), config.seed)?;
    let y_train: Vec<usize> = split.train.iter().map(|&i| table.labels()[i]).collect();
    let y_test: Vec<usize> = split.test.iter().map(|&i| table.labels()[i]).collect();

    let all_raw = raw_features(table)?;
    let (x_train_raw, x_test_raw) = (
        all_raw.select_rows(&split.train),
        all_raw.select_rows(&split.test),
    );
    let mut extractor = HdcFeatureExtractor::new(config.dim(), config.seed);
    extractor.fit(table, Some(&split.train))?;
    let train_hvs = extractor.transform(table, Some(&split.train))?;
    let test_hvs = extractor.transform(table, Some(&split.test))?;
    let x_train_hv = HdcFeatureExtractor::to_matrix(&train_hvs)?;
    let x_test_hv = HdcFeatureExtractor::to_matrix(&test_hvs)?;

    let mut rows = Vec::new();
    for kind in PAPER_MODELS {
        let run = |x_train: &hyperfex_ml::Matrix,
                   x_test: &hyperfex_ml::Matrix|
         -> Result<BinaryMetrics, HyperfexError> {
            let mut model = make_model(kind, config.seed, &config.budget);
            model.fit(x_train, &y_train)?;
            let predictions = model.predict(x_test)?;
            Ok(ConfusionMatrix::from_labels(&y_test, &predictions)?.metrics())
        };
        rows.push(MetricsRow {
            model: Some(kind),
            online: None,
            features: Some(run(&x_train_raw, &x_test_raw)?),
            hypervectors: run(&x_train_hv, &x_test_hv)?,
        });
    }
    // Extension rows: the online HDC trainer family on the same split.
    // They live purely in hyperspace, so only the hypervector column is
    // populated (like the Hamming reference row of Table V).
    for rule in UpdateRule::ALL {
        let mut model = OnlineHdcClassifier::new(rule);
        model.fit_hypervectors(&train_hvs, &y_train)?;
        let predictions = model.predict_hypervectors(&test_hvs)?;
        rows.push(MetricsRow {
            model: None,
            online: Some(rule),
            features: None,
            hypervectors: ConfusionMatrix::from_labels(&y_test, &predictions)?.metrics(),
        });
    }
    Ok(MetricsTableResult {
        dataset: DatasetId::PimaM, // caller overwrites
        rows,
    })
}

/// Runs Table IV (Pima M).
pub fn run_table4(
    datasets: &Datasets,
    config: &ExperimentConfig,
) -> Result<MetricsTableResult, HyperfexError> {
    let mut result = evaluate_split(&datasets.pima_m, config)?;
    result.dataset = DatasetId::PimaM;
    Ok(result)
}

/// Runs Table V (Sylhet), including the Hamming reference row.
pub fn run_table5(
    datasets: &Datasets,
    config: &ExperimentConfig,
) -> Result<MetricsTableResult, HyperfexError> {
    let mut result = evaluate_split(&datasets.sylhet, config)?;
    result.dataset = DatasetId::Sylhet;
    // "We include the Hamming model for reference, however the metrics for
    // it are from leave-one-out validation."
    let outcome = HammingModel::new(config.dim(), config.seed).evaluate_loocv(&datasets.sylhet)?;
    let metrics = HammingModel::metrics(&outcome).ok_or_else(|| {
        HyperfexError::Pipeline("Hamming LOOCV did not produce binary counts".into())
    })?;
    result.rows.push(MetricsRow {
        model: None,
        online: None,
        features: None,
        hypervectors: metrics,
    });
    Ok(result)
}

/// Paper-published accuracy pairs `(features, hypervectors)` for spot
/// reference in reports (full published tables live in EXPERIMENTS.md).
#[must_use]
pub fn paper_accuracy(model: ModelKind, dataset: DatasetId) -> Option<(f64, f64)> {
    use DatasetId::{PimaM, Sylhet};
    use ModelKind as M;
    let v = match (model, dataset) {
        (M::RandomForest, PimaM) => (0.7966, 0.8305),
        (M::Knn, PimaM) => (0.7627, 0.7542),
        (M::DecisionTree, PimaM) => (0.7881, 0.7373),
        (M::XgBoost, PimaM) => (0.8136, 0.8051),
        (M::CatBoost, PimaM) => (0.7797, 0.7627),
        (M::Sgd, PimaM) => (0.6356, 0.7542),
        (M::LogisticRegression, PimaM) => (0.8220, 0.7542),
        (M::Svc, PimaM) => (0.8220, 0.8305),
        (M::Lgbm, PimaM) => (0.7881, 0.7966),
        (M::RandomForest, Sylhet) => (0.9551, 0.9679),
        (M::Knn, Sylhet) => (0.9103, 0.9487),
        (M::DecisionTree, Sylhet) => (0.9551, 0.9423),
        (M::XgBoost, Sylhet) => (0.9615, 0.9359),
        (M::CatBoost, Sylhet) => (0.9551, 0.9551),
        (M::Sgd, Sylhet) => (0.8333, 0.9038),
        (M::LogisticRegression, Sylhet) => (0.8846, 0.9423),
        (M::Svc, Sylhet) => (0.9103, 0.9551),
        (M::Lgbm, Sylhet) => (0.9551, 0.9423),
        _ => return None,
    };
    Some(v)
}

impl MetricsTableResult {
    /// Renders the paper-style report.
    #[must_use]
    pub fn to_report(&self, caption: &str) -> TableReport {
        let mut t = TableReport::new(
            caption,
            &[
                "Model",
                "Input",
                "Precision",
                "Recall",
                "Specificity",
                "F1",
                "Accuracy",
                "Paper acc.",
            ],
        );
        for row in &self.rows {
            let label = match (row.model, row.online) {
                (Some(m), _) => m.label(),
                (None, Some(k)) => k.label(),
                (None, None) => "Hamming (LOOCV)",
            };
            let paper = row.model.and_then(|m| paper_accuracy(m, self.dataset));
            if let Some(f) = &row.features {
                t.push_row(vec![
                    label.into(),
                    "features".into(),
                    metric3(f.precision),
                    metric3(f.recall),
                    metric3(f.specificity),
                    metric3(f.f1),
                    pct(f.accuracy),
                    paper.map_or("-".into(), |(p, _)| pct(p)),
                ]);
            }
            let h = &row.hypervectors;
            t.push_row(vec![
                label.into(),
                "hypervectors".into(),
                metric3(h.precision),
                metric3(h.recall),
                metric3(h.specificity),
                metric3(h.f1),
                pct(h.accuracy),
                paper.map_or_else(
                    || {
                        if row.model.is_none() && row.online.is_none() {
                            pct(0.9596)
                        } else {
                            "-".into()
                        }
                    },
                    |(_, p)| pct(p),
                ),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn mini_datasets() -> Datasets {
        let tiny = sylhet::generate(&SylhetConfig {
            n_positive: 60,
            n_negative: 50,
            ..Default::default()
        })
        .unwrap();
        Datasets {
            pima_r: tiny.clone(),
            pima_m: tiny.clone(),
            sylhet: tiny,
        }
    }

    fn mini_config() -> ExperimentConfig {
        ExperimentConfig {
            dim: 128,
            budget: crate::models::ModelBudget {
                ensemble_scale: 0.05,
                nn_max_epochs: 10,
            },
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn table4_has_nine_model_rows_plus_online_trainers() {
        let result = run_table4(&mini_datasets(), &mini_config()).unwrap();
        assert_eq!(result.rows.len(), 12);
        assert_eq!(result.dataset, DatasetId::PimaM);
        for row in &result.rows[..9] {
            assert!(row.model.is_some());
            assert!(row.online.is_none());
            assert!(row.features.is_some());
        }
        for (row, rule) in result.rows[9..].iter().zip(UpdateRule::ALL) {
            assert!(row.model.is_none());
            assert_eq!(row.online, Some(rule));
            assert!(row.features.is_none());
        }
        for row in &result.rows {
            let m = &row.hypervectors;
            for v in [m.precision, m.recall, m.specificity, m.f1, m.accuracy] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn table5_appends_the_hamming_row() {
        let result = run_table5(&mini_datasets(), &mini_config()).unwrap();
        assert_eq!(result.rows.len(), 13);
        let last = result.rows.last().unwrap();
        assert!(last.model.is_none());
        assert!(last.online.is_none());
        assert!(last.features.is_none());
        assert!(last.hypervectors.accuracy > 0.5);
        let report = result.to_report("Table V");
        // 9 models × 2 inputs + 3 online trainer rows + 1 Hamming row.
        assert_eq!(report.rows.len(), 22);
        assert!(report.render().contains("Hamming"));
        assert!(report.render().contains("HDC LVQ"));
    }

    #[test]
    fn paper_accuracy_covers_both_tables() {
        for model in PAPER_MODELS {
            assert!(paper_accuracy(model, DatasetId::PimaM).is_some());
            assert!(paper_accuracy(model, DatasetId::Sylhet).is_some());
        }
        assert_eq!(
            paper_accuracy(ModelKind::RandomForest, DatasetId::PimaR),
            None
        );
    }
}
