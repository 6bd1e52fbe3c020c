//! The hybrid HDC + ML model (§II-D): hypervectors as input features for a
//! classical estimator or neural network.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_ml::{Estimator, Features, Matrix};

/// Wraps any [`Estimator`] behind the HDC feature-extraction stage.
pub struct HybridClassifier {
    extractor: HdcFeatureExtractor,
    model: Box<dyn Estimator>,
    fitted: bool,
}

impl HybridClassifier {
    /// Creates an unfitted hybrid model.
    #[must_use]
    pub fn new(dim: Dim, seed: u64, model: Box<dyn Estimator>) -> Self {
        Self {
            extractor: HdcFeatureExtractor::new(dim, seed),
            model,
            fitted: false,
        }
    }

    /// The wrapped model's display name.
    #[must_use]
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Fits the encoder ranges and the model on the given training rows.
    ///
    /// The design matrix stays in packed form: estimators with a popcount
    /// fast path (KNN, linear models, SVC, decision tree) train on the
    /// bits directly; the rest densify once behind [`Estimator::fit_features`].
    ///
    /// The new encoder replaces the old one only once the model has fitted,
    /// so a refit that fails (for example on single-class rows) leaves a
    /// fitted model encoding records as it was trained.
    pub fn fit(&mut self, table: &Table, train_rows: &[usize]) -> Result<(), HyperfexError> {
        let mut extractor = self.extractor.clone();
        extractor.fit(table, Some(train_rows))?;
        let bits = pack(&extractor, table, train_rows)?;
        let y: Vec<usize> = train_rows.iter().map(|&i| table.labels()[i]).collect();
        self.model.fit_features(&Features::Packed(&bits), &y)?;
        self.extractor = extractor;
        self.fitted = true;
        Ok(())
    }

    /// Streams additional records through the wrapped model's online
    /// update rule ([`Estimator::partial_fit_features`]), preserving the
    /// model's learned state — the add-a-patient-follow-up scenario.
    ///
    /// Cold start is allowed: on the first call the encoder ranges are
    /// fitted on the given rows and the model bootstraps from them.
    /// Models without online support return
    /// [`hyperfex_ml::MlError::PartialFitUnsupported`] (wrapped), leaving
    /// both encoder and model untouched on the warm path.
    pub fn partial_fit(&mut self, table: &Table, rows: &[usize]) -> Result<(), HyperfexError> {
        if !self.fitted {
            self.extractor.fit(table, Some(rows))?;
        }
        let bits = self.packed_features(table, rows)?;
        let y: Vec<usize> = rows.iter().map(|&i| table.labels()[i]).collect();
        self.model
            .partial_fit_features(&Features::Packed(&bits), &y)?;
        self.fitted = true;
        Ok(())
    }

    /// Predicts classes for the selected rows.
    pub fn predict(&self, table: &Table, rows: &[usize]) -> Result<Vec<usize>, HyperfexError> {
        if !self.fitted {
            return Err(HyperfexError::Pipeline("predict called before fit".into()));
        }
        let bits = self.packed_features(table, rows)?;
        Ok(self.model.predict_features(&Features::Packed(&bits))?)
    }

    /// Accuracy over the selected rows.
    pub fn accuracy(&self, table: &Table, rows: &[usize]) -> Result<f64, HyperfexError> {
        let predictions = self.predict(table, rows)?;
        let correct = predictions
            .iter()
            .zip(rows)
            .filter(|(p, &i)| **p == table.labels()[i])
            .count();
        Ok(correct as f64 / rows.len().max(1) as f64)
    }

    /// The extracted hypervector features for the given rows as a 0/1
    /// matrix (exposed so callers can cache them across models).
    pub fn features(&self, table: &Table, rows: &[usize]) -> Result<Matrix, HyperfexError> {
        let hvs = self.extractor.transform(table, Some(rows))?;
        HdcFeatureExtractor::to_matrix(&hvs)
    }

    /// The extracted features in packed bit form — what [`Self::fit`] and
    /// [`Self::predict`] feed the model's popcount fast paths.
    pub fn packed_features(
        &self,
        table: &Table,
        rows: &[usize],
    ) -> Result<BitMatrix, HyperfexError> {
        pack(&self.extractor, table, rows)
    }

    /// Clinician-facing permutation importance of the *original* clinical
    /// features: each raw column is shuffled across the evaluation rows
    /// before encoding, and the held-out accuracy drop is reported per
    /// feature name. This answers the §III-B question of *which inputs*
    /// drive a hypervector-based risk model despite the 10,000-bit
    /// representation being individually uninterpretable.
    pub fn feature_importance(
        &self,
        table: &Table,
        rows: &[usize],
        n_repeats: usize,
        seed: u64,
    ) -> Result<Vec<(String, f64)>, HyperfexError> {
        if !self.fitted {
            return Err(HyperfexError::Pipeline(
                "importance requires a fitted model".into(),
            ));
        }
        if n_repeats == 0 {
            return Err(HyperfexError::Pipeline(
                "n_repeats must be at least 1".into(),
            ));
        }
        let baseline = self.accuracy(table, rows)?;
        let mut rng = SplitMix64::new(seed);
        let labels: Vec<usize> = rows.iter().map(|&i| table.labels()[i]).collect();
        let mut out = Vec::with_capacity(table.n_cols());
        for col in 0..table.n_cols() {
            let mut drop_sum = 0.0;
            for _ in 0..n_repeats {
                // Shuffle this column's values across the evaluation rows.
                let mut order: Vec<usize> = (0..rows.len()).collect();
                rng.shuffle(&mut order);
                let mut permuted_rows: Vec<Vec<f64>> =
                    rows.iter().map(|&i| table.row(i).to_vec()).collect();
                let column: Vec<f64> = permuted_rows.iter().map(|r| r[col]).collect();
                for (r, &src) in permuted_rows.iter_mut().zip(&order) {
                    r[col] = column[src];
                }
                let permuted_table =
                    Table::new(table.columns().to_vec(), permuted_rows, labels.clone())?;
                let all: Vec<usize> = (0..permuted_table.n_rows()).collect();
                let predictions = {
                    let hvs = self.extractor.transform(&permuted_table, Some(&all))?;
                    let bits = HdcFeatureExtractor::to_bit_matrix(&hvs)?;
                    self.model.predict_features(&Features::Packed(&bits))?
                };
                let correct = predictions
                    .iter()
                    .zip(&labels)
                    .filter(|(p, l)| p == l)
                    .count();
                drop_sum += baseline - correct as f64 / labels.len().max(1) as f64;
            }
            out.push((
                table.columns()[col].name.clone(),
                drop_sum / n_repeats as f64,
            ));
        }
        Ok(out)
    }
}

/// The selected rows encoded by `extractor`, packed.
fn pack(
    extractor: &HdcFeatureExtractor,
    table: &Table,
    rows: &[usize],
) -> Result<BitMatrix, HyperfexError> {
    let hvs = extractor.transform(table, Some(rows))?;
    HdcFeatureExtractor::to_bit_matrix(&hvs)
}

impl std::fmt::Debug for HybridClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridClassifier")
            .field("dim", &self.extractor.dim())
            .field("model", &self.model.name())
            .field("fitted", &self.fitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};
    use hyperfex_hdc::classify::UpdateRule;
    use hyperfex_ml::prelude::*;

    fn cohort() -> Table {
        sylhet::generate(&SylhetConfig {
            n_positive: 50,
            n_negative: 40,
            ..Default::default()
        })
        .unwrap()
    }

    /// Interleaved train/test indices (the generator emits positives
    /// first, so contiguous ranges would be single-class).
    fn split(table: &Table) -> (Vec<usize>, Vec<usize>) {
        let train: Vec<usize> = (0..table.n_rows()).filter(|i| i % 4 != 0).collect();
        let test: Vec<usize> = (0..table.n_rows()).filter(|i| i % 4 == 0).collect();
        (train, test)
    }

    #[test]
    fn forest_on_hypervectors_learns_the_cohort() {
        let table = cohort();
        let (train, test) = split(&table);
        let mut hybrid = HybridClassifier::new(
            Dim::new(1_000),
            3,
            Box::new(RandomForestClassifier::new(RandomForestParams {
                n_estimators: 25,
                ..RandomForestParams::default()
            })),
        );
        hybrid.fit(&table, &train).unwrap();
        let acc = hybrid.accuracy(&table, &test).unwrap();
        assert!(acc > 0.65, "held-out accuracy {acc}");
        assert_eq!(test.len() + train.len(), table.n_rows());
        assert_eq!(hybrid.model_name(), "Random Forest");
    }

    #[test]
    fn partial_fit_streams_an_online_model_from_cold_start() {
        let table = cohort();
        let (train, test) = split(&table);
        let mut hybrid = HybridClassifier::new(
            Dim::new(1_000),
            3,
            Box::new(OnlineHdcClassifier::new(UpdateRule::Perceptron)),
        );
        // Interleave the stream (the generator emits positives first, but
        // a clinic sees mixed arrivals): alternate front/back of the
        // train indices so every batch carries both classes.
        let stream: Vec<usize> = (0..train.len())
            .map(|k| {
                if k % 2 == 0 {
                    train[k / 2]
                } else {
                    train[train.len() - 1 - k / 2]
                }
            })
            .collect();
        // Cold start on the first batch, then fold in the rest batch by
        // batch over a few follow-up rounds; predictions must work after
        // the first call already.
        let (first, rest) = stream.split_at(16);
        hybrid.partial_fit(&table, first).unwrap();
        assert_eq!(hybrid.predict(&table, &test).unwrap().len(), test.len());
        for _round in 0..3 {
            for chunk in rest.chunks(8) {
                hybrid.partial_fit(&table, chunk).unwrap();
            }
        }
        let acc = hybrid.accuracy(&table, &test).unwrap();
        assert!(acc > 0.6, "streamed accuracy {acc}");
    }

    #[test]
    fn partial_fit_on_a_batch_model_is_a_typed_error() {
        let table = cohort();
        let (train, _) = split(&table);
        let mut hybrid = HybridClassifier::new(
            Dim::new(256),
            0,
            Box::new(DecisionTreeClassifier::new(TreeParams::default())),
        );
        let err = hybrid.partial_fit(&table, &train).unwrap_err();
        assert!(
            matches!(
                err,
                HyperfexError::Ml(MlError::PartialFitUnsupported { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn a_failed_refit_keeps_the_encoder_the_model_was_trained_with() {
        let table = cohort();
        let (train, test) = split(&table);
        let mut hybrid = HybridClassifier::new(
            Dim::new(1_000),
            3,
            Box::new(SgdClassifier::new(SgdParams::default())),
        );
        hybrid.fit(&table, &train).unwrap();
        let features = hybrid.features(&table, &test).unwrap();
        let predictions = hybrid.predict(&table, &test).unwrap();
        // The generator emits positives first, so these rows are one class,
        // and their ranges differ from the training rows'.
        let positives: Vec<usize> = (0..10).collect();
        assert!(positives.iter().all(|&i| table.labels()[i] == 1));
        let err = hybrid.fit(&table, &positives).unwrap_err();
        assert!(
            matches!(err, HyperfexError::Ml(MlError::SingleClass)),
            "{err}"
        );
        assert_eq!(hybrid.features(&table, &test).unwrap(), features);
        assert_eq!(hybrid.predict(&table, &test).unwrap(), predictions);
    }

    #[test]
    fn predict_before_fit_errors() {
        let table = cohort();
        let hybrid = HybridClassifier::new(
            Dim::new(256),
            0,
            Box::new(DecisionTreeClassifier::new(TreeParams::default())),
        );
        assert!(hybrid.predict(&table, &[0]).is_err());
    }

    #[test]
    fn features_matrix_has_hypervector_width() {
        let table = cohort();
        let (train, _) = split(&table);
        let train: Vec<usize> = train.into_iter().take(50).collect();
        let mut hybrid = HybridClassifier::new(
            Dim::new(512),
            1,
            Box::new(DecisionTreeClassifier::new(TreeParams::default())),
        );
        hybrid.fit(&table, &train).unwrap();
        let x = hybrid.features(&table, &train).unwrap();
        assert_eq!(x.n_rows(), 50);
        assert_eq!(x.n_cols(), 512);
        // Strictly 0/1.
        assert!(x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn importance_highlights_the_decisive_symptoms() {
        // Build a cohort where polyuria (column 2) carries most signal by
        // construction; its permutation importance must dominate the
        // near-uninformative itching column (column 9).
        let table = cohort();
        let (train, test) = split(&table);
        let mut hybrid = HybridClassifier::new(
            Dim::new(1_000),
            3,
            Box::new(RandomForestClassifier::new(RandomForestParams {
                n_estimators: 20,
                ..RandomForestParams::default()
            })),
        );
        hybrid.fit(&table, &train).unwrap();
        let importance = hybrid.feature_importance(&table, &test, 3, 7).unwrap();
        assert_eq!(importance.len(), 16);
        let by_name = |name: &str| -> f64 {
            importance
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| *d)
                .unwrap()
        };
        assert!(
            by_name("Polyuria") > by_name("Itching"),
            "polyuria {} should outweigh itching {}",
            by_name("Polyuria"),
            by_name("Itching")
        );
    }

    #[test]
    fn importance_validates_inputs() {
        let table = cohort();
        let hybrid = HybridClassifier::new(
            Dim::new(128),
            0,
            Box::new(DecisionTreeClassifier::new(TreeParams::default())),
        );
        assert!(hybrid.feature_importance(&table, &[0, 1], 3, 0).is_err());
    }

    #[test]
    fn debug_formatting_names_the_model() {
        let hybrid = HybridClassifier::new(
            Dim::new(64),
            0,
            Box::new(KnnClassifier::new(KnnParams::default())),
        );
        let s = format!("{hybrid:?}");
        assert!(s.contains("KNN"));
        assert!(s.contains("fitted: false"));
    }
}
