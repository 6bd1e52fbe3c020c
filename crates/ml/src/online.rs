//! Estimator wrapper for the HDC online trainer.
//!
//! [`OnlineHdcClassifier`] adapts `hyperfex-hdc`'s [`OnlineTrainer`] under
//! any of its [`UpdateRule`]s (perceptron, passive-aggressive, LVQ) to the
//! [`Estimator`] trait so experiment runners can slot it into the same
//! model zoo as the paper's nine classifiers. Batch `fit` uses pocketed
//! multi-epoch training and starts fresh; [`Estimator::partial_fit`]
//! streams records through the trainer's single-update rule, preserving
//! prior state — including a cold start, where the first mini-batch
//! bootstraps the model. `partial_fit` runs every estimator's mini-batch
//! checks (a non-finite cell is [`MlError::NonFiniteInput`]), and a
//! mini-batch whose width differs from the trained model's is
//! [`MlError::ShapeMismatch`] and leaves the model as it was.
//!
//! Packed inputs ([`Features::Packed`]) run on the word-level path
//! directly: each row of the [`BitMatrix`](hyperfex_hdc::BitMatrix) is
//! lifted back to a [`BinaryHypervector`] without a dense detour. Dense
//! rows are binarised at ≥ 0.5 (matching the 0.0/1.0 convention of
//! [`crate::traits::densify`]).

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{Estimator, Features};
use hyperfex_hdc::classify::{fit_pocketed, OnlineTrainer, UpdateRule};
use hyperfex_hdc::{BinaryHypervector, Dim, HdcError};

/// Pocketed retraining epochs of every batch `fit`.
const EPOCHS: usize = 10;

/// An [`Estimator`] over binary (hypervector) features backed by an online
/// HDC trainer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineHdcClassifier {
    rule: UpdateRule,
    trainer: Option<OnlineTrainer>,
}

impl OnlineHdcClassifier {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(rule: UpdateRule) -> Self {
        Self {
            rule,
            trainer: None,
        }
    }

    /// Number of classes allocated so far (0 before any fitting).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.trainer.as_ref().map_or(0, OnlineTrainer::n_classes)
    }

    /// Streams hypervector records through the trainer's single-record
    /// update rule, preserving prior state. Cold start is allowed: the
    /// first call allocates the trainer at the records' dimensionality.
    /// After that, a record of another dimensionality is a
    /// [`MlError::ShapeMismatch`], and the records before it stay applied
    /// (none, for a batch of one width). Returns the number of corrective
    /// updates applied.
    pub fn partial_fit_hypervectors(
        &mut self,
        hvs: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<usize, MlError> {
        let dim = hvs.first().ok_or(MlError::EmptyTrainingSet)?.dim();
        self.trainer
            .get_or_insert_with(|| OnlineTrainer::new(self.rule, dim))
            .partial_fit(hvs, labels)
            .map_err(map_hdc)
    }

    /// Pocketed batch fit over hypervector records, discarding prior state
    /// (kept when the fit fails).
    pub fn fit_hypervectors(
        &mut self,
        hvs: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<(), MlError> {
        let dim = hvs.first().ok_or(MlError::EmptyTrainingSet)?.dim();
        let mut trainer = OnlineTrainer::new(self.rule, dim);
        fit_pocketed(&mut trainer, hvs, labels, EPOCHS).map_err(map_hdc)?;
        self.trainer = Some(trainer);
        Ok(())
    }

    /// Predicts classes for hypervector queries.
    pub fn predict_hypervectors(&self, hvs: &[BinaryHypervector]) -> Result<Vec<usize>, MlError> {
        let trainer = self.trainer.as_ref().ok_or(MlError::NotFitted)?;
        trainer.predict_batch(hvs).map_err(map_hdc)
    }
}

/// Binarises one dense row at ≥ 0.5 into a hypervector (the inverse of
/// [`crate::traits::densify`]'s 0.0/1.0 convention).
fn row_to_hypervector(row: &[f32], dim: Dim) -> Result<BinaryHypervector, MlError> {
    BinaryHypervector::from_bits(dim, row.iter().map(|&v| v >= 0.5)).map_err(map_hdc)
}

fn dense_to_hypervectors(x: &Matrix) -> Result<Vec<BinaryHypervector>, MlError> {
    if x.n_rows() == 0 || x.n_cols() == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    let dim = Dim::try_new(x.n_cols()).map_err(map_hdc)?;
    (0..x.n_rows())
        .map(|r| row_to_hypervector(x.row(r), dim))
        .collect()
}

/// Lifts either feature representation to one hypervector per row.
fn to_hypervectors(x: &Features<'_>) -> Result<Vec<BinaryHypervector>, MlError> {
    match x {
        Features::Dense(m) => dense_to_hypervectors(m),
        Features::Packed(b) => Ok((0..b.n_rows()).map(|r| b.row_hypervector(r)).collect()),
    }
}

/// Maps substrate errors onto the ML error vocabulary.
fn map_hdc(e: HdcError) -> MlError {
    match e {
        HdcError::DimensionMismatch { left, right } => MlError::ShapeMismatch {
            expected: format!("{left} columns"),
            got: format!("{right} columns"),
        },
        HdcError::LabelLengthMismatch { samples, labels } => MlError::LabelLengthMismatch {
            rows: samples,
            labels,
        },
        HdcError::NotFitted => MlError::NotFitted,
        HdcError::EmptyInput => MlError::EmptyTrainingSet,
        other => MlError::InvalidParameter {
            name: "hdc",
            reason: other.to_string(),
        },
    }
}

impl Estimator for OnlineHdcClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.fit_features(&Features::Dense(x), y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        self.predict_features(&Features::Dense(x))
    }

    fn name(&self) -> &'static str {
        self.rule.label()
    }

    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        crate::traits::validate_fit_inputs(x, y)?;
        self.fit_hypervectors(&to_hypervectors(x)?, y)
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        self.predict_hypervectors(&to_hypervectors(x)?)
    }

    fn partial_fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.partial_fit_features(&Features::Dense(x), y)
    }

    fn partial_fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        crate::traits::validate_partial_fit_inputs(x, y)?;
        self.partial_fit_hypervectors(&to_hypervectors(x)?, y)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_hdc::bitmatrix::BitMatrix;
    use hyperfex_hdc::rng::SplitMix64;

    fn toy_problem(seed: u64) -> (Matrix, Vec<usize>) {
        // Two well-separated binary patterns plus noisy copies.
        let mut rng = SplitMix64::new(seed);
        let dim = 256usize;
        let a = BinaryHypervector::random(Dim::new(dim), &mut rng);
        let b = a.complement();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10u64 {
            let base = if i % 2 == 0 { &a } else { &b };
            let noisy = base.flip_balanced(dim / 20, &mut rng).unwrap();
            rows.push(
                (0..dim)
                    .map(|j| f32::from(u8::from(noisy.get(j))))
                    .collect(),
            );
            labels.push((i % 2) as usize);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn all_kinds_fit_and_predict_dense() {
        let (x, y) = toy_problem(3);
        for rule in UpdateRule::ALL {
            let mut clf = OnlineHdcClassifier::new(rule);
            clf.fit(&x, &y).unwrap();
            let acc = clf.accuracy(&x, &y).unwrap();
            assert!(acc >= 0.9, "{}: accuracy {acc}", clf.name());
        }
    }

    #[test]
    fn packed_path_matches_dense_path() {
        let (x, y) = toy_problem(7);
        let hvs = dense_to_hypervectors(&x).unwrap();
        let bits = BitMatrix::from_hypervectors(&hvs).unwrap();
        for rule in UpdateRule::ALL {
            let mut dense_clf = OnlineHdcClassifier::new(rule);
            dense_clf.fit(&x, &y).unwrap();
            let mut packed_clf = OnlineHdcClassifier::new(rule);
            packed_clf
                .fit_features(&Features::Packed(&bits), &y)
                .unwrap();
            assert_eq!(
                dense_clf.predict(&x).unwrap(),
                packed_clf
                    .predict_features(&Features::Packed(&bits))
                    .unwrap(),
                "{}",
                dense_clf.name()
            );
        }
    }

    #[test]
    fn partial_fit_supports_cold_start_and_preserves_state() {
        let (x, y) = toy_problem(11);
        let mut clf = OnlineHdcClassifier::new(UpdateRule::Perceptron);
        // Cold start: no prior fit.
        clf.partial_fit(&x, &y).unwrap();
        assert_eq!(clf.n_classes(), 2);
        // Additional mini-batches refine rather than reset.
        for _ in 0..5 {
            clf.partial_fit(&x, &y).unwrap();
        }
        assert!(clf.accuracy(&x, &y).unwrap() >= 0.9);
    }

    #[test]
    fn partial_fit_at_another_width_is_a_shape_error_that_keeps_the_model() {
        let (x, y) = toy_problem(5);
        let narrow = Matrix::zeros(2, 128);
        for rule in UpdateRule::ALL {
            let mut clf = OnlineHdcClassifier::new(rule);
            clf.fit(&x, &y).unwrap();
            let before = clf.predict(&x).unwrap();
            assert_eq!(clf.n_classes(), 2, "{rule:?}");
            assert!(
                matches!(
                    clf.partial_fit(&narrow, &[0, 0]),
                    Err(MlError::ShapeMismatch { .. })
                ),
                "{rule:?}"
            );
            assert_eq!(clf.n_classes(), 2, "{rule:?}");
            assert_eq!(clf.predict(&x).unwrap(), before, "{rule:?}");
        }
    }

    #[test]
    fn partial_fit_rejects_non_finite_cells_like_fit() {
        let (mut x, y) = toy_problem(5);
        x.set(1, 3, f32::NAN);
        let nan = MlError::NonFiniteInput { row: 1, col: 3 };
        let mut clf = OnlineHdcClassifier::new(UpdateRule::Perceptron);
        assert_eq!(clf.fit(&x, &y), Err(nan.clone()));
        assert_eq!(clf.partial_fit(&x, &y), Err(nan));
        assert_eq!(clf.n_classes(), 0);
    }

    #[test]
    fn default_partial_fit_is_a_typed_unsupported_error() {
        let mut tree = crate::tree::DecisionTreeClassifier::new(crate::tree::TreeParams::default());
        let (x, y) = toy_problem(1);
        assert!(matches!(
            tree.partial_fit(&x, &y),
            Err(MlError::PartialFitUnsupported { .. })
        ));
    }

    #[test]
    fn unfitted_predict_errors() {
        let clf = OnlineHdcClassifier::new(UpdateRule::Lvq);
        let x = Matrix::zeros(2, 8);
        assert_eq!(clf.predict(&x), Err(MlError::NotFitted));
    }
}
