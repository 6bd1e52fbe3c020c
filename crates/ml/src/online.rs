//! Estimator wrappers for the HDC online trainer family.
//!
//! [`OnlineHdcClassifier`] adapts `hyperfex-hdc`'s
//! [`OnlineTrainer`] implementations (perceptron, passive-aggressive, LVQ)
//! to the [`Estimator`] trait so experiment runners can slot them into the
//! same model zoo as the paper's nine classifiers. Batch `fit` uses
//! pocketed multi-epoch training; [`Estimator::partial_fit`] streams
//! records through the trainer's single-update rule, preserving prior
//! state — including a cold start, where the first mini-batch bootstraps
//! the model.
//!
//! Packed inputs ([`Features::Packed`]) run on the word-level path
//! directly: each row of the [`BitMatrix`] is lifted back to a
//! [`BinaryHypervector`] without a dense detour. Dense rows are binarised
//! at ≥ 0.5 (matching the 0.0/1.0 convention of [`crate::traits::densify`]).

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{Estimator, Features};
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::classify::{
    fit_pocketed, LvqTrainer, OnlineTrainer, PassiveAggressiveTrainer, PerceptronTrainer,
};
use hyperfex_hdc::{BinaryHypervector, Dim, HdcError};

/// Which online update rule an [`OnlineHdcClassifier`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OnlineTrainerKind {
    /// Mistake-driven add/subtract (the centroid retrain rule).
    Perceptron,
    /// Margin-scaled integer updates on the normalized-Hamming score gap.
    PassiveAggressive,
    /// LVQ1 prototype pull/push.
    Lvq,
}

impl OnlineTrainerKind {
    /// All three rules, in reporting order.
    pub const ALL: [Self; 3] = [Self::Perceptron, Self::PassiveAggressive, Self::Lvq];

    /// Display label used by experiment reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Perceptron => "HDC Perceptron",
            Self::PassiveAggressive => "HDC Passive-Aggressive",
            Self::Lvq => "HDC LVQ",
        }
    }
}

/// Concrete trainer storage (the trait is object-safe but pocketed fitting
/// needs `Clone`, so dispatch stays enum-based).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum TrainerState {
    Perceptron(PerceptronTrainer),
    PassiveAggressive(PassiveAggressiveTrainer),
    Lvq(LvqTrainer),
}

impl TrainerState {
    fn new(kind: OnlineTrainerKind, dim: Dim) -> Self {
        match kind {
            OnlineTrainerKind::Perceptron => Self::Perceptron(PerceptronTrainer::new(dim)),
            OnlineTrainerKind::PassiveAggressive => {
                Self::PassiveAggressive(PassiveAggressiveTrainer::new(dim))
            }
            OnlineTrainerKind::Lvq => Self::Lvq(LvqTrainer::new(dim)),
        }
    }

    fn as_dyn(&self) -> &dyn OnlineTrainer {
        match self {
            Self::Perceptron(t) => t,
            Self::PassiveAggressive(t) => t,
            Self::Lvq(t) => t,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn OnlineTrainer {
        match self {
            Self::Perceptron(t) => t,
            Self::PassiveAggressive(t) => t,
            Self::Lvq(t) => t,
        }
    }

    fn fit_pocketed(
        &mut self,
        hvs: &[BinaryHypervector],
        labels: &[usize],
        epochs: usize,
    ) -> Result<usize, HdcError> {
        match self {
            Self::Perceptron(t) => fit_pocketed(t, hvs, labels, epochs),
            Self::PassiveAggressive(t) => fit_pocketed(t, hvs, labels, epochs),
            Self::Lvq(t) => fit_pocketed(t, hvs, labels, epochs),
        }
    }
}

/// Pocketed retraining epochs of every batch `fit`.
const EPOCHS: usize = 10;

/// An [`Estimator`] over binary (hypervector) features backed by an online
/// HDC trainer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineHdcClassifier {
    kind: OnlineTrainerKind,
    trainer: Option<TrainerState>,
}

impl OnlineHdcClassifier {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(kind: OnlineTrainerKind) -> Self {
        Self {
            kind,
            trainer: None,
        }
    }

    /// The update rule this classifier applies.
    #[must_use]
    pub fn kind(&self) -> OnlineTrainerKind {
        self.kind
    }

    /// Number of classes allocated so far (0 before any fitting).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.trainer.as_ref().map_or(0, |t| t.as_dyn().n_classes())
    }

    /// Streams hypervector records through the trainer's single-record
    /// update rule, preserving prior state. Cold start is allowed: the
    /// first call allocates the trainer at the records' dimensionality.
    /// Returns the number of corrective updates applied.
    pub fn partial_fit_hypervectors(
        &mut self,
        hvs: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<usize, MlError> {
        if hvs.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let trainer = self.trainer_for(hvs[0].dim());
        trainer
            .as_dyn_mut()
            .partial_fit(hvs, labels)
            .map_err(map_hdc)
    }

    /// Pocketed batch fit over hypervector records, discarding prior state.
    pub fn fit_hypervectors(
        &mut self,
        hvs: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<(), MlError> {
        if hvs.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let trainer = self.trainer_for(hvs[0].dim());
        trainer.fit_pocketed(hvs, labels, EPOCHS).map_err(map_hdc)?;
        Ok(())
    }

    /// Predicts classes for hypervector queries.
    pub fn predict_hypervectors(&self, hvs: &[BinaryHypervector]) -> Result<Vec<usize>, MlError> {
        let trainer = self.trainer.as_ref().ok_or(MlError::NotFitted)?;
        trainer.as_dyn().predict_batch(hvs).map_err(map_hdc)
    }

    /// Returns the trainer, allocating it on first use (or re-allocating
    /// when the dimensionality changed — a fresh problem, fresh state).
    fn trainer_for(&mut self, dim: Dim) -> &mut TrainerState {
        let stale = self
            .trainer
            .as_ref()
            .is_some_and(|t| t.as_dyn().dim() != dim);
        if stale {
            self.trainer = None;
        }
        self.trainer
            .get_or_insert_with(|| TrainerState::new(self.kind, dim))
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

fn packed_to_hypervectors(b: &BitMatrix) -> Vec<BinaryHypervector> {
    (0..b.n_rows()).map(|r| b.row_hypervector(r)).collect()
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
        let hvs = dense_to_hypervectors(x)?;
        self.predict_hypervectors(&hvs)
    }

    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        crate::traits::validate_fit_inputs(x, y)?;
        let hvs = match x {
            Features::Dense(m) => dense_to_hypervectors(m)?,
            Features::Packed(b) => packed_to_hypervectors(b),
        };
        self.fit_hypervectors(&hvs, y)
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        match x {
            Features::Dense(m) => self.predict(m),
            Features::Packed(b) => self.predict_hypervectors(&packed_to_hypervectors(b)),
        }
    }

    fn partial_fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let hvs = dense_to_hypervectors(x)?;
        self.partial_fit_hypervectors(&hvs, y)?;
        Ok(())
    }

    fn partial_fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        match x {
            Features::Dense(m) => self.partial_fit(m, y),
            Features::Packed(b) => {
                self.partial_fit_hypervectors(&packed_to_hypervectors(b), y)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for kind in OnlineTrainerKind::ALL {
            let mut clf = OnlineHdcClassifier::new(kind);
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
        for kind in OnlineTrainerKind::ALL {
            let mut dense_clf = OnlineHdcClassifier::new(kind);
            dense_clf.fit(&x, &y).unwrap();
            let mut packed_clf = OnlineHdcClassifier::new(kind);
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
        let mut clf = OnlineHdcClassifier::new(OnlineTrainerKind::Perceptron);
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
        let clf = OnlineHdcClassifier::new(OnlineTrainerKind::Lvq);
        let x = Matrix::zeros(2, 8);
        assert_eq!(clf.predict(&x), Err(MlError::NotFitted));
    }
}
