//! Estimator traits shared by every classifier in the substrate.

use crate::error::MlError;
use crate::linalg::Matrix;
use hyperfex_hdc::bitmatrix::BitMatrix;

/// Input features for fitting or prediction: either a dense `f32` design
/// matrix or a packed binary one (hypervector rows, one bit per cell).
///
/// Models with word-level fast paths ([`crate::knn::KnnClassifier`],
/// [`crate::tree::DecisionTreeClassifier`], [`crate::svm::SvcClassifier`],
/// [`crate::linear::LogisticRegression`], [`crate::linear::SgdClassifier`])
/// override [`Estimator::fit_features`]/[`Estimator::predict_features`] to
/// consume the packed form directly; everything else densifies and falls
/// back to the `f32` path.
#[derive(Clone, Copy, Debug)]
pub enum Features<'a> {
    /// Dense row-major `f32` design matrix.
    Dense(&'a Matrix),
    /// Bit-packed binary design matrix.
    Packed(&'a BitMatrix),
}

impl Features<'_> {
    /// Number of samples.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_rows(),
            Self::Packed(b) => b.n_rows(),
        }
    }

    /// Number of feature columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_cols(),
            Self::Packed(b) => b.dim().get(),
        }
    }
}

/// Unpacks a packed binary matrix into a dense 0.0/1.0 `f32` matrix
/// (the fallback bridge for models without a packed fast path).
#[must_use]
pub fn densify(b: &BitMatrix) -> Matrix {
    let d = b.dim().get();
    let mut m = Matrix::zeros(b.n_rows(), d);
    for (r, row) in (0..b.n_rows()).zip(m.as_mut_slice().chunks_mut(d.max(1))) {
        let words = b.row_words(r);
        for (w, chunk) in row.chunks_mut(64).enumerate() {
            let word = words[w];
            for (j, cell) in chunk.iter_mut().enumerate() {
                *cell = ((word >> j) & 1) as f32;
            }
        }
    }
    m
}

/// A supervised classifier over dense feature matrices.
///
/// Labels are class indices (`0..n_classes`); the paper's tasks are binary
/// (`0` = non-diabetic, `1` = diabetic). The trait is object-safe so
/// experiment runners can hold heterogeneous model zoos as
/// `Vec<Box<dyn Estimator>>`.
pub trait Estimator: Send + Sync {
    /// Fits the model to a design matrix and aligned labels.
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError>;

    /// Predicts a class per row.
    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError>;

    /// A short human-readable model name ("Random Forest", …).
    fn name(&self) -> &'static str;

    /// Fits from either feature representation. The default densifies
    /// packed input and delegates to [`Estimator::fit`]; models with
    /// word-level kernels override this to stay in packed form.
    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        match x {
            Features::Dense(m) => self.fit(m, y),
            Features::Packed(b) => self.fit(&densify(b), y),
        }
    }

    /// Predicts from either feature representation (default: densify and
    /// delegate to [`Estimator::predict`]).
    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        match x {
            Features::Dense(m) => self.predict(m),
            Features::Packed(b) => self.predict(&densify(b)),
        }
    }

    /// Incrementally updates the model with a mini-batch, preserving prior
    /// learned state (the add-a-patient-online scenario). The default
    /// returns [`MlError::PartialFitUnsupported`] — deliberately *not* a
    /// silent refit, which would discard everything learned so far. Online
    /// models ([`crate::online::OnlineHdcClassifier`]) override this; they
    /// also accept a cold start, bootstrapping from the first mini-batch.
    fn partial_fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let _ = (x, y);
        Err(MlError::PartialFitUnsupported { model: self.name() })
    }

    /// [`Estimator::partial_fit`] from either feature representation
    /// (default: densify packed input and delegate).
    fn partial_fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        match x {
            Features::Dense(m) => self.partial_fit(m, y),
            Features::Packed(b) => self.partial_fit(&densify(b), y),
        }
    }

    /// Fraction of rows whose predicted class equals `y`.
    fn accuracy(&self, x: &Matrix, y: &[usize]) -> Result<f64, MlError> {
        let predictions = self.predict(x)?;
        if predictions.len() != y.len() {
            return Err(MlError::LabelLengthMismatch {
                rows: predictions.len(),
                labels: y.len(),
            });
        }
        if y.is_empty() {
            return Ok(0.0);
        }
        let correct = predictions.iter().zip(y).filter(|(p, t)| p == t).count();
        Ok(correct as f64 / y.len() as f64)
    }
}

/// A classifier that can score the positive class.
pub trait ProbabilisticEstimator: Estimator {
    /// Probability (or calibrated score in `[0, 1]`) of class 1 per row.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError>;
}

/// Validates the common preconditions every `fit` shares; returns the
/// number of classes.
pub(crate) fn validate_fit_inputs(x: &Features<'_>, y: &[usize]) -> Result<usize, MlError> {
    crate::obs::counter_add("ml/fits", 1);
    let n_classes = validate_rows(x, y)?;
    // At least two classes must actually appear.
    let first = y[0];
    if y.iter().all(|&l| l == first) {
        return Err(MlError::SingleClass);
    }
    Ok(n_classes)
}

/// Validates a `partial_fit` mini-batch; returns the number of classes
/// *referenced by this batch* (`max label + 1`).
///
/// Deliberately relaxed compared to [`validate_fit_inputs`]: a streaming
/// mini-batch may legitimately contain a single class (or even a single
/// record), so the `SingleClass` check does not apply — class coverage is
/// a property of the whole stream, not of any one window of it.
pub(crate) fn validate_partial_fit_inputs(x: &Features<'_>, y: &[usize]) -> Result<usize, MlError> {
    crate::obs::counter_add("ml/partial_fits", 1);
    validate_rows(x, y)
}

/// The checks both validators share: a non-empty design matrix, one label
/// per row and (for dense input; bits are always finite) finite cells.
/// Returns `max label + 1`.
fn validate_rows(x: &Features<'_>, y: &[usize]) -> Result<usize, MlError> {
    if x.n_rows() == 0 || x.n_cols() == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    if x.n_rows() != y.len() {
        return Err(MlError::LabelLengthMismatch {
            rows: x.n_rows(),
            labels: y.len(),
        });
    }
    if let Features::Dense(m) = x {
        m.check_finite()?;
    }
    Ok(y.iter().copied().max().unwrap_or(0) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(usize);

    impl Estimator for Constant {
        fn fit(&mut self, _x: &Matrix, _y: &[usize]) -> Result<(), MlError> {
            Ok(())
        }
        fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
            Ok(vec![self.0; x.n_rows()])
        }
        fn name(&self) -> &'static str {
            "Constant"
        }
    }

    #[test]
    fn default_accuracy_counts_matches() {
        let clf = Constant(1);
        let x = Matrix::zeros(4, 1);
        assert_eq!(clf.accuracy(&x, &[1, 1, 0, 1]).unwrap(), 0.75);
        assert_eq!(clf.accuracy(&x, &[0, 0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn accuracy_checks_lengths() {
        let clf = Constant(0);
        let x = Matrix::zeros(2, 1);
        assert!(clf.accuracy(&x, &[0]).is_err());
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let x = Matrix::zeros(0, 3);
        assert_eq!(
            validate_fit_inputs(&Features::Dense(&x), &[]),
            Err(MlError::EmptyTrainingSet)
        );
        let x = Matrix::zeros(2, 2);
        let x = Features::Dense(&x);
        assert!(matches!(
            validate_fit_inputs(&x, &[0]),
            Err(MlError::LabelLengthMismatch { .. })
        ));
        assert_eq!(validate_fit_inputs(&x, &[0, 0]), Err(MlError::SingleClass));
        assert_eq!(validate_fit_inputs(&x, &[0, 1]), Ok(2));
        let mut bad = Matrix::zeros(2, 2);
        bad.set(0, 1, f32::INFINITY);
        assert!(matches!(
            validate_fit_inputs(&Features::Dense(&bad), &[0, 1]),
            Err(MlError::NonFiniteInput { .. })
        ));
    }
}
