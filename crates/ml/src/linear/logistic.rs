//! Binary logistic regression with L2 regularisation.
//!
//! scikit-learn's default solver (lbfgs) converges on unscaled clinical
//! features; our full-batch gradient descent achieves the same robustness
//! by standardising features internally (an exact reparameterisation of the
//! decision function, with the L2 penalty applied to the scaled
//! coefficients — numerically close to sklearn on these datasets, see
//! DESIGN.md §5).

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::linear::{log_loss, sigmoid};
use crate::preprocessing::StandardScaler;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use hyperfex_hdc::bitmatrix::{masked_weight_sum, BitMatrix, RelativeRows};
use hyperfex_hdc::BinaryHypervector;
use serde::{Deserialize, Serialize};

/// Hyper-parameters (defaults mirror sklearn: `C = 1.0`, `max_iter` capped).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegressionParams {
    /// Inverse regularisation strength (sklearn default 1.0).
    pub c: f64,
    /// Maximum gradient-descent iterations.
    pub max_iter: usize,
    /// Stop when the gradient norm falls below this.
    pub tol: f64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            max_iter: 300,
            tol: 1e-5,
        }
    }
}

/// A fitted binary logistic-regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    params: LogisticRegressionParams,
    scaler: StandardScaler,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LogisticRegression {
    /// Creates an unfitted model.
    #[must_use]
    pub fn new(params: LogisticRegressionParams) -> Self {
        Self {
            params,
            scaler: StandardScaler::new(),
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// Mean training log-loss of the current weights (useful in tests and
    /// convergence diagnostics).
    pub fn mean_log_loss(&self, x: &Matrix, y: &[usize]) -> Result<f64, MlError> {
        let p = self.predict_proba(x)?;
        Ok(p.iter()
            .zip(y)
            .map(|(&pi, &yi)| log_loss(pi, yi))
            .sum::<f64>()
            / y.len().max(1) as f64)
    }

    fn decision(&self, row: &[f32]) -> f64 {
        let mut z = self.bias;
        for (&w, &v) in self.weights.iter().zip(row) {
            z += w * f64::from(v);
        }
        z
    }

    /// Full-batch Nesterov gradient descent on the L2-penalised mean log
    /// loss, in standardised coordinates. `gradient(look, bias, grad)`
    /// evaluates the training rows at the look-ahead point: it fills
    /// `grad[j]` with `Σᵢ errᵢ·x̃ᵢⱼ` over the standardised features and
    /// returns `Σᵢ errᵢ`, where `errᵢ = σ(zᵢ) − yᵢ`.
    fn nesterov(
        &mut self,
        n: usize,
        p: usize,
        mut gradient: impl FnMut(&[f64], f64, &mut [f64]) -> f64,
    ) {
        let lambda = 1.0 / (self.params.c * n as f64);
        self.weights = vec![0.0; p];
        self.bias = 0.0;

        // Lipschitz bound for BCE: L ≤ tr(XᵀX)/(4n) + λ. After
        // standardisation tr(XᵀX)/n = p, so L ≤ p/4 + λ.
        let lr = 1.0 / (p as f64 / 4.0 + lambda);
        // Nesterov momentum accelerates the well-conditioned standardised
        // problem substantially.
        let momentum = 0.9;
        let mut vel_w = vec![0.0f64; p];
        let mut vel_b = 0.0f64;

        let mut look = vec![0.0f64; p];
        let mut grad_w = vec![0.0f64; p];
        for _ in 0..self.params.max_iter {
            for ((l, &w), &vw) in look.iter_mut().zip(&self.weights).zip(&vel_w) {
                *l = w + momentum * vw;
            }
            let err_sum = gradient(&look, self.bias + momentum * vel_b, &mut grad_w);
            let inv_n = 1.0 / n as f64;
            let mut grad_norm = 0.0f64;
            for ((w, v), &g) in self.weights.iter_mut().zip(vel_w.iter_mut()).zip(&grad_w) {
                let g = g * inv_n + lambda * *w;
                grad_norm += g * g;
                *v = momentum * *v - lr * g;
                *w += *v;
            }
            let grad_b = err_sum * inv_n;
            grad_norm += grad_b * grad_b;
            vel_b = momentum * vel_b - lr * grad_b;
            self.bias += vel_b;

            if grad_norm.sqrt() < self.params.tol {
                break;
            }
        }
        self.fitted = true;
    }

    /// Class-1 probability per packed row, staying in bit coordinates.
    fn proba_packed(&self, bits: &BitMatrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if bits.dim().get() != self.weights.len() {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} columns", self.weights.len()),
                got: format!("{} columns", bits.dim().get()),
            });
        }
        let means = self.scaler.means();
        let stds = self.scaler.stds();
        let mut r = vec![0.0f64; self.weights.len()];
        let mut offset = 0.0f64;
        for (((rj, &w), &m), &s) in r.iter_mut().zip(&self.weights).zip(means).zip(stds) {
            *rj = w / s;
            offset += *rj * m;
        }
        let base = self.bias - offset;
        Ok((0..bits.n_rows())
            .map(|i| sigmoid(base + masked_weight_sum(bits.row_words(i), &r)))
            .collect())
    }
}

/// The dense gradient of [`LogisticRegression::nesterov`] over the
/// standardised design matrix `xs`, one row at a time.
fn dense_gradient(xs: &Matrix, y: &[usize], look: &[f64], bias: f64, grad: &mut [f64]) -> f64 {
    grad.iter_mut().for_each(|g| *g = 0.0);
    let mut err_sum = 0.0f64;
    for (i, &yi) in y.iter().enumerate() {
        let row = xs.row(i);
        let mut z = bias;
        for (&l, &v) in look.iter().zip(row) {
            z += l * f64::from(v);
        }
        let err = sigmoid(z) - yi as f64;
        for (g, &v) in grad.iter_mut().zip(row) {
            *g += err * f64::from(v);
        }
        err_sum += err;
    }
    err_sum
}

/// The packed gradient of [`LogisticRegression::nesterov`], which never
/// materialises the standardised matrix. A scaled 0/1 feature takes one
/// of two per-column values, so the logit collapses to
/// `z = base − Σⱼ vⱼ·mⱼ + Σ_{set bits} vⱼ` with `vⱼ = lookⱼ/σⱼ` hoisted
/// once per iteration, and the weight gradient to `Σᵢ errᵢ·xᵢⱼ`.
///
/// Both sums walk each row relative to the training rows' bitwise
/// majority `r` (a level-encoded record differs from it in far fewer bits
/// than it sets), over structures built once per fit since the bits never
/// change across iterations: `Σ_{set bits} vⱼ = v·r + Σ_{xᵢ∖r} vⱼ −
/// Σ_{r∖xᵢ} vⱼ`, with `v·r` formed once per iteration and the rest walked
/// over each row's list of differing bits ([`RelativeRows::weight_sum`]),
/// and `Σᵢ errᵢ·xᵢⱼ = rⱼ·Σᵢ errᵢ ± Σ_{i: xᵢⱼ ≠ rⱼ} errᵢ` (minus where `rⱼ`
/// is set), one gather over each feature's column of a transpose of
/// `X ⊕ r`. These sums round differently from the dense ones, so parity
/// with the dense fit is close (≤1e-5 on logits) rather than bit-exact;
/// the scaler statistics themselves are bit-identical.
struct PackedGradient {
    /// The training rows' bitwise majority `r`.
    reference: BinaryHypervector,
    /// Each row's bits that differ from `r`.
    lists: RelativeRows,
    /// Feature-major transpose of `X ⊕ r`: row `j` marks the samples whose
    /// bit `j` differs from `rⱼ`.
    diff_cols: BitMatrix,
    means: Vec<f64>,
    inv_s: Vec<f64>,
    /// Look-ahead weights in bit coordinates.
    v: Vec<f64>,
    /// Per-row residual `σ(zᵢ) − yᵢ`.
    err: Vec<f64>,
}

impl PackedGradient {
    fn new(bits: &BitMatrix, scaler: &StandardScaler) -> Result<Self, MlError> {
        let reference = bits.majority_row().map_err(|_| MlError::EmptyTrainingSet)?;
        let mut diff = bits.raw_words().to_vec();
        for row in diff.chunks_mut(bits.words_per_row()) {
            for (w, &r) in row.iter_mut().zip(reference.words()) {
                *w ^= r;
            }
        }
        let diff_cols = BitMatrix::from_words(bits.n_rows(), bits.dim(), diff)
            .and_then(|diff| diff.transpose())
            .map_err(|_| MlError::EmptyTrainingSet)?;
        Ok(Self {
            lists: RelativeRows::new(bits, &reference),
            reference,
            diff_cols,
            means: scaler.means().to_vec(),
            inv_s: scaler.stds().iter().map(|&s| 1.0 / s).collect(),
            v: vec![0.0; bits.dim().get()],
            err: vec![0.0; bits.n_rows()],
        })
    }

    fn gradient(&mut self, y: &[usize], look: &[f64], bias: f64, grad: &mut [f64]) -> f64 {
        let mut offset = 0.0f64;
        for ((vj, &l), (&m, &is)) in self
            .v
            .iter_mut()
            .zip(look)
            .zip(self.means.iter().zip(&self.inv_s))
        {
            *vj = l * is;
            offset += *vj * m;
        }
        let base = bias - offset + masked_weight_sum(self.reference.words(), &self.v);
        let mut err_sum = 0.0f64;
        for ((e, &yi), i) in self.err.iter_mut().zip(y).zip(0..) {
            let z = base + self.lists.weight_sum(i, &self.v);
            *e = sigmoid(z) - yi as f64;
            err_sum += *e;
        }
        // Chain rule back into scaled coordinates: the dense gradient is
        // Σᵢ errᵢ·(xᵢⱼ − mⱼ)/σⱼ.
        for ((g, j), (&m, &is)) in grad
            .iter_mut()
            .zip(0..)
            .zip(self.means.iter().zip(&self.inv_s))
        {
            let flipped = masked_weight_sum(self.diff_cols.row_words(j), &self.err);
            let g1 = if self.reference.get(j) {
                err_sum - flipped
            } else {
                flipped
            };
            *g = (g1 - m * err_sum) * is;
        }
        err_sum
    }
}

impl Estimator for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.fit_features(&Features::Dense(x), y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .predict_proba(x)?
            .iter()
            .map(|&p| usize::from(p >= 0.5))
            .collect())
    }

    fn name(&self) -> &'static str {
        "Logistic Regression"
    }

    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        let n_classes = validate_fit_inputs(x, y)?;
        if n_classes > 2 {
            return Err(MlError::InvalidParameter {
                name: "y",
                reason: "logistic regression supports binary labels only".into(),
            });
        }
        if self.params.c <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: "must be positive".into(),
            });
        }
        let (n, p) = (x.n_rows(), x.n_cols());
        match x {
            Features::Dense(m) => {
                let xs = self.scaler.fit_transform(m)?;
                self.nesterov(n, p, |look, bias, grad| {
                    dense_gradient(&xs, y, look, bias, grad)
                });
            }
            Features::Packed(bits) => {
                self.scaler.fit_packed(bits)?;
                let mut packed = PackedGradient::new(bits, &self.scaler)?;
                self.nesterov(n, p, |look, bias, grad| {
                    packed.gradient(y, look, bias, grad)
                });
            }
        }
        Ok(())
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        match x {
            Features::Dense(m) => self.predict(m),
            Features::Packed(b) => Ok(self
                .proba_packed(b)?
                .iter()
                .map(|&p| usize::from(p >= 0.5))
                .collect()),
        }
    }
}

impl ProbabilisticEstimator for LogisticRegression {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let xs = self.scaler.transform(x)?;
        Ok((0..xs.n_rows())
            .map(|i| sigmoid(self.decision(xs.row(i))))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, (i % 3) as f32]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = separable();
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y).unwrap();
        assert_eq!(lr.predict(&x).unwrap(), y);
    }

    #[test]
    fn probabilities_are_monotone_along_the_axis() {
        let (x, y) = separable();
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y).unwrap();
        let q = Matrix::from_rows(&[vec![0.0, 0.0], vec![9.5, 0.0], vec![19.0, 0.0]]).unwrap();
        let p = lr.predict_proba(&q).unwrap();
        assert!(p[0] < p[1] && p[1] < p[2]);
        assert!(p[0] < 0.5 && p[2] > 0.5);
    }

    #[test]
    fn robust_to_wildly_different_feature_scales() {
        // One feature in [0,1], one in [0, 100000]; internal standardisation
        // must keep GD stable.
        let rows: Vec<Vec<f32>> = (0..30)
            .map(|i| vec![i as f32 / 30.0, (i * 3_000) as f32])
            .collect();
        let y: Vec<usize> = (0..30).map(|i| usize::from(i >= 15)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y).unwrap();
        let acc = lr.accuracy(&x, &y).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn stronger_regularisation_shrinks_weights() {
        let (x, y) = separable();
        let mut weak = LogisticRegression::new(LogisticRegressionParams {
            c: 100.0,
            ..Default::default()
        });
        weak.fit(&x, &y).unwrap();
        let mut strong = LogisticRegression::new(LogisticRegressionParams {
            c: 0.001,
            ..Default::default()
        });
        strong.fit(&x, &y).unwrap();
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm(&strong.weights) < norm(&weak.weights));
    }

    #[test]
    fn invalid_params_and_unfitted_errors() {
        let (x, y) = separable();
        let mut lr = LogisticRegression::new(LogisticRegressionParams {
            c: 0.0,
            ..Default::default()
        });
        assert!(matches!(
            lr.fit(&x, &y),
            Err(MlError::InvalidParameter { name: "c", .. })
        ));
        let lr = LogisticRegression::new(LogisticRegressionParams::default());
        assert_eq!(lr.predict(&x), Err(MlError::NotFitted));
    }

    #[test]
    fn rejects_multiclass_labels() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        assert!(lr.fit(&x, &[0, 1, 2]).is_err());
    }

    fn random_bits(n: usize, dim: usize, seed: u64) -> hyperfex_hdc::BitMatrix {
        use hyperfex_hdc::prelude::*;
        let mut rng = SplitMix64::new(seed);
        let d = Dim::try_new(dim).unwrap();
        let hvs: Vec<BinaryHypervector> = (0..n)
            .map(|_| BinaryHypervector::random(d, &mut rng))
            .collect();
        BitMatrix::from_hypervectors(&hvs).unwrap()
    }

    #[test]
    fn packed_fit_tracks_dense_logits_closely() {
        let bits = random_bits(60, 300, 17);
        let y: Vec<usize> = (0..60).map(|i| usize::from(i % 2 == 0)).collect();
        let dense = crate::traits::densify(&bits);

        let mut a = LogisticRegression::new(LogisticRegressionParams::default());
        a.fit(&dense, &y).unwrap();
        let mut b = LogisticRegression::new(LogisticRegressionParams::default());
        b.fit_features(&Features::Packed(&bits), &y).unwrap();

        // Scaler statistics replicate the dense accumulation bit-exactly.
        for (x, z) in a.scaler.means().iter().zip(b.scaler.means()) {
            assert_eq!(x.to_bits(), z.to_bits());
        }
        for (x, z) in a.scaler.stds().iter().zip(b.scaler.stds()) {
            assert_eq!(x.to_bits(), z.to_bits());
        }

        let queries = random_bits(25, 300, 18);
        let dense_q = crate::traits::densify(&queries);
        let pa = a.predict_proba(&dense_q).unwrap();
        let pb = b.proba_packed(&queries).unwrap();
        for (x, z) in pa.iter().zip(&pb) {
            // Compare on the logit scale per the kernel contract.
            let la = (x / (1.0 - x)).ln();
            let lb = (z / (1.0 - z)).ln();
            assert!((la - lb).abs() < 1e-5, "logits {la} vs {lb}");
        }
        assert_eq!(
            b.predict_features(&Features::Packed(&queries)).unwrap(),
            a.predict(&dense_q).unwrap()
        );
    }

    #[test]
    fn mean_log_loss_decreases_with_training() {
        let (x, y) = separable();
        let mut short = LogisticRegression::new(LogisticRegressionParams {
            max_iter: 1,
            ..Default::default()
        });
        short.fit(&x, &y).unwrap();
        let mut long = LogisticRegression::new(LogisticRegressionParams {
            max_iter: 300,
            ..Default::default()
        });
        long.fit(&x, &y).unwrap();
        assert!(long.mean_log_loss(&x, &y).unwrap() < short.mean_log_loss(&x, &y).unwrap());
    }
}
