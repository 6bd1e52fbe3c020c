//! Support vector classification (Cortes & Vapnik 1995) trained with a
//! simplified SMO solver (Platt 1998), mirroring scikit-learn's `SVC`
//! defaults: RBF kernel, `C = 1.0`, `gamma = "scale"`.

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::linear::sigmoid;
use crate::preprocessing::packed_column_variances;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use hyperfex_hdc::bitmatrix::{hamming_between, pairwise_hamming, popcount_dot, BitMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Kernel functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// Linear kernel `⟨x, z⟩`.
    Linear,
    /// Gaussian RBF `exp(−γ‖x − z‖²)`; `None` means sklearn's
    /// `gamma = "scale"` = `1/(p·Var(X))`.
    Rbf {
        /// Bandwidth; `None` resolves to "scale" at fit time.
        gamma: Option<f64>,
    },
}

/// Hyper-parameters (defaults match sklearn's `SVC`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvcParams {
    /// Soft-margin penalty (sklearn default 1.0).
    pub c: f64,
    /// Kernel (sklearn default RBF with `gamma = "scale"`).
    pub kernel: Kernel,
    /// KKT violation tolerance (sklearn default 1e-3).
    pub tol: f64,
    /// Passes over the data without any α update before stopping.
    pub max_passes: usize,
    /// Hard cap on optimisation sweeps.
    pub max_iter: usize,
    /// Seed for the second-α choice.
    pub seed: u64,
}

impl Default for SvcParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: None },
            tol: 1e-3,
            max_passes: 3,
            max_iter: 200,
            seed: 0,
        }
    }
}

/// A fitted support-vector classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvcClassifier {
    params: SvcParams,
    support: Matrix,
    /// Bit-packed copy of the support vectors, kept when the model was
    /// fitted on packed features so prediction can stay on popcounts.
    packed_support: Option<BitMatrix>,
    /// `αᵢ·yᵢ` per support vector (signed weights).
    alpha_y: Vec<f64>,
    bias: f64,
    gamma: f64,
    fitted: bool,
}

impl SvcClassifier {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(params: SvcParams) -> Self {
        Self {
            params,
            support: Matrix::zeros(0, 0),
            packed_support: None,
            alpha_y: Vec::new(),
            bias: 0.0,
            gamma: 1.0,
            fitted: false,
        }
    }

    /// Number of support vectors.
    #[must_use]
    pub fn n_support(&self) -> usize {
        self.alpha_y.len()
    }

    fn kernel_eval(&self, a: &[f32], b: &[f32]) -> f64 {
        match self.params.kernel {
            Kernel::Linear => f64::from(Matrix::dot(a, b)),
            Kernel::Rbf { .. } => (-self.gamma * f64::from(Matrix::squared_distance(a, b))).exp(),
        }
    }

    /// The simplified SMO sweep over a precomputed kernel matrix; returns
    /// the dual coefficients and the bias. Deterministic per seed.
    fn solve_smo(&self, k: &[f64], target: &[f64], n: usize) -> (Vec<f64>, f64) {
        let c = self.params.c;
        let tol = self.params.tol;
        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        let decision = |alpha: &[f64], b: f64, i: usize| -> f64 {
            let mut z = b;
            for (j, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    z += a * target[j] * k[i * n + j];
                }
            }
            z
        };

        let mut passes = 0usize;
        let mut iter = 0usize;
        while passes < self.params.max_passes && iter < self.params.max_iter {
            iter += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = decision(&alpha, b, i) - target[i];
                let violates = (target[i] * ei < -tol && alpha[i] < c)
                    || (target[i] * ei > tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Pick j ≠ i at random (simplified SMO heuristic).
                let mut j = rng.random_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, j) - target[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (target[i] - target[j]).abs() > f64::EPSILON {
                    ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                } else {
                    ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                };
                // Floating-point rounding can leave lo a few ULP above hi
                // when the box degenerates; treat that as an empty interval.
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj_new = aj_old - target[j] * (ei - ej) / eta;
                aj_new = aj_new.clamp(lo, hi);
                if (aj_new - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai_new = ai_old + target[i] * target[j] * (aj_old - aj_new);
                alpha[i] = ai_new;
                alpha[j] = aj_new;
                let b1 = b
                    - ei
                    - target[i] * (ai_new - ai_old) * k[i * n + i]
                    - target[j] * (aj_new - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - target[i] * (ai_new - ai_old) * k[i * n + j]
                    - target[j] * (aj_new - aj_old) * k[j * n + j];
                b = if (0.0..c).contains(&ai_new) && ai_new > 0.0 {
                    b1
                } else if (0.0..c).contains(&aj_new) && aj_new > 0.0 {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        (alpha, b)
    }

    /// The `n × n` kernel matrix over the training rows. On packed 0/1
    /// rows the f32 squared distance is an exact integer equal to the
    /// Hamming distance, so the RBF kernel comes from [`pairwise_hamming`]
    /// popcounts and the linear kernel from [`popcount_dot`]: every entry
    /// is bit-identical to the dense one, and so is every SMO step.
    fn kernel_matrix(&self, x: &Features<'_>) -> Vec<f64> {
        match (x, self.params.kernel) {
            (Features::Dense(m), _) => {
                symmetric(m.n_rows(), |i, j| self.kernel_eval(m.row(i), m.row(j)))
            }
            (Features::Packed(bits), Kernel::Rbf { .. }) => pairwise_hamming(bits)
                .iter()
                .map(|&d| (-self.gamma * f64::from(d)).exp())
                .collect(),
            (Features::Packed(bits), Kernel::Linear) => symmetric(bits.n_rows(), |i, j| {
                f64::from(popcount_dot(bits.row_words(i), bits.row_words(j)) as u32)
            }),
        }
    }

    /// Raw decision values for bit-packed query rows. Uses the popcount
    /// kernel path when the model was fitted packed; otherwise densifies.
    pub fn decision_function_packed(&self, q: &BitMatrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let Some(sp) = &self.packed_support else {
            return self.decision_function(&crate::traits::densify(q));
        };
        if q.dim().get() != self.support.n_cols() {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.support.n_cols()),
                got: format!("{} features", q.dim().get()),
            });
        }
        let nsv = sp.n_rows();
        match self.params.kernel {
            Kernel::Rbf { .. } => {
                let d = hamming_between(q, sp).map_err(|_| MlError::ShapeMismatch {
                    expected: format!("{} features", self.support.n_cols()),
                    got: format!("{} features", q.dim().get()),
                })?;
                Ok((0..q.n_rows())
                    .map(|i| {
                        let mut z = self.bias;
                        for (s, &ay) in (0..nsv).zip(&self.alpha_y) {
                            z += ay * (-self.gamma * f64::from(d[i * nsv + s])).exp();
                        }
                        z
                    })
                    .collect())
            }
            Kernel::Linear => Ok((0..q.n_rows())
                .map(|i| {
                    let mut z = self.bias;
                    for (s, &ay) in (0..nsv).zip(&self.alpha_y) {
                        let dot = popcount_dot(q.row_words(i), sp.row_words(s));
                        z += ay * f64::from(dot as u32);
                    }
                    z
                })
                .collect()),
        }
    }

    /// Raw decision values per row.
    pub fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if x.n_cols() != self.support.n_cols() {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.support.n_cols()),
                got: format!("{} features", x.n_cols()),
            });
        }
        Ok((0..x.n_rows())
            .map(|i| {
                let row = x.row(i);
                let mut z = self.bias;
                for (s, &ay) in (0..self.support.n_rows()).zip(&self.alpha_y) {
                    z += ay * self.kernel_eval(row, self.support.row(s));
                }
                z
            })
            .collect())
    }
}

/// The symmetric `n × n` matrix whose upper triangle is `entry(i, j)`.
fn symmetric(n: usize, entry: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut k = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let v = entry(i, j);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    k
}

impl Estimator for SvcClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.fit_features(&Features::Dense(x), y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .decision_function(x)?
            .iter()
            .map(|&z| usize::from(z >= 0.0))
            .collect())
    }

    fn name(&self) -> &'static str {
        "SVC"
    }

    /// Packed input reaches the same SMO trajectory as its densified
    /// matrix, much faster: `gamma = "scale"` replicates the dense
    /// variance accumulation order and the private `kernel_matrix`
    /// every dense kernel entry, bit for bit.
    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        let _span = crate::obs::span("ml/svm_fit");
        let n_classes = validate_fit_inputs(x, y)?;
        if n_classes > 2 {
            return Err(MlError::InvalidParameter {
                name: "y",
                reason: "SVC supports binary labels only".into(),
            });
        }
        if self.params.c <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: "must be positive".into(),
            });
        }
        let n = x.n_rows();
        let p = x.n_cols();
        // Resolve gamma = "scale" = 1 / (p · Var(X)).
        self.gamma = match self.params.kernel {
            Kernel::Linear => 0.0,
            Kernel::Rbf { gamma: Some(g) } => {
                if g <= 0.0 {
                    return Err(MlError::InvalidParameter {
                        name: "gamma",
                        reason: "must be positive".into(),
                    });
                }
                g
            }
            Kernel::Rbf { gamma: None } => {
                let variances = match x {
                    Features::Dense(m) => m.column_variances(),
                    Features::Packed(bits) => packed_column_variances(bits),
                };
                let mean_var = variances.iter().sum::<f64>() / p as f64;
                if mean_var > 0.0 {
                    1.0 / (p as f64 * mean_var)
                } else {
                    1.0 / p as f64
                }
            }
        };

        let target: Vec<f64> = y.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
        let k = self.kernel_matrix(x);
        let (alpha, b) = self.solve_smo(&k, &target, n);

        // Retain the support vectors.
        let sv_indices: Vec<usize> = (0..n).filter(|&i| alpha[i] > 1e-8).collect();
        self.alpha_y = sv_indices.iter().map(|&i| alpha[i] * target[i]).collect();
        (self.support, self.packed_support) = match x {
            Features::Dense(m) => (m.select_rows(&sv_indices), None),
            Features::Packed(bits) => {
                let sv = bits.select_rows(&sv_indices);
                (crate::traits::densify(&sv), Some(sv))
            }
        };
        self.bias = b;
        self.fitted = true;
        Ok(())
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        match x {
            Features::Dense(m) => self.predict(m),
            Features::Packed(b) => Ok(self
                .decision_function_packed(b)?
                .iter()
                .map(|&z| usize::from(z >= 0.0))
                .collect()),
        }
    }
}

impl ProbabilisticEstimator for SvcClassifier {
    /// Sigmoid-squashed decision value (sklearn uses Platt scaling fitted
    /// by cross-validation; the uncalibrated squashing preserves ranking,
    /// which is all the reported metrics need).
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Ok(self
            .decision_function(x)?
            .iter()
            .map(|&z| sigmoid(z))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..15 {
            let j = (i % 5) as f32 * 0.2;
            rows.push(vec![j, 1.0 + j * 0.5]);
            y.push(0);
            rows.push(vec![4.0 + j, 5.0 - j * 0.5]);
            y.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn ring() -> (Matrix, Vec<usize>) {
        // Class 0 inside the unit circle, class 1 on a ring of radius 3 —
        // not linearly separable.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..16 {
            let a = i as f32 * std::f32::consts::TAU / 16.0;
            rows.push(vec![0.5 * a.cos(), 0.5 * a.sin()]);
            y.push(0);
            rows.push(vec![3.0 * a.cos(), 3.0 * a.sin()]);
            y.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn rbf_separates_blobs() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams::default());
        svc.fit(&x, &y).unwrap();
        assert_eq!(svc.accuracy(&x, &y).unwrap(), 1.0);
        assert!(svc.n_support() >= 2);
    }

    #[test]
    fn rbf_solves_nonlinear_ring() {
        let (x, y) = ring();
        let mut svc = SvcClassifier::new(SvcParams::default());
        svc.fit(&x, &y).unwrap();
        assert_eq!(svc.accuracy(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn linear_kernel_fails_the_ring_but_rbf_does_not() {
        let (x, y) = ring();
        let mut lin = SvcClassifier::new(SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        });
        lin.fit(&x, &y).unwrap();
        let lin_acc = lin.accuracy(&x, &y).unwrap();
        assert!(
            lin_acc < 0.8,
            "linear kernel cannot separate the ring ({lin_acc})"
        );
    }

    #[test]
    fn linear_kernel_separates_blobs() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        });
        svc.fit(&x, &y).unwrap();
        assert_eq!(svc.accuracy(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn decision_sign_matches_labels() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams::default());
        svc.fit(&x, &y).unwrap();
        for (z, &l) in svc.decision_function(&x).unwrap().iter().zip(&y) {
            assert_eq!(usize::from(*z >= 0.0), l);
        }
    }

    #[test]
    fn proba_ranks_like_decision() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams::default());
        svc.fit(&x, &y).unwrap();
        let z = svc.decision_function(&x).unwrap();
        let p = svc.predict_proba(&x).unwrap();
        for ((&z1, &p1), (&z2, &p2)) in z.iter().zip(&p).zip(z.iter().zip(&p).skip(1)) {
            if z1 < z2 {
                assert!(p1 <= p2);
            }
        }
    }

    #[test]
    fn explicit_gamma_is_used_and_validated() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams {
            kernel: Kernel::Rbf { gamma: Some(0.5) },
            ..Default::default()
        });
        svc.fit(&x, &y).unwrap();
        assert!((svc.gamma - 0.5).abs() < 1e-12);
        let mut bad = SvcClassifier::new(SvcParams {
            kernel: Kernel::Rbf { gamma: Some(-1.0) },
            ..Default::default()
        });
        assert!(matches!(
            bad.fit(&x, &y),
            Err(MlError::InvalidParameter { name: "gamma", .. })
        ));
    }

    #[test]
    fn invalid_c_and_unfitted_errors() {
        let (x, y) = blobs();
        let mut svc = SvcClassifier::new(SvcParams {
            c: -1.0,
            ..Default::default()
        });
        assert!(matches!(
            svc.fit(&x, &y),
            Err(MlError::InvalidParameter { name: "c", .. })
        ));
        let svc = SvcClassifier::new(SvcParams::default());
        assert_eq!(svc.predict(&x), Err(MlError::NotFitted));
    }

    fn random_bits(n: usize, dim: usize, seed: u64) -> BitMatrix {
        use hyperfex_hdc::prelude::*;
        let mut rng = SplitMix64::new(seed);
        let d = Dim::try_new(dim).unwrap();
        let hvs: Vec<BinaryHypervector> = (0..n)
            .map(|_| BinaryHypervector::random(d, &mut rng))
            .collect();
        BitMatrix::from_hypervectors(&hvs).unwrap()
    }

    #[test]
    fn packed_variances_match_dense_bit_exactly() {
        let bits = random_bits(37, 130, 9);
        let dense = crate::traits::densify(&bits);
        let a = dense.column_variances();
        let b = packed_column_variances(&bits);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn packed_fit_matches_dense_bit_exactly() {
        for kernel in [Kernel::Rbf { gamma: None }, Kernel::Linear] {
            let bits = random_bits(50, 200, 21);
            let y: Vec<usize> = (0..50).map(|i| usize::from(i % 2 == 0)).collect();
            let dense = crate::traits::densify(&bits);
            let params = SvcParams {
                kernel,
                ..Default::default()
            };

            let mut a = SvcClassifier::new(params.clone());
            a.fit(&dense, &y).unwrap();
            let mut b = SvcClassifier::new(params);
            b.fit_features(&Features::Packed(&bits), &y).unwrap();

            assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
            assert_eq!(a.bias.to_bits(), b.bias.to_bits());
            assert_eq!(a.alpha_y, b.alpha_y);
            assert_eq!(a.support.as_slice(), b.support.as_slice());

            let queries = random_bits(12, 200, 22);
            let dense_q = crate::traits::densify(&queries);
            let za = a.decision_function(&dense_q).unwrap();
            let zb = b.decision_function_packed(&queries).unwrap();
            for (x, y) in za.iter().zip(&zb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(
                b.predict_features(&Features::Packed(&queries)).unwrap(),
                a.predict(&dense_q).unwrap()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs();
        let mut a = SvcClassifier::new(SvcParams {
            seed: 4,
            ..Default::default()
        });
        let mut b = SvcClassifier::new(SvcParams {
            seed: 4,
            ..Default::default()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(
            a.decision_function(&x).unwrap(),
            b.decision_function(&x).unwrap()
        );
    }
}
