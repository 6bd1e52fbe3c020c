//! Naive Bayes classifiers.
//!
//! Islam et al. 2020 — the source of the Sylhet dataset the paper
//! evaluates on — compared Naive Bayes, logistic regression, decision
//! trees and random forests; these implementations complete that baseline
//! set. Both follow the scikit-learn conventions: [`GaussianNb`] with
//! per-class feature means/variances and a variance floor, [`BernoulliNb`]
//! with Laplace smoothing for binary features (the natural fit for both
//! the Sylhet symptom columns and hypervector bits).

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for Gaussian naive Bayes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianNbParams {
    /// Portion of the largest feature variance added to all variances for
    /// numerical stability (sklearn default 1e-9).
    pub var_smoothing: f64,
}

impl Default for GaussianNbParams {
    fn default() -> Self {
        Self {
            var_smoothing: 1e-9,
        }
    }
}

/// Gaussian naive Bayes for continuous features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianNb {
    params: GaussianNbParams,
    /// Per class: log prior, per-feature mean, per-feature variance.
    classes: Vec<ClassStats>,
    n_features: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClassStats {
    log_prior: f64,
    means: Vec<f64>,
    variances: Vec<f64>,
}

impl GaussianNb {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(params: GaussianNbParams) -> Self {
        Self {
            params,
            classes: Vec::new(),
            n_features: 0,
        }
    }

    fn joint_log_likelihood(&self, row: &[f32]) -> Vec<f64> {
        self.classes
            .iter()
            .map(|c| {
                let mut ll = c.log_prior;
                for ((&v, &mean), &var) in row.iter().zip(&c.means).zip(&c.variances) {
                    let d = f64::from(v) - mean;
                    ll += -0.5 * ((std::f64::consts::TAU * var).ln() + d * d / var);
                }
                ll
            })
            .collect()
    }
}

impl Estimator for GaussianNb {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let n_classes = validate_fit_inputs(&Features::Dense(x), y)?;
        if self.params.var_smoothing < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "var_smoothing",
                reason: "must be non-negative".into(),
            });
        }
        self.n_features = x.n_cols();
        let n = x.n_rows() as f64;
        // Global variance scale for the smoothing floor.
        let max_var = x
            .column_variances()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
            .max(1e-12);
        let epsilon = self.params.var_smoothing * max_var;

        self.classes = (0..n_classes)
            .map(|class| {
                let rows: Vec<usize> = y
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect();
                let view = x.select_rows(&rows);
                let means = view.column_means();
                let variances: Vec<f64> = view
                    .column_variances()
                    .iter()
                    .map(|&v| (v + epsilon).max(1e-12))
                    .collect();
                ClassStats {
                    log_prior: (rows.len() as f64 / n).ln(),
                    means,
                    variances,
                }
            })
            .collect();
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        if self.classes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.n_cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.n_features),
                got: format!("{} features", x.n_cols()),
            });
        }
        Ok((0..x.n_rows())
            .map(|i| {
                let ll = self.joint_log_likelihood(x.row(i));
                argmax(&ll)
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "Gaussian NB"
    }
}

impl ProbabilisticEstimator for GaussianNb {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.classes.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok((0..x.n_rows())
            .map(|i| {
                let ll = self.joint_log_likelihood(x.row(i));
                softmax_pair(&ll)
            })
            .collect())
    }
}

/// Hyper-parameters for Bernoulli naive Bayes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BernoulliNbParams {
    /// Laplace/Lidstone smoothing (sklearn default 1.0).
    pub alpha: f64,
    /// Values > this threshold count as "present" (sklearn binarize=0.0
    /// means `> 0`; we default to 0.5 which is equivalent for 0/1 data).
    pub binarize_threshold: f32,
}

impl Default for BernoulliNbParams {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            binarize_threshold: 0.5,
        }
    }
}

/// Bernoulli naive Bayes for binary features (symptoms, hypervector bits).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BernoulliNb {
    params: BernoulliNbParams,
    /// Per class: log prior and per-feature log P(bit = 1 | class) /
    /// log P(bit = 0 | class).
    classes: Vec<BernoulliStats>,
    n_features: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BernoulliStats {
    log_prior: f64,
    log_p1: Vec<f64>,
    log_p0: Vec<f64>,
}

impl BernoulliNb {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(params: BernoulliNbParams) -> Self {
        Self {
            params,
            classes: Vec::new(),
            n_features: 0,
        }
    }

    fn joint_log_likelihood(&self, row: &[f32]) -> Vec<f64> {
        let t = self.params.binarize_threshold;
        self.classes
            .iter()
            .map(|c| {
                let mut ll = c.log_prior;
                for ((&v, &lp1), &lp0) in row.iter().zip(&c.log_p1).zip(&c.log_p0) {
                    ll += if v > t { lp1 } else { lp0 };
                }
                ll
            })
            .collect()
    }
}

impl Estimator for BernoulliNb {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let n_classes = validate_fit_inputs(&Features::Dense(x), y)?;
        if self.params.alpha <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "alpha",
                reason: "must be positive".into(),
            });
        }
        self.n_features = x.n_cols();
        let n = x.n_rows() as f64;
        let alpha = self.params.alpha;
        let t = self.params.binarize_threshold;
        self.classes = (0..n_classes)
            .map(|class| {
                let rows: Vec<usize> = y
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect();
                let nc = rows.len() as f64;
                let mut ones = vec![0.0f64; x.n_cols()];
                for &r in &rows {
                    for (o, &v) in ones.iter_mut().zip(x.row(r)) {
                        if v > t {
                            *o += 1.0;
                        }
                    }
                }
                let log_p1: Vec<f64> = ones
                    .iter()
                    .map(|&o| ((o + alpha) / (nc + 2.0 * alpha)).ln())
                    .collect();
                let log_p0: Vec<f64> = ones
                    .iter()
                    .map(|&o| ((nc - o + alpha) / (nc + 2.0 * alpha)).ln())
                    .collect();
                BernoulliStats {
                    log_prior: (nc / n).ln(),
                    log_p1,
                    log_p0,
                }
            })
            .collect();
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        if self.classes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.n_cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.n_features),
                got: format!("{} features", x.n_cols()),
            });
        }
        Ok((0..x.n_rows())
            .map(|i| argmax(&self.joint_log_likelihood(x.row(i))))
            .collect())
    }

    fn name(&self) -> &'static str {
        "Bernoulli NB"
    }
}

impl ProbabilisticEstimator for BernoulliNb {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.classes.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok((0..x.n_rows())
            .map(|i| softmax_pair(&self.joint_log_likelihood(x.row(i))))
            .collect())
    }
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(i, _)| i)
}

/// P(class 1) from joint log-likelihoods (log-sum-exp stabilised; treats
/// missing class 1 as probability 0).
fn softmax_pair(ll: &[f64]) -> f64 {
    if ll.len() < 2 {
        return 0.0;
    }
    let m = ll.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f64> = ll.iter().map(|&v| (v - m).exp()).collect();
    exps[1] / exps.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f32 * 0.3;
            rows.push(vec![j, 10.0 - j]);
            y.push(0);
            rows.push(vec![5.0 + j, 2.0 + j]);
            y.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn symptom_data() -> (Matrix, Vec<usize>) {
        // Feature 0 strongly predicts class 1; feature 1 is noise-ish.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let positive = i % 2 == 0;
            let f0 = if positive {
                (i % 10 != 0) as u8
            } else {
                u8::from(i % 7 == 0)
            };
            let f1 = u8::from(i % 3 == 0);
            rows.push(vec![f32::from(f0), f32::from(f1)]);
            y.push(usize::from(positive));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn gaussian_separates_blobs() {
        let (x, y) = gaussian_blobs();
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y).unwrap();
        assert_eq!(nb.accuracy(&x, &y).unwrap(), 1.0);
        assert_eq!(nb.name(), "Gaussian NB");
    }

    #[test]
    fn gaussian_probabilities_are_calibrated_to_the_sides() {
        let (x, y) = gaussian_blobs();
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y).unwrap();
        let q = Matrix::from_rows(&[vec![0.0, 10.0], vec![5.5, 2.5]]).unwrap();
        let p = nb.predict_proba(&q).unwrap();
        assert!(p[0] < 0.05);
        assert!(p[1] > 0.95);
    }

    #[test]
    fn gaussian_handles_constant_features() {
        let x = Matrix::from_rows(&[
            vec![1.0, 7.0],
            vec![2.0, 7.0],
            vec![8.0, 7.0],
            vec![9.0, 7.0],
        ])
        .unwrap();
        let y = vec![0, 0, 1, 1];
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y).unwrap();
        assert_eq!(nb.predict(&x).unwrap(), y);
    }

    #[test]
    fn bernoulli_learns_symptom_structure() {
        let (x, y) = symptom_data();
        let mut nb = BernoulliNb::new(BernoulliNbParams::default());
        nb.fit(&x, &y).unwrap();
        let acc = nb.accuracy(&x, &y).unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
        assert_eq!(nb.name(), "Bernoulli NB");
    }

    #[test]
    fn bernoulli_smoothing_prevents_zero_probabilities() {
        // Feature always 1 for class 1, never for class 0: an unseen
        // combination must still get finite likelihood.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut nb = BernoulliNb::new(BernoulliNbParams::default());
        nb.fit(&x, &y).unwrap();
        let p = nb.predict_proba(&x).unwrap();
        assert!(p.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        assert_eq!(nb.predict(&x).unwrap(), y);
    }

    #[test]
    fn invalid_params_and_unfitted_errors() {
        let (x, y) = symptom_data();
        let mut nb = BernoulliNb::new(BernoulliNbParams {
            alpha: 0.0,
            ..Default::default()
        });
        assert!(matches!(
            nb.fit(&x, &y),
            Err(MlError::InvalidParameter { name: "alpha", .. })
        ));
        let nb = BernoulliNb::new(BernoulliNbParams::default());
        assert_eq!(nb.predict(&x), Err(MlError::NotFitted));
        let mut g = GaussianNb::new(GaussianNbParams {
            var_smoothing: -1.0,
        });
        assert!(g.fit(&x, &y).is_err());
        let g = GaussianNb::new(GaussianNbParams::default());
        assert_eq!(g.predict(&x), Err(MlError::NotFitted));
    }

    #[test]
    fn feature_count_checked_at_predict() {
        let (x, y) = gaussian_blobs();
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y).unwrap();
        assert!(nb.predict(&Matrix::zeros(1, 5)).is_err());
        let (xb, yb) = symptom_data();
        let mut bb = BernoulliNb::new(BernoulliNbParams::default());
        bb.fit(&xb, &yb).unwrap();
        assert!(bb.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn priors_matter_for_ambiguous_points() {
        // Imbalanced classes with identical likelihoods: the prior decides.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0, 0, 0, 1];
        let mut nb = BernoulliNb::new(BernoulliNbParams::default());
        nb.fit(&x, &y).unwrap();
        assert_eq!(nb.predict(&x).unwrap(), vec![0, 0, 0, 0]);
    }
}
