//! The three boosted-ensemble classifiers.

use super::binning::BinnedData;
use super::tree::{grow_tree, predict_raw, BoostedTree, GrowConfig, GrowthStrategy};
use super::{base_score, logistic_grad_hess};
use crate::error::MlError;
use crate::linalg::Matrix;
use crate::linear::sigmoid;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use serde::{Deserialize, Serialize};

/// XGBoost-style hyper-parameters (defaults match the Python library).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XgBoostParams {
    /// Boosting rounds (library default 100).
    pub n_estimators: usize,
    /// Shrinkage (library default 0.3).
    pub learning_rate: f64,
    /// Tree depth (library default 6).
    pub max_depth: usize,
    /// L2 leaf penalty (library default 1).
    pub lambda: f64,
    /// Minimum split gain (library default 0).
    pub gamma: f64,
    /// Minimum child hessian mass (library default 1).
    pub min_child_weight: f64,
    /// Histogram bins (library default 256).
    pub max_bins: usize,
}

impl Default for XgBoostParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.3,
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            max_bins: 256,
        }
    }
}

/// LightGBM-style hyper-parameters (defaults match the Python library).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LightGbmParams {
    /// Boosting rounds (library default 100).
    pub n_estimators: usize,
    /// Shrinkage (library default 0.1).
    pub learning_rate: f64,
    /// Leaf budget per tree (library default 31).
    pub num_leaves: usize,
    /// Minimum samples per leaf (library default 20).
    pub min_data_in_leaf: usize,
    /// L2 leaf penalty (library default 0).
    pub lambda: f64,
    /// Histogram bins (library default 255).
    pub max_bins: usize,
}

impl Default for LightGbmParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            num_leaves: 31,
            min_data_in_leaf: 20,
            lambda: 0.0,
            max_bins: 255,
        }
    }
}

/// CatBoost-style hyper-parameters.
///
/// The real library defaults to 1000 iterations at learning-rate ≈ 0.03;
/// we default to 100 × 0.1 so one fit costs the same order of work as the
/// other two libraries, matching how the paper's referenced notebooks
/// configure it (see DESIGN.md §4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatBoostParams {
    /// Boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Oblivious-tree depth (library default 6).
    pub depth: usize,
    /// L2 leaf penalty (library default 3).
    pub l2_leaf_reg: f64,
    /// Histogram bins (library default 254).
    pub max_bins: usize,
}

impl Default for CatBoostParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            depth: 6,
            l2_leaf_reg: 3.0,
            max_bins: 254,
        }
    }
}

/// Shared fitted state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Ensemble {
    trees: Vec<BoostedTree>,
    base: f64,
    n_features: usize,
}

impl Ensemble {
    fn fit(
        &mut self,
        x: &Matrix,
        y: &[usize],
        n_estimators: usize,
        max_bins: usize,
        cfg: &GrowConfig,
    ) -> Result<(), MlError> {
        if n_estimators == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_estimators",
                reason: "must be at least 1".into(),
            });
        }
        let n_classes = validate_fit_inputs(&Features::Dense(x), y)?;
        if n_classes > 2 {
            return Err(MlError::InvalidParameter {
                name: "y",
                reason: "boosted classifiers support binary labels only".into(),
            });
        }
        self.n_features = x.n_cols();
        self.base = base_score(y);
        let binned = BinnedData::fit(x, max_bins);
        let n = x.n_rows();
        let mut raw = vec![self.base; n];
        self.trees = Vec::with_capacity(n_estimators);
        let all_rows: Vec<u32> = (0..n as u32).collect();
        for _ in 0..n_estimators {
            let gh = logistic_grad_hess(&raw, y);
            let tree = grow_tree(&binned, &gh, all_rows.clone(), cfg);
            if tree.n_leaves() <= 1 {
                // No further structure to extract; keep the ensemble as-is.
                break;
            }
            for (i, r) in raw.iter_mut().enumerate() {
                *r += tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
        }
        Ok(())
    }

    fn proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.trees.is_empty() && self.n_features == 0 {
            return Err(MlError::NotFitted);
        }
        if x.n_cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.n_features),
                got: format!("{} features", x.n_cols()),
            });
        }
        Ok(predict_raw(&self.trees, self.base, x)
            .iter()
            .map(|&z| sigmoid(z))
            .collect())
    }

    fn classes(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .proba(x)?
            .iter()
            .map(|&p| usize::from(p >= 0.5))
            .collect())
    }
}

macro_rules! boosted_classifier {
    ($(#[$doc:meta])* $name:ident, $params:ty, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
        pub struct $name {
            params: $params,
            ensemble: Ensemble,
        }

        impl $name {
            /// Creates an unfitted classifier.
            #[must_use]
            pub fn new(params: $params) -> Self {
                Self {
                    params,
                    ensemble: Ensemble::default(),
                }
            }

            /// Number of fitted trees.
            #[must_use]
            pub fn n_trees(&self) -> usize {
                self.ensemble.trees.len()
            }
        }

        impl Estimator for $name {
            fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
                let cfg = self.grow_config()?;
                self.ensemble.fit(
                    x,
                    y,
                    self.params.n_estimators,
                    self.params.max_bins,
                    &cfg,
                )
            }

            fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
                self.ensemble.classes(x)
            }

            fn name(&self) -> &'static str {
                $label
            }
        }

        impl ProbabilisticEstimator for $name {
            fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
                self.ensemble.proba(x)
            }
        }
    };
}

boosted_classifier!(
    /// Second-order, level-wise boosted trees (XGBoost signature).
    XgBoostClassifier,
    XgBoostParams,
    "XGBoost"
);

impl XgBoostClassifier {
    fn grow_config(&self) -> Result<GrowConfig, MlError> {
        check_lr(self.params.learning_rate)?;
        Ok(GrowConfig {
            strategy: GrowthStrategy::LevelWise {
                max_depth: self.params.max_depth,
            },
            lambda: self.params.lambda,
            gamma: self.params.gamma,
            min_child_weight: self.params.min_child_weight,
            min_samples_leaf: 1,
            learning_rate: self.params.learning_rate,
        })
    }
}

boosted_classifier!(
    /// Histogram leaf-wise boosted trees (LightGBM signature).
    LightGbmClassifier,
    LightGbmParams,
    "LGBM"
);

impl LightGbmClassifier {
    fn grow_config(&self) -> Result<GrowConfig, MlError> {
        check_lr(self.params.learning_rate)?;
        Ok(GrowConfig {
            strategy: GrowthStrategy::LeafWise {
                max_leaves: self.params.num_leaves.max(2),
            },
            lambda: self.params.lambda,
            gamma: 0.0,
            min_child_weight: 1e-3,
            min_samples_leaf: self.params.min_data_in_leaf,
            learning_rate: self.params.learning_rate,
        })
    }
}

boosted_classifier!(
    /// Oblivious-tree boosting (CatBoost signature).
    CatBoostClassifier,
    CatBoostParams,
    "CatBoost"
);

impl CatBoostClassifier {
    fn grow_config(&self) -> Result<GrowConfig, MlError> {
        check_lr(self.params.learning_rate)?;
        Ok(GrowConfig {
            strategy: GrowthStrategy::Oblivious {
                depth: self.params.depth,
            },
            lambda: self.params.l2_leaf_reg,
            gamma: 0.0,
            min_child_weight: 0.0,
            min_samples_leaf: 1,
            learning_rate: self.params.learning_rate,
        })
    }
}

fn check_lr(lr: f64) -> Result<(), MlError> {
    if lr <= 0.0 || !lr.is_finite() {
        return Err(MlError::InvalidParameter {
            name: "learning_rate",
            reason: "must be positive and finite".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes() -> (Matrix, Vec<usize>) {
        // Nonlinear striped pattern no single linear cut solves.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f32;
            rows.push(vec![v, (i % 7) as f32]);
            y.push(usize::from((i / 10) % 2 == 1));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn small<Tp: SmallN>(n: usize) -> Tp {
        Tp::with_n(n)
    }

    trait SmallN: Default {
        fn with_n(n: usize) -> Self;
    }
    impl SmallN for XgBoostParams {
        fn with_n(n: usize) -> Self {
            Self {
                n_estimators: n,
                ..Self::default()
            }
        }
    }
    impl SmallN for LightGbmParams {
        fn with_n(n: usize) -> Self {
            Self {
                n_estimators: n,
                min_data_in_leaf: 1,
                ..Self::default()
            }
        }
    }
    impl SmallN for CatBoostParams {
        fn with_n(n: usize) -> Self {
            Self {
                n_estimators: n,
                ..Self::default()
            }
        }
    }

    #[test]
    fn xgboost_fits_stripes() {
        let (x, y) = stripes();
        let mut clf = XgBoostClassifier::new(small(30));
        clf.fit(&x, &y).unwrap();
        assert!(clf.accuracy(&x, &y).unwrap() > 0.95);
        assert!(clf.n_trees() >= 5);
    }

    #[test]
    fn lightgbm_fits_stripes() {
        let (x, y) = stripes();
        let mut clf = LightGbmClassifier::new(small(40));
        clf.fit(&x, &y).unwrap();
        assert!(clf.accuracy(&x, &y).unwrap() > 0.95);
    }

    #[test]
    fn catboost_fits_stripes() {
        let (x, y) = stripes();
        let mut clf = CatBoostClassifier::new(small(40));
        clf.fit(&x, &y).unwrap();
        assert!(clf.accuracy(&x, &y).unwrap() > 0.95);
    }

    #[test]
    fn probabilities_are_calibrated_toward_labels() {
        let (x, y) = stripes();
        let mut clf = XgBoostClassifier::new(small(30));
        clf.fit(&x, &y).unwrap();
        let p = clf.predict_proba(&x).unwrap();
        let mean_pos: f64 = p
            .iter()
            .zip(&y)
            .filter(|(_, &l)| l == 1)
            .map(|(&pi, _)| pi)
            .sum::<f64>()
            / y.iter().filter(|&&l| l == 1).count() as f64;
        let mean_neg: f64 = p
            .iter()
            .zip(&y)
            .filter(|(_, &l)| l == 0)
            .map(|(&pi, _)| pi)
            .sum::<f64>()
            / y.iter().filter(|&&l| l == 0).count() as f64;
        assert!(mean_pos > 0.8 && mean_neg < 0.2);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = stripes();
        let mut short = XgBoostClassifier::new(XgBoostParams {
            n_estimators: 1,
            learning_rate: 0.1,
            ..XgBoostParams::default()
        });
        short.fit(&x, &y).unwrap();
        let mut long = XgBoostClassifier::new(XgBoostParams {
            n_estimators: 50,
            learning_rate: 0.1,
            ..XgBoostParams::default()
        });
        long.fit(&x, &y).unwrap();
        assert!(long.accuracy(&x, &y).unwrap() >= short.accuracy(&x, &y).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let (x, y) = stripes();
        let mut clf = XgBoostClassifier::new(XgBoostParams {
            n_estimators: 0,
            ..XgBoostParams::default()
        });
        assert!(clf.fit(&x, &y).is_err());
        let mut clf = LightGbmClassifier::new(LightGbmParams {
            learning_rate: -0.1,
            ..LightGbmParams::default()
        });
        assert!(matches!(
            clf.fit(&x, &y),
            Err(MlError::InvalidParameter {
                name: "learning_rate",
                ..
            })
        ));
    }

    #[test]
    fn unfitted_predict_errors() {
        let clf = CatBoostClassifier::new(CatBoostParams::default());
        assert!(clf.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn multiclass_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut clf = XgBoostClassifier::new(XgBoostParams::default());
        assert!(clf.fit(&x, &[0, 1, 2]).is_err());
    }

    #[test]
    fn feature_count_checked_at_predict() {
        let (x, y) = stripes();
        let mut clf = LightGbmClassifier::new(small(5));
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict(&Matrix::zeros(1, 9)).is_err());
    }
}
