//! Random forest (Ho 1995, Breiman 2001): bagged CART trees with per-split
//! feature subsampling, soft-voted like scikit-learn.

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use crate::tree::{DecisionTreeClassifier, MaxFeatures, TreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fewest trees a parallel chunk of [`RandomForestClassifier::predict_proba_full`]
/// takes: one tree predicts a small batch in microseconds, so a chunk
/// needs several to outweigh its thread.
const MIN_CHUNK_TREES: usize = 8;

/// Hyper-parameters for the forest (defaults match scikit-learn 1.x).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestParams {
    /// Number of trees (sklearn default 100).
    pub n_estimators: usize,
    /// Depth cap per tree (sklearn default: unlimited).
    pub max_depth: Option<usize>,
    /// Features per split (sklearn default: √p).
    pub max_features: MaxFeatures,
    /// Minimum samples to split (sklearn default 2).
    pub min_samples_split: usize,
    /// Minimum samples per leaf (sklearn default 1).
    pub min_samples_leaf: usize,
    /// Draw bootstrap samples (sklearn default true).
    pub bootstrap: bool,
    /// Master seed; tree `t` uses stream `seed + t`.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            max_depth: None,
            max_features: MaxFeatures::Sqrt,
            min_samples_split: 2,
            min_samples_leaf: 1,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestClassifier {
    params: RandomForestParams,
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Creates an unfitted forest.
    #[must_use]
    pub fn new(params: RandomForestParams) -> Self {
        Self {
            params,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean class posterior across trees (soft voting).
    pub fn predict_proba_full(&self, x: &Matrix) -> Result<Vec<Vec<f64>>, MlError> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        // Trees predict in parallel chunks; the sum below stays serial and
        // in tree order, so the f64 rounding matches a serial loop.
        let per_tree: Vec<Vec<Vec<f32>>> =
            rayon::map_chunks(&self.trees, MIN_CHUNK_TREES, |_, trees| {
                trees
                    .iter()
                    .map(|t| t.predict_proba_full(x))
                    .collect::<Result<Vec<_>, _>>()
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect();
        let n = x.n_rows();
        let mut out = vec![vec![0.0f64; self.n_classes]; n];
        for tree_probs in &per_tree {
            for (acc, p) in out.iter_mut().zip(tree_probs) {
                for (a, &v) in acc.iter_mut().zip(p) {
                    *a += f64::from(v);
                }
            }
        }
        let t = self.trees.len() as f64;
        for row in &mut out {
            for v in row.iter_mut() {
                *v /= t;
            }
        }
        Ok(out)
    }
}

impl Estimator for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let _span = crate::obs::span("ml/forest_fit");
        if self.params.n_estimators == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_estimators",
                reason: "must be at least 1".into(),
            });
        }
        let n_classes = validate_fit_inputs(&Features::Dense(x), y)?;
        self.n_classes = n_classes;
        let n = x.n_rows();
        let params = &self.params;
        let build = |t: usize| -> Result<DecisionTreeClassifier, MlError> {
            let tree_seed = params
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
            let indices: Vec<usize> = if params.bootstrap {
                let mut rng = StdRng::seed_from_u64(tree_seed);
                (0..n).map(|_| rng.random_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            let mut tree = DecisionTreeClassifier::new(TreeParams {
                max_depth: params.max_depth,
                min_samples_split: params.min_samples_split,
                min_samples_leaf: params.min_samples_leaf,
                max_features: params.max_features,
                min_impurity_decrease: 0.0,
                seed: tree_seed ^ 0xA5A5_A5A5,
            });
            tree.fit_indices(x, y, &indices, n_classes)?;
            Ok(tree)
        };
        // Each tree draws an independent bootstrap and feature-stream from
        // a per-tree seed, so the build is deterministic in any tree order:
        // trees are built in parallel chunks of tree indices and kept in
        // index order.
        self.trees = rayon::map_ranges(params.n_estimators, 1, |trees| {
            trees.map(build).collect::<Result<Vec<_>, _>>()
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        let _span = crate::obs::span("ml/forest_predict");
        let proba = self.predict_proba_full(x)?;
        Ok(proba
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map_or(0, |(c, _)| c)
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

impl ProbabilisticEstimator for RandomForestClassifier {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Ok(self
            .predict_proba_full(x)?
            .iter()
            .map(|p| p.get(1).copied().unwrap_or(0.0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per_class: usize) -> (Matrix, Vec<usize>) {
        // Two well-separated Gaussian-ish blobs on a deterministic lattice.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per_class {
            let j = (i % 5) as f32 * 0.1;
            rows.push(vec![0.0 + j, 1.0 - j]);
            y.push(0);
            rows.push(vec![5.0 + j, 6.0 - j]);
            y.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn small_forest(seed: u64) -> RandomForestClassifier {
        RandomForestClassifier::new(RandomForestParams {
            n_estimators: 15,
            seed,
            ..RandomForestParams::default()
        })
    }

    #[test]
    fn separable_blobs_are_learned() {
        let (x, y) = blobs(20);
        let mut rf = small_forest(1);
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.predict(&x).unwrap(), y);
        assert_eq!(rf.n_trees(), 15);
    }

    #[test]
    fn predictions_are_deterministic_per_seed() {
        let (x, y) = blobs(10);
        let mut a = small_forest(7);
        let mut b = small_forest(7);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn different_seeds_give_different_forests() {
        // Inject label noise so leaf posteriors depend on the bootstrap
        // draw — on perfectly separable data every tree is identical and
        // seeds cannot show through.
        let (x, mut y) = blobs(10);
        y[0] = 1;
        y[1] = 0;
        let mut a = small_forest(1);
        let mut b = small_forest(2);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        // Probabilities (not hard labels) expose the underlying diversity.
        assert_ne!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn proba_is_a_distribution() {
        let (x, y) = blobs(10);
        let mut rf = small_forest(3);
        rf.fit(&x, &y).unwrap();
        for p in rf.predict_proba_full(&x).unwrap() {
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn zero_estimators_rejected() {
        let (x, y) = blobs(5);
        let mut rf = RandomForestClassifier::new(RandomForestParams {
            n_estimators: 0,
            ..RandomForestParams::default()
        });
        assert!(matches!(
            rf.fit(&x, &y),
            Err(MlError::InvalidParameter {
                name: "n_estimators",
                ..
            })
        ));
    }

    #[test]
    fn unfitted_errors() {
        let rf = small_forest(0);
        assert!(rf.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn no_bootstrap_mode_works() {
        let (x, y) = blobs(10);
        let mut rf = RandomForestClassifier::new(RandomForestParams {
            n_estimators: 5,
            bootstrap: false,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.predict(&x).unwrap(), y);
    }
}
