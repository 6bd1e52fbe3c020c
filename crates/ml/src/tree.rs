//! CART decision trees (Breiman et al. 1984), as wrapped by scikit-learn's
//! `DecisionTreeClassifier`.
//!
//! Greedy recursive partitioning with Gini impurity, optional depth and
//! leaf-size limits, and optional per-split random feature subsampling
//! (the primitive random forests build on). Split search sorts each
//! candidate feature once per node and sweeps thresholds between distinct
//! values; the sweep reuses per-node buffers to keep allocations out of the
//! hot path.

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use hyperfex_hdc::bitmatrix::{popcount_dot, BitMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How many features to examine per split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// Consider every feature (scikit-learn's decision-tree default).
    All,
    /// Consider `⌈√p⌉` random features (random-forest default).
    Sqrt,
    /// Consider `⌈log₂ p⌉` random features.
    Log2,
    /// Consider exactly `n` random features.
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, p: usize) -> usize {
        let n = match self {
            Self::All => p,
            Self::Sqrt => (p as f64).sqrt().ceil() as usize,
            Self::Log2 => (p as f64).log2().ceil() as usize,
            Self::Count(n) => n,
        };
        n.clamp(1, p)
    }
}

/// Hyper-parameters for a CART tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (`None` = grow until pure / exhausted, the sklearn
    /// default).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split (sklearn default 2).
    pub min_samples_split: usize,
    /// Minimum samples in each child (sklearn default 1).
    pub min_samples_leaf: usize,
    /// Features examined per split.
    pub max_features: MaxFeatures,
    /// Minimum Gini decrease for a split to be kept (sklearn default 0).
    pub min_impurity_decrease: f64,
    /// Seed for feature subsampling (irrelevant under `MaxFeatures::All`).
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            min_impurity_decrease: 0.0,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Class posterior at the leaf (normalised counts).
        proba: Vec<f32>,
        class: usize,
    },
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
    },
}

/// A fitted CART classification tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeClassifier {
    params: TreeParams,
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTreeClassifier {
    /// Creates an unfitted tree.
    #[must_use]
    pub fn new(params: TreeParams) -> Self {
        Self {
            params,
            nodes: Vec::new(),
            n_classes: 0,
            n_features: 0,
        }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: u32) -> usize {
            match &nodes[i as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Fits with an externally supplied sample-index list and per-sample
    /// weights baked in as duplicates (used by bagging ensembles to avoid
    /// materialising bootstrap copies of `x`).
    pub(crate) fn fit_indices(
        &mut self,
        x: &Matrix,
        y: &[usize],
        indices: &[usize],
        n_classes: usize,
    ) -> Result<(), MlError> {
        if indices.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let rows = DenseRows {
            x,
            y,
            n_classes,
            sort_buf: Vec::new(),
        };
        self.grow(rows, indices.to_vec(), n_classes, x.n_cols());
        Ok(())
    }

    /// Grows the tree over `rows` from the `root` sample set.
    fn grow<R: TreeRows>(&mut self, rows: R, root: R::Node, n_classes: usize, p: usize) {
        self.n_classes = n_classes;
        self.n_features = p;
        self.nodes.clear();
        let mut grower = Grower {
            rows,
            params: &self.params,
            nodes: &mut self.nodes,
            rng: StdRng::seed_from_u64(self.params.seed),
            feature_pool: (0..p as u32).collect(),
        };
        grower.build(root, 0);
    }

    /// The leaf posterior a row of `width` features reaches, reading
    /// feature `f` as `value(f)`.
    fn leaf_proba(&self, width: usize, value: impl Fn(usize) -> f32) -> Result<&[f32], MlError> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if width != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} features", self.n_features),
                got: format!("{width} features"),
            });
        }
        let mut i = 0u32;
        loop {
            match &self.nodes[i as usize] {
                Node::Leaf { proba, .. } => return Ok(proba),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if value(*feature as usize) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The leaf posterior each row of `x` reaches. A packed bit is read as
    /// 0.0/1.0, so it takes the same f32 comparison as its unpacked cell.
    fn leaves(&self, x: &Features<'_>) -> Result<Vec<&[f32]>, MlError> {
        (0..x.n_rows())
            .map(|i| match x {
                Features::Dense(m) => {
                    let row = m.row(i);
                    self.leaf_proba(row.len(), |f| row[f])
                }
                Features::Packed(b) => {
                    let words = b.row_words(i);
                    self.leaf_proba(b.dim().get(), |f| ((words[f / 64] >> (f % 64)) & 1) as f32)
                }
            })
            .collect()
    }

    /// Class posterior for each row.
    pub fn predict_proba_full(&self, x: &Matrix) -> Result<Vec<Vec<f32>>, MlError> {
        Ok(self
            .leaves(&Features::Dense(x))?
            .into_iter()
            .map(<[f32]>::to_vec)
            .collect())
    }
}

/// The training rows a tree grows over, seen through the samples that
/// reach one node.
trait TreeRows {
    /// The samples at a node.
    type Node;
    /// Per-class sample counts at `node`.
    fn class_counts(&self, node: &Self::Node) -> Vec<u32>;
    /// Calls `offer(left_counts, left_n, threshold)` for each boundary of
    /// `feature` that splits `node` into two non-empty sides, thresholds
    /// ascending.
    fn boundaries(
        &mut self,
        node: &Self::Node,
        feature: usize,
        parent_counts: &[u32],
        offer: impl FnMut(&[u32], usize, f32),
    );
    /// Splits `node` into its samples at or below `threshold` on
    /// `feature` and the rest, or `None` when one side would be empty.
    fn partition(
        &self,
        node: Self::Node,
        feature: usize,
        threshold: f32,
    ) -> Option<(Self::Node, Self::Node)>;
}

/// Dense rows: a node is its sample indices, and each feature's
/// boundaries come from one sort of its values over the node.
struct DenseRows<'a> {
    x: &'a Matrix,
    y: &'a [usize],
    n_classes: usize,
    /// `(value, sample)` pairs of the feature being swept, reused.
    sort_buf: Vec<(f32, usize)>,
}

impl TreeRows for DenseRows<'_> {
    type Node = Vec<usize>;

    fn class_counts(&self, node: &Vec<usize>) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for &i in node {
            counts[self.y[i]] += 1;
        }
        counts
    }

    fn boundaries(
        &mut self,
        node: &Vec<usize>,
        feature: usize,
        _parent_counts: &[u32],
        mut offer: impl FnMut(&[u32], usize, f32),
    ) {
        self.sort_buf.clear();
        self.sort_buf
            .extend(node.iter().map(|&i| (self.x.get(i, feature), i)));
        self.sort_buf.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // Thresholds lie between distinct consecutive values.
        let mut left_counts = vec![0u32; self.n_classes];
        let mut left_n = 0usize;
        for w in 0..self.sort_buf.len() - 1 {
            let (v, i) = self.sort_buf[w];
            left_counts[self.y[i]] += 1;
            left_n += 1;
            let (v_next, _) = self.sort_buf[w + 1];
            if v != v_next {
                offer(&left_counts, left_n, midpoint(v, v_next));
            }
        }
    }

    fn partition(
        &self,
        node: Vec<usize>,
        feature: usize,
        threshold: f32,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        // Stable, so the children keep the node's sample order. A
        // degenerate partition means numerical ties.
        let (left, right): (Vec<usize>, Vec<usize>) = node
            .into_iter()
            .partition(|&i| self.x.get(i, feature) <= threshold);
        (!left.is_empty() && !right.is_empty()).then_some((left, right))
    }
}

/// Packed rows: a node is one sample mask per class, and a binary feature
/// has exactly one boundary (threshold 0.5), whose child counts are
/// popcounts of the class masks against the feature's column. Every
/// quantity the dense sweep derives there — child counts, Gini terms, the
/// strict-`<` tie order over features — is an integer or an exact f64
/// image of one, so both grow the identical tree.
struct PackedRows {
    /// Transposed design matrix: row `f` is feature f's sample mask.
    cols: BitMatrix,
    /// Left-child class counts of the feature being read, reused.
    left_counts: Vec<u32>,
}

impl TreeRows for PackedRows {
    type Node = Vec<Vec<u64>>;

    fn class_counts(&self, node: &Vec<Vec<u64>>) -> Vec<u32> {
        node.iter()
            .map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>())
            .collect()
    }

    fn boundaries(
        &mut self,
        node: &Vec<Vec<u64>>,
        feature: usize,
        parent_counts: &[u32],
        mut offer: impl FnMut(&[u32], usize, f32),
    ) {
        let col = self.cols.row_words(feature);
        // Zeros go left of the 0|1 boundary, so left counts are the
        // parent's minus the ones.
        self.left_counts.clear();
        self.left_counts.extend(
            parent_counts
                .iter()
                .zip(node)
                .map(|(&pc, class_mask)| pc - popcount_dot(col, class_mask) as u32),
        );
        let left_n = self.left_counts.iter().map(|&c| c as usize).sum::<usize>();
        // A constant column in this node has no boundary.
        if left_n != 0 && self.left_counts != parent_counts {
            offer(&self.left_counts, left_n, midpoint(0.0, 1.0));
        }
    }

    fn partition(
        &self,
        node: Vec<Vec<u64>>,
        feature: usize,
        _threshold: f32,
    ) -> Option<(Vec<Vec<u64>>, Vec<Vec<u64>>)> {
        // `boundaries` offers a feature only when it splits the node into
        // two non-empty sides.
        let col = self.cols.row_words(feature);
        let left = node
            .iter()
            .map(|m| m.iter().zip(col).map(|(w, c)| w & !c).collect())
            .collect();
        let right = node
            .iter()
            .map(|m| m.iter().zip(col).map(|(w, c)| w & c).collect())
            .collect();
        Some((left, right))
    }
}

/// One recursion that grows a tree over either row kind: node push order
/// and RNG consumption depend only on the class counts and candidate
/// splits, so dense and packed rows of the same binary data grow
/// bit-identical `Vec<Node>`s.
struct Grower<'a, R> {
    rows: R,
    params: &'a TreeParams,
    nodes: &'a mut Vec<Node>,
    rng: StdRng,
    feature_pool: Vec<u32>,
}

impl<R: TreeRows> Grower<'_, R> {
    /// Builds the subtree over `node`'s samples, returning its node id.
    fn build(&mut self, node: R::Node, depth: usize) -> u32 {
        let counts = self.rows.class_counts(&node);
        let n_node = counts.iter().map(|&c| c as usize).sum::<usize>();
        let node_id = self.nodes.len() as u32;

        let gini = gini_impurity(&counts, n_node);
        let depth_ok = self.params.max_depth.is_none_or(|d| depth < d);
        let should_split = depth_ok && n_node >= self.params.min_samples_split && gini > 0.0;

        if should_split {
            if let Some(split) = self.best_split(&node, &counts, n_node, gini) {
                // A degenerate partition falls through to a leaf instead
                // of recursing forever.
                if let Some((left, right)) =
                    self.rows
                        .partition(node, split.feature as usize, split.threshold)
                {
                    self.nodes.push(Node::Leaf {
                        proba: Vec::new(),
                        class: 0,
                    }); // placeholder
                    let left = self.build(left, depth + 1);
                    let right = self.build(right, depth + 1);
                    self.nodes[node_id as usize] = Node::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                    return node_id;
                }
            }
        }

        // Leaf.
        let total = n_node as f32;
        let proba: Vec<f32> = counts.iter().map(|&c| c as f32 / total).collect();
        let class = argmax_usize(&counts);
        self.nodes.push(Node::Leaf { proba, class });
        node_id
    }

    fn best_split(
        &mut self,
        node: &R::Node,
        parent_counts: &[u32],
        n_node: usize,
        parent_gini: f64,
    ) -> Option<SplitCandidate> {
        let p = self.feature_pool.len();
        let n_features = self.params.max_features.resolve(p);
        // Shuffle a persistent feature pool and take a prefix — O(p) per
        // node but allocation-free.
        if n_features < p {
            self.feature_pool.shuffle(&mut self.rng);
        }
        let n = n_node as f64;
        let params = self.params;
        let mut best: Option<SplitCandidate> = None;
        for &feature in &self.feature_pool[..n_features] {
            let offer = |left_counts: &[u32], left_n: usize, threshold: f32| {
                let right_n = n_node - left_n;
                if left_n < params.min_samples_leaf || right_n < params.min_samples_leaf {
                    return;
                }
                let gini_left = gini_impurity(left_counts, left_n);
                let mut right_counts = parent_counts.to_vec();
                for (rc, &lc) in right_counts.iter_mut().zip(left_counts) {
                    *rc -= lc;
                }
                let gini_right = gini_impurity(&right_counts, right_n);
                let weighted = (left_n as f64 * gini_left + right_n as f64 * gini_right) / n;
                if parent_gini - weighted < params.min_impurity_decrease {
                    return;
                }
                if best.as_ref().is_none_or(|b| weighted < b.weighted_gini) {
                    best = Some(SplitCandidate {
                        feature,
                        threshold,
                        weighted_gini: weighted,
                    });
                }
            };
            self.rows
                .boundaries(node, feature as usize, parent_counts, offer);
        }
        best
    }
}

struct SplitCandidate {
    feature: u32,
    threshold: f32,
    weighted_gini: f64,
}

/// Gini impurity `1 − Σ pᵢ²` of a class-count vector.
fn gini_impurity(counts: &[u32], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let sum_sq: f64 = counts
        .iter()
        .map(|&c| {
            let p = f64::from(c) / n;
            p * p
        })
        .sum();
    1.0 - sum_sq
}

/// Midpoint between two consecutive distinct values, robust to f32 rounding
/// (falls back to the lower value when the average rounds onto `b`).
fn midpoint(a: f32, b: f32) -> f32 {
    let m = (a + b) / 2.0;
    if m >= b {
        a
    } else {
        m
    }
}

fn argmax_usize(counts: &[u32]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(i, _)| i)
}

impl Estimator for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.fit_features(&Features::Dense(x), y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        self.predict_features(&Features::Dense(x))
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }

    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        let n_classes = validate_fit_inputs(x, y)?;
        match x {
            Features::Dense(m) => {
                let indices: Vec<usize> = (0..m.n_rows()).collect();
                self.fit_indices(m, y, &indices, n_classes)
            }
            Features::Packed(b) => {
                // Transpose only fails on an empty input, which
                // validation already rejected.
                let cols = b.transpose().map_err(|_| MlError::EmptyTrainingSet)?;
                let mut class_masks = vec![vec![0u64; b.n_rows().div_ceil(64)]; n_classes];
                for (i, &label) in y.iter().enumerate() {
                    class_masks[label][i / 64] |= 1u64 << (i % 64);
                }
                let rows = PackedRows {
                    cols,
                    left_counts: Vec::new(),
                };
                self.grow(rows, class_masks, n_classes, b.dim().get());
                Ok(())
            }
        }
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        Ok(self
            .leaves(x)?
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map_or(0, |(c, _)| c)
            })
            .collect())
    }
}

impl ProbabilisticEstimator for DecisionTreeClassifier {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Ok(self
            .leaves(&Features::Dense(x))?
            .iter()
            .map(|p| p.get(1).copied().unwrap_or(0.0) as f64)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn learns_xor_exactly() {
        let (x, y) = xor_data();
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        tree.fit(&x, &y).unwrap();
        assert_eq!(tree.predict(&x).unwrap(), y);
        assert!(tree.depth() >= 2, "XOR needs at least two levels");
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = xor_data();
        let mut stump = DecisionTreeClassifier::new(TreeParams {
            max_depth: Some(1),
            ..TreeParams::default()
        });
        stump.fit(&x, &y).unwrap();
        assert!(stump.depth() <= 1);
        // A depth-1 stump cannot express XOR.
        assert_ne!(stump.predict(&x).unwrap(), y);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![10.0]]).unwrap();
        let y = vec![0, 0, 0, 1];
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        tree.fit(&x, &y).unwrap();
        // Single split suffices.
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.n_nodes(), 3);
        assert_eq!(tree.predict(&x).unwrap(), y);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut tree = DecisionTreeClassifier::new(TreeParams {
            min_samples_leaf: 2,
            ..TreeParams::default()
        });
        tree.fit(&x, &y).unwrap();
        // The only legal split is 2-2.
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.predict(&x).unwrap(), y);
    }

    #[test]
    fn predict_proba_reflects_leaf_composition() {
        // Force a leaf with mixed classes via min_samples_split.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![5.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        tree.fit(&x, &y).unwrap();
        let proba = tree.predict_proba(&x).unwrap();
        // Rows 0-2 share a leaf with 2×class0 + 1×class1.
        assert!((proba[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((proba[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unfitted_predict_errors() {
        let tree = DecisionTreeClassifier::new(TreeParams::default());
        assert!(tree.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn fit_validates_inputs() {
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        assert!(tree.fit(&Matrix::zeros(0, 2), &[]).is_err());
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            tree.fit(&x, &[0, 0, 0]),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn feature_dimension_checked_at_predict() {
        let (x, y) = xor_data();
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        tree.fit(&x, &y).unwrap();
        assert!(tree.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini_impurity(&[4, 0], 4), 0.0);
        assert!((gini_impurity(&[2, 2], 4) - 0.5).abs() < 1e-12);
        assert_eq!(gini_impurity(&[], 0), 0.0);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let (x, y) = xor_data();
        let params = TreeParams {
            max_features: MaxFeatures::Count(1),
            seed: 5,
            ..TreeParams::default()
        };
        let mut a = DecisionTreeClassifier::new(params.clone());
        let mut b = DecisionTreeClassifier::new(params);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn handles_constant_features_gracefully() {
        let x = Matrix::from_rows(&[vec![1.0, 7.0], vec![2.0, 7.0], vec![3.0, 7.0]]).unwrap();
        let y = vec![0, 1, 1];
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        tree.fit(&x, &y).unwrap();
        assert_eq!(tree.predict(&x).unwrap(), y);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(100), 100);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Log2.resolve(1024), 10);
        assert_eq!(MaxFeatures::Count(5).resolve(3), 3);
        assert_eq!(MaxFeatures::Count(0).resolve(3), 1);
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

    fn assert_same_nodes(a: &DecisionTreeClassifier, b: &DecisionTreeClassifier) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            match (na, nb) {
                (
                    Node::Leaf {
                        proba: pa,
                        class: ca,
                    },
                    Node::Leaf {
                        proba: pb,
                        class: cb,
                    },
                ) => {
                    assert_eq!(ca, cb);
                    assert_eq!(pa, pb, "leaf posteriors must be bit-identical");
                }
                (
                    Node::Split {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                    },
                    Node::Split {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                    },
                ) => {
                    assert_eq!((fa, la, ra), (fb, lb, rb));
                    assert_eq!(ta.to_bits(), tb.to_bits());
                }
                _ => panic!("node kind mismatch"),
            }
        }
    }

    #[test]
    fn packed_fit_builds_bit_identical_tree() {
        for (params, seed) in [
            (TreeParams::default(), 3u64),
            (
                TreeParams {
                    max_depth: Some(4),
                    min_samples_leaf: 3,
                    ..TreeParams::default()
                },
                4,
            ),
            (
                TreeParams {
                    max_features: MaxFeatures::Sqrt,
                    seed: 11,
                    ..TreeParams::default()
                },
                5,
            ),
        ] {
            let bits = random_bits(60, 130, seed);
            let y: Vec<usize> = (0..60).map(|i| usize::from(i % 3 != 1)).collect();
            let dense = crate::traits::densify(&bits);

            let mut a = DecisionTreeClassifier::new(params.clone());
            a.fit(&dense, &y).unwrap();
            let mut b = DecisionTreeClassifier::new(params);
            b.fit_features(&Features::Packed(&bits), &y).unwrap();
            assert_same_nodes(&a, &b);

            let queries = random_bits(20, 130, seed + 100);
            let dense_q = crate::traits::densify(&queries);
            assert_eq!(
                b.predict_features(&Features::Packed(&queries)).unwrap(),
                a.predict(&dense_q).unwrap()
            );
        }
    }

    #[test]
    fn packed_fit_validates_inputs() {
        let bits = random_bits(5, 32, 1);
        let mut tree = DecisionTreeClassifier::new(TreeParams::default());
        assert!(matches!(
            tree.fit_features(&Features::Packed(&bits), &[0; 5]),
            Err(MlError::SingleClass)
        ));
        assert!(matches!(
            tree.fit_features(&Features::Packed(&bits), &[0, 1]),
            Err(MlError::LabelLengthMismatch { .. })
        ));
    }
}
