//! k-nearest-neighbours classification (Fix & Hodges 1952) over Euclidean
//! distance, matching scikit-learn's `KNeighborsClassifier` defaults.

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use hyperfex_hdc::bitmatrix::{BitMatrix, PivotTable};
use hyperfex_hdc::topk::{ScanRequest, TopK};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Fewest query rows a parallel chunk of a prediction takes: each row
/// scans the whole training set, so eight rows outweigh a thread.
const MIN_CHUNK_ROWS: usize = 8;

/// Neighbour vote weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KnnWeights {
    /// One vote per neighbour (sklearn default).
    Uniform,
    /// Votes weighted by inverse distance.
    Distance,
}

/// Hyper-parameters (defaults match scikit-learn: `k = 5`, uniform).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnParams {
    /// Number of neighbours.
    pub k: usize,
    /// Vote weighting.
    pub weights: KnnWeights,
}

impl Default for KnnParams {
    fn default() -> Self {
        Self {
            k: 5,
            weights: KnnWeights::Uniform,
        }
    }
}

/// A fitted (memorised) k-NN classifier.
///
/// Fitting on [`Features::Packed`] stores the training set in bit-packed
/// form: on 0/1 features squared Euclidean distance *equals* Hamming
/// distance, so neighbour search runs on integer popcounts (the shared
/// [`TopK`] scan) and reproduces the dense predictions bit-exactly
/// (f32 represents every distance ≤ 2²⁴ exactly, and integer ties order
/// the same way as their f32 images).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnClassifier {
    params: KnnParams,
    x: Option<Matrix>,
    packed: Option<BitMatrix>,
    y: Vec<usize>,
    n_classes: usize,
}

impl KnnClassifier {
    /// Creates an unfitted classifier.
    #[must_use]
    pub fn new(params: KnnParams) -> Self {
        Self {
            params,
            x: None,
            packed: None,
            y: Vec::new(),
            n_classes: 0,
        }
    }

    fn vote(&self, row: &[f32]) -> Result<Vec<f64>, MlError> {
        let best = match (&self.x, &self.packed) {
            (Some(x), _) => self.nearest(row, x.n_cols(), x.n_rows(), |i| {
                Matrix::squared_distance(row, x.row(i))
            })?,
            // Fitted packed: bridge through the bit rows.
            (None, Some(p)) => self.nearest(row, p.dim().get(), p.n_rows(), |i| {
                squared_distance_to_bits(row, p.row_words(i))
            })?,
            (None, None) => return Err(MlError::NotFitted),
        };
        Ok(self.tally(best.iter().map(|&(d, i)| (f64::from(d), i))))
    }

    /// The `k` nearest of `n` training rows, `width` features wide, to the
    /// f32 `row` under `distance`: `(distance, index)` ascending, equal
    /// distances to the lower index.
    fn nearest(
        &self,
        row: &[f32],
        width: usize,
        n: usize,
        distance: impl Fn(usize) -> f32,
    ) -> Result<Vec<(f32, usize)>, MlError> {
        if row.len() != width {
            return Err(MlError::ShapeMismatch {
                expected: format!("{width} features"),
                got: format!("{} features", row.len()),
            });
        }
        let k = self.params.k.min(n);
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for i in 0..n {
            let d = distance(i);
            let pos = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
            if pos < k {
                best.insert(pos, (d, i));
                best.truncate(k);
            }
        }
        Ok(best)
    }

    /// Votes over the nearest training rows, given as `(squared distance,
    /// index)`. A packed Hamming distance is an exact integer, so it votes
    /// exactly as its f32 image on the dense path does.
    fn tally(&self, best: impl Iterator<Item = (f64, usize)>) -> Vec<f64> {
        let mut votes = vec![0.0f64; self.n_classes];
        for (d, i) in best {
            let w = match self.params.weights {
                KnnWeights::Uniform => 1.0,
                KnnWeights::Distance => 1.0 / (d.sqrt() + 1e-12),
            };
            votes[self.y[i]] += w;
        }
        votes
    }

    /// Maps `f` over query rows `0..n`, split across `rayon::map_ranges`
    /// workers; results stay in row order and the first error in row
    /// order is the one returned.
    fn map_rows<T: Send>(
        n: usize,
        f: impl Fn(usize) -> Result<T, MlError> + Sync,
    ) -> Result<Vec<T>, MlError> {
        Self::map_chunks(n, |rows| rows.map(&f).collect())
    }

    /// [`Self::map_rows`] with `f` mapping a whole chunk of rows at once.
    fn map_chunks<T: Send>(
        n: usize,
        f: impl Fn(Range<usize>) -> Result<Vec<T>, MlError> + Sync,
    ) -> Result<Vec<T>, MlError> {
        rayon::map_ranges(n, MIN_CHUNK_ROWS, f)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map(|chunks| chunks.into_iter().flatten().collect())
    }

    fn argmax(votes: &[f64]) -> usize {
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map_or(0, |(c, _)| c)
    }
}

/// Squared Euclidean distance between a dense `f32` row and a bit-packed
/// 0/1 row, evaluated in the same left-to-right order (and thus the same
/// f32 rounding) as [`Matrix::squared_distance`] against the unpacked row.
// lint: index-ok (chunk index w < row.len().div_ceil(64) <= words.len() by dim match)
fn squared_distance_to_bits(row: &[f32], words: &[u64]) -> f32 {
    let mut acc = 0.0f32;
    for (w, chunk) in row.chunks(64).enumerate() {
        let word = words[w];
        for (j, &v) in chunk.iter().enumerate() {
            let d = v - ((word >> j) & 1) as f32;
            acc += d * d;
        }
    }
    acc
}

impl Estimator for KnnClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        self.fit_features(&Features::Dense(x), y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Self::map_rows(x.n_rows(), |i| Ok(Self::argmax(&self.vote(x.row(i))?)))
    }

    fn name(&self) -> &'static str {
        "KNN"
    }

    fn fit_features(&mut self, x: &Features<'_>, y: &[usize]) -> Result<(), MlError> {
        if self.params.k == 0 {
            return Err(MlError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        self.n_classes = validate_fit_inputs(x, y)?;
        (self.x, self.packed) = match x {
            Features::Dense(m) => (Some((*m).clone()), None),
            Features::Packed(b) => (None, Some((*b).clone())),
        };
        self.y = y.to_vec();
        Ok(())
    }

    fn predict_features(&self, x: &Features<'_>) -> Result<Vec<usize>, MlError> {
        match (x, &self.packed) {
            (Features::Packed(q), Some(train)) => {
                // Fully packed: one shared top-k scan of the training rows
                // per chunk of queries, by popcount distance, then the
                // usual vote per query.
                let shape_mismatch = || MlError::ShapeMismatch {
                    expected: format!("{} features", train.dim().get()),
                    got: format!("{} features", q.dim().get()),
                };
                if q.dim() != train.dim() {
                    return Err(shape_mismatch());
                }
                let n = train.n_rows();
                let k = self.params.k.min(n);
                let no_pivots = PivotTable::none(train.dim());
                Self::map_chunks(q.n_rows(), |rows| {
                    let chunk = q.select_rows(&rows.collect::<Vec<_>>());
                    let request =
                        ScanRequest::new(&chunk, k, &no_pivots).map_err(|_| shape_mismatch())?;
                    let mut tops = TopK::new(chunk.n_rows(), k);
                    tops.scan(&request, &[train], 0..n, |_, j| j)
                        .map_err(|_| shape_mismatch())?;
                    Ok((0..chunk.n_rows())
                        .map(|qi| {
                            let best = tops.list(qi).iter().map(|&(d, i)| (d as f64, i));
                            Self::argmax(&self.tally(best))
                        })
                        .collect())
                })
            }
            (Features::Packed(q), None) => self.predict(&crate::traits::densify(q)),
            (Features::Dense(m), _) => self.predict(m),
        }
    }
}

impl ProbabilisticEstimator for KnnClassifier {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Self::map_rows(x.n_rows(), |i| {
            let votes = self.vote(x.row(i))?;
            let total: f64 = votes.iter().sum();
            Ok(votes.get(1).copied().unwrap_or(0.0) / total.max(1e-12))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f32>> = (0..10)
            .map(|i| vec![i as f32, 0.0])
            .chain((20..30).map(|i| vec![i as f32, 0.0]))
            .collect();
        let y: Vec<usize> = std::iter::repeat_n(0, 10)
            .chain(std::iter::repeat_n(1, 10))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn classifies_line_clusters() {
        let (x, y) = line_data();
        let mut knn = KnnClassifier::new(KnnParams::default());
        knn.fit(&x, &y).unwrap();
        let q = Matrix::from_rows(&[vec![4.0, 0.0], vec![26.0, 0.0]]).unwrap();
        assert_eq!(knn.predict(&q).unwrap(), vec![0, 1]);
        assert_eq!(knn.accuracy(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn k1_memorises_training_data() {
        let (x, y) = line_data();
        let mut knn = KnnClassifier::new(KnnParams {
            k: 1,
            weights: KnnWeights::Uniform,
        });
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict(&x).unwrap(), y);
    }

    #[test]
    fn distance_weighting_breaks_uniform_ties() {
        // Query at 2.0: neighbours at distance 1 (class 0, twice) vs the
        // k=3 window pulling in a farther class-1 point at 3.5.
        let x = Matrix::from_rows(&[vec![1.0], vec![3.0], vec![3.5], vec![3.6]]).unwrap();
        let y = vec![0, 1, 1, 1];
        let mut uniform = KnnClassifier::new(KnnParams {
            k: 3,
            weights: KnnWeights::Uniform,
        });
        uniform.fit(&x, &y).unwrap();
        let q = Matrix::from_rows(&[vec![1.2]]).unwrap();
        // Uniform k=3: neighbours {1.0 (c0), 3.0 (c1), 3.5 (c1)} → class 1.
        assert_eq!(uniform.predict(&q).unwrap(), vec![1]);
        let mut weighted = KnnClassifier::new(KnnParams {
            k: 3,
            weights: KnnWeights::Distance,
        });
        weighted.fit(&x, &y).unwrap();
        // Weighted: the much closer 1.0 dominates → class 0.
        assert_eq!(weighted.predict(&q).unwrap(), vec![0]);
    }

    #[test]
    fn proba_counts_neighbour_fractions() {
        let (x, y) = line_data();
        let mut knn = KnnClassifier::new(KnnParams::default());
        knn.fit(&x, &y).unwrap();
        let q = Matrix::from_rows(&[vec![5.0, 0.0]]).unwrap();
        let p = knn.predict_proba(&q).unwrap();
        assert_eq!(p, vec![0.0]);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![11.0]]).unwrap();
        let y = vec![0, 1, 1];
        let mut knn = KnnClassifier::new(KnnParams {
            k: 50,
            weights: KnnWeights::Uniform,
        });
        knn.fit(&x, &y).unwrap();
        // All three vote: class 1 wins everywhere.
        let q = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(knn.predict(&q).unwrap(), vec![1]);
    }

    #[test]
    fn invalid_k_and_unfitted_errors() {
        let (x, y) = line_data();
        let mut knn = KnnClassifier::new(KnnParams {
            k: 0,
            weights: KnnWeights::Uniform,
        });
        assert!(matches!(
            knn.fit(&x, &y),
            Err(MlError::InvalidParameter { name: "k", .. })
        ));
        let knn = KnnClassifier::new(KnnParams::default());
        assert!(knn.predict(&x).is_err());
    }

    #[test]
    fn feature_mismatch_at_predict_errors() {
        let (x, y) = line_data();
        let mut knn = KnnClassifier::new(KnnParams::default());
        knn.fit(&x, &y).unwrap();
        assert!(knn.predict(&Matrix::zeros(1, 3)).is_err());
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
    fn packed_fit_predict_matches_dense_bit_exactly() {
        for weights in [KnnWeights::Uniform, KnnWeights::Distance] {
            let bits = random_bits(40, 130, 7);
            let y: Vec<usize> = (0..40).map(|i| usize::from(i % 3 == 0)).collect();
            let dense = crate::traits::densify(&bits);

            let mut a = KnnClassifier::new(KnnParams { k: 5, weights });
            a.fit(&dense, &y).unwrap();
            let mut b = KnnClassifier::new(KnnParams { k: 5, weights });
            b.fit_features(&Features::Packed(&bits), &y).unwrap();

            let queries = random_bits(15, 130, 8);
            let dense_q = crate::traits::densify(&queries);
            let expected = a.predict(&dense_q).unwrap();
            // Packed queries against a packed-fitted model (popcount path).
            assert_eq!(
                b.predict_features(&Features::Packed(&queries)).unwrap(),
                expected
            );
            // Dense queries against a packed-fitted model (bridge path).
            assert_eq!(b.predict(&dense_q).unwrap(), expected);
            // Packed queries against a dense-fitted model (densify path).
            assert_eq!(
                a.predict_features(&Features::Packed(&queries)).unwrap(),
                expected
            );
        }
    }

    /// Duplicate training rows with different labels tie at every distance;
    /// at k = 1 the lower training index wins, so its label is the
    /// prediction, whether the model was fitted dense or packed.
    #[test]
    fn hamming_knn_ties_go_to_the_lower_training_index() {
        use hyperfex_hdc::prelude::*;
        let mut rng = SplitMix64::new(5);
        let a = BinaryHypervector::random(Dim::new(200), &mut rng);
        let b = BinaryHypervector::random(Dim::new(200), &mut rng);
        let probe = a.flip_balanced(10, &mut rng).unwrap();
        let train = BitMatrix::from_hypervectors(&[b.clone(), a.clone(), a.clone(), b]).unwrap();
        // Row 0 is `a` itself, row 1 the probe.
        let queries = BitMatrix::from_hypervectors(&[a, probe]).unwrap();
        let params = || KnnParams {
            k: 1,
            weights: KnnWeights::Uniform,
        };
        // Rows 1 and 2 are the tied nearest; row 1's label must win, whether
        // it is the lower or the higher class.
        for (labels, want) in [(vec![2, 1, 0, 2], 1), (vec![2, 0, 1, 2], 0)] {
            let mut dense = KnnClassifier::new(params());
            dense.fit(&crate::traits::densify(&train), &labels).unwrap();
            let mut packed = KnnClassifier::new(params());
            packed
                .fit_features(&Features::Packed(&train), &labels)
                .unwrap();
            for clf in [&dense, &packed] {
                let predict = |rows: &[usize]| {
                    let q = queries.select_rows(rows);
                    clf.predict_features(&Features::Packed(&q)).unwrap()
                };
                assert_eq!(predict(&[0]), vec![want]);
                assert_eq!(predict(&[1]), vec![want]);
                assert_eq!(predict(&[0, 1]), vec![want, want]);
            }
        }
    }

    #[test]
    fn packed_dim_mismatch_errors() {
        let bits = random_bits(10, 64, 1);
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let mut knn = KnnClassifier::new(KnnParams::default());
        knn.fit_features(&Features::Packed(&bits), &y).unwrap();
        let wrong = random_bits(3, 128, 2);
        assert!(matches!(
            knn.predict_features(&Features::Packed(&wrong)),
            Err(MlError::ShapeMismatch { .. })
        ));
    }
}
