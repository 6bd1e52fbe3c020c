//! Leave-one-out cross-validation for Hamming-distance classification.
//!
//! The paper validates its pure-HDC model with leave-one-out (§II-C):
//! every patient hypervector is classified by the nearest *other* patient
//! hypervector, and the confusion counts are accumulated over all patients.
//! "Once the hypervectors are constructed there's no model that needs to be
//! built, we only need to measure distances" — so the whole validation is
//! one O(n²·d/64) distance sweep. Distance is symmetric, so the sweep
//! visits each unordered pair once: the upper triangle is cut into square
//! tiles of consecutive rows, the tile pairs are split evenly across
//! `rayon::map_chunks` workers, and each distance is offered to both rows'
//! lists in a per-worker [`TopK`]. A worker stops reading a pair once its
//! running distance is strictly greater than the k-th distances of both
//! rows' lists in that worker's [`TopK`]: a worker's k-th distance is
//! never below the k-th distance over all workers, so such a pair enters
//! neither row's final list. The per-worker lists are merged under the
//! same `(distance, index)` order, so the result does not depend on how
//! the tile pairs were split. [`crate::reference::loocv_sweep`] is the
//! per-row formulation, kept as the oracle.

use crate::binary::BinaryHypervector;
use crate::bitmatrix::{hamming_within, tile_pair_rows, tile_pairs, MIN_TILE_PAIRS};
use crate::error::HdcError;
use crate::obs;
use crate::topk::TopK;
use serde::{Deserialize, Serialize};

/// Buckets for the normalized nearest-neighbour distance distribution.
/// Distances are a pure function of the (seeded) hypervectors, so this
/// histogram is deterministic across runs — the determinism regression
/// test relies on exactly that.
const NN_DISTANCE_BOUNDS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];

/// Leave-one-out evaluation harness.
#[derive(Debug, Clone, Copy)]
pub struct LeaveOneOut {
    k: usize,
}

impl LeaveOneOut {
    /// The paper's configuration: 1-nearest-neighbour.
    #[must_use]
    pub fn new() -> Self {
        Self { k: 1 }
    }

    /// Uses `k` nearest neighbours with majority voting instead of 1.
    ///
    /// Returns [`HdcError::InvalidConfig`] if `k == 0`.
    pub fn with_k(k: usize) -> Result<Self, HdcError> {
        if k == 0 {
            return Err(HdcError::InvalidConfig(
                "LOOCV neighbour count k must be at least 1".to_string(),
            ));
        }
        Ok(Self { k })
    }

    /// Runs leave-one-out validation and returns per-row predictions plus
    /// aggregate outcome.
    pub fn run(
        &self,
        hypervectors: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<LoocvOutcome, HdcError> {
        let _span = obs::span("hdc/loocv_run");
        crate::failpoint::check("hdc/loocv_run")?;
        if hypervectors.len() < 2 {
            return Err(HdcError::EmptyInput);
        }
        if hypervectors.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: hypervectors.len(),
                labels: labels.len(),
            });
        }
        let dim = hypervectors[0].dim();
        if let Some(bad) = hypervectors.iter().find(|hv| hv.dim() != dim) {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: bad.dim().get(),
            });
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let n = hypervectors.len();
        // A row has n − 1 neighbours, so a larger k changes nothing.
        let k = self.k.min(n - 1);

        // Dims are equal: `run` validated the whole stack against `dim`
        // above, so every `hamming_within` call sees equal-length rows. A
        // pair is dropped only when it can enter neither row's list.
        let pairs = tile_pairs(n);
        let chunk_tops = rayon::map_chunks(&pairs, MIN_TILE_PAIRS, |_, chunk| {
            let mut tops = TopK::new(n, k);
            let mut abandoned = 0u64;
            for (i, j) in chunk.iter().flat_map(|(a, b)| tile_pair_rows(a, b)) {
                let bound = tops.bound(i).max(tops.bound(j));
                match hamming_within(hypervectors[i].words(), hypervectors[j].words(), bound) {
                    Some(d) => {
                        tops.offer(i, d, j);
                        tops.offer(j, d, i);
                    }
                    None => abandoned += 1,
                }
            }
            (tops, abandoned)
        });

        // Every unordered pair was seen by exactly one chunk, which offered
        // it to each list it could enter, so a row's k nearest overall are
        // the k smallest of its per-chunk lists.
        let mut best = TopK::new(n, k);
        for (tops, _) in &chunk_tops {
            best.merge(tops);
        }
        obs::counter_add("hdc/knn_pairs", (n * (n - 1) / 2) as u64);
        obs::counter_add(
            "hdc/knn_pairs_abandoned",
            chunk_tops.iter().map(|&(_, abandoned)| abandoned).sum(),
        );
        let predictions: Vec<usize> = (0..n)
            .map(|row| {
                let nearest = best.list(row);
                if let Some(&(d, _)) = nearest.first() {
                    obs::observe(
                        "hdc/loocv_nn_distance",
                        NN_DISTANCE_BOUNDS,
                        d as f64 / dim.get() as f64,
                    );
                }
                majority_vote(nearest.iter().map(|&(_, j)| labels[j]), n_classes)
            })
            .collect();

        obs::counter_add("hdc/loocv_rows", predictions.len() as u64);
        Ok(LoocvOutcome::from_predictions(
            labels,
            &predictions,
            n_classes,
        ))
    }
}

impl Default for LeaveOneOut {
    fn default() -> Self {
        Self::new()
    }
}

/// Majority vote over neighbour labels: the class with the most votes, the
/// lowest class index among equal counts. Every label must be below
/// `n_classes`.
fn majority_vote(labels: impl Iterator<Item = usize>, n_classes: usize) -> usize {
    let mut votes = vec![0u32; n_classes];
    for label in labels {
        votes[label] += 1;
    }
    votes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(c, _)| c)
}

/// The result of a leave-one-out run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoocvOutcome {
    /// Predicted class per row, aligned with the input order.
    pub predictions: Vec<usize>,
    /// Row-major confusion matrix: `confusion[actual][predicted]`.
    pub confusion: Vec<Vec<u32>>,
    /// Number of correct predictions.
    pub correct: usize,
    /// Total rows evaluated.
    pub total: usize,
}

impl LoocvOutcome {
    /// Builds an outcome from aligned actual/predicted label slices.
    #[must_use]
    pub fn from_predictions(actual: &[usize], predicted: &[usize], n_classes: usize) -> Self {
        let n_classes = n_classes
            .max(actual.iter().copied().max().map_or(0, |m| m + 1))
            .max(predicted.iter().copied().max().map_or(0, |m| m + 1));
        let mut confusion = vec![vec![0u32; n_classes]; n_classes];
        let mut correct = 0usize;
        for (&a, &p) in actual.iter().zip(predicted) {
            confusion[a][p] += 1;
            if a == p {
                correct += 1;
            }
        }
        Self {
            predictions: predicted.to_vec(),
            confusion,
            correct,
            total: actual.len(),
        }
    }

    /// Overall classification accuracy in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct as f64 / self.total as f64
    }

    /// Binary confusion counts `(tp, tn, fp, fn)` treating class 1 as
    /// positive (the paper's convention: "true positive (both classes
    /// are 1) or true negative (both classes are 0)").
    ///
    /// Returns `None` if more than two classes are present.
    #[must_use]
    pub fn binary_counts(&self) -> Option<(u32, u32, u32, u32)> {
        if self.confusion.len() > 2 {
            return None;
        }
        let get = |a: usize, p: usize| -> u32 {
            self.confusion
                .get(a)
                .and_then(|row| row.get(p))
                .copied()
                .unwrap_or(0)
        };
        Some((get(1, 1), get(0, 0), get(0, 1), get(1, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::Dim;
    use crate::encoding::LinearEncoder;

    fn two_clusters(n_per_class: usize) -> (Vec<BinaryHypervector>, Vec<usize>) {
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 91).unwrap();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            hvs.push(enc.encode(i as f64 * 2.0));
            labels.push(0);
            hvs.push(enc.encode(70.0 + i as f64 * 2.0));
            labels.push(1);
        }
        (hvs, labels)
    }

    #[test]
    fn separable_clusters_reach_perfect_loocv() {
        let (hvs, labels) = two_clusters(10);
        let outcome = LeaveOneOut::new().run(&hvs, &labels).unwrap();
        assert_eq!(outcome.accuracy(), 1.0);
        assert_eq!(outcome.total, 20);
        assert_eq!(outcome.correct, 20);
        let (tp, tn, fp, fn_) = outcome.binary_counts().unwrap();
        assert_eq!((tp, tn, fp, fn_), (10, 10, 0, 0));
    }

    #[test]
    fn predictions_align_with_rows() {
        let (hvs, labels) = two_clusters(5);
        let outcome = LeaveOneOut::new().run(&hvs, &labels).unwrap();
        assert_eq!(outcome.predictions.len(), hvs.len());
        assert_eq!(outcome.predictions, labels);
    }

    #[test]
    fn requires_at_least_two_rows() {
        let hv = BinaryHypervector::zeros(Dim::new(64));
        assert!(LeaveOneOut::new()
            .run(std::slice::from_ref(&hv), &[0])
            .is_err());
        assert!(LeaveOneOut::new().run(&[], &[]).is_err());
    }

    #[test]
    fn label_and_dim_validation() {
        let a = BinaryHypervector::zeros(Dim::new(64));
        let b = BinaryHypervector::ones(Dim::new(64));
        assert!(matches!(
            LeaveOneOut::new().run(&[a.clone(), b], &[0]),
            Err(HdcError::LabelLengthMismatch { .. })
        ));
        let c = BinaryHypervector::zeros(Dim::new(128));
        assert!(matches!(
            LeaveOneOut::new().run(&[a, c], &[0, 1]),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn k3_loocv_on_noisy_data_is_no_worse() {
        let (mut hvs, mut labels) = two_clusters(8);
        // Inject one mislabeled point deep inside cluster 0.
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 91).unwrap();
        hvs.push(enc.encode(5.0));
        labels.push(1);
        let acc1 = LeaveOneOut::new().run(&hvs, &labels).unwrap().accuracy();
        let acc3 = LeaveOneOut::with_k(3)
            .unwrap()
            .run(&hvs, &labels)
            .unwrap()
            .accuracy();
        assert!(acc3 >= acc1);
    }

    #[test]
    fn with_k_zero_is_a_typed_error() {
        assert!(matches!(
            LeaveOneOut::with_k(0),
            Err(HdcError::InvalidConfig(_))
        ));
        assert!(LeaveOneOut::with_k(1).is_ok());
    }

    #[test]
    fn confusion_matrix_sums_to_total() {
        let (hvs, labels) = two_clusters(6);
        let outcome = LeaveOneOut::new().run(&hvs, &labels).unwrap();
        let sum: u32 = outcome.confusion.iter().flatten().sum();
        assert_eq!(sum as usize, outcome.total);
    }

    #[test]
    fn multiclass_binary_counts_is_none() {
        let outcome = LoocvOutcome::from_predictions(&[0, 1, 2], &[0, 1, 2], 3);
        assert!(outcome.binary_counts().is_none());
        assert_eq!(outcome.accuracy(), 1.0);
    }

    #[test]
    fn empty_outcome_accuracy_is_zero() {
        let outcome = LoocvOutcome::from_predictions(&[], &[], 2);
        assert_eq!(outcome.accuracy(), 0.0);
    }
}
