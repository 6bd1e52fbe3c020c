//! k-nearest-neighbour classification under Hamming distance.

use crate::binary::{BinaryHypervector, Dim};
use crate::bitmatrix::BitMatrix;
use crate::classify::majority_vote;
use crate::error::HdcError;
use crate::topk::TopK;

/// Fewest queries a parallel chunk of [`HammingKnnClassifier::predict_batch`]
/// takes: each query scans every training row, so eight of them outweigh
/// the thread a chunk costs on any non-trivial training set.
const MIN_CHUNK_QUERIES: usize = 8;

/// A k-NN classifier over stored hypervectors.
///
/// The paper's pure-HDC model (§II-C) is `k = 1`: "Record the predicted
/// class as the known class of the closest hypervector." Larger `k` with
/// majority voting is provided as the natural extension. Distance ties
/// break toward the lower training index and vote ties toward the lowest
/// class index, for determinism.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HammingKnnClassifier {
    k: usize,
    train: BitMatrix,
    labels: Vec<usize>,
    n_classes: usize,
}

impl HammingKnnClassifier {
    /// Creates an unfitted classifier with `k` neighbours.
    ///
    /// Returns [`HdcError::InvalidConfig`] if `k == 0` — the same typed
    /// error form as [`crate::classify::LeaveOneOut::with_k`].
    pub fn new(k: usize) -> Result<Self, HdcError> {
        if k == 0 {
            return Err(HdcError::InvalidConfig("k must be at least 1".into()));
        }
        Ok(Self {
            k,
            train: BitMatrix::zeros(0, Dim::new(1)),
            labels: Vec::new(),
            n_classes: 0,
        })
    }

    /// Stores the training set.
    pub fn fit(
        &mut self,
        hypervectors: Vec<BinaryHypervector>,
        labels: Vec<usize>,
    ) -> Result<(), HdcError> {
        if hypervectors.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        if hypervectors.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: hypervectors.len(),
                labels: labels.len(),
            });
        }
        self.train = BitMatrix::from_hypervectors(&hypervectors)?;
        self.n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.labels = labels;
        Ok(())
    }

    /// Number of stored training examples.
    #[must_use]
    pub fn n_train(&self) -> usize {
        self.train.n_rows()
    }

    /// Predicts the class of one query hypervector.
    pub fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        let predictions = self.predict_chunk(std::slice::from_ref(query))?;
        predictions.first().copied().ok_or(HdcError::NotFitted)
    }

    /// Predicts a batch, the queries split across `rayon::map_chunks`
    /// workers. Predictions stay in query order, and the first error in
    /// query order is the one returned.
    pub fn predict_batch(&self, queries: &[BinaryHypervector]) -> Result<Vec<usize>, HdcError> {
        let _span = crate::obs::span("hdc/knn_predict_batch");
        rayon::map_chunks(queries, MIN_CHUNK_QUERIES, |_, chunk| {
            self.predict_chunk(chunk)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(|chunks| chunks.into_iter().flatten().collect())
    }

    /// Predicts each query of a non-empty chunk: one scan of the training
    /// rows against the whole chunk, then a majority vote per query.
    fn predict_chunk(&self, queries: &[BinaryHypervector]) -> Result<Vec<usize>, HdcError> {
        if self.labels.is_empty() {
            return Err(HdcError::NotFitted);
        }
        crate::obs::counter_add("hdc/knn_queries", queries.len() as u64);
        let mut tops = TopK::new(queries.len(), self.k.min(self.train.n_rows()));
        tops.scan(
            &BitMatrix::from_hypervectors(queries)?,
            &self.train,
            0..self.train.n_rows(),
            |i| i,
        )?;
        Ok((0..queries.len())
            .map(|q| {
                let labels = tops.list(q).iter().map(|&(_, i)| self.labels[i]);
                majority_vote(labels, self.n_classes)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::Dim;
    use crate::encoding::LinearEncoder;

    fn clustered_data() -> (Vec<BinaryHypervector>, Vec<usize>) {
        // Two clusters along a level-encoded axis: low values class 0,
        // high values class 1.
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 42).unwrap();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for v in [5.0, 10.0, 15.0, 20.0] {
            hvs.push(enc.encode(v));
            labels.push(0);
        }
        for v in [80.0, 85.0, 90.0, 95.0] {
            hvs.push(enc.encode(v));
            labels.push(1);
        }
        (hvs, labels)
    }

    #[test]
    fn one_nn_classifies_clusters() {
        let (hvs, labels) = clustered_data();
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 42).unwrap();
        let mut clf = HammingKnnClassifier::new(1).unwrap();
        clf.fit(hvs, labels).unwrap();
        assert_eq!(clf.predict(&enc.encode(12.0)).unwrap(), 0);
        assert_eq!(clf.predict(&enc.encode(88.0)).unwrap(), 1);
        assert_eq!(clf.n_train(), 8);
    }

    #[test]
    fn k3_majority_resists_single_outlier() {
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 7).unwrap();
        // One mislabeled point at 50 (class 1) among class-0 neighbours.
        let hvs = vec![
            enc.encode(48.0),
            enc.encode(52.0),
            enc.encode(50.0),
            enc.encode(95.0),
        ];
        let labels = vec![0, 0, 1, 1];
        let mut k1 = HammingKnnClassifier::new(1).unwrap();
        k1.fit(hvs.clone(), labels.clone()).unwrap();
        let mut k3 = HammingKnnClassifier::new(3).unwrap();
        k3.fit(hvs, labels).unwrap();
        let query = enc.encode(50.5);
        // 1-NN is fooled by the outlier; 3-NN recovers.
        assert_eq!(k1.predict(&query).unwrap(), 1);
        assert_eq!(k3.predict(&query).unwrap(), 0);
    }

    #[test]
    fn unfitted_predict_errors() {
        let clf = HammingKnnClassifier::new(1).unwrap();
        let q = BinaryHypervector::zeros(Dim::new(64));
        assert_eq!(clf.predict(&q), Err(HdcError::NotFitted));
    }

    #[test]
    fn fit_validates_inputs() {
        let mut clf = HammingKnnClassifier::new(1).unwrap();
        assert_eq!(clf.fit(vec![], vec![]), Err(HdcError::EmptyInput));
        let hv = BinaryHypervector::zeros(Dim::new(64));
        assert!(matches!(
            clf.fit(vec![hv.clone()], vec![0, 1]),
            Err(HdcError::LabelLengthMismatch { .. })
        ));
        let other = BinaryHypervector::zeros(Dim::new(128));
        assert!(matches!(
            clf.fit(vec![hv, other], vec![0, 1]),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        assert!(matches!(
            HammingKnnClassifier::new(0),
            Err(HdcError::InvalidConfig(_))
        ));
    }

    #[test]
    fn batch_matches_sequential() {
        let (hvs, labels) = clustered_data();
        let mut clf = HammingKnnClassifier::new(1).unwrap();
        clf.fit(hvs.clone(), labels).unwrap();
        let batch = clf.predict_batch(&hvs).unwrap();
        for (q, &p) in hvs.iter().zip(&batch) {
            assert_eq!(clf.predict(q).unwrap(), p);
        }
    }

    #[test]
    fn query_dimension_mismatch_errors() {
        let (hvs, labels) = clustered_data();
        let mut clf = HammingKnnClassifier::new(1).unwrap();
        clf.fit(hvs, labels).unwrap();
        let bad = BinaryHypervector::zeros(Dim::new(64));
        assert!(matches!(
            clf.predict(&bad),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }
}
