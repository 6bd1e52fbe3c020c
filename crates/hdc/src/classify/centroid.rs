//! Nearest-centroid ("associative memory") classification with optional
//! perceptron-style retraining.

use crate::binary::{BinaryHypervector, Dim};
use crate::classify::trainer::accumulator::quantize_into;
use crate::error::HdcError;

/// Fewest queries a parallel chunk of [`CentroidClassifier::predict_batch`]
/// takes: a query costs one distance per class, well under a microsecond,
/// so a chunk needs hundreds of them to outweigh its thread.
const MIN_CHUNK_QUERIES: usize = 256;

/// A bundled-prototype classifier.
///
/// Each class keeps an integer superposition of its training hypervectors
/// (bit set → +1, bit clear → −1). The class prototype is the sign of that
/// superposition; queries go to the prototype at minimum Hamming distance.
///
/// [`CentroidClassifier::retrain`] runs the standard HDC refinement loop
/// (Imani et al., Kleyko et al.): each misclassified example is *added* to
/// its true class superposition and *subtracted* from the wrongly predicted
/// one, then prototypes are re-quantised. On small tabular datasets a few
/// epochs typically recover several points of accuracy over single-pass
/// bundling.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CentroidClassifier {
    dim: Option<Dim>,
    /// Per-class integer superpositions, each of length `d`.
    sums: Vec<Vec<i32>>,
    /// Quantised prototypes (regenerated after every update pass).
    prototypes: Vec<BinaryHypervector>,
    /// Per-class training counts.
    counts: Vec<u32>,
}

impl CentroidClassifier {
    /// Creates an empty classifier.
    #[must_use]
    pub fn new() -> Self {
        Self {
            dim: None,
            sums: Vec::new(),
            prototypes: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Bundles the training set into per-class prototypes.
    ///
    /// All-or-nothing: every row is validated before the model changes, so
    /// a failed (re)fit leaves the previous prototypes in place.
    // lint: index-ok (sums/counts are sized to n_classes = max(labels) + 1
    // above, and hypervectors[0] is guarded by the empty check)
    pub fn fit(
        &mut self,
        hypervectors: &[BinaryHypervector],
        labels: &[usize],
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
        let dim = hypervectors[0].dim();
        if let Some(bad) = hypervectors.iter().find(|hv| hv.dim() != dim) {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: bad.dim().get(),
            });
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.dim = Some(dim);
        self.sums = vec![vec![0i32; dim.get()]; n_classes];
        self.counts = vec![0u32; n_classes];
        for (hv, &label) in hypervectors.iter().zip(labels) {
            Self::accumulate(&mut self.sums[label], hv, 1);
            self.counts[label] += 1;
        }
        self.requantize();
        Ok(())
    }

    /// Adds one example online (the clinical follow-up scenario: update the
    /// model as each new assessed patient arrives).
    // lint: index-ok (sums/counts are resized to label + 1 right above the
    // accesses when the label is new)
    pub fn update(&mut self, hv: &BinaryHypervector, label: usize) -> Result<(), HdcError> {
        let dim = self.dim.ok_or(HdcError::NotFitted)?;
        if hv.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: hv.dim().get(),
            });
        }
        if label >= self.sums.len() {
            // Grow to accommodate a new class. A zero superposition
            // quantises to all-ones (the `s >= 0` tie rule), so seeding the
            // new prototypes with `ones` keeps them consistent with what a
            // full requantise would produce.
            self.sums.resize(label + 1, vec![0i32; dim.get()]);
            self.counts.resize(label + 1, 0);
            self.prototypes
                .resize(label + 1, BinaryHypervector::ones(dim));
        }
        Self::accumulate(&mut self.sums[label], hv, 1);
        self.counts[label] += 1;
        // Only the touched class changed; rebuilding every prototype here
        // would make the online path O(classes × dim) per record.
        self.requantize_class(label);
        Ok(())
    }

    /// Runs up to `epochs` retraining passes over the training set.
    /// Returns the number of epochs actually executed (stops early once an
    /// epoch makes no mistakes).
    pub fn retrain(
        &mut self,
        hypervectors: &[BinaryHypervector],
        labels: &[usize],
        epochs: usize,
    ) -> Result<usize, HdcError> {
        if self.dim.is_none() {
            return Err(HdcError::NotFitted);
        }
        if hypervectors.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: hypervectors.len(),
                labels: labels.len(),
            });
        }
        // A retrain set may only reference classes the classifier already
        // knows: the update rule subtracts from `sums[predicted]` as well as
        // adding to `sums[label]`, so silently growing here would leave the
        // new class with a garbage (never-bundled) superposition.
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.sums.len()) {
            return Err(HdcError::UnknownLabel {
                label: bad,
                classes: self.sums.len(),
            });
        }
        // Pocket algorithm: the perceptron-style updates can oscillate on
        // non-separable or imbalanced data, so keep the best state seen and
        // restore it at the end. This guarantees retraining never reduces
        // training accuracy.
        let score = |clf: &Self| -> Result<usize, HdcError> {
            let mut correct = 0usize;
            for (hv, &label) in hypervectors.iter().zip(labels) {
                if clf.predict(hv)? == label {
                    correct += 1;
                }
            }
            Ok(correct)
        };
        let mut best_score = score(self)?;
        let mut best_state = (self.sums.clone(), self.prototypes.clone());
        let mut ran = 0usize;
        for epoch in 0..epochs {
            ran = epoch + 1;
            let mistakes = self.retrain_epoch(hypervectors, labels)?;
            let s = score(self)?;
            if s > best_score {
                best_score = s;
                best_state = (self.sums.clone(), self.prototypes.clone());
            }
            if mistakes == 0 {
                break;
            }
        }
        if best_score > score(self)? {
            self.sums = best_state.0;
            self.prototypes = best_state.1;
        }
        Ok(ran)
    }

    /// Runs exactly one raw perceptron pass over `(hypervectors, labels)`:
    /// each mistake adds the example to its true class superposition,
    /// subtracts it from the predicted one, and requantises the two touched
    /// prototypes immediately (online perceptron semantics). Returns the
    /// number of mistakes. Unlike [`CentroidClassifier::retrain`] there is
    /// no pocket/best-state restore — the pass is applied unconditionally.
    // lint: index-ok (every label is validated < sums.len() up front, and
    // `predicted` comes from predict, which ranges over the same classes)
    pub fn retrain_epoch(
        &mut self,
        hypervectors: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<usize, HdcError> {
        if self.dim.is_none() {
            return Err(HdcError::NotFitted);
        }
        if hypervectors.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: hypervectors.len(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.sums.len()) {
            return Err(HdcError::UnknownLabel {
                label: bad,
                classes: self.sums.len(),
            });
        }
        let mut mistakes = 0usize;
        for (hv, &label) in hypervectors.iter().zip(labels) {
            let predicted = self.predict(hv)?;
            if predicted != label {
                Self::accumulate(&mut self.sums[label], hv, 1);
                Self::accumulate(&mut self.sums[predicted], hv, -1);
                mistakes += 1;
                // Classes quantise independently, so only the two touched
                // superpositions need their prototypes rebuilt.
                self.requantize_class(label);
                self.requantize_class(predicted);
            }
        }
        Ok(mistakes)
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.sums.len()
    }

    /// The quantised prototype for `class`, if fitted.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        self.prototypes.get(class)
    }

    /// Predicts the class of a query hypervector.
    pub fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        let mut best = (usize::MAX, 0usize);
        for (c, proto) in self.prototypes.iter().enumerate() {
            let d = query.try_hamming(proto)?;
            if d < best.0 {
                best = (d, c);
            }
        }
        Ok(best.1)
    }

    /// Normalized Hamming distances from `query` to every class prototype.
    pub fn distances(&self, query: &BinaryHypervector) -> Result<Vec<f64>, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        self.prototypes
            .iter()
            // lint: cast-ok (hamming and len are <= d, far below f64's 2^53)
            .map(|p| Ok(query.try_hamming(p)? as f64 / p.len() as f64))
            .collect()
    }

    /// Predicts a batch, the queries split across `rayon::map_chunks`
    /// workers. Predictions stay in query order, and the first error in
    /// query order is the one returned.
    pub fn predict_batch(&self, queries: &[BinaryHypervector]) -> Result<Vec<usize>, HdcError> {
        rayon::map_chunks(queries, MIN_CHUNK_QUERIES, |_, chunk| {
            chunk
                .iter()
                .map(|q| self.predict(q))
                .collect::<Result<Vec<_>, _>>()
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(|chunks| chunks.into_iter().flatten().collect())
    }

    #[inline]
    fn accumulate(sums: &mut [i32], hv: &BinaryHypervector, sign: i32) {
        for (i, s) in sums.iter_mut().enumerate() {
            let bit = if hv.get(i) { 1 } else { -1 };
            *s += sign * bit;
        }
    }

    fn requantize(&mut self) {
        let Some(dim) = self.dim else { return };
        self.prototypes = self
            .sums
            .iter()
            .map(|sums| {
                let mut proto = BinaryHypervector::zeros(dim);
                // `s ≥ 0` is the accumulator rule `2·s ≥ total` with a
                // total of 0; ties (sum == 0) quantise to 1, mirroring the
                // majority bundler's tie rule.
                quantize_into(sums, 0, &mut proto);
                proto
            })
            .collect();
    }

    /// Rebuilds the quantised prototype of a single class in place, leaving
    /// every other prototype untouched (classes quantise independently).
    fn requantize_class(&mut self, class: usize) {
        if let (Some(sums), Some(proto)) = (self.sums.get(class), self.prototypes.get_mut(class)) {
            quantize_into(sums, 0, proto);
        }
    }
}

impl Default for CentroidClassifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::LinearEncoder;

    fn training_set() -> (Vec<BinaryHypervector>, Vec<usize>, LinearEncoder) {
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 11).unwrap();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for v in [0.0, 5.0, 10.0, 15.0, 20.0] {
            hvs.push(enc.encode(v));
            labels.push(0);
        }
        for v in [80.0, 85.0, 90.0, 95.0, 100.0] {
            hvs.push(enc.encode(v));
            labels.push(1);
        }
        (hvs, labels, enc)
    }

    #[test]
    fn fit_and_predict_separable_clusters() {
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        assert_eq!(clf.n_classes(), 2);
        assert_eq!(clf.predict(&enc.encode(7.0)).unwrap(), 0);
        assert_eq!(clf.predict(&enc.encode(93.0)).unwrap(), 1);
    }

    #[test]
    fn prototype_is_majority_of_members() {
        let (hvs, labels, _) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let class0: Vec<_> = hvs[..5].to_vec();
        let expected = crate::bundle::try_majority(&class0).unwrap();
        assert_eq!(clf.prototype(0).unwrap(), &expected);
    }

    #[test]
    fn distances_are_normalized_and_ordered() {
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let d = clf.distances(&enc.encode(5.0)).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(d[0] < d[1]);
    }

    #[test]
    fn retrain_fixes_boundary_errors() {
        // Class 1 spans a wide range whose centroid sits far from its
        // boundary member at 50, so single-pass bundling misclassifies it;
        // retraining pulls the prototypes until the boundary case flips.
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 23).unwrap();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for v in [0.0, 5.0, 10.0, 45.0] {
            hvs.push(enc.encode(v));
            labels.push(0);
        }
        for v in [50.0, 90.0, 95.0, 100.0] {
            hvs.push(enc.encode(v));
            labels.push(1);
        }
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let score = |clf: &CentroidClassifier| -> usize {
            hvs.iter()
                .zip(&labels)
                .filter(|(hv, &l)| clf.predict(hv).unwrap() == l)
                .count()
        };
        let before = score(&clf);
        assert!(
            before < hvs.len(),
            "premise: single-pass bundling makes a mistake"
        );
        let epochs = clf.retrain(&hvs, &labels, 50).unwrap();
        let after = score(&clf);
        assert_eq!(after, hvs.len(), "retraining should fix the boundary case");
        assert!(epochs <= 50);
    }

    #[test]
    fn retrain_never_reduces_training_accuracy() {
        // A genuinely ambiguous configuration where perceptron updates
        // oscillate; the pocket mechanism must keep the best state.
        let enc = LinearEncoder::new(Dim::new(4_096), 0.0, 100.0, 23).unwrap();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for v in [0.0, 10.0, 20.0, 30.0, 40.0, 45.0] {
            hvs.push(enc.encode(v));
            labels.push(0);
        }
        for v in [55.0, 60.0] {
            hvs.push(enc.encode(v));
            labels.push(1);
        }
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let score = |clf: &CentroidClassifier| -> usize {
            hvs.iter()
                .zip(&labels)
                .filter(|(hv, &l)| clf.predict(hv).unwrap() == l)
                .count()
        };
        let before = score(&clf);
        clf.retrain(&hvs, &labels, 30).unwrap();
        assert!(score(&clf) >= before);
    }

    #[test]
    fn retrain_with_unseen_label_returns_typed_error() {
        // Regression: this used to index `self.sums[label]` out of bounds
        // and panic when the retrain set contained a class absent at fit.
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let stranger = enc.encode(50.0);
        let err = clf
            .retrain(std::slice::from_ref(&stranger), &[7], 3)
            .unwrap_err();
        assert_eq!(
            err,
            HdcError::UnknownLabel {
                label: 7,
                classes: 2
            }
        );
        // Same validation on the raw single-epoch path.
        let err = clf
            .retrain_epoch(std::slice::from_ref(&stranger), &[2])
            .unwrap_err();
        assert!(matches!(err, HdcError::UnknownLabel { label: 2, .. }));
    }

    #[test]
    fn update_does_not_rebuild_untouched_prototypes() {
        // Regression: `update` used to requantise every class. The untouched
        // prototype's heap buffer must survive an update to another class —
        // a rebuilt prototype would allocate fresh words.
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let class0_words = clf.prototype(0).unwrap().words().as_ptr();
        clf.update(&enc.encode(90.0), 1).unwrap();
        assert_eq!(
            clf.prototype(0).unwrap().words().as_ptr(),
            class0_words,
            "updating class 1 must not rebuild class 0's prototype"
        );
        // And the touched class still matches a from-scratch requantise.
        let mut sums_clf = CentroidClassifier::new();
        let mut hvs2 = hvs.clone();
        let mut labels2 = labels.clone();
        hvs2.push(enc.encode(90.0));
        labels2.push(1);
        sums_clf.fit(&hvs2, &labels2).unwrap();
        assert_eq!(clf.prototype(1), sums_clf.prototype(1));
    }

    #[test]
    fn update_growth_matches_full_requantize() {
        // Growing a new class online must leave prototypes identical to a
        // classifier that requantises everything from the same sums.
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        clf.update(&enc.encode(50.0), 3).unwrap();
        assert_eq!(clf.n_classes(), 4);
        // Class 2 was created implicitly with a zero superposition: it must
        // quantise to all-ones exactly as a full requantise would.
        assert_eq!(
            clf.prototype(2).unwrap(),
            &BinaryHypervector::ones(hvs[0].dim())
        );
    }

    #[test]
    fn online_update_adds_new_class() {
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        // Introduce a third class online.
        let mid = enc.encode(50.0);
        clf.update(&mid, 2).unwrap();
        assert_eq!(clf.n_classes(), 3);
        assert_eq!(clf.predict(&enc.encode(50.0)).unwrap(), 2);
    }

    #[test]
    fn unfitted_operations_error() {
        let clf = CentroidClassifier::new();
        let q = BinaryHypervector::zeros(Dim::new(64));
        assert_eq!(clf.predict(&q), Err(HdcError::NotFitted));
        assert!(clf.distances(&q).is_err());
        let mut clf = CentroidClassifier::default();
        assert_eq!(clf.update(&q, 0), Err(HdcError::NotFitted));
        assert_eq!(clf.retrain(&[], &[], 1), Err(HdcError::NotFitted));
    }

    #[test]
    fn fit_validates_inputs() {
        let mut clf = CentroidClassifier::new();
        assert_eq!(clf.fit(&[], &[]), Err(HdcError::EmptyInput));
        let a = BinaryHypervector::zeros(Dim::new(64));
        assert!(matches!(
            clf.fit(std::slice::from_ref(&a), &[0, 1]),
            Err(HdcError::LabelLengthMismatch { .. })
        ));
        let b = BinaryHypervector::zeros(Dim::new(128));
        assert!(matches!(
            clf.fit(&[a, b], &[0, 1]),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn failed_refit_leaves_the_model_untouched() {
        let (hvs, labels, enc) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let untouched = clf.clone();
        // A 4-class set whose last row has the wrong width.
        let mut bad_hvs = hvs.clone();
        bad_hvs.push(enc.encode(40.0));
        bad_hvs.push(BinaryHypervector::zeros(Dim::new(64)));
        let mut bad_labels = labels.clone();
        bad_labels.extend([2, 3]);
        assert!(matches!(
            clf.fit(&bad_hvs, &bad_labels),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert_eq!(clf.n_classes(), untouched.n_classes());
        for class in 0..untouched.n_classes() {
            assert_eq!(clf.prototype(class), untouched.prototype(class));
        }
        let mut reference = untouched;
        let probe = enc.encode(60.0);
        clf.update(&probe, 1).unwrap();
        reference.update(&probe, 1).unwrap();
        for class in 0..reference.n_classes() {
            assert_eq!(clf.prototype(class), reference.prototype(class));
        }
        assert_eq!(clf.predict(&probe), reference.predict(&probe));
    }

    #[test]
    fn batch_matches_sequential() {
        let (hvs, labels, _) = training_set();
        let mut clf = CentroidClassifier::new();
        clf.fit(&hvs, &labels).unwrap();
        let batch = clf.predict_batch(&hvs).unwrap();
        for (hv, &p) in hvs.iter().zip(&batch) {
            assert_eq!(clf.predict(hv).unwrap(), p);
        }
    }
}
