//! Online HDC trainers: mistake-driven prototype refinement with
//! `partial_fit` streaming semantics.
//!
//! The paper stops at 1-NN Hamming lookup; the standard remedy for its
//! accuracy floor is *retraining* the class prototypes (Imani et al.,
//! Hernández-Cano et al.). This module packages three classic update rules
//! over the shared integer class accumulators of
//! [`accumulator::ClassAccumulators`]:
//!
//! * [`PerceptronTrainer`] — on a mistake, add the example to its true
//!   class superposition and subtract it from the predicted one: the
//!   classic HDC retraining rule (per-bit oracle:
//!   [`crate::reference::centroid_retrain_epoch`]) as a streaming API.
//! * [`PassiveAggressiveTrainer`] — margin-scaled integer updates on the
//!   normalized-Hamming score gap: small corrections near the boundary,
//!   large ones for confident mistakes, none once the margin is met.
//! * [`LvqTrainer`] — LVQ1 prototype dynamics: the winning prototype is
//!   pulled toward correctly classified examples and pushed away from
//!   misclassified ones (which also pull the true class).
//!
//! All three share the [`OnlineTrainer`] trait: `update` ingests one
//! `(hypervector, label)` record in O(popcount) time, `partial_fit` streams
//! a batch through `update` (instrumented with the
//! `hdc/trainer_partial_fit` failpoint for chaos testing), and
//! [`fit_pocketed`] wraps multi-epoch training with a pocket (best-state)
//! guarantee: the returned model never scores worse on the training set
//! than the best epoch seen.
//!
//! Labels grow on demand: an `update` with a previously unseen label
//! allocates the class on the spot and seeds its superposition with that
//! example, which is what the add-a-patient-online scenario needs.

pub mod accumulator;
mod lvq;
mod passive_aggressive;
mod perceptron;

pub use lvq::LvqTrainer;
pub use passive_aggressive::PassiveAggressiveTrainer;
pub use perceptron::PerceptronTrainer;

pub use accumulator::ClassAccumulators;

use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;
use crate::failpoint;

/// A streaming prototype trainer over packed binary hypervectors.
///
/// Implementations keep integer class accumulators and quantised
/// prototypes; `update` applies one record's correction and requantises
/// only the touched classes, so single-record latency is microseconds even
/// at the paper's d = 10 000.
pub trait OnlineTrainer {
    /// Short human-readable rule name (e.g. `"perceptron"`).
    fn name(&self) -> &'static str;

    /// The hypervector dimensionality this trainer was constructed for.
    fn dim(&self) -> Dim;

    /// Number of classes currently allocated.
    fn n_classes(&self) -> usize;

    /// The quantised prototype for `class`, if allocated.
    fn prototype(&self, class: usize) -> Option<&BinaryHypervector>;

    /// Discards all learned state, keeping the configuration.
    fn reset(&mut self);

    /// Unconditionally bundles one example into its class superposition
    /// (the single-pass "class bundling" initialisation), growing the class
    /// set if needed. No mistake check is applied.
    fn absorb(&mut self, hv: &BinaryHypervector, label: usize) -> Result<(), HdcError>;

    /// Applies one record's online correction. A previously unseen `label`
    /// grows the class set and seeds the new class with the example.
    /// Returns `true` when the model received a *corrective* update (a
    /// mistake-driven correction or a new-class seed).
    fn update(&mut self, hv: &BinaryHypervector, label: usize) -> Result<bool, HdcError>;

    /// Nearest-prototype prediction (ties break to the lowest class index).
    fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError>;

    /// Normalized Hamming distances from `query` to every class prototype.
    fn distances(&self, query: &BinaryHypervector) -> Result<Vec<f64>, HdcError>;

    /// Streams one pass of `(hypervectors, labels)` through [`update`],
    /// returning the number of corrective updates applied. This is the raw
    /// online pass — no pocket restore; use [`fit_pocketed`] for guarded
    /// multi-epoch training.
    ///
    /// [`update`]: OnlineTrainer::update
    fn partial_fit(
        &mut self,
        hypervectors: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<usize, HdcError> {
        failpoint::check("hdc/trainer_partial_fit")?;
        if hypervectors.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: hypervectors.len(),
                labels: labels.len(),
            });
        }
        let mut corrections = 0usize;
        for (hv, &label) in hypervectors.iter().zip(labels) {
            if self.update(hv, label)? {
                corrections += 1;
            }
        }
        Ok(corrections)
    }

    /// Predicts a batch sequentially. (Callers with a `Sync` concrete type
    /// can parallelise over this with rayon themselves.)
    fn predict_batch(&self, queries: &[BinaryHypervector]) -> Result<Vec<usize>, HdcError> {
        queries.iter().map(|q| self.predict(q)).collect()
    }
}

/// Multi-epoch training with pocket (best-state) semantics.
///
/// Resets the trainer, bundles the whole set once (class-bundling
/// initialisation), then runs up to `epochs` raw [`OnlineTrainer::partial_fit`]
/// passes, keeping the best-scoring state seen and restoring it at the end.
/// Stops early once a pass applies no corrective updates. Returns the
/// number of epochs actually executed.
pub fn fit_pocketed<T: OnlineTrainer + Clone>(
    trainer: &mut T,
    hypervectors: &[BinaryHypervector],
    labels: &[usize],
    epochs: usize,
) -> Result<usize, HdcError> {
    if hypervectors.is_empty() {
        return Err(HdcError::EmptyInput);
    }
    if hypervectors.len() != labels.len() {
        return Err(HdcError::LabelLengthMismatch {
            samples: hypervectors.len(),
            labels: labels.len(),
        });
    }
    trainer.reset();
    for (hv, &label) in hypervectors.iter().zip(labels) {
        trainer.absorb(hv, label)?;
    }
    let score = |t: &T| -> Result<usize, HdcError> {
        let mut correct = 0usize;
        for (hv, &label) in hypervectors.iter().zip(labels) {
            if t.predict(hv)? == label {
                correct += 1;
            }
        }
        Ok(correct)
    };
    let mut best_score = score(trainer)?;
    let mut best_state = trainer.clone();
    let mut ran = 0usize;
    for epoch in 0..epochs {
        ran = epoch + 1;
        let corrections = trainer.partial_fit(hypervectors, labels)?;
        let s = score(trainer)?;
        if s > best_score {
            best_score = s;
            best_state = trainer.clone();
        }
        if corrections == 0 {
            break;
        }
    }
    if best_score > score(trainer)? {
        *trainer = best_state;
    }
    Ok(ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::LinearEncoder;
    use crate::rng::SplitMix64;

    fn training_set(seed: u64) -> (Vec<BinaryHypervector>, Vec<usize>, LinearEncoder) {
        let enc = LinearEncoder::new(Dim::new(2_048), 0.0, 100.0, seed).unwrap();
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
        (hvs, labels, enc)
    }

    fn trainers(dim: Dim) -> Vec<Box<dyn OnlineTrainer>> {
        vec![
            Box::new(PerceptronTrainer::new(dim)),
            Box::new(PassiveAggressiveTrainer::new(dim)),
            Box::new(LvqTrainer::new(dim)),
        ]
    }

    #[test]
    fn every_trainer_learns_the_separable_set() {
        let (hvs, labels, enc) = training_set(11);
        fn check<T: OnlineTrainer + Clone>(
            mut t: T,
            hvs: &[BinaryHypervector],
            labels: &[usize],
            enc: &LinearEncoder,
        ) {
            fit_pocketed(&mut t, hvs, labels, 20).unwrap();
            assert_eq!(
                t.predict(&enc.encode(3.0)).unwrap(),
                0,
                "{} failed low query",
                t.name()
            );
            assert_eq!(
                t.predict(&enc.encode(97.0)).unwrap(),
                1,
                "{} failed high query",
                t.name()
            );
        }
        check(PerceptronTrainer::new(Dim::new(2_048)), &hvs, &labels, &enc);
        check(
            PassiveAggressiveTrainer::new(Dim::new(2_048)),
            &hvs,
            &labels,
            &enc,
        );
        check(LvqTrainer::new(Dim::new(2_048)), &hvs, &labels, &enc);
    }

    #[test]
    fn perceptron_learns_from_a_cold_stream() {
        // Raw streaming (no bundling init, no pocket): the perceptron's
        // mistake-driven pass must still converge on a separable set.
        let (hvs, labels, enc) = training_set(11);
        let mut t = PerceptronTrainer::new(Dim::new(2_048));
        for _ in 0..20 {
            if t.partial_fit(&hvs, &labels).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(t.predict(&enc.encode(3.0)).unwrap(), 0);
        assert_eq!(t.predict(&enc.encode(97.0)).unwrap(), 1);
    }

    #[test]
    fn labels_grow_on_demand() {
        let dim = Dim::new(256);
        let hv = BinaryHypervector::random(dim, &mut SplitMix64::new(7));
        for mut t in trainers(dim) {
            assert_eq!(t.n_classes(), 0, "{}", t.name());
            t.update(&hv, 4).unwrap();
            assert_eq!(t.n_classes(), 5, "{}", t.name());
            assert!(t.prototype(4).is_some());
        }
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let wrong = BinaryHypervector::zeros(Dim::new(128));
        for mut t in trainers(Dim::new(2_048)) {
            assert!(
                matches!(
                    t.update(&wrong, 0),
                    Err(HdcError::DimensionMismatch {
                        left: 2_048,
                        right: 128
                    })
                ),
                "{}",
                t.name()
            );
            // The failed update must not have allocated the class.
            assert_eq!(t.n_classes(), 0, "{}", t.name());
            assert!(matches!(
                t.absorb(&wrong, 0),
                Err(HdcError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn partial_fit_validates_lengths_and_unfitted_predict_errors() {
        let dim = Dim::new(256);
        let hv = BinaryHypervector::random(dim, &mut SplitMix64::new(3));
        for mut t in trainers(dim) {
            assert!(matches!(
                t.partial_fit(std::slice::from_ref(&hv), &[0, 1]),
                Err(HdcError::LabelLengthMismatch {
                    samples: 1,
                    labels: 2
                })
            ));
            assert_eq!(t.predict(&hv), Err(HdcError::NotFitted));
        }
    }

    #[test]
    fn fit_pocketed_never_reduces_training_accuracy() {
        // Ambiguous, imbalanced set where raw updates can oscillate.
        let enc = LinearEncoder::new(Dim::new(2_048), 0.0, 100.0, 23).unwrap();
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
        // After pocketed fit, accuracy is at least the single-pass
        // bundling accuracy of a fresh absorb-only model.
        fn check<T: OnlineTrainer + Clone>(mut t: T, hvs: &[BinaryHypervector], labels: &[usize]) {
            fit_pocketed(&mut t, hvs, labels, 25).unwrap();
            let fitted = count_correct(&t, hvs, labels);
            t.reset();
            for (hv, &label) in hvs.iter().zip(labels) {
                t.absorb(hv, label).unwrap();
            }
            let bundled = count_correct(&t, hvs, labels);
            assert!(fitted >= bundled, "{}: {fitted} < {bundled}", t.name());
        }
        check(PerceptronTrainer::new(Dim::new(2_048)), &hvs, &labels);
        check(
            PassiveAggressiveTrainer::new(Dim::new(2_048)),
            &hvs,
            &labels,
        );
        check(LvqTrainer::new(Dim::new(2_048)), &hvs, &labels);
    }

    fn count_correct(
        t: &(impl OnlineTrainer + ?Sized),
        hvs: &[BinaryHypervector],
        labels: &[usize],
    ) -> usize {
        hvs.iter()
            .zip(labels)
            .filter(|(hv, &l)| t.predict(hv).unwrap() == l)
            .count()
    }

    #[test]
    fn fit_pocketed_validates_inputs() {
        let mut t = PerceptronTrainer::new(Dim::new(64));
        assert_eq!(fit_pocketed(&mut t, &[], &[], 5), Err(HdcError::EmptyInput));
        let hv = BinaryHypervector::zeros(Dim::new(64));
        assert!(matches!(
            fit_pocketed(&mut t, std::slice::from_ref(&hv), &[0, 1], 5),
            Err(HdcError::LabelLengthMismatch { .. })
        ));
    }

    #[test]
    fn predict_batch_matches_sequential() {
        let (hvs, labels, _) = training_set(5);
        let mut t = LvqTrainer::new(Dim::new(2_048));
        fit_pocketed(&mut t, &hvs, &labels, 5).unwrap();
        let batch = t.predict_batch(&hvs).unwrap();
        for (hv, &p) in hvs.iter().zip(&batch) {
            assert_eq!(t.predict(hv).unwrap(), p);
        }
    }

    #[test]
    fn distances_are_normalized() {
        let (hvs, labels, enc) = training_set(9);
        let mut t = PassiveAggressiveTrainer::new(Dim::new(2_048));
        fit_pocketed(&mut t, &hvs, &labels, 5).unwrap();
        let d = t.distances(&enc.encode(10.0)).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(d[0] < d[1]);
    }
}
