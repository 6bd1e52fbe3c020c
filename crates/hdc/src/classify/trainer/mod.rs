//! Online HDC trainers: mistake-driven prototype refinement with
//! `partial_fit` streaming semantics.
//!
//! The paper stops at 1-NN Hamming lookup; the standard remedy for its
//! accuracy floor is *retraining* the class prototypes (Imani et al.,
//! Hernández-Cano et al.). This module packages three classic update rules
//! over the shared integer class accumulators of
//! [`accumulator::ClassAccumulators`], as one [`OnlineTrainer`] whose
//! [`UpdateRule`] picks the correction:
//!
//! * [`UpdateRule::Perceptron`] — on a mistake, add the example to its true
//!   class superposition and subtract it from the predicted one: the
//!   classic HDC retraining rule (per-bit oracle:
//!   [`crate::reference::centroid_retrain_epoch`]) as a streaming API.
//! * [`UpdateRule::PassiveAggressive`] — margin-scaled integer updates on
//!   the normalized-Hamming score gap: small corrections near the boundary,
//!   large ones for confident mistakes, none once the margin is met.
//! * [`UpdateRule::Lvq`] — LVQ1 prototype dynamics: the winning prototype
//!   is pulled toward correctly classified examples and pushed away from
//!   misclassified ones (which also pull the true class).
//!
//! [`OnlineTrainer::update`] ingests one `(hypervector, label)` record in
//! O(popcount) time, [`OnlineTrainer::partial_fit`] streams a batch through
//! `update` (instrumented with the `hdc/trainer_partial_fit` failpoint for
//! chaos testing), and [`fit_pocketed`] wraps multi-epoch training with a
//! pocket (best-state) guarantee: the returned model never scores worse on
//! the training set than the best epoch seen.
//!
//! Labels grow on demand: an `update` with a previously unseen label
//! allocates the class on the spot and seeds its superposition with that
//! example, which is what the add-a-patient-online scenario needs.

pub mod accumulator;

pub use accumulator::{ClassAccumulators, MAX_CLASSES};

use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;
use crate::failpoint;

/// Passive-aggressive: required score margin between the true class and
/// the best rival.
const MARGIN: f64 = 0.1;
/// Passive-aggressive: scale from hinge loss to integer update weight.
const AGGRESSIVENESS: f64 = 4.0;
/// Passive-aggressive: clamp on a single update's integer weight.
const MAX_WEIGHT: i32 = 4;

/// The correction an [`OnlineTrainer`] applies to a record of a class it
/// has already seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum UpdateRule {
    /// The classic HDC retraining rule. On a mistake, the example is added
    /// (weight +1) to its true class superposition and subtracted (weight
    /// −1) from the wrongly predicted one; correct predictions leave the
    /// model untouched. A full [`OnlineTrainer::partial_fit`] pass over a
    /// training set is bit-identical to one
    /// [`crate::reference::centroid_retrain_epoch`] on equivalent state —
    /// the property test in `crates/hdc/tests` pins this equivalence.
    Perceptron,
    /// Passive-aggressive updates on the normalized-Hamming score gap.
    ///
    /// Scores are `s_c = 1 − 2·hamming_c/d ∈ [−1, 1]`. With true class `t`
    /// and best rival `r`, the hinge loss is `ℓ = max(0, MARGIN − (s_t −
    /// s_r))`. When `ℓ = 0` the trainer is *passive* (no update); otherwise
    /// it is *aggressive*: the example is added to class `t` and subtracted
    /// from class `r` with integer weight `⌈ℓ · AGGRESSIVENESS⌉`, clamped to
    /// `MAX_WEIGHT` (the three constants are 0.1, 4.0 and 4). Confident
    /// mistakes (large negative gap) therefore get large corrections,
    /// boundary cases small ones, and — unlike the perceptron —
    /// correct-but-narrow wins still tighten the margin. With a single
    /// class there is no rival, and no update.
    PassiveAggressive,
    /// Learning vector quantisation. Every record moves the *winning*
    /// prototype (LVQ1 dynamics): a correct win pulls the winner toward the
    /// example (weight +1); a wrong win pushes the winner away (weight −1)
    /// and additionally pulls the true class toward the example (weight
    /// +1). Compared to the perceptron, correct predictions keep
    /// reinforcing their prototype, which densifies the class
    /// superpositions over a stream instead of freezing them once
    /// separable. [`OnlineTrainer::update`] still returns `true` only for
    /// the corrective (mistake) case, so `partial_fit`'s return value
    /// counts mistakes and multi-epoch training can stop once a pass is
    /// clean.
    Lvq,
}

impl UpdateRule {
    /// All three rules, in reporting order.
    pub const ALL: [Self; 3] = [Self::Perceptron, Self::PassiveAggressive, Self::Lvq];

    /// Display label used by experiment reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Perceptron => "HDC Perceptron",
            Self::PassiveAggressive => "HDC Passive-Aggressive",
            Self::Lvq => "HDC LVQ",
        }
    }
}

/// A streaming prototype trainer over packed binary hypervectors.
///
/// Keeps integer class accumulators and quantised prototypes; `update`
/// applies one record's correction under its [`UpdateRule`] and
/// requantises only the touched classes, so single-record latency is
/// microseconds even at the paper's d = 10 000.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineTrainer {
    rule: UpdateRule,
    acc: ClassAccumulators,
}

impl OnlineTrainer {
    /// Creates an empty trainer for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(rule: UpdateRule, dim: Dim) -> Self {
        Self {
            rule,
            acc: ClassAccumulators::new(dim),
        }
    }

    /// Number of classes currently allocated.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.acc.n_classes()
    }

    /// The quantised prototype for `class`, if allocated.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        self.acc.prototype(class)
    }

    /// Unconditionally bundles one example into its class superposition
    /// (the single-pass "class bundling" initialisation), growing the class
    /// set if needed. No mistake check is applied.
    pub fn absorb(&mut self, hv: &BinaryHypervector, label: usize) -> Result<(), HdcError> {
        self.acc.check_dim(hv)?;
        self.acc.grow(label)?;
        self.acc.add(label, hv, 1);
        Ok(())
    }

    /// Applies one record's online correction. A previously unseen `label`
    /// grows the class set and seeds the new class with the example.
    /// Returns `true` when the model received a *corrective* update (a
    /// mistake-driven correction or a new-class seed).
    pub fn update(&mut self, hv: &BinaryHypervector, label: usize) -> Result<bool, HdcError> {
        let acc = &mut self.acc;
        acc.check_dim(hv)?;
        if label >= acc.n_classes() {
            // First sighting of this class: seed its superposition with the
            // example instead of leaving it at the uninformative zero state.
            acc.grow(label)?;
            acc.add(label, hv, 1);
            return Ok(true);
        }
        match self.rule {
            UpdateRule::Perceptron => {
                let predicted = acc.predict(hv)?;
                if predicted == label {
                    return Ok(false);
                }
                acc.add(label, hv, 1);
                acc.add(predicted, hv, -1);
                Ok(true)
            }
            UpdateRule::PassiveAggressive => {
                if acc.n_classes() < 2 {
                    // With a single class there is no rival to define a gap.
                    return Ok(false);
                }
                let hammings = acc.hammings(hv)?;
                // lint: cast-ok (dim and hammings are <= d < 2^53; the update
                // weight is clamped into [1, MAX_WEIGHT] before the i32 cast)
                let d = acc.dim().get() as f64;
                let score = |h: usize| 1.0 - 2.0 * (h as f64) / d;
                // Best rival: minimum Hamming among classes != label, ties to
                // the lowest index (consistent with predict's tie rule).
                let rival = hammings
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| c != label)
                    .min_by(|a, b| a.1.cmp(b.1))
                    .map(|(c, _)| c)
                    .ok_or(HdcError::NotFitted)?;
                let gap = score(hammings[label]) - score(hammings[rival]);
                let loss = (MARGIN - gap).max(0.0);
                if loss <= 0.0 {
                    return Ok(false);
                }
                let weight = (loss * AGGRESSIVENESS)
                    .ceil()
                    .clamp(1.0, f64::from(MAX_WEIGHT)) as i32;
                acc.add(label, hv, weight);
                acc.add(rival, hv, -weight);
                Ok(true)
            }
            UpdateRule::Lvq => {
                let winner = acc.predict(hv)?;
                if winner == label {
                    // Correct win: pull the winner toward the example.
                    acc.add(winner, hv, 1);
                    Ok(false)
                } else {
                    // Wrong win: push the winner away, pull the true class in.
                    acc.add(winner, hv, -1);
                    acc.add(label, hv, 1);
                    Ok(true)
                }
            }
        }
    }

    /// Nearest-prototype prediction (ties break to the lowest class index).
    pub fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        self.acc.predict(query)
    }

    /// Streams one pass of `(hypervectors, labels)` through
    /// [`OnlineTrainer::update`], returning the number of corrective updates
    /// applied. This is the raw online pass — no pocket restore; use
    /// [`fit_pocketed`] for guarded multi-epoch training.
    pub fn partial_fit(
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

    /// Predicts a batch sequentially.
    pub fn predict_batch(&self, queries: &[BinaryHypervector]) -> Result<Vec<usize>, HdcError> {
        queries.iter().map(|q| self.predict(q)).collect()
    }
}

/// Multi-epoch training with pocket (best-state) semantics.
///
/// Resets the trainer, bundles the whole set once (class-bundling
/// initialisation), then runs up to `epochs` raw
/// [`OnlineTrainer::partial_fit`] passes, keeping the best-scoring state
/// seen and restoring it at the end. Stops early once a pass applies no
/// corrective updates. Returns the number of epochs actually executed.
pub fn fit_pocketed(
    trainer: &mut OnlineTrainer,
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
    trainer.acc.reset();
    for (hv, &label) in hypervectors.iter().zip(labels) {
        trainer.absorb(hv, label)?;
    }
    let score = |t: &OnlineTrainer| -> Result<usize, HdcError> {
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

    #[test]
    fn every_trainer_learns_the_separable_set() {
        let (hvs, labels, enc) = training_set(11);
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, Dim::new(2_048));
            fit_pocketed(&mut t, &hvs, &labels, 20).unwrap();
            assert_eq!(
                t.predict(&enc.encode(3.0)).unwrap(),
                0,
                "{rule:?} failed low query"
            );
            assert_eq!(
                t.predict(&enc.encode(97.0)).unwrap(),
                1,
                "{rule:?} failed high query"
            );
        }
    }

    #[test]
    fn perceptron_learns_from_a_cold_stream() {
        // Raw streaming (no bundling init, no pocket): the perceptron's
        // mistake-driven pass must still converge on a separable set.
        let (hvs, labels, enc) = training_set(11);
        let mut t = OnlineTrainer::new(UpdateRule::Perceptron, Dim::new(2_048));
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
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, dim);
            assert_eq!(t.n_classes(), 0, "{rule:?}");
            t.update(&hv, 4).unwrap();
            assert_eq!(t.n_classes(), 5, "{rule:?}");
            assert!(t.prototype(4).is_some());
        }
    }

    #[test]
    fn labels_past_the_class_limit_are_a_typed_error() {
        let dim = Dim::new(64);
        let hv = BinaryHypervector::random(dim, &mut SplitMix64::new(9));
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, dim);
            t.update(&hv, 0).unwrap();
            for label in [MAX_CLASSES, usize::MAX] {
                let limit = HdcError::ClassLimit {
                    label,
                    limit: MAX_CLASSES,
                };
                assert_eq!(t.update(&hv, label), Err(limit.clone()));
                assert_eq!(t.absorb(&hv, label), Err(limit.clone()));
                assert_eq!(
                    t.partial_fit(std::slice::from_ref(&hv), &[label]),
                    Err(limit)
                );
            }
            assert_eq!(t.n_classes(), 1, "{rule:?}");
            t.absorb(&hv, MAX_CLASSES - 1).unwrap();
            assert_eq!(t.n_classes(), MAX_CLASSES, "{rule:?}");
        }
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let wrong = BinaryHypervector::zeros(Dim::new(128));
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, Dim::new(2_048));
            assert!(
                matches!(
                    t.update(&wrong, 0),
                    Err(HdcError::DimensionMismatch {
                        left: 2_048,
                        right: 128
                    })
                ),
                "{rule:?}"
            );
            // The failed update must not have allocated the class.
            assert_eq!(t.n_classes(), 0, "{rule:?}");
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
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, dim);
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
        for rule in UpdateRule::ALL {
            let mut t = OnlineTrainer::new(rule, Dim::new(2_048));
            fit_pocketed(&mut t, &hvs, &labels, 25).unwrap();
            let fitted = count_correct(&t, &hvs, &labels);
            let mut bundling = OnlineTrainer::new(rule, Dim::new(2_048));
            for (hv, &label) in hvs.iter().zip(&labels) {
                bundling.absorb(hv, label).unwrap();
            }
            let bundled = count_correct(&bundling, &hvs, &labels);
            assert!(fitted >= bundled, "{rule:?}: {fitted} < {bundled}");
        }
    }

    fn count_correct(t: &OnlineTrainer, hvs: &[BinaryHypervector], labels: &[usize]) -> usize {
        hvs.iter()
            .zip(labels)
            .filter(|(hv, &l)| t.predict(hv).unwrap() == l)
            .count()
    }

    #[test]
    fn fit_pocketed_validates_inputs() {
        let mut t = OnlineTrainer::new(UpdateRule::Perceptron, Dim::new(64));
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
        let mut t = OnlineTrainer::new(UpdateRule::Lvq, Dim::new(2_048));
        fit_pocketed(&mut t, &hvs, &labels, 5).unwrap();
        let batch = t.predict_batch(&hvs).unwrap();
        for (hv, &p) in hvs.iter().zip(&batch) {
            assert_eq!(t.predict(hv).unwrap(), p);
        }
    }

    #[test]
    fn confident_mistakes_get_larger_weights_than_boundary_cases() {
        // One class far away: a query identical to class 1's prototype but
        // labelled 0 is a confident mistake and must move the accumulators
        // more than a borderline example would.
        let dim = Dim::new(256);
        let mut t = OnlineTrainer::new(UpdateRule::PassiveAggressive, dim);
        let a = BinaryHypervector::random(dim, &mut SplitMix64::new(1));
        let b = BinaryHypervector::random(dim, &mut SplitMix64::new(2));
        t.absorb(&a, 0).unwrap();
        t.absorb(&b, 1).unwrap();
        // `b` labelled 0 is maximally wrong: the correction must be strong
        // enough that a few repetitions flip the prediction.
        for _ in 0..3 {
            t.update(&b, 0).unwrap();
        }
        assert_eq!(t.predict(&b).unwrap(), 0);
    }

    #[test]
    fn within_margin_predictions_are_passive() {
        let dim = Dim::new(256);
        let mut t = OnlineTrainer::new(UpdateRule::PassiveAggressive, dim);
        let a = BinaryHypervector::random(dim, &mut SplitMix64::new(1));
        let b = a.complement();
        t.absorb(&a, 0).unwrap();
        t.absorb(&b, 1).unwrap();
        // `a` scores 1.0 for class 0 and −1.0 for class 1: gap 2.0 ≫ margin.
        assert!(!t.update(&a, 0).unwrap());
    }

    #[test]
    fn correct_wins_pull_the_winner() {
        let dim = Dim::new(256);
        let mut t = OnlineTrainer::new(UpdateRule::Lvq, dim);
        let a = BinaryHypervector::random(dim, &mut SplitMix64::new(1));
        let b = a.complement();
        t.absorb(&a, 0).unwrap();
        t.absorb(&b, 1).unwrap();
        // `a` is already class 0's prototype: the update is non-corrective
        // but still reinforces (pulls) the winner.
        assert!(!t.update(&a, 0).unwrap());
        assert_eq!(t.predict(&a).unwrap(), 0);
    }

    #[test]
    fn wrong_wins_push_and_pull() {
        let dim = Dim::new(256);
        let mut t = OnlineTrainer::new(UpdateRule::Lvq, dim);
        let a = BinaryHypervector::random(dim, &mut SplitMix64::new(1));
        let b = a.complement();
        t.absorb(&a, 0).unwrap();
        t.absorb(&b, 1).unwrap();
        // Repeatedly labelling `b` as class 0 must eventually flip it.
        let mut corrected = false;
        for _ in 0..5 {
            corrected |= t.update(&b, 0).unwrap();
            if t.predict(&b).unwrap() == 0 {
                break;
            }
        }
        assert!(corrected);
        assert_eq!(t.predict(&b).unwrap(), 0);
    }
}
