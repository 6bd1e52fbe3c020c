//! Passive-aggressive trainer: margin-scaled integer updates.

use super::{ClassAccumulators, OnlineTrainer};
use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;

/// Required score margin between the true class and the best rival.
const MARGIN: f64 = 0.1;
/// Scale from hinge loss to integer update weight.
const AGGRESSIVENESS: f64 = 4.0;
/// Clamp on a single update's integer weight.
const MAX_WEIGHT: i32 = 4;

/// Passive-aggressive updates on the normalized-Hamming score gap.
///
/// Scores are `s_c = 1 − 2·hamming_c/d ∈ [−1, 1]`. With true class `t` and
/// best rival `r`, the hinge loss is `ℓ = max(0, MARGIN − (s_t − s_r))`.
/// When `ℓ = 0` the trainer is *passive* (no update); otherwise it is
/// *aggressive*: the example is added to class `t` and subtracted from
/// class `r` with integer weight `⌈ℓ · AGGRESSIVENESS⌉`, clamped to
/// `MAX_WEIGHT`. Confident mistakes (large negative gap) therefore get
/// large corrections, boundary cases small ones, and — unlike the
/// perceptron — correct-but-narrow wins still tighten the margin.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PassiveAggressiveTrainer {
    acc: ClassAccumulators,
}

impl PassiveAggressiveTrainer {
    /// Creates an empty trainer for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            acc: ClassAccumulators::new(dim),
        }
    }
}

impl OnlineTrainer for PassiveAggressiveTrainer {
    fn name(&self) -> &'static str {
        "passive-aggressive"
    }

    fn dim(&self) -> Dim {
        self.acc.dim()
    }

    fn n_classes(&self) -> usize {
        self.acc.n_classes()
    }

    fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        self.acc.prototype(class)
    }

    fn reset(&mut self) {
        self.acc.reset();
    }

    fn absorb(&mut self, hv: &BinaryHypervector, label: usize) -> Result<(), HdcError> {
        self.acc.check_dim(hv)?;
        self.acc.grow(label);
        self.acc.add(label, hv, 1);
        Ok(())
    }

    fn update(&mut self, hv: &BinaryHypervector, label: usize) -> Result<bool, HdcError> {
        self.acc.check_dim(hv)?;
        if label >= self.acc.n_classes() {
            // First sighting of this class: seed its superposition with the
            // example instead of leaving it at the uninformative zero state.
            self.acc.grow(label);
            self.acc.add(label, hv, 1);
            return Ok(true);
        }
        if self.acc.n_classes() < 2 {
            // With a single class there is no rival to define a gap.
            return Ok(false);
        }
        let hammings = self.acc.hammings(hv)?;
        // lint: cast-ok (dim and hammings are <= d < 2^53; the update weight
        // is clamped into [1, MAX_WEIGHT] before the i32 cast)
        let d = self.acc.dim().get() as f64;
        let score = |h: usize| 1.0 - 2.0 * (h as f64) / d;
        // Best rival: minimum Hamming among classes != label, ties to the
        // lowest index (consistent with predict's tie rule).
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
        self.acc.add(label, hv, weight);
        self.acc.add(rival, hv, -weight);
        Ok(true)
    }

    fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        self.acc.predict(query)
    }

    fn distances(&self, query: &BinaryHypervector) -> Result<Vec<f64>, HdcError> {
        // lint: cast-ok (dim and hamming counts are <= d, far below f64's 2^53)
        let d = self.acc.dim().get() as f64;
        Ok(self
            .acc
            .hammings(query)?
            .into_iter()
            .map(|h| h as f64 / d)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn confident_mistakes_get_larger_weights_than_boundary_cases() {
        // One class far away: a query identical to class 1's prototype but
        // labelled 0 is a confident mistake and must move the accumulators
        // more than a borderline example would.
        let dim = Dim::new(256);
        let mut t = PassiveAggressiveTrainer::new(dim);
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
        let mut t = PassiveAggressiveTrainer::new(dim);
        let a = BinaryHypervector::random(dim, &mut SplitMix64::new(1));
        let b = a.complement();
        t.absorb(&a, 0).unwrap();
        t.absorb(&b, 1).unwrap();
        // `a` scores 1.0 for class 0 and −1.0 for class 1: gap 2.0 ≫ margin.
        assert!(!t.update(&a, 0).unwrap());
    }
}
