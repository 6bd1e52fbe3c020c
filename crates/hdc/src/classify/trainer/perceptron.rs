//! Mistake-driven perceptron trainer over integer class accumulators.

use super::{ClassAccumulators, OnlineTrainer};
use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;

/// The classic HDC retraining rule as a streaming trainer.
///
/// On a mistake, the example is added (weight +1) to its true class
/// superposition and subtracted (weight −1) from the wrongly predicted one;
/// correct predictions leave the model untouched. A full
/// [`OnlineTrainer::partial_fit`] pass over a training set is bit-identical
/// to one [`crate::reference::centroid_retrain_epoch`] on equivalent state —
/// the property test in `crates/hdc/tests` pins this equivalence.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PerceptronTrainer {
    acc: ClassAccumulators,
}

impl PerceptronTrainer {
    /// Creates an empty trainer for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            acc: ClassAccumulators::new(dim),
        }
    }
}

impl OnlineTrainer for PerceptronTrainer {
    fn name(&self) -> &'static str {
        "perceptron"
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
        let predicted = self.acc.predict(hv)?;
        if predicted == label {
            return Ok(false);
        }
        self.acc.add(label, hv, 1);
        self.acc.add(predicted, hv, -1);
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
