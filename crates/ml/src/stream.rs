//! Streaming bridge from the HDC encode pipeline into incremental
//! estimators.
//!
//! [`EstimatorSink`] implements [`StreamSink`], so it plugs directly into
//! `hyperfex_hdc::stream::StreamEncoder` (or the core extractor's
//! `transform_stream`): encoded hypervectors accumulate into a small
//! packed mini-batch and every full batch is handed to
//! [`Estimator::partial_fit_features`] as [`Features::Packed`]. Peak state
//! is one mini-batch plus the model's own parameters — independent of
//! stream length, which is what lets unbounded cohorts train models that
//! could never hold the full design matrix.
//!
//! The sink is *order-dependent*: the trained model is exactly the one
//! `partial_fit` would produce on the same records in the same order with
//! the same batch boundaries. Callers must invoke
//! [`EstimatorSink::finish`] after the stream drains — a final partial
//! batch would otherwise be silently dropped (the `must_use` on the type
//! exists to make that bug loud).

use crate::error::MlError;
use crate::traits::{Estimator, Features};
use hyperfex_hdc::binary::BinaryHypervector;
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::stream::{StreamSink, DEFAULT_MICRO_BATCH};
use hyperfex_hdc::HdcError;

/// A [`StreamSink`] that trains any [`Estimator`] supporting
/// `partial_fit` from a stream of encoded records.
#[must_use = "call finish() after the stream drains or the tail batch is lost"]
pub struct EstimatorSink<'a> {
    estimator: &'a mut dyn Estimator,
    batch: Vec<BinaryHypervector>,
    labels: Vec<usize>,
    capacity: usize,
    trained: usize,
    batches: usize,
}

impl std::fmt::Debug for EstimatorSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorSink")
            .field("estimator", &self.estimator.name())
            .field("buffered", &self.batch.len())
            .field("capacity", &self.capacity)
            .field("trained", &self.trained)
            .field("batches", &self.batches)
            .finish()
    }
}

impl<'a> EstimatorSink<'a> {
    /// Wraps an estimator with the default mini-batch size
    /// ([`DEFAULT_MICRO_BATCH`] records per `partial_fit` call).
    pub fn new(estimator: &'a mut dyn Estimator) -> Self {
        Self::with_capacity(estimator, DEFAULT_MICRO_BATCH)
    }

    /// Wraps an estimator flushing every `capacity` records (clamped to at
    /// least 1). Batch boundaries are part of the training trajectory for
    /// mini-batch learners, so fix this when reproducibility matters.
    pub fn with_capacity(estimator: &'a mut dyn Estimator, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            estimator,
            batch: Vec::with_capacity(capacity),
            labels: Vec::with_capacity(capacity),
            capacity,
            trained: 0,
            batches: 0,
        }
    }

    /// Number of `partial_fit` calls made so far.
    #[must_use]
    pub fn batches_flushed(&self) -> usize {
        self.batches
    }

    /// Trains on whatever is buffered and returns the total record count
    /// seen by the estimator. Must be called after the stream drains.
    pub fn finish(mut self) -> Result<usize, MlError> {
        self.flush()?;
        Ok(self.trained)
    }

    fn flush(&mut self) -> Result<(), MlError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let bits =
            BitMatrix::from_hypervectors(&self.batch).map_err(|e| MlError::ShapeMismatch {
                expected: "uniform hypervector dimensionality".into(),
                got: e.to_string(),
            })?;
        self.estimator
            .partial_fit_features(&Features::Packed(&bits), &self.labels)?;
        self.trained += self.batch.len();
        self.batches += 1;
        self.batch.clear();
        self.labels.clear();
        Ok(())
    }
}

impl StreamSink for EstimatorSink<'_> {
    /// Buffers the record; a full buffer flushes into `partial_fit`. A
    /// training failure aborts the stream, surfaced as
    /// [`HdcError::InvalidConfig`] carrying the [`MlError`] message (the
    /// stream layer cannot name ML error types without inverting the crate
    /// dependency).
    fn absorb(
        &mut self,
        _seq: usize,
        label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.batch.push(hv.clone());
        self.labels.push(label);
        if self.batch.len() >= self.capacity {
            self.flush().map_err(|e| {
                HdcError::InvalidConfig(format!("estimator sink flush failed: {e}"))
            })?;
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        // One full mini-batch of packed hypervectors plus labels; the
        // estimator's own parameters are its business.
        let per_record = self
            .batch
            .first()
            .map_or(0, |hv| hv.words().len() * 8 + std::mem::size_of::<usize>());
        self.capacity * per_record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{SgdClassifier, SgdLoss, SgdParams};
    use hyperfex_hdc::binary::Dim;
    use hyperfex_hdc::rng::SplitMix64;

    fn cohort(n: usize, dim: usize, seed: u64) -> (Vec<BinaryHypervector>, Vec<usize>) {
        let d = Dim::try_new(dim).unwrap();
        let mut rng = SplitMix64::new(seed);
        let protos: Vec<BinaryHypervector> = (0..2)
            .map(|_| BinaryHypervector::random(d, &mut rng))
            .collect();
        let mut hvs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let mut hv = protos[label].clone();
            // Flip a few bits so records are near, not at, their prototype.
            for _ in 0..dim / 20 {
                let bit = (rng.next_u64() % dim as u64) as usize;
                hv.set(bit, !hv.get(bit));
            }
            hvs.push(hv);
            labels.push(label);
        }
        (hvs, labels)
    }

    fn log_params() -> SgdParams {
        SgdParams {
            loss: SgdLoss::Log,
            ..Default::default()
        }
    }

    #[test]
    fn sink_trains_exactly_like_direct_partial_fit() {
        let (hvs, labels) = cohort(100, 256, 7);
        // Direct path: partial_fit over the same batch boundaries.
        let mut direct = SgdClassifier::new(log_params());
        for (chunk, ls) in hvs.chunks(32).zip(labels.chunks(32)) {
            let bits = BitMatrix::from_hypervectors(chunk).unwrap();
            direct
                .partial_fit_features(&Features::Packed(&bits), ls)
                .unwrap();
        }
        // Sink path: absorb record-by-record with the same capacity.
        let mut streamed = SgdClassifier::new(log_params());
        let mut sink = EstimatorSink::with_capacity(&mut streamed, 32);
        for (i, (hv, &label)) in hvs.iter().zip(&labels).enumerate() {
            sink.absorb(i, label, hv).unwrap();
        }
        assert_eq!(sink.finish().unwrap(), 100);
        let all = BitMatrix::from_hypervectors(&hvs).unwrap();
        assert_eq!(
            direct.decision_function_packed(&all).unwrap(),
            streamed.decision_function_packed(&all).unwrap()
        );
    }

    #[test]
    fn finish_flushes_the_partial_tail() {
        let (hvs, labels) = cohort(10, 128, 3);
        let mut model = SgdClassifier::new(log_params());
        let mut sink = EstimatorSink::with_capacity(&mut model, 64);
        for (i, (hv, &label)) in hvs.iter().zip(&labels).enumerate() {
            sink.absorb(i, label, hv).unwrap();
        }
        assert_eq!(sink.batches_flushed(), 0);
        assert_eq!(sink.finish().unwrap(), 10);
        let all = BitMatrix::from_hypervectors(&hvs).unwrap();
        assert!(model.decision_function_packed(&all).is_ok());
    }

    #[test]
    fn sink_state_stays_bounded_by_capacity() {
        let (hvs, labels) = cohort(500, 256, 9);
        let mut model = SgdClassifier::new(log_params());
        let mut sink = EstimatorSink::with_capacity(&mut model, 16);
        let mut peak = 0usize;
        for (i, (hv, &label)) in hvs.iter().zip(&labels).enumerate() {
            sink.absorb(i, label, hv).unwrap();
            peak = peak.max(sink.state_bytes());
        }
        // 16 records × (256 bits = 4 words × 8 bytes + label word).
        assert_eq!(peak, 16 * (4 * 8 + std::mem::size_of::<usize>()));
        assert_eq!(sink.finish().unwrap(), 500);
    }

    #[test]
    fn estimators_without_partial_fit_abort_the_stream() {
        let (hvs, labels) = cohort(4, 64, 1);
        // Platt-less SVC has no partial_fit; the default trait impl errors.
        let mut model = crate::svm::SvcClassifier::new(crate::svm::SvcParams::default());
        let mut sink = EstimatorSink::with_capacity(&mut model, 2);
        let mut failed = false;
        for (i, (hv, &label)) in hvs.iter().zip(&labels).enumerate() {
            if sink.absorb(i, label, hv).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "flush into a partial_fit-less model must error");
    }
}
