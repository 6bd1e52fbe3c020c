//! Streaming ingest: plug an [`HvStore`] onto the end of the HDC encode
//! pipeline.
//!
//! [`StoreAppendSink`] implements `hyperfex_hdc::stream::StreamSink`, so a
//! `StreamEncoder` (or the core extractor's `transform_stream`) can append
//! encoded records straight into a serving store as they are produced:
//! records buffer into micro-batches, every full buffer becomes one
//! [`HvStore::append_batch`] call, and an optional snapshot directory gets
//! a [`HvStore::save_dirty`] rolling snapshot after each flush: one
//! appended batch of the flushed rows, the accumulator file and a new
//! manifest, fsynced. The durable snapshot trails the stream by at most
//! one buffer, at a write cost proportional to the appended data rather
//! than the store size. A stream killed after any flush resumes from the
//! reopened store (whose manifest restores the shard capacity) to the
//! same store and the same snapshot files as an uninterrupted run.
//!
//! Peak sink state is one buffer of records; the store itself grows with
//! the cohort, which is the point — it is the *durable* output, not
//! transient encode state.

use std::path::PathBuf;

use hyperfex_hdc::binary::BinaryHypervector;
use hyperfex_hdc::stream::{StreamSink, DEFAULT_MICRO_BATCH};
use hyperfex_hdc::HdcError;

use crate::error::ServeError;
use crate::store::HvStore;

/// A `StreamSink` appending encoded records into an [`HvStore`], with an
/// optional rolling snapshot per flush.
#[derive(Debug)]
#[must_use = "call finish() after the stream drains or the tail buffer is lost"]
pub struct StoreAppendSink<'a> {
    store: &'a mut HvStore,
    snapshot_dir: Option<PathBuf>,
    batch: Vec<BinaryHypervector>,
    labels: Vec<usize>,
    capacity: usize,
    appended: usize,
    shards_rolled: usize,
}

impl<'a> StoreAppendSink<'a> {
    /// Wraps a store, flushing every [`DEFAULT_MICRO_BATCH`] records.
    pub fn new(store: &'a mut HvStore) -> Self {
        Self::with_capacity(store, DEFAULT_MICRO_BATCH)
    }

    /// Wraps a store, flushing every `capacity` records (clamped to at
    /// least 1).
    pub fn with_capacity(store: &'a mut HvStore, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            store,
            snapshot_dir: None,
            batch: Vec::with_capacity(capacity),
            labels: Vec::with_capacity(capacity),
            capacity,
            appended: 0,
            shards_rolled: 0,
        }
    }

    /// Enables the rolling snapshot: after every flush the rows it added
    /// (plus the sidecars) are committed into `dir`, keeping the durable
    /// snapshot at most one buffer behind the stream.
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Records appended to the store so far (excludes the buffered tail).
    #[must_use]
    pub fn records_appended(&self) -> usize {
        self.appended
    }

    /// Shards rolled by the appends so far.
    #[must_use]
    pub fn shards_rolled(&self) -> usize {
        self.shards_rolled
    }

    /// Flushes the buffered tail (and its rolling snapshot, when enabled)
    /// and returns the total appended record count. Must be called after
    /// the stream drains.
    pub fn finish(mut self) -> Result<usize, ServeError> {
        self.flush()?;
        Ok(self.appended)
    }

    fn flush(&mut self) -> Result<(), ServeError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let report = self.store.append_batch(&self.batch, &self.labels)?;
        self.appended += report.appended;
        self.shards_rolled += report.shards_rolled;
        self.batch.clear();
        self.labels.clear();
        if let Some(dir) = &self.snapshot_dir {
            self.store.save_dirty(&dir.clone())?;
        }
        Ok(())
    }
}

impl StreamSink for StoreAppendSink<'_> {
    /// Buffers a copy of the record; see [`StreamSink::absorb_owned`].
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector) -> Result<(), HdcError> {
        self.absorb_owned(seq, label, hv.clone())
    }

    /// Moves the record into the buffer (the encode driver hands records
    /// over by value, so this copies nothing); a full buffer appends into
    /// the store. Append or snapshot failures abort the stream —
    /// [`ServeError::Hdc`] unwraps to its typed cause, anything else is
    /// surfaced as [`HdcError::InvalidConfig`] carrying the message (the
    /// stream layer cannot name serve error types without inverting the
    /// crate dependency).
    fn absorb_owned(
        &mut self,
        _seq: usize,
        label: usize,
        hv: BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.batch.push(hv);
        self.labels.push(label);
        if self.batch.len() >= self.capacity {
            self.flush().map_err(|e| match e {
                ServeError::Hdc(inner) => inner,
                other => HdcError::InvalidConfig(format!("store append failed: {other}")),
            })?;
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        // One buffer of packed hypervectors plus labels; the store is the
        // durable output, not transient encode state.
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
    use crate::cohort::SyntheticCohort;
    use hyperfex_hdc::binary::Dim;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hyperfex-serve-ingest-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sink_builds_the_same_store_as_batch_build() {
        let cohort = SyntheticCohort::generate(Dim::new(256), 3, 60, 20, 5).unwrap();
        let batch = HvStore::build(&cohort.records, &cohort.labels, 4).unwrap();

        let mut streamed = HvStore::new_empty(Dim::new(256), 15).unwrap();
        let mut sink = StoreAppendSink::with_capacity(&mut streamed, 7);
        for (i, (hv, &label)) in cohort.records.iter().zip(&cohort.labels).enumerate() {
            sink.absorb(i, label, hv).unwrap();
        }
        assert_eq!(sink.finish().unwrap(), 60);
        // build() slices 60 rows into 4×15; streaming with capacity 15
        // rolls the identical layout, so the stores are equal.
        assert_eq!(streamed, batch);
    }

    #[test]
    fn rolling_snapshot_trails_by_at_most_one_buffer() {
        let dir = scratch_dir("rolling");
        let cohort = SyntheticCohort::generate(Dim::new(128), 2, 50, 10, 9).unwrap();
        let mut store = HvStore::new_empty(Dim::new(128), 16).unwrap();
        let mut sink = StoreAppendSink::with_capacity(&mut store, 10).with_snapshot_dir(&dir);
        for (i, (hv, &label)) in cohort.records.iter().zip(&cohort.labels).enumerate() {
            sink.absorb(i, label, hv).unwrap();
            if (i + 1) % 10 == 0 {
                // Just after a flush the snapshot is fully caught up.
                let (recovered, report) = HvStore::open(&dir).unwrap();
                assert!(report.quarantined.is_empty());
                assert_eq!(recovered.n_rows(), i + 1);
            }
        }
        assert_eq!(sink.finish().unwrap(), 50);
        let (recovered, report) = HvStore::open(&dir).unwrap();
        assert!(report.is_complete());
        assert!(report.accumulators_recovered);
        assert_eq!(recovered, store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dimension_mismatch_aborts_with_a_typed_error() {
        let cohort = SyntheticCohort::generate(Dim::new(64), 2, 4, 4, 3).unwrap();
        let mut store = HvStore::new_empty(Dim::new(128), 8).unwrap();
        let mut sink = StoreAppendSink::with_capacity(&mut store, 2);
        sink.absorb(0, 0, &cohort.records[0]).unwrap();
        let err = sink.absorb(1, 1, &cohort.records[1]).unwrap_err();
        assert!(matches!(err, HdcError::DimensionMismatch { .. }), "{err}");
    }
}
