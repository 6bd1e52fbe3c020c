//! Single-pass streaming encode pipeline: O(dim) state for unbounded
//! cohorts.
//!
//! [`RecordEncoder::encode_batch`](crate::encoding::RecordEncoder::encode_batch)
//! materializes every hypervector of a cohort before any consumer sees
//! one, so memory grows O(rows × dim). This module restructures encoding
//! as a stream: a [`RecordStream`] yields raw feature rows one at a time,
//! a [`StreamEncoder`] encodes them in micro-batches split by
//! `rayon::map_chunks_with` (reusing one [`RecordScratch`] per chunk slot
//! across the whole stream), and each encoded hypervector is handed to a
//! [`StreamSink`] in stream order and then dropped. Resident state is one micro-batch of rows and
//! hypervectors plus the sink's accumulator — O(dim), independent of how
//! many records flow through.
//!
//! ## Sink contract
//!
//! [`StreamSink::absorb`] receives records in stream order, exactly once
//! per surviving record, tagged with the record's stream sequence number.
//! A sink error aborts the stream (sink failures are structural, not
//! per-record data problems). Sinks whose state is a commutative
//! accumulator — [`BundlerSink`] (counter planes) and
//! [`ClassAccumulatorSink`] (signed set-counts) — are **order
//! independent**: any permutation of the same records produces
//! bit-identical results. [`TrainerSink`] performs corrective online
//! updates and is order *dependent*; it matches the batch
//! [`OnlineTrainer::partial_fit`] trajectory exactly when fed the same
//! records in the same order.
//!
//! ## Failure accounting
//!
//! [`StreamEncoder::encode_stream`] is strict: the first failed record
//! (non-finite value, arity mismatch, injected fault at the
//! `hdc/stream_encode` seam) aborts with its typed error; everything the
//! sink already absorbed stays absorbed. The lenient variant
//! [`StreamEncoder::encode_stream_lenient`] quarantines failed records
//! and keeps going, with the same `kept + quarantined == seen` invariant
//! as the batch lenient path.

use crate::binary::{BinaryHypervector, Dim};
use crate::bundle::Bundler;
use crate::classify::trainer::{ClassAccumulators, OnlineTrainer};
use crate::encoding::{
    QuarantineEntry, QuarantineReport, RecordEncoder, RecordScratch, MIN_CHUNK_RECORDS,
};
use crate::error::HdcError;
use crate::{failpoint, obs};

/// Default records per encode micro-batch: large enough to amortize the
/// parallel fan-out, small enough that the resident buffer stays a rounding
/// error next to any class accumulator.
pub const DEFAULT_MICRO_BATCH: usize = 256;

/// A source of records for streaming encode: yields one row of raw
/// feature values (and its label) at a time.
///
/// `next_record` writes the row into `values` — cleared by the caller
/// before every call, so implementations only push — and returns the
/// record's label, or `None` when the stream is exhausted. Unlabeled
/// streams return 0; label-agnostic sinks ignore the value.
pub trait RecordStream {
    /// Pulls the next record into `values`; `None` ends the stream.
    fn next_record(&mut self, values: &mut Vec<f64>) -> Option<usize>;
}

/// A [`RecordStream`] over in-memory rows, optionally labeled — the
/// bridge from batch-shaped callers into the streaming pipeline.
#[derive(Debug, Clone)]
pub struct RowStream<'a> {
    rows: &'a [Vec<f64>],
    labels: Option<&'a [usize]>,
    pos: usize,
}

impl<'a> RowStream<'a> {
    /// A labeled stream; `rows` and `labels` must be the same length.
    pub fn new(rows: &'a [Vec<f64>], labels: &'a [usize]) -> Result<Self, HdcError> {
        if rows.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: rows.len(),
                labels: labels.len(),
            });
        }
        Ok(Self {
            rows,
            labels: Some(labels),
            pos: 0,
        })
    }

    /// An unlabeled stream: every record is labeled 0.
    #[must_use]
    pub fn unlabeled(rows: &'a [Vec<f64>]) -> Self {
        Self {
            rows,
            labels: None,
            pos: 0,
        }
    }
}

impl RecordStream for RowStream<'_> {
    fn next_record(&mut self, values: &mut Vec<f64>) -> Option<usize> {
        let row = self.rows.get(self.pos)?;
        values.extend_from_slice(row);
        // lint: index-ok (labels.len() == rows.len() by the constructor,
        // and pos indexed rows successfully above)
        let label = self.labels.map_or(0, |l| l[self.pos]);
        self.pos += 1;
        Some(label)
    }
}

/// A [`RecordStream`] driven by a generator closure — synthetic cohorts
/// of any size without materializing a single row ahead of time.
#[derive(Debug)]
pub struct FnStream<F> {
    generate: F,
}

impl<F> FnStream<F>
where
    F: FnMut(&mut Vec<f64>) -> Option<usize>,
{
    /// Wraps `generate`: it fills the row buffer and returns the label,
    /// or `None` to end the stream.
    pub fn new(generate: F) -> Self {
        Self { generate }
    }
}

impl<F> RecordStream for FnStream<F>
where
    F: FnMut(&mut Vec<f64>) -> Option<usize>,
{
    fn next_record(&mut self, values: &mut Vec<f64>) -> Option<usize> {
        (self.generate)(values)
    }
}

/// A consumer of encoded records. See the module docs for the contract.
pub trait StreamSink {
    /// Absorbs one encoded record. `seq` is the record's 0-based position
    /// in the stream (quarantined records still consume their sequence
    /// number, so `seq` always matches the source row index).
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector)
        -> Result<(), HdcError>;

    /// Approximate resident bytes of the sink's accumulator state, folded
    /// into the `hdc/stream_peak_bytes` watermark. O(dim) sinks report a
    /// cohort-size-independent figure; collecting sinks report their
    /// actual growth.
    fn state_bytes(&self) -> usize {
        0
    }
}

/// Streams records into a bit-sliced [`Bundler`]: the running majority
/// bundle of everything absorbed, in O(dim) counter planes. Order
/// independent. Labels are ignored.
#[derive(Debug, Clone)]
pub struct BundlerSink {
    bundler: Bundler,
}

impl BundlerSink {
    /// An empty bundle accumulator for `dim`-bit records.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            bundler: Bundler::new(dim),
        }
    }

    /// Records absorbed so far.
    #[must_use]
    pub fn votes(&self) -> u32 {
        self.bundler.votes()
    }

    /// The majority bundle of everything absorbed (ties set the bit).
    pub fn finish(&self) -> Result<BinaryHypervector, HdcError> {
        self.bundler.finish()
    }

    /// The underlying bundler, for callers that need counter access.
    #[must_use]
    pub fn bundler(&self) -> &Bundler {
        &self.bundler
    }
}

impl StreamSink for BundlerSink {
    fn absorb(
        &mut self,
        _seq: usize,
        _label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.bundler.push(hv)
    }

    fn state_bytes(&self) -> usize {
        // Upper bound of the bit-sliced counter planes: one u32-wide
        // counter per dimension bit.
        self.bundler.dim().get() * 4
    }
}

/// Streams labeled records into per-class [`ClassAccumulators`]: the
/// same signed set-count accumulation as batch class bundling, updated
/// one record at a time. Order independent (integer adds commute).
#[derive(Debug, Clone)]
pub struct ClassAccumulatorSink {
    accumulators: ClassAccumulators,
}

impl ClassAccumulatorSink {
    /// Empty accumulators for `dim`-bit records; classes grow on demand.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            accumulators: ClassAccumulators::new(dim),
        }
    }

    /// Wraps existing accumulators (warm-start from a trained model).
    #[must_use]
    pub fn from_accumulators(accumulators: ClassAccumulators) -> Self {
        Self { accumulators }
    }

    /// The accumulated per-class state.
    #[must_use]
    pub fn accumulators(&self) -> &ClassAccumulators {
        &self.accumulators
    }

    /// Consumes the sink, returning the accumulated state.
    #[must_use]
    pub fn into_accumulators(self) -> ClassAccumulators {
        self.accumulators
    }
}

impl StreamSink for ClassAccumulatorSink {
    fn absorb(
        &mut self,
        _seq: usize,
        label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.accumulators.check_dim(hv)?;
        self.accumulators.grow(label);
        self.accumulators.add(label, hv, 1);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        // One i32 set-count per bit per class, plus the quantized
        // prototypes (dim bits ≈ dim/8 bytes per class).
        let dim = self.accumulators.dim().get();
        self.accumulators.n_classes() * (dim * 4 + dim / 8)
    }
}

/// Streams labeled records into an [`OnlineTrainer`] via its corrective
/// `update` — the same per-record trajectory as batch
/// [`OnlineTrainer::partial_fit`], so streaming and batch fits agree
/// exactly when fed the same records in the same order. Order dependent.
pub struct TrainerSink<'a> {
    trainer: &'a mut dyn OnlineTrainer,
    corrections: usize,
}

impl std::fmt::Debug for TrainerSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainerSink")
            .field("trainer", &self.trainer.name())
            .field("corrections", &self.corrections)
            .finish()
    }
}

impl<'a> TrainerSink<'a> {
    /// Wraps `trainer`; absorbed records flow into
    /// [`OnlineTrainer::update`].
    pub fn new(trainer: &'a mut dyn OnlineTrainer) -> Self {
        Self {
            trainer,
            corrections: 0,
        }
    }

    /// Number of absorbed records that triggered a corrective update.
    #[must_use]
    pub fn corrections(&self) -> usize {
        self.corrections
    }
}

impl StreamSink for TrainerSink<'_> {
    fn absorb(
        &mut self,
        _seq: usize,
        label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        if self.trainer.update(hv, label)? {
            self.corrections += 1;
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        let dim = self.trainer.dim().get();
        self.trainer.n_classes() * (dim * 4 + dim / 8)
    }
}

/// Collects every absorbed record — the bridge back to batch-shaped
/// consumers (store builds, test oracles). Deliberately **not** O(dim):
/// its reported state bytes grow with the stream, which is exactly what
/// the peak-memory gauge shows when comparing against true streaming
/// sinks.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    hypervectors: Vec<BinaryHypervector>,
    labels: Vec<usize>,
}

impl CollectSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected hypervectors, in stream order.
    #[must_use]
    pub fn hypervectors(&self) -> &[BinaryHypervector] {
        &self.hypervectors
    }

    /// The collected labels, aligned with the hypervectors.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Consumes the sink, returning `(hypervectors, labels)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<BinaryHypervector>, Vec<usize>) {
        (self.hypervectors, self.labels)
    }
}

impl StreamSink for CollectSink {
    fn absorb(
        &mut self,
        _seq: usize,
        label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.hypervectors.push(hv.clone());
        self.labels.push(label);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.hypervectors.len() * (self.hypervectors.first().map_or(0, |hv| hv.words().len()) * 8)
            + self.labels.len() * std::mem::size_of::<usize>()
    }
}

/// Accounting for a lenient streaming encode: how many records the sink
/// absorbed and the quarantine report over everything seen
/// (`report.kept() == absorbed`, `kept + quarantined == seen`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Records the sink absorbed.
    pub absorbed: usize,
    /// Per-record quarantine accounting (`total()` is records seen).
    pub report: QuarantineReport,
}

/// Encodes a [`RecordStream`] through a [`RecordEncoder`] into a
/// [`StreamSink`], one micro-batch at a time.
///
/// Each micro-batch is encoded in parallel by `rayon::map_chunks_with`
/// (contiguous chunks, the last on the calling thread, one persistent
/// [`RecordScratch`] per chunk slot — bit-identical to the sequential
/// path regardless of thread count), then drained into the sink in
/// stream order on the calling thread.
/// The `hdc/stream_encode` failpoint is evaluated once per record during
/// the sequential drain, so fault windows replay deterministically.
#[derive(Debug, Clone)]
pub struct StreamEncoder<'a> {
    encoder: &'a RecordEncoder,
    micro_batch: usize,
}

impl<'a> StreamEncoder<'a> {
    /// Wraps `encoder` with the default micro-batch size.
    #[must_use]
    pub fn new(encoder: &'a RecordEncoder) -> Self {
        Self {
            encoder,
            micro_batch: DEFAULT_MICRO_BATCH,
        }
    }

    /// Sets the records-per-micro-batch (clamped to at least 1). Larger
    /// batches amortize fan-out overhead; smaller ones shrink the
    /// resident buffer. Results are identical either way.
    #[must_use]
    pub fn with_micro_batch(mut self, micro_batch: usize) -> Self {
        self.micro_batch = micro_batch.max(1);
        self
    }

    /// The dimensionality of encoded records.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.encoder.dim()
    }

    /// Records per micro-batch.
    #[must_use]
    pub fn micro_batch(&self) -> usize {
        self.micro_batch
    }

    /// Strict streaming encode: feeds `stream` through the encoder into
    /// `sink`, aborting on the first failed record with its typed error.
    /// Returns the number of records encoded and absorbed. Records the
    /// sink absorbed before an abort stay absorbed.
    pub fn encode_stream<S, K>(&self, stream: &mut S, sink: &mut K) -> Result<usize, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        match self.drive(stream, sink, true)? {
            outcome if outcome.report.is_clean() => Ok(outcome.absorbed),
            outcome => {
                // Strict mode quarantines at most one record: the abort.
                // lint: index-ok (non-clean report has at least one entry)
                Err(outcome.report.entries()[0].error.clone())
            }
        }
    }

    /// Lenient streaming encode: failed records (non-finite values,
    /// injected faults) are quarantined with their typed error and the
    /// stream keeps going. Sink errors still abort — a sink that cannot
    /// absorb is structural, not a per-record data problem.
    pub fn encode_stream_lenient<S, K>(
        &self,
        stream: &mut S,
        sink: &mut K,
    ) -> Result<StreamOutcome, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        self.drive(stream, sink, false)
    }

    /// Shared micro-batch driver. In strict mode the outcome carries at
    /// most one quarantine entry (the record that aborted the stream).
    // lint: index-ok (every `filled`-bounded access is into buffers sized
    // `micro_batch` with `filled <= micro_batch` by the fill loop)
    fn drive<S, K>(&self, stream: &mut S, sink: &mut K, strict: bool) -> Result<StreamOutcome, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let _span = obs::span("hdc/encode_stream");
        let arity = self.encoder.schema().arity();
        let words = self.encoder.dim().words();

        // Row buffers and result slots are allocated once and reused
        // across micro-batches; worker scratches persist for the whole
        // stream. Resident footprint is O(micro_batch × dim).
        let mut rows: Vec<Vec<f64>> = Vec::new();
        rows.resize_with(self.micro_batch, || Vec::with_capacity(arity));
        let mut labels = vec![0usize; self.micro_batch];
        let mut scratches: Vec<RecordScratch> = Vec::new();

        let mut seen = 0usize;
        let mut absorbed = 0usize;
        let mut entries: Vec<QuarantineEntry> = Vec::new();

        loop {
            // Fill the next micro-batch.
            let mut filled = 0usize;
            while filled < self.micro_batch {
                let buf = &mut rows[filled];
                buf.clear();
                match stream.next_record(buf) {
                    Some(label) => {
                        labels[filled] = label;
                        filled += 1;
                    }
                    None => break,
                }
            }
            if filled == 0 {
                break;
            }

            // Encode the micro-batch in contiguous chunks, each with a
            // scratch slot that persists across micro-batches. Every
            // record is encoded independently, so results are thread-count
            // independent.
            let dim = self.encoder.dim();
            let encoder = self.encoder;
            let chunks = rayon::map_chunks_with(
                &rows[..filled],
                MIN_CHUNK_RECORDS,
                &mut scratches,
                || RecordScratch::new(dim),
                |scratch, _, chunk| {
                    chunk
                        .iter()
                        .map(|row| encoder.encode_record_with(row, scratch))
                        .collect::<Vec<Result<BinaryHypervector, HdcError>>>()
                },
            );

            // Drain in stream order on this thread. The failpoint seam is
            // sequential, so windowed fault rules replay byte-identically.
            let mut aborted: Option<HdcError> = None;
            for (result, &label) in chunks.into_iter().flatten().zip(&labels[..filled]) {
                let seq = seen;
                seen += 1;
                match failpoint::check("hdc/stream_encode").and(result) {
                    Ok(hv) => {
                        sink.absorb(seq, label, &hv)?;
                        absorbed += 1;
                    }
                    Err(error) => {
                        entries.push(QuarantineEntry { row: seq, error: error.clone() });
                        if strict {
                            aborted = Some(error);
                            break;
                        }
                    }
                }
            }

            // The watermark models the pipeline's resident buffers: the
            // row/result micro-batch plus the sink accumulator. An
            // allocator hook would need a dependency this workspace
            // doesn't take; this accounting is exact for the buffers the
            // stream owns.
            let batch_bytes = self.micro_batch * (arity + words) * 8;
            let scratch_bytes = scratches.len() * words * 8 * 2;
            obs::gauge_max(
                "hdc/stream_peak_bytes",
                // lint: cast-ok (byte counts fit u64 on every supported target)
                (batch_bytes + scratch_bytes + sink.state_bytes()) as u64,
            );

            if aborted.is_some() {
                break;
            }
        }

        // lint: cast-ok (usize counts widen losslessly to u64 on every supported target)
        obs::counter_add("hdc/stream_records", absorbed as u64);
        obs::counter_add("hdc/stream_quarantined", entries.len() as u64);
        Ok(StreamOutcome {
            absorbed,
            report: QuarantineReport::new(seen, entries),
        })
    }
}
