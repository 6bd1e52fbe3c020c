//! Single-pass streaming encode pipeline: O(dim) state for unbounded
//! cohorts.
//!
//! A [`RecordStream`] yields raw feature rows one at a time, a
//! [`StreamEncoder`] encodes them in micro-batches split by
//! `rayon::map_chunks_with` (reusing one [`RecordScratch`] per chunk slot
//! across the whole stream), and each encoded hypervector is handed to a
//! [`StreamSink`] in stream order, by value. Resident state is one
//! micro-batch of rows and hypervectors plus the sink's accumulator —
//! O(dim), independent of how many records flow through.
//!
//! This micro-batch driver is the only encode loop in the crate. A batch
//! encode ([`StreamEncoder::encode_batch`], behind
//! [`RecordEncoder::encode_batch`](crate::encoding::RecordEncoder::encode_batch))
//! runs it as one micro-batch sized to the whole cohort and collects every
//! hypervector before any consumer sees one, so its memory grows
//! O(rows × dim).
//!
//! ## Sink contract
//!
//! [`StreamSink::absorb_owned`] (by default [`StreamSink::absorb`])
//! receives records in stream order, exactly once per surviving record,
//! tagged with the record's stream sequence number.
//! A sink error aborts the stream (sink failures are structural, not
//! per-record data problems). Sinks whose state is a commutative
//! accumulator — [`BundlerSink`] (counter planes) and
//! [`ClassAccumulatorSink`] (signed set-counts) — are **order
//! independent**: any permutation of the same records produces
//! bit-identical results.
//!
//! ## Failure accounting
//!
//! [`StreamEncoder::encode_stream`] is strict: the first failed record
//! (non-finite value, arity mismatch, injected fault at the
//! `hdc/stream_encode` seam) aborts with its typed error; everything the
//! sink already absorbed stays absorbed. The lenient variant
//! [`StreamEncoder::encode_stream_lenient`] quarantines failed records
//! and keeps going, with the invariant `kept + quarantined == seen`. The
//! batch passes fail and quarantine records the same way but check their
//! own failpoints (see [`StreamEncoder::encode_batch`]).

use crate::binary::{BinaryHypervector, Dim};
use crate::bundle::Bundler;
use crate::classify::trainer::ClassAccumulators;
use crate::encoding::{QuarantineEntry, QuarantineReport, RecordEncoder, RecordScratch};
use crate::error::HdcError;
use crate::{failpoint, obs};

/// Fewest records a parallel chunk of an encode micro-batch takes: a
/// 10,000-bit record encodes in a few microseconds, so sixteen of them
/// outweigh the thread a chunk costs, and a single record never spawns.
const MIN_CHUNK_RECORDS: usize = 16;

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
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector) -> Result<(), HdcError>;

    /// Absorbs one encoded record the sink may keep without copying. The
    /// encode driver hands every record over through this; by default it
    /// is [`StreamSink::absorb`].
    fn absorb_owned(
        &mut self,
        seq: usize,
        label: usize,
        hv: BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.absorb(seq, label, &hv)
    }

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
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector) -> Result<(), HdcError> {
        self.absorb_owned(seq, label, hv.clone())
    }

    fn absorb_owned(
        &mut self,
        _seq: usize,
        label: usize,
        hv: BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.hypervectors.push(hv);
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
/// stream order on the calling thread. A per-record failpoint
/// (`hdc/stream_encode` for streams) is evaluated during that sequential
/// drain, so fault windows replay deterministically.
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

    /// Strict streaming encode: feeds `stream` through the encoder into
    /// `sink`, aborting on the first failed record with its typed error.
    /// Returns the number of records encoded and absorbed. Records the
    /// sink absorbed before an abort stay absorbed.
    pub fn encode_stream<S, K>(&self, stream: &mut S, sink: &mut K) -> Result<usize, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let _span = obs::span("hdc/encode_stream");
        let outcome = self.drive(stream, sink, Pass::Stream { strict: true })?;
        // Strict mode quarantines at most one record: the abort.
        match outcome.report.entries().first() {
            Some(entry) => Err(entry.error.clone()),
            None => Ok(outcome.absorbed),
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
        let _span = obs::span("hdc/encode_stream");
        self.drive(stream, sink, Pass::Stream { strict: false })
    }

    /// Batch encode through the same driver, for callers that hold the
    /// whole cohort: [`RecordEncoder::encode_batch`] and the table
    /// transforms of the `hyperfex` crate, which size the micro-batch to
    /// the stream so it runs as one.
    ///
    /// Strict: the `hdc/encode_batch` failpoint is checked once up front,
    /// and the first failed record stops the pass as the report's only
    /// entry. Lenient: the `hdc/encode_record` failpoint is checked once
    /// per record, and failed records are quarantined. Either way a
    /// non-finite value fails its record, and `Err` means a failpoint or
    /// sink failure rather than a bad record.
    pub fn encode_batch<S, K>(
        &self,
        stream: &mut S,
        sink: &mut K,
        strict: bool,
    ) -> Result<StreamOutcome, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let _span = obs::span(if strict {
            "hdc/encode_batch"
        } else {
            "hdc/encode_batch_lenient"
        });
        if strict {
            failpoint::check("hdc/encode_batch")?;
        }
        let pass = if strict {
            Pass::Batch
        } else {
            Pass::LenientBatch
        };
        let outcome = self.drive(stream, sink, pass)?;
        let total = outcome.report.total();
        if total > 0 && (!strict || outcome.report.is_clean()) {
            // lint: cast-ok (usize counts widen losslessly to u64 on every supported target)
            obs::counter_add("hdc/records_encoded", outcome.absorbed as u64);
            if strict {
                // The batch path materializes every input row and output
                // hypervector at once — the O(rows × dim) footprint the
                // streaming pipeline exists to avoid.
                let row_bytes = (self.encoder.schema().arity() + self.dim().words()) * 8;
                // lint: cast-ok (byte counts fit u64 on every supported target)
                obs::gauge_max("hdc/batch_peak_bytes", (total * row_bytes) as u64);
            } else {
                // lint: cast-ok (usize counts widen losslessly to u64 on every supported target)
                obs::counter_add(
                    "hdc/records_quarantined",
                    outcome.report.quarantined() as u64,
                );
            }
        }
        Ok(outcome)
    }

    /// The micro-batch driver behind every encode: fills a micro-batch from
    /// the stream, encodes it in parallel, then drains it into the sink in
    /// stream order. Strict passes stop at the first failed record, which
    /// is then the outcome's only quarantine entry.
    // lint: index-ok (every `filled`-bounded access is into buffers grown
    // to at least `filled` entries by the fill loop)
    fn drive<S, K>(
        &self,
        stream: &mut S,
        sink: &mut K,
        pass: Pass,
    ) -> Result<StreamOutcome, HdcError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let arity = self.encoder.schema().arity();
        let words = self.encoder.dim().words();

        // Row buffers grow to the largest micro-batch filled and are reused
        // across micro-batches; worker scratches persist for the whole
        // stream. Resident footprint is O(micro_batch × dim).
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let mut scratches: Vec<RecordScratch> = Vec::new();

        let mut seen = 0usize;
        let mut absorbed = 0usize;
        let mut entries: Vec<QuarantineEntry> = Vec::new();

        loop {
            // Fill the next micro-batch.
            let mut filled = 0usize;
            while filled < self.micro_batch {
                if filled == rows.len() {
                    rows.push(Vec::with_capacity(arity));
                    labels.push(0);
                }
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
                    // Spawned chunks run on their own threads, so there
                    // this span is a root, not a child of the batch span;
                    // the chunk on the calling thread nests under it.
                    let _span = (pass == Pass::Batch).then(|| obs::span("hdc/encode_chunk"));
                    chunk
                        .iter()
                        .map(|row| encoder.encode_record_with(row, scratch))
                        .collect::<Vec<Result<BinaryHypervector, HdcError>>>()
                },
            );

            // Drain in stream order on this thread. The failpoint seam is
            // sequential, so windowed fault rules replay byte-identically.
            let mut aborted = false;
            for (result, &label) in chunks.into_iter().flatten().zip(&labels[..filled]) {
                let seq = seen;
                seen += 1;
                match pass.check_record().and(result) {
                    Ok(hv) => {
                        sink.absorb_owned(seq, label, hv)?;
                        absorbed += 1;
                    }
                    Err(error) => {
                        entries.push(QuarantineEntry { row: seq, error });
                        if pass.strict() {
                            aborted = true;
                            break;
                        }
                    }
                }
            }

            if let Pass::Stream { .. } = pass {
                // The watermark models the pipeline's resident buffers: the
                // row/result micro-batch plus the sink accumulator. An
                // allocator hook would need a dependency this workspace
                // doesn't take; this accounting is exact for the buffers
                // the stream owns.
                let batch_bytes = self.micro_batch * (arity + words) * 8;
                let scratch_bytes = scratches.len() * words * 8 * 2;
                obs::gauge_max(
                    "hdc/stream_peak_bytes",
                    // lint: cast-ok (byte counts fit u64 on every supported target)
                    (batch_bytes + scratch_bytes + sink.state_bytes()) as u64,
                );
            }

            if aborted {
                break;
            }
        }

        if let Pass::Stream { .. } = pass {
            // lint: cast-ok (usize counts widen losslessly to u64 on every supported target)
            obs::counter_add("hdc/stream_records", absorbed as u64);
            obs::counter_add("hdc/stream_quarantined", entries.len() as u64);
        }
        Ok(StreamOutcome {
            absorbed,
            report: QuarantineReport::new(seen, entries),
        })
    }
}

/// Which entry point one run of the driver serves: that decides its
/// per-record failpoint, whether it stops at the first failed record, and
/// what it reports (only streams feed the `hdc/stream_*` counters and
/// watermark; only a strict batch opens `hdc/encode_chunk` spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Stream { strict: bool },
    Batch,
    LenientBatch,
}

impl Pass {
    fn strict(self) -> bool {
        matches!(self, Self::Stream { strict: true } | Self::Batch)
    }

    /// Evaluates this pass's per-record failpoint, if it has one.
    fn check_record(self) -> Result<(), HdcError> {
        match self {
            Self::Stream { .. } => failpoint::check("hdc/stream_encode"),
            Self::LenientBatch => failpoint::check("hdc/encode_record"),
            Self::Batch => Ok(()),
        }
    }
}
