//! Property tests for the streaming encode pipeline.
//!
//! The load-bearing property: streaming is a *restructuring* of batch
//! encode, not a reimplementation — for any cohort, any micro-batch
//! size, and any dimensionality (including ragged tail words), the
//! hypervectors flowing into a sink are bit-identical to
//! `RecordEncoder::encode_batch` over the same rows. On top of that the
//! commutative sinks (bundle, class accumulators) must be stream-order
//! invariant, and lenient quarantine accounting must add up.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::bundle::Bundler;
use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::stream::{
    BundlerSink, ClassAccumulatorSink, CollectSink, RowStream, StreamEncoder, StreamSink,
};
use hyperfex_hdc::HdcError;
use proptest::prelude::*;
use std::time::Duration;

/// Dimensionalities that exercise the tail-word masking paths: word
/// aligned, one over, one under, and the paper-adjacent 10_050 from the
/// distillation experiments.
const DIMS: [usize; 5] = [64, 63, 65, 961, 10_050];

fn encoder(dim: usize, seed: u64) -> RecordEncoder {
    let schema = RecordSchema::new(vec![
        FeatureSpec::continuous("glucose", 0.0, 200.0),
        FeatureSpec::continuous("bmi", 10.0, 60.0),
        FeatureSpec::binary("on_insulin"),
        FeatureSpec::categorical("cohort", 4),
    ]);
    RecordEncoder::new(Dim::new(dim), schema, seed).unwrap()
}

/// A seeded cohort of in-range rows for the schema above.
fn rows(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let rows = (0..n)
        .map(|_| {
            vec![
                rng.next_f64() * 200.0,
                10.0 + rng.next_f64() * 50.0,
                f64::from(rng.next_bounded(2) as u32),
                f64::from(rng.next_bounded(4) as u32),
            ]
        })
        .collect();
    let labels = (0..n).map(|i| i % 3).collect();
    (rows, labels)
}

/// A seeded permutation of `0..n` (partial Fisher–Yates over the full set).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..n.saturating_sub(1) {
        // lint: cast-ok (bound is n - i, a usize that fits u64)
        let j = i + rng.next_bounded((n - i) as u64) as usize;
        order.swap(i, j);
    }
    order
}

/// One absorbed record as a sink sees it: `(seq, label, hypervector)`.
type Absorbed = (usize, usize, BinaryHypervector);

/// A sink that records what it absorbs. It can stall at the first record
/// of each micro-batch, so the encode of the next micro-batch finishes
/// before the drain goes on, and it can fail at its `fail_at`-th record.
struct Probe {
    micro_batch: usize,
    stall: bool,
    fail_at: Option<usize>,
    absorbed: Vec<Absorbed>,
}

impl Probe {
    fn new(micro_batch: usize, stall: bool, fail_at: Option<usize>) -> Self {
        Self {
            micro_batch,
            stall,
            fail_at,
            absorbed: Vec::new(),
        }
    }
}

impl StreamSink for Probe {
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector) -> Result<(), HdcError> {
        if self.fail_at == Some(self.absorbed.len()) {
            return Err(HdcError::InvalidConfig(format!("sink failed at {seq}")));
        }
        if self.stall && seq % self.micro_batch == 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        self.absorbed.push((seq, label, hv.clone()));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The driver encodes micro-batch n+1 while micro-batch n drains. For
    /// micro-batches below and above the two-chunk spawn threshold (32
    /// records), on one worker and on two, with a sink that stalls at each
    /// micro-batch and one that returns at once, the sink absorbs exactly
    /// `encode_batch`'s records in stream order; a strict abort at record
    /// `i` leaves records `0..i` absorbed, and a sink failing at record
    /// `j` returns its error with records `0..j` absorbed.
    #[test]
    fn pipelined_drain_matches_batch_for_every_split(
        seed in any::<u64>(),
        dim_ix in 0usize..DIMS.len(),
        n in 1usize..120,
        micro_batch in 1usize..=80,
        poison in any::<usize>(),
        fail_at in any::<usize>(),
    ) {
        let enc = encoder(DIMS[dim_ix], seed ^ 0xD);
        let (cohort, labels) = rows(seed, n);
        let expected: Vec<Absorbed> = enc
            .encode_batch(&cohort)
            .unwrap()
            .into_iter()
            .zip(&labels)
            .enumerate()
            .map(|(seq, (hv, &label))| (seq, label, hv))
            .collect();
        let driver = StreamEncoder::new(&enc).with_micro_batch(micro_batch);
        let (i, j) = (poison % n, fail_at % n);
        let mut poisoned = cohort.clone();
        poisoned[i][0] = f64::NAN;

        for (workers, stall) in [(1, false), (1, true), (2, false), (2, true)] {
            let ctx = format!("{workers} workers, stall {stall}");
            rayon::with_num_threads(workers, || {
                let mut sink = Probe::new(micro_batch, stall, None);
                let mut stream = RowStream::new(&cohort, &labels).unwrap();
                let absorbed = driver.encode_stream(&mut stream, &mut sink);
                prop_assert_eq!(absorbed, Ok(n), "{}", ctx);
                prop_assert!(sink.absorbed == expected, "{}", ctx);

                let mut sink = Probe::new(micro_batch, stall, None);
                let mut stream = RowStream::new(&poisoned, &labels).unwrap();
                let aborted = driver.encode_stream(&mut stream, &mut sink);
                prop_assert_eq!(aborted, Err(HdcError::NonFiniteValue), "{}", ctx);
                prop_assert!(sink.absorbed == expected[..i], "{}: NaN at {}", ctx, i);

                let mut sink = Probe::new(micro_batch, stall, Some(j));
                let mut stream = RowStream::new(&cohort, &labels).unwrap();
                let failed = driver.encode_stream(&mut stream, &mut sink);
                let error = HdcError::InvalidConfig(format!("sink failed at {j}"));
                prop_assert_eq!(failed, Err(error), "{}", ctx);
                prop_assert!(sink.absorbed == expected[..j], "{}: fails at {}", ctx, j);
            });
        }
    }

    /// Streaming encode is bit-identical to batch encode for every
    /// dimensionality class and any micro-batch size — including batches
    /// larger than the stream and the degenerate one-record batch.
    #[test]
    fn streaming_matches_batch_bit_exactly(
        seed in any::<u64>(),
        dim_ix in 0usize..DIMS.len(),
        n in 1usize..40,
        micro_batch in 1usize..64,
    ) {
        let enc = encoder(DIMS[dim_ix], seed ^ 0xE);
        let (cohort, labels) = rows(seed, n);
        let expected = enc.encode_batch(&cohort).unwrap();

        let mut stream = RowStream::new(&cohort, &labels).unwrap();
        let mut sink = CollectSink::new();
        let absorbed = StreamEncoder::new(&enc)
            .with_micro_batch(micro_batch)
            .encode_stream(&mut stream, &mut sink)
            .unwrap();
        prop_assert_eq!(absorbed, n);
        prop_assert_eq!(sink.hypervectors(), expected.as_slice());
        prop_assert_eq!(sink.labels(), labels.as_slice());
    }

    /// The bundle sink reproduces encode-then-bundle bit-exactly, and is
    /// invariant under stream order (counter adds commute).
    #[test]
    fn bundle_sink_matches_batch_and_ignores_order(
        seed in any::<u64>(),
        dim_ix in 0usize..DIMS.len(),
        n in 1usize..40,
    ) {
        let dim = DIMS[dim_ix];
        let enc = encoder(dim, seed ^ 0xB);
        let (cohort, labels) = rows(seed, n);

        let mut reference = Bundler::new(Dim::new(dim));
        for hv in enc.encode_batch(&cohort).unwrap() {
            reference.push(&hv).unwrap();
        }
        let expected = reference.finish().unwrap();

        let mut sink = BundlerSink::new(Dim::new(dim));
        let mut stream = RowStream::new(&cohort, &labels).unwrap();
        StreamEncoder::new(&enc).with_micro_batch(7)
            .encode_stream(&mut stream, &mut sink).unwrap();
        prop_assert_eq!(sink.votes() as usize, n);
        prop_assert_eq!(&sink.finish().unwrap(), &expected);

        // Any permutation of the same records bundles identically.
        let order = permutation(seed ^ 0x5EED, n);
        let shuffled: Vec<Vec<f64>> = order.iter().map(|&i| cohort[i].clone()).collect();
        let mut sink = BundlerSink::new(Dim::new(dim));
        let mut stream = RowStream::unlabeled(&shuffled);
        StreamEncoder::new(&enc).encode_stream(&mut stream, &mut sink).unwrap();
        prop_assert_eq!(sink.finish().unwrap(), expected);
    }

    /// The class-accumulator sink is stream-order invariant: permuting the
    /// records (labels riding along) yields bit-identical per-class state.
    #[test]
    fn class_accumulator_sink_ignores_order(
        seed in any::<u64>(),
        dim_ix in 0usize..DIMS.len(),
        n in 2usize..40,
    ) {
        let dim = DIMS[dim_ix];
        let enc = encoder(dim, seed ^ 0xC);
        let (cohort, labels) = rows(seed, n);

        let mut forward = ClassAccumulatorSink::new(Dim::new(dim));
        let mut stream = RowStream::new(&cohort, &labels).unwrap();
        StreamEncoder::new(&enc).encode_stream(&mut stream, &mut forward).unwrap();

        let order = permutation(seed ^ 0x0BD3, n);
        let shuffled_rows: Vec<Vec<f64>> = order.iter().map(|&i| cohort[i].clone()).collect();
        let shuffled_labels: Vec<usize> = order.iter().map(|&i| labels[i]).collect();
        let mut permuted = ClassAccumulatorSink::new(Dim::new(dim));
        let mut stream = RowStream::new(&shuffled_rows, &shuffled_labels).unwrap();
        StreamEncoder::new(&enc).with_micro_batch(3)
            .encode_stream(&mut stream, &mut permuted).unwrap();

        let (f, p) = (forward.accumulators(), permuted.accumulators());
        prop_assert_eq!(f.n_classes(), p.n_classes());
        for c in 0..f.n_classes() {
            prop_assert_eq!(f.prototype(c), p.prototype(c), "class {} differs", c);
        }
    }

    /// Lenient streaming quarantines exactly the bad rows: accounting adds
    /// up, survivors are bit-identical to a batch encode of the clean rows,
    /// and the strict path aborts on the first bad row.
    #[test]
    fn lenient_quarantine_accounting_adds_up(
        seed in any::<u64>(),
        dim_ix in 0usize..DIMS.len(),
        n in 1usize..40,
        micro_batch in 1usize..32,
    ) {
        let enc = encoder(DIMS[dim_ix], seed ^ 0xF);
        let (mut cohort, labels) = rows(seed, n);
        // Poison a seeded subset of rows with a NaN.
        let mut rng = SplitMix64::new(seed ^ 0xBAD);
        let mut poisoned = Vec::new();
        for (i, row) in cohort.iter_mut().enumerate() {
            if rng.next_f64() < 0.3 {
                row[rng.next_bounded(4) as usize] = f64::NAN;
                poisoned.push(i);
            }
        }

        let mut sink = CollectSink::new();
        let mut stream = RowStream::new(&cohort, &labels).unwrap();
        let outcome = StreamEncoder::new(&enc)
            .with_micro_batch(micro_batch)
            .encode_stream_lenient(&mut stream, &mut sink)
            .unwrap();
        prop_assert_eq!(outcome.report.total(), n);
        prop_assert_eq!(outcome.report.kept() + outcome.report.quarantined(), n);
        prop_assert_eq!(outcome.report.quarantined(), poisoned.len());
        prop_assert_eq!(outcome.absorbed, n - poisoned.len());
        let quarantined_rows: Vec<usize> =
            outcome.report.entries().iter().map(|e| e.row).collect();
        prop_assert_eq!(&quarantined_rows, &poisoned);

        let clean: Vec<Vec<f64>> = cohort
            .iter()
            .enumerate()
            .filter(|(i, _)| !poisoned.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        if clean.is_empty() {
            prop_assert!(sink.hypervectors().is_empty());
        } else {
            prop_assert_eq!(
                sink.hypervectors(),
                enc.encode_batch(&clean).unwrap().as_slice()
            );
        }

        // Strict mode aborts iff something was poisoned.
        let mut sink = CollectSink::new();
        let mut stream = RowStream::new(&cohort, &labels).unwrap();
        let strict = StreamEncoder::new(&enc).encode_stream(&mut stream, &mut sink);
        prop_assert_eq!(strict.is_err(), !poisoned.is_empty());
    }
}
