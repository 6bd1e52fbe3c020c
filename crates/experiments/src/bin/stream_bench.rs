//! Streaming-vs-batch encode benchmark: the tentpole experiment for the
//! single-pass pipeline.
//!
//! Requires the `obs` feature (the peak-memory evidence comes from the
//! `hdc/stream_peak_bytes` / `hdc/batch_peak_bytes` gauges):
//!
//! ```text
//! cargo run --release -p hyperfex-experiments --features obs \
//!     --bin stream_bench -- --quick --gate
//! ```
//!
//! For each cohort scale, the same seeded synthetic records are pushed
//! through both pipelines:
//!
//! * **streaming** — an [`FnStream`] generator feeding a
//!   [`ClassAccumulatorSink`] through `StreamEncoder`; no row and no
//!   hypervector ever exists outside the current micro-batch.
//! * **batch** — materialize every row, `encode_batch` every
//!   hypervector, then accumulate; the O(rows × dim) footprint the
//!   stream replaces.
//!
//! Both must land bit-identical class accumulators (checked every run).
//! Each scale times the two lanes alternately, [`ROUNDS`] times each, and
//! reports each lane's median wall time and the median of the per-round
//! batch/streaming time ratios, so one noisy run cannot decide a ratio.
//! `--gate` additionally enforces the streaming pipeline's perf
//! acceptance: streaming peak memory flat within ±10% across scales while
//! batch grows, and a median streaming throughput at least 0.8× batch.
//!
//! Flags: `--quick` (20k/100k records at 1k bits instead of 100k/1M at
//! 2k bits), `--seed N`, `--gate`, `--out PATH` (default: stdout).

use hyperfex::obs;
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::stream::{ClassAccumulatorSink, FnStream, StreamEncoder};
use hyperfex_hdc::HdcError;
use serde::Serialize;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// One pipeline's measurement at one cohort scale.
#[derive(Debug, Serialize)]
struct Lane {
    records_per_sec: f64,
    wall_secs: f64,
    peak_bytes: u64,
}

/// Streaming and batch, same records, same scale.
#[derive(Debug, Serialize)]
struct Scale {
    records: usize,
    streaming: Lane,
    batch: Lane,
    /// The median of `throughput_ratios`, which `--gate` checks.
    throughput_ratio: f64,
    /// Batch over streaming wall time, one per round.
    throughput_ratios: Vec<f64>,
}

/// Rounds per scale: each times the streaming lane, then the batch lane.
const ROUNDS: usize = 5;

#[derive(Debug, Serialize)]
struct StreamBenchReport {
    mode: String,
    dim: usize,
    scales: Vec<Scale>,
    /// max/min streaming peak across scales — 1.0 is perfectly flat.
    streaming_peak_spread: f64,
    /// batch peak at the largest scale over the smallest — linear growth
    /// tracks the record ratio.
    batch_peak_growth: f64,
}

fn schema() -> RecordSchema {
    RecordSchema::new(vec![
        FeatureSpec::continuous("glucose", 56.0, 198.0),
        FeatureSpec::continuous("bmi", 18.0, 50.0),
        FeatureSpec::continuous("age", 21.0, 81.0),
        FeatureSpec::binary("on_insulin"),
    ])
}

/// The seeded record generator both lanes replay: fills `values` with the
/// `i`-th synthetic patient and returns its label.
fn generate(rng: &mut SplitMix64, i: usize, values: &mut Vec<f64>) -> usize {
    values.push(56.0 + rng.next_f64() * 142.0);
    values.push(18.0 + rng.next_f64() * 32.0);
    values.push(21.0 + rng.next_f64() * 60.0);
    values.push(f64::from(rng.next_bounded(2) as u32));
    i % 2
}

/// The middle value of `values` (the upper one of an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Streaming lane: records are generated, encoded, and absorbed one
/// micro-batch at a time; nothing is retained but the accumulators.
/// Returns the wall time, the peak resident bytes and the accumulators.
fn stream_lane(
    encoder: &RecordEncoder,
    n: usize,
    seed: u64,
) -> Result<(f64, u64, ClassAccumulators), HdcError> {
    obs::reset();
    let mut rng = SplitMix64::new(seed);
    let mut produced = 0usize;
    let mut stream = FnStream::new(|values: &mut Vec<f64>| {
        if produced >= n {
            return None;
        }
        let label = generate(&mut rng, produced, values);
        produced += 1;
        Some(label)
    });
    let mut sink = ClassAccumulatorSink::new(encoder.dim());
    let start = Instant::now();
    StreamEncoder::new(encoder).encode_stream(&mut stream, &mut sink)?;
    let secs = start.elapsed().as_secs_f64();
    let peak = obs::gauge_value("hdc/stream_peak_bytes");
    Ok((secs, peak, sink.into_accumulators()))
}

/// Batch lane: materialize everything, then encode, then accumulate —
/// the replaced pipeline shape. Returns what [`stream_lane`] does.
fn batch_lane(
    encoder: &RecordEncoder,
    n: usize,
    seed: u64,
) -> Result<(f64, u64, ClassAccumulators), HdcError> {
    obs::reset();
    let mut rng = SplitMix64::new(seed);
    let start = Instant::now();
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let mut values = Vec::with_capacity(4);
        labels.push(generate(&mut rng, i, &mut values));
        rows.push(values);
    }
    let encoded = encoder.encode_batch(&rows)?;
    let mut batched = ClassAccumulators::new(encoder.dim());
    for (hv, &label) in encoded.iter().zip(&labels) {
        batched.grow(label)?;
        batched.add(label, hv, 1);
    }
    let secs = start.elapsed().as_secs_f64();
    let peak = obs::gauge_value("hdc/batch_peak_bytes");
    Ok((secs, peak, batched))
}

/// The streaming pipeline is a restructuring, not an approximation: its
/// accumulators must be bit-identical to batch.
fn assert_identical(streamed: &ClassAccumulators, batched: &ClassAccumulators, n: usize) {
    assert_eq!(
        streamed.n_classes(),
        batched.n_classes(),
        "class counts diverged at scale {n}"
    );
    for c in 0..streamed.n_classes() {
        assert_eq!(
            streamed.prototype(c),
            batched.prototype(c),
            "streaming and batch prototypes diverged for class {c} at scale {n}"
        );
    }
}

fn run_scale(encoder: &RecordEncoder, n: usize, seed: u64) -> Result<Scale, HdcError> {
    let mut stream_secs = Vec::with_capacity(ROUNDS);
    let mut batch_secs = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    let (mut stream_peak, mut batch_peak) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let (s_secs, s_peak, streamed) = stream_lane(encoder, n, seed)?;
        let (b_secs, b_peak, batched) = batch_lane(encoder, n, seed)?;
        assert_identical(&streamed, &batched, n);
        ratios.push(b_secs / s_secs.max(1e-12));
        stream_secs.push(s_secs);
        batch_secs.push(b_secs);
        stream_peak = stream_peak.max(s_peak);
        batch_peak = batch_peak.max(b_peak);
    }
    let lane = |secs: &[f64], peak_bytes: u64| {
        let wall_secs = median(secs);
        Lane {
            records_per_sec: n as f64 / wall_secs.max(1e-12),
            wall_secs,
            peak_bytes,
        }
    };
    let scale = Scale {
        records: n,
        streaming: lane(&stream_secs, stream_peak),
        batch: lane(&batch_secs, batch_peak),
        throughput_ratio: median(&ratios),
        throughput_ratios: ratios,
    };
    Ok(scale)
}

fn main() {
    let mut quick = false;
    let mut gate = false;
    let mut seed = 7u64;
    let mut out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs a number");
                        exit(2);
                    });
                i += 1;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(
                    || {
                        eprintln!("--out needs a path");
                        exit(2);
                    },
                )));
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: stream_bench [--quick] [--gate] [--seed N] [--out PATH]");
                exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(2);
            }
        }
        i += 1;
    }

    // Full scale keeps the batch lane's materialized cohort around 0.25 GB
    // (1M × 2048 bits); quick is CI-sized.
    let (dim, scales): (usize, &[usize]) = if quick {
        (1_024, &[20_000, 100_000])
    } else {
        (2_048, &[100_000, 1_000_000])
    };
    let encoder = RecordEncoder::new(Dim::new(dim), schema(), seed).unwrap_or_else(|e| {
        eprintln!("stream_bench: encoder construction failed: {e}");
        exit(1);
    });

    let mut results = Vec::new();
    for &n in scales {
        let scale = run_scale(&encoder, n, seed).unwrap_or_else(|e| {
            eprintln!("stream_bench: scale {n} failed: {e}");
            exit(1);
        });
        eprintln!(
            "scale {n}: streaming {:.0} rec/s (peak {} B) vs batch {:.0} rec/s (peak {} B), \
             median ratio {:.2} of {:.2?}",
            scale.streaming.records_per_sec,
            scale.streaming.peak_bytes,
            scale.batch.records_per_sec,
            scale.batch.peak_bytes,
            scale.throughput_ratio,
            scale.throughput_ratios,
        );
        results.push(scale);
    }

    let stream_peaks: Vec<u64> = results.iter().map(|s| s.streaming.peak_bytes).collect();
    let peak_spread = stream_peaks.iter().max().copied().unwrap_or(0) as f64
        / (stream_peaks.iter().min().copied().unwrap_or(0).max(1)) as f64;
    // lint: index-ok (scales always holds two entries)
    let batch_growth = results[results.len() - 1].batch.peak_bytes as f64
        / results[0].batch.peak_bytes.max(1) as f64;
    let report = StreamBenchReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        dim,
        scales: results,
        streaming_peak_spread: peak_spread,
        batch_peak_growth: batch_growth,
    };

    let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
        eprintln!("stream_bench: serialisation failed: {e}");
        exit(1);
    });
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("(stream bench written to {})", path.display());
        }
        None => println!("{json}"),
    }

    if gate {
        let mut failures = Vec::new();
        if peak_spread > 1.10 {
            failures.push(format!(
                "streaming peak memory is not flat: max/min spread {peak_spread:.3} > 1.10"
            ));
        }
        let record_ratio =
            report.scales[report.scales.len() - 1].records as f64 / report.scales[0].records as f64;
        if batch_growth < record_ratio * 0.5 {
            failures.push(format!(
                "batch peak grew only {batch_growth:.2}× over a {record_ratio:.0}× cohort — \
                 the baseline stopped materializing, the comparison is broken"
            ));
        }
        for s in &report.scales {
            if s.throughput_ratio < 0.8 {
                failures.push(format!(
                    "median streaming throughput at {} records is {:.2}× batch (< 0.8×)",
                    s.records, s.throughput_ratio
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("GATE FAILURE: {f}");
            }
            exit(1);
        }
        println!(
            "gate: streaming peak flat ({peak_spread:.3}× spread), batch grew {batch_growth:.1}×, \
             median throughput >= 0.8× batch at every scale"
        );
    }
}
