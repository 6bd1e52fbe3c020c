//! `query`: k-NN requests against a reopened 8-shard store at 10,000 bits.
//!
//! Why: the read side of the serving plane. One closed-loop caller sends
//! held-out patient rows through the extractor's `transform`, then
//! `BatchFrontend::submit` and `drain` (k = 5): seven 1-record requests,
//! then one 32-record request, repeating. The shard scan behind `drain`
//! takes most of each request. The single-record requests set
//! `latency_p50_ms` and pay the per-call thread spawns of the parallel
//! scan; the 32-record requests carry most of the records and so set
//! `records_per_s`. A runtime fix and a scan-kernel fix therefore each
//! show on their own metric. No file is written in the timed phase, so
//! system CPU time here is thread start-up, not I/O.
//!
//! Stresses `core.extractor` (record encode), `serve.admission` (queue and
//! scan) and the thread runtime; bypasses ingest, snapshots and LOOCV.

use std::time::Instant;

use hyperfex::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::Dim;
use hyperfex_serve::{AdmissionConfig, BatchFrontend, Deadline, HvStore};

use crate::cohort::{derive_seed, pima_like};
use crate::harness::{repeat_setup, Args, Fallible, Phase, Report, ScratchDir, Steps, Stopwatch};
use crate::layers::{median_store_times, report_end_to_end, Layers};
use crate::oracle;
use crate::trace::Recorder;

const BANK_RECORDS: usize = 20_000;
const HELD_OUT_RECORDS: usize = 4_096;
const SHARDS: usize = 8;
const K: usize = 5;
/// One step of the timed phase: seven 1-record requests, one 32-record.
const REQUEST_SIZES: [usize; 8] = [1, 1, 1, 1, 1, 1, 1, 32];
/// Most requests checked against the brute-force oracle.
const MAX_CHECKED: usize = 48;

struct State {
    extractor: HdcFeatureExtractor,
    held_out: Table,
    frontend: BatchFrontend,
    /// The records the store was built from, for the oracle.
    bank_table: Table,
    next_row: usize,
}

/// What the caller observed beyond the measured windows.
struct Log {
    attempted: u64,
    failed: u64,
    /// Picks the requests to check, each with probability 1/16.
    picker: SplitMix64,
    /// (held-out rows, predictions) of the requests picked for checking.
    checked: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Log {
    fn new(seed: u64) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            picker: SplitMix64::new(seed),
            checked: Vec::new(),
        }
    }
}

/// Returns the state and its store's `[build, save, open]` seconds.
fn setup(seed: u64, dir: &ScratchDir) -> Fallible<(State, [f64; 3])> {
    let bank_table = pima_like(BANK_RECORDS, derive_seed(seed, 1))?;
    let held_out = pima_like(HELD_OUT_RECORDS, derive_seed(seed, 2))?;
    let mut extractor = HdcFeatureExtractor::new(Dim::PAPER, seed);
    extractor.fit(&bank_table, None)?;
    let bank = extractor.transform(&bank_table, None)?;

    let t = Instant::now();
    let mut store = HvStore::build(&bank, bank_table.labels(), SHARDS)?;
    let build_s = t.elapsed().as_secs_f64();
    drop(bank);
    let t = Instant::now();
    store.save(dir.path())?;
    let save_s = t.elapsed().as_secs_f64();
    drop(store);
    let t = Instant::now();
    let (store, recovery) = HvStore::open(dir.path())?;
    let open_s = t.elapsed().as_secs_f64();
    if !(recovery.is_complete() && recovery.quarantined.is_empty()) {
        return Err(format!("fresh snapshot did not reopen cleanly: {recovery:?}").into());
    }

    let mut state = State {
        extractor,
        held_out,
        frontend: BatchFrontend::new(store, AdmissionConfig::default()),
        bank_table,
        next_row: 0,
    };
    // Warm-up: one untimed step.
    step(
        &mut state,
        &mut Recorder::new(),
        0,
        &mut Log::new(0),
        &mut Vec::new(),
    )?;
    Ok((state, [build_s, save_s, open_s]))
}

/// Sends one step's requests; returns the records answered.
fn step(
    state: &mut State,
    rec: &mut Recorder,
    step_index: u64,
    log: &mut Log,
    op_ms: &mut Vec<f64>,
) -> Fallible<u64> {
    let mut answered = 0u64;
    for (i, &size) in REQUEST_SIZES.iter().enumerate() {
        let request = step_index * REQUEST_SIZES.len() as u64 + i as u64;
        let rows: Vec<usize> = (0..size)
            .map(|j| (state.next_row + j) % HELD_OUT_RECORDS)
            .collect();
        state.next_row = (state.next_row + size) % HELD_OUT_RECORDS;
        log.attempted += 1;

        let t0 = Instant::now();
        let span = rec.begin("core.extractor.transform", request);
        let queries = state.extractor.transform(&state.held_out, Some(&rows));
        rec.end(span);
        let Ok(queries) = queries else {
            log.failed += 1;
            continue;
        };
        let span = rec.begin("serve.admission.submit", request);
        let id = state.frontend.submit(queries, K, Deadline::None);
        rec.end(span);
        let Ok(id) = id else {
            log.failed += 1;
            continue;
        };
        let span = rec.begin("serve.admission.drain", request);
        let done = state.frontend.drain();
        rec.end(span);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

        match done.as_slice() {
            [c] if c.request == id && c.outcome.as_ref().is_ok_and(|l| l.len() == size) => {
                answered += size as u64;
                op_ms.push(elapsed_ms);
                if log.picker.next_u64().is_multiple_of(16) && log.checked.len() < MAX_CHECKED {
                    let labels = c.outcome.clone().unwrap_or_default();
                    log.checked.push((rows, labels));
                }
            }
            _ => log.failed += 1,
        }
    }
    Ok(answered)
}

struct Run {
    state: State,
    log: Log,
}

impl Steps for Run {
    fn step(
        &mut self,
        rec: &mut Recorder,
        index: u64,
        _: bool,
        op_ms: &mut Vec<f64>,
    ) -> Fallible<u64> {
        step(&mut self.state, rec, index, &mut self.log, op_ms)
    }
}

pub fn run(args: &Args, process_start: Stopwatch) -> Fallible<Report> {
    let dir = ScratchDir::new(&args.out, "query")?;
    let mut store_times = Vec::new();
    let (state, setup_s) = repeat_setup(process_start, || {
        let (state, times) = setup(args.seed, &dir)?;
        store_times.push(times);
        Ok(state)
    })?;

    let mut rec = Recorder::new();
    let mut run = Run {
        state,
        log: Log::new(derive_seed(args.seed, 3)),
    };
    let phase = Phase::run(args.seconds, args.trace, &mut rec, &mut run)?;
    let peak_rss_mb = crate::procfs::peak_rss_mb();
    let Run { state, log } = run;

    let mut report = Report {
        attempted: log.attempted,
        failed: log.failed,
        ..Report::default()
    };
    check(&state, &log, &mut report)?;
    report.note(format!(
        "workload query: {BANK_RECORDS} records in {SHARDS} shards at {} bits, k = {K}, \
         requests of {REQUEST_SIZES:?} records",
        Dim::PAPER.get()
    ));
    report.note(format!("host steal share {:.4}", phase.host_steal_share));

    if args.trace {
        let wall = phase.traced.lap.wall_s;
        let encode = rec.self_seconds("core.extractor") / wall;
        let submit = rec.self_seconds("serve.admission.submit") / wall;
        let drain = rec.self_seconds("serve.admission.drain") / wall;
        let sum = encode + submit + drain;
        report.check(
            format!("layer shares sum to {sum:.4} of the traced wall time (0.9..=1.05)"),
            (0.9..=1.05).contains(&sum),
        );
        let encode_ms = rec.durations_ms("core.extractor.transform");
        let submit_ms = rec.durations_ms("serve.admission.submit");
        let drain_ms = rec.durations_ms("serve.admission.drain");
        report.note_latency("core.extractor.transform", "ms", &encode_ms);
        report.note_latency("serve.admission.submit", "ms", &submit_ms);
        report.note_latency("serve.admission.drain", "ms", &drain_ms);
        Layers {
            encode_ms_p50: encode_ms.median(),
            encode_share: encode,
            submit_us_p50: submit_ms.median() * 1e3,
            drain_ms_p50: drain_ms.median(),
            drain_share: drain,
            store_s: median_store_times(&store_times),
            ..Layers::default()
        }
        .report(&mut report, &phase);
        let path = args.out.join(format!("trace-query-{}.json", args.seed));
        rec.write_json(&path, "query", args.seed)?;
    } else {
        report_end_to_end(&mut report, &phase, &setup_s, peak_rss_mb);
    }
    Ok(report)
}

/// Each checked request's predictions must equal the brute-force top-5
/// vote over the bank the store was built from (encoded again here, so the
/// timed phase holds no second copy of it).
fn check(state: &State, log: &Log, report: &mut Report) -> Fallible<()> {
    let bank = state.extractor.transform(&state.bank_table, None)?;
    let labels = state.bank_table.labels();
    let mut mismatches = 0usize;
    let mut queries = 0usize;
    for (rows, predicted) in &log.checked {
        let hvs = state.extractor.transform(&state.held_out, Some(rows))?;
        for (hv, &got) in hvs.iter().zip(predicted) {
            queries += 1;
            if oracle::knn_vote(&bank, labels, hv, K) != got {
                mismatches += 1;
            }
        }
    }
    report.check(
        format!(
            "{} sampled requests ({queries} queries) match the brute-force top-{K} vote, \
             {mismatches} mismatches",
            log.checked.len()
        ),
        mismatches == 0 && !log.checked.is_empty(),
    );
    Ok(())
}
