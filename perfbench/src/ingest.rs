//! `ingest`: streaming appends with a rolling snapshot after every flush.
//!
//! Why: the write side of the serving plane. Set-up builds, saves and
//! reopens a 20,000-record store in five shards and sets its shard
//! capacity to 4,096 rows. The caller then streams fresh raw records
//! through the extractor's `transform_stream` into a `StoreAppendSink`
//! with a snapshot directory: every 256 records the sink appends them and
//! runs `save_dirty`, which rewrites the open shard (and, after a roll,
//! every shard). Append, class accumulation and the snapshot take most of
//! the time; encoding is a small share. No k-NN scan runs, so this is the
//! bypass for query-side changes.
//!
//! Each step of the timed phase streams 16,384 records (64 flushes, four
//! shard rolls) into a store reopened from a fresh copy of the base
//! snapshot, so every step does the same work however long the run is.
//! The reset is not timed.
//!
//! Stresses `core.extractor` (stream encode), `serve.ingest` and
//! `serve.snapshot`; bypasses `serve.admission`, LOOCV and SGD.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hyperfex::{HdcFeatureExtractor, TableStream};
use hyperfex_data::Table;
use hyperfex_hdc::stream::{StreamSink, DEFAULT_MICRO_BATCH};
use hyperfex_hdc::{BinaryHypervector, Dim, HdcError};
use hyperfex_serve::{HvStore, StoreAppendSink};

use crate::cohort::{derive_seed, pima_like};
use crate::harness::{repeat_setup, Args, Fallible, Phase, Report, ScratchDir, Steps, Stopwatch};
use crate::layers::{median_store_times, report_end_to_end, Layers};
use crate::trace::Recorder;

const BASE_RECORDS: usize = 20_000;
const BASE_SHARDS: usize = 5;
const SHARD_CAPACITY: usize = 4_096;
/// `StoreAppendSink::new` flushes every this many records.
const FLUSH_RECORDS: usize = DEFAULT_MICRO_BATCH;
const STEP_RECORDS: usize = 16_384;
const WARM_UP_RECORDS: usize = 1_024;
/// Queries compared between the reopened and the in-memory store.
const CHECK_QUERIES: usize = 16;

struct State {
    extractor: HdcFeatureExtractor,
    fresh: Table,
    base_dir: PathBuf,
    work_dir: PathBuf,
}

/// Returns the state and its store's `[build, save, open]` seconds.
fn setup(seed: u64, dir: &ScratchDir) -> Fallible<(State, [f64; 3])> {
    let base_table = pima_like(BASE_RECORDS, derive_seed(seed, 1))?;
    let fresh = pima_like(STEP_RECORDS, derive_seed(seed, 2))?;
    let mut extractor = HdcFeatureExtractor::new(Dim::PAPER, seed);
    extractor.fit(&base_table, None)?;
    let bank = extractor.transform(&base_table, None)?;
    let base_dir = dir.path().join("base");

    let t = Instant::now();
    let mut store = HvStore::build(&bank, base_table.labels(), BASE_SHARDS)?;
    let build_s = t.elapsed().as_secs_f64();
    drop(bank);
    let t = Instant::now();
    store.save(&base_dir)?;
    let save_s = t.elapsed().as_secs_f64();
    drop(store);
    let t = Instant::now();
    let (base, recovery) = HvStore::open(&base_dir)?;
    let open_s = t.elapsed().as_secs_f64();
    if !(recovery.is_complete() && recovery.quarantined.is_empty()) {
        return Err(format!("fresh snapshot did not reopen cleanly: {recovery:?}").into());
    }
    drop(base);

    let state = State {
        extractor,
        fresh,
        base_dir,
        work_dir: dir.path().join("work"),
    };
    // Warm-up: a short untimed stream, including one shard roll.
    let rows: Vec<usize> = (0..WARM_UP_RECORDS).collect();
    let mut store = state.reset()?;
    if !stream(&state, &mut store, Some(&rows), &mut Recorder::new(), 0)?.complete {
        return Err("the warm-up stream failed".into());
    }
    Ok((state, [build_s, save_s, open_s]))
}

impl State {
    /// Resets the work directory to a copy of the base snapshot and
    /// reopens the store from it, with the ingest shard capacity.
    fn reset(&self) -> Fallible<HvStore> {
        if self.work_dir.exists() {
            std::fs::remove_dir_all(&self.work_dir)?;
        }
        copy_dir(&self.base_dir, &self.work_dir)?;
        let (mut store, recovery) = HvStore::open(&self.work_dir)?;
        if !recovery.quarantined.is_empty() {
            return Err(
                format!("the base snapshot copy did not reopen cleanly: {recovery:?}").into(),
            );
        }
        store.set_shard_capacity(SHARD_CAPACITY);
        Ok(store)
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// What one step's stream observed.
#[derive(Default)]
struct StepLog {
    /// Wall time from the previous flush's end (or the stream's start) to
    /// this flush's end: encode, buffering, append and snapshot.
    cycle_ms: Vec<f64>,
    /// Records made durable: appended and snapshotted.
    durable: usize,
    shards_rolled: usize,
    /// Whether the stream ran to its end.
    complete: bool,
}

/// A sink that forwards to the store's append sink and times the absorbs
/// that flush. `StoreAppendSink::new` flushes on every
/// `FLUSH_RECORDS`-th absorb; the count of records appended confirms it.
struct FlushClock<'a, 'r> {
    inner: StoreAppendSink<'a>,
    rec: &'r mut Recorder,
    first_flush: u64,
    absorbed: usize,
    last_end: Instant,
    cycle_ms: Vec<f64>,
}

impl StreamSink for FlushClock<'_, '_> {
    fn absorb(&mut self, seq: usize, label: usize, hv: &BinaryHypervector) -> Result<(), HdcError> {
        self.absorbed += 1;
        if !self.absorbed.is_multiple_of(FLUSH_RECORDS) {
            return self.inner.absorb(seq, label, hv);
        }
        let flush = self.first_flush + (self.absorbed / FLUSH_RECORDS - 1) as u64;
        let span = self.rec.begin("serve.ingest.flush", flush);
        let result = self.inner.absorb(seq, label, hv);
        self.rec.end(span);
        let now = Instant::now();
        self.cycle_ms
            .push((now - self.last_end).as_secs_f64() * 1e3);
        self.last_end = now;
        if result.is_ok() && self.inner.records_appended() != self.absorbed {
            return Err(HdcError::InvalidConfig(format!(
                "expected a flush at record {}, but {} records are appended",
                self.absorbed,
                self.inner.records_appended()
            )));
        }
        result
    }
}

/// Streams `rows` of the fresh table (all when `None`) into `store`. A
/// stream that fails part-way is reported in the log, not as an error, so
/// the flushes it did make durable still count.
fn stream(
    state: &State,
    store: &mut HvStore,
    rows: Option<&[usize]>,
    rec: &mut Recorder,
    step_index: u64,
) -> Fallible<StepLog> {
    let mut records = TableStream::new(&state.fresh, rows)?;
    let first_flush = step_index * (STEP_RECORDS / FLUSH_RECORDS) as u64;
    let span = rec.begin("core.extractor.transform_stream", step_index);
    let mut sink = FlushClock {
        inner: StoreAppendSink::new(store).with_snapshot_dir(&state.work_dir),
        rec,
        first_flush,
        absorbed: 0,
        last_end: Instant::now(),
        cycle_ms: Vec::new(),
    };
    let streamed = state.extractor.transform_stream(&mut records, &mut sink);
    let FlushClock {
        inner,
        rec,
        cycle_ms,
        ..
    } = sink;
    rec.end(span);
    let durable = inner.records_appended();
    let shards_rolled = inner.shards_rolled();
    // Every stream ends on a flush boundary, so `finish` has nothing left
    // to write; it is called because the sink's contract asks for it.
    let finished = inner.finish();
    Ok(StepLog {
        cycle_ms,
        durable,
        shards_rolled,
        complete: streamed.is_ok() && finished.is_ok(),
    })
}

struct Run<'s> {
    state: &'s State,
    store: HvStore,
    last: StepLog,
    attempted: u64,
    failed: u64,
    traced_flushes: u64,
    traced_rolls: u64,
}

impl Steps for Run<'_> {
    /// Resets the store and its snapshot directory, and drops the
    /// previous step's store, outside the measured window.
    fn prepare(&mut self) -> Fallible<()> {
        self.store = self.state.reset()?;
        Ok(())
    }

    fn step(
        &mut self,
        rec: &mut Recorder,
        index: u64,
        traced: bool,
        op_ms: &mut Vec<f64>,
    ) -> Fallible<u64> {
        let log = stream(self.state, &mut self.store, None, rec, index)?;
        op_ms.extend_from_slice(&log.cycle_ms);
        let flushes = (STEP_RECORDS / FLUSH_RECORDS) as u64;
        self.attempted += flushes;
        self.failed += flushes - (log.durable / FLUSH_RECORDS) as u64;
        if traced {
            self.traced_flushes += log.cycle_ms.len() as u64;
            self.traced_rolls += log.shards_rolled as u64;
        }
        let durable = log.durable as u64;
        self.last = log;
        Ok(durable)
    }
}

pub fn run(args: &Args, process_start: Stopwatch) -> Fallible<Report> {
    let dir = ScratchDir::new(&args.out, "ingest")?;
    let mut store_times = Vec::new();
    let (state, setup_s) = repeat_setup(process_start, || {
        let (state, times) = setup(args.seed, &dir)?;
        store_times.push(times);
        Ok(state)
    })?;

    let mut rec = Recorder::new();
    let mut run = Run {
        state: &state,
        store: HvStore::new_empty(Dim::PAPER, SHARD_CAPACITY)?,
        last: StepLog::default(),
        attempted: 0,
        failed: 0,
        traced_flushes: 0,
        traced_rolls: 0,
    };
    let phase = Phase::run(args.seconds, args.trace, &mut rec, &mut run)?;
    let peak_rss_mb = crate::procfs::peak_rss_mb();
    let Run {
        store,
        last,
        attempted,
        failed,
        traced_flushes,
        traced_rolls,
        ..
    } = run;

    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    check(&state, &store, &last, &mut report)?;
    report.note(format!(
        "workload ingest: {BASE_RECORDS}-record base in {BASE_SHARDS} shards at {} bits, \
         capacity {SHARD_CAPACITY}, {STEP_RECORDS} records per step, flush every {FLUSH_RECORDS}",
        Dim::PAPER.get()
    ));
    report.note(format!("host steal share {:.4}", phase.host_steal_share));

    if args.trace {
        let wall = phase.traced.lap.wall_s;
        let flush_ms = rec.durations_ms("serve.ingest.flush");
        report.note_latency("serve.ingest.flush", "ms", &flush_ms);
        Layers {
            encode_share: rec.self_seconds("core.extractor") / wall,
            flush_ms_p50: flush_ms.median(),
            flush_share: rec.self_seconds("serve.ingest.flush") / wall,
            flushes: traced_flushes,
            shards_rolled: traced_rolls,
            store_s: median_store_times(&store_times),
            ..Layers::default()
        }
        .report(&mut report, &phase);
        let path = args.out.join(format!("trace-ingest-{}.json", args.seed));
        rec.write_json(&path, "ingest", args.seed)?;
    } else {
        report_end_to_end(&mut report, &phase, &setup_s, peak_rss_mb);
    }
    Ok(report)
}

/// The last step's snapshot must reopen complete and equal the in-memory
/// store it was written from.
fn check(state: &State, store: &HvStore, last: &StepLog, report: &mut Report) -> Fallible<()> {
    report.check("the last step streamed every record", last.complete);
    let (reopened, recovery) = HvStore::open(&state.work_dir)?;
    report.check(
        format!(
            "snapshot reopens complete with no quarantine ({} of {} shards kept)",
            recovery.kept.len(),
            recovery.total_shards
        ),
        recovery.is_complete()
            && recovery.quarantined.is_empty()
            && recovery.accumulators_recovered,
    );
    let rows = BASE_RECORDS + last.durable;
    report.check(
        format!(
            "rows = base + appended: {} reopened, {} in memory, {rows} expected",
            reopened.n_rows(),
            store.n_rows()
        ),
        reopened.n_rows() == rows && store.n_rows() == rows,
    );
    let class_total: i64 = reopened
        .accumulators()
        .map_or(0, |a| a.parts().1.iter().map(|&t| i64::from(t)).sum());
    report.check(
        format!("accumulator class totals sum to {class_total}, the row count"),
        usize::try_from(class_total) == Ok(rows),
    );
    let sample: Vec<usize> = (0..CHECK_QUERIES).map(|i| i * 997 % STEP_RECORDS).collect();
    let queries = state.extractor.transform(&state.fresh, Some(&sample))?;
    let same = reopened.predict_batch(&queries, 5)? == store.predict_batch(&queries, 5)?;
    report.check(
        format!("reopened and in-memory stores predict {CHECK_QUERIES} sampled records alike"),
        same && reopened == *store,
    );
    Ok(())
}
