//! Serving-plane throughput and recovery benchmark for `cargo xtask bench`.
//!
//! Builds a synthetic cohort, measures snapshot write/open wall time,
//! steady-state batch k-NN prediction throughput (after one untimed
//! predict), and recovery time when a quarter of the shards are
//! destroyed. Emits one flat JSON object (hand-formatted — this crate
//! carries no serde dependency) that `cargo xtask bench` folds into
//! `BENCH_4.json` under the `serve` key.
//!
//! Flags: `--quick` (small cohort for CI), `--seed N`, `--out PATH`
//! (default: stdout). The full profile serves one million records, the
//! scale the paper's cohort would reach as a population-level screen.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use hyperfex_hdc::binary::Dim;
use hyperfex_serve::{HvStore, ServeError, SyntheticCohort};

struct Profile {
    mode: &'static str,
    dim: usize,
    records: usize,
    queries: usize,
    shards: usize,
}

const QUICK: Profile = Profile {
    mode: "quick",
    dim: 2048,
    records: 20_000,
    queries: 256,
    shards: 8,
};

const FULL: Profile = Profile {
    mode: "full",
    dim: 2048,
    records: 1_000_000,
    queries: 256,
    shards: 16,
};

struct BenchRow {
    mode: &'static str,
    dim: usize,
    records: usize,
    queries: usize,
    shards: usize,
    build_secs: f64,
    snapshot_write_secs: f64,
    snapshot_open_secs: f64,
    recovery_open_secs: f64,
    predictions_per_sec: f64,
    append_records_per_sec: f64,
    dirty_snapshot_secs: f64,
    dirty_shards_written: usize,
}

impl BenchRow {
    /// Flat JSON object; keys follow the bench-compare suffix convention
    /// (`_per_sec` higher-is-better, `_secs` lower-is-better).
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"dim\": {},\n  \"records\": {},\n  \
             \"queries\": {},\n  \"shards\": {},\n  \"build_secs\": {:.6},\n  \
             \"snapshot_write_secs\": {:.6},\n  \"snapshot_open_secs\": {:.6},\n  \
             \"recovery_open_secs\": {:.6},\n  \"predictions_per_sec\": {:.3},\n  \
             \"append_records_per_sec\": {:.3},\n  \"dirty_snapshot_secs\": {:.6},\n  \
             \"dirty_shards_written\": {}\n}}",
            self.mode,
            self.dim,
            self.records,
            self.queries,
            self.shards,
            self.build_secs,
            self.snapshot_write_secs,
            self.snapshot_open_secs,
            self.recovery_open_secs,
            self.predictions_per_sec,
            self.append_records_per_sec,
            self.dirty_snapshot_secs,
            self.dirty_shards_written,
        )
    }
}

fn main() {
    let mut quick = false;
    let mut seed = 7u64;
    let mut out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args.get(i).map(String::as_str) {
            Some("--quick") => quick = true,
            Some("--seed") => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs a number");
                        exit(2);
                    });
                i += 1;
            }
            Some("--out") => {
                out = Some(PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(
                    || {
                        eprintln!("--out needs a path");
                        exit(2);
                    },
                )));
                i += 1;
            }
            Some("--help" | "-h") => {
                println!("usage: serve_bench [--quick] [--seed N] [--out PATH]");
                exit(0);
            }
            Some(other) => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(2);
            }
            None => break,
        }
        i += 1;
    }

    let profile = if quick { QUICK } else { FULL };
    let row = match run(&profile, seed) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("serve_bench failed: {e}");
            exit(1);
        }
    };
    let json = row.to_json();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("(serve bench written to {})", path.display());
        }
        None => println!("{json}"),
    }
}

fn run(profile: &Profile, seed: u64) -> Result<BenchRow, ServeError> {
    let dim = Dim::try_new(profile.dim)?;
    let cohort = SyntheticCohort::generate(dim, 2, profile.records, profile.dim / 8, seed)?;

    let t = Instant::now();
    let mut store = HvStore::build(&cohort.records, &cohort.labels, profile.shards)?;
    let build_secs = t.elapsed().as_secs_f64();

    let dir = std::env::temp_dir().join(format!("hyperfex-serve-bench-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));

    let t = Instant::now();
    store.save(&dir)?;
    let snapshot_write_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (reopened, report) = HvStore::open(&dir)?;
    let snapshot_open_secs = t.elapsed().as_secs_f64();
    if !report.quarantined.is_empty() || reopened.n_rows() != profile.records {
        return Err(ServeError::ShardConflict {
            detail: format!(
                "clean reopen lost rows: {} of {} recovered, {} quarantined",
                reopened.n_rows(),
                profile.records,
                report.quarantined.len()
            ),
        });
    }

    // Replace every fourth shard file with junk and time recovery.
    let paths = HvStore::shard_paths(&dir)?;
    for path in paths.iter().step_by(4) {
        std::fs::write(path, [0u8; 16]).map_err(|e| ServeError::io(path, &e))?;
    }
    let t = Instant::now();
    let (_, report) = HvStore::open(&dir)?;
    let recovery_open_secs = t.elapsed().as_secs_f64();
    let expected_victims = paths.iter().step_by(4).count();
    if report.quarantined.len() != expected_victims || !report.is_complete() {
        return Err(ServeError::ShardConflict {
            detail: format!(
                "recovery accounting is off: {} quarantined, expected {expected_victims}",
                report.quarantined.len()
            ),
        });
    }

    // The first predict on a reopened store chooses the k-NN pivots and
    // builds their tables; run it untimed, so the timed one measures
    // steady-state serving.
    let queries = &cohort.records[..profile.queries.min(cohort.records.len())];
    reopened.predict_batch(queries, 5)?;
    let t = Instant::now();
    let predictions = reopened.predict_batch(queries, 5)?;
    let predict_secs = t.elapsed().as_secs_f64();

    // Incremental ingest: stream a 10% tail into the recovered store in
    // micro-batch-sized appends, then roll a dirty snapshot. The append
    // rolls at least one new shard, and the shard files junked above are
    // rewritten whole; every other shard only takes an appended batch.
    let mut reopened = reopened;
    let tail = (profile.records / 10).max(1);
    let t = Instant::now();
    for chunk_start in (0..tail).step_by(1024) {
        let chunk = chunk_start..(chunk_start + 1024).min(tail);
        reopened.append_batch(&cohort.records[chunk.clone()], &cohort.labels[chunk])?;
    }
    let append_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dirty_shards_written = reopened.save_dirty(&dir)?;
    let dirty_snapshot_secs = t.elapsed().as_secs_f64();
    let (checked, report) = HvStore::open(&dir)?;
    if !report.quarantined.is_empty() || checked.n_rows() != profile.records + tail {
        return Err(ServeError::ShardConflict {
            detail: format!(
                "rolling snapshot lost rows: {} of {} recovered, {} quarantined",
                checked.n_rows(),
                profile.records + tail,
                report.quarantined.len()
            ),
        });
    }

    drop(std::fs::remove_dir_all(&dir));
    Ok(BenchRow {
        mode: profile.mode,
        dim: profile.dim,
        records: profile.records,
        queries: predictions.len(),
        shards: profile.shards,
        build_secs,
        snapshot_write_secs,
        snapshot_open_secs,
        recovery_open_secs,
        predictions_per_sec: predictions.len() as f64 / predict_secs.max(1e-12),
        append_records_per_sec: tail as f64 / append_secs.max(1e-12),
        dirty_snapshot_secs,
        dirty_shards_written,
    })
}
