//! End-to-end benchmark of the hyperfex library at the paper's 10,000 bits.
//!
//! ```text
//! hyperfex-perfbench --workload query|ingest|paper --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Each workload is one closed-loop caller with zero think time, timing
//! only calls into the library's public API. Set-up runs three times and
//! `setup_s` is its median; the timed phase then runs whole steps until
//! `--seconds` of measured time have passed; the outputs are checked
//! against reference answers after the timing stops. Wall-clock figures
//! are net of the time the host stole from this machine's vCPUs (see
//! `harness::Stopwatch`). The last line of standard output is one JSON
//! object with the metrics. With `--trace 1` every other step is traced
//! and the run reports per-layer metrics instead of end-to-end ones; the
//! spans go to `DIR/trace-*.json`. A run whose checks fail exits with
//! status 1.
//!
//! The workloads and why each exists are described in their modules and
//! in README.md.

mod cohort;
mod harness;
mod ingest;
mod layers;
mod oracle;
mod paper;
mod procfs;
mod query;
mod stats;
mod trace;

use harness::{Args, Stopwatch};
use std::process::ExitCode;

fn main() -> ExitCode {
    let process_start = Stopwatch::start();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "query" => query::run(&args, process_start),
        "ingest" => ingest::run(&args, process_start),
        "paper" => paper::run(&args, process_start),
        other => {
            eprintln!("error: unknown workload `{other}` (expected query, ingest or paper)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a correctness check failed or an operation failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {} workload failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
