//! Distillation Pareto sweep: accuracy vs the per-query time of the
//! full-distance Hamming kernel (`hamming_between`) across
//! `{full/10, full/5, 2·full/5, full}` bits × `{ranked, random}` bit
//! selections on both cohorts, written to `reports/pareto.{json,txt}`.
//!
//! With `--gate` the binary doubles as the CI distillation gate: the
//! ranked selection at `full/5` bits (2,000 at paper scale) must stay
//! within 1.0 accuracy point of the full-width LOOCV run, and some
//! qualifying ranked selection must run that kernel 5× faster than full
//! width — on *both* cohorts, or the process exits nonzero. The k-NN
//! scans that serve predictions skip or stop reading a row once it cannot
//! enter the k nearest, so they do not compute full distances, and this
//! is a kernel speedup, not a measured serving speedup.

use hyperfex::experiments::distill::{self, GateOutcome, ParetoSweep};
use hyperfex_experiments::{fail, Cli};
use serde::Serialize;
use std::path::Path;
use std::process::exit;

/// Accuracy budget for the gate width, in percentage points.
const GATE_MAX_DROP_PTS: f64 = 1.0;
/// Full-distance kernel speedup floor for the gate.
const GATE_MIN_SPEEDUP: f64 = 5.0;

/// The whole artifact written to `reports/pareto.json`.
#[derive(Debug, Serialize)]
struct ParetoArtifact {
    full_dim: usize,
    seed: u64,
    gate_bits: usize,
    gate_max_drop_pts: f64,
    gate_min_speedup: f64,
    sweeps: Vec<ParetoSweep>,
    gates: Vec<GateOutcome>,
}

fn main() {
    let cli = Cli::parse("pareto_distill");
    let datasets = cli.datasets().unwrap_or_else(|e| fail(e));
    let full = cli.config.dim;
    let dims = [
        (full / 10).max(1),
        (full / 5).max(1),
        (full * 2 / 5).max(1),
        full,
    ];
    let gate_bits = dims[1];
    let timing_repeats = cli.config.repeats.max(5);

    let mut sweeps = Vec::new();
    let mut gates = Vec::new();
    let mut rendered = String::new();
    for (label, table) in [("Pima R", &datasets.pima_r), ("Sylhet", &datasets.sylhet)] {
        let sweep = distill::pareto_sweep(
            table,
            cli.config.dim(),
            &dims,
            cli.config.seed,
            label,
            timing_repeats,
        )
        .unwrap_or_else(|e| fail(e));
        let report = distill::pareto_report(&sweep).render();
        println!("{report}");
        rendered.push_str(&report);
        rendered.push('\n');
        gates.push(distill::gate(
            &sweep,
            gate_bits,
            GATE_MAX_DROP_PTS,
            GATE_MIN_SPEEDUP,
        ));
        sweeps.push(sweep);
    }

    for outcome in &gates {
        let verdict = if outcome.pass { "PASS" } else { "FAIL" };
        let line = format!("gate [{verdict}] {}: {}", outcome.dataset, outcome.detail);
        println!("{line}");
        rendered.push_str(&line);
        rendered.push('\n');
    }

    let artifact = ParetoArtifact {
        full_dim: full,
        seed: cli.config.seed,
        gate_bits,
        gate_max_drop_pts: GATE_MAX_DROP_PTS,
        gate_min_speedup: GATE_MIN_SPEEDUP,
        sweeps,
        gates,
    };
    let out_dir = cli
        .out_dir
        .clone()
        .unwrap_or_else(|| Path::new("reports").to_path_buf());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        exit(1);
    }
    let json = serde_json::to_string_pretty(&artifact).unwrap_or_else(|e| {
        eprintln!("serialising the pareto artifact failed: {e}");
        exit(1);
    });
    for (name, body) in [("pareto.json", &json), ("pareto.txt", &rendered)] {
        let path = out_dir.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("(written to {})", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
        }
    }

    if cli.gate && !artifact.gates.iter().all(|g| g.pass) {
        eprintln!("distillation gate failed");
        exit(1);
    }
}
