//! Shared scaffolding for the experiment binaries (`table1` … `table5`,
//! `ablation_dim`): flag parsing, dataset loading (synthetic generators or
//! user-supplied real CSVs), and report output.

use hyperfex::experiments::{Datasets, ExperimentConfig};
use hyperfex::prelude::*;
use hyperfex_eval::TableReport;
use serde::Serialize;
use std::path::PathBuf;
use std::process::exit;

/// Parsed command-line options shared by every binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Preset and overrides folded into one config.
    pub config: ExperimentConfig,
    /// Optional real Pima CSV path.
    pub pima_csv: Option<PathBuf>,
    /// Optional real Sylhet CSV path.
    pub sylhet_csv: Option<PathBuf>,
    /// Where to write the JSON report.
    pub json_out: Option<PathBuf>,
    /// Directory for multi-file report artifacts (`pareto_distill`).
    pub out_dir: Option<PathBuf>,
    /// Run in CI-gate mode: check thresholds and exit nonzero on breach.
    pub gate: bool,
}

impl Cli {
    /// Parses `std::env::args`, exiting with usage on error. Flags:
    ///
    /// * `--quick` / `--paper` — preset configurations
    /// * `--dim N`, `--seed N`, `--repeats N`, `--folds N`
    /// * `--pima-csv PATH`, `--sylhet-csv PATH` — use real data
    /// * `--json PATH` — also write the table as JSON
    /// * `--out DIR` — directory for multi-file artifacts
    /// * `--gate` — CI-gate mode (exit nonzero on threshold breach)
    #[must_use]
    pub fn parse(binary: &str) -> Self {
        let mut cli = Cli {
            config: ExperimentConfig::default(),
            pima_csv: None,
            sylhet_csv: None,
            json_out: None,
            out_dir: None,
            gate: false,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = || -> String {
                args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    exit(2);
                })
            };
            match args[i].as_str() {
                "--quick" => cli.config = ExperimentConfig::quick(),
                "--paper" => cli.config = ExperimentConfig::paper(),
                "--dim" => {
                    cli.config.dim = parse_num(&value());
                    i += 1;
                }
                "--seed" => {
                    cli.config.seed = parse_num(&value()) as u64;
                    i += 1;
                }
                "--repeats" => {
                    cli.config.repeats = parse_num(&value());
                    i += 1;
                }
                "--folds" => {
                    cli.config.k_folds = parse_num(&value());
                    i += 1;
                }
                "--pima-csv" => {
                    cli.pima_csv = Some(PathBuf::from(value()));
                    i += 1;
                }
                "--sylhet-csv" => {
                    cli.sylhet_csv = Some(PathBuf::from(value()));
                    i += 1;
                }
                "--json" => {
                    cli.json_out = Some(PathBuf::from(value()));
                    i += 1;
                }
                "--out" => {
                    cli.out_dir = Some(PathBuf::from(value()));
                    i += 1;
                }
                "--gate" => cli.gate = true,
                "--help" | "-h" => {
                    println!(
                        "usage: {binary} [--quick|--paper] [--dim N] [--seed N] [--repeats N] \
                         [--folds N] [--pima-csv PATH] [--sylhet-csv PATH] [--json PATH] \
                         [--out DIR] [--gate]"
                    );
                    exit(0);
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    exit(2);
                }
            }
            i += 1;
        }
        cli
    }

    /// Materialises the three datasets: synthetic by default, real CSVs
    /// when provided.
    pub fn datasets(&self) -> Result<Datasets, HyperfexError> {
        let mut datasets = Datasets::generate(self.config.seed)?;
        if let Some(path) = &self.pima_csv {
            let raw = hyperfex_data::csv::load_pima_csv(path)?;
            datasets.pima_r = drop_missing(&raw);
            datasets.pima_m = impute_class_median(&raw)?;
        }
        if let Some(path) = &self.sylhet_csv {
            datasets.sylhet = hyperfex_data::csv::load_sylhet_csv(path)?;
        }
        Ok(datasets)
    }

    /// Prints the report and optionally writes JSON.
    pub fn emit(&self, report: &TableReport) {
        println!("{}", report.render());
        self.write_json(report);
    }

    /// [`Cli::emit`] for several reports: each is printed, and `--json`
    /// gets all of them as one array, where one `emit` per report would
    /// leave only the last in the file.
    pub fn emit_all(&self, reports: &[TableReport]) {
        for report in reports {
            println!("{}", report.render());
        }
        self.write_json(reports);
    }

    /// [`Cli::emit_all`] for reports with wall-clock columns: the tables go
    /// to stderr, so stdout keeps only what a fixed seed reproduces.
    pub fn emit_timed(&self, reports: &[TableReport]) {
        for report in reports {
            eprintln!("{}", report.render());
        }
        self.write_json(reports);
    }

    fn write_json(&self, value: &(impl Serialize + ?Sized)) {
        if let Some(path) = &self.json_out {
            match hyperfex_eval::report::write_json(path, value) {
                Ok(()) => println!("(json written to {})", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{s}`");
        exit(2);
    })
}

/// Exits with a readable message on pipeline errors.
pub fn fail(e: HyperfexError) -> ! {
    eprintln!("experiment failed: {e}");
    exit(1);
}
