//! Degradation curves under storage bit faults: the HDC fault-tolerance
//! claim, measured.
//!
//! For each dataset the sweep encodes every record once per
//! dimensionality, then for each bit-flip rate *p* corrupts a fresh copy
//! of the hypervector store with [`hyperfex_faults::storage::degrade_store`]
//! and reruns Hamming 1-NN LOOCV. The raw-feature baselines (logistic
//! regression, random forest) face the same adversary on their own
//! storage format: each `f32` feature word has its bits flipped at the
//! same rate *p*. Non-finite values produced by flipped exponent bits are
//! sanitised to 0.0 — float models have no quarantine path, which is part
//! of the comparison.
//!
//! Rate 0 must reproduce the uninjected LOOCV confusion counts
//! bit-exactly (the injector draws no randomness at p = 0); the shape of
//! the curve — smooth decay toward the ~0.5 chance floor at p = 0.5 —
//! is regression-tested in `tests/reproduction_shapes.rs`.

use hyperfex::experiments::{raw_features, ExperimentConfig};
use hyperfex::models::{make_model, ModelKind};
use hyperfex::prelude::*;
use hyperfex_eval::cv::cross_validate;
use hyperfex_eval::TableReport;
use hyperfex_experiments::{fail, Cli};
use hyperfex_faults::storage;
use hyperfex_hdc::classify::{LeaveOneOut, LoocvOutcome};
use hyperfex_hdc::rng::SplitMix64;

/// Bit-flip rates swept, from pristine to coin-flip storage.
const RATES: [f64; 11] = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];

const BASELINE_FOLDS: usize = 3;

fn main() {
    let cli = Cli::parse("robustness");
    let datasets = cli.datasets().unwrap_or_else(|e| fail(e));
    // --quick sweeps one small dimensionality; the default matches the
    // issue spec (degradation at 2,000 and 10,000 bits).
    let dims: &[usize] = if cli.config.dim == ExperimentConfig::quick().dim {
        &[512]
    } else {
        &[2_000, 10_000]
    };

    let reports: Vec<TableReport> = [("Pima R", &datasets.pima_r), ("Syhlet", &datasets.sylhet)]
        .into_iter()
        .map(|(label, table)| sweep(label, table, dims, &cli).unwrap_or_else(|e| fail(e)))
        .collect();
    cli.emit_all(&reports);
}

fn sweep(
    label: &str,
    table: &Table,
    dims: &[usize],
    cli: &Cli,
) -> Result<TableReport, HyperfexError> {
    let seed = cli.config.seed;

    // Encode once per dimensionality; every rate corrupts a fresh copy.
    let mut stores = Vec::new();
    let mut uninjected = Vec::new();
    {
        let _span = hyperfex::obs::span("robustness/encode");
        for &dim in dims {
            let mut extractor = HdcFeatureExtractor::new(Dim::new(dim), seed);
            let hvs = extractor.fit_transform(table)?;
            let clean = LeaveOneOut::new().run(&hvs, table.labels())?;
            uninjected.push(clean);
            stores.push(hvs);
        }
    }

    let mut headers: Vec<String> = vec!["flip rate p".to_string()];
    for &dim in dims {
        headers.push(format!("Hamming acc @{dim}"));
        headers.push(format!("tp/tn/fp/fn @{dim}"));
    }
    headers.push("LogReg acc (raw f32)".to_string());
    headers.push("Forest acc (raw f32)".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = TableReport::new(
        format!("Robustness: {label} LOOCV accuracy under storage bit flips (seed {seed})"),
        &header_refs,
    );

    let mut row = vec!["uninjected".to_string()];
    for clean in &uninjected {
        row.push(format!("{:.4}", clean.accuracy()));
        row.push(counts(clean));
    }
    row.push("-".to_string());
    row.push("-".to_string());
    report.push_row(row);

    for (ri, &rate) in RATES.iter().enumerate() {
        let mut row = vec![format!("{rate:.3}")];
        {
            let _span = hyperfex::obs::span("robustness/degrade_loocv");
            for (di, hvs) in stores.iter().enumerate() {
                let mut store = hvs.clone();
                // Per-(dim, rate) seed keeps every cell of the sweep
                // independently reproducible.
                let flip_seed = SplitMix64::new(seed)
                    .derive(0xF11A, (di * RATES.len() + ri) as u64)
                    .next_u64();
                storage::degrade_store(&mut store, rate, flip_seed).map_err(HyperfexError::from)?;
                let outcome = LeaveOneOut::new().run(&store, table.labels())?;
                hyperfex::obs::counter_add("robustness/cells_evaluated", 1);
                row.push(format!("{:.4}", outcome.accuracy()));
                row.push(counts(&outcome));
            }
        }
        let _span = hyperfex::obs::span("robustness/baselines");
        for kind in [ModelKind::LogisticRegression, ModelKind::RandomForest] {
            let features = corrupted_raw_features(table, rate, seed ^ 0xF32)?;
            let cv = cross_validate(table, &features, BASELINE_FOLDS, seed, &|| {
                make_model(kind, seed, &cli.config.budget)
            })?;
            row.push(format!("{:.4}", cv.test_accuracy));
        }
        report.push_row(row);
    }
    Ok(report)
}

fn counts(outcome: &LoocvOutcome) -> String {
    match outcome.binary_counts() {
        Some((tp, tn, fp, fn_)) => format!("{tp}/{tn}/{fp}/{fn_}"),
        None => "-".to_string(),
    }
}

/// Raw features with each `f32` storage bit flipped at rate `rate`.
fn corrupted_raw_features(table: &Table, rate: f64, seed: u64) -> Result<Matrix, HyperfexError> {
    let mut rows = table.rows().to_vec();
    let root = SplitMix64::new(seed);
    for (i, row) in rows.iter_mut().enumerate() {
        let mut rng = root.derive(0xF10A7, i as u64);
        for v in row.iter_mut() {
            let mut bits = (*v as f32).to_bits();
            if rate > 0.0 {
                for b in 0..32 {
                    if rng.next_f64() < rate {
                        bits ^= 1u32 << b;
                    }
                }
            }
            let flipped = f32::from_bits(bits);
            // Float models cannot quarantine a NaN/inf cell; sanitise so
            // the baseline keeps running (see module docs).
            *v = if flipped.is_finite() {
                f64::from(flipped)
            } else {
                0.0
            };
        }
    }
    let corrupted = Table::new(table.columns().to_vec(), rows, table.labels().to_vec())?;
    raw_features(&corrupted)
}
