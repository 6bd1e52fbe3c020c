//! Chaos property test: seeded random fault plans over both synthetic
//! cohorts. Registered by `hyperfex-faults` behind `fault-injection`:
//!
//! ```text
//! cargo test -p hyperfex-faults --features fault-injection
//! ```
//!
//! The property under test has three clauses:
//!
//! 1. **No panics.** Whatever a plan injects — corrupted cells, label
//!    noise, truncation, bit flips, mid-pipeline failpoints — the pipeline
//!    finishes with `Ok` or a typed error.
//! 2. **Honest quarantine accounting.** Whenever the lenient path
//!    succeeds, kept + quarantined rows add up to the rows attempted, and
//!    the LOOCV outcome covers exactly the survivors.
//! 3. **Byte-identical replay.** Running the same plan twice produces the
//!    same transcript, down to every count and accuracy digit.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use hyperfex::prelude::*;
use hyperfex_faults::{registry, FaultPlan};
use hyperfex_hdc::classify::{LeaveOneOut, OnlineTrainer, PerceptronTrainer};

const N_PLANS: u64 = 16;
const DIM: usize = 256;

/// Serialises this file's tests. The failpoint hooks are global to the
/// process, and most tests impute, encode or train before (or after) they
/// hold their own `registry::install`; run beside another test's armed
/// rules, those calls would fire its faults or advance its hit counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the file's test lock; a test that failed while holding it does
/// not stop the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cohorts() -> Vec<(&'static str, Table)> {
    let pima = pima::generate(&PimaConfig {
        n_negative: 90,
        n_positive: 60,
        complete_cases: (70, 45),
        ..Default::default()
    })
    .unwrap();
    let sylhet = sylhet::generate(&SylhetConfig {
        n_positive: 70,
        n_negative: 50,
        ..Default::default()
    })
    .unwrap();
    vec![("pima", pima), ("sylhet", sylhet)]
}

/// Runs the whole pipeline under one fault plan and returns a transcript.
/// Every fallible step is allowed to fail *typed*; a panic anywhere fails
/// the test. The transcript captures every observable outcome so replay
/// comparison is byte-exact.
fn run_pipeline(name: &str, base: &Table, plan: &FaultPlan) -> String {
    let mut log = format!("== {name} seed {} ==\n", plan.seed);

    // Data layer: corrupt the table.
    let corrupted = match plan.apply_table(base) {
        Ok(t) => t,
        Err(e) => {
            writeln!(log, "apply_table: error: {e}").unwrap();
            return log;
        }
    };
    writeln!(
        log,
        "table: rows={} missing={}",
        corrupted.n_rows(),
        corrupted.n_missing()
    )
    .unwrap();

    // Pipeline layer: arm the failpoints for everything downstream.
    let _guard =
        registry::install(&plan.fail_rules).expect("random plans arm each seam at most once");

    // Missing-data treatment; an unimputable or injected failure degrades
    // to dropping incomplete rows instead of aborting.
    let prepared = match impute_class_median(&corrupted) {
        Ok(t) => t,
        Err(e) => {
            writeln!(log, "impute: error: {e} (degrading to drop_missing)").unwrap();
            drop_missing(&corrupted)
        }
    };
    writeln!(log, "prepared: rows={}", prepared.n_rows()).unwrap();

    let model = HammingModel::new(Dim::new(DIM), 7);

    // Strict path: may fail typed (injected seams, leftover NaN).
    match model.evaluate_loocv(&prepared) {
        Ok(outcome) => writeln!(
            log,
            "strict: total={} acc={:.6}",
            outcome.total,
            outcome.accuracy()
        )
        .unwrap(),
        Err(e) => writeln!(log, "strict: error: {e}").unwrap(),
    }

    // Lenient path: must quarantine rather than abort on row-level faults.
    match model.evaluate_loocv_lenient(&prepared) {
        Ok(robust) => {
            assert_eq!(
                robust.report.kept() + robust.report.quarantined(),
                robust.report.total(),
                "quarantine accounting must add up"
            );
            assert_eq!(
                robust.kept_rows.len(),
                robust.report.kept(),
                "kept_rows must match the report"
            );
            assert_eq!(
                robust.outcome.total,
                robust.kept_rows.len(),
                "LOOCV must cover exactly the survivors"
            );
            writeln!(
                log,
                "lenient: kept={} quarantined={} acc={:.6}",
                robust.report.kept(),
                robust.report.quarantined(),
                robust.outcome.accuracy()
            )
            .unwrap();
        }
        Err(e) => writeln!(log, "lenient: error: {e}").unwrap(),
    }

    // Storage layer: encode, degrade the stored hypervectors, re-evaluate.
    let mut extractor = HdcFeatureExtractor::new(Dim::new(DIM), 7);
    if let Err(e) = extractor.fit(&prepared, None) {
        writeln!(log, "fit: error: {e}").unwrap();
        return log;
    }
    match extractor.transform_lenient(&prepared, None) {
        Ok(mut lenient) => {
            if let Err(e) = plan.apply_store(&mut lenient.hypervectors) {
                writeln!(log, "apply_store: error: {e}").unwrap();
                return log;
            }
            let labels: Vec<usize> = lenient
                .kept_rows
                .iter()
                .map(|&i| prepared.labels()[i])
                .collect();
            match LeaveOneOut::new().run(&lenient.hypervectors, &labels) {
                Ok(outcome) => writeln!(
                    log,
                    "degraded(p={:.4}): total={} acc={:.6}",
                    plan.flip_rate,
                    outcome.total,
                    outcome.accuracy()
                )
                .unwrap(),
                Err(e) => writeln!(log, "degraded: error: {e}").unwrap(),
            }
            // Online layer: stream the (possibly bit-flipped) store through
            // a perceptron trainer. The `hdc/trainer_partial_fit` seam is
            // armed by the same rule set as everything above.
            let mut trainer = PerceptronTrainer::new(Dim::new(DIM));
            match trainer.partial_fit(&lenient.hypervectors, &labels) {
                Ok(corrections) => writeln!(
                    log,
                    "trainer: classes={} corrections={corrections}",
                    trainer.n_classes()
                )
                .unwrap(),
                Err(e) => writeln!(log, "trainer: error: {e}").unwrap(),
            }
        }
        Err(e) => writeln!(log, "transform: error: {e}").unwrap(),
    }
    log
}

#[test]
fn seeded_fault_plans_never_panic_and_replay_byte_identically() {
    let _serial = serial();
    let cohorts = cohorts();
    let mut injected_somewhere = false;
    for seed in 0..N_PLANS {
        let plan = FaultPlan::random(seed);
        injected_somewhere |= !plan.fail_rules.is_empty() || plan.flip_rate > 0.0;
        for (name, base) in &cohorts {
            let first = run_pipeline(name, base, &plan);
            let second = run_pipeline(name, base, &plan);
            assert_eq!(
                first, second,
                "plan seed {seed} on {name} must replay byte-identically"
            );
        }
    }
    assert!(
        injected_somewhere,
        "the plan generator stopped producing faults — the chaos test is vacuous"
    );
}

#[test]
fn the_none_plan_reproduces_the_clean_pipeline_exactly() {
    let _serial = serial();
    for (name, base) in &cohorts() {
        let treated = impute_class_median(base).unwrap();
        let clean = HammingModel::new(Dim::new(DIM), 7)
            .evaluate_loocv(&treated)
            .unwrap();
        let transcript = run_pipeline(name, base, &FaultPlan::none(0));
        let expected = format!("strict: total={} acc={:.6}", clean.total, clean.accuracy());
        assert!(
            transcript.contains(&expected),
            "{name}: expected `{expected}` in transcript:\n{transcript}"
        );
        assert!(
            transcript.contains(&format!(
                "lenient: kept={} quarantined=0 acc={:.6}",
                clean.total,
                clean.accuracy()
            )),
            "{name}: lenient path must match strict on a clean table:\n{transcript}"
        );
    }
}

#[test]
fn trainer_partial_fit_survives_bit_flip_injection() {
    let _serial = serial();
    let (_, table) = &cohorts()[1];
    let treated = impute_class_median(table).unwrap();
    let mut extractor = HdcFeatureExtractor::new(Dim::new(DIM), 7);
    let mut hvs = extractor.fit_transform(&treated).unwrap();
    // Heavy seeded storage degradation, then several online passes: the
    // trainer must absorb corrupted records without panicking and keep
    // predicting valid classes.
    let mut plan = FaultPlan::none(3);
    plan.flip_rate = 0.25;
    plan.apply_store(&mut hvs).unwrap();
    let mut trainer = PerceptronTrainer::new(Dim::new(DIM));
    for _ in 0..3 {
        trainer.partial_fit(&hvs, treated.labels()).unwrap();
    }
    let predictions = trainer.predict_batch(&hvs).unwrap();
    assert_eq!(predictions.len(), hvs.len());
    assert!(predictions.iter().all(|&p| p < trainer.n_classes()));

    // An armed `hdc/trainer_partial_fit` seam surfaces as a typed error
    // that names the failpoint — never a panic.
    let rules = vec![hyperfex_faults::FailRule {
        point: "hdc/trainer_partial_fit".to_string(),
        action: hyperfex_faults::FaultAction::Fail,
        after: 0,
        times: None,
    }];
    let _guard = registry::install(&rules).expect("rules target distinct seams");
    let err = trainer.partial_fit(&hvs, treated.labels()).unwrap_err();
    assert!(
        err.to_string().contains("hdc/trainer_partial_fit"),
        "error must name the failpoint, got: {err}"
    );
}

#[test]
fn stream_encode_seam_aborts_strict_quarantines_lenient_and_replays() {
    use hyperfex_hdc::stream::CollectSink;

    let _serial = serial();
    let (_, table) = &cohorts()[0];
    let treated = impute_class_median(table).unwrap();
    let mut extractor = HdcFeatureExtractor::new(Dim::new(DIM), 7);
    extractor.fit(&treated, None).unwrap();

    // Fire on records 10, 11, 12 of the stream. The seam is evaluated
    // once per record on the draining thread, so the window is exact.
    let rules = vec![hyperfex_faults::FailRule {
        point: "hdc/stream_encode".to_string(),
        action: hyperfex_faults::FaultAction::Fail,
        after: 10,
        times: Some(3),
    }];

    // Strict: the first injected record aborts the stream with a typed
    // error naming the seam; the sink keeps exactly the records absorbed
    // before the abort.
    {
        let _guard = registry::install(&rules).expect("rules target distinct seams");
        let mut stream = TableStream::new(&treated, None).unwrap();
        let mut sink = CollectSink::new();
        let err = extractor
            .transform_stream(&mut stream, &mut sink)
            .unwrap_err();
        assert!(
            err.to_string().contains("hdc/stream_encode"),
            "error must name the failpoint, got: {err}"
        );
        assert_eq!(sink.labels().len(), 10, "absorbed records stay absorbed");
    }

    // Lenient: injected records are quarantined, the accounting adds up,
    // and the surviving hypervectors are exactly the clean encode minus
    // the quarantined rows.
    let run_lenient = || {
        let _guard = registry::install(&rules).expect("rules target distinct seams");
        let mut stream = TableStream::new(&treated, None).unwrap();
        let mut sink = CollectSink::new();
        let lenient = extractor
            .transform_stream_lenient(&mut stream, &mut sink)
            .unwrap();
        (lenient, sink.into_parts())
    };
    let (outcome, (hvs, labels)) = run_lenient();
    assert_eq!(outcome.report.total(), treated.n_rows());
    assert_eq!(
        outcome.report.kept() + outcome.report.quarantined(),
        outcome.report.total(),
        "quarantine accounting must add up"
    );
    assert_eq!(outcome.report.quarantined(), 3);
    assert_eq!(outcome.absorbed, treated.n_rows() - 3);
    assert_eq!(hvs.len(), outcome.absorbed);
    assert_eq!(labels.len(), outcome.absorbed);

    // Replay is byte-identical: same quarantined rows, same survivors.
    let (outcome2, (hvs2, labels2)) = run_lenient();
    assert_eq!(outcome2.absorbed, outcome.absorbed);
    assert_eq!(hvs2, hvs);
    assert_eq!(labels2, labels);

    // And the survivors match a clean batch encode with the injected
    // rows removed: the fault touches scheduling, never bit patterns.
    let clean = extractor.transform(&treated, None).unwrap();
    let expected: Vec<_> = clean
        .iter()
        .enumerate()
        .filter(|(i, _)| !(10..13).contains(i))
        .map(|(_, hv)| hv.clone())
        .collect();
    assert_eq!(hvs, expected);
}

#[test]
fn injected_failpoints_surface_as_typed_errors() {
    let _serial = serial();
    let (_, table) = &cohorts()[1];
    let treated = impute_class_median(table).unwrap();
    let rules = vec![hyperfex_faults::FailRule {
        point: "hdc/loocv_run".to_string(),
        action: hyperfex_faults::FaultAction::Fail,
        after: 0,
        times: None,
    }];
    let _guard = registry::install(&rules).expect("rules target distinct seams");
    let err = HammingModel::new(Dim::new(DIM), 7)
        .evaluate_loocv(&treated)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("hdc/loocv_run"),
        "error must name the failpoint, got: {msg}"
    );
}
