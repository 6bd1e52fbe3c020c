//! `paper`: the source paper's own pipeline at 10,000 bits.
//!
//! Why: this is what the paper measures. Each round encodes Pima R (392
//! records), Pima M (768) and Sylhet (520) with `fit_transform` and runs
//! 1-NN leave-one-out validation on each — "there's no model that needs to
//! be built, we only need to measure distances" — then fits SGD on the
//! packed hypervectors of the Pima M 80/20 stratified split and scores the
//! held-out fifth, calling the extractor, `to_bit_matrix` and
//! `Estimator::fit_features` / `predict_features` directly as
//! `HybridClassifier` does. The serial LOOCV and the SGD fit (which shares
//! `masked_weight_sum` with logistic regression) take most of a round.
//!
//! The SGD fit stops early once its loss settles, so its cost depends on
//! the data: about ±10 % between seeds. Rounds therefore cycle through
//! [`VARIANTS`] cohorts drawn from the run's seed, and a run's figures
//! average over them rather than following one draw.
//!
//! Stresses `core.extractor`, `hdc.loocv` and `ml.sgd`; bypasses the
//! store, admission and snapshots.

use std::time::Instant;

use hyperfex::experiments::Datasets;
use hyperfex::HdcFeatureExtractor;
use hyperfex_data::split::{stratified_split, SplitFractions};
use hyperfex_data::Table;
use hyperfex_hdc::classify::LeaveOneOut;
use hyperfex_hdc::{BinaryHypervector, Dim};
use hyperfex_ml::linear::{SgdClassifier, SgdParams};
use hyperfex_ml::{Estimator, Features};

use crate::cohort::derive_seed;
use crate::harness::{repeat_setup, Args, Fallible, Phase, Report, Steps, Stopwatch};
use crate::layers::{report_end_to_end, Layers};
use crate::oracle;
use crate::trace::Recorder;

const VARIANTS: usize = 8;
const LOOCV_SPANS: [&str; 3] = ["hdc.loocv.pima_r", "hdc.loocv.pima_m", "hdc.loocv.sylhet"];
const NAMES: [&str; 3] = ["Pima R", "Pima M", "Sylhet"];

/// One draw of the three cohorts, with the Pima M split for SGD.
struct Variant {
    seed: u64,
    data: Datasets,
    train: Vec<usize>,
    test: Vec<usize>,
    y_train: Vec<usize>,
}

/// One round's predictions, kept to check against the oracles and against
/// every other round on the same variant.
#[derive(PartialEq)]
struct RoundResult {
    loocv: [Vec<usize>; 3],
    sgd: Vec<usize>,
}

impl Variant {
    fn new(seed: u64) -> Fallible<Self> {
        let data = Datasets::generate(seed)?;
        let split = stratified_split(&data.pima_m, SplitFractions::train_test(0.8), seed)?;
        let y_train = split
            .train
            .iter()
            .map(|&i| data.pima_m.labels()[i])
            .collect();
        Ok(Self {
            seed,
            data,
            train: split.train,
            test: split.test,
            y_train,
        })
    }

    fn tables(&self) -> [&Table; 3] {
        [&self.data.pima_r, &self.data.pima_m, &self.data.sylhet]
    }

    /// LOOCV rows classified plus SGD rows fitted and scored.
    fn records(&self) -> u64 {
        let loocv: usize = self.tables().iter().map(|t| t.n_rows()).sum();
        (loocv + self.train.len() + self.test.len()) as u64
    }
}

fn setup(seed: u64) -> Fallible<Vec<Variant>> {
    let variants = (0..VARIANTS as u64)
        .map(|v| Variant::new(derive_seed(seed, v)))
        .collect::<Fallible<Vec<_>>>()?;
    // Warm-up: one untimed round.
    round(&variants[0], &mut Recorder::new(), 0)?;
    Ok(variants)
}

fn round(variant: &Variant, rec: &mut Recorder, id: u64) -> Fallible<RoundResult> {
    let mut loocv: [Vec<usize>; 3] = Default::default();
    for (i, table) in variant.tables().into_iter().enumerate() {
        let span = rec.begin("core.extractor.fit_transform", id);
        let hvs = encode(variant, table)?;
        rec.end(span);
        let span = rec.begin(LOOCV_SPANS[i], id);
        let outcome = LeaveOneOut::new().run(&hvs, table.labels())?;
        rec.end(span);
        loocv[i] = outcome.predictions;
    }

    let pima_m = &variant.data.pima_m;
    let mut extractor = HdcFeatureExtractor::new(Dim::PAPER, variant.seed);
    let span = rec.begin("core.extractor.fit", id);
    extractor.fit(pima_m, Some(&variant.train))?;
    rec.end(span);
    let train_bits = encode_packed(&extractor, pima_m, &variant.train, rec, id)?;
    let mut model = SgdClassifier::new(SgdParams {
        seed: variant.seed,
        ..SgdParams::default()
    });
    let span = rec.begin("ml.sgd.fit", id);
    model.fit_features(&Features::Packed(&train_bits), &variant.y_train)?;
    rec.end(span);
    let test_bits = encode_packed(&extractor, pima_m, &variant.test, rec, id)?;
    let span = rec.begin("ml.sgd.predict", id);
    let sgd = model.predict_features(&Features::Packed(&test_bits))?;
    rec.end(span);
    Ok(RoundResult { loocv, sgd })
}

/// The LOOCV encode: fit on the whole cohort, then transform it.
fn encode(variant: &Variant, table: &Table) -> Fallible<Vec<BinaryHypervector>> {
    Ok(HdcFeatureExtractor::new(Dim::PAPER, variant.seed).fit_transform(table)?)
}

fn encode_packed(
    extractor: &HdcFeatureExtractor,
    table: &Table,
    rows: &[usize],
    rec: &mut Recorder,
    id: u64,
) -> Fallible<hyperfex_hdc::BitMatrix> {
    let span = rec.begin("core.extractor.transform", id);
    let hvs = extractor.transform(table, Some(rows))?;
    rec.end(span);
    let span = rec.begin("core.extractor.to_bit_matrix", id);
    let bits = HdcFeatureExtractor::to_bit_matrix(&hvs)?;
    rec.end(span);
    Ok(bits)
}

struct Run<'s> {
    variants: &'s [Variant],
    /// The first result on each variant.
    first: Vec<Option<RoundResult>>,
    rounds: u64,
    differing_rounds: u64,
}

impl Steps for Run<'_> {
    fn step(
        &mut self,
        rec: &mut Recorder,
        index: u64,
        _: bool,
        op_ms: &mut Vec<f64>,
    ) -> Fallible<u64> {
        // Two rounds per variant, so a traced run traces one round of each
        // and leaves the other untraced.
        let v = (index / 2 % VARIANTS as u64) as usize;
        let t0 = Instant::now();
        let result = round(&self.variants[v], rec, index)?;
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.rounds += 1;
        match &self.first[v] {
            None => self.first[v] = Some(result),
            Some(first) if *first != result => self.differing_rounds += 1,
            Some(_) => {}
        }
        Ok(self.variants[v].records())
    }
}

pub fn run(args: &Args, process_start: Stopwatch) -> Fallible<Report> {
    let (variants, setup_s) = repeat_setup(process_start, || setup(args.seed))?;
    let mut rec = Recorder::new();
    let mut run = Run {
        variants: &variants,
        first: (0..VARIANTS).map(|_| None).collect(),
        rounds: 0,
        differing_rounds: 0,
    };
    let phase = Phase::run(args.seconds, args.trace, &mut rec, &mut run)?;
    let peak_rss_mb = crate::procfs::peak_rss_mb();

    let mut report = Report {
        attempted: run.rounds,
        failed: run.differing_rounds,
        ..Report::default()
    };
    report.check(
        format!(
            "every round's outputs equal the first round's on the same cohorts ({} differ)",
            run.differing_rounds
        ),
        run.differing_rounds == 0,
    );
    let checked: Vec<_> = variants
        .iter()
        .zip(&run.first)
        .filter_map(|(v, first)| Some((v, first.as_ref()?)))
        .collect();
    check(&checked, &mut report)?;
    report.note(format!(
        "workload paper: Pima R, Pima M and Sylhet LOOCV plus SGD on the Pima M 80/20 split, \
         {} bits, {} records per round, rounds cycling through {VARIANTS} cohort draws",
        Dim::PAPER.get(),
        variants[0].records()
    ));
    report.note(format!("host steal share {:.4}", phase.host_steal_share));

    if args.trace {
        let wall = phase.traced.lap.wall_s;
        let encode = rec.self_seconds("core.extractor") / wall;
        let loocv = rec.self_seconds("hdc.loocv") / wall;
        let sgd = rec.self_seconds("ml.sgd") / wall;
        let sum = encode + loocv + sgd;
        report.check(
            format!("layer shares sum to {sum:.4} of the traced wall time (0.9..=1.05)"),
            (0.9..=1.05).contains(&sum),
        );
        let loocv_ms = LOOCV_SPANS.map(|name| rec.durations_ms(name));
        for (name, samples) in LOOCV_SPANS.iter().zip(&loocv_ms) {
            report.note_latency(name, "ms", samples);
        }
        let fit_ms = rec.durations_ms("ml.sgd.fit");
        let predict_ms = rec.durations_ms("ml.sgd.predict");
        report.note_latency("ml.sgd.fit", "ms", &fit_ms);
        report.note_latency("ml.sgd.predict", "ms", &predict_ms);
        Layers {
            encode_ms_p50: rec.durations_ms("core.extractor.transform").median(),
            encode_share: encode,
            loocv_ms: loocv_ms.map(|s| s.median()),
            loocv_share: loocv,
            sgd_fit_ms: fit_ms.median(),
            sgd_predict_ms: predict_ms.median(),
            sgd_share: sgd,
            ..Layers::default()
        }
        .report(&mut report, &phase);
        let path = args.out.join(format!("trace-paper-{}.json", args.seed));
        rec.write_json(&path, "paper", args.seed)?;
    } else {
        report_end_to_end(&mut report, &phase, &setup_s, peak_rss_mb);
    }
    Ok(report)
}

/// On every cohort draw a round ran on, LOOCV must equal brute-force 1-NN
/// (over the same deterministic encode, redone here so the timed phase
/// holds no copy of it) with the lowest index winning ties. Over the
/// held-out fifths of all those draws together, SGD must beat always
/// answering each draw's majority class. The check pools the draws
/// because SGD's early stop sometimes settles on a weak model: on 2 of 160
/// draws a single 154-row split scored a few rows under the majority rate,
/// while a broken fit or predict would score near it on all of them.
fn check(results: &[(&Variant, &RoundResult)], report: &mut Report) -> Fallible<()> {
    for (i, name) in NAMES.iter().enumerate() {
        let (mut rows, mut differ) = (0, 0);
        for (variant, result) in results {
            let table = variant.tables()[i];
            let want = oracle::loocv_1nn(&encode(variant, table)?, table.labels());
            rows += want.len();
            differ += want
                .iter()
                .zip(&result.loocv[i])
                .filter(|(a, b)| a != b)
                .count();
            differ += want.len().abs_diff(result.loocv[i].len());
        }
        report.check(
            format!(
                "{name} LOOCV matches brute-force 1-NN on {rows} rows of {} cohort draws, \
                 {differ} differ",
                results.len()
            ),
            differ == 0 && rows > 0,
        );
    }
    let mut scores = Vec::new();
    for (variant, result) in results {
        let labels = variant.data.pima_m.labels();
        let y_test: Vec<usize> = variant.test.iter().map(|&i| labels[i]).collect();
        let correct = y_test
            .iter()
            .zip(&result.sgd)
            .filter(|(a, b)| a == b)
            .count();
        let positives = y_test.iter().filter(|&&y| y == 1).count();
        scores.push((
            correct,
            positives.max(y_test.len() - positives),
            y_test.len(),
        ));
    }
    let correct: usize = scores.iter().map(|s| s.0).sum();
    let majority: usize = scores.iter().map(|s| s.1).sum();
    let rows: usize = scores.iter().map(|s| s.2).sum();
    report.check(
        format!(
            "SGD held-out accuracy {correct}/{rows} beats the majority class, {majority}/{rows}, \
             over {} cohort draws; per draw (correct, majority, rows): {scores:?}",
            scores.len()
        ),
        rows > 0 && correct > majority,
    );
    Ok(())
}
