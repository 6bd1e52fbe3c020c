//! Ablations beyond the paper's tables:
//!
//! * **Dimensionality sweep** — §II remarks that 20k/30k bits showed "not
//!   much improvement" over 10k in informal experiments; this makes the
//!   experiment formal (accuracy and encode+classify wall time per
//!   dimensionality).
//! * **Classifier variants** — 1-NN vs k-NN vs bundled class prototypes
//!   (with and without perceptron retraining), quantifying the design
//!   choice the paper made in §II-C.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use crate::hamming::HammingModel;
use hyperfex_data::Table;
use hyperfex_eval::report::{pct, TableReport};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::{
    fit_pocketed, ClassAccumulators, LeaveOneOut, OnlineTrainer, PerceptronTrainer,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One dimensionality sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DimSweepPoint {
    /// Hypervector bits.
    pub dim: usize,
    /// Hamming LOOCV accuracy.
    pub accuracy: f64,
    /// Wall time (encode + LOOCV) in milliseconds.
    pub millis: f64,
}

/// Sweeps Hamming LOOCV accuracy and cost over dimensionalities.
pub fn dimensionality_sweep(
    table: &Table,
    dims: &[usize],
    seed: u64,
) -> Result<Vec<DimSweepPoint>, HyperfexError> {
    let mut out = Vec::with_capacity(dims.len());
    for &d in dims {
        let start = Instant::now();
        let outcome = HammingModel::new(Dim::new(d), seed).evaluate_loocv(table)?;
        let millis = start.elapsed().as_secs_f64() * 1e3;
        out.push(DimSweepPoint {
            dim: d,
            accuracy: outcome.accuracy(),
            millis,
        });
    }
    Ok(out)
}

/// Renders a sweep as a report table.
#[must_use]
pub fn sweep_report(points: &[DimSweepPoint], dataset_label: &str) -> TableReport {
    let mut t = TableReport::new(
        format!("Dimensionality ablation — Hamming LOOCV on {dataset_label}"),
        &["Bits", "Accuracy", "Wall time (ms)"],
    );
    for p in points {
        t.push_row(vec![
            p.dim.to_string(),
            pct(p.accuracy),
            format!("{:.1}", p.millis),
        ]);
    }
    t
}

/// One encoding-resolution sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolutionPoint {
    /// Number of quantization levels (`None` = the paper's continuous
    /// formula encoding).
    pub levels: Option<usize>,
    /// Hamming LOOCV accuracy.
    pub accuracy: f64,
}

/// Sweeps Hamming LOOCV accuracy over encoding resolutions: how many
/// discrete value levels does the clinical pipeline actually need? (The
/// HDC literature's answer — surprisingly few — is a design margin the
/// paper's formula encoding leaves implicit.)
pub fn resolution_sweep(
    table: &Table,
    dim: Dim,
    levels: &[usize],
    seed: u64,
) -> Result<Vec<ResolutionPoint>, HyperfexError> {
    let labels = table.labels();
    let mut out = Vec::with_capacity(levels.len() + 1);
    for &l in levels {
        let mut extractor = HdcFeatureExtractor::new(dim, seed).with_levels(l);
        let hvs = extractor.fit_transform(table)?;
        let accuracy = LeaveOneOut::new().run(&hvs, labels)?.accuracy();
        out.push(ResolutionPoint {
            levels: Some(l),
            accuracy,
        });
    }
    let mut extractor = HdcFeatureExtractor::new(dim, seed);
    let hvs = extractor.fit_transform(table)?;
    out.push(ResolutionPoint {
        levels: None,
        accuracy: LeaveOneOut::new().run(&hvs, labels)?.accuracy(),
    });
    Ok(out)
}

/// Accuracy of the HDC classifier variants on one dataset (LOOCV for the
/// k-NN family; train-on-all/evaluate-on-all for prototypes, which is the
/// standard HDC-literature protocol for centroid models on small data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantAblation {
    /// 1-NN Hamming (the paper's model).
    pub one_nn: f64,
    /// 3-NN Hamming.
    pub three_nn: f64,
    /// 5-NN Hamming.
    pub five_nn: f64,
    /// Single-pass bundled class prototypes.
    pub centroid: f64,
    /// Prototypes after pocketed perceptron retraining.
    pub centroid_retrained: f64,
}

/// Runs the classifier-variant ablation.
pub fn classifier_variants(
    table: &Table,
    dim: Dim,
    seed: u64,
) -> Result<VariantAblation, HyperfexError> {
    let mut extractor = HdcFeatureExtractor::new(dim, seed);
    let hvs = extractor.fit_transform(table)?;
    let labels = table.labels();
    let knn = |k: usize| -> Result<f64, HyperfexError> {
        Ok(LeaveOneOut::with_k(k)?.run(&hvs, labels)?.accuracy())
    };
    let accuracy = |predictions: Vec<usize>| {
        let correct = predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / labels.len() as f64
    };
    let mut bundled = ClassAccumulators::new(dim);
    bundled.add_batch(&hvs, labels)?;
    let bundled_predictions = hvs
        .iter()
        .map(|hv| bundled.predict(hv))
        .collect::<Result<Vec<_>, _>>()?;
    let mut retrained = PerceptronTrainer::new(dim);
    fit_pocketed(&mut retrained, &hvs, labels, 20)?;
    Ok(VariantAblation {
        one_nn: knn(1)?,
        three_nn: knn(3)?,
        five_nn: knn(5)?,
        centroid: accuracy(bundled_predictions),
        centroid_retrained: accuracy(retrained.predict_batch(&hvs)?),
    })
}

/// Distance-metric comparison (§II-C: "While euclidean distance could
/// also be used, computing hamming distances on binary vectors is more
/// straightforward"): LOOCV 1-NN accuracy under Hamming on hypervectors vs
/// Euclidean on raw features vs Euclidean on min-max-scaled features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistanceComparison {
    /// Hamming 1-NN on hypervectors (the paper's model).
    pub hamming_hv: f64,
    /// Euclidean 1-NN on raw features.
    pub euclidean_raw: f64,
    /// Euclidean 1-NN on min-max-scaled features.
    pub euclidean_scaled: f64,
}

/// Runs the distance-metric comparison.
pub fn distance_metrics(
    table: &Table,
    dim: Dim,
    seed: u64,
) -> Result<DistanceComparison, HyperfexError> {
    let hamming_hv = HammingModel::new(dim, seed)
        .evaluate_loocv(table)?
        .accuracy();

    let euclidean_loocv = |x: &hyperfex_ml::Matrix| -> f64 {
        let labels = table.labels();
        let n = x.n_rows();
        let mut correct = 0usize;
        for i in 0..n {
            let mut best = (f32::INFINITY, 0usize);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let d = hyperfex_ml::Matrix::squared_distance(x.row(i), x.row(j));
                if d < best.0 {
                    best = (d, j);
                }
            }
            if labels[best.1] == labels[i] {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    };

    let raw = crate::experiments::raw_features(table)?;
    let mut scaler = hyperfex_ml::preprocessing::MinMaxScaler::new();
    let scaled = scaler.fit_transform(&raw)?;
    Ok(DistanceComparison {
        hamming_hv,
        euclidean_raw: euclidean_loocv(&raw),
        euclidean_scaled: euclidean_loocv(&scaled),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn cohort() -> Table {
        sylhet::generate(&SylhetConfig {
            n_positive: 40,
            n_negative: 30,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn sweep_accuracy_saturates_with_dimensionality() {
        let table = cohort();
        let points = dimensionality_sweep(&table, &[64, 512, 2_048], 3).unwrap();
        assert_eq!(points.len(), 3);
        // Accuracy at 2k bits should be at least that of 64 bits (noise
        // floor) and runtime should grow with dimensionality.
        assert!(points[2].accuracy >= points[0].accuracy - 0.05);
        assert!(points[2].millis > 0.0);
        let report = sweep_report(&points, "mini-Sylhet");
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn resolution_sweep_converges_to_continuous() {
        // Use a Pima-style continuous cohort (quantization is a no-op on
        // the mostly-binary Sylhet schema).
        let pima = hyperfex_data::pima::generate(&hyperfex_data::pima::PimaConfig {
            n_negative: 60,
            n_positive: 40,
            complete_cases: (50, 35),
            ..Default::default()
        })
        .unwrap();
        let table = hyperfex_data::impute::drop_missing(&pima);
        let points = resolution_sweep(&table, Dim::new(1_024), &[2, 16, 128], 5).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[3].levels, None);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy), "{p:?}");
        }
        // High-resolution quantization should track the continuous encoder
        // closely; 2 levels loses information.
        let fine = points[2].accuracy;
        let continuous = points[3].accuracy;
        assert!(
            (fine - continuous).abs() < 0.12,
            "128 levels ({fine}) should be near continuous ({continuous})"
        );
    }

    #[test]
    fn variants_are_all_above_chance() {
        let table = cohort();
        let v = classifier_variants(&table, Dim::new(1_024), 7).unwrap();
        for (name, acc) in [
            ("1nn", v.one_nn),
            ("3nn", v.three_nn),
            ("5nn", v.five_nn),
            ("centroid", v.centroid),
            ("retrained", v.centroid_retrained),
        ] {
            assert!(acc > 0.55, "{name} accuracy {acc}");
        }
        assert!(v.centroid_retrained >= v.centroid - 1e-9);
    }

    #[test]
    fn distance_comparison_runs_and_hamming_is_competitive() {
        let table = cohort();
        let c = distance_metrics(&table, Dim::new(1_024), 3).unwrap();
        for v in [c.hamming_hv, c.euclidean_raw, c.euclidean_scaled] {
            assert!((0.0..=1.0).contains(&v));
        }
        // Hamming on hypervectors should at least rival Euclidean 1-NN on
        // the raw mixed-scale features (where age dominates the metric).
        assert!(
            c.hamming_hv >= c.euclidean_raw - 0.05,
            "hamming {} vs euclidean-raw {}",
            c.hamming_hv,
            c.euclidean_raw
        );
    }
}
