//! Clinical risk scoring (extension of §III-B): a calibrated 0–1 diabetes
//! risk score from class-prototype distances, with online updates for the
//! "regular follow-up visits" scenario the paper sketches.

use crate::error::HyperfexError;
use crate::extractor::HdcFeatureExtractor;
use hyperfex_data::Table;
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::ClassAccumulators;

/// Logistic slope in units of normalized Hamming margin: a 5% bit-margin
/// maps to ≈ 0.82 risk.
const BETA: f64 = 30.0;

/// Maps the distances to the positive and negative class prototypes
/// (normalized Hamming, in `[0, 1]`) to a risk score in `[0, 1]`: the
/// negative-vs-positive margin through a logistic with slope [`BETA`].
/// `0.5` means equidistant; higher means closer to the positive class.
fn risk_score(dist_to_positive: f64, dist_to_negative: f64) -> f64 {
    let margin = dist_to_negative - dist_to_positive;
    1.0 / (1.0 + (-BETA * margin).exp())
}

/// A prototype-based risk scorer.
///
/// Fit bundles one prototype per class; [`RiskScorer::score`] maps the
/// normalized distance margin through a logistic, so 0.5 means equidistant
/// from both prototypes and values near 1 mean "very close to the diabetic
/// prototype". [`RiskScorer::observe`] folds a newly assessed patient into
/// the prototypes online — no retraining pass required, which is the
/// property the paper highlights for in-situ clinical use.
#[derive(Debug, Clone)]
pub struct RiskScorer {
    extractor: HdcFeatureExtractor,
    prototypes: ClassAccumulators,
}

impl RiskScorer {
    /// Fits prototypes from a (fully observed) cohort.
    pub fn fit(table: &Table, dim: Dim, seed: u64) -> Result<Self, HyperfexError> {
        let mut extractor = HdcFeatureExtractor::new(dim, seed);
        let hvs = extractor.fit_transform(table)?;
        let mut prototypes = ClassAccumulators::new(dim);
        prototypes.add_batch(&hvs, table.labels())?;
        Ok(Self {
            extractor,
            prototypes,
        })
    }

    /// Scores one patient record (raw feature values in table column
    /// order): 0 = prototypically non-diabetic, 1 = prototypically
    /// diabetic.
    pub fn score(&self, values: &[f64]) -> Result<f64, HyperfexError> {
        let hv = self.encode_row(values)?;
        let hammings = self.prototypes.hammings(&hv)?;
        let [negative, positive, ..] = hammings[..] else {
            return Err(HyperfexError::Pipeline("scorer needs two classes".into()));
        };
        let bits = self.prototypes.dim().get() as f64;
        Ok(risk_score(positive as f64 / bits, negative as f64 / bits))
    }

    /// Folds a newly assessed patient into the prototypes (online update).
    pub fn observe(&mut self, values: &[f64], label: usize) -> Result<(), HyperfexError> {
        let hv = self.encode_row(values)?;
        self.prototypes.add_batch(&[hv], &[label])?;
        Ok(())
    }

    fn encode_row(&self, values: &[f64]) -> Result<hyperfex_hdc::BinaryHypervector, HyperfexError> {
        use hyperfex_data::{ColumnSpec, Table as T};
        // Reuse the fitted encoder by round-tripping through a one-row
        // table with a synthetic schema of the right arity.
        let columns: Vec<ColumnSpec> = (0..values.len())
            .map(|i| ColumnSpec::continuous(format!("c{i}")))
            .collect();
        let table = T::new(columns, vec![values.to_vec()], vec![0])?;
        let hvs = self.extractor.transform(&table, None)?;
        hvs.into_iter().next().ok_or_else(|| {
            HyperfexError::Pipeline("extractor returned no hypervector for a one-row table".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_data::sylhet::{self, SylhetConfig};

    fn scorer() -> (RiskScorer, Table) {
        let table = sylhet::generate(&SylhetConfig {
            n_positive: 60,
            n_negative: 50,
            ..Default::default()
        })
        .unwrap();
        (RiskScorer::fit(&table, Dim::new(2_000), 7).unwrap(), table)
    }

    #[test]
    fn scores_order_prototypical_patients() {
        let (scorer, _) = scorer();
        // A heavily symptomatic middle-aged patient vs an asymptomatic one.
        let symptomatic: Vec<f64> = vec![
            55.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0,
        ];
        let asymptomatic: Vec<f64> = vec![
            35.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
        ];
        let hi = scorer.score(&symptomatic).unwrap();
        let lo = scorer.score(&asymptomatic).unwrap();
        assert!(
            hi > lo,
            "symptomatic {hi} should outscore asymptomatic {lo}"
        );
        assert!(hi > 0.5);
        assert!(lo < 0.5);
        assert!((0.0..=1.0).contains(&hi) && (0.0..=1.0).contains(&lo));
    }

    #[test]
    fn risk_score_is_monotone_and_centered() {
        assert!((risk_score(0.3, 0.3) - 0.5).abs() < 1e-12);
        // Closer to positive → higher risk.
        assert!(risk_score(0.2, 0.4) > 0.5);
        assert!(risk_score(0.4, 0.2) < 0.5);
        // Bounded.
        let s = risk_score(0.0, 1.0);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn online_observation_shifts_the_score() {
        let (mut scorer, _) = scorer();
        let unusual: Vec<f64> = vec![
            80.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0,
        ];
        let before = scorer.score(&unusual).unwrap();
        // Observe several positive patients with this unusual profile.
        for _ in 0..40 {
            scorer.observe(&unusual, 1).unwrap();
        }
        let after = scorer.score(&unusual).unwrap();
        assert!(
            after > before,
            "risk should rise after observing positives with this profile ({before} → {after})"
        );
    }

    #[test]
    fn an_observed_label_past_the_class_limit_is_an_error() {
        use hyperfex_hdc::classify::MAX_CLASSES;
        use hyperfex_hdc::HdcError;

        let (mut scorer, _) = scorer();
        let patient: Vec<f64> = vec![
            45.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0,
        ];
        let before = scorer.score(&patient).unwrap();
        for label in [MAX_CLASSES, usize::MAX] {
            assert_eq!(
                scorer.observe(&patient, label).unwrap_err(),
                HyperfexError::Hdc(HdcError::ClassLimit {
                    label,
                    limit: MAX_CLASSES
                })
            );
        }
        assert_eq!(scorer.score(&patient).unwrap(), before);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let (scorer, _) = scorer();
        assert!(scorer.score(&[1.0, 2.0]).is_err());
    }
}
