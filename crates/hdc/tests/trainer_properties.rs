//! Property tests for the online trainer family.
//!
//! The load-bearing property: a full perceptron `partial_fit` pass
//! is bit-identical to one `reference::centroid_retrain_epoch` on
//! equivalent state. The oracle builds ±1 class superpositions one bit at
//! a time; both walk the examples in order, predict with the same
//! min-Hamming lowest-index tie rule, apply the same ±1 add/subtract on
//! mistakes, and quantise with the same `s ≥ 0` (tie → 1) rule — so every
//! intermediate prototype, and therefore every subsequent prediction, must
//! agree exactly.
//!
//! The other trainer properties (label growth, the pocket guarantee and
//! typed dimension errors) hold under every `UpdateRule`, and run over all
//! three.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::classify::{fit_pocketed, ClassAccumulators, OnlineTrainer, UpdateRule};
use hyperfex_hdc::reference;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::HdcError;
use proptest::prelude::*;

const DIM: usize = 320;

/// A random labelled cohort: `n` hypervectors over `classes` classes, with
/// every class guaranteed at least one member (labels are `i % classes`).
fn cohort(seed: u64, n: usize, classes: usize) -> (Vec<BinaryHypervector>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let hvs = (0..n)
        .map(|_| BinaryHypervector::random(Dim::new(DIM), &mut rng))
        .collect();
    let labels = (0..n).map(|i| i % classes).collect();
    (hvs, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One perceptron `partial_fit` pass over a full cohort produces
    /// bit-identical prototypes to one `reference::centroid_retrain_epoch`
    /// started from the same bundled state — across several consecutive
    /// epochs.
    #[test]
    fn perceptron_pass_is_bit_identical_to_retrain_epoch(
        seed in any::<u64>(),
        n in 4usize..24,
        classes in 2usize..5,
    ) {
        let (hvs, labels) = cohort(seed, n, classes);

        let dim = Dim::new(DIM);
        let mut sums = reference::centroid_sums(dim, &hvs, &labels);
        let prototypes = reference::centroid_prototypes(dim, &sums);

        let mut trainer = OnlineTrainer::new(UpdateRule::Perceptron, Dim::new(DIM));
        for (hv, &label) in hvs.iter().zip(&labels) {
            trainer.absorb(hv, label).unwrap();
        }
        for (c, prototype) in prototypes.iter().enumerate() {
            prop_assert_eq!(trainer.prototype(c).unwrap(), prototype,
                "bundled init differs for class {}", c);
        }

        for epoch in 0..3usize {
            let mistakes = reference::centroid_retrain_epoch(dim, &mut sums, &hvs, &labels);
            let corrections = trainer.partial_fit(&hvs, &labels).unwrap();
            prop_assert_eq!(mistakes, corrections, "mistake counts differ in epoch {}", epoch);
            let prototypes = reference::centroid_prototypes(dim, &sums);
            for (c, prototype) in prototypes.iter().enumerate() {
                prop_assert_eq!(
                    trainer.prototype(c).unwrap(),
                    prototype,
                    "prototypes differ for class {} after epoch {}", c, epoch
                );
            }
        }

        // And the resulting models agree on fresh queries.
        let prototypes = reference::centroid_prototypes(dim, &sums);
        let mut rng = SplitMix64::new(seed ^ 0xD1CE);
        for _ in 0..8 {
            let q = BinaryHypervector::random(Dim::new(DIM), &mut rng);
            prop_assert_eq!(
                trainer.predict(&q).unwrap(),
                reference::nearest_prototype(&prototypes, &q)
            );
        }
    }

    /// Label growth: streaming a cohort record-by-record through `update`
    /// allocates exactly the classes seen, and every allocated class has a
    /// prototype of the right dimensionality, under every update rule.
    #[test]
    fn update_grows_labels_consistently(
        seed in any::<u64>(),
        classes in 1usize..6,
        rule_index in 0usize..UpdateRule::ALL.len(),
    ) {
        let (hvs, labels) = cohort(seed, 12, classes);
        let rule = UpdateRule::ALL[rule_index];
        let mut trainer = OnlineTrainer::new(rule, Dim::new(DIM));
        let mut seen_max = 0usize;
        for (hv, &label) in hvs.iter().zip(&labels) {
            trainer.update(hv, label).unwrap();
            seen_max = seen_max.max(label);
            prop_assert_eq!(trainer.n_classes(), seen_max + 1);
        }
        for c in 0..trainer.n_classes() {
            prop_assert_eq!(trainer.prototype(c).unwrap().dim().get(), DIM);
        }
    }

    /// Pocketed fitting never scores below the single-pass bundling
    /// baseline on its own training set, under every update rule.
    #[test]
    fn fit_pocketed_is_at_least_as_good_as_bundling(
        seed in any::<u64>(),
        rule_index in 0usize..UpdateRule::ALL.len(),
    ) {
        let (hvs, labels) = cohort(seed, 16, 2);
        let rule = UpdateRule::ALL[rule_index];
        let mut fitted = OnlineTrainer::new(rule, Dim::new(DIM));
        fit_pocketed(&mut fitted, &hvs, &labels, 10).unwrap();
        let mut bundled = OnlineTrainer::new(rule, Dim::new(DIM));
        for (hv, &label) in hvs.iter().zip(&labels) {
            bundled.absorb(hv, label).unwrap();
        }
        let correct = |t: &OnlineTrainer| hvs.iter().zip(&labels)
            .filter(|(hv, &l)| t.predict(hv).unwrap() == l)
            .count();
        prop_assert!(correct(&fitted) >= correct(&bundled));
    }
}

#[test]
fn dimension_mismatch_surfaces_from_every_entry_point() {
    for rule in UpdateRule::ALL {
        let mut trainer = OnlineTrainer::new(rule, Dim::new(DIM));
        let wrong = BinaryHypervector::zeros(Dim::new(DIM / 2));
        assert!(
            matches!(
                trainer.update(&wrong, 0),
                Err(HdcError::DimensionMismatch { .. })
            ),
            "{rule:?}"
        );
        assert!(
            matches!(
                trainer.absorb(&wrong, 0),
                Err(HdcError::DimensionMismatch { .. })
            ),
            "{rule:?}"
        );
        assert!(
            matches!(
                trainer.partial_fit(std::slice::from_ref(&wrong), &[0]),
                Err(HdcError::DimensionMismatch { .. })
            ),
            "{rule:?}"
        );
        // A fitted trainer rejects mismatched queries too.
        let ok = BinaryHypervector::zeros(Dim::new(DIM));
        trainer.update(&ok, 0).unwrap();
        trainer.update(&ok, 1).unwrap();
        assert!(
            matches!(
                trainer.predict(&wrong),
                Err(HdcError::DimensionMismatch { .. })
            ),
            "{rule:?}"
        );
    }
}

/// Dimensionalities across the tail-word classes: one bit, one under, at
/// and one over a word boundary, two words plus two bits, and the paper's
/// 10,000 bits plus a partial word.
const TAIL_DIMS: [usize; 6] = [1, 63, 64, 65, 130, 10_050];

/// Sorted split points `0 = b₀ ≤ b₁ ≤ … ≤ bₖ = n` from arbitrary cuts.
fn split_bounds(cuts: Vec<usize>, n: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `add_batch` over any split of a labelled stream leaves the raw
    /// accumulators and every prototype equal to one `grow` + `add` per
    /// record, across the tail-word dimensionalities of `TAIL_DIMS`; and
    /// two halves accumulated apart then merged equal one `add_batch` over
    /// all the rows.
    #[test]
    fn add_batch_over_any_split_equals_per_record_add(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        n in 0usize..40,
        classes in 1u64..5,
        cuts in prop::collection::vec(0usize..40, 0..5),
    ) {
        let dim = TAIL_DIMS[dim_index];
        let d = Dim::new(dim);
        let mut rng = SplitMix64::new(seed);
        let hvs: Vec<_> = (0..n).map(|_| BinaryHypervector::random(d, &mut rng)).collect();
        let labels: Vec<usize> = (0..n)
            .map(|_| usize::try_from(rng.next_bounded(classes)).unwrap())
            .collect();

        let mut per_record = ClassAccumulators::new(d);
        for (hv, &label) in hvs.iter().zip(&labels) {
            per_record.grow(label);
            per_record.add(label, hv, 1);
        }
        let mut batched = ClassAccumulators::new(d);
        for w in split_bounds(cuts, n).windows(2) {
            batched.add_batch(&hvs[w[0]..w[1]], &labels[w[0]..w[1]]).unwrap();
        }

        prop_assert_eq!(batched.parts(), per_record.parts());
        prop_assert_eq!(batched.n_classes(), per_record.n_classes());
        for c in 0..per_record.n_classes() {
            prop_assert_eq!(batched.prototype(c), per_record.prototype(c), "class {}", c);
        }

        let mut whole = ClassAccumulators::new(d);
        whole.add_batch(&hvs, &labels).unwrap();
        let mut merged = ClassAccumulators::new(d);
        merged.add_batch(&hvs[..n / 2], &labels[..n / 2]).unwrap();
        let mut second = ClassAccumulators::new(d);
        second.add_batch(&hvs[n / 2..], &labels[n / 2..]).unwrap();
        merged.merge(&second).unwrap();
        prop_assert_eq!(merged, whole);
    }
}
