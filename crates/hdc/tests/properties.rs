//! Property-based tests for hypervector invariants.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::bitmatrix::{
    hamming_within, hamming_words, masked_weight_sum, popcount_dot, BitMatrix, RelativeRows,
};
use hyperfex_hdc::bundle;
use hyperfex_hdc::encoding::{CategoricalEncoder, LinearEncoder};
use hyperfex_hdc::reference;
use hyperfex_hdc::rng::SplitMix64;
use proptest::prelude::*;

/// Dimensionalities across the tail-word classes, up to the paper's
/// 10,000 bits plus a partial word.
const TAIL_DIMS: [usize; 6] = [1, 63, 64, 65, 130, 10_050];

fn hv_strategy(dim: usize) -> impl Strategy<Value = BinaryHypervector> {
    any::<u64>().prop_map(move |seed| {
        let mut rng = SplitMix64::new(seed);
        BinaryHypervector::random(Dim::new(dim), &mut rng)
    })
}

/// A random `dim`-bit row and a copy of it with each bit flipped with
/// probability `1 / flip_rate`, as a two-row matrix.
fn near_pair(dim: usize, flip_rate: u64, seed: u64) -> BitMatrix {
    let mut rng = SplitMix64::new(seed);
    let row = BinaryHypervector::random(Dim::new(dim), &mut rng);
    let mut near = row.clone();
    for bit in 0..dim {
        if rng.next_bounded(flip_rate) == 0 {
            near.flip(bit);
        }
    }
    BitMatrix::from_hypervectors(&[row, near]).unwrap()
}

/// The per-bit oracle's signed terms of a row against a reference, in bit
/// order, folded the way `RelativeRows::weight_sum` folds them: the n-th
/// term into lane `n mod 4`, the lanes summed `(0 + 1) + (2 + 3)`.
fn lane_ordered_sum(
    m: &BitMatrix,
    row: usize,
    reference: &BinaryHypervector,
    weights: &[f64],
) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut n = 0;
    for (c, &w) in weights.iter().enumerate() {
        let term = match (m.get(row, c), reference.get(c)) {
            (true, false) => w,
            (false, true) => -w,
            _ => continue,
        };
        acc[n % 4] += term;
        n += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// One list byte per differing bit, plus one skip byte per 127 bits of
/// each gap past 127 (the first gap runs from bit −1).
fn expected_list_bytes(m: &BitMatrix, row: usize, reference: &BinaryHypervector) -> usize {
    let mut last: isize = -1;
    let mut bytes = 0;
    for c in 0..m.dim().get() {
        if m.get(row, c) != reference.get(c) {
            let gap = (c as isize - last) as usize;
            bytes += 1 + (gap - 1) / 127;
            last = c as isize;
        }
    }
    bytes
}

proptest! {
    #[test]
    fn hamming_is_a_metric(
        a in hv_strategy(512),
        b in hv_strategy(512),
        c in hv_strategy(512),
    ) {
        // Identity of indiscernibles (one direction), symmetry, triangle.
        prop_assert_eq!(a.try_hamming(&a).unwrap(), 0);
        prop_assert_eq!(a.try_hamming(&b).unwrap(), b.try_hamming(&a).unwrap());
        prop_assert!(a.try_hamming(&c).unwrap() <= a.try_hamming(&b).unwrap() + b.try_hamming(&c).unwrap());
    }

    #[test]
    fn bind_is_self_inverse_and_commutative(
        a in hv_strategy(320),
        b in hv_strategy(320),
    ) {
        prop_assert_eq!(a.bind(&b).bind(&b), a.clone());
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_preserves_hamming_distance(
        a in hv_strategy(320),
        b in hv_strategy(320),
        key in hv_strategy(320),
    ) {
        prop_assert_eq!(a.bind(&key).try_hamming(&b.bind(&key)).unwrap(), a.try_hamming(&b).unwrap());
    }

    #[test]
    fn permute_preserves_popcount_and_roundtrips(
        a in hv_strategy(257),
        k in 0usize..1000,
    ) {
        let p = a.permute(k);
        prop_assert_eq!(p.count_ones(), a.count_ones());
        prop_assert_eq!(p.permute_inverse(k), a);
    }

    #[test]
    fn complement_is_involutive_and_max_distance(a in hv_strategy(200)) {
        prop_assert_eq!(a.complement().complement(), a.clone());
        prop_assert_eq!(a.try_hamming(&a.complement()).unwrap(), 200);
    }

    #[test]
    fn majority_bundle_is_no_farther_than_complement_and_contains_unanimous_bits(
        seeds in prop::collection::vec(any::<u64>(), 1..9),
    ) {
        let dim = Dim::new(256);
        let inputs: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut rng = SplitMix64::new(s);
                BinaryHypervector::random(dim, &mut rng)
            })
            .collect();
        let out = bundle::try_majority(&inputs).unwrap();
        // Any bit where all inputs agree must survive in the bundle.
        for i in 0..dim.get() {
            let ones = inputs.iter().filter(|hv| hv.get(i)).count();
            if ones == inputs.len() {
                prop_assert!(out.get(i));
            }
            if ones == 0 {
                prop_assert!(!out.get(i));
            }
        }
    }

    #[test]
    fn majority_is_permutation_invariant(
        seeds in prop::collection::vec(any::<u64>(), 2..7),
        rot in any::<u64>(),
    ) {
        let dim = Dim::new(128);
        let mut inputs: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut rng = SplitMix64::new(s);
                BinaryHypervector::random(dim, &mut rng)
            })
            .collect();
        let base = bundle::try_majority(&inputs).unwrap();
        let n = inputs.len();
        inputs.rotate_left((rot as usize) % n);
        prop_assert_eq!(bundle::try_majority(&inputs).unwrap(), base);
    }

    #[test]
    fn linear_encoder_is_monotone_in_distance_from_min(
        seed in any::<u64>(),
        mut values in prop::collection::vec(0.0f64..100.0, 3),
    ) {
        let enc = LinearEncoder::new(Dim::new(1024), 0.0, 100.0, seed).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = enc.encode(values[0]);
        let mid = enc.encode(values[1]);
        let hi = enc.encode(values[2]);
        // Nested flips: distance from the lowest code is monotone.
        prop_assert!(lo.try_hamming(&mid).unwrap() <= lo.try_hamming(&hi).unwrap());
        // Exact isometry: d(a, c) == d(a, b) + d(b, c) for sorted values.
        prop_assert_eq!(
            lo.try_hamming(&hi).unwrap(),
            lo.try_hamming(&mid).unwrap() + mid.try_hamming(&hi).unwrap()
        );
    }

    #[test]
    fn linear_encoder_codes_stay_balanced(
        seed in any::<u64>(),
        t in 0.0f64..100.0,
    ) {
        let enc = LinearEncoder::new(Dim::new(1024), 0.0, 100.0, seed).unwrap();
        prop_assert_eq!(enc.encode(t).count_ones(), 512);
    }

    #[test]
    fn categorical_codes_are_far_apart(
        seed in any::<u64>(),
        n in 2usize..6,
    ) {
        let enc = CategoricalEncoder::new(Dim::new(2048), n, seed).unwrap();
        for a in 0..n {
            for b in (a + 1)..n {
                let d = enc.code(a).unwrap().try_hamming(enc.code(b).unwrap()).unwrap() as f64
                    / 2048.0;
                prop_assert!(d > 0.35, "categories {} and {} at distance {}", a, b, d);
            }
        }
    }

    /// Appending rows to a `BitMatrix` in any split equals packing the
    /// concatenated rows at once; a row of another width is rejected and
    /// leaves the matrix unchanged.
    #[test]
    fn push_rows_over_any_split_equals_from_hypervectors(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        n in 1usize..30,
        cuts in prop::collection::vec(0usize..30, 0..5),
    ) {
        let dim = TAIL_DIMS[dim_index];
        let d = Dim::new(dim);
        let mut rng = SplitMix64::new(seed);
        let hvs: Vec<_> = (0..n).map(|_| BinaryHypervector::random(d, &mut rng)).collect();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();

        let mut grown = BitMatrix::zeros(0, d);
        for w in bounds.windows(2) {
            grown.push_rows(&hvs[w[0]..w[1]]).unwrap();
        }
        let packed = BitMatrix::from_hypervectors(&hvs).unwrap();
        prop_assert_eq!(&grown, &packed);
        prop_assert_eq!(grown.raw_words(), packed.raw_words());

        let wider = BinaryHypervector::zeros(Dim::new(dim + 1));
        prop_assert!(grown.push_rows(&[hvs[0].clone(), wider]).is_err());
        prop_assert_eq!(&grown, &packed);
    }

    /// Relative lists against their per-bit oracles: the signed sum bit
    /// for bit against the oracle's terms folded in the kernel's lane order
    /// (every packed SGD and logistic trajectory depends on that order),
    /// and to a relative tolerance against the oracle's left-to-right sum;
    /// the signed scatter bit for bit (one add per differing bit). The row
    /// is a random reference with about one bit in `flip_rate` flipped, the
    /// shape of a level-encoded record near its cohort's majority row.
    #[test]
    fn relative_kernels_match_per_bit_oracles(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        flip_rate in 1u64..9,
    ) {
        let dim = TAIL_DIMS[dim_index];
        let d = Dim::new(dim);
        let mut rng = SplitMix64::new(seed);
        let reference_hv = BinaryHypervector::random(d, &mut rng);
        let mut near = reference_hv.clone();
        for bit in 0..dim {
            if rng.next_bounded(flip_rate) == 0 {
                near.flip(bit);
            }
        }
        let m = BitMatrix::from_hypervectors(&[near]).unwrap();
        let lists = RelativeRows::new(&m, &reference_hv);
        let weights: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 2.0 - 1.0).collect();

        let fast = lists.weight_sum(0, &weights);
        prop_assert_eq!(
            fast.to_bits(),
            lane_ordered_sum(&m, 0, &reference_hv, &weights).to_bits()
        );
        let naive = reference::relative_weight_sum(&m, 0, &reference_hv, &weights);
        let magnitude: f64 = weights.iter().map(|w| w.abs()).sum();
        prop_assert!(
            (fast - naive).abs() <= 1e-10 * magnitude.max(1.0),
            "relative sum {} vs oracle {}", fast, naive
        );

        let delta = rng.next_f64() - 0.5;
        let mut fast = weights.clone();
        lists.scatter_add(0, delta, &mut fast);
        let mut naive = weights;
        reference::relative_scatter_add(&m, 0, &reference_hv, delta, &mut naive);
        for (c, (a, b)) in fast.iter().zip(&naive).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "column {}", c);
        }
    }

    /// Rows at the edges of the list format, at every tail width, listed
    /// together so each row's list must start where the previous one
    /// ends: a row equal to its reference (an empty list), its complement
    /// (every bit differs), and sparse rows whose gaps run past the 127
    /// bits one byte spans: random gaps, gaps of 130 bits down from the
    /// last bit, and the last bit alone (a first differing bit past bit
    /// 127 from 130 bits up).
    /// Sums match the lane-ordered oracle bit for bit, scatters match the
    /// oracle bit for bit, and each list holds one byte per differing bit
    /// plus one per 127 bits of a gap.
    #[test]
    fn relative_lists_cover_empty_full_and_long_gap_rows(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        max_gap in 1usize..400,
    ) {
        let dim = TAIL_DIMS[dim_index];
        let d = Dim::new(dim);
        let mut rng = SplitMix64::new(seed);
        let reference_hv = BinaryHypervector::random(d, &mut rng);
        let mut sparse = reference_hv.clone();
        let mut bit = rng.next_bounded(max_gap as u64) as usize;
        while bit < dim {
            sparse.flip(bit);
            bit += 1 + rng.next_bounded(max_gap as u64) as usize;
        }
        let mut strided = reference_hv.clone();
        for bit in (0..dim).rev().step_by(130) {
            strided.flip(bit);
        }
        let mut last = reference_hv.clone();
        last.flip(dim - 1);
        let rows = [
            reference_hv.clone(),
            reference_hv.complement(),
            sparse,
            strided,
            last,
        ];
        let m = BitMatrix::from_hypervectors(&rows).unwrap();
        let lists = RelativeRows::new(&m, &reference_hv);
        prop_assert_eq!(lists.n_rows(), rows.len());
        let weights: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let delta = rng.next_f64() - 0.5;
        let mut total = 0;
        for i in 0..rows.len() {
            prop_assert_eq!(
                lists.weight_sum(i, &weights).to_bits(),
                lane_ordered_sum(&m, i, &reference_hv, &weights).to_bits(),
                "row {}", i
            );
            let mut fast = weights.clone();
            lists.scatter_add(i, delta, &mut fast);
            let mut naive = weights.clone();
            reference::relative_scatter_add(&m, i, &reference_hv, delta, &mut naive);
            for (c, (a, b)) in fast.iter().zip(&naive).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {} column {}", i, c);
            }
            total += expected_list_bytes(&m, i, &reference_hv);
        }
        prop_assert_eq!(lists.weight_sum(0, &weights).to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(lists.list_bytes(), total);
    }

    /// Against an all-zero reference the signed sum is the set-bit sum, in
    /// the same lane order (itself checked against its per-bit oracle);
    /// against the row itself nothing differs.
    #[test]
    fn relative_sum_degenerates_at_zero_and_self_references(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
    ) {
        let d = Dim::new(TAIL_DIMS[dim_index]);
        let mut rng = SplitMix64::new(seed);
        let row = BinaryHypervector::random(d, &mut rng);
        let weights: Vec<f64> = (0..d.get()).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let zero = BinaryHypervector::zeros(d);
        let m = BitMatrix::from_hypervectors(std::slice::from_ref(&row)).unwrap();
        let set_bits = masked_weight_sum(row.words(), &weights);
        prop_assert_eq!(
            RelativeRows::new(&m, &zero).weight_sum(0, &weights).to_bits(),
            set_bits.to_bits()
        );
        let naive = reference::masked_weight_sum(&m, 0, &weights);
        let magnitude: f64 = weights.iter().map(|w| w.abs()).sum();
        prop_assert!((set_bits - naive).abs() <= 1e-10 * magnitude.max(1.0));
        let itself = RelativeRows::new(&m, &row);
        prop_assert_eq!(itself.list_bytes(), 0);
        prop_assert_eq!(itself.weight_sum(0, &weights), 0.0);
        let mut out = weights.clone();
        itself.scatter_add(0, 0.5, &mut out);
        prop_assert_eq!(out, weights);
    }

    /// `Bundler` equals the per-bit weighted majority oracle after every
    /// push as its vote total crosses each power of two up to 2^8, where it
    /// adds a counter plane: a weighted push to one below the power, then
    /// one vote onto it. Weighted pushes (weights 0 to 299) follow, and
    /// the same pushes again after `clear`, from a larger total to a
    /// smaller one.
    #[test]
    fn bundler_matches_weighted_majority_across_plane_counts(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        weights in prop::collection::vec(0u32..300, 0..6),
    ) {
        let d = Dim::new(TAIL_DIMS[dim_index]);
        let mut rng = SplitMix64::new(seed);
        let mut bundler = bundle::Bundler::new(d);
        let mut inputs: Vec<(BinaryHypervector, u32)> = Vec::new();
        let mut pushes: Vec<u32> = (0..=8u32)
            .flat_map(|k| [(1u32 << k) - 1 - (1u32 << k >> 1), 1])
            .collect();
        pushes.extend(&weights);
        for (i, &weight) in pushes.iter().enumerate() {
            let hv = BinaryHypervector::random(d, &mut rng);
            if weight == 1 {
                bundler.push(&hv).unwrap();
            } else {
                bundler.push_weighted(&hv, weight).unwrap();
            }
            inputs.push((hv, weight));
            prop_assert_eq!(
                bundler.finish(),
                reference::weighted_majority(&inputs),
                "push {}, total {}", i, bundler.votes()
            );
        }
        let larger = bundler.votes();
        prop_assert!(larger >= 256);
        bundler.clear();
        let reused: Vec<_> = inputs.split_off(18);
        inputs.clear();
        for (hv, weight) in reused {
            bundler.push_weighted(&hv, weight).unwrap();
            inputs.push((hv, weight));
            prop_assert_eq!(bundler.finish(), reference::weighted_majority(&inputs));
        }
        prop_assert!(bundler.votes() < larger);
    }

    /// `BitMatrix::majority_row` is the bundle of the rows as
    /// hypervectors and their per-bit majority, ties to 1. Even row counts
    /// with complement pairs force ties.
    #[test]
    fn majority_row_matches_bundling_with_ties_to_one(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        n in 1usize..12,
        with_complement in any::<bool>(),
    ) {
        let d = Dim::new(TAIL_DIMS[dim_index]);
        let mut rng = SplitMix64::new(seed);
        let mut hvs: Vec<_> = (0..n).map(|_| BinaryHypervector::random(d, &mut rng)).collect();
        if with_complement {
            hvs.push(hvs[0].complement());
        }
        let m = BitMatrix::from_hypervectors(&hvs).unwrap();
        let majority = m.majority_row().unwrap();
        prop_assert_eq!(&majority, &bundle::try_majority(&hvs).unwrap());
        prop_assert_eq!(&majority, &reference::majority(&hvs).unwrap());
        if with_complement && n == 1 {
            prop_assert_eq!(majority.count_ones(), d.get());
        }
    }

    /// The word-level Hamming distance and popcount dot product against
    /// their per-bit oracles. The second row is the first with about one
    /// bit in `flip_rate` flipped (every bit when it is 1), so distances
    /// range from 0 to the full width.
    #[test]
    fn hamming_and_dot_kernels_match_per_bit_oracles(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        flip_rate in 1u64..400,
    ) {
        let m = near_pair(TAIL_DIMS[dim_index], flip_rate, seed);
        let (a, b) = (m.row_words(0), m.row_words(1));
        prop_assert_eq!(hamming_words(a, b), reference::row_hamming(&m, 0, 1));
        prop_assert_eq!(hamming_words(a, a), 0);
        prop_assert_eq!(popcount_dot(a, b), reference::popcount_dot(&m, 0, 1));
        prop_assert_eq!(popcount_dot(a, a), m.row_count_ones(0));
    }

    /// `hamming_within` is the full distance when it is at most the
    /// bound and `None` otherwise, at bounds on either side of the
    /// distance, at 0 and at `usize::MAX`.
    #[test]
    fn hamming_within_is_the_distance_up_to_its_bound(
        seed in any::<u64>(),
        dim_index in 0usize..TAIL_DIMS.len(),
        flip_rate in 1u64..400,
    ) {
        let m = near_pair(TAIL_DIMS[dim_index], flip_rate, seed);
        let d = reference::row_hamming(&m, 0, 1);
        for bound in [0, d.saturating_sub(1), d, d + 1, usize::MAX] {
            prop_assert_eq!(
                hamming_within(m.row_words(0), m.row_words(1), bound),
                (d <= bound).then_some(d),
                "distance {}, bound {}", d, bound
            );
        }
    }

    #[test]
    fn splitmix_bounded_is_uniform_enough(
        seed in any::<u64>(),
        bound in 1u64..100,
    ) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            prop_assert!(rng.next_bounded(bound) < bound);
        }
    }
}
