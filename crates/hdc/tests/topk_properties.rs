//! The shared top-k against sort-and-truncate: offered one by one, split
//! into per-chunk lists merged in any order, and scanned from a packed
//! bank. Distances and keys come from small ranges, so ties — and repeated
//! `(distance, key)` candidates — are common.

use hyperfex_hdc::bitmatrix::hamming_words;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::topk::TopK;
use hyperfex_hdc::{BinaryHypervector, BitMatrix, Dim};
use proptest::collection::vec;
use proptest::prelude::*;

const LISTS: usize = 3;

/// Widths at which a scan's 16-word blocks can abandon a row before its
/// end: 2,050 bits is 33 words (blocks of 16, 16 and 1) and 10,050 bits
/// is 158.
const PRUNED_DIMS: [usize; 2] = [2_050, 10_050];

/// The `k` smallest of `candidates`, ascending.
fn sort_and_truncate<K: Ord + Copy>(candidates: &[(usize, K)], k: usize) -> Vec<(usize, K)> {
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    sorted.truncate(k);
    sorted
}

/// The `(distance, key)` candidates offered to list `list`.
fn list_candidates(offers: &[(usize, usize, u8)], list: usize) -> Vec<(usize, u8)> {
    offers
        .iter()
        .filter(|&&(l, _, _)| l == list)
        .map(|&(_, distance, key)| (distance, key))
        .collect()
}

/// `0..n` in a seeded random order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = usize::try_from(rng.next_u64() % (i as u64 + 1)).unwrap();
        order.swap(i, j);
    }
    order
}

/// Splits `0..n` at the given cut points into contiguous ranges.
fn pieces(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each list keeps exactly the `k` smallest candidates offered to it.
    #[test]
    fn offers_keep_the_k_smallest(
        offers in vec((0..LISTS, 0usize..4, 0u8..5), 0..48),
        k in 1usize..52,
    ) {
        let mut tops = TopK::new(LISTS, k);
        for &(list, distance, key) in &offers {
            tops.offer(list, distance, key);
        }
        for list in 0..LISTS {
            let want = sort_and_truncate(&list_candidates(&offers, list), k);
            prop_assert_eq!(tops.list(list), want.as_slice());
        }
    }

    /// Offers split at random points into per-chunk lists, merged in any
    /// order, give the one-pass result.
    #[test]
    fn merged_chunks_match_one_pass(
        offers in vec((0..LISTS, 0usize..4, 0u8..5), 0..48),
        k in 1usize..52,
        cuts in vec(0usize..48, 0..6),
        order_seed in any::<u64>(),
    ) {
        let chunks: Vec<TopK<u8>> = pieces(offers.len(), &cuts)
            .into_iter()
            .map(|range| {
                let mut tops = TopK::new(LISTS, k);
                for &(list, distance, key) in &offers[range] {
                    tops.offer(list, distance, key);
                }
                tops
            })
            .collect();
        let mut merged = TopK::new(LISTS, k);
        for i in shuffled(chunks.len(), order_seed) {
            merged.merge(&chunks[i]);
        }
        for list in 0..LISTS {
            let want = sort_and_truncate(&list_candidates(&offers, list), k);
            prop_assert_eq!(merged.list(list), want.as_slice());
        }
    }

    /// A scan of a bank drawn from a few distinct rows (so distances tie),
    /// split into row ranges and merged, keeps each query's `k` nearest
    /// `(distance, row)` pairs.
    #[test]
    fn split_scans_match_brute_force(
        picks in vec(0usize..4, 1..40),
        query_picks in vec(0usize..5, 1..4),
        k in 1usize..44,
        cuts in vec(0usize..40, 0..4),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pool: Vec<BinaryHypervector> = (0..5)
            .map(|_| BinaryHypervector::random(Dim::new(130), &mut rng))
            .collect();
        let rows: Vec<BinaryHypervector> = picks.iter().map(|&p| pool[p].clone()).collect();
        let queries: Vec<BinaryHypervector> =
            query_picks.iter().map(|&p| pool[p].clone()).collect();
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();

        let mut merged = TopK::new(queries.len(), k);
        for range in pieces(rows.len(), &cuts) {
            let mut tops = TopK::new(queries.len(), k);
            tops.scan(&query_matrix, &bank, range, |row| row).unwrap();
            merged.merge(&tops);
        }
        for (q, query) in queries.iter().enumerate() {
            let all: Vec<(usize, usize)> = rows
                .iter()
                .enumerate()
                .map(|(row, hv)| (hamming_words(query.words(), hv.words()), row))
                .collect();
            prop_assert_eq!(merged.list(q), sort_and_truncate(&all, k).as_slice());
        }
    }
}

/// `hv` with exactly `distance` of its bits flipped, chosen at random.
fn at_distance(hv: &BinaryHypervector, distance: usize, rng: &mut SplitMix64) -> BinaryHypervector {
    let mut bits: Vec<usize> = (0..hv.len()).collect();
    rng.shuffle(&mut bits);
    let mut out = hv.clone();
    for &bit in &bits[..distance] {
        out.flip(bit);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scans at widths where the abandon rule acts keep each query's `k`
    /// nearest `(distance, key)` pairs under a key that falls as the row
    /// rises. Each query has more than `k` rows planted at one distance
    /// and none nearer, so that distance is its k-th, and planted rows
    /// keep arriving after the list is full: each ties the k-th distance
    /// and must enter on its smaller key. Rows one bit farther and random
    /// rows are mixed in. The bank is scanned whole and in split ranges
    /// merged in any order.
    #[test]
    fn pruned_scans_admit_ties_at_the_kth_distance(
        dim_index in 0usize..PRUNED_DIMS.len(),
        n_queries in 1usize..4,
        k in 1usize..6,
        extra in 1usize..6,
        far in 0usize..12,
        cuts in vec(0usize..48, 0..3),
        seed in any::<u64>(),
    ) {
        let dim = Dim::new(PRUNED_DIMS[dim_index]);
        let mut rng = SplitMix64::new(seed);
        let queries: Vec<BinaryHypervector> = (0..n_queries)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut rows = Vec::new();
        for query in &queries {
            let planted = usize::try_from(rng.next_bounded(300)).unwrap();
            for _ in 0..k + extra {
                rows.push(at_distance(query, planted, &mut rng));
            }
            rows.push(at_distance(query, planted + 1, &mut rng));
        }
        rows.extend((0..far).map(|_| BinaryHypervector::random(dim, &mut rng)));
        rng.shuffle(&mut rows);
        let n = rows.len();
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let key = |row: usize| n - row;

        let mut whole = TopK::new(n_queries, k);
        whole.scan(&query_matrix, &bank, 0..n, key).unwrap();
        let mut merged = TopK::new(n_queries, k);
        let ranges = pieces(n, &cuts);
        for i in shuffled(ranges.len(), seed) {
            let mut tops = TopK::new(n_queries, k);
            tops.scan(&query_matrix, &bank, ranges[i].clone(), key).unwrap();
            merged.merge(&tops);
        }
        for (q, query) in queries.iter().enumerate() {
            let all: Vec<(usize, usize)> = rows
                .iter()
                .enumerate()
                .map(|(row, hv)| (hamming_words(query.words(), hv.words()), key(row)))
                .collect();
            let want = sort_and_truncate(&all, k);
            prop_assert_eq!(whole.list(q), want.as_slice(), "whole scan, query {}", q);
            prop_assert_eq!(merged.list(q), want.as_slice(), "split scan, query {}", q);
        }
    }
}

#[test]
fn a_k_zero_scan_keeps_nothing() {
    let mut rng = SplitMix64::new(9);
    let rows: Vec<BinaryHypervector> = (0..40)
        .map(|_| BinaryHypervector::random(Dim::new(10_050), &mut rng))
        .collect();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let queries = bank.select_rows(&[0, 39]);
    let mut tops: TopK<usize> = TopK::new(2, 0);
    tops.scan(&queries, &bank, 0..40, |row| row).unwrap();
    assert!(tops.list(0).is_empty());
    assert!(tops.list(1).is_empty());
}

#[test]
fn scan_rejects_a_bank_of_another_width() {
    let queries = BitMatrix::zeros(1, Dim::new(64));
    let bank = BitMatrix::zeros(2, Dim::new(65));
    let mut tops: TopK<usize> = TopK::new(1, 1);
    assert!(tops.scan(&queries, &bank, 0..2, |row| row).is_err());
    assert!(tops.list(0).is_empty());
}
