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

#[test]
fn scan_rejects_a_bank_of_another_width() {
    let queries = BitMatrix::zeros(1, Dim::new(64));
    let bank = BitMatrix::zeros(2, Dim::new(65));
    let mut tops: TopK<usize> = TopK::new(1, 1);
    assert!(tops.scan(&queries, &bank, 0..2, |row| row).is_err());
    assert!(tops.list(0).is_empty());
}
