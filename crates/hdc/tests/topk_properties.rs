//! The shared top-k against sort-and-truncate: offered one by one, split
//! into per-chunk lists merged in any order, and scanned from a packed
//! bank. Distances and keys come from small ranges, so ties — and repeated
//! `(distance, key)` candidates — are common. Scans run with pivot tables
//! of every kind — none, chosen, and adversarial — and must keep the lists
//! a full-distance scan keeps.

use hyperfex_hdc::bitmatrix::{hamming_words, PivotTable};
use hyperfex_hdc::encoding::LinearEncoder;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::topk::{ScanRequest, TopK};
use hyperfex_hdc::{BinaryHypervector, BitMatrix, Dim};
use proptest::collection::vec;
use proptest::prelude::*;

const LISTS: usize = 3;

/// Kinds of pivot set [`pivot_table`] builds.
const PIVOT_KINDS: usize = 6;

/// A pivot table over `bank`, by `kind`: no pivots, the pivots
/// [`PivotTable::choose_pivots`] picks from the bank, a pivot equal to a
/// query, all-zero and all-ones pivots, duplicate pivots, or random rows.
fn pivot_table(
    kind: usize,
    bank: &BitMatrix,
    queries: &BitMatrix,
    rng: &mut SplitMix64,
) -> PivotTable {
    let dim = bank.dim();
    let last_query = queries.row_hypervector(queries.n_rows() - 1);
    let rows = match kind {
        0 => Vec::new(),
        1 => {
            let chosen = PivotTable::choose_pivots(bank);
            (0..chosen.n_rows())
                .map(|p| chosen.row_hypervector(p))
                .collect()
        }
        2 => vec![
            queries.row_hypervector(0),
            bank.row_hypervector(bank.n_rows() / 2),
        ],
        3 => vec![BinaryHypervector::zeros(dim), BinaryHypervector::ones(dim)],
        4 => vec![
            bank.row_hypervector(0),
            last_query.clone(),
            bank.row_hypervector(0),
            last_query,
        ],
        _ => (0..3)
            .map(|_| BinaryHypervector::random(dim, rng))
            .collect(),
    };
    let pivots = if rows.is_empty() {
        BitMatrix::zeros(0, dim)
    } else {
        BitMatrix::from_hypervectors(&rows).unwrap()
    };
    PivotTable::new(pivots, &[bank]).unwrap()
}

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
        pivot_kind in 0usize..PIVOT_KINDS,
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
        let pivots = pivot_table(pivot_kind, &bank, &query_matrix, &mut rng);

        let mut merged = TopK::new(queries.len(), k);
        for range in pieces(rows.len(), &cuts) {
            let mut tops = TopK::new(queries.len(), k);
            let request = ScanRequest::new(&query_matrix, k, &pivots).unwrap();
            tops.scan(&request, &[&bank], range, |_, row| row).unwrap();
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
        pivot_kind in 0usize..PIVOT_KINDS,
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
        let pivots = pivot_table(pivot_kind, &bank, &query_matrix, &mut rng);

        let mut whole = TopK::new(n_queries, k);
        let request = || ScanRequest::new(&query_matrix, k, &pivots).unwrap();
        whole.scan(&request(), &[&bank], 0..n, |_, row| key(row)).unwrap();
        let mut merged = TopK::new(n_queries, k);
        let ranges = pieces(n, &cuts);
        for i in shuffled(ranges.len(), seed) {
            let mut tops = TopK::new(n_queries, k);
            tops.scan(&request(), &[&bank], ranges[i].clone(), |_, row| key(row)).unwrap();
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
    let pivots = PivotTable::new(queries.clone(), &[&bank]).unwrap();
    let request = ScanRequest::new(&queries, 0, &pivots).unwrap();
    tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    assert!(tops.list(0).is_empty());
    assert!(tops.list(1).is_empty());
}

#[test]
fn scan_rejects_a_bank_of_another_width() {
    let queries = BitMatrix::zeros(1, Dim::new(64));
    let bank = BitMatrix::zeros(2, Dim::new(65));
    let mut tops: TopK<usize> = TopK::new(1, 1);
    let pivots = PivotTable::none(Dim::new(64));
    let request = ScanRequest::new(&queries, 1, &pivots).unwrap();
    assert!(tops.scan(&request, &[&bank], 0..2, |_, row| row).is_err());
    assert!(tops.list(0).is_empty());
}

/// The triangle-inequality bound a pivot table gives on `d(query, row)`,
/// computed from full distances: `max_p |min(d(q, p), 65,535) -
/// min(d(x, p), 65,535)|`.
fn pivot_bound(pivots: &BitMatrix, query: &[u64], row: &[u64]) -> usize {
    let saturated = |d: usize| d.min(usize::from(u16::MAX));
    (0..pivots.n_rows())
        .map(|p| {
            let pivot = pivots.row_words(p);
            saturated(hamming_words(query, pivot)).abs_diff(saturated(hamming_words(row, pivot)))
        })
        .max()
        .unwrap_or(0)
}

/// Each query's `k` nearest `(distance, key)` pairs by sort-and-truncate.
fn brute_force(
    queries: &BitMatrix,
    bank: &BitMatrix,
    k: usize,
    key: impl Fn(usize) -> usize,
) -> Vec<Vec<(usize, usize)>> {
    (0..queries.n_rows())
        .map(|q| {
            let all: Vec<(usize, usize)> = (0..bank.n_rows())
                .map(|row| {
                    (
                        hamming_words(queries.row_words(q), bank.row_words(row)),
                        key(row),
                    )
                })
                .collect();
            sort_and_truncate(&all, k)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Level-encoded banks at the paper's width: values on a coarse grid,
    /// so equal rows and ties at the k-th distance are common, and a row's
    /// distance tracks its value's, so the chosen pivots bound rows past
    /// each query's k-th distance and the scan skips them. Whole and split
    /// scans keep the brute-force lists.
    #[test]
    fn pivot_scans_of_level_encoded_banks_match_brute_force(
        n in 40usize..160,
        n_queries in 1usize..5,
        k in 1usize..6,
        cuts in vec(0usize..160, 0..3),
        seed in any::<u64>(),
    ) {
        let encoder = LinearEncoder::new(Dim::new(10_000), 0.0, 1.0, seed).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut level = || encoder.encode(rng.next_bounded(64) as f64 / 63.0);
        let rows: Vec<BinaryHypervector> = (0..n).map(|_| level()).collect();
        let queries: Vec<BinaryHypervector> = (0..n_queries).map(|_| level()).collect();
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let pivots = PivotTable::new(PivotTable::choose_pivots(&bank), &[&bank]).unwrap();
        prop_assert!(pivots.pivots().n_rows() > 0);
        let key = |row: usize| row;
        let want = brute_force(&query_matrix, &bank, k, key);
        let skippable = want.iter().enumerate().any(|(q, list)| {
            let kth = list.last().map_or(usize::MAX, |&(d, _)| d);
            (0..n).any(|row| {
                pivot_bound(pivots.pivots(), query_matrix.row_words(q), bank.row_words(row)) > kth
            })
        });
        prop_assert!(skippable, "the bound passes some k-th distance");

        let mut whole = TopK::new(n_queries, k);
        let request = || ScanRequest::new(&query_matrix, k, &pivots).unwrap();
        whole.scan(&request(), &[&bank], 0..n, |_, row| key(row)).unwrap();
        let mut merged = TopK::new(n_queries, k);
        for range in pieces(n, &cuts) {
            let mut tops = TopK::new(n_queries, k);
            tops.scan(&request(), &[&bank], range, |_, row| key(row)).unwrap();
            merged.merge(&tops);
        }
        for (q, list) in want.iter().enumerate() {
            prop_assert_eq!(whole.list(q), list.as_slice(), "whole scan, query {}", q);
            prop_assert_eq!(merged.list(q), list.as_slice(), "split scan, query {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Past 65,535 bits a pivot distance saturates at `u16::MAX`. Rows
    /// here are all ones but for up to 12,000 cleared bits of 70,001, so
    /// their distances to an all-zero pivot straddle 65,535: where both a
    /// query's and a row's saturate, that pivot bounds the pair by 0. The
    /// lists still equal brute force under every kind of pivot set.
    #[test]
    fn saturated_pivot_distances_keep_scans_exact(
        n in 8usize..32,
        n_queries in 1usize..4,
        k in 1usize..6,
        pivot_kind in 0usize..PIVOT_KINDS,
        seed in any::<u64>(),
    ) {
        let dim = Dim::new(70_001);
        let ones = BinaryHypervector::ones(dim);
        let mut rng = SplitMix64::new(seed);
        let dense = |rng: &mut SplitMix64| {
            let cleared = usize::try_from(rng.next_bounded(12_000)).unwrap();
            at_distance(&ones, cleared, rng)
        };
        let rows: Vec<BinaryHypervector> = (0..n).map(|_| dense(&mut rng)).collect();
        let queries: Vec<BinaryHypervector> = (0..n_queries).map(|_| dense(&mut rng)).collect();
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let zeros = BinaryHypervector::zeros(dim);
        prop_assert!(
            rows.iter().any(|row| row.try_hamming(&zeros).unwrap() > usize::from(u16::MAX)),
            "some distance to the all-zero pivot saturates"
        );
        let key = |row: usize| n - row;
        let want = brute_force(&query_matrix, &bank, k, key);
        let mut tables = vec![pivot_table(pivot_kind, &bank, &query_matrix, &mut rng)];
        let zeros_and_ones = BitMatrix::from_hypervectors(&[zeros, ones.clone()]).unwrap();
        tables.push(PivotTable::new(zeros_and_ones, &[&bank]).unwrap());
        for pivots in &tables {
            let mut tops = TopK::new(n_queries, k);
            let request = ScanRequest::new(&query_matrix, k, pivots).unwrap();
            tops.scan(&request, &[&bank], 0..n, |_, row| key(row)).unwrap();
            for (q, list) in want.iter().enumerate() {
                prop_assert_eq!(tops.list(q), list.as_slice(), "query {}", q);
            }
        }
    }
}

/// Seed counts a seeded scan is checked at, by index: none, one, fewer
/// than `k`, every row of the bank, and more than the bank holds.
fn seed_count(index: usize, k: usize, rows: usize) -> usize {
    [0, 1, k.saturating_sub(1), rows, rows + 1][index % 5]
}

/// Scans `rows` of `bank` in the given pieces, all sharing one request (so
/// one set of ceilings) seeded with at most `seeds` rows per query, and
/// merges the pieces' lists.
fn shared_scan(
    queries: &BitMatrix,
    bank: &BitMatrix,
    pivots: &PivotTable,
    k: usize,
    seeds: usize,
    pieces: &[std::ops::Range<usize>],
    key: impl Fn(usize) -> usize,
) -> TopK<usize> {
    let request = ScanRequest::new(queries, k, pivots)
        .unwrap()
        .with_seed_rows(seeds);
    let mut merged = TopK::new(queries.n_rows(), k);
    for range in pieces {
        let mut tops = TopK::new(queries.n_rows(), k);
        tops.scan(&request, &[bank], range.clone(), |_, row| key(row))
            .unwrap();
        merged.merge(&tops);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded scans keep the brute-force lists for any seed count and any
    /// kind of pivot set. Each query has more than `k` rows planted at one
    /// distance with none nearer, so that distance is its k-th: half of
    /// them lead the bank, where a table with no pivots takes its seeds
    /// (every bound is 0, so the seeds are the first rows), and half close
    /// it, after random rows, under a key that falls as the row rises, so
    /// the late ties must enter on their keys past a ceiling the early ones
    /// set. The last query is a copy of a bank row. Whole and split scans
    /// share one request's ceilings.
    #[test]
    fn seeded_scans_match_brute_force(
        dim_index in 0usize..PRUNED_DIMS.len(),
        n_queries in 1usize..4,
        k in 1usize..6,
        extra in 1usize..6,
        far in 30usize..60,
        seeds in 0usize..5,
        cuts in vec(0usize..80, 0..3),
        seed in any::<u64>(),
        pivot_kind in 0usize..PIVOT_KINDS,
    ) {
        let dim = Dim::new(PRUNED_DIMS[dim_index]);
        let mut rng = SplitMix64::new(seed);
        let mut queries: Vec<BinaryHypervector> = (0..n_queries)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut front = Vec::new();
        let mut back = Vec::new();
        for query in &queries {
            let planted = usize::try_from(rng.next_bounded(300)).unwrap();
            for i in 0..k + extra {
                let side = if i % 2 == 0 { &mut front } else { &mut back };
                side.push(at_distance(query, planted, &mut rng));
            }
        }
        let mut rows = front;
        rows.extend((0..far).map(|_| BinaryHypervector::random(dim, &mut rng)));
        rows.extend(back);
        let n = rows.len();
        queries.push(rows[usize::try_from(rng.next_bounded(n as u64)).unwrap()].clone());
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let key = |row: usize| n - row;
        let pivots = pivot_table(pivot_kind, &bank, &query_matrix, &mut rng);
        let seeds = seed_count(seeds, k, n);
        let want = brute_force(&query_matrix, &bank, k, key);

        let whole = shared_scan(&query_matrix, &bank, &pivots, k, seeds, &pieces(n, &[]), key);
        let split = shared_scan(&query_matrix, &bank, &pivots, k, seeds, &pieces(n, &cuts), key);
        for (q, list) in want.iter().enumerate() {
            prop_assert_eq!(whole.list(q), list.as_slice(), "whole scan, query {}", q);
            prop_assert_eq!(split.list(q), list.as_slice(), "split scan, query {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded scans at 70,001 bits, where pivot distances saturate at
    /// `u16::MAX` (see `saturated_pivot_distances_keep_scans_exact`), keep
    /// the brute-force lists for every seed count, under every kind of
    /// pivot set and the all-zero and all-ones pivots.
    #[test]
    fn seeded_scans_with_saturated_pivot_distances_stay_exact(
        n in 40usize..64,
        n_queries in 1usize..4,
        k in 1usize..6,
        pivot_kind in 0usize..PIVOT_KINDS,
        cuts in vec(0usize..64, 0..3),
        seed in any::<u64>(),
    ) {
        let dim = Dim::new(70_001);
        let ones = BinaryHypervector::ones(dim);
        let mut rng = SplitMix64::new(seed);
        let dense = |rng: &mut SplitMix64| {
            let cleared = usize::try_from(rng.next_bounded(12_000)).unwrap();
            at_distance(&ones, cleared, rng)
        };
        let rows: Vec<BinaryHypervector> = (0..n).map(|_| dense(&mut rng)).collect();
        let queries: Vec<BinaryHypervector> = (0..n_queries).map(|_| dense(&mut rng)).collect();
        let bank = BitMatrix::from_hypervectors(&rows).unwrap();
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let key = |row: usize| n - row;
        let want = brute_force(&query_matrix, &bank, k, key);
        let zeros_and_ones =
            BitMatrix::from_hypervectors(&[BinaryHypervector::zeros(dim), ones.clone()]).unwrap();
        let tables = [
            pivot_table(pivot_kind, &bank, &query_matrix, &mut rng),
            PivotTable::new(zeros_and_ones, &[&bank]).unwrap(),
        ];
        for pivots in &tables {
            for seeds in 0..5 {
                let seeds = seed_count(seeds, k, n);
                let tops = shared_scan(&query_matrix, &bank, pivots, k, seeds, &pieces(n, &cuts), key);
                for (q, list) in want.iter().enumerate() {
                    prop_assert_eq!(tops.list(q), list.as_slice(), "query {}, {} seeds", q, seeds);
                }
            }
        }
    }
}

/// A bank split into several matrices scans like the one matrix it was cut
/// from: rows are numbered bank after bank, each pivot column spans every
/// bank, and a table extended bank by bank equals one built whole.
#[test]
fn split_banks_scan_like_one() {
    let encoder = LinearEncoder::new(Dim::new(10_000), 0.0, 1.0, 3).unwrap();
    let mut rng = SplitMix64::new(4);
    let rows: Vec<BinaryHypervector> = (0..300)
        .map(|_| encoder.encode(rng.next_bounded(64) as f64 / 63.0))
        .collect();
    let whole = BitMatrix::from_hypervectors(&rows).unwrap();
    let parts: Vec<BitMatrix> = [0..70, 70..71, 71..200, 200..300]
        .into_iter()
        .map(|r| BitMatrix::from_hypervectors(&rows[r]).unwrap())
        .collect();
    let banks: Vec<&BitMatrix> = parts.iter().collect();
    let chosen = PivotTable::choose_pivots(&whole);
    let table = PivotTable::new(chosen.clone(), &[&whole]).unwrap();
    let mut grown = PivotTable::new(chosen, &banks[..1]).unwrap();
    for end in 2..=banks.len() {
        grown.extend(&banks[..end]).unwrap();
    }
    assert_eq!(grown, table);

    let queries =
        BitMatrix::from_hypervectors(&[encoder.encode(0.2), encoder.encode(0.9)]).unwrap();
    let starts = [0, 70, 71, 200];
    let want = brute_force(&queries, &whole, 5, |row| row);
    let request = ScanRequest::new(&queries, 5, &table).unwrap();
    let mut tops = TopK::new(2, 5);
    tops.scan(&request, &banks, 30..300, |b, row| starts[b] + row)
        .unwrap();
    let mut first = TopK::new(2, 5);
    first
        .scan(&request, &banks, 0..30, |b, row| starts[b] + row)
        .unwrap();
    tops.merge(&first);
    for (q, list) in want.iter().enumerate() {
        assert_eq!(tops.list(q), list.as_slice(), "query {q}");
    }
    assert!(tops.scan(&request, &banks, 0..301, |_, row| row).is_err());
}
