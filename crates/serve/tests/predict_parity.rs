//! `HvStore::predict_batch` splits the store's rows into contiguous
//! ranges that may span shards, one per worker. This checks it against a
//! serial fold over the shards on the ingest workload's layout, four full
//! 4,096-row shards plus one of 3,616, with equal distances planted across
//! shard boundaries, for 1-query and 32-query batches and one to eight
//! workers.

use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::{BinaryHypervector, Dim};
use hyperfex_serve::HvStore;

const CAPACITY: usize = 4_096;
const ROWS: usize = 4 * CAPACITY + 3_616;
const DIM: usize = 192;

/// Serial fold: every row's `(distance, shard, row, label)` candidate in
/// shard order, the `k` smallest kept, then a majority vote whose ties go
/// to the label seen first (the one with the nearest member).
fn serial_fold(
    bank: &[BinaryHypervector],
    labels: &[usize],
    query: &BinaryHypervector,
    k: usize,
) -> usize {
    let mut candidates: Vec<(usize, usize, usize, usize)> = bank
        .iter()
        .zip(labels)
        .enumerate()
        .map(|(g, (hv, &label))| {
            let distance = query.try_hamming(hv).unwrap();
            (distance, g / CAPACITY, g % CAPACITY, label)
        })
        .collect();
    candidates.sort_unstable();
    candidates.truncate(k);
    let mut tally: Vec<(usize, usize)> = Vec::new();
    for &(_, _, _, label) in &candidates {
        match tally.iter_mut().find(|(l, _)| *l == label) {
            Some((_, count)) => *count += 1,
            None => tally.push((label, 1)),
        }
    }
    let top = tally.iter().map(|&(_, count)| count).max().unwrap();
    tally.iter().find(|&&(_, count)| count == top).unwrap().0
}

/// The bank, its labels and the queries. Rows on either side of every
/// shard boundary and of the two-worker split point are copies of one
/// anchor vector with differing labels, and some queries are the anchor
/// itself or one bit away from it, so the nearest rows tie across a
/// boundary and only the `(shard, row)` order decides.
fn planted() -> (Vec<BinaryHypervector>, Vec<usize>, Vec<BinaryHypervector>) {
    let mut rng = SplitMix64::new(77);
    let dim = Dim::new(DIM);
    let mut bank: Vec<BinaryHypervector> = (0..ROWS)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..ROWS)
        .map(|_| usize::try_from(rng.next_u64() % 3).unwrap())
        .collect();
    let anchor = BinaryHypervector::random(dim, &mut rng);
    for boundary in [CAPACITY, 2 * CAPACITY, 3 * CAPACITY, 4 * CAPACITY, ROWS / 2] {
        bank[boundary - 2..boundary + 2].fill(anchor.clone());
    }
    let mut near = anchor.clone();
    near.flip(5);
    let mut queries = vec![anchor, near];
    while queries.len() < 32 {
        let random = BinaryHypervector::random(dim, &mut rng);
        let copy = bank[usize::try_from(rng.next_u64()).unwrap() % ROWS].clone();
        queries.push(if queries.len() % 2 == 0 { random } else { copy });
    }
    (bank, labels, queries)
}

#[test]
fn predict_batch_matches_a_serial_fold_over_unequal_shards() {
    let (bank, labels, queries) = planted();
    let mut store = HvStore::new_empty(Dim::new(DIM), CAPACITY).unwrap();
    store.append_batch(&bank, &labels).unwrap();
    assert_eq!(store.n_shards(), 5);
    assert_eq!(store.n_rows(), ROWS);

    for k in [1, 4, 5] {
        let want: Vec<usize> = queries
            .iter()
            .map(|q| serial_fold(&bank, &labels, q, k))
            .collect();
        for workers in 1..=8 {
            let (one, all) = rayon::with_num_threads(workers, || {
                (
                    store.predict_batch(&queries[..1], k).unwrap(),
                    store.predict_batch(&queries, k).unwrap(),
                )
            });
            assert_eq!(one, want[..1], "1 query, k {k}, {workers} workers");
            assert_eq!(all, want, "32 queries, k {k}, {workers} workers");
        }
    }
}
