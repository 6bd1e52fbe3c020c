//! `HvStore::predict_batch` splits the store's rows into contiguous
//! ranges that may span shards, one per worker. This checks it against a
//! serial fold over the shards on the ingest workload's layout, four full
//! 4,096-row shards plus one of 3,616, with equal distances planted across
//! shard boundaries, for 1-query and 32-query batches and one to eight
//! workers. A third check runs level-encoded records, for which the store
//! chooses pivots and seeds its scans' ceilings, in shards smaller than
//! the scan's seed pool.

use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
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
    serial_fold_in(CAPACITY, bank, labels, query, k)
}

/// [`serial_fold`] over shards of `capacity` rows.
fn serial_fold_in(
    capacity: usize,
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
            (distance, g / capacity, g % capacity, label)
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

/// Bit width of the paper-width check: ten 16-word blocks per row, so the
/// scan can stop reading a row part-way.
const PAPER_DIM: usize = 10_000;
/// Rows of the paper-width store: two full shards and one of 1,808, enough
/// for eight workers to take a 1,024-row chunk each.
const PAPER_ROWS: usize = 2 * CAPACITY + 1_808;

/// The bank, its labels and the queries at 10,000 bits. Each row is one
/// of four centres with 800 random bit flips, so a query near a
/// centre has its nearest rows far below the rest and the scan abandons
/// most rows part-way. Copies of one anchor straddle both shard boundaries
/// and the chunk boundaries of two to eight workers, and the queries are
/// the anchor, a row one bit from it, then noisy centres, copies of bank
/// rows and random vectors in turn.
fn planted_at_paper_width() -> (Vec<BinaryHypervector>, Vec<usize>, Vec<BinaryHypervector>) {
    let mut rng = SplitMix64::new(78);
    let dim = Dim::new(PAPER_DIM);
    let centres: Vec<BinaryHypervector> = (0..4)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let noisy = |rng: &mut SplitMix64| {
        let mut hv = centres[usize::try_from(rng.next_bounded(4)).unwrap()].clone();
        for _ in 0..800 {
            hv.flip(usize::try_from(rng.next_bounded(PAPER_DIM as u64)).unwrap());
        }
        hv
    };
    let mut bank: Vec<BinaryHypervector> = (0..PAPER_ROWS).map(|_| noisy(&mut rng)).collect();
    let labels: Vec<usize> = (0..PAPER_ROWS)
        .map(|_| usize::try_from(rng.next_u64() % 3).unwrap())
        .collect();
    let anchor = noisy(&mut rng);
    let mut boundaries = vec![CAPACITY, 2 * CAPACITY];
    for workers in 2..=8 {
        let (base, extra) = (PAPER_ROWS / workers, PAPER_ROWS % workers);
        boundaries.extend((1..workers).map(|i| i * base + i.min(extra)));
    }
    for boundary in boundaries {
        bank[boundary - 2..boundary + 2].fill(anchor.clone());
    }
    let mut near = anchor.clone();
    near.flip(5);
    let mut queries = vec![anchor, near];
    while queries.len() < 32 {
        let query = match queries.len() % 3 {
            0 => noisy(&mut rng),
            1 => bank[usize::try_from(rng.next_u64()).unwrap() % PAPER_ROWS].clone(),
            _ => BinaryHypervector::random(dim, &mut rng),
        };
        queries.push(query);
    }
    (bank, labels, queries)
}

#[test]
fn predict_batch_at_paper_width_matches_a_serial_fold() {
    let (bank, labels, queries) = planted_at_paper_width();
    let mut store = HvStore::new_empty(Dim::new(PAPER_DIM), CAPACITY).unwrap();
    store.append_batch(&bank, &labels).unwrap();
    assert_eq!(store.n_shards(), 3);
    assert_eq!(store.n_rows(), PAPER_ROWS);

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

/// Rows per shard of the seeded check: fewer than the 128 seed rows a scan
/// may read per query, so every chunk's seeds and its ceiling span shards.
const SMALL_CAPACITY: usize = 40;

/// 3,000 level-encoded records at 10,000 bits in 75 shards of
/// [`SMALL_CAPACITY`], three features on a grid of 12 levels each (so equal
/// records, and distances tied at the k-th across shard boundaries, are
/// common), and 32 held-out queries, the first a copy of a bank row.
#[test]
fn seeded_predicts_over_shards_smaller_than_the_seed_pool_match_a_serial_fold() {
    let dim = Dim::new(PAPER_DIM);
    let schema = RecordSchema::new(
        (0..3)
            .map(|f| FeatureSpec::continuous(format!("f{f}"), 0.0, 11.0))
            .collect(),
    );
    let encoder = RecordEncoder::new(dim, schema, 79).unwrap();
    let mut rng = SplitMix64::new(79);
    let mut record = || {
        let values: Vec<f64> = (0..3).map(|_| rng.next_bounded(12) as f64).collect();
        encoder.encode_record(&values).unwrap()
    };
    let bank: Vec<BinaryHypervector> = (0..3_000).map(|_| record()).collect();
    let mut queries: Vec<BinaryHypervector> = (0..32).map(|_| record()).collect();
    queries[0] = bank[1_234].clone();
    let labels: Vec<usize> = (0..bank.len()).map(|g| (g * 7 / 5) % 3).collect();
    let mut store = HvStore::new_empty(dim, SMALL_CAPACITY).unwrap();
    store.append_batch(&bank, &labels).unwrap();
    assert_eq!(store.n_shards(), 75);

    for k in [1, 4, 5] {
        let want: Vec<usize> = queries
            .iter()
            .map(|q| serial_fold_in(SMALL_CAPACITY, &bank, &labels, q, k))
            .collect();
        for workers in [1, 2] {
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
