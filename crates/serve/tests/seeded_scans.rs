//! The seeded k-NN scan against brute force on the store's layout: rows in
//! shards of a fixed capacity, numbered shard after shard, one pivot table
//! over all of them that appends extend, and parallel scans of contiguous
//! row ranges that share one request's ceilings. Random cases interleave
//! appends, which fill the last shard and roll new ones, with requests of
//! random `k`, seed counts and worker counts, over level-encoded records
//! whose distances track their values' (so the pivot bound skips rows and
//! the seeds set tight ceilings), with pivots of several kinds. Every
//! request's merged lists must equal brute force.
//!
//! `cargo test` runs a short series of cases; built with the
//! `fault-injection` feature (the CI chaos job) the series has 1,000.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::bitmatrix::{BitMatrix, PivotTable};
use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::topk::{ScanRequest, TopK};

/// Widths the cases draw from: a tail width and the paper's.
const DIMS: [usize; 2] = [2_050, 10_000];

/// Kinds of pivot set a case scans with.
const PIVOT_KINDS: u64 = 5;

/// A record of three continuous features on a grid of 16 levels each, so
/// equal records, and distances tied at the k-th, are common.
fn record(encoder: &RecordEncoder, rng: &mut SplitMix64) -> BinaryHypervector {
    let values: Vec<f64> = (0..3).map(|_| rng.next_bounded(16) as f64).collect();
    encoder.encode_record(&values).unwrap()
}

/// The pivots of `kind` for a bank of `rows`: none, those
/// `PivotTable::choose_pivots` picks, random rows, the all-zero and
/// all-ones rows, or repeated copies of bank rows.
fn pivots(kind: u64, rows: &[BinaryHypervector], rng: &mut SplitMix64) -> BitMatrix {
    let dim = rows[0].dim();
    let picked: Vec<BinaryHypervector> = match kind {
        0 => return BitMatrix::zeros(0, dim),
        1 => return PivotTable::choose_pivots(&BitMatrix::from_hypervectors(rows).unwrap()),
        2 => (0..4)
            .map(|_| BinaryHypervector::random(dim, rng))
            .collect(),
        3 => vec![BinaryHypervector::zeros(dim), BinaryHypervector::ones(dim)],
        _ => vec![
            rows[0].clone(),
            rows[rows.len() - 1].clone(),
            rows[0].clone(),
        ],
    };
    BitMatrix::from_hypervectors(&picked).unwrap()
}

/// Each query's `k` nearest `(distance, (shard, row))` by sort-and-truncate
/// over the rows in append order (global row `g` sits in shard
/// `g / capacity`).
fn brute_force(
    rows: &[BinaryHypervector],
    capacity: usize,
    query: &BinaryHypervector,
    k: usize,
) -> Vec<(usize, (usize, usize))> {
    let mut all: Vec<(usize, (usize, usize))> = rows
        .iter()
        .enumerate()
        .map(|(g, hv)| (query.try_hamming(hv).unwrap(), (g / capacity, g % capacity)))
        .collect();
    all.sort_unstable();
    all.truncate(k);
    all
}

/// Appends up to twice the capacity of random records, filling the last
/// shard and rolling new ones.
fn append(
    shards: &mut Vec<BitMatrix>,
    rows: &mut Vec<BinaryHypervector>,
    capacity: usize,
    encoder: &RecordEncoder,
    rng: &mut SplitMix64,
) {
    for _ in 0..1 + rng.next_bounded(2 * capacity as u64) {
        let hv = record(encoder, rng);
        if shards.last().is_none_or(|open| open.n_rows() == capacity) {
            shards.push(BitMatrix::zeros(0, hv.dim()));
        }
        shards.last_mut().unwrap().push_rows(&[&hv]).unwrap();
        rows.push(hv);
    }
}

/// Runs one random case: a first append and the table over it, then
/// requests and appends in a random order, the table following each append.
fn run_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dim = Dim::new(DIMS[rng.next_bounded(DIMS.len() as u64) as usize]);
    let schema = RecordSchema::new(
        (0..3)
            .map(|f| FeatureSpec::continuous(format!("f{f}"), 0.0, 15.0))
            .collect(),
    );
    let encoder = RecordEncoder::new(dim, schema, seed).unwrap();
    let capacity = 1 + rng.next_bounded(48) as usize;
    let mut shards = Vec::new();
    let mut rows = Vec::new();
    append(&mut shards, &mut rows, capacity, &encoder, &mut rng);
    let kind = rng.next_bounded(PIVOT_KINDS);
    let mut table = PivotTable::new(
        pivots(kind, &rows, &mut rng),
        &shards.iter().collect::<Vec<_>>(),
    )
    .unwrap();
    for op in 0..4 + rng.next_bounded(8) {
        if rng.next_bounded(3) == 0 {
            append(&mut shards, &mut rows, capacity, &encoder, &mut rng);
            table.extend(&shards.iter().collect::<Vec<_>>()).unwrap();
            continue;
        }
        let k = 1 + rng.next_bounded(7) as usize;
        let mut queries: Vec<BinaryHypervector> = (0..1 + rng.next_bounded(5))
            .map(|_| record(&encoder, &mut rng))
            .collect();
        if rng.next_bounded(2) == 0 {
            queries[0] = rows[rng.next_bounded(rows.len() as u64) as usize].clone();
        }
        let query_matrix = BitMatrix::from_hypervectors(&queries).unwrap();
        let mut request = ScanRequest::new(&query_matrix, k, &table).unwrap();
        let seeds = match rng.next_bounded(6) {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            3 => Some(k - 1),
            4 => Some(rows.len()),
            _ => Some(rows.len() + 1),
        };
        if let Some(seeds) = seeds {
            request = request.with_seed_rows(seeds);
        }
        let workers = 1 + rng.next_bounded(3) as usize;
        let bank_refs: Vec<&BitMatrix> = shards.iter().collect();
        let chunks = rayon::with_num_threads(workers, || {
            rayon::map_ranges(rows.len(), 1, |range| {
                let mut tops = TopK::new(queries.len(), k);
                tops.scan(&request, &bank_refs, range, |shard, row| (shard, row))
                    .unwrap();
                tops
            })
        });
        let mut merged = TopK::new(queries.len(), k);
        for tops in &chunks {
            merged.merge(tops);
        }
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(
                merged.list(q),
                brute_force(&rows, capacity, query, k).as_slice(),
                "seed {seed:#x}, op {op}, query {q}: {} rows, capacity {capacity}, k {k}, \
                 pivot kind {kind}, seeds {seeds:?}, {workers} workers",
                rows.len()
            );
        }
    }
}

fn run_series(cases: u64) {
    for case in 0..cases {
        run_case(0x5eed_0000 + case);
    }
}

#[test]
fn seeded_scans_between_appends_match_brute_force() {
    run_series(48);
}

#[cfg(feature = "fault-injection")]
#[test]
fn a_thousand_seeded_scan_series_match_brute_force() {
    run_series(1_000);
}
