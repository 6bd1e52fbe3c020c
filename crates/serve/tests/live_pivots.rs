//! The k-NN scan's pivot tables are derived state of a live store: built
//! at its first predict, then extended by every append, including appends
//! that roll new shards. Random cases interleave predicts and appends on
//! one live store of level-encoded records, whose distances track their
//! values' so the pivot bound skips rows, and every prediction must equal
//! a brute-force k-nearest vote over the rows appended so far.
//!
//! `cargo test` runs a short series of cases; built with the
//! `fault-injection` feature (the CI chaos job) the series has 1,000.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_serve::HvStore;

/// Widths the cases draw from: a tail width and the paper's.
const DIMS: [usize; 2] = [2_050, 10_000];

/// A record of three continuous features on a grid of 16 levels each, so
/// equal records, and distances tied at the k-th, are common.
fn record(encoder: &RecordEncoder, rng: &mut SplitMix64) -> BinaryHypervector {
    let values: Vec<f64> = (0..3).map(|_| rng.next_bounded(16) as f64).collect();
    encoder.encode_record(&values).unwrap()
}

/// Brute-force k-nearest vote: every row's `(distance, shard, row, label)`
/// in append order (global row `g` sits in shard `g / capacity`), the `k`
/// smallest kept, then a majority vote whose ties go to the label seen
/// first, the one with the nearest member.
fn brute_force_vote(
    rows: &[(BinaryHypervector, usize)],
    capacity: usize,
    query: &BinaryHypervector,
    k: usize,
) -> usize {
    let mut candidates: Vec<(usize, usize, usize, usize)> = rows
        .iter()
        .enumerate()
        .map(|(g, (hv, label))| {
            let distance = query.try_hamming(hv).unwrap();
            (distance, g / capacity, g % capacity, *label)
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

/// Runs one random case: a first append, then predicts and appends in a
/// random order, every append of up to twice the shard capacity.
fn run_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dim = Dim::new(DIMS[rng.next_bounded(DIMS.len() as u64) as usize]);
    let schema = RecordSchema::new(
        (0..3)
            .map(|f| FeatureSpec::continuous(format!("f{f}"), 0.0, 15.0))
            .collect(),
    );
    let encoder = RecordEncoder::new(dim, schema, seed).unwrap();
    let capacity = 1 + rng.next_bounded(24) as usize;
    let mut store = HvStore::new_empty(dim, capacity).unwrap();
    let mut rows: Vec<(BinaryHypervector, usize)> = Vec::new();
    let append = |store: &mut HvStore, rows: &mut Vec<_>, rng: &mut SplitMix64| {
        let n = 1 + rng.next_bounded(2 * capacity as u64) as usize;
        let batch: Vec<(BinaryHypervector, usize)> = (0..n)
            .map(|_| (record(&encoder, rng), rng.next_bounded(3) as usize))
            .collect();
        let (hvs, labels): (Vec<_>, Vec<_>) = batch.iter().cloned().unzip();
        store.append_batch(&hvs, &labels).unwrap();
        rows.extend(batch);
    };
    append(&mut store, &mut rows, &mut rng);
    for op in 0..4 + rng.next_bounded(8) {
        if rng.next_bounded(2) == 0 {
            append(&mut store, &mut rows, &mut rng);
            continue;
        }
        let k = 1 + rng.next_bounded(7) as usize;
        let queries: Vec<BinaryHypervector> = (0..1 + rng.next_bounded(4))
            .map(|_| record(&encoder, &mut rng))
            .collect();
        let got = store.predict_batch(&queries, k).unwrap();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(
                got[q],
                brute_force_vote(&rows, capacity, query, k),
                "seed {seed:#x}, op {op}, query {q}: {} rows, capacity {capacity}, k {k}",
                rows.len()
            );
        }
    }
}

fn run_series(cases: u64) {
    for case in 0..cases {
        run_case(0x9170_0000 + case);
    }
}

#[test]
fn predicts_between_appends_match_a_brute_force_vote() {
    run_series(48);
}

#[cfg(feature = "fault-injection")]
#[test]
fn a_thousand_interleavings_match_a_brute_force_vote() {
    run_series(1_000);
}
