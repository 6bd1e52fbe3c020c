//! Microbenchmarks of the core hypervector operations at the paper's
//! 10,000-bit dimensionality (supports the §II claim that binary ops "are
//! easy and highly efficient" on conventional hardware).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::{
    hamming_between, masked_weight_sum, pairwise_hamming, popcount_dot, BitMatrix, RelativeRows,
};
use hyperfex_hdc::prelude::*;
use std::hint::black_box;

fn bench_ops(c: &mut Criterion) {
    let dim = Dim::PAPER;
    let mut rng = SplitMix64::new(7);
    let a = BinaryHypervector::random(dim, &mut rng);
    let b = BinaryHypervector::random(dim, &mut rng);
    let stack: Vec<BinaryHypervector> = (0..8)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let stack16: Vec<BinaryHypervector> = (0..16)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();

    let mut g = c.benchmark_group("hdc_ops_10k");
    g.bench_function("hamming", |bch| {
        bch.iter(|| black_box(a.try_hamming(black_box(&b)).unwrap()));
    });
    g.bench_function("bind_xor", |bch| {
        bch.iter(|| black_box(a.bind(black_box(&b))));
    });
    g.bench_function("majority_bundle_8", |bch| {
        bch.iter(|| black_box(bundle::try_majority(black_box(&stack)).unwrap()));
    });
    g.bench_function("majority_bundle_16", |bch| {
        bch.iter(|| black_box(bundle::try_majority(black_box(&stack16)).unwrap()));
    });
    g.bench_function("random_balanced", |bch| {
        bch.iter_batched(
            || SplitMix64::new(11),
            |mut r| black_box(BinaryHypervector::random_balanced(dim, &mut r)),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Word-level kernels over the packed design matrix: the primitives the
/// hybrid ML fast paths are built on, at the paper's 10,000 bits.
fn bench_bitmatrix(c: &mut Criterion) {
    let dim = Dim::PAPER;
    let mut rng = SplitMix64::new(13);
    let rows: Vec<BinaryHypervector> = (0..64)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let m = BitMatrix::from_hypervectors(&rows).unwrap();
    let queries = BitMatrix::from_hypervectors(&rows[..16]).unwrap();
    let weights: Vec<f64> = (0..dim.get()).map(|i| (i % 17) as f64 * 0.25).collect();
    // Rows that differ from a reference in one bit in eight, about a
    // level-encoded record's distance from its cohort's majority row: row
    // k flips the reference's bits where rows k + 2, k + 3 and k + 4 of
    // `m` (mod 64) are all set.
    let reference = m.row_hypervector(1);
    let near_words: Vec<u64> = (0..64)
        .flat_map(|k| {
            let [a, b, c] = [2, 3, 4].map(|o| m.row_words((k + o) % 64));
            let r = reference.words();
            (0..r.len()).map(move |w| r[w] ^ (a[w] & b[w] & c[w]))
        })
        .collect();
    let near = BitMatrix::from_words(64, dim, near_words).unwrap();
    let lists = RelativeRows::new(&near, &reference);

    let mut g = c.benchmark_group("bitmatrix_10k");
    g.bench_function("popcount_dot", |bch| {
        bch.iter(|| {
            black_box(popcount_dot(
                black_box(m.row_words(0)),
                black_box(m.row_words(1)),
            ))
        });
    });
    g.bench_function("masked_weight_sum", |bch| {
        bch.iter(|| {
            black_box(masked_weight_sum(
                black_box(m.row_words(0)),
                black_box(&weights),
            ))
        });
    });
    // The two list walks visit all 64 rows per iteration, as a training
    // epoch does, so the branch predictor cannot learn one row's bit pattern.
    g.bench_function("relative_weight_sum_64", |bch| {
        bch.iter(|| {
            (0..lists.n_rows())
                .map(|i| lists.weight_sum(black_box(i), black_box(&weights)))
                .sum::<f64>()
        });
    });
    // One weight vector across iterations, cache-resident as in a training
    // loop; a fresh 80 KB vector per call would time cache misses instead.
    let mut out = vec![0.0f64; dim.get()];
    g.bench_function("relative_scatter_add_64", |bch| {
        bch.iter(|| {
            for i in 0..lists.n_rows() {
                lists.scatter_add(black_box(i), 0.5, &mut out);
            }
        });
    });
    black_box(&out);
    g.bench_function("relative_rows_build_64", |bch| {
        bch.iter(|| black_box(RelativeRows::new(black_box(&near), black_box(&reference))));
    });
    g.bench_function("pairwise_hamming_64", |bch| {
        bch.iter(|| black_box(pairwise_hamming(black_box(&m))));
    });
    g.bench_function("hamming_between_16x64", |bch| {
        bch.iter(|| black_box(hamming_between(black_box(&queries), black_box(&m)).unwrap()));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_ops, bench_bitmatrix
}
criterion_main!(benches);
