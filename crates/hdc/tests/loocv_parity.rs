//! The symmetric tiled leave-one-out sweep against the per-row sweep it
//! replaced (`reference::loocv_sweep`), and the tiled `pairwise_hamming`
//! against its per-bit oracle, across tile edges and worker counts.
//! Duplicate rows are planted so that distances tie, which puts the
//! `(distance, index)` tie rule under test.

use std::sync::{Mutex, MutexGuard, PoisonError};

use hyperfex_hdc::bitmatrix::pairwise_hamming;
use hyperfex_hdc::classify::{LeaveOneOut, LoocvOutcome};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::{reference, BinaryHypervector, BitMatrix, Dim};

/// Rows per tile of the sweep (`bitmatrix::TILE_ROWS`).
const TILE: usize = 32;
const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// LOOCV records into the process-global obs registry; tests that run it
/// hold this lock so the histogram check sees only its own observations.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `n` random 200-bit rows (a partial tail word) over three classes, with
/// every seventh row a copy of an earlier one so that distance-0 and
/// other ties occur within and across tiles.
fn cohort(n: usize, seed: u64) -> (Vec<BinaryHypervector>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let mut hvs: Vec<BinaryHypervector> = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let hv = if i % 7 == 6 {
            hvs[i / 2].clone()
        } else {
            BinaryHypervector::random(Dim::new(200), &mut rng)
        };
        hvs.push(hv);
        labels.push(usize::try_from(rng.next_u64() % 3).unwrap());
    }
    (hvs, labels)
}

#[test]
fn tiled_loocv_matches_the_per_row_sweep() {
    let _lock = registry_lock();
    for n in [2, TILE - 1, TILE, TILE + 1, 100, 769] {
        let (hvs, labels) = cohort(n, n as u64);
        for k in [1, 3, 5] {
            let want: Vec<usize> = reference::loocv_sweep(&hvs, &labels, k)
                .into_iter()
                .map(|(prediction, _)| prediction)
                .collect();
            let want = LoocvOutcome::from_predictions(&labels, &want, 3);
            for workers in WORKERS {
                let got = rayon::with_num_threads(workers, || {
                    LeaveOneOut::with_k(k).unwrap().run(&hvs, &labels).unwrap()
                });
                assert_eq!(got, want, "n {n}, k {k}, {workers} workers");
            }
        }
    }
}

#[test]
fn loocv_on_all_equal_rows_picks_the_lowest_other_index() {
    let _lock = registry_lock();
    let hv = BinaryHypervector::random(Dim::new(130), &mut SplitMix64::new(5));
    let hvs = vec![hv; 70];
    let labels: Vec<usize> = (0..70).map(|i| i % 2).collect();
    let got = rayon::with_num_threads(3, || LeaveOneOut::new().run(&hvs, &labels).unwrap());
    // Row 0's nearest is row 1 (label 1); every other row's is row 0.
    let mut want = vec![0; 70];
    want[0] = 1;
    assert_eq!(got.predictions, want);
}

#[test]
fn tiled_pairwise_hamming_matches_the_per_bit_oracle() {
    for n in [0, 1, 2, TILE - 1, TILE + 1, 3 * TILE + 5] {
        let (hvs, _) = cohort(n, 40 + n as u64);
        let m = if n == 0 {
            BitMatrix::zeros(0, Dim::new(200))
        } else {
            BitMatrix::from_hypervectors(&hvs).unwrap()
        };
        let want = reference::pairwise_hamming(&m);
        for workers in WORKERS {
            let got = rayon::with_num_threads(workers, || pairwise_hamming(&m));
            assert_eq!(got, want, "n {n}, {workers} workers");
        }
    }
}

/// `n` rows at the paper's 10,000 bits, ten 16-word blocks each, so the
/// sweep can stop reading a pair part-way. Each row is one of three
/// centres with 800 random bit flips, so a row's nearest rows sit far
/// below the rest. Ties are planted: every fifth row is a copy of an
/// earlier one, and six rows, one in each of the first six tiles, lie
/// exactly 300 bits from row 0 and about 600 from each other, so row 0's
/// five nearest all tie.
fn clustered_cohort(n: usize, seed: u64) -> Vec<BinaryHypervector> {
    let mut rng = SplitMix64::new(seed);
    let dim = Dim::new(10_000);
    let centres: Vec<BinaryHypervector> = (0..3)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let mut hvs: Vec<BinaryHypervector> = Vec::with_capacity(n);
    for i in 0..n {
        let hv = if i % 5 == 4 {
            hvs[i / 2].clone()
        } else {
            let mut hv = centres[usize::try_from(rng.next_bounded(3)).unwrap()].clone();
            for _ in 0..800 {
                hv.flip(usize::try_from(rng.next_bounded(10_000)).unwrap());
            }
            hv
        };
        hvs.push(hv);
    }
    for row in [9, 40, 71, 100, 133, 170] {
        let mut bits: Vec<usize> = (0..10_000).collect();
        rng.shuffle(&mut bits);
        let mut tied = hvs[0].clone();
        for &bit in &bits[..300] {
            tied.flip(bit);
        }
        hvs[row] = tied;
    }
    hvs
}

#[test]
fn tiled_loocv_at_paper_width_matches_the_per_row_sweep() {
    let _lock = registry_lock();
    let n = 200;
    let hvs = clustered_cohort(n, 10_000);
    let mut rng = SplitMix64::new(3);
    let three_classes: Vec<usize> = (0..n)
        .map(|_| usize::try_from(rng.next_u64() % 3).unwrap())
        .collect();
    // One class per row: a 1-NN prediction names the nearest row itself,
    // and a 5-NN one the lowest index among the five nearest.
    let per_row: Vec<usize> = (0..n).collect();
    for labels in [&three_classes, &per_row] {
        let n_classes = labels.iter().max().unwrap() + 1;
        for k in [1, 5] {
            let want: Vec<usize> = reference::loocv_sweep(&hvs, labels, k)
                .into_iter()
                .map(|(prediction, _)| prediction)
                .collect();
            let want = LoocvOutcome::from_predictions(labels, &want, n_classes);
            for workers in WORKERS {
                let got = rayon::with_num_threads(workers, || {
                    LeaveOneOut::with_k(k).unwrap().run(&hvs, labels).unwrap()
                });
                assert_eq!(got, want, "{n_classes} classes, k {k}, {workers} workers");
            }
        }
    }
}

#[cfg(feature = "obs")]
#[test]
fn nearest_distance_histogram_matches_the_per_row_sweep() {
    use hyperfex_obs::Histogram;

    fn counts() -> Option<(Vec<f64>, Vec<u64>)> {
        hyperfex_obs::snapshot()
            .histograms
            .into_iter()
            .find(|h| h.name == "hdc/loocv_nn_distance")
            .map(|h| (h.bounds, h.buckets))
    }

    let _lock = registry_lock();
    let (hvs, labels) = cohort(769, 769);
    for workers in WORKERS {
        let before = counts().map(|(_, buckets)| buckets);
        rayon::with_num_threads(workers, || LeaveOneOut::new().run(&hvs, &labels).unwrap());
        let (bounds, after) = counts().expect("LOOCV registers its histogram");
        let before = before.unwrap_or_else(|| vec![0; after.len()]);
        let got: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();

        let want = Histogram::new(Box::leak(bounds.into_boxed_slice()));
        for (_, d) in reference::loocv_sweep(&hvs, &labels, 1) {
            want.observe(d as f64 / 200.0);
        }
        assert_eq!(got, want.bucket_counts(), "{workers} workers");
    }
}
