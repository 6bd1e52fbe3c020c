//! With the `obs` feature, each k-NN scan and leave-one-out sweep counts
//! the pairs it compared (`hdc/knn_pairs`) and the pairs it stopped
//! reading once they could not enter a top-k list
//! (`hdc/knn_pairs_abandoned`). Without the feature the counters compile
//! to nothing and this file is empty.

#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use hyperfex_hdc::classify::LeaveOneOut;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::topk::TopK;
use hyperfex_hdc::{BinaryHypervector, BitMatrix, Dim};

/// The counters are process-global, so each test holds this lock and
/// reads only the change its own calls made.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(compared, abandoned)` pairs counted so far.
fn counts() -> (u64, u64) {
    let counters = hyperfex_obs::snapshot().counters;
    let value = |name: &str| {
        counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    (value("hdc/knn_pairs"), value("hdc/knn_pairs_abandoned"))
}

/// The change in `(compared, abandoned)` that `run` makes.
fn counted(run: impl FnOnce()) -> (u64, u64) {
    let before = counts();
    run();
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

/// 40 random rows at 10,000 bits, row 0 repeated at row 1 with 20 bits
/// flipped: each is the other's near neighbour, thousands of bits nearer
/// than any random row.
fn bank_with_a_near_neighbour() -> Vec<BinaryHypervector> {
    let mut rng = SplitMix64::new(21);
    let mut rows: Vec<BinaryHypervector> = (0..40)
        .map(|_| BinaryHypervector::random(Dim::new(10_000), &mut rng))
        .collect();
    let mut near = rows[0].clone();
    for bit in 0..20 {
        near.flip(bit * 500);
    }
    rows[1] = near;
    rows
}

#[test]
fn scans_count_rows_times_queries_and_abandon_only_when_a_list_is_full() {
    let _lock = registry_lock();
    let rows = bank_with_a_near_neighbour();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let queries = bank.select_rows(&[0, 7, 12]);

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 1);
        tops.scan(&queries, &bank, 0..40, |row| row).unwrap();
    });
    assert_eq!(compared, 40 * 3);
    assert!(
        abandoned > 0,
        "a copy at distance 0 leaves no random row a place"
    );

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 40);
        tops.scan(&queries, &bank, 0..40, |row| row).unwrap();
    });
    assert_eq!((compared, abandoned), (40 * 3, 0), "k = rows");

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 64);
        tops.scan(&queries, &bank, 10..25, |row| row).unwrap();
    });
    assert_eq!((compared, abandoned), (15 * 3, 0), "k > rows");
}

#[test]
fn sweeps_count_each_unordered_pair_once() {
    let _lock = registry_lock();
    let rows = bank_with_a_near_neighbour();
    let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
    let pairs = 40 * 39 / 2;

    let (compared, abandoned) = counted(|| {
        LeaveOneOut::new().run(&rows, &labels).unwrap();
    });
    assert_eq!(compared, pairs);
    assert!(
        abandoned > 0,
        "a random pair farther than both rows' nearest so far"
    );

    let (compared, abandoned) = counted(|| {
        LeaveOneOut::with_k(39)
            .unwrap()
            .run(&rows, &labels)
            .unwrap();
    });
    assert_eq!((compared, abandoned), (pairs, 0), "k = rows - 1");
}
