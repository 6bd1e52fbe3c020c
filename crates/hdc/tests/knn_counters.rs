//! With the `obs` feature, each k-NN scan and leave-one-out sweep counts
//! the pairs it compared (`hdc/knn_pairs`), the pairs a scan's pivot bound
//! skipped unread (`hdc/knn_pairs_skipped`) and the pairs it stopped
//! reading once they could not enter a top-k list
//! (`hdc/knn_pairs_abandoned`); every other pair was read in full. A scan
//! also counts the seed rows it read first, per query, to set its ceilings
//! (`hdc/knn_pairs_seeded`). Without the feature the counters compile to
//! nothing and this file is empty.

#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use hyperfex_hdc::bitmatrix::{hamming_words, PivotTable};
use hyperfex_hdc::classify::LeaveOneOut;
use hyperfex_hdc::encoding::LinearEncoder;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::topk::{ScanRequest, TopK};
use hyperfex_hdc::{BinaryHypervector, BitMatrix, Dim};

/// The counters are process-global, so each test holds this lock and
/// reads only the change its own calls made.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value of counter `name` so far.
fn counter(name: &str) -> u64 {
    hyperfex_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// `(compared, abandoned)` pairs counted so far.
fn counts() -> (u64, u64) {
    (counter("hdc/knn_pairs"), counter("hdc/knn_pairs_abandoned"))
}

/// The change in `(compared, skipped, abandoned)` that `run` makes.
fn counted_with_skips(run: impl FnOnce()) -> (u64, u64, u64) {
    let skipped_before = counter("hdc/knn_pairs_skipped");
    let (compared, abandoned) = counted(run);
    let skipped = counter("hdc/knn_pairs_skipped") - skipped_before;
    (compared, skipped, abandoned)
}

/// The change in `(compared, skipped, abandoned, seeded)` that `run`
/// makes.
fn counted_with_seeds(run: impl FnOnce()) -> (u64, u64, u64, u64) {
    let seeded_before = counter("hdc/knn_pairs_seeded");
    let (compared, skipped, abandoned) = counted_with_skips(run);
    let seeded = counter("hdc/knn_pairs_seeded") - seeded_before;
    (compared, skipped, abandoned, seeded)
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

    let none = PivotTable::none(bank.dim());

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 1);
        let request = ScanRequest::new(&queries, 1, &none).unwrap();
        tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    });
    assert_eq!(compared, 40 * 3);
    assert!(
        abandoned > 0,
        "a copy at distance 0 leaves no random row a place"
    );

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 40);
        let request = ScanRequest::new(&queries, 40, &none).unwrap();
        tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    });
    assert_eq!((compared, abandoned), (40 * 3, 0), "k = rows");

    let (compared, abandoned) = counted(|| {
        let mut tops = TopK::new(3, 64);
        let request = ScanRequest::new(&queries, 64, &none).unwrap();
        tops.scan(&request, &[&bank], 10..25, |_, row| row).unwrap();
    });
    assert_eq!((compared, abandoned), (15 * 3, 0), "k > rows");

    let (_, skipped, _) = counted_with_skips(|| {
        let mut tops = TopK::new(3, 1);
        let request = ScanRequest::new(&queries, 1, &none).unwrap();
        tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    });
    assert_eq!(skipped, 0, "no pivots skip nothing");
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

/// With each query among the pivots, a query's bound on a row is its
/// distance, so a 1-nearest scan never abandons a row: it reads in full
/// exactly the rows at or below the running nearest distance and skips
/// the rest.
#[test]
fn pairs_are_skipped_abandoned_or_read_in_full() {
    let _lock = registry_lock();
    let rows = bank_with_a_near_neighbour();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let queries = bank.select_rows(&[0, 7, 12]);
    let pivots = PivotTable::new(queries.clone(), &[&bank]).unwrap();

    let (compared, skipped, abandoned) = counted_with_skips(|| {
        let mut tops = TopK::new(3, 1);
        let request = ScanRequest::new(&queries, 1, &pivots)
            .unwrap()
            .with_seed_rows(0);
        tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    });
    let read_in_full: u64 = (0..queries.n_rows())
        .map(|q| {
            let mut nearest = usize::MAX;
            let mut read = 0;
            for row in 0..bank.n_rows() {
                let d = hamming_words(queries.row_words(q), bank.row_words(row));
                if d <= nearest {
                    nearest = d;
                    read += 1;
                }
            }
            read
        })
        .sum();
    assert_eq!(abandoned, 0);
    assert_eq!(compared, 40 * 3);
    assert_eq!(compared, skipped + abandoned + read_in_full);

    let (compared, skipped, abandoned) = counted_with_skips(|| {
        let mut tops = TopK::new(3, 40);
        let request = ScanRequest::new(&queries, 40, &pivots)
            .unwrap()
            .with_seed_rows(0);
        tops.scan(&request, &[&bank], 0..40, |_, row| row).unwrap();
    });
    assert_eq!((compared, skipped, abandoned), (40 * 3, 0, 0), "k = rows");
}

/// On a level-encoded bank a value's nearest rows hold nearby values, and
/// the chosen pivots bound most rows past them, including rows the table
/// took through `extend` after it was built.
#[test]
fn chosen_pivots_skip_pairs_of_a_level_encoded_bank() {
    let _lock = registry_lock();
    let encoder = LinearEncoder::new(Dim::new(10_000), 0.0, 1.0, 5).unwrap();
    let mut rng = SplitMix64::new(8);
    let rows: Vec<BinaryHypervector> = (0..400).map(|_| encoder.encode(rng.next_f64())).collect();
    let first_half = BitMatrix::from_hypervectors(&rows[..200]).unwrap();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let mut pivots =
        PivotTable::new(PivotTable::choose_pivots(&first_half), &[&first_half]).unwrap();
    assert!(pivots.pivots().n_rows() > 0);
    pivots.extend(&[&bank]).unwrap();
    let queries =
        BitMatrix::from_hypervectors(&[encoder.encode(0.3), encoder.encode(0.71)]).unwrap();

    let (compared, skipped, abandoned) = counted_with_skips(|| {
        let mut tops = TopK::new(2, 5);
        let request = ScanRequest::new(&queries, 5, &pivots).unwrap();
        tops.scan(&request, &[&bank], 200..400, |_, row| row)
            .unwrap();
    });
    assert_eq!(compared, 200 * 2);
    assert!(skipped > 0, "the extended rows are skipped too");
    assert!(
        compared >= skipped + abandoned + 2 * 5,
        "each list read its 5 rows in full"
    );
}

/// Tripwire for the seeded ceiling: on a level-encoded bank, a scan that
/// reads each query's lowest-bound rows first skips strictly more pairs
/// than one at the same pivots that does not, keeps the same lists, counts
/// its seed reads apart from its main pass, and still reads each list's
/// `k` rows in full in the main pass.
#[test]
fn seeded_scans_skip_more_pairs_than_unseeded_ones() {
    let _lock = registry_lock();
    let encoder = LinearEncoder::new(Dim::new(10_000), 0.0, 1.0, 5).unwrap();
    let mut rng = SplitMix64::new(9);
    let rows: Vec<BinaryHypervector> = (0..2_000).map(|_| encoder.encode(rng.next_f64())).collect();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let pivots = PivotTable::new(PivotTable::choose_pivots(&bank), &[&bank]).unwrap();
    assert!(pivots.pivots().n_rows() > 0);
    let queries = BitMatrix::from_hypervectors(&[
        encoder.encode(0.13),
        encoder.encode(0.52),
        encoder.encode(0.97),
    ])
    .unwrap();

    let scan = |seed_rows: Option<usize>| {
        let mut request = ScanRequest::new(&queries, 5, &pivots).unwrap();
        if let Some(rows) = seed_rows {
            request = request.with_seed_rows(rows);
        }
        let mut tops = TopK::new(3, 5);
        let counts = counted_with_seeds(|| {
            tops.scan(&request, &[&bank], 0..2_000, |_, row| row)
                .unwrap();
        });
        (counts, tops)
    };
    let ((compared, unseeded_skips, _, unseeded_reads), plain) = scan(Some(0));
    assert_eq!(compared, 2_000 * 3);
    assert_eq!(unseeded_reads, 0, "no seeds, no seed reads");
    let ((compared, skipped, abandoned, seeded), tops) = scan(None);
    assert_eq!(compared, 2_000 * 3, "seed reads are not main-pass pairs");
    assert!(seeded > 0, "each query read seed rows");
    assert!(
        skipped > unseeded_skips,
        "seeded {skipped} against unseeded {unseeded_skips} skips"
    );
    assert!(
        compared >= skipped + abandoned + 3 * 5,
        "each list read its 5 rows in full"
    );
    for q in 0..3 {
        assert_eq!(tops.list(q), plain.list(q), "query {q}");
    }
}
