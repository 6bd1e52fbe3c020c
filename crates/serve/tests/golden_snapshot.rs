//! Golden snapshot files: the writers' byte output is pinned.
//!
//! Both fixtures hold the snapshot of one fixed store — built through a
//! distillation selection, then grown by two appends that roll a shard.
//! `tests/golden/` is that snapshot in format v2, as the earlier writers
//! wrote it (one whole-file buffer per file, no manifest); it must keep
//! reopening as the same store. `tests/golden_v3/` is the same snapshot in
//! format v3: the writers must reproduce every file byte for byte (shards,
//! accumulators, selection and manifest), so neither the format nor the
//! encoded state moves unnoticed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::distill::BitSelection;
use hyperfex_serve::{HvStore, SyntheticCohort};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_v3_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_v3")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hyperfex-serve-golden-{tag}-{}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fixed store: 60 records at 1,000 bits gathered to 650 bits in two
/// 30-row shards, then two 15-record full-width appends that roll and fill
/// a third shard.
fn golden_store() -> (HvStore, SyntheticCohort) {
    let cohort = SyntheticCohort::generate(Dim::new(1000), 3, 90, 120, 2024).unwrap();
    let selection = BitSelection::random(Dim::new(1000), 650, 7).unwrap();
    let mut store =
        HvStore::build_pruned(&cohort.records[..60], &cohort.labels[..60], 2, &selection).unwrap();
    store
        .append_batch(&cohort.records[60..75], &cohort.labels[60..75])
        .unwrap();
    store
        .append_batch(&cohort.records[75..90], &cohort.labels[75..90])
        .unwrap();
    (store, cohort)
}

/// Every file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn streamed_writers_reproduce_the_golden_files_byte_for_byte() {
    let dir = scratch_dir("save");
    let (mut store, _) = golden_store();
    assert_eq!(store.n_shards(), 3);
    store.save(&dir).unwrap();

    let golden = files(&golden_v3_dir());
    let written = files(&dir);
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        vec![
            "accums.hfex",
            "manifest.hfex",
            "selection.hfex",
            "shard-0000.hfex",
            "shard-0001.hfex",
            "shard-0002.hfex"
        ]
    );
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &written {
        assert!(
            bytes == &golden[name],
            "{name} differs from its golden file"
        );
    }

    // A rolling snapshot writes the same bytes as a full save.
    let rolling = scratch_dir("rolling");
    let (mut store, _) = golden_store();
    store.save_dirty(&rolling).unwrap();
    assert_eq!(files(&rolling), golden);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&rolling).unwrap();
}

#[test]
fn golden_snapshot_reopens_as_the_same_store() {
    let (store, cohort) = golden_store();
    let (reopened, report) = HvStore::open(&golden_dir()).unwrap();
    assert!(report.is_complete());
    assert!(report.quarantined.is_empty());
    assert!(report.accumulators_recovered);
    assert!(report.selection_recovered);
    assert_eq!(report.kept, vec![0, 1, 2]);
    assert_eq!(reopened, store);
    assert_eq!(reopened.selection(), store.selection());
    let selection = store.selection().unwrap();
    let queries: Vec<_> = cohort.records[..12]
        .iter()
        .map(|hv| selection.gather_hypervector(hv).unwrap())
        .collect();
    assert_eq!(
        reopened.predict_batch(&queries, 3).unwrap(),
        store.predict_batch(&queries, 3).unwrap()
    );
}

#[test]
fn v3_golden_snapshot_reopens_as_the_same_store() {
    let (store, _) = golden_store();
    let (reopened, report) = HvStore::open(&golden_v3_dir()).unwrap();
    assert!(report.quarantined.is_empty());
    assert!(!report.accumulators_rebuilt);
    assert!(report.selection_recovered);
    assert_eq!(reopened, store);
    assert_eq!(reopened.shard_capacity(), store.shard_capacity());
}
