//! Model-based crash test of the snapshot commit protocol.
//!
//! Random sequences of appends, full and rolling saves, crashes at the
//! k-th write of a commit (injected through the `serve/snapshot_write`
//! seam), torn or garbled bytes left by the interrupted commit, bit rot in
//! committed shard bytes, and reopens — some with file reads failing
//! through the `serve/snapshot_load` seam — run against an in-memory
//! reference: the records appended, in order, each in the shard the
//! store's append rule puts it. After every `open` the store must serve
//! exactly the reference's committed rows, minus the shards bit rot
//! destroyed and those whose read failed: the same row count, class totals
//! and k-NN predictions, with balanced accounting. A shard whose read
//! failed stays committed, and the next clean `open` serves it again.
//!
//! A second test kills a streaming ingest after every flush, with and
//! without a crash inside the next flush's commit, and resumes it: the
//! resumed store and every file of its snapshot must equal an
//! uninterrupted run's.
//!
//! Two more pin the edges of the protocol: the first commit into a v2
//! snapshot (no manifest) must leave it readable at every crash point,
//! and a read that fails on an injected fault at `open` must not become a
//! committed loss.
//!
//! `cargo test` runs a short series of cases; built with the
//! `fault-injection` feature (the CI chaos job) the series has 10,000.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hyperfex_faults::registry;
use hyperfex_faults::{FailRule, FaultAction};
use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::stream::StreamSink;
use hyperfex_serve::snapshot;
use hyperfex_serve::{HvStore, ServeError, StoreAppendSink, SyntheticCohort};

/// Records each case draws from.
const POOL: usize = 64;
/// Neighbours per k-NN prediction.
const K: usize = 3;

fn scratch_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hyperfex-serve-model-{tag}-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Holds the failpoint registry: with no rules, or with one rule failing
/// the `k`-th and every later snapshot write. Every step of these tests
/// runs under a guard, so the tests never see each other's faults.
fn faults(crash_at: Option<usize>) -> registry::FailpointsGuard {
    let rules: Vec<FailRule> = crash_at
        .map(|after| FailRule {
            point: "serve/snapshot_write".to_string(),
            action: FaultAction::Fail,
            after,
            times: None,
        })
        .into_iter()
        .collect();
    registry::install(&rules).unwrap()
}

/// Holds the failpoint registry with one rule failing `times` file reads
/// (every later one when `None`) after letting `after` pass.
fn load_faults(after: usize, times: Option<usize>) -> registry::FailpointsGuard {
    registry::install(&[FailRule {
        point: "serve/snapshot_load".to_string(),
        action: FaultAction::Fail,
        after,
        times,
    }])
    .unwrap()
}

/// The reference store: served shards as (index, pool ids of their rows),
/// filled by the store's append rule — fill the last served shard up to
/// the capacity, otherwise roll the next unused index.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    shards: Vec<(u32, Vec<usize>)>,
    /// Committed shards whose read failed at the last `open`: not served,
    /// but still committed.
    unread: Vec<(u32, Vec<usize>)>,
    lost: Vec<u32>,
    next_index: u32,
}

impl Model {
    fn append(&mut self, ids: &[usize], capacity: usize) {
        for &id in ids {
            match self.shards.last_mut() {
                Some((_, rows)) if rows.len() < capacity => rows.push(id),
                _ => {
                    self.shards.push((self.next_index, vec![id]));
                    self.next_index += 1;
                }
            }
        }
    }

    fn rows(&self) -> Vec<usize> {
        self.shards
            .iter()
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect()
    }

    fn lose(&mut self, index: u32) {
        self.shards.retain(|(i, _)| *i != index);
        self.unread.retain(|(i, _)| *i != index);
        self.lost.push(index);
        self.lost.sort_unstable();
    }

    /// What an `open` serves when the reads of the shards `unread` fail.
    fn opened(&self, unread: &[u32]) -> Self {
        let mut all: Vec<(u32, Vec<usize>)> =
            self.shards.iter().chain(&self.unread).cloned().collect();
        all.sort_unstable_by_key(|(index, _)| *index);
        let (unread, shards) = all.into_iter().partition(|(i, _)| unread.contains(i));
        Self {
            shards,
            unread,
            ..self.clone()
        }
    }
}

/// One case's fixed inputs.
struct Case {
    dir: PathBuf,
    dim: Dim,
    capacity: usize,
    cohort: SyntheticCohort,
}

impl Case {
    fn records(&self, ids: &[usize]) -> (Vec<BinaryHypervector>, Vec<usize>) {
        ids.iter()
            .map(|&id| (self.cohort.records[id].clone(), self.cohort.labels[id]))
            .unzip()
    }

    /// Opens the snapshot and checks it against `committed`, the reference
    /// of the last commit that published, with the file reads `load_fault`
    /// (after, times) names failing. Returns the store to continue from:
    /// the reopened one, or a fresh one when nothing was committed.
    fn reopen(
        &self,
        committed: Option<&Model>,
        load_fault: Option<(usize, Option<usize>)>,
        context: &str,
    ) -> (HvStore, Model) {
        let _guard = match load_fault {
            Some((after, times)) => load_faults(after, times),
            None => faults(None),
        };
        let Some(committed) = committed else {
            // Nothing committed: whatever an interrupted first commit left
            // behind must not surface as rows.
            if self.dir.exists() {
                let (store, report) = HvStore::open(&self.dir).unwrap();
                assert_eq!(store.n_rows(), 0, "{context}: uncommitted rows surfaced");
                assert!(report.is_complete(), "{context}");
            }
            return (
                HvStore::new_empty(self.dim, self.capacity).unwrap(),
                Model::default(),
            );
        };
        let (store, report) = HvStore::open(&self.dir).unwrap();
        assert!(report.is_complete(), "{context}: {report:?}");
        let unread: Vec<u32> = report
            .quarantined
            .iter()
            .filter(|q| q.reason.contains("serve/snapshot_load"))
            .map(|q| q.shard_index.unwrap())
            .collect();
        assert!(
            load_fault.is_some() || unread.is_empty(),
            "{context}: {report:?}"
        );
        let model = committed.opened(&unread);
        let kept: Vec<u32> = model.shards.iter().map(|(i, _)| *i).collect();
        assert_eq!(report.kept, kept, "{context}: kept shards");
        let mut quarantined: Vec<u32> = report
            .quarantined
            .iter()
            .map(|q| q.shard_index.unwrap())
            .collect();
        quarantined.sort_unstable();
        // A lost shard can be among the failed reads, once.
        let mut expected: Vec<u32> = model.unread.iter().map(|(i, _)| *i).collect();
        expected.extend(&model.lost);
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(quarantined, expected, "{context}: quarantined shards");
        let rows = model.rows();
        assert_eq!(store.n_rows(), rows.len(), "{context}: row count");
        assert_eq!(store.shard_capacity(), self.capacity, "{context}: capacity");

        let (hvs, labels) = self.records(&rows);
        let mut expected_totals = vec![0i32; 3];
        for &label in &labels {
            expected_totals[label] += 1;
        }
        match store.accumulators() {
            Some(accums) => {
                let mut totals = accums.parts().1.to_vec();
                totals.resize(3, 0);
                assert_eq!(totals, expected_totals, "{context}: class totals");
            }
            // Only a failed read leaves the store without accumulators.
            None => assert!(load_fault.is_some(), "{context}: accumulators lost"),
        }

        let queries = &self.cohort.records[..8];
        if rows.is_empty() {
            assert_eq!(
                store.predict_batch(queries, K).unwrap_err(),
                ServeError::NoSurvivors
            );
        } else {
            let reference = HvStore::build(&hvs, &labels, 1).unwrap();
            assert_eq!(
                store.predict_batch(queries, K).unwrap(),
                reference.predict_batch(queries, K).unwrap(),
                "{context}: predictions"
            );
        }
        (store, model)
    }
}

/// Leaves bytes a torn write could have left past a shard's committed
/// length: extra bytes, or a cut or bit-flipped part of what the
/// interrupted commit appended.
fn garble_tail(dir: &Path, rng: &mut SplitMix64) {
    let Ok(Some(manifest)) = snapshot::read_manifest(dir) else {
        return;
    };
    let live: Vec<_> = manifest.shards.iter().filter(|e| !e.lost).collect();
    if live.is_empty() {
        return;
    }
    let entry = live[rng.next_bounded(live.len() as u64) as usize];
    let path = dir.join(entry.file_name());
    let mut bytes = std::fs::read(&path).unwrap();
    let committed = entry.bytes as usize;
    match rng.next_bounded(3) {
        0 => bytes.extend((0..1 + rng.next_bounded(64)).map(|_| rng.next_u64() as u8)),
        1 if bytes.len() > committed => {
            let keep = committed + rng.next_bounded((bytes.len() - committed) as u64) as usize;
            bytes.truncate(keep);
        }
        _ if bytes.len() > committed => {
            let at = committed + rng.next_bounded((bytes.len() - committed) as u64) as usize;
            bytes[at] ^= 1 << rng.next_bounded(8);
        }
        _ => return,
    }
    std::fs::write(&path, bytes).unwrap();
}

/// Flips one bit inside the committed bytes of a committed, unlost shard;
/// returns its index.
fn rot_committed_shard(dir: &Path, model: &Model, rng: &mut SplitMix64) -> Option<u32> {
    let manifest = snapshot::read_manifest(dir).ok()??;
    let shards: Vec<_> = model.shards.iter().chain(&model.unread).collect();
    let (index, _) = shards.get(rng.next_bounded(shards.len().max(1) as u64) as usize)?;
    let entry = manifest.entry(*index)?;
    let path = dir.join(entry.file_name());
    let mut bytes = std::fs::read(&path).unwrap();
    let at = rng.next_bounded(entry.bytes) as usize;
    bytes[at] ^= 1 << rng.next_bounded(8);
    std::fs::write(&path, bytes).unwrap();
    Some(*index)
}

/// Runs one random case.
fn run_case(root: &Path, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dim = Dim::new([63, 64, 65, 130][rng.next_bounded(4) as usize]);
    let case = Case {
        dir: root.join(format!("case-{seed:016x}")),
        dim,
        capacity: 1 + rng.next_bounded(6) as usize,
        cohort: SyntheticCohort::generate(dim, 3, POOL, dim.get() / 6, seed).unwrap(),
    };
    // The store of the live process (None after a crash), its reference,
    // and the reference of the last published commit.
    let mut live: Option<(HvStore, Model)> = Some((
        HvStore::new_empty(dim, case.capacity).unwrap(),
        Model::default(),
    ));
    let mut committed: Option<Model> = None;
    let mut next_id = 0usize;
    let n_ops = 4 + rng.next_bounded(9);
    for op in 0..n_ops {
        let context = format!("seed {seed:#x}, op {op}");
        let (mut store, mut model) = match live.take() {
            Some(state) => state,
            None => case.reopen(committed.as_ref(), None, &context),
        };
        match rng.next_bounded(10) {
            0..=3 => {
                let n = 1 + rng.next_bounded(2 * case.capacity as u64 + 1) as usize;
                let ids: Vec<usize> = (next_id..next_id + n).map(|i| i % POOL).collect();
                next_id += n;
                let (hvs, labels) = case.records(&ids);
                let _guard = faults(None);
                store.append_batch(&hvs, &labels).unwrap();
                model.append(&ids, case.capacity);
                live = Some((store, model));
            }
            4..=7 => {
                // A full or rolling save, crashed at its k-th write when
                // `crash_at` is drawn.
                let whole = rng.next_bounded(3) == 0;
                let crash_at = (rng.next_bounded(2) == 0).then(|| rng.next_bounded(6) as usize);
                let saved = {
                    let _guard = faults(crash_at);
                    if whole {
                        store.save(&case.dir).map(drop)
                    } else {
                        store.save_dirty(&case.dir).map(drop)
                    }
                };
                match saved {
                    Ok(()) => {
                        committed = Some(model.clone());
                        live = Some((store, model));
                    }
                    Err(e) => {
                        assert!(
                            matches!(&e, ServeError::Hdc(hyperfex_hdc::HdcError::Injected { .. })),
                            "{context}: {e}"
                        );
                        // The process dies mid-commit; a torn write may
                        // have left garbage past the committed lengths.
                        if rng.next_bounded(2) == 0 {
                            garble_tail(&case.dir, &mut rng);
                        }
                    }
                }
            }
            8 => {
                // Bit rot in committed bytes. The process restarts, so
                // no live store appends on top of it, and the next open
                // must quarantine that shard alone.
                let rotted = committed
                    .as_ref()
                    .and_then(|model| rot_committed_shard(&case.dir, model, &mut rng));
                match (rotted, committed.as_mut()) {
                    (Some(index), Some(model)) => model.lose(index),
                    _ => live = Some((store, model)),
                }
            }
            _ => {
                // A restart; with something committed, some of its file
                // reads may fail: the shards first, then the accumulator
                // file.
                drop(store);
                let entries = committed
                    .as_ref()
                    .map_or(0, |m| m.shards.len() + m.unread.len() + m.lost.len());
                let load_fault = (committed.is_some() && rng.next_bounded(2) == 0).then(|| {
                    let after = rng.next_bounded(entries as u64 + 2) as usize;
                    (after, (rng.next_bounded(2) == 0).then_some(1))
                });
                live = Some(case.reopen(committed.as_ref(), load_fault, &context));
            }
        }
    }
    drop(live);
    case.reopen(committed.as_ref(), None, &format!("seed {seed:#x}, final"));
    drop(std::fs::remove_dir_all(&case.dir));
}

fn run_series(tag: &str, cases: u64) {
    let root = scratch_root(tag);
    for case in 0..cases {
        run_case(&root, 0x5EED_0000 + case);
    }
    drop(std::fs::remove_dir_all(&root));
}

#[test]
fn random_commit_crash_and_corruption_sequences_match_the_reference() {
    run_series("short", 48);
}

#[cfg(feature = "fault-injection")]
#[test]
fn ten_thousand_random_sequences_match_the_reference() {
    run_series("long", 10_000);
}

/// Every file of a directory, by name.
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

/// Streams `records[from..]` into `store` through a sink flushing every
/// `flush` records with a rolling snapshot into `dir`. With
/// `kill: Some((after, crash))` the process dies after `after` flushes, or,
/// when `crash` is `Some(k)`, during the next flush, whose commit fails at
/// its `k`-th write; the sink's buffered records are lost either way.
fn stream(
    store: &mut HvStore,
    dir: &Path,
    cohort: &SyntheticCohort,
    from: usize,
    flush: usize,
    kill: Option<(usize, Option<usize>)>,
) {
    let mut sink = StoreAppendSink::with_capacity(store, flush).with_snapshot_dir(dir);
    let records = cohort.records.iter().zip(&cohort.labels).enumerate();
    for (seq, (hv, &label)) in records.skip(from) {
        let absorbed = seq - from;
        if let Some((after, crash)) = kill {
            let flushes = absorbed / flush;
            if flushes == after + usize::from(crash.is_some()) {
                return;
            }
            if crash.is_some() && flushes == after && (absorbed + 1) % flush == 0 {
                let _guard = faults(crash);
                if sink.absorb(seq, label, hv).is_err() {
                    return;
                }
                continue;
            }
        }
        let _guard = faults(None);
        sink.absorb(seq, label, hv).unwrap();
    }
    let _guard = faults(None);
    sink.finish().unwrap();
}

#[test]
fn a_stream_killed_after_any_flush_resumes_to_the_uninterrupted_result() {
    let root = scratch_root("resume");
    let dim = Dim::new(130);
    let cohort = SyntheticCohort::generate(dim, 3, 53, 20, 77).unwrap();
    // Flushes of 5 records into shards of 8: rolls land mid-flush.
    let (flush, capacity) = (5, 8);
    let whole = root.join("uninterrupted");
    let mut expected = HvStore::new_empty(dim, capacity).unwrap();
    stream(&mut expected, &whole, &cohort, 0, flush, None);
    let expected_files = files(&whole);

    // Every kill leaves a later full flush to crash in.
    let n_flushes = cohort.records.len() / flush;
    for after in 1..n_flushes {
        for crash in [None, Some(0), Some(1), Some(2), Some(3)] {
            let dir = root.join(format!("killed-{after}-{crash:?}"));
            let mut store = HvStore::new_empty(dim, capacity).unwrap();
            stream(&mut store, &dir, &cohort, 0, flush, Some((after, crash)));
            drop(store);

            // The resumed process starts from what the snapshot holds; the
            // shard capacity comes back from the manifest.
            let (mut resumed, report) = {
                let _guard = faults(None);
                HvStore::open(&dir).unwrap()
            };
            assert!(report.quarantined.is_empty(), "{after} {crash:?}");
            let from = resumed.n_rows();
            assert_eq!(from % flush, 0, "{after} {crash:?}");
            stream(&mut resumed, &dir, &cohort, from, flush, None);
            assert_eq!(resumed, expected, "store after kill {after} {crash:?}");
            assert!(
                files(&dir) == expected_files,
                "files after kill {after} {crash:?}: {:?}",
                files(&dir).keys().collect::<Vec<_>>()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    drop(std::fs::remove_dir_all(&root));
}

/// Replaces `dir` with a copy of the v2 golden snapshot, which has no
/// manifest.
fn copy_v2_golden(dir: &Path) {
    drop(std::fs::remove_dir_all(dir));
    std::fs::create_dir_all(dir).unwrap();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, bytes) in files(&golden) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Asserts that `dir` holds its manifest, the sidecars and the shard files
/// the manifest names, and nothing else.
fn assert_only_committed_files(dir: &Path, context: &str) {
    let manifest = snapshot::read_manifest(dir).unwrap().unwrap();
    let mut expected: Vec<String> = manifest.shards.iter().map(|e| e.file_name()).collect();
    expected.extend(["accums.hfex", "manifest.hfex", "selection.hfex"].map(String::from));
    expected.sort();
    let found: Vec<String> = files(dir).into_keys().collect();
    assert_eq!(found, expected, "{context}");
}

/// Opens `dir` with no faults armed.
fn open_clean(dir: &Path) -> (HvStore, hyperfex_serve::RecoveryReport) {
    let _guard = faults(None);
    HvStore::open(dir).unwrap()
}

#[test]
fn a_first_commit_into_a_v2_snapshot_loses_nothing_at_any_crash() {
    let root = scratch_root("v2");
    let dir = root.join("snapshot");
    copy_v2_golden(&dir);
    let (golden, _) = open_clean(&dir);
    let extra = SyntheticCohort::generate(golden.dim(), 3, 7, 40, 5).unwrap();
    for append in [false, true] {
        let grow = |store: &mut HvStore| {
            if append {
                store.append_batch(&extra.records, &extra.labels).unwrap();
            }
        };
        let mut expected = golden.clone();
        grow(&mut expected);
        for crash_at in 0.. {
            let context = format!("append {append}, crash at write {crash_at}");
            copy_v2_golden(&dir);
            let (mut store, _) = open_clean(&dir);
            grow(&mut store);
            let saved = {
                let _guard = faults(Some(crash_at));
                store.save_dirty(&dir)
            };
            let (mut reopened, report) = open_clean(&dir);
            assert!(report.quarantined.is_empty(), "{context}: {report:?}");
            if saved.is_ok() {
                assert_eq!(reopened, expected, "{context}");
                // The v2 shard files' names were taken, so the migration
                // wrote generation-1 files and then deleted the v2 ones.
                assert!(dir.join("shard-0000-g1.hfex").exists(), "{context}");
                assert_only_committed_files(&dir, &context);
                break;
            }
            // The crash left the v2 snapshot readable as it was, and a
            // retried commit from it completes the migration.
            assert_eq!(reopened, golden, "{context}");
            assert_eq!(reopened.selection(), golden.selection(), "{context}");
            grow(&mut reopened);
            {
                let _guard = faults(None);
                reopened.save_dirty(&dir).unwrap();
            }
            assert_eq!(open_clean(&dir).0, expected, "{context}: retried");
            assert_only_committed_files(&dir, &context);
        }
    }

    // Without a manifest a failed read cannot be carried to a later
    // commit, so it fails `open` rather than quarantining the file.
    copy_v2_golden(&dir);
    let err = {
        let _guard = load_faults(1, Some(1));
        HvStore::open(&dir).unwrap_err()
    };
    assert!(
        matches!(
            &err,
            ServeError::Hdc(hyperfex_hdc::HdcError::Injected { .. })
        ),
        "{err}"
    );
    drop(std::fs::remove_dir_all(&root));
}

#[test]
fn reads_failed_by_a_fault_at_open_stay_committed() {
    let root = scratch_root("unread");
    let dim = Dim::new(130);
    let cohort = SyntheticCohort::generate(dim, 3, 70, 20, 91).unwrap();
    // Three full 20-row shards; ten more rows roll a fourth.
    let base = HvStore::build(&cohort.records[..60], &cohort.labels[..60], 3).unwrap();
    let mut expected = base.clone();
    expected
        .append_batch(&cohort.records[60..], &cohort.labels[60..])
        .unwrap();
    // `open` reads shards 0, 1 and 2, then the accumulator file.
    for (after, times, failed) in [
        (0, None, "every read"),
        (1, Some(1), "shard 1"),
        (3, Some(1), "the accumulator file"),
    ] {
        let dir = root.join(format!("fail-{after}"));
        let mut store = base.clone();
        {
            let _guard = faults(None);
            store.save(&dir).unwrap();
        }
        let (mut opened, report) = {
            let _guard = load_faults(after, times);
            HvStore::open(&dir).unwrap()
        };
        assert!(report.is_complete(), "{failed}");
        assert!(
            report
                .quarantined
                .iter()
                .all(|q| q.reason.contains("serve/snapshot_load")),
            "{failed}: {report:?}"
        );

        // A commit after the failed reads, then a clean reopen: every
        // committed row is back, with accumulators counting all of them.
        opened
            .append_batch(&cohort.records[60..], &cohort.labels[60..])
            .unwrap();
        {
            let _guard = faults(None);
            opened.save_dirty(&dir).unwrap();
        }
        let (reopened, report) = open_clean(&dir);
        assert!(report.quarantined.is_empty(), "{failed}: {report:?}");
        assert!(report.accumulators_recovered, "{failed}");
        assert_eq!(reopened, expected, "{failed}");
    }
    drop(std::fs::remove_dir_all(&root));
}
