//! Chaos tests for the serving plane, driven by the `hyperfex-faults`
//! harness. Compiled only with `--features fault-injection` (see
//! `[[test]]` in `Cargo.toml`).
//!
//! Three layers get exercised: file-level snapshot corruption scheduled by
//! a [`FaultPlan`] (the recovering reader must quarantine exactly the
//! planned victims and keep serving), the `serve/snapshot_write` failpoint
//! (a crash between write and rename must leave the previous good snapshot
//! intact), and the `serve/snapshot_load` / `serve/batch_predict` seams
//! (injected faults surface as typed errors and are retryable).

use std::path::PathBuf;

use hyperfex_faults::registry;
use hyperfex_faults::{FailRule, FaultAction, FaultPlan};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::HdcError;
use hyperfex_serve::{HvStore, ServeError, SyntheticCohort};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hyperfex-serve-chaos-{tag}-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Holds the failpoint registry with no rules installed, so a test that
/// only corrupts files cannot see the faults a concurrently running test
/// installs (the hooks are process-global).
fn no_injected_faults() -> registry::FailpointsGuard {
    registry::install(&[]).unwrap()
}

fn cohort(seed: u64) -> SyntheticCohort {
    SyntheticCohort::generate(Dim::new(512), 2, 100, 30, seed).unwrap()
}

/// A plan whose snapshot layer is armed hard enough that every victim is
/// guaranteed to be detected (the header clobber destroys the magic).
fn snapshot_plan(seed: u64, victims: usize) -> FaultPlan {
    let mut plan = FaultPlan::none(seed);
    plan.snapshot_victims = victims;
    plan.snapshot_flips = 8;
    plan.snapshot_clobber_header = true;
    plan
}

#[test]
fn planned_corruption_quarantines_exactly_the_victims_and_survivors_serve() {
    let _guard = no_injected_faults();
    let dir = scratch_dir("planned");
    let cohort = cohort(11);
    let n_shards = 5;
    let mut store = HvStore::build(&cohort.records, &cohort.labels, n_shards).unwrap();
    store.save(&dir).unwrap();

    let shard_paths = HvStore::shard_paths(&dir).unwrap();
    let plan = snapshot_plan(42, 2);
    let victims = plan.apply_snapshot_files(&shard_paths).unwrap();
    assert_eq!(victims.len(), 2);

    let (recovered, report) = HvStore::open(&dir).unwrap();
    assert!(report.is_complete());
    assert_eq!(report.total_shards, n_shards);
    // Shard files sort by index, so victim positions ARE shard indices.
    let mut quarantined_indices: Vec<usize> = report
        .quarantined
        .iter()
        .map(|q| {
            q.shard_index.map_or_else(
                || {
                    shard_paths
                        .iter()
                        .position(|p| p.file_name().unwrap().to_string_lossy() == q.file)
                        .unwrap()
                },
                |i| i as usize,
            )
        })
        .collect();
    quarantined_indices.sort_unstable();
    assert_eq!(quarantined_indices, victims);

    // Survivors still classify fresh probes far above the 1/C floor.
    let mut rng = SplitMix64::new(99);
    let total = 40;
    let mut correct = 0;
    for i in 0..total {
        let class = i % 2;
        let probe = cohort.prototypes[class]
            .flip_balanced(30, &mut rng)
            .unwrap();
        if recovered.predict_batch(&[probe], 3).unwrap() == vec![class] {
            correct += 1;
        }
    }
    assert!(correct >= total * 9 / 10, "correct = {correct}/{total}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_replays_byte_identically_from_the_plan_seed() {
    let _guard = no_injected_faults();
    let dir_a = scratch_dir("replay-a");
    let dir_b = scratch_dir("replay-b");
    let cohort = cohort(12);
    let mut store = HvStore::build(&cohort.records, &cohort.labels, 4).unwrap();
    store.save(&dir_a).unwrap();
    store.save(&dir_b).unwrap();

    let plan = snapshot_plan(1234, 2);
    let victims_a = plan
        .apply_snapshot_files(&HvStore::shard_paths(&dir_a).unwrap())
        .unwrap();
    let victims_b = plan
        .apply_snapshot_files(&HvStore::shard_paths(&dir_b).unwrap())
        .unwrap();
    assert_eq!(victims_a, victims_b);

    // The corrupted bytes, the recovery reports and the recovered stores
    // all replay exactly.
    for (a, b) in HvStore::shard_paths(&dir_a)
        .unwrap()
        .iter()
        .zip(&HvStore::shard_paths(&dir_b).unwrap())
    {
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }
    let (store_a, report_a) = HvStore::open(&dir_a).unwrap();
    let (store_b, report_b) = HvStore::open(&dir_b).unwrap();
    // Quarantine reasons embed full paths, which differ by directory;
    // everything else must replay exactly.
    assert_eq!(report_a.total_shards, report_b.total_shards);
    assert_eq!(report_a.kept, report_b.kept);
    assert_eq!(
        report_a.accumulators_recovered,
        report_b.accumulators_recovered
    );
    let strip =
        |r: &hyperfex_serve::RecoveryReport, dir: &str| -> Vec<(String, Option<u32>, String)> {
            r.quarantined
                .iter()
                .map(|q| {
                    (
                        q.file.clone(),
                        q.shard_index,
                        q.reason.replace(dir, "<dir>"),
                    )
                })
                .collect()
        };
    assert_eq!(
        strip(&report_a, &dir_a.display().to_string()),
        strip(&report_b, &dir_b.display().to_string())
    );
    assert_eq!(store_a, store_b);
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn injected_write_failure_leaves_the_previous_snapshot_intact() {
    let dir = scratch_dir("atomic");
    let cohort = cohort(13);
    let mut store = HvStore::build(&cohort.records, &cohort.labels, 3).unwrap();
    store.save(&dir).unwrap();
    let before: Vec<Vec<u8>> = HvStore::shard_paths(&dir)
        .unwrap()
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .collect();

    // A different store tries to overwrite the snapshot, but the write
    // seam fails before any rename happens.
    let mut other = HvStore::build(&cohort.records[..60], &cohort.labels[..60], 3).unwrap();
    {
        let _guard = registry::install(&[FailRule {
            point: "serve/snapshot_write".to_string(),
            action: FaultAction::Fail,
            after: 0,
            times: None,
        }])
        .unwrap();
        let err = other.save(&dir).unwrap_err();
        assert!(
            matches!(err, ServeError::Hdc(HdcError::Injected { ref point }) if point == "serve/snapshot_write"),
            "unexpected error: {err}"
        );
    }

    // Every original shard file is byte-identical and the store reopens.
    let after: Vec<Vec<u8>> = HvStore::shard_paths(&dir)
        .unwrap()
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .collect();
    assert_eq!(before, after);
    let (reopened, report) = HvStore::open(&dir).unwrap();
    assert_eq!(reopened, store);
    assert!(report.quarantined.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_load_failure_quarantines_every_shard_with_the_seam_name() {
    let dir = scratch_dir("load");
    let cohort = cohort(14);
    let mut store = HvStore::build(&cohort.records, &cohort.labels, 3).unwrap();
    store.save(&dir).unwrap();

    let _guard = registry::install(&[FailRule {
        point: "serve/snapshot_load".to_string(),
        action: FaultAction::Fail,
        after: 0,
        times: None,
    }])
    .unwrap();
    let (recovered, report) = HvStore::open(&dir).unwrap();
    assert!(report.is_complete());
    assert_eq!(report.quarantined.len(), 3);
    assert!(report
        .quarantined
        .iter()
        .all(|q| q.reason.contains("serve/snapshot_load")));
    assert!(!report.accumulators_recovered);
    assert_eq!(
        recovered
            .predict_batch(&cohort.records[..1], 1)
            .unwrap_err(),
        ServeError::NoSurvivors
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_predict_failure_is_retryable_and_recovers() {
    let cohort = cohort(15);
    let store = HvStore::build(&cohort.records, &cohort.labels, 2).unwrap();

    let _guard = registry::install(&[FailRule {
        point: "serve/batch_predict".to_string(),
        action: FaultAction::Fail,
        after: 0,
        times: Some(2),
    }])
    .unwrap();

    // The first two calls hit the fault window and may be retried; the
    // third succeeds.
    for _ in 0..2 {
        let err = store.predict_batch(&cohort.records[..4], 1).unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
    }
    assert_eq!(
        store.predict_batch(&cohort.records[..4], 1),
        Ok(cohort.labels[..4].to_vec())
    );
}
