//! The sharded hypervector store: build, save, recover, serve.
//!
//! A store is a bank of labelled record hypervectors split into contiguous
//! shards, each persisted as one self-describing file that grows by
//! appended row batches (see [`crate::snapshot`]), plus the class
//! accumulators of a centroid model. A manifest commits them together.
//! [`HvStore::open`] is the crash-recovery path: it reads every shard the
//! manifest names up to its committed rows, quarantines the ones that fail
//! validation into a [`RecoveryReport`] — the accounting mirrors the
//! encoder's `QuarantineReport`: every shard of the snapshot is either kept
//! or quarantined, never silently dropped — reconciles the class totals
//! with the kept rows, and serves top-k Hamming retrieval from the
//! survivors. Losing a shard loses that shard's rows, nothing else; the
//! holographic representation keeps nearest-neighbour predictions usable
//! as long as any shard survives.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::{BitMatrix, PivotTable, PIVOT_SAMPLE_ROWS};
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::distill::BitSelection;
use hyperfex_hdc::topk::TopK;
use hyperfex_hdc::{failpoint, BinaryHypervector};

use crate::error::ServeError;
use crate::obs;
use crate::snapshot::{self, Commit, Manifest, ShardEntry, ShardRecord, SidecarPin};

/// One k-NN candidate as `(distance, shard, row, label)`; the tuple order
/// doubles as the deterministic tie-break order, so comparing candidates
/// compares distance first, then shard index, then row. The scan keeps them
/// in a [`TopK`] keyed `(shard, row, label)`, which orders the same way.
type Candidate = (u32, u32, u32, u32);

/// Fewest store rows a parallel chunk of [`HvStore::predict_batch`] scans:
/// for one 10,000-bit query, about 35 µs of scanning on perfbench's
/// `query` bank with its pivot tables (110–126 µs without them; one
/// thread, 2-vCPU Xeon VM), enough to outweigh the thread a chunk costs.
const MIN_CHUNK_ROWS: usize = 1024;

/// One shard that failed recovery and was quarantined instead of served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// File name (not full path) of the offending shard file, or the
    /// expected name for a shard that is missing outright.
    pub file: String,
    /// The shard index, when the file was readable enough to know it.
    pub shard_index: Option<u32>,
    /// Why the shard was rejected.
    pub reason: String,
}

/// Accounting for one [`HvStore::open`] recovery pass.
///
/// Every shard of the snapshot appears exactly once: either its index is
/// in `kept` or it has an entry in `quarantined`, so
/// `kept.len() + quarantined.len() == total_shards` always holds (checked
/// by [`RecoveryReport::is_complete`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards of the snapshot: the manifest's entries, or for a v1/v2
    /// snapshot the shard files found plus the missing shards their
    /// headers name (at most one missing shard per file found).
    pub total_shards: usize,
    /// Indices of the shards now serving, ascending.
    pub kept: Vec<u32>,
    /// Shards rejected during recovery, with reasons. A shard whose read
    /// failed on an I/O error or an injected fault rather than on what its
    /// file holds is out of service for this recovery only: later commits
    /// keep its committed entry, so a later recovery reads it again.
    pub quarantined: Vec<QuarantinedShard>,
    /// Whether the class-accumulator file was recovered; centroid
    /// predictions are unavailable without it, k-NN is unaffected.
    pub accumulators_recovered: bool,
    /// Whether the recovered accumulators were rebuilt from the kept rows,
    /// because a class total disagreed with the kept rows of that label (a
    /// quarantined shard, a missing v1/v2 shard), the file was not the one
    /// the manifest committed (a commit torn after its sidecar write), or
    /// the manifest says they may not count exactly its rows (the
    /// committing store carried the file or a shard forward unread).
    pub accumulators_rebuilt: bool,
    /// Whether a distillation selection was recovered (format v2+); a
    /// missing, corrupt or dimensionally inconsistent selection file
    /// degrades to `false` without affecting retrieval.
    pub selection_recovered: bool,
}

impl RecoveryReport {
    /// `kept + quarantined == total` — the invariant every recovery pass
    /// must satisfy.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.kept.len() + self.quarantined.len() == self.total_shards
    }
}

/// Accounting for one [`HvStore::append_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReport {
    /// Records appended (always the full batch — append is all-or-nothing).
    pub appended: usize,
    /// New shards rolled because the open shard reached capacity.
    pub shards_rolled: usize,
    /// Index of the shard left open (receiving the next append).
    pub open_shard: u32,
    /// Total rows serving after the append.
    pub total_rows: usize,
}

/// A sharded, labelled hypervector bank with optional class accumulators.
///
/// Equality compares the *serving state* — dimensionality, shards and
/// accumulators — not the incremental-ingest bookkeeping (shard capacity,
/// what is committed where, what recovery could not read), the optional
/// distillation selection or the k-NN pivot tables derived from the rows,
/// so a rebuilt store equals a recovered one whenever they would answer
/// identically.
#[derive(Debug, Clone)]
pub struct HvStore {
    dim: Dim,
    shards: Vec<ShardRecord>,
    accums: Option<ClassAccumulators>,
    /// How the bank was pruned, when it was built through a distillation
    /// selection; persisted in v2 snapshots so reopened stores can gather
    /// new full-width records.
    selection: Option<BitSelection>,
    /// Row count at which [`HvStore::append_batch`] rolls a new shard.
    shard_capacity: usize,
    /// The shard count a v1/v2 header claimed or the manifest recorded.
    /// Rolls start at or above it, so they never reuse an index whose file
    /// may still exist.
    index_space: u32,
    /// Shards this store does not serve but every later manifest names:
    /// those a recovery lost (marked lost, so their indices are never
    /// reused and every later recovery accounts for them), and those it
    /// could not read for an I/O error or an injected fault (carried
    /// unchanged, so a later recovery reads them again).
    unserved: Vec<ShardEntry>,
    /// Sidecars the recovery could not read for an I/O error or an
    /// injected fault: commits into the directory it read carry their
    /// pins unchanged, so the files stay committed.
    unread: Sidecars,
    /// The manifest this store last committed to a directory, or opened
    /// from it: the committed lengths [`HvStore::save_dirty`] appends past.
    committed: Option<(PathBuf, Manifest)>,
    /// The k-NN scan's pivots and their tables: derived from the rows at
    /// the first [`HvStore::predict_batch`], extended by
    /// [`HvStore::append_batch`] once built (so ingest alone never pays
    /// for them), and never persisted.
    pivots: OnceLock<ShardPivots>,
}

/// One [`PivotTable`] per serving shard, in shard order, all over the same
/// pivots.
#[derive(Debug, Clone)]
struct ShardPivots {
    pivots: BitMatrix,
    tables: Vec<PivotTable>,
}

impl ShardPivots {
    /// Chooses the pivots from every `⌈n / 1,024⌉`-th row of the shards,
    /// rows numbered shard after shard (see
    /// [`PivotTable::choose_pivots`]; it may choose none), then tabulates
    /// every shard, shards in parallel.
    fn build(dim: Dim, shards: &[ShardRecord]) -> Result<Self, ServeError> {
        let n_rows: usize = shards.iter().map(|s| s.bank.n_rows()).sum();
        let mut words = Vec::new();
        let mut sampled = 0;
        let rows = shards
            .iter()
            .flat_map(|s| (0..s.bank.n_rows()).map(|row| s.bank.row_words(row)));
        for row in rows.step_by(n_rows.div_ceil(PIVOT_SAMPLE_ROWS).max(1)) {
            words.extend_from_slice(row);
            sampled += 1;
        }
        let sample = BitMatrix::from_words(sampled, dim, words)?;
        let pivots = PivotTable::choose_pivots(&sample);
        let tables = rayon::map_chunks(shards, 1, |_, chunk| {
            chunk
                .iter()
                .map(|shard| PivotTable::new(pivots.clone(), &shard.bank))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut built = Self {
            pivots,
            tables: Vec::with_capacity(shards.len()),
        };
        for chunk in tables {
            built.tables.extend(chunk?);
        }
        Ok(built)
    }

    /// Covers the rows appended since the tables were last built or
    /// extended: each shard's table takes its new rows, and each new shard
    /// gets a table.
    fn extend(&mut self, shards: &[ShardRecord]) -> Result<(), ServeError> {
        for (i, shard) in shards.iter().enumerate() {
            match self.tables.get_mut(i) {
                Some(table) => table.extend(&shard.bank)?,
                None => self
                    .tables
                    .push(PivotTable::new(self.pivots.clone(), &shard.bank)?),
            }
        }
        Ok(())
    }
}

/// Pins of the accumulator and selection files.
#[derive(Debug, Clone, Copy, Default)]
struct Sidecars {
    accums: Option<SidecarPin>,
    selection: Option<SidecarPin>,
}

impl PartialEq for HvStore {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.shards == other.shards && self.accums == other.accums
    }
}

/// Converts labels to the u32 on-disk label width, or fails on the first
/// label that does not fit.
fn on_disk_labels(labels: &[usize]) -> Result<Vec<u32>, ServeError> {
    labels
        .iter()
        .map(|&l| {
            u32::try_from(l).map_err(|_| ServeError::ShardConflict {
                detail: format!("label {l} does not fit the u32 on-disk label width"),
            })
        })
        .collect()
}

impl HvStore {
    /// Builds a store from encoded records, splitting the rows into
    /// contiguous shards of `⌈records.len() / n_shards⌉` rows and
    /// accumulating class centroids: an empty store of that shard capacity
    /// followed by one [`HvStore::append_batch`].
    ///
    /// Labels must fit `u32` (the on-disk label width). `n_shards` must be
    /// in `1..=records.len()` so no shard is empty.
    pub fn build(
        records: &[BinaryHypervector],
        labels: &[usize],
        n_shards: usize,
    ) -> Result<Self, ServeError> {
        let Some(first) = records.first() else {
            return Err(ServeError::Hdc(hyperfex_hdc::HdcError::EmptyInput));
        };
        if n_shards == 0 || n_shards > records.len() {
            return Err(ServeError::ShardConflict {
                detail: format!(
                    "{n_shards} shards requested for {} records (need 1..={})",
                    records.len(),
                    records.len()
                ),
            });
        }
        let mut store = Self::new_empty(first.dim(), records.len().div_ceil(n_shards))?;
        store.append_batch(records, labels)?;
        Ok(store)
    }

    /// Creates an empty store ready for incremental ingest:
    /// [`HvStore::append_batch`] rolls shards of `shard_capacity` rows as
    /// records stream in. This is the from-scratch counterpart of
    /// [`HvStore::build`] for cohorts that never exist in memory at once.
    pub fn new_empty(dim: Dim, shard_capacity: usize) -> Result<Self, ServeError> {
        if shard_capacity == 0 {
            return Err(ServeError::ShardConflict {
                detail: "shard capacity must be at least 1 row".to_string(),
            });
        }
        Ok(Self {
            dim,
            shards: Vec::new(),
            accums: Some(ClassAccumulators::new(dim)),
            selection: None,
            shard_capacity,
            index_space: 0,
            unserved: Vec::new(),
            unread: Sidecars::default(),
            committed: None,
            pivots: OnceLock::new(),
        })
    }

    /// Builds a store from full-width records by first gathering each one
    /// through a distillation [`BitSelection`], so the bank (and every
    /// centroid accumulator) lives entirely in the pruned space.
    ///
    /// Queries against the resulting store must be encoded at the pruned
    /// dimensionality — either through a remapped encoder
    /// (`RecordEncoder::prune`) or by gathering full-width queries with the
    /// same selection; the two are bit-identical.
    pub fn build_pruned(
        records: &[BinaryHypervector],
        labels: &[usize],
        n_shards: usize,
        selection: &BitSelection,
    ) -> Result<Self, ServeError> {
        let _span = obs::span("serve/build_pruned");
        let pruned = records
            .iter()
            .map(|hv| selection.gather_hypervector(hv))
            .collect::<Result<Vec<_>, _>>()?;
        let mut store = Self::build(&pruned, labels, n_shards)?;
        store.selection = Some(selection.clone());
        Ok(store)
    }

    /// Dimensionality of every stored hypervector.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of shards currently serving.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total rows across the serving shards.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.shards.iter().map(|s| s.bank.n_rows()).sum()
    }

    /// The recovered class accumulators, when available.
    #[must_use]
    pub fn accumulators(&self) -> Option<&ClassAccumulators> {
        self.accums.as_ref()
    }

    /// The distillation selection this store was pruned with, when built
    /// through [`HvStore::build_pruned`] or recovered from a v2 snapshot.
    #[must_use]
    pub fn selection(&self) -> Option<&BitSelection> {
        self.selection.as_ref()
    }

    /// Row count at which [`HvStore::append_batch`] rolls a new shard.
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Reconfigures the roll threshold for subsequent appends (clamped to
    /// at least 1). Existing shards keep their rows; only *new* growth
    /// honours the new capacity. The next commit persists it.
    pub fn set_shard_capacity(&mut self, rows: usize) {
        self.shard_capacity = rows.max(1);
    }

    /// Indices of the shards holding rows the store's last commit does
    /// not, ascending: every shard until the store is first committed.
    /// A rolling snapshot into that commit's directory writes these (plus
    /// any shard whose file there went missing or short); into another
    /// directory it writes every shard.
    #[must_use]
    pub fn dirty_shards(&self) -> Vec<u32> {
        let committed = self.committed.as_ref().map(|(_, manifest)| manifest);
        self.shards
            .iter()
            .filter(|shard| {
                committed
                    .and_then(|m| m.entry(shard.shard_index))
                    .is_none_or(|e| e.lost || e.rows != shard.bank.n_rows() as u64)
            })
            .map(|shard| shard.shard_index)
            .collect()
    }

    /// Appends encoded records to the store without rebuilding it: rows
    /// fill the open (highest-index) shard and roll into fresh shards at
    /// [`HvStore::shard_capacity`], the class accumulators absorb every
    /// record, and the new rows wait for the next [`HvStore::save_dirty`]
    /// rolling snapshot.
    ///
    /// Records must be at the store's dimensionality — except that a store
    /// carrying a distillation [`BitSelection`] also accepts *full-width*
    /// records and gathers them through the selection, so a streaming
    /// encode pipeline can feed a pruned store directly.
    ///
    /// Validation is all-or-nothing: every record and label (a label must
    /// fit the u32 on-disk width and, in a store with class accumulators,
    /// stay below `MAX_CLASSES`, else `HdcError::ClassLimit`), and the
    /// accumulators' dimensionality, are checked before the first row
    /// lands, so a failed append leaves the store untouched.
    ///
    /// Cost: each row is copied once into the open shard's bank, which is
    /// reserved at the shard's capacity when it first takes rows, and each
    /// record is scattered into its class counts; each touched class
    /// prototype is requantised once per call, not once per record. A roll
    /// touches no other shard.
    pub fn append_batch(
        &mut self,
        records: &[BinaryHypervector],
        labels: &[usize],
    ) -> Result<AppendReport, ServeError> {
        let _span = obs::span("serve/store_append");
        if records.len() != labels.len() {
            return Err(ServeError::Hdc(
                hyperfex_hdc::HdcError::LabelLengthMismatch {
                    samples: records.len(),
                    labels: labels.len(),
                },
            ));
        }
        // Validate everything up front: dimensionalities (gathering
        // full-width records when a selection allows it), label width and
        // the accumulators' dimensionality. Rows at the store's width are
        // borrowed, not cloned.
        let mut rows: Vec<Cow<'_, BinaryHypervector>> = Vec::with_capacity(records.len());
        for hv in records {
            if hv.dim() == self.dim {
                rows.push(Cow::Borrowed(hv));
            } else if let Some(selection) = self
                .selection
                .as_ref()
                .filter(|s| s.source_dim() == hv.dim())
            {
                rows.push(Cow::Owned(selection.gather_hypervector(hv)?));
            } else {
                return Err(ServeError::Hdc(hyperfex_hdc::HdcError::DimensionMismatch {
                    left: hv.dim().get(),
                    right: self.dim.get(),
                }));
            }
        }
        let label_u32 = on_disk_labels(labels)?;
        if let Some(accums) = &self.accums {
            if accums.dim() != self.dim {
                return Err(ServeError::Hdc(hyperfex_hdc::HdcError::DimensionMismatch {
                    left: accums.dim().get(),
                    right: self.dim.get(),
                }));
            }
            if let Some(&label) = labels.iter().max() {
                ClassAccumulators::check_label(label)?;
            }
        }
        self.check_roll_room(rows.len())?;

        let mut shards_rolled = 0usize;
        let mut cursor = 0usize;
        while cursor < rows.len() {
            if self
                .shards
                .last()
                .is_none_or(|open| open.bank.n_rows() >= self.shard_capacity)
            {
                self.roll_shard()?;
                shards_rolled += 1;
            }
            let Some(open) = self.shards.last_mut() else {
                return Err(ServeError::ShardConflict {
                    detail: "no open shard after roll".to_string(),
                });
            };
            let room = self.shard_capacity - open.bank.n_rows();
            let take = room.min(rows.len() - cursor);
            // Size the open shard's bank for its full capacity once, so
            // it fills without reallocating.
            open.bank.reserve_rows(room);
            open.bank.push_rows(&rows[cursor..cursor + take])?;
            open.labels
                .extend_from_slice(&label_u32[cursor..cursor + take]);
            cursor += take;
        }
        if let Some(accums) = &mut self.accums {
            accums.add_batch(&rows, labels)?;
        }
        // Pivot tables, once a predict has built them, follow the rows. A
        // table that cannot is dropped, and the next predict rebuilds it.
        if let Some(pivots) = self.pivots.get_mut() {
            if pivots.extend(&self.shards).is_err() {
                self.pivots = OnceLock::new();
            }
        }
        obs::counter_add("serve/rows_appended", rows.len() as u64);
        let report = AppendReport {
            appended: rows.len(),
            shards_rolled,
            open_shard: self.shards.last().map_or(0, |s| s.shard_index),
            total_rows: self.n_rows(),
        };
        Ok(report)
    }

    /// One past the highest shard index this store has used — serving,
    /// unserved or claimed by a v1/v2 header — so a roll never reuses an
    /// index whose file may still exist.
    fn next_shard_index(&self) -> u64 {
        let serving = self.shards.iter().map(|s| s.shard_index);
        let unserved = self.unserved.iter().map(|e| e.shard_index);
        serving
            .chain(unserved)
            .map(|index| u64::from(index) + 1)
            .chain([u64::from(self.index_space)])
            .max()
            .unwrap_or(0)
    }

    /// Fails, before anything is mutated, when appending `n_rows` rows
    /// would roll a shard whose index or shard count does not fit u32 —
    /// the one way [`HvStore::roll_shard`] can fail — so an append never
    /// stops half-way through its rows.
    fn check_roll_room(&self, n_rows: usize) -> Result<(), ServeError> {
        let room = self.shards.last().map_or(0, |open| {
            self.shard_capacity.saturating_sub(open.bank.n_rows())
        });
        let rolls = n_rows.saturating_sub(room).div_ceil(self.shard_capacity);
        // The last roll opens index `next + rolls - 1`, so the shard count
        // it needs is `next + rolls`.
        let fits = u64::try_from(rolls)
            .ok()
            .and_then(|r| self.next_shard_index().checked_add(r))
            .is_some_and(|count| count <= u64::from(u32::MAX));
        if rolls > 0 && !fits {
            return Err(ServeError::ShardConflict {
                detail: format!(
                    "appending {n_rows} rows would roll {rolls} shards past the u32 shard index"
                ),
            });
        }
        Ok(())
    }

    /// Opens a fresh empty shard at the next index. No other shard is
    /// touched.
    ///
    /// The next index is one past the highest index the store has used,
    /// not the shard count: a store recovered with quarantine gaps (say
    /// kept {0, 1, 3}, lost {2}) must roll shard 4, because rolling
    /// `shards.len()` (3) would duplicate an index and the next save would
    /// clobber that shard's file. The gap stays a gap — the lost shard
    /// stays named, so reopening still reports it.
    fn roll_shard(&mut self) -> Result<(), ServeError> {
        // The shard count after the roll, `next + 1`, must fit u32 too.
        let next = u32::try_from(self.next_shard_index())
            .ok()
            .filter(|&next| next < u32::MAX)
            .ok_or_else(|| ServeError::ShardConflict {
                detail: "the next shard index does not fit the u32 shard count".to_string(),
            })?;
        self.shards.push(ShardRecord {
            shard_index: next,
            labels: Vec::new(),
            bank: BitMatrix::zeros(0, self.dim),
        });
        Ok(())
    }

    /// Writes a complete snapshot into `dir` (created if missing): every
    /// shard as one whole file, the accumulator and selection files, and a
    /// manifest committing them (see [`crate::snapshot`] for the commit
    /// order). A shard whose file name the directory's live snapshot holds
    /// — named by its manifest, or any v1/v2 shard file when it has none —
    /// is written under a new name, so a crash mid-save leaves the previous
    /// snapshot intact; files the new manifest does not name are deleted
    /// after it lands. Once it returns, the snapshot is durable on a device
    /// that honours fsync.
    pub fn save(&mut self, dir: &Path) -> Result<(), ServeError> {
        let _span = obs::span("serve/snapshot_save");
        self.commit(dir, true).map(drop)
    }

    /// Rolling snapshot for incremental ingest: appends, as one batch per
    /// shard, the rows added since this store's last commit into `dir`,
    /// rewrites the accumulator and selection files, and commits them
    /// with a new manifest. Returns the number of shard files written.
    ///
    /// The cost is proportional to the appended data: a clean shard is not
    /// written, and a roll touches no other shard. A shard is written
    /// whole instead, as by [`HvStore::save`], when `dir` does not hold
    /// this store's last commit, or when its file is missing or shorter
    /// than its committed length — so a rolling snapshot into a fresh
    /// directory (or one missing files) still produces a complete snapshot
    /// rather than a partial one. Once it returns, the snapshot is durable
    /// on a device that honours fsync.
    pub fn save_dirty(&mut self, dir: &Path) -> Result<usize, ServeError> {
        let _span = obs::span("serve/snapshot_save_dirty");
        let written = self.commit(dir, false)?;
        obs::counter_add("serve/dirty_shards_saved", written as u64);
        Ok(written)
    }

    /// One commit into `dir`: writes what the live manifest lacks (every
    /// shard whole when `whole`), publishes the new manifest, then deletes
    /// the files it does not name. Returns the shard files written.
    fn commit(&mut self, dir: &Path, whole: bool) -> Result<usize, ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, &e))?;
        // A corrupt live manifest commits nothing this store can append
        // to, so it is replaced like a missing one.
        let live = snapshot::read_manifest(dir).ok().flatten();
        // This store's last commit, when `dir` still holds it: only there
        // can it append, and only there do the entries and sidecars it
        // carries unread name committed files.
        let ours = self
            .committed
            .as_ref()
            .filter(|(at, manifest)| at == dir && live.as_ref() == Some(manifest))
            .map(|(_, manifest)| manifest);
        let append_onto = ours.filter(|_| !whole);
        let generation = live
            .as_ref()
            .map_or(0, |m| m.generation)
            .checked_add(1)
            .ok_or_else(|| ServeError::ShardConflict {
                detail: "manifest generation overflow".to_string(),
            })?;

        // Elsewhere, what this store carries unread has no file: a shard is
        // lost there, and a sidecar is not committed.
        let unserved: Vec<ShardEntry> = self
            .unserved
            .iter()
            .map(|e| ShardEntry {
                lost: e.lost || ours.is_none(),
                ..e.clone()
            })
            .collect();
        let carried = if ours.is_some() {
            self.unread
        } else {
            Sidecars::default()
        };
        let carried_unread = unserved.iter().any(|e| !e.lost);

        let mut commit = Commit::new(dir);
        let mut entries = unserved.clone();
        let mut written = 0usize;
        for shard in &self.shards {
            let rows = shard.bank.n_rows();
            let index = shard.shard_index;
            // This store's committed entry, when its file still holds at
            // least the committed bytes.
            let on_disk = append_onto
                .and_then(|m| m.entry(index))
                .filter(|e| !e.lost && e.rows <= rows as u64)
                .filter(|e| {
                    std::fs::metadata(dir.join(e.file_name()))
                        .is_ok_and(|meta| meta.len() >= e.bytes)
                });
            let entry = match on_disk {
                // Clean: bytes past the committed length belong to no
                // commit, and the next append cuts them.
                Some(e) if e.rows == rows as u64 => e.clone(),
                Some(e) => {
                    // `e.rows <= rows`, checked above.
                    let from = usize::try_from(e.rows).unwrap_or(rows);
                    written += 1;
                    ShardEntry {
                        bytes: commit.append_rows(&e.file_name(), e.bytes, shard, from..rows)?,
                        rows: rows as u64,
                        ..e.clone()
                    }
                }
                None => {
                    // The base name, unless the live manifest names that
                    // file or, in a directory without one, a file has it:
                    // a v1/v2 shard stays readable until the manifest
                    // replacing it lands.
                    let taken = match &live {
                        Some(m) => m.entry(index).is_some_and(|e| e.file_tag == 0),
                        None => dir.join(snapshot::shard_file_name(index)).exists(),
                    };
                    let mut entry = ShardEntry {
                        shard_index: index,
                        file_tag: if taken { generation } else { 0 },
                        rows: rows as u64,
                        bytes: 0,
                        lost: false,
                    };
                    entry.bytes = commit.write_shard(&entry.file_name(), shard)?;
                    written += 1;
                    entry
                }
            };
            entries.push(entry);
        }
        entries.sort_unstable_by_key(|e| e.shard_index);

        // A sidecar this store could not read stays committed as it was.
        let accums = match &self.accums {
            Some(accums) => Some(commit.write_accums(accums)?),
            None => carried.accums,
        };
        let selection = match &self.selection {
            Some(selection) => Some(commit.write_selection(selection)?),
            None => carried.selection,
        };
        let manifest = Manifest {
            generation,
            dim: self.dim,
            shard_capacity: self.shard_capacity as u64,
            n_shards: u32::try_from(self.next_shard_index()).map_err(|_| {
                ServeError::ShardConflict {
                    detail: "the shard-index space does not fit u32".to_string(),
                }
            })?,
            accums,
            // The accumulators count exactly the committed rows unless they
            // or a shard were carried unread.
            rebuild_accums: accums.is_some() && (self.accums.is_none() || carried_unread),
            selection,
            shards: entries,
        };
        commit.publish(&manifest)?;
        Self::drop_unnamed(dir, live.as_ref(), &manifest);
        self.unserved = unserved;
        self.unread = carried;
        self.committed = Some((dir.to_path_buf(), manifest));
        Ok(written)
    }

    /// Best-effort cleanup once `manifest` has landed in `dir`, replacing
    /// `live`: deletes the shard files the live manifest named and this
    /// one does not — or, when there was no live manifest, every shard
    /// file this one does not name (v1/v2 files, or an unpublished first
    /// commit's) — and the sidecars this one does not commit. An unnamed
    /// file is never read, so a failed deletion is harmless.
    fn drop_unnamed(dir: &Path, live: Option<&Manifest>, manifest: &Manifest) {
        let named: BTreeSet<String> = manifest.shards.iter().map(ShardEntry::file_name).collect();
        let previous: Vec<String> = match live {
            Some(live) => live.shards.iter().map(ShardEntry::file_name).collect(),
            None => Self::listed_shard_files(dir).unwrap_or_default(),
        };
        for name in previous.iter().filter(|name| !named.contains(*name)) {
            drop(std::fs::remove_file(dir.join(name)));
        }
        let sidecars = [
            (
                manifest.accums,
                live.map(|m| m.accums),
                snapshot::ACCUMS_FILE_NAME,
            ),
            (
                manifest.selection,
                live.map(|m| m.selection),
                snapshot::SELECTION_FILE_NAME,
            ),
        ];
        for (now, was, name) in sidecars {
            // Without a live manifest, whatever file is there is stale.
            if now.is_none() && was.is_none_or(|pin| pin.is_some()) {
                drop(std::fs::remove_file(dir.join(name)));
            }
        }
    }

    /// The names of every `shard-*.hfex` file in `dir`, sorted.
    fn listed_shard_files(dir: &Path) -> Result<Vec<String>, ServeError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| ServeError::io(dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::io(dir, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-") && name.ends_with(".hfex") {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The shard file paths a snapshot directory holds, sorted by file
    /// name — the handle chaos harnesses use to corrupt specific shards.
    /// With a readable manifest these are the files it names; otherwise
    /// every `shard-*.hfex` file.
    pub fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
        let mut out: Vec<PathBuf> = match snapshot::read_manifest(dir) {
            Ok(Some(manifest)) => manifest
                .shards
                .iter()
                .map(|e| dir.join(e.file_name()))
                .filter(|path| path.exists())
                .collect(),
            _ => Self::listed_shard_files(dir)?
                .into_iter()
                .map(|name| dir.join(name))
                .collect(),
        };
        out.sort();
        Ok(out)
    }

    /// Recovers a store from a snapshot directory.
    ///
    /// With a manifest (v3), every shard it names is read up to its
    /// committed row count; a torn batch past that count, left by a commit
    /// that never published, is not read (the next append cuts it), and
    /// files the manifest does not name are ignored. Every loop is bounded
    /// by the manifest's entries. A shard whose file is missing or fails
    /// validation is quarantined and lost: later manifests name it as lost,
    /// so its index is never reused. A shard whose read fails on an I/O
    /// error or an injected fault is quarantined too, but later commits
    /// keep its entry as committed, and likewise an accumulator or
    /// selection file that could not be read keeps its pin, so a later
    /// recovery reads them again. Shards an earlier recovery lost are
    /// quarantined again. The shard capacity comes from the manifest.
    ///
    /// Without a manifest (a v1/v2 snapshot) every `shard-*.hfex` file is
    /// read whole: the first valid shard fixes the consensus (dim, shard
    /// count), and shards that fail validation, disagree or duplicate an
    /// index are quarantined, as are indices the consensus promises but no
    /// file provides — at most one such missing shard per file found, so a
    /// header claiming billions of shards cannot make recovery loop or
    /// allocate without bound. A read that fails on an I/O error or an
    /// injected fault fails `open` instead, because the first commit into
    /// the directory replaces the files it does not name. The shard
    /// capacity is inferred from the widest kept shard. v3 shard files are
    /// skipped there: without a manifest none of them was committed. A
    /// corrupt manifest is a typed [`ServeError::Corrupt`] error: which
    /// bytes were committed is then unknown, and a later [`HvStore::save`]
    /// into the directory replaces it.
    ///
    /// Each class's accumulator total must equal the number of kept rows
    /// with that label; if one does not, or the accumulator file is not
    /// the one the manifest committed, or the manifest asks for it, the
    /// accumulators are rebuilt from the kept rows. A missing or corrupt
    /// accumulator file degrades to no accumulators. The store serves
    /// whatever survived (possibly nothing — see
    /// [`HvStore::predict_batch`]); the report's accounting always
    /// balances.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), ServeError> {
        let _span = obs::span("serve/snapshot_open");
        let recovered = match snapshot::read_manifest(dir)? {
            Some(manifest) => Self::recover_committed(dir, manifest),
            None => Self::recover_listed(dir)?,
        };
        let Recovered {
            dim,
            shards,
            unserved,
            quarantined,
            mut accums,
            trust,
            selection,
            unread,
            shard_capacity,
            index_space,
            committed,
        } = recovered;
        let accumulators_rebuilt = reconcile(&mut accums, &shards, trust)?;
        let report = RecoveryReport {
            total_shards: shards.len() + quarantined.len(),
            kept: shards.iter().map(|s| s.shard_index).collect(),
            quarantined,
            accumulators_recovered: accums.is_some(),
            accumulators_rebuilt,
            selection_recovered: selection.is_some(),
        };
        obs::counter_add("serve/shards_quarantined", report.quarantined.len() as u64);
        Ok((
            Self {
                dim,
                shards,
                accums,
                selection,
                shard_capacity: shard_capacity.max(1),
                index_space,
                unserved,
                unread,
                committed: committed.map(|m| (dir.to_path_buf(), m)),
                pivots: OnceLock::new(),
            },
            report,
        ))
    }

    /// Recovery with a manifest: each named shard up to its committed rows.
    fn recover_committed(dir: &Path, manifest: Manifest) -> Recovered {
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut unserved = Vec::new();
        let mut quarantined = Vec::new();
        for entry in &manifest.shards {
            let file = entry.file_name();
            let path = dir.join(&file);
            // The error, and whether it is a loss rather than a read
            // that may succeed next time.
            let read = if entry.lost {
                Err(("quarantined by an earlier recovery".to_string(), true))
            } else if !path.exists() {
                Err(("shard file missing".to_string(), true))
            } else {
                snapshot::read_committed_shard(&path, entry, manifest.dim)
                    .map_err(|e| (e.to_string(), is_defect(&e)))
            };
            match read {
                Ok(shard) => shards.push(shard),
                Err((reason, lost)) => {
                    quarantined.push(QuarantinedShard {
                        file,
                        shard_index: Some(entry.shard_index),
                        reason,
                    });
                    unserved.push(ShardEntry {
                        lost,
                        ..entry.clone()
                    });
                }
            }
        }
        // A missing, corrupt or dimensionally inconsistent sidecar degrades
        // to None; one that could not be read keeps its pin. An
        // accumulator file the manifest did not commit is still read, then
        // rebuilt from the kept rows; a selection cannot be rebuilt, so it
        // must be the committed one.
        let mut unread = Sidecars::default();
        let accums = manifest.accums.and_then(|pin| {
            let path = dir.join(snapshot::ACCUMS_FILE_NAME);
            match read_optional(&path, snapshot::read_accums_pinned) {
                Ok(found) => found
                    .filter(|(accums, _)| accums.dim() == manifest.dim)
                    .map(|(accums, got)| (accums, got == pin)),
                Err(_) => {
                    unread.accums = Some(pin);
                    None
                }
            }
        });
        let selection = manifest.selection.and_then(|pin| {
            let path = dir.join(snapshot::SELECTION_FILE_NAME);
            match read_optional(&path, snapshot::read_selection_pinned) {
                Ok(found) => found
                    .filter(|(selection, got)| *got == pin && selection.dim() == manifest.dim)
                    .map(|(selection, _)| selection),
                Err(_) => {
                    unread.selection = Some(pin);
                    None
                }
            }
        });
        let trust = match &accums {
            Some((_, false)) => AccumsTrust::Uncommitted,
            _ if manifest.rebuild_accums => AccumsTrust::Inexact,
            _ => AccumsTrust::Exact,
        };
        Recovered {
            dim: manifest.dim,
            shards,
            unserved,
            quarantined,
            accums: accums.map(|(accums, _)| accums),
            trust,
            selection,
            unread,
            shard_capacity: usize::try_from(manifest.shard_capacity).unwrap_or(1),
            index_space: manifest.n_shards,
            committed: Some(manifest),
        }
    }

    /// Recovery without a manifest: every v1/v2 shard file found, read
    /// whole. A v3 shard file there belongs to a first commit that never
    /// published, so it is skipped.
    fn recover_listed(dir: &Path) -> Result<Recovered, ServeError> {
        let paths = Self::shard_paths(dir)?;
        let mut quarantined = Vec::new();
        let mut survivors: BTreeMap<u32, ShardRecord> = BTreeMap::new();
        let mut consensus: Option<(Dim, u32)> = None;

        for path in &paths {
            let file = path.file_name().map_or_else(
                || path.display().to_string(),
                |n| n.to_string_lossy().into_owned(),
            );
            let (shard, claim) = match snapshot::read_shard_claim(path) {
                Ok((_, None)) => continue,
                Ok((shard, Some(claim))) => (shard, claim),
                Err(e) if !is_defect(&e) => return Err(e),
                Err(e) => {
                    quarantined.push(QuarantinedShard {
                        file,
                        shard_index: None,
                        reason: e.to_string(),
                    });
                    continue;
                }
            };
            let (dim, n_shards) = *consensus.get_or_insert((shard.bank.dim(), claim));
            let index = shard.shard_index;
            let reason = if shard.bank.dim() != dim || claim != n_shards {
                format!(
                    "disagrees with the first recovered shard: dim {} vs {dim}, \
                     {claim} shards vs {n_shards}",
                    shard.bank.dim(),
                )
            } else if let Entry::Vacant(slot) = survivors.entry(index) {
                slot.insert(shard);
                continue;
            } else {
                format!("duplicate shard index {index}")
            };
            quarantined.push(QuarantinedShard {
                file,
                shard_index: Some(index),
                reason,
            });
        }

        // Shards the headers promise but no file provides. Each file found
        // can vouch for at most one missing shard, so a header claiming
        // ~2^32 shards costs at most `paths.len()` more entries and
        // `2 * paths.len()` steps.
        let n_shards = consensus.map_or(0, |(_, n)| n);
        let mut accounted = survivors.len()
            + quarantined
                .iter()
                .filter(|q| q.shard_index.is_none_or(|i| i < n_shards))
                .count();
        let mut budget = paths.len();
        let mut index = 0u32;
        while index < n_shards && budget > 0 && accounted < n_shards as usize {
            if !survivors.contains_key(&index)
                && !quarantined.iter().any(|q| q.shard_index == Some(index))
            {
                quarantined.push(QuarantinedShard {
                    file: snapshot::shard_file_name(index),
                    shard_index: Some(index),
                    reason: "shard file missing".to_string(),
                });
                accounted += 1;
                budget -= 1;
            }
            index += 1;
        }

        let shards: Vec<ShardRecord> = survivors.into_values().collect();
        // Quarantined indices no kept shard holds stay named as lost.
        let mut unserved: Vec<ShardEntry> = Vec::new();
        for q in &quarantined {
            if let Some(index) = q.shard_index {
                if shards.iter().all(|s| s.shard_index != index)
                    && unserved.iter().all(|e| e.shard_index != index)
                {
                    unserved.push(ShardEntry {
                        shard_index: index,
                        file_tag: 0,
                        rows: 0,
                        bytes: 0,
                        lost: true,
                    });
                }
            }
        }
        // The sidecars degrade to None when absent (the selection is
        // v2-optional), corrupt or dimensionally inconsistent.
        let dim = consensus.map(|(dim, _)| dim);
        let accums = read_optional(&dir.join(snapshot::ACCUMS_FILE_NAME), snapshot::read_accums)?
            .filter(|acc| dim.is_none_or(|d| acc.dim() == d));
        let selection = read_optional(
            &dir.join(snapshot::SELECTION_FILE_NAME),
            snapshot::read_selection,
        )?
        .filter(|sel| dim.is_none_or(|d| sel.dim() == d));
        // Appends continue at the layout's natural stride: the widest kept
        // shard (1 when nothing survived).
        let shard_capacity = shards.iter().map(|s| s.bank.n_rows()).max().unwrap_or(1);
        Ok(Recovered {
            dim: dim.map_or_else(|| Dim::try_new(1), Ok)?,
            shards,
            unserved,
            quarantined,
            accums,
            trust: AccumsTrust::Exact,
            selection,
            unread: Sidecars::default(),
            shard_capacity,
            index_space: n_shards,
            committed: None,
        })
    }
}

/// What one recovery path found.
struct Recovered {
    dim: Dim,
    shards: Vec<ShardRecord>,
    unserved: Vec<ShardEntry>,
    quarantined: Vec<QuarantinedShard>,
    accums: Option<ClassAccumulators>,
    trust: AccumsTrust,
    selection: Option<BitSelection>,
    unread: Sidecars,
    shard_capacity: usize,
    index_space: u32,
    committed: Option<Manifest>,
}

/// Whether a read failed on what the file holds, and so will fail the
/// same way every time — unlike an I/O error or an injected fault, which a
/// later read may not meet.
fn is_defect(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Corrupt { .. }
            | ServeError::BadMagic { .. }
            | ServeError::UnsupportedVersion { .. }
    )
}

/// Reads an optional file: `None` when it is missing or fails validation,
/// the error when the read failed otherwise.
fn read_optional<T>(
    path: &Path,
    read: impl FnOnce(&Path) -> Result<T, ServeError>,
) -> Result<Option<T>, ServeError> {
    if !path.exists() {
        return Ok(None);
    }
    match read(path) {
        Ok(value) => Ok(Some(value)),
        Err(e) if is_defect(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

/// How far recovery trusts the accumulator file it read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccumsTrust {
    /// The committed file, counting exactly the committed rows: rebuilt
    /// only when a class total disagrees with the kept rows.
    Exact,
    /// The committed file, but the manifest says it may not count exactly
    /// the committed rows: rebuilt from the kept rows, keeping its class
    /// count.
    Inexact,
    /// Not the committed file (a commit torn after its sidecar write):
    /// rebuilt from the kept rows alone.
    Uncommitted,
}

/// Makes the class totals agree with the kept rows. When a class's total
/// differs from the number of kept rows with its label, or `trust` is not
/// [`AccumsTrust::Exact`], the accumulators are rebuilt from those rows,
/// keeping the class count unless the file is not the committed one.
/// Returns whether they were rebuilt.
fn reconcile(
    accums: &mut Option<ClassAccumulators>,
    shards: &[ShardRecord],
    trust: AccumsTrust,
) -> Result<bool, ServeError> {
    let Some(acc) = accums.as_mut() else {
        return Ok(false);
    };
    let totals = acc.parts().1;
    let mut counts = vec![0u64; totals.len()];
    let mut labels_fit = true;
    for &label in shards.iter().flat_map(|s| &s.labels) {
        match usize::try_from(label).ok().and_then(|l| counts.get_mut(l)) {
            Some(count) => *count += 1,
            None => labels_fit = false,
        }
    }
    let agree = labels_fit
        && totals
            .iter()
            .zip(&counts)
            .all(|(&total, &count)| u64::try_from(total) == Ok(count));
    if agree && trust == AccumsTrust::Exact {
        return Ok(false);
    }
    // Each parallel chunk of shards accumulates on its own; the integer
    // counts then sum to exactly what one sequential pass would give.
    let dim = acc.dim();
    let parts = rayon::map_chunks(shards, 1, |_, chunk| {
        let mut part = ClassAccumulators::new(dim);
        for shard in chunk {
            let rows: Vec<BinaryHypervector> = (0..shard.bank.n_rows())
                .map(|r| shard.bank.row_hypervector(r))
                .collect();
            let labels: Vec<usize> = shard.labels.iter().map(|&l| l as usize).collect();
            part.add_batch(&rows, &labels)?;
        }
        Ok::<_, ServeError>(part)
    });
    // An accumulator file that is not the committed one says nothing
    // about the class count; a committed one keeps it.
    let mut rebuilt = ClassAccumulators::new(dim);
    if trust != AccumsTrust::Uncommitted {
        if let Some(last) = acc.n_classes().checked_sub(1) {
            rebuilt.grow(last)?;
        }
    }
    for part in parts {
        rebuilt.merge(&part?)?;
    }
    *acc = rebuilt;
    Ok(true)
}

impl HvStore {
    /// Predicts a label for every query by k-nearest-neighbour majority
    /// vote over every row of every serving shard.
    ///
    /// Ties in the vote break toward the label with the nearest member
    /// (then the lowest shard index / row, so results are deterministic
    /// regardless of shard recovery order). Returns
    /// [`ServeError::NoSurvivors`] when no rows are serving.
    pub fn predict_batch(
        &self,
        queries: &[BinaryHypervector],
        k: usize,
    ) -> Result<Vec<usize>, ServeError> {
        let _span = obs::span("serve/batch_predict");
        failpoint::check("serve/batch_predict")?;
        if queries.is_empty() {
            return Err(ServeError::Hdc(hyperfex_hdc::HdcError::EmptyInput));
        }
        if k == 0 {
            return Err(ServeError::Hdc(hyperfex_hdc::HdcError::InvalidConfig(
                "k must be at least 1".to_string(),
            )));
        }
        if self.n_rows() == 0 {
            return Err(ServeError::NoSurvivors);
        }
        let query_matrix = BitMatrix::from_hypervectors(queries)?;
        if query_matrix.dim() != self.dim {
            return Err(ServeError::Hdc(hyperfex_hdc::HdcError::DimensionMismatch {
                left: query_matrix.dim().get(),
                right: self.dim.get(),
            }));
        }

        // The store's rows, shard after shard, form one global row range.
        // `rayon::map_ranges` gives each chunk a contiguous part of it
        // (which may span shards), and each chunk returns its own per-query
        // top-k. Merging them keeps the k globally smallest candidates per
        // query — identical to folding shards one by one, because both are
        // "the k smallest elements" of the same candidate multiset and the
        // (distance, shard, row, label) order makes every candidate
        // distinct. How the rows are split therefore cannot change the
        // result. A query has at most `n_rows` candidates, so a larger k
        // is moot.
        let k = k.min(self.n_rows());
        let tables = self.pivot_tables()?;
        let chunk_tops = rayon::map_ranges(self.n_rows(), MIN_CHUNK_ROWS, |rows| {
            self.range_candidates(&query_matrix, tables, rows, k)
        });
        let mut best = TopK::new(queries.len(), k);
        for tops in chunk_tops {
            best.merge(&tops?);
        }
        Ok((0..queries.len())
            .map(|q| {
                let candidates: Vec<Candidate> = best
                    .list(q)
                    .iter()
                    .map(|&(d, (shard, row, label))| {
                        (u32::try_from(d).unwrap_or(u32::MAX), shard, row, label)
                    })
                    .collect();
                Self::vote(&candidates)
            })
            .collect())
    }

    /// The pivot table of each serving shard, built at the first call.
    fn pivot_tables(&self) -> Result<&[PivotTable], ServeError> {
        if let Some(pivots) = self.pivots.get() {
            return Ok(&pivots.tables);
        }
        let built = ShardPivots::build(self.dim, &self.shards)?;
        Ok(&self.pivots.get_or_init(|| built).tables)
    }

    /// The per-query top-k among the global rows `rows` (rows numbered
    /// shard after shard), keyed `(shard, row, label)` — the unit of work
    /// one chunk of [`HvStore::predict_batch`] computes. `tables` holds
    /// each shard's pivot table.
    fn range_candidates(
        &self,
        queries: &BitMatrix,
        tables: &[PivotTable],
        rows: Range<usize>,
        k: usize,
    ) -> Result<TopK<(u32, u32, u32)>, ServeError> {
        let mut tops = TopK::new(queries.n_rows(), k);
        let mut shard_start = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let table = tables.get(i).ok_or_else(|| ServeError::ShardConflict {
                detail: format!("no pivot table for serving shard {}", shard.shard_index),
            })?;
            let shard_end = shard_start + shard.bank.n_rows();
            let lo = rows.start.clamp(shard_start, shard_end) - shard_start;
            let hi = rows.end.clamp(shard_start, shard_end) - shard_start;
            shard_start = shard_end;
            tops.scan(queries, &shard.bank, table, lo..hi, |row| {
                let row_u32 = u32::try_from(row).unwrap_or(u32::MAX);
                let label = shard.labels.get(row).copied().unwrap_or(0);
                (shard.shard_index, row_u32, label)
            })?;
        }
        Ok(tops)
    }

    /// Majority vote over one query's sorted candidate list; ties go to
    /// the label appearing earliest (i.e. with the nearest member).
    fn vote(candidates: &[Candidate]) -> usize {
        let mut tally: Vec<(u32, usize)> = Vec::new();
        for &(_, _, _, label) in candidates {
            match tally.iter_mut().find(|(l, _)| *l == label) {
                Some((_, count)) => *count += 1,
                None => tally.push((label, 1)),
            }
        }
        // `max_by_key` returns the *last* maximum; iterate in reverse so
        // the earliest-seen label wins ties.
        tally
            .iter()
            .rev()
            .max_by_key(|(_, count)| *count)
            .map_or(0, |&(label, _)| label as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::SyntheticCohort;
    use hyperfex_hdc::bitmatrix::hamming_between;
    use hyperfex_hdc::rng::SplitMix64;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyperfex-serve-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cohort(seed: u64) -> SyntheticCohort {
        SyntheticCohort::generate(Dim::new(256), 3, 60, 20, seed).unwrap()
    }

    #[test]
    fn build_save_open_round_trips() {
        let dir = scratch_dir("roundtrip");
        let cohort = small_cohort(1);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 4).unwrap();
        assert_eq!(store.n_shards(), 4);
        assert_eq!(store.n_rows(), 60);
        store.save(&dir).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert_eq!(reopened, store);
        assert!(report.is_complete());
        assert_eq!(report.total_shards, 4);
        assert_eq!(report.kept, vec![0, 1, 2, 3]);
        assert!(report.quarantined.is_empty());
        assert!(report.accumulators_recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn predictions_recover_planted_labels() {
        let cohort = small_cohort(2);
        let store = HvStore::build(&cohort.records, &cohort.labels, 4).unwrap();
        // Fresh noisy probes from the same prototypes must classify back
        // to their class: probes sit at distance 40 of 256 bits from
        // their prototype, far under the ~128-bit cross-class distance.
        let mut rng = SplitMix64::new(77);
        let mut correct = 0;
        let total = 30;
        for i in 0..total {
            let class = i % 3;
            let probe = cohort.prototypes[class]
                .flip_balanced(20, &mut rng)
                .unwrap();
            if store.predict_batch(&[probe], 3).unwrap() == vec![class] {
                correct += 1;
            }
        }
        assert!(correct >= total * 9 / 10, "correct = {correct}/{total}");
    }

    #[test]
    fn missing_shard_file_is_quarantined_and_survivors_serve() {
        let dir = scratch_dir("missing");
        let cohort = small_cohort(3);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 5).unwrap();
        store.save(&dir).unwrap();
        std::fs::remove_file(dir.join(snapshot::shard_file_name(2))).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.total_shards, 5);
        assert_eq!(report.kept, vec![0, 1, 3, 4]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].shard_index, Some(2));
        assert!(report.quarantined[0].reason.contains("missing"));
        assert_eq!(reopened.n_rows(), 60 - 12);
        assert!(reopened.predict_batch(&cohort.records[..4], 1).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_recovers_to_empty_store() {
        let dir = scratch_dir("empty");
        let (store, report) = HvStore::open(&dir).unwrap();
        assert_eq!(report.total_shards, 0);
        assert!(report.is_complete());
        assert!(!report.accumulators_recovered);
        let query = BinaryHypervector::zeros(Dim::new(1));
        assert_eq!(
            store.predict_batch(&[query], 1).unwrap_err(),
            ServeError::NoSurvivors
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_rejects_bad_configs() {
        let cohort = small_cohort(4);
        assert!(HvStore::build(&[], &[], 1).is_err());
        assert!(HvStore::build(&cohort.records, &cohort.labels[..10], 2).is_err());
        assert!(HvStore::build(&cohort.records, &cohort.labels, 0).is_err());
        assert!(HvStore::build(&cohort.records, &cohort.labels, 61).is_err());
        let store = HvStore::build(&cohort.records, &cohort.labels, 2).unwrap();
        assert!(matches!(
            store.predict_batch(&cohort.records[..2], 0).unwrap_err(),
            ServeError::Hdc(hyperfex_hdc::HdcError::InvalidConfig(_))
        ));
        assert!(store.predict_batch(&[], 1).is_err());
    }

    /// Serial reference for `predict_batch`: fold every shard's distances
    /// in shard order exactly as the pre-parallel implementation did.
    fn serial_reference_predict(
        store: &HvStore,
        queries: &[BinaryHypervector],
        k: usize,
    ) -> Vec<usize> {
        let query_matrix = BitMatrix::from_hypervectors(queries).unwrap();
        let mut best: Vec<Vec<Candidate>> = vec![Vec::with_capacity(k + 1); queries.len()];
        for shard in &store.shards {
            let rows = shard.bank.n_rows();
            let distances = hamming_between(&query_matrix, &shard.bank).unwrap();
            for (qi, row_distances) in distances.chunks(rows.max(1)).enumerate() {
                let heap = &mut best[qi];
                for (row, &distance) in row_distances.iter().enumerate() {
                    let worst = heap.last().map_or(u32::MAX, |c| c.0);
                    if heap.len() == k && distance >= worst {
                        continue;
                    }
                    let candidate = (
                        distance,
                        shard.shard_index,
                        u32::try_from(row).unwrap(),
                        shard.labels[row],
                    );
                    let at = heap.partition_point(|c| *c <= candidate);
                    heap.insert(at, candidate);
                    heap.truncate(k);
                }
            }
        }
        best.iter().map(|heap| HvStore::vote(heap)).collect()
    }

    #[test]
    fn shard_parallel_top_k_matches_serial_order() {
        let cohort = small_cohort(6);
        let mut rng = SplitMix64::new(11);
        let queries: Vec<BinaryHypervector> = (0..25)
            .map(|i| {
                cohort.prototypes[i % 3]
                    .flip_balanced(60, &mut rng)
                    .unwrap()
            })
            .collect();
        for n_shards in [1, 3, 7, 60] {
            let store = HvStore::build(&cohort.records, &cohort.labels, n_shards).unwrap();
            for k in [1, 3, 5, 60] {
                let expected = serial_reference_predict(&store, &queries, k);
                let got = store.predict_batch(&queries, k).unwrap();
                assert_eq!(got, expected, "n_shards={n_shards} k={k}");
                // And the parallel path is self-consistent across runs.
                assert_eq!(store.predict_batch(&queries, k).unwrap(), got);
            }
        }
    }

    #[test]
    fn sharding_layout_does_not_change_predictions() {
        // Distance ties across shard boundaries resolve by (shard, row) —
        // i.e. by global row order — so any shard count yields the same
        // predictions as the single-shard store.
        let cohort = small_cohort(7);
        let single = HvStore::build(&cohort.records, &cohort.labels, 1).unwrap();
        let queries = &cohort.records[..10];
        for n_shards in [2, 5, 13, 60] {
            let sharded = HvStore::build(&cohort.records, &cohort.labels, n_shards).unwrap();
            for k in [1, 4, 9] {
                assert_eq!(
                    sharded.predict_batch(queries, k).unwrap(),
                    single.predict_batch(queries, k).unwrap(),
                    "n_shards={n_shards} k={k}"
                );
            }
        }
    }

    #[test]
    fn build_pruned_serves_in_the_pruned_space() {
        let cohort = small_cohort(8);
        let selection = BitSelection::random(Dim::new(256), 96, 42).unwrap();
        let store = HvStore::build_pruned(&cohort.records, &cohort.labels, 4, &selection).unwrap();
        assert_eq!(store.dim(), selection.dim());
        assert_eq!(store.n_rows(), cohort.records.len());

        // Full-width queries no longer fit; gathered queries do, and the
        // store behaves exactly like one built from pre-gathered records.
        assert!(store.predict_batch(&cohort.records[..2], 1).is_err());
        let gathered: Vec<BinaryHypervector> = cohort
            .records
            .iter()
            .map(|hv| selection.gather_hypervector(hv).unwrap())
            .collect();
        let manual = HvStore::build(&gathered, &cohort.labels, 4).unwrap();
        assert_eq!(store, manual);
        assert_eq!(
            store.predict_batch(&gathered[..10], 3).unwrap(),
            manual.predict_batch(&gathered[..10], 3).unwrap()
        );

        // Centroid accumulators live in the pruned space too.
        let acc = store.accumulators().unwrap();
        assert_eq!(acc.dim(), selection.dim());
        for (class, proto) in cohort.prototypes.iter().enumerate() {
            let probe = selection.gather_hypervector(proto).unwrap();
            assert_eq!(acc.predict(&probe).unwrap(), class);
        }
    }

    #[test]
    fn centroid_accumulators_survive_the_round_trip() {
        let dir = scratch_dir("accums");
        let cohort = small_cohort(5);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 3).unwrap();
        store.save(&dir).unwrap();
        let (reopened, _) = HvStore::open(&dir).unwrap();
        let acc = reopened.accumulators().unwrap();
        // The recovered centroid model classifies prototypes correctly.
        for (class, proto) in cohort.prototypes.iter().enumerate() {
            assert_eq!(acc.predict(proto).unwrap(), class);
        }
        // A clobbered accumulator file degrades centroids, not k-NN.
        let accums_path = dir.join(snapshot::ACCUMS_FILE_NAME);
        std::fs::write(&accums_path, b"garbage").unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(!report.accumulators_recovered);
        assert!(reopened.accumulators().is_none());
        assert!(reopened.predict_batch(&cohort.records[..2], 1).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_batch_fills_and_rolls_with_accurate_accounting() {
        let cohort = small_cohort(9);
        let mut store = HvStore::new_empty(Dim::new(256), 8).unwrap();
        assert_eq!(store.n_shards(), 0);
        assert_eq!(store.shard_capacity(), 8);

        // 5 rows into an empty store: one roll, shard 0 open with room.
        let first = store
            .append_batch(&cohort.records[..5], &cohort.labels[..5])
            .unwrap();
        assert_eq!(first.appended, 5);
        assert_eq!(first.shards_rolled, 1);
        assert_eq!(first.open_shard, 0);
        assert_eq!(first.total_rows, 5);
        assert_eq!(store.dirty_shards(), vec![0]);

        // 11 more: fills shard 0 (3 rows), rolls shard 1 (8). Rolling
        // dirties every shard.
        let second = store
            .append_batch(&cohort.records[5..16], &cohort.labels[5..16])
            .unwrap();
        assert_eq!(second.appended, 11);
        assert_eq!(second.shards_rolled, 1);
        assert_eq!(second.open_shard, 1);
        assert_eq!(second.total_rows, 16);
        assert_eq!(store.n_shards(), 2);
        assert_eq!(store.dirty_shards(), vec![0, 1]);

        // The incrementally grown store equals a one-shot build with the
        // same 8-row slicing, accumulators included.
        let built = HvStore::build(&cohort.records[..16], &cohort.labels[..16], 2).unwrap();
        assert_eq!(store, built);

        // One more row rolls a fresh shard.
        let third = store
            .append_batch(&cohort.records[16..17], &cohort.labels[16..17])
            .unwrap();
        assert_eq!(third.shards_rolled, 1);
        assert_eq!(third.open_shard, 2);
        assert_eq!(third.total_rows, 17);
        assert_eq!(store.dirty_shards(), vec![0, 1, 2]);

        // Failed appends are all-or-nothing: a bad record leaves rows,
        // shards, and the dirty set untouched.
        let narrow = BinaryHypervector::zeros(Dim::new(64));
        let err = store.append_batch(&[narrow], &[0]).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Hdc(hyperfex_hdc::HdcError::DimensionMismatch { .. })
        ));
        let err = store
            .append_batch(&cohort.records[..2], &cohort.labels[..1])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Hdc(hyperfex_hdc::HdcError::LabelLengthMismatch { .. })
        ));
        assert_eq!(store.n_rows(), 17);
        assert_eq!(store.n_shards(), 3);
        assert_eq!(store.dirty_shards(), vec![0, 1, 2]);

        assert!(HvStore::new_empty(Dim::new(256), 0).is_err());
    }

    #[test]
    fn append_rejects_labels_past_the_class_limit_before_any_row_lands() {
        use hyperfex_hdc::classify::MAX_CLASSES;
        use hyperfex_hdc::HdcError;

        let cohort = small_cohort(4);
        let mut store = HvStore::new_empty(Dim::new(256), 8).unwrap();
        store
            .append_batch(&cohort.records[..3], &cohort.labels[..3])
            .unwrap();
        let before = store.clone();
        // 4,000,000,000 fits the u32 on-disk width, but as a class it
        // would ask for billions of per-bit counters.
        for label in [MAX_CLASSES, 4_000_000_000] {
            let err = store
                .append_batch(&cohort.records[3..5], &[0, label])
                .unwrap_err();
            assert_eq!(
                err,
                ServeError::Hdc(HdcError::ClassLimit {
                    label,
                    limit: MAX_CLASSES
                })
            );
        }
        assert_eq!(store, before);
        assert_eq!(store.dirty_shards(), vec![0]);

        // The last label the limit allows is a class like any other.
        store
            .append_batch(&cohort.records[3..4], &[MAX_CLASSES - 1])
            .unwrap();
        assert_eq!(store.n_rows(), 4);
        let accums = store.accumulators().unwrap();
        assert_eq!(accums.n_classes(), MAX_CLASSES);
        assert_eq!(accums.parts().1[MAX_CLASSES - 1], 1);
    }

    #[test]
    fn append_checks_the_accumulator_width_before_any_row_lands() {
        // Every shard lost but the accumulator file survived: the store
        // reopens empty at width 1 with 64-bit accumulators. A width-1
        // record passes the store's own check; the accumulator check must
        // reject it before a shard is rolled or a row lands.
        let dir = scratch_dir("accum-width");
        let mut accums = ClassAccumulators::new(Dim::new(64));
        accums.grow(1).unwrap();
        snapshot::write_accums(&dir.join(snapshot::ACCUMS_FILE_NAME), &accums).unwrap();
        let (mut store, report) = HvStore::open(&dir).unwrap();
        assert!(report.accumulators_recovered);
        assert_eq!(store.dim(), Dim::new(1));

        let record = BinaryHypervector::ones(Dim::new(1));
        let err = store.append_batch(&[record], &[0]).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Hdc(hyperfex_hdc::HdcError::DimensionMismatch { .. })
        ));
        assert_eq!(store.n_shards(), 0);
        assert_eq!(store.n_rows(), 0);
        assert!(store.dirty_shards().is_empty());
        assert_eq!(store.accumulators(), Some(&accums));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_that_would_exhaust_the_shard_index_changes_nothing() {
        // The open shard sits one below the u32 shard-index limit with one
        // row of room: two rows would fill it and then need a roll past
        // the limit. The append must fail before the first row lands.
        let cohort = small_cohort(14);
        let mut store = HvStore::build(&cohort.records[..3], &cohort.labels[..3], 1).unwrap();
        store.shards[0].shard_index = u32::MAX - 1;
        store.index_space = u32::MAX;
        store.set_shard_capacity(4);
        let before = store.clone();

        let err = store
            .append_batch(&cohort.records[3..5], &cohort.labels[3..5])
            .unwrap_err();
        assert!(matches!(err, ServeError::ShardConflict { .. }), "{err}");
        assert_eq!(store, before);
        assert_eq!(store.n_rows(), 3);
        assert_eq!(store.dirty_shards(), before.dirty_shards());

        // One row still fits the open shard without a roll.
        store
            .append_batch(&cohort.records[3..4], &cohort.labels[3..4])
            .unwrap();
        assert_eq!(store.n_rows(), 4);
    }

    #[test]
    fn save_dirty_writes_only_touched_shards_and_recovers_identically() {
        let dir = scratch_dir("dirty");
        let cohort = small_cohort(10);
        let mut store = HvStore::new_empty(Dim::new(256), 10).unwrap();
        store
            .append_batch(&cohort.records[..25], &cohort.labels[..25])
            .unwrap();
        // Fresh store: everything is dirty, so the first rolling snapshot
        // writes all three shards (10/10/5).
        assert_eq!(store.save_dirty(&dir).unwrap(), 3);
        assert!(store.dirty_shards().is_empty());

        // An append confined to the open shard dirties only it.
        store
            .append_batch(&cohort.records[25..30], &cohort.labels[25..30])
            .unwrap();
        assert_eq!(store.dirty_shards(), vec![2]);
        assert_eq!(store.save_dirty(&dir).unwrap(), 1);

        // Rolls touch only the new shards: shard 2 was full, so this append
        // fills shards 3 and 4 and leaves 0..=2 clean.
        store
            .append_batch(&cohort.records[30..50], &cohort.labels[30..50])
            .unwrap();
        assert_eq!(store.dirty_shards(), vec![3, 4]);
        assert_eq!(store.save_dirty(&dir).unwrap(), 2);

        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.is_complete());
        assert!(report.accumulators_recovered);
        assert_eq!(reopened, store);
        // The manifest persists the append stride, so ingest can resume
        // where it left off.
        assert_eq!(reopened.shard_capacity(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn class_totals_reconcile_with_the_kept_rows_after_a_lost_shard() {
        // Losing shard 1 of five loses its 12 rows; the accumulator file
        // still counts them, so `open` must rebuild from the kept rows.
        let dir = scratch_dir("reconcile");
        let cohort = small_cohort(15);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 5).unwrap();
        store.save(&dir).unwrap();
        std::fs::remove_file(dir.join(snapshot::shard_file_name(1))).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert_eq!(report.kept, vec![0, 2, 3, 4]);
        assert!(report.accumulators_recovered);
        assert!(report.accumulators_rebuilt);

        let kept: Vec<usize> = (0..12).chain(24..60).collect();
        let records: Vec<&BinaryHypervector> = kept.iter().map(|&i| &cohort.records[i]).collect();
        let labels: Vec<usize> = kept.iter().map(|&i| cohort.labels[i]).collect();
        let totals = reopened.accumulators().unwrap().parts().1;
        for (class, &total) in totals.iter().enumerate() {
            let rows = labels.iter().filter(|&&l| l == class).count();
            assert_eq!(usize::try_from(total).unwrap(), rows, "class {class}");
        }
        let mut expected = ClassAccumulators::new(Dim::new(256));
        expected.add_batch(&records, &labels).unwrap();
        assert_eq!(reopened.accumulators(), Some(&expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_capacity_survives_a_reopen_before_the_first_roll() {
        let dir = scratch_dir("capacity");
        let cohort = small_cohort(16);
        let mut store = HvStore::new_empty(Dim::new(256), 16).unwrap();
        store
            .append_batch(&cohort.records[..5], &cohort.labels[..5])
            .unwrap();
        store.save(&dir).unwrap();
        let (mut reopened, _) = HvStore::open(&dir).unwrap();
        assert_eq!(reopened.shard_capacity(), 16);
        // Resumed ingest fills shard 0 to 16 rows, as the uninterrupted
        // store does.
        for s in [&mut store, &mut reopened] {
            s.append_batch(&cohort.records[5..20], &cohort.labels[5..20])
                .unwrap();
        }
        assert_eq!(reopened.n_shards(), 2);
        assert_eq!(reopened, store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn without_a_manifest_uncommitted_shards_stay_unread() {
        // A first commit that never published leaves v3 shard files and no
        // manifest: none of their rows was committed.
        let dir = scratch_dir("no-manifest");
        let cohort = small_cohort(17);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 3).unwrap();
        store.save(&dir).unwrap();
        std::fs::remove_file(dir.join(snapshot::MANIFEST_FILE_NAME)).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert_eq!(report.total_shards, 0);
        assert_eq!(reopened.n_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_manifest_is_a_typed_error_until_a_save_replaces_it() {
        let dir = scratch_dir("bad-manifest");
        let cohort = small_cohort(18);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 3).unwrap();
        store.save(&dir).unwrap();
        let path = dir.join(snapshot::MANIFEST_FILE_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = HvStore::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "manifest",
                    ..
                }
            ),
            "{err}"
        );

        store.save(&dir).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(reopened, store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_save_over_a_live_snapshot_writes_new_files_and_drops_the_old() {
        let dir = scratch_dir("resave");
        let cohort = small_cohort(19);
        let mut store = HvStore::build(&cohort.records, &cohort.labels, 2).unwrap();
        store.save(&dir).unwrap();
        store.save(&dir).unwrap();
        // The live manifest named the base files, so the second save wrote
        // generation-2 files and deleted the base ones once it landed.
        let names: Vec<String> = HvStore::shard_paths(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["shard-0000-g2.hfex", "shard-0001-g2.hfex"]);
        assert!(!dir.join(snapshot::shard_file_name(0)).exists());
        // A third save alternates back to the base names.
        store.save(&dir).unwrap();
        assert!(dir.join(snapshot::shard_file_name(0)).exists());
        assert_eq!(HvStore::shard_paths(&dir).unwrap().len(), 2);
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(reopened, store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecars_the_manifest_did_not_commit_are_not_trusted() {
        // A commit torn after its sidecar renames leaves files the live
        // manifest's pins do not match, even when the class totals still
        // agree with the kept rows.
        let dir = scratch_dir("pins");
        let cohort = small_cohort(20);
        let selection = BitSelection::random(Dim::new(256), 96, 3).unwrap();
        let mut store =
            HvStore::build_pruned(&cohort.records, &cohort.labels, 3, &selection).unwrap();
        store.save(&dir).unwrap();
        let committed = store.accumulators().unwrap().clone();
        let (ones, totals) = committed.parts();
        let mut ones = ones.to_vec();
        ones[0][0] += 1;
        let same_totals =
            ClassAccumulators::from_parts(Dim::new(96), ones, totals.to_vec()).unwrap();
        snapshot::write_accums(&dir.join(snapshot::ACCUMS_FILE_NAME), &same_totals).unwrap();
        let other = BitSelection::random(Dim::new(256), 96, 4).unwrap();
        snapshot::write_selection(&dir.join(snapshot::SELECTION_FILE_NAME), &other).unwrap();

        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.accumulators_rebuilt);
        assert_eq!(reopened.accumulators(), Some(&committed));
        assert!(!report.selection_recovered);
        assert!(reopened.selection().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_gapped_recovery_rolls_past_surviving_indices() {
        // Quarantining shard 2 of {0,1,2,3} leaves surviving indices with
        // a gap; a subsequent roll must open shard 4, not reuse index 3
        // (shards.len()), which would clobber shard 3's file on save.
        let dir = scratch_dir("gapped");
        let cohort = small_cohort(12);
        let mut store = HvStore::new_empty(Dim::new(256), 10).unwrap();
        store
            .append_batch(&cohort.records[..40], &cohort.labels[..40])
            .unwrap();
        store.save(&dir).unwrap();
        std::fs::remove_file(dir.join(snapshot::shard_file_name(2))).unwrap();

        let (mut recovered, report) = HvStore::open(&dir).unwrap();
        assert_eq!(report.kept, vec![0, 1, 3]);
        assert_eq!(recovered.n_rows(), 30);
        recovered.set_shard_capacity(10);

        // Shard 3 is full, so this append rolls a fresh shard: index 4.
        let appended = recovered
            .append_batch(&cohort.records[40..55], &cohort.labels[40..55])
            .unwrap();
        assert_eq!(appended.shards_rolled, 2);
        assert_eq!(appended.open_shard, 5);
        let indices: Vec<u32> = recovered.shards.iter().map(|s| s.shard_index).collect();
        assert_eq!(indices, vec![0, 1, 3, 4, 5]);

        // Saving must not overwrite shard 3: the round trip keeps every
        // surviving row and still reports the old gap as missing.
        recovered.save_dirty(&dir).unwrap();
        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.kept, vec![0, 1, 3, 4, 5]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].shard_index, Some(2));
        assert_eq!(reopened.n_rows(), 45);
        assert_eq!(reopened, recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dirty_into_a_fresh_directory_writes_the_clean_shards_too() {
        // Dirty tracking is per-store: a recovered store (nothing dirty)
        // appended once must still produce a complete snapshot when its
        // rolling save points at a directory missing the clean shards.
        let old_dir = scratch_dir("fresh-src");
        let new_dir = scratch_dir("fresh-dst");
        let cohort = small_cohort(13);
        let mut store = HvStore::new_empty(Dim::new(256), 10).unwrap();
        store
            .append_batch(&cohort.records[..25], &cohort.labels[..25])
            .unwrap();
        store.save(&old_dir).unwrap();

        let (mut recovered, _) = HvStore::open(&old_dir).unwrap();
        recovered
            .append_batch(&cohort.records[25..30], &cohort.labels[25..30])
            .unwrap();
        // Only the open shard is dirty, but the fresh directory lacks the
        // other two — all three get written.
        assert_eq!(recovered.dirty_shards(), vec![2]);
        assert_eq!(recovered.save_dirty(&new_dir).unwrap(), 3);
        let (reopened, report) = HvStore::open(&new_dir).unwrap();
        assert!(report.is_complete());
        assert!(report.quarantined.is_empty());
        assert_eq!(reopened, recovered);
        std::fs::remove_dir_all(&old_dir).unwrap();
        std::fs::remove_dir_all(&new_dir).unwrap();
    }

    #[test]
    fn pruned_store_round_trips_selection_and_gathers_appends() {
        let dir = scratch_dir("selection");
        let cohort = small_cohort(11);
        let selection = BitSelection::random(Dim::new(256), 96, 7).unwrap();
        let mut store =
            HvStore::build_pruned(&cohort.records[..40], &cohort.labels[..40], 4, &selection)
                .unwrap();
        store.save(&dir).unwrap();

        let (mut reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.selection_recovered);
        assert_eq!(reopened.selection(), Some(&selection));
        assert_eq!(reopened, store);

        // Full-width records append through the recovered selection…
        let appended = reopened
            .append_batch(&cohort.records[40..60], &cohort.labels[40..60])
            .unwrap();
        assert_eq!(appended.appended, 20);
        assert_eq!(reopened.n_rows(), 60);
        // …landing bit-identically to pre-gathered appends.
        store
            .append_batch(
                &cohort.records[40..60]
                    .iter()
                    .map(|hv| selection.gather_hypervector(hv).unwrap())
                    .collect::<Vec<_>>(),
                &cohort.labels[40..60],
            )
            .unwrap();
        assert_eq!(reopened, store);

        // A clobbered selection file degrades to a selection-less store:
        // retrieval still serves, but full-width appends are rejected.
        std::fs::write(dir.join(snapshot::SELECTION_FILE_NAME), b"garbage").unwrap();
        let (mut degraded, report) = HvStore::open(&dir).unwrap();
        assert!(!report.selection_recovered);
        assert!(degraded.selection().is_none());
        let probe = selection.gather_hypervector(&cohort.records[0]).unwrap();
        assert!(degraded.predict_batch(&[probe], 1).is_ok());
        assert!(degraded
            .append_batch(&cohort.records[..1], &cohort.labels[..1])
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
