//! The sharded hypervector store: build, save, recover, serve.
//!
//! A store is a bank of labelled record hypervectors split into contiguous
//! shards, each persisted as one self-describing file (see
//! [`crate::snapshot`]), plus the class accumulators of a centroid model.
//! [`HvStore::open`] is the crash-recovery path: it reads every shard file
//! it can find, quarantines the ones that fail validation into a
//! [`RecoveryReport`] — the accounting mirrors the encoder's
//! `QuarantineReport`: every shard of the snapshot is either kept or
//! quarantined, never silently dropped — and serves top-k Hamming
//! retrieval from the survivors. Losing a shard loses that shard's rows,
//! nothing else; the holographic representation keeps nearest-neighbour
//! predictions usable as long as any shard survives.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::{hamming_words, BitMatrix};
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::distill::BitSelection;
use hyperfex_hdc::{failpoint, BinaryHypervector};

use crate::error::ServeError;
use crate::obs;
use crate::snapshot::{self, ShardRecord};

/// One k-NN candidate as `(distance, shard, row, label)`; the tuple order
/// doubles as the deterministic tie-break order, so comparing candidates
/// compares distance first, then shard index, then row.
type Candidate = (u32, u32, u32, u32);

/// Fewest store rows a parallel chunk of [`HvStore::predict_batch`] scans:
/// about 50 µs of distances for one 10,000-bit query, enough to outweigh
/// the thread a chunk costs.
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
    /// Shard count the snapshot was written with (or the number of
    /// candidate files found, when no shard survived to say).
    pub total_shards: usize,
    /// Indices of the shards now serving, ascending.
    pub kept: Vec<u32>,
    /// Shards rejected during recovery, with reasons.
    pub quarantined: Vec<QuarantinedShard>,
    /// Whether the class-accumulator file was recovered; centroid
    /// predictions are unavailable without it, k-NN is unaffected.
    pub accumulators_recovered: bool,
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
/// accumulators — not the incremental-ingest bookkeeping (dirty set, shard
/// capacity) or the optional distillation selection, so a rebuilt store
/// equals a recovered one whenever they would answer identically.
#[derive(Debug, Clone)]
pub struct HvStore {
    dim: Dim,
    shards: Vec<ShardRecord>,
    accums: Option<ClassAccumulators>,
    /// How the bank was pruned, when it was built through a distillation
    /// selection; persisted in v2 snapshots so reopened stores can gather
    /// new full-width records.
    selection: Option<BitSelection>,
    /// Shard indices whose in-memory state is newer than the last
    /// snapshot — what [`HvStore::save_dirty`] writes.
    dirty: BTreeSet<u32>,
    /// Row count at which [`HvStore::append_batch`] rolls a new shard.
    shard_capacity: usize,
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
    /// `n_shards` contiguous shards and accumulating class centroids.
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
        if records.len() != labels.len() {
            return Err(ServeError::Hdc(
                hyperfex_hdc::HdcError::LabelLengthMismatch {
                    samples: records.len(),
                    labels: labels.len(),
                },
            ));
        }
        if n_shards == 0 || n_shards > records.len() {
            return Err(ServeError::ShardConflict {
                detail: format!(
                    "{n_shards} shards requested for {} records (need 1..={})",
                    records.len(),
                    records.len()
                ),
            });
        }
        let n_shards_u32 = u32::try_from(n_shards).map_err(|_| ServeError::ShardConflict {
            detail: format!("{n_shards} shards do not fit the u32 shard index"),
        })?;
        let dim = first.dim();
        // Labels are checked before accumulating, so an out-of-range label
        // is a typed error rather than a class set grown to match it.
        let label_u32 = on_disk_labels(labels)?;

        let mut accums = ClassAccumulators::new(dim);
        accums.add_batch(records, labels)?;

        let rows_per_shard = records.len().div_ceil(n_shards);
        let mut shards = Vec::with_capacity(n_shards);
        for (s, (rows, row_labels)) in records
            .chunks(rows_per_shard)
            .zip(label_u32.chunks(rows_per_shard))
            .enumerate()
        {
            shards.push(ShardRecord {
                shard_index: u32::try_from(s).unwrap_or(u32::MAX),
                n_shards: n_shards_u32,
                labels: row_labels.to_vec(),
                bank: BitMatrix::from_hypervectors(rows)?,
            });
        }
        // A freshly built store has never been persisted: every shard is
        // dirty until the first save.
        let dirty = shards.iter().map(|s| s.shard_index).collect();
        Ok(Self {
            dim,
            shards,
            accums: Some(accums),
            selection: None,
            dirty,
            shard_capacity: rows_per_shard,
        })
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
            dirty: BTreeSet::new(),
            shard_capacity,
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
    /// honours the new capacity.
    ///
    /// Resumed ingest should call this with the originally configured
    /// capacity: [`HvStore::open`] infers the stride from the widest
    /// recovered shard, which matches the configuration only once at
    /// least one shard has filled (see [`HvStore::open`]).
    pub fn set_shard_capacity(&mut self, rows: usize) {
        self.shard_capacity = rows.max(1);
    }

    /// Shard indices whose in-memory state is newer than the last
    /// snapshot, ascending — exactly what [`HvStore::save_dirty`] would
    /// write.
    #[must_use]
    pub fn dirty_shards(&self) -> Vec<u32> {
        self.dirty.iter().copied().collect()
    }

    /// Appends encoded records to the store without rebuilding it: rows
    /// fill the open (highest-index) shard and roll into fresh shards at
    /// [`HvStore::shard_capacity`], the class accumulators absorb every
    /// record, and the touched shards join the dirty set for the next
    /// [`HvStore::save_dirty`] rolling snapshot.
    ///
    /// Records must be at the store's dimensionality — except that a store
    /// carrying a distillation [`BitSelection`] also accepts *full-width*
    /// records and gathers them through the selection, so a streaming
    /// encode pipeline can feed a pruned store directly.
    ///
    /// Validation is all-or-nothing: every record and label, and the
    /// accumulators' dimensionality, are checked before the first row
    /// lands, so a failed append leaves the store untouched.
    ///
    /// Cost: each row is copied once into the open shard's bank, which is
    /// reserved at the shard's capacity when it first takes rows, and each
    /// record is scattered into its class counts; each touched class
    /// prototype is requantised once per call, not once per record.
    ///
    /// Rolling a shard rewrites the `n_shards` header of *every* shard, so
    /// a roll marks the whole store dirty; with capacity-sized batches
    /// that cost amortises to one extra full rewrite per shard lifetime.
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
            self.dirty.insert(open.shard_index);
            cursor += take;
        }
        if let Some(accums) = &mut self.accums {
            accums.add_batch(&rows, labels)?;
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

    /// Fails, before anything is mutated, when appending `n_rows` rows
    /// would roll a shard whose index or shard count does not fit the u32
    /// header — the one way [`HvStore::roll_shard`] can fail — so an
    /// append never stops half-way through its rows.
    fn check_roll_room(&self, n_rows: usize) -> Result<(), ServeError> {
        let room = self.shards.last().map_or(0, |open| {
            self.shard_capacity.saturating_sub(open.bank.n_rows())
        });
        let rolls = n_rows.saturating_sub(room).div_ceil(self.shard_capacity);
        let next = self
            .shards
            .iter()
            .map(|s| u64::from(s.shard_index) + 1)
            .max()
            .unwrap_or(0);
        // The last roll opens index `next + rolls - 1`, so the shard count
        // it stamps is `next + rolls`.
        let fits = u64::try_from(rolls)
            .ok()
            .and_then(|r| next.checked_add(r))
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

    /// Opens a fresh empty shard at the next index, updating every shard's
    /// `n_shards` header (which dirties the whole store — headers on disk
    /// are now stale).
    ///
    /// The next index is one past the highest *surviving* index, not the
    /// shard count: a store recovered with quarantine gaps (say indices
    /// {0, 1, 3}) must roll shard 4, because rolling `shards.len()` (3)
    /// would duplicate an index and the next save would clobber that
    /// shard's file. The gap stays a gap — reopening reports the lost
    /// shard as missing, exactly as before the append.
    fn roll_shard(&mut self) -> Result<(), ServeError> {
        let next = match self.shards.iter().map(|s| s.shard_index).max() {
            Some(highest) => highest.checked_add(1).ok_or_else(|| ServeError::ShardConflict {
                detail: format!("shard index after {highest} does not fit u32"),
            })?,
            None => 0,
        };
        let n_shards = next.checked_add(1).ok_or_else(|| ServeError::ShardConflict {
            detail: format!("{next} shards do not fit the u32 shard-count header"),
        })?;
        for shard in &mut self.shards {
            shard.n_shards = n_shards;
            self.dirty.insert(shard.shard_index);
        }
        self.shards.push(ShardRecord {
            shard_index: next,
            n_shards,
            labels: Vec::new(),
            bank: BitMatrix::zeros(0, self.dim),
        });
        self.dirty.insert(next);
        Ok(())
    }

    /// Writes every shard plus the accumulator file (and the distillation
    /// selection, when present) into `dir` (created if missing). Each file
    /// is written atomically; a crash mid-save leaves any previous
    /// snapshot files intact. A complete save leaves nothing dirty.
    pub fn save(&mut self, dir: &Path) -> Result<(), ServeError> {
        let _span = obs::span("serve/snapshot_save");
        std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, &e))?;
        for shard in &self.shards {
            let path = dir.join(snapshot::shard_file_name(shard.shard_index));
            snapshot::write_shard(&path, shard)?;
        }
        self.save_sidecars(dir)?;
        self.dirty.clear();
        Ok(())
    }

    /// Rolling snapshot for incremental ingest: writes the shards touched
    /// since the last save (plus the accumulator and selection sidecars,
    /// which change with every append), then clears the dirty set.
    /// Returns the number of shard files written.
    ///
    /// Dirty tracking is per-store, not per-directory, so a clean shard is
    /// skipped only when `dir` already holds its file — pointing a rolling
    /// snapshot at a *fresh* directory (or one missing files) writes the
    /// absent shards too, instead of silently producing a partial
    /// snapshot. On top of an existing snapshot of the same store this
    /// keeps the directory recoverable at a cost proportional to the
    /// *appended* data — except just after a shard roll, when the stale
    /// `n_shards` headers force a full rewrite.
    pub fn save_dirty(&mut self, dir: &Path) -> Result<usize, ServeError> {
        let _span = obs::span("serve/snapshot_save_dirty");
        std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, &e))?;
        let mut written = 0usize;
        for shard in &self.shards {
            let path = dir.join(snapshot::shard_file_name(shard.shard_index));
            if !self.dirty.contains(&shard.shard_index) && path.exists() {
                continue;
            }
            snapshot::write_shard(&path, shard)?;
            written += 1;
        }
        self.save_sidecars(dir)?;
        self.dirty.clear();
        obs::counter_add("serve/dirty_shards_saved", written as u64);
        Ok(written)
    }

    /// The accumulator and selection files every save variant rewrites.
    fn save_sidecars(&self, dir: &Path) -> Result<(), ServeError> {
        if let Some(accums) = &self.accums {
            snapshot::write_accums(&dir.join(snapshot::ACCUMS_FILE_NAME), accums)?;
        }
        if let Some(selection) = &self.selection {
            snapshot::write_selection(&dir.join(snapshot::SELECTION_FILE_NAME), selection)?;
        }
        Ok(())
    }

    /// The shard file paths a snapshot directory holds, sorted by file
    /// name — the handle chaos harnesses use to corrupt specific shards.
    pub fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| ServeError::io(dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::io(dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && name.ends_with(".hfex") {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Recovers a store from a snapshot directory.
    ///
    /// Every candidate shard file is read and fully validated; the ones
    /// that fail — corrupt sections, truncation, clobbered headers,
    /// dimensionality or shard-count disagreement with the first good
    /// shard, duplicate indices — are quarantined with reasons instead of
    /// aborting recovery. Shards the surviving metadata says should exist
    /// but which have no file are quarantined as missing. The store serves
    /// whatever survived (possibly nothing — see
    /// [`HvStore::predict_batch`]); the report's accounting always
    /// balances.
    ///
    /// The shard capacity is not persisted: the reopened store infers the
    /// append stride from the widest recovered shard, which equals the
    /// configured capacity once any shard has filled but undershoots it
    /// when a crash landed before the first roll (a lone 5-row shard at
    /// configured capacity 16 resumes with capacity 5). Resumed ingest
    /// that needs the uninterrupted layout — e.g. to stay bit-identical
    /// with a batch-built store — must call
    /// [`HvStore::set_shard_capacity`] with the configured value before
    /// appending.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), ServeError> {
        let _span = obs::span("serve/snapshot_open");
        let paths = Self::shard_paths(dir)?;
        let mut quarantined = Vec::new();
        let mut survivors: BTreeMap<u32, ShardRecord> = BTreeMap::new();
        let mut consensus: Option<(Dim, u32)> = None;

        for path in &paths {
            let file = path.file_name().map_or_else(
                || path.display().to_string(),
                |n| n.to_string_lossy().into_owned(),
            );
            match snapshot::read_shard(path) {
                Ok(shard) => {
                    let (dim, n_shards) =
                        *consensus.get_or_insert((shard.bank.dim(), shard.n_shards));
                    if shard.bank.dim() != dim || shard.n_shards != n_shards {
                        quarantined.push(QuarantinedShard {
                            file,
                            shard_index: Some(shard.shard_index),
                            reason: format!(
                                "disagrees with the first recovered shard: dim {} vs {}, \
                                 {} shards vs {}",
                                shard.bank.dim(),
                                dim,
                                shard.n_shards,
                                n_shards
                            ),
                        });
                        continue;
                    }
                    if survivors.contains_key(&shard.shard_index) {
                        quarantined.push(QuarantinedShard {
                            file,
                            shard_index: Some(shard.shard_index),
                            reason: format!("duplicate shard index {}", shard.shard_index),
                        });
                        continue;
                    }
                    survivors.insert(shard.shard_index, shard);
                }
                Err(e) => quarantined.push(QuarantinedShard {
                    file,
                    shard_index: None,
                    reason: e.to_string(),
                }),
            }
        }

        // Shards the metadata promises but no candidate file provides.
        let total_shards = match consensus {
            Some((_, n_shards)) => {
                let accounted: usize = survivors.len()
                    + quarantined
                        .iter()
                        .filter(|q| q.shard_index.is_none_or(|i| i < n_shards))
                        .count();
                for index in 0..n_shards {
                    if !survivors.contains_key(&index)
                        && !quarantined.iter().any(|q| q.shard_index == Some(index))
                        && accounted < n_shards as usize
                    {
                        quarantined.push(QuarantinedShard {
                            file: snapshot::shard_file_name(index),
                            shard_index: Some(index),
                            reason: "shard file missing".to_string(),
                        });
                    }
                }
                (survivors.len() + quarantined.len()).max(n_shards as usize)
            }
            None => paths.len(),
        };

        let accums = match snapshot::read_accums(&dir.join(snapshot::ACCUMS_FILE_NAME)) {
            Ok(acc) if consensus.is_none_or(|(dim, _)| acc.dim() == dim) => Some(acc),
            _ => None,
        };

        // The selection sidecar is v2-optional: absent (v1 snapshots),
        // corrupt or dimensionally inconsistent all degrade to None.
        let selection = match snapshot::read_selection(&dir.join(snapshot::SELECTION_FILE_NAME)) {
            Ok(sel) if consensus.is_none_or(|(dim, _)| sel.dim() == dim) => Some(sel),
            _ => None,
        };

        let report = RecoveryReport {
            total_shards,
            kept: survivors.keys().copied().collect(),
            quarantined,
            accumulators_recovered: accums.is_some(),
            selection_recovered: selection.is_some(),
        };
        obs::counter_add("serve/shards_quarantined", report.quarantined.len() as u64);
        let dim = consensus.map_or_else(|| Dim::try_new(1), |(dim, _)| Ok(dim))?;
        let shards: Vec<ShardRecord> = survivors.into_values().collect();
        // Appends continue at the layout's natural stride: the widest
        // recovered shard (1 when nothing survived). This undershoots the
        // configured capacity when no shard ever filled — see the doc
        // comment above.
        let shard_capacity = shards.iter().map(|s| s.bank.n_rows()).max().unwrap_or(1);
        Ok((
            Self {
                dim,
                shards,
                accums,
                selection,
                dirty: BTreeSet::new(),
                shard_capacity: shard_capacity.max(1),
            },
            report,
        ))
    }

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
        // (which may span shards), and each chunk returns its own sorted
        // per-query top-k. The serial merge below then keeps the k
        // globally smallest candidate tuples per query — identical to
        // folding shards one by one, because both are "the k smallest
        // elements" of the same candidate multiset and the (distance,
        // shard, row, label) tuple order makes every candidate distinct.
        // How the rows are split therefore cannot change the result.
        // A query has at most `n_rows` candidates, so a larger k is moot.
        let k = k.min(self.n_rows());
        let chunk_tops = rayon::map_ranges(self.n_rows(), MIN_CHUNK_ROWS, |rows| {
            self.range_candidates(&query_matrix, rows, k)
        });

        // Per-query top-k candidates as (distance, shard, row, label),
        // kept sorted ascending; the tuple order is the tie-break order.
        let mut best: Vec<Vec<Candidate>> =
            vec![Vec::with_capacity(k * chunk_tops.len()); queries.len()];
        for tops in chunk_tops {
            for (heap, chunk_heap) in best.iter_mut().zip(tops) {
                heap.extend(chunk_heap);
            }
        }
        for heap in &mut best {
            heap.sort_unstable();
            heap.truncate(k);
        }

        Ok(best.iter().map(|heap| Self::vote(heap)).collect())
    }

    /// The sorted per-query top-k candidates among the global rows `rows`
    /// (rows numbered shard after shard) — the unit of work one chunk of
    /// [`HvStore::predict_batch`] computes. Each bank row is loaded once
    /// and compared against every query.
    fn range_candidates(
        &self,
        queries: &BitMatrix,
        rows: Range<usize>,
        k: usize,
    ) -> Vec<Vec<Candidate>> {
        let mut tops: Vec<Vec<Candidate>> = vec![Vec::with_capacity(k + 1); queries.n_rows()];
        let mut shard_start = 0;
        for shard in &self.shards {
            let shard_end = shard_start + shard.bank.n_rows();
            let lo = rows.start.clamp(shard_start, shard_end) - shard_start;
            let hi = rows.end.clamp(shard_start, shard_end) - shard_start;
            shard_start = shard_end;
            for row in lo..hi {
                let words = shard.bank.row_words(row);
                let label = shard.labels.get(row).copied().unwrap_or(0);
                let row_u32 = u32::try_from(row).unwrap_or(u32::MAX);
                for (qi, heap) in tops.iter_mut().enumerate() {
                    let distance = hamming_words(queries.row_words(qi), words);
                    let distance = u32::try_from(distance).unwrap_or(u32::MAX);
                    let candidate = (distance, shard.shard_index, row_u32, label);
                    if heap.len() == k && heap.last().is_some_and(|worst| candidate >= *worst) {
                        continue;
                    }
                    let at = heap.partition_point(|c| *c <= candidate);
                    heap.insert(at, candidate);
                    heap.truncate(k);
                }
            }
        }
        tops
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
    fn append_checks_the_accumulator_width_before_any_row_lands() {
        // Every shard lost but the accumulator file survived: the store
        // reopens empty at width 1 with 64-bit accumulators. A width-1
        // record passes the store's own check; the accumulator check must
        // reject it before a shard is rolled or a row lands.
        let dir = scratch_dir("accum-width");
        let mut accums = ClassAccumulators::new(Dim::new(64));
        accums.grow(1);
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
        store.shards[0].n_shards = u32::MAX;
        store.set_shard_capacity(4);
        store.dirty.clear();
        let before = store.clone();

        let err = store
            .append_batch(&cohort.records[3..5], &cohort.labels[3..5])
            .unwrap_err();
        assert!(matches!(err, ServeError::ShardConflict { .. }), "{err}");
        assert_eq!(store, before);
        assert_eq!(store.n_rows(), 3);
        assert!(store.dirty_shards().is_empty());

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

        // A roll dirties the whole store (stale n_shards headers).
        store
            .append_batch(&cohort.records[30..50], &cohort.labels[30..50])
            .unwrap();
        assert_eq!(store.dirty_shards(), vec![0, 1, 2, 3, 4]);
        assert_eq!(store.save_dirty(&dir).unwrap(), 5);

        let (reopened, report) = HvStore::open(&dir).unwrap();
        assert!(report.is_complete());
        assert!(report.accumulators_recovered);
        assert_eq!(reopened, store);
        // Recovery derives the append stride from the widest shard, so
        // ingest can resume where it left off.
        assert_eq!(reopened.shard_capacity(), 10);
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
