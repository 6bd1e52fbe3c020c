//! Bounded k-nearest selection: the one Hamming top-k behind every k-NN
//! path — leave-one-out, the packed `hyperfex-ml` k-NN and the serving
//! store's scan.
//!
//! A [`TopK`] keeps, for each of several lists (one per query, or per row
//! in leave-one-out), the `k` smallest `(distance, key)` candidates offered
//! so far, ascending, in one flat buffer. The tuple order is the tie order,
//! so each caller states its tie rule through its key: a training index,
//! or the store's `(shard, row, label)`. A list holds the `k` smallest of
//! the multiset offered to it whatever the offer order, so per-chunk lists
//! merged in any order equal one serial pass.
//!
//! A full list admits no candidate farther than its k-th distance, so a
//! k-nearest sweep need not read a row that cannot come nearer.
//! [`TopK::scan`] has three exact rules for this, each keyed to a query's
//! *limit*: the smaller of its list's k-th distance and the ceiling the
//! [`ScanRequest`] keeps for it.
//!
//! 1. *Pivot bound.* A [`PivotTable`] bounds a query's distance to a row
//!    from below by the triangle inequality, and the scan skips a row
//!    without reading a word of it when that bound is strictly greater
//!    than the limit.
//! 2. *Abandon rule.* Every other row is read through [`hamming_within`],
//!    which stops once the running distance is strictly greater than the
//!    limit.
//! 3. *Seeded ceiling.* Before its main pass a scan computes every pivot
//!    bound of its rows and keeps them; it reads first, for each query,
//!    the rows with the smallest bounds, and lowers the query's ceiling to
//!    the k-th smallest of their distances. Every scan of a request shares
//!    the ceiling (one atomic per query), and each publishes its list's
//!    k-th distance to it, so a scan starts from the best bound any scan
//!    of the request has found. Scans of a table with no pivots keep no
//!    bounds and use neither the bound nor the ceiling.
//!
//! A ceiling is always the k-th smallest distance of k distinct rows that
//! the request's scans cover, so it is never below the final k-th distance
//! of their merged lists, and a row strictly farther than it cannot be
//! among the final k nearest. A row a scan leaves out for its ceiling may
//! be missing from that scan's own list, but never from the merge: every
//! row of the final lists is at most the ceiling away, and a scan's list
//! keeps the k smallest of the rows it was offered. Under all three rules
//! a row at exactly the limit is read in full and offered, because its
//! key may win the tie, so the merged lists equal those of a full-distance
//! scan whatever the pivots, the key order, the seeds, the row split or
//! the thread timing. Leave-one-out's symmetric sweep uses only the
//! abandon rule, and drops a pair only when its running distance passes
//! the k-th distances of both rows' lists.
//!
//! With the `obs` feature each scan or sweep adds the pairs of its main
//! pass to `hdc/knn_pairs`, those the pivot bound skipped to
//! `hdc/knn_pairs_skipped` and those it abandoned to
//! `hdc/knn_pairs_abandoned`; every other pair was read in full. A scan
//! adds the seed rows it read, per query, to `hdc/knn_pairs_seeded`. A
//! shared ceiling falls as fast as the parallel scans find rows, so with
//! more than one scan in flight these counts depend on thread timing; the
//! lists do not.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bitmatrix::{bank_segments, hamming_within, BitMatrix, PivotTable};
use crate::error::HdcError;
use crate::obs;

/// Rows of one bank a scan's main pass takes at a time: one bit each of a
/// `u64` mask that picks, per query, the rows the pivot bound lets
/// through, and the rows between two looks at the request's shared
/// ceilings, when the scan also publishes its lists' k-th distances to
/// them. A check of every pair in turn cost about 15 ns a row on 1-query
/// requests to perfbench's `query` bank and 5 ns a pair on 32-query ones
/// (one thread, 2-vCPU Xeon VM, reads left out); the mask's cost did not
/// show in the same timings. A look at the ceilings every 64 rows is one
/// atomic load per query.
const BOUND_BLOCK_ROWS: usize = 64;

/// Most pivot bounds one scan keeps at once: 2^19 `u16`, 1 MiB. A scan
/// takes its rows in windows of `KEPT_BOUNDS / queries` rows (at least
/// [`BOUND_BLOCK_ROWS`]) and its queries in groups that fill a window's
/// bounds, so a request keeps at most 1 MiB per parallel scan whatever its
/// queries and rows. A 32-query request on perfbench's 20,000-row `query`
/// bank fits one window per scan with two workers (640 KB each); a
/// 256-query request on a 1,000,000-row store takes windows of 2,048 rows,
/// so each window's pivot columns stay in cache across its queries.
const KEPT_BOUNDS: usize = 1 << 19;

/// Most rows a scan reads first for each query in each window, to seed its
/// ceiling. On perfbench's `query` bank the cut admits about 40 rows per
/// query and scan (about 80 seed reads per query over two scans), so the
/// cap binds only where many rows tie at the smallest bounds.
const SEED_ROWS: usize = 128;

/// Stride of the sample of a window's bounds whose k-th smallest sets the
/// seed cut: the seeds are the rows whose bound is at most that cut, about
/// `k × SEED_SAMPLE_STRIDE` rows (at most [`SEED_ROWS`]). Strides of 8, 16
/// and 32 read 3.03%, 2.94% and 2.89% of the `query` bank's words on
/// 1-query requests and 3.14%, 3.14% and 3.11% on 32-query ones (seed 5,
/// two workers, about 80 seed reads per query each: the bank's repeated
/// records tie at the smallest bounds), and their timings were within
/// run-to-run noise; 8 samples a 20,000-row bank in 2,500 bounds.
const SEED_SAMPLE_STRIDE: usize = 8;

/// Per-list bounded top-k of `(distance, key)` candidates.
#[derive(Debug, Clone)]
pub struct TopK<K> {
    k: usize,
    lens: Vec<usize>,
    slots: Vec<(usize, K)>,
}

/// The queries of one k-nearest request with what its scans share: each
/// query's distances to a [`PivotTable`]'s pivots, computed once here
/// rather than once per scan, and each query's ceiling, a k-th distance
/// that only falls.
///
/// Every scan of a request must scan rows of the banks the table
/// describes, into lists of the request's queries and `k`, and the
/// request's answer is the merge of those lists: a ceiling found in one
/// scan's rows says nothing about lists that are not merged with it.
#[derive(Debug)]
pub struct ScanRequest<'a> {
    queries: &'a BitMatrix,
    k: usize,
    pivots: &'a PivotTable,
    /// `to_pivots[q * n_pivots + p]` is query `q`'s saturated distance to
    /// pivot `p`.
    to_pivots: Vec<u16>,
    /// The k-th distance of k distinct rows some scan has read for each
    /// query, `usize::MAX` until one has.
    ceilings: Vec<AtomicUsize>,
    /// Most seed rows a scan reads per query and window.
    seed_rows: usize,
}

impl<'a> ScanRequest<'a> {
    /// A request for the `k` nearest rows to each row of `queries`, with
    /// rows bounded by `pivots`. Scans of a table with no pivots keep no
    /// bounds, seed nothing and share no ceiling: every bound would be 0,
    /// so nothing ranks the rows, and each scan reads every row against its
    /// own lists' k-th distances.
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the queries and the
    /// pivots differ in width.
    pub fn new(queries: &'a BitMatrix, k: usize, pivots: &'a PivotTable) -> Result<Self, HdcError> {
        if queries.dim() != pivots.pivots().dim() {
            return Err(HdcError::DimensionMismatch {
                left: queries.dim().get(),
                right: pivots.pivots().dim().get(),
            });
        }
        let to_pivots = (0..queries.n_rows())
            .flat_map(|q| pivots.query_distances(queries.row_words(q)))
            .collect();
        let has_pivots = pivots.pivots().n_rows() > 0;
        Ok(Self {
            queries,
            k,
            pivots,
            to_pivots,
            ceilings: (0..queries.n_rows())
                .map(|_| AtomicUsize::new(usize::MAX))
                .collect(),
            seed_rows: if has_pivots { SEED_ROWS } else { 0 },
        })
    }

    /// The same request with at most `rows` seed rows per query and window
    /// (0 seeds nothing), with or without pivots. A test seam, not a
    /// configuration surface: the lists never depend on it, and tests use
    /// it to show that.
    #[must_use]
    pub fn with_seed_rows(mut self, rows: usize) -> Self {
        self.seed_rows = rows;
        self
    }

    /// Query `q`'s pivot distances.
    fn to_pivots(&self, q: usize) -> &[u16] {
        let n_pivots = self.pivots.pivots().n_rows();
        &self.to_pivots[q * n_pivots..][..n_pivots]
    }

    /// Lowers query `q`'s ceiling to `kth`, the k-th distance of k distinct
    /// rows a scan has read, and returns the ceiling.
    fn lower_ceiling(&self, q: usize, kth: usize) -> usize {
        let ceiling = &self.ceilings[q];
        // lint: relaxed-ok (a ceiling publishes no other data; any value read is the k-th distance of k real rows, and a stale one is only larger)
        let shared = ceiling.load(Ordering::Relaxed);
        if kth < shared {
            // lint: relaxed-ok (fetch_min is one atomic read-modify-write, so no smaller ceiling is lost; nothing else is ordered by it)
            ceiling.fetch_min(kth, Ordering::Relaxed);
        }
        kth.min(shared)
    }
}

/// One scan's working state: the kept bounds of a window, query after
/// query (empty when the scan keeps none), the limits of a query group, a
/// seed sample, and what the scan read, for the `obs` counters.
struct Pass {
    kept: Vec<u16>,
    limits: Vec<usize>,
    /// Every [`SEED_SAMPLE_STRIDE`]-th kept bound of a query.
    sample: Vec<u16>,
    skipped: u64,
    abandoned: u64,
    seeded: u64,
}

impl<K: Copy + Ord + Default> TopK<K> {
    /// `lists` empty lists that each keep at most `k` candidates.
    #[must_use]
    pub fn new(lists: usize, k: usize) -> Self {
        Self {
            k,
            lens: vec![0; lists],
            slots: vec![(0, K::default()); lists * k],
        }
    }

    /// List `list`'s candidates, ascending.
    #[must_use]
    pub fn list(&self, list: usize) -> &[(usize, K)] {
        &self.slots[list * self.k..][..self.lens[list]]
    }

    /// Offers one candidate to list `list`, keeping the `k` smallest. `k`
    /// is small, so a bounded insertion beats a heap.
    pub fn offer(&mut self, list: usize, distance: usize, key: K) {
        let k = self.k;
        let len = self.lens[list];
        let candidate = (distance, key);
        let slots = &mut self.slots[list * k..][..k];
        if len == k && slots.last().is_none_or(|worst| candidate >= *worst) {
            return;
        }
        let at = slots[..len].partition_point(|c| *c < candidate);
        slots.copy_within(at..len.min(k - 1), at + 1);
        slots[at] = candidate;
        self.lens[list] = (len + 1).min(k);
    }

    /// The largest distance list `list` can still admit: its k-th distance
    /// once it holds `k` candidates, `usize::MAX` while it has room (and
    /// for `k = 0`, whose lists admit nothing through [`TopK::offer`]). A
    /// candidate at exactly this distance may still enter on its key.
    pub(crate) fn bound(&self, list: usize) -> usize {
        let candidates = self.list(list);
        match candidates.last() {
            Some(&(worst, _)) if candidates.len() == self.k => worst,
            _ => usize::MAX,
        }
    }

    /// Folds `other`'s lists into these, list by list: each list then
    /// holds the `k` smallest of both.
    pub fn merge(&mut self, other: &Self) {
        for list in 0..other.lens.len() {
            for &(distance, key) in other.list(list) {
                self.offer(list, distance, key);
            }
        }
    }

    /// Offers the rows `rows` of `banks`, numbered bank after bank, to
    /// every query of `request`: list `q` receives
    /// `(hamming(query q, row), key(bank, row in bank))` unless the row
    /// cannot be among the request's k nearest (see the module doc).
    ///
    /// The rows go in windows that keep at most 1 MiB of bounds. For each
    /// window the scan first computes every query's pivot bounds, one pass
    /// per (query, pivot), then reads each query's seed rows and lowers
    /// its ceiling, then reads the rows in blocks of 64, which stay in
    /// cache across the queries: a pair whose bound is strictly greater
    /// than the query's limit is skipped unread, and a comparison stops
    /// once the distance passes it. Scans that share `request` may run in
    /// parallel on disjoint rows; merged, their lists equal one
    /// full-distance pass.
    ///
    /// `request`'s table must describe `banks` (or have no pivots).
    /// Returns [`HdcError::InvalidConfig`] when these lists do not match
    /// the request's queries and `k`, when `rows` reach past the banks, or
    /// when a table with pivots does not cover `rows`, and
    /// [`HdcError::DimensionMismatch`] when a bank differs in width from
    /// the queries.
    pub fn scan(
        &mut self,
        request: &ScanRequest<'_>,
        banks: &[&BitMatrix],
        rows: Range<usize>,
        key: impl Fn(usize, usize) -> K,
    ) -> Result<(), HdcError> {
        let queries = request.queries;
        let n_queries = queries.n_rows();
        if self.k != request.k || self.lens.len() != n_queries {
            return Err(HdcError::InvalidConfig(format!(
                "{} lists of {} cannot take a request for the {} nearest of {} queries",
                self.lens.len(),
                self.k,
                request.k,
                n_queries
            )));
        }
        for bank in banks {
            if bank.dim() != queries.dim() {
                return Err(HdcError::DimensionMismatch {
                    left: queries.dim().get(),
                    right: bank.dim().get(),
                });
            }
        }
        let total: usize = banks.iter().map(|bank| bank.n_rows()).sum();
        if rows.end > total && !rows.is_empty() {
            return Err(HdcError::InvalidConfig(format!(
                "banks of {total} rows hold no rows up to {}",
                rows.end
            )));
        }
        if rows.is_empty() || n_queries == 0 {
            return Ok(());
        }
        let has_pivots = request.pivots.pivots().n_rows() > 0;
        if has_pivots && rows.end > request.pivots.n_rows() {
            return Err(HdcError::InvalidConfig(format!(
                "a pivot table over {} rows cannot bound rows up to {}",
                request.pivots.n_rows(),
                rows.end
            )));
        }
        // Without pivots or seeds every bound would be 0, which never
        // exceeds a limit, so the scan neither computes nor reads them.
        let seeded = request.seed_rows > 0 && self.k > 0;
        let bounded = has_pivots || seeded;
        let (window, group) = if bounded {
            let window = (KEPT_BOUNDS / n_queries).max(BOUND_BLOCK_ROWS);
            (window, (KEPT_BOUNDS / window).clamp(1, n_queries))
        } else {
            (rows.len(), n_queries)
        };
        let kept_len = |queries: usize, rows: usize| if bounded { queries * rows } else { 0 };
        let mut pass = Pass {
            kept: vec![0; kept_len(group, window.min(rows.len()))],
            limits: vec![usize::MAX; group],
            sample: Vec::new(),
            skipped: 0,
            abandoned: 0,
            seeded: 0,
        };
        for first in (0..n_queries).step_by(group) {
            let group = first..(first + group).min(n_queries);
            for start in rows.clone().step_by(window) {
                let window = start..(start + window).min(rows.end);
                let kept = &mut pass.kept[..kept_len(group.len(), window.len())];
                for (q, bounds) in group.clone().zip(kept.chunks_exact_mut(window.len())) {
                    request
                        .pivots
                        .lower_bounds(request.to_pivots(q), window.clone(), bounds);
                    if seeded {
                        pass.seeded +=
                            self.seed(request, q, banks, window.clone(), bounds, &mut pass.sample);
                    }
                }
                self.main_pass(request, group.clone(), banks, window, &key, &mut pass);
            }
        }
        obs::counter_add("hdc/knn_pairs", (rows.len() * n_queries) as u64);
        obs::counter_add("hdc/knn_pairs_skipped", pass.skipped);
        obs::counter_add("hdc/knn_pairs_abandoned", pass.abandoned);
        obs::counter_add("hdc/knn_pairs_seeded", pass.seeded);
        Ok(())
    }

    /// Reads query `q`'s seed rows of `window` and lowers its ceiling to
    /// the k-th smallest of their distances; returns the rows read.
    /// `bounds` are the window's pivot bounds for `q`, and `sample` a
    /// buffer for every [`SEED_SAMPLE_STRIDE`]-th of them. The seeds are
    /// the first rows, at most `request.seed_rows`, whose bound is at most
    /// the sample's k-th smallest. When that cut is not below the query's
    /// limit, or the sample holds fewer than k bounds, the window seeds
    /// nothing: its seeds would be rows the main pass reads anyway. Each
    /// seed is read only as far as it could still lower the ceiling.
    fn seed(
        &self,
        request: &ScanRequest<'_>,
        q: usize,
        banks: &[&BitMatrix],
        window: Range<usize>,
        bounds: &[u16],
        sample: &mut Vec<u16>,
    ) -> u64 {
        let k = self.k;
        sample.clear();
        sample.extend(bounds.iter().step_by(SEED_SAMPLE_STRIDE));
        if sample.len() < k {
            return 0;
        }
        let cut = usize::from(*sample.select_nth_unstable(k - 1).1);
        let limit = request.lower_ceiling(q, self.bound(q));
        if cut >= limit {
            return 0;
        }
        let query = request.queries.row_words(q);
        // The k smallest seed distances so far, ascending.
        let mut nearest: Vec<usize> = Vec::with_capacity(k + 1);
        let mut read = 0;
        let mut offset = 0;
        'blocks: for (_, bank, local) in bank_segments(banks, window) {
            for first in local.clone().step_by(BOUND_BLOCK_ROWS) {
                let len = (local.end - first).min(BOUND_BLOCK_ROWS);
                let mut seeds = at_most(&bounds[offset..][..len], cut);
                offset += len;
                while seeds != 0 {
                    if read == request.seed_rows {
                        break 'blocks;
                    }
                    read += 1;
                    let row = first + seeds.trailing_zeros() as usize;
                    seeds &= seeds - 1;
                    let within = if nearest.len() == k {
                        nearest[k - 1]
                    } else {
                        limit
                    };
                    if let Some(d) = hamming_within(query, bank.row_words(row), within) {
                        let at = nearest.partition_point(|&near| near <= d);
                        nearest.insert(at, d);
                        nearest.truncate(k);
                    }
                }
            }
        }
        if nearest.len() == k {
            request.lower_ceiling(q, nearest[k - 1]);
        }
        read as u64
    }

    /// Reads the rows of `window` against the queries of `group` in blocks
    /// of [`BOUND_BLOCK_ROWS`] rows of one bank. At each block the limits
    /// are refreshed from the ceilings; then, query by query, a mask picks
    /// the rows whose kept bound is at most the query's limit, and those
    /// rows are read in order, each skipped if the limit has since fallen
    /// below its bound, abandoned if its distance passes the limit, and
    /// offered otherwise. A block's rows stay in cache across its queries.
    fn main_pass(
        &mut self,
        request: &ScanRequest<'_>,
        group: Range<usize>,
        banks: &[&BitMatrix],
        window: Range<usize>,
        key: &impl Fn(usize, usize) -> K,
        pass: &mut Pass,
    ) {
        if pass.kept.is_empty() {
            self.unbounded_pass(request, group, banks, window, key, pass);
            return;
        }
        let queries = request.queries;
        let stride = window.len();
        let Pass {
            kept,
            limits,
            skipped,
            abandoned,
            ..
        } = pass;
        let kept = &kept[..group.len() * stride];
        let limits = &mut limits[..group.len()];
        // The window index of the block's first row.
        let mut at = 0;
        for (b, bank, local) in bank_segments(banks, window) {
            for first in local.clone().step_by(BOUND_BLOCK_ROWS) {
                let len = (local.end - first).min(BOUND_BLOCK_ROWS);
                for (limit, q) in limits.iter_mut().zip(group.clone()) {
                    *limit = request.lower_ceiling(q, self.bound(q));
                }
                for (g, q) in group.clone().enumerate() {
                    let bounds = &kept[g * stride + at..][..len];
                    let mut picked = at_most(bounds, limits[g]);
                    *skipped += u64::from(u32::try_from(len).unwrap_or(0) - picked.count_ones());
                    let query = queries.row_words(q);
                    while picked != 0 {
                        let j = picked.trailing_zeros() as usize;
                        picked &= picked - 1;
                        let limit = limits[g];
                        if bounds
                            .get(j)
                            .is_some_and(|&bound| usize::from(bound) > limit)
                        {
                            *skipped += 1;
                            continue;
                        }
                        let row = first + j;
                        match hamming_within(query, bank.row_words(row), limit) {
                            Some(distance) => {
                                self.offer(q, distance, key(b, row));
                                limits[g] = limit.min(self.bound(q));
                            }
                            None => *abandoned += 1,
                        }
                    }
                }
                at += len;
            }
        }
    }

    /// The main pass of a scan that keeps no bounds (no pivots, no seeds):
    /// each row is loaded once and compared against every query of
    /// `group` while it is in cache, abandoned once its distance passes the
    /// query's list's k-th distance. Such a scan has no bound to pick rows
    /// by or to share, and taking its rows in masked blocks query by query
    /// made `serve_bench`'s 256-query predict at 2,048 bits, whose cohort
    /// chooses no pivots, 5–10% slower.
    fn unbounded_pass(
        &mut self,
        request: &ScanRequest<'_>,
        group: Range<usize>,
        banks: &[&BitMatrix],
        window: Range<usize>,
        key: &impl Fn(usize, usize) -> K,
        pass: &mut Pass,
    ) {
        let limits = &mut pass.limits[..group.len()];
        for (limit, q) in limits.iter_mut().zip(group.clone()) {
            *limit = self.bound(q);
        }
        for (b, bank, local) in bank_segments(banks, window) {
            for row in local {
                let words = bank.row_words(row);
                for (limit, q) in limits.iter_mut().zip(group.clone()) {
                    match hamming_within(request.queries.row_words(q), words, *limit) {
                        Some(distance) => {
                            self.offer(q, distance, key(b, row));
                            *limit = self.bound(q);
                        }
                        None => pass.abandoned += 1,
                    }
                }
            }
        }
    }
}

/// A mask of the bounds, at most [`BOUND_BLOCK_ROWS`], that are at most
/// `limit`: bit `i` for `bounds[i]`. It has no branch on the data, so it
/// costs the same whatever share of rows it keeps. Every bound is at most
/// `u16::MAX`, so a larger limit keeps them all.
fn at_most(bounds: &[u16], limit: usize) -> u64 {
    let cut = u16::try_from(limit).unwrap_or(u16::MAX);
    bounds
        .iter()
        .zip(0..BOUND_BLOCK_ROWS)
        .fold(0, |mask, (&bound, i)| mask | u64::from(bound <= cut) << i)
}
