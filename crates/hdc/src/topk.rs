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
//! [`TopK::scan`] has two exact rules for this. First, a
//! [`PivotTable`] bounds a query's distance to a row from below by the
//! triangle inequality, and the scan skips a row without reading a word
//! of it when that bound is strictly greater than the k-th distance.
//! Second, it reads every other row through [`hamming_within`] and stops
//! once the running distance is strictly greater. Under both rules a row
//! at exactly the k-th distance is read in full and offered, because its
//! key may win the tie, so the lists equal those of a full-distance scan
//! whatever the pivots or the key order. Leave-one-out's symmetric sweep
//! uses only the second rule, and drops a pair only when its running
//! distance passes the k-th distances of both rows' lists. With the `obs`
//! feature each scan or sweep adds the pairs it compared to
//! `hdc/knn_pairs`, those the pivot bound skipped to
//! `hdc/knn_pairs_skipped` and those it abandoned to
//! `hdc/knn_pairs_abandoned`.

use crate::bitmatrix::{hamming_within, BitMatrix, PivotTable};
use crate::error::HdcError;
use crate::obs;
use std::ops::Range;

/// Rows whose pivot bounds [`TopK::scan`] computes before it reads them.
/// Blocks of 64, 256 and 1,024 rows served 1,878, 1,835 and 1,939
/// records/s on perfbench's `query` bank (medians of three 10 s runs on a
/// 2-vCPU Xeon VM), within run-to-run noise; at 256 the bounds of a
/// 32-query request take 16 KB, inside a 48 KB L1 data cache.
const BOUND_BLOCK_ROWS: usize = 256;

/// Per-list bounded top-k of `(distance, key)` candidates.
#[derive(Debug, Clone)]
pub struct TopK<K> {
    k: usize,
    lens: Vec<usize>,
    slots: Vec<(usize, K)>,
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

    /// Offers every bank row in `rows` to every query: list `q` receives
    /// `(hamming(queries[q], bank[row]), key(row))` unless the row cannot
    /// enter it. The rows go in blocks of 256: first each query's
    /// [`PivotTable`] bounds for the block, in one pass per pivot, then
    /// each row of the block, loaded once and compared against every
    /// query while it is in cache. A pair is skipped unread when its bound
    /// is strictly greater than list `q`'s k-th distance, and a comparison
    /// stops once the distance passes it.
    ///
    /// `pivots` must be a table over `bank` (or one with no pivots) that
    /// covers the rows scanned. Returns [`HdcError::DimensionMismatch`]
    /// when the queries, the bank and the pivots differ in width, and
    /// [`HdcError::InvalidConfig`] when a table with pivots does not cover
    /// `rows`.
    pub fn scan(
        &mut self,
        queries: &BitMatrix,
        bank: &BitMatrix,
        pivots: &PivotTable,
        rows: Range<usize>,
        key: impl Fn(usize) -> K,
    ) -> Result<(), HdcError> {
        for other in [queries.dim(), pivots.pivots().dim()] {
            if other != bank.dim() {
                return Err(HdcError::DimensionMismatch {
                    left: other.get(),
                    right: bank.dim().get(),
                });
            }
        }
        if rows.is_empty() {
            return Ok(());
        }
        let has_pivots = pivots.pivots().n_rows() > 0;
        if has_pivots && rows.end > pivots.n_rows() {
            return Err(HdcError::InvalidConfig(format!(
                "a pivot table over {} rows cannot bound rows up to {}",
                pivots.n_rows(),
                rows.end
            )));
        }
        let n_queries = queries.n_rows();
        let to_pivots: Vec<Vec<u16>> = (0..n_queries)
            .map(|q| pivots.query_distances(queries.row_words(q)))
            .collect();
        // The current block's bounds, `BOUND_BLOCK_ROWS` per query. Without
        // pivots every bound is 0, which never exceeds a k-th distance, so
        // the scan neither fills nor reads them.
        let mut lower = if has_pivots {
            vec![0u16; n_queries * BOUND_BLOCK_ROWS]
        } else {
            Vec::new()
        };
        let pairs = rows.len() * n_queries;
        let (mut skipped, mut abandoned) = (0u64, 0u64);
        for start in rows.clone().step_by(BOUND_BLOCK_ROWS) {
            let block = start..(start + BOUND_BLOCK_ROWS).min(rows.end);
            for (bounds, to_pivot) in lower.chunks_exact_mut(BOUND_BLOCK_ROWS).zip(&to_pivots) {
                pivots.lower_bounds(to_pivot, block.clone(), &mut bounds[..block.len()]);
            }
            for (i, row) in block.enumerate() {
                let words = bank.row_words(row);
                let key = key(row);
                for q in 0..n_queries {
                    let bound = self.bound(q);
                    if has_pivots && usize::from(lower[q * BOUND_BLOCK_ROWS + i]) > bound {
                        skipped += 1;
                        continue;
                    }
                    match hamming_within(queries.row_words(q), words, bound) {
                        Some(distance) => self.offer(q, distance, key),
                        None => abandoned += 1,
                    }
                }
            }
        }
        obs::counter_add("hdc/knn_pairs", pairs as u64);
        obs::counter_add("hdc/knn_pairs_skipped", skipped);
        obs::counter_add("hdc/knn_pairs_abandoned", abandoned);
        Ok(())
    }
}
