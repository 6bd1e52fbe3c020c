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
//! k-nearest sweep need not finish a distance that has passed it:
//! [`TopK::scan`] reads each row through [`hamming_within`] and stops once
//! the running distance is strictly greater. A row at exactly the k-th
//! distance is read in full and offered, because its key may win the tie,
//! so the lists equal those of a full-distance scan whatever the key
//! order. Leave-one-out's symmetric sweep drops a pair only when its
//! running distance passes the k-th distances of both rows' lists. With
//! the `obs` feature each scan or sweep adds the pairs it compared to
//! `hdc/knn_pairs` and those it abandoned to `hdc/knn_pairs_abandoned`.

use crate::bitmatrix::{hamming_within, BitMatrix};
use crate::error::HdcError;
use crate::obs;
use std::ops::Range;

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
    /// `(hamming(queries[q], bank[row]), key(row))`. Each bank row is
    /// loaded once and compared against every query while it is in cache,
    /// and a comparison stops once the distance passes list `q`'s k-th
    /// distance, since such a row cannot enter the list.
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the queries and the bank
    /// differ in width.
    pub fn scan(
        &mut self,
        queries: &BitMatrix,
        bank: &BitMatrix,
        rows: Range<usize>,
        key: impl Fn(usize) -> K,
    ) -> Result<(), HdcError> {
        if queries.dim() != bank.dim() {
            return Err(HdcError::DimensionMismatch {
                left: queries.dim().get(),
                right: bank.dim().get(),
            });
        }
        let pairs = rows.len() * queries.n_rows();
        let mut abandoned = 0u64;
        for row in rows {
            let words = bank.row_words(row);
            let key = key(row);
            for q in 0..queries.n_rows() {
                match hamming_within(queries.row_words(q), words, self.bound(q)) {
                    Some(distance) => self.offer(q, distance, key),
                    None => abandoned += 1,
                }
            }
        }
        obs::counter_add("hdc/knn_pairs", pairs as u64);
        obs::counter_add("hdc/knn_pairs_abandoned", abandoned);
        Ok(())
    }
}
