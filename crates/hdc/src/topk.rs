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

use crate::bitmatrix::{hamming_words, BitMatrix};
use crate::error::HdcError;
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
    /// loaded once and compared against every query while it is in cache.
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
        for row in rows {
            let words = bank.row_words(row);
            let key = key(row);
            for q in 0..queries.n_rows() {
                self.offer(q, hamming_words(queries.row_words(q), words), key);
            }
        }
        Ok(())
    }
}
