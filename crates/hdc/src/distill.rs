//! Dimension distillation: rank bit positions by class discrimination and
//! prune hypervectors to the top-k serving bits.
//!
//! The paper encodes at 10,000 bits, but predict cost is linear in
//! dimensionality and most bits of a majority-bundled record carry little
//! class signal. This module selects the `k` most discriminative bit
//! positions from trained [`ClassAccumulators`] state and re-packs
//! hypervectors, [`BitMatrix`] banks and encoders into a dense `k`-bit
//! space:
//!
//! * [`discrimination_scores`] — per-bit margin `Σ_c w_c·|p_{c,i} − p_i|`
//!   computed from the accumulators' set-counts (no extra passes over the
//!   data).
//! * [`BitSelection`] — a validated ascending index set with word-level
//!   column-gather kernels for hypervectors and bit matrices.
//!
//! Gathered outputs preserve the tail-word invariant by construction: bits
//! are emitted densely from position 0, so the final word of a gathered
//! vector only ever holds bits below the pruned dimensionality.

use crate::binary::{BinaryHypervector, Dim, WORD_BITS};
use crate::bitmatrix::BitMatrix;
use crate::classify::ClassAccumulators;
use crate::error::HdcError;
use crate::rng::SplitMix64;

/// An ordered selection of bit positions out of a source dimensionality.
///
/// Invariants (enforced at construction): indices are strictly ascending,
/// unique, non-empty and all below the source dimensionality. Ascending
/// order makes the gather kernel a forward scan of the source words and
/// keeps selections canonical — two selections are equal iff they retain
/// the same bits.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BitSelection {
    from: Dim,
    indices: Vec<u32>,
}

impl BitSelection {
    /// Creates a selection from explicit bit positions.
    ///
    /// `indices` must be non-empty, strictly ascending and all `< from`.
    pub fn new(from: Dim, indices: Vec<u32>) -> Result<Self, HdcError> {
        if indices.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        for pair in indices.windows(2) {
            if pair[0] >= pair[1] {
                return Err(HdcError::InvalidConfig(format!(
                    "bit selection must be strictly ascending: {} then {}",
                    pair[0], pair[1]
                )));
            }
        }
        // lint: index-ok (non-empty checked above)
        let last = indices[indices.len() - 1];
        // lint: cast-ok (u32 bit index widening to usize)
        if last as usize >= from.get() {
            return Err(HdcError::InvalidConfig(format!(
                "bit index {last} out of range for source dimensionality {from}"
            )));
        }
        Ok(Self { from, indices })
    }

    /// Selects the `k` highest-scoring bit positions.
    ///
    /// `scores` must have one entry per source bit. Ties break toward the
    /// lower bit index so equal-scoring runs produce a deterministic
    /// selection; non-finite scores are rejected.
    pub fn top_k(from: Dim, scores: &[f64], k: usize) -> Result<Self, HdcError> {
        if scores.len() != from.get() {
            return Err(HdcError::DimensionMismatch {
                left: from.get(),
                right: scores.len(),
            });
        }
        if k == 0 || k > from.get() {
            return Err(HdcError::InvalidConfig(format!(
                "top-k selection needs 1 ≤ k ≤ {from}, got {k}"
            )));
        }
        if scores.iter().any(|s| !s.is_finite()) {
            return Err(HdcError::NonFiniteValue);
        }
        // lint: cast-ok (bit indices fit u32 — dims are u32-indexable here)
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        // lint: index-ok (order holds indices 0..scores.len(); k ≤ len checked)
        // Sort by descending score, ascending index on ties; total because
        // non-finite scores were rejected above.
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut indices: Vec<u32> = order[..k].to_vec();
        indices.sort_unstable();
        Self::new(from, indices)
    }

    /// Selects `k` uniformly random bit positions (the control arm of the
    /// ranked-vs-random Pareto comparison). Deterministic per seed.
    pub fn random(from: Dim, k: usize, seed: u64) -> Result<Self, HdcError> {
        if k == 0 || k > from.get() {
            return Err(HdcError::InvalidConfig(format!(
                "random selection needs 1 ≤ k ≤ {from}, got {k}"
            )));
        }
        // lint: cast-ok (bit indices fit u32 — dims are u32-indexable here)
        let mut all: Vec<u32> = (0..from.get() as u32).collect();
        let mut rng = SplitMix64::new(seed).derive(0xD157, 0);
        rng.shuffle(&mut all);
        all.truncate(k);
        all.sort_unstable();
        Self::new(from, all)
    }

    /// The full-width identity selection (retains every bit, in order).
    #[must_use]
    pub fn identity(from: Dim) -> Self {
        // lint: cast-ok (bit indices fit u32 — dims are u32-indexable here)
        Self {
            from,
            indices: (0..from.get() as u32).collect(),
        }
    }

    /// The source (unpruned) dimensionality.
    #[must_use]
    pub fn source_dim(&self) -> Dim {
        self.from
    }

    /// The pruned (output) dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        Dim::new(self.indices.len())
    }

    /// Number of retained bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Always `false` — selections are non-empty by construction. Provided
    /// for the conventional `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The retained source bit positions, ascending.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The new (pruned-space) position of source bit `i`, if retained.
    #[must_use]
    pub fn position_of(&self, i: u32) -> Option<usize> {
        self.indices.binary_search(&i).ok()
    }

    /// Word-level column gather: packs the selected bits of `src` (a
    /// `source_dim`-sized word slice) densely into `dst` (a `dim()`-sized
    /// word slice). Output bit `p` is source bit `indices[p]`.
    ///
    /// `dst` words beyond the pruned tail are fully overwritten, so the
    /// tail invariant holds on exit regardless of `dst`'s prior contents.
    // lint: tail-ok (dense emission from bit 0: the final chunk is partial,
    // leaving the tail bits of the last word zero by construction)
    fn gather_words(&self, src: &[u64], dst: &mut [u64]) {
        debug_assert_eq!(src.len(), self.from.words());
        debug_assert_eq!(dst.len(), self.dim().words());
        for (w, chunk) in self.indices.chunks(WORD_BITS).enumerate() {
            let mut word = 0u64;
            for (b, &i) in chunk.iter().enumerate() {
                // lint: cast-ok (u32 bit index widening to usize)
                let i = i as usize;
                // lint: index-ok (indices < from by the constructor, so
                // i / 64 < from.words() == src.len())
                let bit = (src[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
                word |= bit << b;
            }
            // lint: index-ok (chunks(64) over dim() bits yields exactly
            // dim().words() chunks)
            dst[w] = word;
        }
    }

    /// Gathers the selected bits of one hypervector into a fresh
    /// `dim()`-bit hypervector.
    // lint: tail-ok (gather_words overwrites every output word and leaves
    // the tail clean by construction)
    pub fn gather_hypervector(
        &self,
        hv: &BinaryHypervector,
    ) -> Result<BinaryHypervector, HdcError> {
        if hv.dim() != self.from {
            return Err(HdcError::DimensionMismatch {
                left: self.from.get(),
                right: hv.dim().get(),
            });
        }
        let mut out = BinaryHypervector::zeros(self.dim());
        self.gather_words(hv.words(), out.words_mut());
        Ok(out)
    }

    /// Gathers the selected columns of a [`BitMatrix`] into a fresh pruned
    /// matrix with the same row count.
    pub fn gather_matrix(&self, m: &BitMatrix) -> Result<BitMatrix, HdcError> {
        if m.dim() != self.from {
            return Err(HdcError::DimensionMismatch {
                left: self.from.get(),
                right: m.dim().get(),
            });
        }
        let out_dim = self.dim();
        let words_per_row = out_dim.words();
        let mut words = vec![0u64; m.n_rows() * words_per_row];
        for (r, dst) in words.chunks_mut(words_per_row).enumerate() {
            self.gather_words(m.row_words(r), dst);
        }
        BitMatrix::from_words(m.n_rows(), out_dim, words)
    }
}

/// Per-bit class-discrimination margin from trained accumulator state.
///
/// With `p_{c,i} = ones[c][i] / totals[c]` (the fraction of class `c`'s
/// weight whose hypervectors set bit `i`) and the class-prior mixture
/// `p_i = Σ_c totals[c]·p_{c,i} / Σ_c totals[c]`, the score is the
/// prior-weighted margin
///
/// ```text
/// score_i = Σ_c (totals[c] / total) · |p_{c,i} − p_i|
/// ```
///
/// A bit whose set-probability is identical across classes scores 0 (it
/// can never move a Hamming comparison between class prototypes); a bit
/// that perfectly splits the classes scores the prior-balance bound. The
/// scores are computed purely from the accumulators — no pass over the
/// training hypervectors is needed.
///
/// Requires at least two classes with positive total weight; classes with
/// non-positive totals (fully decayed or subtracted away) are skipped.
pub fn discrimination_scores(acc: &ClassAccumulators) -> Result<Vec<f64>, HdcError> {
    let dim = acc.dim().get();
    let (ones, totals) = acc.parts();
    let live: Vec<usize> = (0..totals.len()).filter(|&c| totals[c] > 0).collect();
    if live.len() < 2 {
        return Err(HdcError::InvalidConfig(format!(
            "discrimination scores need ≥ 2 classes with positive weight, found {}",
            live.len()
        )));
    }
    let total: f64 = live.iter().map(|&c| f64::from(totals[c])).sum();
    let mut scores = vec![0.0f64; dim];
    // lint: index-ok (from_parts validates every ones[c] has dim entries)
    for i in 0..dim {
        let prior: f64 = live.iter().map(|&c| f64::from(ones[c][i])).sum::<f64>() / total;
        let mut margin = 0.0;
        for &c in &live {
            let weight = f64::from(totals[c]) / total;
            let p = f64::from(ones[c][i]) / f64::from(totals[c]);
            margin += weight * (p - prior).abs();
        }
        scores[i] = margin;
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv(dim: Dim, bits: &[usize]) -> BinaryHypervector {
        let mut v = BinaryHypervector::zeros(dim);
        for &b in bits {
            v.set(b, true);
        }
        v
    }

    #[test]
    fn construction_validates_indices() {
        let d = Dim::new(128);
        assert!(BitSelection::new(d, vec![]).is_err());
        assert!(BitSelection::new(d, vec![3, 3]).is_err());
        assert!(BitSelection::new(d, vec![5, 4]).is_err());
        assert!(BitSelection::new(d, vec![0, 128]).is_err());
        let s = BitSelection::new(d, vec![0, 64, 127]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim().get(), 3);
        assert_eq!(s.source_dim(), d);
        assert!(!s.is_empty());
        assert_eq!(s.position_of(64), Some(1));
        assert_eq!(s.position_of(63), None);
    }

    #[test]
    fn top_k_orders_by_score_with_index_tiebreak() {
        let d = Dim::new(6);
        let scores = [0.1, 0.9, 0.5, 0.9, 0.0, 0.5];
        let s = BitSelection::top_k(d, &scores, 3).unwrap();
        // 0.9 at bits 1 and 3, then the 0.5 tie breaks to bit 2.
        assert_eq!(s.indices(), &[1, 2, 3]);
        assert!(BitSelection::top_k(d, &scores, 0).is_err());
        assert!(BitSelection::top_k(d, &scores, 7).is_err());
        assert!(BitSelection::top_k(d, &scores[..5], 2).is_err());
        assert!(BitSelection::top_k(d, &[0.0, f64::NAN, 0.0, 0.0, 0.0, 0.0], 2).is_err());
    }

    #[test]
    fn random_selection_is_deterministic_and_seed_sensitive() {
        let d = Dim::new(1_000);
        let a = BitSelection::random(d, 100, 7).unwrap();
        let b = BitSelection::random(d, 100, 7).unwrap();
        let c = BitSelection::random(d, 100, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        // Full-width random selection is the identity set.
        let full = BitSelection::random(d, 1_000, 3).unwrap();
        assert_eq!(full, BitSelection::identity(d));
    }

    #[test]
    fn gather_matches_per_bit_semantics() {
        let d = Dim::new(130);
        let src = hv(d, &[0, 63, 64, 65, 128, 129]);
        let s = BitSelection::new(d, vec![0, 1, 63, 65, 129]).unwrap();
        let out = s.gather_hypervector(&src).unwrap();
        assert_eq!(out.dim().get(), 5);
        let expected = [true, false, true, true, true];
        for (p, &want) in expected.iter().enumerate() {
            assert_eq!(out.get(p), want, "bit {p}");
        }
        assert!(out.tail_invariant_ok());
    }

    #[test]
    fn gather_dimension_mismatch_rejected() {
        let s = BitSelection::new(Dim::new(128), vec![1, 2]).unwrap();
        let wrong = BinaryHypervector::zeros(Dim::new(64));
        assert!(s.gather_hypervector(&wrong).is_err());
        let m = BitMatrix::zeros(3, Dim::new(64));
        assert!(s.gather_matrix(&m).is_err());
    }

    #[test]
    fn identity_gather_is_a_no_op() {
        let d = Dim::new(201);
        let mut rng = SplitMix64::new(5);
        let src = BinaryHypervector::random(d, &mut rng);
        let s = BitSelection::identity(d);
        assert_eq!(s.gather_hypervector(&src).unwrap(), src);
    }

    #[test]
    fn matrix_gather_matches_row_by_row_gather() {
        let d = Dim::new(140);
        let mut rng = SplitMix64::new(11);
        let rows: Vec<BinaryHypervector> = (0..5)
            .map(|_| BinaryHypervector::random(d, &mut rng))
            .collect();
        let m = BitMatrix::from_hypervectors(&rows).unwrap();
        let s = BitSelection::random(d, 70, 21).unwrap();
        let g = s.gather_matrix(&m).unwrap();
        assert_eq!(g.n_rows(), 5);
        assert_eq!(g.dim(), s.dim());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(g.row_hypervector(r), s.gather_hypervector(row).unwrap());
        }
    }

    #[test]
    fn discrimination_scores_rank_signal_bits_above_noise() {
        // Class 0 always sets bit 3, class 1 never does; bit 7 is always
        // set in both classes; bit 9 is never set.
        let d = Dim::new(64);
        let mut acc = ClassAccumulators::new(d);
        acc.grow(1);
        for _ in 0..10 {
            acc.add(0, &hv(d, &[3, 7]), 1);
            acc.add(1, &hv(d, &[7]), 1);
        }
        let scores = discrimination_scores(&acc).unwrap();
        assert!(scores[3] > 0.4, "separating bit scores high: {}", scores[3]);
        assert_eq!(scores[7], 0.0, "always-set bit carries no signal");
        assert_eq!(scores[9], 0.0, "never-set bit carries no signal");
        let top = BitSelection::top_k(d, &scores, 1).unwrap();
        assert_eq!(top.indices(), &[3]);
    }

    #[test]
    fn discrimination_scores_need_two_live_classes() {
        let d = Dim::new(32);
        let mut acc = ClassAccumulators::new(d);
        acc.grow(0);
        acc.add(0, &hv(d, &[1]), 1);
        assert!(discrimination_scores(&acc).is_err());
        let empty = ClassAccumulators::new(d);
        assert!(discrimination_scores(&empty).is_err());
    }
}
