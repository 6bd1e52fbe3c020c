//! Pruned linear encoding: a [`LinearEncoder`] remapped into a distilled
//! bit space, so new records encode directly at the pruned dimensionality
//! without a full-width detour.
//!
//! # Remap semantics
//!
//! A [`BitSelection`] keeps `k` of the original `d` bit positions. The
//! pruned encoder gathers the seed hypervector once at construction and
//! rewrites the flip schedule: every surviving flip keeps its *original
//! pair rank* `h` (its position in the nested flip order) but moves to its
//! *new packed position*. Encoding a value still computes the flip count
//! from the **original** dimensionality — `x = d·(t − min)/(2·(max − min))`
//! — so the value→rank schedule is untouched and the guarantee
//!
//! ```text
//! pruned.encode(t) == selection.gather(original.encode(t))    (bit-exact)
//! ```
//!
//! holds for every value: a flip with rank `h < flips_for(t)/2` fires in
//! the original iff it fires here, and gathering commutes with XOR.
//! Because majority bundling is per-bit, the same identity lifts to whole
//! records: encoding through a pruned [`RecordEncoder`] equals gathering
//! the full-width record hypervector.
//!
//! [`RecordEncoder`]: crate::encoding::RecordEncoder

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim, WORD_BITS};
use crate::distill::BitSelection;
use crate::encoding::linear::CHECKPOINT_STRIDE;
use crate::encoding::LinearEncoder;
use crate::error::HdcError;

/// A [`LinearEncoder`] remapped onto a pruned bit space.
#[derive(Debug, Clone)]
pub struct PrunedLinearEncoder {
    /// Pruned (output) dimensionality.
    dim: Dim,
    /// Original dimensionality — still drives the flip-count schedule.
    from: Dim,
    min: f64,
    max: f64,
    /// Flip-pair cap of the original encoder (shorter flip-list length).
    cap: usize,
    /// Gathered seed hypervector.
    seed: BinaryHypervector,
    /// Surviving flips as `(original pair rank, new bit position)`, sorted
    /// by rank (each rank contributes 0–2 entries: its ones-flip and/or
    /// zeros-flip may survive independently).
    flips: Vec<(u32, u32)>,
    /// Flattened cumulative flip masks over the *retained* flip list, one
    /// `dim.words()`-sized mask per [`CHECKPOINT_STRIDE`] entries.
    checkpoints: Vec<u64>,
}

impl PrunedLinearEncoder {
    /// Remaps `encoder` onto the bits retained by `selection`.
    ///
    /// The selection's source dimensionality must match the encoder's.
    pub fn new(encoder: &LinearEncoder, selection: &BitSelection) -> Result<Self, HdcError> {
        if selection.source_dim() != encoder.dim() {
            return Err(HdcError::DimensionMismatch {
                left: encoder.dim().get(),
                right: selection.source_dim().get(),
            });
        }
        let seed = selection.gather_hypervector(encoder.seed_hypervector())?;
        let (ones, zeros) = encoder.flip_order();
        let cap = ones.len().min(zeros.len());
        let mut flips = Vec::new();
        for h in 0..cap {
            // lint: index-ok (h < cap ≤ both list lengths)
            for &bit in &[ones[h], zeros[h]] {
                if let Some(p) = selection.position_of(bit) {
                    // lint: cast-ok (pair ranks and packed positions both
                    // fit u32 — dims are u32-indexable here)
                    flips.push((h as u32, p as u32));
                }
            }
        }
        let dim = selection.dim();
        let checkpoints = build_pruned_checkpoints(dim, &flips);
        let (min, max) = encoder.range();
        Ok(Self {
            dim,
            from: encoder.dim(),
            min,
            max,
            cap,
            seed,
            flips,
            checkpoints,
        })
    }

    /// The pruned (output) dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The original (pre-pruning) dimensionality.
    #[must_use]
    pub fn source_dim(&self) -> Dim {
        self.from
    }

    /// The encoder's value range.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// Number of original flip pairs applied for value `t` — identical to
    /// [`LinearEncoder::flips_for`] of the source encoder divided by two,
    /// because the schedule is computed from the *original*
    /// dimensionality.
    #[must_use]
    pub fn flip_pairs_for(&self, t: f64) -> usize {
        // lint: cast-ok (dim < 2^53 exactly in f64; x is clamped into
        // [0, dim/2] so the rounded usize cast cannot wrap)
        let t = t.clamp(self.min, self.max);
        let k = self.from.get() as f64;
        let x = k * (t - self.min) / (2.0 * (self.max - self.min));
        let half = (x / 2.0).round() as usize;
        half.min(self.cap)
    }

    /// Encodes value `t`, clamping it into the encoder's range.
    #[must_use]
    pub fn encode(&self, t: f64) -> BinaryHypervector {
        let mut hv = BinaryHypervector::zeros(self.dim);
        self.encode_into(t, &mut hv);
        hv
    }

    /// Encodes value `t` into an existing hypervector, overwriting it.
    ///
    /// # Panics
    /// Panics if `out.dim() != self.dim()`.
    // lint: index-ok (build_pruned_checkpoints emits one words-sized mask
    // per stride boundary covering ck; n_apply ≤ flips.len())
    pub fn encode_into(&self, t: f64, out: &mut BinaryHypervector) {
        assert_eq!(
            out.dim(),
            self.dim,
            "encode_into scratch dimensionality mismatch"
        );
        crate::obs::counter_add("hdc/pruned_encodes", 1);
        let half = self.flip_pairs_for(t);
        // lint: cast-ok (ranks fit u32 by construction)
        let n_apply = self
            .flips
            .partition_point(|&(rank, _)| (rank as usize) < half);
        let ck = n_apply / CHECKPOINT_STRIDE;
        let words = self.dim.words();
        let mask = &self.checkpoints[ck * words..(ck + 1) * words];
        for ((o, &s), &m) in out.words_mut().iter_mut().zip(self.seed.words()).zip(mask) {
            *o = s ^ m;
        }
        for &(_, p) in &self.flips[ck * CHECKPOINT_STRIDE..n_apply] {
            out.flip(p as usize);
        }
        debug_assert_tail_invariant(self.dim, out.words());
    }

    /// Like [`Self::encode`], but rejects NaN/infinite inputs instead of
    /// clamping them.
    pub fn encode_checked(&self, t: f64) -> Result<BinaryHypervector, HdcError> {
        if !t.is_finite() {
            return Err(HdcError::NonFiniteValue);
        }
        Ok(self.encode(t))
    }

    /// Fallible variant of [`Self::encode_into`].
    pub fn encode_checked_into(&self, t: f64, out: &mut BinaryHypervector) -> Result<(), HdcError> {
        if !t.is_finite() {
            return Err(HdcError::NonFiniteValue);
        }
        self.encode_into(t, out);
        Ok(())
    }

    /// Prunes this encoder further: the new selection addresses the
    /// *current* pruned space, and the composed encoder is equivalent to
    /// pruning the original encoder with the composed selection.
    pub fn prune(&self, selection: &BitSelection) -> Result<Self, HdcError> {
        if selection.source_dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: selection.source_dim().get(),
            });
        }
        let seed = selection.gather_hypervector(&self.seed)?;
        let flips: Vec<(u32, u32)> = self
            .flips
            .iter()
            .filter_map(|&(rank, p)| {
                selection
                    .position_of(p)
                    // lint: cast-ok (packed positions fit u32)
                    .map(|new_p| (rank, new_p as u32))
            })
            .collect();
        let dim = selection.dim();
        let checkpoints = build_pruned_checkpoints(dim, &flips);
        Ok(Self {
            dim,
            from: self.from,
            min: self.min,
            max: self.max,
            cap: self.cap,
            seed,
            flips,
            checkpoints,
        })
    }
}

/// Cumulative flip masks over the retained flip list: snapshot `c` covers
/// the first `c·CHECKPOINT_STRIDE` entries.
// lint: index-ok (packed positions are < dim by BitSelection, so
// p / WORD_BITS < words)
fn build_pruned_checkpoints(dim: Dim, flips: &[(u32, u32)]) -> Vec<u64> {
    let words = dim.words();
    let mut checkpoints = Vec::with_capacity((flips.len() / CHECKPOINT_STRIDE + 1) * words);
    let mut mask = vec![0u64; words];
    for n in 0..=flips.len() {
        if n % CHECKPOINT_STRIDE == 0 {
            checkpoints.extend_from_slice(&mask);
        }
        if n < flips.len() {
            let p = flips[n].1 as usize;
            mask[p / WORD_BITS] ^= 1u64 << (p % WORD_BITS);
        }
    }
    checkpoints
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(d: usize, k: usize, seed: u64) -> (LinearEncoder, BitSelection, PrunedLinearEncoder) {
        let enc = LinearEncoder::new(Dim::new(d), 0.0, 100.0, seed).unwrap();
        let sel = BitSelection::random(Dim::new(d), k, seed ^ 0x5E1E_C0DE).unwrap();
        let pruned = PrunedLinearEncoder::new(&enc, &sel).unwrap();
        (enc, sel, pruned)
    }

    #[test]
    fn pruned_encode_equals_gather_of_full_encode() {
        for (d, k) in [(1_000, 200), (10_050, 2_000), (130, 129), (64, 1)] {
            let (enc, sel, pruned) = setup(d, k, 42);
            for t in [
                0.0, 0.01, 13.7, 49.999, 50.0, 63.0, 64.0, 99.0, 100.0, 250.0, -5.0,
            ] {
                let expected = sel.gather_hypervector(&enc.encode(t)).unwrap();
                assert_eq!(pruned.encode(t), expected, "d={d} k={k} t={t}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let enc = LinearEncoder::new(Dim::new(256), 0.0, 1.0, 1).unwrap();
        let sel = BitSelection::random(Dim::new(128), 10, 0).unwrap();
        assert!(PrunedLinearEncoder::new(&enc, &sel).is_err());
    }

    #[test]
    fn schedule_follows_the_original_dimensionality() {
        let (enc, _, pruned) = setup(1_000, 100, 9);
        for t in [0.0, 10.0, 55.5, 100.0] {
            assert_eq!(pruned.flip_pairs_for(t), enc.flips_for(t) / 2, "t={t}");
        }
        assert_eq!(pruned.dim().get(), 100);
        assert_eq!(pruned.source_dim().get(), 1_000);
        assert_eq!(pruned.range(), (0.0, 100.0));
    }

    #[test]
    fn checked_variants_reject_non_finite() {
        let (_, _, pruned) = setup(512, 64, 3);
        assert!(pruned.encode_checked(f64::NAN).is_err());
        let mut scratch = BinaryHypervector::zeros(pruned.dim());
        assert!(pruned
            .encode_checked_into(f64::INFINITY, &mut scratch)
            .is_err());
        pruned.encode_checked_into(42.0, &mut scratch).unwrap();
        assert_eq!(scratch, pruned.encode(42.0));
    }

    #[test]
    fn double_prune_equals_composed_selection() {
        let (enc, outer, pruned) = setup(2_000, 500, 77);
        let inner = BitSelection::random(Dim::new(500), 120, 5).unwrap();
        let twice = pruned.prune(&inner).unwrap();
        let composed_indices: Vec<u32> = inner
            .indices()
            .iter()
            .map(|&p| outer.indices()[p as usize])
            .collect();
        let composed = BitSelection::new(Dim::new(2_000), composed_indices).unwrap();
        let direct = PrunedLinearEncoder::new(&enc, &composed).unwrap();
        for t in [0.0, 33.0, 66.6, 100.0] {
            assert_eq!(twice.encode(t), direct.encode(t), "t={t}");
        }
    }

    #[test]
    fn residual_flips_cross_checkpoint_boundaries() {
        // A dense selection retains ~2 entries per pair rank, so the
        // 64-entry checkpoint stride lands mid-rank; sweep values whose
        // retained-flip counts straddle the boundary.
        let (enc, sel, pruned) = setup(1_000, 990, 13);
        let step = 100.0 / 1_000.0;
        for j in 0..200 {
            let t = j as f64 * step * 5.0;
            let expected = sel.gather_hypervector(&enc.encode(t)).unwrap();
            assert_eq!(pruned.encode(t), expected, "t={t}");
        }
    }
}
