//! Dense, bit-packed binary hypervectors.
//!
//! A [`BinaryHypervector`] stores `d` bits packed into `⌈d/64⌉` little-endian
//! `u64` words. All bulk operations (Hamming distance, XOR binding, majority
//! voting) work word-at-a-time so they compile down to `popcnt`-friendly
//! loops; per the Rust Performance Book guidance we keep the kernels small,
//! allocation-free and `#[inline]`.

use crate::error::HdcError;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// A validated non-zero hypervector dimensionality.
///
/// The paper uses 10,000 bits throughout (§II); [`Dim::PAPER`] is that value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Dim(usize);

impl Dim {
    /// The paper's dimensionality: 10,000 bits.
    pub const PAPER: Dim = Dim(crate::PAPER_DIM);

    /// Creates a dimensionality.
    ///
    /// # Panics
    /// Panics if `d == 0`; use [`Dim::try_new`] for a fallible version.
    #[must_use]
    pub fn new(d: usize) -> Self {
        Self::try_new(d).expect("dimensionality must be non-zero")
    }

    /// Fallible constructor.
    pub fn try_new(d: usize) -> Result<Self, HdcError> {
        if d == 0 {
            Err(HdcError::ZeroDimension)
        } else {
            Ok(Self(d))
        }
    }

    /// The number of bits.
    #[inline]
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }

    /// Number of `u64` words needed to store this many bits.
    #[inline]
    #[must_use]
    pub fn words(self) -> usize {
        self.0.div_ceil(WORD_BITS)
    }

    /// Mask selecting the valid bits of the final storage word.
    #[inline]
    #[must_use]
    pub fn tail_mask(self) -> u64 {
        let rem = self.0 % WORD_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Debug-build check of the packed-word tail invariant: bits at or above
/// `dim` in the final storage word must be zero. Every packed-word mutation
/// path calls this at exit; it compiles to nothing in release builds.
#[inline]
pub(crate) fn debug_assert_tail_invariant(dim: Dim, words: &[u64]) {
    if cfg!(debug_assertions) {
        if let Some(&last) = words.last() {
            debug_assert_eq!(
                last & !dim.tail_mask(),
                0,
                "tail invariant violated: bits at or above dim {dim} are set in the last word"
            );
        }
    }
}

/// A dense binary hypervector of fixed dimensionality.
///
/// Bit `i` lives at word `i / 64`, bit position `i % 64`. Bits beyond the
/// dimensionality (in the final word) are always zero — every constructor
/// and mutator maintains this invariant so that word-level popcounts are
/// exact.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinaryHypervector {
    dim: Dim,
    words: Box<[u64]>,
}

impl BinaryHypervector {
    /// The all-zeros hypervector.
    #[must_use]
    pub fn zeros(dim: Dim) -> Self {
        Self {
            dim,
            words: vec![0u64; dim.words()].into_boxed_slice(),
        }
    }

    /// The all-ones hypervector.
    #[must_use]
    pub fn ones(dim: Dim) -> Self {
        let mut words = vec![u64::MAX; dim.words()].into_boxed_slice();
        if let Some(last) = words.last_mut() {
            *last &= dim.tail_mask();
        }
        debug_assert_tail_invariant(dim, &words);
        Self { dim, words }
    }

    /// A uniformly random hypervector: each bit is 1 with probability 1/2.
    ///
    /// In 10,000 dimensions such vectors are quasi-orthogonal: the Hamming
    /// distance between two independent draws concentrates tightly around
    /// `d/2` (Kanerva 2009).
    #[must_use]
    pub fn random(dim: Dim, rng: &mut SplitMix64) -> Self {
        let mut words = vec![0u64; dim.words()].into_boxed_slice();
        for w in &mut words {
            *w = rng.next_u64();
        }
        if let Some(last) = words.last_mut() {
            *last &= dim.tail_mask();
        }
        debug_assert_tail_invariant(dim, &words);
        Self { dim, words }
    }

    /// A random *exactly balanced* hypervector containing `⌊d/2⌋` ones.
    ///
    /// This is the paper's "partially dense (has an equal amount of 1s and
    /// 0s)" seed vector (§II-B step 2). Exact balance matters for the level
    /// encoder: flipping `x` ones and `x` zeros keeps every level vector
    /// balanced, so no level is biased under majority bundling.
    #[must_use]
    // lint: index-ok (order holds d elements, so the d/2 slice is in range)
    pub fn random_balanced(dim: Dim, rng: &mut SplitMix64) -> Self {
        let d = dim.get();
        // lint: cast-ok (bit indices fit u32 — dimensionalities are
        // u32-indexable by construction throughout this crate)
        let mut order: Vec<u32> = (0..d as u32).collect();
        rng.shuffle(&mut order);
        let mut hv = Self::zeros(dim);
        for &i in &order[..d / 2] {
            hv.set(i as usize, true);
        }
        hv
    }

    /// Builds a hypervector from an iterator of booleans.
    ///
    /// Returns an error if the iterator yields a number of bits different
    /// from `dim`.
    pub fn from_bits<I: IntoIterator<Item = bool>>(dim: Dim, bits: I) -> Result<Self, HdcError> {
        let mut hv = Self::zeros(dim);
        let mut n = 0usize;
        for (i, b) in bits.into_iter().enumerate() {
            if i >= dim.get() {
                return Err(HdcError::DimensionMismatch {
                    left: dim.get(),
                    right: i + 1,
                });
            }
            if b {
                hv.set(i, true);
            }
            n = i + 1;
        }
        if n != dim.get() {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: n,
            });
        }
        Ok(hv)
    }

    /// Copies one packed row of a `BitMatrix`, whose rows have `dim`'s
    /// word count and clear tail bits by that type's invariant.
    pub(crate) fn from_packed_row(dim: Dim, words: &[u64]) -> Self {
        debug_assert_eq!(words.len(), dim.words());
        debug_assert_tail_invariant(dim, words);
        Self {
            dim,
            words: words.into(),
        }
    }

    /// The dimensionality.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of bits (same as `self.dim().get()`).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.dim.get()
    }

    /// Always false: hypervectors have non-zero dimensionality by
    /// construction.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The packed storage words (little-endian bit order within each word).
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable word access for crate-internal kernels. Callers must uphold
    /// the tail invariant: bits at or above `dim` stay zero.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Whether the packed-word tail invariant holds: every bit at or above
    /// `dim` in the final storage word is zero. Always true for vectors
    /// built through the public API; only deliberate corruption (the
    /// `fault-injection` feature) can break it.
    #[inline]
    #[must_use]
    pub fn tail_invariant_ok(&self) -> bool {
        self.words
            .last()
            .is_none_or(|&last| last & !self.dim.tail_mask() == 0)
    }

    /// Repairs a corrupted tail word by masking bits at or above `dim`,
    /// restoring the invariant word-level kernels rely on. Returns `true`
    /// if any stray bits were cleared. This is the recovery path a
    /// degradation-aware store runs after detecting storage faults with
    /// [`Self::tail_invariant_ok`].
    pub fn scrub_tail(&mut self) -> bool {
        let mask = self.dim.tail_mask();
        let mut cleared = false;
        if let Some(last) = self.words.last_mut() {
            cleared = *last & !mask != 0;
            *last &= mask;
        }
        debug_assert_tail_invariant(self.dim, &self.words);
        cleared
    }

    /// Raw mutable access to the packed storage words for fault injection.
    ///
    /// Unlike every other mutator, this deliberately does **not** enforce
    /// the tail invariant — a chaos harness uses it to model storage faults
    /// that corrupt bits at or above `dim`. Callers must restore the
    /// invariant with [`Self::scrub_tail`] before handing the vector back
    /// to word-level kernels.
    #[cfg(feature = "fault-injection")]
    // lint: tail-ok (fault-injection escape hatch: corrupting the tail is the point; scrub_tail restores it)
    // lint: gate-ok (raw word access exists to model storage faults; production builds must not expose it)
    pub fn raw_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    // lint: index-ok (the assert bounds i < d, so i / WORD_BITS < words())
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.dim.get(),
            "bit index {i} out of range {}",
            self.dim
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    // lint: index-ok (the assert bounds i < d, so i / WORD_BITS < words())
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.dim.get(),
            "bit index {i} out of range {}",
            self.dim
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
        debug_assert_tail_invariant(self.dim, &self.words);
    }

    /// Flips bit `i`.
    #[inline]
    // lint: index-ok (the assert bounds i < d, so i / WORD_BITS < words())
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.dim.get(),
            "bit index {i} out of range {}",
            self.dim
        );
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        debug_assert_tail_invariant(self.dim, &self.words);
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another hypervector: the number of differing
    /// bits. Returns [`HdcError::DimensionMismatch`] when the operands
    /// have different dimensionalities.
    ///
    /// (The panicking `hamming` wrapper this method used to back was
    /// deleted; callers that have already proven the dimensions equal can
    /// use [`crate::bitmatrix::hamming_words`] on the raw words instead.)
    pub fn try_hamming(&self, other: &Self) -> Result<usize, HdcError> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: other.dim.get(),
            });
        }
        Ok(self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// XOR binding: associates two hypervectors into a third that is
    /// quasi-orthogonal to both. Self-inverse: `a.bind(&b).bind(&b) == a`.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        assert_eq!(self.dim, other.dim, "hypervector dimension mismatch");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a ^ b)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            dim: self.dim,
            words,
        }
    }

    /// In-place XOR binding.
    pub fn bind_assign(&mut self, other: &Self) {
        assert_eq!(self.dim, other.dim, "hypervector dimension mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= b;
        }
        debug_assert_tail_invariant(self.dim, &self.words);
    }

    /// Bitwise complement (all bits flipped). The complement is at maximum
    /// Hamming distance `d`.
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut words = self
            .words
            .iter()
            .map(|w| !w)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        if let Some(last) = words.last_mut() {
            *last &= self.dim.tail_mask();
        }
        debug_assert_tail_invariant(self.dim, &words);
        Self {
            dim: self.dim,
            words,
        }
    }

    /// Cyclic rotation by `k` bit positions (the standard HDC permutation
    /// operation, used to encode sequence/position information).
    ///
    /// Computed word-at-a-time as `(x << k) | (x >> (d − k))` over the
    /// packed little-endian layout: each storage word contributes to at
    /// most two output words per shifted copy, and the final word is
    /// re-masked so the tail invariant (bits ≥ `d` are zero) carries the
    /// rotation across a non-multiple-of-64 boundary.
    #[must_use]
    pub fn permute(&self, k: usize) -> Self {
        let d = self.dim.get();
        let k = k % d;
        if k == 0 {
            return self.clone();
        }
        let mut out = Self::zeros(self.dim);
        or_shifted_left(&self.words, k, &mut out.words);
        or_shifted_right(&self.words, d - k, &mut out.words);
        if let Some(last) = out.words.last_mut() {
            *last &= self.dim.tail_mask();
        }
        debug_assert_tail_invariant(self.dim, &out.words);
        out
    }

    /// Inverse of [`Self::permute`].
    #[must_use]
    pub fn permute_inverse(&self, k: usize) -> Self {
        let d = self.dim.get();
        self.permute(d - (k % d))
    }

    /// Flips `count` currently-one bits and `count` currently-zero bits,
    /// chosen uniformly at random without replacement.
    ///
    /// This is the primitive behind both the level encoder (§II-B step 3)
    /// and the categorical encoder's orthogonal vector ("flipping an equal
    /// number of 1's and 0's chosen randomly"). Balanced flipping preserves
    /// the overall density of the vector.
    ///
    /// Returns an error if `count` exceeds the number of ones or zeros.
    pub fn flip_balanced(&self, count: usize, rng: &mut SplitMix64) -> Result<Self, HdcError> {
        // lint: cast-ok (bit indices fit u32 by the dimensionality bound;
        // the f64 casts feed an error payload where rounding is harmless)
        let ones: Vec<u32> = self
            .iter_bits()
            .enumerate()
            .filter(|&(_, b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        let zeros: Vec<u32> = self
            .iter_bits()
            .enumerate()
            .filter(|&(_, b)| !b)
            .map(|(i, _)| i as u32)
            .collect();
        if count > ones.len() || count > zeros.len() {
            return Err(HdcError::InvalidRange {
                min: count as f64,
                max: ones.len().min(zeros.len()) as f64,
            });
        }
        let mut out = self.clone();
        out.flip_balanced_in_place(&ones, &zeros, count, rng);
        Ok(out)
    }

    /// Internal helper used by encoders that pre-compute the one/zero index
    /// lists once and reuse them across levels.
    // lint: index-ok (the partial Fisher–Yates keeps i < n ≤ idx.len())
    pub(crate) fn flip_balanced_in_place(
        &mut self,
        ones: &[u32],
        zeros: &[u32],
        count: usize,
        rng: &mut SplitMix64,
    ) {
        // Partial Fisher–Yates over copies: we only need `count` samples
        // from each list.
        // lint: cast-ok (list lengths widen into u64 for the RNG bound,
        // and u32 bit indices widen into usize on supported targets)
        let pick = |pool: &[u32], n: usize, rng: &mut SplitMix64, out: &mut Vec<u32>| {
            let mut idx: Vec<u32> = pool.to_vec();
            for i in 0..n {
                let j = i + rng.next_bounded((idx.len() - i) as u64) as usize;
                idx.swap(i, j);
                out.push(idx[i]);
            }
        };
        let mut chosen = Vec::with_capacity(count * 2);
        pick(ones, count, rng, &mut chosen);
        pick(zeros, count, rng, &mut chosen);
        for &i in &chosen {
            self.flip(i as usize);
        }
        debug_assert_tail_invariant(self.dim, &self.words);
    }

    /// Iterates the bits from index 0 to `d-1`.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.dim.get()).map(move |i| self.get(i))
    }
}

/// ORs `src << shift` (a left shift over the packed little-endian bit
/// layout) into `dst`. Bits shifted past the end of `dst` are discarded;
/// the caller re-masks the tail word.
// lint: tail-ok (writes into a caller-owned scratch; permute re-masks the tail word afterwards)
// lint: index-ok (loop bounds are derived from src/dst lengths and the word shift)
fn or_shifted_left(src: &[u64], shift: usize, dst: &mut [u64]) {
    let ws = shift / WORD_BITS;
    let bs = shift % WORD_BITS;
    if bs == 0 {
        for i in ws..dst.len() {
            dst[i] |= src[i - ws];
        }
    } else {
        for i in ws..dst.len() {
            let lo = src[i - ws] << bs;
            let hi = if i > ws {
                src[i - ws - 1] >> (WORD_BITS - bs)
            } else {
                0
            };
            dst[i] |= lo | hi;
        }
    }
}

/// ORs `src >> shift` into `dst`. Relies on `src`'s tail invariant (bits
/// at or above the dimensionality are zero) so no stray bits shift in.
// lint: tail-ok (writes into a caller-owned scratch; permute re-masks the tail word afterwards)
// lint: index-ok (loop bounds are derived from src/dst lengths and the word shift)
fn or_shifted_right(src: &[u64], shift: usize, dst: &mut [u64]) {
    let ws = shift / WORD_BITS;
    let bs = shift % WORD_BITS;
    let n = src.len();
    if ws >= n {
        return;
    }
    if bs == 0 {
        for i in 0..n - ws {
            dst[i] |= src[i + ws];
        }
    } else {
        for i in 0..n - ws {
            let lo = src[i + ws] >> bs;
            let hi = if i + ws + 1 < n {
                src[i + ws + 1] << (WORD_BITS - bs)
            } else {
                0
            };
            dst[i] |= lo | hi;
        }
    }
}

impl fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hypervectors are huge; show dimensionality, density and a prefix.
        let prefix: String = self
            .iter_bits()
            .take(32)
            .map(|b| if b { '1' } else { '0' })
            .collect();
        write!(
            f,
            "BinaryHypervector {{ dim: {}, ones: {}, bits: {}… }}",
            self.dim,
            self.count_ones(),
            prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xDEAD_BEEF)
    }

    #[test]
    fn dim_words_and_tail_mask() {
        assert_eq!(Dim::new(64).words(), 1);
        assert_eq!(Dim::new(65).words(), 2);
        assert_eq!(Dim::new(10_000).words(), 157);
        assert_eq!(Dim::new(64).tail_mask(), u64::MAX);
        assert_eq!(Dim::new(3).tail_mask(), 0b111);
        assert!(Dim::try_new(0).is_err());
    }

    #[test]
    fn zeros_and_ones_counts() {
        let d = Dim::new(10_000);
        assert_eq!(BinaryHypervector::zeros(d).count_ones(), 0);
        assert_eq!(BinaryHypervector::ones(d).count_ones(), 10_000);
        // Tail bits must not leak into the popcount.
        let d = Dim::new(70);
        assert_eq!(BinaryHypervector::ones(d).count_ones(), 70);
    }

    #[test]
    fn get_set_flip_roundtrip() {
        let mut hv = BinaryHypervector::zeros(Dim::new(130));
        hv.set(0, true);
        hv.set(64, true);
        hv.set(129, true);
        assert!(hv.get(0) && hv.get(64) && hv.get(129));
        assert!(!hv.get(1));
        hv.flip(129);
        assert!(!hv.get(129));
        assert_eq!(hv.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let hv = BinaryHypervector::zeros(Dim::new(8));
        let _ = hv.get(8);
    }

    #[test]
    fn random_is_approximately_balanced() {
        let hv = BinaryHypervector::random(Dim::PAPER, &mut rng());
        let ones = hv.count_ones();
        assert!((4_700..=5_300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_balanced_is_exactly_balanced() {
        let hv = BinaryHypervector::random_balanced(Dim::PAPER, &mut rng());
        assert_eq!(hv.count_ones(), 5_000);
        let hv = BinaryHypervector::random_balanced(Dim::new(101), &mut rng());
        assert_eq!(hv.count_ones(), 50);
    }

    #[test]
    fn independent_randoms_are_quasi_orthogonal() {
        let mut r = rng();
        let a = BinaryHypervector::random(Dim::PAPER, &mut r);
        let b = BinaryHypervector::random(Dim::PAPER, &mut r);
        let dist = a.try_hamming(&b).unwrap();
        // Concentration: distance within ±3% of d/2 with overwhelming
        // probability (σ = √(d/4) = 50 bits here).
        assert!((4_700..=5_300).contains(&dist), "dist = {dist}");
    }

    #[test]
    fn hamming_identity_and_symmetry() {
        let mut r = rng();
        let a = BinaryHypervector::random(Dim::new(1_000), &mut r);
        let b = BinaryHypervector::random(Dim::new(1_000), &mut r);
        assert_eq!(a.try_hamming(&a).unwrap(), 0);
        assert_eq!(a.try_hamming(&b).unwrap(), b.try_hamming(&a).unwrap());
        assert_eq!(a.try_hamming(&a.complement()).unwrap(), 1_000);
    }

    #[test]
    fn hamming_dimension_mismatch_errors() {
        let a = BinaryHypervector::zeros(Dim::new(64));
        let b = BinaryHypervector::zeros(Dim::new(128));
        assert_eq!(
            a.try_hamming(&b),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 128
            })
        );
    }

    #[test]
    fn bind_is_self_inverse_and_distance_preserving() {
        let mut r = rng();
        let d = Dim::new(2_048);
        let a = BinaryHypervector::random(d, &mut r);
        let b = BinaryHypervector::random(d, &mut r);
        let k = BinaryHypervector::random(d, &mut r);
        assert_eq!(a.bind(&k).bind(&k), a);
        // Binding by the same key preserves Hamming distance.
        assert_eq!(
            a.bind(&k).try_hamming(&b.bind(&k)).unwrap(),
            a.try_hamming(&b).unwrap()
        );
        // Bound vector is quasi-orthogonal to both inputs.
        let ab = a.bind(&b);
        assert!(ab.try_hamming(&a).unwrap() > 800);
        assert!(ab.try_hamming(&b).unwrap() > 800);
    }

    #[test]
    fn bind_assign_matches_bind() {
        let mut r = rng();
        let d = Dim::new(256);
        let a = BinaryHypervector::random(d, &mut r);
        let b = BinaryHypervector::random(d, &mut r);
        let mut c = a.clone();
        c.bind_assign(&b);
        assert_eq!(c, a.bind(&b));
    }

    #[test]
    fn permute_roundtrip_and_rotation() {
        let mut r = rng();
        let d = Dim::new(100);
        let a = BinaryHypervector::random(d, &mut r);
        assert_eq!(a.permute(0), a);
        assert_eq!(a.permute(100), a);
        assert_eq!(a.permute(37).permute_inverse(37), a);
        assert_eq!(a.permute(60).permute(40), a);
        // A single set bit moves to the expected position.
        let mut one = BinaryHypervector::zeros(d);
        one.set(98, true);
        let rotated = one.permute(5);
        assert!(rotated.get(3));
        assert_eq!(rotated.count_ones(), 1);
    }

    #[test]
    fn permuted_vector_is_quasi_orthogonal_to_original() {
        let mut r = rng();
        let a = BinaryHypervector::random(Dim::PAPER, &mut r);
        let dist = a.try_hamming(&a.permute(1)).unwrap();
        assert!((4_600..=5_400).contains(&dist), "dist = {dist}");
    }

    #[test]
    fn flip_balanced_moves_exactly_2x_bits_and_keeps_density() {
        let mut r = rng();
        let a = BinaryHypervector::random_balanced(Dim::PAPER, &mut r);
        let b = a.flip_balanced(1_000, &mut r).unwrap();
        assert_eq!(a.try_hamming(&b).unwrap(), 2_000);
        assert_eq!(b.count_ones(), a.count_ones());
    }

    #[test]
    fn flip_balanced_rejects_oversized_count() {
        let mut r = rng();
        let a = BinaryHypervector::random_balanced(Dim::new(100), &mut r);
        assert!(a.flip_balanced(51, &mut r).is_err());
        assert!(a.flip_balanced(50, &mut r).is_ok());
    }

    #[test]
    fn from_bits_roundtrip_and_length_checks() {
        let bits = [true, false, true, true, false];
        let hv = BinaryHypervector::from_bits(Dim::new(5), bits.iter().copied()).unwrap();
        assert_eq!(hv.iter_bits().collect::<Vec<_>>(), bits);
        assert!(BinaryHypervector::from_bits(Dim::new(4), bits.iter().copied()).is_err());
        assert!(BinaryHypervector::from_bits(Dim::new(6), bits.iter().copied()).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = rng();
        let a = BinaryHypervector::random(Dim::new(300), &mut r);
        let json = serde_json::to_string(&a).unwrap();
        let back: BinaryHypervector = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    /// Corrupting a bit at or above `dim` in the last packed word must trip
    /// the `debug_assert_tail_invariant` exit check of the next mutation
    /// path. Only meaningful in debug builds — release compiles it away.
    #[cfg(debug_assertions)]
    mod tail_corruption {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn corrupted_tail_bit_fires_debug_assert(
                raw_d in 1usize..512,
                seed in any::<u64>(),
            ) {
                // Only non-word-aligned dims have tail bits to corrupt.
                let d = if raw_d % WORD_BITS == 0 { raw_d + 1 } else { raw_d };
                let dim = Dim::new(d);
                let mut r = SplitMix64::new(seed);
                let mut corrupted = BinaryHypervector::random(dim, &mut r);
                // The first position at or above `dim` in the last word.
                let tail_bit = d % WORD_BITS;
                corrupted.words_mut()[dim.words() - 1] |= 1u64 << tail_bit;
                let clean = BinaryHypervector::random(dim, &mut r);
                // bind_assign XORs the corrupted tail into its output and
                // must catch it at its exit check.
                let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut out = clean.clone();
                    out.bind_assign(&corrupted);
                }))
                .is_err();
                prop_assert!(fired, "tail corruption at d = {d} went undetected");
            }
        }
    }

    #[test]
    fn tail_invariant_check_and_scrub() {
        let mut r = rng();
        let dim = Dim::new(70);
        let mut hv = BinaryHypervector::random(dim, &mut r);
        let pristine = hv.clone();
        assert!(hv.tail_invariant_ok());
        assert!(!hv.scrub_tail(), "scrubbing a clean vector is a no-op");
        assert_eq!(hv, pristine);
        // Corrupt a bit above dim in the last word.
        hv.words_mut()[dim.words() - 1] |= 1u64 << 10;
        assert!(!hv.tail_invariant_ok());
        assert!(hv.scrub_tail(), "scrub must report cleared bits");
        assert!(hv.tail_invariant_ok());
        assert_eq!(hv, pristine, "scrub restores the pristine vector");
        // Word-aligned dims have no tail bits to corrupt.
        let aligned = BinaryHypervector::random(Dim::new(128), &mut r);
        assert!(aligned.tail_invariant_ok());
    }

    #[test]
    fn debug_output_is_compact() {
        let hv = BinaryHypervector::zeros(Dim::PAPER);
        let s = format!("{hv:?}");
        assert!(
            s.len() < 120,
            "debug output should not dump 10k bits: {}",
            s.len()
        );
        assert!(s.contains("10000"));
    }
}
