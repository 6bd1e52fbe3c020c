//! Majority-vote bundling of binary hypervectors.
//!
//! Bundling superimposes a set of hypervectors into a single vector that is
//! *similar to every input* — the opposite of binding, which produces a
//! vector dissimilar to its inputs. The paper (§II-B) combines all feature
//! hypervectors of a patient with per-bit majority voting, breaking ties
//! toward 1 (their stated rule, after Kleyko et al. \[39\]).
//!
//! Two implementations are provided:
//!
//! * [`try_majority`] — one-shot bundling of a slice.
//! * [`Bundler`] — a streaming accumulator of per-bit counts for inputs
//!   produced one at a time: the record encoder votes each feature code
//!   into one, and [`crate::stream::BundlerSink`] bundles a whole stream.
//!   Class prototypes keep signed counts instead
//!   ([`crate::classify::ClassAccumulators`]).
//!
//! The accumulator stores its counters *bit-sliced*: plane `p` packs bit
//! `p` of all `d` counters into `⌈d/64⌉` words. No counter exceeds the
//! vote total, so `bit_length(total)` planes hold every count, and adding
//! one hypervector is a word-wide ripple-carry add through each of them
//! with no branch on the data, rather than one scalar increment per set
//! bit. The majority threshold in [`Bundler::finish`] is a word-wide
//! borrow-chain comparison deciding 64 bits per step. This is the one
//! per-bit vote counter: record encoding, [`crate::stream::BundlerSink`],
//! [`crate::bitmatrix::BitMatrix::majority_row`] and the batched class
//! counts of [`crate::classify::ClassAccumulators::add_batch`] all run it.

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim};
use crate::error::HdcError;

/// Bundles hypervectors by per-bit majority vote, ties broken toward 1.
///
/// For an even number of inputs, a bit with exactly half ones is set to 1
/// (the paper's tie-break). For odd counts no ties are possible. Errors on
/// an empty slice or mismatched dimensionalities — there is no panicking
/// variant.
pub fn try_majority(inputs: &[BinaryHypervector]) -> Result<BinaryHypervector, HdcError> {
    let first = inputs.first().ok_or(HdcError::EmptyInput)?;
    let mut bundler = Bundler::new(first.dim());
    for hv in inputs {
        bundler.push(hv)?;
    }
    bundler.finish()
}

/// Weighted majority bundling: each input contributes `weight` votes.
///
/// Equivalent to repeating each input `weight` times in [`try_majority`].
/// Errors on an empty slice, mismatched dimensionalities or a weight total
/// past `u32::MAX` ([`HdcError::VoteOverflow`]).
pub fn try_weighted_majority(
    inputs: &[(BinaryHypervector, u32)],
) -> Result<BinaryHypervector, HdcError> {
    let (first, _) = inputs.first().ok_or(HdcError::EmptyInput)?;
    let mut bundler = Bundler::new(first.dim());
    for (hv, w) in inputs {
        bundler.push_weighted(hv, *w)?;
    }
    bundler.finish()
}

/// A streaming majority-vote accumulator with bit-sliced counters.
///
/// Plane `p` holds bit `p` of every per-bit vote counter, 64 counters per
/// word, and there are `bit_length(total)` planes: enough for the largest
/// count, since no counter exceeds the vote total. Memory is that many
/// planes plus one carry plane, `d/8` bytes each (five in all ≈ 6 KB at
/// the paper's 10k dimensionality for an 8-feature record, vs 40 KB for
/// `u32` counters), and the accumulator is reusable via [`Bundler::clear`].
#[derive(Debug, Clone)]
pub struct Bundler {
    dim: Dim,
    /// The planes back to back: plane `p` is the `p`-th run of
    /// `dim.words()` words, and its word `w` packs bit `p` of counters
    /// `64·w .. 64·w + 64`.
    planes: Vec<u64>,
    /// The carries one push ripples from each plane into the next.
    carry: Vec<u64>,
    total: u32,
}

impl Bundler {
    /// Creates an empty accumulator for `dim`-bit inputs.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            planes: Vec::new(),
            carry: Vec::new(),
            total: 0,
        }
    }

    /// The dimensionality this accumulator accepts.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of (weighted) votes accumulated so far.
    #[must_use]
    pub fn votes(&self) -> u32 {
        self.total
    }

    /// Adds one vote from `hv`.
    pub fn push(&mut self, hv: &BinaryHypervector) -> Result<(), HdcError> {
        self.push_weighted(hv, 1)
    }

    /// Adds `weight` votes from `hv`.
    ///
    /// The planes first grow to `bit_length(total + weight)`, which holds
    /// every count after the add. Then, for each set bit `b` of `weight`,
    /// the input's packed words are ripple-carry-added into every plane
    /// from `b` up, 64 counters per word operation. The ripple runs through
    /// every plane whatever the carries: none leaves the top plane, as that
    /// would take a count above the total.
    ///
    /// Returns [`HdcError::VoteOverflow`], with nothing changed, if the
    /// total would pass `u32::MAX`.
    pub fn push_weighted(&mut self, hv: &BinaryHypervector, weight: u32) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            });
        }
        self.push_words(hv.words(), weight)
    }

    /// [`Bundler::push_weighted`] over the packed words of a `dim`-bit
    /// input, for callers that hold rows as words.
    pub(crate) fn push_words(&mut self, words: &[u64], weight: u32) -> Result<(), HdcError> {
        debug_assert_eq!(words.len(), self.dim.words(), "one input row");
        let total = self
            .total
            .checked_add(weight)
            .ok_or(HdcError::VoteOverflow {
                votes: u64::from(self.total) + u64::from(weight),
                limit: u64::from(u32::MAX),
            })?;
        let n_words = self.dim.words();
        // lint: cast-ok (32 - leading_zeros is a u32 in 0..=32 widening to usize)
        let n_planes = (u32::BITS - total.leading_zeros()) as usize;
        self.planes.resize(n_planes * n_words, 0);
        let mut rest = weight;
        while rest != 0 {
            // lint: cast-ok (trailing_zeros of a non-zero u32 is below 32)
            let base = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.carry.clear();
            self.carry.extend_from_slice(words);
            for plane in self.planes.chunks_exact_mut(n_words).skip(base) {
                for (count, carry) in plane.iter_mut().zip(&mut self.carry) {
                    let old = *count;
                    *count = old ^ *carry;
                    *carry &= old;
                }
            }
        }
        self.total = total;
        Ok(())
    }

    /// The counter planes from bit 0 up, `dim.words()` words each.
    pub(crate) fn planes(&self) -> std::slice::ChunksExact<'_, u64> {
        self.planes.chunks_exact(self.dim.words())
    }

    /// Produces the majority vector. Ties (possible only for an even number
    /// of votes) resolve to 1, per the paper.
    ///
    /// The threshold test `2·count ≥ total` (⇔ `count ≥ ⌈total/2⌉`) runs as
    /// a bit-sliced borrow chain of `count − ⌈total/2⌉` over the planes,
    /// which also cover every bit of `⌈total/2⌉ ≤ total`: a surviving
    /// borrow means the count fell short, so the majority word is the
    /// complement of the borrow word.
    ///
    /// Returns [`HdcError::EmptyInput`] if no votes were accumulated.
    pub fn finish(&self) -> Result<BinaryHypervector, HdcError> {
        if self.total == 0 {
            return Err(HdcError::EmptyInput);
        }
        crate::obs::counter_add("hdc/bundles_finished", 1);
        let threshold = self.total.div_ceil(2);
        // The output words carry the borrows from plane to plane.
        let mut out = BinaryHypervector::zeros(self.dim);
        for (p, plane) in self.planes().enumerate() {
            let t = 0u64.wrapping_sub(u64::from(threshold >> p & 1));
            for (borrow, &a) in out.words_mut().iter_mut().zip(plane) {
                *borrow = (!a & (t | *borrow)) | (t & *borrow);
            }
        }
        for word in out.words_mut() {
            *word = !*word;
        }
        let mask = self.dim.tail_mask();
        if let Some(last) = out.words_mut().last_mut() {
            *last &= mask;
        }
        debug_assert_tail_invariant(self.dim, out.words());
        Ok(out)
    }

    /// Resets the accumulator without releasing its allocations.
    pub fn clear(&mut self) {
        self.planes.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn dim() -> Dim {
        Dim::new(256)
    }

    fn rng() -> SplitMix64 {
        SplitMix64::new(777)
    }

    #[test]
    fn majority_of_single_vector_is_identity() {
        let hv = BinaryHypervector::random(dim(), &mut rng());
        assert_eq!(try_majority(std::slice::from_ref(&hv)).unwrap(), hv);
    }

    #[test]
    fn majority_of_empty_slice_errors() {
        assert_eq!(try_majority(&[]), Err(HdcError::EmptyInput));
    }

    #[test]
    fn majority_follows_the_paper_worked_example() {
        // §II-B: A0 = 1, B0 = 1, C0 = 0  →  bundled bit 0 = 1.
        let d = Dim::new(64);
        let mut a = BinaryHypervector::zeros(d);
        let mut b = BinaryHypervector::zeros(d);
        let c = BinaryHypervector::zeros(d);
        a.set(0, true);
        b.set(0, true);
        let out = try_majority(&[a, b, c]).unwrap();
        assert!(out.get(0));
        assert!(!out.get(1));
    }

    #[test]
    fn ties_break_toward_one() {
        let d = Dim::new(8);
        let a =
            BinaryHypervector::from_bits(d, [true, false, true, false, true, false, true, false])
                .unwrap();
        let b = a.complement();
        // Every bit is a 1-1 tie.
        let out = try_majority(&[a, b]).unwrap();
        assert_eq!(out.count_ones(), 8);
    }

    #[test]
    fn bundle_is_similar_to_every_input() {
        let d = Dim::new(10_000);
        let mut r = rng();
        let inputs: Vec<_> = (0..7)
            .map(|_| BinaryHypervector::random(d, &mut r))
            .collect();
        let bundled = try_majority(&inputs).unwrap();
        let unrelated = BinaryHypervector::random(d, &mut r);
        for hv in &inputs {
            let din = bundled.try_hamming(hv).unwrap();
            let dout = bundled.try_hamming(&unrelated).unwrap();
            assert!(
                din < dout,
                "bundle should be closer to members ({din}) than to noise ({dout})"
            );
            // For 7 random inputs the expected member distance is well under
            // 0.4·d (binomial analysis), vs 0.5·d for noise.
            assert!(din < 4_300, "member distance {din} too large");
        }
    }

    #[test]
    fn bundler_matches_one_shot_majority() {
        let mut r = rng();
        let inputs: Vec<_> = (0..6)
            .map(|_| BinaryHypervector::random(dim(), &mut r))
            .collect();
        let mut b = Bundler::new(dim());
        for hv in &inputs {
            b.push(hv).unwrap();
        }
        assert_eq!(b.finish().unwrap(), try_majority(&inputs).unwrap());
        assert_eq!(b.votes(), 6);
    }

    #[test]
    fn bundler_matches_scalar_reference_across_tail_dims() {
        let mut r = rng();
        let weights = [1u32, 3, 2, 7, 1];
        for d in [1usize, 63, 64, 65, 101, 127, 128, 200] {
            let dm = Dim::new(d);
            let inputs: Vec<(BinaryHypervector, u32)> = weights
                .iter()
                .map(|&w| (BinaryHypervector::random(dm, &mut r), w))
                .collect();
            let expected = crate::reference::weighted_majority(&inputs).unwrap();
            assert_eq!(try_weighted_majority(&inputs).unwrap(), expected, "d = {d}");
        }
    }

    #[test]
    fn weighted_majority_equals_repetition() {
        let mut r = rng();
        let a = BinaryHypervector::random(dim(), &mut r);
        let b = BinaryHypervector::random(dim(), &mut r);
        let weighted = try_weighted_majority(&[(a.clone(), 3), (b.clone(), 1)]).unwrap();
        let repeated = try_majority(&[a.clone(), a.clone(), a, b]).unwrap();
        assert_eq!(weighted, repeated);
    }

    #[test]
    fn zero_weight_contributes_nothing() {
        let mut r = rng();
        let a = BinaryHypervector::random(dim(), &mut r);
        let b = BinaryHypervector::random(dim(), &mut r);
        let out = try_weighted_majority(&[(a.clone(), 1), (b, 0)]).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn clear_resets_without_reallocating() {
        let mut r = rng();
        let a = BinaryHypervector::random(dim(), &mut r);
        let mut acc = Bundler::new(dim());
        acc.push(&a).unwrap();
        acc.clear();
        assert_eq!(acc.votes(), 0);
        assert_eq!(acc.finish(), Err(HdcError::EmptyInput));
    }

    #[test]
    fn a_vote_total_past_u32_max_is_an_error_that_changes_nothing() {
        let ones = BinaryHypervector::ones(dim());
        let zeros = BinaryHypervector::zeros(dim());
        let overflow = HdcError::VoteOverflow {
            votes: 1 << 32,
            limit: u64::from(u32::MAX),
        };
        assert_eq!(
            try_weighted_majority(&[(ones.clone(), u32::MAX), (zeros.clone(), 1)]),
            Err(overflow.clone())
        );
        let mut acc = Bundler::new(dim());
        acc.push_weighted(&ones, u32::MAX).unwrap();
        assert_eq!(acc.push(&zeros), Err(overflow));
        assert_eq!(acc.votes(), u32::MAX);
        assert_eq!(acc.finish().unwrap(), ones);
        // A zero weight adds nothing, so it cannot overflow.
        acc.push_weighted(&zeros, 0).unwrap();
        assert_eq!(acc.finish().unwrap(), ones);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut acc = Bundler::new(Dim::new(64));
        let wrong = BinaryHypervector::zeros(Dim::new(128));
        assert!(matches!(
            acc.push(&wrong),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn alternative_formulation_add_divide_round_matches() {
        // §II-B: "An alternate approach ... add the respective bits, divide
        // by the number of feature hypervectors, and round the result".
        // With round-half-up, the per-bit quantity round(sum/n) ∈ {0, 1}
        // equals majority voting with tie → 1. Compute the alternate
        // formulation independently — integer round-half-up of sum/n is
        // ⌊(2·sum + n) / 2n⌋ — and compare against the bundler bit by bit.
        let mut r = rng();
        let d = Dim::new(128);
        for n in 1..=8usize {
            let inputs: Vec<_> = (0..n)
                .map(|_| BinaryHypervector::random(d, &mut r))
                .collect();
            let bundled = try_majority(&inputs).unwrap();
            for i in 0..d.get() {
                let sum: usize = inputs.iter().filter(|hv| hv.get(i)).count();
                let rounded = (2 * sum + n) / (2 * n);
                assert_eq!(
                    bundled.get(i),
                    rounded >= 1,
                    "bit {i}: {sum} ones of {n} votes"
                );
            }
        }
    }
}
