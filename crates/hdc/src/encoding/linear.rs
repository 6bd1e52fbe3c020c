//! Linear (level) encoding of continuous features.

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim, WORD_BITS};
use crate::error::HdcError;
use crate::rng::SplitMix64;

/// Flip pairs per precomputed checkpoint mask (see [`LinearEncoder`]);
/// shared with the pruned encoder, whose checkpoints stride over retained
/// flip entries instead of flip pairs.
pub(crate) const CHECKPOINT_STRIDE: usize = 64;

/// Level encoder for a continuous feature over `[min, max]`.
///
/// Construction (paper §II-B, steps 1–3):
///
/// 1. identify `min(V)` and `max(V)`;
/// 2. generate a random exactly-balanced seed hypervector representing every
///    value ≤ `min(V)`;
/// 3. for value `t`, flip `x = k·(t − min)/(2·(max − min))` bits — an equal
///    number of ones and zeros (`x/2` each) — so that `max(V)` is exactly
///    orthogonal to `min(V)` (`x = k/2` differing bits).
///
/// The flipped bits form a *nested* prefix of a fixed random flip order, so
/// for any two values `t₁ ≤ t₂` the Hamming distance between their codes is
/// exactly `x(t₂) − x(t₁)` (rounded to even): the metric structure of the
/// feature is embedded isometrically, which is what makes "45 closer to 50
/// than to 70" hold in hyperspace.
///
/// # Encoding kernel
///
/// Because the flips are nested, the cumulative flip mask after `h` flip
/// pairs is a pure function of `h`. The constructor precomputes that mask
/// at every 64-pair checkpoint (`CHECKPOINT_STRIDE`); [`Self::encode`] then
/// XORs the seed with the nearest checkpoint at or below `h` (`⌈d/64⌉`
/// word XORs) and applies the at most `2·63` remaining flips bit by bit,
/// instead of walking up to `d` individual flips.
#[derive(Debug, Clone)]
pub struct LinearEncoder {
    dim: Dim,
    min: f64,
    max: f64,
    seed: BinaryHypervector,
    /// Positions that start as ones, in flip order.
    flip_ones: Vec<u32>,
    /// Positions that start as zeros, in flip order.
    flip_zeros: Vec<u32>,
    /// Flattened cumulative flip masks: checkpoint `c` (stride
    /// `dim.words()`) is the XOR mask of the first `c·CHECKPOINT_STRIDE`
    /// flip pairs.
    checkpoints: Vec<u64>,
}

impl LinearEncoder {
    /// Creates a level encoder for values in `[min, max]`.
    ///
    /// `seed` determines the random seed hypervector and flip order; two
    /// encoders built with the same `(dim, min, max, seed)` are identical.
    pub fn new(dim: Dim, min: f64, max: f64, seed: u64) -> Result<Self, HdcError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(HdcError::NonFiniteValue);
        }
        if min >= max {
            return Err(HdcError::InvalidRange { min, max });
        }
        let root = SplitMix64::new(seed);
        let mut seed_rng = root.derive(0, 0);
        let seed_hv = BinaryHypervector::random_balanced(dim, &mut seed_rng);

        let mut flip_ones = Vec::with_capacity(dim.get() / 2 + 1);
        let mut flip_zeros = Vec::with_capacity(dim.get() / 2 + 1);
        // lint: cast-ok (bit indices fit u32 — dims are u32-indexable here)
        for i in 0..dim.get() {
            if seed_hv.get(i) {
                flip_ones.push(i as u32);
            } else {
                flip_zeros.push(i as u32);
            }
        }
        let mut order_rng = root.derive(1, 0);
        order_rng.shuffle(&mut flip_ones);
        order_rng.shuffle(&mut flip_zeros);

        let checkpoints = build_checkpoints(dim, &flip_ones, &flip_zeros);

        Ok(Self {
            dim,
            min,
            max,
            seed: seed_hv,
            flip_ones,
            flip_zeros,
            checkpoints,
        })
    }

    /// The output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The encoder's value range.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// The seed hypervector (the code for `min` and everything below it).
    #[must_use]
    pub fn seed_hypervector(&self) -> &BinaryHypervector {
        &self.seed
    }

    /// The fixed flip order as `(ones, zeros)` position lists: encoding a
    /// value flips the first `flips_for(t)/2` entries of each list in the
    /// seed. Exposed so scalar reference implementations (see
    /// [`crate::reference`]) can replay the flips independently.
    #[must_use]
    pub fn flip_order(&self) -> (&[u32], &[u32]) {
        (&self.flip_ones, &self.flip_zeros)
    }

    /// Number of bit flips (total, ones + zeros) applied for value `t`:
    /// `x = k·(t' − min)/(2·(max − min))` with `t' = clamp(t)`. The flips
    /// split equally between ones and zeros, so `x/2` is rounded to the
    /// nearest integer — half-way cases away from zero, i.e. an odd `x`
    /// rounds *up* to the next flip pair — then doubled, capped at the
    /// shorter of the two flip lists.
    #[must_use]
    pub fn flips_for(&self, t: f64) -> usize {
        // lint: cast-ok (dim < 2^53 exactly in f64; x is clamped into
        // [0, dim/2] so the rounded usize cast cannot wrap)
        let t = t.clamp(self.min, self.max);
        let k = self.dim.get() as f64;
        let x = k * (t - self.min) / (2.0 * (self.max - self.min));
        // Split equally between ones and zeros: round x/2 and double.
        let half = (x / 2.0).round() as usize;
        let cap = self.flip_ones.len().min(self.flip_zeros.len());
        2 * half.min(cap)
    }

    /// Encodes value `t`, clamping it into the encoder's range.
    #[must_use]
    pub fn encode(&self, t: f64) -> BinaryHypervector {
        let mut hv = BinaryHypervector::zeros(self.dim);
        self.encode_into(t, &mut hv);
        hv
    }

    /// Encodes value `t` into an existing hypervector, overwriting it.
    /// Avoids allocation in batch loops; `out` must have this encoder's
    /// dimensionality.
    ///
    /// # Panics
    /// Panics if `out.dim() != self.dim()`.
    // lint: index-ok (build_checkpoints emits one words-sized mask per stride boundary covering ck; half ≤ the flip-list lengths)
    pub fn encode_into(&self, t: f64, out: &mut BinaryHypervector) {
        assert_eq!(
            out.dim(),
            self.dim,
            "encode_into scratch dimensionality mismatch"
        );
        // A counter, not a span: at ~200ns per encode a span would dominate
        // the measured work.
        crate::obs::counter_add("hdc/linear_encodes", 1);
        let half = self.flips_for(t) / 2;
        let ck = half / CHECKPOINT_STRIDE;
        let words = self.dim.words();
        let mask = &self.checkpoints[ck * words..(ck + 1) * words];
        for ((o, &s), &m) in out.words_mut().iter_mut().zip(self.seed.words()).zip(mask) {
            *o = s ^ m;
        }
        // lint: cast-ok (u32 bit indices widen to usize on supported targets)
        for &i in &self.flip_ones[ck * CHECKPOINT_STRIDE..half] {
            out.flip(i as usize);
        }
        for &i in &self.flip_zeros[ck * CHECKPOINT_STRIDE..half] {
            out.flip(i as usize);
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
}

/// Precomputes the cumulative flip mask at every `CHECKPOINT_STRIDE`-pair
/// boundary: snapshot `c` covers the first `c·CHECKPOINT_STRIDE` entries of
/// both flip lists.
// lint: index-ok (flip indices are < d by construction, so i / WORD_BITS < words)
fn build_checkpoints(dim: Dim, flip_ones: &[u32], flip_zeros: &[u32]) -> Vec<u64> {
    let words = dim.words();
    let cap = flip_ones.len().min(flip_zeros.len());
    let mut checkpoints = Vec::with_capacity((cap / CHECKPOINT_STRIDE + 1) * words);
    let mut mask = vec![0u64; words];
    for h in 0..=cap {
        if h % CHECKPOINT_STRIDE == 0 {
            checkpoints.extend_from_slice(&mask);
        }
        if h < cap {
            // lint: cast-ok (u32 bit indices widen to usize on supported targets)
            for &i in &[flip_ones[h], flip_zeros[h]] {
                mask[i as usize / WORD_BITS] ^= 1u64 << (i as usize % WORD_BITS);
            }
        }
    }
    checkpoints
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_encoder() -> LinearEncoder {
        LinearEncoder::new(Dim::PAPER, 0.0, 100.0, 12345).unwrap()
    }

    #[test]
    fn construction_validates_range() {
        assert!(LinearEncoder::new(Dim::PAPER, 1.0, 1.0, 0).is_err());
        assert!(LinearEncoder::new(Dim::PAPER, 2.0, 1.0, 0).is_err());
        assert!(LinearEncoder::new(Dim::PAPER, f64::NAN, 1.0, 0).is_err());
        assert!(LinearEncoder::new(Dim::PAPER, 0.0, f64::INFINITY, 0).is_err());
        assert!(LinearEncoder::new(Dim::PAPER, -5.0, 5.0, 0).is_ok());
    }

    #[test]
    fn min_maps_to_seed_and_below_min_clamps() {
        let e = paper_encoder();
        assert_eq!(&e.encode(0.0), e.seed_hypervector());
        assert_eq!(&e.encode(-42.0), e.seed_hypervector());
    }

    #[test]
    fn max_is_orthogonal_to_min() {
        let e = paper_encoder();
        let lo = e.encode(0.0);
        let hi = e.encode(100.0);
        assert_eq!(lo.try_hamming(&hi).unwrap(), Dim::PAPER.get() / 2);
        // Above-max clamps to the max code.
        assert_eq!(e.encode(1_000.0), hi);
    }

    #[test]
    fn distance_is_proportional_to_value_difference() {
        let e = paper_encoder();
        let lo = e.encode(0.0);
        // d(t) = k·(t − min)/(2·range) exactly (rounded to even).
        for t in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let expected = e.flips_for(t);
            assert_eq!(lo.try_hamming(&e.encode(t)).unwrap(), expected);
            let approx = (Dim::PAPER.get() as f64 * t / 200.0) as usize;
            assert!(expected.abs_diff(approx) <= 2);
        }
    }

    #[test]
    fn nested_flips_make_the_embedding_isometric() {
        let e = paper_encoder();
        // For any t1 < t2: d(code(t1), code(t2)) == flips(t2) − flips(t1).
        let pairs = [(10.0, 20.0), (30.0, 80.0), (55.0, 56.0), (0.0, 99.0)];
        for (t1, t2) in pairs {
            let d = e.encode(t1).try_hamming(&e.encode(t2)).unwrap();
            assert_eq!(d, e.flips_for(t2) - e.flips_for(t1), "t1={t1} t2={t2}");
        }
        // Hence the paper's intuition: 45 is closer to 50 than to 70.
        let a45 = e.encode(45.0);
        assert!(
            a45.try_hamming(&e.encode(50.0)).unwrap() < a45.try_hamming(&e.encode(70.0)).unwrap()
        );
    }

    #[test]
    fn all_codes_stay_balanced() {
        let e = paper_encoder();
        for t in [0.0, 13.0, 50.0, 87.5, 100.0] {
            assert_eq!(e.encode(t).count_ones(), Dim::PAPER.get() / 2, "t = {t}");
        }
    }

    #[test]
    fn same_seed_reproduces_different_seed_differs() {
        let a = LinearEncoder::new(Dim::new(1_000), 0.0, 1.0, 7).unwrap();
        let b = LinearEncoder::new(Dim::new(1_000), 0.0, 1.0, 7).unwrap();
        let c = LinearEncoder::new(Dim::new(1_000), 0.0, 1.0, 8).unwrap();
        assert_eq!(a.encode(0.3), b.encode(0.3));
        assert_ne!(a.encode(0.3), c.encode(0.3));
    }

    #[test]
    fn encode_checked_rejects_non_finite() {
        let e = paper_encoder();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(e.encode_checked(bad), Err(HdcError::NonFiniteValue));
        }
        assert!(e.encode_checked(55.0).is_ok());
        let mut scratch = BinaryHypervector::zeros(Dim::PAPER);
        assert!(e.encode_checked_into(f64::INFINITY, &mut scratch).is_err());
        e.encode_checked_into(55.0, &mut scratch).unwrap();
        assert_eq!(scratch, e.encode(55.0));
    }

    #[test]
    fn small_odd_dimensionality_works() {
        let e = LinearEncoder::new(Dim::new(101), 0.0, 10.0, 3).unwrap();
        let lo = e.encode(0.0);
        let hi = e.encode(10.0);
        // 101 bits: 50 ones; max flips capped at 2·50.
        assert!(lo.try_hamming(&hi).unwrap() <= 100);
        assert!(lo.try_hamming(&hi).unwrap() >= 48);
    }

    #[test]
    fn flips_for_rounds_half_pairs_up() {
        // dim = k = 1000, range = 250 ⇒ x = k·t/(2·range) = 2t, so
        // x/2 = t exactly: integer t maps to t flip pairs and half-way
        // values (t = n + 0.5) must round *up* (away from zero), which is
        // what distinguishes the implementation from rounding x to the
        // nearest even integer (ambiguous at odd x) or rounding half to
        // even (round(2.5) would give 2).
        let e = LinearEncoder::new(Dim::new(1_000), 0.0, 250.0, 11).unwrap();
        assert_eq!(e.flips_for(0.0), 0);
        assert_eq!(e.flips_for(0.5), 2);
        assert_eq!(e.flips_for(1.0), 2);
        assert_eq!(e.flips_for(1.5), 4);
        assert_eq!(e.flips_for(2.5), 6);
        assert_eq!(e.flips_for(3.4), 6);
        assert_eq!(e.flips_for(3.5), 8);
    }

    #[test]
    fn flips_for_is_monotone_even_and_fine_grained_at_unit_granularity() {
        // Walk t in steps of range/k (the finest granularity at which the
        // formula can change): flips must be even, non-decreasing, move by
        // at most one pair per step, and hit both endpoints exactly.
        let dim = Dim::new(1_000);
        let (min, max) = (-3.0, 7.0);
        let e = LinearEncoder::new(dim, min, max, 99).unwrap();
        let step = (max - min) / dim.get() as f64;
        let mut prev = e.flips_for(min);
        assert_eq!(prev, 0);
        for j in 1..=dim.get() {
            let t = min + j as f64 * step;
            let f = e.flips_for(t);
            assert_eq!(f % 2, 0, "flip counts split into pairs (t = {t})");
            assert!(f >= prev, "flips must be monotone in t (t = {t})");
            assert!(f - prev <= 2, "one step moves at most one pair (t = {t})");
            prev = f;
        }
        assert_eq!(prev, e.flips_for(max));
        assert_eq!(prev, dim.get() / 2);
    }

    #[test]
    fn encode_matches_scalar_reference_at_checkpoint_boundaries() {
        // Exercise halves around the 64-pair checkpoint stride explicitly:
        // h = 63, 64, 65 must all agree with the bit-at-a-time oracle.
        let dim = Dim::new(1_000);
        let e = LinearEncoder::new(dim, 0.0, 250.0, 5).unwrap();
        for t in [62.6, 63.0, 63.5, 64.0, 64.5, 65.0, 127.5, 128.0, 250.0] {
            assert_eq!(
                e.encode(t),
                crate::reference::linear_encode(&e, t),
                "t = {t}"
            );
        }
    }
}
