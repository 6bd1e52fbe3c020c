//! Sparse Distributed Memory (Kanerva 1988).
//!
//! The paper's introduction frames HDC as proposing "a new model of
//! computation that relies on sparse distributed memory"; this module
//! provides that substrate. An SDM stores high-dimensional binary words in
//! a *distributed* fashion: a fixed set of random **hard locations** each
//! hold one signed counter per bit, a write increments/decrements the
//! counters of every location within a Hamming-distance radius of the
//! write address, and a read majority-votes the counters of the locations
//! activated by the read address. Content-addressable recall then works
//! from *noisy* cues — the property that makes hypervector class memories
//! robust.

use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;
use crate::rng::SplitMix64;

/// A sparse distributed memory.
#[derive(Debug, Clone)]
pub struct SparseDistributedMemory {
    dim: Dim,
    radius: usize,
    addresses: Vec<BinaryHypervector>,
    /// Row-major counters: `counters[location * dim + bit]`.
    counters: Vec<i16>,
    writes: usize,
}

impl SparseDistributedMemory {
    /// Creates a memory of `n_locations` random hard locations with the
    /// given activation radius.
    ///
    /// Kanerva's design point activates ≈ 0.1 % of locations per access;
    /// for convenience [`Self::with_critical_radius`] derives a radius that
    /// hits a target activation probability.
    pub fn new(dim: Dim, n_locations: usize, radius: usize, seed: u64) -> Result<Self, HdcError> {
        if n_locations == 0 {
            return Err(HdcError::EmptyInput);
        }
        if radius >= dim.get() {
            return Err(HdcError::InvalidRange {
                min: radius as f64,
                max: (dim.get() - 1) as f64,
            });
        }
        let root = SplitMix64::new(seed);
        let addresses = (0..n_locations)
            .map(|i| {
                let mut rng = root.derive(0x5D11, i as u64);
                BinaryHypervector::random(dim, &mut rng)
            })
            .collect();
        Ok(Self {
            dim,
            radius,
            addresses,
            counters: vec![0i16; n_locations * dim.get()],
            writes: 0,
        })
    }

    /// Derives the activation radius from a target activation probability
    /// via the normal approximation to the binomial distance distribution
    /// (distance ~ N(d/2, d/4)).
    pub fn with_critical_radius(
        dim: Dim,
        n_locations: usize,
        activation_probability: f64,
        seed: u64,
    ) -> Result<Self, HdcError> {
        if !(0.0 < activation_probability && activation_probability < 0.5) {
            return Err(HdcError::InvalidRange { min: 0.0, max: 0.5 });
        }
        let d = dim.get() as f64;
        // radius = d/2 + z_p·σ with σ = √(d/4); z from a rational
        // approximation of the normal quantile (Beasley–Springer bound is
        // overkill; a bisection over the erf-based CDF is exact enough).
        let sigma = (d / 4.0).sqrt();
        let z = normal_quantile(activation_probability);
        let radius = (d / 2.0 + z * sigma).round().max(0.0) as usize;
        Self::new(dim, n_locations, radius.min(dim.get() - 1), seed)
    }

    /// The number of hard locations.
    #[must_use]
    pub fn n_locations(&self) -> usize {
        self.addresses.len()
    }

    /// The activation radius.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of writes performed.
    #[must_use]
    pub fn n_writes(&self) -> usize {
        self.writes
    }

    /// Indices of hard locations activated by `address`, found by one
    /// serial scan of the location addresses.
    fn activated(&self, address: &BinaryHypervector) -> Result<Vec<usize>, HdcError> {
        if address.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: address.dim().get(),
            });
        }
        Ok(self
            .addresses
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                // Dims are equal: `address` was checked against `self.dim`
                // above and every stored address has `self.dim`.
                crate::bitmatrix::hamming_words(address.words(), a.words()) <= self.radius
            })
            .map(|(i, _)| i)
            .collect())
    }

    /// Number of locations `address` would activate (diagnostics).
    pub fn activation_count(&self, address: &BinaryHypervector) -> Result<usize, HdcError> {
        Ok(self.activated(address)?.len())
    }

    /// Writes `data` at `address`: every activated location's counters
    /// move toward the data word (+1 for a 1-bit, −1 for a 0-bit,
    /// saturating so late writes cannot overflow early ones).
    pub fn write(
        &mut self,
        address: &BinaryHypervector,
        data: &BinaryHypervector,
    ) -> Result<usize, HdcError> {
        if data.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: data.dim().get(),
            });
        }
        let active = self.activated(address)?;
        let d = self.dim.get();
        for &loc in &active {
            let counters = &mut self.counters[loc * d..(loc + 1) * d];
            for (bit, c) in data.iter_bits().zip(counters.iter_mut()) {
                *c = if bit {
                    c.saturating_add(1)
                } else {
                    c.saturating_sub(1)
                };
            }
        }
        self.writes += 1;
        Ok(active.len())
    }

    /// Autoassociative write: the word is stored at its own address.
    pub fn write_auto(&mut self, word: &BinaryHypervector) -> Result<usize, HdcError> {
        // Clone-free would need a split borrow; the word is one cache-line
        // per 512 bits, so the copy is negligible next to the scan.
        let w = word.clone();
        self.write(&w, word)
    }

    /// Reads the word stored near `address`: majority vote over the
    /// activated locations' counters (ties → 1, consistent with the
    /// bundling rule used elsewhere).
    ///
    /// Returns `None` if no location is activated.
    pub fn read(&self, address: &BinaryHypervector) -> Result<Option<BinaryHypervector>, HdcError> {
        let active = self.activated(address)?;
        if active.is_empty() {
            return Ok(None);
        }
        let d = self.dim.get();
        let mut sums = vec![0i32; d];
        for &loc in &active {
            let counters = &self.counters[loc * d..(loc + 1) * d];
            for (s, &c) in sums.iter_mut().zip(counters) {
                *s += i32::from(c);
            }
        }
        let word = BinaryHypervector::collect_bits(self.dim, sums.iter().map(|&s| s >= 0));
        Ok(Some(word))
    }

    /// Iterative autoassociative recall: read, feed the result back as the
    /// next address, up to `max_iters` times or until a fixed point. This
    /// is Kanerva's noise-cleanup loop — a noisy cue converges to the
    /// stored word when the cue is within the memory's critical distance.
    pub fn recall(
        &self,
        cue: &BinaryHypervector,
        max_iters: usize,
    ) -> Result<Option<BinaryHypervector>, HdcError> {
        let mut current = cue.clone();
        for _ in 0..max_iters {
            match self.read(&current)? {
                None => return Ok(None),
                Some(next) => {
                    if next == current {
                        return Ok(Some(next));
                    }
                    current = next;
                }
            }
        }
        Ok(Some(current))
    }
}

/// Inverse normal CDF by bisection on `erf`-free grounds: uses the
/// complementary error function series via the logistic approximation
/// `Φ(z) ≈ 1/(1+e^(−1.702 z))` refined by bisection on a monotone exact
/// series. Accuracy ~1e-6, ample for radius selection.
fn normal_quantile(p: f64) -> f64 {
    // Bisection over Φ(z) computed with an Abramowitz–Stegun 7.1.26-style
    // polynomial for erf.
    let phi = |z: f64| 0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2));
    let (mut lo, mut hi) = (-10.0f64, 10.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if phi(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf` (|ε| ≤ 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim() -> Dim {
        Dim::new(1_000)
    }

    fn memory() -> SparseDistributedMemory {
        // Radius 470 activates ≈ 2.9% of locations at d = 1000 (σ ≈ 15.8).
        SparseDistributedMemory::new(dim(), 800, 470, 9).unwrap()
    }

    fn noisy_copy(hv: &BinaryHypervector, flips: usize, seed: u64) -> BinaryHypervector {
        let mut rng = SplitMix64::new(seed);
        let mut out = hv.clone();
        let mut picked = std::collections::HashSet::new();
        while picked.len() < flips {
            let i = rng.next_bounded(hv.len() as u64) as usize;
            if picked.insert(i) {
                out.flip(i);
            }
        }
        out
    }

    #[test]
    fn construction_validates() {
        assert!(SparseDistributedMemory::new(dim(), 0, 100, 0).is_err());
        assert!(SparseDistributedMemory::new(dim(), 10, 1_000, 0).is_err());
        assert!(SparseDistributedMemory::with_critical_radius(dim(), 10, 0.6, 0).is_err());
        let m = memory();
        assert_eq!(m.n_locations(), 800);
        assert_eq!(m.radius(), 470);
        assert_eq!(m.n_writes(), 0);
    }

    #[test]
    fn critical_radius_hits_target_activation() {
        let m = SparseDistributedMemory::with_critical_radius(dim(), 2_000, 0.05, 3).unwrap();
        let mut rng = SplitMix64::new(77);
        let mut total = 0usize;
        let probes = 20;
        for _ in 0..probes {
            let probe = BinaryHypervector::random(dim(), &mut rng);
            total += m.activation_count(&probe).unwrap();
        }
        let rate = total as f64 / (probes * m.n_locations()) as f64;
        assert!(
            (0.02..=0.10).contains(&rate),
            "activation rate {rate} should be near the 5% target"
        );
    }

    #[test]
    fn stored_word_is_recalled_exactly_from_its_own_address() {
        let mut m = memory();
        let mut rng = SplitMix64::new(1);
        let word = BinaryHypervector::random(dim(), &mut rng);
        let activated = m.write_auto(&word).unwrap();
        assert!(
            activated > 0,
            "the word must activate at least one location"
        );
        let out = m.read(&word).unwrap().expect("activated locations exist");
        assert_eq!(out, word);
        assert_eq!(m.n_writes(), 1);
    }

    #[test]
    fn noisy_cue_converges_to_the_stored_word() {
        let mut m = memory();
        let mut rng = SplitMix64::new(2);
        let word = BinaryHypervector::random(dim(), &mut rng);
        m.write_auto(&word).unwrap();
        // 8% bit noise — well inside the critical distance.
        let cue = noisy_copy(&word, 80, 5);
        let recalled = m
            .recall(&cue, 10)
            .unwrap()
            .expect("cue activates locations");
        assert_eq!(
            recalled, word,
            "cleanup loop should recover the stored word"
        );
    }

    #[test]
    fn multiple_words_coexist() {
        let mut m = memory();
        let mut rng = SplitMix64::new(3);
        let words: Vec<BinaryHypervector> = (0..6)
            .map(|_| BinaryHypervector::random(dim(), &mut rng))
            .collect();
        for w in &words {
            m.write_auto(w).unwrap();
        }
        for w in &words {
            let recalled = m.recall(&noisy_copy(w, 50, 11), 10).unwrap().unwrap();
            assert_eq!(&recalled, w);
        }
    }

    #[test]
    fn heteroassociative_pairs_are_retrievable() {
        let mut m = memory();
        let mut rng = SplitMix64::new(4);
        let key = BinaryHypervector::random(dim(), &mut rng);
        let value = BinaryHypervector::random(dim(), &mut rng);
        m.write(&key, &value).unwrap();
        let out = m.read(&key).unwrap().unwrap();
        assert_eq!(out, value);
    }

    #[test]
    fn unrelated_cue_reads_a_mixture_not_any_single_word() {
        // With a single stored word, any overlapping activation returns
        // that word exactly (no interference exists — correct SDM
        // behaviour). With many stored words, an unrelated cue activates a
        // mixture of locations and must not reconstruct any one of them.
        let mut m = memory();
        let mut rng = SplitMix64::new(6);
        let words: Vec<BinaryHypervector> = (0..20)
            .map(|_| BinaryHypervector::random(dim(), &mut rng))
            .collect();
        for w in &words {
            m.write_auto(w).unwrap();
        }
        let unrelated = BinaryHypervector::random(dim(), &mut rng);
        if let Some(out) = m.read(&unrelated).unwrap() {
            for (i, w) in words.iter().enumerate() {
                let d = out.try_hamming(w).unwrap();
                assert!(
                    d > 200,
                    "unrelated cue reconstructed stored word {i} (d = {d})"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_errors() {
        let mut m = memory();
        let wrong = BinaryHypervector::zeros(Dim::new(64));
        assert!(m.read(&wrong).is_err());
        assert!(m.write_auto(&wrong).is_err());
        let ok = BinaryHypervector::zeros(dim());
        assert!(m.write(&ok, &wrong).is_err());
    }

    #[test]
    fn quantile_sanity() {
        assert!((normal_quantile(0.5)).abs() < 1e-6);
        assert!((normal_quantile(0.158_655) + 1.0).abs() < 1e-3);
        assert!((normal_quantile(0.022_750) + 2.0).abs() < 1e-3);
    }
}
