//! Categorical (orthogonal) encoding of discrete features.

use crate::binary::{BinaryHypervector, Dim};
use crate::error::HdcError;
use crate::rng::SplitMix64;

/// Encoder mapping each of `n` categories to a quasi-orthogonal hypervector.
///
/// Category 0 is a random exactly-balanced seed vector; each further
/// category is produced by "flipping an equal number of 1's and 0's chosen
/// randomly" (paper §II-B) — `⌊d/4⌋` of each, so every category pair differs
/// in ≈ `d/2` bits and the codes are mutually quasi-orthogonal. With `n = 2`
/// this is exactly the paper's yes/no encoding for the Sylhet symptom
/// features.
#[derive(Debug, Clone)]
pub struct CategoricalEncoder {
    codes: Vec<BinaryHypervector>,
}

impl CategoricalEncoder {
    /// Creates an encoder for `n_categories ≥ 1` categories.
    pub fn new(dim: Dim, n_categories: usize, seed: u64) -> Result<Self, HdcError> {
        if n_categories == 0 {
            return Err(HdcError::EmptyInput);
        }
        let root = SplitMix64::new(seed);
        let mut seed_rng = root.derive(0, 0);
        let base = BinaryHypervector::random_balanced(dim, &mut seed_rng);
        let quarter = dim.get() / 4;
        let mut codes = Vec::with_capacity(n_categories);
        codes.push(base.clone());
        for c in 1..n_categories {
            let mut rng = root.derive(1, c as u64);
            // Quarter flips always fit a balanced vector (⌊d/4⌋ ≤ ⌊d/2⌋
            // ones and zeros), so this propagates instead of panicking
            // purely for the typed-error contract.
            let code = base.flip_balanced(quarter, &mut rng)?;
            codes.push(code);
        }
        Ok(Self { codes })
    }

    /// A binary yes/no encoder (two categories), as used for the Sylhet
    /// symptom features.
    pub fn binary(dim: Dim, seed: u64) -> Result<Self, HdcError> {
        Self::new(dim, 2, seed)
    }

    /// Number of categories.
    #[must_use]
    pub fn n_categories(&self) -> usize {
        self.codes.len()
    }

    /// The output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.codes[0].dim()
    }

    /// The code for `category`.
    ///
    /// Returns [`HdcError::CategoryOutOfRange`] if `category ≥
    /// n_categories` — categorical features have no meaningful clamping,
    /// unlike continuous ones.
    pub fn encode(&self, category: usize) -> Result<BinaryHypervector, HdcError> {
        self.codes
            .get(category)
            .cloned()
            .ok_or(HdcError::CategoryOutOfRange {
                categories: self.codes.len(),
                value: category as f64,
            })
    }

    /// The code for a raw feature value rounded to the nearest category
    /// index. A value that rounds outside `0..n_categories` is
    /// [`HdcError::CategoryOutOfRange`] naming the value: nothing is
    /// clamped into range.
    pub(crate) fn code_of_value(&self, value: f64) -> Result<&BinaryHypervector, HdcError> {
        if !value.is_finite() {
            return Err(HdcError::NonFiniteValue);
        }
        let index = value.round();
        // A float-to-int `as` saturates (a negative index would read as
        // 0), so the sign is checked first; an index past `usize::MAX`
        // reads as `usize::MAX`, which is out of range too.
        let code = if index < 0.0 {
            None
        } else {
            self.codes.get(index as usize)
        };
        code.ok_or(HdcError::CategoryOutOfRange {
            categories: self.codes.len(),
            value,
        })
    }

    /// Borrowing accessor (no clone), for read-only comparisons.
    #[must_use]
    pub fn code(&self, category: usize) -> Option<&BinaryHypervector> {
        self.codes.get(category)
    }

    /// Remaps this encoder onto the bits retained by `selection` by
    /// gathering every category code:
    /// `pruned.encode(c) == selection.gather(self.encode(c))` bit-exactly.
    pub fn prune(&self, selection: &crate::distill::BitSelection) -> Result<Self, HdcError> {
        let codes = self
            .codes
            .iter()
            .map(|c| selection.gather_hypervector(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { codes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_categories_rejected() {
        assert!(CategoricalEncoder::new(Dim::PAPER, 0, 1).is_err());
    }

    #[test]
    fn binary_codes_are_orthogonal_and_balanced() {
        let e = CategoricalEncoder::binary(Dim::PAPER, 99).unwrap();
        let no = e.encode(0).unwrap();
        let yes = e.encode(1).unwrap();
        assert_eq!(no.try_hamming(&yes).unwrap(), Dim::PAPER.get() / 2);
        assert_eq!(no.count_ones(), 5_000);
        assert_eq!(yes.count_ones(), 5_000);
    }

    #[test]
    fn many_categories_are_pairwise_quasi_orthogonal() {
        let e = CategoricalEncoder::new(Dim::PAPER, 6, 5).unwrap();
        for a in 0..6 {
            for b in (a + 1)..6 {
                let d = e.code(a).unwrap().try_hamming(e.code(b).unwrap()).unwrap();
                assert!(
                    (4_300..=5_700).contains(&d),
                    "categories {a},{b} distance {d} not quasi-orthogonal"
                );
            }
        }
    }

    #[test]
    fn out_of_range_category_errors() {
        let e = CategoricalEncoder::binary(Dim::new(64), 1).unwrap();
        assert!(e.encode(2).is_err());
        assert!(matches!(
            e.encode(usize::MAX),
            Err(HdcError::CategoryOutOfRange { categories: 2, .. })
        ));
        assert!(e.code(2).is_none());
        assert_eq!(e.n_categories(), 2);
    }

    #[test]
    fn out_of_range_value_names_the_value_not_an_arity() {
        let e = CategoricalEncoder::binary(Dim::new(64), 1).unwrap();
        for value in [5.0, -3.0, 1e20] {
            let err = e.code_of_value(value).unwrap_err();
            assert_eq!(
                err,
                HdcError::CategoryOutOfRange {
                    categories: 2,
                    value
                }
            );
            let message = err.to_string();
            assert!(message.contains(&value.to_string()), "{message}");
            assert!(message.contains("0..2"), "{message}");
            assert!(!message.contains("schema"), "{message}");
        }
        assert!(e.code_of_value(1.4).is_ok());
        assert!(e.code_of_value(-0.4).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CategoricalEncoder::binary(Dim::new(512), 42).unwrap();
        let b = CategoricalEncoder::binary(Dim::new(512), 42).unwrap();
        let c = CategoricalEncoder::binary(Dim::new(512), 43).unwrap();
        assert_eq!(a.encode(1).unwrap(), b.encode(1).unwrap());
        assert_ne!(a.encode(1).unwrap(), c.encode(1).unwrap());
    }
}
