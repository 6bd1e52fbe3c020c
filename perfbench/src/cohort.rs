//! Seeded inputs: Pima-shaped cohorts of any size.

use hyperfex_data::impute::impute_class_median;
use hyperfex_data::pima::{self, PimaConfig};
use hyperfex_data::Table;

use crate::harness::Fallible;

/// A class-median-imputed Pima-shaped cohort of `n` records. Class sizes
/// and complete-case counts keep the published cohort's proportions
/// (500 negative / 268 positive; 262 / 130 complete cases), so the
/// imputation does the same share of work as on the real data.
pub fn pima_like(n: usize, seed: u64) -> Fallible<Table> {
    let n_negative = (n * 500).div_ceil(768);
    let n_positive = n - n_negative;
    let raw = pima::generate(&PimaConfig {
        seed,
        n_negative,
        n_positive,
        complete_cases: (n_negative * 262 / 500, n_positive * 130 / 268),
        ..PimaConfig::default()
    })?;
    Ok(impute_class_median(&raw)?)
}

/// An independent seed for one input stream of a run, so the bank, the
/// held-out queries and the ingest records never share a generator state.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_cohort_has_the_requested_size_and_no_missing_values() {
        let t = pima_like(1_000, 3).unwrap();
        assert_eq!(t.n_rows(), 1_000);
        assert_eq!(t.n_negative(), 652);
        assert_eq!(t.n_missing(), 0);
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
    }
}
