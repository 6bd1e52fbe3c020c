//! Percentiles over timing samples.

/// Samples of one timing, kept whole so any percentile can be taken.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The `p`-th percentile (`0.0..=100.0`), 0 when there are no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_of_sorted(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// Percentile by linear interpolation between the two nearest ranks (the
/// rule of numpy's default `percentile`): rank `p/100 · (n − 1)`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(percentile_of_sorted(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile_of_sorted(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn extremes_are_the_minimum_and_maximum() {
        let sorted = [3.0, 5.0, 8.0, 13.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 3.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 13.0);
        // Out-of-range requests clamp instead of indexing out of bounds.
        assert_eq!(percentile_of_sorted(&sorted, 250.0), 13.0);
    }

    #[test]
    fn p99_of_a_hundred_and_one_samples_is_the_hundredth() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&sorted, 99.0), 99.0);
        assert!((percentile_of_sorted(&sorted, 99.5) - 99.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample_sets() {
        assert_eq!(percentile_of_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_of_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn samples_sort_before_taking_percentiles() {
        let mut s = Samples::default();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.sorted(), vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.percentile(25.0), 3.0);
    }
}
