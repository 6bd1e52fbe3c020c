//! The one signed per-bit class counter: class prototypes for the online
//! trainers, the clinical risk scorer and the serving store.
//!
//! Each class keeps a signed per-bit count of *set* contributions plus one
//! scalar total weight. For a class whose examples were added with signed
//! weights `w`, the classic centroid superposition at bit `i` (set → `+w`,
//! clear → `-w`) is recoverable as `s_i = 2·ones_i − total`, so the
//! centroid quantisation rule `s_i ≥ 0` becomes `2·ones_i ≥ total` — ties
//! still quantise to 1, bit-identical to the per-bit oracle
//! [`crate::reference::centroid_prototypes`].
//!
//! Storing set-counts instead of full ±1 superpositions is what makes the
//! online path cheap: an update adds the weight to the counts of the
//! incoming hypervector's *set* bits — a branch-free masked add, eight
//! counters per byte of packed words — plus a single scalar total.
//!
//! A batch of records with weight +1 ([`ClassAccumulators::add_batch`])
//! is counted first, per class, in the bit-sliced planes of a
//! [`Bundler`]: a word-wide ripple per record. Plane `p` then adds into
//! the counters with weight `2^p`, so the masked add runs once per plane,
//! `bit_length(records in the class)` times, instead of once per record.
//!
//! Requantising a class is the other cost: `quantize_into` packs 64
//! threshold compares into each prototype word, and `add_batch`
//! requantises each touched class once per batch instead of once per
//! record.

use std::borrow::Borrow;

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim, WORD_BITS};
use crate::bundle::Bundler;
use crate::error::HdcError;

/// Quantises per-bit counts against a class total into `proto`, in place:
/// bit `i` is set iff `2·counts[i] ≥ total`, so ties quantise to 1.
///
/// The compare runs in `i64`, so it is exact for every `i32` count and
/// total (in `i32`, `2·count` overflows once a count passes 2^30). Each
/// output word packs the compares of 64 consecutive counts, and with one
/// count per bit the final word's bits at or above `dim` stay zero.
pub(crate) fn quantize_into(counts: &[i32], total: i32, proto: &mut BinaryHypervector) {
    let dim = proto.dim();
    debug_assert_eq!(counts.len(), dim.get(), "one count per bit");
    let total = i64::from(total);
    for (word, chunk) in proto.words_mut().iter_mut().zip(counts.chunks(WORD_BITS)) {
        *word = chunk.iter().enumerate().fold(0u64, |packed, (j, &count)| {
            packed | (u64::from(2 * i64::from(count) >= total) << j)
        });
    }
    debug_assert_tail_invariant(dim, proto.words());
}

/// `BIT_MASKS[b][j]` is `-1` (all ones) when bit `j` of byte `b` is set
/// and `0` otherwise; ANDed with a weight it yields the weight or zero.
static BIT_MASKS: [[i32; 8]; 256] = build_bit_masks();

const fn build_bit_masks() -> [[i32; 8]; 256] {
    let mut table = [[0i32; 8]; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut j = 0usize;
        while j < 8 {
            // lint: index-ok (byte < 256 and j < 8 by the loop bounds)
            table[byte][j] = if (byte >> j) & 1 == 1 { -1 } else { 0 };
            j += 1;
        }
        byte += 1;
    }
    table
}

/// Adds `weight` to `ones[i]` for every set bit `i` of the packed `words`
/// (a hypervector, or one counter plane). Each byte of the words selects a
/// row of eight lane masks, so the update is a branch-free masked add over
/// the counters, eight at a time, whatever the density.
fn scatter(ones: &mut [i32], words: &[u64], weight: i32) {
    let mut lanes = ones.chunks_exact_mut(8);
    let mut bytes = words.iter().flat_map(|w| w.to_le_bytes());
    for (lane, byte) in (&mut lanes).zip(&mut bytes) {
        add_masked(lane, byte, weight);
    }
    // A dim that is not a multiple of 8 leaves a short final group of
    // counters, covered by the next byte.
    if let Some(byte) = bytes.next() {
        add_masked(lanes.into_remainder(), byte, weight);
    }
}

/// Adds `weight` to each of up to eight `counts` whose bit in `byte` is set.
// lint: index-ok (a u8 widened to usize is < 256, the table length)
fn add_masked(counts: &mut [i32], byte: u8, weight: i32) {
    for (count, &mask) in counts.iter_mut().zip(&BIT_MASKS[usize::from(byte)]) {
        *count += mask & weight;
    }
}

/// Most classes a [`ClassAccumulators`] holds: labels run
/// `0..MAX_CLASSES`. A class keeps one `i32` count per bit and a packed
/// prototype, about 41 KB at 10,000 bits, so the limit caps the counters
/// at about 169 MB there. A label past it is a malformed record, not a
/// class to allocate: without the cap a label near `u32::MAX` asked for
/// billions of counters, and `usize::MAX` wrapped the class count to 0.
pub const MAX_CLASSES: usize = 4096;

/// Integer class superpositions with per-class quantised prototypes.
///
/// Invariant: `ones`, `totals` and `prototypes` always have the same
/// length, every `ones[c]` has `dim` entries, and `prototypes[c]` is the
/// quantisation of class `c`'s current accumulator state.
///
/// The type is public so serving-plane stores can snapshot trainer state:
/// [`ClassAccumulators::parts`] exposes the raw integer accumulators for
/// serialization and [`ClassAccumulators::from_parts`] revalidates and
/// requantises them on load.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClassAccumulators {
    dim: Dim,
    /// Per class, per bit: signed sum of weights of contributions whose
    /// hypervector had that bit *set*.
    ones: Vec<Vec<i32>>,
    /// Per class: signed sum of all contribution weights.
    totals: Vec<i32>,
    /// Quantised prototypes, requantised per touched class.
    prototypes: Vec<BinaryHypervector>,
}

impl ClassAccumulators {
    /// Creates an empty accumulator set for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            ones: Vec::new(),
            totals: Vec::new(),
            prototypes: Vec::new(),
        }
    }

    /// The hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of classes currently allocated.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.ones.len()
    }

    /// Discards all accumulated state, keeping the dimensionality.
    pub fn reset(&mut self) {
        self.ones.clear();
        self.totals.clear();
        self.prototypes.clear();
    }

    /// Returns a typed error unless `hv` matches the configured dimension.
    pub fn check_dim(&self, hv: &BinaryHypervector) -> Result<(), HdcError> {
        if hv.dim() == self.dim {
            Ok(())
        } else {
            Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            })
        }
    }

    /// Returns [`HdcError::ClassLimit`] unless `label` is below
    /// [`MAX_CLASSES`].
    pub fn check_label(label: usize) -> Result<(), HdcError> {
        if label < MAX_CLASSES {
            Ok(())
        } else {
            Err(HdcError::ClassLimit {
                label,
                limit: MAX_CLASSES,
            })
        }
    }

    /// Grows the class set so `label` is addressable. New classes start
    /// with a zero superposition, which quantises to all-ones under the
    /// `2·ones ≥ total` tie rule (0 ≥ 0). A label at or past
    /// [`MAX_CLASSES`] returns [`HdcError::ClassLimit`] with nothing
    /// changed.
    pub fn grow(&mut self, label: usize) -> Result<(), HdcError> {
        Self::check_label(label)?;
        if label >= self.ones.len() {
            self.ones.resize(label + 1, vec![0i32; self.dim.get()]);
            self.totals.resize(label + 1, 0);
            self.prototypes
                .resize(label + 1, BinaryHypervector::ones(self.dim));
        }
        Ok(())
    }

    /// Adds `hv` to class `class` with signed `weight` and requantises that
    /// class's prototype (only that one — classes quantise independently).
    pub fn add(&mut self, class: usize, hv: &BinaryHypervector, weight: i32) {
        debug_assert!(class < self.ones.len(), "grow() must precede add()");
        let Some(ones) = self.ones.get_mut(class) else {
            return;
        };
        scatter(ones, hv.words(), weight);
        if let Some(total) = self.totals.get_mut(class) {
            *total += weight;
        }
        self.requantize_class(class);
    }

    /// Adds every record to the class its label names, with weight +1,
    /// then requantises each touched class once. The result equals one
    /// [`ClassAccumulators::grow`] + [`ClassAccumulators::add`] per
    /// record, without a masked add or a whole-prototype requantise per
    /// record: each class's records are counted in a [`Bundler`] first,
    /// and its planes are added with weights `1, 2, 4, …`.
    ///
    /// All-or-nothing: the label count, every record's dimensionality, the
    /// largest label (below [`MAX_CLASSES`], else [`HdcError::ClassLimit`])
    /// and each class's record count (at most `i32::MAX`, else
    /// [`HdcError::VoteOverflow`]) are checked before the first count
    /// changes, so an error leaves the accumulators untouched. Classes grow
    /// to cover the largest label.
    pub fn add_batch<R: Borrow<BinaryHypervector>>(
        &mut self,
        records: &[R],
        labels: &[usize],
    ) -> Result<(), HdcError> {
        if records.len() != labels.len() {
            return Err(HdcError::LabelLengthMismatch {
                samples: records.len(),
                labels: labels.len(),
            });
        }
        for hv in records {
            self.check_dim(hv.borrow())?;
        }
        let Some(&max_label) = labels.iter().max() else {
            return Ok(());
        };
        Self::check_label(max_label)?;
        let mut counts = vec![Bundler::new(self.dim); max_label + 1];
        for (hv, &label) in records.iter().zip(labels) {
            if let Some(count) = counts.get_mut(label) {
                count.push_words(hv.borrow().words(), 1)?;
            }
        }
        let votes = counts
            .iter()
            .map(|count| {
                i32::try_from(count.votes()).map_err(|_| HdcError::VoteOverflow {
                    votes: u64::from(count.votes()),
                    limit: u64::from(i32::MAX.unsigned_abs()),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.grow(max_label)?;
        for (class, (count, &n)) in counts.iter().zip(&votes).enumerate() {
            if n == 0 {
                continue;
            }
            if let (Some(ones), Some(total)) =
                (self.ones.get_mut(class), self.totals.get_mut(class))
            {
                // Plane p holds bit p of each count; a count below 2^31
                // has planes 0..=30, so 2^p fits an i32.
                for (p, plane) in count.planes().enumerate() {
                    scatter(ones, plane, 1 << p);
                }
                *total += n;
            }
            self.requantize_class(class);
        }
        Ok(())
    }

    /// Adds every count of `other` into `self`, class by class, growing
    /// the class set to cover `other`'s, and requantises the classes
    /// `other` holds. Accumulating two halves of a stream and merging them
    /// equals accumulating the whole stream.
    pub fn merge(&mut self, other: &Self) -> Result<(), HdcError> {
        if other.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: other.dim.get(),
            });
        }
        let Some(last) = other.n_classes().checked_sub(1) else {
            return Ok(());
        };
        self.grow(last)?;
        for (sum, add) in self.ones.iter_mut().zip(&other.ones) {
            for (a, b) in sum.iter_mut().zip(add) {
                *a += b;
            }
        }
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
        for class in 0..other.n_classes() {
            self.requantize_class(class);
        }
        Ok(())
    }

    /// Rebuilds the quantised prototype of one class from its accumulators,
    /// in place.
    fn requantize_class(&mut self, class: usize) {
        if let (Some(ones), Some(&total), Some(proto)) = (
            self.ones.get(class),
            self.totals.get(class),
            self.prototypes.get_mut(class),
        ) {
            quantize_into(ones, total, proto);
        }
    }

    /// The quantised prototype of `class`, if allocated.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        self.prototypes.get(class)
    }

    /// Hamming distance from `query` to every class prototype.
    pub fn hammings(&self, query: &BinaryHypervector) -> Result<Vec<usize>, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        self.prototypes
            .iter()
            .map(|p| query.try_hamming(p))
            .collect()
    }

    /// Nearest-prototype prediction; ties break to the lowest class index.
    pub fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        let mut best = (usize::MAX, 0usize);
        for (c, proto) in self.prototypes.iter().enumerate() {
            let d = query.try_hamming(proto)?;
            if d < best.0 {
                best = (d, c);
            }
        }
        Ok(best.1)
    }

    /// The raw accumulator state — per-class set-bit counts and scalar
    /// totals — for serialization. Prototypes are derived state and are
    /// deliberately not exposed: [`ClassAccumulators::from_parts`]
    /// recomputes them, so a snapshot cannot smuggle in a prototype that
    /// disagrees with its accumulators.
    #[must_use]
    pub fn parts(&self) -> (&[Vec<i32>], &[i32]) {
        (&self.ones, &self.totals)
    }

    /// Rebuilds an accumulator set from raw parts, revalidating every
    /// invariant: `ones` and `totals` must have the same class count, at
    /// most [`MAX_CLASSES`], and every per-class count vector must have
    /// exactly `dim` entries. Prototypes are requantised from scratch.
    pub fn from_parts(dim: Dim, ones: Vec<Vec<i32>>, totals: Vec<i32>) -> Result<Self, HdcError> {
        if ones.len() != totals.len() {
            return Err(HdcError::InvalidConfig(format!(
                "accumulator parts disagree on class count: {} ones vectors vs {} totals",
                ones.len(),
                totals.len()
            )));
        }
        if let Some(last) = ones.len().checked_sub(1) {
            Self::check_label(last)?;
        }
        if let Some((bad, class_ones)) = ones.iter().enumerate().find(|(_, o)| o.len() != dim.get())
        {
            return Err(HdcError::InvalidConfig(format!(
                "accumulator class {bad} has {} per-bit counts, expected dim {dim}",
                class_ones.len()
            )));
        }
        let prototypes = ones
            .iter()
            .zip(&totals)
            .map(|(class_ones, &total)| {
                let mut proto = BinaryHypervector::zeros(dim);
                quantize_into(class_ones, total, &mut proto);
                proto
            })
            .collect();
        Ok(Self {
            dim,
            ones,
            totals,
            prototypes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn hv(dim: Dim, bits: &[usize]) -> BinaryHypervector {
        let mut v = BinaryHypervector::zeros(dim);
        for &b in bits {
            v.set(b, true);
        }
        v
    }

    #[test]
    fn zero_class_quantises_to_all_ones() {
        let dim = Dim::new(70);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(0).unwrap();
        assert_eq!(acc.prototype(0).unwrap(), &BinaryHypervector::ones(dim));
    }

    #[test]
    fn add_matches_centroid_sign_rule() {
        // Two examples: bit 3 set twice (s=+2 → 1), bit 5 set once
        // (s=0, tie → 1), bit 7 never set (s=-2 → 0).
        let dim = Dim::new(64);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(0).unwrap();
        acc.add(0, &hv(dim, &[3, 5]), 1);
        acc.add(0, &hv(dim, &[3]), 1);
        let p = acc.prototype(0).unwrap();
        assert!(p.get(3));
        assert!(p.get(5));
        assert!(!p.get(7));
        // The rule is the majority bundle of the members, ties to 1.
        let members = [hv(dim, &[3, 5]), hv(dim, &[3])];
        assert_eq!(p, &crate::bundle::try_majority(&members).unwrap());
    }

    #[test]
    fn subtract_reverses_add() {
        let dim = Dim::new(130);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(1).unwrap();
        let x = hv(dim, &[0, 64, 129]);
        let before = acc.prototype(1).unwrap().clone();
        acc.add(1, &x, 3);
        acc.add(1, &x, -3);
        assert_eq!(acc.prototype(1).unwrap(), &before);
    }

    #[test]
    fn predict_breaks_ties_to_lowest_class() {
        let dim = Dim::new(64);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(1).unwrap();
        // Both classes still hold the all-ones prototype: equidistant.
        assert_eq!(acc.predict(&hv(dim, &[1])).unwrap(), 0);
    }

    #[test]
    fn unfitted_predict_errors() {
        let acc = ClassAccumulators::new(Dim::new(64));
        let q = BinaryHypervector::zeros(Dim::new(64));
        assert_eq!(acc.predict(&q), Err(HdcError::NotFitted));
        assert_eq!(acc.hammings(&q), Err(HdcError::NotFitted));
    }

    #[test]
    fn scatter_adds_the_weight_at_exactly_the_set_bits() {
        let mut rng = SplitMix64::new(17);
        for dim in [1usize, 7, 8, 9, 63, 64, 65, 130, 10_050] {
            let d = Dim::new(dim);
            let start: Vec<i32> = (0..dim).map(|i| i as i32 - 5).collect();
            for weight in [1, -3, 1 << 20] {
                let hv = BinaryHypervector::random(d, &mut rng);
                let mut ones = start.clone();
                scatter(&mut ones, hv.words(), weight);
                let expected: Vec<i32> = start
                    .iter()
                    .enumerate()
                    .map(|(i, &o)| if hv.get(i) { o + weight } else { o })
                    .collect();
                assert_eq!(ones, expected, "dim {dim}, weight {weight}");
            }
        }
    }

    #[test]
    fn quantize_kernel_matches_the_i64_rule_at_the_extremes() {
        let extremes = [
            i32::MIN,
            i32::MIN + 1,
            -(1 << 30) - 1,
            -(1 << 30),
            -1,
            0,
            1,
            1 << 30,
            (1 << 30) + 1,
            i32::MAX - 1,
            i32::MAX,
        ];
        let mut rng = SplitMix64::new(3);
        for dim in [1usize, 63, 64, 65, 130, 10_050] {
            let counts: Vec<i32> = (0..dim)
                .map(|_| {
                    let pick = rng.next_u64();
                    if pick % 2 == 0 {
                        extremes[(pick / 2 % extremes.len() as u64) as usize]
                    } else {
                        (pick >> 32) as u32 as i32
                    }
                })
                .collect();
            for total in extremes {
                // Start from all ones: every bit must be written.
                let mut proto = BinaryHypervector::ones(Dim::new(dim));
                quantize_into(&counts, total, &mut proto);
                let oracle = BinaryHypervector::from_bits(
                    Dim::new(dim),
                    counts.iter().map(|&c| 2 * i64::from(c) >= i64::from(total)),
                )
                .unwrap();
                assert_eq!(proto, oracle, "dim {dim}, total {total}");
            }
        }
    }

    #[test]
    fn from_parts_quantises_counts_past_2_pow_30_exactly() {
        // Every member of class 0 set every bit, so its counts equal its
        // total, 2^30 + 1. The i32 rule `2 * count >= total` overflowed
        // here: a panic in debug builds and an all-zeros prototype in
        // release. No member of class 1 set any bit.
        let dim = Dim::new(70);
        let big = (1 << 30) + 1;
        let acc =
            ClassAccumulators::from_parts(dim, vec![vec![big; 70], vec![0; 70]], vec![big, big])
                .unwrap();
        assert_eq!(acc.prototype(0).unwrap(), &BinaryHypervector::ones(dim));
        assert_eq!(acc.prototype(1).unwrap(), &BinaryHypervector::zeros(dim));
    }

    #[test]
    fn add_batch_validates_everything_before_mutating() {
        let dim = Dim::new(64);
        let mut acc = ClassAccumulators::new(dim);
        acc.add_batch(&[hv(dim, &[1, 2])], &[0]).unwrap();
        let before = acc.clone();
        // A bad record anywhere in the batch rejects the whole batch, even
        // one whose label would have grown the class set.
        let batch = [hv(dim, &[3]), BinaryHypervector::zeros(Dim::new(65))];
        assert!(matches!(
            acc.add_batch(&batch, &[5, 0]),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            acc.add_batch(&batch[..1], &[0, 1]),
            Err(HdcError::LabelLengthMismatch { .. })
        ));
        assert_eq!(acc, before);
        assert_eq!(acc.n_classes(), 1);
    }

    #[test]
    fn labels_stop_at_the_class_limit_with_nothing_changed() {
        let dim = Dim::new(64);
        let x = hv(dim, &[1, 2]);
        let pair = [x.clone(), x];
        let one = &pair[..1];
        let limit = HdcError::ClassLimit {
            label: MAX_CLASSES,
            limit: MAX_CLASSES,
        };
        let huge = HdcError::ClassLimit {
            label: usize::MAX,
            limit: MAX_CLASSES,
        };

        // The last label the limit allows grows the set to the limit.
        let mut acc = ClassAccumulators::new(dim);
        acc.add_batch(one, &[MAX_CLASSES - 1]).unwrap();
        assert_eq!(acc.n_classes(), MAX_CLASSES);
        assert_eq!(acc.parts().1[MAX_CLASSES - 1], 1);
        let mut grown = ClassAccumulators::new(dim);
        grown.grow(MAX_CLASSES - 1).unwrap();
        assert_eq!(grown.n_classes(), MAX_CLASSES);

        // One past it, and `usize::MAX` (whose `+ 1` wraps to 0), are
        // rejected before any count or class changes.
        let mut acc = ClassAccumulators::new(dim);
        acc.add_batch(one, &[0]).unwrap();
        let before = acc.clone();
        assert_eq!(acc.add_batch(one, &[MAX_CLASSES]), Err(limit.clone()));
        assert_eq!(acc.add_batch(&pair, &[0, usize::MAX]), Err(huge.clone()));
        assert_eq!(acc.grow(MAX_CLASSES), Err(limit));
        assert_eq!(acc.grow(usize::MAX), Err(huge));
        assert_eq!(acc, before);
        assert_eq!(acc.n_classes(), 1);

        // A snapshot's parts obey the same limit.
        let parts = |classes: usize| {
            ClassAccumulators::from_parts(dim, vec![vec![0; 64]; classes], vec![0; classes])
        };
        assert_eq!(parts(MAX_CLASSES).unwrap().n_classes(), MAX_CLASSES);
        assert!(matches!(
            parts(MAX_CLASSES + 1),
            Err(HdcError::ClassLimit { label, .. }) if label == MAX_CLASSES
        ));
    }
}
