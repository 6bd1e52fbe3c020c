//! Scalar (bit-at-a-time) reference implementations of the word-level
//! kernels.
//!
//! Every routine here is the naive per-bit formulation of an operation that
//! [`crate::binary`], [`crate::bundle`], [`crate::encoding`] or
//! [`crate::classify`] implements with packed word arithmetic. They are
//! deliberately simple enough to audit by eye and serve as oracles:
//! property tests assert bit-for-bit equality between each kernel and its
//! scalar reference across dimensionalities, including non-multiple-of-64
//! tail-word cases.

use crate::binary::{BinaryHypervector, Dim};
use crate::bitmatrix::BitMatrix;
use crate::distill::BitSelection;
use crate::encoding::LinearEncoder;
use crate::error::HdcError;

/// Per-bit cyclic rotation: bit `i` of the input moves to `(i + k) % d`.
#[must_use]
pub fn permute(hv: &BinaryHypervector, k: usize) -> BinaryHypervector {
    let d = hv.len();
    let k = k % d;
    let mut out = BinaryHypervector::zeros(hv.dim());
    for i in 0..d {
        if hv.get(i) {
            out.set((i + k) % d, true);
        }
    }
    out
}

/// Per-bit level encoding: clone the seed, then flip the first
/// `flips/2` entries of each flip list one bit at a time.
#[must_use]
pub fn linear_encode(enc: &LinearEncoder, t: f64) -> BinaryHypervector {
    let half = enc.flips_for(t) / 2;
    let (ones, zeros) = enc.flip_order();
    let mut hv = enc.seed_hypervector().clone();
    for &i in &ones[..half] {
        hv.flip(i as usize);
    }
    for &i in &zeros[..half] {
        hv.flip(i as usize);
    }
    hv
}

/// Per-bit weighted majority vote with the paper's tie → 1 rule: bit `i`
/// of the result is 1 iff `2·Σ weightⱼ·bitⱼᵢ ≥ Σ weightⱼ`.
pub fn weighted_majority(
    inputs: &[(BinaryHypervector, u32)],
) -> Result<BinaryHypervector, HdcError> {
    let (first, _) = inputs.first().ok_or(HdcError::EmptyInput)?;
    let dim = first.dim();
    let mut total = 0u64;
    for (hv, w) in inputs {
        if hv.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: hv.dim().get(),
            });
        }
        total += u64::from(*w);
    }
    if total == 0 {
        return Err(HdcError::EmptyInput);
    }
    let mut out = BinaryHypervector::zeros(dim);
    for i in 0..dim.get() {
        let count: u64 = inputs
            .iter()
            .filter(|(hv, _)| hv.get(i))
            .map(|(_, w)| u64::from(*w))
            .sum();
        if 2 * count >= total {
            out.set(i, true);
        }
    }
    Ok(out)
}

/// Per-bit unweighted majority vote (every input carries one vote).
pub fn majority(inputs: &[BinaryHypervector]) -> Result<BinaryHypervector, HdcError> {
    let weighted: Vec<(BinaryHypervector, u32)> = inputs.iter().map(|hv| (hv.clone(), 1)).collect();
    weighted_majority(&weighted)
}

/// Per-bit class superpositions, built one bit at a time: `sums[c][i]`
/// counts each class-`c` member with bit `i` set as +1 and each with it
/// clear as −1. There are `max(labels) + 1` classes.
#[must_use]
pub fn centroid_sums(
    dim: Dim,
    hypervectors: &[BinaryHypervector],
    labels: &[usize],
) -> Vec<Vec<i32>> {
    let n_classes = labels.iter().max().map_or(0, |&m| m + 1);
    let mut sums = vec![vec![0i32; dim.get()]; n_classes];
    for (hv, &label) in hypervectors.iter().zip(labels) {
        add_signed_bits(&mut sums[label], hv, 1);
    }
    sums
}

/// Adds `sign` at every set bit of `hv` and `−sign` at every clear one.
fn add_signed_bits(sum: &mut [i32], hv: &BinaryHypervector, sign: i32) {
    for (i, s) in sum.iter_mut().enumerate() {
        *s += if hv.get(i) { sign } else { -sign };
    }
}

/// Sign prototypes of per-bit superpositions: bit `i` of class `c` is set
/// iff `sums[c][i] ≥ 0`, so a tie quantises to 1.
#[must_use]
pub fn centroid_prototypes(dim: Dim, sums: &[Vec<i32>]) -> Vec<BinaryHypervector> {
    sums.iter()
        .map(|sum| {
            let mut proto = BinaryHypervector::zeros(dim);
            for (i, &s) in sum.iter().enumerate() {
                proto.set(i, s >= 0);
            }
            proto
        })
        .collect()
}

/// The prototype nearest to `query` under per-bit Hamming distance, ties
/// to the lower class.
#[must_use]
pub fn nearest_prototype(prototypes: &[BinaryHypervector], query: &BinaryHypervector) -> usize {
    let mut best = (usize::MAX, 0);
    for (c, proto) in prototypes.iter().enumerate() {
        let d = (0..query.len())
            .filter(|&i| query.get(i) != proto.get(i))
            .count();
        if d < best.0 {
            best = (d, c);
        }
    }
    best.1
}

/// One raw perceptron pass over `(hypervectors, labels)`: each example is
/// predicted against the sign prototypes of the current `sums`, and a
/// mistake adds it to its true class superposition and subtracts it from
/// the predicted one. Returns the number of mistakes. Every label must
/// index `sums`.
pub fn centroid_retrain_epoch(
    dim: Dim,
    sums: &mut [Vec<i32>],
    hypervectors: &[BinaryHypervector],
    labels: &[usize],
) -> usize {
    let mut mistakes = 0;
    for (hv, &label) in hypervectors.iter().zip(labels) {
        let predicted = nearest_prototype(&centroid_prototypes(dim, sums), hv);
        if predicted != label {
            add_signed_bits(&mut sums[label], hv, 1);
            add_signed_bits(&mut sums[predicted], hv, -1);
            mistakes += 1;
        }
    }
    mistakes
}

/// Per-bit dot product of two [`BitMatrix`] rows: counts positions where
/// both bits are set, one bit at a time.
#[must_use]
pub fn popcount_dot(m: &BitMatrix, a: usize, b: usize) -> usize {
    (0..m.dim().get())
        .filter(|&c| m.get(a, c) && m.get(b, c))
        .count()
}

/// Per-bit Hamming distance between two [`BitMatrix`] rows.
#[must_use]
pub fn row_hamming(m: &BitMatrix, a: usize, b: usize) -> usize {
    (0..m.dim().get())
        .filter(|&c| m.get(a, c) != m.get(b, c))
        .count()
}

/// Per-bit weighted sum of a [`BitMatrix`] row: `Σⱼ wⱼ·xⱼ` accumulated in
/// naive left-to-right order. The word-level kernel uses four accumulator
/// lanes, so parity tests against this oracle must allow a relative
/// floating-point tolerance.
#[must_use]
pub fn masked_weight_sum(m: &BitMatrix, row: usize, weights: &[f64]) -> f64 {
    (0..m.dim().get())
        .filter(|&c| m.get(row, c))
        .map(|c| weights[c])
        .sum()
}

/// Per-bit signed sum of a [`BitMatrix`] row relative to a reference
/// row: `+wⱼ` for every bit set in the row but not the reference, `−wⱼ`
/// for every bit set in the reference but not the row, accumulated in
/// naive left-to-right order. [`crate::bitmatrix::RelativeRows::weight_sum`]
/// uses four accumulator lanes, so parity tests against this oracle must
/// allow a relative floating-point tolerance.
#[must_use]
pub fn relative_weight_sum(
    m: &BitMatrix,
    row: usize,
    reference: &BinaryHypervector,
    weights: &[f64],
) -> f64 {
    let mut sum = 0.0;
    for (c, &w) in weights.iter().enumerate().take(m.dim().get()) {
        match (m.get(row, c), reference.get(c)) {
            (true, false) => sum += w,
            (false, true) => sum -= w,
            _ => {}
        }
    }
    sum
}

/// Per-bit signed scatter oracle: `out[c] += delta` for every bit set in
/// the [`BitMatrix`] row but not the reference, `out[c] -= delta` for
/// every bit set in the reference but not the row. Each element takes at
/// most one add in [`crate::bitmatrix::RelativeRows::scatter_add`] and the
/// oracle alike, so parity tests may use bit equality.
pub fn relative_scatter_add(
    m: &BitMatrix,
    row: usize,
    reference: &BinaryHypervector,
    delta: f64,
    out: &mut [f64],
) {
    for (c, o) in out.iter_mut().enumerate().take(m.dim().get()) {
        match (m.get(row, c), reference.get(c)) {
            (true, false) => *o += delta,
            (false, true) => *o -= delta,
            _ => {}
        }
    }
}

/// Per-bit column gather: output bit `p` is input bit `selection.indices()[p]`,
/// read and written one bit at a time.
#[must_use]
pub fn gather_hypervector(selection: &BitSelection, hv: &BinaryHypervector) -> BinaryHypervector {
    let mut out = BinaryHypervector::zeros(selection.dim());
    for (p, &i) in selection.indices().iter().enumerate() {
        out.set(p, hv.get(i as usize));
    }
    out
}

/// Per-bit column gather over a [`BitMatrix`]: every row is gathered
/// independently with [`gather_hypervector`] semantics.
#[must_use]
pub fn gather_matrix(selection: &BitSelection, m: &BitMatrix) -> BitMatrix {
    let mut out = BitMatrix::zeros(m.n_rows(), selection.dim());
    for r in 0..m.n_rows() {
        for (p, &i) in selection.indices().iter().enumerate() {
            out.set(r, p, m.get(r, i as usize));
        }
    }
    out
}

/// Per-bit symmetric pairwise Hamming matrix, row-major `n·n` entries.
#[must_use]
pub fn pairwise_hamming(m: &BitMatrix) -> Vec<u32> {
    let n = m.n_rows();
    let mut out = vec![0u32; n * n];
    for i in 0..n {
        for j in 0..n {
            out[i * n + j] = row_hamming(m, i, j) as u32;
        }
    }
    out
}

/// Leave-one-out k-NN, one held-out row at a time: each row's `k` nearest
/// *other* rows in `(distance, index)` order, majority-voted by label with
/// ties toward the lower class. Returns `(prediction, nearest distance)`
/// per row.
///
/// The per-row formulation of [`crate::classify::LeaveOneOut`]'s
/// symmetric tiled sweep; it pins the neighbour order and vote rule.
/// Distances use the word kernel [`crate::bitmatrix::hamming_words`],
/// which is itself checked against the per-bit [`row_hamming`].
#[must_use]
pub fn loocv_sweep(
    hypervectors: &[BinaryHypervector],
    labels: &[usize],
    k: usize,
) -> Vec<(usize, usize)> {
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    (0..hypervectors.len())
        .map(|held_out| {
            let query = &hypervectors[held_out];
            let mut best: Vec<(usize, usize)> = Vec::with_capacity(k + 1);
            for (j, hv) in hypervectors.iter().enumerate() {
                if j == held_out {
                    continue;
                }
                let d = crate::bitmatrix::hamming_words(query.words(), hv.words());
                let pos = best.partition_point(|&(bd, bj)| (bd, bj) < (d, j));
                if pos < k {
                    best.insert(pos, (d, j));
                    best.truncate(k);
                }
            }
            let mut votes = vec![0u32; n_classes];
            for &(_, j) in &best {
                votes[labels[j]] += 1;
            }
            let prediction = votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map_or(0, |(c, _)| c);
            (prediction, best.first().map_or(0, |&(d, _)| d))
        })
        .collect()
}
