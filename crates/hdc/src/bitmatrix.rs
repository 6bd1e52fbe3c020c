//! Packed binary design matrix for the hybrid ML path.
//!
//! A [`BitMatrix`] stores an `n × d` matrix of bits row-major, each row
//! packed into `⌈d/64⌉` little-endian `u64` words exactly like
//! [`BinaryHypervector`]. It is the bridge between the HDC feature
//! extractor and the ML substrate: instead of unpacking every bit into an
//! `f32` cell, hypervector-trained models keep the design matrix in packed
//! form and run word-level popcount kernels — [`popcount_dot`],
//! [`masked_weight_sum`], [`pairwise_hamming`] and [`hamming_between`] —
//! over it. The k-nearest paths use [`hamming_within`], which stops
//! reading a row once its distance passes a bound, and a [`PivotTable`],
//! which bounds a row's distance from below without reading it. The
//! linear models' training loops walk each row relative to the cohort's
//! [`BitMatrix::majority_row`] instead, over [`RelativeRows`]: lists of
//! each row's differing bits, one byte per bit, built once per fit. A
//! level-encoded record differs from that row in far fewer bits than it
//! sets.
//!
//! Every row maintains the tail invariant: bits at or above `d` in the
//! final word of a row are zero, so popcounts over whole words are exact.
//! The scalar oracles for the kernels live in [`crate::reference`];
//! property tests assert parity over non-word-multiple dimensionalities.

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim, WORD_BITS};
use crate::bundle::Bundler;
use crate::error::HdcError;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Range;

/// A dense binary matrix of `n_rows × dim` bits, each row bit-packed into
/// `dim.words()` little-endian `u64` words.
///
/// Bit `(r, c)` lives at word `r * dim.words() + c / 64`, bit position
/// `c % 64`. Bits at or above `dim` in each row's final word are always
/// zero (the same tail invariant as [`BinaryHypervector`]), so word-level
/// popcounts over rows are exact.
///
/// Rows can be appended with [`BitMatrix::push_rows`]; the buffer grows
/// geometrically, so a matrix built by many small appends copies each row
/// O(1) times on average.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    n_rows: usize,
    dim: Dim,
    /// `n_rows * dim.words()` words; spare capacity beyond them is unused.
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zeros matrix.
    #[must_use]
    pub fn zeros(n_rows: usize, dim: Dim) -> Self {
        Self {
            n_rows,
            dim,
            words: vec![0u64; n_rows * dim.words()],
        }
    }

    /// Packs a slice of hypervectors into a matrix, one hypervector per
    /// row, copying whole storage words (no per-bit work).
    ///
    /// Returns an error if the slice mixes dimensionalities. An empty
    /// slice produces a `0 × dim`-less matrix of dimension 1 — callers
    /// that care should check [`BitMatrix::n_rows`].
    pub fn from_hypervectors(hypervectors: &[BinaryHypervector]) -> Result<Self, HdcError> {
        let Some(first) = hypervectors.first() else {
            return Err(HdcError::EmptyInput);
        };
        let dim = first.dim();
        for hv in hypervectors {
            if hv.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    left: dim.get(),
                    right: hv.dim().get(),
                });
            }
        }
        let wpr = dim.words();
        let mut words = vec![0u64; hypervectors.len() * wpr];
        for (dst, hv) in words.chunks_mut(wpr).zip(hypervectors) {
            dst.copy_from_slice(hv.words());
        }
        Ok(Self {
            n_rows: hypervectors.len(),
            dim,
            words,
        })
    }

    /// Reassembles a matrix from its raw packed words (the inverse of
    /// [`BitMatrix::raw_words`]) — the deserialization path for on-disk
    /// snapshot banks.
    ///
    /// Returns an error when the word count is not exactly
    /// `n_rows * dim.words()`, or when any row violates the tail
    /// invariant — a corrupted snapshot must be rejected here rather than
    /// silently poisoning every popcount kernel downstream.
    pub fn from_words(n_rows: usize, dim: Dim, words: Vec<u64>) -> Result<Self, HdcError> {
        let expected = n_rows * dim.words();
        if words.len() != expected {
            return Err(HdcError::InvalidConfig(format!(
                "bit-matrix word buffer has {} words, expected {expected} ({n_rows} rows x {} \
                 words/row)",
                words.len(),
                dim.words()
            )));
        }
        let tail = dim.tail_mask();
        for (r, row) in words.chunks(dim.words()).enumerate() {
            if row.last().is_some_and(|&last| last & !tail != 0) {
                return Err(HdcError::InvalidConfig(format!(
                    "bit-matrix row {r} has bits set at or above dim {dim} in its final word"
                )));
            }
        }
        Ok(Self { n_rows, dim, words })
    }

    /// Reserves storage for `additional` more rows exactly, without the
    /// geometric slack of [`BitMatrix::push_rows`] — for callers that know
    /// the size a matrix will fill to. Best effort: if the reservation
    /// cannot be made, nothing is reserved and appends grow as usual.
    pub fn reserve_rows(&mut self, additional: usize) {
        if let Some(words) = additional.checked_mul(self.dim.words()) {
            // lint: discard-ok (a failed reservation only forfeits the hint; push_rows still grows the buffer)
            let _ = self.words.try_reserve_exact(words);
        }
    }

    /// Appends `rows` after the existing rows, copying whole storage words.
    /// The buffer grows geometrically (as a `Vec` does), so repeated small
    /// appends cost amortized O(appended words) each rather than a rebuild
    /// of the whole matrix.
    ///
    /// All-or-nothing: returns an error, leaving the matrix unchanged, if
    /// any row's dimensionality differs from the matrix's.
    pub fn push_rows<R: Borrow<BinaryHypervector>>(&mut self, rows: &[R]) -> Result<(), HdcError> {
        for row in rows {
            let row: &BinaryHypervector = row.borrow();
            if row.dim() != self.dim {
                return Err(HdcError::DimensionMismatch {
                    left: self.dim.get(),
                    right: row.dim().get(),
                });
            }
        }
        self.words.reserve(rows.len() * self.dim.words());
        for row in rows {
            let row: &BinaryHypervector = row.borrow();
            self.words.extend_from_slice(row.words());
        }
        self.n_rows += rows.len();
        Ok(())
    }

    /// The full packed storage buffer, row-major (`n_rows * dim.words()`
    /// words) — the serialization path for on-disk snapshot banks.
    #[inline]
    #[must_use]
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Bit width of each row.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of storage words per row.
    #[inline]
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.dim.words()
    }

    /// The packed storage words of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= self.n_rows()`.
    #[inline]
    #[must_use]
    // lint: index-ok (the assert bounds r < n_rows, so the word range is in the buffer)
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(
            r < self.n_rows,
            "row index {r} out of range {}",
            self.n_rows
        );
        let wpr = self.dim.words();
        &self.words[r * wpr..(r + 1) * wpr]
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r >= self.n_rows()` or `c >= self.dim().get()`.
    #[inline]
    #[must_use]
    // lint: index-ok (row_words is bounds-checked and the assert bounds c < dim)
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            c < self.dim.get(),
            "bit index {c} out of range {}",
            self.dim
        );
        (self.row_words(r)[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r >= self.n_rows()` or `c >= self.dim().get()`.
    // lint: index-ok (both asserts bound the word offset inside the buffer)
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.n_rows,
            "row index {r} out of range {}",
            self.n_rows
        );
        assert!(
            c < self.dim.get(),
            "bit index {c} out of range {}",
            self.dim
        );
        let wpr = self.dim.words();
        let mask = 1u64 << (c % WORD_BITS);
        let idx = r * wpr + c / WORD_BITS;
        if value {
            self.words[idx] |= mask;
        } else {
            self.words[idx] &= !mask;
        }
        debug_assert_tail_invariant(self.dim, self.row_words(r));
    }

    /// A new matrix containing the selected rows, in the given order
    /// (duplicates allowed).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let wpr = self.dim.words();
        let mut words = vec![0u64; indices.len() * wpr];
        for (dst, &i) in words.chunks_mut(wpr).zip(indices) {
            dst.copy_from_slice(self.row_words(i));
        }
        Self {
            n_rows: indices.len(),
            dim: self.dim,
            words,
        }
    }

    /// Extracts row `r` as a standalone hypervector.
    ///
    /// # Panics
    /// Panics if `r >= self.n_rows()`.
    #[must_use]
    pub fn row_hypervector(&self, r: usize) -> BinaryHypervector {
        BinaryHypervector::from_packed_row(self.dim, self.row_words(r))
    }

    /// The transposed matrix: `dim` rows of `n_rows` bits, so that each
    /// output row is one *column* (feature) of `self` packed as a bit
    /// vector over the samples. Split finders use this to popcount class
    /// memberships per feature.
    ///
    /// Returns an error if the matrix has zero rows (a zero-bit row width
    /// is not representable).
    pub fn transpose(&self) -> Result<Self, HdcError> {
        if self.n_rows == 0 {
            return Err(HdcError::EmptyInput);
        }
        let t_dim = Dim::try_new(self.n_rows)?;
        let mut out = Self::zeros(self.dim.get(), t_dim);
        let wpr = self.dim.words();
        let t_wpr = t_dim.words();
        // For each input row, scatter its set bits into the output column
        // masks: input bit (r, c) becomes output bit (c, r).
        for (r, row) in self.words.chunks(wpr).enumerate() {
            let dst_word = r / WORD_BITS;
            let dst_bit = 1u64 << (r % WORD_BITS);
            for (w, &bits) in row.iter().enumerate() {
                let mut rest = bits;
                while rest != 0 {
                    let c = w * WORD_BITS + rest.trailing_zeros() as usize;
                    // lint: index-ok (c < dim by the row tail invariant; dst_word < t_wpr since r < n_rows)
                    out.words[c * t_wpr + dst_word] |= dst_bit;
                    rest &= rest - 1;
                }
            }
        }
        for row in out.words.chunks(t_wpr) {
            debug_assert_tail_invariant(t_dim, row);
        }
        Ok(out)
    }

    /// Number of set bits in row `r`.
    #[inline]
    #[must_use]
    pub fn row_count_ones(&self, r: usize) -> usize {
        self.row_words(r)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The bitwise majority of the rows, ties to 1 (the paper's bundling
    /// rule, as [`crate::bundle::try_majority`] applies it to the rows as
    /// hypervectors): bit `c` is set iff at least half the rows set it.
    /// The linear models list their training rows against it
    /// ([`RelativeRows`]).
    ///
    /// Returns [`HdcError::EmptyInput`] for a matrix with no rows.
    pub fn majority_row(&self) -> Result<BinaryHypervector, HdcError> {
        let mut bundler = Bundler::new(self.dim);
        for row in self.words.chunks_exact(self.dim.words()) {
            bundler.push_words(row, 1)?;
        }
        bundler.finish()
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMatrix {{ rows: {}, dim: {}, words: {} }}",
            self.n_rows,
            self.dim,
            self.words.len()
        )
    }
}

/// Popcount dot product of two packed binary rows: `Σᵢ aᵢ·bᵢ`, i.e. the
/// number of positions set in both. Relies on the tail invariant of both
/// operands so whole-word AND+popcount is exact.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[inline]
#[must_use]
pub fn popcount_dot(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word-count mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Hamming distance between two packed binary rows (XOR + popcount).
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[inline]
#[must_use]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word-count mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// Words [`hamming_within`] sums between two checks of its bound: 1,024
/// bits. On a Pima-shaped bank, blocks of 8, 16 and 32 words read 40.5%,
/// 43.0% and 48.1% of the words under a 5-nearest scan, and none of the
/// three was fastest twice.
const WITHIN_BLOCK_WORDS: usize = 16;

/// The Hamming distance between two packed rows if it is at most `bound`,
/// `None` otherwise. It sums [`hamming_words`] over 16-word blocks and
/// gives up as soon as the running sum is strictly greater than `bound`.
/// Partial sums only grow, so the result is always
/// `(d <= bound).then_some(d)` for the full distance `d`: a k-nearest
/// scan passes its current k-th distance and stops reading a row that can
/// no longer enter, while a row at exactly that distance is still read in
/// full, because its key may yet win the tie.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[inline]
#[must_use]
pub fn hamming_within(a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len(), "word-count mismatch");
    // Whole blocks have a length the compiler knows, so each unrolls.
    let mut blocks_a = a.chunks_exact(WITHIN_BLOCK_WORDS);
    let mut blocks_b = b.chunks_exact(WITHIN_BLOCK_WORDS);
    let mut distance = 0;
    for (x, y) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
        distance += hamming_words(x, y);
        if distance > bound {
            return None;
        }
    }
    distance += hamming_words(blocks_a.remainder(), blocks_b.remainder());
    (distance <= bound).then_some(distance)
}

/// Most pivots [`PivotTable::choose_pivots`] keeps. On perfbench's
/// `query` bank (20,000 level-encoded Pima-shaped records at 10,000 bits,
/// 5-nearest, on a 2-vCPU Xeon VM), 8, 16 and 32 pivots served 1,502,
/// 1,835 and 2,184 records/s (medians of three 10 s runs, seeds
/// 9501–9503). 16 costs 32 bytes a row, 640 KB for that bank, and half the
/// bound pass of 32.
pub const MAX_PIVOTS: usize = 16;

/// Most rows [`PivotTable::choose_pivots`] should be given: a bank passes
/// an evenly spaced sample of at most this many of its rows. On the
/// `query` bank, samples of 256, 1,024 and 4,096 rows served 2,016, 1,835
/// and 1,912 records/s (the runs [`MAX_PIVOTS`] cites), within run-to-run
/// noise. At 1,024 rows the choice costs about 50,000 distances, some
/// 10 ms at 10,000 bits, once per store.
pub const PIVOT_SAMPLE_ROWS: usize = 1_024;

/// Sample rows [`PivotTable::choose_pivots`] takes as queries when it
/// estimates how many pairs its pivots would skip: 32 probes of a
/// 1,024-row sample cost 32,768 distances, about what the table of a
/// 2,048-row bank costs.
const PIVOT_PROBES: usize = 32;

/// Fewest pairs, per 1,000, that the pivot bound must skip in
/// [`PivotTable::choose_pivots`]'s estimate for the pivots to be kept. The
/// estimate reads 84.5% on the `query` bank, whose scan then skips 81% of
/// pairs unread, and 0% on `serve_bench`'s synthetic cohort (class
/// prototypes with a quarter of their bits flipped), where every row sits
/// at nearly one distance from every pivot. Scanned with 16 pivots anyway,
/// that cohort's 1-query and 256-query predicts at 2,048 bits ran 13% and
/// 18% slower than a scan without them.
const MIN_SKIPPED_PER_MILLE: usize = 50;

/// The Hamming distance `d` as a pivot table stores it: `min(d, u16::MAX)`.
fn saturated(d: usize) -> u16 {
    u16::try_from(d).unwrap_or(u16::MAX)
}

/// Each row of a bank's Hamming distance to a few pivot rows: the second
/// exact pruning rule of the k-nearest scans, beside [`hamming_within`].
///
/// Hamming distance is a metric, so for any pivot `p` the triangle
/// inequality gives `d(q, x) >= |d(q, p) - d(x, p)|`. The largest of these
/// differences over the pivots is a lower bound on a query's distance to a
/// row that needs the query's own pivot distances and this table, never
/// the row. [`crate::topk::TopK::scan`] skips a row without reading a word
/// of it when that bound is strictly greater than the query's current k-th
/// distance, so a row at exactly that distance is still read and offered.
/// Distances are stored as `u16`, saturating at `u16::MAX`; clamping two
/// distances never increases their difference, so the bound holds at any
/// width. Each pivot's distances form one contiguous column, so a scan
/// bounds a block of rows in one pass per pivot.
///
/// Any pivots give exact results; good ones (see
/// [`PivotTable::choose_pivots`]) skip more rows. A table with no pivots
/// bounds every distance by 0 and skips nothing. The table must describe
/// the bank it is scanned with: build it over that bank with
/// [`PivotTable::new`] and follow appends with [`PivotTable::extend`].
#[derive(Clone, PartialEq, Eq)]
pub struct PivotTable {
    pivots: BitMatrix,
    /// `columns[p][row]` is `row`'s saturated distance to pivot `p`.
    columns: Vec<Vec<u16>>,
    /// Bank rows the columns cover.
    n_rows: usize,
}

impl PivotTable {
    /// A table with no pivots for rows of `dim` bits: its bound is 0, so it
    /// skips nothing and fits every bank of that width.
    #[must_use]
    pub fn none(dim: Dim) -> Self {
        Self {
            pivots: BitMatrix::zeros(0, dim),
            columns: Vec::new(),
            n_rows: 0,
        }
    }

    /// The distances of every row of `bank` to every row of `pivots`.
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the pivots and the bank
    /// differ in width.
    pub fn new(pivots: BitMatrix, bank: &BitMatrix) -> Result<Self, HdcError> {
        let mut table = Self {
            columns: vec![Vec::new(); pivots.n_rows()],
            pivots,
            n_rows: 0,
        };
        table.extend(bank)?;
        Ok(table)
    }

    /// Adds the distances of `bank`'s rows past [`PivotTable::n_rows`]:
    /// after rows are appended to the bank the table was built over, it
    /// covers them too, at the cost of a distance per new row and pivot.
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the pivots and the bank
    /// differ in width, and [`HdcError::InvalidConfig`] when the bank holds
    /// fewer rows than the table covers.
    pub fn extend(&mut self, bank: &BitMatrix) -> Result<(), HdcError> {
        if bank.dim() != self.pivots.dim() {
            return Err(HdcError::DimensionMismatch {
                left: self.pivots.dim().get(),
                right: bank.dim().get(),
            });
        }
        if bank.n_rows() < self.n_rows {
            return Err(HdcError::InvalidConfig(format!(
                "a pivot table over {} rows cannot extend to a bank of {}",
                self.n_rows,
                bank.n_rows()
            )));
        }
        let new_rows = self.n_rows..bank.n_rows();
        for (p, column) in self.columns.iter_mut().enumerate() {
            let pivot = self.pivots.row_words(p);
            column.reserve_exact(new_rows.len());
            column.extend(
                new_rows
                    .clone()
                    .map(|row| saturated(hamming_words(pivot, bank.row_words(row)))),
            );
        }
        self.n_rows = bank.n_rows();
        Ok(())
    }

    /// The pivot rows.
    #[must_use]
    pub fn pivots(&self) -> &BitMatrix {
        &self.pivots
    }

    /// Bank rows the table covers.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// `query`'s saturated distance to each pivot, in pivot order.
    pub(crate) fn query_distances(&self, query: &[u64]) -> Vec<u16> {
        (0..self.pivots.n_rows())
            .map(|p| saturated(hamming_words(query, self.pivots.row_words(p))))
            .collect()
    }

    /// Writes into `lower` the bound of each row of `rows`, in order:
    /// `max_p |query[p] - column_p[row]|` for a query's
    /// [`PivotTable::query_distances`] `query`. One contiguous pass per
    /// pivot over the block's slice of its column, which vectorises.
    /// `lower` must be `rows.len()` long and `rows` inside the table.
    pub(crate) fn lower_bounds(&self, query: &[u16], rows: Range<usize>, lower: &mut [u16]) {
        lower.fill(0);
        for (&to_pivot, column) in query.iter().zip(&self.columns) {
            let Some(column) = column.get(rows.clone()) else {
                continue;
            };
            for (bound, &row_to_pivot) in lower.iter_mut().zip(column) {
                *bound = (*bound).max(to_pivot.abs_diff(row_to_pivot));
            }
        }
    }

    /// Picks up to [`MAX_PIVOTS`] pivots from `sample`, a sample of a
    /// bank's rows, by farthest-first traversal: the first row, then each
    /// time the row farthest from the pivots picked so far, ties going to
    /// the lower row, stopping early once every row equals a pivot.
    ///
    /// Returns no pivots instead when the sample predicts they would skip
    /// fewer than 5% of pairs, too few to pay for their bound. The
    /// estimate leaves the pivots out, takes 32 evenly spaced rows of the
    /// rest as queries, each with its nearest other row as its k-th
    /// distance, and counts the other rows whose bound exceeds it. A bank
    /// much larger than its sample has nearer k-th distances, so there the
    /// estimate errs low.
    #[must_use]
    pub fn choose_pivots(sample: &BitMatrix) -> BitMatrix {
        let n = sample.n_rows();
        let distances_to = |row: usize| -> Vec<usize> {
            let words = sample.row_words(row);
            (0..n)
                .map(|other| hamming_words(words, sample.row_words(other)))
                .collect()
        };
        let mut picked: Vec<usize> = Vec::new();
        // The sample's pivot table, and each row's distance to its nearest
        // pivot.
        let mut columns: Vec<Vec<u16>> = Vec::new();
        let mut nearest = vec![usize::MAX; n];
        let mut next = (n > 0).then_some(0);
        while let Some(pivot) = next.filter(|_| picked.len() < MAX_PIVOTS) {
            let column = distances_to(pivot);
            for (near, &d) in nearest.iter_mut().zip(&column) {
                *near = (*near).min(d);
            }
            columns.push(column.into_iter().map(saturated).collect());
            picked.push(pivot);
            // The first strictly farthest row: ties go to the lower row.
            next = nearest
                .iter()
                .enumerate()
                .fold(None, |best: Option<(usize, usize)>, (row, &d)| match best {
                    Some((_, far)) if far >= d => best,
                    _ => Some((row, d)),
                })
                .filter(|&(_, far)| far > 0)
                .map(|(row, _)| row);
        }
        let table = Self {
            pivots: sample.select_rows(&picked),
            columns,
            n_rows: n,
        };
        // A query equal to a pivot is bounded exactly, and a pivot row is
        // bounded by a query's whole distance to it. A bank holds far
        // fewer of both than its sample, so pivots are neither probes nor
        // probed rows.
        let rows: Vec<usize> = (0..n).filter(|row| !picked.contains(row)).collect();
        let mut skipped = 0;
        let mut pairs = 0;
        let mut bounds = vec![0u16; n];
        for &probe in rows
            .iter()
            .step_by(rows.len().div_ceil(PIVOT_PROBES).max(1))
        {
            let distances = distances_to(probe);
            let others = || rows.iter().filter(move |&&row| row != probe);
            let Some(kth) = others().filter_map(|&row| distances.get(row)).min() else {
                continue;
            };
            let to_pivots = table.query_distances(sample.row_words(probe));
            table.lower_bounds(&to_pivots, 0..n, &mut bounds);
            skipped += others()
                .filter(|&&row| bounds.get(row).is_some_and(|&b| usize::from(b) > *kth))
                .count();
            pairs += rows.len() - 1;
        }
        if skipped * 1_000 < pairs * MIN_SKIPPED_PER_MILLE || pairs == 0 {
            return BitMatrix::zeros(0, sample.dim());
        }
        table.pivots
    }
}

impl fmt::Debug for PivotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PivotTable {{ pivots: {}, rows: {}, dim: {} }}",
            self.pivots.n_rows(),
            self.n_rows,
            self.pivots.dim()
        )
    }
}

/// Weighted sum of a binary row: `Σⱼ wⱼ·xⱼ` summing `weights[j]` over the
/// set bits of `row`, via per-word bit iteration into four independent
/// accumulator lanes (round-robin) that are combined pairwise at the end.
///
/// `weights.len()` must equal the row's bit width; the tail invariant
/// guarantees no set bit indexes past it. Because the four lanes change
/// the floating-point summation order relative to a naive scan, callers
/// comparing against [`crate::reference::masked_weight_sum`] should use a
/// relative tolerance, not bit equality.
#[must_use]
// lint: index-ok (tail invariant bounds tz below chunk.len(); lane & 3 is always < 4)
pub fn masked_weight_sum(row: &[u64], weights: &[f64]) -> f64 {
    debug_assert!(
        weights.len() <= row.len() * WORD_BITS,
        "weight vector longer than the packed row"
    );
    let mut acc = [0.0f64; 4];
    let mut lane = 0usize;
    for (word, chunk) in row.iter().zip(weights.chunks(WORD_BITS)) {
        let mut bits = *word;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            acc[lane & 3] += chunk[tz];
            lane += 1;
            bits &= bits - 1;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Longest gap one step of a [`RelativeRows`] list spans: the seven bits
/// beside the reference bit.
const MAX_GAP: usize = 127;

/// The step that advances [`MAX_GAP`] bits without a differing bit.
const SKIP: u8 = 0;

/// The rows of a matrix as lists of the bits where each differs from a
/// reference row `r`, built once so that a training loop walks `x ⊕ r`
/// without extracting its bits again. The linear models list their
/// training rows against the rows' [`BitMatrix::majority_row`].
///
/// With weights split as `w = α·r + u`, a row's dot product is
/// `α·|x ∧ r| + u·r + weight_sum(i, u)`, and the step `w += δ·x` is
/// `α += δ` plus `scatter_add(i, δ, u)`, so a row near `r` (a
/// level-encoded record near its cohort's majority) costs its distance
/// from `r` rather than its popcount.
///
/// Each differing bit `j` is one byte `gap << 1 | r_j`, where `gap`
/// (1..=127) runs from the row's previous differing bit, the first from
/// bit −1. A longer gap is preceded by zero bytes, each advancing 127
/// bits and adding nothing, so a list holds at most one byte per
/// differing bit plus one per 127 bits of a gap; the lists of all rows
/// share one buffer, counted before it is allocated.
#[derive(Clone)]
pub struct RelativeRows {
    /// Row `i`'s steps are `steps[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Whether row `i`'s list holds a [`SKIP`] step.
    skips: Vec<bool>,
    steps: Vec<u8>,
}

impl RelativeRows {
    /// Lists each row of `rows` against `reference`, which must have the
    /// rows' width.
    #[must_use]
    pub fn new(rows: &BitMatrix, reference: &BinaryHypervector) -> Self {
        debug_assert_eq!(reference.dim(), rows.dim(), "reference width mismatch");
        let r = reference.words();
        let mut bounds = Vec::with_capacity(rows.n_rows() + 1);
        let mut skips = Vec::with_capacity(rows.n_rows());
        bounds.push(0);
        let mut total = 0;
        for i in 0..rows.n_rows() {
            let row = rows.row_words(i);
            // A gap past MAX_GAP spans a whole word of `row ^ r` with no
            // differing bit, so with none such the list is one step per
            // differing bit.
            let mut skipped = false;
            if row.iter().zip(r).all(|(x, r)| x != r) {
                total += hamming_words(row, r);
            } else {
                for_each_step(row, r, |step| {
                    total += 1;
                    skipped |= step == SKIP;
                });
            }
            bounds.push(total);
            skips.push(skipped);
        }
        let mut steps = vec![SKIP; total];
        let mut slots = steps.iter_mut();
        for i in 0..rows.n_rows() {
            for_each_step(rows.row_words(i), r, |step| {
                if let Some(slot) = slots.next() {
                    *slot = step;
                }
            });
        }
        debug_assert_eq!(slots.len(), 0, "fewer steps than counted");
        Self {
            bounds,
            skips,
            steps,
        }
    }

    /// Number of listed rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.skips.len()
    }

    /// Bytes held by the lists.
    #[must_use]
    pub fn list_bytes(&self) -> usize {
        self.steps.len()
    }

    /// Row `i`'s steps.
    // lint: index-ok (bounds holds n_rows + 1 ascending ends into steps; i < n_rows is the caller's contract)
    fn row_steps(&self, i: usize) -> &[u8] {
        &self.steps[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Calls `f(j, step)` for each differing bit `j` of row `i`, in bit
    /// order.
    #[inline]
    fn for_each_bit(&self, i: usize, mut f: impl FnMut(usize, u8)) {
        let mut bit = usize::MAX;
        for &step in self.row_steps(i) {
            let gap = usize::from(step >> 1);
            if gap == 0 {
                bit = bit.wrapping_add(MAX_GAP);
            } else {
                bit = bit.wrapping_add(gap);
                f(bit, step);
            }
        }
    }

    /// Signed weighted sum of row `i` against the reference:
    /// `Σ_{x∖r} wⱼ − Σ_{r∖x} wⱼ`. A weight whose reference bit is set is
    /// negated by flipping its f64 sign bit (an exact negation), and the
    /// n-th differing bit's term goes into accumulator lane `n mod 4`;
    /// the lanes are summed `(0 + 1) + (2 + 3)`, as in
    /// [`masked_weight_sum`], so parity with
    /// [`crate::reference::relative_weight_sum`] holds to a relative
    /// tolerance, not bit equality. With an all-zero reference it is
    /// [`masked_weight_sum`] term for term.
    ///
    /// # Panics
    /// Panics if `i >= self.n_rows()` or `weights` is narrower than the
    /// rows.
    #[must_use]
    // lint: index-ok (every listed bit is below the rows' width, which weights covers; lane & 3 is always < 4)
    pub fn weight_sum(&self, i: usize, weights: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        if self.skips[i] {
            let mut lane = 0usize;
            self.for_each_bit(i, |bit, step| {
                acc[lane & 3] += signed(weights[bit], step);
                lane += 1;
            });
        } else {
            // Every step is a differing bit, so lane n mod 4 is the n-th
            // byte's position in its group of four.
            let mut bit = usize::MAX;
            let mut quads = self.row_steps(i).chunks_exact(4);
            for quad in &mut quads {
                for (a, &step) in acc.iter_mut().zip(quad) {
                    bit = bit.wrapping_add(usize::from(step >> 1));
                    *a += signed(weights[bit], step);
                }
            }
            for (a, &step) in acc.iter_mut().zip(quads.remainder()) {
                bit = bit.wrapping_add(usize::from(step >> 1));
                *a += signed(weights[bit], step);
            }
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Signed scatter of a scalar on row `i`: `out[j] += δ` for every
    /// `j ∈ x∖r` and `out[j] −= δ` for every `j ∈ r∖x` (the update dual
    /// of [`RelativeRows::weight_sum`]). Every differing bit makes one add
    /// to a distinct element, and the sign flip is an exact negation, so
    /// the result equals [`crate::reference::relative_scatter_add`] bit
    /// for bit.
    ///
    /// # Panics
    /// Panics if `i >= self.n_rows()` or `out` is narrower than the rows.
    // lint: index-ok (every listed bit is below the rows' width, which out covers)
    pub fn scatter_add(&self, i: usize, delta: f64, out: &mut [f64]) {
        self.for_each_bit(i, |bit, step| out[bit] += signed(delta, step));
    }
}

impl fmt::Debug for RelativeRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelativeRows {{ rows: {}, list_bytes: {} }}",
            self.n_rows(),
            self.steps.len()
        )
    }
}

/// `w`, negated by flipping its f64 sign bit when the step's reference
/// bit (its low bit) is set.
#[inline]
fn signed(w: f64, step: u8) -> f64 {
    f64::from_bits(w.to_bits() ^ (u64::from(step) << 63))
}

/// Calls `emit` with each step of `row`'s list against `reference`, in bit
/// order.
// lint: cast-ok (gap <= MAX_GAP after the skips, so gap << 1 | r_j fits a byte)
fn for_each_step(row: &[u64], reference: &[u64], mut emit: impl FnMut(u8)) {
    let mut last = usize::MAX;
    for (w, (&x, &r)) in row.iter().zip(reference).enumerate() {
        let mut bits = x ^ r;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            let bit = w * WORD_BITS + tz;
            let mut gap = bit.wrapping_sub(last);
            while gap > MAX_GAP {
                emit(SKIP);
                gap -= MAX_GAP;
            }
            emit((gap << 1 | (r >> tz & 1) as usize) as u8);
            last = bit;
            bits &= bits - 1;
        }
    }
}

/// Rows per tile in the symmetric pair sweeps ([`pairwise_hamming`] and
/// leave-one-out): two tiles of 10,000-bit rows are 80 KB, so both stay
/// cache-resident while every distance between them is computed.
pub(crate) const TILE_ROWS: usize = 32;

/// Fewest tile pairs a parallel chunk of a pair sweep takes. A full tile
/// pair is 1,024 distances, tens of microseconds at 10,000 bits, so four
/// of them outweigh the thread a chunk costs.
pub(crate) const MIN_TILE_PAIRS: usize = 4;

/// The upper-triangle tile pairs of an `n`-row symmetric sweep, in
/// row-major order, as `(a, b)` row ranges with `a.start <= b.start`.
/// Every unordered pair of distinct rows falls in exactly one tile pair;
/// [`tile_pair_rows`] enumerates them.
pub(crate) fn tile_pairs(n: usize) -> Vec<(Range<usize>, Range<usize>)> {
    let tiles: Vec<Range<usize>> = (0..n)
        .step_by(TILE_ROWS)
        .map(|start| start..(start + TILE_ROWS).min(n))
        .collect();
    let mut pairs = Vec::with_capacity(tiles.len() * (tiles.len() + 1) / 2);
    for (ai, a) in tiles.iter().enumerate() {
        for b in tiles.iter().skip(ai) {
            pairs.push((a.clone(), b.clone()));
        }
    }
    pairs
}

/// The row pairs `(i, j)`, `i < j`, of one tile pair: all of `a × b` for
/// two distinct tiles, the strict upper triangle of a diagonal tile.
pub(crate) fn tile_pair_rows(
    a: &Range<usize>,
    b: &Range<usize>,
) -> impl Iterator<Item = (usize, usize)> {
    let (a, b) = (a.clone(), b.clone());
    let diagonal = a == b;
    a.flat_map(move |i| {
        let from = if diagonal { i + 1 } else { b.start };
        (from..b.end).map(move |j| (i, j))
    })
}

/// The full symmetric `n × n` Hamming distance matrix of a packed design
/// matrix, returned row-major as `n·n` entries (`out[i*n + j]`).
///
/// Each unordered pair is computed once: the upper triangle is swept in
/// 32-row (`TILE_ROWS`) tile pairs, split evenly across `rayon::map_chunks`
/// workers, and every distance is written to both `(i, j)` and `(j, i)`.
#[must_use]
pub fn pairwise_hamming(m: &BitMatrix) -> Vec<u32> {
    let n = m.n_rows();
    let pairs = tile_pairs(n);
    let per_chunk = rayon::map_chunks(&pairs, MIN_TILE_PAIRS, |_, chunk| {
        let distances: Vec<u32> = chunk
            .iter()
            .flat_map(|(a, b)| tile_pair_rows(a, b))
            // lint: cast-ok (hamming <= d < 2^32, the u32-indexable bound)
            .map(|(i, j)| hamming_words(m.row_words(i), m.row_words(j)) as u32)
            .collect();
        (chunk, distances)
    });
    let mut out = vec![0u32; n * n];
    for (chunk, distances) in per_chunk {
        let cells = chunk.iter().flat_map(|(a, b)| tile_pair_rows(a, b));
        for ((i, j), d) in cells.zip(distances) {
            // lint: index-ok (i, j < n by construction of the tile pairs)
            out[i * n + j] = d;
            // lint: index-ok (i, j < n by construction of the tile pairs)
            out[j * n + i] = d;
        }
    }
    out
}

/// The rectangular `q × t` Hamming distance matrix between every query row
/// and every train row, row-major (`out[qi*t + tj]`).
///
/// Returns an error if the two matrices have different bit widths.
pub fn hamming_between(queries: &BitMatrix, train: &BitMatrix) -> Result<Vec<u32>, HdcError> {
    if queries.dim() != train.dim() {
        return Err(HdcError::DimensionMismatch {
            left: queries.dim().get(),
            right: train.dim().get(),
        });
    }
    let t = train.n_rows();
    let mut out = vec![0u32; queries.n_rows() * t];
    for (qi, row_out) in out.chunks_mut(t.max(1)).enumerate() {
        let q = queries.row_words(qi);
        for (tj, cell) in row_out.iter_mut().enumerate() {
            // lint: cast-ok (hamming <= d < 2^32, the u32-indexable bound)
            *cell = hamming_words(q, train.row_words(tj)) as u32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_stack(n: usize, d: usize, seed: u64) -> Vec<BinaryHypervector> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| BinaryHypervector::random(Dim::new(d), &mut rng))
            .collect()
    }

    #[test]
    fn packs_hypervectors_word_for_word() {
        let hvs = random_stack(5, 130, 1);
        let m = BitMatrix::from_hypervectors(&hvs).unwrap();
        assert_eq!(m.n_rows(), 5);
        assert_eq!(m.dim().get(), 130);
        assert_eq!(m.words_per_row(), 3);
        for (r, hv) in hvs.iter().enumerate() {
            assert_eq!(m.row_words(r), hv.words());
            for c in 0..130 {
                assert_eq!(m.get(r, c), hv.get(c));
            }
            assert_eq!(m.row_hypervector(r), *hv);
        }
    }

    #[test]
    fn rejects_empty_and_mixed_dimensions() {
        assert_eq!(BitMatrix::from_hypervectors(&[]), Err(HdcError::EmptyInput));
        let mut rng = SplitMix64::new(2);
        let a = BinaryHypervector::random(Dim::new(64), &mut rng);
        let b = BinaryHypervector::random(Dim::new(65), &mut rng);
        assert!(BitMatrix::from_hypervectors(&[a, b]).is_err());
    }

    #[test]
    fn set_and_get_roundtrip_with_tail() {
        let mut m = BitMatrix::zeros(3, Dim::new(70));
        m.set(0, 0, true);
        m.set(1, 69, true);
        m.set(2, 64, true);
        assert!(m.get(0, 0) && m.get(1, 69) && m.get(2, 64));
        assert!(!m.get(0, 69));
        m.set(1, 69, false);
        assert!(!m.get(1, 69));
        assert_eq!(m.row_count_ones(2), 1);
    }

    #[test]
    fn select_rows_copies_in_order_with_duplicates() {
        let hvs = random_stack(4, 100, 3);
        let m = BitMatrix::from_hypervectors(&hvs).unwrap();
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.row_words(0), m.row_words(2));
        assert_eq!(s.row_words(1), m.row_words(0));
        assert_eq!(s.row_words(2), m.row_words(2));
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let hvs = random_stack(7, 100, 4);
        let m = BitMatrix::from_hypervectors(&hvs).unwrap();
        let t = m.transpose().unwrap();
        assert_eq!(t.n_rows(), 100);
        assert_eq!(t.dim().get(), 7);
        for r in 0..7 {
            for c in 0..100 {
                assert_eq!(m.get(r, c), t.get(c, r), "({r},{c})");
            }
        }
        assert!(BitMatrix::zeros(0, Dim::new(8)).transpose().is_err());
    }

    #[test]
    fn popcount_dot_matches_per_bit() {
        let hvs = random_stack(2, 1000, 5);
        let expected = (0..1000)
            .filter(|&i| hvs[0].get(i) && hvs[1].get(i))
            .count();
        assert_eq!(popcount_dot(hvs[0].words(), hvs[1].words()), expected);
    }

    #[test]
    fn hamming_words_matches_hypervector_hamming() {
        let hvs = random_stack(2, 10_050, 6);
        assert_eq!(
            hamming_words(hvs[0].words(), hvs[1].words()),
            hvs[0].try_hamming(&hvs[1]).unwrap()
        );
    }

    #[test]
    fn masked_weight_sum_matches_naive_within_tolerance() {
        let hvs = random_stack(1, 1000, 7);
        let weights: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let fast = masked_weight_sum(hvs[0].words(), &weights);
        let naive: f64 = (0..1000)
            .filter(|&i| hvs[0].get(i))
            .map(|i| weights[i])
            .sum();
        assert!((fast - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn relative_scatter_add_hits_exactly_the_differing_bits() {
        let hvs = random_stack(2, 130, 12);
        let m = BitMatrix::from_hypervectors(&hvs[..1]).unwrap();
        let lists = RelativeRows::new(&m, &hvs[1]);
        let mut fast = vec![1.5f64; 130];
        lists.scatter_add(0, -0.25, &mut fast);
        let mut naive = vec![1.5f64; 130];
        crate::reference::relative_scatter_add(&m, 0, &hvs[1], -0.25, &mut naive);
        for (c, (a, b)) in fast.iter().zip(&naive).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "column {c}");
        }
        assert_eq!(
            lists.list_bytes(),
            hamming_words(m.row_words(0), hvs[1].words())
        );
    }

    #[test]
    fn majority_row_of_no_rows_is_an_error() {
        let m = BitMatrix::zeros(0, Dim::new(70));
        assert_eq!(m.majority_row(), Err(HdcError::EmptyInput));
    }

    #[test]
    fn pairwise_hamming_is_symmetric_with_zero_diagonal() {
        let hvs = random_stack(9, 130, 8);
        let m = BitMatrix::from_hypervectors(&hvs).unwrap();
        let d = pairwise_hamming(&m);
        for i in 0..9 {
            assert_eq!(d[i * 9 + i], 0);
            for j in 0..9 {
                assert_eq!(d[i * 9 + j], d[j * 9 + i]);
                assert_eq!(d[i * 9 + j] as usize, hvs[i].try_hamming(&hvs[j]).unwrap());
            }
        }
        assert!(pairwise_hamming(&BitMatrix::zeros(0, Dim::new(8))).is_empty());
    }

    #[test]
    fn hamming_between_covers_every_pair() {
        let q = BitMatrix::from_hypervectors(&random_stack(3, 200, 9)).unwrap();
        let t = BitMatrix::from_hypervectors(&random_stack(5, 200, 10)).unwrap();
        let d = hamming_between(&q, &t).unwrap();
        assert_eq!(d.len(), 15);
        for qi in 0..3 {
            for tj in 0..5 {
                assert_eq!(
                    d[qi * 5 + tj] as usize,
                    q.row_hypervector(qi)
                        .try_hamming(&t.row_hypervector(tj))
                        .unwrap()
                );
            }
        }
        let narrow = BitMatrix::zeros(2, Dim::new(100));
        assert!(hamming_between(&q, &narrow).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let m = BitMatrix::from_hypervectors(&random_stack(3, 77, 11)).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: BitMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn debug_output_is_compact() {
        let m = BitMatrix::zeros(4, Dim::PAPER);
        let s = format!("{m:?}");
        assert!(s.len() < 80, "debug output too long: {s}");
        assert!(s.contains("10000"));
    }
}
