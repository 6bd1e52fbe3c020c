//! Minimal dense linear algebra: a row-major `f32` matrix and the handful
//! of kernels the models need (matmul, transpose-matmul, row ops).
//!
//! `f32` keeps the 10,000-column hypervector design matrices at half the
//! memory traffic of `f64` (perf-book: shrink hot types), and classification
//! on these models is insensitive to the extra precision. Reductions that
//! need it (means, losses) accumulate in `f64`.

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, MlError> {
        if data.len() != rows * cols {
            return Err(MlError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} values", rows * cols),
                got: format!("{} values", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from per-row vectors (all must share a length).
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, MlError> {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MlError::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    got: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: n,
            cols,
            data,
        })
    }

    /// Creates a matrix from `f64` rows, narrowing to `f32` directly into
    /// the flat buffer (no intermediate `Vec<Vec<f32>>` — on a 520×10,000
    /// hypervector matrix the per-row allocations would total ~21 MB).
    pub fn from_rows_f64(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MlError::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    got: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend(r.iter().map(|&v| v as f32));
        }
        Ok(Self {
            rows: n,
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= n_rows()`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// The flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer, for bulk fills (e.g. chunking rows
    /// across threads without per-row borrows of `self`).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Iterates rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Extracts column `j` as a vector.
    #[must_use]
    pub fn column(&self, j: usize) -> Vec<f32> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Verifies every element is finite.
    pub fn check_finite(&self) -> Result<(), MlError> {
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                if !v.is_finite() {
                    return Err(MlError::NonFiniteInput { row: i, col: j });
                }
            }
        }
        Ok(())
    }

    /// `self · other` (shapes `(n,k) · (k,m) → (n,m)`), computed serially
    /// row by row.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != other.rows {
            return Err(MlError::ShapeMismatch {
                expected: format!("inner dimensions to agree ({}x{})", self.rows, self.cols),
                got: format!("{}x{}", other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the inner j-loop streams contiguously through
        // `other`'s row and the output row, which auto-vectorises.
        out.data
            .chunks_mut(other.cols.max(1))
            .zip(self.data.chunks_exact(self.cols.max(1)))
            .for_each(|(orow, arow)| {
                for (k, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue; // hypervector inputs are ~50% zeros
                    }
                    let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += a * b;
                    }
                }
            });
        Ok(out)
    }

    /// Dot product of two equal-length slices, accumulated in `f32` pairs
    /// (unrolled by the compiler).
    #[inline]
    #[must_use]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Squared Euclidean distance between two equal-length slices.
    #[inline]
    #[must_use]
    pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Per-column means, accumulated in `f64`.
    #[must_use]
    pub fn column_means(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.cols];
        for row in self.rows_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += f64::from(v);
            }
        }
        let n = self.rows.max(1) as f64;
        sums.iter_mut().for_each(|s| *s /= n);
        sums
    }

    /// Per-column population variances, accumulated in `f64`.
    #[must_use]
    pub fn column_variances(&self) -> Vec<f64> {
        let means = self.column_means();
        let mut sums = vec![0.0f64; self.cols];
        for row in self.rows_iter() {
            for ((s, &m), &v) in sums.iter_mut().zip(&means).zip(row) {
                let d = f64::from(v) - m;
                *s += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        sums.iter_mut().for_each(|s| *s /= n);
        sums
    }

    /// Horizontally stacks two matrices with equal row counts.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.rows != other.rows {
            return Err(MlError::ShapeMismatch {
                expected: format!("{} rows", self.rows),
                got: format!("{} rows", other.rows),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![2.0, -1.0, 0.5], vec![0.0, 3.0, 1.0]]).unwrap();
        let eye = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert_eq!(a.matmul(&eye).unwrap(), a);
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(Matrix::dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(Matrix::squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn column_stats() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
        assert_eq!(m.column_means(), vec![2.0, 20.0]);
        assert_eq!(m.column_variances(), vec![1.0, 100.0]);
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
        assert_eq!(s.n_rows(), 2);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = a.hstack(&b).unwrap();
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.n_cols(), 3);
        let tall = Matrix::zeros(3, 1);
        assert!(a.hstack(&tall).is_err());
    }

    #[test]
    fn check_finite_flags_position() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, f32::NAN);
        assert_eq!(
            m.check_finite(),
            Err(MlError::NonFiniteInput { row: 1, col: 0 })
        );
        m.set(1, 0, 0.0);
        assert!(m.check_finite().is_ok());
    }

    #[test]
    fn from_rows_f64_narrows() {
        let m = Matrix::from_rows_f64(&[vec![1.5f64, 2.5]]).unwrap();
        assert_eq!(m.row(0), &[1.5f32, 2.5]);
    }

    #[test]
    fn from_rows_f64_rejects_ragged_rows() {
        let e = Matrix::from_rows_f64(&[vec![1.0f64], vec![1.0, 2.0]]);
        assert!(matches!(e, Err(MlError::ShapeMismatch { .. })));
        // Matches the `from_rows` contract on the same shapes.
        let direct = Matrix::from_rows_f64(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
        let via = Matrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(direct, via);
    }
}
