//! Column-major matrix storage and views.
//!
//! The paper's artifact stores all matrices in column-major format with no
//! transpositions: GEMM leading dimensions `lda = M`, `ldb = K`, `ldc = M`,
//! and GEMV increments `incx = incy = 1`. [`Matrix`] owns a column-major
//! buffer with an arbitrary leading dimension so those semantics (including
//! padded leading dimensions) are exercised by tests.

use crate::scalar::Scalar;

/// An owned, column-major matrix with an explicit leading dimension.
///
/// Element `(i, j)` lives at `data[i + j * ld]` with `i < rows`, `j < cols`,
/// `ld >= rows`. The padding rows between `rows` and `ld` are preserved by
/// all kernels, matching BLAS leading-dimension semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros with a tight leading dimension.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::zeros_ld(rows, cols, rows.max(1))
    }

    /// A zero matrix with an explicit leading dimension `ld >= rows`.
    ///
    /// # Panics
    /// If `ld < rows` (or `ld == 0` while `rows > 0`).
    pub fn zeros_ld(rows: usize, cols: usize, ld: usize) -> Self {
        assert!(
            ld >= rows && (rows == 0 || ld > 0),
            "leading dimension {ld} must be >= rows {rows}"
        );
        Self {
            rows,
            cols,
            ld,
            data: vec![T::ZERO; ld * cols],
        }
    }

    /// Builds a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// The underlying column-major buffer, including any ld padding.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow of column `j` (only the `rows` live elements).
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Mutable borrow of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Fills every live element (not the ld padding) with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Sum of all live elements widened to `f64` — the checksum the paper
    /// uses to cross-validate CPU and GPU library results (§III-B).
    pub fn checksum(&self) -> f64 {
        let mut acc = 0.0f64;
        for j in 0..self.cols {
            for &v in self.col(j) {
                acc += v.to_f64();
            }
        }
        acc
    }

    /// Largest absolute element-wise difference to `other`, widened to f64.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        let mut worst = 0.0f64;
        for j in 0..self.cols {
            for i in 0..self.rows {
                let d = (self[(i, j)].to_f64() - other[(i, j)].to_f64()).abs();
                if d > worst {
                    worst = d;
                }
            }
        }
        worst
    }

    /// True when every live element of `self` is within `rel_tol` of
    /// `other`, relative to the larger magnitude (absolute for tiny values).
    pub fn approx_eq(&self, other: &Self, rel_tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                let a = self[(i, j)].to_f64();
                let b = other[(i, j)].to_f64();
                let scale = a.abs().max(b.abs()).max(1.0);
                if (a - b).abs() > rel_tol * scale {
                    return false;
                }
            }
        }
        true
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i + j * self.ld]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i + j * self.ld]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::<f64>::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.ld(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn column_major_indexing() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // data layout: col 0 = [0,10], col 1 = [1,11], col 2 = [2,12]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn padded_leading_dimension() {
        let mut m = Matrix::<f32>::zeros_ld(2, 2, 5);
        m[(0, 0)] = 1.0;
        m[(1, 1)] = 2.0;
        assert_eq!(m.ld(), 5);
        assert_eq!(m.as_slice().len(), 10);
        assert_eq!(m.as_slice()[0], 1.0);
        assert_eq!(m.as_slice()[5 + 1], 2.0);
        // padding untouched
        assert_eq!(m.as_slice()[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn ld_smaller_than_rows_panics() {
        let _ = Matrix::<f64>::zeros_ld(4, 2, 3);
    }

    #[test]
    fn checksum_sums_live_elements_only() {
        let mut m = Matrix::<f64>::zeros_ld(2, 2, 4);
        m.fill(1.0);
        // poke the padding; checksum must ignore it
        m.as_mut_slice()[2] = 100.0;
        assert_eq!(m.checksum(), 4.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64 + 1.0);
        let mut b = a.clone();
        b[(0, 0)] += 1e-9;
        assert!(a.approx_eq(&b, 1e-6));
        b[(0, 0)] += 1.0;
        assert!(!a.approx_eq(&b, 1e-6));
        // paper's 0.1% margin
        let mut c = a.clone();
        c[(1, 1)] *= 1.0005;
        assert!(a.approx_eq(&c, 1e-3));
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::<f32>::from_fn(3, 3, |i, j| (i * 3 + j) as f32);
        let mut b = a.clone();
        b[(2, 1)] += 0.5;
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fill_respects_padding() {
        let mut m = Matrix::<f64>::zeros_ld(2, 3, 4);
        m.fill(7.0);
        for j in 0..3 {
            assert_eq!(m.col(j), &[7.0, 7.0]);
            // padding rows stay zero
            assert_eq!(m.as_slice()[j * 4 + 2], 0.0);
            assert_eq!(m.as_slice()[j * 4 + 3], 0.0);
        }
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert_eq!(m.checksum(), 0.0);
        let n = Matrix::<f64>::zeros(0, 5);
        assert_eq!(n.cols(), 5);
        assert_eq!(n.checksum(), 0.0);
    }
}
