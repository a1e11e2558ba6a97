//! Arithmetic, reductions, and structural operations on [`Matrix`].
//!
//! Everything here is a plain method returning a fresh matrix (or scalar);
//! in-place variants are provided where the autodiff engine's gradient
//! accumulation benefits from them.

use crate::Matrix;

impl Matrix {
    // ---------------------------------------------------------------
    // Matrix products
    // ---------------------------------------------------------------

    /// Matrix product `self * other`.
    ///
    /// Uses the cache-friendly `i-k-j` loop order so the innermost loop
    /// streams over contiguous rows of both the output and `other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (n, k, m) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (p, &a_ip) in a_row.iter().enumerate() {
                // lint:allow(float-eq) — exact sparsity skip: zero rows contribute nothing
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = other.row(p);
                for (j, &b_pj) in b_row.iter().enumerate() {
                    out_row[j] += a_ip * b_pj;
                }
            }
        }
        let _ = k;
        out
    }

    /// `selfᵀ * other` without materialising the transpose.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_at_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_at`] written into `out`, whose buffer is reused.
    /// The result is bit-identical to `matmul_at`'s.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_at_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_at: row counts differ ({}x{} vs {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        out.reset_zeros(self.cols(), other.cols());
        for p in 0..self.rows() {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a_pi) in a_row.iter().enumerate() {
                // lint:allow(float-eq) — exact sparsity skip: zero rows contribute nothing
                if a_pi == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (j, &b_pj) in b_row.iter().enumerate() {
                    out_row[j] += a_pi * b_pj;
                }
            }
        }
    }

    /// `self * otherᵀ` without materialising the transpose.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_bt: col counts differ ({}x{} vs {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (n, m) = (self.rows(), other.rows());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, out_cell) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *out_cell = acc;
            }
        }
        out
    }

    /// Transposed copy of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), self.rows());
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Dot product of two matrices viewed as flat vectors.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "dot");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    // ---------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product `self ⊙ other`.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "mul");
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient `self / other`.
    pub fn div(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "div");
        self.zip_map(other, |a, b| a / b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Matrix {
        self.map(|v| v + s)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (axpy).
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        self.assert_same_shape(other, "add_scaled_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += s * b;
        }
    }

    /// Applies `f` to each element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` pairwise to elements of `self` and `other`.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    // ---------------------------------------------------------------
    // Broadcasting
    // ---------------------------------------------------------------

    /// Adds the `1 x cols` row vector `row` to every row of `self`.
    ///
    /// # Panics
    /// Panics if `row` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            (1, self.cols()),
            row.shape(),
            "add_row_broadcast: expected 1x{} bias, got {}x{}",
            self.cols(),
            row.rows(),
            row.cols()
        );
        let mut out = self.clone();
        let bias = row.as_slice();
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// Multiplies every row of `self` elementwise by the `1 x cols`
    /// row vector `row`.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            (1, self.cols()),
            row.shape(),
            "mul_row_broadcast: expected 1x{} vector, got {}x{}",
            self.cols(),
            row.rows(),
            row.cols()
        );
        let mut out = self.clone();
        let w = row.as_slice();
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(w) {
                *v *= b;
            }
        }
        out
    }

    // ---------------------------------------------------------------
    // Nonlinearities
    // ---------------------------------------------------------------

    /// Elementwise logistic sigmoid, computed in a numerically stable
    /// split form.
    pub fn sigmoid(&self) -> Matrix {
        self.map(stable_sigmoid)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Matrix {
        self.map(f32::tanh)
    }

    /// Elementwise `max(0, x)`.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// Row-wise softmax with the max-subtraction trick.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    // ---------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column vector (`rows x 1`) of per-row sums.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            out.set(r, 0, self.row(r).iter().sum());
        }
        out
    }

    /// Row vector (`1 x cols`) of per-column sums.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (c, v) in self.row(r).iter().enumerate() {
                out.as_mut_slice()[c] += v;
            }
        }
        out
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Index of the maximum element of a flattened matrix; ties break to
    /// the earliest index. Returns `None` for an empty matrix.
    pub fn argmax(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        Some(best)
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }

    // ---------------------------------------------------------------
    // Structural operations
    // ---------------------------------------------------------------

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "concat_cols: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        let cols = self.cols() + other.cols();
        let mut data = Vec::with_capacity(self.rows() * cols);
        for r in 0..self.rows() {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix::from_vec(self.rows(), cols, data)
    }

    /// Horizontal concatenation of several matrices with equal row counts.
    pub fn concat_cols_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols_all: no parts");
        let rows = parts[0].rows();
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(
                    p.rows(),
                    rows,
                    "concat_cols_all: inconsistent row counts ({} vs {})",
                    p.rows(),
                    rows
                );
                data.extend_from_slice(p.row(r));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Vertical concatenation of several matrices with equal column counts.
    pub fn concat_rows_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows_all: no parts");
        let cols = parts[0].cols();
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(
                p.cols(),
                cols,
                "concat_rows_all: inconsistent col counts ({} vs {})",
                p.cols(),
                cols
            );
            data.extend_from_slice(p.as_slice());
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Copy of columns `start..end`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols(),
            "slice_cols: invalid range {start}..{end} for {} cols",
            self.cols()
        );
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows() * cols);
        for r in 0..self.rows() {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Matrix::from_vec(self.rows(), cols, data)
    }

    /// Copy of rows `start..end`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows(),
            "slice_rows: invalid range {start}..{end} for {} rows",
            self.rows()
        );
        let data = self.as_slice()[start * self.cols()..end * self.cols()].to_vec();
        Matrix::from_vec(end - start, self.cols(), data)
    }

    /// A new matrix made of the given rows of `self`, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols());
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols(), data)
    }
}

/// Numerically stable sigmoid: never exponentiates a large positive value.
#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m22();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 2.0]]);
        assert_eq!(a.matmul_at(&b), a.transpose().matmul(&b));
        let c = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_bt(&c), a.matmul(&c.transpose()));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_bad_shapes() {
        let _ = m22().matmul(&Matrix::zeros(3, 2));
    }

    #[test]
    fn elementwise_ops() {
        let a = m22();
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
        assert_eq!(a.sub(&b), Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 2.0]]));
        assert_eq!(a.mul(&b), Matrix::from_rows(&[&[1.0, 2.0], &[6.0, 8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
    }

    #[test]
    fn broadcast_add_and_mul() {
        let a = m22();
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        assert_eq!(
            a.add_row_broadcast(&bias),
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        assert_eq!(
            a.mul_row_broadcast(&bias),
            Matrix::from_rows(&[&[10.0, 40.0], &[30.0, 80.0]])
        );
    }

    #[test]
    fn softmax_rows_sum_to_one_and_respect_ordering() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.get(r, 0) < s.get(r, 1) && s.get(r, 1) < s.get(r, 2));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let a = Matrix::row_vector(&[1000.0, 1000.0]);
        let s = a.softmax_rows();
        assert!(s.is_finite());
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let a = Matrix::row_vector(&[-100.0, 0.0, 100.0]);
        let s = a.sigmoid();
        assert!(s.is_finite());
        assert!(s.get(0, 0) < 1e-6);
        assert!((s.get(0, 1) - 0.5).abs() < 1e-7);
        assert!(s.get(0, 2) > 1.0 - 1e-6);
    }

    #[test]
    fn reductions() {
        let a = m22();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows(), Matrix::col_vector(&[3.0, 7.0]));
        assert_eq!(a.sum_cols(), Matrix::row_vector(&[4.0, 6.0]));
        assert_eq!(a.norm_sq(), 30.0);
        assert_eq!(a.argmax(), Some(3));
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = m22();
        let b = Matrix::from_rows(&[&[9.0], &[8.0]]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 3), b);

        let stacked = Matrix::concat_rows_all(&[&a, &a]);
        assert_eq!(stacked.shape(), (4, 2));
        assert_eq!(stacked.slice_rows(2, 4), a);
    }

    #[test]
    fn select_rows_reorders() {
        let a = m22();
        let sel = a.select_rows(&[1, 0, 1]);
        assert_eq!(sel.row(0), &[3.0, 4.0]);
        assert_eq!(sel.row(1), &[1.0, 2.0]);
        assert_eq!(sel.row(2), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }
}
