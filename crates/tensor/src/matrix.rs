//! The [`Matrix`] type: a row-major dense `f32` matrix.

use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// This is the single numeric container used throughout the workspace.
/// Element `(r, c)` lives at `data[r * cols + c]`. The default is the
/// empty `0 x 0` matrix.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} but row 0 has length {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes `self` to `rows x cols` zeros, reusing its buffer.
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "Matrix::get: index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `value`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "Matrix::set: index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = value;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "Matrix::row: row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "Matrix::row_mut: row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "Matrix::col: col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Asserts that `self` and `other` have the same shape; `op` names
    /// the operation in the panic message. Used by the elementwise
    /// operations here and by downstream crates implementing custom ops.
    #[inline]
    pub fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        // Only show a few rows/cols to keep panic messages readable.
        let max_show = 6;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(4, 1).as_slice(), &[1.0; 4]);
        assert_eq!(Matrix::full(1, 2, 7.0).as_slice(), &[7.0, 7.0]);
        let id = Matrix::identity(3);
        assert_eq!(id.get(0, 0), 1.0);
        assert_eq!(id.get(0, 1), 0.0);
        assert_eq!(id.get(2, 2), 1.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn vectors_have_correct_orientation() {
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Matrix::col_vector(&[1.0, 2.0]).shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged_rows() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.row_mut(1)[0] = -1.0;
        assert_eq!(m.get(1, 0), -1.0);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
