//! Dense row-major `f32` matrix.
//!
//! [`Matrix`] is the single tensor type used across the workspace. It is
//! deliberately 2-D: every object in the paper (mini-batch, weight matrix,
//! centroid table, affinity matrix) is naturally a matrix, and vectors are
//! represented as `1 × n` or `n × 1` matrices or plain slices.

use crate::rng::SeedRng;
use crate::TensorError;

/// A dense, row-major matrix of `f32` values.
///
/// Cloning is a deep copy. Shape-incompatible operations panic with a
/// descriptive message; use the `try_*` constructors when the input shape is
/// externally controlled.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Fallible variant of [`Matrix::from_vec`].
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Matrix::from_rows: row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix of i.i.d. Gaussian samples `N(mean, std²)`.
    pub fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut SeedRng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data.iter_mut() {
            *v = rng.normal(mean, std);
        }
        m
    }

    /// Creates a matrix of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SeedRng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data.iter_mut() {
            *v = rng.uniform(lo, hi);
        }
        m
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

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

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the full row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Gathers the given rows (in order, duplicates allowed) into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows: index {idx} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenates `self` and `other`.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Extracts the sub-matrix of rows `r0..r1` (half-open).
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "slice_rows: bad range {r0}..{r1}");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Matrix multiplication `self · other` via the packed gemm kernel
    /// ([`crate::kernels::matmul`]).
    ///
    /// # Panics
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        crate::kernels::matmul(self, other)
    }

    /// `selfᵀ · other` without materializing the transpose
    /// ([`crate::kernels::matmul_at_b`]).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn: row mismatch");
        crate::kernels::matmul_at_b(self, other)
    }

    /// `self · otherᵀ` without materializing the transpose
    /// ([`crate::kernels::matmul_a_bt`]).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt: column mismatch");
        crate::kernels::matmul_a_bt(self, other)
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        crate::debug_assert_dims!(other, self.rows, self.cols, "add");
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        crate::debug_assert_dims!(other, self.rows, self.cols, "sub");
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        crate::debug_assert_dims!(other, self.rows, self.cols, "mul");
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise binary map. Panics on shape mismatch.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_with: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * other` ([`crate::kernels::axpy`]).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        crate::kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Elementwise unary map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise unary map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Scalar multiplication into a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds the `1 × cols` row vector `bias` to every row.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions and statistics
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Per-column sums as a length-`cols` vector.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += v;
            }
        }
        sums
    }

    /// Per-column means as a length-`cols` vector.
    pub fn col_means(&self) -> Vec<f32> {
        let n = self.rows.max(1) as f32;
        self.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Per-row sums as a length-`rows` vector.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row(r).iter().sum()).collect()
    }

    /// Squared Frobenius norm `Σ x²`.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element in row `r` (first on ties).
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Whether every element is finite (no NaN/±∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Per-row ℓ₂ norms.
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect()
    }

    /// Returns a copy with every row scaled to unit ℓ₂ norm (rows with
    /// norm ≤ 1e-12 are left unchanged).
    pub fn normalize_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let norm: f32 = out.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in out.row_mut(r) {
                    *v /= norm;
                }
            }
        }
        out
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
        let e = Matrix::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(f.get(1, 0), 10.0);
    }

    #[test]
    fn try_from_vec_rejects_bad_shape() {
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = SeedRng::new(1);
        let a = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 0.0, 1.0, &mut rng);
        let explicit = a.transpose().matmul(&b);
        let fused = a.matmul_tn(&b);
        assert!(explicit.sub(&fused).max_abs() < 1e-5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = SeedRng::new(2);
        let a = Matrix::randn(4, 6, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(3, 6, 0.0, 1.0, &mut rng);
        let explicit = a.matmul(&b.transpose());
        let fused = a.matmul_nt(&b);
        assert!(explicit.sub(&fused).max_abs() < 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SeedRng::new(3);
        let a = Matrix::randn(7, 4, 0.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.row_sums(), vec![3.0, 7.0]);
        assert_eq!(a.sq_norm(), 30.0);
        assert_eq!(a.row_argmax(1), 1);
    }

    #[test]
    fn stacking_and_slicing() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(1, 2, &[3.0, 4.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        let s = v.slice_rows(1, 2);
        assert_eq!(s.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let a = m(3, 1, &[10.0, 20.0, 30.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[30.0, 10.0, 30.0]);
    }

    #[test]
    fn randn_has_roughly_right_moments() {
        let mut rng = SeedRng::new(42);
        let a = Matrix::randn(800, 50, 1.0, 2.0, &mut rng);
        let mean = a.mean();
        let var = a.map(|v| (v - mean) * (v - mean)).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn row_normalization() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let n = m.normalize_rows();
        assert!((n.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.get(0, 1) - 0.8).abs() < 1e-6);
        // Zero rows stay zero.
        assert_eq!(n.row(1), &[0.0, 0.0]);
        assert_eq!(m.row_norms(), vec![5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
