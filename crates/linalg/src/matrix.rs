use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
///
/// This is the only tensor type in the workspace. It is intentionally
/// simple: a shape pair plus a flat buffer, with shape-checked operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows (convenient in tests).
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Glorot/Xavier-uniform initialization, the scheme used for GCN weights.
    pub fn glorot(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Self { rows, cols, data }
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

    /// Immutable access to the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends `row` as a new last row — amortized `O(cols)`, since the
    /// flat buffer grows in place instead of being rebuilt.
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal the column count");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserves room for exactly `additional` more rows, so that many
    /// [`Matrix::push_row`] calls never reallocate.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve_exact(additional * self.cols);
    }

    /// Drops the spare capacity [`Matrix::push_row`] growth leaves behind.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Matrix product `self * rhs` (see [`gemm_into`] for the kernel).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm_into(self.rows, &self.data, rhs, &mut out.data);
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += rhs * s` (axpy), used by the Adam optimizer.
    pub fn axpy(&mut self, rhs: &Matrix, s: f64) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * s;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// ReLU activation.
    pub fn relu(&self) -> Matrix {
        self.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    /// Mask of the ReLU gates (1 where the pre-activation was positive).
    pub fn relu_gate(&self) -> Matrix {
        self.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Column-wise max over rows, producing a `1 x cols` matrix together with
    /// the argmax row index per column (needed for max-pool backprop).
    pub fn max_pool_rows(&self) -> (Matrix, Vec<usize>) {
        assert!(self.rows > 0, "max_pool_rows on empty matrix");
        let mut out = Matrix::zeros(1, self.cols);
        let mut arg = vec![0usize; self.cols];
        for (c, best_row) in arg.iter_mut().enumerate() {
            let mut best = f64::NEG_INFINITY;
            for r in 0..self.rows {
                let v = self.get(r, c);
                if v > best {
                    best = v;
                    *best_row = r;
                }
            }
            out.set(0, c, best);
        }
        (out, arg)
    }

    /// Mean over rows, producing a `1 x cols` matrix.
    pub fn mean_pool_rows(&self) -> Matrix {
        assert!(self.rows > 0, "mean_pool_rows on empty matrix");
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.add_at(0, c, self.get(r, c));
            }
        }
        out.scale(1.0 / self.rows as f64)
    }

    /// Sum of absolute values (L1 norm of the flattened matrix).
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|a| a.abs()).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Squared Euclidean distance between two rows of (possibly different)
    /// matrices with identical column counts.
    pub fn row_distance_sq(&self, r1: usize, other: &Matrix, r2: usize) -> f64 {
        assert_eq!(self.cols, other.cols, "row_distance_sq column mismatch");
        self.row(r1).iter().zip(other.row(r2)).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    /// Extracts the sub-matrix given by `row_idx` (gather of rows).
    pub fn gather_rows(&self, row_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), self.cols);
        for (i, &r) in row_idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }
}

/// Dense product on a borrowed left operand: adds `lhs · rhs` into
/// `out`, where `lhs` is row-major `rows × rhs.rows()` and `out` is
/// row-major `rows × rhs.cols()`, zeroed by the caller.
///
/// Classic ikj loop order so the inner loop streams over contiguous
/// rows; exact-zero left entries are skipped (post-ReLU activations are
/// sparse). This is the kernel behind [`Matrix::matmul`]; callers that
/// keep activations in reused buffers call it directly.
///
/// # Panics
/// Panics if `lhs` or `out` does not match the shapes.
pub fn gemm_into(rows: usize, lhs: &[f64], rhs: &Matrix, out: &mut [f64]) {
    let (inner, nc) = rhs.shape();
    assert_eq!(lhs.len(), rows * inner, "gemm left operand length mismatch");
    assert_eq!(out.len(), rows * nc, "gemm output length mismatch");
    for i in 0..rows {
        let a_row = &lhs[i * inner..(i + 1) * inner];
        let o_row = &mut out[i * nc..(i + 1) * nc];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in o_row.iter_mut().zip(rhs.row(k)) {
                *o += a * b;
            }
        }
    }
}
