use crate::Matrix;
use rayon::prelude::*;

/// Minimum `nnz * rhs_cols` work before [`spmm_into`] fans out
/// across threads; below this the per-call thread-spawn cost of the rayon
/// shim outweighs the parallel win.
const PAR_SPMM_MIN_WORK: usize = 1 << 15;

/// A sparse row-major (CSR) `f64` matrix.
///
/// Storage is the classic triple: `indptr` (length `rows + 1`) delimits
/// each row's slice of `indices` (column ids, ascending within a row) and
/// `values`. Message-passing operators are overwhelmingly sparse, so the
/// GNN hot path works on this type and only materializes a dense
/// [`Matrix`] at API boundaries that genuinely need one.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent: `indptr` must have length
    /// `rows + 1`, start at 0, end at `indices.len()`, be non-decreasing,
    /// and every column index must be `< cols` and strictly ascending
    /// within its row.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows + 1");
        assert_eq!(indptr.first().copied(), Some(0), "indptr must start at 0");
        assert_eq!(*indptr.last().expect("non-empty indptr"), indices.len());
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be non-decreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "columns must be strictly ascending within row {r}");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column index out of bounds in row {r}");
            }
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; exact zeros are kept (callers drop them
    /// beforehand if structural sparsity matters).
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for r in 0..rows {
            counts[r + 1] += counts[r];
        }
        let mut entries: Vec<(u32, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            entries[cursor[r]] = (c as u32, v);
            cursor[r] += 1;
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let row = &mut entries[counts[r]..counts[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                if indices.len() > *indptr.last().expect("non-empty") && indices.last() == Some(&c)
                {
                    *values.last_mut().expect("paired with indices") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Converts a dense matrix, keeping every entry that is not exactly zero.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self { rows: m.rows(), cols: m.cols(), indptr, indices, values }
    }

    /// The `n`-by-`n` sparse identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// A matrix with this one's sparsity structure but new values —
    /// the O(nnz) primitive behind masked propagation operators.
    ///
    /// # Panics
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), self.values.len(), "values length must equal nnz");
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values,
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row-pointer array (length `rows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of the stored entries.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (structure stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Entry accessor; zero for coordinates outside the structure.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let row = out.row_mut(r);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
        }
        out
    }

    /// Transpose, still in CSR form (counting sort over columns, O(nnz)).
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut cursor = indptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = cursor[c as usize];
                indices[dst] = r as u32;
                values[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows were visited in ascending order, so each transposed row's
        // column indices are already ascending.
        CsrMatrix { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Sparse matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv length mismatch");
        (0..self.rows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
            })
            .collect()
    }

    /// Sparse × dense product `self · rhs`, the message-passing workhorse
    /// (see [`spmm_into`] for the kernel).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm shape mismatch {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        spmm_into(
            &self.indptr,
            &self.indices,
            &self.values,
            rhs.data(),
            rhs.cols(),
            out.data_mut(),
        );
        out
    }
}

/// Sparse × dense product on borrowed CSR parts: adds `S · rhs` into
/// `out`, where `S` is given by `indptr`/`indices`/`values`, `rhs` is
/// row-major with `nc` columns, and `out` is row-major,
/// `(indptr.len() - 1) * nc` long and zeroed by the caller. Each output
/// row sums its stored entries in CSR order, so the result does not
/// depend on how rows are split across threads.
///
/// When the total work (`nnz × nc`) is large enough the output buffer
/// is split into disjoint row bands filled in place in parallel
/// (`par_chunks_mut`) — no per-thread staging buffers and no
/// post-parallel concatenation. Bands are uniform in rows; real rayon
/// work-steals residual nnz imbalance away, and under the shim graph
/// operators are close to uniform-density per row.
///
/// This is the kernel behind [`CsrMatrix::spmm_dense`]; callers that
/// build an operator into reused buffers call it directly.
///
/// # Panics
/// Panics if `out` has the wrong length.
pub fn spmm_into(
    indptr: &[usize],
    indices: &[u32],
    values: &[f64],
    rhs: &[f64],
    nc: usize,
    out: &mut [f64],
) {
    let rows = indptr.len().saturating_sub(1);
    assert_eq!(out.len(), rows * nc, "spmm output length mismatch");
    let kernel = |lo: usize, hi: usize, buf: &mut [f64]| {
        for r in lo..hi {
            let span = indptr[r]..indptr[r + 1];
            let out_row = &mut buf[(r - lo) * nc..(r - lo + 1) * nc];
            for (&c, &v) in indices[span.clone()].iter().zip(&values[span]) {
                let c = c as usize;
                for (o, &b) in out_row.iter_mut().zip(&rhs[c * nc..(c + 1) * nc]) {
                    *o += v * b;
                }
            }
        }
    };
    let work = values.len() * nc;
    let threads = rayon::current_num_threads();
    if work < PAR_SPMM_MIN_WORK || threads <= 1 || rows <= 1 {
        kernel(0, rows, out);
        return;
    }
    let band_rows = rows.div_ceil(threads).max(1);
    out.par_chunks_mut(band_rows * nc).enumerate().for_each(|(i, band)| {
        let lo = i * band_rows;
        kernel(lo, (lo + band_rows).min(rows), band);
    });
}
