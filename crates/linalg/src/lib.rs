//! Minimal linear algebra for GVEX.
//!
//! The GVEX reproduction deliberately avoids external BLAS/tensor crates so
//! the whole stack builds offline. This crate provides the small set of
//! operations the GCN substrate (`gvex-gnn`) and the feature-influence
//! engine need: row-major `f64` matrices, matmul, elementwise maps,
//! reductions, softmax, a handful of constructors — and a CSR sparse
//! matrix ([`CsrMatrix`]) whose sparse×dense products carry the
//! message-passing hot path without ever materializing `|V|²` storage.
//!
//! Dense matrices are plain `Vec<f64>` buffers; all shapes are checked
//! with assertions so that misuse fails loudly in debug and test builds.

mod csr;
mod matrix;
mod ops;

pub use csr::{spmm_into, CsrMatrix};
pub use matrix::{gemm_into, Matrix};
pub use ops::{cmp_cost, cmp_score, cross_entropy, softmax_in_place, softmax_rows};

#[cfg(test)]
mod tests;
