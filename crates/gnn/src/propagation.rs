use gvex_graph::Graph;
use gvex_linalg::{CsrMatrix, Matrix};

/// Message-passing aggregation scheme. The paper's experiments use the
/// GCN operator (Eq. 1), but the GVEX explainers are model-agnostic
/// (Table 1 "MA"): any message-passing classifier exposing predictions
/// and last-layer embeddings works. The alternative operators below
/// exercise exactly that claim (GIN-style sum aggregation and
/// GraphSAGE-style mean aggregation as single-operator simplifications;
/// see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregator {
    /// Symmetric-normalized GCN operator `D̂^{-1/2} Â D̂^{-1/2}` (Eq. 1).
    #[default]
    GcnSym,
    /// GIN-style sum aggregation `A + (1 + ε) I` (GIN-0 without the MLP).
    GinSum(f64),
    /// GraphSAGE-style mean aggregation `(I + D^{-1} A) / 2`.
    SageMean,
}

/// Sentinel in [`Propagation::slot_edge`] marking a diagonal (self-loop)
/// entry that no edge mask touches.
const SLOT_DIAG: u32 = u32::MAX;

/// The propagation operator used by each GCN layer, stored sparse (CSR).
///
/// A graph operator has `n + 2m` stored entries on a graph that dense
/// storage would represent with `n²` floats, so every product with it is
/// an `O(nnz · d)` sparse×dense kernel ([`CsrMatrix::spmm_dense`]) and
/// nothing on the message-passing hot path allocates `|V|×|V|`. Only the
/// influence closed form ([`Propagation::power`]), which is inherently
/// dense, materializes the operator.
///
/// For `GcnSym` the operator is symmetric, so `Sᵀ = S`; the backward pass
/// transposes explicitly so the non-symmetric `SageMean` variant is
/// handled correctly. For masked forwards (GNNExplainer) the degree
/// normalization is kept *fixed* at the unmasked degrees, making the
/// masked operator linear in the mask and its gradient exact (documented
/// substitution #4 in DESIGN.md): `masked` reuses this operator's CSR
/// structure and only rescales stored values — an `O(nnz)` step per
/// explainer epoch instead of an `O(n²)` dense rebuild.
#[derive(Debug, Clone)]
pub struct Propagation {
    s: CsrMatrix,
    /// `inv_sqrt_deg[v] = (deg(v)+1)^{-1/2}` — cached for masked variants.
    inv_sqrt_deg: Vec<f64>,
    /// Canonical edge list `(u, v)` with `u < v`, aligned with
    /// [`gvex_graph::Graph::edges`] order; masks index into this list.
    edge_list: Vec<(u32, u32)>,
    /// For each stored CSR entry: the canonical edge id it belongs to, or
    /// [`SLOT_DIAG`] for diagonal entries. This is what lets `masked`
    /// rescale values in place and `edge_grad` fold per-slot operator
    /// gradients back onto edges without dense indexing.
    slot_edge: Vec<u32>,
}

impl Propagation {
    /// Builds the default (GCN, Eq. 1) propagation operator for `g`.
    pub fn new(g: &Graph) -> Self {
        Self::with_aggregator(g, Aggregator::GcnSym)
    }

    /// Builds the operator for the chosen aggregation scheme.
    pub fn with_aggregator(g: &Graph, agg: Aggregator) -> Self {
        let n = g.num_nodes();
        let inv_sqrt_deg: Vec<f64> =
            (0..n).map(|v| 1.0 / ((g.degree(v as u32) + 1) as f64).sqrt()).collect();
        let edge_list: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        // (row, col, value, edge-or-diag) entries; n diagonals + 2m
        // off-diagonals, sorted into CSR order below.
        let mut entries: Vec<(u32, u32, f64, u32)> = Vec::with_capacity(n + 2 * edge_list.len());
        match agg {
            Aggregator::GcnSym => {
                for (v, &d) in inv_sqrt_deg.iter().enumerate() {
                    entries.push((v as u32, v as u32, d * d, SLOT_DIAG));
                }
                for (e, &(u, v)) in edge_list.iter().enumerate() {
                    let w = inv_sqrt_deg[u as usize] * inv_sqrt_deg[v as usize];
                    entries.push((u, v, w, e as u32));
                    entries.push((v, u, w, e as u32));
                }
            }
            Aggregator::GinSum(eps) => {
                for v in 0..n as u32 {
                    entries.push((v, v, 1.0 + eps, SLOT_DIAG));
                }
                for (e, &(u, v)) in edge_list.iter().enumerate() {
                    entries.push((u, v, 1.0, e as u32));
                    entries.push((v, u, 1.0, e as u32));
                }
            }
            Aggregator::SageMean => {
                for v in 0..n as u32 {
                    entries.push((v, v, 0.5, SLOT_DIAG));
                }
                for (e, &(u, v)) in edge_list.iter().enumerate() {
                    let (du, dv) = (g.degree(u) as f64, g.degree(v) as f64);
                    entries.push((u, v, 0.5 / du.max(1.0), e as u32));
                    entries.push((v, u, 0.5 / dv.max(1.0), e as u32));
                }
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _, _)| (r, c));
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut slot_edge = Vec::with_capacity(entries.len());
        let mut row = 0u32;
        for &(r, c, v, e) in &entries {
            while row < r {
                indptr.push(indices.len());
                row += 1;
            }
            indices.push(c);
            values.push(v);
            slot_edge.push(e);
        }
        while (row as usize) < n {
            indptr.push(indices.len());
            row += 1;
        }
        let s = CsrMatrix::from_parts(n, n, indptr, indices, values);
        Self { s, inv_sqrt_deg, edge_list, slot_edge }
    }

    /// The sparse operator `S` in CSR form.
    #[inline]
    pub fn csr(&self) -> &CsrMatrix {
        &self.s
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.s.rows()
    }

    /// The canonical `(u, v)` edge list masks are aligned with.
    #[inline]
    pub fn edge_list(&self) -> &[(u32, u32)] {
        &self.edge_list
    }

    /// A masked operator `S(m)` where each off-diagonal entry for edge `e`
    /// is scaled by `mask[e] ∈ [0, 1]`; self-loop entries are unmasked.
    ///
    /// Reuses this operator's CSR structure and only rescales values:
    /// `O(nnz)` per call, no `|V|×|V|` allocation — this is what keeps
    /// every GNNExplainer epoch sparse.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the number of edges.
    pub fn masked(&self, mask: &[f64]) -> CsrMatrix {
        assert_eq!(mask.len(), self.edge_list.len(), "mask length must equal edge count");
        let mut values = self.s.values().to_vec();
        for (v, &e) in values.iter_mut().zip(&self.slot_edge) {
            if e != SLOT_DIAG {
                *v *= mask[e as usize];
            }
        }
        self.s.with_values(values)
    }

    /// Folds a per-slot operator gradient (aligned with `csr()`'s stored
    /// entries, as produced by the backward pass) onto the edge masks:
    /// `∂L/∂mask_e = Σ_{slots of e} ∂L/∂S_slot · S_slot`, since each
    /// masked entry is `S_slot · mask_e`. Exact for every aggregator,
    /// including the asymmetric `SageMean` whose two directions carry
    /// different base coefficients.
    ///
    /// # Panics
    /// Panics if `ds_slots.len()` differs from the operator's `nnz`.
    pub fn edge_grad(&self, ds_slots: &[f64]) -> Vec<f64> {
        assert_eq!(ds_slots.len(), self.s.nnz(), "slot gradient length must equal nnz");
        let mut out = vec![0.0f64; self.edge_list.len()];
        let base = self.s.values();
        for (slot, &e) in self.slot_edge.iter().enumerate() {
            if e != SLOT_DIAG {
                out[e as usize] += ds_slots[slot] * base[slot];
            }
        }
        out
    }

    /// The normalization coefficient `(deg(u)+1)^{-1/2} (deg(v)+1)^{-1/2}`
    /// of edge `e` — the factor `∂S_{uv}/∂mask_e` for the GCN operator.
    #[inline]
    pub fn edge_coeff(&self, e: usize) -> f64 {
        let (u, v) = self.edge_list[e];
        self.inv_sqrt_deg[u as usize] * self.inv_sqrt_deg[v as usize]
    }

    /// One propagation step `S · X` as a sparse×dense product.
    #[inline]
    pub fn apply(&self, x: &Matrix) -> Matrix {
        self.s.spmm_dense(x)
    }

    /// k-hop application `S^k · X` by repeated sparse products — never
    /// forms `S^k` itself, so the cost is `O(k · nnz · d)`.
    pub fn apply_k(&self, x: &Matrix, k: usize) -> Matrix {
        let mut acc = x.clone();
        for _ in 0..k {
            acc = self.s.spmm_dense(&acc);
        }
        acc
    }

    /// `S^k` — the k-step propagation matrix used by the `RandomWalk`
    /// influence mode (Eq. 3 closed form for GCNs). The result is dense
    /// by nature (walks of length `k` fill in), but it is computed by `k-1`
    /// sparse×dense applications instead of dense matmul chains, and the
    /// trivial `k = 0` / `k = 1` cases short-circuit without multiplying
    /// from a dense identity.
    pub fn power(&self, k: usize) -> Matrix {
        match k {
            0 => Matrix::identity(self.num_nodes()),
            _ => {
                let mut acc = self.s.to_dense();
                for _ in 1..k {
                    acc = self.s.spmm_dense(&acc);
                }
                acc
            }
        }
    }
}
