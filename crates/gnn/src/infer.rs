//! Inference-only forward pass over a node-masked subgraph.
//!
//! The explainers verify each candidate node set `V_t` with two
//! inferences, `M(G_t)` and `M(G \ G_t)`, both on subgraphs of one input
//! graph. [`GcnModel::predict_masked`] classifies such a subgraph
//! straight from the parent graph and a node mask: it writes the
//! subgraph's propagation operator, features and activations into a
//! per-thread [`Workspace`] that is reused across calls, so no `Graph`,
//! `Propagation` or [`crate::Forward`] is built and nothing backprop
//! would need is kept.
//!
//! The result is bit-identical to `predict_with_proba` on
//! `g.induced_subgraph(kept)`:
//! - kept nodes are renumbered in ascending order, so every operator row
//!   lists the same entries in the same column order as the
//!   [`crate::Propagation`] of the built subgraph, with the same values;
//! - the sparse and dense products are row-local and run the same
//!   kernels ([`spmm_into`], [`gemm_into`]) as [`GcnModel::forward`];
//! - ReLU emits `+0.0`, so the max-pool is exact whatever the row order.

use crate::{Aggregator, GcnModel};
use gvex_graph::{ClassLabel, Graph};
use gvex_linalg::{gemm_into, softmax_in_place, spmm_into};
use std::cell::RefCell;

/// Marks a node outside the mask in [`Workspace::map`].
const DROPPED: u32 = u32::MAX;

/// A workspace holding more than this after a call is released instead
/// of kept for the thread's next call, so one huge graph does not pin
/// its buffers for the thread's lifetime.
const RETAIN_BYTES: usize = 1 << 20;

/// Reused buffers of one masked forward. Every field is cleared and
/// refilled on each call; only the capacities carry over.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Original node id → position among the kept nodes, or [`DROPPED`].
    map: Vec<u32>,
    /// Original ids of the kept nodes, ascending.
    kept: Vec<u32>,
    /// Degree of each kept node in the induced subgraph.
    deg: Vec<usize>,
    /// `(deg + 1)^{-1/2}` per kept node (GCN normalization only).
    inv: Vec<f64>,
    /// The subgraph's propagation operator in CSR form.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    /// Layer activations `H_l`, row-major.
    h: Vec<f64>,
    /// Aggregated layer input `S · H_{l-1}`, row-major.
    agg: Vec<f64>,
    /// Max-pooled last layer, then the class logits.
    pooled: Vec<f64>,
    logits: Vec<f64>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Runs `f` on this thread's workspace. A call made while the workspace
/// is already borrowed (a re-entrant call) or while the thread is
/// shutting down gets a fresh workspace instead of panicking.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut f = Some(f);
    let reused = WORKSPACE.try_with(|cell| {
        let mut ws = cell.try_borrow_mut().ok()?;
        let out = (f.take().expect("called once"))(&mut ws);
        if ws.capacity_bytes() > RETAIN_BYTES {
            *ws = Workspace::default();
        }
        Some(out)
    });
    match reused {
        Ok(Some(out)) => out,
        _ => (f.take().expect("not yet called"))(&mut Workspace::default()),
    }
}

impl Workspace {
    fn capacity_bytes(&self) -> usize {
        let words = self.map.capacity() + self.kept.capacity() + self.indices.capacity();
        let wide = self.deg.capacity()
            + self.inv.capacity()
            + self.indptr.capacity()
            + self.values.capacity()
            + self.h.capacity()
            + self.agg.capacity()
            + self.pooled.capacity()
            + self.logits.capacity();
        words * 4 + wide * 8
    }

    /// The masked forward: label and class probabilities of the subgraph
    /// of `g` induced by the nodes `v` with `kept(v)`.
    pub(crate) fn predict(
        &mut self,
        model: &GcnModel,
        g: &Graph,
        kept: impl Fn(usize) -> bool,
    ) -> (ClassLabel, Vec<f64>) {
        assert_eq!(g.feature_dim(), model.input_dim(), "input feature dim mismatch");
        self.select(g.num_nodes(), kept);
        self.build_operator(g, model.aggregator());
        let m = self.kept.len();

        let x = g.features();
        self.h.clear();
        for &v in &self.kept {
            self.h.extend_from_slice(x.row(v as usize));
        }
        let mut width = x.cols();
        for w in model.weights() {
            self.agg.clear();
            self.agg.resize(m * width, 0.0);
            spmm_into(&self.indptr, &self.indices, &self.values, &self.h, width, &mut self.agg);
            width = w.cols();
            self.h.clear();
            self.h.resize(m * width, 0.0);
            gemm_into(m, &self.agg, w, &mut self.h);
            for a in &mut self.h {
                *a = if *a > 0.0 { *a } else { 0.0 };
            }
        }

        // Global max-pool; the empty graph pools to zeros, leaving the
        // bias as its logits.
        self.pooled.clear();
        if m == 0 {
            self.pooled.resize(width, 0.0);
        } else {
            self.pooled.resize(width, f64::NEG_INFINITY);
            for r in 0..m {
                for (p, &a) in self.pooled.iter_mut().zip(&self.h[r * width..(r + 1) * width]) {
                    if a > *p {
                        *p = a;
                    }
                }
            }
        }
        let (fc, bias) = (model.fc(), model.bias());
        self.logits.clear();
        self.logits.resize(fc.cols(), 0.0);
        gemm_into(1, &self.pooled, fc, &mut self.logits);
        for (l, &b) in self.logits.iter_mut().zip(bias.row(0)) {
            *l += b;
        }
        let label = crate::model::argmax(&self.logits) as ClassLabel;
        let mut probs = self.logits.clone();
        softmax_in_place(&mut probs);
        (label, probs)
    }

    /// Fills `map` and `kept` from the mask.
    fn select(&mut self, n: usize, kept: impl Fn(usize) -> bool) {
        self.map.clear();
        self.kept.clear();
        for v in 0..n {
            if kept(v) {
                self.map.push(self.kept.len() as u32);
                self.kept.push(v as u32);
            } else {
                self.map.push(DROPPED);
            }
        }
    }

    /// Writes the induced subgraph's operator for `agg` into the CSR
    /// buffers, with the values [`crate::Propagation::with_aggregator`]
    /// gives the built subgraph. Neighbor lists are sorted and the
    /// renumbering is monotone, so each row comes out in ascending
    /// column order once the diagonal is merged in.
    fn build_operator(&mut self, g: &Graph, agg: Aggregator) {
        let Workspace { map, kept, deg, inv, indptr, indices, values, .. } = self;
        let live = |w: &u32| map[*w as usize] != DROPPED;
        deg.clear();
        deg.extend(kept.iter().map(|&v| g.neighbors(v).iter().filter(|w| live(w)).count()));
        inv.clear();
        if agg == Aggregator::GcnSym {
            inv.extend(deg.iter().map(|&d| 1.0 / ((d + 1) as f64).sqrt()));
        }
        indptr.clear();
        indices.clear();
        values.clear();
        indptr.push(0);
        for (i, &v) in kept.iter().enumerate() {
            let (diag, off) = match agg {
                Aggregator::GcnSym => (inv[i] * inv[i], 0.0),
                Aggregator::GinSum(eps) => (1.0 + eps, 1.0),
                Aggregator::SageMean => (0.5, 0.5 / (deg[i] as f64).max(1.0)),
            };
            let mut diag_pending = true;
            for &w in g.neighbors(v) {
                let j = map[w as usize];
                if j == DROPPED {
                    continue;
                }
                if diag_pending && j as usize > i {
                    indices.push(i as u32);
                    values.push(diag);
                    diag_pending = false;
                }
                let (lo, hi) = (i.min(j as usize), i.max(j as usize));
                indices.push(j);
                values.push(if agg == Aggregator::GcnSym { inv[lo] * inv[hi] } else { off });
            }
            if diag_pending {
                indices.push(i as u32);
                values.push(diag);
            }
            indptr.push(indices.len());
        }
    }
}

impl GcnModel {
    /// Predicted label and class probabilities of the subgraph of `g`
    /// induced by a node mask, without building that subgraph: node `v`
    /// is kept when `keep[v] != invert`. With `invert = false` this is
    /// `M(G_t)` for `V_t = {v : keep[v]}`; with `invert = true` it is the
    /// complement `M(G \ G_t)`.
    ///
    /// Bit-identical to the argmax and softmax of
    /// [`GcnModel::forward_graph`]'s logits on `g.induced_subgraph(kept)`:
    /// kept nodes keep their relative order, every product is row-local,
    /// and ReLU emits `+0.0`, so the max-pool is exact. Total on the
    /// empty selection: it classifies the empty graph by the bias alone,
    /// like [`GcnModel::forward`].
    ///
    /// # Panics
    /// Panics if `keep.len() != g.num_nodes()` or the graph's feature
    /// dimension differs from the model's.
    pub fn predict_masked(&self, g: &Graph, keep: &[bool], invert: bool) -> (ClassLabel, Vec<f64>) {
        assert_eq!(keep.len(), g.num_nodes(), "mask length must equal the node count");
        with_workspace(|ws| ws.predict(self, g, |v| keep[v] != invert))
    }

    /// [`GcnModel::predict_masked`] with every node kept.
    pub(crate) fn predict_full(&self, g: &Graph) -> (ClassLabel, Vec<f64>) {
        with_workspace(|ws| ws.predict(self, g, |_| true))
    }
}
