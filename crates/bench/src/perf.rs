//! Shared fixtures for the sparse-vs-dense performance suite: the
//! reference synthetic graph, a faithful reimplementation of the
//! pre-sparse *dense* masked-propagation epoch, and its sparse
//! counterpart. Both the criterion benches (`benches/bench_sparse.rs`)
//! and the CI quick profile (`bin/bench_quick.rs`) time these, and
//! `bench_quick` additionally cross-checks that the two paths agree
//! numerically — a perf gate over divergent math would be meaningless.

use gvex_gnn::{GcnModel, Propagation};
use gvex_graph::{generate, Graph};
use gvex_linalg::{cross_entropy, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One GNNExplainer-style epoch's outputs: loss plus the per-edge mask
/// gradient (the quantities the optimizer consumes).
#[derive(Debug, Clone)]
pub struct EpochOut {
    /// Cross-entropy of the masked forward toward `target`.
    pub loss: f64,
    /// `∂loss/∂mask_e` per canonical edge.
    pub edge_grad: Vec<f64>,
}

/// The reference benchmark graph: a connected G(n, p) with expected
/// degree ≈ 6 — sparse, like every dataset in the paper — with
/// degree-bucket features so the classifier has signal.
pub fn reference_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = generate::random_connected(n, 6.0 / n as f64, 0, 8, &mut rng);
    g.set_degree_features(8);
    g
}

/// A deterministic soft edge mask in `(0, 1)` for `g`.
pub fn reference_mask(g: &Graph, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..g.num_edges()).map(|_| rng.gen_range(0.05..0.95)).collect()
}

/// One masked-propagation epoch on the **sparse** backend: CSR value
/// rescale, sparse×dense forward, slot-aligned operator gradient.
pub fn sparse_masked_epoch(
    model: &GcnModel,
    prop: &Propagation,
    g: &Graph,
    mask: &[f64],
    target: usize,
) -> EpochOut {
    let s = prop.masked(mask);
    let fwd = model.forward(&s, g.features());
    let feat_mask = vec![1.0; g.feature_dim()];
    let (loss, mg) = model.mask_backward(&fwd, target, prop, g.features(), &feat_mask);
    EpochOut { loss, edge_grad: mg.edge }
}

/// The masked operator rebuilt as a fresh dense `|V| × |V|` matrix, as
/// the pre-sparse implementation did: both entries of edge `e` scaled by
/// `mask[e]`, self-loops unmasked.
///
/// # Panics
/// Panics if `mask.len()` differs from the number of edges.
fn dense_masked_operator(prop: &Propagation, mask: &[f64]) -> Matrix {
    assert_eq!(mask.len(), prop.edge_list().len(), "mask length must equal edge count");
    let mut s = prop.csr().to_dense();
    for (&(u, v), &m) in prop.edge_list().iter().zip(mask) {
        let (u, v) = (u as usize, v as usize);
        s.set(u, v, s.get(u, v) * m);
        s.set(v, u, s.get(v, u) * m);
    }
    s
}

/// One masked-propagation epoch on the **dense** path, replicating the
/// pre-sparse implementation operation for operation: rebuild the
/// masked `|V|×|V|` operator, dense-matmul forward, and a dense
/// `∂loss/∂S` accumulated as full `n×n` products — the baseline the
/// CI perf gate compares against.
pub fn dense_masked_epoch(
    model: &GcnModel,
    prop: &Propagation,
    g: &Graph,
    mask: &[f64],
    target: usize,
) -> EpochOut {
    let s = dense_masked_operator(prop, mask);
    let x = g.features();
    let n = x.rows();

    // Forward, mirroring GcnModel::forward on dense matrices.
    let mut h = vec![x.clone()];
    let mut z = Vec::new();
    let mut a = Vec::new();
    for w in model.weights() {
        let agg = s.matmul(h.last().expect("h starts non-empty"));
        let pre = agg.matmul(w);
        h.push(pre.relu());
        a.push(agg);
        z.push(pre);
    }
    let last = h.last().expect("h non-empty");
    let (pooled, pool_arg) = last.max_pool_rows();
    let logits = pooled.matmul(model.fc()).add(model.bias());
    let (loss, dlogits) = cross_entropy(&logits, target);

    // Backward, mirroring GcnModel::backward with a dense S gradient.
    let _dfc = pooled.transpose().matmul(&dlogits);
    let dpooled = dlogits.matmul(&model.fc().transpose());
    let hidden = pooled.cols();
    let mut dh = Matrix::zeros(n, hidden);
    for (c, &arg) in pool_arg.iter().enumerate() {
        let top = last.get(arg, c);
        let tied: Vec<usize> = (0..n).filter(|&r| last.get(r, c) == top).collect();
        let share = dpooled.get(0, c) / tied.len() as f64;
        for r in tied {
            dh.add_at(r, c, share);
        }
    }
    let mut ds = Matrix::zeros(n, n);
    let s_t = s.transpose();
    for l in (0..model.weights().len()).rev() {
        let dz = dh.hadamard(&z[l].relu_gate());
        let _dw = a[l].transpose().matmul(&dz);
        let dz_wt = dz.matmul(&model.weights()[l].transpose());
        let hw = h[l].matmul(&model.weights()[l]);
        ds = ds.add(&dz.matmul(&hw.transpose()));
        dh = s_t.matmul(&dz_wt);
    }
    let edge_grad = prop
        .edge_list()
        .iter()
        .enumerate()
        .map(|(e, &(u, v))| {
            prop.edge_coeff(e) * (ds.get(u as usize, v as usize) + ds.get(v as usize, u as usize))
        })
        .collect();
    EpochOut { loss, edge_grad }
}
