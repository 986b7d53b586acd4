use crate::{Aggregator, Propagation};
use gvex_graph::{ClassLabel, Graph};
use gvex_linalg::{cross_entropy, CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph convolutional network for graph classification (§2.1 Eq. 1,
/// §6.1): `k` GCN layers with ReLU, global max pooling, and one
/// fully-connected layer producing class logits.
#[derive(Debug, Clone)]
pub struct GcnModel {
    /// Per-layer weight matrices `Θ_1..Θ_k`.
    weights: Vec<Matrix>,
    /// Fully-connected head `hidden x num_classes`.
    fc: Matrix,
    /// Bias of the head, `1 x num_classes`.
    bias: Matrix,
    input_dim: usize,
    num_classes: usize,
    aggregator: Aggregator,
}

/// Cached activations of one forward pass; everything backprop needs.
#[derive(Debug, Clone)]
pub struct Forward {
    /// The sparse propagation operator used (possibly masked).
    pub s: CsrMatrix,
    /// Layer inputs `H_0 = X, H_1, ..., H_k` (post-activation).
    pub h: Vec<Matrix>,
    /// Pre-activations `Z_1..Z_k`.
    pub z: Vec<Matrix>,
    /// Aggregated inputs `A_l = S · H_{l-1}` (cached for weight gradients).
    pub a: Vec<Matrix>,
    /// Pooled graph representation, `1 x hidden`.
    pub pooled: Matrix,
    /// Argmax row per pooled column (max-pool backprop routing).
    pub pool_arg: Vec<usize>,
    /// Class logits, `1 x num_classes`.
    pub logits: Matrix,
}

/// Gradients of the loss w.r.t. model parameters and inputs.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Per-layer weight gradients.
    pub weights: Vec<Matrix>,
    /// Head weight gradient.
    pub fc: Matrix,
    /// Head bias gradient.
    pub bias: Matrix,
    /// Gradient w.r.t. the input features `X`.
    pub x: Matrix,
    /// Gradient w.r.t. the propagation operator `S` (only when requested),
    /// stored sparsely: one value per stored entry of the forward's
    /// operator, in CSR order. `S` gradients are only ever consumed at the
    /// operator's own sparsity pattern (edge-mask learning), so nothing
    /// dense is materialized.
    pub s: Option<Vec<f64>>,
}

/// Gradients w.r.t. the GNNExplainer masks.
#[derive(Debug, Clone)]
pub struct MaskGradients {
    /// `∂loss/∂mask_e` for each canonical edge.
    pub edge: Vec<f64>,
    /// `∂loss/∂featmask_j` for each input feature dimension.
    pub feature: Vec<f64>,
}

impl GcnModel {
    /// Creates a model with `layers` GCN layers of width `hidden`,
    /// Glorot-initialized from `seed`.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        num_classes: usize,
        layers: usize,
        seed: u64,
    ) -> Self {
        assert!(layers >= 1, "need at least one GCN layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(layers);
        let mut d = input_dim;
        for _ in 0..layers {
            weights.push(Matrix::glorot(d, hidden, &mut rng));
            d = hidden;
        }
        let fc = Matrix::glorot(hidden, num_classes, &mut rng);
        let bias = Matrix::zeros(1, num_classes);
        Self { weights, fc, bias, input_dim, num_classes, aggregator: Aggregator::GcnSym }
    }

    /// Builder: selects an alternative message-passing aggregator (the
    /// explainers are model-agnostic — Table 1 "MA").
    pub fn with_aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// The aggregation scheme this model propagates with.
    pub fn aggregator(&self) -> Aggregator {
        self.aggregator
    }

    /// Number of GCN layers `k`.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// The per-layer weight matrices `Θ_1..Θ_k` (read-only; used by the
    /// exact-Jacobian influence mode).
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// The fully-connected head weights (read-only; used by the dense
    /// reference path in the benchmark suite).
    pub fn fc(&self) -> &Matrix {
        &self.fc
    }

    /// The head bias (read-only; see [`GcnModel::fc`]).
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Input feature dimension the model expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Test-only mutable access to the raw parameter list.
    #[doc(hidden)]
    pub fn params_for_test(&mut self) -> Vec<&mut Matrix> {
        self.params_mut()
    }

    /// Mutable parameter list (weights, fc, bias) for the optimizer.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p: Vec<&mut Matrix> = self.weights.iter_mut().collect();
        p.push(&mut self.fc);
        p.push(&mut self.bias);
        p
    }

    /// Forward pass with an explicit sparse operator `S` and features `X`.
    /// Each layer's aggregation is a sparse×dense product — `O(nnz · d)`,
    /// never `|V|²`.
    ///
    /// Handles the empty graph (`|V| = 0`): pooling yields zeros, so the
    /// prediction degenerates to the bias — a fixed, deterministic label,
    /// which keeps the counterfactual check `M(G \ G_s)` total.
    pub fn forward(&self, s: &CsrMatrix, x: &Matrix) -> Forward {
        assert_eq!(x.cols(), self.input_dim, "input feature dim mismatch");
        assert_eq!(s.rows(), x.rows(), "operator/feature row mismatch");
        let mut h = vec![x.clone()];
        let mut z = Vec::with_capacity(self.weights.len());
        let mut a = Vec::with_capacity(self.weights.len());
        for w in &self.weights {
            let agg = s.spmm_dense(h.last().expect("h starts non-empty"));
            let pre = agg.matmul(w);
            h.push(pre.relu());
            a.push(agg);
            z.push(pre);
        }
        let last = h.last().expect("h non-empty");
        let (pooled, pool_arg) = if last.rows() == 0 {
            (Matrix::zeros(1, last.cols()), vec![0; last.cols()])
        } else {
            last.max_pool_rows()
        };
        let logits = pooled.matmul(&self.fc).add(&self.bias);
        Forward { s: s.clone(), h, z, a, pooled, pool_arg, logits }
    }

    /// Forward pass with a dense operator: converts to CSR and delegates
    /// to the sparse path. For tests and tiny graphs where a dense `S` is
    /// at hand; the conversion is `O(n²)` so production paths pass CSR.
    pub fn forward_dense(&self, s: &Matrix, x: &Matrix) -> Forward {
        self.forward(&CsrMatrix::from_dense(s), x)
    }

    /// Forward pass on a whole graph (builds the propagation operator
    /// for this model's aggregator).
    pub fn forward_graph(&self, g: &Graph) -> Forward {
        let prop = Propagation::with_aggregator(g, self.aggregator);
        self.forward(prop.csr(), g.features())
    }

    /// Predicted class label `M(G)`.
    pub fn predict(&self, g: &Graph) -> ClassLabel {
        self.predict_full(g).0
    }

    /// Predicted class probabilities for `G` (softmax of the logits).
    pub fn predict_proba(&self, g: &Graph) -> Vec<f64> {
        self.predict_full(g).1
    }

    /// Label and probability vector in one pass. Runs the inference-only
    /// path of [`GcnModel::predict_masked`]; bit-identical to the argmax
    /// and softmax of [`GcnModel::forward_graph`]'s logits.
    pub fn predict_with_proba(&self, g: &Graph) -> (ClassLabel, Vec<f64>) {
        self.predict_full(g)
    }

    /// Last-layer node representations `X^k` (used by the diversity measure
    /// Eq. 6 and as the model-agnostic interface of the paper).
    pub fn node_embeddings(&self, g: &Graph) -> Matrix {
        let fwd = self.forward_graph(g);
        fwd.h.last().expect("h non-empty").clone()
    }

    /// Per-node class scores: applies the classification head to each
    /// node's layer-k embedding (`n x num_classes`). Because the model
    /// pools by max, a node's head score is exactly its potential
    /// contribution to each class logit — a CAM-style evidence map used
    /// by the streaming swap rule.
    pub fn class_scores(&self, embeddings: &Matrix) -> Matrix {
        let mut scores = embeddings.matmul(&self.fc);
        for r in 0..scores.rows() {
            for c in 0..scores.cols() {
                scores.add_at(r, c, self.bias.get(0, c));
            }
        }
        scores
    }

    /// Cross-entropy loss and full backward pass for one graph.
    ///
    /// When `want_s_grad` is set, also accumulates `∂loss/∂S` (needed for
    /// edge-mask learning).
    pub fn loss_backward(
        &self,
        fwd: &Forward,
        target: usize,
        want_s_grad: bool,
    ) -> (f64, Gradients) {
        let (loss, dlogits) = cross_entropy(&fwd.logits, target);
        let grads = self.backward(fwd, &dlogits, want_s_grad);
        (loss, grads)
    }

    /// Backward pass from an arbitrary logit gradient.
    pub fn backward(&self, fwd: &Forward, dlogits: &Matrix, want_s_grad: bool) -> Gradients {
        let n = fwd.s.rows();
        let k = self.weights.len();
        let dfc = fwd.pooled.transpose().matmul(dlogits);
        let dbias = dlogits.clone();
        let dpooled = dlogits.matmul(&self.fc.transpose());

        // Route the pooled gradient back to the argmax rows. At exact
        // ties the max is non-differentiable; splitting the gradient
        // evenly across all tied rows picks the symmetric subgradient
        // (the one a central finite difference converges to when the
        // tie comes from graph symmetry), instead of silently
        // privileging the lowest row index.
        let hidden = fwd.pooled.cols();
        let mut dh = Matrix::zeros(n, hidden);
        if n > 0 {
            let last = fwd.h.last().expect("forward stores at least X");
            for c in 0..hidden {
                let top = last.get(fwd.pool_arg[c], c);
                let tied: Vec<usize> = (0..n).filter(|&r| last.get(r, c) == top).collect();
                let share = dpooled.get(0, c) / tied.len() as f64;
                for r in tied {
                    dh.add_at(r, c, share);
                }
            }
        }

        let mut dweights = vec![Matrix::zeros(0, 0); k];
        let mut ds = want_s_grad.then(|| vec![0.0f64; fwd.s.nnz()]);
        // Transposed operator for routing gradients backward; equals S for
        // the symmetric GCN operator but differs for SAGE-mean.
        let s_t = fwd.s.transpose();
        for l in (0..k).rev() {
            let dz = dh.hadamard(&fwd.z[l].relu_gate());
            dweights[l] = fwd.a[l].transpose().matmul(&dz);
            let dz_wt = dz.matmul(&self.weights[l].transpose());
            if let Some(ds) = ds.as_mut() {
                // Z_l = S · (H_{l-1} W_l)  =>  ∂L/∂S += dZ_l · (H_{l-1} W_l)ᵀ,
                // evaluated only at S's stored entries: the loss is linear
                // in each S_{uv} and every consumer (edge-mask learning)
                // reads the gradient at the operator's sparsity pattern, so
                // the dense n×n product is never formed — this was the last
                // |V|² allocation in the GNNExplainer epoch loop.
                let hw = fwd.h[l].matmul(&self.weights[l]);
                let indptr = fwd.s.indptr();
                let indices = fwd.s.indices();
                for u in 0..n {
                    let dz_row = dz.row(u);
                    for slot in indptr[u]..indptr[u + 1] {
                        let v = indices[slot] as usize;
                        let dot: f64 = dz_row.iter().zip(hw.row(v)).map(|(a, b)| a * b).sum();
                        ds[slot] += dot;
                    }
                }
            }
            dh = s_t.spmm_dense(&dz_wt);
        }
        Gradients { weights: dweights, fc: dfc, bias: dbias, x: dh, s: ds }
    }

    /// Cross-entropy loss plus gradients w.r.t. a per-edge mask and a
    /// per-feature mask, for GNNExplainer.
    ///
    /// The forward must have been computed with `prop.masked(edge_mask)` and
    /// features `X ⊙ feat_mask` (columns scaled). `x_orig` are the unmasked
    /// features.
    pub fn mask_backward(
        &self,
        fwd: &Forward,
        target: usize,
        prop: &Propagation,
        x_orig: &Matrix,
        feat_mask: &[f64],
    ) -> (f64, MaskGradients) {
        let (loss, grads) = self.loss_backward(fwd, target, true);
        let ds = grads.s.expect("requested S gradient");
        let edge = prop.edge_grad(&ds);
        let mut feature = vec![0.0; feat_mask.len()];
        for r in 0..x_orig.rows() {
            for (j, f) in feature.iter_mut().enumerate() {
                *f += grads.x.get(r, j) * x_orig.get(r, j);
            }
        }
        (loss, MaskGradients { edge, feature })
    }
}

/// Index of the maximum entry; the first one on ties.
pub(crate) fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}
