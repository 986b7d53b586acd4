//! View verification (§3.3): the `EVerify` and `PMatch` primitive
//! operators checking constraints C1–C3 of the (NP-complete) view
//! verification problem.
//!
//! - **C1** (graph view): every subgraph node is covered by some pattern
//!   via node-induced subgraph isomorphism.
//! - **C2** (explanation): `M(G_s) = l` and `M(G \ G_s) ≠ l`.
//! - **C3** (proper coverage): total selected nodes lie in `[b_l, u_l]`.

use crate::{Config, ExplanationView};
use gvex_gnn::GcnModel;
use gvex_graph::{ClassLabel, Graph, GraphDb, NodeId};
use gvex_pattern::{vf2, Pattern};

/// Result of the `EVerify` inference operator on a candidate subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EVerifyResult {
    /// `M(G_s) = M(G)` — the "consistent" condition.
    pub consistent: bool,
    /// `M(G \ G_s) ≠ M(G)` — the "counterfactual" condition.
    pub counterfactual: bool,
}

impl EVerifyResult {
    /// Both conditions hold (constraint C2).
    pub fn is_explanation(&self) -> bool {
        self.consistent && self.counterfactual
    }
}

/// `EVerify` (§4): infers the labels of the candidate subgraph induced by
/// `nodes` and of its complement, checking constraint C2. Both inferences
/// run on a node mask of `g` ([`GcnModel::predict_masked`]), so neither
/// subgraph is built.
pub fn everify(model: &GcnModel, g: &Graph, nodes: &[NodeId], label: ClassLabel) -> EVerifyResult {
    let mut keep = vec![false; g.num_nodes()];
    for &v in nodes {
        keep[v as usize] = true;
    }
    let consistent = model.predict_masked(g, &keep, false).0 == label;
    let counterfactual = model.predict_masked(g, &keep, true).0 != label;
    EVerifyResult { consistent, counterfactual }
}

/// `PMatch` (§4), constraint C1: do the patterns cover **all** the nodes
/// of the given induced subgraph?
pub fn pmatch_covers(patterns: &[Pattern], subgraph: &Graph) -> bool {
    let n = subgraph.num_nodes();
    if n == 0 {
        return true;
    }
    let mut covered = vec![false; n];
    for p in patterns {
        let (nodes, _) = vf2::coverage(p, subgraph);
        for v in nodes {
            covered[v as usize] = true;
        }
        if covered.iter().all(|&c| c) {
            return true;
        }
    }
    covered.iter().all(|&c| c)
}

/// Constraint C3: does the view properly cover its label group, i.e. does
/// the total selected node count lie in `[b_l, u_l]`?
///
/// The paper states the bound per label group; consistent with the
/// per-graph growth of Algorithm 1 (`|V_S| < C.u_l` per graph), the upper
/// bound is enforced per explained graph and the lower bound on the total.
pub fn proper_coverage(view: &ExplanationView, cfg: &Config) -> bool {
    let (b, u) = cfg.bounds_for(view.label);
    view.subgraphs.iter().all(|s| s.len() <= u)
        && view.subgraphs.iter().all(|s| s.len() >= b.min(u).min(1) || s.is_empty())
        && view.total_subgraph_nodes() >= b.min(view.subgraphs.len() * u)
}

/// Full view verification: C1 ∧ C2 ∧ C3 for a candidate view against the
/// database. Returns per-constraint outcomes for diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct Verification {
    /// C1: all subgraph nodes covered by the pattern tier.
    pub c1_graph_view: bool,
    /// C2: all subgraphs consistent & counterfactual.
    pub c2_explanation: bool,
    /// C3: proper coverage under the configuration.
    pub c3_coverage: bool,
}

impl Verification {
    /// All three constraints hold.
    pub fn ok(&self) -> bool {
        self.c1_graph_view && self.c2_explanation && self.c3_coverage
    }
}

/// Verifies a view against the database and model (the NP verification
/// algorithm of Lemma 3.1, realized with the two primitive verifiers).
pub fn verify_view(
    model: &GcnModel,
    db: &GraphDb,
    view: &ExplanationView,
    cfg: &Config,
) -> Verification {
    let mut c1 = true;
    let mut c2 = true;
    for s in &view.subgraphs {
        let g = db.graph(s.graph_id);
        let (sub, _) = g.induced_subgraph(&s.nodes);
        if !pmatch_covers(&view.patterns, &sub) {
            c1 = false;
        }
        let r = everify(model, g, &s.nodes, view.label);
        if !r.is_explanation() {
            c2 = false;
        }
    }
    Verification { c1_graph_view: c1, c2_explanation: c2, c3_coverage: proper_coverage(view, cfg) }
}
