//! `ApproxGVEX` (Algorithm 1): the explain-and-summarize approximation
//! scheme with the 1/2-approximation guarantee of Theorem 4.1.
//!
//! **Explain phase.** Greedily grows the selected node set `V_S` by
//! marginal explainability gain (the submodular objective of Lemma 3.3),
//! verifying candidates with `VpExtend` (Procedure 2: consistency,
//! counterfactual, and size checks). Candidates are scanned in descending
//! gain order, so the first strict pass *is* the argmax over passing
//! candidates; every unselected node is verified each round. Each
//! candidate costs exactly two GNN inferences, `M(G_t)` and
//! `M(G \ G_t)`, both run by [`GcnModel::predict_masked`] on a node mask
//! of the input graph, so no subgraph is built. When no candidate passes
//! the strict C2 check (common early in growth, when a 1-node subgraph
//! cannot yet reproduce the label), the top-gain candidate is accepted
//! and the strict conditions are re-checked on the final subgraph — the
//! emitted [`ExplanationSubgraph`] records whether they hold. This keeps
//! the greedy total (the paper's experiments likewise report
//! explanations whose Fidelity- is not identically zero).
//!
//! **Summarize phase.** `Psum` (see [`crate::psum`]) mines patterns from
//! the explanation subgraphs and selects a node-covering set by greedy
//! weighted set cover (Lemma 4.3).

use crate::psum::psum;
use crate::quality::GainTracker;
use crate::verify::everify;
use crate::{Config, ExplanationSubgraph, ExplanationView, GraphContext, ViewSet};
use gvex_gnn::GcnModel;
use gvex_graph::{ClassLabel, Graph, GraphDb, GraphId, NodeId};
use gvex_linalg::cmp_score;

/// The explain-and-summarize GVEX algorithm (Algorithm 1).
#[derive(Debug, Clone)]
pub struct ApproxGvex {
    /// The configuration `C`.
    pub config: Config,
}

impl ApproxGvex {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: Config) -> Self {
        Self { config }
    }

    /// Explains a single graph for `label` (Algorithm 1), returning the
    /// lower-tier subgraph. Returns `None` when the lower coverage bound
    /// cannot be met. (The rich-result path is the
    /// [`crate::Explainer::explain_graph`] trait method.)
    pub fn explain_subgraph(
        &self,
        model: &GcnModel,
        g: &Graph,
        graph_id: GraphId,
        label: ClassLabel,
    ) -> Option<ExplanationSubgraph> {
        let ctx = GraphContext::build(model, g, &self.config);
        self.explain_with_context(model, g, graph_id, label, &ctx)
    }

    /// Like [`Self::explain_subgraph`] with a prebuilt context
    /// (Algorithm 1 line 2's one-time precomputation, reusable across
    /// `u_l` sweeps).
    pub fn explain_with_context(
        &self,
        model: &GcnModel,
        g: &Graph,
        graph_id: GraphId,
        label: ClassLabel,
        ctx: &GraphContext,
    ) -> Option<ExplanationSubgraph> {
        self.explain_bounded(model, g, graph_id, label, self.config.bounds_for(label), ctx)
    }

    /// Like [`Self::explain_with_context`] but with explicit coverage
    /// bounds `(b_l, u_l)` overriding the configuration's. This is the
    /// entry point of the budgeted [`crate::Explainer`] path: the old
    /// interface had to clone the whole algorithm per call just to
    /// rewrite `config.default_bounds`.
    pub fn explain_bounded(
        &self,
        model: &GcnModel,
        g: &Graph,
        graph_id: GraphId,
        label: ClassLabel,
        (b_l, u_l): (usize, usize),
        ctx: &GraphContext,
    ) -> Option<ExplanationSubgraph> {
        let n = g.num_nodes();
        if n == 0 || b_l > n || u_l == 0 {
            return None;
        }
        let u_l = u_l.min(n);
        let mut vs: Vec<NodeId> = Vec::with_capacity(u_l);
        let mut in_vs = vec![false; n];
        let mut tracker = GainTracker::new(ctx, &self.config);
        let trace = std::env::var_os("GVEX_TRACE").is_some();

        // Explanation phase (lines 3-9): greedy growth under the upper
        // bound with VpExtend verification.
        while vs.len() < u_l {
            let mut cand: Vec<(f64, NodeId)> = (0..n as NodeId)
                .filter(|&v| !in_vs[v as usize])
                .map(|v| (tracker.gain(v), v))
                .collect();
            if cand.is_empty() {
                break;
            }
            // Descending gain, ascending id for determinism; a NaN gain
            // (a degenerate model output) ranks last instead of
            // panicking mid-explain or winning the sort.
            cand.sort_by(|a, b| cmp_score(b.0, a.0).then(a.1.cmp(&b.1)));
            // Graded VpExtend over every unselected node, in gain order. A
            // candidate passing both strict C2 conditions outranks every
            // candidate that does not (Algorithm 1 line 7 takes the argmax
            // over passing candidates). When no candidate passes strictly
            // — common early in growth, when a tiny subgraph cannot yet
            // reproduce the label — the soft score `p(l | G_t) −
            // p(l | G \ G_t)` ranks candidates by how far they move both
            // C2 conditions at once, and the best one is taken.
            // Strictness is re-checked on the final subgraph. The scan
            // includes every unselected neighbor of V_S, which is what
            // "extend an existing explanation subgraph in its original
            // graph" (Algorithm 1 line 5) needs: peripheral but
            // label-critical atoms (e.g. the oxygens of a nitro group) can
            // sit far down the influence-gain order.
            //
            // The graded score mirrors Procedure 2's condition order:
            //   - strict passes (consistent AND counterfactual) dominate;
            //   - then candidates keeping consistency, competing on
            //     counterfactual progress (1 - p_rest);
            //   - before consistency is reached, climb toward it (p_sub);
            //   - a small adjacency bonus prefers completing the
            //     structure already selected (e.g. the O's of an included
            //     nitro N) over isolated high-gain nodes, which is what
            //     makes the emitted subgraphs summarizable by connected
            //     patterns.
            let mut soft_best: Option<(f64, NodeId)> = None;
            for &(gain, v) in &cand {
                let (sub, rest) = verify_extension(model, g, &mut in_vs, v);
                let p_sub = sub.1[label as usize];
                let p_rest = rest.1[label as usize];
                let consistent = sub.0 == label;
                let counterfactual = rest.0 != label;
                let strict_bonus = if consistent && counterfactual { 2.0 } else { 0.0 };
                let base = if consistent { 1.0 + (1.0 - p_rest) } else { p_sub };
                let adj_bonus =
                    if g.neighbors(v).iter().any(|&w| in_vs[w as usize]) { 0.05 } else { 0.0 };
                // The influence/diversity gain (the Eq. 2 objective under
                // the configuration's theta/r/gamma) decides among
                // equally-verified candidates: once the strict conditions
                // hold, growth is driven by the submodular objective (and
                // therefore by the configuration, Fig 7); before that,
                // the verification signal dominates and the gain only
                // breaks ties.
                let gain_w = if strict_bonus > 0.0 { 0.5 } else { 0.01 };
                // Per-node label evidence (the CAM map of
                // [`GraphContext::evidence`]) keeps label-supporting nodes
                // ahead of topological filler in every phase — it is what
                // completes a discriminative substructure (all three
                // atoms of a nitro group) instead of scattering across
                // high-influence carbons.
                let soft = strict_bonus
                    + base
                    + adj_bonus
                    + 0.3 * ctx.evidence[v as usize]
                    + gain_w * gain;
                if soft_best.is_none_or(|(s, _)| soft > s) {
                    soft_best = Some((soft, v));
                }
            }
            let v = soft_best.map(|(_, v)| v).unwrap_or(cand[0].1);
            if trace {
                let (sub, rest) = verify_extension(model, g, &mut in_vs, v);
                eprintln!(
                    "[gvex-trace] step {} pick node {} (type {}) score {:.3} p_sub {:.3} p_rest {:.3}",
                    vs.len(),
                    v,
                    g.node_type(v),
                    soft_best.map(|(s, _)| s).unwrap_or(f64::NAN),
                    sub.1[label as usize],
                    rest.1[label as usize],
                );
            }
            tracker.add(v);
            in_vs[v as usize] = true;
            vs.push(v);
        }

        // Lower-bound phase (lines 10-17).
        while vs.len() < b_l {
            let next = (0..n as NodeId)
                .filter(|&v| !in_vs[v as usize])
                .map(|v| (tracker.gain(v), v))
                .max_by(|a, b| cmp_score(a.0, b.0).then(b.1.cmp(&a.1)));
            let (_, v) = next?;
            tracker.add(v);
            in_vs[v as usize] = true;
            vs.push(v);
        }

        if vs.is_empty() {
            return None;
        }
        vs.sort_unstable();
        let res = everify(model, g, &vs, label);
        Some(ExplanationSubgraph {
            graph_id,
            nodes: vs,
            consistent: res.consistent,
            counterfactual: res.counterfactual,
            score: tracker.score(),
        })
    }

    /// Assembles the explanation view for one label group (invokes the
    /// per-graph algorithm for each `G ∈ G^l`, then `Psum`).
    pub fn explain_label(
        &self,
        model: &GcnModel,
        db: &GraphDb,
        label: ClassLabel,
        ids: &[GraphId],
    ) -> ExplanationView {
        let subgraphs: Vec<ExplanationSubgraph> = ids
            .iter()
            .filter_map(|&id| self.explain_subgraph(model, db.graph(id), id, label))
            .collect();
        self.summarize(db, label, subgraphs)
    }

    /// Summarize phase: run `Psum` over already-computed subgraphs and
    /// assemble the view.
    pub fn summarize(
        &self,
        db: &GraphDb,
        label: ClassLabel,
        subgraphs: Vec<ExplanationSubgraph>,
    ) -> ExplanationView {
        let induced: Vec<Graph> = subgraphs.iter().map(|s| s.induced(db).0).collect();
        let ps = psum(&induced, &self.config.miner);
        let explainability = subgraphs.iter().map(|s| s.score).sum();
        ExplanationView {
            label,
            subgraphs,
            patterns: ps.patterns,
            explainability,
            edge_loss: ps.edge_loss,
        }
    }

    /// Solves EVG for a set of labels: one view per label group (uses the
    /// classifier's predictions recorded in the database).
    pub fn explain_labels(&self, model: &GcnModel, db: &GraphDb, labels: &[ClassLabel]) -> ViewSet {
        let views = labels
            .iter()
            .map(|&l| {
                let ids = db.label_group(l);
                self.explain_label(model, db, l, &ids)
            })
            .collect();
        ViewSet { views }
    }
}

/// `VpExtend`'s two inferences for candidate `v`: the predictions
/// (label, class probabilities) of `G_t` and of `G \ G_t`, where
/// `V_t = in_vs ∪ {v}`. Marks `v` in `in_vs` for the two masked
/// forwards and clears it again.
fn verify_extension(
    model: &GcnModel,
    g: &Graph,
    in_vs: &mut [bool],
    v: NodeId,
) -> ((ClassLabel, Vec<f64>), (ClassLabel, Vec<f64>)) {
    in_vs[v as usize] = true;
    let sub = model.predict_masked(g, in_vs, false);
    let rest = model.predict_masked(g, in_vs, true);
    in_vs[v as usize] = false;
    (sub, rest)
}
