//! Experiment harness (system S15): shared setup and measurement code for
//! regenerating every table and figure of the paper's §6 evaluation.
//!
//! Each `exp_*` binary in `src/bin/` prints the same rows/series the paper
//! reports and writes machine-readable JSON under `results/`. The harness
//! here handles dataset generation, classifier training, method dispatch,
//! metric computation, and table/JSON output. Absolute numbers differ
//! from the paper's testbed (synthetic data, laptop hardware); the
//! *shapes* — who wins, trends in `u_l`, runtime orders of magnitude —
//! are the reproduction target (see EXPERIMENTS.md).
//!
//! The CI bench bins (`bench_quick`, `loadgen`, `paging_bench`,
//! `stream_bench`) write their `BENCH_PR*.json` payloads through the
//! [`gate`] harness, which `trajectory_gate` reads them back with.

pub mod experiments;
pub mod gate;
pub mod perf;

use gvex_baselines::{GStarX, GcfExplainer, GnnExplainer, SubgraphX};
use gvex_core::metrics::{self, GraphExplanation};
use gvex_core::{ApproxGvex, Config, ContextCache, Explainer, StreamGvex};
use gvex_data::{DataConfig, DatasetKind};
use gvex_gnn::{AdamTrainer, GcnModel, TrainConfig};
use gvex_graph::{ClassLabel, GraphDb, GraphId};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// A dataset with a trained classifier, ready for explanation.
pub struct TrainedDataset {
    /// Which benchmark this is.
    pub kind: DatasetKind,
    /// The database with predictions recorded (label groups formed).
    pub db: GraphDb,
    /// The trained GCN.
    pub model: GcnModel,
    /// Test-split graph ids (explanations target these, per §6.1).
    pub test_ids: Vec<GraphId>,
    /// Accuracy on the test split.
    pub test_accuracy: f64,
}

/// Generates `kind`, trains the §6.1 classifier (3-layer GCN + max pool +
/// FC, Adam), records predictions, and returns the bundle. Deterministic
/// in `seed`.
pub fn prepare(kind: DatasetKind, num_graphs: usize, size_scale: f64, seed: u64) -> TrainedDataset {
    let cfg = DataConfig { num_graphs, seed, size_scale };
    let mut db = kind.generate(cfg);
    let split = db.split(0.8, 0.1, seed);
    let feat = db.graph(0).feature_dim();
    let classes = db.labels().len();
    let mut model = GcnModel::new(feat, 32, classes, 3, seed);
    let mut trainer = AdamTrainer::new(
        &model,
        TrainConfig { epochs: 150, lr: 5e-3, seed, ..TrainConfig::default() },
    );
    trainer.fit(&mut model, &db, &split.train);
    let test_accuracy = AdamTrainer::classify_all(&model, &mut db, &split.test);
    TrainedDataset { kind, db, model, test_ids: split.test, test_accuracy }
}

/// Environment-controlled scale knob: `GVEX_SCALE` multiplies dataset
/// sizes for heavier runs (default 1.0 keeps the suite laptop-fast).
pub fn env_scale() -> f64 {
    std::env::var("GVEX_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// The six benchmarked methods (Table 1 / §6.1 naming): AG, SG, GE, SX,
/// GX, GCF. GVEX methods use the given base configuration.
pub fn methods(config: &Config) -> Vec<Box<dyn Explainer>> {
    vec![
        Box::new(ApproxGvex::new(config.clone())),
        Box::new(StreamGvex::new(config.clone())),
        Box::new(GnnExplainer::default()),
        Box::new(SubgraphX::default()),
        Box::new(GStarX::default()),
        Box::new(GcfExplainer::default()),
    ]
}

/// Result of evaluating one method at one configuration point.
#[derive(Debug, Clone, Serialize)]
pub struct MethodEval {
    /// Method short name.
    pub method: String,
    /// Dataset short name.
    pub dataset: String,
    /// Node budget `u_l`.
    pub budget: usize,
    /// Fidelity+ (Eq. 8).
    pub fidelity_plus: f64,
    /// Fidelity- (Eq. 9).
    pub fidelity_minus: f64,
    /// Sparsity (Eq. 10).
    pub sparsity: f64,
    /// Wall-clock seconds for the whole explanation batch.
    pub runtime_s: f64,
    /// Number of graphs explained.
    pub graphs: usize,
    /// Fraction of explanations whose strict C2 check (consistent AND
    /// counterfactual) held at emission — read off the rich
    /// [`gvex_core::Explanation`]s instead of being recomputed.
    pub strict_frac: f64,
}

/// Explains `ids` (label group `label`) with `explainer` at `budget`
/// and computes the §6.1 metrics.
///
/// The batch goes through [`Explainer::explain_batch`] with a fresh
/// [`ContextCache`], so the per-graph precomputation is built once per
/// graph *inside* the timed region — uniformly for every method, which
/// preserves the relative runtime ordering the figures report. The
/// cache is built under the explainer's own context configuration
/// ([`Explainer::context_config`]) so swept `θ`/`r`/influence-mode
/// parameters (Fig 7, ablations) reach the contexts.
pub fn evaluate(
    ds: &TrainedDataset,
    explainer: &dyn Explainer,
    label: ClassLabel,
    ids: &[GraphId],
    budget: usize,
) -> MethodEval {
    let ctx_cfg = explainer.context_config().unwrap_or_else(|| Config::with_bounds(0, budget));
    let ctxs = ContextCache::new(ctx_cfg);
    let start = Instant::now();
    let rich = explainer.explain_batch(&ds.model, &ds.db, label, ids, budget, &ctxs);
    let runtime_s = start.elapsed().as_secs_f64();
    let strict = rich.iter().filter(|e| e.flags.is_strict_explanation()).count();
    let strict_frac = if rich.is_empty() { 0.0 } else { strict as f64 / rich.len() as f64 };
    let expl: Vec<GraphExplanation> = rich
        .into_iter()
        .map(|e| GraphExplanation { graph: ds.db.graph(e.graph_id).clone(), label, nodes: e.nodes })
        .collect();
    MethodEval {
        method: explainer.name().to_string(),
        dataset: ds.kind.name().to_string(),
        budget,
        fidelity_plus: metrics::fidelity_plus(&ds.model, &expl),
        fidelity_minus: metrics::fidelity_minus(&ds.model, &expl),
        sparsity: metrics::sparsity(&expl),
        runtime_s,
        graphs: expl.len(),
        strict_frac,
    }
}

/// Picks the label of interest for a dataset: the test-split label group
/// with the most members (the paper explains "one label of user's
/// interest"). Returns `(label, test ids in that group)`.
pub fn label_of_interest(ds: &TrainedDataset) -> (ClassLabel, Vec<GraphId>) {
    let mut best: (ClassLabel, Vec<GraphId>) = (0, Vec::new());
    for l in ds.db.labels() {
        let ids: Vec<GraphId> =
            ds.test_ids.iter().copied().filter(|&id| ds.db.predicted(id) == Some(l)).collect();
        if ids.len() > best.1.len() {
            best = (l, ids);
        }
    }
    best
}

/// Writes a JSON result file under `results/` (created if missing).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, body).expect("write results file");
    println!("[results] wrote {}", path.display());
}

/// `results/` directory at the workspace root (env `GVEX_RESULTS` wins).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("GVEX_RESULTS") {
        return PathBuf::from(d);
    }
    // Walk up from the crate dir to the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Prints an aligned table: header row + data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Standard budgets swept by Figs 5, 6, 8c/d, 9a/b (the paper varies
/// `u_l` over a handful of points).
pub const BUDGETS: [usize; 5] = [5, 10, 15, 20, 25];

/// Small per-dataset graph counts for figure runs (scaled by
/// [`env_scale`]); chosen so the full suite completes in minutes.
pub fn figure_num_graphs(kind: DatasetKind) -> usize {
    let base = match kind {
        DatasetKind::Mutagenicity => 80,
        DatasetKind::RedditBinary => 60,
        DatasetKind::Enzymes => 72,
        DatasetKind::MalnetTiny => 40,
        DatasetKind::Pcqm4m => 90,
        DatasetKind::Products => 32,
        DatasetKind::Synthetic => 6,
    };
    ((base as f64) * env_scale()).round().max(6.0) as usize
}

/// Per-dataset size scale for figure runs (MAL/SYN shrink so the slowest
/// baselines finish; GVEX itself handles full scale — see Fig 9d/e).
pub fn figure_size_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::MalnetTiny => 0.35,
        DatasetKind::Synthetic => 0.12,
        DatasetKind::Products => 0.5,
        _ => 1.0,
    }
}
