//! Shared pieces: the result record, metric sets, statistics, the work
//! directory, view digests, and the host/configuration record.

use gvex_core::{verify, Config, ExplanationView};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDb};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics: every workload reports all of them (name, unit).
/// Each workload's `why` in `BENCHMARK.json` says what its operation is.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_resident_bytes", "bytes"),
];

/// Per-layer metrics of the traced run (name, unit). A layer a workload
/// does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("gnn.forward_us", "us"),
    ("core.approx.graph_ms", "ms"),
    ("core.stream.graph_ms", "ms"),
    ("core.context.build_ms", "ms"),
    ("core.psum_ms", "ms"),
    ("core.store.insert_ms", "ms"),
    ("pattern.vf2_us", "us"),
    ("core.query_p50_us", "us"),
    ("core.query_p99_us", "us"),
    ("core.snapshot.query_us", "us"),
    ("serve.json_us", "us"),
    ("serve.http_frame_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.batch_occupancy", "count"),
    ("serve.admission_rejections", "count"),
    ("serve.resp_5xx", "count"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("core.insert_p50_ms", "ms"),
    ("core.insert_p99_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("store.wal_append_us", "us"),
    ("store.wal_sync_us", "us"),
    ("store.wal_bytes_per_graph", "bytes"),
    ("store.disk_high_water_bytes", "bytes"),
    ("pager.faults", "count"),
    ("pager.evictions", "count"),
    ("pager.hit_rate", "ratio"),
    ("pager.spilled_bytes", "bytes"),
    ("pager.extent_dead_share", "ratio"),
    ("graph.window_expired", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// An ordered metric set restricted to one of the two lists above.
pub struct Metrics {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self { schema: &END_TO_END, values: BTreeMap::new() }
    }

    pub fn per_layer() -> Self {
        Self { schema: &PER_LAYER, values: BTreeMap::new() }
    }

    /// Records `name`; panics on a name outside the schema, so a typo
    /// cannot silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .schema
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        self.values.insert(key, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every schema entry, in schema order; unset ones read 0.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.schema
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// Attempted/failed counts per operation class.
#[derive(Default)]
pub struct OpCounts(BTreeMap<&'static str, (u64, u64)>);

impl OpCounts {
    pub fn add(&mut self, class: &'static str, attempted: u64, failed: u64) {
        let e = self.0.entry(class).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// Adds every class of `other`.
    pub fn merge(&mut self, other: &OpCounts) {
        for (class, &(a, f)) in &other.0 {
            self.add(class, a, f);
        }
    }

    pub fn totals(&self) -> (u64, u64) {
        self.0.values().fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }

    pub fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, &(a, f))| (k.to_string(), json!({ "attempted": a, "failed": f })))
                .collect(),
        )
    }
}

/// What one run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: OpCounts,
    /// Failed output checks; empty means correct.
    pub problems: Vec<String>,
    /// The `detail:` JSON line.
    pub detail: Value,
}

impl Outcome {
    /// The result object, written by hand so every float keeps all its
    /// digits.
    pub fn result_line(&self) -> String {
        let (attempted, failed) = self.ops.totals();
        let metrics: Vec<String> = self
            .metrics
            .entries()
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_f64(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form of a finite float (`0` otherwise).
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Linear-interpolation-free percentile of an ascending slice: the
/// sample at rank `ceil(p * n)` (so p99 of 1000 samples has 10 above).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median over `windows` equal consecutive slices of `samples` (in time
/// order) of each slice's `p`-quantile: a burst of host noise moves one
/// window, not the result.
pub fn windowed_quantile(samples: &[f64], windows: usize, p: f64) -> f64 {
    let per = samples.len() / windows.max(1);
    if per == 0 {
        return percentile(&sorted(samples.to_vec()), p);
    }
    let v: Vec<f64> = (0..windows)
        .map(|w| percentile(&sorted(samples[w * per..(w + 1) * per].to_vec()), p))
        .collect();
    median(&v)
}

/// Events per second in each `window_s` window of a run of `span_s`
/// seconds, from ascending event times: `per_event × (n − 1)` over the
/// time from the window's first to its last event, so a rate is not
/// quantized by the window length. Windows with fewer than two events
/// are skipped.
pub fn window_rates(times: &[f64], span_s: f64, window_s: f64, per_event: f64) -> Vec<f64> {
    let n = (span_s / window_s).floor().max(1.0) as usize;
    let mut out = Vec::with_capacity(n);
    for w in 0..n {
        let (lo, hi) = (w as f64 * window_s, (w + 1) as f64 * window_s);
        let a = times.partition_point(|&t| t < lo);
        let b = times.partition_point(|&t| t < hi);
        if b >= a + 2 && times[b - 1] > times[a] {
            out.push(per_event * (b - a - 1) as f64 / (times[b - 1] - times[a]));
        }
    }
    out
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Number of hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How many times each workload repeats its set-up; `setup_s` is the
/// median and the last set-up is the one measured.
pub const SETUPS: usize = 3;

/// A private directory under `.bench_work/` in the working directory,
/// removed (with its parent, once empty) on drop.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let root = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create work subdirectory");
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()?.metadata().ok().map(|m| m.len())).sum())
        .unwrap_or(0)
}

/// 64-bit FNV-1a, for output digests.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one view: every subgraph's graph id, node set, C2 flags and
/// score bits; the view-level C1–C3 verdicts; each pattern's node types,
/// edges and canonical key; explainability and edge-loss bits.
pub fn view_digest(model: &GcnModel, db: &GraphDb, view: &ExplanationView, cfg: &Config) -> u64 {
    let mut h = Fnv::new();
    h.u64(view.label as u64);
    for s in &view.subgraphs {
        h.u64(s.graph_id as u64);
        h.u64(s.nodes.len() as u64);
        for &v in &s.nodes {
            h.u64(v as u64);
        }
        h.u64(s.consistent as u64);
        h.u64(s.counterfactual as u64);
        h.u64(s.score.to_bits());
    }
    let v = verify::verify_view(model, db, view, cfg);
    h.u64(v.c1_graph_view as u64);
    h.u64(v.c2_explanation as u64);
    h.u64(v.c3_coverage as u64);
    for p in &view.patterns {
        h.u64(p.canon_key());
        h.u64(p.num_nodes() as u64);
        for n in 0..p.num_nodes() as u32 {
            h.u64(p.node_type(n) as u64);
        }
        for (a, b, t) in p.edges() {
            h.u64(((a as u64) << 32) | b as u64);
            h.u64(t as u64);
        }
    }
    h.u64(view.explainability.to_bits());
    h.u64(view.edge_loss.to_bits());
    h.finish()
}

/// Byte-identity canon of a graph payload (node types, feature bits,
/// sorted edge list) folded into a digest.
pub fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    for v in 0..g.num_nodes() as u32 {
        h.u64(g.node_type(v) as u64);
    }
    for f in g.features().data() {
        h.u64(f.to_bits());
    }
    let mut edges: Vec<(u32, u32, u16)> = g.edges().collect();
    edges.sort_unstable();
    for (a, b, t) in edges {
        h.u64(((a as u64) << 32) | b as u64);
        h.u64(t as u64);
    }
    h.finish()
}

/// Seed of the classifier's training set. The classifier is part of the
/// system under test, like its configuration: it is trained from this
/// fixed set on every set-up, and `--seed` varies the database it
/// explains, not the model.
const TRAIN_SEED: u64 = 0x6d75_7461;

/// The §6.1 classifier: 3-layer GCN, hidden width 32, max pool + FC,
/// Adam, trained on a fixed Mutagenicity-style set; its predictions are
/// recorded into `db`.
pub fn train_classifier(db: &mut GraphDb) -> GcnModel {
    use gvex_gnn::{AdamTrainer, TrainConfig};
    let mut train = gvex_data::mutagenicity(gvex_data::DataConfig::new(240, TRAIN_SEED));
    let ids: Vec<_> = train.iter().map(|(id, _)| id).collect();
    let mut model = GcnModel::new(train.graph(ids[0]).feature_dim(), 32, 2, 3, TRAIN_SEED);
    let mut trainer = AdamTrainer::new(
        &model,
        TrainConfig { epochs: 30, lr: 5e-3, seed: TRAIN_SEED, ..TrainConfig::default() },
    );
    trainer.fit(&mut model, &train, &ids);
    AdamTrainer::classify_all(&model, &mut train, &[]);
    AdamTrainer::classify_all(&model, db, &[]);
    model
}

/// The host/configuration record every `detail` line carries.
#[allow(clippy::too_many_arguments)]
pub fn config_record(
    seed: u64,
    seconds: f64,
    pool_width: usize,
    shards: usize,
    fsync: &str,
    db_graphs: usize,
    stream_graphs: usize,
    payload_bytes: u64,
    memory_budget: Option<u64>,
    footprint_bytes: u64,
) -> Value {
    json!({
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc() as u64,
        "pool_width": pool_width as u64,
        "shards": shards as u64,
        "fsync": fsync,
        "fsync_note": "fsyncs land in the host filesystem (a container's page cache), so write latencies are the sandbox's, not a device's",
        "db_graphs": db_graphs as u64,
        "stream_graphs": stream_graphs as u64,
        "payload_bytes": payload_bytes,
        "memory_budget_bytes": memory_budget.map(Value::UInt).unwrap_or(Value::Null),
        "footprint_bytes": footprint_bytes,
        "budget_over_footprint": memory_budget
            .map(|b| Value::Float(b as f64 / footprint_bytes.max(1) as f64))
            .unwrap_or(Value::Null),
        "setups": SETUPS as u64,
    })
}

/// Sleeps until `due` (a schedule's send time; oversleep shows up as
/// generator lag, which every latency includes).
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
