//! `serve_mixed`: the `gvex_serve` HTTP front end on loopback, in process.
//!
//! A durable engine (`FsyncPolicy::Batch`, the default staleness bound,
//! memory budget twice the payload footprint, so the working set fits)
//! over a Mutagenicity-style db with every label's view registered by
//! `explain_all` in set-up. Reads go over at most `nproc` keep-alive
//! connections and fall in five classes: `POST /query` by pattern, by
//! label, by pattern and label, unconstrained, and a pinned session's
//! query. Each class is measured and reported on its own, so no figure
//! rests on an assumed traffic mix between them.
//!
//! Operation: one read request, in three phases, all through one reader
//! loop ([`phase`]):
//! - Closed loop (each reader sends its next read when the previous
//!   answer arrives, no writer), one class at a time in short slices,
//!   the classes interleaved so host drift falls on all of them alike.
//!   Per class: the median over `CLOSED_WINDOW_S` windows of the
//!   completion rate, and of each window's median latency. The run's
//!   `throughput_per_s` and `p50_ms` are the geometric means of the five
//!   classes' figures: every class counts once.
//! - A read-only ladder of open-loop offered rates (classes in turn)
//!   gives `max_query_rps`: the highest step with read p99 under
//!   `P99_LIMIT_MS`, nothing refused and the generator's lag not growing.
//! - The mixed phase: reads offered open-loop at `MIXED_QPS` (classes
//!   in turn) while one writer connection sends `POST /insert`
//!   of 3-graph batches at `WRITES_PER_S`, every `EXPLAIN_EVERY`-th slot
//!   an `/explain` on a small subset. Its read p50/p99 (overall and per
//!   class), insert p50/p90 and generator lag go to the `detail` line.
//!   Every latency is timed from the request's scheduled send time.
//!
//! Checks: session reads are byte-identical across interleaved inserts,
//! head query bodies equal the in-process `Engine::query` once load
//! stops, every insert lands, and no 5xx beyond admission rejections.
//!
//! This workload is not in `BENCHMARK.json`: on a 2-vCPU host whose CPU
//! steal came in bursts (up to a quarter of the CPU time for minutes),
//! its closed-loop rate fell 40–80% in 4 of 10 runs while its p50 rose
//! 30–45%. A read hands off between the client, an accept worker and an
//! executor thread, and each wakeup can wait for a stolen vCPU. It runs on
//! its own (`--workload serve_mixed`) and, traced for `PROBE_SECONDS`,
//! inside `explain_batch`'s traced run, which reports the
//! `PROBE_METRICS` layers from it.

use crate::common::{self, Metrics, OpCounts, Outcome, WorkDir, SETUPS};
use crate::heap;
use crate::layers;
use crate::trace::Tracer;
use crate::Args;
use gvex_core::{
    ApproxGvex, Config, ContextCache, Engine, ExplanationSubgraph, FsyncPolicy, GraphContext,
    StreamGvex, ViewId, ViewQuery, ViewStore,
};
use gvex_data::{mutagenicity, DataConfig, TYPE_N, TYPE_O};
use gvex_graph::{ClassLabel, Graph, GraphId};
use gvex_pattern::Pattern;
use gvex_serve::{http, live_graphs, wire, Client, ServeConfig, Server, ServerHandle};
use rayon::prelude::*;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DB_GRAPHS: usize = 150;
const BOUNDS: (usize, usize) = (0, 8);
/// The read classes, by op-class name. The first four are `POST /query`
/// bodies; the last is the pinned session's query.
const CLASSES: [&str; 5] =
    ["query_pattern", "query_label", "query_pattern_label", "query_unconstrained", "session_query"];
const SESSION: usize = 4;
/// Offered read rate of the mixed phase: about a quarter of the
/// closed-loop read rate on a 2-vCPU host (7.6k–11k reads/s). At half,
/// reads queued for seconds behind each full view recompute. Fixed, so
/// two versions of the program are offered the same load.
const MIXED_QPS: f64 = 2000.0;
/// Writer slots per second in the mixed phase (inserts, with every
/// `EXPLAIN_EVERY`-th an explain).
const WRITES_PER_S: f64 = 4.0;
/// Writer slots of the mixed phase: over 100 inserts, so insert p90 has
/// at least 10 samples beyond it.
const BASE_WRITES: usize = 110;
/// Length of the traced mixed phase.
const TRACED_SECS: f64 = 3.0;
const EXPLAIN_EVERY: usize = 25;
const EXPLAIN_SUBSET: usize = 4;
const INSERT_BATCH: usize = 3;
/// The read latency limit of the rate ladder.
const P99_LIMIT_MS: f64 = 25.0;
/// A step's generator lag "grows" when the median lag of its last
/// quarter of sends exceeds that of its first quarter by this much.
const LAG_GROWTH_MS: f64 = 2.0;
/// Ladder of offered read rates: first step, growth factor and steps.
/// Each step offers `LADDER_STEP_READS` reads, so its p99 has 10 samples
/// beyond it.
const LADDER_START: f64 = 1000.0;
const LADDER_FACTOR: f64 = 1.5;
const LADDER_STEPS: usize = 7;
const LADDER_STEP_READS: f64 = 1000.0;
/// Share of `--seconds` spent in the closed-loop phase, the length of
/// one class's slice of it, and the window its rate and p50 are taken
/// over.
const CLOSED_SHARE: f64 = 0.4;
const CLOSED_SLICE_S: f64 = 0.25;
const CLOSED_WINDOW_S: f64 = 0.05;
const TIMEOUT: Duration = Duration::from_secs(30);
/// `--seconds` of the serving probe in `explain_batch`'s traced run.
pub const PROBE_SECONDS: f64 = 5.0;
/// The per-layer metrics the serving probe contributes.
pub const PROBE_METRICS: [&str; 12] = [
    "serve.json_us",
    "serve.http_frame_us",
    "serve.unattributed_us",
    "serve.batch_occupancy",
    "serve.admission_rejections",
    "serve.resp_5xx",
    "serve.generator_lag_p99_ms",
    "core.query_p50_us",
    "core.query_p99_us",
    "core.snapshot.query_us",
    "core.insert_p50_ms",
    "core.insert_p99_ms",
];

struct Served {
    engine: Arc<Engine>,
    handle: ServerHandle,
    dir: PathBuf,
    views: Vec<ViewId>,
    /// Request bodies per read class (the session class sends `{}`).
    queries: Vec<Vec<Value>>,
    query_patterns: Vec<Pattern>,
    writes: Vec<Value>,
    insert_batches: Vec<Vec<Graph>>,
    seed_graphs: usize,
    footprint: u64,
    budget: u64,
}

impl Served {
    /// Every `POST /query` body, in class order.
    fn head_queries(&self) -> impl Iterator<Item = &Value> {
        self.queries[..SESSION].iter().flatten()
    }
}

fn pattern_to_value(p: &Pattern) -> Value {
    let types: Vec<u64> = (0..p.num_nodes() as u32).map(|v| p.node_type(v) as u64).collect();
    let edges: Vec<Value> = p
        .edges()
        .map(|(a, b, t)| {
            Value::Array(vec![Value::UInt(a as u64), Value::UInt(b as u64), Value::UInt(t as u64)])
        })
        .collect();
    json!({ "types": types, "edges": Value::Array(edges) })
}

fn setup(seed: u64, width: usize, dir: PathBuf, writes_needed: usize) -> Served {
    let mut db = mutagenicity(DataConfig::new(DB_GRAPHS, seed));
    let model = common::train_classifier(&mut db);
    let labels = db.labels();
    let seed_graphs = db.len();

    // Insert batches: fresh molecules of the same kind, with truth.
    let extra =
        mutagenicity(DataConfig::new(writes_needed * INSERT_BATCH, seed.wrapping_add(7919)));
    let pool: Vec<(Graph, ClassLabel)> =
        extra.iter().map(|(id, g)| (g.clone(), extra.truth(id))).collect();
    let footprint: u64 = db.iter().map(|(_, g)| g.approx_bytes() as u64).sum::<u64>()
        + pool.iter().map(|(g, _)| g.approx_bytes() as u64).sum::<u64>();
    let budget = footprint * 2;
    let insert_batches: Vec<Vec<Graph>> =
        pool.chunks(INSERT_BATCH).map(|c| c.iter().map(|(g, _)| g.clone()).collect()).collect();

    let engine = Arc::new(
        Engine::builder(model, db)
            .config(Config::with_bounds(BOUNDS.0, BOUNDS.1))
            .threads(width)
            .durable(&dir)
            .fsync(FsyncPolicy::Batch)
            .memory_budget(budget)
            .build(),
    );
    let views = engine.explain_all();

    // Query templates per class: patterns of the registered views plus a
    // nitro (N–O) edge, alone and with a label filter; each label alone;
    // the unconstrained query; the session's unconstrained query.
    let mut patterns: Vec<Pattern> = Vec::new();
    for &v in &views {
        if let Some(view) = engine.view(v) {
            patterns.extend(view.patterns.iter().filter(|p| p.num_edges() > 0).take(3).cloned());
        }
    }
    patterns.push(Pattern::new(&[TYPE_N, TYPE_O], &[(0, 1, 1)]));
    let mut queries: Vec<Vec<Value>> = vec![Vec::new(); CLASSES.len()];
    for (i, p) in patterns.iter().enumerate() {
        queries[0].push(json!({ "pattern": pattern_to_value(p) }));
        let l = labels[i % labels.len()];
        queries[2].push(json!({ "pattern": pattern_to_value(p), "label": l as u64 }));
    }
    for &l in &labels {
        queries[1].push(json!({ "label": l as u64 }));
    }
    queries[3].push(json!({}));
    queries[SESSION].push(json!({}));

    // Writer slots: 3-graph inserts, every EXPLAIN_EVERY-th an explain
    // of a small subset of one label group.
    let snap = engine.snapshot();
    let groups: Vec<Vec<GraphId>> = labels.iter().map(|&l| snap.db().label_group(l)).collect();
    drop(snap);
    let writes: Vec<Value> = (0..writes_needed)
        .map(|k| {
            if k % EXPLAIN_EVERY == EXPLAIN_EVERY - 1 {
                let li = (k / EXPLAIN_EVERY) % labels.len();
                let g = &groups[li];
                let start = (k * EXPLAIN_SUBSET) % g.len().max(1);
                let ids: Vec<u64> = (0..EXPLAIN_SUBSET.min(g.len()))
                    .map(|j| g[(start + j) % g.len()] as u64)
                    .collect();
                json!({ "label": labels[li] as u64, "ids": ids })
            } else {
                let b = &pool[(k * INSERT_BATCH) % pool.len()..][..INSERT_BATCH.min(pool.len())];
                let graphs: Vec<Value> = b
                    .iter()
                    .map(|(g, t)| {
                        let mut v = wire::graph_to_value(g);
                        if let Value::Object(f) = &mut v {
                            f.push(("truth".into(), Value::UInt(*t as u64)));
                        }
                        v
                    })
                    .collect();
                json!({ "graphs": Value::Array(graphs) })
            }
        })
        .collect();

    let handle = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            accept_threads: width + 2,
            exec_threads: width,
            queue_capacity: 1024,
            batch_window: Duration::from_millis(1),
            max_batch: 16,
            session_ttl: Duration::from_secs(300),
            read_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    Served {
        engine,
        handle,
        dir,
        views,
        queries,
        query_patterns: patterns,
        writes,
        insert_batches,
        seed_graphs,
        footprint,
        budget,
    }
}

/// One read request's record.
struct Read {
    class: usize,
    /// From the scheduled send time to the answer, ms.
    lat_ms: f64,
    /// From the scheduled to the actual send time, ms.
    lag_ms: f64,
    status: u16,
    /// Scheduled send and answer times, s from the phase start.
    due_s: f64,
    done_s: f64,
}

/// How a phase's readers pace their requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Each reader sends its next read when the previous answer arrives.
    Closed,
    /// Reads are scheduled at this many per second in total.
    Open(f64),
}

struct Phase {
    reads: Vec<Read>,
    /// (latency from due ms, status, is explain, graphs inserted)
    writes: Vec<(f64, u16, bool, usize)>,
    session_mismatches: u64,
    secs: f64,
    /// Median lag of the first and last quarter of reads, ms.
    lag_first: f64,
    lag_last: f64,
}

impl Phase {
    /// Ascending read latencies, of one class or of all.
    fn latencies(&self, class: Option<usize>) -> Vec<f64> {
        common::sorted(
            self.reads
                .iter()
                .filter(|r| class.is_none_or(|c| r.class == c))
                .map(|r| r.lat_ms)
                .collect(),
        )
    }

    /// Median over `windows` equal slices of the phase's reads (of one
    /// class or of all, in schedule order) of each slice's `p`-quantile
    /// latency: one stalled slice moves it less than it moves the
    /// whole-phase quantile.
    fn windowed(&self, class: Option<usize>, windows: usize, p: f64) -> f64 {
        let lat: Vec<f64> = self
            .reads
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.lat_ms)
            .collect();
        common::windowed_quantile(&lat, windows, p)
    }

    fn ok_reads(&self) -> usize {
        self.reads.iter().filter(|r| r.status == 200).count()
    }

    /// Per `CLOSED_WINDOW_S` window of a closed-loop phase: the rate of
    /// answered reads, and the median latency of the reads answered in it.
    fn closed_windows(&self) -> (Vec<f64>, Vec<f64>) {
        let mut done: Vec<(f64, f64)> =
            self.reads.iter().filter(|r| r.status == 200).map(|r| (r.done_s, r.lat_ms)).collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let times: Vec<f64> = done.iter().map(|d| d.0).collect();
        let rates = common::window_rates(&times, self.secs, CLOSED_WINDOW_S, 1.0);
        let n = (self.secs / CLOSED_WINDOW_S).floor().max(1.0) as usize;
        let p50s = (0..n)
            .filter_map(|w| {
                let (lo, hi) = (w as f64 * CLOSED_WINDOW_S, (w + 1) as f64 * CLOSED_WINDOW_S);
                let a = times.partition_point(|&t| t < lo);
                let b = times.partition_point(|&t| t < hi);
                let lat: Vec<f64> = done[a..b].iter().map(|d| d.1).collect();
                (b > a).then(|| common::median(&lat))
            })
            .collect();
        (rates, p50s)
    }

    fn step_value(&self, offered: f64, achieved: f64, pass: bool) -> Value {
        json!({
            "offered": offered,
            "achieved": achieved,
            "pass": pass,
            "p99_ms": common::percentile(&self.latencies(None), 0.99),
            "refused": (self.reads.len() - self.ok_reads()) as u64,
            "lag_first_ms": self.lag_first,
            "lag_last_ms": self.lag_last,
        })
    }

    /// Meets the ladder's limit: nothing refused, p99 under the limit,
    /// and the generator's lag not growing.
    fn passes(&self) -> bool {
        self.ok_reads() == self.reads.len()
            && common::percentile(&self.latencies(None), 0.99) <= P99_LIMIT_MS
            && self.lag_last <= self.lag_first + LAG_GROWTH_MS
    }
}

struct Load<'a> {
    /// Keep-alive connections, opened once: `readers` reader connections
    /// then the writer's.
    conns: &'a [Mutex<Client>],
    readers: usize,
    queries: &'a [Vec<Value>],
    writes: &'a [Value],
    session_path: &'a str,
    session_ref: &'a [u8],
    tracer: Option<&'a Tracer>,
}

/// Runs one phase of `secs`: the readers pace reads by `pace`, taking the
/// `classes` in turn and each class's templates in turn; when `writer`
/// is set, the writer sends writer slots from `*next_write` on at
/// `WRITES_PER_S`.
fn phase(
    load: &Load,
    pace: Pace,
    classes: &[usize],
    secs: f64,
    writer: bool,
    next_write: &mut usize,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let first_write = *next_write;
    let n_writes = if writer { (secs * WRITES_PER_S).ceil() as usize } else { 0 };
    *next_write += n_writes;
    let (reads, writes) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..load.readers)
            .map(|r| {
                scope.spawn(move || {
                    let mut c = load.conns[r].lock().expect("reader connection");
                    // Sized up front for a schedule, so the records'
                    // growth does not move the heap's high-water mark.
                    let mut out: Vec<Read> = match pace {
                        Pace::Closed => Vec::new(),
                        Pace::Open(qps) => {
                            Vec::with_capacity((secs * qps / load.readers as f64) as usize + 2)
                        }
                    };
                    let mut mismatches = 0u64;
                    common::wait_until(start);
                    for k in 0.. {
                        let i = k * load.readers + r;
                        let due = match pace {
                            Pace::Closed => Instant::now(),
                            Pace::Open(qps) => start + Duration::from_secs_f64(i as f64 / qps),
                        };
                        if due >= end {
                            break;
                        }
                        common::wait_until(due);
                        let class = classes[i % classes.len()];
                        let templates = &load.queries[class];
                        let body = &templates[(i / classes.len()) % templates.len()];
                        let path = if class == SESSION { load.session_path } else { "/query" };
                        let sent = Instant::now();
                        let resp = c.post(path, body);
                        let done = Instant::now();
                        let status = resp.as_ref().map(|r| r.status).unwrap_or(0);
                        if let (SESSION, Ok(r)) = (class, &resp) {
                            if r.status == 200 && r.raw != load.session_ref {
                                mismatches += 1;
                            }
                        }
                        if let Some(t) = load.tracer {
                            t.record("serve.request", (done - sent).as_secs_f64());
                        }
                        out.push(Read {
                            class,
                            lat_ms: (done - due).as_secs_f64() * 1e3,
                            lag_ms: (sent - due).as_secs_f64() * 1e3,
                            status,
                            due_s: (due - start).as_secs_f64(),
                            done_s: (done - start).as_secs_f64(),
                        });
                    }
                    (out, mismatches)
                })
            })
            .collect();
        let writer = scope.spawn(move || {
            let mut out = Vec::new();
            if n_writes == 0 {
                return out;
            }
            let mut c = load.conns[load.readers].lock().expect("writer connection");
            for k in 0..n_writes {
                let due = start + Duration::from_secs_f64(k as f64 / WRITES_PER_S);
                if due >= end {
                    break;
                }
                common::wait_until(due);
                let body = &load.writes[(first_write + k) % load.writes.len()];
                let is_explain = body.get_field("label").is_some();
                let graphs = match body.get_field("graphs") {
                    Some(Value::Array(g)) => g.len(),
                    _ => 0,
                };
                let path = if is_explain { "/explain" } else { "/insert" };
                let status = c.post(path, body).map(|r| r.status).unwrap_or(0);
                out.push(((Instant::now() - due).as_secs_f64() * 1e3, status, is_explain, graphs));
            }
            out
        });
        let mut reads = Vec::new();
        let mut mismatches = 0;
        for h in readers {
            let (r, m) = h.join().expect("reader thread");
            reads.extend(r);
            mismatches += m;
        }
        ((reads, mismatches), writer.join().expect("writer thread"))
    });
    let (mut reads, session_mismatches) = reads;
    reads.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let q = reads.len() / 4;
    let lags: Vec<f64> = reads.iter().map(|r| r.lag_ms).collect();
    let lag_first = if q > 0 { common::median(&lags[..q]) } else { 0.0 };
    let lag_last = if q > 0 { common::median(&lags[lags.len() - q..]) } else { 0.0 };
    Phase { reads, writes, session_mismatches, secs, lag_first, lag_last }
}

/// Totals over the phases, taken as each phase ends so its records can
/// be dropped (they would otherwise count in the heap's high-water mark).
#[derive(Default)]
struct Tally {
    inserted: usize,
    session_mismatches: u64,
    refused_reads: u64,
}

impl Tally {
    fn add(&mut self, p: &Phase, ops: &mut OpCounts) {
        self.session_mismatches += p.session_mismatches;
        self.refused_reads += (p.reads.len() - p.ok_reads()) as u64;
        for r in &p.reads {
            ops.add(CLASSES[r.class], 1, (r.status != 200) as u64);
        }
        for &(_, status, is_explain, graphs) in &p.writes {
            ops.add(if is_explain { "explain" } else { "insert" }, 1, (status != 200) as u64);
            if status == 200 && !is_explain {
                self.inserted += graphs;
            }
        }
    }
}

/// Geometric mean of positive figures.
fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp()
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let width = common::nproc();
    let readers = width.saturating_sub(1).max(1);
    let base_secs = BASE_WRITES as f64 / WRITES_PER_S;
    let writes_needed = ((base_secs + TRACED_SECS + 2.0) * WRITES_PER_S) as usize + 40;
    let mut setup_s = Vec::new();
    let mut state: Option<Served> = None;
    for k in 0..SETUPS {
        if let Some(old) = state.take() {
            old.handle.shutdown();
        }
        let t = Instant::now();
        state = Some(setup(args.seed, width, work.fresh(&format!("serve-{k}")), writes_needed));
        setup_s.push(common::secs(t));
    }
    let s = state.expect("set up");
    let addr = s.handle.addr();
    let mut ops = OpCounts::default();
    let mut problems = Vec::new();
    let stats = Arc::clone(s.handle.stats());
    let (a0, b0, f0) =
        (stats.admission_rejections(), stats.batched_requests(), stats.batches_flushed());
    let r5_0 = stats.responses().2;
    let pager0 = s.engine.pager_stats().unwrap_or_default();
    let mut disk_high = common::dir_bytes(&s.dir);

    // A pinned session: its reads must stay byte-identical.
    let mut control = Client::connect(addr, TIMEOUT).expect("control connects");
    let sid = control.post("/session", &json!({})).expect("open session").u64_field("session");
    let session_path = format!("/session/{sid}/query");
    let session_ref = control.post(&session_path, &json!({})).expect("session read").raw;
    let conns: Vec<Mutex<Client>> = (0..=readers)
        .map(|_| Mutex::new(Client::connect(addr, TIMEOUT).expect("client connects")))
        .collect();
    let load = Load {
        conns: &conns,
        readers,
        queries: &s.queries,
        writes: &s.writes,
        session_path: &session_path,
        session_ref: &session_ref,
        tracer: None,
    };
    let all_classes: Vec<usize> = (0..CLASSES.len()).collect();
    let mut next_write = 0usize;
    let mut tally = Tally::default();
    heap::reset_peak();

    // ---- closed loop, one class per slice, classes interleaved -----------
    let rounds = (args.seconds * CLOSED_SHARE / (CLOSED_SLICE_S * CLASSES.len() as f64))
        .round()
        .max(1.0) as usize;
    let mut windows: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); CLASSES.len()];
    for _ in 0..rounds {
        for (c, w) in windows.iter_mut().enumerate() {
            let p = phase(&load, Pace::Closed, &[c], CLOSED_SLICE_S, false, &mut next_write);
            let (rates, p50s) = p.closed_windows();
            w.0.extend(rates);
            w.1.extend(p50s);
            tally.add(&p, &mut ops);
        }
    }
    if tally.refused_reads > 0 {
        problems.push(format!("{} closed-loop reads refused", tally.refused_reads));
    }
    let class_rate: Vec<f64> = windows.iter().map(|w| common::median(&w.0)).collect();
    let class_p50: Vec<f64> = windows.iter().map(|w| common::median(&w.1)).collect();
    let (closed_rate, closed_p50) = (geomean(&class_rate), geomean(&class_p50));

    // ---- read-only rate ladder -------------------------------------------
    let mut steps: Vec<Value> = Vec::new();
    let mut max_query_rps = 0.0;
    for i in 0..LADDER_STEPS {
        let offered = LADDER_START * LADDER_FACTOR.powi(i as i32);
        let secs = LADDER_STEP_READS / offered;
        let p = phase(&load, Pace::Open(offered), &all_classes, secs, false, &mut next_write);
        let achieved = p.ok_reads() as f64 / p.secs;
        let pass = p.passes();
        steps.push(p.step_value(offered, achieved, pass));
        tally.add(&p, &mut ops);
        if !pass {
            break;
        }
        max_query_rps = achieved;
    }

    // ---- mixed phase: reads at a fixed rate, and the writer --------------
    let base_qps = MIXED_QPS;
    let base = phase(&load, Pace::Open(base_qps), &all_classes, base_secs, true, &mut next_write);
    tally.add(&base, &mut ops);
    let peak_heap = heap::peak();
    disk_high = disk_high.max(common::dir_bytes(&s.dir));

    let inserted = tally.inserted;
    if tally.session_mismatches > 0 {
        problems.push(format!(
            "{} pinned-session reads were not byte-identical",
            tally.session_mismatches
        ));
    }
    let base_lat = base.latencies(None);
    let windows_n = 12;
    let (read_p50, read_p99) =
        (base.windowed(None, windows_n, 0.5), base.windowed(None, windows_n, 0.99));
    let insert_lat = common::sorted(base.writes.iter().filter(|w| !w.2).map(|w| w.0).collect());
    let insert_ms: Vec<f64> = base.writes.iter().filter(|w| !w.2).map(|w| w.0).collect();
    let explain_ms: Vec<f64> = base.writes.iter().filter(|w| w.2).map(|w| w.0).collect();
    let lag_p99 =
        common::percentile(&common::sorted(base.reads.iter().map(|r| r.lag_ms).collect()), 0.99);
    let per_class = Value::Object(
        CLASSES
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let lat = base.latencies(Some(c));
                (
                    name.to_string(),
                    json!({
                        "closed_loop_reads_per_s": class_rate[c],
                        "closed_loop_p50_ms": class_p50[c],
                        "closed_loop_windows": windows[c].0.len() as u64,
                        "closed_loop_window_rate_quartiles": {
                            let r = common::sorted(windows[c].0.clone());
                            vec![common::percentile(&r, 0.25), common::percentile(&r, 0.5), common::percentile(&r, 0.75)]
                        },
                        "mixed_p50_ms": common::percentile(&lat, 0.5),
                        "mixed_p99_ms": common::percentile(&lat, 0.99),
                        "mixed_samples": lat.len() as u64,
                    }),
                )
            })
            .collect(),
    );

    // ---- output checks once load has stopped -----------------------------
    // (on a fresh connection: the server has closed the idle one)
    control = Client::connect(addr, TIMEOUT).expect("control reconnects");
    let mut head_mismatches = 0u64;
    let head: Vec<&Value> = s.head_queries().collect();
    for body in &head {
        let q = wire::query_from_value(body).expect("own query decodes");
        let want = serde_json::to_string(&wire::query_result_to_value(&s.engine.query(&q)))
            .unwrap_or_default();
        let got = control.post("/query", body).expect("head query");
        let mut got_body = got.body.clone();
        if let Value::Object(fields) = &mut got_body {
            fields.retain(|(k, _)| k != "epoch");
        }
        if got.status != 200 || serde_json::to_string(&got_body).unwrap_or_default() != want {
            head_mismatches += 1;
        }
    }
    ops.add("final_query_check", head.len() as u64, head_mismatches);
    if head_mismatches > 0 {
        problems.push(format!("{head_mismatches} head queries differ from Engine::query"));
    }
    let live = live_graphs(&s.engine);
    if live != s.seed_graphs + inserted {
        problems
            .push(format!("live graphs {live} != {} seeded + {inserted} inserted", s.seed_graphs));
    }
    let rejections = stats.admission_rejections() - a0;
    let resp_5xx = stats.responses().2 - r5_0;
    if resp_5xx > rejections {
        problems.push(format!("{} unexpected 5xx responses", resp_5xx - rejections));
    }
    let _ = control.request("DELETE", &session_path, None, None);

    let pager = s.engine.pager_stats().unwrap_or_default();
    let mut detail = json!({
        "workload": "serve_mixed",
        "config": common::config_record(
            args.seed, args.seconds, s.engine.pool_width(), s.engine.num_shards(), "batch",
            s.seed_graphs, inserted, s.footprint, Some(s.budget), s.footprint,
        ),
        "staleness_bound": "engine default",
        "connections": json!({ "readers": readers as u64, "writers": 1u64 }),
        "closed_loop_reads_per_s": closed_rate,
        "closed_loop_p50_ms": closed_p50,
        "read_classes": per_class,
        "mixed_read_qps": base_qps,
        "writes_per_s": WRITES_PER_S,
        "mixed_secs": base_secs,
        "query_p50_ms": read_p50,
        "query_p99_ms": read_p99,
        "query_p50_ms_whole_phase": common::percentile(&base_lat, 0.5),
        "query_p99_ms_whole_phase": common::percentile(&base_lat, 0.99),
        "windows": windows_n as u64,
        "query_samples": base_lat.len() as u64,
        "insert_p50_ms": common::percentile(&insert_lat, 0.5),
        "insert_p90_ms": common::percentile(&insert_lat, 0.9),
        "insert_max_ms": common::percentile(&insert_lat, 1.0),
        "insert_samples": insert_lat.len() as u64,
        "insert_samples_beyond_p90": (insert_lat.len() - (0.9 * insert_lat.len() as f64).ceil() as usize) as u64,
        "insert_ms_in_order": insert_ms,
        "explain_ms": explain_ms,
        "writer_lag_last_ms": base.writes.last().map(|w| w.0).unwrap_or(0.0),
        "max_query_rps": max_query_rps,
        "p99_limit_ms": P99_LIMIT_MS,
        "ladder": steps,
        "generator_lag_p99_ms": lag_p99,
        "peak_heap_bytes": peak_heap,
        "disk_high_water_bytes": disk_high,
        "admission_rejections": rejections,
        "resp_5xx": resp_5xx,
        "setup_s_each": setup_s.clone(),
    });

    let mut metrics;
    if args.trace {
        metrics = Metrics::per_layer();
        metrics.set("serve.batch_occupancy", {
            let (b, f) = (stats.batched_requests() - b0, stats.batches_flushed() - f0);
            if f == 0 {
                1.0
            } else {
                b as f64 / f as f64
            }
        });
        metrics.set("serve.admission_rejections", rejections as f64);
        metrics.set("serve.resp_5xx", resp_5xx as f64);
        metrics.set("serve.generator_lag_p99_ms", lag_p99);
        metrics.set("pager.faults", (pager.faults - pager0.faults) as f64);
        metrics.set("pager.evictions", (pager.evictions - pager0.evictions) as f64);
        metrics.set("pager.spilled_bytes", (pager.spilled_bytes - pager0.spilled_bytes) as f64);
        metrics.set("pager.hit_rate", {
            let (h, f) = (pager.hits - pager0.hits, pager.faults - pager0.faults);
            if h + f == 0 {
                1.0
            } else {
                h as f64 / (h + f) as f64
            }
        });
        let traced = trace_run(
            &s,
            &load,
            base_qps,
            &mut next_write,
            &base_lat,
            work,
            &mut metrics,
            &mut ops,
        );
        disk_high = disk_high.max(common::dir_bytes(&s.dir));
        metrics.set("store.disk_high_water_bytes", disk_high as f64);
        metrics.set("pager.extent_dead_share", extent_dead_share(&s.engine));
        if let Value::Object(fields) = &mut detail {
            fields.push(("trace".into(), traced));
        }
    } else {
        metrics = Metrics::end_to_end();
        metrics.set("setup_s", common::median(&setup_s));
        metrics.set("throughput_per_s", closed_rate);
        metrics.set("p50_ms", closed_p50);
        metrics.set("peak_resident_bytes", peak_heap as f64);
    }
    if let Value::Object(fields) = &mut detail {
        fields.push(("ops".into(), ops.to_value()));
    }
    eprintln!(
        "serve_mixed: closed loop {:.0} reads/s p50 {:.3} ms (class geomeans); mixed load at \
         {:.0} reads/s: read p50 {:.3} ms p99 {:.3} ms ({} reads), insert p50 {:.2} ms p90 \
         {:.2} ms ({} inserts); ladder max {:.0} reads/s; setup {:.2} s",
        closed_rate,
        closed_p50,
        base_qps,
        read_p50,
        read_p99,
        base_lat.len(),
        common::percentile(&insert_lat, 0.5),
        common::percentile(&insert_lat, 0.9),
        insert_lat.len(),
        max_query_rps,
        common::median(&setup_s)
    );
    drop(control);
    drop(conns);
    s.handle.shutdown();
    Outcome { metrics, ops, problems, detail }
}

/// Dead bytes over total bytes across the engine's extents.
pub fn extent_dead_share(engine: &Engine) -> f64 {
    let usage = engine.extent_usage().unwrap_or_default();
    let total: u64 = usage.iter().map(|u| u.len).sum();
    let dead: u64 = usage.iter().map(|u| u.dead_bytes).sum();
    if total == 0 {
        0.0
    } else {
        dead as f64 / total as f64
    }
}

/// The traced run: a traced base phase (client-side request spans) and
/// per-layer probes on the workload's own bodies, graphs and views.
#[allow(clippy::too_many_arguments)]
fn trace_run(
    s: &Served,
    load: &Load,
    qps: f64,
    next_write: &mut usize,
    timed_lat: &[f64],
    work: &WorkDir,
    m: &mut Metrics,
    ops: &mut OpCounts,
) -> Value {
    let engine = &s.engine;
    let tracer = Tracer::new();
    let traced_load = Load { tracer: Some(&tracer), ..*load };
    let all_classes: Vec<usize> = (0..CLASSES.len()).collect();
    let traced = phase(&traced_load, Pace::Open(qps), &all_classes, TRACED_SECS, true, next_write);
    ops.add(
        "traced_query",
        traced.reads.len() as u64,
        (traced.reads.len() - traced.ok_reads()) as u64,
    );
    let traced_lat = traced.latencies(None);
    let rtt_p50_us = common::percentile(&traced_lat, 0.5) * 1e3;
    let timed_p50 = common::percentile(timed_lat, 0.5);
    m.set("trace.overhead_pct", 100.0 * (common::percentile(&traced_lat, 0.5) / timed_p50 - 1.0));

    // JSON and HTTP framing on the workload's query bodies.
    let bodies: Vec<&Value> = s.head_queries().collect();
    let queries: Vec<ViewQuery> =
        bodies.iter().map(|b| wire::query_from_value(b).expect("own query decodes")).collect();
    let rounds = 200;
    let (mut json_s, mut frame_s, mut n) = (0.0, 0.0, 0usize);
    for _ in 0..rounds {
        for (body, q) in bodies.iter().zip(&queries) {
            let result = engine.query(q);
            let t = Instant::now();
            let text = serde_json::to_string(body).unwrap_or_default();
            let parsed: Value = serde_json::from_str(&text).expect("own body parses");
            let q2 = wire::query_from_value(&parsed).expect("own query decodes");
            let out = wire::query_result_to_value(&result);
            let out_text = serde_json::to_string(&out).unwrap_or_default();
            json_s += common::secs(t);
            std::hint::black_box((q2, out_text));

            let raw = format!(
                "POST /query HTTP/1.1\r\nhost: gvex\r\ncontent-length: {}\r\n\r\n{text}",
                text.len()
            );
            let t = Instant::now();
            let req = http::read_request(&mut std::io::Cursor::new(raw.as_bytes()), 1 << 20)
                .expect("frames");
            let mut sink = Vec::with_capacity(4096);
            http::Response::ok(out).write(&mut sink).expect("writes to memory");
            frame_s += common::secs(t);
            std::hint::black_box((req, sink));
            n += 1;
        }
    }
    let json_us = json_s * 1e6 / n as f64;
    let frame_us = frame_s * 1e6 / n as f64;
    m.set("serve.json_us", json_us);
    m.set("serve.http_frame_us", frame_us);
    let core = layers::engine_query_us(engine, &queries, 100);
    let core_p50 = common::percentile(&core, 0.5);
    m.set("core.query_p50_us", core_p50);
    m.set("core.query_p99_us", common::percentile(&core, 0.99));
    m.set("core.snapshot.query_us", layers::snapshot_query_us(engine, &queries, 100));
    let unattributed = (rtt_p50_us - json_us - frame_us - core_p50).max(0.0);
    m.set("serve.unattributed_us", unattributed);
    m.set("trace.unattributed_share", unattributed / rtt_p50_us.max(1e-9));

    // In-process inserts with registered views (incremental maintenance).
    let snap_before = engine.snapshot();
    let batches: Vec<&Vec<Graph>> = s.insert_batches.iter().rev().take(30).collect();
    let mut insert_ms = Vec::new();
    for b in &batches {
        let t = Instant::now();
        engine.insert_graphs(b.iter().map(|g| (g.clone(), None)).collect());
        insert_ms.push(common::ms(t));
    }
    ops.add("traced_insert", batches.len() as u64, 0);
    let insert_ms = common::sorted(insert_ms);
    m.set("core.insert_p50_ms", common::percentile(&insert_ms, 0.5));
    m.set("core.insert_p99_ms", common::percentile(&insert_ms, 0.99));
    drop(snap_before);

    // Checkpoint, explicitly.
    let mut ckpt_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        engine.checkpoint().expect("checkpoint");
        ckpt_ms.push(common::ms(t));
    }
    m.set("core.checkpoint_ms", common::median(&ckpt_ms));

    // WAL costs on the workload's own insert batches.
    let wal_batches: Vec<Vec<Graph>> = s.insert_batches.iter().take(256).cloned().collect();
    let (append_us, sync_us, bytes_per_graph) = layers::wal(&work.fresh("serve-wal"), &wal_batches);
    m.set("store.wal_append_us", append_us);
    m.set("store.wal_sync_us", sync_us);
    m.set("store.wal_bytes_per_graph", bytes_per_graph);

    // The explain and maintenance layers on the workload's inputs.
    let snap = engine.snapshot();
    let db = snap.db();
    let model = engine.model();
    let cfg = engine.config().clone();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(engine.pool_width().max(1))
        .build()
        .expect("pool");
    let arrivals: Vec<Graph> = s.insert_batches.iter().flatten().take(60).cloned().collect();
    let ctx_t = Instant::now();
    let ctxs: Vec<GraphContext> =
        arrivals.iter().map(|g| GraphContext::build(model, g, &cfg)).collect();
    m.set("core.context.build_ms", common::ms(ctx_t) / arrivals.len() as f64);
    let streamer = StreamGvex::new(cfg.clone());
    let t = Instant::now();
    for (i, (g, ctx)) in arrivals.iter().zip(&ctxs).enumerate() {
        std::hint::black_box(streamer.stream_with_context(
            model,
            g,
            i as GraphId,
            ctx.orig_label,
            None,
            1.0,
            ctx,
        ));
    }
    m.set("core.stream.graph_ms", common::ms(t) / arrivals.len() as f64);

    let approx = ApproxGvex::new(cfg.clone());
    let cache = ContextCache::new(cfg.clone());
    let mut approx_ms = Vec::new();
    let mut psum_ms = Vec::new();
    let mut insert_view_ms = Vec::new();
    let store = ViewStore::new(db);
    for body in s.writes.iter().filter(|w| w.get_field("label").is_some()).take(4) {
        let label = wire::u64_field(body, "label").expect("label") as ClassLabel;
        let ids = wire::ids_field(body, "ids").expect("ids").unwrap_or_default();
        let graphs = db.try_graphs(&ids);
        let timed: Vec<(f64, Option<ExplanationSubgraph>)> = pool.install(|| {
            graphs
                .par_iter()
                .map(|&(id, g)| {
                    let ctx = cache.get(model, g, id);
                    let t = Instant::now();
                    let sub = approx.explain_with_context(model, g, id, label, &ctx);
                    (common::ms(t), sub)
                })
                .collect()
        });
        approx_ms.extend(timed.iter().map(|x| x.0));
        let subs: Vec<ExplanationSubgraph> = timed.into_iter().filter_map(|x| x.1).collect();
        let induced: Vec<Graph> = subs.iter().map(|x| x.induced(db).0).collect();
        let t = Instant::now();
        let ps = pool.install(|| gvex_core::psum::psum(&induced, &cfg.miner));
        psum_ms.push(common::ms(t));
        let view = gvex_core::ExplanationView {
            label,
            explainability: subs.iter().map(|x| x.score).sum(),
            subgraphs: subs,
            patterns: ps.patterns,
            edge_loss: ps.edge_loss,
        };
        let t = Instant::now();
        store.insert(view, db);
        insert_view_ms.push(common::ms(t));
    }
    m.set("core.approx.graph_ms", common::mean(&approx_ms));
    m.set("core.psum_ms", common::mean(&psum_ms));
    m.set("core.store.insert_ms", common::mean(&insert_view_ms));

    let mut forward_inputs: Vec<Graph> = arrivals.clone();
    let mut view_patterns: Vec<Pattern> = Vec::new();
    for &v in &s.views {
        if let Some(view) = engine.view(v) {
            for x in &view.subgraphs {
                if let Some(g) = db.get_graph(x.graph_id) {
                    forward_inputs.push(g.clone());
                    forward_inputs.push(g.induced_subgraph(&x.nodes).0);
                    forward_inputs.push(g.remove_nodes(&x.nodes).0);
                }
            }
            view_patterns.extend(view.patterns.iter().cloned());
        }
    }
    m.set("gnn.forward_us", layers::forward_us(&pool, model, &forward_inputs));
    let mut vf2_targets: Vec<&Graph> = db.iter().map(|(_, g)| g).collect();
    vf2_targets.extend(arrivals.iter());
    view_patterns.extend(s.query_patterns.iter().cloned());
    m.set("pattern.vf2_us", layers::vf2_us(&view_patterns, &vf2_targets));

    let (spans, _) = tracer.summary(traced.secs * load.readers as f64);
    json!({
        "spans": spans,
        "traced_query_p50_ms": common::percentile(&traced_lat, 0.5),
        "timed_query_p50_ms": timed_p50,
        "insert_ms": insert_ms,
        "checkpoint_ms": ckpt_ms,
    })
}
