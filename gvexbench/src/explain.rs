//! `explain_batch`: view generation on an in-process engine.
//!
//! A Mutagenicity-style db (~300 molecules, mean ~30 nodes) with the
//! §6.1 classifier behind a non-durable, unbudgeted engine with bounds
//! `[0, 8]` and a pool of `nproc` threads. One closed-loop client cycles
//! `explain_label(l)` then `stream(l, 1.0)` over every label; the first
//! cycle is part of set-up, so contexts are warm. No HTTP, WAL or pager
//! runs here: the time is GNN inference in the greedy verification loop,
//! context build, `Psum` and view indexing.
//!
//! Operation: one cycle (every label's views regenerated). A run makes a
//! fixed number of cycles, one per `CYCLE_S` seconds of `--seconds`, so
//! every run does the same work. Throughput is the median over cycles of
//! graphs explained or streamed per second; `p50_ms` is the median cycle
//! time; `peak_resident_bytes` is the live heap's high-water mark over
//! the cycles (each cycle registers new views). Every cycle's per-label
//! view digest must equal the set-up cycle's, and the traced replay's
//! digests must equal the engine's.
//!
//! The traced run also runs `serve_mixed` traced for
//! `serve::PROBE_SECONDS` (a db of the same kind behind the HTTP server)
//! and reports its serving and query layers.

use crate::common::{self, Metrics, OpCounts, Outcome, SETUPS};
use crate::heap;
use crate::layers;
use crate::serve;
use crate::trace::Tracer;
use crate::Args;
use gvex_core::{
    ApproxGvex, Config, ContextCache, Engine, ExplanationSubgraph, ExplanationView, StreamGvex,
    ViewId, ViewStore,
};
use gvex_data::{mutagenicity, DataConfig};
use gvex_graph::{ClassLabel, Graph};
use rayon::prelude::*;
use serde_json::{json, Value};
use std::time::Instant;

const DB_GRAPHS: usize = 300;
const BOUNDS: (usize, usize) = (0, 8);
/// Seconds of `--seconds` per measured cycle (a cycle took 3.1–3.5 s on
/// a 2-vCPU host).
const CYCLE_S: f64 = 3.0;

struct Setup {
    engine: Engine,
    labels: Vec<ClassLabel>,
    group_sizes: Vec<usize>,
    /// Per label: (approx view digest, stream view digest).
    baseline: Vec<(u64, u64)>,
}

/// One cycle's calls: per label, (explain ms, stream ms, explain view,
/// stream view).
struct Cycle {
    calls: Vec<(f64, f64, ViewId, ViewId)>,
}

fn run_cycle(engine: &Engine, labels: &[ClassLabel]) -> Cycle {
    let calls = labels
        .iter()
        .map(|&l| {
            let t = Instant::now();
            let ev = engine.explain_label(l);
            let e_ms = common::ms(t);
            let t = Instant::now();
            let sv = engine.stream(l, 1.0);
            (e_ms, common::ms(t), ev, sv)
        })
        .collect();
    Cycle { calls }
}

fn digest_of(engine: &Engine, id: ViewId) -> u64 {
    let snap = engine.snapshot();
    match engine.view(id) {
        Some(v) => common::view_digest(engine.model(), snap.db(), &v, engine.config()),
        None => 0,
    }
}

fn cycle_digests(engine: &Engine, c: &Cycle) -> Vec<(u64, u64)> {
    c.calls.iter().map(|&(_, _, ev, sv)| (digest_of(engine, ev), digest_of(engine, sv))).collect()
}

fn setup(seed: u64, width: usize) -> Setup {
    let mut db = mutagenicity(DataConfig::new(DB_GRAPHS, seed));
    let model = common::train_classifier(&mut db);
    let labels = db.labels();
    let group_sizes = labels.iter().map(|&l| db.label_group(l).len()).collect();
    let engine = Engine::builder(model, db)
        .config(Config::with_bounds(BOUNDS.0, BOUNDS.1))
        .threads(width)
        .build();
    let first = run_cycle(&engine, &labels);
    let baseline = cycle_digests(&engine, &first);
    Setup { engine, labels, group_sizes, baseline }
}

pub fn run(args: &Args, work: &common::WorkDir) -> Outcome {
    let width = common::nproc();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(args.seed, width));
        setup_s.push(common::secs(t));
    }
    let Setup { engine, labels, group_sizes, baseline } = state.expect("set up");
    let mut ops = OpCounts::default();
    let mut problems = Vec::new();

    // ---- timed closed loop -------------------------------------------
    let mut cycle_ms = Vec::new();
    let mut cycle_rates = Vec::new();
    let cycle_graphs = 2 * group_sizes.iter().sum::<usize>();
    let (mut explain_s, mut stream_s) = (0.0f64, 0.0f64);
    let mut group_graphs = 0usize;
    let mut per_label_explain_ms: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut per_label_stream_ms: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut mismatched_cycles = 0u64;
    let cycles = ((args.seconds / CYCLE_S).round() as usize).max(2);
    heap::reset_peak();
    for _ in 0..cycles {
        let c = run_cycle(&engine, &labels);
        let total: f64 = c.calls.iter().map(|&(e, s, _, _)| e + s).sum();
        cycle_ms.push(total);
        cycle_rates.push(cycle_graphs as f64 * 1e3 / total);
        for (i, &(e, s, _, _)) in c.calls.iter().enumerate() {
            explain_s += e / 1e3;
            stream_s += s / 1e3;
            group_graphs += group_sizes[i];
            per_label_explain_ms[i].push(e);
            per_label_stream_ms[i].push(s);
        }
        let digests = cycle_digests(&engine, &c);
        let bad = digests != baseline;
        if bad {
            mismatched_cycles += 1;
        }
        ops.add("explain_label", labels.len() as u64, if bad { labels.len() as u64 } else { 0 });
        ops.add("stream", labels.len() as u64, if bad { labels.len() as u64 } else { 0 });
    }
    if mismatched_cycles > 0 {
        problems
            .push(format!("{mismatched_cycles} cycles produced views unlike the set-up cycle's"));
    }
    let peak_heap = heap::peak();
    let snap = engine.snapshot();
    let payload: u64 = snap.db().iter().map(|(_, g)| g.approx_bytes() as u64).sum();
    let sorted_cycles = common::sorted(cycle_ms.clone());
    let explain_gps = group_graphs as f64 / explain_s;
    let stream_gps = group_graphs as f64 / stream_s;

    let mut detail = json!({
        "workload": "explain_batch",
        "config": common::config_record(
            args.seed, args.seconds, engine.pool_width(), engine.num_shards(), "none (in-memory)",
            snap.len(), 0, payload, None, payload,
        ),
        "bounds": json!([BOUNDS.0 as u64, BOUNDS.1 as u64]),
        "labels": labels.iter().map(|&l| Value::UInt(l as u64)).collect::<Vec<_>>(),
        "label_group_sizes": group_sizes.iter().map(|&n| Value::UInt(n as u64)).collect::<Vec<_>>(),
        "cycles": cycle_ms.len() as u64,
        "cycle_ms": cycle_ms.clone(),
        "cycle_p50_ms": common::median(&cycle_ms),
        "cycle_max_ms": common::percentile(&sorted_cycles, 1.0),
        "peak_heap_bytes": peak_heap,
        "explain_graphs_per_s": explain_gps,
        "stream_graphs_per_s": stream_gps,
        "setup_s_each": setup_s.clone(),
        "view_digests": digests_value(&labels, &baseline),
    });

    let mut metrics;
    if args.trace {
        metrics = Metrics::per_layer();
        let timed: Vec<(f64, f64)> = (0..labels.len())
            .map(|i| {
                (common::median(&per_label_explain_ms[i]), common::median(&per_label_stream_ms[i]))
            })
            .collect();
        let traced = replay(&engine, &labels, &timed, width, &mut metrics);
        if traced.digests != baseline {
            problems.push("the traced replay's views differ from the engine's".into());
        }
        ops.add("replay", labels.len() as u64 * 2, 0);
        let probe = serve::run(
            &Args {
                workload: "serve_mixed".into(),
                seed: args.seed,
                seconds: serve::PROBE_SECONDS,
                trace: true,
            },
            work,
        );
        for name in serve::PROBE_METRICS {
            metrics.set(name, probe.metrics.get(name).unwrap_or(0.0));
        }
        ops.merge(&probe.ops);
        problems.extend(probe.problems.iter().map(|p| format!("serving probe: {p}")));
        if let Value::Object(fields) = &mut detail {
            fields.push(("trace".into(), traced.summary));
            fields.push(("replay_view_digests".into(), digests_value(&labels, &traced.digests)));
            fields.push(("serve_probe".into(), probe.detail));
        }
    } else {
        metrics = Metrics::end_to_end();
        metrics.set("setup_s", common::median(&setup_s));
        metrics.set("throughput_per_s", common::median(&cycle_rates));
        metrics.set("p50_ms", common::median(&cycle_ms));
        metrics.set("peak_resident_bytes", peak_heap as f64);
    }
    if let Value::Object(fields) = &mut detail {
        fields.push(("ops".into(), ops.to_value()));
    }
    eprintln!(
        "explain_batch: {} cycles, explain {explain_gps:.1} graphs/s, stream {stream_gps:.1} \
         graphs/s, cycle p50 {:.0} ms, setup {:.2} s",
        cycle_ms.len(),
        common::percentile(&sorted_cycles, 0.5),
        common::median(&setup_s)
    );
    Outcome { metrics, ops, problems, detail }
}

fn digests_value(labels: &[ClassLabel], d: &[(u64, u64)]) -> Value {
    Value::Object(
        labels
            .iter()
            .zip(d)
            .map(|(l, &(a, s))| {
                (
                    format!("label_{l}"),
                    json!({ "approx": format!("{a:016x}"), "stream": format!("{s:016x}") }),
                )
            })
            .collect(),
    )
}

struct Replay {
    digests: Vec<(u64, u64)>,
    summary: Value,
}

/// Replays the engine's explain path through the layers' public entry
/// points on a snapshot's db, under spans. `timed` holds the timed run's
/// median (explain, stream) call ms per label, for the overhead figure.
fn replay(
    engine: &Engine,
    labels: &[ClassLabel],
    timed: &[(f64, f64)],
    width: usize,
    m: &mut Metrics,
) -> Replay {
    let tracer = Tracer::new();
    let snap = engine.snapshot();
    let db = snap.db();
    let model = engine.model();
    let cfg = engine.config().clone();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
    let approx = ApproxGvex::new(cfg.clone());
    let streamer = StreamGvex::new(cfg.clone());
    let ctxs = ContextCache::new(cfg.clone());
    let store = ViewStore::new(db);
    let mut digests = Vec::new();
    let mut capacity_s = 0.0;
    let mut replay_ms = 0.0;
    let mut forward_inputs: Vec<Graph> = Vec::new();
    let mut view_patterns = Vec::new();

    for &l in labels {
        let ids = db.label_group(l);
        let graphs = db.try_graphs(&ids);

        // Context build, cold (the engine's contexts were built in set-up).
        let t = Instant::now();
        pool.install(|| {
            let _: Vec<()> = graphs
                .par_iter()
                .map(|&(id, g)| {
                    tracer.span("core.context.build", || {
                        ctxs.get(model, g, id);
                    })
                })
                .collect();
        });
        capacity_s += common::secs(t) * width as f64;

        // The explain path as `Engine::explain_label` runs it: per-graph
        // ApproxGVEX on warm contexts in the pool, then Psum, then the
        // store insert that builds pattern postings.
        let t = Instant::now();
        let mut subgraphs: Vec<ExplanationSubgraph> = pool.install(|| {
            graphs
                .par_iter()
                .filter_map(|&(id, g)| {
                    let ctx = ctxs.get(model, g, id);
                    tracer.span("core.approx.graph", || {
                        approx.explain_with_context(model, g, id, l, &ctx)
                    })
                })
                .collect()
        });
        subgraphs.sort_by_key(|s| s.graph_id);
        let induced: Vec<Graph> = subgraphs.iter().map(|s| s.induced(db).0).collect();
        let ps = pool
            .install(|| tracer.span("core.psum", || gvex_core::psum::psum(&induced, &cfg.miner)));
        let explainability = subgraphs.iter().map(|s| s.score).sum();
        let view = ExplanationView {
            label: l,
            subgraphs,
            patterns: ps.patterns,
            explainability,
            edge_loss: ps.edge_loss,
        };
        let explain_wall = common::secs(t);
        capacity_s += explain_wall * width as f64;
        let t = Instant::now();
        tracer.span("core.store.insert", || store.insert(view.clone(), db));
        let insert_wall = common::secs(t);
        capacity_s += insert_wall;

        // The stream path as `Engine::stream` runs it: sequential
        // StreamGVEX over the group on warm contexts.
        let t = Instant::now();
        for &(id, g) in &graphs {
            let ctx = ctxs.get(model, g, id);
            tracer.span("core.stream.graph", || {
                streamer.stream_with_context(model, g, id, l, None, 1.0, &ctx)
            });
        }
        let stream_wall = common::secs(t);
        capacity_s += stream_wall;
        replay_ms += (explain_wall + insert_wall + stream_wall) * 1e3;

        // Digests (untimed): the replayed approx view, and the stream
        // view assembled by the public group-level entry point.
        let stream_view = streamer.explain_label_cached(model, db, l, &ids, 1.0, &ctxs);
        digests.push((
            common::view_digest(model, db, &view, &cfg),
            common::view_digest(model, db, &stream_view, &cfg),
        ));

        for s in &view.subgraphs {
            let g = db.graph(s.graph_id);
            forward_inputs.push(g.clone());
            forward_inputs.push(g.induced_subgraph(&s.nodes).0);
            forward_inputs.push(g.remove_nodes(&s.nodes).0);
        }
        view_patterns.extend(view.patterns.iter().cloned());
    }

    let (summary, unattributed) = tracer.summary(capacity_s);
    let layer_ms = |name: &str| tracer.layer(name).map(|l| l.mean(1e3)).unwrap_or(0.0);
    m.set("core.context.build_ms", layer_ms("core.context.build"));
    m.set("core.approx.graph_ms", layer_ms("core.approx.graph"));
    m.set("core.psum_ms", layer_ms("core.psum"));
    m.set("core.store.insert_ms", layer_ms("core.store.insert"));
    m.set("core.stream.graph_ms", layer_ms("core.stream.graph"));
    m.set("trace.unattributed_share", unattributed);
    let timed_ms: f64 = timed.iter().map(|&(e, s)| e + s).sum();
    m.set("trace.overhead_pct", 100.0 * (replay_ms / timed_ms - 1.0));

    m.set("gnn.forward_us", layers::forward_us(&pool, model, &forward_inputs));
    let db_graphs: Vec<&Graph> = db.iter().map(|(_, g)| g).collect();
    m.set("pattern.vf2_us", layers::vf2_us(&view_patterns, &db_graphs));

    let summary = json!({
        "spans": summary,
        "replay_ms": replay_ms,
        "timed_ms": timed_ms,
        "forward_inputs": forward_inputs.len() as u64,
        "vf2_pairs": (view_patterns.len() * db_graphs.len()) as u64,
    });
    Replay { digests, summary }
}
