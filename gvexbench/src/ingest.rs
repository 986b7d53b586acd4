//! `ingest_window`: bounded streaming ingest on an in-process engine.
//!
//! A windowed (`Window::last_graphs(WINDOW)`), durable (`FsyncPolicy::
//! Batch`) engine that checkpoints every `CHECKPOINT_EVERY` logged ops,
//! with a memory budget of 3/4 of the window footprint, so the working
//! set is larger than the page cache. Input is a MalNet-scale stream of
//! small call graphs; no view is registered. One writer inserts
//! `BATCH`-graph batches while one analyst thread re-reads the frontier
//! of a snapshot pinned at the start of the run. The write path runs
//! commit, WAL, window sweep, pin-aware compaction, pager evict/fault,
//! checkpoint and extent GC; the GNN runs one `predict` per arrival.
//!
//! Operation: one batch insert. Each of the `SETUPS` set-ups builds an
//! engine and fills its window, and then one long stream goes into it:
//! `STREAM_PER_S` graphs per second of `--seconds` (20 windows at 20 s), a
//! fixed count, so every run does the same work and any growth of
//! per-batch cost with the graphs an engine has taken in stays inside the
//! figures. Per stream, throughput is graphs streamed over its wall time,
//! `p50_ms` its batch p50 and `peak_resident_bytes` the live heap's
//! high-water mark during it; the run reports the medians over the
//! streams, so a burst of host noise that slows one stream does not move
//! them. Checks: every pinned re-read is byte-identical to the pinned
//! canon, the window holds exactly `WINDOW` graphs at the end of each
//! stream, and every other graph expired.

use crate::common::{self, Metrics, OpCounts, Outcome, WorkDir, SETUPS};
use crate::heap;
use crate::layers;
use crate::trace::Tracer;
use crate::Args;
use gvex_core::{Config, Engine, FsyncPolicy, RetentionPolicy, ViewQuery, Window};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDb, GraphId};
use gvex_pattern::Pattern;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const WINDOW: usize = 4096;
const BATCH: usize = 32;
/// Graphs streamed after the window is filled, per second of `--seconds`.
const STREAM_PER_S: f64 = 4096.0;
/// Distinct arrivals generated from the seed; the stream cycles through
/// them.
const POOL: usize = 4 * WINDOW;
const CHECKPOINT_EVERY: u64 = 64;
/// The analyst's pause between passes over its frontier. An analyst that
/// never paused kept a third thread runnable on a 2-vCPU host, and the
/// writer's figures then followed the scheduler more than the program.
const ANALYST_PAUSE: Duration = Duration::from_millis(25);

struct Setup {
    engine: Engine,
    dir: PathBuf,
    pool: Vec<Graph>,
    next: usize,
    window_bytes: u64,
    budget: u64,
}

/// The seeded arrival stream.
fn make_pool(seed: u64) -> Vec<Graph> {
    let db = gvex_data::malnet_scale(POOL, seed);
    db.iter().map(|(_, g)| g.clone()).collect()
}

/// A fresh engine in `dir` with its window filled from the pool.
fn build(pool: Vec<Graph>, dir: PathBuf, auto_checkpoint: bool) -> Setup {
    let mean_bytes = pool.iter().map(|g| g.approx_bytes() as u64).sum::<u64>() / POOL as u64;
    let window_bytes = mean_bytes * WINDOW as u64;
    let budget = window_bytes * 3 / 4;
    let model = GcnModel::new(pool[0].feature_dim(), 8, 5, 2, 7);
    let engine = Engine::builder(model, GraphDb::new())
        .config(Config::with_bounds(0, 4))
        .threads(common::nproc())
        .retention(RetentionPolicy::Window(Window::last_graphs(WINDOW)))
        .durable(&dir)
        .fsync(FsyncPolicy::Batch)
        .checkpoint_every(if auto_checkpoint { CHECKPOINT_EVERY } else { 0 })
        .memory_budget(budget)
        .build();
    let mut s = Setup { engine, dir, pool, next: 0, window_bytes, budget };
    // Fill the window once, so the run starts in steady state.
    for _ in 0..WINDOW / BATCH {
        let batch = s.next_batch();
        s.engine.insert_graphs(batch);
    }
    s
}

impl Setup {
    fn next_batch(&mut self) -> Vec<(Graph, Option<u16>)> {
        let b = (0..BATCH).map(|i| (self.pool[(self.next + i) % POOL].clone(), None)).collect();
        self.next += BATCH;
        b
    }
}

/// The writer loop's record.
struct Ingest {
    batch_ms: Vec<f64>,
    graphs: usize,
    wall_s: f64,
    disk_high: u64,
    reads: u64,
    mismatches: u64,
}

/// Ingests `graphs` graphs while an analyst re-reads a snapshot pinned
/// at the start, pausing `ANALYST_PAUSE` after each pass. With
/// `explicit_checkpoints` the engine is checkpointed every
/// `CHECKPOINT_EVERY` batches by this loop; with a tracer, each batch and
/// checkpoint is a span.
fn ingest(
    s: &mut Setup,
    graphs: usize,
    tracer: Option<&Tracer>,
    explicit_checkpoints: bool,
) -> Ingest {
    let snap = s.engine.snapshot();
    let frontier: Vec<GraphId> = snap.query(&ViewQuery::new()).graphs;
    let canon: Vec<u64> = frontier
        .iter()
        .map(|&id| snap.db().get_graph(id).map(common::graph_digest).unwrap_or(0))
        .collect();
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let mut out = Ingest {
        batch_ms: Vec::new(),
        graphs: 0,
        wall_s: 0.0,
        disk_high: 0,
        reads: 0,
        mismatches: 0,
    };
    std::thread::scope(|scope| {
        let (snap, frontier, canon) = (&snap, &frontier, &canon);
        let (done, reads, mismatches) = (&done, &reads, &mismatches);
        scope.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                for (i, &id) in frontier.iter().enumerate() {
                    let same = snap.db().get_graph(id).map(common::graph_digest) == Some(canon[i]);
                    if !same {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(ANALYST_PAUSE);
            }
        });
        let t0 = Instant::now();
        let mut k = 0u64;
        while out.graphs < graphs {
            let batch = s.next_batch();
            let t = Instant::now();
            s.engine.insert_graphs(batch);
            let d = common::secs(t);
            if let Some(tr) = tracer {
                tr.record("core.insert", d);
            }
            out.batch_ms.push(d * 1e3);
            out.graphs += BATCH;
            k += 1;
            if explicit_checkpoints && k.is_multiple_of(CHECKPOINT_EVERY) {
                let t = Instant::now();
                s.engine.checkpoint().expect("checkpoint");
                if let Some(tr) = tracer {
                    tr.record("core.checkpoint", common::secs(t));
                }
            }
            if k.is_multiple_of(8) {
                out.disk_high = out.disk_high.max(common::dir_bytes(&s.dir));
            }
        }
        out.wall_s = common::secs(t0);
        done.store(true, Ordering::Relaxed);
    });
    out.disk_high = out.disk_high.max(common::dir_bytes(&s.dir));
    out.reads = reads.load(Ordering::Relaxed);
    out.mismatches = mismatches.load(Ordering::Relaxed);
    out
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let graphs = (args.seconds * STREAM_PER_S / BATCH as f64).ceil() as usize * BATCH;
    let mut ops = OpCounts::default();
    let mut problems = Vec::new();

    // ---- one long stream into each set-up engine -------------------------
    let mut setup_s = Vec::new();
    let mut streams: Vec<Ingest> = Vec::new();
    let mut peaks = Vec::new();
    let mut pager_peak = 0;
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let mut s = build(make_pool(args.seed), work.fresh(&format!("stream-{k}")), true);
        setup_s.push(common::secs(t));
        let expired0 = s.engine.window_stats().expired_total;
        heap::reset_peak();
        let run = ingest(&mut s, graphs, None, false);
        peaks.push(heap::peak() as f64);
        check(&s, &run, expired0, &mut problems);
        ops.add("insert_batch", run.batch_ms.len() as u64, 0);
        ops.add("pinned_read", run.reads, run.mismatches);
        pager_peak = pager_peak.max(s.engine.pager_stats().unwrap_or_default().peak_resident_bytes);
        streams.push(run);
        last = Some(s);
    }
    let s = last.expect("set up");
    let rates: Vec<f64> = streams.iter().map(|r| r.graphs as f64 / r.wall_s).collect();
    let quantile = |p: f64| -> Vec<f64> {
        streams.iter().map(|r| common::percentile(&common::sorted(r.batch_ms.clone()), p)).collect()
    };
    let (p50s, p99s) = (quantile(0.5), quantile(0.99));
    let tenths = |last: bool| -> Vec<f64> {
        streams
            .iter()
            .map(|r| {
                let (n, t) = (r.batch_ms.len(), r.batch_ms.len() / 10);
                common::median(if last { &r.batch_ms[n - t..] } else { &r.batch_ms[..t] })
            })
            .collect()
    };
    let gps = common::median(&rates);
    let (batch_p50, batch_p99) = (common::median(&p50s), common::median(&p99s));
    let peak_heap = common::median(&peaks);
    let disk_high = streams.iter().map(|r| r.disk_high).max().unwrap_or(0);
    let (reads, mismatches) =
        streams.iter().fold((0, 0), |(a, b), r| (a + r.reads, b + r.mismatches));
    let (window_bytes, budget) = (s.window_bytes, s.budget);

    let mut detail = json!({
        "workload": "ingest_window",
        "config": common::config_record(
            args.seed, args.seconds, common::nproc(), 1, "batch",
            WINDOW, graphs, window_bytes, Some(budget), window_bytes,
        ),
        "window_graphs": WINDOW as u64,
        "batch_graphs": BATCH as u64,
        "streams": streams.len() as u64,
        "stream_over_window": graphs as f64 / WINDOW as f64,
        "checkpoint_every_ops": CHECKPOINT_EVERY,
        "ingest_graphs_per_s": gps,
        "ingest_batch_p50_ms": batch_p50,
        "ingest_batch_p99_ms": batch_p99,
        "stream_graphs_per_s": rates.clone(),
        "stream_batch_p50_ms": p50s,
        "stream_batch_p99_ms": p99s,
        "batch_p50_first_tenth_ms": tenths(false),
        "batch_p50_last_tenth_ms": tenths(true),
        "peak_heap_bytes": peaks,
        "pager_peak_resident_bytes": pager_peak,
        "disk_high_water_bytes": disk_high,
        "pinned_reads": reads,
        "pinned_mismatches": mismatches,
        "setup_s_each": setup_s.clone(),
    });

    let mut metrics;
    if args.trace {
        metrics = Metrics::per_layer();
        // Tracing overhead: the same stream into a fresh engine, with
        // spans and explicit checkpoints at the same cadence, against the
        // timed streams' median rate.
        let pool = s.pool.clone();
        drop(s);
        let mut t = build(pool, work.fresh("ingest-traced"), false);
        let traced = trace_run(&mut t, graphs, gps, work, &mut metrics, &mut ops, &mut problems);
        if let Value::Object(fields) = &mut detail {
            fields.push(("trace".into(), traced));
        }
    } else {
        metrics = Metrics::end_to_end();
        metrics.set("setup_s", common::median(&setup_s));
        metrics.set("throughput_per_s", gps);
        metrics.set("p50_ms", batch_p50);
        metrics.set("peak_resident_bytes", peak_heap);
    }
    if let Value::Object(fields) = &mut detail {
        fields.push(("ops".into(), ops.to_value()));
    }
    eprintln!(
        "ingest_window: {gps:.0} graphs/s, batch p50 {batch_p50:.3} ms p99 {batch_p99:.3} ms \
         (medians of {} streams of {graphs} graphs), peak heap {peak_heap} B, disk high-water \
         {disk_high} B, {reads} pinned re-reads, setup {:.2} s",
        streams.len(),
        common::median(&setup_s)
    );
    Outcome { metrics, ops, problems, detail }
}

/// Pinned reads identical, the window exactly full, the rest expired.
fn check(s: &Setup, run: &Ingest, expired0: u64, problems: &mut Vec<String>) {
    if run.mismatches > 0 || run.reads == 0 {
        problems.push(format!(
            "pinned re-reads: {} of {} differ from the pinned canon",
            run.mismatches, run.reads
        ));
    }
    let w = s.engine.window_stats();
    if w.live_graphs != WINDOW as u64 {
        problems.push(format!("window holds {} graphs, not {WINDOW}", w.live_graphs));
    }
    if w.expired_total - expired0 != run.graphs as u64 {
        problems.push(format!(
            "{} graphs expired during a {}-graph run",
            w.expired_total - expired0,
            run.graphs
        ));
    }
}

/// Call-graph query patterns: an edge, a 2-path, a 3-star and a
/// triangle over function nodes.
fn query_patterns() -> Vec<Pattern> {
    vec![
        Pattern::new(&[0, 0], &[(0, 1, 0)]),
        Pattern::new(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]),
        Pattern::new(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]),
        Pattern::new(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (0, 2, 0)]),
    ]
}

fn trace_run(
    s: &mut Setup,
    graphs: usize,
    untraced_gps: f64,
    work: &WorkDir,
    m: &mut Metrics,
    ops: &mut OpCounts,
    problems: &mut Vec<String>,
) -> Value {
    let tracer = Tracer::new();
    let pager0 = s.engine.pager_stats().unwrap_or_default();
    let expired0 = s.engine.window_stats().expired_total;
    let run = ingest(s, graphs, Some(&tracer), true);
    ops.add("traced_insert_batch", run.batch_ms.len() as u64, 0);
    ops.add("traced_pinned_read", run.reads, run.mismatches);
    check(s, &run, expired0, problems);
    let traced_gps = run.graphs as f64 / run.wall_s;
    let lat = common::sorted(run.batch_ms.clone());
    m.set("core.insert_p50_ms", common::percentile(&lat, 0.5));
    m.set("core.insert_p99_ms", common::percentile(&lat, 0.99));
    m.set(
        "core.checkpoint_ms",
        tracer.layer("core.checkpoint").map(|l| l.mean(1e3)).unwrap_or(0.0),
    );
    m.set("store.disk_high_water_bytes", run.disk_high as f64);
    m.set("trace.overhead_pct", 100.0 * (untraced_gps / traced_gps - 1.0));
    let (spans, unattributed) = tracer.summary(run.wall_s);
    m.set("trace.unattributed_share", unattributed);

    let pager = s.engine.pager_stats().unwrap_or_default();
    m.set("pager.faults", (pager.faults - pager0.faults) as f64);
    m.set("pager.evictions", (pager.evictions - pager0.evictions) as f64);
    m.set("pager.spilled_bytes", (pager.spilled_bytes - pager0.spilled_bytes) as f64);
    m.set("pager.hit_rate", {
        let (h, f) = (pager.hits - pager0.hits, pager.faults - pager0.faults);
        if h + f == 0 {
            1.0
        } else {
            h as f64 / (h + f) as f64
        }
    });
    m.set("pager.extent_dead_share", crate::serve::extent_dead_share(&s.engine));
    m.set("graph.window_expired", (s.engine.window_stats().expired_total - expired0) as f64);

    // Read layers over the window.
    let frontier = [ViewQuery::new()];
    let core = layers::engine_query_us(&s.engine, &frontier, 50);
    m.set("core.query_p50_us", common::percentile(&core, 0.5));
    m.set("core.query_p99_us", common::percentile(&core, 0.99));
    m.set("core.snapshot.query_us", layers::snapshot_query_us(&s.engine, &frontier, 50));

    // The GNN, pattern and WAL layers on the stream's own arrivals.
    let arrivals: Vec<Graph> = s.pool.iter().take(WINDOW).cloned().collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(s.engine.pool_width().max(1))
        .build()
        .expect("pool");
    m.set("gnn.forward_us", layers::forward_us(&pool, s.engine.model(), &arrivals));
    let targets: Vec<&Graph> = arrivals.iter().collect();
    m.set("pattern.vf2_us", layers::vf2_us(&query_patterns(), &targets));
    let batches: Vec<Vec<Graph>> = arrivals.chunks(BATCH).map(|c| c.to_vec()).collect();
    let (append_us, sync_us, bytes_per_graph) = layers::wal(&work.fresh("ingest-wal"), &batches);
    m.set("store.wal_append_us", append_us);
    m.set("store.wal_sync_us", sync_us);
    m.set("store.wal_bytes_per_graph", bytes_per_graph);

    json!({
        "spans": spans,
        "traced_graphs_per_s": traced_gps,
        "untraced_graphs_per_s": untraced_gps,
        "batches": run.batch_ms.len() as u64,
    })
}
