//! Streaming-ingest bench for CI: a windowed, durable, budget-capped
//! engine ingests a stream **24× its retention window** and writes
//! `BENCH_PR10.json`.
//!
//! Three properties of the bounded-memory claim are measured and gated:
//!
//! 1. **Bounded residency** — peak resident payload bytes across the
//!    whole stream must stay within 1.2× the steady window footprint
//!    (the mean live-window bytes over the second half of the stream).
//!    An O(stream) leak anywhere — sweep, postings, page cache, pin
//!    handling — blows straight through this gate.
//! 2. **Bounded disk** — the durable directory's high-water mark
//!    (WAL + checkpoint + extents, sampled after every batch) must stay
//!    within a constant factor (10×) of the steady window footprint,
//!    far below the total streamed payload volume: WALs truncate at
//!    checkpoint and dead extent generations are collected.
//! 3. **Ingest throughput** — classify-on-insert streaming must sustain
//!    the gate floor in graphs/second; the per-commit sweep may not
//!    make ingest O(stream).
//!
//! Concurrently with the stream, an analyst thread pins a snapshot a
//! quarter of the way in and re-reads its whole frontier continuously;
//! any re-read that is not byte-identical to the pinned canon is a
//! hard failure (exit 2) — expiry must never mutate what a pin can see.
//!
//! Usage: `stream_bench [--check] [--out-dir DIR]`
//!
//! - `--check`: exit 1 when any gate fails (the CI stream-smoke
//!   contract).
//! - `--out-dir DIR`: where `BENCH_PR10.json` goes (default: the current
//!   directory).

use gvex_bench::gate::{Gate, Report, Run};
use gvex_core::{Config, Engine, RetentionPolicy, ViewQuery, Window};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDb, GraphId};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const BATCH: usize = 32;
/// Retention window in graphs.
const WINDOW: usize = 256;
/// The stream is this many windows long.
const STREAM_FACTOR: usize = 24;

/// Byte-identity canon of one payload: node types, feature bits, and
/// the sorted edge list.
type Canon = (Vec<u16>, Vec<u64>, Vec<(u32, u32, u16)>);

fn canon(g: &Graph) -> Canon {
    let types: Vec<u16> = (0..g.num_nodes() as u32).map(|v| g.node_type(v)).collect();
    let feats: Vec<u64> = g.features().data().iter().map(|f| f.to_bits()).collect();
    let mut edges: Vec<(u32, u32, u16)> = g.edges().collect();
    edges.sort_unstable();
    (types, feats, edges)
}

/// Total size of the durable directory right now.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()?.metadata().ok().map(|m| m.len())).sum())
        .unwrap_or(0)
}

fn main() {
    let mut run = Run::from_args();
    let stream_len = WINDOW * STREAM_FACTOR;

    // The arrival stream: MalNet-scale call graphs, classified on
    // insert (truth withheld — this is the triage workload).
    let gen_t = Instant::now();
    let arrivals: Vec<Graph> = {
        let db = gvex_data::malnet_scale(stream_len, 29);
        db.iter().map(|(_, g)| g.clone()).collect()
    };
    let generate_ms = gen_t.elapsed().as_secs_f64() * 1e3;
    // Prefix sums of payload bytes: window footprints in the same
    // units as the pager's resident accounting, computed without
    // touching (and thus faulting) the engine.
    let prefix: Vec<u64> = arrivals
        .iter()
        .scan(0u64, |acc, g| {
            *acc += g.approx_bytes() as u64;
            Some(*acc)
        })
        .collect();
    let stream_bytes = *prefix.last().unwrap_or(&0);
    let window_tail_bytes =
        |upto: usize| prefix[upto - 1] - if upto > WINDOW { prefix[upto - WINDOW - 1] } else { 0 };
    let est_window_bytes = window_tail_bytes(arrivals.len());
    let feat = arrivals.first().map(|g| g.feature_dim()).unwrap_or(1);
    let model = GcnModel::new(feat, 8, 5, 2, 7);
    eprintln!(
        "stream: {stream_len} graphs ({stream_bytes} payload bytes) over a {WINDOW}-graph \
         window (~{est_window_bytes} bytes), generated in {generate_ms:.0} ms"
    );

    let dir = std::env::temp_dir().join(format!("gvex_bench_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create stream scratch dir");

    // Budget = 3/4 of the window footprint: the page cache must hold
    // residency near it (transient insert overshoot included) while
    // the stream runs 24× past the window.
    let engine = Engine::builder(model, GraphDb::new())
        .config(Config::with_bounds(0, 4))
        .retention(RetentionPolicy::Window(Window::last_graphs(WINDOW)))
        .durable(&dir)
        .checkpoint_every(4)
        .memory_budget(est_window_bytes * 3 / 4)
        .build();

    let pin_at = stream_len / (BATCH * 4); // batches before the analyst pins
    let done = AtomicBool::new(false);
    let pinned_reads = AtomicU64::new(0);
    let pinned_mismatches = AtomicU64::new(0);
    let mut disk_high_water = 0u64;
    let mut window_bytes_samples: Vec<u64> = Vec::new();
    let mut stream_secs = 0.0f64;

    std::thread::scope(|scope| {
        let engine = &engine;
        let done = &done;
        let pinned_reads = &pinned_reads;
        let pinned_mismatches = &pinned_mismatches;
        // The analyst: waits for the pin signal via a channel carrying
        // the frontier, then hammers re-reads until the stream ends.
        let (pin_tx, pin_rx) = std::sync::mpsc::channel::<Vec<GraphId>>();
        scope.spawn(move || {
            let Ok(frontier) = pin_rx.recv() else { return };
            let snap = engine.snapshot();
            let baseline: Vec<_> = frontier
                .iter()
                .map(|&id| canon(snap.db().get_graph(id).expect("pinned read")))
                .collect();
            while !done.load(Ordering::Relaxed) {
                for (i, &id) in frontier.iter().enumerate() {
                    let Some(g) = snap.db().get_graph(id) else {
                        pinned_mismatches.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    if canon(g) != baseline[i] {
                        pinned_mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    pinned_reads.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        let stream_t = Instant::now();
        for (i, batch) in arrivals.chunks(BATCH).enumerate() {
            engine.insert_graphs(batch.iter().map(|g| (g.clone(), None)).collect());
            if i + 1 == pin_at {
                let _ = pin_tx.send(engine.query(&ViewQuery::new()).graphs);
            }
            disk_high_water = disk_high_water.max(dir_bytes(&dir));
            if i >= arrivals.len() / (BATCH * 2) {
                window_bytes_samples.push(window_tail_bytes((i + 1) * BATCH));
            }
        }
        stream_secs = stream_t.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
    });

    let w = engine.window_stats();
    let pager = engine.pager_stats().expect("durable engine pages");
    let steady_window_bytes = (window_bytes_samples.iter().sum::<u64>()
        / window_bytes_samples.len().max(1) as u64)
        .max(1);
    let throughput = stream_len as f64 / stream_secs;
    let peak_over_window = pager.peak_resident_bytes as f64 / steady_window_bytes as f64;
    let disk_over_window = disk_high_water as f64 / steady_window_bytes as f64;
    let reads = pinned_reads.load(Ordering::Relaxed);
    let mismatches = pinned_mismatches.load(Ordering::Relaxed);
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "stream: {stream_len} graphs in {stream_secs:.2} s ({throughput:.0} graphs/s); window \
         live {} graphs / {} bytes (steady {steady_window_bytes}), {} expired",
        w.live_graphs, w.live_bytes, w.expired_total
    );
    eprintln!(
        "memory: peak resident {} bytes = {peak_over_window:.2}x the steady window; disk \
         high-water {disk_high_water} bytes = {disk_over_window:.2}x the window \
         ({:.1}% of the {stream_bytes}-byte stream)",
        pager.peak_resident_bytes,
        100.0 * disk_high_water as f64 / stream_bytes as f64
    );
    eprintln!("analyst: {reads} concurrent pinned re-reads, {mismatches} mismatches");

    if mismatches > 0 || reads == 0 {
        eprintln!("FATAL: pinned snapshot identity violated ({reads} reads, {mismatches} bad)");
        std::process::exit(2);
    }

    // Thresholds hold on a 1-core host; the throughput gate is a
    // conservative floor (~0.25x a cold CI box).
    run.write(
        Report::new(10)
            .section(
                "stream",
                json!({
                    "graphs": stream_len as u64,
                    "window_graphs": WINDOW as u64,
                    "stream_factor": STREAM_FACTOR as u64,
                    "batch": BATCH as u64,
                    "stream_payload_bytes": stream_bytes,
                    "generate_ms": generate_ms,
                }),
            )
            .result(json!({
                "name": "bounded_memory",
                "steady_window_bytes": steady_window_bytes,
                "peak_resident_bytes": pager.peak_resident_bytes,
                "peak_over_window": peak_over_window,
                "evictions": pager.evictions,
                "spilled_bytes": pager.spilled_bytes,
            }))
            .result(json!({
                "name": "bounded_disk",
                "disk_high_water_bytes": disk_high_water,
                "disk_over_window": disk_over_window,
                "disk_over_stream": disk_high_water as f64 / stream_bytes as f64,
            }))
            .result(json!({
                "name": "ingest_throughput",
                "stream_secs": stream_secs,
                "graphs_per_sec": throughput,
                "live_graphs": w.live_graphs,
                "expired_total": w.expired_total,
            }))
            .result(json!({
                "name": "pinned_identity",
                "concurrent_reads": reads,
                "mismatches": mismatches,
            }))
            .gate(Gate::at_most("bounded_memory.peak_over_window", peak_over_window, 1.2))
            .gate(Gate::at_most("bounded_disk.disk_over_window", disk_over_window, 10.0))
            .gate(Gate::at_least("ingest_throughput.graphs_per_sec", throughput, 300.0)),
    );
    run.finish();
}
