//! Serving load generator: boots a `gvex_serve` front end over a
//! durable engine, replays mixed read/write traffic against it, and
//! writes `BENCH_PR8.json` (the CI serve-smoke artifact).
//!
//! Phases:
//!
//! 1. **Mixed load** — a sustained writer streams `POST /insert`
//!    batches while reader threads hammer `POST /query`; per-request
//!    read latency is recorded client-side and reported as p50/p99.
//! 2. **Deadline hard check** — requests sent with `x-deadline-ms: 0`
//!    must every one come back 503 with a `Retry-After` hint, and the
//!    engine's live-graph count must be untouched (an expired request
//!    is *never executed*).
//! 3. **Repeatable-read hard check** — a pinned session's query body
//!    must be byte-identical across an interleaved write batch, while
//!    head queries see the writes.
//!
//! The payload also reports the admission-rejection rate and the
//! micro-batch occupancy scraped from `/stats`, and gates on zero
//! *unexpected* 5xx responses (admission-control 503s are deliberate
//! and excluded).
//!
//! Usage: `loadgen [--check] [--out-dir DIR]`
//!
//! - `--check`: exit 1 when any gate fails (the CI serve-smoke
//!   contract).
//! - `--out-dir DIR`: where `BENCH_PR8.json` goes (default: the current
//!   directory).

use gvex_bench::gate::{host_cores, percentile, Gate, Report, Run};
use gvex_core::{Config, Engine};
use gvex_data::{mutagenicity, DataConfig, TYPE_N, TYPE_O};
use gvex_gnn::{AdamTrainer, GcnModel};
use gvex_graph::Graph;
use gvex_serve::{live_graphs, wire, Client, ServeConfig, Server};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);
/// Reader threads of the mixed-load phase.
const READERS: usize = 2;
/// Queries each reader issues.
const QUERIES_PER_READER: usize = 250;
/// Insert batches (3 graphs each) the writer streams.
const WRITER_BATCHES: usize = 40;

/// A graph in wire form with its ground-truth label attached.
fn wire_graph(g: &Graph, truth: u16) -> Value {
    let mut v = wire::graph_to_value(g);
    if let Value::Object(fields) = &mut v {
        fields.push(("truth".into(), Value::UInt(truth as u64)));
    }
    v
}

fn main() {
    let mut run = Run::from_args();
    let cores = host_cores();

    // Durable engine under the front end — the serving configuration
    // the README documents, not a special bench build.
    let wal_dir = std::env::temp_dir().join(format!("gvex_loadgen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create WAL scratch dir");
    let mut db = mutagenicity(DataConfig::new(48, 33));
    let model = GcnModel::new(14, 16, 2, 2, 33);
    AdamTrainer::classify_all(&model, &mut db, &[]);
    let engine = Arc::new(
        Engine::builder(model, db)
            .config(Config::with_bounds(0, 5))
            .threads(0)
            .durable(&wal_dir)
            .build(),
    );
    let seed_graphs = live_graphs(&engine);

    let handle = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            accept_threads: 2 + READERS,
            exec_threads: cores.max(2),
            queue_capacity: 512,
            batch_window: Duration::from_millis(1),
            max_batch: 16,
            read_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    eprintln!(
        "loadgen: {seed_graphs} seed graphs, durable WAL at {wal_dir:?}, serving on {addr} \
         ({READERS} readers x {QUERIES_PER_READER} queries, {WRITER_BATCHES} writer batches)"
    );

    // Insert pool: fresh mutagenicity graphs with their truth labels,
    // in wire form (3 per batch).
    let pool: Vec<Value> = {
        let pdb = mutagenicity(DataConfig::new(3 * WRITER_BATCHES, 4242));
        pdb.iter().map(|(id, g)| wire_graph(g, pdb.truth(id))).collect()
    };

    // ---- phase 1: mixed read/write load ------------------------------
    let writer_done = Arc::new(AtomicBool::new(false));
    let reads_under_writer = Arc::new(AtomicUsize::new(0));
    let nitro = json!({
        "types": vec![TYPE_N as u64, TYPE_O as u64],
        "edges": Value::Array(vec![json!([0u64, 1u64, 1u64])]),
    });
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let writer_done = Arc::clone(&writer_done);
            let reads_under_writer = Arc::clone(&reads_under_writer);
            let nitro = nitro.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, TIMEOUT).expect("reader connects");
                let mut latencies_us: Vec<f64> = Vec::with_capacity(QUERIES_PER_READER);
                for i in 0..QUERIES_PER_READER {
                    let body =
                        if i % 2 == 0 { json!({}) } else { json!({ "pattern": nitro.clone() }) };
                    let t = Instant::now();
                    let r = c.post("/query", &body).expect("query");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(r.status, 200, "read failed: {:?}", r.body);
                    if !writer_done.load(Ordering::Relaxed) {
                        reads_under_writer.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies_us
            })
        })
        .collect();
    let writer = {
        let pool = pool.clone();
        let writer_done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr, TIMEOUT).expect("writer connects");
            let mut inserted = 0usize;
            for batch in pool.chunks(3) {
                let r = c
                    .post("/insert", &json!({ "graphs": Value::Array(batch.to_vec()) }))
                    .expect("insert");
                assert_eq!(r.status, 200, "write failed: {:?}", r.body);
                inserted += batch.len();
            }
            writer_done.store(true, Ordering::Relaxed);
            inserted
        })
    };
    let inserted = writer.join().expect("writer thread");
    let mut latencies_us: Vec<f64> =
        readers.into_iter().flat_map(|r| r.join().expect("reader thread")).collect();
    let reads_completed = latencies_us.len();
    let overlapped = reads_under_writer.load(Ordering::Relaxed);
    let p50_ms = percentile(&mut latencies_us, 0.50) / 1e3;
    let p99_ms = percentile(&mut latencies_us, 0.99) / 1e3;
    eprintln!(
        "mixed load: {reads_completed} reads ({overlapped} under the writer), {inserted} inserts; \
         read latency p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms"
    );
    assert_eq!(live_graphs(&engine), seed_graphs + inserted, "writer inserts must all land");

    // ---- phase 2: deadline admission hard check ----------------------
    let mut c = Client::connect(addr, TIMEOUT).expect("control connects");
    let before = live_graphs(&engine);
    let expired_total = 25usize;
    let mut expired_rejected = 0usize;
    let mut retry_after_present = true;
    for i in 0..expired_total {
        let body = json!({ "graphs": Value::Array(vec![pool[i % pool.len()].clone()]) });
        let r = c.request("POST", "/insert", Some(&body), Some(0)).expect("expired insert");
        if r.status == 503 {
            expired_rejected += 1;
        }
        retry_after_present &= r.retry_after.is_some();
    }
    // Allow any erroneously-admitted write to land before counting.
    std::thread::sleep(Duration::from_millis(100));
    let never_executed = live_graphs(&engine) == before;
    let deadline_enforced =
        expired_rejected == expired_total && retry_after_present && never_executed;
    eprintln!(
        "deadline check: {expired_rejected}/{expired_total} rejected with 503, \
         retry-after {retry_after_present}, executed 0: {never_executed}"
    );

    // ---- phase 3: repeatable-read hard check -------------------------
    let sid = c.post("/session", &json!({})).expect("session").u64_field("session");
    let spath = format!("/session/{sid}/query");
    let first = c.post(&spath, &json!({})).expect("session query");
    let ins = c
        .post("/insert", &json!({ "graphs": Value::Array(pool[..3].to_vec()) }))
        .expect("interleaved insert");
    assert_eq!(ins.status, 200);
    let second = c.post(&spath, &json!({})).expect("session query");
    let head_count = c.post("/query", &json!({})).expect("head query").u64_field("count");
    let repeatable = first.status == 200
        && second.status == 200
        && first.raw == second.raw
        && head_count == first.u64_field("count") + 3;
    eprintln!(
        "repeatable read: session bytes identical {} (session count {}, head count {head_count})",
        first.raw == second.raw,
        first.u64_field("count"),
    );

    // ---- scrape /stats and settle up ---------------------------------
    let stats = c.get("/stats").expect("stats").body;
    let block = |name: &str| -> Value { stats.get_field(name).cloned().unwrap_or(Value::Null) };
    let (adm, batch, responses) = (block("admission"), block("batch"), block("responses"));
    let admitted = wire::u64_field(&adm, "admitted").unwrap_or(0);
    let rejected = wire::u64_field(&adm, "rejected_total").unwrap_or(0);
    let rejection_rate = rejected as f64 / (admitted + rejected).max(1) as f64;
    let occupancy = batch
        .get_field("occupancy")
        .and_then(|v| match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
        .unwrap_or(0.0);
    let resp_5xx = wire::u64_field(&responses, "5xx").unwrap_or(0);
    // Admission-control 503s are deliberate; anything beyond them is a
    // server bug.
    let unexpected_5xx = resp_5xx.saturating_sub(rejected);
    eprintln!(
        "stats: admitted {admitted}, rejected {rejected} (rate {rejection_rate:.3}), batch \
         occupancy {occupancy:.2}, 5xx {resp_5xx} ({unexpected_5xx} unexpected)"
    );

    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let flag = |ok: bool| if ok { 1.0 } else { 0.0 };
    run.write(
        Report::new(8)
            .section(
                "workload",
                json!({
                    "seed_graphs": seed_graphs as u64,
                    "reader_threads": READERS as u64,
                    "queries_per_reader": QUERIES_PER_READER as u64,
                    "writer_batches": WRITER_BATCHES as u64,
                    "inserted": inserted as u64,
                    "durable": true,
                }),
            )
            .result(json!({
                "name": "read_latency_under_writer",
                "reads_completed": reads_completed as u64,
                "reads_under_writer": overlapped as u64,
                "p50_ms": p50_ms,
                "p99_ms": p99_ms,
            }))
            .result(json!({
                "name": "admission",
                "admitted": admitted,
                "rejected": rejected,
                "rejection_rate": rejection_rate,
                "expired_sent": expired_total as u64,
                "expired_rejected": expired_rejected as u64,
            }))
            .result(json!({
                "name": "micro_batching",
                "occupancy": occupancy,
            }))
            .result(json!({
                "name": "responses",
                "resp_5xx": resp_5xx,
                "unexpected_5xx": unexpected_5xx,
            }))
            .gate(Gate::at_most("read_latency_under_writer.p99_ms", p99_ms, 500.0))
            .gate(
                Gate::at_least(
                    "read_latency_under_writer.reads_completed",
                    reads_completed as f64,
                    1.0,
                )
                .and(overlapped > 0),
            )
            .gate(Gate::at_least("admission.deadline_enforced", flag(deadline_enforced), 1.0))
            .gate(Gate::at_least("session.repeatable_read", flag(repeatable), 1.0))
            .gate(Gate::at_most("responses.unexpected_5xx", unexpected_5xx as f64, 0.0)),
    );
    run.finish();
}
