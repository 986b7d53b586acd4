//! Layer probes: each times one layer's public entry point on the
//! workload's own inputs, outside the engine, for the traced run.

use crate::common;
use gvex_core::{Engine, ViewQuery};
use gvex_gnn::GcnModel;
use gvex_graph::Graph;
use gvex_pattern::{vf2, Pattern};
use rayon::prelude::*;
use rayon::ThreadPool;
use std::hint::black_box;
use std::time::Instant;

/// Mean µs per `GcnModel::predict_proba`, timed inside `pool` the way
/// the engine runs forwards: the inputs fan out over the pool's workers,
/// each of which runs its forwards with a nested width of one.
pub fn forward_us(pool: &ThreadPool, model: &GcnModel, graphs: &[Graph]) -> f64 {
    if graphs.is_empty() {
        return 0.0;
    }
    let width = pool.current_num_threads().max(1);
    let chunks: Vec<&[Graph]> = graphs.chunks(graphs.len().div_ceil(width)).collect();
    let busy: Vec<f64> = pool.install(|| {
        chunks
            .par_iter()
            .map(|chunk| {
                let t = Instant::now();
                for g in chunk.iter() {
                    black_box(model.predict_proba(g));
                }
                common::secs(t)
            })
            .collect()
    });
    busy.iter().sum::<f64>() * 1e6 / graphs.len() as f64
}

/// Mean µs per `vf2::contains` over `patterns × graphs` (at most
/// `MAX_PAIRS` pairs, taken in order).
pub fn vf2_us(patterns: &[Pattern], graphs: &[&Graph]) -> f64 {
    const MAX_PAIRS: usize = 40_000;
    let mut pairs = 0usize;
    let t = Instant::now();
    'outer: for p in patterns {
        for g in graphs {
            black_box(vf2::contains(p, g));
            pairs += 1;
            if pairs >= MAX_PAIRS {
                break 'outer;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        common::us(t) / pairs as f64
    }
}

/// `Engine::query` latency samples in µs, ascending.
pub fn engine_query_us(engine: &Engine, queries: &[ViewQuery], rounds: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(queries.len() * rounds);
    for _ in 0..rounds {
        for q in queries {
            let t = Instant::now();
            black_box(engine.query(q));
            out.push(common::us(t));
        }
    }
    common::sorted(out)
}

/// Mean µs per `Snapshot::query` on a snapshot pinned now.
pub fn snapshot_query_us(engine: &Engine, queries: &[ViewQuery], rounds: usize) -> f64 {
    let snap = engine.snapshot();
    let t = Instant::now();
    let mut n = 0usize;
    for _ in 0..rounds {
        for q in queries {
            black_box(snap.query(q));
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        common::us(t) / n as f64
    }
}

/// WAL costs on the workload's own insert batches: mean µs per
/// `WalWriter::append`, per `WalWriter::sync` (one per group-commit of
/// `FsyncPolicy::GROUP` records, as `FsyncPolicy::Batch` does), and log
/// bytes per graph from `WalWriter::position`.
pub fn wal(dir: &std::path::Path, batches: &[Vec<Graph>]) -> (f64, f64, f64) {
    use gvex_store::{FsyncPolicy, InsertEntry, WalOp, WalRecord, WalWriter};
    let path = dir.join("probe.wal");
    let mut w = WalWriter::open(&path, FsyncPolicy::Never).expect("open probe WAL");
    let start = w.position();
    let (mut append_s, mut sync_s, mut syncs, mut graphs) = (0.0, 0.0, 0usize, 0usize);
    let mut next_id = 0u32;
    for (i, batch) in batches.iter().enumerate() {
        let entries: Vec<InsertEntry> = batch
            .iter()
            .enumerate()
            .map(|(pos, g)| {
                next_id += 1;
                InsertEntry { pos: pos as u32, id: next_id, truth: None, graph: g.clone() }
            })
            .collect();
        graphs += entries.len();
        let rec = WalRecord {
            batch: i as u64,
            epoch: i as u64 + 1,
            participants: vec![0],
            op: WalOp::Insert(entries),
        };
        let t = Instant::now();
        w.append(&rec).expect("probe WAL append");
        append_s += common::secs(t);
        if (i + 1) % FsyncPolicy::GROUP == 0 || i + 1 == batches.len() {
            let t = Instant::now();
            w.sync().expect("probe WAL sync");
            sync_s += common::secs(t);
            syncs += 1;
        }
    }
    let bytes = w.position() - start;
    drop(w);
    let _ = std::fs::remove_file(&path);
    let n = batches.len().max(1) as f64;
    (append_s * 1e6 / n, sync_s * 1e6 / syncs.max(1) as f64, bytes as f64 / graphs.max(1) as f64)
}
