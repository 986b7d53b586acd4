//! Durable-engine integration tests: WAL + checkpoint round trips
//! through recovery, torn-tail and partial-batch crash tolerance, the
//! corrupt-directory refusals, and a property test that for random
//! op sequences with a crash injected between arbitrary WAL records,
//! `recover(checkpoint + logs)` is observationally identical to an
//! engine that never crashed — same head epoch, same live graphs and
//! per-label counts, same view contents, and same historical versions
//! at pinned epochs.
//!
//! Ops here are sequential, so recovery reproduces every epoch (and
//! every allocated id) *exactly* — the tests exploit that and compare
//! ids directly rather than through arrival ordinals.

use gvex_core::{Config, Engine, FsyncPolicy, StoreError, ViewQuery};
use gvex_data::malnet_scale;
use gvex_gnn::GcnModel;
use gvex_graph::{ClassLabel, Epoch, Graph, GraphDb, GraphId};
use gvex_store::{read_wal, truncate_wal, wal_path, WalOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory under the system temp dir, unique per
/// test invocation (pid + counter), removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gvex-durable-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Untrained model — determinism is all the durability layer needs,
/// and both sides of every comparison clone the same instance.
fn model_for(db: &GraphDb) -> GcnModel {
    let feat = db.iter().next().map(|(_, g)| g.feature_dim()).unwrap_or(1);
    GcnModel::new(feat, 8, 5, 2, 7)
}

/// A classifier that actually discriminates families, so arrivals
/// spread across shards (the cross-shard batch test needs routing to
/// reach both shards). Trained once, shared.
fn routed_model() -> GcnModel {
    static MODEL: std::sync::OnceLock<GcnModel> = std::sync::OnceLock::new();
    MODEL
        .get_or_init(|| {
            use gvex_gnn::{AdamTrainer, TrainConfig};
            let db = malnet_scale(60, 7);
            let feat = db.iter().next().map(|(_, g)| g.feature_dim()).unwrap_or(1);
            let mut m = GcnModel::new(feat, 8, 5, 2, 7);
            let ids: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
            let cfg = TrainConfig { epochs: 40, target_accuracy: 0.95, ..TrainConfig::default() };
            AdamTrainer::new(&m, cfg).fit(&mut m, &db, &ids);
            m
        })
        .clone()
}

fn cfg() -> Config {
    Config::with_bounds(0, 4)
}

/// One logged engine op, replayable against any engine. `Insert` and
/// `Remove` index into the shared arrival pool / id list so the same
/// script drives the durable engine and the in-memory reference.
#[derive(Debug, Clone)]
enum Op {
    /// Insert these pool graphs as one batch.
    Insert(Vec<usize>),
    /// Remove the ids of these arrival ordinals (stale ones included —
    /// double removes exercise the skip-and-log path).
    Remove(Vec<usize>),
    Explain(ClassLabel),
    Stream(ClassLabel),
    ExplainAll,
    /// Explain a label over the ids of these arrival ordinals (removed
    /// ones included — the subset path skips them; ordinals not yet
    /// inserted are dropped).
    ExplainSubset(ClassLabel, Vec<usize>),
    /// Stream a label over the ids of these arrival ordinals.
    StreamSubset(ClassLabel, Vec<usize>),
}

/// The ids of `ordinals` among the arrivals so far.
fn arrivals(ordinals: &[usize], ids: &[GraphId]) -> Vec<GraphId> {
    ordinals.iter().filter_map(|&o| ids.get(o).copied()).collect()
}

/// Applies `op`, extending `ids` with any new arrivals.
fn apply(engine: &Engine, op: &Op, pool: &[Graph], ids: &mut Vec<GraphId>) {
    match op {
        Op::Insert(picks) => {
            let batch: Vec<_> = picks.iter().map(|&i| (pool[i].clone(), None)).collect();
            ids.extend(engine.insert_graphs(batch).0);
        }
        Op::Remove(ordinals) => {
            let victims = arrivals(ordinals, ids);
            if !victims.is_empty() {
                engine.remove_graphs(&victims);
            }
        }
        Op::Explain(l) => {
            engine.explain_label(*l);
        }
        Op::Stream(l) => {
            engine.stream(*l, 0.8);
        }
        Op::ExplainAll => {
            engine.explain_all();
        }
        Op::ExplainSubset(l, ordinals) => {
            engine.explain_subset(*l, &arrivals(ordinals, ids));
        }
        Op::StreamSubset(l, ordinals) => {
            engine.stream_subset(*l, &arrivals(ordinals, ids), 0.7);
        }
    }
}

/// Canonical value of one explanation view (field-by-field, with float
/// bits — sequential replay must reproduce views exactly).
type ViewCanon = (
    ClassLabel,
    Vec<(GraphId, Vec<u32>, bool, bool, u64)>,
    Vec<(Vec<u16>, Vec<(u32, u32, u16)>)>,
    u64,
    u64,
);

fn canon_view(v: &gvex_core::ExplanationView) -> ViewCanon {
    let subs = v
        .subgraphs
        .iter()
        .map(|s| (s.graph_id, s.nodes.clone(), s.consistent, s.counterfactual, s.score.to_bits()))
        .collect();
    let pats = v
        .patterns
        .iter()
        .map(|p| {
            let types: Vec<u16> = (0..p.num_nodes() as u32).map(|n| p.node_type(n)).collect();
            let mut edges: Vec<(u32, u32, u16)> = p.edges().collect();
            edges.sort_unstable();
            (types, edges)
        })
        .collect();
    (v.label, subs, pats, v.explainability.to_bits(), v.edge_loss.to_bits())
}

/// Asserts `a` and `b` answer identically: head epoch, full result
/// set, per-label counts, and every current view.
fn assert_identical(a: &Engine, b: &Engine, labels: ClassLabel) {
    assert_eq!(a.head(), b.head(), "head epoch");
    let (ra, rb) = (a.query(&ViewQuery::new()), b.query(&ViewQuery::new()));
    assert_eq!(ra.graphs, rb.graphs, "live graph ids");
    assert_eq!(ra.per_label, rb.per_label, "per-label counts");
    for l in 0..labels {
        assert_eq!(
            a.query(&ViewQuery::new().label(l)).graphs,
            b.query(&ViewQuery::new().label(l)).graphs,
            "label {l} result"
        );
    }
    let (va, vb) = (a.view_set(), b.view_set());
    let ca: Vec<ViewCanon> = va.views.iter().map(canon_view).collect();
    let cb: Vec<ViewCanon> = vb.views.iter().map(canon_view).collect();
    assert_eq!(ca, cb, "current view versions");
}

/// Runs on a 1-shard and a 2-shard engine. The 2-shard run uses the
/// routing classifier, so insert and remove batches span both shards
/// and replay reassembles them from per-shard records.
#[test]
fn fresh_directory_round_trips_through_recovery() {
    for shards in [1, 2] {
        round_trip_through_recovery(shards);
    }
}

fn round_trip_through_recovery(shards: usize) {
    let scratch = Scratch::new("roundtrip");
    let db = malnet_scale(20, 41);
    let model = if shards == 1 { model_for(&db) } else { routed_model() };
    let pool: Vec<Graph> = malnet_scale(12, 99).iter().map(|(_, g)| g.clone()).collect();
    let ops = vec![
        Op::Explain(1),
        Op::Insert(vec![0, 1, 2]),
        Op::Stream(2),
        Op::Insert(vec![3, 4]),
        Op::Remove(vec![0, 1]),
        Op::Remove(vec![0]),                 // stale double-remove
        Op::ExplainSubset(0, vec![0, 2, 3]), // arrival 0 is removed
        Op::Insert(vec![5, 6, 7]),
        Op::StreamSubset(1, vec![1, 4, 5, 6, 11]), // 1 removed, 11 never inserted
        Op::Remove(vec![2, 5, 6]),
        Op::ExplainAll,
    ];

    let reference = Engine::builder(model.clone(), db.clone()).config(cfg()).shards(shards).build();
    let durable = Engine::builder(model.clone(), db.clone())
        .config(cfg())
        .shards(shards)
        .durable(scratch.path())
        .fsync(FsyncPolicy::Always)
        .build();
    assert!(durable.is_durable() && !reference.is_durable());
    assert!(durable.recovery_report().is_none(), "fresh directory: nothing recovered");

    let (mut ids_a, mut ids_b) = (Vec::new(), Vec::new());
    for op in &ops {
        apply(&reference, op, &pool, &mut ids_a);
        apply(&durable, op, &pool, &mut ids_b);
    }
    assert_eq!(ids_a, ids_b, "sequential id allocation is reproducible");
    assert_eq!(durable.durable_ops(), Some(ops.len() as u64));
    drop(durable);
    if shards > 1 {
        // Both row-op kinds logged at least one batch spanning every shard.
        let (segments, _, _) = read_wal(&wal_path(scratch.path(), 1)).expect("intact log");
        let spans = |kind: fn(&WalOp) -> bool| {
            segments.iter().any(|s| s.record.participants.len() == shards && kind(&s.record.op))
        };
        assert!(spans(|op| matches!(op, WalOp::Insert(_))), "no cross-shard insert batch");
        assert!(spans(|op| matches!(op, WalOp::Remove(_))), "no cross-shard remove batch");
    }

    // Recover over an *empty* seed — the directory is authoritative.
    let recovered =
        Engine::builder(model, GraphDb::new()).config(cfg()).durable(scratch.path()).build();
    assert_eq!(recovered.num_shards(), shards, "the directory fixes the shard count");
    let report = recovered.recovery_report().expect("directory was recovered");
    assert_eq!(report.ops_replayed, ops.len() as u64, "every logged op replayed");
    assert_eq!(report.batches_discarded, 0);
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(recovered.durable_ops(), Some(ops.len() as u64), "op sequence resumes");
    assert_identical(&recovered, &reference, 5);

    // Historical versions survive too: shard 0's store still answers
    // pinned-epoch reads identically.
    for vid in [gvex_core::ViewId(0), gvex_core::ViewId(1)] {
        assert_eq!(
            recovered.store().version_count(vid),
            reference.store().version_count(vid),
            "version chain length of {vid:?}"
        );
        for e in 0..recovered.head().0 + 1 {
            let (x, y) =
                (recovered.store().get_at(vid, Epoch(e)), reference.store().get_at(vid, Epoch(e)));
            assert_eq!(x.is_some(), y.is_some(), "liveness of {vid:?} at epoch {e}");
            if let (Some(x), Some(y)) = (x, y) {
                assert_eq!(canon_view(&x), canon_view(&y), "{vid:?} at epoch {e}");
            }
        }
    }

    // And the recovered engine keeps going: a further op logs at the
    // next ordinal and round-trips again.
    apply(&recovered, &Op::Insert(vec![8]), &pool, &mut ids_b);
    assert_eq!(recovered.durable_ops(), Some(ops.len() as u64 + 1));
}

#[test]
fn checkpoint_resets_logs_and_recovery_starts_from_the_image() {
    let scratch = Scratch::new("checkpoint");
    let db = malnet_scale(16, 7);
    let model = model_for(&db);
    let pool: Vec<Graph> = malnet_scale(8, 123).iter().map(|(_, g)| g.clone()).collect();

    let reference = Engine::builder(model.clone(), db.clone()).config(cfg()).build();
    let durable =
        Engine::builder(model.clone(), db.clone()).config(cfg()).durable(scratch.path()).build();
    let (mut ids_a, mut ids_b) = (Vec::new(), Vec::new());
    let pre = [Op::Explain(0), Op::Insert(vec![0, 1])];
    let post = [Op::Insert(vec![2, 3]), Op::Remove(vec![0]), Op::Stream(1)];
    for op in &pre {
        apply(&reference, op, &pool, &mut ids_a);
        apply(&durable, op, &pool, &mut ids_b);
    }
    durable.checkpoint().expect("manual checkpoint");
    for s in 0..durable.num_shards() {
        let len = std::fs::metadata(wal_path(scratch.path(), s)).map(|m| m.len()).unwrap_or(0);
        assert_eq!(len, 0, "checkpoint resets shard {s}'s log");
    }
    for op in &post {
        apply(&reference, op, &pool, &mut ids_a);
        apply(&durable, op, &pool, &mut ids_b);
    }
    drop(durable);

    let recovered =
        Engine::builder(model, GraphDb::new()).config(cfg()).durable(scratch.path()).build();
    let report = recovered.recovery_report().expect("recovered");
    assert_eq!(report.checkpoint_ops, pre.len() as u64, "image held the pre-checkpoint ops");
    assert_eq!(report.ops_replayed, post.len() as u64, "only post-checkpoint ops replayed");
    assert_eq!(recovered.durable_ops(), Some((pre.len() + post.len()) as u64));
    assert_identical(&recovered, &reference, 5);
}

#[test]
fn automatic_checkpoints_fire_on_the_configured_cadence() {
    let scratch = Scratch::new("auto");
    let db = malnet_scale(10, 3);
    let model = model_for(&db);
    let pool: Vec<Graph> = malnet_scale(8, 5).iter().map(|(_, g)| g.clone()).collect();
    let durable = Engine::builder(model.clone(), db.clone())
        .config(cfg())
        .durable(scratch.path())
        .checkpoint_every(2)
        .build();
    let mut ids = Vec::new();
    for i in 0..6 {
        apply(&durable, &Op::Insert(vec![i]), &pool, &mut ids);
    }
    // Six ops at cadence 2: the logs were reset at least twice, so far
    // fewer than six records remain.
    let mut remaining = 0;
    for s in 0..durable.num_shards() {
        remaining += read_wal(&wal_path(scratch.path(), s)).expect("readable log").0.len();
    }
    assert!(remaining <= 2, "auto-checkpoint kept the logs short (found {remaining} records)");
    drop(durable);
    let recovered = Engine::builder(model.clone(), GraphDb::new())
        .config(cfg())
        .durable(scratch.path())
        .build();
    let reference = Engine::builder(model, db).config(cfg()).build();
    let mut ids_r = Vec::new();
    for i in 0..6 {
        apply(&reference, &Op::Insert(vec![i]), &pool, &mut ids_r);
    }
    assert_identical(&recovered, &reference, 5);
}

#[test]
fn wal_bytes_without_a_checkpoint_are_refused() {
    let scratch = Scratch::new("orphan-wal");
    std::fs::write(wal_path(scratch.path(), 0), b"orphaned bytes").expect("write");
    let db = malnet_scale(6, 2);
    let err = Engine::builder(model_for(&db), db)
        .config(cfg())
        .durable(scratch.path())
        .try_build()
        .expect_err("orphaned WAL bytes must refuse to build");
    assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
}

#[test]
fn torn_tail_is_truncated_and_the_prefix_recovers() {
    let scratch = Scratch::new("torn");
    let db = malnet_scale(12, 19);
    let model = model_for(&db);
    let pool: Vec<Graph> = malnet_scale(6, 77).iter().map(|(_, g)| g.clone()).collect();
    let durable =
        Engine::builder(model.clone(), db.clone()).config(cfg()).durable(scratch.path()).build();
    let mut ids = Vec::new();
    for op in [Op::Insert(vec![0, 1]), Op::Insert(vec![2]), Op::Insert(vec![3, 4])] {
        apply(&durable, &op, &pool, &mut ids);
    }
    drop(durable);

    // Tear the last record: keep its frame header plus one payload
    // byte. `read_wal` stops there; recovery truncates the tail.
    let wal = wal_path(scratch.path(), 0);
    let (segments, valid, _) = read_wal(&wal).expect("intact log");
    assert_eq!(segments.len(), 3);
    let torn_at = segments[2].offset + 9;
    truncate_wal(&wal, torn_at).expect("tear the tail");

    let recovered = Engine::builder(model.clone(), GraphDb::new())
        .config(cfg())
        .durable(scratch.path())
        .build();
    let report = recovered.recovery_report().expect("recovered");
    assert_eq!(report.ops_replayed, 2, "the two intact batches replay");
    assert_eq!(report.bytes_truncated, torn_at - segments[2].offset, "the torn tail is dropped");
    assert!(valid > segments[2].offset, "sanity: the full log was longer");

    let reference = Engine::builder(model, db).config(cfg()).build();
    let mut ids_r = Vec::new();
    for op in [Op::Insert(vec![0, 1]), Op::Insert(vec![2])] {
        apply(&reference, &op, &pool, &mut ids_r);
    }
    assert_identical(&recovered, &reference, 5);
}

/// A crash between the per-shard appends of one cross-shard insert
/// batch leaves some participants logged and others not: recovery must
/// discard the whole batch (batch-whole-or-not-at-all) and truncate
/// every surviving piece.
#[test]
fn partial_cross_shard_batches_are_discarded_whole() {
    let scratch = Scratch::new("partial-batch");
    let db = malnet_scale(14, 21);
    let model = routed_model();
    // Split an arrival pool by predicted route so one insert batch
    // provably spans both shards of a 2-shard engine.
    let (mut route0, mut route1) = (Vec::new(), Vec::new());
    for s in 0..10u64 {
        for (_, g) in malnet_scale(30, 300 + s).iter() {
            match (model.predict(g) as usize) % 2 {
                0 => route0.push(g.clone()),
                _ => route1.push(g.clone()),
            }
        }
        if !route0.is_empty() && !route1.is_empty() {
            break;
        }
    }
    assert!(
        !route0.is_empty() && !route1.is_empty(),
        "need arrivals routed to both shards to exercise a cross-shard batch"
    );
    let pool = vec![route0[0].clone(), route1[0].clone()];
    let ops = vec![
        Op::Insert(vec![0]),
        Op::Explain(0),
        Op::Insert(vec![0, 1]), /* spans both shards */
    ];

    let build = |db: GraphDb, dir: Option<&Path>| {
        let mut b = Engine::builder(model.clone(), db).config(cfg()).shards(2);
        if let Some(d) = dir {
            b = b.durable(d).fsync(FsyncPolicy::Never);
        }
        b.build()
    };
    let durable = build(db.clone(), Some(scratch.path()));
    let mut ids = Vec::new();
    for op in &ops {
        apply(&durable, op, &pool, &mut ids);
    }
    let last_batch = durable.durable_ops().expect("durable") - 1;
    drop(durable);

    // Erase shard 1's piece of the final batch — the crash landed
    // after shard 0's append, before shard 1's.
    let wal1 = wal_path(scratch.path(), 1);
    let (segments, _, _) = read_wal(&wal1).expect("intact log");
    let piece = segments
        .iter()
        .find(|s| s.record.batch == last_batch)
        .expect("the final batch logged to shard 1");
    assert_eq!(piece.record.participants, vec![0, 1], "the final batch spans both shards");
    truncate_wal(&wal1, piece.offset).expect("crash shard 1 mid-batch");

    let recovered = build(GraphDb::new(), Some(scratch.path()));
    let report = recovered.recovery_report().expect("recovered");
    assert_eq!(report.batches_discarded, 1, "the split batch is discarded whole");
    assert!(report.bytes_truncated > 0, "shard 0's orphaned piece is truncated");
    assert_eq!(report.ops_replayed, last_batch, "everything before the split batch replays");

    let reference = build(db, None);
    let mut ids_r = Vec::new();
    for op in &ops[..ops.len() - 1] {
        apply(&reference, op, &pool, &mut ids_r);
    }
    assert_identical(&recovered, &reference, 5);
}

/// Reference epochs/ids for the proptest: the engine that never
/// crashed, advanced through the first `k` ops.
fn reference_after(model: &GcnModel, db: &GraphDb, ops: &[Op], k: usize, pool: &[Graph]) -> Engine {
    let e = Engine::builder(model.clone(), db.clone()).config(cfg()).build();
    let mut ids = Vec::new();
    for op in &ops[..k] {
        apply(&e, op, pool, &mut ids);
    }
    e
}

/// Samples a random op script (the shim's `proptest!` only supports
/// numeric-range strategies, so ops derive from a seeded RNG).
fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.gen_range(2..7usize);
    (0..n)
        .map(|_| match rng.gen_range(0..10u8) {
            0..=2 => {
                Op::Insert((0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(0..10)).collect())
            }
            3..=4 => {
                Op::Remove((0..rng.gen_range(1..=2usize)).map(|_| rng.gen_range(0..12)).collect())
            }
            5 => Op::Explain(rng.gen_range(0..5u16)),
            6 => Op::Stream(rng.gen_range(0..5u16)),
            7 => Op::ExplainAll,
            8 => Op::ExplainSubset(rng.gen_range(0..5u16), subset_ordinals(rng)),
            _ => Op::StreamSubset(rng.gen_range(0..5u16), subset_ordinals(rng)),
        })
        .collect()
}

/// Arrival ordinals for a subset op: removed arrivals and ones not yet
/// inserted are both drawn.
fn subset_ordinals(rng: &mut StdRng) -> Vec<usize> {
    (0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(0..12)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For a random op sequence, crash the log at a random batch
    /// boundary — optionally leaving one shard's record of the cut
    /// batch behind (the mid-cross-shard-append crash) — and recover:
    /// the result must equal a never-crashed engine that executed
    /// exactly the surviving prefix.
    #[test]
    fn recovery_equals_the_never_crashed_prefix(
        crash_at in 0usize..7,
        partial in 0u8..2,
        seed in 1u64..500,
    ) {
        let partial = partial == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng);
        let scratch = Scratch::new("prop");
        let db = malnet_scale(10, seed);
        let model = model_for(&db);
        let pool: Vec<Graph> = malnet_scale(10, seed + 1000).iter().map(|(_, g)| g.clone()).collect();

        // Run the full script durably (fast fsync policy), then crash
        // by editing the logs the way a kill at batch `k` would have
        // left them.
        let durable = Engine::builder(model.clone(), db.clone())
            .config(cfg())
            .durable(scratch.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(0)
            .build();
        let mut ids = Vec::new();
        for op in &ops {
            apply(&durable, op, &pool, &mut ids);
        }
        let logged = durable.durable_ops().expect("durable");
        drop(durable);

        // Map batch ordinals back to op indices: ops that reach the
        // engine claim ordinals in submission order, but an all-stale
        // `Remove` never calls the engine and so never logs.
        let mut logging_ops = Vec::new();
        let mut inserted = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let logs = match op {
                Op::Insert(picks) => {
                    inserted += picks.len();
                    true
                }
                Op::Remove(ordinals) => ordinals.iter().any(|&o| o < inserted),
                Op::Explain(_)
                | Op::Stream(_)
                | Op::ExplainAll
                | Op::ExplainSubset(..)
                | Op::StreamSubset(..) => true,
            };
            if logs {
                logging_ops.push(i);
            }
        }
        prop_assert_eq!(logged, logging_ops.len() as u64);

        let k = (crash_at as u64).min(logged);
        let kept_all_of_k = {
            let wal0 = wal_path(scratch.path(), 0);
            let (segments, valid, _) = read_wal(&wal0).expect("intact log");
            // Single-shard engine: every batch is one record in shard
            // 0's log. `partial` keeps batch k itself (a crash after
            // its append); otherwise the cut lands just before it.
            let cut = segments
                .iter()
                .position(|s| s.record.batch >= k + u64::from(partial))
                .map_or(valid, |i| segments[i].offset);
            truncate_wal(&wal0, cut).expect("crash the log");
            partial && segments.iter().any(|s| s.record.batch == k)
        };
        let survived = if kept_all_of_k { (k + 1).min(logged) } else { k };

        let recovered = Engine::builder(model.clone(), GraphDb::new())
            .config(cfg())
            .durable(scratch.path())
            .build();
        let report = recovered.recovery_report().expect("recovered");
        prop_assert_eq!(report.ops_replayed, survived);
        // Replaying the first `survived` *logged* batches reproduces
        // the op prefix up to (not including) logging op `survived`;
        // interleaved non-logging ops are engine no-ops either way.
        let prefix = logging_ops.get(survived as usize).copied().unwrap_or(ops.len());
        let reference = reference_after(&model, &db, &ops, prefix, &pool);
        assert_identical(&recovered, &reference, 5);

        // Historical reads at every epoch up to the head agree too.
        for e in 0..=recovered.head().0 {
            let at = Epoch(e);
            for l in 0..5u16 {
                prop_assert_eq!(
                    recovered.store().label_graphs_at(l, at),
                    reference.store().label_graphs_at(l, at),
                    "label {} at epoch {}", l, e
                );
            }
        }
    }
}
