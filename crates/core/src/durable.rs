//! Durability attachment: wiring a [`gvex_store`] directory (per-shard
//! write-ahead logs + periodic checkpoints) into an [`Engine`].
//!
//! The engine logs from its commit pipeline (`Engine::commit` in
//! `engine.rs`, the one path every mutator runs through); this module
//! owns the *build-time* half:
//!
//! - **fresh directory** — open empty logs and write the seed state as
//!   the initial checkpoint, so the directory is self-contained from
//!   the first op (a directory with log bytes but no checkpoint is
//!   corrupt: the image its logs extend is missing);
//! - **recovery** — rebuild every shard from the newest checkpoint
//!   (slots, view records with materialized rows, live registrations),
//!   then hand each logged op back to **the same commit pipeline** with
//!   its `replay` argument set, which suppresses logging and automatic
//!   checkpoints. A view op is its record; an insert or removal is
//!   reassembled from its per-shard records into the batch as
//!   submitted. Live execution and replay therefore run the same code,
//!   incremental maintenance and window sweeps included.
//!
//! # Torn writes and cross-shard batches
//!
//! [`gvex_store::read_wal`] already stops at the first torn or
//! corrupted frame; recovery truncates that tail. A multi-shard op
//! appends one record per participant shard (same batch ordinal,
//! listing all participants): a batch is replayed only when **every**
//! participant's record survived, otherwise its partial records are
//! discarded and truncated away — the batch-whole-or-not-at-all
//! contract holds across crashes. Because an op holds its shards'
//! writer mutexes across all of its appends, a partially logged batch
//! is necessarily the last record of each log it did reach, so the
//! truncation never buries a complete batch (checked, not assumed).
//! A batch ordinal wholly absent from the logs (claimed, never
//! appended) can only belong to an op on *disjoint* shards that lost
//! the race to the crash; later surviving batches are id-independent
//! of it, so replay simply skips the gap.
//!
//! # Epochs
//!
//! Each record carries its commit epoch. Replay raises the watermark
//! clock to `epoch - 1` before re-running the op, so a sequentially
//! generated log reproduces every epoch exactly. Ops that were
//! in flight *concurrently* pre-crash may interleave their maintenance
//! ticks differently on the (sequential) replay; the recovered head
//! state is still observationally identical — same graphs, labels,
//! views, and live registrations — which is what the crash-matrix
//! harness asserts.

use crate::engine::{Engine, LiveView, Op, Shard, ViewAlgo};
use crate::store::{ViewId, ViewStore};
use gvex_graph::{Epoch, GraphDb, PayloadPager, ShardId};
use gvex_pager::PageCache;
use gvex_store::{
    read_checkpoint, truncate_wal, wal_path, CheckpointFile, FsyncPolicy, StoreError, WalOp,
    WalRecord, WalSegment, WalWriter,
};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Per-engine durability state (the `Engine::dur` field).
#[derive(Debug)]
pub(crate) struct Durability {
    /// The durable directory (checkpoint + per-shard logs).
    pub(crate) dir: PathBuf,
    /// One log writer per shard, indexed by shard.
    pub(crate) wals: Vec<Mutex<WalWriter>>,
    /// Automatic checkpoint cadence (0 = manual only).
    pub(crate) checkpoint_every: u64,
    /// Next batch ordinal (total ops logged over the durable lifetime).
    pub(crate) op_seq: AtomicU64,
    /// Ops logged since the last checkpoint (the auto-cadence counter).
    pub(crate) ops_since_checkpoint: AtomicU64,
    /// What recovery did, when this attachment recovered a directory.
    pub(crate) report: Option<RecoveryReport>,
}

/// What a recovering [`EngineBuilder::durable`] build found and did —
/// [`Engine::recovery_report`].
///
/// [`EngineBuilder::durable`]: crate::EngineBuilder::durable
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Watermark of the checkpoint the recovery started from.
    pub watermark: Epoch,
    /// Durable op sequence at that checkpoint (ops whose effects were
    /// already in the image).
    pub checkpoint_ops: u64,
    /// Complete logged batches re-run through the engine.
    pub ops_replayed: u64,
    /// Incomplete cross-shard batches discarded (crash landed between
    /// a batch's per-shard appends).
    pub batches_discarded: u64,
    /// Log bytes truncated: torn tails plus discarded batch records.
    pub bytes_truncated: u64,
}

/// Attaches durability to a freshly built engine: recovers `dir` if it
/// holds a checkpoint, initializes it from the engine's seed state
/// otherwise. Called by `EngineBuilder::try_build` as the last step.
pub(crate) fn attach(
    engine: &mut Engine,
    dir: PathBuf,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    memory_budget: Option<u64>,
) -> Result<(), StoreError> {
    std::fs::create_dir_all(&dir)?;
    match read_checkpoint(&dir)? {
        None => {
            // Fresh directory. Log bytes without an image would extend
            // a checkpoint that does not exist — refuse, don't guess.
            for s in 0..engine.num_shards() {
                let p = wal_path(&dir, s);
                if std::fs::metadata(&p).map(|m| m.len() > 0).unwrap_or(false) {
                    return Err(StoreError::Corrupt(format!(
                        "durable dir {} has WAL bytes but no checkpoint",
                        dir.display()
                    )));
                }
            }
            let n = engine.num_shards();
            // The page cache must be wired before the initial
            // checkpoint: the image stores extent locations, so the
            // export spills every seed payload through it.
            engine.attach_pager(Arc::new(PageCache::open(&dir, n, memory_budget)?));
            engine.dur = Some(init_dur(&dir, n, fsync, checkpoint_every, 0, None)?);
            // The initial image captures the seed (resharding
            // included), making the directory self-contained.
            engine.checkpoint()?;
            Ok(())
        }
        Some(ck) => recover(engine, dir, fsync, checkpoint_every, memory_budget, ck),
    }
}

/// Opens the per-shard log writers and assembles the [`Durability`].
fn init_dur(
    dir: &Path,
    shards: usize,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    op_seq: u64,
    report: Option<RecoveryReport>,
) -> Result<Durability, StoreError> {
    let wals = (0..shards)
        .map(|s| WalWriter::open(&wal_path(dir, s), fsync).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Durability {
        dir: dir.to_path_buf(),
        wals,
        checkpoint_every,
        op_seq: AtomicU64::new(op_seq),
        ops_since_checkpoint: AtomicU64::new(0),
        report,
    })
}

/// One logged batch, reassembled from its per-shard records.
struct Batch {
    /// Commit epoch (identical across the batch's records).
    epoch: u64,
    /// Shards the op logged to (identical across the records).
    participants: Vec<u32>,
    /// `(shard, log offset, record)` — the pieces found.
    pieces: Vec<(usize, u64, WalRecord)>,
}

impl Batch {
    /// Whether every participant's record survived.
    fn complete(&self) -> bool {
        self.participants.iter().all(|p| self.pieces.iter().any(|(s, _, _)| *s == *p as usize))
    }
}

/// Rebuilds the engine from `ck` and replays the surviving logs.
fn recover(
    engine: &mut Engine,
    dir: PathBuf,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    memory_budget: Option<u64>,
    ck: CheckpointFile,
) -> Result<(), StoreError> {
    // -- 1. Rebuild every shard from the checkpoint image. The
    //    directory is authoritative: the builder's seed shards (and
    //    shard count) are discarded. Slots are restored *cold* — each
    //    records its extent location and faults its payload on first
    //    access — so recovery is O(metadata), not O(data).
    let pager: Arc<PageCache> = Arc::new(PageCache::open(&dir, ck.shards.len(), memory_budget)?);
    let mut shards = Vec::with_capacity(ck.shards.len());
    for (i, st) in ck.shards.iter().enumerate() {
        if st.shard as usize != i {
            return Err(StoreError::Corrupt(format!(
                "checkpoint shard {} recorded at position {i}",
                st.shard
            )));
        }
        let mut db = GraphDb::with_shard(i as ShardId);
        db.attach_pager(Arc::clone(&pager) as Arc<dyn PayloadPager>);
        // The retention policy is a builder concern, not part of the
        // image: re-apply it so replayed inserts re-derive the same
        // expiry sweeps the crashed engine ran.
        db.set_retention(engine.retention);
        for slot in &st.slots {
            db.restore_slot_paged(
                slot.loc,
                slot.truth,
                slot.predicted,
                Epoch(slot.born),
                Epoch(slot.died),
            );
        }
        db.sync_epoch(Epoch(st.db_epoch));
        let store = ViewStore::restore(&db, &st.views);
        let live: FxHashMap<_, _> = st
            .live
            .iter()
            .map(|lv| {
                let algo = match lv.stream_fraction {
                    None => ViewAlgo::Approx,
                    Some(fraction) => ViewAlgo::Stream { fraction },
                };
                (lv.label, LiveView { id: ViewId(lv.view), algo, staleness: lv.staleness as usize })
            })
            .collect();
        shards.push(Shard {
            db: RwLock::new(db),
            store: Arc::new(store),
            live: Mutex::new(live),
            writer: Mutex::new(()),
        });
    }
    engine.shards = shards;
    engine.pager = Some(pager);
    engine.clock.store(ck.watermark, Ordering::SeqCst);

    // -- 2. Read the logs; group surviving records into batches.
    let n = engine.num_shards();
    let mut truncate_at: Vec<u64> = Vec::with_capacity(n); // per shard
    let mut file_lens: Vec<u64> = Vec::with_capacity(n);
    let mut batches: BTreeMap<u64, Batch> = BTreeMap::new();
    for s in 0..n {
        let (segments, valid_len, file_len) = gvex_store::read_wal(&wal_path(&dir, s))?;
        truncate_at.push(valid_len);
        file_lens.push(file_len);
        for WalSegment { offset, record } in segments {
            let b = batches.entry(record.batch).or_insert_with(|| Batch {
                epoch: record.epoch,
                participants: record.participants.clone(),
                pieces: Vec::new(),
            });
            if b.epoch != record.epoch || b.participants != record.participants {
                return Err(StoreError::Corrupt(format!(
                    "batch {} disagrees across shards on epoch/participants",
                    record.batch
                )));
            }
            if b.pieces.iter().any(|(ps, _, _)| *ps == s) {
                return Err(StoreError::Corrupt(format!(
                    "batch {} appears twice in shard {s}'s log",
                    record.batch
                )));
            }
            b.pieces.push((s, offset, record));
        }
    }

    // -- 3. Split complete from incomplete batches; plan truncation.
    let mut discarded = 0u64;
    for b in batches.values() {
        if b.complete() {
            continue;
        }
        discarded += 1;
        for (s, offset, _) in &b.pieces {
            truncate_at[*s] = truncate_at[*s].min(*offset);
        }
    }
    // A complete batch's record at or past a truncation point would be
    // destroyed by it — that breaks the "partial batches are log
    // tails" invariant the writer mutexes guarantee, so it can only
    // mean external corruption.
    for b in batches.values().filter(|b| b.complete()) {
        for (s, offset, rec) in &b.pieces {
            if *offset >= truncate_at[*s] {
                return Err(StoreError::Corrupt(format!(
                    "complete batch {} follows a partial batch in shard {s}'s log",
                    rec.batch
                )));
            }
        }
    }
    let mut bytes_truncated = 0u64;
    for s in 0..n {
        if truncate_at[s] < file_lens[s] {
            truncate_wal(&wal_path(&dir, s), truncate_at[s])?;
            bytes_truncated += file_lens[s] - truncate_at[s];
        }
    }

    // -- 4. Replay complete batches in ordinal order through the commit
    //    pipeline, with logging suppressed. Batches below the
    //    image's op sequence predate the checkpoint (a crash between
    //    the checkpoint rename and the log reset leaves them behind):
    //    their effects are already in the image, so they are skipped.
    engine.dur = Some(init_dur(
        &dir,
        n,
        fsync,
        checkpoint_every,
        ck.op_seq,
        Some(RecoveryReport {
            watermark: Epoch(ck.watermark),
            checkpoint_ops: ck.op_seq,
            ops_replayed: 0,
            batches_discarded: discarded,
            bytes_truncated,
        }),
    )?);
    let mut replayed = 0u64;
    let mut next_seq = ck.op_seq;
    for (ordinal, batch) in &batches {
        if !batch.complete() || *ordinal < ck.op_seq {
            continue;
        }
        engine.clock.fetch_max(batch.epoch.saturating_sub(1), Ordering::SeqCst);
        replay_batch(engine, batch)?;
        replayed += 1;
        next_seq = ordinal + 1;
    }

    // -- 5. Resume logging where the crashed engine left off.
    let dur = engine.dur.as_mut().expect("durability just attached");
    dur.op_seq.store(next_seq, Ordering::SeqCst);
    dur.ops_since_checkpoint.store(next_seq - ck.op_seq, Ordering::SeqCst);
    if let Some(r) = dur.report.as_mut() {
        r.ops_replayed = replayed;
    }
    Ok(())
}

/// Re-runs one complete batch through the engine's commit pipeline
/// with logging suppressed. An insert or removal is reassembled from
/// its per-shard records by `pos` into the batch as submitted; a view
/// op is its record.
fn replay_batch(engine: &Engine, batch: &Batch) -> Result<(), StoreError> {
    let seq = batch.pieces[0].2.batch;
    let mixed = || StoreError::Corrupt(format!("batch {seq} mixes op kinds across shards"));
    let mut expected = Vec::new();
    let op = match &batch.pieces[0].2.op {
        WalOp::Insert(_) => {
            let mut entries = Vec::new();
            for (_, _, rec) in &batch.pieces {
                let WalOp::Insert(es) = &rec.op else { return Err(mixed()) };
                entries.extend(es.iter().cloned());
            }
            entries.sort_unstable_by_key(|e| e.pos);
            expected = entries.iter().map(|e| e.id).collect();
            Op::Insert(entries.into_iter().map(|e| (e.graph, e.truth)).collect())
        }
        WalOp::Remove(_) => {
            let mut entries = Vec::new();
            for (_, _, rec) in &batch.pieces {
                let WalOp::Remove(es) = &rec.op else { return Err(mixed()) };
                entries.extend(es.iter().copied());
            }
            entries.sort_unstable_by_key(|e| e.pos);
            Op::Remove(entries.into_iter().map(|e| e.id).collect())
        }
        view => Op::View(view.clone()),
    };
    let ids = engine.commit(op, true).graphs;
    if ids != expected {
        return Err(StoreError::Corrupt(format!(
            "replayed insert batch {seq} allocated {ids:?}, log recorded {expected:?}"
        )));
    }
    Ok(())
}
