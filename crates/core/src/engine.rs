//! The unified GVEX engine: one facade owning the trained model, the
//! **mutable, versioned** graph database, the configuration, the
//! bounded per-graph context cache, and the epoch-aware
//! [`ViewStore`].
//!
//! The engine is the intended public entry point. Build it once from a
//! trained [`GcnModel`] and a classified [`GraphDb`], generate views
//! with [`Engine::explain_all`] / [`Engine::explain_label`] /
//! [`Engine::stream`] (each returns a [`ViewId`] handle), and answer
//! the paper's motivating questions with [`Engine::query`] — index
//! probes, not database scans.
//!
//! # Sharded architecture
//!
//! Since the sharded redesign the engine is a **router facade over N
//! label-partitioned shards** (default N = 1, which behaves exactly
//! like the previous monolithic engine). Each shard is a thin wrapper
//! over the previous engine's mutable state — its own [`GraphDb`]
//! (allocating ids with the shard's bits, see [`gvex_graph::shard`]),
//! its own [`ViewStore`], its own writer mutex and live-view registry —
//! while the model, configuration, context cache, snapshot pins, and
//! rayon pool stay shared:
//!
//! - **routing**: an arrival is classified and placed in the shard
//!   owning its predicted label (`label mod N`), so every label group
//!   `G^l` is fully shard-local and explanation/maintenance work for a
//!   label never crosses a shard boundary. Resolving any [`GraphId`] or
//!   [`ViewId`] back to its shard is O(1) from the id's shard bits;
//!   ids whose shard bits decode out of range resolve to `None`/skip,
//!   never to a panic or an aliased slot;
//! - **epochs**: a single atomic watermark clock stamps every commit.
//!   The clock only advances while the committing mutator holds the
//!   database write locks of every shard it stamps, so
//!   [`Engine::snapshot`] — which acquires every shard's read lock (in
//!   ascending shard order, as all multi-shard acquisition here) and
//!   then reads the clock — pins a frontier at which each shard's
//!   clone is complete: no commit with an epoch at or below the
//!   watermark can land after the snapshot observed it;
//! - **scatter-gather queries**: [`Engine::query`] plans which shards
//!   can contribute — a label-filtered query touches only the shards
//!   whose stores have seen that ground-truth label (one shard, when
//!   predictions match truths), a view-constrained query only the
//!   shards owning the listed views — takes the planned read guards up
//!   front for batch atomicity, fans the per-shard probes out on the
//!   engine pool, and merges postings and per-label counts
//!   ([`Engine::shard_probes`] counts shards touched, the scaling
//!   diagnostic);
//! - **multi-writer scaling**: mutators serialize per shard, not
//!   globally. Two inserts routed to different shards commit and
//!   maintain their label views fully in parallel — the first true
//!   multi-writer scaling in the engine (the previous design
//!   serialized every mutator on one global mutex).
//!
//! # Concurrent serving
//!
//! As before, **every method takes `&self`** and the engine is
//! `Send + Sync`: share it behind an [`Arc`] and serve queries from as
//! many threads as the hardware offers while views are being (re)built.
//! The read path ([`Engine::query`], [`Engine::snapshot`],
//! [`Engine::view_set`], accessors) takes only short shared locks; the
//! write path ([`Engine::insert_graphs`], [`Engine::remove_graphs`],
//! the explain family, [`Engine::compact`]) serializes on the affected
//! shards' writer mutexes, commits under brief exclusive sections, and
//! runs expensive explanation work on copy-on-write clones with no lock
//! held. Explanation fan-out runs on the engine-owned rayon pool
//! ([`EngineBuilder::threads`]).
//!
//! The database **mutates under readers**: inserts/removals advance the
//! watermark, incrementally extend the query indexes, and stream deltas
//! into registered label views (full recompute past the
//! [`EngineBuilder::staleness_bound`]); [`Engine::snapshot`] pins a
//! consistent cross-shard frontier that keeps answering while the
//! writers advance.
//!
//! # One commit pipeline
//!
//! The seven mutators ([`Engine::insert_graphs`],
//! [`Engine::remove_graphs`], [`Engine::explain_all`],
//! [`Engine::explain_label`], [`Engine::explain_subset`],
//! [`Engine::stream`], [`Engine::stream_subset`]) are one-line wrappers
//! over a single private `commit(op, replay)`. Its input is the op
//! itself: a view op is its [`WalOp`] variant, and an insert or removal
//! is its submitted batch. Every op takes the same steps: automatic
//! checkpoint → payload rebalance → route → writer mutexes (ascending
//! shard order) → apply → WAL append at the op's commit epoch. Durable
//! recovery hands each logged op back to the same path with `replay`
//! set, which suppresses the append and the automatic checkpoint, so
//! live execution and replay run the same code. One generator serves
//! every view op and the staleness-bound recompute: it explains a label
//! group, or a subset of it, with `ApproxGVEX` or `StreamGVEX`.
//!
//! ```no_run
//! use gvex_core::{query::ViewQuery, Config, Engine};
//! # let model = gvex_gnn::GcnModel::new(2, 8, 2, 3, 1);
//! # let db = gvex_graph::GraphDb::new();
//! # let arrival = gvex_graph::Graph::new(2);
//! let engine = Engine::builder(model, db)
//!     .config(Config::with_bounds(0, 8))
//!     .shards(2) // label-partitioned; default 1 = previous behavior
//!     .build();
//! let view = engine.explain_label(1);
//! let snap = engine.snapshot(); // readers pin the cross-shard frontier
//! let (id, epoch) = engine.insert_graph(arrival, None); // head advances
//! let p = engine.view(view).expect("just generated").patterns[0].clone();
//! let now = engine.query(&ViewQuery::pattern(p.clone()).label(0)); // sees the arrival
//! let then = snap.query(&ViewQuery::pattern(p).label(0)); // does not
//! ```

use crate::durable::{self, Durability, RecoveryReport};
use crate::query::{self, QueryResult, ViewQuery};
use crate::snapshot::{Pins, SnapShard};
use crate::store::{ViewId, ViewStore};
use crate::{
    parallel, ApproxGvex, Config, ContextCache, ExplanationView, GraphContext, Snapshot,
    StreamGvex, ViewSet,
};
use gvex_gnn::GcnModel;
use gvex_graph::{
    shard, window_expired, ClassLabel, Epoch, Graph, GraphDb, GraphId, PayloadPager,
    RetentionPolicy, ShardId,
};
use gvex_pager::{ExtentUsage, PageCache, PagerStats};
use gvex_pattern::vf2;
use gvex_store::{FsyncPolicy, InsertEntry, RemoveEntry, StoreError, WalOp, WalRecord};
use rayon::prelude::*;
use rayon::ThreadPool;
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    model: GcnModel,
    db: GraphDb,
    config: Config,
    context_capacity: usize,
    staleness_bound: usize,
    threads: usize,
    shards: usize,
    durable: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    memory_budget: Option<u64>,
    retention: RetentionPolicy,
}

impl EngineBuilder {
    /// Starts a builder from a trained model and a database whose label
    /// groups have been formed (predictions recorded).
    pub fn new(model: GcnModel, db: GraphDb) -> Self {
        Self {
            model,
            db,
            config: Config::default(),
            context_capacity: usize::MAX,
            staleness_bound: 32,
            threads: 0,
            shards: 1,
            durable: None,
            fsync: FsyncPolicy::Batch,
            checkpoint_every: 1024,
            memory_budget: None,
            retention: RetentionPolicy::KeepAll,
        }
    }

    /// Sets the configuration `C = (θ, r, {[b_l, u_l]})` (+ γ).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Caps the number of resident per-graph contexts; past the cap the
    /// [`ContextCache`] evicts in LRU order. Default: unbounded.
    pub fn context_capacity(mut self, capacity: usize) -> Self {
        self.context_capacity = capacity;
        self
    }

    /// How many consecutive incremental view updates a label view may
    /// accumulate before the next mutation triggers a full recompute of
    /// that view (the staleness bound of incremental view maintenance).
    /// Default: 32.
    pub fn staleness_bound(mut self, bound: usize) -> Self {
        self.staleness_bound = bound;
        self
    }

    /// Width of the engine-owned explainer pool (§A.7 / Fig 9e). `0`
    /// (the default) means "hardware parallelism". Every explanation
    /// fan-out — [`Engine::explain_all`] across label groups, per-graph
    /// parallelism within a group, batch-insert delta maintenance, the
    /// scatter phase of multi-shard queries — runs on this pool, and
    /// nested fan-outs share the pool's width budget; if the pool
    /// cannot be built (thread spawning failed) the engine degrades to
    /// the global pool instead of aborting (see
    /// [`parallel::explainer_pool`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of label-partitioned shards (see the module docs).
    /// Clamped to `1..=`[`shard::MAX`]. The default, 1, reproduces the
    /// previous monolithic engine exactly (shard-0 ids are numerically
    /// identical to unsharded ids). With `n > 1` the seed database is
    /// resharded at build time: each live graph moves to the shard
    /// owning its predicted label (ground truth standing in for
    /// never-classified graphs), so the routing invariant — label group
    /// `l` lives wholly in shard `l mod n` — holds from the start.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.clamp(1, shard::MAX);
        self
    }

    /// Makes the engine **durable**, rooted at `path`: every mutation
    /// appends to per-shard write-ahead logs inside its commit section,
    /// periodic [`Engine::checkpoint`]s snapshot the full state, and
    /// building over a directory that already holds state **recovers
    /// it** — the seed database passed to [`Engine::builder`] is then
    /// ignored (the directory is authoritative, including its shard
    /// count), so recover with an empty seed db. Without this call the
    /// engine is purely in-memory, exactly as before. See the
    /// crate-level durability docs in `gvex_store` and the README's
    /// "Durability" section.
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable = Some(path.into());
        self
    }

    /// Fsync policy of the write-ahead logs (durable engines only).
    /// Default: [`FsyncPolicy::Batch`] (group commit). Use
    /// [`FsyncPolicy::Always`] when an acknowledged op must survive any
    /// crash.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Caps resident graph-payload bytes: past the budget, engine entry
    /// points evict the coldest unpinned payloads to per-shard extent
    /// files and fault them back transparently on access — the
    /// larger-than-RAM mode (see the README's "Larger than RAM"
    /// section). Payloads observable by a pinned [`Snapshot`] are never
    /// evicted while the snapshot holds them resident, so the effective
    /// floor of eviction is the pin floor. Works on both in-memory
    /// engines (payloads spill to a scratch directory removed on drop)
    /// and durable ones (payloads spill to the durable directory's
    /// extents, which checkpoints also reference). Default: unlimited.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the retention policy — the **windowed streaming-ingest
    /// mode**. The default, [`RetentionPolicy::KeepAll`], keeps every
    /// graph until explicitly removed (the historical behavior, with
    /// zero overhead on any path). With a
    /// [`Window`](gvex_graph::Window), [`Engine::insert_graphs`]
    /// becomes the sweep step of a sliding window: after admitting the
    /// batch and streaming its view deltas, every live graph that fell
    /// off the window is expired in a follow-up commit — tombstoned,
    /// retired from the query indexes and registered label views
    /// (incremental retire-deltas, not full recomputes), dropped from
    /// the context cache, and its payload reclaimed by the same
    /// pin-floor-clamped compaction that serves explicit removals. The
    /// engine's memory is then bounded by the window footprint, not the
    /// stream length; on durable engines checkpoints additionally
    /// truncate the WALs and collect unreferenced extent generations,
    /// bounding disk too (see the README's "Streaming ingest" section).
    ///
    /// Expiry is derived deterministically from slot metadata, so
    /// durable replay reproduces it without logging expiries. A pinned
    /// [`Snapshot`] keeps reading its frontier byte-identically:
    /// expired-but-pinned payloads stay addressable (spilled to
    /// extents, not resident) until the pin drops.
    pub fn retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    /// Automatic checkpoint cadence (durable engines only): after this
    /// many logged ops, the next mutation entry point checkpoints and
    /// resets the logs before doing its work. `0` disables automatic
    /// checkpoints ([`Engine::checkpoint`] remains available). Default:
    /// 1024.
    pub fn checkpoint_every(mut self, ops: u64) -> Self {
        self.checkpoint_every = ops;
        self
    }

    /// Builds the engine (see [`EngineBuilder::try_build`]).
    ///
    /// # Panics
    /// Panics when the durable directory cannot be initialized or
    /// recovered; [`EngineBuilder::try_build`] is the fallible path.
    /// In-memory builds (no [`EngineBuilder::durable`]) never fail.
    pub fn build(self) -> Engine {
        self.try_build().expect("durable engine directory must initialize or recover")
    }

    /// Builds the engine: constructs both algorithms from the
    /// configuration, the (bounded) context cache, the explainer pool,
    /// and the shard set — each with an empty view store indexed over
    /// its partition of the database. For durable builds, then either
    /// adopts the directory's recovered state (checkpoint + WAL replay)
    /// or writes the seed state as the initial checkpoint.
    pub fn try_build(mut self) -> Result<Engine, StoreError> {
        let durable = self.durable.take();
        let fsync = self.fsync;
        let checkpoint_every = self.checkpoint_every;
        let memory_budget = self.memory_budget;
        let approx = ApproxGvex::new(self.config.clone());
        let stream = StreamGvex::new(self.config.clone());
        let contexts =
            Arc::new(ContextCache::with_capacity(self.config.clone(), self.context_capacity));
        let pool = parallel::explainer_pool(self.threads).map(Arc::new);
        let clock = AtomicU64::new(self.db.epoch().0);
        let dbs: Vec<GraphDb> = if self.shards == 1 {
            // Single shard: adopt the seed database unchanged
            // (tombstones, epochs, and ids all preserved).
            vec![self.db]
        } else {
            let mut dbs: Vec<GraphDb> =
                (0..self.shards).map(|s| GraphDb::with_shard(s as ShardId)).collect();
            for db in &mut dbs {
                db.sync_epoch(self.db.epoch());
            }
            for (id, g, _, _) in self.db.iter_all_payloads() {
                if !self.db.contains(id) {
                    continue; // no snapshot can pin a pre-build tombstone
                }
                let predicted = self.db.predicted(id);
                let owner = predicted.unwrap_or_else(|| self.db.truth(id)) as usize % self.shards;
                let nid = dbs[owner].push(g.clone(), self.db.truth(id));
                if let Some(l) = predicted {
                    dbs[owner].set_predicted(nid, l);
                }
            }
            dbs
        };
        let shards = dbs
            .into_iter()
            .map(|mut db| {
                db.set_retention(self.retention);
                Shard {
                    store: Arc::new(ViewStore::new(&db)),
                    db: RwLock::new(db),
                    live: Mutex::new(FxHashMap::default()),
                    writer: Mutex::new(()),
                }
            })
            .collect();
        let mut engine = Engine {
            model: self.model,
            config: self.config,
            approx,
            stream,
            contexts,
            pins: Arc::new(Pins::default()),
            pool,
            shards,
            clock,
            probes: AtomicU64::new(0),
            staleness_bound: self.staleness_bound,
            retention: self.retention,
            expired_total: AtomicU64::new(0),
            pager: None,
            dur: None,
        };
        if let Some(dir) = durable {
            // Durable engines always page: checkpoints reference extent
            // locations instead of embedding payloads, so recovery can
            // open lazily. The budget (if any) additionally enables
            // eviction.
            durable::attach(&mut engine, dir, fsync, checkpoint_every, memory_budget)?;
        } else if memory_budget.is_some() {
            // In-memory engine with a budget: spill to a scratch
            // directory that lives exactly as long as the page cache.
            let pager = Arc::new(PageCache::scratch(engine.shards.len(), memory_budget)?);
            engine.attach_pager(pager);
        }
        Ok(engine)
    }
}

/// Point-in-time retention-window gauges, as returned by
/// [`Engine::window_stats`] and exposed by the serving `/stats`
/// endpoint: the policy, the window floor (the highest epoch at or
/// below which no live graph was born — everything there has expired
/// or was removed), the live footprint, and the cumulative expiry
/// count.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// The engine's retention policy.
    pub policy: RetentionPolicy,
    /// Highest epoch with no surviving live graph born at or below it.
    pub floor: Epoch,
    /// Live graphs currently inside the window.
    pub live_graphs: u64,
    /// Approximate payload bytes of those graphs (the window
    /// footprint).
    pub live_bytes: u64,
    /// Graphs expired by the window since this process started (not
    /// persisted across recovery).
    pub expired_total: u64,
}

/// Which algorithm produced (and full-recomputes) a maintained view.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ViewAlgo {
    /// `ApproxGVEX` (Algorithm 1) over the whole label group.
    Approx,
    /// `StreamGVEX` (Algorithm 3) with this stream-prefix fraction.
    Stream { fraction: f64 },
}

/// Maintenance registration of one label's current view. `id` is the
/// owning shard's **store-local** view id (the global handle adds the
/// shard bits at the API boundary).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveView {
    pub(crate) id: ViewId,
    pub(crate) algo: ViewAlgo,
    /// Incremental updates applied since the last full (re)compute.
    pub(crate) staleness: usize,
}

/// One label-partitioned shard: the previous monolithic engine's
/// mutable state, minus everything that stays shared (model, config,
/// contexts, pins, pool, watermark clock).
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) db: RwLock<GraphDb>,
    pub(crate) store: Arc<ViewStore>,
    /// Label → the view incremental maintenance keeps current
    /// (labels routing to this shard only).
    pub(crate) live: Mutex<FxHashMap<ClassLabel, LiveView>>,
    /// Serializes this shard's mutators: held across a whole insert /
    /// remove / explain touching the shard, so commit sections and
    /// maintenance never interleave *within* a shard, while mutators of
    /// other shards — and readers everywhere — proceed.
    pub(crate) writer: Mutex<()>,
}

/// Shared read guard over one shard's database, handed out by
/// [`Engine::db`]. Dereferences to [`GraphDb`], so existing
/// `engine.db().label_group(l)`-style call sites keep working; pass
/// `&engine.db()` where a `&GraphDb` parameter is expected.
///
/// While the guard is alive that shard's writers cannot commit (it is a
/// read lock). Treat the guard as a short borrow for direct [`GraphDb`]
/// access only: drop it before calling **any** other engine method from
/// the same thread. A write method would deadlock against your own
/// guard directly, and even a read method ([`Engine::query`],
/// [`Engine::snapshot`], [`Engine::head`], …) can deadlock, because
/// `std::sync::RwLock` read locks are not reentrant — once a writer is
/// queued behind your guard, your second read acquisition queues behind
/// *that writer*.
#[derive(Debug)]
pub struct DbGuard<'a>(RwLockReadGuard<'a, GraphDb>);

impl Deref for DbGuard<'_> {
    type Target = GraphDb;

    fn deref(&self) -> &GraphDb {
        &self.0
    }
}

/// The unified explanation engine (see module docs). `Send + Sync`:
/// share it behind an [`Arc`] — queries and snapshots run concurrently
/// with mutation and view (re)builds, and mutators of different shards
/// run concurrently with each other.
#[derive(Debug)]
pub struct Engine {
    model: GcnModel,
    config: Config,
    approx: ApproxGvex,
    stream: StreamGvex,
    contexts: Arc<ContextCache>,
    pins: Arc<Pins>,
    /// Engine-owned explainer pool; `None` falls back to the global pool.
    pool: Option<Arc<ThreadPool>>,
    pub(crate) shards: Vec<Shard>,
    /// The global watermark clock. Advanced only by [`Engine::tick`],
    /// under the database write locks of every shard the new epoch
    /// stamps — the invariant [`Engine::snapshot`]'s consistency rests
    /// on (module docs). (Recovery, holding `&mut Engine`, stores and
    /// `fetch_max`es it directly — no concurrent reader exists then.)
    pub(crate) clock: AtomicU64,
    /// Cumulative count of shard stores consulted by [`Engine::query`]
    /// — the scatter width diagnostic ([`Engine::shard_probes`]).
    probes: AtomicU64,
    staleness_bound: usize,
    /// The retention policy every shard database was built with (see
    /// [`EngineBuilder::retention`]); recovery re-applies it to the
    /// rebuilt shard databases.
    pub(crate) retention: RetentionPolicy,
    /// Graphs expired by the retention window over this process's
    /// lifetime (not persisted; a recovered engine restarts at 0).
    expired_total: AtomicU64,
    /// The page cache, when this engine pages payloads to extents:
    /// always present on durable engines, present on in-memory engines
    /// when [`EngineBuilder::memory_budget`] was set, `None` otherwise.
    /// Shared (as the [`PayloadPager`]) with every shard database.
    pub(crate) pager: Option<Arc<PageCache>>,
    /// Durability state (`None` = in-memory engine): per-shard WAL
    /// writers, checkpoint cadence, and the recovery report of the
    /// build that attached it. See [`crate::durable`].
    pub(crate) dur: Option<Durability>,
}

impl Engine {
    /// Starts an [`EngineBuilder`].
    pub fn builder(model: GcnModel, db: GraphDb) -> EngineBuilder {
        EngineBuilder::new(model, db)
    }

    /// The trained classifier.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// Shared read access to **shard 0's** graph database at the head
    /// epoch — on a default single-shard engine, the whole database.
    /// On a sharded engine use [`Engine::snapshot`] (or
    /// [`Engine::query`]) for cross-shard reads; this accessor keeps
    /// single-shard call sites source-compatible. See [`DbGuard`] for
    /// the locking contract.
    pub fn db(&self) -> DbGuard<'_> {
        DbGuard(self.shards[0].db.read().expect("db lock"))
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// **Shard 0's** view store (views + query indexes) — on a default
    /// single-shard engine, the whole store. Sharded engines resolve
    /// global view handles with [`Engine::view`] /
    /// [`Engine::query`] instead.
    pub fn store(&self) -> &ViewStore {
        &self.shards[0].store
    }

    /// Number of label-partitioned shards (1 = unsharded behavior).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative number of shard stores consulted by [`Engine::query`]
    /// since the engine was built. A label-filtered query on a sharded
    /// engine should advance this by 1 (its owning shard), an
    /// unconstrained query by [`Engine::num_shards`] — the probe-count
    /// scaling diagnostic the benchmarks gate on.
    pub fn shard_probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Width of the engine-owned explainer pool (0 when the engine fell
    /// back to the global pool).
    pub fn pool_width(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.current_num_threads())
    }

    /// The head epoch — the watermark: every committed mutation is
    /// visible at or before this stamp.
    pub fn head(&self) -> Epoch {
        Epoch(self.clock.load(Ordering::SeqCst))
    }

    /// Number of currently pinned snapshots.
    pub fn pinned_snapshots(&self) -> usize {
        self.pins.len()
    }

    /// Page-cache counters — resident/peak payload bytes, faults, hits,
    /// evictions, spill traffic — or `None` when the engine neither
    /// pages nor has a budget (in-memory, no
    /// [`EngineBuilder::memory_budget`]).
    pub fn pager_stats(&self) -> Option<PagerStats> {
        Some(self.pager.as_ref()?.stats())
    }

    /// The retention policy the engine was built with.
    pub fn retention_policy(&self) -> RetentionPolicy {
        self.retention
    }

    /// The retention window gauges (meaningful on any engine; the
    /// expiry counter only moves under a window): floor epoch, live
    /// graph/byte footprint, total expired. Metadata-only — never
    /// faults a payload.
    pub fn window_stats(&self) -> WindowStats {
        let mut live_graphs = 0u64;
        let mut live_bytes = 0u64;
        let mut min_born: Option<Epoch> = None;
        for sh in &self.shards {
            let db = sh.db.read().expect("db lock");
            for (_, born, bytes) in db.live_window_meta() {
                live_graphs += 1;
                live_bytes += bytes;
                min_born = Some(min_born.map_or(born, |m: Epoch| m.min(born)));
            }
        }
        // The floor is derived, not stored, so it survives recovery
        // for free: the highest epoch at or below which no live graph
        // was born (the whole head when the window is empty).
        let floor = min_born.map_or(self.head(), |b| Epoch(b.0.saturating_sub(1)));
        WindowStats {
            policy: self.retention,
            floor,
            live_graphs,
            live_bytes,
            expired_total: self.expired_total.load(Ordering::Relaxed),
        }
    }

    /// Per-extent space accounting — each generation file's total, live
    /// (still referenced by some slot), and dead bytes — or `None` when
    /// the engine does not page. The space-amplification gauge behind
    /// the serving `/stats` pager section and the input extent GC works
    /// from.
    pub fn extent_usage(&self) -> Option<Vec<ExtentUsage>> {
        let pager = self.pager.as_ref()?;
        let mut refs: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for sh in &self.shards {
            let db = sh.db.read().expect("db lock");
            for loc in db.extent_refs() {
                *refs.entry(loc.extent).or_insert(0) += loc.len as u64;
            }
        }
        Some(pager.usage(&refs))
    }

    /// Wires `pager` into every shard database (tokenizing already
    /// resident payloads) and records it on the engine. Build-time only:
    /// requires exclusive access, before the engine is shared.
    pub(crate) fn attach_pager(&mut self, pager: Arc<PageCache>) {
        for sh in &mut self.shards {
            let db = sh.db.get_mut().expect("db lock");
            db.attach_pager(Arc::clone(&pager) as Arc<dyn PayloadPager>);
        }
        self.pager = Some(pager);
    }

    /// Brings resident payload bytes back under the memory budget by
    /// evicting the globally coldest unpinned payloads (clock-LRU over
    /// every shard). Called at engine entry points before any guard is
    /// taken; a single relaxed atomic load when the cache is under
    /// budget (or there is no budget). Eviction re-checks pins under
    /// the shard write lock, so payloads held by snapshots or
    /// outstanding [`Engine::context`] handles are skipped — the pin
    /// floor is the eviction floor.
    fn rebalance(&self) {
        let Some(pager) = self.pager.as_ref() else { return };
        if !pager.over_budget() {
            return;
        }
        let Some(budget) = pager.budget() else { return };
        // Candidate gathering is a metadata walk under shared locks.
        let mut cands: Vec<(usize, gvex_graph::EvictCandidate)> = Vec::new();
        for (s, sh) in self.shards.iter().enumerate() {
            let db = sh.db.read().expect("db lock");
            cands.extend(db.evict_candidates().into_iter().map(|c| (s, c)));
        }
        cands.sort_unstable_by_key(|(_, c)| c.touch);
        // Coldest prefix projected to bring residency back under budget.
        let mut excess = pager.stats().resident_bytes.saturating_sub(budget);
        let mut victims: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
        for (s, c) in cands {
            if excess == 0 {
                break;
            }
            excess = excess.saturating_sub(c.bytes);
            victims.entry(s).or_default().push(c.slot);
        }
        // Evict per shard under brief exclusive sections (ascending
        // shard order). Flipping Resident -> Paged never changes
        // observable content, so no epoch ticks and no writer mutex.
        for s in sorted_shards(victims.keys().copied()) {
            let slots = victims.remove(&s).expect("shard key");
            let mut db = self.shards[s].db.write().expect("db lock");
            db.evict_slots(&slots);
        }
    }

    /// The shard owning `label`'s group.
    fn route(&self, label: ClassLabel) -> usize {
        label as usize % self.shards.len()
    }

    /// The shard owning a shard-bit-carrying id (graph or view), or
    /// `None` when the bits decode out of this engine's range — the
    /// router never indexes out of bounds on a malformed id.
    fn shard_of(&self, raw: u32) -> Option<usize> {
        let s = shard::of(raw) as usize;
        (s < self.shards.len()).then_some(s)
    }

    /// Allocates the next watermark epoch.
    ///
    /// Callers must hold the database write locks of every shard whose
    /// state the returned epoch will stamp, and must commit that state
    /// before releasing them — otherwise a concurrent
    /// [`Engine::snapshot`] could pin a watermark at or above the
    /// returned epoch without seeing the commit.
    fn tick(&self) -> Epoch {
        Epoch(self.clock.fetch_add(1, Ordering::SeqCst) + 1)
    }

    /// The memoized per-graph context for `id` (built on first access),
    /// or `None` when `id` is removed, compacted, never allocated, or
    /// carries out-of-range shard bits.
    pub fn context(&self, id: GraphId) -> Option<Arc<GraphContext>> {
        self.rebalance();
        let sh = &self.shards[self.shard_of(id)?];
        // Take the payload handle under the read lock, build outside it:
        // context construction is the expensive per-graph precomputation
        // and must not block writers.
        let g = sh.db.read().expect("db lock").graph_arc(id)?;
        let ctx = self.contexts.get(&self.model, &g, id);
        // Re-check liveness after the (lock-free) build: a concurrent
        // `remove_graphs` may have evicted `id`'s cache entry between
        // our payload lookup and the `get` above, in which case the
        // entry we just (re)inserted would outlive the graph forever —
        // ids are never reused. Whichever of the two eviction attempts
        // runs last wins, so the dead entry cannot leak.
        if !sh.db.read().expect("db lock").contains(id) {
            self.contexts.remove(&[id]);
            return None;
        }
        Some(ctx)
    }

    /// The shared context cache.
    pub fn contexts(&self) -> &ContextCache {
        &self.contexts
    }

    // ---- snapshots & mutation -----------------------------------------

    /// Pins the watermark and returns a consistent cross-shard read
    /// view. All shard read locks are taken (ascending) before the
    /// watermark is read, so every commit stamped at or below the
    /// pinned epoch is contained in the snapshot's clones — the
    /// module-docs frontier invariant. The snapshot is `Send + Sync`:
    /// move it to a reader thread while this engine keeps mutating. See
    /// [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.rebalance();
        let guards: Vec<RwLockReadGuard<'_, GraphDb>> =
            self.shards.iter().map(|s| s.db.read().expect("db lock")).collect();
        let w = self.head();
        let snap_shards: Vec<SnapShard> = guards
            .iter()
            .zip(&self.shards)
            .map(|(g, s)| {
                let mut db = (**g).clone();
                db.sync_epoch(w);
                SnapShard { db, store: Arc::clone(&s.store) }
            })
            .collect();
        // Pin while the read guards are still held: the compaction
        // floor is computed under the write locks these guards exclude,
        // so a concurrent compact either sees this pin or completes
        // before the pinned epoch existed.
        Snapshot::pin(w, snap_shards, Arc::clone(&self.pins))
    }

    /// Inserts one graph at a fresh epoch: allocates its [`GraphId`]
    /// (in the shard owning its predicted label), runs model inference
    /// to place it in its label group (`truth: None` uses the
    /// prediction as the ground-truth stand-in), incrementally extends
    /// the query indexes, and — when the label's view is registered for
    /// maintenance — applies the arrival as a streaming delta to that
    /// view. Returns the id and the epoch the batch committed at (view
    /// maintenance then commits at its own follow-up epoch, so
    /// [`Engine::head`] may be one ahead).
    pub fn insert_graph(&self, g: Graph, truth: Option<ClassLabel>) -> (GraphId, Epoch) {
        let (ids, epoch) = self.insert_graphs(vec![(g, truth)]);
        (ids[0], epoch)
    }

    /// Batch insert: all graphs of the batch commit at one fresh epoch
    /// (the returned value), and each affected label view gains a single
    /// new version covering the whole batch, committed at a follow-up
    /// epoch once the deltas have streamed — so a snapshot pinned while
    /// maintenance was in flight keeps its repeatable reads. Model
    /// inference and pattern-index matching fan out on the engine pool
    /// before any lock; only the database/index commit itself runs under
    /// the affected shards' exclusive locks, so concurrent readers
    /// observe either the whole batch or none of it. Batches routed to
    /// disjoint shards proceed fully in parallel.
    pub fn insert_graphs(&self, batch: Vec<(Graph, Option<ClassLabel>)>) -> (Vec<GraphId>, Epoch) {
        let done = self.commit(Op::Insert(batch), false);
        (done.graphs, done.epoch)
    }

    /// Removes graphs at a fresh epoch: tombstones their database slots
    /// and index postings, drops their cached contexts, updates each
    /// affected label view, and compacts state no pinned snapshot can
    /// still observe. Unknown, already-removed, or malformed
    /// (out-of-range shard bits) ids are skipped. Returns the epoch the
    /// removal batch committed at (as with [`Engine::insert_graphs`],
    /// view maintenance then commits at its own follow-up epoch, so
    /// [`Engine::head`] may be one ahead).
    pub fn remove_graphs(&self, ids: &[GraphId]) -> Epoch {
        self.commit(Op::Remove(ids.to_vec()), false).epoch
    }

    /// Generates one view per label group of the database (the EVG
    /// problem, §3.2) and stores them; returns the handles in label
    /// order. Each view is registered for incremental maintenance.
    ///
    /// Label groups fan out on the engine pool (§A.7): every group is
    /// explained in parallel — against its owning shard, with per-graph
    /// parallelism within each group — and the views commit in label
    /// order within each shard, so handles and view contents are
    /// identical to explaining the labels one by one. Queries from
    /// other threads keep being served while generation is in flight.
    pub fn explain_all(&self) -> Vec<ViewId> {
        self.commit(Op::View(WalOp::ExplainAll), false).views
    }

    /// Generates the explanation view for `label`'s whole label group
    /// with `ApproxGVEX` (Algorithm 1), using cached contexts, inserts
    /// it into the owning shard's store, and registers it for
    /// incremental maintenance: later [`Engine::insert_graph`] /
    /// [`Engine::remove_graphs`] calls keep it current. Only the owning
    /// shard's writer serializes — explanations of labels owned by
    /// other shards proceed in parallel.
    pub fn explain_label(&self, label: ClassLabel) -> ViewId {
        self.commit(Op::View(WalOp::ExplainLabel(label)), false).views[0]
    }

    /// Like [`Engine::explain_label`] restricted to `ids` (e.g. a test
    /// split). Subset views are **not** registered for incremental
    /// maintenance — maintenance tracks whole label groups. Stale,
    /// removed, compacted, or foreign-shard ids in the subset are
    /// skipped (not a panic): the view covers whatever the subset still
    /// names within `label`'s owning shard.
    pub fn explain_subset(&self, label: ClassLabel, ids: &[GraphId]) -> ViewId {
        self.commit(Op::View(WalOp::ExplainSubset { label, ids: ids.to_vec() }), false).views[0]
    }

    /// Generates `label`'s view with `StreamGVEX` (Algorithm 3),
    /// processing a prefix `fraction ∈ (0, 1]` of each node stream (the
    /// anytime mode), inserts it into the owning shard's store, and
    /// registers it for incremental maintenance at the same fraction.
    pub fn stream(&self, label: ClassLabel, fraction: f64) -> ViewId {
        self.commit(Op::View(WalOp::Stream { label, fraction }), false).views[0]
    }

    /// Like [`Engine::stream`] restricted to `ids` (not registered for
    /// maintenance). Stale or foreign-shard ids are skipped, as in
    /// [`Engine::explain_subset`].
    pub fn stream_subset(&self, label: ClassLabel, ids: &[GraphId], fraction: f64) -> ViewId {
        let op = WalOp::StreamSubset { label, ids: ids.to_vec(), fraction };
        self.commit(Op::View(op), false).views[0]
    }

    // ---- the commit pipeline ------------------------------------------

    /// Runs one mutation — live, or re-run by recovery with `replay` set
    /// — through the pipeline every mutator shares: automatic
    /// checkpoint and payload rebalance before any guard is taken, then
    /// routing to the shards the op touches, their writer mutexes
    /// (ascending), the apply, and the WAL append at the op's commit
    /// epoch. `replay` suppresses the append and the automatic
    /// checkpoint: a replayed op is already in the log. An empty insert
    /// or a removal naming no shard of this engine commits nothing and
    /// reports the head.
    pub(crate) fn commit(&self, op: Op, replay: bool) -> Committed {
        let noop = match &op {
            Op::Insert(batch) => batch.is_empty(),
            Op::Remove(ids) => ids.iter().all(|&id| self.shard_of(id).is_none()),
            Op::View(_) => false,
        };
        if noop {
            return Committed::at(self.head());
        }
        if !replay {
            self.maybe_checkpoint();
        }
        self.rebalance();
        match op {
            Op::Insert(batch) => self.commit_insert(batch, replay),
            Op::Remove(ids) => self.commit_remove(&ids, replay),
            Op::View(op) => self.commit_view(op, replay),
        }
    }

    /// The insert arm of [`Engine::commit`] (see
    /// [`Engine::insert_graphs`]). Under a retention window the expiry
    /// sweep follows the commit.
    fn commit_insert(&self, batch: Vec<(Graph, Option<ClassLabel>)>, replay: bool) -> Committed {
        // Classification and pattern-index matching of each arrival are
        // pre-computed here, in parallel, against the immutable model
        // and the owning shard's append-only index entries: entries
        // memoized after this point are re-checked by `commit_arrival`.
        let prep: Vec<(ClassLabel, crate::store::ArrivalMatch)> = self.on_pool(|| {
            batch
                .par_iter()
                .map(|(g, _)| {
                    let l = self.model.predict(g);
                    (l, self.shards[self.route(l)].store.match_arrival(g))
                })
                .collect()
        });
        let affected = sorted_shards(prep.iter().map(|(l, _)| self.route(*l)));
        // Windowed mode locks every shard's writer, not just the routed
        // ones: the expiry sweep that follows this commit may tombstone
        // graphs in any shard, and its cross-shard candidate selection
        // must not interleave with other mutators.
        let locked =
            if self.windowed() { sorted_shards(0..self.shards.len()) } else { affected.clone() };
        let _w = self.writer_guards(&locked);
        let mut ids = Vec::with_capacity(batch.len());
        let mut work: FxHashMap<usize, FxHashMap<ClassLabel, Vec<GraphId>>> = FxHashMap::default();
        // Commit section: database rows and index postings change
        // together under the exclusive locks, so a concurrent reader
        // never sees an arrival whose postings are missing. The locks
        // cover only the splices — the VF2 matching already happened.
        let (epoch, clones) = {
            let mut guards = self.db_write_guards(&affected);
            let seq = self.wal_seq(replay);
            let epoch = self.stamp(&mut guards);
            let mut logged: BTreeMap<usize, Vec<InsertEntry>> = BTreeMap::new();
            for (i, ((g, truth), (predicted, matched))) in batch.into_iter().zip(prep).enumerate() {
                let s = self.route(predicted);
                let pos = affected.binary_search(&s).expect("shard in affected set");
                let db = &mut *guards[pos].1;
                let id = db.push(g, truth.unwrap_or(predicted));
                db.set_predicted(id, predicted);
                self.shards[s].store.commit_arrival(db, id, epoch, &matched);
                work.entry(s).or_default().entry(predicted).or_default().push(id);
                if seq.is_some() {
                    logged.entry(s).or_default().push(InsertEntry {
                        pos: i as u32,
                        id,
                        truth,
                        graph: db.get_graph(id).expect("just pushed").clone(),
                    });
                }
                ids.push(id);
            }
            // Log while the write guards are held: the op is durable
            // (per the fsync policy) before any reader can observe it.
            if let Some(seq) = seq {
                let records = logged.into_iter().map(|(s, es)| (s, WalOp::Insert(es))).collect();
                self.log(seq, epoch, records);
            }
            (epoch, clones_of(&guards))
        };
        // Maintenance runs on the commit-epoch clones with no lock
        // held: readers keep answering at the head while deltas stream.
        self.maintain_shards(
            &clones,
            work.into_iter()
                .map(|(s, by_label)| (s, sorted_label_work(by_label, FxHashMap::default())))
                .collect(),
        );
        if self.windowed() {
            // The sweep step: admit arrivals (above), stream their view
            // deltas (above), then expire what fell off the window. The
            // maintenance clones share every payload Arc and must be
            // gone first, or the sweep's compaction could never spill a
            // tombstoned payload.
            drop(clones);
            self.sweep_window();
        }
        Committed { epoch, graphs: ids, views: Vec::new() }
    }

    /// The remove arm of [`Engine::commit`] (see
    /// [`Engine::remove_graphs`]).
    fn commit_remove(&self, ids: &[GraphId], replay: bool) -> Committed {
        let affected = sorted_shards(ids.iter().filter_map(|&id| self.shard_of(id)));
        let _w = self.writer_guards(&affected);
        let (epoch, retired, clones) = {
            let mut guards = self.db_write_guards(&affected);
            let seq = self.wal_seq(replay);
            let epoch = self.stamp(&mut guards);
            let retired = self.retire(&mut guards, ids, epoch);
            // Log *all* routed ids, stale ones included: replay must
            // re-submit the batch as it was submitted so the epoch
            // accounting (which ids were skipped) reproduces exactly.
            if let Some(seq) = seq {
                let mut logged: BTreeMap<usize, Vec<RemoveEntry>> = BTreeMap::new();
                for (i, &id) in ids.iter().enumerate() {
                    if let Some(s) = self.shard_of(id) {
                        logged.entry(s).or_default().push(RemoveEntry { pos: i as u32, id });
                    }
                }
                let records = logged.into_iter().map(|(s, es)| (s, WalOp::Remove(es))).collect();
                self.log(seq, epoch, records);
            }
            (epoch, retired, clones_of(&guards))
        };
        self.finish_retire(clones, retired);
        Committed::at(epoch)
    }

    /// The view arm of [`Engine::commit`]: one of the five view ops.
    /// Each label's view is generated on a copy-on-write clone of its
    /// owning shard with no lock held (labels fan out on the engine
    /// pool), then the views commit in label order within each shard,
    /// in ascending shard order, each shard's batch at a fresh epoch.
    /// Whole-group views are registered for incremental maintenance;
    /// subset views are not. One record, on the owning shard (shard 0
    /// for `ExplainAll`, which recomputes every label), replays the
    /// whole op.
    fn commit_view(&self, op: WalOp, replay: bool) -> Committed {
        let (label, subset, algo) = match &op {
            WalOp::ExplainAll => (None, None, ViewAlgo::Approx),
            WalOp::ExplainLabel(label) => (Some(*label), None, ViewAlgo::Approx),
            WalOp::Stream { label, fraction } => {
                (Some(*label), None, ViewAlgo::Stream { fraction: *fraction })
            }
            WalOp::ExplainSubset { label, ids } => (Some(*label), Some(&ids[..]), ViewAlgo::Approx),
            WalOp::StreamSubset { label, ids, fraction } => {
                (Some(*label), Some(&ids[..]), ViewAlgo::Stream { fraction: *fraction })
            }
            WalOp::Insert(_) | WalOp::Remove(_) => unreachable!("rows commit as Op::Insert/Remove"),
        };
        let locked = match label {
            Some(l) => vec![self.route(l)],
            None => sorted_shards(0..self.shards.len()),
        };
        let _w = self.writer_guards(&locked);
        let clones: Vec<(usize, GraphDb)> =
            locked.iter().map(|&s| (s, self.read_clone(s))).collect();
        let labels: Vec<ClassLabel> = match label {
            Some(l) => vec![l],
            None => {
                let mut all: Vec<ClassLabel> =
                    clones.iter().flat_map(|(_, db)| db.labels()).collect();
                all.sort_unstable();
                all.dedup();
                all
            }
        };
        let views: Vec<ExplanationView> = self.on_pool(|| {
            labels
                .par_iter()
                .map(|&l| self.generate(clone_of(&clones, self.route(l)), l, subset, algo))
                .collect()
        });
        let mut per_shard: FxHashMap<usize, Vec<(ClassLabel, ExplanationView)>> =
            FxHashMap::default();
        for (label, view) in labels.iter().copied().zip(views) {
            per_shard.entry(self.route(label)).or_default().push((label, view));
        }
        let mut handles: FxHashMap<ClassLabel, ViewId> = FxHashMap::default();
        let mut first_epoch: Option<Epoch> = None;
        for s in sorted_shards(per_shard.keys().copied()) {
            let items = per_shard.remove(&s).expect("shard key");
            let e = self.commit_shard_views(s, |db, store| {
                for (label, view) in items {
                    let local = store.insert(view, db);
                    if subset.is_none() {
                        let lv = LiveView { id: local, algo, staleness: 0 };
                        self.shards[s].live.lock().expect("live view lock").insert(label, lv);
                    }
                    handles.insert(label, ViewId::sharded(s as ShardId, local));
                }
            });
            first_epoch.get_or_insert(e);
        }
        // Nothing commits when `ExplainAll` finds no labels, so nothing
        // is logged either. `ExplainAll` holds every writer mutex, so
        // the clock cannot move between its first commit and this
        // append.
        let Some(epoch) = first_epoch else { return Committed::at(self.head()) };
        if let Some(seq) = self.wal_seq(replay) {
            self.log(seq, epoch, vec![(label.map_or(0, |l| self.route(l)), op)]);
        }
        Committed { epoch, graphs: Vec::new(), views: labels.iter().map(|l| handles[l]).collect() }
    }

    /// Generates `label`'s view over `db` with `algo`: over the whole
    /// label group, or over `subset` (stale, removed, compacted, or
    /// foreign-shard ids are skipped). The single generator behind every
    /// view op and the staleness-bound recompute; per-graph work fans
    /// out on the calling pool.
    fn generate(
        &self,
        db: &GraphDb,
        label: ClassLabel,
        subset: Option<&[GraphId]>,
        algo: ViewAlgo,
    ) -> ExplanationView {
        let ids = subset.map_or_else(|| Cow::Owned(db.label_group(label)), Cow::Borrowed);
        match algo {
            ViewAlgo::Approx => parallel::explain_label_parallel(
                &self.approx,
                &self.model,
                db,
                label,
                &ids,
                None,
                &self.contexts,
            ),
            ViewAlgo::Stream { fraction } => self.stream.explain_label_cached(
                &self.model,
                db,
                label,
                &ids,
                fraction,
                &self.contexts,
            ),
        }
    }

    /// Ticks a fresh watermark epoch and stamps it on every guarded
    /// shard database (the [`Engine::tick`] contract: `guards` are the
    /// write locks of every shard the epoch stamps).
    fn stamp(&self, guards: &mut [(usize, RwLockWriteGuard<'_, GraphDb>)]) -> Epoch {
        let epoch = self.tick();
        for (_, db) in guards.iter_mut() {
            db.sync_epoch(epoch);
        }
        epoch
    }

    /// Tombstones every id of `ids` still live in its shard, in order,
    /// at `epoch`: its database slot and index postings, plus a
    /// retire-delta for its label view. `guards` hold the write locks of
    /// every shard the ids route to; ids with out-of-range shard bits
    /// or already dead are skipped.
    fn retire(
        &self,
        guards: &mut [(usize, RwLockWriteGuard<'_, GraphDb>)],
        ids: &[GraphId],
        epoch: Epoch,
    ) -> Retired {
        let mut removed = Vec::new();
        let mut work: FxHashMap<usize, FxHashMap<ClassLabel, FxHashSet<GraphId>>> =
            FxHashMap::default();
        for &id in ids {
            let Some(s) = self.shard_of(id) else { continue };
            let pos = guards.binary_search_by_key(&s, |(g, _)| *g).expect("shard in lock set");
            let db = &mut *guards[pos].1;
            if !db.contains(id) {
                continue;
            }
            let predicted = db.predicted(id);
            if db.remove(id) {
                self.shards[s].store.on_remove_graph(db, id, epoch);
                if let Some(l) = predicted {
                    work.entry(s).or_default().entry(l).or_default().insert(id);
                }
                removed.push(id);
            }
        }
        Retired { removed, work }
    }

    /// The post-commit half of a removal or an expiry sweep: drops the
    /// retired graphs' cached contexts, streams their retire-deltas into
    /// the registered label views against the commit-epoch `clones`,
    /// and compacts what no pin still observes.
    fn finish_retire(&self, clones: Vec<(usize, GraphDb)>, retired: Retired) {
        self.contexts.remove(&retired.removed);
        self.maintain_shards(
            &clones,
            retired
                .work
                .into_iter()
                .map(|(s, by_label)| (s, sorted_label_work(FxHashMap::default(), by_label)))
                .collect(),
        );
        // The maintenance clones share every payload Arc: they must be
        // gone before compaction, or no tombstoned payload is ever
        // sole-owned and the spill-to-extent path can never fire.
        drop(clones);
        self.compact_inner();
    }

    /// Whether a retention window is in effect.
    fn windowed(&self) -> bool {
        !matches!(self.retention, RetentionPolicy::KeepAll)
    }

    /// Expires every live graph outside the retention window, in one
    /// follow-up commit: tombstones the slots, retires their index
    /// postings and cached contexts, streams retire-deltas into the
    /// registered label views, and compacts what no pin still observes.
    /// Caller holds the writer mutexes of **every** shard (the windowed
    /// insert path does), so no other mutator interleaves between the
    /// candidate selection and the commit.
    ///
    /// Nothing is logged: expiry is a deterministic function of slot
    /// metadata and the head epoch, so durable replay — which re-runs
    /// the logged inserts through this same path — re-derives the same
    /// expiries, in the same order, at the same epochs.
    fn sweep_window(&self) {
        let all = sorted_shards(0..self.shards.len());
        let (expired, retired, clones) = {
            let mut guards = self.db_write_guards(&all);
            let meta = guards.iter().flat_map(|(_, db)| db.live_window_meta()).collect();
            let expired = window_expired(self.retention, self.head(), meta);
            if expired.is_empty() {
                return;
            }
            let epoch = self.stamp(&mut guards);
            let retired = self.retire(&mut guards, &expired, epoch);
            (expired, retired, clones_of(&guards))
        };
        self.finish_retire(clones, retired);
        self.expired_total.fetch_add(expired.len() as u64, Ordering::Relaxed);
    }

    /// Reclaims graph payloads, index postings, and view versions that
    /// no pinned snapshot can still observe (everything dead at or
    /// before the oldest pin). Runs automatically after
    /// [`Engine::remove_graphs`]; call it manually after dropping
    /// long-lived snapshots to release their retained state. Returns the
    /// compaction floor used.
    pub fn compact(&self) -> Epoch {
        let all = sorted_shards(0..self.shards.len());
        let _w = self.writer_guards(&all);
        self.compact_inner()
    }

    /// Compaction body. The floor is computed while every shard's
    /// database write lock is held, so a snapshot mid-pin (clone + pin
    /// under the full read-guard set) is either fully visible to the
    /// floor or takes its pin strictly after compaction.
    fn compact_inner(&self) -> Epoch {
        let floor = {
            let mut guards: Vec<RwLockWriteGuard<'_, GraphDb>> =
                self.shards.iter().map(|s| s.db.write().expect("db lock")).collect();
            let floor = self.pins.floor(self.head());
            // Per-pin observation beats the floor alone: a graph born
            // after a long-lived pin and expired since is freeable even
            // while that pin is held — without this, a windowed engine
            // under a persistent pin retains (and, durable, spills)
            // everything that ever streamed past it.
            let pins = self.pins.epochs();
            for db in guards.iter_mut() {
                db.compact_pinned(floor, &pins);
            }
            floor
        };
        for s in &self.shards {
            s.store.compact(floor);
        }
        floor
    }

    /// Writer mutexes of `affected` (ascending shard order — the
    /// deadlock-free acquisition order shared by every multi-shard
    /// path).
    fn writer_guards(&self, affected: &[usize]) -> Vec<MutexGuard<'_, ()>> {
        affected.iter().map(|&s| self.shards[s].writer.lock().expect("writer lock")).collect()
    }

    /// Database write locks of `affected` (ascending shard order),
    /// tagged with their shard index.
    fn db_write_guards(&self, affected: &[usize]) -> Vec<(usize, RwLockWriteGuard<'_, GraphDb>)> {
        affected.iter().map(|&s| (s, self.shards[s].db.write().expect("db lock"))).collect()
    }

    /// Runs incremental maintenance for each shard's
    /// `(label, added, removed)` work items against that shard's
    /// commit-epoch clone — no engine lock is held during computation.
    /// All (shard, label) pairs fan out together on the engine pool;
    /// results are then committed per shard in ascending shard order
    /// (and label order within a shard), each shard's batch at its own
    /// fresh watermark epoch, so the store contents are identical to
    /// the sequential path and snapshots keep their repeatable reads.
    fn maintain_shards(&self, clones: &[(usize, GraphDb)], work: Vec<(usize, LabelWork)>) {
        let mut flat: Vec<(usize, ClassLabel, Vec<GraphId>, FxHashSet<GraphId>)> = work
            .into_iter()
            .flat_map(|(s, items)| items.into_iter().map(move |(l, a, r)| (s, l, a, r)))
            .collect();
        flat.sort_unstable_by_key(|(s, l, _, _)| (*s, *l));
        if flat.is_empty() {
            return;
        }
        let computed: Vec<(usize, ClassLabel, MaintainOutcome)> = self.on_pool(|| {
            flat.par_iter()
                .map(|(s, label, added, removed)| {
                    (
                        *s,
                        *label,
                        self.maintain_one(*s, clone_of(clones, *s), *label, added, removed),
                    )
                })
                .collect()
        });
        let mut by_shard: FxHashMap<usize, Vec<(ClassLabel, LiveView, crate::ExplanationView)>> =
            FxHashMap::default();
        for (s, label, outcome) in computed {
            if let Some((lv, view)) = outcome {
                by_shard.entry(s).or_default().push((label, lv, view));
            }
        }
        for s in sorted_shards(by_shard.keys().copied()) {
            let items = by_shard.remove(&s).expect("shard key");
            self.commit_shard_views(s, |db, store| {
                for (label, lv, view) in items {
                    store.push_version(lv.id, view, db);
                    self.shards[s].live.lock().expect("live view lock").insert(label, lv);
                }
            });
        }
    }

    /// Incremental view maintenance for `label` (owned by shard `s`)
    /// after a mutation at the current head epoch: removed graphs'
    /// subgraphs are dropped, added graphs are streamed through
    /// [`StreamGvex::stream_with_context`] and merged, and the result is
    /// returned for commit as a new version of the label's registered
    /// view. Once the staleness bound is reached the whole view is
    /// recomputed with its original algorithm instead.
    fn maintain_one(
        &self,
        s: usize,
        db: &GraphDb,
        label: ClassLabel,
        added: &[GraphId],
        removed: &FxHashSet<GraphId>,
    ) -> Option<(LiveView, crate::ExplanationView)> {
        let sh = &self.shards[s];
        let lv = *sh.live.lock().expect("live view lock").get(&label)?;
        let old = sh.store.get(lv.id)?;
        if lv.staleness >= self.staleness_bound {
            let view = self.generate(db, label, None, lv.algo);
            return Some((LiveView { staleness: 0, ..lv }, view));
        }
        let fraction = match lv.algo {
            ViewAlgo::Approx => 1.0,
            ViewAlgo::Stream { fraction } => fraction,
        };
        let mut subgraphs: Vec<_> =
            old.subgraphs.iter().filter(|sg| !removed.contains(&sg.graph_id)).cloned().collect();
        let mut patterns = old.patterns.clone();
        if !removed.is_empty() {
            // Prune patterns whose only support was a removed subgraph;
            // `assemble_view` only ever *adds* coverage, so phantom
            // patterns would otherwise outlive every graph containing
            // them.
            let induced: Vec<_> = subgraphs.iter().map(|sg| sg.induced(db).0).collect();
            patterns.retain(|p| induced.iter().any(|g| vf2::contains(p, g)));
        }
        // Stream each added graph independently (the per-graph phase of
        // delta application is embarrassingly parallel), then merge in
        // ascending-id order so the pattern tier grows exactly as the
        // sequential loop would have grown it.
        let streamed: Vec<Option<(crate::ExplanationSubgraph, Vec<gvex_pattern::Pattern>)>> = added
            .par_iter()
            .map(|&id| {
                let g = db.get_graph(id)?;
                let ctx = self.contexts.get(&self.model, g, id);
                self.stream.stream_with_context(&self.model, g, id, label, None, fraction, &ctx)
            })
            .collect();
        for (sub, pats) in streamed.into_iter().flatten() {
            subgraphs.push(sub);
            for p in pats {
                if !patterns.iter().any(|q| vf2::isomorphic(q, &p)) {
                    patterns.push(p);
                }
            }
        }
        let view = crate::stream::assemble_view(label, subgraphs, patterns, db, &self.config);
        Some((LiveView { staleness: lv.staleness + 1, ..lv }, view))
    }

    /// Incremental updates applied to `label`'s registered view since
    /// its last full (re)compute — the staleness the next mutation
    /// compares against [`EngineBuilder::staleness_bound`].
    pub fn staleness(&self, label: ClassLabel) -> Option<usize> {
        let sh = &self.shards[self.route(label)];
        sh.live.lock().expect("live view lock").get(&label).map(|lv| lv.staleness)
    }

    // ---- view-op helpers ----------------------------------------------

    /// Runs `f` in the engine-owned pool, or inline (global pool) when
    /// the engine fell back at build time.
    fn on_pool<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// A copy-on-write clone of shard `s`'s head database — the working
    /// set of one view-generation computation. Taken under a read
    /// guard: the shard's writer mutex (held by every caller) keeps the
    /// content stable until the matching [`Engine::commit_shard_views`].
    fn read_clone(&self, s: usize) -> GraphDb {
        self.shards[s].db.read().expect("db lock").clone()
    }

    /// Allocates a fresh watermark epoch and runs `commit` — the store
    /// commits of freshly generated or maintained views — while shard
    /// `s`'s database write lock is held (satisfying the
    /// [`Engine::tick`] contract). The epoch is allocated *after* the
    /// expensive computation, so a snapshot pinned while that
    /// computation ran sits at a strictly older epoch; and because the
    /// lock is held until every version is pushed, a snapshot cannot pin
    /// the new epoch between its publication and the version flips that
    /// are stamped with it — the repeatable-read half of the snapshot
    /// contract. (Lock order db → store matches the mutation commit
    /// sections; the store never reaches back for the engine's locks.)
    /// Returns the commit epoch (what the durability layer logs for
    /// exact-epoch replay).
    fn commit_shard_views(&self, s: usize, commit: impl FnOnce(&GraphDb, &ViewStore)) -> Epoch {
        let mut db = self.shards[s].db.write().expect("db lock");
        let e = self.tick();
        db.sync_epoch(e);
        commit(&db, &self.shards[s].store);
        e
    }

    /// Resolves a global view handle to its current (head) version,
    /// routing by the id's shard bits. `None` for stale, fully
    /// tombstoned, or malformed (out-of-range shard bits) handles.
    pub fn view(&self, id: ViewId) -> Option<Arc<crate::ExplanationView>> {
        self.shards[self.shard_of(id.0)?].store.get(id.local())
    }

    /// Evaluates a [`ViewQuery`] against the head: plans the contributing
    /// shards (label filter → shards that have seen the label; view
    /// clauses → owning shards; unconstrained → all), takes their read
    /// guards up front (batch atomicity: the query sees each committed
    /// batch in full or not at all), scatters the per-shard probes on
    /// the engine pool, and merges postings and per-label counts.
    pub fn query(&self, q: &ViewQuery) -> QueryResult {
        self.rebalance();
        let plan =
            query::plan_shards(self.shards.len(), q, |s, l| self.shards[s].store.has_label(l));
        self.probes.fetch_add(plan.len() as u64, Ordering::Relaxed);
        let guards: Vec<(usize, RwLockReadGuard<'_, GraphDb>)> =
            plan.iter().map(|&s| (s, self.shards[s].db.read().expect("db lock"))).collect();
        if let [(s, db)] = guards.as_slice() {
            return q.for_shard(*s as ShardId).evaluate(&self.shards[*s].store, db);
        }
        let parts: Vec<QueryResult> = self.on_pool(|| {
            guards
                .par_iter()
                .map(|(s, db)| q.for_shard(*s as ShardId).evaluate(&self.shards[*s].store, db))
                .collect()
        });
        query::merge_shard_results(parts)
    }

    // ---- durability ---------------------------------------------------

    /// Whether the engine was built with [`EngineBuilder::durable`].
    pub fn is_durable(&self) -> bool {
        self.dur.is_some()
    }

    /// Total ops logged to the write-ahead logs over the engine's
    /// durable lifetime (the next batch ordinal), or `None` on an
    /// in-memory engine. Survives recovery: a recovered engine resumes
    /// the sequence where the crashed one left off.
    pub fn durable_ops(&self) -> Option<u64> {
        Some(self.dur.as_ref()?.op_seq.load(Ordering::SeqCst))
    }

    /// The recovery report of the build that attached durability, or
    /// `None` when the engine is in-memory or its directory was fresh.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.dur.as_ref()?.report.as_ref()
    }

    /// Claims the next WAL batch ordinal, or `None` when the engine is
    /// in-memory or the op is a `replay` (already in the log). Callers
    /// hold the writer mutexes of every shard the op touches, so within
    /// a shard the claimed ordinals are monotone in commit (epoch)
    /// order — the order replay relies on.
    fn wal_seq(&self, replay: bool) -> Option<u64> {
        let dur = self.dur.as_ref().filter(|_| !replay)?;
        dur.ops_since_checkpoint.fetch_add(1, Ordering::SeqCst);
        Some(dur.op_seq.fetch_add(1, Ordering::SeqCst))
    }

    /// Appends op `seq`'s per-shard `records` (ascending shard order,
    /// each naming every participant) at its commit `epoch`. Row ops
    /// append inside their commit section, so the op is on stable
    /// storage (per the fsync policy) before its effects become
    /// observable.
    ///
    /// # Panics
    /// Panics when an append fails — a durable engine that can no
    /// longer log cannot honor acknowledgements, so this is fail-stop
    /// by design (recovery replays the intact prefix).
    fn log(&self, seq: u64, epoch: Epoch, records: Vec<(usize, WalOp)>) {
        let dur = self.dur.as_ref().expect("logging requires a durable engine");
        let participants: Vec<u32> = records.iter().map(|(s, _)| *s as u32).collect();
        for (s, op) in records {
            let rec =
                WalRecord { batch: seq, epoch: epoch.0, participants: participants.clone(), op };
            dur.wals[s].lock().expect("wal lock").append(&rec).expect("WAL append must succeed");
        }
    }

    /// Runs the automatic checkpoint when the logged-op budget is
    /// spent. Called by [`Engine::commit`] **before** any guard is
    /// taken — [`Engine::checkpoint`] acquires every writer mutex
    /// itself, and the mutexes are not reentrant.
    fn maybe_checkpoint(&self) {
        let Some(dur) = self.dur.as_ref() else { return };
        if dur.checkpoint_every == 0 {
            return;
        }
        if dur.ops_since_checkpoint.load(Ordering::SeqCst) >= dur.checkpoint_every {
            self.checkpoint().expect("automatic checkpoint must succeed");
        }
    }

    /// Writes a full checkpoint — every shard's slots (compacted slots
    /// included: id space is part of the image), view-store records
    /// with their materialized rows, live-view registrations, the
    /// watermark, and the durable op sequence — then resets the
    /// write-ahead logs (their effects are now in the checkpoint).
    /// Atomic via write-to-temp + rename: a crash mid-checkpoint
    /// recovers from the previous image plus the still-intact logs; a
    /// crash between the rename and the log reset is handled by replay
    /// skipping batches older than the image's op sequence.
    ///
    /// Slot payloads are **not** embedded in the image: every payload is
    /// spilled to its shard's extent (payloads already spilled by
    /// eviction are not rewritten) and the image records extent
    /// locations, so recovery opens in O(metadata) and faults payloads
    /// lazily. The extents are fsynced before the image that references
    /// them is committed.
    ///
    /// Blocks all mutators (every writer mutex) and, during the export
    /// itself, readers (the export takes the database write locks to
    /// record spill locations). No-op returning `Ok(None)` on an
    /// in-memory engine; otherwise returns the watermark the image
    /// captured.
    pub fn checkpoint(&self) -> Result<Option<Epoch>, StoreError> {
        let Some(dur) = self.dur.as_ref() else { return Ok(None) };
        let all = sorted_shards(0..self.shards.len());
        let _w = self.writer_guards(&all);
        let mut guards: Vec<RwLockWriteGuard<'_, GraphDb>> =
            self.shards.iter().map(|s| s.db.write().expect("db lock")).collect();
        let watermark = self.head();
        let op_seq = dur.op_seq.load(Ordering::SeqCst);
        let shards: Vec<gvex_store::ShardState> = guards
            .iter_mut()
            .zip(&self.shards)
            .enumerate()
            .map(|(i, (db, sh))| {
                let slots = db
                    .export_paged_slots()
                    .into_iter()
                    .map(|e| gvex_store::SlotState {
                        loc: e.loc,
                        truth: e.truth,
                        predicted: e.predicted,
                        born: e.born.0,
                        died: e.died.0,
                    })
                    .collect();
                let live = sh
                    .live
                    .lock()
                    .expect("live view lock")
                    .iter()
                    .map(|(l, lv)| gvex_store::LiveState {
                        label: *l,
                        view: lv.id.0,
                        stream_fraction: match lv.algo {
                            ViewAlgo::Approx => None,
                            ViewAlgo::Stream { fraction } => Some(fraction),
                        },
                        staleness: lv.staleness as u64,
                    })
                    .collect();
                gvex_store::ShardState {
                    shard: i as u32,
                    db_epoch: db.epoch().0,
                    slots,
                    views: sh.store.export_records(),
                    live,
                }
            })
            .collect();
        let ck = gvex_store::CheckpointFile { watermark: watermark.0, op_seq, shards };
        // The image references extent locations; make the referenced
        // bytes durable before the image that points at them.
        if let Some(p) = self.pager.as_ref() {
            p.sync()?;
        }
        gvex_store::write_checkpoint(&dur.dir, &ck)?;
        // The WAL resets bound log disk to one checkpoint interval;
        // under a retention window the extents are GC'd too — the
        // image just written is the only surviving checkpoint, so any
        // generation it doesn't reference (and that no slot, and hence
        // no pinned snapshot, can fault) is deletable, and a mostly
        // dead spill target rotates so it can drain. Disk usage is
        // thereby bounded by the window footprint, not the stream.
        for w in &dur.wals {
            w.lock().expect("wal lock").reset()?;
        }
        dur.ops_since_checkpoint.store(0, Ordering::SeqCst);
        if self.windowed() {
            if let Some(p) = self.pager.as_ref() {
                let mut refs: std::collections::HashMap<u32, u64> =
                    std::collections::HashMap::new();
                for st in &ck.shards {
                    for slot in &st.slots {
                        if let Some(loc) = slot.loc {
                            *refs.entry(loc.extent).or_insert(0) += loc.len as u64;
                        }
                    }
                }
                p.gc(&refs)?;
            }
        }
        Ok(Some(watermark))
    }

    /// Collects the current (head) versions of the stored views of
    /// every shard (ascending shard order, insertion order within a
    /// shard) into a plain [`ViewSet`] (e.g. for
    /// [`crate::export::viewset_to_portable`]).
    pub fn view_set(&self) -> ViewSet {
        ViewSet {
            views: self
                .shards
                .iter()
                .flat_map(|s| s.store.latest_views())
                .map(|(_, v)| (*v).clone())
                .collect(),
        }
    }
}

/// One mutation as submitted: the input of [`Engine::commit`], live and
/// on replay alike.
#[derive(Debug)]
pub(crate) enum Op {
    /// An insert batch. Logged as per-shard [`WalOp::Insert`] records;
    /// replay reassembles the batch from them by `pos`.
    Insert(Vec<(Graph, Option<ClassLabel>)>),
    /// A removal batch as submitted, stale ids included. Logged as
    /// per-shard [`WalOp::Remove`] records, reassembled the same way.
    Remove(Vec<GraphId>),
    /// One of the five view ops (`ExplainAll`, `ExplainLabel`,
    /// `Stream`, `ExplainSubset`, `StreamSubset`), logged as is.
    View(WalOp),
}

/// What [`Engine::commit`] produced.
#[derive(Debug)]
pub(crate) struct Committed {
    /// The op's commit epoch (a multi-shard view op's first), or the
    /// head when nothing committed.
    pub(crate) epoch: Epoch,
    /// Ids an insert allocated, in batch order.
    pub(crate) graphs: Vec<GraphId>,
    /// Handles a view op created, in label order.
    pub(crate) views: Vec<ViewId>,
}

impl Committed {
    fn at(epoch: Epoch) -> Self {
        Committed { epoch, graphs: Vec::new(), views: Vec::new() }
    }
}

/// What [`Engine::retire`] tombstoned: the ids actually removed, and
/// the per-shard, per-label retire-deltas for view maintenance.
struct Retired {
    removed: Vec<GraphId>,
    work: FxHashMap<usize, FxHashMap<ClassLabel, FxHashSet<GraphId>>>,
}

/// One shard's maintenance work list: per label, the graph ids added
/// and removed by the mutation being maintained.
type LabelWork = Vec<(ClassLabel, Vec<GraphId>, FxHashSet<GraphId>)>;

/// Outcome of one `(shard, label)` maintenance item: the refreshed live
/// registration plus the new view version, or `None` when the label has
/// no registered view.
type MaintainOutcome = Option<(LiveView, crate::ExplanationView)>;

/// Sorted, deduplicated shard indices.
fn sorted_shards(it: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = it.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Copy-on-write clones of the guarded shard databases, tagged with
/// their shard index.
fn clones_of(guards: &[(usize, RwLockWriteGuard<'_, GraphDb>)]) -> Vec<(usize, GraphDb)> {
    guards.iter().map(|(s, db)| (*s, (**db).clone())).collect()
}

/// Shard `s`'s entry of a [`clones_of`]-style clone list.
fn clone_of(clones: &[(usize, GraphDb)], s: usize) -> &GraphDb {
    &clones.iter().find(|(c, _)| *c == s).expect("clone for shard").1
}

/// Flattens per-label mutation deltas into the maintenance work list,
/// in ascending label order (the deterministic commit order shared by
/// [`Engine::insert_graphs`] and [`Engine::remove_graphs`]).
fn sorted_label_work(
    mut added: FxHashMap<ClassLabel, Vec<GraphId>>,
    mut removed: FxHashMap<ClassLabel, FxHashSet<GraphId>>,
) -> LabelWork {
    let mut labels: Vec<ClassLabel> = added.keys().chain(removed.keys()).copied().collect();
    labels.sort_unstable();
    labels.dedup();
    labels
        .into_iter()
        .map(|l| (l, added.remove(&l).unwrap_or_default(), removed.remove(&l).unwrap_or_default()))
        .collect()
}
