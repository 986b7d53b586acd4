use crate::Graph;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Index of a graph within a [`GraphDb`]. Since the sharded-engine
/// redesign the high [`shard::BITS`] bits carry the owning shard, so
/// routing an id to its shard is a shift — O(1), never a scan (see
/// [`shard`]). Unsharded databases are shard 0, whose composed ids are
/// numerically identical to the old plain slot indices.
pub type GraphId = u32;
/// Task-specific class label assigned by the GNN classifier (§2.1 remarks:
/// distinct from node *types*).
pub type ClassLabel = u16;
/// Index of a shard within a sharded engine (`0..shard::MAX`).
pub type ShardId = u32;

/// The shard-bit id scheme shared by every sharded identifier space
/// (graph ids here, view ids in the engine's store): the top [`shard::BITS`]
/// bits of a raw `u32` name the owning shard, the rest the shard-local
/// slot. Decomposition is a shift/mask — a router resolves any id to
/// its shard in O(1) without consulting any table — and shard 0 ids are
/// bit-identical to unsharded slot indices, so single-shard databases
/// are unaffected by the scheme.
pub mod shard {
    use super::ShardId;

    /// Number of shard bits (top of the `u32`).
    pub const BITS: u32 = 6;
    /// Maximum number of shards an engine can be built with.
    pub const MAX: usize = 1 << BITS;
    /// Number of slot bits (bottom of the `u32`).
    pub const SLOT_BITS: u32 = 32 - BITS;
    /// Mask selecting the slot bits.
    pub const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

    /// The shard encoded in a raw id.
    #[inline]
    pub fn of(raw: u32) -> ShardId {
        raw >> SLOT_BITS
    }

    /// The shard-local slot encoded in a raw id.
    #[inline]
    pub fn slot(raw: u32) -> u32 {
        raw & SLOT_MASK
    }

    /// Composes a raw id from a shard and a shard-local slot.
    ///
    /// # Panics
    /// Debug-asserts that neither component overflows its bit field.
    #[inline]
    pub fn compose(shard: ShardId, slot: u32) -> u32 {
        debug_assert!((shard as usize) < MAX, "shard id out of range");
        debug_assert!(slot <= SLOT_MASK, "slot overflows the id space");
        (shard << SLOT_BITS) | (slot & SLOT_MASK)
    }
}

/// A monotonically increasing version stamp of a mutable [`GraphDb`].
///
/// Every mutation batch (insert, removal, view update) happens *at* one
/// epoch: a graph inserted at epoch `e` is visible to readers at epochs
/// `>= e`, and a graph removed at epoch `e` is visible at epochs `< e`
/// only. A pinned snapshot therefore sees a consistent database no
/// matter how far the writer's head has advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch of a freshly created database.
    pub const ZERO: Epoch = Epoch(0);
    /// Sentinel "never died" epoch used for live entries.
    pub const MAX: Epoch = Epoch(u64::MAX);

    /// The next epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Shape of a sliding retention window (the grit-style sweep buffer):
/// which live graphs the database keeps once the stream outgrows it.
/// Construct via [`Window::last_epochs`], [`Window::last_graphs`], or
/// [`Window::last_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Keep graphs born within the last `n` epochs: a graph born at
    /// epoch `b` expires once the head reaches `b + n`.
    Epochs(u64),
    /// Keep the `n` newest live graphs (by birth epoch, ties broken by
    /// id — i.e. arrival order).
    Graphs(usize),
    /// Keep the newest live graphs whose payload bytes fit in `b`
    /// (always at least the single newest graph, even when it alone
    /// exceeds the budget — the sweep buffer is never empty while the
    /// stream is live). Payload sizes are approximate: in-memory size
    /// for resident payloads, extent record length for evicted ones, so
    /// the bound is exact up to a constant encoding factor.
    Bytes(u64),
}

impl Window {
    /// Window keeping graphs born within the last `n` epochs.
    ///
    /// # Panics
    /// Panics when `n` is zero (an empty window would expire every
    /// arrival in the commit that admitted it).
    pub fn last_epochs(n: u64) -> Self {
        assert!(n > 0, "retention window must be non-empty");
        Window::Epochs(n)
    }

    /// Window keeping the `n` newest live graphs.
    ///
    /// # Panics
    /// Panics when `n` is zero.
    pub fn last_graphs(n: usize) -> Self {
        assert!(n > 0, "retention window must be non-empty");
        Window::Graphs(n)
    }

    /// Window keeping the newest live graphs within `b` payload bytes.
    ///
    /// # Panics
    /// Panics when `b` is zero.
    pub fn last_bytes(b: u64) -> Self {
        assert!(b > 0, "retention window must be non-empty");
        Window::Bytes(b)
    }
}

/// Retention policy of a [`GraphDb`] (and of the engine built over it):
/// the default keeps every graph until explicitly removed (the
/// historical behavior); a [`Window`] turns removal into an automatic
/// expiry step — graphs falling off the window are tombstoned at batch
/// commit and their payloads reclaimed by the same pin-floor-clamped
/// compaction that serves explicit removals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Keep every graph until explicitly removed.
    #[default]
    KeepAll,
    /// Keep only the graphs inside the sliding window; older ones are
    /// expired automatically.
    Window(Window),
}

/// The ids a retention policy expires at head epoch `head`, given the
/// live graphs' `(id, born, payload bytes)` metadata — the pure sweep
/// step shared by [`GraphDb::expire_candidates`] (one shard) and the
/// engine (metadata concatenated across shards). Expiry is purely a
/// function of this metadata, so replaying the same arrival sequence
/// re-derives the same expiries — durability logs admissions only.
/// Returned ids are sorted ascending.
pub fn window_expired(
    policy: RetentionPolicy,
    head: Epoch,
    mut live: Vec<(GraphId, Epoch, u64)>,
) -> Vec<GraphId> {
    let RetentionPolicy::Window(w) = policy else { return Vec::new() };
    // Newest first: birth epoch, ties broken by id (arrival order —
    // ids within a shard are allocated monotonically).
    live.sort_unstable_by_key(|&(id, born, _)| std::cmp::Reverse((born, id)));
    let mut expired: Vec<GraphId> = match w {
        Window::Epochs(n) => live
            .iter()
            .filter(|(_, born, _)| born.0.saturating_add(n) <= head.0)
            .map(|&(id, _, _)| id)
            .collect(),
        Window::Graphs(n) => live.iter().skip(n).map(|&(id, _, _)| id).collect(),
        Window::Bytes(b) => {
            let mut total = 0u64;
            live.iter()
                .enumerate()
                .filter(|&(i, &(_, _, bytes))| {
                    total = total.saturating_add(bytes);
                    i > 0 && total > b
                })
                .map(|(_, &(id, _, _))| id)
                .collect()
        }
    };
    expired.sort_unstable();
    expired
}

/// Location of one spilled graph payload inside an extent file: which
/// extent, the byte offset of its record, and the record length.
/// Extent files are append-only and a slot's location is immutable once
/// assigned (re-eviction reuses it), so a location stays readable as
/// long as any slot references its extent — pinned snapshots keep
/// locations across arbitrarily many later spills, and windowed engines
/// delete an extent generation only once no slot references it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentLoc {
    /// Extent id. The low [`shard::BITS`] bits carry the owning shard,
    /// the high bits the extent *generation* within that shard —
    /// generation 0 ids are numerically identical to plain shard
    /// numbers, so pre-generation checkpoints decode unchanged.
    pub extent: u32,
    /// Byte offset of the record within the extent.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
}

/// The paging backend a [`GraphDb`] spills cold payloads to and faults
/// them back from. Implemented by `gvex_pager`'s page cache; defined
/// here so the slot representation can hold evicted payloads without a
/// dependency on the storage crates.
///
/// All methods take `&self`: faults happen under shared db read locks.
pub trait PayloadPager: Send + Sync + std::fmt::Debug {
    /// Reads and decodes the payload at `loc`. Paging I/O errors and
    /// extent corruption are fail-stop: implementations panic rather
    /// than return, mirroring how WAL append failures are handled —
    /// a database that cannot reach its own pages cannot limp along.
    fn fault(&self, loc: ExtentLoc) -> Graph;
    /// Appends `g` to shard `shard`'s extent and returns its location.
    fn spill(&self, shard: ShardId, g: &Graph) -> ExtentLoc;
    /// Accounting: `bytes` of payload became resident.
    fn note_resident(&self, bytes: u64);
    /// Accounting: `bytes` of payload left residency.
    fn note_released(&self, bytes: u64);
    /// The shared access clock: ticked on every payload access (the
    /// database holds its own handle and ticks it inline — warm reads
    /// must not pay a virtual call) and by [`PayloadPager::fault`].
    /// Implementations derive their hit count as `clock - faults`.
    fn access_clock(&self) -> Arc<AtomicU64>;
    /// Records `n` evictions (payloads spilled out of residency).
    fn note_evicted(&self, n: u64);
    /// Current clock value without recording an access.
    fn clock(&self) -> u64;
}

/// Keeps the pager's resident-bytes gauge exact across snapshot clones:
/// every resident payload carries one token `Arc` that clones share, so
/// the bytes are counted once no matter how many snapshots hold the
/// payload and released exactly when the last holder drops it.
#[derive(Debug)]
pub struct ResidentToken {
    bytes: u64,
    pager: Arc<dyn PayloadPager>,
}

impl ResidentToken {
    fn new(pager: Arc<dyn PayloadPager>, bytes: u64) -> Self {
        pager.note_resident(bytes);
        Self { bytes, pager }
    }
}

impl Drop for ResidentToken {
    fn drop(&mut self) {
        self.pager.note_released(self.bytes);
    }
}

/// A slot's payload: resident, spilled to an extent, or reclaimed.
#[derive(Debug)]
enum Payload {
    /// In-memory payload (the only payload state of a pager-less
    /// database). The token is present iff a pager is attached.
    Resident(Arc<Graph>, Option<Arc<ResidentToken>>),
    /// Spilled to `loc`; `cell` caches the faulted-in payload. The cell
    /// can only be *set* under `&self` — never cleared — so a `&Graph`
    /// borrowed out of it stays valid for the borrow's lifetime.
    /// Clearing the cell (eviction) requires `&mut self`, i.e. the db
    /// write lock, which excludes every outstanding borrow.
    Paged { loc: ExtentLoc, cell: OnceLock<(Arc<Graph>, Arc<ResidentToken>)> },
    /// Compaction reclaimed the payload; metadata only.
    Freed,
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        match self {
            Payload::Resident(g, t) => Payload::Resident(Arc::clone(g), t.clone()),
            Payload::Paged { loc, cell } => {
                let c = OnceLock::new();
                if let Some(v) = cell.get() {
                    let _ = c.set(v.clone());
                }
                Payload::Paged { loc: *loc, cell: c }
            }
            Payload::Freed => Payload::Freed,
        }
    }
}

impl Payload {
    /// The resident payload, if any, with its accounting token.
    fn hot(&self) -> Option<(&Arc<Graph>, Option<&Arc<ResidentToken>>)> {
        match self {
            Payload::Resident(g, t) => Some((g, t.as_ref())),
            Payload::Paged { cell, .. } => cell.get().map(|(g, t)| (g, Some(t))),
            Payload::Freed => None,
        }
    }

    fn is_freed(&self) -> bool {
        matches!(self, Payload::Freed)
    }
}

/// Spills `slot`'s payload back to its extent if that would actually
/// free memory: a payload whose `Arc` is shared (a pinned snapshot's
/// clone, an escaped [`GraphDb::graph_arc`] handle) stays resident —
/// evicting it would drop this database's reference without releasing
/// the bytes. Returns the bytes freed (0 when nothing was evicted).
fn evict_payload(slot: &mut Slot, pager: &Arc<dyn PayloadPager>, shard: ShardId) -> u64 {
    match &slot.payload {
        Payload::Resident(g, tok) => {
            if Arc::strong_count(g) != 1 {
                return 0;
            }
            let bytes = tok.as_ref().map_or_else(|| g.approx_bytes() as u64, |t| t.bytes);
            let loc = pager.spill(shard, g);
            slot.payload = Payload::Paged { loc, cell: OnceLock::new() };
            pager.note_evicted(1);
            bytes
        }
        Payload::Paged { cell, .. } => {
            let evictable = matches!(cell.get(), Some((g, _)) if Arc::strong_count(g) == 1);
            if !evictable {
                return 0;
            }
            let Payload::Paged { cell, .. } = &mut slot.payload else { unreachable!() };
            let (_, tok) = cell.take().expect("cell checked hot above");
            pager.note_evicted(1);
            tok.bytes
        }
        Payload::Freed => 0,
    }
}

/// A hot payload eligible for eviction, as reported by
/// [`GraphDb::evict_candidates`]: the slot index, its last-access clock
/// stamp (older = colder), and its resident bytes.
#[derive(Debug, Clone, Copy)]
pub struct EvictCandidate {
    /// Shard-local slot index (compose with the shard for the id).
    pub slot: u32,
    /// Clock stamp of the last access; 0 = never accessed.
    pub touch: u64,
    /// Resident payload bytes this eviction would free.
    pub bytes: u64,
}

/// One id slot of the database. Slots are allocated monotonically and
/// never reused, so a [`GraphId`] handed out once stays valid (as an
/// identifier) forever; removal tombstones the slot and compaction frees
/// the graph payload while keeping the cheap metadata.
#[derive(Debug)]
struct Slot {
    /// The graph payload, shared with snapshot clones.
    payload: Payload,
    /// Clock-LRU stamp of the last payload access (pager clock value);
    /// 0 until first touched. Only maintained when a pager is attached.
    touch: AtomicU64,
    truth: ClassLabel,
    predicted: Option<ClassLabel>,
    born: Epoch,
    /// [`Epoch::MAX`] while live.
    died: Epoch,
}

impl Clone for Slot {
    fn clone(&self) -> Self {
        Self {
            payload: self.payload.clone(),
            touch: AtomicU64::new(self.touch.load(Ordering::Relaxed)),
            truth: self.truth,
            predicted: self.predicted,
            born: self.born,
            died: self.died,
        }
    }
}

impl Slot {
    fn live(&self) -> bool {
        self.died == Epoch::MAX
    }
}

/// A graph database `G = {G_1, ..., G_m}` together with ground-truth class
/// labels (used to train the classifier) and, once a classifier has run,
/// predicted labels (used to form label groups `G^l`, §2.2).
///
/// The database is **mutable and versioned**: [`GraphDb::push`] allocates
/// a fresh id stamped with the current [`Epoch`], [`GraphDb::remove`]
/// tombstones a slot at the current epoch, and [`GraphDb::advance_epoch`]
/// moves the head. Graph payloads are stored behind [`Arc`], so
/// `GraphDb::clone` is a cheap copy-on-write snapshot: the clone shares
/// every payload and freezes at the epoch it was taken, while the
/// original keeps mutating. The default accessors ([`GraphDb::iter`],
/// [`GraphDb::len`], [`GraphDb::label_group`], the statistics) see the
/// graphs live at this database value's epoch, which makes a clone a
/// consistent read view with no further filtering.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    slots: Vec<Slot>,
    epoch: Epoch,
    /// The shard this database's ids are composed with ([`shard`]);
    /// 0 for unsharded databases, whose ids equal their slot indices.
    shard: ShardId,
    /// Paging backend for evicted payloads; `None` keeps the database
    /// fully resident (the historical behavior, with zero overhead on
    /// the access paths). Clones share the pager, so snapshots fault
    /// and account through the same cache as the head.
    pager: Option<Arc<dyn PayloadPager>>,
    /// The pager's access clock, cached at attach: the warm-read path
    /// ticks it directly — one relaxed RMW — instead of a virtual call
    /// into the pager.
    touch_clock: Option<Arc<AtomicU64>>,
    /// The expiry cursor's policy: [`RetentionPolicy::KeepAll`] (the
    /// default) never expires; a window makes
    /// [`GraphDb::expire_candidates`] report the live graphs that have
    /// fallen off it. The engine drives the actual tombstoning so view
    /// maintenance and the context cache retire in the same commit.
    retention: RetentionPolicy,
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::ZERO
    }
}

impl GraphDb {
    /// Creates an empty database at [`Epoch::ZERO`] (shard 0: ids are
    /// plain slot indices).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty shard-`s` database: every id it allocates
    /// carries `s` in its shard bits, so a router resolves ownership
    /// from the id alone.
    ///
    /// # Panics
    /// Panics when `s >= shard::MAX`.
    pub fn with_shard(s: ShardId) -> Self {
        assert!((s as usize) < shard::MAX, "shard id out of range");
        Self { shard: s, ..Self::default() }
    }

    /// The shard this database composes its ids with (0 when unsharded).
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The slot index behind `id`, iff the id belongs to this shard and
    /// has been allocated. A foreign-shard or out-of-range id resolves
    /// to `None` — lookups through this path never alias another
    /// shard's slot and never index out of bounds.
    #[inline]
    fn slot_of(&self, id: GraphId) -> Option<usize> {
        if shard::of(id) != self.shard {
            return None;
        }
        let i = shard::slot(id) as usize;
        (i < self.slots.len()).then_some(i)
    }

    /// The composed id of slot `i`.
    #[inline]
    fn id_at(&self, i: usize) -> GraphId {
        shard::compose(self.shard, i as u32)
    }

    /// The epoch this database value is at. For the writer's copy this
    /// is the head; for a clone it is the pinned epoch of the snapshot.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Advances the head epoch and returns the new value. Every mutation
    /// batch should run at its own fresh epoch (the engine's insert /
    /// remove entry points do this).
    pub fn advance_epoch(&mut self) -> Epoch {
        self.epoch = self.epoch.next();
        self.epoch
    }

    /// Raises the head epoch to `e` (no-op when already past it). The
    /// sharded engine stamps every commit with a *global* epoch from its
    /// watermark clock and synchronizes the affected shards' databases
    /// to it, so epochs are comparable across shards.
    pub fn sync_epoch(&mut self, e: Epoch) {
        self.epoch = self.epoch.max(e);
    }

    /// Adds a graph with its ground-truth class label; returns its id
    /// (composed with this database's shard). The graph is born at the
    /// current epoch.
    ///
    /// # Panics
    /// Panics when the shard's slot space (`shard::SLOT_MASK` slots) is
    /// exhausted.
    pub fn push(&mut self, graph: Graph, label: ClassLabel) -> GraphId {
        assert!(self.slots.len() <= shard::SLOT_MASK as usize, "shard slot space exhausted");
        let id = self.id_at(self.slots.len());
        self.slots.push(Slot {
            payload: self.make_resident(graph),
            touch: AtomicU64::new(self.pager.as_ref().map_or(0, |p| p.clock())),
            truth: label,
            predicted: None,
            born: self.epoch,
            died: Epoch::MAX,
        });
        id
    }

    /// Wraps a freshly materialized payload, shrunk to its own data and
    /// tokenized for the pager's resident-bytes gauge when one is attached.
    fn make_resident(&self, mut graph: Graph) -> Payload {
        graph.shrink_to_fit();
        let tok = self
            .pager
            .as_ref()
            .map(|p| Arc::new(ResidentToken::new(Arc::clone(p), graph.approx_bytes() as u64)));
        Payload::Resident(Arc::new(graph), tok)
    }

    /// Attaches the paging backend. Existing resident payloads are
    /// tokenized so the pager's resident-bytes gauge covers them from
    /// this point on. Must be called before any slot is restored in the
    /// `Payload::Paged` state (the engine attaches the pager right
    /// after constructing each shard's database).
    pub fn attach_pager(&mut self, pager: Arc<dyn PayloadPager>) {
        for s in &mut self.slots {
            if let Payload::Resident(g, tok @ None) = &mut s.payload {
                *tok =
                    Some(Arc::new(ResidentToken::new(Arc::clone(&pager), g.approx_bytes() as u64)));
            }
        }
        self.touch_clock = Some(pager.access_clock());
        self.pager = Some(pager);
    }

    /// Whether a paging backend is attached.
    pub fn has_pager(&self) -> bool {
        self.pager.is_some()
    }

    /// Sets the retention policy (see [`RetentionPolicy`]). Snapshot
    /// clones inherit it, but expiry only ever runs against the head.
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.retention = policy;
    }

    /// The retention policy in effect.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Approximate payload bytes of slot `s` without faulting: the
    /// resident size for in-memory payloads, the extent record length
    /// for evicted ones. This is the byte metric [`Window::Bytes`]
    /// windows are measured in.
    fn slot_bytes(s: &Slot) -> u64 {
        match &s.payload {
            Payload::Resident(g, tok) => {
                tok.as_ref().map_or_else(|| g.approx_bytes() as u64, |t| t.bytes)
            }
            Payload::Paged { loc, cell } => cell.get().map_or(loc.len as u64, |(_, tok)| tok.bytes),
            Payload::Freed => 0,
        }
    }

    /// The window metadata of every live graph: `(id, born, payload
    /// bytes)`. Metadata-only — never faults. The engine concatenates
    /// this across shards and feeds it to [`window_expired`]; the
    /// single-shard form is [`GraphDb::expire_candidates`].
    pub fn live_window_meta(&self) -> Vec<(GraphId, Epoch, u64)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live())
            .map(|(i, s)| (self.id_at(i), s.born, Self::slot_bytes(s)))
            .collect()
    }

    /// Approximate payload bytes of the live graphs (the window
    /// footprint gauge). Metadata-only — never faults.
    pub fn live_bytes(&self) -> u64 {
        self.slots.iter().filter(|s| s.live()).map(Self::slot_bytes).sum()
    }

    /// The live ids this database's own retention window expires at
    /// head epoch `head` (sorted ascending; empty under
    /// [`RetentionPolicy::KeepAll`]). The expiry cursor: callers
    /// tombstone these via [`GraphDb::remove`] and reclaim payloads via
    /// [`GraphDb::compact`], which stays clamped to the snapshot pin
    /// floor — expired graphs a pin still observes remain addressable
    /// (and are spilled, not held resident) until the pin drops.
    pub fn expire_candidates(&self, head: Epoch) -> Vec<GraphId> {
        window_expired(self.retention, head, self.live_window_meta())
    }

    /// The extent locations this database still references: every
    /// non-compacted slot currently in the paged state. The union of
    /// these across shards is exactly the set of records any pinned
    /// snapshot can ever fault (payload locations are immutable once
    /// assigned), which is what makes whole-extent garbage collection
    /// of unreferenced generations safe.
    pub fn extent_refs(&self) -> Vec<ExtentLoc> {
        self.slots
            .iter()
            .filter_map(|s| match &s.payload {
                Payload::Paged { loc, .. } => Some(*loc),
                _ => None,
            })
            .collect()
    }

    /// Tombstones graph `id` at the current epoch. Returns `false` when
    /// the id is unknown, foreign to this shard, or already removed. The
    /// payload stays allocated (pinned snapshots and the shared query
    /// index may still read it) until [`GraphDb::compact`].
    pub fn remove(&mut self, id: GraphId) -> bool {
        match self.slot_of(id).map(|i| &mut self.slots[i]) {
            Some(slot) if slot.live() => {
                slot.died = self.epoch;
                true
            }
            _ => false,
        }
    }

    /// Frees the payloads of slots invisible at every epoch `>= floor`
    /// (i.e. `died <= floor`); id slots and their label metadata remain.
    /// Returns the number of payloads reclaimed. The caller (the engine)
    /// picks `floor` as the oldest pinned snapshot epoch; this form is
    /// [`GraphDb::compact_pinned`] with the floor as the only pin.
    pub fn compact(&mut self, floor: Epoch) -> usize {
        self.compact_pinned(floor, &[floor])
    }

    /// Pin-aware compaction: frees the payload of every dead slot that
    /// no pinned epoch observes — a pin at `p` observes exactly the
    /// slots with `born <= p < died`, so a graph born *after* a pin and
    /// expired since is freeable even while that pin is held (the pin's
    /// clone was taken before the graph existed). This is what keeps a
    /// windowed engine's footprint — including its extent references,
    /// and hence disk after generation GC — O(window) under a long-lived
    /// snapshot, instead of retaining everything that expired after the
    /// oldest pin. Returns the number of payloads reclaimed.
    ///
    /// With a pager attached, dead slots some pin still observes are
    /// **spilled** to their extent instead of held hot: a long-lived pin
    /// must not keep dead payloads resident, only addressable. Slots
    /// whose payload a snapshot clone actually shares are left in place
    /// (spilling them would not free memory).
    pub fn compact_pinned(&mut self, floor: Epoch, pins: &[Epoch]) -> usize {
        let pager = self.pager.clone();
        let shard = self.shard;
        let mut freed = 0;
        for slot in &mut self.slots {
            if slot.died == Epoch::MAX {
                continue;
            }
            let observed = pins.iter().any(|&p| slot.born <= p && p < slot.died);
            if slot.died <= floor || !observed {
                if !slot.payload.is_freed() {
                    slot.payload = Payload::Freed;
                    freed += 1;
                }
            } else if let Some(p) = &pager {
                evict_payload(slot, p, shard);
            }
        }
        freed
    }

    /// Hot payloads the cache may evict, with their clock stamps and
    /// resident bytes. Only slots whose payload `Arc` is unshared
    /// qualify: a payload a pinned snapshot still observes shares its
    /// `Arc` with that snapshot's clone, so the pin floor is implicitly
    /// the eviction floor — exactly as it already gates [`GraphDb::compact`].
    /// Empty when no pager is attached.
    pub fn evict_candidates(&self) -> Vec<EvictCandidate> {
        if self.pager.is_none() {
            return Vec::new();
        }
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let (g, tok) = s.payload.hot()?;
                if Arc::strong_count(g) != 1 {
                    return None;
                }
                let bytes = tok.map_or_else(|| g.approx_bytes() as u64, |t| t.bytes);
                Some(EvictCandidate {
                    slot: i as u32,
                    touch: s.touch.load(Ordering::Relaxed),
                    bytes,
                })
            })
            .collect()
    }

    /// Evicts the given slots (from a prior [`GraphDb::evict_candidates`]
    /// pass), re-checking eligibility under this exclusive borrow —
    /// a payload that became shared or was freed in between is skipped.
    /// Returns the resident bytes actually released. No-op without a
    /// pager.
    pub fn evict_slots(&mut self, victims: &[u32]) -> u64 {
        let Some(pager) = self.pager.clone() else { return 0 };
        let shard = self.shard;
        let mut bytes = 0;
        for &v in victims {
            if let Some(slot) = self.slots.get_mut(v as usize) {
                bytes += evict_payload(slot, &pager, shard);
            }
        }
        bytes
    }

    /// Number of live graphs `|G|` at this value's epoch.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.live()).count()
    }

    /// Total number of id slots ever allocated (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether the database holds no live graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` names a live graph of this shard.
    pub fn contains(&self, id: GraphId) -> bool {
        self.slot_of(id).is_some_and(|i| self.slots[i].live())
    }

    /// Borrow of graph `id`.
    ///
    /// # Panics
    /// Panics when the id was never allocated (or belongs to another
    /// shard) or the payload has been compacted away;
    /// [`GraphDb::get_graph`] is the non-panicking path.
    pub fn graph(&self, id: GraphId) -> &Graph {
        self.get_graph(id).expect("graph id valid and not compacted")
    }

    /// Borrow of graph `id`, if the id belongs to this shard and the
    /// slot still holds its payload (tombstoned-but-uncompacted graphs
    /// are still readable). Foreign-shard and malformed ids resolve to
    /// `None`, never to another graph. An evicted payload is faulted in
    /// from its extent transparently and stays resident ("anchored")
    /// until the cache evicts it again.
    pub fn get_graph(&self, id: GraphId) -> Option<&Graph> {
        self.slot_of(id).and_then(|i| self.payload_at(i))
    }

    /// Resolves slot `i`'s payload, faulting an evicted one back in.
    ///
    /// # Panics
    /// Panics when the slot is paged but no pager is attached — only
    /// possible by restoring paged slots into a pager-less database,
    /// which the engine never does.
    fn payload_at(&self, i: usize) -> Option<&Graph> {
        let slot = &self.slots[i];
        match &slot.payload {
            Payload::Resident(g, _) => {
                if let Some(c) = &self.touch_clock {
                    slot.touch.store(c.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                }
                Some(g)
            }
            Payload::Paged { loc, cell } => {
                if let Some((g, _)) = cell.get() {
                    let c =
                        self.touch_clock.as_ref().expect("paged slot requires an attached pager");
                    slot.touch.store(c.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                    return Some(g);
                }
                let p = self.pager.as_ref().expect("paged slot requires an attached pager");
                let (g, _) = cell.get_or_init(|| {
                    let g = p.fault(*loc);
                    let bytes = g.approx_bytes() as u64;
                    (Arc::new(g), Arc::new(ResidentToken::new(Arc::clone(p), bytes)))
                });
                slot.touch.store(p.clock(), Ordering::Relaxed);
                Some(g)
            }
            Payload::Freed => None,
        }
    }

    /// Shared handle to graph `id`'s payload, if present (faulting an
    /// evicted one in). The returned `Arc` keeps the payload resident
    /// for as long as it is held — an escaped handle is invisible to
    /// the eviction scan, which skips shared payloads.
    pub fn graph_arc(&self, id: GraphId) -> Option<Arc<Graph>> {
        let i = self.slot_of(id)?;
        self.payload_at(i)?;
        self.slots[i].payload.hot().map(|(g, _)| Arc::clone(g))
    }

    /// The payload-bearing subset of `ids`, in input order: stale,
    /// removed-and-compacted, or never-allocated ids are skipped instead
    /// of panicking. This is the id-resolution step of every batch
    /// explanation path — worker threads must never `expect` on an id
    /// that a concurrent (or earlier) removal invalidated.
    pub fn try_graphs<'a>(&'a self, ids: &[GraphId]) -> Vec<(GraphId, &'a Graph)> {
        ids.iter().filter_map(|&id| self.get_graph(id).map(|g| (id, g))).collect()
    }

    /// The `(born, died)` epoch interval of slot `id` (`died` is
    /// [`Epoch::MAX`] while live).
    pub fn lifetime(&self, id: GraphId) -> Option<(Epoch, Epoch)> {
        self.slot_of(id).map(|i| (self.slots[i].born, self.slots[i].died))
    }

    /// Iterator over live `(id, graph)` pairs. Evicted payloads fault
    /// in and stay anchored — over a paged database prefer
    /// [`GraphDb::for_each_payload`] for full scans.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Graph)> + '_ {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].live())
            .filter_map(move |i| self.payload_at(i).map(|g| (self.id_at(i), g)))
    }

    /// Iterator over **every** slot that still holds a payload — live or
    /// tombstoned — with its lifetime interval. This is the scan domain
    /// for epoch-aware index construction: postings derived from it are
    /// correct for every epoch a pinned snapshot can observe.
    ///
    /// Over a paged database every evicted payload faults in *and stays
    /// anchored* for the iterator's lifetime; full scans that only need
    /// each payload transiently should use [`GraphDb::for_each_payload`]
    /// instead, and metadata-only consumers
    /// [`GraphDb::iter_payload_lifetimes`].
    pub fn iter_all_payloads(&self) -> impl Iterator<Item = (GraphId, &Graph, Epoch, Epoch)> + '_ {
        (0..self.slots.len()).filter_map(move |i| {
            self.payload_at(i).map(|g| {
                let s = &self.slots[i];
                (self.id_at(i), g, s.born, s.died)
            })
        })
    }

    /// The metadata of [`GraphDb::iter_all_payloads`] without the
    /// payloads: every payload-bearing slot's `(id, born, died)`.
    /// Index construction over a paged database uses this — building
    /// the label index must not fault the whole extent resident.
    pub fn iter_payload_lifetimes(&self) -> impl Iterator<Item = (GraphId, Epoch, Epoch)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.payload.is_freed())
            .map(|(i, s)| (self.id_at(i), s.born, s.died))
    }

    /// Calls `f` on every payload-bearing slot — live or tombstoned —
    /// with its lifetime interval, like [`GraphDb::iter_all_payloads`],
    /// but **without anchoring** cold payloads: an evicted payload is
    /// decoded, visited, and dropped, so a full scan of a paged
    /// database costs O(one graph) of transient memory instead of
    /// faulting the whole database resident. Hot payloads are borrowed
    /// in place. Transient reads do not update slots' LRU stamps, so a
    /// scan cannot flush the working set's recency (scan resistance).
    pub fn for_each_payload<F: FnMut(GraphId, &Graph, Epoch, Epoch)>(&self, mut f: F) {
        for (i, s) in self.slots.iter().enumerate() {
            match &s.payload {
                Payload::Resident(g, _) => f(self.id_at(i), g, s.born, s.died),
                Payload::Paged { loc, cell } => {
                    if let Some((g, _)) = cell.get() {
                        f(self.id_at(i), g, s.born, s.died);
                    } else {
                        let p = self.pager.as_ref().expect("paged slot requires an attached pager");
                        let g = p.fault(*loc);
                        f(self.id_at(i), &g, s.born, s.died);
                    }
                }
                Payload::Freed => {}
            }
        }
    }

    /// Full slot-level export of this database, in id order — the
    /// durability layer's checkpoint domain, including compacted
    /// (payload-less) slots: they still occupy id space, which recovery
    /// must reproduce exactly. Payloads are exported *by extent
    /// location*: any still-unspilled resident payload is appended to
    /// its shard's extent first (staying resident — a checkpoint must
    /// not evict the working set), so after this call every
    /// payload-bearing slot is in the `Payload::Paged` state and the
    /// checkpoint needs only the locations.
    ///
    /// # Panics
    /// Panics when no pager is attached (durable engines always attach
    /// one).
    pub fn export_paged_slots(&mut self) -> Vec<SlotExport> {
        let pager = self.pager.clone().expect("checkpoint export requires an attached pager");
        let shard = self.shard;
        self.slots
            .iter_mut()
            .map(|s| {
                let payload = std::mem::replace(&mut s.payload, Payload::Freed);
                let (payload, loc) = match payload {
                    Payload::Resident(g, tok) => {
                        let loc = pager.spill(shard, &g);
                        let tok = tok.unwrap_or_else(|| {
                            Arc::new(ResidentToken::new(
                                Arc::clone(&pager),
                                g.approx_bytes() as u64,
                            ))
                        });
                        let cell = OnceLock::new();
                        let _ = cell.set((g, tok));
                        (Payload::Paged { loc, cell }, Some(loc))
                    }
                    p @ Payload::Paged { .. } => {
                        let Payload::Paged { loc, .. } = &p else { unreachable!() };
                        let loc = *loc;
                        (p, Some(loc))
                    }
                    Payload::Freed => (Payload::Freed, None),
                };
                s.payload = payload;
                SlotExport {
                    loc,
                    truth: s.truth,
                    predicted: s.predicted,
                    born: s.born,
                    died: s.died,
                }
            })
            .collect()
    }

    /// Appends one slot with explicit lifetime metadata — the
    /// recovery-side inverse of a slot export. Unlike [`GraphDb::push`]
    /// this does not stamp the current epoch and accepts tombstoned
    /// (`died < Epoch::MAX`) and compacted (`graph: None`) slots.
    /// Returns the composed id, which — slots being allocated in
    /// order — equals the id the exported database held at this
    /// position.
    ///
    /// # Panics
    /// Panics when the shard's slot space is exhausted.
    pub fn restore_slot(
        &mut self,
        graph: Option<Graph>,
        truth: ClassLabel,
        predicted: Option<ClassLabel>,
        born: Epoch,
        died: Epoch,
    ) -> GraphId {
        assert!(self.slots.len() <= shard::SLOT_MASK as usize, "shard slot space exhausted");
        let id = self.id_at(self.slots.len());
        let payload = match graph {
            Some(g) => self.make_resident(g),
            None => Payload::Freed,
        };
        self.slots.push(Slot { payload, touch: AtomicU64::new(0), truth, predicted, born, died });
        id
    }

    /// Appends one slot whose payload lives in an extent (`loc: None`
    /// restores a compacted slot) — the recovery-side inverse of
    /// [`GraphDb::export_paged_slots`]. The payload is **not** read:
    /// restoring a checkpointed database is O(metadata), and payloads
    /// fault in lazily on first access. The pager must be attached
    /// before the first such access.
    ///
    /// # Panics
    /// Panics when the shard's slot space is exhausted.
    pub fn restore_slot_paged(
        &mut self,
        loc: Option<ExtentLoc>,
        truth: ClassLabel,
        predicted: Option<ClassLabel>,
        born: Epoch,
        died: Epoch,
    ) -> GraphId {
        assert!(self.slots.len() <= shard::SLOT_MASK as usize, "shard slot space exhausted");
        let id = self.id_at(self.slots.len());
        let payload = match loc {
            Some(loc) => Payload::Paged { loc, cell: OnceLock::new() },
            None => Payload::Freed,
        };
        self.slots.push(Slot { payload, touch: AtomicU64::new(0), truth, predicted, born, died });
        id
    }

    /// Ground-truth label of graph `id`.
    ///
    /// # Panics
    /// Panics when `id` was never allocated by this shard — labels of
    /// foreign-shard ids are a routing bug, never silently aliased.
    pub fn truth(&self, id: GraphId) -> ClassLabel {
        self.slots[self.slot_of(id).expect("graph id from this shard")].truth
    }

    /// Records the classifier's prediction `M(G_id) = l`.
    ///
    /// # Panics
    /// Panics when `id` was never allocated by this shard.
    pub fn set_predicted(&mut self, id: GraphId, label: ClassLabel) {
        let i = self.slot_of(id).expect("graph id from this shard");
        self.slots[i].predicted = Some(label);
    }

    /// The classifier's prediction for graph `id`, if it has been
    /// classified. `None` also for foreign-shard or never-allocated ids.
    pub fn predicted(&self, id: GraphId) -> Option<ClassLabel> {
        self.slot_of(id).and_then(|i| self.slots[i].predicted)
    }

    /// The label group `G^l`: ids of live graphs the classifier assigned
    /// label `l`.
    pub fn label_group(&self, label: ClassLabel) -> Vec<GraphId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live() && s.predicted == Some(label))
            .map(|(i, _)| self.id_at(i))
            .collect()
    }

    /// Label group computed from ground-truth labels (used before a
    /// classifier has been attached, e.g. in unit tests).
    pub fn label_group_truth(&self, label: ClassLabel) -> Vec<GraphId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live() && s.truth == label)
            .map(|(i, _)| self.id_at(i))
            .collect()
    }

    /// The set of distinct ground-truth labels among live graphs, sorted.
    pub fn labels(&self) -> Vec<ClassLabel> {
        let mut l: Vec<ClassLabel> =
            self.slots.iter().filter(|s| s.live()).map(|s| s.truth).collect();
        l.sort_unstable();
        l.dedup();
        l
    }

    /// Total node count across the node group `V` of the live database.
    pub fn total_nodes(&self) -> usize {
        self.iter().map(|(_, g)| g.num_nodes()).sum()
    }

    /// Total undirected edge count across the live database.
    pub fn total_edges(&self) -> usize {
        self.iter().map(|(_, g)| g.num_edges()).sum()
    }

    /// Average nodes per live graph (Table 3 statistic).
    pub fn avg_nodes(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_nodes() as f64 / self.len() as f64
        }
    }

    /// Average edges per live graph (Table 3 statistic).
    pub fn avg_edges(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_edges() as f64 / self.len() as f64
        }
    }

    /// Count of live graphs per ground-truth class.
    pub fn class_histogram(&self) -> FxHashMap<ClassLabel, usize> {
        let mut h = FxHashMap::default();
        for s in self.slots.iter().filter(|s| s.live()) {
            *h.entry(s.truth).or_insert(0) += 1;
        }
        h
    }

    /// Deterministic train/validation/test split of the live graphs by
    /// shuffling with the given seed. Fractions follow §6.1 (80/10/10 by
    /// default).
    pub fn split(&self, train: f64, val: f64, seed: u64) -> Split {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut ids: Vec<GraphId> = self.iter().map(|(id, _)| id).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        let n = ids.len();
        let n_train = ((n as f64) * train).round() as usize;
        let n_val = ((n as f64) * val).round() as usize;
        let n_train = n_train.min(n);
        let n_val = n_val.min(n - n_train);
        Split {
            train: ids[..n_train].to_vec(),
            val: ids[n_train..n_train + n_val].to_vec(),
            test: ids[n_train + n_val..].to_vec(),
        }
    }
}

/// One slot's full state as exported by [`GraphDb::export_paged_slots`]
/// (the checkpoint image of the slot). The payload is referenced by its
/// extent location, not carried inline — checkpoints record where each
/// graph lives, and recovery restores slots cold.
#[derive(Debug, Clone, Copy)]
pub struct SlotExport {
    /// Extent location of the payload; `None` for compacted slots.
    pub loc: Option<ExtentLoc>,
    /// Ground-truth label.
    pub truth: ClassLabel,
    /// Classifier prediction, if recorded.
    pub predicted: Option<ClassLabel>,
    /// Birth epoch.
    pub born: Epoch,
    /// Death epoch ([`Epoch::MAX`] while live).
    pub died: Epoch,
}

/// Train/validation/test partition of a [`GraphDb`].
#[derive(Debug, Clone)]
pub struct Split {
    /// Training graph ids.
    pub train: Vec<GraphId>,
    /// Validation graph ids.
    pub val: Vec<GraphId>,
    /// Test graph ids (explanations are generated for these, per §6.1).
    pub test: Vec<GraphId>,
}
