//! A trace cache shared by many executors.
//!
//! [`TraceCache`](crate::TraceCache) is single-owner: one VM profiles,
//! constructs and dispatches. In a multi-VM deployment every instance
//! would re-discover and re-build identical traces. `SharedTraceCache`
//! lets any number of dispatch threads *read* entry links without ever
//! blocking, while construction (typically a single background thread,
//! see [`crate::offthread`]) publishes hash-consed traces that all VMs
//! reuse.
//!
//! # Structure
//!
//! * **Entry links** live in N lock-striped shards. Each shard is an
//!   open-addressed table of `(AtomicU64 key, AtomicU64 value)` slots —
//!   the same packed-branch scheme as [`trace_bcg::BranchTable`], probed
//!   lock-free by readers. Writers serialize on a per-shard mutex.
//! * **Trace objects** are hash-consed under one mutex into `Arc`-shared
//!   immutable [`SharedTrace`]s; an optional pre-lowered artifact rides
//!   along. The mutex is only touched at construction time and on the
//!   first artifact fetch per VM — never on the per-branch dispatch path.
//! * A global **version** counter extends the single-threaded
//!   version-stamped trace-link protocol (see
//!   [`TraceCache::lookup_entry_cached`](crate::TraceCache::lookup_entry_cached))
//!   to concurrent publication.
//!
//! # Publication protocol
//!
//! The paper's invalidation rule is that dispatch may act on a stale
//! link for at most one probe: any link mutation must eventually force
//! revalidation. Concurrently that becomes:
//!
//! 1. A writer mutates a shard table under its lock — storing a slot's
//!    *value before its key*, both `Release`, so a reader that observes
//!    the key (`Acquire`) always observes a fully-written value: links
//!    are never torn.
//! 2. After the mutation the writer bumps the global version
//!    (`fetch_add`, `Release`).
//! 3. A reader loads the version (`Acquire`) *before* probing. The
//!    `Acquire` pairs with the bump's `Release`: every mutation at or
//!    below the loaded version is visible to the probe. The BCG slot is
//!    stamped with the *pre-probe* version, so a mutation that lands
//!    between load and probe leaves the stamp already-stale and the next
//!    dispatch revalidates. A stamped answer can therefore be newer than
//!    its stamp, never older — and never outlives the next mutation.
//!
//! Deletion uses tombstones (a backward-shift delete would move slots
//! under a concurrent reader's feet); growth publishes a rehashed table
//! through an `AtomicPtr` and retires the old one until the cache drops,
//! so a reader mid-probe keeps a valid (if stale) table.
//!
//! # Memory budget, eviction, quarantine
//!
//! [`set_budget`](SharedTraceCache::set_budget) bounds the payload bytes
//! the cache may hold; every insert then runs the same deterministic
//! second-chance sweep as the single-owner cache (see
//! [`crate::TraceCache`] docs), unlinking cold entries and tombstoning
//! traces whose last link goes. An eviction is just another link
//! mutation under this protocol: the shard write + version bump force
//! every VM's inline slots to revalidate, and a VM already holding the
//! artifact `Arc` finishes its dispatch safely on the retired trace —
//! never a dangling artifact, at worst one stale (but valid) entry.
//! [`quarantine`](SharedTraceCache::quarantine) tombstones a faulting
//! trace, removes all its links and blacklists the `(entry, path)` key
//! until the cooldown decays (one tick per refused
//! [`try_insert_and_link_with`](SharedTraceCache::try_insert_and_link_with)).
//!
//! An attached [`FaultPlan`](crate::FaultPlan) can deterministically
//! corrupt freshly built artifacts (surfaced to executors through
//! [`artifact_checked`](SharedTraceCache::artifact_checked)) and fail
//! budget checks; both are exercise paths for the degradation ladder,
//! never semantic changes.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use jvm_bytecode::BlockId;
use trace_bcg::node::NO_TRACE_LINK;
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx, PackedBranch};

use crate::cache::trace_cost;
use crate::error::TraceCacheError;
use crate::faults::{FaultPlan, FaultSite};
use crate::health::{Demotion, HealthLedger, HealthStats, OutcomeRecord, TraceHealth};
use crate::trace::TraceId;

/// Empty-slot key marker; `PackedBranch` cannot produce it for a real
/// branch (same convention as `trace_bcg::BranchTable`).
const KEY_EMPTY: u64 = u64::MAX;
/// Value marking a deleted link. Live values are raw `TraceId`s (≤
/// `u32::MAX - 1`), so the marker cannot collide.
const VAL_TOMBSTONE: u64 = u64::MAX;
/// Fibonacci multiplier for in-table home slots (same as `BranchTable`).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// A *different* odd multiplier for shard selection, so the bits that
/// pick the shard are uncorrelated with the bits that pick the home slot.
const SHARD_MIX: u64 = 0xA24B_AED4_963E_E407;
/// Slots in a fresh shard table.
const INITIAL_SLOTS: usize = 16;
/// Default shard count.
const DEFAULT_SHARDS: usize = 16;

/// Locks a mutex, recovering the data on poisoning: a constructor
/// worker that panicked mid-insert leaves individually-valid state
/// (links are written atomically, counters are monotonic), and the
/// supervisor is the layer that decides whether to keep going.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Slot {
    key: AtomicU64,
    val: AtomicU64,
}

struct SlotTable {
    /// `slots.len() - 1`; the length is a power of two.
    mask: usize,
    /// `64 - log2(slots.len())`: the home-slot shift.
    shift: u32,
    slots: Box<[Slot]>,
}

impl SlotTable {
    fn alloc(len: usize) -> Box<SlotTable> {
        debug_assert!(len.is_power_of_two());
        let slots: Box<[Slot]> = (0..len)
            .map(|_| Slot {
                key: AtomicU64::new(KEY_EMPTY),
                val: AtomicU64::new(VAL_TOMBSTONE),
            })
            .collect();
        Box::new(SlotTable {
            mask: len - 1,
            shift: 64 - len.trailing_zeros(),
            slots,
        })
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MIX) >> self.shift) as usize
    }
}

/// Writer-side bookkeeping, guarded by the shard mutex.
#[derive(Default)]
struct ShardWrite {
    live: usize,
    tombstones: usize,
}

/// Owned table pointer retired by growth; freed when the shard drops.
struct Retired(*mut SlotTable);
// Safety: the pointer is uniquely owned by the retired list and only
// dereferenced (to free) at drop time.
unsafe impl Send for Retired {}

struct Shard {
    table: AtomicPtr<SlotTable>,
    write: Mutex<ShardWrite>,
    retired: Mutex<Vec<Retired>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            table: AtomicPtr::new(Box::into_raw(SlotTable::alloc(INITIAL_SLOTS))),
            write: Mutex::new(ShardWrite::default()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The current table.
    ///
    /// # Safety (internal)
    ///
    /// The pointer is always valid while `&self` is held: tables are
    /// only ever swapped for a newer one (the old pointer moving to the
    /// retired list) and freed at drop, which requires `&mut self`.
    #[inline]
    fn table(&self) -> &SlotTable {
        unsafe { &*self.table.load(Acquire) }
    }

    /// Lock-free probe. Terminates because writers keep the table at
    /// most 7/8 full (counting tombstones), so an empty slot exists.
    fn lookup(&self, key: u64) -> Option<u64> {
        let t = self.table();
        let mut i = t.home(key);
        loop {
            let k = t.slots[i].key.load(Acquire);
            if k == KEY_EMPTY {
                return None;
            }
            if k == key {
                let v = t.slots[i].val.load(Acquire);
                return (v != VAL_TOMBSTONE).then_some(v);
            }
            i = (i + 1) & t.mask;
        }
    }

    /// Inserts or updates a link. Caller holds the write lock. Returns
    /// the previous live value, if any.
    fn insert(&self, key: u64, val: u64, w: &mut ShardWrite) -> Option<u64> {
        debug_assert!(val != VAL_TOMBSTONE);
        loop {
            let t = self.table();
            let mut i = t.home(key);
            loop {
                let k = t.slots[i].key.load(Relaxed);
                if k == key {
                    let old = t.slots[i].val.swap(val, Release);
                    return if old == VAL_TOMBSTONE {
                        w.tombstones -= 1;
                        w.live += 1;
                        None
                    } else {
                        Some(old)
                    };
                }
                if k == KEY_EMPTY {
                    if (w.live + w.tombstones + 1) * 8 > t.slots.len() * 7 {
                        self.grow(w);
                        break; // re-probe against the new table
                    }
                    // Value first, then key: a reader that sees the key
                    // sees the value.
                    t.slots[i].val.store(val, Release);
                    t.slots[i].key.store(key, Release);
                    w.live += 1;
                    return None;
                }
                i = (i + 1) & t.mask;
            }
        }
    }

    /// Tombstones a link. Caller holds the write lock.
    fn remove(&self, key: u64, w: &mut ShardWrite) -> Option<u64> {
        let t = self.table();
        let mut i = t.home(key);
        loop {
            let k = t.slots[i].key.load(Relaxed);
            if k == KEY_EMPTY {
                return None;
            }
            if k == key {
                let old = t.slots[i].val.swap(VAL_TOMBSTONE, Release);
                return (old != VAL_TOMBSTONE).then(|| {
                    w.live -= 1;
                    w.tombstones += 1;
                    old
                });
            }
            i = (i + 1) & t.mask;
        }
    }

    /// Rehashes into a fresh table (doubling if genuinely full, else
    /// just shedding tombstones) and publishes it. Caller holds the
    /// write lock, so relaxed reads of the old table are exact.
    fn grow(&self, w: &mut ShardWrite) {
        let old = self.table();
        let cap = old.slots.len();
        let new_len = if (w.live + 1) * 8 > cap * 7 {
            cap * 2
        } else {
            cap
        };
        let new = SlotTable::alloc(new_len);
        for slot in old.slots.iter() {
            let k = slot.key.load(Relaxed);
            if k == KEY_EMPTY {
                continue;
            }
            let v = slot.val.load(Relaxed);
            if v == VAL_TOMBSTONE {
                continue;
            }
            let mut i = new.home(k);
            while new.slots[i].key.load(Relaxed) != KEY_EMPTY {
                i = (i + 1) & new.mask;
            }
            new.slots[i].val.store(v, Relaxed);
            new.slots[i].key.store(k, Relaxed);
        }
        w.tombstones = 0;
        let old_ptr = self.table.swap(Box::into_raw(new), Release);
        lock_recover(&self.retired).push(Retired(old_ptr));
    }

    fn memory_bytes(&self) -> usize {
        let current = self.table().slots.len() * std::mem::size_of::<Slot>();
        let retired: usize = lock_recover(&self.retired)
            .iter()
            .map(|r| unsafe { (*r.0).mask + 1 } * std::mem::size_of::<Slot>())
            .sum();
        current + retired
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        unsafe {
            drop(Box::from_raw(self.table.load(Relaxed)));
            let retired = self
                .retired
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for r in retired.drain(..) {
                drop(Box::from_raw(r.0));
            }
        }
    }
}

/// A hash-consed trace shared across VMs: the block sequence, the
/// completion estimate stamped at first construction, and an optional
/// pre-built execution artifact (e.g. a lowered trace).
pub struct SharedTrace<A> {
    /// The block sequence; `blocks[0]` is the entry block.
    pub blocks: Arc<[BlockId]>,
    /// Completion probability estimated at first construction.
    pub expected_completion: f64,
    /// Execution artifact, if the builder produced one. Raw access —
    /// executors must go through
    /// [`SharedTraceCache::artifact_checked`] so corruption is caught.
    pub artifact: Option<Arc<A>>,
    /// Integrity flag set by fault injection
    /// ([`FaultSite::CorruptArtifact`]). A corrupt artifact must never
    /// be executed; [`SharedTraceCache::artifact_checked`] surfaces it
    /// as [`TraceCacheError::CorruptArtifact`].
    pub corrupted: bool,
}

impl<A> Clone for SharedTrace<A> {
    fn clone(&self) -> Self {
        SharedTrace {
            blocks: self.blocks.clone(),
            expected_completion: self.expected_completion,
            artifact: self.artifact.clone(),
            corrupted: self.corrupted,
        }
    }
}

struct ConsState<A> {
    by_blocks: HashMap<Arc<[BlockId]>, TraceId>,
    /// Slot per id ever assigned; `None` marks a tombstoned (evicted or
    /// quarantined) trace. Ids are never reused.
    traces: Vec<Option<SharedTrace<A>>>,
    /// Byte cost charged per trace; zeroed when tombstoned.
    costs: Vec<usize>,
    /// Live entry-link keys per trace (reverse of the shard tables).
    entry_keys: Vec<Vec<u64>>,
    /// Second-chance sweep order (may hold stale keys; `referenced` is
    /// the source of truth).
    clock: VecDeque<u64>,
    /// Live link keys → second-chance bit.
    referenced: HashMap<u64, bool>,
    /// Blacklist: entry key → (exact block path, refusals remaining).
    quarantined: HashMap<u64, (Vec<BlockId>, u32)>,
    /// Sum of `costs` over live traces.
    payload: usize,
    /// Byte budget on `payload`; `None` disables eviction.
    budget: Option<usize>,
    /// Artifact byte-measure hook, installed with the budget.
    measure: Option<MeasureFn<A>>,
}

/// Artifact byte-measure hook installed alongside a payload budget.
type MeasureFn<A> = Box<dyn Fn(&A) -> usize + Send + Sync>;

impl<A> ConsState<A> {
    fn new() -> Self {
        ConsState {
            by_blocks: HashMap::new(),
            traces: Vec::new(),
            costs: Vec::new(),
            entry_keys: Vec::new(),
            clock: VecDeque::new(),
            referenced: HashMap::new(),
            quarantined: HashMap::new(),
            payload: 0,
            budget: None,
            measure: None,
        }
    }
}

/// Snapshot of the shared cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// New trace objects constructed.
    pub traces_constructed: u64,
    /// Insertions that found an identical block sequence already cached —
    /// the cross-VM dedup hits.
    pub traces_deduped: u64,
    /// Entry links written (new or re-linked).
    pub links_written: u64,
    /// Links that replaced a different trace (instability events).
    pub links_replaced: u64,
    /// Links removed.
    pub links_removed: u64,
    /// Links evicted by the budget's second-chance sweep.
    pub links_evicted: u64,
    /// Traces tombstoned (last link evicted, or quarantined) and their
    /// storage reclaimed.
    pub traces_evicted: u64,
    /// Traces tombstoned by [`SharedTraceCache::quarantine`].
    pub traces_quarantined: u64,
    /// Construction attempts refused by the quarantine blacklist.
    pub quarantine_rejected: u64,
    /// Budget-enforcement passes that ended while still over budget.
    pub budget_overruns: u64,
    /// Entry branches currently linked.
    pub links_live: usize,
    /// Current publication version.
    pub version: u64,
}

impl SharedCacheStats {
    /// Fraction of insertions served by hash-consing, in `[0, 1]`.
    pub fn dedup_hit_rate(&self) -> f64 {
        let total = self.traces_constructed + self.traces_deduped;
        if total == 0 {
            0.0
        } else {
            self.traces_deduped as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct StatsAtomic {
    traces_constructed: AtomicU64,
    traces_deduped: AtomicU64,
    links_written: AtomicU64,
    links_replaced: AtomicU64,
    links_removed: AtomicU64,
    links_evicted: AtomicU64,
    traces_evicted: AtomicU64,
    traces_quarantined: AtomicU64,
    quarantine_rejected: AtomicU64,
    budget_overruns: AtomicU64,
    links_live: AtomicUsize,
}

/// The shared trace cache. See the module docs for the protocol.
///
/// Generic over the artifact type `A` so this crate needs no knowledge
/// of the executor's lowered representation; the executor instantiates
/// `SharedTraceCache<RegTrace>`.
///
/// A cache must be shared only between VMs running the *same program*:
/// block ids carry no program identity, and artifacts are only valid
/// against the program they were lowered from.
///
/// A given VM must route all its lookups through a single cache —
/// [`lookup_entry_cached`](Self::lookup_entry_cached) stamps the BCG's
/// per-node link slots, which are only meaningful to the cache that
/// stamped them.
pub struct SharedTraceCache<A> {
    shards: Box<[Shard]>,
    shard_mask: usize,
    version: AtomicU64,
    cons: Mutex<ConsState<A>>,
    stats: StatsAtomic,
    faults: OnceLock<Arc<FaultPlan>>,
    /// Whole-lifetime trace-health telemetry and demotion ladder.
    /// Locked after `cons` when both are needed (admission, tombstone);
    /// outcome batches and epoch scoring take only this lock.
    health: Mutex<HealthLedger>,
}

impl<A> Default for SharedTraceCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> SharedTraceCache<A> {
    /// A cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with `n` lock-striped shards (rounded up to a power of
    /// two, clamped to `1..=256`).
    pub fn with_shards(n: usize) -> Self {
        let n = n.clamp(1, 256).next_power_of_two();
        SharedTraceCache {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_mask: n - 1,
            version: AtomicU64::new(0),
            cons: Mutex::new(ConsState::new()),
            stats: StatsAtomic::default(),
            faults: OnceLock::new(),
            health: Mutex::new(HealthLedger::default()),
        }
    }

    fn cons(&self) -> MutexGuard<'_, ConsState<A>> {
        lock_recover(&self.cons)
    }

    /// Attaches a fault plan; first call wins, later calls are ignored.
    /// The plan fires at [`FaultSite::CorruptArtifact`] (once per built
    /// artifact) and [`FaultSite::BudgetCheck`] (once per insert; a hit
    /// enforces a zero budget for that insert).
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.faults.set(plan);
    }

    #[inline]
    fn shard_for(&self, key: u64) -> &Shard {
        // Top byte of a second-multiplier mix: uncorrelated with the
        // in-table home slot bits.
        let h = key.wrapping_mul(SHARD_MIX);
        &self.shards[(h >> 56) as usize & self.shard_mask]
    }

    /// The current publication version (bumped after every link
    /// mutation).
    pub fn version(&self) -> u64 {
        self.version.load(Acquire)
    }

    /// The trace linked at an entry branch, if any. Lock-free.
    #[inline]
    pub fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        let key = PackedBranch::pack(entry).0;
        self.shard_for(key).lookup(key).map(|v| TraceId(v as u32))
    }

    /// The dispatch check via a BCG node's inline trace-link slot —
    /// the concurrent analogue of
    /// [`TraceCache::lookup_entry_cached`](crate::TraceCache::lookup_entry_cached).
    ///
    /// The BCG (and its slots) are private to the calling VM; only the
    /// version counter and the shard probe touch shared state. The slot
    /// is stamped with the version loaded *before* the probe, so a
    /// publication racing this lookup leaves the stamp stale and the
    /// next dispatch revalidates (see the module docs).
    #[inline]
    pub fn lookup_entry_cached(
        &self,
        bcg: &mut BranchCorrelationGraph,
        node: NodeIdx,
    ) -> Option<TraceId> {
        let (stamp, raw) = bcg.node(node).trace_link();
        let v = self.version.load(Acquire);
        if stamp == v {
            return (raw != NO_TRACE_LINK).then_some(TraceId(raw));
        }
        let found = self.lookup_entry(bcg.node(node).branch());
        bcg.set_trace_link(node, v, found.map_or(NO_TRACE_LINK, |t| t.0));
        found
    }

    /// Hash-conses a block sequence (building its artifact on first
    /// construction), links it at `entry`, and enforces the byte budget
    /// (the just-written link is never the victim). Returns the trace
    /// id and whether a new trace object was constructed.
    ///
    /// `build` runs under the construction mutex — acceptable because
    /// construction is rare and (in the off-thread design) single-caller;
    /// dispatch threads never take that mutex on the hot path.
    ///
    /// This path does **not** consult the quarantine blacklist — the
    /// constructor goes through [`Self::try_insert_and_link_with`].
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or `entry.1 != blocks[0]`.
    pub fn insert_and_link_with(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
        build: impl FnOnce(&[BlockId]) -> Option<A>,
    ) -> (TraceId, bool) {
        match self.insert_inner(entry, blocks, expected_completion, build, false) {
            Ok(r) => r,
            Err(_) => unreachable!("quarantine is not consulted on this path"),
        }
    }

    /// [`Self::insert_and_link_with`] behind the quarantine blacklist:
    /// a quarantined `(entry, path)` key is refused and its cooldown
    /// ticks down by one; at zero the key is re-admitted and the *next*
    /// attempt succeeds.
    pub fn try_insert_and_link_with(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
        build: impl FnOnce(&[BlockId]) -> Option<A>,
    ) -> Result<(TraceId, bool), TraceCacheError> {
        self.insert_inner(entry, blocks, expected_completion, build, true)
    }

    fn insert_inner(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
        build: impl FnOnce(&[BlockId]) -> Option<A>,
        check_quarantine: bool,
    ) -> Result<(TraceId, bool), TraceCacheError> {
        assert!(!blocks.is_empty(), "trace must contain at least one block");
        assert_eq!(
            entry.1, blocks[0],
            "entry branch must target the trace's first block"
        );
        let key = PackedBranch::pack(entry).0;
        let mut cons = self.cons();
        if check_quarantine {
            if let Some((qblocks, remaining)) = cons.quarantined.get_mut(&key) {
                if *qblocks == blocks {
                    *remaining -= 1;
                    let left = *remaining;
                    if left == 0 {
                        cons.quarantined.remove(&key);
                    }
                    self.stats.quarantine_rejected.fetch_add(1, Relaxed);
                    return Err(TraceCacheError::Quarantined {
                        entry,
                        remaining: left,
                    });
                }
            }
        }
        let (id, created) = match cons.by_blocks.get(blocks.as_slice()) {
            Some(&id) => {
                self.stats.traces_deduped.fetch_add(1, Relaxed);
                (id, false)
            }
            None => {
                let blocks: Arc<[BlockId]> = blocks.into();
                let id = TraceId(cons.traces.len() as u32);
                let artifact = build(&blocks).map(Arc::new);
                let corrupted = artifact.is_some()
                    && self
                        .faults
                        .get()
                        .is_some_and(|p| p.fire(FaultSite::CorruptArtifact));
                let cost = trace_cost(blocks.len())
                    + match (&artifact, &cons.measure) {
                        (Some(a), Some(m)) => m(a),
                        _ => 0,
                    };
                cons.traces.push(Some(SharedTrace {
                    blocks: blocks.clone(),
                    expected_completion,
                    artifact,
                    corrupted,
                }));
                cons.costs.push(cost);
                cons.entry_keys.push(Vec::new());
                cons.payload += cost;
                cons.by_blocks.insert(blocks, id);
                self.stats.traces_constructed.fetch_add(1, Relaxed);
                (id, true)
            }
        };
        let shard = self.shard_for(key);
        {
            let mut w = lock_recover(&shard.write);
            match shard.insert(key, u64::from(id.0), &mut w) {
                Some(old) if old != u64::from(id.0) => {
                    self.stats.links_replaced.fetch_add(1, Relaxed);
                    let old = TraceId(old as u32);
                    cons.entry_keys[old.index()].retain(|&k| k != key);
                    self.reclaim_if_unlinked(&mut cons, old);
                }
                Some(_) => {}
                None => {
                    self.stats.links_live.fetch_add(1, Relaxed);
                }
            }
            self.stats.links_written.fetch_add(1, Relaxed);
        }
        // Second-chance bookkeeping: first-time links enter the sweep
        // unreferenced; touching a live link grants it another round.
        match cons.referenced.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.insert(true);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(false);
                cons.clock.push_back(key);
            }
        }
        if !cons.entry_keys[id.index()].contains(&key) {
            cons.entry_keys[id.index()].push(key);
        }
        lock_recover(&self.health).note_admission(id, entry);
        let budget = if self
            .faults
            .get()
            .is_some_and(|p| p.fire(FaultSite::BudgetCheck))
        {
            Some(0)
        } else {
            cons.budget
        };
        self.enforce_budget(&mut cons, budget, key);
        drop(cons);
        // Bump *after* the mutation: a reader that observes this version
        // is guaranteed to observe the link (Release/Acquire pairing).
        self.version.fetch_add(1, Release);
        Ok((id, created))
    }

    /// [`Self::insert_and_link_with`] without an artifact.
    pub fn insert_and_link(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
    ) -> (TraceId, bool) {
        self.insert_and_link_with(entry, blocks, expected_completion, |_| None)
    }

    /// [`Self::try_insert_and_link_with`] without an artifact.
    pub fn try_insert_and_link(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
    ) -> Result<(TraceId, bool), TraceCacheError> {
        self.try_insert_and_link_with(entry, blocks, expected_completion, |_| None)
    }

    /// Removes the link at an entry branch, if any.
    pub fn unlink(&self, entry: Branch) -> Option<TraceId> {
        let key = PackedBranch::pack(entry).0;
        let mut cons = self.cons();
        let shard = self.shard_for(key);
        let removed = {
            let mut w = lock_recover(&shard.write);
            shard.remove(key, &mut w)
        };
        removed.map(|v| {
            let id = TraceId(v as u32);
            self.stats.links_removed.fetch_add(1, Relaxed);
            self.stats.links_live.fetch_sub(1, Relaxed);
            cons.referenced.remove(&key);
            cons.entry_keys[id.index()].retain(|&k| k != key);
            self.reclaim_if_unlinked(&mut cons, id);
            drop(cons);
            self.version.fetch_add(1, Release);
            id
        })
    }

    /// Tombstones the trace linked at `entry`, removes *all* of its
    /// entry links, and blacklists the faulting `(entry, path)` key for
    /// `cooldown` refused construction attempts. The version bump
    /// forces every VM's cached dispatches to revalidate. Returns the
    /// tombstoned id, or `None` if nothing is linked at `entry`.
    pub fn quarantine(&self, entry: Branch, cooldown: u32) -> Option<TraceId> {
        let key = PackedBranch::pack(entry).0;
        let mut cons = self.cons();
        let raw = self.shard_for(key).lookup(key)?;
        let id = TraceId(raw as u32);
        let blocks = cons.traces[id.index()].as_ref()?.blocks.to_vec();
        cons.quarantined.insert(key, (blocks, cooldown.max(1)));
        for k in std::mem::take(&mut cons.entry_keys[id.index()]) {
            let shard = self.shard_for(k);
            let mut w = lock_recover(&shard.write);
            if shard.remove(k, &mut w).is_some() {
                self.stats.links_removed.fetch_add(1, Relaxed);
                self.stats.links_live.fetch_sub(1, Relaxed);
            }
            cons.referenced.remove(&k);
        }
        self.tombstone(&mut cons, id);
        self.stats.traces_quarantined.fetch_add(1, Relaxed);
        drop(cons);
        self.version.fetch_add(1, Release);
        Some(id)
    }

    /// Sets (or clears) the payload byte budget, installs the artifact
    /// byte-measure hook, and immediately enforces the budget. Set the
    /// budget *before* populating the cache: traces inserted earlier
    /// were costed without artifact bytes.
    pub fn set_budget(
        &self,
        budget: Option<usize>,
        measure: impl Fn(&A) -> usize + Send + Sync + 'static,
    ) {
        let mut cons = self.cons();
        cons.budget = budget;
        cons.measure = Some(Box::new(measure));
        let b = cons.budget;
        self.enforce_budget(&mut cons, b, u64::MAX);
        drop(cons);
        self.version.fetch_add(1, Release);
    }

    /// The configured payload budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.cons().budget
    }

    /// Bytes currently charged against the budget: block sequences,
    /// per-trace overhead, and measured artifact bytes of live traces.
    pub fn payload_bytes(&self) -> usize {
        self.cons().payload
    }

    /// The quarantine blacklist: `(entry, path, refusals remaining)`,
    /// sorted by packed entry key.
    pub fn quarantine_snapshot(&self) -> Vec<(Branch, Vec<BlockId>, u32)> {
        let cons = self.cons();
        let mut keys: Vec<&u64> = cons.quarantined.keys().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let (blocks, remaining) = &cons.quarantined[k];
                (PackedBranch(*k).unpack(), blocks.clone(), *remaining)
            })
            .collect()
    }

    /// Ingests a batch of dispatch outcomes into the health ledger.
    /// Takes only the health lock — never the construction mutex — so
    /// dispatch threads flushing batches don't contend with the
    /// constructor.
    pub fn record_outcomes(&self, batch: &[OutcomeRecord]) {
        let mut h = lock_recover(&self.health);
        for rec in batch {
            h.record(rec);
        }
    }

    /// Run-length-encoded variant of [`SharedTraceCache::record_outcomes`]:
    /// each `(record, n)` entry stands for `n` identical consecutive
    /// outcomes. Takes the health lock once for the whole batch.
    pub fn record_outcome_runs(&self, runs: &[(OutcomeRecord, u64)]) {
        let mut h = lock_recover(&self.health);
        for (rec, n) in runs {
            h.record_run(rec, *n);
        }
    }

    /// Closes the health epoch and returns the demotion decisions (see
    /// [`crate::run_health_epoch`] for how they are applied).
    pub fn epoch_demotions(&self) -> Vec<Demotion> {
        lock_recover(&self.health).epoch()
    }

    /// Health ledger counters.
    pub fn health_stats(&self) -> HealthStats {
        lock_recover(&self.health).stats()
    }

    /// Health telemetry snapshot for one tracked trace.
    pub fn trace_health(&self, id: TraceId) -> Option<TraceHealth> {
        lock_recover(&self.health).health_of(id).cloned()
    }

    fn tombstone(&self, cons: &mut ConsState<A>, id: TraceId) {
        let i = id.index();
        debug_assert!(cons.entry_keys[i].is_empty());
        cons.payload -= cons.costs[i];
        cons.costs[i] = 0;
        if let Some(t) = cons.traces[i].take() {
            cons.by_blocks.remove(&t.blocks[..]);
        }
        self.stats.traces_evicted.fetch_add(1, Relaxed);
        lock_recover(&self.health).forget(id);
    }

    /// In budget mode an unlinked trace can never be chosen by the
    /// sweep, so it is reclaimed as soon as its last link goes (same
    /// rule as the single-owner cache).
    fn reclaim_if_unlinked(&self, cons: &mut ConsState<A>, id: TraceId) {
        if cons.budget.is_some()
            && cons.entry_keys[id.index()].is_empty()
            && cons.traces[id.index()].is_some()
        {
            self.tombstone(cons, id);
        }
    }

    /// Evicts links (second-chance, insertion order — identical policy
    /// to [`crate::TraceCache`]) until the payload fits `budget`.
    fn enforce_budget(&self, cons: &mut ConsState<A>, budget: Option<usize>, protect: u64) {
        let Some(budget) = budget else {
            return;
        };
        while cons.payload > budget {
            let mut victim = None;
            let mut remaining = 2 * cons.clock.len() + 1;
            while remaining > 0 {
                remaining -= 1;
                let Some(key) = cons.clock.pop_front() else {
                    break;
                };
                match cons.referenced.get(&key).copied() {
                    None => continue, // stale: unlinked outside the sweep
                    Some(_) if key == protect => cons.clock.push_back(key),
                    Some(true) => {
                        cons.referenced.insert(key, false);
                        cons.clock.push_back(key);
                    }
                    Some(false) => {
                        victim = Some(key);
                        break;
                    }
                }
            }
            let Some(key) = victim else {
                self.stats.budget_overruns.fetch_add(1, Relaxed);
                break;
            };
            let shard = self.shard_for(key);
            let removed = {
                let mut w = lock_recover(&shard.write);
                shard.remove(key, &mut w)
            };
            cons.referenced.remove(&key);
            let Some(raw) = removed else {
                continue; // sweep raced an unlink; key already gone
            };
            let id = TraceId(raw as u32);
            self.stats.links_evicted.fetch_add(1, Relaxed);
            self.stats.links_live.fetch_sub(1, Relaxed);
            cons.entry_keys[id.index()].retain(|&k| k != key);
            if cons.entry_keys[id.index()].is_empty() {
                self.tombstone(cons, id);
            }
        }
    }

    /// The shared trace object for an id (blocks, completion, artifact);
    /// `None` for unknown or tombstoned ids.
    pub fn trace(&self, id: TraceId) -> Option<SharedTrace<A>> {
        self.cons().traces.get(id.index()).and_then(|t| t.clone())
    }

    /// The execution artifact for a trace, if one was built. Raw access
    /// — dispatch paths use [`Self::artifact_checked`].
    pub fn artifact(&self, id: TraceId) -> Option<Arc<A>> {
        self.cons()
            .traces
            .get(id.index())
            .and_then(|t| t.as_ref())
            .and_then(|t| t.artifact.clone())
    }

    /// The execution artifact with integrity surfaced: `Err` for ids
    /// this cache never assigned, tombstoned traces, and corrupt
    /// artifacts; `Ok(None)` for live artifact-less traces (keep
    /// interpreting). A VM receiving
    /// [`TraceCacheError::CorruptArtifact`] must not execute the
    /// artifact and should [`Self::quarantine`] the entry it dispatched
    /// from.
    pub fn artifact_checked(&self, id: TraceId) -> Result<Option<Arc<A>>, TraceCacheError> {
        let cons = self.cons();
        match cons.traces.get(id.index()) {
            None => Err(TraceCacheError::UnknownTrace(id)),
            Some(None) => Err(TraceCacheError::Evicted(id)),
            Some(Some(t)) if t.corrupted => Err(TraceCacheError::CorruptArtifact(id)),
            Some(Some(t)) => Ok(t.artifact.clone()),
        }
    }

    /// Number of distinct trace objects ever constructed (tombstoned
    /// slots included; ids are never reused).
    pub fn trace_count(&self) -> usize {
        self.cons().traces.len()
    }

    /// Number of live (non-tombstoned) trace objects.
    pub fn live_trace_count(&self) -> usize {
        self.cons().traces.iter().flatten().count()
    }

    /// Number of live entry links.
    pub fn link_count(&self) -> usize {
        self.stats.links_live.load(Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            traces_constructed: self.stats.traces_constructed.load(Relaxed),
            traces_deduped: self.stats.traces_deduped.load(Relaxed),
            links_written: self.stats.links_written.load(Relaxed),
            links_replaced: self.stats.links_replaced.load(Relaxed),
            links_removed: self.stats.links_removed.load(Relaxed),
            links_evicted: self.stats.links_evicted.load(Relaxed),
            traces_evicted: self.stats.traces_evicted.load(Relaxed),
            traces_quarantined: self.stats.traces_quarantined.load(Relaxed),
            quarantine_rejected: self.stats.quarantine_rejected.load(Relaxed),
            budget_overruns: self.stats.budget_overruns.load(Relaxed),
            links_live: self.stats.links_live.load(Relaxed),
            version: self.version.load(Acquire),
        }
    }

    /// Estimated heap footprint in bytes: shard tables (current and
    /// retired), the hash-consing index, trace objects and their block
    /// sequences, and artifacts as measured by `artifact_bytes`.
    /// Tombstoned traces contribute only their (empty) table slot.
    pub fn memory_estimate(&self, artifact_bytes: impl Fn(&A) -> usize) -> usize {
        use std::mem::size_of;
        let shards: usize = self.shards.iter().map(|s| s.memory_bytes()).sum();
        let cons = self.cons();
        let index = cons.by_blocks.capacity()
            * (size_of::<Arc<[BlockId]>>() + size_of::<TraceId>() + size_of::<u64>());
        let traces = cons.traces.capacity() * size_of::<Option<SharedTrace<A>>>();
        let payload: usize = cons
            .traces
            .iter()
            .flatten()
            .map(|t| {
                t.blocks.len() * size_of::<BlockId>()
                    + t.artifact.as_deref().map_or(0, &artifact_bytes)
            })
            .sum();
        shards + index + traces + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    #[test]
    fn insert_links_and_retrieves() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, created) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        assert!(created);
        assert_eq!(c.lookup_entry(entry), Some(id));
        let t = c.trace(id).unwrap();
        assert_eq!(&t.blocks[..], &[blk(1), blk(2)]);
        assert_eq!(t.expected_completion, 0.99);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.link_count(), 1);
    }

    #[test]
    fn hash_consing_dedups_across_entries() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        let (a, ca) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        let (b, cb) = c.insert_and_link((blk(9), blk(1)), vec![blk(1), blk(2)], 0.98);
        assert!(ca);
        assert!(!cb);
        assert_eq!(a, b);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.link_count(), 2);
        let s = c.stats();
        assert_eq!(s.traces_deduped, 1);
        assert_eq!(s.dedup_hit_rate(), 0.5);
    }

    #[test]
    fn unlink_removes_entry_but_keeps_trace() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, _) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.unlink(entry), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.unlink(entry), None);
        // Relinking over the tombstone works.
        let (id2, created) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        assert_eq!(id2, id);
        assert!(!created);
        assert_eq!(c.lookup_entry(entry), Some(id));
    }

    #[test]
    fn artifacts_are_built_once_and_shared() {
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::new();
        let mut builds = 0;
        let (id, _) = c.insert_and_link_with((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99, |b| {
            builds += 1;
            Some(b.to_vec())
        });
        let (_, _) = c.insert_and_link_with((blk(5), blk(1)), vec![blk(1), blk(2)], 0.99, |b| {
            builds += 1;
            Some(b.to_vec())
        });
        assert_eq!(builds, 1, "dedup hit must not rebuild the artifact");
        let a1 = c.artifact(id).unwrap();
        let a2 = c.artifact(id).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(&a1[..], &[blk(1), blk(2)]);
        assert_eq!(
            c.artifact_checked(id).unwrap().unwrap()[..],
            [blk(1), blk(2)]
        );
    }

    #[test]
    fn growth_keeps_all_links_findable() {
        // One shard so every link lands in the same table and forces
        // several growth rounds.
        let c: SharedTraceCache<()> = SharedTraceCache::with_shards(1);
        let mut expect = Vec::new();
        for i in 0..300u32 {
            let entry = (blk(i), blk(i + 1));
            let (id, _) = c.insert_and_link(entry, vec![blk(i + 1), blk(i + 2)], 0.99);
            expect.push((entry, id));
        }
        for (entry, id) in expect {
            assert_eq!(c.lookup_entry(entry), Some(id));
        }
        assert_eq!(c.link_count(), 300);
    }

    #[test]
    fn tombstone_churn_does_not_grow_forever() {
        let c: SharedTraceCache<()> = SharedTraceCache::with_shards(1);
        let entry = |i: u32| (blk(i), blk(i + 1));
        // Insert/remove churn over a small working set: rebuilds shed
        // tombstones instead of doubling without bound.
        for round in 0..200u32 {
            for i in 0..8 {
                c.insert_and_link(entry(i), vec![blk(i + 1), blk(i + 2)], 0.99);
            }
            for i in 0..8 {
                assert!(c.unlink(entry(i)).is_some(), "round {round} item {i}");
            }
        }
        assert_eq!(c.link_count(), 0);
        // 8 live keys fit comfortably; the table must have stayed small.
        let bytes = c.shards[0].table().slots.len();
        assert!(bytes <= 64, "shard table grew to {bytes} slots");
    }

    #[test]
    fn cached_lookup_mirrors_single_threaded_protocol() {
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        bcg.observe(blk(0));
        let n = bcg.observe(blk(1)).expect("branch node");
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        // Negative result is cached in the slot.
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        assert_eq!(bcg.node(n).trace_link(), (c.version(), NO_TRACE_LINK));
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        // A publication bumps the version; the stale negative revalidates.
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(bcg.node(n).trace_link(), (c.version(), id.0));
        // Unlink invalidates the cached positive.
        c.unlink((blk(0), blk(1)));
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
    }

    /// Satellite: a reader racing a republish never observes a torn
    /// link. The writer relinks one entry back and forth between two
    /// traces (and occasionally unlinks it) while readers — one raw,
    /// one through version-stamped BCG slots — continuously resolve the
    /// entry. Every observed id must resolve to one of the two exact
    /// block sequences; a torn slot (key without value, stale table
    /// mid-growth, value from the other trace's republish) would fail
    /// the sequence check.
    #[test]
    fn concurrent_republish_never_tears_links() {
        let cache: Arc<SharedTraceCache<Vec<BlockId>>> = Arc::new(SharedTraceCache::with_shards(2));
        let entry = (blk(0), blk(1));
        let seq_a = vec![blk(1), blk(2)];
        let seq_b = vec![blk(1), blk(3)];
        const ROUNDS: u32 = 4_000;

        std::thread::scope(|s| {
            let c = Arc::clone(&cache);
            let (sa, sb) = (seq_a.clone(), seq_b.clone());
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let seq = if i % 2 == 0 { sa.clone() } else { sb.clone() };
                    c.insert_and_link_with(entry, seq.clone(), 0.99, |b| Some(b.to_vec()));
                    if i % 17 == 0 {
                        c.unlink(entry);
                    }
                    // Churn other shards too, to exercise growth under
                    // concurrent readers.
                    let e = (blk(100 + i % 50), blk(200 + i % 50));
                    c.insert_and_link(e, vec![blk(200 + i % 50), blk(7)], 0.99);
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                }
            });

            // Raw reader: lock-free probes only.
            let c = Arc::clone(&cache);
            let (sa, sb) = (seq_a.clone(), seq_b.clone());
            s.spawn(move || {
                for i in 0..ROUNDS {
                    if let Some(id) = c.lookup_entry(entry) {
                        let t = c.trace(id).expect("published id must resolve");
                        assert!(
                            t.blocks[..] == sa[..] || t.blocks[..] == sb[..],
                            "torn link: {:?}",
                            &t.blocks[..]
                        );
                        let art = c.artifact(id).expect("artifact published with trace");
                        assert_eq!(&art[..], &t.blocks[..], "artifact/trace mismatch");
                    }
                    if i % 5 == 0 {
                        std::thread::yield_now();
                    }
                }
            });

            // Stamped reader: drives its own (thread-private) BCG through
            // the version-stamp protocol.
            let c = Arc::clone(&cache);
            s.spawn(move || {
                let mut bcg =
                    trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
                bcg.observe(blk(0));
                let n = bcg.observe(blk(1)).expect("branch node");
                for i in 0..ROUNDS {
                    if let Some(id) = c.lookup_entry_cached(&mut bcg, n) {
                        let t = c.trace(id).expect("stamped id must resolve");
                        assert_eq!(t.blocks[0], blk(1), "entry must land on block 0");
                    }
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        });

        // Quiescent: the stamped path and the raw path agree.
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        bcg.observe(blk(0));
        let n = bcg.observe(blk(1)).unwrap();
        assert_eq!(
            cache.lookup_entry_cached(&mut bcg, n),
            cache.lookup_entry(entry)
        );
    }

    #[test]
    fn memory_estimate_counts_shards_traces_and_artifacts() {
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::with_shards(4);
        let empty = c.memory_estimate(|a| a.capacity() * std::mem::size_of::<BlockId>());
        assert!(empty > 0, "shard tables alone occupy memory");
        for i in 0..50u32 {
            c.insert_and_link_with(
                (blk(i), blk(i + 1)),
                vec![blk(i + 1), blk(i + 2)],
                0.99,
                |b| Some(b.to_vec()),
            );
        }
        let full = c.memory_estimate(|a| a.capacity() * std::mem::size_of::<BlockId>());
        assert!(
            full > empty,
            "estimate must grow with contents: {empty} -> {full}"
        );
    }

    // --- budget / eviction / quarantine / faults ---

    #[test]
    fn budget_bounds_payload_at_every_post_insert_point() {
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::with_shards(2);
        let measure = |a: &Vec<BlockId>| a.capacity() * std::mem::size_of::<BlockId>();
        let budget = 4 * (trace_cost(2) + 2 * std::mem::size_of::<BlockId>());
        c.set_budget(Some(budget), measure);
        for i in 0..64u32 {
            c.insert_and_link_with(
                (blk(i), blk(i + 1)),
                vec![blk(i + 1), blk(i + 2)],
                0.99,
                |b| Some(b.to_vec()),
            );
            assert!(
                c.payload_bytes() <= budget,
                "payload {} over budget {budget} after insert {i}",
                c.payload_bytes()
            );
        }
        let s = c.stats();
        assert!(s.links_evicted >= 60, "churn must evict: {s:?}");
        assert_eq!(s.budget_overruns, 0);
        assert!(c.live_trace_count() <= 4);
        assert_eq!(c.trace_count(), 64, "ids are never reused");
    }

    #[test]
    fn eviction_bumps_version_so_cached_dispatch_revalidates() {
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        bcg.observe(blk(0));
        let n = bcg.observe(blk(1)).expect("branch node");
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        c.set_budget(Some(trace_cost(2)), |_| 0);
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        // Next insert evicts the first trace; the stamped slot must
        // revalidate to None rather than serve the dangling id.
        let _ = c.insert_and_link((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        assert!(c.trace(id).is_none(), "evicted trace is tombstoned");
        assert!(matches!(
            c.artifact_checked(id),
            Err(TraceCacheError::Evicted(_))
        ));
    }

    #[test]
    fn quarantine_blacklists_and_cooldown_readmits() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let (id, _) = c.insert_and_link(entry, path.clone(), 0.99);
        let _ = c.insert_and_link((blk(9), blk(1)), path.clone(), 0.99);
        assert_eq!(c.quarantine(entry, 2), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.lookup_entry((blk(9), blk(1))), None, "all links removed");
        assert!(c.trace(id).is_none());
        assert_eq!(c.quarantine_snapshot().len(), 1);
        assert!(matches!(
            c.try_insert_and_link(entry, path.clone(), 0.99),
            Err(TraceCacheError::Quarantined { remaining: 1, .. })
        ));
        assert!(matches!(
            c.try_insert_and_link(entry, path.clone(), 0.99),
            Err(TraceCacheError::Quarantined { remaining: 0, .. })
        ));
        let (nid, created) = c.try_insert_and_link(entry, path, 0.99).unwrap();
        assert!(created, "tombstoned path must rebuild under a fresh id");
        assert_ne!(nid, id);
        assert_eq!(c.stats().quarantine_rejected, 2);
        assert!(c.quarantine_snapshot().is_empty());
    }

    #[test]
    fn corrupt_artifact_fault_is_surfaced_not_served() {
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::new();
        c.set_faults(Arc::new(FaultPlan::new(
            1,
            FaultConfig {
                corrupt_artifact: 1.0,
                ..FaultConfig::none()
            },
        )));
        let (id, _) = c.insert_and_link_with((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99, |b| {
            Some(b.to_vec())
        });
        assert!(matches!(
            c.artifact_checked(id),
            Err(TraceCacheError::CorruptArtifact(_))
        ));
        // Quarantining the entry retires the corrupt trace for good.
        assert_eq!(c.quarantine((blk(0), blk(1)), 1), Some(id));
        assert!(matches!(
            c.artifact_checked(id),
            Err(TraceCacheError::Evicted(_))
        ));
    }

    #[test]
    fn budget_check_fault_forces_eviction_pressure() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        c.set_faults(Arc::new(FaultPlan::new(
            7,
            FaultConfig {
                fail_budget_check: 1.0,
                ..FaultConfig::none()
            },
        )));
        // No budget configured — but every insert's budget check fails,
        // so only the just-inserted trace ever survives.
        for i in 0..8u32 {
            c.insert_and_link((blk(10 * i), blk(10 * i + 1)), vec![blk(10 * i + 1)], 0.99);
        }
        assert_eq!(c.live_trace_count(), 1);
        assert_eq!(c.link_count(), 1);
        assert!(c.stats().links_evicted >= 7);
    }

    /// Satellite: eviction races a reader mid-probe. A writer churns
    /// inserts under a tiny budget (constant eviction) while a reader
    /// probes and resolves; every resolved trace must be coherent and
    /// every evicted id must answer `None`/`Err`, never garbage.
    #[test]
    fn eviction_races_reader_mid_probe() {
        let cache: Arc<SharedTraceCache<Vec<BlockId>>> = Arc::new(SharedTraceCache::with_shards(2));
        cache.set_budget(Some(3 * (trace_cost(2) + 64)), |a| {
            a.capacity() * std::mem::size_of::<BlockId>()
        });
        const ROUNDS: u32 = 3_000;
        std::thread::scope(|s| {
            let c = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let k = i % 24;
                    c.insert_and_link_with(
                        (blk(k), blk(100 + k)),
                        vec![blk(100 + k), blk(200 + k)],
                        0.99,
                        |b| Some(b.to_vec()),
                    );
                    if i % 5 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let c = Arc::clone(&cache);
            s.spawn(move || {
                let mut resolved = 0u32;
                for i in 0..ROUNDS {
                    let k = i % 24;
                    if let Some(id) = c.lookup_entry((blk(k), blk(100 + k))) {
                        // The link may be evicted between probe and
                        // fetch; a tombstone is fine, garbage is not.
                        if let Some(t) = c.trace(id) {
                            assert_eq!(t.blocks[0], blk(100 + k), "incoherent trace");
                            resolved += 1;
                        } else {
                            assert!(matches!(
                                c.artifact_checked(id),
                                Err(TraceCacheError::Evicted(_))
                            ));
                        }
                    }
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
                assert!(resolved > 0, "reader must resolve some live traces");
            });
        });
        let budget = cache.budget().unwrap();
        assert!(cache.payload_bytes() <= budget);
        assert!(cache.stats().links_evicted > 0);
    }
}
