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
//! * **Entry links** live in one open-addressed table of `(AtomicU64
//!   key, AtomicU64 value)` slots — the same packed-branch scheme as
//!   [`trace_bcg::BranchTable`], probed lock-free by readers and written
//!   only under the policy mutex.
//! * **What is cached** — hash-consing, cost accounting, the
//!   second-chance sweep, the quarantine blacklist, the counters — is
//!   decided by a [`TraceCache`](crate::TraceCache), the very type a
//!   single VM owns, instantiated over this module's table and kept
//!   behind that one mutex, with an optional pre-lowered artifact per
//!   trace as its payload. The mutex is only touched at construction
//!   time and on the first artifact fetch per VM — never on the
//!   per-branch dispatch path.
//! * A global **version** counter extends the single-threaded
//!   version-stamped trace-link protocol (see
//!   [`TraceCache::lookup_entry_cached`](crate::TraceCache::lookup_entry_cached))
//!   to concurrent publication.
//! * The **health ledger** sits behind its own mutex, so dispatch
//!   threads flushing outcomes never wait on a constructor that holds
//!   the policy mutex while lowering. Lock order: policy, then health.
//!
//! # Publication protocol
//!
//! The paper's invalidation rule is that dispatch may act on a stale
//! link for at most one probe: any link mutation must eventually force
//! revalidation. Concurrently that becomes:
//!
//! 1. The writer mutates the table under the policy mutex — storing a
//!    slot's *value before its key*, both `Release`, so a reader that
//!    observes the key (`Acquire`) always observes a fully-written
//!    value: links are never torn.
//! 2. After the mutation the writer publishes the cache's bumped
//!    version into the global version (`store`, `Release`).
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
//! The budget sweep and the quarantine blacklist are the wrapped
//! cache's (see [`crate::cache`]); measured artifact bytes ride on a
//! trace's cost. An eviction or a quarantine is just another link mutation
//! under this protocol: the table write + version bump force every VM's
//! inline slots to revalidate, and a VM already holding the artifact
//! `Arc` finishes its dispatch safely on the retired trace — never a
//! dangling artifact, at worst one stale (but valid) entry.
//!
//! An attached [`FaultPlan`](crate::FaultPlan) can deterministically
//! corrupt freshly built artifacts (surfaced to executors through
//! [`artifact_checked`](SharedTraceCache::artifact_checked)) and fail
//! budget checks; both are exercise paths for the degradation ladder,
//! never semantic changes.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicU64};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use jvm_bytecode::BlockId;
use trace_bcg::node::NO_TRACE_LINK;
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx, PackedBranch};

use crate::cache::{CacheStats, Shell, TraceCache};
use crate::error::TraceCacheError;
use crate::faults::{FaultPlan, FaultSite};
use crate::health::HealthLedger;
use crate::trace::{Trace, TraceId};

/// Empty-slot key marker; `PackedBranch` cannot produce it for a real
/// branch (same convention as `trace_bcg::BranchTable`).
const KEY_EMPTY: u64 = u64::MAX;
/// Value marking a deleted link. Live values are raw `TraceId`s (≤
/// `u32::MAX - 1`), so the marker cannot collide.
const VAL_TOMBSTONE: u64 = u64::MAX;
/// Fibonacci multiplier for home slots (same as `BranchTable`).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Slots in a fresh table.
const INITIAL_SLOTS: usize = 16;

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

    fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }
}

/// The reader side of the entry-link table: the current [`SlotTable`],
/// published through an `AtomicPtr`.
struct LinkTable {
    current: AtomicPtr<SlotTable>,
}

impl Default for LinkTable {
    fn default() -> Self {
        LinkTable {
            current: AtomicPtr::new(Box::into_raw(SlotTable::alloc(INITIAL_SLOTS))),
        }
    }
}

impl LinkTable {
    #[inline]
    fn table(&self) -> &SlotTable {
        // SAFETY: the pointer is always valid while `&self` is held:
        // tables are only ever swapped for a newer one, the old pointer
        // moving to the writer's retired list (`SharedShell::retired`),
        // which sits in the same `SharedTraceCache` readers borrow this
        // table from and is freed only when that cache is dropped, which
        // requires `&mut`.
        unsafe { &*self.current.load(Acquire) }
    }

    /// Lock-free probe. Terminates because the writer keeps the table at
    /// most 7/8 full (counting tombstones), so an empty slot exists.
    fn lookup(&self, key: u64) -> Option<TraceId> {
        let t = self.table();
        let mut i = t.home(key);
        loop {
            let k = t.slots[i].key.load(Acquire);
            if k == KEY_EMPTY {
                return None;
            }
            if k == key {
                let v = t.slots[i].val.load(Acquire);
                return (v != VAL_TOMBSTONE).then_some(TraceId(v as u32));
            }
            i = (i + 1) & t.mask;
        }
    }
}

impl Drop for LinkTable {
    fn drop(&mut self) {
        // SAFETY: `current` always holds a pointer from `Box::into_raw`
        // that nothing else frees, and `&mut self` rules out readers.
        unsafe { drop(Box::from_raw(self.current.load(Relaxed))) }
    }
}

/// A table pointer retired by growth, owned by the writer's retired
/// list and freed when that list — with the cache — is dropped.
struct Retired(*mut SlotTable);
// SAFETY: the pointer is uniquely owned by the retired list and only
// dereferenced under the policy mutex (sizing) or at drop (freeing).
unsafe impl Send for Retired {}

impl Drop for Retired {
    fn drop(&mut self) {
        // SAFETY: the pointer came from `Box::into_raw` in `grow` and
        // was swapped out of `LinkTable::current`, so this is its only
        // owner; the list drops with the cache, after every reader.
        unsafe { drop(Box::from_raw(self.0)) }
    }
}

/// The [`Shell`] of the cache inside a [`SharedTraceCache`]: the write
/// side of the link table, and the health ledger behind its own mutex
/// (locked here while the policy mutex is held: policy, then health).
/// Lives under the policy mutex, so it is the table's only writer and
/// relaxed reads of the table are exact.
#[derive(Default)]
struct SharedShell {
    table: Arc<LinkTable>,
    live: usize,
    tombstones: usize,
    retired: Vec<Retired>,
    health: Arc<Mutex<HealthLedger>>,
}

impl SharedShell {
    /// Rehashes into a fresh table (doubling if genuinely full, else
    /// just shedding tombstones) and publishes it.
    fn grow(&mut self) {
        let old = self.table.table();
        let cap = old.slots.len();
        let new_len = if (self.live + 1) * 8 > cap * 7 {
            cap * 2
        } else {
            cap
        };
        let new = SlotTable::alloc(new_len);
        for slot in old.slots.iter() {
            let (k, v) = (slot.key.load(Relaxed), slot.val.load(Relaxed));
            if k == KEY_EMPTY || v == VAL_TOMBSTONE {
                continue;
            }
            let mut i = new.home(k);
            while new.slots[i].key.load(Relaxed) != KEY_EMPTY {
                i = (i + 1) & new.mask;
            }
            new.slots[i].val.store(v, Relaxed);
            new.slots[i].key.store(k, Relaxed);
        }
        self.tombstones = 0;
        let old_ptr = self.table.current.swap(Box::into_raw(new), Release);
        self.retired.push(Retired(old_ptr));
    }
}

impl Shell for SharedShell {
    fn link(&self, key: u64) -> Option<TraceId> {
        self.table.lookup(key)
    }

    fn set_link(&mut self, key: u64, id: TraceId) -> Option<TraceId> {
        let val = u64::from(id.0);
        loop {
            let t = self.table.table();
            let mut i = t.home(key);
            loop {
                let k = t.slots[i].key.load(Relaxed);
                if k == key {
                    let old = t.slots[i].val.swap(val, Release);
                    if old != VAL_TOMBSTONE {
                        return Some(TraceId(old as u32));
                    }
                    self.tombstones -= 1;
                    self.live += 1;
                    return None;
                }
                if k == KEY_EMPTY {
                    if (self.live + self.tombstones + 1) * 8 > t.slots.len() * 7 {
                        self.grow();
                        break; // re-probe against the new table
                    }
                    // Value first, then key: a reader that sees the key
                    // sees the value.
                    t.slots[i].val.store(val, Release);
                    t.slots[i].key.store(key, Release);
                    self.live += 1;
                    return None;
                }
                i = (i + 1) & t.mask;
            }
        }
    }

    /// Tombstones the slot; the key stays so concurrent probes keep
    /// their chain.
    fn remove_link(&mut self, key: u64) -> Option<TraceId> {
        let t = self.table.table();
        let mut i = t.home(key);
        loop {
            let k = t.slots[i].key.load(Relaxed);
            if k == KEY_EMPTY {
                return None;
            }
            if k == key {
                let old = t.slots[i].val.swap(VAL_TOMBSTONE, Release);
                if old == VAL_TOMBSTONE {
                    return None;
                }
                self.live -= 1;
                self.tombstones += 1;
                return Some(TraceId(old as u32));
            }
            i = (i + 1) & t.mask;
        }
    }

    fn admitted(&mut self, id: TraceId, entry: Branch) {
        lock_recover(&self.health).note_admission(id, entry);
    }

    fn forget(&mut self, id: TraceId) {
        lock_recover(&self.health).forget(id);
    }

    #[cfg(feature = "debug-invariants")]
    fn live_links(&self) -> usize {
        // Every key in the table, resolved through the readers' probe.
        let keys = self.table.table().slots.iter().map(|s| s.key.load(Relaxed));
        let found = keys
            .filter(|&k| k != KEY_EMPTY && self.link(k).is_some())
            .count();
        assert_eq!(found, self.live, "writer's live count drifted");
        found
    }
}

/// A pre-built execution artifact (e.g. a lowered trace); a trace's
/// payload in the shared cache is `Option<Artifact<A>>`.
struct Artifact<A> {
    built: Arc<A>,
    /// Set by fault injection ([`FaultSite::CorruptArtifact`]). A
    /// corrupt artifact must never be executed;
    /// [`SharedTraceCache::artifact_checked`] surfaces it as
    /// [`TraceCacheError::CorruptArtifact`].
    corrupted: bool,
}

/// Artifact byte-measure hook installed alongside a payload budget.
type MeasureFn<A> = Box<dyn Fn(&A) -> usize + Send + Sync>;

/// Everything the policy mutex guards.
struct WriteSide<A> {
    cache: TraceCache<SharedShell, Option<Artifact<A>>>,
    measure: Option<MeasureFn<A>>,
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
    /// The link table, for readers; `write`'s shell holds the write side.
    links: Arc<LinkTable>,
    version: AtomicU64,
    write: Mutex<WriteSide<A>>,
    faults: OnceLock<Arc<FaultPlan>>,
    /// Whole-lifetime trace-health telemetry and demotion ladder.
    /// Locked after `write` when both are needed (admission, tombstone
    /// — by `write`'s shell); outcome batches and epoch scoring take
    /// only this lock.
    health: Arc<Mutex<HealthLedger>>,
}

impl<A> Default for SharedTraceCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> SharedTraceCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        let cache = TraceCache::<SharedShell, _>::default();
        SharedTraceCache {
            links: Arc::clone(&cache.shell().table),
            health: Arc::clone(&cache.shell().health),
            version: AtomicU64::new(0),
            write: Mutex::new(WriteSide {
                cache,
                measure: None,
            }),
            faults: OnceLock::new(),
        }
    }

    fn write(&self) -> MutexGuard<'_, WriteSide<A>> {
        lock_recover(&self.write)
    }

    /// Attaches a fault plan; first call wins, later calls are ignored.
    /// The plan fires at [`FaultSite::CorruptArtifact`] (once per built
    /// artifact) and [`FaultSite::BudgetCheck`] (once per insert; a hit
    /// enforces a zero budget for that insert).
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.faults.set(plan);
    }

    fn fire(&self, site: FaultSite) -> bool {
        self.faults.get().is_some_and(|p| p.fire(site))
    }

    /// The current publication version (bumped after every link
    /// mutation).
    pub fn version(&self) -> u64 {
        self.version.load(Acquire)
    }

    /// The trace linked at an entry branch, if any. Lock-free.
    #[inline]
    pub fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        self.links.lookup(PackedBranch::pack(entry).0)
    }

    /// The dispatch check via a BCG node's inline trace-link slot —
    /// the concurrent analogue of
    /// [`TraceCache::lookup_entry_cached`](crate::TraceCache::lookup_entry_cached).
    ///
    /// The BCG (and its slots) are private to the calling VM; only the
    /// version counter and the table probe touch shared state. The slot
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

    /// Runs one cache mutation under the policy mutex, then publishes
    /// the cache's version (bumped if any link changed) — still under
    /// the mutex, so versions reach readers in mutation order. A reader
    /// that observes the new version is guaranteed to observe the
    /// mutation (Release/Acquire pairing).
    fn mutate<R>(&self, f: impl FnOnce(&mut WriteSide<A>) -> R) -> R {
        let mut w = self.write();
        let result = f(&mut w);
        self.version.store(w.cache.version(), Release);
        result
    }

    /// Hash-conses a block sequence (building its artifact on first
    /// construction), links it at `entry`, and enforces the byte budget
    /// (the just-written link is never the victim). Returns the trace
    /// id and whether a new trace object was constructed.
    ///
    /// `build` runs under the policy mutex — acceptable because
    /// construction is rare and (in the off-thread design) single-caller;
    /// dispatch threads never take that mutex on the hot path. It runs
    /// before the policy is mutated, so a panicking builder leaves the
    /// cache consistent.
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
        self.insert(entry, blocks, expected_completion, build, false)
            .expect("quarantine is not consulted on this path")
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
        self.insert(entry, blocks, expected_completion, build, true)
    }

    fn insert(
        &self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
        build: impl FnOnce(&[BlockId]) -> Option<A>,
        check_quarantine: bool,
    ) -> Result<(TraceId, bool), TraceCacheError> {
        self.mutate(|w| {
            if check_quarantine {
                w.cache.refuse_quarantined(entry, &blocks)?;
            }
            let budget_override = self.fire(FaultSite::BudgetCheck).then_some(0);
            let measure = &w.measure;
            let build = |blocks: &[BlockId]| match build(blocks) {
                None => (None, 0),
                Some(built) => {
                    let bytes = measure.as_ref().map_or(0, |m| m(&built));
                    let corrupted = self.fire(FaultSite::CorruptArtifact);
                    let built = Arc::new(built);
                    (Some(Artifact { built, corrupted }), bytes)
                }
            };
            let cache = &mut w.cache;
            Ok(cache.insert_with(entry, blocks, expected_completion, budget_override, build))
        })
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
        self.mutate(|w| w.cache.unlink(entry))
    }

    /// Tombstones the trace linked at `entry`, removes *all* of its
    /// entry links, and blacklists the faulting `(entry, path)` key for
    /// `cooldown` refused construction attempts. The version bump
    /// forces every VM's cached dispatches to revalidate. Returns the
    /// tombstoned id, or `None` if nothing is linked at `entry`.
    pub fn quarantine(&self, entry: Branch, cooldown: u32) -> Option<TraceId> {
        self.mutate(|w| w.cache.quarantine(entry, cooldown))
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
        self.mutate(|w| {
            w.measure = Some(Box::new(measure));
            w.cache.set_budget(budget);
        });
    }

    /// The configured payload budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.write().cache.budget()
    }

    /// Bytes currently charged against the budget: block sequences,
    /// per-trace overhead, and measured artifact bytes of live traces.
    pub fn payload_bytes(&self) -> usize {
        self.write().cache.payload_bytes()
    }

    /// The quarantine blacklist: `(entry, path, refusals remaining)`,
    /// sorted by packed entry key.
    pub fn quarantine_snapshot(&self) -> Vec<(Branch, Vec<BlockId>, u32)> {
        let w = self.write();
        let list = w.cache.iter_quarantine();
        list.map(|(entry, path, left)| (entry, path.to_vec(), left))
            .collect()
    }

    /// The health ledger, under its own lock — never the policy mutex —
    /// so dispatch threads flushing outcomes or scoring an epoch (the
    /// [`crate::TraceStore`] impl) don't contend with the constructor.
    pub(crate) fn health(&self) -> MutexGuard<'_, HealthLedger> {
        lock_recover(&self.health)
    }

    /// A copy of the trace object for an id (blocks, completion);
    /// `None` for unknown or tombstoned ids.
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.write().cache.trace_checked(id).ok().cloned()
    }

    /// The execution artifact with integrity surfaced: `Err` for ids
    /// this cache never assigned, tombstoned traces, and corrupt
    /// artifacts; `Ok(None)` for live artifact-less traces (keep
    /// interpreting). A VM receiving
    /// [`TraceCacheError::CorruptArtifact`] must not execute the
    /// artifact and should [`Self::quarantine`] the entry it dispatched
    /// from.
    pub fn artifact_checked(&self, id: TraceId) -> Result<Option<Arc<A>>, TraceCacheError> {
        let w = self.write();
        match w.cache.payload_checked(id)? {
            Some(a) if a.corrupted => Err(TraceCacheError::CorruptArtifact(id)),
            a => Ok(a.as_ref().map(|a| Arc::clone(&a.built))),
        }
    }

    /// Number of distinct trace objects ever constructed (tombstoned
    /// slots included; ids are never reused).
    pub fn trace_count(&self) -> usize {
        self.write().cache.trace_count()
    }

    /// Number of live (non-tombstoned) trace objects.
    pub fn live_trace_count(&self) -> usize {
        let w = self.write();
        w.cache.iter_traces().filter(|t| !t.is_empty()).count()
    }

    /// Number of live entry links.
    pub fn link_count(&self) -> usize {
        self.write().cache.shell().live
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.write().cache.stats()
    }

    /// Estimated heap footprint in bytes: the link table (current and
    /// retired), the hash-consing index, trace objects and their block
    /// sequences, and artifacts as measured by `artifact_bytes`.
    pub fn memory_estimate(&self, artifact_bytes: impl Fn(&A) -> usize) -> usize {
        let w = self.write();
        let retired = w.cache.shell().retired.iter().map(|r| {
            // SAFETY: a retired pointer stays valid until the list drops
            // with the cache (see `Retired`).
            unsafe { (*r.0).bytes() }
        });
        self.links.table().bytes()
            + retired.sum::<usize>()
            + w.cache
                .memory_estimate(|a| a.as_ref().map_or(0, |a| artifact_bytes(&a.built)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::trace_cost;
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
        assert_eq!(t.blocks(), &[blk(1), blk(2)]);
        assert_eq!(t.expected_completion(), 0.99);
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
        assert_eq!(s.traces_reused, 1);
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
        let a1 = c.artifact_checked(id).unwrap().unwrap();
        let a2 = c.artifact_checked(id).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(&a1[..], &[blk(1), blk(2)]);
        assert_eq!(
            c.artifact_checked(id).unwrap().unwrap()[..],
            [blk(1), blk(2)]
        );
    }

    #[test]
    fn growth_keeps_all_links_findable() {
        // 300 links force several growth rounds of the one table.
        let c: SharedTraceCache<()> = SharedTraceCache::new();
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
        let c: SharedTraceCache<()> = SharedTraceCache::new();
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
        let slots = c.links.table().slots.len();
        assert!(slots <= 64, "link table grew to {slots} slots");
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
        let cache: Arc<SharedTraceCache<Vec<BlockId>>> = Arc::new(SharedTraceCache::new());
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
                    // Churn other entries too, to exercise growth under
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
                            t.blocks() == &sa[..] || t.blocks() == &sb[..],
                            "torn link: {:?}",
                            t.blocks()
                        );
                        let art = c
                            .artifact_checked(id)
                            .expect("a linked trace is live")
                            .expect("artifact published with trace");
                        assert_eq!(&art[..], t.blocks(), "artifact/trace mismatch");
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
                        assert_eq!(t.blocks()[0], blk(1), "entry must land on block 0");
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
    fn memory_estimate_counts_table_traces_and_artifacts() {
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::new();
        let empty = c.memory_estimate(|a| a.capacity() * std::mem::size_of::<BlockId>());
        assert!(empty > 0, "the link table alone occupies memory");
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
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::new();
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
        let cache: Arc<SharedTraceCache<Vec<BlockId>>> = Arc::new(SharedTraceCache::new());
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
                            assert_eq!(t.blocks()[0], blk(100 + k), "incoherent trace");
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
