//! A trace cache shared by many executors.
//!
//! [`TraceCache`](crate::TraceCache) is single-owner: one VM profiles,
//! constructs and dispatches. In a multi-VM deployment every instance
//! would re-discover and re-build identical traces. `SharedTraceCache`
//! is that same cache behind a reader–writer lock: construction
//! (typically a single background thread, see [`crate::offthread`])
//! publishes hash-consed traces that all VMs reuse, with an optional
//! pre-lowered artifact per trace as the cache's payload.
//!
//! # Lock and version
//!
//! The paper's invalidation rule is that dispatch may act on a stale
//! link for at most one probe: any link mutation must eventually force
//! revalidation. Every mutation runs under the write lock and stores the
//! cache's bumped version into an atomic (`Release`) before unlocking.
//! [`lookup_entry_cached`](SharedTraceCache::lookup_entry_cached) loads
//! that version (`Acquire`) and, while the BCG node's stamp matches it,
//! answers from the node's slot — the steady state: no lock, no hash.
//! Only on a stale stamp does it take the read lock, probe, and stamp
//! the slot with the *pre-probe* version, so a mutation that lands
//! between load and probe leaves the stamp already stale and the next
//! dispatch revalidates. A stamped answer can therefore be newer than
//! its stamp, never older — and never outlives the next mutation.
//!
//! What a reader may wait for: a revalidating probe, an artifact fetch
//! or a quarantine that arrives during an insert waits until that
//! insert — artifact build included, which runs under the write lock —
//! has finished. Construction is rare (tens of builds and link writes
//! per workload run) and revalidation happens once per node per version,
//! so this is off the per-dispatch path.
//!
//! # Memory budget, eviction, quarantine
//!
//! The budget sweep and the quarantine blacklist are the wrapped
//! cache's (see [`crate::cache`]); measured artifact bytes ride on a
//! trace's cost. An eviction or a quarantine is just another link
//! mutation: the version bump forces every VM's inline slots to
//! revalidate, and a VM already holding the artifact `Arc` finishes its
//! dispatch safely on the retired trace — never a dangling artifact, at
//! worst one stale (but valid) entry.
//!
//! An attached [`FaultPlan`](crate::FaultPlan) can deterministically
//! corrupt freshly built artifacts (surfaced to executors through
//! [`artifact_checked`](SharedTraceCache::artifact_checked)) and fail
//! budget checks; both are exercise paths for the degradation ladder,
//! never semantic changes.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Release};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use jvm_bytecode::BlockId;
use trace_bcg::node::NO_TRACE_LINK;
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx};

use crate::cache::{CacheStats, TraceCache};
use crate::error::TraceCacheError;
use crate::faults::{FaultPlan, FaultSite};
use crate::health::HealthStats;
use crate::trace::{Trace, TraceId};

/// A pre-built execution artifact (e.g. a lowered trace); a trace's
/// payload in the shared cache is `Option<Artifact<A>>`.
pub(crate) struct Artifact<A> {
    built: Arc<A>,
    /// Set by fault injection ([`FaultSite::CorruptArtifact`]). A
    /// corrupt artifact must never be executed;
    /// [`SharedTraceCache::artifact_checked`] surfaces it as
    /// [`TraceCacheError::CorruptArtifact`].
    corrupted: bool,
}

/// Artifact byte-measure hook installed alongside a payload budget.
type MeasureFn<A> = Box<dyn Fn(&A) -> usize + Send + Sync>;

/// Everything the lock guards.
pub(crate) struct Inner<A> {
    pub(crate) cache: TraceCache<Option<Artifact<A>>>,
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
    /// `inner.cache.version()` as of the last unlock of the write lock.
    version: AtomicU64,
    inner: RwLock<Inner<A>>,
    faults: OnceLock<Arc<FaultPlan>>,
}

impl<A> Default for SharedTraceCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> SharedTraceCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        SharedTraceCache {
            version: AtomicU64::new(0),
            inner: RwLock::new(Inner {
                cache: TraceCache::default(),
                measure: None,
            }),
            faults: OnceLock::new(),
        }
    }

    /// The read lock, recovering the data on poisoning (see
    /// [`Self::write`]).
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Inner<A>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The write lock, recovering the data on poisoning: the one piece
    /// of foreign code that runs under it, an insert's `build`, runs
    /// before any cache state is touched, so a constructor worker that
    /// panicked there left the cache as it found it, and the supervisor
    /// is the layer that decides whether to keep going.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Inner<A>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
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

    /// The trace linked at an entry branch, if any.
    #[inline]
    pub fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        self.read().cache.lookup_entry(entry)
    }

    /// The dispatch check via a BCG node's inline trace-link slot —
    /// the concurrent analogue of
    /// [`TraceCache::lookup_entry_cached`](crate::TraceCache::lookup_entry_cached).
    ///
    /// The BCG (and its slots) are private to the calling VM; only the
    /// version counter and, on a stale stamp, the locked probe touch
    /// shared state. The slot is stamped with the version loaded
    /// *before* the probe, so a publication racing this lookup leaves
    /// the stamp stale and the next dispatch revalidates (see the module
    /// docs).
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

    /// Runs one cache mutation under the write lock, then publishes the
    /// cache's version (bumped if any link changed) — still under the
    /// lock, so versions reach readers in mutation order. A reader that
    /// observes the new version is guaranteed to observe the mutation
    /// (Release/Acquire pairing).
    fn mutate<R>(&self, f: impl FnOnce(&mut Inner<A>) -> R) -> R {
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
    /// `build` runs under the write lock — acceptable because
    /// construction is rare and (in the off-thread design) single-caller;
    /// dispatch threads only take the lock to revalidate a stale stamp.
    /// It runs before the cache is mutated, so a panicking builder
    /// leaves the cache consistent.
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

    /// The retention rule's verdict, under the write lock — see
    /// [`TraceCache::demote`](crate::TraceCache::demote).
    pub fn demote(&self, entry: Branch, tid: TraceId) -> Option<TraceId> {
        self.mutate(|w| w.cache.demote(entry, tid))
    }

    /// Retention counters of the one policy every sharing VM runs.
    pub fn health_stats(&self) -> HealthStats {
        self.read().cache.health_stats()
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
        self.read().cache.budget()
    }

    /// Bytes currently charged against the budget: block sequences,
    /// per-trace overhead, and measured artifact bytes of live traces.
    pub fn payload_bytes(&self) -> usize {
        self.read().cache.payload_bytes()
    }

    /// The quarantine blacklist: `(entry, path, refusals remaining)`,
    /// sorted by packed entry key.
    pub fn quarantine_snapshot(&self) -> Vec<(Branch, Vec<BlockId>, u32)> {
        let r = self.read();
        let list = r.cache.iter_quarantine();
        list.map(|(entry, path, left)| (entry, path.to_vec(), left))
            .collect()
    }

    /// Whether the id was assigned and later tombstoned (evicted or
    /// quarantined) — by any VM of the session.
    pub fn is_evicted(&self, id: TraceId) -> bool {
        self.read().cache.is_evicted(id)
    }

    /// A copy of the trace object for an id (blocks, completion);
    /// `None` for unknown or tombstoned ids.
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.read().cache.trace_checked(id).ok().cloned()
    }

    /// The execution artifact with integrity surfaced: `Err` for ids
    /// this cache never assigned, tombstoned traces, and corrupt
    /// artifacts; `Ok(None)` for live artifact-less traces (keep
    /// interpreting). A VM receiving
    /// [`TraceCacheError::CorruptArtifact`] must not execute the
    /// artifact and should [`Self::quarantine`] the entry it dispatched
    /// from.
    pub fn artifact_checked(&self, id: TraceId) -> Result<Option<Arc<A>>, TraceCacheError> {
        let r = self.read();
        match r.cache.payload_checked(id)? {
            Some(a) if a.corrupted => Err(TraceCacheError::CorruptArtifact(id)),
            a => Ok(a.as_ref().map(|a| Arc::clone(&a.built))),
        }
    }

    /// Number of distinct trace objects ever constructed (tombstoned
    /// slots included; ids are never reused).
    pub fn trace_count(&self) -> usize {
        self.read().cache.trace_count()
    }

    /// Number of live (non-tombstoned) trace objects.
    pub fn live_trace_count(&self) -> usize {
        let r = self.read();
        r.cache.iter_traces().filter(|t| !t.is_empty()).count()
    }

    /// Number of live entry links.
    pub fn link_count(&self) -> usize {
        self.read().cache.link_count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.read().cache.stats()
    }

    /// Estimated heap footprint in bytes: the entry table, the
    /// hash-consing index, trace objects and their block sequences, and
    /// artifacts as measured by `artifact_bytes`.
    pub fn memory_estimate(&self, artifact_bytes: impl Fn(&A) -> usize) -> usize {
        self.read()
            .cache
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
    fn link_churn_does_not_grow_forever() {
        let c: SharedTraceCache<()> = SharedTraceCache::new();
        let entry = |i: u32| (blk(i), blk(i + 1));
        // Insert/remove churn over a small working set must not leave
        // anything behind per round.
        let mut after_first_round = 0;
        for round in 0..200u32 {
            for i in 0..8 {
                c.insert_and_link(entry(i), vec![blk(i + 1), blk(i + 2)], 0.99);
            }
            for i in 0..8 {
                assert!(c.unlink(entry(i)).is_some(), "round {round} item {i}");
            }
            if round == 0 {
                after_first_round = c.memory_estimate(|_| 0);
            }
        }
        assert_eq!(c.link_count(), 0);
        assert_eq!(c.trace_count(), 8, "hash-consing reuses the 8 sequences");
        assert_eq!(c.memory_estimate(|_| 0), after_first_round);
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
        let without_artifacts = c.memory_estimate(|_| 0);
        assert_eq!(
            full - without_artifacts,
            50 * 2 * std::mem::size_of::<BlockId>(),
            "artifacts are counted as measured"
        );
        assert!(
            without_artifacts >= 50 * std::mem::size_of::<(u64, TraceId)>(),
            "the entry table is counted: {without_artifacts}"
        );
    }

    /// A `build` that panics under the write lock: it runs before any
    /// cache state is touched, so the cache is unchanged, readers still
    /// probe through both paths, and the next insert proceeds.
    #[test]
    fn panicking_builder_leaves_the_cache_usable() {
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        bcg.observe(blk(0));
        let n = bcg.observe(blk(1)).expect("branch node");
        let c: SharedTraceCache<Vec<BlockId>> = SharedTraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, _) =
            c.insert_and_link_with(entry, vec![blk(1), blk(2)], 0.99, |b| Some(b.to_vec()));
        let (stats, version) = (c.stats(), c.version());

        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.insert_and_link_with((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99, |_| {
                panic!("builder killed mid-insert")
            })
        }));
        assert!(killed.is_err());

        assert_eq!(c.stats(), stats, "no cache state was touched");
        assert_eq!(c.version(), version);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.lookup_entry(entry), Some(id));
        assert_eq!(c.lookup_entry((blk(5), blk(6))), None);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(
            &c.artifact_checked(id).unwrap().unwrap()[..],
            [blk(1), blk(2)]
        );

        let (next, created) =
            c.insert_and_link_with((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99, |b| {
                Some(b.to_vec())
            });
        assert!(created);
        assert_ne!(next, id);
        assert_eq!(c.lookup_entry((blk(5), blk(6))), Some(next));
        assert!(c.version() > version);
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
