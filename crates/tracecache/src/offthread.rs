//! Off-thread trace construction.
//!
//! The in-thread pipeline reacts to profiler signals by back-tracking,
//! walking and cutting the BCG *on the dispatch thread* — construction
//! cost lands squarely in the interpreter's hot loop. This module moves
//! it off-thread:
//!
//! 1. When a dispatch thread drains a signal batch, it captures a
//!    [`BcgSnapshot`] — a bounded, self-contained copy of the graph
//!    region the planner could possibly examine — and `try_send`s it
//!    down a bounded [`ConstructionQueue`].
//! 2. A background thread ([`run_constructor_service`]) drains the
//!    queue, runs the identical planning algorithm
//!    ([`crate::plan_for_signal`]) against the frozen snapshot, lowers
//!    artifacts, and publishes results into a
//!    [`SharedTraceCache`](crate::SharedTraceCache).
//!
//! # Graceful degradation
//!
//! The queue is bounded and the dispatch thread never blocks on it. If
//! the queue is full the batch is **dropped** — and because the profiler
//! only signals on *changes*, a dropped signal would otherwise be lost
//! forever (the node's state won't change again while it stays hot).
//! The dispatch thread therefore parks the dropped batch back into the
//! BCG with [`BranchCorrelationGraph::defer_signals`]; the profiler
//! re-raises the parked signals at its next decay cycle, when the queue
//! has likely drained. Construction is delayed, never silently skipped.
//!
//! # Supervision
//!
//! The service runs every batch under `catch_unwind`. A worker that
//! panics is replaced at once; the panic after [`MAX_RESTARTS`] restarts
//! marks the channel's [`ServiceHealth`] permanently degraded and ends
//! the service, and dispatchers stop capturing snapshots. The batch a
//! panicking worker consumed is lost: unlike a queue-full drop it was
//! never parked with `defer_signals`, so no decay cycle re-raises its
//! signals, and its region is rebuilt only when one of its nodes changes
//! state again.
//!
//! # Staleness
//!
//! The snapshot is a moment-in-time copy: by the time the constructor
//! plans it, the live graph has moved on. That is the same tolerance the
//! paper already demands of the single-threaded design (signals are
//! processed after the dispatch that caused them), just with a longer
//! window. A trace built from a stale snapshot is still a *valid* trace
//! — guards catch any path the program no longer takes — and the next
//! signal about the region replaces the link.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, OnceLock};

use jvm_bytecode::BlockId;
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx, NodeState, Signal};

use crate::constructor::{
    plan_and_apply, ConstructorConfig, ConstructorStats, CorrelationView, PlanSink, TracePlan,
};
use crate::error::TraceCacheError;
use crate::faults::{FaultPlan, FaultSite};
use crate::shared::SharedTraceCache;

/// Sentinel for successor targets that fell outside the captured region.
const SNAP_NONE: NodeIdx = NodeIdx(u32::MAX);

/// Cap on nodes per snapshot; regions the planner can examine are far
/// smaller in practice ([`crate::MAX_PATH_NODES`] bounds each walk).
pub const SNAPSHOT_NODE_LIMIT: usize = 4096;

/// Bound on the construction queue: snapshot batches in flight.
pub const QUEUE_CAPACITY: usize = 64;

/// Worker restarts the construction service performs; the next panic
/// degrades it for good.
pub const MAX_RESTARTS: u64 = 3;

#[derive(Debug, Clone)]
struct SnapNode {
    branch: Branch,
    state: NodeState,
    total_weight: u32,
    /// `(to_block, count, target)` with `target` remapped to a snapshot
    /// index, or [`SNAP_NONE`] if the target was not captured. Slot
    /// order matches the live node, preserving max-successor tie
    /// breaking.
    succs: Vec<(BlockId, u16, NodeIdx)>,
    /// Predecessors that were captured, remapped. (Uncaptured preds are
    /// by construction unqualified for back-tracking.)
    preds: Vec<NodeIdx>,
}

/// A bounded, immutable copy of the BCG region reachable from a signal
/// batch — everything [`crate::plan_for_signal`] could examine: the
/// transitive qualified-predecessor closure (entry-point back-tracking)
/// and the maximum-likelihood forward closure (path walking).
///
/// Node indices are snapshot-local; the snapshot implements
/// [`CorrelationView`] so the planner runs on it unchanged.
#[derive(Debug, Clone)]
pub struct BcgSnapshot {
    nodes: Vec<SnapNode>,
    /// Snapshot-local indices of the signal origins, in batch order.
    origins: Vec<NodeIdx>,
    truncated: bool,
}

impl BcgSnapshot {
    /// Captures the region around `signals`, at most
    /// [`SNAPSHOT_NODE_LIMIT`] nodes. If the cap is hit the snapshot is
    /// marked [`truncated`](Self::is_truncated); planning still works but
    /// walks may end early (shorter traces, never wrong ones).
    pub fn capture(bcg: &BranchCorrelationGraph, signals: &[Signal]) -> Self {
        Self::capture_bounded(bcg, signals, SNAPSHOT_NODE_LIMIT)
    }

    fn capture_bounded(bcg: &BranchCorrelationGraph, signals: &[Signal], limit: usize) -> Self {
        let mut map: HashMap<NodeIdx, u32> = HashMap::new();
        let mut order: Vec<NodeIdx> = Vec::new();
        let mut work: Vec<NodeIdx> = Vec::new();
        let mut truncated = false;
        let mut include = |n: NodeIdx,
                           map: &mut HashMap<NodeIdx, u32>,
                           order: &mut Vec<NodeIdx>,
                           work: &mut Vec<NodeIdx>|
         -> bool {
            if map.contains_key(&n) {
                return true;
            }
            if order.len() >= limit {
                truncated = true;
                return false;
            }
            map.insert(n, order.len() as u32);
            order.push(n);
            work.push(n);
            true
        };

        let mut origins = Vec::with_capacity(signals.len());
        for sig in signals {
            if include(sig.node, &mut map, &mut order, &mut work) {
                origins.push(NodeIdx(map[&sig.node]));
            }
        }
        while let Some(n) = work.pop() {
            let node = bcg.node(n);
            // Backward: predecessors that qualify for entry-point
            // back-tracking (same filter as the planner applies).
            for &p in node.predecessors() {
                let pn = bcg.node(p);
                if pn.state().is_traceable() && pn.max_successor().is_some_and(|s| s.node == n) {
                    include(p, &mut map, &mut order, &mut work);
                }
            }
            // Forward: the maximum-likelihood successor (the only edge a
            // path walk can follow out of `n`).
            if node.state().is_traceable() {
                if let Some(ms) = node.max_successor() {
                    if ms.count > 0 {
                        include(ms.node, &mut map, &mut order, &mut work);
                    }
                }
            }
        }

        let nodes = order
            .iter()
            .map(|&orig| {
                let node = bcg.node(orig);
                SnapNode {
                    branch: node.branch(),
                    state: node.state(),
                    total_weight: node.total_weight(),
                    succs: node
                        .successors()
                        .iter()
                        .map(|s| {
                            let target = map.get(&s.node).map_or(SNAP_NONE, |&i| NodeIdx(i));
                            (s.to_block, s.count, target)
                        })
                        .collect(),
                    preds: node
                        .predecessors()
                        .iter()
                        .filter_map(|p| map.get(p).map(|&i| NodeIdx(i)))
                        .collect(),
                }
            })
            .collect();
        BcgSnapshot {
            nodes,
            origins,
            truncated,
        }
    }

    /// Snapshot-local indices of the signal origins.
    pub fn origins(&self) -> &[NodeIdx] {
        &self.origins
    }

    /// Nodes captured.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot captured nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the node cap cut the region short.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Approximate heap bytes held by this snapshot (queue accounting).
    pub fn memory_estimate(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<SnapNode>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.succs.capacity() * size_of::<(BlockId, u16, NodeIdx)>()
                        + n.preds.capacity() * size_of::<NodeIdx>()
                })
                .sum::<usize>()
            + self.origins.capacity() * size_of::<NodeIdx>()
    }
}

impl CorrelationView for BcgSnapshot {
    fn branch(&self, n: NodeIdx) -> Branch {
        self.nodes[n.index()].branch
    }
    fn is_traceable(&self, n: NodeIdx) -> bool {
        self.nodes[n.index()].state.is_traceable()
    }
    fn is_hot(&self, n: NodeIdx) -> bool {
        self.nodes[n.index()].state.is_hot()
    }
    fn predecessors(&self, n: NodeIdx) -> &[NodeIdx] {
        &self.nodes[n.index()].preds
    }
    fn max_successor(&self, n: NodeIdx) -> Option<(NodeIdx, BlockId, u16)> {
        // Same tie semantics as `Node::max_successor` (last maximum in
        // slot order). A target outside the snapshot ends the walk.
        self.nodes[n.index()]
            .succs
            .iter()
            .max_by_key(|s| s.1)
            .and_then(|&(block, count, target)| {
                (target != SNAP_NONE).then_some((target, block, count))
            })
    }
    fn correlation_to(&self, n: NodeIdx, block: BlockId) -> f64 {
        let node = &self.nodes[n.index()];
        if node.total_weight == 0 {
            return 0.0;
        }
        node.succs
            .iter()
            .find(|s| s.0 == block)
            .map_or(0.0, |s| f64::from(s.1) / f64::from(node.total_weight))
    }
}

/// What every [`ConstructionQueue`] clone and the [`ConstructionReceiver`]
/// share: the queue gauges, the service's health and the deployment's
/// fault plan.
#[derive(Debug, Default)]
struct QueueShared {
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    submitted: AtomicU64,
    dropped: AtomicU64,
    /// Estimated bytes of the snapshots currently in flight.
    bytes: AtomicUsize,
    health: Arc<ServiceHealth>,
    /// Optional fault oracle: [`FaultSite::DropBatch`] and
    /// [`FaultSite::DuplicateBatch`] fire per submit,
    /// [`FaultSite::KillConstructor`] per batch the service receives.
    faults: OnceLock<Arc<FaultPlan>>,
}

/// A batch on the channel. Its share of the depth and byte gauges is
/// released however it leaves: received, handed back by a full or closed
/// channel, or discarded with the receiver of a service that degraded
/// with batches still queued.
struct InFlight {
    snapshot: Option<BcgSnapshot>,
    bytes: usize,
    shared: Arc<QueueShared>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.shared.depth.fetch_sub(1, Relaxed);
        self.shared.bytes.fetch_sub(self.bytes, Relaxed);
    }
}

/// Snapshot of [`ConstructionQueue`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Batches currently enqueued.
    pub depth: usize,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
    /// Batches accepted.
    pub submitted: u64,
    /// Batches rejected because the queue was full (or the constructor
    /// exited); the dispatcher re-parks these via `defer_signals`.
    pub dropped: u64,
    /// Estimated bytes of the snapshots currently in flight (the
    /// channel's contribution to a shared session's memory footprint).
    pub bytes: usize,
}

/// The dispatch-thread side of the bounded construction channel.
/// Cloneable: every worker VM holds one.
#[derive(Debug, Clone)]
pub struct ConstructionQueue {
    tx: SyncSender<InFlight>,
    shared: Arc<QueueShared>,
}

impl ConstructionQueue {
    /// Attaches a fault plan to the channel and its service (shared by
    /// all clones of this queue); first call wins. A
    /// [`FaultSite::DropBatch`] hit makes `submit` drop the batch as if
    /// the queue were full — the dispatcher's existing `defer_signals`
    /// path re-parks it. A [`FaultSite::DuplicateBatch`] hit replays a
    /// successful submit once (construction must be idempotent under
    /// replay thanks to hash-consing). A [`FaultSite::KillConstructor`]
    /// hit panics the service's worker ahead of a batch.
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.shared.faults.set(plan);
    }

    /// Non-blocking submit. Returns `false` if the queue is full or the
    /// constructor is gone — the caller must re-park the batch's signals
    /// ([`BranchCorrelationGraph::defer_signals`]) so the next decay
    /// cycle re-raises them.
    pub fn submit(&self, snapshot: BcgSnapshot) -> bool {
        if let Some(plan) = self.shared.faults.get() {
            if plan.fire(FaultSite::DropBatch) {
                self.shared.dropped.fetch_add(1, Relaxed);
                return false;
            }
            if plan.fire(FaultSite::DuplicateBatch) {
                // Replay first so the duplicate can't be the *only* copy
                // that fits when the queue is nearly full.
                let _ = self.submit_inner(snapshot.clone());
            }
        }
        self.submit_inner(snapshot)
    }

    fn submit_inner(&self, snapshot: BcgSnapshot) -> bool {
        // Gauge up *before* sending: once the batch is in the channel the
        // receiver may dequeue — and release — ahead of us, transiently
        // wrapping the depth below zero.
        let d = self.shared.depth.fetch_add(1, Relaxed) + 1;
        let bytes = snapshot.memory_estimate();
        self.shared.bytes.fetch_add(bytes, Relaxed);
        let batch = InFlight {
            snapshot: Some(snapshot),
            bytes,
            shared: Arc::clone(&self.shared),
        };
        // A rejected batch comes back in the error and releases its
        // gauges as it drops.
        if self.tx.try_send(batch).is_ok() {
            self.shared.max_depth.fetch_max(d, Relaxed);
            self.shared.submitted.fetch_add(1, Relaxed);
            true
        } else {
            self.shared.dropped.fetch_add(1, Relaxed);
            false
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            depth: self.shared.depth.load(Relaxed),
            max_depth: self.shared.max_depth.load(Relaxed),
            submitted: self.shared.submitted.load(Relaxed),
            dropped: self.shared.dropped.load(Relaxed),
            bytes: self.shared.bytes.load(Relaxed),
        }
    }

    /// Health gauges of the service at the other end of this channel.
    /// Clone the `Arc` to read them after every queue handle is gone.
    pub fn health(&self) -> &Arc<ServiceHealth> {
        &self.shared.health
    }
}

/// The constructor-thread side of the channel.
pub struct ConstructionReceiver {
    rx: Receiver<InFlight>,
    shared: Arc<QueueShared>,
}

impl ConstructionReceiver {
    /// Blocks for the next batch; `None` when every sender is gone.
    fn recv(&self) -> Option<BcgSnapshot> {
        let mut batch = self.rx.recv().ok()?;
        batch.snapshot.take()
    }
}

/// Creates the construction channel of one shared deployment, holding
/// at most [`QUEUE_CAPACITY`] in-flight snapshot batches.
pub fn construction_channel() -> (ConstructionQueue, ConstructionReceiver) {
    channel_with_capacity(QUEUE_CAPACITY)
}

fn channel_with_capacity(capacity: usize) -> (ConstructionQueue, ConstructionReceiver) {
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
    let shared = Arc::new(QueueShared::default());
    (
        ConstructionQueue {
            tx,
            shared: Arc::clone(&shared),
        },
        ConstructionReceiver { rx, shared },
    )
}

/// Off-thread builder activity: the same [`ConstructorStats`] the
/// in-thread constructor keeps, plus what only a snapshot-fed service
/// can count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuilderStats {
    /// Snapshot batches processed.
    pub jobs: u64,
    /// Jobs whose snapshot hit the node cap.
    pub snapshots_truncated: u64,
    /// Planning and cache-op counters.
    pub constructor: ConstructorStats,
}

impl<A, F: FnMut(&[BlockId]) -> Option<A>> PlanSink for (&SharedTraceCache<A>, F) {
    fn install(
        &mut self,
        entry: Branch,
        blocks: Vec<BlockId>,
        completion: f64,
    ) -> Result<bool, TraceCacheError> {
        let (cache, build) = self;
        cache
            .try_insert_and_link_with(entry, blocks, completion, build)
            .map(|(_, created)| created)
    }
    fn remove(&mut self, entry: Branch) -> bool {
        self.0.unlink(entry).is_some()
    }
}

/// Plans traces from snapshots and publishes them to a shared cache: the
/// worker [`run_constructor_service`] runs, and replaces when it panics.
struct OffThreadBuilder {
    config: ConstructorConfig,
    stats: BuilderStats,
    plan: TracePlan,
}

impl OffThreadBuilder {
    /// A builder with the given planner configuration.
    fn new(config: ConstructorConfig) -> Self {
        OffThreadBuilder {
            config,
            stats: BuilderStats::default(),
            plan: TracePlan::default(),
        }
    }

    /// Processes one snapshot batch: plans every origin signal (with
    /// within-batch cascade suppression, like the in-thread
    /// constructor) and applies the resulting ops to `cache`, lowering
    /// artifacts for newly constructed traces via `build`.
    fn handle_job<A>(
        &mut self,
        snapshot: &BcgSnapshot,
        cache: &SharedTraceCache<A>,
        build: &mut impl FnMut(&[BlockId]) -> Option<A>,
    ) {
        self.stats.jobs += 1;
        if snapshot.is_truncated() {
            self.stats.snapshots_truncated += 1;
        }
        let mut touched: HashSet<NodeIdx> = HashSet::new();
        for &origin in snapshot.origins() {
            if touched.contains(&origin) {
                self.stats.constructor.signals_suppressed += 1;
                continue;
            }
            plan_and_apply(
                origin,
                snapshot,
                &self.config,
                &mut self.plan,
                &mut self.stats.constructor,
                &mut (cache, &mut *build),
            );
            touched.extend(self.plan.touched.iter().copied());
        }
    }
}

/// Runs the constructor service until every [`ConstructionQueue`] clone
/// is dropped, then returns the builder's counters. Spawn this on a
/// background thread (e.g. inside `std::thread::scope`).
///
/// Each batch runs under `catch_unwind`. A worker that panics — on a bug
/// in planning or in `build`, or on a [`FaultSite::KillConstructor`] hit
/// of the channel's fault plan — is replaced at once, its counters
/// carried over. The panic after [`MAX_RESTARTS`] restarts marks the
/// channel's [`ServiceHealth`] permanently degraded and ends the service:
/// the receiver drops, batches still queued are discarded (their gauges
/// released), later submits fail and dispatchers stop capturing. The batch
/// a panicking worker consumed is lost, not re-raised (see the module
/// docs).
pub fn run_constructor_service<A>(
    rx: ConstructionReceiver,
    cache: &SharedTraceCache<A>,
    config: ConstructorConfig,
    mut build: impl FnMut(&[BlockId]) -> Option<A>,
) -> BuilderStats {
    let health = &rx.shared.health;
    let mut builder = OffThreadBuilder::new(config);
    while let Some(snapshot) = rx.recv() {
        let kill = rx
            .shared
            .faults
            .get()
            .is_some_and(|p| p.fire(FaultSite::KillConstructor));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if kill {
                panic!("injected constructor kill (FaultSite::KillConstructor)");
            }
            builder.handle_job(&snapshot, cache, &mut build);
        }));
        if outcome.is_err() {
            health.panics.fetch_add(1, Relaxed);
            if health.restarts.load(Relaxed) >= MAX_RESTARTS {
                health.mark_degraded();
                break;
            }
            health.restarts.fetch_add(1, Relaxed);
            // The worker's internal state may be torn mid-job; its
            // counters are plain sums and stay valid. Start a fresh
            // incarnation that carries them over.
            builder = OffThreadBuilder {
                stats: builder.stats,
                ..OffThreadBuilder::new(config)
            };
        }
    }
    builder.stats
}

/// Lifecycle gauges of the construction service, kept in the channel's
/// shared state: the service writes them, every dispatcher reads them
/// through [`ConstructionQueue::health`].
///
/// Dispatchers check [`is_degraded`](Self::is_degraded) *before*
/// capturing a snapshot, so a service that has given up stops costing
/// capture work at once rather than on the next failed send.
#[derive(Debug, Default)]
pub struct ServiceHealth {
    degraded: AtomicBool,
    restarts: AtomicU64,
    panics: AtomicU64,
    degraded_discards: AtomicU64,
}

/// Point-in-time copy of [`ServiceHealth`] gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceHealthSnapshot {
    /// Whether the service is permanently degraded (no constructor will
    /// ever process another batch; VMs run at interpreter speed).
    pub degraded: bool,
    /// Worker restarts performed (at most [`MAX_RESTARTS`]).
    pub restarts: u64,
    /// Worker panics absorbed (injected or real). Each consumed its batch,
    /// whose signals are not re-raised.
    pub panics: u64,
    /// Signal batches a dispatcher discarded because the service was
    /// already degraded (no snapshot was captured for them).
    pub degraded_discards: u64,
}

impl ServiceHealth {
    /// Whether the service is permanently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Acquire)
    }

    /// Marks the service permanently degraded.
    pub fn mark_degraded(&self) {
        self.degraded.store(true, Release);
    }

    /// Records a dispatcher-side batch discard in degraded mode.
    pub fn note_degraded_discard(&self) {
        self.degraded_discards.fetch_add(1, Relaxed);
    }

    /// Gauge snapshot.
    pub fn snapshot(&self) -> ServiceHealthSnapshot {
        ServiceHealthSnapshot {
            degraded: self.is_degraded(),
            restarts: self.restarts.load(Relaxed),
            panics: self.panics.load(Relaxed),
            degraded_discards: self.degraded_discards.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceCache, TraceConstructor};
    use jvm_bytecode::FuncId;
    use trace_bcg::BcgConfig;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn bcg_with(delay: u32, threshold: f64) -> BranchCorrelationGraph {
        BranchCorrelationGraph::new(
            BcgConfig::default()
                .with_start_delay(delay)
                .with_threshold(threshold),
        )
    }

    /// The frozen-snapshot planner must reproduce the live in-thread
    /// constructor exactly when both see the same batches: drive one
    /// profiler, feed every batch to both pipelines, and compare the
    /// final link tables.
    #[test]
    fn snapshot_planning_matches_live_constructor() {
        for pattern in [
            vec![0u32, 1, 2],
            vec![9, 0, 1, 2, 3, 4],
            vec![5, 0, 1, 2],
            {
                let mut p = vec![9u32];
                p.extend(std::iter::repeat_n(0, 20));
                p
            },
        ] {
            let mut bcg = bcg_with(4, 0.97);
            let mut private = TraceCache::new();
            let mut ctor = TraceConstructor::new(ConstructorConfig::default());
            let shared: SharedTraceCache<()> = SharedTraceCache::new();
            let mut builder = OffThreadBuilder::new(ConstructorConfig::default());
            let mut buf = Vec::new();
            for _ in 0..400 {
                for &b in &pattern {
                    bcg.observe(blk(b));
                    if bcg.has_signals() {
                        bcg.drain_signals_into(&mut buf);
                        let snap = BcgSnapshot::capture(&bcg, &buf);
                        assert!(!snap.is_truncated());
                        ctor.handle_batch(&buf, &mut bcg, &mut private);
                        builder.handle_job(&snap, &shared, &mut |_| None);
                    }
                }
            }
            // Identical link tables: every private link exists in the
            // shared cache with the same block sequence, and vice versa.
            let mut private_links: Vec<(Branch, Vec<BlockId>)> = private
                .iter_links()
                .map(|(e, t)| (e, t.blocks().to_vec()))
                .collect();
            private_links.sort_by_key(|(e, _)| (e.0.func.0, e.0.block, e.1.func.0, e.1.block));
            assert_eq!(
                private.link_count(),
                shared.link_count(),
                "link counts diverged for pattern {pattern:?}"
            );
            for (entry, blocks) in private_links {
                let id = shared
                    .lookup_entry(entry)
                    .unwrap_or_else(|| panic!("missing shared link at {entry:?}"));
                let t = shared.trace(id).unwrap();
                assert_eq!(t.blocks(), &blocks[..], "blocks diverged at {entry:?}");
            }
            let s = builder.stats.constructor;
            let c = ctor.stats();
            assert_eq!(s.signals_handled, c.signals_handled);
            assert_eq!(s.entry_points, c.entry_points);
            assert_eq!(s.paths_walked, c.paths_walked);
            assert_eq!(s.loops_unrolled, c.loops_unrolled);
            assert_eq!(s.links_written, c.links_written);
        }
    }

    #[test]
    fn snapshot_is_self_contained_and_bounded() {
        let mut bcg = bcg_with(1, 0.97);
        let mut buf = Vec::new();
        for _ in 0..300 {
            for b in 0..12u32 {
                bcg.observe(blk(b));
            }
        }
        bcg.drain_signals_into(&mut buf);
        assert!(!buf.is_empty());
        let snap = BcgSnapshot::capture(&bcg, &buf);
        assert!(!snap.is_empty());
        assert!(snap.memory_estimate() > 0);
        // A tiny cap truncates but still yields a usable snapshot.
        let small = BcgSnapshot::capture_bounded(&bcg, &buf, 2);
        assert!(small.is_truncated());
        assert!(small.len() <= 2);
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        let mut builder = OffThreadBuilder::new(ConstructorConfig::default());
        builder.handle_job(&small, &cache, &mut |_| None);
        assert_eq!(builder.stats.snapshots_truncated, 1);
    }

    #[test]
    fn queue_bounds_and_counts_drops() {
        let (tx, rx) = channel_with_capacity(1);
        let mut bcg = bcg_with(1, 0.97);
        for _ in 0..50 {
            for b in 0..3u32 {
                bcg.observe(blk(b));
            }
        }
        let sigs = bcg.take_signals();
        let snap = BcgSnapshot::capture(&bcg, &sigs);
        assert!(tx.submit(snap.clone()));
        assert!(!tx.submit(snap.clone()), "second submit must hit the cap");
        let s = tx.stats();
        assert_eq!((s.submitted, s.dropped, s.depth, s.max_depth), (1, 1, 1, 1));
        assert!(rx.recv().is_some());
        assert_eq!(tx.stats().depth, 0);
        assert!(tx.submit(snap));
        drop(tx);
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_none(), "closed channel must end the service");
    }

    /// The degradation contract end to end: a full queue drops the
    /// batch, the dispatcher parks it, the next decay cycle re-raises
    /// it, and a later submit finally constructs the trace.
    #[test]
    fn dropped_batches_are_reraised_and_eventually_built() {
        let (tx, rx) = channel_with_capacity(1);
        let mut bcg = bcg_with(1, 0.97);
        let mut buf = Vec::new();
        for _ in 0..300 {
            for b in 0..3u32 {
                bcg.observe(blk(b));
            }
        }
        bcg.drain_signals_into(&mut buf);
        assert!(!buf.is_empty());
        // Occupy the queue's only slot so the real batch is dropped.
        let filler = BcgSnapshot::capture(&bcg, &[]);
        assert!(tx.submit(filler));
        if !tx.submit(BcgSnapshot::capture(&bcg, &buf)) {
            bcg.defer_signals(&buf);
        }
        assert!(bcg.deferred_len() > 0);
        assert!(!bcg.has_signals());
        // The decay cycle re-raises the parked signals...
        let n01 = bcg.node_index((blk(0), blk(1))).expect("loop branch node");
        bcg.force_decay(n01);
        assert!(bcg.has_signals());
        bcg.drain_signals_into(&mut buf);
        // ...and with queue space available the batch now goes through.
        let _ = rx.recv();
        assert!(tx.submit(BcgSnapshot::capture(&bcg, &buf)));
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        drop(tx);
        let stats = run_constructor_service(rx, &cache, ConstructorConfig::default(), |_| None);
        assert!(stats.jobs >= 1);
        assert!(
            cache.link_count() > 0,
            "re-raised batch must build the loop trace"
        );
    }

    /// Builds a snapshot carrying real signals from a warmed loop.
    fn loop_snapshot() -> BcgSnapshot {
        let mut bcg = bcg_with(1, 0.97);
        for _ in 0..300 {
            for b in 0..3u32 {
                bcg.observe(blk(b));
            }
        }
        let sigs = bcg.take_signals();
        assert!(!sigs.is_empty());
        BcgSnapshot::capture(&bcg, &sigs)
    }

    #[test]
    fn injected_drop_fault_rejects_submits() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (tx, rx) = construction_channel();
        tx.set_faults(Arc::new(FaultPlan::new(
            3,
            FaultConfig {
                drop_batch: 1.0,
                ..FaultConfig::none()
            },
        )));
        let snap = loop_snapshot();
        assert!(!tx.submit(snap.clone()));
        assert!(!tx.submit(snap));
        let s = tx.stats();
        assert_eq!((s.submitted, s.dropped, s.depth), (0, 2, 0));
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn injected_duplicate_fault_replays_the_batch() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (tx, rx) = construction_channel();
        tx.set_faults(Arc::new(FaultPlan::new(
            3,
            FaultConfig {
                duplicate_batch: 1.0,
                ..FaultConfig::none()
            },
        )));
        assert!(tx.submit(loop_snapshot()));
        let s = tx.stats();
        assert_eq!((s.submitted, s.depth), (2, 2), "batch must be replayed");
        // Replay is idempotent: the service hash-conses both copies into
        // the same traces.
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        drop(tx);
        let stats = run_constructor_service(rx, &cache, ConstructorConfig::default(), |_| None);
        assert_eq!(stats.jobs, 2);
        assert!(cache.stats().traces_reused > 0 || cache.trace_count() > 0);
    }

    #[test]
    fn supervisor_restarts_then_degrades_permanently() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (tx, rx) = construction_channel();
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        tx.set_faults(Arc::new(FaultPlan::new(
            1,
            FaultConfig::constructor_killer(),
        )));
        let health = Arc::clone(tx.health());
        let snap = loop_snapshot();
        for _ in 0..=MAX_RESTARTS {
            assert!(tx.submit(snap.clone()));
        }
        let stats = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                run_constructor_service(rx, &cache, ConstructorConfig::default(), |_| None)
            });
            handle.join().expect("supervisor itself must not panic")
        });
        // Kill and restart MAX_RESTARTS times; the next kill finds the
        // restarts exhausted → degraded, receiver dropped.
        let hs = health.snapshot();
        assert!(hs.degraded, "service must end degraded: {hs:?}");
        assert_eq!(hs.restarts, MAX_RESTARTS);
        assert_eq!(hs.panics, MAX_RESTARTS + 1);
        assert_eq!(stats.jobs, 0, "every batch died before processing");
        assert_eq!(cache.link_count(), 0);
        // Senders now fail fast; the dispatcher defers instead.
        assert!(!tx.submit(snap));
    }

    /// A service that degrades with batches still queued discards them
    /// with its receiver; their depth and byte gauges must go with them,
    /// or a session's memory estimate reports phantom snapshots forever.
    #[test]
    fn degrading_releases_the_gauges_of_queued_batches() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (tx, rx) = construction_channel();
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        tx.set_faults(Arc::new(FaultPlan::new(
            1,
            FaultConfig::constructor_killer(),
        )));
        let snap = loop_snapshot();
        for _ in 0..MAX_RESTARTS + 3 {
            assert!(tx.submit(snap.clone()));
        }
        assert!(tx.stats().bytes > 0);
        let stats = run_constructor_service(rx, &cache, ConstructorConfig::default(), |_| None);
        assert_eq!(stats.jobs, 0);
        let hs = tx.health().snapshot();
        assert!(hs.degraded, "service must end degraded: {hs:?}");
        assert_eq!(
            hs.panics,
            MAX_RESTARTS + 1,
            "two batches were never received"
        );
        let qs = tx.stats();
        assert_eq!((qs.depth, qs.bytes), (0, 0), "gauges stuck: {qs:?}");
    }

    #[test]
    fn supervised_service_without_faults_builds_normally() {
        let (tx, rx) = construction_channel();
        let cache: SharedTraceCache<()> = SharedTraceCache::new();
        let health = Arc::clone(tx.health());
        assert!(tx.submit(loop_snapshot()));
        drop(tx);
        let stats = run_constructor_service(rx, &cache, ConstructorConfig::default(), |_| None);
        assert!(stats.jobs == 1 && stats.constructor.links_written > 0);
        assert!(cache.link_count() > 0);
        let hs = health.snapshot();
        assert!(!hs.degraded && hs.panics == 0 && hs.restarts == 0);
    }

    #[test]
    fn supervisor_survives_a_real_builder_panic_and_keeps_serving() {
        let (tx, rx) = construction_channel();
        let cache: SharedTraceCache<u32> = SharedTraceCache::new();
        let health = Arc::clone(tx.health());
        let snap = loop_snapshot();
        assert!(tx.submit(snap.clone()));
        assert!(tx.submit(snap));
        drop(tx);
        // The *build* callback panics on the first batch only — a stand-in
        // for a lowering bug — and the second batch must still be served.
        let mut first = true;
        let stats = run_constructor_service(rx, &cache, ConstructorConfig::default(), |blocks| {
            if std::mem::take(&mut first) {
                panic!("lowering bug");
            }
            Some(blocks.len() as u32)
        });
        let hs = health.snapshot();
        assert!(!hs.degraded, "one panic must not degrade: {hs:?}");
        assert_eq!((hs.panics, hs.restarts), (1, 1));
        assert!(
            stats.constructor.links_written > 0,
            "second batch must be served"
        );
        assert!(cache.link_count() > 0);
    }
}
