//! The branch correlation graph itself.

use std::fmt;

use jvm_bytecode::BlockId;

use crate::config::{BcgConfig, DECAY_SHIFT, MAX_COUNTER};
use crate::node::{Node, Successor};
use crate::signal::{Signal, SignalKind};
use crate::stats::ProfilerStats;
use crate::table::{BranchMap, PackedBranch};
use crate::Branch;

/// Index of a node within a [`BranchCorrelationGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// Raw index into the node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The profiler: consumes the dynamic block stream one dispatch at a time
/// and maintains the branch correlation graph.
///
/// Feed it with [`BranchCorrelationGraph::observe`] — typically from a
/// [`jvm_vm::DispatchObserver`](https://docs.rs/jvm-vm) hook — then drain
/// pending [`Signal`]s with
/// [`BranchCorrelationGraph::drain_signals_into`] (reusable buffer, no
/// per-drain allocation) or [`BranchCorrelationGraph::take_signals`].
///
/// The per-dispatch cost model mirrors §4.1.2 of the paper:
///
/// * **fast path** (expected): the dispatched block matches the context
///   node's cached prediction and no event is due — a few comparisons,
///   the counter bumps, and the edge's embedded target index becomes the
///   new context; no hashing, and with ≤ 4 successors no pointer chase
///   either (inline storage);
/// * **slow path**: a linear scan of the context's known successors,
///   possibly constructing a new edge and node (lazy construction); only
///   this path touches the branch index, a [`BranchMap`] keyed by
///   [`PackedBranch`];
/// * **periodic work**: every `decay_interval` executions of a node its
///   counters decay and its state/prediction are rechecked.
///
/// Both paths leave every node field exact after every dispatch.
#[derive(Debug)]
pub struct BranchCorrelationGraph {
    config: BcgConfig,
    nodes: Vec<Node>,
    index: BranchMap<NodeIdx>,
    /// The block most recently dispatched.
    last_block: Option<BlockId>,
    /// Node of the most recent branch `(X, Y)` — the "branch context
    /// pointer" of §4.1.2.
    ctx_node: Option<NodeIdx>,
    signals: Vec<Signal>,
    stats: ProfilerStats,
}

impl BranchCorrelationGraph {
    /// Creates an empty graph with the given configuration.
    pub fn new(config: BcgConfig) -> Self {
        BranchCorrelationGraph {
            config,
            nodes: Vec::new(),
            index: BranchMap::default(),
            last_block: None,
            ctx_node: None,
            signals: Vec::new(),
            stats: ProfilerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BcgConfig {
        &self.config
    }

    /// Profiler statistics so far.
    #[inline]
    pub fn stats(&self) -> ProfilerStats {
        self.stats
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn node(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx.index()]
    }

    /// Looks up the node for a branch, if it has ever been observed.
    pub fn node_index(&self, branch: Branch) -> Option<NodeIdx> {
        self.index.get(&PackedBranch::pack(branch)).copied()
    }

    /// Iterates over all `(index, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeIdx, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeIdx(i as u32), n))
    }

    /// Resets the stream context (between program runs) without touching
    /// the accumulated graph.
    pub fn begin_stream(&mut self) {
        self.last_block = None;
        self.ctx_node = None;
    }

    /// Re-anchors the stream context at `block` without recording a
    /// branch. A trace-executing VM calls this whenever a trace hands
    /// control back, completed or early: the profiling points inside the
    /// trace were eliminated (§4.1.2 — "all of the inlined ones are
    /// removed"), so the profiler resumes from the block the interpreter
    /// resumes in — the trace's final block, or the block a side exit
    /// resumes — rather than inventing a branch from inside the trace.
    pub fn set_context(&mut self, block: BlockId) {
        self.last_block = Some(block);
        self.ctx_node = None;
    }

    /// Drains and returns all pending signals, allocating a fresh vector.
    /// Hot loops should prefer [`Self::drain_signals_into`].
    pub fn take_signals(&mut self) -> Vec<Signal> {
        std::mem::take(&mut self.signals)
    }

    /// Drains all pending signals into `out` (cleared first), retaining
    /// both buffers' capacity: the steady-state dispatch loop drains
    /// without touching the allocator.
    pub fn drain_signals_into(&mut self, out: &mut Vec<Signal>) {
        out.clear();
        out.append(&mut self.signals);
    }

    /// Whether any signals are pending (cheaper than draining).
    #[inline]
    pub fn has_signals(&self) -> bool {
        !self.signals.is_empty()
    }

    /// Stamps a node with the trace cache's generation counter. The trace
    /// cache marks every node it incorporates while reacting to a signal,
    /// "to prevent cascades of state changes" (§4.2).
    pub fn mark_generation(&mut self, idx: NodeIdx, generation: u64) {
        self.nodes[idx.index()].generation = generation;
    }

    /// Writes a node's inline trace-link slot: `raw` is whatever the
    /// trace cache wants to find there while its version equals
    /// `version` (a raw trace id or [`crate::node::NO_TRACE_LINK`]).
    /// See [`Node::trace_link`].
    #[inline]
    pub fn set_trace_link(&mut self, idx: NodeIdx, version: u64, raw: u32) {
        let node = &mut self.nodes[idx.index()];
        node.link_version = version;
        node.link_raw = raw;
    }

    /// Estimated heap footprint of the graph in bytes (nodes, spilled
    /// successor and predecessor lists, and the branch index). The paper
    /// stresses that the BCG is memory-light — "we carefully represent
    /// blocks, nodes, and edges to minimize memory overhead" (§3.5) —
    /// and lazy construction keeps it proportional to the *realized*
    /// branch pairs, not the static program size; this estimate lets
    /// harnesses report that cost.
    ///
    /// Computed from the real layout: the node array's capacity, each
    /// node's actual spill state, and the branch index's capacity at one
    /// `(key, value)` slot plus one SwissTable control byte each.
    pub fn memory_estimate(&self) -> usize {
        use std::mem::size_of;
        let node_fixed = self.nodes.capacity() * size_of::<Node>();
        let lists: usize = self
            .nodes
            .iter()
            .map(|n| n.successors.heap_bytes() + n.preds.heap_bytes())
            .sum();
        node_fixed + lists + self.index_bytes()
    }

    /// Bytes held by the branch index: one `(key, value)` slot and one
    /// control byte per entry it has room for.
    fn index_bytes(&self) -> usize {
        self.index.capacity() * (std::mem::size_of::<(PackedBranch, NodeIdx)>() + 1)
    }

    /// Observes one dispatched block. This is the profiler hook executed
    /// with every block dispatch.
    ///
    /// Returns the node of the branch just observed — `(previous block,
    /// z)` — which is the new context node, or `None` for the first
    /// block of a stream. The trace engine threads this into the trace
    /// cache's per-node link slot so its entry check never hashes.
    ///
    /// The expected case is the fast path, `predicted_hit`: the paper's
    /// "couple of comparisons and a counter bump" (§4.1.2). Any other
    /// visit runs `record_slow`, the paper's rule in full.
    #[inline]
    pub fn observe(&mut self, z: BlockId) -> Option<NodeIdx> {
        self.stats.dispatches += 1;
        // First block of the stream has no branch yet.
        let y = self.last_block.replace(z)?;
        let next = match self.ctx_node {
            Some(nxy) => match self.predicted_hit(nxy, z) {
                Some(next) => next,
                None => self.record_slow(nxy, (y, z)),
            },
            None => self.get_or_create((y, z)),
        };
        #[cfg(feature = "debug-invariants")]
        {
            if let Some(nxy) = self.ctx_node {
                self.assert_node_invariants(nxy);
            }
            self.assert_node_invariants(next);
        }
        self.ctx_node = Some(next);
        Some(next)
    }

    /// The fast path: `z` is the context node's prediction and this
    /// visit fires no event — the predicted counter is below
    /// [`MAX_COUNTER`], the decay window does not close, and the start
    /// delay does not expire. It then does exactly what
    /// [`Self::record_slow`] would: every counter bump, the decay window
    /// and the delay countdown. Returns `None`, changing nothing, for
    /// any other visit.
    #[inline(always)]
    fn predicted_hit(&mut self, nxy: NodeIdx, z: BlockId) -> Option<NodeIdx> {
        let cfg = &self.config;
        let node = &mut self.nodes[nxy.index()];
        let p = node.prediction.filter(|p| p.block == z)?;
        if node.since_decay + 1 >= cfg.decay_interval || node.delay_remaining == 1 {
            return None;
        }
        let s = &mut node.successors.as_mut_slice()[p.slot as usize];
        if s.count == MAX_COUNTER {
            return None;
        }
        s.count += 1;
        node.total_weight += 1;
        node.executions += 1;
        node.since_decay += 1;
        node.delay_remaining = node.delay_remaining.saturating_sub(1);
        self.stats.cache_hits += 1;
        Some(p.next)
    }

    /// The `debug-invariants` layer: machine-checkable properties of one
    /// live node, asserted after every dispatch through it. Each check
    /// names the paper rule it encodes (DESIGN.md, "Conformance
    /// invariants" maps them in prose). Compiled out unless the
    /// `debug-invariants` feature is on.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_node_invariants(&self, idx: NodeIdx) {
        use crate::state::NodeState;
        let cfg = &self.config;
        let node = &self.nodes[idx.index()];
        // §4.1: the counters are 16-bit (`u16`, saturating at
        // `MAX_COUNTER`); their sum is the node's weight.
        let sum: u32 = node
            .successors
            .as_slice()
            .iter()
            .map(|s| u32::from(s.count))
            .sum();
        assert_eq!(
            node.total_weight, sum,
            "{idx}: total_weight out of sync with successor counters"
        );
        // §3.3: a node still inside the start-state delay is NewlyCreated.
        if node.delay_remaining > 0 {
            assert_eq!(
                node.state,
                NodeState::NewlyCreated,
                "{idx}: delayed node left the start state early"
            );
        }
        // §4.1.1: decay fires *at* the interval boundary, so between
        // visits the since-decay window stays strictly below it.
        assert!(
            node.since_decay < cfg.decay_interval,
            "{idx}: missed a decay ({} >= {})",
            node.since_decay,
            cfg.decay_interval
        );
        // The prediction indexes a live successor slot and equals it:
        // its block and target node are that slot's.
        if let Some(p) = node.prediction {
            let Some(s) = node.successors.as_slice().get(p.slot as usize) else {
                panic!("{idx}: prediction slot {} dangles", p.slot);
            };
            assert_eq!(
                (p.block, p.next),
                (s.to_block, s.node),
                "{idx}: prediction differs from successor slot {}",
                p.slot
            );
        }
    }

    /// Crate-internal mutable node access for the persistence image
    /// module ([`crate::image`]).
    pub(crate) fn node_mut(&mut self, idx: NodeIdx) -> &mut Node {
        &mut self.nodes[idx.index()]
    }

    /// Makes room for `additional` more nodes in the node array and the
    /// branch index, so the image merge creates them without regrowing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.index.reserve(additional);
    }

    /// Crate-internal [`Self::get_or_create`] alias for the image module.
    pub(crate) fn get_or_create_node(&mut self, branch: Branch) -> NodeIdx {
        self.get_or_create(branch)
    }

    /// Gets or lazily creates the node for `branch`.
    fn get_or_create(&mut self, branch: Branch) -> NodeIdx {
        let key = PackedBranch::pack(branch);
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes.push(Node::new(branch, self.config.start_delay));
        self.index.insert(key, idx);
        self.stats.nodes_created += 1;
        idx
    }

    /// Records that branch `yz` followed the branch at `nxy`, updating the
    /// edge counter, the start delay, and the decay schedule. Returns the
    /// node for `yz`, which becomes the new context.
    ///
    /// This is the paper's per-dispatch rule as the conformance model
    /// transcribes it.
    fn record_slow(&mut self, nxy: NodeIdx, yz: Branch) -> NodeIdx {
        let cfg = self.config;
        let z = yz.1;

        // Inline-cache check: cached prediction matches.
        let mut next: Option<NodeIdx> = None;
        {
            let node = &mut self.nodes[nxy.index()];
            node.executions += 1;
            if let Some(p) = node.prediction.filter(|p| p.block == z) {
                let s = &mut node.successors.as_mut_slice()[p.slot as usize];
                if s.count < MAX_COUNTER {
                    s.count += 1;
                    node.total_weight += 1;
                }
                self.stats.cache_hits += 1;
                next = Some(p.next);
            }
            if next.is_none() {
                self.stats.cache_misses += 1;
                // Slow path: scan the known correlations.
                if let Some(i) = node
                    .successors
                    .as_slice()
                    .iter()
                    .position(|s| s.to_block == z)
                {
                    let s = &mut node.successors.as_mut_slice()[i];
                    if s.count < MAX_COUNTER {
                        s.count += 1;
                        node.total_weight += 1;
                    }
                    let s_node = s.node;
                    if node.prediction.is_none() {
                        node.predict(i);
                    }
                    next = Some(s_node);
                }
            }
        }

        // Lazy construction: new correlation, possibly a new node.
        let next = match next {
            Some(n) => n,
            None => {
                let nyz = self.get_or_create(yz);
                let node = &mut self.nodes[nxy.index()];
                node.successors.push(Successor {
                    to_block: z,
                    count: 1,
                    node: nyz,
                });
                node.total_weight += 1;
                if node.prediction.is_none() {
                    node.predict(node.successors.len() - 1);
                }
                self.stats.edges_created += 1;
                self.nodes[nyz.index()].preds.insert(nxy);
                nyz
            }
        };

        // Start-state delay countdown; leaving it is a state change.
        let mut decay_due = false;
        {
            let node = &mut self.nodes[nxy.index()];
            if node.delay_remaining > 0 {
                node.delay_remaining -= 1;
                if node.delay_remaining == 0 {
                    let new = node.compute_state(cfg.threshold);
                    if new != node.state {
                        let old = node.state;
                        // §3.3: leaving the start-state delay is the only
                        // transition possible here — the state machine
                        // holds NewlyCreated for the delay's whole span.
                        #[cfg(feature = "debug-invariants")]
                        assert_eq!(
                            old,
                            crate::state::NodeState::NewlyCreated,
                            "{nxy}: delay expiry from a non-start state"
                        );
                        node.state = new;
                        self.signals.push(Signal {
                            node: nxy,
                            branch: node.branch,
                            kind: SignalKind::StateChange { old, new },
                        });
                        self.stats.state_signals += 1;
                    }
                }
            }
            node.since_decay += 1;
            if node.since_decay >= cfg.decay_interval {
                decay_due = true;
            }
        }
        if decay_due {
            self.decay(nxy);
        }
        next
    }

    /// Forces a node's periodic decay to fire *now*, regardless of how
    /// many executions have elapsed since the last one. This is a
    /// test/chaos hook: the conformance campaigns use it to explore
    /// counter-decay interleavings that a natural dispatch stream would
    /// need billions of blocks to reach. Semantically it is exactly the
    /// decay the node would have performed at its next interval boundary,
    /// so a model following the paper's decay rule stays in lockstep.
    pub fn force_decay(&mut self, idx: NodeIdx) {
        self.decay(idx);
        #[cfg(feature = "debug-invariants")]
        self.assert_node_invariants(idx);
    }

    /// Performs the periodic decay of one node: shifts all its correlation
    /// counters right, prunes dead edges, re-elects the predicted
    /// successor, and rechecks the state — signalling the trace cache if
    /// the state or the prediction changed (§4.1.1).
    fn decay(&mut self, idx: NodeIdx) {
        let cfg = self.config;
        let node = &mut self.nodes[idx.index()];
        let old_state = node.state;
        let old_pred = node.predicted().map(|s| s.to_block);

        for s in node.successors.as_mut_slice() {
            s.count >>= DECAY_SHIFT;
        }
        node.successors.retain(|s| s.count > 0);
        node.total_weight = node
            .successors
            .as_slice()
            .iter()
            .map(|s| u32::from(s.count))
            .sum();

        // Re-elect the cached prediction: the maximally correlated edge.
        node.reelect();

        let new_state = if node.delay_remaining > 0 {
            // Still filtered; no re-evaluation until hot. While delayed
            // the tag can only ever be the start state (§3.3).
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                old_state,
                crate::state::NodeState::NewlyCreated,
                "{idx}: delayed node decayed from a non-start state"
            );
            old_state
        } else {
            node.compute_state(cfg.threshold)
        };
        node.state = new_state;
        node.since_decay = 0;
        self.stats.decays += 1;

        let new_pred = node.predicted().map(|s| s.to_block);
        let branch = node.branch;
        if new_state != old_state {
            self.signals.push(Signal {
                node: idx,
                branch,
                kind: SignalKind::StateChange {
                    old: old_state,
                    new: new_state,
                },
            });
            self.stats.state_signals += 1;
        } else if new_state.is_hot() && new_pred != old_pred {
            self.signals.push(Signal {
                node: idx,
                branch,
                kind: SignalKind::PredictionChange {
                    old: old_pred,
                    new: new_pred,
                },
            });
            self.stats.prediction_signals += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeState;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn cfg(delay: u32, threshold: f64) -> BcgConfig {
        BcgConfig::default()
            .with_start_delay(delay)
            .with_threshold(threshold)
    }

    /// Feed a repeating cyclic block pattern `n` times.
    fn feed(bcg: &mut BranchCorrelationGraph, pattern: &[u32], reps: usize) {
        for _ in 0..reps {
            for &b in pattern {
                bcg.observe(blk(b));
            }
        }
    }

    #[test]
    fn first_block_creates_nothing() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        assert_eq!(bcg.observe(blk(0)), None);
        assert!(bcg.is_empty());
        assert_eq!(bcg.stats().dispatches, 1);
    }

    #[test]
    fn observe_returns_the_context_node() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        bcg.observe(blk(0));
        let n01 = bcg.observe(blk(1)).expect("branch formed");
        assert_eq!(bcg.node(n01).branch(), (blk(0), blk(1)));
        let n10 = bcg.observe(blk(0)).expect("branch formed");
        assert_eq!(bcg.node(n10).branch(), (blk(1), blk(0)));
        // Repeats return the same nodes via the inline-cache fast path.
        assert_eq!(bcg.observe(blk(1)), Some(n01));
        assert_eq!(bcg.observe(blk(0)), Some(n10));
    }

    #[test]
    fn pair_stream_builds_two_nodes_and_edges() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1], 10);
        // Branches: (0,1) and (1,0).
        assert_eq!(bcg.len(), 2);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let n10 = bcg.node_index((blk(1), blk(0))).unwrap();
        let node01 = bcg.node(n01);
        assert_eq!(node01.successors().len(), 1);
        assert_eq!(node01.successors()[0].to_block, blk(0));
        assert_eq!(node01.successors()[0].node, n10);
        assert_eq!(node01.state(), NodeState::Unique);
        assert!(bcg.node(n10).predecessors().contains(&n01));
    }

    #[test]
    fn start_delay_gates_hotness() {
        let mut bcg = BranchCorrelationGraph::new(cfg(64, 0.97));
        feed(&mut bcg, &[0, 1], 30); // each branch executes < 64 times
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        assert_eq!(bcg.node(n01).state(), NodeState::NewlyCreated);
        feed(&mut bcg, &[0, 1], 40); // crosses the 64-execution delay
        assert_eq!(bcg.node(n01).state(), NodeState::Unique);
        // Exactly one state-change signal for that node.
        let sigs = bcg.take_signals();
        let for_n01: Vec<_> = sigs.iter().filter(|s| s.node == n01).collect();
        assert_eq!(for_n01.len(), 1);
        assert!(matches!(
            for_n01[0].kind,
            SignalKind::StateChange {
                old: NodeState::NewlyCreated,
                new: NodeState::Unique
            }
        ));
    }

    #[test]
    fn biased_branch_becomes_strong_not_unique() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.90));
        // Context (0,1) is followed by 2 most of the time, 3 occasionally:
        // stream 0 1 2 0 1 2 ... with a 3 every 20th round. Run past the
        // 256-execution decay interval so the state tag is re-evaluated.
        for i in 0..400 {
            bcg.observe(blk(0));
            bcg.observe(blk(1));
            bcg.observe(blk(if i % 20 == 19 { 3 } else { 2 }));
        }
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let node = bcg.node(n01);
        assert_eq!(node.successors().len(), 2);
        assert_eq!(node.state(), NodeState::Strong);
        assert!(node.correlation_to(blk(2)) >= 0.90);
    }

    #[test]
    fn unbiased_branch_is_weak() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        for i in 0..400 {
            bcg.observe(blk(0));
            bcg.observe(blk(1));
            bcg.observe(blk(if i % 2 == 0 { 2 } else { 3 }));
        }
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let node = bcg.node(n01);
        assert_eq!(node.state(), NodeState::Weak);
        let c2 = node.correlation_to(blk(2));
        assert!((0.3..=0.7).contains(&c2), "c2 = {c2}");
    }

    #[test]
    fn predicted_hits_dominate_on_regular_stream() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1, 2, 3], 1000);
        let s = bcg.stats();
        assert!(
            s.cache_hit_ratio() > 0.99,
            "hit ratio {}",
            s.cache_hit_ratio()
        );
    }

    #[test]
    fn decay_halves_counters_and_caps_window() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        // Run for many decay intervals; counters must stay bounded by
        // roughly 2 * decay_interval (geometric series of halvings).
        feed(&mut bcg, &[0, 1], 4000);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let node = bcg.node(n01);
        let c = node.successors()[0].count;
        assert!(c > 0);
        assert!(
            u32::from(c) <= 2 * bcg.config().decay_interval,
            "counter {c} should be bounded by the decay window"
        );
        assert!(bcg.stats().decays > 0);
    }

    #[test]
    fn phase_change_flips_prediction_and_signals() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        // Phase 1: (0,1) -> 2.
        feed(&mut bcg, &[0, 1, 2], 400);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        assert_eq!(bcg.node(n01).predicted().unwrap().to_block, blk(2));
        let _ = bcg.take_signals();
        // Phase 2: (0,1) -> 3 forever after.
        feed(&mut bcg, &[0, 1, 3], 4000);
        let node = bcg.node(n01);
        assert_eq!(node.predicted().unwrap().to_block, blk(3));
        // The old edge must eventually decay away entirely.
        assert_eq!(node.successors().len(), 1, "stale edge should be pruned");
        assert_eq!(node.state(), NodeState::Unique);
        let sigs = bcg.take_signals();
        assert!(
            sigs.iter().any(|s| s.node == n01),
            "phase change must signal the trace cache"
        );
    }

    #[test]
    fn generation_marking_round_trips() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1], 5);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        assert_eq!(bcg.node(n01).generation(), 0);
        bcg.mark_generation(n01, 42);
        assert_eq!(bcg.node(n01).generation(), 42);
    }

    #[test]
    fn begin_stream_resets_context_but_keeps_graph() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1], 10);
        let before = bcg.len();
        bcg.begin_stream();
        // A fresh stream's first block forms no branch with the old one.
        bcg.observe(blk(7));
        assert_eq!(bcg.len(), before);
        bcg.observe(blk(8));
        assert_eq!(bcg.len(), before + 1);
    }

    /// Decay truncation can drop the maximal successor's correlation
    /// back below the completion threshold: a Strong node must demote to
    /// Weak (with a state-change signal), not stay pinned Strong.
    #[test]
    fn decay_lands_strong_node_back_below_threshold() {
        let mut bcg = BranchCorrelationGraph::new(BcgConfig {
            decay_interval: u32::MAX, // only explicit force_decay ticks
            ..cfg(1, 0.70)
        });
        // Context (0,1) sees 2 ten times and 3 four times: counts 10:4.
        feed(&mut bcg, &[0, 1, 2], 10);
        feed(&mut bcg, &[0, 1, 3], 4);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let _ = bcg.take_signals();

        // First decay: 10:4 -> 5:2, corr 5/7 ~ 0.714 >= 0.70 => Strong.
        bcg.force_decay(n01);
        assert_eq!(bcg.node(n01).state(), NodeState::Strong);

        // Second decay: 5:2 -> 2:1, corr 2/3 ~ 0.667 < 0.70 => Weak.
        bcg.force_decay(n01);
        assert_eq!(bcg.node(n01).state(), NodeState::Weak);
        let sigs = bcg.take_signals();
        assert!(
            sigs.iter().any(|s| s.node == n01
                && matches!(
                    s.kind,
                    SignalKind::StateChange {
                        old: NodeState::Strong,
                        new: NodeState::Weak
                    }
                )),
            "demotion below threshold must signal Strong -> Weak, got {sigs:?}"
        );
    }

    /// At the full 16-bit range the edge counter parks at `u16::MAX` and
    /// stays there — no wraparound back through zero, and `total_weight`
    /// stops advancing in lockstep with the saturated edge.
    #[test]
    fn sixteen_bit_counter_saturates_at_max_without_wrap() {
        let mut bcg = BranchCorrelationGraph::new(BcgConfig {
            decay_interval: u32::MAX, // never decay: drive to saturation
            ..cfg(1, 0.97)
        });
        assert_eq!(MAX_COUNTER, u16::MAX);
        // 70_000 executions per branch: > u16::MAX, would wrap to ~4464.
        feed(&mut bcg, &[0, 1], 70_000);
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let node = bcg.node(n01);
        // (the creating visit is not an execution, hence one less)
        assert_eq!(node.executions(), 69_999);
        assert!(node.executions() > u64::from(u16::MAX));
        assert_eq!(node.successors()[0].count, u16::MAX);
        assert_eq!(node.total_weight(), u32::from(u16::MAX));
        assert_eq!(node.state(), NodeState::Unique);
    }

    /// Feeds `pattern` `reps` times through a graph under `cfg`. Returns
    /// the graph, the dispatches (1-based) on which `(0, 1)` signalled and
    /// those on which a node decayed.
    fn feed_recording(
        cfg: BcgConfig,
        pattern: &[u32],
        reps: usize,
    ) -> (BranchCorrelationGraph, Vec<u64>, Vec<u64>) {
        let mut g = BranchCorrelationGraph::new(cfg);
        let (mut signalled, mut decayed) = (Vec::new(), Vec::new());
        for &b in pattern.iter().cycle().take(pattern.len() * reps) {
            let decays = g.stats().decays;
            g.observe(blk(b));
            let d = g.stats().dispatches;
            if g.take_signals()
                .iter()
                .any(|s| s.branch == (blk(0), blk(1)))
            {
                signalled.push(d);
            }
            if g.stats().decays > decays {
                decayed.push(d);
            }
        }
        (g, signalled, decayed)
    }

    /// A predicted hit on which an event falls due — the start delay's
    /// last visit, the visit that closes the decay window, a hit on a
    /// saturated counter — acts on that very dispatch, as the slow rule
    /// does, and leaves `since_decay` / `delay_remaining` exact.
    #[test]
    fn predicted_hits_at_an_event_boundary_act_on_that_dispatch() {
        // On a 0 1 0 1 ... stream, (0, 1)'s k-th execution is dispatch
        // 1 + 2k; its first makes the edge, every later one is a
        // predicted hit. (1, 0)'s k-th execution is one dispatch later.
        let exec = |k: u64| 1 + 2 * k;
        let n01 = (blk(0), blk(1));

        // The delay (5) expires on the 5th execution, a predicted hit.
        let (g, signalled, _) = feed_recording(cfg(5, 0.97), &[0, 1], 8);
        assert_eq!(signalled, [exec(5)]);
        let node = g.node(g.node_index(n01).unwrap());
        assert_eq!(
            (node.delay_remaining(), node.state()),
            (0, NodeState::Unique)
        );

        // The 8th execution closes an 8-execution decay window.
        let short = BcgConfig {
            decay_interval: 8,
            ..cfg(1, 0.97)
        };
        let (g, _, decayed) = feed_recording(short, &[0, 1], 12);
        assert_eq!(decayed, [exec(8), exec(8) + 1]);
        assert_eq!(g.node(g.node_index(n01).unwrap()).since_decay(), 3);

        // The 65,536th execution hits a counter already at the bound.
        let never = BcgConfig {
            decay_interval: u32::MAX,
            ..cfg(1, 0.97)
        };
        let reps = usize::from(MAX_COUNTER) + 2;
        let (g, _, decayed) = feed_recording(never, &[0, 1], reps);
        assert!(decayed.is_empty());
        assert_eq!(
            g.stats().cache_misses,
            2,
            "only the two edge creations miss"
        );
        let node = g.node(g.node_index(n01).unwrap());
        assert_eq!(node.executions(), u64::from(MAX_COUNTER) + 1);
        assert_eq!(node.successors()[0].count, MAX_COUNTER);
        assert_eq!(node.total_weight(), u32::from(MAX_COUNTER));
        assert_eq!(node.since_decay(), u32::from(MAX_COUNTER) + 1);
    }

    #[test]
    fn dispatch_count_tracks_observations() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1, 2], 7);
        assert_eq!(bcg.stats().dispatches, 21);
    }

    #[test]
    fn drain_signals_into_reuses_the_buffer() {
        let mut bcg = BranchCorrelationGraph::new(cfg(2, 0.97));
        feed(&mut bcg, &[0, 1], 10);
        assert!(bcg.has_signals());
        let mut buf = Vec::new();
        bcg.drain_signals_into(&mut buf);
        assert!(!buf.is_empty());
        assert!(!bcg.has_signals());
        let cap = buf.capacity();
        let first = buf.clone();
        // Draining again clears the buffer without reallocating.
        bcg.drain_signals_into(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap);
        // And matches what take_signals would have produced.
        feed(&mut bcg, &[4, 5], 10);
        bcg.drain_signals_into(&mut buf);
        let mut bcg2 = BranchCorrelationGraph::new(cfg(2, 0.97));
        feed(&mut bcg2, &[0, 1], 10);
        assert_eq!(bcg2.take_signals(), first);
    }

    #[test]
    fn memory_estimate_grows_with_the_graph_and_stays_lazy() {
        let mut small = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut small, &[0, 1], 50);
        let small_mem = small.memory_estimate();
        assert!(small_mem > 0);

        let mut big = BranchCorrelationGraph::new(cfg(1, 0.97));
        for i in 0..32u32 {
            for _ in 0..10 {
                big.observe(blk(i));
                big.observe(blk(i + 32));
            }
        }
        assert!(
            big.memory_estimate() > small_mem,
            "more realized branches must cost more memory"
        );
        // Lazy construction: memory tracks realized pairs (~hundreds of
        // bytes each), not some quadratic blowup.
        assert!(big.memory_estimate() < 64 * 1024);
    }

    #[test]
    fn memory_estimate_accounts_for_the_index_capacity() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        // Enough distinct branches to force several index growths.
        for i in 0..200u32 {
            bcg.observe(blk(i % 100));
            bcg.observe(blk(100 + i % 100));
        }
        let est = bcg.memory_estimate();
        use std::mem::size_of;
        let node_bytes = bcg.len() * size_of::<Node>();
        assert!(
            est >= node_bytes,
            "estimate {est} must cover at least the node array {node_bytes}"
        );
    }

    /// Inline successor and predecessor lists are part of the node array;
    /// only a spilled list adds heap bytes of its own.
    #[test]
    fn memory_estimate_counts_only_spilled_lists() {
        use std::mem::size_of;
        let fixed =
            |g: &BranchCorrelationGraph| g.nodes.capacity() * size_of::<Node>() + g.index_bytes();
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1, 2, 3], 20);
        assert_eq!(bcg.memory_estimate(), fixed(&bcg), "nothing spilled yet");
        // Node (1, 2) gains ten predecessors (k, 1): its list spills.
        for k in 10..20u32 {
            bcg.begin_stream();
            feed(&mut bcg, &[k, 1, 2], 1);
        }
        let n12 = bcg.node_index((blk(1), blk(2))).unwrap();
        let spilled = bcg.node(n12).preds.heap_bytes();
        assert!(spilled >= 10 * size_of::<NodeIdx>());
        let succ: usize = bcg.nodes.iter().map(|n| n.successors.heap_bytes()).sum();
        let preds: usize = bcg.nodes.iter().map(|n| n.preds.heap_bytes()).sum();
        assert_eq!(preds, spilled, "only (1, 2)'s list spilled");
        assert_eq!(bcg.memory_estimate(), fixed(&bcg) + succ + preds);
    }

    /// Warm boot sizes the node array and the branch index once: a merge
    /// into an empty graph never regrows either.
    #[test]
    fn a_merge_into_an_empty_graph_reallocates_nothing() {
        let mut donor = BranchCorrelationGraph::new(cfg(4, 0.90));
        for i in 0..37u32 {
            feed(&mut donor, &[i, 100 + i, 200 + i % 3], 40);
        }
        let image = crate::image::export(&donor);
        let n = image.nodes.len();
        assert!(n > 100 && !n.is_power_of_two());

        let mut fresh = BranchCorrelationGraph::new(*donor.config());
        crate::image::merge_into(&mut fresh, &image).unwrap();
        assert_eq!(fresh.len(), n);
        assert_eq!(fresh.nodes.capacity(), n, "one exact reservation");

        let mut fresh = BranchCorrelationGraph::new(*donor.config());
        fresh.reserve(n);
        let (nodes, index) = (fresh.nodes.as_ptr(), fresh.index.capacity());
        crate::image::merge_into(&mut fresh, &image).unwrap();
        assert_eq!(fresh.nodes.as_ptr(), nodes, "node array regrown");
        assert_eq!(fresh.index.capacity(), index, "branch index regrown");
        assert_eq!(crate::image::export(&fresh), image);
    }

    #[test]
    fn iter_visits_every_node() {
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1, 2, 3], 3);
        let n = bcg.len();
        assert_eq!(bcg.iter().count(), n);
        for (idx, node) in bcg.iter() {
            assert_eq!(bcg.node_index(node.branch()), Some(idx));
        }
    }
}
