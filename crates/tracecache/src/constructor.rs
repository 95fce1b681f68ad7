//! Signal-driven trace construction (§4.2 of the paper).
//!
//! When the profiler reports that a branch's state or predicted successor
//! changed, the constructor:
//!
//! 1. **finds affected entry points** by back-tracking the BCG from the
//!    changed node along strongly-correlated predecessor edges (a
//!    predecessor belongs to the same trace region if it is
//!    `Strong`/`Unique` and its maximum-likelihood successor is the
//!    current node);
//! 2. **walks the maximum-likelihood path** forward from each entry point
//!    until it meets a node already on the path (a loop — unrolled once)
//!    or a non-traceable node;
//! 3. **cuts the path into traces** whose cumulative completion
//!    probability (the product of the branch correlations along the
//!    chain, §3.7) stays at or above the threshold, hash-consing each
//!    into the [`TraceCache`] and linking it at its entry branch.
//!
//! Finally every node touched is stamped with the constructor's generation
//! counter so that the remaining signals of the same batch don't trigger
//! redundant reconstructions ("to prevent cascades of state changes",
//! §4.2).

use jvm_bytecode::BlockId;
use trace_bcg::{BranchCorrelationGraph, NodeIdx, Signal};

use crate::cache::TraceCache;

/// Hard cap on blocks per trace.
pub const MAX_TRACE_BLOCKS: usize = 64;
/// Hard cap on nodes visited during one forward path walk.
pub const MAX_PATH_NODES: usize = 256;
/// Hard cap on entry points processed per signal.
pub const MAX_ENTRY_POINTS: usize = 32;
/// Traces shorter than this many blocks are not worth caching (a
/// one-block trace is just ordinary block dispatch).
pub const MIN_TRACE_BLOCKS: usize = 2;

/// Tunables of the trace constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstructorConfig {
    /// Minimum cumulative completion probability of an emitted trace; use
    /// the same value as [`trace_bcg::BcgConfig::threshold`].
    pub threshold: f64,
    /// How many *extra* copies of a terminating loop's body are appended
    /// when the path ends in a loop. The paper unrolls once (`1`); larger
    /// values generalise the rule (an ablation knob — longer loop traces
    /// at the cost of more partial executions when iteration counts are
    /// low). Still subject to `threshold` and [`MAX_TRACE_BLOCKS`].
    pub loop_unroll: usize,
}

impl ConstructorConfig {
    /// Defaults matching the paper's 97% threshold.
    pub fn paper_default() -> Self {
        ConstructorConfig {
            threshold: 0.97,
            loop_unroll: 1,
        }
    }

    /// Returns this configuration with a different completion threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }
}

impl Default for ConstructorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Counters describing constructor activity. The links it writes and
/// removes, and the installs the quarantine refuses, are counted once, in
/// the cache's [`CacheStats`](crate::CacheStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructorStats {
    /// Signals that triggered reconstruction work.
    pub signals_handled: u64,
    /// Signals skipped because their node was already brought up to date
    /// earlier in the same batch (cascade suppression).
    pub signals_suppressed: u64,
    /// Entry points discovered by back-tracking.
    pub entry_points: u64,
    /// Forward path walks performed.
    pub paths_walked: u64,
    /// Loops detected and unrolled once.
    pub loops_unrolled: u64,
    /// New trace objects constructed.
    pub traces_created: u64,
}

/// The trace constructor. Owns no graph or cache — it is driven with
/// borrowed access so the integrated VM can keep profiler, constructor
/// and cache as independent components.
///
/// ```
/// use jvm_bytecode::{BlockId, FuncId};
/// use trace_bcg::{BcgConfig, BranchCorrelationGraph};
/// use trace_cache::{ConstructorConfig, TraceCache, TraceConstructor};
///
/// let mut bcg = BranchCorrelationGraph::new(BcgConfig::default().with_start_delay(4));
/// let mut cache = TraceCache::new();
/// let mut ctor = TraceConstructor::new(ConstructorConfig::default());
/// // Drive the profiler with a hot three-block loop; react to signals.
/// let b = |i| BlockId::new(FuncId(0), i);
/// for _ in 0..400 {
///     for i in [0, 1, 2] {
///         bcg.observe(b(i));
///         if bcg.has_signals() {
///             let signals = bcg.take_signals();
///             ctor.handle_batch(&signals, &mut bcg, &mut cache);
///         }
///     }
/// }
/// assert!(cache.link_count() > 0, "the loop was traced");
/// ```
#[derive(Debug)]
pub struct TraceConstructor {
    config: ConstructorConfig,
    generation: u64,
    stats: ConstructorStats,
    scratch: PlanScratch,
}

impl TraceConstructor {
    /// Creates a constructor with the given configuration.
    pub fn new(config: ConstructorConfig) -> Self {
        TraceConstructor {
            config,
            generation: 0,
            stats: ConstructorStats::default(),
            scratch: PlanScratch::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ConstructorConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> ConstructorStats {
        self.stats
    }

    /// Reacts to a batch of profiler signals, updating the cache. Returns
    /// the number of new trace objects created.
    pub fn handle_batch(
        &mut self,
        signals: &[Signal],
        bcg: &mut BranchCorrelationGraph,
        cache: &mut TraceCache,
    ) -> u64 {
        self.generation += 1;
        let before = self.stats.traces_created;
        for sig in signals {
            if bcg.node(sig.node).generation() == self.generation {
                self.stats.signals_suppressed += 1;
                continue;
            }
            self.plan_for_signal(sig.node, bcg, cache);
            // Everything examined is now up to date. (Marks are only
            // read across signals, at the suppression check above, so
            // stamping after the signal is handled is equivalent to
            // stamping mid-walk.)
            for &n in &self.scratch.touched {
                bcg.mark_generation(n, self.generation);
            }
        }
        self.stats.traces_created - before
    }

    /// Runs the full §4.2 pipeline — back-track to entry points, walk each
    /// maximum-likelihood path, cut into threshold-satisfying traces and
    /// link them in `cache` — for one signal about `origin`, leaving the
    /// nodes examined in `scratch.touched`.
    fn plan_for_signal(
        &mut self,
        origin: NodeIdx,
        bcg: &BranchCorrelationGraph,
        cache: &mut TraceCache,
    ) {
        let (s, stats) = (&mut self.scratch, &mut self.stats);
        stats.signals_handled += 1;
        s.touched.clear();
        find_entry_points(origin, bcg, s);
        stats.entry_points += s.entries.len() as u64;
        for e in 0..s.entries.len() {
            let loop_start = walk_path(s.entries[e], bcg, s);
            stats.paths_walked += 1;
            stats.loops_unrolled += u64::from(loop_start.is_some());
            s.touched.extend_from_slice(&s.path);
            stats.traces_created += cut_and_emit(s, loop_start, bcg, &self.config, cache);
        }
    }
}

/// The planner's per-traversal sets, without hashing or per-signal
/// allocation: `marks[n] = (stamp, position)` marks node `n` as seen by
/// the traversal whose epoch is `stamp` (any other stamp means unseen),
/// so a new traversal clears every mark by bumping the epoch. `touched`
/// collects every node a signal's walks examined, for generation
/// stamping (cascade suppression). `unrolled` holds a loop path's
/// unrolled chain and `blocks` the segment being linked, so cutting
/// allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
struct PlanScratch {
    epoch: u32,
    marks: Vec<(u32, u32)>,
    stack: Vec<NodeIdx>,
    entries: Vec<NodeIdx>,
    path: Vec<NodeIdx>,
    touched: Vec<NodeIdx>,
    unrolled: Vec<NodeIdx>,
    blocks: Vec<BlockId>,
}

impl PlanScratch {
    /// Starts a traversal with every node unmarked.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a mark left by the traversal 2^32 epochs ago
            // would read as current. Forget every mark instead.
            self.marks.clear();
            self.epoch = 1;
        }
    }

    /// Marks `n` at `pos`; returns whether it was unmarked.
    fn mark(&mut self, n: NodeIdx, pos: usize) -> bool {
        let i = n.index();
        if i >= self.marks.len() {
            self.marks.resize(i + 1, (0, 0));
        }
        let was_unmarked = self.marks[i].0 != self.epoch;
        self.marks[i] = (self.epoch, pos as u32);
        was_unmarked
    }

    /// The position `n` was marked at in this traversal, if any.
    fn position(&self, n: NodeIdx) -> Option<usize> {
        match self.marks.get(n.index()) {
            Some(&(stamp, pos)) if stamp == self.epoch => Some(pos as usize),
            _ => None,
        }
    }
}

/// Step 1: back-track along strongly-correlated edges to the set of
/// trace entry points that may reach the changed node, left in
/// `s.entries`. If the region is a pure cycle with no external entry,
/// the origin itself serves as entry.
fn find_entry_points(origin: NodeIdx, bcg: &BranchCorrelationGraph, s: &mut PlanScratch) {
    s.next_epoch();
    s.stack.clear();
    s.entries.clear();
    s.stack.push(origin);
    s.mark(origin, 0);
    while let Some(n) = s.stack.pop() {
        if s.entries.len() >= MAX_ENTRY_POINTS {
            break;
        }
        let mut has_strong_pred = false;
        for &p in bcg.node(n).predecessors() {
            // Stale predecessor entries are filtered here: the edge
            // must still exist as p's maximum-likelihood successor and
            // p must itself be traceable.
            let pred = bcg.node(p);
            let strong =
                pred.state().is_traceable() && pred.max_successor().is_some_and(|s| s.node == n);
            if strong {
                has_strong_pred = true;
                if s.mark(p, 0) {
                    s.stack.push(p);
                }
            }
        }
        if !has_strong_pred {
            s.entries.push(n);
        }
    }
    if s.entries.is_empty() {
        s.entries.push(origin);
    }
}

/// Step 2: follow the path of maximum likelihood from `entry`, into
/// `s.path`, until a loop (returns its start index), a non-traceable
/// node, or a cap.
fn walk_path(entry: NodeIdx, bcg: &BranchCorrelationGraph, s: &mut PlanScratch) -> Option<usize> {
    s.next_epoch();
    s.path.clear();
    s.path.push(entry);
    s.mark(entry, 0);
    loop {
        let cur = *s.path.last().expect("path nonempty");
        // Only traceable nodes may be extended *through*; a weak node
        // can end a trace but never predicts past itself.
        let node = bcg.node(cur);
        if !node.state().is_traceable() {
            break;
        }
        let Some(succ) = node.max_successor() else {
            break;
        };
        let next = succ.node;
        if succ.count == 0 {
            break;
        }
        if let Some(k) = s.position(next) {
            return Some(k);
        }
        // Rare code never enters a trace (start-state filtering).
        if !bcg.node(next).state().is_hot() {
            break;
        }
        s.path.push(next);
        s.mark(next, s.path.len() - 1);
        if s.path.len() >= MAX_PATH_NODES {
            break;
        }
    }
    None
}

/// Step 3: cut the node path `s.path` into traces above the completion
/// threshold and link them in `cache`. A terminating loop is processed
/// first, unrolled once (§4.2). Returns the new trace objects created.
fn cut_and_emit(
    s: &mut PlanScratch,
    loop_start: Option<usize>,
    bcg: &BranchCorrelationGraph,
    config: &ConstructorConfig,
    cache: &mut TraceCache,
) -> u64 {
    let (path, blocks) = (&s.path, &mut s.blocks);
    match loop_start {
        None => cut_chain(path, path.len(), blocks, bcg, config, cache),
        Some(k) => {
            // The loop body is path[k..]; build the unrolled chain of
            // 1 + loop_unroll body copies — the link probability
            // joining consecutive copies is the back-edge correlation,
            // which the generic per-edge computation below derives
            // like any other link. Only segments *starting* in the
            // first copy are emitted (later-copy starts would
            // duplicate entry links).
            let body = &path[k..];
            s.unrolled.clear();
            for _ in 0..1 + config.loop_unroll {
                s.unrolled.extend_from_slice(body);
            }
            let created = cut_chain(&s.unrolled, body.len(), blocks, bcg, config, cache);
            // Then the remaining prefix path[..k] (it flows into the
            // loop head, so cut path[..=k] with the head as terminal
            // block, emitting only starts before k).
            if k > 0 {
                created + cut_chain(&path[..=k], k, blocks, bcg, config, cache)
            } else {
                created
            }
        }
    }
}

/// Cuts a node chain into threshold-satisfying segments, linking a
/// trace in `cache` for every segment starting before `emit_limit`
/// (each segment's blocks are gathered in `blocks`). Returns the new
/// trace objects created.
fn cut_chain(
    chain: &[NodeIdx],
    emit_limit: usize,
    blocks: &mut Vec<BlockId>,
    bcg: &BranchCorrelationGraph,
    config: &ConstructorConfig,
    cache: &mut TraceCache,
) -> u64 {
    let branch = |n: NodeIdx| bcg.node(n).branch();
    if chain.len() < 2 {
        // Nothing traceable here; drop any stale link at the lone
        // node's branch.
        if let Some(&n) = chain.first() {
            cache.unlink(branch(n));
        }
        return 0;
    }
    let mut created = 0;
    let mut i = 0;
    while i < chain.len() && i < emit_limit {
        let mut j = i;
        let mut prob = 1.0;
        while j + 1 < chain.len() && (j + 1 - i) < MAX_TRACE_BLOCKS {
            // P(chain[j+1]'s branch | chain[j]'s branch).
            let link = bcg.node(chain[j]).correlation_to(branch(chain[j + 1]).1);
            let extended = prob * link;
            if extended < config.threshold {
                break;
            }
            prob = extended;
            j += 1;
        }
        let len = j + 1 - i;
        if len >= MIN_TRACE_BLOCKS {
            let entry = branch(chain[i]);
            blocks.clear();
            blocks.extend(chain[i..=j].iter().map(|&n| branch(n).1));
            #[cfg(feature = "debug-invariants")]
            {
                assert!(
                    len <= MAX_TRACE_BLOCKS,
                    "emitted trace of {len} blocks exceeds the cap"
                );
                assert!(
                    len == 1 || prob >= config.threshold,
                    "emitted trace completion {prob} below threshold {}",
                    config.threshold
                );
                assert_eq!(entry.1, blocks[0], "entry must land on block 0");
            }
            // A quarantined (entry, path) is refused: the path faulted
            // recently, so nothing is linked until the cooldown decays.
            if let Some((_, new)) = cache.try_insert_and_link(entry, blocks, prob) {
                created += u64::from(new);
            }
            i = j + 1;
        } else {
            // The graph does not support a trace starting here; remove
            // any stale link so dispatch stops using it.
            cache.unlink(branch(chain[i]));
            i += 1;
        }
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{BlockId, FuncId};
    use trace_bcg::{BcgConfig, BranchCorrelationGraph};

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

    /// Drives the full profiler → constructor pipeline over a block
    /// stream and returns the populated cache.
    fn build_cache(
        pattern: &[u32],
        reps: usize,
        delay: u32,
        threshold: f64,
    ) -> (BranchCorrelationGraph, TraceCache, TraceConstructor) {
        let mut bcg = bcg_with(delay, threshold);
        let mut cache = TraceCache::new();
        let mut ctor =
            TraceConstructor::new(ConstructorConfig::default().with_threshold(threshold));
        for _ in 0..reps {
            for &b in pattern {
                bcg.observe(blk(b));
                if bcg.has_signals() {
                    let sigs = bcg.take_signals();
                    ctor.handle_batch(&sigs, &mut bcg, &mut cache);
                }
            }
        }
        (bcg, cache, ctor)
    }

    #[test]
    fn tight_loop_yields_unrolled_trace() {
        let (_bcg, cache, ctor) = build_cache(&[0, 1, 2], 600, 4, 0.97);
        assert!(ctor.stats().loops_unrolled > 0, "cycle must be detected");
        assert!(cache.link_count() > 0, "loop must be cached");
        // Some linked trace must cover at least one full iteration, i.e.
        // at least 3 blocks, and — unrolled — up to two iterations.
        let max_len = cache.iter_links().map(|(_, t)| t.len()).max().unwrap();
        assert!(max_len >= 3, "max trace length {max_len}");
        assert!(max_len <= MAX_TRACE_BLOCKS);
        // Every cached trace satisfies the completion threshold estimate.
        for (_, t) in cache.iter_links() {
            assert!(t.expected_completion() >= 0.97 - 1e-9);
        }
    }

    #[test]
    fn straightline_chain_becomes_single_trace() {
        // A unique chain 0->1->2->3->4 entered repeatedly from 9.
        let (_bcg, cache, _) = build_cache(&[9, 0, 1, 2, 3, 4], 400, 4, 0.97);
        // There must be a linked trace whose blocks form a contiguous run
        // of the chain.
        let found = cache
            .iter_links()
            .any(|(_, t)| t.len() >= 4 && t.blocks().windows(2).all(|w| w[1].block != w[0].block));
        assert!(found, "expected a long straight-line trace");
    }

    #[test]
    fn weak_branch_ends_traces() {
        // (1,2) is followed by 3 or 4 with 50/50 probability: no trace may
        // extend through node (1,2).
        let mut bcg = bcg_with(1, 0.97);
        let mut cache = TraceCache::new();
        let mut ctor = TraceConstructor::new(ConstructorConfig::default());
        for i in 0..2000 {
            bcg.observe(blk(0));
            bcg.observe(blk(1));
            bcg.observe(blk(2));
            bcg.observe(blk(if i % 2 == 0 { 3 } else { 4 }));
            let sigs = bcg.take_signals();
            if !sigs.is_empty() {
                ctor.handle_batch(&sigs, &mut bcg, &mut cache);
            }
        }
        for (_, t) in cache.iter_links() {
            // No trace may predict past block 2: block 2 can only be the
            // final block of a trace.
            let pos = t.blocks().iter().position(|&b| b == blk(2));
            if let Some(p) = pos {
                assert_eq!(p, t.len() - 1, "block 2 must terminate the trace, got {t}");
            }
        }
    }

    #[test]
    fn rare_code_is_kept_out_of_traces() {
        // With a large start delay, nothing ever becomes hot, so no traces
        // may be constructed.
        let (_bcg, cache, _) = build_cache(&[0, 1, 2], 50, 4096, 0.97);
        assert_eq!(cache.link_count(), 0);
        assert_eq!(cache.trace_count(), 0);
    }

    #[test]
    fn cascade_suppression_skips_same_generation_nodes() {
        let mut bcg = bcg_with(1, 0.97);
        let mut cache = TraceCache::new();
        let mut ctor = TraceConstructor::new(ConstructorConfig::default());
        // Warm a loop so all nodes exist and are hot.
        for _ in 0..300 {
            for b in [0u32, 1, 2, 3] {
                bcg.observe(blk(b));
            }
        }
        let sigs = bcg.take_signals();
        assert!(sigs.len() >= 2, "expect several signals from warmup");
        ctor.handle_batch(&sigs, &mut bcg, &mut cache);
        let s = ctor.stats();
        assert!(
            s.signals_suppressed > 0,
            "later signals about the same region must be suppressed: {s:?}"
        );
    }

    #[test]
    fn entry_points_reach_back_through_strong_chain() {
        // Chain 5->0->1->2 where everything is unique; a signal about the
        // last node must produce an entry reaching back to the chain head.
        let (bcg, cache, _ctor) = build_cache(&[5, 0, 1, 2], 400, 4, 0.97);
        let _ = bcg;
        // The head's entry branch should be linked.
        let has_head_entry = cache
            .iter_links()
            .any(|((_, to), _)| to == blk(5) || to == blk(0));
        assert!(has_head_entry, "expected entry near the chain head");
    }

    #[test]
    fn traces_shorter_than_min_blocks_are_not_emitted() {
        let (_bcg, cache, _) = build_cache(&[0, 1], 400, 1, 0.97);
        for (_, t) in cache.iter_links() {
            assert!(t.len() >= 2);
        }
    }

    #[test]
    fn larger_unroll_factor_lengthens_loop_traces() {
        let mut lens = Vec::new();
        for unroll in [0usize, 1, 4] {
            let mut bcg = bcg_with(4, 0.97);
            let mut cache = TraceCache::new();
            let mut ctor = TraceConstructor::new(ConstructorConfig {
                loop_unroll: unroll,
                ..ConstructorConfig::default()
            });
            for _ in 0..600 {
                for b in [0u32, 1, 2] {
                    bcg.observe(blk(b));
                    if bcg.has_signals() {
                        let sigs = bcg.take_signals();
                        ctor.handle_batch(&sigs, &mut bcg, &mut cache);
                    }
                }
            }
            let max_len = cache.iter_links().map(|(_, t)| t.len()).max().unwrap_or(0);
            lens.push(max_len);
        }
        assert!(
            lens[0] <= lens[1] && lens[1] <= lens[2],
            "trace length must grow with unroll factor: {lens:?}"
        );
        assert!(lens[2] > lens[1], "unroll=4 should beat unroll=1: {lens:?}");
    }

    /// Golden pin for self-loop unrolling: a path whose maximum-likelihood
    /// walk terminates in a *self*-loop (block 0 branching back to itself)
    /// must emit the one-block body unrolled exactly once — the trace is
    /// exactly `[0, 0]`, never `[0]` (below min length) nor `[0, 0, 0]`
    /// (over-unrolled). The full link layout is pinned so any change to
    /// entry-point discovery, loop detection, or cutting shows up here.
    #[test]
    fn self_loop_body_is_unrolled_exactly_once_golden_layout() {
        // Stream: 9 then a run of twenty 0s, repeated. Node (0,0)'s
        // successors are 0 (18/19) and 9 (1/19); threshold 0.90 keeps it
        // Strong with prediction 0, so walks end in the (0,0) self-loop.
        let mut pattern = vec![9u32];
        pattern.extend(std::iter::repeat_n(0, 20));
        let (_bcg, cache, ctor) = build_cache(&pattern, 300, 4, 0.90);

        assert!(ctor.stats().loops_unrolled > 0, "self-loop must be found");
        let mut links: Vec<(u32, u32, Vec<u32>)> = cache
            .iter_links()
            .map(|((from, to), t)| {
                (
                    from.block,
                    to.block,
                    t.blocks().iter().map(|b| b.block).collect(),
                )
            })
            .collect();
        links.sort();
        // Golden layout: the self-loop entry (0,0) carries the body
        // unrolled once; the loop prefix 9 -> 0 -> 0 is linked at its two
        // upstream entries with the loop head as terminal block.
        assert_eq!(
            links,
            vec![
                (0, 0, vec![0, 0]),
                (0, 9, vec![9, 0, 0]),
                (9, 0, vec![0, 0]),
            ],
            "golden self-loop trace layout changed"
        );
        // And the unrolled trace is a distinct hash-consed object. Its
        // completion estimate is stamped at *first* construction (when the
        // self-edge was the only successor observed, probability 1); reuse
        // keeps the original object, so it stays at or above threshold.
        let id = cache.lookup_entry((blk(0), blk(0))).unwrap();
        let t = cache.trace(id);
        assert_eq!(t.len(), 2, "body of one block must unroll to two");
        assert!(
            t.expected_completion() >= 0.90,
            "completion {} must satisfy the threshold",
            t.expected_completion()
        );
    }

    /// A profiled graph and every signal it raised, in order.
    fn signalled_graph(pattern: &[u32], reps: usize) -> (BranchCorrelationGraph, Vec<Signal>) {
        let mut bcg = bcg_with(4, 0.90);
        let mut signals = Vec::new();
        for _ in 0..reps {
            for &b in pattern {
                bcg.observe(blk(b));
            }
            signals.extend(bcg.take_signals());
        }
        (bcg, signals)
    }

    /// Every link of a cache with its trace's blocks and completion
    /// estimate, sorted by entry.
    fn link_table(cache: &TraceCache) -> Vec<(trace_bcg::Branch, Vec<BlockId>, u64)> {
        let mut links: Vec<_> = cache
            .iter_links()
            .map(|(entry, t)| {
                (
                    entry,
                    t.blocks().to_vec(),
                    t.expected_completion().to_bits(),
                )
            })
            .collect();
        links.sort();
        links
    }

    /// The planner's marks and buffers outlive a signal, a graph and an
    /// epoch wrap without leaking into the next signal: a constructor
    /// reused across a small graph, a large one, one that weakens a
    /// branch the small one linked, and then past `u32::MAX` epochs,
    /// builds exactly the link table, cache counters and touched nodes
    /// a fresh constructor does, signal by signal.
    #[test]
    fn reused_scratch_builds_what_fresh_scratch_builds() {
        let small = signalled_graph(&[0, 1, 2, 0, 1, 3], 200);
        let large_pattern: Vec<u32> = (0..40)
            .flat_map(|i| [100 + i, 200 + i % 7, 100 + i, 300 + i])
            .collect();
        let large = signalled_graph(&large_pattern, 60);
        assert!(
            large.0.len() > 4 * small.0.len(),
            "the second graph is larger"
        );
        // Branch (1, 2) and its one predecessor (0, 1) are weak here, so
        // (1, 2)'s signal removes the link the small graph installed.
        let flipped = signalled_graph(&[0, 1, 2, 4, 0, 1, 3, 0, 1, 2, 5, 0, 1, 3], 100);
        let config = ConstructorConfig::default().with_threshold(0.90);
        let mut reused = TraceConstructor::new(config);
        let (mut by_fresh, mut by_reused) = (TraceCache::new(), TraceCache::new());
        for (round, (bcg, signals)) in [&small, &large, &flipped, &small, &large]
            .into_iter()
            .enumerate()
        {
            if round == 3 {
                // Two epochs short of the wrap: the next signal's walks
                // cross it.
                reused.scratch.epoch = u32::MAX - 1;
            }
            assert!(!signals.is_empty());
            for sig in signals {
                let mut fresh = TraceConstructor::new(config);
                fresh.plan_for_signal(sig.node, bcg, &mut by_fresh);
                reused.plan_for_signal(sig.node, bcg, &mut by_reused);
                assert_eq!(
                    link_table(&by_reused),
                    link_table(&by_fresh),
                    "round {round}, signal {sig:?}"
                );
                assert_eq!(
                    by_reused.stats(),
                    by_fresh.stats(),
                    "round {round}, signal {sig:?}"
                );
                assert_eq!(
                    reused.scratch.touched, fresh.scratch.touched,
                    "round {round}, signal {sig:?}"
                );
            }
        }
        assert!(reused.scratch.epoch < 1000, "the epoch wrapped");
        let stats = by_fresh.stats();
        assert!(stats.traces_constructed > 0, "some signal built a trace");
        assert!(stats.links_removed > 0, "some signal removed a link");
    }

    #[test]
    fn handle_batch_returns_created_count() {
        let mut bcg = bcg_with(1, 0.97);
        let mut cache = TraceCache::new();
        let mut ctor = TraceConstructor::new(ConstructorConfig::default());
        for _ in 0..300 {
            for b in [0u32, 1, 2] {
                bcg.observe(blk(b));
            }
        }
        let sigs = bcg.take_signals();
        let created = ctor.handle_batch(&sigs, &mut bcg, &mut cache);
        assert_eq!(created, ctor.stats().traces_created);
        assert_eq!(cache.trace_count() as u64, created);
    }
}
