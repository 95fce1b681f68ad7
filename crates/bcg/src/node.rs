//! BCG nodes and edges.

use jvm_bytecode::{BlockId, FuncId};

use crate::graph::NodeIdx;
use crate::state::NodeState;
use crate::Branch;

/// An edge `E_XYZ`: from node `N_XY`, the branch `(Y, Z)` was observed
/// `count` times (subject to decay).
///
/// The edge stores the index of its target node `N_YZ`, reproducing the
/// paper's pointer-chasing fast path: "each branch correlation contains
/// the address of its target branch context" (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successor {
    /// The block `Z` this correlation predicts.
    pub to_block: BlockId,
    /// Decayed 16-bit occurrence counter.
    pub count: u16,
    /// Index of the target node `N_YZ`.
    pub node: NodeIdx,
}

impl Successor {
    /// Filler for unused inline slots; never observable through
    /// [`InlineList::as_slice`].
    fn placeholder() -> Self {
        Successor {
            to_block: BlockId::new(FuncId(u32::MAX), u32::MAX),
            count: 0,
            node: NodeIdx(u32::MAX),
        }
    }
}

/// Successor slots stored inline in the node before spilling to the heap.
/// Across the six workloads the overwhelming majority of nodes have ≤ 2
/// realized successors, so four inline slots make the per-dispatch
/// counter bump a pure in-`Node` access with no pointer chase.
pub(crate) const INLINE_SUCCESSORS: usize = 4;

/// Predecessor slots stored inline in the node before spilling to the
/// heap. Most nodes have one or two predecessors, so a fresh node — and
/// its drop — never touches the allocator.
pub(crate) const INLINE_PREDS: usize = 3;

/// A node's successor edges, in discovery order.
pub(crate) type SuccList = InlineList<Successor, INLINE_SUCCESSORS>;

/// A node's predecessors: distinct, in insertion order.
pub(crate) type PredList = InlineList<NodeIdx, INLINE_PREDS>;

/// A list with small-size inline storage. The common case (≤ `N`
/// elements) lives directly in the `Node`; longer lists spill to a `Vec`
/// once and stay there.
#[derive(Debug, Clone)]
pub(crate) enum InlineList<T, const N: usize> {
    Inline { len: u8, slots: [T; N] },
    Spilled(Vec<T>),
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// An empty list; `filler` occupies the unused slots.
    pub(crate) fn new(filler: T) -> Self {
        InlineList::Inline {
            len: 0,
            slots: [filler; N],
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            InlineList::Inline { len, slots } => &slots[..usize::from(*len)],
            InlineList::Spilled(v) => v,
        }
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineList::Inline { len, slots } => &mut slots[..usize::from(*len)],
            InlineList::Spilled(v) => v,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            InlineList::Inline { len, .. } => usize::from(*len),
            InlineList::Spilled(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&mut self, x: T) {
        match self {
            InlineList::Inline { len, slots } => {
                let n = usize::from(*len);
                if n < N {
                    slots[n] = x;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(slots);
                    v.push(x);
                    *self = InlineList::Spilled(v);
                }
            }
            InlineList::Spilled(v) => v.push(x),
        }
    }

    /// Keeps only elements satisfying `keep`, preserving order. A
    /// spilled list never moves back inline (re-spilling churn is worse
    /// than the few bytes).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            InlineList::Inline { len, slots } => {
                let mut w = 0usize;
                for r in 0..usize::from(*len) {
                    if keep(&slots[r]) {
                        slots[w] = slots[r];
                        w += 1;
                    }
                }
                *len = w as u8;
            }
            InlineList::Spilled(v) => v.retain(keep),
        }
    }

    /// Heap bytes held by this list (zero while inline).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            InlineList::Inline { .. } => 0,
            InlineList::Spilled(v) => v.capacity() * std::mem::size_of::<T>(),
        }
    }
}

impl PredList {
    /// Appends `p` unless it is already listed.
    pub(crate) fn insert(&mut self, p: NodeIdx) {
        if !self.as_slice().contains(&p) {
            self.push(p);
        }
    }
}

/// Sentinel for [`Node::trace_link`]: "validated, and no trace starts
/// here". Stored as a raw `u32` because this crate cannot name the trace
/// cache's `TraceId` (the dependency points the other way); the trace
/// cache owns the encoding.
pub const NO_TRACE_LINK: u32 = u32::MAX;

/// Initial `link_version` stamp: never matches a real cache version, so
/// a fresh node always revalidates on first lookup.
pub(crate) const LINK_NEVER: u64 = u64::MAX;

/// A node `N_XY` of the branch correlation graph.
///
/// Holds the decayed successor-correlation counters, the state tag
/// summarised to the trace cache, the start-state delay countdown, the
/// predicted-successor inline cache, the generation stamp the trace
/// cache uses to suppress signal cascades (§4.2), and the inline
/// trace-link slot the trace engine's entry check uses to skip per-block
/// cache lookups.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) branch: Branch,
    pub(crate) state: NodeState,
    /// Executions remaining before the node leaves `NewlyCreated`.
    pub(crate) delay_remaining: u32,
    /// Executions since the last decay.
    pub(crate) since_decay: u32,
    /// Total executions (for diagnostics; saturating).
    pub(crate) executions: u64,
    /// Sum of successor counts (kept in sync with `successors`).
    pub(crate) total_weight: u32,
    pub(crate) successors: SuccList,
    /// Nodes that have (or once had) an edge into this node; used for
    /// entry-point backtracking. Entries may be stale after decay pruning
    /// and must be re-validated by the consumer.
    pub(crate) preds: PredList,
    /// The predicted successor (see `Prediction`); `None` until the
    /// node records its first edge.
    pub(crate) prediction: Option<Prediction>,
    /// Trace-cache generation stamp (see
    /// [`crate::BranchCorrelationGraph::mark_generation`]).
    pub(crate) generation: u64,
    /// Cache version at which `link_raw` was last validated
    /// ([`LINK_NEVER`] until the first validation).
    pub(crate) link_version: u64,
    /// Raw trace link valid at `link_version`: a raw `TraceId` or
    /// [`NO_TRACE_LINK`]. Negative results are cached too — that is the
    /// entire point, since almost every dispatch misses.
    pub(crate) link_raw: u32,
}

/// A node's inline-cache prediction: the successor slot it names, with
/// that slot's block and target node copied beside it, so a predicted
/// hit compares and follows it without reading the successor list first.
/// Always equal to `successors[slot]`'s block and node: a slot's block
/// and node never change, and the one step that moves slots, decay's
/// pruning, re-elects the prediction. It is written only where the
/// prediction changes: the first edge, a scan hit with no prediction,
/// decay's re-election and an image merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prediction {
    /// Index into `successors`.
    pub(crate) slot: u32,
    /// `successors[slot].to_block`.
    pub(crate) block: BlockId,
    /// `successors[slot].node`: the context a predicted hit moves to.
    pub(crate) next: NodeIdx,
}

impl Node {
    pub(crate) fn new(branch: Branch, start_delay: u32) -> Self {
        Node {
            branch,
            state: NodeState::NewlyCreated,
            delay_remaining: start_delay,
            since_decay: 0,
            executions: 0,
            total_weight: 0,
            successors: SuccList::new(Successor::placeholder()),
            preds: PredList::new(NodeIdx(u32::MAX)),
            prediction: None,
            generation: 0,
            link_version: LINK_NEVER,
            link_raw: NO_TRACE_LINK,
        }
    }

    /// The branch `(X, Y)` this node represents.
    pub fn branch(&self) -> Branch {
        self.branch
    }

    /// Current state tag.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Lifetime execution count of this branch.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// The successor correlations, in discovery order.
    pub fn successors(&self) -> &[Successor] {
        self.successors.as_slice()
    }

    /// Possibly-stale predecessor node indices (validate before use).
    pub fn predecessors(&self) -> &[NodeIdx] {
        self.preds.as_slice()
    }

    /// Sum of all successor counts.
    pub fn total_weight(&self) -> u32 {
        self.total_weight
    }

    /// The trace-cache generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The inline trace-link slot: `(version stamp, raw link)`. The raw
    /// link is only meaningful to the trace cache that stamped it, and
    /// only while the stamp equals that cache's current version.
    #[inline]
    pub fn trace_link(&self) -> (u64, u32) {
        (self.link_version, self.link_raw)
    }

    /// The successor with the maximal counter, if any.
    pub fn max_successor(&self) -> Option<&Successor> {
        self.successors.as_slice().iter().max_by_key(|s| s.count)
    }

    /// Executions since the last decay, strictly below the decay
    /// interval between dispatches.
    pub fn since_decay(&self) -> u32 {
        self.since_decay
    }

    /// Executions left before the node leaves the start state (0 once
    /// it has).
    pub fn delay_remaining(&self) -> u32 {
        self.delay_remaining
    }

    /// The cached (predicted) successor, if any.
    pub fn predicted(&self) -> Option<&Successor> {
        self.prediction
            .map(|p| &self.successors.as_slice()[p.slot as usize])
    }

    /// Makes successor `slot` the prediction.
    pub(crate) fn predict(&mut self, slot: usize) {
        let s = self.successors.as_slice()[slot];
        self.prediction = Some(Prediction {
            slot: slot as u32,
            block: s.to_block,
            next: s.node,
        });
    }

    /// Re-elects the prediction: the maximally correlated successor, the
    /// last one on ties (`Iterator::max_by_key`), or none if the node has
    /// no successors left.
    pub(crate) fn reelect(&mut self) {
        self.prediction = None;
        if let Some((i, _)) = self
            .successors
            .as_slice()
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.count)
        {
            self.predict(i);
        }
    }

    /// Correlation ratio of a successor: `count / total_weight`, in
    /// `[0, 1]`; 0.0 when the node has no weight.
    pub fn correlation(&self, s: &Successor) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            f64::from(s.count) / f64::from(self.total_weight)
        }
    }

    /// Correlation ratio toward a specific block, 0.0 if never observed.
    pub fn correlation_to(&self, block: BlockId) -> f64 {
        self.successors
            .as_slice()
            .iter()
            .find(|s| s.to_block == block)
            .map(|s| self.correlation(s))
            .unwrap_or(0.0)
    }

    /// Test/construction helper: appends a successor and accounts its
    /// weight (keeps `total_weight` in sync the way `record` does).
    #[cfg(test)]
    pub(crate) fn push_successor_for_test(&mut self, s: Successor) {
        self.successors.push(s);
        self.total_weight += u32::from(s.count);
    }

    /// Recomputes the state tag from the current counters.
    ///
    /// * still inside the delay → `NewlyCreated`;
    /// * no successors with weight → `NewlyCreated` (nothing to predict);
    /// * exactly one successor ever observed → `Unique`;
    /// * max correlation ≥ threshold → `Strong`;
    /// * otherwise → `Weak`.
    pub(crate) fn compute_state(&self, threshold: f64) -> NodeState {
        if self.delay_remaining > 0 {
            return NodeState::NewlyCreated;
        }
        if self.total_weight == 0 || self.successors.is_empty() {
            return NodeState::NewlyCreated;
        }
        if self.successors.len() == 1 {
            return NodeState::Unique;
        }
        let max = self.max_successor().expect("nonempty");
        if self.correlation(max) >= threshold {
            NodeState::Strong
        } else {
            NodeState::Weak
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn node_with_counts(counts: &[(u32, u16)], delay: u32) -> Node {
        let mut n = Node::new((blk(0), blk(1)), delay);
        for (i, &(b, c)) in counts.iter().enumerate() {
            n.push_successor_for_test(Successor {
                to_block: blk(b),
                count: c,
                node: NodeIdx(i as u32 + 1),
            });
        }
        n.executions = u64::from(n.total_weight);
        n
    }

    #[test]
    fn correlation_ratios() {
        let n = node_with_counts(&[(2, 90), (3, 10)], 0);
        assert_eq!(n.total_weight(), 100);
        assert_eq!(n.correlation_to(blk(2)), 0.9);
        assert_eq!(n.correlation_to(blk(3)), 0.1);
        assert_eq!(n.correlation_to(blk(9)), 0.0);
        assert_eq!(n.max_successor().unwrap().to_block, blk(2));
    }

    #[test]
    fn state_newly_created_while_delayed() {
        let mut n = node_with_counts(&[(2, 50)], 10);
        n.delay_remaining = 10;
        assert_eq!(n.compute_state(0.97), NodeState::NewlyCreated);
    }

    #[test]
    fn state_unique_with_single_successor() {
        let n = node_with_counts(&[(2, 5)], 0);
        assert_eq!(n.compute_state(0.97), NodeState::Unique);
    }

    #[test]
    fn state_strong_vs_weak_at_threshold() {
        let strong = node_with_counts(&[(2, 97), (3, 3)], 0);
        assert_eq!(strong.compute_state(0.97), NodeState::Strong);
        let weak = node_with_counts(&[(2, 96), (3, 4)], 0);
        assert_eq!(weak.compute_state(0.97), NodeState::Weak);
    }

    #[test]
    fn state_degenerates_to_newly_created_without_weight() {
        let n = node_with_counts(&[], 0);
        assert_eq!(n.compute_state(0.97), NodeState::NewlyCreated);
    }

    #[test]
    fn threshold_one_requires_perfect_correlation() {
        // Two successors where one has decayed to zero weight: total is
        // all on one edge, so correlation is 1.0 and Strong applies even
        // at a 100% threshold.
        let n = node_with_counts(&[(2, 8), (3, 0)], 0);
        assert_eq!(n.compute_state(1.0), NodeState::Strong);
        let n2 = node_with_counts(&[(2, 7), (3, 1)], 0);
        assert_eq!(n2.compute_state(1.0), NodeState::Weak);
    }

    #[test]
    fn succ_list_spills_past_four_and_preserves_order() {
        let mut l = SuccList::new(Successor::placeholder());
        for i in 0..7u32 {
            l.push(Successor {
                to_block: blk(i),
                count: i as u16,
                node: NodeIdx(i),
            });
            assert_eq!(l.len(), i as usize + 1);
        }
        assert!(matches!(l, SuccList::Spilled(_)));
        let blocks: Vec<u32> = l.as_slice().iter().map(|s| s.to_block.block).collect();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn succ_list_retain_compacts_inline_storage() {
        let mut l = SuccList::new(Successor::placeholder());
        for i in 0..4u32 {
            l.push(Successor {
                to_block: blk(i),
                count: i as u16, // counts 0,1,2,3
                node: NodeIdx(i),
            });
        }
        assert!(matches!(l, SuccList::Inline { .. }));
        l.retain(|s| s.count > 0);
        let blocks: Vec<u32> = l.as_slice().iter().map(|s| s.to_block.block).collect();
        assert_eq!(blocks, vec![1, 2, 3]);
        // Still inline, still pushable.
        l.push(Successor {
            to_block: blk(9),
            count: 9,
            node: NodeIdx(9),
        });
        assert!(matches!(l, SuccList::Inline { len: 4, .. }));
    }

    #[test]
    fn pred_list_keeps_order_across_a_spill_and_ignores_repeats() {
        let mut l = PredList::new(NodeIdx(u32::MAX));
        for i in [5u32, 2, 5, 9] {
            l.insert(NodeIdx(i));
        }
        assert!(matches!(l, PredList::Inline { len: 3, .. }));
        assert_eq!(l.heap_bytes(), 0, "an inline list holds no heap");
        for i in [1u32, 2, 7, 1] {
            l.insert(NodeIdx(i));
        }
        assert!(matches!(l, PredList::Spilled(_)));
        assert!(l.heap_bytes() > 0);
        let order: Vec<u32> = l.as_slice().iter().map(|n| n.0).collect();
        assert_eq!(order, vec![5, 2, 9, 1, 7]);
    }

    #[test]
    fn pred_list_is_no_larger_than_the_vec_it_replaces() {
        use std::mem::size_of;
        assert!(size_of::<PredList>() <= size_of::<Vec<NodeIdx>>());
    }

    #[test]
    fn fresh_node_trace_link_is_unvalidated() {
        let n = Node::new((blk(0), blk(1)), 4);
        assert_eq!(n.trace_link(), (LINK_NEVER, NO_TRACE_LINK));
    }
}
