//! Serializable images of the branch correlation graph.
//!
//! An [`BcgImage`] is the persistence-facing view of a
//! [`BranchCorrelationGraph`]: exactly the observable profile state —
//! branches, execution counts, decayed successor counters, and the two
//! deferred-work countdowns (`since_decay`, `delay_remaining`) — and
//! nothing derived. State tags, cached predictions, predecessor lists,
//! inline-cache arming, and trace-link stamps are all recomputed on
//! restore, so an image round-trips bit-identically regardless of how
//! the live graph's fast path happened to be armed at export time.
//!
//! Two operations:
//!
//! * [`export`] captures a live graph, settling the budgeted fast
//!   path's lazily-deferred bookkeeping (the `fp_armed - fp_budget`
//!   window of pending `since_decay` / `delay_remaining` updates)
//!   arithmetically, without mutating the graph;
//! * [`merge_into`] folds an image into a *live* graph — the warm-boot
//!   path; into an empty graph it reconstructs the image exactly —
//!   with saturating counter addition and clamping rules that
//!   put every merged node back under the lazy-decay discipline: the
//!   node is disarmed, its decay window is clamped strictly below the
//!   interval, and the next slow visit re-arms it from the merged
//!   counters, so stale loaded counts age out under normal decay
//!   instead of pinning the prediction.

use std::fmt;

use jvm_bytecode::BlockId;

use crate::config::BcgConfig;
use crate::graph::{BranchCorrelationGraph, NodeIdx};
use crate::node::Successor;
use crate::state::NodeState;
use crate::table::PackedBranch;
use crate::Branch;

/// One successor correlation edge of a [`NodeImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccessorImage {
    /// The predicted block.
    pub to_block: BlockId,
    /// Decayed 16-bit occurrence counter.
    pub count: u16,
}

/// One node of a [`BcgImage`]: observable profile state only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeImage {
    /// The branch `(X, Y)` this node profiles.
    pub branch: Branch,
    /// The state tag as last published to the trace cache. Stored — not
    /// recomputed on restore — because the live tag is edge-triggered: it
    /// only re-evaluates at decay or delay expiry, so between decays it
    /// legitimately lags the drifting counters, and signals fire on tag
    /// *changes*.
    pub state: NodeState,
    /// Lifetime execution count.
    pub executions: u64,
    /// Executions remaining before the node leaves the start state,
    /// with any fast-path-deferred decrements already applied.
    pub delay_remaining: u32,
    /// Executions since the last decay, with any fast-path-deferred
    /// increments already applied (strictly below the decay interval).
    pub since_decay: u32,
    /// Successor edges in slot order.
    pub successors: Vec<SuccessorImage>,
}

/// A serializable image of a whole graph, nodes in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BcgImage {
    /// Nodes in the live graph's index order.
    pub nodes: Vec<NodeImage>,
}

/// Why an image cannot be reconstructed into a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Two image nodes claim the same branch.
    DuplicateBranch(Branch),
    /// A successor predicts a block whose branch node `(Y, Z)` is not in
    /// the image — a valid export is always closed under edge targets.
    MissingSuccessorTarget {
        /// The node whose edge dangles.
        node: Branch,
        /// The predicted block with no `(Y, Z)` node.
        to_block: BlockId,
    },
    /// A node's decay window is at or past the configured interval; the
    /// live graph's invariant keeps it strictly below.
    DecayWindow {
        /// The offending node's branch.
        branch: Branch,
        /// Its claimed executions-since-decay.
        since_decay: u32,
        /// The configured decay interval.
        interval: u32,
    },
    /// A node still inside its start-state delay carries a non-start
    /// state tag; the live graph holds `NewlyCreated` for the delay's
    /// whole span (§3.3).
    DelayedNonStartState {
        /// The offending node's branch.
        branch: Branch,
        /// The contradictory tag it claims.
        state: NodeState,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::DuplicateBranch(b) => write!(f, "duplicate branch {b:?} in image"),
            ImageError::MissingSuccessorTarget { node, to_block } => write!(
                f,
                "node {node:?} predicts {to_block} but the image has no ({}, {to_block}) node",
                node.1
            ),
            ImageError::DecayWindow {
                branch,
                since_decay,
                interval,
            } => write!(
                f,
                "node {branch:?} claims since_decay {since_decay} >= decay interval {interval}"
            ),
            ImageError::DelayedNonStartState { branch, state } => write!(
                f,
                "node {branch:?} is still delayed but claims state {state:?}"
            ),
        }
    }
}

impl std::error::Error for ImageError {}

/// What [`merge_into`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Image nodes folded into already-existing live nodes.
    pub nodes_merged: usize,
    /// Image nodes that created fresh live nodes.
    pub nodes_created: usize,
    /// Image edges folded into existing live edges.
    pub edges_merged: usize,
    /// Image edges that created fresh live edges.
    pub edges_created: usize,
}

/// Captures a live graph as an image.
///
/// The budgeted fast path defers `since_decay` / `delay_remaining`
/// bookkeeping while armed (`fp_armed - fp_budget` elapsed hits are
/// pending); the export applies that arithmetic into the image — the
/// arming budget guarantees neither countdown crossed its boundary, so
/// the settled values are exact — without touching the graph.
pub fn export(bcg: &BranchCorrelationGraph) -> BcgImage {
    let nodes = bcg
        .iter()
        .map(|(_, node)| {
            let elapsed = node.fp_armed - node.fp_budget;
            let delay_remaining = if node.delay_remaining > 0 {
                // Arm-time budget was capped at delay_remaining - 1, so
                // the countdown cannot have hit zero while armed.
                node.delay_remaining - elapsed
            } else {
                0
            };
            NodeImage {
                branch: node.branch,
                state: node.state,
                executions: node.executions,
                delay_remaining,
                since_decay: node.since_decay + elapsed,
                successors: node
                    .successors
                    .as_slice()
                    .iter()
                    .map(|s| SuccessorImage {
                        to_block: s.to_block,
                        count: s.count,
                    })
                    .collect(),
            }
        })
        .collect();
    BcgImage { nodes }
}

/// Folds an image into a live graph — the warm-boot merge.
///
/// Per node: the pending fast-path bookkeeping of the live node is
/// settled and the node disarmed; executions and matching successor
/// counters are added with saturation at the configured bound; the
/// start-state delay takes the *minimum* of the two countdowns (work
/// already done in either process counts); and the decay window takes
/// the *sum clamped to `decay_interval - 1`* — so a node whose combined
/// window would have crossed the boundary decays at its very next slow
/// visit, which is what makes stale loaded counts age out rather than
/// pin the prediction. A node with no live profile yet adopts the stored
/// state tag, and nodes are materialized in image order, so merging into
/// an empty graph reproduces the image — indices, and therefore a
/// subsequent [`export`], included; a node with live counters gets its
/// tag re-evaluated from the merged counters. **No signals are raised**
/// (warm boot restores trace links from the snapshot directly).
///
/// # Errors
///
/// Returns an [`ImageError`] on duplicate branches, dangling successor
/// targets, decay windows at/past the configured interval, or a pending
/// start delay on a node past its start state. The image is validated
/// first; the live graph is untouched on error.
pub fn merge_into(
    bcg: &mut BranchCorrelationGraph,
    image: &BcgImage,
) -> Result<MergeStats, ImageError> {
    let config = *bcg.config();
    validate(&config, image)?;
    let mut stats = MergeStats::default();
    // Materialize every image node first, in image order: edge wiring
    // then never creates nodes out of order, so merging into an empty
    // graph reproduces the image's index assignment exactly (and the
    // created/merged split is counted against the pre-merge graph).
    for img in &image.nodes {
        let before = bcg.len();
        bcg.get_or_create_node(img.branch);
        if bcg.len() > before {
            stats.nodes_created += 1;
        } else {
            stats.nodes_merged += 1;
        }
    }
    for img in &image.nodes {
        let idx = bcg.get_or_create_node(img.branch);
        // A node with no live profile yet (no executions, no edges —
        // freshly materialized or never exercised) adopts the snapshot
        // wholesale, stored state tag included.
        let virgin = {
            let node = bcg.node_mut(idx);
            node.executions == 0 && node.successors.is_empty()
        };
        // Settle the deferred window, then disarm: the merged node must
        // re-enter the lazy-decay discipline from a clean slow-path
        // state, so the next visit re-arms against the *merged*
        // counters (a stale armed budget could otherwise run a counter
        // past saturation or skate over a now-due decay).
        bcg.settle_and_disarm(idx);
        for s in &img.successors {
            let target = bcg.get_or_create_node((img.branch.1, s.to_block));
            let node = bcg.node_mut(idx);
            match node
                .successors
                .as_mut_slice()
                .iter_mut()
                .find(|e| e.to_block == s.to_block)
            {
                Some(edge) => {
                    let merged = u32::from(edge.count) + u32::from(s.count);
                    edge.count = merged.min(u32::from(config.max_counter)) as u16;
                    stats.edges_merged += 1;
                }
                None => {
                    node.successors.push(Successor {
                        to_block: s.to_block,
                        count: s.count,
                        node: target,
                    });
                    stats.edges_created += 1;
                }
            }
            let t = bcg.node_mut(target);
            if !t.preds.contains(&idx) {
                t.preds.push(idx);
            }
        }
        let node = bcg.node_mut(idx);
        node.executions = node.executions.saturating_add(img.executions);
        node.delay_remaining = node.delay_remaining.min(img.delay_remaining);
        node.since_decay = (node.since_decay + img.since_decay).min(config.decay_interval - 1);
        refresh_derived(bcg, idx);
        let node = bcg.node_mut(idx);
        node.state = if virgin {
            img.state
        } else {
            node.compute_state(config.threshold)
        };
    }
    Ok(stats)
}

/// Recomputes a node's derived counter state after its edges changed
/// outside the observe path: total weight and cached prediction (maximal
/// counter, last-wins tie-break like decay's re-election). The state tag
/// is *not* touched — it is edge-triggered live state the callers decide
/// on (a node without live profile adopts the stored tag, otherwise the
/// merge re-evaluates).
fn refresh_derived(bcg: &mut BranchCorrelationGraph, idx: NodeIdx) {
    let node = bcg.node_mut(idx);
    node.total_weight = node
        .successors
        .as_slice()
        .iter()
        .map(|s| u32::from(s.count))
        .sum();
    node.cached = node
        .successors
        .as_slice()
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.count)
        .map(|(i, _)| i as u32);
}

fn validate(config: &BcgConfig, image: &BcgImage) -> Result<(), ImageError> {
    let mut seen = std::collections::HashSet::with_capacity(image.nodes.len());
    for img in &image.nodes {
        if !seen.insert(PackedBranch::pack(img.branch).0) {
            return Err(ImageError::DuplicateBranch(img.branch));
        }
        if img.since_decay >= config.decay_interval {
            return Err(ImageError::DecayWindow {
                branch: img.branch,
                since_decay: img.since_decay,
                interval: config.decay_interval,
            });
        }
        if img.delay_remaining > 0 && img.state != NodeState::NewlyCreated {
            return Err(ImageError::DelayedNonStartState {
                branch: img.branch,
                state: img.state,
            });
        }
    }
    for img in &image.nodes {
        for s in &img.successors {
            let target = PackedBranch::pack((img.branch.1, s.to_block)).0;
            if !seen.contains(&target) {
                return Err(ImageError::MissingSuccessorTarget {
                    node: img.branch,
                    to_block: s.to_block,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalKind;
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

    /// An image merged into a fresh graph under `config`.
    fn restore(config: BcgConfig, image: &BcgImage) -> Result<BranchCorrelationGraph, ImageError> {
        let mut bcg = BranchCorrelationGraph::new(config);
        merge_into(&mut bcg, image)?;
        Ok(bcg)
    }

    fn feed(bcg: &mut BranchCorrelationGraph, pattern: &[u32], reps: usize) {
        for _ in 0..reps {
            for &b in pattern {
                bcg.observe(blk(b));
            }
        }
    }

    #[test]
    fn export_restore_round_trips_bit_identically() {
        let mut bcg = BranchCorrelationGraph::new(cfg(16, 0.90));
        for i in 0..700 {
            bcg.observe(blk(0));
            bcg.observe(blk(1));
            bcg.observe(blk(if i % 10 == 9 { 3 } else { 2 }));
        }
        let image = export(&bcg);
        assert!(!image.nodes.is_empty());
        let rebuilt = restore(*bcg.config(), &image).expect("valid image");
        assert_eq!(export(&rebuilt), image, "round trip must be exact");
        // Derived state agrees with the live graph node for node.
        assert_eq!(rebuilt.len(), bcg.len());
        for (idx, live) in bcg.iter() {
            let r = rebuilt.node(idx);
            assert_eq!(r.branch(), live.branch());
            assert_eq!(r.state(), live.state());
            assert_eq!(r.total_weight(), live.total_weight());
            assert_eq!(r.successors(), live.successors());
            // The cached prediction is re-elected maximal on restore (the
            // live slot may be a non-maximal first-observed edge between
            // decays, which the image deliberately does not store).
            let p = r.predicted().map(|s| s.count);
            assert_eq!(p, r.max_successor().map(|s| s.count));
        }
    }

    #[test]
    fn export_settles_armed_fast_path_bookkeeping() {
        // A long predictable run leaves the hot node armed with pending
        // deferred bookkeeping; the exported window must include it.
        let mut bcg = BranchCorrelationGraph::new(cfg(1, 0.97));
        feed(&mut bcg, &[0, 1], 100);
        let image = export(&bcg);
        let img01 = image
            .nodes
            .iter()
            .find(|n| n.branch == (blk(0), blk(1)))
            .expect("node exists");
        // 100 reps => 99 executions of (0,1) past creation; the raw node
        // field lags while armed, the image must not.
        let n01 = bcg.node_index((blk(0), blk(1))).unwrap();
        let raw = bcg.node(n01);
        let pending = raw.fp_armed - raw.fp_budget;
        assert!(pending > 0, "test needs an armed node with pending hits");
        assert_eq!(img01.since_decay, raw.since_decay + pending);
        // Restoring and continuing must behave like the original graph.
        let cont = restore(*bcg.config(), &image).unwrap();
        assert!(cont.node(n01).since_decay < cont.config().decay_interval);
    }

    #[test]
    fn merge_rejects_duplicate_and_dangling_and_overdue() {
        let config = cfg(4, 0.97);
        let node = |b: (u32, u32), succ: Vec<(u32, u16)>| NodeImage {
            branch: (blk(b.0), blk(b.1)),
            state: NodeState::NewlyCreated,
            executions: 1,
            delay_remaining: 0,
            since_decay: 0,
            successors: succ
                .into_iter()
                .map(|(t, c)| SuccessorImage {
                    to_block: blk(t),
                    count: c,
                })
                .collect(),
        };
        let dup = BcgImage {
            nodes: vec![node((0, 1), vec![]), node((0, 1), vec![])],
        };
        assert!(matches!(
            restore(config, &dup),
            Err(ImageError::DuplicateBranch(_))
        ));
        let dangling = BcgImage {
            nodes: vec![node((0, 1), vec![(2, 5)])],
        };
        assert!(matches!(
            restore(config, &dangling),
            Err(ImageError::MissingSuccessorTarget { .. })
        ));
        let mut overdue = BcgImage {
            nodes: vec![node((0, 1), vec![])],
        };
        overdue.nodes[0].since_decay = config.decay_interval;
        assert!(matches!(
            restore(config, &overdue),
            Err(ImageError::DecayWindow { .. })
        ));
        let mut contradictory = BcgImage {
            nodes: vec![node((0, 1), vec![])],
        };
        contradictory.nodes[0].delay_remaining = 3;
        contradictory.nodes[0].state = NodeState::Unique;
        assert!(matches!(
            restore(config, &contradictory),
            Err(ImageError::DelayedNonStartState { .. })
        ));
    }

    #[test]
    fn merge_into_empty_graph_reproduces_the_image() {
        let mut bcg = BranchCorrelationGraph::new(cfg(8, 0.90));
        feed(&mut bcg, &[0, 1, 2, 0, 1, 3], 100);
        let image = export(&bcg);
        let mut fresh = BranchCorrelationGraph::new(*bcg.config());
        let stats = merge_into(&mut fresh, &image).unwrap();
        assert_eq!(stats.nodes_created, image.nodes.len());
        assert_eq!(stats.nodes_merged, 0);
        assert_eq!(export(&fresh), image);
    }

    #[test]
    fn merge_saturates_counters_and_sums_executions() {
        let config = BcgConfig {
            max_counter: 100,
            ..cfg(1, 0.97)
        };
        let mut a = BranchCorrelationGraph::new(config);
        feed(&mut a, &[0, 1], 80);
        let image = export(&a);
        let mut b = BranchCorrelationGraph::new(config);
        feed(&mut b, &[0, 1], 80);
        let n01 = b.node_index((blk(0), blk(1))).unwrap();
        let before_exec = b.node(n01).executions();
        merge_into(&mut b, &image).unwrap();
        let node = b.node(n01);
        assert_eq!(node.successors()[0].count, 100, "saturates at the bound");
        assert_eq!(node.total_weight(), 100);
        assert_eq!(
            node.executions(),
            before_exec
                + image
                    .nodes
                    .iter()
                    .find(|n| n.branch == (blk(0), blk(1)))
                    .unwrap()
                    .executions
        );
    }

    /// Satellite regression: a merged profile's `since_decay` /
    /// `delay_remaining` must re-enter the lazy-decay discipline — the
    /// clamped window stays strictly below the interval (the live
    /// invariant), the node is disarmed so the next visit takes the
    /// slow path, and that visit fires the decay the combined window
    /// earned *before* re-arming against the decayed counters.
    #[test]
    fn merge_then_decay_ordering_re_enters_lazy_discipline() {
        let config = cfg(1, 0.97);
        let interval = config.decay_interval;
        // Two graphs, each more than half way to the next decay on the
        // same node, neither decayed yet.
        let mut a = BranchCorrelationGraph::new(config);
        let mut b = BranchCorrelationGraph::new(config);
        let reps = (interval as usize * 3) / 5;
        feed(&mut a, &[0, 1], reps + 1);
        feed(&mut b, &[0, 1], reps + 1);
        let n01 = b.node_index((blk(0), blk(1))).unwrap();
        assert_eq!(b.stats().decays, 0, "window must still be open");
        let decays_before = b.stats().decays;

        merge_into(&mut b, &export(&a)).unwrap();
        let node = b.node(n01);
        // Combined window (2 * reps) crossed the interval; the clamp
        // parks it one shy so the invariant holds...
        assert_eq!(node.since_decay, interval - 1);
        assert!(node.since_decay < interval, "live invariant");
        assert_eq!(node.fp_budget, 0, "merged node must be disarmed");
        assert_eq!(b.stats().decays, decays_before, "merge itself never decays");
        let weight_before = node.total_weight();

        // The very next observations of the branch decay it: merged
        // counters halve (age out) instead of pinning. Both merged nodes
        // ((0,1) and (1,0)) hit their parked boundary, one per observe.
        b.observe(blk(0));
        assert_eq!(
            b.stats().decays,
            decays_before + 1,
            "decay fires next visit"
        );
        b.observe(blk(1));
        let node = b.node(n01);
        assert_eq!(b.stats().decays, decays_before + 2, "sibling node too");
        assert!(
            node.total_weight() <= weight_before / 2 + 1,
            "merged counters must decay: {} vs {}",
            node.total_weight(),
            weight_before
        );
        assert_eq!(node.since_decay, 0, "window re-anchored by the decay");
        #[cfg(feature = "debug-invariants")]
        b.assert_node_invariants(n01);
    }

    #[test]
    fn merge_takes_minimum_delay_and_recomputes_state() {
        let config = cfg(64, 0.97);
        // Donor ran the branch past its delay; the live graph has not.
        let mut donor = BranchCorrelationGraph::new(config);
        feed(&mut donor, &[0, 1], 80);
        let mut live = BranchCorrelationGraph::new(config);
        feed(&mut live, &[0, 1], 5);
        let n01 = live.node_index((blk(0), blk(1))).unwrap();
        assert_eq!(live.node(n01).state(), NodeState::NewlyCreated);
        merge_into(&mut live, &export(&donor)).unwrap();
        let node = live.node(n01);
        assert_eq!(node.delay_remaining, 0, "donor already served the delay");
        assert_eq!(node.state(), NodeState::Unique, "state recomputed hot");
    }

    #[test]
    fn merge_is_silent_and_later_observation_signals_normally() {
        let config = cfg(4, 0.97);
        let mut donor = BranchCorrelationGraph::new(config);
        feed(&mut donor, &[0, 1], 40);
        let mut live = BranchCorrelationGraph::new(config);
        merge_into(&mut live, &export(&donor)).unwrap();
        assert!(!live.has_signals(), "merge must not raise signals");
        // New correlation discovered after the merge still signals.
        feed(&mut live, &[5, 6], 10);
        assert!(live
            .take_signals()
            .iter()
            .any(|s| matches!(s.kind, SignalKind::StateChange { .. })));
    }

    #[test]
    fn merged_graph_keeps_observing_consistently() {
        // End-to-end: merge then keep profiling; derived state stays
        // coherent under the debug invariants.
        let config = cfg(8, 0.90);
        let mut donor = BranchCorrelationGraph::new(config);
        feed(&mut donor, &[0, 1, 2, 3], 500);
        let mut live = BranchCorrelationGraph::new(config);
        feed(&mut live, &[0, 1, 4], 50);
        merge_into(&mut live, &export(&donor)).unwrap();
        feed(&mut live, &[0, 1, 2, 3], 500);
        let n01 = live.node_index((blk(0), blk(1))).unwrap();
        let node = live.node(n01);
        assert!(node.state().is_hot());
        assert_eq!(node.predicted().unwrap().to_block, blk(2));
        assert!(live.stats().decays > 0);
    }
}
