//! Reference (pre-overhaul) profiler implementation.
//!
//! This is the straightforward `std::collections::HashMap` +
//! `Vec<Successor>` BCG exactly as it existed before the hot-path
//! overhaul: SipHash index, heap-allocated successor lists, allocating
//! signal drain. It is kept for one job, differential testing:
//! `tests/index_differential.rs` drives this and
//! [`BranchCorrelationGraph`](crate::BranchCorrelationGraph) with the
//! same block streams and asserts bit-identical signals, node states,
//! and successor structure.
//!
//! The update logic here must NOT be "improved": it is the oracle. Any
//! behavioural change belongs in `graph.rs`, and the differential tests
//! will fail until this file is updated to match deliberately.

use std::collections::HashMap;

use jvm_bytecode::BlockId;

use crate::config::{BcgConfig, DECAY_SHIFT};
use crate::graph::NodeIdx;
use crate::signal::{Signal, SignalKind};
use crate::state::NodeState;
use crate::stats::ProfilerStats;
use crate::Branch;

/// A successor correlation of a [`RefNode`] (same layout as
/// [`crate::Successor`] but owned here so the reference stays frozen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefSuccessor {
    pub to_block: BlockId,
    pub count: u16,
    pub node: NodeIdx,
}

/// A node of the reference BCG: identical fields to the pre-overhaul
/// `Node`, with a plain `Vec` successor list.
#[derive(Debug, Clone)]
pub struct RefNode {
    branch: Branch,
    state: NodeState,
    delay_remaining: u32,
    since_decay: u32,
    executions: u64,
    total_weight: u32,
    successors: Vec<RefSuccessor>,
    preds: Vec<NodeIdx>,
    cached: Option<u32>,
    generation: u64,
}

impl RefNode {
    fn new(branch: Branch, start_delay: u32) -> Self {
        RefNode {
            branch,
            state: NodeState::NewlyCreated,
            delay_remaining: start_delay,
            since_decay: 0,
            executions: 0,
            total_weight: 0,
            successors: Vec::new(),
            preds: Vec::new(),
            cached: None,
            generation: 0,
        }
    }

    pub fn branch(&self) -> Branch {
        self.branch
    }

    pub fn state(&self) -> NodeState {
        self.state
    }

    pub fn executions(&self) -> u64 {
        self.executions
    }

    pub fn successors(&self) -> &[RefSuccessor] {
        &self.successors
    }

    pub fn predecessors(&self) -> &[NodeIdx] {
        &self.preds
    }

    pub fn total_weight(&self) -> u32 {
        self.total_weight
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn max_successor(&self) -> Option<&RefSuccessor> {
        self.successors.iter().max_by_key(|s| s.count)
    }

    pub fn predicted(&self) -> Option<&RefSuccessor> {
        self.cached.map(|i| &self.successors[i as usize])
    }

    pub fn correlation(&self, s: &RefSuccessor) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            f64::from(s.count) / f64::from(self.total_weight)
        }
    }

    fn compute_state(&self, threshold: f64) -> NodeState {
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

/// The pre-overhaul profiler. See the module docs; the public surface
/// mirrors [`crate::BranchCorrelationGraph`] closely enough that the
/// differential tests and the bench can drive both generically.
#[derive(Debug)]
pub struct ReferenceBcg {
    config: BcgConfig,
    nodes: Vec<RefNode>,
    index: HashMap<Branch, NodeIdx>,
    last_block: Option<BlockId>,
    ctx_node: Option<NodeIdx>,
    signals: Vec<Signal>,
    stats: ProfilerStats,
}

impl ReferenceBcg {
    pub fn new(config: BcgConfig) -> Self {
        ReferenceBcg {
            config,
            nodes: Vec::new(),
            index: HashMap::new(),
            last_block: None,
            ctx_node: None,
            signals: Vec::new(),
            stats: ProfilerStats::default(),
        }
    }

    pub fn config(&self) -> &BcgConfig {
        &self.config
    }

    pub fn stats(&self) -> ProfilerStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    pub fn node(&self, idx: NodeIdx) -> &RefNode {
        &self.nodes[idx.index()]
    }

    pub fn node_index(&self, branch: Branch) -> Option<NodeIdx> {
        self.index.get(&branch).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (NodeIdx, &RefNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeIdx(i as u32), n))
    }

    pub fn begin_stream(&mut self) {
        self.last_block = None;
        self.ctx_node = None;
    }

    pub fn set_context(&mut self, block: BlockId) {
        self.last_block = Some(block);
        self.ctx_node = None;
    }

    /// The pre-overhaul drain: allocates a fresh `Vec` every time.
    pub fn take_signals(&mut self) -> Vec<Signal> {
        std::mem::take(&mut self.signals)
    }

    pub fn has_signals(&self) -> bool {
        !self.signals.is_empty()
    }

    pub fn mark_generation(&mut self, idx: NodeIdx, generation: u64) {
        self.nodes[idx.index()].generation = generation;
    }

    /// One dispatched block, pre-overhaul logic (HashMap index on the
    /// context-miss path, `Vec` successor scans otherwise).
    pub fn observe(&mut self, z: BlockId) {
        self.stats.dispatches += 1;
        let y = match self.last_block.replace(z) {
            None => return,
            Some(y) => y,
        };
        let next = match self.ctx_node {
            Some(nxy) => self.record(nxy, (y, z)),
            None => self.get_or_create((y, z)),
        };
        self.ctx_node = Some(next);
    }

    fn get_or_create(&mut self, branch: Branch) -> NodeIdx {
        if let Some(&idx) = self.index.get(&branch) {
            return idx;
        }
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes
            .push(RefNode::new(branch, self.config.start_delay));
        self.index.insert(branch, idx);
        self.stats.nodes_created += 1;
        idx
    }

    fn record(&mut self, nxy: NodeIdx, yz: Branch) -> NodeIdx {
        let cfg = self.config;
        let z = yz.1;

        let mut next: Option<NodeIdx> = None;
        {
            let node = &mut self.nodes[nxy.index()];
            node.executions += 1;
            if cfg.inline_cache {
                if let Some(ci) = node.cached {
                    let s = &mut node.successors[ci as usize];
                    if s.to_block == z {
                        if s.count < cfg.max_counter {
                            s.count += 1;
                            node.total_weight += 1;
                        }
                        self.stats.cache_hits += 1;
                        next = Some(s.node);
                    }
                }
            }
            if next.is_none() {
                self.stats.cache_misses += 1;
                if let Some(i) = node.successors.iter().position(|s| s.to_block == z) {
                    let s = &mut node.successors[i];
                    if s.count < cfg.max_counter {
                        s.count += 1;
                        node.total_weight += 1;
                    }
                    if node.cached.is_none() {
                        node.cached = Some(i as u32);
                    }
                    next = Some(s.node);
                }
            }
        }

        let next = match next {
            Some(n) => n,
            None => {
                let nyz = self.get_or_create(yz);
                let node = &mut self.nodes[nxy.index()];
                node.successors.push(RefSuccessor {
                    to_block: z,
                    count: 1,
                    node: nyz,
                });
                node.total_weight += 1;
                if node.cached.is_none() {
                    node.cached = Some((node.successors.len() - 1) as u32);
                }
                self.stats.edges_created += 1;
                let target = &mut self.nodes[nyz.index()];
                if !target.preds.contains(&nxy) {
                    target.preds.push(nxy);
                }
                nyz
            }
        };

        let mut decay_due = false;
        {
            let node = &mut self.nodes[nxy.index()];
            if node.delay_remaining > 0 {
                node.delay_remaining -= 1;
                if node.delay_remaining == 0 {
                    let new = node.compute_state(cfg.threshold);
                    if new != node.state {
                        let old = node.state;
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

    fn decay(&mut self, idx: NodeIdx) {
        let cfg = self.config;
        let node = &mut self.nodes[idx.index()];
        let old_state = node.state;
        let old_pred = node.predicted().map(|s| s.to_block);

        for s in &mut node.successors {
            s.count >>= DECAY_SHIFT;
        }
        node.successors.retain(|s| s.count > 0);
        node.total_weight = node.successors.iter().map(|s| u32::from(s.count)).sum();

        node.cached = node
            .successors
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.count)
            .map(|(i, _)| i as u32);

        let new_state = if node.delay_remaining > 0 {
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
