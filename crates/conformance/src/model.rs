//! The executable from-the-paper model.
//!
//! A deliberately naive, allocation-happy implementation of the paper's
//! rules — BCG node lifecycle (§3.3, §4.1.1), the 256-execution decay,
//! the start-state delay, completion-threshold signalling, and trace
//! cutting by expected completion probability (§3.7, §4.2) — written
//! directly from the prose, with none of the production crates'
//! machinery (no packed keys, no inline caches, no fast path, no
//! hash-consed arena). Nodes are keyed by their [`Branch`] in plain
//! hash maps, successor lists are `Vec`s, and every event is processed
//! the slow way.
//!
//! The [`crate::lockstep`] harness drives this model and the production
//! `trace-bcg` + `trace-cache` pipeline with the same dispatch stream and
//! compares them event by event: the model is the oracle, so any
//! divergence is a bug in one of the two (or a deliberate
//! [`Quirk`] planted to prove the harness can see it).
//!
//! It is the profiler's only oracle, as
//! [`ReferenceVm`](jvm_vm::reference::ReferenceVm) is the executors'
//! and [`ModelCache`] the cache's. [`ModelBcg`] counts every
//! [`ProfilerStats`] field from its own transcription, so the harness
//! holds the production counters — inline-cache hits and misses
//! included — to the model as well as the graph.
//!
//! Two semantic details are load-bearing and replicated on purpose:
//!
//! * `Iterator::max_by_key` returns the **last** maximal element on
//!   ties; both the maximum-likelihood successor and decay's cached
//!   re-election depend on that tie-break;
//! * a saturated counter (`count == MAX_COUNTER`) bumps **neither** the
//!   count nor `total_weight`, keeping correlation ratios frozen.

use std::collections::{HashMap, HashSet};

use jvm_bytecode::BlockId;
use trace_bcg::{
    BcgConfig, Branch, NodeState, PackedBranch, ProfilerStats, SignalKind, DECAY_SHIFT,
};
use trace_cache::{
    trace_cost, ConstructorConfig, MAX_ENTRY_POINTS, MAX_PATH_NODES, MAX_TRACE_BLOCKS,
    MIN_TRACE_BLOCKS,
};

/// Saturation bound of the 16-bit edge counters. Transcribed from
/// `trace_bcg::MAX_COUNTER`; the model keeps its own copy on purpose, so
/// lockstep flags any drift between the two.
const MAX_COUNTER: u16 = u16::MAX;

/// A deliberately planted model bug, used by the regression tests to
/// prove the harness detects real divergences. `None` in normal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quirk {
    /// Off-by-one in the *forced* decay's prune threshold: edges whose
    /// counter decays to zero are kept instead of removed. Natural decay
    /// is unaffected, so only a chaos campaign that injects forced decay
    /// ticks can expose this bug.
    ForcedDecayKeepsZeroEdges,
    /// The model's quarantine tombstones the faulting trace but forgets
    /// to blacklist its `(entry, path)` key, so refused rebuilds differ.
    /// Only a chaos campaign that quarantines live traces can expose
    /// this bug.
    QuarantineForgotten,
    /// The snapshot reader skips the program-hash staleness check, so a
    /// profile measured against *different bytecode* is silently merged
    /// into a live VM. Every ordinary suite reads snapshots it wrote
    /// itself (hash always matches), so only the hostile-input campaign
    /// in [`crate::snapshot`] — whose mutants rewrite the hash field —
    /// can expose this bug.
    StaleSnapshotAccepted,
    /// The model's quarantine forgets the anti-flap escalation: a
    /// repeat quarantine at an entry blacklists its key for the base
    /// cooldown instead of a doubled one. Ordinary lockstep quarantines
    /// nothing, so only a chaos campaign that rots one entry again and
    /// again can expose this bug.
    EscalationForgotten,
}

/// A profiler signal in model coordinates (branches, not node indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSignal {
    /// The branch whose node changed.
    pub branch: Branch,
    /// What changed (shared with the production profiler).
    pub kind: SignalKind,
}

/// A successor correlation edge of a [`ModelNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSuccessor {
    /// The block this edge predicts.
    pub to_block: BlockId,
    /// Decayed 16-bit execution counter.
    pub count: u16,
}

/// One BCG node `N_XY` of the model, in the paper's terms.
#[derive(Debug, Clone)]
pub struct ModelNode {
    /// The branch `(X, Y)`.
    pub branch: Branch,
    /// Current correlation state tag.
    pub state: NodeState,
    /// Remaining start-state delay executions (§3.3).
    pub delay_remaining: u32,
    /// Executions since the last decay (§4.1.1).
    pub since_decay: u32,
    /// Lifetime execution count.
    pub executions: u64,
    /// Sum of successor counts.
    pub total_weight: u32,
    /// Successor edges in discovery order.
    pub successors: Vec<ModelSuccessor>,
    /// Predecessor branches in discovery order (possibly stale).
    pub preds: Vec<Branch>,
    /// Index of the cached (predicted) successor.
    pub cached: Option<usize>,
    /// Trace-constructor generation stamp (cascade suppression).
    pub generation: u64,
}

impl ModelNode {
    fn new(branch: Branch, start_delay: u32) -> Self {
        ModelNode {
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

    /// The maximal successor; the last one wins ties, like
    /// `Iterator::max_by_key` in the production code.
    pub fn max_successor(&self) -> Option<&ModelSuccessor> {
        self.successors.iter().max_by_key(|s| s.count)
    }

    /// The cached (predicted) successor.
    pub fn predicted(&self) -> Option<&ModelSuccessor> {
        self.cached.map(|i| &self.successors[i])
    }

    /// Correlation ratio of one edge.
    pub fn correlation(&self, s: &ModelSuccessor) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            f64::from(s.count) / f64::from(self.total_weight)
        }
    }

    /// Correlation toward a specific block, 0.0 if never observed.
    pub fn correlation_to(&self, block: BlockId) -> f64 {
        self.successors
            .iter()
            .find(|s| s.to_block == block)
            .map(|s| self.correlation(s))
            .unwrap_or(0.0)
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

/// The model profiler: the paper's BCG with nothing optimised away.
#[derive(Debug)]
pub struct ModelBcg {
    config: BcgConfig,
    nodes: HashMap<Branch, ModelNode>,
    last_block: Option<BlockId>,
    ctx: Option<Branch>,
    signals: Vec<ModelSignal>,
    stats: ProfilerStats,
    quirk: Option<Quirk>,
}

impl ModelBcg {
    /// Creates the model with the same configuration as the production
    /// profiler it will be compared against.
    pub fn new(config: BcgConfig) -> Self {
        ModelBcg {
            config,
            nodes: HashMap::new(),
            last_block: None,
            ctx: None,
            signals: Vec::new(),
            stats: ProfilerStats::default(),
            quirk: None,
        }
    }

    /// Plants a deliberate bug (regression-test fixture).
    pub fn with_quirk(mut self, quirk: Quirk) -> Self {
        self.quirk = Some(quirk);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &BcgConfig {
        &self.config
    }

    /// The profiler's counters, each counted where the paper's rule
    /// fires: every dispatch; per recorded branch, a hit when the
    /// context's predicted successor is the dispatched block (and the
    /// inline cache is on), a miss otherwise; every edge and node
    /// created, every decay, every signal by kind.
    pub fn stats(&self) -> ProfilerStats {
        self.stats
    }

    /// Number of nodes realised so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the model graph is still empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for a branch, if realised.
    pub fn node(&self, branch: Branch) -> Option<&ModelNode> {
        self.nodes.get(&branch)
    }

    /// Drains all pending signals into `out` (cleared first), retaining
    /// both buffers' capacity — the model-side twin of the production
    /// profiler's `drain_signals_into`, so the lockstep harness can pump
    /// every batch without touching the allocator.
    pub fn drain_signals_into(&mut self, out: &mut Vec<ModelSignal>) {
        out.clear();
        out.append(&mut self.signals);
    }

    /// Forgets the dispatch context (new stream / thread switch).
    pub fn begin_stream(&mut self) {
        self.last_block = None;
        self.ctx = None;
    }

    /// Stamps a node's constructor generation.
    pub fn mark_generation(&mut self, branch: Branch, generation: u64) {
        if let Some(n) = self.nodes.get_mut(&branch) {
            n.generation = generation;
        }
    }

    /// One dispatched block, straight from the paper's description.
    pub fn observe(&mut self, z: BlockId) {
        self.stats.dispatches += 1;
        let y = match self.last_block.replace(z) {
            None => return,
            Some(y) => y,
        };
        let yz = (y, z);
        match self.ctx {
            None => {
                self.get_or_create(yz);
            }
            Some(xy) => self.record(xy, yz),
        }
        self.ctx = Some(yz);
    }

    fn get_or_create(&mut self, branch: Branch) {
        if !self.nodes.contains_key(&branch) {
            self.nodes
                .insert(branch, ModelNode::new(branch, self.config.start_delay));
            self.stats.nodes_created += 1;
        }
    }

    fn record(&mut self, xy: Branch, yz: Branch) {
        let cfg = self.config;
        let z = yz.1;

        // Edge bump (saturating; a saturated edge freezes total_weight
        // too so the ratio stays put), creating edge and target node on
        // first sighting.
        let known = {
            let node = self.nodes.get_mut(&xy).expect("context node exists");
            node.executions += 1;
            if node.predicted().is_some_and(|s| s.to_block == z) {
                self.stats.cache_hits += 1;
            } else {
                self.stats.cache_misses += 1;
            }
            match node.successors.iter().position(|s| s.to_block == z) {
                Some(i) => {
                    let s = &mut node.successors[i];
                    if s.count < MAX_COUNTER {
                        s.count += 1;
                        node.total_weight += 1;
                    }
                    if node.cached.is_none() {
                        node.cached = Some(i);
                    }
                    true
                }
                None => false,
            }
        };
        if !known {
            self.get_or_create(yz);
            let node = self.nodes.get_mut(&xy).expect("context node exists");
            node.successors.push(ModelSuccessor {
                to_block: z,
                count: 1,
            });
            node.total_weight += 1;
            if node.cached.is_none() {
                node.cached = Some(node.successors.len() - 1);
            }
            self.stats.edges_created += 1;
            let target = self.nodes.get_mut(&yz).expect("just created");
            if !target.preds.contains(&xy) {
                target.preds.push(xy);
            }
        }

        // Start-state delay (§3.3): the state is first computed when the
        // delay expires, and the change is signalled.
        let mut decay_due = false;
        {
            let node = self.nodes.get_mut(&xy).expect("context node exists");
            if node.delay_remaining > 0 {
                node.delay_remaining -= 1;
                if node.delay_remaining == 0 {
                    let new = node.compute_state(cfg.threshold);
                    if new != node.state {
                        let old = node.state;
                        node.state = new;
                        self.signals.push(ModelSignal {
                            branch: xy,
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
            self.decay(xy, false);
        }
    }

    /// A forced decay tick (chaos perturbation): decays the node right
    /// now, regardless of its `since_decay` position.
    pub fn force_decay(&mut self, branch: Branch) {
        if self.nodes.contains_key(&branch) {
            self.decay(branch, true);
        }
    }

    /// Periodic decay (§4.1.1): shift every counter right, prune dead
    /// edges, re-elect the prediction, recompute the state, and signal
    /// the trace cache if either changed.
    fn decay(&mut self, branch: Branch, forced: bool) {
        let cfg = self.config;
        let keep_zero = forced && self.quirk == Some(Quirk::ForcedDecayKeepsZeroEdges);
        let node = self.nodes.get_mut(&branch).expect("decaying node exists");
        let old_state = node.state;
        let old_pred = node.predicted().map(|s| s.to_block);

        for s in &mut node.successors {
            s.count >>= DECAY_SHIFT;
        }
        if !keep_zero {
            node.successors.retain(|s| s.count > 0);
        }
        node.total_weight = node.successors.iter().map(|s| u32::from(s.count)).sum();

        node.cached = node
            .successors
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.count)
            .map(|(i, _)| i);

        let new_state = if node.delay_remaining > 0 {
            old_state
        } else {
            node.compute_state(cfg.threshold)
        };
        node.state = new_state;
        node.since_decay = 0;
        self.stats.decays += 1;

        let new_pred = node.predicted().map(|s| s.to_block);
        if new_state != old_state {
            self.signals.push(ModelSignal {
                branch,
                kind: SignalKind::StateChange {
                    old: old_state,
                    new: new_state,
                },
            });
            self.stats.state_signals += 1;
        } else if new_state.is_hot() && new_pred != old_pred {
            self.signals.push(ModelSignal {
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

/// Cap on the anti-flap escalation: the `n`-th quarantine at one entry
/// blacklists it for `cooldown << min(n - 1, MAX_COOLDOWN_SHIFT)`.
/// Transcribed from `trace_cache::health`; the model keeps its own copy
/// on purpose, so lockstep flags any drift between the two.
const MAX_COOLDOWN_SHIFT: u32 = 4;

/// The model trace cache: hash-consed sequences plus entry links, with
/// no packed tables and no capacity bound. Mirrors the production
/// cache's policy — the closed-form [`trace_cost`] byte accounting,
/// tombstoning (ids never reused), the quarantine blacklist with its
/// per-refusal cooldown decay and its escalation on repeats at one
/// entry — written the slow way over `Branch`-keyed hash maps.
#[derive(Debug, Default)]
pub struct ModelCache {
    /// Trace slots in construction order; tombstoned (quarantined)
    /// traces are `None`. Slots are never reused.
    traces: Vec<Option<(Vec<BlockId>, f64)>>,
    /// Live entry links per trace (the reverse of `links`).
    entry_links: Vec<Vec<Branch>>,
    by_blocks: HashMap<Vec<BlockId>, usize>,
    /// Entry branch → index into `traces`.
    links: HashMap<Branch, usize>,
    /// Blacklist: entry → (exact block path, refusals remaining).
    quarantined: HashMap<Branch, (Vec<BlockId>, u32)>,
    /// Entry → quarantines there so far (never pruned, as in
    /// production).
    flaps: HashMap<Branch, u32>,
    payload: usize,
    quirk: Option<Quirk>,
}

impl ModelCache {
    /// Creates an empty model cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plants a deliberate bug (regression-test fixture).
    pub fn with_quirk(mut self, quirk: Quirk) -> Self {
        self.quirk = Some(quirk);
        self
    }

    /// Number of distinct trace objects ever constructed (including
    /// tombstoned ones — ids are never reused, as in production).
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Number of live entry links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The [`trace_cost`] sum over live traces.
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// The quarantine blacklist, sorted by packed entry key — the same
    /// deterministic order the production cache's `iter_quarantine`
    /// reports, so the lockstep harness can compare them directly.
    pub fn quarantine_list(&self) -> Vec<(Branch, Vec<BlockId>, u32)> {
        let mut q: Vec<(Branch, Vec<BlockId>, u32)> = self
            .quarantined
            .iter()
            .map(|(&b, (p, r))| (b, p.clone(), *r))
            .collect();
        q.sort_by_key(|(b, _, _)| PackedBranch::pack(*b).0);
        q
    }

    fn insert_and_link(&mut self, entry: Branch, blocks: Vec<BlockId>, completion: f64) {
        let id = match self.by_blocks.get(&blocks) {
            Some(&id) => id,
            None => {
                let id = self.traces.len();
                self.payload += trace_cost(blocks.len());
                self.traces.push(Some((blocks.clone(), completion)));
                self.entry_links.push(Vec::new());
                self.by_blocks.insert(blocks, id);
                id
            }
        };
        if let Some(old) = self.links.insert(entry, id) {
            if old != id {
                self.entry_links[old].retain(|&b| b != entry);
            }
        }
        if !self.entry_links[id].contains(&entry) {
            self.entry_links[id].push(entry);
        }
    }

    /// [`Self::insert_and_link`] behind the quarantine blacklist,
    /// mirroring the production cooldown decay: a refused attempt ticks
    /// the cooldown down, and at zero the key is re-admitted (the *next*
    /// attempt succeeds). Returns whether the insert was admitted.
    fn try_insert_and_link(
        &mut self,
        entry: Branch,
        blocks: Vec<BlockId>,
        completion: f64,
    ) -> bool {
        if let Some((qblocks, remaining)) = self.quarantined.get_mut(&entry) {
            if *qblocks == blocks {
                *remaining -= 1;
                if *remaining == 0 {
                    self.quarantined.remove(&entry);
                }
                return false;
            }
        }
        self.insert_and_link(entry, blocks, completion);
        true
    }

    /// Removes the link at an entry branch; the trace stays retrievable
    /// by id, as in production.
    pub fn unlink(&mut self, entry: Branch) -> bool {
        let Some(id) = self.links.remove(&entry) else {
            return false;
        };
        self.entry_links[id].retain(|&b| b != entry);
        true
    }

    /// Tombstones the trace linked at `entry` and blacklists its
    /// `(entry, path)` key, mirroring the production cache: every entry
    /// link of the trace is removed, only the faulting entry is
    /// blacklisted, and each earlier quarantine at the entry doubles the
    /// cooldown (up to the cap). Returns whether anything was linked
    /// there.
    pub fn quarantine(&mut self, entry: Branch, cooldown: u32) -> bool {
        let Some(&id) = self.links.get(&entry) else {
            return false;
        };
        let earlier = self.flaps.entry(entry).or_insert(0);
        let mut cooldown = cooldown;
        if self.quirk != Some(Quirk::EscalationForgotten) {
            for _ in 0..(*earlier).min(MAX_COOLDOWN_SHIFT) {
                cooldown = cooldown.saturating_mul(2);
            }
        }
        *earlier += 1;
        if self.quirk != Some(Quirk::QuarantineForgotten) {
            let path = self.traces[id]
                .as_ref()
                .expect("linked trace is live")
                .0
                .clone();
            self.quarantined.insert(entry, (path, cooldown.max(1)));
        }
        for b in std::mem::take(&mut self.entry_links[id]) {
            self.links.remove(&b);
        }
        self.tombstone(id);
        true
    }

    fn tombstone(&mut self, id: usize) {
        if let Some((blocks, _)) = self.traces[id].take() {
            self.payload -= trace_cost(blocks.len());
            self.by_blocks.remove(&blocks);
        }
    }

    /// The linked `(blocks, completion)` at an entry, if any.
    pub fn lookup(&self, entry: Branch) -> Option<&(Vec<BlockId>, f64)> {
        self.links
            .get(&entry)
            .and_then(|&i| self.traces[i].as_ref())
    }

    /// The model trace id linked at an entry, if any. Ids are `traces`
    /// indices in construction order, so they coincide with production
    /// `TraceId` indices — the lockstep harness asserts that.
    pub fn lookup_id(&self, entry: Branch) -> Option<usize> {
        self.links.get(&entry).copied()
    }
}

/// The model trace constructor, transcribed from §4.2: back-track to
/// entry points, walk the maximum-likelihood path, cut by cumulative
/// completion probability.
#[derive(Debug)]
pub struct ModelConstructor {
    config: ConstructorConfig,
    generation: u64,
}

impl ModelConstructor {
    /// Creates the model constructor (same tunables as the real one).
    pub fn new(config: ConstructorConfig) -> Self {
        ModelConstructor {
            config,
            generation: 0,
        }
    }

    /// Reacts to one signal batch.
    pub fn handle_batch(
        &mut self,
        signals: &[ModelSignal],
        bcg: &mut ModelBcg,
        cache: &mut ModelCache,
    ) {
        self.generation += 1;
        for sig in signals {
            let up_to_date = bcg
                .node(sig.branch)
                .is_some_and(|n| n.generation == self.generation);
            if up_to_date {
                continue;
            }
            // A node that stopped being traceable cuts the trace through
            // it and orphans the region downstream.
            let orphans = matches!(
                sig.kind,
                SignalKind::StateChange { old, new } if old.is_traceable() && !new.is_traceable()
            );
            self.handle_one(sig.branch, orphans, bcg, cache);
        }
    }

    fn handle_one(
        &mut self,
        origin: Branch,
        orphans: bool,
        bcg: &mut ModelBcg,
        cache: &mut ModelCache,
    ) {
        let entries = self.find_entry_points(origin, orphans, bcg);
        for entry in entries {
            let (path, loop_start) = self.walk_path(entry, bcg);
            for &b in &path {
                bcg.mark_generation(b, self.generation);
            }
            self.cut_and_emit(&path, loop_start, bcg, cache);
        }
    }

    fn find_entry_points(&mut self, origin: Branch, orphans: bool, bcg: &ModelBcg) -> Vec<Branch> {
        let mut visited: HashSet<Branch> = HashSet::new();
        let mut stack = vec![origin];
        visited.insert(origin);
        let mut entries = Vec::new();
        while let Some(b) = stack.pop() {
            if entries.len() >= MAX_ENTRY_POINTS {
                break;
            }
            let node = bcg.node(b).expect("visited node exists");
            let mut has_strong_pred = false;
            for &p in &node.preds {
                if Self::is_strong_pred(bcg, p, b) {
                    has_strong_pred = true;
                    if visited.insert(p) {
                        stack.push(p);
                    }
                }
            }
            if !has_strong_pred {
                entries.push(b);
            }
        }
        if entries.is_empty() {
            entries.push(origin);
        }
        if !orphans {
            return entries;
        }
        // The region heads downstream of the origin, by the same rule: a
        // traceable, unvisited successor with no strong predecessor, whose
        // own predicted successor is traceable.
        let origin_node = bcg.node(origin).expect("signalled node exists");
        for s in &origin_node.successors {
            if entries.len() >= MAX_ENTRY_POINTS {
                break;
            }
            let b = (origin.1, s.to_block);
            let Some(node) = bcg.node(b) else {
                continue;
            };
            let predicts = node.max_successor().is_some_and(|m| {
                bcg.node((b.1, m.to_block))
                    .is_some_and(|n| n.state.is_traceable())
            });
            if node.state.is_traceable()
                && predicts
                && !visited.contains(&b)
                && !node.preds.iter().any(|&p| Self::is_strong_pred(bcg, p, b))
            {
                visited.insert(b);
                entries.push(b);
            }
        }
        entries
    }

    /// Whether `p` is traceable and predicts `b`.
    fn is_strong_pred(bcg: &ModelBcg, p: Branch, b: Branch) -> bool {
        let pn = bcg.node(p).expect("pred node exists");
        pn.state.is_traceable() && pn.max_successor().is_some_and(|s| (p.1, s.to_block) == b)
    }

    fn walk_path(&mut self, entry: Branch, bcg: &ModelBcg) -> (Vec<Branch>, Option<usize>) {
        let mut path = vec![entry];
        let mut pos_of: HashMap<Branch, usize> = HashMap::new();
        pos_of.insert(entry, 0);
        loop {
            let cur = *path.last().expect("path nonempty");
            let node = bcg.node(cur).expect("path node exists");
            if !node.state.is_traceable() {
                break;
            }
            let Some(ms) = node.max_successor() else {
                break;
            };
            if ms.count == 0 {
                break;
            }
            let next = (cur.1, ms.to_block);
            if let Some(&k) = pos_of.get(&next) {
                return (path, Some(k));
            }
            let Some(next_node) = bcg.node(next) else {
                break;
            };
            if !next_node.state.is_hot() {
                break;
            }
            path.push(next);
            pos_of.insert(next, path.len() - 1);
            if path.len() >= MAX_PATH_NODES {
                break;
            }
        }
        (path, None)
    }

    fn cut_and_emit(
        &mut self,
        path: &[Branch],
        loop_start: Option<usize>,
        bcg: &ModelBcg,
        cache: &mut ModelCache,
    ) {
        match loop_start {
            None => self.cut_chain(path, path.len(), bcg, cache),
            Some(k) => {
                let body = &path[k..];
                let copies = 1 + self.config.loop_unroll;
                let mut unrolled: Vec<Branch> = Vec::with_capacity(body.len() * copies);
                for _ in 0..copies {
                    unrolled.extend_from_slice(body);
                }
                self.cut_chain(&unrolled, body.len(), bcg, cache);
                if k > 0 {
                    self.cut_chain(&path[..=k], k, bcg, cache);
                }
            }
        }
    }

    fn cut_chain(
        &mut self,
        chain: &[Branch],
        emit_limit: usize,
        bcg: &ModelBcg,
        cache: &mut ModelCache,
    ) {
        if chain.len() < 2 {
            if let Some(&b) = chain.first() {
                cache.unlink(b);
            }
            return;
        }
        let link_prob: Vec<f64> = (0..chain.len() - 1)
            .map(|i| {
                let node = bcg.node(chain[i]).expect("chain node exists");
                node.correlation_to(chain[i + 1].1)
            })
            .collect();

        let mut i = 0;
        while i < chain.len() && i < emit_limit {
            let mut j = i;
            let mut prob = 1.0;
            while j + 1 < chain.len() && (j + 1 - i) < MAX_TRACE_BLOCKS {
                let extended = prob * link_prob[j];
                if extended < self.config.threshold {
                    break;
                }
                prob = extended;
                j += 1;
            }
            let len = j + 1 - i;
            if len >= MIN_TRACE_BLOCKS {
                let entry = chain[i];
                let blocks: Vec<BlockId> = chain[i..=j].iter().map(|b| b.1).collect();
                // Quarantine refusals tick the cooldown and install
                // nothing, exactly like the production constructor.
                let _ = cache.try_insert_and_link(entry, blocks, prob);
                i = j + 1;
            } else {
                cache.unlink(chain[i]);
                i += 1;
            }
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

    #[test]
    fn quirky_forced_decay_keeps_a_zero_edge() {
        let cfg = BcgConfig {
            decay_interval: u32::MAX,
            ..BcgConfig::default().with_start_delay(1).with_threshold(0.9)
        };
        let mut clean = ModelBcg::new(cfg);
        let mut quirky = ModelBcg::new(cfg).with_quirk(Quirk::ForcedDecayKeepsZeroEdges);
        for m in [&mut clean, &mut quirky] {
            for _ in 0..8 {
                m.observe(blk(0));
                m.observe(blk(1));
                m.observe(blk(2));
            }
            // A count-1 edge that the next decay shifts to zero.
            m.observe(blk(0));
            m.observe(blk(1));
            m.observe(blk(3));
            m.force_decay((blk(0), blk(1)));
        }
        assert_eq!(clean.node((blk(0), blk(1))).unwrap().successors.len(), 1);
        assert_eq!(quirky.node((blk(0), blk(1))).unwrap().successors.len(), 2);
    }

    /// Quarantines the trace at `entry` `repeats + 1` times, waiting out
    /// each cooldown and re-admitting in between; returns the cooldown
    /// each quarantine blacklisted the key for.
    fn repeat_quarantines(cache: &mut ModelCache, repeats: u32) -> Vec<u32> {
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        assert!(cache.try_insert_and_link(entry, path.clone(), 0.99));
        let mut cooldowns = Vec::new();
        for n in 0..=repeats {
            assert!(cache.quarantine(entry, 4), "quarantine {n}");
            let left = cache.quarantine_list();
            assert_eq!(left.len(), 1);
            cooldowns.push(left[0].2);
            while !cache.try_insert_and_link(entry, path.clone(), 0.99) {}
            assert_eq!(cache.lookup_id(entry), Some(n as usize + 1), "fresh id");
        }
        cooldowns
    }

    #[test]
    fn model_quarantine_escalation_doubles_to_the_cap() {
        let got = repeat_quarantines(&mut ModelCache::new(), 6);
        assert_eq!(got, [4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn model_quarantine_escalation_quirk_keeps_the_base_cooldown() {
        let mut quirky = ModelCache::new().with_quirk(Quirk::EscalationForgotten);
        assert_eq!(repeat_quarantines(&mut quirky, 3), [4; 4]);
    }
}
