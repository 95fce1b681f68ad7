//! Lockstep comparison of the production pipeline against the model.
//!
//! A [`Lockstep`] owns both systems — the production
//! [`BranchCorrelationGraph`] + [`TraceConstructor`] + [`TraceCache`] and
//! the naive [`ModelBcg`] + [`ModelConstructor`] + [`ModelCache`] — and
//! feeds them the same dispatch stream, checking after **every event**
//! that the node just touched agrees field by field, that both sides
//! raised the same signals in the same order, and that the caches hold
//! the same links; a full-graph sweep, which also compares the whole
//! [`ProfilerStats`](trace_bcg::ProfilerStats), runs periodically and at
//! the end. The model is the profiler's only oracle.
//!
//! Two bookkeeping fields are deliberately *not* compared per event:
//! `since_decay` and `delay_remaining`. The production fast path defers
//! them behind its arming budget (they are settled at the next slow
//! visit), so their instantaneous values differ by design while every
//! observable consequence — decay timing, delay-expiry signalling,
//! states, counters — must still match exactly, and does get compared.

use jvm_bytecode::BlockId;
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx, Signal};
use trace_cache::{ConstructorConfig, TraceCache, TraceConstructor};

use crate::model::{ModelBcg, ModelCache, ModelConstructor, ModelSignal, Quirk};

/// A detected disagreement between the production pipeline and the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Dispatch-stream position (events observed before the failure).
    pub step: u64,
    /// Human-readable description of what disagreed.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence at event {}: {}", self.step, self.what)
    }
}

/// How often (in dispatch events) the full-graph sweep runs.
const SWEEP_INTERVAL: u64 = 8192;

/// The lockstep harness.
pub struct Lockstep {
    /// The production profiler under test.
    pub bcg: BranchCorrelationGraph,
    /// The production constructor under test.
    pub ctor: TraceConstructor,
    /// The production cache under test.
    pub cache: TraceCache,
    model_bcg: ModelBcg,
    model_ctor: ModelConstructor,
    model_cache: ModelCache,
    step: u64,
    last_touched: Option<NodeIdx>,
    sig_buf: Vec<Signal>,
    model_sig_buf: Vec<ModelSignal>,
    /// Rotation applied to the *next* non-empty signal batch on both
    /// sides before it reaches the constructors (chaos: signal reorder).
    pending_rotation: Option<usize>,
    /// Feed the next non-empty batch to both constructors twice
    /// (chaos: duplicated delivery — construction must be idempotent).
    duplicate_next: bool,
    batches_duplicated: u64,
}

impl Lockstep {
    /// Builds both systems from shared configurations.
    pub fn new(bcg_cfg: trace_bcg::BcgConfig, ctor_cfg: ConstructorConfig) -> Self {
        Lockstep {
            bcg: BranchCorrelationGraph::new(bcg_cfg),
            ctor: TraceConstructor::new(ctor_cfg),
            cache: TraceCache::new(),
            model_bcg: ModelBcg::new(bcg_cfg),
            model_ctor: ModelConstructor::new(ctor_cfg),
            model_cache: ModelCache::new(),
            step: 0,
            last_touched: None,
            sig_buf: Vec::new(),
            model_sig_buf: Vec::new(),
            pending_rotation: None,
            duplicate_next: false,
            batches_duplicated: 0,
        }
    }

    /// Plants a deliberate model bug (regression-test fixture). Profiler
    /// quirks land in the model BCG, cache quirks in the model cache.
    pub fn with_model_quirk(mut self, quirk: Quirk) -> Self {
        match quirk {
            Quirk::ForcedDecayKeepsZeroEdges => {
                self.model_bcg = ModelBcg::new(*self.model_bcg.config()).with_quirk(quirk);
            }
            Quirk::QuarantineForgotten | Quirk::EscalationForgotten => {
                self.model_cache = ModelCache::new().with_quirk(quirk);
            }
            Quirk::StaleSnapshotAccepted => {
                panic!(
                    "StaleSnapshotAccepted is a snapshot-reader quirk; plant it \
                     via crate::snapshot::reader_with_quirk, not the lockstep model"
                )
            }
        }
        self
    }

    /// Events observed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Schedules a rotation of the next signal batch (chaos hook). Both
    /// sides see the identical permuted order, so conformance must hold.
    pub fn rotate_next_batch(&mut self, by: usize) {
        self.pending_rotation = Some(by);
    }

    /// One dispatched block through both systems, with per-event checks.
    pub fn on_block(&mut self, block: BlockId) -> Result<(), Divergence> {
        let touched = self.bcg.observe(block);
        self.model_bcg.observe(block);
        self.step += 1;

        // The node whose counters this event bumped is the one returned
        // by the *previous* observe; the one returned now was only
        // looked up (or created). Compare both.
        if let Some(prev) = self.last_touched {
            self.compare_node(prev)?;
        }
        if let Some(cur) = touched {
            self.compare_node(cur)?;
            #[cfg(feature = "debug-invariants")]
            self.bcg.assert_node_invariants(cur);
        }
        self.last_touched = touched;

        self.pump_signals()?;

        if self.step.is_multiple_of(SWEEP_INTERVAL) {
            self.sweep()?;
        }
        Ok(())
    }

    /// Forces a decay tick on both sides (chaos perturbation), then
    /// pumps and compares the resulting signals.
    pub fn force_decay(&mut self, branch: Branch) -> Result<(), Divergence> {
        let Some(idx) = self.bcg.node_index(branch) else {
            return Ok(());
        };
        self.bcg.force_decay(idx);
        self.model_bcg.force_decay(branch);
        self.compare_node(idx)?;
        self.pump_signals()
    }

    /// Unlinks an entry on both caches (chaos: capacity pressure and
    /// mid-trace invalidation), then re-compares the caches.
    pub fn unlink(&mut self, entry: Branch) -> Result<(), Divergence> {
        self.cache.unlink(entry);
        self.model_cache.unlink(entry);
        self.compare_caches()
    }

    /// Quarantines the trace linked at `entry` on both caches (chaos:
    /// a trace faulted during execution, or rotted). Both must tombstone
    /// the trace, remove all its links, and blacklist the same `(entry,
    /// path)` key for the same — on a repeat at the entry, escalated —
    /// cooldown.
    pub fn quarantine(&mut self, entry: Branch, cooldown: u32) -> Result<(), Divergence> {
        self.cache.quarantine(entry, cooldown);
        self.model_cache.quarantine(entry, cooldown);
        self.compare_caches()
    }

    /// Feeds the next non-empty signal batch to both constructors twice
    /// (chaos: duplicated delivery). Hash-consing makes the replay
    /// idempotent, so conformance must hold.
    pub fn duplicate_next_batch(&mut self) {
        self.duplicate_next = true;
    }

    /// Batches duplicated so far via [`Self::duplicate_next_batch`].
    pub fn batches_duplicated(&self) -> u64 {
        self.batches_duplicated
    }

    /// Entry branches currently linked, in a deterministic order.
    pub fn linked_entries(&self) -> Vec<Branch> {
        let mut entries: Vec<Branch> = self.cache.iter_links().map(|(b, _)| b).collect();
        entries.sort_by_key(|(f, t)| (f.func.0, f.block, t.func.0, t.block));
        entries
    }

    /// Branches realised in the production graph, in creation order
    /// (deterministic across runs of the same stream).
    pub fn known_branches(&self) -> Vec<Branch> {
        self.bcg.iter().map(|(_, n)| n.branch()).collect()
    }

    /// Drains signals from both profilers, compares them, and feeds the
    /// (possibly chaos-rotated) batch to both constructors.
    fn pump_signals(&mut self) -> Result<(), Divergence> {
        self.bcg.drain_signals_into(&mut self.sig_buf);
        self.model_bcg.drain_signals_into(&mut self.model_sig_buf);
        if self.sig_buf.is_empty() && self.model_sig_buf.is_empty() {
            return Ok(());
        }

        let matches = self.sig_buf.len() == self.model_sig_buf.len()
            && self
                .sig_buf
                .iter()
                .zip(&self.model_sig_buf)
                .all(|(r, m)| r.branch == m.branch && r.kind == m.kind);
        if !matches {
            let real_view: Vec<ModelSignal> = self
                .sig_buf
                .iter()
                .map(|s| ModelSignal {
                    branch: s.branch,
                    kind: s.kind,
                })
                .collect();
            return Err(self.diverged(format!(
                "signal batch mismatch: production {real_view:?} vs model {:?}",
                self.model_sig_buf
            )));
        }

        if let Some(by) = self.pending_rotation.take() {
            let k = by % self.sig_buf.len();
            self.sig_buf.rotate_left(k);
            self.model_sig_buf.rotate_left(k);
        }

        let copies = if self.duplicate_next {
            self.duplicate_next = false;
            self.batches_duplicated += 1;
            2
        } else {
            1
        };

        for _ in 0..copies {
            self.ctor
                .handle_batch(&self.sig_buf, &mut self.bcg, &mut self.cache);
            self.model_ctor.handle_batch(
                &self.model_sig_buf,
                &mut self.model_bcg,
                &mut self.model_cache,
            );
        }
        self.compare_caches()
    }

    /// Field-by-field comparison of one node against its model twin.
    fn compare_node(&self, idx: NodeIdx) -> Result<(), Divergence> {
        let real = self.bcg.node(idx);
        let branch = real.branch();
        let Some(model) = self.model_bcg.node(branch) else {
            return Err(self.diverged(format!("model has no node for {branch:?}")));
        };
        if real.state() != model.state {
            return Err(self.diverged(format!(
                "{branch:?}: state {:?} vs model {:?}",
                real.state(),
                model.state
            )));
        }
        if real.executions() != model.executions {
            return Err(self.diverged(format!(
                "{branch:?}: executions {} vs model {}",
                real.executions(),
                model.executions
            )));
        }
        if real.total_weight() != model.total_weight {
            return Err(self.diverged(format!(
                "{branch:?}: total_weight {} vs model {}",
                real.total_weight(),
                model.total_weight
            )));
        }
        let real_succ: Vec<(BlockId, u16)> = real
            .successors()
            .iter()
            .map(|s| (s.to_block, s.count))
            .collect();
        let model_succ: Vec<(BlockId, u16)> = model
            .successors
            .iter()
            .map(|s| (s.to_block, s.count))
            .collect();
        if real_succ != model_succ {
            return Err(self.diverged(format!(
                "{branch:?}: successors {real_succ:?} vs model {model_succ:?}"
            )));
        }
        if real.predicted().map(|s| s.to_block) != model.predicted().map(|s| s.to_block) {
            return Err(self.diverged(format!(
                "{branch:?}: prediction {:?} vs model {:?}",
                real.predicted().map(|s| s.to_block),
                model.predicted().map(|s| s.to_block)
            )));
        }
        let real_preds: Vec<Branch> = real
            .predecessors()
            .iter()
            .map(|&p| self.bcg.node(p).branch())
            .collect();
        if real_preds != model.preds {
            return Err(self.diverged(format!(
                "{branch:?}: preds {real_preds:?} vs model {:?}",
                model.preds
            )));
        }
        Ok(())
    }

    /// Compares the full link tables and trace stores.
    fn compare_caches(&self) -> Result<(), Divergence> {
        if self.cache.link_count() != self.model_cache.link_count() {
            return Err(self.diverged(format!(
                "link count {} vs model {}",
                self.cache.link_count(),
                self.model_cache.link_count()
            )));
        }
        if self.cache.trace_count() != self.model_cache.trace_count() {
            return Err(self.diverged(format!(
                "trace count {} vs model {}",
                self.cache.trace_count(),
                self.model_cache.trace_count()
            )));
        }
        for (entry, trace) in self.cache.iter_links() {
            let Some((blocks, completion)) = self.model_cache.lookup(entry) else {
                return Err(self.diverged(format!("model has no link at {entry:?}")));
            };
            if trace.blocks() != blocks.as_slice() {
                return Err(self.diverged(format!(
                    "{entry:?}: trace {:?} vs model {blocks:?}",
                    trace.blocks()
                )));
            }
            if trace.expected_completion() != *completion {
                return Err(self.diverged(format!(
                    "{entry:?}: completion {} vs model {completion}",
                    trace.expected_completion()
                )));
            }
        }
        if self.cache.payload_bytes() != self.model_cache.payload_bytes() {
            return Err(self.diverged(format!(
                "payload bytes {} vs model {}",
                self.cache.payload_bytes(),
                self.model_cache.payload_bytes()
            )));
        }
        let real_q: Vec<(Branch, Vec<BlockId>, u32)> = self
            .cache
            .iter_quarantine()
            .map(|(b, p, r)| (b, p.to_vec(), r))
            .collect();
        let model_q = self.model_cache.quarantine_list();
        if real_q != model_q {
            return Err(self.diverged(format!("quarantine list {real_q:?} vs model {model_q:?}")));
        }
        #[cfg(feature = "debug-invariants")]
        self.cache.assert_cache_invariants();
        crate::invariants::check_link_coherence(&self.cache, &self.bcg);
        Ok(())
    }

    /// Full-graph sweep: the profiler counters and every realised node
    /// compared, caches compared, external invariants checked.
    pub fn sweep(&self) -> Result<(), Divergence> {
        if self.bcg.stats() != self.model_bcg.stats() {
            return Err(self.diverged(format!(
                "profiler stats {:?} vs model {:?}",
                self.bcg.stats(),
                self.model_bcg.stats()
            )));
        }
        if self.bcg.len() != self.model_bcg.len() {
            return Err(self.diverged(format!(
                "node count {} vs model {}",
                self.bcg.len(),
                self.model_bcg.len()
            )));
        }
        for (idx, _) in self.bcg.iter() {
            self.compare_node(idx)?;
        }
        crate::invariants::check_graph(&self.bcg);
        crate::invariants::check_cache_links(&self.cache);
        self.compare_caches()
    }

    /// Final sweep; call when the stream ends.
    pub fn finish(&mut self) -> Result<(), Divergence> {
        self.sweep()
    }

    fn diverged(&self, what: String) -> Divergence {
        Divergence {
            step: self.step,
            what,
        }
    }

    /// Runs a whole program under the interpreter, pumping every
    /// dispatched block through the lockstep check.
    pub fn run_program(
        &mut self,
        program: &jvm_bytecode::Program,
        args: &[jvm_vm::value::Value],
    ) -> Result<(), Divergence> {
        let mut vm = jvm_vm::interp::Vm::new(program);
        let mut outcome: Result<(), Divergence> = Ok(());
        {
            let mut observer = |b: BlockId| {
                if outcome.is_ok() {
                    if let Err(d) = self.on_block(b) {
                        outcome = Err(d);
                    }
                }
            };
            vm.run(args, &mut observer).expect("program runs");
        }
        outcome?;
        self.finish()
    }

    /// Runs a whole program with profile-driven superinstruction fusion
    /// applied to the decoded stream, pumping every dispatched block
    /// through the lockstep check **and** comparing the fused dispatch
    /// stream element-wise against an unfused [`ReferenceVm`] stream.
    ///
    /// The reference comparison is load-bearing: a mis-fused group that
    /// swallows a block marker feeds the production profiler and the
    /// model the *same* wrong stream, so lockstep alone stays green.
    /// Only the independent oracle stream makes that bug observable —
    /// which the planted [`FuseQuirk`](jvm_vm::fuse::FuseQuirk) test
    /// proves.
    ///
    /// [`ReferenceVm`]: jvm_vm::reference::ReferenceVm
    pub fn run_program_fused(
        &mut self,
        program: &jvm_bytecode::Program,
        args: &[jvm_vm::value::Value],
        quirk: Option<jvm_vm::fuse::FuseQuirk>,
    ) -> Result<(), Divergence> {
        // Independent oracle stream from the frozen reference VM.
        let mut reference = jvm_vm::reference::ReferenceVm::new(program);
        let mut ref_stream = jvm_vm::observer::RecordingObserver::new();
        reference
            .run(args, &mut ref_stream)
            .expect("reference runs");

        // Profiling warmup (not lockstep-checked), then the rewrite.
        let mut vm = jvm_vm::interp::Vm::new(program);
        let mut counts = jvm_vm::fuse::BlockCounts::for_program(program);
        vm.run(args, &mut counts).expect("profiling run succeeds");
        vm.fuse_with_profile(counts, &jvm_vm::fuse::FusionConfig::aggressive());
        if let Some(q) = quirk {
            assert!(
                vm.plant_fuse_quirk(q),
                "program offers no site for the planted quirk"
            );
        }

        let expected = &ref_stream.blocks;
        let mut pos = 0usize;
        let mut outcome: Result<(), Divergence> = Ok(());
        let mut step = self.step;
        {
            let mut observer = |b: BlockId| {
                if outcome.is_err() {
                    return;
                }
                step += 1;
                if expected.get(pos) != Some(&b) {
                    outcome = Err(Divergence {
                        step,
                        what: format!(
                            "fused dispatch stream diverged at position {pos}: \
                             got {b:?}, reference has {:?}",
                            expected.get(pos)
                        ),
                    });
                    return;
                }
                pos += 1;
                if let Err(d) = self.on_block(b) {
                    outcome = Err(d);
                }
            };
            vm.run(args, &mut observer).expect("fused run succeeds");
        }
        outcome?;
        if pos != expected.len() {
            return Err(self.diverged(format!(
                "fused dispatch stream ended early: {pos} of {} reference dispatches",
                expected.len()
            )));
        }
        if vm.stats() != reference.stats() {
            return Err(self.diverged(format!(
                "fused exec stats diverged: {:?} vs reference {:?}",
                vm.stats(),
                reference.stats()
            )));
        }
        if vm.checksum() != reference.checksum() {
            return Err(self.diverged(format!(
                "fused checksum {:#018x} vs reference {:#018x}",
                vm.checksum(),
                reference.checksum()
            )));
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{BlockId, FuncId};
    use trace_bcg::BcgConfig;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn harness() -> Lockstep {
        Lockstep::new(
            BcgConfig::default()
                .with_start_delay(4)
                .with_threshold(0.90),
            ConstructorConfig::default().with_threshold(0.90),
        )
    }

    #[test]
    fn loop_stream_stays_in_lockstep() {
        let mut ls = harness();
        for i in 0..4000u32 {
            for b in [0u32, 1, 2, if i % 16 == 15 { 3 } else { 2 }] {
                ls.on_block(blk(b)).expect("no divergence");
            }
        }
        ls.finish().expect("final sweep clean");
        assert!(ls.cache.link_count() > 0, "the loop should be traced");
    }

    #[test]
    fn forced_decay_stays_in_lockstep() {
        let mut ls = harness();
        for _ in 0..200 {
            for b in [0u32, 1, 2] {
                ls.on_block(blk(b)).expect("no divergence");
            }
        }
        for branch in ls.known_branches() {
            ls.force_decay(branch).expect("forced decay conforms");
        }
        ls.finish().expect("final sweep clean");
    }

    /// Random block streams under random profiler configurations: the
    /// production pipeline and the model agree on every dispatch — node
    /// fields, signal batches, links — and in the final sweep on the
    /// whole graph and every profiler counter.
    #[test]
    fn production_matches_model_on_random_streams() {
        use trace_workloads::prng::{seed_stream, Xoshiro256StarStar};
        for case in 0..24u64 {
            let seed = seed_stream(0xC0DE_5EED, case);
            let mut rng = Xoshiro256StarStar::new(seed);
            let cfg = BcgConfig {
                start_delay: rng.range_u32(1, 8),
                decay_interval: rng.range_u32(16, 64),
                ..BcgConfig::default().with_threshold(0.90)
            };
            let mut ls = Lockstep::new(cfg, ConstructorConfig::default().with_threshold(0.90));
            for _ in 0..2000 {
                ls.on_block(blk(rng.range_u32(0, 12)))
                    .unwrap_or_else(|d| panic!("seed {seed:#x}: {d}"));
            }
            ls.finish()
                .unwrap_or_else(|d| panic!("seed {seed:#x}: {d}"));
            assert!(ls.bcg.stats().cache_hits > 0, "seed {seed:#x}: no hits");
        }
    }

    #[test]
    fn fused_runs_stay_in_lockstep_on_the_workloads() {
        // Fusion on, aggressive selection: the production pipeline, the
        // model, and the unfused reference stream must all agree on
        // every dispatch of every workload.
        for w in trace_workloads::registry::all(trace_workloads::Scale::Test) {
            let mut ls = harness();
            ls.run_program_fused(&w.program, &w.args, None)
                .unwrap_or_else(|d| panic!("{}: {d}", w.name));
        }
    }

    #[test]
    fn fused_boundary_quirk_is_detected() {
        // A fused group that swallows a block marker produces the same
        // wrong stream on both lockstep sides — only the reference
        // comparison inside `run_program_fused` can see it.
        use jvm_bytecode::{CmpOp, ProgramBuilder};
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let other = b.new_label();
            let merge = b.new_label();
            b.load(0).if_i(CmpOp::Gt, other);
            b.load(0); // ends the block; falls through into `merge`
            b.bind(merge);
            b.iconst(1).iadd().ret();
            // Deep expression keeps verified max_stack above what the
            // mis-fused group pushes, so the quirk surfaces as stream
            // divergence rather than a frame overflow.
            b.bind(other);
            b.load(0).iconst(1).iconst(2).iadd().iadd().goto(merge);
        }
        let program = pb.build(f).unwrap();

        let mut ls = harness();
        let d = ls
            .run_program_fused(
                &program,
                &[jvm_vm::value::Value::Int(-3)],
                Some(jvm_vm::fuse::FuseQuirk::FuseAcrossBlockBoundary),
            )
            .expect_err("the swallowed marker must be caught");
        assert!(
            d.what.contains("fused dispatch stream") || d.what.contains("stats"),
            "unexpected divergence field: {d}"
        );
    }

    #[test]
    fn divergence_reports_step_and_field() {
        let mut ls = harness().with_model_quirk(crate::model::Quirk::ForcedDecayKeepsZeroEdges);
        // Build a node with a count-1 edge, then force a decay: the
        // quirky model keeps the zeroed edge and must be caught.
        for _ in 0..8 {
            for b in [0u32, 1, 2] {
                ls.on_block(blk(b)).expect("clean so far");
            }
        }
        for b in [0u32, 1, 3, 1] {
            ls.on_block(blk(b)).expect("clean so far");
        }
        let err = ls
            .force_decay((blk(0), blk(1)))
            .expect_err("quirk must be detected");
        // The surviving zero edge shows up either directly (successor
        // list) or through the state it derives (Unique vs Strong),
        // whichever comparison runs first.
        assert!(
            err.what.contains("successors") || err.what.contains("state"),
            "unexpected divergence field: {err}"
        );
    }
}
