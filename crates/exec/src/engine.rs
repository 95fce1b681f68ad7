//! The trace-executing virtual machine.
//!
//! [`TracingVm`] is the "fully integrated" system the paper names as its
//! next step (§6), built the way the paper builds it: the trace cache
//! lives *inside* the interpreter's dispatch loop. Out-of-trace code runs
//! on [`jvm_vm::Vm`]'s decoded loop — the engine has no interpreter of its
//! own, and the streams [`Vm::with_config`] decoded run unrewritten for
//! the VM's life, so the profiler is its only profile — with the engine
//! attached to the loop's block-dispatch hook
//! ([`jvm_vm::BlockDriver`]). At every dispatch the driver feeds the
//! profiler, handles its signals and checks the entry link; when a trace
//! is linked the loop hands over its
//! machine state and the trace runs from register-lowered, guarded
//! straight-line code ([`crate::reg`], executed by `regexec`)
//! against the *same* frame arena, with **no dispatch and no profiling
//! points inside** ("a trace dispatch executes a single profiling
//! statement, all of the inlined ones are removed", §5.4).
//!
//! Guard failures side-exit: the frame image is written back into the
//! arena, the frame's `pc` is re-anchored at the guarded instruction and
//! the loop resumes there, re-executing it with full semantics. The
//! resume point sits just *past* its block's entry marker, so the
//! block dispatch the interpreter would count on resumption is counted
//! at the exit itself. A trace that runs to its end runs its final
//! conditional branch or `goto` itself and resumes the loop on the chosen
//! successor's entry marker, so the loop makes that dispatch; any other
//! final terminator is handed back the way a guard is.
//!
//! **Loop closing.** When the branch into that successor links a trace,
//! the dispatch would only enter it, so the engine skips the dispatch:
//! the executor jumps back to the top when the trace linked there is the
//! one that just finished, and the driver's `run_trace` goes on into any
//! other (a loop whose body the profile split over several traces closes
//! through all of them). Skipping it is unobservable: the profiler,
//! re-anchored at the last block, would observe a branch whose node
//! exists (it holds the link) and neither count nor signal; nothing was
//! observed since the entry, so no signal is pending; and the cache
//! cannot change inside an execution. One *execution* — one dispatch
//! into a trace — thus runs until a guard fails or a completion finds
//! no link, and the trace counters ([`TraceExecStats`]) count
//! executions, with `loop_closings` counting the trace runs begun
//! without a dispatch.
//!
//! To the profiler a trace execution is the one dispatch that entered
//! it, both ways out: no in-trace branch outcome is observed, passed or
//! failed, and the profiler re-anchors at the block the loop resumes in —
//! the resumed block on a side exit, the trace's last block on
//! completion. Consequently the engine is
//! *semantically transparent*: it executes exactly the same instruction
//! sequence as the plain interpreter, under every configuration — a
//! property the differential tests pin down on all six workloads. A
//! trace the register lowering refuses is simply never entered.
//!
//! Retention is counted where the trace exits: each artifact slot keeps
//! the trace's run of consecutive early exits, and the exit that makes
//! it [`STREAK_LIMIT`] long quarantines the trace (see
//! [`trace_cache::health`]). A loop closing completes an iteration, so
//! it resets the streak as a completion does, and a trace is demoted
//! through the entry its last iteration came in by: its loop branch if
//! it closed, else the branch it was dispatched or gone on into at.

use jvm_bytecode::{BlockId, Program};
use jvm_vm::{BlockDriver, DecodedProgram, Machine, OutputItem, Value, Vm, VmError};
use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx, Signal};
use trace_cache::{
    HealthStats, TraceCache, TraceConstructor, TraceExecStats, TraceId, STREAK_LIMIT,
};
use trace_jit::{RunReport, TraceJitConfig};
use trace_persist::{program_hash, Snapshot, SnapshotError, SnapshotReader};

use crate::reg::{build_trace, RegStats, RegTrace};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Profiler/constructor/VM parameters (shared with the base system).
    pub jit: TraceJitConfig,
}

impl EngineConfig {
    /// Paper parameters.
    pub fn paper_default() -> Self {
        EngineConfig {
            jit: TraceJitConfig::paper_default(),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// What a warm boot ([`TracingVm::load_snapshot`]) accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmBootReport {
    /// Snapshot profile nodes merged into already-live nodes.
    pub nodes_merged: usize,
    /// Snapshot profile nodes newly created in the live profiler.
    pub nodes_created: usize,
    /// Trace objects installed from the snapshot.
    pub traces_installed: usize,
    /// Entry links live in the cache after the operation.
    pub links_installed: usize,
    /// Quarantine blacklist entries restored.
    pub quarantine_restored: usize,
    /// Trace artifacts pre-built (compiled and lowered) before serving.
    pub artifacts_prebuilt: usize,
}

/// The profile → select → trace pipeline plus the scratch state trace
/// execution needs: everything the register executor
/// ([`crate::regexec`]) touches besides the machine itself. Kept apart
/// from the artifact table so a running trace can be borrowed from the
/// table while the executor mutates this.
#[derive(Debug)]
pub(crate) struct Jit<'p> {
    pub(crate) program: &'p Program,
    pub(crate) bcg: BranchCorrelationGraph,
    constructor: TraceConstructor,
    pub(crate) cache: TraceCache,
    /// Reusable signal drain buffer: the dispatch hook never allocates.
    signal_buf: Vec<Signal>,
    pub(crate) trace_stats: TraceExecStats,
    /// Reusable register file for trace execution: grown per trace on
    /// entry, recycled across entries so the hot path never allocates.
    pub(crate) reg_file: Vec<Value>,
}

impl Jit<'_> {
    /// The trace linked at branch node `n`: a version compare, no
    /// hashing (the slot revalidates on a version bump).
    #[inline]
    pub(crate) fn linked_at(&mut self, n: NodeIdx) -> Option<TraceId> {
        self.cache.lookup_entry_cached(&mut self.bcg, n)
    }

    /// Drains pending profiler signals into the constructor, which
    /// updates the cache inline.
    #[inline]
    fn dispatch_signals(&mut self) {
        if self.bcg.has_signals() {
            self.handle_signals();
        }
    }

    #[cold]
    fn handle_signals(&mut self) {
        self.bcg.drain_signals_into(&mut self.signal_buf);
        self.constructor
            .handle_batch(&self.signal_buf, &mut self.bcg, &mut self.cache);
    }
}

/// A trace linked at a block dispatch: what [`Driver::on_block`] hands
/// the loop and gets back in [`Driver::run_trace`].
#[derive(Debug, Clone, Copy)]
struct Linked {
    tid: TraceId,
    entry: Branch,
}

/// What this VM knows about one trace id's executable form. Once
/// resolved the answer is permanent — ids are never reused and a trace's
/// lowered form never changes — so a slot never revalidates; the one
/// transition left is `Built → Refused` when the trace is tombstoned
/// ([`Driver::retire`]), which frees its lowered code.
#[derive(Debug, Default)]
enum Artifact {
    /// Not resolved yet: built at the trace's first entry, or by a warm
    /// boot.
    #[default]
    Unbuilt,
    /// No artifact, ever: the chain stopped matching the program flow,
    /// or the register lowering refused it. The trace is never entered.
    Refused,
    /// The lowered trace and its current run of consecutive early exits
    /// — the retention rule's one counter.
    Built(RegTrace, u32),
}

/// The engine's side of the loop's dispatch hook.
#[derive(Debug)]
struct Driver<'p> {
    jit: Jit<'p>,
    /// Artifact of every trace id this VM has resolved, indexed by
    /// [`TraceId::index`] (ids are dense); slots past the end are
    /// [`Artifact::Unbuilt`].
    arts: Vec<Artifact>,
    reg_stats: RegStats,
}

impl BlockDriver for Driver<'_> {
    type Trace = Linked;

    /// One dispatch per basic block: profiler hook, signal handling,
    /// then the trace-entry check. Inlined into the loop
    /// on measurement: out of line, the never-entering engine costs
    /// 1.3–1.4× the loop + `bcg.observe` instead of 1.1–1.2×
    /// (EXPERIMENTS.md, "One loop, one frame arena").
    #[inline]
    fn on_block(&mut self, bid: BlockId) -> Option<Linked> {
        let jit = &mut self.jit;
        let node = jit.bcg.observe(bid);
        jit.dispatch_signals();
        // Entry check through the branch node's trace-link slot. (The
        // first block of a stream has no branch, hence no node and no
        // entry.) Signals were just handled, so a trace built by this
        // very dispatch is immediately enterable — the slot revalidates
        // on the version bump.
        let linked = node.and_then(|n| {
            let tid = jit.linked_at(n)?;
            Some(Linked {
                tid,
                entry: jit.bcg.node(n).branch(),
            })
        });
        if linked.is_none() {
            jit.trace_stats.blocks_outside += 1;
        }
        linked
    }

    /// One execution: the dispatched trace, and every trace a completion
    /// goes on into through the link at the branch it leaves by.
    fn run_trace(&mut self, linked: Linked, m: &mut Machine<'_>) -> Result<(), VmError> {
        let Linked { mut tid, mut entry } = linked;
        let mut dispatched = true;
        // The execution's blocks and instructions, over all its traces.
        let (mut blocks, mut instrs) = (0, 0);
        let side_exited = loop {
            if matches!(self.arts.get(tid.index()), Some(Artifact::Unbuilt) | None) {
                self.resolve_artifact(tid, m.decoded);
            }
            let Some(Artifact::Built(rt, streak)) = self.arts.get_mut(tid.index()) else {
                if dispatched {
                    // A linked trace without an artifact: its block runs
                    // in the loop.
                    self.jit.trace_stats.blocks_outside += 1;
                    return Ok(());
                }
                // The last trace handed back on this block's marker, and
                // the loop dispatches it.
                break false;
            };
            if dispatched {
                if self.jit.trace_stats.first_entry_dispatch == 0 {
                    // Warm-up marker: how many block dispatches this run
                    // paid before the very first trace entry.
                    self.jit.trace_stats.first_entry_dispatch = m.stats.block_dispatches;
                }
                self.jit.trace_stats.entered += 1;
            } else {
                // Step over the marker the last trace handed back on, as
                // the skipped dispatch would.
                m.arena.top_mut().pc += 1;
                self.jit.trace_stats.loop_closings += 1;
            }
            // The retention rule: a completion resets the streak, any
            // early exit — the entry guard's included — extends it, and
            // the exit that makes it `STREAK_LIMIT` long quarantines the
            // trace. Every loop closing completed an iteration, and the
            // next iteration came in over the loop branch: that is the
            // entry to demote.
            let run = self.jit.execute(rt, tid, m)?;
            blocks += run.blocks;
            instrs += run.instrs;
            if run.closings > 0 {
                *streak = 0;
                entry = rt.loop_branch();
            }
            if run.side_exited {
                *streak += 1;
                if *streak >= STREAK_LIMIT {
                    self.retire(entry, tid);
                }
                break true;
            }
            *streak = 0;
            let Some((next, via)) = run.next else {
                break false;
            };
            (tid, entry, dispatched) = (next, via, false);
        };
        let t = &mut self.jit.trace_stats;
        if side_exited {
            t.exited_early += 1;
            t.blocks_in_partial += blocks;
            t.instrs_in_partial += instrs;
        } else {
            t.completed += 1;
            t.blocks_in_completed += blocks;
            t.instrs_in_completed += instrs;
        }
        Ok(())
    }
}

impl Driver<'_> {
    /// The lowered traces this VM can dispatch.
    fn built(&self) -> impl Iterator<Item = &RegTrace> {
        self.arts.iter().filter_map(|a| match a {
            Artifact::Built(rt, _) => Some(rt),
            _ => None,
        })
    }

    /// First entry of `tid`: builds its lowered trace and records the
    /// outcome.
    #[cold]
    fn resolve_artifact(&mut self, tid: TraceId, decoded: &DecodedProgram) {
        let art = self.build_artifact(tid, decoded);
        self.install(tid, art);
    }

    /// Records the (permanent) artifact outcome for `tid`; returns
    /// whether there is an artifact.
    fn install(&mut self, tid: TraceId, art: Option<RegTrace>) -> bool {
        let built = art.is_some();
        if self.arts.len() <= tid.index() {
            self.arts.resize_with(tid.index() + 1, Artifact::default);
        }
        self.arts[tid.index()] = art.map_or(Artifact::Refused, |rt| Artifact::Built(rt, 0));
        built
    }

    /// Builds the artifact of a linked trace, folding its lowering
    /// statistics into the VM's totals.
    fn build_artifact(&mut self, tid: TraceId, decoded: &DecodedProgram) -> Option<RegTrace> {
        let blocks = self.jit.cache.trace(tid).blocks();
        let rt = build_trace(self.jit.program, decoded, tid, blocks)?;
        let s = rt.stats;
        self.reg_stats.before += s.before;
        self.reg_stats.after += s.after;
        self.reg_stats.regs += s.regs;
        self.reg_stats.eliminated += s.eliminated;
        self.reg_stats.guards_fused += s.guards_fused;
        Some(rt)
    }

    /// The retention rule's verdict on `tid`, entered at `entry`:
    /// quarantines it ([`TraceCache::demote`]) and frees the lowered code
    /// of the tombstoned trace — ids are never reused, so it can never
    /// be entered again.
    #[cold]
    fn retire(&mut self, entry: Branch, tid: TraceId) {
        if let Some(dead) = self.jit.cache.demote(entry, tid) {
            self.arts[dead.index()] = Artifact::Refused;
        }
    }
}

/// The trace-executing VM: the decoded interpreter with profiler, trace
/// cache, trace compiler and guarded trace execution attached to its
/// dispatch hook.
#[derive(Debug)]
pub struct TracingVm<'p> {
    /// The decoded interpreter: the only out-of-trace executor, and the
    /// owner of all run state (heap, frame arena, counters, output).
    vm: Vm<'p>,
    driver: Driver<'p>,
}

impl<'p> TracingVm<'p> {
    /// Assembles the engine for a program, running the one-time decode
    /// pass.
    pub fn new(program: &'p Program, config: EngineConfig) -> Self {
        let bcg = BranchCorrelationGraph::new(config.jit.bcg_config());
        TracingVm {
            vm: Vm::with_config(program, config.jit.vm),
            driver: Driver {
                jit: Jit {
                    program,
                    bcg,
                    constructor: TraceConstructor::new(config.jit.constructor_config()),
                    cache: TraceCache::new(),
                    signal_buf: Vec::new(),
                    trace_stats: TraceExecStats::default(),
                    reg_file: Vec::new(),
                },
                arts: Vec::new(),
                reg_stats: RegStats::default(),
            },
        }
    }

    /// The trace cache.
    pub fn cache(&self) -> &TraceCache {
        &self.driver.jit.cache
    }

    /// The decoded program the engine executes from.
    pub fn decoded(&self) -> &DecodedProgram {
        self.vm.decoded()
    }

    /// Aggregated register-lowering statistics over all compiled traces
    /// (registers allocated, stack ops eliminated, guards fused).
    pub fn reg_stats(&self) -> RegStats {
        self.driver.reg_stats
    }

    /// Number of lowered traces this VM can dispatch.
    pub fn compiled_count(&self) -> usize {
        self.driver.built().count()
    }

    /// Real byte footprint of all lowered traces.
    pub fn lowered_memory(&self) -> usize {
        self.driver.built().map(RegTrace::memory_estimate).sum()
    }

    /// Output captured from print intrinsics during the most recent run
    /// (when `jit.vm.capture_output` is enabled).
    pub fn output(&self) -> &[OutputItem] {
        self.vm.output()
    }

    /// The decoded interpreter the engine runs on, for reading the run
    /// state of the most recent run — counters, checksum, heap
    /// statistics — whether it returned a report or an error.
    pub fn interpreter(&self) -> &Vm<'p> {
        &self.vm
    }

    /// Retention counters of the cache: streak demotions, watched
    /// re-admissions, escalated cooldowns.
    pub fn health_stats(&self) -> HealthStats {
        self.driver.jit.cache.health_stats()
    }

    /// Machine-readable reason the runtime is running degraded, if it
    /// is. Always `None`: no configuration degrades.
    pub fn degraded_reason(&self) -> Option<&'static str> {
        None
    }

    /// Executes the program, returning the same [`RunReport`] the base
    /// system produces.
    ///
    /// # Errors
    ///
    /// Propagates runtime traps and resource limits as [`VmError`].
    pub fn run(&mut self, args: &[Value]) -> Result<RunReport, VmError> {
        // Run state is reset by the loop; profiler/cache/lowered traces
        // persist.
        let driver = &mut self.driver;
        driver.jit.bcg.begin_stream();

        let result = self.vm.run_driven(args, &mut *driver)?;

        let jit = &driver.jit;
        Ok(RunReport {
            result,
            checksum: self.vm.checksum(),
            exec: self.vm.stats(),
            profiler: jit.bcg.stats(),
            traces: jit.trace_stats,
            constructor: jit.constructor.stats(),
            cache: jit.cache.stats(),
        })
    }

    /// Serializes the VM's profile and trace-cache contents as a
    /// versioned, checksummed snapshot container (see `trace-persist`).
    pub fn snapshot(&self) -> Vec<u8> {
        let jit = &self.driver.jit;
        Snapshot::capture(program_hash(self.driver.jit.program), &jit.bcg, &jit.cache).to_bytes()
    }

    /// Warm boot: decodes a snapshot, **merges** its profile into the
    /// live profiler (saturating counter adds; deferred decay state
    /// re-enters the lazy-decay discipline clamped to the window edge,
    /// so stale counts age out at the next slow-path visit instead of
    /// pinning predictions), restores the cache contents — quarantine
    /// blacklist included — and pre-builds artifacts for every restored
    /// trace.
    ///
    /// No partial state on failure: every decode and validation error
    /// surfaces before the profiler or cache is touched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on malformed, corrupt, version-skewed or stale
    /// (wrong program hash) input.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<WarmBootReport, SnapshotError> {
        let snap = SnapshotReader::new().read(bytes, program_hash(self.driver.jit.program))?;
        // `merge_into` validates the profile image before mutating, and
        // the cache image was validated by the reader, so from here on
        // nothing fails.
        let jit = &mut self.driver.jit;
        let merge = trace_bcg::image::merge_into(&mut jit.bcg, &snap.bcg)?;
        let restore = snap.cache.restore_into(&mut jit.cache)?;
        let artifacts_prebuilt = self.prebuild_artifacts();
        Ok(WarmBootReport {
            nodes_merged: merge.nodes_merged,
            nodes_created: merge.nodes_created,
            traces_installed: restore.traces_installed,
            links_installed: restore.links_installed,
            quarantine_restored: restore.quarantine_restored,
            artifacts_prebuilt,
        })
    }

    /// Pre-builds artifacts for every linked trace that lacks one.
    /// Returns how many were built.
    fn prebuild_artifacts(&mut self) -> usize {
        let driver = &mut self.driver;
        let mut tids: Vec<TraceId> = driver
            .jit
            .cache
            .iter_links()
            .map(|(_, trace)| trace.id())
            .collect();
        tids.sort_unstable_by_key(|t| t.index());
        tids.dedup();
        let mut built = 0;
        for tid in tids {
            if matches!(driver.arts.get(tid.index()), None | Some(Artifact::Unbuilt)) {
                let art = driver.build_artifact(tid, self.vm.decoded());
                built += usize::from(driver.install(tid, art));
            }
        }
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{CmpOp, ProgramBuilder};
    use jvm_vm::{NullObserver, Vm};

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(acc).load(0).iadd().store(acc);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn engine_matches_interpreter_on_hot_loop() {
        let program = loop_program();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(20_000)], &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(20_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(engine.compiled_count() > 0, "traces must actually compile");
        assert!(report.traces.entered > 0);
        assert!(report.traces.completed + report.traces.loop_closings > 0);
    }

    #[test]
    fn engine_dispatches_far_less_than_interpreter() {
        let program = loop_program();
        let mut plain = Vm::new(&program);
        plain.run(&[Value::Int(20_000)], &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(20_000)]).unwrap();
        assert!(
            report.exec.block_dispatches * 2 < plain.stats().block_dispatches,
            "engine {} vs interpreter {}",
            report.exec.block_dispatches,
            plain.stats().block_dispatches
        );
    }

    #[test]
    fn a_self_linked_loop_closes_without_dispatching() {
        // Warm, the loop's trace is linked at its own back edge: one
        // dispatch enters it and it runs round until the loop exits.
        let program = loop_program();
        let args = [Value::Int(20_000)];
        let mut plain = Vm::new(&program);
        let want = plain.run(&args, &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let warm = engine.run(&args).unwrap().traces;
        let report = engine.run(&args).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.checksum, plain.checksum());
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        let entered = report.traces.entered - warm.entered;
        let closings = report.traces.loop_closings - warm.loop_closings;
        assert!(entered <= 3, "{entered} entries");
        // A closing repeats the whole (unrolled) trace, and an iteration
        // of the loop is two blocks: head and body.
        let back_edge = (
            BlockId::new(program.entry(), 2),
            BlockId::new(program.entry(), 1),
        );
        let tid = engine
            .cache()
            .lookup_entry(back_edge)
            .expect("back edge linked");
        let iterations = closings * engine.cache().trace(tid).blocks().len() as u64 / 2;
        assert!(
            iterations >= 19_000,
            "{closings} loop closings ran {iterations} iterations"
        );
        assert!(
            report.exec.block_dispatches < 50,
            "{} block dispatches",
            report.exec.block_dispatches
        );
    }

    #[test]
    fn side_exits_preserve_semantics() {
        // A loop whose branch flips behaviour part-way: traces built in
        // phase 1 must side-exit cleanly in phase 2.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        let second = b.new_label();
        let cont = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        // if i < 5000: acc += 1 else acc += 2  (phase change at 5000)
        b.load(0).iconst(5000).if_icmp(CmpOp::Lt, second);
        b.load(acc).iconst(2).iadd().store(acc).goto(cont);
        b.bind(second);
        b.load(acc).iconst(1).iadd().store(acc);
        b.bind(cont);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        let program = pb.build(f).unwrap();

        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(
            report.traces.exited_early > 0,
            "phase change must cause side exits"
        );
    }

    #[test]
    fn engine_handles_calls_and_virtual_dispatch() {
        let mut pb = ProgramBuilder::new();
        let am = pb.declare_function("A.step", 2, true);
        pb.function_mut(am).load(1).iconst(1).iadd().ret();
        let bm = pb.declare_function("B.step", 2, true);
        pb.function_mut(bm).load(1).iconst(2).iadd().ret();
        let f = pb.declare_function("main", 1, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, am);
        let bclass = pb.declare_class("B", Some(a), 0);
        pb.override_method(bclass, slot, bm);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            let obj = b.alloc_local();
            b.new_obj(a).store(obj);
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(obj).load(acc).invoke_virtual(slot, 2).store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(
            report.traces.completed + report.traces.loop_closings > 0,
            "call-crossing traces must run"
        );
    }

    #[test]
    fn engine_is_reusable_and_warm_cache_helps() {
        let program = loop_program();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let r1 = engine.run(&[Value::Int(5_000)]).unwrap();
        let r2 = engine.run(&[Value::Int(5_000)]).unwrap();
        assert_eq!(r1.result, r2.result);
        // The report's trace counters are the VM's lifetime totals, so
        // the warm run's own trace runs are the difference.
        let trace_runs = |t: TraceExecStats| t.entered + t.loop_closings;
        assert!(trace_runs(r2.traces) > trace_runs(r1.traces));
        // The second run starts with a warm cache: it dispatches fewer
        // blocks for the same instructions.
        assert_eq!(r2.exec.instructions, r1.exec.instructions);
        assert!(
            r2.exec.block_dispatches < r1.exec.block_dispatches,
            "warm {} vs cold {} dispatches",
            r2.exec.block_dispatches,
            r1.exec.block_dispatches
        );
    }

    #[test]
    fn switch_guards_pass_and_side_exit() {
        // A loop whose switch selector is 2 for the first phase and 0 for
        // the second: traces learn the first arm, then must side-exit.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            let c0 = b.new_label();
            let c1 = b.new_label();
            let c2 = b.new_label();
            let cont = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            // selector = (i >= 5000) ? 2 : 0
            let hi = b.new_label();
            let sw = b.new_label();
            b.load(0).iconst(5000).if_icmp(CmpOp::Ge, hi);
            b.iconst(0).goto(sw);
            b.bind(hi);
            b.iconst(2);
            b.bind(sw);
            b.table_switch(0, &[c0, c1, c2], c1);
            b.bind(c0);
            b.load(acc).iconst(1).iadd().store(acc).goto(cont);
            b.bind(c1);
            b.load(acc).iconst(10).iadd().store(acc).goto(cont);
            b.bind(c2);
            b.load(acc).iconst(100).iadd().store(acc);
            b.bind(cont);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(report.traces.completed > 0, "switch traces must complete");
        assert!(
            report.traces.exited_early > 0,
            "selector phase change must side-exit a switch guard"
        );
    }

    #[test]
    fn virtual_guard_side_exits_on_megamorphic_site() {
        // Receiver class alternates every iteration: a trace recorded for
        // one class must side-exit when the other arrives.
        let mut pb = ProgramBuilder::new();
        let am = pb.declare_function("A.v", 1, true);
        pb.function_mut(am).iconst(1).ret();
        let bm = pb.declare_function("B.v", 1, true);
        pb.function_mut(bm).iconst(2).ret();
        let f = pb.declare_function("main", 1, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, am);
        let bc = pb.declare_class("B", Some(a), 0);
        pb.override_method(bc, slot, bm);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            let oa = b.alloc_local();
            let ob = b.alloc_local();
            b.new_obj(a).store(oa);
            b.new_obj(bc).store(ob);
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            let use_b = b.new_label();
            let call = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(0).iconst(1).iand().if_i(CmpOp::Ne, use_b);
            b.load(oa).goto(call);
            b.bind(use_b);
            b.load(ob);
            b.bind(call);
            b.invoke_virtual(slot, 1).load(acc).iadd().store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(5_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(5_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
    }

    #[test]
    fn runtime_traps_inside_traces_propagate() {
        // Division by a loop-carried value that reaches zero: the trap
        // fires inside a hot (traced) loop and must surface identically.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).iconst(-5000).if_icmp(CmpOp::Le, exit);
            b.load(acc).iconst(1000).load(0).idiv().iadd().store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver);
        assert_eq!(want, Err(VmError::DivisionByZero));
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        assert_eq!(
            engine.run(&[Value::Int(10_000)]),
            Err(VmError::DivisionByZero)
        );
    }

    #[test]
    fn print_output_matches_interpreter_through_traces() {
        // Prints inside a hot (traced) loop must appear identically, in
        // order, from the engine's intrinsic handling.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, false);
        {
            let b = pb.function_mut(f);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(0).intrinsic(jvm_bytecode::Intrinsic::PrintInt);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.ret_void();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        plain.run(&[Value::Int(500)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        engine.run(&[Value::Int(500)]).unwrap();
        assert_eq!(engine.output(), plain.output());
        assert_eq!(engine.output().len(), 500);
    }

    #[test]
    fn fuel_limit_applies_inside_traces() {
        let program = loop_program();
        let mut cfg = EngineConfig::paper_default();
        cfg.jit.vm.max_steps = 50_000;
        let mut engine = TracingVm::new(&program, cfg);
        assert_eq!(
            engine.run(&[Value::Int(1_000_000)]),
            Err(VmError::OutOfFuel)
        );
    }

    #[test]
    fn lowered_traces_report_memory() {
        let program = loop_program();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        engine.run(&[Value::Int(20_000)]).unwrap();
        assert!(engine.compiled_count() > 0);
        assert!(engine.lowered_memory() > 0);
    }

    #[test]
    fn warm_boot_prebuilds_and_preserves_semantics() {
        let program = loop_program();
        let mut warm = TracingVm::new(&program, EngineConfig::paper_default());
        let want = warm.run(&[Value::Int(20_000)]).unwrap();
        assert!(warm.compiled_count() > 0);
        let bytes = warm.snapshot();

        let mut booted = TracingVm::new(&program, EngineConfig::paper_default());
        let report = booted.load_snapshot(&bytes).unwrap();
        assert!(report.nodes_created > 0, "fresh VM: every node is new");
        assert_eq!(report.nodes_merged, 0);
        assert!(report.links_installed > 0);
        assert!(
            report.artifacts_prebuilt > 0,
            "restored traces must pre-lower before serving"
        );
        let got = booted.run(&[Value::Int(20_000)]).unwrap();
        assert_eq!(got.result, want.result);
        assert_eq!(got.checksum, want.checksum);
        assert_eq!(got.exec.instructions, want.exec.instructions);
        // The warm boot pays measurably less warm-up: its first trace
        // entry lands earlier in the dispatch stream than cold start's.
        assert!(got.traces.first_entry_dispatch > 0);
        assert!(
            got.traces.first_entry_dispatch < want.traces.first_entry_dispatch,
            "warm {} vs cold {}",
            got.traces.first_entry_dispatch,
            want.traces.first_entry_dispatch
        );
        // A snapshot of a freshly booted VM round-trips canonically:
        // boot → snapshot → boot → snapshot is byte-identical.
        let mut v1 = TracingVm::new(&program, EngineConfig::paper_default());
        v1.load_snapshot(&bytes).unwrap();
        let rebytes = v1.snapshot();
        let mut v2 = TracingVm::new(&program, EngineConfig::paper_default());
        v2.load_snapshot(&rebytes).unwrap();
        assert_eq!(rebytes, v2.snapshot());
    }

    #[test]
    fn stale_and_corrupt_snapshots_are_rejected_without_state_change() {
        let program = loop_program();
        let mut warm = TracingVm::new(&program, EngineConfig::paper_default());
        warm.run(&[Value::Int(20_000)]).unwrap();
        let bytes = warm.snapshot();

        // Same shape, different constant: a different program hash.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        b.iconst(42).ret();
        let other = pb.build(f).unwrap();
        let mut vm = TracingVm::new(&other, EngineConfig::paper_default());
        assert!(matches!(
            vm.load_snapshot(&bytes),
            Err(SnapshotError::StaleProgram { .. })
        ));
        assert_eq!(vm.cache().trace_count(), 0);

        // A flipped payload byte fails the section CRC and leaves the
        // target untouched.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let mut vm = TracingVm::new(&program, EngineConfig::paper_default());
        assert!(vm.load_snapshot(&corrupt).is_err());
        assert_eq!(vm.cache().trace_count(), 0);
        assert_eq!(vm.compiled_count(), 0);
    }

    /// A hot loop whose inner branch takes its rare side on every
    /// `period`-th iteration. Blocks: 1 is the loop head, 2 the inner
    /// branch, 3 / 4 its common / rare side, 5 the back edge.
    fn rare_side_program(period: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        let rare = b.new_label();
        let cont = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(0).iconst(period).irem().if_i(CmpOp::Eq, rare);
        b.load(acc).iconst(1).iadd().store(acc).goto(cont);
        b.bind(rare);
        b.load(acc).iconst(7).ixor().store(acc);
        b.bind(cont);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn a_guard_that_exits_below_the_streak_keeps_its_trace() {
        // The rare side fails the inner guard once in ten iterations:
        // far below the streak, so the trace is never quarantined. The
        // passes run unprofiled inside the trace, so the exits must not
        // be profiled either — crediting them alone would turn the
        // guard's node `Weak` and re-plan the loop's entry shorter.
        let program = rare_side_program(10);
        let blk = |b| BlockId::new(program.entry(), b);
        let (back_edge, guard) = ((blk(5), blk(1)), (blk(1), blk(2)));
        // A threshold the common side's 90 % clears, so the constructor
        // traces through the inner branch and guards it.
        let mut cfg = EngineConfig::paper_default();
        cfg.jit = cfg.jit.with_threshold(0.85);
        let mut engine = TracingVm::new(&program, cfg);
        let mut exits = engine
            .run(&[Value::Int(20_000)])
            .unwrap()
            .traces
            .exited_early;
        let warm = engine
            .cache()
            .lookup_entry(back_edge)
            .expect("loop entry linked");
        assert!(
            engine.cache().trace(warm).blocks().contains(&blk(3)),
            "the loop trace runs through the inner guard"
        );
        for run in 0..3 {
            let r = engine.run(&[Value::Int(20_000)]).unwrap();
            assert!(
                r.traces.exited_early > exits,
                "run {run}: the guard must fail"
            );
            exits = r.traces.exited_early;
            assert_eq!(
                engine.cache().lookup_entry(back_edge),
                Some(warm),
                "run {run}: the loop entry was re-planned"
            );
            let bcg = &engine.driver.jit.bcg;
            let node = bcg.node(bcg.node_index(guard).expect("guard node"));
            assert!(
                node.state().is_traceable(),
                "run {run}: guard node turned {}",
                node.state()
            );
        }
        assert_eq!(engine.health_stats().demotions, 0);
    }
}
