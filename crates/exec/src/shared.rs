//! Shared-cache sessions: many VMs, one trace cache, one constructor.
//!
//! In the single-VM engine every piece of the pipeline lives on the
//! dispatch thread. A *shared session* splits it:
//!
//! * the [`SharedCache`] (a [`trace_cache::SharedTraceCache`] whose
//!   artifacts are [`RegTrace`]s) answers every dispatching VM from its
//!   own version-stamped link slots, and is locked only to revalidate
//!   one after a publication;
//! * construction runs on a background thread: dispatchers drain their
//!   profiler signals into a bounded [`ConstructionQueue`] as
//!   [`BcgSnapshot`]s, and [`run_shared_constructor`] plans, hash-conses
//!   and lowers on the other side;
//! * lowering runs against a private decoded copy — decoding is
//!   deterministic and register traces carry their constants inline, so
//!   a published artifact's resume pcs and block indices resolve
//!   identically in every VM.
//!
//! Degradation contract: when the queue is full the dispatcher defers
//! the drained signals back into its profiler
//! ([`trace_bcg::BranchCorrelationGraph::defer_signals`]); the next decay
//! cycle re-raises them, so a momentary burst delays construction but
//! never loses it.
//!
//! A session is **per program**: [`jvm_bytecode::BlockId`]s carry no
//! program identity, so VMs running different programs must not share a
//! cache. Each VM must also route *all* of its lookups through the one
//! session cache — the BCG trace-link stamps it writes are only
//! meaningful to the cache that stamped them.

use std::sync::Arc;

use jvm_bytecode::{BlockId, Program};
use jvm_vm::DecodedProgram;
use trace_cache::{
    construction_channel, run_constructor_service, run_supervised_constructor_service,
    BuilderStats, ConstructionQueue, ConstructionReceiver, FaultPlan, ServiceHealth,
    SharedTraceCache, SupervisorConfig, TraceId,
};

use crate::engine::EngineConfig;
use crate::reg::{build_trace, RegTrace};

/// The shared cache type every concurrent VM dispatches against.
pub type SharedCache = SharedTraceCache<RegTrace>;

/// Default bound on the construction queue (snapshot batches in flight).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Per-snapshot node cap applied when a VM captures a signal batch (see
/// [`trace_cache::BcgSnapshot::capture_bounded`]).
pub const SNAPSHOT_LIMIT: usize = 4096;

/// One VM's handle onto a shared session: the cache plus the sending
/// side of the construction queue. Cloned once per worker VM.
#[derive(Clone)]
pub struct SharedSession {
    /// The shared trace cache.
    pub cache: Arc<SharedCache>,
    /// Sending side of the construction queue.
    pub queue: ConstructionQueue,
    /// Health gauges of the (supervised) construction service.
    /// Dispatchers check [`ServiceHealth::is_degraded`] *before*
    /// capturing a snapshot, so a dead constructor stops costing capture
    /// work immediately rather than on the next failed send.
    pub health: Arc<ServiceHealth>,
}

impl SharedSession {
    /// Estimated bytes held by the whole session: the link table,
    /// hash-cons state, `Arc`'d lowered artifacts, and the snapshots
    /// currently in flight on the construction channel.
    pub fn memory_estimate(&self) -> usize {
        self.cache.memory_estimate(|a| a.memory_estimate()) + self.queue.stats().bytes
    }

    /// Bounds the cache's payload bytes (block sequences + lowered
    /// artifacts); inserts beyond the budget evict cold entry links via
    /// the cache's second-chance sweep. `None` removes the bound.
    pub fn set_cache_budget(&self, budget: Option<usize>) {
        self.cache.set_budget(budget, |a| a.memory_estimate());
    }
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("traces", &self.cache.trace_count())
            .field("links", &self.cache.link_count())
            .field("queue", &self.queue.stats())
            .finish()
    }
}

/// Everything a shared deployment needs: the cache, the per-VM session
/// template, and the receiving side to hand the constructor thread.
pub fn shared_session(
    queue_capacity: usize,
) -> (Arc<SharedCache>, SharedSession, ConstructionReceiver) {
    let cache = Arc::new(SharedCache::new());
    let (queue, rx) = construction_channel(queue_capacity);
    let session = SharedSession {
        cache: Arc::clone(&cache),
        queue,
        health: Arc::new(ServiceHealth::new()),
    };
    (cache, session, rx)
}

/// The artifact build hook for a shared cache: the engine's one build
/// path, run against a private decoded copy of the program. Returns
/// `None` — an artifact-less trace, which VMs simply keep interpreting —
/// when the block chain no longer matches the program's control flow or
/// the register lowering refuses it.
///
/// The placeholder id stamped into the artifact is never read by the
/// engine (dispatch keys artifacts by the *cache's* id); the cache's
/// hash-consing makes one artifact serve every VM that links the same
/// block chain.
pub fn artifact_builder(program: &Program) -> impl FnMut(&[BlockId]) -> Option<RegTrace> + '_ {
    let decoded = DecodedProgram::decode(program);
    move |blocks: &[BlockId]| build_trace(program, &decoded, TraceId::from_raw(u32::MAX), blocks)
}

/// Runs the construction service for a shared session until every queue
/// handle is dropped; returns the builder's counters. Spawn on a
/// background thread (e.g. inside [`std::thread::scope`]).
pub fn run_shared_constructor(
    rx: ConstructionReceiver,
    cache: &SharedCache,
    program: &Program,
    config: EngineConfig,
) -> BuilderStats {
    run_constructor_service(
        rx,
        cache,
        config.jit.constructor_config(),
        artifact_builder(program),
    )
}

/// [`run_shared_constructor`] under supervision: worker panics (real or
/// injected via `faults`) are absorbed and the worker restarted with
/// exponential backoff until `supervisor.max_restarts` is exhausted, at
/// which point `health` flips to permanently degraded, the receiver
/// drops, and every dispatcher falls back to interpreter-only execution
/// — slower, never wrong.
pub fn run_supervised_shared_constructor(
    rx: ConstructionReceiver,
    cache: &SharedCache,
    program: &Program,
    config: EngineConfig,
    supervisor: SupervisorConfig,
    health: &ServiceHealth,
    faults: Option<Arc<FaultPlan>>,
) -> BuilderStats {
    run_supervised_constructor_service(
        rx,
        cache,
        config.jit.constructor_config(),
        supervisor,
        health,
        faults,
        artifact_builder(program),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TracingVm;
    use jvm_bytecode::{CmpOp, ProgramBuilder};
    use jvm_vm::{NullObserver, Value, Vm};

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
    fn artifact_builder_lowers_connected_chains_and_rejects_broken_ones() {
        let program = loop_program();
        let blk = |b: u32| BlockId::new(program.entry(), b);
        let mut build = artifact_builder(&program);
        let art = build(&[blk(1), blk(2), blk(1)]).expect("connected chain lowers");
        assert_eq!(art.src_blocks, vec![blk(1), blk(2), blk(1)]);
        assert!(build(&[blk(0), blk(2)]).is_none(), "disconnected chain");
    }

    #[test]
    fn shared_session_matches_interpreter_semantics() {
        // One VM dispatching against a shared cache, constructor on a
        // background thread: result + checksum must match the plain
        // interpreter bit-for-bit, and traces must actually run.
        let program = loop_program();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(40_000)], &mut NullObserver).unwrap();

        // Cold pass: profile and enqueue while the service drains;
        // dropping the session disconnects the queue and the service
        // exits. Whether this VM itself enters traces is a scheduling
        // race, so only semantics are asserted here.
        let config = EngineConfig::paper_default();
        let (cache, session, rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        let cold = std::thread::scope(|s| {
            let svc = s.spawn(|| run_shared_constructor(rx, &cache, &program, config));
            let report = {
                let mut vm = TracingVm::new_shared(&program, config, session);
                vm.run(&[Value::Int(40_000)]).unwrap()
            }; // session (queue handle) dropped here → service exits
            let stats = svc.join().expect("constructor thread");
            assert!(
                stats.constructor.traces_created > 0,
                "constructor must build traces"
            );
            report
        });
        assert_eq!(cold.result, want);
        assert_eq!(cold.exec.instructions, plain.stats().instructions);
        assert!(cache.trace_count() > 0);

        // Warm pass: joining the service is a happens-before for every
        // published trace, so a fresh VM against the populated cache must
        // dispatch them. Its queue is disconnected — submits fail and
        // defer into the profiler, which is the degradation contract.
        let (queue, dead_rx) = construction_channel(1);
        drop(dead_rx);
        let warm_session = SharedSession {
            cache: Arc::clone(&cache),
            queue,
            health: Arc::new(ServiceHealth::new()),
        };
        let warm = {
            let mut vm = TracingVm::new_shared(&program, config, warm_session);
            vm.run(&[Value::Int(40_000)]).unwrap()
        };
        assert_eq!(warm.result, want);
        assert!(warm.traces.entered > 0, "shared traces must dispatch");
        assert!(
            warm.cache.links_live > 0,
            "a shared-mode report carries the shared cache's counters: {:?}",
            warm.cache
        );
    }

    #[test]
    fn two_vms_dedup_against_one_cache() {
        // Two VMs running the same workload raise identical construction
        // requests. Keeping the constructor parked until both finish
        // forces the cold case — both VMs profile and submit — and the
        // service must then hash-cons the second VM's chains into the
        // first's traces.
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let (cache, session, rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut vm = TracingVm::new_shared(&program, config, session.clone());
            results.push(vm.run(&[Value::Int(40_000)]).unwrap().result);
        }
        assert_eq!(results[0], results[1]);
        drop(session);
        let built = run_shared_constructor(rx, &cache, &program, config);
        assert!(
            built.constructor.traces_created > 0,
            "first VM's chains must build"
        );
        let stats = cache.stats();
        assert!(
            stats.traces_reused > 0,
            "second VM's identical chains must hash-cons: {stats:?}"
        );
    }

    /// Satellite regression: once the service is degraded, dispatch must
    /// stop queueing *immediately* — not on the next failed send. The
    /// queue sees zero traffic and the discards are gauged.
    #[test]
    fn degraded_service_stops_snapshot_capture_immediately() {
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let (_cache, session, rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        drop(rx); // no constructor ever ran
        session.health.mark_degraded();
        let health = Arc::clone(&session.health);
        let queue = session.queue.clone();

        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(40_000)], &mut NullObserver).unwrap();
        let report = {
            let mut vm = TracingVm::new_shared(&program, config, session);
            vm.run(&[Value::Int(40_000)]).unwrap()
        };
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        let qs = queue.stats();
        assert_eq!(
            (qs.submitted, qs.dropped),
            (0, 0),
            "degraded dispatch must never touch the queue: {qs:?}"
        );
        let hs = health.snapshot();
        assert!(hs.degraded_discards > 0, "discards must be gauged: {hs:?}");
    }

    /// Acceptance: killing the constructor mid-run degrades throughput
    /// (no traces are ever built) but never changes results or
    /// deadlocks.
    #[test]
    fn constructor_killed_mid_run_degrades_but_results_match() {
        use trace_cache::{FaultConfig, FaultPlan, SupervisorConfig};
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let (cache, session, rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        let health = Arc::clone(&session.health);
        let plan = Arc::new(FaultPlan::new(11, FaultConfig::constructor_killer()));
        let supervisor = SupervisorConfig {
            max_restarts: 0,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        };

        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(40_000)], &mut NullObserver).unwrap();
        let report = std::thread::scope(|s| {
            let h = Arc::clone(&health);
            let c = Arc::clone(&cache);
            let p = &program;
            let svc = s.spawn(move || {
                run_supervised_shared_constructor(rx, &c, p, config, supervisor, &h, Some(plan))
            });
            let report = {
                let mut vm = TracingVm::new_shared(&program, config, session);
                vm.run(&[Value::Int(40_000)]).unwrap()
            }; // dropping the session also ends the service if it never saw a batch
            let stats = svc.join().expect("supervisor must not panic");
            assert_eq!(
                stats.constructor.traces_created, 0,
                "every batch died mid-build"
            );
            report
        });
        assert_eq!(report.result, want);
        assert_eq!(report.checksum, plain.checksum());
        assert_eq!(cache.trace_count(), 0);
        let hs = health.snapshot();
        assert!(hs.panics >= 1, "the kill fault must have fired: {hs:?}");
        assert!(hs.degraded, "restarts=0 degrades on first panic: {hs:?}");
    }

    /// A trace that side-exits at entry on every dispatch — its path no
    /// longer matches the program flow — is quarantined by the retention
    /// streak, so dispatch stops paying for it.
    #[test]
    fn repeated_immediate_entry_exits_quarantine_the_trace() {
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let blk = |b: u32| BlockId::new(program.entry(), b);
        let (cache, session, _rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        // Plant the loop trace by hand. With argument 0 the loop guard
        // fails at entry (0 <= 0 exits immediately), so every dispatch
        // of this trace is an immediate side exit.
        let mut build = artifact_builder(&program);
        cache.insert_and_link_with((blk(0), blk(1)), vec![blk(1), blk(2), blk(1)], 0.99, |b| {
            build(b)
        });
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(0)], &mut NullObserver).unwrap();

        let mut vm = TracingVm::new_shared(&program, config, session);
        for run in 0..trace_cache::STREAK_LIMIT + 4 {
            let report = vm.run(&[Value::Int(0)]).unwrap();
            assert_eq!(report.result, want, "run {run}");
        }
        let stats = cache.stats();
        assert_eq!(stats.traces_quarantined, 1, "streak must quarantine");
        assert_eq!(cache.lookup_entry((blk(0), blk(1))), None);
        assert!(!cache.quarantine_snapshot().is_empty());
        // Trace-entry counters are cumulative across the VM's lifetime:
        // once quarantined, further runs must not enter any trace.
        let entered_at_quarantine = vm.run(&[Value::Int(0)]).unwrap().traces.entered;
        let report = vm.run(&[Value::Int(0)]).unwrap();
        assert_eq!(report.traces.entered, entered_at_quarantine);
    }

    /// A VM hears of the tombstones other VMs of its session make: a
    /// trace quarantined through the session cache (standing in for the
    /// other VM) loses its lowered code in every VM at their next run.
    #[test]
    fn another_vms_tombstone_frees_the_lowered_code() {
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let blk = |b: u32| BlockId::new(program.entry(), b);
        let (cache, session, _rx) = shared_session(DEFAULT_QUEUE_CAPACITY);
        // Plant the loop trace at the back edge: every iteration but the
        // first enters it.
        let entry = (blk(2), blk(1));
        let mut build = artifact_builder(&program);
        cache.insert_and_link_with(entry, vec![blk(1), blk(2), blk(1)], 0.99, |b| build(b));
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(100)], &mut NullObserver).unwrap();

        let mut vms: Vec<TracingVm> = (0..2)
            .map(|_| TracingVm::new_shared(&program, config, session.clone()))
            .collect();
        for vm in &mut vms {
            assert_eq!(vm.run(&[Value::Int(100)]).unwrap().result, want);
            assert_eq!(vm.compiled_count(), 1, "the planted trace ran");
        }
        assert!(cache.quarantine(entry, trace_cache::COOLDOWN).is_some());
        for vm in &mut vms {
            assert_eq!(vm.run(&[Value::Int(100)]).unwrap().result, want);
            assert!(
                vm.compiled_count() <= cache.live_trace_count(),
                "{} lowered traces held for {} live ones",
                vm.compiled_count(),
                cache.live_trace_count()
            );
            assert_eq!(vm.lowered_memory(), 0);
        }
    }
}
