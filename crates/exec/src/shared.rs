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
    construction_channel, run_constructor_service, BuilderStats, ConstructionQueue,
    ConstructionReceiver, FaultPlan, SharedTraceCache, TraceId,
};

use crate::engine::EngineConfig;
use crate::reg::{build_trace, RegTrace};

/// The shared cache type every concurrent VM dispatches against.
pub type SharedCache = SharedTraceCache<RegTrace>;

/// One VM's handle onto a shared session: the cache plus the sending
/// side of the construction queue. Cloned once per worker VM.
#[derive(Clone)]
pub struct SharedSession {
    /// The shared trace cache.
    pub cache: Arc<SharedCache>,
    /// Sending side of the construction queue; it also carries the
    /// service's health gauges ([`ConstructionQueue::health`]).
    pub queue: ConstructionQueue,
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

    /// Attaches a fault plan to the whole deployment, first call wins:
    /// the cache (corrupt artifacts, failed budget checks), the channel
    /// (dropped and duplicated batches) and the construction service
    /// (killed workers).
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        self.cache.set_faults(Arc::clone(&plan));
        self.queue.set_faults(plan);
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
pub fn shared_session() -> (Arc<SharedCache>, SharedSession, ConstructionReceiver) {
    let cache = Arc::new(SharedCache::new());
    let (queue, rx) = construction_channel();
    let session = SharedSession {
        cache: Arc::clone(&cache),
        queue,
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
///
/// The service is supervised ([`trace_cache::run_constructor_service`]):
/// a worker panic, real or injected by the session's fault plan, is
/// absorbed and the worker restarted, up to [`trace_cache::MAX_RESTARTS`]
/// times; the next panic marks the service permanently degraded, and
/// every dispatcher falls back to interpreter-only execution — slower,
/// never wrong.
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
        let (cache, session, rx) = shared_session();
        let health = Arc::clone(session.queue.health());
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
        let hs = health.snapshot();
        assert!(
            hs.panics == 0 && !hs.degraded,
            "constructor panicked: {hs:?}"
        );

        // Warm pass: joining the service is a happens-before for every
        // published trace, so a fresh VM against the populated cache must
        // dispatch them. Its queue is disconnected — submits fail and
        // defer into the profiler, which is the degradation contract.
        let (_, mut warm_session, dead_rx) = shared_session();
        drop(dead_rx);
        warm_session.cache = Arc::clone(&cache);
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
        let (cache, session, rx) = shared_session();
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut vm = TracingVm::new_shared(&program, config, session.clone());
            results.push(vm.run(&[Value::Int(40_000)]).unwrap().result);
        }
        assert_eq!(results[0], results[1]);
        let health = Arc::clone(session.queue.health());
        drop(session);
        let built = run_shared_constructor(rx, &cache, &program, config);
        assert!(
            built.constructor.traces_created > 0,
            "first VM's chains must build"
        );
        let hs = health.snapshot();
        assert!(
            hs.panics == 0 && !hs.degraded,
            "constructor panicked: {hs:?}"
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
        let (_cache, session, rx) = shared_session();
        drop(rx); // no constructor ever ran
        session.queue.health().mark_degraded();
        let health = Arc::clone(session.queue.health());
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
    /// deadlocks. A run of this program submits two batches, and a killed
    /// batch is never re-raised, so the test queues `MAX_RESTARTS` batches
    /// of its own first: the VM's first batch is then the one that finds
    /// the restarts exhausted.
    #[test]
    fn constructor_killed_mid_run_degrades_but_results_match() {
        use trace_bcg::{BcgConfig, BranchCorrelationGraph};
        use trace_cache::{BcgSnapshot, FaultConfig, FaultPlan, MAX_RESTARTS};
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let (cache, session, rx) = shared_session();
        session.set_faults(Arc::new(FaultPlan::new(
            11,
            FaultConfig::constructor_killer(),
        )));
        let health = Arc::clone(session.queue.health());
        let empty = BranchCorrelationGraph::new(BcgConfig::default());
        for _ in 0..MAX_RESTARTS {
            assert!(session.queue.submit(BcgSnapshot::capture(&empty, &[])));
        }

        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(40_000)], &mut NullObserver).unwrap();
        let report = std::thread::scope(|s| {
            let c = Arc::clone(&cache);
            let p = &program;
            let svc = s.spawn(move || run_shared_constructor(rx, &c, p, config));
            let report = {
                let mut vm = TracingVm::new_shared(&program, config, session);
                vm.run(&[Value::Int(40_000)]).unwrap()
            }; // dropping the session also ends the service if it never degraded
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
        assert!(hs.degraded, "the VM's batch exhausts the restarts: {hs:?}");
        assert_eq!(hs.restarts, MAX_RESTARTS);
        assert_eq!(hs.panics, MAX_RESTARTS + 1);
    }

    /// A trace that side-exits at entry on every dispatch — its path no
    /// longer matches the program flow — is quarantined by the retention
    /// streak, so dispatch stops paying for it.
    #[test]
    fn repeated_immediate_entry_exits_quarantine_the_trace() {
        let program = loop_program();
        let config = EngineConfig::paper_default();
        let blk = |b: u32| BlockId::new(program.entry(), b);
        let (cache, session, _rx) = shared_session();
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
        let (cache, session, _rx) = shared_session();
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
