//! The legs a program is timed on. Each lane owns one way of running a
//! program — the full engine, an interpreter, or a rung of the ladder —
//! and is either long-lived (built once, in the warm-up rounds) or reset
//! before every run, in which case construction is inside the timed
//! region. Every call into a layer goes through the [`Tracer`].
//!
//! API surface (kept narrow so tiers and knobs can be deleted without
//! editing the benchmark): the engine lane uses `TracingVm::new`, `run`,
//! `load_snapshot` and read-only accessors with the default configuration;
//! the interpreter lanes use `jvm_vm::{Vm, BlockCounts, FusionConfig}`;
//! the ladder uses `BranchCorrelationGraph`, `TraceConstructor` and
//! `TraceCache` directly.

use jvm_bytecode::Program;
use jvm_vm::{BlockCounts, FusionConfig, NullObserver, Value, Vm};
use trace_bcg::{BranchCorrelationGraph, Signal};
use trace_cache::{TraceCache, TraceConstructor};
use trace_exec::{EngineConfig, TracingVm};

use crate::counters::{run_counts, Counts, Lifetime};
use crate::oracle::{Expected, Observed, Tally};
use crate::tracer::Tracer;

/// The product's default engine, with print capture off so output
/// buffering does not pollute timings. The only field ever changed.
pub fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.jit.vm.capture_output = false;
    cfg
}

/// The full `TracingVm`, optionally booted from a snapshot.
pub struct EngineLane<'p> {
    program: &'p Program,
    boot: Option<&'p [u8]>,
    vm: Option<TracingVm<'p>>,
    before: Lifetime,
    /// What the runs since the last [`Self::clear_counts`] did.
    pub counts: Counts,
    /// `first_entry_dispatch` of each run that was the first of a VM's life.
    pub first_entries: Vec<u64>,
    /// Artifacts `load_snapshot` pre-built, summed over boots.
    pub prebuilt: u64,
}

impl<'p> EngineLane<'p> {
    pub fn new(program: &'p Program, boot: Option<&'p [u8]>) -> Self {
        EngineLane {
            program,
            boot,
            vm: None,
            before: Lifetime::default(),
            counts: Counts::default(),
            first_entries: Vec::new(),
            prebuilt: 0,
        }
    }

    /// Drops the VM; the next run builds (and boots) a fresh one inside
    /// its timed region.
    pub fn reset(&mut self) {
        self.vm = None;
        self.before = Lifetime::default();
    }

    pub fn clear_counts(&mut self) {
        self.counts = Counts::default();
        self.first_entries.clear();
        self.prebuilt = 0;
    }

    pub fn vm(&self) -> Option<&TracingVm<'p>> {
        self.vm.as_ref()
    }

    /// The VM's cumulative counters as of its last run, warm-up included.
    pub fn lifetime(&self) -> &Lifetime {
        &self.before
    }

    /// One timed run. Returns the wall ns of the whole leg.
    pub fn run(
        &mut self,
        leg: &'static str,
        args: &[Value],
        expected: &Expected,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> u64 {
        let whole = tr.begin(leg);
        let first_of_life = self.vm.is_none();
        let program = self.program;
        let boot = self.boot;
        let vm = self.vm.get_or_insert_with(|| {
            let mut vm = tr.leaf("exec.new", || TracingVm::new(program, engine_config()));
            if let Some(bytes) = boot {
                match tr.leaf("persist.load", || vm.load_snapshot(bytes)) {
                    Ok(boot_report) => {
                        tally.pass();
                        self.prebuilt += boot_report.artifacts_prebuilt as u64;
                        // Restoring counts as construction in the cache's
                        // own counters; the run's share starts after it.
                        self.before.cache = vm.cache().stats();
                    }
                    // The VM is untouched by a refused snapshot and runs cold.
                    Err(e) => tally.fail("load_snapshot", format!("{e:?}")),
                }
            }
            vm
        });
        let ran = tr.leaf("exec.run", || vm.run(args));
        let ns = tr.end(whole);

        let observed = match (&ran, vm.degraded_reason()) {
            (Err(e), _) => Err(format!("{e:?}")),
            (Ok(_), Some(reason)) => Err(format!("degraded: {reason}")),
            (Ok(r), None) => Ok(Observed {
                result: r.result,
                checksum: r.checksum,
                instructions: r.exec.instructions,
            }),
        };
        tally.check(leg, expected, observed);
        if let Ok(r) = ran {
            let health = vm.health_stats();
            self.counts += run_counts(&self.before, &r, health);
            self.before = Lifetime::of(&r, health);
            if first_of_life {
                self.first_entries.push(r.traces.first_entry_dispatch);
            }
        }
        ns
    }
}

/// A `jvm_vm::Vm`: plain decoded, or rewritten with the superinstructions
/// its own block profile selects (`tracevm --engine interp`'s best form).
pub struct InterpLane<'p> {
    program: &'p Program,
    fused: bool,
    vm: Option<Vm<'p>>,
    pub instructions: u64,
    pub block_dispatches: u64,
}

impl<'p> InterpLane<'p> {
    pub fn new(program: &'p Program, fused: bool) -> Self {
        InterpLane {
            program,
            fused,
            vm: None,
            instructions: 0,
            block_dispatches: 0,
        }
    }

    pub fn reset(&mut self) {
        self.vm = None;
    }

    pub fn clear_counts(&mut self) {
        self.instructions = 0;
        self.block_dispatches = 0;
    }

    pub fn run(
        &mut self,
        leg: &'static str,
        args: &[Value],
        expected: &Expected,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> u64 {
        let vm_config = engine_config().jit.vm;
        if self.fused && self.vm.is_none() {
            // Profile, select, rewrite: not part of any timed region. A
            // trap here shows again, and is counted, in the timed run.
            let mut vm = Vm::with_config(self.program, vm_config);
            let mut visits = BlockCounts::for_program(self.program);
            let _ = vm.run(args, &mut visits);
            vm.fuse_with_profile(visits, &FusionConfig::default());
            self.vm = Some(vm);
        }
        let whole = tr.begin(leg);
        let program = self.program;
        let vm = self
            .vm
            .get_or_insert_with(|| tr.leaf("vm.new", || Vm::with_config(program, vm_config)));
        let ran = tr.leaf("vm.run", || vm.run(args, &mut NullObserver));
        let ns = tr.end(whole);
        let stats = vm.stats();
        self.instructions += stats.instructions;
        self.block_dispatches += stats.block_dispatches;
        let observed = ran.map_err(|e| format!("{e:?}")).map(|result| Observed {
            result,
            checksum: vm.checksum(),
            instructions: stats.instructions,
        });
        tally.check(leg, expected, observed);
        ns
    }
}

/// What the upper ladder rungs add to the plain interpreter.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// L1: `bcg.observe` on every block dispatch.
    Observe,
    /// L2: L1 plus signal drain and `TraceConstructor::handle_batch` into
    /// a `TraceCache` — profile and build, never enter a trace.
    Construct,
}

struct Profiler<'p> {
    vm: Vm<'p>,
    bcg: BranchCorrelationGraph,
    constructor: TraceConstructor,
    cache: TraceCache,
}

/// A plain `Vm` with the profiler (and, at L2, the constructor and cache)
/// attached as its dispatch observer.
pub struct LadderLane<'p> {
    program: &'p Program,
    rung: Rung,
    state: Option<Profiler<'p>>,
    signals: Vec<Signal>,
    /// `handle_batch` calls since the last [`Self::clear_counts`].
    pub batches: u64,
}

impl<'p> LadderLane<'p> {
    pub fn new(program: &'p Program, rung: Rung) -> Self {
        LadderLane {
            program,
            rung,
            state: None,
            signals: Vec::new(),
            batches: 0,
        }
    }

    pub fn reset(&mut self) {
        self.state = None;
    }

    pub fn clear_counts(&mut self) {
        self.batches = 0;
    }

    /// Bytes of the branch correlation graph built so far.
    pub fn bcg_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.bcg.memory_estimate())
    }

    pub fn run(
        &mut self,
        args: &[Value],
        expected: &Expected,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> u64 {
        let leg = match self.rung {
            Rung::Observe => "ladder.observe",
            Rung::Construct => "ladder.construct",
        };
        let whole = tr.begin(leg);
        let program = self.program;
        let st = self.state.get_or_insert_with(|| {
            let jit = engine_config().jit;
            Profiler {
                vm: tr.leaf("vm.new", || Vm::with_config(program, jit.vm)),
                bcg: BranchCorrelationGraph::new(jit.bcg_config()),
                constructor: TraceConstructor::new(jit.constructor_config()),
                cache: TraceCache::new(),
            }
        });
        let Profiler {
            vm,
            bcg,
            constructor,
            cache,
        } = st;
        bcg.begin_stream();
        let signals = &mut self.signals;
        let batches = &mut self.batches;
        let ran = match self.rung {
            Rung::Observe => {
                let ran = vm.run(args, &mut |b| {
                    bcg.observe(b);
                });
                // Nobody listens at this rung; empty the queue once per
                // run so it cannot grow over a long-lived lane's rounds.
                bcg.drain_signals_into(signals);
                ran
            }
            Rung::Construct => vm.run(args, &mut |b| {
                bcg.observe(b);
                if bcg.has_signals() {
                    bcg.drain_signals_into(signals);
                    *batches += 1;
                    tr.leaf("tracecache.handle_batch", || {
                        constructor.handle_batch(signals, bcg, cache)
                    });
                }
            }),
        };
        let ns = tr.end(whole);
        let observed = ran.map_err(|e| format!("{e:?}")).map(|result| Observed {
            result,
            checksum: vm.checksum(),
            instructions: vm.stats().instructions,
        });
        tally.check(leg, expected, observed);
        ns
    }
}
