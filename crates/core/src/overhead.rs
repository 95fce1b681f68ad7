//! Wall-clock profiling-overhead model (Tables VI and VII).
//!
//! The paper measures (a) the unmodified interpreter, (b) the interpreter
//! with the profiler code attached to every basic-block dispatch, and
//! derives the per-million-dispatch profiler cost; it then multiplies that
//! cost by the (much smaller) number of dispatches under the trace model
//! to predict the trace-dispatch overhead (§5.4). [`measure_overhead`]
//! performs exactly those steps on this machine.

use std::time::Instant;

use jvm_bytecode::Program;
use jvm_vm::{NullObserver, Value, Vm, VmError};
use trace_bcg::BranchCorrelationGraph;

use crate::config::TraceJitConfig;

/// Result of one overhead measurement (one benchmark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadMeasurement {
    /// Seconds for the unprofiled run (Table VI "No Profiler").
    pub base_seconds: f64,
    /// Seconds with the BCG profiler attached to every block dispatch
    /// (Table VI "Profiler").
    pub profiled_seconds: f64,
    /// Block dispatches executed (Table VI "# dispatches").
    pub block_dispatches: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Dispatches under the trace model: trace entries plus out-of-trace
    /// blocks (Table VII "Trace Dispatches").
    pub trace_dispatches: u64,
}

impl OverheadMeasurement {
    /// Profiler cost per dispatch, in seconds (never negative — timing
    /// jitter is clamped).
    pub fn per_dispatch_seconds(&self) -> f64 {
        if self.block_dispatches == 0 {
            return 0.0;
        }
        ((self.profiled_seconds - self.base_seconds) / self.block_dispatches as f64).max(0.0)
    }

    /// Table VI's "Overhead per 10⁶ dispatches", in seconds.
    pub fn overhead_per_million_dispatches(&self) -> f64 {
        self.per_dispatch_seconds() * 1e6
    }

    /// Block-dispatch profiling overhead as a percentage of the base run
    /// (the paper's ≈28.6% per-basic-block figure).
    pub fn block_profiling_overhead_pct(&self) -> f64 {
        if self.base_seconds == 0.0 {
            return 0.0;
        }
        ((self.profiled_seconds - self.base_seconds) / self.base_seconds * 100.0).max(0.0)
    }

    /// Table VII's "Expected Overhead": trace dispatches × per-dispatch
    /// profiler cost, in seconds.
    pub fn expected_trace_overhead_seconds(&self) -> f64 {
        self.trace_dispatches as f64 * self.per_dispatch_seconds()
    }

    /// Table VII's "% Overhead": expected trace-dispatch profiling cost
    /// relative to the base run.
    pub fn expected_trace_overhead_pct(&self) -> f64 {
        if self.base_seconds == 0.0 {
            return 0.0;
        }
        self.expected_trace_overhead_seconds() / self.base_seconds * 100.0
    }
}

/// Measures profiler overhead for one program following the paper's §5.4
/// methodology. Each timing takes the **minimum over `repeats` runs** —
/// the standard way to suppress scheduler noise for deterministic
/// workloads. `trace_dispatches` is the trace-dispatch count of a
/// [`crate::TraceVm`] run of the program under `config`.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn measure_overhead(
    program: &Program,
    args: &[Value],
    config: TraceJitConfig,
    repeats: usize,
    trace_dispatches: u64,
) -> Result<OverheadMeasurement, VmError> {
    let repeats = repeats.max(1);
    let mut vm_config = config.vm;
    vm_config.capture_output = false;

    // (a) Unmodified interpreter.
    let mut base_seconds = f64::INFINITY;
    let mut block_dispatches = 0;
    let mut instructions = 0;
    for _ in 0..repeats {
        let mut vm = Vm::with_config(program, vm_config);
        let start = Instant::now();
        vm.run(args, &mut NullObserver)?;
        base_seconds = base_seconds.min(start.elapsed().as_secs_f64());
        block_dispatches = vm.stats().block_dispatches;
        instructions = vm.stats().instructions;
    }

    // (b) Profiler attached to every block dispatch (profiler only — the
    // paper times the profiling hook, not trace construction, which it
    // shows is orders of magnitude rarer).
    let mut profiled_seconds = f64::INFINITY;
    for _ in 0..repeats {
        let mut vm = Vm::with_config(program, vm_config);
        let mut bcg = BranchCorrelationGraph::new(config.bcg_config());
        let start = Instant::now();
        vm.run(args, &mut |block| {
            bcg.observe(block);
        })?;
        profiled_seconds = profiled_seconds.min(start.elapsed().as_secs_f64());
    }

    Ok(OverheadMeasurement {
        base_seconds,
        profiled_seconds,
        block_dispatches,
        instructions,
        trace_dispatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{CmpOp, ProgramBuilder};

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
    fn derived_quantities_from_fixed_numbers() {
        let m = OverheadMeasurement {
            base_seconds: 10.0,
            profiled_seconds: 12.0,
            block_dispatches: 100_000_000,
            instructions: 500_000_000,
            trace_dispatches: 10_000_000,
        };
        assert!((m.overhead_per_million_dispatches() - 0.02).abs() < 1e-12);
        assert!((m.block_profiling_overhead_pct() - 20.0).abs() < 1e-9);
        assert!((m.expected_trace_overhead_seconds() - 0.2).abs() < 1e-9);
        assert!((m.expected_trace_overhead_pct() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn timing_jitter_is_clamped_to_zero() {
        let m = OverheadMeasurement {
            base_seconds: 10.0,
            profiled_seconds: 9.9, // jitter made the profiled run faster
            block_dispatches: 1_000,
            instructions: 1_000,
            trace_dispatches: 100,
        };
        assert_eq!(m.per_dispatch_seconds(), 0.0);
        assert_eq!(m.block_profiling_overhead_pct(), 0.0);
    }

    #[test]
    fn measure_overhead_produces_consistent_counts() {
        let p = loop_program();
        let (args, config) = (
            [Value::Int(30_000)],
            TraceJitConfig::paper_default().with_start_delay(16),
        );
        let report = crate::TraceVm::new(&p, config).run(&args).unwrap();
        let m = measure_overhead(&p, &args, config, 2, report.traces.trace_dispatches()).unwrap();
        assert!(m.base_seconds > 0.0);
        assert!(m.profiled_seconds > 0.0);
        assert!(m.block_dispatches > 30_000);
        assert!(
            m.trace_dispatches < m.block_dispatches,
            "trace model must dispatch less: {m:?}"
        );
    }
}
