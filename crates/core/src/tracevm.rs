//! The integrated trace-dispatching VM.

use jvm_bytecode::Program;
use jvm_vm::{Value, Vm, VmError};
use trace_bcg::BranchCorrelationGraph;
use trace_cache::{TraceCache, TraceRuntime};

use crate::config::TraceJitConfig;
use crate::report::RunReport;
use crate::selector::{BcgSelector, TraceSelector};

/// The paper's system, assembled: interpreter + trace selector + trace
/// cache + trace-dispatch monitor.
///
/// On every basic-block dispatch (the seam described in §4.1.2):
///
/// 1. the **trace runtime** checks the dispatch against the cache's
///    linked traces (entering, advancing, completing or abandoning a
///    trace);
/// 2. the **selector** sees the dispatch and may change the cache. The
///    default, [`BcgSelector`], records the branch in the correlation
///    graph and hands pending signals to the constructor, which rebuilds
///    exactly the affected region of the cache. A trace constructed *by*
///    a dispatch is therefore not entered by it.
///
/// [`TraceVm::with_selector`] runs another policy (NET, rePLay) under the
/// same monitor, so every selector's numbers are comparable.
///
/// Selector state, cache contents and metrics accumulate across runs of
/// the same `TraceVm`, modelling a long-running VM; create a fresh
/// `TraceVm` per experiment point instead.
#[derive(Debug)]
pub struct TraceVm<'p, S = BcgSelector> {
    program: &'p Program,
    config: TraceJitConfig,
    vm: Vm<'p>,
    selector: S,
    cache: TraceCache,
    runtime: TraceRuntime,
}

impl<'p> TraceVm<'p> {
    /// Assembles the paper's system (the BCG selector) for a program.
    pub fn new(program: &'p Program, config: TraceJitConfig) -> Self {
        Self::with_selector(program, config, BcgSelector::new(&config))
    }

    /// Read access to the profiler graph (e.g. for inspection examples).
    pub fn bcg(&self) -> &BranchCorrelationGraph {
        self.selector.bcg()
    }
}

impl<'p, S: TraceSelector> TraceVm<'p, S> {
    /// Assembles the system with `selector` choosing the traces. Of
    /// `config`, only `config.vm` reaches a selector other than the BCG.
    pub fn with_selector(program: &'p Program, config: TraceJitConfig, selector: S) -> Self {
        TraceVm {
            program,
            config,
            vm: Vm::with_config(program, config.vm),
            selector,
            cache: TraceCache::new(),
            runtime: TraceRuntime::new(),
        }
    }

    /// The program under execution.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The configuration in force.
    pub fn config(&self) -> &TraceJitConfig {
        &self.config
    }

    /// The selector.
    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// Read access to the trace cache.
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Executes the program and returns the combined report.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the interpreter.
    pub fn run(&mut self, args: &[Value]) -> Result<RunReport, VmError> {
        self.selector.begin_stream();
        self.runtime.begin_stream();
        let (program, selector, cache, runtime) = (
            self.program,
            &mut self.selector,
            &mut self.cache,
            &mut self.runtime,
        );
        let result = self.vm.run(args, &mut |block| {
            runtime.on_block(block, cache, program);
            selector.on_block(block, cache);
        })?;
        self.runtime.finish_stream();
        let (profiler, constructor) = self.selector.stats();
        Ok(RunReport {
            result,
            checksum: self.vm.checksum(),
            exec: self.vm.stats(),
            profiler,
            traces: self.runtime.stats(),
            constructor,
            cache: self.cache.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{CmpOp, FuncId, ProgramBuilder};
    use jvm_vm::NullObserver;

    /// sum(0..n) with a hot inner loop.
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

    /// A loop with an unpredictable branch inside (data-dependent).
    fn noisy_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        let x = b.alloc_local();
        b.iconst(0).store(acc);
        b.iconst(12345).store(x);
        let head = b.bind_new_label();
        let exit = b.new_label();
        let odd = b.new_label();
        let cont = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        // x = x * 1103515245 + 12345 (LCG); branch on bit 16.
        b.load(x)
            .iconst(1103515245)
            .imul()
            .iconst(12345)
            .iadd()
            .store(x);
        b.load(x)
            .iconst(16)
            .ishr()
            .iconst(1)
            .iand()
            .if_i(CmpOp::Ne, odd);
        b.load(acc).iconst(1).iadd().store(acc).goto(cont);
        b.bind(odd);
        b.load(acc).iconst(2).iadd().store(acc);
        b.bind(cont);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn trace_vm_result_matches_plain_vm() {
        let program = loop_program();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(500)], &mut NullObserver).unwrap();
        let mut tvm = TraceVm::new(&program, TraceJitConfig::paper_default());
        let report = tvm.run(&[Value::Int(500)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert_eq!(report.exec.block_dispatches, plain.stats().block_dispatches);
    }

    #[test]
    fn hot_loop_gets_high_coverage_and_completion() {
        let program = loop_program();
        let mut tvm = TraceVm::new(
            &program,
            TraceJitConfig::paper_default().with_start_delay(16),
        );
        let report = tvm.run(&[Value::Int(20_000)]).unwrap();
        assert!(report.cache.traces_constructed > 0, "loop must be traced");
        assert!(
            report.completion_rate() > 0.95,
            "completion {}",
            report.completion_rate()
        );
        assert!(
            report.coverage_completed() > 0.8,
            "coverage {}",
            report.coverage_completed()
        );
        assert!(report.avg_trace_length() >= 2.0);
    }

    #[test]
    fn noisy_branch_limits_trace_length_but_traces_still_complete() {
        let program = noisy_program();
        let mut tvm = TraceVm::new(
            &program,
            TraceJitConfig::paper_default().with_start_delay(16),
        );
        let report = tvm.run(&[Value::Int(50_000)]).unwrap();
        // Traces exist but cannot span the unpredictable branch, so the
        // completion rate of what *was* cached stays high.
        assert!(report.cache.traces_constructed > 0);
        assert!(
            report.completion_rate() > 0.9,
            "completion {}",
            report.completion_rate()
        );
    }

    #[test]
    fn trace_dispatch_reduces_dispatch_count() {
        let program = loop_program();
        let mut tvm = TraceVm::new(
            &program,
            TraceJitConfig::paper_default().with_start_delay(16),
        );
        let report = tvm.run(&[Value::Int(20_000)]).unwrap();
        let d = report.dispatch_counts();
        assert!(d.per_block < d.per_instruction);
        assert!(
            d.per_trace < d.per_block,
            "trace dispatch must reduce dispatches: {d:?}"
        );
        assert!(d.trace_over_block() > 1.5);
    }

    #[test]
    fn higher_threshold_means_no_lower_completion() {
        let program = noisy_program();
        let mut lo = TraceVm::new(
            &program,
            TraceJitConfig::paper_default()
                .with_threshold(0.90)
                .with_start_delay(4),
        );
        let mut hi = TraceVm::new(
            &program,
            TraceJitConfig::paper_default()
                .with_threshold(0.999)
                .with_start_delay(4),
        );
        let rl = lo.run(&[Value::Int(50_000)]).unwrap();
        let rh = hi.run(&[Value::Int(50_000)]).unwrap();
        if rl.traces.entered > 100 && rh.traces.entered > 100 {
            assert!(
                rh.completion_rate() >= rl.completion_rate() - 0.02,
                "higher threshold should not hurt completion: lo={} hi={}",
                rl.completion_rate(),
                rh.completion_rate()
            );
        }
    }

    #[test]
    fn large_delay_suppresses_tracing_of_short_runs() {
        let program = loop_program();
        let mut tvm = TraceVm::new(
            &program,
            TraceJitConfig::paper_default().with_start_delay(1 << 20),
        );
        let report = tvm.run(&[Value::Int(1_000)]).unwrap();
        assert_eq!(report.cache.traces_constructed, 0);
        assert_eq!(report.traces.entered, 0);
    }

    #[test]
    fn report_is_cumulative_across_runs() {
        let program = loop_program();
        let mut tvm = TraceVm::new(&program, TraceJitConfig::paper_default());
        let r1 = tvm.run(&[Value::Int(1_000)]).unwrap();
        let r2 = tvm.run(&[Value::Int(1_000)]).unwrap();
        assert!(r2.profiler.dispatches > r1.profiler.dispatches);
        // Second run reuses the warmed cache: more trace entries.
        assert!(r2.traces.entered >= r1.traces.entered);
    }

    /// A selector that never installs a trace: everything runs outside,
    /// and it reports no profiler or constructor counters.
    #[test]
    fn a_selector_that_builds_nothing_reports_zeros() {
        struct Null;
        impl TraceSelector for Null {
            fn on_block(&mut self, _: jvm_bytecode::BlockId, _: &mut TraceCache) {}
            fn begin_stream(&mut self) {}
        }
        let program = loop_program();
        let mut tvm = TraceVm::with_selector(&program, TraceJitConfig::paper_default(), Null);
        let report = tvm.run(&[Value::Int(100)]).unwrap();
        assert!(report.exec.instructions > 0);
        assert_eq!(report.traces.entered, 0);
        assert_eq!(report.traces.blocks_outside, report.exec.block_dispatches);
        assert_eq!(report.profiler, Default::default());
        assert_eq!(report.constructor, Default::default());
    }

    #[test]
    fn accessors_expose_components() {
        let program = loop_program();
        let mut tvm = TraceVm::new(&program, TraceJitConfig::paper_default());
        let _ = tvm.run(&[Value::Int(5_000)]).unwrap();
        assert!(!tvm.bcg().is_empty());
        assert!(tvm.cache().trace_count() > 0);
        assert_eq!(tvm.config().threshold, 0.97);
        assert_eq!(tvm.program().entry(), FuncId(0));
    }
}
