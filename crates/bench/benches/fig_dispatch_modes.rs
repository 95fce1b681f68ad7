//! Figures 1–2: the three dispatch models.
//!
//! The paper's Figure 1 shows a plain interpreter dispatching one
//! *instruction* at a time, Figure 2 a direct-threaded-inlining
//! interpreter dispatching one *basic block* at a time; the trace cache
//! then dispatches one *trace* at a time. This bench times the actual
//! interpreter under (a) no observer, (b) the attached profiler, and
//! (c) the full trace system, and prints the dispatch-count table that
//! regenerates the figures' content.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use jvm_vm::{NullObserver, Vm};
use trace_bcg::BranchCorrelationGraph;
use trace_bench::bench_scale;
use trace_jit::{tables, TraceJitConfig, TraceVm};
use trace_workloads::registry;

fn bench_dispatch_modes(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("fig_dispatch_modes");
    for w in &workloads {
        group.bench_function(format!("{}/interpreter", w.name), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&w.program);
                vm.run(black_box(&w.args), &mut NullObserver).unwrap();
                black_box(vm.checksum())
            })
        });
        group.bench_function(format!("{}/profiled", w.name), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&w.program);
                let mut bcg =
                    BranchCorrelationGraph::new(TraceJitConfig::paper_default().bcg_config());
                vm.run(black_box(&w.args), &mut |blk| {
                    bcg.observe(blk);
                })
                .unwrap();
                black_box(vm.checksum())
            })
        });
        group.bench_function(format!("{}/trace_vm", w.name), |b| {
            b.iter(|| {
                let mut tvm = TraceVm::new(&w.program, TraceJitConfig::paper_default());
                let r = tvm.run(black_box(&w.args)).unwrap();
                black_box(r.checksum)
            })
        });
    }
    group.finish();

    // Print the figure's dispatch-count table once.
    let rows = trace_bench::dispatch_rows(scale, None);
    println!("\n{}", tables::fig_dispatch_modes(&rows).render());
}

criterion_group!(benches, bench_dispatch_modes);
criterion_main!(benches);
