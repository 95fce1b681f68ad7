//! Table VI: profiler overhead per basic-block dispatch.
//!
//! Times the interpreter with and without the profiler attached to every
//! block dispatch — the two columns of Table VI — and prints the derived
//! per-million-dispatch overhead table.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use jvm_vm::{NullObserver, Vm};
use trace_bcg::BranchCorrelationGraph;
use trace_bench::{bench_scale, overhead_rows};
use trace_jit::{tables, TraceJitConfig};
use trace_workloads::registry;

fn bench_profiler_overhead(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("table6_profiler_overhead");
    for w in &workloads {
        group.bench_function(format!("{}/no_profiler", w.name), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&w.program);
                vm.run(black_box(&w.args), &mut NullObserver).unwrap();
                black_box(vm.stats().block_dispatches)
            })
        });
        group.bench_function(format!("{}/profiler", w.name), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&w.program);
                let mut bcg =
                    BranchCorrelationGraph::new(TraceJitConfig::paper_default().bcg_config());
                vm.run(black_box(&w.args), &mut |blk| {
                    bcg.observe(blk);
                })
                .unwrap();
                black_box(bcg.stats().dispatches)
            })
        });
    }
    group.finish();

    let rows = overhead_rows(scale, 3, None);
    println!("\n{}", tables::table6_profiler_overhead(&rows).render());
}

criterion_group!(benches, bench_profiler_overhead);
criterion_main!(benches);
