//! Table VII: expected profiling overhead under the trace-dispatch
//! model.
//!
//! Follows the paper's §5.4 derivation: the per-dispatch profiler cost
//! from the Table VI methodology is multiplied by the (much smaller)
//! trace-model dispatch count, giving the predicted percentage overhead.
//! The bench itself times the full trace VM so the prediction can be
//! compared against a measured end-to-end run.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use trace_bench::{bench_scale, overhead_rows};
use trace_jit::{tables, TraceJitConfig, TraceVm};
use trace_workloads::registry;

fn bench_trace_dispatch(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("table7_trace_dispatch");
    for w in &workloads {
        group.bench_function(format!("{}/trace_vm", w.name), |b| {
            b.iter(|| {
                let mut tvm = TraceVm::new(&w.program, TraceJitConfig::paper_default());
                let r = tvm.run(black_box(&w.args)).unwrap();
                black_box(r.traces.trace_dispatches())
            })
        });
    }
    group.finish();

    let rows = overhead_rows(scale, 3, None);
    println!(
        "\n{}",
        tables::table7_trace_dispatch_overhead(&rows).render()
    );
}

criterion_group!(benches, bench_trace_dispatch);
criterion_main!(benches);
