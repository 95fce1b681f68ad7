//! Tables I–V: the trace-quality sweeps.
//!
//! Prints the five metric tables (trace length, coverage, completion
//! rate, signal rate, event interval) exactly as `paper_tables` does,
//! and times the underlying measurement — one full trace-VM run at the
//! paper's chosen parameters (97% threshold, delay 64) — per workload.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use trace_bench::{bench_scale, named_delay_sweeps, named_threshold_sweeps};
use trace_jit::experiment::run_point;
use trace_jit::{tables, TraceJitConfig};
use trace_workloads::registry;

fn bench_tables(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("tables_1_to_5");
    for w in &workloads {
        group.bench_function(format!("{}/run_point_97", w.name), |b| {
            b.iter(|| {
                let r = run_point(
                    &w.program,
                    black_box(&w.args),
                    TraceJitConfig::paper_default(),
                )
                .unwrap();
                black_box(r.coverage_completed())
            })
        });
    }
    group.finish();

    println!("\n# regenerating Tables I-V at {scale:?} scale…");
    let sweeps = named_threshold_sweeps(scale, None);
    println!("{}", tables::table1_trace_length(&sweeps).render());
    println!("{}", tables::table2_coverage(&sweeps).render());
    println!("{}", tables::table3_completion(&sweeps).render());
    println!("{}", tables::table4_signal_rate(&sweeps).render());
    let delays = named_delay_sweeps(scale, None);
    println!("{}", tables::table5_event_interval(&delays).render());
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
