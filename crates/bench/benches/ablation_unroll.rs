//! Ablation: the loop unroll factor (§4.2's "unrolled once" rule).
//!
//! When the maximum-likelihood path ends in a loop, the paper unrolls it
//! once and cuts the result by the completion threshold. Because an
//! unrolled loop trace is bounded by `(1 + unroll) × body`, the rule
//! directly caps Table I's average trace lengths. This ablation sweeps
//! the unroll factor (0 = bare body, 1 = paper, 2, 4) and reports trace
//! length, completion rate, and coverage — quantifying the
//! length-vs-completion trade-off the paper's choice sits on.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use trace_bench::bench_scale;
use trace_jit::experiment::run_point;
use trace_jit::TraceJitConfig;
use trace_workloads::registry;

const UNROLLS: [usize; 4] = [0, 1, 2, 4];

fn bench_unroll(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("ablation_unroll");
    for w in &workloads {
        for unroll in UNROLLS {
            group.bench_function(format!("{}/unroll_{unroll}", w.name), |b| {
                b.iter(|| {
                    let r = run_point(
                        &w.program,
                        black_box(&w.args),
                        TraceJitConfig::paper_default().with_loop_unroll(unroll),
                    )
                    .unwrap();
                    black_box(r.avg_trace_length())
                })
            });
        }
    }
    group.finish();

    println!("\nunroll ablation (avg trace length / completion rate / coverage):");
    print!("{:>12}", "unroll");
    for w in &workloads {
        print!("{:>26}", w.name);
    }
    println!();
    for unroll in UNROLLS {
        print!("{:>12}", unroll);
        for w in &workloads {
            let r = run_point(
                &w.program,
                &w.args,
                TraceJitConfig::paper_default().with_loop_unroll(unroll),
            )
            .unwrap();
            print!(
                "{:>26}",
                format!(
                    "{:.1} / {:.1}% / {:.0}%",
                    r.avg_trace_length(),
                    100.0 * r.completion_rate(),
                    100.0 * r.coverage_completed()
                )
            );
        }
        println!();
    }
}

criterion_group!(benches, bench_unroll);
criterion_main!(benches);
