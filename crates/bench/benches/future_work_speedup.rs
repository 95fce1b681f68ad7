//! Future work (§6): measured speedup from actually *executing* traces.
//!
//! The paper predicts (Table VII) that trace dispatch cuts profiling
//! overhead from ≈28.6% of a block's cost to ≈5%, and names executing
//! the traces as its next step. This bench measures that end to end on
//! each workload:
//!
//! * `interpreter` — the unmodified block-dispatch interpreter (lower
//!   bound: no profiling at all);
//! * `profiled` — the interpreter with the BCG profiler on every block
//!   dispatch (the always-profiling upper bound);
//! * `engine` — the trace-executing VM: profiler on out-of-trace
//!   dispatches only, traces run from compiled guarded code.
//!
//! The paper's claim corresponds to `engine` landing close to
//! `interpreter` and well below `profiled`.
//!
//! Scale defaults to `small`; set `TRACE_BENCH_SCALE=paper` for the full
//! runs.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use jvm_vm::{NullObserver, Vm};
use trace_bcg::BranchCorrelationGraph;
use trace_bench::parse_scale;
use trace_exec::{EngineConfig, TracingVm};
use trace_jit::TraceJitConfig;
use trace_workloads::{registry, Scale};

fn scale() -> Scale {
    std::env::var("TRACE_BENCH_SCALE")
        .ok()
        .as_deref()
        .and_then(parse_scale)
        .unwrap_or(Scale::Small)
}

fn bench_future_work(c: &mut Criterion) {
    let scale = scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("future_work_speedup");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
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
        group.bench_function(format!("{}/engine", w.name), |b| {
            // The engine keeps its trace cache across iterations,
            // modelling a warmed-up long-running VM.
            let mut engine = TracingVm::new(&w.program, EngineConfig::paper_default());
            b.iter(|| {
                let r = engine.run(black_box(&w.args)).unwrap();
                black_box(r.checksum)
            })
        });
    }
    group.finish();

    // One-shot summary: dispatch reduction.
    println!("\nfuture-work summary (warmed engine, one run each):");
    for w in &workloads {
        let mut plain = Vm::new(&w.program);
        plain.run(&w.args, &mut NullObserver).unwrap();
        let interpreter_dispatches = plain.stats().block_dispatches;

        let mut engine = TracingVm::new(&w.program, EngineConfig::paper_default());
        let _ = engine.run(&w.args).unwrap(); // warm the cache
        let r = engine.run(&w.args).unwrap();
        println!(
            "  {:10} dispatches {:>9} (interpreter {:>9}, {:>5.2}x fewer)  completion {:>6.2}%",
            w.name,
            r.exec.block_dispatches,
            interpreter_dispatches,
            interpreter_dispatches as f64 / r.exec.block_dispatches.max(1) as f64,
            100.0 * r.completion_rate(),
        );
    }
}

criterion_group!(benches, bench_future_work);
criterion_main!(benches);
