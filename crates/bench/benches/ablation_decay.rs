//! Ablation: periodic decay vs. cumulative counters (§3.6 / §4.1.1).
//!
//! The paper's cache-stability argument rests on decay: weighting the
//! correlation statistics toward recent behaviour lets the profiler
//! notice phase changes and rebuild exactly the affected traces. This
//! ablation runs a two-phase program under (a) the paper's decay-every-
//! 256 configuration and (b) an effectively cumulative profiler (decay
//! interval too large to ever fire), and reports trace-execution quality
//! on the phase-changing stream.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use trace_bench::phase_change_program;
use trace_jit::{TraceJitConfig, TraceVm};

fn config_with_decay(interval: u32) -> TraceJitConfig {
    let mut c = TraceJitConfig::paper_default().with_start_delay(16);
    c.decay_interval = interval;
    c
}

fn bench_decay_ablation(c: &mut Criterion) {
    let program = phase_change_program(40, 4_000);

    let mut group = c.benchmark_group("ablation_decay");
    group.bench_function("decay_256", |b| {
        b.iter(|| {
            let mut tvm = TraceVm::new(&program, config_with_decay(256));
            let r = tvm.run(black_box(&[])).unwrap();
            black_box(r.completion_rate())
        })
    });
    group.bench_function("decay_disabled", |b| {
        b.iter(|| {
            let mut tvm = TraceVm::new(&program, config_with_decay(u32::MAX));
            let r = tvm.run(black_box(&[])).unwrap();
            black_box(r.completion_rate())
        })
    });
    group.finish();

    // Report the quality difference once.
    println!("\nablation: periodic decay vs cumulative counters (two-phase workload)");
    for (name, interval) in [("decay=256 (paper)", 256u32), ("decay disabled", u32::MAX)] {
        let mut tvm = TraceVm::new(&program, config_with_decay(interval));
        let r = tvm.run(&[]).unwrap();
        println!(
            "  {name:20} completion={:.3} coverage={:.3} traces={} relinked={} signals={}",
            r.completion_rate(),
            r.coverage_incl_partial(),
            r.cache.traces_constructed,
            r.cache.links_replaced,
            r.profiler.state_signals + r.profiler.prediction_signals,
        );
    }
}

criterion_group!(benches, bench_decay_ablation);
criterion_main!(benches);
