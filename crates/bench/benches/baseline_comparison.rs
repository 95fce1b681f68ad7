//! Baseline comparison: BCG vs Dynamo-style NET vs rePLay-style
//! promotion (§2–§3 of the paper).
//!
//! The paper positions the branch correlation graph between Dynamo
//! (cheap, speculative, unverified tails) and rePLay (expensive,
//! hardware-assisted, fully asserted frames). This bench runs all three
//! selection policies over the six workloads with the *same* dispatch
//! monitor and prints the coverage / completion-rate trade-off the paper
//! argues qualitatively.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use trace_baselines::{run_with_selector, NetSelector, ReplaySelector};
use trace_bench::bench_scale;
use trace_jit::{experiment::run_point, TraceJitConfig};
use trace_workloads::registry;

fn bench_baselines(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("baseline_comparison");
    for w in &workloads {
        group.bench_function(format!("{}/bcg", w.name), |b| {
            b.iter(|| {
                let r = run_point(
                    &w.program,
                    black_box(&w.args),
                    TraceJitConfig::paper_default(),
                )
                .unwrap();
                black_box(r.completion_rate())
            })
        });
        group.bench_function(format!("{}/net", w.name), |b| {
            b.iter(|| {
                let mut sel = NetSelector::new();
                let r = run_with_selector(&w.program, black_box(&w.args), &mut sel).unwrap();
                black_box(r.completion_rate())
            })
        });
        group.bench_function(format!("{}/replay", w.name), |b| {
            b.iter(|| {
                let mut sel = ReplaySelector::new();
                let r = run_with_selector(&w.program, black_box(&w.args), &mut sel).unwrap();
                black_box(r.completion_rate())
            })
        });
    }
    group.finish();

    println!("\nselector comparison (coverage by completed traces / completion rate):");
    println!(
        "  {:10} {:>18} {:>18} {:>18}",
        "benchmark", "bcg", "net (dynamo)", "replay"
    );
    for w in &workloads {
        let bcg = run_point(&w.program, &w.args, TraceJitConfig::paper_default()).unwrap();
        let mut net = NetSelector::new();
        let net_r = run_with_selector(&w.program, &w.args, &mut net).unwrap();
        let mut rp = ReplaySelector::new();
        let rp_r = run_with_selector(&w.program, &w.args, &mut rp).unwrap();
        let fmt = |cov: f64, comp: f64| format!("{:.0}% / {:.1}%", cov * 100.0, comp * 100.0);
        println!(
            "  {:10} {:>18} {:>18} {:>18}",
            w.name,
            fmt(bcg.coverage_completed(), bcg.completion_rate()),
            fmt(net_r.coverage_completed(), net_r.completion_rate()),
            fmt(rp_r.coverage_completed(), rp_r.completion_rate()),
        );
    }
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
