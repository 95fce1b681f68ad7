//! Ablation: the profiler's predicted-successor inline cache (§4.1.2).
//!
//! The paper's per-dispatch cost argument assumes "most of the branches
//! are immediately predicted by the branch context's inline cache". This
//! ablation times the profiler with the inline cache enabled (fast path:
//! two comparisons) and disabled (always a successor-list scan), and
//! prints the measured hit ratios. The constructed graph is identical
//! either way — only the profiling cost changes.

use std::hint::black_box;
use trace_bench::harness::Criterion;
use trace_bench::{criterion_group, criterion_main};

use jvm_vm::Vm;
use trace_bcg::{BcgConfig, BranchCorrelationGraph};
use trace_bench::bench_scale;
use trace_workloads::registry;

fn bench_inline_cache(c: &mut Criterion) {
    let scale = bench_scale();
    let workloads = registry::all(scale);

    let mut group = c.benchmark_group("ablation_inline_cache");
    for w in &workloads {
        for (label, enabled) in [("cache_on", true), ("cache_off", false)] {
            group.bench_function(format!("{}/{label}", w.name), |b| {
                b.iter(|| {
                    let mut vm = Vm::new(&w.program);
                    let mut bcg = BranchCorrelationGraph::new(BcgConfig {
                        inline_cache: enabled,
                        ..BcgConfig::paper_default()
                    });
                    vm.run(black_box(&w.args), &mut |blk| {
                        bcg.observe(blk);
                    })
                    .unwrap();
                    black_box(bcg.stats().cache_hits)
                })
            });
        }
    }
    group.finish();

    println!("\ninline-cache hit ratios (fraction of dispatches fast-pathed):");
    for w in &workloads {
        let mut vm = Vm::new(&w.program);
        let mut bcg = BranchCorrelationGraph::new(BcgConfig::paper_default());
        vm.run(&w.args, &mut |blk| {
            bcg.observe(blk);
        })
        .unwrap();
        println!(
            "  {:10} hit ratio {:.4}  ({} nodes, {} edges)",
            w.name,
            bcg.stats().cache_hit_ratio(),
            bcg.stats().nodes_created,
            bcg.stats().edges_created,
        );
    }
}

criterion_group!(benches, bench_inline_cache);
criterion_main!(benches);
