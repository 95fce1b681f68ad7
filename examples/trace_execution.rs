//! The paper's future work (§6), live: execute the traces.
//!
//! Runs a workload under three executors and compares wall time and
//! dispatch counts:
//!
//! 1. the plain block-dispatch interpreter (the lower bound);
//! 2. the same with the profiler attached (what the base system pays
//!    while profiling);
//! 3. the trace-executing engine (profiling only outside traces).
//!
//! ```text
//! cargo run --release --example trace_execution [workload]
//! ```

use std::time::Instant;

use tracecache_repro::bcg::BranchCorrelationGraph;
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, Vm};
use tracecache_repro::workloads::{registry, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "scimark".into());
    let Some(w) = registry::by_name(&name, Scale::Small) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    };
    let jit = TraceJitConfig::paper_default();
    println!("workload: {} — {}\n", w.name, w.description);

    // Plain interpreter (no profiling): the lower bound.
    let t0 = Instant::now();
    let mut plain = Vm::new(&w.program);
    plain.run(&w.args, &mut NullObserver)?;
    let plain_time = t0.elapsed();
    assert_eq!(plain.checksum(), w.expected_checksum);
    let plain_dispatches = plain.stats().block_dispatches;

    // Interpreter with the profiler on every dispatch.
    let t0 = Instant::now();
    let mut profiled = Vm::new(&w.program);
    let mut bcg = BranchCorrelationGraph::new(jit.bcg_config());
    profiled.run(&w.args, &mut |blk| {
        bcg.observe(blk);
    })?;
    let profiled_time = t0.elapsed();

    // Trace-executing engine (second run = warm cache).
    let mut engine = TracingVm::new(&w.program, EngineConfig { jit });
    engine.run(&w.args)?;
    let t0 = Instant::now();
    let report = engine.run(&w.args)?;
    let engine_time = t0.elapsed();
    assert_eq!(report.checksum, w.expected_checksum);

    println!("interpreter (no profiler) : {plain_time:>10.2?}  {plain_dispatches} dispatches");
    println!(
        "interpreter + profiler    : {profiled_time:>10.2?}  (profiling overhead {:+.1}%)",
        100.0 * (profiled_time.as_secs_f64() / plain_time.as_secs_f64() - 1.0)
    );
    println!(
        "trace-executing engine    : {engine_time:>10.2?}  {} dispatches ({:.2}x fewer)",
        report.exec.block_dispatches,
        plain_dispatches as f64 / report.exec.block_dispatches.max(1) as f64
    );
    let rs = engine.reg_stats();
    println!(
        "\nregister lowering: {} -> {} instrs, {} virtual regs, {} stack ops eliminated, {} guards fused",
        rs.before, rs.after, rs.regs, rs.eliminated, rs.guards_fused
    );
    println!(
        "trace quality in engine   : completion {:.2}%, {} traces compiled",
        100.0 * report.completion_rate(),
        engine.compiled_count()
    );
    Ok(())
}
