//! Cross-crate trace-quality invariants: the headline properties the
//! paper's evaluation establishes, checked at test scale.

use tracecache_repro::bytecode::{BlockId, FuncId};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::experiment::{
    delay_sweep, run_point, threshold_sweep, PAPER_DELAYS, PAPER_THRESHOLDS,
};
use tracecache_repro::jit::{TraceJitConfig, TraceVm};
use tracecache_repro::vm::Value;
use tracecache_repro::workloads::{registry, Scale};

fn paper_cfg() -> TraceJitConfig {
    // Start delay scaled down with the Test-scale inputs so the loops get
    // hot within the shorter runs, as in the paper's delay discussion.
    TraceJitConfig::paper_default().with_start_delay(16)
}

#[test]
fn all_workloads_reach_reasonable_coverage() {
    for w in registry::all(Scale::Test) {
        let r = run_point(&w.program, &w.args, paper_cfg()).unwrap();
        assert!(
            r.coverage_completed() > 0.5,
            "{}: coverage {:.2}",
            w.name,
            r.coverage_completed()
        );
    }
}

#[test]
fn completion_rate_is_high_at_97_percent_threshold() {
    // Table III's shape: at the 97% threshold, completion must be ≥ 90%
    // everywhere (the paper reports ≥ 97% at full scale).
    for w in registry::all(Scale::Test) {
        let r = run_point(&w.program, &w.args, paper_cfg()).unwrap();
        assert!(r.traces.entered > 0, "{}: no traces entered", w.name);
        assert!(
            r.completion_rate() > 0.9,
            "{}: completion {:.3}",
            w.name,
            r.completion_rate()
        );
    }
}

#[test]
fn traces_reduce_dispatches_on_every_workload() {
    for w in registry::all(Scale::Test) {
        let r = run_point(&w.program, &w.args, paper_cfg()).unwrap();
        let d = r.dispatch_counts();
        assert!(d.per_trace < d.per_block, "{}: {d:?}", w.name);
        assert!(d.per_block < d.per_instruction, "{}: {d:?}", w.name);
    }
}

#[test]
fn threshold_sweep_produces_valid_metrics_everywhere() {
    let w = registry::raytrace(Scale::Test);
    let pts = threshold_sweep(&w.program, &w.args, &PAPER_THRESHOLDS, 16, paper_cfg()).unwrap();
    assert_eq!(pts.len(), PAPER_THRESHOLDS.len());
    for p in &pts {
        let r = &p.report;
        assert!(r.coverage_completed() >= 0.0 && r.coverage_completed() <= 1.0);
        assert!(r.coverage_incl_partial() >= r.coverage_completed());
        assert!(r.completion_rate() >= 0.0 && r.completion_rate() <= 1.0);
        assert!(r.avg_trace_length() >= 0.0);
    }
}

#[test]
fn larger_delay_increases_trace_event_interval() {
    // Table V's shape: the trace event interval grows with the start
    // delay (fewer branches become hot, fewer signals + traces).
    let w = registry::compress(Scale::Test);
    let pts = delay_sweep(
        &w.program,
        &w.args,
        &PAPER_DELAYS,
        0.97,
        TraceJitConfig::paper_default(),
    )
    .unwrap();
    let intervals: Vec<f64> = pts
        .iter()
        .map(|p| p.report.trace_event_interval())
        .collect();
    assert!(
        intervals[0] <= intervals[1] && intervals[1] <= intervals[2],
        "event interval must grow with delay: {intervals:?}"
    );
}

#[test]
fn every_constructed_trace_satisfies_its_threshold() {
    let w = registry::soot(Scale::Test);
    let mut tvm = TraceVm::new(&w.program, paper_cfg());
    tvm.run(&w.args).unwrap();
    for trace in tvm.cache().iter_traces() {
        assert!(
            trace.expected_completion() >= 0.97 - 1e-9,
            "trace {} below threshold: {}",
            trace.id(),
            trace.expected_completion()
        );
        assert!(trace.len() >= 2);
        assert!(trace.len() <= tracecache_repro::tracecache::MAX_TRACE_BLOCKS);
    }
}

#[test]
fn entered_traces_balance_completed_plus_early_exits() {
    for w in registry::all(Scale::Test) {
        let r = run_point(&w.program, &w.args, paper_cfg()).unwrap();
        assert_eq!(
            r.traces.entered,
            r.traces.completed + r.traces.exited_early,
            "{}",
            w.name
        );
    }
}

#[test]
fn mpegaudio_and_scimark_are_most_predictable() {
    // §5.1's characterisation: the DSP/scientific workloads have the most
    // regular branches, so their inline-cache hit ratios must top the
    // irregular ones (javac, soot).
    let mut ratios = std::collections::HashMap::new();
    for w in registry::all(Scale::Test) {
        let r = run_point(&w.program, &w.args, paper_cfg()).unwrap();
        ratios.insert(w.name, r.profiler.cache_hit_ratio());
    }
    assert!(ratios["mpegaudio"] > ratios["javac"], "{ratios:?}");
    assert!(ratios["scimark"] > ratios["javac"], "{ratios:?}");
}

#[test]
fn a_running_loop_keeps_its_unrolled_trace() {
    // A side exit hands the profiler the resumed block as context and no
    // in-trace outcome: the failed guard's node is never credited with
    // the exit while its passes go unseen. Profiling the exit decayed
    // mpegaudio's `fir_at` back-edge node toward the loop exit, cut its
    // once-unrolled link to a single iteration and roughly doubled the
    // trace entries per instruction.
    let w = registry::mpegaudio(Scale::Test);
    let mut vm = TracingVm::new(&w.program, EngineConfig::default());
    let reports: Vec<_> = (0..4).map(|_| vm.run(&w.args).unwrap()).collect();
    assert!(reports.iter().all(|r| r.checksum == w.expected_checksum));
    let (prev, now) = (reports[2].traces, reports[3].traces);
    let instrs = reports[3].exec.instructions;
    // A trace runs once per entry and once more per loop closing.
    let runs = (now.entered + now.loop_closings) - (prev.entered + prev.loop_closings);
    let blocks = (now.blocks_in_completed + now.blocks_in_partial)
        - (prev.blocks_in_completed + prev.blocks_in_partial);
    let blocks_per_trace = blocks as f64 / runs as f64;
    let entries_per_kinstr = (now.entered - prev.entered) as f64 * 1000.0 / instrs as f64;
    assert!(
        blocks_per_trace >= 3.5,
        "blocks per trace run {blocks_per_trace:.2}"
    );
    assert!(
        entries_per_kinstr <= 35.0,
        "trace entries per kinstr {entries_per_kinstr:.1}"
    );
}

#[test]
fn a_weakened_branch_leaves_no_region_unplanned() {
    // compress weakens `(f2b4 -> f2b5)` once its input's runs set in,
    // which unlinks the trace through it and orphans the chain it led
    // into; no node of that chain signals again, so unless the weakening
    // signal plans it from its new head it is dispatched block by block
    // for the VM's life (42.6 dispatches per kinstr, against 20.5 with
    // the region planned).
    let w = registry::compress(Scale::Small);
    let mut vm = TracingVm::new(&w.program, EngineConfig::default());
    vm.run(&w.args).unwrap();
    let warm = vm.run(&w.args).unwrap();
    assert_eq!(warm.checksum, w.expected_checksum);
    let per_kinstr = warm.exec.block_dispatches as f64 * 1000.0 / warm.exec.instructions as f64;
    assert!(
        per_kinstr < 30.0,
        "warm compress dispatches {per_kinstr:.1} per kinstr"
    );
}

#[test]
fn a_phase_flip_loop_is_replanned_into_one_trace() {
    // One VM meets three bias flips. Around a flip the phase test's
    // branch and the arms' are in flux, and a region head planned then
    // is a short trace ending at an arm still weak (`[3, 5]`,
    // `[6, 8, 1, 2]`). Such traces go on into each other without a
    // dispatch, so the profile never sees the arm settle, and the loop
    // would stay split in two traces for the VM's life. Downstream heads
    // are planned only where a traceable branch weakened, and only where
    // the head predicts past its own block; the back-track plans the hot
    // arm once it settles, as one trace that closes on itself.
    let w = registry::phase_shift(Scale::Small);
    let mut vm = TracingVm::new(&w.program, EngineConfig::default());
    for flip in [38_487, 106_529, 143_194] {
        let args = [Value::Int(200_000), Value::Int(flip)];
        vm.run(&args).unwrap();
    }
    let block = |b| BlockId::new(FuncId(0), b);
    let cache = vm.cache();
    let hot = cache
        .lookup_entry((block(2), block(3)))
        .expect("the hot arm is linked");
    let blocks = cache.trace(hot).blocks();
    assert_eq!(
        (blocks.first(), blocks.last()),
        (Some(&block(3)), Some(&block(2))),
        "the hot arm's trace {blocks:?} closes on its entry"
    );
}
