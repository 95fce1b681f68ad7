//! Trace-health integration suite: the whole-lifetime demotion ladder
//! driven through the full engine by the phase-shift workload family.
//!
//! A phase-shift workload builds a trace along a 95%-taken guard arm,
//! then flips the bias to 5% mid-run: the trace is correct but rotten.
//! With health on (the default), the ladder must demote it within a
//! bounded number of dispatches and the constructor must rebuild along
//! the new hot arm; with `--no-health` only the immediate-entry-exit
//! fast trigger remains. Either way the run must stay bit-exact with
//! the interpreter oracle.

use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, Vm};
use tracecache_repro::workloads::registry;
use tracecache_repro::workloads::{Scale, Workload};

/// Aggressive tracing parameters so test-scale programs trace well
/// before the phase flip (same tunables as the snapshot suite).
fn config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig {
            start_delay: 8,
            decay_interval: 64,
            ..TraceJitConfig::paper_default()
        }
        .with_threshold(0.90),
        ..EngineConfig::paper_default()
    }
}

fn variants() -> [Workload; 3] {
    [
        registry::phase_shift(Scale::Test),
        registry::phase_shift_early(Scale::Test),
        registry::phase_shift_late(Scale::Test),
    ]
}

/// The interpreter oracle for one workload: result, checksum,
/// instruction count.
fn oracle(w: &Workload) -> (Option<tracecache_repro::vm::Value>, u64, u64) {
    let mut plain = Vm::new(&w.program);
    let result = plain
        .run(&w.args, &mut NullObserver)
        .unwrap_or_else(|e| panic!("{}: interpreter failed: {e:?}", w.name));
    (result, plain.checksum(), plain.stats().instructions)
}

#[test]
fn phase_shift_demotes_the_rotten_traces_and_matches_the_oracle() {
    for w in variants() {
        let (want, want_sum, want_instrs) = oracle(&w);
        let mut vm = TracingVm::new(&w.program, config());
        let report = vm
            .run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        let hs = vm.health_stats();
        eprintln!(
            "{}: quarantined={} demotions={} (streak {}) probations={} recoveries={} \
             recorded={} epochs={} entered={} completed={} exited_early={}",
            w.name,
            report.cache.traces_quarantined,
            hs.demotions,
            hs.streak_demotions,
            hs.probations,
            hs.recoveries,
            hs.recorded,
            hs.epochs,
            report.traces.entered,
            report.traces.completed,
            report.traces.exited_early,
        );

        // Bit-exact with the interpreter, demotions and all.
        assert_eq!(report.result, want, "{}: result diverged", w.name);
        assert_eq!(report.checksum, want_sum, "{}: checksum diverged", w.name);
        assert_eq!(
            report.exec.instructions, want_instrs,
            "{}: instruction count diverged",
            w.name
        );

        // The rotten trace was removed (health ladder or fast trigger).
        assert!(
            report.cache.traces_quarantined >= 1,
            "{}: the rotten trace was never quarantined",
            w.name
        );
        // The ladder actually observed the run.
        assert!(hs.recorded > 0, "{}: no outcomes recorded", w.name);
        assert!(hs.epochs > 0, "{}: no health epoch ran", w.name);
        // The post-flip hot arm was rebuilt and runs to completion.
        assert!(
            report.traces.completed > 0,
            "{}: nothing completed after the flip",
            w.name
        );
    }
}

#[test]
fn health_off_restores_fast_trigger_only_behavior() {
    for w in variants() {
        let (_, want_sum, _) = oracle(&w);
        let mut vm = TracingVm::new(&w.program, config().with_health(false));
        let report = vm
            .run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        assert_eq!(report.checksum, want_sum, "{}: checksum diverged", w.name);
        let hs = vm.health_stats();
        assert_eq!(hs.recorded, 0, "{}: ledger must stay cold", w.name);
        assert_eq!(hs.epochs, 0, "{}: no epochs with health off", w.name);
        assert_eq!(hs.demotions, 0, "{}: no demotions with health off", w.name);
        assert_eq!(vm.degraded_reason(), Some("health-off"), "{}", w.name);
    }
}

#[test]
fn health_on_is_the_default_and_reports_no_degradation() {
    let w = registry::phase_shift(Scale::Test);
    let mut vm = TracingVm::new(&w.program, config());
    vm.run(&w.args).expect("run succeeds");
    assert_eq!(vm.degraded_reason(), None, "healthy run must not degrade");
    assert!(
        EngineConfig::paper_default().health,
        "self-healing must be on by default"
    );
}

/// Hysteresis at engine scale: the ladder may demote each rotten trace
/// once (and escalate on a genuine re-rot), but must not flap — the
/// demotion count stays within a small multiple of the distinct entries
/// that ever misbehaved.
#[test]
fn demotions_are_bounded_no_flapping() {
    for w in variants() {
        let mut vm = TracingVm::new(&w.program, config());
        vm.run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        let hs = vm.health_stats();
        assert!(
            hs.demotions <= 8,
            "{}: {} demotions looks like flapping",
            w.name,
            hs.demotions
        );
    }
}

/// The six paper workloads have stable branch behavior: the ladder
/// watches them closely but demotes (at most) the odd marginal trace —
/// mpegaudio and soot carry a couple of borderline entries at the
/// aggressive 0.90 admission threshold.
#[test]
fn steady_workloads_are_barely_demoted() {
    for w in registry::all(Scale::Test) {
        let mut vm = TracingVm::new(&w.program, config());
        let report = vm
            .run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        assert_eq!(report.checksum, w.expected_checksum, "{}", w.name);
        let hs = vm.health_stats();
        eprintln!(
            "{}: recorded={} epochs={} probations={} demotions={}",
            w.name, hs.recorded, hs.epochs, hs.probations, hs.demotions
        );
        assert!(
            hs.demotions <= 3,
            "{}: {} demotions on a steady workload",
            w.name,
            hs.demotions
        );
    }
}

/// A tombstoned trace can never be entered again (ids are not reused),
/// so the engine must not keep its lowered code: after demotions and
/// quarantines, what the VM can dispatch is bounded by what is alive in
/// the cache. (Paper-default tunables: every live trace of these
/// programs gets entered, so a dead artifact shows as an excess.)
#[test]
fn tombstoned_traces_free_their_lowered_code() {
    for w in variants() {
        let mut vm = TracingVm::new(&w.program, EngineConfig::paper_default());
        let mut evicted = 0;
        for _ in 0..2 {
            evicted = vm
                .run(&w.args)
                .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name))
                .cache
                .traces_evicted;
        }
        assert!(evicted > 0, "{}: the flip tombstoned nothing", w.name);
        let alive = vm
            .cache()
            .iter_traces()
            .filter(|t| !t.blocks().is_empty())
            .count();
        assert!(
            vm.compiled_count() <= alive,
            "{}: {} lowered traces held for {alive} live ones ({evicted} tombstoned)",
            w.name,
            vm.compiled_count()
        );
    }
}
