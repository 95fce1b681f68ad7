//! Warm-boot staleness regression: snapshot a VM warmed on workload A,
//! load it into a phase-shifted A′, and require the restored (now
//! pathological) traces to be demoted within a bounded number of
//! dispatches while the run stays bit-exact with the interpreter.
//!
//! The phase-shift program takes its flip point as an *argument*, so A
//! and A′ share one program hash — exactly the situation a persisted
//! trace cache cannot distinguish at load time. Retention state is
//! deliberately excluded from snapshots: the restored traces start with
//! clean streaks and must be re-convicted from live evidence alone.
//!
//! Staleness heals through two tiers, and both are pinned here:
//!
//! * an *abrupt* shift (cold from dispatch one) flips the profiler's
//!   branch prediction within a few dozen observations, so the
//!   constructor rebuilds and replaces the stale links directly;
//! * a *delayed* shift re-warms the restored traces first — prediction
//!   stays loyal to the old arm long after the flip, and it falls to
//!   the retention rule's early-exit streak to demote the rot.

use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::Value;
use tracecache_repro::workloads::phase_shift::reference_checksum;
use tracecache_repro::workloads::{registry, Scale};

fn config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig {
            start_delay: 8,
            decay_interval: 64,
            ..TraceJitConfig::paper_default()
        }
        .with_threshold(0.90),
    }
}

/// Warm a VM on the never-flipping phase_shift instance (every trace is
/// built along the 95% arm) and return its snapshot plus the iteration
/// count shared by all variants.
fn warm_snapshot() -> (Vec<u8>, i64) {
    let w = registry::phase_shift(Scale::Test);
    let n = match w.args[0] {
        Value::Int(n) => n,
        _ => panic!("phase_shift arg 0 must be the iteration count"),
    };
    let hot_args = [Value::Int(n), Value::Int(n)];
    let mut warm = TracingVm::new(&w.program, config());
    let report = warm.run(&hot_args).expect("warm run succeeds");
    assert_eq!(
        report.checksum,
        reference_checksum(n, n),
        "warm run diverged from the interpreter oracle"
    );
    assert!(
        warm.cache().link_count() > 0,
        "phase A must leave linked traces to persist"
    );
    (warm.snapshot(), n)
}

/// A′ flips mid-run: the restored traces serve the first phase, then
/// rot. The booted VM sets a start delay beyond the run length so that
/// *fresh* branches never trace — but the restored BCG nodes are past
/// their delay, so the old entries stay live. With preemptive
/// rebuild-and-replace suppressed, the retention streak is the line of
/// defense: it must demote the restored traces within a bounded number
/// of dispatches (re-admission through the normal constructor may then
/// follow once the quarantine cooldown expires).
#[test]
fn warm_boot_into_a_delayed_shift_is_demoted_by_the_streak() {
    let (bytes, n) = warm_snapshot();
    let w = registry::phase_shift(Scale::Test);

    let boot_config = EngineConfig {
        jit: TraceJitConfig {
            start_delay: 100_000_000,
            ..config().jit
        },
    };
    let mut booted = TracingVm::new(&w.program, boot_config);
    booted
        .load_snapshot(&bytes)
        .expect("snapshot loads into the same program");
    let restored_links = booted.cache().link_count();
    assert!(restored_links > 0, "snapshot must restore the stale traces");

    let report = booted.run(&w.args).expect("shifted run succeeds");
    let hs = booted.health_stats();
    eprintln!(
        "delayed shift: restored_links={} reused={} quarantined={} demotions={} \
         completed={} exited_early={}",
        restored_links,
        report.cache.traces_reused,
        report.cache.traces_quarantined,
        hs.demotions,
        report.traces.completed,
        report.traces.exited_early,
    );

    // Bit-exact with the interpreter despite booting on doomed traces.
    let flip = match w.args[1] {
        Value::Int(flip) => flip,
        _ => panic!("phase_shift arg 1 must be the flip point"),
    };
    assert_eq!(
        report.checksum,
        reference_checksum(n, flip),
        "shifted run diverged from the interpreter oracle"
    );

    // The restored traces really did serve the first phase: nothing new
    // was constructed before the flip forced the rule's hand.
    assert!(
        report.traces.completed > 0,
        "restored traces never executed"
    );
    // After the flip, the (restored) pathological trace was demoted.
    assert!(
        report.cache.traces_quarantined >= 1,
        "no stale trace was ever quarantined"
    );
    assert!(hs.demotions >= 1, "the retention streak never convicted");
    // Bounded-dispatch demotion: the rot must not soak the run — the
    // rebuilt cold-arm trace dominates with completions.
    assert!(
        report.traces.completed > report.traces.exited_early,
        "stale traces soaked the run: {} completions vs {} early exits",
        report.traces.completed,
        report.traces.exited_early
    );
}

/// A′ shifted from the very first dispatch: the profiler's prediction
/// flips almost immediately, so the constructor's rebuild-and-replace
/// path heals the cache before the streak needs to act.
#[test]
fn warm_boot_into_an_abrupt_shift_is_healed_by_replacement() {
    let (bytes, n) = warm_snapshot();
    let w = registry::phase_shift(Scale::Test);

    let mut booted = TracingVm::new(&w.program, config());
    booted.load_snapshot(&bytes).expect("snapshot loads");
    assert!(booted.cache().link_count() > 0);

    let cold_args = [Value::Int(n), Value::Int(0)];
    let report = booted.run(&cold_args).expect("shifted run succeeds");
    eprintln!(
        "abrupt shift: replaced={} quarantined={} completed={} exited_early={}",
        report.cache.links_replaced,
        report.cache.traces_quarantined,
        report.traces.completed,
        report.traces.exited_early,
    );

    assert_eq!(
        report.checksum,
        reference_checksum(n, 0),
        "shifted run diverged from the interpreter oracle"
    );
    // One healing tier or the other removed every stale link.
    assert!(
        report.cache.links_replaced + report.cache.traces_quarantined >= 1,
        "the stale links were never removed"
    );
    assert!(
        report.traces.completed + report.traces.loop_closings > report.traces.exited_early,
        "stale traces soaked the run"
    );
}

/// Retention counters are excluded from snapshots by design: a freshly
/// booted VM starts at zero demotions even when the donor VM had
/// demotions on the books.
#[test]
fn snapshots_do_not_carry_health_counters() {
    let w = registry::phase_shift(Scale::Test);
    let mut donor = TracingVm::new(&w.program, config());
    donor.run(&w.args).expect("donor run succeeds");
    let donor_hs = donor.health_stats();
    assert!(
        donor_hs.demotions >= 1,
        "donor must have demotions to (not) persist"
    );
    let bytes = donor.snapshot();

    let mut booted = TracingVm::new(&w.program, config());
    booted.load_snapshot(&bytes).expect("snapshot loads");
    let hs = booted.health_stats();
    assert_eq!(hs.demotions, 0, "demotions must not survive a boot");
    assert_eq!(hs.readmitted_watched, 0);
    assert_eq!(hs.probations, 0);
}
