//! Engine-level fault-injection conformance.
//!
//! The chaos campaigns in [`crate::chaos`] perturb the *profiling and
//! construction* pipeline inside the single-threaded lockstep harness.
//! This module attacks the *execution* deployment instead: a real
//! [`trace_exec::TracingVm`] dispatching against a real shared cache
//! with a supervised off-thread constructor, while a deterministic
//! [`FaultPlan`] corrupts published artifacts, fails budget checks,
//! kills the constructor mid-batch, and drops or duplicates signal
//! batches — the full fault surface of PR 5's robustness layer.
//!
//! The oracle is the plain interpreter: whatever faults fire, every run
//! must produce the interpreter's result and observation checksum.
//! Degraded mode means "interpreter speed", never "wrong answer".

use std::sync::Arc;

use jvm_bytecode::Program;
use jvm_vm::{NullObserver, Value, Vm};
use trace_cache::{CacheStats, FaultConfig, FaultPlan, FaultStats, ServiceHealthSnapshot};
use trace_exec::{run_shared_constructor, shared_session, EngineConfig, TracingVm};
use trace_jit::{RunReport, TraceJitConfig};

/// Runs the VM makes against the shared cache per fault case: the first
/// runs warm the profiler and build traces, the later ones dispatch
/// through whatever the fault plan left standing.
pub const RUNS_PER_CASE: u32 = 6;

/// Payload byte budget applied to the shared cache in every fault case —
/// deliberately below the working-set size of the busier workloads, so
/// the eviction sweep runs for real.
pub fn case_budget_bytes() -> usize {
    8 * trace_cache::trace_cost(16)
}

/// What a fault case observed, for campaign-level assertions.
#[derive(Debug, Clone)]
pub struct FaultCaseReport {
    /// The report of each run against the shared session, in order.
    pub runs: Vec<RunReport>,
    /// Fault-plan draw/fire counters.
    pub faults: FaultStats,
    /// Shared-cache counters after the last run.
    pub cache: CacheStats,
    /// Supervisor health after the constructor exited.
    pub health: ServiceHealthSnapshot,
    /// Payload bytes held by the cache after the last run.
    pub payload_bytes: usize,
}

/// Aggressive engine tunables for fault campaigns: short start delay and
/// loose thresholds so test-scale programs actually trace, maximising
/// the machinery each injected fault can break.
pub fn fault_campaign_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig {
            start_delay: 8,
            decay_interval: 64,
            ..TraceJitConfig::paper_default()
        }
        .with_threshold(0.90),
        dop_fusion: true,
    }
}

/// Runs one engine-level fault case: the program is executed
/// [`RUNS_PER_CASE`] times on a [`TracingVm`] sharing a budgeted cache
/// with a supervised constructor under the given fault profile, and
/// every run is compared against the plain interpreter's result and
/// checksum. Fully deterministic in `(program, args, fault, fault_seed)`
/// up to construction timing — which the conformance contract says must
/// never change results.
pub fn run_fault_case(
    program: &Program,
    args: &[Value],
    fault: FaultConfig,
    fault_seed: u64,
) -> Result<FaultCaseReport, String> {
    let config = fault_campaign_config();
    let mut plain = Vm::new(program);
    let want = plain
        .run(args, &mut NullObserver)
        .map_err(|e| format!("interpreter failed: {e:?}"))?;
    let want_checksum = plain.checksum();

    let (cache, session, rx) = shared_session();
    let plan = Arc::new(FaultPlan::new(fault_seed, fault));
    session.set_faults(Arc::clone(&plan));
    let budget = case_budget_bytes();
    session.set_cache_budget(Some(budget));
    let health = Arc::clone(session.queue.health());

    let outcome: Result<Vec<RunReport>, String> = std::thread::scope(|s| {
        let svc = s.spawn(|| run_shared_constructor(rx, &cache, program, config));

        let result = (|| {
            let mut vm = TracingVm::new_shared(program, config, session);
            let mut runs = Vec::new();
            for run in 0..RUNS_PER_CASE {
                let report = vm
                    .run(args)
                    .map_err(|e| format!("run {run}: traced VM failed: {e:?}"))?;
                if report.result != want {
                    return Err(format!(
                        "run {run}: result {:?} diverged from interpreter {want:?}",
                        report.result
                    ));
                }
                if report.checksum != want_checksum {
                    return Err(format!(
                        "run {run}: checksum {:#x} diverged from interpreter {want_checksum:#x}",
                        report.checksum
                    ));
                }
                // The budget must hold at every settled point unless a
                // single trace overran it (counted, never silent). The
                // constructor thread is live and each read takes the
                // cache's lock on its own: read the payload before the
                // counters, or an overrunning insert between the two
                // reads looks like a silent one.
                let payload = cache.payload_bytes();
                if payload > budget && cache.stats().budget_overruns == 0 {
                    return Err(format!(
                        "run {run}: payload {payload} exceeds budget {budget} \
                         with no recorded overrun"
                    ));
                }
                runs.push(report);
            }
            Ok(runs)
        })();
        // The VM (and its session clone) is gone; the receiver side sees
        // the senders disconnect and the service thread exits.
        svc.join().expect("supervisor thread must not panic itself");
        result
    });

    Ok(FaultCaseReport {
        runs: outcome?,
        faults: plan.stats(),
        cache: cache.stats(),
        health: health.snapshot(),
        payload_bytes: cache.payload_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_workloads::registry::{all, Scale};

    #[test]
    fn fault_free_plan_matches_interpreter_and_respects_budget() {
        let w = &all(Scale::Test)[0];
        let report = run_fault_case(&w.program, &w.args, FaultConfig::none(), 1)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(report.faults.total_fired(), 0);
        assert!(!report.health.degraded);
        assert!(
            report.cache.budget_overruns > 0 || report.payload_bytes <= case_budget_bytes(),
            "budget must hold: {report:?}"
        );
    }

    /// `SharedSession::set_faults` is the one attachment: the plan it
    /// hands the cache and the channel must be consulted at every site.
    #[test]
    fn one_attachment_reaches_every_fault_site() {
        use trace_cache::FaultSite::*;
        let w = &all(Scale::Test)[0];
        let report = run_fault_case(&w.program, &w.args, FaultConfig::standard(), 5)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let draws = report.faults.draws;
        for site in [
            CorruptArtifact,
            BudgetCheck,
            KillConstructor,
            DropBatch,
            DuplicateBatch,
        ] {
            assert!(
                draws[site as usize] > 0,
                "{site:?} never drawn: {:?}",
                report.faults
            );
        }
    }

    #[test]
    fn constructor_killer_degrades_without_changing_results() {
        let w = &all(Scale::Test)[0];
        let report = run_fault_case(&w.program, &w.args, FaultConfig::constructor_killer(), 3)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(report.health.degraded, "kill=1.0 must degrade: {report:?}");
        assert!(report.health.panics >= 1);
        assert_eq!(report.cache.traces_constructed, 0);
    }
}
