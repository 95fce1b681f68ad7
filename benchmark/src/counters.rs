//! Counter discipline: what one run did, as a difference of reports.
//!
//! `RunReport.exec` is reset by every `run`, but `traces`, `constructor`,
//! `cache` and `profiler` accumulate over the life of the VM. Dividing a
//! lifetime numerator by a per-run denominator reads 300% coverage after
//! three runs. [`run_counts`] is the only place a report is read: it takes
//! the lifetime counters as they stood before the run and returns what
//! this run added.

use std::ops::AddAssign;

use trace_bcg::ProfilerStats;
use trace_cache::{CacheStats, ConstructorStats, HealthStats, TraceExecStats};
use trace_jit::RunReport;

/// The lifetime side of a report, kept between runs of one VM.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lifetime {
    pub traces: TraceExecStats,
    pub constructor: ConstructorStats,
    pub cache: CacheStats,
    pub profiler: ProfilerStats,
    /// Not in the report: read from `TracingVm::health_stats()` after
    /// the run, and just as cumulative.
    pub health: HealthStats,
}

impl Lifetime {
    pub fn of(r: &RunReport, health: HealthStats) -> Lifetime {
        Lifetime {
            traces: r.traces,
            constructor: r.constructor,
            cache: r.cache,
            profiler: r.profiler,
            health,
        }
    }
}

/// What one run (or a sum of runs) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub runs: u64,
    pub instructions: u64,
    pub block_dispatches: u64,
    pub entered: u64,
    pub completed: u64,
    pub exited_early: u64,
    pub blocks_in_completed: u64,
    pub instrs_in_traces: u64,
    pub blocks_outside: u64,
    pub profiler_dispatches: u64,
    pub inline_hits: u64,
    pub inline_misses: u64,
    pub signals: u64,
    pub decays: u64,
    pub nodes_created: u64,
    pub signals_handled: u64,
    pub traces_constructed: u64,
    pub traces_reused: u64,
    pub traces_evicted: u64,
    pub traces_quarantined: u64,
    pub health_probations: u64,
    pub health_demotions: u64,
    pub health_readmissions: u64,
}

/// What the run that produced `now` added to the VM whose lifetime
/// counters stood at `before` when it started.
pub fn run_counts(before: &Lifetime, now: &RunReport, health: HealthStats) -> Counts {
    let (t0, t1) = (&before.traces, &now.traces);
    let (p0, p1) = (&before.profiler, &now.profiler);
    let (c0, c1) = (&before.cache, &now.cache);
    Counts {
        runs: 1,
        instructions: now.exec.instructions,
        block_dispatches: now.exec.block_dispatches,
        entered: t1.entered - t0.entered,
        completed: t1.completed - t0.completed,
        exited_early: t1.exited_early - t0.exited_early,
        blocks_in_completed: t1.blocks_in_completed - t0.blocks_in_completed,
        instrs_in_traces: (t1.instrs_in_completed + t1.instrs_in_partial)
            - (t0.instrs_in_completed + t0.instrs_in_partial),
        blocks_outside: t1.blocks_outside - t0.blocks_outside,
        profiler_dispatches: p1.dispatches - p0.dispatches,
        inline_hits: p1.cache_hits - p0.cache_hits,
        inline_misses: p1.cache_misses - p0.cache_misses,
        signals: p1.total_signals() - p0.total_signals(),
        decays: p1.decays - p0.decays,
        nodes_created: p1.nodes_created - p0.nodes_created,
        signals_handled: now.constructor.signals_handled - before.constructor.signals_handled,
        traces_constructed: c1.traces_constructed - c0.traces_constructed,
        traces_reused: c1.traces_reused - c0.traces_reused,
        traces_evicted: c1.traces_evicted - c0.traces_evicted,
        traces_quarantined: c1.traces_quarantined - c0.traces_quarantined,
        health_probations: health.probations - before.health.probations,
        health_demotions: health.demotions - before.health.demotions,
        health_readmissions: health.readmitted_watched - before.health.readmitted_watched,
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.runs += o.runs;
        self.instructions += o.instructions;
        self.block_dispatches += o.block_dispatches;
        self.entered += o.entered;
        self.completed += o.completed;
        self.exited_early += o.exited_early;
        self.blocks_in_completed += o.blocks_in_completed;
        self.instrs_in_traces += o.instrs_in_traces;
        self.blocks_outside += o.blocks_outside;
        self.profiler_dispatches += o.profiler_dispatches;
        self.inline_hits += o.inline_hits;
        self.inline_misses += o.inline_misses;
        self.signals += o.signals;
        self.decays += o.decays;
        self.nodes_created += o.nodes_created;
        self.signals_handled += o.signals_handled;
        self.traces_constructed += o.traces_constructed;
        self.traces_reused += o.traces_reused;
        self.traces_evicted += o.traces_evicted;
        self.traces_quarantined += o.traces_quarantined;
        self.health_probations += o.health_probations;
        self.health_demotions += o.health_demotions;
        self.health_readmissions += o.health_readmissions;
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counts {
    /// In-trace share of retired instructions.
    pub fn coverage(&self) -> f64 {
        ratio(self.instrs_in_traces, self.instructions)
    }

    /// The paper's Table VII cost: one dispatch per trace entered plus
    /// one per block run outside any trace, per thousand instructions.
    pub fn dispatches_per_kinstr(&self) -> f64 {
        1000.0 * ratio(self.entered + self.blocks_outside, self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::engine_config;
    use trace_exec::TracingVm;
    use trace_workloads::registry::{self, Scale};

    /// Three runs on one VM: the lifetime counters triple, the per-run
    /// ones do not, and only the diff keeps the ratios inside their range.
    #[test]
    fn diffs_keep_ratios_in_range_where_a_naive_read_does_not() {
        let w = registry::mpegaudio(Scale::Test);
        let mut vm = TracingVm::new(&w.program, engine_config());
        let mut before = Lifetime::default();
        let mut last = None;
        for run in 0..3 {
            let r = vm.run(&w.args).expect("workload runs");
            let health = vm.health_stats();
            let c = run_counts(&before, &r, health);
            assert!(c.coverage() <= 1.0, "run {run}: coverage {}", c.coverage());
            // vm.blocks_per_kinstr: the block model's dispatch count.
            let blocks_per_kinstr = 1000.0 * ratio(c.block_dispatches, c.instructions);
            assert!(
                c.dispatches_per_kinstr() <= blocks_per_kinstr,
                "run {run}: {} > {blocks_per_kinstr}",
                c.dispatches_per_kinstr()
            );
            assert_eq!(c.entered, c.completed + c.exited_early);
            before = Lifetime::of(&r, health);
            last = Some((r, c));
        }
        let (r, c) = last.unwrap();
        assert!(c.coverage() > 0.5, "warm run is mostly in traces");
        // The naive read: lifetime numerator over this run's denominator.
        let naive = r.traces.coverage_incl_partial(r.exec.instructions);
        assert!(naive > 1.0, "naive coverage {naive} should exceed 100%");
    }

    #[test]
    fn sums_add_fieldwise() {
        let a = Counts {
            runs: 1,
            instructions: 1000,
            entered: 10,
            blocks_outside: 30,
            ..Counts::default()
        };
        let mut s = a;
        s += a;
        assert_eq!(s.runs, 2);
        assert_eq!(s.instructions, 2000);
        assert_eq!(s.dispatches_per_kinstr(), 40.0);
        assert_eq!(Counts::default().coverage(), 0.0);
    }
}
