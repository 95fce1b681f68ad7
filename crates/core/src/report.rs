//! The per-run report: every raw counter plus the paper's five dependent
//! values (§5.2).

use jvm_vm::{DispatchCounts, ExecStats, Value};
use trace_bcg::ProfilerStats;
use trace_cache::{CacheStats, ConstructorStats, TraceExecStats};

/// Everything measured during one [`crate::TraceVm::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The program's return value.
    pub result: Option<Value>,
    /// Checksum accumulated by `checksum` intrinsics (workload
    /// validation).
    pub checksum: u64,
    /// Interpreter counters (instructions, block dispatches, …).
    pub exec: ExecStats,
    /// Profiler counters (inline-cache hits, decays, signals, …).
    pub profiler: ProfilerStats,
    /// Trace execution counters (entries, completions, coverage, …).
    pub traces: TraceExecStats,
    /// Trace-constructor counters. A VM of a shared session reports its
    /// session's construction service here: session-wide numbers, every
    /// VM's batches, as of the service's last finished batch.
    pub constructor: ConstructorStats,
    /// Trace-cache counters.
    pub cache: CacheStats,
}

impl RunReport {
    /// **Dependent value 1** — average executed trace length, in basic
    /// blocks, over completed traces (Table I).
    pub fn avg_trace_length(&self) -> f64 {
        self.traces.avg_completed_length()
    }

    /// **Dependent value 2** — instruction stream coverage by completed
    /// traces (Table II).
    pub fn coverage_completed(&self) -> f64 {
        self.traces.coverage_completed(self.exec.instructions)
    }

    /// Coverage including partially executed traces (the paper's 90.7%
    /// refinement of Table II).
    pub fn coverage_incl_partial(&self) -> f64 {
        self.traces.coverage_incl_partial(self.exec.instructions)
    }

    /// **Dependent value 3** — dynamic trace completion rate (Table III).
    pub fn completion_rate(&self) -> f64 {
        self.traces.completion_rate()
    }

    /// **Dependent value 4** — block dispatches per state-change signal
    /// (Table IV reports thousands of these). `f64::INFINITY` when no
    /// signal fired.
    pub fn dispatches_per_state_signal(&self) -> f64 {
        if self.profiler.state_signals == 0 {
            f64::INFINITY
        } else {
            self.exec.block_dispatches as f64 / self.profiler.state_signals as f64
        }
    }

    /// **Dependent value 5** — the trace event interval: dispatches per
    /// trace event, where a trace event is a constructed trace or a
    /// profiler signal (Table V reports thousands of these).
    /// `f64::INFINITY` when no event occurred.
    pub fn trace_event_interval(&self) -> f64 {
        let events = self.constructor.traces_created + self.profiler.total_signals();
        if events == 0 {
            f64::INFINITY
        } else {
            self.exec.block_dispatches as f64 / events as f64
        }
    }

    /// Dispatch totals under the three execution models (Figures 1–2 plus
    /// the trace model).
    pub fn dispatch_counts(&self) -> DispatchCounts {
        DispatchCounts {
            per_instruction: self.exec.instructions,
            per_block: self.exec.block_dispatches,
            per_trace: self.traces.trace_dispatches(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            result: None,
            checksum: 1,
            exec: ExecStats {
                instructions: 100_000,
                block_dispatches: 20_000,
                ..ExecStats::default()
            },
            profiler: ProfilerStats {
                dispatches: 20_000,
                state_signals: 4,
                prediction_signals: 1,
                ..ProfilerStats::default()
            },
            traces: TraceExecStats {
                entered: 1_000,
                completed: 950,
                exited_early: 50,
                blocks_in_completed: 4_750,
                blocks_in_partial: 100,
                instrs_in_completed: 80_000,
                instrs_in_partial: 5_000,
                loop_closings: 0,
                blocks_outside: 2_000,
                first_entry_dispatch: 40,
            },
            constructor: ConstructorStats {
                traces_created: 5,
                ..ConstructorStats::default()
            },
            cache: CacheStats::default(),
        }
    }

    #[test]
    fn five_dependent_values() {
        let r = sample();
        assert_eq!(r.avg_trace_length(), 5.0);
        assert_eq!(r.coverage_completed(), 0.8);
        assert_eq!(r.coverage_incl_partial(), 0.85);
        assert_eq!(r.completion_rate(), 0.95);
        assert_eq!(r.dispatches_per_state_signal(), 5_000.0);
        assert_eq!(r.trace_event_interval(), 2_000.0);
    }

    #[test]
    fn dispatch_counts_combine_models() {
        let r = sample();
        let d = r.dispatch_counts();
        assert_eq!(d.per_instruction, 100_000);
        assert_eq!(d.per_block, 20_000);
        assert_eq!(d.per_trace, 3_000);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let mut r = sample();
        r.profiler.state_signals = 0;
        r.profiler.prediction_signals = 0;
        r.constructor.traces_created = 0;
        assert!(r.dispatches_per_state_signal().is_infinite());
        assert!(r.trace_event_interval().is_infinite());
    }
}
