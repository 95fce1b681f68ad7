//! Trace execution metrics.
//!
//! These counters back the paper's five dependent values (§5.2): average
//! executed trace length, instruction stream coverage, dynamic trace
//! completion rate, and — combined with profiler statistics — the state
//! signal rate and trace event interval.

/// Counters accumulated by the [`crate::TraceRuntime`] dispatch monitor,
/// and by the trace-executing engine.
///
/// The trace counters are per *execution* — one dispatch into a trace.
/// When a trace completes at a branch that links a trace, the engine
/// runs that one next without a dispatch (a loop closing): the same
/// trace round and round, or a cycle of traces. One execution may thus
/// run many traces: it is entered once, ends once (completed or exited
/// early) and counts the blocks and instructions of all of them.
/// `entered == completed + exited_early` holds either way, and a trace
/// runs `entered + loop_closings` times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceExecStats {
    /// Trace executions (each is one trace dispatch).
    pub entered: u64,
    /// Executions whose last trace ran to its end.
    pub completed: u64,
    /// Executions that left through a guard before the trace's end.
    pub exited_early: u64,
    /// Blocks executed inside completed executions.
    pub blocks_in_completed: u64,
    /// Blocks executed inside early-exited executions before the exit.
    pub blocks_in_partial: u64,
    /// Instructions executed inside completed executions.
    pub instrs_in_completed: u64,
    /// Instructions executed inside early-exited executions.
    pub instrs_in_partial: u64,
    /// Trace runs begun without a dispatch, where the last one ended:
    /// back at its own top or in another linked trace (always 0 under
    /// the dispatch monitor, which executes nothing).
    pub loop_closings: u64,
    /// Blocks dispatched outside any trace.
    pub blocks_outside: u64,
    /// Block-dispatch count at the first trace entry of the run in which
    /// traces were first entered (`0` = no trace has ever been entered).
    /// Warm-up metric: a cold VM pays the full profile-build interval
    /// before this fires; a warm-booted VM should reach it almost
    /// immediately.
    pub first_entry_dispatch: u64,
}

impl TraceExecStats {
    /// Average executed trace length in blocks, over *completed* traces
    /// (the paper's Table I quantity). 0.0 when nothing completed.
    pub fn avg_completed_length(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.blocks_in_completed as f64 / self.completed as f64
        }
    }

    /// Dynamic trace completion rate: completed / entered (Table III).
    /// 0.0 when nothing was entered.
    pub fn completion_rate(&self) -> f64 {
        if self.entered == 0 {
            0.0
        } else {
            self.completed as f64 / self.entered as f64
        }
    }

    /// Instruction stream coverage by **completed** traces, given the
    /// total instructions the program executed (Table II).
    pub fn coverage_completed(&self, total_instructions: u64) -> f64 {
        if total_instructions == 0 {
            0.0
        } else {
            self.instrs_in_completed as f64 / total_instructions as f64
        }
    }

    /// Instruction stream coverage including partially executed traces
    /// (the paper's "the trace cache captures 90.7%" refinement).
    pub fn coverage_incl_partial(&self, total_instructions: u64) -> f64 {
        if total_instructions == 0 {
            0.0
        } else {
            (self.instrs_in_completed + self.instrs_in_partial) as f64 / total_instructions as f64
        }
    }

    /// Total dispatches under the trace-dispatch model: one per trace
    /// entered plus one per out-of-trace block (the Table VII quantity).
    pub fn trace_dispatches(&self) -> u64 {
        self.entered + self.blocks_outside
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceExecStats {
        TraceExecStats {
            entered: 10,
            completed: 9,
            exited_early: 1,
            blocks_in_completed: 45,
            blocks_in_partial: 2,
            instrs_in_completed: 450,
            instrs_in_partial: 20,
            loop_closings: 0,
            blocks_outside: 30,
            first_entry_dispatch: 3,
        }
    }

    #[test]
    fn derived_quantities() {
        let s = sample();
        assert_eq!(s.avg_completed_length(), 5.0);
        assert_eq!(s.completion_rate(), 0.9);
        assert_eq!(s.coverage_completed(1000), 0.45);
        assert_eq!(s.coverage_incl_partial(1000), 0.47);
        assert_eq!(s.trace_dispatches(), 40);
    }

    #[test]
    fn empty_stats_degenerate_gracefully() {
        let s = TraceExecStats::default();
        assert_eq!(s.avg_completed_length(), 0.0);
        assert_eq!(s.completion_rate(), 0.0);
        assert_eq!(s.coverage_completed(0), 0.0);
        assert_eq!(s.trace_dispatches(), 0);
    }
}
