//! The trace-executing engine on the six workloads: the `Engine` row of
//! the differential matrix (`tests/matrix.rs`), three runs on one VM,
//! each compared with the frozen reference interpreter — result,
//! checksum, instruction count, heap counters and output. The trace
//! machinery, guards and side exits may never change observable
//! semantics; what the engine must show beyond that is one test each.
//!
//! (The hand-offs between loop and trace are pinned in
//! `reg_differential.rs`, on the guard-flip programs.)

use std::sync::OnceLock;

use tracecache_repro::conformance::matrix::{self, Case, CellReport, Row};

/// The row's cells on the workloads, checked once for every test here.
fn cells() -> &'static [(&'static Case, CellReport)] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    static CELLS: OnceLock<Vec<(&Case, CellReport)>> = OnceLock::new();
    let cases = CASES.get_or_init(matrix::workloads);
    CELLS.get_or_init(|| matrix::check_all(cases, Row::Engine))
}

#[test]
fn engine_matches_interpreter_on_all_workloads() {
    assert_eq!(cells().len(), 6);
}

#[test]
fn engine_actually_executes_traces_on_all_workloads() {
    for (case, cell) in cells() {
        let cold = cell.runs[0];
        assert!(cold.compiled > 0, "{}: no traces were compiled", case.label);
        assert!(
            cold.completed > 0,
            "{}: no trace ran to completion",
            case.label
        );
    }
}

#[test]
fn engine_reduces_dispatches_on_all_workloads() {
    for (case, cell) in cells() {
        let (engine, plain) = (
            cell.runs[0].block_dispatches,
            case.oracle.exec.block_dispatches,
        );
        assert!(
            engine < plain,
            "{}: engine {engine} vs interpreter {plain} dispatches",
            case.label
        );
    }
}

/// The engine runs the streams it decoded for its whole life: the
/// profiler is its only profile, and no run rewrites them.
#[test]
fn the_engine_never_rewrites_its_streams() {
    for (case, cell) in cells() {
        assert_eq!(cell.runs.len(), 3, "{}", case.label);
        for (run, facts) in cell.runs.iter().enumerate() {
            assert_eq!(facts.fused_heads, 0, "{} run {run}: rewritten", case.label);
        }
    }
}

/// The second and third runs, on a warm cache, matched the oracle; they
/// still run traces.
#[test]
fn warm_engine_runs_stay_correct() {
    for (case, cell) in cells() {
        assert_eq!(cell.runs.len(), 3, "{}", case.label);
        for (run, facts) in cell.runs.iter().enumerate().skip(1) {
            assert!(facts.trace_runs > 0, "{} run {run}: ran cold", case.label);
        }
    }
}
