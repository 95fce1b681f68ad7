//! The differential matrix: every VM configuration on every source
//! against one reference-interpreter oracle. The rows, the oracle and
//! the located comparison live in
//! [`tracecache_repro::conformance::matrix`]; this file holds the cells
//! and what each row must show beyond parity.
//!
//! One test per row: it checks the row on the six workloads, the three
//! phase-shift variants and the generated corpus (64 programs, 512 under
//! `--features exhaustive-tests`), then asserts the row's properties. A
//! new configuration is a `Row` variant, its arm in `Case::check`, and a
//! test here. The suites the matrix replaced keep their test names as
//! slices of it: a row on the workloads, or on their own seeded corpus.

use std::sync::OnceLock;

use tracecache_repro::conformance::matrix::{self, Case, CellReport, Row, Selector, SourceKind};
use tracecache_repro::tracecache::FaultConfig;

/// Checks every cell of `row`, failing at the first divergence; returns
/// the cells of the named sources (workloads and phase-shift variants)
/// and of the corpus.
fn cells(row: Row) -> [Vec<(&'static Case, CellReport)>; 2] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    let corpus = if cfg!(feature = "exhaustive-tests") {
        512
    } else {
        64
    };
    let cases = CASES.get_or_init(|| matrix::cases(corpus));
    let checked = matrix::check_all(cases, row).into_iter();
    let (named, fuzz) = checked.partition(|(case, _)| case.kind != SourceKind::Fuzz);
    [named, fuzz]
}

#[test]
fn plain_row() {
    cells(Row::Plain);
}

#[test]
fn fused_row() {
    let [named, fuzz] = cells(Row::Fused);
    for (case, cell) in named.iter().chain(&fuzz) {
        let run = cell.runs[0];
        assert_eq!(
            run.fusions,
            Some(run.fused_heads),
            "{}: report vs streams",
            case.label
        );
    }
    let fused = |(case, cell): &(&Case, CellReport)| {
        case.kind == SourceKind::Registry && cell.runs[0].fused_heads > 0
    };
    assert!(
        named.iter().any(fused),
        "the default thresholds fuse nothing on the workloads"
    );
}

#[test]
fn monitor_row() {
    cells(Row::Monitor);
}

/// Beyond parity: the first run only profiles for DOp fusion and the
/// rewrite comes as the second begins; on the named sources every run
/// enters traces, the first completes some from lowered code, and the
/// engine dispatches fewer blocks than the interpreter.
fn engine_row(dop_fusion: bool) {
    let [named, fuzz] = cells(Row::Engine { dop_fusion });
    for (case, cell) in named.iter().chain(&fuzz) {
        let label = &case.label;
        let (cold, warm) = cell.runs.split_first().expect("runs");
        assert_eq!(
            (cold.fusions, cold.fused_heads),
            (None, 0),
            "{label}: rewritten after one run"
        );
        for run in warm {
            let fused = dop_fusion.then_some(run.fused_heads);
            assert_eq!(run.fusions, fused, "{label}: report vs streams");
        }
    }
    for (case, cell) in &named {
        let (label, cold) = (&case.label, cell.runs[0]);
        for (run, facts) in cell.runs.iter().enumerate() {
            assert!(facts.trace_runs > 0, "{label} run {run}: entered no trace");
            assert!(
                !dop_fusion || run == 0 || facts.fused_heads > 0,
                "{label} run {run}: nothing fused"
            );
        }
        assert!(cold.compiled > 0, "{label}: no trace was lowered");
        assert!(cold.completed > 0, "{label}: no trace ran to completion");
        let plain = case.oracle.exec.block_dispatches;
        assert!(
            cold.block_dispatches < plain,
            "{label}: {} dispatches, interpreter {plain}",
            cold.block_dispatches
        );
    }
}

#[test]
fn engine_row_fused() {
    engine_row(true);
}

#[test]
fn engine_row_unfused() {
    engine_row(false);
}

#[test]
fn never_enter_row() {
    cells(Row::NeverEnter);
}

/// Beyond parity: wherever the cold VM entered a trace, the booted one
/// enters its first no later, from artifacts the boot pre-built.
#[test]
fn warm_boot_row() {
    let [named, _] = cells(Row::WarmBoot);
    let traced: Vec<_> = named
        .iter()
        .filter(|(_, cell)| cell.runs[0].first_entry_dispatch > 0)
        .collect();
    assert!(
        !traced.is_empty(),
        "no named source traced; the property is vacuous"
    );
    for (case, cell) in traced {
        let (cold, warm) = (
            cell.runs[0].first_entry_dispatch,
            cell.runs[1].first_entry_dispatch,
        );
        assert!(
            warm > 0 && warm <= cold,
            "{}: booted first entry {warm}, cold {cold}",
            case.label
        );
        assert!(
            cell.artifacts_prebuilt > 0,
            "{}: nothing pre-built",
            case.label
        );
    }
}

/// Beyond parity: on the named sources a fresh VM dispatches the traces
/// the cold pass's constructor published.
#[test]
fn shared_row() {
    let [named, _] = cells(Row::Shared);
    for (case, cell) in named {
        assert!(
            cell.runs[1].trace_runs > 0,
            "{}: the warm pass entered no shared trace",
            case.label
        );
    }
}

/// Beyond parity: the standard plan fires over the named sources and
/// over the corpus, or the campaign tested nothing.
#[test]
fn faulted_row() {
    let fired = |cells: Vec<(&Case, CellReport)>| {
        cells.iter().map(|(_, cell)| cell.faults_fired).sum::<u64>()
    };
    let [named, fuzz] = cells(Row::Faulted(FaultConfig::standard()));
    assert!(fired(named) > 0, "no fault fired on the named sources");
    assert!(fired(fuzz) > 0, "no fault fired on the corpus");
}

#[test]
fn net_selector_row() {
    cells(Row::Selector(Selector::Net));
}

#[test]
fn replay_selector_row() {
    cells(Row::Selector(Selector::Replay));
}
