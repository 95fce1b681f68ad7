//! # trace-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation (§5) over the six workload analogues:
//!
//! | artifact | regenerator |
//! |---|---|
//! | Figures 1–2 (dispatch models) | `benches/fig_dispatch_modes.rs`, `paper_tables --table fig` |
//! | Table I (trace length vs threshold) | `benches/tables_1_to_5.rs`, `paper_tables --table 1` |
//! | Table II (coverage vs threshold) | `paper_tables --table 2` |
//! | Table III (completion rate vs threshold) | `paper_tables --table 3` |
//! | Table IV (dispatches per signal) | `paper_tables --table 4` |
//! | Table V (dispatches per trace event vs delay) | `paper_tables --table 5` |
//! | Table VI (profiler overhead) | `benches/table6_profiler_overhead.rs`, `paper_tables --table 6` |
//! | Table VII (trace-dispatch overhead) | `benches/table7_trace_dispatch.rs`, `paper_tables --table 7` |
//!
//! Plus the ablations called out in `DESIGN.md`
//! (`benches/ablation_decay.rs`, `benches/ablation_inline_cache.rs`), the
//! Dynamo/rePLay comparison (`benches/baseline_comparison.rs`), and the
//! before/after hot-path dispatch microbenchmark
//! (`src/bin/hot_path.rs`, `paper_tables --table hotpath`).
//!
//! All benches run on the in-tree [`harness`] — the workspace builds
//! fully offline, with no external benchmarking dependency.

#![forbid(unsafe_code)]

pub mod concurrent;
pub mod harness;
pub mod hot_path;
pub mod interp_speed;

use jvm_bytecode::{CmpOp, Program, ProgramBuilder};
use trace_jit::experiment::{
    delay_sweep, run_point, threshold_sweep, SweepPoint, PAPER_DELAYS, PAPER_THRESHOLDS,
};
use trace_jit::overhead::{measure_overhead, OverheadMeasurement};
use trace_jit::report::RunReport;
use trace_jit::TraceJitConfig;
use trace_workloads::{registry, Scale};

/// Parses a scale name (`test`, `small`, `paper`).
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// Registry workloads at `scale`, optionally restricted to one name.
fn workloads(scale: Scale, only: Option<&str>) -> Vec<registry::Workload> {
    registry::all(scale)
        .into_iter()
        .filter(|w| only.is_none_or(|n| w.name == n))
        .collect()
}

/// Threshold sweeps (Tables I–IV) for all six workloads.
pub fn named_threshold_sweeps(scale: Scale) -> Vec<(String, Vec<SweepPoint>)> {
    named_threshold_sweeps_filtered(scale, None)
}

/// Like [`named_threshold_sweeps`], optionally restricted to one
/// workload name.
pub fn named_threshold_sweeps_filtered(
    scale: Scale,
    only: Option<&str>,
) -> Vec<(String, Vec<SweepPoint>)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let pts = threshold_sweep(
                &w.program,
                &w.args,
                &PAPER_THRESHOLDS,
                64,
                TraceJitConfig::paper_default(),
            )
            .expect("workload runs");
            for p in &pts {
                assert_eq!(
                    p.report.checksum, w.expected_checksum,
                    "{} checksum mismatch at threshold {}",
                    w.name, p.threshold
                );
            }
            (w.name.to_owned(), pts)
        })
        .collect()
}

/// Delay sweeps (Table V) for all six workloads at the 97% threshold.
pub fn named_delay_sweeps(scale: Scale) -> Vec<(String, Vec<SweepPoint>)> {
    named_delay_sweeps_filtered(scale, None)
}

/// Like [`named_delay_sweeps`], optionally restricted to one workload
/// name.
pub fn named_delay_sweeps_filtered(
    scale: Scale,
    only: Option<&str>,
) -> Vec<(String, Vec<SweepPoint>)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let pts = delay_sweep(
                &w.program,
                &w.args,
                &PAPER_DELAYS,
                0.97,
                TraceJitConfig::paper_default(),
            )
            .expect("workload runs");
            (w.name.to_owned(), pts)
        })
        .collect()
}

/// Overhead measurements (Tables VI–VII) for all six workloads.
pub fn overhead_rows(scale: Scale, repeats: usize) -> Vec<(String, OverheadMeasurement)> {
    overhead_rows_filtered(scale, repeats, None)
}

/// Like [`overhead_rows`], optionally restricted to one workload name.
pub fn overhead_rows_filtered(
    scale: Scale,
    repeats: usize,
    only: Option<&str>,
) -> Vec<(String, OverheadMeasurement)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let m = measure_overhead(
                &w.program,
                &w.args,
                TraceJitConfig::paper_default(),
                repeats,
            )
            .expect("workload runs");
            (w.name.to_owned(), m)
        })
        .collect()
}

/// Single paper-default runs (Figures 1–2) for all six workloads.
pub fn dispatch_rows(scale: Scale) -> Vec<(String, RunReport)> {
    dispatch_rows_filtered(scale, None)
}

/// Like [`dispatch_rows`], optionally restricted to one workload name.
pub fn dispatch_rows_filtered(scale: Scale, only: Option<&str>) -> Vec<(String, RunReport)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let r = run_point(&w.program, &w.args, TraceJitConfig::paper_default())
                .expect("workload runs");
            (w.name.to_owned(), r)
        })
        .collect()
}

/// A two-phase program for the cache-stability ablation: it alternates
/// between two loop bodies every `phase_len` outer iterations, so a
/// decaying profiler re-learns each phase while a cumulative one
/// stays polluted by the old phase.
pub fn phase_change_program(phases: i64, phase_len: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 0, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let p = b.alloc_local();
    let i = b.alloc_local();
    b.iconst(0).store(acc).iconst(0).store(p);
    let p_head = b.bind_new_label();
    let p_exit = b.new_label();
    b.load(p).iconst(phases).if_icmp(CmpOp::Ge, p_exit);
    b.iconst(0).store(i);
    let i_head = b.bind_new_label();
    let i_exit = b.new_label();
    b.load(i).iconst(phase_len).if_icmp(CmpOp::Ge, i_exit);
    // Phase parity decides which body runs.
    let odd = b.new_label();
    let cont = b.new_label();
    b.load(p).iconst(1).iand().if_i(CmpOp::Ne, odd);
    // Even phase: acc = acc*3 + i.
    b.load(acc).iconst(3).imul().load(i).iadd().store(acc);
    b.goto(cont);
    // Odd phase: acc = (acc ^ i) + 7.
    b.bind(odd);
    b.load(acc).load(i).ixor().iconst(7).iadd().store(acc);
    b.bind(cont);
    b.iinc(i, 1).goto(i_head);
    b.bind(i_exit);
    b.iinc(p, 1).goto(p_head);
    b.bind(p_exit);
    b.load(acc).ret();
    pb.build(f).expect("phase program builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_vm::{NullObserver, Vm};

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("test"), Some(Scale::Test));
        assert_eq!(parse_scale("paper"), Some(Scale::Paper));
        assert_eq!(parse_scale("huge"), None);
    }

    #[test]
    fn phase_program_runs() {
        let p = phase_change_program(4, 100);
        let mut vm = Vm::new(&p);
        let r = vm.run(&[], &mut NullObserver).unwrap();
        assert!(r.is_some());
    }

    #[test]
    fn sweeps_cover_all_workloads() {
        let sweeps = named_threshold_sweeps(Scale::Test);
        assert_eq!(sweeps.len(), 6);
        for (_, pts) in &sweeps {
            assert_eq!(pts.len(), PAPER_THRESHOLDS.len());
        }
    }
}
