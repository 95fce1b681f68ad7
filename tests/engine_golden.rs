//! Golden test: every counter the trace-executing engine reports is
//! pinned. Each workload — the six analogues and the three phase-shift
//! variants, at test scale under the paper's parameters — runs three
//! times on one `TracingVm`, and the file `engine_golden.txt` holds, for
//! every run, the whole `RunReport` and `health_stats()` as pretty
//! `Debug` (one field per line) plus `compiled_count()` and
//! `lowered_memory()`.
//!
//! Every run also checks that the loop dispatched exactly the blocks the
//! profiler observed: a trace leaves on a block's entry marker, so no
//! dispatch is counted that the profiler does not see.
//!
//! A change that moves any of them shows up here as a reviewed diff of
//! that file. On a mismatch the test prints the full listing it got
//! (`cargo test --test engine_golden -- --nocapture`).

use std::fmt::Write;

use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::workloads::{registry, Scale};

const RUNS: usize = 3;

fn listing() -> String {
    let mut workloads = registry::all(Scale::Test);
    workloads.extend([
        registry::phase_shift(Scale::Test),
        registry::phase_shift_early(Scale::Test),
        registry::phase_shift_late(Scale::Test),
    ]);
    let mut out = String::new();
    for w in &workloads {
        let mut vm = TracingVm::new(&w.program, EngineConfig::paper_default());
        let mut observed = 0;
        for run in 1..=RUNS {
            let report = vm
                .run(&w.args)
                .unwrap_or_else(|e| panic!("{} run {run}: {e:?}", w.name));
            assert_eq!(
                report.exec.block_dispatches,
                report.profiler.dispatches - observed,
                "{} run {run}: dispatches the profiler did not observe",
                w.name
            );
            observed = report.profiler.dispatches;
            let _ = writeln!(out, "== {} run {run}", w.name);
            let _ = writeln!(out, "{report:#?}");
            let _ = writeln!(out, "{:#?}", vm.health_stats());
            let _ = writeln!(out, "compiled_count: {}", vm.compiled_count());
            let _ = writeln!(out, "lowered_memory: {}", vm.lowered_memory());
        }
    }
    out
}

#[test]
fn engine_reports_match_golden() {
    let got = listing();
    let want = include_str!("engine_golden.txt");
    if got != want {
        println!("{got}");
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
        panic!(
            "engine reports differ from the golden file at line {}:\n  got:  {g}\n  want: {w}",
            line + 1
        );
    }
}
