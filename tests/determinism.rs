//! Determinism: every layer of the system is seeded and re-runnable —
//! identical inputs must give bit-identical reports.

use tracecache_repro::jit::{TraceJitConfig, TraceVm};
use tracecache_repro::workloads::{registry, Scale};

#[test]
fn repeated_runs_are_bit_identical() {
    for w in registry::all(Scale::Test) {
        let cfg = TraceJitConfig::paper_default();
        let a = TraceVm::new(&w.program, cfg).run(&w.args).unwrap();
        let b = TraceVm::new(&w.program, cfg).run(&w.args).unwrap();
        assert_eq!(a, b, "{} must be deterministic", w.name);
    }
}

#[test]
fn rebuilt_workloads_are_identical() {
    for (a, b) in registry::all(Scale::Test)
        .into_iter()
        .zip(registry::all(Scale::Test))
    {
        assert_eq!(a.expected_checksum, b.expected_checksum);
        assert_eq!(
            a.program.total_instructions(),
            b.program.total_instructions()
        );
    }
}
