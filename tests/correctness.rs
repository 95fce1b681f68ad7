//! Cross-crate correctness: the trace machinery must never change
//! program semantics, and every workload must match its reference
//! implementation. The first two tests are rows of the differential
//! matrix (`tests/matrix.rs`) on the six workloads, whose oracles are
//! checked against the reference implementations' checksums.

use tracecache_repro::conformance::matrix::{self, Row};
use tracecache_repro::jit::{TraceJitConfig, TraceVm};
use tracecache_repro::workloads::{registry, Scale};

#[test]
fn plain_vm_matches_reference_checksums() {
    matrix::check_all(&matrix::workloads(), Row::Plain);
}

/// The monitor at paper defaults: result, checksum and every execution
/// counter, instructions and block dispatches included.
#[test]
fn trace_vm_is_semantically_transparent() {
    matrix::check_all(&matrix::workloads(), Row::Monitor);
}

#[test]
fn trace_vm_transparent_at_every_threshold() {
    let w = registry::compress(Scale::Test);
    for &threshold in &[1.0, 0.99, 0.97, 0.95, 0.5] {
        let mut tvm = TraceVm::new(
            &w.program,
            TraceJitConfig::paper_default()
                .with_threshold(threshold)
                .with_start_delay(4),
        );
        let report = tvm.run(&w.args).unwrap();
        assert_eq!(
            report.checksum, w.expected_checksum,
            "threshold {threshold}"
        );
    }
}

#[test]
fn workload_scales_share_program_shape() {
    // Small-scale programs must differ from Test only in constants, so
    // static block counts stay equal — a guard against scale-dependent
    // codegen drift.
    for (t, s) in registry::all(Scale::Test)
        .into_iter()
        .zip(registry::all(Scale::Small))
    {
        assert_eq!(t.name, s.name);
        assert_eq!(
            t.program.total_blocks(),
            s.program.total_blocks(),
            "{}: scale must only change constants",
            t.name
        );
    }
}
