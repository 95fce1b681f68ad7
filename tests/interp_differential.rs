//! The pre-decoded threaded interpreter ([`Vm`](tracecache_repro::vm::Vm))
//! against the frozen [`ReferenceVm`](tracecache_repro::vm::ReferenceVm)
//! on the six workloads — zero divergence allowed. This is the `Plain`
//! row of the differential matrix (`tests/matrix.rs`), which compares
//! result, checksum, every `ExecStats` field, heap counters, captured
//! output and the entire dispatch stream, block by block.

use tracecache_repro::conformance::matrix::{self, Row};

#[test]
fn decoded_engine_matches_reference_on_all_six_workloads() {
    let cases = matrix::workloads();
    assert_eq!(cases.len(), 6);
    matrix::check_all(&cases, Row::Plain);
}

/// The row runs twice on one VM, each run against the oracle: a second
/// run must reproduce the first.
#[test]
fn engines_stay_identical_across_reuse() {
    let mut cases = matrix::workloads();
    cases.retain(|case| case.label == "compress");
    assert_eq!(cases.len(), 1);
    matrix::check_all(&cases, Row::Plain);
}
