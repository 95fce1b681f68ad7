//! Differential fuzzing: random structured programs executed under the
//! decoded interpreter, the trace-monitoring VM and the trace-executing
//! engine must agree with the frozen reference interpreter bit-for-bit.
//!
//! Programs come from [`tracecache_repro::conformance::genprog`] and the
//! rows and oracle from the differential matrix
//! ([`tracecache_repro::conformance::matrix`]), whose located failure
//! message carries the seed for reproduction. `--features
//! exhaustive-tests` deepens the sweep.

use tracecache_repro::conformance::matrix::{self, Row};

const BASE_SEED: u64 = 0xD1FF_5EED;

fn cases() -> u64 {
    if cfg!(feature = "exhaustive-tests") {
        512
    } else {
        64
    }
}

/// The interpreter (every field and the stream), the monitor and the
/// engine agree with the oracle on every generated program.
#[test]
fn engines_agree_on_random_programs() {
    let corpus = matrix::corpus(BASE_SEED, cases());
    for row in [Row::Plain, Row::Monitor, Row::Engine] {
        matrix::check_all(&corpus, row);
    }
}

/// A second corpus through the engine, each case at the loop-unroll
/// factor (0–4) its seed draws.
#[test]
fn unrolling_preserves_semantics_on_random_programs() {
    let corpus = matrix::corpus(BASE_SEED ^ 0xA5A5, cases());
    matrix::check_all(&corpus, Row::Engine);
}
