//! Snapshot round-trip differential suite.
//!
//! Property: persistence is lossless and canonical. For every warmed VM
//! — all six registry workloads plus a seeded sweep of generated fuzz
//! programs — capturing a snapshot, decoding it, and re-encoding it is
//! byte-identical; booting a fresh VM from the snapshot reproduces the
//! BCG tables and trace listings bit-for-bit (its own snapshot equals
//! the one it was booted from); and the warm-booted VM's execution
//! matches the plain interpreter exactly (result, observation checksum,
//! instruction count). That a boot warms up no slower than the cold VM
//! did is the `WarmBoot` row of the differential matrix
//! (`tests/matrix.rs`).
//!
//! Case seeds come from the workspace-wide
//! [`seed_stream`](tracecache_repro::workloads::prng::seed_stream)
//! convention; every assert carries enough context to reproduce.

use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::persist::{program_hash, SnapshotReader};
use tracecache_repro::vm::{NullObserver, Vm};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::registry::{all, Scale};

const BASE_SEED: u64 = 0x5AAD_5EED;

fn fuzz_cases() -> u64 {
    if cfg!(feature = "exhaustive-tests") {
        192
    } else {
        48
    }
}

/// Aggressive tracing parameters so test-scale programs actually build
/// traces worth persisting.
fn config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig {
            start_delay: 8,
            decay_interval: 64,
            ..TraceJitConfig::paper_default()
        }
        .with_threshold(0.90),
    }
}

/// Sorted `(entry, block path)` listing of a cache — hash-order free,
/// so two caches compare structurally.
fn trace_listing(
    cache: &tracecache_repro::tracecache::TraceCache,
) -> Vec<(
    (
        tracecache_repro::bytecode::BlockId,
        tracecache_repro::bytecode::BlockId,
    ),
    Vec<tracecache_repro::bytecode::BlockId>,
)> {
    let mut listing: Vec<_> = cache
        .iter_links()
        .map(|(entry, trace)| (entry, trace.blocks().to_vec()))
        .collect();
    listing.sort();
    listing
}

/// Warms a VM, snapshots it, and checks the full round-trip contract:
/// decode → re-encode canonical, boot → snapshot byte-identical, booted
/// listings bit-identical, booted run semantically transparent.
fn check_round_trip(
    name: &str,
    program: &tracecache_repro::bytecode::Program,
    args: &[Vec<tracecache_repro::vm::Value>],
) {
    let mut warm = TracingVm::new(program, config());
    for a in args {
        warm.run(a)
            .unwrap_or_else(|e| panic!("{name}: warming run failed: {e:?}"));
    }
    let bytes = warm.snapshot();
    let hash = program_hash(program);

    // Decode → re-encode is byte-identical (canonical encoding).
    let snap = SnapshotReader::new()
        .read(&bytes, hash)
        .unwrap_or_else(|e| panic!("{name}: own snapshot must decode: {e}"));
    assert_eq!(snap.to_bytes(), bytes, "{name}: re-encode not canonical");

    // Boot a fresh VM: its own snapshot must be byte-identical — the
    // merged BCG tables and restored trace listings reproduce the image
    // exactly, bit for bit.
    let mut booted = TracingVm::new(program, config());
    let report = booted
        .load_snapshot(&bytes)
        .unwrap_or_else(|e| panic!("{name}: snapshot must load: {e}"));
    assert_eq!(
        booted.snapshot(),
        bytes,
        "{name}: boot → snapshot not bit-identical"
    );
    assert_eq!(
        trace_listing(booted.cache()),
        trace_listing(warm.cache()),
        "{name}: trace listings diverged"
    );
    assert_eq!(
        report.links_installed,
        warm.cache().link_count(),
        "{name}: link count diverged"
    );

    // The booted VM matches the plain interpreter exactly.
    if let Some(a) = args.first() {
        let mut plain = Vm::new(program);
        let want = plain
            .run(a, &mut NullObserver)
            .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e:?}"));
        let got = booted
            .run(a)
            .unwrap_or_else(|e| panic!("{name}: warm-booted run failed: {e:?}"));
        assert_eq!(got.result, want, "{name}: result diverged");
        assert_eq!(got.checksum, plain.checksum(), "{name}: checksum diverged");
        assert_eq!(
            got.exec.instructions,
            plain.stats().instructions,
            "{name}: instruction count diverged"
        );
    }
}

/// All six workloads round-trip losslessly and canonically.
#[test]
fn workloads_round_trip_bit_identically() {
    let workloads = all(Scale::Test);
    assert_eq!(workloads.len(), 6, "registry must hold the six workloads");
    for w in &workloads {
        check_round_trip(w.name, &w.program, std::slice::from_ref(&w.args));
    }
}

/// Seeded fuzz programs round-trip losslessly: the canonical-bytes and
/// boot-reproduces-the-image properties hold beyond the hand-written
/// workloads.
#[test]
fn fuzz_programs_round_trip_bit_identically() {
    for case in 0..fuzz_cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        check_round_trip(&format!("fuzz seed {seed:#x}"), &program, &[args]);
    }
}

/// A snapshot taken after several runs (deep counters, decay activity,
/// possibly quarantined entries) still round-trips bit-identically.
#[test]
fn multi_run_snapshots_round_trip() {
    let w = &all(Scale::Test)[0];
    check_round_trip(
        w.name,
        &w.program,
        &[w.args.clone(), w.args.clone(), w.args.clone()],
    );
}

/// Pins the staleness hash's definition — FNV-1a 64 over the disassembly
/// listing — so a snapshot written by an earlier build keeps loading,
/// and that the program's memo of it travels with clones.
#[test]
fn program_hash_is_fnv1a64_of_the_disassembly_listing() {
    use tracecache_repro::bytecode::{disasm, fnv1a64};
    for w in all(Scale::Test) {
        let unhashed = w.program.clone();
        let want = fnv1a64(disasm::program_to_string(&w.program).as_bytes());
        assert_eq!(program_hash(&w.program), want, "{}", w.name);
        assert_eq!(program_hash(&w.program), want, "{}: asked again", w.name);
        assert_eq!(program_hash(&w.program.clone()), want, "{}: clone", w.name);
        assert_eq!(program_hash(&unhashed), want, "{}: unhashed clone", w.name);
    }
}
