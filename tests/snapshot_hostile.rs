//! Hostile-input battery for the snapshot decoder.
//!
//! Contract under attack: the snapshot reader is **total** — every
//! mutation of valid snapshot bytes (bit flips, truncations, section
//! swaps, hostile length fields) yields a clean
//! [`SnapshotError`](tracecache_repro::persist::SnapshotError), never a
//! panic and never a silently accepted corrupt snapshot.
//!
//! The campaign machinery lives in
//! [`tracecache_repro::conformance::snapshot`]; this suite points it at
//! snapshots of real warmed workloads and generated fuzz programs, in
//! release CI at full scale. The planted
//! [`Quirk::StaleSnapshotAccepted`] trio proves the battery is not
//! vacuous: a reader whose program-hash check is disabled *does* get
//! caught, by exactly the mutants that rewrite the hash field.

use tracecache_repro::bytecode::{BlockId, FuncId};
use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::conformance::snapshot::{
    must_reject, reader_with_quirk, run_snapshot_campaign, stale_hash_mutants,
};
use tracecache_repro::conformance::Quirk;
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::persist::{program_hash, Snapshot, SnapshotError, SnapshotReader};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::registry::{all, Scale};

const BASE_SEED: u64 = 0xB05_711E;

fn mutants_per_source() -> usize {
    if cfg!(feature = "exhaustive-tests") {
        1024
    } else {
        256
    }
}

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

fn warmed_snapshot(
    program: &tracecache_repro::bytecode::Program,
    args: &[tracecache_repro::vm::Value],
) -> (Vec<u8>, u64) {
    let mut vm = TracingVm::new(program, config());
    vm.run(args).expect("warming run");
    (vm.snapshot(), program_hash(program))
}

/// ≥256 mutants per workload snapshot: zero panics, zero silent
/// acceptances, every differing mutant rejected.
#[test]
fn workload_snapshots_survive_the_campaign() {
    for (i, w) in all(Scale::Test).iter().enumerate() {
        let (bytes, hash) = warmed_snapshot(&w.program, &w.args);
        let report = run_snapshot_campaign(
            &bytes,
            hash,
            &SnapshotReader::new(),
            seed_stream(BASE_SEED, i as u64),
            mutants_per_source(),
        );
        assert!(report.is_clean(), "{}: {report:?}", w.name);
        assert_eq!(
            report.rejected, report.mutants_run,
            "{}: every differing mutant must be rejected: {report:?}",
            w.name
        );
        assert!(
            report.mutants_run >= mutants_per_source() - report.identical_skipped,
            "{}: campaign under-ran: {report:?}",
            w.name
        );
    }
}

/// The battery holds beyond hand-written workloads: snapshots of seeded
/// fuzz programs survive it too.
#[test]
fn fuzz_program_snapshots_survive_the_campaign() {
    for case in 0..4u64 {
        let seed = seed_stream(BASE_SEED ^ 0xF022, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        let (bytes, hash) = warmed_snapshot(&program, &args);
        let report = run_snapshot_campaign(
            &bytes,
            hash,
            &SnapshotReader::new(),
            seed,
            mutants_per_source() / 4,
        );
        assert!(report.is_clean(), "fuzz seed {seed:#x}: {report:?}");
        assert_eq!(report.rejected, report.mutants_run, "fuzz seed {seed:#x}");
    }
}

/// Planted-quirk regression trio: three mutants that differ from a valid
/// snapshot only in the program-hash field. The strict reader rejects
/// each with `StaleProgram`; the quirky reader (hash check disabled —
/// [`Quirk::StaleSnapshotAccepted`]) silently accepts all three, which
/// is precisely the failure mode the battery exists to catch.
#[test]
fn stale_snapshot_quirk_is_caught() {
    let w = &all(Scale::Test)[0];
    let (bytes, hash) = warmed_snapshot(&w.program, &w.args);
    let trio = stale_hash_mutants(&bytes, 0x5A1E_5A1E);
    assert_eq!(trio.len(), 3);

    let strict = SnapshotReader::new();
    let quirky = reader_with_quirk(Some(Quirk::StaleSnapshotAccepted));
    let mut silently_accepted = 0;
    for (i, m) in trio.iter().enumerate() {
        match must_reject(&strict, m, hash) {
            Ok(SnapshotError::StaleProgram { expected, found }) => {
                assert_eq!(expected, hash, "mutant {i}");
                assert_ne!(found, hash, "mutant {i}");
            }
            other => panic!("mutant {i}: strict reader must report StaleProgram, got {other:?}"),
        }
        if quirky.read(m, hash).is_ok() {
            silently_accepted += 1;
        }
    }
    assert_eq!(
        silently_accepted, 3,
        "the planted quirk must silently accept the whole trio — \
         if this fails the battery can no longer detect a missing hash check"
    );
}

/// Not a mutant but a forgery: a re-checksummed container whose first
/// trace has completion zero — outside the cache's `(0, 1]` invariant —
/// must be refused as malformed and leave the VM cold.
#[test]
fn forged_zero_completion_snapshot_is_refused_by_the_vm() {
    let w = &all(Scale::Test)[0];
    let (bytes, hash) = warmed_snapshot(&w.program, &w.args);
    let mut snap = SnapshotReader::new()
        .read(&bytes, hash)
        .expect("own snapshot reads");
    assert!(!snap.cache.links.is_empty(), "warming must link traces");
    snap.cache.traces[0].completion_bits = 0;
    let mut vm = TracingVm::new(&w.program, config());
    let err = vm.load_snapshot(&snap.to_bytes()).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Malformed { .. }),
        "got {err:?}"
    );
    assert_eq!(vm.cache().trace_count(), 0);
    assert_eq!(vm.cache().link_count(), 0);
    assert_eq!(vm.compiled_count(), 0);
}

/// Ids the branch-key packer cannot hold: it keeps 16 bits per id and
/// reserves all-ones.
const WIDE_IDS: [u32; 3] = [0xFFFF, 0x1_0000, u32::MAX];

/// `b` with its function id (`field` 0) or block index (`field` 1) set
/// to `id`.
fn widen(b: BlockId, field: usize, id: u32) -> BlockId {
    if field == 0 {
        BlockId::new(FuncId(id), b.block)
    } else {
        BlockId::new(b.func, id)
    }
}

/// Forgeries, not mutants: re-checksummed containers with one block id
/// out of the 16-bit range — in a profile node's branch, a successor, a
/// trace's blocks or a link's entry — are refused as malformed by the
/// reader and by a VM's warm boot, never a panic, and leave the VM cold.
#[test]
fn wide_id_snapshots_are_refused_without_panicking() {
    for w in all(Scale::Test).iter().take(3) {
        let (bytes, hash) = warmed_snapshot(&w.program, &w.args);
        let snap = SnapshotReader::new()
            .read(&bytes, hash)
            .expect("own snapshot reads");
        let with_succ = snap
            .bcg
            .nodes
            .iter()
            .position(|n| !n.successors.is_empty())
            .expect("warming must profile edges");
        assert!(
            !snap.cache.links.is_empty(),
            "{}: warming must link traces",
            w.name
        );
        let mut forgeries: Vec<(String, Snapshot)> = Vec::new();
        for id in WIDE_IDS {
            for field in 0..2 {
                let mut f = snap.clone();
                f.bcg.nodes[0].branch.0 = widen(f.bcg.nodes[0].branch.0, field, id);
                forgeries.push((format!("node from, field {field}, id {id:#x}"), f));
                let mut f = snap.clone();
                f.bcg.nodes[0].branch.1 = widen(f.bcg.nodes[0].branch.1, field, id);
                forgeries.push((format!("node to, field {field}, id {id:#x}"), f));
                let mut f = snap.clone();
                let s = &mut f.bcg.nodes[with_succ].successors[0];
                s.to_block = widen(s.to_block, field, id);
                forgeries.push((format!("successor, field {field}, id {id:#x}"), f));
                let mut f = snap.clone();
                let last = f.cache.traces[0].blocks.last_mut().unwrap();
                *last = widen(*last, field, id);
                forgeries.push((format!("trace block, field {field}, id {id:#x}"), f));
                let mut f = snap.clone();
                f.cache.links[0].0 .0 = widen(f.cache.links[0].0 .0, field, id);
                forgeries.push((format!("link from, field {field}, id {id:#x}"), f));
                let mut f = snap.clone();
                f.cache.links[0].0 .1 = widen(f.cache.links[0].0 .1, field, id);
                forgeries.push((format!("link to, field {field}, id {id:#x}"), f));
            }
        }
        for (what, forged) in forgeries {
            let forged = forged.to_bytes();
            let read = SnapshotReader::new().read(&forged, hash);
            assert!(
                matches!(read, Err(SnapshotError::Malformed { .. })),
                "{}, {what}: reader gave {read:?}",
                w.name
            );
            let mut vm = TracingVm::new(&w.program, config());
            let boot = vm.load_snapshot(&forged);
            assert!(
                matches!(boot, Err(SnapshotError::Malformed { .. })),
                "{}, {what}: warm boot gave {boot:?}",
                w.name
            );
            assert_eq!(vm.cache().link_count(), 0, "{}, {what}", w.name);
            assert_eq!(vm.compiled_count(), 0, "{}, {what}", w.name);
        }
    }
}

/// No partial state on rejection: a VM that refuses a mutant snapshot
/// is left exactly as it was — empty profiler-visible cache, nothing
/// pre-built.
#[test]
fn rejected_mutants_apply_no_partial_state() {
    let w = &all(Scale::Test)[0];
    let (bytes, _) = warmed_snapshot(&w.program, &w.args);
    for k in 0..32u64 {
        let (mutant, _) = tracecache_repro::conformance::snapshot::mutate(
            &bytes,
            seed_stream(BASE_SEED ^ 0xAB, 0),
            k,
        );
        if mutant == bytes {
            continue;
        }
        let mut vm = TracingVm::new(&w.program, config());
        if vm.load_snapshot(&mutant).is_err() {
            assert_eq!(vm.cache().trace_count(), 0, "mutant {k} left cache state");
            assert_eq!(vm.cache().link_count(), 0, "mutant {k} left links");
            assert_eq!(vm.compiled_count(), 0, "mutant {k} left artifacts");
        }
    }
}
