//! Fusion differential suite: the decoded interpreter with
//! profile-driven superinstruction fusion
//! ([`jvm_vm::fuse`](tracecache_repro::vm::fuse)) against the frozen
//! [`ReferenceVm`](tracecache_repro::vm::ReferenceVm) oracle — zero
//! divergence allowed.
//!
//! * parity: the `Fused` row of the differential matrix
//!   (`tests/matrix.rs`) compares result, checksum, captured output, heap counters, every
//!   `ExecStats` field (`instructions` counts each *constituent* of a
//!   fused group) and the entire dispatch stream, on the six workloads
//!   and on this suite's seeded corpus;
//! * fuel semantics: `OutOfFuel` fires at exactly the reference
//!   instruction count even when the budget runs out *inside* a fused
//!   group, with identical partial statistics;
//! * selection is profile-driven (different workloads choose different
//!   pattern sets);
//! * a planted mis-fused block boundary
//!   ([`FuseQuirk::FuseAcrossBlockBoundary`]) is caught — testing the
//!   testers.

use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::conformance::matrix::{self, Row};
use tracecache_repro::vm::fuse::FuseQuirk;
use tracecache_repro::vm::{
    BlockCounts, FusionConfig, RecordingObserver, ReferenceVm, Vm, VmConfig,
};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::registry::{self, Scale};

const BASE_SEED: u64 = 0xF05E_5EED;

/// Profiles one run of `vm`, fuses with `cfg`, and returns the rewrite
/// report.
fn profile_and_fuse(
    vm: &mut Vm,
    args: &[tracecache_repro::vm::Value],
    cfg: &FusionConfig,
) -> tracecache_repro::vm::FusionReport {
    let mut counts = BlockCounts::for_program(vm.program());
    vm.run(args, &mut counts).expect("profiling run succeeds");
    vm.fuse_with_profile(counts, cfg)
}

/// Default selection on the workloads; the thresholds must fuse
/// something at test scale.
#[test]
fn fused_interpreter_matches_reference_on_all_six_workloads() {
    let cases = matrix::workloads();
    let cells = matrix::check_all(&cases, Row::Fused);
    assert!(
        cells.iter().any(|(_, cell)| cell.runs[0].fused_heads > 0),
        "default thresholds must fuse something at test scale"
    );
}

/// Seeded structured fuzz with every statically fusible site fused
/// (aggressive selection, so rare patterns get coverage too).
#[test]
fn fused_interpreter_matches_reference_on_random_programs() {
    let cases = if cfg!(feature = "exhaustive-tests") {
        256
    } else {
        48
    };
    matrix::check_all(&matrix::corpus(BASE_SEED, cases), Row::Fused);
}

/// Different workloads must select different fusion sets: the selection
/// is driven by the measured profile, not a hand-picked static table.
#[test]
fn selection_is_profile_driven_across_workloads() {
    let mut sets = Vec::new();
    for w in registry::all(Scale::Small) {
        let mut vm = Vm::new(&w.program);
        let report = profile_and_fuse(&mut vm, &w.args, &FusionConfig::default());
        assert!(
            report.fused() > 0,
            "{}: expected fusions at small scale",
            w.name
        );
        sets.push((w.name, report.selected_union()));
    }
    let distinct: std::collections::HashSet<_> =
        sets.iter().map(|(_, names)| names.clone()).collect();
    assert!(
        distinct.len() >= 2,
        "workloads must not all select the same fusion set: {sets:?}"
    );
}

/// Fuel parity: cutting the budget at every interesting point — *inside*
/// fused groups included — must produce `OutOfFuel` at exactly the
/// reference instruction count, with identical partial statistics.
#[test]
fn fuel_runs_out_at_identical_instruction_counts() {
    for case in 0..8u64 {
        let seed = seed_stream(BASE_SEED ^ 0xF0E1, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());

        // Learn the full instruction count (and the fusion profile)
        // with an uncut run, then cut the budget at a spread of points;
        // consecutive cuts straddle every fused group at least once.
        let mut counts = BlockCounts::for_program(&program);
        let mut probe = Vm::new(&program);
        if probe.run(&args, &mut counts).is_err() {
            continue;
        }
        let total = probe.stats().instructions;
        if total < 4 {
            continue;
        }
        let mut cuts = vec![1, 2, 3, total / 2, total - 2, total - 1];
        cuts.dedup();
        for cut in cuts {
            let cfg = VmConfig {
                max_steps: cut,
                ..VmConfig::default()
            };
            let mut reference = ReferenceVm::with_config(&program, cfg);
            let ref_result = reference.run(&args, &mut tracecache_repro::vm::NullObserver);

            let mut fused = Vm::with_config(&program, cfg);
            let report = fused.fuse_with_profile(counts.clone(), &FusionConfig::aggressive());
            let _ = report;
            let fused_result = fused.run(&args, &mut tracecache_repro::vm::NullObserver);

            assert_eq!(
                fused_result, ref_result,
                "seed {seed:#x} cut {cut}: error diverged"
            );
            assert_eq!(
                fused.stats(),
                reference.stats(),
                "seed {seed:#x} cut {cut}: partial stats diverged"
            );
        }
    }
}

/// Testing the testers: a deliberately mis-fused block boundary (a
/// group that swallows an `ENTER_BLOCK` marker) must be caught by the
/// differential's dispatch-stream and stats comparison.
#[test]
fn planted_boundary_quirk_is_caught() {
    use tracecache_repro::bytecode::{CmpOp, ProgramBuilder};
    use tracecache_repro::vm::Value;

    // main(x): a fall-through block that ends in a bare `load` feeding
    // the merge block — exactly the shape the quirk mis-fuses.
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    {
        let b = pb.function_mut(f);
        let other = b.new_label();
        let merge = b.new_label();
        b.load(0).if_i(CmpOp::Gt, other);
        b.load(0); // block ends here; falls through into `merge`
        b.bind(merge);
        b.iconst(1).iadd().ret();
        // The deeper expression here keeps the verified max_stack above
        // what the mis-fused group needs, so the quirk shows up as
        // divergence rather than a frame overflow.
        b.bind(other);
        b.load(0).iconst(1).iconst(2).iadd().iadd().goto(merge);
    }
    let program = pb.build(f).expect("program builds");
    let args = [Value::Int(-3)]; // takes the fall-through path

    let mut reference = ReferenceVm::new(&program);
    let mut ref_stream = RecordingObserver::new();
    let ref_result = reference.run(&args, &mut ref_stream).expect("runs");

    let mut quirky = Vm::new(&program);
    assert!(
        quirky.plant_fuse_quirk(FuseQuirk::FuseAcrossBlockBoundary),
        "the program must offer a load-before-marker site"
    );
    let mut quirky_stream = RecordingObserver::new();
    let quirky_result = quirky.run(&args, &mut quirky_stream);

    // The harness catches the bug: the swallowed marker loses a block
    // dispatch, so the stream and stats comparisons both fire.
    let diverged = quirky_result != Ok(ref_result)
        || quirky_stream != ref_stream
        || quirky.stats() != reference.stats();
    assert!(
        diverged,
        "a fused group crossing a block boundary must be detected"
    );
    assert_ne!(
        quirky_stream.blocks.len(),
        ref_stream.blocks.len(),
        "the swallowed marker must drop a dispatch from the stream"
    );
}
