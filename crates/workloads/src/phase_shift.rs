//! Phase-shift workload: a hot loop whose dominant branch bias flips at
//! a configurable dispatch count.
//!
//! Before the flip the guard `r < thresh` is taken ~95% of the time, so
//! the trace machinery builds and serves a trace along the hot arm.
//! After the flip the same branch is taken only ~5% of the time: every
//! dispatch of the old trace now side-exits at its first guard. This is
//! exactly the *pathological trace* the retention rule exists for — a
//! trace that was correct when built and whose behavior rotted
//! under it — and the workload family is the fixture the chaos
//! campaigns, the warm-boot staleness regression and the `phase_shift`
//! bench leg all drive.
//!
//! The flip point is a **program argument**, not a compile-time
//! constant: `phase_shift`, `phase_shift_early` and `phase_shift_late`
//! at the same scale share one program (and therefore one program
//! hash), so a snapshot captured under one phase profile loads into a
//! differently-phased run — the staleness scenario the persist layer
//! must survive.

use jvm_bytecode::{CmpOp, Intrinsic, Program, ProgramBuilder};
use jvm_vm::{fold_checksum, Value};

use crate::lcg::{emit_lcg_sample, emit_lcg_step, lcg_next, lcg_sample};
use crate::registry::{Scale, Workload};

/// LCG seed baked into the program (input is generated in-program, as
/// in every other workload).
const SEED: i64 = 424242;
/// Guard bias before the flip: `r < 95` of 100 — strongly taken.
const HOT_THRESH: i64 = 95;
/// Guard bias after the flip: `r < 5` of 100 — strongly not-taken.
const COLD_THRESH: i64 = 5;

fn iterations(scale: Scale) -> i64 {
    match scale {
        Scale::Test => 6_000,
        Scale::Small => 200_000,
        Scale::Paper => 2_000_000,
    }
}

/// Builds the canonical variant: bias flips at the halfway point.
pub fn build(scale: Scale) -> Workload {
    build_variant(
        scale,
        "phase_shift",
        "biased branch flips from 95% to 5% taken at n/2",
        |n| n / 2,
    )
}

/// Early flip (n/4): most of the run executes *after* the shift, so
/// demotion latency dominates the measurement.
pub fn build_early(scale: Scale) -> Workload {
    build_variant(
        scale,
        "phase_shift_early",
        "biased branch flips from 95% to 5% taken at n/4",
        |n| n / 4,
    )
}

/// Late flip (3n/4): the trace earns a long healthy history before it
/// rots, stressing the EWMA's forgetting rate.
pub fn build_late(scale: Scale) -> Workload {
    build_variant(
        scale,
        "phase_shift_late",
        "biased branch flips from 95% to 5% taken at 3n/4",
        |n| 3 * n / 4,
    )
}

fn build_variant(
    scale: Scale,
    name: &'static str,
    description: &'static str,
    flip_of: fn(i64) -> i64,
) -> Workload {
    let n = iterations(scale);
    let flip = flip_of(n);
    Workload {
        name,
        description,
        program: build_program(),
        args: vec![Value::Int(n), Value::Int(flip)],
        expected_checksum: reference_checksum(n, flip),
    }
}

/// The program text is independent of scale and flip point — both ride
/// in as arguments — so every variant of the family shares one program
/// hash.
fn build_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let phases = pb.declare_function("phases", 2, true);
    let main = pb.declare_function("main", 2, false);

    // phases(n, flip) -> sum.
    {
        let b = pb.function_mut(phases);
        let (len, flip) = (0u16, 1u16);
        let state = b.alloc_local();
        let sum = b.alloc_local();
        let i = b.alloc_local();
        let r = b.alloc_local();
        let thresh = b.alloc_local();
        b.iconst(SEED).store(state);
        b.iconst(0).store(sum).iconst(0).store(i);

        let head = b.bind_new_label();
        let exit = b.new_label();
        let late = b.new_label();
        let cmp = b.new_label();
        let cold = b.new_label();
        let fold = b.new_label();
        b.load(i).load(len).if_icmp(CmpOp::Ge, exit);
        // r = lcg draw in [0, 100).
        emit_lcg_step(b, state);
        emit_lcg_sample(b, state, 100);
        b.store(r);
        // thresh = i < flip ? HOT : COLD — the phase branch.
        b.load(i).load(flip).if_icmp(CmpOp::Ge, late);
        b.iconst(HOT_THRESH).store(thresh).goto(cmp);
        b.bind(late);
        b.iconst(COLD_THRESH).store(thresh);
        b.bind(cmp);
        // The guard whose bias rots: r < thresh.
        b.load(r).load(thresh).if_icmp(CmpOp::Ge, cold);
        // Hot arm: sum += i*3 + r.
        b.load(sum)
            .load(i)
            .iconst(3)
            .imul()
            .iadd()
            .load(r)
            .iadd()
            .store(sum);
        b.goto(fold);
        // Cold arm: sum += r*7 - i.
        b.bind(cold);
        b.load(sum)
            .load(r)
            .iconst(7)
            .imul()
            .iadd()
            .load(i)
            .isub()
            .store(sum);
        b.bind(fold);
        // Fold every iteration: a strong oracle — any divergence in any
        // iteration's arm choice changes the final checksum.
        b.load(sum).intrinsic(Intrinsic::Checksum);
        b.iinc(i, 1).goto(head);

        b.bind(exit);
        b.load(sum).ret();
    }

    // main(n, flip): phases(n, flip), checksum the result.
    {
        let b = pb.function_mut(main);
        b.load(0).load(1).invoke_static(phases);
        b.intrinsic(Intrinsic::Checksum);
        b.ret_void();
    }

    pb.build(main).expect("phase_shift workload builds")
}

/// Reference implementation: replays the identical arithmetic in Rust.
pub fn reference_checksum(n: i64, flip: i64) -> u64 {
    let mut state = SEED;
    let mut sum = 0i64;
    let mut checksum = 0u64;
    for i in 0..n {
        state = lcg_next(state);
        let r = lcg_sample(state, 100);
        let thresh = if i < flip { HOT_THRESH } else { COLD_THRESH };
        if r < thresh {
            sum = sum + i * 3 + r;
        } else {
            sum = sum + r * 7 - i;
        }
        checksum = fold_checksum(checksum, sum);
    }
    fold_checksum(checksum, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_vm::{NullObserver, Vm};

    #[test]
    fn bytecode_matches_reference_on_all_variants() {
        for w in [
            build(Scale::Test),
            build_early(Scale::Test),
            build_late(Scale::Test),
        ] {
            let mut vm = Vm::new(&w.program);
            vm.run(&w.args, &mut NullObserver).expect("runs");
            assert_eq!(vm.checksum(), w.expected_checksum, "{}", w.name);
            assert!(vm.stats().instructions > 10_000);
        }
    }

    #[test]
    fn variants_share_one_program_and_differ_only_in_args() {
        let (a, b, c) = (
            build(Scale::Test),
            build_early(Scale::Test),
            build_late(Scale::Test),
        );
        // Same program text ⇒ same snapshot hash domain (the warm-boot
        // staleness test depends on this).
        assert_eq!(
            trace_persist::program_hash(&a.program),
            trace_persist::program_hash(&b.program)
        );
        assert_eq!(
            trace_persist::program_hash(&a.program),
            trace_persist::program_hash(&c.program)
        );
        assert_ne!(a.args, b.args);
        assert_ne!(b.args, c.args);
        assert_ne!(a.expected_checksum, b.expected_checksum);
    }

    #[test]
    fn bias_actually_flips() {
        // Count hot-arm hits on each side of the flip in the reference
        // replay: strongly biased before, strongly anti-biased after.
        let n = iterations(Scale::Test);
        let flip = n / 2;
        let mut state = SEED;
        let (mut hot_before, mut hot_after) = (0i64, 0i64);
        for i in 0..n {
            state = lcg_next(state);
            let r = lcg_sample(state, 100);
            let thresh = if i < flip { HOT_THRESH } else { COLD_THRESH };
            if r < thresh {
                if i < flip {
                    hot_before += 1;
                } else {
                    hot_after += 1;
                }
            }
        }
        assert!(
            hot_before * 10 > flip * 8,
            "pre-flip hot arm must dominate: {hot_before}/{flip}"
        );
        assert!(
            hot_after * 10 < (n - flip) * 2,
            "post-flip hot arm must be rare: {hot_after}/{}",
            n - flip
        );
    }
}
