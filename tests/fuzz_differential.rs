//! Differential fuzzing: random structured programs executed under the
//! decoded interpreter, the frozen reference interpreter, the
//! trace-monitoring VM, and the trace-executing engine must agree
//! bit-for-bit.
//!
//! Program generation lives in [`tracecache_repro::conformance::genprog`]
//! (shared with the conformance chaos campaigns, so a seed printed by
//! either harness reproduces the identical program in the other).
//! Case seeds come from the workspace-wide
//! [`seed_stream`](tracecache_repro::workloads::prng::seed_stream)
//! convention and every assert carries the seed for reproduction.
//! `--features exhaustive-tests` deepens the sweep.

use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::{TraceJitConfig, TraceVm};
use tracecache_repro::vm::{NullObserver, RecordingObserver, ReferenceVm, Vm};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};

const BASE_SEED: u64 = 0xD1FF_5EED;

fn cases() -> u64 {
    if cfg!(feature = "exhaustive-tests") {
        512
    } else {
        64
    }
}

/// All four executors agree on every generated program.
#[test]
fn engines_agree_on_random_programs() {
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());

        let mut plain = Vm::new(&program);
        let mut plain_stream = RecordingObserver::new();
        let result = plain
            .run(&args, &mut plain_stream)
            .expect("interpreter runs");
        let want = plain.checksum();
        let want_instrs = plain.stats().instructions;

        // The decoded engine must match the frozen reference interpreter
        // bit-for-bit: result, checksum, every statistic, and the entire
        // dispatch stream.
        let mut reference = ReferenceVm::new(&program);
        let mut ref_stream = RecordingObserver::new();
        let ref_result = reference
            .run(&args, &mut ref_stream)
            .expect("reference interpreter runs");
        assert_eq!(result, ref_result, "seed {seed:#x}: result diverged");
        assert_eq!(
            want,
            reference.checksum(),
            "seed {seed:#x}: checksum diverged"
        );
        assert_eq!(
            plain.stats(),
            reference.stats(),
            "seed {seed:#x}: exec stats diverged"
        );
        assert_eq!(
            plain.heap_stats(),
            reference.heap_stats(),
            "seed {seed:#x}: heap stats diverged"
        );
        assert_eq!(
            plain_stream, ref_stream,
            "seed {seed:#x}: dispatch stream diverged"
        );

        // Aggressive tracing parameters to maximise machinery coverage.
        let jit = TraceJitConfig::paper_default()
            .with_start_delay(2)
            .with_threshold(0.90);

        let mut tvm = TraceVm::new(&program, jit);
        let r = tvm.run(&args).expect("trace vm runs");
        assert_eq!(
            r.checksum, want,
            "seed {seed:#x}: trace-monitor VM diverged"
        );
        assert_eq!(r.exec.instructions, want_instrs, "seed {seed:#x}");

        let mut engine = TracingVm::new(
            &program,
            EngineConfig {
                jit,
                ..EngineConfig::paper_default()
            },
        );
        let r = engine.run(&args).expect("engine runs");
        assert_eq!(
            r.checksum, want,
            "seed {seed:#x}: trace-executing engine diverged"
        );
        assert_eq!(r.exec.instructions, want_instrs, "seed {seed:#x}");
    }
}

/// Generated programs at a larger unroll factor still agree.
#[test]
fn unrolling_preserves_semantics_on_random_programs() {
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED ^ 0xA5A5, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 2, 1, 6);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        let unroll = rng.range_usize(0, 5);

        let mut plain = Vm::new(&program);
        plain
            .run(&args, &mut NullObserver)
            .expect("interpreter runs");
        let want = plain.checksum();

        let jit = TraceJitConfig::paper_default()
            .with_start_delay(2)
            .with_threshold(0.90)
            .with_loop_unroll(unroll);
        let mut engine = TracingVm::new(
            &program,
            EngineConfig {
                jit,
                ..EngineConfig::paper_default()
            },
        );
        let r = engine.run(&args).expect("engine runs");
        assert_eq!(r.checksum, want, "seed {seed:#x}: unroll {unroll} diverged");
    }
}
