//! Property-based tests over the core data structures and invariants.
//!
//! Offline replacement for the former `proptest` suite: each property is
//! a seeded loop over the in-tree PRNG
//! ([`tracecache_repro::workloads::prng`]), so runs are deterministic
//! and reproducible from the printed seed. Case `k` of a property uses
//! `seed_stream(BASE_SEED, k)` — the workspace-wide seeding convention —
//! so a printed seed reproduces the exact inputs in any harness; every
//! assert message carries it.
//!
//! `cargo test` runs a quick sweep; build with
//! `--features exhaustive-tests` for a deeper one.

use tracecache_repro::bcg::{BcgConfig, BranchCorrelationGraph};
use tracecache_repro::bytecode::{BlockId, CmpOp, FuncId, Intrinsic, Program, ProgramBuilder};
use tracecache_repro::tracecache::{
    ConstructorConfig, TraceCache, TraceConstructor, TraceRuntime, MAX_TRACE_BLOCKS,
    MIN_TRACE_BLOCKS,
};
use tracecache_repro::vm::{NullObserver, Value, Vm};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};

/// Base seed for every property in this file (case `k` uses
/// `seed_stream(BASE_SEED, k)`).
const BASE_SEED: u64 = 0x7070_5eed;

/// Cases per property: quick by default, deep under `exhaustive-tests`.
fn cases() -> u64 {
    if cfg!(feature = "exhaustive-tests") {
        512
    } else {
        64
    }
}

fn blk(b: u32) -> BlockId {
    BlockId::new(FuncId(0), b)
}

/// A program whose entry function has at least `min_blocks` basic blocks,
/// used to give the trace runtime real block lengths.
fn many_block_program(min_blocks: u32) -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, false);
    let b = pb.function_mut(f);
    let exit = b.new_label();
    // A chain of conditional skips creates one block per test.
    for _ in 0..min_blocks {
        b.load(0).if_i(CmpOp::Lt, exit);
        b.nop();
    }
    b.bind(exit);
    b.ret_void();
    pb.build(f).expect("builds")
}

/// The profiler's counters stay internally consistent on arbitrary
/// block streams.
#[test]
fn bcg_invariants_hold_on_random_streams() {
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stream: Vec<u32> = (0..rng.range_usize(1, 2000))
            .map(|_| rng.range_u32(0, 8))
            .collect();
        let delay = rng.range_u32(1, 128);
        let threshold = rng.range_f64(0.5, 1.0);
        let decay = *rng.pick(&[16u32, 64, 256]);

        let mut bcg = BranchCorrelationGraph::new(BcgConfig {
            start_delay: delay,
            threshold,
            decay_interval: decay,
        });
        for &s in &stream {
            bcg.observe(blk(s));
        }
        assert_eq!(
            bcg.stats().dispatches,
            stream.len() as u64,
            "seed {seed:#x}"
        );
        for (_, node) in bcg.iter() {
            let sum: u32 = node.successors().iter().map(|s| u32::from(s.count)).sum();
            assert_eq!(node.total_weight(), sum, "seed {seed:#x}");
            for s in node.successors() {
                let c = node.correlation(s);
                assert!((0.0..=1.0).contains(&c), "seed {seed:#x}: correlation {c}");
            }
            if let Some(p) = node.predicted() {
                assert!(
                    node.successors().iter().any(|s| s.to_block == p.to_block),
                    "seed {seed:#x}"
                );
            }
            if let Some(m) = node.max_successor() {
                assert!(u32::from(m.count) <= node.total_weight(), "seed {seed:#x}");
            }
        }
    }
}

/// Every trace the constructor installs satisfies its completion
/// threshold, length bounds, and entry-link discipline.
#[test]
fn constructed_traces_satisfy_invariants() {
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stream: Vec<u32> = (0..rng.range_usize(200, 3000))
            .map(|_| rng.range_u32(0, 6))
            .collect();
        let threshold = *rng.pick(&[0.90f64, 0.95, 0.97, 0.99]);

        let mut bcg = BranchCorrelationGraph::new(
            BcgConfig::paper_default()
                .with_start_delay(4)
                .with_threshold(threshold),
        );
        let mut cache = TraceCache::new();
        let mut ctor =
            TraceConstructor::new(ConstructorConfig::paper_default().with_threshold(threshold));
        for &s in &stream {
            bcg.observe(blk(s));
            if bcg.has_signals() {
                let sigs = bcg.take_signals();
                ctor.handle_batch(&sigs, &mut bcg, &mut cache);
            }
        }
        for trace in cache.iter_traces() {
            assert!(
                trace.expected_completion() >= threshold - 1e-9,
                "seed {seed:#x}"
            );
            assert!(trace.expected_completion() <= 1.0 + 1e-9, "seed {seed:#x}");
            assert!(trace.len() >= MIN_TRACE_BLOCKS, "seed {seed:#x}");
            assert!(trace.len() <= MAX_TRACE_BLOCKS, "seed {seed:#x}");
        }
        for (entry, trace) in cache.iter_links() {
            assert_eq!(entry.1, trace.blocks()[0], "seed {seed:#x}");
        }
    }
}

/// The trace runtime's accounting balances on arbitrary streams over
/// arbitrary caches.
#[test]
fn runtime_accounting_balances() {
    let program = many_block_program(8);
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stream: Vec<u32> = (0..rng.range_usize(1, 1500))
            .map(|_| rng.range_u32(0, 8))
            .collect();

        let mut cache = TraceCache::new();
        for _ in 0..rng.range_usize(0, 10) {
            let from = rng.range_u32(0, 8);
            let seq: Vec<BlockId> = (0..rng.range_usize(1, 6))
                .map(|_| blk(rng.range_u32(0, 8)))
                .collect();
            cache.insert_and_link((blk(from), seq[0]), &seq, 0.97);
        }
        let mut rt = TraceRuntime::new();
        for &s in &stream {
            rt.on_block(blk(s), &cache, &program);
        }
        rt.finish_stream();
        let st = rt.stats();
        assert_eq!(st.entered, st.completed + st.exited_early, "seed {seed:#x}");
        // Every dispatched block lands in exactly one bucket.
        assert_eq!(
            st.blocks_in_completed + st.blocks_in_partial + st.blocks_outside,
            stream.len() as u64,
            "seed {seed:#x}"
        );
        assert!(
            st.trace_dispatches() <= stream.len() as u64,
            "seed {seed:#x}"
        );
    }
}

/// Conditional-branch bytecode agrees with native comparison semantics
/// for all operators and operands (every operator is swept each case).
#[test]
fn branch_semantics_match_native() {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        // Mix full-range operands with near-equal ones so Eq/Ne/Le/Ge
        // see both outcomes often.
        let a = rng.next_i64();
        let b = if rng.chance(0.25) {
            a.wrapping_add(i64::from(rng.range_u32(0, 3)) - 1)
        } else {
            rng.next_i64()
        };
        for op in ops {
            let mut pb = ProgramBuilder::new();
            let f = pb.declare_function("main", 2, true);
            {
                let fb = pb.function_mut(f);
                let taken = fb.new_label();
                fb.load(0).load(1).if_icmp(op, taken);
                fb.iconst(0).ret();
                fb.bind(taken);
                fb.iconst(1).ret();
            }
            let program = pb.build(f).expect("builds");
            let mut vm = Vm::new(&program);
            let r = vm
                .run(&[Value::Int(a), Value::Int(b)], &mut NullObserver)
                .expect("runs");
            assert_eq!(
                r,
                Some(Value::Int(i64::from(op.eval_i64(a, b)))),
                "seed {seed:#x}: {a} {op:?} {b}"
            );
        }
    }
}

/// Random straight-line arithmetic programs verify and execute with
/// exactly one block dispatch.
#[test]
fn straight_line_programs_verify_and_run() {
    for case in 0..cases() {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let ops: Vec<u8> = (0..rng.range_usize(0, 200))
            .map(|_| rng.range_u32(0, 7) as u8)
            .collect();
        let operand = rng.next_i64();

        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, false);
        let mut depth = 0usize;
        let expected_len;
        {
            let fb = pb.function_mut(f);
            fb.load(0);
            depth += 1;
            for &o in &ops {
                // Only emit ops legal at the current stack depth.
                match o {
                    0 => {
                        fb.iconst(operand ^ 0x5a5a);
                        depth += 1;
                    }
                    1 if depth >= 1 => {
                        fb.dup();
                        depth += 1;
                    }
                    2 if depth >= 2 => {
                        fb.iadd();
                        depth -= 1;
                    }
                    3 if depth >= 2 => {
                        fb.imul();
                        depth -= 1;
                    }
                    4 if depth >= 2 => {
                        fb.ixor();
                        depth -= 1;
                    }
                    5 if depth >= 1 => {
                        fb.ineg();
                    }
                    6 if depth >= 2 => {
                        fb.swap();
                    }
                    _ => {}
                }
            }
            // Drain the stack through the checksum intrinsic.
            while depth > 0 {
                fb.intrinsic(Intrinsic::Checksum);
                depth -= 1;
            }
            fb.ret_void();
            expected_len = fb.len() as u64;
        }
        let program = pb.build(f).expect("straight-line code must verify");
        let mut vm = Vm::new(&program);
        vm.run(&[Value::Int(operand)], &mut NullObserver)
            .expect("runs");
        assert_eq!(vm.stats().block_dispatches, 1, "seed {seed:#x}");
        assert_eq!(vm.stats().instructions, expected_len, "seed {seed:#x}");
    }
}
