//! Differential testing of the register-lowered trace path: the engine
//! executes hot traces from three-address virtual-register code, and
//! nothing observable may change — results, checksums, and the exact
//! instruction count must match the plain interpreter bit-for-bit.
//!
//! The workloads and the seeded [`genprog`] corpus are the `Engine` rows
//! of the differential matrix (`tests/matrix.rs`); this suite adds:
//!
//! * a second seeded corpus through the same row;
//! * hand-built side-exit-heavy chaos programs that force every guard
//!   kind to *fail* — conditional, switch, virtual-dispatch and
//!   return-continuation (including the depth-0 recursive-entry case) —
//!   so the register→frame reconstruction at each exit kind is proven
//!   against the interpreter, not just the guard-passes fast path;
//! * the seam between trace and loop on those same programs: a fuel
//!   limit placed at *every* instruction index cuts every hand-off
//!   (trace entry, side exit, the final branch and the loop closing it
//!   makes, in-trace call and return) exactly where it cuts the
//!   interpreter;
//!   in-trace stack overflow, runtime traps and collection agree with
//!   the interpreter's.
//!
//! [`genprog`]: tracecache_repro::conformance::genprog

use tracecache_repro::bytecode::{CmpOp, FunctionBuilder, Intrinsic, Program, ProgramBuilder};
use tracecache_repro::conformance::matrix::{self, Row};
use tracecache_repro::exec::{compile, lower_reg, EngineConfig, RInstr, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, ReferenceVm, Value, Vm, VmError};

const BASE_SEED: u64 = 0xD1FF_5EED ^ 0x4E67;

/// Aggressive tracing so the tiny chaos programs actually trace.
fn chaos_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default()
            .with_start_delay(2)
            .with_threshold(0.90),
    }
}

/// Runs `program` under the plain interpreter and the register-trace
/// engine and asserts bit-exact agreement, returning the engine's trace
/// counters for exit-coverage assertions.
fn assert_reg_matches(
    program: &Program,
    args: &[Value],
    config: EngineConfig,
    label: &str,
) -> (tracecache_repro::tracecache::TraceExecStats, usize) {
    let mut plain = Vm::new(program);
    let want = plain.run(args, &mut NullObserver).unwrap();

    let mut engine = TracingVm::new(program, config);
    let report = engine.run(args).unwrap();
    assert_eq!(report.result, want, "{label}: result diverged");
    assert_eq!(
        report.checksum,
        plain.checksum(),
        "{label}: checksum diverged"
    );
    assert_eq!(
        report.exec.instructions,
        plain.stats().instructions,
        "{label}: register traces must execute the same instruction sequence"
    );
    (report.traces, engine.compiled_count())
}

#[test]
fn reg_engine_matches_interpreter_on_random_programs() {
    let cases = if cfg!(feature = "exhaustive-tests") {
        256
    } else {
        48
    };
    let corpus = matrix::corpus(BASE_SEED, cases);
    matrix::check_all(&corpus, Row::Engine);
}

/// A hot loop whose conditional — `load; load; if_icmp` — flips
/// whenever `i & mask == 0`, closed by `iinc; goto`: traces enter,
/// side-exit and complete many times over.
fn cond_flip_program(mask: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    let t = b.alloc_local();
    let z = b.alloc_local();
    b.iconst(0).store(s).iconst(0).store(z);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let rare = b.new_label();
    let join = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(0).iconst(mask).iand().store(t);
    b.load(t).load(z).if_icmp(CmpOp::Eq, rare);
    b.load(s)
        .iconst(3)
        .imul()
        .load(0)
        .iadd()
        .store(s)
        .goto(join);
    b.bind(rare);
    b.load(s).iconst(31).iadd().store(s).goto(join);
    b.bind(join);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn cond_guard_side_exits_reconstruct_the_frame() {
    let program = cond_flip_program(15);
    let (traces, reg_count) =
        assert_reg_matches(&program, &[Value::Int(4_000)], chaos_config(), "cond-flip");
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// A 15/16-biased tableswitch: the trace guards the dominant arm and
/// must side-exit through the switch guard on the rare selector.
fn switch_flip_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    b.iconst(0).store(s);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let rare = b.new_label();
    let common = b.new_label();
    let join = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(0).iconst(15).iand().table_switch(0, &[rare], common);
    b.bind(rare);
    b.load(s).iconst(999).iadd().store(s).goto(join);
    b.bind(common);
    b.load(s)
        .iconst(5)
        .imul()
        .load(0)
        .iadd()
        .store(s)
        .goto(join);
    b.bind(join);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn switch_guard_side_exits_reconstruct_the_frame() {
    let program = switch_flip_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(4_000)],
        chaos_config(),
        "switch-flip",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// Virtual dispatch whose receiver class flips every 16th iteration,
/// selected branch-free through an array so the *receiver guard* (not an
/// earlier conditional guard) takes the miss. The loop also calls a leaf
/// statically and allocates garbage with a live field write, so traces
/// carry in-trace calls, static and guarded returns, array traffic and
/// allocation points (collection roots).
fn virtual_flip_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.declare_function("leaf", 2, true);
    pb.function_mut(leaf).load(0).load(1).iadd().ret();
    let ma = pb.declare_function("A.m", 1, true);
    pb.function_mut(ma).iconst(17).ret();
    let mb = pb.declare_function("B.m", 1, true);
    pb.function_mut(mb).iconst(91).ret();
    let a = pb.declare_class("A", None, 1);
    let slot = pb.add_method(a, ma);
    let bcls = pb.declare_class("B", None, 1);
    let slot_b = pb.add_method(bcls, mb);
    assert_eq!(slot, slot_b);

    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    let arr = b.alloc_local();
    // arr = [B, A]; arr[1] is the common receiver.
    b.iconst(0).store(s);
    b.iconst(2).new_array().store(arr);
    b.load(arr).iconst(0).new_obj(bcls).astore();
    b.load(arr).iconst(1).new_obj(a).astore();
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(s).load(0).invoke_static(leaf).store(s);
    // idx = ((i & 15) + 15) >> 4  — branch-free: 0 iff (i & 15) == 0.
    b.load(arr);
    b.load(0)
        .iconst(15)
        .iand()
        .iconst(15)
        .iadd()
        .iconst(4)
        .ishr();
    b.aload().invoke_virtual(slot, 1);
    b.load(s).iadd().store(s);
    b.new_obj(a).load(s).put_field(0);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn virtual_guard_side_exits_reconstruct_the_frame() {
    let program = virtual_flip_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(4_000)],
        chaos_config(),
        "virtual-flip",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// A recursive *entry* function: traces form inside the recursion and
/// cross its return (a depth-0 lowering — the trace enters mid-callee
/// with an empty abstract caller). Dispatching the same trace in the
/// outermost frame makes the return guard fire with no caller at all,
/// covering the `frames.len() < 2` exit arm; returning into the
/// wrong-continuation caller covers the mismatch arm.
fn recursive_return_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("f", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let k = b.alloc_local();
    let base = b.new_label();
    b.load(0).if_i(CmpOp::Le, base);
    b.iconst(0).store(acc).iconst(8).store(k);
    let head = b.bind_new_label();
    let done = b.new_label();
    b.load(k).if_i(CmpOp::Le, done);
    b.load(acc).iconst(2).imul().load(k).iadd().store(acc);
    b.load(acc).intrinsic(Intrinsic::Checksum);
    b.iinc(k, -1).goto(head);
    b.bind(done);
    b.load(0).iconst(1).isub().invoke_static(f);
    b.load(acc).iadd().ret();
    b.bind(base);
    b.iconst(0).ret();
    pb.build(f).unwrap()
}

#[test]
fn return_guard_side_exits_reconstruct_the_frame() {
    let program = recursive_return_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(400)],
        chaos_config(),
        "recursive-return",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0, "{traces:?}");
}

/// Every chaos program stays exact across warm re-runs — every guard
/// kind fails again and again against a cache and a register file that
/// earlier runs left behind, which is where stale state would show.
#[test]
fn chaos_programs_survive_warm_runs() {
    for (name, program, n) in [
        ("cond-flip", cond_flip_program(15), 2_000),
        ("switch-flip", switch_flip_program(), 2_000),
        ("virtual-flip", virtual_flip_program(), 2_000),
        ("recursive-return", recursive_return_program(), 200),
    ] {
        let args = [Value::Int(n)];
        let mut plain = Vm::new(&program);
        let want = plain.run(&args, &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, chaos_config());
        for run in 0..3 {
            let report = engine.run(&args).unwrap();
            assert_eq!(report.result, want, "{name} run {run}");
            assert_eq!(report.checksum, plain.checksum(), "{name} run {run}");
            assert_eq!(
                report.exec.instructions,
                plain.stats().instructions,
                "{name} run {run}"
            );
        }
    }
}

/// Everything observable about a finished (or cut) run that must not
/// depend on who executed it.
fn run_state(vm: &Vm<'_>) -> (u64, u64, usize, u64, u64, u64) {
    let s = vm.stats();
    (
        s.instructions,
        vm.checksum(),
        vm.output().len(),
        vm.heap_stats().allocations,
        s.calls,
        s.returns,
    )
}

/// Cuts `program` off at every fuel value from 0 to one past its full
/// instruction count, on the interpreter and on an engine booted with
/// the traces of a full run already linked, and demands the same
/// outcome and the same machine state at every cut. Returns the loop
/// closings of the booted engine's uncut run.
fn assert_fuel_cuts_match(name: &str, program: &Program, args: &[Value]) -> u64 {
    let config = chaos_config();
    let mut warm = TracingVm::new(program, config);
    let full = warm.run(args).unwrap();
    assert!(
        full.traces.completed + full.traces.loop_closings > 0 && full.traces.exited_early > 0,
        "{name}: the warm-up must both complete and side-exit traces: {:?}",
        full.traces
    );
    let snapshot = warm.snapshot();

    let mut closings = 0;
    for fuel in 0..=full.exec.instructions + 1 {
        let mut cut = config;
        cut.jit.vm.max_steps = fuel;
        let mut plain = Vm::with_config(program, cut.jit.vm);
        let want = plain.run(args, &mut NullObserver);
        let mut engine = TracingVm::new(program, cut);
        engine.load_snapshot(&snapshot).unwrap();
        let got = engine.run(args);
        if fuel < full.exec.instructions {
            assert_eq!(want, Err(VmError::OutOfFuel), "{name}: fuel {fuel}");
        }
        assert_eq!(
            got.as_ref().map(|r| r.result).map_err(Clone::clone),
            want,
            "{name}: fuel {fuel}"
        );
        assert_eq!(
            run_state(engine.interpreter()),
            run_state(&plain),
            "{name}: machine state at fuel {fuel}"
        );
        if let Ok(report) = got {
            assert!(report.traces.entered > 0, "{name}: fuel {fuel} ran cold");
            closings = report.traces.loop_closings;
        }
    }
    closings
}

#[test]
fn fuel_cut_at_every_instruction_matches_the_interpreter() {
    let closings = [
        assert_fuel_cuts_match("cond-flip", &cond_flip_program(15), &[Value::Int(70)]),
        assert_fuel_cuts_match("virtual-flip", &virtual_flip_program(), &[Value::Int(40)]),
        assert_fuel_cuts_match(
            "recursive-return",
            &recursive_return_program(),
            &[Value::Int(20)],
        ),
    ];
    // The cuts must also land inside a loop the trace closes itself.
    assert!(
        closings.iter().any(|&c| c > 0),
        "no loop closed: {closings:?}"
    );
}

#[test]
fn in_trace_call_stack_overflow_matches_the_interpreter() {
    let program = recursive_return_program();
    let mut config = chaos_config();
    config.jit.vm.max_frames = 48;

    // Warm the traces below the limit, then recurse through it: the
    // overflowing call is made from inside a trace.
    let mut engine = TracingVm::new(&program, config);
    engine.run(&[Value::Int(40)]).unwrap();
    let mut plain = Vm::with_config(&program, config.jit.vm);
    assert_eq!(
        plain.run(&[Value::Int(400)], &mut NullObserver),
        Err(VmError::CallStackOverflow)
    );
    assert_eq!(
        engine.run(&[Value::Int(400)]).map(|r| r.result),
        Err(VmError::CallStackOverflow)
    );
    let (got, want) = (engine.interpreter().stats(), plain.stats());
    assert_eq!(run_state(engine.interpreter()), run_state(&plain));
    assert_eq!(got.max_frame_depth, want.max_frame_depth);
    assert_eq!(got.branches, want.branches);
    assert!(
        got.block_dispatches * 2 < want.block_dispatches,
        "the recursion must have run in traces: {} vs {} dispatches",
        got.block_dispatches,
        want.block_dispatches
    );
}

/// Locals and the vtable slot a [`trap_loop_program`] body works with.
struct TrapLoop {
    /// The loop counter.
    i: u16,
    /// A two-element array `[null, C object]`.
    pair: u16,
    /// A two-element array `[pair, C object]`.
    mixed: u16,
    /// Vtable slot of `C.m` (one receiver argument, returns 3).
    slot: u16,
}

/// `main(n, lim)`: a counted loop `for i in (lim+1..=n).rev()` that runs
/// `body` — which leaves one int on the stack — then prints and
/// checksums an accumulator, every iteration. The bodies below trap
/// exactly when `i == 0`, so `lim = 0` runs clean and a negative `lim`
/// walks the same (already traced) loop into the trap.
fn trap_loop_program(body: impl FnOnce(&mut FunctionBuilder, &TrapLoop)) -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_function("C.m", 1, true);
    pb.function_mut(m).iconst(3).ret();
    let c = pb.declare_class("C", None, 1);
    let slot = pb.add_method(c, m);
    let f = pb.declare_function("main", 2, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let l = TrapLoop {
        i: 0,
        pair: b.alloc_local(),
        mixed: b.alloc_local(),
        slot,
    };
    b.iconst(0).store(acc);
    b.iconst(2).new_array().store(l.pair);
    b.load(l.pair).iconst(0).const_null().astore();
    b.load(l.pair).iconst(1).new_obj(c).astore();
    b.iconst(2).new_array().store(l.mixed);
    b.load(l.mixed).iconst(0).load(l.pair).astore();
    b.load(l.mixed)
        .iconst(1)
        .load(l.pair)
        .iconst(1)
        .aload()
        .astore();
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(l.i).load(1).if_icmp(CmpOp::Le, exit);
    body(b, &l);
    b.load(acc).iadd().store(acc);
    b.load(acc).intrinsic(Intrinsic::PrintInt);
    b.load(acc).intrinsic(Intrinsic::Checksum);
    b.iinc(l.i, -1).goto(head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

impl TrapLoop {
    /// Pushes `min(i, 1)`: 1 until the loop counter reaches 0.
    fn push_clamped(&self, b: &mut FunctionBuilder) {
        b.load(self.i).iconst(1).intrinsic(Intrinsic::MinI);
    }

    /// Pushes `pair[min(i, 1)]`: the object until `i` reaches 0, then
    /// null.
    fn push_receiver(&self, b: &mut FunctionBuilder) {
        b.load(self.pair);
        self.push_clamped(b);
        b.aload();
    }
}

/// Every trap the operation semantics defines, raised inside a linked
/// trace, leaves the machine exactly where the interpreter leaves it.
/// The engine hands back to the plain decoded streams; the fused
/// handlers' trap paths are the matrix's `Fused` row and
/// `fusion_differential.rs`.
#[test]
fn in_trace_traps_match_the_interpreter() {
    let cases = [
        (
            "division by zero",
            trap_loop_program(|b, l| {
                b.iconst(1000).load(l.i).idiv();
            }),
            VmError::DivisionByZero,
        ),
        (
            "array index out of bounds",
            trap_loop_program(|b, l| {
                // pair[min(i, 1) - 1]: index -1 at i == 0.
                b.load(l.pair);
                l.push_clamped(b);
                b.iconst(1).isub().aload().pop().iconst(1);
            }),
            VmError::IndexOutOfBounds { index: -1, len: 2 },
        ),
        (
            "field access on null",
            trap_loop_program(|b, l| {
                l.push_receiver(b);
                b.get_field(0);
            }),
            VmError::NullPointer,
        ),
        (
            "remainder by zero",
            trap_loop_program(|b, l| {
                b.iconst(1000).load(l.i).irem();
            }),
            VmError::DivisionByZero,
        ),
        (
            "array store out of bounds",
            trap_loop_program(|b, l| {
                // pair[2 - min(i, 1)] = 7: index 2 at i == 0.
                b.load(l.pair).iconst(2);
                l.push_clamped(b);
                b.isub().iconst(7).astore().iconst(1);
            }),
            VmError::IndexOutOfBounds { index: 2, len: 2 },
        ),
        (
            "field access on an array",
            trap_loop_program(|b, l| {
                // mixed[min(i, 1)].0: the array at i == 0.
                b.load(l.mixed);
                l.push_clamped(b);
                b.aload().get_field(0);
            }),
            VmError::TypeError {
                expected: "object",
                found: "array",
            },
        ),
        (
            "array length of an object",
            trap_loop_program(|b, l| {
                // mixed[1 - min(i, 1)].length: the object at i == 0.
                b.load(l.mixed).iconst(1);
                l.push_clamped(b);
                b.isub().aload().array_len();
            }),
            VmError::TypeError {
                expected: "array",
                found: "object",
            },
        ),
        (
            "virtual call on null",
            trap_loop_program(|b, l| {
                l.push_receiver(b);
                b.invoke_virtual(l.slot, 1);
            }),
            VmError::NullPointer,
        ),
        (
            "negative array length",
            trap_loop_program(|b, l| {
                // new [min(i, 1) - 1]: empty until i == 0, then -1.
                l.push_clamped(b);
                b.iconst(1).isub().new_array().array_len();
            }),
            VmError::NegativeArrayLength { len: -1 },
        ),
    ];
    for (name, program, trap) in cases {
        let config = chaos_config();
        let mut plain = Vm::with_config(&program, config.jit.vm);
        let mut engine = TracingVm::new(&program, config);

        // A clean run links the loop's traces; the second run walks the
        // same loop five iterations further, into the trap.
        let clean = [Value::Int(400), Value::Int(0)];
        let want = plain.run(&clean, &mut NullObserver).unwrap();
        let report = engine.run(&clean).unwrap();
        assert_eq!(report.result, want, "{name}: clean run");
        assert!(
            report.traces.completed + report.traces.loop_closings > 100,
            "{name}: {:?}",
            report.traces
        );

        let trapping = [Value::Int(400), Value::Int(-5)];
        assert_eq!(
            plain.run(&trapping, &mut NullObserver),
            Err(trap.clone()),
            "{name}: interpreter"
        );
        assert_eq!(
            engine.run(&trapping).map(|r| r.result),
            Err(trap),
            "{name}: engine"
        );
        let (got, want) = (engine.interpreter(), &plain);
        assert!(
            got.stats().block_dispatches * 3 < want.stats().block_dispatches * 2,
            "{name}: the loop must have run in traces: {} vs {} dispatches",
            got.stats().block_dispatches,
            want.stats().block_dispatches
        );
        assert_eq!(run_state(got), run_state(want), "{name}: machine state");
        assert_eq!(got.output(), want.output(), "{name}: output");
        assert_eq!(got.heap_stats(), want.heap_stats(), "{name}: heap stats");
    }
}

#[test]
fn allocation_storm_collects_exactly_like_the_interpreter() {
    let program = virtual_flip_program();
    let mut config = chaos_config();
    config.jit.vm.gc_threshold = 64;
    let args = [Value::Int(5_000)];

    let mut plain = Vm::with_config(&program, config.jit.vm);
    let want = plain.run(&args, &mut NullObserver).unwrap();
    assert!(plain.heap_stats().collections > 3, "the storm must collect");

    let mut engine = TracingVm::new(&program, config);
    for run in 0..2 {
        let report = engine.run(&args).unwrap();
        assert_eq!(report.result, want, "run {run}");
        assert_eq!(report.checksum, plain.checksum(), "run {run}");
        assert_eq!(
            report.exec.instructions,
            plain.stats().instructions,
            "run {run}"
        );
        assert!(
            report.traces.completed + report.traces.loop_closings > 1_000,
            "run {run}: {:?}",
            report.traces
        );
        assert_eq!(
            engine.interpreter().heap_stats(),
            plain.heap_stats(),
            "run {run}: same allocations, same collections, same survivors"
        );
    }
}

/// A loop closed by a `tableswitch`: its trace is the body unrolled once,
/// and the switch is that trace's last terminator.
fn switch_closed_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    b.iconst(0).store(acc);
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(acc).load(0).iadd().store(acc);
    b.iinc(0, -1).load(0).table_switch(0, &[exit], head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// A loop calling a two-block leaf from two sites. The leaf's return
/// continues at either site, so its last block ends every trace through
/// it: `[c1, leaf…]` and `[c2, head, a, leaf…]`, each ending in the
/// leaf's `return` into the other's first block.
fn return_chained_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.declare_function("leaf", 1, true);
    {
        let b = pb.function_mut(leaf);
        let tail = b.new_label();
        b.load(0).iconst(3).iadd().goto(tail);
        b.bind(tail);
        b.ret();
    }
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    b.iconst(0).store(acc);
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(acc).invoke_static(leaf); // a
    b.iconst(5).ixor().invoke_static(leaf); // c1
    b.store(acc).iinc(0, -1).goto(head); // c2
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// A loop whose virtual call alternates between two receivers picked in
/// the calling block, so the traces through either callee end at that
/// call: `[A.v, cont, head, call]` and `[B.v, cont, head, call]`.
fn call_chained_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let am = pb.declare_function("A.v", 1, true);
    pb.function_mut(am).iconst(1).ret();
    let bm = pb.declare_function("B.v", 1, true);
    pb.function_mut(bm).iconst(2).ret();
    let a = pb.declare_class("A", None, 0);
    let slot = pb.add_method(a, am);
    let bc = pb.declare_class("B", Some(a), 0);
    pb.override_method(bc, slot, bm);
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let objs = b.alloc_local();
    b.iconst(2).new_array().store(objs);
    b.load(objs).iconst(0).new_obj(a).astore();
    b.load(objs).iconst(1).new_obj(bc).astore();
    b.iconst(0).store(acc);
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(objs)
        .load(0)
        .iconst(1)
        .iand()
        .aload()
        .invoke_virtual(slot, 1);
    b.load(acc).iadd().store(acc).iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// A trace whose last block ends in a `tableswitch`, a `return` or a
/// call runs that terminator itself and goes on into the trace linked at
/// the branch it leaves by, without a dispatch: warm, one dispatch
/// enters the loop and every further trace run is a loop closing. Every
/// run matches the reference interpreter, and so does every fuel cut.
#[test]
fn final_switch_return_and_call_go_on_without_dispatching() {
    for (name, program, n) in [
        ("switch-closed", switch_closed_program(), 600),
        ("return-chained", return_chained_program(), 600),
        ("call-chained", call_chained_program(), 600),
    ] {
        let args = [Value::Int(n)];
        let mut reference = ReferenceVm::new(&program);
        let want = reference.run(&args, &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let mut before = engine.run(&args).unwrap().traces;
        for run in 1..4 {
            let report = engine.run(&args).unwrap();
            assert_eq!(report.result, want, "{name} run {run}");
            assert_eq!(report.checksum, reference.checksum(), "{name} run {run}");
            assert_eq!(
                report.exec.instructions,
                reference.stats().instructions,
                "{name} run {run}"
            );
            let (entered, closings) = (
                report.traces.entered - before.entered,
                report.traces.loop_closings - before.loop_closings,
            );
            assert!(entered <= 2, "{name} run {run}: {entered} entries");
            assert!(
                closings * 2 >= n as u64 / 2,
                "{name} run {run}: {closings} closings"
            );
            before = report.traces;
        }
        assert_fuel_cuts_match(name, &program, &[Value::Int(24)]);
    }
}

/// A loop whose trace holds both switch kinds, with different tables: a
/// mid-trace `tableswitch` guard (low −2, two entries) whose
/// out-of-range default is the hot arm and whose two entries, taken 2 of
/// every 32 iterations, side-exit; and a final `tableswitch` (low 5,
/// three entries) whose selector reaches every entry and the default.
/// Both tables live in the trace's one switch pool, so reading either at
/// the other's offset picks a wrong low, length or successor.
fn two_switch_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    b.iconst(0).store(acc);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let (r1, r2, hot, join) = (b.new_label(), b.new_label(), b.new_label(), b.new_label());
    let (odd, far) = (b.new_label(), b.new_label());
    b.load(0).if_i(CmpOp::Le, exit);
    // Selector (i & 31) - 30, in -30..=1: -2 and -1 hit the table.
    b.load(0).iconst(31).iand().iconst(30).isub();
    b.table_switch(-2, &[r1, r2], hot);
    b.bind(r1);
    b.load(acc).iconst(1000).iadd().store(acc).goto(join);
    b.bind(r2);
    b.load(acc).iconst(2000).iadd().store(acc).goto(join);
    b.bind(hot);
    b.load(acc)
        .iconst(3)
        .imul()
        .load(0)
        .iadd()
        .store(acc)
        .goto(join);
    b.bind(join);
    b.load(acc).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1);
    // Selector (i & 3) + 5, in 5..=8: 5 and 7 loop, 6 and 8 take a detour.
    b.load(0).iconst(3).iand().iconst(5).iadd();
    b.table_switch(5, &[head, odd, head], far);
    b.bind(odd);
    b.load(acc).iconst(7).ixor().store(acc).goto(head);
    b.bind(far);
    b.load(acc).iconst(11).iadd().store(acc).goto(head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// Warm, the trace through both switches side-exits only where the
/// guard's own table sends the selector, and every run and every fuel
/// cut matches the reference interpreter.
#[test]
fn both_switch_kinds_read_their_own_tables() {
    let program = two_switch_program();
    let n = 3_200;
    let args = [Value::Int(n)];
    let mut reference = ReferenceVm::new(&program);
    let want = reference.run(&args, &mut NullObserver).unwrap();
    let mut engine = TracingVm::new(&program, chaos_config());
    let mut before = engine.run(&args).unwrap().traces;

    let decoded = engine.decoded();
    let both = engine.cache().iter_traces().any(|trace| {
        let Some(rt) = compile(&program, trace)
            .ok()
            .and_then(|ct| lower_reg(&program, decoded, &ct))
        else {
            return false;
        };
        let switch = |r: &RInstr| match r {
            RInstr::Switch { table, .. } => Some(rt.switches.table(*table)),
            _ => None,
        };
        let Some((last, body)) = rt.code.split_last() else {
            return false;
        };
        let guard = body.iter().find_map(switch);
        let last = switch(last);
        matches!((guard, last), (Some(g), Some(f)) if (g.low, g.targets.len(), f.low, f.targets.len()) == (-2, 2, 5, 3))
    });
    assert!(both, "no trace holds the guard switch and the final switch");

    for run in 1..4 {
        let report = engine.run(&args).unwrap();
        assert_eq!(report.result, want, "run {run}");
        assert_eq!(report.checksum, reference.checksum(), "run {run}");
        assert_eq!(
            report.exec.instructions,
            reference.stats().instructions,
            "run {run}"
        );
        let exited = report.traces.exited_early - before.exited_early;
        assert!(
            exited > 0 && exited <= n as u64 / 16 + 4,
            "run {run}: {exited} side exits"
        );
        before = report.traces;
    }
    assert_fuel_cuts_match("two-switch", &program, &[Value::Int(64)]);
}
