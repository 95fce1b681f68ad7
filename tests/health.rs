//! Trace-retention integration suite: the one retention rule — a trace
//! that leaves early `STREAK_LIMIT` times in a row is quarantined —
//! driven through the full engine.
//!
//! A phase-shift workload builds a trace along a 95%-taken guard arm,
//! then flips the bias to 5% mid-run: the trace is correct but rotten.
//! The streak must quarantine it and the constructor must rebuild along
//! the new hot arm, with the run bit-exact with the interpreter oracle.
//! Planted traces, booted from a snapshot into a VM whose profiler never
//! signals (no constructor runs, so nothing but the rule moves a link),
//! pin where the rule counts: per trace, at any guard, and at exactly
//! the limit.

use tracecache_repro::bcg::BranchCorrelationGraph;
use tracecache_repro::bytecode::{BlockId, CmpOp, Program, ProgramBuilder};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::{RunReport, TraceJitConfig};
use tracecache_repro::persist::{program_hash, Snapshot};
use tracecache_repro::tracecache::{TraceCache, STREAK_LIMIT};
use tracecache_repro::vm::{NullObserver, Value, Vm};
use tracecache_repro::workloads::registry;
use tracecache_repro::workloads::{Scale, Workload};

/// Aggressive tracing parameters so test-scale programs trace well
/// before the phase flip (same tunables as the snapshot suite).
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

fn variants() -> [Workload; 3] {
    [
        registry::phase_shift(Scale::Test),
        registry::phase_shift_early(Scale::Test),
        registry::phase_shift_late(Scale::Test),
    ]
}

/// The interpreter oracle for one workload: result, checksum,
/// instruction count.
fn oracle(w: &Workload) -> (Option<tracecache_repro::vm::Value>, u64, u64) {
    let mut plain = Vm::new(&w.program);
    let result = plain
        .run(&w.args, &mut NullObserver)
        .unwrap_or_else(|e| panic!("{}: interpreter failed: {e:?}", w.name));
    (result, plain.checksum(), plain.stats().instructions)
}

#[test]
fn phase_shift_demotes_the_rotten_traces_and_matches_the_oracle() {
    for w in variants() {
        let (want, want_sum, want_instrs) = oracle(&w);
        let mut vm = TracingVm::new(&w.program, config());
        let report = vm
            .run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        let hs = vm.health_stats();
        eprintln!(
            "{}: quarantined={} demotions={} readmitted={} escalations={} \
             entered={} completed={} exited_early={}",
            w.name,
            report.cache.traces_quarantined,
            hs.demotions,
            hs.readmitted_watched,
            hs.cooldown_escalations,
            report.traces.entered,
            report.traces.completed,
            report.traces.exited_early,
        );

        // Bit-exact with the interpreter, demotions and all.
        assert_eq!(report.result, want, "{}: result diverged", w.name);
        assert_eq!(report.checksum, want_sum, "{}: checksum diverged", w.name);
        assert_eq!(
            report.exec.instructions, want_instrs,
            "{}: instruction count diverged",
            w.name
        );

        // The rotten trace was removed, by the rule.
        assert!(
            report.cache.traces_quarantined >= 1,
            "{}: the rotten trace was never quarantined",
            w.name
        );
        assert!(hs.demotions >= 1, "{}: the streak never fired", w.name);
        // The post-flip hot arm was rebuilt and runs to completion.
        assert!(
            report.traces.completed > 0,
            "{}: nothing completed after the flip",
            w.name
        );
    }
}

#[test]
fn health_on_is_the_default_and_reports_no_degradation() {
    let w = registry::phase_shift(Scale::Test);
    let mut vm = TracingVm::new(&w.program, config());
    vm.run(&w.args).expect("run succeeds");
    assert_eq!(vm.degraded_reason(), None, "healthy run must not degrade");
}

/// The anti-flap at engine scale: the rule may demote each rotten trace
/// once (and again, on a longer cooldown, on a genuine re-rot), but must
/// not flap — the demotion count stays within a small multiple of the
/// distinct entries that ever misbehaved.
#[test]
fn demotions_are_bounded_no_flapping() {
    for w in variants() {
        let mut vm = TracingVm::new(&w.program, config());
        vm.run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        let hs = vm.health_stats();
        assert!(
            hs.demotions <= 8,
            "{}: {} demotions looks like flapping",
            w.name,
            hs.demotions
        );
    }
}

/// The six paper workloads have stable branch behavior: the rule
/// demotes (at most) the odd marginal trace — mpegaudio and soot carry
/// a couple of borderline entries at the aggressive 0.90 admission
/// threshold.
#[test]
fn steady_workloads_are_barely_demoted() {
    for w in registry::all(Scale::Test) {
        let mut vm = TracingVm::new(&w.program, config());
        let report = vm
            .run(&w.args)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name));
        assert_eq!(report.checksum, w.expected_checksum, "{}", w.name);
        let hs = vm.health_stats();
        eprintln!(
            "{}: demotions={} probations={}",
            w.name, hs.demotions, hs.probations
        );
        assert_eq!(hs.probations, 0, "{}: there is no probation", w.name);
        assert!(
            hs.demotions <= 3,
            "{}: {} demotions on a steady workload",
            w.name,
            hs.demotions
        );
    }
}

/// A tombstoned trace can never be entered again (ids are not reused),
/// so the engine must not keep its lowered code: after demotions and
/// quarantines, what the VM can dispatch is bounded by what is alive in
/// the cache. (Paper-default tunables: every live trace of these
/// programs gets entered, so a dead artifact shows as an excess.)
#[test]
fn tombstoned_traces_free_their_lowered_code() {
    for w in variants() {
        let mut vm = TracingVm::new(&w.program, EngineConfig::paper_default());
        let mut evicted = 0;
        for _ in 0..2 {
            evicted = vm
                .run(&w.args)
                .unwrap_or_else(|e| panic!("{}: engine run failed: {e:?}", w.name))
                .cache
                .traces_evicted;
        }
        assert!(evicted > 0, "{}: the flip tombstoned nothing", w.name);
        let alive = vm
            .cache()
            .iter_traces()
            .filter(|t| !t.blocks().is_empty())
            .count();
        assert!(
            vm.compiled_count() <= alive,
            "{}: {} lowered traces held for {alive} live ones ({evicted} tombstoned)",
            w.name,
            vm.compiled_count()
        );
    }
}

/// `main(n, flip)`: a counted loop whose body first passes a guard that
/// always holds (`n < 0` is never taken), then takes arm A while
/// `n >= flip` and arm B after. Blocks: b1 loop head, b2 the steady
/// guard, b3 the flipping branch, b4 arm A, b5 arm B, b6 latch.
fn flipping_loop() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 2, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    b.iconst(0).store(acc);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let second = b.new_label();
    let cont = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(0).if_i(CmpOp::Lt, exit);
    b.load(0).load(1).if_icmp(CmpOp::Lt, second);
    b.load(acc).iconst(2).iadd().store(acc).goto(cont);
    b.bind(second);
    b.load(acc).iconst(1).iadd().store(acc);
    b.bind(cont);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// `main(n)`: `n` outer iterations, each running a three-iteration inner
/// loop. Blocks: b1 outer head, b2 inner set-up, b3 inner head, b4 inner
/// body, b5 outer latch.
fn loop_nest() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let j = b.alloc_local();
    b.iconst(0).store(acc);
    let outer = b.bind_new_label();
    let exit = b.new_label();
    let after = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.iconst(3).store(j);
    let inner = b.bind_new_label();
    b.load(j).if_i(CmpOp::Le, after);
    b.load(acc)
        .load(j)
        .iadd()
        .store(acc)
        .iinc(j, -1)
        .goto(inner);
    b.bind(after);
    b.load(acc)
        .load(0)
        .iadd()
        .store(acc)
        .iinc(0, -1)
        .goto(outer);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).unwrap()
}

/// Runs `program(args)` once on a fresh VM booted from a snapshot whose
/// cache holds exactly the planted `(entry, blocks)` traces and whose
/// profile is empty. Its start delay is one no run reaches, so no node
/// leaves `NewlyCreated`, no signal fires and no constructor runs.
/// Checks the run against the interpreter, and returns the report, the
/// streak demotions and the entries still linked.
fn run_planted(
    program: &Program,
    plant: &[((u32, u32), &[u32])],
    args: &[Value],
) -> (RunReport, u64, Vec<bool>) {
    let blk = |b: u32| BlockId::new(program.entry(), b);
    let mut cache = TraceCache::new();
    for &((from, to), blocks) in plant {
        let blocks: Vec<BlockId> = blocks.iter().map(|&b| blk(b)).collect();
        cache.insert_and_link((blk(from), blk(to)), &blocks, 0.99);
    }
    let mut config = EngineConfig::paper_default();
    config.jit = config.jit.with_start_delay(1_000_000_000);
    let empty = BranchCorrelationGraph::new(config.jit.bcg_config());
    let snapshot = Snapshot::capture(program_hash(program), &empty, &cache).to_bytes();
    let mut plain = Vm::new(program);
    let want = plain.run(args, &mut NullObserver).unwrap();
    let mut vm = TracingVm::new(program, config);
    vm.load_snapshot(&snapshot)
        .expect("the planted snapshot boots");
    let report = vm.run(args).unwrap();
    assert_eq!(report.result, want);
    assert_eq!(report.checksum, plain.checksum());
    assert_eq!(report.exec.instructions, plain.stats().instructions);
    let linked = plant
        .iter()
        .map(|&((from, to), _)| vm.cache().lookup_entry((blk(from), blk(to))).is_some())
        .collect();
    (report, vm.health_stats().demotions, linked)
}

/// A loop whose trace rots behind its *first* guard: after the flip
/// every entry passes the steady guard and leaves at the flipping
/// branch (site 1). The trace is quarantined on exactly its
/// `STREAK_LIMIT`-th consecutive early exit — not one exit earlier, and
/// not at some later clock tick — and is never entered again.
#[test]
fn a_trace_rotting_behind_its_first_guard_is_quarantined_at_the_limit() {
    let program = flipping_loop();
    // Steady guard → flipping branch → arm A → latch, entered once per
    // iteration from the loop head (so the loop's own exit never runs
    // through it).
    let plant: &[((u32, u32), &[u32])] = &[((1, 2), &[2, 3, 4, 6])];
    const BEFORE: i64 = 50;
    let run = |after: u32| {
        let after = i64::from(after);
        // `after` iterations take arm B: n = after, …, 1.
        let args = [Value::Int(BEFORE + after), Value::Int(after + 1)];
        run_planted(&program, plant, &args)
    };

    let (short, demotions, linked) = run(STREAK_LIMIT - 1);
    assert_eq!(short.traces.exited_early, u64::from(STREAK_LIMIT - 1));
    assert_eq!((short.cache.traces_quarantined, demotions), (0, 0));
    assert_eq!(linked, [true], "one exit short of the limit stays linked");

    let (at, demotions, linked) = run(STREAK_LIMIT);
    assert_eq!(at.traces.exited_early, u64::from(STREAK_LIMIT));
    assert_eq!((at.cache.traces_quarantined, demotions), (1, 1));
    assert_eq!(linked, [false], "the limit-th exit quarantines");

    // Past the limit nothing enters any more: the extra iterations run
    // in the loop, one dispatch per block (head, steady guard, flipping
    // branch, arm B, latch).
    let extra = 24;
    let (long, demotions, _) = run(STREAK_LIMIT + extra);
    assert_eq!(long.traces.exited_early, u64::from(STREAK_LIMIT));
    assert_eq!(long.traces.entered, at.traces.entered);
    assert_eq!((long.cache.traces_quarantined, demotions), (1, 1));
    assert_eq!(
        long.exec.block_dispatches - at.exec.block_dispatches,
        5 * u64::from(extra)
    );
}

/// A trace whose last branch leads back to its first block closes its
/// loop in the executor only while that very branch links it: the
/// skipped dispatch would have found the trace there. Planted at the
/// inner loop's pre-header alone, the inner-loop trace hands back at
/// every back edge, and the remaining iterations run in the loop, one
/// dispatch per block. Planted at its back edge too, it closes.
#[test]
fn a_loop_closes_only_through_its_own_link() {
    let program = loop_nest();
    let outer = 40;
    let args = [Value::Int(outer)];
    let inner_loop: &[u32] = &[3, 4];

    // Each outer iteration enters at the pre-header with j = 3 and
    // completes one inner iteration; j = 2 and 1 run in the loop.
    let (pre_header, _, _) = run_planted(&program, &[((2, 3), inner_loop)], &args);
    let t = pre_header.traces;
    assert_eq!(t.loop_closings, 0, "{t:?}");
    assert_eq!(
        (t.entered, t.completed),
        (outer as u64, outer as u64),
        "{t:?}"
    );

    // Linked at the back edge as well (hash-consed: the same trace), the
    // entry at the pre-header closes for j = 2, 1 and 0 and leaves at the
    // inner loop's exit. Only the very first back edge cannot close: the
    // VM has never observed that branch, so no node holds its link, and
    // the loop's dispatch creates the node and enters once more.
    let plant: &[((u32, u32), &[u32])] = &[((2, 3), inner_loop), ((4, 3), inner_loop)];
    let (closed, _, linked) = run_planted(&program, plant, &args);
    let t = closed.traces;
    assert_eq!(linked, [true, true]);
    assert_eq!(t.loop_closings, 3 * outer as u64 - 1, "{t:?}");
    assert_eq!(t.entered, outer as u64 + 1, "{t:?}");
    assert_eq!(t.exited_early, outer as u64, "{t:?}");
    // Every outer iteration runs the inner iterations with j = 2 and 1
    // without dispatching their head and body (four blocks), but the
    // first re-enters over the back edge once by a dispatch.
    assert_eq!(
        pre_header.exec.block_dispatches - closed.exec.block_dispatches,
        4 * outer as u64 - 1
    );
}

/// A loop split over two traces closes through both: a completion whose
/// branch links the other trace goes on into it without a dispatch.
/// Planted on `flipping_loop` with arm A taken throughout: one trace
/// runs head, steady guard and flipping branch, the other arm A and the
/// latch.
#[test]
fn a_loop_split_over_two_traces_closes_through_both() {
    let program = flipping_loop();
    let n = 40;
    let args = [Value::Int(n), Value::Int(0)];
    let head: &[u32] = &[1, 2, 3];
    let arm_a: &[u32] = &[4, 6];

    // The first iteration reaches arm A in the loop and enters it; its
    // latch's back edge was never observed, so no node holds the link
    // and the loop dispatches it, entering the head trace. From there
    // each trace goes on into the other until the loop's exit leaves
    // the head trace at its first guard: 2n trace runs, two dispatched.
    let plant: &[((u32, u32), &[u32])] = &[((6, 1), head), ((3, 4), arm_a)];
    let (both, _, linked) = run_planted(&program, plant, &args);
    let t = both.traces;
    assert_eq!(linked, [true, true]);
    assert_eq!((t.entered, t.completed, t.exited_early), (2, 1, 1), "{t:?}");
    assert_eq!(t.loop_closings, 2 * n as u64 - 2, "{t:?}");

    // With arm A's trace unlinked, the head trace completes into the
    // loop at every iteration and is dispatched at the next.
    let (one, _, _) = run_planted(&program, &plant[..1], &args);
    let t = one.traces;
    assert_eq!(t.loop_closings, 0, "{t:?}");
    assert_eq!(t.entered, n as u64, "{t:?}");
}

/// The streak is counted per trace: a trace that exits at its entry on
/// every dispatch is quarantined even though another trace completes
/// between each of its exits, and the healthy one stays linked.
#[test]
fn a_rotten_trace_alternating_with_a_healthy_one_is_still_quarantined() {
    let program = loop_nest();
    let plant: &[((u32, u32), &[u32])] = &[
        // Rotten: entered once per outer iteration with j = 3, but it
        // claims the inner loop is done, so its entry guard fails.
        ((2, 3), &[3, 5]),
        // Healthy: the inner loop body, completing twice per outer
        // iteration (and leaving at the inner loop's exit).
        ((4, 3), &[3, 4]),
    ];
    let outer = 40;
    let (report, demotions, linked) = run_planted(&program, plant, &[Value::Int(outer)]);
    assert_eq!(linked, [false, true], "only the rotten trace goes");
    assert_eq!((report.cache.traces_quarantined, demotions), (1, 1));
    // The rotten trace left STREAK_LIMIT times; the healthy one once per
    // outer iteration, with completions in between.
    assert_eq!(
        report.traces.exited_early,
        u64::from(STREAK_LIMIT) + outer as u64
    );
    assert_eq!(
        report.traces.completed + report.traces.loop_closings,
        2 * outer as u64
    );
}
