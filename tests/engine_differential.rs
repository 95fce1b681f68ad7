//! Differential testing of the trace-executing engine against the plain
//! interpreter: on every workload, under every configuration, the engine
//! must produce identical results, checksums and instruction counts —
//! the trace machinery, guards and side exits may never change
//! observable semantics.
//!
//! The engine runs out-of-trace code on the interpreter's own decoded
//! loop, so an engine that never builds a trace must be the interpreter
//! plus a profiler, bit for bit — the last test here. (The hand-offs
//! between loop and trace are pinned in `reg_differential.rs`, on the
//! guard-flip programs.)

use tracecache_repro::bcg::BranchCorrelationGraph;
use tracecache_repro::bytecode::Program;
use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{fuse, NullObserver, ReferenceVm, Value, Vm};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::{registry, Scale};

fn engine_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(16),
        ..EngineConfig::paper_default()
    }
}

#[test]
fn engine_matches_interpreter_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut plain = Vm::new(&w.program);
        let want = plain.run(&w.args, &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();

        assert_eq!(report.result, want, "{} result", w.name);
        assert_eq!(report.checksum, w.expected_checksum, "{} checksum", w.name);
        assert_eq!(
            report.exec.instructions,
            plain.stats().instructions,
            "{}: trace execution must execute the same instruction sequence",
            w.name
        );
    }
}

#[test]
fn engine_actually_executes_traces_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();
        assert!(
            engine.compiled_count() > 0,
            "{}: no traces were compiled",
            w.name
        );
        assert!(
            report.traces.completed > 0,
            "{}: no trace ran to completion",
            w.name
        );
    }
}

#[test]
fn engine_reduces_dispatches_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut plain = Vm::new(&w.program);
        plain.run(&w.args, &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();
        assert!(
            report.exec.block_dispatches < plain.stats().block_dispatches,
            "{}: engine {} vs interpreter {} dispatches",
            w.name,
            report.exec.block_dispatches,
            plain.stats().block_dispatches
        );
    }
}

/// The whole configuration space — `dop_fusion` — against the frozen
/// reference interpreter, two runs per VM: the second executes
/// DOp-fused streams (when fusion is on; the rewrite happens as it
/// begins) against a warm cache. Exact parity in every cell; a new knob
/// is one more factor here.
#[test]
fn every_configuration_matches_the_reference_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut reference = ReferenceVm::new(&w.program);
        let want = reference.run(&w.args, &mut NullObserver).unwrap();
        assert_eq!(reference.checksum(), w.expected_checksum, "{}", w.name);
        for dop_fusion in [true, false] {
            let config = engine_config().with_dop_fusion(dop_fusion);
            let mut engine = TracingVm::new(&w.program, config);
            for run in 0..2 {
                let label = format!("{} fusion={dop_fusion} run {run}", w.name);
                let report = engine.run(&w.args).unwrap();
                assert_eq!(report.result, want, "{label}: result");
                assert_eq!(report.checksum, reference.checksum(), "{label}: checksum");
                assert_eq!(
                    report.exec.instructions,
                    reference.stats().instructions,
                    "{label}: instruction count"
                );
                assert!(report.traces.entered > 0, "{label}: ran cold");
            }
            assert_eq!(
                engine.dop_fusion_report().is_some(),
                dop_fusion,
                "{} fusion={dop_fusion}: fused streams",
                w.name
            );
        }
    }
}

/// How many decoded ops of the engine's streams are fused group heads.
fn fused_heads(engine: &TracingVm, program: &Program) -> u64 {
    let decoded = engine.decoded();
    let funcs = program.functions().iter();
    funcs
        .map(|f| {
            let code = &decoded.func(f.id()).code;
            code.iter().filter(|d| fuse::is_fused(d.op)).count() as u64
        })
        .sum()
}

/// A VM that runs once never pays for the DOp-fusion rewrite: the first
/// run only profiles, and the streams are rewritten when a second run
/// begins — with exact parity on both.
#[test]
fn a_single_run_leaves_the_streams_unfused() {
    for w in registry::all(Scale::Test) {
        let mut reference = ReferenceVm::new(&w.program);
        let want = reference.run(&w.args, &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&w.program, engine_config());
        for run in 0..2 {
            let label = format!("{} run {run}", w.name);
            let report = engine.run(&w.args).unwrap();
            assert_eq!(report.result, want, "{label}: result");
            assert_eq!(report.checksum, reference.checksum(), "{label}: checksum");
            assert_eq!(
                report.exec.instructions,
                reference.stats().instructions,
                "{label}: instruction count"
            );
            let fused = fused_heads(&engine, &w.program);
            match engine.dop_fusion_report() {
                None => {
                    assert_eq!(run, 0, "{label}: a second run applies the rewrite");
                    assert_eq!(fused, 0, "{label}: rewritten streams nobody will run");
                }
                Some(rep) => {
                    assert_eq!(run, 1, "{label}: rewritten after the only run");
                    assert_eq!(fused, rep.fused(), "{label}: report vs streams");
                    assert!(fused > 0, "{label}: nothing fused at test scale");
                }
            }
        }
    }
}

#[test]
fn warm_engine_runs_stay_correct() {
    let w = registry::compress(Scale::Test);
    let mut engine = TracingVm::new(&w.program, engine_config());
    for i in 0..3 {
        let report = engine.run(&w.args).unwrap();
        assert_eq!(report.checksum, w.expected_checksum, "run {i}");
    }
}

/// A start delay no run reaches: no node ever leaves `NewlyCreated`, so
/// nothing is built and every block runs on the loop.
fn never_enter_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(1_000_000_000),
        ..EngineConfig::paper_default()
    }
}

/// Runs `program` twice on a never-entering engine and twice on the
/// interpreter with `bcg.observe` as its observer (the second engine run
/// executes DOp-fused streams), demanding identical everything.
fn assert_never_enter_matches(program: &Program, args: &[Value], label: &str) {
    let config = never_enter_config();
    let mut plain = Vm::new(program);
    let mut bcg = BranchCorrelationGraph::new(config.jit.bcg_config());
    let mut engine = TracingVm::new(program, config);
    for run in 0..2 {
        bcg.begin_stream();
        let want = plain.run(args, &mut |b| {
            bcg.observe(b);
        });
        match (engine.run(args), want) {
            (Ok(report), Ok(want)) => {
                assert_eq!(report.result, want, "{label} run {run}: result");
                assert_eq!(
                    report.checksum,
                    plain.checksum(),
                    "{label} run {run}: checksum"
                );
                assert_eq!(report.exec, plain.stats(), "{label} run {run}: exec stats");
                assert_eq!(
                    report.profiler,
                    bcg.stats(),
                    "{label} run {run}: profiler stats"
                );
                assert_eq!(report.traces.entered, 0, "{label} run {run}: entered");
                assert_eq!(
                    report.traces.blocks_outside,
                    report.exec.block_dispatches * (run + 1),
                    "{label} run {run}: every dispatch (of every run so far) is outside"
                );
                assert_eq!(report.cache.traces_constructed, 0, "{label} run {run}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{label} run {run}: trap"),
            (got, want) => panic!("{label} run {run}: engine {got:?} vs interpreter {want:?}"),
        }
        assert_eq!(
            engine.interpreter().heap_stats(),
            plain.heap_stats(),
            "{label} run {run}: heap stats"
        );
    }
}

#[test]
fn never_entering_engine_is_the_interpreter_plus_profiler() {
    for w in registry::all(Scale::Test) {
        assert_never_enter_matches(&w.program, &w.args, w.name);
    }
    for case in 0..64 {
        let seed = seed_stream(0xE7E4_0FF5, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        assert_never_enter_matches(&program, &args, &format!("seed {seed:#x}"));
    }
}
