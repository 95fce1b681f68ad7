//! Cross-crate correctness: the trace machinery must never change
//! program semantics, and every workload must match its reference
//! implementation. The first two tests are rows of the differential
//! matrix (`tests/matrix.rs`) on the six workloads, whose oracles are
//! checked against the reference implementations' checksums.

use tracecache_repro::bytecode::{BuildError, ProgramBuilder, ID_LIMIT};
use tracecache_repro::conformance::matrix::{self, Row};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::{TraceJitConfig, TraceVm};
use tracecache_repro::vm::{NullObserver, Value, Vm};
use tracecache_repro::workloads::{registry, Scale};

#[test]
fn plain_vm_matches_reference_checksums() {
    matrix::check_all(&matrix::workloads(), Row::Plain);
}

/// The monitor at paper defaults: result, checksum and every execution
/// counter, instructions and block dispatches included.
#[test]
fn trace_vm_is_semantically_transparent() {
    matrix::check_all(&matrix::workloads(), Row::Monitor);
}

#[test]
fn trace_vm_transparent_at_every_threshold() {
    let w = registry::compress(Scale::Test);
    for &threshold in &[1.0, 0.99, 0.97, 0.95, 0.5] {
        let mut tvm = TraceVm::new(
            &w.program,
            TraceJitConfig::paper_default()
                .with_threshold(threshold)
                .with_start_delay(4),
        );
        let report = tvm.run(&w.args).unwrap();
        assert_eq!(
            report.checksum, w.expected_checksum,
            "threshold {threshold}"
        );
    }
}

#[test]
fn workload_scales_share_program_shape() {
    // Small-scale programs must differ from Test only in constants, so
    // static block counts stay equal — a guard against scale-dependent
    // codegen drift.
    for (t, s) in registry::all(Scale::Test)
        .into_iter()
        .zip(registry::all(Scale::Small))
    {
        assert_eq!(t.name, s.name);
        assert_eq!(
            t.program.total_blocks(),
            s.program.total_blocks(),
            "{}: scale must only change constants",
            t.name
        );
    }
}

/// `main` as `blocks - 1` pairs of `goto L; bind L` and a final block
/// returning 7: one function of exactly `blocks` basic blocks.
fn straight_line_main(blocks: u32) -> Result<tracecache_repro::bytecode::Program, BuildError> {
    let mut pb = ProgramBuilder::new();
    let main = pb.declare_function("main", 0, true);
    let b = pb.function_mut(main);
    for _ in 1..blocks {
        let next = b.new_label();
        b.goto(next);
        b.bind(next);
    }
    b.iconst(7).ret();
    pb.build(main)
}

/// Every block index of a built program packs into a branch key: a
/// function over the id limit is refused by the builder, and one of
/// exactly the limit runs under both profiled VMs to the plain VM's
/// result.
#[test]
fn block_ids_at_the_id_limit_run_and_past_it_are_refused() {
    match straight_line_main(70_001) {
        Err(BuildError::TooLarge {
            func: Some(func),
            count,
        }) => assert_eq!((func.as_str(), count), ("main", 70_001)),
        other => panic!("70,001 blocks must be refused, got {other:?}"),
    }

    let program = straight_line_main(ID_LIMIT).expect("a function at the limit builds");
    let main = program.entry();
    assert_eq!(program.function(main).block_count(), ID_LIMIT as usize);
    let want = Vm::new(&program).run(&[], &mut NullObserver).unwrap();
    assert_eq!(want, Some(Value::Int(7)));
    let engine = TracingVm::new(&program, EngineConfig::default())
        .run(&[])
        .unwrap();
    assert_eq!(engine.result, want, "TracingVm");
    let monitor = TraceVm::new(&program, TraceJitConfig::paper_default())
        .run(&[])
        .unwrap();
    assert_eq!(monitor.result, want, "TraceVm");
}
