//! Engine-level fault-injection campaigns: the full shared deployment
//! (budgeted cache, supervised off-thread constructor, fault plan), with
//! the plain interpreter as the result oracle. Whatever the fault plan
//! does — corrupt artifacts, failed budget checks, constructor kills,
//! dropped or duplicated batches — results and checksums must never
//! move. The standard plan over the workloads and a generated corpus is
//! the `Faulted` row of the differential matrix (`tests/matrix.rs` at the
//! repository root); this suite keeps the constructor killer and the
//! saved fault corpus.

use trace_cache::FaultConfig;
use trace_conformance::chaos::parse_corpus_case;
use trace_conformance::faults::run_fault_case;
use trace_conformance::genprog::{args_from, build_program, gen_block};
use trace_workloads::prng::Xoshiro256StarStar;
use trace_workloads::registry::{all, Scale};

#[test]
fn constructor_killer_is_deterministically_degraded_and_correct() {
    // Same seed, two independent runs: identical fault decisions,
    // identical degraded outcome, interpreter-identical results both
    // times (the harness itself checks results per run).
    let w = &all(Scale::Test)[1];
    let a = run_fault_case(
        &w.program,
        &w.args,
        FaultConfig::constructor_killer(),
        0xDEAD,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let b = run_fault_case(
        &w.program,
        &w.args,
        FaultConfig::constructor_killer(),
        0xDEAD,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert!(a.health.degraded && b.health.degraded);
    assert_eq!(a.cache.traces_constructed, 0);
    assert_eq!(b.cache.traces_constructed, 0);
    assert_eq!(
        a.faults.fired, b.faults.fired,
        "fault plan must be deterministic"
    );
}

/// Corpus cases that carry `faults=` keys are replayed through the
/// engine-level harness on the case's generated program — the saved
/// reproduction of the fault campaign, pinned in CI.
#[test]
fn saved_fault_corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut replayed = 0usize;
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus case");
        let case = parse_corpus_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let Some((fault, fault_seed)) = case.faults else {
            continue;
        };
        let mut rng = Xoshiro256StarStar::new(case.seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        run_fault_case(&program, &args, fault, fault_seed).unwrap_or_else(|e| {
            panic!(
                "fault corpus case {} (seed {:#x}, fault seed {fault_seed:#x}) failed: {e}",
                path.display(),
                case.seed
            )
        });
        replayed += 1;
    }
    assert!(
        replayed >= 2,
        "expected the saved fault corpus, found {replayed} fault cases"
    );
}
