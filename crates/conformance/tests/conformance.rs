//! The conformance suite: lockstep runs of the production pipeline
//! against the executable paper model on all six workloads and on 256
//! generated fuzz programs; chaos campaigns (clean and quirked); corpus
//! replay; shrinker regression; side-exit validity.
//!
//! Every failure message carries the seed (or workload name) that
//! reproduces it deterministically.

use trace_bcg::BcgConfig;
use trace_cache::ConstructorConfig;
use trace_conformance::chaos::{
    campaign_configs, parse_corpus_case, run_campaign, run_case, run_case_on, shrink, ChaosConfig,
    Perturbation,
};
use trace_conformance::genprog::gen_block;
use trace_conformance::model::Quirk;
use trace_conformance::Lockstep;
use trace_workloads::prng::{seed_stream, Xoshiro256StarStar};
use trace_workloads::registry::{all, Scale};

/// Tunables that exercise the full machinery on test-scale inputs:
/// short start delay, loose threshold, paper decay interval.
fn workload_configs() -> (BcgConfig, ConstructorConfig) {
    (
        BcgConfig::default()
            .with_start_delay(8)
            .with_threshold(0.90),
        ConstructorConfig::default().with_threshold(0.90),
    )
}

#[test]
fn all_six_workloads_stay_in_lockstep() {
    for w in all(Scale::Test) {
        let (bcfg, ccfg) = workload_configs();
        let mut ls = Lockstep::new(bcfg, ccfg);
        ls.run_program(&w.program, &w.args)
            .unwrap_or_else(|d| panic!("workload {}: {d}", w.name));
        assert!(
            ls.steps() > 1_000,
            "workload {} dispatched only {} blocks — not a meaningful run",
            w.name,
            ls.steps()
        );
    }
}

#[test]
fn fuzz_programs_stay_in_lockstep_256_cases() {
    // ChaosConfig::none() makes run_case a plain lockstep replay.
    let report = run_campaign(0x10C4_57E9, 256, &ChaosConfig::none(), None);
    if let Some((seed, d)) = report.failure {
        panic!(
            "fuzz lockstep diverged: seed {seed:#x} (case {}): {d}",
            report.cases - 1
        );
    }
    assert_eq!(report.cases, 256);
}

#[test]
fn chaos_campaign_on_clean_systems_is_silent() {
    let report = run_campaign(0xC4A0_5CA5, 48, &ChaosConfig::full(), None);
    if let Some((seed, d)) = report.failure {
        panic!("chaos campaign diverged on clean systems: seed {seed:#x}: {d}");
    }
}

/// Regression trio for "chaos catches what plain lockstep cannot": a
/// deliberately planted off-by-one in the model's *forced* decay prune
/// (`Quirk::ForcedDecayKeepsZeroEdges`).
#[test]
fn forced_decay_chaos_catches_the_planted_quirk() {
    const BASE: u64 = 0xDECA_FBAD;
    const CASES: u64 = 64;
    let forced = ChaosConfig::only(Perturbation::ForcedDecay);

    // (1) Without chaos, the quirk sits on a path plain lockstep never
    // takes: the same seeds replay silently.
    let plain = run_campaign(
        BASE,
        CASES,
        &ChaosConfig::none(),
        Some(Quirk::ForcedDecayKeepsZeroEdges),
    );
    assert!(
        plain.failure.is_none(),
        "quirk should be invisible without chaos, but: {:?}",
        plain.failure
    );

    // (2) Forced-decay chaos drives the quirky path and must catch it.
    let caught = run_campaign(BASE, CASES, &forced, Some(Quirk::ForcedDecayKeepsZeroEdges));
    let (seed, d) = caught
        .failure
        .expect("forced-decay campaign must expose the planted off-by-one");
    assert!(
        d.what.contains("successors") || d.what.contains("state") || d.what.contains("weight"),
        "seed {seed:#x}: unexpected divergence field: {d}"
    );

    // (3) The same chaos schedule over the clean model stays silent, so
    // the catch is the quirk's doing, not the harness's.
    let clean = run_campaign(BASE, CASES, &forced, None);
    assert!(
        clean.failure.is_none(),
        "clean model must survive the identical chaos schedule, but: {:?}",
        clean.failure
    );
}

#[test]
fn shrinker_minimises_a_failing_chaos_case() {
    // Find the first seed the quirk campaign fails on, then shrink its
    // program while preserving the failure.
    const BASE: u64 = 0xDECA_FBAD;
    let forced = ChaosConfig::only(Perturbation::ForcedDecay);
    let quirk = Some(Quirk::ForcedDecayKeepsZeroEdges);
    let report = run_campaign(BASE, 64, &forced, quirk);
    let (seed, _) = report.failure.expect("need a failing case to shrink");

    // Reproduce the original program, and a predicate that replays a
    // mutated AST under the same seed (the rng is advanced past the
    // generation draws so arguments and the chaos schedule stay as
    // aligned as the mutated program allows).
    let original = {
        let mut rng = Xoshiro256StarStar::new(seed);
        gen_block(&mut rng, 3, 1, 8)
    };
    let mut still_fails = |stmts: &[trace_conformance::genprog::Stmt]| {
        let mut rng = Xoshiro256StarStar::new(seed);
        let _ = gen_block(&mut rng, 3, 1, 8);
        run_case_on(stmts, &mut rng, &forced, quirk).is_err()
    };
    assert!(still_fails(&original), "seed {seed:#x} must reproduce");

    let minimal = shrink(&original, &mut still_fails);
    assert!(
        !minimal.is_empty() && minimal.len() <= original.len(),
        "seed {seed:#x}: shrink went wrong ({} -> {})",
        original.len(),
        minimal.len()
    );
    assert!(
        still_fails(&minimal),
        "seed {seed:#x}: minimised case no longer fails"
    );
}

#[test]
fn saved_corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut cases = 0usize;
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus case");
        let case = parse_corpus_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        run_case(case.seed, &case.chaos, None).unwrap_or_else(|d| {
            panic!(
                "corpus case {} (seed {:#x}) diverged: {d}",
                path.display(),
                case.seed
            )
        });
        cases += 1;
    }
    assert!(cases >= 5, "expected the saved corpus, found {cases} cases");
}

#[test]
fn linked_traces_have_valid_side_exits() {
    use jvm_vm::decode::DecodedProgram;

    let mut checked = 0usize;
    for w in all(Scale::Test) {
        let (bcfg, ccfg) = campaign_configs();
        let mut ls = Lockstep::new(bcfg, ccfg);
        ls.run_program(&w.program, &w.args)
            .unwrap_or_else(|d| panic!("workload {}: {d}", w.name));

        let decoded = DecodedProgram::decode(&w.program);
        for (_, trace) in ls.cache.iter_links() {
            // Some cached traces legitimately refuse compilation
            // (disconnected block pairs after invalidation); validity
            // applies to the ones the engine would actually run.
            let Ok(ct) = trace_exec::compile(&w.program, trace) else {
                continue;
            };
            let rt = trace_exec::lower_reg(&w.program, &decoded, &ct)
                .expect("workload traces lower to register form");
            trace_conformance::invariants::check_side_exits(&w.program, &decoded, &rt);
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "no linked trace compiled — side-exit validity was never exercised"
    );
}

#[test]
fn fuzz_seed_stream_matches_workspace_convention() {
    // The suite's case seeds come from the shared seed_stream helper, so
    // a seed printed here can be replayed by any other harness.
    assert_eq!(seed_stream(0x10C4_57E9, 0), seed_stream(0x10C4_57E9, 0));
    assert_ne!(seed_stream(0x10C4_57E9, 0), seed_stream(0x10C4_57E9, 1));
}

/// Regression trio for the quarantine path: a model that tombstones a
/// faulting trace but forgets to blacklist its `(entry, path)` key
/// (`Quirk::QuarantineForgotten`) is invisible until a campaign
/// quarantines live traces; the missing blacklist entry (or the rebuild
/// the production cache refuses) must then diverge.
#[test]
fn quarantine_chaos_catches_the_forgetful_quarantine_model() {
    const BASE: u64 = 0x04A4_A27E;
    const CASES: u64 = 64;
    let quarantine = ChaosConfig::only(Perturbation::QuarantineTrace);

    let plain = run_campaign(
        BASE,
        CASES,
        &ChaosConfig::none(),
        Some(Quirk::QuarantineForgotten),
    );
    assert!(
        plain.failure.is_none(),
        "quirk should be invisible without quarantine chaos, but: {:?}",
        plain.failure
    );

    let caught = run_campaign(BASE, CASES, &quarantine, Some(Quirk::QuarantineForgotten));
    let (seed, d) = caught
        .failure
        .expect("quarantine campaign must expose the forgetful model");
    assert!(
        d.what.contains("quarantine") || d.what.contains("link") || d.what.contains("trace count"),
        "seed {seed:#x}: unexpected divergence field: {d}"
    );

    let clean = run_campaign(BASE, CASES, &quarantine, None);
    assert!(
        clean.failure.is_none(),
        "clean model must survive the identical quarantine schedule, but: {:?}",
        clean.failure
    );
}

/// The phase-shift workload family (the retention fixture: a hot
/// guard whose bias flips mid-run) must stay in lockstep like the six
/// paper workloads — the rotting branch is a behavior change, not a
/// profiling divergence.
#[test]
fn phase_shift_workloads_stay_in_lockstep() {
    use trace_workloads::registry;
    for w in [
        registry::phase_shift(Scale::Test),
        registry::phase_shift_early(Scale::Test),
        registry::phase_shift_late(Scale::Test),
    ] {
        let (bcfg, ccfg) = workload_configs();
        let mut ls = Lockstep::new(bcfg, ccfg);
        ls.run_program(&w.program, &w.args)
            .unwrap_or_else(|d| panic!("workload {}: {d}", w.name));
        assert!(
            ls.steps() > 1_000,
            "workload {} dispatched only {} blocks — not a meaningful run",
            w.name,
            ls.steps()
        );
    }
}

/// Regression trio for the retention rule's anti-flap: a model whose
/// quarantine forgets the cooldown escalation
/// (`Quirk::EscalationForgotten`) is invisible to plain lockstep —
/// nothing is quarantined — but must be caught once the campaign rots
/// one entry again and again, because the production cache then
/// blacklists the repeat for a doubled cooldown while the model keeps
/// the base one.
#[test]
fn phase_shift_chaos_catches_the_forgotten_escalation() {
    const BASE: u64 = 0x20AF_5417;
    const CASES: u64 = 64;
    let shift = ChaosConfig::only(Perturbation::PhaseShift);

    let plain = run_campaign(
        BASE,
        CASES,
        &ChaosConfig::none(),
        Some(Quirk::EscalationForgotten),
    );
    assert!(
        plain.failure.is_none(),
        "quirk should be invisible without phase-shift chaos, but: {:?}",
        plain.failure
    );

    let caught = run_campaign(BASE, CASES, &shift, Some(Quirk::EscalationForgotten));
    let (seed, d) = caught
        .failure
        .expect("phase-shift campaign must expose the forgotten escalation");
    assert!(
        d.what.contains("quarantine"),
        "seed {seed:#x}: unexpected divergence field: {d}"
    );

    let clean = run_campaign(BASE, CASES, &shift, None);
    assert!(
        clean.failure.is_none(),
        "clean model must survive the identical phase-shift schedule, but: {:?}",
        clean.failure
    );
}

#[test]
fn duplicate_batch_campaign_is_silent() {
    // Duplicated construction batches must be idempotent on both sides.
    let report = run_campaign(
        0xD0B1_BA7C,
        48,
        &ChaosConfig::only(Perturbation::DuplicateBatch),
        None,
    );
    if let Some((seed, d)) = report.failure {
        panic!("duplicate-batch campaign diverged: seed {seed:#x}: {d}");
    }
}
