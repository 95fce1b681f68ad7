//! The five workloads: which programs, which inputs, in which usage mode.
//!
//! All inputs derive from `--seed` through `prng::seed_stream`; programs
//! receive only generated arguments. The "why" of each workload is part
//! of its definition and is printed with its results.

use jvm_bytecode::Program;
use jvm_vm::Value;
use trace_conformance::genprog;
use trace_workloads::prng::{seed_stream, Xoshiro256StarStar};
use trace_workloads::registry::{self, Scale};

use crate::oracle::{reference_run, Expected};
use crate::tracer::Laps;

/// How a workload uses the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Usage {
    /// One VM per program for the whole run, warmed in set-up; a round
    /// runs one of the program's inputs, cycling by round.
    LongLived,
    /// A new VM per program every round, which runs all of the program's
    /// inputs in order: each round is one VM life, so whatever the VM
    /// learns from the first input it learns inside the timed region.
    RoundLived,
    /// Every run builds a fresh VM inside its timed region, optionally
    /// booted from a snapshot taken in set-up.
    FreshVm { snapshot: bool },
}

pub struct Spec {
    pub name: &'static str,
    pub usage: Usage,
    /// Timed rounds of a run: a fixed count, so both sides of a comparison
    /// do the same work. A multiple of the inputs a long-lived VM cycles
    /// over (also after the traced run's division by four), so every
    /// input is run equally often and counts summed over the rounds do
    /// not depend on where the cycle stops.
    pub rounds: u32,
    /// How many times set-up is performed, spread over the run; `setup_s`
    /// is the quietest of them. As many as the run has room for: the host
    /// runs at two speeds and a short set-up sits wholly in one of them
    /// (README, "Host noise"), so with three repeats one run in eight read
    /// 1.5x high.
    pub setup_repeats: u32,
    pub modelled: &'static str,
    /// Why the workload is here, in terms of what was measured on it
    /// (README, "Baseline"). One line of at most 200 characters: it is
    /// also the `why` of `BENCHMARK.json`.
    pub why: &'static str,
    build: fn(u64, &mut Laps) -> Vec<Item>,
}

/// One program with its generated inputs and what the oracle expects.
pub struct Item {
    pub name: String,
    pub program: Program,
    pub inputs: Vec<Vec<Value>>,
    pub expected: Vec<Expected>,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "steady_loops",
        usage: Usage::LongLived,
        rounds: 36,
        setup_repeats: 3,
        modelled: "long-running service, regular code",
        why: "mpegaudio, scimark, raytrace, warm: 99.9% of instructions retire in traces, short ones (2.4 blocks) entered 45x per kinstr; trace entry and in-trace execution are the whole cost. The paper's best case",
        build: steady_loops,
    },
    Spec {
        name: "steady_branchy",
        usage: Usage::LongLived,
        rounds: 72,
        setup_repeats: 8,
        modelled: "long-running service, irregular code",
        why: "javac, soot, compress, warm: 18% of instructions retire outside traces (46 blocks per kinstr, each seen by bcg.observe) beside 34 entries per kinstr into 4-block traces; prices the out-of-trace path",
        build: steady_branchy,
    },
    Spec {
        name: "cold_fleet",
        usage: Usage::FreshVm { snapshot: false },
        rounds: 60,
        setup_repeats: 8,
        modelled: "short-lived scripts; every run pays warm-up",
        why: "240 generated programs + six analogues, each run once in a fresh VM: decode, VM construction, profiling, trace building (747 per round) and lowering are never amortised; bypasses persist",
        build: fleet,
    },
    Spec {
        name: "snapshot_fleet",
        usage: Usage::FreshVm { snapshot: true },
        rounds: 60,
        setup_repeats: 8,
        modelled: "restart from a persisted profile",
        why: "the same fleet booted from per-program snapshots: persist decode and artifact pre-build (2.3 per boot) come on top of construction, which still builds 320 traces per round; prices a snapshot",
        build: fleet,
    },
    Spec {
        name: "phase_flip",
        usage: Usage::RoundLived,
        rounds: 80,
        setup_repeats: 8,
        modelled: "service whose branch behaviour shifts",
        why: "a new VM every round meets a 95%->5% bias flip it has not seen: per round 2 demotions, 1 quarantine, 2 re-admissions, 13 traces built; the only workload whose timed rounds demote and quarantine",
        build: phase_flip,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Builds and verifies the programs, draws the inputs, and runs the
    /// oracle on each distinct `(program, args)`: one lap per oracle run.
    pub fn build(&self, seed: u64, laps: &mut Laps) -> Vec<Item> {
        (self.build)(seed, laps)
    }

    /// Indices of the inputs program `item` runs in `round`.
    pub fn schedule(&self, item: &Item, round: u32) -> std::ops::Range<usize> {
        if self.usage == Usage::RoundLived {
            0..item.inputs.len()
        } else {
            let i = round as usize % item.inputs.len();
            i..i + 1
        }
    }
}

/// A 31-bit positive seed for a workload's in-program LCG.
fn lcg_seed(seed: u64, k: u64) -> Value {
    Value::Int((seed_stream(seed, k) >> 33) as i64)
}

/// Attaches the oracle's expectations; an input the reference interpreter
/// cannot finish is dropped (none is, for the programs used here — the
/// guard keeps "no timed operation fails by design" true for any seed).
fn item(name: &str, program: Program, inputs: Vec<Vec<Value>>, laps: &mut Laps) -> Option<Item> {
    let (inputs, expected): (Vec<_>, Vec<_>) = inputs
        .into_iter()
        .filter_map(|args| {
            let run = reference_run(&program, &args);
            laps.lap();
            run.ok().map(|e| (args, e))
        })
        .unzip();
    (!inputs.is_empty()).then(|| Item {
        name: name.to_string(),
        program,
        inputs,
        expected,
    })
}

/// The analogues at `scale`, each with `seeded` LCG seeds as inputs —
/// after its canonical registry argument, if `canonical_first`.
///
/// A long-lived VM's entry argument cycles over its inputs by round, and
/// which traces it builds is decided by the first traffic it sees: with a
/// seeded first input `raytrace` ended with anything from 33 to 93 KiB of
/// JIT state (and a speed to match) depending on the seed. Holding the
/// first input fixed keeps that to 55-60 KiB.
fn analogues(
    seed: u64,
    scale: Scale,
    names: &[&str],
    seeded: u64,
    canonical_first: bool,
    laps: &mut Laps,
) -> Vec<Item> {
    names
        .iter()
        .enumerate()
        .filter_map(|(p, name)| {
            let w = registry::by_name(name, scale).expect("registry name");
            let mut inputs = Vec::new();
            if canonical_first {
                inputs.push(w.args);
            }
            inputs.extend((0..seeded).map(|i| vec![lcg_seed(seed, p as u64 * 16 + i)]));
            item(name, w.program, inputs, laps)
        })
        .collect()
}

/// Inputs a long-lived VM cycles over: the canonical one, then seeded ones.
const LONG_LIVED_INPUTS: u32 = 3;

fn steady_loops(seed: u64, laps: &mut Laps) -> Vec<Item> {
    let names = ["mpegaudio", "scimark", "raytrace"];
    let seeded = u64::from(LONG_LIVED_INPUTS) - 1;
    analogues(seed, Scale::Small, &names, seeded, true, laps)
}

fn steady_branchy(seed: u64, laps: &mut Laps) -> Vec<Item> {
    let names = ["javac", "soot", "compress"];
    let seeded = u64::from(LONG_LIVED_INPUTS) - 1;
    analogues(seed, Scale::Small, &names, seeded, true, laps)
}

pub const FLEET_GENERATED: usize = 240;
/// A generated program the oracle counts above this is redrawn, so no
/// single program dominates a round.
pub const FLEET_MAX_INSTR: u64 = 300_000;
/// The generated programs are a fixed corpus, drawn once from this seed;
/// `--seed` draws their arguments. A fresh draw of programs per seed
/// moves the fleet's geometric mean by +-8% — more than any change the
/// benchmark is meant to resolve — because a program's shape, not its
/// data, decides how much of its short life is VM construction.
const FLEET_CORPUS_SEED: u64 = 0xF1EE_7C02_9A5E_ED01;

fn fleet(seed: u64, laps: &mut Laps) -> Vec<Item> {
    let mut items = Vec::with_capacity(FLEET_GENERATED + 6);
    let mut draw = 0u64;
    while items.len() < FLEET_GENERATED {
        let mut shape = Xoshiro256StarStar::new(seed_stream(FLEET_CORPUS_SEED, draw));
        let stmts = genprog::gen_block(&mut shape, 3, 4, 10);
        let program = genprog::build_program(&stmts);
        let args = genprog::args_from(seed_stream(seed, draw) as i64);
        draw += 1;
        if let Some(it) = item(&format!("gen{draw}"), program, vec![args], laps) {
            if it.expected[0].instructions <= FLEET_MAX_INSTR {
                items.push(it);
            }
        }
    }
    let six = [
        "compress",
        "javac",
        "raytrace",
        "mpegaudio",
        "soot",
        "scimark",
    ];
    items.extend(analogues(seed, Scale::Test, &six, 1, false, laps));
    items
}

const PHASE_N: i64 = 200_000;

fn phase_flip(seed: u64, laps: &mut Laps) -> Vec<Item> {
    let w = registry::phase_shift(Scale::Small);
    // Flips near n/4, n/2, 3n/4, each jittered by up to ±n/16.
    let jitter = PHASE_N / 16;
    let inputs = (1..=3)
        .map(|q| {
            let j = (seed_stream(seed, q as u64) % (2 * jitter as u64 + 1)) as i64 - jitter;
            vec![Value::Int(PHASE_N), Value::Int(q * PHASE_N / 4 + j)]
        })
        .collect();
    item("phase_shift", w.program, inputs, laps)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let build = |seed| spec("phase_flip").unwrap().build(seed, &mut Laps::start());
        let (a, b, c) = (build(7), build(7), build(8));
        assert_eq!(a[0].inputs, b[0].inputs);
        assert_ne!(a[0].inputs, c[0].inputs);
        for (q, args) in a[0].inputs.iter().enumerate() {
            let Value::Int(flip) = args[1] else {
                panic!("flip is an int")
            };
            let centre = (q as i64 + 1) * PHASE_N / 4;
            assert!((flip - centre).abs() <= PHASE_N / 16, "flip {flip}");
        }
    }

    #[test]
    fn schedules_cycle_or_run_all() {
        let spec_all = spec("phase_flip").unwrap();
        let items = spec_all.build(1, &mut Laps::start());
        assert_eq!(spec_all.schedule(&items[0], 5), 0..3);
        let cyc = spec("steady_branchy").unwrap();
        let it = Item {
            name: "x".into(),
            program: registry::compress(Scale::Test).program,
            inputs: vec![vec![], vec![], vec![]],
            expected: vec![],
        };
        assert_eq!(cyc.schedule(&it, 0), 0..1);
        assert_eq!(cyc.schedule(&it, 4), 1..2);
    }

    /// Every input of a cycling workload is run equally often, in the
    /// untraced run and in the traced run's quarter of the rounds.
    #[test]
    fn round_counts_are_whole_cycles() {
        let cycle = LONG_LIVED_INPUTS * crate::TRACED_ROUND_SHARE;
        for s in SPECS.iter().filter(|s| s.usage == Usage::LongLived) {
            assert_eq!(s.rounds % cycle, 0, "{}", s.name);
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn workload_names_are_the_five() {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "steady_loops",
                "steady_branchy",
                "cold_fleet",
                "snapshot_fleet",
                "phase_flip"
            ]
        );
    }
}
