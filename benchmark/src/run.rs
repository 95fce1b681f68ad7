//! One workload, start to finish: set-up, timed rounds, end-of-run state.
//!
//! Closed loop, one thread. A round runs every program of the workload
//! once (or, for `phase_flip`, every input on a new VM); the engine leg
//! and the interpreter leg are interleaved per program so both see the
//! same host phase. A sample is `wall ns / instructions retired` of one
//! run. A *slot* is one `(program, input)` pair: its samples over the
//! rounds repeat the same work exactly, so their minimum is the run the
//! host disturbed least (README, "Host noise"). A workload's value is the
//! geometric mean of its slots' minima.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jvm_bytecode::verifier::verify_program;
use jvm_vm::DecodedProgram;
use trace_exec::{compile, lower_reg, TracingVm};

use crate::counters::Counts;
use crate::lanes::{engine_config, EngineLane, InterpLane, LadderLane, Rung};
use crate::oracle::Tally;
use crate::stats::{geomean, Span};
use crate::tracer::{quietest_sum, Laps, Tracer, SETUP_ROUND};
use crate::workloads::{Item, Spec, Usage};

/// Bursts the timed rounds are grouped in. A burst runs back to back, so
/// all but its first round start with warm caches; the waits fall between
/// bursts.
const BURSTS: u32 = 10;

/// Untimed rounds run in set-up, so the timed rounds of a long-lived VM
/// start with profiles built, traces linked and streams fused.
const WARMUP_ROUNDS: u32 = 2;

pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Timed rounds to run: a fixed count, the same work on both sides of
    /// a comparison. Nothing about the clock changes it.
    pub rounds: u32,
    /// Wall time the timed rounds are paced over, in [`BURSTS`] bursts.
    /// The rounds need well under all of it on a quiet host; spreading
    /// them makes the window longer than the host's slow phases (README,
    /// "Host noise"), so every slot meets a quiet moment. Rounds that need
    /// longer than this run back to back and take as long as they take.
    pub span: Duration,
    pub traced: bool,
    /// Plant one wrong expectation and one truncated snapshot, to show
    /// that the failure count fires.
    pub self_check: bool,
}

/// Everything set-up produces that the lanes borrow.
struct Prepared {
    items: Vec<Item>,
    /// One snapshot per item (`snapshot_fleet` only).
    snapshots: Vec<Vec<u8>>,
}

/// The lanes of one program. The ladder and the extra engine legs exist
/// only in a traced run.
struct Lanes<'p> {
    engine: EngineLane<'p>,
    interp: InterpLane<'p>,
    ladder: Option<Ladder<'p>>,
}

struct Ladder<'p> {
    /// The engine leg again with span recording off: the denominator of
    /// `trace_overhead_pct`. A VM of its own, on the same schedule.
    bare: EngineLane<'p>,
    plain: InterpLane<'p>,
    observe: LadderLane<'p>,
    construct: LadderLane<'p>,
    /// A VM built and run inside the timed region, never booted from a
    /// snapshot; in a fleet its second run is the warm sample.
    cold: EngineLane<'p>,
    /// Fleets only: a fresh profile-fused interpreter, run time alone.
    fused: InterpLane<'p>,
}

/// The samples of one leg, filed both ways.
#[derive(Default)]
struct Series {
    by_slot: Vec<Vec<f64>>,
    by_round: Vec<Vec<f64>>,
}

fn file(rows: &mut Vec<Vec<f64>>, row: usize, v: f64) {
    if rows.len() <= row {
        rows.resize_with(row + 1, Vec::new);
    }
    rows[row].push(v);
}

/// Samples by series (which leg), by slot (which `(program, input)`) and
/// by round.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Series>);

impl Samples {
    fn push(&mut self, series: &'static str, slot: usize, round: u32, v: f64) {
        let s = self.0.entry(series).or_default();
        file(&mut s.by_slot, slot, v);
        file(&mut s.by_round, round as usize, v);
    }

    /// Each slot's least-disturbed run; `None` for a slot the rounds run
    /// never reached (fewer rounds than a program has inputs).
    pub fn slot_minima(&self, series: &str) -> Vec<Option<f64>> {
        self.0.get(series).map_or(Vec::new(), |s| {
            s.by_slot
                .iter()
                .map(|runs| runs.iter().copied().min_by(f64::total_cmp))
                .collect()
        })
    }

    /// The series' value: geometric mean over slots of each slot's
    /// least-disturbed run.
    pub fn estimate(&self, series: &str) -> Option<f64> {
        let minima: Vec<f64> = self.slot_minima(series).into_iter().flatten().collect();
        (!minima.is_empty()).then(|| geomean(&minima))
    }

    /// One value per round: geometric mean over the runs of the round.
    pub fn round_values(&self, series: &str) -> Vec<f64> {
        self.0.get(series).map_or(Vec::new(), |s| {
            s.by_round
                .iter()
                .filter(|runs| !runs.is_empty())
                .map(|runs| geomean(runs))
                .collect()
        })
    }
}

/// State read from the engine VMs when their work is done: summed over
/// the long-lived VMs, or over the VMs of the first round where a VM does
/// not outlive its round.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndState {
    pub vms: u64,
    pub snapshot_bytes: u64,
    pub lowered_bytes: u64,
    pub payload_bytes: u64,
    pub links_live: u64,
    pub decoded_bytes: u64,
    pub bcg_nodes: u64,
    pub bcg_bytes: u64,
}

/// Totals of the per-round compile + register-lowering pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoweringPass {
    pub reg_fallbacks: u64,
    pub tinstrs: u64,
    pub rinstrs: u64,
}

/// What a slot is, for the per-slot rows of the result file.
pub struct SlotInfo {
    pub name: String,
    pub instructions: u64,
}

pub struct Outcome {
    pub spec: &'static Spec,
    pub seed: u64,
    pub rounds: u32,
    pub traced: bool,
    /// Set-up, lap by lap the quietest of its performances.
    pub setup_s: f64,
    /// Each performance of set-up as a whole.
    pub setup_performances_s: Vec<f64>,
    pub samples: Samples,
    pub slots: Vec<SlotInfo>,
    pub tally: Tally,
    /// The engine leg over the timed rounds.
    pub engine: Counts,
    pub interp_instructions: u64,
    pub interp_blocks: u64,
    pub first_entries: Vec<u64>,
    pub prebuilt: u64,
    /// Bytes of the snapshots the fleet boots from (`snapshot_fleet`).
    pub boot_snapshot_bytes: u64,
    pub batches: u64,
    pub end: EndState,
    pub lowering: LoweringPass,
    pub spans: Vec<Span>,
    pub wall_s: f64,
}

fn prepare(spec: &Spec, seed: u64, tr: &mut Tracer, laps: &mut Laps) -> Prepared {
    let items = spec.build(seed, laps);
    let snapshots = match spec.usage {
        Usage::FreshVm { snapshot: true } => items
            .iter()
            .map(|it| {
                let mut vm = TracingVm::new(&it.program, engine_config());
                // The cold run that earns the profile; a trap would show
                // again in the timed runs, where it is counted.
                let _ = vm.run(&it.inputs[0]);
                let bytes = tr.leaf("persist.snapshot", || vm.snapshot());
                laps.lap();
                bytes
            })
            .collect(),
        _ => Vec::new(),
    };
    Prepared { items, snapshots }
}

fn lanes<'p>(spec: &Spec, prep: &'p Prepared, traced: bool) -> Vec<Lanes<'p>> {
    // The best interpreter for the usage: profile-fused where a VM lives
    // long enough to have a profile, plain where every run is its first.
    let fused = !matches!(spec.usage, Usage::FreshVm { .. });
    prep.items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let boot = prep.snapshots.get(i).map(Vec::as_slice);
            Lanes {
                engine: EngineLane::new(&it.program, boot),
                interp: InterpLane::new(&it.program, fused),
                ladder: traced.then(|| Ladder {
                    bare: EngineLane::new(&it.program, boot),
                    plain: InterpLane::new(&it.program, false),
                    observe: LadderLane::new(&it.program, Rung::Observe),
                    construct: LadderLane::new(&it.program, Rung::Construct),
                    cold: EngineLane::new(&it.program, None),
                    fused: InterpLane::new(&it.program, true),
                }),
            }
        })
        .collect()
}

/// What a round is for, and where its record goes.
enum Round<'a> {
    /// A timed round files a sample per leg and run.
    Timed(&'a mut Samples),
    /// A warm-up round is part of set-up: one lap per program.
    WarmUp(&'a mut Laps),
}

/// A prepared workload with its lanes, ready to run rounds.
struct Session<'p, 't> {
    spec: &'static Spec,
    prep: &'p Prepared,
    lanes: Vec<Lanes<'p>>,
    tr: &'t mut Tracer,
    tally: Tally,
    end: EndState,
    lowering: LoweringPass,
}

impl<'p, 't> Session<'p, 't> {
    /// Builds the lanes and, unless every run is a VM's first, runs the
    /// warm-up rounds. Part of set-up. (Where a VM lives one round, they
    /// warm the interpreter leg only: its profile run and fusion belong in
    /// `setup_s`, not between two timed legs.)
    fn warm(
        spec: &'static Spec,
        prep: &'p Prepared,
        traced: bool,
        tr: &'t mut Tracer,
        laps: &mut Laps,
    ) -> Self {
        let mut s = Session {
            spec,
            prep,
            lanes: lanes(spec, prep, traced),
            tr,
            tally: Tally::default(),
            end: EndState::default(),
            lowering: LoweringPass::default(),
        };
        if !matches!(spec.usage, Usage::FreshVm { .. }) {
            for r in 0..WARMUP_ROUNDS {
                s.round(r, Round::WarmUp(laps));
            }
            for ln in &mut s.lanes {
                ln.engine.clear_counts();
                ln.interp.clear_counts();
                if let Some(ld) = ln.ladder.as_mut() {
                    ld.construct.clear_counts();
                }
            }
            // A failure in warm-up repeats in the timed rounds, on the
            // same inputs, and is counted there.
            s.tally = Tally::default();
        }
        s
    }

    /// Runs every scheduled input of every program once on every lane.
    /// A warm-up round records nothing but its laps, exercises nothing
    /// that is fresh per run, and reads no end state.
    fn round(&mut self, round: u32, mut purpose: Round<'_>) {
        let usage = self.spec.usage;
        let fresh = matches!(usage, Usage::FreshVm { .. });
        let timed = matches!(purpose, Round::Timed(_));
        let tr = &mut *self.tr;
        let tally = &mut self.tally;
        let mut first_slot = 0;
        for (it, ln) in self.prep.items.iter().zip(&mut self.lanes) {
            if usage == Usage::RoundLived {
                // A new VM life: the engine, and the profilers of the
                // ladder that would otherwise remember the last round.
                ln.engine.reset();
                if let Some(ld) = ln.ladder.as_mut() {
                    ld.bare.reset();
                    ld.observe.reset();
                    ld.construct.reset();
                }
            }
            for k in self.spec.schedule(it, round) {
                let slot = first_slot + k;
                let (args, exp) = (&it.inputs[k], &it.expected[k]);
                let mut record = |series: &'static str, ns: u64, per: u64| {
                    if let Round::Timed(s) = &mut purpose {
                        s.push(series, slot, round, ns as f64 / per as f64);
                    }
                };
                let retired = exp.instructions;
                let program_span = tr.begin("program");

                if fresh {
                    ln.engine.reset();
                    ln.interp.reset();
                }
                // The bare engine leg (span recording off: the denominator
                // of `trace_overhead_pct`) runs before the recorded one on
                // odd rounds and after it on even ones, so neither always
                // inherits the other's cache state.
                let bare_first = round % 2 == 1;
                let bare_leg = |ld: &mut Ladder<'p>, tr: &mut Tracer, tally: &mut Tally| {
                    if fresh {
                        ld.bare.reset();
                    }
                    let was = std::mem::replace(&mut tr.recording, false);
                    let ns = ld.bare.run("leg.engine", args, exp, tr, tally);
                    tr.recording = was;
                    ns
                };
                if let (Some(ld), true) = (ln.ladder.as_mut(), bare_first) {
                    record("bare", bare_leg(ld, tr, tally), retired);
                }
                record(
                    "engine",
                    ln.engine.run("leg.engine", args, exp, tr, tally),
                    retired,
                );
                record(
                    "interp",
                    ln.interp.run("leg.interp", args, exp, tr, tally),
                    retired,
                );
                if let (Some(ld), false) = (ln.ladder.as_mut(), bare_first) {
                    record("bare", bare_leg(ld, tr, tally), retired);
                }

                if let Some(ld) = ln.ladder.as_mut() {
                    if fresh {
                        ld.plain.reset();
                        ld.observe.reset();
                        ld.construct.reset();
                    }
                    record(
                        "plain",
                        ld.plain.run("ladder.plain", args, exp, tr, tally),
                        retired,
                    );
                    record("observe", ld.observe.run(args, exp, tr, tally), retired);
                    record("construct", ld.construct.run(args, exp, tr, tally), retired);
                    if timed {
                        ld.cold.reset();
                        record(
                            "cold",
                            ld.cold.run("leg.cold", args, exp, tr, tally),
                            retired,
                        );
                        // A long-lived engine leg is itself the warm
                        // engine, a long-lived interpreter leg the fused
                        // one; elsewhere they are legs of their own.
                        if usage != Usage::LongLived {
                            record(
                                "warm",
                                ld.cold.run("leg.warm", args, exp, tr, tally),
                                retired,
                            );
                        }
                        if fresh {
                            ld.fused.reset();
                            record(
                                "fused",
                                ld.fused.run("leg.fused", args, exp, tr, tally),
                                retired,
                            );
                        }
                        static_layers(it, &mut record, tr);
                        if let Some(vm) = ln.engine.vm() {
                            lowering_pass(it, vm, &mut self.lowering, tr);
                        }
                    }
                }
                tr.end(program_span);
            }
            // VMs that die with their run or their round are read in the
            // first round (every round repeats it exactly).
            if timed && usage != Usage::LongLived && round == 0 {
                read_end_state(&mut self.end, ln);
            }
            first_slot += it.inputs.len();
            if let Round::WarmUp(laps) = &mut purpose {
                laps.lap();
            }
        }
    }
}

/// `bytecode.verify` and `vm.decode`, timed on their own. Both already
/// ran inside program build and VM construction; this is the outside-in
/// measurement of each alone, per static instruction.
fn static_layers(it: &Item, record: &mut impl FnMut(&'static str, u64, u64), tr: &mut Tracer) {
    let static_instrs = it.program.total_instructions() as u64;
    let o = tr.begin("bytecode.verify");
    let verdict = verify_program(&it.program);
    record("verify", tr.end(o), static_instrs);
    debug_assert!(verdict.is_ok(), "built programs verify");
    let o = tr.begin("vm.decode");
    let decoded = DecodedProgram::decode(&it.program);
    record("decode", tr.end(o), static_instrs);
    std::hint::black_box(decoded);
}

/// Compiles and register-lowers every live trace of the engine's cache,
/// as `TracingVm` does at first dispatch, one span per call.
fn lowering_pass(it: &Item, vm: &TracingVm<'_>, pass: &mut LoweringPass, tr: &mut Tracer) {
    for trace in vm.cache().iter_traces() {
        if trace.is_empty() {
            continue; // tombstoned
        }
        let Ok(ct) = tr.leaf("exec.compile", || compile(&it.program, trace)) else {
            continue;
        };
        match tr.leaf("exec.lower_reg", || {
            lower_reg(&it.program, vm.decoded(), &ct)
        }) {
            Some(rt) => {
                pass.tinstrs += rt.stats.before as u64;
                pass.rinstrs += rt.stats.after as u64;
            }
            None => pass.reg_fallbacks += 1,
        }
    }
}

fn read_end_state(end: &mut EndState, ln: &Lanes<'_>) {
    let Some(vm) = ln.engine.vm() else { return };
    end.vms += 1;
    end.snapshot_bytes += vm.snapshot().len() as u64;
    end.lowered_bytes += vm.lowered_memory() as u64;
    end.payload_bytes += vm.cache().payload_bytes() as u64;
    end.links_live += vm.cache().stats().links_live as u64;
    end.decoded_bytes += vm.decoded().memory_estimate().total() as u64;
    end.bcg_nodes += ln.engine.lifetime().profiler.nodes_created;
    if let Some(ld) = &ln.ladder {
        end.bcg_bytes += ld.construct.bcg_bytes() as u64;
    }
}

pub fn run(opts: &Options) -> Outcome {
    let started = Instant::now();
    let spec = opts.spec;
    let mut tr = Tracer::new(opts.traced);

    // Every performance of set-up, as its laps.
    let mut setups = Vec::new();
    let mut laps = Laps::start();
    let o = tr.begin("setup");
    let mut prep = prepare(spec, opts.seed, &mut tr, &mut laps);
    if opts.self_check {
        prep.items[0].expected[0].checksum ^= 1;
        if let Some(s) = prep.snapshots.first_mut() {
            s.truncate(s.len() / 2);
        }
    }
    let mut session = Session::warm(spec, &prep, opts.traced, &mut tr, &mut laps);
    setups.push(laps.finish());
    session.tr.end(o);

    // Set-up is performed `setup_repeats` times. The repeats after the
    // first do the same work and drop it; they run between bursts, evenly
    // over the rounds, so that they too see more than one phase of the
    // host. They take their time out of the waits: the bursts after one
    // start late and close up until the schedule is met again.
    let per_burst = opts.rounds.div_ceil(BURSTS);
    let rehearse_at = |k: u32| opts.rounds * k / spec.setup_repeats / per_burst * per_burst;

    let mut samples = Samples::default();
    let timed_from = Instant::now();
    for round in 0..opts.rounds {
        // (`setup_s` is an end-to-end metric: a traced run reports none.)
        let due_now = |k: &u32| !opts.traced && rehearse_at(*k) == round;
        for _ in (1..spec.setup_repeats).filter(due_now) {
            let mut laps = Laps::start();
            session.tr.round = SETUP_ROUND;
            let o = session.tr.begin("setup");
            let prep = prepare(spec, opts.seed, session.tr, &mut laps);
            let rehearsal = Session::warm(spec, &prep, opts.traced, session.tr, &mut laps);
            setups.push(laps.finish());
            drop(rehearsal);
            session.tr.end(o);
        }
        if round % per_burst == 0 {
            let due = opts.span.mul_f64(f64::from(round) / f64::from(opts.rounds));
            std::thread::sleep(due.saturating_sub(timed_from.elapsed()));
        }
        session.tr.round = round;
        let o = session.tr.begin("round");
        session.round(round, Round::Timed(&mut samples));
        session.tr.end(o);
    }
    session.tr.round = SETUP_ROUND;

    // Long-lived VMs are read once their work is done.
    if spec.usage == Usage::LongLived {
        for ln in &session.lanes {
            read_end_state(&mut session.end, ln);
        }
    }
    let mut engine = Counts::default();
    let (mut interp_instructions, mut interp_blocks) = (0, 0);
    let (mut first_entries, mut prebuilt, mut batches) = (Vec::new(), 0, 0);
    for ln in &session.lanes {
        engine += ln.engine.counts;
        interp_instructions += ln.interp.instructions;
        interp_blocks += ln.interp.block_dispatches;
        prebuilt += ln.engine.prebuilt;
        // The first run of a VM's life: in the engine leg itself where
        // VMs are born in timed rounds, the cold leg beside a long-lived
        // engine.
        match (&ln.ladder, spec.usage) {
            (Some(ld), Usage::LongLived) => first_entries.extend(&ld.cold.first_entries),
            (None, Usage::LongLived) => {}
            _ => first_entries.extend(&ln.engine.first_entries),
        }
        if let Some(ld) = &ln.ladder {
            batches += ld.construct.batches;
        }
    }
    let slots = prep
        .items
        .iter()
        .flat_map(|it| {
            it.expected.iter().enumerate().map(|(k, e)| SlotInfo {
                name: if it.inputs.len() > 1 {
                    format!("{}#{k}", it.name)
                } else {
                    it.name.clone()
                },
                instructions: e.instructions,
            })
        })
        .collect();
    let Session {
        tally,
        end,
        lowering,
        ..
    } = session;
    Outcome {
        spec,
        seed: opts.seed,
        rounds: opts.rounds,
        traced: opts.traced,
        setup_s: quietest_sum(&setups),
        setup_performances_s: setups.iter().map(|laps| laps.iter().sum()).collect(),
        samples,
        slots,
        tally,
        engine,
        interp_instructions,
        interp_blocks,
        first_entries,
        prebuilt,
        boot_snapshot_bytes: prep.snapshots.iter().map(|s| s.len() as u64).sum(),
        batches,
        end,
        lowering,
        spans: tr.into_spans(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_is_valued_by_its_slots_quietest_runs() {
        let mut s = Samples::default();
        // Two slots, three rounds; round 1 was disturbed on both.
        for (slot, runs) in [[2.0, 9.0, 2.5], [8.0, 30.0, 8.0]].iter().enumerate() {
            for (round, &v) in runs.iter().enumerate() {
                s.push("engine", slot, round as u32, v);
            }
        }
        assert_eq!(s.estimate("engine"), Some(4.0)); // sqrt(2 * 8)
        let rounds = s.round_values("engine");
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0], 4.0);
        assert!(rounds[1] > 16.0);
        assert_eq!(s.estimate("absent"), None);
        assert!(s.round_values("absent").is_empty());
    }

    /// A program whose input cycles by round has one slot per input: a
    /// cheap input cannot stand in for a dear one.
    #[test]
    fn inputs_of_one_program_are_slots_of_their_own() {
        let mut s = Samples::default();
        // Inputs 0, 1, 2 in rounds 0..6; input 1 costs twice the others.
        for round in 0..6u32 {
            let slot = (round % 3) as usize;
            let cost = if slot == 1 { 4.0 } else { 2.0 };
            s.push("engine", slot, round, cost + f64::from(round / 3));
        }
        assert_eq!(s.slot_minima("engine"), [Some(2.0), Some(4.0), Some(2.0)]);
        let expected = (2.0f64 * 4.0 * 2.0).powf(1.0 / 3.0);
        assert!((s.estimate("engine").unwrap() - expected).abs() < 1e-12);
        assert_eq!(s.round_values("engine").len(), 6);
        // A slot no round reached has no value and is left out.
        s.push("engine", 4, 6, 9.0);
        assert_eq!(s.slot_minima("engine")[3], None);
    }
}
