//! The differential matrix: program source × VM configuration, every
//! cell against one oracle.
//!
//! The paper's first correctness claim is that trace dispatch is
//! semantically transparent: whoever executes a program, it gives the
//! same result, checksum and instruction stream. Here that claim is
//! written down once. A [`Case`] is a program with its [`Oracle`], one
//! [`ReferenceVm`] run recording everything observable. A [`Row`] is a
//! VM-level configuration; [`Case::check`] runs the program under it and
//! compares each run — the fields that row can see — with the oracle.
//! The first mismatch is reported with the source, its seed, the row,
//! the run and the field.
//!
//! A new configuration is one [`Row`] variant and one arm of
//! [`Case::check`]. What a row must show beyond parity (it entered
//! traces, it fused something) its test reads from the [`CellReport`].

use jvm_bytecode::{BlockId, CmpOp, FunctionBuilder, Intrinsic, Program, ProgramBuilder};
use jvm_vm::heap::HeapStats;
use jvm_vm::{
    fold_checksum, fuse, BlockCounts, DispatchObserver, ExecStats, FusionConfig, OutputItem,
    RecordingObserver, ReferenceVm, Value, Vm, VmError,
};
use trace_bcg::BranchCorrelationGraph;
use trace_cache::TraceExecStats;
use trace_exec::{EngineConfig, TracingVm};
use trace_jit::{NetSelector, ReplaySelector, RunReport, TraceJitConfig, TraceVm};
use trace_workloads::prng::{seed_stream, Xoshiro256StarStar};
use trace_workloads::registry::{self, Scale, Workload};

use crate::genprog::{args_from, build_program, gen_block};

/// Seed base of the generated corpus: case `k` is `seed_stream(FUZZ_SEED, k)`.
const FUZZ_SEED: u64 = 0xD1FF_5EED;

/// Seed base of the named sources: named source `k` is labelled with
/// `seed_stream(NAMED_SEED, k)`.
const NAMED_SEED: u64 = 0xFA17_CA5E;

/// Where a program comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// One of the six paper analogues at `Scale::Test`.
    Registry,
    /// A branch-bias flip variant (`phase_shift`, `_early`, `_late`).
    PhaseShift,
    /// The edge-operand loop ([`edge_operands`]).
    EdgeOperands,
    /// A `genprog` program.
    Fuzz,
}

/// Everything one [`ReferenceVm`] run of a program lets a reader observe.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// Return value, or the trap.
    pub result: Result<Option<Value>, VmError>,
    /// Checksum accumulated by the `checksum` intrinsic.
    pub checksum: u64,
    /// Every execution counter.
    pub exec: ExecStats,
    /// Heap counters.
    pub heap: HeapStats,
    /// Captured print output.
    pub output: Vec<OutputItem>,
    /// The dispatch stream, block by block.
    pub stream: Vec<BlockId>,
}

/// A program, its arguments and its oracle.
#[derive(Debug, Clone)]
pub struct Case {
    /// Workload name, or `fuzz #k`.
    pub label: String,
    /// Where the program comes from.
    pub kind: SourceKind,
    /// The generation seed of a fuzz case; a label of a named one.
    pub seed: u64,
    /// The verified program.
    pub program: Program,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// The reference run.
    pub oracle: Oracle,
}

/// The six workloads, the three phase-shift variants and `fuzz_cases`
/// generated programs of the matrix's corpus, each with its oracle.
///
/// # Panics
///
/// If a workload's oracle checksum is not the one its reference
/// implementation predicts.
pub fn cases(fuzz_cases: u64) -> Vec<Case> {
    let mut cases = named();
    cases.extend(corpus(FUZZ_SEED, fuzz_cases));
    cases
}

/// The six workloads, then the three phase-shift variants, then the
/// edge-operand loop at two trip counts, each with its oracle.
///
/// # Panics
///
/// If a workload's oracle checksum is not the one its reference
/// implementation predicts.
pub fn named() -> Vec<Case> {
    let mut cases = workloads();
    let phase_shift = [
        registry::phase_shift(Scale::Test),
        registry::phase_shift_early(Scale::Test),
        registry::phase_shift_late(Scale::Test),
    ];
    for w in phase_shift {
        cases.push(named_case(SourceKind::PhaseShift, cases.len(), w));
    }
    // The body's trace is the body unrolled once and closes the loop
    // through its final switch: at 256 iterations the loop leaves through
    // the first copy's guard, at 257 through that switch into the exit
    // block.
    for n in [256, 257] {
        let edge = edge_operands(n);
        let mut case = named_case(SourceKind::EdgeOperands, cases.len(), edge);
        case.label = format!("edge_operands({n})");
        cases.push(case);
    }
    cases
}

/// The six workloads, each with its oracle.
///
/// # Panics
///
/// As [`named`].
pub fn workloads() -> Vec<Case> {
    let workloads = registry::all(Scale::Test).into_iter().enumerate();
    workloads
        .map(|(k, w)| named_case(SourceKind::Registry, k, w))
        .collect()
}

/// Shift counts of the edge-operand loop: at, past and below the six
/// bits a shift keeps.
const EDGE_SHIFTS: [i64; 4] = [63, 64, 65, -1];

/// `main(n)`: a hot loop, `i` from `n` down to 1, that checksums every
/// operand Java's semantics special-case — `i64::MIN / -1` and `% -1`,
/// shift counts past 63 and negative, `f2i` of NaN, ±∞ and 1e30, `fdiv`
/// by 0.0, `iabs(i64::MIN)`, `imin` / `imax` — so that they run in the
/// plain loop, in fused groups and in traces. The checksum it must give is
/// replayed in Rust.
pub fn edge_operands(n: i64) -> Workload {
    const K: i64 = 0x9E37_79B9_7F4A_7C15_u64 as i64;
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let (i, x, min, neg, cnt) = (
        0,
        b.alloc_local(),
        b.alloc_local(),
        b.alloc_local(),
        b.alloc_local(),
    );
    b.iconst(i64::MIN).store(min).iconst(-1).store(neg);
    let exit = b.new_label();
    b.load(i).if_i(CmpOp::Le, exit);
    // Closed by a switch, so a trace of the body runs it as its final
    // terminator and closes the loop through it (and every switch before
    // that end is a guard).
    let head = b.bind_new_label();
    b.load(i).iconst(K).imul().store(x);
    b.load(i).iconst(7).iand().iconst(60).iadd().store(cnt);
    let sum = Intrinsic::Checksum;
    b.load(min).load(neg).idiv().intrinsic(sum);
    b.load(min).iconst(-1).irem().intrinsic(sum);
    let shifts: [fn(&mut FunctionBuilder) -> &mut FunctionBuilder; 3] =
        [|b| b.ishl(), |b| b.ishr(), |b| b.iushr()];
    for shift in shifts {
        for c in EDGE_SHIFTS {
            shift(b.load(x).iconst(c)).intrinsic(sum);
        }
        shift(b.load(x).load(cnt)).intrinsic(sum);
    }
    b.fconst(0.0).fconst(0.0).fdiv().f2i().intrinsic(sum);
    b.load(i).i2f().fconst(0.0).fdiv().f2i().intrinsic(sum);
    b.load(i)
        .i2f()
        .fneg()
        .fconst(0.0)
        .fdiv()
        .f2i()
        .intrinsic(sum);
    b.load(i).i2f().fconst(1e30).fmul().f2i().intrinsic(sum);
    b.load(min).intrinsic(Intrinsic::AbsI).intrinsic(sum);
    b.load(x)
        .load(neg)
        .intrinsic(Intrinsic::MinI)
        .intrinsic(sum);
    b.load(x)
        .load(neg)
        .intrinsic(Intrinsic::MaxI)
        .intrinsic(sum);
    b.iinc(i, -1).load(i).table_switch(0, &[exit], head);
    b.bind(exit);
    b.load(x).ret();
    let program = pb.build(f).expect("the edge-operand loop verifies");

    // The same values under Java's definitions, spelled out.
    let mut expected = 0;
    for i in (1..=n).rev() {
        let x = i.wrapping_mul(K);
        let cnt = (i & 7) + 60;
        let mut values = vec![i64::MIN, 0];
        for c in EDGE_SHIFTS.into_iter().chain([cnt]) {
            values.push(x << (c & 63));
        }
        for c in EDGE_SHIFTS.into_iter().chain([cnt]) {
            values.push(x >> (c & 63));
        }
        for c in EDGE_SHIFTS.into_iter().chain([cnt]) {
            values.push(((x as u64) >> (c & 63)) as i64);
        }
        values.extend([
            0,
            i64::MAX,
            i64::MIN,
            i64::MAX,
            i64::MIN,
            x.min(-1),
            x.max(-1),
        ]);
        for v in values {
            expected = fold_checksum(expected, v);
        }
    }
    Workload {
        name: "edge_operands",
        description: "wrapping, masking and saturating operands in a hot loop",
        program,
        args: vec![Value::Int(n)],
        expected_checksum: expected,
    }
}

/// The case of the `k`-th named source.
fn named_case(kind: SourceKind, k: usize, w: Workload) -> Case {
    let seed = seed_stream(NAMED_SEED, k as u64);
    let case = Case::new(w.name.into(), kind, seed, w.program, w.args);
    let want = w.expected_checksum;
    assert_eq!(case.oracle.checksum, want, "{}: oracle checksum", w.name);
    case
}

/// `n` generated programs, case `k` from `seed_stream(seed_base, k)`,
/// each with its oracle.
pub fn corpus(seed_base: u64, n: u64) -> Vec<Case> {
    let fuzz = (0..n).map(|k| {
        let seed = seed_stream(seed_base, k);
        let mut rng = Xoshiro256StarStar::new(seed);
        let program = build_program(&gen_block(&mut rng, 3, 1, 8));
        let args = args_from(rng.next_i64());
        Case::new(format!("fuzz #{k}"), SourceKind::Fuzz, seed, program, args)
    });
    fuzz.collect()
}

/// Checks `row` on every case, panicking with the located message at the
/// first divergence; returns each case with its cell.
pub fn check_all(cases: &[Case], row: Row) -> Vec<(&Case, CellReport)> {
    let check = |case: &Case| case.check(row).unwrap_or_else(|d| panic!("{d}"));
    cases.iter().map(|case| (case, check(case))).collect()
}

/// What one run of a row showed: each field the row can observe (as
/// the oracle records it), `None` for the rest. Every present field must
/// equal the oracle's. `instructions` stands in for `exec` on a VM that
/// runs traces, whose other counters differ by design.
#[derive(Debug, Clone, Default, PartialEq)]
struct Observation {
    result: Option<Result<Option<Value>, VmError>>,
    checksum: Option<u64>,
    instructions: Option<u64>,
    exec: Option<ExecStats>,
    heap: Option<HeapStats>,
    output: Option<Vec<OutputItem>>,
    stream: Option<Vec<BlockId>>,
}

impl Observation {
    /// What a run of the decoded loop left behind, whoever drove it.
    fn of_vm(result: Result<Option<Value>, VmError>, vm: &Vm) -> Observation {
        Observation {
            result: Some(result),
            checksum: Some(vm.checksum()),
            exec: Some(vm.stats()),
            heap: Some(vm.heap_stats()),
            output: Some(vm.output().to_vec()),
            ..Observation::default()
        }
    }

    /// What a run report shows, or the trap.
    fn of_run(run: &Result<RunReport, VmError>) -> Observation {
        match run {
            Ok(r) => Observation {
                result: Some(Ok(r.result)),
                checksum: Some(r.checksum),
                exec: Some(r.exec),
                ..Observation::default()
            },
            Err(e) => Observation {
                result: Some(Err(e.clone())),
                ..Observation::default()
            },
        }
    }

    /// Cuts the execution counters to the instruction count.
    fn instructions_only(mut self) -> Observation {
        self.instructions = self.exec.take().map(|e| e.instructions);
        self
    }
}

/// A baseline trace selector (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selector {
    /// Next-executing-tail.
    Net,
    /// rePLay.
    Replay,
}

/// A VM-level configuration. Fuzz cases trace at a start delay of 2 and a
/// threshold of 0.90, so that tiny programs trace, at their unroll factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Row {
    /// The decoded interpreter, two runs on one VM: every field.
    Plain,
    /// The decoded interpreter profiled for one run and then fused
    /// (default selection on named sources, aggressive on fuzz): every
    /// field of both runs.
    Fused,
    /// The paper's dispatch monitor `core::TraceVm` at paper defaults:
    /// result, checksum, counters; a second instance reports identically.
    Monitor,
    /// The trace-executing engine at start delay 16, three runs on one VM:
    /// result, checksum, instruction count, heap counters, output.
    Engine,
    /// The engine at a start delay no run reaches, two runs: every field
    /// but the stream, and the profiler's counters of the oracle's stream.
    NeverEnter,
    /// Start delay 8, decay interval 64 and threshold 0.90, snapshot
    /// after one run, booted into a fresh engine: both runs as `Engine`.
    WarmBoot,
    /// A baseline selector under `core::TraceVm`: result, checksum,
    /// counters.
    Selector(Selector),
}

/// Per-run facts of a trace-executing or fusing cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunFacts {
    /// Trace runs begun in this run: its share of the VM's lifetime
    /// `entered + loop_closings`.
    pub trace_runs: u64,
    /// Trace runs in this run that ran to their end: every completed
    /// execution's last run, and every run that closed a loop or went on
    /// into another trace (an execution that closes a loop and then
    /// leaves through a guard completed each run but its last).
    pub completed: u64,
    /// Block dispatches of this run.
    pub block_dispatches: u64,
    /// Dispatch count at the VM's first trace entry (0: none yet).
    pub first_entry_dispatch: u64,
    /// Lowered traces the VM holds after the run.
    pub compiled: usize,
    /// Fusions the `Fused` row's DOp rewrite applied.
    pub fusions: Option<u64>,
    /// Fused group heads in the VM's decoded streams after the run.
    pub fused_heads: u64,
}

/// What a cell showed besides parity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellReport {
    /// One entry per run of the rows that trace; the `Fused` row's one
    /// entry describes its rewrite.
    pub runs: Vec<RunFacts>,
    /// Artifacts the warm boot pre-built (`WarmBoot`).
    pub artifacts_prebuilt: usize,
}

/// One cell being checked: where a mismatch is reported from.
struct Cell<'a> {
    case: &'a Case,
    row: Row,
    report: CellReport,
}

impl Cell<'_> {
    fn check<T: PartialEq + std::fmt::Debug>(
        &self,
        run: usize,
        field: &str,
        got: &T,
        want: &T,
    ) -> Result<(), String> {
        if got == want {
            return Ok(());
        }
        Err(self.diverge(run, field, format!("{got:?}, want {want:?}")))
    }

    fn diverge(&self, run: usize, field: &str, detail: String) -> String {
        let Case { label, seed, .. } = self.case;
        let row = self.row;
        format!("{label} (seed {seed:#x}) × {row:?}, run {run}: {field} diverged: {detail}")
    }

    fn field<T: PartialEq + std::fmt::Debug>(
        &self,
        run: usize,
        field: &str,
        got: &Option<T>,
        want: &T,
    ) -> Result<(), String> {
        got.as_ref()
            .map_or(Ok(()), |got| self.check(run, field, got, want))
    }

    /// Compares every field `got` holds with the oracle.
    fn compare(&self, run: usize, got: &Observation) -> Result<(), String> {
        let want = &self.case.oracle;
        self.field(run, "result", &got.result, &want.result)?;
        self.field(run, "checksum", &got.checksum, &want.checksum)?;
        let instructions = &want.exec.instructions;
        self.field(run, "instructions", &got.instructions, instructions)?;
        self.field(run, "exec stats", &got.exec, &want.exec)?;
        self.field(run, "heap stats", &got.heap, &want.heap)?;
        self.field(run, "output", &got.output, &want.output)?;
        let Some(stream) = &got.stream else {
            return Ok(());
        };
        // Located at the first differing event, not one huge diff.
        let want = &want.stream;
        let first = stream.iter().zip(want).position(|(g, w)| g != w);
        let shorter = stream.len().min(want.len());
        match first.or((stream.len() != want.len()).then_some(shorter)) {
            Some(i) => {
                let detail = format!("at event {i}: {:?}, want {:?}", stream.get(i), want.get(i));
                Err(self.diverge(run, "dispatch stream", detail))
            }
            None => Ok(()),
        }
    }

    /// One run of a trace-executing VM, checked, with its facts recorded.
    /// `before` carries the VM's lifetime trace counters between runs.
    fn engine_run(
        &mut self,
        vm: &mut TracingVm,
        before: &mut TraceExecStats,
    ) -> Result<(), String> {
        let run = self.report.runs.len();
        let result = vm.run(&self.case.args);
        let ran = result.as_ref().map(|r| r.result).map_err(Clone::clone);
        self.compare(
            run,
            &Observation::of_vm(ran, vm.interpreter()).instructions_only(),
        )?;
        let after = result.map_or(*before, |r| r.traces);
        let trace_runs = |t: &TraceExecStats| t.entered + t.loop_closings;
        let ran_to_end = |t: &TraceExecStats| t.completed + t.loop_closings;
        self.report.runs.push(RunFacts {
            trace_runs: trace_runs(&after) - trace_runs(before),
            completed: ran_to_end(&after) - ran_to_end(before),
            block_dispatches: vm.interpreter().stats().block_dispatches,
            first_entry_dispatch: after.first_entry_dispatch,
            compiled: vm.compiled_count(),
            fusions: None,
            fused_heads: fused_heads(&self.case.program, vm.decoded()),
        });
        *before = after;
        Ok(())
    }
}

/// Fused group heads in `decoded`'s streams.
fn fused_heads(program: &Program, decoded: &jvm_vm::DecodedProgram) -> u64 {
    let code = |f: &jvm_bytecode::Function| decoded.func(f.id()).code.iter();
    let heads = program.functions().iter().flat_map(code);
    heads.filter(|d| fuse::is_fused(d.op)).count() as u64
}

impl Case {
    fn new(label: String, kind: SourceKind, seed: u64, program: Program, args: Vec<Value>) -> Case {
        let mut vm = ReferenceVm::new(&program);
        let mut stream = RecordingObserver::new();
        let result = vm.run(&args, &mut stream);
        let oracle = Oracle {
            result,
            checksum: vm.checksum(),
            exec: vm.stats(),
            heap: vm.heap_stats(),
            output: vm.output().to_vec(),
            stream: stream.blocks,
        };
        Case {
            label,
            kind,
            seed,
            program,
            args,
            oracle,
        }
    }

    /// The engine configuration of a row: `named` on the named sources;
    /// on a fuzz case the corpus tunables and a loop-unroll factor of 0–4
    /// drawn from the seed.
    fn engine(&self, named: TraceJitConfig) -> EngineConfig {
        let jit = match self.kind {
            SourceKind::Fuzz => TraceJitConfig::paper_default()
                .with_start_delay(2)
                .with_threshold(0.90)
                .with_loop_unroll((self.seed % 5) as usize),
            _ => named,
        };
        EngineConfig { jit }
    }

    /// The DOp-fusion selection of the `Fused` row: the default on the
    /// named sources, every fusible site on a fuzz case.
    fn fusion(&self) -> FusionConfig {
        match self.kind {
            SourceKind::Fuzz => FusionConfig::aggressive(),
            _ => FusionConfig::default(),
        }
    }

    /// Runs this case under `row` and compares every run with the oracle.
    ///
    /// # Errors
    ///
    /// The first divergence, naming source, seed, row, run and field.
    pub fn check(&self, row: Row) -> Result<CellReport, String> {
        let mut cell = Cell {
            case: self,
            row,
            report: CellReport::default(),
        };
        let (program, args) = (&self.program, &self.args[..]);
        let engine_at_16 = self.engine(TraceJitConfig::paper_default().with_start_delay(16));
        match row {
            Row::Plain | Row::Fused => {
                let mut vm = Vm::new(program);
                for run in 0..2 {
                    let mut stream = RecordingObserver::new();
                    let result = vm.run(args, &mut stream);
                    if row == Row::Fused && run == 0 {
                        // The first run's profile fuses the second's streams.
                        let mut counts = BlockCounts::for_program(program);
                        for &block in &stream.blocks {
                            counts.on_block(block);
                        }
                        let fusions = Some(vm.fuse_with_profile(counts, &self.fusion()).fused());
                        let fused_heads = fused_heads(program, vm.decoded());
                        let facts = RunFacts {
                            fusions,
                            fused_heads,
                            ..RunFacts::default()
                        };
                        cell.report.runs.push(facts);
                    }
                    let obs = Observation {
                        stream: Some(stream.blocks),
                        ..Observation::of_vm(result, &vm)
                    };
                    cell.compare(run, &obs)?;
                }
            }
            Row::Monitor => {
                let jit = self.engine(TraceJitConfig::paper_default()).jit;
                let first = TraceVm::new(program, jit).run(args);
                cell.compare(0, &Observation::of_run(&first))?;
                let second = TraceVm::new(program, jit).run(args);
                cell.check(0, "report of a second instance", &second, &first)?;
            }
            Row::Engine => {
                let mut vm = TracingVm::new(program, engine_at_16);
                let mut before = TraceExecStats::default();
                // A cold run, then two on a warm cache.
                for _ in 0..3 {
                    cell.engine_run(&mut vm, &mut before)?;
                }
            }
            Row::NeverEnter => {
                let mut config = EngineConfig::paper_default();
                config.jit.start_delay = 1_000_000_000;
                let mut vm = TracingVm::new(program, config);
                // The interpreter with `bcg.observe` as its observer: the
                // profiler sees the oracle's stream.
                let mut bcg = BranchCorrelationGraph::new(config.jit.bcg_config());
                for run in 0..2 {
                    bcg.begin_stream();
                    for &block in &self.oracle.stream {
                        bcg.observe(block);
                    }
                    let result = vm.run(args);
                    let ran = result.as_ref().map(|r| r.result).map_err(Clone::clone);
                    cell.compare(run, &Observation::of_vm(ran, vm.interpreter()))?;
                    if let Ok(r) = result {
                        cell.check(run, "profiler stats", &r.profiler, &bcg.stats())?;
                        cell.check(run, "traces entered", &r.traces.entered, &0)?;
                        cell.check(run, "traces constructed", &r.cache.traces_constructed, &0)?;
                        // Every dispatch of every run so far is outside.
                        let outside = r.exec.block_dispatches * (run as u64 + 1);
                        cell.check(run, "blocks outside", &r.traces.blocks_outside, &outside)?;
                    }
                }
            }
            Row::WarmBoot => {
                let jit = TraceJitConfig {
                    decay_interval: 64,
                    ..TraceJitConfig::paper_default()
                };
                let config = self.engine(jit.with_start_delay(8).with_threshold(0.90));
                let mut cold = TracingVm::new(program, config);
                cell.engine_run(&mut cold, &mut TraceExecStats::default())?;
                let mut booted = TracingVm::new(program, config);
                match booted.load_snapshot(&cold.snapshot()) {
                    Ok(boot) => cell.report.artifacts_prebuilt = boot.artifacts_prebuilt,
                    Err(e) => return Err(cell.diverge(1, "own snapshot", e.to_string())),
                }
                cell.engine_run(&mut booted, &mut TraceExecStats::default())?;
            }
            Row::Selector(selector) => {
                let jit = TraceJitConfig::paper_default();
                let run = match selector {
                    Selector::Net => {
                        TraceVm::with_selector(program, jit, NetSelector::new()).run(args)
                    }
                    Selector::Replay => {
                        TraceVm::with_selector(program, jit, ReplaySelector::new()).run(args)
                    }
                };
                cell.compare(0, &Observation::of_run(&run))?;
            }
        }
        Ok(cell.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_doctored_observation_is_located() {
        let case = cases(1).pop().expect("one fuzz case");
        let cell = Cell {
            case: &case,
            row: Row::Engine,
            report: CellReport::default(),
        };
        let oracle = &case.oracle;
        let honest = Observation {
            checksum: Some(oracle.checksum),
            stream: Some(oracle.stream.clone()),
            ..Observation::default()
        };
        assert_eq!(cell.compare(1, &honest), Ok(()));

        let wrong = Observation {
            checksum: Some(oracle.checksum ^ 1),
            ..honest.clone()
        };
        let message = cell
            .compare(1, &wrong)
            .expect_err("a wrong checksum diverges");
        let seed = format!("{:#x}", seed_stream(FUZZ_SEED, 0));
        for part in ["fuzz #0", &seed, "Engine", "run 1", "checksum diverged"] {
            assert!(message.contains(part), "{message:?} lacks {part:?}");
        }

        let mut stream = oracle.stream.clone();
        stream[2].block += 1000;
        let wrong = Observation {
            stream: Some(stream),
            ..honest.clone()
        };
        let message = cell.compare(1, &wrong).expect_err("a wrong block diverges");
        assert!(
            message.contains("dispatch stream diverged: at event 2:"),
            "{message}"
        );

        let short = &oracle.stream[..oracle.stream.len() - 1];
        let wrong = Observation {
            stream: Some(short.to_vec()),
            ..honest
        };
        let message = cell
            .compare(1, &wrong)
            .expect_err("a short stream diverges");
        assert!(
            message.contains(&format!("at event {}:", short.len())),
            "{message}"
        );
    }
}
