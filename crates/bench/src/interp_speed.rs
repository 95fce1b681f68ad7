//! Interpreter speed microbenchmark: reference vs pre-decoded engine.
//!
//! Times complete workload runs of the frozen [`ReferenceVm`] (the
//! classic fetch-decode-execute loop over the `Instr` enum, per-
//! instruction block detection, `Vec`-per-frame state) against the
//! pre-decoded threaded [`Vm`] (flat opcode streams with baked-in
//! block-entry markers, frame arena, verifier-backed unchecked stack
//! ops) on every registry workload.
//!
//! Methodology: every leg executes the *identical*
//! semantic work (asserted — same instruction count, same dispatch
//! count, same checksum), each number is the minimum over `repeats`
//! timed runs after one untimed warm-up, and output capture is off so
//! sink pushes don't pollute timing. Costs are reported two ways:
//!
//! * **ns/instruction** — wall time over executed bytecode instructions,
//!   the headline per-dispatch cost model number (DESIGN.md);
//! * **ns/dispatch** — wall time over basic-block dispatches, the unit
//!   of the paper's per-dispatch profiler cost (Tables VI–VII).
//!
//! The report also carries the decoded-code and frame-arena byte
//! footprints, since the decoded form trades memory for dispatch speed.
//!
//! Five additions ride along:
//!
//! * a **fused** leg — the same decoded `Vm` after the profile-driven
//!   superinstruction pass (`jvm_vm::fuse`): a profiling run collects
//!   block visits, selection picks the patterns that clear the default
//!   thresholds, and the timed passes execute the quickened stream;
//! * a **lowered-reg** leg (warm [`TracingVm`], register-lowered
//!   traces), with the lowering's shape counters ([`RegStats`]) of the
//!   traces that engine compiled;
//! * an **observe** / **never-enter** pair — the decoded `Vm` driving
//!   `bcg.observe` from a closure observer, against a `TracingVm` whose
//!   start delay is so long that no trace is ever built. Both execute
//!   every block out of trace with the profiler attached, so their
//!   ratio prices the engine's dispatch hook (signals, entry check)
//!   over the bare profiler. The two are timed
//!   *interleaved* so host drift hits both; [`NEVER_ENTER_MAX_RATIO`]
//!   is the CI bound on the median of the paired rounds' ratios;
//! * per-workload **opcode pair and triple histograms** — the hottest
//!   dynamic adjacencies, reconstructed exactly from the block-dispatch
//!   stream — the evidence base for the superinstruction table, plus
//!   the fusion pass's own statistics (candidates, groups planted,
//!   dispatches eliminated, selected patterns).

use std::collections::HashMap;
use std::time::Instant;

use jvm_bytecode::BlockId;
use jvm_vm::decode::op;
use jvm_vm::{
    BlockCounts, DecodedMemory, DecodedProgram, FusionConfig, NullObserver, ReferenceVm, Vm,
    VmConfig,
};
use trace_bcg::BranchCorrelationGraph;
use trace_exec::{EngineConfig, RegStats, TracingVm};
use trace_jit::TraceJitConfig;
use trace_workloads::registry::{Scale, Workload};

use crate::json::{fixed, Json};

/// CI bound on [`InterpRow::never_enter_median_ratio`]: the engine's
/// out-of-trace path is the decoded loop itself, so a never-entering
/// engine may cost at most this much more than the loop driving the bare
/// profiler (it was 2.0–2.3× while the engine had an interpreter of its
/// own). The bound is on the median of the paired rounds: a ratio of
/// two independent minima moves with one disturbed round of either leg.
pub const NEVER_ENTER_MAX_RATIO: f64 = 1.5;

/// A start delay no run reaches: no node ever leaves `NewlyCreated`, so
/// the engine builds — and enters — nothing.
const NEVER_ENTER_START_DELAY: u32 = 1_000_000_000;

/// How many hot opcode pairs each row reports.
pub const TOP_PAIRS: usize = 8;

/// How many hot opcode triples each row reports.
pub const TOP_TRIPLES: usize = 8;

/// Statistics of one workload's profile-driven fusion rewrite.
#[derive(Debug, Clone, Default)]
pub struct FusionStats {
    /// Statically matchable group sites (full table, before selection).
    pub candidates: u64,
    /// Groups actually planted under the selected patterns.
    pub applied: u64,
    /// Estimated dynamic dispatches eliminated (profile-weighted).
    pub dispatches_eliminated: u64,
    /// Selected pattern names, union across functions, table order.
    pub selected: Vec<&'static str>,
}

/// Percentage by which `new` is below `base` (0 when `base` is 0).
fn reduction_pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (1.0 - new / base) * 100.0
}

/// One workload's timings (all minima over the repeat count).
#[derive(Debug, Clone, Default)]
pub struct InterpRow {
    /// Workload name (registry name).
    pub name: String,
    /// Executed bytecode instructions (identical on both sides).
    pub instructions: u64,
    /// Basic-block dispatches (identical on both sides).
    pub dispatches: u64,
    /// Reference interpreter, ns per instruction.
    pub reference_ns_per_instr: f64,
    /// Decoded engine, ns per instruction.
    pub decoded_ns_per_instr: f64,
    /// Decoded engine after profile-driven superinstruction fusion, ns
    /// per (source) instruction.
    pub fused_ns_per_instr: f64,
    /// Warm trace-executing engine with register-lowered traces, ns per
    /// (source) instruction.
    pub lowered_reg_ns_per_instr: f64,
    /// Decoded engine driving `bcg.observe` from a closure observer, ns
    /// per instruction (min over the interleaved repeats).
    pub observe_ns_per_instr: f64,
    /// `TracingVm` that never builds a trace, ns per instruction (min
    /// over the interleaved repeats).
    pub never_enter_ns_per_instr: f64,
    /// Median over the repeats of each round's never-enter / observe —
    /// the two were timed back to back, so this is the drift-robust
    /// ratio the CI gate reads ([`NEVER_ENTER_MAX_RATIO`]).
    pub never_enter_median_ratio: f64,
    /// Hottest dynamic opcode pairs `(first, second, count)` — the
    /// fusion/lowering shopping list for this workload.
    pub hot_pairs: Vec<(&'static str, &'static str, u64)>,
    /// Hottest dynamic opcode triples `(a, b, c, count)`.
    pub hot_triples: Vec<(&'static str, &'static str, &'static str, u64)>,
    /// The fusion pass's own numbers for this workload.
    pub fusion: FusionStats,
    /// Decoded-code footprint for this workload's program (bytes).
    pub decoded_memory: DecodedMemory,
    /// Frame-arena slab footprint after the runs (bytes).
    pub arena_bytes: usize,
    /// Register-lowering counters of the lowered-reg engine's traces.
    pub reg: RegStats,
}

impl InterpRow {
    /// Percentage reduction in ns/instruction (positive = decoded
    /// engine faster).
    pub fn improvement_pct(&self) -> f64 {
        reduction_pct(self.decoded_ns_per_instr, self.reference_ns_per_instr)
    }

    /// A leg's ns per instruction as ns per block dispatch of the source
    /// stream (the trace engine itself dispatches far fewer blocks).
    pub fn per_dispatch(&self, ns_per_instr: f64) -> f64 {
        ns_per_instr * self.instructions as f64 / self.dispatches.max(1) as f64
    }

    /// Percentage reduction of the fused decoded engine relative to the
    /// unfused decoded engine (positive = fusion pays).
    pub fn fused_improvement_pct(&self) -> f64 {
        reduction_pct(self.fused_ns_per_instr, self.decoded_ns_per_instr)
    }

    /// Never-entering engine over the decoded loop driving the bare
    /// profiler (min over min; 1.0 = the hook is free).
    pub fn never_enter_ratio(&self) -> f64 {
        if self.observe_ns_per_instr == 0.0 {
            return 1.0;
        }
        self.never_enter_ns_per_instr / self.observe_ns_per_instr
    }

    /// This row as a `workloads` entry of `BENCH_interp.json`.
    pub fn json(&self) -> Json {
        let pairs = self.hot_pairs.iter().map(|(a, b, n)| {
            Json::Obj(vec![
                ("pair", format!("{a} {b}").into()),
                ("count", (*n).into()),
            ])
        });
        let triples = self.hot_triples.iter().map(|(a, b, c, n)| {
            Json::Obj(vec![
                ("triple", format!("{a} {b} {c}").into()),
                ("count", (*n).into()),
            ])
        });
        Json::Obj(vec![
            ("name", self.name.as_str().into()),
            ("instructions", self.instructions.into()),
            ("dispatches", self.dispatches.into()),
            (
                "ns_per_instruction",
                Json::Obj(vec![
                    ("reference", fixed(self.reference_ns_per_instr, 3)),
                    ("decoded", fixed(self.decoded_ns_per_instr, 3)),
                    ("fused", fixed(self.fused_ns_per_instr, 3)),
                    ("lowered-reg", fixed(self.lowered_reg_ns_per_instr, 3)),
                    ("observe", fixed(self.observe_ns_per_instr, 3)),
                    ("never-enter", fixed(self.never_enter_ns_per_instr, 3)),
                    ("improvement_pct", fixed(self.improvement_pct(), 2)),
                    (
                        "fused_improvement_pct",
                        fixed(self.fused_improvement_pct(), 2),
                    ),
                    ("never_enter_ratio", fixed(self.never_enter_ratio(), 3)),
                    (
                        "never_enter_median_ratio",
                        fixed(self.never_enter_median_ratio, 3),
                    ),
                ]),
            ),
            (
                "ns_per_dispatch",
                Json::Obj(vec![
                    (
                        "reference",
                        fixed(self.per_dispatch(self.reference_ns_per_instr), 3),
                    ),
                    (
                        "decoded",
                        fixed(self.per_dispatch(self.decoded_ns_per_instr), 3),
                    ),
                    (
                        "fused",
                        fixed(self.per_dispatch(self.fused_ns_per_instr), 3),
                    ),
                    (
                        "lowered-reg",
                        fixed(self.per_dispatch(self.lowered_reg_ns_per_instr), 3),
                    ),
                ]),
            ),
            (
                "fusion",
                Json::Obj(vec![
                    ("candidates", self.fusion.candidates.into()),
                    ("applied", self.fusion.applied.into()),
                    (
                        "dispatches_eliminated",
                        self.fusion.dispatches_eliminated.into(),
                    ),
                    ("selected", self.fusion.selected.iter().copied().collect()),
                ]),
            ),
            ("hot_opcode_pairs", pairs.collect()),
            ("hot_opcode_triples", triples.collect()),
            ("decoded_code_bytes", self.decoded_memory.code_bytes.into()),
            ("decoded_map_bytes", self.decoded_memory.map_bytes.into()),
            ("decoded_pool_bytes", self.decoded_memory.pool_bytes.into()),
            ("arena_bytes", self.arena_bytes.into()),
            (
                "reg_lowering",
                Json::Obj(vec![
                    ("before", self.reg.before.into()),
                    ("after", self.reg.after.into()),
                    ("regs", self.reg.regs.into()),
                    ("eliminated", self.reg.eliminated.into()),
                    ("guards_fused", self.reg.guards_fused.into()),
                ]),
            ),
        ])
    }
}

/// Full report, one row per measured workload.
#[derive(Debug, Clone)]
pub struct InterpReport {
    /// Workload scale measured.
    pub scale: Scale,
    /// Timed runs per number (min is reported).
    pub repeats: usize,
    /// Per-workload rows.
    pub rows: Vec<InterpRow>,
}

impl InterpReport {
    /// Geometric-mean speedup (reference / decoded ns-per-instruction;
    /// > 1 means the decoded engine is faster).
    pub fn geomean_speedup(&self) -> f64 {
        self.geomean(|r| r.reference_ns_per_instr / r.decoded_ns_per_instr)
    }

    /// Geometric-mean ns/instruction improvement as a percentage
    /// (positive = decoded engine faster).
    pub fn geomean_improvement_pct(&self) -> f64 {
        (1.0 - 1.0 / self.geomean_speedup()) * 100.0
    }

    /// Geometric-mean speedup of the fused decoded engine over the
    /// unfused decoded engine (> 1 means fusion pays).
    pub fn geomean_fused_speedup(&self) -> f64 {
        self.geomean(|r| r.decoded_ns_per_instr / r.fused_ns_per_instr)
    }

    /// Geometric mean of `ratio` over the rows (1.0 with no rows).
    fn geomean(&self, ratio: impl Fn(&InterpRow) -> f64) -> f64 {
        let log_sum: f64 = self.rows.iter().map(|r| ratio(r).ln()).sum();
        (log_sum / self.rows.len().max(1) as f64).exp()
    }

    /// The worst [`InterpRow::never_enter_median_ratio`] over the rows:
    /// what the `--smoke` gate holds to [`NEVER_ENTER_MAX_RATIO`].
    pub fn max_never_enter_ratio(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.never_enter_median_ratio)
            .fold(1.0, f64::max)
    }

    /// Workloads on which the fused leg beat the unfused decoded leg.
    pub fn fused_wins(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.fused_ns_per_instr < r.decoded_ns_per_instr)
            .count()
    }

    /// The report as `BENCH_interp.json`.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("scale", format!("{:?}", self.scale).into()),
            ("repeats", self.repeats.into()),
            ("geomean_speedup", fixed(self.geomean_speedup(), 4)),
            (
                "geomean_improvement_pct",
                fixed(self.geomean_improvement_pct(), 2),
            ),
            (
                "geomean_fused_speedup",
                fixed(self.geomean_fused_speedup(), 4),
            ),
            ("fused_wins", self.fused_wins().into()),
            (
                "max_never_enter_ratio",
                fixed(self.max_never_enter_ratio(), 3),
            ),
            ("workloads", self.rows.iter().map(InterpRow::json).collect()),
        ])
        .render()
    }

    /// Renders an aligned text table for terminals and EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Interpreter speed, ns/instruction (scale {:?}, min of {} runs)\n",
            self.scale, self.repeats
        ));
        out.push_str(&format!(
            "{:<10} {:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>8}\n",
            "workload",
            "instructions",
            "ref",
            "decoded",
            "fused",
            "reg",
            "observe",
            "never",
            "fuse%",
            "nev/ob",
            "dec-KiB"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>14} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>6.1} {:>6.2} {:>8.1}\n",
                r.name,
                r.instructions,
                r.reference_ns_per_instr,
                r.decoded_ns_per_instr,
                r.fused_ns_per_instr,
                r.lowered_reg_ns_per_instr,
                r.observe_ns_per_instr,
                r.never_enter_ns_per_instr,
                r.fused_improvement_pct(),
                r.never_enter_ratio(),
                r.decoded_memory.total() as f64 / 1024.0,
            ));
        }
        for r in &self.rows {
            let pairs: Vec<String> = r
                .hot_pairs
                .iter()
                .map(|(a, b, n)| format!("{a} {b} ({n})"))
                .collect();
            let triples: Vec<String> = r
                .hot_triples
                .iter()
                .map(|(a, b, c, n)| format!("{a} {b} {c} ({n})"))
                .collect();
            let f = &r.fusion;
            out.push_str(&format!(
                "hot pairs {0:<10}: {1}\nhot triples {0:<10}: {2}\nfusion {0:<10}: {3} candidates, \
                 {4} applied, {5} dispatches eliminated, selected [{6}]\n",
                r.name,
                pairs.join(", "),
                triples.join(", "),
                f.candidates,
                f.applied,
                f.dispatches_eliminated,
                f.selected.join(", ")
            ));
        }
        out.push_str(&format!(
            "geomean speedup {:.3}x ({:.1}% ns/instruction); fused over decoded {:.3}x, faster on {}/{} workloads; never-enter engine at most {:.2}x observe (paired median)\n",
            self.geomean_speedup(),
            self.geomean_improvement_pct(),
            self.geomean_fused_speedup(),
            self.fused_wins(),
            self.rows.len(),
            self.max_never_enter_ratio(),
        ));
        out
    }
}

/// Bare mnemonic for a decoded opcode ([`op::name`]), families collapsed
/// to their generic name (all six `if_icmp` comparisons count as one pair
/// key, as do all intrinsics — the dispatch cost is per family, not per
/// comparison).
fn mnemonic(o: u8) -> &'static str {
    match o {
        op::SQRT..=op::CHECKSUM => "intrinsic",
        _ => op::name(o),
    }
}

/// The hottest dynamic opcode pairs and triples of a workload,
/// reconstructed exactly from its basic-block dispatch stream: blocks
/// are straight-line, so the dynamic instruction stream is the
/// concatenation of the dispatched blocks' decoded bodies (markers
/// skipped), and adjacency counts fall out of one pass with no
/// per-instruction instrumentation in the timed engines.
#[allow(clippy::type_complexity)]
fn hot_opcode_adjacencies(
    w: &Workload,
) -> (
    Vec<(&'static str, &'static str, u64)>,
    Vec<(&'static str, &'static str, &'static str, u64)>,
) {
    let mut stream: Vec<BlockId> = Vec::new();
    let mut vm = Vm::new(&w.program);
    vm.run(&w.args, &mut |b| stream.push(b)).expect("runs");

    // Decoded spans of every block: marker index + 1 .. next marker.
    let decoded = DecodedProgram::decode(&w.program);
    let mut spans: HashMap<(u32, u32), (usize, usize)> = HashMap::new();
    for func in w.program.functions() {
        let df = decoded.func(func.id());
        let mut marks: Vec<(u32, usize)> = df
            .code
            .iter()
            .enumerate()
            .filter(|(_, d)| d.op == op::ENTER_BLOCK)
            .map(|(i, d)| (d.b, i))
            .collect();
        marks.sort_by_key(|&(_, i)| i);
        for (k, &(block, start)) in marks.iter().enumerate() {
            let end = marks.get(k + 1).map_or(df.code.len(), |&(_, i)| i);
            spans.insert((func.id().0, block), (start + 1, end));
        }
    }

    let mut pair_counts: HashMap<(u8, u8), u64> = HashMap::new();
    let mut triple_counts: HashMap<(u8, u8, u8), u64> = HashMap::new();
    let mut prev: Option<u8> = None;
    let mut prev2: Option<u8> = None;
    for b in stream {
        let &(start, end) = spans.get(&(b.func.0, b.block)).expect("dispatched block");
        for d in &decoded.func(b.func).code[start..end] {
            if let Some(p) = prev {
                *pair_counts.entry((p, d.op)).or_insert(0) += 1;
                if let Some(pp) = prev2 {
                    *triple_counts.entry((pp, p, d.op)).or_insert(0) += 1;
                }
            }
            prev2 = prev;
            prev = Some(d.op);
        }
    }
    let mut pairs: Vec<((u8, u8), u64)> = pair_counts.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let pairs = pairs
        .into_iter()
        .take(TOP_PAIRS)
        .map(|((a, b), n)| (mnemonic(a), mnemonic(b), n))
        .collect();
    let mut triples: Vec<((u8, u8, u8), u64)> = triple_counts.into_iter().collect();
    triples.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let triples = triples
        .into_iter()
        .take(TOP_TRIPLES)
        .map(|((a, b, c), n)| (mnemonic(a), mnemonic(b), mnemonic(c), n))
        .collect();
    (pairs, triples)
}

/// Minimum wall-clock seconds over `repeats` timed calls of `pass`, with
/// one untimed warm-up (page-in, branch predictors, allocator).
fn min_secs(repeats: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times `a` and `b` alternately — one untimed warm-up each, then
/// `repeats` rounds of a-then-b — so drift of the host lands on both.
/// Returns each side's minimum seconds and the median over the rounds
/// of `b / a`.
fn interleaved_secs(repeats: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    a();
    b();
    let (mut min_a, mut min_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::new();
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        a();
        let ta = start.elapsed().as_secs_f64();
        let start = Instant::now();
        b();
        let tb = start.elapsed().as_secs_f64();
        min_a = min_a.min(ta);
        min_b = min_b.min(tb);
        ratios.push(tb / ta);
    }
    ratios.sort_by(f64::total_cmp);
    (min_a, min_b, ratios[ratios.len() / 2])
}

fn measure_workload(w: &Workload, repeats: usize) -> InterpRow {
    // Output capture off: timing must not include sink pushes.
    let config = VmConfig {
        capture_output: false,
        ..VmConfig::default()
    };

    let mut reference = ReferenceVm::with_config(&w.program, config);
    let ref_secs = min_secs(repeats, || {
        let r = reference.run(&w.args, &mut NullObserver).expect("runs");
        std::hint::black_box(r);
    });

    let mut decoded = Vm::with_config(&w.program, config);
    let dec_secs = min_secs(repeats, || {
        let r = decoded.run(&w.args, &mut NullObserver).expect("runs");
        std::hint::black_box(r);
    });

    // Fused decoded leg: an untimed profiling run collects block visits,
    // the default thresholds select this workload's patterns, and the
    // timed passes execute the quickened stream.
    let mut fused = Vm::with_config(&w.program, config);
    let mut visits = BlockCounts::for_program(&w.program);
    fused.run(&w.args, &mut visits).expect("runs");
    let fusion_report = fused.fuse_with_profile(visits, &FusionConfig::default());
    let fused_secs = min_secs(repeats, || {
        let r = fused.run(&w.args, &mut NullObserver).expect("runs");
        std::hint::black_box(r);
    });

    // Warm trace-executing engine. The untimed warm-up run inside
    // `min_secs` compiles the hot traces, so the timed passes run them
    // from three-address register code.
    let mut jit = TraceJitConfig::paper_default();
    jit.vm.capture_output = false;
    let mut reg_engine = TracingVm::new(&w.program, EngineConfig { jit });
    let reg_secs = min_secs(repeats, || {
        let r = reg_engine.run(&w.args).expect("runs");
        std::hint::black_box(r.checksum);
    });

    // The never-enter pair: the same loop, the same profiler on every
    // block, nothing ever built. The engine never rewrites its decoded
    // streams, so both sides execute the identical plain stream.
    let never_jit = jit.with_start_delay(NEVER_ENTER_START_DELAY);
    let mut observed = Vm::with_config(&w.program, config);
    let mut bcg = BranchCorrelationGraph::new(never_jit.bcg_config());
    let mut never_engine = TracingVm::new(&w.program, EngineConfig { jit: never_jit });
    let mut never_entered = 0;
    let (obs_min, nev_min, never_enter_median_ratio) = interleaved_secs(
        repeats,
        || {
            bcg.begin_stream();
            let r = observed
                .run(&w.args, &mut |b| {
                    bcg.observe(b);
                })
                .expect("runs");
            std::hint::black_box(r);
        },
        || {
            let r = never_engine.run(&w.args).expect("runs");
            never_entered = r.traces.entered;
            std::hint::black_box(r.checksum);
        },
    );
    assert_eq!(never_entered, 0, "{}: never-enter leg entered", w.name);

    // Both engines must have done the identical semantic work — this is
    // the same equivalence the differential suite pins, re-checked on
    // the timed configuration.
    let rs = reference.stats();
    let ds = decoded.stats();
    assert_eq!(rs, ds, "{}: stats diverged between engines", w.name);
    assert_eq!(
        reference.checksum(),
        decoded.checksum(),
        "{}: checksum diverged between engines",
        w.name
    );
    assert_eq!(
        decoded.checksum(),
        w.expected_checksum,
        "{}: checksum does not match the workload reference",
        w.name
    );

    // The fused stream must have done the identical semantic work too —
    // fusion is a dispatch-cost optimisation, not a semantic one.
    assert_eq!(
        fused.stats(),
        ds,
        "{}: fused stats diverged from decoded",
        w.name
    );
    assert_eq!(
        fused.checksum(),
        w.expected_checksum,
        "{}: fused checksum diverged",
        w.name
    );

    assert_eq!(
        reg_engine.run(&w.args).expect("runs").checksum,
        w.expected_checksum,
        "{}: register-trace engine diverged",
        w.name
    );

    let reg = reg_engine.reg_stats();
    let (hot_pairs, hot_triples) = hot_opcode_adjacencies(w);
    let instructions = ds.instructions.max(1);
    InterpRow {
        name: w.name.to_owned(),
        instructions: ds.instructions,
        dispatches: ds.block_dispatches,
        reference_ns_per_instr: ref_secs * 1e9 / instructions as f64,
        decoded_ns_per_instr: dec_secs * 1e9 / instructions as f64,
        fused_ns_per_instr: fused_secs * 1e9 / instructions as f64,
        lowered_reg_ns_per_instr: reg_secs * 1e9 / instructions as f64,
        observe_ns_per_instr: obs_min * 1e9 / instructions as f64,
        never_enter_ns_per_instr: nev_min * 1e9 / instructions as f64,
        never_enter_median_ratio,
        hot_pairs,
        hot_triples,
        fusion: FusionStats {
            candidates: fusion_report.candidates(),
            applied: fusion_report.fused(),
            dispatches_eliminated: fusion_report.dispatches_eliminated(),
            selected: fusion_report.selected_union(),
        },
        decoded_memory: decoded.decoded().memory_estimate(),
        arena_bytes: decoded.arena_memory(),
        reg,
    }
}

/// Measures registry workloads at `scale`, optionally restricted to a
/// single workload name; each reported number is the minimum over
/// `repeats` timed full runs.
pub fn run(scale: Scale, repeats: usize, only: Option<&str>) -> InterpReport {
    let rows = crate::workloads(scale, only)
        .iter()
        .map(|w| measure_workload(w, repeats))
        .collect();
    InterpReport {
        scale,
        repeats,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_derived_quantities_are_consistent() {
        let r = InterpRow {
            instructions: 1000,
            dispatches: 100,
            reference_ns_per_instr: 10.0,
            decoded_ns_per_instr: 5.0,
            fused_ns_per_instr: 4.0,
            observe_ns_per_instr: 4.0,
            never_enter_ns_per_instr: 5.0,
            ..InterpRow::default()
        };
        assert!((r.improvement_pct() - 50.0).abs() < 1e-9);
        assert!((r.per_dispatch(r.reference_ns_per_instr) - 100.0).abs() < 1e-9);
        assert!((r.per_dispatch(2.5) - 25.0).abs() < 1e-9);
        assert!((r.fused_improvement_pct() - 20.0).abs() < 1e-9);
        assert!((r.never_enter_ratio() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_uniform_speedup_is_that_speedup() {
        let row = |ref_ns: f64, dec_ns: f64| InterpRow {
            reference_ns_per_instr: ref_ns,
            decoded_ns_per_instr: dec_ns,
            fused_ns_per_instr: dec_ns / 2.0,
            ..InterpRow::default()
        };
        let report = InterpReport {
            scale: Scale::Test,
            repeats: 1,
            rows: vec![row(10.0, 5.0), row(4.0, 2.0)],
        };
        assert!((report.geomean_speedup() - 2.0).abs() < 1e-9);
        assert!((report.geomean_improvement_pct() - 50.0).abs() < 1e-9);
        assert!((report.geomean_fused_speedup() - 2.0).abs() < 1e-9);
        assert_eq!(report.fused_wins(), 2);
    }

    #[test]
    fn report_runs_and_serialises_at_test_scale() {
        let report = run(Scale::Test, 1, None);
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows.iter().all(|r| r.instructions > 0));
        let json = report.to_json();
        for key in [
            "\"geomean_speedup\"",
            "\"ns_per_instruction\"",
            "\"fused\"",
            "\"never-enter\"",
            "\"fusion\"",
            "\"dispatches_eliminated\"",
            "\"hot_opcode_pairs\"",
            "\"hot_opcode_triples\"",
        ] {
            assert!(json.contains(key), "{key} must be in the JSON");
        }
        let table = report.render();
        for r in &report.rows {
            assert!(!r.hot_pairs.is_empty(), "{}: no hot pairs", r.name);
            assert!(!r.hot_triples.is_empty(), "{}: no hot triples", r.name);
            assert!(json.contains(&r.name));
            assert!(table.contains(&r.name));
            // The lowered-reg leg and its lowering counters, per row.
            let row = r.json();
            let lowered = row
                .get("ns_per_dispatch")
                .and_then(|d| d.get("lowered-reg"));
            assert!(
                matches!(lowered, Some(&Json::Fixed(ns, 3)) if ns > 0.0),
                "{}: lowered-reg ns/dispatch {lowered:?}",
                r.name
            );
            let reg = row.get("reg_lowering").expect("reg_lowering object");
            match (reg.get("before"), reg.get("after")) {
                (Some(&Json::Int(before)), Some(&Json::Int(after))) => {
                    assert!(after <= before, "{}: {after} > {before}", r.name)
                }
                other => panic!("{}: reg_lowering {other:?}", r.name),
            }
        }
    }

    #[test]
    fn workload_filter_restricts_rows() {
        let report = run(Scale::Test, 1, Some("compress"));
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].name, "compress");
    }
}
