//! # trace-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation (§5) over the six workload analogues, and the
//! repo's ablations of the paper's design choices. One binary,
//! `paper_tables`, prints all of them:
//!
//! | artifact | `paper_tables --table` |
//! |---|---|
//! | Figures 1–2 (dispatch models) | `fig` |
//! | Table I (trace length vs threshold) | `1` |
//! | Table II (coverage vs threshold) | `2` |
//! | Table III (completion rate vs threshold) | `3` |
//! | Table IV (dispatches per signal) | `4` |
//! | Table V (dispatches per trace event vs delay) | `5` |
//! | Table VI (profiler overhead) | `6` |
//! | Table VII (trace-dispatch overhead) | `7` |
//! | loop-unroll ablation (§4.2) | `unroll` |
//! | decay vs cumulative counters (§4.1.1) | `decay` |
//! | inline-cache hit ratios (§4.1.2) | `inline` |
//! | BCG vs Dynamo NET vs rePLay (§2–3) | `baselines` |
//!
//! One measurement binary, `interp_speed`, times every interpreter and
//! engine leg over whole runs (`BENCH_interp.json`). End-to-end engine
//! against interpreter is the repo's benchmark (`benchmark/`,
//! `BENCHMARK.json`); a leg that benchmark already measures is not
//! repeated here.
//!
//! `paper_tables` reads every `TraceVm` report from one [`Runs`], which
//! runs each workload once per distinct configuration, so the paper
//! default is one run however many tables print it.
//!
//! Every binary parses its common flags with [`Cli::parse`], restricts
//! workloads with [`workloads`], and writes its JSON through [`json`].
//! Without `--scale`, a binary runs at the scale [`bench_scale`] reads
//! from `TRACE_BENCH_SCALE` (`small` by default; `paper` for the full
//! runs).

#![forbid(unsafe_code)]

pub mod interp_speed;
pub mod json;

use jvm_bytecode::{CmpOp, Program, ProgramBuilder};
use trace_jit::overhead::{measure_overhead, OverheadMeasurement};
use trace_jit::report::RunReport;
use trace_jit::tables::{NamedSweep, SelectorResult};
use trace_jit::{NetSelector, ReplaySelector, TraceJitConfig, TraceSelector, TraceVm};
use trace_workloads::{registry, Scale, Workload};

/// The scale `TRACE_BENCH_SCALE` names, `Small` when it is unset or
/// unknown: a binary's scale when `--scale` is absent.
pub fn bench_scale() -> Scale {
    std::env::var("TRACE_BENCH_SCALE")
        .ok()
        .as_deref()
        .and_then(Scale::parse)
        .unwrap_or(Scale::Small)
}

/// `ws`, restricted to the workload named `only` when it is given.
pub(crate) fn select(ws: Vec<Workload>, only: Option<&str>) -> Vec<Workload> {
    ws.into_iter()
        .filter(|w| only.is_none_or(|n| w.name == n))
        .collect()
}

/// The six registry workloads at `scale`, optionally restricted to one.
pub fn workloads(scale: Scale, only: Option<&str>) -> Vec<Workload> {
    select(registry::all(scale), only)
}

/// The flags every bench binary shares, resolved against its defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// `--scale`; else `Test` under `--smoke`; else [`bench_scale`].
    pub scale: Scale,
    /// `--repeats`; else the binary's default for the mode.
    pub repeats: usize,
    /// `--workload`: measure only this registry workload.
    pub workload: Option<String>,
    /// `--smoke`: the CI setting.
    pub smoke: bool,
    /// `--out`: where the JSON report goes.
    pub out: String,
}

/// One binary's command line beside its own flags.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Printed by `--help`.
    pub usage: &'static str,
    /// Default repeats without and with `--smoke`; `None` for a binary
    /// that takes neither `--repeats` nor `--smoke`.
    pub repeats: Option<(usize, usize)>,
    /// Default `--out` path; `None` for a binary that takes no `--out`.
    pub out: Option<&'static str>,
}

impl Cli {
    /// Parses the process's arguments. Flags this parser does not know
    /// go to `own` with the remaining arguments; it returns `Ok(false)`
    /// for a flag it does not know either. `--help` prints the usage and
    /// exits 0; a bad argument prints one line and exits 2.
    pub fn parse(
        &self,
        own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> BenchArgs {
        self.parse_from(std::env::args().skip(1), own)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2)
            })
    }

    /// [`Self::parse`] over `args`.
    fn parse_from(
        &self,
        args: impl IntoIterator<Item = String>,
        mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<BenchArgs, String> {
        let mut scale = None;
        let mut repeats = None;
        let mut workload = None;
        let mut smoke = false;
        let mut out = self.out.map(str::to_owned);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => {
                    println!("{}", self.usage);
                    std::process::exit(0);
                }
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    scale = Some(
                        Scale::parse(&v)
                            .ok_or(format!("unknown scale '{v}' (use test|small|paper)"))?,
                    );
                }
                "--workload" => {
                    let v = args.next().ok_or("--workload needs a name")?;
                    if registry::by_name(&v, Scale::Test).is_none() {
                        return Err(format!("unknown workload '{v}'"));
                    }
                    workload = Some(v);
                }
                "--repeats" if self.repeats.is_some() => {
                    let v = args.next().unwrap_or_default();
                    repeats = Some(
                        v.parse()
                            .map_err(|_| format!("--repeats needs an integer, got '{v}'"))?,
                    );
                }
                "--smoke" if self.repeats.is_some() => smoke = true,
                "--out" if self.out.is_some() => {
                    out = Some(args.next().ok_or("--out needs a path")?)
                }
                other => {
                    if !own(other, &mut args)? {
                        return Err(format!("unknown argument '{other}'"));
                    }
                }
            }
        }
        let (normal, smoke_repeats) = self.repeats.unwrap_or_default();
        Ok(BenchArgs {
            scale: scale.unwrap_or_else(|| if smoke { Scale::Test } else { bench_scale() }),
            repeats: repeats.unwrap_or(if smoke { smoke_repeats } else { normal }),
            workload,
            smoke,
            out: out.unwrap_or_default(),
        })
    }
}

/// Writes a binary's JSON report to `path` and says so; exits 1 when it
/// cannot.
pub fn write_report(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The completion thresholds of the paper's Tables I–IV (at delay 64).
pub const THRESHOLDS: [f64; 5] = [1.00, 0.99, 0.98, 0.97, 0.95];

/// The start-state delays of the paper's Table V (at threshold 97 %).
pub const DELAYS: [u32; 3] = [1, 64, 4096];

/// Loop-unroll factors of the unroll ablation: 0 is the bare loop body,
/// 1 the paper's rule.
pub const UNROLLS: [usize; 4] = [0, 1, 2, 4];

/// Rounds of Tables VI–VII's timings: each times the unprofiled and the
/// profiled run back to back, and each leg reports its minimum. Three
/// rounds, one leg after the other, moved a row's overhead by up to 12
/// points between two back-to-back runs.
pub const OVERHEAD_ROUNDS: usize = 15;

/// Every [`TraceVm`] run the tables read, one per workload and distinct
/// configuration: a table that needs a configuration another table has
/// already run reads that run's report.
#[derive(Debug)]
pub struct Runs {
    workloads: Vec<Workload>,
    /// `reports[w]`: workload `w`'s configurations run so far, with
    /// their reports.
    reports: Vec<Vec<(TraceJitConfig, RunReport)>>,
}

impl Runs {
    /// No runs yet over the six registry workloads at `scale`, or over
    /// the one named `only`.
    pub fn new(scale: Scale, only: Option<&str>) -> Self {
        let workloads = workloads(scale, only);
        let reports = workloads.iter().map(|_| Vec::new()).collect();
        Runs { workloads, reports }
    }

    /// Workload `w`'s report under `cfg`, from a fresh [`TraceVm`] the
    /// first time it is asked for.
    fn report(&mut self, w: usize, cfg: TraceJitConfig) -> RunReport {
        let kept = &mut self.reports[w];
        if let Some((_, r)) = kept.iter().find(|(c, _)| *c == cfg) {
            return r.clone();
        }
        let wl = &self.workloads[w];
        let r = TraceVm::new(&wl.program, cfg)
            .run(&wl.args)
            .expect("workload runs");
        assert_eq!(
            r.checksum, wl.expected_checksum,
            "{} checksum mismatch under {cfg:?}",
            wl.name
        );
        kept.push((cfg, r.clone()));
        r
    }

    /// One column per workload: its reports under each of `cfgs`.
    pub fn sweep(&mut self, cfgs: &[TraceJitConfig]) -> Vec<NamedSweep> {
        (0..self.workloads.len())
            .map(|w| {
                let reports = cfgs.iter().map(|&c| self.report(w, c)).collect();
                (self.workloads[w].name.to_owned(), reports)
            })
            .collect()
    }

    /// Each workload's report under `cfg`.
    pub fn each(&mut self, cfg: TraceJitConfig) -> Vec<(String, RunReport)> {
        (0..self.workloads.len())
            .map(|w| (self.workloads[w].name.to_owned(), self.report(w, cfg)))
            .collect()
    }
}

/// Overhead measurements (Tables VI–VII) at the paper default, each
/// timing the minimum of [`OVERHEAD_ROUNDS`] rounds.
pub fn overhead_rows(runs: &mut Runs) -> Vec<(String, OverheadMeasurement)> {
    let cfg = TraceJitConfig::paper_default();
    let reports = runs.each(cfg);
    (runs.workloads.iter().zip(reports))
        .map(|(w, (_, r))| {
            let dispatches = r.traces.trace_dispatches();
            let m = measure_overhead(&w.program, &w.args, cfg, OVERHEAD_ROUNDS, dispatches);
            (w.name.to_owned(), m.expect("workload runs"))
        })
        .collect()
}

/// The decay ablation: [`phase_change_program`]`(40, 4_000)` under the
/// paper's decay every 256 executions and under a decay interval too
/// large ever to fire (cumulative counters), both at start delay 16.
pub fn decay_rows() -> Vec<(String, RunReport)> {
    let program = phase_change_program(40, 4_000);
    [("decay=256 (paper)", 256), ("decay disabled", u32::MAX)]
        .into_iter()
        .map(|(name, interval)| {
            let mut cfg = TraceJitConfig::paper_default().with_start_delay(16);
            cfg.decay_interval = interval;
            let r = TraceVm::new(&program, cfg).run(&[]);
            (name.to_owned(), r.expect("phase program runs"))
        })
        .collect()
}

/// Coverage and completion of the BCG (paper default), Dynamo-style NET
/// and rePLay-style selection, in that order.
pub fn baseline_rows(runs: &mut Runs) -> Vec<(String, [SelectorResult; 3])> {
    fn cells(r: &RunReport) -> SelectorResult {
        (r.coverage_completed(), r.completion_rate())
    }
    fn baseline(w: &Workload, cfg: TraceJitConfig, selector: impl TraceSelector) -> SelectorResult {
        let r = TraceVm::with_selector(&w.program, cfg, selector).run(&w.args);
        cells(&r.expect("workload runs"))
    }
    let cfg = TraceJitConfig::paper_default();
    let reports = runs.each(cfg);
    (runs.workloads.iter().zip(reports))
        .map(|(w, (name, bcg))| {
            let net = baseline(w, cfg, NetSelector::new());
            let rp = baseline(w, cfg, ReplaySelector::new());
            (name, [cells(&bcg), net, rp])
        })
        .collect()
}

/// A two-phase program for the decay ablation: it alternates
/// between two loop bodies every `phase_len` outer iterations, so a
/// decaying profiler re-learns each phase while a cumulative one
/// stays polluted by the old phase.
pub fn phase_change_program(phases: i64, phase_len: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 0, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let p = b.alloc_local();
    let i = b.alloc_local();
    b.iconst(0).store(acc).iconst(0).store(p);
    let p_head = b.bind_new_label();
    let p_exit = b.new_label();
    b.load(p).iconst(phases).if_icmp(CmpOp::Ge, p_exit);
    b.iconst(0).store(i);
    let i_head = b.bind_new_label();
    let i_exit = b.new_label();
    b.load(i).iconst(phase_len).if_icmp(CmpOp::Ge, i_exit);
    // Phase parity decides which body runs.
    let odd = b.new_label();
    let cont = b.new_label();
    b.load(p).iconst(1).iand().if_i(CmpOp::Ne, odd);
    // Even phase: acc = acc*3 + i.
    b.load(acc).iconst(3).imul().load(i).iadd().store(acc);
    b.goto(cont);
    // Odd phase: acc = (acc ^ i) + 7.
    b.bind(odd);
    b.load(acc).load(i).ixor().iconst(7).iadd().store(acc);
    b.bind(cont);
    b.iinc(i, 1).goto(i_head);
    b.bind(i_exit);
    b.iinc(p, 1).goto(p_head);
    b.bind(p_exit);
    b.load(acc).ret();
    pb.build(f).expect("phase program builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_vm::{NullObserver, Vm};

    #[test]
    fn phase_program_runs() {
        let p = phase_change_program(4, 100);
        let mut vm = Vm::new(&p);
        let r = vm.run(&[], &mut NullObserver).unwrap();
        assert!(r.is_some());
    }

    #[test]
    fn cli_resolves_one_precedence_and_leaves_other_flags_to_the_binary() {
        let args = |v: &str| v.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let cli = Cli {
            usage: "u",
            repeats: Some((5, 2)),
            out: Some("B.json"),
        };
        let mut threads = None;
        let smoke = cli.parse_from(args("--smoke --threads 3"), |flag, rest| {
            threads = rest.next().filter(|_| flag == "--threads");
            Ok(threads.is_some())
        });
        let want = BenchArgs {
            scale: Scale::Test,
            repeats: 2,
            workload: None,
            smoke: true,
            out: "B.json".into(),
        };
        assert_eq!((smoke, threads.as_deref()), (Ok(want), Some("3")));
        let full = cli.parse_from(
            args("--scale paper --repeats 9 --workload soot --out x"),
            |_, _| Ok(false),
        );
        let want = BenchArgs {
            scale: Scale::Paper,
            repeats: 9,
            workload: Some("soot".into()),
            smoke: false,
            out: "x".into(),
        };
        assert_eq!(full, Ok(want));
        // Unknown flags and values, and flags a binary does not take.
        let bare = Cli {
            repeats: None,
            out: None,
            ..cli
        };
        for bad in ["--bogus", "--scale huge", "--workload nope"] {
            assert!(
                cli.parse_from(args(bad), |_, _| Ok(false)).is_err(),
                "{bad}"
            );
        }
        for bad in ["--smoke", "--repeats 1", "--out x"] {
            assert!(
                bare.parse_from(args(bad), |_, _| Ok(false)).is_err(),
                "{bad}"
            );
        }
    }

    /// EXPERIMENTS.md: the BCG's completed traces cover at least as much
    /// of the stream as NET's and rePLay's on every workload.
    #[test]
    fn bcg_covers_at_least_what_net_and_replay_cover() {
        let rows = baseline_rows(&mut Runs::new(Scale::Test, None));
        assert_eq!(rows.len(), 6);
        for (name, [(bcg, _), (net, _), (replay, _)]) in &rows {
            assert!(bcg >= net && bcg >= replay, "{name}: {bcg} {net} {replay}");
        }
    }

    /// EXPERIMENTS.md: decay lets the profiler re-learn each phase, so it
    /// raises more signals than cumulative counters do.
    #[test]
    fn decay_raises_more_signals_than_cumulative_counters() {
        let signals: Vec<u64> = decay_rows()
            .iter()
            .map(|(_, r)| r.profiler.state_signals + r.profiler.prediction_signals)
            .collect();
        assert!(signals[0] > signals[1], "{signals:?}");
    }

    /// EXPERIMENTS.md: each extra unrolled copy lengthens mpegaudio's
    /// loop traces.
    #[test]
    fn unrolling_lengthens_mpegaudio_traces() {
        let paper = TraceJitConfig::paper_default();
        let sweeps = Runs::new(Scale::Test, Some("mpegaudio"))
            .sweep(&UNROLLS.map(|u| paper.with_loop_unroll(u)));
        let lens: Vec<f64> = sweeps[0].1.iter().map(|r| r.avg_trace_length()).collect();
        assert_eq!(lens.len(), UNROLLS.len());
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
    }

    /// EXPERIMENTS.md: the inline cache answers most dispatches on every
    /// workload.
    #[test]
    fn predictions_answer_most_dispatches() {
        let rows = Runs::new(Scale::Test, None).each(TraceJitConfig::paper_default());
        assert_eq!(rows.len(), 6);
        for (name, report) in &rows {
            let r = report.profiler.cache_hit_ratio();
            assert!(r > 0.8 && r <= 1.0, "{name}: hit ratio {r}");
        }
    }

    /// Tables I–IV's sweep has a column per workload and a report per
    /// threshold, and a configuration asked for again is not run again.
    #[test]
    fn sweeps_cover_all_workloads_and_run_each_configuration_once() {
        let paper = TraceJitConfig::paper_default();
        let mut runs = Runs::new(Scale::Test, None);
        let sweeps = runs.sweep(&THRESHOLDS.map(|t| paper.with_threshold(t)));
        assert_eq!(sweeps.len(), 6);
        for (_, reports) in &sweeps {
            assert_eq!(reports.len(), THRESHOLDS.len());
        }
        // The 97 % point is the paper default.
        let defaults = runs.each(paper);
        assert_eq!(defaults[0].1, sweeps[0].1[3]);
        assert!(runs
            .reports
            .iter()
            .all(|kept| kept.len() == THRESHOLDS.len()));
    }
}
