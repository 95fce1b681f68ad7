//! # trace-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation (§5) over the six workload analogues:
//!
//! | artifact | regenerator |
//! |---|---|
//! | Figures 1–2 (dispatch models) | `benches/fig_dispatch_modes.rs`, `paper_tables --table fig` |
//! | Table I (trace length vs threshold) | `benches/tables_1_to_5.rs`, `paper_tables --table 1` |
//! | Table II (coverage vs threshold) | `paper_tables --table 2` |
//! | Table III (completion rate vs threshold) | `paper_tables --table 3` |
//! | Table IV (dispatches per signal) | `paper_tables --table 4` |
//! | Table V (dispatches per trace event vs delay) | `paper_tables --table 5` |
//! | Table VI (profiler overhead) | `benches/table6_profiler_overhead.rs`, `paper_tables --table 6` |
//! | Table VII (trace-dispatch overhead) | `benches/table7_trace_dispatch.rs`, `paper_tables --table 7` |
//!
//! Plus the ablations called out in `DESIGN.md`
//! (`benches/ablation_decay.rs`, `benches/ablation_inline_cache.rs`,
//! `benches/ablation_unroll.rs`), the Dynamo/rePLay comparison
//! (`benches/baseline_comparison.rs`), and one measurement binary,
//! `interp_speed` (whole-run ns/instruction of every interpreter and
//! engine leg, `BENCH_interp.json`). End-to-end engine against interpreter is
//! the repo's benchmark (`benchmark/`, `BENCHMARK.json`); a leg that
//! benchmark already measures is not repeated here.
//!
//! Every binary parses its common flags with [`Cli::parse`], restricts
//! workloads with [`workloads`], and writes its JSON through [`json`].
//! All benches run on the in-tree [`harness`] — the workspace builds
//! fully offline, with no external benchmarking dependency — at the
//! scale [`bench_scale`] reads from `TRACE_BENCH_SCALE` (`small` by
//! default; `paper` for the full runs).

#![forbid(unsafe_code)]

pub mod harness;
pub mod interp_speed;
pub mod json;

use jvm_bytecode::{CmpOp, Program, ProgramBuilder};
use trace_jit::experiment::{
    delay_sweep, run_point, threshold_sweep, SweepPoint, PAPER_DELAYS, PAPER_THRESHOLDS,
};
use trace_jit::overhead::{measure_overhead, OverheadMeasurement};
use trace_jit::report::RunReport;
use trace_jit::TraceJitConfig;
use trace_workloads::{registry, Scale, Workload};

/// The scale `TRACE_BENCH_SCALE` names, `Small` when it is unset or
/// unknown: the benches' scale, and a binary's when `--scale` is absent.
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

/// Threshold sweeps (Tables I–IV), optionally restricted to one workload.
pub fn named_threshold_sweeps(scale: Scale, only: Option<&str>) -> Vec<(String, Vec<SweepPoint>)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let pts = threshold_sweep(
                &w.program,
                &w.args,
                &PAPER_THRESHOLDS,
                64,
                TraceJitConfig::paper_default(),
            )
            .expect("workload runs");
            for p in &pts {
                assert_eq!(
                    p.report.checksum, w.expected_checksum,
                    "{} checksum mismatch at threshold {}",
                    w.name, p.threshold
                );
            }
            (w.name.to_owned(), pts)
        })
        .collect()
}

/// Delay sweeps (Table V) at the 97% threshold, optionally restricted
/// to one workload.
pub fn named_delay_sweeps(scale: Scale, only: Option<&str>) -> Vec<(String, Vec<SweepPoint>)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let pts = delay_sweep(
                &w.program,
                &w.args,
                &PAPER_DELAYS,
                0.97,
                TraceJitConfig::paper_default(),
            )
            .expect("workload runs");
            (w.name.to_owned(), pts)
        })
        .collect()
}

/// Overhead measurements (Tables VI–VII), optionally restricted to one
/// workload.
pub fn overhead_rows(
    scale: Scale,
    repeats: usize,
    only: Option<&str>,
) -> Vec<(String, OverheadMeasurement)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let m = measure_overhead(
                &w.program,
                &w.args,
                TraceJitConfig::paper_default(),
                repeats,
            )
            .expect("workload runs");
            (w.name.to_owned(), m)
        })
        .collect()
}

/// Single paper-default runs (Figures 1–2), optionally restricted to
/// one workload.
pub fn dispatch_rows(scale: Scale, only: Option<&str>) -> Vec<(String, RunReport)> {
    workloads(scale, only)
        .iter()
        .map(|w| {
            let r = run_point(&w.program, &w.args, TraceJitConfig::paper_default())
                .expect("workload runs");
            (w.name.to_owned(), r)
        })
        .collect()
}

/// A two-phase program for the cache-stability ablation: it alternates
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

    #[test]
    fn sweeps_cover_all_workloads() {
        let sweeps = named_threshold_sweeps(Scale::Test, None);
        assert_eq!(sweeps.len(), 6);
        for (_, pts) in &sweeps {
            assert_eq!(pts.len(), PAPER_THRESHOLDS.len());
        }
    }
}
