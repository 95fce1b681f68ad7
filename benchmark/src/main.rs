//! The repository's benchmark: the full `TracingVm` against the
//! interpreter on five usage workloads, with an outside-in layer ladder.
//! See `README.md` beside this crate for every metric and workload.

mod compare;
mod counters;
mod json;
mod lanes;
mod oracle;
mod provenance;
mod report;
mod run;
mod stats;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::{obj, Json};
use report::Metric;
use run::{Options, Outcome};
use workloads::{Spec, Usage, SPECS};

/// Seconds the timed rounds of a run are paced over unless `--seconds`
/// says otherwise; `BENCHMARK.json`'s `run_seconds`, which is what the
/// driver passes. The per-workload round counts need well under all of it
/// on the host the benchmark was written on.
pub const RUN_SECONDS: u32 = 20;

/// A traced run does a quarter of the rounds: each of its rounds also
/// climbs the ladder and runs the extra engine legs.
pub const TRACED_ROUND_SHARE: u32 = 4;

const USAGE: &str = "\
usage: benchmark --workload <name> --seed <u64> [--trace [0|1]] [--rounds N]
                 [--seconds N] [--out PATH] [--self-check]
       benchmark compare A.json B.json
       benchmark merge OUT.json IN.json...
       benchmark manifest    the text of BENCHMARK.json, from the same tables
workloads: steady_loops steady_branchy cold_fleet snapshot_fleet phase_flip
--rounds is how much work is timed (default: the workload's own count, a
quarter of it traced); --seconds is how long that work is spread over
(default 20). Neither changes the other.";

struct Cli {
    spec: &'static Spec,
    seed: u64,
    seconds: Option<u32>,
    traced: bool,
    rounds: Option<u32>,
    out: Option<PathBuf>,
    self_check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        spec: &SPECS[0],
        seed: 0,
        seconds: None,
        traced: false,
        rounds: None,
        out: None,
        self_check: false,
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.spec =
                    workloads::spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                have_workload = true;
            }
            "--seed" => {
                cli.seed = value("a u64")?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?;
                have_seed = true;
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("a whole number of seconds")?
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or("--seconds needs a whole number from 1 to 60")?,
                );
            }
            "--rounds" => {
                cli.rounds = Some(
                    value("a round count")?
                        .parse()
                        .ok()
                        .filter(|r| (1..=100_000).contains(r))
                        .ok_or("--rounds needs a whole number from 1 to 100000")?,
                );
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--self-check" => cli.self_check = true,
            "--trace" => {
                // Bare `--trace`, or the driver's `--trace 0|1`.
                cli.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !have_workload || !have_seed {
        return Err("--workload and --seed are required".into());
    }
    Ok(cli)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn instr_distribution(o: &Outcome) -> Json {
    let mut instr: Vec<f64> = o.slots.iter().map(|s| s.instructions as f64).collect();
    instr.sort_by(f64::total_cmp);
    obj([
        ("slots", instr.len().into()),
        ("p10", stats::quantile(&instr, 0.10).into()),
        ("p50", stats::quantile(&instr, 0.50).into()),
        ("p90", stats::quantile(&instr, 0.90).into()),
        ("max", stats::quantile(&instr, 1.0).into()),
        ("sum", instr.iter().sum::<f64>().into()),
    ])
}

fn result_json(cli: &Cli, o: &Outcome, metrics: &[Metric], host: Json) -> Json {
    let row_min = |minima: &[Option<f64>], i: usize| {
        minima
            .get(i)
            .copied()
            .flatten()
            .map_or(Json::Null, Json::from)
    };
    let (engine, interp) = (
        o.samples.slot_minima("engine"),
        o.samples.slot_minima("interp"),
    );
    let slots = o
        .slots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj([
                ("name", s.name.as_str().into()),
                ("instructions", s.instructions.into()),
                ("engine_ns_per_instr", row_min(&engine, i)),
                ("interp_ns_per_instr", row_min(&interp, i)),
            ])
        })
        .collect();
    let mut provenance = host.members().to_vec();
    provenance.extend([
        ("seed".to_string(), cli.seed.to_string().into()),
        ("rounds".to_string(), o.rounds.into()),
        (
            "paced_over_s".to_string(),
            cli.seconds.unwrap_or(RUN_SECONDS).into(),
        ),
        ("wall_s".to_string(), o.wall_s.into()),
        (
            "setup_performances_s".to_string(),
            Json::Arr(o.setup_performances_s.iter().map(|&s| s.into()).collect()),
        ),
        ("instructions_per_run".to_string(), instr_distribution(o)),
    ]);
    let mut members = vec![
        ("schema".to_string(), 1u32.into()),
        ("workload".to_string(), o.spec.name.into()),
        ("traced".to_string(), o.traced.into()),
        ("modelled".to_string(), o.spec.modelled.into()),
        ("why".to_string(), o.spec.why.into()),
        ("provenance".to_string(), Json::Obj(provenance)),
        ("correct".to_string(), (o.tally.failed == 0).into()),
        ("attempted".to_string(), o.tally.attempted.into()),
        ("failed".to_string(), o.tally.failed.into()),
        (
            "failures".to_string(),
            Json::Arr(o.tally.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .filter(|m| m.value.is_some())
                    .map(|m| (m.def.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
        ("slots".to_string(), Json::Arr(slots)),
    ];
    if o.traced {
        members.push((
            "self_time_ms".to_string(),
            Json::Obj(
                report::self_time_ms(&o.spans)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ));
    }
    Json::Obj(members)
}

fn trace_json(o: &Outcome) -> Json {
    let own = stats::self_times(&o.spans);
    let spans = o
        .spans
        .iter()
        .zip(own)
        .map(|(s, own)| {
            obj([
                ("id", s.id.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", s.name.into()),
                (
                    "round",
                    if s.round == tracer::SETUP_ROUND {
                        Json::Null
                    } else {
                        s.round.into()
                    },
                ),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("self_ns", own.into()),
            ])
        })
        .collect();
    obj([
        ("schema", 1u32.into()),
        ("workload", o.spec.name.into()),
        ("seed", o.seed.to_string().into()),
        ("spans", Json::Arr(spans)),
    ])
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(cli: &Cli) -> Result<ExitCode, String> {
    let spec = cli.spec;
    let share = if cli.traced { TRACED_ROUND_SHARE } else { 1 };
    let rounds = cli.rounds.unwrap_or(spec.rounds / share);
    let host = provenance::host();
    let outcome = run::run(&Options {
        spec,
        seed: cli.seed,
        rounds,
        span: Duration::from_secs(u64::from(cli.seconds.unwrap_or(RUN_SECONDS))),
        traced: cli.traced,
        self_check: cli.self_check,
    });
    let o = &outcome;
    let metrics = if cli.traced {
        report::per_layer(o)
    } else {
        report::end_to_end(o)
    };

    println!(
        "{} ({}) seed {} {} rounds, {:.1} s, {}",
        spec.name,
        spec.modelled,
        cli.seed,
        o.rounds,
        o.wall_s,
        if cli.traced { "traced" } else { "untraced" }
    );
    println!("  why: {}", spec.why);
    for m in &metrics {
        println!("{}", m.row());
    }
    if !cli.traced {
        let value = |name: &str| metrics.iter().find(|m| m.def.name == name)?.value;
        if let (Some(e), Some(i)) = (value("engine_ns_per_instr"), value("interp_ns_per_instr")) {
            println!(
                "  {:<38} {:>14.4} (derived, not gated)",
                "engine / interp",
                e / i
            );
        }
    }
    println!(
        "  operations: {} attempted, {} failed{}",
        o.tally.attempted,
        o.tally.failed,
        if spec.usage == (Usage::FreshVm { snapshot: true }) {
            " (runs of both legs + snapshot loads)"
        } else {
            " (runs of both legs)"
        }
    );
    for note in &o.tally.notes {
        println!("    failed: {note}");
    }

    let suffix = if cli.traced { ".traced.json" } else { ".json" };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}{suffix}", spec.name)));
    write(&out, &result_json(cli, o, &metrics, host).to_pretty())?;
    if cli.traced {
        let path = out_dir().join(format!("{}.trace.json", spec.name));
        write(&path, &trace_json(o).to_line())?;
        println!("  spans: {} -> {}", o.spans.len(), path.display());
    }
    println!("  result file: {}", out.display());

    let code = if cli.self_check {
        // The planted faults must have been counted, and counting them
        // must not have stopped the run.
        let fired = o.tally.failed > 0;
        println!(
            "self-check: {} ({} of {} operations failed, failed_share {:.6})",
            if fired {
                "PASS"
            } else {
                "FAIL: planted faults went uncounted"
            },
            o.tally.failed,
            o.tally.attempted,
            o.tally.failed_share()
        );
        if fired {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(3)
        }
    } else {
        ExitCode::SUCCESS
    };
    println!("{}", report::driver_line(o, &metrics));
    Ok(code)
}

/// `BENCHMARK.json`, generated from the tables the benchmark reports from.
fn manifest() -> Json {
    let metric = |d: &report::MetricDef| {
        let mut m = vec![
            ("name".to_string(), d.name.into()),
            ("unit".to_string(), d.unit.into()),
            ("better".to_string(), d.better.as_str().into()),
        ];
        if let Some(b) = d.bounds {
            m.push(("bound".to_string(), b.across_seeds.into()));
        }
        Json::Obj(m)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Json::Arr(command.iter().map(|&c| c.into()).collect()),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| obj([("name", s.name.into()), ("why", s.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                report::END_TO_END
                    .iter()
                    .filter(|d| d.name != report::FAILED_SHARE)
                    .map(metric)
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(report::PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]).map(|clean| {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }),
        Some("merge") if args.len() >= 3 => {
            compare::merge(&args[1], &args[2..]).map(|()| ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare" | "merge") | None => Err(USAGE.to_string()),
        Some(_) => parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|cli| run_workload(&cli)),
    };
    done.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
