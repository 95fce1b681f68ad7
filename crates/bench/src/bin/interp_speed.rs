//! Interpreter speed driver: frozen reference vs pre-decoded engine.
//!
//! Times full workload runs of [`jvm_vm::ReferenceVm`] against the
//! pre-decoded threaded [`jvm_vm::Vm`], prints the comparison table
//! (ns/instruction, ns/dispatch, decoded footprint), and writes
//! `BENCH_interp.json` into the current directory.
//!
//! ```text
//! interp_speed [--scale test|small|paper] [--repeats N] [--workload NAME]
//!              [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: test scale, 5 repeats — seconds, not
//! minutes — and a gate: it exits 1 if the never-entering engine costs
//! more than [`interp_speed::NEVER_ENTER_MAX_RATIO`] × the decoded loop
//! driving the bare profiler on any workload. Default is small scale,
//! 5 repeats, no gate. `TRACE_BENCH_SCALE` is honoured when `--scale`
//! is absent, matching the other benches.

use trace_bench::interp_speed;
use trace_bench::parse_scale;
use trace_workloads::Scale;

fn main() {
    let mut scale: Option<Scale> = None;
    let mut repeats: Option<usize> = None;
    let mut workload: Option<String> = None;
    let mut out = String::from("BENCH_interp.json");
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Some(parse_scale(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (use test|small|paper)");
                    std::process::exit(2);
                }));
            }
            "--repeats" => {
                let v = args.next().unwrap_or_default();
                repeats = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--repeats needs an integer, got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--workload" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--workload needs a name");
                    std::process::exit(2);
                });
                if trace_workloads::registry::by_name(&v, Scale::Test).is_none() {
                    eprintln!("unknown workload '{v}'");
                    std::process::exit(2);
                }
                workload = Some(v);
            }
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!(
                    "interp_speed [--scale test|small|paper] [--repeats N] \
                     [--workload NAME] [--smoke] [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let env_scale = std::env::var("TRACE_BENCH_SCALE")
        .ok()
        .as_deref()
        .and_then(parse_scale);
    let (scale, repeats) = if smoke {
        (scale.unwrap_or(Scale::Test), repeats.unwrap_or(5))
    } else {
        (
            scale.or(env_scale).unwrap_or(Scale::Small),
            repeats.unwrap_or(5),
        )
    };

    let report = interp_speed::run(scale, repeats, workload.as_deref());
    print!("{}", report.render());

    let json = report.to_json();
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }

    let worst = report.max_never_enter_ratio();
    if smoke && worst > interp_speed::NEVER_ENTER_MAX_RATIO {
        eprintln!(
            "never-enter engine is {worst:.2}x the loop + observe (bound {:.2}x)",
            interp_speed::NEVER_ENTER_MAX_RATIO
        );
        std::process::exit(1);
    }
}
