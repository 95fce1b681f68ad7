//! Multi-VM throughput benchmark driver.
//!
//! Runs M worker VMs over every registry workload against private vs
//! shared trace caches (cold and pre-warmed), prints the scaling table,
//! and writes `BENCH_concurrent.json` into the current directory.
//!
//! ```text
//! concurrent [--scale test|small|paper] [--threads N] [--repeats N]
//!            [--workload NAME] [--smoke] [--faults SEED]
//!            [--load-snapshot] [--phase-shift] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: test scale, 2 threads, 1 repeat —
//! seconds, not minutes. Default is small scale, 8 threads, 3 repeats.
//! `TRACE_BENCH_SCALE` is honoured when `--scale` is absent, matching
//! the other benches.
//!
//! `--faults SEED` switches to the fault-injection mode: every workload
//! runs the supervised, payload-budgeted shared deployment under three
//! deterministic fault profiles (none / standard / constructor-killer)
//! and the report records eviction, quarantine, and restart counters
//! plus the throughput retained under faults and in permanently
//! degraded (interpreter-only) mode.
//!
//! `--load-snapshot` runs only the snapshot warm-boot leg (cold start vs
//! `TracingVm::load_snapshot`, single VM) — the default full run
//! includes this leg alongside the thread ladder.
//!
//! `--phase-shift` runs only the self-healing leg: each phase-shift
//! workload on a single VM, reporting throughput, streak demotions,
//! quarantines and re-admissions. The default full run includes this
//! leg.

use trace_bench::concurrent;
use trace_bench::parse_scale;
use trace_workloads::Scale;

fn main() {
    let mut scale: Option<Scale> = None;
    let mut threads: Option<usize> = None;
    let mut repeats: Option<usize> = None;
    let mut workload: Option<String> = None;
    let mut out = String::from("BENCH_concurrent.json");
    let mut smoke = false;
    let mut boot_only = false;
    let mut phase_shift_only = false;
    let mut faults: Option<u64> = None;

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
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs an integer, got '{v}'");
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
            "--load-snapshot" => boot_only = true,
            "--phase-shift" => phase_shift_only = true,
            "--faults" => {
                let v = args.next().unwrap_or_default();
                let digits = v.trim_start_matches("0x").replace('_', "");
                let parsed = if v.starts_with("0x") {
                    u64::from_str_radix(&digits, 16).ok()
                } else {
                    digits.parse().ok()
                };
                faults = Some(parsed.unwrap_or_else(|| {
                    eprintln!("--faults needs a seed (decimal or 0x hex), got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "concurrent [--scale test|small|paper] [--threads N] [--repeats N] \
                     [--workload NAME] [--smoke] [--faults SEED] [--load-snapshot] \
                     [--phase-shift] [--out PATH]"
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
    let (scale, threads, repeats) = if smoke {
        (
            scale.unwrap_or(Scale::Test),
            threads.unwrap_or(2),
            repeats.unwrap_or(1),
        )
    } else {
        (
            scale.or(env_scale).unwrap_or(Scale::Small),
            threads.unwrap_or(8),
            repeats.unwrap_or(3),
        )
    };

    if let Some(seed) = faults {
        // Injected constructor kills are routine here — the supervisor
        // absorbs them — so keep their backtraces out of the bench
        // output. Anything else (e.g. a checksum assert) still prints.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let injected = msg.is_some_and(|m| m.contains("injected constructor kill"));
            if !injected {
                default_hook(info);
            }
        }));
        let report =
            concurrent::run_faults_filtered(scale, threads, repeats, seed, workload.as_deref());
        print!("{}", report.render());
        let degraded = report.rows.iter().filter(|r| r.degraded).count();
        println!(
            "constructor-killer ended permanently degraded on {}/{} workloads; \
             every run matched its expected checksum",
            degraded,
            report.rows.len(),
        );
        let json = report.to_json();
        match std::fs::write(&out, &json) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = if boot_only {
        concurrent::run_boot_only(scale, repeats, workload.as_deref())
    } else if phase_shift_only {
        concurrent::run_phase_shift_only(scale, repeats, workload.as_deref())
    } else {
        concurrent::run_filtered(scale, threads, repeats, workload.as_deref())
    };
    print!("{}", report.render());
    if !boot_only && !phase_shift_only {
        let max_t = report.threads.iter().copied().max().unwrap_or(1);
        println!(
            "cross-VM dedup observed on {}/{} workloads at {} threads ({} host CPUs)",
            report.dedup_observed(max_t),
            report.rows.len(),
            max_t,
            report.host_cpus,
        );
    }

    let json = report.to_json();
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}
