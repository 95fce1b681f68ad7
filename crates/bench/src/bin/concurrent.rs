//! Multi-VM throughput benchmark driver: runs the legs of
//! [`trace_bench::concurrent`], prints their tables, and writes
//! `BENCH_concurrent.json` into the current directory.
//!
//! ```text
//! concurrent [--scale test|small|paper] [--threads N] [--repeats N]
//!            [--workload NAME] [--smoke] [--faults SEED]
//!            [--load-snapshot] [--phase-shift] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: test scale, 2 threads, 1 repeat —
//! seconds, not minutes. Default is small scale (or `TRACE_BENCH_SCALE`),
//! 8 threads, 3 repeats. The default run measures the thread ladder, the
//! snapshot warm-boot leg and the phase-shift self-healing leg;
//! `--load-snapshot` and `--phase-shift` run only one of the last two,
//! and `--faults SEED` runs the fault-injection mode instead: three
//! deterministic fault profiles against the supervised, payload-budgeted
//! shared deployment.

use trace_bench::{concurrent, write_report, Cli};

fn main() {
    let mut threads: Option<usize> = None;
    let mut boot_only = false;
    let mut phase_shift_only = false;
    let mut faults: Option<u64> = None;
    let args = Cli {
        usage: "concurrent [--scale test|small|paper] [--threads N] [--repeats N] \
                [--workload NAME] [--smoke] [--faults SEED] [--load-snapshot] \
                [--phase-shift] [--out PATH]",
        repeats: Some((3, 1)),
        out: Some("BENCH_concurrent.json"),
    }
    .parse(|flag, rest| {
        match flag {
            "--threads" => {
                let v = rest.next().unwrap_or_default();
                let n = v.parse();
                threads = Some(n.map_err(|_| format!("--threads needs an integer, got '{v}'"))?);
            }
            "--faults" => {
                let v = rest.next().unwrap_or_default();
                let digits = v.trim_start_matches("0x").replace('_', "");
                let parsed = if v.starts_with("0x") {
                    u64::from_str_radix(&digits, 16).ok()
                } else {
                    digits.parse().ok()
                };
                faults = Some(parsed.ok_or(format!(
                    "--faults needs a seed (decimal or 0x hex), got '{v}'"
                ))?);
            }
            "--load-snapshot" => boot_only = true,
            "--phase-shift" => phase_shift_only = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let threads = threads.unwrap_or(if args.smoke { 2 } else { 8 });
    let (scale, repeats, only) = (args.scale, args.repeats, args.workload.as_deref());

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
        let report = concurrent::run_faults(scale, threads, repeats, seed, only);
        print!("{}", report.render());
        let degraded = report.rows.iter().filter(|r| r.degraded).count();
        println!(
            "constructor-killer ended permanently degraded on {}/{} workloads; \
             every run matched its expected checksum",
            degraded,
            report.rows.len(),
        );
        write_report(&args.out, &report.to_json());
        return;
    }

    let report = if boot_only {
        concurrent::run_boot_only(scale, repeats, only)
    } else if phase_shift_only {
        concurrent::run_phase_shift_only(scale, repeats, only)
    } else {
        concurrent::run(scale, threads, repeats, only)
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
    write_report(&args.out, &report.to_json());
}
