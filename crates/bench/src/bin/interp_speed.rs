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
//! driving the bare profiler on any workload, as the median of the
//! rounds that time the two back to back. Default is small scale,
//! 5 repeats, no gate. `TRACE_BENCH_SCALE` is honoured when `--scale`
//! is absent, matching the other benches.

use trace_bench::{interp_speed, Cli};

fn main() {
    let args = Cli {
        usage: "interp_speed [--scale test|small|paper] [--repeats N] \
                [--workload NAME] [--smoke] [--out PATH]",
        repeats: Some((5, 5)),
        out: Some("BENCH_interp.json"),
    }
    .parse(|_, _| Ok(false));

    let report = interp_speed::run(args.scale, args.repeats, args.workload.as_deref());
    print!("{}", report.render());
    trace_bench::write_report(&args.out, &report.to_json());

    let worst = report.max_never_enter_ratio();
    if args.smoke && worst > interp_speed::NEVER_ENTER_MAX_RATIO {
        eprintln!(
            "never-enter engine is {worst:.2}x the loop + observe, paired median (bound {:.2}x)",
            interp_speed::NEVER_ENTER_MAX_RATIO
        );
        std::process::exit(1);
    }
}
