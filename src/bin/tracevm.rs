//! `tracevm` — command-line front end for the trace-cache reproduction.
//!
//! ```text
//! tracevm run <workload> [--scale test|small|paper] [--engine interp|trace|exec]
//!                        [--threshold 0.97] [--delay 64] [--unroll 1]
//! tracevm disasm <workload> [--scale ...]
//! tracevm dot <workload> [--out DIR] [--scale ...]
//! tracevm compare <workload> [--scale ...]
//! tracevm list
//! ```
//!
//! `--threshold` takes a completion probability in `(0, 1]`, `--delay` a
//! start-state delay of at least 1.

use std::process::ExitCode;

use tracecache_repro::baselines::{run_with_selector, NetSelector, ReplaySelector};
use tracecache_repro::bcg::dot as bcg_dot;
use tracecache_repro::bytecode::disasm;
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::{tables, RunReport, TraceJitConfig, TraceVm};
use tracecache_repro::tracecache::dot as trace_dot;
use tracecache_repro::vm::{ExecStats, NullObserver, Value, Vm};
use tracecache_repro::workloads::{registry, Scale, Workload};

struct Options {
    scale: Scale,
    engine: String,
    threshold: f64,
    delay: u32,
    unroll: usize,
    out: String,
    /// Write a snapshot of the warmed VM here after the run.
    save_snapshot: Option<String>,
    /// Boot the VM from this snapshot before the run.
    load_snapshot: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Small,
            engine: "trace".into(),
            threshold: 0.97,
            delay: 64,
            unroll: 1,
            out: ".".into(),
            save_snapshot: None,
            load_snapshot: None,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracevm run <workload> [--scale test|small|paper] [--engine interp|trace|exec]\n\
         \x20                        [--threshold T] [--delay D] [--unroll N]\n\
         \x20                        [--save-snapshot FILE] [--load-snapshot FILE]\n\
         \x20 tracevm disasm <workload> [--scale ...]\n\
         \x20 tracevm dot <workload> [--out DIR] [--scale ...]\n\
         \x20 tracevm compare <workload> [--scale ...]\n\
         \x20 tracevm list\n\
         T is the completion threshold, in (0, 1]; D the start delay, at least 1"
    );
    ExitCode::FAILURE
}

fn parse_options(args: &mut std::env::Args, opts: &mut Options) -> Result<(), String> {
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--scale" => {
                let v = need("--scale")?;
                opts.scale = Scale::parse(&v).ok_or(format!("bad scale `{v}`"))?;
            }
            "--engine" => opts.engine = need("--engine")?,
            "--threshold" => {
                let t: f64 = need("--threshold")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                // NaN fails both comparisons.
                if !(t > 0.0 && t <= 1.0) {
                    return Err("bad threshold: must be in (0, 1]".into());
                }
                opts.threshold = t;
            }
            "--delay" => {
                let d: u32 = need("--delay")?
                    .parse()
                    .map_err(|e| format!("bad delay: {e}"))?;
                // A node created with no delay left would wait for its
                // first decay: 0 would silently mean one decay interval.
                if d == 0 {
                    return Err("bad delay: must be at least 1".into());
                }
                opts.delay = d;
            }
            "--unroll" => {
                opts.unroll = need("--unroll")?
                    .parse()
                    .map_err(|e| format!("bad unroll: {e}"))?
            }
            "--out" => opts.out = need("--out")?,
            "--save-snapshot" => opts.save_snapshot = Some(need("--save-snapshot")?),
            "--load-snapshot" => opts.load_snapshot = Some(need("--load-snapshot")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(())
}

fn jit_config(opts: &Options) -> TraceJitConfig {
    TraceJitConfig::paper_default()
        .with_threshold(opts.threshold)
        .with_start_delay(opts.delay)
        .with_loop_unroll(opts.unroll)
}

/// The end-to-end semantic check of every `run`: the VM's checksum
/// against the workload's Rust reference implementation. A mismatch is
/// the run's error, so the process exits nonzero.
fn checksum_verdict(got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "checksum mismatch: got {got:#018x}, reference {expected:#018x}"
        ))
    }
}

/// Prints the lines every engine shares.
fn print_outcome(w: &Workload, result: Option<Value>, checksum: u64, exec: &ExecStats) {
    println!("workload            : {} — {}", w.name, w.description);
    println!("result              : {result:?}");
    println!(
        "checksum            : {checksum:#018x} ({})",
        if checksum_verdict(checksum, w.expected_checksum).is_ok() {
            "matches reference"
        } else {
            "MISMATCH!"
        }
    );
    println!("instructions        : {}", exec.instructions);
    println!("block dispatches    : {}", exec.block_dispatches);
}

fn print_report(w: &Workload, r: &RunReport) {
    print_outcome(w, r.result, r.checksum, &r.exec);
    println!("trace dispatches    : {}", r.traces.trace_dispatches());
    println!(
        "traces              : {} entered, {} completed, {} early exits",
        r.traces.entered, r.traces.completed, r.traces.exited_early
    );
    println!("avg trace length    : {:.1} blocks", r.avg_trace_length());
    println!(
        "coverage            : {:.1}% completed / {:.1}% incl. partial",
        100.0 * r.coverage_completed(),
        100.0 * r.coverage_incl_partial()
    );
    println!("completion rate     : {:.2}%", 100.0 * r.completion_rate());
    println!(
        "profiler            : {} nodes, {} edges, {:.1}% inline-cache hits, {} signals",
        r.profiler.nodes_created,
        r.profiler.edges_created,
        100.0 * r.profiler.cache_hit_ratio(),
        r.profiler.total_signals()
    );
    println!(
        "cache               : {} traces, {} links, {} relinked",
        r.cache.traces_constructed, r.cache.links_live, r.cache.links_replaced
    );
}

fn cmd_run(w: &Workload, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    if (opts.save_snapshot.is_some() || opts.load_snapshot.is_some()) && opts.engine != "exec" {
        return Err("snapshot options require --engine exec".into());
    }
    // Every arm prints its report in full and yields the checksum it
    // saw; the verdict on it is the run's exit status.
    let checksum = match opts.engine.as_str() {
        "interp" => {
            let mut vm = Vm::new(&w.program);
            let result = vm.run(&w.args, &mut NullObserver)?;
            print_outcome(w, result, vm.checksum(), &vm.stats());
            let m = vm.decoded().memory_estimate();
            println!(
                "decoded code        : {} bytes ({} code, {} maps, {} pools)",
                m.total(),
                m.code_bytes,
                m.map_bytes,
                m.pool_bytes
            );
            println!("frame arena         : {} bytes", vm.arena_memory());
            vm.checksum()
        }
        "trace" => {
            let mut tvm = TraceVm::new(&w.program, jit_config(opts));
            let r = tvm.run(&w.args)?;
            print_report(w, &r);
            r.checksum
        }
        "exec" => {
            let mut engine = TracingVm::new(
                &w.program,
                EngineConfig {
                    jit: jit_config(opts),
                },
            );
            if let Some(path) = &opts.load_snapshot {
                let bytes = std::fs::read(path)?;
                let boot = engine.load_snapshot(&bytes)?;
                println!(
                    "warm boot           : {} nodes ({} new), {} traces, {} links, {} quarantined, {} artifacts pre-built",
                    boot.nodes_merged + boot.nodes_created,
                    boot.nodes_created,
                    boot.traces_installed,
                    boot.links_installed,
                    boot.quarantine_restored,
                    boot.artifacts_prebuilt
                );
            }
            let r = engine.run(&w.args)?;
            println!(
                "first trace entry   : dispatch {}",
                r.traces.first_entry_dispatch
            );
            if let Some(path) = &opts.save_snapshot {
                let bytes = engine.snapshot();
                std::fs::write(path, &bytes)?;
                println!("snapshot            : {} bytes -> {path}", bytes.len());
            }
            print_report(w, &r);
            println!(
                "loop closings       : {} (trace runs begun without a dispatch)",
                r.traces.loop_closings
            );
            println!("compiled traces     : {}", engine.compiled_count());
            let m = engine.decoded().memory_estimate();
            println!(
                "decoded code        : {} bytes ({} code, {} maps, {} pools)",
                m.total(),
                m.code_bytes,
                m.map_bytes,
                m.pool_bytes
            );
            println!("lowered traces      : {} bytes", engine.lowered_memory());
            let hs = engine.health_stats();
            println!(
                "trace health        : {} streak demotions, {} re-admissions watched, {} cooldowns escalated",
                hs.demotions, hs.readmitted_watched, hs.cooldown_escalations
            );
            r.checksum
        }
        other => return Err(format!("unknown engine `{other}`").into()),
    };
    Ok(checksum_verdict(checksum, w.expected_checksum)?)
}

fn cmd_compare(w: &Workload, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let bcg = TraceVm::new(&w.program, jit_config(opts)).run(&w.args)?;
    let net = run_with_selector(&w.program, &w.args, &mut NetSelector::new())?;
    let rp = run_with_selector(&w.program, &w.args, &mut ReplaySelector::new())?;
    let cells = [
        (bcg.coverage_completed(), bcg.completion_rate()),
        (net.coverage_completed(), net.completion_rate()),
        (rp.coverage_completed(), rp.completion_rate()),
    ];
    print!(
        "{}",
        tables::baseline_comparison(&[(w.name.to_owned(), cells)]).render()
    );
    Ok(())
}

fn cmd_dot(w: &Workload, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let mut tvm = TraceVm::new(&w.program, jit_config(opts));
    tvm.run(&w.args)?;
    let hottest = tvm
        .bcg()
        .iter()
        .map(|(_, n)| n.executions())
        .max()
        .unwrap_or(0);
    let min = (hottest / 100).max(1);
    let dir = std::path::Path::new(&opts.out);
    std::fs::write(dir.join("bcg.dot"), bcg_dot::to_dot(tvm.bcg(), min))?;
    std::fs::write(dir.join("traces.dot"), trace_dot::to_dot(tvm.cache()))?;
    println!(
        "wrote {}/bcg.dot and {}/traces.dot",
        dir.display(),
        dir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let Some(cmd) = args.next() else {
        return usage();
    };

    if cmd == "list" {
        for w in registry::all(Scale::Test) {
            println!("{:10} — {}", w.name, w.description);
        }
        return ExitCode::SUCCESS;
    }

    let Some(name) = args.next() else {
        return usage();
    };
    let mut opts = Options::default();
    if let Err(e) = parse_options(&mut args, &mut opts) {
        eprintln!("error: {e}");
        return usage();
    }
    let Some(w) = registry::by_name(&name, opts.scale) else {
        eprintln!("unknown workload `{name}`; see `tracevm list`");
        return ExitCode::FAILURE;
    };

    let result = match cmd.as_str() {
        "run" => cmd_run(&w, &opts),
        "disasm" => {
            print!("{}", disasm::program_to_string(&w.program));
            Ok(())
        }
        "dot" => cmd_dot(&w, &opts),
        "compare" => cmd_compare(&w, &opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::checksum_verdict;

    #[test]
    fn a_checksum_mismatch_is_an_error() {
        assert_eq!(checksum_verdict(7, 7), Ok(()));
        let err = checksum_verdict(7, 8).unwrap_err();
        assert!(err.contains("0x0000000000000007") && err.contains("0x0000000000000008"));
    }
}
