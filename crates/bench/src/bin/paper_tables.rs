//! Regenerates the paper's Tables I–VII (and the Figures 1–2 dispatch
//! comparison) over the six workload analogues, and the repo's ablations
//! of the paper's design choices.
//!
//! ```text
//! paper_tables [--scale test|small|paper]
//!              [--table 1|2|3|4|5|6|7|fig|unroll|decay|inline|baselines|summary|all]
//!              [--format text|csv] [--workload NAME]
//! ```
//!
//! Defaults: `--scale small` (or `TRACE_BENCH_SCALE`) `--table all`, all
//! six workloads (`--workload` restricts every table with a workload
//! column to one of them). Tables I–IV share one threshold
//! sweep (thresholds 100/99/98/97/95% at delay 64); Table V sweeps the
//! start-state delay (1/64/4096) at the 97% threshold; Tables VI–VII time
//! the profiler against the unmodified interpreter on this machine.
//! `unroll` runs the paper default at loop-unroll factors 0/1/2/4;
//! `decay` runs a two-phase program with and without periodic decay (it
//! has no workload column and ignores `--scale`); `inline` reads the
//! profiler's inline-cache hits from the paper-default run; `baselines`
//! runs the BCG, Dynamo-style NET and rePLay-style selection.
//!
//! Every table reads its `TraceVm` reports from one [`Runs`], which runs
//! each workload once per distinct configuration: the paper default
//! (threshold 97 %, delay 64, unroll 1) is one run however many tables
//! print it.

use trace_bench::{
    baseline_rows, decay_rows, overhead_rows, Cli, Runs, DELAYS, THRESHOLDS, UNROLLS,
};
use trace_jit::{tables, TraceJitConfig};

const TABLES: &str = "all 1 2 3 4 5 6 7 fig unroll decay inline baselines summary";

fn main() {
    let mut table = "all".to_owned();
    let mut format = "text".to_owned();
    let args = Cli {
        usage: "paper_tables [--scale test|small|paper] \
                [--table 1..7|fig|unroll|decay|inline|baselines|summary|all] \
                [--format text|csv] [--workload NAME]",
        repeats: None,
        out: None,
    }
    .parse(|flag, rest| {
        let (slot, allowed) = match flag {
            "--table" => (&mut table, TABLES),
            "--format" => (&mut format, "text csv"),
            _ => return Ok(false),
        };
        match rest.next() {
            Some(v) if allowed.split(' ').any(|a| a == v) => *slot = v,
            v => return Err(format!("bad {flag} '{}'", v.unwrap_or_default())),
        }
        Ok(true)
    });
    let csv = format == "csv";
    let (scale, workload) = (args.scale, args.workload.as_deref());
    let emit = |t: &tables::TextTable| {
        if csv {
            println!("{}", t.render_csv());
        } else {
            println!("{}", t.render());
        }
    };

    let wants = |t: &str| table == "all" || table == t;
    let needs_threshold_sweep = ["1", "2", "3", "4"].iter().any(|t| wants(t));
    let needs_overhead = wants("6") || wants("7");

    eprintln!("# scale: {scale:?}");
    let paper = TraceJitConfig::paper_default();
    let mut runs = Runs::new(scale, workload);

    if wants("fig") {
        eprintln!("# running paper-default runs for the dispatch figure…");
        emit(&tables::fig_dispatch_modes(&runs.each(paper)));
    }

    if needs_threshold_sweep {
        eprintln!("# running threshold sweeps (Tables I-IV)…");
        let sweeps = runs.sweep(&THRESHOLDS.map(|t| paper.with_threshold(t)));
        if wants("1") {
            emit(&tables::table1_trace_length(&THRESHOLDS, &sweeps));
        }
        if wants("2") {
            emit(&tables::table2_coverage(&THRESHOLDS, &sweeps));
        }
        if wants("3") {
            emit(&tables::table3_completion(&THRESHOLDS, &sweeps));
        }
        if wants("4") {
            emit(&tables::table4_signal_rate(&THRESHOLDS, &sweeps));
        }
    }

    if wants("5") {
        eprintln!("# running delay sweeps (Table V)…");
        let sweeps = runs.sweep(&DELAYS.map(|d| paper.with_start_delay(d)));
        emit(&tables::table5_event_interval(&DELAYS, &sweeps));
    }

    if needs_overhead {
        eprintln!("# timing profiler overhead (Tables VI-VII)…");
        let rows = overhead_rows(&mut runs);
        if wants("6") {
            emit(&tables::table6_profiler_overhead(&rows));
        }
        if wants("7") {
            emit(&tables::table7_trace_dispatch_overhead(&rows));
        }
    }

    if wants("unroll") {
        eprintln!("# running the loop-unroll ablation…");
        let sweeps = runs.sweep(&UNROLLS.map(|u| paper.with_loop_unroll(u)));
        emit(&tables::ablation_unroll(&UNROLLS, &sweeps));
    }

    if wants("decay") {
        eprintln!("# running the decay ablation (two-phase program)…");
        emit(&tables::ablation_decay(&decay_rows()));
    }

    if wants("inline") {
        eprintln!("# reading inline-cache hits…");
        emit(&tables::inline_hit_ratios(&runs.each(paper)));
    }

    if wants("baselines") {
        eprintln!("# running the BCG, NET and rePLay selectors…");
        emit(&tables::baseline_comparison(&baseline_rows(&mut runs)));
    }

    if table == "summary" {
        eprintln!("# running paper-vs-measured summary…");
        let defaults = runs.each(paper);
        let avg = |f: &dyn Fn(&trace_jit::RunReport) -> f64| -> f64 {
            let vals: Vec<f64> = defaults.iter().map(|(_, r)| f(r)).collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let overheads = overhead_rows(&mut runs);
        let oh_avg = overheads
            .iter()
            .map(|(_, m)| m.expected_trace_overhead_pct())
            .sum::<f64>()
            / overheads.len() as f64;
        let mut t = tables::TextTable::new(
            "Paper vs measured: headline aggregates at threshold 97%, delay 64",
            ["quantity", "paper", "measured"],
        );
        t.push_row(vec![
            "avg trace length (blocks)".into(),
            "7.5".into(),
            format!("{:.1}", avg(&|r| r.avg_trace_length())),
        ]);
        t.push_row(vec![
            "stream coverage, completed traces".into(),
            "87.1%".into(),
            format!("{:.1}%", 100.0 * avg(&|r| r.coverage_completed())),
        ]);
        t.push_row(vec![
            "stream coverage incl. partial".into(),
            "90.7%".into(),
            format!("{:.1}%", 100.0 * avg(&|r| r.coverage_incl_partial())),
        ]);
        t.push_row(vec![
            "trace completion rate (min over benchmarks)".into(),
            ">= 97.2%".into(),
            format!(
                "{:.1}%",
                100.0
                    * defaults
                        .iter()
                        .map(|(_, r)| r.completion_rate())
                        .fold(f64::INFINITY, f64::min)
            ),
        ]);
        t.push_row(vec![
            "expected trace-dispatch overhead (avg)".into(),
            "4.5%".into(),
            format!("{oh_avg:.1}%"),
        ]);
        emit(&t);
    }
}
