//! Plain-text rendering of the paper's tables.
//!
//! Each `table*` builder takes measured data and produces a [`TextTable`]
//! laid out like the corresponding table in the paper, so the
//! `paper_tables` harness can print side-by-side comparable output; the
//! `ablation_*` builders, [`inline_hit_ratios`] and [`baseline_comparison`]
//! lay out the repo's ablations of the paper's design choices the same way.

use std::iter::once;

use crate::experiment::SweepPoint;
use crate::overhead::OverheadMeasurement;
use crate::report::RunReport;
use trace_bcg::ProfilerStats;

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers (first column is the row label).
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table with a title and headers.
    pub fn new<H: Into<String>>(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = H>,
    ) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>w$}", h, w = widths[i]));
        }
        out.push_str(&line);
        out.push('\n');
        out.push_str(&"-".repeat(line.len()));
        out.push('\n');
        for row in &self.rows {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>w$}", row[i], w = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting), title as a `#` comment line.
    pub fn render_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = format!("# {}\n", self.title);
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a threshold like the paper's row labels ("97%").
pub fn fmt_threshold(t: f64) -> String {
    format!("{:.0}%", t * 100.0)
}

/// Formats a completion rate like Table III ("99+" above 99.9%).
pub fn fmt_completion(rate: f64) -> String {
    let pct = rate * 100.0;
    if pct > 99.9 {
        "99+".to_owned()
    } else {
        format!("{pct:.1}%")
    }
}

/// Formats "thousands of dispatches" quantities (Tables IV–V).
pub fn fmt_kdispatch(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.1}", v / 1000.0)
    }
}

fn average(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// A named set of sweep points — one benchmark column.
pub type NamedSweep = (String, Vec<SweepPoint>);

/// Builds a threshold-indexed table: one row per threshold, one column per
/// benchmark plus an average column, with `value` extracting the metric
/// and `fmt` rendering a cell.
fn threshold_table(
    title: &str,
    sweeps: &[NamedSweep],
    value: impl Fn(&RunReport) -> f64,
    fmt: impl Fn(f64) -> String,
) -> TextTable {
    let names = sweeps.iter().map(|(n, _)| n.as_str());
    let headers = once("threshold").chain(names).chain(["average"]);
    let mut table = TextTable::new(title, headers);
    let nrows = sweeps.first().map(|(_, pts)| pts.len()).unwrap_or(0);
    for i in 0..nrows {
        let threshold = sweeps[0].1[i].threshold;
        let mut row = vec![fmt_threshold(threshold)];
        let vals: Vec<f64> = sweeps
            .iter()
            .map(|(_, pts)| value(&pts[i].report))
            .collect();
        row.extend(vals.iter().map(|&v| fmt(v)));
        row.push(fmt(average(&vals)));
        table.push_row(row);
    }
    table
}

/// Table I: average executed trace length (blocks) vs. threshold.
pub fn table1_trace_length(sweeps: &[NamedSweep]) -> TextTable {
    threshold_table(
        "Table I: Trace Length vs. Threshold (basic blocks)",
        sweeps,
        RunReport::avg_trace_length,
        |v| format!("{v:.1}"),
    )
}

/// Table II: instruction stream coverage by completed traces vs.
/// threshold.
pub fn table2_coverage(sweeps: &[NamedSweep]) -> TextTable {
    threshold_table(
        "Table II: Instruction Stream Coverage vs. Threshold",
        sweeps,
        RunReport::coverage_completed,
        |v| format!("{:.0}%", v * 100.0),
    )
}

/// Table III: dynamic trace (frame) completion rate vs. threshold.
pub fn table3_completion(sweeps: &[NamedSweep]) -> TextTable {
    threshold_table(
        "Table III: Frame completion rate vs. Threshold",
        sweeps,
        RunReport::completion_rate,
        fmt_completion,
    )
}

/// Table IV: thousands of dispatches per state-change signal vs.
/// threshold.
pub fn table4_signal_rate(sweeps: &[NamedSweep]) -> TextTable {
    threshold_table(
        "Table IV: Thousands of Dispatches per State Change Signal",
        sweeps,
        RunReport::dispatches_per_state_signal,
        fmt_kdispatch,
    )
}

/// Table V: thousands of dispatches per trace event at the 97% threshold,
/// one row per start-state delay.
pub fn table5_event_interval(sweeps: &[NamedSweep]) -> TextTable {
    let names = sweeps.iter().map(|(n, _)| n.as_str());
    let headers = once("delay").chain(names).chain(["average"]);
    let mut table = TextTable::new(
        "Table V: Thousands of Dispatches per Trace Event at 97% threshold",
        headers,
    );
    let nrows = sweeps.first().map(|(_, pts)| pts.len()).unwrap_or(0);
    for i in 0..nrows {
        let delay = sweeps[0].1[i].delay;
        let mut row = vec![delay.to_string()];
        let vals: Vec<f64> = sweeps
            .iter()
            .map(|(_, pts)| pts[i].report.trace_event_interval())
            .collect();
        row.extend(vals.iter().map(|&v| fmt_kdispatch(v)));
        row.push(fmt_kdispatch(average(&vals)));
        table.push_row(row);
    }
    table
}

/// Table VI: profiler overhead per basic-block dispatch.
pub fn table6_profiler_overhead(rows: &[(String, OverheadMeasurement)]) -> TextTable {
    let mut table = TextTable::new(
        "Table VI: Profiler overhead per basic block dispatch",
        [
            "benchmark",
            "no profiler (s)",
            "dispatches (M)",
            "profiler (s)",
            "overhead / 1e6 disp (s)",
        ],
    );
    for (name, m) in rows {
        table.push_row(vec![
            name.clone(),
            format!("{:.3}", m.base_seconds),
            format!("{:.1}", m.block_dispatches as f64 / 1e6),
            format!("{:.3}", m.profiled_seconds),
            format!("{:.4}", m.overhead_per_million_dispatches()),
        ]);
    }
    table
}

/// Table VII: expected overhead under the trace-dispatch model.
pub fn table7_trace_dispatch_overhead(rows: &[(String, OverheadMeasurement)]) -> TextTable {
    let mut table = TextTable::new(
        "Table VII: Profiler dispatch overhead (trace model)",
        [
            "benchmark",
            "trace dispatches (M)",
            "overhead / 1e6 disp (s)",
            "expected overhead (s)",
            "% overhead",
        ],
    );
    for (name, m) in rows {
        table.push_row(vec![
            name.clone(),
            format!("{:.1}", m.trace_dispatches as f64 / 1e6),
            format!("{:.4}", m.overhead_per_million_dispatches()),
            format!("{:.3}", m.expected_trace_overhead_seconds()),
            format!("{:.1}%", m.expected_trace_overhead_pct()),
        ]);
    }
    table
}

/// Figures 1–2 as a table: dispatch totals under the per-instruction,
/// per-block and per-trace models, with reduction factors.
pub fn fig_dispatch_modes(rows: &[(String, RunReport)]) -> TextTable {
    let mut table = TextTable::new(
        "Figures 1-2: dispatches per execution model",
        [
            "benchmark",
            "per-instruction",
            "per-block",
            "per-trace",
            "block/instr",
            "trace/block",
        ],
    );
    for (name, r) in rows {
        let d = r.dispatch_counts();
        table.push_row(vec![
            name.clone(),
            d.per_instruction.to_string(),
            d.per_block.to_string(),
            d.per_trace.to_string(),
            format!("{:.2}x", d.block_over_instruction()),
            format!("{:.2}x", d.trace_over_block()),
        ]);
    }
    table
}

/// The loop-unroll ablation (§4.2's "unrolled once" rule): one row per
/// unroll factor, one column per benchmark; each cell is average trace
/// length / completion rate / coverage by completed traces. `sweeps[w].1[i]`
/// is benchmark `w`'s run at `unrolls[i]`.
pub fn ablation_unroll(unrolls: &[usize], sweeps: &[(String, Vec<RunReport>)]) -> TextTable {
    let names = sweeps.iter().map(|(n, _)| n.as_str());
    let mut table = TextTable::new(
        "Ablation: loop unroll factor (avg trace length / completion rate / coverage)",
        once("unroll").chain(names),
    );
    for (i, unroll) in unrolls.iter().enumerate() {
        let mut row = vec![unroll.to_string()];
        row.extend(sweeps.iter().map(|(_, rs)| {
            let r = &rs[i];
            format!(
                "{:.1} / {:.1}% / {:.0}%",
                r.avg_trace_length(),
                100.0 * r.completion_rate(),
                100.0 * r.coverage_completed()
            )
        }));
        table.push_row(row);
    }
    table
}

/// The decay ablation (§4.1.1): one row per profiler configuration run on
/// the two-phase program.
pub fn ablation_decay(rows: &[(String, RunReport)]) -> TextTable {
    let mut table = TextTable::new(
        "Ablation: periodic decay vs cumulative counters (two-phase program)",
        [
            "profiler",
            "completion",
            "coverage",
            "traces",
            "relinked",
            "signals",
        ],
    );
    for (name, r) in rows {
        table.push_row(vec![
            name.clone(),
            format!("{:.3}", r.completion_rate()),
            format!("{:.3}", r.coverage_incl_partial()),
            r.cache.traces_constructed.to_string(),
            r.cache.links_replaced.to_string(),
            (r.profiler.state_signals + r.profiler.prediction_signals).to_string(),
        ]);
    }
    table
}

/// The inline-cache measurement (§4.1.2): the fraction of dispatches the
/// profiler's predicted-successor cache answers, with the graph's size,
/// per benchmark.
pub fn inline_hit_ratios(rows: &[(String, ProfilerStats)]) -> TextTable {
    let mut table = TextTable::new(
        "Inline-cache hit ratio (fraction of dispatches fast-pathed)",
        ["benchmark", "hit ratio", "nodes", "edges"],
    );
    for (name, s) in rows {
        table.push_row(vec![
            name.clone(),
            format!("{:.4}", s.cache_hit_ratio()),
            s.nodes_created.to_string(),
            s.edges_created.to_string(),
        ]);
    }
    table
}

/// One selector's run: coverage by completed traces, completion rate.
pub type SelectorResult = (f64, f64);

/// The selector comparison (§2–3): the BCG against Dynamo-style NET and
/// rePLay-style promotion, in that order, over the same dispatch monitor.
pub fn baseline_comparison(rows: &[(String, [SelectorResult; 3])]) -> TextTable {
    let mut table = TextTable::new(
        "Selector comparison (coverage by completed traces / completion rate)",
        ["benchmark", "bcg", "net (dynamo)", "replay"],
    );
    for (name, selectors) in rows {
        let mut row = vec![name.clone()];
        row.extend(
            selectors
                .iter()
                .map(|(cov, comp)| format!("{:.0}% / {:.1}%", cov * 100.0, comp * 100.0)),
        );
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new("T", ["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.starts_with("T\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines have the same width.
        assert_eq!(lines[3].len(), lines[1].len());
    }

    fn sample_report(len: f64) -> crate::report::RunReport {
        use jvm_vm::ExecStats;
        use trace_bcg::ProfilerStats;
        use trace_cache::{CacheStats, ConstructorStats, TraceExecStats};
        crate::report::RunReport {
            result: None,
            checksum: 0,
            exec: ExecStats {
                instructions: 1000,
                block_dispatches: 200,
                ..ExecStats::default()
            },
            profiler: ProfilerStats {
                state_signals: 2,
                ..ProfilerStats::default()
            },
            traces: TraceExecStats {
                entered: 10,
                completed: 10,
                blocks_in_completed: (len * 10.0) as u64,
                instrs_in_completed: 800,
                ..TraceExecStats::default()
            },
            constructor: ConstructorStats::default(),
            cache: CacheStats::default(),
        }
    }

    fn sample_sweeps() -> Vec<NamedSweep> {
        use crate::experiment::SweepPoint;
        let mk = |len: f64| -> Vec<SweepPoint> {
            [1.0, 0.99, 0.97]
                .iter()
                .map(|&t| SweepPoint {
                    threshold: t,
                    delay: 64,
                    report: sample_report(len),
                })
                .collect()
        };
        vec![("alpha".to_owned(), mk(4.0)), ("beta".to_owned(), mk(6.0))]
    }

    #[test]
    fn threshold_tables_have_benchmark_columns_and_average() {
        let sweeps = sample_sweeps();
        let t1 = table1_trace_length(&sweeps);
        assert_eq!(t1.headers, vec!["threshold", "alpha", "beta", "average"]);
        assert_eq!(t1.rows.len(), 3);
        // Row label is the threshold; the average of 4.0 and 6.0 is 5.0.
        assert_eq!(t1.rows[0][0], "100%");
        assert_eq!(t1.rows[0][1], "4.0");
        assert_eq!(t1.rows[0][2], "6.0");
        assert_eq!(t1.rows[0][3], "5.0");

        let t2 = table2_coverage(&sweeps);
        assert_eq!(t2.rows[0][1], "80%"); // 800/1000 instructions

        let t3 = table3_completion(&sweeps);
        assert_eq!(t3.rows[0][1], "99+"); // 10/10 completed

        let t4 = table4_signal_rate(&sweeps);
        assert_eq!(t4.rows[0][1], "0.1"); // 200 dispatches / 2 signals / 1000
    }

    #[test]
    fn table5_rows_are_labelled_by_delay() {
        let sweeps = sample_sweeps();
        let t5 = table5_event_interval(&sweeps);
        assert_eq!(t5.rows[0][0], "64");
        assert_eq!(t5.rows.len(), 3);
    }

    #[test]
    fn baseline_comparison_has_one_column_per_selector() {
        let t = baseline_comparison(&[(
            "alpha".to_owned(),
            [(0.93, 0.993), (0.48, 0.515), (0.05, 1.0)],
        )]);
        assert_eq!(
            t.headers,
            vec!["benchmark", "bcg", "net (dynamo)", "replay"]
        );
        assert_eq!(
            t.rows[0],
            vec!["alpha", "93% / 99.3%", "48% / 51.5%", "5% / 100.0%"]
        );
    }

    #[test]
    fn csv_rendering_quotes_and_comments() {
        let mut t = TextTable::new("Table X: things", ["a,b", "c"]);
        t.push_row(vec!["1\"2".into(), "3".into()]);
        let csv = t.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# Table X: things");
        assert_eq!(lines[1], "\"a,b\",c");
        assert_eq!(lines[2], "\"1\"\"2\",3");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = TextTable::new("T", ["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn completion_formatting_matches_paper_convention() {
        assert_eq!(fmt_completion(0.9995), "99+");
        assert_eq!(fmt_completion(0.985), "98.5%");
    }

    #[test]
    fn threshold_and_kdispatch_formatting() {
        assert_eq!(fmt_threshold(0.97), "97%");
        assert_eq!(fmt_kdispatch(114_600.0), "114.6");
        assert_eq!(fmt_kdispatch(f64::INFINITY), "inf");
    }
}
