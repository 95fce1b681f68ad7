//! The metric table — every name, unit, direction and bound in one place
//! — and the assembly of a run's metrics from its [`Outcome`].
//!
//! `BENCHMARK.json` mirrors [`END_TO_END`] and [`PER_LAYER`]; a unit test
//! fails if the two drift apart.

use std::collections::BTreeMap;

use crate::counters::ratio;
use crate::json::{obj, Json};
use crate::run::Outcome;
use crate::stats::{quantile, self_times, Span, Summary};
use crate::tracer::SETUP_ROUND;
use crate::workloads::Usage;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the two bounds below.
    pub bounds: Option<Bounds>,
}

/// By how much of the baseline an end-to-end metric may worsen. Two
/// questions, two numbers (README, "Bounds").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// `compare`'s gate: two runs at the *same* seed and round count. The
    /// issue's bounds; a timing bound is twice the A/A gap measured (3.5%
    /// on both legs) and never past 10%.
    pub same_seed: f64,
    /// `BENCHMARK.json`'s `bound`: the driver judges the spread of ten
    /// runs at ten *different* seeds against it, so it has to cover what
    /// the seed moves, not only what a change may cost.
    pub across_seeds: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    same_seed: f64,
    across_seeds: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bounds: Some(Bounds {
            same_seed,
            across_seeds,
        }),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bounds: None,
    }
}

/// `failed_share` is zero on a correct run, and the driver's contract
/// takes no end-to-end metric that can be zero: it reaches the driver as
/// `failed` / `attempted` on the result line instead, and `compare`
/// still gates it here.
pub const FAILED_SHARE: &str = "failed_share";

#[rustfmt::skip]
pub const END_TO_END: [MetricDef; 7] = [
    // Everything before the first timed round: program build + verify,
    // oracle runs, fleet draw, warm-up rounds, snapshot production; lap by
    // lap the quietest of the set-up repeats.
    e2e("setup_s", "s", 0.30, 0.25),
    // Full TracingVm in the workload's usage mode: geometric mean over
    // slots of each slot's quietest run, wall ns per retired instruction.
    e2e("engine_ns_per_instr", "ns", 0.07, 0.25),
    // Same rounds and inputs on the best interpreter for that usage:
    // profile-fused Vm (long-lived), fresh unfused Vm (fleets).
    e2e("interp_ns_per_instr", "ns", 0.07, 0.25),
    // (Trace entries + blocks dispatched outside traces) x 1000 /
    // instructions, engine leg, over the timed rounds (paper Table VII).
    e2e("dispatches_per_kinstr", "count", 0.005, 0.05),
    // snapshot().len() + lowered_memory() when the work is done: summed
    // over long-lived VMs, mean per VM where VMs are born in timed rounds.
    e2e("jit_state_kib", "KiB", 0.05, 0.25),
    // VmHWM of the benchmark process at exit.
    e2e("peak_rss_mb", "MB", 0.10, 0.15),
    // Failed operations / attempted, all legs, against the ReferenceVm
    // oracle; any rise fails.
    e2e(FAILED_SHARE, "fraction", 0.0, 0.0),
];

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const PER_LAYER: [MetricDef; 48] = [
    layer("bytecode.verify_ns_per_static_instr", "ns", Lower), // verify_program over the program, per static instruction
    layer("vm.decode_ns_per_static_instr", "ns", Lower), // DecodedProgram::decode, per static instruction
    layer("vm.plain_ns_per_instr", "ns", Lower), // ladder L0: plain decoded Vm + NullObserver
    layer("vm.fused_ns_per_instr", "ns", Lower), // profile-fused decoded Vm, run time alone
    layer("vm.blocks_per_kinstr", "count", Lower), // block dispatches x 1000 / instructions (interpreter leg)
    layer("vm.decoded_bytes", "B", Lower), // DecodedProgram footprint
    layer("bcg.observe_ns_per_dispatch", "ns", Lower), // (L1 - L0) per block dispatch: bcg.observe on every block
    layer("bcg.nodes", "count", Lower), // branch-context nodes in the engine's profiler
    layer("bcg.signals_per_mdispatch", "count", Lower), // profiler signals per million observed dispatches (engine leg)
    layer("bcg.decays", "count", Lower), // periodic decays per round (engine leg)
    layer("bcg.inline_hit_ratio", "fraction", Higher), // inline-cache hits / (hits + misses) (engine leg)
    layer("bcg.bytes", "B", Lower), // BranchCorrelationGraph::memory_estimate of the L2 profiler
    layer("tracecache.construct_ns_per_instr", "ns", Lower), // L2 - L1: signal drain + handle_batch, per retired instruction
    layer("tracecache.batch_us_p50", "us", Lower), // median span around one handle_batch call (L2)
    layer("tracecache.batches", "count", Lower), // handle_batch calls per round (L2)
    layer("tracecache.traces_constructed", "count", Lower), // new trace objects per round (engine leg)
    layer("tracecache.reuse_ratio", "fraction", Higher), // traces reused / (constructed + reused) (engine leg)
    layer("tracecache.links_live", "count", Lower), // entry links live when the work is done
    layer("tracecache.payload_bytes", "B", Lower), // TraceCache::payload_bytes when the work is done
    layer("tracecache.quarantined", "count", Lower), // traces quarantined per round
    layer("tracecache.evicted", "count", Lower), // traces evicted per round
    layer("tracecache.health_probations", "count", Lower), // healthy -> probation transitions per round
    layer("tracecache.health_demotions", "count", Lower), // demotions per round
    layer("tracecache.health_readmissions", "count", Lower), // re-admissions under watch per round
    layer("exec.new_us", "us", Lower), // TracingVm::new
    layer("exec.compile_us_per_trace", "us", Lower), // trace_exec::compile, per trace of the engine's cache
    layer("exec.lower_reg_us_per_trace", "us", Lower), // trace_exec::lower_reg, per compiled trace
    layer("exec.reg_fallbacks", "count", Lower), // traces lower_reg refuses, per round
    layer("exec.rinstr_per_tinstr", "fraction", Lower), // register instructions out / stack instructions in
    layer("exec.lowered_bytes", "B", Lower), // TracingVm::lowered_memory when the work is done
    layer("exec.coverage", "fraction", Higher), // in-trace share of retired instructions
    layer("exec.completion_rate", "fraction", Higher), // traces completed / entered
    layer("exec.entries_per_kinstr", "count", Lower), // trace entries x 1000 / instructions
    layer("exec.avg_trace_blocks", "count", Higher), // blocks per completed trace
    layer("exec.side_exits_per_kinstr", "count", Lower), // early trace exits x 1000 / instructions
    layer("exec.blocks_outside_per_kinstr", "count", Lower), // blocks dispatched outside traces x 1000 / instructions
    layer("exec.first_entry_dispatch", "count", Lower), // block dispatches before the first trace entry of a VM's life (median)
    layer("exec.cold_ns_per_instr", "ns", Lower), // fresh VM, never snapshot-booted: new + first run
    layer("exec.warm_ns_per_instr", "ns", Lower), // engine with its profile built and traces linked
    layer("exec.trace_payoff_ns_per_instr", "ns", Higher), // L2 - warm: what entering traces buys over merely profiling
    layer("exec.engine_vs_interp", "ratio", Lower), // warm / fused
    layer("persist.snapshot_us", "us", Lower), // TracingVm::snapshot (median; snapshot_fleet only)
    layer("persist.snapshot_bytes", "B", Lower), // boot snapshot size, mean per program (snapshot_fleet only)
    layer("persist.load_us", "us", Lower), // TracingVm::load_snapshot (snapshot_fleet only)
    layer("persist.artifacts_prebuilt", "count", Higher), // artifacts pre-built per boot (snapshot_fleet only)
    layer("persist.load_share", "fraction", Lower), // load / (new + load + run) (snapshot_fleet only)
    layer("trace_overhead_pct", "%", Lower), // engine leg with spans recorded vs with recording off, same process
    layer("host_noise", "ratio", Lower), // p50 / p10 of the engine leg's round values
];

/// One reported number. `value` is `None` where the metric does not
/// apply to the workload (`persist.*` outside `snapshot_fleet`).
pub struct Metric {
    pub def: &'static MetricDef,
    pub value: Option<f64>,
    /// The round values and their distribution, for timing metrics.
    pub rounds: Option<(Summary, Vec<f64>)>,
}

fn end_to_end_def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| quantile(&v, 0.5))
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A size read off the engine VMs: summed over long-lived VMs, the mean
/// per VM where VMs are born in timed rounds.
fn per_vm(o: &Outcome, total: u64) -> f64 {
    if o.spec.usage == Usage::LongLived {
        total as f64
    } else {
        ratio(total, o.end.vms)
    }
}

pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let timing = |name: &'static str, series: &str| Metric {
        def: end_to_end_def(name),
        value: o.samples.estimate(series),
        rounds: {
            let values = o.samples.round_values(series);
            Some((Summary::of(&values), values))
        },
    };
    let plain = |name: &'static str, value: f64| Metric {
        def: end_to_end_def(name),
        value: Some(value),
        rounds: None,
    };
    vec![
        plain("setup_s", o.setup_s),
        timing("engine_ns_per_instr", "engine"),
        timing("interp_ns_per_instr", "interp"),
        plain("dispatches_per_kinstr", o.engine.dispatches_per_kinstr()),
        plain(
            "jit_state_kib",
            per_vm(o, o.end.snapshot_bytes + o.end.lowered_bytes) / 1024.0,
        ),
        plain("peak_rss_mb", peak_rss_mb()),
        plain(FAILED_SHARE, o.tally.failed_share()),
    ]
}

/// Which position in its round each span belongs to: the ordinal of its
/// enclosing `program` span within the round. (A program whose input
/// cycles by round keeps its position: what is timed by span — `new`,
/// `load_snapshot`, compiling and lowering its traces — is the same work
/// whichever input follows.)
fn span_slots(spans: &[Span]) -> Vec<Option<u32>> {
    let mut slots: Vec<Option<u32>> = vec![None; spans.len()];
    let mut next: BTreeMap<u32, u32> = BTreeMap::new();
    for s in spans {
        slots[s.id as usize] = if s.name == "program" {
            let n = next.entry(s.round).or_insert(0);
            *n += 1;
            Some(*n - 1)
        } else {
            s.parent.and_then(|p| slots[p as usize])
        };
    }
    slots
}

/// The estimator of the timed legs, applied to spans: per position and
/// round the mean duration of the spans called `name`, per position the
/// quietest round, then the geometric mean over positions. In µs.
fn span_estimate_us(spans: &[Span], slots: &[Option<u32>], name: &str) -> Option<f64> {
    let mut per: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == name && s.round != SETUP_ROUND)
    {
        if let Some(slot) = slots[s.id as usize] {
            let e = per.entry((slot, s.round)).or_insert((0, 0));
            e.0 += s.duration();
            e.1 += 1;
        }
    }
    let mut minima: BTreeMap<u32, f64> = BTreeMap::new();
    for ((slot, _), (ns, n)) in per {
        let mean = ns as f64 / n as f64 / 1000.0;
        let m = minima.entry(slot).or_insert(f64::INFINITY);
        *m = m.min(mean);
    }
    let minima: Vec<f64> = minima.into_values().filter(|v| *v > 0.0).collect();
    (!minima.is_empty()).then(|| crate::stats::geomean(&minima))
}

fn span_median_us(spans: &[Span], name: &str, setup: bool) -> Option<f64> {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && (s.round == SETUP_ROUND) == setup)
        .map(|s| s.duration() as f64 / 1000.0)
        .collect();
    median(&d)
}

pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let long_lived = o.spec.usage == Usage::LongLived;
    let fleet = matches!(o.spec.usage, Usage::FreshVm { .. });
    let snapshot_boot = o.spec.usage == Usage::FreshVm { snapshot: true };
    let rounds = f64::from(o.rounds.max(1));
    let e = &o.engine;
    let est = |series: &str| o.samples.estimate(series);
    // A long-lived engine leg is the warm engine, a long-lived interpreter
    // leg the fused one; elsewhere they are timed as legs of their own.
    let warm = est(if long_lived { "engine" } else { "warm" });
    let fused = est(if fleet { "fused" } else { "interp" });
    let (l0, l1, l2) = (est("plain"), est("observe"), est("construct"));
    let sub = |a: Option<f64>, b: Option<f64>| Some(a? - b?);
    let per_vm = |total: u64| Some(per_vm(o, total));
    let per_round = |total: u64| Some(total as f64 / rounds);
    let per_kinstr = |n: u64| Some(1000.0 * ratio(n, e.instructions));
    let slots = span_slots(&o.spans);
    let span_us = |name: &str| span_estimate_us(&o.spans, &slots, name);
    let only_boot = |v: Option<f64>| if snapshot_boot { v } else { None };
    let span_total = |name: &str| -> u64 {
        o.spans
            .iter()
            .filter(|s| s.name == name && s.round != SETUP_ROUND)
            .map(Span::duration)
            .sum()
    };
    let instr_per_dispatch = ratio(o.interp_instructions, o.interp_blocks);
    let first_entries: Vec<f64> = o.first_entries.iter().map(|&d| d as f64).collect();
    let engine_rounds = o.samples.round_values("engine");

    let values: Vec<(&str, Option<f64>)> = vec![
        ("bytecode.verify_ns_per_static_instr", est("verify")),
        ("vm.decode_ns_per_static_instr", est("decode")),
        ("vm.plain_ns_per_instr", l0),
        ("vm.fused_ns_per_instr", fused),
        (
            "vm.blocks_per_kinstr",
            Some(1000.0 * ratio(o.interp_blocks, o.interp_instructions)),
        ),
        ("vm.decoded_bytes", per_vm(o.end.decoded_bytes)),
        (
            "bcg.observe_ns_per_dispatch",
            sub(l1, l0).map(|d| d * instr_per_dispatch),
        ),
        ("bcg.nodes", per_vm(o.end.bcg_nodes)),
        (
            "bcg.signals_per_mdispatch",
            Some(1e6 * ratio(e.signals, e.profiler_dispatches)),
        ),
        ("bcg.decays", per_round(e.decays)),
        (
            "bcg.inline_hit_ratio",
            Some(ratio(e.inline_hits, e.inline_hits + e.inline_misses)),
        ),
        ("bcg.bytes", per_vm(o.end.bcg_bytes)),
        ("tracecache.construct_ns_per_instr", sub(l2, l1)),
        (
            "tracecache.batch_us_p50",
            span_median_us(&o.spans, "tracecache.handle_batch", false),
        ),
        ("tracecache.batches", per_round(o.batches)),
        (
            "tracecache.traces_constructed",
            per_round(e.traces_constructed),
        ),
        (
            "tracecache.reuse_ratio",
            Some(ratio(
                e.traces_reused,
                e.traces_constructed + e.traces_reused,
            )),
        ),
        ("tracecache.links_live", per_vm(o.end.links_live)),
        ("tracecache.payload_bytes", per_vm(o.end.payload_bytes)),
        ("tracecache.quarantined", per_round(e.traces_quarantined)),
        ("tracecache.evicted", per_round(e.traces_evicted)),
        (
            "tracecache.health_probations",
            per_round(e.health_probations),
        ),
        ("tracecache.health_demotions", per_round(e.health_demotions)),
        (
            "tracecache.health_readmissions",
            per_round(e.health_readmissions),
        ),
        ("exec.new_us", span_us("exec.new")),
        ("exec.compile_us_per_trace", span_us("exec.compile")),
        ("exec.lower_reg_us_per_trace", span_us("exec.lower_reg")),
        ("exec.reg_fallbacks", per_round(o.lowering.reg_fallbacks)),
        (
            "exec.rinstr_per_tinstr",
            Some(ratio(o.lowering.rinstrs, o.lowering.tinstrs)),
        ),
        ("exec.lowered_bytes", per_vm(o.end.lowered_bytes)),
        ("exec.coverage", Some(e.coverage())),
        ("exec.completion_rate", Some(ratio(e.completed, e.entered))),
        ("exec.entries_per_kinstr", per_kinstr(e.entered)),
        (
            "exec.avg_trace_blocks",
            Some(ratio(e.blocks_in_completed, e.completed)),
        ),
        ("exec.side_exits_per_kinstr", per_kinstr(e.exited_early)),
        (
            "exec.blocks_outside_per_kinstr",
            per_kinstr(e.blocks_outside),
        ),
        ("exec.first_entry_dispatch", median(&first_entries)),
        ("exec.cold_ns_per_instr", est("cold")),
        ("exec.warm_ns_per_instr", warm),
        ("exec.trace_payoff_ns_per_instr", sub(l2, warm)),
        ("exec.engine_vs_interp", warm.zip(fused).map(|(w, f)| w / f)),
        (
            "persist.snapshot_us",
            only_boot(span_median_us(&o.spans, "persist.snapshot", true)),
        ),
        (
            "persist.snapshot_bytes",
            only_boot(Some(ratio(o.boot_snapshot_bytes, o.end.vms))),
        ),
        ("persist.load_us", only_boot(span_us("persist.load"))),
        (
            "persist.artifacts_prebuilt",
            only_boot(Some(ratio(o.prebuilt, e.runs))),
        ),
        (
            "persist.load_share",
            only_boot(Some(ratio(
                span_total("persist.load"),
                span_total("leg.engine"),
            ))),
        ),
        (
            "trace_overhead_pct",
            est("engine")
                .zip(est("bare"))
                .map(|(t, b)| 100.0 * (t / b - 1.0)),
        ),
        (
            "host_noise",
            (!engine_rounds.is_empty()).then(|| Summary::of(&engine_rounds).host_noise()),
        ),
    ];
    // In the table's order, and every name of the table: the driver's
    // line must carry them all.
    PER_LAYER
        .iter()
        .map(|def| Metric {
            def,
            value: values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("{} is in the table but not computed", def.name))
                .1,
            rounds: None,
        })
        .collect()
}

/// Total self time per span name, in ms: duration minus direct children.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    by_name
}

impl Metric {
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "value".to_string(),
                self.value.map_or(Json::Null, Json::Num),
            ),
            ("unit".to_string(), self.def.unit.into()),
            ("better".to_string(), self.def.better.as_str().into()),
        ];
        if let Some(b) = self.def.bounds {
            members.push(("bound".to_string(), b.same_seed.into()));
        }
        if let Some((s, values)) = &self.rounds {
            members.push((
                "rounds".to_string(),
                obj([
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| v.into()).collect()),
                    ),
                    ("n", s.n.into()),
                    ("min", s.min.into()),
                    ("p10", s.p10.into()),
                    ("p25", s.p25.into()),
                    ("p50", s.p50.into()),
                    ("p75", s.p75.into()),
                    ("tail", s.tail.into()),
                    ("tail_pct", s.tail_pct.into()),
                    ("host_noise", s.host_noise().into()),
                ]),
            ));
        }
        Json::Obj(members)
    }

    /// One line of the human-readable table.
    pub fn row(&self) -> String {
        let value = match self.value {
            Some(v) => format!("{v:>14.4}"),
            None => format!("{:>14}", "n/a"),
        };
        let mut row = format!("  {:<38} {value} {:<8}", self.def.name, self.def.unit);
        if let Some((s, _)) = &self.rounds {
            row.push_str(&format!(
                " rounds: n={} min={:.4} p10={:.4} p50={:.4} p{}={:.4} noise={:.3}",
                s.n,
                s.min,
                s.p10,
                s.p50,
                s.tail_pct,
                s.tail,
                s.host_noise()
            ));
        }
        row
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric `BENCHMARK.json` lists
/// for the mode. A metric that does not apply to the workload reads 0.
pub fn driver_line(o: &Outcome, metrics: &[Metric]) -> String {
    let members = metrics
        .iter()
        .filter(|m| m.def.name != FAILED_SHARE)
        .map(|m| {
            (
                m.def.name.to_string(),
                obj([
                    ("value", m.value.unwrap_or(0.0).into()),
                    ("unit", m.def.unit.into()),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", (o.tally.failed == 0).into()),
        ("attempted", o.tally.attempted.into()),
        ("failed", o.tally.failed.into()),
        ("metrics", Json::Obj(members)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &END_TO_END {
            let b = d.bounds.expect("an end-to-end metric has bounds");
            assert!((0.0..=0.25).contains(&b.across_seeds), "{}", d.name);
            // The issue's ceiling on a same-seed timing gate (set-up, one
            // short stretch of work, has the issue's 30%).
            if matches!(d.unit, "ns") {
                assert!(b.same_seed <= 0.10, "{}", d.name);
            }
        }
        // The driver is told to give set-up time the largest bound.
        let across = |name: &str| end_to_end_def(name).bounds.unwrap().across_seeds;
        assert!(END_TO_END
            .iter()
            .all(|d| across(d.name) <= across("setup_s")));
    }

    /// `BENCHMARK.json` at the repository root says what this table says.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::as_arr).expect(key).to_vec() };
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);

        let e2e: Vec<_> = END_TO_END
            .iter()
            .filter(|d| d.name != FAILED_SHARE)
            .collect();
        let got = listed("end_to_end");
        assert_eq!(got.len(), e2e.len());
        for (m, d) in got.iter().zip(e2e) {
            assert_eq!(field(m, "name").as_deref(), Some(d.name));
            assert_eq!(field(m, "unit").as_deref(), Some(d.unit));
            assert_eq!(field(m, "better").as_deref(), Some(d.better.as_str()));
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                d.bounds.map(|b| b.across_seeds),
                "{}",
                d.name
            );
        }
        let got = listed("per_layer");
        assert_eq!(got.len(), PER_LAYER.len());
        for (m, d) in got.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name").as_deref(), Some(d.name));
            assert_eq!(field(m, "unit").as_deref(), Some(d.unit));
            assert_eq!(field(m, "better").as_deref(), Some(d.better.as_str()));
        }
        let got = listed("workloads");
        assert_eq!(got.len(), SPECS.len());
        for (m, s) in got.iter().zip(&SPECS) {
            assert_eq!(field(m, "name").as_deref(), Some(s.name));
            assert_eq!(field(m, "why").as_deref(), Some(s.why));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(crate::RUN_SECONDS))
        );
    }

    #[test]
    fn spans_find_their_slot_through_the_program_span() {
        let sp = |id, parent, name, round| Span {
            id,
            parent,
            name,
            round,
            start_ns: u64::from(id) * 10,
            end_ns: u64::from(id) * 10 + 4000,
        };
        let spans = vec![
            sp(0, None, "round", 0),
            sp(1, Some(0), "program", 0),
            sp(2, Some(1), "leg.engine", 0),
            sp(3, Some(2), "exec.new", 0),
            sp(4, Some(0), "program", 0),
            sp(5, Some(4), "exec.new", 0),
            sp(6, None, "round", 1),
            sp(7, Some(6), "program", 1),
            sp(8, Some(7), "exec.new", 1),
        ];
        let slots = span_slots(&spans);
        assert_eq!(slots[3], Some(0));
        assert_eq!(slots[5], Some(1));
        assert_eq!(slots[8], Some(0));
        assert_eq!(slots[0], None);
        assert_eq!(span_estimate_us(&spans, &slots, "exec.new"), Some(4.0));
        assert_eq!(span_estimate_us(&spans, &slots, "persist.load"), None);
    }
}
