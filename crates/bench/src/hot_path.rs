//! Hot-path dispatch microbenchmark (before/after the overhaul).
//!
//! Measures nanoseconds per block dispatch for the two per-dispatch
//! code paths the overhaul rewrote, on every registry workload:
//!
//! * **profiled dispatch** — the BCG profiler observing every block:
//!   pre-overhaul [`ReferenceBcg`] (SipHash `HashMap` index, heap
//!   successor `Vec`s) vs the packed-key / open-addressed / inline-
//!   successor [`BranchCorrelationGraph`].
//! * **trace-mode dispatch** — profiler + trace monitor against a
//!   warmed cache: pre-overhaul (`ReferenceBcg` + a hash probe of the
//!   cache at every block boundary) vs the overhauled path (`observe`
//!   returning the context node, whose inline trace-link slot answers
//!   the entry check without hashing).
//! * **trace execution** — full warm [`TracingVm`] runs (register-lowered
//!   traces, out-of-trace code on the decoded loop), for scale against
//!   the two replay paths.
//!
//! Methodology: the dynamic block stream of each workload is captured
//! once by running the interpreter, then replayed straight into the
//! profiler/monitor so timing covers *only* the dispatch hot path —
//! no interpretation mixed in. Both sides replay the identical stream;
//! each number is the minimum over `repeats` timed replays (all timing
//! noise is positive). The trace constructor is excluded from the timed
//! region on both sides: construction is orders of magnitude rarer
//! than dispatch (§5.4 of the paper), and the warmed cache is frozen so
//! both paths answer the same entry checks.

use std::time::Instant;

use jvm_bytecode::{BlockId, Program};
use jvm_vm::Vm;
use trace_bcg::{BranchCorrelationGraph, ReferenceBcg, Signal};
use trace_cache::{TraceCache, TraceConstructor, TraceRuntime};
use trace_exec::{EngineConfig, RegStats, TracingVm};
use trace_jit::TraceJitConfig;
use trace_workloads::registry::{self, Scale, Workload};

/// Before/after ns-per-dispatch for one code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTiming {
    /// Pre-overhaul implementation, ns per dispatch.
    pub baseline_ns: f64,
    /// Overhauled implementation, ns per dispatch.
    pub new_ns: f64,
}

impl PathTiming {
    /// Percentage reduction of the new path relative to the baseline
    /// (positive = faster).
    pub fn improvement_pct(&self) -> f64 {
        if self.baseline_ns == 0.0 {
            return 0.0;
        }
        (1.0 - self.new_ns / self.baseline_ns) * 100.0
    }
}

/// One workload's measurements.
#[derive(Debug, Clone)]
pub struct HotPathRow {
    /// Workload name (registry name).
    pub name: &'static str,
    /// Captured dynamic block dispatches (stream length).
    pub dispatches: u64,
    /// Profiler-only dispatch.
    pub profiled: PathTiming,
    /// Profiler + trace monitor dispatch against a warmed cache.
    pub trace_mode: PathTiming,
    /// Warm trace-*executing* engine, full runs, normalised to ns per
    /// dynamic block dispatch of the workload's stream.
    pub exec_ns: f64,
    /// Lowering-shape counters from the register engine (cumulative
    /// over its compiled traces).
    pub reg: RegStats,
}

/// Full report, one row per workload.
#[derive(Debug, Clone)]
pub struct HotPathReport {
    /// Workload scale measured.
    pub scale: Scale,
    /// Timed replays per number (min is reported).
    pub repeats: usize,
    /// Per-workload rows.
    pub rows: Vec<HotPathRow>,
}

impl HotPathReport {
    /// Workloads whose profiled dispatch improved by at least `pct`.
    pub fn profiled_improved_at_least(&self, pct: f64) -> usize {
        self.rows
            .iter()
            .filter(|r| r.profiled.improvement_pct() >= pct)
            .count()
    }

    /// Workloads whose trace-mode dispatch regressed by more than the
    /// noise allowance `tolerance_pct`.
    pub fn trace_mode_regressions(&self, tolerance_pct: f64) -> usize {
        self.rows
            .iter()
            .filter(|r| r.trace_mode.improvement_pct() < -tolerance_pct)
            .count()
    }

    /// Serialises the report as JSON (hand-rolled: the workspace has no
    /// serde and the shape is fixed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"name\": \"{}\", \"dispatches\": {},\n",
                    "     \"profiled_ns_per_dispatch\": ",
                    "{{\"baseline\": {:.3}, \"new\": {:.3}, \"improvement_pct\": {:.2}}},\n",
                    "     \"trace_ns_per_dispatch\": ",
                    "{{\"baseline\": {:.3}, \"new\": {:.3}, \"improvement_pct\": {:.2}}},\n",
                    "     \"exec_ns_per_dispatch\": ",
                    "{{\"lowered-reg\": {:.3}}},\n",
                    "     \"reg_lowering\": ",
                    "{{\"before\": {}, \"after\": {}, \"regs\": {}, ",
                    "\"eliminated\": {}, \"guards_fused\": {}}}}}{}\n",
                ),
                r.name,
                r.dispatches,
                r.profiled.baseline_ns,
                r.profiled.new_ns,
                r.profiled.improvement_pct(),
                r.trace_mode.baseline_ns,
                r.trace_mode.new_ns,
                r.trace_mode.improvement_pct(),
                r.exec_ns,
                r.reg.before,
                r.reg.after,
                r.reg.regs,
                r.reg.eliminated,
                r.reg.guards_fused,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders an aligned text table for terminals and EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Hot-path dispatch, ns/dispatch (scale {:?}, min of {} runs)\n",
            self.scale, self.repeats
        ));
        out.push_str(&format!(
            "{:<10} {:>12} {:>10} {:>8} {:>8} {:>10} {:>8} {:>8} {:>9}\n",
            "workload",
            "dispatches",
            "prof-ref",
            "prof",
            "gain%",
            "trace-ref",
            "trace",
            "gain%",
            "exec-reg"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>12} {:>10.2} {:>8.2} {:>8.1} {:>10.2} {:>8.2} {:>8.1} {:>9.2}\n",
                r.name,
                r.dispatches,
                r.profiled.baseline_ns,
                r.profiled.new_ns,
                r.profiled.improvement_pct(),
                r.trace_mode.baseline_ns,
                r.trace_mode.new_ns,
                r.trace_mode.improvement_pct(),
                r.exec_ns,
            ));
        }
        out
    }
}

/// Captures the dynamic basic-block stream of one workload by running
/// the interpreter once with a recording observer.
fn capture_stream(w: &Workload) -> Vec<BlockId> {
    let mut stream = Vec::new();
    let mut vm = Vm::new(&w.program);
    vm.run(&w.args, &mut |block| {
        stream.push(block);
    })
    .expect("workload runs");
    stream
}

/// Minimum wall-clock nanoseconds per dispatch over `repeats` timed
/// calls of `replay` (which must process the whole stream).
fn min_ns_per_dispatch(dispatches: u64, repeats: usize, mut replay: impl FnMut()) -> f64 {
    // One untimed warm-up pass (page-in, branch predictors, allocator).
    replay();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        replay();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / dispatches.max(1) as f64
}

/// Profiler-only replay timings: fresh graph per pass, whole stream
/// observed. Includes node/table growth — that is part of the path.
fn profiled_timing(stream: &[BlockId], config: &TraceJitConfig, repeats: usize) -> PathTiming {
    let dispatches = stream.len() as u64;
    let baseline_ns = min_ns_per_dispatch(dispatches, repeats, || {
        let mut bcg = ReferenceBcg::new(config.bcg_config());
        for &b in stream {
            bcg.observe(b);
        }
        std::hint::black_box(bcg.len());
    });
    let new_ns = min_ns_per_dispatch(dispatches, repeats, || {
        let mut bcg = BranchCorrelationGraph::new(config.bcg_config());
        for &b in stream {
            bcg.observe(b);
        }
        std::hint::black_box(bcg.len());
    });
    PathTiming {
        baseline_ns,
        new_ns,
    }
}

/// Builds the warmed trace cache + BCG by running the full pipeline
/// (profiler, monitor, constructor) over the stream once.
fn build_warm_state(
    stream: &[BlockId],
    program: &Program,
    config: &TraceJitConfig,
) -> (BranchCorrelationGraph, TraceCache) {
    let mut bcg = BranchCorrelationGraph::new(config.bcg_config());
    let mut constructor = TraceConstructor::new(config.constructor_config());
    let mut cache = TraceCache::new();
    let mut runtime = TraceRuntime::new();
    let mut buf: Vec<Signal> = Vec::new();
    bcg.begin_stream();
    for &b in stream {
        let node = bcg.observe(b);
        runtime.on_block_at_node(b, node, &mut bcg, &cache, program);
        if bcg.has_signals() {
            bcg.drain_signals_into(&mut buf);
            constructor.handle_batch(&buf, &mut bcg, &mut cache);
        }
    }
    runtime.finish_stream();
    (bcg, cache)
}

/// Full-engine run timing with a warm private cache (one untimed run
/// compiles the traces). Unlike the replay timings this includes
/// out-of-trace interpretation — it is the end-to-end cost of the run,
/// normalised by the same dynamic dispatch count.
fn engine_timing(
    w: &Workload,
    dispatches: u64,
    config: &TraceJitConfig,
    repeats: usize,
) -> (f64, RegStats) {
    let mut jit = *config;
    jit.vm.capture_output = false;
    let mut engine = TracingVm::new(
        &w.program,
        EngineConfig {
            jit,
            ..EngineConfig::paper_default()
        },
    );
    let warm = engine.run(&w.args).expect("workload runs");
    assert_eq!(warm.checksum, w.expected_checksum, "{}", w.name);
    let ns = min_ns_per_dispatch(dispatches, repeats, || {
        let r = engine.run(&w.args).expect("workload runs");
        std::hint::black_box(r.checksum);
    });
    (ns, engine.reg_stats())
}

/// Trace-mode replay timings against the (frozen) warmed cache.
fn trace_mode_timing(
    stream: &[BlockId],
    program: &Program,
    config: &TraceJitConfig,
    repeats: usize,
) -> PathTiming {
    let dispatches = stream.len() as u64;
    let (mut bcg, cache) = build_warm_state(stream, program, config);

    // Pre-overhaul side: reference profiler + a `HashMap<Branch, _>`
    // probe (SipHash) at every block boundary, allocating signal drain —
    // exactly the old per-dispatch work.
    let links: std::collections::HashMap<trace_bcg::Branch, trace_cache::TraceId> = cache
        .iter_links()
        .map(|(branch, _)| (branch, cache.lookup_entry(branch).expect("linked")))
        .collect();
    let mut ref_bcg = ReferenceBcg::new(config.bcg_config());
    ref_bcg.begin_stream();
    for &b in stream {
        ref_bcg.observe(b); // warm the reference profiler state
    }
    let baseline_ns = min_ns_per_dispatch(dispatches, repeats, || {
        let mut rt = TraceRuntime::new();
        ref_bcg.begin_stream();
        rt.begin_stream();
        for &b in stream {
            ref_bcg.observe(b);
            rt.on_block_with(b, &cache, program, |entry| links.get(&entry).copied());
            if ref_bcg.has_signals() {
                std::hint::black_box(ref_bcg.take_signals());
            }
        }
        rt.finish_stream();
        std::hint::black_box(rt.stats().entered);
    });

    // Overhauled side: observe yields the context node; the monitor
    // answers the entry check from the node's inline trace-link slot.
    let mut buf: Vec<Signal> = Vec::new();
    let new_ns = min_ns_per_dispatch(dispatches, repeats, || {
        let mut rt = TraceRuntime::new();
        bcg.begin_stream();
        rt.begin_stream();
        for &b in stream {
            let node = bcg.observe(b);
            rt.on_block_at_node(b, node, &mut bcg, &cache, program);
            if bcg.has_signals() {
                bcg.drain_signals_into(&mut buf);
                std::hint::black_box(buf.len());
            }
        }
        rt.finish_stream();
        std::hint::black_box(rt.stats().entered);
    });

    PathTiming {
        baseline_ns,
        new_ns,
    }
}

/// Measures every registry workload at `scale`; each reported number is
/// the minimum over `repeats` timed replays.
pub fn run(scale: Scale, repeats: usize) -> HotPathReport {
    run_filtered(scale, repeats, None)
}

/// Like [`run`], optionally restricted to a single workload name.
pub fn run_filtered(scale: Scale, repeats: usize, only: Option<&str>) -> HotPathReport {
    let config = TraceJitConfig::paper_default();
    let mut rows = Vec::new();
    for w in registry::all(scale) {
        if let Some(name) = only {
            if w.name != name {
                continue;
            }
        }
        let stream = capture_stream(&w);
        let profiled = profiled_timing(&stream, &config, repeats);
        let trace_mode = trace_mode_timing(&stream, &w.program, &config, repeats);
        let (exec_ns, reg) = engine_timing(&w, stream.len() as u64, &config, repeats);
        rows.push(HotPathRow {
            name: w.name,
            dispatches: stream.len() as u64,
            profiled,
            trace_mode,
            exec_ns,
            reg,
        });
    }
    HotPathReport {
        scale,
        repeats,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_percentage_is_signed() {
        let faster = PathTiming {
            baseline_ns: 10.0,
            new_ns: 5.0,
        };
        assert!((faster.improvement_pct() - 50.0).abs() < 1e-9);
        let slower = PathTiming {
            baseline_ns: 10.0,
            new_ns: 12.0,
        };
        assert!((slower.improvement_pct() + 20.0).abs() < 1e-9);
    }

    #[test]
    fn workload_filter_restricts_rows() {
        let report = run_filtered(Scale::Test, 1, Some("compress"));
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].name, "compress");
    }

    #[test]
    fn report_runs_and_serialises_at_test_scale() {
        let report = run(Scale::Test, 1);
        assert_eq!(report.rows.len(), registry::all(Scale::Test).len());
        assert!(report.rows.iter().all(|r| r.dispatches > 0));
        let json = report.to_json();
        assert!(json.contains("\"workloads\""));
        assert!(json.contains("\"profiled_ns_per_dispatch\""));
        assert!(json.contains("\"lowered-reg\""), "reg leg must be in JSON");
        assert!(json.contains("\"reg_lowering\""));
        // Every workload appears in both renderings.
        let table = report.render();
        for r in &report.rows {
            assert!(json.contains(r.name));
            assert!(table.contains(r.name));
        }
    }
}
