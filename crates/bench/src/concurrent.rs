//! Multi-VM throughput harness: private vs shared trace caches.
//!
//! Simulates a deployment serving many concurrent copies of the same
//! program: `M` worker threads each run a full [`TracingVm`] over a
//! registry workload, in three configurations —
//!
//! * **private** — every VM owns its cache and constructs inline (the
//!   pre-concurrency system, replicated M times);
//! * **shared-cold** — all VMs dispatch against one fresh
//!   [`SharedCache`], with construction on a background service thread
//!   fed by the bounded snapshot queue;
//! * **shared-warm** — as above, but the cache is pre-warmed by one
//!   untimed run before the timed workers start (the startup win of
//!   inheriting traces another VM already paid for).
//!
//! A fourth, single-VM leg measures **snapshot warm boot**: one private
//! VM is warmed and snapshotted ([`TracingVm::snapshot`]), then fresh
//! VMs are booted from those bytes with [`TracingVm::load_snapshot`]
//! and compared against a cold start on
//! dispatches-before-first-trace-entry and in-run construction events.
//!
//! Each measurement is the *minimum wall clock* over `repeats`
//! (throughput noise is strictly downward), and reports **aggregate**
//! instructions per second: total instructions retired by all workers
//! divided by the wall time of the slowest worker. On a host with fewer
//! cores than workers the wall time grows with M and the aggregate
//! number plateaus — the report carries `host_cpus` so the scaling curve
//! is read against the hardware actually present (see EXPERIMENTS.md).
//!
//! Every VM run's checksum is asserted against the workload's expected
//! value, so the harness doubles as a concurrency stress test: a torn
//! link or a stale artifact would corrupt a checksum long before it
//! corrupted a timing.

use std::time::Instant;

use trace_cache::QueueStats;
use trace_exec::{run_shared_constructor, shared_session, EngineConfig, SharedSession, TracingVm};
use trace_workloads::registry::{self, Scale, Workload};

/// Shared-mode observability attached to a measurement point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedPoint {
    /// Fraction of trace insertions served by hash-consing (cross-VM
    /// dedup hits), in `[0, 1]`.
    pub dedup_hit_rate: f64,
    /// Distinct traces in the cache after the run.
    pub traces: usize,
    /// Entry branches linked after the run.
    pub links: usize,
    /// Traces the background constructor actually built.
    pub built: u64,
    /// Construction-queue counters (high-water depth, drops).
    pub queue: QueueStats,
    /// Estimated bytes of the session (link table + hash-cons state + artifacts
    /// + in-flight snapshots).
    pub memory_bytes: usize,
}

/// One (mode, thread-count) measurement.
#[derive(Debug, Clone, Copy)]
pub struct ModePoint {
    /// Worker threads.
    pub threads: usize,
    /// Minimum wall clock over the repeats, seconds.
    pub wall_s: f64,
    /// Total instructions retired by all workers in the best repeat.
    pub instructions: u64,
    /// Aggregate throughput: `instructions / wall_s`.
    pub instr_per_s: f64,
    /// Trace entries summed over all workers.
    pub traces_entered: u64,
    /// Shared-cache observability (private mode: `None`).
    pub shared: Option<SharedPoint>,
}

/// One workload's scaling curves.
#[derive(Debug, Clone)]
pub struct ConcurrentRow {
    /// Workload name (registry name).
    pub name: &'static str,
    /// Private-cache points, one per thread count.
    pub private: Vec<ModePoint>,
    /// Shared-cache cold-start points.
    pub shared_cold: Vec<ModePoint>,
    /// Shared-cache warm-start points.
    pub shared_warm: Vec<ModePoint>,
}

impl ConcurrentRow {
    fn mode(&self, mode: &str) -> &[ModePoint] {
        match mode {
            "private" => &self.private,
            "shared_cold" => &self.shared_cold,
            "shared_warm" => &self.shared_warm,
            other => panic!("unknown mode {other}"),
        }
    }

    /// Aggregate-throughput scaling of `mode` at `threads` relative to
    /// one thread of the same mode (1.0 = no scaling).
    pub fn scaling(&self, mode: &str, threads: usize) -> Option<f64> {
        let pts = self.mode(mode);
        let one = pts.iter().find(|p| p.threads == 1)?;
        let at = pts.iter().find(|p| p.threads == threads)?;
        if one.instr_per_s == 0.0 {
            return None;
        }
        Some(at.instr_per_s / one.instr_per_s)
    }

    /// Warm-vs-cold startup win at `threads`: warm aggregate throughput
    /// over cold aggregate throughput.
    pub fn warm_speedup(&self, threads: usize) -> Option<f64> {
        let cold = self.shared_cold.iter().find(|p| p.threads == threads)?;
        let warm = self.shared_warm.iter().find(|p| p.threads == threads)?;
        if cold.instr_per_s == 0.0 {
            return None;
        }
        Some(warm.instr_per_s / cold.instr_per_s)
    }
}

/// One single-VM boot-mode measurement (best of `repeats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootPoint {
    /// Minimum wall clock of the timed run, seconds. Boot itself
    /// (loading the snapshot) is *not* timed — the point of the leg is
    /// what serving costs after the boot did its work.
    pub wall_s: f64,
    /// Instructions retired in the best repeat.
    pub instructions: u64,
    /// Throughput of the best repeat: `instructions / wall_s`.
    pub instr_per_s: f64,
    /// Block dispatches paid before the first trace entry (0 = the run
    /// never entered a trace) — time-to-first-trace-hit.
    pub first_entry_dispatch: u64,
    /// Traces constructed *during the timed run*. A warm start should
    /// construct (almost) nothing.
    pub traces_constructed: u64,
    /// Traces entered during the run.
    pub traces_entered: u64,
}

/// One workload's cold vs warm-boot comparison.
#[derive(Debug, Clone)]
pub struct WarmBootRow {
    /// Workload name (registry name).
    pub name: &'static str,
    /// Snapshot container size in bytes.
    pub snapshot_bytes: usize,
    /// Traces installed verbatim by the warm boot.
    pub boot_traces: usize,
    /// Trace artifacts pre-built (compiled + lowered) by the warm boot.
    pub boot_artifacts: usize,
    /// Fresh VM, no snapshot.
    pub cold: BootPoint,
    /// Fresh VM booted with [`TracingVm::load_snapshot`].
    pub warm: BootPoint,
}

impl WarmBootRow {
    /// Warm-over-cold ratio of dispatches paid before the first trace
    /// entry (&lt; 1.0 = the warm boot reached trace execution sooner).
    /// `None` when the cold run never entered a trace.
    pub fn warmup_ratio(&self) -> Option<f64> {
        if self.cold.first_entry_dispatch == 0 || self.warm.first_entry_dispatch == 0 {
            return None;
        }
        Some(self.warm.first_entry_dispatch as f64 / self.cold.first_entry_dispatch as f64)
    }
}

/// One phase-shift workload's self-healing leg, single VM: throughput
/// and what the retention rule did in the best repeat.
#[derive(Debug, Clone)]
pub struct PhaseShiftRow {
    /// Workload name (registry name).
    pub name: &'static str,
    /// Throughput, best repeat.
    pub instr_per_s: f64,
    /// Traces quarantined by the early-exit streak.
    pub demotions: u64,
    /// Traces quarantined for any reason.
    pub quarantined: u64,
    /// Links written at entries quarantined before.
    pub readmissions: u64,
}

/// Full report: one row per workload.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Workload scale measured.
    pub scale: Scale,
    /// Timed repeats per point (min wall is reported).
    pub repeats: usize,
    /// Worker-thread counts measured.
    pub threads: Vec<usize>,
    /// CPUs available on the measuring host — the ceiling on wall-clock
    /// scaling.
    pub host_cpus: usize,
    /// Per-workload rows.
    pub rows: Vec<ConcurrentRow>,
    /// Single-VM snapshot warm-boot rows (cold vs warm boot), one per
    /// workload.
    pub warm_boot: Vec<WarmBootRow>,
    /// Phase-shift self-healing rows, one per phase-shift variant.
    pub phase_shift: Vec<PhaseShiftRow>,
}

impl ConcurrentReport {
    /// Workloads whose shared-cold run at `threads` deduped at least one
    /// trace across VMs.
    pub fn dedup_observed(&self, threads: usize) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                r.shared_cold
                    .iter()
                    .find(|p| p.threads == threads)
                    .and_then(|p| p.shared)
                    .is_some_and(|s| s.dedup_hit_rate > 0.0)
            })
            .count()
    }

    /// Serialises the report as JSON (hand-rolled: the workspace has no
    /// serde and the shape is fixed).
    pub fn to_json(&self) -> String {
        fn point(p: &ModePoint) -> String {
            let mut s = format!(
                "{{\"threads\": {}, \"wall_s\": {:.6}, \"instructions\": {}, \
                 \"instr_per_s\": {:.1}, \"traces_entered\": {}",
                p.threads, p.wall_s, p.instructions, p.instr_per_s, p.traces_entered
            );
            if let Some(sh) = &p.shared {
                s.push_str(&format!(
                    ", \"dedup_hit_rate\": {:.4}, \"traces\": {}, \"links\": {}, \
                     \"built\": {}, \"queue_max_depth\": {}, \"queue_dropped\": {}, \
                     \"memory_bytes\": {}",
                    sh.dedup_hit_rate,
                    sh.traces,
                    sh.links,
                    sh.built,
                    sh.queue.max_depth,
                    sh.queue.dropped,
                    sh.memory_bytes
                ));
            }
            s.push('}');
            s
        }
        fn mode(points: &[ModePoint]) -> String {
            let inner: Vec<String> = points.iter().map(point).collect();
            format!("[{}]", inner.join(", "))
        }

        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        out.push_str(&format!(
            "  \"queue_capacity\": {},\n",
            trace_cache::QUEUE_CAPACITY
        ));
        let ts: Vec<String> = self.threads.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("  \"thread_counts\": [{}],\n", ts.join(", ")));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!("    {{\"name\": \"{}\",\n", r.name));
            out.push_str(&format!("     \"private\": {},\n", mode(&r.private)));
            out.push_str(&format!(
                "     \"shared_cold\": {},\n",
                mode(&r.shared_cold)
            ));
            out.push_str(&format!(
                "     \"shared_warm\": {}}}{}\n",
                mode(&r.shared_warm),
                {
                    if i + 1 == self.rows.len() {
                        ""
                    } else {
                        ","
                    }
                }
            ));
        }
        out.push_str("  ],\n");
        fn boot_point(p: &BootPoint) -> String {
            format!(
                "{{\"wall_s\": {:.6}, \"instructions\": {}, \"instr_per_s\": {:.1}, \
                 \"first_entry_dispatch\": {}, \"traces_constructed\": {}, \
                 \"traces_entered\": {}}}",
                p.wall_s,
                p.instructions,
                p.instr_per_s,
                p.first_entry_dispatch,
                p.traces_constructed,
                p.traces_entered
            )
        }
        out.push_str("  \"warm_boot\": [\n");
        for (i, r) in self.warm_boot.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"snapshot_bytes\": {}, \"boot_traces\": {}, \
                 \"boot_artifacts\": {},\n     \"cold\": {},\n     \
                 \"warm_boot\": {}}}{}\n",
                r.name,
                r.snapshot_bytes,
                r.boot_traces,
                r.boot_artifacts,
                boot_point(&r.cold),
                boot_point(&r.warm),
                if i + 1 == self.warm_boot.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"phase_shift\": [\n");
        for (i, r) in self.phase_shift.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"instr_per_s\": {:.1}, \"demotions\": {}, \
                 \"quarantined\": {}, \"readmissions\": {}}}{}\n",
                r.name,
                r.instr_per_s,
                r.demotions,
                r.quarantined,
                r.readmissions,
                if i + 1 == self.phase_shift.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders an aligned text table for terminals and EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let max_t = self.threads.iter().copied().max().unwrap_or(1);
        let mut out = String::new();
        if self.rows.is_empty() {
            if !self.warm_boot.is_empty() {
                out.push_str(&self.render_warm_boot());
            }
            if !self.phase_shift.is_empty() {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&self.render_phase_shift());
            }
            return out;
        }
        out.push_str(&format!(
            "Concurrent trace serving, aggregate Minstr/s (scale {:?}, min of {} runs, {} host CPUs)\n",
            self.scale, self.repeats, self.host_cpus
        ));
        out.push_str(&format!(
            "{:<10} {:>4} {:>10} {:>12} {:>12} {:>7} {:>7} {:>6} {:>8}\n",
            "workload",
            "thr",
            "private",
            "shared-cold",
            "shared-warm",
            "scale",
            "dedup%",
            "qmax",
            "dropped"
        ));
        for r in &self.rows {
            for (i, &t) in self.threads.iter().enumerate() {
                let get = |pts: &[ModePoint]| {
                    pts.iter()
                        .find(|p| p.threads == t)
                        .map_or(0.0, |p| p.instr_per_s / 1e6)
                };
                let sh = r
                    .shared_cold
                    .iter()
                    .find(|p| p.threads == t)
                    .and_then(|p| p.shared)
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{:<10} {:>4} {:>10.2} {:>12.2} {:>12.2} {:>7.2} {:>7.1} {:>6} {:>8}\n",
                    if i == 0 { r.name } else { "" },
                    t,
                    get(&r.private),
                    get(&r.shared_cold),
                    get(&r.shared_warm),
                    r.scaling("shared_cold", t).unwrap_or(0.0),
                    sh.dedup_hit_rate * 100.0,
                    sh.queue.max_depth,
                    sh.queue.dropped,
                ));
            }
            if let Some(w) = r.warm_speedup(max_t) {
                out.push_str(&format!(
                    "{:<10} warm-start speedup at {} threads: {:.2}x\n",
                    "", max_t, w
                ));
            }
        }
        if !self.warm_boot.is_empty() {
            out.push('\n');
            out.push_str(&self.render_warm_boot());
        }
        if !self.phase_shift.is_empty() {
            out.push('\n');
            out.push_str(&self.render_phase_shift());
        }
        out
    }

    /// Renders the phase-shift self-healing table: throughput plus the
    /// retention counters.
    pub fn render_phase_shift(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Phase-shift self-healing, single VM Minstr/s (scale {:?}, min of {} runs)\n",
            self.scale, self.repeats
        ));
        out.push_str(&format!(
            "{:<18} {:>9} {:>6} {:>6} {:>6}\n",
            "workload", "Minstr/s", "demot", "quar", "readm"
        ));
        for r in &self.phase_shift {
            out.push_str(&format!(
                "{:<18} {:>9.2} {:>6} {:>6} {:>6}\n",
                r.name,
                r.instr_per_s / 1e6,
                r.demotions,
                r.quarantined,
                r.readmissions,
            ));
        }
        out
    }

    /// Renders the snapshot warm-boot table: dispatches paid before the
    /// first trace entry (`…-fed`) and traces constructed during the
    /// timed run (`…-cons`) for cold start and warm boot.
    pub fn render_warm_boot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Snapshot warm boot, single VM (scale {:?}, min of {} runs; fed = dispatches \
             before first trace entry, cons = traces constructed in-run)\n",
            self.scale, self.repeats
        ));
        out.push_str(&format!(
            "{:<10} {:>7} {:>6} {:>5} {:>8} {:>8} {:>9} {:>9}\n",
            "workload",
            "snap-B",
            "traces",
            "preb",
            "cold-fed",
            "warm-fed",
            "cold-cons",
            "warm-cons"
        ));
        for r in &self.warm_boot {
            out.push_str(&format!(
                "{:<10} {:>7} {:>6} {:>5} {:>8} {:>8} {:>9} {:>9}\n",
                r.name,
                r.snapshot_bytes,
                r.boot_traces,
                r.boot_artifacts,
                r.cold.first_entry_dispatch,
                r.warm.first_entry_dispatch,
                r.cold.traces_constructed,
                r.warm.traces_constructed,
            ));
            if let Some(ratio) = r.warmup_ratio() {
                out.push_str(&format!(
                    "{:<10} warm boot reached its first trace in {:.1}% of the cold warm-up\n",
                    "",
                    ratio * 100.0
                ));
            }
        }
        out
    }
}

/// Runs `m` worker VMs (one full workload run each) and returns
/// `(wall_s, total_instructions, total_trace_entries)`. Private mode
/// when `session` is `None`.
fn run_workers(
    w: &Workload,
    config: EngineConfig,
    m: usize,
    session: Option<&SharedSession>,
) -> (f64, u64, u64) {
    std::thread::scope(|s| {
        let start = Instant::now();
        let handles: Vec<_> = (0..m)
            .map(|_| {
                let sess = session.cloned();
                s.spawn(move || {
                    let mut vm = match sess {
                        Some(sess) => TracingVm::new_shared(&w.program, config, sess),
                        None => TracingVm::new(&w.program, config),
                    };
                    let report = vm.run(&w.args).expect("workload runs");
                    assert_eq!(
                        report.checksum, w.expected_checksum,
                        "{} checksum diverged under concurrency",
                        w.name
                    );
                    (report.exec.instructions, report.traces.entered)
                })
            })
            .collect();
        let mut instrs = 0u64;
        let mut entered = 0u64;
        for h in handles {
            let (i, e) = h.join().expect("worker");
            instrs += i;
            entered += e;
        }
        (start.elapsed().as_secs_f64(), instrs, entered)
    })
}

/// Private-cache measurement: `m` isolated VMs, min wall over repeats.
fn measure_private(w: &Workload, config: EngineConfig, m: usize, repeats: usize) -> ModePoint {
    let mut best = (f64::INFINITY, 0u64, 0u64);
    for _ in 0..repeats.max(1) {
        let r = run_workers(w, config, m, None);
        if r.0 < best.0 {
            best = r;
        }
    }
    ModePoint {
        threads: m,
        wall_s: best.0,
        instructions: best.1,
        instr_per_s: best.1 as f64 / best.0.max(f64::MIN_POSITIVE),
        traces_entered: best.2,
        shared: None,
    }
}

/// Blocks until the construction queue drains (all submitted snapshots
/// consumed), bounded by ~1s so a wedged service cannot hang the bench.
fn drain_queue(session: &SharedSession) {
    for _ in 0..10_000 {
        if session.queue.stats().depth == 0 {
            return;
        }
        std::thread::yield_now();
    }
}

/// Shared-cache measurement. Each repeat builds a *fresh* session (cold
/// runs must not inherit a previous repeat's traces); `warm` additionally
/// runs one untimed VM and waits for the queue to drain before timing.
fn measure_shared(
    w: &Workload,
    config: EngineConfig,
    m: usize,
    repeats: usize,
    warm: bool,
) -> ModePoint {
    let mut best = (f64::INFINITY, 0u64, 0u64);
    let mut best_shared = SharedPoint::default();
    for _ in 0..repeats.max(1) {
        let (cache, session, rx) = shared_session();
        let health = std::sync::Arc::clone(session.queue.health());
        let (r, built) = std::thread::scope(|s| {
            let svc = s.spawn(|| run_shared_constructor(rx, &cache, &w.program, config));
            if warm {
                let mut vm = TracingVm::new_shared(&w.program, config, session.clone());
                vm.run(&w.args).expect("warm-up runs");
                drain_queue(&session);
            }
            let r = run_workers(w, config, m, Some(&session));
            let queue = session.queue.stats();
            let memory = session.memory_estimate();
            drop(session);
            let stats = svc.join().expect("constructor service");
            let hs = health.snapshot();
            assert!(
                hs.panics == 0 && !hs.degraded,
                "{}: the constructor panicked with no fault plan: {hs:?}",
                w.name
            );
            (r, (stats.constructor.traces_created, queue, memory))
        });
        if r.0 < best.0 {
            best = r;
            let cs = cache.stats();
            best_shared = SharedPoint {
                dedup_hit_rate: cs.dedup_hit_rate(),
                traces: cache.trace_count(),
                links: cache.link_count(),
                built: built.0,
                queue: built.1,
                memory_bytes: built.2,
            };
        }
    }
    ModePoint {
        threads: m,
        wall_s: best.0,
        instructions: best.1,
        instr_per_s: best.1 as f64 / best.0.max(f64::MIN_POSITIVE),
        traces_entered: best.2,
        shared: Some(best_shared),
    }
}

/// One single-VM boot measurement: per repeat, a fresh VM starts cold
/// (`snapshot` is `None`) or warm-boots from `snapshot`, and runs the
/// workload once; the fastest repeat is kept. Returns the point plus
/// that repeat's boot report (`None` for cold starts). Only the run is
/// timed — the leg measures what serving costs *after* the boot did its
/// work.
fn measure_boot(
    w: &Workload,
    config: EngineConfig,
    repeats: usize,
    snapshot: Option<&[u8]>,
) -> (BootPoint, Option<trace_exec::WarmBootReport>) {
    let mut best: Option<(BootPoint, Option<trace_exec::WarmBootReport>)> = None;
    for _ in 0..repeats.max(1) {
        let mut vm = TracingVm::new(&w.program, config);
        let boot = snapshot.map(|bytes| vm.load_snapshot(bytes).expect("own snapshot loads"));
        let start = Instant::now();
        let report = vm.run(&w.args).expect("workload runs");
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            report.checksum,
            w.expected_checksum,
            "{} checksum diverged after a {} start",
            w.name,
            if boot.is_some() { "warm-boot" } else { "cold" }
        );
        let point = BootPoint {
            wall_s: wall,
            instructions: report.exec.instructions,
            instr_per_s: report.exec.instructions as f64 / wall.max(f64::MIN_POSITIVE),
            first_entry_dispatch: report.traces.first_entry_dispatch,
            traces_constructed: report.constructor.traces_created,
            traces_entered: report.traces.entered,
        };
        if best.as_ref().is_none_or(|(b, _)| wall < b.wall_s) {
            best = Some((point, boot));
        }
    }
    best.expect("at least one repeat")
}

/// Measures the snapshot warm-boot leg for every registry workload at
/// `scale`: one private VM is warmed and snapshotted, then cold and
/// warm-boot starts are compared over `repeats`.
pub fn run_warm_boot_filtered(
    scale: Scale,
    repeats: usize,
    only: Option<&str>,
) -> Vec<WarmBootRow> {
    let config = EngineConfig::paper_default();
    let mut rows = Vec::new();
    for w in registry::all(scale) {
        if let Some(name) = only {
            if w.name != name {
                continue;
            }
        }
        let mut warming = TracingVm::new(&w.program, config);
        warming.run(&w.args).expect("warming run");
        let snapshot = warming.snapshot();
        let (cold, _) = measure_boot(&w, config, repeats, None);
        let (warm, warm_report) = measure_boot(&w, config, repeats, Some(&snapshot));
        let wb = warm_report.unwrap_or_default();
        rows.push(WarmBootRow {
            name: w.name,
            snapshot_bytes: snapshot.len(),
            boot_traces: wb.traces_installed,
            boot_artifacts: wb.artifacts_prebuilt,
            cold,
            warm,
        });
    }
    rows
}

/// Engine parameters for the phase-shift leg. The phase-shift guard is
/// 95% biased, which sits *below* the paper's 0.97 admission threshold —
/// at paper defaults the constructor would cut the trace before the
/// guard and nothing could rot. The leg therefore runs the same tuned
/// configuration as the robustness test suite (admission 0.90, short
/// start delay, 64-dispatch decay window) so the biased guard lands
/// inside traces and the retention rule has something to judge.
fn phase_shift_config() -> EngineConfig {
    EngineConfig {
        jit: trace_jit::TraceJitConfig {
            start_delay: 8,
            decay_interval: 64,
            ..trace_jit::TraceJitConfig::paper_default()
        }
        .with_threshold(0.90),
        ..EngineConfig::paper_default()
    }
}

/// Measures the phase-shift self-healing leg for every phase-shift
/// variant at `scale`: one VM per repeat, best of `repeats`, checksums
/// asserted on every run.
pub fn run_phase_shift_filtered(
    scale: Scale,
    repeats: usize,
    only: Option<&str>,
) -> Vec<PhaseShiftRow> {
    use trace_workloads::registry::{phase_shift, phase_shift_early, phase_shift_late};

    let mut rows = Vec::new();
    for w in [
        phase_shift(scale),
        phase_shift_early(scale),
        phase_shift_late(scale),
    ] {
        if let Some(name) = only {
            if w.name != name {
                continue;
            }
        }
        let mut best: Option<(f64, PhaseShiftRow)> = None;
        for _ in 0..repeats.max(1) {
            let mut vm = TracingVm::new(&w.program, phase_shift_config());
            let start = Instant::now();
            let report = vm.run(&w.args).expect("phase-shift run");
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(
                report.checksum, w.expected_checksum,
                "{} checksum diverged",
                w.name
            );
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                let hs = vm.health_stats();
                let row = PhaseShiftRow {
                    name: w.name,
                    instr_per_s: report.exec.instructions as f64 / wall.max(f64::MIN_POSITIVE),
                    demotions: hs.demotions,
                    quarantined: report.cache.traces_quarantined,
                    readmissions: hs.readmitted_watched,
                };
                best = Some((wall, row));
            }
        }
        rows.extend(best.map(|(_, row)| row));
    }
    rows
}

/// A phase-shift-only report (`concurrent --phase-shift`): just the
/// self-healing leg, no thread ladder, no warm boot.
pub fn run_phase_shift_only(scale: Scale, repeats: usize, only: Option<&str>) -> ConcurrentReport {
    ConcurrentReport {
        scale,
        repeats,
        threads: Vec::new(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows: Vec::new(),
        warm_boot: Vec::new(),
        phase_shift: run_phase_shift_filtered(scale, repeats, only),
    }
}

/// A boot-only report (`concurrent --load-snapshot`): just the snapshot
/// warm-boot leg, no thread ladder.
pub fn run_boot_only(scale: Scale, repeats: usize, only: Option<&str>) -> ConcurrentReport {
    ConcurrentReport {
        scale,
        repeats,
        threads: Vec::new(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows: Vec::new(),
        warm_boot: run_warm_boot_filtered(scale, repeats, only),
        phase_shift: Vec::new(),
    }
}

/// Thread counts measured (clipped to `max_threads`).
pub const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Measures every registry workload at `scale` across the thread ladder
/// up to `max_threads`.
pub fn run(scale: Scale, max_threads: usize, repeats: usize) -> ConcurrentReport {
    run_filtered(scale, max_threads, repeats, None)
}

/// Like [`run`], optionally restricted to a single workload name.
pub fn run_filtered(
    scale: Scale,
    max_threads: usize,
    repeats: usize,
    only: Option<&str>,
) -> ConcurrentReport {
    let config = EngineConfig::paper_default();
    let threads: Vec<usize> = THREAD_LADDER
        .iter()
        .copied()
        .filter(|&t| t <= max_threads.max(1))
        .collect();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for w in registry::all(scale) {
        if let Some(name) = only {
            if w.name != name {
                continue;
            }
        }
        let mut row = ConcurrentRow {
            name: w.name,
            private: Vec::new(),
            shared_cold: Vec::new(),
            shared_warm: Vec::new(),
        };
        for &m in &threads {
            row.private.push(measure_private(&w, config, m, repeats));
            row.shared_cold
                .push(measure_shared(&w, config, m, repeats, false));
            row.shared_warm
                .push(measure_shared(&w, config, m, repeats, true));
        }
        rows.push(row);
    }
    ConcurrentReport {
        scale,
        repeats,
        threads,
        host_cpus,
        rows,
        warm_boot: run_warm_boot_filtered(scale, repeats, only),
        phase_shift: run_phase_shift_filtered(scale, repeats, only),
    }
}

// ---------------------------------------------------------------------------
// Fault-injection mode (`concurrent --faults <seed>`)
// ---------------------------------------------------------------------------

/// Payload budget applied to the shared cache in faulted runs — small
/// enough that the busier workloads overflow it and the second-chance
/// eviction sweep runs for real.
pub fn fault_budget_bytes() -> usize {
    6 * trace_cache::trace_cost(16)
}

/// One workload's faulted measurements: the same M-VM shared deployment
/// as the throughput harness, but supervised, payload-budgeted, and run
/// under three fault profiles (none / standard / constructor-killer).
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Workload name (registry name).
    pub name: &'static str,
    /// Clean supervised+budgeted baseline, aggregate instr/s.
    pub clean_instr_per_s: f64,
    /// Standard fault plan, aggregate instr/s.
    pub faulted_instr_per_s: f64,
    /// Constructor-killer plan (permanently degraded), aggregate instr/s.
    pub degraded_instr_per_s: f64,
    /// Faults fired by the standard plan in the best faulted repeat.
    pub faults_fired: u64,
    /// Eviction / quarantine counters from the best faulted repeat.
    pub traces_evicted: u64,
    pub links_evicted: u64,
    pub traces_quarantined: u64,
    pub quarantine_rejected: u64,
    pub budget_overruns: u64,
    /// Supervisor health from the best faulted repeat.
    pub restarts: u64,
    pub panics: u64,
    /// The constructor-killer run ended permanently degraded.
    pub degraded: bool,
}

impl FaultRow {
    /// Throughput retained under the standard fault plan relative to the
    /// clean supervised baseline (1.0 = no overhead).
    pub fn faulted_retention(&self) -> f64 {
        if self.clean_instr_per_s == 0.0 {
            return 0.0;
        }
        self.faulted_instr_per_s / self.clean_instr_per_s
    }

    /// Throughput retained in permanently degraded (interpreter-only)
    /// mode relative to the clean supervised baseline.
    pub fn degraded_retention(&self) -> f64 {
        if self.clean_instr_per_s == 0.0 {
            return 0.0;
        }
        self.degraded_instr_per_s / self.clean_instr_per_s
    }
}

/// Fault-mode report: one row per workload, all at one thread count.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Workload scale measured.
    pub scale: Scale,
    /// Worker threads per measurement.
    pub threads: usize,
    /// Timed repeats per point (min wall is reported).
    pub repeats: usize,
    /// Base fault seed (per-workload seeds are streamed from it).
    pub seed: u64,
    /// Payload budget applied to every faulted session.
    pub budget_bytes: usize,
    /// Per-workload rows.
    pub rows: Vec<FaultRow>,
}

impl FaultReport {
    /// Serialises the fault report as JSON (hand-rolled, like
    /// [`ConcurrentReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"fault_seed\": {},\n", self.seed));
        out.push_str(&format!("  \"budget_bytes\": {},\n", self.budget_bytes));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"clean_instr_per_s\": {:.1}, \
                 \"faulted_instr_per_s\": {:.1}, \"degraded_instr_per_s\": {:.1}, \
                 \"faulted_retention\": {:.4}, \"degraded_retention\": {:.4}, \
                 \"faults_fired\": {}, \"traces_evicted\": {}, \"links_evicted\": {}, \
                 \"traces_quarantined\": {}, \"quarantine_rejected\": {}, \
                 \"budget_overruns\": {}, \"restarts\": {}, \"panics\": {}, \
                 \"degraded\": {}}}{}\n",
                r.name,
                r.clean_instr_per_s,
                r.faulted_instr_per_s,
                r.degraded_instr_per_s,
                r.faulted_retention(),
                r.degraded_retention(),
                r.faults_fired,
                r.traces_evicted,
                r.links_evicted,
                r.traces_quarantined,
                r.quarantine_rejected,
                r.budget_overruns,
                r.restarts,
                r.panics,
                r.degraded,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders an aligned text table for terminals and EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fault-injected trace serving, aggregate Minstr/s (scale {:?}, {} threads, \
             min of {} runs, seed {:#x}, budget {} B)\n",
            self.scale, self.threads, self.repeats, self.seed, self.budget_bytes
        ));
        out.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}\n",
            "workload",
            "clean",
            "faulted",
            "degraded",
            "fired",
            "evict",
            "quar",
            "rejct",
            "ovrn",
            "rstrt",
            "flt-ret",
            "deg-ret"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>9.2} {:>9.2} {:>9.2} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7.0}% {:>7.0}%\n",
                r.name,
                r.clean_instr_per_s / 1e6,
                r.faulted_instr_per_s / 1e6,
                r.degraded_instr_per_s / 1e6,
                r.faults_fired,
                r.traces_evicted,
                r.traces_quarantined,
                r.quarantine_rejected,
                r.budget_overruns,
                r.restarts,
                r.faulted_retention() * 100.0,
                r.degraded_retention() * 100.0,
            ));
        }
        out
    }
}

/// Counters captured from the best (fastest) faulted repeat.
struct FaultCounters {
    fired: u64,
    cache: trace_cache::CacheStats,
    health: trace_cache::ServiceHealthSnapshot,
}

/// One supervised, payload-budgeted, fault-injected shared measurement:
/// `m` worker VMs against one session whose constructor runs under the
/// supervisor with the given plan. Every worker still asserts its
/// checksum, so a fault that changed results aborts the bench.
fn measure_faulted(
    w: &Workload,
    config: EngineConfig,
    m: usize,
    repeats: usize,
    fault: trace_cache::FaultConfig,
    seed: u64,
) -> (f64, FaultCounters) {
    use std::sync::Arc;
    use trace_cache::FaultPlan;

    let mut best_wall = f64::INFINITY;
    let mut best_instr = 0u64;
    let mut best = FaultCounters {
        fired: 0,
        cache: Default::default(),
        health: Default::default(),
    };
    for _ in 0..repeats.max(1) {
        let (cache, session, rx) = shared_session();
        let plan = Arc::new(FaultPlan::new(seed, fault));
        session.set_faults(Arc::clone(&plan));
        session.set_cache_budget(Some(fault_budget_bytes()));
        let health = Arc::clone(session.queue.health());
        let r = std::thread::scope(|s| {
            let svc = s.spawn(|| run_shared_constructor(rx, &cache, &w.program, config));
            let r = run_workers(w, config, m, Some(&session));
            drop(session);
            svc.join().expect("supervisor thread must not panic");
            r
        });
        if r.0 < best_wall {
            best_wall = r.0;
            best_instr = r.1;
            best = FaultCounters {
                fired: plan.stats().total_fired(),
                cache: cache.stats(),
                health: health.snapshot(),
            };
        }
    }
    (best_instr as f64 / best_wall.max(f64::MIN_POSITIVE), best)
}

/// Measures every registry workload under the three fault profiles at a
/// single thread count. The clean profile uses the same supervised,
/// budgeted deployment (so retention numbers isolate the *faults*, not
/// the supervision machinery).
pub fn run_faults(scale: Scale, threads: usize, repeats: usize, seed: u64) -> FaultReport {
    run_faults_filtered(scale, threads, repeats, seed, None)
}

/// Like [`run_faults`], optionally restricted to a single workload name.
pub fn run_faults_filtered(
    scale: Scale,
    threads: usize,
    repeats: usize,
    seed: u64,
    only: Option<&str>,
) -> FaultReport {
    use trace_cache::FaultConfig;
    use trace_workloads::prng::seed_stream;

    let config = EngineConfig::paper_default();
    let m = threads.max(1);
    let mut rows = Vec::new();
    for (k, w) in registry::all(scale).iter().enumerate() {
        if let Some(name) = only {
            if w.name != name {
                continue;
            }
        }
        let ws = seed_stream(seed, k as u64);
        let (clean_ips, _) = measure_faulted(w, config, m, repeats, FaultConfig::none(), ws);
        let (faulted_ips, fc) = measure_faulted(w, config, m, repeats, FaultConfig::standard(), ws);
        let (degraded_ips, dc) =
            measure_faulted(w, config, m, repeats, FaultConfig::constructor_killer(), ws);
        rows.push(FaultRow {
            name: w.name,
            clean_instr_per_s: clean_ips,
            faulted_instr_per_s: faulted_ips,
            degraded_instr_per_s: degraded_ips,
            faults_fired: fc.fired,
            traces_evicted: fc.cache.traces_evicted,
            links_evicted: fc.cache.links_evicted,
            traces_quarantined: fc.cache.traces_quarantined,
            quarantine_rejected: fc.cache.quarantine_rejected,
            budget_overruns: fc.cache.budget_overruns,
            restarts: fc.health.restarts,
            panics: fc.health.panics,
            degraded: dc.health.degraded,
        });
    }
    FaultReport {
        scale,
        threads: m,
        repeats,
        seed,
        budget_bytes: fault_budget_bytes(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thread_smoke_measures_all_modes_and_checks_checksums() {
        let report = run_filtered(Scale::Test, 2, 1, Some("compress"));
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.private.len(), 2);
        assert_eq!(row.shared_cold.len(), 2);
        assert_eq!(row.shared_warm.len(), 2);
        for p in row
            .private
            .iter()
            .chain(&row.shared_cold)
            .chain(&row.shared_warm)
        {
            assert!(p.instructions > 0);
            assert!(p.instr_per_s > 0.0);
        }
        // Shared points carry observability; private points do not.
        assert!(row.private.iter().all(|p| p.shared.is_none()));
        assert!(row.shared_cold.iter().all(|p| p.shared.is_some()));
        // JSON and table render every mode.
        let json = report.to_json();
        assert!(json.contains("\"shared_cold\""));
        assert!(json.contains("\"dedup_hit_rate\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(report.render().contains("compress"));
    }

    #[test]
    fn faulted_smoke_degrades_the_killer_run_and_keeps_results() {
        // One workload, two threads, one repeat: the constructor-killer
        // profile must end permanently degraded with zero constructed
        // traces surviving, while every worker checksum still matched
        // (run_workers asserts them). The report carries the counters.
        let report = run_faults_filtered(Scale::Test, 2, 1, 0xFA17_BE4C, Some("compress"));
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.clean_instr_per_s > 0.0);
        assert!(row.faulted_instr_per_s > 0.0);
        assert!(row.degraded_instr_per_s > 0.0);
        assert!(row.degraded, "killer profile must end degraded");
        let json = report.to_json();
        assert!(json.contains("\"degraded_retention\""));
        assert!(json.contains("\"traces_quarantined\""));
        assert!(report.render().contains("compress"));
    }

    #[test]
    fn warm_boot_leg_measures_both_start_modes() {
        let report = run_boot_only(Scale::Test, 1, Some("compress"));
        assert!(report.rows.is_empty());
        assert_eq!(report.warm_boot.len(), 1);
        let r = &report.warm_boot[0];
        assert!(r.snapshot_bytes > 0);
        assert!(r.boot_traces > 0, "compress must snapshot some traces");
        assert!(r.boot_artifacts > 0, "warm boot must pre-build artifacts");
        for p in [&r.cold, &r.warm] {
            assert!(p.instructions > 0);
            assert!(p.instr_per_s > 0.0);
        }
        // The whole point of the leg: a warm boot reaches its first
        // trace entry no later than a cold start and constructs fewer
        // traces while serving.
        assert!(r.cold.first_entry_dispatch > 0, "cold run never traced");
        assert!(r.warm.first_entry_dispatch > 0);
        assert!(r.warm.first_entry_dispatch <= r.cold.first_entry_dispatch);
        assert!(r.warm.traces_constructed <= r.cold.traces_constructed);
        // JSON carries the new keys; boot-only render shows the table.
        let json = report.to_json();
        assert!(json.contains("\"warm_boot\""));
        assert!(json.contains("\"first_entry_dispatch\""));
        assert!(report.render().contains("Snapshot warm boot"));
    }

    #[test]
    fn phase_shift_leg_demotes_and_reports_retention() {
        let report = run_phase_shift_only(Scale::Test, 1, None);
        assert!(report.rows.is_empty());
        assert!(report.warm_boot.is_empty());
        assert_eq!(report.phase_shift.len(), 3);
        for r in &report.phase_shift {
            assert!(r.instr_per_s > 0.0);
            assert!(
                r.demotions >= 1 && r.quarantined >= r.demotions,
                "{}: the rotten trace was never removed",
                r.name
            );
        }
        // JSON carries the self-healing keys; the table renders.
        let json = report.to_json();
        assert!(json.contains("\"phase_shift\""));
        assert!(json.contains("\"demotions\""));
        assert!(json.contains("\"quarantined\""));
        assert!(json.contains("\"readmissions\""));
        assert!(report.render().contains("Phase-shift self-healing"));
    }

    #[test]
    fn scaling_and_warm_speedup_are_computed_against_one_thread() {
        let mk = |threads: usize, ips: f64| ModePoint {
            threads,
            wall_s: 1.0,
            instructions: 1,
            instr_per_s: ips,
            traces_entered: 0,
            shared: None,
        };
        let row = ConcurrentRow {
            name: "x",
            private: vec![mk(1, 10.0), mk(4, 30.0)],
            shared_cold: vec![mk(1, 10.0), mk(4, 25.0)],
            shared_warm: vec![mk(1, 12.0), mk(4, 40.0)],
        };
        assert_eq!(row.scaling("private", 4), Some(3.0));
        assert_eq!(row.scaling("shared_cold", 4), Some(2.5));
        assert_eq!(row.warm_speedup(4), Some(40.0 / 25.0));
    }
}
