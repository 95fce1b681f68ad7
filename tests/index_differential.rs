//! Differential tests of the hot path (packed-key branch index, inline
//! successors, the inline-cache fast path, inline trace-link slots).
//!
//! The profiler's oracle is the conformance model: [`Lockstep`] drives
//! the production [`BranchCorrelationGraph`], `TraceConstructor` and
//! `TraceCache` and the from-the-paper `ModelBcg`, `ModelConstructor`
//! and `ModelCache` with the *same* dynamic block streams — the six
//! workload analogues at test scale — and requires identical signal
//! sequences, node structure, links and [`ProfilerStats`] after every
//! dispatch and in the final sweep. The monitor tests hold the per-node
//! inline trace-link slots to direct cache lookups. Any divergence
//! introduced by the optimised path fails here, not in a benchmark.
//!
//! [`ProfilerStats`]: tracecache_repro::bcg::ProfilerStats

use tracecache_repro::bcg::{BcgConfig, BranchCorrelationGraph};
use tracecache_repro::bytecode::{BlockId, FuncId};
use tracecache_repro::conformance::Lockstep;
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::tracecache::{ConstructorConfig, TraceCache, TraceConstructor, TraceRuntime};
use tracecache_repro::vm::Vm;
use tracecache_repro::workloads::registry::{self, Scale};

/// The dynamic block stream of one workload, captured from a plain
/// interpreter run.
fn stream_of(w: &registry::Workload) -> Vec<BlockId> {
    let mut stream = Vec::new();
    let mut vm = Vm::new(&w.program);
    vm.run(&w.args, &mut |b| {
        stream.push(b);
    })
    .expect("workload runs");
    stream
}

/// Configurations worth sweeping: the paper default plus a short-delay /
/// low-threshold variant that exercises decay and signal churn harder.
fn configs() -> Vec<BcgConfig> {
    vec![
        BcgConfig::paper_default(),
        BcgConfig::paper_default()
            .with_start_delay(4)
            .with_threshold(0.90),
    ]
}

/// Production and model agree on every dispatch of every workload, and
/// in the final sweep on the whole graph and every profiler counter.
#[test]
fn profilers_agree_on_all_workload_streams() {
    for w in registry::all(Scale::Test) {
        for config in configs() {
            let ctor = ConstructorConfig::default().with_threshold(config.threshold);
            let mut ls = Lockstep::new(config, ctor);
            ls.run_program(&w.program, &w.args)
                .unwrap_or_else(|d| panic!("{} (delay {}): {d}", w.name, config.start_delay));
            let stats = ls.bcg.stats();
            assert!(
                stats.cache_hits > stats.cache_misses,
                "{}: the inline cache should predict most dispatches: {stats:?}",
                w.name
            );
        }
    }
}

/// The branch index finds every realised node at its own index, and
/// nothing for branches that were never observed.
#[test]
fn node_index_lookups_agree_with_reference() {
    let w = registry::compress(Scale::Test);
    let mut bcg = BranchCorrelationGraph::new(BcgConfig::paper_default());
    for b in stream_of(&w) {
        bcg.observe(b);
    }
    assert!(!bcg.is_empty(), "compress realises a graph");
    for (idx, node) in bcg.iter() {
        assert_eq!(bcg.node_index(node.branch()), Some(idx));
    }
    for i in 0..64u32 {
        let bogus = (BlockId::new(FuncId(7), i), BlockId::new(FuncId(9), i + 1));
        assert_eq!(bcg.node_index(bogus), None);
    }
}

/// Runs the full profile→construct→monitor pipeline twice over the same
/// stream — once answering entry checks with direct cache lookups, once
/// through the per-node inline trace-link slots — and requires identical
/// trace caches and monitor statistics.
#[test]
fn node_slot_monitor_matches_direct_monitor_on_workloads() {
    for w in registry::all(Scale::Test) {
        let stream = stream_of(&w);
        let config = TraceJitConfig::paper_default().with_start_delay(16);

        let run = |use_slots: bool| {
            let mut bcg = BranchCorrelationGraph::new(config.bcg_config());
            let mut ctor = TraceConstructor::new(config.constructor_config());
            let mut cache = TraceCache::new();
            let mut rt = TraceRuntime::new();
            let mut buf = Vec::new();
            bcg.begin_stream();
            for &b in &stream {
                let node = bcg.observe(b);
                if use_slots {
                    rt.on_block_at_node(b, node, &mut bcg, &cache, &w.program);
                } else {
                    rt.on_block(b, &cache, &w.program);
                }
                if bcg.has_signals() {
                    bcg.drain_signals_into(&mut buf);
                    ctor.handle_batch(&buf, &mut bcg, &mut cache);
                }
            }
            rt.finish_stream();
            (rt.stats(), cache.stats(), cache.version())
        };

        let direct = run(false);
        let slotted = run(true);
        assert_eq!(direct, slotted, "{}: monitor paths diverged", w.name);
    }
}

/// After a full pipeline run, every node's cached trace-link answer
/// agrees with a direct lookup; after unlinking everything (a version
/// bump), every cached answer revalidates to `None`.
#[test]
fn trace_links_stay_coherent_through_cache_mutation() {
    let w = registry::javac(Scale::Test);
    let stream = stream_of(&w);
    let config = TraceJitConfig::paper_default().with_start_delay(16);

    let mut bcg = BranchCorrelationGraph::new(config.bcg_config());
    let mut ctor = TraceConstructor::new(config.constructor_config());
    let mut cache = TraceCache::new();
    let mut rt = TraceRuntime::new();
    let mut buf = Vec::new();
    for &b in &stream {
        let node = bcg.observe(b);
        rt.on_block_at_node(b, node, &mut bcg, &cache, &w.program);
        if bcg.has_signals() {
            bcg.drain_signals_into(&mut buf);
            ctor.handle_batch(&buf, &mut bcg, &mut cache);
        }
    }
    rt.finish_stream();
    assert!(cache.trace_count() > 0, "javac must produce traces");

    // Coherence: cached answers equal direct answers on every node.
    let indices: Vec<_> = bcg.iter().map(|(i, _)| i).collect();
    for &idx in &indices {
        let branch = bcg.node(idx).branch();
        let direct = cache.lookup_entry(branch);
        let cached = cache.lookup_entry_cached(&mut bcg, idx);
        assert_eq!(cached, direct, "node {idx} link incoherent");
    }

    // Unlink every entry: the version bumps, and previously-positive
    // cached answers must revalidate to None.
    let entries: Vec<_> = cache.iter_links().map(|(b, _)| b).collect();
    assert!(!entries.is_empty());
    for entry in entries {
        cache.unlink(entry);
    }
    for &idx in &indices {
        assert_eq!(
            cache.lookup_entry_cached(&mut bcg, idx),
            None,
            "stale positive link survived an unlink at node {idx}"
        );
    }
}
