//! The trace-dispatch execution monitor.
//!
//! The paper's experimental framework "added our trace cache dispatch
//! approach to SableVM and allowed us to examine the behaviour of the
//! trace cache" (§5): the interpreter still executes blocks, while the
//! monitor tracks which blocks *would have been* covered by trace
//! dispatches, how many traces are entered, and whether each entered
//! trace runs to completion. [`TraceRuntime`] is that monitor: it consumes
//! the same dispatch stream the profiler sees and compares it against the
//! cache's linked traces.

use jvm_bytecode::{BlockId, Program};

use crate::cache::TraceCache;
use crate::metrics::TraceExecStats;
use crate::trace::TraceId;

#[derive(Debug, Clone, Copy)]
struct ActiveTrace {
    id: TraceId,
    /// Position of the *next* expected block.
    pos: usize,
    /// Blocks matched so far.
    blocks: u64,
    /// Instructions covered so far.
    instrs: u64,
}

/// Monitors the dynamic block stream against the trace cache.
///
/// ```
/// use jvm_bytecode::{BlockId, ProgramBuilder};
/// use trace_cache::{TraceCache, TraceRuntime};
///
/// // A two-block program and a trace covering both blocks.
/// let mut pb = ProgramBuilder::new();
/// let f = pb.declare_function("main", 0, false);
/// {
///     let fb = pb.function_mut(f);
///     let l = fb.new_label();
///     fb.goto(l);
///     fb.bind(l);
///     fb.ret_void();
/// }
/// let program = pb.build(f)?;
/// let b = |i| BlockId::new(f, i);
/// let mut cache = TraceCache::new();
/// cache.insert_and_link((b(0), b(0)), &[b(0), b(1)], 1.0);
///
/// let mut rt = TraceRuntime::new();
/// for blk in [b(0), b(0), b(1)] {
///     rt.on_block(blk, &cache, &program);
/// }
/// rt.finish_stream();
/// assert_eq!(rt.stats().entered, 1);
/// assert_eq!(rt.stats().completed, 1);
/// # Ok::<(), jvm_bytecode::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceRuntime {
    prev: Option<BlockId>,
    active: Option<ActiveTrace>,
    stats: TraceExecStats,
}

impl TraceRuntime {
    /// Creates an idle monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated metrics.
    pub fn stats(&self) -> TraceExecStats {
        self.stats
    }

    /// Resets the stream context (between runs) but keeps the metrics.
    /// An in-flight trace is abandoned as a partial execution.
    pub fn begin_stream(&mut self) {
        if let Some(active) = self.active.take() {
            self.abandon(active);
        }
        self.prev = None;
    }

    /// Finishes the stream: an in-flight trace is abandoned as partial.
    /// Call once after the program exits so counters balance.
    pub fn finish_stream(&mut self) {
        self.begin_stream();
    }

    fn abandon(&mut self, active: ActiveTrace) {
        self.stats.exited_early += 1;
        self.stats.blocks_in_partial += active.blocks;
        self.stats.instrs_in_partial += active.instrs;
    }

    /// Observes one dispatched block. `program` supplies per-block
    /// instruction counts; `cache` supplies the entry links.
    pub fn on_block(&mut self, block: BlockId, cache: &TraceCache, program: &Program) {
        let block_len = u64::from(program.block_len(block));
        let prev = self.prev.replace(block);

        if let Some(mut active) = self.active.take() {
            let trace = cache.trace(active.id);
            if trace.blocks()[active.pos] == block {
                active.pos += 1;
                active.blocks += 1;
                active.instrs += block_len;
                if active.pos == trace.len() {
                    // Trace ran to completion.
                    self.stats.completed += 1;
                    self.stats.blocks_in_completed += active.blocks;
                    self.stats.instrs_in_completed += active.instrs;
                } else {
                    self.active = Some(active);
                }
                return;
            }
            // Early exit: the program diverged from the trace. The block
            // we are looking at is *outside* the trace and handled below
            // (it may even enter another trace).
            self.abandon(active);
        }

        // Not inside a trace: does taking (prev, block) enter one?
        if let Some(prev) = prev {
            if let Some(id) = cache.lookup_entry((prev, block)) {
                let trace = cache.trace(id);
                debug_assert_eq!(trace.blocks()[0], block, "entry targets first block");
                self.stats.entered += 1;
                let active = ActiveTrace {
                    id,
                    pos: 1,
                    blocks: 1,
                    instrs: block_len,
                };
                if trace.len() == 1 {
                    self.stats.completed += 1;
                    self.stats.blocks_in_completed += active.blocks;
                    self.stats.instrs_in_completed += active.instrs;
                } else {
                    self.active = Some(active);
                }
                return;
            }
        }
        self.stats.blocks_outside += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{CmpOp, ProgramBuilder};

    /// A program whose exact block shapes we control; only block lengths
    /// matter to the runtime, so a simple multi-block function suffices.
    fn program_with_blocks() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, false);
        let b = pb.function_mut(f);
        // b0: load, if -> b2 ; b1: nop,nop, goto end ; b2: nop ; b3: ret
        let else_l = b.new_label();
        let end = b.new_label();
        b.load(0).if_i(CmpOp::Eq, else_l);
        b.nop().nop().goto(end);
        b.bind(else_l);
        b.nop();
        b.bind(end);
        b.ret_void();
        pb.build(f).expect("builds")
    }

    fn blk(program: &Program, b: u32) -> BlockId {
        let f = program.entry();
        assert!((b as usize) < program.function(f).block_count());
        BlockId::new(f, b)
    }

    fn cache_with_trace(program: &Program, entry_from: u32, blocks: &[u32]) -> TraceCache {
        let mut cache = TraceCache::new();
        let seq: Vec<BlockId> = blocks.iter().map(|&b| blk(program, b)).collect();
        cache.insert_and_link((blk(program, entry_from), seq[0]), &seq, 0.99);
        cache
    }

    #[test]
    fn completed_trace_counts_blocks_and_instrs() {
        let p = program_with_blocks();
        let cache = cache_with_trace(&p, 0, &[1, 3]);
        let mut rt = TraceRuntime::new();
        // Stream: b0 (outside), b1 (enters trace), b3 (completes).
        rt.on_block(blk(&p, 0), &cache, &p);
        rt.on_block(blk(&p, 1), &cache, &p);
        rt.on_block(blk(&p, 3), &cache, &p);
        rt.finish_stream();
        let s = rt.stats();
        assert_eq!(s.entered, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.exited_early, 0);
        assert_eq!(s.blocks_in_completed, 2);
        assert_eq!(s.blocks_outside, 1);
        let expected_instrs =
            u64::from(p.block_len(blk(&p, 1))) + u64::from(p.block_len(blk(&p, 3)));
        assert_eq!(s.instrs_in_completed, expected_instrs);
        assert_eq!(s.completion_rate(), 1.0);
        assert_eq!(s.avg_completed_length(), 2.0);
    }

    #[test]
    fn divergence_counts_partial_execution() {
        let p = program_with_blocks();
        let cache = cache_with_trace(&p, 0, &[1, 3]);
        let mut rt = TraceRuntime::new();
        // Stream: b0, b1 (enter), b2 (diverges), b3.
        rt.on_block(blk(&p, 0), &cache, &p);
        rt.on_block(blk(&p, 1), &cache, &p);
        rt.on_block(blk(&p, 2), &cache, &p);
        rt.on_block(blk(&p, 3), &cache, &p);
        rt.finish_stream();
        let s = rt.stats();
        assert_eq!(s.entered, 1);
        assert_eq!(s.completed, 0);
        assert_eq!(s.exited_early, 1);
        assert_eq!(s.blocks_in_partial, 1);
        // b2 and b3 run outside, b0 too.
        assert_eq!(s.blocks_outside, 3);
        assert_eq!(s.completion_rate(), 0.0);
    }

    #[test]
    fn divergent_block_can_enter_another_trace() {
        let p = program_with_blocks();
        let mut cache = cache_with_trace(&p, 0, &[1, 3]);
        // Second trace entered by (1, 2).
        cache.insert_and_link((blk(&p, 1), blk(&p, 2)), &[blk(&p, 2), blk(&p, 3)], 0.99);
        let mut rt = TraceRuntime::new();
        // b0, b1 (enter t0), b2 (diverges from t0, enters t1), b3 (completes t1).
        for b in [0, 1, 2, 3] {
            rt.on_block(blk(&p, b), &cache, &p);
        }
        rt.finish_stream();
        let s = rt.stats();
        assert_eq!(s.entered, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.exited_early, 1);
    }

    #[test]
    fn trace_reentry_counts_every_iteration() {
        let p = program_with_blocks();
        // Loop-shaped trace: entered by (3, 1), covering [1, 3].
        let mut cache = TraceCache::new();
        cache.insert_and_link((blk(&p, 3), blk(&p, 1)), &[blk(&p, 1), blk(&p, 3)], 0.99);
        let mut rt = TraceRuntime::new();
        rt.on_block(blk(&p, 3), &cache, &p);
        for _ in 0..5 {
            rt.on_block(blk(&p, 1), &cache, &p);
            rt.on_block(blk(&p, 3), &cache, &p);
        }
        rt.finish_stream();
        let s = rt.stats();
        assert_eq!(s.entered, 5);
        assert_eq!(s.completed, 5);
        assert_eq!(s.blocks_outside, 1);
        assert_eq!(s.trace_dispatches(), 6);
    }

    #[test]
    fn no_cache_means_everything_outside() {
        let p = program_with_blocks();
        let cache = TraceCache::new();
        let mut rt = TraceRuntime::new();
        for b in [0, 1, 3] {
            rt.on_block(blk(&p, b), &cache, &p);
        }
        rt.finish_stream();
        let s = rt.stats();
        assert_eq!(s.entered, 0);
        assert_eq!(s.blocks_outside, 3);
        assert_eq!(s.trace_dispatches(), 3);
    }

    #[test]
    fn begin_stream_abandons_in_flight_trace() {
        let p = program_with_blocks();
        let cache = cache_with_trace(&p, 0, &[1, 3]);
        let mut rt = TraceRuntime::new();
        rt.on_block(blk(&p, 0), &cache, &p);
        rt.on_block(blk(&p, 1), &cache, &p); // mid-trace
        rt.begin_stream();
        let s = rt.stats();
        assert_eq!(s.exited_early, 1);
        assert_eq!(s.blocks_in_partial, 1);
    }
}
