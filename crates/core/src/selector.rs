//! Trace selection: what decides which traces the cache holds.
//!
//! [`crate::TraceVm`] runs one [`TraceSelector`] beside the standard
//! trace-dispatch monitor, so every policy's coverage and completion are
//! measured the same way. The paper's own policy is [`BcgSelector`]: the
//! branch correlation graph profiler whose signals drive the trace
//! constructor. The two it positions itself against (§2–§3) are
//! [`crate::NetSelector`] (Dynamo's next executing tail) and
//! [`crate::ReplaySelector`] (rePLay's branch promotion). The BCG "uses
//! less resources than rePLay but provides more assurance of the
//! regularity of the trace than Dynamo" (§3.5); `paper_tables --table
//! baselines` measures that trade-off.

use jvm_bytecode::BlockId;
use trace_bcg::{BranchCorrelationGraph, ProfilerStats, Signal};
use trace_cache::{ConstructorStats, TraceCache, TraceConstructor};

use crate::config::TraceJitConfig;

/// A trace-selection policy driven by the dynamic block stream.
pub trait TraceSelector {
    /// Observes one dispatched block; may install or unlink traces. The
    /// monitor has already checked this dispatch against `cache`, so a
    /// trace installed now is first entered by a later dispatch.
    fn on_block(&mut self, block: BlockId, cache: &mut TraceCache);

    /// Forgets the previous block: a new run begins.
    fn begin_stream(&mut self);

    /// The profiler's and the constructor's counters. A selector without
    /// them reports zeros.
    fn stats(&self) -> (ProfilerStats, ConstructorStats) {
        Default::default()
    }
}

/// The paper's selector: the BCG profiler, the trace constructor its
/// signals drive, and the buffer the signals are drained into.
#[derive(Debug)]
pub struct BcgSelector {
    bcg: BranchCorrelationGraph,
    constructor: TraceConstructor,
    /// Reusable signal drain buffer: the dispatch loop never allocates.
    signal_buf: Vec<Signal>,
}

impl BcgSelector {
    /// The profiler and constructor `config` implies.
    pub fn new(config: &TraceJitConfig) -> Self {
        BcgSelector {
            bcg: BranchCorrelationGraph::new(config.bcg_config()),
            constructor: TraceConstructor::new(config.constructor_config()),
            signal_buf: Vec::new(),
        }
    }

    /// The profiler graph.
    pub fn bcg(&self) -> &BranchCorrelationGraph {
        &self.bcg
    }
}

impl TraceSelector for BcgSelector {
    #[inline]
    fn on_block(&mut self, block: BlockId, cache: &mut TraceCache) {
        // The profiler records the branch, decaying and re-checking
        // states on its periodic schedule; pending signals go to the
        // constructor, which rebuilds exactly the affected region.
        self.bcg.observe(block);
        if self.bcg.has_signals() {
            self.bcg.drain_signals_into(&mut self.signal_buf);
            self.constructor
                .handle_batch(&self.signal_buf, &mut self.bcg, cache);
        }
    }

    fn begin_stream(&mut self) {
        self.bcg.begin_stream();
    }

    fn stats(&self) -> (ProfilerStats, ConstructorStats) {
        (self.bcg.stats(), self.constructor.stats())
    }
}
