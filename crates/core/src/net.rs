//! Dynamo-style NET ("next executing tail") trace selection.
//!
//! Dynamo places counters on targets of backward-taken branches ("and
//! other potential hot points"); when a counter crosses the hot threshold
//! the instructions executed *immediately afterwards* are recorded as a
//! trace, ending at the next backward-taken branch or a length cap (§2 of
//! the paper). The intuition is speculative: "after a counter indicates
//! that a point has become hot the instructions executed immediately
//! afterwards often define a frequently executed sequence" — nothing
//! verifies the tail, which is exactly the weakness the BCG addresses.

use std::collections::HashMap;

use jvm_bytecode::BlockId;
use trace_bcg::Branch;
use trace_cache::TraceCache;

use crate::selector::TraceSelector;

/// Dynamo's published hot threshold.
pub const DEFAULT_HOT_THRESHOLD: u32 = 50;
/// Maximum recorded trace length in blocks.
pub const DEFAULT_MAX_BLOCKS: usize = 64;

#[derive(Debug)]
enum Mode {
    Profiling,
    Recording { entry: Branch, blocks: Vec<BlockId> },
}

/// The NET selector.
#[derive(Debug)]
pub struct NetSelector {
    hot_threshold: u32,
    max_blocks: usize,
    counters: HashMap<BlockId, u32>,
    prev: Option<BlockId>,
    mode: Mode,
    /// Traces recorded (for stats/tests).
    recorded: u64,
}

impl NetSelector {
    /// Creates a selector with Dynamo's default parameters.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_HOT_THRESHOLD, DEFAULT_MAX_BLOCKS)
    }

    /// Creates a selector with explicit threshold and length cap.
    pub fn with_params(hot_threshold: u32, max_blocks: usize) -> Self {
        NetSelector {
            hot_threshold: hot_threshold.max(1),
            max_blocks: max_blocks.max(2),
            counters: HashMap::new(),
            prev: None,
            mode: Mode::Profiling,
            recorded: 0,
        }
    }

    /// Number of traces recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether the transition `prev → block` is a backward-taken branch
    /// (same function, non-increasing block index) — NET's trace-head and
    /// trace-end signal.
    fn is_backward(prev: BlockId, block: BlockId) -> bool {
        prev.func == block.func && block.block <= prev.block
    }
}

impl Default for NetSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSelector for NetSelector {
    fn on_block(&mut self, block: BlockId, cache: &mut TraceCache) {
        let prev = self.prev.replace(block);
        let Some(prev) = prev else { return };

        match &mut self.mode {
            Mode::Recording { entry, blocks } => {
                let end = blocks.len() >= self.max_blocks
                    || (blocks.len() > 1 && Self::is_backward(prev, block));
                if end {
                    if blocks.len() >= 2 {
                        // NET does not estimate completion probability: it
                        // speculates that the recorded tail runs to its end
                        // (the cache admits estimates in (0, 1] only).
                        cache.insert_and_link(*entry, blocks, 1.0);
                        self.recorded += 1;
                    }
                    self.mode = Mode::Profiling;
                    // The block that ended recording may itself be a hot
                    // head next time; fall through to profiling below.
                } else {
                    blocks.push(block);
                    return;
                }
            }
            Mode::Profiling => {}
        }

        // Profiling: count backward-branch targets.
        if Self::is_backward(prev, block) {
            let c = self.counters.entry(block).or_insert(0);
            *c += 1;
            if *c >= self.hot_threshold {
                *c = 0;
                self.mode = Mode::Recording {
                    entry: (prev, block),
                    blocks: vec![block],
                };
            }
        }
    }

    fn begin_stream(&mut self) {
        // A tail recorded across two runs would not be a path either ran.
        self.prev = None;
        self.mode = Mode::Profiling;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceJitConfig, TraceVm};
    use jvm_bytecode::{CmpOp, ProgramBuilder};
    use jvm_vm::Value;

    fn paper() -> TraceJitConfig {
        TraceJitConfig::paper_default()
    }

    fn loop_program() -> jvm_bytecode::Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(acc).load(0).iadd().store(acc);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn hot_loop_gets_recorded_and_covered() {
        let program = loop_program();
        let mut tvm = TraceVm::with_selector(&program, paper(), NetSelector::new());
        let report = tvm.run(&[Value::Int(10_000)]).unwrap();
        assert!(tvm.selector().recorded() > 0, "hot loop must be recorded");
        assert!(report.traces.entered > 0);
        assert!(
            report.coverage_completed() > 0.5,
            "coverage {}",
            report.coverage_completed()
        );
    }

    #[test]
    fn cold_code_is_not_recorded() {
        let program = loop_program();
        let mut tvm = TraceVm::with_selector(&program, paper(), NetSelector::new());
        // Only 10 iterations: under the hot threshold of 50.
        let report = tvm.run(&[Value::Int(10)]).unwrap();
        assert_eq!(tvm.selector().recorded(), 0);
        assert_eq!(report.traces.entered, 0);
    }

    #[test]
    fn backward_detection() {
        use jvm_bytecode::FuncId;
        let a = BlockId::new(FuncId(0), 3);
        let b = BlockId::new(FuncId(0), 1);
        assert!(NetSelector::is_backward(a, b));
        assert!(!NetSelector::is_backward(b, a));
        let c = BlockId::new(FuncId(1), 0);
        assert!(!NetSelector::is_backward(a, c));
    }
}
