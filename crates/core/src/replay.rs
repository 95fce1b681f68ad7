//! rePLay-style branch promotion and frame construction.
//!
//! rePLay promotes a branch to an *assertion* once it takes the same
//! direction 32 consecutive times (with respect to a short branch
//! history); frames are maximal runs of promoted branches and are
//! expected to execute to completion (§2 of the paper). This software
//! model keeps the essential mechanism — per-branch consecutive-outcome
//! counters with a promotion threshold, frames built from chains of
//! promoted branches — while dropping the hardware-only parts (rollback
//! buffers, deep history correlation).

use std::collections::HashMap;

use jvm_bytecode::BlockId;
use trace_cache::TraceCache;

use crate::selector::TraceSelector;

/// rePLay's published promotion threshold: 32 consecutive same-direction
/// executions.
pub const DEFAULT_PROMOTION_THRESHOLD: u32 = 32;
/// Frame length cap in blocks.
pub const DEFAULT_MAX_BLOCKS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Bias {
    last: BlockId,
    streak: u32,
    promoted: bool,
}

/// The rePLay-style selector.
#[derive(Debug)]
pub struct ReplaySelector {
    threshold: u32,
    max_blocks: usize,
    bias: HashMap<BlockId, Bias>,
    prev: Option<BlockId>,
    promotions: u64,
    demotions: u64,
}

impl ReplaySelector {
    /// Creates a selector with rePLay's default 32-streak threshold.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_PROMOTION_THRESHOLD, DEFAULT_MAX_BLOCKS)
    }

    /// Creates a selector with explicit parameters.
    pub fn with_params(threshold: u32, max_blocks: usize) -> Self {
        ReplaySelector {
            threshold: threshold.max(1),
            max_blocks: max_blocks.max(2),
            bias: HashMap::new(),
            prev: None,
            promotions: 0,
            demotions: 0,
        }
    }

    /// Branches promoted so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Promotions lost to a direction change.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Builds the frame starting at `head` by chaining promoted branches,
    /// and installs it linked at `(prev, head)`.
    fn build_frame(&mut self, entry_prev: BlockId, head: BlockId, cache: &mut TraceCache) {
        let mut blocks = vec![head];
        let mut cur = head;
        while blocks.len() < self.max_blocks {
            match self.bias.get(&cur) {
                Some(b) if b.promoted => {
                    let next = b.last;
                    // Stop when the chain closes a loop, after recording
                    // one full unrolled iteration (mirrors the paper's
                    // unroll-once handling).
                    let first_occurrence = blocks.iter().filter(|&&x| x == next).count();
                    if first_occurrence >= 2 {
                        break;
                    }
                    blocks.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        if blocks.len() >= 2 {
            cache.insert_and_link((entry_prev, head), &blocks, 1.0);
        }
    }
}

impl Default for ReplaySelector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSelector for ReplaySelector {
    fn on_block(&mut self, block: BlockId, cache: &mut TraceCache) {
        let prev = self.prev.replace(block);
        let Some(prev) = prev else { return };

        let mut newly_promoted = false;
        let entry = self.bias.entry(prev).or_insert(Bias {
            last: block,
            streak: 0,
            promoted: false,
        });
        if entry.last == block {
            entry.streak += 1;
            if !entry.promoted && entry.streak >= self.threshold {
                entry.promoted = true;
                newly_promoted = true;
                self.promotions += 1;
            }
        } else {
            if entry.promoted {
                self.demotions += 1;
                // The old frame through this branch is now wrong; unlink
                // any trace entered here.
                cache.unlink((prev, entry.last));
            }
            entry.last = block;
            entry.streak = 1;
            entry.promoted = false;
        }

        if newly_promoted {
            // A new assertion may extend frames: rebuild from this branch.
            self.build_frame(prev, block, cache);
        }
    }

    fn begin_stream(&mut self) {
        self.prev = None;
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

    /// Alternating-successor program: (head -> a -> head -> b -> head…).
    fn alternating_program() -> jvm_bytecode::Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let x = b.alloc_local();
        b.iconst(0).store(x);
        let head = b.bind_new_label();
        let exit = b.new_label();
        let odd = b.new_label();
        let cont = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(x).iconst(1).iand().if_i(CmpOp::Ne, odd);
        b.iinc(x, 1).goto(cont);
        b.bind(odd);
        b.iinc(x, 1);
        b.bind(cont);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(x).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn biased_loop_promotes_and_frames_complete() {
        let program = loop_program();
        let mut tvm = TraceVm::with_selector(&program, paper(), ReplaySelector::new());
        let report = tvm.run(&[Value::Int(10_000)]).unwrap();
        assert!(tvm.selector().promotions() > 0);
        assert!(report.traces.entered > 0);
        assert!(
            report.completion_rate() > 0.95,
            "frames must complete: {}",
            report.completion_rate()
        );
    }

    #[test]
    fn alternating_branch_is_never_promoted() {
        let program = alternating_program();
        let run = |program: &jvm_bytecode::Program| {
            TraceVm::with_selector(program, paper(), ReplaySelector::new())
                .run(&[Value::Int(10_000)])
                .unwrap()
        };
        let report = run(&program);
        // The alternating branch itself can never reach a 32-streak; only
        // the unconditional parts may be framed. Coverage is therefore
        // limited compared to the loop case.
        let loop_report = run(&loop_program());
        assert!(report.coverage_completed() <= loop_report.coverage_completed());
    }

    #[test]
    fn direction_change_demotes() {
        // The loop-head branch is "continue" 1000 times (promoted), then
        // "exit" once: that direction change must demote it.
        let program = loop_program();
        let mut tvm = TraceVm::with_selector(&program, paper(), ReplaySelector::with_params(4, 64));
        tvm.run(&[Value::Int(1_000)]).unwrap();
        assert!(tvm.selector().promotions() > 0);
        assert!(
            tvm.selector().demotions() > 0,
            "loop exit must demote the promoted head branch"
        );
    }
}
