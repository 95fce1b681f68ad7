//! Trace validation: from a block sequence to a checked chain with one
//! control step per block.
//!
//! A trace executes the exact instruction sequence the program executes
//! along its path, so its straight-line instructions need no copy — the
//! lowering ([`crate::reg`]) reads them from the [`Program`]. What this
//! pass contributes is the *control* knowledge: for every block of the
//! chain, how its terminator continues into the next block, checked
//! against the program's control flow (restored snapshots reach this
//! pass, so it verifies rather than trusts):
//!
//! | source terminator | next block must be | step |
//! |---|---|---|
//! | conditional branch | its taken or fall-through successor | [`Step::Terminator`] |
//! | `goto` | its target | [`Step::Jump`] — no instruction |
//! | implicit fall-through | the block at the next pc | [`Step::FallThrough`] — no instruction; the block's last instruction is straight-line |
//! | `tableswitch` | one of its targets | [`Step::Terminator`] |
//! | `invokestatic` | the callee's entry block | [`Step::Terminator`] |
//! | `invokevirtual` | some function's entry block | [`Step::Terminator`] |
//! | `return` | any block (the caller resumes there) | [`Step::Terminator`] |
//! | last block's terminator | — | [`Step::Terminator`] |
//!
//! A [`Step::Terminator`] runs in-trace as one instruction, whatever its
//! shape: the trace runs on when the terminator reaches the trace's next
//! block, and leaves on any other successor (see [`crate::reg`]).

use std::error::Error;
use std::fmt;

use jvm_bytecode::{BlockId, CmpOp, Instr, Program};
use trace_cache::{Trace, TraceId};

/// The shape of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// Two-int comparison (`if_icmp`).
    ICmp(CmpOp),
    /// Int-vs-zero comparison (`if`).
    IZero(CmpOp),
    /// Two-float comparison (`if_fcmp`).
    FCmp(CmpOp),
    /// `if_null`.
    Null,
    /// `if_nonnull`.
    NonNull,
}

impl CondKind {
    /// The shape and taken-target pc of a conditional branch; `None` for
    /// any other instruction.
    pub(crate) fn of(ins: &Instr) -> Option<(CondKind, u32)> {
        Some(match *ins {
            Instr::IfICmp(op, t) => (CondKind::ICmp(op), t),
            Instr::IfI(op, t) => (CondKind::IZero(op), t),
            Instr::IfFCmp(op, t) => (CondKind::FCmp(op), t),
            Instr::IfNull(t) => (CondKind::Null, t),
            Instr::IfNonNull(t) => (CondKind::NonNull, t),
            _ => return None,
        })
    }

    /// Number of operands the branch pops.
    pub fn arity(self) -> usize {
        match self {
            CondKind::ICmp(_) | CondKind::FCmp(_) => 2,
            CondKind::IZero(_) | CondKind::Null | CondKind::NonNull => 1,
        }
    }
}

/// How one block of a compiled trace continues into the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A `goto` into the next block: no instruction, one instruction's
    /// fuel.
    Jump,
    /// A fall-through into the next block: no instruction at all.
    FallThrough,
    /// The block's terminator — a branch, switch, call or return, or
    /// whatever ends the last block — run in-trace as one instruction
    /// ([`crate::reg::RInstr::Branch`] and its siblings).
    Terminator,
}

/// A trace checked against its program: the block chain plus, for every
/// block, the control step that leaves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// The cache id this was compiled from.
    pub trace_id: TraceId,
    /// The source block sequence (owned copy so the execution engine
    /// needs no cache access on the hot path).
    pub src_blocks: Vec<BlockId>,
    /// `steps[i]` leaves `src_blocks[i]`; the last one is
    /// [`Step::Terminator`].
    pub steps: Vec<Step>,
    /// Source instruction count across all blocks.
    pub src_instrs: usize,
}

impl CompiledTrace {
    /// Number of source basic blocks.
    pub fn blocks(&self) -> usize {
        self.src_blocks.len()
    }
}

/// Error compiling a trace whose block sequence is inconsistent with the
/// program's control flow (cannot arise from traces built over observed
/// dispatch streams, but the compiler verifies rather than trusts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// What was inconsistent.
    pub reason: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace is inconsistent with program flow: {}",
            self.reason
        )
    }
}

impl Error for CompileError {}

fn err<T>(reason: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        reason: reason.into(),
    })
}

/// Compiles a cached trace against its program.
///
/// # Errors
///
/// Returns [`CompileError`] if consecutive trace blocks are not connected
/// by the program's control flow.
pub fn compile(program: &Program, trace: &Trace) -> Result<CompiledTrace, CompileError> {
    compile_blocks(program, trace.id(), trace.blocks())
}

/// Compiles a raw block sequence — the same pass as [`compile`], for
/// callers holding only the blocks rather than a [`Trace`].
///
/// # Errors
///
/// Returns [`CompileError`] if consecutive blocks are not connected by
/// the program's control flow.
pub fn compile_blocks(
    program: &Program,
    trace_id: TraceId,
    blocks: &[BlockId],
) -> Result<CompiledTrace, CompileError> {
    let mut steps: Vec<Step> = Vec::with_capacity(blocks.len());
    let mut src_instrs = 0usize;

    for (i, &blk) in blocks.iter().enumerate() {
        let func = program.function(blk.func);
        let block = func.block(blk.block);
        src_instrs += block.len() as usize;
        let Some(&next) = blocks.get(i + 1) else {
            steps.push(Step::Terminator);
            break;
        };
        let pc = block.end - 1;
        let block_at = |pc: u32| BlockId::new(blk.func, func.block_index_of(pc));
        let (step, reachable) = match func.code()[pc as usize] {
            Instr::Goto(t) => (Step::Jump, next == block_at(t)),
            Instr::TableSwitch {
                ref targets,
                default,
                ..
            } => (
                Step::Terminator,
                targets
                    .iter()
                    .chain(std::iter::once(&default))
                    .any(|&t| next == block_at(t)),
            ),
            Instr::InvokeStatic(callee) => (Step::Terminator, next == BlockId::new(callee, 0)),
            Instr::InvokeVirtual { .. } => (Step::Terminator, next.block == 0),
            Instr::Return | Instr::ReturnVoid => (Step::Terminator, true),
            ref term => match CondKind::of(term) {
                Some((_, t)) => (
                    Step::Terminator,
                    next == block_at(t) || next == block_at(pc + 1),
                ),
                // Implicit fall-through into a leader.
                None => (Step::FallThrough, next == block_at(pc + 1)),
            },
        };
        if !reachable {
            return err(format!(
                "the terminator at {}:{pc} cannot reach {next}",
                blk.func
            ));
        }
        steps.push(step);
    }

    Ok(CompiledTrace {
        trace_id,
        src_blocks: blocks.to_vec(),
        steps,
        src_instrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::ProgramBuilder;
    use trace_cache::TraceCache;

    /// Loop program whose hot path we can trace by hand.
    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit); // b1: cond
        b.load(acc).load(0).iadd().store(acc); // b2 …
        b.iinc(0, -1).goto(head); // … goto
        b.bind(exit);
        b.load(acc).ret(); // b3
        pb.build(f).unwrap()
    }

    fn blk(p: &Program, b: u32) -> BlockId {
        BlockId::new(p.entry(), b)
    }

    fn make_trace(p: &Program, blocks: Vec<BlockId>) -> (TraceCache, TraceId) {
        let mut cache = TraceCache::new();
        let entry = (blocks[0], blocks[0]); // entry branch unused by compile
        let _ = entry;
        let (id, _) = cache.insert_and_link((blk(p, 0), blocks[0]), &blocks, 0.99);
        (cache, id)
    }

    #[test]
    fn loop_body_compiles_with_guard_and_jump() {
        let p = loop_program();
        // Trace: b1 (cond, not taken) -> b2 (goto) -> b1.
        let (cache, id) = make_trace(&p, vec![blk(&p, 1), blk(&p, 2), blk(&p, 1)]);
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert_eq!(ct.blocks(), 3);
        assert_eq!(
            ct.steps,
            vec![Step::Terminator, Step::Jump, Step::Terminator]
        );
        assert_eq!(ct.src_instrs, 2 + 6 + 2);
    }

    #[test]
    fn the_recorded_direction_stays_on_the_trace() {
        use crate::reg::{lower_reg, RInstr, ON_TRACE};
        let p = loop_program();
        let decoded = jvm_vm::DecodedProgram::decode(&p);
        // b1 -> b3 (exit taken) keeps the taken outcome on the trace; b1
        // -> b2 the fall-through.
        for (next, on) in [(3, 1), (2, 0)] {
            let (cache, id) = make_trace(&p, vec![blk(&p, 1), blk(&p, next)]);
            let ct = compile(&p, cache.trace(id)).unwrap();
            let rt = lower_reg(&p, &decoded, &ct).unwrap();
            let Some(RInstr::Branch { exits, .. }) = rt
                .code
                .iter()
                .find(|r| matches!(r, RInstr::Branch { exits, .. } if exits.contains(&ON_TRACE)))
            else {
                panic!("no guarding branch");
            };
            assert_eq!(exits[on], ON_TRACE, "b1 -> b{next}");
            assert_ne!(exits[1 - on], ON_TRACE, "b1 -> b{next}");
        }
    }

    #[test]
    fn inconsistent_successor_is_rejected() {
        let p = loop_program();
        // b2 ends with goto b1; pretending it flows to b3 must fail.
        let (cache, id) = make_trace(&p, vec![blk(&p, 2), blk(&p, 3)]);
        assert!(compile(&p, cache.trace(id)).is_err());
    }

    #[test]
    fn every_terminator_shape_rejects_a_successor_it_cannot_reach() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare_function("leaf", 0, true);
        {
            let b = pb.function_mut(leaf);
            let tail = b.new_label();
            b.iconst(5).goto(tail);
            b.bind(tail);
            b.ret();
        }
        let m = pb.declare_function("C.m", 1, true);
        pb.function_mut(m).iconst(3).ret();
        let c = pb.declare_class("C", None, 0);
        let slot = pb.add_method(c, m);
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let (arm, default, exit) = (b.new_label(), b.new_label(), b.new_label());
            b.load(0).if_i(CmpOp::Le, exit); // b0: cond
            b.load(0).table_switch(0, &[arm], default); // b1: switch
            b.bind(arm);
            b.invoke_static(leaf); // b2: static call
            b.pop().new_obj(c).invoke_virtual(slot, 1); // b3: virtual call
            b.pop().iconst(0).pop(); // b4: falls through
            b.bind(default);
            b.goto(exit); // b5: goto
            b.bind(exit);
            b.iconst(1).ret(); // b6
        }
        let p = pb.build(f).unwrap();
        let main = |b| BlockId::new(f, b);
        let entry = |func| BlockId::new(func, 0);
        // (block, a successor its terminator reaches, ones it cannot)
        let cases = [
            (main(0), main(1), vec![main(2), entry(leaf)]),
            (main(0), main(6), vec![main(5)]),
            (main(1), main(2), vec![main(6), entry(leaf)]),
            (main(1), main(5), vec![main(3)]),
            (
                main(2),
                entry(leaf),
                vec![BlockId::new(leaf, 1), entry(m), main(3)],
            ),
            (main(3), entry(m), vec![BlockId::new(leaf, 1), main(4)]),
            (main(4), main(5), vec![main(6), main(4)]),
            (main(5), main(6), vec![main(0), entry(leaf)]),
        ];
        for (from, reachable, unreachable) in cases {
            let id = TraceId::from_raw(0);
            assert!(
                compile_blocks(&p, id, &[from, reachable]).is_ok(),
                "{from} -> {reachable}"
            );
            for to in unreachable {
                assert!(
                    compile_blocks(&p, id, &[from, to]).is_err(),
                    "{from} -> {to} must be rejected"
                );
            }
        }
    }

    #[test]
    fn call_and_return_compile_to_terminators() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare_function("leaf", 0, true);
        pb.function_mut(leaf).iconst(5).ret();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).invoke_static(leaf).ret();
        let p = pb.build(f).unwrap();
        let mut cache = TraceCache::new();
        let (id, _) = cache.insert_and_link(
            (BlockId::new(f, 0), BlockId::new(f, 0)),
            &[
                BlockId::new(f, 0),
                BlockId::new(leaf, 0),
                BlockId::new(f, 1),
            ],
            0.99,
        );
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert_eq!(
            ct.steps,
            vec![Step::Terminator, Step::Terminator, Step::Terminator]
        );
    }

    #[test]
    fn cond_kind_arity() {
        assert_eq!(CondKind::ICmp(CmpOp::Eq).arity(), 2);
        assert_eq!(CondKind::FCmp(CmpOp::Lt).arity(), 2);
        assert_eq!(CondKind::IZero(CmpOp::Gt).arity(), 1);
        assert_eq!(CondKind::Null.arity(), 1);
    }
}
