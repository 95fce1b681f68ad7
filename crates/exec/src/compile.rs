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
//! | source terminator | step |
//! |---|---|
//! | conditional branch | [`Step::GuardCond`] — side-exits if the outcome differs from the recorded direction |
//! | `goto` | [`Step::Jump`] — no guard needed |
//! | implicit fall-through | [`Step::FallThrough`] — block boundary; the block's last instruction is straight-line |
//! | `tableswitch` | [`Step::GuardSwitch`] — side-exits unless the selector lands on the recorded target |
//! | `invokestatic` | [`Step::EnterStatic`] — pushes the callee frame (its entry block is the next trace block by construction) |
//! | `invokevirtual` | [`Step::GuardVirtual`] — side-exits unless the receiver resolves to the recorded callee |
//! | `return` | [`Step::GuardReturn`] — side-exits unless the caller's continuation is the recorded next block |
//! | last block's terminator | [`Step::Finish`] — a conditional branch or `goto` runs in-trace and may close the loop; any other terminator is handed back to the interpreter loop |
//!
//! Every step but a fall-through sits on its block's last instruction,
//! which is where a failed guard resumes the interpreter with the
//! operand stack untouched.

use std::error::Error;
use std::fmt;

use jvm_bytecode::{BlockId, CmpOp, FuncId, Instr, Program};
use trace_cache::{Trace, TraceId};

/// The shape of a guarded conditional branch.
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
    /// Guarded conditional branch: continue in-trace if the outcome
    /// equals `expected_taken`, otherwise side-exit at the branch.
    GuardCond {
        /// Branch shape.
        kind: CondKind,
        /// Direction the trace recorded.
        expected_taken: bool,
    },
    /// Unconditional jump (a `goto` inside the trace).
    Jump,
    /// Block boundary with fall-through (no control transfer).
    FallThrough,
    /// Guarded `tableswitch`: side-exit unless the selector maps to
    /// `expected_pc`.
    GuardSwitch {
        /// The pc the trace expects the switch to select.
        expected_pc: u32,
    },
    /// Static call whose callee body continues the trace.
    EnterStatic {
        /// The callee.
        callee: FuncId,
    },
    /// Virtual call with a receiver guard: side-exit unless dispatch
    /// resolves to `expected`.
    GuardVirtual {
        /// Vtable slot.
        slot: u16,
        /// Argument count including the receiver.
        argc: u16,
        /// Callee the trace recorded.
        expected: FuncId,
    },
    /// Return with a continuation guard: side-exit unless the caller
    /// resumes in `expected`.
    GuardReturn {
        /// The continuation block the trace recorded.
        expected: BlockId,
        /// Whether a value is returned.
        has_value: bool,
    },
    /// The final block's terminator; afterwards the trace has completed.
    /// The lowering runs a conditional branch or `goto` in-trace
    /// ([`crate::reg::RInstr::FinalBranch`]) and hands any other
    /// terminator back to the interpreter loop
    /// ([`crate::reg::RInstr::Finish`]).
    Finish,
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
    /// [`Step::Finish`].
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
            steps.push(Step::Finish);
            break;
        };
        let pc = block.end - 1;
        let terminator = &func.code()[pc as usize];
        if let Some((kind, target)) = CondKind::of(terminator) {
            let taken = BlockId::new(blk.func, func.block_index_of(target));
            let fall = BlockId::new(blk.func, func.block_index_of(pc + 1));
            // A degenerate branch to the very next instruction keeps both
            // outcomes on the trace. Guarding on "taken" is still
            // *correct* (a false outcome side-exits and the interpreter
            // resumes at the branch), merely conservative for this rare
            // shape.
            let expected_taken = if next == taken {
                true
            } else if next == fall {
                false
            } else {
                return err(format!("branch at {}:{pc} cannot reach {next}", blk.func));
            };
            steps.push(Step::GuardCond {
                kind,
                expected_taken,
            });
            continue;
        }
        steps.push(match terminator {
            Instr::Goto(t) => {
                let target_block = BlockId::new(blk.func, func.block_index_of(*t));
                if next != target_block {
                    return err(format!(
                        "goto at {}:{pc} targets {target_block}, trace expects {next}",
                        blk.func
                    ));
                }
                Step::Jump
            }
            Instr::TableSwitch {
                targets, default, ..
            } => {
                if next.func != blk.func {
                    return err("switch successor must stay in the function");
                }
                let reachable = targets
                    .iter()
                    .chain(std::iter::once(default))
                    .any(|&t| func.block_index_of(t) == next.block);
                if !reachable {
                    return err(format!("switch at {}:{pc} cannot reach {next}", blk.func));
                }
                Step::GuardSwitch {
                    expected_pc: func.block(next.block).start,
                }
            }
            Instr::InvokeStatic(callee) => {
                if next != BlockId::new(*callee, 0) {
                    return err(format!(
                        "static call at {}:{pc} enters {callee}, trace expects {next}",
                        blk.func
                    ));
                }
                Step::EnterStatic { callee: *callee }
            }
            Instr::InvokeVirtual { slot, argc } => {
                if next.block != 0 {
                    return err(format!(
                        "virtual call at {}:{pc} must enter a function entry, trace expects {next}",
                        blk.func
                    ));
                }
                Step::GuardVirtual {
                    slot: *slot,
                    argc: *argc,
                    expected: next.func,
                }
            }
            ret @ (Instr::Return | Instr::ReturnVoid) => Step::GuardReturn {
                expected: next,
                has_value: matches!(ret, Instr::Return),
            },
            _ => {
                // Implicit fall-through into a leader.
                let fall = BlockId::new(blk.func, func.block_index_of(pc + 1));
                if next != fall {
                    return err(format!(
                        "fall-through at {}:{pc} reaches {fall}, trace expects {next}",
                        blk.func
                    ));
                }
                Step::FallThrough
            }
        });
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
            vec![
                Step::GuardCond {
                    kind: CondKind::IZero(CmpOp::Le),
                    expected_taken: false,
                },
                Step::Jump,
                Step::Finish,
            ]
        );
        assert_eq!(ct.src_instrs, 2 + 6 + 2);
    }

    #[test]
    fn taken_branch_direction_is_recorded() {
        let p = loop_program();
        // Trace: b1 -> b3 (exit taken).
        let (cache, id) = make_trace(&p, vec![blk(&p, 1), blk(&p, 3)]);
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert!(matches!(
            ct.steps[0],
            Step::GuardCond {
                expected_taken: true,
                ..
            }
        ));
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
    fn call_and_return_compile_to_guards() {
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
            vec![
                Step::EnterStatic { callee: leaf },
                Step::GuardReturn {
                    expected: BlockId::new(f, 1),
                    has_value: true,
                },
                Step::Finish,
            ]
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
