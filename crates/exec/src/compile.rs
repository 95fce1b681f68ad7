//! Trace flattening: from a block sequence to guarded straight-line code.
//!
//! A compiled trace mirrors the exact instruction sequence the program
//! executes along the trace's path. Control instructions are rewritten:
//!
//! | source terminator | compiled form |
//! |---|---|
//! | conditional branch | [`TInstr::GuardCond`] — side-exits if the outcome differs from the recorded direction |
//! | `goto` | [`TInstr::Jump`] — keeps `pc` in sync, no guard needed |
//! | implicit fall-through | [`TInstr::FallThrough`] — block-boundary marker |
//! | `tableswitch` | [`TInstr::GuardSwitch`] — side-exits unless the selector lands on the recorded target |
//! | `invokestatic` | [`TInstr::EnterStatic`] — pushes the callee frame (its entry block is the next trace block by construction) |
//! | `invokevirtual` | [`TInstr::GuardVirtual`] — side-exits unless the receiver resolves to the recorded callee |
//! | `return` | [`TInstr::GuardReturn`] — side-exits unless the caller's continuation is the recorded next block |
//! | last block's terminator | [`TInstr::Finish`] — executed with full interpreter semantics; the trace then completes |
//!
//! Every control `TInstr` carries its source location and re-anchors the
//! frame's `pc` before evaluating, so side exits resume the interpreter
//! at exactly the guarded instruction with the operand stack untouched —
//! this is also what makes the [`crate::opt`] peephole passes safe.

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
    /// Number of operands the branch pops.
    pub fn arity(self) -> usize {
        match self {
            CondKind::ICmp(_) | CondKind::FCmp(_) => 2,
            CondKind::IZero(_) | CondKind::Null | CondKind::NonNull => 1,
        }
    }
}

/// One instruction of a compiled trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TInstr {
    /// A plain (branch-free) instruction, executed exactly as the
    /// interpreter would.
    Op(Instr),
    /// Guarded conditional branch: continue in-trace if the outcome
    /// equals `expected_taken`, otherwise side-exit at (`func`, `pc`).
    GuardCond {
        /// Branch shape.
        kind: CondKind,
        /// Direction the trace recorded.
        expected_taken: bool,
        /// Target pc when taken (applied on a taken pass).
        target: u32,
        /// Owning function.
        func: FuncId,
        /// Source pc (side-exit resume point).
        pc: u32,
    },
    /// Unconditional jump (a `goto` inside the trace): sets `pc`.
    Jump {
        /// Jump target pc.
        target: u32,
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
    },
    /// Block boundary with fall-through (no control transfer).
    FallThrough,
    /// Guarded `tableswitch`: side-exit unless the selector maps to
    /// `expected_pc`.
    GuardSwitch {
        /// Lowest selector mapped to `targets[0]`.
        low: i64,
        /// Jump table.
        targets: Box<[u32]>,
        /// Out-of-range target.
        default: u32,
        /// The pc the trace expects the switch to select.
        expected_pc: u32,
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
    },
    /// Static call whose callee body continues the trace.
    EnterStatic {
        /// The callee.
        callee: FuncId,
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
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
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
    },
    /// Return with a continuation guard: side-exit unless the caller
    /// resumes in `expected`.
    GuardReturn {
        /// The continuation block the trace recorded.
        expected: BlockId,
        /// Whether a value is returned.
        has_value: bool,
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
    },
    /// The final block's terminator, executed with full interpreter
    /// semantics; afterwards the trace has completed.
    Finish {
        /// The terminator instruction.
        instr: Instr,
        /// Owning function.
        func: FuncId,
        /// Source pc.
        pc: u32,
    },
}

impl TInstr {
    /// Whether this compiled instruction ends a source basic block (used
    /// for per-block accounting during trace execution).
    pub fn ends_block(&self) -> bool {
        !matches!(self, TInstr::Op(_))
    }
}

/// A trace flattened to guarded straight-line code.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    /// The cache id this was compiled from.
    pub trace_id: TraceId,
    /// The guarded instruction sequence.
    pub code: Vec<TInstr>,
    /// The source block sequence (owned copy so the execution engine
    /// needs no cache access on the hot path).
    pub src_blocks: Vec<BlockId>,
    /// Source instruction count across all blocks (pre-optimisation
    /// baseline for the optimizer's statistics).
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
/// callers holding only the blocks (e.g. the off-thread artifact builder,
/// which lowers against a shared cache that hands its build hook a block
/// slice rather than a [`Trace`]).
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
    let mut code: Vec<TInstr> = Vec::new();
    let mut src_instrs = 0usize;

    for (i, &blk) in blocks.iter().enumerate() {
        let func = program.function(blk.func);
        let block = func.block(blk.block);
        src_instrs += block.len() as usize;
        let last_block = i + 1 == blocks.len();
        let next = blocks.get(i + 1).copied();

        for pc in block.start..block.end {
            let ins = &func.code()[pc as usize];
            let is_term = pc == block.end - 1;
            if !is_term {
                code.push(TInstr::Op(ins.clone()));
                continue;
            }
            if last_block {
                code.push(TInstr::Finish {
                    instr: ins.clone(),
                    func: blk.func,
                    pc,
                });
                break;
            }
            let next = next.expect("non-last block has a successor");
            let cond = |kind: CondKind, target: u32| -> Result<TInstr, CompileError> {
                let taken = BlockId::new(blk.func, func.block_index_of(target));
                let fall = BlockId::new(blk.func, func.block_index_of(pc + 1));
                if taken == fall {
                    // Degenerate branch to the very next instruction: both
                    // outcomes stay on the trace. Guarding on "taken" is
                    // still *correct* (a false outcome side-exits and the
                    // interpreter resumes at the branch), merely
                    // conservative for this rare shape.
                    if next != taken {
                        return err(format!("branch at {}:{pc} cannot reach {next}", blk.func));
                    }
                    return Ok(TInstr::GuardCond {
                        kind,
                        expected_taken: true,
                        target,
                        func: blk.func,
                        pc,
                    });
                }
                let expected_taken = if next == taken {
                    true
                } else if next == fall {
                    false
                } else {
                    return err(format!("branch at {}:{pc} cannot reach {next}", blk.func));
                };
                Ok(TInstr::GuardCond {
                    kind,
                    expected_taken,
                    target,
                    func: blk.func,
                    pc,
                })
            };
            match ins {
                Instr::IfICmp(op, t) => code.push(cond(CondKind::ICmp(*op), *t)?),
                Instr::IfI(op, t) => code.push(cond(CondKind::IZero(*op), *t)?),
                Instr::IfFCmp(op, t) => code.push(cond(CondKind::FCmp(*op), *t)?),
                Instr::IfNull(t) => code.push(cond(CondKind::Null, *t)?),
                Instr::IfNonNull(t) => code.push(cond(CondKind::NonNull, *t)?),
                Instr::Goto(t) => {
                    let target_block = BlockId::new(blk.func, func.block_index_of(*t));
                    if next != target_block {
                        return err(format!(
                            "goto at {}:{pc} targets {target_block}, trace expects {next}",
                            blk.func
                        ));
                    }
                    code.push(TInstr::Jump {
                        target: *t,
                        func: blk.func,
                        pc,
                    });
                }
                Instr::TableSwitch {
                    low,
                    targets,
                    default,
                } => {
                    if next.func != blk.func {
                        return err("switch successor must stay in the function");
                    }
                    let expected_pc = func.block(next.block).start;
                    let reachable = targets
                        .iter()
                        .chain(std::iter::once(default))
                        .any(|&t| func.block_index_of(t) == next.block);
                    if !reachable {
                        return err(format!("switch at {}:{pc} cannot reach {next}", blk.func));
                    }
                    code.push(TInstr::GuardSwitch {
                        low: *low,
                        targets: targets.clone(),
                        default: *default,
                        expected_pc,
                        func: blk.func,
                        pc,
                    });
                }
                Instr::InvokeStatic(callee) => {
                    if next != BlockId::new(*callee, 0) {
                        return err(format!(
                            "static call at {}:{pc} enters {callee}, trace expects {next}",
                            blk.func
                        ));
                    }
                    code.push(TInstr::EnterStatic {
                        callee: *callee,
                        func: blk.func,
                        pc,
                    });
                }
                Instr::InvokeVirtual { slot, argc } => {
                    if next.block != 0 {
                        return err(format!("virtual call at {}:{pc} must enter a function entry, trace expects {next}", blk.func));
                    }
                    code.push(TInstr::GuardVirtual {
                        slot: *slot,
                        argc: *argc,
                        expected: next.func,
                        func: blk.func,
                        pc,
                    });
                }
                Instr::Return | Instr::ReturnVoid => {
                    code.push(TInstr::GuardReturn {
                        expected: next,
                        has_value: matches!(ins, Instr::Return),
                        func: blk.func,
                        pc,
                    });
                }
                other => {
                    // Implicit fall-through into a leader.
                    let fall = BlockId::new(blk.func, func.block_index_of(pc + 1));
                    if next != fall {
                        return err(format!(
                            "fall-through at {}:{pc} reaches {fall}, trace expects {next}",
                            blk.func
                        ));
                    }
                    code.push(TInstr::Op(other.clone()));
                    code.push(TInstr::FallThrough);
                }
            }
        }
    }

    Ok(CompiledTrace {
        trace_id,
        code,
        src_blocks: blocks.to_vec(),
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
        let (id, _) = cache.insert_and_link((blk(p, 0), blocks[0]), blocks, 0.99);
        (cache, id)
    }

    #[test]
    fn loop_body_compiles_with_guard_and_jump() {
        let p = loop_program();
        // Trace: b1 (cond, not taken) -> b2 (goto) -> b1.
        let (cache, id) = make_trace(&p, vec![blk(&p, 1), blk(&p, 2), blk(&p, 1)]);
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert_eq!(ct.blocks(), 3);
        // b1: load + guard(not taken); b2: 5 ops + jump; b1 again: load + finish.
        let guards = ct
            .code
            .iter()
            .filter(|t| matches!(t, TInstr::GuardCond { .. }))
            .count();
        assert_eq!(guards, 1);
        assert!(matches!(
            ct.code
                .iter()
                .find(|t| matches!(t, TInstr::GuardCond { .. })),
            Some(TInstr::GuardCond {
                expected_taken: false,
                ..
            })
        ));
        assert_eq!(
            ct.code
                .iter()
                .filter(|t| matches!(t, TInstr::Jump { .. }))
                .count(),
            1
        );
        assert!(matches!(ct.code.last(), Some(TInstr::Finish { .. })));
        assert_eq!(ct.src_instrs, 2 + 6 + 2);
    }

    #[test]
    fn taken_branch_direction_is_recorded() {
        let p = loop_program();
        // Trace: b1 -> b3 (exit taken).
        let (cache, id) = make_trace(&p, vec![blk(&p, 1), blk(&p, 3)]);
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert!(ct.code.iter().any(|t| matches!(
            t,
            TInstr::GuardCond {
                expected_taken: true,
                ..
            }
        )));
    }

    #[test]
    fn inconsistent_successor_is_rejected() {
        let p = loop_program();
        // b2 ends with goto b1; pretending it flows to b3 must fail.
        let (cache, id) = make_trace(&p, vec![blk(&p, 2), blk(&p, 3)]);
        assert!(compile(&p, cache.trace(id)).is_err());
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
            vec![
                BlockId::new(f, 0),
                BlockId::new(leaf, 0),
                BlockId::new(f, 1),
            ],
            0.99,
        );
        let ct = compile(&p, cache.trace(id)).unwrap();
        assert!(ct
            .code
            .iter()
            .any(|t| matches!(t, TInstr::EnterStatic { .. })));
        assert!(ct
            .code
            .iter()
            .any(|t| matches!(t, TInstr::GuardReturn { .. })));
        assert!(matches!(ct.code.last(), Some(TInstr::Finish { .. })));
    }

    #[test]
    fn cond_kind_arity() {
        assert_eq!(CondKind::ICmp(CmpOp::Eq).arity(), 2);
        assert_eq!(CondKind::FCmp(CmpOp::Lt).arity(), 2);
        assert_eq!(CondKind::IZero(CmpOp::Gt).arity(), 1);
        assert_eq!(CondKind::Null.arity(), 1);
    }

    #[test]
    fn ends_block_classification() {
        assert!(!TInstr::Op(Instr::Nop).ends_block());
        assert!(TInstr::FallThrough.ends_block());
        assert!(TInstr::Jump {
            target: 0,
            func: FuncId(0),
            pc: 0
        }
        .ends_block());
    }
}
