//! # trace-exec
//!
//! The paper's stated next step (§6): *"enabling the VM to execute the
//! traces we can find … and then we will measure what further improvement
//! can be achieved by applying optimizations to the traces."*
//!
//! This crate implements that future work on top of the reproduction:
//!
//! * [`compile`](mod@compile) — checks a cached trace (a sequence of
//!   basic blocks) against the program's control flow and names the
//!   control step that leaves each block: a `goto` or fall-through inside
//!   the trace needs no instruction; every other terminator runs
//!   in-trace. (The paper leaves optimising traces as future work, §3.7;
//!   so does this crate — there is no trace optimizer, and the engine
//!   executes exactly the interpreter's instruction sequence.)
//! * [`reg`] — the lowering stage: an abstract-stack pass renames
//!   operand-stack slots and locals to **virtual registers**, folding
//!   stack traffic into three-address [`RInstr`]s, fusing
//!   compare-and-branch into single branch ops, and pre-resolving
//!   constants into a per-trace constant table. Each terminator becomes
//!   one control instruction that runs on while its successor is the
//!   trace's next block; any other successor leaves the trace one way,
//!   whether a guard failed or the trace completed: a [`FrameImage`]
//!   taken after the terminator is written back and the decoded
//!   interpreter resumes on the successor's entry marker, to dispatch it.
//! * `regexec` (private) — the register-trace executor: runs a lowered
//!   trace against the decoded interpreter's own frame arena, heap and
//!   counters, and closes a loop trace linked at its own loop branch
//!   without going back to the dispatch loop.
//! * [`engine`] — [`TracingVm`], the complete execution engine: the
//!   decoded interpreter ([`jvm_vm::Vm`]) runs all out-of-trace code,
//!   with the engine attached to its block-dispatch hook (profiler,
//!   constructor, entry check) and executing linked
//!   traces from their lowered form, eliminating the per-block dispatch
//!   and profiling points inside traces. Differential tests pin its
//!   semantics against the baseline interpreter on all six workloads.

pub mod compile;
pub mod engine;
pub mod reg;
mod regexec;

pub use compile::{compile, compile_blocks, CompileError, CompiledTrace, CondKind, Step};
pub use engine::{EngineConfig, TracingVm, WarmBootReport};
pub use reg::{
    disassemble, lower_reg, CallTarget, FrameImage, RBin, RExit, RInstr, RUn, Reg, RegStats,
    RegTrace, SwitchPool, SwitchTable, ON_TRACE,
};
