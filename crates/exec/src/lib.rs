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
//!   control step that leaves each block: conditional branches whose
//!   direction the trace predicts become **guards** that side-exit back
//!   to the interpreter when the prediction fails; virtual calls get
//!   receiver guards; returns get continuation guards; everything else
//!   runs unchanged. (The paper leaves optimising traces as future work,
//!   §3.7; so does this crate — there is no trace optimizer, and the
//!   engine executes exactly the interpreter's instruction sequence.)
//! * [`reg`] — the lowering stage: an abstract-stack pass renames
//!   operand-stack slots and locals to **virtual registers**, folding
//!   stack traffic into three-address [`RInstr`]s, fusing
//!   compare-and-branch into single guard ops, and pre-resolving
//!   constants into a per-trace constant table. Every guard carries a
//!   [`FrameImage`] mapping live registers back to the stack/locals
//!   frame, so a side exit reconstructs the interpreter frame exactly
//!   at the guarded instruction — pre-resolved to its decoded pc and
//!   block, so leaving a trace lands the decoded interpreter directly
//!   on the right instruction.
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
    RegTrace, SwitchPool, SwitchTable,
};
