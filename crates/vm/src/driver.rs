//! The trace-driver hook: how an engine that *executes* traces plugs into
//! the decoded loop.
//!
//! In the paper the trace cache lives inside the direct-threaded
//! interpreter — a trace is one more thing the same dispatch loop
//! dispatches (§4). [`BlockDriver`] is that seam. Where a
//! [`DispatchObserver`] only watches block dispatches, a driver may answer
//! a dispatch with a linked trace; the loop then hands the machine state
//! over, the driver runs the trace against it, and the loop resumes from
//! whatever frame state the trace left behind.
//!
//! The hook is statically dispatched: [`crate::Vm::run`] instantiates the
//! loop with an observer adapter whose trace type is uninhabited, so the
//! observer instantiations carry no trace-entry code at all.
//!
//! # Contract
//!
//! * [`BlockDriver::on_block`] fires once per `ENTER_BLOCK` marker, after
//!   the dispatch is counted and before the marker is stepped over.
//! * When it returns a trace, the loop flushes its cached `pc` (already
//!   past the marker) and `sp` into the arena's top frame and calls
//!   [`BlockDriver::run_trace`]. From then until `run_trace` returns the
//!   driver owns every [`Machine`] field, including the frame stack: it
//!   may push and pop frames, write locals and operand slots, allocate
//!   and collect.
//! * On `Ok(())` the arena's top frame must name the function to resume
//!   in, with `pc` at the decoded instruction to execute next and `sp` at
//!   its operand-stack top; the loop reloads all of its cached frame
//!   state from there. In particular a trace never *finishes* a program:
//!   a final terminator it does not run itself (the outermost return) is
//!   handed back by leaving `pc` on it.
//! * On `Err` the run ends with that error, exactly as for a trap raised
//!   by the loop itself.

use std::convert::Infallible;

use jvm_bytecode::BlockId;

use crate::arena::FrameArena;
use crate::decode::DecodedProgram;
use crate::error::VmError;
use crate::heap::Heap;
use crate::interp::VmConfig;
use crate::observer::DispatchObserver;
use crate::stats::ExecStats;
use crate::value::OutputItem;

/// The run state of a [`crate::Vm`], lent to a [`BlockDriver`] for the
/// duration of one trace.
#[derive(Debug)]
pub struct Machine<'a> {
    /// The decoded streams the loop executes (read-only during a run).
    pub decoded: &'a DecodedProgram,
    /// Resource limits and the output switch.
    pub config: &'a VmConfig,
    /// The object heap.
    pub heap: &'a mut Heap,
    /// Every live frame's locals and operand stack. The top frame's
    /// `pc`/`sp` are flushed on entry to [`BlockDriver::run_trace`].
    pub arena: &'a mut FrameArena,
    /// Execution counters; `instructions` is also the fuel gauge.
    pub stats: &'a mut ExecStats,
    /// Running checksum of the `checksum` intrinsic.
    pub checksum: &'a mut u64,
    /// Captured print output.
    pub output: &'a mut Vec<OutputItem>,
}

/// Drives the decoded loop's block dispatches (see the module docs for
/// the full contract).
pub trait BlockDriver {
    /// A trace linked at a block, ready to run.
    type Trace;

    /// Called when the loop dispatches (enters) `block`. Returns the
    /// trace to run in place of the block, if one is linked.
    fn on_block(&mut self, block: BlockId) -> Option<Self::Trace>;

    /// Runs `trace` against the machine state.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] the trace raises; it ends the run.
    fn run_trace(&mut self, trace: Self::Trace, m: &mut Machine<'_>) -> Result<(), VmError>;
}

impl<D: BlockDriver + ?Sized> BlockDriver for &mut D {
    type Trace = D::Trace;

    #[inline(always)]
    fn on_block(&mut self, block: BlockId) -> Option<D::Trace> {
        (**self).on_block(block)
    }

    #[inline(always)]
    fn run_trace(&mut self, trace: D::Trace, m: &mut Machine<'_>) -> Result<(), VmError> {
        (**self).run_trace(trace, m)
    }
}

/// Adapts a [`DispatchObserver`] to the driver seam: it sees every block
/// and never links a trace. Holds the observer reference itself, so the
/// loop reaches the observer exactly as it would without the adapter.
#[derive(Debug)]
pub(crate) struct Observing<'a, O>(pub(crate) &'a mut O);

impl<O: DispatchObserver> BlockDriver for Observing<'_, O> {
    type Trace = Infallible;

    #[inline(always)]
    fn on_block(&mut self, block: BlockId) -> Option<Infallible> {
        self.0.on_block(block);
        None
    }

    #[inline(always)]
    fn run_trace(&mut self, trace: Infallible, _m: &mut Machine<'_>) -> Result<(), VmError> {
        match trace {}
    }
}
