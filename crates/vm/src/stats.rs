//! Execution statistics.

/// Counters accumulated over a [`crate::Vm::run`] call.
///
/// `instructions` is the dispatch count of a plain one-instruction-at-a-time
/// interpreter (paper Figure 1); `block_dispatches` is the dispatch count of
/// the direct-threaded-inlining interpreter (Figure 2). Trace-mode dispatch
/// counts live in the trace-cache layer, which observes the same stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed (= per-instruction dispatches).
    pub instructions: u64,
    /// Basic blocks entered (= per-block dispatches).
    pub block_dispatches: u64,
    /// Calls executed (static + virtual).
    pub calls: u64,
    /// Virtual calls executed (subset of `calls`).
    pub virtual_calls: u64,
    /// Returns executed.
    pub returns: u64,
    /// Deepest call-stack depth reached.
    pub max_frame_depth: usize,
    /// Conditional/switch branches executed.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
}
