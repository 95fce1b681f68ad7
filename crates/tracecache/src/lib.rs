//! # trace-cache
//!
//! The trace cache — the second half of the paper's contribution (§3.6–§4.2).
//!
//! The cache holds **traces**: sequences of basic blocks expected to execute
//! to completion with probability at least the configured threshold. It is
//! driven entirely by [`trace_bcg`] signals:
//!
//! 1. when the profiler reports that a branch's state or prediction
//!    changed, the [`constructor`] back-tracks the branch correlation graph
//!    along strongly-correlated edges to find every *trace entry point*
//!    that might be affected;
//! 2. from each entry point it follows the path of maximum likelihood
//!    until it meets a branch already on the path (a loop, which is
//!    unrolled once) or a weakly-correlated branch;
//! 3. the path is cut into traces whose *cumulative completion
//!    probability* — the product of the branch correlations along the
//!    chain (§3.7) — stays at or above the threshold, and each trace is
//!    hash-consed into the [`cache`] and linked at its entry branch.
//!
//! Execution-side, the [`runtime`] monitors the same dispatch stream the
//! profiler sees and measures what the paper's evaluation measures: trace
//! entries, completions, early exits, and the instruction-stream coverage
//! of trace-resident code.
//!
//! The cache, like the paper's, has no capacity bound. Its one policy
//! beyond hash-consing and linking ([`cache`]) is a quarantine blacklist
//! for faulting traces, whose cooldown escalates on repeats at one entry
//! (the anti-flap of the one retention rule, [`health`]). A refused
//! construction surfaces as [`TraceCacheError`] ([`error`]).

#![forbid(unsafe_code)]

pub mod cache;
pub mod constructor;
pub mod dot;
pub mod error;
pub mod health;
pub mod metrics;
pub mod runtime;
pub mod trace;

pub use cache::{trace_cost, CacheStats, TraceCache, TRACE_BYTES_OVERHEAD};
pub use constructor::{
    plan_for_signal, ConstructorConfig, ConstructorStats, LinkOp, PlanCounters, TraceConstructor,
    TracePlan, MAX_ENTRY_POINTS, MAX_PATH_NODES, MAX_TRACE_BLOCKS, MIN_TRACE_BLOCKS,
};
pub use error::TraceCacheError;
pub use health::{HealthStats, COOLDOWN, MAX_COOLDOWN_SHIFT, STREAK_LIMIT};
pub use metrics::TraceExecStats;
pub use runtime::TraceRuntime;
pub use trace::{Trace, TraceId};
