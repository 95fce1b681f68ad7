//! Surfaced (non-panicking) failure modes of the trace cache.
//!
//! The paper's contract makes every cache failure recoverable: the
//! interpreter is always a correct fallback, so a missing, evicted or
//! quarantined trace only ever costs speed. Library paths
//! reachable from dispatch or the constructor loop therefore surface
//! these conditions as values instead of panicking; callers skip the
//! trace and keep interpreting.

use std::fmt;

use trace_bcg::Branch;

use crate::trace::TraceId;

/// A recoverable trace-cache failure. Every variant means "fall back to
/// block dispatch", never "wrong answer".
#[derive(Debug, Clone, PartialEq)]
pub enum TraceCacheError {
    /// The `(entry, path)` key is blacklisted: a trace built there
    /// faulted recently and the cooldown has not yet decayed.
    /// `remaining` is the number of further construction attempts that
    /// will still be refused.
    Quarantined {
        /// The entry branch of the refused insert.
        entry: Branch,
        /// Refusals left before the key is re-admitted.
        remaining: u32,
    },
    /// The id was never assigned by this cache.
    UnknownTrace(TraceId),
    /// The trace existed but was evicted (or quarantined) and its
    /// storage reclaimed; ids are never reused, so the caller simply
    /// drops its reference.
    Evicted(TraceId),
}

impl fmt::Display for TraceCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCacheError::Quarantined { entry, remaining } => write!(
                f,
                "entry ({}, {}) is quarantined ({remaining} refusals remaining)",
                entry.0, entry.1
            ),
            TraceCacheError::UnknownTrace(id) => write!(f, "unknown trace {id}"),
            TraceCacheError::Evicted(id) => write!(f, "trace {id} was evicted"),
        }
    }
}

impl std::error::Error for TraceCacheError {}
