//! Surfaced (non-panicking) failure modes of the trace cache.
//!
//! The paper's contract makes every cache failure recoverable: the
//! interpreter is always a correct fallback, so a refused construction
//! only ever costs speed. The one surfaced failure is the quarantine
//! blacklist's refusal; the constructor skips the trace and the VM keeps
//! interpreting.

use std::fmt;

use trace_bcg::Branch;

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
}

impl fmt::Display for TraceCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCacheError::Quarantined { entry, remaining } => write!(
                f,
                "entry ({}, {}) is quarantined ({remaining} refusals remaining)",
                entry.0, entry.1
            ),
        }
    }
}

impl std::error::Error for TraceCacheError {}
