//! Trace retention: one rule.
//!
//! The paper admits a trace when its completion probability at
//! *construction time* clears the threshold (§3.7) and never revisits
//! that decision. A trace whose branch behavior shifts after admission
//! (a workload phase change, or a warm-boot snapshot restored into
//! drifted behavior) degrades into a side-exit treadmill that is
//! strictly worse than interpreting. One rule takes such a trace back
//! out:
//!
//! * **The streak.** A trace that leaves early [`STREAK_LIMIT`] times in
//!   a row — at any guard, the entry's included — is quarantined. The
//!   executor counts the streak where the trace exits, in its per-trace
//!   artifact slot: a completion resets it, an early exit bumps it. No
//!   ledger, no hashing, no lock, no epoch.
//! * **The anti-flap.** The cache's quarantine blacklists the `(entry,
//!   path)` key for [`COOLDOWN`] refused construction attempts, so
//!   re-admission goes back through the constructor and the paper's
//!   admission rules re-apply. A repeat quarantine at the same entry
//!   doubles the cooldown, up to `COOLDOWN << MAX_COOLDOWN_SHIFT`.
//!
//! Both are transcribed into the conformance model
//! (`model::ModelCache`); change them in both places or the lockstep
//! harness flags the divergence. The escalation memory is deliberately
//! **excluded from snapshots**: a warm-booted trace must prove itself
//! against live behavior, not be judged on stale evidence.

/// Consecutive early exits (no completion in between) that quarantine a
/// trace.
pub const STREAK_LIMIT: u32 = 16;
/// Base quarantine cooldown (refused construction attempts).
pub const COOLDOWN: u32 = 4;
/// Cap on the escalation: the `n`-th quarantine at one entry blacklists
/// its key for `cooldown << min(n - 1, MAX_COOLDOWN_SHIFT)` attempts.
pub const MAX_COOLDOWN_SHIFT: u32 = 4;

/// Retention counters, kept by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Always 0: there is no probation state. Kept so readers of the
    /// counter set still build.
    pub probations: u64,
    /// Traces quarantined by the early-exit streak.
    pub demotions: u64,
    /// Links changed at an entry that was quarantined before (rewriting
    /// the link already there is not counted).
    pub readmitted_watched: u64,
    /// Quarantines whose cooldown was escalated (a repeat at one entry).
    pub cooldown_escalations: u64,
}
