//! Whole-lifetime trace health: telemetry, scoring, and the demotion
//! ladder.
//!
//! The paper admits a trace when its completion probability at
//! *construction time* clears the threshold (§3.7) — and never revisits
//! that decision. A trace whose branch behavior shifts after admission
//! (a workload phase change, or a warm-boot snapshot restored into
//! drifted behavior) degrades into a side-exit treadmill that is
//! strictly worse than interpreting. This module closes the loop:
//!
//! * **Telemetry** ([`TraceHealth`]): per-trace lifetime entries,
//!   completions, per-guard side-exit counts, and the consecutive
//!   early-exit streak, recorded from [`OutcomeRecord`]s the executor
//!   batches per dispatch.
//! * **Scoring**: an EWMA of the per-epoch completion rate, synced to
//!   the profiler's decay epoch (the 256-exec window of §4.1.1) so the
//!   health clock and the counter-decay clock tick together.
//! * **The demotion ladder**: healthy → probation (re-checked next
//!   epoch) → demoted. A demotion hands the `(entry, path)` key to the
//!   cache's quarantine with a cooldown, so re-admission goes back
//!   through the constructor and the paper's admission rules re-apply.
//! * **Hysteresis**: the cooldown escalates exponentially with each
//!   demotion at the same entry, and a re-admitted trace at a
//!   previously-demoted entry starts on probation — so a trace cannot
//!   flap demote/re-admit more than once per cooldown.
//!
//! Health counters are deliberately **excluded from snapshots**: a
//! warm-booted trace must prove itself against live behavior, not be
//! trusted on stale evidence. The ledger creates entries lazily on the
//! first recorded outcome, so restored traces are picked up the moment
//! they run.

use std::collections::HashMap;

use trace_bcg::{Branch, PackedBranch};

use crate::trace::TraceId;

/// Cap on per-guard side-exit sites tracked individually per trace;
/// exits deeper than this are folded into the last bucket.
pub const GUARD_SITES_TRACKED: usize = 32;

// Thresholds of the health scorer and demotion ladder. Transcribed
// verbatim into the conformance model (`model::health_policy`); change
// them in both places or the lockstep harness will flag the divergence.

/// Weight of the newest epoch's completion rate in the EWMA:
/// `ewma = alpha * rate + (1 - alpha) * ewma`.
pub const EWMA_ALPHA: f64 = 0.5;
/// EWMA completion rate below which a healthy trace enters probation,
/// and a probationary trace is demoted.
pub const PROBATION_RATE: f64 = 0.5;
/// Minimum entries in an epoch for its completion rate to count — fewer
/// and the epoch is skipped (too little evidence to judge).
pub const MIN_EPOCH_ENTRIES: u64 = 8;
/// Consecutive early exits (no completion in between) at an epoch
/// boundary that demote the trace outright, from any ladder state.
pub const STREAK_LIMIT: u32 = 16;
/// Base quarantine cooldown (refused construction attempts) handed to
/// the cache on demotion.
pub const COOLDOWN: u32 = 4;
/// Cap on the hysteresis escalation: the effective cooldown is
/// `COOLDOWN << min(flaps - 1, MAX_COOLDOWN_SHIFT)`.
pub const MAX_COOLDOWN_SHIFT: u32 = 4;
/// Ledger entries idle (zero entries) for this many consecutive epochs
/// are pruned; the trace re-registers on its next outcome.
pub const IDLE_EPOCHS_PRUNED: u32 = 4;

/// Ladder state of a tracked trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Completing as admitted.
    #[default]
    Healthy,
    /// Flagged unhealthy last epoch; demoted if still unhealthy at the
    /// next epoch check.
    Probation,
}

/// Why a trace was demoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionCause {
    /// EWMA completion rate stayed below the probation threshold for
    /// two consecutive judged epochs.
    LowCompletion,
    /// The consecutive early-exit streak hit the limit.
    ExitStreak,
}

/// Lifetime telemetry for one live trace.
#[derive(Debug, Clone)]
pub struct TraceHealth {
    /// Entry branch of the most recent dispatch (the key handed to
    /// quarantine on demotion).
    pub entry: Branch,
    /// Lifetime dispatches into the trace.
    pub entries: u64,
    /// Lifetime completions.
    pub completions: u64,
    /// Lifetime early exits.
    pub early_exits: u64,
    /// Side exits per guard site (block position within the trace);
    /// sites past [`GUARD_SITES_TRACKED`] fold into the last bucket.
    pub guard_exits: Vec<u32>,
    /// Consecutive early exits since the last completion.
    pub streak: u32,
    /// EWMA of the per-epoch completion rate (see [`EWMA_ALPHA`]).
    pub ewma: f64,
    /// Judged epochs so far (epochs with enough entries to score).
    pub judged_epochs: u64,
    /// Entries in the current (unfinished) epoch window.
    pub epoch_entries: u64,
    /// Completions in the current epoch window.
    pub epoch_completions: u64,
    /// Consecutive epochs with zero entries (prune clock).
    pub idle_epochs: u32,
    /// Current ladder state.
    pub state: HealthState,
}

impl TraceHealth {
    fn new(entry: Branch, state: HealthState) -> Self {
        TraceHealth {
            entry,
            entries: 0,
            completions: 0,
            early_exits: 0,
            guard_exits: Vec::new(),
            streak: 0,
            ewma: 1.0,
            judged_epochs: 0,
            epoch_entries: 0,
            epoch_completions: 0,
            idle_epochs: 0,
            state,
        }
    }

    /// Lifetime completion rate; 1.0 before any entry.
    pub fn completion_rate(&self) -> f64 {
        if self.entries == 0 {
            1.0
        } else {
            self.completions as f64 / self.entries as f64
        }
    }

    /// The guard site with the most side exits, as `(site, count)`.
    pub fn hottest_exit(&self) -> Option<(usize, u32)> {
        self.guard_exits
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, &c)| (i, c))
    }
}

/// What a trace dispatch did, from the health monitor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The trace ran every block (a program-finishing dispatch counts
    /// as a completion too).
    Completed,
    /// A guard failed at `site` (the number of blocks completed before
    /// the exit; 0 = immediate entry exit).
    SideExit {
        /// Blocks completed before the exit.
        site: u32,
    },
}

/// One trace dispatch outcome, batched by the executor and flushed to
/// the store at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// The trace that ran.
    pub tid: TraceId,
    /// The entry branch it was dispatched from.
    pub entry: Branch,
    /// What happened.
    pub outcome: TraceOutcome,
}

/// A demotion decision: unlink + tombstone the trace and blacklist its
/// `(entry, path)` key for `cooldown` refused construction attempts.
#[derive(Debug, Clone, Copy)]
pub struct Demotion {
    /// The trace to demote.
    pub tid: TraceId,
    /// Its entry branch (quarantine key).
    pub entry: Branch,
    /// Cooldown after hysteresis escalation.
    pub cooldown: u32,
    /// Why.
    pub cause: DemotionCause,
}

/// Ledger counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Outcome records ingested.
    pub recorded: u64,
    /// Recorded completions.
    pub completions: u64,
    /// Recorded side exits.
    pub side_exits: u64,
    /// Health epochs run.
    pub epochs: u64,
    /// Healthy → probation transitions.
    pub probations: u64,
    /// Probation → healthy recoveries.
    pub recoveries: u64,
    /// Demotion decisions issued.
    pub demotions: u64,
    /// Demotions caused by the early-exit streak limit.
    pub streak_demotions: u64,
    /// Re-admissions at a previously-demoted entry (start on probation).
    pub readmitted_watched: u64,
    /// Demotions whose cooldown was escalated by hysteresis (the entry
    /// had flapped before).
    pub cooldown_escalations: u64,
    /// Idle ledger entries pruned.
    pub pruned: u64,
    /// Traces currently tracked.
    pub tracked: u64,
}

/// The health ledger: per-trace telemetry plus the flap memory that
/// implements hysteresis. Owned by the cache (both implementations) so
/// the policy is written once and dispatched through
/// [`crate::TraceStore`].
#[derive(Debug, Default)]
pub struct HealthLedger {
    traces: HashMap<u32, TraceHealth>,
    /// Packed entry key → demotions at that entry so far. The memory
    /// behind hysteresis: never pruned (one `u64 → u32` per entry that
    /// ever misbehaved).
    flaps: HashMap<u64, u32>,
    stats: HealthStats,
}

impl HealthLedger {
    /// Counter snapshot (with `tracked` filled in).
    pub fn stats(&self) -> HealthStats {
        let mut s = self.stats;
        s.tracked = self.traces.len() as u64;
        s
    }

    /// Telemetry for a tracked trace.
    pub fn health_of(&self, tid: TraceId) -> Option<&TraceHealth> {
        self.traces.get(&tid.0)
    }

    /// Iterates tracked traces in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TraceId, &TraceHealth)> {
        let mut ids: Vec<u32> = self.traces.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|i| (TraceId(i), &self.traces[&i]))
    }

    /// Demotions at this entry so far (the hysteresis flap count).
    pub fn flaps(&self, entry: Branch) -> u32 {
        self.flaps
            .get(&PackedBranch::pack(entry).0)
            .copied()
            .unwrap_or(0)
    }

    /// Called on every successful cache admission. An entry that has
    /// flapped before starts its new trace on probation — the second
    /// half of the hysteresis: the very next unhealthy epoch demotes it
    /// again (with a longer cooldown) instead of granting the usual
    /// healthy-epoch grace.
    pub fn note_admission(&mut self, tid: TraceId, entry: Branch) {
        if self.flaps.contains_key(&PackedBranch::pack(entry).0) {
            self.traces
                .insert(tid.0, TraceHealth::new(entry, HealthState::Probation));
            self.stats.readmitted_watched += 1;
        }
    }

    /// Drops a trace from the ledger (it was tombstoned outside the
    /// health path: budget eviction, fast-trigger quarantine, …).
    pub fn forget(&mut self, tid: TraceId) {
        self.traces.remove(&tid.0);
    }

    /// Ingests one dispatch outcome. Unknown traces (including ones
    /// restored from a snapshot — health is never serialized) register
    /// lazily here.
    pub fn record(&mut self, rec: &OutcomeRecord) {
        self.record_run(rec, 1);
    }

    /// Records `n` identical consecutive outcomes in one step — exactly
    /// equivalent to calling [`HealthLedger::record`] `n` times with
    /// `rec`, but with a single ledger lookup. The executor's outcome
    /// buffer is run-length encoded (a hot loop produces long runs of
    /// identical outcomes for the same trace), and this is its flush
    /// path: `n` completions add `n` to the counters and reset the
    /// streak once; `n` side exits extend the streak by `n`.
    pub fn record_run(&mut self, rec: &OutcomeRecord, n: u64) {
        if n == 0 {
            return;
        }
        let h = self
            .traces
            .entry(rec.tid.0)
            .or_insert_with(|| TraceHealth::new(rec.entry, HealthState::Healthy));
        h.entry = rec.entry;
        h.entries += n;
        h.epoch_entries += n;
        self.stats.recorded += n;
        match rec.outcome {
            TraceOutcome::Completed => {
                h.completions += n;
                h.epoch_completions += n;
                h.streak = 0;
                self.stats.completions += n;
            }
            TraceOutcome::SideExit { site } => {
                h.early_exits += n;
                h.streak = h.streak.saturating_add(n.min(u32::MAX as u64) as u32);
                let slot = (site as usize).min(GUARD_SITES_TRACKED - 1);
                if h.guard_exits.len() <= slot {
                    h.guard_exits.resize(slot + 1, 0);
                }
                h.guard_exits[slot] =
                    h.guard_exits[slot].saturating_add(n.min(u32::MAX as u64) as u32);
                self.stats.side_exits += n;
            }
        }
    }

    /// Closes the current epoch window: scores every tracked trace,
    /// walks the demotion ladder, and returns the demotion decisions in
    /// ascending trace-id order (deterministic, so the conformance
    /// model can mirror it exactly). The caller applies them through
    /// [`crate::run_health_epoch`].
    pub fn epoch(&mut self) -> Vec<Demotion> {
        self.stats.epochs += 1;
        let mut demotions = Vec::new();
        let mut ids: Vec<u32> = self.traces.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let h = self.traces.get_mut(&id).expect("id collected above");
            if h.epoch_entries == 0 {
                h.idle_epochs += 1;
                if h.idle_epochs >= IDLE_EPOCHS_PRUNED {
                    self.traces.remove(&id);
                    self.stats.pruned += 1;
                }
                continue;
            }
            h.idle_epochs = 0;
            let judged = h.epoch_entries >= MIN_EPOCH_ENTRIES;
            if judged {
                let rate = h.epoch_completions as f64 / h.epoch_entries as f64;
                h.ewma = if h.judged_epochs == 0 {
                    rate
                } else {
                    EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * h.ewma
                };
                h.judged_epochs += 1;
            }
            h.epoch_entries = 0;
            h.epoch_completions = 0;
            let cause = if h.streak >= STREAK_LIMIT {
                Some(DemotionCause::ExitStreak)
            } else if judged && h.ewma < PROBATION_RATE {
                match h.state {
                    HealthState::Healthy => {
                        h.state = HealthState::Probation;
                        self.stats.probations += 1;
                        None
                    }
                    HealthState::Probation => Some(DemotionCause::LowCompletion),
                }
            } else {
                if judged && h.state == HealthState::Probation {
                    h.state = HealthState::Healthy;
                    self.stats.recoveries += 1;
                }
                None
            };
            if let Some(cause) = cause {
                let entry = h.entry;
                let key = PackedBranch::pack(entry).0;
                let flaps = self.flaps.entry(key).or_insert(0);
                *flaps += 1;
                let shift = (*flaps - 1).min(MAX_COOLDOWN_SHIFT);
                if shift > 0 {
                    self.stats.cooldown_escalations += 1;
                }
                self.stats.demotions += 1;
                if cause == DemotionCause::ExitStreak {
                    self.stats.streak_demotions += 1;
                }
                demotions.push(Demotion {
                    tid: TraceId(id),
                    entry,
                    cooldown: COOLDOWN << shift,
                    cause,
                });
                self.traces.remove(&id);
            }
        }
        demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{BlockId, FuncId};

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn entry() -> Branch {
        (blk(0), blk(1))
    }

    fn rec(tid: u32, outcome: TraceOutcome) -> OutcomeRecord {
        OutcomeRecord {
            tid: TraceId(tid),
            entry: entry(),
            outcome,
        }
    }

    fn feed(l: &mut HealthLedger, tid: u32, completions: u64, exits: u64) {
        for _ in 0..completions {
            l.record(&rec(tid, TraceOutcome::Completed));
        }
        for _ in 0..exits {
            l.record(&rec(tid, TraceOutcome::SideExit { site: 1 }));
        }
    }

    #[test]
    fn healthy_trace_stays_healthy() {
        let mut l = HealthLedger::default();
        for _ in 0..3 {
            feed(&mut l, 0, 16, 1);
            assert!(l.epoch().is_empty());
        }
        let h = l.health_of(TraceId(0)).unwrap();
        assert_eq!(h.state, HealthState::Healthy);
        assert!(h.ewma > 0.9);
        assert_eq!(l.stats().probations, 0);
    }

    #[test]
    fn ladder_demotes_after_probation_not_before() {
        let mut l = HealthLedger::default();
        // First bad epoch: probation, no demotion.
        feed(&mut l, 0, 2, 14);
        assert!(l.epoch().is_empty());
        assert_eq!(
            l.health_of(TraceId(0)).unwrap().state,
            HealthState::Probation
        );
        assert_eq!(l.stats().probations, 1);
        // Second bad epoch: demoted.
        feed(&mut l, 0, 2, 14);
        let d = l.epoch();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].tid, TraceId(0));
        assert_eq!(d[0].cause, DemotionCause::LowCompletion);
        assert_eq!(d[0].cooldown, COOLDOWN);
        assert!(l.health_of(TraceId(0)).is_none(), "demoted ⇒ untracked");
    }

    #[test]
    fn probation_recovers_on_a_good_epoch() {
        let mut l = HealthLedger::default();
        feed(&mut l, 0, 2, 14);
        assert!(l.epoch().is_empty());
        feed(&mut l, 0, 16, 0);
        assert!(l.epoch().is_empty());
        assert_eq!(l.health_of(TraceId(0)).unwrap().state, HealthState::Healthy);
        assert_eq!(l.stats().recoveries, 1);
        // EWMA carries history: one good epoch after a terrible one
        // leaves the average mid-range.
        let ewma = l.health_of(TraceId(0)).unwrap().ewma;
        assert!(ewma > 0.5 && ewma < 1.0, "ewma {ewma}");
    }

    #[test]
    fn exit_streak_demotes_from_any_state() {
        let mut l = HealthLedger::default();
        // 16 straight side exits in the very first epoch: demoted
        // without passing through probation.
        feed(&mut l, 0, 0, 16);
        let d = l.epoch();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cause, DemotionCause::ExitStreak);
        assert_eq!(l.stats().streak_demotions, 1);
    }

    #[test]
    fn completion_resets_streak() {
        let mut l = HealthLedger::default();
        for _ in 0..3 {
            feed(&mut l, 0, 0, 10);
            feed(&mut l, 0, 1, 0);
        }
        // 30 exits but never 16 consecutive: streak never fires. The
        // EWMA ladder fires instead (rate ≈ 0.09): probation epoch 1.
        assert!(l.epoch().is_empty());
        assert_eq!(l.health_of(TraceId(0)).unwrap().streak, 0);
    }

    #[test]
    fn sparse_epochs_are_not_judged() {
        let mut l = HealthLedger::default();
        // Under min_epoch_entries: a 0% completion rate is not judged.
        for _ in 0..4 {
            feed(&mut l, 0, 0, 4);
            feed(&mut l, 0, 1, 0); // resets streak
            assert!(l.epoch().is_empty());
        }
        assert_eq!(l.health_of(TraceId(0)).unwrap().state, HealthState::Healthy);
        assert_eq!(l.health_of(TraceId(0)).unwrap().judged_epochs, 0);
    }

    #[test]
    fn hysteresis_escalates_cooldown_and_watches_readmission() {
        let mut l = HealthLedger::default();
        let base = COOLDOWN;
        // First demotion at this entry: base cooldown.
        feed(&mut l, 0, 0, 16);
        let d = l.epoch();
        assert_eq!(d[0].cooldown, base);
        assert_eq!(l.flaps(entry()), 1);
        // Re-admission at the same entry: starts on probation...
        l.note_admission(TraceId(1), entry());
        assert_eq!(
            l.health_of(TraceId(1)).unwrap().state,
            HealthState::Probation
        );
        assert_eq!(l.stats().readmitted_watched, 1);
        // ...so ONE unhealthy epoch demotes it, with a doubled cooldown.
        feed(&mut l, 1, 2, 14);
        let d = l.epoch();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cooldown, base << 1);
        assert_eq!(l.stats().cooldown_escalations, 1);
        // Escalation is capped.
        for i in 2..10u32 {
            l.note_admission(TraceId(i), entry());
            feed(&mut l, i, 2, 14);
            let d = l.epoch();
            assert_eq!(d.len(), 1);
            let cap = base << MAX_COOLDOWN_SHIFT;
            assert!(
                d[0].cooldown <= cap,
                "cooldown {} > cap {cap}",
                d[0].cooldown
            );
        }
    }

    #[test]
    fn fresh_entry_admission_is_untracked_until_it_runs() {
        let mut l = HealthLedger::default();
        l.note_admission(TraceId(0), entry());
        assert!(l.health_of(TraceId(0)).is_none(), "no flap ⇒ lazy");
        l.record(&rec(0, TraceOutcome::Completed));
        assert!(l.health_of(TraceId(0)).is_some());
    }

    #[test]
    fn idle_entries_are_pruned() {
        let mut l = HealthLedger::default();
        feed(&mut l, 0, 16, 0);
        for _ in 0..IDLE_EPOCHS_PRUNED + 1 {
            let _ = l.epoch();
        }
        assert!(l.health_of(TraceId(0)).is_none());
        assert_eq!(l.stats().pruned, 1);
    }

    #[test]
    fn guard_exit_sites_are_counted_and_capped() {
        let mut l = HealthLedger::default();
        l.record(&rec(0, TraceOutcome::SideExit { site: 2 }));
        l.record(&rec(0, TraceOutcome::SideExit { site: 2 }));
        l.record(&rec(0, TraceOutcome::SideExit { site: 500 }));
        let h = l.health_of(TraceId(0)).unwrap();
        assert_eq!(h.guard_exits[2], 2);
        assert_eq!(h.guard_exits[GUARD_SITES_TRACKED - 1], 1);
        assert_eq!(h.hottest_exit(), Some((2, 2)));
    }

    #[test]
    fn demotions_come_out_in_id_order() {
        let mut l = HealthLedger::default();
        for tid in [5u32, 1, 3] {
            for _ in 0..16 {
                l.record(&OutcomeRecord {
                    tid: TraceId(tid),
                    entry: (blk(10 * tid), blk(10 * tid + 1)),
                    outcome: TraceOutcome::SideExit { site: 0 },
                });
            }
        }
        let d = l.epoch();
        let ids: Vec<u32> = d.iter().map(|d| d.tid.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
