//! The engine-facing cache-policy trait.
//!
//! [`TraceCache`](crate::TraceCache) (single-owner) and
//! [`SharedTraceCache`](crate::SharedTraceCache) (multi-VM, a lock
//! around the same `TraceCache`) run one policy, so what they cache,
//! evict and quarantine cannot differ; what differs is how they are
//! *reached* (`&mut` vs interior mutability behind an `Arc`).
//! `TraceStore` is the one surface the engine reaches either through:
//! the executor holds `&mut dyn TraceStore` instead of selecting with
//! `match &self.shared` at every policy site.
//!
//! The health side of the trait is deliberately split into *decide*
//! ([`TraceStore::epoch_demotions`], pure ledger math) and *apply*
//! ([`run_health_epoch`], which routes every demotion through the same
//! [`TraceStore::quarantine`] the fast-trigger path uses) so the
//! demotion ladder cannot diverge between cache implementations.

use std::sync::Arc;

use trace_bcg::{Branch, BranchCorrelationGraph, NodeIdx};

use crate::cache::{CacheStats, TraceCache};
use crate::health::{Demotion, HealthStats, OutcomeRecord, TraceHealth};
use crate::shared::SharedTraceCache;
use crate::trace::TraceId;

/// The unified cache policy surface the execution engine dispatches
/// through. Object-safe; the engine holds `&mut dyn TraceStore`.
///
/// Methods take `&mut self` uniformly — the shared implementation (on
/// `Arc<SharedTraceCache<A>>`) forwards to its interior-mutability
/// `&self` API, so the receiver choice costs nothing there.
pub trait TraceStore {
    /// The trace linked at an entry branch, if any (the dispatch check
    /// performed when the interpreter takes a branch).
    fn lookup_entry(&self, entry: Branch) -> Option<TraceId>;

    /// The dispatch check via a BCG node's inline trace-link slot (the
    /// version-stamped fast path; see the cache docs).
    fn lookup_entry_cached(
        &mut self,
        bcg: &mut BranchCorrelationGraph,
        node: NodeIdx,
    ) -> Option<TraceId>;

    /// Tombstones the trace linked at `entry`, removes all of its
    /// links, and blacklists the `(entry, path)` key for `cooldown`
    /// refused construction attempts.
    fn quarantine(&mut self, entry: Branch, cooldown: u32) -> Option<TraceId>;

    /// Cache bookkeeping counters.
    fn stats(&self) -> CacheStats;

    /// Ingests a run-length-encoded batch of dispatch outcomes into the
    /// health ledger: each `(record, n)` entry stands for `n` identical
    /// consecutive outcomes. The executor's hot loop produces long runs
    /// of identical outcomes, so a flush costs one ledger lookup per
    /// run, not per dispatch.
    fn record_outcome_runs(&mut self, runs: &[(OutcomeRecord, u64)]);

    /// Closes the health epoch and returns the demotion decisions (in
    /// trace-id order). Callers apply them via [`run_health_epoch`] —
    /// this method only does the ledger math.
    fn epoch_demotions(&mut self) -> Vec<Demotion>;

    /// Health ledger counters.
    fn health_stats(&self) -> HealthStats;

    /// Health telemetry for one tracked trace (a snapshot — the shared
    /// cache clones it out from under its lock).
    fn trace_health(&self, tid: TraceId) -> Option<TraceHealth>;
}

/// Runs one health epoch against a store: fetches the ledger's demotion
/// decisions and applies each through the store's own quarantine — the
/// single policy path shared by both cache implementations. A decision
/// is skipped (not an error) when the entry has been relinked to a
/// *different* trace since the outcomes were recorded: demoting the
/// newcomer on the old trace's evidence would be wrong. Returns the
/// ids of the traces demoted — tombstoned, never to be entered again —
/// so the caller can drop whatever it holds for them.
pub fn run_health_epoch(store: &mut dyn TraceStore) -> Vec<TraceId> {
    let mut demoted = Vec::new();
    for d in store.epoch_demotions() {
        if store.lookup_entry(d.entry) == Some(d.tid) {
            demoted.extend(store.quarantine(d.entry, d.cooldown));
        }
    }
    demoted
}

impl<P: Default> TraceStore for TraceCache<P> {
    fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        TraceCache::lookup_entry(self, entry)
    }

    fn lookup_entry_cached(
        &mut self,
        bcg: &mut BranchCorrelationGraph,
        node: NodeIdx,
    ) -> Option<TraceId> {
        TraceCache::lookup_entry_cached(self, bcg, node)
    }

    fn quarantine(&mut self, entry: Branch, cooldown: u32) -> Option<TraceId> {
        TraceCache::quarantine(self, entry, cooldown)
    }

    fn stats(&self) -> CacheStats {
        TraceCache::stats(self)
    }

    fn record_outcome_runs(&mut self, runs: &[(OutcomeRecord, u64)]) {
        for (rec, n) in runs {
            self.health_mut().record_run(rec, *n);
        }
    }

    fn epoch_demotions(&mut self) -> Vec<Demotion> {
        self.health_mut().epoch()
    }

    fn health_stats(&self) -> HealthStats {
        self.health().stats()
    }

    fn trace_health(&self, tid: TraceId) -> Option<TraceHealth> {
        self.health().health_of(tid).cloned()
    }
}

/// Lock and forward: the ledger lives in the one cache under the lock.
impl<A> TraceStore for Arc<SharedTraceCache<A>> {
    fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        SharedTraceCache::lookup_entry(self, entry)
    }

    fn lookup_entry_cached(
        &mut self,
        bcg: &mut BranchCorrelationGraph,
        node: NodeIdx,
    ) -> Option<TraceId> {
        SharedTraceCache::lookup_entry_cached(self, bcg, node)
    }

    fn quarantine(&mut self, entry: Branch, cooldown: u32) -> Option<TraceId> {
        SharedTraceCache::quarantine(self, entry, cooldown)
    }

    fn stats(&self) -> CacheStats {
        SharedTraceCache::stats(self)
    }

    fn record_outcome_runs(&mut self, runs: &[(OutcomeRecord, u64)]) {
        self.write().cache.record_outcome_runs(runs);
    }

    fn epoch_demotions(&mut self) -> Vec<Demotion> {
        self.write().cache.epoch_demotions()
    }

    fn health_stats(&self) -> HealthStats {
        self.read().cache.health_stats()
    }

    fn trace_health(&self, tid: TraceId) -> Option<TraceHealth> {
        self.read().cache.trace_health(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{TraceOutcome, COOLDOWN};
    use jvm_bytecode::{BlockId, FuncId};

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    /// Feeds `n` outcomes for `tid` at `entry` through the trait.
    fn feed(
        store: &mut (impl TraceStore + ?Sized),
        tid: TraceId,
        entry: Branch,
        outcome: TraceOutcome,
        n: u32,
    ) {
        let rec = OutcomeRecord {
            tid,
            entry,
            outcome,
        };
        store.record_outcome_runs(&[(rec, u64::from(n))]);
    }

    /// The demotion ladder, driven through the trait — the same body
    /// runs against both caches; only the constructor entry point
    /// (`insert`) is cache-specific.
    fn ladder_demotes_and_cooldown_readmits<S: TraceStore>(
        store: &mut S,
        insert: impl Fn(&mut S, Branch, Vec<BlockId>) -> Result<TraceId, u32>,
    ) {
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let tid = insert(store, entry, path.clone()).expect("fresh insert");
        assert_eq!(store.lookup_entry(entry), Some(tid));

        // Two unhealthy epochs walk healthy → probation → demoted.
        feed(store, tid, entry, TraceOutcome::SideExit { site: 1 }, 14);
        feed(store, tid, entry, TraceOutcome::Completed, 2);
        assert_eq!(run_health_epoch(store), [], "first bad epoch: probation");
        assert_eq!(store.lookup_entry(entry), Some(tid));
        feed(store, tid, entry, TraceOutcome::SideExit { site: 1 }, 14);
        feed(store, tid, entry, TraceOutcome::Completed, 2);
        assert_eq!(run_health_epoch(store), [tid], "second bad epoch: demoted");
        assert_eq!(store.lookup_entry(entry), None, "demotion unlinks");
        let s = store.health_stats();
        assert_eq!(s.demotions, 1);
        assert_eq!(s.probations, 1);

        // Cooldown: the exact (entry, path) is refused `cooldown` times,
        // then re-admitted through the normal constructor path.
        let base = COOLDOWN;
        for i in 0..base {
            let left = insert(store, entry, path.clone())
                .expect_err(&format!("attempt {i} must be refused"));
            assert_eq!(left, base - 1 - i);
        }
        let readmitted = insert(store, entry, path.clone()).expect("post-cooldown re-admission");
        assert_ne!(readmitted, tid, "re-admission mints a fresh id");
        assert_eq!(store.lookup_entry(entry), Some(readmitted));
        // Hysteresis: the re-admitted trace starts on probation, so one
        // more unhealthy epoch demotes it — with an escalated cooldown.
        assert_eq!(store.health_stats().readmitted_watched, 1);
        feed(
            store,
            readmitted,
            entry,
            TraceOutcome::SideExit { site: 1 },
            14,
        );
        feed(store, readmitted, entry, TraceOutcome::Completed, 2);
        assert_eq!(
            run_health_epoch(store),
            [readmitted],
            "probation start ⇒ one epoch"
        );
        let mut refusals = 0;
        while insert(store, entry, path.clone()).is_err() {
            refusals += 1;
            assert!(refusals < 100, "cooldown must decay");
        }
        assert_eq!(refusals, base << 1, "second flap doubles the cooldown");
    }

    #[test]
    fn private_cache_ladder_via_trait() {
        let mut cache = TraceCache::new();
        ladder_demotes_and_cooldown_readmits(&mut cache, |cache: &mut TraceCache, entry, path| {
            match cache.try_insert_and_link(entry, path, 0.99) {
                Ok((id, _)) => Ok(id),
                Err(crate::TraceCacheError::Quarantined { remaining, .. }) => Err(remaining),
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        });
    }

    #[test]
    fn shared_cache_ladder_via_trait() {
        let mut cache: Arc<SharedTraceCache<()>> = Arc::new(SharedTraceCache::new());
        ladder_demotes_and_cooldown_readmits(
            &mut cache,
            |shared: &mut Arc<SharedTraceCache<()>>, entry, path| match shared
                .try_insert_and_link(entry, path, 0.99)
            {
                Ok((id, _)) => Ok(id),
                Err(crate::TraceCacheError::Quarantined { remaining, .. }) => Err(remaining),
                Err(e) => panic!("unexpected error: {e:?}"),
            },
        );
    }

    #[test]
    fn stale_demotion_spares_a_relinked_entry() {
        let mut cache = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (old, _) = cache.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        // The old trace earns a streak demotion...
        feed(
            &mut cache,
            old,
            entry,
            TraceOutcome::SideExit { site: 0 },
            16,
        );
        // ...but the constructor relinks the entry to a new trace first.
        let (new, _) = cache.insert_and_link(entry, vec![blk(1), blk(3)], 0.99);
        assert_ne!(old, new);
        assert_eq!(run_health_epoch(&mut cache), [], "stale decision skipped");
        assert_eq!(
            TraceStore::lookup_entry(&cache, entry),
            Some(new),
            "the newcomer survives the old trace's evidence"
        );
        assert_eq!(cache.iter_quarantine().count(), 0);
    }
}
