//! The hash-consed trace store and its policy, written once.
//!
//! The paper has one trace cache: signals in, traces hash-consed and
//! linked at their entry branches (§4.2). [`TraceCache`] is that cache,
//! and everything that decides *what* is cached lives here — the entry
//! links and the retention counters included. A VM owns one directly.
//!
//! # Memory budget and eviction
//!
//! [`set_budget`](TraceCache::set_budget) bounds the payload bytes the
//! cache may hold ([`payload_bytes`](TraceCache::payload_bytes): the
//! closed-form [`trace_cost`] accounting). When an
//! insert pushes the cache over budget, entry links are evicted by a
//! deterministic second-chance (clock) sweep in insertion order: a link
//! touched again since it was last considered gets one more round,
//! otherwise it is unlinked; the just-written link is never the victim.
//! A trace whose last link goes is *tombstoned* — removed from the
//! hash-cons index (so a rebuild mints a fresh id; ids are never reused)
//! and its storage reclaimed. Every mutation bumps
//! [`version`](TraceCache::version), so inline BCG link slots and
//! in-flight cached dispatches revalidate and fall back to block
//! dispatch.
//!
//! # Quarantine
//!
//! [`quarantine`](TraceCache::quarantine) tombstones a faulting trace,
//! removes all its links and blacklists its `(entry, path)` key;
//! [`try_insert_and_link`](TraceCache::try_insert_and_link) then refuses
//! to rebuild that exact trace at that entry until the cooldown decays
//! (one tick per refused attempt), so a trace that keeps faulting cannot
//! thrash the constructor. A repeat quarantine at the same entry doubles
//! the cooldown, up to [`COOLDOWN`] `<<` [`MAX_COOLDOWN_SHIFT`]: the
//! anti-flap of the retention rule (see [`crate::health`]). The memory of
//! past quarantines per entry stays out of snapshots.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use jvm_bytecode::BlockId;
use trace_bcg::node::NO_TRACE_LINK;
use trace_bcg::{Branch, BranchCorrelationGraph, BranchTable, NodeIdx, PackedBranch};

use crate::error::TraceCacheError;
use crate::health::{HealthStats, COOLDOWN, MAX_COOLDOWN_SHIFT};
use crate::trace::{Trace, TraceId};

/// Fixed per-trace bookkeeping charge in the byte-budget accounting:
/// covers the trace object, its hash-cons index entry, and the entry
/// link(s). A named constant so the conformance model can mirror the
/// accounting exactly.
pub const TRACE_BYTES_OVERHEAD: usize = 64;

/// The byte cost a trace of `blocks` blocks charges against the cache
/// budget. Deliberately a closed form over the block count — not real
/// allocator numbers — so the eviction *policy* is reproducible in the
/// conformance model.
pub fn trace_cost(blocks: usize) -> usize {
    blocks * std::mem::size_of::<BlockId>() + TRACE_BYTES_OVERHEAD
}

/// Cache bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// New trace objects constructed.
    pub traces_constructed: u64,
    /// Insertions that found an identical block sequence already cached
    /// ("the trace is retrieved and linked", §4.2).
    pub traces_reused: u64,
    /// Entry links written (new or re-linked).
    pub links_written: u64,
    /// Entry-branch links that replaced a different trace (cache
    /// instability events; the paper's stability criterion wants these
    /// rare, §3.6).
    pub links_replaced: u64,
    /// Entry links removed by an unlink or a quarantine.
    pub links_removed: u64,
    /// Entry links removed by the budget's second-chance sweep.
    pub links_evicted: u64,
    /// Trace objects tombstoned because their last link was evicted (or
    /// they were quarantined) and their storage reclaimed.
    pub traces_evicted: u64,
    /// Traces tombstoned by a quarantine.
    pub traces_quarantined: u64,
    /// Construction attempts refused because the `(entry, path)` key is
    /// quarantined.
    pub quarantine_rejected: u64,
    /// Budget-enforcement passes that ended while still over budget
    /// (a single trace larger than the whole budget).
    pub budget_overruns: u64,
    /// Entry branches currently linked.
    pub links_live: usize,
}

impl CacheStats {
    /// Fraction of insertions served by hash-consing, in `[0, 1]`.
    pub fn dedup_hit_rate(&self) -> f64 {
        let total = self.traces_constructed + self.traces_reused;
        if total == 0 {
            0.0
        } else {
            self.traces_reused as f64 / total as f64
        }
    }
}

/// The trace cache: trace objects hash-consed by block sequence, plus the
/// dispatch table linking entry branches to traces.
///
/// Separating *trace objects* from *entry links* mirrors the paper: several
/// entry branches may be "linked into the code" against the same cached
/// sequence, and relinking an entry never destroys a trace object (old
/// ids stay valid for the execution monitor). See the module docs for
/// the budget, eviction and quarantine policy.
///
/// ```
/// use jvm_bytecode::{BlockId, FuncId};
/// use trace_cache::TraceCache;
///
/// let b = |i| BlockId::new(FuncId(0), i);
/// let mut cache = TraceCache::new();
/// let (id, created) = cache.insert_and_link((b(0), b(1)), vec![b(1), b(2)], 0.98);
/// assert!(created);
/// // Dispatch check: taking branch (b0, b1) enters the trace.
/// assert_eq!(cache.lookup_entry((b(0), b(1))), Some(id));
/// assert_eq!(cache.trace(id).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TraceCache {
    /// Slot per id ever assigned; a tombstoned (evicted or quarantined)
    /// trace keeps its slot with empty blocks. Ids are never reused.
    traces: Vec<Trace>,
    /// Live entry-link keys per trace (the reverse of `by_entry`).
    entry_keys: Vec<Vec<u64>>,
    /// Hash-consing index; only touched at construction time, so a std
    /// `HashMap` keyed by the full block sequence is fine here.
    /// Tombstoned traces are removed, so a rebuild mints a fresh id.
    by_blocks: HashMap<Vec<BlockId>, TraceId>,
    /// The dispatch table: entry branch → linked trace. Queried at every
    /// block boundary, hence the packed-key open-addressed table.
    by_entry: BranchTable<TraceId>,
    /// Packed entry key → quarantines at that entry so far: the memory
    /// behind the cooldown escalation. Never pruned (one `u64 → u32` per
    /// entry that ever misbehaved), never snapshotted.
    flaps: HashMap<u64, u32>,
    /// Retention counters.
    health: HealthStats,
    /// Second-chance sweep order: live link keys, oldest first. May hold
    /// stale keys (unlinked outside eviction); `referenced` is the
    /// source of truth and stale keys are dropped when popped.
    clock: VecDeque<u64>,
    /// Live link keys → second-chance bit (set when an insert touches an
    /// already-linked entry).
    referenced: HashMap<u64, bool>,
    /// Blacklist: entry key → (exact block path, refusals remaining).
    quarantined: HashMap<u64, (Vec<BlockId>, u32)>,
    /// [`trace_cost`] summed over live traces.
    payload: usize,
    /// Byte budget on `payload`; `None` disables eviction entirely.
    budget: Option<usize>,
    stats: CacheStats,
    /// Bumped on every link mutation; lets executors cache lookups.
    version: u64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entry links.
    pub fn link_count(&self) -> usize {
        self.by_entry.len()
    }

    /// Retention counters: streak demotions, re-admissions at entries
    /// quarantined before, escalated cooldowns.
    pub fn health_stats(&self) -> HealthStats {
        self.health
    }

    /// The trace linked at an entry branch, if any. This is the dispatch
    /// check performed when the interpreter takes a branch.
    #[inline]
    pub fn lookup_entry(&self, entry: Branch) -> Option<TraceId> {
        self.by_entry.get(PackedBranch::pack(entry))
    }

    /// The dispatch check via a BCG node's inline trace-link slot.
    ///
    /// `node` must be the BCG node of the branch being tested (the value
    /// [`BranchCorrelationGraph::observe`] just returned). While the
    /// node's stamp matches [`Self::version`], the slot answers directly
    /// — positive *or negative* — without hashing; the first lookup
    /// after any link mutation falls back to [`Self::lookup_entry`] and
    /// restamps the slot. Since almost every dispatch is a miss, caching
    /// negatives is what removes the per-block-boundary table probe.
    #[inline]
    pub fn lookup_entry_cached(
        &self,
        bcg: &mut BranchCorrelationGraph,
        node: NodeIdx,
    ) -> Option<TraceId> {
        let (stamp, raw) = bcg.node(node).trace_link();
        if stamp == self.version {
            let cached = if raw == NO_TRACE_LINK {
                None
            } else {
                Some(TraceId(raw))
            };
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                cached,
                self.lookup_entry(bcg.node(node).branch()),
                "inline trace-link slot diverged from the entry table at \
                 version {} for branch {:?}",
                self.version,
                bcg.node(node).branch()
            );
            return cached;
        }
        let found = self.lookup_entry(bcg.node(node).branch());
        bcg.set_trace_link(node, self.version, found.map_or(NO_TRACE_LINK, |t| t.0));
        found
    }

    /// Iterates over all `(entry branch, trace)` links.
    pub fn iter_links(&self) -> impl Iterator<Item = (Branch, &Trace)> {
        self.by_entry
            .iter()
            .map(|(b, id)| (b.unpack(), self.trace(id)))
    }

    /// Number of distinct trace objects ever constructed (including
    /// tombstoned ones — ids are never reused).
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// A counter bumped on every entry-link mutation. An executor that
    /// caches `lookup_entry` results must revalidate when this changes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            links_live: self.referenced.len(),
            ..self.stats
        }
    }

    /// The configured payload budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Bytes currently charged against the budget: the [`trace_cost`]
    /// sum over live (non-tombstoned) traces.
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// The trace with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn trace(&self, id: TraceId) -> &Trace {
        &self.traces[id.index()]
    }

    /// The trace with the given id, surfacing unknown and evicted ids as
    /// errors instead of panicking / handing back a tombstone. Dispatch
    /// paths use this and fall back to block dispatch on `Err`.
    #[inline]
    pub fn trace_checked(&self, id: TraceId) -> Result<&Trace, TraceCacheError> {
        match self.traces.get(id.index()) {
            None => Err(TraceCacheError::UnknownTrace(id)),
            Some(t) if t.blocks.is_empty() => Err(TraceCacheError::Evicted(id)),
            Some(t) => Ok(t),
        }
    }

    /// Whether the id was assigned and later tombstoned (evicted or
    /// quarantined).
    pub fn is_evicted(&self, id: TraceId) -> bool {
        matches!(self.trace_checked(id), Err(TraceCacheError::Evicted(_)))
    }

    /// Iterates over every trace object ever constructed — including
    /// unlinked ones, and tombstoned ones (which report empty blocks).
    pub fn iter_traces(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter()
    }

    /// Iterates over the quarantine blacklist: `(entry, path, refusals
    /// remaining)`, sorted by packed entry key (for deterministic
    /// comparison harnesses).
    pub fn iter_quarantine(&self) -> impl Iterator<Item = (Branch, &[BlockId], u32)> {
        let mut keys: Vec<&u64> = self.quarantined.keys().collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| {
            let (blocks, remaining) = &self.quarantined[k];
            (PackedBranch(*k).unpack(), blocks.as_slice(), *remaining)
        })
    }

    /// Hash-conses a block sequence into the cache and links it at
    /// `entry`, then enforces the byte budget (the just-written link is
    /// never the victim). Returns the trace id and whether a new trace
    /// object was constructed.
    ///
    /// This path does **not** consult the quarantine blacklist — the
    /// constructor goes through [`Self::try_insert_and_link`].
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or `entry.1 != blocks[0]` — the entry
    /// branch must land on the trace's first block.
    pub fn insert_and_link(
        &mut self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
    ) -> (TraceId, bool) {
        assert!(!blocks.is_empty(), "trace must contain at least one block");
        assert_eq!(
            entry.1, blocks[0],
            "entry branch must target the trace's first block"
        );
        let (id, created) = match self.by_blocks.get(&blocks) {
            Some(&id) => {
                self.stats.traces_reused += 1;
                (id, false)
            }
            None => {
                let id = TraceId(self.traces.len() as u32);
                self.payload += trace_cost(blocks.len());
                self.traces.push(Trace {
                    id,
                    blocks: blocks.clone(),
                    expected_completion,
                });
                self.entry_keys.push(Vec::new());
                self.by_blocks.insert(blocks, id);
                self.stats.traces_constructed += 1;
                (id, true)
            }
        };
        let key = PackedBranch::pack(entry).0;
        match self.by_entry.insert(PackedBranch(key), id) {
            Some(old) if old != id => {
                self.stats.links_replaced += 1;
                self.entry_keys[old.index()].retain(|&k| k != key);
                self.reclaim_if_unlinked(old);
            }
            _ => {}
        }
        self.stats.links_written += 1;
        // Second-chance bookkeeping: a first-time link enters the sweep
        // unreferenced; touching a live link grants it another round.
        match self.referenced.entry(key) {
            Entry::Occupied(mut e) => {
                e.insert(true);
            }
            Entry::Vacant(e) => {
                e.insert(false);
                self.clock.push_back(key);
            }
        }
        if !self.entry_keys[id.index()].contains(&key) {
            self.entry_keys[id.index()].push(key);
        }
        if self.flaps.contains_key(&key) {
            self.health.readmitted_watched += 1;
        }
        self.enforce_budget(self.budget, key);
        self.mutated();
        (id, created)
    }

    /// [`Self::insert_and_link`] behind the quarantine blacklist: if the
    /// exact `(entry, path)` key is quarantined the insert is refused,
    /// the cooldown ticks down by one, and at zero the key is
    /// re-admitted (the *next* attempt succeeds).
    pub fn try_insert_and_link(
        &mut self,
        entry: Branch,
        blocks: Vec<BlockId>,
        expected_completion: f64,
    ) -> Result<(TraceId, bool), TraceCacheError> {
        let key = PackedBranch::pack(entry).0;
        if let Some((_, remaining)) = self
            .quarantined
            .get_mut(&key)
            .filter(|(path, _)| *path == blocks)
        {
            *remaining -= 1;
            let remaining = *remaining;
            if remaining == 0 {
                self.quarantined.remove(&key);
            }
            self.stats.quarantine_rejected += 1;
            return Err(TraceCacheError::Quarantined { entry, remaining });
        }
        Ok(self.insert_and_link(entry, blocks, expected_completion))
    }

    /// Removes the link at an entry branch, if any. Used when a trace's
    /// entry is found to no longer satisfy the criteria.
    pub fn unlink(&mut self, entry: Branch) -> Option<TraceId> {
        let key = PackedBranch::pack(entry).0;
        let id = self.by_entry.remove(PackedBranch(key))?;
        self.stats.links_removed += 1;
        self.referenced.remove(&key);
        self.entry_keys[id.index()].retain(|&k| k != key);
        self.reclaim_if_unlinked(id);
        self.mutated();
        Some(id)
    }

    /// Tombstones the trace linked at `entry` and blacklists its
    /// `(entry, path)` key for `cooldown` refused construction attempts,
    /// doubled for every earlier quarantine at the same entry up to
    /// `cooldown << MAX_COOLDOWN_SHIFT`. *Every* entry link of the trace
    /// is removed (the version bump forces in-flight cached dispatches
    /// to revalidate); only the faulting entry is blacklisted. Returns
    /// the tombstoned id, or `None` if nothing is linked at `entry`.
    pub fn quarantine(&mut self, entry: Branch, cooldown: u32) -> Option<TraceId> {
        let id = self.lookup_entry(entry)?;
        let flaps = self.flaps.entry(PackedBranch::pack(entry).0).or_insert(0);
        let shift = (*flaps).min(MAX_COOLDOWN_SHIFT);
        *flaps += 1;
        if shift > 0 {
            self.health.cooldown_escalations += 1;
        }
        let cooldown = cooldown.saturating_mul(1 << shift);
        self.restore_quarantine(entry, self.traces[id.index()].blocks.clone(), cooldown);
        for k in std::mem::take(&mut self.entry_keys[id.index()]) {
            self.by_entry.remove(PackedBranch(k));
            self.referenced.remove(&k);
            self.stats.links_removed += 1;
        }
        self.tombstone(id);
        self.stats.traces_quarantined += 1;
        self.mutated();
        Some(id)
    }

    /// The retention rule's verdict on `tid`, which left early
    /// [`crate::health::STREAK_LIMIT`] times in a row after entering at
    /// `entry`: [`Self::quarantine`] at the base [`COOLDOWN`], counted as
    /// a demotion. Skipped (returns `None`) when `entry` has since been
    /// relinked to another trace — the newcomer is not judged on the old
    /// trace's exits.
    pub fn demote(&mut self, entry: Branch, tid: TraceId) -> Option<TraceId> {
        if self.lookup_entry(entry) != Some(tid) {
            return None;
        }
        self.health.demotions += 1;
        self.quarantine(entry, COOLDOWN)
    }

    /// Restores a quarantine blacklist entry verbatim (snapshot load):
    /// registers the `(entry, path)` key with `cooldown` refusals
    /// remaining without touching any live trace or link — unlike
    /// [`Self::quarantine`], there is nothing to tombstone, because the
    /// offending trace died in the process that wrote the snapshot. A
    /// zero cooldown is clamped to 1, mirroring [`Self::quarantine`].
    pub fn restore_quarantine(&mut self, entry: Branch, blocks: Vec<BlockId>, cooldown: u32) {
        let key = PackedBranch::pack(entry).0;
        self.quarantined.insert(key, (blocks, cooldown.max(1)));
    }

    /// Sets (or clears) the payload byte budget and immediately enforces
    /// it.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
        // `u64::MAX` is no packed branch, so nothing is protected here.
        self.enforce_budget(budget, u64::MAX);
        self.mutated();
    }

    /// Closes a link mutation: the version bump makes every stamped BCG
    /// slot revalidate.
    fn mutated(&mut self) {
        self.version += 1;
        #[cfg(feature = "debug-invariants")]
        self.assert_cache_invariants();
    }

    /// Tombstones a trace: reclaims its bytes, and removes it from the
    /// hash-cons index so a rebuild mints a fresh id.
    fn tombstone(&mut self, id: TraceId) {
        let i = id.index();
        debug_assert!(self.entry_keys[i].is_empty());
        let blocks = std::mem::take(&mut self.traces[i].blocks);
        self.payload -= trace_cost(blocks.len());
        self.by_blocks.remove(&blocks);
        self.stats.traces_evicted += 1;
    }

    /// In budget mode an unlinked trace can never be chosen by the
    /// sweep, so it is reclaimed as soon as its last link goes. Without
    /// a budget the legacy contract holds: unlinked traces stay
    /// retrievable by id.
    fn reclaim_if_unlinked(&mut self, id: TraceId) {
        if self.budget.is_some()
            && self.entry_keys[id.index()].is_empty()
            && !self.traces[id.index()].blocks.is_empty()
        {
            self.tombstone(id);
        }
    }

    /// Evicts links (second-chance, insertion order) until the payload
    /// fits `budget`. `protect` — the just-written link — is never
    /// evicted; if it alone remains and the cache is still over budget,
    /// the overrun is counted and the trace stands.
    fn enforce_budget(&mut self, budget: Option<usize>, protect: u64) {
        let Some(budget) = budget else {
            return;
        };
        while self.payload > budget {
            let mut victim = None;
            // Two passes over the clock suffice: the first clears
            // second-chance bits (and drops stale keys), the second must
            // then land on an unreferenced, unprotected key if any
            // exists.
            let mut remaining = 2 * self.clock.len() + 1;
            while remaining > 0 {
                remaining -= 1;
                let Some(key) = self.clock.pop_front() else {
                    break;
                };
                match self.referenced.get(&key).copied() {
                    None => continue, // stale: unlinked outside the sweep
                    Some(_) if key == protect => self.clock.push_back(key),
                    Some(true) => {
                        self.referenced.insert(key, false);
                        self.clock.push_back(key);
                    }
                    Some(false) => {
                        victim = Some(key);
                        break;
                    }
                }
            }
            let Some(key) = victim else {
                self.stats.budget_overruns += 1;
                break;
            };
            let id = self
                .by_entry
                .remove(PackedBranch(key))
                .expect("sweep key must be linked");
            self.referenced.remove(&key);
            self.entry_keys[id.index()].retain(|&k| k != key);
            self.stats.links_evicted += 1;
            if self.entry_keys[id.index()].is_empty() {
                self.tombstone(id);
            }
        }
    }

    /// Machine-checked structural invariants, asserted after every link
    /// mutation when the `debug-invariants` feature is on:
    ///
    /// - **hash-consing uniqueness** — the block-sequence index has
    ///   exactly one entry per *live* trace object and every live trace
    ///   is found under its own sequence (§4.2: an identical trace "is
    ///   retrieved and linked", never duplicated);
    /// - **id coherence** — `traces[i].id == i`;
    /// - **link validity** — every reverse-list key is found in the
    ///   entry table under its trace, lands on that trace's first block
    ///   and is tracked by the sweep; the table and the sweep hold
    ///   nothing else; tombstones hold no links; completion estimates
    ///   lie in `(0, 1]`;
    /// - **budget accounting** — the payload counter equals the summed
    ///   [`trace_cost`] of the live traces.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_cache_invariants(&self) {
        let live = self.traces.iter().filter(|t| !t.blocks.is_empty()).count();
        assert_eq!(
            self.by_blocks.len(),
            live,
            "hash-consing index must have exactly one entry per live trace"
        );
        let (mut payload, mut linked) = (0, 0);
        for (i, t) in self.traces.iter().enumerate() {
            assert_eq!(t.id.index(), i, "trace id must equal its slot");
            if t.blocks.is_empty() {
                assert!(
                    self.entry_keys[i].is_empty(),
                    "tombstoned trace {i} must hold no links"
                );
                continue;
            }
            payload += trace_cost(t.blocks.len());
            assert!(
                t.expected_completion > 0.0 && t.expected_completion <= 1.0,
                "completion estimate {} out of (0, 1] for trace {i}",
                t.expected_completion
            );
            assert_eq!(
                self.by_blocks.get(&t.blocks),
                Some(&t.id),
                "trace {i} must be findable under its own block sequence"
            );
            for &key in &self.entry_keys[i] {
                assert_eq!(
                    self.by_entry.get(PackedBranch(key)),
                    Some(t.id),
                    "entry table out of sync with the reverse list of trace {i}"
                );
                assert_eq!(
                    PackedBranch(key).unpack().1,
                    t.blocks[0],
                    "entry link must land on its trace's first block"
                );
                assert!(
                    self.referenced.contains_key(&key),
                    "live link missing from the sweep"
                );
            }
            linked += self.entry_keys[i].len();
        }
        assert_eq!(payload, self.payload, "payload accounting drifted");
        // Every reverse-list key is in both; equal counts leave no room
        // for a link or a sweep entry the reverse lists do not know.
        assert_eq!(
            self.by_entry.len(),
            linked,
            "entry table holds a stray link"
        );
        assert_eq!(self.referenced.len(), linked, "sweep tracks a stray link");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    #[test]
    fn insert_links_and_retrieves() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, created) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        assert!(created);
        assert_eq!(c.lookup_entry(entry), Some(id));
        assert_eq!(c.trace(id).blocks(), &[blk(1), blk(2)]);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.link_count(), 1);
    }

    #[test]
    fn hash_consing_reuses_identical_sequences() {
        let mut c = TraceCache::new();
        let (a, created_a) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        // Same sequence, different entry context.
        let (b, created_b) = c.insert_and_link((blk(9), blk(1)), vec![blk(1), blk(2)], 0.98);
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(a, b);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.link_count(), 2);
        assert_eq!(c.stats().traces_reused, 1);
    }

    #[test]
    fn relinking_replaces_and_counts_instability() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (a, _) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        let (b, _) = c.insert_and_link(entry, vec![blk(1), blk(3)], 0.99);
        assert_ne!(a, b);
        assert_eq!(c.lookup_entry(entry), Some(b));
        assert_eq!(c.stats().links_replaced, 1);
        // Relinking the identical trace is not instability.
        let _ = c.insert_and_link(entry, vec![blk(1), blk(3)], 0.99);
        assert_eq!(c.stats().links_replaced, 1);
        // Old trace object still retrievable by id.
        assert_eq!(c.trace(a).blocks(), &[blk(1), blk(2)]);
    }

    #[test]
    fn unlink_removes_entry_but_keeps_trace() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, _) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.unlink(entry), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.unlink(entry), None);
    }

    #[test]
    #[should_panic(expected = "entry branch must target")]
    fn entry_must_match_first_block() {
        let mut c = TraceCache::new();
        let _ = c.insert_and_link((blk(0), blk(5)), vec![blk(1), blk(2)], 0.99);
    }

    #[test]
    fn iterators_cover_links_and_traces() {
        let mut c = TraceCache::new();
        c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.9);
        c.insert_and_link((blk(2), blk(3)), vec![blk(3), blk(4)], 0.9);
        assert_eq!(c.iter_links().count(), 2);
        assert_eq!(c.iter_traces().count(), 2);
    }

    /// Builds a BCG whose node for `(blk(0), blk(1))` exists, returning
    /// the graph and that node's index.
    fn bcg_with_branch() -> (trace_bcg::BranchCorrelationGraph, NodeIdx) {
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        bcg.observe(blk(0));
        let n = bcg.observe(blk(1)).expect("branch node");
        (bcg, n)
    }

    #[test]
    fn cached_lookup_caches_negative_results() {
        let (mut bcg, n) = bcg_with_branch();
        let c = TraceCache::new();
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        // Slot is stamped with the current version and the no-link mark.
        assert_eq!(bcg.node(n).trace_link(), (c.version(), NO_TRACE_LINK));
        // Second query answers from the slot (same stamp, still None).
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
    }

    #[test]
    fn insert_and_link_invalidates_cached_negative() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        // The version bump makes the stale negative stamp miss, so the
        // next cached lookup revalidates and finds the new link.
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(bcg.node(n).trace_link(), (c.version(), id.0));
    }

    #[test]
    fn unlink_invalidates_cached_positive() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(c.unlink((blk(0), blk(1))), Some(id));
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        assert_eq!(bcg.node(n).trace_link(), (c.version(), NO_TRACE_LINK));
    }

    #[test]
    fn unrelated_link_mutations_restamp_but_preserve_answers() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        // A mutation elsewhere bumps the version; the slot revalidates to
        // the same positive answer.
        c.insert_and_link((blk(7), blk(8)), vec![blk(8), blk(9)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(bcg.node(n).trace_link(), (c.version(), id.0));
    }

    #[test]
    fn relinking_entry_updates_cached_answer_across_versions() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (a, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(a));
        let (b, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(3)], 0.99);
        assert_ne!(a, b);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(b));
    }

    #[test]
    fn cached_lookup_always_agrees_with_direct_lookup() {
        // Churn links while interleaving cached and direct lookups: the
        // slot path must never diverge from the table.
        let mut bcg = trace_bcg::BranchCorrelationGraph::new(trace_bcg::BcgConfig::paper_default());
        let mut nodes = Vec::new();
        bcg.observe(blk(0));
        for i in 1..8u32 {
            nodes.push((blk(i - 1), blk(i), bcg.observe(blk(i)).unwrap()));
        }
        let mut c = TraceCache::new();
        for round in 0..50u32 {
            let i = (round % 7) as usize;
            let (from, to, _) = nodes[i];
            if round % 3 == 0 {
                c.insert_and_link((from, to), vec![to, blk(to.block + 1)], 0.99);
            } else if round % 3 == 1 {
                c.unlink((from, to));
            }
            for &(from, to, n) in &nodes {
                assert_eq!(
                    c.lookup_entry_cached(&mut bcg, n),
                    c.lookup_entry((from, to)),
                    "slot diverged at round {round}"
                );
            }
        }
    }

    // --- budget / eviction / quarantine ---

    /// Budget sized for exactly `n` two-block traces.
    fn budget_for(n: usize) -> usize {
        n * trace_cost(2)
    }

    #[test]
    fn budget_evicts_oldest_unreferenced_link_first() {
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(2)));
        let e = |i: u32| (blk(10 * i), blk(10 * i + 1));
        let t = |i: u32| vec![blk(10 * i + 1), blk(10 * i + 2)];
        let (a, _) = c.insert_and_link(e(0), t(0), 0.99);
        let (b, _) = c.insert_and_link(e(1), t(1), 0.99);
        assert!(c.payload_bytes() <= budget_for(2));
        // Third insert forces out the oldest (a).
        let (d, _) = c.insert_and_link(e(2), t(2), 0.99);
        assert!(c.payload_bytes() <= budget_for(2));
        assert_eq!(c.lookup_entry(e(0)), None, "oldest link must be evicted");
        assert_eq!(c.lookup_entry(e(1)), Some(b));
        assert_eq!(c.lookup_entry(e(2)), Some(d));
        assert!(c.is_evicted(a));
        assert!(c.trace_checked(a).is_err());
        let s = c.stats();
        assert_eq!(s.links_evicted, 1);
        assert_eq!(s.traces_evicted, 1);
        assert_eq!(s.budget_overruns, 0);
    }

    #[test]
    fn second_chance_spares_a_retouched_link() {
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(2)));
        let e = |i: u32| (blk(10 * i), blk(10 * i + 1));
        let t = |i: u32| vec![blk(10 * i + 1), blk(10 * i + 2)];
        let (a, _) = c.insert_and_link(e(0), t(0), 0.99);
        let (_b, _) = c.insert_and_link(e(1), t(1), 0.99);
        // Re-touch the oldest: it gets a second chance, so the sweep
        // skips it and evicts e(1) instead.
        let _ = c.insert_and_link(e(0), t(0), 0.99);
        let _ = c.insert_and_link(e(2), t(2), 0.99);
        assert_eq!(c.lookup_entry(e(0)), Some(a), "retouched link survives");
        assert_eq!(c.lookup_entry(e(1)), None, "unreferenced link evicted");
    }

    #[test]
    fn budget_exactly_at_trace_size_admits_one_trace() {
        let mut c = TraceCache::new();
        c.set_budget(Some(trace_cost(2)));
        let (a, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.payload_bytes(), trace_cost(2));
        assert_eq!(c.stats().budget_overruns, 0);
        // The next trace displaces the first: still exactly at budget.
        let (b, _) = c.insert_and_link((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99);
        assert_eq!(c.payload_bytes(), trace_cost(2));
        assert!(c.is_evicted(a));
        assert_eq!(c.lookup_entry((blk(5), blk(6))), Some(b));
    }

    #[test]
    fn oversized_trace_overruns_but_stands_alone() {
        let mut c = TraceCache::new();
        c.set_budget(Some(trace_cost(2)));
        let blocks: Vec<BlockId> = (1..=20).map(blk).collect();
        let (id, _) = c.insert_and_link((blk(0), blk(1)), blocks, 0.99);
        assert_eq!(c.lookup_entry((blk(0), blk(1))), Some(id));
        assert!(c.payload_bytes() > trace_cost(2));
        assert_eq!(c.stats().budget_overruns, 1);
    }

    #[test]
    fn eviction_bumps_version_and_invalidates_cached_links() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(1)));
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        // The next insert evicts (blk0, blk1); the stamped slot must
        // revalidate to None, never serve the dangling id.
        let _ = c.insert_and_link((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        assert!(c.is_evicted(id));
    }

    #[test]
    fn evicted_sequence_rebuilds_under_a_fresh_id() {
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(1)));
        let (a, created) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert!(created);
        let _ = c.insert_and_link((blk(5), blk(6)), vec![blk(6), blk(7)], 0.99);
        assert!(c.is_evicted(a));
        let (b, created) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert!(created, "tombstoned sequence must rebuild, not dedup");
        assert_ne!(a, b, "ids are never reused");
    }

    #[test]
    fn unlinked_trace_reclaimed_only_in_budget_mode() {
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(8)));
        let (id, _) = c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        assert_eq!(c.unlink((blk(0), blk(1))), Some(id));
        assert!(c.is_evicted(id), "budget mode reclaims unlinked traces");
        assert_eq!(c.payload_bytes(), 0);
    }

    #[test]
    fn quarantine_tombstones_blacklists_and_readmits_after_cooldown() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let (id, _) = c.insert_and_link(entry, path.clone(), 0.99);
        // Second entry onto the same trace: quarantine removes both.
        let _ = c.insert_and_link((blk(9), blk(1)), path.clone(), 0.99);
        assert_eq!(c.quarantine(entry, 2), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.lookup_entry((blk(9), blk(1))), None, "all links removed");
        assert!(c.is_evicted(id));
        assert_eq!(c.iter_quarantine().count(), 1);
        // Two refused attempts decay the cooldown...
        assert!(matches!(
            c.try_insert_and_link(entry, path.clone(), 0.99),
            Err(TraceCacheError::Quarantined { remaining: 1, .. })
        ));
        assert!(matches!(
            c.try_insert_and_link(entry, path.clone(), 0.99),
            Err(TraceCacheError::Quarantined { remaining: 0, .. })
        ));
        // ...and the third succeeds with a fresh id.
        let (nid, created) = c.try_insert_and_link(entry, path.clone(), 0.99).unwrap();
        assert!(created);
        assert_ne!(nid, id);
        assert_eq!(c.lookup_entry(entry), Some(nid));
        assert_eq!(c.stats().quarantine_rejected, 2);
        assert_eq!(c.iter_quarantine().count(), 0);
    }

    /// Repeat quarantines at one entry: the cooldown doubles per repeat
    /// up to the cap, and every admission at the entry afterwards is a
    /// watched re-admission.
    #[test]
    fn repeat_quarantine_escalates_to_the_cap() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let (mut tid, _) = c
            .try_insert_and_link(entry, path.clone(), 0.99)
            .expect("fresh insert");
        let repeats = MAX_COOLDOWN_SHIFT + 2;
        for n in 0..=repeats {
            assert_eq!(c.quarantine(entry, COOLDOWN), Some(tid), "quarantine {n}");
            // The exact (entry, path) is refused the escalated cooldown...
            let cooldown = COOLDOWN << n.min(MAX_COOLDOWN_SHIFT);
            for left in (0..cooldown).rev() {
                match c.try_insert_and_link(entry, path.clone(), 0.99) {
                    Err(TraceCacheError::Quarantined { remaining, .. }) => {
                        assert_eq!(remaining, left, "quarantine {n}")
                    }
                    other => panic!("quarantine {n}: refusal expected, got {other:?}"),
                }
            }
            // ...then re-admitted under a fresh id.
            let (next, _) = c
                .try_insert_and_link(entry, path.clone(), 0.99)
                .expect("re-admission");
            assert_ne!(next, tid, "re-admission mints a fresh id");
            tid = next;
        }
        let h = c.health_stats();
        assert_eq!(h.cooldown_escalations, u64::from(repeats));
        assert_eq!(h.readmitted_watched, u64::from(repeats + 1));
        assert_eq!(h.demotions, 0, "a plain quarantine is no streak demotion");
        assert_eq!(h.probations, 0);
    }

    #[test]
    fn demote_spares_a_relinked_entry() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (old, _) = c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        // The constructor relinks the entry before the verdict lands.
        let (new, _) = c.insert_and_link(entry, vec![blk(1), blk(3)], 0.99);
        assert_eq!(c.demote(entry, old), None, "stale verdict skipped");
        assert_eq!(c.lookup_entry(entry), Some(new));
        assert_eq!(c.health_stats().demotions, 0);
        assert_eq!(c.demote(entry, new), Some(new));
        assert_eq!(c.health_stats().demotions, 1);
        let left: Vec<u32> = c.iter_quarantine().map(|(_, _, left)| left).collect();
        assert_eq!(left, [COOLDOWN]);
    }

    #[test]
    fn quarantine_only_blocks_the_exact_path() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        c.insert_and_link(entry, vec![blk(1), blk(2)], 0.99);
        c.quarantine(entry, 4);
        // A different path at the same entry is admitted.
        let (id, _) = c
            .try_insert_and_link(entry, vec![blk(1), blk(3)], 0.99)
            .expect("different path must be admitted");
        assert_eq!(c.lookup_entry(entry), Some(id));
        // The blacklisted path is still refused.
        assert!(c
            .try_insert_and_link(entry, vec![blk(1), blk(2)], 0.99)
            .is_err());
    }

    #[test]
    fn quarantine_without_link_is_a_noop() {
        let mut c = TraceCache::new();
        assert_eq!(c.quarantine((blk(0), blk(1)), 3), None);
        assert_eq!(c.iter_quarantine().count(), 0);
    }

    #[test]
    fn clearing_budget_disables_eviction() {
        let mut c = TraceCache::new();
        c.set_budget(Some(budget_for(1)));
        c.insert_and_link((blk(0), blk(1)), vec![blk(1), blk(2)], 0.99);
        c.set_budget(None);
        for i in 1..10u32 {
            c.insert_and_link(
                (blk(10 * i), blk(10 * i + 1)),
                vec![blk(10 * i + 1), blk(10 * i + 2)],
                0.99,
            );
        }
        assert_eq!(c.link_count(), 10);
        assert_eq!(c.stats().links_evicted, 0);
    }
}
