//! The hash-consed trace store and its policy, written once.
//!
//! The paper has one trace cache: signals in, traces hash-consed and
//! linked at their entry branches (§4.2). [`TraceCache`] is that cache,
//! and everything that decides *what* is cached lives here — the entry
//! links and the retention counters included. A VM owns one directly.
//! Like the paper's, the cache has no capacity bound: a trace object
//! lives until it is quarantined, and an unlinked one stays retrievable
//! by id. [`payload_bytes`](TraceCache::payload_bytes) reports its size
//! in the closed-form [`trace_cost`] accounting. Every link mutation
//! bumps [`version`](TraceCache::version), so inline BCG link slots and
//! in-flight cached dispatches revalidate.
//!
//! # Quarantine
//!
//! [`quarantine`](TraceCache::quarantine) *tombstones* a faulting trace
//! (its storage reclaimed and its sequence removed from the hash-cons
//! index, so a rebuild mints a fresh id; ids are never reused), removes
//! all its links and blacklists its `(entry, path)` key;
//! [`try_insert_and_link`](TraceCache::try_insert_and_link) then refuses
//! to rebuild that exact trace at that entry until the cooldown decays
//! (one tick per refused attempt), so a trace that keeps faulting cannot
//! thrash the constructor. A repeat quarantine at the same entry doubles
//! the cooldown, up to [`COOLDOWN`] `<<` [`MAX_COOLDOWN_SHIFT`]: the
//! anti-flap of the retention rule (see [`crate::health`]). The memory of
//! past quarantines per entry stays out of snapshots.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};

use jvm_bytecode::BlockId;
use trace_bcg::node::NO_TRACE_LINK;
use trace_bcg::{Branch, BranchCorrelationGraph, BranchHasher, BranchMap, NodeIdx, PackedBranch};

use crate::health::{HealthStats, COOLDOWN, MAX_COOLDOWN_SHIFT};
use crate::trace::{Trace, TraceId};

/// Fixed per-trace bookkeeping charge in the payload accounting: covers
/// the trace object, its hash-cons index entry, and the entry link(s).
/// A named constant so the conformance model can mirror the accounting
/// exactly.
pub const TRACE_BYTES_OVERHEAD: usize = 64;

/// The bytes a trace of `blocks` blocks adds to
/// [`TraceCache::payload_bytes`]. Deliberately a closed form over the
/// block count — not real allocator numbers — so the accounting is
/// reproducible in the conformance model.
pub fn trace_cost(blocks: usize) -> usize {
    blocks * std::mem::size_of::<BlockId>() + TRACE_BYTES_OVERHEAD
}

/// The hash-cons index's key for a block sequence.
fn blocks_hash(blocks: &[BlockId]) -> u64 {
    BuildHasherDefault::<BranchHasher>::default().hash_one(blocks)
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
    /// Trace objects tombstoned and their storage reclaimed. Only a
    /// quarantine tombstones, so this equals `traces_quarantined`.
    pub traces_evicted: u64,
    /// Traces tombstoned by a quarantine.
    pub traces_quarantined: u64,
    /// Construction attempts refused because the `(entry, path)` key is
    /// quarantined.
    pub quarantine_rejected: u64,
    /// Entry branches currently linked.
    pub links_live: usize,
}

/// The trace cache: trace objects hash-consed by block sequence, plus the
/// dispatch table linking entry branches to traces.
///
/// Separating *trace objects* from *entry links* mirrors the paper: several
/// entry branches may be "linked into the code" against the same cached
/// sequence, and relinking an entry never destroys a trace object (old
/// ids stay valid for the execution monitor). See the module docs for
/// the quarantine policy.
///
/// ```
/// use jvm_bytecode::{BlockId, FuncId};
/// use trace_cache::TraceCache;
///
/// let b = |i| BlockId::new(FuncId(0), i);
/// let mut cache = TraceCache::new();
/// let (id, created) = cache.insert_and_link((b(0), b(1)), &[b(1), b(2)], 0.98);
/// assert!(created);
/// // Dispatch check: taking branch (b0, b1) enters the trace.
/// assert_eq!(cache.lookup_entry((b(0), b(1))), Some(id));
/// assert_eq!(cache.trace(id).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TraceCache {
    /// Slot per id ever assigned; a tombstoned (quarantined) trace keeps
    /// its slot with empty blocks. Ids are never reused.
    traces: Vec<Trace>,
    /// Live entry-link keys per trace (the reverse of `by_entry`).
    entry_keys: Vec<Vec<PackedBranch>>,
    /// Hash-consing index: the [`BranchHasher`] hash of a block sequence
    /// → the live traces with that hash (almost always one). A probe
    /// compares against `traces[id].blocks`, so a sequence is stored
    /// once, in its trace. Tombstoned traces are removed, so a rebuild
    /// mints a fresh id.
    by_blocks: HashMap<u64, Vec<TraceId>, BuildHasherDefault<BranchHasher>>,
    /// The dispatch table: entry branch → linked trace. The dispatch
    /// check answers from a BCG node's inline link slot while it is
    /// current and probes this table when it is stale.
    by_entry: BranchMap<TraceId>,
    /// Entry → quarantines at that entry so far: the memory behind the
    /// cooldown escalation. Never pruned (one entry per branch that ever
    /// misbehaved), never snapshotted.
    flaps: BranchMap<u32>,
    /// Retention counters.
    health: HealthStats,
    /// Blacklist: entry key → (exact block path, refusals remaining).
    quarantined: BranchMap<(Vec<BlockId>, u32)>,
    /// [`trace_cost`] summed over live traces.
    payload: usize,
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
        self.by_entry.get(&PackedBranch::pack(entry)).copied()
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
            .map(|(b, &id)| (b.unpack(), self.trace(id)))
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
            links_live: self.by_entry.len(),
            ..self.stats
        }
    }

    /// The [`trace_cost`] sum over live (non-tombstoned) traces.
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

    /// Iterates over every trace object ever constructed — including
    /// unlinked ones, and tombstoned ones (which report empty blocks).
    pub fn iter_traces(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter()
    }

    /// Iterates over the quarantine blacklist: `(entry, path, refusals
    /// remaining)`, sorted by packed entry key (for deterministic
    /// comparison harnesses).
    pub fn iter_quarantine(&self) -> impl Iterator<Item = (Branch, &[BlockId], u32)> {
        let mut keys: Vec<PackedBranch> = self.quarantined.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.0);
        keys.into_iter().map(|k| {
            let (blocks, remaining) = &self.quarantined[&k];
            (k.unpack(), blocks.as_slice(), *remaining)
        })
    }

    /// Hash-conses a block sequence into the cache and links it at
    /// `entry`. Returns the trace id and whether a new trace object was
    /// constructed; only that case copies `blocks`.
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
        blocks: &[BlockId],
        expected_completion: f64,
    ) -> (TraceId, bool) {
        assert!(!blocks.is_empty(), "trace must contain at least one block");
        assert_eq!(
            entry.1, blocks[0],
            "entry branch must target the trace's first block"
        );
        let hash = blocks_hash(blocks);
        let (id, created) = match self.find(hash, blocks) {
            Some(id) => {
                self.stats.traces_reused += 1;
                (id, false)
            }
            None => {
                let id = TraceId(self.traces.len() as u32);
                self.payload += trace_cost(blocks.len());
                self.traces.push(Trace {
                    id,
                    blocks: blocks.to_vec(),
                    expected_completion,
                });
                self.entry_keys.push(Vec::new());
                self.by_blocks.entry(hash).or_default().push(id);
                self.stats.traces_constructed += 1;
                (id, true)
            }
        };
        let key = PackedBranch::pack(entry);
        let old = self.by_entry.insert(key, id);
        self.stats.links_written += 1;
        if old == Some(id) {
            // Rewriting the link already there: no lookup answers
            // differently, so no stamped slot needs to revalidate, and
            // nothing is re-admitted.
            return (id, created);
        }
        if let Some(old) = old {
            self.stats.links_replaced += 1;
            self.entry_keys[old.index()].retain(|&k| k != key);
        }
        self.entry_keys[id.index()].push(key);
        if self.flaps.contains_key(&key) {
            self.health.readmitted_watched += 1;
        }
        self.mutated();
        (id, created)
    }

    /// [`Self::insert_and_link`] behind the quarantine blacklist: if the
    /// exact `(entry, path)` key is quarantined the insert is refused
    /// (`None`, counted in [`CacheStats::quarantine_rejected`]), the
    /// cooldown ticks down by one, and at zero the key is re-admitted
    /// (the *next* attempt succeeds). A refusal only costs speed: the VM
    /// keeps dispatching blocks.
    pub fn try_insert_and_link(
        &mut self,
        entry: Branch,
        blocks: &[BlockId],
        expected_completion: f64,
    ) -> Option<(TraceId, bool)> {
        let key = PackedBranch::pack(entry);
        if let Some((_, remaining)) = self
            .quarantined
            .get_mut(&key)
            .filter(|(path, _)| path.as_slice() == blocks)
        {
            *remaining -= 1;
            if *remaining == 0 {
                self.quarantined.remove(&key);
            }
            self.stats.quarantine_rejected += 1;
            return None;
        }
        Some(self.insert_and_link(entry, blocks, expected_completion))
    }

    /// Removes the link at an entry branch, if any. Used when a trace's
    /// entry is found to no longer satisfy the criteria. The trace object
    /// stays retrievable by id.
    pub fn unlink(&mut self, entry: Branch) -> Option<TraceId> {
        let key = PackedBranch::pack(entry);
        let id = self.by_entry.remove(&key)?;
        self.stats.links_removed += 1;
        self.entry_keys[id.index()].retain(|&k| k != key);
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
        let flaps = self.flaps.entry(PackedBranch::pack(entry)).or_insert(0);
        let shift = (*flaps).min(MAX_COOLDOWN_SHIFT);
        *flaps += 1;
        if shift > 0 {
            self.health.cooldown_escalations += 1;
        }
        let cooldown = cooldown.saturating_mul(1 << shift);
        self.restore_quarantine(entry, self.traces[id.index()].blocks.clone(), cooldown);
        for k in std::mem::take(&mut self.entry_keys[id.index()]) {
            self.by_entry.remove(&k);
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
        self.quarantined
            .insert(PackedBranch::pack(entry), (blocks, cooldown.max(1)));
    }

    /// Closes a link mutation: the version bump makes every stamped BCG
    /// slot revalidate.
    fn mutated(&mut self) {
        self.version += 1;
        #[cfg(feature = "debug-invariants")]
        self.assert_cache_invariants();
    }

    /// The live trace whose block sequence is `blocks`, whose hash is
    /// `hash`.
    fn find(&self, hash: u64, blocks: &[BlockId]) -> Option<TraceId> {
        let ids = self.by_blocks.get(&hash)?;
        ids.iter()
            .copied()
            .find(|id| self.traces[id.index()].blocks == blocks)
    }

    /// Tombstones a trace: reclaims its bytes, and removes it from the
    /// hash-cons index so a rebuild mints a fresh id.
    fn tombstone(&mut self, id: TraceId) {
        let i = id.index();
        debug_assert!(self.entry_keys[i].is_empty());
        let blocks = std::mem::take(&mut self.traces[i].blocks);
        self.payload -= trace_cost(blocks.len());
        let hash = blocks_hash(&blocks);
        let ids = self
            .by_blocks
            .get_mut(&hash)
            .expect("a live trace is indexed");
        ids.retain(|&t| t != id);
        if ids.is_empty() {
            self.by_blocks.remove(&hash);
        }
        self.stats.traces_evicted += 1;
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
    ///   entry table under its trace and lands on that trace's first
    ///   block; the table holds nothing else; tombstones hold no links;
    ///   completion estimates lie in `(0, 1]`;
    /// - **payload accounting** — the payload counter equals the summed
    ///   [`trace_cost`] of the live traces.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_cache_invariants(&self) {
        let live = self.traces.iter().filter(|t| !t.blocks.is_empty()).count();
        let indexed: usize = self.by_blocks.values().map(Vec::len).sum();
        assert_eq!(
            indexed, live,
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
                self.find(blocks_hash(&t.blocks), &t.blocks),
                Some(t.id),
                "trace {i} must be findable under its own block sequence"
            );
            for &key in &self.entry_keys[i] {
                assert_eq!(
                    self.by_entry.get(&key),
                    Some(&t.id),
                    "entry table out of sync with the reverse list of trace {i}"
                );
                assert_eq!(
                    key.unpack().1,
                    t.blocks[0],
                    "entry link must land on its trace's first block"
                );
            }
            linked += self.entry_keys[i].len();
        }
        assert_eq!(payload, self.payload, "payload accounting drifted");
        // Every reverse-list key is in the table; equal counts leave no
        // room for a link the reverse lists do not know.
        assert_eq!(
            self.by_entry.len(),
            linked,
            "entry table holds a stray link"
        );
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
        let (id, created) = c.insert_and_link(entry, &[blk(1), blk(2)], 0.99);
        assert!(created);
        assert_eq!(c.lookup_entry(entry), Some(id));
        assert_eq!(c.trace(id).blocks(), &[blk(1), blk(2)]);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.link_count(), 1);
    }

    #[test]
    fn hash_consing_reuses_identical_sequences() {
        let mut c = TraceCache::new();
        let (a, created_a) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.99);
        // Same sequence, different entry context.
        let (b, created_b) = c.insert_and_link((blk(9), blk(1)), &[blk(1), blk(2)], 0.98);
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
        let (a, _) = c.insert_and_link(entry, &[blk(1), blk(2)], 0.99);
        let (b, _) = c.insert_and_link(entry, &[blk(1), blk(3)], 0.99);
        assert_ne!(a, b);
        assert_eq!(c.lookup_entry(entry), Some(b));
        assert_eq!(c.stats().links_replaced, 1);
        // Relinking the identical trace is not instability.
        let _ = c.insert_and_link(entry, &[blk(1), blk(3)], 0.99);
        assert_eq!(c.stats().links_replaced, 1);
        // Old trace object still retrievable by id.
        assert_eq!(c.trace(a).blocks(), &[blk(1), blk(2)]);
        // `links_live` is the entry table's size through every mutation.
        let other = (blk(9), blk(1));
        c.insert_and_link(other, &[blk(1), blk(3)], 0.99);
        assert_eq!((c.stats().links_live, c.link_count()), (2, 2));
        assert_eq!(c.unlink(entry), Some(b));
        assert_eq!((c.stats().links_live, c.link_count()), (1, 1));
        assert_eq!(c.quarantine(other, COOLDOWN), Some(b));
        assert_eq!((c.stats().links_live, c.link_count()), (0, 0));
    }

    #[test]
    fn unlink_removes_entry_but_keeps_trace() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (id, _) = c.insert_and_link(entry, &[blk(1), blk(2)], 0.99);
        assert_eq!(c.unlink(entry), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.trace_count(), 1);
        assert_eq!(c.unlink(entry), None);
    }

    #[test]
    #[should_panic(expected = "entry branch must target")]
    fn entry_must_match_first_block() {
        let mut c = TraceCache::new();
        let _ = c.insert_and_link((blk(0), blk(5)), &[blk(1), blk(2)], 0.99);
    }

    #[test]
    fn iterators_cover_links_and_traces() {
        let mut c = TraceCache::new();
        c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.9);
        c.insert_and_link((blk(2), blk(3)), &[blk(3), blk(4)], 0.9);
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
        let (id, _) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.99);
        // The version bump makes the stale negative stamp miss, so the
        // next cached lookup revalidates and finds the new link.
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(bcg.node(n).trace_link(), (c.version(), id.0));
    }

    #[test]
    fn unlink_invalidates_cached_positive() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (id, _) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(c.unlink((blk(0), blk(1))), Some(id));
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), None);
        assert_eq!(bcg.node(n).trace_link(), (c.version(), NO_TRACE_LINK));
    }

    #[test]
    fn unrelated_link_mutations_restamp_but_preserve_answers() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (id, _) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        // A mutation elsewhere bumps the version; the slot revalidates to
        // the same positive answer.
        c.insert_and_link((blk(7), blk(8)), &[blk(8), blk(9)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(id));
        assert_eq!(bcg.node(n).trace_link(), (c.version(), id.0));
    }

    #[test]
    fn relinking_entry_updates_cached_answer_across_versions() {
        let (mut bcg, n) = bcg_with_branch();
        let mut c = TraceCache::new();
        let (a, _) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2)], 0.99);
        assert_eq!(c.lookup_entry_cached(&mut bcg, n), Some(a));
        let (b, _) = c.insert_and_link((blk(0), blk(1)), &[blk(1), blk(3)], 0.99);
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
                c.insert_and_link((from, to), &[to, blk(to.block + 1)], 0.99);
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

    // --- quarantine ---

    /// Refusals left at the one blacklisted key, 0 once it is re-admitted.
    fn refusals_left(c: &TraceCache) -> u32 {
        let left: Vec<u32> = c.iter_quarantine().map(|(_, _, left)| left).collect();
        assert!(left.len() <= 1, "one blacklisted key at most: {left:?}");
        left.first().copied().unwrap_or(0)
    }

    #[test]
    fn quarantine_tombstones_blacklists_and_readmits_after_cooldown() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let (id, _) = c.insert_and_link(entry, &path, 0.99);
        // Second entry onto the same trace: quarantine removes both.
        let _ = c.insert_and_link((blk(9), blk(1)), &path, 0.99);
        assert_eq!(c.quarantine(entry, 2), Some(id));
        assert_eq!(c.lookup_entry(entry), None);
        assert_eq!(c.lookup_entry((blk(9), blk(1))), None, "all links removed");
        assert!(c.trace(id).is_empty(), "a quarantined trace is a tombstone");
        assert_eq!(c.iter_quarantine().count(), 1);
        // Two refused attempts decay the cooldown...
        assert_eq!(c.try_insert_and_link(entry, &path, 0.99), None);
        assert_eq!(refusals_left(&c), 1);
        assert_eq!(c.try_insert_and_link(entry, &path, 0.99), None);
        assert_eq!(refusals_left(&c), 0);
        // ...and the third succeeds with a fresh id.
        let (nid, created) = c.try_insert_and_link(entry, &path, 0.99).unwrap();
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
            .try_insert_and_link(entry, &path, 0.99)
            .expect("fresh insert");
        let repeats = MAX_COOLDOWN_SHIFT + 2;
        for n in 0..=repeats {
            assert_eq!(c.quarantine(entry, COOLDOWN), Some(tid), "quarantine {n}");
            // The exact (entry, path) is refused the escalated cooldown...
            let cooldown = COOLDOWN << n.min(MAX_COOLDOWN_SHIFT);
            for left in (0..cooldown).rev() {
                assert_eq!(
                    c.try_insert_and_link(entry, &path, 0.99),
                    None,
                    "quarantine {n}: refusal expected"
                );
                assert_eq!(refusals_left(&c), left, "quarantine {n}");
            }
            // ...then re-admitted under a fresh id.
            let (next, _) = c
                .try_insert_and_link(entry, &path, 0.99)
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
    fn rewriting_the_same_link_is_no_mutation_and_no_readmission() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let path = vec![blk(1), blk(2)];
        let (tid, _) = c.insert_and_link(entry, &path, 0.99);
        c.quarantine(entry, 1);
        assert_eq!(c.try_insert_and_link(entry, &path, 0.99), None);
        let (tid2, _) = c
            .try_insert_and_link(entry, &path, 0.99)
            .expect("re-admission");
        assert_ne!(tid2, tid);
        let (health, version) = (c.health_stats(), c.version());
        assert_eq!(health.readmitted_watched, 1);
        // The planner revisits the entry and writes the same link again.
        assert_eq!(c.insert_and_link(entry, &path, 0.99), (tid2, false));
        assert_eq!(
            c.health_stats(),
            health,
            "an identical rewrite re-admits nothing"
        );
        assert_eq!(c.version(), version, "an identical rewrite mutates nothing");
        assert_eq!(c.lookup_entry(entry), Some(tid2));
        // A different trace at the same entry is a re-admission again.
        c.insert_and_link(entry, &[blk(1), blk(3)], 0.99);
        assert_eq!(c.health_stats().readmitted_watched, 2);
        assert!(c.version() > version);
    }

    #[test]
    fn demote_spares_a_relinked_entry() {
        let mut c = TraceCache::new();
        let entry = (blk(0), blk(1));
        let (old, _) = c.insert_and_link(entry, &[blk(1), blk(2)], 0.99);
        // The constructor relinks the entry before the verdict lands.
        let (new, _) = c.insert_and_link(entry, &[blk(1), blk(3)], 0.99);
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
        c.insert_and_link(entry, &[blk(1), blk(2)], 0.99);
        c.quarantine(entry, 4);
        // A different path at the same entry is admitted.
        let (id, _) = c
            .try_insert_and_link(entry, &[blk(1), blk(3)], 0.99)
            .expect("different path must be admitted");
        assert_eq!(c.lookup_entry(entry), Some(id));
        // The blacklisted path is still refused.
        assert!(c
            .try_insert_and_link(entry, &[blk(1), blk(2)], 0.99)
            .is_none());
    }

    #[test]
    fn quarantine_without_link_is_a_noop() {
        let mut c = TraceCache::new();
        assert_eq!(c.quarantine((blk(0), blk(1)), 3), None);
        assert_eq!(c.iter_quarantine().count(), 0);
    }
}
