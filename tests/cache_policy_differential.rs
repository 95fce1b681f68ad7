//! Private vs shared trace cache, op by op.
//!
//! `TraceCache` and `SharedTraceCache` are one cache (the shared one is
//! a lock around the same `TraceCache`, with an artifact payload and an
//! atomic copy of the version); what still differs is how it is reached.
//! This differential pins that nothing else does: seeded insert /
//! try-insert / unlink / quarantine / set-budget streams, with budgets
//! small enough to evict and one entry per stream that rots again and
//! again (repeat quarantines, so the cooldown escalates), run against
//! both, and after *every* op every entry lookup over the block
//! universe, the payload, the budget, each id's liveness and contents,
//! the quarantine list and every counter — retention counters included
//! — must agree. The private cache is the one the
//! conformance `ModelCache` checks event by event, so agreement carries
//! that check over to the shared cache's victim order and counters.
//!
//! `--features debug-invariants` runs the cache's structural asserts
//! after every op of both; `--features exhaustive-tests` deepens the sweep.

use tracecache_repro::bcg::Branch;
use tracecache_repro::bytecode::{BlockId, FuncId};
use tracecache_repro::tracecache::{
    trace_cost, SharedTraceCache, TraceCache, TraceCacheError, TraceId, COOLDOWN,
};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};

const BASE_SEED: u64 = 0xCAC4_E5EED;
const OPS_PER_SEED: usize = 400;
/// Blocks in the universe: small, so entries collide, paths hash-cons
/// and quarantined keys are retried.
const UNIVERSE: u32 = 6;

fn blk(b: u32) -> BlockId {
    BlockId::new(FuncId(0), b)
}

/// A path starting at `first`, from a pool of a few shapes per start
/// block so identical sequences recur.
fn random_path(rng: &mut Xoshiro256StarStar, first: BlockId) -> Vec<BlockId> {
    let (len, stride) = (rng.range_u32(1, 5), rng.range_u32(1, 3));
    (0..len)
        .map(|i| blk((first.block + i * stride) % UNIVERSE))
        .collect()
}

/// A quarantine refusal, reduced to what both caches must agree on.
fn refusals_left(r: Result<(TraceId, bool), TraceCacheError>) -> Result<(TraceId, bool), u32> {
    r.map_err(|e| match e {
        TraceCacheError::Quarantined { remaining, .. } => remaining,
        other => panic!("unexpected insert error: {other:?}"),
    })
}

fn assert_same_state(private: &TraceCache, shared: &SharedTraceCache<()>, at: &str) {
    for (from, to) in (0..UNIVERSE).flat_map(|f| (0..UNIVERSE).map(move |t| (f, t))) {
        let entry = (blk(from), blk(to));
        let (p, s) = (private.lookup_entry(entry), shared.lookup_entry(entry));
        assert_eq!(p, s, "{at}: link at {entry:?}");
    }
    assert_eq!(private.payload_bytes(), shared.payload_bytes(), "{at}");
    assert_eq!(private.budget(), shared.budget(), "{at}");
    assert_eq!(private.link_count(), shared.link_count(), "{at}");
    assert_eq!(private.trace_count(), shared.trace_count(), "{at}");
    for id in (0..private.trace_count() as u32).map(TraceId::from_raw) {
        let (p, s) = (private.trace_checked(id).ok(), shared.trace(id));
        assert_eq!(p, s.as_ref(), "{at}: trace {id}");
    }
    let quarantine: Vec<(Branch, Vec<BlockId>, u32)> = private
        .iter_quarantine()
        .map(|(entry, path, left)| (entry, path.to_vec(), left))
        .collect();
    assert_eq!(quarantine, shared.quarantine_snapshot(), "{at}");
    assert_eq!(private.stats(), shared.stats(), "{at}");
    assert_eq!(private.health_stats(), shared.health_stats(), "{at}");
}

#[test]
fn private_and_shared_caches_agree_after_every_op() {
    let seeds = if cfg!(feature = "exhaustive-tests") {
        512
    } else {
        64
    };
    let budgets = [
        None,
        Some(0),
        Some(trace_cost(2)),
        Some(3 * trace_cost(3)),
        Some(6 * trace_cost(4)),
    ];
    let (mut evictions, mut refusals, mut escalations) = (0, 0, 0);
    for k in 0..seeds {
        let seed = seed_stream(BASE_SEED, k);
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut private = TraceCache::new();
        let shared: SharedTraceCache<()> = SharedTraceCache::new();
        // The entry that rots again and again in this stream.
        let rotten = (
            blk(rng.range_u32(0, UNIVERSE)),
            blk(rng.range_u32(0, UNIVERSE)),
        );
        let rotten_path = random_path(&mut rng, rotten.1);
        for op in 0..OPS_PER_SEED {
            let at = format!("seed {seed:#x} op {op}");
            let entry = (
                blk(rng.range_u32(0, UNIVERSE)),
                blk(rng.range_u32(0, UNIVERSE)),
            );
            match rng.next_below(12) {
                0..=3 => {
                    let path = random_path(&mut rng, entry.1);
                    let p = private.insert_and_link(entry, path.clone(), 0.98);
                    let s = shared.insert_and_link(entry, path, 0.98);
                    assert_eq!(p, s, "{at}: insert");
                }
                4..=6 => {
                    let path = random_path(&mut rng, entry.1);
                    let p = refusals_left(private.try_insert_and_link(entry, path.clone(), 0.97));
                    let s = refusals_left(shared.try_insert_and_link(entry, path, 0.97));
                    assert_eq!(p, s, "{at}: try-insert");
                }
                7 => assert_eq!(private.unlink(entry), shared.unlink(entry), "{at}: unlink"),
                8 => {
                    let cooldown = rng.range_u32(0, 4);
                    let p = private.quarantine(entry, cooldown);
                    assert_eq!(p, shared.quarantine(entry, cooldown), "{at}: quarantine");
                }
                9 | 10 => {
                    // The rotten entry: rebuilt when its cooldown allows,
                    // quarantined again as soon as it is linked.
                    let (p, s) = (
                        refusals_left(private.try_insert_and_link(
                            rotten,
                            rotten_path.clone(),
                            0.97,
                        )),
                        refusals_left(shared.try_insert_and_link(
                            rotten,
                            rotten_path.clone(),
                            0.97,
                        )),
                    );
                    assert_eq!(p, s, "{at}: rotten try-insert");
                    let p = private.quarantine(rotten, COOLDOWN);
                    assert_eq!(p, shared.quarantine(rotten, COOLDOWN), "{at}: re-rot");
                }
                _ => {
                    let budget = *rng.pick(&budgets);
                    private.set_budget(budget);
                    shared.set_budget(budget, |()| 0);
                }
            }
            assert_same_state(&private, &shared, &at);
        }
        evictions += private.stats().links_evicted;
        refusals += private.stats().quarantine_rejected;
        escalations += private.health_stats().cooldown_escalations;
    }
    // The streams must actually reach the policy's corners.
    assert!(evictions > 0, "no op stream evicted anything");
    assert!(refusals > 0, "no op stream hit the quarantine blacklist");
    assert!(escalations > 0, "no op stream escalated a cooldown");
}
