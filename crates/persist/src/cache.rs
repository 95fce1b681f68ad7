//! Serializable image of a [`TraceCache`]: linked traces, their entry
//! links, and the quarantine blacklist.
//!
//! The image is **canonical**: links are sorted by packed entry key and
//! traces densely renumbered by first appearance in that order, so
//! capturing, restoring into a fresh cache, and capturing again yields
//! byte-identical images regardless of the live cache's internal hash
//! order. Only *linked* traces are captured — unlinked and tombstoned
//! trace objects are process-local garbage a new fleet has no use for.

use std::collections::HashMap;

use jvm_bytecode::BlockId;
use trace_bcg::{Branch, PackedBranch};
use trace_cache::TraceCache;

use crate::error::SnapshotError;

/// One linked trace: its completion estimate (stored as raw `f64` bits
/// for exactness) and block sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceImage {
    /// `f64::to_bits` of the expected completion probability.
    pub completion_bits: u64,
    /// The trace's block sequence (non-empty).
    pub blocks: Vec<BlockId>,
}

impl TraceImage {
    /// The completion probability as a float.
    pub fn completion(&self) -> f64 {
        f64::from_bits(self.completion_bits)
    }
}

/// One quarantine blacklist entry: `(entry branch, refused path,
/// refusals remaining)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineImage {
    /// The blacklisted entry branch.
    pub entry: Branch,
    /// The exact block path that is refused at this entry.
    pub blocks: Vec<BlockId>,
    /// Construction refusals remaining before re-admission (≥ 1).
    pub cooldown: u32,
}

/// A serializable, canonical image of a trace cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheImage {
    /// Linked traces, densely numbered by first appearance in the
    /// sorted link order.
    pub traces: Vec<TraceImage>,
    /// `(entry branch, trace index)` links, sorted strictly ascending by
    /// packed entry key.
    pub links: Vec<(Branch, u32)>,
    /// Quarantine blacklist, sorted strictly ascending by packed entry
    /// key.
    pub quarantine: Vec<QuarantineImage>,
}

/// What [`CacheImage::restore_into`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Trace objects newly constructed in the target cache.
    pub traces_installed: usize,
    /// Entry links written.
    pub links_installed: usize,
    /// Quarantine entries restored.
    pub quarantine_restored: usize,
}

impl CacheImage {
    /// Captures a live cache as a canonical image.
    pub fn capture(cache: &TraceCache) -> CacheImage {
        let mut sorted: Vec<(u64, Branch, trace_cache::TraceId)> = cache
            .iter_links()
            .map(|(entry, trace)| (PackedBranch::pack(entry).0, entry, trace.id()))
            .collect();
        sorted.sort_unstable_by_key(|&(key, _, _)| key);
        let mut traces = Vec::new();
        let mut dense: HashMap<usize, u32> = HashMap::new();
        let mut links = Vec::with_capacity(sorted.len());
        for (_, entry, id) in sorted {
            let index = *dense.entry(id.index()).or_insert_with(|| {
                let t = cache.trace(id);
                traces.push(TraceImage {
                    completion_bits: t.expected_completion().to_bits(),
                    blocks: t.blocks().to_vec(),
                });
                (traces.len() - 1) as u32
            });
            links.push((entry, index));
        }
        let quarantine = cache
            .iter_quarantine()
            .map(|(entry, blocks, cooldown)| QuarantineImage {
                entry,
                blocks: blocks.to_vec(),
                cooldown,
            })
            .collect();
        CacheImage {
            traces,
            links,
            quarantine,
        }
    }

    /// Checks every internal-consistency rule of the image. The decoder
    /// calls this, and [`Self::restore_into`] calls it again, so a
    /// hand-built or tampered image can never drive the cache's
    /// insert-time panics.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let bad = |detail: String| SnapshotError::Malformed {
            section: "cache",
            detail,
        };
        for (i, t) in self.traces.iter().enumerate() {
            if t.blocks.is_empty() {
                return Err(bad(format!("trace {i} has no blocks")));
            }
            // (0, 1], the cache's own invariant: the constructor only
            // emits products of correlations at or above its threshold.
            let c = t.completion();
            if !(c > 0.0 && c <= 1.0) {
                return Err(bad(format!("trace {i} completion {c} outside (0, 1]")));
            }
        }
        let mut prev_key: Option<u64> = None;
        for &(entry, index) in &self.links {
            let key = PackedBranch::pack(entry).0;
            if let Some(p) = prev_key {
                if key <= p {
                    return Err(bad("links not sorted strictly by entry key".into()));
                }
            }
            prev_key = Some(key);
            let Some(trace) = self.traces.get(index as usize) else {
                return Err(bad(format!(
                    "link references trace {index} of {}",
                    self.traces.len()
                )));
            };
            if trace.blocks[0] != entry.1 {
                return Err(bad(format!(
                    "link entry {entry:?} does not land on its trace's first block"
                )));
            }
        }
        let mut prev_key: Option<u64> = None;
        for q in &self.quarantine {
            let key = PackedBranch::pack(q.entry).0;
            if let Some(p) = prev_key {
                if key <= p {
                    return Err(bad("quarantine not sorted strictly by entry key".into()));
                }
            }
            prev_key = Some(key);
            if q.blocks.is_empty() {
                return Err(bad(format!("quarantine entry {:?} has no path", q.entry)));
            }
            if q.cooldown == 0 {
                return Err(bad(format!(
                    "quarantine entry {:?} has zero cooldown",
                    q.entry
                )));
            }
        }
        Ok(())
    }

    /// Restores the image into a cache: installs every link (hash-consing
    /// deduplicates shared traces, exactly as for live inserts) and
    /// re-registers the quarantine blacklist.
    ///
    /// This is the warm-boot path, which deliberately does **not**
    /// consult the quarantine on insertion: the links being restored
    /// were admitted — past that same blacklist — by the process that
    /// wrote the snapshot.
    ///
    /// # Errors
    ///
    /// Re-validates first; the cache is untouched on error.
    pub fn restore_into(&self, cache: &mut TraceCache) -> Result<RestoreReport, SnapshotError> {
        self.validate()?;
        let mut report = RestoreReport::default();
        for &(entry, index) in &self.links {
            let t = &self.traces[index as usize];
            let (_, created) = cache.insert_and_link(entry, &t.blocks, t.completion());
            if created {
                report.traces_installed += 1;
            }
            report.links_installed += 1;
        }
        for q in &self.quarantine {
            cache.restore_quarantine(q.entry, q.blocks.clone(), q.cooldown);
            report.quarantine_restored += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn seeded_cache() -> TraceCache {
        let mut cache = TraceCache::new();
        cache.insert_and_link((blk(9), blk(0)), &[blk(0), blk(1), blk(2)], 0.95);
        cache.insert_and_link((blk(5), blk(0)), &[blk(0), blk(1), blk(2)], 0.95);
        cache.insert_and_link((blk(2), blk(3)), &[blk(3), blk(4)], 0.80);
        cache.restore_quarantine((blk(7), blk(8)), vec![blk(8), blk(9)], 3);
        cache
    }

    #[test]
    fn capture_restore_capture_is_identity() {
        let cache = seeded_cache();
        let image = CacheImage::capture(&cache);
        assert_eq!(image.traces.len(), 2, "shared trace captured once");
        assert_eq!(image.links.len(), 3);
        let mut fresh = TraceCache::new();
        let report = image.restore_into(&mut fresh).unwrap();
        assert_eq!(report.traces_installed, 2);
        assert_eq!(report.links_installed, 3);
        assert_eq!(report.quarantine_restored, 1);
        assert_eq!(CacheImage::capture(&fresh), image);
        // Restored links resolve like the originals.
        let id = fresh.lookup_entry((blk(9), blk(0))).unwrap();
        assert_eq!(fresh.trace(id).blocks().len(), 3);
        assert_eq!(
            fresh.lookup_entry((blk(9), blk(0))),
            fresh.lookup_entry((blk(5), blk(0)))
        );
    }

    #[test]
    fn validate_rejects_structural_corruption() {
        let image = CacheImage::capture(&seeded_cache());

        let mut dangling = image.clone();
        dangling.links[0].1 = 99;
        assert!(matches!(
            dangling.restore_into(&mut TraceCache::new()),
            Err(SnapshotError::Malformed { .. })
        ));

        let mut misaligned = image.clone();
        misaligned.links[0].0 .1 = blk(77);
        assert!(misaligned.validate().is_err());

        let mut unsorted = image.clone();
        unsorted.links.swap(0, 1);
        assert!(unsorted.validate().is_err());

        let mut empty_trace = image.clone();
        empty_trace.traces[0].blocks.clear();
        assert!(empty_trace.validate().is_err());

        let mut bad_completion = image;
        bad_completion.traces[0].completion_bits = f64::NAN.to_bits();
        assert!(bad_completion.validate().is_err());
    }

    #[test]
    fn restored_quarantine_still_refuses_construction() {
        let image = CacheImage::capture(&seeded_cache());
        let mut fresh = TraceCache::new();
        image.restore_into(&mut fresh).unwrap();
        let refused = fresh.try_insert_and_link((blk(7), blk(8)), &[blk(8), blk(9)], 0.9);
        assert_eq!(refused, None);
        assert_eq!(fresh.stats().quarantine_rejected, 1);
    }
}
