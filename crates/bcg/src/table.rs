//! Packed branch keys and the open-addressed table behind every
//! per-dispatch lookup.
//!
//! The profiler and the trace cache both key their hot tables by a
//! [`Branch`](crate::Branch) — a `(BlockId, BlockId)` pair, 128 bits of
//! struct. Hashing that through SipHash in `std::collections::HashMap`
//! costs more than the paper's entire per-dispatch budget ("a couple of
//! comparisons and a counter bump", §4.1.2). [`PackedBranch`] folds the
//! pair into a single `u64`, and [`BranchTable`] probes a power-of-two
//! open-addressed array with one multiply of hashing — the same design
//! point as rustc's FxHashMap, but specialised to `u64` keys so the
//! empty-slot sentinel lives in the key itself and a probe touches one
//! contiguous slot array.

use crate::Branch;
use jvm_bytecode::{BlockId, FuncId};

/// A `Branch` packed into one word: `from.func : from.block : to.func :
/// to.block`, 16 bits each. The packing is injective over the supported
/// id range, so equality on the packed key is equality on the branch.
///
/// The id-range limit (functions and block indices below `2^16`) is far
/// above anything the workload generators produce; [`PackedBranch::pack`]
/// asserts it so an out-of-range program fails loudly instead of
/// aliasing keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedBranch(pub u64);

/// Key value reserved for empty slots: unreachable from `pack` because a
/// packed key of all-ones would need every component to be `0xFFFF`,
/// which the range assert rejects.
const EMPTY: u64 = u64::MAX;

impl PackedBranch {
    /// Every function id and block index must be below this to pack: 16
    /// bits each, with all-ones reserved so no key is the empty-slot
    /// sentinel.
    pub const ID_LIMIT: u32 = 0xFFFF;

    /// Packs a branch into its key. Panics if any component id is
    /// [`Self::ID_LIMIT`] or more (see type docs).
    #[inline]
    pub fn pack(branch: Branch) -> Self {
        let (from, to) = branch;
        let a = u64::from(from.func.0);
        let b = u64::from(from.block);
        let c = u64::from(to.func.0);
        let d = u64::from(to.block);
        assert!(
            (a | b | c | d) < u64::from(Self::ID_LIMIT),
            "block/function ids must fit in 16 bits to pack a branch key"
        );
        Self(a << 48 | b << 32 | c << 16 | d)
    }

    /// Inverse of [`pack`](Self::pack).
    #[inline]
    pub fn unpack(self) -> Branch {
        let v = self.0;
        let from = BlockId::new(FuncId((v >> 48) as u32), (v >> 32) as u32 & 0xFFFF);
        let to = BlockId::new(FuncId((v >> 16) as u32 & 0xFFFF), v as u32 & 0xFFFF);
        (from, to)
    }
}

/// Open-addressed hash table from [`PackedBranch`] keys to small `Copy`
/// values, built for the block-dispatch hot path:
///
/// * power-of-two capacity, linear probing, ≤ 7/8 load;
/// * FxHash-style multiplicative hashing (one `wrapping_mul`, high bits
///   select the home slot);
/// * the empty sentinel is a key value, so a slot is 12–16 bytes and a
///   probe is one array read plus one compare;
/// * deletion uses backward shifting, not tombstones, so probe chains
///   never degrade under unlink churn.
#[derive(Debug, Clone, Default)]
pub struct BranchTable<V> {
    /// `(key, value)` slots; `key == EMPTY` marks a free slot. Length is
    /// zero (unallocated) or a power of two.
    slots: Vec<(u64, V)>,
    len: usize,
}

/// Fibonacci-hashing multiplier (the FxHash/rustc constant, 2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

const MIN_CAPACITY: usize = 16;

impl<V: Copy + Default> BranchTable<V> {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slot count (zero until the first insert).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes held by the slot array — the table's true footprint, used
    /// by `memory_estimate` instead of guessed std-HashMap layouts.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u64, V)>()
    }

    /// Home slot for a key: multiply, keep the high bits that address
    /// the table. High bits mix far better than a mask of the low bits
    /// for the near-sequential ids the packer produces.
    #[inline]
    fn home(&self, key: u64) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        let shift = 64 - self.slots.len().trailing_zeros();
        (key.wrapping_mul(MIX) >> shift) as usize
    }

    #[inline]
    pub fn get(&self, key: PackedBranch) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key.0);
        loop {
            let (k, v) = self.slots[i];
            if k == key.0 {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or replaces, returning the previous value if any.
    pub fn insert(&mut self, key: PackedBranch, value: V) -> Option<V> {
        debug_assert_ne!(key.0, EMPTY);
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key.0);
        loop {
            let (k, v) = self.slots[i];
            if k == key.0 {
                self.slots[i].1 = value;
                return Some(v);
            }
            if k == EMPTY {
                self.slots[i] = (key.0, value);
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes a key with backward-shift deletion: entries displaced
    /// past the vacated slot are pulled back so lookups never need
    /// tombstones.
    pub fn remove(&mut self, key: PackedBranch) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key.0);
        loop {
            let (k, _) = self.slots[i];
            if k == EMPTY {
                return None;
            }
            if k == key.0 {
                break;
            }
            i = (i + 1) & mask;
        }
        let removed = self.slots[i].1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let (k, _) = self.slots[j];
            if k == EMPTY {
                break;
            }
            // Move k back into the hole only if doing so does not jump
            // it before its home slot (cyclic distance check).
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Iterates live `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PackedBranch, V)> + '_ {
        self.slots
            .iter()
            .filter(|(k, _)| *k != EMPTY)
            .map(|&(k, v)| (PackedBranch(k), v))
    }

    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.0 = EMPTY;
        }
        self.len = 0;
    }

    /// Makes room for `additional` more keys: the next `additional`
    /// inserts of new keys never grow the table. One rehash at most,
    /// straight to the final capacity, instead of one per doubling.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        if additional == 0 || need * 8 <= self.slots.len() * 7 {
            return;
        }
        let mut cap = self.slots.len().max(MIN_CAPACITY);
        while need * 8 > cap * 7 {
            cap *= 2;
        }
        self.rehash(cap);
    }

    fn grow(&mut self) {
        self.rehash((self.slots.len() * 2).max(MIN_CAPACITY));
    }

    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); new_cap]);
        let len = self.len;
        self.len = 0;
        for (k, v) in old {
            if k != EMPTY {
                self.insert(PackedBranch(k), v);
            }
        }
        debug_assert_eq!(self.len, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(f: u32, b: u32) -> BlockId {
        BlockId::new(FuncId(f), b)
    }

    fn key(a: u32, b: u32) -> PackedBranch {
        PackedBranch::pack((blk(0, a), blk(0, b)))
    }

    #[test]
    fn pack_roundtrips_and_is_injective() {
        let branches = [
            (blk(0, 0), blk(0, 0)),
            (blk(1, 2), blk(3, 4)),
            (blk(0xFFFE, 0xFFFE), blk(0xFFFE, 0xFFFE)),
            (blk(7, 0), blk(0, 7)),
        ];
        let mut seen = std::collections::HashSet::new();
        for &br in &branches {
            let p = PackedBranch::pack(br);
            assert_eq!(p.unpack(), br);
            assert!(seen.insert(p.0));
            assert_ne!(p.0, u64::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn pack_rejects_oversized_ids() {
        PackedBranch::pack((blk(0x1_0000, 0), blk(0, 0)));
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: BranchTable<u32> = BranchTable::new();
        assert!(t.is_empty());
        for i in 0..500u32 {
            assert_eq!(t.insert(key(i, i + 1), i), None);
        }
        assert_eq!(t.len(), 500);
        for i in 0..500u32 {
            assert_eq!(t.get(key(i, i + 1)), Some(i));
        }
        assert_eq!(t.get(key(600, 601)), None);
        // Replace returns the old value.
        assert_eq!(t.insert(key(3, 4), 99), Some(3));
        assert_eq!(t.get(key(3, 4)), Some(99));
        // Remove half, confirm the rest survive backward shifting.
        for i in (0..500u32).step_by(2) {
            let expect = if i == 3 { 99 } else { i };
            assert_eq!(t.remove(key(i, i + 1)), Some(expect));
        }
        assert_eq!(t.len(), 250);
        for i in 0..500u32 {
            let got = t.get(key(i, i + 1));
            if i % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(if i == 3 { 99 } else { i }));
            }
        }
        assert_eq!(t.remove(key(600, 601)), None);
    }

    #[test]
    fn capacity_stays_power_of_two_and_load_bounded() {
        let mut t: BranchTable<u32> = BranchTable::new();
        for i in 0..10_000u32 {
            t.insert(key(i % 4096, i / 4096 + 1), i);
            assert!(t.capacity().is_power_of_two());
            assert!(t.len() * 8 <= t.capacity() * 7);
        }
    }

    #[test]
    fn reserve_fills_without_growing_and_keeps_contents() {
        let mut t: BranchTable<u32> = BranchTable::new();
        t.reserve(0);
        assert_eq!(t.capacity(), 0, "reserve(0) allocates nothing");
        for i in 0..20u32 {
            t.insert(key(i, 0), i);
        }
        let before = t.capacity();
        t.reserve(0);
        assert_eq!(t.capacity(), before, "reserve(0) is a no-op");
        t.reserve(1000);
        let cap = t.capacity();
        assert!(cap.is_power_of_two() && cap > before);
        for i in 0..20u32 {
            assert_eq!(t.get(key(i, 0)), Some(i), "reserve keeps contents");
        }
        for i in 20..1020u32 {
            t.insert(key(i, 1), i);
            assert_eq!(t.capacity(), cap, "grew while filling reserved room");
        }
        assert_eq!(t.len(), 1020);
        t.reserve(0);
        assert_eq!(t.capacity(), cap);
        for i in 20..1020u32 {
            assert_eq!(t.get(key(i, 1)), Some(i));
        }
    }

    #[test]
    fn iter_yields_every_live_entry() {
        let mut t: BranchTable<u32> = BranchTable::new();
        for i in 0..64u32 {
            t.insert(key(i, 0), i);
        }
        for i in 0..32u32 {
            t.remove(key(i, 0));
        }
        let mut got: Vec<(Branch, u32)> = t.iter().map(|(k, v)| (k.unpack(), v)).collect();
        got.sort_by_key(|&(_, v)| v);
        assert_eq!(got.len(), 32);
        for (idx, (br, v)) in got.into_iter().enumerate() {
            let i = idx as u32 + 32;
            assert_eq!(v, i);
            assert_eq!(br, (blk(0, i), blk(0, 0)));
        }
    }

    /// Differential check against std::HashMap under a seeded stream of
    /// mixed operations — the structural half of the ISSUE's
    /// differential-testing satellite (the full-system half lives in
    /// the workspace-level tests).
    #[test]
    fn differential_vs_std_hashmap() {
        use std::collections::HashMap;
        // SplitMix64 inline so this crate stays dependency-free.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut table: BranchTable<u32> = BranchTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for step in 0..200_000u32 {
            let r = next();
            // Small key universe so hits, collisions, and deletes of
            // present keys all happen constantly.
            let k = key((r >> 8) as u32 % 512, (r >> 24) as u32 % 7);
            match r % 4 {
                0 | 1 => {
                    assert_eq!(table.insert(k, step), model.insert(k.0, step));
                }
                2 => {
                    assert_eq!(table.remove(k), model.remove(&k.0));
                }
                _ => {
                    assert_eq!(table.get(k), model.get(&k.0).copied());
                }
            }
            assert_eq!(table.len(), model.len());
        }
        let mut a: Vec<(u64, u32)> = table.iter().map(|(k, v)| (k.0, v)).collect();
        let mut b: Vec<(u64, u32)> = model.into_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
