//! Packed branch keys and the one map type behind every branch-keyed
//! table.
//!
//! The profiler and the trace cache key their tables by a [`Branch`] — a
//! `(BlockId, BlockId)` pair, 128 bits of struct. [`PackedBranch`] folds
//! the pair into a single `u64`, and [`BranchMap`] / [`BranchSet`] are
//! std's `HashMap` / `HashSet` over that key under [`BranchHasher`], one
//! folded multiply per key instead of SipHash. Neither is on the
//! per-dispatch fast path: the profiler reaches its index only when lazy
//! construction meets a branch the inline cache did not predict
//! (§4.1.2), and the dispatch check answers from the BCG node's inline
//! link slot until a link mutation makes it revalidate.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::Branch;
use jvm_bytecode::{BlockId, FuncId};

/// A `Branch` packed into one word: `from.func : from.block : to.func :
/// to.block`, 16 bits each. The packing is injective over the supported
/// id range, so equality on the packed key is equality on the branch.
///
/// Every id of a built [`Program`](jvm_bytecode::Program) is in range:
/// [`ProgramBuilder::build`](jvm_bytecode::ProgramBuilder::build) refuses
/// a program with [`ID_LIMIT`](jvm_bytecode::ID_LIMIT) functions, or a
/// function with that many blocks, or more. [`PackedBranch::pack`]
/// asserts the range so a branch made up outside that contract fails
/// loudly instead of aliasing keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedBranch(pub u64);

impl PackedBranch {
    /// Every function id and block index must be below this to pack: the
    /// [`Program`](jvm_bytecode::Program) contract's
    /// [`ID_LIMIT`](jvm_bytecode::ID_LIMIT), which leaves each id 16 bits.
    pub const ID_LIMIT: u32 = jvm_bytecode::ID_LIMIT;

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
            a.max(b).max(c).max(d) < u64::from(Self::ID_LIMIT),
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

/// Fibonacci-hashing multiplier (the FxHash/rustc constant, 2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher of every [`BranchMap`]: a folded multiply. Each word is
/// multiplied 64×64→128 by the Fibonacci constant and the two halves are
/// XORed, so the low bits a SwissTable indexes by depend on every key
/// bit — a bare `k * MIX` leaves them blind to the three upper 16-bit
/// components of a packed key.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchHasher(u64);

impl Hasher for BranchHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(MIX);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Byte input (any key other than a [`PackedBranch`]) folds in one
    /// zero-padded little-endian word at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// std's `HashMap` keyed by packed branches under [`BranchHasher`].
pub type BranchMap<V> = HashMap<PackedBranch, V, BuildHasherDefault<BranchHasher>>;

/// std's `HashSet` of packed branches under [`BranchHasher`].
pub type BranchSet = HashSet<PackedBranch, BuildHasherDefault<BranchHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn blk(f: u32, b: u32) -> BlockId {
        BlockId::new(FuncId(f), b)
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<BranchHasher>::default().hash_one(value)
    }

    #[test]
    fn pack_roundtrips_and_is_injective() {
        let branches = [
            (blk(0, 0), blk(0, 0)),
            (blk(1, 2), blk(3, 4)),
            (blk(0xFFFE, 0xFFFE), blk(0xFFFE, 0xFFFE)),
            (blk(7, 0), blk(0, 7)),
            // Below the limit each, though together they set all 16 bits.
            (blk(0, 0x7FFF), blk(0, 0x8000)),
        ];
        let mut seen = BranchSet::default();
        for &br in &branches {
            let p = PackedBranch::pack(br);
            assert_eq!(p.unpack(), br);
            assert!(seen.insert(p));
        }
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn pack_rejects_oversized_ids() {
        PackedBranch::pack((blk(0x1_0000, 0), blk(0, 0)));
    }

    /// The range check is per component: one id at the limit is refused
    /// even though the packed bits would fit.
    #[test]
    #[should_panic(expected = "16 bits")]
    fn pack_rejects_a_block_at_the_limit() {
        PackedBranch::pack((blk(0, 0), blk(0, PackedBranch::ID_LIMIT)));
    }

    /// The low 12 bits of the hash — what a SwissTable of 4,096 buckets
    /// indexes by — spread keys that differ in any one 16-bit component
    /// of the packed key. A bare `k * MIX` maps every key that differs
    /// only above the low component to one bucket.
    #[test]
    fn every_key_component_reaches_the_low_hash_bits() {
        for shift in [0, 16, 32, 48] {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|i| hash_of(&PackedBranch(i << shift)) & 0xFFF)
                .collect();
            assert!(
                buckets.len() >= 2000,
                "component at bit {shift}: {} distinct buckets of 4096 keys",
                buckets.len()
            );
        }
    }

    /// Keys that hash through `Hasher::write` (not one `write_u64`) hash
    /// consistently and map correctly.
    #[test]
    fn byte_keys_hash_and_map() {
        assert_eq!(hash_of(&"branch-map"), hash_of(&String::from("branch-map")));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        let mut m: HashMap<String, usize, BuildHasherDefault<BranchHasher>> = HashMap::default();
        for i in 0..100 {
            m.insert(format!("key number {i}"), i);
        }
        assert!((0..100).all(|i| m[&format!("key number {i}")] == i));
    }
}
