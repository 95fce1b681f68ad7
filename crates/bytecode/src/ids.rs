//! Typed identifiers for program entities.
//!
//! Newtypes keep function indices, class indices, block coordinates and
//! builder labels statically distinct (C-NEWTYPE). All of them are small
//! `Copy` values used as keys throughout the profiler and trace cache.

use std::fmt;

/// Every function id and every block index of a [`crate::Program`] is
/// below this: [`crate::ProgramBuilder::build`] refuses a program with
/// more than `ID_LIMIT` functions, or with a function of more than
/// `ID_LIMIT` basic blocks. The profiler packs a branch's four ids into
/// 16 bits each, so every built program's branches pack.
pub const ID_LIMIT: u32 = 0xFFFF;

/// Identifier of a function within a [`crate::Program`].
///
/// Assigned by [`crate::ProgramBuilder::declare_function`]; stable for the
/// lifetime of the program.
///
/// ```
/// use jvm_bytecode::FuncId;
/// let f = FuncId(3);
/// assert_eq!(f.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Returns the raw index into the program's function table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifier of a class within a [`crate::Program`].
///
/// ```
/// use jvm_bytecode::ClassId;
/// assert_eq!(ClassId(0).index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Returns the raw index into the program's class table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Coordinate of a basic block: a function plus the block's index inside it.
///
/// `BlockId` is the unit of the dynamic instruction stream observed by the
/// profiler: the interpreter performs exactly one *dispatch* per `BlockId`
/// entered (the direct-threaded-inlining model of the paper, Figure 2), and
/// a *branch* in the branch correlation graph is an ordered pair of
/// consecutively executed `BlockId`s.
///
/// ```
/// use jvm_bytecode::{BlockId, FuncId};
/// let b = BlockId::new(FuncId(1), 4);
/// assert_eq!(b.func, FuncId(1));
/// assert_eq!(b.block, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// The function containing the block.
    pub func: FuncId,
    /// The index of the block within the function's block table.
    pub block: u32,
}

impl BlockId {
    /// Creates a block coordinate from a function id and block index.
    #[inline]
    pub fn new(func: FuncId, block: u32) -> Self {
        BlockId { func, block }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:b{}", self.func, self.block)
    }
}

/// A forward-reference label used by [`crate::FunctionBuilder`].
///
/// Labels are created with [`crate::FunctionBuilder::new_label`], used as
/// branch targets, and bound to a position with
/// [`crate::FunctionBuilder::bind`]. They are meaningless outside the
/// builder that created them.
///
/// ```
/// use jvm_bytecode::ProgramBuilder;
/// let mut pb = ProgramBuilder::new();
/// let f = pb.declare_function("f", 0, false);
/// let l = pb.function_mut(f).new_label();
/// pb.function_mut(f).goto(l);
/// pb.function_mut(f).bind(l);
/// pb.function_mut(f).ret_void();
/// assert!(pb.build(f).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn func_id_roundtrip_and_display() {
        let f = FuncId(42);
        assert_eq!(f.index(), 42);
        assert_eq!(f.to_string(), "fn#42");
    }

    #[test]
    fn class_id_roundtrip_and_display() {
        let c = ClassId(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.to_string(), "class#7");
    }

    #[test]
    fn block_id_ordering_groups_by_function() {
        let a = BlockId::new(FuncId(0), 9);
        let b = BlockId::new(FuncId(1), 0);
        assert!(a < b, "blocks of earlier functions sort first");
    }

    #[test]
    fn block_id_usable_as_hash_key() {
        let mut set = HashSet::new();
        set.insert(BlockId::new(FuncId(0), 0));
        set.insert(BlockId::new(FuncId(0), 0));
        set.insert(BlockId::new(FuncId(0), 1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId::new(FuncId(2), 5).to_string(), "fn#2:b5");
    }
}
