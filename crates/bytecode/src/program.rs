//! The whole-program container.

use std::sync::OnceLock;

use crate::cfg::Block;
use crate::class::Class;
use crate::disasm;
use crate::function::{Function, StackFacts};
use crate::ids::{BlockId, ClassId, FuncId};

/// A complete, verified program: functions, classes and an entry point.
///
/// A `Program` is its own proof of verification:
/// [`crate::ProgramBuilder::build`] is the only way to obtain one, after
/// the [`crate::verifier`] accepted it, and every [`Function`] carries
/// the operand-stack facts that analysis proved. The raw constructors
/// are private to this crate, so skipping the verifier does not compile:
///
/// ```compile_fail
/// use jvm_bytecode::{Function, FuncId, Instr, Program};
/// // No locals, yet a store to slot 60000 (`VerifyError::BadLocal`): an
/// // interpreter trusting this would write far outside its frame.
/// let code = vec![
///     Instr::IConst(7),
///     Instr::Store(60000),
///     Instr::Load(60000),
///     Instr::Pop,
///     Instr::ReturnVoid,
/// ];
/// let f = Function::from_parts("main".into(), FuncId(0), 0, 0, false, code);
/// let unverified = Program::from_parts(vec![f], vec![], FuncId(0));
/// ```
///
/// Programs are immutable once built, which lets the VM, profiler and
/// trace cache share `&Program` freely.
#[derive(Debug, Clone)]
pub struct Program {
    functions: Vec<Function>,
    classes: Vec<Class>,
    entry: FuncId,
    /// Memo of [`Program::content_hash`].
    content_hash: OnceLock<u64>,
}

impl Program {
    /// Assembles a program from parts. Crate-private: the result is
    /// unverified until the builder has run [`Program::attach_facts`].
    ///
    /// # Panics
    ///
    /// Panics if function ids are not dense (`functions[i].id() == i`) or
    /// the entry id is out of range.
    pub(crate) fn from_parts(functions: Vec<Function>, classes: Vec<Class>, entry: FuncId) -> Self {
        for (i, f) in functions.iter().enumerate() {
            assert_eq!(f.id().index(), i, "function ids must be dense");
        }
        assert!(
            entry.index() < functions.len(),
            "entry function out of range"
        );
        Program {
            functions,
            classes,
            entry,
            content_hash: OnceLock::new(),
        }
    }

    /// Attaches the per-function facts of a successful verification
    /// (one per function, in id order).
    pub(crate) fn attach_facts(&mut self, facts: Vec<StackFacts>) {
        debug_assert_eq!(facts.len(), self.functions.len());
        for (func, facts) in self.functions.iter_mut().zip(facts) {
            debug_assert_eq!(facts.depth_at.len(), func.code().len());
            func.facts = facts;
        }
    }

    /// The program's content hash: FNV-1a 64 over its full disassembly
    /// listing ([`disasm::program_to_string`]), so any bytecode change
    /// produces a different hash. Computed on first use and kept with
    /// the (immutable) program; clones carry the memo.
    pub fn content_hash(&self) -> u64 {
        *self
            .content_hash
            .get_or_init(|| fnv1a64(disasm::program_to_string(self).as_bytes()))
    }

    /// The entry function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// All functions, indexed by [`FuncId`].
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// All classes, indexed by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The block designated by a [`BlockId`].
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        self.function(id.func).block(id.block)
    }

    /// Number of instructions in the designated block.
    #[inline]
    pub fn block_len(&self, id: BlockId) -> u32 {
        self.function(id.func).block_len(id.block)
    }

    /// Total number of static basic blocks across all functions.
    pub fn total_blocks(&self) -> usize {
        self.functions.iter().map(Function::block_count).sum()
    }

    /// Total number of static instructions across all functions.
    pub fn total_instructions(&self) -> usize {
        self.functions.iter().map(|f| f.code().len()).sum()
    }
}

/// FNV-1a 64-bit hash of `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn two_function_program() -> Program {
        let f0 = Function::from_parts(
            "main".into(),
            FuncId(0),
            0,
            0,
            false,
            vec![
                Instr::InvokeStatic(FuncId(1)),
                Instr::Pop,
                Instr::ReturnVoid,
            ],
        );
        let f1 = Function::from_parts(
            "leaf".into(),
            FuncId(1),
            0,
            0,
            true,
            vec![Instr::IConst(5), Instr::Return],
        );
        Program::from_parts(vec![f0, f1], vec![], FuncId(0))
    }

    #[test]
    fn program_is_send_sync_clone_with_its_hash_memo() {
        fn shared<T: Send + Sync + Clone>(_: &T) {}
        let p = two_function_program();
        shared(&p);
        let h = p.content_hash();
        assert_eq!(h, fnv1a64(disasm::program_to_string(&p).as_bytes()));
        assert_eq!(p.clone().content_hash(), h);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lookup_by_id() {
        let p = two_function_program();
        assert_eq!(p.entry(), FuncId(0));
        assert_eq!(p.function(FuncId(1)).name(), "leaf");
    }

    #[test]
    fn block_queries() {
        let p = two_function_program();
        assert_eq!(p.total_blocks(), 3);
        assert_eq!(p.total_instructions(), 5);
        assert_eq!(p.block_len(BlockId::new(FuncId(1), 0)), 2);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let f = Function::from_parts("f".into(), FuncId(3), 0, 0, false, vec![Instr::ReturnVoid]);
        let _ = Program::from_parts(vec![f], vec![], FuncId(0));
    }

    #[test]
    #[should_panic(expected = "entry")]
    fn bad_entry_rejected() {
        let f = Function::from_parts("f".into(), FuncId(0), 0, 0, false, vec![Instr::ReturnVoid]);
        let _ = Program::from_parts(vec![f], vec![], FuncId(9));
    }
}
