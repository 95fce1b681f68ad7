//! Function model: signature, code, the per-function block table, and
//! the verifier's operand-stack facts.

use crate::cfg::{self, Block};
use crate::ids::FuncId;
use crate::instr::Instr;

/// What the verifier's fixpoint holds about a function's operand stack
/// when it accepts the function.
#[derive(Debug, Clone, Default)]
pub(crate) struct StackFacts {
    /// Deepest operand stack over all reachable pcs.
    pub(crate) max_stack: u32,
    /// Depth at entry to each pc; `UNREACHABLE` where the fixpoint never
    /// arrived.
    pub(crate) depth_at: Vec<u32>,
}

impl StackFacts {
    pub(crate) const UNREACHABLE: u32 = u32::MAX;
}

/// A function: signature, bytecode, its computed basic-block table, and
/// the verifier's operand-stack facts.
///
/// Functions are created through [`crate::ProgramBuilder`]; the block table
/// is computed when the program is built, and the stack facts are attached
/// once the program has passed verification.
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    id: FuncId,
    num_params: u16,
    num_locals: u16,
    returns_value: bool,
    code: Vec<Instr>,
    blocks: Vec<Block>,
    block_of_instr: Vec<u32>,
    /// Empty until the builder attaches a successful verification's.
    pub(crate) facts: StackFacts,
}

impl Function {
    /// Assembles a function from raw parts, computing its block table.
    ///
    /// Crate-private: the result is unverified and carries no stack
    /// facts; only [`crate::ProgramBuilder::build`] hands functions out.
    ///
    /// # Panics
    ///
    /// Panics if `code` is empty or `num_locals < num_params`.
    pub(crate) fn from_parts(
        name: String,
        id: FuncId,
        num_params: u16,
        num_locals: u16,
        returns_value: bool,
        code: Vec<Instr>,
    ) -> Self {
        assert!(!code.is_empty(), "function `{name}` has empty code");
        assert!(
            num_locals >= num_params,
            "function `{name}` has fewer locals than parameters"
        );
        let (blocks, block_of_instr) = cfg::build_blocks(&code);
        Function {
            name,
            id,
            num_params,
            num_locals,
            returns_value,
            code,
            blocks,
            block_of_instr,
            facts: StackFacts::default(),
        }
    }

    /// The function's name (unique within its program).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's id within its program.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Number of parameters (stored in locals `0..num_params`).
    pub fn num_params(&self) -> u16 {
        self.num_params
    }

    /// Total number of local slots, including parameters.
    pub fn num_locals(&self) -> u16 {
        self.num_locals
    }

    /// Whether the function returns a value (`Return`) or not
    /// (`ReturnVoid`).
    pub fn returns_value(&self) -> bool {
        self.returns_value
    }

    /// The instruction sequence.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The basic blocks, ordered by start instruction.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block containing instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn block_index_of(&self, pc: u32) -> u32 {
        self.block_of_instr[pc as usize]
    }

    /// The block with index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn block(&self, idx: u32) -> &Block {
        &self.blocks[idx as usize]
    }

    /// Number of instructions in block `idx`.
    #[inline]
    pub fn block_len(&self, idx: u32) -> u32 {
        self.blocks[idx as usize].len()
    }

    /// Maximum operand-stack depth over all reachable pcs, as the
    /// verifier proved it.
    #[inline]
    pub fn max_stack(&self) -> u32 {
        self.facts.max_stack
    }

    /// Operand-stack depth at entry to instruction `pc`, the same on
    /// every path as the verifier proved it; `None` where unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn depth_at(&self, pc: u32) -> Option<u32> {
        let d = self.facts.depth_at[pc as usize];
        (d != StackFacts::UNREACHABLE).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CmpOp;

    fn sample() -> Function {
        let code = vec![
            Instr::Load(0),
            Instr::IfI(CmpOp::Le, 4),
            Instr::IConst(1),
            Instr::Return,
            Instr::IConst(0),
            Instr::Return,
        ];
        Function::from_parts("sample".into(), FuncId(0), 1, 1, true, code)
    }

    #[test]
    fn accessors_reflect_parts() {
        let f = sample();
        assert_eq!(f.name(), "sample");
        assert_eq!(f.id(), FuncId(0));
        assert_eq!(f.num_params(), 1);
        assert_eq!(f.num_locals(), 1);
        assert!(f.returns_value());
        assert_eq!(f.code().len(), 6);
    }

    #[test]
    fn block_table_is_consistent_with_code() {
        let f = sample();
        assert_eq!(f.block_count(), 3);
        for pc in 0..f.code().len() as u32 {
            let b = f.block_index_of(pc);
            let blk = f.block(b);
            assert!(blk.start <= pc && pc < blk.end);
        }
    }

    #[test]
    fn block_len_matches_range() {
        let f = sample();
        for i in 0..f.block_count() as u32 {
            assert_eq!(f.block_len(i), f.block(i).end - f.block(i).start);
        }
    }

    #[test]
    #[should_panic(expected = "empty code")]
    fn empty_code_rejected() {
        let _ = Function::from_parts("bad".into(), FuncId(0), 0, 0, false, vec![]);
    }

    #[test]
    #[should_panic(expected = "fewer locals")]
    fn locals_must_cover_params() {
        let _ = Function::from_parts(
            "bad".into(),
            FuncId(0),
            2,
            1,
            false,
            vec![Instr::ReturnVoid],
        );
    }
}
