//! Register-machine lowering: from a checked block chain to a virtual-
//! register linear IR.
//!
//! [`crate::compile()`] checks a trace's block chain and names the control
//! step that leaves each block; the straight-line instructions in
//! between are read here, from the [`Program`] itself. A real tracing JIT
//! resolves its operand traffic *at compile time*: inside a trace every
//! value's producer and consumer are known, so stack slots can be
//! renamed to virtual registers and the pushes and pops deleted (the
//! coldbrew and b3-rs pipelines in SNIPPETS.md §1/§3 are the exemplars).
//! This pass runs an abstract interpretation of the operand stack along
//! the chain:
//!
//! * each stack slot is renamed to a fresh virtual register (SSA-style:
//!   every [`RInstr`] writes a new register), so `load a; load b; iadd;
//!   store d` becomes one three-address [`RInstr::Bin`];
//! * locals are renamed too — a `load` of a slot the trace already holds
//!   in a register is deleted outright, and `store`s merely rebind the
//!   rename table (marking the slot *dirty*);
//! * constants are pre-resolved out of the pools into a per-trace
//!   constant table, loaded into the register file once at entry;
//! * compare-and-branch pairs collapse into single guard ops on
//!   registers ([`RInstr::GuardCond`]/[`RInstr::GuardSwitch`]);
//! * every guard carries a side-exit record ([`RExit`]) with a
//!   [`FrameImage`]: the dirty local slots to write back and the
//!   register list to push, reconstructing the operand-stack frame the
//!   interpreter expects at exactly the guarded instruction. Deopt is
//!   therefore transparent: the resumed interpreter re-executes the
//!   guarded instruction with identical semantics.
//!
//! **Accounting transparency.** Deleted instructions still cost fuel:
//! every eliminated op adds one to the *weight* of the next emitted
//! instruction (`w`), and guards carry the accumulated weight of the
//! eliminated ops before them (`pre`), charged before the guard
//! evaluates. Batching is observationally identical to per-op ticking —
//! only the last tick of a batch can fail, and both schemes leave the
//! instruction counter saturated at the fuel limit — so the register
//! path executes *exactly* the interpreter's instruction count, a
//! property the differential tests pin down.
//!
//! **Trace entry mid-function.** A trace may start at a block whose
//! entry stack depth is nonzero. The lowering seeds its model from the
//! depth the verifier proved for that pc, which the program carries
//! ([`jvm_bytecode::Function::depth_at`] — a lookup, nothing is
//! re-analysed per trace), and pulls real entry-stack values into
//! registers lazily ([`RInstr::PullStack`]) only when an instruction
//! actually consumes one.
//!
//! **The final terminator.** The trace runs its last block's terminator
//! itself, whatever it is, as its one final instruction: a conditional
//! branch, `goto` or fall-through ([`RInstr::FinalBranch`]), a
//! `tableswitch` ([`RInstr::FinalSwitch`]), a static or virtual call
//! ([`RInstr::FinalCall`]) or a return ([`RInstr::FinalReturn`]). A
//! branch's or switch's frame image is taken after the operands are
//! popped, and each successor gets a resume record on its block's
//! *entry marker*, so the loop makes the successor's dispatch itself. A
//! call resumes on the callee's entry marker in its fresh frame, and a
//! return on the marker of the block its caller continues in — a block
//! the caller frame knows, not the trace. When the branch into the
//! successor links a trace the engine skips that dispatch instead: it
//! closes the loop in place when the trace is this one, and goes on into
//! the other one from the marker otherwise (see `regexec`). Only a
//! return from the outermost frame, which ends the program, is handed
//! back *on* the return, for the loop to execute.
//!
//! **Calls.** Static calls and guarded virtual calls materialize the
//! caller frame (arguments must cross the real stack into the callee
//! frame), then continue lowering in a fresh callee context. In-trace
//! returns whose continuation is statically known ([`RInstr::RetStatic`])
//! pop the frame with the return value staying in a register; returns
//! from the trace's entry depth keep a runtime continuation guard.
//!
//! **Allocation safety.** `new`/`newarray` may trigger a collection, and
//! the collector roots only real frames — so both materialize the full
//! frame image first, collect, then truncate the stack back. Lowering is
//! sequential, so any register a later instruction reads is still
//! referenced by the abstract state at every allocation point and thus
//! rooted through the materialized frame.
//!
//! **Frame bounds.** The executor indexes the interpreter's frame slab
//! without release-mode bounds checks, so the lowering *checks* the
//! bounds it relies on instead of assuming them: a trace is refused
//! unless every local slot it reads or writes back is below its frame's
//! `num_locals`, every side exit's [`FrameImage`] rebuilds *exactly* the
//! operand-stack depth the verifier proved at the exit's resume pc, and
//! every call / allocation image fits its frame's verifier-proven
//! operand-stack bound (invariant R2 in DESIGN.md); a final branch's or
//! switch's image must rebuild exactly the depth proved at *every*
//! successor's first instruction. It likewise refuses a trace that does
//! not end in exactly one final instruction, which is what hands the
//! frame back to the interpreter loop.
//!
//! Lowering is *total* on the traces the engine compiles, with a few
//! `None` refusals (the engine then never enters the trace —
//! interpreter-only, never wrong): an in-trace return whose recorded
//! continuation contradicts the static call site, a continuation block
//! the verifier found unreachable (it has no entry depth),
//! register-file overflow, and a violated frame bound or exit depth.

use jvm_bytecode::{BlockId, ClassId, CmpOp, FuncId, Instr, Intrinsic, Program};
use jvm_vm::decode::op;
use jvm_vm::{DecodedProgram, Value};
use trace_bcg::Branch;
use trace_cache::TraceId;

use crate::compile::{compile_blocks, CompiledTrace, CondKind, Step};

/// A virtual register index into the trace's flat register file.
pub type Reg = u16;

/// The operation of a [`RInstr::Bin`]: the decoded opcode of a stack
/// binop (`iadd` … `fdiv`), evaluated and named by `jvm-vm` exactly as
/// the interpreter evaluates and names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RBin(pub u8);

impl RBin {
    fn of(ins: &Instr) -> Option<RBin> {
        Some(RBin(match ins {
            Instr::IAdd => op::IADD,
            Instr::ISub => op::ISUB,
            Instr::IMul => op::IMUL,
            Instr::IDiv => op::IDIV,
            Instr::IRem => op::IREM,
            Instr::IShl => op::ISHL,
            Instr::IShr => op::ISHR,
            Instr::IUShr => op::IUSHR,
            Instr::IAnd => op::IAND,
            Instr::IOr => op::IOR,
            Instr::IXor => op::IXOR,
            Instr::FAdd => op::FADD,
            Instr::FSub => op::FSUB,
            Instr::FMul => op::FMUL,
            Instr::FDiv => op::FDIV,
            _ => return None,
        }))
    }
}

/// The operation of a [`RInstr::Un`]: the decoded opcode of `ineg`,
/// `fneg`, `i2f` or `f2i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RUn(pub u8);

/// How to rebuild the interpreter's frame from the register file: the
/// local slots the trace holds newer values for, and the register list
/// to push onto the (partially real) operand stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameImage {
    /// Number of *real* (never pulled) values already on the frame's
    /// operand stack at this point; the registers in `stack` sit above
    /// them.
    pub base: u32,
    /// Registers to push, bottom to top.
    pub stack: Box<[Reg]>,
    /// `(local slot, register)` pairs to write back, ascending by slot.
    pub dirty: Box<[(u16, Reg)]>,
}

/// A resume record: where the interpreter resumes when a guard fails or
/// the trace hands back, plus the frame image and the per-block
/// accounting at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RExit {
    /// Function owning the resume point.
    pub func: FuncId,
    /// Decoded resume pc: a guarded instruction (past its block's entry
    /// marker) or, for a [`RInstr::FinalBranch`] successor, the
    /// successor block's entry marker itself.
    pub dpc: u32,
    /// Block index containing it: for a guard, the dispatch counted at
    /// the exit and the block the profiler re-anchors at; for a final
    /// branch, the successor block.
    pub block: u32,
    /// Source blocks fully executed before the guard or branch (static —
    /// they sit at known positions in the trace).
    pub blocks_done: u32,
    /// Index into [`RegTrace::images`].
    pub image: u32,
}

/// What a [`RInstr::FinalCall`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A static call of this function.
    Static(FuncId),
    /// A virtual call through a vtable slot on a receiver register.
    Virtual {
        /// Vtable slot.
        slot: u16,
        /// Receiver register.
        recv: Reg,
    },
}

/// One instruction of a register-lowered trace. Operands are virtual
/// registers; `w` is the fuel weight (this instruction plus the
/// eliminated stack ops folded into it), `pre` a guard's pre-evaluation
/// weight, `exit` an index into [`RegTrace::exits`], `image` an index
/// into [`RegTrace::images`].
#[derive(Debug, Clone, PartialEq)]
pub enum RInstr {
    /// Pop one *real* entry-stack value into `dst`. Pure data movement —
    /// never costs fuel.
    PullStack {
        /// Destination register.
        dst: Reg,
    },
    /// `dst = locals[slot]` — first read of a local the trace has not
    /// renamed yet.
    LoadLocal {
        /// Local slot.
        slot: u16,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = locals[slot] + imm` — an `iinc` of an unrenamed local.
    IncLocal {
        /// Local slot.
        slot: u16,
        /// Destination register.
        dst: Reg,
        /// Increment.
        imm: i32,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = src + imm` — an `iinc` of a renamed local.
    IncReg {
        /// Current register of the local.
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Increment.
        imm: i32,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = a <op> b` — three-address binary op.
    Bin {
        /// Operation.
        op: RBin,
        /// Left operand.
        a: Reg,
        /// Right operand (type-checked first, matching interpreter pop
        /// order).
        b: Reg,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = <op> a` — unary op.
    Un {
        /// Operation.
        op: RUn,
        /// Operand.
        a: Reg,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// An intrinsic over registers; `dst` is written only when the
    /// intrinsic returns a value.
    Intrinsic {
        /// The intrinsic.
        i: Intrinsic,
        /// First operand.
        a: Reg,
        /// Second operand for two-argument intrinsics (type-checked
        /// first, matching pop order).
        b: Reg,
        /// Destination register (unused unless the intrinsic returns).
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = obj.field`.
    GetField {
        /// Object reference register.
        obj: Reg,
        /// Field index.
        field: u16,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `obj.field = val`.
    PutField {
        /// Object reference register.
        obj: Reg,
        /// Value register.
        val: Reg,
        /// Field index.
        field: u16,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = arr[idx]`.
    ALoad {
        /// Array reference register.
        arr: Reg,
        /// Index register.
        idx: Reg,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `arr[idx] = val`.
    AStore {
        /// Array reference register.
        arr: Reg,
        /// Index register.
        idx: Reg,
        /// Value register.
        val: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// `dst = arr.length`.
    ArrayLen {
        /// Array reference register.
        arr: Reg,
        /// Destination register.
        dst: Reg,
        /// Fuel weight.
        w: u32,
    },
    /// Allocate an object. Materializes `image` first (collection
    /// roots), collects if due, then truncates the stack back.
    NewObj {
        /// Class to instantiate.
        class: ClassId,
        /// Field count (resolved at lowering).
        nfields: u16,
        /// Destination register.
        dst: Reg,
        /// Frame image for collection rooting.
        image: u32,
        /// Fuel weight.
        w: u32,
    },
    /// Allocate an array of length `regs[len]`; same rooting protocol.
    NewArray {
        /// Length register.
        len: Reg,
        /// Destination register.
        dst: Reg,
        /// Frame image for collection rooting.
        image: u32,
        /// Fuel weight.
        w: u32,
    },
    /// Fused compare-and-branch guard: side-exit unless the comparison
    /// outcome equals `expected_taken`.
    GuardCond {
        /// Branch shape.
        kind: CondKind,
        /// Left operand (unary kinds use only `a`).
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Direction the trace recorded.
        expected_taken: bool,
        /// Side-exit record.
        exit: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// Guarded `tableswitch` on a register selector; the table's targets
    /// and default are decoded marker indices (injective over blocks, so
    /// comparing them is comparing successor blocks).
    GuardSwitch {
        /// The jump table, as a [`RegTrace::switches`] offset.
        table: u32,
        /// Decoded marker the trace expects.
        expected: u32,
        /// Selector register.
        selector: Reg,
        /// Side-exit record.
        exit: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// Static call: materialize `image` (arguments cross the real
    /// stack), set the caller's continuation pc, push the callee frame.
    EnterStatic {
        /// The callee.
        callee: FuncId,
        /// Decoded continuation pc in the caller.
        ret: u32,
        /// Frame image (all live values).
        image: u32,
        /// Fuel weight.
        w: u32,
    },
    /// Virtual call with a receiver guard; on pass, materializes the
    /// exit's image and pushes the callee frame.
    GuardVirtual {
        /// Vtable slot.
        slot: u16,
        /// Argument count including the receiver.
        argc: u16,
        /// Receiver register.
        recv: Reg,
        /// Callee the trace recorded.
        expected: FuncId,
        /// Decoded continuation pc in the caller.
        ret: u32,
        /// Side-exit record (its image doubles as the call
        /// materialization).
        exit: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// In-trace return whose continuation was proven statically: pop the
    /// callee frame; the return value (if any) stays in a register.
    RetStatic {
        /// Fuel weight.
        w: u32,
    },
    /// Return at the trace's entry depth: runtime continuation guard,
    /// then pop the frame and push the value onto the *real* caller
    /// stack.
    GuardReturn {
        /// Whether a value is returned.
        has_value: bool,
        /// Return-value register (unused when `has_value` is false).
        retval: Reg,
        /// The continuation block the trace recorded.
        expected: BlockId,
        /// Side-exit record.
        exit: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// The final block's conditional branch, `goto` or fall-through, run
    /// in-trace: a branch is evaluated and charged like
    /// [`RInstr::GuardCond`]'s passing outcome, then the image is written
    /// back and the chosen successor's record resumes the loop on its
    /// entry marker — unless the branch into the successor links a trace:
    /// the executor then jumps back to the top of the code when that is
    /// this trace (a loop closing) and goes on into the other one
    /// otherwise. Always the last instruction, as is every `Final*`.
    FinalBranch {
        /// Branch shape; `None` for a `goto` or a fall-through, whose
        /// fuel (one for a `goto`, none for a fall-through) is in `pre`.
        kind: Option<CondKind>,
        /// Left operand (unary kinds use only `a`).
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Resume records of the fall-through and the taken successor,
        /// indexed by the outcome; `kind: None` names its one record
        /// twice. Both share one image.
        exits: [u32; 2],
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// The final block's `tableswitch`, run in-trace: the selector picks
    /// a successor's resume record, which continues as a
    /// [`RInstr::FinalBranch`] successor does.
    FinalSwitch {
        /// The table, as a [`RegTrace::switches`] offset: the resume
        /// record of each entry's successor and of the out-of-range one,
        /// all sharing one image.
        table: u32,
        /// Selector register.
        selector: Reg,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// The final block's static or virtual call, run in-trace: materialize
    /// `image` (arguments cross the real stack), resolve the callee (no
    /// guard: any callee is this trace's successor), push its frame, and
    /// continue as a [`RInstr::FinalBranch`] successor does, on the
    /// callee's entry block.
    FinalCall {
        /// The callee, or how to resolve it.
        target: CallTarget,
        /// Argument count including any receiver.
        argc: u16,
        /// Decoded continuation pc in the caller.
        ret: u32,
        /// Frame image (all live values, arguments on top).
        image: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
    /// The final block's return, run in-trace: pop the frame, push the
    /// value (if any) onto the *real* caller stack, and continue as a
    /// [`RInstr::FinalBranch`] successor does, on the block the caller
    /// resumes in. A return from the outermost frame ends the program,
    /// which is the loop's to do: it hands back *on* the return through
    /// `exit`, and the loop executes (and charges) it.
    FinalReturn {
        /// Whether a value is returned.
        has_value: bool,
        /// Return-value register (unused when `has_value` is false).
        retval: Reg,
        /// Resume record on the return itself.
        exit: u32,
        /// Pre-evaluation fuel weight.
        pre: u32,
    },
}

// Every variant but the two switches fits in 24 bytes; the switches keep
// their tables out of line, in the trace's switch pool, so that they fit
// too.
const _: () = assert!(std::mem::size_of::<RInstr>() == 24);

/// Every `tableswitch` table of one trace, in one allocation. A table
/// is four header words — `low` (low word first), `default` and the
/// table's length — followed by the table itself; a
/// [`RInstr::GuardSwitch`] or [`RInstr::FinalSwitch`] names its table by
/// the offset of its first header word, which only lowering mints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchPool(Box<[u32]>);

/// One table of a [`SwitchPool`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchTable<'a> {
    /// Selector value mapped to `targets[0]`.
    pub low: i64,
    /// The out-of-range entry.
    pub default: u32,
    /// The table: decoded markers of a [`RInstr::GuardSwitch`], resume
    /// records of a [`RInstr::FinalSwitch`].
    pub targets: &'a [u32],
}

impl SwitchPool {
    const HEADER: usize = 4;

    /// The table at offset `at`. Panics on an offset lowering did not
    /// mint.
    pub fn table(&self, at: u32) -> SwitchTable<'_> {
        let at = at as usize;
        let head = &self.0[at..at + Self::HEADER];
        let start = at + Self::HEADER;
        SwitchTable {
            low: i64::from(head[0]) | i64::from(head[1]) << 32,
            default: head[2],
            targets: &self.0[start..start + head[3] as usize],
        }
    }

    /// Heap bytes the pool holds.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }

    /// Appends a table to the pool under construction `words`; returns
    /// its offset.
    fn push(words: &mut Vec<u32>, low: i64, default: u32, targets: &[u32]) -> u32 {
        let at = words.len() as u32;
        words.extend([
            low as u32,
            (low >> 32) as u32,
            default,
            targets.len() as u32,
        ]);
        words.extend_from_slice(targets);
        at
    }
}

/// Per-trace lowering statistics, aggregated by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Compiled (stack) instructions before lowering.
    pub before: usize,
    /// Register instructions after lowering.
    pub after: usize,
    /// Virtual registers allocated (register-file size).
    pub regs: u64,
    /// Stack ops eliminated outright (loads of renamed locals, stores,
    /// constants, stack shuffles, jumps).
    pub eliminated: u64,
    /// Compare-and-branch pairs fused into single guard ops.
    pub guards_fused: u64,
}

/// A trace lowered to register form, ready for the engine's register
/// loop. Every array is allocated at its exact length, once, when
/// lowering finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct RegTrace {
    /// The cache id this was lowered from.
    pub trace_id: TraceId,
    /// The register instruction sequence.
    pub code: Box<[RInstr]>,
    /// `(register, value)` pairs loaded into the register file at entry.
    pub consts: Box<[(Reg, Value)]>,
    /// Side-exit records, indexed by guards.
    pub exits: Box<[RExit]>,
    /// Frame images, indexed by exits and allocation/call instructions.
    pub images: Box<[FrameImage]>,
    /// The tables of the trace's switches.
    pub switches: SwitchPool,
    /// The source block sequence (side-exit context reconstruction and
    /// completion accounting).
    pub src_blocks: Box<[BlockId]>,
    /// Register-file size.
    pub num_regs: u16,
    /// Lowering statistics for this trace.
    pub stats: RegStats,
}

impl RegTrace {
    /// Number of source basic blocks.
    pub fn blocks(&self) -> usize {
        self.src_blocks.len()
    }

    /// The branch from the last source block back to the first: the one
    /// a loop closing re-enters the trace by.
    pub(crate) fn loop_branch(&self) -> Branch {
        let last = *self.src_blocks.last().expect("traces are nonempty");
        (last, self.src_blocks[0])
    }

    /// Every heap byte the lowered trace holds.
    pub fn memory_estimate(&self) -> usize {
        use std::mem::size_of_val;
        let mut bytes = size_of_val(&*self.code)
            + size_of_val(&*self.consts)
            + size_of_val(&*self.exits)
            + size_of_val(&*self.images)
            + self.switches.bytes()
            + size_of_val(&*self.src_blocks);
        for img in self.images.iter() {
            bytes += size_of_val(&*img.stack) + size_of_val(&*img.dirty);
        }
        bytes
    }
}

/// One lowering context: the function a stretch of trace code executes
/// in, with its local rename table and abstract stack.
struct Ctx {
    func: FuncId,
    /// `slot -> (register, dirty)`; `dirty` means the register holds a
    /// newer value than `frame.locals[slot]`.
    rename: Vec<Option<(Reg, bool)>>,
    /// Abstract operand stack, bottom to top, as registers.
    stack: Vec<Reg>,
    /// Real entry-stack values below the abstract stack, not yet pulled.
    pending: u32,
    /// For saved caller contexts: the continuation block the paired
    /// return must target.
    cont_block: BlockId,
}

impl Ctx {
    /// A fresh context for `func`. The rename table is sized to the
    /// frame region the arena allocates for it, so a slot the table
    /// admits is a slot inside the region.
    fn new(decoded: &DecodedProgram, func: FuncId) -> Ctx {
        Ctx {
            func,
            rename: vec![None; usize::from(decoded.func(func).num_locals)],
            stack: Vec::new(),
            pending: 0,
            cont_block: BlockId::new(func, 0),
        }
    }

    /// The operand-stack depth this context stands for: the real entry
    /// values not yet pulled plus the abstract stack.
    fn depth(&self) -> u64 {
        u64::from(self.pending) + self.stack.len() as u64
    }
}

struct Lowering<'a> {
    program: &'a Program,
    decoded: &'a DecodedProgram,
    code: Vec<RInstr>,
    consts: Vec<(Reg, Value)>,
    exits: Vec<RExit>,
    images: Vec<FrameImage>,
    /// The switch pool's words.
    switches: Vec<u32>,
    /// Scratch for a frame image's dirty slots, copied out at its exact
    /// length.
    dirty: Vec<(u16, Reg)>,
    ctx: Ctx,
    callers: Vec<Ctx>,
    next_reg: u32,
    /// Accumulated fuel weight of eliminated ops since the last emitted
    /// weighted instruction.
    pending_w: u32,
    /// Source blocks fully processed so far.
    block_idx: u32,
    eliminated: u64,
    guards_fused: u64,
}

impl<'a> Lowering<'a> {
    fn fresh(&mut self) -> Option<Reg> {
        if self.next_reg >= u16::MAX as u32 {
            return None;
        }
        let r = self.next_reg as Reg;
        self.next_reg += 1;
        Some(r)
    }

    /// Register holding `v`, deduplicated bit-exactly.
    fn const_reg(&mut self, v: Value) -> Option<Reg> {
        let same = |a: &Value| match (a, &v) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null) => true,
            _ => false,
        };
        if let Some(&(r, _)) = self.consts.iter().find(|(_, a)| same(a)) {
            return Some(r);
        }
        let r = self.fresh()?;
        self.consts.push((r, v));
        Some(r)
    }

    /// Accounts one eliminated source instruction: its fuel folds into
    /// the next emitted instruction's weight.
    fn elim(&mut self) {
        self.pending_w += 1;
        self.eliminated += 1;
    }

    fn take_w(&mut self) -> u32 {
        let w = self.pending_w + 1;
        self.pending_w = 0;
        w
    }

    fn take_pre(&mut self) -> u32 {
        std::mem::take(&mut self.pending_w)
    }

    /// Pops one real entry-stack value into a fresh register; it becomes
    /// the new *bottom* of the abstract stack.
    fn pull(&mut self) -> Option<()> {
        if self.ctx.pending == 0 {
            // Verified code cannot underflow its entry depth.
            return None;
        }
        let dst = self.fresh()?;
        self.code.push(RInstr::PullStack { dst });
        self.ctx.pending -= 1;
        self.ctx.stack.insert(0, dst);
        Some(())
    }

    fn ensure(&mut self, n: usize) -> Option<()> {
        while self.ctx.stack.len() < n {
            self.pull()?;
        }
        Some(())
    }

    fn pop1(&mut self) -> Option<Reg> {
        self.ensure(1)?;
        self.ctx.stack.pop()
    }

    /// The rename-table entry of local `slot`; `None` (refusing the
    /// trace) when the slot is outside the frame's locals.
    fn local(&mut self, slot: u16) -> Option<&mut Option<(Reg, bool)>> {
        self.ctx.rename.get_mut(usize::from(slot))
    }

    /// Snapshots the current frame image; `None` if its stack would not
    /// fit the frame's region. (Dirty slots index the rename table, so
    /// they are inside the frame's locals by construction.)
    fn image(&mut self) -> Option<u32> {
        let max_stack = self.decoded.func(self.ctx.func).max_stack;
        if self.ctx.depth() > u64::from(max_stack) {
            return None;
        }
        self.dirty.clear();
        self.dirty.extend(
            self.ctx
                .rename
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| match e {
                    Some((r, true)) => Some((slot as u16, *r)),
                    _ => None,
                }),
        );
        self.images.push(FrameImage {
            base: self.ctx.pending,
            stack: Box::from(self.ctx.stack.as_slice()),
            dirty: Box::from(self.dirty.as_slice()),
        });
        Some((self.images.len() - 1) as u32)
    }

    /// Builds a side-exit record anchored at source `(func, pc)` with
    /// the current frame image and block accounting. The interpreter
    /// resumes *at* `pc`, so the image must rebuild exactly the operand
    /// stack the verifier proved there — `None` (trace refused) if the
    /// abstract stack disagrees.
    fn exit_for(&mut self, func: FuncId, pc: u32) -> Option<u32> {
        self.check_depth(func, pc)?;
        let image = self.image()?;
        let dpc = self.decoded.func(func).pc_map[pc as usize];
        Some(self.push_exit(func, dpc, image))
    }

    /// A final branch's resume record on the entry marker of the block
    /// starting at source pc `start`, sharing the branch's one `image`:
    /// the loop resumes by dispatching that block. The image must
    /// rebuild exactly the depth the verifier proved at `start`.
    fn marker_exit(&mut self, func: FuncId, start: u32, image: u32) -> Option<u32> {
        self.check_depth(func, start)?;
        let dpc = self.decoded.func(func).block_entry(start);
        Some(self.push_exit(func, dpc, image))
    }

    /// `Some` when the current frame is `func`'s — images are checked
    /// against the *current* frame, so an exit must anchor in it — and
    /// the abstract stack is exactly the depth the verifier proved at
    /// `pc`.
    fn check_depth(&self, func: FuncId, pc: u32) -> Option<()> {
        let depth = self.program.function(func).depth_at(pc).map(u64::from);
        (func == self.ctx.func && depth == Some(self.ctx.depth())).then_some(())
    }

    fn push_exit(&mut self, func: FuncId, dpc: u32, image: u32) -> u32 {
        self.exits.push(RExit {
            func,
            dpc,
            block: self.decoded.func(func).block_of[dpc as usize],
            blocks_done: self.block_idx,
            image,
        });
        (self.exits.len() - 1) as u32
    }

    /// Marks every renamed local clean — called after an emitted
    /// instruction materializes the frame at runtime.
    fn mark_clean(&mut self) {
        for e in self.ctx.rename.iter_mut().flatten() {
            e.1 = false;
        }
    }

    /// Entry stack depth of `block`'s first instruction, as the verifier
    /// proved it; `None` for a block it found unreachable.
    fn entry_depth(&self, block: BlockId) -> Option<u32> {
        let func = self.program.function(block.func);
        func.depth_at(func.block(block.block).start)
    }

    /// Switches into a callee context after a call returning to decoded
    /// pc `ret`, saving the caller. `argc` is the callee's total
    /// argument count. At runtime the call instruction materializes the
    /// caller's image (abstract values land on the real stack) and the
    /// frame push pops `argc` of them into the callee's locals — so the
    /// callee starts with its shallow argument slots renamed *clean* to
    /// the registers that fed them, and the caller resumes with
    /// everything real.
    fn enter_callee(&mut self, callee: FuncId, argc: u16, ret: u32) -> Option<()> {
        let abs_len = self.ctx.stack.len();
        let k = (argc as usize).min(abs_len);
        let mut callee_ctx = Ctx::new(self.decoded, callee);
        if usize::from(argc) > callee_ctx.rename.len() {
            return None;
        }
        for j in 0..k {
            // Arguments deeper than the abstract stack were already real;
            // they reach the callee's low slots through the real stack.
            let slot = argc as usize - k + j;
            let r = self.ctx.stack[abs_len - k + j];
            callee_ctx.rename[slot] = Some((r, false));
        }
        let caller_func = self.ctx.func;
        debug_assert!(self.ctx.pending as usize + abs_len >= argc as usize);
        self.ctx.pending = self.ctx.pending + abs_len as u32 - argc as u32;
        self.ctx.stack.clear();
        self.mark_clean();
        self.ctx.cont_block = BlockId::new(
            caller_func,
            self.decoded.func(caller_func).block_of[ret as usize],
        );
        let saved = std::mem::replace(&mut self.ctx, callee_ctx);
        self.callers.push(saved);
        Some(())
    }
}

/// The whole artifact build, [`compile_blocks`] → [`lower_reg`]: the one
/// way a block chain becomes executable. `None` — permanently, for this
/// chain — when it no longer matches the program's control flow or the
/// lowering refuses it; the trace is then never entered.
pub(crate) fn build_trace(
    program: &Program,
    decoded: &DecodedProgram,
    trace_id: TraceId,
    blocks: &[BlockId],
) -> Option<RegTrace> {
    let ct = compile_blocks(program, trace_id, blocks).ok()?;
    lower_reg(program, decoded, &ct)
}

/// Lowers a compiled trace to register form. `decoded` is read-only:
/// constants ride in the per-trace table, not the decoded pools.
///
/// Returns `None` when the trace cannot be expressed in register form
/// (see the module docs); the engine then never enters it.
pub fn lower_reg(
    program: &Program,
    decoded: &DecodedProgram,
    ct: &CompiledTrace,
) -> Option<RegTrace> {
    let first = *ct.src_blocks.first()?;
    // Sized from the chain so the working arrays rarely grow (each growth
    // is a `realloc`): at most one instruction per source instruction bar
    // entry-stack pulls, about one exit and one image per block, and a
    // handful of constants.
    let mut lo = Lowering {
        program,
        decoded,
        code: Vec::with_capacity(ct.src_instrs),
        consts: Vec::with_capacity(8),
        exits: Vec::with_capacity(ct.steps.len() + 1),
        images: Vec::with_capacity(ct.steps.len() + 1),
        switches: Vec::new(),
        dirty: Vec::new(),
        ctx: Ctx::new(decoded, first.func),
        callers: Vec::new(),
        next_reg: 0,
        pending_w: 0,
        block_idx: 0,
        eliminated: 0,
        guards_fused: 0,
    };
    lo.ctx.pending = lo.entry_depth(first)?;

    let mut fall_throughs = 0;
    for (&blk, &step) in ct.src_blocks.iter().zip(&ct.steps) {
        let func = blk.func;
        let source = program.function(func);
        let block = source.block(blk.block);
        // Every step but a fall-through sits on the block's terminator.
        let pc = block.end - 1;
        let terminator = &source.code()[pc as usize];
        let body_end = if terminator.is_terminator() {
            pc
        } else {
            block.end
        };
        for ins in &source.code()[block.start as usize..body_end as usize] {
            lo.lower_op(ins)?;
        }
        match step {
            Step::Jump => {
                // A goto costs one instruction but transfers no data; its
                // fuel folds into the next weight.
                lo.elim();
            }
            Step::FallThrough => {
                // Not an instruction — a block-boundary marker.
                fall_throughs += 1;
            }
            Step::GuardCond {
                kind,
                expected_taken,
            } => {
                lo.ensure(kind.arity())?;
                let n = lo.ctx.stack.len();
                let (a, b) = if kind.arity() == 2 {
                    (lo.ctx.stack[n - 2], lo.ctx.stack[n - 1])
                } else {
                    (lo.ctx.stack[n - 1], lo.ctx.stack[n - 1])
                };
                // The exit image keeps the operands on the abstract
                // stack: a failed guard resumes at the branch, which
                // re-pops them.
                let exit = lo.exit_for(func, pc)?;
                for _ in 0..kind.arity() {
                    lo.ctx.stack.pop();
                }
                let pre = lo.take_pre();
                lo.code.push(RInstr::GuardCond {
                    kind,
                    a,
                    b,
                    expected_taken,
                    exit,
                    pre,
                });
                lo.guards_fused += 1;
            }
            Step::GuardSwitch { expected_pc } => {
                let Instr::TableSwitch {
                    low,
                    targets,
                    default,
                } = &source.code()[pc as usize]
                else {
                    return None;
                };
                lo.ensure(1)?;
                let selector = *lo.ctx.stack.last().expect("ensured");
                let exit = lo.exit_for(func, pc)?;
                lo.ctx.stack.pop();
                let pre = lo.take_pre();
                let df = lo.decoded.func(func);
                let markers: Vec<u32> = targets.iter().map(|&t| df.block_entry(t)).collect();
                let table =
                    SwitchPool::push(&mut lo.switches, *low, df.block_entry(*default), &markers);
                lo.code.push(RInstr::GuardSwitch {
                    table,
                    expected: df.block_entry(expected_pc),
                    selector,
                    exit,
                    pre,
                });
                lo.guards_fused += 1;
            }
            Step::EnterStatic { callee } => {
                let argc = program.function(callee).num_params();
                let image = lo.image()?;
                let ret = lo.decoded.func(func).pc_map[pc as usize] + 1;
                let w = lo.take_w();
                lo.code.push(RInstr::EnterStatic {
                    callee,
                    ret,
                    image,
                    w,
                });
                lo.enter_callee(callee, argc, ret)?;
            }
            Step::GuardVirtual {
                slot,
                argc,
                expected,
            } => {
                lo.ensure(argc as usize)?;
                let n = lo.ctx.stack.len();
                let recv = lo.ctx.stack[n - argc as usize];
                let exit = lo.exit_for(func, pc)?;
                let ret = lo.decoded.func(func).pc_map[pc as usize] + 1;
                let pre = lo.take_pre();
                lo.code.push(RInstr::GuardVirtual {
                    slot,
                    argc,
                    recv,
                    expected,
                    ret,
                    exit,
                    pre,
                });
                lo.enter_callee(expected, argc, ret)?;
            }
            Step::GuardReturn {
                expected,
                has_value,
            } => {
                if lo.callers.is_empty() {
                    // Return at the trace's entry depth: the caller frame
                    // is real, so the continuation stays a runtime guard.
                    if has_value {
                        lo.ensure(1)?;
                    }
                    let exit = lo.exit_for(func, pc)?;
                    let retval = if has_value {
                        lo.ctx.stack.pop().expect("ensured")
                    } else {
                        0
                    };
                    let pre = lo.take_pre();
                    lo.code.push(RInstr::GuardReturn {
                        has_value,
                        retval,
                        expected,
                        exit,
                        pre,
                    });
                    // Continue in the (real) caller frame: nothing
                    // renamed, the full continuation depth is real.
                    let pending = lo.entry_depth(expected)?;
                    lo.ctx = Ctx::new(decoded, expected.func);
                    lo.ctx.pending = pending;
                } else {
                    // The caller is on the lowering stack: the
                    // continuation is statically known. A recorded
                    // continuation that contradicts the call site cannot
                    // execute — refuse.
                    if lo.callers.last().expect("nonempty").cont_block != expected {
                        return None;
                    }
                    let retval = if has_value { Some(lo.pop1()?) } else { None };
                    let w = lo.take_w();
                    lo.code.push(RInstr::RetStatic { w });
                    lo.ctx = lo.callers.pop().expect("nonempty");
                    if let Some(r) = retval {
                        lo.ctx.stack.push(r);
                    }
                }
            }
            Step::Finish => lo.final_terminator(func, pc, terminator)?,
        }
        lo.block_idx += 1;
    }
    debug_assert_eq!(
        lo.pending_w, 0,
        "the last instruction consumes all pending weight"
    );
    // The executor leaves a completed trace through its last
    // instruction, and through no other hand-back.
    let is_last = |r: &RInstr| {
        matches!(
            r,
            RInstr::FinalBranch { .. }
                | RInstr::FinalSwitch { .. }
                | RInstr::FinalCall { .. }
                | RInstr::FinalReturn { .. }
        )
    };
    if lo.code.iter().filter(|r| is_last(r)).count() != 1 || !lo.code.last().is_some_and(is_last) {
        return None;
    }

    let stats = RegStats {
        before: ct.src_instrs + fall_throughs,
        after: lo.code.len(),
        regs: lo.next_reg as u64,
        eliminated: lo.eliminated,
        guards_fused: lo.guards_fused,
    };
    // Every array is copied out into an exact allocation: shrinking one
    // in place costs a `realloc`, which made `lower_reg` 25–43 % slower.
    // The images own slices, so they are moved out rather than cloned.
    Some(RegTrace {
        trace_id: ct.trace_id,
        code: lo.code.as_slice().into(),
        consts: lo.consts.as_slice().into(),
        exits: lo.exits.as_slice().into(),
        images: lo.images.drain(..).collect(),
        switches: SwitchPool(lo.switches.as_slice().into()),
        src_blocks: ct.src_blocks.as_slice().into(),
        num_regs: lo.next_reg as u16,
        stats,
    })
}

impl<'a> Lowering<'a> {
    /// Lowers the last block's terminator `term` at source `pc` to the
    /// trace's one final instruction. A block without a terminator falls
    /// through to the block at `pc + 1`, its last instruction already
    /// lowered.
    fn final_terminator(&mut self, func: FuncId, pc: u32, term: &Instr) -> Option<()> {
        match *term {
            Instr::Goto(target) => {
                // The goto's own fuel rides in `pre`.
                self.elim();
                self.final_branch(func, pc, None, target)
            }
            Instr::TableSwitch {
                low,
                ref targets,
                default,
            } => self.final_switch(func, low, targets, default),
            Instr::InvokeStatic(callee) => {
                let argc = self.program.function(callee).num_params();
                self.final_call(func, pc, CallTarget::Static(callee), argc)
            }
            Instr::InvokeVirtual { slot, argc } => {
                self.ensure(usize::from(argc))?;
                let recv = self.ctx.stack[self.ctx.stack.len() - usize::from(argc)];
                self.final_call(func, pc, CallTarget::Virtual { slot, recv }, argc)
            }
            Instr::Return | Instr::ReturnVoid => {
                let has_value = matches!(term, Instr::Return);
                if has_value {
                    self.ensure(1)?;
                }
                // Taken with the value still on the stack: the loop
                // re-executes the return from this record.
                let exit = self.exit_for(func, pc)?;
                let retval = if has_value {
                    self.ctx.stack.pop().expect("ensured")
                } else {
                    0
                };
                let pre = self.take_pre();
                self.code.push(RInstr::FinalReturn {
                    has_value,
                    retval,
                    exit,
                    pre,
                });
                Some(())
            }
            _ => match CondKind::of(term) {
                Some((kind, target)) => self.final_branch(func, pc, Some(kind), target),
                None => self.final_branch(func, pc, None, pc + 1),
            },
        }
    }

    /// Lowers the last block's branch at source `pc` — a conditional
    /// branch of shape `kind` or, for `None`, a `goto` or fall-through —
    /// taken to `target`. One image, taken after the operands are
    /// popped, serves both successors' marker records.
    fn final_branch(
        &mut self,
        func: FuncId,
        pc: u32,
        kind: Option<CondKind>,
        target: u32,
    ) -> Option<()> {
        let arity = kind.map_or(0, CondKind::arity);
        self.ensure(arity)?;
        let n = self.ctx.stack.len();
        let (a, b) = match arity {
            2 => (self.ctx.stack[n - 2], self.ctx.stack[n - 1]),
            1 => (self.ctx.stack[n - 1], self.ctx.stack[n - 1]),
            _ => (0, 0),
        };
        self.ctx.stack.truncate(n - arity);
        let image = self.image()?;
        let taken = self.marker_exit(func, target, image)?;
        let fall = match kind {
            Some(_) => self.marker_exit(func, pc + 1, image)?,
            None => taken,
        };
        let pre = self.take_pre();
        self.code.push(RInstr::FinalBranch {
            kind,
            a,
            b,
            exits: [fall, taken],
            pre,
        });
        Some(())
    }

    /// Lowers the last block's `tableswitch`: one image, taken after the
    /// selector is popped, serves every successor's marker record, one
    /// record per distinct successor.
    fn final_switch(
        &mut self,
        func: FuncId,
        low: i64,
        targets: &[u32],
        default: u32,
    ) -> Option<()> {
        let selector = self.pop1()?;
        let image = self.image()?;
        let mut records: Vec<(u32, u32)> = Vec::new();
        let mut record_of = |lo: &mut Self, start: u32| match records.iter().find(|r| r.0 == start)
        {
            Some(&(_, exit)) => Some(exit),
            None => {
                let exit = lo.marker_exit(func, start, image)?;
                records.push((start, exit));
                Some(exit)
            }
        };
        let exits = targets
            .iter()
            .map(|&t| record_of(self, t))
            .collect::<Option<Vec<u32>>>()?;
        let default = record_of(self, default)?;
        let table = SwitchPool::push(&mut self.switches, low, default, &exits);
        let pre = self.take_pre();
        self.code.push(RInstr::FinalSwitch {
            table,
            selector,
            pre,
        });
        Some(())
    }

    /// Lowers the last block's call at source `pc` of `target`, passing
    /// `argc` arguments. The callee's entry block starts on an empty
    /// stack in a fresh frame, which is the depth the verifier proves
    /// there.
    fn final_call(&mut self, func: FuncId, pc: u32, target: CallTarget, argc: u16) -> Option<()> {
        let image = self.image()?;
        let ret = self.decoded.func(func).pc_map[pc as usize] + 1;
        let pre = self.take_pre();
        self.code.push(RInstr::FinalCall {
            target,
            argc,
            ret,
            image,
            pre,
        });
        Some(())
    }

    /// Lowers one straight-line source instruction.
    fn lower_op(&mut self, ins: &Instr) -> Option<()> {
        if let Some(op) = RBin::of(ins) {
            self.ensure(2)?;
            let b = self.ctx.stack.pop().expect("ensured");
            let a = self.ctx.stack.pop().expect("ensured");
            let dst = self.fresh()?;
            let w = self.take_w();
            self.code.push(RInstr::Bin { op, a, b, dst, w });
            self.ctx.stack.push(dst);
            return Some(());
        }
        match ins {
            Instr::IConst(v) => {
                let r = self.const_reg(Value::Int(*v))?;
                self.ctx.stack.push(r);
                self.elim();
            }
            Instr::FConst(v) => {
                let r = self.const_reg(Value::Float(*v))?;
                self.ctx.stack.push(r);
                self.elim();
            }
            Instr::ConstNull => {
                let r = self.const_reg(Value::Null)?;
                self.ctx.stack.push(r);
                self.elim();
            }
            Instr::Load(slot) => match self.local(*slot).copied()? {
                Some((r, _)) => {
                    self.ctx.stack.push(r);
                    self.elim();
                }
                None => {
                    let dst = self.fresh()?;
                    let w = self.take_w();
                    self.code.push(RInstr::LoadLocal {
                        slot: *slot,
                        dst,
                        w,
                    });
                    *self.local(*slot)? = Some((dst, false));
                    self.ctx.stack.push(dst);
                }
            },
            Instr::Store(slot) => {
                let r = self.pop1()?;
                *self.local(*slot)? = Some((r, true));
                self.elim();
            }
            Instr::IInc(slot, imm) => {
                let dst = self.fresh()?;
                let w = self.take_w();
                match self.local(*slot).copied()? {
                    Some((src, _)) => self.code.push(RInstr::IncReg {
                        src,
                        dst,
                        imm: *imm,
                        w,
                    }),
                    None => self.code.push(RInstr::IncLocal {
                        slot: *slot,
                        dst,
                        imm: *imm,
                        w,
                    }),
                }
                *self.local(*slot)? = Some((dst, true));
            }
            Instr::Dup => {
                self.ensure(1)?;
                let r = *self.ctx.stack.last().expect("ensured");
                self.ctx.stack.push(r);
                self.elim();
            }
            Instr::Dup2 => {
                self.ensure(2)?;
                let n = self.ctx.stack.len();
                let a = self.ctx.stack[n - 2];
                let b = self.ctx.stack[n - 1];
                self.ctx.stack.push(a);
                self.ctx.stack.push(b);
                self.elim();
            }
            Instr::Pop => {
                self.pop1()?;
                self.elim();
            }
            Instr::Swap => {
                self.ensure(2)?;
                let n = self.ctx.stack.len();
                self.ctx.stack.swap(n - 1, n - 2);
                self.elim();
            }
            Instr::INeg | Instr::FNeg | Instr::I2F | Instr::F2I => {
                let op = RUn(match ins {
                    Instr::INeg => op::INEG,
                    Instr::FNeg => op::FNEG,
                    Instr::I2F => op::I2F,
                    _ => op::F2I,
                });
                let a = self.pop1()?;
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::Un { op, a, dst, w });
                self.ctx.stack.push(dst);
            }
            Instr::Intrinsic(i) => {
                let argc = i.arg_count();
                self.ensure(argc)?;
                let (a, b) = if argc == 2 {
                    let b = self.ctx.stack.pop().expect("ensured");
                    let a = self.ctx.stack.pop().expect("ensured");
                    (a, b)
                } else {
                    let a = self.ctx.stack.pop().expect("ensured");
                    (a, a)
                };
                let dst = if i.returns_value() { self.fresh()? } else { 0 };
                let w = self.take_w();
                self.code.push(RInstr::Intrinsic {
                    i: *i,
                    a,
                    b,
                    dst,
                    w,
                });
                if i.returns_value() {
                    self.ctx.stack.push(dst);
                }
            }
            Instr::GetField(field) => {
                let obj = self.pop1()?;
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::GetField {
                    obj,
                    field: *field,
                    dst,
                    w,
                });
                self.ctx.stack.push(dst);
            }
            Instr::PutField(field) => {
                self.ensure(2)?;
                let val = self.ctx.stack.pop().expect("ensured");
                let obj = self.ctx.stack.pop().expect("ensured");
                let w = self.take_w();
                self.code.push(RInstr::PutField {
                    obj,
                    val,
                    field: *field,
                    w,
                });
            }
            Instr::ALoad => {
                self.ensure(2)?;
                let idx = self.ctx.stack.pop().expect("ensured");
                let arr = self.ctx.stack.pop().expect("ensured");
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::ALoad { arr, idx, dst, w });
                self.ctx.stack.push(dst);
            }
            Instr::AStore => {
                self.ensure(3)?;
                let val = self.ctx.stack.pop().expect("ensured");
                let idx = self.ctx.stack.pop().expect("ensured");
                let arr = self.ctx.stack.pop().expect("ensured");
                let w = self.take_w();
                self.code.push(RInstr::AStore { arr, idx, val, w });
            }
            Instr::ArrayLen => {
                let arr = self.pop1()?;
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::ArrayLen { arr, dst, w });
                self.ctx.stack.push(dst);
            }
            Instr::New(class) => {
                // Collection happens before the push: image the live
                // frame as-is.
                let image = self.image()?;
                let nfields = self.program.class(*class).num_fields();
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::NewObj {
                    class: *class,
                    nfields,
                    dst,
                    image,
                    w,
                });
                self.ctx.stack.push(dst);
                self.mark_clean();
            }
            Instr::NewArray => {
                // The interpreter pops the length before collecting.
                let len = self.pop1()?;
                let image = self.image()?;
                let dst = self.fresh()?;
                let w = self.take_w();
                self.code.push(RInstr::NewArray { len, dst, image, w });
                self.ctx.stack.push(dst);
                self.mark_clean();
            }
            Instr::Nop => self.elim(),
            // Control instructions are steps, never block bodies.
            Instr::IfICmp(..)
            | Instr::IfI(..)
            | Instr::IfFCmp(..)
            | Instr::IfNull(_)
            | Instr::IfNonNull(_)
            | Instr::Goto(_)
            | Instr::TableSwitch { .. }
            | Instr::InvokeStatic(_)
            | Instr::InvokeVirtual { .. }
            | Instr::Return
            | Instr::ReturnVoid => return None,
            // Binops were handled above.
            _ => unreachable!("binop handled by RBin::of"),
        }
        Some(())
    }
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

/// A guard's or final branch's condition, as the listing spells it.
fn cond_text(kind: CondKind, a: Reg, b: Reg) -> String {
    match kind {
        CondKind::ICmp(op) => format!("icmp.{} r{a}, r{b}", cmp_name(op)),
        CondKind::IZero(op) => format!("izero.{} r{a}", cmp_name(op)),
        CondKind::FCmp(op) => format!("fcmp.{} r{a}, r{b}", cmp_name(op)),
        CondKind::Null => format!("null r{a}"),
        CondKind::NonNull => format!("nonnull r{a}"),
    }
}

/// Human-readable listing of a register trace, for golden pinning and
/// review: code, constant table, and exit records with their frame
/// images.
pub fn disassemble(rt: &RegTrace) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "reg trace: {} rinstrs, {} regs, {} consts, {} exits",
        rt.code.len(),
        rt.num_regs,
        rt.consts.len(),
        rt.exits.len()
    );
    for &(r, v) in rt.consts.iter() {
        let c = match v {
            Value::Int(i) => format!("int {i}"),
            Value::Float(f) => format!("float {f}"),
            Value::Null => "null".into(),
            Value::Ref(_) => unreachable!("no reference constants"),
        };
        let _ = writeln!(s, "  const r{r} = {c}");
    }
    for (i, r) in rt.code.iter().enumerate() {
        let line = match r {
            RInstr::PullStack { dst } => format!("r{dst} = pull"),
            RInstr::LoadLocal { slot, dst, w } => format!("r{dst} = local {slot} [w={w}]"),
            RInstr::IncLocal { slot, dst, imm, w } => {
                format!("r{dst} = local {slot} + {imm} [w={w}]")
            }
            RInstr::IncReg { src, dst, imm, w } => format!("r{dst} = r{src} + {imm} [w={w}]"),
            RInstr::Bin { op: bin, a, b, dst, w } => {
                format!("r{dst} = {} r{a}, r{b} [w={w}]", op::name(bin.0))
            }
            RInstr::Un { op: un, a, dst, w } => format!("r{dst} = {} r{a} [w={w}]", op::name(un.0)),
            RInstr::Intrinsic { i, a, b, dst, w } => {
                let name = format!("{i:?}").to_lowercase();
                if i.returns_value() {
                    if i.arg_count() == 2 {
                        format!("r{dst} = {name} r{a}, r{b} [w={w}]")
                    } else {
                        format!("r{dst} = {name} r{a} [w={w}]")
                    }
                } else {
                    format!("{name} r{a} [w={w}]")
                }
            }
            RInstr::GetField { obj, field, dst, w } => {
                format!("r{dst} = field {field} of r{obj} [w={w}]")
            }
            RInstr::PutField { obj, val, field, w } => {
                format!("field {field} of r{obj} = r{val} [w={w}]")
            }
            RInstr::ALoad { arr, idx, dst, w } => format!("r{dst} = r{arr}[r{idx}] [w={w}]"),
            RInstr::AStore { arr, idx, val, w } => format!("r{arr}[r{idx}] = r{val} [w={w}]"),
            RInstr::ArrayLen { arr, dst, w } => format!("r{dst} = len r{arr} [w={w}]"),
            RInstr::NewObj {
                class,
                nfields,
                dst,
                image,
                w,
            } => format!("r{dst} = new class#{} fields={nfields} img={image} [w={w}]", class.0),
            RInstr::NewArray { len, dst, image, w } => {
                format!("r{dst} = newarray r{len} img={image} [w={w}]")
            }
            RInstr::GuardCond {
                kind,
                a,
                b,
                expected_taken,
                exit,
                pre,
            } => format!(
                "guard {} == {expected_taken} else exit {exit} [pre={pre}]",
                cond_text(*kind, *a, *b)
            ),
            RInstr::GuardSwitch {
                selector,
                expected,
                exit,
                pre,
                ..
            } => format!(
                "guard switch r{selector} -> marker {expected} else exit {exit} [pre={pre}]"
            ),
            RInstr::EnterStatic {
                callee,
                ret,
                image,
                w,
            } => format!("call fn#{} ret={ret} img={image} [w={w}]", callee.0),
            RInstr::GuardVirtual {
                slot,
                argc,
                recv,
                expected,
                ret,
                exit,
                pre,
            } => format!(
                "guard vcall slot {slot} argc {argc} recv r{recv} == fn#{} ret={ret} else exit {exit} [pre={pre}]",
                expected.0
            ),
            RInstr::RetStatic { w } => format!("ret.static [w={w}]"),
            RInstr::GuardReturn {
                has_value,
                retval,
                expected,
                exit,
                pre,
            } => {
                let v = if *has_value {
                    format!(" r{retval}")
                } else {
                    String::new()
                };
                format!("guard ret{v} -> {expected} else exit {exit} [pre={pre}]")
            }
            RInstr::FinalBranch {
                kind: Some(kind),
                a,
                b,
                exits: [fall, taken],
                pre,
            } => format!(
                "branch {} ? exit {taken} : exit {fall} [pre={pre}]",
                cond_text(*kind, *a, *b)
            ),
            RInstr::FinalBranch {
                kind: None,
                exits: [_, taken],
                pre,
                ..
            } => format!("goto exit {taken} [pre={pre}]"),
            RInstr::FinalSwitch {
                table,
                selector,
                pre,
            } => {
                let t = rt.switches.table(*table);
                let exits: Vec<String> = t.targets.iter().map(u32::to_string).collect();
                format!(
                    "switch r{selector} - {} ? exits [{}] : exit {} [pre={pre}]",
                    t.low,
                    exits.join(" "),
                    t.default
                )
            }
            RInstr::FinalCall {
                target,
                argc,
                ret,
                image,
                pre,
            } => {
                let callee = match target {
                    CallTarget::Static(f) => format!("fn#{}", f.0),
                    CallTarget::Virtual { slot, recv } => format!("slot {slot} of r{recv}"),
                };
                format!("call {callee} argc {argc} ret={ret} img={image} [pre={pre}]")
            }
            RInstr::FinalReturn {
                has_value,
                retval,
                exit,
                pre,
            } => {
                let v = if *has_value {
                    format!(" r{retval}")
                } else {
                    String::new()
                };
                format!("ret{v}, outermost: exit {exit} [pre={pre}]")
            }
        };
        let _ = writeln!(s, "{i:4}: {line}");
    }
    for (i, e) in rt.exits.iter().enumerate() {
        let img = &rt.images[e.image as usize];
        let stack: Vec<String> = img.stack.iter().map(|r| format!("r{r}")).collect();
        let dirty: Vec<String> = img
            .dirty
            .iter()
            .map(|(s, r)| format!("{s}<-r{r}"))
            .collect();
        let _ = writeln!(
            s,
            "exit {i}: fn#{} dpc={} block={} done={} base={} stack=[{}] dirty=[{}]",
            e.func.0,
            e.dpc,
            e.block,
            e.blocks_done,
            img.base,
            stack.join(" "),
            dirty.join(" ")
        );
    }
    s
}
