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
//! * compare-and-branch pairs collapse into single branch ops on
//!   registers ([`RInstr::Branch`]).
//!
//! **Accounting transparency.** Deleted instructions still cost fuel:
//! every eliminated op adds one to the *weight* of the next emitted
//! instruction (`w`), charged before the instruction evaluates; a
//! return's weight (`pre`) leaves out the return itself, which the loop
//! charges when the trace hands it back. Batching is observationally
//! identical to per-op ticking — only the last tick of a batch can fail,
//! and both schemes leave the instruction counter saturated at the fuel
//! limit — so the register path executes *exactly* the interpreter's
//! instruction count, a property the differential tests pin down.
//!
//! **Trace entry mid-function.** A trace may start at a block whose
//! entry stack depth is nonzero. The lowering seeds its model from the
//! depth the verifier proved for that pc, which the program carries
//! ([`jvm_bytecode::Function::depth_at`] — a lookup, nothing is
//! re-analysed per trace), and pulls real entry-stack values into
//! registers lazily ([`RInstr::PullStack`]) only when an instruction
//! actually consumes one.
//!
//! **One way out.** Every block's terminator but a `goto` or
//! fall-through inside the trace runs in-trace as one control
//! instruction — a conditional branch ([`RInstr::Branch`]), a
//! `tableswitch` ([`RInstr::Switch`]), a static or virtual call
//! ([`RInstr::Call`]) or a return ([`RInstr::Return`]); the last block's
//! terminator does so whatever it is. The trace runs on when the
//! terminator reaches the trace's next block. Any other successor leaves
//! the trace the same way, whether a guard failed or the trace completed:
//! the frame image taken after the terminator is written back and the
//! loop resumes on the successor's *entry marker*, so it makes the
//! successor's dispatch itself. A branch's or switch's successors each
//! get a resume record ([`RExit`]) on their marker, sharing one image; a
//! call leaves on the entry marker of the callee it resolves to, in the
//! callee's fresh frame, and a return on the marker of the block its
//! caller continues in — a block the caller frame knows, not the trace.
//! Leaving short of the last block is an early exit; leaving past it
//! completes the trace, which then closes the loop in place or goes on
//! into another trace when the branch it left by links one (see
//! `regexec`). Only a return from the outermost frame, which ends the
//! program, is handed back *on* the return, for the loop to execute.
//!
//! **Calls.** Calls materialize the caller frame (arguments must cross
//! the real stack into the callee frame); a call that stays on the trace
//! continues lowering in a fresh callee context. In-trace returns whose
//! continuation is statically known ([`RInstr::RetStatic`]) pop the frame
//! with the return value staying in a register; returns from the trace's
//! entry depth check their continuation at runtime.
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
//! `num_locals`, every resume record's [`FrameImage`] rebuilds *exactly*
//! the operand-stack depth the verifier proved at the pc it resumes on —
//! the successor's first instruction, or the outermost hand-back's
//! return — and every call / allocation image fits its frame's
//! verifier-proven operand-stack bound (invariant R2 in DESIGN.md). It
//! likewise refuses a trace whose last instruction does not leave on
//! every successor, which is what hands the frame back to the
//! interpreter loop.
//!
//! Lowering is *total* on the traces the engine compiles, with a few
//! `None` refusals (the engine then never enters the trace —
//! interpreter-only, never wrong): an in-trace return whose recorded
//! continuation contradicts the static call site, a continuation block
//! the verifier found unreachable (it has no entry depth),
//! register-file overflow, and a violated frame bound or resume depth.

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

/// A resume record: where the interpreter loop picks up when the trace
/// leaves, plus the frame image to write back and the per-block
/// accounting at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RExit {
    /// Function owning the resume point.
    pub func: FuncId,
    /// Decoded resume pc: the successor block's entry marker, so the loop
    /// makes the successor's dispatch — or, for the hand-back of a return
    /// from the outermost frame, the return itself.
    pub dpc: u32,
    /// Block index containing it: the successor block (the returning
    /// block itself for the outermost hand-back).
    pub block: u32,
    /// Source blocks the trace has run when it leaves here, the leaving
    /// block included (static — they sit at known positions in the
    /// trace): fewer than the trace's blocks for an early exit, all of
    /// them for a completion.
    pub blocks_done: u32,
    /// Index into [`RegTrace::images`].
    pub image: u32,
}

/// The exit slot of a [`RInstr::Branch`] outcome or a [`RInstr::Switch`]
/// table entry whose successor is the trace's next block: the trace runs
/// on into its next instruction. Every other slot names a resume record.
pub const ON_TRACE: u32 = u32::MAX;

/// What a [`RInstr::Call`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A static call of this function; the callee's parameter count is
    /// its argument count.
    Static(FuncId),
    /// A virtual call through a vtable slot on a receiver register.
    Virtual {
        /// Vtable slot.
        slot: u16,
        /// Receiver register.
        recv: Reg,
        /// Argument count including the receiver.
        argc: u16,
    },
}

/// One instruction of a register-lowered trace. Operands are virtual
/// registers; `w` is the fuel weight (this instruction plus the
/// eliminated stack ops folded into it), `exit` an index into
/// [`RegTrace::exits`], `image` an index into [`RegTrace::images`].
///
/// `repr(u8)`: the executor dispatches on every instruction, so the tag
/// is one byte of its own at offset 0. Left to the compiler, the layout
/// hid the tag in the niche of a call target's and decoded it with a
/// 16-bit load, a subtract and a conditional move at every dispatch.
/// Each variant's fields are laid out in declaration order, after the
/// tag.
#[derive(Debug, Clone, PartialEq)]
#[repr(u8)]
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
    /// A block's conditional branch, or the last block's `goto` or
    /// fall-through: charged `w`, evaluated, and continued through the
    /// outcome's slot in `exits` — [`ON_TRACE`] runs on into the next
    /// instruction, a resume record leaves the trace on the successor's
    /// entry marker. When the trace completes, the branch it left by
    /// decides what comes next: the executor jumps back to the top of the
    /// code when it links this trace (a loop closing) and goes on into
    /// the trace it links otherwise.
    Branch {
        /// Branch shape; `None` for a `goto` or a fall-through, whose
        /// fuel (one for a `goto`, none for a fall-through) is in `w`.
        kind: Option<CondKind>,
        /// Left operand (unary kinds use only `a`).
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Exit slots of the fall-through and the taken successor,
        /// indexed by the outcome; `kind: None` names its one slot twice.
        /// The records share one image, taken after the operands are
        /// popped.
        exits: [u32; 2],
        /// Fuel weight, the branch itself included.
        w: u32,
    },
    /// A block's `tableswitch`: the selector picks a slot of the table,
    /// which continues as a [`RInstr::Branch`] outcome does.
    Switch {
        /// The table, as a [`RegTrace::switches`] offset: the exit slot
        /// of each entry's successor and of the out-of-range one, the
        /// records sharing one image.
        table: u32,
        /// Selector register.
        selector: Reg,
        /// Fuel weight, the switch itself included.
        w: u32,
    },
    /// A block's static or virtual call: materialize `image` (arguments
    /// cross the real stack), resolve the callee and push its frame. The
    /// trace runs on into the callee when its entry block is the trace's
    /// next block, and leaves on that entry block's marker otherwise, in
    /// the fresh frame.
    Call {
        /// Source blocks run when the call is made, its own included:
        /// the trace's next block is `src_blocks[done]`. (A `u16` beside
        /// the tag keeps the variant at 24 bytes.)
        done: u16,
        /// The callee, or how to resolve it.
        target: CallTarget,
        /// Decoded continuation pc in the caller: the entry marker of
        /// the block after the call.
        ret: u32,
        /// Frame image (all live values, arguments on top).
        image: u32,
        /// Fuel weight, the call itself included.
        w: u32,
    },
    /// In-trace return whose continuation was proven statically: pop the
    /// callee frame; the return value (if any) stays in a register.
    RetStatic {
        /// Fuel weight.
        w: u32,
    },
    /// A return at the trace's entry depth: pop the frame, push the value
    /// (if any) onto the *real* caller stack, and run on when the block
    /// the caller continues in is the trace's next block, leaving on its
    /// marker otherwise. A return from the outermost frame ends the
    /// program, which is the loop's to do: it hands back *on* the return
    /// through `exit`, and the loop executes (and charges) it.
    Return {
        /// Whether a value is returned.
        has_value: bool,
        /// Return-value register (unused when `has_value` is false).
        retval: Reg,
        /// Resume record on the return itself, whose `blocks_done` is
        /// the return's, too.
        exit: u32,
        /// Fuel weight of the eliminated ops before the return.
        pre: u32,
    },
}

// Every variant fits in 24 bytes beside the tag: a switch keeps its table
// out of line, in the trace's switch pool, and a call counts its blocks
// in a `u16`.
const _: () = assert!(std::mem::size_of::<RInstr>() == 24);

/// Every `tableswitch` table of one trace, in one allocation. A table
/// is four header words — `low` (low word first), `default` and the
/// table's length — followed by the table itself; a [`RInstr::Switch`]
/// names its table by the offset of its first header word, which only
/// lowering mints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchPool(Box<[u32]>);

/// One table of a [`SwitchPool`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchTable<'a> {
    /// Selector value mapped to `targets[0]`.
    pub low: i64,
    /// The out-of-range entry.
    pub default: u32,
    /// The table: the exit slot of each entry ([`ON_TRACE`] or a resume
    /// record).
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
    /// Conditional branches and switches inside the trace (guards: they
    /// leave it on any successor but the next block) lowered to single
    /// register ops.
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
    /// Resume records, indexed by the exit slots of branches and
    /// switches and by returns.
    pub exits: Box<[RExit]>,
    /// Frame images, indexed by resume records and allocation / call
    /// instructions.
    pub images: Box<[FrameImage]>,
    /// The tables of the trace's switches.
    pub switches: SwitchPool,
    /// The source block sequence (a call's or return's next block, the
    /// block an exit re-anchors the profiler at, and block accounting).
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

    /// The hand-back record of a return at source `(func, pc)` from the
    /// outermost frame, with the current frame image. The loop resumes
    /// *at* the return, so the image must rebuild exactly the operand
    /// stack the verifier proved there — `None` (trace refused) if the
    /// abstract stack disagrees.
    fn exit_for(&mut self, func: FuncId, pc: u32) -> Option<u32> {
        self.check_depth(func, pc)?;
        let image = self.image()?;
        let dpc = self.decoded.func(func).pc_map[pc as usize];
        Some(self.push_exit(func, dpc, image))
    }

    /// The exit slot of a branch's or switch's successor starting at
    /// source pc `start`: [`ON_TRACE`] when it is the trace's `next`
    /// block, else a resume record on its entry marker sharing the one
    /// `image`, from which the loop resumes by dispatching it. The image
    /// must rebuild exactly the depth the verifier proved at `start`.
    fn successor(
        &mut self,
        func: FuncId,
        start: u32,
        image: u32,
        next: Option<BlockId>,
    ) -> Option<u32> {
        let block = self.program.function(func).block_index_of(start);
        if next == Some(BlockId::new(func, block)) {
            return Some(ON_TRACE);
        }
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
            blocks_done: self.block_idx + 1,
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
    for (i, (&blk, &step)) in ct.src_blocks.iter().zip(&ct.steps).enumerate() {
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
            Step::Terminator => {
                let next = ct.src_blocks.get(i + 1).copied();
                lo.terminator(func, pc, terminator, next)?;
            }
        }
        lo.block_idx += 1;
    }
    debug_assert_eq!(
        lo.pending_w, 0,
        "the last instruction consumes all pending weight"
    );
    // The executor leaves a trace through its last instruction, on every
    // successor: none of them may be on the trace.
    let switches = SwitchPool(lo.switches.as_slice().into());
    let len = lo.block_idx;
    let leaves = match lo.code.last() {
        Some(RInstr::Branch { exits, .. }) => !exits.contains(&ON_TRACE),
        Some(RInstr::Switch { table, .. }) => {
            let t = switches.table(*table);
            !t.targets.contains(&ON_TRACE) && t.default != ON_TRACE
        }
        Some(RInstr::Call { done, .. }) => u32::from(*done) == len,
        Some(RInstr::Return { exit, .. }) => lo.exits[*exit as usize].blocks_done == len,
        _ => false,
    };
    if !leaves {
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
        switches,
        src_blocks: ct.src_blocks.as_slice().into(),
        num_regs: lo.next_reg as u16,
        stats,
    })
}

impl<'a> Lowering<'a> {
    /// Lowers the terminator `term` at source `pc` of a block whose
    /// successor on the trace is `next` (`None` for the last block) to
    /// one control instruction. A block without a terminator falls
    /// through to the block at `pc + 1`, its last instruction already
    /// lowered.
    fn terminator(
        &mut self,
        func: FuncId,
        pc: u32,
        term: &Instr,
        next: Option<BlockId>,
    ) -> Option<()> {
        match *term {
            Instr::Goto(target) => {
                // The goto's own fuel rides in `w`.
                self.elim();
                self.branch(func, pc, None, target, next)
            }
            Instr::TableSwitch {
                low,
                ref targets,
                default,
            } => self.switch(func, low, targets, default, next),
            Instr::InvokeStatic(callee) => {
                let argc = self.program.function(callee).num_params();
                self.call(func, pc, CallTarget::Static(callee), argc, next)
            }
            Instr::InvokeVirtual { slot, argc } => {
                self.ensure(usize::from(argc))?;
                let recv = self.ctx.stack[self.ctx.stack.len() - usize::from(argc)];
                self.call(
                    func,
                    pc,
                    CallTarget::Virtual { slot, recv, argc },
                    argc,
                    next,
                )
            }
            Instr::Return | Instr::ReturnVoid => {
                self.ret(func, pc, matches!(term, Instr::Return), next)
            }
            _ => match CondKind::of(term) {
                Some((kind, target)) => self.branch(func, pc, Some(kind), target, next),
                None => self.branch(func, pc, None, pc + 1, next),
            },
        }
    }

    /// Lowers a branch at source `pc` — a conditional branch of shape
    /// `kind` or, for `None`, a `goto` or fall-through — taken to
    /// `target`. One image, taken after the operands are popped, serves
    /// both successors' records. The taken successor runs on when it is
    /// the `next` block, the fall-through only when the taken one does
    /// not: a branch to the very next instruction keeps its taken
    /// direction on the trace.
    fn branch(
        &mut self,
        func: FuncId,
        pc: u32,
        kind: Option<CondKind>,
        target: u32,
        next: Option<BlockId>,
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
        let taken = self.successor(func, target, image, next)?;
        let fall = match kind {
            None => taken,
            Some(_) if taken == ON_TRACE => self.successor(func, pc + 1, image, None)?,
            Some(_) => self.successor(func, pc + 1, image, next)?,
        };
        let w = if kind.is_some() {
            self.take_w()
        } else {
            self.take_pre()
        };
        self.code.push(RInstr::Branch {
            kind,
            a,
            b,
            exits: [fall, taken],
            w,
        });
        if kind.is_some() && next.is_some() {
            self.guards_fused += 1;
        }
        Some(())
    }

    /// Lowers a `tableswitch`: one image, taken after the selector is
    /// popped, serves every successor's record, one record per distinct
    /// successor off the trace.
    fn switch(
        &mut self,
        func: FuncId,
        low: i64,
        targets: &[u32],
        default: u32,
        next: Option<BlockId>,
    ) -> Option<()> {
        let selector = self.pop1()?;
        let image = self.image()?;
        let mut slots: Vec<(u32, u32)> = Vec::new();
        let mut slot_of = |lo: &mut Self, start: u32| match slots.iter().find(|r| r.0 == start) {
            Some(&(_, slot)) => Some(slot),
            None => {
                let slot = lo.successor(func, start, image, next)?;
                slots.push((start, slot));
                Some(slot)
            }
        };
        let exits = targets
            .iter()
            .map(|&t| slot_of(self, t))
            .collect::<Option<Vec<u32>>>()?;
        let default = slot_of(self, default)?;
        let table = SwitchPool::push(&mut self.switches, low, default, &exits);
        let w = self.take_w();
        self.code.push(RInstr::Switch { table, selector, w });
        if next.is_some() {
            self.guards_fused += 1;
        }
        Some(())
    }

    /// Lowers a call at source `pc` of `target`, passing `argc`
    /// arguments. When the callee's entry block is the `next` block the
    /// lowering goes on in the callee; off the trace, that block starts
    /// on an empty stack in a fresh frame, which is the depth the
    /// verifier proves there.
    fn call(
        &mut self,
        func: FuncId,
        pc: u32,
        target: CallTarget,
        argc: u16,
        next: Option<BlockId>,
    ) -> Option<()> {
        let image = self.image()?;
        let ret = self.decoded.func(func).pc_map[pc as usize] + 1;
        let w = self.take_w();
        self.code.push(RInstr::Call {
            target,
            ret,
            image,
            w,
            done: u16::try_from(self.block_idx + 1).ok()?,
        });
        match next {
            Some(entry) => self.enter_callee(entry.func, argc, ret),
            None => Some(()),
        }
    }

    /// Lowers a return at source `pc`. Below the trace's entry depth the
    /// caller is on the lowering stack and its continuation statically
    /// known; at the entry depth the caller frame is real, and the
    /// continuation is checked when the return runs.
    fn ret(&mut self, func: FuncId, pc: u32, has_value: bool, next: Option<BlockId>) -> Option<()> {
        if let (Some(caller), Some(next)) = (self.callers.last(), next) {
            // A recorded continuation that contradicts the call site
            // cannot execute — refuse.
            if caller.cont_block != next {
                return None;
            }
            let retval = if has_value { Some(self.pop1()?) } else { None };
            let w = self.take_w();
            self.code.push(RInstr::RetStatic { w });
            self.ctx = self.callers.pop().expect("nonempty");
            if let Some(r) = retval {
                self.ctx.stack.push(r);
            }
            return Some(());
        }
        if has_value {
            self.ensure(1)?;
        }
        // Taken with the value still on the stack: from the outermost
        // frame the loop executes the return from this record.
        let exit = self.exit_for(func, pc)?;
        let retval = if has_value {
            self.ctx.stack.pop().expect("ensured")
        } else {
            0
        };
        let pre = self.take_pre();
        self.code.push(RInstr::Return {
            has_value,
            retval,
            exit,
            pre,
        });
        if let Some(next) = next {
            // Go on in the (real) caller frame: nothing renamed, the
            // full continuation depth is real.
            let pending = self.entry_depth(next)?;
            self.ctx = Ctx::new(self.decoded, next.func);
            self.ctx.pending = pending;
        }
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

/// A branch's condition, as the listing spells it.
fn cond_text(kind: CondKind, a: Reg, b: Reg) -> String {
    match kind {
        CondKind::ICmp(op) => format!("icmp.{} r{a}, r{b}", cmp_name(op)),
        CondKind::IZero(op) => format!("izero.{} r{a}", cmp_name(op)),
        CondKind::FCmp(op) => format!("fcmp.{} r{a}, r{b}", cmp_name(op)),
        CondKind::Null => format!("null r{a}"),
        CondKind::NonNull => format!("nonnull r{a}"),
    }
}

/// An exit slot, as the listing spells it: `on` for [`ON_TRACE`].
fn slot_text(slot: u32) -> String {
    if slot == ON_TRACE {
        "on".into()
    } else {
        format!("exit {slot}")
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
            RInstr::Bin {
                op: bin,
                a,
                b,
                dst,
                w,
            } => {
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
            } => format!(
                "r{dst} = new class#{} fields={nfields} img={image} [w={w}]",
                class.0
            ),
            RInstr::NewArray { len, dst, image, w } => {
                format!("r{dst} = newarray r{len} img={image} [w={w}]")
            }
            RInstr::Branch {
                kind: Some(kind),
                a,
                b,
                exits: [fall, taken],
                w,
            } => format!(
                "branch {} ? {} : {} [w={w}]",
                cond_text(*kind, *a, *b),
                slot_text(*taken),
                slot_text(*fall)
            ),
            RInstr::Branch {
                kind: None,
                exits: [_, taken],
                w,
                ..
            } => format!("goto {} [w={w}]", slot_text(*taken)),
            RInstr::Switch { table, selector, w } => {
                let t = rt.switches.table(*table);
                let slots: Vec<String> = t.targets.iter().map(|&e| slot_text(e)).collect();
                format!(
                    "switch r{selector} - {} ? [{}] : {} [w={w}]",
                    t.low,
                    slots.join(" "),
                    slot_text(t.default)
                )
            }
            RInstr::Call {
                target,
                ret,
                image,
                w,
                done,
            } => {
                let callee = match target {
                    CallTarget::Static(f) => format!("fn#{}", f.0),
                    CallTarget::Virtual { slot, recv, argc } => {
                        format!("slot {slot} of r{recv} argc {argc}")
                    }
                };
                format!("call {callee} ret={ret} img={image} done={done} [w={w}]")
            }
            RInstr::RetStatic { w } => format!("ret.static [w={w}]"),
            RInstr::Return {
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
