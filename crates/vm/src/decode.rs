//! Pre-decoding: lowering verified bytecode to a flat threaded form.
//!
//! The classic interpreter pays, per instruction, a `match` over the full
//! [`Instr`] enum (16 bytes, niche-heavy), a `block_index_of` table load
//! plus `cur_block` compare for dispatch detection, and bounds-checked
//! `Vec` operand traffic. This module performs a **one-time decode pass**
//! that removes all of it from the hot loop:
//!
//! * every instruction becomes a fixed-width 8-byte [`DOp`] — dense `u8`
//!   opcode, `u16` slot/field operand, `u32` target/pool operand — so the
//!   dispatch `match` is a small-integer jump table;
//! * jump targets are resolved to absolute indices into the decoded
//!   stream;
//! * **block-entry markers** ([`op::ENTER_BLOCK`]) are baked into the
//!   stream at every basic-block start, so block-dispatch detection is an
//!   opcode case instead of a per-instruction `cur_block` comparison.
//!   Branches target the marker *preceding* their destination, which is
//!   what makes self-loops re-fire a dispatch every iteration — exactly
//!   the reference interpreter's `NO_BLOCK` sentinel semantics;
//! * call arities, callee field counts and intrinsic identities are
//!   pre-resolved into the operands;
//! * per-function **max operand-stack depth** is read from the program
//!   (the verifier proved it when the program was built and the
//!   [`jvm_bytecode::Function`] carries it:
//!   [`max_stack`](jvm_bytecode::Function::max_stack)) so frames can live
//!   in fixed-size regions of a contiguous arena.
//!
//! The decoded stream is *per-program*: constants and switch tables live
//! in program-global pools so decoded fragments from different functions
//! can be mixed (the trace engine lowers compiled traces to the same
//! form).

use std::collections::HashMap;

use jvm_bytecode::{CmpOp, FuncId, Instr, Intrinsic, Program};

/// Decoded opcodes: dense `u8` values so the interpreter loop compiles to
/// a jump table. Conditional branches get one opcode **per comparison**
/// (base + [`cmp_offset`]) so no second decode of a `CmpOp` happens
/// at run time; intrinsics likewise get an opcode each.
pub mod op {
    /// Block-entry marker: fires a dispatch event; costs no fuel.
    pub const ENTER_BLOCK: u8 = 0;
    /// Push integer constant `iconsts[b]`.
    pub const ICONST: u8 = 1;
    /// Push float constant `fconsts[b]`.
    pub const FCONST: u8 = 2;
    /// Push null.
    pub const CONST_NULL: u8 = 3;
    /// Duplicate top of stack.
    pub const DUP: u8 = 4;
    /// Duplicate top two slots.
    pub const DUP2: u8 = 5;
    /// Discard top of stack.
    pub const POP: u8 = 6;
    /// Swap top two slots.
    pub const SWAP: u8 = 7;
    /// Push local `a`.
    pub const LOAD: u8 = 8;
    /// Pop into local `a`.
    pub const STORE: u8 = 9;
    /// Add `b as i32` to integer local `a`.
    pub const IINC: u8 = 10;
    /// Integer add.
    pub const IADD: u8 = 11;
    /// Integer subtract.
    pub const ISUB: u8 = 12;
    /// Integer multiply.
    pub const IMUL: u8 = 13;
    /// Integer divide.
    pub const IDIV: u8 = 14;
    /// Integer remainder.
    pub const IREM: u8 = 15;
    /// Integer negate.
    pub const INEG: u8 = 16;
    /// Shift left.
    pub const ISHL: u8 = 17;
    /// Arithmetic shift right.
    pub const ISHR: u8 = 18;
    /// Logical shift right.
    pub const IUSHR: u8 = 19;
    /// Bitwise and.
    pub const IAND: u8 = 20;
    /// Bitwise or.
    pub const IOR: u8 = 21;
    /// Bitwise xor.
    pub const IXOR: u8 = 22;
    /// Float add.
    pub const FADD: u8 = 23;
    /// Float subtract.
    pub const FSUB: u8 = 24;
    /// Float multiply.
    pub const FMUL: u8 = 25;
    /// Float divide.
    pub const FDIV: u8 = 26;
    /// Float negate.
    pub const FNEG: u8 = 27;
    /// Int to float.
    pub const I2F: u8 = 28;
    /// Float to int.
    pub const F2I: u8 = 29;
    /// `if_icmp eq` (first of six consecutive comparison opcodes).
    pub const IF_ICMP_EQ: u8 = 30;
    /// `if_icmp ge` (last of the six).
    pub const IF_ICMP_GE: u8 = 35;
    /// `if eq` against zero (first of six).
    pub const IF_I_EQ: u8 = 36;
    /// `if ge` against zero (last of six).
    pub const IF_I_GE: u8 = 41;
    /// `if_fcmp eq` (first of six).
    pub const IF_FCMP_EQ: u8 = 42;
    /// `if_fcmp ge` (last of six).
    pub const IF_FCMP_GE: u8 = 47;
    /// Branch if null.
    pub const IF_NULL: u8 = 48;
    /// Branch if non-null.
    pub const IF_NON_NULL: u8 = 49;
    /// Unconditional branch to `b`.
    pub const GOTO: u8 = 50;
    /// Multi-way branch through `switches[b]`.
    pub const TABLE_SWITCH: u8 = 51;
    /// Call function `b` with `a` pre-resolved arguments.
    pub const INVOKE_STATIC: u8 = 52;
    /// Call vtable slot `a` with `b` arguments (incl. receiver).
    pub const INVOKE_VIRTUAL: u8 = 53;
    /// Return top of stack.
    pub const RETURN: u8 = 54;
    /// Return void.
    pub const RETURN_VOID: u8 = 55;
    /// Allocate class `b` with `a` pre-resolved fields.
    pub const NEW: u8 = 56;
    /// Push field `a` of popped object.
    pub const GET_FIELD: u8 = 57;
    /// Store popped value into field `a` of popped object.
    pub const PUT_FIELD: u8 = 58;
    /// Allocate array of popped length.
    pub const NEW_ARRAY: u8 = 59;
    /// Array element load.
    pub const ALOAD: u8 = 60;
    /// Array element store.
    pub const ASTORE: u8 = 61;
    /// Array length.
    pub const ARRAY_LEN: u8 = 62;
    /// No-op.
    pub const NOP: u8 = 63;
    /// `sqrt` intrinsic (intrinsics are one opcode each, in
    /// [`super::INTRINSIC_ORDER`] order).
    pub const SQRT: u8 = 64;
    /// `sin` intrinsic.
    pub const SIN: u8 = 65;
    /// `cos` intrinsic.
    pub const COS: u8 = 66;
    /// `exp` intrinsic.
    pub const EXP: u8 = 67;
    /// `log` intrinsic.
    pub const LOG: u8 = 68;
    /// `fabs` intrinsic.
    pub const ABS_F: u8 = 69;
    /// `iabs` intrinsic.
    pub const ABS_I: u8 = 70;
    /// `imin` intrinsic.
    pub const MIN_I: u8 = 71;
    /// `imax` intrinsic.
    pub const MAX_I: u8 = 72;
    /// `print_i` intrinsic.
    pub const PRINT_INT: u8 = 73;
    /// `print_f` intrinsic.
    pub const PRINT_FLOAT: u8 = 74;
    /// `checksum` intrinsic.
    pub const CHECKSUM: u8 = 75;

    /// The mnemonic of opcode `o`, operands left out: the one name table
    /// of the decoded form. A comparison family has one name (its
    /// comparison is an operand), an intrinsic its own; a fused or
    /// unknown opcode is `"?"`.
    pub fn name(o: u8) -> &'static str {
        match o {
            ENTER_BLOCK => "enter_block",
            ICONST => "iconst",
            FCONST => "fconst",
            CONST_NULL => "const_null",
            DUP => "dup",
            DUP2 => "dup2",
            POP => "pop",
            SWAP => "swap",
            LOAD => "load",
            STORE => "store",
            IINC => "iinc",
            IADD => "iadd",
            ISUB => "isub",
            IMUL => "imul",
            IDIV => "idiv",
            IREM => "irem",
            INEG => "ineg",
            ISHL => "ishl",
            ISHR => "ishr",
            IUSHR => "iushr",
            IAND => "iand",
            IOR => "ior",
            IXOR => "ixor",
            FADD => "fadd",
            FSUB => "fsub",
            FMUL => "fmul",
            FDIV => "fdiv",
            FNEG => "fneg",
            I2F => "i2f",
            F2I => "f2i",
            IF_ICMP_EQ..=IF_ICMP_GE => "if_icmp",
            IF_I_EQ..=IF_I_GE => "if",
            IF_FCMP_EQ..=IF_FCMP_GE => "if_fcmp",
            IF_NULL => "if_null",
            IF_NON_NULL => "if_nonnull",
            GOTO => "goto",
            TABLE_SWITCH => "tableswitch",
            INVOKE_STATIC => "invokestatic",
            INVOKE_VIRTUAL => "invokevirtual",
            RETURN => "return",
            RETURN_VOID => "return_void",
            NEW => "new",
            GET_FIELD => "getfield",
            PUT_FIELD => "putfield",
            NEW_ARRAY => "newarray",
            ALOAD => "aload",
            ASTORE => "astore",
            ARRAY_LEN => "arraylen",
            NOP => "nop",
            SQRT..=CHECKSUM => super::INTRINSIC_ORDER[(o - SQRT) as usize].name(),
            _ => "?",
        }
    }
}

/// Intrinsic opcodes are laid out `op::SQRT + index_in(INTRINSIC_ORDER)`.
pub const INTRINSIC_ORDER: [Intrinsic; 12] = [
    Intrinsic::Sqrt,
    Intrinsic::Sin,
    Intrinsic::Cos,
    Intrinsic::Exp,
    Intrinsic::Log,
    Intrinsic::AbsF,
    Intrinsic::AbsI,
    Intrinsic::MinI,
    Intrinsic::MaxI,
    Intrinsic::PrintInt,
    Intrinsic::PrintFloat,
    Intrinsic::Checksum,
];

/// Offset of a comparison opcode from its family's base (`eq` first):
/// comparison opcodes are laid out `base + cmp_offset(op)`.
#[inline]
pub fn cmp_offset(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

/// The comparison at offset `rel` from its family's base (inverse of
/// [`cmp_offset`]).
#[inline]
pub fn cmp_at(rel: u8) -> CmpOp {
    match rel {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// One decoded operation: 8 bytes, fixed width.
///
/// Operand meaning depends on the opcode (see [`op`]): `a` carries small
/// pre-resolved quantities (local slot, field index, argument count),
/// `b` carries decoded branch targets, pool indices, or ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DOp {
    /// Dense opcode.
    pub op: u8,
    /// Small operand (slot / field / argc).
    pub a: u16,
    /// Wide operand (decoded target / pool index / id).
    pub b: u32,
}

impl DOp {
    /// Shorthand constructor.
    #[inline]
    pub fn new(op: u8, a: u16, b: u32) -> Self {
        DOp { op, a, b }
    }
}

/// A decoded `tableswitch`: jump table with **decoded** targets (each
/// pointing at the destination block's entry marker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DSwitch {
    /// Selector value mapped to `targets[0]`.
    pub low: i64,
    /// Decoded jump table.
    pub targets: Vec<u32>,
    /// Decoded default target.
    pub default: u32,
}

/// One function lowered to the flat decoded form.
#[derive(Debug, Clone)]
pub struct DecodedFunction {
    /// Decoded stream: block-entry markers interleaved with instructions.
    pub code: Vec<DOp>,
    /// Original pc → decoded index of that instruction. The marker of a
    /// block start `pc` sits at `pc_map[pc] - 1`.
    pub pc_map: Vec<u32>,
    /// Decoded index → containing block index (markers belong to the
    /// block they open).
    pub block_of: Vec<u32>,
    /// Parameter count.
    pub num_params: u16,
    /// Local slot count (parameters first).
    pub num_locals: u16,
    /// Verifier-derived maximum operand-stack depth.
    pub max_stack: u32,
    /// Arena region size: `num_locals + max_stack`.
    pub frame_size: u32,
}

impl DecodedFunction {
    /// Decoded index of the entry marker of block `block`.
    #[inline]
    pub fn block_entry(&self, start_pc: u32) -> u32 {
        self.pc_map[start_pc as usize] - 1
    }
}

/// A whole program in decoded form, with program-global pools.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Per-function decoded streams, indexed by [`FuncId`].
    pub funcs: Vec<DecodedFunction>,
    /// Integer constant pool (deduplicated).
    pub iconsts: Vec<i64>,
    /// Float constant pool (deduplicated by bit pattern).
    pub fconsts: Vec<f64>,
    /// Switch table pool.
    pub switches: Vec<DSwitch>,
}

/// Byte-footprint breakdown of a [`DecodedProgram`], for memory
/// reporting (real `Vec` capacities, matching the profiler's accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedMemory {
    /// Decoded opcode streams.
    pub code_bytes: usize,
    /// pc maps + block maps.
    pub map_bytes: usize,
    /// Constant and switch pools.
    pub pool_bytes: usize,
}

impl DecodedMemory {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.code_bytes + self.map_bytes + self.pool_bytes
    }
}

/// The decoder: one pass per function.
struct Decoder<'p> {
    program: &'p Program,
    iconsts: Vec<i64>,
    icmap: HashMap<i64, u32>,
    fconsts: Vec<f64>,
    fcmap: HashMap<u64, u32>,
    switches: Vec<DSwitch>,
}

impl<'p> Decoder<'p> {
    fn intern_i(&mut self, v: i64) -> u32 {
        if let Some(&i) = self.icmap.get(&v) {
            return i;
        }
        let i = self.iconsts.len() as u32;
        self.iconsts.push(v);
        self.icmap.insert(v, i);
        i
    }

    fn intern_f(&mut self, v: f64) -> u32 {
        if let Some(&i) = self.fcmap.get(&v.to_bits()) {
            return i;
        }
        let i = self.fconsts.len() as u32;
        self.fconsts.push(v);
        self.fcmap.insert(v.to_bits(), i);
        i
    }

    fn decode_function(&mut self, id: FuncId) -> DecodedFunction {
        let func = self.program.function(id);
        let code = func.code();
        let n = code.len();

        // Closed-form decoded layout: one marker before each block, so an
        // instruction at `pc` inside block `bi` lands at `pc + bi + 1`,
        // and a branch target `t` (always a block start) resolves to its
        // marker at `t + block_of(t)`.
        let pc_map: Vec<u32> = (0..n as u32)
            .map(|pc| pc + func.block_index_of(pc) + 1)
            .collect();
        let marker_of = |t: u32| t + func.block_index_of(t);

        let mut out: Vec<DOp> = Vec::with_capacity(n + func.block_count());
        let mut block_of: Vec<u32> = Vec::with_capacity(n + func.block_count());
        for (pc, ins) in code.iter().enumerate() {
            let bi = func.block_index_of(pc as u32);
            if func.block(bi).start == pc as u32 {
                out.push(DOp::new(op::ENTER_BLOCK, 0, bi));
                block_of.push(bi);
            }
            debug_assert_eq!(out.len() as u32, pc_map[pc]);
            out.push(self.decode_instr(ins, marker_of));
            block_of.push(bi);
        }

        let max_stack = func.max_stack();
        DecodedFunction {
            code: out,
            pc_map,
            block_of,
            num_params: func.num_params(),
            num_locals: func.num_locals(),
            max_stack,
            frame_size: u32::from(func.num_locals()) + max_stack,
        }
    }

    fn decode_instr(&mut self, ins: &Instr, marker_of: impl Fn(u32) -> u32) -> DOp {
        match ins {
            Instr::IConst(v) => DOp::new(op::ICONST, 0, self.intern_i(*v)),
            Instr::FConst(v) => DOp::new(op::FCONST, 0, self.intern_f(*v)),
            Instr::ConstNull => DOp::new(op::CONST_NULL, 0, 0),
            Instr::Dup => DOp::new(op::DUP, 0, 0),
            Instr::Dup2 => DOp::new(op::DUP2, 0, 0),
            Instr::Pop => DOp::new(op::POP, 0, 0),
            Instr::Swap => DOp::new(op::SWAP, 0, 0),
            Instr::Load(s) => DOp::new(op::LOAD, *s, 0),
            Instr::Store(s) => DOp::new(op::STORE, *s, 0),
            Instr::IInc(s, d) => DOp::new(op::IINC, *s, *d as u32),
            Instr::IAdd => DOp::new(op::IADD, 0, 0),
            Instr::ISub => DOp::new(op::ISUB, 0, 0),
            Instr::IMul => DOp::new(op::IMUL, 0, 0),
            Instr::IDiv => DOp::new(op::IDIV, 0, 0),
            Instr::IRem => DOp::new(op::IREM, 0, 0),
            Instr::INeg => DOp::new(op::INEG, 0, 0),
            Instr::IShl => DOp::new(op::ISHL, 0, 0),
            Instr::IShr => DOp::new(op::ISHR, 0, 0),
            Instr::IUShr => DOp::new(op::IUSHR, 0, 0),
            Instr::IAnd => DOp::new(op::IAND, 0, 0),
            Instr::IOr => DOp::new(op::IOR, 0, 0),
            Instr::IXor => DOp::new(op::IXOR, 0, 0),
            Instr::FAdd => DOp::new(op::FADD, 0, 0),
            Instr::FSub => DOp::new(op::FSUB, 0, 0),
            Instr::FMul => DOp::new(op::FMUL, 0, 0),
            Instr::FDiv => DOp::new(op::FDIV, 0, 0),
            Instr::FNeg => DOp::new(op::FNEG, 0, 0),
            Instr::I2F => DOp::new(op::I2F, 0, 0),
            Instr::F2I => DOp::new(op::F2I, 0, 0),
            Instr::IfICmp(c, t) => DOp::new(op::IF_ICMP_EQ + cmp_offset(*c), 0, marker_of(*t)),
            Instr::IfI(c, t) => DOp::new(op::IF_I_EQ + cmp_offset(*c), 0, marker_of(*t)),
            Instr::IfFCmp(c, t) => DOp::new(op::IF_FCMP_EQ + cmp_offset(*c), 0, marker_of(*t)),
            Instr::IfNull(t) => DOp::new(op::IF_NULL, 0, marker_of(*t)),
            Instr::IfNonNull(t) => DOp::new(op::IF_NON_NULL, 0, marker_of(*t)),
            Instr::Goto(t) => DOp::new(op::GOTO, 0, marker_of(*t)),
            Instr::TableSwitch {
                low,
                targets,
                default,
            } => {
                let sw = DSwitch {
                    low: *low,
                    targets: targets.iter().map(|&t| marker_of(t)).collect(),
                    default: marker_of(*default),
                };
                let idx = self.switches.len() as u32;
                self.switches.push(sw);
                DOp::new(op::TABLE_SWITCH, 0, idx)
            }
            Instr::InvokeStatic(callee) => {
                let argc = self.program.function(*callee).num_params();
                DOp::new(op::INVOKE_STATIC, argc, callee.0)
            }
            Instr::InvokeVirtual { slot, argc } => {
                DOp::new(op::INVOKE_VIRTUAL, *slot, u32::from(*argc))
            }
            Instr::Return => DOp::new(op::RETURN, 0, 0),
            Instr::ReturnVoid => DOp::new(op::RETURN_VOID, 0, 0),
            Instr::New(class) => {
                let nf = self.program.class(*class).num_fields();
                DOp::new(op::NEW, nf, class.0)
            }
            Instr::GetField(n) => DOp::new(op::GET_FIELD, *n, 0),
            Instr::PutField(n) => DOp::new(op::PUT_FIELD, *n, 0),
            Instr::NewArray => DOp::new(op::NEW_ARRAY, 0, 0),
            Instr::ALoad => DOp::new(op::ALOAD, 0, 0),
            Instr::AStore => DOp::new(op::ASTORE, 0, 0),
            Instr::ArrayLen => DOp::new(op::ARRAY_LEN, 0, 0),
            Instr::Intrinsic(i) => {
                let off = INTRINSIC_ORDER
                    .iter()
                    .position(|x| x == i)
                    .expect("all intrinsics are in INTRINSIC_ORDER")
                    as u8;
                DOp::new(op::SQRT + off, 0, 0)
            }
            Instr::Nop => DOp::new(op::NOP, 0, 0),
        }
    }
}

impl DecodedProgram {
    /// Lowers a verified program. One-time cost, outside the hot loop.
    pub fn decode(program: &Program) -> Self {
        let mut d = Decoder {
            program,
            iconsts: Vec::new(),
            icmap: HashMap::new(),
            fconsts: Vec::new(),
            fcmap: HashMap::new(),
            switches: Vec::new(),
        };
        let funcs = program
            .functions()
            .iter()
            .map(|f| d.decode_function(f.id()))
            .collect();
        DecodedProgram {
            funcs,
            iconsts: d.iconsts,
            fconsts: d.fconsts,
            switches: d.switches,
        }
    }

    /// The decoded form of a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &DecodedFunction {
        &self.funcs[id.index()]
    }

    /// Real byte footprint (capacities, not lengths).
    pub fn memory_estimate(&self) -> DecodedMemory {
        let mut m = DecodedMemory::default();
        for f in &self.funcs {
            m.code_bytes += f.code.capacity() * std::mem::size_of::<DOp>();
            m.map_bytes += (f.pc_map.capacity() + f.block_of.capacity()) * 4;
        }
        m.pool_bytes += self.iconsts.capacity() * 8 + self.fconsts.capacity() * 8;
        for sw in &self.switches {
            m.pool_bytes += std::mem::size_of::<DSwitch>() + sw.targets.capacity() * 4;
        }
        m
    }

    /// Renders one decoded operation (used by the decoded golden test and
    /// debugging).
    pub fn dop_to_string(&self, d: &DOp) -> String {
        let name = op::name(d.op);
        let cmp = |base: u8| cmp_at(d.op - base);
        match d.op {
            op::ENTER_BLOCK => format!("{name} b{}", d.b),
            op::ICONST => format!("{name} {}", self.iconsts[d.b as usize]),
            op::FCONST => format!("{name} {}", self.fconsts[d.b as usize]),
            op::LOAD | op::STORE | op::GET_FIELD | op::PUT_FIELD => format!("{name} {}", d.a),
            op::IINC => format!("{name} {}, {}", d.a, d.b as i32),
            op::IF_ICMP_EQ..=op::IF_ICMP_GE => {
                format!("{name} {} -> {}", cmp(op::IF_ICMP_EQ), d.b)
            }
            op::IF_I_EQ..=op::IF_I_GE => format!("{name} {} -> {}", cmp(op::IF_I_EQ), d.b),
            op::IF_FCMP_EQ..=op::IF_FCMP_GE => {
                format!("{name} {} -> {}", cmp(op::IF_FCMP_EQ), d.b)
            }
            op::IF_NULL | op::IF_NON_NULL | op::GOTO => format!("{name} -> {}", d.b),
            op::TABLE_SWITCH => {
                let sw = &self.switches[d.b as usize];
                let ts: Vec<String> = sw.targets.iter().map(|t| t.to_string()).collect();
                format!(
                    "{name} low={} [{}] default -> {}",
                    sw.low,
                    ts.join(", "),
                    sw.default
                )
            }
            op::INVOKE_STATIC => format!("{name} fn#{} argc={}", d.b, d.a),
            op::INVOKE_VIRTUAL => format!("{name} slot={} argc={}", d.a, d.b),
            op::NEW => format!("{name} class#{} fields={}", d.b, d.a),
            other if crate::fuse::is_fused(other) => {
                let desc = crate::fuse::desc_for(other);
                let head = DOp::new(crate::fuse::base_op(other), d.a, d.b);
                format!("{{{}}} {}", desc.name, self.dop_to_string(&head))
            }
            other if name == "?" => format!("?op{other}"),
            _ => name.into(),
        }
    }

    /// `javap`-style listing of the decoded form, for golden tests.
    pub fn disassemble(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for func in program.functions() {
            let df = self.func(func.id());
            let _ = writeln!(
                out,
                "fn {} ({}) params={} locals={} max_stack={} frame={}",
                func.name(),
                func.id(),
                df.num_params,
                df.num_locals,
                df.max_stack,
                df.frame_size
            );
            for (i, d) in df.code.iter().enumerate() {
                let _ = writeln!(out, "  {i:4}: {}", self.dop_to_string(d));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::ProgramBuilder;

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(acc).load(0).iadd().store(acc);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn dop_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<DOp>(), 8);
    }

    #[test]
    fn decoding_is_deterministic() {
        // Decoding is a pure function of the program: the decoded goldens
        // and every pc a lowered trace pre-resolves assume that two
        // decodes of one program agree index for index.
        let p = loop_program();
        let (a, b) = (DecodedProgram::decode(&p), DecodedProgram::decode(&p));
        assert_eq!(a.disassemble(&p), b.disassemble(&p));
        assert_eq!(a.iconsts, b.iconsts);
        assert_eq!(a.switches, b.switches);
        let (fa, fb) = (a.func(p.entry()), b.func(p.entry()));
        assert_eq!((&fa.pc_map, &fa.block_of), (&fb.pc_map, &fb.block_of));
    }

    #[test]
    fn every_block_start_has_a_marker() {
        let p = loop_program();
        let d = DecodedProgram::decode(&p);
        let func = p.function(p.entry());
        let df = d.func(p.entry());
        assert_eq!(
            df.code.len(),
            func.code().len() + func.block_count(),
            "one marker per block"
        );
        for bi in 0..func.block_count() as u32 {
            let start = func.block(bi).start;
            let marker = df.block_entry(start);
            assert_eq!(df.code[marker as usize], DOp::new(op::ENTER_BLOCK, 0, bi));
            assert_eq!(df.block_of[marker as usize], bi);
        }
    }

    #[test]
    fn branch_targets_point_at_markers() {
        let p = loop_program();
        let d = DecodedProgram::decode(&p);
        let df = d.func(p.entry());
        for dop in &df.code {
            if (op::IF_ICMP_EQ..=op::GOTO).contains(&dop.op) {
                assert_eq!(
                    df.code[dop.b as usize].op,
                    op::ENTER_BLOCK,
                    "decoded branch target must be a block marker"
                );
            }
        }
    }

    #[test]
    fn pc_map_projects_one_to_one() {
        let p = loop_program();
        let d = DecodedProgram::decode(&p);
        let func = p.function(p.entry());
        let df = d.func(p.entry());
        for (pc, ins) in func.code().iter().enumerate() {
            let dop = df.code[df.pc_map[pc] as usize];
            assert_ne!(dop.op, op::ENTER_BLOCK, "pc {pc} maps to {ins:?}");
            assert_eq!(
                df.block_of[df.pc_map[pc] as usize],
                func.block_index_of(pc as u32)
            );
        }
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f)
            .iconst(7)
            .iconst(7)
            .iadd()
            .iconst(7)
            .iadd()
            .ret();
        let p = pb.build(f).unwrap();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.iconsts, vec![7]);
    }

    #[test]
    fn switch_targets_are_decoded() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let c0 = b.new_label();
            let dfl = b.new_label();
            b.load(0).table_switch(0, &[c0], dfl);
            b.bind(c0);
            b.iconst(1).ret();
            b.bind(dfl);
            b.iconst(2).ret();
        }
        let p = pb.build(f).unwrap();
        let d = DecodedProgram::decode(&p);
        let df = d.func(p.entry());
        assert_eq!(d.switches.len(), 1);
        let sw = &d.switches[0];
        for &t in sw.targets.iter().chain(std::iter::once(&sw.default)) {
            assert_eq!(df.code[t as usize].op, op::ENTER_BLOCK);
        }
    }

    #[test]
    fn calls_carry_preresolved_arity() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare_function("leaf", 2, true);
        pb.function_mut(leaf).load(0).load(1).iadd().ret();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .invoke_static(leaf)
            .ret();
        let p = pb.build(f).unwrap();
        let d = DecodedProgram::decode(&p);
        let df = d.func(f);
        let call = df.code.iter().find(|x| x.op == op::INVOKE_STATIC).unwrap();
        assert_eq!(call.a, 2);
        assert_eq!(call.b, leaf.0);
    }

    #[test]
    fn memory_estimate_is_nonzero_and_bounded() {
        let p = loop_program();
        let d = DecodedProgram::decode(&p);
        let m = d.memory_estimate();
        assert!(m.code_bytes > 0);
        assert!(m.total() >= m.code_bytes + m.map_bytes);
        assert!(m.total() < 64 * 1024, "tiny program, tiny footprint");
    }

    #[test]
    fn disassembly_mentions_markers_and_targets() {
        let p = loop_program();
        let d = DecodedProgram::decode(&p);
        let text = d.disassemble(&p);
        assert!(text.contains("enter_block b0"));
        assert!(text.contains("goto ->"));
        assert!(text.contains("max_stack="));
    }
}
