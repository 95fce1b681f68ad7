//! The interpreter: a pre-decoded threaded execution engine.
//!
//! Programs are lowered once by [`DecodedProgram::decode`] into flat
//! fixed-width opcode streams (see [`crate::decode`]) and then executed by
//! a tight loop. Three design points matter for the reproduction:
//!
//! 1. **Block-dispatch accounting.** Block-entry markers are baked into
//!    the decoded stream, so every basic-block entry is (a) counted in
//!    [`ExecStats::block_dispatches`] and (b) reported to the
//!    [`DispatchObserver`] by a dedicated opcode case — no per-instruction
//!    `block_index_of` lookups. This models the dispatch cost structure of
//!    SableVM's direct-threaded-inlining engine: one dispatch per block,
//!    with the profiler attached to the dispatch code. Markers cost no
//!    fuel and are not counted as instructions, so every observable count
//!    matches the frozen [`crate::ReferenceVm`] exactly.
//! 2. **Verifier-justified unchecked stack ops.** The verifier proves
//!    every reachable pc has a consistent operand-stack depth bounded by
//!    [`crate::decode::DecodedFunction::max_stack`] — its own bound,
//!    carried by the program's `Function`; a `Program` that has not
//!    passed it cannot be constructed outside `jvm-bytecode` — so operand
//!    traffic uses unchecked slab access (verifier invariant 1 in
//!    DESIGN.md). Debug builds keep `debug_assert!` bounds on every
//!    access.
//! 3. **Frame arena.** All locals and operand stacks live in one
//!    contiguous [`FrameArena`] slab with per-frame base offsets; a call
//!    is a pointer bump plus an argument `copy_within` instead of two
//!    `Vec` allocations. The hot loop caches `pc`/`sp` in registers and
//!    flushes them only at call/return/GC boundaries.
//!
//! The loop still performs the data-dependent checks a JVM would also
//! perform (null, bounds, division by zero): every operation, with its
//! checks and their order, is [`crate::semantics`]'s, shared with the
//! fused arms and the register-trace executor.

use jvm_bytecode::{BlockId, ClassId, FuncId, Program};

use crate::arena::{self, FrameArena};
use crate::decode::{cmp_at, op, DOp, DecodedProgram};
use crate::driver::{BlockDriver, Machine, Observing};
use crate::error::VmError;
use crate::fuse::{self, fop, BlockCounts, FusionConfig, FusionPlan, FusionReport};
use crate::heap::{Heap, HeapStats};
use crate::observer::DispatchObserver;
use crate::semantics;
use crate::stats::ExecStats;
use crate::value::{OutputItem, Value};

/// Configuration for a [`Vm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Maximum instructions to execute before [`VmError::OutOfFuel`].
    pub max_steps: u64,
    /// Maximum call-stack depth before [`VmError::CallStackOverflow`].
    pub max_frames: usize,
    /// Initial live-object count that triggers a collection.
    pub gc_threshold: usize,
    /// Whether `print_i`/`print_f` append to the output sink (disable for
    /// timing runs so output costs don't pollute measurements).
    pub capture_output: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: u64::MAX,
            max_frames: 1 << 14,
            gc_threshold: 64 * 1024,
            capture_output: true,
        }
    }
}

/// Folds a checksummed integer into a running checksum (FNV-1a flavoured;
/// order-sensitive so reordered execution is detected).
///
/// Public so that workload reference implementations can predict the
/// checksum a program's `checksum` intrinsics will accumulate.
///
/// ```
/// let c = jvm_vm::fold_checksum(0, 7);
/// assert_ne!(c, 0);
/// assert_ne!(jvm_vm::fold_checksum(c, 8), jvm_vm::fold_checksum(c, 9));
/// ```
#[inline]
pub fn fold_checksum(acc: u64, v: i64) -> u64 {
    (acc ^ (v as u64)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Reads slab slot `i` without a release-mode bounds check.
///
/// The verifier bounds every frame's operand-stack depth and local count,
/// and the arena sizes the slab to cover `base..limit` of every live
/// frame, so all interpreter accesses are in range by construction.
#[inline(always)]
fn slot(slab: &[Value], i: u32) -> Value {
    // SAFETY: see above — the index is within the slab for verified code.
    unsafe { arena::slot(slab, i) }
}

/// Writes slab slot `i` without a release-mode bounds check (see [`slot`]).
#[inline(always)]
fn slot_mut(slab: &mut [Value], i: u32) -> &mut Value {
    // SAFETY: see `slot` — the index is within the slab for verified code.
    unsafe { arena::slot_mut(slab, i) }
}

/// The virtual machine.
///
/// A `Vm` borrows its (immutable, verified) [`Program`], pre-decodes it at
/// construction time, and owns all mutable run state: heap, frame arena,
/// statistics, checksum and output sink. [`Vm::run`] resets that state, so
/// one `Vm` can execute many runs (and reuse its arena capacity).
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    decoded: DecodedProgram,
    config: VmConfig,
    heap: Heap,
    arena: FrameArena,
    stats: ExecStats,
    checksum: u64,
    output: Vec<OutputItem>,
}

impl<'p> Vm<'p> {
    /// Creates a VM with the default configuration.
    pub fn new(program: &'p Program) -> Self {
        Self::with_config(program, VmConfig::default())
    }

    /// Creates a VM with an explicit configuration. This is where the
    /// one-time decode pass runs.
    pub fn with_config(program: &'p Program, config: VmConfig) -> Self {
        Vm {
            program,
            decoded: DecodedProgram::decode(program),
            config,
            heap: Heap::new(config.gc_threshold),
            arena: FrameArena::new(),
            stats: ExecStats::default(),
            checksum: 0,
            output: Vec::new(),
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The pre-decoded form of the program.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// Builds a [`fuse::FusionProfile`] from a profiling run's block
    /// `counts`, selects patterns per function with `cfg`, and applies
    /// the resulting plan.
    pub fn fuse_with_profile(&mut self, counts: BlockCounts, cfg: &FusionConfig) -> FusionReport {
        let profile = fuse::FusionProfile::collect(&self.decoded, counts);
        let plan = FusionPlan::select(profile, cfg);
        fuse::apply(&mut self.decoded, &plan)
    }

    /// Restores the unfused decoded streams.
    pub fn unfuse(&mut self) {
        fuse::unfuse(&mut self.decoded);
    }

    /// Test hook: plants a deliberately broken fusion rewrite (see
    /// [`fuse::FuseQuirk`]). The fusion differential and conformance
    /// suites use this to prove they catch mis-fused boundaries.
    pub fn plant_fuse_quirk(&mut self, quirk: fuse::FuseQuirk) -> bool {
        fuse::plant_quirk(&mut self.decoded, quirk)
    }

    /// Byte footprint of the frame arena (slab + frame records).
    pub fn arena_memory(&self) -> usize {
        self.arena.memory_estimate()
    }

    /// Statistics of the most recent run.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Heap statistics of the most recent run.
    pub fn heap_stats(&self) -> HeapStats {
        self.heap.stats()
    }

    /// Checksum accumulated by `checksum` intrinsics during the most
    /// recent run.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Output captured from print intrinsics during the most recent run.
    pub fn output(&self) -> &[OutputItem] {
        &self.output
    }

    /// Executes the program's entry function with `args`, reporting every
    /// basic-block dispatch to `observer`.
    ///
    /// Returns the entry function's return value, if it returns one.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on runtime traps (division by zero, null
    /// dereference, bounds), wrong entry arguments, or when a configured
    /// resource limit is hit.
    pub fn run<O: DispatchObserver>(
        &mut self,
        args: &[Value],
        observer: &mut O,
    ) -> Result<Option<Value>, VmError> {
        self.run_driven(args, Observing(observer))
    }

    /// [`Self::run`] with a [`BlockDriver`] on the dispatch hook: every
    /// block dispatch is offered to `driver`, which may run a linked
    /// trace against the machine state in place of the block (see
    /// [`crate::driver`] for the hand-off contract).
    ///
    /// # Errors
    ///
    /// As [`Self::run`], plus any [`VmError`] a trace raises.
    pub fn run_driven<D: BlockDriver>(
        &mut self,
        args: &[Value],
        mut driver: D,
    ) -> Result<Option<Value>, VmError> {
        // Reset run state.
        self.heap = Heap::new(self.config.gc_threshold);
        self.arena.clear();
        self.stats = ExecStats::default();
        self.checksum = 0;
        self.output.clear();

        let program = self.program;
        let entry = program.entry();
        let ef = program.function(entry);
        if args.len() != ef.num_params() as usize {
            return Err(VmError::BadEntryArgs {
                func: entry,
                expected: ef.num_params(),
                provided: args.len(),
            });
        }

        // Split the borrows: the decoded streams are read-only while the
        // heap/arena/stats are mutated by the loop.
        let config = self.config;
        let Vm {
            decoded,
            heap,
            arena,
            stats,
            checksum,
            output,
            ..
        } = self;
        let decoded: &DecodedProgram = decoded;

        // Frame-local state, cached in locals and flushed to the arena at
        // call/return/GC boundaries.
        let mut func = entry;
        let mut code: &[DOp] = &decoded.func(entry).code;
        {
            let df = decoded.func(entry);
            arena.push_entry(entry, u32::from(df.num_locals), df.frame_size, args);
        }
        stats.max_frame_depth = 1;
        let mut pc: u32 = 0;
        let (mut base, mut sbase, mut limit, mut sp) = {
            let t = arena.top();
            (t.base, t.stack_base, t.limit, t.sp)
        };

        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                debug_assert!(sp < limit, "verified max_stack bound");
                *slot_mut(&mut arena.slab, sp) = v;
                sp += 1;
            }};
        }
        macro_rules! pop {
            () => {{
                debug_assert!(sp > sbase, "verified code cannot underflow");
                sp -= 1;
                slot(&arena.slab, sp)
            }};
        }
        // Reloads the cached frame state from the arena top (after a
        // call or return changed the active frame).
        macro_rules! reload {
            () => {{
                let t = arena.top();
                func = t.func;
                code = &decoded.func(func).code;
                pc = t.pc;
                base = t.base;
                sbase = t.stack_base;
                limit = t.limit;
                sp = t.sp;
            }};
        }
        // Runs a collection if the heap suggests one; the live regions of
        // the arena slab are exactly the roots.
        macro_rules! maybe_collect {
            () => {{
                if heap.should_collect() {
                    arena.top_mut().sp = sp;
                    heap.collect(arena.roots());
                }
            }};
        }
        // Pushes a callee frame for `$callee` with `$argc` stack-passed
        // arguments; the caller resumes past the call instruction.
        macro_rules! enter_call {
            ($callee:expr, $argc:expr) => {{
                if arena.depth() >= config.max_frames {
                    return Err(VmError::CallStackOverflow);
                }
                stats.calls += 1;
                let callee = $callee;
                let cdf = decoded.func(callee);
                {
                    let t = arena.top_mut();
                    t.pc = pc + 1;
                    t.sp = sp;
                }
                arena.push_call(callee, u32::from(cdf.num_locals), cdf.frame_size, $argc);
                stats.max_frame_depth = stats.max_frame_depth.max(arena.depth());
                reload!();
            }};
        }
        // --- Superinstruction support (see crate::fuse) ----------------
        // Reads the shadow slot of the $i-th constituent of a fused
        // group; the rewrite guarantees the whole group lies inside the
        // stream (and inside one block).
        macro_rules! shadow {
            ($i:expr) => {{
                debug_assert!(((pc + $i) as usize) < code.len(), "fused group in bounds");
                // SAFETY: fuse::apply only plants heads whose full
                // pattern matched within the stream.
                unsafe { *code.get_unchecked((pc + $i) as usize) }
            }};
        }
        // Fuel gate between fused constituents: the head was paid for by
        // the loop prelude; each further constituent pays here, erroring
        // at exactly the instruction count the unfused stream would.
        macro_rules! fstep {
            () => {{
                if stats.instructions >= config.max_steps {
                    return Err(VmError::OutOfFuel);
                }
                stats.instructions += 1;
            }};
        }
        // --- Operations (crate::semantics) ----------------------------
        // A two- or one-operand operation of family `$f` on popped
        // operands, its `$ty` result pushed: every arm passes its own
        // opcode, so each compiles to that one operation's body.
        macro_rules! op2 {
            ($ty:ident, $f:ident, $opc:expr) => {{
                let b = pop!();
                let a = pop!();
                push!(Value::$ty(semantics::$f($opc, a, b)?));
                pc += 1;
            }};
        }
        macro_rules! op1 {
            ($ty:ident, $f:ident, $opc:expr) => {{
                let a = pop!();
                push!(Value::$ty(semantics::$f($opc, a)?));
                pc += 1;
            }};
        }
        // A conditional branch `$len` DOps long, counted whichever way
        // it goes.
        macro_rules! branch {
            ($taken:expr, $target:expr, $len:expr) => {{
                let taken = $taken;
                stats.branches += 1;
                if taken {
                    stats.taken_branches += 1;
                    pc = $target;
                } else {
                    pc += $len;
                }
            }};
        }

        loop {
            debug_assert!((pc as usize) < code.len(), "terminators bound the stream");
            // SAFETY: verified functions end in terminators, so `pc` never
            // runs past the decoded stream.
            let d = unsafe { *code.get_unchecked(pc as usize) };

            // Block-entry markers fire the dispatch event; they cost no
            // fuel and are not instructions.
            if d.op == op::ENTER_BLOCK {
                stats.block_dispatches += 1;
                let linked = driver.on_block(BlockId::new(func, d.b));
                pc += 1;
                if let Some(trace) = linked {
                    {
                        let t = arena.top_mut();
                        t.pc = pc;
                        t.sp = sp;
                    }
                    let mut m = Machine {
                        decoded,
                        config: &config,
                        heap: &mut *heap,
                        arena: &mut *arena,
                        stats: &mut *stats,
                        checksum: &mut *checksum,
                        output: &mut *output,
                    };
                    driver.run_trace(trace, &mut m)?;
                    reload!();
                }
                continue;
            }

            if stats.instructions >= config.max_steps {
                return Err(VmError::OutOfFuel);
            }
            stats.instructions += 1;

            match d.op {
                op::ICONST => {
                    push!(Value::Int(decoded.iconsts[d.b as usize]));
                    pc += 1;
                }
                op::FCONST => {
                    push!(Value::Float(decoded.fconsts[d.b as usize]));
                    pc += 1;
                }
                op::CONST_NULL => {
                    push!(Value::Null);
                    pc += 1;
                }
                op::DUP => {
                    push!(slot(&arena.slab, sp - 1));
                    pc += 1;
                }
                op::DUP2 => {
                    let a = slot(&arena.slab, sp - 2);
                    let b = slot(&arena.slab, sp - 1);
                    push!(a);
                    push!(b);
                    pc += 1;
                }
                op::POP => {
                    let _ = pop!();
                    pc += 1;
                }
                op::SWAP => {
                    let a = slot(&arena.slab, sp - 1);
                    let b = slot(&arena.slab, sp - 2);
                    *slot_mut(&mut arena.slab, sp - 1) = b;
                    *slot_mut(&mut arena.slab, sp - 2) = a;
                    pc += 1;
                }
                op::LOAD => {
                    push!(slot(&arena.slab, base + u32::from(d.a)));
                    pc += 1;
                }
                op::STORE => {
                    let v = pop!();
                    *slot_mut(&mut arena.slab, base + u32::from(d.a)) = v;
                    pc += 1;
                }
                op::IINC => {
                    let i = base + u32::from(d.a);
                    let v = semantics::iinc(slot(&arena.slab, i), d.b as i32)?;
                    *slot_mut(&mut arena.slab, i) = Value::Int(v);
                    pc += 1;
                }
                op::IADD => op2!(Int, ibin, op::IADD),
                op::ISUB => op2!(Int, ibin, op::ISUB),
                op::IMUL => op2!(Int, ibin, op::IMUL),
                op::IDIV => op2!(Int, ibin, op::IDIV),
                op::IREM => op2!(Int, ibin, op::IREM),
                op::INEG => op1!(Int, iunary, op::INEG),
                op::ISHL => op2!(Int, ibin, op::ISHL),
                op::ISHR => op2!(Int, ibin, op::ISHR),
                op::IUSHR => op2!(Int, ibin, op::IUSHR),
                op::IAND => op2!(Int, ibin, op::IAND),
                op::IOR => op2!(Int, ibin, op::IOR),
                op::IXOR => op2!(Int, ibin, op::IXOR),
                op::FADD => op2!(Float, fbin, op::FADD),
                op::FSUB => op2!(Float, fbin, op::FSUB),
                op::FMUL => op2!(Float, fbin, op::FMUL),
                op::FDIV => op2!(Float, fbin, op::FDIV),
                op::FNEG => op1!(Float, funary, op::FNEG),
                op::I2F => op1!(Float, funary, op::I2F),
                op::F2I => op1!(Int, iunary, op::F2I),
                op::IF_ICMP_EQ..=op::IF_ICMP_GE => {
                    let b = pop!();
                    let (a, b) = semantics::ints(pop!(), b)?;
                    branch!(semantics::icmp(cmp_at(d.op - op::IF_ICMP_EQ), a, b), d.b, 1);
                }
                op::IF_I_EQ..=op::IF_I_GE => {
                    let a = pop!().as_int()?;
                    branch!(semantics::icmp(cmp_at(d.op - op::IF_I_EQ), a, 0), d.b, 1);
                }
                op::IF_FCMP_EQ..=op::IF_FCMP_GE => {
                    let b = pop!();
                    let (a, b) = semantics::floats(pop!(), b)?;
                    branch!(semantics::fcmp(cmp_at(d.op - op::IF_FCMP_EQ), a, b), d.b, 1);
                }
                op::IF_NULL => branch!(matches!(pop!(), Value::Null), d.b, 1),
                op::IF_NON_NULL => branch!(!matches!(pop!(), Value::Null), d.b, 1),
                op::GOTO => {
                    pc = d.b;
                }
                op::TABLE_SWITCH => {
                    let sw = &decoded.switches[d.b as usize];
                    pc = semantics::switch_target(pop!(), sw.low, &sw.targets, sw.default)?;
                    stats.branches += 1;
                    stats.taken_branches += 1;
                }
                op::INVOKE_STATIC => {
                    enter_call!(FuncId(d.b), u32::from(d.a));
                }
                op::INVOKE_VIRTUAL => {
                    let argc = d.b;
                    let recv = slot(&arena.slab, sp - argc);
                    let callee = semantics::resolve_virtual(program, heap, recv, d.a)?;
                    stats.virtual_calls += 1;
                    enter_call!(callee, argc);
                }
                op::RETURN => {
                    let v = pop!();
                    stats.returns += 1;
                    arena.pop_frame();
                    if arena.depth() == 0 {
                        return Ok(Some(v));
                    }
                    reload!();
                    push!(v);
                }
                op::RETURN_VOID => {
                    stats.returns += 1;
                    arena.pop_frame();
                    if arena.depth() == 0 {
                        return Ok(None);
                    }
                    reload!();
                }
                op::NEW => {
                    maybe_collect!();
                    let r = heap.alloc_object(ClassId(d.b), d.a);
                    push!(Value::Ref(r));
                    pc += 1;
                }
                op::GET_FIELD => {
                    let obj = pop!();
                    push!(*semantics::field(heap, obj, d.a)?);
                    pc += 1;
                }
                op::PUT_FIELD => {
                    let v = pop!();
                    let obj = pop!();
                    *semantics::field_mut(heap, obj, d.a)? = v;
                    pc += 1;
                }
                op::NEW_ARRAY => {
                    let len = pop!().as_int()?;
                    maybe_collect!();
                    let r = heap.alloc_array(len)?;
                    push!(Value::Ref(r));
                    pc += 1;
                }
                op::ALOAD => {
                    let idx = pop!();
                    let arr = pop!();
                    push!(*semantics::element(heap, arr, idx)?);
                    pc += 1;
                }
                op::ASTORE => {
                    let v = pop!();
                    let idx = pop!();
                    let arr = pop!();
                    *semantics::element_mut(heap, arr, idx)? = v;
                    pc += 1;
                }
                op::ARRAY_LEN => {
                    let arr = pop!();
                    push!(Value::Int(semantics::arraylen(heap, arr)?));
                    pc += 1;
                }
                op::NOP => {
                    pc += 1;
                }
                op::SQRT => op1!(Float, funary, op::SQRT),
                op::SIN => op1!(Float, funary, op::SIN),
                op::COS => op1!(Float, funary, op::COS),
                op::EXP => op1!(Float, funary, op::EXP),
                op::LOG => op1!(Float, funary, op::LOG),
                op::ABS_F => op1!(Float, funary, op::ABS_F),
                op::ABS_I => op1!(Int, iunary, op::ABS_I),
                op::MIN_I => op2!(Int, ibin, op::MIN_I),
                op::MAX_I => op2!(Int, ibin, op::MAX_I),
                op::PRINT_INT => {
                    let v = pop!().as_int()?;
                    if config.capture_output {
                        output.push(OutputItem::Int(v));
                    }
                    pc += 1;
                }
                op::PRINT_FLOAT => {
                    let v = pop!().as_float()?;
                    if config.capture_output {
                        output.push(OutputItem::Float(v));
                    }
                    pc += 1;
                }
                op::CHECKSUM => {
                    let v = pop!().as_int()?;
                    *checksum = fold_checksum(*checksum, v);
                    pc += 1;
                }
                // --- Fused superinstructions (crate::fuse) -------------
                // Each arm executes its constituents with the reference
                // operand-evaluation and error order; `fstep!` charges
                // fuel per constituent so OutOfFuel parity is exact.
                // Operands of later constituents come from the shadow
                // slots, which still hold the original DOps.
                fop::LOAD_LOAD_IBIN => {
                    let x = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    let y = slot(&arena.slab, base + u32::from(d2.a));
                    fstep!();
                    let d3 = shadow!(2);
                    push!(Value::Int(semantics::ibin(d3.op, x, y)?));
                    pc += 3;
                }
                fop::LOAD_ICONST_IBIN => {
                    let x = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    let y = Value::Int(decoded.iconsts[d2.b as usize]);
                    fstep!();
                    let d3 = shadow!(2);
                    push!(Value::Int(semantics::ibin(d3.op, x, y)?));
                    pc += 3;
                }
                fop::LOAD_LOAD_ICMP => {
                    let x = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    let y = slot(&arena.slab, base + u32::from(d2.a));
                    fstep!();
                    let d3 = shadow!(2);
                    let (a, b) = semantics::ints(x, y)?;
                    branch!(
                        semantics::icmp(cmp_at(d3.op - op::IF_ICMP_EQ), a, b),
                        d3.b,
                        3
                    );
                }
                fop::LOAD_LOAD => {
                    let x = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    push!(x);
                    push!(slot(&arena.slab, base + u32::from(d2.a)));
                    pc += 2;
                }
                fop::LOAD_ICONST => {
                    let x = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    push!(x);
                    push!(Value::Int(decoded.iconsts[d2.b as usize]));
                    pc += 2;
                }
                fop::STORE_LOAD => {
                    let v = pop!();
                    *slot_mut(&mut arena.slab, base + u32::from(d.a)) = v;
                    fstep!();
                    let d2 = shadow!(1);
                    push!(slot(&arena.slab, base + u32::from(d2.a)));
                    pc += 2;
                }
                fop::LOAD_IBIN => {
                    let y = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    push!(Value::Int(semantics::ibin(d2.op, x, y)?));
                    pc += 2;
                }
                fop::ICONST_IBIN => {
                    let y = Value::Int(decoded.iconsts[d.b as usize]);
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    push!(Value::Int(semantics::ibin(d2.op, x, y)?));
                    pc += 2;
                }
                fop::LOAD_ICMP => {
                    let y = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    let (a, b) = semantics::ints(x, y)?;
                    branch!(
                        semantics::icmp(cmp_at(d2.op - op::IF_ICMP_EQ), a, b),
                        d2.b,
                        2
                    );
                }
                fop::ICONST_ICMP => {
                    let y = Value::Int(decoded.iconsts[d.b as usize]);
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    let (a, b) = semantics::ints(x, y)?;
                    branch!(
                        semantics::icmp(cmp_at(d2.op - op::IF_ICMP_EQ), a, b),
                        d2.b,
                        2
                    );
                }
                fop::IINC_GOTO => {
                    let i = base + u32::from(d.a);
                    let v = semantics::iinc(slot(&arena.slab, i), d.b as i32)?;
                    *slot_mut(&mut arena.slab, i) = Value::Int(v);
                    fstep!();
                    let d2 = shadow!(1);
                    // GOTO is unconditional: no branch counters, like
                    // the standalone handler.
                    pc = d2.b;
                }
                fop::IADD_STORE => {
                    let b = pop!();
                    let a = pop!();
                    let v = Value::Int(semantics::ibin(op::IADD, a, b)?);
                    fstep!();
                    let d2 = shadow!(1);
                    *slot_mut(&mut arena.slab, base + u32::from(d2.a)) = v;
                    pc += 2;
                }
                fop::FCONST_FBIN => {
                    let y = Value::Float(decoded.fconsts[d.b as usize]);
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    push!(Value::Float(semantics::fbin(d2.op, x, y)?));
                    pc += 2;
                }
                fop::LOAD_ALOAD => {
                    let idx = slot(&arena.slab, base + u32::from(d.a));
                    fstep!();
                    let arr = pop!();
                    push!(*semantics::element(heap, arr, idx)?);
                    pc += 2;
                }
                fop::ICONST_ALOAD => {
                    let idx = Value::Int(decoded.iconsts[d.b as usize]);
                    fstep!();
                    let arr = pop!();
                    push!(*semantics::element(heap, arr, idx)?);
                    pc += 2;
                }
                fop::ALOAD_IBIN => {
                    let idx = pop!();
                    let arr = pop!();
                    let y = *semantics::element(heap, arr, idx)?;
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    push!(Value::Int(semantics::ibin(d2.op, x, y)?));
                    pc += 2;
                }
                fop::ALOAD_FBIN => {
                    let idx = pop!();
                    let arr = pop!();
                    let y = *semantics::element(heap, arr, idx)?;
                    fstep!();
                    let d2 = shadow!(1);
                    let x = pop!();
                    push!(Value::Float(semantics::fbin(d2.op, x, y)?));
                    pc += 2;
                }
                other => unreachable!("corrupt decoded stream: opcode {other}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, RecordingObserver};
    use jvm_bytecode::{CmpOp, Intrinsic, ProgramBuilder};

    fn run_main(pb: ProgramBuilder, entry: FuncId, args: &[Value]) -> (Option<Value>, ExecStats) {
        let program = pb.build(entry).expect("program builds");
        let mut vm = Vm::new(&program);
        let r = vm.run(args, &mut NullObserver).expect("program runs");
        (r, vm.stats())
    }

    #[test]
    fn arithmetic_and_return() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 2, true);
        pb.function_mut(f)
            .load(0)
            .load(1)
            .imul()
            .iconst(1)
            .iadd()
            .ret();
        let (r, stats) = run_main(pb, f, &[Value::Int(6), Value::Int(7)]);
        assert_eq!(r, Some(Value::Int(43)));
        assert_eq!(stats.block_dispatches, 1);
        assert_eq!(stats.instructions, 6);
    }

    #[test]
    fn loop_counts_block_dispatches_per_iteration() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
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
        let (r, stats) = run_main(pb, f, &[Value::Int(10)]);
        assert_eq!(r, Some(Value::Int(55)));
        // Blocks: entry(1) + 11 head checks + 10 bodies + 1 exit = 23.
        assert_eq!(stats.block_dispatches, 23);
        // The head `if` executes 11 times; only the final exit is taken.
        assert_eq!(stats.branches, 11);
        assert_eq!(stats.taken_branches, 1);
    }

    #[test]
    fn taken_branch_accounting() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
        let b = pb.function_mut(f);
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Gt, exit);
        b.iconst(0).ret();
        b.bind(exit);
        b.iconst(1).ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        let r = vm.run(&[Value::Int(5)], &mut NullObserver).unwrap();
        assert_eq!(r, Some(Value::Int(1)));
        assert_eq!(vm.stats().branches, 1);
        assert_eq!(vm.stats().taken_branches, 1);
        let r = vm.run(&[Value::Int(-5)], &mut NullObserver).unwrap();
        assert_eq!(r, Some(Value::Int(0)));
        assert_eq!(vm.stats().taken_branches, 0);
    }

    #[test]
    fn static_call_passes_args_in_order() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare_function("sub", 2, true);
        pb.function_mut(callee).load(0).load(1).isub().ret();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f)
            .iconst(10)
            .iconst(3)
            .invoke_static(callee)
            .ret();
        let (r, stats) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(7)));
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.returns, 2);
        assert_eq!(stats.max_frame_depth, 2);
    }

    #[test]
    fn virtual_call_dispatches_on_receiver_class() {
        let mut pb = ProgramBuilder::new();
        let am = pb.declare_function("A.val", 1, true);
        pb.function_mut(am).iconst(10).ret();
        let bm = pb.declare_function("B.val", 1, true);
        pb.function_mut(bm).iconst(20).ret();
        let f = pb.declare_function("main", 1, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, am);
        let b = pb.declare_class("B", Some(a), 0);
        pb.override_method(b, slot, bm);
        {
            let body = pb.function_mut(f);
            let use_b = body.new_label();
            let call = body.new_label();
            body.load(0).if_i(CmpOp::Ne, use_b);
            body.new_obj(a).goto(call);
            body.bind(use_b);
            body.new_obj(b);
            body.bind(call);
            body.invoke_virtual(slot, 1).ret();
        }
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert_eq!(
            vm.run(&[Value::Int(0)], &mut NullObserver).unwrap(),
            Some(Value::Int(10))
        );
        assert_eq!(
            vm.run(&[Value::Int(1)], &mut NullObserver).unwrap(),
            Some(Value::Int(20))
        );
        assert_eq!(vm.stats().virtual_calls, 1);
    }

    #[test]
    fn recursion_computes_factorial() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("fact", 1, true);
        {
            let b = pb.function_mut(f);
            let base = b.new_label();
            b.load(0).iconst(2).if_icmp(CmpOp::Lt, base);
            b.load(0)
                .load(0)
                .iconst(1)
                .isub()
                .invoke_static(f)
                .imul()
                .ret();
            b.bind(base);
            b.iconst(1).ret();
        }
        let (r, stats) = run_main(pb, f, &[Value::Int(10)]);
        assert_eq!(r, Some(Value::Int(3628800)));
        assert_eq!(stats.max_frame_depth, 10);
    }

    #[test]
    fn arrays_and_objects_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        let c = pb.declare_class("Box", None, 1);
        {
            let b = pb.function_mut(f);
            let arr = b.alloc_local();
            let obj = b.alloc_local();
            b.iconst(3).new_array().store(arr);
            b.load(arr).iconst(1).iconst(42).astore();
            b.new_obj(c).store(obj);
            b.load(obj).load(arr).iconst(1).aload().put_field(0);
            b.load(obj).get_field(0).load(arr).array_len().iadd().ret();
        }
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(45)));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        pb.function_mut(f).iconst(1).load(0).idiv().ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert_eq!(
            vm.run(&[Value::Int(0)], &mut NullObserver),
            Err(VmError::DivisionByZero)
        );
    }

    #[test]
    fn array_bounds_trap() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        pb.function_mut(f)
            .iconst(2)
            .new_array()
            .load(0)
            .aload()
            .ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert!(matches!(
            vm.run(&[Value::Int(5)], &mut NullObserver),
            Err(VmError::IndexOutOfBounds { index: 5, len: 2 })
        ));
        assert!(matches!(
            vm.run(&[Value::Int(-1)], &mut NullObserver),
            Err(VmError::IndexOutOfBounds { index: -1, .. })
        ));
    }

    #[test]
    fn null_dereference_traps() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).const_null().get_field(0).ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert_eq!(vm.run(&[], &mut NullObserver), Err(VmError::NullPointer));
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        let b = pb.function_mut(f);
        let head = b.bind_new_label();
        b.nop().goto(head);
        b.ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::with_config(
            &program,
            VmConfig {
                max_steps: 1000,
                ..VmConfig::default()
            },
        );
        assert_eq!(vm.run(&[], &mut NullObserver), Err(VmError::OutOfFuel));
        assert_eq!(vm.stats().instructions, 1000);
    }

    #[test]
    fn stack_overflow_on_unbounded_recursion() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).invoke_static(f).ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::with_config(
            &program,
            VmConfig {
                max_frames: 64,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(&[], &mut NullObserver),
            Err(VmError::CallStackOverflow)
        );
    }

    #[test]
    fn bad_entry_args_rejected() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 2, false);
        pb.function_mut(f).ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert!(matches!(
            vm.run(&[Value::Int(1)], &mut NullObserver),
            Err(VmError::BadEntryArgs {
                expected: 2,
                provided: 1,
                ..
            })
        ));
    }

    #[test]
    fn checksum_and_output_intrinsics() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f)
            .iconst(7)
            .intrinsic(Intrinsic::Checksum)
            .iconst(1)
            .intrinsic(Intrinsic::PrintInt)
            .fconst(2.5)
            .intrinsic(Intrinsic::PrintFloat)
            .ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        vm.run(&[], &mut NullObserver).unwrap();
        assert_ne!(vm.checksum(), 0);
        assert_eq!(vm.output(), &[OutputItem::Int(1), OutputItem::Float(2.5)]);
    }

    #[test]
    fn float_intrinsics_compute() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f)
            .fconst(16.0)
            .intrinsic(Intrinsic::Sqrt)
            .f2i()
            .ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(4)));
    }

    #[test]
    fn gc_runs_during_allocation_storm() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        let b = pb.function_mut(f);
        let i = b.alloc_local();
        b.iconst(5000).store(i);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(i).if_i(CmpOp::Le, exit);
        b.iconst(4).new_array().pop(); // garbage
        b.iinc(i, -1).goto(head);
        b.bind(exit);
        b.ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::with_config(
            &program,
            VmConfig {
                gc_threshold: 256,
                ..VmConfig::default()
            },
        );
        vm.run(&[], &mut NullObserver).unwrap();
        let hs = vm.heap_stats();
        assert_eq!(hs.allocations, 5000);
        assert!(hs.collections >= 1, "expected at least one collection");
        assert!(hs.live < 5000);
    }

    #[test]
    fn observer_sees_complete_stream_across_calls() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare_function("leaf", 0, true);
        pb.function_mut(leaf).iconst(1).ret();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).invoke_static(leaf).pop().ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        let mut rec = RecordingObserver::new();
        vm.run(&[], &mut rec).unwrap();
        assert_eq!(
            rec.blocks,
            vec![
                BlockId::new(f, 0),    // main entry (call block)
                BlockId::new(leaf, 0), // callee
                BlockId::new(f, 1),    // continuation after return
            ]
        );
        assert_eq!(vm.stats().block_dispatches, 3);
    }

    #[test]
    fn self_loop_block_dispatches_every_iteration() {
        // A single-block loop body jumping to itself must count one
        // dispatch per iteration (the sentinel mechanism).
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, false);
        let b = pb.function_mut(f);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.iinc(0, -1).load(0).if_i(CmpOp::Gt, head);
        b.goto(exit);
        b.bind(exit);
        b.ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        let mut rec = RecordingObserver::new();
        vm.run(&[Value::Int(5)], &mut rec).unwrap();
        let head_block = BlockId::new(f, 0);
        let head_count = rec.blocks.iter().filter(|&&b| b == head_block).count();
        assert_eq!(head_count, 5, "each self-loop iteration is a dispatch");
    }

    #[test]
    fn vm_is_reusable_across_runs() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        pb.function_mut(f).load(0).iconst(2).imul().ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        for i in 0..5 {
            let r = vm.run(&[Value::Int(i)], &mut NullObserver).unwrap();
            assert_eq!(r, Some(Value::Int(i * 2)));
        }
    }

    #[test]
    fn table_switch_selects_and_defaults() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let c0 = b.new_label();
            let c1 = b.new_label();
            let dfl = b.new_label();
            b.load(0).table_switch(10, &[c0, c1], dfl);
            b.bind(c0);
            b.iconst(100).ret();
            b.bind(c1);
            b.iconst(101).ret();
            b.bind(dfl);
            b.iconst(-1).ret();
        }
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        for (input, want) in [(10, 100), (11, 101), (9, -1), (12, -1), (i64::MIN, -1)] {
            let r = vm.run(&[Value::Int(input)], &mut NullObserver).unwrap();
            assert_eq!(r, Some(Value::Int(want)), "input {input}");
        }
    }

    #[test]
    fn wrapping_semantics_match_java() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).iconst(i64::MAX).iconst(1).iadd().ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(i64::MIN)));
    }

    #[test]
    fn dup2_and_swap_semantics() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        // [1 2] dup2 -> [1 2 1 2]; add top two -> [1 2 3]; swap -> [1 3 2];
        // sub -> [1 1]; mul -> [1]. Result 1*... compute: 3-2? order:
        // swap makes top=2 below=3: isub pops b=2,a=3 -> 1; imul 1*1=1.
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .dup2()
            .iadd()
            .swap()
            .isub()
            .imul()
            .ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(1)));
    }

    #[test]
    fn f2i_saturates_and_nan_is_zero() {
        for (input, want) in [
            (1e300, i64::MAX),
            (-1e300, i64::MIN),
            (f64::NAN, 0),
            (2.9, 2),
            (-2.9, -2),
        ] {
            let mut pb = ProgramBuilder::new();
            let f = pb.declare_function("main", 0, true);
            pb.function_mut(f).fconst(input).f2i().ret();
            let (r, _) = run_main(pb, f, &[]);
            assert_eq!(r, Some(Value::Int(want)), "input {input}");
        }
    }

    #[test]
    fn shift_counts_are_masked_to_six_bits() {
        // Like the JVM: shift counts are taken modulo 64.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).iconst(1).iconst(65).ishl().ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(2)));

        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).iconst(-8).iconst(1).iushr().ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(((-8i64) as u64 >> 1) as i64)));
    }

    #[test]
    fn gc_preserves_object_graphs_across_calls() {
        // A callee builds a linked chain; the caller allocates garbage to
        // force collections; the chain must survive intact.
        let mut pb = ProgramBuilder::new();
        let node_cls = pb.declare_class("Node", None, 2); // [next, payload]
        let build = pb.declare_function("build", 1, true);
        {
            let b = pb.function_mut(build);
            // Builds a chain of length n, payloads n..1, returns head.
            let head = b.alloc_local();
            b.const_null().store(head);
            let loop_head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.new_obj(node_cls).dup().dup(); // three refs to fresh node
            b.load(head).put_field(0); // node.next = head
            b.load(0).put_field(1); // node.payload = n
            b.store(head); // head = node
            b.iinc(0, -1).goto(loop_head);
            b.bind(exit);
            b.load(head).ret();
        }
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let chain = b.alloc_local();
            let i = b.alloc_local();
            let sum = b.alloc_local();
            b.load(0).invoke_static(build).store(chain);
            // Garbage storm.
            b.iconst(2000).store(i);
            let g_head = b.bind_new_label();
            let g_exit = b.new_label();
            b.load(i).if_i(CmpOp::Le, g_exit);
            b.iconst(8).new_array().pop();
            b.iinc(i, -1).goto(g_head);
            b.bind(g_exit);
            // Walk the chain and sum payloads.
            b.iconst(0).store(sum);
            let w_head = b.bind_new_label();
            let w_exit = b.new_label();
            b.load(chain).if_null(w_exit);
            b.load(sum).load(chain).get_field(1).iadd().store(sum);
            b.load(chain).get_field(0).store(chain);
            b.goto(w_head);
            b.bind(w_exit);
            b.load(sum).ret();
        }
        let program = pb.build(f).unwrap();
        let mut vm = Vm::with_config(
            &program,
            VmConfig {
                gc_threshold: 64,
                ..VmConfig::default()
            },
        );
        let r = vm.run(&[Value::Int(50)], &mut NullObserver).unwrap();
        assert_eq!(r, Some(Value::Int(50 * 51 / 2)));
        assert!(vm.heap_stats().collections > 0, "GC must have run");
    }

    #[test]
    fn output_capture_can_be_disabled() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f)
            .iconst(1)
            .intrinsic(Intrinsic::PrintInt)
            .ret_void();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::with_config(
            &program,
            VmConfig {
                capture_output: false,
                ..VmConfig::default()
            },
        );
        vm.run(&[], &mut NullObserver).unwrap();
        assert!(vm.output().is_empty());
    }

    #[test]
    fn field_access_on_array_is_a_type_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).iconst(2).new_array().get_field(0).ret();
        let program = pb.build(f).unwrap();
        let mut vm = Vm::new(&program);
        assert!(matches!(
            vm.run(&[], &mut NullObserver),
            Err(VmError::TypeError {
                expected: "object",
                ..
            })
        ));
    }

    #[test]
    fn min_div_neg_one_wraps_instead_of_trapping() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f).iconst(i64::MIN).iconst(-1).idiv().ret();
        let (r, _) = run_main(pb, f, &[]);
        assert_eq!(r, Some(Value::Int(i64::MIN)));
    }
}
