//! The register-trace executor: runs a [`RegTrace`] against the decoded
//! interpreter's own machine state.
//!
//! A trace is entered from the loop's dispatch hook with the top frame's
//! `pc`/`sp` flushed into the [`jvm_vm::FrameArena`]. From there the
//! executor works on the *same slab* the loop does: locals are
//! `slab[base + slot]`, frame images are written at `sp`, in-trace calls
//! and returns push and pop arena frames, and allocation roots are the
//! arena's. Every way out — early exit, completion, error — leaves the
//! top frame's `pc` and `sp` where the loop must resume, so leaving a
//! trace is a reload of the loop's cached frame state and nothing else.
//!
//! A trace runs every block's terminator here — branch, `goto` or
//! fall-through ([`RInstr::Branch`]), switch ([`RInstr::Switch`]), call
//! ([`RInstr::Call`], pushing the callee frame) or return
//! ([`RInstr::Return`], popping the frame) — and runs on while the
//! successor is its next block. Any other successor leaves the trace one
//! way: the frame image is written back and the top frame's `pc` set to
//! the successor's entry marker, for the loop to dispatch. Short of the
//! last block that is an early exit, and the profiler re-anchors at the
//! leaving block. Past it the trace has completed, and it asks what the
//! branch it left by (last block → successor) links: the node index
//! from `bcg.node_index` (the loop branch's looked up once per run), the
//! link through the same version-compared slot the dispatch reads. If
//! it links this very trace (the successor is the first block), the
//! code runs again from the top: a loop closing, one iteration without a
//! dispatch. Otherwise the run reports the other trace linked there, if
//! any, for the driver to go on into without a dispatch (see
//! [`crate::engine`] for why skipping the dispatch is unobservable). A
//! return from the outermost frame ends the program: that one is handed
//! back *on* the return.
//!
//! Every operation a trace performs is the interpreter's own: arithmetic,
//! comparisons, intrinsics, heap access, switch selection and virtual
//! dispatch are `jvm_vm::semantics` calls, the very functions the decoded
//! loop's arms call, so a trace and the loop agree on results and on trap
//! order by construction.
//!
//! Fuel is charged in batches (each instruction's weight covers the stack
//! ops folded into it), which is observationally identical to per-op
//! ticking — see [`crate::reg`] — and reaches the machine's counter on
//! every way out, errors included.

use jvm_bytecode::{BlockId, Intrinsic};
use jvm_vm::decode::op;
use jvm_vm::{arena, fold_checksum, semantics, Machine, OutputItem, Value, VmError};
use trace_bcg::{Branch, NodeIdx};
use trace_cache::TraceId;

use crate::compile::CondKind;
use crate::engine::Jit;
use crate::reg::{CallTarget, RInstr, Reg, RegTrace, ON_TRACE};

/// How one run of a trace ended (errors aside).
pub(crate) struct TraceRun {
    /// Loop closings: completed iterations that jumped back to the top
    /// of the code instead of handing back for a dispatch.
    pub(crate) closings: u64,
    /// Blocks run, every iteration included — the leaving one too.
    pub(crate) blocks: u64,
    /// Instructions run, likewise.
    pub(crate) instrs: u64,
    /// Whether the trace left short of its last block — at any site, the
    /// first block's included: the retention rule counts every early
    /// exit alike. Otherwise the last iteration ran to its end.
    pub(crate) side_exited: bool,
    /// On completion, the other trace linked at the branch the last
    /// iteration left by, with that branch: the dispatch the loop would
    /// make on the successor's marker would find it there.
    pub(crate) next: Option<(TraceId, Branch)>,
}

/// Reads virtual register `r` without a release-mode bounds check.
///
/// `lower_reg` numbers every operand below the trace's `num_regs` and
/// [`Jit::execute`] grows the register file to at least that length on
/// entry, so all register accesses are in range by construction
/// (invariant R1 in DESIGN.md).
#[inline(always)]
fn rget(regs: &[Value], r: Reg) -> Value {
    debug_assert!((r as usize) < regs.len(), "lowered register bounds");
    // SAFETY: see above — register numbers are bounded by the lowering.
    unsafe { *regs.get_unchecked(r as usize) }
}

/// Writes virtual register `r` without a release-mode bounds check
/// (see [`rget`]).
#[inline(always)]
fn rset(regs: &mut [Value], r: Reg, v: Value) {
    debug_assert!((r as usize) < regs.len(), "lowered register bounds");
    // SAFETY: see `rget` — register numbers are bounded by the lowering.
    unsafe { *regs.get_unchecked_mut(r as usize) = v }
}

/// Reads slab slot `i` of the current frame's region without a
/// release-mode bounds check.
///
/// `lower_reg` refuses a trace unless every local slot it touches is
/// below its frame's `num_locals` and every frame image fits the
/// frame's operand-stack bound, and the arena sizes the slab to cover
/// the whole region of every live frame — so every index the executor
/// forms lies inside the slab (invariant R2 in DESIGN.md).
#[inline(always)]
fn sget(slab: &[Value], i: u32) -> Value {
    // SAFETY: see above — the index is inside the top frame's region.
    unsafe { arena::slot(slab, i) }
}

/// Writes slab slot `i` of the current frame's region (see [`sget`]).
#[inline(always)]
fn sset(slab: &mut [Value], i: u32, v: Value) {
    // SAFETY: see `sget` — the index is inside the top frame's region.
    unsafe { *arena::slot_mut(slab, i) = v }
}

impl Jit<'_> {
    /// Runs one register-lowered trace, borrowing the recycled register
    /// file for the duration. The execution's counters — entered,
    /// completed, exited early and their blocks — are the driver's: one
    /// execution may go on through several traces.
    ///
    /// Fuel is accounted in a local counter while inside the trace and
    /// folded into the machine's counter here, on the one way out —
    /// early exit, completion and every error alike, so a trap raised
    /// mid-trace leaves the same instruction count the interpreter
    /// would. Nothing reached from inside the loop reads
    /// `stats.instructions`, so the deferred sync is unobservable.
    pub(crate) fn execute(
        &mut self,
        rt: &RegTrace,
        tid: TraceId,
        m: &mut Machine<'_>,
    ) -> Result<TraceRun, VmError> {
        let mut regs = std::mem::take(&mut self.reg_file);
        let mut instrs = 0u64;
        let run = self.execute_with(rt, tid, m, &mut regs, &mut instrs);
        m.stats.instructions += instrs;
        self.reg_file = regs;
        run
    }

    /// The tight register-file loop: a flat `Vec<Value>` register frame,
    /// no per-op operand-stack bookkeeping. `instrs` is the caller's
    /// fuel counter; inlined into [`Self::execute`] so it stays a local
    /// there and per-instruction ticking compares two values the
    /// compiler keeps in registers. `tid` is the id `rt` is linked
    /// under, which a loop closing checks the link against.
    #[inline(always)]
    fn execute_with(
        &mut self,
        rt: &RegTrace,
        tid: TraceId,
        m: &mut Machine<'_>,
        regs: &mut Vec<Value>,
        instrs: &mut u64,
    ) -> Result<TraceRun, VmError> {
        let (last, first) = rt.loop_branch();
        let len = rt.src_blocks.len() as u64;
        let mut closings = 0u64;
        // The loop branch's profile node, looked up at the first closing
        // attempt and kept for the rest of the run (`None` inside: the
        // branch was never observed, so nothing links at it).
        let mut loop_node: Option<Option<NodeIdx>> = None;
        let mut next = None;
        #[cfg(feature = "debug-invariants")]
        let entry_version = self.cache.version();
        let budget = m.config.max_steps - m.stats.instructions;
        // The lowering is single-assignment: every non-constant register
        // is written before it is read, so stale values from an earlier
        // trace are never observable and the file only needs to grow to
        // this trace's high-water mark — no per-entry zero fill. Hot
        // short traces are entered millions of times, so this setup cost
        // is the dominant fixed overhead.
        if regs.len() < rt.num_regs as usize {
            regs.resize(rt.num_regs as usize, Value::default());
        }
        for &(r, v) in &rt.consts {
            rset(regs, r, v);
        }
        // The current frame's region, cached like the loop caches it;
        // `sp` is flushed wherever the arena or the loop reads it.
        let (mut base, mut sp) = {
            let t = m.arena.top();
            (t.base, t.sp)
        };

        macro_rules! tick_n {
            ($n:expr) => {{
                let n = $n as u64;
                if n > budget - *instrs {
                    // Saturate exactly where per-op ticking would stop.
                    *instrs = budget;
                    return Err(VmError::OutOfFuel);
                }
                *instrs += n;
            }};
        }

        // Writes a frame image back into the current frame: dirty locals
        // first, then the register stack on top of the frame's real
        // prefix. Used wherever the trace leaves (full deopt), calls
        // (arguments cross the real stack) and allocations (collection
        // roots).
        macro_rules! materialize {
            ($image:expr) => {{
                let image = &rt.images[$image as usize];
                debug_assert_eq!(
                    sp - m.arena.top().stack_base,
                    image.base,
                    "real stack prefix must match the lowering's model"
                );
                let slab = &mut m.arena.slab[..];
                for &(slot, r) in image.dirty.iter() {
                    sset(slab, base + u32::from(slot), rget(regs, r));
                }
                for &r in image.stack.iter() {
                    sset(slab, sp, rget(regs, r));
                    sp += 1;
                }
                image
            }};
        }

        // Re-anchors the top frame at decoded pc `$dpc`, where the loop
        // picks up.
        macro_rules! resume {
            ($dpc:expr) => {{
                let t = m.arena.top_mut();
                t.pc = $dpc;
                t.sp = sp;
            }};
        }

        // An early exit after `$done` blocks, the top frame re-anchored.
        // The profiler only re-anchors at the leaving block, as a
        // completion does at the trace's last block: the trace's passes
        // ran unprofiled, so crediting its exit alone would decay the
        // node toward the exit and shorten the next trace planned through
        // it (§4.1.2: no profiling points inside a trace). The loop's
        // dispatch of the successor observes the branch the trace left
        // by, and never re-enters this trace.
        macro_rules! early_exit {
            ($done:expr) => {{
                let done = $done as usize;
                self.bcg.set_context(rt.src_blocks[done - 1]);
                return Ok(TraceRun {
                    closings,
                    blocks: closings * len + done as u64,
                    instrs: *instrs,
                    side_exited: true,
                    next: None,
                });
            }};
        }

        // Pushes the callee's arena frame over the materialized caller
        // frame and moves the cached region into it. The callee's own
        // `pc` is never read: its entry-marker dispatch is absorbed by
        // the trace, and every way out re-anchors the top frame.
        macro_rules! enter_call {
            ($callee:expr, $argc:expr, $ret:expr) => {{
                if m.arena.depth() >= m.config.max_frames {
                    return Err(VmError::CallStackOverflow);
                }
                m.stats.calls += 1;
                let callee = $callee;
                let cdf = m.decoded.func(callee);
                {
                    let t = m.arena.top_mut();
                    t.pc = $ret;
                    t.sp = sp;
                }
                m.arena
                    .push_call(callee, u32::from(cdf.num_locals), cdf.frame_size, $argc);
                m.stats.max_frame_depth = m.stats.max_frame_depth.max(m.arena.depth());
                let t = m.arena.top();
                base = t.base;
                sp = t.sp;
            }};
        }

        // Pops the callee frame and moves the cached region back to the
        // caller's (whose `sp` was flushed when the call was made).
        macro_rules! leave_call {
            () => {{
                m.stats.returns += 1;
                m.arena.pop_frame();
                let t = m.arena.top();
                base = t.base;
                sp = t.sp;
            }};
        }

        // Runs a collection if the heap suggests one; the frame image
        // was just materialized, so the arena's live regions are exactly
        // the roots.
        macro_rules! maybe_collect {
            () => {{
                if m.heap.should_collect() {
                    m.arena.top_mut().sp = sp;
                    m.heap.collect(m.arena.roots());
                }
            }};
        }

        // Writes back the frame image of resume record `$idx`, and names
        // where the trace leaves through it: `(done, succ, dpc)`.
        macro_rules! leave_at {
            ($idx:expr) => {{
                let exit = &rt.exits[$idx as usize];
                materialize!(exit.image);
                let succ = BlockId::new(exit.func, exit.block);
                (exit.blocks_done, succ, exit.dpc)
            }};
        }

        // Evaluates a conditional branch on registers.
        macro_rules! cond {
            ($kind:expr, $a:expr, $b:expr) => {
                match $kind {
                    CondKind::ICmp(c) => {
                        let (a, b) = semantics::ints(rget(regs, $a), rget(regs, $b))?;
                        semantics::icmp(c, a, b)
                    }
                    CondKind::IZero(c) => semantics::icmp(c, rget(regs, $a).as_int()?, 0),
                    CondKind::FCmp(c) => {
                        let (a, b) = semantics::floats(rget(regs, $a), rget(regs, $b))?;
                        semantics::fcmp(c, a, b)
                    }
                    CondKind::Null => matches!(rget(regs, $a), Value::Null),
                    CondKind::NonNull => !matches!(rget(regs, $a), Value::Null),
                }
            };
        }

        // Writes the `$ty` result of `semantics::$op` to register `$dst`.
        macro_rules! set {
            ($dst:expr, $ty:ident, $op:ident($($arg:expr),*)) => {{
                let v = Value::$ty(semantics::$op($($arg),*)?);
                rset(regs, $dst, v);
            }};
        }

        'iteration: loop {
            // The code runs until a control instruction leaves the trace:
            // its `done`-th block for block `succ`, whose entry marker is
            // decoded pc `dpc` of the (new) top frame, the frame written
            // back.
            let (done, succ, dpc): (u32, BlockId, u32) = 'code: {
                for t in rt.code.iter() {
                    match t {
                        RInstr::PullStack { dst } => {
                            // Pure data movement from the real entry stack; no
                            // source instruction, no fuel.
                            sp -= 1;
                            rset(regs, *dst, sget(&m.arena.slab, sp));
                        }
                        RInstr::LoadLocal { slot, dst, w } => {
                            tick_n!(*w);
                            rset(regs, *dst, sget(&m.arena.slab, base + u32::from(*slot)));
                        }
                        RInstr::IncLocal { slot, dst, imm, w } => {
                            tick_n!(*w);
                            let v = sget(&m.arena.slab, base + u32::from(*slot));
                            rset(regs, *dst, Value::Int(semantics::iinc(v, *imm)?));
                        }
                        RInstr::IncReg { src, dst, imm, w } => {
                            tick_n!(*w);
                            let v = semantics::iinc(rget(regs, *src), *imm)?;
                            rset(regs, *dst, Value::Int(v));
                        }
                        RInstr::Bin {
                            op: bin,
                            a,
                            b,
                            dst,
                            w,
                        } => {
                            tick_n!(*w);
                            let (x, y) = (rget(regs, *a), rget(regs, *b));
                            let v = match bin.0 {
                                op::IADD => Value::Int(semantics::ibin(op::IADD, x, y)?),
                                op::ISUB => Value::Int(semantics::ibin(op::ISUB, x, y)?),
                                op::IMUL => Value::Int(semantics::ibin(op::IMUL, x, y)?),
                                op::IDIV => Value::Int(semantics::ibin(op::IDIV, x, y)?),
                                op::IREM => Value::Int(semantics::ibin(op::IREM, x, y)?),
                                op::ISHL => Value::Int(semantics::ibin(op::ISHL, x, y)?),
                                op::ISHR => Value::Int(semantics::ibin(op::ISHR, x, y)?),
                                op::IUSHR => Value::Int(semantics::ibin(op::IUSHR, x, y)?),
                                op::IAND => Value::Int(semantics::ibin(op::IAND, x, y)?),
                                op::IOR => Value::Int(semantics::ibin(op::IOR, x, y)?),
                                op::IXOR => Value::Int(semantics::ibin(op::IXOR, x, y)?),
                                op::FADD => Value::Float(semantics::fbin(op::FADD, x, y)?),
                                op::FSUB => Value::Float(semantics::fbin(op::FSUB, x, y)?),
                                op::FMUL => Value::Float(semantics::fbin(op::FMUL, x, y)?),
                                op::FDIV => Value::Float(semantics::fbin(op::FDIV, x, y)?),
                                other => unreachable!("not a binop: {other}"),
                            };
                            rset(regs, *dst, v);
                        }
                        RInstr::Un { op: un, a, dst, w } => {
                            tick_n!(*w);
                            let x = rget(regs, *a);
                            let v = match un.0 {
                                op::INEG => Value::Int(semantics::iunary(op::INEG, x)?),
                                op::FNEG => Value::Float(semantics::funary(op::FNEG, x)?),
                                op::I2F => Value::Float(semantics::funary(op::I2F, x)?),
                                op::F2I => Value::Int(semantics::iunary(op::F2I, x)?),
                                other => unreachable!("not a unop: {other}"),
                            };
                            rset(regs, *dst, v);
                        }
                        RInstr::Intrinsic { i, a, b, dst, w } => {
                            tick_n!(*w);
                            let x = rget(regs, *a);
                            match i {
                                Intrinsic::Sqrt => set!(*dst, Float, funary(op::SQRT, x)),
                                Intrinsic::Sin => set!(*dst, Float, funary(op::SIN, x)),
                                Intrinsic::Cos => set!(*dst, Float, funary(op::COS, x)),
                                Intrinsic::Exp => set!(*dst, Float, funary(op::EXP, x)),
                                Intrinsic::Log => set!(*dst, Float, funary(op::LOG, x)),
                                Intrinsic::AbsF => set!(*dst, Float, funary(op::ABS_F, x)),
                                Intrinsic::AbsI => set!(*dst, Int, iunary(op::ABS_I, x)),
                                Intrinsic::MinI => {
                                    set!(*dst, Int, ibin(op::MIN_I, x, rget(regs, *b)))
                                }
                                Intrinsic::MaxI => {
                                    set!(*dst, Int, ibin(op::MAX_I, x, rget(regs, *b)))
                                }
                                Intrinsic::PrintInt => {
                                    let v = x.as_int()?;
                                    if m.config.capture_output {
                                        m.output.push(OutputItem::Int(v));
                                    }
                                }
                                Intrinsic::PrintFloat => {
                                    let v = x.as_float()?;
                                    if m.config.capture_output {
                                        m.output.push(OutputItem::Float(v));
                                    }
                                }
                                Intrinsic::Checksum => {
                                    *m.checksum = fold_checksum(*m.checksum, x.as_int()?);
                                }
                            }
                        }
                        RInstr::GetField { obj, field, dst, w } => {
                            tick_n!(*w);
                            let v = *semantics::field(m.heap, rget(regs, *obj), *field)?;
                            rset(regs, *dst, v);
                        }
                        RInstr::PutField { obj, val, field, w } => {
                            tick_n!(*w);
                            let (o, v) = (rget(regs, *obj), rget(regs, *val));
                            *semantics::field_mut(m.heap, o, *field)? = v;
                        }
                        RInstr::ALoad { arr, idx, dst, w } => {
                            tick_n!(*w);
                            let v =
                                *semantics::element(m.heap, rget(regs, *arr), rget(regs, *idx))?;
                            rset(regs, *dst, v);
                        }
                        RInstr::AStore { arr, idx, val, w } => {
                            tick_n!(*w);
                            let (ar, ix, v) =
                                (rget(regs, *arr), rget(regs, *idx), rget(regs, *val));
                            *semantics::element_mut(m.heap, ar, ix)? = v;
                        }
                        RInstr::ArrayLen { arr, dst, w } => {
                            tick_n!(*w);
                            let v = semantics::arraylen(m.heap, rget(regs, *arr))?;
                            rset(regs, *dst, Value::Int(v));
                        }
                        RInstr::NewObj {
                            class,
                            nfields,
                            dst,
                            image,
                            w,
                        } => {
                            tick_n!(*w);
                            // Root every live register through the real frame,
                            // collect, then drop the stack back (the values stay
                            // in registers).
                            let img = materialize!(*image);
                            maybe_collect!();
                            let r = m.heap.alloc_object(*class, *nfields);
                            sp -= img.stack.len() as u32;
                            rset(regs, *dst, Value::Ref(r));
                        }
                        RInstr::NewArray { len, dst, image, w } => {
                            tick_n!(*w);
                            // The interpreter pops the length before collecting.
                            let lv = rget(regs, *len).as_int()?;
                            let img = materialize!(*image);
                            maybe_collect!();
                            let r = m.heap.alloc_array(lv)?;
                            sp -= img.stack.len() as u32;
                            rset(regs, *dst, Value::Ref(r));
                        }
                        RInstr::Branch {
                            kind,
                            a,
                            b,
                            exits,
                            w,
                        } => {
                            // A `goto` or a fall-through is no branch to the
                            // counters; its fuel, if any, is in `w`.
                            tick_n!(*w);
                            let taken = match kind {
                                None => true,
                                Some(k) => {
                                    let taken = cond!(*k, *a, *b);
                                    m.stats.branches += 1;
                                    if taken {
                                        m.stats.taken_branches += 1;
                                    }
                                    taken
                                }
                            };
                            let slot = exits[usize::from(taken)];
                            if slot != ON_TRACE {
                                break 'code leave_at!(slot);
                            }
                        }
                        RInstr::Switch { table, selector, w } => {
                            tick_n!(*w);
                            let v = rget(regs, *selector);
                            let t = rt.switches.table(*table);
                            let slot = semantics::switch_target(v, t.low, t.targets, t.default)?;
                            m.stats.branches += 1;
                            m.stats.taken_branches += 1;
                            if slot != ON_TRACE {
                                break 'code leave_at!(slot);
                            }
                        }
                        RInstr::Call {
                            target,
                            ret,
                            image,
                            w,
                            done,
                        } => {
                            tick_n!(*w);
                            // The trace's next block, if any, is the entry
                            // block of a function: a static call's callee, and
                            // the callee a virtual call was recorded with.
                            let next = rt.src_blocks.get(usize::from(*done));
                            let (callee, argc, on_trace) = match *target {
                                CallTarget::Static(callee) => {
                                    let argc = m.decoded.func(callee).num_params;
                                    (callee, u32::from(argc), next.is_some())
                                }
                                CallTarget::Virtual { slot, recv, argc } => {
                                    let r = rget(regs, recv);
                                    let callee =
                                        semantics::resolve_virtual(self.program, m.heap, r, slot)?;
                                    m.stats.virtual_calls += 1;
                                    let on_trace = next.is_some_and(|b| b.func == callee);
                                    (callee, u32::from(argc), on_trace)
                                }
                            };
                            // Arguments cross the real stack: materialize, then
                            // let the frame push consume them.
                            materialize!(*image);
                            enter_call!(callee, argc, *ret);
                            if !on_trace {
                                // A fresh frame: the arguments are its locals,
                                // its entry block's marker is decoded pc 0.
                                break 'code (u32::from(*done), BlockId::new(callee, 0), 0);
                            }
                        }
                        RInstr::RetStatic { w } => {
                            tick_n!(*w);
                            // The return value (if any) lives in a register; the
                            // callee frame just goes away.
                            leave_call!();
                        }
                        RInstr::Return {
                            has_value,
                            retval,
                            exit,
                            pre,
                        } => {
                            tick_n!(*pre);
                            if m.arena.depth() < 2 {
                                // Returning from the outermost frame ends the
                                // program; hand the return to the interpreter.
                                let exit = &rt.exits[*exit as usize];
                                materialize!(exit.image);
                                resume!(exit.dpc);
                                if u64::from(exit.blocks_done) < len {
                                    early_exit!(exit.blocks_done);
                                }
                                break 'iteration;
                            }
                            tick_n!(1u32);
                            leave_call!();
                            if *has_value {
                                // Onto the *real* caller stack: the caller frame
                                // was never part of this trace.
                                sset(&mut m.arena.slab, sp, rget(regs, *retval));
                                sp += 1;
                            }
                            // The caller resumes on its continuation's marker,
                            // set when it made the call.
                            let (func, cont) = (m.arena.top().func, m.arena.top().pc);
                            let succ =
                                BlockId::new(func, m.decoded.func(func).block_of[cont as usize]);
                            let done = rt.exits[*exit as usize].blocks_done;
                            if rt.src_blocks.get(done as usize) != Some(&succ) {
                                break 'code (done, succ, cont);
                            }
                        }
                    }
                }
                unreachable!("a lowered trace leaves through its last instruction");
            };
            debug_assert_eq!(m.arena.top().func, succ.func);
            // Short of the last block the trace exits early, on the
            // marker.
            if u64::from(done) < len {
                resume!(dpc);
                early_exit!(done);
            }
            // Past it the trace has completed, and the branch it left by,
            // (last block → successor), decides what comes next. If it
            // links this very trace (the successor is the first block) the
            // loop closes, and the code runs again from the top.
            let node = if succ == first {
                *loop_node.get_or_insert_with(|| self.bcg.node_index((last, first)))
            } else {
                self.bcg.node_index((last, succ))
            };
            let linked = node.and_then(|n| self.linked_at(n));
            // The dispatch skipped from here on would observe a branch
            // whose node exists (it links), from a context `set_context`
            // just reset — no count, no signal — and find the linked
            // trace.
            #[cfg(feature = "debug-invariants")]
            if linked.is_some() {
                assert!(
                    !self.bcg.has_signals(),
                    "a linked successor skips a dispatch with a signal pending"
                );
                assert_eq!(
                    self.cache.version(),
                    entry_version,
                    "the cache changed inside a trace execution"
                );
            }
            if linked == Some(tid) {
                closings += 1;
                self.trace_stats.loop_closings += 1;
                continue;
            }
            // Otherwise the top frame is re-anchored on the marker, for the
            // loop to dispatch, and the run reports the other trace linked
            // there, if any, for the driver to go on into.
            resume!(dpc);
            next = linked.map(|t| (t, (last, succ)));
            break;
        }

        // The last iteration ran to its end and left the trace.
        self.bcg.set_context(last);
        Ok(TraceRun {
            closings,
            blocks: (closings + 1) * len,
            instrs: *instrs,
            side_exited: false,
            next,
        })
    }
}
