//! The frozen reference interpreter.
//!
//! This is the classic fetch-decode-execute loop the VM shipped with
//! before the pre-decoded threaded engine replaced it in [`crate::Vm`]:
//! a `match` over the full [`Instr`] enum, per-instruction
//! `block_index_of` + `cur_block` dispatch detection, and heap-allocated
//! per-frame `Vec` locals/stacks. It is kept **bit-for-bit intact** as
//! the differential oracle: the decoded engine must reproduce its
//! instruction counts, dispatch stream, heap behaviour, checksums and
//! errors exactly (the differential matrix, `tests/matrix.rs`), and the
//! `interp_speed` benchmark reports speedups relative to it.
//!
//! Do not "improve" this file; its value is that it does not change.

use jvm_bytecode::{BlockId, FuncId, Instr, Intrinsic, Program};

use crate::error::VmError;
use crate::frame::{Frame, NO_BLOCK};
use crate::heap::{Heap, HeapObj, HeapStats};
use crate::interp::{fold_checksum, VmConfig};
use crate::observer::DispatchObserver;
use crate::stats::ExecStats;
use crate::value::{OutputItem, Value};

/// The pre-overhaul virtual machine, frozen as an oracle.
///
/// Same public surface as [`crate::Vm`]: it borrows a verified
/// [`Program`], owns all mutable run state, and
/// [`ReferenceVm::run`] resets that state so one instance can execute
/// many runs.
#[derive(Debug)]
pub struct ReferenceVm<'p> {
    program: &'p Program,
    config: VmConfig,
    heap: Heap,
    frames: Vec<Frame>,
    stats: ExecStats,
    checksum: u64,
    output: Vec<OutputItem>,
}

impl<'p> ReferenceVm<'p> {
    /// Creates a reference VM with the default configuration.
    pub fn new(program: &'p Program) -> Self {
        Self::with_config(program, VmConfig::default())
    }

    /// Creates a reference VM with an explicit configuration.
    pub fn with_config(program: &'p Program, config: VmConfig) -> Self {
        ReferenceVm {
            program,
            config,
            heap: Heap::new(config.gc_threshold),
            frames: Vec::new(),
            stats: ExecStats::default(),
            checksum: 0,
            output: Vec::new(),
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
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
    /// # Errors
    ///
    /// Returns a [`VmError`] on runtime traps, wrong entry arguments, or
    /// when a configured resource limit is hit.
    pub fn run<O: DispatchObserver>(
        &mut self,
        args: &[Value],
        observer: &mut O,
    ) -> Result<Option<Value>, VmError> {
        // Reset run state.
        self.heap = Heap::new(self.config.gc_threshold);
        self.frames.clear();
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
        self.frames.push(Frame::new(entry, ef.num_locals(), args));
        self.stats.max_frame_depth = 1;

        macro_rules! pop {
            ($f:expr) => {
                $f.stack.pop().expect("verified code cannot underflow")
            };
        }

        loop {
            let depth = self.frames.len();
            let (func_id, pc) = {
                let f = &self.frames[depth - 1];
                (f.func, f.pc)
            };
            let func = program.function(func_id);

            // Block-dispatch detection: one event per block entered.
            let block = func.block_index_of(pc);
            {
                let f = &mut self.frames[depth - 1];
                if block != f.cur_block {
                    f.cur_block = block;
                    self.stats.block_dispatches += 1;
                    observer.on_block(BlockId::new(func_id, block));
                }
            }

            if self.stats.instructions >= self.config.max_steps {
                return Err(VmError::OutOfFuel);
            }
            self.stats.instructions += 1;

            let ins = &func.code()[pc as usize];
            let frame = self.frames.last_mut().expect("frame exists");

            match ins {
                Instr::IConst(v) => {
                    frame.stack.push(Value::Int(*v));
                    frame.pc += 1;
                }
                Instr::FConst(v) => {
                    frame.stack.push(Value::Float(*v));
                    frame.pc += 1;
                }
                Instr::ConstNull => {
                    frame.stack.push(Value::Null);
                    frame.pc += 1;
                }
                Instr::Dup => {
                    let v = *frame.stack.last().expect("verified");
                    frame.stack.push(v);
                    frame.pc += 1;
                }
                Instr::Dup2 => {
                    let n = frame.stack.len();
                    let a = frame.stack[n - 2];
                    let b = frame.stack[n - 1];
                    frame.stack.push(a);
                    frame.stack.push(b);
                    frame.pc += 1;
                }
                Instr::Pop => {
                    let _ = pop!(frame);
                    frame.pc += 1;
                }
                Instr::Swap => {
                    let n = frame.stack.len();
                    frame.stack.swap(n - 1, n - 2);
                    frame.pc += 1;
                }
                Instr::Load(slot) => {
                    frame.stack.push(frame.locals[*slot as usize]);
                    frame.pc += 1;
                }
                Instr::Store(slot) => {
                    let v = pop!(frame);
                    frame.locals[*slot as usize] = v;
                    frame.pc += 1;
                }
                Instr::IInc(slot, delta) => {
                    let v = frame.locals[*slot as usize].as_int()?;
                    frame.locals[*slot as usize] = Value::Int(v.wrapping_add(*delta as i64));
                    frame.pc += 1;
                }
                Instr::IAdd => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_add(b)));
                    frame.pc += 1;
                }
                Instr::ISub => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_sub(b)));
                    frame.pc += 1;
                }
                Instr::IMul => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_mul(b)));
                    frame.pc += 1;
                }
                Instr::IDiv => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    if b == 0 {
                        return Err(VmError::DivisionByZero);
                    }
                    frame.stack.push(Value::Int(a.wrapping_div(b)));
                    frame.pc += 1;
                }
                Instr::IRem => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    if b == 0 {
                        return Err(VmError::DivisionByZero);
                    }
                    frame.stack.push(Value::Int(a.wrapping_rem(b)));
                    frame.pc += 1;
                }
                Instr::INeg => {
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_neg()));
                    frame.pc += 1;
                }
                Instr::IShl => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_shl(b as u32 & 63)));
                    frame.pc += 1;
                }
                Instr::IShr => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_shr(b as u32 & 63)));
                    frame.pc += 1;
                }
                Instr::IUShr => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame
                        .stack
                        .push(Value::Int(((a as u64) >> (b as u32 & 63)) as i64));
                    frame.pc += 1;
                }
                Instr::IAnd => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a & b));
                    frame.pc += 1;
                }
                Instr::IOr => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a | b));
                    frame.pc += 1;
                }
                Instr::IXor => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Int(a ^ b));
                    frame.pc += 1;
                }
                Instr::FAdd => {
                    let b = pop!(frame).as_float()?;
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Float(a + b));
                    frame.pc += 1;
                }
                Instr::FSub => {
                    let b = pop!(frame).as_float()?;
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Float(a - b));
                    frame.pc += 1;
                }
                Instr::FMul => {
                    let b = pop!(frame).as_float()?;
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Float(a * b));
                    frame.pc += 1;
                }
                Instr::FDiv => {
                    let b = pop!(frame).as_float()?;
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Float(a / b));
                    frame.pc += 1;
                }
                Instr::FNeg => {
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Float(-a));
                    frame.pc += 1;
                }
                Instr::I2F => {
                    let a = pop!(frame).as_int()?;
                    frame.stack.push(Value::Float(a as f64));
                    frame.pc += 1;
                }
                Instr::F2I => {
                    let a = pop!(frame).as_float()?;
                    frame.stack.push(Value::Int(a as i64));
                    frame.pc += 1;
                }
                Instr::IfICmp(op, target) => {
                    let b = pop!(frame).as_int()?;
                    let a = pop!(frame).as_int()?;
                    self.stats.branches += 1;
                    if op.eval_i64(a, b) {
                        self.stats.taken_branches += 1;
                        frame.pc = *target;
                        frame.cur_block = NO_BLOCK;
                    } else {
                        frame.pc += 1;
                    }
                }
                Instr::IfI(op, target) => {
                    let a = pop!(frame).as_int()?;
                    self.stats.branches += 1;
                    if op.eval_i64(a, 0) {
                        self.stats.taken_branches += 1;
                        frame.pc = *target;
                        frame.cur_block = NO_BLOCK;
                    } else {
                        frame.pc += 1;
                    }
                }
                Instr::IfFCmp(op, target) => {
                    let b = pop!(frame).as_float()?;
                    let a = pop!(frame).as_float()?;
                    self.stats.branches += 1;
                    if op.eval_f64(a, b) {
                        self.stats.taken_branches += 1;
                        frame.pc = *target;
                        frame.cur_block = NO_BLOCK;
                    } else {
                        frame.pc += 1;
                    }
                }
                Instr::IfNull(target) => {
                    let v = pop!(frame);
                    self.stats.branches += 1;
                    if matches!(v, Value::Null) {
                        self.stats.taken_branches += 1;
                        frame.pc = *target;
                        frame.cur_block = NO_BLOCK;
                    } else {
                        frame.pc += 1;
                    }
                }
                Instr::IfNonNull(target) => {
                    let v = pop!(frame);
                    self.stats.branches += 1;
                    if !matches!(v, Value::Null) {
                        self.stats.taken_branches += 1;
                        frame.pc = *target;
                        frame.cur_block = NO_BLOCK;
                    } else {
                        frame.pc += 1;
                    }
                }
                Instr::Goto(target) => {
                    frame.pc = *target;
                    frame.cur_block = NO_BLOCK;
                }
                Instr::TableSwitch {
                    low,
                    targets,
                    default,
                } => {
                    let v = pop!(frame).as_int()?;
                    self.stats.branches += 1;
                    self.stats.taken_branches += 1;
                    let idx = v.wrapping_sub(*low);
                    let target = if idx >= 0 && (idx as usize) < targets.len() {
                        targets[idx as usize]
                    } else {
                        *default
                    };
                    frame.pc = target;
                    frame.cur_block = NO_BLOCK;
                }
                Instr::InvokeStatic(callee) => {
                    let callee = *callee;
                    self.call(callee, program.function(callee).num_params(), false)?;
                }
                Instr::InvokeVirtual { slot, argc } => {
                    let (slot, argc) = (*slot, *argc);
                    let frame = self.frames.last_mut().expect("frame exists");
                    let recv_idx = frame.stack.len() - argc as usize;
                    let recv = frame.stack[recv_idx].as_ref_id()?;
                    let class = match self.heap.get(recv) {
                        HeapObj::Object { class, .. } => *class,
                        HeapObj::Array { .. } => {
                            return Err(VmError::TypeError {
                                expected: "object receiver",
                                found: "array",
                            })
                        }
                    };
                    let callee = program.class(class).resolve(slot);
                    self.stats.virtual_calls += 1;
                    self.call(callee, argc, true)?;
                }
                Instr::Return => {
                    let v = pop!(frame);
                    self.stats.returns += 1;
                    self.frames.pop();
                    match self.frames.last_mut() {
                        None => return Ok(Some(v)),
                        Some(caller) => caller.stack.push(v),
                    }
                }
                Instr::ReturnVoid => {
                    self.stats.returns += 1;
                    self.frames.pop();
                    if self.frames.is_empty() {
                        return Ok(None);
                    }
                }
                Instr::New(class) => {
                    let class = *class;
                    self.maybe_collect();
                    let num_fields = program.class(class).num_fields();
                    let r = self.heap.alloc_object(class, num_fields);
                    let frame = self.frames.last_mut().expect("frame exists");
                    frame.stack.push(Value::Ref(r));
                    frame.pc += 1;
                }
                Instr::GetField(n) => {
                    let obj = pop!(frame).as_ref_id()?;
                    let n = *n;
                    match self.heap.get(obj) {
                        HeapObj::Object { fields, .. } => {
                            let v = *fields.get(n as usize).ok_or(VmError::BadField {
                                field: n,
                                num_fields: fields.len() as u16,
                            })?;
                            let frame = self.frames.last_mut().expect("frame exists");
                            frame.stack.push(v);
                            frame.pc += 1;
                        }
                        HeapObj::Array { .. } => {
                            return Err(VmError::TypeError {
                                expected: "object",
                                found: "array",
                            })
                        }
                    }
                }
                Instr::PutField(n) => {
                    let v = pop!(frame);
                    let obj = pop!(frame).as_ref_id()?;
                    let n = *n;
                    frame.pc += 1;
                    match self.heap.get_mut(obj) {
                        HeapObj::Object { fields, .. } => {
                            let len = fields.len();
                            *fields.get_mut(n as usize).ok_or(VmError::BadField {
                                field: n,
                                num_fields: len as u16,
                            })? = v;
                        }
                        HeapObj::Array { .. } => {
                            return Err(VmError::TypeError {
                                expected: "object",
                                found: "array",
                            })
                        }
                    }
                }
                Instr::NewArray => {
                    let len = pop!(frame).as_int()?;
                    self.maybe_collect();
                    let r = self.heap.alloc_array(len)?;
                    let frame = self.frames.last_mut().expect("frame exists");
                    frame.stack.push(Value::Ref(r));
                    frame.pc += 1;
                }
                Instr::ALoad => {
                    let idx = pop!(frame).as_int()?;
                    let arr = pop!(frame).as_ref_id()?;
                    match self.heap.get(arr) {
                        HeapObj::Array { elems } => {
                            if idx < 0 || idx as usize >= elems.len() {
                                return Err(VmError::IndexOutOfBounds {
                                    index: idx,
                                    len: elems.len(),
                                });
                            }
                            let v = elems[idx as usize];
                            let frame = self.frames.last_mut().expect("frame exists");
                            frame.stack.push(v);
                            frame.pc += 1;
                        }
                        HeapObj::Object { .. } => {
                            return Err(VmError::TypeError {
                                expected: "array",
                                found: "object",
                            })
                        }
                    }
                }
                Instr::AStore => {
                    let v = pop!(frame);
                    let idx = pop!(frame).as_int()?;
                    let arr = pop!(frame).as_ref_id()?;
                    frame.pc += 1;
                    match self.heap.get_mut(arr) {
                        HeapObj::Array { elems } => {
                            if idx < 0 || idx as usize >= elems.len() {
                                return Err(VmError::IndexOutOfBounds {
                                    index: idx,
                                    len: elems.len(),
                                });
                            }
                            elems[idx as usize] = v;
                        }
                        HeapObj::Object { .. } => {
                            return Err(VmError::TypeError {
                                expected: "array",
                                found: "object",
                            })
                        }
                    }
                }
                Instr::ArrayLen => {
                    let arr = pop!(frame).as_ref_id()?;
                    match self.heap.get(arr) {
                        HeapObj::Array { elems } => {
                            let len = elems.len() as i64;
                            let frame = self.frames.last_mut().expect("frame exists");
                            frame.stack.push(Value::Int(len));
                            frame.pc += 1;
                        }
                        HeapObj::Object { .. } => {
                            return Err(VmError::TypeError {
                                expected: "array",
                                found: "object",
                            })
                        }
                    }
                }
                Instr::Intrinsic(intrinsic) => {
                    self.run_intrinsic(*intrinsic)?;
                }
                Instr::Nop => {
                    frame.pc += 1;
                }
            }
        }
    }

    /// Pops `argc` arguments from the current frame and pushes a callee
    /// frame. The caller's `pc` is advanced past the call first, so the
    /// return lands on the continuation block.
    fn call(&mut self, callee: FuncId, argc: u16, _virtual_call: bool) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_frames {
            return Err(VmError::CallStackOverflow);
        }
        self.stats.calls += 1;
        let cf = self.program.function(callee);
        debug_assert_eq!(cf.num_params(), argc, "verified arity");
        let frame = self.frames.last_mut().expect("frame exists");
        frame.pc += 1;
        let split = frame.stack.len() - argc as usize;
        let mut callee_frame = Frame::new(callee, cf.num_locals(), &[]);
        callee_frame.locals[..argc as usize].copy_from_slice(&frame.stack[split..]);
        frame.stack.truncate(split);
        self.frames.push(callee_frame);
        self.stats.max_frame_depth = self.stats.max_frame_depth.max(self.frames.len());
        Ok(())
    }

    /// Executes one intrinsic on the current frame.
    fn run_intrinsic(&mut self, i: Intrinsic) -> Result<(), VmError> {
        let frame = self.frames.last_mut().expect("frame exists");
        macro_rules! popv {
            () => {
                frame.stack.pop().expect("verified code cannot underflow")
            };
        }
        match i {
            Intrinsic::Sqrt => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.sqrt()));
            }
            Intrinsic::Sin => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.sin()));
            }
            Intrinsic::Cos => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.cos()));
            }
            Intrinsic::Exp => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.exp()));
            }
            Intrinsic::Log => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.ln()));
            }
            Intrinsic::AbsF => {
                let v = popv!().as_float()?;
                frame.stack.push(Value::Float(v.abs()));
            }
            Intrinsic::AbsI => {
                let v = popv!().as_int()?;
                frame.stack.push(Value::Int(v.wrapping_abs()));
            }
            Intrinsic::MinI => {
                let b = popv!().as_int()?;
                let a = popv!().as_int()?;
                frame.stack.push(Value::Int(a.min(b)));
            }
            Intrinsic::MaxI => {
                let b = popv!().as_int()?;
                let a = popv!().as_int()?;
                frame.stack.push(Value::Int(a.max(b)));
            }
            Intrinsic::PrintInt => {
                let v = popv!().as_int()?;
                if self.config.capture_output {
                    self.output.push(OutputItem::Int(v));
                }
            }
            Intrinsic::PrintFloat => {
                let v = popv!().as_float()?;
                if self.config.capture_output {
                    self.output.push(OutputItem::Float(v));
                }
            }
            Intrinsic::Checksum => {
                let v = popv!().as_int()?;
                self.checksum = fold_checksum(self.checksum, v);
            }
        }
        let frame = self.frames.last_mut().expect("frame exists");
        frame.pc += 1;
        Ok(())
    }

    /// Runs a collection if the heap suggests one, using all frame slots as
    /// roots.
    fn maybe_collect(&mut self) {
        if self.heap.should_collect() {
            let ReferenceVm { heap, frames, .. } = self;
            let roots = frames.iter().flat_map(|f| {
                f.stack
                    .iter()
                    .chain(f.locals.iter())
                    .filter_map(|v| match v {
                        Value::Ref(r) => Some(*r),
                        _ => None,
                    })
            });
            heap.collect(roots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use jvm_bytecode::{CmpOp, ProgramBuilder};

    #[test]
    fn reference_vm_runs_a_loop() {
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
        let program = pb.build(f).unwrap();
        let mut vm = ReferenceVm::new(&program);
        let r = vm.run(&[Value::Int(10)], &mut NullObserver).unwrap();
        assert_eq!(r, Some(Value::Int(55)));
        assert_eq!(vm.stats().block_dispatches, 23);
        assert_eq!(vm.stats().branches, 11);
        assert_eq!(vm.stats().taken_branches, 1);
    }

    #[test]
    fn reference_vm_traps_like_the_engine() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        pb.function_mut(f).iconst(1).load(0).idiv().ret();
        let program = pb.build(f).unwrap();
        let mut vm = ReferenceVm::new(&program);
        assert_eq!(
            vm.run(&[Value::Int(0)], &mut NullObserver),
            Err(VmError::DivisionByZero)
        );
    }
}
