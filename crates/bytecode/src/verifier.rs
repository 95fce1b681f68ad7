//! Flow-sensitive bytecode verifier.
//!
//! Mirrors the role of the JVM's class-file verifier: every
//! [`crate::Program`] is built through [`crate::ProgramBuilder`], which
//! verifies it — there is no other constructor — so the interpreter can
//! dispense with per-instruction checks that would distort the
//! dispatch-cost measurements the paper depends on.
//!
//! It is the one stack-discipline analysis of the system: what its
//! fixpoint holds when it accepts a function — the maximum operand-stack
//! depth and the entry depth at every reachable pc — stays with the
//! function ([`crate::Function::max_stack`], [`crate::Function::depth_at`])
//! for frame sizing and trace lowering to read.
//!
//! The verifier runs an abstract interpretation over each function with a
//! small type lattice ([`AbstractType`]) and checks:
//!
//! * operand-stack safety: no underflow, matching depths at join points;
//! * type discipline: integer ops see ints, float ops floats, field and
//!   array ops references (values of statically unknown type — parameters,
//!   call results, field and array loads — are `Any` and accepted
//!   anywhere);
//! * structural sanity: branch targets in range, local slots in range,
//!   control never falls off the end of the code;
//! * call-site sanity: static callees exist with matching arity, and every
//!   virtual slot has a consistent `(arity, returns-value)` signature
//!   across all classes that define it.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::function::StackFacts;
use crate::ids::FuncId;
use crate::instr::Instr;
use crate::program::Program;

/// Abstract value type used by the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractType {
    /// Known integer.
    Int,
    /// Known float.
    Float,
    /// Known reference (or null).
    Ref,
    /// Statically unknown (parameter, call result, field/array load);
    /// accepted wherever any concrete type is expected.
    Any,
    /// The merge of incompatible types; may be moved around but not used
    /// as an operand.
    Conflict,
}

impl AbstractType {
    /// Merge at a control-flow join.
    fn merge(self, other: AbstractType) -> AbstractType {
        use AbstractType::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Any, x) | (x, Any) => {
                // Unknown absorbs into the concrete type's "unknown" side:
                // the result is still statically unknown.
                let _ = x;
                Any
            }
            _ => Conflict,
        }
    }

    /// Whether a value of this abstract type may be consumed where `want`
    /// is expected.
    fn accepts(self, want: AbstractType) -> bool {
        self == want || self == AbstractType::Any
    }
}

impl fmt::Display for AbstractType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbstractType::Int => "int",
            AbstractType::Float => "float",
            AbstractType::Ref => "ref",
            AbstractType::Any => "any",
            AbstractType::Conflict => "conflict",
        };
        f.write_str(s)
    }
}

/// Error detected by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction popped from an empty stack.
    StackUnderflow {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
    },
    /// An operand had the wrong type.
    TypeMismatch {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
        /// What the instruction required.
        expected: &'static str,
        /// What was on the stack.
        found: String,
    },
    /// Two paths reached the same instruction with different stack depths.
    DepthMismatch {
        /// Offending function name.
        func: String,
        /// Join-point instruction index.
        pc: u32,
        /// Depth on the first path.
        first: usize,
        /// Depth on the second path.
        second: usize,
    },
    /// A local slot index was out of range.
    BadLocal {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
        /// The out-of-range slot.
        slot: u16,
    },
    /// A branch target was out of range.
    TargetOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// Control can fall through past the last instruction.
    FallsOffEnd {
        /// Offending function name.
        func: String,
    },
    /// `Return`/`ReturnVoid` disagreed with the function signature.
    ReturnMismatch {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
    },
    /// A static call referenced a nonexistent function.
    BadCallee {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
        /// The bad callee id.
        callee: FuncId,
    },
    /// A virtual slot is not defined by any class, or classes disagree on
    /// its signature.
    BadVirtualSlot {
        /// The inconsistent slot.
        slot: u16,
        /// Explanation.
        reason: String,
    },
    /// A virtual call's `argc` disagreed with the slot's arity.
    VirtualArgcMismatch {
        /// Offending function name.
        func: String,
        /// Offending instruction index.
        pc: u32,
        /// The slot called.
        slot: u16,
        /// `argc` at the call site.
        argc: u16,
        /// Arity required by the slot's implementations.
        expected: u16,
    },
    /// A class referenced a nonexistent function or class.
    BadClassRef {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StackUnderflow { func, pc } => {
                write!(f, "stack underflow in `{func}` at pc {pc}")
            }
            VerifyError::TypeMismatch {
                func,
                pc,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in `{func}` at pc {pc}: expected {expected}, found {found}"
            ),
            VerifyError::DepthMismatch {
                func,
                pc,
                first,
                second,
            } => write!(
                f,
                "inconsistent stack depth in `{func}` at pc {pc}: {first} vs {second}"
            ),
            VerifyError::BadLocal { func, pc, slot } => {
                write!(f, "local slot {slot} out of range in `{func}` at pc {pc}")
            }
            VerifyError::TargetOutOfRange { func, pc, target } => {
                write!(f, "branch target {target} out of range in `{func}` at pc {pc}")
            }
            VerifyError::FallsOffEnd { func } => {
                write!(f, "control falls off the end of `{func}`")
            }
            VerifyError::ReturnMismatch { func, pc } => write!(
                f,
                "return kind disagrees with signature in `{func}` at pc {pc}"
            ),
            VerifyError::BadCallee { func, pc, callee } => {
                write!(f, "call to nonexistent {callee} in `{func}` at pc {pc}")
            }
            VerifyError::BadVirtualSlot { slot, reason } => {
                write!(f, "inconsistent virtual slot {slot}: {reason}")
            }
            VerifyError::VirtualArgcMismatch {
                func,
                pc,
                slot,
                argc,
                expected,
            } => write!(
                f,
                "virtual call in `{func}` at pc {pc} passes {argc} args but slot {slot} requires {expected}"
            ),
            VerifyError::BadClassRef { reason } => write!(f, "bad class reference: {reason}"),
        }
    }
}

impl Error for VerifyError {}

/// Per-slot virtual signature discovered from the vtables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotSig {
    argc: u16,
    returns_value: bool,
}

/// Verifies every function of the program plus cross-cutting class/vtable
/// consistency.
///
/// Every [`Program`] passed this when it was built; this re-checks it.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_program(program: &Program) -> Result<(), VerifyError> {
    analyze(program).map(drop)
}

/// The verification itself: on success, one [`StackFacts`] per function
/// in id order, for [`crate::ProgramBuilder::build`] to attach.
pub(crate) fn analyze(program: &Program) -> Result<Vec<StackFacts>, VerifyError> {
    let slot_sigs = collect_slot_sigs(program)?;
    program
        .functions()
        .iter()
        .map(|func| verify_function(program, func.id(), &slot_sigs))
        .collect()
}

/// Collects and cross-checks the signature of every vtable slot.
fn collect_slot_sigs(program: &Program) -> Result<Vec<Option<SlotSig>>, VerifyError> {
    let mut sigs: Vec<Option<SlotSig>> = Vec::new();
    for class in program.classes() {
        if let Some(sup) = class.super_class() {
            if sup.index() >= program.classes().len() {
                return Err(VerifyError::BadClassRef {
                    reason: format!("class `{}` has nonexistent superclass", class.name()),
                });
            }
        }
        for (slot, &fid) in class.vtable().iter().enumerate() {
            if fid.index() >= program.functions().len() {
                return Err(VerifyError::BadClassRef {
                    reason: format!(
                        "class `{}` slot {slot} references nonexistent {fid}",
                        class.name()
                    ),
                });
            }
            let func = program.function(fid);
            let sig = SlotSig {
                argc: func.num_params(),
                returns_value: func.returns_value(),
            };
            if slot >= sigs.len() {
                sigs.resize(slot + 1, None);
            }
            match &sigs[slot] {
                None => sigs[slot] = Some(sig),
                Some(prev) if *prev == sig => {}
                Some(prev) => {
                    return Err(VerifyError::BadVirtualSlot {
                        slot: slot as u16,
                        reason: format!(
                            "`{}` declares ({}, returns={}) but an earlier class declared ({}, returns={})",
                            func.name(),
                            sig.argc,
                            sig.returns_value,
                            prev.argc,
                            prev.returns_value
                        ),
                    })
                }
            }
        }
    }
    Ok(sigs)
}

#[derive(Debug, Clone, PartialEq)]
struct AbstractState {
    stack: Vec<AbstractType>,
    locals: Vec<AbstractType>,
}

impl AbstractState {
    fn merge_into(&self, other: &mut AbstractState) -> Result<bool, (usize, usize)> {
        if self.stack.len() != other.stack.len() {
            return Err((other.stack.len(), self.stack.len()));
        }
        let mut changed = false;
        for (a, b) in other.stack.iter_mut().zip(&self.stack) {
            let m = a.merge(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        for (a, b) in other.locals.iter_mut().zip(&self.locals) {
            let m = a.merge(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// Verifies a single function and returns the stack facts its fixpoint
/// holds. `slot_sigs` comes from [`collect_slot_sigs`].
fn verify_function(
    program: &Program,
    id: FuncId,
    slot_sigs: &[Option<SlotSig>],
) -> Result<StackFacts, VerifyError> {
    use AbstractType::*;

    let func = program.function(id);
    let code = func.code();
    let n = code.len() as u32;
    let fname = func.name();

    let mut states: Vec<Option<AbstractState>> = vec![None; code.len()];
    let entry = AbstractState {
        stack: Vec::new(),
        locals: {
            let mut l = vec![Any; func.num_locals() as usize];
            // Non-parameter locals start undefined; treating them as Any is
            // sound for this lattice (they hold VM-level zeroes at runtime).
            for slot in func.num_params()..func.num_locals() {
                l[slot as usize] = Any;
            }
            l
        },
    };
    states[0] = Some(entry);
    let mut worklist: VecDeque<u32> = VecDeque::new();
    worklist.push_back(0);
    // Deepest stack after any reachable instruction. Every entry depth
    // is 0 (pc 0) or some predecessor's exit depth, and no instruction
    // is transiently deeper than both, so this is the frame bound.
    let mut max_stack = 0usize;

    // Helper macros keep the per-opcode transfer function readable.
    macro_rules! pop {
        ($st:expr, $pc:expr) => {
            $st.stack.pop().ok_or(VerifyError::StackUnderflow {
                func: fname.to_owned(),
                pc: $pc,
            })?
        };
    }
    macro_rules! expect {
        ($st:expr, $pc:expr, $want:expr, $what:expr) => {{
            let t = pop!($st, $pc);
            if !t.accepts($want) {
                return Err(VerifyError::TypeMismatch {
                    func: fname.to_owned(),
                    pc: $pc,
                    expected: $what,
                    found: t.to_string(),
                });
            }
        }};
    }

    while let Some(pc) = worklist.pop_front() {
        let mut st = states[pc as usize]
            .clone()
            .expect("worklist entries always have a state");
        let ins = &code[pc as usize];

        let check_target = |t: u32| -> Result<(), VerifyError> {
            if t >= n {
                Err(VerifyError::TargetOutOfRange {
                    func: fname.to_owned(),
                    pc,
                    target: t,
                })
            } else {
                Ok(())
            }
        };
        let check_local = |slot: u16| -> Result<(), VerifyError> {
            if slot >= func.num_locals() {
                Err(VerifyError::BadLocal {
                    func: fname.to_owned(),
                    pc,
                    slot,
                })
            } else {
                Ok(())
            }
        };

        // Transfer function: mutate `st`, collect successor pcs.
        let mut succs: Vec<u32> = Vec::with_capacity(2);
        let mut falls = ins.falls_through();
        match ins {
            Instr::IConst(_) => st.stack.push(Int),
            Instr::FConst(_) => st.stack.push(Float),
            Instr::ConstNull => st.stack.push(Ref),
            Instr::Dup => {
                let t = *st.stack.last().ok_or(VerifyError::StackUnderflow {
                    func: fname.to_owned(),
                    pc,
                })?;
                st.stack.push(t);
            }
            Instr::Dup2 => {
                let len = st.stack.len();
                if len < 2 {
                    return Err(VerifyError::StackUnderflow {
                        func: fname.to_owned(),
                        pc,
                    });
                }
                let a = st.stack[len - 2];
                let b = st.stack[len - 1];
                st.stack.push(a);
                st.stack.push(b);
            }
            Instr::Pop => {
                let _ = pop!(st, pc);
            }
            Instr::Swap => {
                let len = st.stack.len();
                if len < 2 {
                    return Err(VerifyError::StackUnderflow {
                        func: fname.to_owned(),
                        pc,
                    });
                }
                st.stack.swap(len - 1, len - 2);
            }
            Instr::Load(slot) => {
                check_local(*slot)?;
                st.stack.push(st.locals[*slot as usize]);
            }
            Instr::Store(slot) => {
                check_local(*slot)?;
                let t = pop!(st, pc);
                st.locals[*slot as usize] = t;
            }
            Instr::IInc(slot, _) => {
                check_local(*slot)?;
                let t = st.locals[*slot as usize];
                if !t.accepts(Int) {
                    return Err(VerifyError::TypeMismatch {
                        func: fname.to_owned(),
                        pc,
                        expected: "int local",
                        found: t.to_string(),
                    });
                }
                st.locals[*slot as usize] = Int;
            }
            Instr::IAdd
            | Instr::ISub
            | Instr::IMul
            | Instr::IDiv
            | Instr::IRem
            | Instr::IShl
            | Instr::IShr
            | Instr::IUShr
            | Instr::IAnd
            | Instr::IOr
            | Instr::IXor => {
                expect!(st, pc, Int, "int");
                expect!(st, pc, Int, "int");
                st.stack.push(Int);
            }
            Instr::INeg => {
                expect!(st, pc, Int, "int");
                st.stack.push(Int);
            }
            Instr::FAdd | Instr::FSub | Instr::FMul | Instr::FDiv => {
                expect!(st, pc, Float, "float");
                expect!(st, pc, Float, "float");
                st.stack.push(Float);
            }
            Instr::FNeg => {
                expect!(st, pc, Float, "float");
                st.stack.push(Float);
            }
            Instr::I2F => {
                expect!(st, pc, Int, "int");
                st.stack.push(Float);
            }
            Instr::F2I => {
                expect!(st, pc, Float, "float");
                st.stack.push(Int);
            }
            Instr::IfICmp(_, t) => {
                check_target(*t)?;
                expect!(st, pc, Int, "int");
                expect!(st, pc, Int, "int");
                succs.push(*t);
            }
            Instr::IfI(_, t) => {
                check_target(*t)?;
                expect!(st, pc, Int, "int");
                succs.push(*t);
            }
            Instr::IfFCmp(_, t) => {
                check_target(*t)?;
                expect!(st, pc, Float, "float");
                expect!(st, pc, Float, "float");
                succs.push(*t);
            }
            Instr::IfNull(t) | Instr::IfNonNull(t) => {
                check_target(*t)?;
                expect!(st, pc, Ref, "reference");
                succs.push(*t);
            }
            Instr::Goto(t) => {
                check_target(*t)?;
                succs.push(*t);
            }
            Instr::TableSwitch {
                targets, default, ..
            } => {
                expect!(st, pc, Int, "int");
                for t in targets.iter() {
                    check_target(*t)?;
                    succs.push(*t);
                }
                check_target(*default)?;
                succs.push(*default);
            }
            Instr::InvokeStatic(callee) => {
                if callee.index() >= program.functions().len() {
                    return Err(VerifyError::BadCallee {
                        func: fname.to_owned(),
                        pc,
                        callee: *callee,
                    });
                }
                let cf = program.function(*callee);
                for _ in 0..cf.num_params() {
                    let _ = pop!(st, pc);
                }
                if cf.returns_value() {
                    st.stack.push(Any);
                }
            }
            Instr::InvokeVirtual { slot, argc } => {
                let sig = slot_sigs
                    .get(*slot as usize)
                    .and_then(|s| *s)
                    .ok_or_else(|| VerifyError::BadVirtualSlot {
                        slot: *slot,
                        reason: "no class defines this slot".to_owned(),
                    })?;
                if sig.argc != *argc {
                    return Err(VerifyError::VirtualArgcMismatch {
                        func: fname.to_owned(),
                        pc,
                        slot: *slot,
                        argc: *argc,
                        expected: sig.argc,
                    });
                }
                if *argc == 0 {
                    return Err(VerifyError::VirtualArgcMismatch {
                        func: fname.to_owned(),
                        pc,
                        slot: *slot,
                        argc: 0,
                        expected: 1,
                    });
                }
                // Pop argc-1 plain arguments, then the receiver (deepest).
                for _ in 0..(*argc - 1) {
                    let _ = pop!(st, pc);
                }
                expect!(st, pc, Ref, "receiver reference");
                if sig.returns_value {
                    st.stack.push(Any);
                }
            }
            Instr::Return => {
                if !func.returns_value() {
                    return Err(VerifyError::ReturnMismatch {
                        func: fname.to_owned(),
                        pc,
                    });
                }
                let _ = pop!(st, pc);
            }
            Instr::ReturnVoid => {
                if func.returns_value() {
                    return Err(VerifyError::ReturnMismatch {
                        func: fname.to_owned(),
                        pc,
                    });
                }
            }
            Instr::New(class) => {
                if class.index() >= program.classes().len() {
                    return Err(VerifyError::BadClassRef {
                        reason: format!("`{fname}` pc {pc} allocates nonexistent {class}"),
                    });
                }
                st.stack.push(Ref);
            }
            Instr::GetField(_) => {
                expect!(st, pc, Ref, "object reference");
                st.stack.push(Any);
            }
            Instr::PutField(_) => {
                let _ = pop!(st, pc); // value (any type)
                expect!(st, pc, Ref, "object reference");
            }
            Instr::NewArray => {
                expect!(st, pc, Int, "length");
                st.stack.push(Ref);
            }
            Instr::ALoad => {
                expect!(st, pc, Int, "index");
                expect!(st, pc, Ref, "array reference");
                st.stack.push(Any);
            }
            Instr::AStore => {
                let _ = pop!(st, pc); // value
                expect!(st, pc, Int, "index");
                expect!(st, pc, Ref, "array reference");
            }
            Instr::ArrayLen => {
                expect!(st, pc, Ref, "array reference");
                st.stack.push(Int);
            }
            Instr::Intrinsic(i) => {
                let want = if i.is_float() { Float } else { Int };
                for _ in 0..i.arg_count() {
                    expect!(st, pc, want, if i.is_float() { "float" } else { "int" });
                }
                if i.returns_value() {
                    st.stack.push(want);
                }
            }
            Instr::Nop => {}
        }

        max_stack = max_stack.max(st.stack.len());

        if matches!(ins, Instr::Return | Instr::ReturnVoid) {
            falls = false;
        }
        if falls {
            if pc + 1 >= n {
                return Err(VerifyError::FallsOffEnd {
                    func: fname.to_owned(),
                });
            }
            succs.push(pc + 1);
        }

        for s in succs {
            match &mut states[s as usize] {
                None => {
                    states[s as usize] = Some(st.clone());
                    worklist.push_back(s);
                }
                Some(existing) => match st.merge_into(existing) {
                    Ok(true) => worklist.push_back(s),
                    Ok(false) => {}
                    Err((first, second)) => {
                        return Err(VerifyError::DepthMismatch {
                            func: fname.to_owned(),
                            pc: s,
                            first,
                            second,
                        })
                    }
                },
            }
        }
    }

    Ok(StackFacts {
        max_stack: max_stack as u32,
        depth_at: states
            .iter()
            .map(|st| {
                st.as_ref()
                    .map_or(StackFacts::UNREACHABLE, |st| st.stack.len() as u32)
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::error::BuildError;
    use crate::instr::CmpOp;

    fn expect_verify_err(pb: ProgramBuilder, entry: FuncId) -> VerifyError {
        match pb.build(entry) {
            Err(BuildError::Verify(e)) => e,
            other => panic!("expected verify error, got {other:?}"),
        }
    }

    #[test]
    fn accepts_well_typed_arith() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 2, true);
        pb.function_mut(f).load(0).load(1).iadd().ret();
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn rejects_stack_underflow() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).pop().ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::StackUnderflow { .. }
        ));
    }

    #[test]
    fn rejects_int_float_confusion() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, true);
        pb.function_mut(f).iconst(1).fconst(2.0).iadd().ret();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_depth_mismatch_at_join() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
        let b = pb.function_mut(f);
        let join = b.new_label();
        let other = b.new_label();
        b.load(0).if_i(CmpOp::Eq, other);
        b.iconst(1).iconst(2).goto(join); // depth 2 at join
        b.bind(other);
        b.iconst(1).goto(join); // depth 1 at join
        b.bind(join);
        b.ret();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::DepthMismatch { .. }
        ));
    }

    #[test]
    fn rejects_bad_local_slot() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).load(5).pop().ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::BadLocal { .. }
        ));
    }

    #[test]
    fn rejects_fall_off_end() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).iconst(1).pop();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::FallsOffEnd { .. }
        ));
    }

    #[test]
    fn rejects_return_kind_mismatch() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).iconst(1).ret();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::ReturnMismatch { .. }
        ));
    }

    #[test]
    fn rejects_bad_static_callee() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).invoke_static(FuncId(9)).ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::BadCallee { .. }
        ));
    }

    #[test]
    fn rejects_static_call_arity_underflow() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare_function("g", 2, false);
        pb.function_mut(g).ret_void();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f).iconst(1).invoke_static(g).ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::StackUnderflow { .. }
        ));
    }

    #[test]
    fn rejects_undefined_virtual_slot() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f)
            .const_null()
            .invoke_virtual(0, 1)
            .ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::BadVirtualSlot { .. }
        ));
    }

    #[test]
    fn rejects_inconsistent_virtual_signatures() {
        let mut pb = ProgramBuilder::new();
        let m1 = pb.declare_function("A.m", 1, true);
        pb.function_mut(m1).iconst(1).ret();
        let m2 = pb.declare_function("B.m", 2, true); // different arity
        pb.function_mut(m2).iconst(2).ret();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).ret_void();
        let a = pb.declare_class("A", None, 0);
        pb.add_method(a, m1);
        let b = pb.declare_class("B", None, 0);
        pb.add_method(b, m2);
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::BadVirtualSlot { .. }
        ));
    }

    #[test]
    fn rejects_virtual_argc_mismatch() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("A.m", 2, false);
        pb.function_mut(m).ret_void();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f)
            .const_null()
            .invoke_virtual(0, 1)
            .ret_void();
        let a = pb.declare_class("A", None, 0);
        pb.add_method(a, m);
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::VirtualArgcMismatch { .. }
        ));
    }

    #[test]
    fn accepts_virtual_call_with_matching_signature() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("A.m", 2, true);
        pb.function_mut(m).load(1).ret();
        let f = pb.declare_function("main", 0, false);
        let a = pb.declare_class("A", None, 0);
        pb.add_method(a, m);
        pb.function_mut(f)
            .new_obj(a)
            .iconst(9)
            .invoke_virtual(0, 2)
            .pop()
            .ret_void();
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn accepts_loop_with_consistent_state() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("loop", 1, true);
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
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn rejects_ref_where_int_expected_in_branch() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        let b = pb.function_mut(f);
        let l = b.new_label();
        b.const_null().if_i(CmpOp::Eq, l);
        b.bind(l);
        b.ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_iinc_on_float_local() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        let b = pb.function_mut(f);
        let x = b.alloc_local();
        b.fconst(1.0).store(x).iinc(x, 1).ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn any_type_flows_through_field_and_array_ops() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
        let c = pb.declare_class("C", None, 1);
        let _ = c;
        let b = pb.function_mut(f);
        // param 0 is Any; use it as an int after an array round-trip.
        b.iconst(4).new_array(); // arr
        b.dup().iconst(0).load(0).astore(); // arr[0] = p0
        b.iconst(0).aload(); // push arr[0] (Any)
        b.iconst(1).iadd().ret(); // used as int: OK
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn rejects_switch_target_out_of_range() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, false);
        {
            let b = pb.function_mut(f);
            let ok = b.new_label();
            b.load(0).table_switch(0, &[ok], ok);
            b.bind(ok);
            b.ret_void();
        }
        // Valid via builder; now hand-build a raw out-of-range switch.
        let _ = pb.build(f).unwrap();
        use crate::function::Function;
        use crate::program::Program;
        let bad = Function::from_parts(
            "bad".into(),
            FuncId(0),
            1,
            1,
            false,
            vec![
                Instr::Load(0),
                Instr::TableSwitch {
                    low: 0,
                    targets: Box::new([99]),
                    default: 3,
                },
                Instr::Nop,
                Instr::ReturnVoid,
            ],
        );
        let p = Program::from_parts(vec![bad], vec![], FuncId(0));
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::TargetOutOfRange { target: 99, .. })
        ));
    }

    #[test]
    fn dup2_requires_two_values_and_preserves_types() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .fconst(2.0)
            .dup2() // int float int float
            .fadd() // pops two floats? top two are (int, float) -> error
            .ret();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::TypeMismatch { .. }
        ));

        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("g", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .dup2()
            .iadd()
            .iadd()
            .iadd()
            .ret();
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn underflowing_dup2_and_swap_are_rejected() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        pb.function_mut(f)
            .iconst(1)
            .dup2()
            .pop()
            .pop()
            .pop()
            .ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::StackUnderflow { .. }
        ));
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("g", 0, false);
        pb.function_mut(f).iconst(1).swap().pop().ret_void();
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::StackUnderflow { .. }
        ));
    }

    #[test]
    fn unreachable_code_is_permitted() {
        // Code after an unconditional return is never verified (matching
        // the JVM, which only checks reachable paths).
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        let b = pb.function_mut(f);
        b.ret_void();
        b.pop().pop().ret_void(); // would underflow if reachable
        assert!(pb.build(f).is_ok());
    }

    #[test]
    fn conflicting_local_types_are_fine_until_used() {
        // A local that is int on one path and float on the other may be
        // stored/ignored, but using it as an int must fail.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("ok", 1, false);
        {
            let b = pb.function_mut(f);
            let x = b.alloc_local();
            let other = b.new_label();
            let join = b.new_label();
            b.load(0).if_i(CmpOp::Eq, other);
            b.iconst(1).store(x).goto(join);
            b.bind(other);
            b.fconst(1.0).store(x);
            b.bind(join);
            b.ret_void(); // never uses x: fine
        }
        assert!(pb.build(f).is_ok());

        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("bad", 1, true);
        {
            let b = pb.function_mut(f);
            let x = b.alloc_local();
            let other = b.new_label();
            let join = b.new_label();
            b.load(0).if_i(CmpOp::Eq, other);
            b.iconst(1).store(x).goto(join);
            b.bind(other);
            b.fconst(1.0).store(x);
            b.bind(join);
            b.load(x).iconst(1).iadd().ret(); // uses conflicted x as int
        }
        assert!(matches!(
            expect_verify_err(pb, f),
            VerifyError::TypeMismatch { .. }
        ));
    }

    /// Entry depth at every pc, as the verifier recorded it.
    fn depths(f: &crate::function::Function) -> Vec<Option<u32>> {
        (0..f.code().len() as u32)
            .map(|pc| f.depth_at(pc))
            .collect()
    }

    // The facts the verifier keeps: `Function::max_stack` and
    // `Function::depth_at`.

    #[test]
    fn straight_line_depth() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .iconst(3)
            .iadd()
            .iadd()
            .ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 3);
        assert_eq!(depths(p.function(f)), [0, 1, 2, 3, 2, 1].map(Some));
    }

    #[test]
    fn branches_join_at_equal_depth() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
        let b = pb.function_mut(f);
        let other = b.new_label();
        let join = b.new_label();
        b.iconst(7).load(0).if_i(CmpOp::Ne, other);
        b.iconst(1).goto(join);
        b.bind(other);
        b.iconst(2).goto(join);
        b.bind(join);
        b.iadd().ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 2);
        // Both arms reach the join (pc 7) one deep over the `iconst 7`.
        assert_eq!(depths(p.function(f)), [0, 1, 2, 1, 2, 1, 2, 2, 1].map(Some));
    }

    #[test]
    fn call_effects_use_callee_signature() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare_function("leaf", 2, true);
        pb.function_mut(leaf).load(0).load(1).iadd().ret();
        let f = pb.declare_function("main", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .iconst(3)
            .invoke_static(leaf)
            .iadd()
            .ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 3);
        assert_eq!(p.function(leaf).max_stack(), 2);
        // The call pops the callee's two parameters and pushes its value.
        assert_eq!(depths(p.function(f)), [0, 1, 2, 3, 2, 1].map(Some));
    }

    #[test]
    fn virtual_slot_return_resolved_from_vtable() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("A.get", 1, true);
        pb.function_mut(m).iconst(9).ret();
        let f = pb.declare_function("main", 0, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, m);
        pb.function_mut(f).new_obj(a).invoke_virtual(slot, 1).ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 1);
        // Receiver popped, the slot's value pushed.
        assert_eq!(depths(p.function(f)), [0, 1, 1].map(Some));
    }

    #[test]
    fn dup2_peak_counts_intermediate_height() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, true);
        pb.function_mut(f)
            .iconst(1)
            .iconst(2)
            .dup2()
            .iadd()
            .swap()
            .isub()
            .imul()
            .ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 4);
        assert_eq!(depths(p.function(f)), [0, 1, 2, 4, 3, 3, 2, 1].map(Some));
    }

    #[test]
    fn unreachable_code_is_ignored() {
        // A branch whose arm returns early: the deep arm is reachable
        // and counts. The tail after its return is not, and neither
        // raises the bound nor gets a depth.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 1, true);
        let b = pb.function_mut(f);
        let deep = b.new_label();
        b.load(0).if_i(CmpOp::Ne, deep);
        b.iconst(0).ret();
        b.bind(deep);
        b.iconst(1)
            .iconst(2)
            .iconst(3)
            .iconst(4)
            .iadd()
            .iadd()
            .iadd()
            .ret();
        for _ in 0..6 {
            b.iconst(0);
        }
        b.ret();
        let p = pb.build(f).unwrap();
        assert_eq!(p.function(f).max_stack(), 4);
        let d = depths(p.function(f));
        assert_eq!(d[..12], [0, 1, 0, 1, 0, 1, 2, 3, 4, 3, 2, 1].map(Some));
        assert_eq!(d[12..], [None; 7]);
    }

    #[test]
    fn merge_table_is_sound() {
        use AbstractType::*;
        assert_eq!(Int.merge(Int), Int);
        assert_eq!(Int.merge(Float), Conflict);
        assert_eq!(Int.merge(Any), Any);
        assert_eq!(Any.merge(Ref), Any);
        assert_eq!(Conflict.merge(Int), Conflict);
        assert!(Any.accepts(Int));
        assert!(!Conflict.accepts(Int));
    }
}
