//! The instruction set.
//!
//! A deliberately JVM-flavoured, stack-based ISA: operand stack + local
//! variable slots, `iinc`-style local increments, conditional branches that
//! pop their operands, `tableswitch`, static and virtual invocation, object
//! and array accesses, and a handful of math/IO intrinsics standing in for
//! `java.lang.Math` and `java.io` natives.
//!
//! Branch targets inside a built [`crate::Program`] are absolute instruction
//! indices within the containing function (the builder resolves labels).

use std::fmt;

use crate::ids::{ClassId, FuncId};

/// Comparison operator used by conditional branches.
///
/// ```
/// use jvm_bytecode::CmpOp;
/// assert!(CmpOp::Lt.eval_i64(1, 2));
/// assert!(!CmpOp::Ge.eval_i64(1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two integers.
    #[inline]
    pub fn eval_i64(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluates the comparison on two floats (IEEE semantics; all
    /// comparisons with NaN are false except `Ne`, matching Java's
    /// `fcmpl`+branch lowering for the common case).
    #[inline]
    pub fn eval_f64(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Returns the negated operator, e.g. `Lt` ⇒ `Ge`.
    ///
    /// ```
    /// use jvm_bytecode::CmpOp;
    /// assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
    /// assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
    /// ```
    #[inline]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Built-in native operations, standing in for `java.lang.Math` and simple
/// I/O natives in the original benchmarks.
///
/// `Checksum` folds the popped integer into the VM's running checksum — the
/// workloads use it to validate results without producing output.
///
/// ```
/// use jvm_bytecode::Intrinsic;
/// assert_eq!(Intrinsic::Sqrt.arg_count(), 1);
/// assert!(Intrinsic::Sqrt.returns_value());
/// assert!(!Intrinsic::Checksum.returns_value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `f64 -> f64` square root.
    Sqrt,
    /// `f64 -> f64` sine.
    Sin,
    /// `f64 -> f64` cosine.
    Cos,
    /// `f64 -> f64` natural exponential.
    Exp,
    /// `f64 -> f64` natural logarithm.
    Log,
    /// `f64 -> f64` absolute value.
    AbsF,
    /// `i64 -> i64` absolute value.
    AbsI,
    /// `(i64, i64) -> i64` minimum.
    MinI,
    /// `(i64, i64) -> i64` maximum.
    MaxI,
    /// Pops an integer and appends it to the VM output sink.
    PrintInt,
    /// Pops a float and appends it to the VM output sink.
    PrintFloat,
    /// Pops an integer and folds it into the VM checksum register.
    Checksum,
}

impl Intrinsic {
    /// The intrinsic's mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::AbsF => "fabs",
            Intrinsic::AbsI => "iabs",
            Intrinsic::MinI => "imin",
            Intrinsic::MaxI => "imax",
            Intrinsic::PrintInt => "print_i",
            Intrinsic::PrintFloat => "print_f",
            Intrinsic::Checksum => "checksum",
        }
    }

    /// Number of operands popped from the stack.
    pub fn arg_count(self) -> usize {
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::AbsF
            | Intrinsic::AbsI
            | Intrinsic::PrintInt
            | Intrinsic::PrintFloat
            | Intrinsic::Checksum => 1,
            Intrinsic::MinI | Intrinsic::MaxI => 2,
        }
    }

    /// Whether a result is pushed back onto the stack.
    pub fn returns_value(self) -> bool {
        !matches!(
            self,
            Intrinsic::PrintInt | Intrinsic::PrintFloat | Intrinsic::Checksum
        )
    }

    /// Whether the operand(s) and result are floats (`true`) or ints.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            Intrinsic::Sqrt
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Exp
                | Intrinsic::Log
                | Intrinsic::AbsF
                | Intrinsic::PrintFloat
        )
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single bytecode instruction.
///
/// Branch targets are absolute instruction indices within the containing
/// function. Instructions are produced through [`crate::FunctionBuilder`],
/// which resolves [`crate::Label`]s to indices; hand-constructing `Instr`
/// values is possible but the program must then pass [`crate::verifier`]
/// checks before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push an integer constant.
    IConst(i64),
    /// Push a float constant.
    FConst(f64),
    /// Push the null reference.
    ConstNull,
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top two stack slots (`a b -> a b a b`).
    Dup2,
    /// Discard the top of stack.
    Pop,
    /// Swap the top two stack slots.
    Swap,

    /// Push local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),
    /// Add a constant to integer local slot `n` without stack traffic
    /// (JVM `iinc`).
    IInc(u16, i32),

    /// Integer add (wrapping).
    IAdd,
    /// Integer subtract (wrapping).
    ISub,
    /// Integer multiply (wrapping).
    IMul,
    /// Integer divide; traps on division by zero.
    IDiv,
    /// Integer remainder; traps on division by zero.
    IRem,
    /// Integer negate.
    INeg,
    /// Shift left (count masked to 63 bits).
    IShl,
    /// Arithmetic shift right (count masked).
    IShr,
    /// Logical shift right (count masked).
    IUShr,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,

    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide (IEEE; never traps).
    FDiv,
    /// Float negate.
    FNeg,

    /// Convert int to float.
    I2F,
    /// Convert float to int (truncating; saturates at i64 bounds).
    F2I,

    /// Pop two ints, branch to the target if the comparison holds.
    IfICmp(CmpOp, u32),
    /// Pop one int, compare against zero, branch if the comparison holds.
    IfI(CmpOp, u32),
    /// Pop two floats, branch if the comparison holds.
    IfFCmp(CmpOp, u32),
    /// Pop a reference, branch if null.
    IfNull(u32),
    /// Pop a reference, branch if non-null.
    IfNonNull(u32),
    /// Unconditional branch.
    Goto(u32),
    /// Pop an int `v`; jump to `targets[v - low]`, or `default` if out of
    /// range.
    TableSwitch {
        /// Value mapped to `targets[0]`.
        low: i64,
        /// Jump table.
        targets: Box<[u32]>,
        /// Target when the selector is outside `low..low+targets.len()`.
        default: u32,
    },

    /// Call a function directly. Arguments are popped right-to-left into the
    /// callee's first locals.
    InvokeStatic(FuncId),
    /// Call through the receiver's vtable. `argc` is the number of
    /// arguments *including* the receiver, which sits deepest.
    InvokeVirtual {
        /// Vtable slot index.
        slot: u16,
        /// Total argument count including the receiver.
        argc: u16,
    },
    /// Return the top of stack to the caller.
    Return,
    /// Return with no value.
    ReturnVoid,

    /// Allocate an object of the class; fields start zeroed/null.
    New(ClassId),
    /// Pop an object reference, push field `n`.
    GetField(u16),
    /// Pop a value then an object reference; store into field `n`.
    PutField(u16),
    /// Pop a length, push a new zero-filled array reference.
    NewArray,
    /// Pop index then array reference, push the element.
    ALoad,
    /// Pop value, index, array reference; store the element.
    AStore,
    /// Pop an array reference, push its length.
    ArrayLen,

    /// Invoke a native intrinsic.
    Intrinsic(Intrinsic),
    /// Do nothing.
    Nop,
}

impl Instr {
    /// Returns `true` if this instruction terminates a basic block:
    /// branches, switches, calls and returns all force a new dispatch in
    /// the direct-threaded-inlining model.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::IfICmp(..)
                | Instr::IfI(..)
                | Instr::IfFCmp(..)
                | Instr::IfNull(..)
                | Instr::IfNonNull(..)
                | Instr::Goto(..)
                | Instr::TableSwitch { .. }
                | Instr::InvokeStatic(..)
                | Instr::InvokeVirtual { .. }
                | Instr::Return
                | Instr::ReturnVoid
        )
    }

    /// All *explicit* branch targets of this instruction (conditional
    /// targets, switch tables and defaults). Fall-through successors are
    /// not included.
    pub fn branch_targets(&self) -> Vec<u32> {
        match self {
            Instr::IfICmp(_, t)
            | Instr::IfI(_, t)
            | Instr::IfFCmp(_, t)
            | Instr::IfNull(t)
            | Instr::IfNonNull(t)
            | Instr::Goto(t) => vec![*t],
            Instr::TableSwitch {
                targets, default, ..
            } => {
                let mut v: Vec<u32> = targets.to_vec();
                v.push(*default);
                v
            }
            _ => Vec::new(),
        }
    }

    /// Returns `true` if control can fall through to the next instruction
    /// after executing this one.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Instr::Goto(..) | Instr::TableSwitch { .. } | Instr::Return | Instr::ReturnVoid
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval_covers_all_operators() {
        assert!(CmpOp::Eq.eval_i64(3, 3));
        assert!(CmpOp::Ne.eval_i64(3, 4));
        assert!(CmpOp::Lt.eval_i64(3, 4));
        assert!(CmpOp::Le.eval_i64(3, 3));
        assert!(CmpOp::Gt.eval_i64(4, 3));
        assert!(CmpOp::Ge.eval_i64(4, 4));
    }

    #[test]
    fn cmp_op_negate_is_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(op.eval_i64(a, b), !op.negate().eval_i64(a, b));
            }
        }
    }

    #[test]
    fn float_nan_comparisons() {
        assert!(!CmpOp::Eq.eval_f64(f64::NAN, f64::NAN));
        assert!(CmpOp::Ne.eval_f64(f64::NAN, 1.0));
        assert!(!CmpOp::Lt.eval_f64(f64::NAN, 1.0));
    }

    #[test]
    fn terminator_classification() {
        assert!(Instr::Goto(0).is_terminator());
        assert!(Instr::Return.is_terminator());
        assert!(Instr::InvokeStatic(FuncId(0)).is_terminator());
        assert!(Instr::IfI(CmpOp::Eq, 3).is_terminator());
        assert!(!Instr::IAdd.is_terminator());
        assert!(!Instr::Load(0).is_terminator());
    }

    #[test]
    fn fall_through_classification() {
        assert!(!Instr::Goto(0).falls_through());
        assert!(!Instr::Return.falls_through());
        assert!(Instr::IfI(CmpOp::Eq, 3).falls_through());
        assert!(Instr::InvokeStatic(FuncId(0)).falls_through());
        assert!(Instr::IAdd.falls_through());
        let sw = Instr::TableSwitch {
            low: 0,
            targets: Box::new([1, 2]),
            default: 3,
        };
        assert!(!sw.falls_through());
    }

    #[test]
    fn branch_targets_of_switch_include_default() {
        let sw = Instr::TableSwitch {
            low: 0,
            targets: Box::new([4, 5]),
            default: 9,
        };
        assert_eq!(sw.branch_targets(), vec![4, 5, 9]);
        assert_eq!(Instr::Goto(7).branch_targets(), vec![7]);
        assert!(Instr::IAdd.branch_targets().is_empty());
    }

    #[test]
    fn intrinsic_arity_and_result() {
        assert_eq!(Intrinsic::MinI.arg_count(), 2);
        assert!(Intrinsic::MinI.returns_value());
        assert!(!Intrinsic::PrintInt.returns_value());
        assert!(Intrinsic::Sin.is_float());
        assert!(!Intrinsic::AbsI.is_float());
    }
}
