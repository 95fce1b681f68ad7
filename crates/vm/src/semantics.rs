//! One definition of every operation the executors share.
//!
//! The decoded loop's standalone arms, its fused superinstruction arms
//! ([`crate::fuse`]) and the register-trace executor in `trace-exec` all
//! evaluate arithmetic, comparisons, intrinsics, heap access, switch
//! selection and virtual dispatch through these functions, so an
//! operation's result and its trap order are written once. A trace
//! therefore executes the interpreter's own instruction bodies, dispatched
//! at a coarser grain, which is the paper's inlining-interpreter model.
//! [`crate::ReferenceVm`] does not use this module: it stays the
//! independent oracle every other executor is checked against.
//!
//! Operands are passed as [`Value`]s in stack order (`a` below `b`) and
//! type-checked in the order the interpreter pops them: the right operand
//! first ([`ints`], [`floats`]). Arithmetic returns the bare `i64` / `f64`
//! and the caller tags it, and the comparisons take checked operands, so
//! no executor moves a `Value` or a `bool` through a `Result` on its hot
//! path. Opcodes are [`crate::decode::op`] constants; every function is
//! `#[inline(always)]`, so a caller that passes a constant opcode compiles
//! to that one operation's body.

use jvm_bytecode::{CmpOp, FuncId, Program};

use crate::decode::op;
use crate::error::VmError;
use crate::heap::{Heap, HeapObj};
use crate::value::Value;

/// The operands of a two-int instruction, `a` below `b` on the stack,
/// type-checked in the order the interpreter pops them: `b` first.
#[inline(always)]
pub fn ints(a: Value, b: Value) -> Result<(i64, i64), VmError> {
    let b = b.as_int()?;
    Ok((a.as_int()?, b))
}

/// The operands of a two-float instruction, `b` type-checked first.
#[inline(always)]
pub fn floats(a: Value, b: Value) -> Result<(f64, f64), VmError> {
    let b = b.as_float()?;
    Ok((a.as_float()?, b))
}

/// An int binop — `iadd` … `ixor`, or the `imin` / `imax` intrinsics —
/// on [`ints`]. Wrapping; `idiv` / `irem` trap on a zero divisor and
/// `i64::MIN / -1` wraps; shift counts are masked to six bits.
#[inline(always)]
pub fn ibin(opc: u8, a: Value, b: Value) -> Result<i64, VmError> {
    let (a, b) = ints(a, b)?;
    Ok(match opc {
        op::IADD => a.wrapping_add(b),
        op::ISUB => a.wrapping_sub(b),
        op::IMUL => a.wrapping_mul(b),
        op::IDIV | op::IREM if b == 0 => return Err(VmError::DivisionByZero),
        op::IDIV => a.wrapping_div(b),
        op::IREM => a.wrapping_rem(b),
        op::ISHL => a.wrapping_shl(b as u32 & 63),
        op::ISHR => a.wrapping_shr(b as u32 & 63),
        op::IUSHR => ((a as u64) >> (b as u32 & 63)) as i64,
        op::IAND => a & b,
        op::IOR => a | b,
        op::IXOR => a ^ b,
        op::MIN_I => a.min(b),
        op::MAX_I => a.max(b),
        other => unreachable!("not an int binop: {other}"),
    })
}

/// A float binop, `fadd` … `fdiv` (IEEE: never traps), on [`floats`].
#[inline(always)]
pub fn fbin(opc: u8, a: Value, b: Value) -> Result<f64, VmError> {
    let (a, b) = floats(a, b)?;
    Ok(match opc {
        op::FADD => a + b,
        op::FSUB => a - b,
        op::FMUL => a * b,
        op::FDIV => a / b,
        other => unreachable!("not a float binop: {other}"),
    })
}

/// A one-operand opcode with an int result: `ineg` (wrapping), `f2i`
/// (saturating, NaN is 0), `iabs` (wrapping).
#[inline(always)]
pub fn iunary(opc: u8, a: Value) -> Result<i64, VmError> {
    Ok(match opc {
        op::INEG => a.as_int()?.wrapping_neg(),
        op::F2I => a.as_float()? as i64,
        op::ABS_I => a.as_int()?.wrapping_abs(),
        other => unreachable!("not an int-valued unop: {other}"),
    })
}

/// A one-operand opcode with a float result: `fneg`, `i2f` and the float
/// math intrinsics.
#[inline(always)]
pub fn funary(opc: u8, a: Value) -> Result<f64, VmError> {
    Ok(match opc {
        op::FNEG => -a.as_float()?,
        op::I2F => a.as_int()? as f64,
        op::SQRT => a.as_float()?.sqrt(),
        op::SIN => a.as_float()?.sin(),
        op::COS => a.as_float()?.cos(),
        op::EXP => a.as_float()?.exp(),
        op::LOG => a.as_float()?.ln(),
        op::ABS_F => a.as_float()?.abs(),
        other => unreachable!("not a float-valued unop: {other}"),
    })
}

/// `iinc`: the int `v` plus `imm`, wrapping.
#[inline(always)]
pub fn iinc(v: Value, imm: i32) -> Result<i64, VmError> {
    Ok(v.as_int()?.wrapping_add(i64::from(imm)))
}

/// Int comparison `c`; `if` against zero passes 0 as `b`. The operands
/// come from [`ints`] or, for one operand, [`Value::as_int`].
#[inline(always)]
pub fn icmp(c: CmpOp, a: i64, b: i64) -> bool {
    match c {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Float comparison `c` (IEEE: every comparison with NaN is false except
/// `ne`). The operands come from [`floats`].
#[inline(always)]
pub fn fcmp(c: CmpOp, a: f64, b: f64) -> bool {
    match c {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The `tableswitch` target for selector `v`: `targets[v - low]`, or
/// `default` outside the table.
#[inline(always)]
pub fn switch_target(v: Value, low: i64, targets: &[u32], default: u32) -> Result<u32, VmError> {
    let idx = v.as_int()?.wrapping_sub(low);
    Ok(if idx >= 0 && (idx as usize) < targets.len() {
        targets[idx as usize]
    } else {
        default
    })
}

/// The callee of an `invokevirtual` of vtable `slot` on receiver `recv`.
#[inline(always)]
pub fn resolve_virtual(
    program: &Program,
    heap: &Heap,
    recv: Value,
    slot: u16,
) -> Result<FuncId, VmError> {
    match heap.get(recv.as_ref_id()?) {
        HeapObj::Object { class, .. } => Ok(program.class(*class).resolve(slot)),
        HeapObj::Array { .. } => Err(VmError::TypeError {
            expected: "object receiver",
            found: "array",
        }),
    }
}

/// The trap of an object access on an array.
const NOT_AN_OBJECT: VmError = VmError::TypeError {
    expected: "object",
    found: "array",
};

/// The trap of an array access on an object.
const NOT_AN_ARRAY: VmError = VmError::TypeError {
    expected: "array",
    found: "object",
};

/// Array index `idx` into `len` elements, bounds-checked.
#[inline(always)]
fn index(idx: i64, len: usize) -> Result<usize, VmError> {
    if idx < 0 || idx as usize >= len {
        return Err(VmError::IndexOutOfBounds { index: idx, len });
    }
    Ok(idx as usize)
}

/// `getfield`: the slot of field `field` of `obj`.
#[inline(always)]
pub fn field(heap: &Heap, obj: Value, field: u16) -> Result<&Value, VmError> {
    match heap.get(obj.as_ref_id()?) {
        HeapObj::Object { fields, .. } => {
            let num_fields = fields.len() as u16;
            let slot = fields.get(field as usize);
            slot.ok_or(VmError::BadField { field, num_fields })
        }
        HeapObj::Array { .. } => Err(NOT_AN_OBJECT),
    }
}

/// `putfield`: the slot of field `field` of `obj`, to store into.
#[inline(always)]
pub fn field_mut(heap: &mut Heap, obj: Value, field: u16) -> Result<&mut Value, VmError> {
    match heap.get_mut(obj.as_ref_id()?) {
        HeapObj::Object { fields, .. } => {
            let num_fields = fields.len() as u16;
            let slot = fields.get_mut(field as usize);
            slot.ok_or(VmError::BadField { field, num_fields })
        }
        HeapObj::Array { .. } => Err(NOT_AN_OBJECT),
    }
}

/// `aload`: the slot of element `idx` of `arr`, the index type-checked
/// first.
#[inline(always)]
pub fn element(heap: &Heap, arr: Value, idx: Value) -> Result<&Value, VmError> {
    let idx = idx.as_int()?;
    match heap.get(arr.as_ref_id()?) {
        HeapObj::Array { elems } => Ok(&elems[index(idx, elems.len())?]),
        HeapObj::Object { .. } => Err(NOT_AN_ARRAY),
    }
}

/// `astore`: the slot of element `idx` of `arr`, to store into, the
/// index type-checked first.
#[inline(always)]
pub fn element_mut(heap: &mut Heap, arr: Value, idx: Value) -> Result<&mut Value, VmError> {
    let idx = idx.as_int()?;
    match heap.get_mut(arr.as_ref_id()?) {
        HeapObj::Array { elems } => Ok(&mut elems[index(idx, elems.len())?]),
        HeapObj::Object { .. } => Err(NOT_AN_ARRAY),
    }
}

/// `arraylen`: the length of `arr`.
#[inline(always)]
pub fn arraylen(heap: &Heap, arr: Value) -> Result<i64, VmError> {
    match heap.get(arr.as_ref_id()?) {
        HeapObj::Array { elems } => Ok(elems.len() as i64),
        HeapObj::Object { .. } => Err(NOT_AN_ARRAY),
    }
}
