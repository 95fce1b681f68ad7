//! Runtime values.

use std::fmt;

use crate::error::VmError;

/// Index of a live object in the [`crate::Heap`].
///
/// `RefId`s are only meaningful against the heap that issued them; the
/// garbage collector never moves objects, so a `RefId` stays valid while
/// the object is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefId(pub(crate) u32);

impl RefId {
    /// Raw slot index, for diagnostics.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RefId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A runtime value: the VM is dynamically typed over four shapes, matching
/// the verifier's `int`/`float`/`ref` lattice (null is a reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Reference to a heap object.
    Ref(RefId),
    /// The null reference.
    Null,
}

impl Value {
    /// Extracts an integer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TypeError`] if the value is not an `Int`.
    #[inline]
    pub fn as_int(self) -> Result<i64, VmError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(VmError::TypeError {
                expected: "int",
                found: other.kind(),
            }),
        }
    }

    /// Extracts a float.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TypeError`] if the value is not a `Float`.
    #[inline]
    pub fn as_float(self) -> Result<f64, VmError> {
        match self {
            Value::Float(v) => Ok(v),
            other => Err(VmError::TypeError {
                expected: "float",
                found: other.kind(),
            }),
        }
    }

    /// Extracts a non-null reference.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NullPointer`] for `Null` and
    /// [`VmError::TypeError`] for non-references.
    #[inline]
    pub fn as_ref_id(self) -> Result<RefId, VmError> {
        match self {
            Value::Ref(r) => Ok(r),
            Value::Null => Err(VmError::NullPointer),
            other => Err(VmError::TypeError {
                expected: "reference",
                found: other.kind(),
            }),
        }
    }

    /// A short name for the value's runtime type.
    ///
    /// A table read, not a `match`: every executor inlines dozens of
    /// type checks whose error paths name the kind found, and a `match`
    /// there became a chain of selects at each one.
    pub fn kind(self) -> &'static str {
        const KINDS: [&str; 4] = ["int", "float", "ref", "null"];
        KINDS[match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Ref(_) => 2,
            Value::Null => 3,
        }]
    }
}

impl Default for Value {
    /// The default value is `Int(0)`, matching the JVM's zero-initialised
    /// locals.
    fn default() -> Self {
        Value::Int(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ref(r) => write!(f, "{r}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// An item emitted by the `print_i`/`print_f` intrinsics when output
/// capture is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputItem {
    /// Printed integer.
    Int(i64),
    /// Printed float.
    Float(f64),
}

impl fmt::Display for OutputItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputItem::Int(v) => write!(f, "{v}"),
            OutputItem::Float(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_succeeds_on_matching_type() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Float(1.5).as_float().unwrap(), 1.5);
        let r = RefId(3);
        assert_eq!(Value::Ref(r).as_ref_id().unwrap(), r);
    }

    #[test]
    fn extraction_fails_with_type_error() {
        assert!(matches!(
            Value::Float(1.0).as_int(),
            Err(VmError::TypeError {
                expected: "int",
                ..
            })
        ));
        assert!(matches!(
            Value::Int(1).as_float(),
            Err(VmError::TypeError { .. })
        ));
        assert!(matches!(Value::Null.as_ref_id(), Err(VmError::NullPointer)));
        assert!(matches!(
            Value::Int(0).as_ref_id(),
            Err(VmError::TypeError { .. })
        ));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Int(0).kind(), "int");
        assert_eq!(Value::Null.kind(), "null");
    }

    #[test]
    fn default_is_zero_int() {
        assert_eq!(Value::default(), Value::Int(0));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Ref(RefId(4)).to_string(), "@4");
        assert_eq!(OutputItem::Int(1).to_string(), "1");
    }
}
