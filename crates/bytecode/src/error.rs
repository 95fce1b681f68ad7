//! Error types for program construction and verification.

use std::error::Error;
use std::fmt;

use crate::ids::{FuncId, ID_LIMIT};
use crate::verifier::VerifyError;

/// Error raised while assembling a program with [`crate::ProgramBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was used as a branch target but never bound to a position.
    UnboundLabel {
        /// Function being assembled.
        func: String,
        /// Label index.
        label: u32,
    },
    /// A label was bound more than once.
    RebindLabel {
        /// Function being assembled.
        func: String,
        /// Label index.
        label: u32,
    },
    /// A declared function was never given a body.
    MissingBody {
        /// The declared-but-undefined function.
        func: String,
    },
    /// The entry function id does not exist.
    BadEntry {
        /// Offending id.
        func: FuncId,
    },
    /// The program has more than [`ID_LIMIT`] functions (`func` is
    /// `None`), or function `func` more than [`ID_LIMIT`] basic blocks.
    TooLarge {
        /// The function with too many blocks, if that is the excess.
        func: Option<String>,
        /// The function or block count over the limit.
        count: usize,
    },
    /// A function failed verification.
    Verify(VerifyError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel { func, label } => {
                write!(f, "label L{label} in function `{func}` was never bound")
            }
            BuildError::RebindLabel { func, label } => {
                write!(f, "label L{label} in function `{func}` bound twice")
            }
            BuildError::MissingBody { func } => {
                write!(f, "function `{func}` was declared but has an empty body")
            }
            BuildError::BadEntry { func } => {
                write!(f, "entry function {func} does not exist")
            }
            BuildError::TooLarge { func: None, count } => {
                write!(f, "{count} functions (at most {ID_LIMIT} are supported)")
            }
            BuildError::TooLarge {
                func: Some(func),
                count,
            } => write!(
                f,
                "function `{func}` has {count} basic blocks (at most {ID_LIMIT} are supported)"
            ),
            BuildError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerifyError> for BuildError {
    fn from(e: VerifyError) -> Self {
        BuildError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::VerifyError;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildError::UnboundLabel {
            func: "f".into(),
            label: 3,
        };
        assert_eq!(e.to_string(), "label L3 in function `f` was never bound");
        let e = BuildError::MissingBody { func: "g".into() };
        assert!(e.to_string().contains("`g`"));
    }

    #[test]
    fn verify_error_wraps_with_source() {
        let inner = VerifyError::StackUnderflow {
            func: "f".into(),
            pc: 2,
        };
        let e = BuildError::from(inner.clone());
        assert!(e.to_string().contains("verification failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
