//! # jvm-bytecode
//!
//! A JVM-like bytecode substrate: a stack-based instruction set, a program
//! model (functions, classes with vtables), a label-based assembler
//! ([`ProgramBuilder`]/[`FunctionBuilder`]), a structural + type
//! [`verifier`], and basic-block [`cfg`](mod@cfg) construction.
//!
//! This crate is the substrate for the reproduction of *"Dynamic Profiling
//! and Trace Cache Generation for a Java Virtual Machine"* (CGO 2003). The
//! paper's algorithms observe the dynamic **basic-block transition stream**
//! of a direct-threaded-inlining interpreter, so the essential features this
//! substrate must provide are:
//!
//! * data-dependent conditional branches (`if_icmp` and friends),
//! * multi-way branches (`tableswitch`),
//! * static and **virtual** calls (Java's polymorphism is the reason the
//!   paper rejects plain Dynamo-style speculation), and
//! * a well-defined partition of every function into basic blocks, with one
//!   interpreter *dispatch* per block executed.
//!
//! # Example
//!
//! ```
//! use jvm_bytecode::{ProgramBuilder, CmpOp};
//!
//! # fn main() -> Result<(), jvm_bytecode::BuildError> {
//! let mut pb = ProgramBuilder::new();
//! let f = pb.declare_function("triple_sum", 1, true);
//! {
//!     let b = pb.function_mut(f);
//!     // sum = 0; for i in 0..n { sum += 3*i }
//!     let sum = b.alloc_local();
//!     let i = b.alloc_local();
//!     b.iconst(0).store(sum).iconst(0).store(i);
//!     let head = b.bind_new_label();
//!     let exit = b.new_label();
//!     b.load(i).load(0).if_icmp(CmpOp::Ge, exit);
//!     b.load(sum).iconst(3).load(i).imul().iadd().store(sum);
//!     b.iinc(i, 1).goto(head);
//!     b.bind(exit);
//!     b.load(sum).ret();
//! }
//! let program = pb.build(f)?;
//! assert!(program.function(f).block_count() >= 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod class;
pub mod disasm;
pub mod error;
pub mod function;
pub mod ids;
pub mod instr;
pub mod program;
pub mod verifier;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use cfg::{Block, TerminatorKind};
pub use class::Class;
pub use error::BuildError;
pub use function::Function;
pub use ids::{BlockId, ClassId, FuncId, Label, ID_LIMIT};
pub use instr::{CmpOp, Instr, Intrinsic};
pub use program::{fnv1a64, Program};
pub use verifier::VerifyError;
