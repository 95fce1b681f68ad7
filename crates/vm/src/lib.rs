//! # jvm-vm
//!
//! A stack-based interpreter for [`jvm_bytecode`] programs with
//! **basic-block dispatch accounting**, the execution substrate for the
//! trace-cache reproduction.
//!
//! The paper's SableVM baseline is a *direct-threaded-inlining* interpreter
//! (Piumarta & Riccardi): each basic block is inlined into one straight
//! run of native code ending in dispatch code, so the interpreter performs
//! exactly **one dispatch per basic block executed** (Figure 2 of the
//! paper), versus one per instruction for a plain interpreter (Figure 1).
//! This VM models that cost structure: it executes instructions with a
//! `match` dispatch loop, counts every instruction executed (the Figure 1
//! dispatch count) and every basic-block entry (the Figure 2 dispatch
//! count), and reports both in [`ExecStats`].
//!
//! Every basic-block entry is also surfaced through the
//! [`DispatchObserver`] hook — this is where the paper's profiler attaches
//! ("the profiler works by augmenting the dispatch code", §4).
//!
//! # Example
//!
//! ```
//! use jvm_bytecode::ProgramBuilder;
//! use jvm_vm::{Vm, Value, NullObserver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new();
//! let f = pb.declare_function("add", 2, true);
//! pb.function_mut(f).load(0).load(1).iadd().ret();
//! let program = pb.build(f)?;
//!
//! let mut vm = Vm::new(&program);
//! let result = vm.run(&[Value::Int(2), Value::Int(40)], &mut NullObserver)?;
//! assert_eq!(result, Some(Value::Int(42)));
//! assert_eq!(vm.stats().block_dispatches, 1);
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod decode;
pub mod dispatch;
pub mod driver;
pub mod error;
pub mod frame;
pub mod fuse;
pub mod heap;
pub mod interp;
pub mod observer;
pub mod reference;
pub mod semantics;
pub mod stats;
pub mod value;

pub use arena::{FrameArena, FrameInfo};
pub use decode::{DOp, DecodedFunction, DecodedMemory, DecodedProgram};
pub use dispatch::DispatchCounts;
pub use driver::{BlockDriver, Machine};
pub use error::VmError;
pub use fuse::{BlockCounts, FuseQuirk, FusionConfig, FusionPlan, FusionProfile, FusionReport};
pub use heap::{Heap, HeapObj};
pub use interp::{fold_checksum, Vm, VmConfig};
pub use observer::{DispatchObserver, NullObserver, RecordingObserver};
pub use reference::ReferenceVm;
pub use stats::ExecStats;
pub use value::{OutputItem, RefId, Value};
