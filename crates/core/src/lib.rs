//! # trace-jit
//!
//! The integrated system of the paper: a direct-threaded-inlining-style
//! interpreter ([`jvm_vm`]) whose dispatch hook drives the branch
//! correlation graph profiler ([`trace_bcg`]), whose signals drive the
//! trace constructor and cache ([`trace_cache`]), whose linked traces are
//! monitored by the trace-dispatch runtime — all wired together by
//! [`TraceVm`].
//!
//! [`TraceVm`] is the one harness that runs a trace-selection policy
//! under that monitor ([`selector`]): the paper's BCG by default, or one
//! of the two baselines the paper positions itself against, Dynamo-style
//! NET ([`net`]) and rePLay-style promotion ([`replay`]). Beside it sit
//! the wall-clock overhead model ([`overhead`], Tables VI–VII) and
//! plain-text table rendering ([`tables`]) used to regenerate every
//! table and figure of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use jvm_bytecode::{ProgramBuilder, CmpOp};
//! use trace_jit::{TraceVm, TraceJitConfig};
//! use jvm_vm::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A hot countdown loop.
//! let mut pb = ProgramBuilder::new();
//! let f = pb.declare_function("main", 1, true);
//! let b = pb.function_mut(f);
//! let acc = b.alloc_local();
//! b.iconst(0).store(acc);
//! let head = b.bind_new_label();
//! let exit = b.new_label();
//! b.load(0).if_i(CmpOp::Le, exit);
//! b.load(acc).load(0).iadd().store(acc);
//! b.iinc(0, -1).goto(head);
//! b.bind(exit);
//! b.load(acc).ret();
//! let program = pb.build(f)?;
//!
//! let mut tvm = TraceVm::new(&program, TraceJitConfig::paper_default());
//! let report = tvm.run(&[Value::Int(10_000)])?;
//! assert_eq!(report.result, Some(Value::Int(50_005_000)));
//! // The loop is hot and predictable: most of the stream runs from traces.
//! assert!(report.coverage_incl_partial() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod net;
pub mod overhead;
pub mod replay;
pub mod report;
pub mod selector;
pub mod tables;
pub mod tracevm;

pub use config::TraceJitConfig;
pub use net::NetSelector;
pub use overhead::{measure_overhead, OverheadMeasurement};
pub use replay::ReplaySelector;
pub use report::RunReport;
pub use selector::{BcgSelector, TraceSelector};
pub use tracevm::TraceVm;
