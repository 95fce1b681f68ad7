//! # tracecache-repro
//!
//! A from-scratch Rust reproduction of **"Dynamic Profiling and Trace
//! Cache Generation for a Java Virtual Machine"** (Berndl & Hendren,
//! CGO 2003): a branch-correlation-graph profiler and signal-driven trace
//! cache for a direct-threaded-inlining bytecode interpreter.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`bytecode`] — the JVM-like instruction set, assembler, verifier and
//!   CFG substrate;
//! * [`vm`] — the interpreter with basic-block dispatch accounting;
//! * [`bcg`] — the branch correlation graph profiler (paper §3.5/§4.1);
//! * [`tracecache`] — the trace constructor, cache and dispatch monitor
//!   (paper §3.6–§4.2);
//! * [`jit`] — the integrated trace-dispatching VM, the one harness that
//!   runs a trace selector under the dispatch monitor: the paper's BCG,
//!   or Dynamo-style NET and rePLay-style selection for comparison
//!   (paper §2);
//! * [`workloads`] — the six benchmark analogues (paper §5.1);
//! * [`exec`] — the paper's stated future work (§6): compiled, guarded
//!   trace execution with side exits, retiring exactly the
//!   interpreter's instruction sequence;
//! * [`conformance`] — the model-based conformance harness: an
//!   executable, deliberately naive transcription of the paper's BCG and
//!   trace-cutting rules checked in lockstep against the optimised
//!   implementations, plus deterministic chaos campaigns.
//!
//! # Quickstart
//!
//! ```
//! use tracecache_repro::jit::{TraceVm, TraceJitConfig};
//! use tracecache_repro::workloads::{registry, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = registry::compress(Scale::Test);
//! let mut tvm = TraceVm::new(&w.program, TraceJitConfig::paper_default());
//! let report = tvm.run(&w.args)?;
//! assert_eq!(report.checksum, w.expected_checksum);
//! println!("coverage {:.1}%  completion {:.1}%  avg trace {:.1} blocks",
//!          100.0 * report.coverage_completed(),
//!          100.0 * report.completion_rate(),
//!          report.avg_trace_length());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use jvm_bytecode as bytecode;
pub use jvm_vm as vm;
pub use trace_bcg as bcg;
pub use trace_cache as tracecache;
pub use trace_conformance as conformance;
pub use trace_exec as exec;
pub use trace_jit as jit;
pub use trace_persist as persist;
pub use trace_workloads as workloads;
