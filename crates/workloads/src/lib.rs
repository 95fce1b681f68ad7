//! # trace-workloads
//!
//! Six synthetic benchmark programs written in [`jvm_bytecode`], mirroring
//! the branch character of the paper's benchmark suite (§5.1):
//!
//! | paper benchmark | analogue | branch character |
//! |---|---|---|
//! | SPECjvm `compress` | [`compress`]: LZW-style dictionary compressor | long regular loops with data-dependent dictionary probes |
//! | SPECjvm `javac` | [`javac`]: lexer + recursive-descent parser over generated source | irregular, switch-heavy, recursive — "traditionally one of the more challenging benchmarks" |
//! | SPECjvm `raytrace` | [`raytrace`]: fixed-point ray/sphere intersection | regular pixel loops with hit/miss conditionals |
//! | SPECjvm `mpegaudio` | [`mpegaudio`]: fixed-point filter bank + windowing | extremely regular DSP loops |
//! | `soot` | [`soot`]: worklist dataflow solver over a random CFG with polymorphic transfer functions | large, irregular, virtual-call heavy |
//! | `scimark` | [`scimark`]: SOR + Monte Carlo + sparse mat-vec kernels | extremely regular scientific loops |
//!
//! Every workload generates its own input data **inside the program** with
//! a seeded 64-bit LCG, so runs are bit-deterministic with no host data
//! transfer, and every workload ships a Rust *reference implementation*
//! that replays the identical arithmetic to predict the checksum the
//! program's `checksum` intrinsics will accumulate — the correctness
//! oracle for the interpreter, the trace machinery, and the benches.
//!
//! # Example
//!
//! ```
//! use trace_workloads::{Scale, registry};
//! use jvm_vm::{Vm, NullObserver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = registry::compress(Scale::Test);
//! let mut vm = Vm::new(&w.program);
//! vm.run(&w.args, &mut NullObserver)?;
//! assert_eq!(vm.checksum(), w.expected_checksum);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod compress;
pub mod javac;
pub mod lcg;
pub mod mpegaudio;
pub mod phase_shift;
pub mod prng;
pub mod raytrace;
pub mod registry;
pub mod scimark;
pub mod soot;
pub mod util;

pub use registry::{Scale, Workload};
