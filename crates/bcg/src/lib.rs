//! # trace-bcg
//!
//! The **branch correlation graph** (BCG) profiler — the first half of the
//! paper's contribution (§3.5, §4.1).
//!
//! The BCG is "effectively a depth one per address history table": for
//! every pair of basic blocks `(X, Y)` executed in sequence there is a node
//! `N_XY` (the *branch* from `X` to `Y`), and for every sequence
//! `(X, Y, Z)` a directed edge `E_XYZ` from `N_XY` to `N_YZ` whose 16-bit
//! counter measures how often branch `(Y, Z)` followed branch `(X, Y)`.
//!
//! Three mechanisms from the paper are implemented faithfully:
//!
//! * **Start-state delay** (§3.3): a new node starts `NewlyCreated` and
//!   must execute `start_delay` times before it can enter a trace — this
//!   filters rarely executed code like Whaley's not-rare flags.
//! * **Periodic decay** (§4.1.1): every `decay_interval` (256) executions
//!   of a node, all its edge counters are shifted right one bit, weighting
//!   the statistics toward recent behaviour; the maximally-correlated
//!   successor and the node state are re-checked at each decay and a
//!   [`Signal`] is raised if either changed.
//! * **Inline-cache profiler hook** (§4.1.2): each node caches its
//!   predicted successor edge, and each edge carries the index of its
//!   target node, so the per-dispatch fast path is two comparisons and a
//!   counter bump with no hashing.
//!
//! # Example
//!
//! ```
//! use jvm_bytecode::{BlockId, FuncId};
//! use trace_bcg::{BranchCorrelationGraph, BcgConfig, NodeState};
//!
//! let mut bcg = BranchCorrelationGraph::new(BcgConfig {
//!     start_delay: 4,
//!     ..BcgConfig::default()
//! });
//! let a = BlockId::new(FuncId(0), 0);
//! let b = BlockId::new(FuncId(0), 1);
//! // Feed a tight A->B->A->B ... stream.
//! for _ in 0..64 {
//!     bcg.observe(a);
//!     bcg.observe(b);
//! }
//! let node = bcg.node_index((a, b)).unwrap();
//! assert_eq!(bcg.node(node).state(), NodeState::Unique);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod dot;
pub mod graph;
pub mod image;
pub mod node;
pub mod signal;
pub mod state;
pub mod stats;
pub mod table;

pub use config::{BcgConfig, DECAY_SHIFT};
pub use graph::{BranchCorrelationGraph, NodeIdx};
pub use image::{BcgImage, ImageError, MergeStats, NodeImage, SuccessorImage};
pub use node::{Node, Successor};
pub use signal::{Signal, SignalKind};
pub use state::NodeState;
pub use stats::ProfilerStats;
pub use table::{BranchHasher, BranchMap, BranchSet, PackedBranch};

/// A branch: an ordered pair of consecutively executed blocks. `(X, Y)`
/// identifies the BCG node `N_XY`.
pub type Branch = (jvm_bytecode::BlockId, jvm_bytecode::BlockId);
