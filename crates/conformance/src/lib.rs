//! Model-based conformance harness for the trace-cache workspace.
//!
//! The production profiler ([`trace_bcg`]) and trace cache
//! ([`trace_cache`]) are heavily engineered: budgeted fast paths,
//! deferred counter settlement, hash-consed trace objects, inline
//! version-stamped trace links. This crate re-derives the *naive*
//! semantics straight from the paper (Berndl & Hendren, CGO 2003) as an
//! executable model — allocation-happy, `HashMap`-keyed, no fast paths —
//! and checks the optimised systems against it in lockstep on every
//! dispatched block.
//!
//! Three layers:
//!
//! * [`model`] — the executable paper model: BCG node lifecycle with
//!   the 256-execution decay, start-state delay, completion-threshold
//!   signalling, plus a model trace constructor and cache. Supports
//!   deliberately planted [`model::Quirk`]s for testing the tester.
//! * [`lockstep`] + [`invariants`] — the comparison harness feeding
//!   both systems the same block stream and diffing node states,
//!   signals, caches, and links after every event; plus externally
//!   checkable structural invariants (and, under the
//!   `debug-invariants` feature, in-situ asserts inside the production
//!   crates).
//! * [`chaos`] + [`genprog`] — deterministic chaos campaigns replaying
//!   generated fuzz programs under injected perturbations (forced decay
//!   ticks, signal reordering, cache pressure, mid-trace invalidation,
//!   construction-queue overload, budget pressure, trace quarantine,
//!   duplicated batches), optionally under the harness's
//!   deferred-construction mode, with per-case seeds, AST shrinking of
//!   failures, and a saved corpus replayed in CI.
//! * [`faults`] — engine-level fault injection: a real [`trace_exec`]
//!   shared deployment (budgeted cache + supervised constructor) driven
//!   under a deterministic [`trace_cache::FaultPlan`], with the plain
//!   interpreter as the result oracle.
//! * [`snapshot`] — hostile-input conformance for the persistence
//!   boundary: a seeded mutation campaign (bit flips, truncations,
//!   section swaps, length-field rewrites) over valid snapshot
//!   containers, plus a warm-boot semantic oracle. The planted
//!   [`Quirk::StaleSnapshotAccepted`] proves the campaign catches a
//!   reader that silently accepts cross-program snapshots.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod faults;
pub mod genprog;
pub mod invariants;
pub mod lockstep;
pub mod model;
pub mod snapshot;

pub use chaos::{run_campaign, run_case, ChaosConfig, CorpusCase, Perturbation};
pub use faults::{run_fault_case, FaultCaseReport};
pub use lockstep::{Divergence, Lockstep};
pub use model::{ModelBcg, Quirk};
pub use snapshot::{
    must_reject, reader_with_quirk, run_snapshot_campaign, run_warm_boot_case, stale_hash_mutants,
    CampaignReport, Mutation, WarmBootCaseReport,
};
