//! Model-based conformance harness for the trace-cache workspace.
//!
//! The production profiler ([`trace_bcg`]) and trace cache
//! ([`trace_cache`]) are heavily engineered: an inline-cache fast path,
//! packed branch keys, hash-consed trace objects, inline version-stamped
//! trace links. This crate re-derives the *naive*
//! semantics straight from the paper (Berndl & Hendren, CGO 2003) as an
//! executable model — allocation-happy, `HashMap`-keyed, no fast paths —
//! and checks the optimised systems against it in lockstep on every
//! dispatched block.
//!
//! Three layers:
//!
//! * [`model`] — the executable paper model: BCG node lifecycle with
//!   the 256-execution decay, start-state delay, completion-threshold
//!   signalling and every profiler counter, plus a model trace
//!   constructor and cache — the profiler's and the cache's only
//!   oracle. Supports deliberately planted [`model::Quirk`]s for
//!   testing the tester.
//! * [`lockstep`] + [`invariants`] — the comparison harness feeding
//!   both systems the same block stream and diffing node states,
//!   signals, caches, and links after every event; plus externally
//!   checkable structural invariants (and, under the
//!   `debug-invariants` feature, in-situ asserts inside the production
//!   crates).
//! * [`chaos`] + [`genprog`] — deterministic chaos campaigns replaying
//!   generated fuzz programs under injected perturbations (forced decay
//!   ticks, signal reordering, cache pressure, mid-trace invalidation,
//!   trace quarantine, duplicated batches, phase shifts), with
//!   per-case seeds, AST shrinking of failures, and a saved corpus
//!   replayed in CI.
//! * [`snapshot`] — hostile-input conformance for the persistence
//!   boundary: a seeded mutation campaign (bit flips, truncations,
//!   section swaps, length-field rewrites) over valid snapshot
//!   containers. The planted [`Quirk::StaleSnapshotAccepted`] proves the
//!   campaign catches a reader that silently accepts cross-program
//!   snapshots.
//! * [`matrix`] — the differential matrix: every VM configuration
//!   (plain, fused, monitor, engine, never-entering, warm-booted,
//!   baseline selectors) on every source (the six workloads,
//!   the phase-shift variants, a `genprog` corpus) against one
//!   reference-interpreter oracle, with located divergences.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod genprog;
pub mod invariants;
pub mod lockstep;
pub mod matrix;
pub mod model;
pub mod snapshot;

pub use chaos::{run_campaign, run_case, ChaosConfig, CorpusCase, Perturbation};
pub use lockstep::{Divergence, Lockstep};
pub use model::{ModelBcg, Quirk};
pub use snapshot::{
    must_reject, reader_with_quirk, run_snapshot_campaign, stale_hash_mutants, CampaignReport,
    Mutation,
};
