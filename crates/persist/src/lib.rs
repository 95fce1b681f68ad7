//! # trace-persist
//!
//! Persistent profile and trace-cache snapshots: the cross-process,
//! cross-restart form of the warm cache. A deployment snapshots a
//! warmed VM's branch-correlation profile and trace-cache contents into
//! a versioned, checksummed binary container; new VM fleets boot from
//! it instead of re-measuring the same program from scratch.
//!
//! The container is hand-rolled (no serialization dependency, like the
//! rest of the repo) and deliberately paranoid:
//!
//! * an 8-byte magic (with embedded CR/LF to catch text-mode mangling),
//!   a version field, a flags field, and an FNV-1a 64 **program hash**
//!   guard the header — a snapshot taken against different bytecode is
//!   rejected as stale, never silently merged;
//! * each of the three sections (BCG profile, cache contents,
//!   quarantine blacklist) carries its own CRC-32, so any payload
//!   corruption is caught before a single field is interpreted;
//! * the decoder is strict-bounds and total: malformed input of any
//!   kind — truncation, bit flips, swapped sections, hostile length
//!   fields, out-of-range values — yields a [`SnapshotError`], never a
//!   panic and never partial state (decoding builds a pure value that
//!   is applied only after full validation).
//!
//! The engine wires this into two operations (see `trace-exec`):
//! `snapshot` dumps a warmed VM, and `load_snapshot` (warm boot) loads
//! and **merges** a snapshot into a live profiler (stale counts age out
//! under the normal decay discipline rather than pinning predictions),
//! restores the cache contents and pre-builds the traces' artifacts
//! before serving.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cursor;
pub mod error;
pub mod hash;
pub mod snapshot;

pub use cache::{CacheImage, QuarantineImage, RestoreReport, TraceImage};
pub use error::SnapshotError;
pub use hash::{crc32, program_hash};
pub use snapshot::{
    Snapshot, SnapshotReader, SnapshotWriter, MAGIC, SECTION_BCG, SECTION_CACHE,
    SECTION_QUARANTINE, SNAPSHOT_VERSION,
};
