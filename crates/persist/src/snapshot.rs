//! The snapshot container format and its reader/writer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   := magic[8] version:u32 flags:u32 program_hash:u64
//! section  := tag:u32 payload_len:u64 payload[payload_len] crc32:u32
//! snapshot := header bcg_section cache_section quarantine_section
//! ```
//!
//! The three sections are required and appear in that fixed order; each
//! payload carries its own CRC-32, so any payload mutation is caught
//! before a single field is interpreted, and header-field mutations are
//! caught by the magic/version/flags/program-hash checks. The decoder
//! is strict: unknown flags, out-of-order sections, truncation at any
//! byte, trailing bytes inside or after a section, and any out-of-range
//! field value all yield a [`SnapshotError`] — never a panic, and never
//! a partially-applied snapshot (decoding builds a pure value; nothing
//! is applied until the whole snapshot validated).

use jvm_bytecode::BlockId;
use trace_bcg::{
    BcgImage, BranchCorrelationGraph, NodeImage, NodeState, PackedBranch, SuccessorImage,
};
use trace_cache::TraceCache;

use crate::cache::{CacheImage, QuarantineImage, TraceImage};
use crate::cursor::{ByteWriter, Cursor};
use crate::error::SnapshotError;
use crate::hash::crc32;

/// Snapshot magic: identifies the format and — via the embedded CR/LF —
/// catches text-mode line-ending mangling, like PNG's.
pub const MAGIC: [u8; 8] = *b"TCSNAP\r\n";

/// The format version this build writes and reads. Version 2 dropped the
/// cache section's payload budget (a flag byte and a `u64`).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Section tag of the BCG profile table ("BCG1").
pub const SECTION_BCG: u32 = 0x3147_4342;
/// Section tag of the trace-cache contents ("CAC1").
pub const SECTION_CACHE: u32 = 0x3143_4143;
/// Section tag of the quarantine blacklist ("QUA1").
pub const SECTION_QUARANTINE: u32 = 0x3141_5551;

/// A fully-decoded (or to-be-encoded) snapshot: pure data, nothing
/// applied to any VM yet.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// FNV-1a 64 hash of the program this profile was measured against.
    pub program_hash: u64,
    /// The profiler state.
    pub bcg: BcgImage,
    /// The trace-cache contents.
    pub cache: CacheImage,
}

impl Snapshot {
    /// Captures a warmed VM's profiler and cache under `program_hash`.
    pub fn capture(program_hash: u64, bcg: &BranchCorrelationGraph, cache: &TraceCache) -> Self {
        Snapshot {
            program_hash,
            bcg: trace_bcg::image::export(bcg),
            cache: CacheImage::capture(cache),
        }
    }

    /// Serializes with [`SnapshotWriter`].
    pub fn to_bytes(&self) -> Vec<u8> {
        SnapshotWriter::write(self)
    }
}

/// Serializes a [`Snapshot`] into the versioned, checksummed container.
pub struct SnapshotWriter;

impl SnapshotWriter {
    /// Encodes `snapshot`. The encoding is canonical: equal snapshots
    /// produce equal bytes.
    pub fn write(snapshot: &Snapshot) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u32(0); // flags: none defined
        w.put_u64(snapshot.program_hash);
        put_section(&mut w, SECTION_BCG, encode_bcg(&snapshot.bcg));
        put_section(&mut w, SECTION_CACHE, encode_cache(&snapshot.cache));
        put_section(
            &mut w,
            SECTION_QUARANTINE,
            encode_quarantine(&snapshot.cache),
        );
        w.into_bytes()
    }
}

/// Decodes and validates snapshot bytes.
///
/// The default reader enforces the program-hash staleness check;
/// [`SnapshotReader::skipping_program_hash`] disables only that check
/// and exists for the conformance harness's planted
/// `StaleSnapshotAccepted` quirk — the hostile-input campaign proves it
/// would let a cross-program snapshot through silently.
#[derive(Debug, Clone, Default)]
pub struct SnapshotReader {
    skip_program_hash: bool,
}

impl SnapshotReader {
    /// A strict reader (all checks on).
    pub fn new() -> Self {
        Self::default()
    }

    /// A reader with the program-hash staleness check **disabled**. Do
    /// not use outside tests: a stale profile silently steers trace
    /// construction for a different program.
    pub fn skipping_program_hash() -> Self {
        SnapshotReader {
            skip_program_hash: true,
        }
    }

    /// Decodes `bytes`, checking magic, version, flags, the staleness
    /// hash against `expected_program_hash`, each section's order and
    /// CRC, strict bounds on every field, and the semantic validity of
    /// the cache image. BCG-level semantic validation happens when the
    /// image is imported or merged (the graph validates before touching
    /// any state).
    pub fn read(
        &self,
        bytes: &[u8],
        expected_program_hash: u64,
    ) -> Result<Snapshot, SnapshotError> {
        let mut c = Cursor::new(bytes, "header");
        if c.read_bytes(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.read_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let flags = c.read_u32()?;
        if flags != 0 {
            return Err(SnapshotError::UnsupportedFlags { found: flags });
        }
        let program_hash = c.read_u64()?;
        if !self.skip_program_hash && program_hash != expected_program_hash {
            return Err(SnapshotError::StaleProgram {
                expected: expected_program_hash,
                found: program_hash,
            });
        }
        let bcg = decode_bcg(take_section(&mut c, SECTION_BCG, "bcg")?)?;
        let mut cache = decode_cache(take_section(&mut c, SECTION_CACHE, "cache")?)?;
        cache.quarantine =
            decode_quarantine(take_section(&mut c, SECTION_QUARANTINE, "quarantine")?)?;
        if c.remaining() > 0 {
            return Err(SnapshotError::TrailingBytes {
                section: "snapshot",
                extra: c.remaining(),
            });
        }
        cache.validate()?;
        Ok(Snapshot {
            program_hash,
            bcg,
            cache,
        })
    }
}

fn put_section(w: &mut ByteWriter, tag: u32, payload: Vec<u8>) {
    w.put_u32(tag);
    w.put_u64(payload.len() as u64);
    w.put_bytes(&payload);
    w.put_u32(crc32(&payload));
}

/// Reads one section envelope in order: tag must match, length must be
/// in bounds, CRC must verify. Returns the payload bytes.
fn take_section<'a>(
    c: &mut Cursor<'a>,
    expected_tag: u32,
    name: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let tag = c.read_u32()?;
    if tag != expected_tag {
        return Err(SnapshotError::UnexpectedSection {
            found: tag,
            expected: expected_tag,
        });
    }
    let len = c.read_u64()?;
    // +4 for the trailing CRC that must also still be present.
    if len.saturating_add(4) > c.remaining() as u64 {
        return Err(SnapshotError::Truncated { at: name });
    }
    let payload = c.read_bytes(len as usize)?;
    let stored = c.read_u32()?;
    if crc32(payload) != stored {
        return Err(SnapshotError::ChecksumMismatch { section: name });
    }
    Ok(payload)
}

fn put_block(w: &mut ByteWriter, b: BlockId) {
    w.put_u32(b.func.0);
    w.put_u32(b.block);
}

/// Reads one block id. An id the branch-key packer cannot hold is
/// refused here: no live graph or cache ever holds one, and the merge
/// and the cache restore would panic on it.
fn read_block(c: &mut Cursor<'_>) -> Result<BlockId, SnapshotError> {
    let func = c.read_u32()?;
    let block = c.read_u32()?;
    if func >= PackedBranch::ID_LIMIT || block >= PackedBranch::ID_LIMIT {
        return Err(SnapshotError::Malformed {
            section: c.section(),
            detail: format!("block id ({func}, {block}) outside the 16-bit id range"),
        });
    }
    Ok(BlockId::new(jvm_bytecode::FuncId(func), block))
}

fn state_code(state: NodeState) -> u8 {
    match state {
        NodeState::NewlyCreated => 0,
        NodeState::Unique => 1,
        NodeState::Strong => 2,
        NodeState::Weak => 3,
    }
}

fn decode_state(code: u8) -> Result<NodeState, SnapshotError> {
    Ok(match code {
        0 => NodeState::NewlyCreated,
        1 => NodeState::Unique,
        2 => NodeState::Strong,
        3 => NodeState::Weak,
        _ => {
            return Err(SnapshotError::Malformed {
                section: "bcg",
                detail: format!("invalid node state code {code}"),
            })
        }
    })
}

fn encode_bcg(image: &BcgImage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(image.nodes.len() as u32);
    for n in &image.nodes {
        put_block(&mut w, n.branch.0);
        put_block(&mut w, n.branch.1);
        w.put_u8(state_code(n.state));
        w.put_u64(n.executions);
        w.put_u32(n.delay_remaining);
        w.put_u32(n.since_decay);
        w.put_u16(n.successors.len() as u16);
        for s in &n.successors {
            put_block(&mut w, s.to_block);
            w.put_u16(s.count);
        }
    }
    w.into_bytes()
}

/// Minimum encoded size of a node (empty successor list).
const NODE_MIN: usize = 16 + 1 + 8 + 4 + 4 + 2;
/// Encoded size of one successor edge.
const SUCC_SIZE: usize = 8 + 2;

fn decode_bcg(payload: &[u8]) -> Result<BcgImage, SnapshotError> {
    let mut c = Cursor::new(payload, "bcg");
    let node_count = c.read_count(NODE_MIN)?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let branch = (read_block(&mut c)?, read_block(&mut c)?);
        let state = decode_state(c.read_u8()?)?;
        let executions = c.read_u64()?;
        let delay_remaining = c.read_u32()?;
        let since_decay = c.read_u32()?;
        let succ_count = c.read_u16()? as usize;
        if succ_count * SUCC_SIZE > c.remaining() {
            return Err(SnapshotError::Truncated { at: "bcg" });
        }
        let mut successors = Vec::with_capacity(succ_count);
        for _ in 0..succ_count {
            let to_block = read_block(&mut c)?;
            let count = c.read_u16()?;
            successors.push(SuccessorImage { to_block, count });
        }
        nodes.push(NodeImage {
            branch,
            state,
            executions,
            delay_remaining,
            since_decay,
            successors,
        });
    }
    c.finish()?;
    Ok(BcgImage { nodes })
}

fn encode_cache(image: &CacheImage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(image.traces.len() as u32);
    for t in &image.traces {
        w.put_u64(t.completion_bits);
        w.put_u32(t.blocks.len() as u32);
        for &b in &t.blocks {
            put_block(&mut w, b);
        }
    }
    w.put_u32(image.links.len() as u32);
    for &(entry, index) in &image.links {
        put_block(&mut w, entry.0);
        put_block(&mut w, entry.1);
        w.put_u32(index);
    }
    w.into_bytes()
}

/// Minimum encoded size of a trace (empty block list — rejected later
/// by validation, but the bound must hold for hostile counts too).
const TRACE_MIN: usize = 8 + 4;
/// Encoded size of one link.
const LINK_SIZE: usize = 16 + 4;

fn decode_cache(payload: &[u8]) -> Result<CacheImage, SnapshotError> {
    let mut c = Cursor::new(payload, "cache");
    let trace_count = c.read_count(TRACE_MIN)?;
    let mut traces = Vec::with_capacity(trace_count);
    for _ in 0..trace_count {
        let completion_bits = c.read_u64()?;
        let block_count = c.read_count(8)?;
        let mut blocks = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            blocks.push(read_block(&mut c)?);
        }
        traces.push(TraceImage {
            completion_bits,
            blocks,
        });
    }
    let link_count = c.read_count(LINK_SIZE)?;
    let mut links = Vec::with_capacity(link_count);
    for _ in 0..link_count {
        let entry = (read_block(&mut c)?, read_block(&mut c)?);
        let index = c.read_u32()?;
        links.push((entry, index));
    }
    c.finish()?;
    Ok(CacheImage {
        traces,
        links,
        quarantine: Vec::new(),
    })
}

fn encode_quarantine(image: &CacheImage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(image.quarantine.len() as u32);
    for q in &image.quarantine {
        put_block(&mut w, q.entry.0);
        put_block(&mut w, q.entry.1);
        w.put_u32(q.cooldown);
        w.put_u32(q.blocks.len() as u32);
        for &b in &q.blocks {
            put_block(&mut w, b);
        }
    }
    w.into_bytes()
}

/// Minimum encoded size of a quarantine entry (empty path — rejected by
/// validation).
const QUAR_MIN: usize = 16 + 4 + 4;

fn decode_quarantine(payload: &[u8]) -> Result<Vec<QuarantineImage>, SnapshotError> {
    let mut c = Cursor::new(payload, "quarantine");
    let count = c.read_count(QUAR_MIN)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let entry = (read_block(&mut c)?, read_block(&mut c)?);
        let cooldown = c.read_u32()?;
        let block_count = c.read_count(8)?;
        let mut blocks = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            blocks.push(read_block(&mut c)?);
        }
        out.push(QuarantineImage {
            entry,
            blocks,
            cooldown,
        });
    }
    c.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::FuncId;
    use trace_bcg::BcgConfig;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    fn warmed_snapshot() -> Snapshot {
        let mut bcg = BranchCorrelationGraph::new(BcgConfig::default().with_start_delay(4));
        for i in 0..600 {
            bcg.observe(blk(0));
            bcg.observe(blk(1));
            bcg.observe(blk(if i % 12 == 11 { 3 } else { 2 }));
        }
        let mut cache = TraceCache::new();
        cache.insert_and_link((blk(2), blk(0)), &[blk(0), blk(1), blk(2)], 0.92);
        cache.insert_and_link((blk(3), blk(0)), &[blk(0), blk(1), blk(2)], 0.92);
        cache.restore_quarantine((blk(1), blk(3)), vec![blk(3), blk(0)], 2);
        Snapshot::capture(0xDEAD_BEEF_0BAD_F00D, &bcg, &cache)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let snap = warmed_snapshot();
        let bytes = snap.to_bytes();
        let back = SnapshotReader::new()
            .read(&bytes, snap.program_hash)
            .expect("own bytes must decode");
        assert_eq!(back, snap);
        // Canonical: re-encoding yields identical bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    /// A container can be well-formed down to its checksums and still
    /// carry a trace the cache's own invariant forbids (completion must
    /// lie in `(0, 1]`); the reader must refuse it before anything is
    /// restored, not leave it to `restore_into` to plant or panic on.
    #[test]
    fn zero_completion_trace_in_a_checksummed_container_is_rejected() {
        for zero in [0.0f64, -0.0] {
            let mut snap = warmed_snapshot();
            snap.cache.traces[0].completion_bits = zero.to_bits();
            let bytes = snap.to_bytes();
            let err = SnapshotReader::new()
                .read(&bytes, snap.program_hash)
                .expect_err("a zero-completion trace must not decode");
            assert!(
                matches!(
                    err,
                    SnapshotError::Malformed {
                        section: "cache",
                        ..
                    }
                ),
                "got {err:?}"
            );
            let mut target = TraceCache::new();
            assert!(snap.cache.restore_into(&mut target).is_err());
            assert_eq!((target.trace_count(), target.link_count()), (0, 0));
        }
    }

    #[test]
    fn header_checks_fire_in_order() {
        let snap = warmed_snapshot();
        let bytes = snap.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::new().read(&bad_magic, snap.program_hash),
            Err(SnapshotError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            SnapshotReader::new().read(&bad_version, snap.program_hash),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );

        let mut bad_flags = bytes.clone();
        bad_flags[12] = 1;
        assert_eq!(
            SnapshotReader::new().read(&bad_flags, snap.program_hash),
            Err(SnapshotError::UnsupportedFlags { found: 1 })
        );

        assert!(matches!(
            SnapshotReader::new().read(&bytes, snap.program_hash + 1),
            Err(SnapshotError::StaleProgram { .. })
        ));
        // The quirk hook really does skip only the hash check.
        assert!(SnapshotReader::skipping_program_hash()
            .read(&bytes, snap.program_hash + 1)
            .is_ok());
    }

    #[test]
    fn every_truncation_point_errors() {
        let snap = warmed_snapshot();
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            let r = SnapshotReader::new().read(&bytes[..cut], snap.program_hash);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn payload_bit_flips_are_caught_by_the_section_crc() {
        let snap = warmed_snapshot();
        let bytes = snap.to_bytes();
        // Flip one bit in every byte past the header: each must fail
        // (CRC, bounds, or section framing), never decode silently.
        for i in 24..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x10;
            assert!(
                SnapshotReader::new().read(&m, snap.program_hash).is_err(),
                "byte {i} mutation must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_after_the_last_section_error() {
        let snap = warmed_snapshot();
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert!(matches!(
            SnapshotReader::new().read(&bytes, snap.program_hash),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bcg = BranchCorrelationGraph::new(BcgConfig::default());
        let cache = TraceCache::new();
        let snap = Snapshot::capture(7, &bcg, &cache);
        let bytes = snap.to_bytes();
        let back = SnapshotReader::new().read(&bytes, 7).unwrap();
        assert_eq!(back, snap);
        assert!(back.bcg.nodes.is_empty());
        assert!(back.cache.traces.is_empty());
    }
}
