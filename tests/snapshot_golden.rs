//! Golden pin of the snapshot container format.
//!
//! A snapshot written today must load in tomorrow's build (or fail
//! loudly with a version error), so the byte-level layout is part of
//! the public contract. This suite builds a small fixed snapshot from a
//! hand-seeded profiler and cache and pins its exact encoding: any
//! accidental format change — field width, order, endianness, CRC
//! coverage, section layout — fails here first, forcing a deliberate
//! `SNAPSHOT_VERSION` bump instead of a silent skew.

use tracecache_repro::bcg::{BcgConfig, BranchCorrelationGraph};
use tracecache_repro::bytecode::{BlockId, FuncId};
use tracecache_repro::persist::{
    Snapshot, SnapshotError, SnapshotReader, MAGIC, SECTION_BCG, SECTION_CACHE, SECTION_QUARANTINE,
    SNAPSHOT_VERSION,
};
use tracecache_repro::tracecache::TraceCache;

fn blk(b: u32) -> BlockId {
    BlockId::new(FuncId(0), b)
}

/// Program hash of the golden fixture (arbitrary fixed value — the
/// format does not interpret it).
const GOLDEN_HASH: u64 = 0x0123_4567_89AB_CDEF;

/// A small, fully deterministic snapshot: a profiler warmed past its
/// start delay on a fixed block stream, one shared trace with two entry
/// links, and one quarantine entry.
fn golden_snapshot() -> Snapshot {
    let mut bcg = BranchCorrelationGraph::new(BcgConfig::paper_default().with_start_delay(2));
    for i in 0..8 {
        bcg.observe(blk(0));
        bcg.observe(blk(1));
        bcg.observe(blk(if i == 7 { 3 } else { 2 }));
    }
    let mut cache = TraceCache::new();
    cache.insert_and_link((blk(2), blk(0)), &[blk(0), blk(1), blk(2)], 0.9375);
    cache.insert_and_link((blk(3), blk(0)), &[blk(0), blk(1), blk(2)], 0.9375);
    cache.restore_quarantine((blk(1), blk(3)), vec![blk(3), blk(0)], 2);
    Snapshot::capture(GOLDEN_HASH, &bcg, &cache)
}

/// The pinned container bytes, as hex.
const GOLDEN_HEX: &str = "5443534e41500d0a0200000000000000efcdab896745230142434731b8000000000000000400000000000000000000000000000001000000010800000000000000000000000800000002000000000002000000070000000000030000000100000000000100000000000000020000000107000000000000000000000007000000010000000000000000000700000000000200000000000000000000000107000000000000000000000007000000010000000000010000000700000000000100000000000000030000000000000000000000000200000000000000000015326ac143414331540000000000000001000000000000000000ee3f030000000000000000000000000000000100000000000000020000000200000000000000020000000000000000000000000000000000000003000000000000000000000000000000c0cef057515541312c000000000000000100000000000000010000000000000003000000020000000200000000000000030000000000000000000000bfe5c95a";

/// The same fixture in format version 1, whose cache section began with
/// a payload budget (here `Some(2048)`: a flag byte and a `u64`).
const GOLDEN_V1_HEX: &str = "5443534e41500d0a0100000000000000efcdab896745230142434731b8000000000000000400000000000000000000000000000001000000010800000000000000000000000800000002000000000002000000070000000000030000000100000000000100000000000000020000000107000000000000000000000007000000010000000000000000000700000000000200000000000000000000000107000000000000000000000007000000010000000000010000000700000000000100000000000000030000000000000000000000000200000000000000000015326ac1434143315d0000000000000001000800000000000001000000000000000000ee3f0300000000000000000000000000000001000000000000000200000002000000000000000200000000000000000000000000000000000000030000000000000000000000000000004a50222a515541312c000000000000000100000000000000010000000000000003000000020000000200000000000000030000000000000000000000bfe5c95a";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The full container encoding is pinned byte for byte.
#[test]
fn golden_bytes_are_pinned() {
    let bytes = golden_snapshot().to_bytes();
    assert_eq!(
        hex(&bytes),
        GOLDEN_HEX,
        "snapshot encoding changed — if intentional, bump SNAPSHOT_VERSION \
         and re-pin this golden"
    );
}

/// Header and section framing sit at the pinned offsets.
#[test]
fn header_and_section_layout_is_pinned() {
    let bytes = golden_snapshot().to_bytes();

    // header := magic[8] version:u32 flags:u32 program_hash:u64
    assert_eq!(&bytes[0..8], &MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        SNAPSHOT_VERSION
    );
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 0);
    assert_eq!(
        u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        GOLDEN_HASH
    );

    // section := tag:u32 payload_len:u64 payload crc:u32, fixed order.
    let mut pos = 24;
    for (expected_tag, name) in [
        (SECTION_BCG, "bcg"),
        (SECTION_CACHE, "cache"),
        (SECTION_QUARANTINE, "quarantine"),
    ] {
        let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        assert_eq!(tag, expected_tag, "{name} tag at {pos}");
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        let crc = u32::from_le_bytes(bytes[pos + 12 + len..pos + 16 + len].try_into().unwrap());
        assert_eq!(
            crc,
            tracecache_repro::persist::crc32(payload),
            "{name} crc at {pos}"
        );
        pos += 16 + len;
    }
    assert_eq!(pos, bytes.len(), "no trailing bytes after the last section");
}

/// Version skew in either direction is rejected with the right error —
/// a reader must never guess at bytes it does not understand.
#[test]
fn version_skew_is_rejected() {
    let snap = golden_snapshot();
    let bytes = snap.to_bytes();

    let v1: Vec<u8> = (0..GOLDEN_V1_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_V1_HEX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(
        SnapshotReader::new().read(&v1, GOLDEN_HASH),
        Err(SnapshotError::UnsupportedVersion { found: 1 }),
        "a version 1 container (with its budget field) must be rejected"
    );

    for skew in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
        let mut m = bytes.clone();
        m[8..12].copy_from_slice(&skew.to_le_bytes());
        assert_eq!(
            SnapshotReader::new().read(&m, GOLDEN_HASH),
            Err(SnapshotError::UnsupportedVersion { found: skew }),
            "version {skew} must be rejected"
        );
    }
}

/// The golden bytes decode back to the golden snapshot (the pin is not
/// write-only).
#[test]
fn golden_bytes_decode() {
    let snap = golden_snapshot();
    let back = SnapshotReader::new()
        .read(&snap.to_bytes(), GOLDEN_HASH)
        .expect("golden bytes decode");
    assert_eq!(back, snap);
    assert_eq!(back.cache.traces.len(), 1, "shared trace stored once");
    assert_eq!(back.cache.links.len(), 2);
    assert_eq!(back.cache.quarantine.len(), 1);
    assert!(!back.bcg.nodes.is_empty());
}
