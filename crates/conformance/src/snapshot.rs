//! Hostile-input conformance for the snapshot container.
//!
//! The chaos campaigns attack the profiling pipeline and the fault
//! campaigns attack the execution deployment; this module attacks the
//! **persistence boundary**: the versioned, checksummed snapshot
//! container (`trace-persist`) that carries a warmed profile and trace
//! cache across processes. A snapshot file arrives from outside the
//! process, so the decoder must be total — any mutation of valid bytes
//! yields a clean [`SnapshotError`], never a panic and never a silently
//! accepted corrupt state.
//!
//! [`run_snapshot_campaign`] makes that an executable contract: a
//! seeded mutation campaign (bit flips, truncations, section swaps,
//! length-field rewrites) over a valid snapshot, with every mutant fed
//! to the reader under `catch_unwind`. A correct reader rejects every
//! mutant that differs from the original bytes; the campaign counts
//! panics and silent acceptances, and the suite asserts both are zero.
//!
//! To prove the campaign can actually catch a silent acceptance, the
//! planted [`Quirk::StaleSnapshotAccepted`](crate::model::Quirk) wires
//! in [`SnapshotReader::skipping_program_hash`] — a reader whose
//! staleness check is disabled. Under that quirk, mutants that only
//! touch the header's program-hash field decode successfully, and the
//! campaign's `silently_accepted` counter goes positive. Only this
//! campaign can expose that bug: every other suite reads snapshots it
//! wrote itself, where the hash always matches.
//!
//! That a VM booted from a snapshot runs exactly as the interpreter does
//! is the `WarmBoot` row of the differential matrix ([`crate::matrix`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use trace_persist::{SnapshotError, SnapshotReader};
use trace_workloads::prng::Xoshiro256StarStar;

/// Header size of the snapshot container: magic(8) + version(4) +
/// flags(4) + program hash(8). Kept in sync with `trace-persist` by
/// [`section_spans`], which re-walks the real layout and is verified
/// against freshly written snapshots in the tests.
pub const HEADER_LEN: usize = 24;

/// Byte offset of the program-hash field inside the header.
pub const PROGRAM_HASH_OFFSET: usize = 16;

/// One mutation strategy of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip one random bit of one random byte (header included).
    BitFlip,
    /// Truncate the container at a random length.
    Truncate,
    /// Swap two whole section envelopes (tag + length + payload + CRC).
    SectionSwap,
    /// Rewrite a section's 8-byte length field with a random value.
    LengthField,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::BitFlip,
    Mutation::Truncate,
    Mutation::SectionSwap,
    Mutation::LengthField,
];

/// What one hostile-input campaign observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Mutants generated and fed to the reader.
    pub mutants_run: usize,
    /// Mutants rejected with a clean [`SnapshotError`].
    pub rejected: usize,
    /// Mutants that decoded successfully despite differing from the
    /// valid bytes. Zero for a correct reader.
    pub silently_accepted: usize,
    /// Mutants whose decode panicked. Zero for a correct reader.
    pub panics: usize,
    /// Mutants that happened to reproduce the original bytes (possible
    /// for section swaps of identical sections) — skipped, not counted
    /// against the reader.
    pub identical_skipped: usize,
}

impl CampaignReport {
    /// The campaign's pass condition for a correct reader.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.silently_accepted == 0
    }
}

/// Walks the container layout and returns each section's byte span
/// (envelope included), or `None` if the bytes do not parse as a
/// well-formed sequence of sections. Mirrors the `trace-persist` layout
/// so the campaign can aim structure-aware mutations.
pub fn section_spans(bytes: &[u8]) -> Option<Vec<std::ops::Range<usize>>> {
    let mut spans = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        // tag:u32 len:u64 payload crc:u32
        let len_bytes: [u8; 8] = bytes.get(pos + 4..pos + 12)?.try_into().ok()?;
        let payload_len = u64::from_le_bytes(len_bytes) as usize;
        let end = pos.checked_add(16)?.checked_add(payload_len)?;
        if end > bytes.len() {
            return None;
        }
        spans.push(pos..end);
        pos = end;
    }
    Some(spans)
}

/// Generates mutant `k` of the campaign rooted at `seed`. Returns the
/// mutant bytes and the strategy used. Deterministic in `(seed, k,
/// valid)`.
pub fn mutate(valid: &[u8], seed: u64, k: u64) -> (Vec<u8>, Mutation) {
    let mut rng = Xoshiro256StarStar::new(trace_workloads::prng::seed_stream(seed, k));
    let kind = *rng.pick(&MUTATIONS);
    let mut m = valid.to_vec();
    match kind {
        Mutation::BitFlip => {
            let i = rng.range_usize(0, m.len());
            m[i] ^= 1 << rng.range_u32(0, 8);
        }
        Mutation::Truncate => {
            m.truncate(rng.range_usize(0, m.len()));
        }
        Mutation::SectionSwap => {
            match section_spans(valid) {
                Some(spans) if spans.len() >= 2 => {
                    let a = rng.range_usize(0, spans.len());
                    let mut b = rng.range_usize(0, spans.len() - 1);
                    if b >= a {
                        b += 1;
                    }
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    let mut swapped = valid[..spans[lo].start].to_vec();
                    swapped.extend_from_slice(&valid[spans[hi].clone()]);
                    swapped.extend_from_slice(&valid[spans[lo].end..spans[hi].start]);
                    swapped.extend_from_slice(&valid[spans[lo].clone()]);
                    swapped.extend_from_slice(&valid[spans[hi].end..]);
                    m = swapped;
                }
                // No two sections to swap (shouldn't happen for real
                // snapshots): degrade to a bit flip.
                _ => {
                    let i = rng.range_usize(0, m.len());
                    m[i] ^= 1 << rng.range_u32(0, 8);
                }
            }
        }
        Mutation::LengthField => match section_spans(valid) {
            Some(spans) if !spans.is_empty() => {
                let s = &spans[rng.range_usize(0, spans.len())];
                let len_at = s.start + 4;
                // Mix small off-by deltas with wild values: both classes
                // of hostile length field must be rejected.
                let cur = u64::from_le_bytes(valid[len_at..len_at + 8].try_into().unwrap());
                let new = match rng.range_u32(0, 4) {
                    0 => cur.wrapping_add(1),
                    1 => cur.wrapping_sub(1),
                    2 => cur.wrapping_add(rng.next_below(1 << 20)),
                    _ => rng.next_u64(),
                };
                m[len_at..len_at + 8].copy_from_slice(&new.to_le_bytes());
            }
            _ => {
                let i = rng.range_usize(0, m.len());
                m[i] ^= 1 << rng.range_u32(0, 8);
            }
        },
    }
    (m, kind)
}

/// Runs a seeded hostile-input campaign: `mutants` mutations of
/// `valid`, each decoded by `reader` under `catch_unwind`. The decoder
/// contract says every mutant that differs from the valid bytes must
/// yield `Err(SnapshotError)`; [`CampaignReport::is_clean`] checks it.
pub fn run_snapshot_campaign(
    valid: &[u8],
    expected_program_hash: u64,
    reader: &SnapshotReader,
    seed: u64,
    mutants: usize,
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for k in 0..mutants {
        let (mutant, _kind) = mutate(valid, seed, k as u64);
        if mutant == valid {
            report.identical_skipped += 1;
            continue;
        }
        report.mutants_run += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            reader.read(&mutant, expected_program_hash)
        }));
        match outcome {
            Ok(Ok(_)) => report.silently_accepted += 1,
            Ok(Err(_)) => report.rejected += 1,
            Err(_) => report.panics += 1,
        }
    }
    report
}

/// A reader as configured by an (optional) planted quirk: the strict
/// production reader normally, or the hash-check-skipping reader under
/// [`Quirk::StaleSnapshotAccepted`](crate::model::Quirk).
pub fn reader_with_quirk(quirk: Option<crate::model::Quirk>) -> SnapshotReader {
    match quirk {
        Some(crate::model::Quirk::StaleSnapshotAccepted) => SnapshotReader::skipping_program_hash(),
        _ => SnapshotReader::new(),
    }
}

/// Mutants that rewrite only the header's program-hash field: the
/// regression trio feeding the planted-quirk test. Each differs from
/// `valid` in exactly the hash bytes, so the *only* check standing
/// between them and acceptance is the staleness check.
pub fn stale_hash_mutants(valid: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..3)
        .map(|_| {
            let mut m = valid.to_vec();
            let hash = &mut m[PROGRAM_HASH_OFFSET..PROGRAM_HASH_OFFSET + 8];
            let cur = u64::from_le_bytes(hash.try_into().unwrap());
            let mut new = rng.next_u64();
            if new == cur {
                new = new.wrapping_add(1);
            }
            hash.copy_from_slice(&new.to_le_bytes());
            m
        })
        .collect()
}

/// Convenience: asserts the reader rejects `bytes` without panicking,
/// returning the error.
pub fn must_reject(
    reader: &SnapshotReader,
    bytes: &[u8],
    expected_program_hash: u64,
) -> Result<SnapshotError, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        reader.read(bytes, expected_program_hash)
    })) {
        Ok(Err(e)) => Ok(e),
        Ok(Ok(_)) => Err("reader accepted bytes it must reject".into()),
        Err(_) => Err("reader panicked".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_exec::TracingVm;
    use trace_workloads::registry::{all, Scale};

    fn warmed_snapshot() -> (Vec<u8>, u64) {
        let w = &all(Scale::Test)[0];
        let mut vm = TracingVm::new(&w.program, crate::faults::fault_campaign_config());
        vm.run(&w.args).expect("warming run");
        let hash = trace_persist::program_hash(&w.program);
        (vm.snapshot(), hash)
    }

    #[test]
    fn section_spans_walk_real_snapshots() {
        let (bytes, _) = warmed_snapshot();
        let spans = section_spans(&bytes).expect("valid snapshot must walk");
        assert_eq!(spans.len(), 3, "bcg + cache + quarantine");
        assert_eq!(spans[0].start, HEADER_LEN);
        assert_eq!(spans[2].end, bytes.len());
    }

    #[test]
    fn strict_reader_survives_a_small_campaign() {
        let (bytes, hash) = warmed_snapshot();
        let report = run_snapshot_campaign(&bytes, hash, &SnapshotReader::new(), 0xBAD5EED, 64);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.rejected, report.mutants_run);
    }

    #[test]
    fn planted_stale_quirk_is_caught_by_hash_mutants() {
        let (bytes, hash) = warmed_snapshot();
        let quirky = reader_with_quirk(Some(crate::model::Quirk::StaleSnapshotAccepted));
        let mut accepted = 0;
        for m in stale_hash_mutants(&bytes, 0x5A1E) {
            // The strict reader rejects every one...
            assert!(matches!(
                must_reject(&SnapshotReader::new(), &m, hash),
                Ok(SnapshotError::StaleProgram { .. })
            ));
            // ...the quirky reader lets every one through.
            if quirky.read(&m, hash).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 3, "quirk must silently accept all three");
    }
}
