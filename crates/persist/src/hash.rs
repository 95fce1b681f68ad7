//! Hand-rolled integrity primitives: CRC-32 (IEEE 802.3) for per-section
//! payload checksums, and the program staleness hash (FNV-1a 64, kept
//! with the program it is derived from).

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// `0xEDB88320`, built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight table reads fold eight input
/// bytes into the register at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, as in zlib/PNG) of `data`, eight bytes per step
/// (slicing-by-8); the tail is finished a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The staleness hash of a program: FNV-1a 64 over its full disassembly
/// listing. The listing covers every function, block, and instruction,
/// so any bytecode change — recompilation, reordering, edits — produces
/// a different hash, which is exactly what makes a stale profile
/// detectable. It is [`jvm_bytecode::Program::content_hash`]: computed
/// the first time anything asks, then answered from the program.
pub fn program_hash(program: &jvm_bytecode::Program) -> u64 {
    program.content_hash()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the slicing-by-8 loop replaced: the oracle
    /// it must agree with on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let data = b"some section payload bytes".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() * 8 {
            let mut m = data.clone();
            m[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&m), base, "bit {i} flip must change the CRC");
        }
    }

    /// Every length 0..=1024 at every start offset 0..8 (so both the
    /// eight-byte body and the byte-wise tail see every alignment and
    /// remainder) over pseudo-random bytes.
    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }
}
