//! Hand-rolled integrity primitives: CRC-32 (IEEE 802.3) for per-section
//! payload checksums, and the program staleness hash (FNV-1a 64, kept
//! with the program it is derived from).

/// CRC-32 lookup table for the reflected IEEE polynomial `0xEDB88320`,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, as in zlib/PNG) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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
}
