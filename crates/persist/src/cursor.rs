//! Strict-bounds little-endian byte cursor.
//!
//! Every read checks the remaining length first and returns
//! [`SnapshotError::Truncated`] rather than slicing out of bounds;
//! element counts are admitted only if the *minimum* encoding of that
//! many elements fits in the bytes actually present, so a hostile
//! length field can neither over-allocate nor push a read past the end.

use crate::error::SnapshotError;

/// A bounds-checked reader over a byte slice. All integers are
/// little-endian.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Name of the region being decoded, for error context.
    section: &'static str,
}

impl<'a> Cursor<'a> {
    /// Wraps `data`; `section` names the region in errors.
    pub fn new(data: &'a [u8], section: &'static str) -> Self {
        Cursor {
            data,
            pos: 0,
            section,
        }
    }

    /// The region name errors carry.
    pub(crate) fn section(&self) -> &'static str {
        self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { at: self.section });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Reads a `u32` element count and admits it only if `count *
    /// min_elem_size` bytes are still present — a mutated length field
    /// fails here instead of driving a huge allocation or a long run of
    /// truncation errors.
    pub fn read_count(&mut self, min_elem_size: usize) -> Result<usize, SnapshotError> {
        let count = self.read_u32()? as usize;
        if count.saturating_mul(min_elem_size) > self.remaining() {
            return Err(SnapshotError::Truncated { at: self.section });
        }
        Ok(count)
    }

    /// Asserts the region was consumed exactly.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() > 0 {
            return Err(SnapshotError::TrailingBytes {
                section: self.section,
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Little-endian byte writer matching [`Cursor`].
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_round_trip_writes() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut c = Cursor::new(&bytes, "test");
        assert_eq!(c.read_u8().unwrap(), 7);
        assert_eq!(c.read_u16().unwrap(), 0xBEEF);
        assert_eq!(c.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(c.read_bytes(3).unwrap(), b"xyz");
        assert!(c.finish().is_ok());
    }

    #[test]
    fn every_prefix_truncation_errors_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut c = Cursor::new(&bytes[..cut], "test");
            let r = (|| -> Result<(), SnapshotError> {
                let n = c.read_count(8)?;
                for _ in 0..n {
                    c.read_u64()?;
                }
                c.finish()
            })();
            assert!(
                matches!(r, Err(SnapshotError::Truncated { .. })),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut c = Cursor::new(&bytes, "test");
        assert!(matches!(
            c.read_count(8),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let bytes = [0u8; 5];
        let mut c = Cursor::new(&bytes, "test");
        c.read_u32().unwrap();
        assert_eq!(
            c.finish(),
            Err(SnapshotError::TrailingBytes {
                section: "test",
                extra: 1
            })
        );
    }
}
