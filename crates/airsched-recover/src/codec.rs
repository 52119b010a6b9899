//! Fixed-width little-endian primitives for the on-disk formats.
//!
//! Every field the checkpoint and journal persist goes through these two
//! types, so the byte layout is defined in exactly one place. Decoding is
//! fail-closed: any truncation, range violation, or sequence length that
//! exceeds the bytes actually present is a typed error — never a panic,
//! and never an allocation sized by attacker-controlled bytes.

/// Why a byte stream failed to decode (a static, human-readable cause).
pub type Reason = &'static str;

/// Append-only byte buffer with typed `put` methods.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, keeping the bytes already in it
    /// (and its capacity).
    #[must_use]
    pub fn over(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a strict boolean (`0` or `1`).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an optional `u64` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(n) => {
                self.bool(true);
                self.u64(n);
            }
            None => self.bool(false),
        }
    }

    /// Appends a sequence length (`u32`).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX` — no in-memory structure in
    /// this stack gets near that.
    pub fn seq_len(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("sequence length fits in u32"));
    }
}

/// Cursor over a byte slice with typed, bounds-checked `get` methods.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Reason> {
        if self.remaining() < n {
            return Err("truncated field");
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u8(&mut self) -> Result<u8, Reason> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u16(&mut self) -> Result<u16, Reason> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u32(&mut self) -> Result<u32, Reason> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u64(&mut self) -> Result<u64, Reason> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn f64(&mut self) -> Result<f64, Reason> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a strict boolean.
    ///
    /// # Errors
    ///
    /// Fails on truncation or any byte other than `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, Reason> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("boolean byte is neither 0 nor 1"),
        }
    }

    /// Reads an optional `u64` written by [`ByteWriter::opt_u64`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or a malformed presence byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, Reason> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a sequence length and validates it against the bytes left:
    /// a sequence of `len` items, each at least `min_item_bytes` wide,
    /// cannot be longer than the remaining input. This is what keeps a
    /// corrupt length field from turning into a giant allocation.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an impossible length.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, Reason> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err("sequence length exceeds the bytes present");
        }
        Ok(len)
    }

    /// Asserts the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// Fails if bytes remain.
    pub fn finish(self) -> Result<(), Reason> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err("trailing bytes after the last field")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.125);
        w.bool(true);
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.seq_len(3);
        w.u8(1);
        w.u8(2);
        w.u8(3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!((r.f64().unwrap() - 0.125).abs() < f64::EPSILON);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.seq_len(1).unwrap(), 3);
        for expect in 1..=3 {
            assert_eq!(r.u8().unwrap(), expect);
        }
        r.finish().unwrap();
    }

    #[test]
    fn decoding_is_fail_closed() {
        // Truncation.
        assert!(ByteReader::new(&[1, 2]).u32().is_err());
        // Junk boolean.
        assert!(ByteReader::new(&[9]).bool().is_err());
        // A length claiming more items than bytes exist cannot allocate.
        let mut w = ByteWriter::new();
        w.seq_len(1_000_000);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).seq_len(8).is_err());
        // Trailing garbage is an error, not silence.
        assert!(ByteReader::new(&[0]).finish().is_err());
    }
}
