//! Little-endian byte-buffer primitives shared by the plan file format and
//! the binary tensor wire codec in `tssa-net`.
//!
//! Deliberately minimal: fixed-width integers/floats and length-prefixed
//! strings/byte runs, with every read bounds-checked so truncated or
//! corrupted input surfaces as a typed [`Truncated`] error instead of a
//! panic.

use std::fmt;

/// A read ran past the end of the buffer (or a declared length did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncated {
    /// What the reader was trying to decode.
    pub what: &'static str,
    /// Byte offset at which the read started.
    pub at: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated input reading {} at byte {}",
            self.what, self.at
        )
    }
}

impl std::error::Error for Truncated {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` length prefix followed by the UTF-8 bytes of `s`.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a borrowed buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        let at = self.pos;
        let end = at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                self.pos = end;
                Ok(&self.buf[at..end])
            }
            None => Err(Truncated { what, at }),
        }
    }

    /// Read `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        self.take(n, what)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, Truncated> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, Truncated> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, Truncated> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self, what: &'static str) -> Result<i64, Truncated> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, Truncated> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a `u32`-length-prefixed UTF-8 string. Invalid UTF-8 is reported
    /// as truncation of `what` (the buffer is not a valid encoding either
    /// way).
    pub fn get_str(&mut self, what: &'static str) -> Result<&'a str, Truncated> {
        let at = self.pos;
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| Truncated { what, at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-1.5e300);
        w.put_str("héllo");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64("d").unwrap(), -42);
        assert_eq!(r.get_f64("e").unwrap(), -1.5e300);
        assert_eq!(r.get_str("f").unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn every_truncation_point_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(9);
        w.put_str("payload");
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let ok = r
                .get_u64("n")
                .map_err(|e| e.to_string())
                .and_then(|_| r.get_str("s").map(str::to_owned).map_err(|e| e.to_string()));
            assert!(ok.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn declared_length_past_end_is_truncated() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000);
        let buf = w.into_bytes();
        assert!(ByteReader::new(&buf).get_str("blob").is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let buf = w.into_bytes();
        assert!(ByteReader::new(&buf).get_str("s").is_err());
    }
}
