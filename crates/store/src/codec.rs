//! Little-endian primitive reader/writer helpers behind the snapshot
//! codec and the signature key. Reads are bounds-checked and return
//! [`StoreError::Truncated`] instead of panicking.

use crate::error::StoreError;

/// Append-only byte writer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consume the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// u32, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// u64, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// f64 by bit pattern — round-trips NaN payloads and signed zeros.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// u32 length prefix + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A section: 4-byte ASCII tag, u64 LE payload length, payload.
    pub fn section(&mut self, tag: &[u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(tag);
        self.u64(payload.len() as u64);
        self.buf.extend_from_slice(payload);
    }
}

/// Cursor over a byte slice; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True once the cursor has consumed every byte.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// u32, little-endian.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// u64, little-endian.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// f64 from its bit pattern (the inverse of [`Writer::f64`]).
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A string written by [`Writer::str`]; non-UTF-8 bytes are a typed
    /// [`StoreError::Corrupt`], never a panic.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))
    }

    /// A `usize` stored as u64; rejects values that do not fit.
    pub fn len(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("length {v} overflows usize")))
    }

    /// The next section: its tag and a reader over its payload.
    pub fn section(&mut self) -> Result<([u8; 4], Reader<'a>), StoreError> {
        let tag: [u8; 4] = self.take(4)?.try_into().expect("4 bytes");
        let len = self.len()?;
        let payload = self.take(len)?;
        Ok((tag, Reader::new(payload)))
    }
}
