//! Little-endian binary buffers used by the [`Wire`](crate::wire::Wire)
//! serialization protocols.
//!
//! These are deliberately minimal, append-only/read-forward buffers — the
//! equivalent of the paper's "custom archives optimized for high-performance
//! serialization into in-memory buffers" (Section II-C).

use std::fmt;

/// Error produced when decoding runs past the end of a buffer or meets an
/// invalid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of what failed to decode.
    pub msg: String,
}

impl WireError {
    /// Create a new error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// Append-only serialization buffer.
#[derive(Default, Debug)]
pub struct WriteBuf {
    buf: Vec<u8>,
}

macro_rules! put_prim {
    ($name:ident, $ty:ty) => {
        /// Append a primitive in little-endian byte order.
        #[inline]
        pub fn $name(&mut self, v: $ty) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    };
}

impl WriteBuf {
    /// Create an empty buffer.
    pub fn new() -> Self {
        WriteBuf { buf: Vec::new() }
    }

    /// Create a buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WriteBuf {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Create a buffer with at least `cap` capacity, reusing a recycled
    /// allocation from the [`crate::pool`] free-list when one is available.
    /// Callers on the receive side return the backing `Vec` with
    /// [`crate::pool::recycle`] once the message is consumed.
    pub fn pooled(cap: usize) -> Self {
        WriteBuf {
            buf: crate::pool::acquire(cap),
        }
    }

    put_prim!(put_u8, u8);
    put_prim!(put_u16, u16);
    put_prim!(put_u32, u32);
    put_prim!(put_u64, u64);
    put_prim!(put_i8, i8);
    put_prim!(put_i16, i16);
    put_prim!(put_i32, i32);
    put_prim!(put_i64, i64);
    put_prim!(put_f32, f32);
    put_prim!(put_f64, f64);

    /// Append a `usize` encoded as a `u64` for portability.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append raw bytes without a length prefix.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append bytes with a `u64` length prefix.
    #[inline]
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite the `u32` written at byte offset `at` — a count put down
    /// before the items it counts were known.
    #[inline]
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the buffer, yielding the serialized bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the serialized bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Read-forward deserialization cursor over a byte slice.
#[derive(Debug)]
pub struct ReadBuf<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! get_prim {
    ($name:ident, $ty:ty, $n:expr) => {
        /// Read a primitive in little-endian byte order.
        #[inline]
        pub fn $name(&mut self) -> Result<$ty, WireError> {
            let bytes = self.take($n)?;
            let mut arr = [0u8; $n];
            arr.copy_from_slice(bytes);
            Ok(<$ty>::from_le_bytes(arr))
        }
    };
}

impl<'a> ReadBuf<'a> {
    /// Create a cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ReadBuf { buf, pos: 0 }
    }

    /// Take `n` raw bytes, advancing the cursor.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::new(format!(
                "buffer underrun: need {} bytes at {}, have {}",
                n,
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    get_prim!(get_u8, u8, 1);
    get_prim!(get_u16, u16, 2);
    get_prim!(get_u32, u32, 4);
    get_prim!(get_u64, u64, 8);
    get_prim!(get_i8, i8, 1);
    get_prim!(get_i16, i16, 2);
    get_prim!(get_i32, i32, 4);
    get_prim!(get_i64, i64, 8);
    get_prim!(get_f32, f32, 4);
    get_prim!(get_f64, f64, 8);

    /// Read a `usize` that was encoded as `u64`.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        Ok(self.get_u64()? as usize)
    }

    /// Read a `u64`-length-prefixed byte run.
    #[inline]
    pub fn get_len_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = WriteBuf::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_i64(-42);
        w.put_f64(std::f64::consts::PI);
        w.put_usize(123_456);
        let v = w.into_vec();
        let mut r = ReadBuf::new(&v);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_usize().unwrap(), 123_456);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_len_bytes() {
        let mut w = WriteBuf::new();
        w.put_len_bytes(b"hello");
        w.put_len_bytes(b"");
        w.put_len_bytes(b"world");
        let v = w.into_vec();
        let mut r = ReadBuf::new(&v);
        assert_eq!(r.get_len_bytes().unwrap(), b"hello");
        assert_eq!(r.get_len_bytes().unwrap(), b"");
        assert_eq!(r.get_len_bytes().unwrap(), b"world");
    }

    #[test]
    fn underrun_is_error() {
        let v = vec![1u8, 2];
        let mut r = ReadBuf::new(&v);
        assert!(r.get_u64().is_err());
        // cursor must not advance on failure
        assert_eq!(r.get_u16().unwrap(), 0x0201);
    }

    #[test]
    fn empty_buffer() {
        let w = WriteBuf::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        let v = w.into_vec();
        let mut r = ReadBuf::new(&v);
        assert!(r.get_u8().is_err());
    }
}
