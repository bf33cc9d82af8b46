//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the small subset of the `bytes` 1.x API the workspace uses: cheaply
//! cloneable immutable buffers ([`Bytes`]), growable write buffers
//! ([`BytesMut`]), and the cursor traits [`Buf`] / [`BufMut`] with the
//! little-endian accessors the wire codec needs.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into shared byte storage. The
/// storage is the `Vec` the view was built from, so — as in the real
/// crate — `Bytes::from(vec)` and `BytesMut::freeze` copy nothing.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `src` into a fresh buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view sharing the same storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer for building frames.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Creates a buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut {
            data: vec![0u8; len],
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Appends `src`.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { data: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out of the cursor, advancing it.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Advances the cursor by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Splits off the next `n` bytes as an owned [`Bytes`].
    ///
    /// # Panics
    ///
    /// Panics when fewer than `n` bytes remain.
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let mut v = vec![0u8; n];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "buffer underflow");
        self.start += n;
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "buffer underflow");
        let out = self.slice(..n);
        self.start += n;
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "buffer underflow");
        *self = &self[n..];
    }
}

/// Write cursor over a growable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u16_le(0x524D);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        let mut r = w.freeze();
        assert_eq!(r.get_u16_le(), 0x524D);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert!(!r.has_remaining());
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5, "parent unchanged");
    }

    #[test]
    fn copy_to_bytes_advances() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.copy_to_bytes(3);
        assert_eq!(&head[..], &[1, 2, 3]);
        assert_eq!(b.remaining(), 1);
    }

    #[test]
    fn slice_buf_impl_advances() {
        let data = [9u8, 8, 7];
        let mut cursor: &[u8] = &data;
        assert_eq!(cursor.get_u8(), 9);
        assert_eq!(cursor.remaining(), 2);
        cursor.advance(1);
        assert_eq!(cursor.get_u8(), 7);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::copy_from_slice(&[1]);
        let _ = b.get_u32_le();
    }
}
