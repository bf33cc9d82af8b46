//! Memory pages and the stripe units cut from them.
//!
//! The paper's pager moves 8 KB DEC OSF/1 pages; every transfer, parity
//! computation and store operation in this workspace operates on [`Page`]
//! values, each a whole page of [`PAGE_SIZE`] bytes or a unit: one of the
//! `PAGE_SIZE / k` byte pieces an erasure-coded stripe cuts a page into.

use std::fmt;
use std::sync::Arc;

/// Size of an operating-system page in bytes (8 KB on DEC OSF/1 Alpha).
pub const PAGE_SIZE: usize = 8192;

/// Bytes one step of [`Page::checksum`] folds: one 64-bit word into each
/// of its four lanes.
const CHECKSUM_BLOCK: usize = 32;

// The checksum walks whole blocks and nothing else: a page that did not
// divide into them would leave its tail unsummed.
const _: () = assert!(PAGE_SIZE.is_multiple_of(CHECKSUM_BLOCK));

/// A heap-allocated whole page of [`PAGE_SIZE`] bytes, or a unit of one.
///
/// `Page` is the unit of every pager operation: pageouts ship a `Page` to a
/// remote memory server, pageins retrieve one, and the parity policies XOR
/// pages together to build redundancy. An erasure-coded stripe stores each
/// of its `PAGE_SIZE / k` byte units as a `Page` of that length
/// ([`Page::unit`]), so a unit travels, is checksummed and rests at its
/// real size. Everything but the stripe engine sees whole pages only.
///
/// The buffer is reference-counted and copied on write: `clone` shares it,
/// and the first mutation of a shared page ([`AsMut::as_mut`],
/// [`Page::xor_with`], [`Page::clear`]) gives the writer a copy of its own
/// first. A page handed to a frame to be encoded, kept in a server's store
/// or parked in a read-ahead cache therefore costs a counter, not 8 KiB;
/// a value still behaves as if it owned its bytes.
///
/// # Examples
///
/// ```
/// use rmp_types::Page;
///
/// let mut a = Page::zeroed();
/// a.as_mut()[0] = 0xAB;
/// let b = Page::filled(0xAB);
/// let mut x = a.clone();
/// x.xor_with(&b);
/// assert_eq!(x.as_ref()[0], 0); // 0xAB ^ 0xAB
/// assert_eq!(x.as_ref()[1], 0xAB); // 0 ^ 0xAB
/// assert_eq!(a.as_ref()[0], 0xAB); // the clone wrote to its own copy
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Arc<[u8]>,
}

impl Page {
    /// Returns a page with every byte set to zero.
    pub fn zeroed() -> Self {
        Page::filled(0)
    }

    /// Returns a page with every byte set to `byte`.
    pub fn filled(byte: u8) -> Self {
        // One allocation: the sized array is built in place and unsized.
        let buf: Arc<[u8]> = Arc::new([byte; PAGE_SIZE]);
        Page { buf }
    }

    /// Builds a page from a full-size slice, in one pass over it.
    ///
    /// Returns `None` when `bytes` is not exactly [`PAGE_SIZE`] long.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        (bytes.len() == PAGE_SIZE).then(|| Page {
            buf: Arc::from(bytes),
        })
    }

    /// Builds a stripe unit from `bytes`, in one pass over them — a whole
    /// page when they are [`PAGE_SIZE`] long.
    ///
    /// Returns `None` unless the length divides [`PAGE_SIZE`] and is a
    /// whole number of 32-byte checksum blocks, so that every byte of a
    /// unit is summed: 32 to 8,192 bytes, in powers of two.
    pub fn unit(bytes: &[u8]) -> Option<Self> {
        let len = bytes.len();
        let legal = len > 0 && PAGE_SIZE.is_multiple_of(len) && len.is_multiple_of(CHECKSUM_BLOCK);
        legal.then(|| Page {
            buf: Arc::from(bytes),
        })
    }

    /// Whether this is a whole page, not a unit of one.
    pub fn is_whole(&self) -> bool {
        self.buf.len() == PAGE_SIZE
    }

    /// The page's bytes for writing, unshared first if need be.
    fn bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.buf)
    }

    /// Builds a page whose contents are a deterministic function of `seed`.
    ///
    /// Used throughout the test suites to create distinguishable pages
    /// without pulling in a random number generator.
    pub fn deterministic(seed: u64) -> Self {
        let mut page = Page::zeroed();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for chunk in page.bytes_mut().chunks_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bytes = state.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        page
    }

    /// XORs `other` into this page in place.
    ///
    /// This is the core primitive of the parity and parity-logging
    /// reliability policies: a parity page is the XOR of all pages in its
    /// parity group, and a lost page is reconstructed by XORing the
    /// survivors with the parity.
    ///
    /// # Panics
    ///
    /// When the two are not of one length: a page and a unit, or units of
    /// two geometries.
    pub fn xor_with(&mut self, other: &Page) {
        assert_eq!(
            self.buf.len(),
            other.buf.len(),
            "XOR of pages of unequal length"
        );
        // Process 8 bytes at a time; the optimizer vectorizes this loop.
        let dst = self.bytes_mut();
        for (dst, src) in dst.chunks_exact_mut(8).zip(other.buf.chunks_exact(8)) {
            let a = u64::from_ne_bytes(dst.try_into().expect("chunk is 8 bytes"));
            let b = u64::from_ne_bytes(src.try_into().expect("chunk is 8 bytes"));
            dst.copy_from_slice(&(a ^ b).to_ne_bytes());
        }
    }

    /// Returns `true` when every byte of the page is zero.
    pub fn is_zero(&self) -> bool {
        self.buf
            .chunks_exact(8)
            .all(|c| u64::from_ne_bytes(c.try_into().expect("chunk is 8 bytes")) == 0)
    }

    /// Resets every byte of the page to zero.
    pub fn clear(&mut self) {
        let whole = self.is_whole();
        match Arc::get_mut(&mut self.buf) {
            Some(bytes) => bytes.fill(0),
            // Shared: a fresh zero page is one pass, unsharing first two.
            None if whole => *self = Page::zeroed(),
            None => self.buf = vec![0; self.buf.len()].into(),
        }
    }

    /// Returns a 64-bit checksum of the page contents: four interleaved
    /// FNV-1a lanes over little-endian 64-bit words, folded into one. A
    /// unit is summed over the bytes it has.
    ///
    /// Word `4i + l` of the page goes into lane `l` (`h = (h ^ word) *
    /// prime`, each lane from a seed of its own), and the four lane values
    /// are folded through the same step at the end. The server computes
    /// this sum for every `PageIn` reply and verifies it on every
    /// `PageOut`, the pool verifies it on every inbound page and the pager
    /// checks the writer's stamp, so it runs three times per fault: one
    /// chain of 1,024 dependent multiplies costs 1.2 µs a pass, four
    /// independent chains of 256 let the multiplies pipeline and cost a
    /// quarter of that.
    ///
    /// What it guarantees: changing any single word of a page — so any
    /// single bit or byte — always changes the sum, because every step is
    /// a bijection of the running value for a fixed input, in the lanes
    /// and in the fold alike. Beyond that it is a hash: words that trade
    /// places across lanes or blocks change it with overwhelming
    /// probability, not by construction (the lanes' distinct seeds and
    /// the order-dependent chain are what make a swap show). It is not a
    /// cryptographic hash. Both ends of a connection must compute the same
    /// function; it is part of the wire protocol's version.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        // The FNV offset basis, and three more constants with no
        // structure in common with it (fractional bits of √2, √3, √5).
        const LANE_SEEDS: [u64; 4] = [
            FNV_OFFSET,
            0x6a09_e667_f3bc_c908,
            0xbb67_ae85_84ca_a73b,
            0x3c6e_f372_fe94_f82b,
        ];
        let mut lanes = LANE_SEEDS;
        for block in self.buf.chunks_exact(CHECKSUM_BLOCK) {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane ^= u64::from_le_bytes(word.try_into().expect("chunk is 8 bytes"));
                *lane = lane.wrapping_mul(FNV_PRIME);
            }
        }
        lanes
            .iter()
            .fold(FNV_OFFSET, |h, lane| (h ^ lane).wrapping_mul(FNV_PRIME))
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.buf[..]
    }
}

impl AsMut<[u8]> for Page {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.bytes_mut()[..]
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Page {{ len: {}, checksum: {:#018x}, zero: {} }}",
            self.buf.len(),
            self.checksum(),
            self.is_zero()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero() {
        assert!(Page::zeroed().is_zero());
        assert!(!Page::filled(1).is_zero());
    }

    #[test]
    fn from_slice_requires_exact_size() {
        assert!(Page::from_slice(&[0u8; PAGE_SIZE]).is_some());
        assert!(Page::from_slice(&[0u8; PAGE_SIZE - 1]).is_none());
        assert!(Page::from_slice(&[0u8; PAGE_SIZE + 1]).is_none());
    }

    #[test]
    fn a_unit_divides_the_page_into_whole_checksum_blocks() {
        let page = Page::deterministic(4);
        for len in (0..=8).map(|shift| PAGE_SIZE >> shift) {
            let unit = Page::unit(&page.as_ref()[..len]).expect("a legal length");
            assert_eq!(unit.as_ref(), &page.as_ref()[..len]);
            assert_eq!(unit.is_whole(), len == PAGE_SIZE);
        }
        assert_eq!(Page::unit(page.as_ref()), Some(page.clone()));
        for len in [0, 16, 48, 4_000, PAGE_SIZE - 32, PAGE_SIZE + 32] {
            let bytes = vec![7u8; len];
            assert!(Page::unit(&bytes).is_none(), "{len} bytes made a unit");
        }
        // A unit sums what it has: its last block counts, and it is not
        // the whole page's prefix sum by accident.
        let mut unit = Page::unit(&page.as_ref()[..2048]).expect("unit");
        let clean = unit.checksum();
        assert_ne!(clean, page.checksum());
        unit.as_mut()[2047] ^= 1;
        assert_ne!(unit.checksum(), clean);
        let mut shared = unit.clone();
        shared.clear();
        assert!(shared.is_zero() && shared.as_ref().len() == 2048 && !unit.is_zero());
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn a_unit_does_not_xor_into_a_page() {
        let unit = Page::unit(&[1u8; 2048]).expect("unit");
        Page::zeroed().xor_with(&unit);
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = Page::deterministic(1);
        let b = Page::deterministic(2);
        let mut x = a.clone();
        x.xor_with(&b);
        assert_ne!(x, a);
        x.xor_with(&b);
        assert_eq!(x, a);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a = Page::deterministic(42);
        let mut x = a.clone();
        x.xor_with(&a);
        assert!(x.is_zero());
    }

    #[test]
    fn deterministic_pages_differ_by_seed() {
        assert_ne!(Page::deterministic(1), Page::deterministic(2));
        assert_eq!(Page::deterministic(7), Page::deterministic(7));
    }

    #[test]
    fn checksum_detects_corruption() {
        let a = Page::deterministic(5);
        let mut b = a.clone();
        assert_eq!(a.checksum(), b.checksum());
        b.as_mut()[100] ^= 0xFF;
        assert_ne!(a.checksum(), b.checksum());
    }

    /// Every single-bit flip of `page` must change its checksum.
    fn every_bit_flip_shows(mut page: Page) {
        let clean = page.checksum();
        for bit in 0..PAGE_SIZE * 8 {
            page.as_mut()[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page.checksum(), clean, "flip of bit {bit} went unseen");
            page.as_mut()[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(page.checksum(), clean);
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        every_bit_flip_shows(Page::zeroed());
        every_bit_flip_shows(Page::deterministic(11));
    }

    #[test]
    fn checksum_sees_words_and_blocks_trading_places() {
        let page = Page::deterministic(23);
        let clean = page.checksum();
        // Two unequal words of one block sit in different lanes.
        for block in [0, 17, PAGE_SIZE / CHECKSUM_BLOCK - 1] {
            for (a, b) in [(0, 1), (0, 3), (1, 2), (2, 3)] {
                let (a, b) = (block * 4 + a, block * 4 + b);
                let mut swapped = page.clone();
                let bytes = swapped.as_mut();
                assert_ne!(bytes[a * 8..a * 8 + 8], bytes[b * 8..b * 8 + 8]);
                for i in 0..8 {
                    bytes.swap(a * 8 + i, b * 8 + i);
                }
                assert_ne!(swapped.checksum(), clean, "words {a} and {b} swapped");
            }
        }
        // Two unequal blocks feed the same lanes in a different order.
        for (a, b) in [(0, 1), (5, 200), (0, PAGE_SIZE / CHECKSUM_BLOCK - 1)] {
            let mut swapped = page.clone();
            let bytes = swapped.as_mut();
            for i in 0..CHECKSUM_BLOCK {
                bytes.swap(a * CHECKSUM_BLOCK + i, b * CHECKSUM_BLOCK + i);
            }
            assert_ne!(swapped, page);
            assert_ne!(swapped.checksum(), clean, "blocks {a} and {b} swapped");
        }
    }

    #[test]
    fn clones_share_until_one_is_written() {
        let a = Page::deterministic(3);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.buf, &b.buf), "a clone is a reference");
        b.as_mut()[0] ^= 1;
        assert!(!Arc::ptr_eq(&a.buf, &b.buf), "a write unshares first");
        assert_eq!(a, Page::deterministic(3), "and leaves the original be");
        let mut c = a.clone();
        c.clear();
        assert!(c.is_zero() && !a.is_zero());
    }

    #[test]
    fn clear_resets_contents() {
        let mut a = Page::deterministic(9);
        a.clear();
        assert!(a.is_zero());
    }

    #[test]
    fn debug_formatting_is_compact() {
        let s = format!("{:?}", Page::zeroed());
        assert!(s.contains("zero: true"));
    }
}
