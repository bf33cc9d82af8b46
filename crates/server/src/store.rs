//! Server-side page storage with swap-space accounting.

use std::collections::BTreeMap;

use rmp_types::{Page, StoreKey};

/// In-memory page store of one remote memory server.
///
/// Pages are opaque: the store does not know whether a key holds a data
/// page, an inactive old version, a parity page or an erasure-coded
/// stripe's unit, which it keeps at its own length. Capacity is counted in
/// page frames; the server grants allocations against the *base* capacity
/// and lets stored pages run up to `base * (1 + overflow)` — the extra
/// overflow memory parity logging needs because "many versions of a given
/// page may be present simultaneously at the servers' memory".
#[derive(Debug)]
pub struct PageStore {
    pages: BTreeMap<StoreKey, Page>,
    /// Bytes of every page stored, units at their length.
    bytes: usize,
    /// Frames the server may promise to clients.
    base_capacity: usize,
    /// Fraction of extra frames kept for parity-logging overflow.
    overflow_fraction: f64,
    /// Frames promised via `Alloc` so far.
    granted: usize,
    /// Frames the host's native workload has taken back.
    native_usage: usize,
}

impl PageStore {
    /// Creates a store with `base_capacity` grantable frames and
    /// `overflow_fraction` extra overflow room.
    pub fn new(base_capacity: usize, overflow_fraction: f64) -> Self {
        PageStore {
            pages: BTreeMap::new(),
            bytes: 0,
            base_capacity,
            overflow_fraction,
            granted: 0,
            native_usage: 0,
        }
    }

    /// Hard limit on stored pages, including overflow headroom.
    pub fn hard_capacity(&self) -> usize {
        let effective = self.base_capacity.saturating_sub(self.native_usage);
        effective + (effective as f64 * self.overflow_fraction) as usize
    }

    /// Frames still grantable to allocation requests.
    pub fn grantable(&self) -> usize {
        self.base_capacity
            .saturating_sub(self.native_usage)
            .saturating_sub(self.granted)
    }

    /// Pages currently stored.
    pub fn stored(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of the pages stored: an erasure-coded unit counts its
    /// `PAGE_SIZE / k`, every other page its `PAGE_SIZE`.
    pub fn stored_bytes(&self) -> usize {
        self.bytes
    }

    /// Frames promised so far.
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// Records that the host's native workload occupies `pages` frames
    /// (Section 2.1: "When native memory-demanding processes start on a
    /// server workstation, part of the server's memory is swapped out").
    pub fn set_native_usage(&mut self, pages: usize) {
        self.native_usage = pages;
    }

    /// Grants up to `requested` frames, returning the amount granted
    /// (zero when the server is out of memory — the denial the paper
    /// describes).
    pub fn grant(&mut self, requested: usize) -> usize {
        let granted = requested.min(self.grantable());
        self.granted += granted;
        granted
    }

    /// Returns granted frames to the pool (client released swap space).
    pub fn ungrant(&mut self, frames: usize) {
        self.granted = self.granted.saturating_sub(frames);
    }

    /// Stores `page` under `key` if the hard capacity allows it.
    ///
    /// Returns `false` (storing nothing) when the store is full —
    /// overwrites of existing keys always succeed.
    pub fn insert(&mut self, key: StoreKey, page: Page) -> bool {
        self.replace(key, page).is_some()
    }

    /// Fetches the page under `key`: a reference to the stored buffer
    /// (pages are copy-on-write), so the caller can sum and encode it
    /// after letting go of whatever lock guards the store.
    pub fn get(&self, key: StoreKey) -> Option<Page> {
        self.pages.get(&key).cloned()
    }

    /// XORs `delta` into the page under `key`, creating a zero page first
    /// if absent (the parity-server update). Returns `false` when creating
    /// the page would exceed capacity.
    pub fn xor_into(&mut self, key: StoreKey, delta: &Page) -> bool {
        if let Some(existing) = self.pages.get_mut(&key) {
            existing.xor_with(delta);
            return true;
        }
        if self.pages.len() >= self.hard_capacity() {
            return false;
        }
        self.bytes += delta.as_ref().len();
        self.pages.insert(key, delta.clone());
        true
    }

    /// Stores `page` under `key` and returns what it replaced, if
    /// anything. Returns `None` (storing nothing) when the store is full
    /// and `key` was absent.
    pub fn replace(&mut self, key: StoreKey, page: Page) -> Option<Option<Page>> {
        if !self.pages.contains_key(&key) && self.pages.len() >= self.hard_capacity() {
            return None;
        }
        self.bytes += page.as_ref().len();
        let old = self.pages.insert(key, page);
        self.bytes -= old.as_ref().map_or(0, |old| old.as_ref().len());
        Some(old)
    }

    /// Replaces the page under `key` and returns `old XOR new` (equals the
    /// new page when no old version existed). Returns `None` when the
    /// store is full and `key` was absent.
    pub fn replace_delta(&mut self, key: StoreKey, page: Page) -> Option<Page> {
        let old = self.replace(key, page.clone())?;
        Some(delta_of(old, page))
    }

    /// Removes the page under `key`, returning the grant its frame
    /// consumed to the allocatable pool. Absent keys are fine.
    pub fn remove(&mut self, key: StoreKey) -> bool {
        if let Some(page) = self.pages.remove(&key) {
            self.bytes -= page.as_ref().len();
            self.ungrant(1);
            true
        } else {
            false
        }
    }

    /// Drops every page (crash injection).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.bytes = 0;
        self.granted = 0;
    }

    /// Lists up to `limit` keys greater than or equal to `start`, plus a
    /// flag indicating whether more remain.
    pub fn list_from(&self, start: StoreKey, limit: usize) -> (Vec<StoreKey>, bool) {
        self.list_range(start, StoreKey(u64::MAX), limit)
    }

    /// Lists up to `limit` keys in `start..end`, plus a flag indicating
    /// whether more remain inside the range (used to list one client
    /// session's namespace).
    pub fn list_range(
        &self,
        start: StoreKey,
        end: StoreKey,
        limit: usize,
    ) -> (Vec<StoreKey>, bool) {
        let mut iter = self.pages.range((
            std::ops::Bound::Included(start),
            std::ops::Bound::Excluded(end),
        ));
        let keys: Vec<StoreKey> = iter.by_ref().take(limit).map(|(&k, _)| k).collect();
        let more = iter.next().is_some();
        (keys, more)
    }

    /// Count of keys stored in `start..end` (a session's namespace).
    pub fn count_range(&self, start: StoreKey, end: StoreKey) -> usize {
        self.pages
            .range((
                std::ops::Bound::Included(start),
                std::ops::Bound::Excluded(end),
            ))
            .count()
    }

    /// Free-memory fraction relative to hard capacity (0.0 when full).
    pub fn free_fraction(&self) -> f64 {
        let cap = self.hard_capacity();
        if cap == 0 {
            return 0.0;
        }
        (cap.saturating_sub(self.pages.len())) as f64 / cap as f64
    }
}

/// The delta a basic-parity pageout answers with: `old XOR new`, or
/// `new` itself when the key held nothing. A page-sized pass, kept out of
/// [`PageStore::replace`] so that a server can take it after unlocking.
pub fn delta_of(old: Option<Page>, new: Page) -> Page {
    match old {
        Some(mut delta) => {
            delta.xor_with(&new);
            delta
        }
        None => new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_exhausted() {
        let mut s = PageStore::new(10, 0.0);
        assert_eq!(s.grant(6), 6);
        assert_eq!(s.grant(6), 4, "only 4 frames left");
        assert_eq!(s.grant(1), 0, "denied");
        s.ungrant(5);
        assert_eq!(s.grant(10), 5);
    }

    #[test]
    fn native_usage_shrinks_grantable() {
        let mut s = PageStore::new(10, 0.0);
        s.set_native_usage(7);
        assert_eq!(s.grantable(), 3);
        assert_eq!(s.grant(10), 3);
    }

    #[test]
    fn overflow_allows_extra_versions() {
        let mut s = PageStore::new(10, 0.10);
        assert_eq!(s.hard_capacity(), 11);
        for i in 0..11u64 {
            assert!(s.insert(StoreKey(i), Page::zeroed()), "page {i}");
        }
        assert!(!s.insert(StoreKey(11), Page::zeroed()), "hard limit");
        // Overwrite still works at capacity.
        assert!(s.insert(StoreKey(0), Page::filled(1)));
    }

    #[test]
    fn xor_into_creates_then_accumulates() {
        let mut s = PageStore::new(4, 0.0);
        let a = Page::deterministic(1);
        let b = Page::deterministic(2);
        assert!(s.xor_into(StoreKey(0), &a));
        assert!(s.xor_into(StoreKey(0), &b));
        let mut expect = a.clone();
        expect.xor_with(&b);
        assert_eq!(s.get(StoreKey(0)).expect("present"), expect);
    }

    #[test]
    fn replace_delta_returns_old_xor_new() {
        let mut s = PageStore::new(4, 0.0);
        let old = Page::deterministic(1);
        let new = Page::deterministic(2);
        // First store: delta equals the new page.
        let d0 = s.replace_delta(StoreKey(0), old.clone()).expect("fits");
        assert_eq!(d0, old);
        let d1 = s.replace_delta(StoreKey(0), new.clone()).expect("fits");
        let mut expect = old.clone();
        expect.xor_with(&new);
        assert_eq!(d1, expect);
        assert_eq!(s.get(StoreKey(0)).expect("present"), new);
    }

    #[test]
    fn stored_bytes_count_units_at_their_length() {
        let mut s = PageStore::new(8, 0.0);
        let unit = Page::unit(&[3u8; 2048]).expect("unit");
        assert!(s.insert(StoreKey(0), Page::zeroed()));
        assert!(s.insert(StoreKey(1), unit.clone()));
        assert!(s.xor_into(StoreKey(2), &Page::filled(1)));
        assert_eq!(s.stored_bytes(), 2 * 8192 + 2048);
        // An overwrite counts the new length, not both.
        assert!(s.insert(StoreKey(0), unit));
        assert_eq!(s.stored_bytes(), 8192 + 2 * 2048);
        assert!(s.remove(StoreKey(2)));
        assert_eq!(s.stored_bytes(), 2 * 2048);
        s.clear();
        assert_eq!(s.stored_bytes(), 0);
    }

    #[test]
    fn list_from_paginates_in_order() {
        let mut s = PageStore::new(100, 0.0);
        for i in [5u64, 1, 9, 3, 7, 0] {
            s.insert(StoreKey(i), Page::zeroed());
        }
        let (first, more) = s.list_from(StoreKey(0), 2);
        assert_eq!(first, vec![StoreKey(0), StoreKey(1)]);
        assert!(more);
        let (rest, more) = s.list_from(StoreKey(4), 10);
        assert_eq!(rest, vec![StoreKey(5), StoreKey(7), StoreKey(9)]);
        assert!(!more);
        // `start` itself is included.
        let (incl, _) = s.list_from(StoreKey(9), 10);
        assert_eq!(incl, vec![StoreKey(9)]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut s = PageStore::new(4, 0.0);
        s.grant(2);
        s.insert(StoreKey(1), Page::zeroed());
        s.clear();
        assert_eq!(s.stored(), 0);
        assert_eq!(s.granted(), 0);
        assert!(s.get(StoreKey(1)).is_none());
    }

    #[test]
    fn free_fraction_tracks_occupancy() {
        let mut s = PageStore::new(4, 0.0);
        assert_eq!(s.free_fraction(), 1.0);
        s.insert(StoreKey(0), Page::zeroed());
        s.insert(StoreKey(1), Page::zeroed());
        assert!((s.free_fraction() - 0.5).abs() < 1e-12);
        let empty_cap = PageStore::new(0, 0.0);
        assert_eq!(empty_cap.free_fraction(), 0.0);
    }
}
