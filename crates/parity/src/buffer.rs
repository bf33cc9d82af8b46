//! The client-side parity buffer of the parity-logging policy.

use rmp_types::{Page, PageId, ServerId, StoreKey};

use crate::group::GroupMember;

/// A completed parity group ready to ship to the parity server.
///
/// Produced by [`ParityBuffer`] when `S` pages have been absorbed (or on a
/// forced flush). The caller transfers `parity` to the parity server and
/// registers `members` in the [`crate::group::GroupTable`].
#[derive(Clone, Debug)]
pub struct SealedGroup {
    /// XOR of all member pages.
    pub parity: Page,
    /// The pages covered by this parity, in absorption order.
    pub members: Vec<GroupMember>,
}

/// Client-maintained page-sized XOR accumulator (Section 2.2, Parity
/// Logging): "Each paged out page is XORed with a page size buffer
/// maintained by the client (which is initially filled with zeros)...
/// Whenever S pages have been transfered, the buffer is also transfered to
/// a parity server."
///
/// # Examples
///
/// ```
/// use rmp_parity::ParityBuffer;
/// use rmp_types::{Page, PageId, ServerId, StoreKey};
///
/// let mut buf = ParityBuffer::new(2);
/// assert!(buf
///     .absorb(PageId(0), StoreKey(100), ServerId(0), &Page::deterministic(1))
///     .is_none());
/// let sealed = buf
///     .absorb(PageId(1), StoreKey(101), ServerId(1), &Page::deterministic(2))
///     .expect("group of 2 complete");
/// assert_eq!(sealed.members.len(), 2);
/// ```
#[derive(Debug)]
pub struct ParityBuffer {
    acc: Page,
    members: Vec<GroupMember>,
    group_size: usize,
}

impl ParityBuffer {
    /// Creates a buffer that seals a group after `group_size` pages.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(group_size: usize) -> Self {
        assert!(group_size > 0, "parity group size must be positive");
        ParityBuffer {
            acc: Page::zeroed(),
            members: Vec::with_capacity(group_size),
            group_size,
        }
    }

    /// Number of pages absorbed since the last seal.
    pub fn pending(&self) -> usize {
        self.members.len()
    }

    /// Configured group size `S`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// XORs `page` (shipped to `server` under storage key `key` for logical
    /// page `id`) into the buffer.
    ///
    /// Returns the sealed group when this absorption completes a group of
    /// `S` pages; the buffer then resets to zero for the next group.
    pub fn absorb(
        &mut self,
        id: PageId,
        key: StoreKey,
        server: ServerId,
        page: &Page,
    ) -> Option<SealedGroup> {
        self.acc.xor_with(page);
        self.members.push(GroupMember {
            page_id: id,
            key,
            server,
            active: true,
        });
        if self.members.len() == self.group_size {
            Some(self.seal())
        } else {
            None
        }
    }

    /// Force-seals the current partial group (used at flush/shutdown so a
    /// crash cannot leave recently paged-out pages without parity cover).
    ///
    /// Returns `None` when nothing is pending.
    pub fn flush(&mut self) -> Option<SealedGroup> {
        if self.members.is_empty() {
            None
        } else {
            Some(self.seal())
        }
    }

    /// Members absorbed since the last seal, in order.
    pub fn members(&self) -> &[GroupMember] {
        &self.members
    }

    /// The XOR accumulated so far — the parity of the *pending* members.
    ///
    /// During crash recovery this is the parity page of the not-yet-sealed
    /// group: a pending page lost with its server is rebuilt by XORing
    /// this accumulator with the other pending members.
    pub fn accumulated(&self) -> &Page {
        &self.acc
    }

    /// Rewrites the recorded location of a pending member after recovery
    /// re-stored it elsewhere. Returns `true` when a member under
    /// (`old_key`) was found.
    pub fn relocate(&mut self, old_key: StoreKey, server: ServerId, key: StoreKey) -> bool {
        for m in &mut self.members {
            if m.key == old_key {
                m.server = server;
                m.key = key;
                return true;
            }
        }
        false
    }

    /// Discards all pending state (crash recovery re-logs the pending
    /// pages through fresh groups instead of sealing stale membership).
    pub fn reset(&mut self) {
        self.acc.clear();
        self.members.clear();
    }

    /// Takes the pending member stored under `key` back out — the inverse
    /// of the absorb that added `page`.
    pub fn retract(&mut self, key: StoreKey, page: &Page) -> Option<GroupMember> {
        let at = self.members.iter().position(|m| m.key == key)?;
        self.acc.xor_with(page);
        Some(self.members.remove(at))
    }

    fn seal(&mut self) -> SealedGroup {
        let parity = std::mem::take(&mut self.acc);
        let members = std::mem::take(&mut self.members);
        self.members.reserve(self.group_size);
        SealedGroup { parity, members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xor::xor_reduce;

    fn absorb_n(buf: &mut ParityBuffer, pages: &[Page]) -> Option<SealedGroup> {
        let mut sealed = None;
        for (i, p) in pages.iter().enumerate() {
            sealed = buf.absorb(
                PageId(i as u64),
                StoreKey(1000 + i as u64),
                ServerId((i % 4) as u32),
                p,
            );
        }
        sealed
    }

    #[test]
    fn seals_exactly_at_group_size() {
        let mut buf = ParityBuffer::new(4);
        for i in 0..3u64 {
            assert!(buf
                .absorb(
                    PageId(i),
                    StoreKey(i),
                    ServerId(i as u32),
                    &Page::deterministic(i)
                )
                .is_none());
            assert_eq!(buf.pending(), i as usize + 1);
        }
        let sealed = buf
            .absorb(PageId(3), StoreKey(3), ServerId(3), &Page::deterministic(3))
            .expect("sealed");
        assert_eq!(sealed.members.len(), 4);
        assert_eq!(buf.pending(), 0);
        assert!(sealed.members.iter().all(|m| m.active));
    }

    #[test]
    fn sealed_parity_is_xor_of_members() {
        let pages: Vec<Page> = (10..14).map(Page::deterministic).collect();
        let mut buf = ParityBuffer::new(4);
        let sealed = absorb_n(&mut buf, &pages).expect("sealed after 4");
        assert_eq!(sealed.parity, xor_reduce(pages.iter()));
    }

    #[test]
    fn buffer_resets_between_groups() {
        let mut buf = ParityBuffer::new(2);
        let pages: Vec<Page> = vec![Page::deterministic(1), Page::deterministic(2)];
        let g1 = absorb_n(&mut buf, &pages).expect("first group");
        let g2 = absorb_n(&mut buf, &pages).expect("second group");
        assert_eq!(g1.parity, g2.parity);
    }

    #[test]
    fn retract_inverts_absorb() {
        let pages: Vec<Page> = (20..23).map(Page::deterministic).collect();
        let mut buf = ParityBuffer::new(4);
        assert!(absorb_n(&mut buf, &pages).is_none());
        let middle = buf.retract(StoreKey(1001), &pages[1]).expect("a member");
        assert_eq!(middle.page_id, PageId(1));
        assert_eq!(buf.accumulated(), &xor_reduce([&pages[0], &pages[2]]));
        let sealed = buf.flush().expect("two pending");
        assert_eq!(sealed.members.len(), 2);
    }

    #[test]
    fn flush_seals_partial_group() {
        let mut buf = ParityBuffer::new(4);
        assert!(buf.flush().is_none());
        let p = Page::deterministic(5);
        buf.absorb(PageId(0), StoreKey(9), ServerId(0), &p);
        let sealed = buf.flush().expect("partial seal");
        assert_eq!(sealed.members.len(), 1);
        assert_eq!(sealed.parity, p);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn members_record_key_and_server() {
        let mut buf = ParityBuffer::new(1);
        let sealed = buf
            .absorb(
                PageId(7),
                StoreKey(70),
                ServerId(3),
                &Page::deterministic(0),
            )
            .expect("group of one");
        assert_eq!(sealed.members[0].page_id, PageId(7));
        assert_eq!(sealed.members[0].key, StoreKey(70));
        assert_eq!(sealed.members[0].server, ServerId(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_size_panics() {
        let _ = ParityBuffer::new(0);
    }
}
