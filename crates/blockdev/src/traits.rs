//! The paging-device contract.

use rmp_types::{Page, PageId, Result, TransferStats};

/// A device that can absorb pageouts and service pageins — the role the
/// DEC OSF/1 kernel assigns to its swap block device.
///
/// Implementors include the local backends in this crate and the remote
/// memory pager itself (`rmp_core::ShardedPager`), which is the whole point of the
/// paper: the kernel "just performs ordinary paging activities using a
/// block device" while the driver forwards requests to remote memory.
pub trait PagingDevice: Send {
    /// Stores `page` under `id`, overwriting any previous contents.
    ///
    /// A device may return before the write is done — the OSF/1 kernel
    /// never waited for its paging daemon's — so long as a `page_in(id)`
    /// meanwhile returns these bytes. A failure it meets after returning
    /// is reported once, by the next operation on `id` or the next
    /// `flush`, whichever comes first; an operation that reports one does
    /// nothing else. `flush` returns once every write is done.
    ///
    /// # Errors
    ///
    /// Propagates backend failures (I/O errors, exhausted swap space,
    /// crashed servers), this write's or an earlier one's of `id`.
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()>;

    /// Retrieves the page stored under `id`.
    ///
    /// # Errors
    ///
    /// Returns [`rmp_types::RmpError::PageNotFound`] when `id` was never
    /// paged out (or was freed), and propagates backend failures.
    fn page_in(&mut self, id: PageId) -> Result<Page>;

    /// Releases the page stored under `id`. Freeing an absent page is not
    /// an error (the kernel may free swap it never wrote).
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    fn free(&mut self, id: PageId) -> Result<()>;

    /// Returns `true` when a page is currently stored under `id`.
    fn contains(&self, id: PageId) -> bool;

    /// Flushes buffered state (e.g. seals a partial parity group) once
    /// every write has completed.
    ///
    /// # Errors
    ///
    /// Propagates backend failures, and a failure of a completed write
    /// that no operation on its page has reported yet.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Cumulative transfer statistics for this device.
    fn stats(&self) -> TransferStats;
}

/// Blanket implementation so `Box<dyn PagingDevice>` is itself a device.
impl PagingDevice for Box<dyn PagingDevice> {
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
        (**self).page_out(id, page)
    }

    fn page_in(&mut self, id: PageId) -> Result<Page> {
        (**self).page_in(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        (**self).free(id)
    }

    fn contains(&self, id: PageId) -> bool {
        (**self).contains(id)
    }

    fn flush(&mut self) -> Result<()> {
        (**self).flush()
    }

    fn stats(&self) -> TransferStats {
        (**self).stats()
    }
}
