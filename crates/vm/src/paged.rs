//! The resident-set manager.

use std::collections::{HashMap, HashSet};

use rmp_blockdev::PagingDevice;
use rmp_types::{Page, PageId, Result, PAGE_SIZE};

use crate::policy::{Replacement, ReplacementState};
use crate::stats::FaultStats;

/// Virtual-memory configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Resident frames available to the application — the "main memory"
    /// of the simulated workstation (a 32 MB DEC-Alpha holds 4096 8 KB
    /// frames, minus what the OS keeps).
    pub resident_frames: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl VmConfig {
    /// Configuration with `resident_frames` frames and LRU replacement.
    pub fn with_frames(resident_frames: usize) -> Self {
        VmConfig {
            resident_frames,
            replacement: Replacement::Lru,
        }
    }
}

/// A demand-paged memory: a bounded resident set in front of a
/// [`PagingDevice`].
///
/// Applications address pages by [`PageId`] and access their bytes through
/// closures; faults and evictions translate into `page_in`/`page_out`
/// calls on the device, reproducing the kernel-to-pager request stream of
/// the paper's testbed.
///
/// A frame is the workstation's own `PAGE_SIZE` bytes, as physical
/// memory is under the kernel: an access to a resident page reads or
/// stores them in place, with no [`Page`] and no reference count between.
/// Bytes become a [`Page`] only on their way through the device: a fault
/// copies the device's page into its frame, and a dirty eviction or
/// [`sync`](Self::sync) hands the device a copy of the frame, a snapshot
/// that later stores to the still-resident frame leave alone.
///
/// # Examples
///
/// ```
/// use rmp_blockdev::RamDisk;
/// use rmp_vm::{PagedMemory, VmConfig};
/// use rmp_types::PageId;
///
/// let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(2));
/// vm.write(PageId(0), |p| p.as_mut()[0] = 42).unwrap();
/// // Touch two more pages to force page 0 out of the resident set...
/// vm.write(PageId(1), |p| p.as_mut()[0] = 1).unwrap();
/// vm.write(PageId(2), |p| p.as_mut()[0] = 2).unwrap();
/// // ...and fault it back in.
/// let v = vm.read(PageId(0), |p| p.as_ref()[0]).unwrap();
/// assert_eq!(v, 42);
/// assert!(vm.stats().pageouts >= 1);
/// ```
pub struct PagedMemory<D> {
    device: D,
    frames: Vec<[u8; PAGE_SIZE]>,
    frame_of: HashMap<PageId, usize>,
    /// The last two translations taken from `frame_of`, the later first:
    /// an access to a resident page looks here before it hashes. An entry
    /// leaves with its page, on evict and on discard.
    recent: [Option<(PageId, usize)>; 2],
    page_of: Vec<Option<PageId>>,
    dirty: Vec<bool>,
    free_frames: Vec<usize>,
    replacement: ReplacementState,
    /// Pages that have a current copy on the device.
    on_device: HashSet<PageId>,
    stats: FaultStats,
}

impl<D: PagingDevice> PagedMemory<D> {
    /// Creates a paged memory over `device`.
    ///
    /// # Panics
    ///
    /// Panics when `config.resident_frames` is zero — at least one frame
    /// is needed to make progress.
    pub fn new(device: D, config: VmConfig) -> Self {
        assert!(config.resident_frames > 0, "need at least one frame");
        let n = config.resident_frames;
        PagedMemory {
            device,
            frames: vec![[0; PAGE_SIZE]; n],
            frame_of: HashMap::new(),
            recent: [None; 2],
            page_of: vec![None; n],
            dirty: vec![false; n],
            free_frames: (0..n).rev().collect(),
            replacement: ReplacementState::new(config.replacement, n),
            on_device: HashSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// Reads page `id` through `f`, which is handed its frame in place.
    ///
    /// A never-written page reads as zeros (demand-zero fill).
    ///
    /// # Errors
    ///
    /// Propagates device failures from faults and evictions.
    #[inline]
    pub fn read<R>(&mut self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let frame = self.fault_in(id)?;
        self.stats.accesses += 1;
        self.replacement.on_access(frame);
        Ok(f(&self.frames[frame]))
    }

    /// Mutates page `id` in place through `f`, marking it dirty.
    ///
    /// # Errors
    ///
    /// Propagates device failures from faults and evictions.
    #[inline]
    pub fn write<R>(&mut self, id: PageId, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> Result<R> {
        let frame = self.fault_in(id)?;
        self.stats.accesses += 1;
        self.replacement.on_access(frame);
        self.dirty[frame] = true;
        Ok(f(&mut self.frames[frame]))
    }

    /// Ensures `id` is resident, returning its frame index: a hit in the
    /// recent translations here, anything else out of line.
    #[inline]
    fn fault_in(&mut self, id: PageId) -> Result<usize> {
        for &(page, frame) in self.recent.iter().flatten() {
            if page == id {
                self.stats.hits += 1;
                return Ok(frame);
            }
        }
        self.look_up(id)
    }

    /// The frame of `id` from the page table, kept in place of the older
    /// recent translation, else a fault.
    #[inline(never)]
    fn look_up(&mut self, id: PageId) -> Result<usize> {
        match self.frame_of.get(&id) {
            Some(&frame) => {
                self.recent = [Some((id, frame)), self.recent[0]];
                self.stats.hits += 1;
                Ok(frame)
            }
            None => self.fault(id),
        }
    }

    /// Makes non-resident `id` resident: a free frame, or an evicted one,
    /// filled with the device's copy of `id`, or with zeros.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, id: PageId) -> Result<usize> {
        let frame = match self.free_frames.pop() {
            Some(f) => f,
            None => self.evict()?,
        };
        if self.on_device.contains(&id) {
            let page = self.device.page_in(id).inspect_err(|_| {
                // The frame was emptied for `id`: it stays free.
                self.free_frames.push(frame);
            })?;
            self.frames[frame].copy_from_slice(page.as_ref());
            self.stats.pageins += 1;
        } else {
            self.frames[frame].fill(0);
            self.stats.zero_fills += 1;
        }
        self.frame_of.insert(id, frame);
        self.recent = [Some((id, frame)), self.recent[0]];
        self.page_of[frame] = Some(id);
        self.dirty[frame] = false;
        self.replacement.on_load(frame);
        Ok(frame)
    }

    /// Removes `id` from the page table and the recent translations,
    /// returning the frame it held.
    fn unmap(&mut self, id: PageId) -> Option<usize> {
        for entry in &mut self.recent {
            if entry.is_some_and(|(page, _)| page == id) {
                *entry = None;
            }
        }
        self.frame_of.remove(&id)
    }

    /// Evicts one frame, writing it back if dirty, and returns it.
    fn evict(&mut self) -> Result<usize> {
        let frame = self.replacement.choose_victim();
        let victim = self.page_of[frame].expect("occupied frame");
        if self.dirty[frame] {
            self.device.page_out(victim, &self.snapshot(frame))?;
            self.on_device.insert(victim);
            self.stats.pageouts += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        self.unmap(victim);
        self.page_of[frame] = None;
        Ok(frame)
    }

    /// The bytes of `frame` as a page of their own for the device.
    fn snapshot(&self, frame: usize) -> Page {
        Page::from_slice(&self.frames[frame]).expect("a frame is a whole page")
    }

    /// Writes every dirty resident page to the device (orderly shutdown or
    /// checkpoint) and flushes the device.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn sync(&mut self) -> Result<()> {
        for frame in 0..self.frames.len() {
            if self.dirty[frame] {
                let id = self.page_of[frame].expect("dirty frame is occupied");
                self.device.page_out(id, &self.snapshot(frame))?;
                self.on_device.insert(id);
                self.dirty[frame] = false;
                self.stats.pageouts += 1;
            }
        }
        self.device.flush()
    }

    /// Drops page `id` entirely: from the resident set and the device
    /// (swap-space release when data dies).
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn discard(&mut self, id: PageId) -> Result<()> {
        if let Some(frame) = self.unmap(id) {
            self.page_of[frame] = None;
            self.dirty[frame] = false;
            self.free_frames.push(frame);
        }
        if self.on_device.remove(&id) {
            self.device.free(id)?;
        }
        Ok(())
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.frame_of.len()
    }

    /// Returns `true` when `id` is resident.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.frame_of.contains_key(&id)
    }

    /// Fault statistics accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Reference to the backing device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable reference to the backing device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Consumes the memory, returning the backing device.
    pub fn into_device(self) -> D {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmp_blockdev::RamDisk;

    fn vm(frames: usize) -> PagedMemory<RamDisk> {
        PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(frames))
    }

    #[test]
    fn zero_fill_on_first_touch() {
        let mut m = vm(2);
        let first = m.read(PageId(0), |p| p.as_ref()[123]).expect("read");
        assert_eq!(first, 0);
        assert_eq!(m.stats().zero_fills, 1);
        assert_eq!(m.stats().pageins, 0);
    }

    #[test]
    fn data_survives_eviction() {
        let mut m = vm(2);
        m.write(PageId(0), |p| p.as_mut()[0] = 10).expect("write");
        m.write(PageId(1), |p| p.as_mut()[0] = 11).expect("write");
        m.write(PageId(2), |p| p.as_mut()[0] = 12).expect("write");
        assert_eq!(m.resident(), 2);
        for (id, val) in [(0u64, 10u8), (1, 11), (2, 12)] {
            let got = m.read(PageId(id), |p| p.as_ref()[0]).expect("read");
            assert_eq!(got, val, "page {id}");
        }
        assert!(m.stats().pageouts >= 1);
        assert!(m.stats().pageins >= 1);
    }

    #[test]
    fn clean_pages_evict_without_io() {
        let mut m = vm(1);
        m.write(PageId(0), |p| p.as_mut()[0] = 1).expect("write");
        // Evict 0 (dirty -> pageout), load 1 clean.
        m.read(PageId(1), |_| ()).expect("read");
        assert_eq!(m.stats().pageouts, 1);
        // Evict 1 (clean -> dropped), reload 0.
        m.read(PageId(0), |_| ()).expect("read");
        assert_eq!(m.stats().pageouts, 1, "no write-back for clean page");
        assert_eq!(m.stats().clean_evictions, 1);
    }

    #[test]
    fn rewritten_page_is_paged_out_again() {
        let mut m = vm(1);
        m.write(PageId(0), |p| p.as_mut()[0] = 1).expect("write");
        m.read(PageId(1), |_| ()).expect("evicts 0 dirty");
        m.write(PageId(0), |p| p.as_mut()[0] = 2)
            .expect("faults 0 back, dirties");
        m.read(PageId(1), |_| ()).expect("evicts 0 dirty again");
        assert_eq!(m.stats().pageouts, 2);
        let v = m.read(PageId(0), |p| p.as_ref()[0]).expect("read");
        assert_eq!(v, 2);
    }

    #[test]
    fn sync_writes_dirty_residents() {
        let mut m = vm(4);
        for i in 0..3u64 {
            m.write(PageId(i), |p| p.as_mut()[0] = i as u8)
                .expect("write");
        }
        assert_eq!(m.device().stats().pageouts, 0);
        m.sync().expect("sync");
        assert_eq!(m.device().stats().pageouts, 3);
        // Second sync writes nothing (all clean now).
        m.sync().expect("sync");
        assert_eq!(m.device().stats().pageouts, 3);
    }

    #[test]
    fn discard_releases_everywhere() {
        let mut m = vm(1);
        m.write(PageId(0), |p| p.as_mut()[0] = 1).expect("write");
        m.read(PageId(1), |_| ()).expect("evict 0 to device");
        assert!(m.device().contains(PageId(0)));
        m.discard(PageId(0)).expect("discard");
        assert!(!m.device().contains(PageId(0)));
        // Re-reading after discard is a fresh zero page.
        let v = m.read(PageId(0), |p| p.as_ref()[0]).expect("read");
        assert_eq!(v, 0);
    }

    #[test]
    fn an_evicted_page_leaves_no_translation_behind() {
        let mut m = vm(1);
        m.write(PageId(0), |p| p.as_mut()[0] = 10).expect("write");
        // Page 1 takes page 0's frame: a translation of 0 left behind
        // would read 1's bytes there, with no fault.
        m.write(PageId(1), |p| p.as_mut()[0] = 11).expect("write");
        let v = m.read(PageId(0), |p| p.as_ref()[0]).expect("read");
        assert_eq!(v, 10);
        assert_eq!(m.stats().pageins, 1, "page 0 was not faulted back in");
    }

    #[test]
    fn a_discarded_page_leaves_no_translation_behind() {
        let mut m = vm(2);
        m.write(PageId(0), |p| p.as_mut()[0] = 1).expect("write");
        m.discard(PageId(0)).expect("discard");
        // Page 1 takes the frame page 0 gave up.
        m.write(PageId(1), |p| p.as_mut()[0] = 7).expect("write");
        let v = m.read(PageId(0), |p| p.as_ref()[0]).expect("read");
        assert_eq!(v, 0, "a discarded page reads as a fresh zero page");
        assert_eq!(m.stats().zero_fills, 3);
    }

    /// A RAM disk whose next `page_in` fails when `fail_next` is set.
    struct Flaky {
        disk: RamDisk,
        fail_next: bool,
    }

    impl PagingDevice for Flaky {
        fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
            self.disk.page_out(id, page)
        }

        fn page_in(&mut self, id: PageId) -> Result<Page> {
            match std::mem::take(&mut self.fail_next) {
                true => Err(rmp_types::RmpError::PageNotFound(id)),
                false => self.disk.page_in(id),
            }
        }

        fn free(&mut self, id: PageId) -> Result<()> {
            self.disk.free(id)
        }

        fn contains(&self, id: PageId) -> bool {
            self.disk.contains(id)
        }

        fn stats(&self) -> rmp_types::TransferStats {
            self.disk.stats()
        }
    }

    #[test]
    fn a_failed_fault_leaves_its_frame_free() {
        let disk = Flaky {
            disk: RamDisk::unbounded(),
            fail_next: false,
        };
        let mut m = PagedMemory::new(disk, VmConfig::with_frames(2));
        for id in 0..3 {
            m.write(PageId(id), |p| p.as_mut()[0] = id as u8 + 1)
                .expect("write");
        }
        m.device_mut().fail_next = true;
        assert!(m.read(PageId(0), |_| ()).is_err());
        assert_eq!(m.resident(), 1, "the evicted page went to the device");
        // The frame the failed fault emptied is taken before any
        // eviction, which would find it holding no page.
        for id in 0..3 {
            let v = m.read(PageId(id), |p| p.as_ref()[0]).expect("read");
            assert_eq!(v, id as u8 + 1, "page {id}");
        }
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let mut m = vm(4);
        for _ in 0..100 {
            m.read(PageId(0), |_| ()).expect("read");
        }
        assert!(m.stats().hit_ratio() > 0.98);
    }

    #[test]
    fn working_set_larger_than_memory_thrashes() {
        let mut m = vm(2);
        // Cyclic access over 4 pages with LRU over 2 frames: every access
        // past the warm-up faults.
        for round in 0..5u64 {
            for id in 0..4u64 {
                m.write(PageId(id), |p| p.as_mut()[0] = round as u8)
                    .expect("write");
            }
        }
        let s = m.stats();
        assert!(s.faults() >= 16, "cyclic overcommit must thrash, got {s:?}");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = vm(0);
    }
}
