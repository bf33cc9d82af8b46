//! `PagedMemory` keeps a small cache of recent translations in front of
//! its page table. A cache must change nothing but speed: random read,
//! write, discard and sync sequences run on `PagedMemory<RamDisk>` and on
//! a reference model that looks every page up in a plain `HashMap`, and
//! both must return the same bytes, count the same `FaultStats` and send
//! their device the same operations in the same order.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_types::{Page, PageId, Result, TransferStats};
use rmp_vm::{FaultStats, PagedMemory, VmConfig};

/// One device operation, as the device saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DeviceOp {
    PageOut(PageId, u64),
    PageIn(PageId),
    Free(PageId),
    Flush,
}

/// A `RamDisk` that records every operation put to it.
struct Recorder {
    disk: RamDisk,
    ops: Vec<DeviceOp>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            disk: RamDisk::unbounded(),
            ops: Vec::new(),
        }
    }
}

impl PagingDevice for Recorder {
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.ops.push(DeviceOp::PageOut(id, page.checksum()));
        self.disk.page_out(id, page)
    }

    fn page_in(&mut self, id: PageId) -> Result<Page> {
        self.ops.push(DeviceOp::PageIn(id));
        self.disk.page_in(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.ops.push(DeviceOp::Free(id));
        self.disk.free(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.disk.contains(id)
    }

    fn flush(&mut self) -> Result<()> {
        self.ops.push(DeviceOp::Flush);
        self.disk.flush()
    }

    fn stats(&self) -> TransferStats {
        self.disk.stats()
    }
}

/// The resident-set manager as it reads with no translation cache: LRU
/// over `frames` frames, every access looked up in a `HashMap`, frames
/// handed out lowest first and a discarded one handed out next.
struct Reference {
    device: Recorder,
    frames: Vec<Page>,
    frame_of: HashMap<PageId, usize>,
    page_of: Vec<Option<PageId>>,
    dirty: Vec<bool>,
    stamp: Vec<u64>,
    tick: u64,
    free_frames: Vec<usize>,
    on_device: HashSet<PageId>,
    stats: FaultStats,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            device: Recorder::new(),
            frames: vec![Page::zeroed(); n],
            frame_of: HashMap::new(),
            page_of: vec![None; n],
            dirty: vec![false; n],
            stamp: vec![0; n],
            tick: 0,
            free_frames: (0..n).rev().collect(),
            on_device: HashSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// The frame holding `id` once it is resident, its access counted.
    fn access(&mut self, id: PageId) -> usize {
        self.stats.accesses += 1;
        let frame = match self.frame_of.get(&id) {
            Some(&frame) => {
                self.stats.hits += 1;
                frame
            }
            None => self.load(id),
        };
        self.tick += 1;
        self.stamp[frame] = self.tick;
        frame
    }

    fn load(&mut self, id: PageId) -> usize {
        let frame = self.free_frames.pop().unwrap_or_else(|| self.evict());
        if self.on_device.contains(&id) {
            self.frames[frame] = self.device.page_in(id).expect("page in");
            self.stats.pageins += 1;
        } else {
            self.frames[frame] = Page::zeroed();
            self.stats.zero_fills += 1;
        }
        self.frame_of.insert(id, frame);
        self.page_of[frame] = Some(id);
        self.dirty[frame] = false;
        self.tick += 1;
        self.stamp[frame] = self.tick;
        frame
    }

    fn evict(&mut self) -> usize {
        let frame = (0..self.stamp.len())
            .min_by_key(|&f| self.stamp[f])
            .expect("a frame");
        let victim = self.page_of[frame].take().expect("occupied");
        if self.dirty[frame] {
            self.device
                .page_out(victim, &self.frames[frame])
                .expect("page out");
            self.on_device.insert(victim);
            self.stats.pageouts += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        self.frame_of.remove(&victim);
        frame
    }

    fn read(&mut self, id: PageId, offset: usize) -> u8 {
        let frame = self.access(id);
        self.frames[frame].as_ref()[offset]
    }

    fn write(&mut self, id: PageId, offset: usize, byte: u8) {
        let frame = self.access(id);
        self.dirty[frame] = true;
        self.frames[frame].as_mut()[offset] = byte;
    }

    fn discard(&mut self, id: PageId) {
        if let Some(frame) = self.frame_of.remove(&id) {
            self.page_of[frame] = None;
            self.dirty[frame] = false;
            self.free_frames.push(frame);
        }
        if self.on_device.remove(&id) {
            self.device.free(id).expect("free");
        }
    }

    fn sync(&mut self) {
        for frame in 0..self.frames.len() {
            if self.dirty[frame] {
                let id = self.page_of[frame].expect("dirty frame is occupied");
                self.device.page_out(id, &self.frames[frame]).expect("sync");
                self.on_device.insert(id);
                self.dirty[frame] = false;
                self.stats.pageouts += 1;
            }
        }
        self.device.flush().expect("flush");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads, writes, discards and syncs over a few pages — few enough
    /// that an evicted or discarded page is soon touched again, while its
    /// translation would still be cached if it were left behind.
    #[test]
    fn the_translation_cache_changes_nothing_but_speed(
        frames in 1usize..5,
        ops in prop::collection::vec((0u8..8, 0u64..6, any::<u8>(), 0usize..8192), 1..200),
    ) {
        let mut vm = PagedMemory::new(Recorder::new(), VmConfig::with_frames(frames));
        let mut reference = Reference::new(frames);
        for (op, page, byte, offset) in ops {
            let id = PageId(page);
            match op {
                0..=3 => {
                    let got = vm.read(id, |p| p.as_ref()[offset]).unwrap();
                    prop_assert_eq!(got, reference.read(id, offset), "page {} offset {}", page, offset);
                }
                4..=5 => {
                    vm.write(id, |p| p.as_mut()[offset] = byte).unwrap();
                    reference.write(id, offset, byte);
                }
                6 => {
                    vm.discard(id).unwrap();
                    reference.discard(id);
                }
                _ => {
                    vm.sync().unwrap();
                    reference.sync();
                }
            }
            prop_assert_eq!(vm.stats(), reference.stats);
            prop_assert_eq!(vm.resident(), reference.frame_of.len());
        }
        prop_assert_eq!(&vm.device().ops, &reference.device.ops);
    }
}
