//! What a resident frame costs, as a count of allocations.
//!
//! A frame is the workstation's own bytes: an access to a resident page
//! allocates nothing, and bytes become a `Page` only on their way through
//! the device. So a fault that evicts a dirty page allocates exactly that
//! page's copy for the device, and one that evicts a clean page nothing.
//! Counts repeat exactly from run to run, so there is no timing here: a
//! change that puts a reference count, or a copy-on-write page, back
//! between the application and its frame fails by the number it added.
//!
//! The counting allocator counts only the thread that armed it, so the
//! tests of this binary may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_types::{PageId, PAGE_SIZE};
use rmp_vm::{PagedArray, PagedMemory, VmConfig};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + size as u64);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s contract is the one upheld; the counters are
// const-initialised thread-locals with no destructor, which allocate
// nothing and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread makes while `op` runs.
fn counted(op: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.get(), BYTES.get());
    ARMED.set(true);
    op();
    ARMED.set(false);
    (ALLOCS.get() - before.0, BYTES.get() - before.1)
}

const PAGES: u64 = 3;
const OPS: u64 = 300;

/// Two frames over three pages, every page written and paged out once,
/// so the page table, the device and its maps hold every page id a test
/// touches and grow no further.
fn warm() -> PagedMemory<RamDisk> {
    let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(2));
    for round in 0..3 {
        for id in 0..PAGES {
            vm.write(PageId(id), |p| p.as_mut()[0] = round)
                .expect("warm");
        }
    }
    vm
}

#[test]
fn a_resident_access_allocates_nothing() {
    let mut vm = warm();
    let row = PagedArray::<f64>::new(0, PagedArray::<f64>::PER_PAGE);
    row.set(&mut vm, 0, 1.0).expect("resident");
    let faults = vm.stats().faults();
    let (allocs, _) = counted(|| {
        for i in 0..OPS as usize {
            let j = i % row.len();
            let v = row.get(&mut vm, j).expect("get");
            row.update(&mut vm, j, |x| x + v + 1.0).expect("update");
        }
    });
    assert_eq!(vm.stats().faults(), faults, "every access was resident");
    assert_eq!(allocs, 0, "a resident get or update allocated");
}

#[test]
fn a_dirty_eviction_allocates_one_page_and_a_clean_one_none() {
    let mut vm = warm();
    // Three pages cycled over two frames, LRU: every access faults and
    // evicts the page touched two accesses before.
    let pageouts = vm.stats().pageouts;
    let (allocs, bytes) = counted(|| {
        for i in 0..OPS {
            vm.write(PageId(i % PAGES), |p| p.as_mut()[1] = i as u8)
                .expect("write");
        }
    });
    assert_eq!(
        vm.stats().pageouts - pageouts,
        OPS,
        "each write evicted a dirty page"
    );
    assert_eq!(allocs, OPS, "a dirty eviction is one allocation");
    let per = bytes / OPS;
    assert!(
        (PAGE_SIZE as u64..2 * PAGE_SIZE as u64).contains(&per),
        "a dirty eviction allocated {per} bytes, not one page"
    );

    vm.sync().expect("sync");
    let clean = vm.stats().clean_evictions;
    let (allocs, _) = counted(|| {
        for i in 0..OPS {
            vm.read(PageId(i % PAGES), |p| p.as_ref()[1]).expect("read");
        }
    });
    assert_eq!(
        vm.stats().clean_evictions - clean,
        OPS,
        "each read evicted a clean page"
    );
    assert_eq!(allocs, 0, "a clean eviction allocated");
}

/// The device's copy of `id`, read off the device without a fault.
fn on_device(vm: &mut PagedMemory<RamDisk>, id: PageId) -> Vec<u8> {
    vm.device_mut()
        .page_in(id)
        .expect("on the device")
        .as_ref()
        .to_vec()
}

#[test]
fn the_device_keeps_a_snapshot_not_the_frame() {
    let mut vm = warm();
    // After a sync the page is both resident and on the device; a later
    // store goes to the frame alone.
    vm.write(PageId(0), |p| p.as_mut().fill(7)).expect("write");
    vm.sync().expect("sync");
    vm.write(PageId(0), |p| p.as_mut()[9] = 8).expect("rewrite");
    assert!(vm.is_resident(PageId(0)));
    assert!(on_device(&mut vm, PageId(0)).iter().all(|&b| b == 7));

    // A fault on a page the device keeps copies it in: a store to the
    // frame leaves the device's page as it was paged out.
    let kept = on_device(&mut vm, PageId(1));
    assert!(!vm.is_resident(PageId(1)));
    let pageins = vm.stats().pageins;
    vm.write(PageId(1), |p| p.as_mut().fill(9))
        .expect("fault in");
    assert_eq!(
        vm.stats().pageins,
        pageins + 1,
        "page 1 came off the device"
    );
    assert_eq!(on_device(&mut vm, PageId(1)), kept);
    assert_eq!(vm.read(PageId(1), |p| p[100]).expect("read"), 9);
}
