//! Property tests: a paged memory must be indistinguishable from flat
//! memory, for any access pattern and any (positive) resident-set size.

use proptest::prelude::*;
use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_types::PageId;
use rmp_vm::{PagedArray, PagedMemory, Replacement, VmConfig};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of reads, writes and discards over a
    /// paged memory agree byte-for-byte with a reference map, for every
    /// replacement policy and resident-set size.
    #[test]
    fn paged_memory_matches_flat_memory(
        frames in 1usize..6,
        policy_idx in 0usize..3,
        ops in prop::collection::vec((0u8..3, 0u64..12, any::<u8>(), 0usize..8192), 1..120),
    ) {
        let policy = [Replacement::Lru, Replacement::Fifo, Replacement::Clock][policy_idx];
        let mut vm = PagedMemory::new(
            RamDisk::unbounded(),
            VmConfig {
                resident_frames: frames,
                replacement: policy,
            },
        );
        let mut reference: HashMap<(u64, usize), u8> = HashMap::new();
        for (op, page, byte, offset) in ops {
            match op {
                0 => {
                    vm.write(PageId(page), |p| p.as_mut()[offset] = byte).unwrap();
                    reference.insert((page, offset), byte);
                }
                1 => {
                    let got = vm.read(PageId(page), |p| p.as_ref()[offset]).unwrap();
                    let expect = reference.get(&(page, offset)).copied().unwrap_or(0);
                    prop_assert_eq!(got, expect, "page {} offset {}", page, offset);
                }
                _ => {
                    vm.discard(PageId(page)).unwrap();
                    reference.retain(|&(p, _), _| p != page);
                }
            }
            prop_assert!(vm.resident() <= frames);
        }
        // Final sweep: every tracked byte reads back.
        for (&(page, offset), &expect) in &reference {
            let got = vm.read(PageId(page), |p| p.as_ref()[offset]).unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    /// A typed array over paged memory behaves like a `Vec`, including
    /// across evictions.
    #[test]
    fn paged_array_matches_vec(
        frames in 1usize..4,
        len in 1usize..5000,
        writes in prop::collection::vec((any::<prop::sample::Index>(), any::<u64>()), 1..60),
    ) {
        let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(frames));
        let arr = PagedArray::<u64>::new(0, len);
        let mut reference = vec![0u64; len];
        for (idx, value) in writes {
            let i = idx.index(len);
            arr.set(&mut vm, i, value).unwrap();
            reference[i] = value;
        }
        let collected = arr.to_vec(&mut vm).unwrap();
        prop_assert_eq!(collected, reference);
    }

    /// Fault accounting is conserved: every access is a hit or a fault,
    /// and pageouts never exceed faults (only evicted-dirty pages write).
    #[test]
    fn fault_accounting_is_conserved(
        frames in 1usize..5,
        ops in prop::collection::vec((any::<bool>(), 0u64..10), 1..100),
    ) {
        let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(frames));
        for (write, page) in ops {
            if write {
                vm.write(PageId(page), |p| p.as_mut()[0] = 1).unwrap();
            } else {
                vm.read(PageId(page), |_| ()).unwrap();
            }
        }
        let s = vm.stats();
        prop_assert_eq!(s.accesses, s.hits + s.pageins + s.zero_fills);
        prop_assert!(s.pageouts <= s.pageins + s.zero_fills);
        // Device agreement: what the VM counts is what the device saw.
        prop_assert_eq!(vm.device().stats().pageins, s.pageins);
        prop_assert_eq!(vm.device().stats().pageouts, s.pageouts);
    }
}
