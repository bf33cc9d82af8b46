//! Simulated operating-system virtual memory.
//!
//! The paper's pager sits under the DEC OSF/1 kernel: applications touch
//! their address space, the kernel faults pages in and evicts pages out
//! through the block-device interface. We reproduce that request stream
//! with [`PagedMemory`]: a fixed number of resident frames, a page table,
//! pluggable replacement (LRU/FIFO/Clock), dirty tracking, and demand-zero
//! fill. Every eviction of a dirty page becomes a `page_out` on the
//! attached [`rmp_blockdev::PagingDevice`] and every fault on a
//! non-resident page becomes a `page_in` — so real applications running on
//! [`PagedMemory`] generate exactly the pagein/pageout mix the paper's
//! kernel generated.
//!
//! An access to a resident page is the application's own time, not the
//! pager's, and an out-of-core solve makes hundreds of them per fault
//! (GAUSS n = 96: ≈ 600,000 accesses, ≈ 400 pageins). So a resident
//! frame is plain owned memory, as physical memory is under the kernel:
//! an access loads or stores its bytes in place, and bytes become a
//! [`rmp_types::Page`] only at fault-in (the device's page is copied into
//! the frame) and at write-back (a dirty eviction or `sync` hands the
//! device a copy). And, as a TLB sits in front of a page table,
//! [`PagedMemory`] looks its last two translations up inline before it
//! hashes into its page table out of line; an entry leaves with its page,
//! on eviction and on discard, and the fault statistics, replacement
//! stamps and device request stream are those of the page table alone.
//!
//! [`array::PagedArray`] offers a typed out-of-core array view used by the
//! workload programs (GAUSS, QSORT, FFT, MVEC, FILTER).

pub mod array;
pub mod paged;
pub mod policy;
pub mod stats;

pub use array::{Element, PagedArray};
pub use paged::{PagedMemory, VmConfig};
pub use policy::Replacement;
pub use stats::FaultStats;
