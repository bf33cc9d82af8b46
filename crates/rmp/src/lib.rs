//! # RMP — the Reliable Remote Memory Pager
//!
//! A from-scratch reproduction of *"Implementation of a Reliable Remote
//! Memory Pager"* (Markatos & Dramitinos, USENIX 1996): page to the idle
//! DRAM of other workstations instead of the local swap disk, and keep
//! enough redundancy (mirroring, parity, or the paper's novel *parity
//! logging*) that a crashed workstation loses nothing.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`]     | pages, ids, policies, errors, 1996 hardware constants |
//! | [`proto`]     | the client/server wire protocol |
//! | [`parity`]    | XOR parity, parity groups, the parity log |
//! | [`server`]    | the user-level remote memory server |
//! | [`cluster`]   | server registry and load-based selection |
//! | [`blockdev`]  | `PagingDevice` trait, RAM/file/modeled disks |
//! | [`core`]      | the pager: policies, recovery, migration |
//! | [`vm`]        | demand-paged virtual memory + out-of-core arrays |
//! | [`workloads`] | GAUSS, QSORT, FFT, MVEC, FILTER, CC |
//! | [`sim`]       | 1996 timing models, CSMA/CD, idle-DRAM traces |
//!
//! ## Quickstart
//!
//! ```
//! use rmp::prelude::*;
//!
//! // Spin up three remote memory servers on loopback.
//! let cluster = LocalCluster::spawn(3, 4096).unwrap();
//! // Page through them with the paper's parity-logging policy.
//! let pager = cluster
//!     .pager(PagerConfig::new(Policy::ParityLogging).with_servers(2))
//!     .unwrap();
//! pager.page_out(PageId(7), &Page::filled(42)).unwrap();
//! // A server dies; the pager reconstructs the page transparently.
//! cluster.handles()[0].crash();
//! assert_eq!(pager.page_in(PageId(7)).unwrap(), Page::filled(42));
//! ```

pub use rmp_blockdev as blockdev;
pub use rmp_cluster as cluster;
pub use rmp_core as core;
pub use rmp_parity as parity;
pub use rmp_proto as proto;
pub use rmp_server as server;
pub use rmp_sim as sim;
pub use rmp_types as types;
pub use rmp_vm as vm;
pub use rmp_workloads as workloads;

pub mod local;
pub mod stat;

pub use local::LocalCluster;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::local::LocalCluster;
    pub use rmp_blockdev::{FileDisk, ModeledDisk, PagingDevice, RamDisk};
    pub use rmp_core::{RecoveryReport, ServerPool, ShardedPager};
    pub use rmp_types::{Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, PAGE_SIZE};
    pub use rmp_vm::{PagedArray, PagedMemory, Replacement, VmConfig};
    pub use rmp_workloads::Workload;
}
