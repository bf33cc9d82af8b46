//! Paging-device abstraction and local backing stores.
//!
//! The DEC OSF/1 kernel sees the paper's pager as an ordinary block device
//! that services pagein/pageout requests. This crate defines that contract
//! as the [`PagingDevice`] trait and provides the local backends:
//!
//! * [`RamDisk`] — an in-memory store used by tests and as the substrate of
//!   simulated servers.
//! * [`FileDisk`] — a real file-backed swap "partition", the local-disk
//!   path the paper's RMP falls back to ("RMP is also capable of forwarding
//!   the requests to the local disk using either a specified partition or a
//!   file").
//! * [`ModeledDisk`] — a wrapper that charges every request to a virtual
//!   clock using a seek/rotation/transfer model of the DEC RZ55, so
//!   functional runs can report 1996-scale disk time without sleeping.
//!
//! The remote memory pager in `rmp-core` implements the same trait, which
//! is what lets the virtual-memory layer in `rmp-vm` swap transparently
//! between disk and remote memory — exactly the transparency the paper
//! achieves by sitting under the kernel's block-device interface.

pub mod filedisk;
pub mod modeled;
pub mod ramdisk;
pub mod traits;

pub use filedisk::FileDisk;
pub use modeled::{DiskModel, ModeledDisk};
pub use ramdisk::RamDisk;
pub use traits::PagingDevice;
