//! The Reliable Remote Memory Pager (RMP) — the paper's contribution.
//!
//! [`ShardedPager`] is the client: it implements
//! [`rmp_blockdev::PagingDevice`], so the virtual-memory layer (standing in
//! for the DEC OSF/1 kernel) pages through it transparently, while its
//! shards — each a [`Pager`] with its own connections — forward requests
//! to remote memory servers over the wire protocol, to the local disk, or
//! both — under one of seven policies (the paper's six and an
//! erasure-coded generalisation):
//!
//! * **No reliability** — pages stripe over servers, one transfer per
//!   pageout, no redundancy (a server crash loses pages).
//! * **Mirroring** — two copies on two servers.
//! * **Basic parity** — RAID-style fixed parity groups.
//! * **Parity logging** — the paper's novel log-structured parity policy.
//! * **Write-through** — remote memory as a write-through cache of the
//!   local disk (Section 4.7).
//! * **Disk** — traditional local-disk paging, the baseline.
//! * **Erasure coded** — `k` data plus `r` Reed–Solomon units per page on
//!   `k + r` servers; any `k` rebuild it.
//!
//! No reliability, mirroring, write-through and erasure coding are one
//! [`engine::stripe::Stripe`] engine under different `(k, r)` geometries.
//!
//! The pager detects server crashes (connection failures), reconstructs
//! the lost pages from redundancy, and keeps running — the property the
//! paper demonstrates. It also implements the Section 2.1 dynamics
//! (most-promising-server selection, allocation denial, stop-sending
//! advisories, migration, disk fallback, re-replication) and the Section 5
//! future work (adaptive network-load switching, heterogeneous link
//! costs).

pub mod clock;
pub mod detector;
pub mod engine;
pub mod pager;
pub mod pool;
pub mod prefetch;
pub mod reactor;
pub mod recovery;
pub mod sharded;
pub mod transport;

pub use clock::Clock;
pub use pager::Pager;
pub use pool::{Readable, ServerPool};
pub use reactor::{Completion, PendingReplies, WindowStats, WindowedTransport};
pub use recovery::RecoveryReport;
pub use sharded::{ShardedPager, ShardedPagerBuilder};
pub use transport::ServerTransport;
