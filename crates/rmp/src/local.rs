//! Convenience wrapper: a loopback cluster in one process.

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{ServerPool, ShardedPager};
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{PagerConfig, Result, ServerId};

/// A set of remote memory servers running on loopback TCP — the fastest
/// way to exercise the full system in examples and tests. Each server is
/// a real [`MemoryServer`] speaking the real wire protocol; only the
/// network distance is missing.
pub struct LocalCluster {
    handles: Vec<ServerHandle>,
    registry: Registry,
}

impl LocalCluster {
    /// Spawns `n` servers with `capacity_pages` grantable frames each
    /// (plus the paper's 10 % parity-logging overflow).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn spawn(n: usize, capacity_pages: usize) -> Result<Self> {
        Self::spawn_with(n, |_| ServerConfig {
            capacity_pages,
            overflow_fraction: 0.10,
            ..ServerConfig::default()
        })
    }

    /// Spawns `n` servers with per-server configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn spawn_with(n: usize, config: impl Fn(usize) -> ServerConfig) -> Result<Self> {
        let mut handles = Vec::with_capacity(n);
        let mut registry = Registry::new();
        for i in 0..n {
            let handle = MemoryServer::spawn(config(i))?;
            registry.add(ServerInfo {
                id: ServerId(i as u32),
                addr: handle.addr().to_string(),
                link_cost: 1.0,
            })?;
            handles.push(handle);
        }
        Ok(LocalCluster { handles, registry })
    }

    /// The server handles, indexed by [`ServerId`] value.
    pub fn handles(&self) -> &[ServerHandle] {
        &self.handles
    }

    /// The registry describing this cluster (the paper's "common file").
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Opens a fresh connection pool to every server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn pool(&self) -> Result<ServerPool> {
        ServerPool::connect(&self.registry)
    }

    /// Builds a pager over this cluster, `config.shard_count` shards each
    /// dialling every server (as [`ShardedPager::connect`] does) and each
    /// with an unbounded RAM-backed local disk as fallback.
    ///
    /// # Errors
    ///
    /// Propagates connection and configuration failures.
    pub fn pager(&self, config: PagerConfig) -> Result<ShardedPager> {
        let shards = 0..config.shard_count;
        let pools = (shards.clone())
            .map(|_| ServerPool::connect_with(&self.registry, config.transport.clone()))
            .collect::<Result<_>>()?;
        let disks = shards.map(|_| Box::new(RamDisk::unbounded()) as Box<dyn PagingDevice>);
        ShardedPager::builder(config)
            .pools(pools)
            .disks(disks.collect())
            .build()
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Returns `true` when the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmp_types::{Page, PageId, Policy};

    #[test]
    fn spawn_and_page() {
        let cluster = LocalCluster::spawn(2, 64).expect("spawn");
        assert_eq!(cluster.len(), 2);
        let pager = cluster
            .pager(PagerConfig::new(Policy::NoReliability))
            .expect("pager");
        pager.page_out(PageId(0), &Page::filled(9)).expect("out");
        assert_eq!(pager.page_in(PageId(0)).expect("in"), Page::filled(9));
    }

    #[test]
    fn registry_round_trips_through_common_file_format() {
        let cluster = LocalCluster::spawn(3, 64).expect("spawn");
        let text = cluster.registry().serialize();
        let parsed = Registry::parse(&text).expect("parses");
        assert_eq!(parsed.len(), 3);
    }
}
