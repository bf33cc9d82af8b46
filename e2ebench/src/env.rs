//! One set-up of the system under test: real TCP memory servers, the
//! delay line in front of them on LAN workloads, and a `ShardedPager`
//! dialled the production way — or, on the traced pass, built from pools
//! whose transports sit inside [`TracedTransport`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rmp::LocalCluster;
use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{ServerPool, ShardedPager, WindowedTransport};
use rmp_server::ServerConfig;
use rmp_types::{PagerConfig, Result, ServerId};

use crate::link::{Link, LinkTrace};
use crate::spec::Workload;
use crate::trace::{TracedTransport, Tracer, TransportAgg};

/// One-way request delay of the emulated LAN.
pub const LAN_DELAY: Duration = Duration::from_millis(1);

/// Field order is drop order: the pager closes its sockets before the
/// relays are joined, and the relays stop before the servers do.
pub struct Env {
    pub pager: Arc<ShardedPager>,
    pub links: Vec<Link>,
    pub cluster: LocalCluster,
    pub traced: Option<Traced>,
    config: PagerConfig,
    /// Address each server is dialled at: its relay's on a LAN workload.
    addrs: Vec<String>,
}

pub struct Traced {
    pub tracer: Arc<Tracer>,
    /// One aggregate per shard.
    pub transports: Vec<Arc<TransportAgg>>,
    /// `slots[server][shard]`: the open transport span of a connection.
    slots: Vec<Vec<Arc<AtomicU64>>>,
}

impl Env {
    pub fn build(w: &Workload, tracer: Option<Arc<Tracer>>) -> Result<Env> {
        let config = (w.config)();
        let cluster = LocalCluster::spawn_with(w.servers, |_| ServerConfig::default())?;
        let traced = tracer.map(|tracer| Traced {
            tracer,
            transports: (0..config.shard_count)
                .map(|_| Arc::new(TransportAgg::default()))
                .collect(),
            slots: (0..w.servers)
                .map(|_| {
                    (0..config.shard_count)
                        .map(|_| Arc::new(AtomicU64::new(0)))
                        .collect()
                })
                .collect(),
        });
        let mut links = Vec::new();
        let mut addrs = Vec::new();
        for (i, handle) in cluster.handles().iter().enumerate() {
            if w.lan {
                let trace = traced.as_ref().map(|t| LinkTrace {
                    tracer: Arc::clone(&t.tracer),
                    slots: t.slots[i].clone(),
                });
                let link = Link::spawn(handle.addr(), LAN_DELAY, trace)?;
                addrs.push(link.addr().to_string());
                links.push(link);
            } else {
                addrs.push(handle.addr().to_string());
            }
        }
        let pager = match traced.as_ref() {
            None => {
                let mut registry = Registry::new();
                for (i, addr) in addrs.iter().enumerate() {
                    registry.add(ServerInfo {
                        id: ServerId(i as u32),
                        addr: addr.clone(),
                        link_cost: 1.0,
                    })?;
                }
                ShardedPager::connect(config.clone(), &registry)?
            }
            Some(t) => {
                let mut pools = Vec::new();
                for shard in 0..config.shard_count {
                    let mut pool = ServerPool::with_transport_config(config.transport.clone());
                    for (i, addr) in addrs.iter().enumerate() {
                        let transport = dial_traced(addr, &config, t, i, shard)?;
                        pool.add_transport(ServerId(i as u32), transport, 1.0);
                    }
                    pools.push(pool);
                }
                ShardedPager::builder(config.clone()).pools(pools).build()?
            }
        };
        Ok(Env {
            pager: Arc::new(pager),
            links,
            cluster,
            traced,
            config,
            addrs,
        })
    }

    /// Redials a restarted server on every shard.
    pub fn rejoin(&self, server: ServerId) -> Result<()> {
        let Some(t) = &self.traced else {
            return self.pager.reconnect(server);
        };
        // A pool handed its transports has no address to redial, so the
        // traced pass swaps in a fresh wrapped connection instead.
        let addr = &self.addrs[server.0 as usize];
        for shard in 0..self.config.shard_count {
            let transport = dial_traced(addr, &self.config, t, server.0 as usize, shard)?;
            self.pager
                .with_shard(shard, |p| p.pool_mut().replace_transport(server, transport));
        }
        Ok(())
    }

    /// Sum over shards of a named counter in the pagers' registries.
    pub fn counter(&self, name: &str) -> u64 {
        (0..self.config.shard_count)
            .map(|s| {
                self.pager
                    .with_shard(s, |p| p.metrics().counter(name).get())
            })
            .sum()
    }

    /// Stops (`true`) or resumes the recording of transport spans.
    pub fn pause_tracing(&self, paused: bool) {
        if let Some(t) = &self.traced {
            t.tracer.pause(paused);
        }
    }

    /// CPU time the delay line's threads have used so far, ns.
    pub fn relay_cpu_ns(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.counters.cpu_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Store entries held by all servers together.
    pub fn stored_pages(&self) -> usize {
        self.cluster
            .handles()
            .iter()
            .map(|h| h.stored_pages())
            .sum()
    }
}

fn dial_traced(
    addr: &str,
    config: &PagerConfig,
    t: &Traced,
    server: usize,
    shard: usize,
) -> Result<Box<dyn rmp_core::ServerTransport>> {
    let inner = WindowedTransport::connect_with(addr, &config.transport)?;
    Ok(Box::new(TracedTransport::new(
        Box::new(inner),
        &t.tracer,
        &t.transports[shard],
        Arc::clone(&t.slots[server][shard]),
    )))
}
