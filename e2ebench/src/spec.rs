//! What the benchmark runs and what it reports: the five workloads and
//! the metric names, units, directions and bounds. `BENCHMARK.json`
//! repeats these tables; `tests/smoke.rs` fails when the two disagree.

use rmp_types::{PagerConfig, Policy};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// Zero for per-layer metrics, which are not judged.
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The same nine on every workload. The timed ones and `peak_rss_mib`
/// are bounded at three times the widest spread (interquartile range
/// over median, ten runs) seen on the 2-vCPU sandbox this was built on;
/// see the repeatability report in `README.md`.
pub const END_TO_END: [Metric; 9] = [
    gate("setup_s", "s", 0.25),
    gate("round_ms", "ms", 0.25),
    gate("pagein_us", "us", 0.25),
    gate("pageout_us", "us", 0.25),
    gate("wire_transfers_per_op", "count", 0.01),
    gate("stored_pages_per_user_page", "count", 0.01),
    gate("allocs_per_op", "count", 0.05),
    gate("alloc_kib_per_op", "KiB", 0.05),
    gate("peak_rss_mib", "MiB", 0.25),
];

pub const PER_LAYER: [Metric; 51] = [
    layer("device.pagein_p50_us", "us", "lower"),
    layer("device.pagein_p99_us", "us", "lower"),
    layer("device.pageout_p50_us", "us", "lower"),
    layer("device.pageout_p99_us", "us", "lower"),
    layer("device.ops", "count", "higher"),
    layer("vm.faults_per_round", "count", "lower"),
    layer("vm.app_self_ms", "ms", "lower"),
    layer("sharded.overlap", "ratio", "higher"),
    layer("pager.self_us_per_op", "us", "lower"),
    layer("engine.transfers_per_pageout", "count", "lower"),
    layer("engine.transfers_per_pagein", "count", "lower"),
    layer("engine.degraded_reads", "count", "lower"),
    layer("engine.recovery_steps", "count", "lower"),
    layer("engine.groups_reclaimed", "count", "higher"),
    layer("engine.gc_passes", "count", "lower"),
    layer("engine.ec_encodes", "count", "lower"),
    layer("engine.ec_reconstructs", "count", "lower"),
    layer("prefetch.issued", "count", "lower"),
    layer("prefetch.hits", "count", "higher"),
    layer("prefetch.hit_ratio", "ratio", "higher"),
    layer("pool.retries", "count", "lower"),
    layer("pool.hedged_pageins", "count", "lower"),
    layer("pool.window_stalls", "count", "lower"),
    layer("recovery.rebuild_ms", "ms", "lower"),
    layer("recovery.pages_rebuilt", "count", "lower"),
    layer("recovery.first_degraded_read_us", "us", "lower"),
    layer("transport.calls_per_op", "count", "lower"),
    layer("transport.submits_per_op", "count", "lower"),
    layer("transport.busy_us_per_op", "us", "lower"),
    layer("transport.call_p50_us", "us", "lower"),
    layer("link.frames_per_op", "count", "lower"),
    layer("link.kib_per_op", "KiB", "lower"),
    layer("link.cpu_us_per_op", "us", "lower"),
    layer("link.delay_overshoot_us", "us", "lower"),
    layer("server.requests_per_op", "count", "lower"),
    layer("server.busy_fraction", "ratio", "lower"),
    layer("server.worker_threads", "count", "lower"),
    layer("server.store_insert_ns", "ns", "lower"),
    layer("server.store_get_ns", "ns", "lower"),
    layer("proto.encode_ns_per_frame", "ns", "lower"),
    layer("proto.decode_ns_per_frame", "ns", "lower"),
    layer("types.checksum_gbps", "GB/s", "higher"),
    layer("parity.xor_gbps", "GB/s", "higher"),
    layer("parity.rs_encode_gbps", "GB/s", "higher"),
    layer("parity.rs_decode_gbps", "GB/s", "higher"),
    layer("proc.cpu_us_per_op", "us", "lower"),
    layer("proc.ctx_switches_per_op", "count", "lower"),
    layer("proc.whole_run_ops_per_s", "1/s", "higher"),
    layer("proc.round_spread", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans_dropped", "count", "lower"),
];

#[derive(Clone, Copy)]
pub enum Shape {
    /// `rmp_workloads::Gauss` of dimension `n` on a `PagedMemory` with
    /// `frames` resident frames; a round is one whole solve.
    Gauss { n: usize, frames: usize },
    /// Uniform-random pageins and rewrites over preloaded pages.
    Mix { pagein_pct: u64 },
    /// Rewrites → crash → degraded pageins → restart, rejoin, rebuild;
    /// a round is one whole cycle.
    Crash { pageins: u64, rewrites: u64 },
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub config: fn() -> PagerConfig,
    /// Memory servers spawned.
    pub servers: usize,
    /// Whether clients reach the servers through the 1 ms delay line.
    pub lan: bool,
    /// User pages preloaded (for `Gauss`, pages of the matrix).
    pub pages: u64,
    /// Client threads, and ops each issues per round.
    pub threads: usize,
    pub ops_per_round: u64,
    /// Rounds run before timing starts, as part of set-up: about 1 % of
    /// a default run, so that `setup_s` stays a measure of set-up.
    pub warmup_rounds: u64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    pub shape: Shape,
}

/// Both shards in use, every other knob at its default.
fn base(policy: Policy) -> PagerConfig {
    PagerConfig::new(policy).with_shard_count(2)
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "gauss_plog_lan",
        why: "The paper's headline: GAUSS over parity logging on a 1 ms LAN; wire delay dominates \
              each fault, so prefetch, windowing and the log's 1+1/S show and CPU-path savings do not.",
        config: || base(Policy::ParityLogging).with_servers(3),
        servers: 4,
        lan: true,
        pages: 9,
        threads: 1,
        ops_per_round: 0,
        warmup_rounds: 1,
        setups: 3,
        shape: Shape::Gauss { n: 96, frames: 3 },
    },
    Workload {
        name: "read_heavy_norel_loopback",
        why: "95% random pageins, no redundancy, no delay: one frame per op and prefetch useless, so \
              all time is lock, pool, reactor, codec, checksum and server; per-frame CPU savings show.",
        config: || base(Policy::NoReliability).with_servers(2),
        servers: 2,
        lan: false,
        pages: 4096,
        threads: 1,
        ops_per_round: 20,
        warmup_rounds: 250,
        setups: 5,
        shape: Shape::Mix { pagein_pct: 95 },
    },
    Workload {
        name: "write_heavy_ec_loopback",
        why: "80% rewrites under erasure coding (4,1): RS encode and a five-frame fan-out per pageout, \
              a four-split gather per pagein; a pagein win bought with slower pageouts shows here.",
        config: || base(Policy::ErasureCoded).with_ec_splits(4, 1),
        servers: 5,
        lan: false,
        pages: 2048,
        threads: 1,
        ops_per_round: 5,
        warmup_rounds: 150,
        setups: 5,
        shape: Shape::Mix { pagein_pct: 20 },
    },
    Workload {
        name: "crash_cycle_bparity_loopback",
        why: "Crash, degraded reads, in-place rebuild and rewrites under basic parity: the only \
              workload where degraded reads, recovery and the XOR kernels do the work.",
        config: || base(Policy::BasicParity),
        servers: 5,
        lan: false,
        pages: 2048,
        threads: 1,
        ops_per_round: 96,
        warmup_rounds: 1,
        setups: 5,
        shape: Shape::Crash {
            pageins: 32,
            rewrites: 64,
        },
    },
    Workload {
        name: "mixed_2t_norel_lan",
        why: "Two client threads, 70% pageins, on a 1 ms LAN: the only concurrent callers, so a shard \
              lock held across a link delay and submit-path or window changes show here only.",
        config: || base(Policy::NoReliability).with_servers(2),
        servers: 2,
        lan: true,
        pages: 512,
        threads: 2,
        ops_per_round: 10,
        warmup_rounds: 12,
        setups: 5,
        shape: Shape::Mix { pagein_pct: 70 },
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The same workload at a size that finishes in about a second, with
    /// one set-up and no warm-up.
    pub fn smoke(mut self) -> Workload {
        self.pages = self.pages.min(256);
        self.warmup_rounds = 0;
        self.setups = 1;
        if let Shape::Gauss { .. } = self.shape {
            self.pages = 3;
            self.shape = Shape::Gauss { n: 48, frames: 2 };
        }
        self
    }
}
