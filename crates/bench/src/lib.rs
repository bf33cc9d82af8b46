//! Shared machinery for the figure-regeneration harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index); this library holds
//! the pieces they share: running the standard workloads against a
//! cluster, converting real transfer counts into 1996-scale completion
//! times with the models in `rmp-sim`, and printing aligned tables.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rmp_blockdev::{ModeledDisk, RamDisk};
use rmp_chaos::{ChaosCluster, ChaosTransport, FaultPlan};
use rmp_core::{Completion, PendingReplies, ServerPool, ServerTransport, ShardedPager};
use rmp_proto::Message;
use rmp_sim::{CompletionModel, PolicyCosts, RunBreakdown};
use rmp_types::{Page, PageId, PagerConfig, Policy, Result, ServerId, TransportConfig};
use rmp_vm::{FaultStats, PagedMemory, VmConfig};
use rmp_workloads::{Workload, WorkloadReport};

/// Nanoseconds of 1996 DEC-Alpha CPU time per workload operation.
///
/// The single calibration constant of the harnesses: it converts each
/// workload's operation count into `utime`. 150 MHz Alpha 21064 at ~1
/// element-operation per 20 cycles (loads, FP, index arithmetic through
/// a paged-array abstraction) is ~133 ns/op; the precise value shifts the
/// bars' absolute heights, never their ordering.
pub const NS_PER_OP: f64 = 133.0;

/// Result of running one workload once and costing it under a policy.
#[derive(Clone, Debug)]
pub struct CostedRun {
    /// Workload name.
    pub name: &'static str,
    /// Measured fault statistics (real request counts).
    pub faults: FaultStats,
    /// Modeled user time, seconds.
    pub utime: f64,
}

impl CostedRun {
    /// Builds the policy-costs input from the measured counts.
    pub fn costs(&self, servers: usize) -> PolicyCosts {
        PolicyCosts {
            pageins: self.faults.pageins,
            pageouts: self.faults.pageouts,
            servers,
        }
    }

    /// Completion time under `policy` on the paper's hardware.
    pub fn completion(
        &self,
        model: &CompletionModel,
        policy: Policy,
        servers: usize,
    ) -> RunBreakdown {
        model.run(self.utime, self.costs(servers), policy)
    }
}

/// Runs `workload` once on a memory of `frames` resident frames, returning
/// the measured counts and modeled utime. The device is a RAM store — the
/// counts depend only on the VM and workload, not on where pages land.
pub fn measure<W: Workload>(workload: &W, frames: usize) -> CostedRun {
    let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(frames));
    let report: WorkloadReport = workload
        .run(&mut vm)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.verified, "{} must verify", report.name);
    CostedRun {
        name: report.name,
        faults: report.faults,
        utime: report.ops as f64 * NS_PER_OP / 1e9,
    }
}

/// Runs `workload` against the RZ55 disk model and returns the *measured*
/// virtual disk time (seconds) — a sequentiality-aware DISK cost that the
/// simple 17 ms/page model cannot capture.
pub fn measure_disk_time<W: Workload>(workload: &W, frames: usize) -> (CostedRun, f64) {
    let mut vm = PagedMemory::new(
        ModeledDisk::rz55(RamDisk::unbounded()),
        VmConfig::with_frames(frames),
    );
    let report = workload
        .run(&mut vm)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.verified);
    let disk_s = vm.device().elapsed_ms() / 1000.0;
    (
        CostedRun {
            name: report.name,
            faults: report.faults,
            utime: report.ops as f64 * NS_PER_OP / 1e9,
        },
        disk_s,
    )
}

/// A burst on the emulated link: when its replies are due, the handle
/// that delivers them, and what the server answered.
type InFlight = (Instant, Completion, Result<Vec<Message>>);

/// The library's in-memory server behind a synthetic, deterministic link:
/// a single call pays `round_trip + per_frame`; a pipelined burst pays
/// the round trip once — every frame is on the wire before the first
/// reply is read — plus `per_frame` of serialization for each frame. The
/// sleeping thread holds no lock, so callers on different pools overlap
/// their round trips as they would on real sockets.
///
/// A submitted burst is served at once and answered when its delay has
/// passed, by the link's own thread (one sleep per burst): bursts
/// submitted to different servers before any is collected overlap, so a
/// wave costs one round trip here as it does on a real link.
pub struct DelayTransport {
    inner: ChaosTransport,
    round_trip: Duration,
    per_frame: Duration,
    /// The way onto the link, and the thread that answers what is on it;
    /// taken apart on drop.
    link: Option<(mpsc::Sender<InFlight>, JoinHandle<()>)>,
}

impl DelayTransport {
    fn new(inner: ChaosTransport, round_trip: Duration, per_frame: Duration) -> Self {
        let (onto_link, link) = mpsc::channel::<InFlight>();
        // A link delivers in order: the thread sleeps until the head
        // burst is due, answers it, and takes the next.
        let deliver = std::thread::spawn(move || {
            for (due, completion, outcome) in link {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                completion.complete(outcome);
            }
        });
        DelayTransport {
            inner,
            round_trip,
            per_frame,
            link: Some((onto_link, deliver)),
        }
    }

    fn delay(&self, frames: usize) -> Duration {
        self.round_trip + self.per_frame * frames as u32
    }
}

impl Drop for DelayTransport {
    fn drop(&mut self) {
        if let Some((onto_link, deliver)) = self.link.take() {
            // Hanging up ends the thread once the link has drained.
            drop(onto_link);
            let _ = deliver.join();
        }
    }
}

impl ServerTransport for DelayTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        std::thread::sleep(self.delay(1));
        self.inner.call(msg)
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        std::thread::sleep(self.delay(msgs.len()));
        self.inner.call_pipelined(msgs)
    }

    fn send_only(&mut self, msg: &Message) -> Result<()> {
        self.inner.send_only(msg)
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        let due = Instant::now() + self.delay(msgs.len());
        let outcome = self.inner.call_pipelined(msgs);
        let read_timeout = TransportConfig::default().read_timeout;
        let (pending, completion) = PendingReplies::deferred(msgs.len(), read_timeout);
        let (onto_link, _) = self.link.as_ref().expect("the link lives until drop");
        // A send can only fail once the thread is gone; the dropped
        // completion then fails the burst as a lost connection.
        let _ = onto_link.send((due, completion, outcome));
        Some(Ok(pending))
    }
}

/// A pool onto `n` private in-memory servers, each behind a
/// [`DelayTransport`].
pub fn delay_pool(n: usize, round_trip: Duration, per_frame: Duration) -> ServerPool {
    delay_cluster(n, round_trip, per_frame).1
}

/// [`delay_pool`], with the servers behind it for the caller to crash.
fn delay_cluster(
    n: usize,
    round_trip: Duration,
    per_frame: Duration,
) -> (ChaosCluster, ServerPool) {
    // The plan is never armed: the servers serve faithfully.
    let cluster = ChaosCluster::new(n, FaultPlan::seeded(0));
    let mut pool = ServerPool::new();
    for i in 0..n {
        let id = ServerId(i as u32);
        let inner = ChaosTransport::new(id, Arc::clone(cluster.plan()), cluster.server(i).clone());
        let transport = DelayTransport::new(inner, round_trip, per_frame);
        pool.add_transport(id, Box::new(transport), 1.0);
    }
    (cluster, pool)
}

/// A one-shard pager over `pool`, with an unbounded RAM-backed local disk:
/// what a harness that counts one pool's traffic pages through.
///
/// # Errors
///
/// Propagates configuration failures.
pub fn one_shard(config: PagerConfig, pool: ServerPool) -> Result<ShardedPager> {
    ShardedPager::builder(config.with_shard_count(1))
        .pools(vec![pool])
        .disks(vec![Box::new(RamDisk::unbounded())])
        .build()
}

/// Link round trips one steady-state pageout and one pagein cost under
/// `policy`: every page of a small set is rewritten, then read back, over
/// a [`delay_pool`] with read-ahead off, and the elapsed time is divided
/// by the configured round trip. A fan-out that goes server by server
/// costs a round trip per unit; one that goes out as a wave costs one.
/// Each pageout lands before the next begins (`stats` lands every
/// landing), so what is timed is its whole trip, not its submit alone.
/// Parity groups are three pages (`S = 3`), stripes four splits and one
/// parity.
///
/// # Errors
///
/// Propagates paging failures.
pub fn round_trips(policy: Policy) -> Result<(f64, f64)> {
    const ROUND_TRIP: Duration = Duration::from_millis(5);
    const PAGES: u64 = 24;
    let config = PagerConfig::new(policy)
        .with_servers(3)
        .with_ec_splits(4, 1)
        .with_prefetch_window(0);
    let pager = one_shard(config, delay_pool(5, ROUND_TRIP, Duration::ZERO))?;
    for id in 0..PAGES {
        pager.page_out(PageId(id), &Page::deterministic(id))?;
    }
    pager.flush()?;
    let per_op =
        |elapsed: Duration| elapsed.as_secs_f64() / PAGES as f64 / ROUND_TRIP.as_secs_f64();
    let start = Instant::now();
    for id in 0..PAGES {
        pager.page_out(PageId(id), &Page::deterministic(PAGES + id))?;
        pager.stats();
    }
    let pageout = per_op(start.elapsed());
    let start = Instant::now();
    for id in 0..PAGES {
        assert_eq!(pager.page_in(PageId(id))?, Page::deterministic(PAGES + id));
    }
    Ok((pageout, per_op(start.elapsed())))
}

/// Link round trips one rebuilt page costs under `policy`: server 0 of a
/// [`delay_pool`] is lost with its share of a small page set — and, for
/// basic parity, which rebuilds in place, back empty — and the wall time
/// of `recover_from_crash` is divided by the round trip and the pages
/// rebuilt. A rebuild that fetches and stores a page at a time costs two
/// a page; one that gathers a chunk in a wave and ships it in another
/// costs two a chunk. Geometry as in [`round_trips`]. The fastest of
/// three rebuilds, each on a fresh cluster, is reported: scheduler delay
/// only ever adds wall time.
///
/// # Errors
///
/// Propagates paging and recovery failures.
pub fn rebuild_round_trips(policy: Policy) -> Result<f64> {
    let mut fastest = f64::INFINITY;
    for _ in 0..3 {
        fastest = fastest.min(one_rebuild_round_trips(policy)?);
    }
    Ok(fastest)
}

/// One rebuild of [`rebuild_round_trips`].
fn one_rebuild_round_trips(policy: Policy) -> Result<f64> {
    const ROUND_TRIP: Duration = Duration::from_millis(5);
    const PAGES: u64 = 48;
    let config = PagerConfig::new(policy)
        .with_servers(3)
        .with_prefetch_window(0);
    let (cluster, pool) = delay_cluster(5, ROUND_TRIP, Duration::ZERO);
    let pager = one_shard(config, pool)?;
    for id in 0..PAGES {
        pager.page_out(PageId(id), &Page::deterministic(id))?;
    }
    pager.flush()?;
    let lost = ServerId(0);
    cluster.server(0).crash();
    if policy == Policy::BasicParity {
        cluster.server(0).restart();
        pager.with_shard(0, |p| p.pool_mut().absolve(lost));
    }
    let start = Instant::now();
    let reports = pager.recover_from_crash(lost)?;
    let trips = start.elapsed().as_secs_f64() / ROUND_TRIP.as_secs_f64();
    for id in 0..PAGES {
        assert_eq!(pager.page_in(PageId(id))?, Page::deterministic(id));
    }
    let rebuilt: u64 = reports.iter().map(|r| r.total_rebuilt()).sum();
    Ok(trips / rebuilt.max(1) as f64)
}

/// Frames that give the paper's memory-pressure ratio: the working set
/// exceeds resident memory by roughly `overcommit` (e.g. 1.3 means the
/// working set is 30 % larger than memory).
pub fn frames_for_overcommit(working_set_pages: u64, overcommit: f64) -> usize {
    ((working_set_pages as f64 / overcommit) as usize).max(3)
}

/// Prints one row of an aligned table.
pub fn print_row(name: &str, cells: &[(String, usize)]) {
    print!("{name:<10}");
    for (cell, width) in cells {
        print!(" {cell:>width$}");
    }
    println!();
}

/// Formats seconds with two decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmp_workloads::Gauss;

    #[test]
    fn measure_produces_paging_activity() {
        let w = Gauss::new(64);
        let frames = frames_for_overcommit(w.working_set_pages(), 1.5);
        let run = measure(&w, frames);
        assert!(run.faults.pageins > 0);
        assert!(run.utime > 0.0);
    }

    #[test]
    fn frames_never_zero() {
        assert_eq!(frames_for_overcommit(1, 10.0), 3);
    }

    #[test]
    fn disk_time_reflects_seeks() {
        let w = Gauss::new(64);
        let frames = frames_for_overcommit(w.working_set_pages(), 1.5);
        let (run, disk_s) = measure_disk_time(&w, frames);
        assert!(disk_s > 0.0);
        // The virtual disk time must be at least transfer-bound.
        let min = (run.faults.pageins + run.faults.pageouts) as f64 * 0.00655;
        assert!(disk_s >= min * 0.9, "disk {disk_s} vs floor {min}");
    }
}
