//! The load generators: closed loops that issue a deterministic op
//! stream one round at a time and check every page they read back.
//!
//! Round `r` of client thread `t` draws its ops from a generator seeded
//! with `(seed, t, r)`, so the stream depends on the seed alone — not on
//! how many rounds fit in the run, nor on which pass (traced or not)
//! issues it. A page's bytes are `Page::deterministic` of
//! `(seed, id, version)`; a rewrite bumps the version.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rmp_blockdev::PagingDevice;
use rmp_types::{Page, PageId, Result, ServerId};
use rmp_vm::{PagedMemory, VmConfig};
use rmp_workloads::{Gauss, Workload as _};

use crate::env::Env;
use crate::est::{mix, Rng};
use crate::spec::{Shape, Workload};
use crate::sys;
use crate::trace::{DeviceAcc, Probe};

/// What one round cost.
#[derive(Clone, Copy, Default)]
pub struct Round {
    pub wall_ns: u64,
    /// CPU time of clients and servers: the process's, less the
    /// relay's (which waits out the link delay on the CPU).
    pub cpu_ns: u64,
    /// Device-boundary sums over the round's client threads.
    pub dev: DeviceAcc,
    /// Store entries on all servers when the round ended.
    pub stored_pages: u64,
    /// Crash cycle only.
    pub rebuild_ns: u64,
    pub pages_rebuilt: u64,
    pub first_degraded_ns: u64,
}

/// Running totals of one client thread.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Fold of every op issued (kind and page id), in order.
    pub stream_hash: u64,
}

/// Pages per timed piece of the preload: set-up is costed piecewise,
/// like everything else (see `run::end_to_end`).
const PRELOAD_CHUNK: usize = 32;

/// One client thread: a probe, the pages it owns and their versions.
struct Client {
    probe: Probe,
    seed: u64,
    thread: u64,
    ids: Vec<u64>,
    versions: Vec<u32>,
    tally: Tally,
}

impl Client {
    fn expected(&self, slot: usize) -> Page {
        Page::deterministic(mix(&[
            self.seed,
            self.ids[slot],
            u64::from(self.versions[slot]),
        ]))
    }

    fn note(&mut self, kind: u64, slot: usize) {
        self.tally.attempted += 1;
        self.tally.stream_hash = mix(&[self.tally.stream_hash, kind, self.ids[slot]]);
    }

    fn read(&mut self, slot: usize) {
        self.note(0, slot);
        let ok = match self.probe.page_in(PageId(self.ids[slot])) {
            Ok(page) => page == self.expected(slot),
            Err(_) => false,
        };
        self.tally.failed += u64::from(!ok);
    }

    fn write(&mut self, slot: usize) {
        self.note(1, slot);
        self.versions[slot] += 1;
        let page = self.expected(slot);
        if self.probe.page_out(PageId(self.ids[slot]), &page).is_err() {
            // The store may or may not hold the new bytes; later reads
            // of this page will count against the run either way.
            self.tally.failed += 1;
        }
    }

    /// Writes every page once, in id order; returns the wall time of
    /// each [`PRELOAD_CHUNK`] pages, ns.
    fn preload(&mut self) -> Vec<u64> {
        let mut chunk_ns = Vec::new();
        let mut slot = 0;
        while slot < self.ids.len() {
            let end = (slot + PRELOAD_CHUNK).min(self.ids.len());
            let start = Instant::now();
            for s in slot..end {
                self.write(s);
            }
            // A short last chunk counts as the full one it stands for.
            let ns = start.elapsed().as_nanos() as u64;
            chunk_ns.push(ns * PRELOAD_CHUNK as u64 / (end - slot) as u64);
            slot = end;
        }
        chunk_ns
    }

    /// One round of the random mix. Every round holds exactly the same
    /// number of pageins and rewrites — only their order and their pages
    /// are drawn — so no round is cheaper for having drawn an easier mix
    /// and the fast round measures the machine's quiet, not the dice.
    fn mix_round(&mut self, round: u64, ops: u64, pagein_pct: u64) {
        let mut rng = Rng::new(mix(&[self.seed, self.thread, round]));
        let mut reads_left = (ops * pagein_pct + 50) / 100;
        for ops_left in (1..=ops).rev() {
            let slot = rng.below(self.ids.len() as u64) as usize;
            if rng.below(ops_left) < reads_left {
                reads_left -= 1;
                self.read(slot);
            } else {
                self.write(slot);
            }
        }
    }
}

/// The second client thread of a two-thread workload. The main thread is
/// the first; a barrier opens and closes every round for both.
struct Worker {
    ctl: Arc<Control>,
    thread: Option<JoinHandle<()>>,
}

struct Control {
    barrier: Barrier,
    round: AtomicU64,
    stop: AtomicBool,
    /// The worker's device sums of the round just closed, and its tally.
    report: Mutex<(DeviceAcc, Tally)>,
}

impl Worker {
    fn spawn(mut client: Client, ops: u64, pagein_pct: u64) -> Worker {
        let ctl = Arc::new(Control {
            barrier: Barrier::new(2),
            round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            report: Mutex::new(Default::default()),
        });
        let thread = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                client.preload();
                client.probe.take();
                // Preloaded: `Load::start` waits here for this thread.
                ctl.barrier.wait();
                loop {
                    ctl.barrier.wait();
                    // `SeqCst`: both are written before the barrier
                    // opens and must be seen after it.
                    if ctl.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    client.mix_round(ctl.round.load(Ordering::SeqCst), ops, pagein_pct);
                    *ctl.report.lock().expect("worker report poisoned") =
                        (client.probe.take(), client.tally);
                    ctl.barrier.wait();
                }
            })
        };
        Worker {
            ctl,
            thread: Some(thread),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        self.ctl.barrier.wait();
        if let Some(t) = self.thread.take() {
            // A worker that panicked has already failed the run's
            // barrier; nothing more to report from a destructor.
            let _ = t.join();
        }
    }
}

enum Driver {
    Gauss {
        vm: Box<PagedMemory<Probe>>,
        gauss: Gauss,
        tally: Tally,
    },
    Mix {
        main: Client,
        worker: Option<Worker>,
        pagein_pct: u64,
    },
    Crash {
        client: Client,
        pageins: u64,
        rewrites: u64,
    },
}

pub struct Load {
    w: Workload,
    kind: Driver,
}

/// Page ids client `thread` of `threads` owns: both shards (`id & 1`)
/// for every thread, so concurrent callers do meet on a shard lock, and
/// no page is shared, so versions need no cross-thread agreement.
fn owned_ids(pages: u64, thread: u64, threads: u64) -> Vec<u64> {
    (0..pages)
        .filter(|id| (id >> 1) % threads == thread)
        .collect()
}

impl Load {
    /// Connects the clients and preloads their pages; also returns the
    /// wall time of each preload chunk of the main thread, ns.
    pub fn start(w: &Workload, env: &Env, seed: u64) -> (Load, Vec<u64>) {
        let probe = || {
            let p = Probe::new(Arc::clone(&env.pager));
            match &env.traced {
                Some(t) => p.traced(&t.tracer),
                None => p,
            }
        };
        let client = |thread: u64| {
            let ids = owned_ids(w.pages, thread, w.threads as u64);
            Client {
                probe: probe(),
                seed,
                thread,
                versions: vec![0; ids.len()],
                ids,
                tally: Tally::default(),
            }
        };
        let mut preload_ns = Vec::new();
        let kind = match w.shape {
            Shape::Gauss { n, frames } => Driver::Gauss {
                vm: Box::new(PagedMemory::new(
                    probe().shadowed(w.pages as usize),
                    VmConfig::with_frames(frames),
                )),
                gauss: Gauss::new(n),
                tally: Tally::default(),
            },
            Shape::Mix { pagein_pct } => {
                let worker =
                    (w.threads > 1).then(|| Worker::spawn(client(1), w.ops_per_round, pagein_pct));
                let mut main = client(0);
                preload_ns = main.preload();
                main.probe.take();
                if let Some(worker) = &worker {
                    worker.ctl.barrier.wait();
                }
                Driver::Mix {
                    main,
                    worker,
                    pagein_pct,
                }
            }
            Shape::Crash { pageins, rewrites } => {
                let mut client = client(0);
                preload_ns = client.preload();
                client.probe.take();
                Driver::Crash {
                    client,
                    pageins,
                    rewrites,
                }
            }
        };
        (Load { w: *w, kind }, preload_ns)
    }

    /// Runs round `r` and returns what it cost.
    ///
    /// # Errors
    ///
    /// Only when the run cannot go on: a rejoin or rebuild that fails.
    /// A failed or wrong page is counted in the tally instead.
    pub fn round(&mut self, env: &Env, r: u64) -> Result<Round> {
        let cpu = sys::process_cpu_ns() - env.relay_cpu_ns();
        let start = Instant::now();
        let mut round = Round::default();
        match &mut self.kind {
            Driver::Gauss { vm, gauss, tally } => {
                let verified = gauss.run(vm).is_ok_and(|report| report.verified);
                round.dev = vm.device_mut().take();
                tally.attempted += round.dev.ops();
                tally.failed += round.dev.failed + u64::from(!verified);
                tally.stream_hash =
                    mix(&[tally.stream_hash, round.dev.pageins, round.dev.pageouts]);
            }
            Driver::Mix {
                main,
                worker,
                pagein_pct,
            } => {
                if let Some(worker) = worker {
                    worker.ctl.round.store(r, Ordering::SeqCst);
                    worker.ctl.barrier.wait();
                }
                main.mix_round(r, self.w.ops_per_round, *pagein_pct);
                round.dev = main.probe.take();
                if let Some(worker) = worker {
                    worker.ctl.barrier.wait();
                    let report = worker.ctl.report.lock().expect("worker report poisoned");
                    round.dev.add(&report.0);
                }
            }
            Driver::Crash {
                client,
                pageins,
                rewrites,
            } => {
                // Data servers only (the parity server is the last one):
                // every cycle then loses the same number of pages.
                let victim = ServerId((r % (self.w.servers as u64 - 1)) as u32);
                let mut rng = Rng::new(mix(&[client.seed, client.thread, r]));
                // Rewrites come first, on a whole cluster: basic parity
                // cannot take a write to a stripe that has lost a member
                // before the in-place rebuild, and right after the
                // verification pass the CPU is as warm every cycle.
                for _ in 0..*rewrites {
                    client.write(rng.below(self.w.pages) as usize);
                }
                env.cluster.handles()[victim.0 as usize].crash();
                // Basic parity places consecutive new pages round-robin
                // over its data servers, so page `8 × row + class` lies
                // on shard `class & 1`, server `class >> 1` (2 shards, 4
                // data servers). Drawing the same number of rows from
                // every class, in shuffled order, gives each cycle the
                // same number of lost pages whoever the victim is and
                // no stride for the prefetcher to follow — so no round is
                // cheaper for what it drew.
                let classes = 2 * (self.w.servers as u64 - 1);
                let mut ids: Vec<u64> = (0..*pageins)
                    .map(|i| rng.below(self.w.pages / classes) * classes + i % classes)
                    .collect();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for id in ids {
                    let degraded = env
                        .traced
                        .as_ref()
                        .map(|_| env.pager.stats().degraded_reads);
                    let before = client.probe.seen().pagein_ns;
                    client.read(id as usize);
                    if round.first_degraded_ns == 0
                        && degraded.is_some_and(|d| env.pager.stats().degraded_reads > d)
                    {
                        round.first_degraded_ns = client.probe.seen().pagein_ns - before;
                    }
                }
                // Basic parity rebuilds in place: the workstation must
                // be back (empty) before the rebuild.
                env.cluster.handles()[victim.0 as usize].restart();
                env.rejoin(victim)?;
                let rebuild = Instant::now();
                let reports = env.pager.recover_from_crash(victim)?;
                round.rebuild_ns = rebuild.elapsed().as_nanos() as u64;
                round.pages_rebuilt = reports.iter().map(|r| r.total_rebuilt()).sum();
                round.dev = client.probe.take();
            }
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        round.cpu_ns = sys::process_cpu_ns() - env.relay_cpu_ns() - cpu;
        round.stored_pages = env.stored_pages() as u64;
        Ok(round)
    }

    /// Whether [`Load::verify`] has anything to check after a round.
    pub fn verifies(&self) -> bool {
        matches!(self.kind, Driver::Crash { .. })
    }

    /// Reads every page back and checks it — after a crash cycle, off
    /// its clock, and past the probe and the tracer: these reads are no
    /// part of any latency figure.
    pub fn verify(&mut self, env: &Env) {
        let Driver::Crash { client, .. } = &mut self.kind else {
            return;
        };
        env.pause_tracing(true);
        for slot in 0..client.ids.len() {
            let read = env.pager.page_in(PageId(client.ids[slot]));
            client.tally.attempted += 1;
            client.tally.failed += u64::from(!read.is_ok_and(|p| p == client.expected(slot)));
        }
        env.pause_tracing(false);
    }

    /// Totals over every client thread so far.
    pub fn tally(&self) -> Tally {
        match &self.kind {
            Driver::Gauss { tally, .. } => *tally,
            Driver::Crash { client, .. } => client.tally,
            Driver::Mix { main, worker, .. } => {
                let mut t = main.tally;
                if let Some(worker) = worker {
                    let other = worker.ctl.report.lock().expect("worker report poisoned").1;
                    t.attempted += other.attempted;
                    t.failed += other.failed;
                    t.stream_hash = mix(&[t.stream_hash, other.stream_hash]);
                }
                t
            }
        }
    }

    /// User pages currently stored through the pager.
    pub fn live_pages(&self, env: &Env) -> u64 {
        (0..self.w.pages)
            .filter(|&id| env.pager.contains(PageId(id)))
            .count() as u64
    }
}
