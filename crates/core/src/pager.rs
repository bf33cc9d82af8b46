//! A shard's pager: policy dispatch, crash handling, adaptive switching.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use rmp_blockdev::PagingDevice;
use rmp_types::metrics::{Counter, EventKind, Gauge, Histogram, MetricsRegistry};
use rmp_types::{Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, TransferStats};

use crate::engine::{
    basic::BasicParity, diskonly::DiskOnly, paritylog::ParityLogging, stripe::Stripe, Ctx, Engine,
    EngineMetrics, Reading, Unit, Writing,
};
use crate::pool::{Flight, Readable, ServerPool};
use crate::prefetch::PrefetchCache;
use crate::recovery::{RecoveryPlan, RecoveryReport};

/// Most pages one [`Pager::periodic_maintenance`] tick rebuilds: a
/// pending crash recovery advances by at most this many, so maintenance
/// pauses stay bounded while a crashed server's pages are re-protected
/// in the background.
const RECOVERY_STEP_PAGES: usize = 64;

/// Checks, at construction time, that a striping policy's redundancy
/// group fits the cluster: `needed` *live* servers must exist for every
/// stripe member to land on a distinct machine. Rejecting here turns
/// what used to be a first-pageout failure (a group wider than the live
/// cluster) into a typed [`RmpError::Config`] before any page is at
/// risk. Shared by the parity policies (group of `S` data servers plus
/// the parity server) and the erasure-coded policy (`k + r` splits).
fn check_stripe_width(policy: Policy, needed: usize, live: usize) -> Result<()> {
    if live < needed {
        return Err(RmpError::Config(format!(
            "{} stripes each page across {needed} distinct servers, but only {live} are live",
            policy.label()
        )));
    }
    Ok(())
}

/// Pre-resolved handles into the pager's [`MetricsRegistry`], so the
/// pageout/pagein hot paths record without touching the registration
/// lock. Names are catalogued in `OBSERVABILITY.md`.
struct PagerMetrics {
    registry: Arc<MetricsRegistry>,
    pageouts: Arc<Counter>,
    pageins: Arc<Counter>,
    pageout_errors: Arc<Counter>,
    pagein_errors: Arc<Counter>,
    degraded_reads: Arc<Counter>,
    checksum_failures: Arc<Counter>,
    maintenance_runs: Arc<Counter>,
    recoveries_completed: Arc<Counter>,
    prefetch_issued: Arc<Counter>,
    prefetch_hits: Arc<Counter>,
    prefetch_useless: Arc<Counter>,
    prefetch_skipped_gray: Arc<Counter>,
    /// Faults that met their page's read-ahead still on the wire.
    prefetch_waits: Arc<Counter>,
    flight_waits: Arc<Counter>,
    /// Callers that landed a landing still on the wire to make room.
    room_waits: Arc<Counter>,
    landing_hits: Arc<Counter>,
    landings: Arc<Gauge>,
    pageout_latency: Arc<Histogram>,
    pagein_latency: Arc<Histogram>,
    degraded_latency: Arc<Histogram>,
    maintenance_latency: Arc<Histogram>,
    recovery_backlog: Arc<Gauge>,
    prefer_disk: Arc<Gauge>,
}

impl PagerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        PagerMetrics {
            pageouts: registry.counter("pager_pageouts_total"),
            pageins: registry.counter("pager_pageins_total"),
            pageout_errors: registry.counter("pager_pageout_errors_total"),
            pagein_errors: registry.counter("pager_pagein_errors_total"),
            degraded_reads: registry.counter("pager_degraded_reads_total"),
            checksum_failures: registry.counter("pager_checksum_failures_total"),
            maintenance_runs: registry.counter("pager_maintenance_runs_total"),
            recoveries_completed: registry.counter("pager_recoveries_completed_total"),
            prefetch_issued: registry.counter("pager_prefetch_issued_total"),
            prefetch_hits: registry.counter("pager_prefetch_hits_total"),
            prefetch_useless: registry.counter("pager_prefetch_useless_total"),
            prefetch_skipped_gray: registry.counter("pager_prefetch_skipped_gray_total"),
            prefetch_waits: registry.counter("pager_prefetch_waits_total"),
            flight_waits: registry.counter("pager_flight_waits_total"),
            room_waits: registry.counter("pager_landing_room_waits_total"),
            landing_hits: registry.counter("pager_landing_hits_total"),
            landings: registry.gauge("pager_landings"),
            pageout_latency: registry.histogram("pager_pageout_latency_us"),
            pagein_latency: registry.histogram("pager_pagein_latency_us"),
            degraded_latency: registry.histogram("pager_degraded_read_latency_us"),
            maintenance_latency: registry.histogram("pager_maintenance_latency_us"),
            recovery_backlog: registry.gauge("pager_recovery_backlog"),
            prefer_disk: registry.gauge("pager_prefer_disk"),
            registry,
        }
    }
}

/// One read-ahead on the wire: the page its reply will fill — `None`
/// once a write or free has made that copy stale while it was out, and
/// then already counted useless — and the read to collect.
struct PendingPrefetch {
    page: Option<PageId>,
    flight: Flight,
}

/// Whether `pid` is being fetched by a read-ahead still out.
fn inflight(pending: &[PendingPrefetch], pid: PageId) -> bool {
    pending.iter().any(|p| p.page == Some(pid))
}

/// A pagein between [`Pager::begin_page_in`] and
/// [`Pager::complete_page_in`].
pub(crate) struct PageInFlight {
    id: PageId,
    started: Instant,
    /// The primary copy as the read was issued: whom the trace names,
    /// and what a miss is checked against.
    at: Option<Unit>,
    /// Whether read-ahead served it: what the planner is told, and then
    /// `reading` is a page that passed its checks already.
    pub(crate) hit: bool,
    /// What to [`park`](crate::engine::Begun::park) on, holding no lock.
    pub(crate) reading: Reading,
}

/// A pageout between [`Pager::begin_page_out`] and
/// [`Pager::complete_page_out`].
pub(crate) struct PageOutFlight {
    op: PageOut,
    /// As [`PageInFlight::reading`].
    pub(crate) writing: Writing,
}

impl PageOutFlight {
    /// The page it writes.
    pub(crate) fn id(&self) -> PageId {
        self.op.id
    }
}

/// What a pageout knows from its begin to its books.
pub(crate) struct PageOut {
    id: PageId,
    started: Instant,
    /// The primary copy's holder before the attempt, for the trace.
    before: Option<ServerId>,
    /// Recover-and-retry rounds left.
    retries: usize,
    /// The page's checksum, where its frames carried one: the writer's
    /// checksum costs no second pass over the page.
    sum: Option<u64>,
}

/// One shard of the Remote Memory Pager client (Section 3.1): a page
/// table, checksums, engine bookkeeping, read-ahead copies and a
/// [`ServerPool`] of its own. [`crate::ShardedPager`] drives it — begins,
/// parks and completes its operations, and decides its read-ahead — and
/// hands it out through [`crate::ShardedPager::with_shard`] for what
/// needs one shard's state (its pool, metrics, migration).
pub struct Pager {
    config: PagerConfig,
    pool: ServerPool,
    disk: Option<Box<dyn PagingDevice>>,
    engine: Box<dyn Engine>,
    stats: TransferStats,
    prefer_disk: bool,
    /// Writer-side checksums: what each page hashed to when we last wrote
    /// it. Catches store-level corruption that the wire checksum cannot —
    /// a server recomputes its checksum over whatever bytes it holds, so
    /// a bit flipped at rest still produces a self-consistent reply.
    page_sums: HashMap<PageId, u64>,
    /// What the pageouts of a page that *failed* since its last acked one
    /// hashed to: such a pageout may still have committed its bytes (one
    /// copy of two overwritten, a seal whose parity page was refused), and
    /// reading those back is no corruption. Cleared by the next ack.
    unacked_sums: HashMap<PageId, Vec<u64>>,
    /// Crashed servers whose full rebuild has been deferred: degraded
    /// reads serve requests in the meantime, and `periodic_maintenance`
    /// works the queue off in budgeted steps.
    pending_recovery: VecDeque<ServerId>,
    /// The rebuild currently in flight, if any.
    active_plan: Option<RecoveryPlan>,
    /// Pages fetched ahead of demand, as the front-end's planner asked
    /// ([`Pager::read_ahead`]).
    prefetch: PrefetchCache,
    /// Read-aheads submitted and not yet collected: issued without
    /// waiting, harvested when ready (or when a demand fault needs the
    /// page).
    pending_prefetch: Vec<PendingPrefetch>,
    /// Observability: latency histograms, counters, and the trace-event
    /// ring — shared with the pool and exposed via [`Pager::metrics`].
    metrics: PagerMetrics,
    /// The engines' handles into the same registry.
    engine_metrics: EngineMetrics,
}

impl Pager {
    /// Creates a shard's pager over `pool`, and `disk` for the policies
    /// that page to one (disk-only, write-through, the disk fallback).
    ///
    /// # Errors
    ///
    /// [`RmpError::Config`] when the configuration is internally
    /// inconsistent or the pool does not provide the servers the policy
    /// needs (parity policies want `servers + 1`: the stripe plus a
    /// dedicated parity server — the highest-numbered one).
    pub(crate) fn new(
        config: PagerConfig,
        pool: ServerPool,
        disk: Option<Box<dyn PagingDevice>>,
    ) -> Result<Self> {
        config.validate()?;
        let mut pool = pool;
        // The pager's transport knobs are authoritative: whatever deadlines
        // and retry policy the config carries govern every pool call.
        pool.set_transport_config(config.transport.clone());
        // One registry serves the whole client stack: the pool records its
        // call latencies and failure transitions into the same ring and
        // tables the pager uses, so a single snapshot tells the story.
        let registry = Arc::new(MetricsRegistry::new());
        pool.set_metrics(Arc::clone(&registry));
        let ids = pool.server_ids();
        // Stripe members are drawn from the live servers only: a pool
        // seeded with dead connections must fail construction, not the
        // first pageout.
        let live = pool.live_servers();
        let engine: Box<dyn Engine> = match config.policy {
            Policy::NoReliability => {
                if ids.len() < config.servers {
                    return Err(RmpError::Config(format!(
                        "policy wants {} servers, pool has {}",
                        config.servers,
                        ids.len()
                    )));
                }
                Box::new(Stripe::new(config.policy, 1, 0)?)
            }
            Policy::Mirroring => {
                if ids.len() < 2 {
                    return Err(RmpError::Config("mirroring needs two servers".into()));
                }
                Box::new(Stripe::new(config.policy, 1, 1)?)
            }
            Policy::BasicParity | Policy::ParityLogging => {
                // A group of S data pages plus its parity page spans
                // S + 1 distinct live servers.
                check_stripe_width(config.policy, config.servers + 1, live.len())?;
                let data: Vec<ServerId> = live[..config.servers].to_vec();
                let parity = live[live.len() - 1];
                if config.policy == Policy::BasicParity {
                    Box::new(BasicParity::new(data, parity)?)
                } else {
                    Box::new(ParityLogging::new(data, parity, config.servers)?)
                }
            }
            Policy::WriteThrough => {
                if disk.is_none() {
                    return Err(RmpError::Config("write-through needs a local disk".into()));
                }
                Box::new(Stripe::new(config.policy, 1, 0)?)
            }
            Policy::DiskOnly => {
                if disk.is_none() {
                    return Err(RmpError::Config("disk paging needs a local disk".into()));
                }
                Box::new(DiskOnly::default())
            }
            Policy::ErasureCoded => {
                let width = config.ec_data_splits + config.ec_parity_splits;
                check_stripe_width(config.policy, width, live.len())?;
                Box::new(Stripe::new(
                    config.policy,
                    config.ec_data_splits,
                    config.ec_parity_splits,
                )?)
            }
        };
        // Twice the issue window: the cache can hold the in-flight
        // window plus the previous one without evicting entries the
        // stream is about to consume.
        let prefetch_capacity = config.prefetch_window.saturating_mul(2);
        Ok(Pager {
            config,
            pool,
            disk,
            engine,
            stats: TransferStats::default(),
            prefer_disk: false,
            page_sums: HashMap::new(),
            unacked_sums: HashMap::new(),
            pending_recovery: VecDeque::new(),
            active_plan: None,
            prefetch: PrefetchCache::new(prefetch_capacity),
            pending_prefetch: Vec::new(),
            engine_metrics: EngineMetrics {
                registry: Arc::clone(&registry),
                counters: Vec::new(),
            },
            metrics: PagerMetrics::new(registry),
        })
    }

    /// The shared metrics registry (counters, histograms, trace events)
    /// covering this pager and its server pool.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// One-shot JSON snapshot of everything observable client-side: the
    /// policy in force, the engine-level [`TransferStats`], and the full
    /// `rmp-metrics-v1` registry dump (histograms with p50/p90/p99/max,
    /// counters, gauges, trace events). This is what `rmpstat --json`
    /// prints per policy.
    pub fn metrics_snapshot_json(&self) -> String {
        // Gauges reflect "now": sync them at snapshot time so a reader
        // never sees a stale backlog after the queue drained.
        self.metrics
            .recovery_backlog
            .set(self.recovery_backlog() as u64);
        self.metrics.prefer_disk.set(u64::from(self.prefer_disk));
        format!(
            "{{\"schema\": \"rmp-pager-v1\", \"policy\": \"{}\", \"servers\": {}, \
             \"transfer_stats\": {}, \"metrics\": {}}}",
            self.config.policy.label(),
            self.config.servers,
            self.stats.to_json(),
            self.metrics.registry.snapshot_json(),
        )
    }

    /// Counts one caller of the shard that found a flight in its way
    /// and had to wait for it to land (see [`crate::sharded`]).
    pub(crate) fn note_flight_wait(&self) {
        self.metrics.flight_waits.inc();
    }

    /// Counts one caller of the shard that found its room for landings
    /// full and lands the oldest, its replies still out (see
    /// [`crate::sharded`]).
    pub(crate) fn note_room_wait(&self) {
        self.metrics.room_waits.inc();
    }

    /// Whether a later pageout of a page may begin while one is landing
    /// ([`Engine::appends`]).
    pub(crate) fn appends(&self) -> bool {
        self.engine.appends()
    }

    /// Records how many pageouts the shard holds landing (see
    /// [`crate::sharded`]).
    pub(crate) fn note_landings(&self, landings: usize) {
        self.metrics.landings.set(landings as u64);
    }

    /// Runs `f` with the engine and a context over the pager's fields.
    fn with_engine<R>(&mut self, f: impl FnOnce(&mut dyn Engine, &mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx {
            pool: &mut self.pool,
            disk: self.disk.as_mut(),
            stats: &mut self.stats,
            prefer_disk: self.prefer_disk,
            metrics: Some(&mut self.engine_metrics),
            around: true,
        };
        f(self.engine.as_mut(), &mut ctx)
    }

    /// Re-evaluates the adaptive network-load switch (Section 5): when the
    /// mean service time exceeds the configured threshold, new pageouts go
    /// to the local disk; once it falls below half the threshold, remote
    /// paging resumes.
    fn update_adaptive(&mut self) {
        let Some(threshold) = self.config.adaptive_threshold_ms else {
            return;
        };
        if self.disk.is_none() {
            return;
        }
        let avg = self.pool.avg_service_ms();
        if self.prefer_disk {
            if avg < threshold * 0.5 {
                self.prefer_disk = false;
            }
        } else if avg > threshold {
            self.prefer_disk = true;
        }
        self.metrics.prefer_disk.set(u64::from(self.prefer_disk));
    }

    /// Returns `true` while the adaptive switch routes pageouts to disk.
    pub fn prefers_disk(&self) -> bool {
        self.prefer_disk
    }

    /// The active configuration.
    pub fn config(&self) -> &PagerConfig {
        &self.config
    }

    /// The connection pool (standing and load, service times, wire counters).
    pub fn pool(&self) -> &ServerPool {
        &self.pool
    }

    /// Mutable access to the pool (fault injection, load refresh).
    pub fn pool_mut(&mut self) -> &mut ServerPool {
        &mut self.pool
    }

    /// Records the crash of `server` without rebuilding anything yet: the
    /// pool stops routing to it (except under basic parity, which rebuilds
    /// in place onto the rebooted workstation) and, when the policy keeps
    /// redundancy, the full rebuild is queued for the maintenance driver.
    pub fn note_crash(&mut self, server: ServerId) {
        if self.config.policy != Policy::BasicParity {
            self.pool.declare_dead(server, "reported");
        }
        let queued = self.pending_recovery.contains(&server)
            || self
                .active_plan
                .as_ref()
                .is_some_and(|p| p.crashed() == server);
        if self.config.policy.survives_single_crash() && !queued {
            self.pending_recovery.push_back(server);
        }
    }

    /// Crashed servers whose rebuild has not finished yet (queued plus the
    /// one in flight).
    pub fn recovery_backlog(&self) -> usize {
        self.pending_recovery.len() + usize::from(self.active_plan.is_some())
    }

    /// Runs one bounded step of `plan`, folding second faults into a
    /// re-plan instead of aborting. Returns `Ok(true)` when the plan is
    /// done.
    fn drive_plan(&mut self, plan: &mut RecoveryPlan, page_budget: usize) -> Result<bool> {
        loop {
            let result = self.with_engine(|engine, ctx| plan.step(engine, ctx, page_budget));
            match result {
                Err(RmpError::ServerCrashed(other)) | Err(RmpError::Timeout(other))
                    if other != plan.crashed() && self.config.policy.survives_single_crash() =>
                {
                    // A second fault mid-step. Fold the newly dead server
                    // into the picture and re-plan around it; the engine
                    // re-queues the item it was working on, so nothing is
                    // skipped.
                    self.note_crash(other);
                    if !plan.replan() {
                        return Err(RmpError::Unrecoverable(format!(
                            "recovery of {} kept losing servers",
                            plan.crashed()
                        )));
                    }
                }
                other => return other,
            }
        }
    }

    /// Drives the active plan by one step of at most `page_budget` pages
    /// and books what came of it — the one place a rebuild's progress is
    /// counted and traced, whether the maintenance tick or the
    /// synchronous drain is behind it. A plan that is not finished stays
    /// the active one, so the backlog keeps counting it: after a step
    /// that was not the last, and after a failure that may pass (a
    /// refused frame, a server that timed out once too often). Only
    /// [`RmpError::Unrecoverable`] drops it — the lost data cannot come
    /// back, and reads surface the loss. Returns the report of a plan
    /// that finished.
    fn advance_plan(&mut self, page_budget: usize) -> Result<Option<RecoveryReport>> {
        let mut plan = self.active_plan.take().expect("the caller set a plan");
        let drove = self.drive_plan(&mut plan, page_budget);
        self.stats.recovery_steps += u64::from(drove.is_ok());
        let report = match &drove {
            Ok(true) => {
                let report = plan.report();
                self.metrics.recoveries_completed.inc();
                self.metrics.registry.trace_with(
                    EventKind::RecoveryStep,
                    Some(report.crashed),
                    Some(self.config.policy),
                    "done",
                    Some(format!(
                        "rebuilt {} pages + {} parity",
                        report.pages_rebuilt, report.parity_rebuilt
                    )),
                );
                Some(report)
            }
            Err(RmpError::Unrecoverable(_)) => None,
            _ => {
                self.active_plan = Some(plan);
                None
            }
        };
        self.metrics
            .recovery_backlog
            .set(self.recovery_backlog() as u64);
        drove.map(|_| report)
    }

    /// Advances the background rebuild by at most `page_budget` pages:
    /// picks up the next queued crash when idle, runs one plan step, and
    /// returns the finished report when a plan completes this tick.
    ///
    /// # Errors
    ///
    /// Propagates storage failures. [`RmpError::Unrecoverable`] is *not*
    /// an error here: the lost data cannot come back, so the plan is
    /// dropped and reads surface the loss instead of maintenance wedging
    /// on it forever.
    fn recovery_tick(&mut self, page_budget: usize) -> Result<Option<RecoveryReport>> {
        if self.active_plan.is_none() {
            let Some(next) = self.pending_recovery.pop_front() else {
                return Ok(None);
            };
            self.active_plan = Some(RecoveryPlan::new(next));
        }
        match self.advance_plan(page_budget) {
            Err(RmpError::Unrecoverable(_)) => Ok(None),
            advanced => advanced,
        }
    }

    /// Finishes every queued rebuild. Mutations (pageout, free) call this
    /// first: a write landing in a half-rebuilt stripe would corrupt its
    /// parity, and plan-time snapshots assume the placement they saw.
    fn drain_recovery_queue(&mut self) -> Result<()> {
        while self.active_plan.is_some() || !self.pending_recovery.is_empty() {
            self.recovery_tick(usize::MAX)?;
        }
        Ok(())
    }

    /// Recovers from the crash of `server`: reconstructs every lost page
    /// from the policy's redundancy and re-homes it on surviving servers.
    /// Any background rebuild already queued for `server` is subsumed by
    /// this synchronous drain; one under way for another server goes back
    /// to the head of the queue, to be planned afresh — the engine holds
    /// one plan's items at a time.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unrecoverable`] when the policy cannot restore the
    /// data (no-reliability, or multiple faults in one redundancy group).
    /// After any other failure the rebuild stays queued where it stopped:
    /// [`Pager::recovery_backlog`] counts it, and the next pageout, free,
    /// maintenance tick or call of this takes it up again.
    pub fn recover_from_crash(&mut self, server: ServerId) -> Result<RecoveryReport> {
        self.note_crash(server);
        self.pending_recovery.retain(|&s| s != server);
        if let Some(other) = self.active_plan.take_if(|p| p.crashed() != server) {
            self.pending_recovery.push_front(other.crashed());
        }
        self.active_plan
            .get_or_insert_with(|| RecoveryPlan::new(server));
        let report = loop {
            if let Some(report) = self.advance_plan(usize::MAX)? {
                break report;
            }
        };
        self.pool.mark_rebuilt(server);
        // Placement changed wholesale under the rebuild: drop any
        // read-ahead rather than serve it against the old layout.
        // Dropping the flights abandons the fetches: their window slots
        // free immediately and late replies are discarded on arrival.
        let abandoned = self.pending_prefetch.drain(..).filter(|p| p.page.is_some());
        let dropped = self.prefetch.clear() + abandoned.count() as u64;
        self.metrics.prefetch_useless.add(dropped);
        Ok(report)
    }

    /// Moves every page off `server` in response to a stop-sending
    /// advisory. Returns pages moved.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] for fixed-layout policies.
    pub fn migrate_from(&mut self, server: ServerId) -> Result<u64> {
        self.with_engine(|engine, ctx| engine.migrate_from(ctx, server))
    }

    /// One round of the paper's periodic background duties: refresh every
    /// server's load report, migrate away from servers that asked us to
    /// stop sending, and promote disk-fallback pages back to remote
    /// memory where space opened up. Call this from a timer (the paper's
    /// client "periodically checks the memory load of all possible remote
    /// memory servers"). Returns `(pages_migrated, pages_promoted)`.
    ///
    /// This is also the incremental-recovery driver: servers that stopped
    /// answering load probes are marked dead and queued for rebuild, and
    /// one budgeted recovery step (at most `RECOVERY_STEP_PAGES`, 64
    /// pages) runs per call.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn periodic_maintenance(&mut self) -> Result<(u64, u64)> {
        let started = Instant::now();
        self.metrics.maintenance_runs.inc();
        for server in self.pool.refresh_loads() {
            self.note_crash(server);
        }
        self.recovery_tick(RECOVERY_STEP_PAGES)?;
        let migrated = self.service_advisories()?;
        let promoted = self.with_engine(|engine, ctx| engine.rebalance(ctx))?;
        self.metrics.maintenance_latency.record(started.elapsed());
        self.metrics
            .recovery_backlog
            .set(self.recovery_backlog() as u64);
        Ok((migrated, promoted))
    }

    /// Reacts to stop-sending advisories: every server currently asking
    /// the client to stop sending gets its pages migrated away — the
    /// paper's "on reception of this message, the client will try to find
    /// another server ... and migrate the pages that were stored by the
    /// loaded server". Returns pages moved. Policies without migration
    /// support (basic parity) are left alone.
    ///
    /// # Errors
    ///
    /// Propagates storage failures from the migration itself.
    pub fn service_advisories(&mut self) -> Result<u64> {
        let stopped: Vec<ServerId> = (self.pool.live_servers().into_iter())
            .filter(|&id| !self.pool.accepting(id))
            .collect();
        let mut moved = 0;
        for server in stopped {
            match self.migrate_from(server) {
                Ok(n) => moved += n,
                Err(RmpError::Unsupported(_)) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }

    /// Promotes disk-fallback pages back to remote memory where space
    /// exists — the paper's periodic re-replication check. Returns pages
    /// promoted.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn rebalance(&mut self) -> Result<u64> {
        for server in self.pool.refresh_loads() {
            self.note_crash(server);
        }
        self.with_engine(|engine, ctx| engine.rebalance(ctx))
    }

    /// Handles a failure from the engine: when it names a crashed — or
    /// retried-into-the-ground, for timeouts — server and the policy is
    /// redundant, recover and signal "retry". By the time a timeout
    /// surfaces here the pool has already exhausted its retry budget and
    /// marked the server dead, so both variants mean the same thing:
    /// that server is gone until an operator reconnects it.
    fn try_recover(&mut self, err: &RmpError) -> bool {
        (self.recoverable(err)).is_some_and(|server| self.recover_from_crash(server).is_ok())
    }

    /// The server to recover from when `err` is one the policy survives.
    fn recoverable(&self, err: &RmpError) -> Option<ServerId> {
        match err {
            RmpError::ServerCrashed(s) | RmpError::Timeout(s) => {
                self.config.policy.survives_single_crash().then_some(*s)
            }
            _ => None,
        }
    }

    /// Reads `id` whole, begun and collected back to back: around the
    /// server `avoid` names, if any, and with [`Ctx::around`] set to
    /// `around`. Every read after a fault's first goes through here — the
    /// demand retry, the re-read after a miss at a moved unit, the read
    /// around a failed holder or a corrupt copy.
    fn read(&mut self, id: PageId, avoid: Option<ServerId>, around: bool) -> Result<Page> {
        self.with_engine(|engine, ctx| {
            ctx.around = around;
            let reading = engine.begin_page_in(ctx, id, avoid);
            engine.complete_page_in(ctx, id, reading)
        })
    }

    /// The first unit a demand read of `id` joins: whom a trace names,
    /// and a corrupt copy.
    fn first_unit(&self, id: PageId) -> Option<Unit> {
        self.engine.read_units(id)?.first().copied()
    }

    /// Serves `id` from the policy's redundancy without touching `dead`,
    /// verifying the reconstruction against the writer's checksum.
    fn read_around(&mut self, id: PageId, dead: ServerId) -> Result<Page> {
        let started = Instant::now();
        let page = match self.read(id, Some(dead), true) {
            Ok(page) => page,
            Err(e) => {
                if matches!(e, RmpError::CorruptPage { .. }) {
                    self.note_checksum_failure(&e, "wire_corruption");
                }
                // `Unsupported` is routing, not failure: the policy keeps
                // no redundancy, so no degraded read was attempted.
                if !matches!(e, RmpError::Unsupported(_)) {
                    self.metrics.registry.trace(
                        EventKind::DegradedRead,
                        Some(dead),
                        Some(self.config.policy),
                        "error",
                    );
                }
                return Err(e);
            }
        };
        if let Some(e) = self.check_sum(id, &page) {
            return Err(e);
        }
        self.stats.degraded_reads += 1;
        self.metrics.degraded_reads.inc();
        self.metrics.degraded_latency.record(started.elapsed());
        self.metrics.registry.trace(
            EventKind::DegradedRead,
            Some(dead),
            Some(self.config.policy),
            "ok",
        );
        Ok(page)
    }

    /// Compares `page` against the checksum recorded when it was written.
    /// `None` means clean (or the page has no acked write to check
    /// against). A page that is not whole — a unit where a server should
    /// have held a page — is refused first: no caller is ever handed one.
    fn check_sum(&mut self, id: PageId, page: &Page) -> Option<RmpError> {
        if !page.is_whole() {
            let len = page.as_ref().len();
            return Some(RmpError::Protocol(format!("{id} read back as {len} bytes")));
        }
        let expect = *self.page_sums.get(&id)?;
        let sum = page.checksum();
        if sum == expect || (self.unacked_sums.get(&id)).is_some_and(|s| s.contains(&sum)) {
            return None;
        }
        let err = match self.first_unit(id) {
            Some((server, key)) => RmpError::CorruptPage { server, key },
            None => RmpError::Corrupt(id),
        };
        self.note_checksum_failure(&err, "store_corruption");
        Some(err)
    }

    /// Counts one page that failed verification — in [`TransferStats`],
    /// the registry and the trace ring at once, so the ledgers agree
    /// whether the writer's checksum caught it (`store_corruption`) or
    /// the pool did on the wire (`wire_corruption`).
    fn note_checksum_failure(&mut self, err: &RmpError, how: &'static str) {
        self.stats.checksum_failures += 1;
        self.metrics.checksum_failures.inc();
        let server = match err {
            RmpError::CorruptPage { server, .. } => Some(*server),
            _ => None,
        };
        self.metrics.registry.trace(
            EventKind::ChecksumFailure,
            server,
            Some(self.config.policy),
            how,
        );
    }

    /// Forgets every read-ahead copy of `id` — the cached one, and the one
    /// still on the wire: a fresher copy is being written (or the page
    /// freed), so both are stale from here on.
    fn invalidate_prefetched(&mut self, id: PageId) {
        let mut dropped = self.prefetch.invalidate(id);
        for overtaken in (self.pending_prefetch.iter_mut()).filter(|p| p.page == Some(id)) {
            overtaken.page = None;
            dropped += 1;
        }
        self.metrics.prefetch_useless.add(dropped);
    }

    /// Read-ahead copies held for a fault to come: cached, or on the wire
    /// and not overtaken by a write. After every operation
    /// `pager_prefetch_issued_total` equals hits + useless + this.
    pub fn read_ahead_held(&self) -> usize {
        let on_the_wire = self.pending_prefetch.iter().filter(|p| p.page.is_some());
        self.prefetch.len() + on_the_wire.count()
    }

    /// Whether read-ahead already has `pid`, cached or on its way.
    pub(crate) fn prefetch_covers(&self, pid: PageId) -> bool {
        self.prefetch.contains(pid) || inflight(&self.pending_prefetch, pid)
    }

    /// Collects finished read-aheads into the cache. Ready ones always
    /// drain without blocking; when `need` names a page, the read
    /// carrying it is collected even if that means waiting for the reply
    /// (a demand fault that overlaps an in-flight read-ahead waits for the
    /// one fetch rather than issuing a duplicate).
    ///
    /// One that failed is simply dropped — prefetching is speculative,
    /// and the demand path refetches the page: around the server, or
    /// down the retry ladder.
    fn harvest_prefetches(&mut self, need: Option<PageId>) {
        let mut i = 0;
        while i < self.pending_prefetch.len() {
            let pending = &self.pending_prefetch[i];
            let wanted = need.is_some() && pending.page == need;
            if !pending.flight.is_ready() {
                if !wanted {
                    i += 1;
                    continue;
                }
                self.metrics.prefetch_waits.inc();
            }
            let PendingPrefetch { page, flight } = self.pending_prefetch.swap_remove(i);
            let fetched = self.pool.finish_page_in_unretried(flight).ok().flatten();
            // Each page that came back is a real wire fetch; the stats
            // stay honest about transfer counts even when the fetch ran
            // ahead of demand, or was overtaken by a write.
            self.stats.net_fetches += u64::from(fetched.is_some());
            let dropped = match (page, fetched) {
                (Some(pid), Some(fetched)) => self.prefetch.insert(pid, fetched),
                (Some(_), None) => 1,
                (None, _) => 0,
            };
            self.metrics.prefetch_useless.add(dropped);
        }
    }

    /// Fetches ahead of demand those of `pages` that are worth it, each
    /// with one plain keyed read: submitted here — it rides the request
    /// window alongside demand traffic — and harvested when ready.
    /// Whoever planned `pages` leaves out those with an operation under
    /// way. Failures are swallowed — a wrong guess must never fail, or
    /// wait for, the demand fault that triggered it. A read-behind — a
    /// looping page read back once its pageout is acknowledged — comes
    /// through here too, one page long.
    pub(crate) fn read_ahead(&mut self, pages: impl Iterator<Item = PageId>) {
        // Pull in whatever read-ahead has landed since the last fault.
        self.harvest_prefetches(None);
        for pid in pages {
            // No more on the wire than the deepest plan: speculation
            // takes no more of the request window than that.
            if self.pending_prefetch.len() >= self.config.prefetch_window {
                break;
            }
            if self.prefetch_covers(pid) {
                continue;
            }
            // Only pages a lone unit in remote memory holds whole are
            // worth fetching ahead: disk-backed, unknown, and sub-page
            // (erasure-coded) placements fall through to the demand path.
            let Some(&[(server, key)]) = self.engine.read_units(pid) else {
                continue;
            };
            // Nor a copy the demand path reads around: on a server dead,
            // on any rung (only a demand read climbs) or gray — a read
            // queued there would stall the fault it is trying to hide.
            let readable = self.pool.may_read(server, true);
            if readable == Readable::Gray {
                self.metrics.prefetch_skipped_gray.inc();
            }
            if readable != Readable::Yes {
                continue;
            }
            // A refused submission is collected like any failed read: the
            // pool samples the miss, and the demand path owns retries.
            let (page, flight) = (Some(pid), self.pool.begin_page_in(server, key));
            self.metrics.prefetch_issued.inc();
            self.pending_prefetch.push(PendingPrefetch { page, flight });
        }
    }
}

impl Pager {
    /// The first half of a pageout, under the shard lock: reads ahead no
    /// more of `id`, lets queued rebuilds finish — a write landing in a
    /// half-rebuilt stripe would leave its parity wrong, and plans
    /// snapshot the placement they saw at plan time — and has the engine
    /// put the frames on the wire.
    pub(crate) fn begin_page_out(&mut self, id: PageId, page: &Page) -> PageOutFlight {
        let started = Instant::now();
        // Resolve attribution before the attempt: after a failure the id
        // may map to a different (or no) placement, and the trace should
        // blame the server the operation actually ran against.
        let before = self.first_unit(id).map(|(s, _)| s);
        self.invalidate_prefetched(id);
        self.update_adaptive();
        // Each failed attempt can take down at most one server, so the
        // pool size bounds how many recover-and-retry rounds make sense;
        // a rebuild that cannot finish fails the pageout outright.
        let (retries, writing) = match self.drain_recovery_queue() {
            // Units are the stripe engine's to cut; a caller pages whole
            // pages out, as it is handed whole pages back.
            Ok(()) if !page.is_whole() => (
                0,
                Writing::Done(Err(RmpError::Unsupported("a pageout takes a whole page"))),
            ),
            Ok(()) => (
                self.pool.server_count().max(1),
                self.with_engine(|e, ctx| e.begin_page_out(ctx, id, page)),
            ),
            Err(e) => (0, Writing::Done(Err(e))),
        };
        let op = PageOut {
            id,
            started,
            before,
            retries,
            sum: writing.stamp(),
        };
        PageOutFlight { op, writing }
    }

    /// The second half of a pageout: collects the replies, commits and
    /// books. `Continue` hands the pageout back, with its failure, when
    /// a server failed under it and the policy can recover: recovery
    /// plans against the whole placement table, so the shard first lets
    /// every other flight land, then calls [`Pager::retry_page_out`].
    pub(crate) fn complete_page_out(
        &mut self,
        out: PageOutFlight,
        page: &Page,
    ) -> ControlFlow<Result<()>, (PageOut, RmpError)> {
        let PageOutFlight { op, writing } = out;
        match self.with_engine(|e, ctx| e.complete_page_out(ctx, op.id, page, writing)) {
            Err(e) if op.retries > 0 && self.recoverable(&e).is_some() => {
                ControlFlow::Continue((op, e))
            }
            done => ControlFlow::Break(self.book_page_out(&op, page, done)),
        }
    }

    /// Recovers from the failure `out` came back with and runs the
    /// pageout again — begun and completed back to back — as long as
    /// attempts keep taking servers down.
    pub(crate) fn retry_page_out(
        &mut self,
        (mut out, failed): (PageOut, RmpError),
        page: &Page,
    ) -> Result<()> {
        let mut done = Err(failed);
        while let Err(e) = &done {
            if out.retries == 0 || !self.try_recover(e) {
                break;
            }
            out.retries -= 1;
            done = self.with_engine(|engine, ctx| {
                let writing = engine.begin_page_out(ctx, out.id, page);
                engine.complete_page_out(ctx, out.id, page, writing)
            });
        }
        self.book_page_out(&out, page, done)
    }

    /// Settles the failure `failed` of a pageout a later one of its page
    /// has superseded: that one names the page's version, so this one is
    /// not run again — its bytes were re-homed, or left their group — and
    /// the server that failed under it is queued for rebuild, as a read's
    /// verdict is.
    pub(crate) fn supersede(
        &mut self,
        (out, failed): (PageOut, RmpError),
        page: &Page,
    ) -> Result<()> {
        if let Some(server) = self.recoverable(&failed) {
            self.note_crash(server);
        }
        self.book_page_out(&out, page, Ok(()))
    }

    /// Records the outcome of a pageout: the writer's checksum, the
    /// counters, the latency from its begin to its landing, and the trace.
    fn book_page_out(&mut self, out: &PageOut, page: &Page, done: Result<()>) -> Result<()> {
        let mut server = out.before;
        let sum = out.sum.unwrap_or_else(|| page.checksum());
        match done {
            Ok(()) => {
                self.page_sums.insert(out.id, sum);
                self.unacked_sums.remove(&out.id);
            }
            Err(_) => (self.unacked_sums.entry(out.id).or_default()).push(sum),
        }
        if done.is_ok() {
            // A successful pageout may have *created* the placement;
            // the post-call location is the one that took the page.
            server = self.first_unit(out.id).map(|(s, _)| s);
            self.stats.pageouts += 1;
        }
        self.book(EventKind::PageOut, out.started, server, done)
    }

    /// Counts one finished operation, times it from `started` and traces
    /// it. Failed attempts cost wall-clock too; a histogram that only sees
    /// successes understates tail latency exactly when the system
    /// degrades.
    fn book<T>(
        &mut self,
        kind: EventKind,
        started: Instant,
        server: Option<ServerId>,
        done: Result<T>,
    ) -> Result<T> {
        let m = &self.metrics;
        let (ok, errors, latency) = match kind {
            EventKind::PageOut => (&m.pageouts, &m.pageout_errors, &m.pageout_latency),
            _ => (&m.pageins, &m.pagein_errors, &m.pagein_latency),
        };
        let outcome = match &done {
            Ok(_) => {
                ok.inc();
                "ok"
            }
            Err(_) => {
                errors.inc();
                "error"
            }
        };
        latency.record(started.elapsed());
        (m.registry).trace(kind, server, Some(self.config.policy), outcome);
        done
    }

    /// The first half of a pagein, under the shard lock: everything up
    /// to the wait — the read-ahead cache (a fault that meets its page in
    /// a read-ahead still on the wire waits for that one fetch here,
    /// rather than send a second), the engine's lookup and holder check,
    /// the submit.
    pub(crate) fn begin_page_in(&mut self, id: PageId) -> PageInFlight {
        let started = Instant::now();
        let at = self.first_unit(id);
        let mut served = None;
        if self.config.prefetch_window > 0 {
            if inflight(&self.pending_prefetch, id) {
                self.harvest_prefetches(Some(id));
            }
            // A prefetched copy is held to the same store-corruption
            // check as a wire read; a corrupt one is dropped here and
            // the demand read refetches (degrading if need be). A hit
            // cost no round trip (the wire fetch was counted when it was
            // issued).
            if let Some(ahead) = self.prefetch.take(id) {
                if self.check_sum(id, &ahead).is_none() {
                    self.metrics.prefetch_hits.inc();
                    served = Some(ahead);
                } else {
                    self.metrics.prefetch_useless.inc();
                }
            }
        }
        PageInFlight {
            id,
            started,
            at,
            hit: served.is_some(),
            reading: match served {
                Some(page) => Reading::Done(Ok(page)),
                None => self.with_engine(|e, ctx| e.begin_page_in(ctx, id, None)),
            },
        }
    }

    /// Serves a pagein of `id` from `kept`, the page its pageout still
    /// landing keeps: no frame is sent, and it counts as a pagein, not a
    /// fetch. The page is checked against the checksum that pageout will
    /// commit — `stamp`, where its frames carry the page's. `None` when it
    /// fails the check: the caller lands the pageout and reads the wire.
    pub(crate) fn read_kept(
        &mut self,
        id: PageId,
        kept: &Page,
        stamp: Option<u64>,
    ) -> Option<Page> {
        let started = Instant::now();
        if stamp.is_some_and(|sum| sum != kept.checksum()) {
            return None;
        }
        self.metrics.landing_hits.inc();
        self.stats.pageins += 1;
        let at = self.first_unit(id).map(|(s, _)| s);
        self.book(EventKind::PageIn, started, at, Ok(kept.clone()))
            .ok()
    }

    /// The second half of a pagein: collects the read and does what
    /// follows the wait — verify, fall back, book.
    pub(crate) fn complete_page_in(&mut self, flight: PageInFlight) -> Result<Page> {
        let (id, at) = (flight.id, flight.at);
        let done = match flight.reading {
            Reading::Done(done) if flight.hit => done,
            reading => {
                let mut first = self.with_engine(|e, ctx| e.complete_page_in(ctx, id, reading));
                // A miss at a unit the page has left since (a whole
                // operation re-logged it while the read was out) says
                // nothing about the page: read it where it is now.
                if matches!(first, Err(RmpError::PageNotFound(_))) && self.first_unit(id) != at {
                    first = self.read(id, None, true);
                }
                self.demand_page_in(id, first)
            }
        };
        self.stats.pageins += u64::from(done.is_ok());
        // As in `book_page_out`: attribute to the placement the read was
        // issued against, not whatever recovery re-homed the id to.
        self.book(EventKind::PageIn, flight.started, at.map(|(s, _)| s), done)
    }

    /// What follows a demand read's wait: `first` is what the engine's
    /// read came to; every further attempt runs whole. A read refused or
    /// failed at its holder goes around it — or, that failing too, reads a
    /// holder still alive through its retry ladder.
    fn demand_page_in(&mut self, id: PageId, first: Result<Page>) -> Result<Page> {
        let mut retries = self.pool.server_count().max(1);
        let mut attempt = first;
        loop {
            // `check_sum` counts the failures it detects itself; corruption
            // the pool caught on the wire arrives as an error and is
            // counted here.
            let err = match attempt {
                Ok(page) => match self.check_sum(id, &page) {
                    None => return Ok(page),
                    Some(e) => e,
                },
                Err(e) => {
                    if matches!(e, RmpError::CorruptPage { .. }) {
                        self.note_checksum_failure(&e, "wire_corruption");
                    }
                    e
                }
            };
            let around = match err {
                RmpError::ServerCrashed(dead) | RmpError::Timeout(dead)
                    if self.config.policy.survives_single_crash() =>
                {
                    // Serve the request first: read around the holder. The
                    // verdict alone queues its rebuild, for the maintenance
                    // driver: a holder that only missed an attempt is
                    // backing off, and may well answer its next rung.
                    if !self.pool.alive(dead) {
                        self.note_crash(dead);
                    }
                    let e = match self.read_around(id, dead) {
                        Ok(page) => return Ok(page),
                        Err(e) => e,
                    };
                    // The read around failed, for whatever reason: a live
                    // holder is the way left, read through its ladder — going
                    // around it only ever trades latency. A dead one is
                    // routed around again when another server failed.
                    let alive = self.pool.alive(dead);
                    let way_left =
                        alive || matches!(e, RmpError::ServerCrashed(_) | RmpError::Timeout(_));
                    if retries == 0 || !way_left {
                        return Err(e);
                    }
                    retries -= 1;
                    !alive
                }
                // The copy we read is provably wrong (wire or store): pull
                // the page from redundancy instead.
                // The writer's checksum covers the whole page, so for
                // striped placements the error can only name the first
                // fragment's holder — search every contributing server
                // until one exclusion yields a verified reconstruction.
                RmpError::CorruptPage { server, .. } => {
                    let units = self.engine.read_units(id).unwrap_or_default();
                    let others = units.iter().map(|u| u.0).filter(|&s| s != server);
                    let candidates: Vec<ServerId> = std::iter::once(server).chain(others).collect();
                    let mut last = err;
                    for suspect in candidates {
                        match self.read_around(id, suspect) {
                            Ok(page) => return Ok(page),
                            Err(RmpError::Unsupported(_)) => return Err(last),
                            Err(e @ (RmpError::CorruptPage { .. } | RmpError::Corrupt(_))) => {
                                last = e;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    return Err(last);
                }
                e => return Err(e),
            };
            attempt = self.read(id, None, around);
        }
    }

    /// Releases the page stored under `id`, once queued rebuilds have
    /// finished.
    pub(crate) fn free(&mut self, id: PageId) -> Result<()> {
        self.drain_recovery_queue()?;
        self.invalidate_prefetched(id);
        // Drop the writer-side checksum only once the engine actually
        // released the page: a failed free leaves the page (and its
        // verification) in force, so later reads stay checked.
        self.with_engine(|engine, ctx| engine.free(ctx, id))?;
        self.page_sums.remove(&id);
        self.unacked_sums.remove(&id);
        Ok(())
    }

    /// Returns `true` when a page is stored under `id`.
    pub fn contains(&self, id: PageId) -> bool {
        self.engine.contains(id)
    }

    /// Seals partial parity groups and flushes the local disk.
    pub(crate) fn flush(&mut self) -> Result<()> {
        self.with_engine(|engine, ctx| engine.flush(ctx))?;
        if let Some(disk) = self.disk.as_mut() {
            disk.flush()?;
        }
        Ok(())
    }

    /// Cumulative transfer statistics of this shard. A pageout still
    /// landing is not in them: [`crate::ShardedPager::stats`] lands every
    /// one first.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }
}
