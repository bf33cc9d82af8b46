//! One benchmark run: set up, warm up, time a region cut into rounds,
//! and turn the per-round series into named metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::env::Env;
use crate::est::{fast, median, percentile};
use crate::load::{Load, Round, Tally};
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::trace::{Kind, Tracer};
use crate::{alloc, kernels, sys};

/// How long the timed region lasts.
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    /// A fixed number of rounds (`--smoke`): the op stream issued is then
    /// the same on every machine.
    Rounds(u64),
}

impl Budget {
    fn halved(self) -> Budget {
        match self {
            Budget::Time(d) => Budget::Time(d / 2),
            rounds => rounds,
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`, in the order of the table they come from.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Fold of the op stream the reported pass issued.
    pub stream_hash: u64,
    /// The op mix of the reported pass, for closed-form checks.
    pub pageins: u64,
    pub pageouts: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.2)
    }
}

/// The counters a run reads around its timed region. They only ever
/// grow, so a region's share is a difference — and the share of what ran
/// inside the region but off its clock (the crash cycle's verification)
/// is another difference, taken away.
#[derive(Clone, Copy)]
enum C {
    Transfers,
    OutboundTransfers,
    Fetches,
    Pageouts,
    Pageins,
    DegradedReads,
    RecoverySteps,
    GroupsReclaimed,
    GcPasses,
    Allocs,
    AllocBytes,
    CtxSwitches,
    ServerRequests,
    LinkFrames,
    LinkBytes,
    LinkReleased,
    LinkOvershootNs,
    LinkCpuNs,
    TransportCalls,
    TransportSubmits,
    TransportBusyNs,
    PrefetchIssued,
    PrefetchHits,
    EcEncodes,
    EcReconstructs,
}

#[derive(Clone, Copy, Default)]
struct Counters([u64; C::EcReconstructs as usize + 1]);

impl std::ops::Index<C> for Counters {
    type Output = u64;

    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<C> for Counters {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let mut c = Counters::default();
        let stats = env.pager.stats();
        c[C::Transfers] = stats.total_net_transfers();
        c[C::OutboundTransfers] = stats.net_data_transfers + stats.net_parity_transfers;
        c[C::Fetches] = stats.net_fetches;
        c[C::Pageouts] = stats.pageouts;
        c[C::Pageins] = stats.pageins;
        c[C::DegradedReads] = stats.degraded_reads;
        c[C::RecoverySteps] = stats.recovery_steps;
        c[C::GroupsReclaimed] = stats.groups_reclaimed;
        c[C::GcPasses] = stats.gc_passes;
        (c[C::Allocs], c[C::AllocBytes]) = alloc::counted();
        c[C::CtxSwitches] = sys::voluntary_ctx_switches();
        let servers = env.cluster.handles();
        c[C::ServerRequests] = servers.iter().map(|h| h.served_requests()).sum();
        c[C::PrefetchIssued] = env.counter("pager_prefetch_issued_total");
        c[C::PrefetchHits] = env.counter("pager_prefetch_hits_total");
        c[C::EcEncodes] = env.counter("engine_ec_encodes_total");
        c[C::EcReconstructs] = env.counter("engine_ec_reconstructs_total");
        for link in &env.links {
            let k = &link.counters;
            c[C::LinkFrames] += k.frames.load(Ordering::Relaxed);
            c[C::LinkBytes] += k.bytes.load(Ordering::Relaxed);
            c[C::LinkReleased] += k.released.load(Ordering::Relaxed);
            c[C::LinkOvershootNs] += k.overshoot_ns.load(Ordering::Relaxed);
            c[C::LinkCpuNs] += k.cpu_ns.load(Ordering::Relaxed);
        }
        for t in env.traced.iter().flat_map(|t| &t.transports) {
            c[C::TransportCalls] +=
                t.calls.load(Ordering::Relaxed) + t.pipelined.load(Ordering::Relaxed);
            c[C::TransportSubmits] += t.submits.load(Ordering::Relaxed);
            c[C::TransportBusyNs] += t.busy_ns.load(Ordering::Relaxed);
        }
        c
    }

    /// `self + later − earlier`, counter by counter.
    fn plus_span(mut self, earlier: &Counters, later: &Counters) -> Counters {
        for (i, total) in self.0.iter_mut().enumerate() {
            *total += later.0[i] - earlier.0[i];
        }
        self
    }

    fn minus(mut self, other: &Counters) -> Counters {
        for (i, total) in self.0.iter_mut().enumerate() {
            *total -= other.0[i];
        }
        self
    }
}

/// A timed region and everything read around it.
struct Pass {
    rounds: Vec<Round>,
    /// What the region's rounds added to each counter.
    d: Counters,
    tally: Tally,
    live_pages: u64,
}

impl Pass {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.dev.ops()).sum()
    }

    fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops().max(1) as f64
    }

    /// Fast-round estimate of a per-round quantity; rounds for which it
    /// is undefined (no op of that kind) are left out.
    fn fast(&self, f: impl Fn(&Round) -> Option<f64>) -> f64 {
        fast(self.rounds.iter().filter_map(f).collect())
    }

    fn round_ms(&self) -> f64 {
        self.fast(|r| Some(r.wall_ns as f64 / 1e6))
    }

    fn mean(&self, f: impl Fn(&Round) -> f64) -> f64 {
        self.rounds.iter().map(f).sum::<f64>() / self.rounds.len().max(1) as f64
    }

    /// What other estimators would have reported for this run, so that
    /// the choice of the fast round can be checked against them.
    fn print_round_quantiles(&self) {
        let mut ms: Vec<f64> = self.rounds.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        println!(
            "round_ms over {} rounds: min {:.4} p1 {:.4} p2 {:.4} p10 {:.4} p50 {:.4} mean {:.4}",
            ms.len(),
            percentile(&ms, 0.0),
            percentile(&ms, 1.0),
            percentile(&ms, 2.0),
            percentile(&ms, 10.0),
            percentile(&ms, 50.0),
            ms.iter().sum::<f64>() / ms.len().max(1) as f64,
        );
    }

    /// The per-round series, one CSV row per round, for trying other
    /// estimators and round sizes on the same run.
    fn write_rounds(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "wall_ns,cpu_ns,pagein_ns,pageins,pageout_ns,pageouts")?;
        for r in &self.rounds {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                r.wall_ns,
                r.cpu_ns,
                r.dev.pagein_ns,
                r.dev.pageins,
                r.dev.pageout_ns,
                r.dev.pageouts
            )?;
        }
        out.flush()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One set-up, timed in pieces.
struct SetUp {
    env: Env,
    load: Load,
    /// Spawning servers and relay, and connecting.
    spawn_s: f64,
    /// Wall time of each chunk of the preload, ns.
    preload_ns: Vec<u64>,
    /// Wall time of each warm-up round, ns.
    warmup_ns: Vec<u64>,
}

/// Spawns the cluster, connects, preloads and warms up.
fn set_up(w: &Workload, seed: u64, tracer: Option<Arc<Tracer>>) -> Result<SetUp, String> {
    let start = Instant::now();
    let env = Env::build(w, tracer).map_err(|e| format!("set-up: {e}"))?;
    let spawn_s = start.elapsed().as_secs_f64();
    let (mut load, preload_ns) = Load::start(w, &env, seed);
    let mut warmup_ns = Vec::new();
    for r in 0..w.warmup_rounds {
        let round = load.round(&env, r).map_err(|e| format!("warm-up: {e}"))?;
        warmup_ns.push(round.wall_ns);
        load.verify(&env);
    }
    Ok(SetUp {
        env,
        load,
        spawn_s,
        preload_ns,
        warmup_ns,
    })
}

fn measure(w: &Workload, env: &Env, load: &mut Load, budget: Budget) -> Result<Pass, String> {
    // Room for every round of a default run, so the series never
    // reallocates under the allocation counter.
    let mut rounds = Vec::with_capacity(1 << 17);
    let mut off_clock = Counters::default();
    let before = Counters::read(env);
    alloc::arm(true);
    let start = Instant::now();
    loop {
        let done = match budget {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Rounds(n) => rounds.len() as u64 >= n,
        };
        if done {
            break;
        }
        let r = w.warmup_rounds + rounds.len() as u64;
        rounds.push(load.round(env, r).map_err(|e| format!("round {r}: {e}"))?);
        if load.verifies() {
            // Every page must have survived the cycle; checking that is
            // no part of any figure, timed or counted.
            alloc::arm(false);
            let mark = Counters::read(env);
            load.verify(env);
            off_clock = off_clock.plus_span(&mark, &Counters::read(env));
            alloc::arm(true);
        }
    }
    alloc::arm(false);
    Ok(Pass {
        rounds,
        d: Counters::default()
            .plus_span(&before, &Counters::read(env))
            .minus(&off_clock),
        tally: load.tally(),
        live_pages: load.live_pages(env),
    })
}

/// The untraced run: the production path, set up `w.setups` times.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    budget: Budget,
    rounds_out: Option<&str>,
) -> Result<Outcome, String> {
    let (mut whole_s, mut spawn_s) = (Vec::new(), Vec::new());
    let (mut preload_ns, mut warmup_ns) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..w.setups {
        // The previous set-up is torn down first, off the clock: load
        // (its probes hold the pager) before environment.
        drop(last.take());
        let start = Instant::now();
        let s = set_up(w, seed, None)?;
        whole_s.push(start.elapsed().as_secs_f64());
        spawn_s.push(s.spawn_s);
        preload_ns.extend(s.preload_ns.iter().map(|&ns| ns as f64));
        warmup_ns.extend(s.warmup_ns.iter().map(|&ns| ns as f64));
        last = Some((s.load, s.env));
    }
    // Set-up is costed like the timed region: each of its loops is as
    // many pieces as it ran, at the fast-round time of a piece over all
    // the set-ups of this run. A whole set-up is one CPU-bound shot of
    // 0.3–1.5 s and moves 20–40 % with the sandbox's slow phases; this
    // moves as the other timed metrics do, and still grows with every
    // page, round or connection a change adds to set-up.
    let pieces = |pooled: Vec<f64>| {
        let per_setup = pooled.len() as f64 / w.setups as f64;
        per_setup * fast(pooled) / 1e9
    };
    let (spawn_s, preload_s, warmup_s) = (median(spawn_s), pieces(preload_ns), pieces(warmup_ns));
    let setup_s = spawn_s + preload_s + warmup_s;
    println!(
        "set-up: spawn and connect {spawn_s:.4} s + preload {preload_s:.4} s + warm-up \
         {warmup_s:.4} s; whole set-ups took {whole_s:.3?} s"
    );
    let (mut load, env) = last.ok_or("a workload sets up at least once")?;
    let pass = measure(w, &env, &mut load, budget)?;
    drop(load);
    drop(env);
    pass.print_round_quantiles();
    if let Some(path) = rounds_out {
        pass.write_rounds(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    let values = [
        setup_s,
        pass.round_ms(),
        pass.fast(|r| (r.dev.pageins > 0).then(|| ratio(r.dev.pagein_ns, r.dev.pageins) / 1e3)),
        pass.fast(|r| (r.dev.pageouts > 0).then(|| ratio(r.dev.pageout_ns, r.dev.pageouts) / 1e3)),
        pass.per_op(pass.d[C::Transfers]),
        // The parity log's store occupancy cycles from round to round;
        // the median over rounds does not depend on where the run stops.
        median(pass.rounds.iter().map(|r| r.stored_pages as f64).collect())
            / pass.live_pages.max(1) as f64,
        pass.per_op(pass.d[C::Allocs]),
        pass.per_op(pass.d[C::AllocBytes]) / 1024.0,
        sys::peak_rss_mib(),
    ];
    Ok(outcome(&pass, &END_TO_END, &values))
}

/// The traced run: half the budget untraced for the baseline, half
/// through the wrapped transports, then the kernels.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    budget: Budget,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    let budget = budget.halved();
    let untraced_round_ms = {
        let SetUp { env, mut load, .. } = set_up(w, seed, None)?;
        let pass = measure(w, &env, &mut load, budget)?;
        drop(load);
        drop(env);
        pass.round_ms()
    };

    let tracer = Tracer::new();
    let SetUp { env, mut load, .. } = set_up(w, seed, Some(Arc::clone(&tracer)))?;
    // Preload and warm-up are not part of the reported distribution.
    {
        let mut s = tracer.samples.lock().expect("samples poisoned");
        s.pagein.clear();
        s.pageout.clear();
    }
    let pass = measure(w, &env, &mut load, budget)?;
    let servers = env.cluster.handles();
    let busy_fraction =
        servers.iter().map(|h| h.busy_fraction()).sum::<f64>() / servers.len() as f64;
    let worker_threads: usize = servers.iter().map(|h| h.worker_threads()).sum();
    // Since connect, not since the region began: on a fault-free
    // workload any retry, hedge or stall at all is the finding.
    let pool = [
        env.counter("pool_retries_total"),
        env.counter("pool_hedged_pageins_total"),
        env.counter("pool_window_stalls_total"),
    ];
    drop(load);
    drop(env);
    let k = kernels::run();

    let us = |ns: &[u32]| -> Vec<f64> {
        let mut v: Vec<f64> = ns.iter().map(|&n| f64::from(n) / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (pagein, pageout) = {
        let s = tracer.samples.lock().expect("samples poisoned");
        (us(&s.pagein), us(&s.pageout))
    };
    let mut calls = tracer.durations(Kind::Call);
    calls.sort_by(f64::total_cmp);
    let d = &pass.d;
    let total = |f: fn(&Round) -> u64| pass.rounds.iter().map(f).sum::<u64>();
    let degraded_rounds: Vec<f64> = pass
        .rounds
        .iter()
        .filter(|r| r.first_degraded_ns > 0)
        .map(|r| r.first_degraded_ns as f64 / 1e3)
        .collect();
    let walls: Vec<f64> = pass.rounds.iter().map(|r| r.wall_ns as f64).collect();
    let round_ms = pass.round_ms();
    if let Some(path) = trace_out {
        let spans = tracer
            .write_to(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {spans} spans to {path}");
    }
    let values = [
        percentile(&pagein, 50.0),
        percentile(&pagein, 99.0),
        percentile(&pageout, 50.0),
        percentile(&pageout, 99.0),
        (pagein.len() + pageout.len()) as f64,
        pass.mean(|r| r.dev.ops() as f64),
        pass.mean(|r| (r.wall_ns as f64 - r.dev.device_ns() as f64 / w.threads as f64) / 1e6),
        ratio(total(|r| r.dev.device_ns()), total(|r| r.wall_ns)),
        pass.per_op(total(|r| r.dev.self_ns)) / 1e3,
        ratio(d[C::OutboundTransfers], d[C::Pageouts]),
        ratio(d[C::Fetches], d[C::Pageins]),
        d[C::DegradedReads] as f64,
        d[C::RecoverySteps] as f64,
        d[C::GroupsReclaimed] as f64,
        d[C::GcPasses] as f64,
        d[C::EcEncodes] as f64,
        d[C::EcReconstructs] as f64,
        d[C::PrefetchIssued] as f64,
        d[C::PrefetchHits] as f64,
        ratio(d[C::PrefetchHits], d[C::PrefetchIssued]),
        pool[0] as f64,
        pool[1] as f64,
        pool[2] as f64,
        pass.mean(|r| r.rebuild_ns as f64 / 1e6),
        pass.mean(|r| r.pages_rebuilt as f64),
        if degraded_rounds.is_empty() {
            0.0
        } else {
            degraded_rounds.iter().sum::<f64>() / degraded_rounds.len() as f64
        },
        pass.per_op(d[C::TransportCalls]),
        pass.per_op(d[C::TransportSubmits]),
        pass.per_op(d[C::TransportBusyNs]) / 1e3,
        percentile(&calls, 50.0) / 1e3,
        pass.per_op(d[C::LinkFrames]),
        pass.per_op(d[C::LinkBytes]) / 1024.0,
        pass.per_op(d[C::LinkCpuNs]) / 1e3,
        ratio(d[C::LinkOvershootNs], d[C::LinkReleased]) / 1e3,
        pass.per_op(d[C::ServerRequests]),
        busy_fraction,
        worker_threads as f64,
        k.store_insert_ns,
        k.store_get_ns,
        k.encode_ns,
        k.decode_ns,
        k.checksum_gbps,
        k.xor_gbps,
        k.rs_encode_gbps,
        k.rs_decode_gbps,
        pass.fast(|r| (r.dev.ops() > 0).then(|| ratio(r.cpu_ns, r.dev.ops()) / 1e3)),
        pass.per_op(d[C::CtxSwitches]),
        pass.ops() as f64 / (total(|r| r.wall_ns) as f64 / 1e9),
        median(walls) / 1e6 / round_ms,
        round_ms / untraced_round_ms - 1.0,
        tracer.dropped() as f64,
    ];
    Ok(outcome(&pass, &PER_LAYER, &values))
}

fn outcome(pass: &Pass, table: &'static [Metric], values: &[f64]) -> Outcome {
    assert_eq!(
        table.len(),
        values.len(),
        "one value per metric of the table"
    );
    Outcome {
        attempted: pass.tally.attempted,
        failed: pass.tally.failed,
        metrics: table
            .iter()
            .zip(values)
            .map(|(m, &v)| (m.name, m.unit, v))
            .collect(),
        stream_hash: pass.tally.stream_hash,
        pageins: pass.rounds.iter().map(|r| r.dev.pageins).sum(),
        pageouts: pass.rounds.iter().map(|r| r.dev.pageouts).sum(),
    }
}
