//! Concurrency integration: many threads faulting through one shared
//! [`ShardedPager`] against real TCP memory servers, including a server
//! crash injected while the traffic is in flight.

use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{Pager, ShardedPager};
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId};

use std::sync::{Arc, Barrier};
use std::time::Duration;

const THREADS: u64 = 8;

/// Spawns `servers` memory servers and connects a sharded pager to them.
fn sharded_cluster(
    servers: usize,
    capacity: usize,
    config: PagerConfig,
) -> (Vec<ServerHandle>, Arc<ShardedPager>) {
    let mut handles = Vec::new();
    let mut registry = Registry::new();
    for i in 0..servers {
        let handle = MemoryServer::spawn(ServerConfig {
            capacity_pages: capacity,
            overflow_fraction: 0.10,
            ..ServerConfig::default()
        })
        .expect("spawn server");
        registry
            .add(ServerInfo {
                id: ServerId(i as u32),
                addr: handle.addr().to_string(),
                link_cost: 1.0,
            })
            .expect("register");
        handles.push(handle);
    }
    let pager = ShardedPager::connect(config, &registry).expect("connect sharded pager");
    (handles, Arc::new(pager))
}

/// Fast-failing retry policy so dead-server detection doesn't stretch the
/// test wall clock: two attempts, millisecond backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        jitter: 0.2,
    }
}

/// Thread `t`'s `i`-th page id. The low bits come from `i`, so each
/// thread's id range sweeps across *all* shards and every shard sees
/// traffic from every thread — the contended case, not a partition.
fn pid(t: u64, i: u64) -> PageId {
    PageId(t * 1000 + i)
}

#[test]
fn eight_threads_share_one_pager() {
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(3)
        .with_shard_count(8)
        .with_retry(fast_retry());
    let (_handles, pager) = sharded_cluster(3, 4096, config);

    const PAGES: u64 = 120;
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let pager = Arc::clone(&pager);
            std::thread::spawn(move || {
                // Mixed workload: write everything, read back half,
                // free and rewrite a quarter, then verify the lot.
                for i in 0..PAGES {
                    pager
                        .page_out(pid(t, i), &Page::deterministic(t * 1000 + i))
                        .unwrap_or_else(|e| panic!("thread {t} pageout {i}: {e}"));
                }
                for i in (0..PAGES).step_by(2) {
                    let page = pager
                        .page_in(pid(t, i))
                        .unwrap_or_else(|e| panic!("thread {t} pagein {i}: {e}"));
                    assert_eq!(page, Page::deterministic(t * 1000 + i));
                }
                for i in (0..PAGES).step_by(4) {
                    pager
                        .free(pid(t, i))
                        .unwrap_or_else(|e| panic!("thread {t} free {i}: {e}"));
                    assert!(!pager.contains(pid(t, i)));
                    pager
                        .page_out(pid(t, i), &Page::deterministic(t * 1000 + i))
                        .unwrap_or_else(|e| panic!("thread {t} rewrite {i}: {e}"));
                }
                for i in 0..PAGES {
                    assert!(pager.contains(pid(t, i)), "thread {t} lost page {i}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread");
    }

    // Cross-thread visibility: the main thread reads every page written
    // by every worker through the same shared handle.
    for t in 0..THREADS {
        for i in 0..PAGES {
            assert_eq!(
                pager.page_in(pid(t, i)).expect("main-thread read"),
                Page::deterministic(t * 1000 + i),
                "thread {t} page {i} after join"
            );
        }
    }
    let stats = pager.stats();
    assert!(
        stats.pageouts >= THREADS * PAGES,
        "summed shard stats cover all writes: {}",
        stats.pageouts
    );
    assert_eq!(stats.checksum_failures, 0);
}

#[test]
fn crash_during_concurrent_traffic_keeps_pages_readable() {
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(3)
        .with_shard_count(8)
        .with_retry(fast_retry());
    let (handles, pager) = sharded_cluster(3, 4096, config);

    const PAGES: u64 = 80;
    // Both barriers include the main thread: the first gates the crash
    // until every worker finished its pre-crash writes; the second holds
    // workers until the crash has landed.
    let wrote = Arc::new(Barrier::new(THREADS as usize + 1));
    let crashed = Arc::new(Barrier::new(THREADS as usize + 1));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let pager = Arc::clone(&pager);
            let wrote = Arc::clone(&wrote);
            let crashed = Arc::clone(&crashed);
            std::thread::spawn(move || {
                for i in 0..PAGES {
                    pager
                        .page_out(pid(t, i), &Page::deterministic(t * 1000 + i))
                        .unwrap_or_else(|e| panic!("thread {t} pageout {i}: {e}"));
                }
                wrote.wait();
                crashed.wait();
                // One server is now dead. Reads of mirrored pages must
                // still succeed (degraded from the surviving copy), and
                // new writes must land on the live servers.
                for i in 0..PAGES {
                    let page = pager
                        .page_in(pid(t, i))
                        .unwrap_or_else(|e| panic!("thread {t} post-crash read {i}: {e}"));
                    assert_eq!(page, Page::deterministic(t * 1000 + i));
                }
                for i in PAGES..PAGES + 40 {
                    pager
                        .page_out(pid(t, i), &Page::deterministic(t * 1000 + i))
                        .unwrap_or_else(|e| panic!("thread {t} post-crash write {i}: {e}"));
                }
            })
        })
        .collect();

    wrote.wait();
    handles[2].crash();
    crashed.wait();
    for t in threads {
        t.join().expect("worker thread");
    }

    // Drain the rebuild: re-mirror everything the dead server held onto
    // the survivors, then verify the whole data set once more.
    let reports = pager.recover_from_crash(ServerId(2)).expect("recovery");
    assert_eq!(reports.len(), pager.shard_count());
    assert_eq!(pager.recovery_backlog(), 0, "no shard left degraded");
    for t in 0..THREADS {
        for i in 0..PAGES + 40 {
            assert_eq!(
                pager.page_in(pid(t, i)).expect("post-recovery read"),
                Page::deterministic(t * 1000 + i),
                "thread {t} page {i} after recovery"
            );
        }
    }
    let stats = pager.stats();
    let rebuilt: u64 = reports.iter().map(|r| r.pages_rebuilt).sum();
    assert!(
        stats.degraded_reads > 0 || rebuilt > 0,
        "the crash was observed: degraded reads {} / rebuilt {rebuilt}",
        stats.degraded_reads
    );
    assert_eq!(stats.checksum_failures, 0);
}

#[test]
fn one_shard_pays_for_a_crash_and_every_shard_knows() {
    // Basic parity, data servers 0 and 1 and parity server 2, four
    // shards: page `s` is shard `s`'s first, so it lies on server 0. The
    // backoff is long enough that every read below comes before a rung is
    // due; only the pageout waits for one.
    const SHARDS: u64 = 4;
    const PAGES: u64 = 32;
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(100),
        jitter: 0.0,
    };
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(2)
        .with_shard_count(SHARDS as usize)
        .with_prefetch_window(0)
        .with_retry(retry);
    let (handles, pager) = sharded_cluster(3, 4096, config);
    for i in 0..PAGES {
        (pager.page_out(PageId(i), &Page::deterministic(i))).expect("pageout");
    }
    let victim = ServerId(0);
    // Every attempt at the victim, failed ones included.
    let dials = |p: &mut Pager| {
        let latency = p.metrics().histogram("pool_call_latency_us{srv0}");
        latency.snapshot().count
    };
    let before: Vec<u64> = (0..SHARDS)
        .map(|s| pager.with_shard(s as usize, dials))
        .collect();
    handles[0].crash();
    let seen = |shard: u64| {
        pager.with_shard(shard as usize, |p| {
            let counter = |name| p.metrics().counter(name).get();
            let dead = !p.pool().view().is_alive(victim);
            let (retries, failed) = (
                counter("pool_retries_total"),
                counter("pool_call_errors_total"),
            );
            let dialled = dials(p) - before[shard as usize];
            (dead, p.recovery_backlog(), retries, failed, dialled)
        })
    };
    // Shard 0 reads a lost page: its one attempt fails, and it reads
    // around the server at once — backing off, not dead, nothing queued.
    assert_eq!(
        pager.page_in(PageId(0)).expect("read"),
        Page::deterministic(0)
    );
    assert_eq!(seen(0), (false, 0, 0, 0, 1), "one dial, no retry");
    // Its siblings were told: each has the server backing off before it
    // has sent it a frame, and its own first read of a lost page goes
    // straight to the stripe's other pieces.
    for shard in 1..SHARDS {
        let told = pager.with_shard(shard as usize, |p| p.pool().backoff(victim));
        assert!(told.is_some(), "shard {shard} was told");
        let read = pager.page_in(PageId(shard)).expect("degraded read");
        assert_eq!(read, Page::deterministic(shard));
        assert_eq!(
            seen(shard),
            (false, 0, 0, 0, 0),
            "shard {shard} dialled nothing"
        );
    }
    assert_eq!(pager.stats().degraded_reads, SHARDS);
    // A rewrite of a lost page has no way around the server: shard 0's
    // walks the rest of the ladder to the verdict. Basic parity rebuilds
    // in place, so the pageout fails — and every shard, told of the death,
    // queues the rebuild.
    let rewrite = pager.page_out(PageId(0), &Page::deterministic(0));
    assert!(rewrite.is_err(), "{rewrite:?}");
    assert_eq!(seen(0), (true, 1, 2, 1, 3), "one ladder: two retries");
    for shard in 1..SHARDS {
        assert_eq!(seen(shard), (true, 1, 0, 0, 0), "shard {shard} was told");
    }
    for i in 0..PAGES {
        let read = pager.page_in(PageId(i)).expect("every page reads back");
        assert_eq!(read, Page::deterministic(i), "pg{i}");
    }
    let degraded = pager.stats().degraded_reads;
    assert_eq!(degraded, SHARDS + PAGES / 2);
    let retries: u64 = (0..SHARDS).map(|shard| seen(shard).2).sum();
    assert_eq!(retries, 2, "the crash cost the whole front-end one ladder");
    // The machine is back, empty: one reconnect forgives it on every
    // shard, and the in-place rebuild can run.
    handles[0].restart();
    pager.reconnect(victim).expect("reconnect");
    for shard in 0..SHARDS {
        assert!(!seen(shard).0, "shard {shard} forgave");
    }
    let reports = pager.recover_from_crash(victim).expect("rebuild");
    let rebuilt: u64 = reports.iter().map(|r| r.pages_rebuilt).sum();
    assert_eq!(rebuilt, PAGES / 2);
    assert_eq!(pager.recovery_backlog(), 0);
    for i in 0..PAGES {
        let read = pager.page_in(PageId(i)).expect("read after the rebuild");
        assert_eq!(read, Page::deterministic(i), "pg{i}");
    }
    assert_eq!(
        pager.stats().degraded_reads,
        degraded,
        "no read is degraded any more"
    );
}

#[test]
fn one_maintenance_pass_walks_the_ladder_once() {
    // Each shard's load probe would walk the retry ladder for the same
    // dead server; the pass hands the first shard's verdict to the second
    // before the second probes.
    let retry = RetryPolicy {
        max_attempts: 3,
        ..fast_retry()
    };
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(3)
        .with_shard_count(2)
        .with_retry(retry);
    let (handles, pager) = sharded_cluster(3, 4096, config);
    for i in 0..16 {
        (pager.page_out(PageId(i), &Page::deterministic(i))).expect("pageout");
    }
    // The placements land first: one still on the wire at the crash
    // would walk a ladder of its own as it landed.
    pager.flush().expect("every placement landed");
    handles[2].crash();
    pager.periodic_maintenance().expect("maintenance");
    let of_shard = |shard, name| pager.with_shard(shard, |p| p.metrics().counter(name).get());
    let retries: u64 = (0..2).map(|s| of_shard(s, "pool_retries_total")).sum();
    assert_eq!(retries, 2, "one walk: max_attempts - 1 retries");
    for shard in 0..2 {
        let dead = pager.with_shard(shard, |p| !p.pool().view().is_alive(ServerId(2)));
        assert!(dead, "shard {shard} holds the server dead");
    }
    assert_eq!(of_shard(1, "pool_deaths_total"), 1, "told, not found");
    for i in 0..16 {
        let read = pager.page_in(PageId(i)).expect("read");
        assert_eq!(read, Page::deterministic(i), "pg{i}");
    }
}

#[test]
fn eight_threads_meet_on_two_shards() {
    // Two shards for eight threads: four callers to a shard at any
    // moment, each on pages of its own, so their flights share the
    // shard's connections instead of queueing for its lock — rewrites
    // (a wave to both copies), reads, frees, and a flush now and then
    // that has to wait for the wire to empty.
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(3)
        .with_shard_count(2)
        .with_retry(fast_retry());
    let (_handles, pager) = sharded_cluster(3, 4096, config);
    // This is about flights sharing a shard's connections, not latency:
    // eight threads on a loaded machine can make a server look gray, and
    // a read around it is a degraded read, which must stay at 0 here.
    for shard in 0..2 {
        pager.with_shard(shard, |p| {
            p.pool_mut().set_detector_slow_floor_us(f64::INFINITY)
        });
    }

    const PAGES: u64 = 60;
    const ROUNDS: u64 = 4;
    let version = |t: u64, i: u64, round: u64| Page::deterministic((round << 32) | (t * 1000 + i));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let pager = Arc::clone(&pager);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..PAGES {
                        pager
                            .page_out(pid(t, i), &version(t, i, round))
                            .unwrap_or_else(|e| panic!("thread {t} round {round} write {i}: {e}"));
                        if i % 16 == t {
                            pager.flush().expect("flush under traffic");
                        }
                    }
                    for i in 0..PAGES {
                        let page = pager
                            .page_in(pid(t, i))
                            .unwrap_or_else(|e| panic!("thread {t} round {round} read {i}: {e}"));
                        assert_eq!(page, version(t, i, round), "thread {t} page {i}");
                    }
                    for i in (0..PAGES).step_by(5) {
                        pager.free(pid(t, i)).expect("free");
                        assert!(!pager.contains(pid(t, i)));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread");
    }
    let stats = pager.stats();
    assert_eq!(stats.pageouts, THREADS * ROUNDS * PAGES);
    assert_eq!(stats.pageins, THREADS * ROUNDS * PAGES);
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
    for t in 0..THREADS {
        for i in (0..PAGES).filter(|i| i % 5 != 0) {
            let page = pager.page_in(pid(t, i)).expect("main-thread read");
            assert_eq!(page, version(t, i, ROUNDS - 1), "thread {t} page {i}");
        }
    }
}

#[test]
fn two_sweeps_share_one_vote_and_read_back_every_byte() {
    // One stride vote hears both threads' faults: interleaved it may
    // find their common stride, a stride between the two ranges, or none
    // — and whatever it reads ahead, into whichever shard, a fault is
    // served its own page as last written. Every other run of eight
    // faults is taken holding `alone`, so that some of each sweep does
    // reach the vote as a run (the first one always: the other thread
    // can only be waiting for `alone`), and the rest is free to interleave.
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(3)
        .with_shard_count(2)
        .with_retry(fast_retry());
    let (_handles, pager) = sharded_cluster(3, 4096, config);
    const PAGES: u64 = 96;
    const SWEEPS: u64 = 4;
    let go = Arc::new(Barrier::new(2));
    let alone = Arc::new(std::sync::Mutex::new(()));
    let threads: Vec<_> = (0..2u64)
        .map(|t| {
            let (pager, go, alone) = (Arc::clone(&pager), Arc::clone(&go), Arc::clone(&alone));
            std::thread::spawn(move || {
                // What thread `t` writes to its page `i`: at its fault in
                // `sweep` (`early` unset), and three faults before it.
                let bytes = |sweep: u64, early: bool, i: u64| {
                    Page::deterministic(sweep << 32 | u64::from(early) << 31 | pid(t, i).0)
                };
                for i in 0..PAGES {
                    (pager.page_out(pid(t, i), &bytes(0, false, i)))
                        .unwrap_or_else(|e| panic!("thread {t} pageout {i}: {e}"));
                }
                go.wait();
                for (sweep, run) in (1..=SWEEPS).flat_map(|s| (0..PAGES / 8).map(move |r| (s, r))) {
                    let _alone = (run % 2 == 0).then(|| alone.lock().expect("no panic"));
                    for i in run * 8..run * 8 + 8 {
                        let page = pager
                            .page_in(pid(t, i))
                            .unwrap_or_else(|e| panic!("thread {t} pagein {i}: {e}"));
                        // The last write was the early one of this sweep,
                        // or for the first three pages of the last.
                        let last = match (i >= 3, sweep) {
                            (true, _) => bytes(sweep, true, i),
                            (false, 1) => bytes(0, false, i),
                            (false, _) => bytes(sweep - 1, true, i),
                        };
                        assert_eq!(page, last, "thread {t} page {i} in sweep {sweep}");
                        // Rewrite it, and a page just ahead of the sweep:
                        // a copy read ahead of either write must not
                        // outlive it.
                        let ahead = (i + 3) % PAGES;
                        for (id, early) in [(i, false), (ahead, true)] {
                            (pager.page_out(pid(t, id), &bytes(sweep, early, id)))
                                .unwrap_or_else(|e| panic!("thread {t} rewrite {id}: {e}"));
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread");
    }
    let stats = pager.stats();
    assert_eq!(stats.pageins, 2 * SWEEPS * PAGES);
    assert_eq!(stats.checksum_failures, 0, "no stale copy was even cached");
    let sum = |name: &str| -> u64 {
        let of = |shard| pager.with_shard(shard, |p| p.metrics().counter(name).get());
        (0..2).map(of).sum()
    };
    let (issued, hits) = (
        sum("pager_prefetch_issued_total"),
        sum("pager_prefetch_hits_total"),
    );
    assert!(
        hits > 0,
        "a run taken alone rode on read-ahead ({issued} issued)"
    );
    let held: usize = (0..2)
        .map(|s| pager.with_shard(s, |p| p.read_ahead_held()))
        .sum();
    assert_eq!(
        issued,
        hits + sum("pager_prefetch_useless_total") + held as u64,
        "the read-ahead ledger balances under concurrency"
    );
}
