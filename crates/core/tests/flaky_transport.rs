//! Deadline/retry fault injection against in-process servers.
//!
//! A fault plan scripts per-call outcomes (timeouts, dropped
//! connections, typed refusals, permanent death) over servers whose
//! memory survives a dropped connection — the failure shapes the
//! retry/backoff layer in `ServerPool::call` exists to absorb. The tests
//! assert the transport contract from the failure-semantics design:
//! timeouts retry with backoff, transient failures reconnect and keep the
//! server (Suspect, not Dead), permanent death falls through to the
//! existing crash recovery, and no call path can block without a
//! deadline.

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use rmp_blockdev::RamDisk;
use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::{Clock, ServerPool, ShardedPager, WindowedTransport};
use rmp_proto::{LoadHint, Opcode};
use rmp_server::ServerConfig;
use rmp_types::metrics::MetricsRegistry;
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Policy, RetryPolicy, RmpError, ServerId, StoreKey,
    TransportConfig,
};

use support::{counted, in_waves, one_shard, wave_pool};

/// Frames each in-process server may promise.
fn capacity() -> usize {
    ServerConfig::default().capacity_pages
}

/// Fast deterministic retry policy so tests finish quickly.
fn test_transport_config() -> TransportConfig {
    TransportConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    }
}

/// `n` in-process servers under a plan that counts every call, and a
/// pool over them with `transport`'s deadlines and retries.
fn flaky_pool_with(n: usize, transport: TransportConfig) -> (ChaosCluster, ServerPool) {
    let cluster = ChaosCluster::new(n, FaultPlan::seeded(0));
    cluster.plan().arm();
    let pool = cluster.pool(&transport);
    (cluster, pool)
}

fn flaky_pool(n: usize) -> (ChaosCluster, ServerPool) {
    flaky_pool_with(n, test_transport_config())
}

fn flaky_pager(policy: Policy, servers: usize, n: usize) -> (ChaosCluster, ShardedPager) {
    let (cluster, pool) = flaky_pool(n);
    let config = PagerConfig::new(policy)
        .with_servers(servers)
        .with_transport(test_transport_config());
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    (cluster, pager)
}

/// Server `i` of `cluster` meets `action` on its next `calls` calls.
fn script(cluster: &ChaosCluster, i: u32, action: FaultAction, calls: u32) {
    let rule = FaultRule::new(action).on_server(ServerId(i)).times(calls);
    cluster.plan().inject(rule);
}

/// Server `i` of `cluster` refuses its next store with `code`.
fn refuse_store(cluster: &ChaosCluster, i: u32, code: ErrorCode) {
    let rule = FaultRule::new(FaultAction::Refuse(code)).on_server(ServerId(i));
    cluster
        .plan()
        .inject(rule.on_ops(OpFilter::Op(Opcode::PageOut)).times(1));
}

/// Calls that reached the servers of `cluster` so far.
fn calls(cluster: &ChaosCluster) -> u64 {
    cluster.plan().calls()
}

// --- timeout → retry with backoff, per policy ------------------------------

fn assert_timeout_retried(policy: Policy, servers: usize, transports: usize) {
    let (cluster, pager) = flaky_pager(policy, servers, transports);
    // Two deadline expiries, then the server answers: the pool must ride
    // through both within one logical call and sleep its backoff between
    // attempts (5 ms then 10 ms with jitter off).
    script(&cluster, 0, FaultAction::Drop, 2);
    let start = Instant::now();
    for i in 0..8u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout rides through timeouts");
    }
    pager.flush().expect("flush");
    assert!(
        start.elapsed() >= Duration::from_millis(14),
        "{policy:?}: retries must back off (5 ms + 10 ms), elapsed {:?}",
        start.elapsed()
    );
    // That each retry redials first is pinned by `read_around`, over the
    // scripted wire that logs redials.
    assert!(
        counted(&pager, "pool_retries_total") >= 2,
        "{policy:?}: both lost attempts are retried"
    );
    for i in 0..8u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("readback"),
            Page::deterministic(i),
            "{policy:?}: page {i} survived the flaky window"
        );
    }
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "{policy:?}: a server that recovered within the retry budget is not dead"
    );
    assert_eq!(
        pager.with_shard(0, |p| p
            .metrics()
            .counter("pool_suspect_transitions_total")
            .get()),
        1,
        "{policy:?}: two misses in a row are one Healthy→Suspect transition"
    );
}

#[test]
fn mirroring_timeout_retries_with_backoff() {
    assert_timeout_retried(Policy::Mirroring, 2, 2);
}

#[test]
fn basic_parity_timeout_retries_with_backoff() {
    assert_timeout_retried(Policy::BasicParity, 2, 3);
}

#[test]
fn parity_logging_timeout_retries_with_backoff() {
    assert_timeout_retried(Policy::ParityLogging, 2, 3);
}

// --- transient disconnect → reconnect + reuse (Suspect, not Dead) ----------

fn assert_disconnect_reconnected(policy: Policy, servers: usize, transports: usize) {
    let (cluster, pager) = flaky_pager(policy, servers, transports);
    script(&cluster, 0, FaultAction::Disconnect, 1);
    for i in 0..8u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout rides through the drop");
    }
    pager.flush().expect("flush");
    assert!(
        counted(&pager, "pool_retries_total") >= 1,
        "{policy:?}: the dropped connection was redialed"
    );
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "{policy:?}: one dropped connection must not kill the server"
    );
    for i in 0..8u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("readback"),
            Page::deterministic(i),
            "{policy:?}: pages stored before/after the drop are intact"
        );
    }
}

#[test]
fn mirroring_disconnect_reconnects_and_reuses_server() {
    assert_disconnect_reconnected(Policy::Mirroring, 2, 2);
}

#[test]
fn basic_parity_disconnect_reconnects_and_reuses_server() {
    assert_disconnect_reconnected(Policy::BasicParity, 2, 3);
}

#[test]
fn parity_logging_disconnect_reconnects_and_reuses_server() {
    assert_disconnect_reconnected(Policy::ParityLogging, 2, 3);
}

// --- suspect lifecycle ------------------------------------------------------

#[test]
fn flaky_server_goes_suspect_then_earns_healthy_back() {
    let (cluster, mut pool) = flaky_pool(1);
    // Count replies, not microseconds: on a loaded machine a clean reply
    // can look slow and stretch the streak this test counts. On a manual
    // clock no reply takes any time.
    pool.set_clock(Clock::manual());
    script(&cluster, 0, FaultAction::Drop, 1);
    pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
        .expect("retried");
    assert!(
        pool.suspected(ServerId(0)),
        "transient failure leaves the server suspect"
    );
    // The clean call that finished the retried pageout counts as streak 1;
    // two more clean calls restore trust.
    pool.page_in(ServerId(0), StoreKey(1)).expect("clean");
    pool.page_in(ServerId(0), StoreKey(1)).expect("clean");
    assert!(
        pool.alive(ServerId(0)) && !pool.suspected(ServerId(0)),
        "three consecutive clean calls promote suspect back to healthy"
    );
}

#[test]
fn suspect_servers_are_deprioritized_for_new_pages() {
    let (cluster, mut pool) = flaky_pool(2);
    // Give server 0 the better load report, then make it suspect: the
    // placement ranking must still prefer the healthy server.
    cluster.server(1).set_native_usage(1024);
    pool.refresh_loads();
    assert_eq!(pool.most_promising(&[]), Some(ServerId(0)));
    script(&cluster, 0, FaultAction::Drop, 1);
    pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
        .expect("retried");
    assert!(pool.suspected(ServerId(0)));
    assert_eq!(
        pool.most_promising(&[]),
        Some(ServerId(1)),
        "a suspect server loses placement priority to any healthy one"
    );
    assert!(
        pool.live_servers().contains(&ServerId(0)),
        "suspect is deprioritized, not abandoned: its pages stay reachable"
    );
}

/// What a server says of its memory is kept apart from what the pool
/// makes of how it answers: a load report neither clears suspicion nor
/// outlives a rejoin, and a server that asks the client to stop sending
/// still serves the pages it holds.
#[test]
fn load_reports_do_not_launder_a_suspect() {
    let (cluster, mut pool) = flaky_pool(2);
    cluster.server(1).set_native_usage(1024);
    pool.refresh_loads();
    pool.page_out(ServerId(1), StoreKey(2), &Page::deterministic(2))
        .expect("stored");
    script(&cluster, 0, FaultAction::Drop, 1);
    pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
        .expect("retried");
    // Its host takes all of its memory, then gives it back.
    for (native, said) in [(capacity(), LoadHint::StopSending), (0, LoadHint::Ok)] {
        cluster.server(0).set_native_usage(native);
        let hint = pool.query_load(ServerId(0)).expect("load answer").3;
        assert_eq!(hint, said);
        assert!(pool.suspected(ServerId(0)), "{hint:?} cleared suspicion");
        assert_eq!(pool.most_promising(&[]), Some(ServerId(1)), "{hint:?}");
    }

    // Stop sending: no new pages, but the old ones are still read.
    cluster.server(1).set_native_usage(capacity());
    let hint = pool.query_load(ServerId(1)).expect("load answer").3;
    assert_eq!(hint, LoadHint::StopSending);
    assert!(!pool.accepting(ServerId(1)) && pool.alive(ServerId(1)));
    assert_eq!(
        pool.most_promising(&[]),
        Some(ServerId(0)),
        "the suspect is left"
    );
    let read = pool.page_in(ServerId(1), StoreKey(2)).expect("still read");
    assert_eq!(read, Page::deterministic(2));

    // A rejoin is asked afresh; a dead server never ranks.
    pool.absolve(ServerId(1));
    assert!(pool.accepting(ServerId(1)));
    assert_eq!(pool.most_promising(&[]), Some(ServerId(1)));
    pool.declare_dead(ServerId(1), "test");
    assert_eq!(pool.most_promising(&[]), Some(ServerId(0)));
    pool.declare_dead(ServerId(0), "test");
    assert_eq!(pool.most_promising(&[]), None);
}

// --- permanent death → existing crash recovery ------------------------------

#[test]
fn mirroring_permanent_death_recovers_from_mirror() {
    let (cluster, pager) = flaky_pager(Policy::Mirroring, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    cluster.server(0).crash();
    // Reads must survive: the surviving mirror serves every page, the
    // first miss sending them around server 0 at once.
    for i in 0..12u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("mirror survives"),
            Page::deterministic(i)
        );
    }
    // A load probe has no way around it: the retry budget drains, and
    // server 0 is declared dead.
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    assert!(!pager.with_shard(0, |p| p.pool().alive(ServerId(0))));
    // The existing recovery machinery restores two-copy redundancy on the
    // survivors.
    pager.recover_from_crash(ServerId(0)).expect("re-mirror");
}

#[test]
fn parity_logging_permanent_death_recovers_via_parity() {
    let (cluster, pager) = flaky_pager(Policy::ParityLogging, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    cluster.server(0).crash();
    for i in 0..12u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("parity reconstruction"),
            Page::deterministic(i)
        );
    }
    // The reads went around server 0; a load probe walks what is left of
    // the retry ladder to the verdict.
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    assert!(!pager.with_shard(0, |p| p.pool().alive(ServerId(0))));
}

#[test]
fn basic_parity_rebuilds_a_wiped_server_in_place() {
    let (cluster, pager) = flaky_pager(Policy::BasicParity, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // The workstation restarts with empty memory; basic parity rebuilds
    // the lost pages onto it in place once it is back.
    cluster.server(0).crash();
    cluster.server(0).restart();
    pager.with_shard(0, |p| p.pool_mut().absolve(ServerId(0)));
    pager.recover_from_crash(ServerId(0)).expect("rebuild");
    for i in 0..12u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("rebuilt"),
            Page::deterministic(i)
        );
    }
}

// --- typed refusals ---------------------------------------------------------

#[test]
fn typed_out_of_memory_maps_to_no_space_without_retry() {
    let (cluster, mut pool) = flaky_pool(1);
    // The Alloc succeeds; the pageout is refused with the typed
    // out-of-memory code.
    refuse_store(&cluster, 0, ErrorCode::OutOfMemory);
    pool.reserve_frame(ServerId(0)).expect("alloc");
    let err = pool
        .page_out(ServerId(0), StoreKey(9), &Page::deterministic(9))
        .expect_err("refused");
    assert!(matches!(err, RmpError::NoSpace(ServerId(0))), "got {err:?}");
    assert_eq!(
        calls(&cluster),
        2,
        "a typed refusal is an answer, not a transport failure: no retry"
    );
    assert!(
        pool.alive(ServerId(0)),
        "an out-of-memory server still serves its stored pages"
    );
}

#[test]
fn typed_shutting_down_declares_the_server_dead_without_retry() {
    let (cluster, mut pool) = flaky_pool(1);
    script(&cluster, 0, FaultAction::Refuse(ErrorCode::ShuttingDown), 1);
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("draining");
    assert!(matches!(err, RmpError::ServerCrashed(ServerId(0))));
    assert_eq!(calls(&cluster), 1, "no point retrying a draining server");
    assert!(!pool.alive(ServerId(0)));
}

#[test]
fn exhausted_timeouts_surface_as_typed_timeout_and_death() {
    let (cluster, mut pool) = flaky_pool(1);
    script(&cluster, 0, FaultAction::Drop, 3);
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("exhausted");
    assert!(
        matches!(err, RmpError::Timeout(ServerId(0))),
        "timeouts surface as Timeout, not a generic crash: {err:?}"
    );
    assert_eq!(calls(&cluster), 3, "the full retry budget was spent");
    assert!(!pool.alive(ServerId(0)));
}

// --- grant accounting (the reserve/pageout leak) ----------------------------

#[test]
fn failed_pageout_returns_the_reserved_frame() {
    let (cluster, mut pool) = flaky_pool(1);
    refuse_store(&cluster, 0, ErrorCode::OutOfMemory);
    pool.reserve_frame(ServerId(0)).expect("alloc of 64");
    let granted_after_reserve = pool.granted_frames(ServerId(0));
    pool.page_out(ServerId(0), StoreKey(5), &Page::deterministic(5))
        .expect_err("refused");
    pool.return_frame(ServerId(0));
    assert_eq!(
        pool.granted_frames(ServerId(0)),
        granted_after_reserve + 1,
        "the unused frame went back to the local grant pool"
    );
    let calls_before = calls(&cluster);
    pool.reserve_frame(ServerId(0)).expect("local grant");
    assert_eq!(
        calls(&cluster),
        calls_before,
        "re-reserving consumes the returned frame without another Alloc"
    );
}

#[test]
fn engine_fallback_does_not_leak_grants() {
    // Server 0 accepts the Alloc but refuses every store; the engine must
    // return the frame before falling back, so 0's local grant count is
    // intact when the server recovers.
    let (cluster, pager) = flaky_pager(Policy::NoReliability, 2, 2);
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    // The Alloc succeeds; every store is refused.
    let refuse = FaultRule::new(FaultAction::Refuse(ErrorCode::OutOfMemory));
    let stores = refuse
        .on_server(ServerId(0))
        .on_ops(OpFilter::Op(Opcode::PageOut));
    cluster.plan().inject(stores.times(3));
    for i in 0..4u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("lands on server 1 or disk");
    }
    // One Alloc granted a 64-frame chunk; the reserve took one frame and
    // the refused store must have put it back — any leak shows up as a
    // count below the full chunk.
    assert_eq!(
        pager.with_shard(0, |p| p.pool().granted_frames(ServerId(0))),
        64,
        "refused stores returned their frames instead of leaking the grant"
    );
}

// --- degraded pool flips the adaptive disk switch ---------------------------

#[test]
fn degraded_pool_flips_prefers_disk() {
    let late = TransportConfig {
        read_timeout: Duration::from_millis(10),
        ..test_transport_config()
    };
    let (cluster, pool) = flaky_pool_with(2, late);
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_adaptive_threshold_ms(5.0)
        .with_transport(TransportConfig {
            retry: RetryPolicy::no_retry(),
            ..TransportConfig::default()
        });
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    // Every call burns 15 ms, past its 10 ms read deadline, before
    // failing — the service-time statistics must see that elapsed time
    // even though the calls failed, otherwise a hung cluster looks *fast*
    // (failures returned "instantly") and the adaptive switch never fires.
    for i in 0..2 {
        script(
            &cluster,
            i,
            FaultAction::Delay(Duration::from_millis(15)),
            8,
        );
    }
    for i in 0..6u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("disk fallback absorbs the failures");
    }
    assert!(
        pager.with_shard(0, |p| p.prefers_disk()),
        "avg service time {} ms over threshold 5 ms must flip the disk switch",
        pager.with_shard(0, |p| p.pool().avg_service_ms())
    );
    for i in 0..6u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("readback"),
            Page::deterministic(i)
        );
    }
}

// --- failed operations still record their latency ---------------------------

#[test]
fn failed_operations_record_latency_in_histograms() {
    // No reliability, no disk: once the only server is dead, pageouts and
    // pageins fail outright — and those failures burn real wall-clock in
    // the retry loop. The latency histograms must see the failed attempts
    // too, or a degrading cluster reports *better* latencies as more of
    // its traffic shifts to the (unrecorded) error path.
    let (cluster, pool) = flaky_pool(1);
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(1)
        .with_transport(test_transport_config());
    let pager = one_shard(config, pool, Vec::new());
    pager
        .page_out(PageId(1), &Page::deterministic(1))
        .expect("healthy pageout");
    // A pageout is booked as it lands (`stats` lands every landing).
    pager.stats();
    let histogram = |name| pager.with_shard(0, |p| p.metrics().histogram(name));
    let out_latency = histogram("pager_pageout_latency_us");
    let in_latency = histogram("pager_pagein_latency_us");
    assert_eq!(out_latency.count(), 1);

    cluster.server(0).crash();
    // The pageout returns with its frame on the wire; its landing fails,
    // and reports it to the next flush.
    pager
        .page_out(PageId(2), &Page::deterministic(2))
        .expect("on the wire");
    pager.flush().expect_err("dead server, no fallback");
    pager.page_in(PageId(1)).expect_err("dead server");
    assert_eq!(
        out_latency.count(),
        2,
        "the failed pageout recorded its elapsed time"
    );
    assert_eq!(
        in_latency.count(),
        1,
        "the failed pagein recorded its elapsed time"
    );
    // The failed pagein spent the full 3-attempt retry budget with 5 ms +
    // 10 ms of backoff between attempts; the histogram must reflect that
    // spent wall-clock, not just count the sample.
    assert!(
        in_latency.snapshot().max_us >= 10_000,
        "error-path sample carries the retry wall-clock, max {} us",
        in_latency.snapshot().max_us
    );
}

// --- no call path may block without a deadline ------------------------------

#[test]
fn silent_server_cannot_block_the_paging_path() {
    use std::io::Read;
    use std::net::TcpListener;

    // A real TCP server that accepts and then never answers: without armed
    // deadlines, page_in would block inside read_exact for minutes.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let guard = std::thread::spawn(move || {
        // Exactly two dials arrive: the initial connect and the one redial
        // the 2-attempt retry budget performs. Swallow each request and
        // never answer.
        let mut held = Vec::new();
        for _ in 0..2 {
            match listener.accept() {
                Ok((mut sock, _)) => {
                    let mut sink = [0u8; 4096];
                    let _ = sock.read(&mut sink);
                    held.push(sock);
                }
                Err(_) => break,
            }
        }
    });

    let cfg = TransportConfig {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(300),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    };
    let mut pool = ServerPool::with_transport_config(cfg.clone());
    // The handshake is the first request to go unanswered; it must cost
    // one read deadline, not hang the connect.
    let transport = WindowedTransport::connect_with(&addr, &cfg).expect("connect");
    pool.add_transport(ServerId(0), Box::new(transport), 1.0);

    let start = Instant::now();
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("no reply ever comes");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "the paging path returned in bounded time, not kernel-TCP time"
    );
    assert!(
        matches!(err, RmpError::Timeout(ServerId(0))),
        "deadline expiry surfaces as the typed timeout: {err:?}"
    );
    drop(pool);
    guard.join().expect("listener thread");
}

// --- the pool's one way onto the wire ---------------------------------------

#[test]
fn every_call_is_a_submission() {
    // The scripted wire answers `call`, `call_pipelined` and `send_only`
    // with a panic: every frame below reaches it as a submission, and its
    // log is the pool's traffic, frame by frame.
    let (wire, servers, mut pool) = wave_pool(1);
    let metrics = Arc::new(MetricsRegistry::new());
    pool.set_metrics(Arc::clone(&metrics));
    let id = ServerId(0);

    let (stored, _) = in_waves(&wire, &[1], || {
        pool.page_out(id, StoreKey(1), &Page::deterministic(1))
    });
    stored.expect("pageout");
    let (page, _) = in_waves(&wire, &[1], || pool.page_in(id, StoreKey(1)));
    assert_eq!(page.expect("pagein"), Page::deterministic(1));
    let (freed, _) = in_waves(&wire, &[1], || pool.free(id, StoreKey(1)));
    freed.expect("free");
    let (load, _) = in_waves(&wire, &[1], || pool.query_load(id));
    load.expect("load query");
    // Two attempts are lost: the pageout climbs two rungs and lands on the
    // third, the same request resubmitted each time.
    wire.state().lost.extend([id, id]);
    let (stored, _) = in_waves(&wire, &[1], || {
        pool.page_out(id, StoreKey(2), &Page::deterministic(2))
    });
    stored.expect("pageout on the third attempt");
    assert_eq!(metrics.counter("pool_retries_total").get(), 2);
    pool.inject_crash(id).expect("crash injection");
    assert!(!pool.alive(id));
    assert!(servers[0].is_crashed());
    use Opcode::*;
    let sent: Vec<Opcode> = wire.state().sent.iter().map(|&(_, op)| op).collect();
    let expected = [
        PageOut,
        PageIn,
        Free,
        LoadQuery,
        PageOut,
        PageOut,
        PageOut,
        InjectCrash,
    ];
    assert_eq!(sent, expected);
}
