//! Deadline/retry fault injection against a scripted flaky transport.
//!
//! [`FlakyTransport`] scripts per-call outcomes (timeouts, dropped
//! connections, typed refusals, permanent death) over a page store that
//! survives disconnects — the failure shapes the retry/backoff layer in
//! `ServerPool::call` exists to absorb. The tests assert the transport
//! contract from the failure-semantics design: timeouts retry with
//! backoff, transient failures reconnect and keep the server (Suspect,
//! not Dead), permanent death falls through to the existing crash
//! recovery, and no call path can block without a deadline.

mod support;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rmp_blockdev::RamDisk;
use rmp_core::transport::ServerTransport;
use rmp_core::{ChaosServer, Clock, PendingReplies, ServerPool, ShardedPager, WindowedTransport};
use rmp_proto::{LoadHint, Message, Opcode};
use rmp_types::metrics::MetricsRegistry;
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Policy, Result, RetryPolicy, RmpError, ServerId,
    StoreKey, TransportConfig,
};

use support::one_shard;

/// One scripted call outcome; an exhausted script answers honestly.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Serve the request.
    Serve,
    /// Deadline expiry after realistic wall-clock time.
    SlowTimeout(Duration),
    /// Deadline expiry (instant, for call-count tests).
    TimedOut,
    /// Connection drops; subsequent calls fail until `reconnect`.
    Disconnect,
    /// Typed protocol refusal (the request was answered, not lost).
    Refuse(ErrorCode),
}

/// The state of the link to the server, and what went over it.
#[derive(Default)]
struct FlakyLink {
    script: VecDeque<Step>,
    disconnected: bool,
    dead: bool,
    calls: u64,
    reconnects: u64,
}

/// Handle the test keeps; the transport shares the same server and link,
/// so pages survive disconnects and death exactly like a real server's
/// memory.
#[derive(Clone, Default)]
struct FlakyServer {
    server: ChaosServer,
    link: Arc<Mutex<FlakyLink>>,
}

impl FlakyServer {
    fn link(&self) -> MutexGuard<'_, FlakyLink> {
        self.link.lock().expect("link lock")
    }

    fn script(&self, steps: &[Step]) {
        self.link().script.extend(steps.iter().copied());
    }

    fn kill(&self) {
        self.link().dead = true;
    }

    /// Reboot with memory intact (a network partition healing).
    fn revive(&self) {
        let mut link = self.link();
        link.dead = false;
        link.disconnected = false;
    }

    /// Reboot with memory wiped (a real workstation restart).
    fn revive_empty(&self) {
        self.revive();
        self.server.crash();
        self.server.restart();
    }

    fn calls(&self) -> u64 {
        self.link().calls
    }

    fn reconnects(&self) -> u64 {
        self.link().reconnects
    }
}

struct FlakyTransport(FlakyServer);

fn io_err(kind: std::io::ErrorKind, msg: &str) -> RmpError {
    RmpError::Io(std::io::Error::new(kind, msg))
}

impl ServerTransport for FlakyTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let mut link = self.0.link();
        link.calls += 1;
        if link.dead {
            return Err(io_err(std::io::ErrorKind::ConnectionRefused, "dead"));
        }
        if link.disconnected {
            return Err(io_err(std::io::ErrorKind::BrokenPipe, "disconnected"));
        }
        match link.script.pop_front().unwrap_or(Step::Serve) {
            Step::Serve => Ok(self.0.server.serve(0, msg)),
            Step::SlowTimeout(d) => {
                std::thread::sleep(d);
                Err(io_err(std::io::ErrorKind::TimedOut, "deadline"))
            }
            Step::TimedOut => Err(io_err(std::io::ErrorKind::TimedOut, "deadline")),
            Step::Disconnect => {
                link.disconnected = true;
                Err(io_err(std::io::ErrorKind::ConnectionReset, "dropped"))
            }
            Step::Refuse(code) => Err(RmpError::Remote {
                code,
                message: "scripted refusal".into(),
            }),
        }
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        Ok(())
    }

    fn reconnect(&mut self) -> Result<()> {
        let mut link = self.0.link();
        link.reconnects += 1;
        if link.dead {
            Err(io_err(std::io::ErrorKind::ConnectionRefused, "still dead"))
        } else {
            link.disconnected = false;
            Ok(())
        }
    }
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

fn flaky_pool(n: usize) -> (Vec<FlakyServer>, ServerPool) {
    let mut pool = ServerPool::with_transport_config(test_transport_config());
    let mut servers = Vec::new();
    for i in 0..n {
        let server = FlakyServer::default();
        pool.add_transport(
            ServerId(i as u32),
            Box::new(FlakyTransport(server.clone())),
            1.0,
        );
        servers.push(server);
    }
    (servers, pool)
}

fn flaky_pager(policy: Policy, servers: usize, n: usize) -> (Vec<FlakyServer>, ShardedPager) {
    let (flaky, pool) = flaky_pool(n);
    let config = PagerConfig::new(policy)
        .with_servers(servers)
        .with_transport(test_transport_config());
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    (flaky, pager)
}

// --- timeout → retry with backoff, per policy ------------------------------

fn assert_timeout_retried(policy: Policy, servers: usize, transports: usize) {
    let (flaky, pager) = flaky_pager(policy, servers, transports);
    // Two deadline expiries, then the server answers: the pool must ride
    // through both within one logical call and sleep its backoff between
    // attempts (5 ms then 10 ms with jitter off).
    flaky[0].script(&[Step::TimedOut, Step::TimedOut]);
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
    assert!(
        flaky[0].reconnects() >= 2,
        "{policy:?}: each retry redials first"
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
    let (flaky, pager) = flaky_pager(policy, servers, transports);
    flaky[0].script(&[Step::Disconnect]);
    for i in 0..8u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout rides through the drop");
    }
    pager.flush().expect("flush");
    assert!(
        flaky[0].reconnects() >= 1,
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
    let (flaky, mut pool) = flaky_pool(1);
    // Count replies, not microseconds: on a loaded machine a clean reply
    // can look slow and stretch the streak this test counts. On a manual
    // clock no reply takes any time.
    pool.set_clock(Clock::manual());
    flaky[0].script(&[Step::TimedOut]);
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
    let (flaky, mut pool) = flaky_pool(2);
    // Give server 0 the better load report, then make it suspect: the
    // placement ranking must still prefer the healthy server.
    flaky[0].server.set_load(1 << 21, LoadHint::Ok);
    pool.refresh_loads();
    assert_eq!(pool.most_promising(&[]), Some(ServerId(0)));
    flaky[0].script(&[Step::TimedOut]);
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
    let (flaky, mut pool) = flaky_pool(2);
    flaky[0].server.set_load(1 << 21, LoadHint::Ok);
    pool.refresh_loads();
    pool.page_out(ServerId(1), StoreKey(2), &Page::deterministic(2))
        .expect("stored");
    flaky[0].script(&[Step::TimedOut]);
    pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
        .expect("retried");
    for hint in [LoadHint::StopSending, LoadHint::Ok] {
        flaky[0].server.set_load(1 << 21, hint);
        pool.query_load(ServerId(0)).expect("load answer");
        assert!(pool.suspected(ServerId(0)), "{hint:?} cleared suspicion");
        assert_eq!(pool.most_promising(&[]), Some(ServerId(1)), "{hint:?}");
    }

    // Stop sending: no new pages, but the old ones are still read.
    flaky[1].server.set_load(1 << 20, LoadHint::StopSending);
    pool.query_load(ServerId(1)).expect("load answer");
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
    let (flaky, pager) = flaky_pager(Policy::Mirroring, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    flaky[0].kill();
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
    let (flaky, pager) = flaky_pager(Policy::ParityLogging, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    flaky[0].kill();
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
    let (flaky, pager) = flaky_pager(Policy::BasicParity, 2, 3);
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // The workstation restarts with empty memory; basic parity rebuilds
    // the lost pages onto it in place once it is back.
    flaky[0].kill();
    flaky[0].revive_empty();
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
    let (flaky, mut pool) = flaky_pool(1);
    // First call (Alloc) succeeds; the pageout is refused with the typed
    // out-of-memory code.
    flaky[0].script(&[Step::Serve, Step::Refuse(ErrorCode::OutOfMemory)]);
    pool.reserve_frame(ServerId(0)).expect("alloc");
    let err = pool
        .page_out(ServerId(0), StoreKey(9), &Page::deterministic(9))
        .expect_err("refused");
    assert!(matches!(err, RmpError::NoSpace(ServerId(0))), "got {err:?}");
    assert_eq!(
        flaky[0].calls(),
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
    let (flaky, mut pool) = flaky_pool(1);
    flaky[0].script(&[Step::Refuse(ErrorCode::ShuttingDown)]);
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("draining");
    assert!(matches!(err, RmpError::ServerCrashed(ServerId(0))));
    assert_eq!(flaky[0].calls(), 1, "no point retrying a draining server");
    assert!(!pool.alive(ServerId(0)));
}

#[test]
fn exhausted_timeouts_surface_as_typed_timeout_and_death() {
    let (flaky, mut pool) = flaky_pool(1);
    flaky[0].script(&[Step::TimedOut, Step::TimedOut, Step::TimedOut]);
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("exhausted");
    assert!(
        matches!(err, RmpError::Timeout(ServerId(0))),
        "timeouts surface as Timeout, not a generic crash: {err:?}"
    );
    assert_eq!(flaky[0].calls(), 3, "the full retry budget was spent");
    assert!(!pool.alive(ServerId(0)));
}

// --- grant accounting (the reserve/pageout leak) ----------------------------

#[test]
fn failed_pageout_returns_the_reserved_frame() {
    let (flaky, mut pool) = flaky_pool(1);
    flaky[0].script(&[Step::Serve, Step::Refuse(ErrorCode::OutOfMemory)]);
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
    let calls_before = flaky[0].calls();
    pool.reserve_frame(ServerId(0)).expect("local grant");
    assert_eq!(
        flaky[0].calls(),
        calls_before,
        "re-reserving consumes the returned frame without another Alloc"
    );
}

#[test]
fn engine_fallback_does_not_leak_grants() {
    // Server 0 accepts the Alloc but refuses every store; the engine must
    // return the frame before falling back, so 0's local grant count is
    // intact when the server recovers.
    let (flaky, pager) = flaky_pager(Policy::NoReliability, 2, 2);
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    flaky[0].script(&[
        Step::Serve,                          // Alloc succeeds...
        Step::Refuse(ErrorCode::OutOfMemory), // ...every store is refused.
        Step::Refuse(ErrorCode::OutOfMemory),
        Step::Refuse(ErrorCode::OutOfMemory),
    ]);
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
    let (flaky, pool) = flaky_pool(2);
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_adaptive_threshold_ms(5.0)
        .with_transport(TransportConfig {
            retry: RetryPolicy::no_retry(),
            ..TransportConfig::default()
        });
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    // Every call burns 15 ms of deadline before failing — the service-time
    // statistics must see that elapsed time even though the calls failed,
    // otherwise a hung cluster looks *fast* (failures returned "instantly")
    // and the adaptive switch never fires.
    for server in &flaky {
        server.script(&[Step::SlowTimeout(Duration::from_millis(15)); 8]);
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
    let (flaky, pool) = flaky_pool(1);
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

    flaky[0].kill();
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

/// Frames still to fail, and the opcode of every frame submitted.
type SubmitLog = Arc<Mutex<(u32, Vec<Opcode>)>>;

/// A transport that can only submit: any other way onto the wire panics.
struct SubmitOnly {
    server: ChaosServer,
    log: SubmitLog,
}

impl ServerTransport for SubmitOnly {
    fn call(&mut self, _msg: &Message) -> Result<Message> {
        panic!("the pool called `call`")
    }

    fn call_pipelined(&mut self, _msgs: &[Message]) -> Result<Vec<Message>> {
        panic!("the pool called `call_pipelined`")
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        panic!("the pool called `send_only`")
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        let mut log = self.log.lock().expect("log lock");
        log.1.extend(msgs.iter().map(Message::opcode));
        let outcome = if log.0 > 0 {
            log.0 -= 1;
            Err(io_err(std::io::ErrorKind::TimedOut, "scripted miss"))
        } else {
            Ok(msgs.iter().map(|m| self.server.serve(0, m)).collect())
        };
        let (pending, completion) = PendingReplies::deferred(msgs.len(), Duration::from_secs(1));
        completion.complete(outcome);
        Some(Ok(pending))
    }
}

#[test]
fn every_call_is_a_submission() {
    let log = SubmitLog::default();
    let mut pool = ServerPool::with_transport_config(test_transport_config());
    let metrics = Arc::new(MetricsRegistry::new());
    pool.set_metrics(Arc::clone(&metrics));
    let server = ChaosServer::new();
    let transport = SubmitOnly {
        server,
        log: Arc::clone(&log),
    };
    let id = ServerId(0);
    pool.add_transport(id, Box::new(transport), 1.0);

    pool.page_out(id, StoreKey(1), &Page::deterministic(1))
        .expect("pageout");
    let page = pool.page_in(id, StoreKey(1)).expect("pagein");
    assert_eq!(page, Page::deterministic(1));
    pool.free(id, StoreKey(1)).expect("free");
    pool.query_load(id).expect("load query");
    // Two attempts fail: the pageout climbs two rungs and lands on the
    // third, the same request resubmitted each time.
    log.lock().expect("log lock").0 = 2;
    pool.page_out(id, StoreKey(2), &Page::deterministic(2))
        .expect("pageout on the third attempt");
    assert_eq!(pool.last_call_attempts(), 3);
    assert_eq!(metrics.counter("pool_retries_total").get(), 2);
    pool.inject_crash(id).expect("crash injection");
    assert!(!pool.alive(id));
    use Opcode::*;
    let sent = log.lock().expect("log lock").1.clone();
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
