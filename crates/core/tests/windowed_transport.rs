//! Integration tests of the windowed (reactor) transport: out-of-order
//! completion, deadline expiry, reconnect, who reads the connection (a
//! poll, a stalled submitter, a leader handing off to a follower), the
//! pool's call budget, and the pager running end to end over a windowed
//! pool.

mod support;

use std::time::{Duration, Instant};

use rmp_blockdev::RamDisk;
use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule};
use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{ServerPool, ServerTransport, WindowedTransport};
use rmp_proto::{Framed, Message};
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{
    Page, PageId, PagerConfig, Policy, Result, RetryPolicy, RmpError, ServerId, StoreKey,
    TransportConfig,
};

use support::one_shard;

fn spawn_server(capacity: usize) -> ServerHandle {
    MemoryServer::spawn(ServerConfig {
        capacity_pages: capacity,
        overflow_fraction: 0.10,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

fn page_out(key: StoreKey, page: &Page) -> Message {
    Message::PageOut {
        id: key,
        checksum: page.checksum(),
        page: page.clone(),
    }
}

#[test]
fn handshake_negotiates_window() {
    let server = spawn_server(64);
    let cfg = TransportConfig {
        window_max_inflight: 16,
        ..TransportConfig::default()
    };
    let t = WindowedTransport::connect_with(&server.addr().to_string(), &cfg).expect("connect");
    assert_eq!(t.granted_window(), 16, "server grants the asked window");
    server.shutdown();
}

#[test]
fn batch_larger_than_window_drains_through_the_stall_path() {
    // A 64-frame batch at window=1 forces submit() to stall on window
    // space 63 times. Regression: each stall iteration must flush the
    // frame it just enqueued and read its reply — an earlier version
    // slept without flushing, so an idle reader parked ~100ms per frame
    // and the batch blew the 2s write deadline.
    let server = spawn_server(256);
    let cfg = TransportConfig {
        window_max_inflight: 1,
        ..TransportConfig::default()
    };
    let mut t = WindowedTransport::connect_with(&server.addr().to_string(), &cfg).expect("connect");
    assert_eq!(t.granted_window(), 1);

    let msgs: Vec<Message> = (0..64u64)
        .map(|i| page_out(StoreKey(i), &Page::deterministic(i)))
        .collect();
    let started = Instant::now();
    let pending = WindowedTransport::submit(&mut t, &msgs).expect("submit");
    let replies = pending.wait_all().expect("replies");
    let elapsed = started.elapsed();
    assert_eq!(replies.len(), 64);
    for r in &replies {
        assert!(matches!(r, Message::PageOutAck { .. }), "ack, got {r:?}");
    }
    assert!(
        elapsed < Duration::from_millis(1500),
        "64 frames through a window of 1 took {elapsed:?}; the stall \
         path must flush and read each iteration"
    );
    let stats = t.stats();
    assert_eq!(stats.submitted, 64);
    assert_eq!(stats.completed, 64);
    assert!(stats.stalls >= 1, "the window genuinely stalled");
    server.shutdown();
}

#[test]
fn overlapping_submissions_complete_out_of_order() {
    let server = spawn_server(64);
    let mut t =
        WindowedTransport::connect_with(&server.addr().to_string(), &TransportConfig::default())
            .expect("connect");

    // Store pages, then submit a mixed burst: the server answers control
    // ops before data ops, so replies genuinely arrive out of order and
    // the seq matching must reassemble submission order.
    for i in 0..8u64 {
        let page = Page::deterministic(i);
        let reply = t.call(&page_out(StoreKey(i), &page)).expect("store");
        assert!(matches!(reply, Message::PageOutAck { .. }));
    }
    let mut msgs = Vec::new();
    for i in 0..8u64 {
        msgs.push(Message::PageIn { id: StoreKey(i) });
    }
    msgs.push(Message::LoadQuery);
    let pending = WindowedTransport::submit(&mut t, &msgs).expect("submit");
    let replies = pending.wait_all().expect("replies");
    assert_eq!(replies.len(), 9);
    for (i, reply) in replies[..8].iter().enumerate() {
        let Message::PageInReply { id, page, .. } = reply else {
            panic!("expected PageInReply at {i}, got {reply:?}");
        };
        assert_eq!(*id, StoreKey(i as u64));
        assert_eq!(*page, Page::deterministic(i as u64), "page {i} contents");
    }
    assert!(matches!(replies[8], Message::LoadReport { .. }));

    let stats = t.stats();
    assert_eq!(stats.submitted, 8 + 9, "all frames were submitted");
    assert_eq!(stats.completed, 8 + 9, "all replies matched a waiter");
    assert_eq!(stats.inflight, 0, "window fully drained");
    server.shutdown();
}

#[test]
fn single_thread_keeps_many_frames_in_flight() {
    let server = spawn_server(256);
    // A long stall on every request: with a blocking transport these 8
    // fetches would serialize into >= 8 stalls; the window overlaps them.
    server.set_stall(Duration::from_millis(40));
    let mut t =
        WindowedTransport::connect_with(&server.addr().to_string(), &TransportConfig::default())
            .expect("connect");
    let msgs: Vec<Message> = (0..8u64)
        .map(|i| Message::PageIn { id: StoreKey(i) })
        .collect();
    let start = Instant::now();
    let pending = WindowedTransport::submit(&mut t, &msgs).expect("submit");
    let replies = pending.wait_all().expect("replies");
    let elapsed = start.elapsed();
    assert_eq!(replies.len(), 8);
    // Serialized, 8 x 40ms = 320ms minimum. Overlapped on one connection
    // the stalls still serialize *server-side* per session in the read
    // loop, but all 8 frames ship in one burst — allow generous slack and
    // only require better than fully-serialized round trips.
    assert!(
        elapsed < Duration::from_millis(1500),
        "8 overlapped fetches took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn reply_past_deadline_times_out_and_is_dropped_late() {
    let server = spawn_server(64);
    let cfg = TransportConfig {
        read_timeout: Duration::from_millis(80),
        ..TransportConfig::default()
    };
    let mut t = WindowedTransport::connect_with(&server.addr().to_string(), &cfg).expect("connect");
    server.set_stall(Duration::from_millis(300));
    let err = t
        .call(&Message::PageIn { id: StoreKey(1) })
        .expect_err("reply is 300ms away, deadline is 80ms");
    assert!(err.is_timeout(), "classified as a timeout: {err:?}");
    assert!(
        err.is_server_failure(),
        "timeouts count as server failures for the retry loop: {err:?}"
    );
    server.set_stall(Duration::ZERO);
    // The abandoned seq's reply arrives eventually and is dropped as
    // late; the connection itself stays usable.
    std::thread::sleep(Duration::from_millis(400));
    let reply = t.call(&Message::LoadQuery).expect("connection survived");
    assert!(matches!(reply, Message::LoadReport { .. }));
    assert_eq!(t.stats().late_replies, 1, "the stale reply was discarded");
    server.shutdown();
}

#[test]
fn transport_reconnect_revives_a_restarted_server() {
    let server = spawn_server(64);
    let mut t =
        WindowedTransport::connect_with(&server.addr().to_string(), &TransportConfig::default())
            .expect("connect");
    t.call(&page_out(StoreKey(1), &Page::filled(7)))
        .expect("store");
    server.crash();
    assert!(
        t.call(&Message::LoadQuery).is_err(),
        "crash severs the reactor connection"
    );
    server.restart();
    t.reconnect().expect("redial");
    let reply = t.call(&Message::LoadQuery).expect("fresh session");
    assert!(matches!(reply, Message::LoadReport { .. }));
    server.shutdown();
}

#[test]
fn pool_batches_ride_the_window() {
    let server = spawn_server(256);
    let mut registry = Registry::new();
    registry
        .add(ServerInfo {
            id: ServerId(0),
            addr: server.addr().to_string(),
            link_cost: 1.0,
        })
        .expect("register");
    let mut pool = ServerPool::connect(&registry).expect("connect");
    let keys: Vec<StoreKey> = (0..40).map(|_| pool.fresh_key()).collect();
    for (i, key) in keys.iter().enumerate() {
        pool.page_out(ServerId(0), *key, &Page::deterministic(i as u64))
            .expect("store");
    }

    // Begin / finish: the reads overlap with this thread's other work
    // (here, a demand call on the same connection) — a gather that names
    // the holder sixteen times, so batch frames, and a read-ahead's one
    // plain read beside it.
    let reads: Vec<(ServerId, StoreKey)> = keys[..16].iter().map(|&k| (ServerId(0), k)).collect();
    let wave = pool.begin_page_in_wave(&reads);
    let ahead = pool.begin_page_in(ServerId(0), keys[16]);
    let reply = pool.query_load(ServerId(0)).expect("demand call overlaps");
    assert!(reply.1 > 0, "server reports stored pages");
    let fetched = pool.finish_page_in_wave(wave, &reads).expect("collect");
    for (i, page) in fetched.iter().enumerate() {
        assert_eq!(
            page.as_ref().expect("present"),
            &Page::deterministic(i as u64),
            "page {i} contents"
        );
    }
    ahead.park();
    assert!(ahead.is_ready(), "parked on: collecting will not block");
    let page = pool.finish_page_in_unretried(ahead).expect("collect");
    assert_eq!(page, Some(Page::deterministic(16)));
    server.shutdown();
}

fn single_server_registry(server: &ServerHandle) -> Registry {
    let mut registry = Registry::new();
    registry
        .add(ServerInfo {
            id: ServerId(0),
            addr: server.addr().to_string(),
            link_cost: 1.0,
        })
        .expect("register");
    registry
}

#[test]
fn a_window_of_one_is_a_window_not_another_transport() {
    let server = spawn_server(64);
    let cfg = TransportConfig {
        window_max_inflight: 1,
        ..TransportConfig::default()
    };
    let mut pool =
        ServerPool::connect_with(&single_server_registry(&server), cfg).expect("connect");
    let metrics = std::sync::Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(std::sync::Arc::clone(&metrics));
    let keys: Vec<StoreKey> = (0..8).map(StoreKey).collect();
    for key in &keys {
        pool.page_out(ServerId(0), *key, &Page::deterministic(key.0))
            .expect("store");
    }
    for key in &keys {
        let page = pool.page_in(ServerId(0), *key).expect("fetch");
        assert_eq!(page, Page::deterministic(key.0));
    }
    // The connection takes submissions: it is the reactor.
    let ahead = pool.begin_page_in(ServerId(0), keys[3]);
    let fetched =
        (pool.finish_page_in_unretried(ahead)).expect("a window of one is still a window");
    assert_eq!(fetched, Some(Page::deterministic(3)));
    // Eight reads in one burst stall on the window, which they would not
    // on any granted window of eight or more.
    let reads: Vec<(ServerId, StoreKey)> = keys.iter().map(|&key| (ServerId(0), key)).collect();
    let fetched = pool.page_in_wave(&reads).expect("gather");
    for (key, page) in keys.iter().zip(fetched) {
        assert_eq!(page, Some(Page::deterministic(key.0)));
    }
    assert!(
        metrics.counter("pool_window_stalls_total").get() >= 1,
        "the granted window is smaller than the burst"
    );
    server.shutdown();
}

#[test]
fn a_refused_prefetch_submission_is_a_sampled_miss_not_a_retry() {
    let server = spawn_server(64);
    let mut pool = ServerPool::connect(&single_server_registry(&server)).expect("connect");
    let metrics = std::sync::Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(std::sync::Arc::clone(&metrics));
    let keys: Vec<StoreKey> = (0..4).map(StoreKey).collect();
    for key in &keys {
        pool.page_out(ServerId(0), *key, &Page::deterministic(key.0))
            .expect("store");
    }
    server.crash();
    // The connection learns of the severed socket when a waiter reads it;
    // until then, a submission is still accepted and its handle fails.
    let deadline = Instant::now() + Duration::from_secs(5);
    // A refused one is ready at once: collecting it waits for nothing.
    let err = loop {
        let ahead = pool.begin_page_in(ServerId(0), keys[0]);
        let refused = ahead.is_ready();
        let err = (pool.finish_page_in_unretried(ahead)).expect_err("the server is gone");
        if refused {
            break err;
        }
        assert!(Instant::now() < deadline, "the dead connection was noticed");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(err.is_server_failure(), "got {err:?}");
    // The caller of a speculative fetch drops it: a refusal neither
    // spends the retry budget nor sentences the server.
    assert_eq!(metrics.counter("pool_retries_total").get(), 0);
    assert!(pool.alive(ServerId(0)));
    // It is a miss like any other, though: the server turns Suspect.
    assert!(pool.suspicion(ServerId(0)) >= rmp_core::detector::SUSPECT_ENTER);
    assert!(pool.suspected(ServerId(0)));
    assert_eq!(metrics.counter("pool_suspect_transitions_total").get(), 1);
    server.shutdown();
}

#[test]
fn call_budget_bounds_the_whole_retry_loop() {
    // Ten attempts at 10 ms dial, write and read deadlines and 10 ms
    // backoffs derive a budget of 10 x 30 + 9 x 10 = 390 ms; every attempt
    // here overruns its deadlines at 150 ms. Fixed at entry, the budget
    // ends the call after three attempts (~470 ms); re-derived for each
    // attempt, it would never bite: 10 x 150 + 9 x 10 = 1.59 s.
    let deadline = Duration::from_millis(10);
    let cfg = TransportConfig {
        connect_timeout: deadline,
        read_timeout: deadline,
        write_timeout: deadline,
        retry: RetryPolicy {
            max_attempts: 10,
            base_backoff: deadline,
            max_backoff: deadline,
            jitter: 0.0,
        },
        ..TransportConfig::default()
    };
    assert_eq!(cfg.effective_call_budget(), Duration::from_millis(390));
    // Every reply comes 150 ms late, past the read deadline: a timeout,
    // and one that took all of it, whatever the deadline says — the
    // pathological slow-failing server.
    let late = FaultRule::new(FaultAction::Delay(Duration::from_millis(150)));
    let cluster = ChaosCluster::new(1, FaultPlan::seeded(0).with_rule(late));
    cluster.plan().arm();
    let mut pool = cluster.pool(&cfg);
    let metrics = std::sync::Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(std::sync::Arc::clone(&metrics));
    let start = Instant::now();
    let err = pool
        .page_in(ServerId(0), StoreKey(1))
        .expect_err("every attempt fails");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, RmpError::Timeout(ServerId(0))),
        "budget expiry surfaces as the typed timeout: {err:?}"
    );
    // Scheduling slack, but far under the unbudgeted 1.59 s.
    assert!(
        elapsed < Duration::from_millis(1000),
        "call returned in ~budget time, took {elapsed:?}"
    );
    assert!(
        metrics.counter("pool_retries_total").get() < 9,
        "the budget, not the attempt count, ended the loop"
    );
}

#[test]
fn pager_pages_through_a_windowed_pool() {
    let mut handles = Vec::new();
    let mut registry = Registry::new();
    for i in 0..2 {
        let handle = spawn_server(4096);
        registry
            .add(ServerInfo {
                id: ServerId(i as u32),
                addr: handle.addr().to_string(),
                link_cost: 1.0,
            })
            .expect("register");
        handles.push(handle);
    }
    let pool = ServerPool::connect(&registry).expect("connect");
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(8);
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    for i in 0..120u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // A sequential sweep: the stride detector locks on and the prefetcher
    // issues async batches that overlap the demand faults.
    for i in 0..120u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("pagein"),
            Page::deterministic(i),
            "page {i} contents"
        );
    }
    let counted = |name| pager.with_shard(0, |p| p.metrics().counter(name).get());
    let hits = counted("pager_prefetch_hits_total");
    assert!(hits > 0, "sequential sweep produced prefetch hits");
    let issued = counted("pager_prefetch_issued_total");
    assert!(issued > 0, "prefetch batches were issued");
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn window_metrics_surface_depth_and_stalls() {
    let server = spawn_server(256);
    let mut registry = Registry::new();
    registry
        .add(ServerInfo {
            id: ServerId(0),
            addr: server.addr().to_string(),
            link_cost: 1.0,
        })
        .expect("register");
    let mut pool = ServerPool::connect(&registry).expect("connect");
    let metrics = std::sync::Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(std::sync::Arc::clone(&metrics));
    for i in 0..20u64 {
        pool.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i))
            .expect("store");
    }
    let json = metrics.snapshot_json();
    assert!(
        json.contains("pool_window_depth"),
        "window depth gauge registered: {json}"
    );
    assert!(
        json.contains("pool_window_stalls_total"),
        "window stall counter registered"
    );
    server.shutdown();
}

#[test]
fn wrapped_seq_skips_slots_still_in_flight() {
    // Regression: the seq allocator handed out `next_seq` unconditionally,
    // so after the u32 counter wrapped onto a seq whose request was still
    // awaiting its reply (slow server, or a slot abandoned past its read
    // deadline), the new request *replaced* the old pending slot — and the
    // old request's reply then completed the new slot with the wrong
    // payload. A scripted peer stages the collision deterministically by
    // withholding the first reply until both requests are on the wire.
    use rmp_proto::LoadHint;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut framed = Framed::new(stream);
        let hello = framed.recv().expect("hello");
        assert!(matches!(hello, Message::Hello { .. }), "got {hello:?}");
        framed
            .send(&Message::HelloReply { window: 8 })
            .expect("hello reply");
        let Message::Windowed { seq: seq_a, .. } = framed.recv().expect("request A") else {
            panic!("expected windowed frame");
        };
        let Message::Windowed { seq: seq_b, .. } = framed.recv().expect("request B") else {
            panic!("expected windowed frame");
        };
        // Answer A first: with the pre-fix allocator seq_b == seq_a, and
        // this reply lands in B's slot as B's (wrong) answer.
        framed
            .send(&Message::Windowed {
                seq: seq_a,
                inner: Box::new(Message::LoadReport {
                    free_pages: 1,
                    stored_pages: 0,
                    cpu_permille: 0,
                    hint: LoadHint::Ok,
                }),
            })
            .expect("reply A");
        framed
            .send(&Message::Windowed {
                seq: seq_b,
                inner: Box::new(Message::PageInMiss { id: StoreKey(7) }),
            })
            .expect("reply B");
        (seq_a, seq_b)
    });

    let mut t =
        WindowedTransport::connect_with(&addr, &TransportConfig::default()).expect("connect");
    // Request A occupies the last seq before the wrap...
    t.force_next_seq(u32::MAX);
    let pending_a = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("submit A");
    // ...and the counter "wraps" back onto it while A is still in flight.
    t.force_next_seq(u32::MAX);
    let pending_b = WindowedTransport::submit(&mut t, &[Message::PageIn { id: StoreKey(7) }])
        .expect("submit B");

    let (seq_a, seq_b) = peer.join().expect("peer");
    assert_ne!(seq_a, seq_b, "B must not reuse a seq that is in flight");
    let replies_a = pending_a.wait_all().expect("A completes");
    assert!(
        matches!(replies_a[0], Message::LoadReport { .. }),
        "A got its own reply: {:?}",
        replies_a[0]
    );
    let replies_b = pending_b.wait_all().expect("B completes");
    assert!(
        matches!(replies_b[0], Message::PageInMiss { .. }),
        "B got its own reply, not A's: {:?}",
        replies_b[0]
    );
}

/// A transport whose window-stall counter is scripted: `call` fails with
/// one broken connection when told to, and `reconnect` — of a broken
/// connection only, as the real windowed reactor's — starts a "fresh
/// connection" whose cumulative [`rmp_core::reactor::WindowStats`]
/// restart from zero, exactly as the reactor's counters do.
struct ScriptedWindowState {
    stalls: u64,
    stalls_after_reconnect: u64,
    fail_next: bool,
    broken: bool,
}

struct ScriptedWindow(std::sync::Arc<std::sync::Mutex<ScriptedWindowState>>);

impl ServerTransport for ScriptedWindow {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let mut st = self.0.lock().expect("state");
        if st.fail_next {
            st.fail_next = false;
            st.broken = true;
            return Err(RmpError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "scripted reset",
            )));
        }
        match msg {
            Message::PageIn { id } => {
                let page = Page::deterministic(id.0);
                Ok(Message::PageInReply {
                    id: *id,
                    checksum: page.checksum(),
                    page,
                })
            }
            other => Err(RmpError::Protocol(format!(
                "scripted transport: unexpected {:?}",
                other.opcode()
            ))),
        }
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        Ok(())
    }

    fn reconnect(&mut self) -> Result<()> {
        let mut st = self.0.lock().expect("state");
        if !std::mem::take(&mut st.broken) {
            return Err(RmpError::Unsupported("the connection is up"));
        }
        st.stalls = st.stalls_after_reconnect;
        Ok(())
    }

    fn window_stats(&self) -> Option<rmp_core::reactor::WindowStats> {
        let st = self.0.lock().expect("state");
        Some(rmp_core::reactor::WindowStats {
            stalls: st.stalls,
            ..Default::default()
        })
    }
}

#[test]
fn window_stall_counter_survives_midcall_reconnect() {
    // Regression: the ladder's retry path rebuilds the transport via
    // reconnect(), restarting its cumulative WindowStats at zero, but the
    // pool kept the old per-server stall baseline — so every stall the
    // fresh connection accumulated below the old total was silently
    // swallowed by the delta mirror and `pool_window_stalls_total`
    // under-reported.
    use std::sync::{Arc, Mutex};

    let cfg = TransportConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        },
        ..TransportConfig::default()
    };
    let mut pool = ServerPool::with_transport_config(cfg);
    let state = Arc::new(Mutex::new(ScriptedWindowState {
        stalls: 5,
        stalls_after_reconnect: 3,
        fail_next: false,
        broken: false,
    }));
    pool.add_transport(
        ServerId(0),
        Box::new(ScriptedWindow(Arc::clone(&state))),
        1.0,
    );
    let registry = Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(Arc::clone(&registry));
    let stalls_total = registry.counter("pool_window_stalls_total");

    // First connection stalled 5 times; a healthy call mirrors them.
    pool.page_in(ServerId(0), StoreKey(1)).expect("read");
    assert_eq!(stalls_total.get(), 5);

    // The next call breaks the connection; the retry redials (the fresh
    // connection restarts at zero and then stalls 3 more times) and
    // succeeds.
    state.lock().expect("state").fail_next = true;
    pool.page_in(ServerId(0), StoreKey(2))
        .expect("read after retry");
    assert_eq!(
        stalls_total.get(),
        8,
        "stalls on the post-reconnect connection must not be swallowed \
         by the stale baseline"
    );
}

#[test]
fn a_read_that_timed_out_is_retried_in_its_own_session() {
    // Regression: the ladder redialled after every transient failure, and
    // a redial is a new server session — its own key namespace — so the
    // retry of a read that only timed out asked a session that never
    // stored the page, and got "not found". A timeout now retries on the
    // same connection; the late reply is dropped by its seq.
    let server = spawn_server(64);
    let cfg = TransportConfig {
        read_timeout: Duration::from_millis(60),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    };
    let mut pool =
        ServerPool::connect_with(&single_server_registry(&server), cfg).expect("connect");
    let key = StoreKey(1);
    pool.page_out(ServerId(0), key, &Page::deterministic(1))
        .expect("store");
    // Every request stalls past the read deadline until the stall clears,
    // while the ladder still has rungs left.
    server.set_stall(Duration::from_millis(100));
    let read = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(80));
            server.set_stall(Duration::ZERO);
        });
        pool.page_in(ServerId(0), key)
    });
    assert_eq!(
        read.expect("the retry finds the page"),
        Page::deterministic(1)
    );
    assert!(pool.alive(ServerId(0)));
    server.shutdown();
}

#[test]
fn pool_reconnect_wipes_the_rung() {
    let servers = [spawn_server(64), spawn_server(64)];
    let mut registry = Registry::new();
    for (i, server) in servers.iter().enumerate() {
        registry
            .add(ServerInfo {
                id: ServerId(i as u32),
                addr: server.addr().to_string(),
                link_cost: 1.0,
            })
            .expect("register");
    }
    // A backoff no read below outlasts: the miss leaves a rung, and no
    // later read climbs it.
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_secs(1),
        max_backoff: Duration::from_secs(1),
        jitter: 0.0,
    };
    let config = PagerConfig::new(Policy::Mirroring)
        .with_prefetch_window(0)
        .with_retry(retry);
    let pool = ServerPool::connect(&registry).expect("connect");
    let pager = one_shard(config, pool, Vec::new());
    for i in 0..4u64 {
        (pager.page_out(PageId(i), &Page::deterministic(i))).expect("pageout");
    }
    // Every pageout is acked before the crash: `flush` returns once each
    // has landed.
    pager.flush().expect("flush");
    servers[0].crash();
    for i in 0..4u64 {
        let read = pager.page_in(PageId(i)).expect("the mirror serves it");
        assert_eq!(read, Page::deterministic(i));
    }
    let victim = ServerId(0);
    let backoff = || pager.with_shard(0, |p| p.pool().backoff(victim));
    assert!(backoff().is_some(), "a read missed");
    servers[0].restart();
    pager.reconnect(victim).expect("redial");
    assert_eq!(backoff(), None);
    let trusted = pager.with_shard(0, |p| p.pool().alive(victim) && !p.pool().suspected(victim));
    assert!(trusted);
    for server in servers {
        server.shutdown();
    }
}

type Peer = Framed<std::net::TcpStream>;

/// A scripted server: it shakes hands granting `window`, then `then` has
/// the socket.
fn peer_after_hello(
    window: u32,
    then: impl FnOnce(Peer) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut framed = Framed::new(stream);
        let hello = framed.recv().expect("hello");
        assert!(matches!(hello, Message::Hello { .. }), "got {hello:?}");
        framed
            .send(&Message::HelloReply { window })
            .expect("hello reply");
        then(framed);
    });
    (addr, peer)
}

/// Reads and drops everything until the client hangs up.
fn swallow(framed: Peer) {
    use std::io::Read;

    let mut stream = framed.into_inner();
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// A server that shakes hands and then never answers: it swallows every
/// request and holds the socket open until the client hangs up.
fn silent_after_hello() -> (String, std::thread::JoinHandle<()>) {
    peer_after_hello(8, swallow)
}

#[test]
fn a_gather_over_silent_servers_waits_one_read_deadline() {
    // Regression: the wait restarted the read deadline for every reply it
    // collected, so a gather over n silent servers held a fault for n
    // read deadlines. One attempt, no backoff: the gather is all there is
    // to time.
    let read_timeout = Duration::from_millis(400);
    let cfg = TransportConfig {
        read_timeout,
        retry: RetryPolicy::no_retry(),
        ..TransportConfig::default()
    };
    let mut pool = ServerPool::with_transport_config(cfg.clone());
    let metrics = std::sync::Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(std::sync::Arc::clone(&metrics));
    let mut peers = Vec::new();
    for id in 0..3 {
        let (addr, peer) = silent_after_hello();
        let transport = WindowedTransport::connect_with(&addr, &cfg).expect("connect");
        pool.add_transport(ServerId(id), Box::new(transport), 1.0);
        peers.push(peer);
    }

    let start = Instant::now();
    let legs = (0..3).map(|id| (ServerId(id), Message::LoadQuery));
    let replies = pool.scatter(legs.collect());
    let elapsed = start.elapsed();

    assert!(
        elapsed >= read_timeout && elapsed < 2 * read_timeout,
        "three silent servers cost one read deadline, not three: {elapsed:?}"
    );
    for (id, reply) in (0..3).zip(&replies) {
        assert!(
            matches!(reply, Err(RmpError::Timeout(s)) if *s == ServerId(id)),
            "leg {id} fails as its server's typed timeout: {reply:?}"
        );
        let latency = metrics.histogram(&format!("pool_call_latency_us{{srv{id}}}"));
        assert_eq!(latency.count(), 1, "leg {id} is one sampled attempt");
    }
    assert_eq!(
        metrics.counter("pool_suspect_transitions_total").get(),
        3,
        "each silent server took its own miss"
    );
    drop(pool);
    for peer in peers {
        peer.join().expect("peer");
    }
}

/// Polls `pending` until its replies are in, failing after five seconds.
fn poll_until_ready(pending: &rmp_core::reactor::PendingReplies) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pending.is_ready() {
        assert!(Instant::now() < deadline, "the replies never came");
        std::thread::yield_now();
    }
}

#[test]
fn a_reply_nobody_waits_for_is_collected_by_polling() {
    // The read-ahead harvest only ever asks `is_ready`: with no thread
    // reading the connection, the poll itself has to read.
    let server = spawn_server(64);
    let mut t =
        WindowedTransport::connect_with(&server.addr().to_string(), &TransportConfig::default())
            .expect("connect");
    let pending = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("submit");
    poll_until_ready(&pending);
    assert_eq!(t.stats().completed, 1, "the poll completed the frame");
    let replies = pending.wait_all().expect("reply");
    assert!(matches!(replies[0], Message::LoadReport { .. }));
    server.shutdown();
}

#[test]
fn a_poll_of_an_idle_connection_does_not_wait() {
    // A poll must not block: a read with a tiny SO_RCVTIMEO would, for a
    // jiffy (4-10 ms) every time. The fastest of twenty polls discounts
    // a busy machine's preemptions, not a poll that blocks.
    let (addr, peer) = silent_after_hello();
    let mut t =
        WindowedTransport::connect_with(&addr, &TransportConfig::default()).expect("connect");
    let pending = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("submit");
    let fastest = (0..20)
        .map(|_| {
            let start = Instant::now();
            assert!(!pending.is_ready(), "a silent server answers nothing");
            start.elapsed()
        })
        .min()
        .expect("twenty polls");
    assert!(
        fastest < Duration::from_millis(1),
        "a poll took {fastest:?}"
    );
    drop(pending);
    drop(t);
    peer.join().expect("peer");
}

#[test]
fn polling_beside_a_writer_never_kills_the_connection() {
    // The poll reads without blocking by a flag on the one call, not on
    // the socket: O_NONBLOCK would reach the submitter's writes through
    // the file description they share, and a page burst that finds the
    // send buffer full would fail as `WouldBlock` and kill the
    // connection. A window of 1024 pages outgrows the socket buffers and
    // a peer that takes one frame at a time, a little slowly, keeps them
    // full, so the writes do wait.
    let (addr, peer) = peer_after_hello(1024, |mut framed| {
        while let Ok(Message::Windowed { seq, inner }) = framed.recv() {
            let Message::PageOut { id, .. } = *inner else {
                panic!("expected a store, got {inner:?}");
            };
            std::thread::sleep(Duration::from_micros(10));
            let hint = rmp_proto::LoadHint::Ok;
            let inner = Box::new(Message::PageOutAck { id, hint });
            framed.send(&Message::Windowed { seq, inner }).expect("ack");
        }
    });
    let cfg = TransportConfig {
        window_max_inflight: 1024,
        ..TransportConfig::default()
    };
    let mut t = WindowedTransport::connect_with(&addr, &cfg).expect("connect");
    let (bursts, polled) = std::sync::mpsc::channel::<rmp_core::reactor::PendingReplies>();
    let poller = std::thread::spawn(move || {
        for pending in polled {
            poll_until_ready(&pending);
            let replies = pending.wait_all().expect("burst acked");
            assert!(replies
                .iter()
                .all(|r| matches!(r, Message::PageOutAck { .. })));
        }
    });
    let page = Page::deterministic(7);
    let burst: Vec<Message> = (0..32).map(|i| page_out(StoreKey(i), &page)).collect();
    for round in 0..200 {
        let pending = WindowedTransport::submit(&mut t, &burst)
            .unwrap_or_else(|e| panic!("burst {round} refused: {e}"));
        bursts.send(pending).expect("poller alive");
    }
    drop(bursts);
    poller.join().expect("poller");
    let stats = t.stats();
    assert_eq!((stats.completed, stats.inflight), (200 * 32, 0));
    drop(t);
    peer.join().expect("peer");
}

#[test]
fn two_callers_parked_on_one_connection_both_get_their_replies() {
    // One of the two reads (leads), the other sleeps on its slot
    // (follows). Answered in either order: the leader completes the
    // follower's reply, or leaves with its own and hands the read side
    // over.
    for order in [[0, 1], [1, 0]] {
        let (addr, peer) = peer_after_hello(8, move |mut framed| {
            let mut asked = Vec::new();
            for _ in 0..2 {
                let Message::Windowed { seq, inner } = framed.recv().expect("request") else {
                    panic!("expected windowed frame");
                };
                let Message::PageIn { id } = *inner else {
                    panic!("expected a read, got {inner:?}");
                };
                asked.push((seq, id));
            }
            // Both callers are parked by now.
            std::thread::sleep(Duration::from_millis(50));
            for i in order {
                let (seq, id) = asked[i];
                let inner = Box::new(Message::PageInMiss { id });
                framed
                    .send(&Message::Windowed { seq, inner })
                    .expect("reply");
                std::thread::sleep(Duration::from_millis(20));
            }
            swallow(framed);
        });
        let mut t =
            WindowedTransport::connect_with(&addr, &TransportConfig::default()).expect("connect");
        let callers: Vec<_> = (0..2u64)
            .map(|i| {
                let read = Message::PageIn { id: StoreKey(i) };
                let pending = WindowedTransport::submit(&mut t, &[read]).expect("submit");
                std::thread::spawn(move || (i, pending.wait_all()))
            })
            .collect();
        for caller in callers {
            let (i, replies) = caller.join().expect("caller");
            let replies = replies.unwrap_or_else(|e| panic!("order {order:?} caller {i}: {e}"));
            assert!(
                matches!(replies[0], Message::PageInMiss { id } if id == StoreKey(i)),
                "order {order:?}: caller {i} got {:?}",
                replies[0]
            );
        }
        drop(t);
        peer.join().expect("peer");
    }
}

#[test]
fn a_stalled_submitter_reads_the_window_free() {
    // Window of one, a frame outstanding, nobody parked on it: nothing
    // but the stalled submitter itself can read the reply that frees the
    // window.
    let server = spawn_server(64);
    let cfg = TransportConfig {
        window_max_inflight: 1,
        ..TransportConfig::default()
    };
    let mut t = WindowedTransport::connect_with(&server.addr().to_string(), &cfg).expect("connect");
    let first = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("first");
    let second = WindowedTransport::submit(&mut t, &[Message::GetStats]).expect("second");
    assert!(
        first.is_ready(),
        "the stalled submitter completed the first"
    );
    assert_eq!(t.stats().stalls, 1);
    let first = first.wait_all().expect("first reply");
    assert!(matches!(first[0], Message::LoadReport { .. }));
    let second = second.wait_all().expect("second reply");
    assert!(matches!(second[0], Message::StatsReply { .. }));
    server.shutdown();
}

/// Parks a caller reading a connection to a server that never answers,
/// runs `cut` once it is blocked, and returns how long after `cut`
/// finished the caller gave up. A blocked read otherwise ends only at its
/// 100 ms tick, which falls about 90 ms after `cut` here.
fn reader_released_by(
    cfg: &TransportConfig,
    cut: impl FnOnce(WindowedTransport) -> Option<WindowedTransport>,
) -> Duration {
    let (quiet, deaf) = std::sync::mpsc::channel::<()>();
    let (addr, peer) = peer_after_hello(4096, move |framed| {
        let _ = deaf.recv();
        drop(framed);
    });
    let mut t = WindowedTransport::connect_with(&addr, cfg).expect("connect");
    let pending = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("submit");
    let caller = std::thread::spawn(move || {
        let failed = pending.wait_all().expect_err("no reply comes");
        (failed, Instant::now())
    });
    std::thread::sleep(Duration::from_millis(5));
    let kept = cut(t);
    let cut_at = Instant::now();
    let (failed, gave_up) = caller.join().expect("caller");
    assert!(failed.is_server_failure(), "got {failed:?}");
    drop(kept);
    drop(quiet);
    peer.join().expect("peer");
    gave_up.saturating_duration_since(cut_at)
}

#[test]
fn a_blocked_reader_wakes_when_the_connection_is_cut() {
    let cfg = TransportConfig {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_millis(10),
        window_max_inflight: 4096,
        ..TransportConfig::default()
    };
    // Dropped: teardown shuts the socket down.
    let after_drop = reader_released_by(&cfg, |t| {
        drop(t);
        None
    });
    assert!(after_drop < Duration::from_millis(40), "{after_drop:?}");
    // A write failed: 32 MiB of pages fill the socket buffers of a peer
    // that reads nothing, the write deadline passes, and the submitter
    // shuts the read side down as it marks the connection dead.
    let after_failed_write = reader_released_by(&cfg, |mut t| {
        let page = Page::deterministic(1);
        let burst: Vec<Message> = (0..4096).map(|i| page_out(StoreKey(i), &page)).collect();
        let Err(err) = WindowedTransport::submit(&mut t, &burst) else {
            panic!("the peer reads nothing, yet 32 MiB went out");
        };
        assert!(err.is_timeout(), "got {err:?}");
        Some(t)
    });
    assert!(
        after_failed_write < Duration::from_millis(40),
        "{after_failed_write:?}"
    );
}

/// What `server` has served once it has gone quiet: its count, unchanged
/// over 30 ms.
fn served_settled(server: &ServerHandle) -> u64 {
    loop {
        let served = server.served_requests();
        std::thread::sleep(Duration::from_millis(30));
        if server.served_requests() == served {
            return served;
        }
    }
}

/// Yields until `server` has served `count` requests, failing after five
/// seconds.
fn until_served(server: &ServerHandle, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.served_requests() < count {
        assert!(Instant::now() < deadline, "the held frames never left");
        std::thread::yield_now();
    }
    assert_eq!(server.served_requests(), count, "more was served than sent");
}

#[test]
fn a_held_store_waits_for_a_read_a_waiter_or_the_cap() {
    let server = spawn_server(64);
    let mut t =
        WindowedTransport::connect_with(&server.addr().to_string(), &TransportConfig::default())
            .expect("connect");
    let base = served_settled(&server);
    let page = Page::deterministic(1);
    let submit = |t: &mut WindowedTransport, msg: Message| {
        WindowedTransport::submit(t, &[msg]).expect("submit")
    };

    // A store nobody waits for stays on the window, unsent; a poll of it
    // sends nothing.
    let store = submit(&mut t, page_out(StoreKey(1), &page));
    assert!(!store.is_ready(), "a held store looked answered");
    assert_eq!(served_settled(&server), base, "a held store was served");
    // A read takes it along, ahead of itself: the read finds the page.
    match t.call(&Message::PageIn { id: StoreKey(1) }) {
        Ok(Message::PageInReply { page: read, .. }) => assert_eq!(read, page),
        other => panic!("got {other:?}"),
    }
    until_served(&server, base + 2);
    assert!(matches!(
        store.wait_all().expect("ack")[..],
        [Message::PageOutAck { .. }]
    ));

    // A waiter sends a held free.
    let free = submit(&mut t, Message::Free { id: StoreKey(1) });
    assert_eq!(served_settled(&server), base + 2, "a held free was served");
    assert!(matches!(
        free.wait_all().expect("ack")[..],
        [Message::FreeAck { .. }]
    ));
    until_served(&server, base + 3);

    // The cap: whole pages are held until the next would make it.
    let fit = rmp_core::reactor::HOLD_MAX / rmp_types::PAGE_SIZE;
    let mut stores: Vec<_> = (0..fit - 1)
        .map(|k| submit(&mut t, page_out(StoreKey(10 + k as u64), &page)))
        .collect();
    assert_eq!(served_settled(&server), base + 3, "held stores were served");
    stores.push(submit(&mut t, page_out(StoreKey(99), &page)));
    until_served(&server, base + 3 + fit as u64);
    for store in stores {
        store.wait_all().expect("ack");
    }
    assert_eq!(server.stored_pages(), fit);
    drop(t);
    server.shutdown();
}

#[test]
fn held_stores_leave_in_the_write_of_the_burst_that_takes_them_along() {
    use std::io::Read;

    let (frames, read) = std::sync::mpsc::channel();
    let (addr, peer) = peer_after_hello(8, move |framed| {
        // One read of the socket, and the frames it brought.
        let mut stream = framed.into_inner();
        let mut bytes = vec![0u8; 1 << 20];
        let n = stream.read(&mut bytes).expect("one read");
        let mut acc = rmp_proto::FrameAccumulator::new();
        acc.extend(&bytes[..n]);
        let mut got = Vec::new();
        while let Some(frame) = acc.next_enveloped().expect("whole frames") {
            got.push(frame);
        }
        frames.send(got).expect("test thread");
        swallow(Framed::new(stream));
    });
    let mut t =
        WindowedTransport::connect_with(&addr, &TransportConfig::default()).expect("connect");
    let page = Page::deterministic(2);
    let first = WindowedTransport::submit(&mut t, &[page_out(StoreKey(1), &page)]).expect("a");
    let second =
        (WindowedTransport::submit(&mut t, &[Message::Free { id: StoreKey(7) }])).expect("b");
    std::thread::sleep(Duration::from_millis(20));
    let query = WindowedTransport::submit(&mut t, &[Message::LoadQuery]).expect("c");
    let got = read
        .recv_timeout(Duration::from_secs(5))
        .expect("the peer read nothing");
    let ops: Vec<_> = got.iter().map(|(_, m)| m.opcode()).collect();
    assert_eq!(
        ops,
        [
            rmp_proto::Opcode::PageOut,
            rmp_proto::Opcode::Free,
            rmp_proto::Opcode::LoadQuery
        ],
        "the held frames did not lead the burst that took them along, in one write"
    );
    let seqs: Vec<_> = got.iter().map(|(seq, _)| seq.expect("enveloped")).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    drop((first, second, query));
    drop(t);
    peer.join().expect("peer");
}
