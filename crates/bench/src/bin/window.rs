//! Request-window endurance: single-thread pagein throughput vs. window.
//!
//! A request/response socket pays one full round trip per pagein, so a
//! single client thread can never fetch faster than `1 / RTT`. The
//! windowed reactor transport keeps up to `window_max_inflight`
//! seq-tagged frames on the wire at once, so the link's propagation
//! delay is paid once per *burst* instead of once per *page*. This
//! bench measures what that buys one thread against a real TCP
//! [`MemoryServer`] reached through an emulated one-way link delay
//! (default 1 ms — conservative next to the paper's ~10 ms Ethernet
//! transfer time per 8 KB page; `BENCH_LINK_DELAY_US` overrides it):
//!
//! * **blocking** — a bare [`Framed`] socket, one `PageIn` sent and its
//!   reply awaited per call: the baseline the claim is made against.
//!   Every call is its own wire burst, so every call pays the link delay.
//! * **windowed** — [`WindowedTransport`] at windows 1, 4, 16, and 32:
//!   the thread keeps the pipe full by double-buffering window-sized
//!   bursts — burst N+1 is submitted before burst N's replies are
//!   collected, so the window never drains at a barrier. A burst's
//!   frames arrive at the server back-to-back and share one link delay.
//!   The per-page latency sample is the gap between consecutive burst
//!   completions divided by the burst size (the amortized completion
//!   interval a faulting stream observes).
//!
//! The link delay is emulated by a transparent TCP *delay link* inside
//! the bench (netem-style): a relay listens on loopback, timestamps
//! every chunk a client sends, and forwards it to the real server once
//! `arrival + delay` has passed, with replies flowing back unaltered.
//! Because the release clock runs concurrently with everything else, a
//! burst in flight does not stall the pipe — it is a delay *line*, not
//! a pause — which is exactly how propagation behaves on a real wire.
//! Bare loopback has no propagation delay at all, so an un-delayed run
//! measures only syscall amortization — a property of the host's
//! scheduler and core count, not of the protocol; the delayed run is
//! deterministic and machine-independent. Reply verification happens
//! after the clock stops on both sides — page generation is workload
//! cost, not transport cost.
//!
//! Asserted in-process, failing the run when violated:
//!
//! * window >= 16 pagein throughput >= 4x the blocking baseline's;
//! * p99 amortized per-page latency at every window <= 2x the
//!   windowed transport's own window=1 baseline.
//!
//! Writes the `rmp-window-bench-v1` JSON document (`BENCH_window.json`,
//! or the path in `BENCH_OUT`) for CI to schema-check and archive.
//! `BENCH_PAGES` overrides the workload size (default 4096 pages).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rmp_core::{PendingReplies, ServerTransport, WindowedTransport};
use rmp_proto::{Framed, Message};
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{Page, StoreKey, TransportConfig};

const WINDOWS: [usize; 4] = [1, 4, 16, 32];

fn spawn_server(capacity: usize) -> ServerHandle {
    MemoryServer::spawn(ServerConfig {
        capacity_pages: capacity,
        overflow_fraction: 0.10,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// Spawns a transparent TCP delay link in front of `upstream` and
/// returns the address clients should dial. Every chunk a client sends
/// is timestamped on arrival and forwarded once `arrival + delay` has
/// passed; replies flow back unaltered, so the delay is charged on the
/// request path only (one-way). Timestamping and release run on
/// separate threads per connection, so a chunk "in flight" never blocks
/// later chunks from aging concurrently — a delay line, not a pause.
/// The relay threads live for the remainder of the process; a bench
/// run exits right after its last measurement.
fn spawn_delay_link(upstream: SocketAddr, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind delay link");
    let addr = listener.local_addr().expect("delay link addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let _ = client.set_nodelay(true);
            let Ok(server) = TcpStream::connect(upstream) else {
                break;
            };
            let _ = server.set_nodelay(true);

            // Request path: client -> (delay) -> server. The reader
            // stamps arrivals; the writer releases them when due.
            let (stamped_tx, stamped_rx) = mpsc::channel::<(Instant, Vec<u8>)>();
            let mut from_client = client.try_clone().expect("clone client stream");
            thread::spawn(move || {
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    match from_client.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            let due = Instant::now() + delay;
                            if stamped_tx.send((due, buf[..n].to_vec())).is_err() {
                                break;
                            }
                        }
                    }
                }
                // Dropping the sender lets the writer drain and close.
            });
            let mut to_server = server.try_clone().expect("clone server stream");
            thread::spawn(move || {
                while let Ok((due, chunk)) = stamped_rx.recv() {
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    if to_server.write_all(&chunk).is_err() {
                        break;
                    }
                }
                let _ = to_server.shutdown(Shutdown::Write);
            });

            // Reply path: server -> client, undelayed.
            let mut from_server = server;
            let mut to_client = client;
            thread::spawn(move || {
                let mut buf = vec![0u8; 256 * 1024];
                loop {
                    match from_server.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if to_client.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = to_client.shutdown(Shutdown::Write);
            });
        }
    });
    addr
}

/// Stores `pages` deterministic pages (setup, untimed) in pipelined
/// chunks so it stays quick; `exchange` puts one chunk on the wire and
/// returns its replies in request order. Store keys are scoped per
/// session server-side, so every run preloads over its *own* connection.
fn preload(pages: usize, mut exchange: impl FnMut(&[Message]) -> Vec<Message>) {
    let msgs: Vec<Message> = (0..pages as u64)
        .map(|i| {
            let page = Page::deterministic(i);
            Message::PageOut {
                id: StoreKey(i),
                checksum: page.checksum(),
                page,
            }
        })
        .collect();
    for chunk in msgs.chunks(64) {
        for r in exchange(chunk) {
            assert!(
                matches!(r, Message::PageOutAck { .. }),
                "preload ack, got {r:?}"
            );
        }
    }
}

/// Checks that `replies[k]` is the `PageInReply` for page `start + k`.
/// Runs after the clock stops — the cost of regenerating the expected
/// page is workload, not transport.
fn verify(start: u64, replies: &[Message]) {
    for (off, reply) in replies.iter().enumerate() {
        let i = start + off as u64;
        let Message::PageInReply { page, .. } = reply else {
            panic!("expected PageInReply, got {reply:?}");
        };
        assert_eq!(*page, Page::deterministic(i), "page {i} contents");
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

struct Run {
    window: usize,
    granted: usize,
    pagein_pps: f64,
    p99_us: u64,
    stalls: u64,
    wakeups: u64,
}

/// Blocking baseline: one `PageIn` per round trip, `pages` of them.
fn run_blocking(addr: &str, pages: usize) -> Run {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut t = Framed::new(stream);
    // Bare frames are answered in arrival order.
    preload(pages, |chunk| {
        for msg in chunk {
            t.send(msg).expect("preload send");
        }
        chunk
            .iter()
            .map(|_| t.recv().expect("preload reply"))
            .collect()
    });
    let mut latencies: Vec<u64> = Vec::with_capacity(pages);
    let mut replies: Vec<Message> = Vec::with_capacity(pages);
    let started = Instant::now();
    for i in 0..pages as u64 {
        let op = Instant::now();
        let reply = t
            .call(&Message::PageIn { id: StoreKey(i) })
            .expect("pagein");
        latencies.push(op.elapsed().as_micros() as u64);
        replies.push(reply);
    }
    let pagein_pps = pages as f64 / started.elapsed().as_secs_f64();
    verify(0, &replies);
    latencies.sort_unstable();
    Run {
        window: 0,
        granted: 0,
        pagein_pps,
        p99_us: percentile(&latencies, 99),
        stalls: 0,
        wakeups: 0,
    }
}

/// Windowed run: one thread keeps the window full by double-buffering
/// bursts — burst N+1 is submitted (stalling inside `submit` as slots
/// free up) before burst N's replies are collected, so frames are on
/// the wire continuously. The per-page latency sample is the gap
/// between consecutive burst completions divided by the burst size.
fn run_windowed(addr: &str, pages: usize, window: usize) -> Run {
    let cfg = TransportConfig {
        window_max_inflight: window,
        ..TransportConfig::default()
    };
    let mut t = WindowedTransport::connect_with(addr, &cfg).expect("connect");
    let granted = t.granted_window();
    assert_eq!(granted, window, "server granted the full window");
    preload(pages, |chunk| {
        t.call_pipelined(chunk).expect("preload store")
    });

    let mut latencies: Vec<u64> = Vec::with_capacity(pages / window + 1);
    let mut done: Vec<(u64, Vec<Message>)> = Vec::with_capacity(pages / window + 1);
    let mut inflight: std::collections::VecDeque<(u64, usize, PendingReplies)> =
        std::collections::VecDeque::new();
    let started = Instant::now();
    let mut last_done = started;
    let collect = |q: &mut std::collections::VecDeque<(u64, usize, PendingReplies)>,
                   last_done: &mut Instant,
                   latencies: &mut Vec<u64>,
                   done: &mut Vec<(u64, Vec<Message>)>| {
        let (start, len, pending) = q.pop_front().expect("inflight burst");
        let replies = pending.wait_all().expect("burst replies");
        let now = Instant::now();
        latencies.push((now - *last_done).as_micros() as u64 / len as u64);
        *last_done = now;
        assert_eq!(replies.len(), len, "burst reply count");
        done.push((start, replies));
    };
    let mut next = 0u64;
    while next < pages as u64 {
        let len = window.min((pages as u64 - next) as usize);
        let msgs: Vec<Message> = (next..next + len as u64)
            .map(|i| Message::PageIn { id: StoreKey(i) })
            .collect();
        let pending = WindowedTransport::submit(&mut t, &msgs).expect("submit");
        inflight.push_back((next, len, pending));
        next += len as u64;
        if inflight.len() >= 2 {
            collect(&mut inflight, &mut last_done, &mut latencies, &mut done);
        }
    }
    while !inflight.is_empty() {
        collect(&mut inflight, &mut last_done, &mut latencies, &mut done);
    }
    let pagein_pps = pages as f64 / started.elapsed().as_secs_f64();
    for (start, replies) in &done {
        verify(*start, replies);
    }
    latencies.sort_unstable();
    let stats = t.stats();
    Run {
        window,
        granted,
        pagein_pps,
        p99_us: percentile(&latencies, 99),
        stalls: stats.stalls,
        wakeups: stats.wakeups,
    }
}

fn main() {
    let pages: usize = std::env::var("BENCH_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let link_delay_us: u64 = std::env::var("BENCH_LINK_DELAY_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    // Keys are session-scoped server-side: five runs each store their own
    // copy of the working set, so capacity covers all of them at once.
    let server = spawn_server(pages * 6);
    let addr = spawn_delay_link(server.addr(), Duration::from_micros(link_delay_us)).to_string();
    println!(
        "Request-window endurance ({pages} pages, one real TCP server, \
         emulated {link_delay_us} us one-way link delay, single client thread)"
    );

    let blocking = run_blocking(&addr, pages);
    println!(
        "\n{:<12} {:>14} {:>9} {:>10} {:>8} {:>9}",
        "transport", "pagein p/s", "speedup", "p99 us/pg", "stalls", "wakeups"
    );
    println!(
        "{:<12} {:>14.0} {:>8.2}x {:>10} {:>8} {:>9}",
        "blocking", blocking.pagein_pps, 1.0, blocking.p99_us, "-", "-"
    );

    let windowed: Vec<Run> = WINDOWS
        .iter()
        .map(|&w| run_windowed(&addr, pages, w))
        .collect();
    for r in &windowed {
        println!(
            "{:<12} {:>14.0} {:>8.2}x {:>10} {:>8} {:>9}",
            format!("window={}", r.window),
            r.pagein_pps,
            r.pagein_pps / blocking.pagein_pps,
            r.p99_us,
            r.stalls,
            r.wakeups
        );
    }

    // The tentpole claims.
    let w1_p99 = windowed[0].p99_us.max(1);
    for r in &windowed {
        if r.window >= 16 {
            let speedup = r.pagein_pps / blocking.pagein_pps;
            assert!(
                speedup >= 4.0,
                "window={} pagein throughput is {speedup:.2}x the blocking \
                 transport; the request window promises >= 4x at window >= 16",
                r.window
            );
        }
        let ratio = r.p99_us as f64 / w1_p99 as f64;
        assert!(
            ratio <= 2.0,
            "window={} amortized p99 ({} us/page) is {ratio:.2}x the \
             window=1 baseline ({w1_p99} us/page); the bound is 2x",
            r.window,
            r.p99_us
        );
    }
    let at16 = windowed.iter().find(|r| r.window == 16).expect("window 16");
    println!(
        "\nwindow=16 speedup {:.2}x over blocking (floor 4x); all windows' \
         amortized p99 within 2x of window=1",
        at16.pagein_pps / blocking.pagein_pps
    );

    let rows: Vec<String> = windowed
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"window\": {}, \"granted\": {}, ",
                    "\"pagein_pages_per_sec\": {:.1}, \"speedup_vs_blocking\": {:.3}, ",
                    "\"p99_us_per_page\": {}, \"p99_ratio_vs_window1\": {:.3}, ",
                    "\"stalls\": {}, \"reactor_wakeups\": {}}}"
                ),
                r.window,
                r.granted,
                r.pagein_pps,
                r.pagein_pps / blocking.pagein_pps,
                r.p99_us,
                r.p99_us as f64 / w1_p99 as f64,
                r.stalls,
                r.wakeups
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"schema\": \"rmp-window-bench-v1\", \"pages\": {}, ",
            "\"emulated_link_delay_us\": {}, ",
            "\"blocking\": {{\"pagein_pages_per_sec\": {:.1}, \"p99_us_per_page\": {}}}, ",
            "\"windowed\": [{}]}}"
        ),
        pages,
        link_delay_us,
        blocking.pagein_pps,
        blocking.p99_us,
        rows.join(", ")
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_window.json".into());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
    server.shutdown();
}
