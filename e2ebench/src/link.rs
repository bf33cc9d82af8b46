//! The LAN: a transparent TCP delay line in front of one server, after
//! `bench --bin window`.
//!
//! Every chunk a client sends is stamped on arrival and written to the
//! server once `arrival + delay` has passed; replies flow back undelayed,
//! so the delay is charged once per round trip. Stamping and releasing
//! run on separate threads, so a chunk in flight never keeps later ones
//! from ageing: a burst shares one delay, as on a wire — a line, not a
//! pause. Unlike the original, this relay counts what crosses it, records
//! spans on a traced pass, and can be stopped and joined.
//!
//! And it waits out the delay yielding, not sleeping. Pinned to one CPU,
//! a sleeping relay leaves nothing runnable, the virtual CPU halts, and
//! how late the host's timer wakes it (measured: 150–400 µs, moving with
//! the host's load) lands in every fault — a property of the sandbox,
//! not of the pager. A yielding waiter gives the CPU to any thread that
//! wants it and keeps it awake otherwise. The relay's own CPU time is
//! kept apart so that `cpu_us_per_op` can leave it out.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rmp_proto::wire::HEADER_LEN;

use crate::sys;
use crate::trace::{unpack, Kind, Span, SpanBuf, Tracer};

/// What crossed one relay, both directions together.
#[derive(Default)]
pub struct LinkCounters {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
    /// Request chunks released, and by how much later than due in total.
    pub released: AtomicU64,
    pub overshoot_ns: AtomicU64,
    /// CPU time of the relay's own threads, the waiting included.
    pub cpu_ns: AtomicU64,
}

/// Spans and attribution for a traced pass.
#[derive(Clone)]
pub struct LinkTrace {
    pub tracer: Arc<Tracer>,
    /// Open transport span per connection, in accept order (the harness
    /// dials shard 0 first).
    pub slots: Vec<Arc<AtomicU64>>,
}

pub struct Link {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<Conn>>>,
    pub counters: Arc<LinkCounters>,
}

struct Conn {
    sockets: [TcpStream; 2],
    threads: Vec<JoinHandle<()>>,
}

/// Follows frame boundaries in a byte stream from the header's length
/// field, so frames are counted without decoding them.
#[derive(Default)]
struct FrameCounter {
    header: [u8; HEADER_LEN],
    have: usize,
    /// Payload bytes of the current frame still to pass.
    skip: usize,
}

impl FrameCounter {
    fn feed(&mut self, mut bytes: &[u8]) -> u64 {
        let mut frames = 0;
        while !bytes.is_empty() {
            if self.skip > 0 {
                let n = self.skip.min(bytes.len());
                self.skip -= n;
                bytes = &bytes[n..];
                continue;
            }
            let n = (HEADER_LEN - self.have).min(bytes.len());
            self.header[self.have..self.have + n].copy_from_slice(&bytes[..n]);
            self.have += n;
            bytes = &bytes[n..];
            if self.have == HEADER_LEN {
                let len = [
                    self.header[4],
                    self.header[5],
                    self.header[6],
                    self.header[7],
                ];
                self.skip = u32::from_le_bytes(len) as usize;
                self.have = 0;
                frames += 1;
            }
        }
        frames
    }
}

/// Per-thread recorder: counters always, spans when traced.
struct Recorder {
    counters: Arc<LinkCounters>,
    frames: FrameCounter,
    trace: Option<(Arc<Tracer>, Arc<Mutex<SpanBuf>>)>,
    cpu_seen: u64,
}

impl Recorder {
    fn new(counters: &Arc<LinkCounters>, trace: Option<&LinkTrace>) -> Self {
        Recorder {
            counters: Arc::clone(counters),
            frames: FrameCounter::default(),
            trace: trace.map(|t| (Arc::clone(&t.tracer), t.tracer.buffer())),
            cpu_seen: 0,
        }
    }

    /// Accounts one forwarded chunk; `owner` is the packed open span of
    /// the connection when the chunk arrived.
    fn forwarded(&mut self, kind: Kind, chunk: &[u8], arrived: Instant, owner: u64) {
        // Statistics: they publish nothing, so `Relaxed`.
        self.counters
            .frames
            .fetch_add(self.frames.feed(chunk), Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        if let Some((tracer, buf)) = &self.trace {
            let (fault, parent) = unpack(owner);
            buf.lock().expect("span buffer poisoned").push(Span {
                id: tracer.next_id(),
                parent,
                fault,
                kind,
                start_ns: tracer.ns(arrived),
                end_ns: tracer.ns(Instant::now()),
            });
        }
        self.account_cpu();
    }

    /// Publishes the CPU time this thread has used since the last call.
    fn account_cpu(&mut self) {
        let cpu = sys::thread_cpu_ns();
        self.counters
            .cpu_ns
            .fetch_add(cpu - self.cpu_seen, Ordering::Relaxed);
        self.cpu_seen = cpu;
    }
}

impl Link {
    /// Starts a relay on an ephemeral loopback port in front of
    /// `upstream`, ageing requests by `delay`.
    pub fn spawn(
        upstream: SocketAddr,
        delay: Duration,
        trace: Option<LinkTrace>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(LinkCounters::default());
        let acceptor = {
            let (stop, counters) = (Arc::clone(&stop), Arc::clone(&counters));
            thread::spawn(move || {
                let mut conns = Vec::new();
                for client in listener.incoming() {
                    // `SeqCst`: pairs with the store in `stop`, which is
                    // followed by the wake-up connection seen here.
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { break };
                    let slot = trace
                        .as_ref()
                        .and_then(|t| t.slots.get(conns.len()).cloned());
                    match relay(client, upstream, delay, &counters, trace.as_ref(), slot) {
                        Ok(conn) => conns.push(conn),
                        Err(_) => break,
                    }
                }
                conns
            })
        };
        Ok(Link {
            addr,
            stop,
            acceptor: Some(acceptor),
            counters,
        })
    }

    /// The address clients dial instead of the server's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs every relayed connection and joins every relay thread.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        let conns = acceptor.join().expect("relay acceptor panicked");
        for conn in conns {
            for s in &conn.sockets {
                let _ = s.shutdown(Shutdown::Both);
            }
            for t in conn.threads {
                t.join().expect("relay thread panicked");
            }
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.stop();
    }
}

fn relay(
    client: TcpStream,
    upstream: SocketAddr,
    delay: Duration,
    counters: &Arc<LinkCounters>,
    trace: Option<&LinkTrace>,
    slot: Option<Arc<AtomicU64>>,
) -> std::io::Result<Conn> {
    client.set_nodelay(true)?;
    let server = TcpStream::connect(upstream)?;
    server.set_nodelay(true)?;
    let owner = move || slot.as_ref().map_or(0, |s| s.load(Ordering::Relaxed));

    // Request path: the reader stamps arrivals, the writer releases them
    // when due.
    let (stamped_tx, stamped_rx) = mpsc::channel::<(Instant, u64, Vec<u8>)>();
    let mut from_client = client.try_clone()?;
    let request_owner = owner.clone();
    let reader = thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n) = from_client.read(&mut buf) {
            if n == 0
                || stamped_tx
                    .send((Instant::now(), request_owner(), buf[..n].to_vec()))
                    .is_err()
            {
                break;
            }
        }
        // Dropping the sender lets the writer drain and close.
    });
    let mut to_server = server.try_clone()?;
    let mut forward = Recorder::new(counters, trace);
    let writer = thread::spawn(move || {
        while let Ok((arrived, owner, chunk)) = stamped_rx.recv() {
            let due = arrived + delay;
            while Instant::now() < due {
                thread::yield_now();
            }
            let late = Instant::now().saturating_duration_since(due);
            // Before the release: whoever reads the counter once the
            // reply is back must find the wait already in it.
            forward.account_cpu();
            if to_server.write_all(&chunk).is_err() {
                break;
            }
            forward.counters.released.fetch_add(1, Ordering::Relaxed);
            forward
                .counters
                .overshoot_ns
                .fetch_add(late.as_nanos() as u64, Ordering::Relaxed);
            forward.forwarded(Kind::LinkForward, &chunk, arrived, owner);
        }
        let _ = to_server.shutdown(Shutdown::Write);
    });

    // Reply path: server to client, undelayed.
    let mut from_server = server.try_clone()?;
    let mut to_client = client.try_clone()?;
    let mut back = Recorder::new(counters, trace);
    let returner = thread::spawn(move || {
        let mut buf = vec![0u8; 256 * 1024];
        while let Ok(n) = from_server.read(&mut buf) {
            let arrived = Instant::now();
            if n == 0 || to_client.write_all(&buf[..n]).is_err() {
                break;
            }
            back.forwarded(Kind::LinkReturn, &buf[..n], arrived, owner());
        }
        let _ = to_client.shutdown(Shutdown::Write);
    });
    Ok(Conn {
        sockets: [client, server],
        threads: vec![reader, writer, returner],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counter_follows_split_headers_and_payloads() {
        let mut frame = vec![0x4D, 0x52, 2, 5, 3, 0, 0, 0];
        frame.extend_from_slice(&[9, 9, 9]);
        let two: Vec<u8> = frame.iter().chain(frame.iter()).copied().collect();
        let mut whole = FrameCounter::default();
        assert_eq!(whole.feed(&two), 2);
        let mut split = FrameCounter::default();
        let total: u64 = two.chunks(3).map(|c| split.feed(c)).sum();
        assert_eq!(total, 2);
    }
}
