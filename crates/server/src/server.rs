//! Threaded TCP remote memory server.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use rmp_proto::{FrameAccumulator, Framed, LoadHint, Message};
use rmp_types::metrics::{Counter, Histogram, MetricsRegistry};
use rmp_types::{ErrorCode, Result, RmpError};

use crate::store::PageStore;

/// Configuration of one remote memory server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Page frames the server may promise to clients.
    pub capacity_pages: usize,
    /// Extra overflow fraction for parity logging (the paper devotes 10 %).
    pub overflow_fraction: f64,
    /// Simulated native CPU load of the host, per-mille. Used by the
    /// busy-workstation experiments (Section 4.5) to model a server that
    /// is editing files or running a `while(1)` loop.
    pub simulated_cpu_permille: u16,
    /// Most sessions served at once (at least one). Each session is a
    /// thread for as long as its client stays connected; a connection
    /// past the cap is refused at once with a typed `Overloaded` error.
    pub max_sessions: usize,
    /// Per-session cap on the request window granted to windowed
    /// (`Hello`-handshaking) clients: a client asking for more in-flight
    /// frames than this is granted exactly this many. Bounds the memory
    /// a single session's burst can pin on the server.
    pub window_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity_pages: 4096,
            overflow_fraction: 0.10,
            simulated_cpu_permille: 0,
            max_sessions: 64,
            window_cap: 64,
        }
    }
}

/// Pre-resolved handles into the server's metrics registry so the
/// per-request path records without by-name lookups. The registry keeps
/// no event ring — trace events are a client-side concern; the server
/// exports counters, gauges, and the request-latency histogram over the
/// wire via `GetStats`.
struct ServerMetrics {
    requests: Arc<Counter>,
    error_replies: Arc<Counter>,
    pageouts: Arc<Counter>,
    pageins: Arc<Counter>,
    refused_connections: Arc<Counter>,
    latency: Arc<Histogram>,
    registry: MetricsRegistry,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::with_event_capacity(0);
        ServerMetrics {
            requests: registry.counter("server_requests_total"),
            error_replies: registry.counter("server_error_replies_total"),
            pageouts: registry.counter("server_pageouts_total"),
            pageins: registry.counter("server_pageins_total"),
            refused_connections: registry.counter("server_refused_connections_total"),
            latency: registry.histogram("server_request_latency_us"),
            registry,
        }
    }
}

/// State shared between the listener, session threads, and the handle.
struct Shared {
    store: Mutex<PageStore>,
    config: ServerConfig,
    crashed: AtomicBool,
    shutting_down: AtomicBool,
    /// Live client connections, keyed by session id so each entry can be
    /// pruned when its session thread exits (an append-only list would
    /// leak one fd per client that ever connected).
    sessions: Mutex<HashMap<u64, TcpStream>>,
    /// Session threads alive, each holding a [`Seat`]. Not the size of
    /// `sessions`: `crash_now` drains that map before the threads behind
    /// it have exited.
    session_threads: AtomicUsize,
    /// Deterministic gray-failure injection: every request stalls this
    /// many nanoseconds before service. Models a degraded host (thrashing
    /// disk, saturated NIC) that answers correctly but slowly — the
    /// failure mode a fail-stop crash detector cannot see.
    stall_nanos: AtomicU64,
    busy_nanos: AtomicU64,
    served_requests: AtomicU64,
    next_session: AtomicU64,
    started: Instant,
    metrics: ServerMetrics,
}

/// Each client session gets a private key namespace in the upper bits of
/// the 64-bit store key — the paper's "each client is served by a new
/// instance of the server" whose swap spaces are never shared. Clients
/// keep 48 bits of key space.
const SESSION_SHIFT: u32 = 48;
const KEY_MASK: u64 = (1u64 << SESSION_SHIFT) - 1;

/// A session's private view of the shared store.
#[derive(Clone, Copy)]
struct SessionScope {
    sid: u64,
}

impl SessionScope {
    fn scope(&self, key: rmp_types::StoreKey) -> rmp_types::StoreKey {
        rmp_types::StoreKey((self.sid << SESSION_SHIFT) | (key.0 & KEY_MASK))
    }

    fn unscope(&self, key: rmp_types::StoreKey) -> rmp_types::StoreKey {
        rmp_types::StoreKey(key.0 & KEY_MASK)
    }

    fn range(&self) -> (rmp_types::StoreKey, rmp_types::StoreKey) {
        (
            rmp_types::StoreKey(self.sid << SESSION_SHIFT),
            rmp_types::StoreKey((self.sid + 1) << SESSION_SHIFT),
        )
    }
}

impl Shared {
    fn new(config: ServerConfig) -> Arc<Self> {
        Arc::new(Shared {
            store: Mutex::new(PageStore::new(
                config.capacity_pages,
                config.overflow_fraction,
            )),
            config,
            crashed: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            session_threads: AtomicUsize::new(0),
            stall_nanos: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            served_requests: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            started: Instant::now(),
            metrics: ServerMetrics::new(),
        })
    }

    /// A fresh session's key namespace.
    fn open_session(&self) -> SessionScope {
        let sid = self.next_session.fetch_add(1, Ordering::SeqCst) & (u64::MAX >> SESSION_SHIFT);
        SessionScope { sid }
    }

    fn hint(&self) -> LoadHint {
        let store = self.store.lock();
        if store.grantable() == 0 && store.free_fraction() < 0.05 {
            LoadHint::StopSending
        } else if store.free_fraction() < 0.25 {
            LoadHint::Pressure
        } else {
            LoadHint::Ok
        }
    }
}

/// One of `max_sessions`, held by a session thread for its lifetime and
/// given back when dropped: when the thread ends, or when the acceptor
/// could not start it.
struct Seat(Arc<Shared>);

impl Seat {
    /// A seat, unless every one is taken.
    fn claim(shared: &Arc<Shared>) -> Option<Seat> {
        let taken = shared.session_threads.fetch_add(1, Ordering::SeqCst);
        let seat = Seat(Arc::clone(shared));
        (taken < shared.config.max_sessions.max(1)).then_some(seat)
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        self.0.session_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The user-level remote memory server (Section 3.2).
///
/// # Examples
///
/// ```
/// use rmp_server::{MemoryServer, ServerConfig};
///
/// let handle = MemoryServer::spawn(ServerConfig::default()).unwrap();
/// println!("serving on {}", handle.addr());
/// handle.shutdown();
/// ```
pub struct MemoryServer;

impl MemoryServer {
    /// Binds a loopback listener and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates socket-binding failures.
    pub fn spawn(config: ServerConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Shared::new(config);
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::Builder::new()
            .name(format!("rmp-server-{}", addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(RmpError::Io)?;
        Ok(ServerHandle {
            addr,
            shared,
            listener_thread: Some(listener_thread),
        })
    }

    /// A server with no socket, for callers in the same process: each
    /// [`InProcessServer::session`] is served by the request handler a
    /// socket session runs, over the same store, grants and checksum
    /// checks.
    pub fn in_process(config: ServerConfig) -> InProcessServer {
        InProcessServer(Shared::new(config))
    }
}

/// A [`MemoryServer`] without a listener. Cloning shares the server: a
/// crash seen through one clone, or one session, is a crash for all.
#[derive(Clone)]
pub struct InProcessServer(Arc<Shared>);

impl InProcessServer {
    /// Opens a session: a key namespace of its own, as a connection gets.
    pub fn session(&self) -> InProcessSession {
        InProcessSession {
            shared: Arc::clone(&self.0),
            scope: self.0.open_session(),
        }
    }

    /// Injects a workstation crash: every stored page is lost, and every
    /// session is refused until [`InProcessServer::restart`].
    pub fn crash(&self) {
        crash_now(&self.0);
    }

    /// Returns `true` when the server has crashed.
    pub fn is_crashed(&self) -> bool {
        self.0.crashed.load(Ordering::SeqCst)
    }

    /// Brings a crashed server back, empty since its crash; a server that
    /// is up is left as it is.
    pub fn restart(&self) {
        self.0.crashed.store(false, Ordering::SeqCst);
    }

    /// Simulates native memory demand on the host, shrinking what the
    /// server can promise to clients.
    pub fn set_native_usage(&self, pages: usize) {
        self.0.store.lock().set_native_usage(pages);
    }

    /// Pages currently stored (all sessions).
    pub fn stored_pages(&self) -> usize {
        self.0.store.lock().stored()
    }

    /// Requests served since start (all sessions).
    pub fn served_requests(&self) -> u64 {
        self.0.served_requests.load(Ordering::Relaxed)
    }
}

/// One session of an [`InProcessServer`]. It keeps its namespace across a
/// crash and restart; the pages in it are gone.
pub struct InProcessSession {
    shared: Arc<Shared>,
    scope: SessionScope,
}

impl InProcessSession {
    /// Serves one request as a socket session would, and returns its
    /// reply — a typed `Error` reply included.
    ///
    /// # Errors
    ///
    /// An I/O error where a connection would fail: `ConnectionRefused`
    /// while the server is down, `ConnectionReset` for the request that
    /// crashed it (`InjectCrash`), `ConnectionAborted` for one that ended
    /// the session (`Shutdown`).
    pub fn serve(&self, msg: Message) -> Result<Message> {
        let refused = |kind, why| Err(RmpError::Io(std::io::Error::new(kind, why)));
        if self.shared.crashed.load(Ordering::SeqCst) {
            return refused(std::io::ErrorKind::ConnectionRefused, "server is down");
        }
        match serve_one(&self.shared, self.scope, msg) {
            SessionAction::Reply(reply) => Ok(reply),
            SessionAction::Crash => {
                crash_now(&self.shared);
                refused(std::io::ErrorKind::ConnectionReset, "server crashed")
            }
            SessionAction::Close => {
                refused(std::io::ErrorKind::ConnectionAborted, "session closed")
            }
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if shared.shutting_down.load(Ordering::SeqCst) || shared.crashed.load(Ordering::SeqCst) {
            // Refuse service: drop the connection immediately.
            drop(stream);
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            continue;
        }
        // A session holds its thread until the client hangs up, so past
        // the cap nothing would answer: refuse at once, typed, and the
        // client backs off instead of waiting on a silent socket.
        let Some(seat) = Seat::claim(&shared) else {
            overloaded(&shared, stream, "every session is taken");
            continue;
        };
        let sid = shared.open_session().sid;
        // Track the session *before* it can serve anything: a session
        // `crash_now` cannot sever would let a client keep talking to a
        // "crashed" server. If the tracking clone cannot be made, refuse
        // the connection rather than serve it untracked.
        let clone = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                refuse(
                    stream,
                    ErrorCode::Internal,
                    "cannot track session for fault injection",
                );
                continue;
            }
        };
        shared.sessions.lock().insert(sid, clone);
        let session_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("rmp-session".into())
            .spawn(move || {
                let _seat = seat;
                session_loop(stream, session_shared, sid);
            });
        if spawned.is_err() {
            // The thread never started: its closure, seat and stream went
            // with it. The tracked clone is the same socket, still open
            // for the refusal frame.
            if let Some(stream) = shared.sessions.lock().remove(&sid) {
                overloaded(&shared, stream, "cannot start a session thread");
            }
        }
    }
}

/// Refuses a connection the server has no session for, counting it.
fn overloaded(shared: &Shared, stream: TcpStream, message: &str) {
    shared.metrics.refused_connections.inc();
    refuse(stream, ErrorCode::Overloaded, message);
}

/// Pushes a typed error frame at the client and drops the connection.
/// The error is sent unprompted — the client's pending (or next) read
/// picks it up — so a silent client can never stall the accept loop,
/// and a short write deadline bounds the worst case.
fn refuse(stream: TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(250)));
    let mut framed = Framed::new(stream);
    let _ = framed.send(&Message::Error {
        code,
        message: message.into(),
    });
}

/// Replies accumulated before the session loop flushes them to the
/// socket mid-burst. Small enough to keep completions flowing back (so a
/// windowed client refills its window while the burst is still being
/// served), large enough to amortize the per-write syscall and client
/// reactor wakeup over several frames.
const REPLY_FLUSH_FRAMES: usize = 8;

/// Serves one connection. Each turn of the loop takes what one `read`
/// returns — a windowed client writes a burst as one block, so one read
/// is one burst — through a [`FrameAccumulator`], blocks again only while
/// that holds nothing but a partial frame, and answers every complete
/// frame:
///
/// * A bare [`Message::Hello`] as the connection's first frame is the
///   window handshake; anywhere else it is an ordinary unexpected request
///   and draws a typed error.
/// * Seq-tagged [`Message::Windowed`] envelopes are owed one enveloped
///   reply per seq, in whatever order the server produces them. Enveloped
///   control frames are answered first: legal because the reply carries
///   the seq, and it keeps a cheap `LoadQuery` or `GetStats` from queueing
///   behind a burst of page reads.
/// * Everything else — enveloped data frames and bare frames — is served
///   in arrival order, so same-key data operations never reorder and a
///   bare pipelined client (`rmpstat`, crash injection), which has nothing
///   but order to match replies by, gets its replies in request order.
fn session_loop(mut stream: TcpStream, shared: Arc<Shared>, sid: u64) {
    use std::io::Write;
    let _ = stream.set_nodelay(true);
    let scope = SessionScope { sid };
    let mut acc = FrameAccumulator::new();
    // The frames of one read, each with its envelope's seq; emptied by
    // every turn and reused by the next.
    let mut burst: Vec<(Option<u32>, Message)> = Vec::new();
    // Replies are encoded straight into this buffer and leave in one
    // write: per-reply write_all costs a syscall *and* a client-reactor
    // wakeup each (~4-6 µs per frame on loopback), which starves this
    // thread's read loop and caps the whole windowed data path.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut opening = true;
    'session: loop {
        if shared.crashed.load(Ordering::SeqCst) || shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // A read a signal interrupted is retried inside `fill_from`; any
        // other failure, like the end of the stream, ends the session.
        match acc.fill_from(&mut stream) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        loop {
            match acc.next_enveloped() {
                Ok(Some(frame)) => burst.push(frame),
                Ok(None) => break,
                Err(_) => break 'session,
            }
        }
        wbuf.clear();
        if opening && !burst.is_empty() {
            opening = false;
            if let (None, Message::Hello { window }) = burst[0] {
                // Grant at most our cap; the reply leaves with the rest
                // of the burst's.
                let granted = window.max(1).min(shared.config.window_cap.max(1) as u32);
                Message::HelloReply { window: granted }.encode_into(&mut wbuf);
                burst.remove(0);
            }
        }
        // Enveloped control frames overtake; the sort is stable, so
        // everything else keeps its arrival order.
        burst.sort_by_key(|(seq, msg)| seq.is_none() || msg.is_data_op());
        let mut served_since_flush = 0usize;
        let mut action_after_flush: Option<SessionAction> = None;
        for (seq, msg) in burst.drain(..) {
            match serve_one(&shared, scope, msg) {
                SessionAction::Reply(reply) => {
                    match seq {
                        Some(seq) => Message::encode_windowed_into(seq, &reply, &mut wbuf),
                        None => reply.encode_into(&mut wbuf),
                    }
                    served_since_flush += 1;
                    // Flush every few replies instead of at burst end:
                    // replies flowing back mid-burst let the client free
                    // window slots and inject the next frames while this
                    // thread is still serving — withholding the whole
                    // burst serializes the pipeline into lockstep.
                    if served_since_flush >= REPLY_FLUSH_FRAMES {
                        if stream.write_all(&wbuf).is_err() {
                            break 'session;
                        }
                        wbuf.clear();
                        served_since_flush = 0;
                    }
                }
                // Replies already produced this burst still go out
                // before the session ends.
                action => {
                    action_after_flush = Some(action);
                    break;
                }
            }
        }
        if !wbuf.is_empty() && stream.write_all(&wbuf).is_err() {
            break;
        }
        match action_after_flush {
            Some(SessionAction::Crash) => {
                crash_now(&shared);
                break;
            }
            Some(_) => break,
            None => {}
        }
    }
    // The session is over (client hung up, shutdown, or crash): release
    // its tracked stream so long-lived servers don't accumulate one fd
    // per client that ever connected.
    shared.sessions.lock().remove(&sid);
}

/// Serves one decoded request: applies the configured stall, bumps the
/// data-path metrics, dispatches, and accounts the service time. The
/// session loop hands in the *inner* message, already unwrapped from its
/// envelope.
fn serve_one(shared: &Shared, scope: SessionScope, msg: Message) -> SessionAction {
    let start = Instant::now();
    // The stall lands inside the timed window on purpose: a gray
    // server's own busy fraction and latency histogram should show
    // the degradation, exactly as a thrashing host's would.
    let stall = shared.stall_nanos.load(Ordering::Relaxed);
    if stall > 0 {
        std::thread::sleep(std::time::Duration::from_nanos(stall));
    }
    match &msg {
        Message::PageOut { .. } | Message::PageOutDelta { .. } => {
            shared.metrics.pageouts.inc();
        }
        Message::PageIn { .. } => shared.metrics.pageins.inc(),
        _ => {}
    }
    let reply = handle_message(shared, scope, msg);
    // One sample serves both sinks: sampling `elapsed()` twice made
    // busy-fraction accounting and the latency histogram disagree
    // about the same request.
    let elapsed = start.elapsed();
    shared
        .busy_nanos
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    shared.served_requests.fetch_add(1, Ordering::Relaxed);
    shared.metrics.requests.inc();
    shared.metrics.latency.record(elapsed);
    if matches!(&reply, SessionAction::Reply(Message::Error { .. })) {
        shared.metrics.error_replies.inc();
    }
    reply
}

enum SessionAction {
    Reply(Message),
    Close,
    Crash,
}

fn handle_message(shared: &Shared, scope: SessionScope, msg: Message) -> SessionAction {
    // A shutdown may land between this session's recv and dispatch; answer
    // with a typed code so the client can write the page elsewhere instead
    // of diagnosing a dead socket.
    if shared.shutting_down.load(Ordering::SeqCst) {
        return SessionAction::Reply(Message::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining connections".into(),
        });
    }
    match msg {
        Message::Alloc { pages } => {
            let granted = shared.store.lock().grant(pages as usize) as u32;
            SessionAction::Reply(Message::AllocReply {
                granted,
                hint: shared.hint(),
            })
        }
        Message::PageOut { id, checksum, page } => {
            // Verify before storing: a page mangled in flight must be
            // rejected here, not discovered at pagein time when the
            // client no longer holds the original.
            if page.checksum() != checksum {
                return SessionAction::Reply(Message::Error {
                    code: ErrorCode::Corrupt,
                    message: format!("pageout {id} failed its checksum"),
                });
            }
            let stored = shared.store.lock().insert(scope.scope(id), page);
            if stored {
                SessionAction::Reply(Message::PageOutAck {
                    id,
                    hint: shared.hint(),
                })
            } else {
                SessionAction::Reply(Message::Error {
                    code: ErrorCode::OutOfMemory,
                    message: format!("out of memory storing {id}"),
                })
            }
        }
        Message::PageIn { id } => {
            // Bound first: the store hands out a reference to the page,
            // and the lock is gone before the sum is taken over it.
            let stored = shared.store.lock().get(scope.scope(id));
            match stored {
                // The checksum is recomputed over the *stored* bytes, so a
                // client comparing it against the writer's checksum detects
                // store-level corruption, not just wire damage.
                Some(page) => SessionAction::Reply(Message::PageInReply {
                    id,
                    checksum: page.checksum(),
                    page,
                }),
                None => SessionAction::Reply(Message::PageInMiss { id }),
            }
        }
        Message::Free { id } => {
            shared.store.lock().remove(scope.scope(id));
            SessionAction::Reply(Message::FreeAck { id })
        }
        Message::LoadQuery => {
            let (free, stored) = {
                let store = shared.store.lock();
                let (lo, hi) = scope.range();
                (
                    store.hard_capacity().saturating_sub(store.stored()) as u64,
                    store.count_range(lo, hi) as u64,
                )
            };
            let measured = busy_permille(shared);
            SessionAction::Reply(Message::LoadReport {
                free_pages: free,
                stored_pages: stored,
                cpu_permille: measured
                    .saturating_add(shared.config.simulated_cpu_permille)
                    .min(1000),
                hint: shared.hint(),
            })
        }
        Message::ListPages { start, limit } => {
            let (_, end) = scope.range();
            let (ids, more) =
                shared
                    .store
                    .lock()
                    .list_range(scope.scope(start), end, limit as usize);
            let ids = ids.into_iter().map(|k| scope.unscope(k)).collect();
            SessionAction::Reply(Message::ListPagesReply { ids, more })
        }
        Message::PageOutDelta { id, checksum, page } => {
            if page.checksum() != checksum {
                return SessionAction::Reply(Message::Error {
                    code: ErrorCode::Corrupt,
                    message: format!("pageout delta {id} failed its checksum"),
                });
            }
            // Bind the result first: holding the store lock across the
            // `hint()` call below would self-deadlock — and the XOR is
            // taken outside it.
            let replaced = shared.store.lock().replace(scope.scope(id), page.clone());
            match replaced {
                Some(old) => SessionAction::Reply(Message::PageOutDeltaReply {
                    id,
                    delta: crate::store::delta_of(old, page),
                    hint: shared.hint(),
                }),
                None => SessionAction::Reply(Message::Error {
                    code: ErrorCode::OutOfMemory,
                    message: format!("out of memory storing {id}"),
                }),
            }
        }
        Message::XorInto { id, page } => {
            let stored = shared.store.lock().xor_into(scope.scope(id), &page);
            if stored {
                SessionAction::Reply(Message::XorAck { id })
            } else {
                SessionAction::Reply(Message::Error {
                    code: ErrorCode::OutOfMemory,
                    message: format!("out of memory creating parity {id}"),
                })
            }
        }
        Message::GetStats => {
            let json = stats_json(shared);
            // The stats reply rides the page-sized wire frame; a registry
            // that somehow outgrows it degrades to a typed stub rather
            // than an encode error.
            let json = if json.len() > rmp_proto::MAX_STATS_JSON {
                "{\"schema\": \"rmp-server-v1\", \"error\": \"stats exceed frame size\"}".into()
            } else {
                json
            };
            SessionAction::Reply(Message::StatsReply { json })
        }
        Message::InjectCrash => SessionAction::Crash,
        Message::Shutdown => SessionAction::Close,
        // Replies arriving as requests are protocol violations.
        other => SessionAction::Reply(Message::Error {
            code: ErrorCode::Internal,
            message: format!("unexpected request {:?}", other.opcode()),
        }),
    }
}

/// Renders the server's metrics as the `rmp-server-v1` JSON document,
/// syncing the occupancy gauges from the store first.
fn stats_json(shared: &Shared) -> String {
    let (stored, grantable, capacity) = {
        let store = shared.store.lock();
        (
            store.stored() as u64,
            store.grantable() as u64,
            store.hard_capacity() as u64,
        )
    };
    let registry = &shared.metrics.registry;
    registry.gauge("server_stored_pages").set(stored);
    registry.gauge("server_grantable_frames").set(grantable);
    registry.gauge("server_capacity_pages").set(capacity);
    registry
        .gauge("server_active_sessions")
        .set(shared.sessions.lock().len() as u64);
    registry
        .gauge("server_cpu_permille")
        .set(u64::from(busy_permille(shared)));
    format!(
        "{{\"schema\": \"rmp-server-v1\", \"metrics\": {}}}",
        registry.snapshot_json()
    )
}

fn busy_permille(shared: &Shared) -> u16 {
    let wall = shared.started.elapsed().as_nanos() as u64;
    if wall == 0 {
        return 0;
    }
    let busy = shared.busy_nanos.load(Ordering::Relaxed);
    ((busy.saturating_mul(1000)) / wall).min(1000) as u16
}

fn crash_now(shared: &Shared) {
    shared.crashed.store(true, Ordering::SeqCst);
    shared.store.lock().clear();
    give_back_freed_memory();
    for (_, s) in shared.sessions.lock().drain() {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

/// Returns the memory a crash freed to the operating system, as a crashed
/// workstation's would be. The lost pages were allocated by session
/// threads that the crash ends; glibc keeps at most eight allocator arenas
/// a core and deals them out to new threads in turn, so the restarted
/// server's sessions store their pages in other arenas, and the lost ones
/// would otherwise stay resident as holes between the pages of sessions
/// that share those arenas — a heap that grows with every crash.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn give_back_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and may run at any time; it
    // only hands free pages of the heap back to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn give_back_freed_memory() {}

/// Handle to a running [`MemoryServer`]; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injects a workstation crash: all stored pages are lost and every
    /// client connection is severed. New connections are refused until
    /// [`ServerHandle::restart`].
    pub fn crash(&self) {
        crash_now(&self.shared);
    }

    /// Returns `true` when the server has crashed.
    pub fn is_crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::SeqCst)
    }

    /// Brings a crashed server back empty (a rebooted workstation rejoins
    /// the pool with no pages).
    pub fn restart(&self) {
        self.shared.store.lock().clear();
        self.shared.crashed.store(false, Ordering::SeqCst);
    }

    /// Simulates native memory demand on the host, shrinking what the
    /// server can promise to clients.
    pub fn set_native_usage(&self, pages: usize) {
        self.shared.store.lock().set_native_usage(pages);
    }

    /// Injects a gray failure: every subsequent request stalls for
    /// `delay` before being served — correctly, but slowly. Pass
    /// `Duration::ZERO` to restore normal service. Unlike
    /// [`ServerHandle::crash`], no state is lost and no connection is
    /// severed; this is the failure mode the client's suspicion detector
    /// (not its crash handling) must absorb.
    pub fn set_stall(&self, delay: std::time::Duration) {
        self.shared.stall_nanos.store(
            delay.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }

    /// Pages currently stored (all clients).
    pub fn stored_pages(&self) -> usize {
        self.shared.store.lock().stored()
    }

    /// Bytes of the pages currently stored (all clients), an
    /// erasure-coded unit at its `PAGE_SIZE / k`.
    pub fn stored_bytes(&self) -> usize {
        self.shared.store.lock().stored_bytes()
    }

    /// Requests served since start.
    pub fn served_requests(&self) -> u64 {
        self.shared.served_requests.load(Ordering::Relaxed)
    }

    /// Client connections currently tracked; entries are pruned as their
    /// session threads exit, so this stays bounded by the number of
    /// *live* clients rather than growing with every client ever seen.
    pub fn active_sessions(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Session threads alive: at most `max_sessions`. Unlike
    /// [`ServerHandle::active_sessions`], a crash does not zero it; its
    /// threads leave as they notice.
    pub fn worker_threads(&self) -> usize {
        self.shared.session_threads.load(Ordering::SeqCst)
    }

    /// Connections refused with a typed `Overloaded` error because every
    /// session was taken or no session thread could be started.
    pub fn refused_connections(&self) -> u64 {
        self.shared.metrics.refused_connections.get()
    }

    /// Fraction of wall time spent servicing requests — the server CPU
    /// utilization of Section 4.5 (measured < 15 % in the paper).
    pub fn busy_fraction(&self) -> f64 {
        busy_permille(&self.shared) as f64 / 1000.0
    }

    /// The server's metrics as the same `rmp-server-v1` JSON document a
    /// client receives over the wire from a `GetStats` request.
    pub fn metrics_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Stops the server and joins the listener thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Severed sessions end their threads.
        for (_, s) in self.shared.sessions.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.listener_thread.is_some() {
            self.shutdown_in_place();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmp_types::{Page, StoreKey};

    fn connect(handle: &ServerHandle) -> Framed<TcpStream> {
        Framed::new(TcpStream::connect(handle.addr()).expect("connect"))
    }

    fn page_out(id: StoreKey, page: Page) -> Message {
        Message::PageOut {
            id,
            checksum: page.checksum(),
            page,
        }
    }

    fn small_server() -> ServerHandle {
        MemoryServer::spawn(ServerConfig {
            capacity_pages: 8,
            overflow_fraction: 0.0,
            ..ServerConfig::default()
        })
        .expect("spawn")
    }

    #[test]
    fn alloc_pageout_pagein_cycle() {
        let server = small_server();
        let mut c = connect(&server);
        let reply = c.call(&Message::Alloc { pages: 4 }).expect("alloc");
        assert!(matches!(reply, Message::AllocReply { granted: 4, .. }));
        let page = Page::deterministic(11);
        let reply = c
            .call(&page_out(StoreKey(1), page.clone()))
            .expect("pageout");
        assert!(matches!(reply, Message::PageOutAck { .. }));
        let reply = c
            .call(&Message::PageIn { id: StoreKey(1) })
            .expect("pagein");
        match reply {
            Message::PageInReply {
                id,
                checksum,
                page: got,
            } => {
                assert_eq!(id, StoreKey(1));
                assert_eq!(checksum, page.checksum());
                assert_eq!(got, page);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn missing_page_is_a_miss() {
        let server = small_server();
        let mut c = connect(&server);
        let reply = c.call(&Message::PageIn { id: StoreKey(99) }).expect("call");
        assert!(matches!(reply, Message::PageInMiss { .. }));
        server.shutdown();
    }

    #[test]
    fn allocation_denied_when_exhausted() {
        let server = small_server();
        let mut c = connect(&server);
        let Message::AllocReply { granted, .. } =
            c.call(&Message::Alloc { pages: 100 }).expect("alloc")
        else {
            panic!("expected AllocReply");
        };
        assert_eq!(granted, 8, "capped at capacity");
        let Message::AllocReply { granted, .. } =
            c.call(&Message::Alloc { pages: 1 }).expect("alloc")
        else {
            panic!("expected AllocReply");
        };
        assert_eq!(granted, 0, "denied");
        server.shutdown();
    }

    #[test]
    fn pageout_beyond_capacity_errors() {
        let server = small_server();
        let mut c = connect(&server);
        for i in 0..8u64 {
            c.call(&page_out(StoreKey(i), Page::zeroed()))
                .expect("fits");
        }
        let err = c.call(&page_out(StoreKey(8), Page::zeroed()));
        assert!(err.is_err(), "hard capacity enforced");
        server.shutdown();
    }

    #[test]
    fn crash_drops_pages_and_severs_connections() {
        let server = small_server();
        let mut c = connect(&server);
        c.call(&page_out(StoreKey(1), Page::filled(1)))
            .expect("store");
        assert_eq!(server.stored_pages(), 1);
        server.crash();
        assert!(server.is_crashed());
        assert_eq!(server.stored_pages(), 0);
        // The live connection is dead.
        let res = c.call(&Message::PageIn { id: StoreKey(1) });
        assert!(res.is_err());
        // New connections are refused (dropped immediately → EOF on recv).
        if let Ok(stream) = TcpStream::connect(server.addr()) {
            let mut c2 = Framed::new(stream);
            assert!(c2.call(&Message::LoadQuery).is_err());
        }
        server.shutdown();
    }

    #[test]
    fn inject_crash_message_triggers_crash() {
        let server = small_server();
        let mut c = connect(&server);
        c.send(&Message::InjectCrash).expect("send");
        // The server replies nothing and severs the connection.
        assert!(c.recv().is_err());
        assert!(server.is_crashed());
        server.shutdown();
    }

    #[test]
    fn restart_brings_server_back_empty() {
        let server = small_server();
        let mut c = connect(&server);
        c.call(&page_out(StoreKey(1), Page::filled(1)))
            .expect("store");
        server.crash();
        server.restart();
        let mut c2 = connect(&server);
        let reply = c2.call(&Message::PageIn { id: StoreKey(1) }).expect("call");
        assert!(
            matches!(reply, Message::PageInMiss { .. }),
            "state was lost"
        );
        server.shutdown();
    }

    #[test]
    fn load_report_reflects_usage_and_simulated_cpu() {
        let server = MemoryServer::spawn(ServerConfig {
            capacity_pages: 10,
            overflow_fraction: 0.0,
            simulated_cpu_permille: 300,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let mut c = connect(&server);
        c.call(&page_out(StoreKey(1), Page::zeroed()))
            .expect("store");
        let Message::LoadReport {
            free_pages,
            stored_pages,
            cpu_permille,
            ..
        } = c.call(&Message::LoadQuery).expect("query")
        else {
            panic!("expected LoadReport");
        };
        assert_eq!(stored_pages, 1);
        assert_eq!(free_pages, 9);
        assert!(cpu_permille >= 300);
        server.shutdown();
    }

    #[test]
    fn advisory_hints_escalate_with_pressure() {
        let server = MemoryServer::spawn(ServerConfig {
            capacity_pages: 4,
            overflow_fraction: 0.0,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let mut c = connect(&server);
        let Message::AllocReply { hint, .. } = c.call(&Message::Alloc { pages: 4 }).expect("alloc")
        else {
            panic!()
        };
        assert_eq!(hint, LoadHint::Ok, "empty store");
        for i in 0..4u64 {
            c.call(&page_out(StoreKey(i), Page::zeroed()))
                .expect("store");
        }
        let Message::LoadReport { hint, .. } = c.call(&Message::LoadQuery).expect("query") else {
            panic!()
        };
        assert_eq!(hint, LoadHint::StopSending, "full and nothing grantable");
        server.shutdown();
    }

    #[test]
    fn delta_and_xor_ops_work_over_the_wire() {
        let server = small_server();
        let mut c = connect(&server);
        let old = Page::deterministic(1);
        let new = Page::deterministic(2);
        let Message::PageOutDeltaReply { delta, .. } = c
            .call(&Message::PageOutDelta {
                id: StoreKey(7),
                checksum: old.checksum(),
                page: old.clone(),
            })
            .expect("first delta store")
        else {
            panic!()
        };
        assert_eq!(delta, old, "no previous version");
        let Message::PageOutDeltaReply { delta, .. } = c
            .call(&Message::PageOutDelta {
                id: StoreKey(7),
                checksum: new.checksum(),
                page: new.clone(),
            })
            .expect("second delta store")
        else {
            panic!()
        };
        let mut expect = old.clone();
        expect.xor_with(&new);
        assert_eq!(delta, expect);
        // Parity accumulate.
        let Message::XorAck { id } = c
            .call(&Message::XorInto {
                id: StoreKey(100),
                page: delta.clone(),
            })
            .expect("xor")
        else {
            panic!()
        };
        assert_eq!(id, StoreKey(100));
        let Message::PageInReply { page, .. } = c
            .call(&Message::PageIn { id: StoreKey(100) })
            .expect("fetch")
        else {
            panic!()
        };
        assert_eq!(page, delta);
        server.shutdown();
    }

    #[test]
    fn list_pages_paginates() {
        let server = small_server();
        let mut c = connect(&server);
        for i in [3u64, 1, 5] {
            c.call(&page_out(StoreKey(i), Page::zeroed()))
                .expect("store");
        }
        let Message::ListPagesReply { ids, more } = c
            .call(&Message::ListPages {
                start: StoreKey(0),
                limit: 2,
            })
            .expect("list")
        else {
            panic!()
        };
        assert_eq!(ids, vec![StoreKey(1), StoreKey(3)]);
        assert!(more);
        server.shutdown();
    }

    #[test]
    fn get_stats_reports_requests_and_occupancy() {
        let server = small_server();
        let mut c = connect(&server);
        c.call(&page_out(StoreKey(1), Page::deterministic(5)))
            .expect("store");
        c.call(&Message::PageIn { id: StoreKey(1) }).expect("read");
        let Message::StatsReply { json } = c.call(&Message::GetStats).expect("stats") else {
            panic!("expected StatsReply");
        };
        assert!(json.starts_with("{\"schema\": \"rmp-server-v1\""), "{json}");
        for name in [
            "server_requests_total",
            "server_pageouts_total",
            "server_pageins_total",
            "server_request_latency_us",
            "server_stored_pages",
            "server_grantable_frames",
            "server_capacity_pages",
            "server_active_sessions",
        ] {
            assert!(json.contains(name), "missing {name} in {json}");
        }
        assert!(
            json.contains("\"server_stored_pages\": 1"),
            "occupancy gauge synced: {json}"
        );
        assert!(!server.metrics_json().is_empty());
        server.shutdown();
    }

    #[test]
    fn pipelined_batches_answer_in_order() {
        let server = MemoryServer::spawn(ServerConfig {
            capacity_pages: 64,
            overflow_fraction: 0.0,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let mut c = connect(&server);
        for key in (0..16u64).filter(|&key| key != 9) {
            c.call(&page_out(StoreKey(key), Page::deterministic(key)))
                .expect("store");
        }
        // Write several bare frames before reading any reply: a pipelined
        // client without seq envelopes matches replies by order alone.
        for key in 0..16u64 {
            c.send(&Message::PageIn { id: StoreKey(key) })
                .expect("send");
        }
        for key in 0..16u64 {
            match c.recv().expect("recv") {
                Message::PageInReply { id, checksum, page } if key != 9 => {
                    assert_eq!(id, StoreKey(key), "replies come in request order");
                    assert_eq!(page, Page::deterministic(key));
                    assert_eq!(checksum, page.checksum());
                }
                Message::PageInMiss { id } if key == 9 => {
                    assert_eq!(id, StoreKey(9), "an absent key is a miss in its place");
                }
                other => panic!("key {key}: unexpected {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn unexpected_request_yields_error_reply() {
        let server = small_server();
        let mut c = connect(&server);
        let res = c.call(&Message::FreeAck { id: StoreKey(0) });
        assert!(res.is_err());
        server.shutdown();
    }

    #[test]
    fn corrupt_pageout_is_rejected_with_typed_code() {
        let server = small_server();
        let mut c = connect(&server);
        let page = Page::deterministic(3);
        let bad = Message::PageOut {
            id: StoreKey(1),
            checksum: page.checksum() ^ 1, // Claim a checksum the page fails.
            page,
        };
        let err = c.call(&bad).expect_err("rejected");
        assert!(
            matches!(
                err,
                RmpError::Remote {
                    code: ErrorCode::Corrupt,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert_eq!(server.stored_pages(), 0, "corrupt page never stored");
        server.shutdown();
    }

    #[test]
    fn closed_sessions_are_pruned() {
        let server = small_server();
        for _ in 0..5 {
            let mut c = connect(&server);
            c.call(&Message::LoadQuery).expect("query");
            drop(c);
        }
        // Session threads notice the hangup asynchronously; poll briefly.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while server.active_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(
            server.active_sessions(),
            0,
            "disconnected clients must not accumulate"
        );
        server.shutdown();
    }

    fn poll_until(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + std::time::Duration::from_secs(secs);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn crash_severs_every_tracked_session() {
        // Regression for the untracked-session bug: a session served
        // without a `sessions` entry survived `crash_now`, so a client
        // saw a live server after a simulated crash. Every concurrently
        // served connection must now be tracked — and severed.
        let server = MemoryServer::spawn(ServerConfig {
            capacity_pages: 64,
            overflow_fraction: 0.0,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let mut clients: Vec<_> = (0..6).map(|_| connect(&server)).collect();
        for c in &mut clients {
            c.call(&Message::LoadQuery).expect("served before crash");
        }
        assert!(
            poll_until(5, || server.active_sessions() == 6),
            "all served sessions are tracked, got {}",
            server.active_sessions()
        );
        server.crash();
        for (i, c) in clients.iter_mut().enumerate() {
            assert!(
                c.call(&Message::LoadQuery).is_err(),
                "client {i} still talking to a crashed server"
            );
        }
        server.shutdown();
    }

    fn one_session_server() -> ServerHandle {
        MemoryServer::spawn(ServerConfig {
            capacity_pages: 64,
            overflow_fraction: 0.0,
            max_sessions: 1,
            ..ServerConfig::default()
        })
        .expect("spawn")
    }

    /// What a connection the server never served hears first, as the
    /// error a call would surface.
    fn first_word(stream: TcpStream) -> Result<Message> {
        match Framed::new(stream).recv()? {
            Message::Error { code, message } => Err(RmpError::Remote { code, message }),
            other => Ok(other),
        }
    }

    #[test]
    fn a_connection_past_max_sessions_is_refused_at_once() {
        let server = one_session_server();
        let mut busy = connect(&server);
        busy.call(&Message::LoadQuery).expect("the one session");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let patience = std::time::Duration::from_secs(1);
        stream.set_read_timeout(Some(patience)).expect("timeout");
        let start = Instant::now();
        let heard = first_word(stream);
        assert!(
            matches!(
                heard,
                Err(RmpError::Remote {
                    code: ErrorCode::Overloaded,
                    ..
                })
            ),
            "expected a typed Overloaded refusal, got {heard:?}"
        );
        assert!(start.elapsed() < patience / 2, "took {:?}", start.elapsed());
        assert_eq!(server.refused_connections(), 1);
        server.shutdown();
    }

    #[test]
    fn connection_storm_degrades_with_typed_refusals() {
        // One session: every connection beside it is refused with a typed
        // Overloaded error — none waits, none gets a thread.
        let server = one_session_server();
        let mut busy = connect(&server);
        busy.call(&Message::LoadQuery)
            .expect("first session served");
        let storm: Vec<_> = (0..4)
            .map(|_| TcpStream::connect(server.addr()).expect("connect"))
            .collect();
        for (i, stream) in storm.into_iter().enumerate() {
            let err = first_word(stream).expect_err("saturated server must refuse");
            assert!(
                matches!(
                    &err,
                    RmpError::Remote {
                        code: ErrorCode::Overloaded,
                        ..
                    }
                ),
                "connection {i}: expected a typed Overloaded refusal, got {err:?}"
            );
        }
        assert_eq!(server.refused_connections(), 4);
        assert_eq!(server.worker_threads(), 1, "the ceiling held");
        // The seat comes back when its session ends.
        drop(busy);
        assert!(
            poll_until(5, || server.worker_threads() == 0),
            "the session thread ended"
        );
        connect(&server)
            .call(&Message::LoadQuery)
            .expect("the freed seat serves");
        server.shutdown();
    }

    #[test]
    fn stats_report_worker_gauges() {
        let server = one_session_server();
        let mut c = connect(&server);
        c.call(&Message::LoadQuery).expect("query");
        let refused = TcpStream::connect(server.addr()).expect("connect");
        first_word(refused).expect_err("refused");
        let Message::StatsReply { json } = c.call(&Message::GetStats).expect("stats") else {
            panic!("expected StatsReply");
        };
        for gauge in [
            "\"server_active_sessions\": 1",
            "\"server_refused_connections_total\": 1",
        ] {
            assert!(json.contains(gauge), "missing {gauge} in {json}");
        }
        server.shutdown();
    }

    #[test]
    fn stall_hook_slows_service_without_breaking_it() {
        let server = small_server();
        let mut c = connect(&server);
        c.call(&Message::LoadQuery).expect("healthy baseline");
        server.set_stall(std::time::Duration::from_millis(25));
        let start = Instant::now();
        let page = Page::deterministic(9);
        let reply = c
            .call(&page_out(StoreKey(1), page.clone()))
            .expect("gray server still serves correctly");
        assert!(matches!(reply, Message::PageOutAck { .. }));
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(25),
            "stall was applied"
        );
        let Message::PageInReply { page: got, .. } = c
            .call(&Message::PageIn { id: StoreKey(1) })
            .expect("slow read")
        else {
            panic!("expected PageInReply");
        };
        assert_eq!(got, page, "gray failure degrades latency, never data");
        server.set_stall(std::time::Duration::ZERO);
        c.call(&Message::LoadQuery).expect("recovered");
        assert!(!server.is_crashed(), "a stall is not a crash");
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_capacity() {
        let server = small_server();
        let mut a = connect(&server);
        let mut b = connect(&server);
        let Message::AllocReply { granted: ga, .. } =
            a.call(&Message::Alloc { pages: 6 }).expect("alloc a")
        else {
            panic!()
        };
        let Message::AllocReply { granted: gb, .. } =
            b.call(&Message::Alloc { pages: 6 }).expect("alloc b")
        else {
            panic!()
        };
        assert_eq!(ga, 6);
        assert_eq!(gb, 2, "only 2 frames remained");
        server.shutdown();
    }

    /// Perform the Hello handshake and return the framed stream plus the
    /// granted window.
    fn windowed_connect(handle: &ServerHandle, ask: u32) -> (Framed<TcpStream>, u32) {
        let mut c = connect(handle);
        let reply = c.call(&Message::Hello { window: ask }).expect("hello");
        let Message::HelloReply { window } = reply else {
            panic!("expected HelloReply, got {reply:?}");
        };
        (c, window)
    }

    fn windowed(seq: u32, inner: Message) -> Message {
        Message::Windowed {
            seq,
            inner: Box::new(inner),
        }
    }

    #[test]
    fn hello_grants_window_capped_by_config() {
        let server = MemoryServer::spawn(ServerConfig {
            capacity_pages: 8,
            window_cap: 4,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let (_c, granted) = windowed_connect(&server, 1000);
        assert_eq!(granted, 4, "grant is clamped to the session cap");
        let (_c2, granted) = windowed_connect(&server, 2);
        assert_eq!(granted, 2, "smaller asks pass through");
        server.shutdown();
    }

    #[test]
    fn windowed_round_trip_preserves_seq() {
        let server = small_server();
        let (mut c, granted) = windowed_connect(&server, 8);
        assert!(granted >= 1);
        let page = Page::deterministic(7);
        let reply = c
            .call(&windowed(42, page_out(StoreKey(5), page.clone())))
            .expect("windowed pageout");
        let Message::Windowed { seq, inner } = reply else {
            panic!("expected enveloped reply, got {reply:?}");
        };
        assert_eq!(seq, 42, "reply carries the request seq");
        assert!(matches!(*inner, Message::PageOutAck { .. }));
        let reply = c
            .call(&windowed(43, Message::PageIn { id: StoreKey(5) }))
            .expect("windowed pagein");
        let Message::Windowed { seq, inner } = reply else {
            panic!("expected enveloped reply, got {reply:?}");
        };
        assert_eq!(seq, 43);
        let Message::PageInReply { page: got, .. } = *inner else {
            panic!("expected PageInReply");
        };
        assert_eq!(got, page);
        server.shutdown();
    }

    #[test]
    fn windowed_burst_replies_control_before_data() {
        use std::io::Write;
        let server = small_server();
        let (c, _) = windowed_connect(&server, 8);
        let mut stream = c.into_inner();
        // One write carrying a data op first, then a control op. The
        // windowed loop reorders control ahead of data, so the LoadQuery
        // reply (seq 1) must come back before the PageIn reply (seq 0) —
        // a genuinely out-of-order completion that only the seq tags make
        // legal.
        let mut burst = Vec::new();
        burst.extend_from_slice(&windowed(0, Message::PageIn { id: StoreKey(9) }).encode());
        burst.extend_from_slice(&windowed(1, Message::LoadQuery).encode());
        stream.write_all(&burst).expect("burst write");
        let mut c = Framed::new(stream);
        let first = c.recv().expect("first reply");
        let Message::Windowed { seq, inner } = first else {
            panic!("expected enveloped reply");
        };
        assert_eq!(seq, 1, "control reply overtakes the data op");
        assert!(matches!(*inner, Message::LoadReport { .. }));
        let second = c.recv().expect("second reply");
        let Message::Windowed { seq, inner } = second else {
            panic!("expected enveloped reply");
        };
        assert_eq!(seq, 0);
        assert!(matches!(*inner, Message::PageInMiss { .. }));
        server.shutdown();
    }

    #[test]
    fn windowed_session_survives_many_interleaved_ops() {
        let server = small_server();
        let (mut c, _) = windowed_connect(&server, 16);
        for round in 0..50u64 {
            let key = StoreKey(round % 8);
            let page = Page::deterministic(round);
            let reply = c
                .call(&windowed(round as u32, page_out(key, page)))
                .expect("pageout");
            let Message::Windowed { inner, .. } = reply else {
                panic!("expected enveloped reply");
            };
            assert!(matches!(*inner, Message::PageOutAck { .. }));
        }
        assert_eq!(server.stored_pages(), 8);
        server.shutdown();
    }

    #[test]
    fn crash_severs_windowed_session() {
        let server = small_server();
        let (mut c, _) = windowed_connect(&server, 8);
        c.call(&windowed(0, page_out(StoreKey(1), Page::filled(3))))
            .expect("store");
        server.crash();
        // The next windowed exchange fails: the session is severed.
        let res = c.call(&windowed(1, Message::PageIn { id: StoreKey(1) }));
        assert!(res.is_err(), "crash severs windowed sessions");
        server.shutdown();
    }

    #[test]
    fn enveloped_hello_is_rejected_not_fatal() {
        let server = small_server();
        let (mut c, _) = windowed_connect(&server, 8);
        let reply = c
            .call(&windowed(0, Message::Hello { window: 4 }))
            .expect("call");
        let Message::Windowed { inner, .. } = reply else {
            panic!("expected enveloped reply");
        };
        assert!(
            matches!(*inner, Message::Error { .. }),
            "a second in-band Hello is an error reply, not a session kill"
        );
        // Session still serves afterwards.
        let reply = c.call(&windowed(1, Message::LoadQuery)).expect("still up");
        assert!(matches!(reply, Message::Windowed { .. }));
        server.shutdown();
    }

    #[test]
    fn bare_and_enveloped_frames_interleave_on_one_session() {
        use std::io::Write;
        let server = small_server();
        let (c, _) = windowed_connect(&server, 8);
        let mut stream = c.into_inner();
        let page = Page::deterministic(5);
        let mut burst = Vec::new();
        for frame in [
            page_out(StoreKey(1), page.clone()),
            windowed(7, Message::PageIn { id: StoreKey(1) }),
            Message::LoadQuery,
            windowed(8, Message::LoadQuery),
            Message::Hello { window: 4 },
            Message::PageIn { id: StoreKey(1) },
        ] {
            burst.extend_from_slice(&frame.encode());
        }
        stream.write_all(&burst).expect("burst write");
        let mut c = Framed::new(stream);
        let mut bare = Vec::new();
        for _ in 0..6 {
            match c.recv().expect("reply") {
                // Enveloped replies are matched by seq, wherever they land.
                Message::Windowed { seq: 7, inner } => {
                    let Message::PageInReply { page: got, .. } = *inner else {
                        panic!("seq 7 asked for a page, got {inner:?}");
                    };
                    assert_eq!(got, page, "the read stayed behind the bare write");
                }
                Message::Windowed { seq: 8, inner } => {
                    assert!(matches!(*inner, Message::LoadReport { .. }));
                }
                other => bare.push(other),
            }
        }
        // Bare replies have only their order to be matched by.
        assert!(matches!(bare[0], Message::PageOutAck { .. }), "{bare:?}");
        assert!(matches!(bare[1], Message::LoadReport { .. }), "{bare:?}");
        assert!(
            matches!(bare[2], Message::Error { .. }),
            "a second Hello is a typed error: {bare:?}"
        );
        assert!(matches!(bare[3], Message::PageInReply { .. }), "{bare:?}");
        // ...and not fatal: the session still serves.
        let reply = c.call(&Message::LoadQuery).expect("still up");
        assert!(matches!(reply, Message::LoadReport { .. }));
        server.shutdown();
    }
}
