//! The client's pool of server connections, and each server's standing.
//!
//! What the pool holds of a server's health is its `Standing` — Healthy,
//! Suspect or Dead, on a rung of the retry ladder while an attempt failed
//! and nothing has answered since — and the detector's evidence
//! ([`Health`]). `Peer::step` makes every transition, and
//! `ServerPool::transition` books each, once, into the metrics, the
//! trace, the obituaries and the backoffs. The transitions
//! (`H`, `S`, `D`; "suspects" and "clears" are [`Health::suspects`] and
//! [`Health::clears`] once the event's evidence is in; an event leaves
//! what its rows do not name as it was, and every reply leaves its rung):
//!
//! | event | from | to |
//! |---|---|---|
//! | reply | H, evidence suspects | S |
//! | reply | S or D, evidence clears | H, clean streak restarted |
//! | miss | H | S |
//! | transient failure | any | the next rung |
//! | sibling's rung | H or S, on none or an earlier one | that rung |
//! | typed refusal | any | no rung |
//! | forgiveness | any | H, no rung, no evidence |
//! | verdict | H or S | D, no rung, suspicion at the cap |
//! | verdict | D | no rung |
//!
//! Whatever decides a server's standing reads the pool's [`Clock`]:
//! latencies, the §5 service-time mean, a rung's due time, the call
//! budget and the ladder's wait.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmp_cluster::Registry;
use rmp_proto::{LoadHint, Message};
use rmp_types::metrics::{Counter, EventKind, Gauge, Histogram, MetricsRegistry};
use rmp_types::{ErrorCode, Page, Result, RmpError, ServerId, StoreKey, TransportConfig};

use crate::clock::Clock;
use crate::detector::{ewma, Health, GRAY_SUSPICION, SLOW_MULT, SUSPICION_CAP};
use crate::reactor::{lost_with_its_burst, PendingReplies, WindowedTransport};
use crate::transport::ServerTransport;

/// Floor on the expected reply of a gray server, µs: the way around
/// costs at least one transfer itself.
const GRAY_MIN_EXPECTED_US: f64 = 500.0;

/// Frames requested per allocation round-trip; the client consumes the
/// grant locally so most pageouts need no extra allocation message. A
/// server's grants held plus those asked for never exceed it: below half
/// of it a reservation asks ahead of need for the rest
/// ([`ServerPool::reserve_frame`]).
const ALLOC_CHUNK: u32 = 64;

/// Pages per chunk of a rebuild, a migration or the parity log's
/// clean-up: what is read in one gather — one plain read a page, all on
/// the wire at once, a burst per holder — and, for a rebuild, stored in
/// one wave, before the next chunk is touched. It bounds what the client
/// holds of such work at a time, and is the most pageouts a shard keeps
/// landing behind their callers (within a request window).
pub const CHUNK_PAGES: usize = 16;

/// Pre-resolved metric handles for the pool's hot call path: registered
/// once in [`ServerPool::set_metrics`], recorded lock-free thereafter.
/// Metric names are catalogued in `OBSERVABILITY.md`.
struct PoolMetrics {
    registry: Arc<MetricsRegistry>,
    calls: Arc<Counter>,
    /// Waves put on the wire by [`ServerPool::scatter`], and the frames
    /// they carried; legs ÷ waves is the fan-out a wave buys.
    scatters: Arc<Counter>,
    scatter_legs: Arc<Counter>,
    call_errors: Arc<Counter>,
    retries: Arc<Counter>,
    suspect_transitions: Arc<Counter>,
    deaths: Arc<Counter>,
    reconnects: Arc<Counter>,
    wire_transfers: Arc<Counter>,
    /// Sum of in-flight windowed frames across all connections, each as
    /// of the pool's last exchange with it.
    window_depth: Arc<Gauge>,
    /// Submissions that found a request window full and had to wait.
    window_stalls: Arc<Counter>,
    /// Reservations that found no grant and waited on the wire for one,
    /// and the allocations asked for ahead of need.
    grant_waits: Arc<Counter>,
    grant_refills: Arc<Counter>,
    call_latency: Arc<Histogram>,
}

impl PoolMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        PoolMetrics {
            calls: registry.counter("pool_calls_total"),
            scatters: registry.counter("pool_scatters_total"),
            scatter_legs: registry.counter("pool_scatter_legs_total"),
            call_errors: registry.counter("pool_call_errors_total"),
            retries: registry.counter("pool_retries_total"),
            suspect_transitions: registry.counter("pool_suspect_transitions_total"),
            deaths: registry.counter("pool_deaths_total"),
            reconnects: registry.counter("pool_reconnects_total"),
            wire_transfers: registry.counter("pool_wire_transfers_total"),
            window_depth: registry.gauge("pool_window_depth"),
            window_stalls: registry.counter("pool_window_stalls_total"),
            grant_waits: registry.counter("pool_grant_waits_total"),
            grant_refills: registry.counter("pool_grant_refills_total"),
            call_latency: registry.histogram("pool_call_latency_us"),
            registry,
        }
    }
}

/// Where one server stands with this pool (see the module docs' table):
/// trusted — on a rung only when told of a sibling pool's; suspected —
/// it answers and holds its pages, but new pages go elsewhere; or held
/// dead — read around, on a rung while a caller with no other way walks
/// the ladder to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Standing {
    Healthy(Option<Rung>),
    Suspect(Option<Rung>),
    Dead(Option<Rung>),
}

impl Standing {
    fn rung(self) -> Option<Rung> {
        match self {
            Standing::Healthy(rung) | Standing::Suspect(rung) | Standing::Dead(rung) => rung,
        }
    }

    /// The same standing on `rung`.
    fn on(self, rung: Option<Rung>) -> Standing {
        match self {
            Standing::Healthy(_) => Standing::Healthy(rung),
            Standing::Suspect(_) => Standing::Suspect(rung),
            Standing::Dead(_) => Standing::Dead(rung),
        }
    }
}

/// What happened to a server (see the module docs' table): an answer,
/// so many µs after leaving, with page data or not; a deadline miss or a
/// lost connection, so many µs in coming; a transient failure — why, and
/// whether a deadline or an overload — whose next rung is due a backoff
/// from now; a sibling pool's rung; a typed refusal; a forgiveness; a
/// verdict, why on the trace.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    Reply(f64, bool),
    Miss(f64),
    Rung(Duration, &'static str, bool),
    Told(Rung),
    Refused,
    Forgiven,
    Verdict(&'static str),
}

/// Everything the pool keeps about one server, in one place so that no
/// transition can reset part of it and forget the rest.
struct Peer {
    transport: Box<dyn ServerTransport>,
    /// Where to redial; `None` for a transport handed in ready-made.
    addr: Option<String>,
    /// Frames the server granted that no pageout has consumed yet.
    grants: u32,
    /// The `Alloc` asked ahead of need, at most one: booked by the first
    /// reservation that finds its reply in, or waited for by one that
    /// finds no grant left.
    refill: Option<Flight>,
    /// The transport's (cumulative) window stalls already mirrored into
    /// `pool_window_stalls_total`.
    stalls_seen: u64,
    /// The in-flight frames of this connection at the pool's last
    /// exchange with it: its share of `pool_window_depth`.
    depth_seen: u64,
    /// `pool_call_latency_us{srvN}`, resolved on first use so only
    /// servers that take traffic appear.
    latency: Option<Arc<Histogram>>,
    standing: Standing,
    health: Health,
    /// `detector_suspicion{srvN}`: the score × 1000.
    suspicion: Option<Arc<Gauge>>,
    /// What the server last said of its memory: the free frames of its
    /// last `LoadReport` (0 until the first), and the hint of its last
    /// reply that carried one. Neither moves its standing.
    free_pages: u64,
    hint: LoadHint,
    /// The registry's relative cost of the link to it (§5).
    link_cost: f64,
}

/// A rung of the retry ladder (see [`ServerPool::ladder`]): `failed`
/// attempts in a row, the next due at `due` — a jittered backoff after
/// the last — and the verdict a timeout if a deadline miss or an overload
/// was among them. `why` the last failed goes on the next one's trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Rung {
    failed: u32,
    due: Instant,
    timed_out: bool,
    why: &'static str,
}

impl Peer {
    fn new(transport: Box<dyn ServerTransport>, addr: Option<String>, link_cost: f64) -> Self {
        Peer {
            transport,
            addr,
            grants: 0,
            refill: None,
            stalls_seen: 0,
            depth_seen: 0,
            latency: None,
            standing: Standing::Healthy(None),
            health: Health::default(),
            suspicion: None,
            free_pages: 0,
            hint: LoadHint::Ok,
            link_cost,
        }
    }

    /// Where the server ranks for new pages, best first: trusted and
    /// unloaded, trusted under pressure, suspected; `None` — never —
    /// when held dead or asked to stop sending.
    fn rank(&self) -> Option<u8> {
        match (self.standing, self.hint) {
            (Standing::Dead(_), _) | (_, LoadHint::StopSending) => None,
            (Standing::Healthy(_), LoadHint::Ok) => Some(0),
            (Standing::Healthy(_), LoadHint::Pressure) => Some(1),
            (Standing::Suspect(_), _) => Some(2),
        }
    }

    /// Free memory per unit of link cost: the promise of a server within
    /// its rank.
    fn promise(&self) -> f64 {
        self.free_pages as f64 / self.link_cost.max(1e-9)
    }

    /// Makes the transition `event` makes at `now`; returns the standing
    /// it left.
    fn step(&mut self, event: Event, now: Instant) -> Standing {
        let was = self.standing;
        let rung = was.rung();
        self.standing = match event {
            Event::Reply(us, data) => {
                self.health.on_reply(us, data);
                self.judged(was.on(None))
            }
            Event::Miss(us) => {
                self.health.on_miss(us);
                self.judged(was)
            }
            Event::Rung(backoff, why, timed_out) => was.on(Some(Rung {
                failed: rung.map_or(0, |rung| rung.failed) + 1,
                due: now + backoff,
                timed_out: timed_out || rung.is_some_and(|rung| rung.timed_out),
                why,
            })),
            Event::Told(theirs) => match (was, rung) {
                (Standing::Dead(_), _) => was,
                (_, Some(mine)) if mine.failed >= theirs.failed => was,
                _ => was.on(Some(theirs)),
            },
            Event::Refused => was.on(None),
            Event::Forgiven => {
                self.health = Health::default();
                self.hint = LoadHint::Ok;
                Standing::Healthy(None)
            }
            Event::Verdict(_) => {
                if !matches!(was, Standing::Dead(_)) {
                    // A rejoin starts from maximum distrust, and no history.
                    self.health = Health::default();
                    self.health.suspicion = SUSPICION_CAP;
                }
                Standing::Dead(None)
            }
        };
        was
    }

    /// The hysteresis band: evidence that suspects a trusted server makes
    /// it Suspect; evidence that clears a suspected or dead one trusts it
    /// again, and its clean streak starts over.
    fn judged(&mut self, standing: Standing) -> Standing {
        match standing {
            Standing::Healthy(rung) if self.health.suspects() => Standing::Suspect(rung),
            Standing::Suspect(rung) | Standing::Dead(rung) if self.health.clears() => {
                self.health.clean_data_streak = 0;
                Standing::Healthy(rung)
            }
            standing => standing,
        }
    }

    /// Drops what was learnt over the connection: grants, and the refill
    /// asked for, never survive a redial, a restart or a death. The stall
    /// baseline restarts only with the transport's own counters — on a
    /// `new_connection` — or `publish_window_stats` would swallow stalls
    /// or count them twice.
    fn reset(&mut self, new_connection: bool) {
        self.grants = 0;
        self.refill = None;
        if new_connection {
            self.stalls_seen = 0;
        }
    }
}

/// What [`ServerPool::may_read`] says of a holder: dial it, or not — it
/// is dead, on a rung (for a demand read, one not due yet), or gray.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Readable {
    Yes,
    Dead,
    BackingOff,
    Gray,
}

/// Adds `id` to `list` unless it is there.
fn note(list: &mut Vec<ServerId>, id: ServerId) {
    if !list.contains(&id) {
        list.push(id);
    }
}

/// Whether `e` is the kind of failure the retry ladder exists for — a
/// deadline miss, a broken connection, an admission-control refusal —
/// rather than an answer.
fn is_transient(e: &RmpError) -> bool {
    e.is_timeout() || e.is_server_failure() || e.is_overload()
}

/// One server's share of a [`Wave`]: the frames it was sent as one burst
/// and the replies it owes.
struct Burst {
    server: ServerId,
    /// This burst's frames, as positions in the wave's grouped order.
    at: Range<usize>,
    /// When it was submitted, and once it has been written, when it was:
    /// the wall-clock instant its read deadline, its latency and the
    /// retry budget count from.
    sent: Instant,
    /// The handle on the burst's replies, or why it never left; `None`
    /// while the server backs off: the burst leaves when collected.
    pending: Option<Result<PendingReplies>>,
}

impl Burst {
    /// Sends the burst if its connection holds it, and notes when it left.
    fn depart(&mut self) {
        self.sent = depart(&self.pending, self.sent);
    }
}

/// Sends `pending` if its connection holds it, and returns when it left:
/// when it was `submitted`, or the write that sent it, if later.
fn depart(pending: &Option<Result<PendingReplies>>, submitted: Instant) -> Instant {
    match pending {
        Some(Ok(pending)) => pending.push().map_or(submitted, |at| at.max(submitted)),
        _ => submitted,
    }
}

/// Requests on the wire to several servers at once: a
/// [`ServerPool::scatter`] between its halves (for a gather,
/// [`ServerPool::begin_page_in_wave`] and
/// [`ServerPool::finish_page_in_wave`]). Dropping it abandons the
/// replies.
pub struct Wave {
    /// The caller's leg indices grouped by server — servers in order of
    /// first appearance, a server's legs in the caller's order.
    order: Vec<usize>,
    /// The requests, in `order`.
    msgs: Vec<Message>,
    bursts: Vec<Burst>,
    /// The read timeout: each burst's deadline is this long after it left.
    timeout: Duration,
}

impl Wave {
    /// Sends every burst its connection holds.
    pub(crate) fn push(&self) {
        for burst in &self.bursts {
            depart(&burst.pending, burst.sent);
        }
    }

    /// Blocks until every reply is in or the read deadline passes,
    /// taking none: the collecting half then does not wait, so a caller
    /// that parks first can hold no lock meanwhile. Every burst leaves
    /// before the first wait: one still held would wait out the replies
    /// of those before it.
    pub fn park(&self) {
        self.push();
        for burst in &self.bursts {
            if let Some(Ok(pending)) = &burst.pending {
                pending.park(depart(&burst.pending, burst.sent) + self.timeout);
            }
        }
    }
}

/// One frame on the wire to one server — a wave of one that allocates
/// nothing — between [`ServerPool::begin_page_in`] or
/// [`ServerPool::begin_page_out`] and its `finish`. Dropping it abandons
/// the reply.
pub struct Flight {
    server: ServerId,
    key: StoreKey,
    request: Message,
    /// As [`Burst`]'s.
    sent: Instant,
    /// The read timeout, counted from `sent`.
    timeout: Duration,
    /// The handle on the reply, or why the frame never left; `None` while
    /// the server backs off: the frame leaves when collected.
    pending: Option<Result<PendingReplies>>,
}

impl Flight {
    /// As [`Wave::park`]; a frame that never left is not waited for.
    pub fn park(&self) {
        if let Some(Ok(pending)) = &self.pending {
            pending.park(depart(&self.pending, self.sent) + self.timeout);
        }
    }

    /// As [`Wave::push`].
    pub(crate) fn push(&self) {
        depart(&self.pending, self.sent);
    }

    /// As [`Burst::depart`].
    fn depart(&mut self) {
        self.sent = depart(&self.pending, self.sent);
    }

    /// Whether collecting it will not block: the reply is in, or the
    /// frame never left and will not.
    pub fn is_ready(&self) -> bool {
        ready(&self.pending)
    }

    /// Whether the frame is on the request window: neither refused nor
    /// held back for a server backing off.
    pub fn left(&self) -> bool {
        matches!(self.pending, Some(Ok(_)))
    }

    /// The checksum a store of a whole page carries, computed as its
    /// frame was built; `None` for a stripe unit's, which is not the
    /// page's.
    pub fn stamp(&self) -> Option<u64> {
        stamp(&self.request)
    }

    /// The server and key it reads or writes.
    pub(crate) fn unit(&self) -> (ServerId, StoreKey) {
        (self.server, self.key)
    }
}

/// Whether collecting `pending` will not block.
fn ready(pending: &Option<Result<PendingReplies>>) -> bool {
    match pending {
        Some(pending) => pending.as_ref().map_or(true, PendingReplies::is_ready),
        None => false,
    }
}

/// The checksum `request` carries, if it is the store of a whole page.
fn stamp(request: &Message) -> Option<u64> {
    match request {
        Message::PageOut { checksum, page, .. } if page.is_whole() => Some(*checksum),
        _ => None,
    }
}

/// A wave of stores and frees on the wire, between
/// [`ServerPool::begin_stores`] and [`ServerPool::finish_stores`].
/// Dropping it abandons the replies.
pub struct StoreWave {
    wave: Wave,
    /// The server of each store, in the caller's order.
    takers: Vec<ServerId>,
}

impl StoreWave {
    /// As [`Wave::park`].
    pub fn park(&self) {
        self.wave.park();
    }

    /// As [`Wave::push`].
    pub(crate) fn push(&self) {
        self.wave.push();
    }

    /// As [`Flight::left`], for every burst.
    pub fn left(&self) -> bool {
        (self.wave.bursts.iter()).all(|b| matches!(b.pending, Some(Ok(_))))
    }

    /// As [`Flight::is_ready`], for every burst.
    pub fn is_ready(&self) -> bool {
        self.wave.bursts.iter().all(|b| ready(&b.pending))
    }

    /// As [`Flight::stamp`], for the first store.
    pub fn stamp(&self) -> Option<u64> {
        self.wave.msgs.first().and_then(stamp)
    }
}

/// The typed error for a reply of the wrong kind.
fn unexpected_reply(to: &str, reply: &Message) -> RmpError {
    RmpError::Protocol(format!("unexpected reply to {to}: {:?}", reply.opcode()))
}

/// Connections to every registered server, and what the client knows of
/// each: its standing and its load.
///
/// All wire traffic of the pager funnels through here, the single
/// retry/backoff/reconnect point of the paging path: a transient failure
/// (timeout, dropped connection, overload refusal) puts the server on the
/// next rung of a bounded ladder — Suspect, its next attempt due after an
/// exponentially growing backoff, on a redialled connection if the old
/// one broke — and only when the rungs run out is it declared dead and
/// the error surfaced as [`RmpError::Timeout`] or
/// [`RmpError::ServerCrashed`] (see `ServerPool::ladder`).
pub struct ServerPool {
    peers: BTreeMap<ServerId, Peer>,
    next_key: u64,
    /// Total page-sized transfers (in either direction), for reports.
    wire_transfers: u64,
    /// Decaying mean of every call attempt's service time across the
    /// pool, ms (0 until the first attempt) — the Section 5 signal.
    service_ms: f64,
    /// Deadlines and retry policy applied to every call.
    transport_cfg: TransportConfig,
    /// What every decision about a server's standing reads as now.
    clock: Clock,
    /// xorshift64* state for backoff jitter; deterministic seed keeps
    /// tests reproducible.
    jitter_state: u64,
    /// See [`ServerPool::obituaries`], [`ServerPool::mark_rebuilt`] and
    /// [`ServerPool::backoffs`].
    obituaries: Vec<ServerId>,
    rebuilt: Vec<ServerId>,
    backoffs: Vec<ServerId>,
    /// Observability hooks; `None` (the default) records nothing.
    metrics: Option<PoolMetrics>,
}

impl ServerPool {
    /// Creates an empty pool with default transport deadlines.
    pub fn new() -> Self {
        ServerPool::with_transport_config(TransportConfig::default())
    }

    /// Creates an empty pool with explicit deadlines and retry policy.
    pub fn with_transport_config(transport_cfg: TransportConfig) -> Self {
        ServerPool {
            peers: BTreeMap::new(),
            next_key: 1,
            wire_transfers: 0,
            service_ms: 0.0,
            transport_cfg,
            clock: Clock::Real,
            jitter_state: 0x2545_F491_4F6C_DD1D,
            obituaries: Vec::new(),
            rebuilt: Vec::new(),
            backoffs: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches a metrics registry: every call records its latency
    /// (overall and per server), retries/suspect transitions/deaths bump
    /// counters, and crash/rejoin/retry trace events land in the event
    /// ring. The pager shares its registry with the pool through here.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        // Per-server handles belong to the registry they were resolved in.
        for peer in self.peers.values_mut() {
            peer.latency = None;
            peer.suspicion = None;
        }
        self.metrics = Some(PoolMetrics::new(registry));
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Connects to every server in the registry over TCP with default
    /// deadlines.
    ///
    /// # Errors
    ///
    /// Fails if any server is unreachable.
    pub fn connect(registry: &Registry) -> Result<Self> {
        ServerPool::connect_with(registry, TransportConfig::default())
    }

    /// Connects to every server in the registry over TCP under
    /// `transport_cfg`'s deadlines.
    ///
    /// # Errors
    ///
    /// Fails if any server is unreachable within the connect deadline.
    pub fn connect_with(registry: &Registry, transport_cfg: TransportConfig) -> Result<Self> {
        let mut pool = ServerPool::with_transport_config(transport_cfg);
        for info in registry.iter() {
            let transport = WindowedTransport::connect_with(&info.addr, &pool.transport_cfg)?;
            let peer = Peer::new(Box::new(transport), Some(info.addr.clone()), info.link_cost);
            pool.peers.insert(info.id, peer);
        }
        Ok(pool)
    }

    /// The deadlines and retry policy in force.
    pub fn transport_config(&self) -> &TransportConfig {
        &self.transport_cfg
    }

    /// Replaces the deadlines and retry policy (takes effect on the next
    /// call; existing sockets keep their armed deadlines until redialed).
    pub fn set_transport_config(&mut self, transport_cfg: TransportConfig) {
        self.transport_cfg = transport_cfg;
    }

    /// Adds a server with an already-established transport.
    pub fn add_transport(
        &mut self,
        id: ServerId,
        transport: Box<dyn ServerTransport>,
        link_cost: f64,
    ) {
        self.peers.insert(id, Peer::new(transport, None, link_cost));
    }

    /// Re-establishes the TCP connection to a restarted server and marks
    /// it alive again.
    ///
    /// # Errors
    ///
    /// Fails when the server was not added via [`ServerPool::connect`] (no
    /// known address) or is still unreachable.
    pub fn reconnect(&mut self, id: ServerId) -> Result<()> {
        let addr = self
            .peers
            .get(&id)
            .and_then(|peer| peer.addr.as_deref())
            .ok_or_else(|| RmpError::Config(format!("no known address for {id}")))?;
        let transport = WindowedTransport::connect_with(addr, &self.transport_cfg)?;
        self.replace_transport(id, Box::new(transport));
        if let Some(m) = &self.metrics {
            m.reconnects.inc();
            m.registry.trace(EventKind::Rejoin, Some(id), None, "ok");
        }
        Ok(())
    }

    /// Replaces the transport of a server (test hooks and non-TCP pools).
    pub fn replace_transport(&mut self, id: ServerId, transport: Box<dyn ServerTransport>) {
        match self.peers.entry(id) {
            Entry::Occupied(mut peer) => peer.get_mut().transport = transport,
            Entry::Vacant(slot) => {
                slot.insert(Peer::new(transport, None, 1.0));
            }
        }
        self.forgive(id, true);
    }

    /// Forgives `id` without touching its transport — over an in-process
    /// transport, say, with no socket to redial, whose scripted fault
    /// burst says nothing about its future.
    pub fn absolve(&mut self, id: ServerId) {
        self.forgive(id, false);
    }

    /// Wipes `id`'s slate: connection state, standing, evidence and the
    /// load hint.
    fn forgive(&mut self, id: ServerId, new_connection: bool) {
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.reset(new_connection);
        }
        self.transition(id, Event::Forgiven);
    }

    /// Holds `id` dead from here on — the verdict of crash injection or
    /// of the pager; `why` is the trace detail. A server already held
    /// dead counts one death.
    pub fn declare_dead(&mut self, id: ServerId, why: &'static str) {
        if self.alive(id) {
            self.transition(id, Event::Verdict(why));
        }
    }

    /// Moves `id` by `event` (`Peer::step`) and books what changed — the
    /// metrics, the trace, the obituaries and the backoffs. Nothing else
    /// writes any of them.
    pub(crate) fn transition(&mut self, id: ServerId, event: Event) {
        let now = self.clock.now();
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let (was, m) = (peer.step(event, now), self.metrics.as_ref());
        if let Some(m) = m {
            let gauge = || m.registry.gauge(&format!("detector_suspicion{{{id}}}"));
            let milli = (peer.health.suspicion() * 1000.0) as u64;
            peer.suspicion.get_or_insert_with(gauge).set(milli);
        }
        match (event, was, peer.standing) {
            (Event::Forgiven, _, _) => {
                self.obituaries.retain(|&dead| dead != id);
                self.rebuilt.retain(|&dead| dead != id);
            }
            (Event::Verdict(why), Standing::Healthy(_) | Standing::Suspect(_), _) => {
                peer.reset(false);
                note(&mut self.obituaries, id);
                self.rebuilt.retain(|&dead| dead != id);
                if let Some(m) = m {
                    m.deaths.inc();
                    m.registry.trace(EventKind::Crash, Some(id), None, why);
                }
            }
            (Event::Rung(..), _, _) => note(&mut self.backoffs, id),
            (_, Standing::Healthy(_), Standing::Suspect(_)) => {
                if let Some(m) = m {
                    m.suspect_transitions.inc();
                }
            }
            _ => {}
        }
    }

    /// Whether this pool holds `id` to be alive: registered and not held
    /// dead. A suspected server, or one that asked the client to stop
    /// sending, still serves the pages it holds.
    pub fn alive(&self, id: ServerId) -> bool {
        (self.peers.get(&id)).is_some_and(|peer| !matches!(peer.standing, Standing::Dead(_)))
    }

    /// Whether `id` is alive and has not asked the client to stop sending
    /// it new pages.
    pub fn accepting(&self, id: ServerId) -> bool {
        self.alive(id) && self.peers[&id].hint != LoadHint::StopSending
    }

    /// Whether this pool suspects `id`: it answers and holds its pages,
    /// but new pages go elsewhere while it proves itself.
    pub fn suspected(&self, id: ServerId) -> bool {
        (self.peers.get(&id)).is_some_and(|peer| matches!(peer.standing, Standing::Suspect(_)))
    }

    /// The live servers, ascending.
    pub fn live_servers(&self) -> Vec<ServerId> {
        (self.server_ids().into_iter())
            .filter(|&id| self.alive(id))
            .collect()
    }

    /// The *most promising server* of §2.1 outside `exclude`: of the best
    /// rank — trusted and unloaded, then trusted under pressure, then
    /// suspected; never one held dead or asked to stop sending — the one
    /// with the most free memory per unit of link cost, the lower id on
    /// a tie.
    ///
    /// # Examples
    ///
    /// ```
    /// use rmp_chaos::{ChaosCluster, FaultPlan};
    /// use rmp_server::ServerConfig;
    /// use rmp_types::ServerId;
    ///
    /// // Server 1 has nine times the memory of server 0, over as cheap a link.
    /// let config = |capacity_pages| ServerConfig { capacity_pages, ..Default::default() };
    /// let servers = vec![(config(100), 1.0), (config(900), 1.0)];
    /// let cluster = ChaosCluster::with_servers(servers, FaultPlan::seeded(0));
    /// let mut pool = cluster.pool(&Default::default());
    /// pool.refresh_loads();
    /// assert_eq!(pool.most_promising(&[]), Some(ServerId(1)));
    /// pool.declare_dead(ServerId(1), "crashed");
    /// assert_eq!(pool.most_promising(&[]), Some(ServerId(0)));
    /// ```
    pub fn most_promising(&self, exclude: &[ServerId]) -> Option<ServerId> {
        (self.peers.iter())
            .filter(|(id, _)| !exclude.contains(id))
            .filter_map(|(&id, peer)| Some((peer.rank()?, peer.promise(), id)))
            .min_by(|a, b| {
                let promise = b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal);
                a.0.cmp(&b.0).then(promise).then(a.2.cmp(&b.2))
            })
            .map(|(_, _, id)| id)
    }

    /// The migration target search of §2.1 ("the client will try to find
    /// another server having enough free memory"): of the trusted,
    /// unloaded servers outside `exclude` with at least `needed_pages`
    /// free, the one with the most, the lower id on a tie.
    pub fn server_with_capacity(
        &self,
        needed_pages: u64,
        exclude: &[ServerId],
    ) -> Option<ServerId> {
        (self.peers.iter())
            .filter(|(id, peer)| {
                peer.rank() == Some(0) && peer.free_pages >= needed_pages && !exclude.contains(id)
            })
            .max_by_key(|(&id, peer)| (peer.free_pages, std::cmp::Reverse(id)))
            .map(|(&id, _)| id)
    }

    /// The servers this pool has declared dead and not forgiven since,
    /// until somebody takes them: a front-end over several pools tells the
    /// others, so that a crash costs the cluster's clients one retry
    /// ladder and not one each. A server re-promoted since is still
    /// listed: whoever passes a verdict on checks [`ServerPool::alive`]
    /// first.
    pub fn obituaries(&mut self) -> &mut Vec<ServerId> {
        &mut self.obituaries
    }

    /// Marks the obituary of `id`, if one is untaken, as rebuilt by this
    /// pool's pager: told of its own verdict, the pager has no rebuild
    /// left to queue. Taken with the obituaries
    /// ([`ServerPool::take_rebuilt`]); a forgiveness or a new verdict
    /// strikes the mark.
    pub(crate) fn mark_rebuilt(&mut self, id: ServerId) {
        if self.obituaries.contains(&id) {
            note(&mut self.rebuilt, id);
        }
    }

    /// The servers [`ServerPool::mark_rebuilt`] marked since this was last
    /// taken.
    pub(crate) fn take_rebuilt(&mut self) -> Vec<ServerId> {
        std::mem::take(&mut self.rebuilt)
    }

    /// The servers that took a rung of the retry ladder since somebody
    /// last took this list, as [`ServerPool::obituaries`] lists verdicts:
    /// passed on, a server one pool found failing is read around by all
    /// at once, not dialled — or waited for — by each.
    pub(crate) fn backoffs(&mut self) -> &mut Vec<ServerId> {
        &mut self.backoffs
    }

    /// The rung `id` is on, if any.
    pub(crate) fn rung(&self, id: ServerId) -> Option<Rung> {
        self.peers.get(&id)?.standing.rung()
    }

    /// When `id`'s next attempt is due, if it is on a rung. Reads no
    /// clock.
    pub fn backoff(&self, id: ServerId) -> Option<Instant> {
        Some(self.rung(id)?.due)
    }

    /// The one question every read asks before it dials `id`: dead,
    /// backing off — on any rung for read-ahead (`ahead`), on one not due
    /// for a demand read, which alone climbs the ladder — or gray:
    /// [`GRAY_SUSPICION`] and an expected reply at or above half a
    /// millisecond and the best tail among the other live servers sampled
    /// (a call histogram's p99, else [`SLOW_MULT`]× the fast baseline).
    /// With no such server to go to instead, none looks gray.
    pub fn may_read(&self, id: ServerId, ahead: bool) -> Readable {
        let Some(peer) = self.peers.get(&id) else {
            return Readable::Dead;
        };
        let tail = |peer: &Peer| {
            let p99 = (peer.latency.as_ref()).map(|h| h.snapshot().p99_us());
            let baseline = peer.health.baseline_us().map(|us| SLOW_MULT * us);
            p99.filter(|&p| p > 0.0).or(baseline)
        };
        let gray = || {
            let others =
                (self.peers.iter()).filter(|&(&other, _)| other != id && self.alive(other));
            let best = || others.filter_map(|(_, other)| tail(other)).reduce(f64::min);
            let expected = peer.health.expected_latency_us();
            peer.health.suspicion() >= GRAY_SUSPICION
                && best().is_some_and(|best| expected >= best.max(GRAY_MIN_EXPECTED_US))
        };
        match peer.standing {
            Standing::Dead(_) => Readable::Dead,
            standing if (standing.rung()).is_some_and(|r| ahead || self.clock.now() < r.due) => {
                Readable::BackingOff
            }
            _ if gray() => Readable::Gray,
            _ => Readable::Yes,
        }
    }

    /// Registered server ids, ascending.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.peers.keys().copied().collect()
    }

    /// How many servers are registered.
    pub fn server_count(&self) -> usize {
        self.peers.len()
    }

    /// Allocates a fresh storage key, unique within this client.
    pub fn fresh_key(&mut self) -> StoreKey {
        let k = StoreKey(self.next_key);
        self.next_key += 1;
        k
    }

    /// Total page transfers performed on the wire.
    pub fn wire_transfers(&self) -> u64 {
        self.wire_transfers
    }

    /// Service time per call attempt across the pool, ms (0 when none
    /// yet): a decaying mean over every attempt, failed ones included, so
    /// it follows the network however long the pool has been up.
    pub fn avg_service_ms(&self) -> f64 {
        self.service_ms
    }

    /// Current detector suspicion score of `id` — 0 for a server that has
    /// never misbehaved, [`crate::detector::SUSPICION_CAP`] for one
    /// declared dead. At [`GRAY_SUSPICION`] a slow server looks gray.
    pub fn suspicion(&self, id: ServerId) -> f64 {
        self.peers.get(&id).map_or(0.0, |p| p.health.suspicion())
    }

    /// Puts every decision about a server's standing on `clock`.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// The clock the pool's decisions read.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Next jitter factor in `[1 - jitter, 1 + jitter]` (xorshift64*).
    fn jitter_factor(&mut self) -> f64 {
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = self.transport_cfg.retry.jitter;
        1.0 - jitter + 2.0 * jitter * unit
    }

    /// Books one attempt against `id` — a flight, or a wave's burst — that
    /// took `elapsed`: into the service-time estimate and the latency
    /// histograms, failed ones too (a flaky cluster must look *slow* to the
    /// adaptive policy, not invisible); and, when it was answered
    /// (`answered`: whether with page data, [`Message::is_data_op`]), as a
    /// reply. A failed one's miss is the caller's to take.
    fn book(&mut self, id: ServerId, elapsed: Duration, answered: Option<bool>) {
        ewma(&mut self.service_ms, elapsed.as_secs_f64() * 1000.0);
        if let (Some(m), Some(peer)) = (&self.metrics, self.peers.get_mut(&id)) {
            m.call_latency.record(elapsed);
            peer.latency
                .get_or_insert_with(|| {
                    m.registry
                        .histogram(&format!("pool_call_latency_us{{{id}}}"))
                })
                .record(elapsed);
        }
        self.publish_window_stats(id);
        if let Some(data) = answered {
            let us = elapsed.as_secs_f64() * 1e6;
            self.transition(id, Event::Reply(us, data));
        }
    }

    /// Mirrors the counters of `id`'s windowed transport, the one an
    /// exchange just ran on, into `pool_window_depth` (every connection's
    /// in-flight frames as of the last exchange with it) and
    /// `pool_window_stalls_total` (deltas of the cumulative counter).
    fn publish_window_stats(&mut self, id: ServerId) {
        let (Some(m), Some(peer)) = (&self.metrics, self.peers.get_mut(&id)) else {
            return;
        };
        let Some(ws) = peer.transport.window_stats() else {
            return;
        };
        if ws.stalls > peer.stalls_seen {
            m.window_stalls.add(ws.stalls - peer.stalls_seen);
        }
        peer.stalls_seen = ws.stalls;
        peer.depth_seen = ws.inflight as u64;
        m.window_depth
            .set(self.peers.values().map(|peer| peer.depth_seen).sum());
    }

    /// A flight begun and settled: `request` to `id`, down the retry
    /// ladder ([`ServerPool::ladder`]) on a transient failure; a typed
    /// out-of-memory is [`RmpError::NoSpace`], shutting-down
    /// [`RmpError::ServerCrashed`] with the server declared dead.
    fn call(&mut self, id: ServerId, request: Message) -> Result<Message> {
        self.call_retried(id, request).map(|(reply, _)| reply)
    }

    /// [`ServerPool::call`], and whether the request went out more than
    /// once: a non-idempotent one (basic parity's delta and fold) may then
    /// have been applied more than once.
    fn call_retried(&mut self, id: ServerId, request: Message) -> Result<(Message, bool)> {
        // The flight never leaves this call, so it names no key.
        let flight = self.begin_call(id, StoreKey(0), request);
        self.settle(flight)
    }

    /// When, on the pool's clock, the retry budget of a call that left at
    /// `sent` runs out. The whole call — every attempt, backoff, and
    /// redial — runs against that one instant: no retry starts on a fresh
    /// budget.
    fn budget_end(&self, sent: Instant) -> Instant {
        self.clock.read(sent) + self.transport_cfg.effective_call_budget()
    }

    /// The retry ladder, for a caller that has no other way: `landed` is
    /// how the attempt of `flight` came back. On a transient failure the
    /// server takes its next rung and the flight, held, leaves again once
    /// it is due, until the rungs or `by` run out and the server is
    /// declared dead. The rung is the server's: a call goes on from where
    /// the last failure left it, so a walk has `max_attempts` attempts
    /// however many callers share it.
    fn ladder(
        &mut self,
        mut flight: Flight,
        landed: (Result<Message>, Duration),
        by: Instant,
    ) -> Result<(Message, bool)> {
        let id = flight.server;
        let (mut reply, mut elapsed) = landed;
        let mut retried = false;
        loop {
            let failed = match reply {
                Ok(reply) => return Ok((reply, retried)),
                Err(failed) => failed,
            };
            if is_transient(&failed) {
                let us = elapsed.as_secs_f64() * 1e6;
                self.transition(id, Event::Miss(us));
            }
            self.fail(id, failed, Some(by))?;
            flight.pending = None;
            retried = true;
            (reply, elapsed) = self.land(&mut flight, by);
        }
    }

    /// What the failure `e` of an attempt at `id` comes to: a typed refusal
    /// maps to its error; a transient failure takes the next rung — `Ok`
    /// while one is left within `budget` — or is the verdict.
    fn fail(&mut self, id: ServerId, e: RmpError, budget: Option<Instant>) -> Result<()> {
        let failed = match e {
            // The server answered: the transport is healthy, the request
            // was simply refused.
            RmpError::Remote {
                code: ErrorCode::OutOfMemory,
                ..
            } => {
                self.transition(id, Event::Refused);
                return Err(RmpError::NoSpace(id));
            }
            RmpError::Remote {
                code: ErrorCode::ShuttingDown,
                ..
            } => {
                // Retrying a draining server only delays the failover.
                self.declare_dead(id, "shutting_down");
                RmpError::ServerCrashed(id)
            }
            e if is_transient(&e) => match self.take_rung(id, &e, budget) {
                None => return Ok(()),
                Some(verdict) => verdict,
            },
            e => e,
        };
        if let Some(m) = &self.metrics {
            m.call_errors.inc();
        }
        Err(failed)
    }

    /// Puts `id` on its next rung after the transient failure `e`, due a
    /// jittered backoff from now; or, when the rungs or the budget `by`
    /// have run out, declares it dead and returns the verdict.
    fn take_rung(&mut self, id: ServerId, e: &RmpError, by: Option<Instant>) -> Option<RmpError> {
        // Overload is a typed refusal from a live server: every session is
        // taken. It backs off like a timeout, and the verdict it comes to
        // is one, steering the pager elsewhere without calling it crashed.
        let timed_out = e.is_timeout() || e.is_overload();
        let why = match () {
            _ if e.is_timeout() => "timeout",
            _ if timed_out => "overloaded",
            _ => "transport",
        };
        let last = self.rung(id);
        let failed = last.map_or(0, |rung| rung.failed) + 1;
        // Rungs remain but the call budget is spent: further attempts
        // would only stretch the stall the budget exists to bound.
        let spent = by.is_some_and(|by| self.clock.now() >= by);
        if failed < self.transport_cfg.retry.max_attempts.max(1) && !spent {
            let mut backoff = self.transport_cfg.retry.backoff_for(failed - 1);
            if !backoff.is_zero() {
                let jittered = backoff.as_secs_f64() * self.jitter_factor();
                backoff = Duration::from_secs_f64(jittered.max(0.0));
            }
            self.transition(id, Event::Rung(backoff, why, timed_out));
            return None;
        }
        let timed_out = spent || timed_out || last.is_some_and(|rung| rung.timed_out);
        let why = if timed_out { "timeout" } else { "dead" };
        self.transition(id, Event::Verdict(why));
        Some(match timed_out {
            true => RmpError::Timeout(id),
            false => RmpError::ServerCrashed(id),
        })
    }

    /// Readies `id` for the attempt of the rung it is on, if any: waits on
    /// the pool's clock until the rung is due — `deadline` at the latest —
    /// redials a broken connection, and counts and traces the attempt as a
    /// retry.
    fn climb(&mut self, id: ServerId, deadline: Instant) {
        let Some(rung) = self.rung(id) else {
            return;
        };
        let wait = (rung.due.min(deadline)).saturating_duration_since(self.clock.now());
        if !wait.is_zero() {
            self.clock.sleep(wait);
        }
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        // Best-effort: a connection that is still up is kept — the
        // server's session on it holds every page stored through it — and
        // an unsupported or failed redial leaves the old transport (and
        // its counters) in place; the attempt decides whether the server
        // is back. Either way a restarted server lost this client's grants.
        let redialled = peer.transport.reconnect().is_ok();
        peer.reset(redialled);
        if let Some(m) = &self.metrics {
            m.retries.inc();
            m.registry.trace(EventKind::Retry, Some(id), None, rung.why);
        }
    }

    /// Whether an attempt at `id` may go out now: not while its rung is
    /// not due — one held back leaves when collected; a due rung is
    /// climbed.
    fn ready(&mut self, id: ServerId) -> bool {
        let Some(due) = self.backoff(id) else {
            return true;
        };
        if self.clock.now() < due {
            return false;
        }
        self.climb(id, due);
        true
    }

    /// What a demand read with somewhere else to go reports when its one
    /// attempt at `id` ([`ServerPool::finish_page_in_unretried`]) failed
    /// with `e`: as the ladder maps it, a transient failure taking the
    /// next rung and naming the server for the caller to read around.
    pub(crate) fn missed(&mut self, id: ServerId, e: RmpError) -> RmpError {
        if !is_transient(&e) {
            return e;
        }
        let timed_out = e.is_timeout() || e.is_overload();
        match self.fail(id, e, None) {
            Err(e) => e,
            Ok(()) if timed_out => RmpError::Timeout(id),
            Ok(()) => RmpError::ServerCrashed(id),
        }
    }

    /// Puts `msgs` on `id`'s window as one burst, waiting for nothing.
    fn submit_to(&mut self, id: ServerId, msgs: &[Message]) -> Result<PendingReplies> {
        match self.peers.get_mut(&id) {
            Some(peer) => (peer.transport.submit(msgs))
                .unwrap_or(Err(RmpError::Unsupported("transport takes no submissions"))),
            None => Err(RmpError::Config(format!("unknown server {id}"))),
        }
    }

    /// The first half of a call: submits `request` — unless `id` is
    /// backing off ([`ServerPool::ready`]) — and returns. What the caller
    /// does before [`ServerPool::settle`] — let go of a lock, say —
    /// overlaps the wire.
    fn begin_call(&mut self, id: ServerId, key: StoreKey, request: Message) -> Flight {
        if let Some(m) = &self.metrics {
            m.calls.inc();
        }
        let sent = Instant::now();
        Flight {
            pending: (self.ready(id)).then(|| self.submit_to(id, std::slice::from_ref(&request))),
            server: id,
            key,
            request,
            sent,
            timeout: self.transport_cfg.read_timeout,
        }
    }

    /// Collects a flight's reply and books it with its own departure to
    /// arrival — on the pool's clock, between the transport's stamps, so a
    /// wait for a lock is not a slow server — and returns that time: a
    /// miss is the caller's to take. A frame held back for a rung leaves
    /// now, once the rung is due (`by` at the latest).
    fn land(&mut self, flight: &mut Flight, by: Instant) -> (Result<Message>, Duration) {
        let id = flight.server;
        if flight.pending.is_none() {
            self.climb(id, by);
            flight.sent = Instant::now();
            flight.pending = Some(self.submit_to(id, std::slice::from_ref(&flight.request)));
        }
        flight.depart();
        let deadline = flight.sent + flight.timeout;
        let (reply, arrived) = match flight.pending.take().expect("submitted") {
            Ok(mut pending) => (pending.next_by(deadline)).expect("one frame, one reply"),
            Err(refused) => (Err(refused), flight.sent),
        };
        let elapsed = self.clock.between(flight.sent, arrived.min(deadline));
        let answered = reply.is_ok().then(|| flight.request.is_data_op());
        self.book(id, elapsed, answered);
        (reply, elapsed)
    }

    /// The second half of a call: a failed flight goes on down the
    /// ladder, within the budget counted from when it began — or, if its
    /// connection held it, from when it left. The reply, and whether the
    /// request had to go out again.
    fn settle(&mut self, mut flight: Flight) -> Result<(Message, bool)> {
        flight.depart();
        let by = self.budget_end(flight.sent);
        let landed = self.land(&mut flight, by);
        self.ladder(flight, landed, by)
    }

    /// The first half of [`ServerPool::scatter`]: groups the legs by server
    /// and submits every server's burst — but that of a server backing
    /// off ([`ServerPool::ready`]) — waiting for nothing. What the caller
    /// does before [`ServerPool::finish_scatter`] overlaps the wire.
    fn begin_scatter(&mut self, mut legs: Vec<(ServerId, Message)>) -> Wave {
        let mut order: Vec<usize> = (0..legs.len()).collect();
        // Waves are a handful of legs: ranking each by a scan costs less
        // than a map would, and the stable sort allocates nothing.
        order.sort_by_key(|&leg| legs.iter().position(|l| l.0 == legs[leg].0));
        let msgs: Vec<Message> = order
            .iter()
            .map(|&leg| std::mem::replace(&mut legs[leg].1, Message::LoadQuery))
            .collect();
        if let Some(m) = &self.metrics {
            m.scatters.inc();
            m.scatter_legs.add(legs.len() as u64);
        }
        let mut bursts: Vec<Burst> = Vec::new();
        let mut at = 0;
        while at < order.len() {
            let server = legs[order[at]].0;
            let end = at
                + order[at..]
                    .iter()
                    .take_while(|&&leg| legs[leg].0 == server)
                    .count();
            if let Some(m) = &self.metrics {
                m.calls.inc();
            }
            let sent = Instant::now();
            let pending = (self.ready(server)).then(|| self.submit_to(server, &msgs[at..end]));
            bursts.push(Burst {
                server,
                at: at..end,
                sent,
                pending,
            });
            at = end;
        }
        Wave {
            order,
            msgs,
            bursts,
            timeout: self.transport_cfg.read_timeout,
        }
    }

    /// The second half of [`ServerPool::scatter`]: sends every burst its
    /// connection holds, collects each leg against its burst's read
    /// deadline, books each burst, and walks the ladder for the legs that
    /// failed. A burst held back for a rung leaves now, once it is due.
    fn finish_scatter(&mut self, wave: Wave) -> Vec<Result<Message>> {
        let Wave {
            order,
            mut msgs,
            mut bursts,
            timeout,
        } = wave;
        bursts.iter_mut().for_each(Burst::depart);
        let begun = bursts.iter().map(|b| b.sent).min();
        let budget = self.budget_end(begun.unwrap_or_else(Instant::now));
        let mut out: Vec<Result<Message>> = (order.iter())
            .map(|_| Err(RmpError::Unsupported("leg left uncollected")))
            .collect();
        for mut burst in bursts {
            let id = burst.server;
            if burst.pending.is_none() {
                self.climb(id, budget);
                burst.sent = Instant::now();
                burst.pending = Some(self.submit_to(id, &msgs[burst.at.clone()]));
                burst.depart();
            }
            let read_deadline = burst.sent + timeout;
            let mut arrived = burst.sent;
            match burst.pending.take().expect("submitted") {
                Ok(mut pending) => {
                    for at in burst.at.clone() {
                        let (reply, when) = pending.next_by(read_deadline).unwrap_or_else(|| {
                            let short = "transport owes one reply per frame";
                            (Err(RmpError::Protocol(short.into())), Instant::now())
                        });
                        arrived = arrived.max(when);
                        out[order[at]] = reply;
                    }
                }
                Err(refused) => {
                    // Nothing left: the first leg carries why, the rest
                    // take the ladder's second look like any lost frame.
                    arrived = Instant::now();
                    let mut refused = Some(refused);
                    for at in burst.at.clone() {
                        out[order[at]] = Err(refused.take().unwrap_or_else(lost_with_its_burst));
                    }
                }
            }
            let elapsed = self.clock.between(burst.sent, arrived);
            let lost =
                (burst.at.clone()).any(|at| matches!(&out[order[at]], Err(e) if is_transient(e)));
            let data_path = msgs[burst.at.clone()].iter().any(Message::is_data_op);
            self.book(id, elapsed, (!lost).then_some(data_path));
            // One walk down the ladder per burst: it backs off and redials
            // for the first lost leg; the rest find the connection fresh —
            // or the server declared dead, and do not dial it again.
            let mut walked = false;
            for at in burst.at {
                let Err(e) = &mut out[order[at]] else {
                    continue;
                };
                let failed = std::mem::replace(e, RmpError::ServerCrashed(id));
                let request = std::mem::replace(&mut msgs[at], Message::LoadQuery);
                out[order[at]] = if walked && is_transient(&failed) {
                    match self.alive(id) {
                        true => self.call(id, request),
                        false => continue,
                    }
                } else {
                    walked |= is_transient(&failed);
                    let flight = Flight {
                        server: id,
                        key: StoreKey(0),
                        request,
                        sent: burst.sent,
                        timeout,
                        pending: None,
                    };
                    (self.ladder(flight, (Err(failed), elapsed), budget)).map(|(reply, _)| reply)
                };
            }
        }
        out
    }

    /// Scatter/gather: puts every leg on the wire before waiting for any,
    /// and returns each leg's reply in the order the legs were given — a
    /// wave costs one round trip, not one per leg.
    ///
    /// Legs are grouped by server (servers in order of first appearance),
    /// each server's frames one burst, all waited for against **one** read
    /// deadline: `n` silent servers hold the caller for one deadline, not
    /// `n`. A burst is booked with its own submit-to-last-reply time. A
    /// failed leg enters the retry ladder on the rung its failure took,
    /// within the wave's one call budget; the other legs' replies are
    /// kept.
    pub fn scatter(&mut self, legs: Vec<(ServerId, Message)>) -> Vec<Result<Message>> {
        let wave = self.begin_scatter(legs);
        self.finish_scatter(wave)
    }

    /// Counts one page-sized wire transfer in the running total and, when
    /// attached, the `pool_wire_transfers_total` metric.
    fn note_wire_transfer(&mut self) {
        self.wire_transfers += 1;
        if let Some(m) = &self.metrics {
            m.wire_transfers.inc();
        }
    }

    /// Keeps the load hint `id`'s reply carried; its standing is not
    /// the server's to say.
    fn apply_hint(&mut self, id: ServerId, hint: LoadHint) {
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.hint = hint;
        }
    }

    /// Takes one granted-but-unused frame on `id` — the paper's "asks for
    /// a number of page frames". A refill whose reply is in is booked
    /// first. With no grant left, the reservation waits: for the refill
    /// out, or on a call of a whole chunk, down the retry ladder either
    /// way. With fewer than half a chunk left after it, and no refill out,
    /// the rest of a chunk is asked for on the request window, waited for
    /// by nobody: the refill.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::NoSpace`] when the server denies the
    /// allocation waited for, after marking it stop-sending.
    pub fn reserve_frame(&mut self, id: ServerId) -> Result<()> {
        self.book_refill(id);
        if self.granted_frames(id) == 0 {
            if let Some(m) = &self.metrics {
                m.grant_waits.inc();
            }
            let reply = match self.peers.get_mut(&id).and_then(|peer| peer.refill.take()) {
                Some(refill) => self.settle(refill)?.0,
                None => self.call(id, Message::Alloc { pages: ALLOC_CHUNK })?,
            };
            self.granted(id, reply)?;
        }
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.grants = peer.grants.saturating_sub(1);
        }
        self.refill(id);
        Ok(())
    }

    /// Books `id`'s refill if its reply is in: its frames join the grants,
    /// or a denial marks the server stop-sending. One that failed is
    /// dropped, to be asked for again.
    fn book_refill(&mut self, id: ServerId) {
        let peer = self.peers.get_mut(&id);
        let Some(mut refill) = peer.and_then(|p| p.refill.take_if(|r| r.is_ready())) else {
            return;
        };
        let by = self.budget_end(refill.sent);
        if let (Ok(reply), _) = self.land(&mut refill, by) {
            let _ = self.granted(id, reply);
        }
    }

    /// Asks `id` for the rest of a chunk when fewer than half of one is
    /// granted and no refill is out — never of a server held dead, on a
    /// rung or told to stop sending — so that grants held plus asked make
    /// one chunk.
    fn refill(&mut self, id: ServerId) {
        let Some(peer) = self.peers.get(&id) else {
            return;
        };
        let askable = matches!(
            peer.standing,
            Standing::Healthy(None) | Standing::Suspect(None)
        );
        let stopped = peer.hint == LoadHint::StopSending;
        if peer.grants >= ALLOC_CHUNK / 2 || peer.refill.is_some() || !askable || stopped {
            return;
        }
        let pages = ALLOC_CHUNK - peer.grants;
        let refill = self.begin_call(id, StoreKey(0), Message::Alloc { pages });
        if let Some(m) = &self.metrics {
            m.grant_refills.inc();
        }
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.refill = Some(refill);
        }
    }

    /// Books the reply to an allocation on `id`: its frames join the
    /// grants — unless the pool holds `id` dead, whose grants die with it:
    /// a reservation then takes its one frame from the reply — or a denial
    /// marks the server stop-sending.
    fn granted(&mut self, id: ServerId, reply: Message) -> Result<()> {
        match reply {
            Message::AllocReply { granted, hint } => {
                self.apply_hint(id, hint);
                if granted == 0 {
                    // The denial the paper describes: stop considering this
                    // server for new pages.
                    self.apply_hint(id, LoadHint::StopSending);
                    return Err(RmpError::NoSpace(id));
                }
                let live = self.peers.get_mut(&id);
                if let Some(peer) = live.filter(|p| !matches!(p.standing, Standing::Dead(_))) {
                    peer.grants += granted;
                }
                Ok(())
            }
            other => Err(unexpected_reply("Alloc", &other)),
        }
    }

    /// Returns an unused frame grant to `id`'s local pool — the undo of a
    /// successful [`ServerPool::reserve_frame`] whose follow-up pageout
    /// failed. Without this the grant would leak: the client would burn
    /// one allocation round-trip per failed store and slowly starve the
    /// server of frames it never uses.
    pub fn return_frame(&mut self, id: ServerId) {
        // A dead server's grants died with it (they are cleared on
        // reconnect); only live servers get the frame back.
        if self.alive(id) {
            if let Some(peer) = self.peers.get_mut(&id) {
                peer.grants += 1;
            }
        }
    }

    /// Granted-but-unused frames held locally for `id` (test hook).
    pub fn granted_frames(&self, id: ServerId) -> u32 {
        self.peers.get(&id).map_or(0, |peer| peer.grants)
    }

    /// Frames the refill out to `id` asks for, 0 with none out (test
    /// hook).
    pub fn asked_frames(&self, id: ServerId) -> u32 {
        match self.peers.get(&id).and_then(|peer| peer.refill.as_ref()) {
            Some(Flight {
                request: Message::Alloc { pages },
                ..
            }) => *pages,
            _ => 0,
        }
    }

    fn store_request(key: StoreKey, page: &Page) -> Message {
        Message::PageOut {
            id: key,
            checksum: page.checksum(),
            page: page.clone(),
        }
    }

    /// Reads the reply to a `PageOut`: counts the transfer and takes the
    /// load hint.
    fn stored(&mut self, id: ServerId, reply: Message) -> Result<LoadHint> {
        match reply {
            Message::PageOutAck { hint, .. } => {
                self.note_wire_transfer();
                self.apply_hint(id, hint);
                Ok(hint)
            }
            other => Err(unexpected_reply("PageOut", &other)),
        }
    }

    /// Reads the reply to a `PageIn` of `key`: counts the transfer and
    /// verifies the page against the server's checksum. A reply that
    /// names another key — a burst of reads answered out of order by
    /// something that is no windowed connection — is refused, not handed
    /// to the wrong read: a piece of a rebuild has no writer's checksum
    /// of its own to catch it later.
    fn fetched(&mut self, id: ServerId, key: StoreKey, reply: Message) -> Result<Option<Page>> {
        let (echoed, page) = match reply {
            Message::PageInReply {
                id: echoed,
                checksum,
                page,
            } => {
                self.note_wire_transfer();
                if page.checksum() != checksum {
                    return Err(RmpError::CorruptPage { server: id, key });
                }
                (echoed, Some(page))
            }
            Message::PageInMiss { id: echoed } => (echoed, None),
            other => return Err(unexpected_reply("PageIn", &other)),
        };
        if echoed != key {
            return Err(RmpError::Protocol(format!(
                "{id} answered the read of {key} with {echoed}"
            )));
        }
        Ok(page)
    }

    fn freed(reply: Message) -> Result<()> {
        match reply {
            Message::FreeAck { .. } => Ok(()),
            other => Err(unexpected_reply("Free", &other)),
        }
    }

    /// Ships a page to `id` under `key`.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] on connection failure;
    /// [`RmpError::NoSpace`] when the server is out of memory.
    pub fn page_out(&mut self, id: ServerId, key: StoreKey, page: &Page) -> Result<LoadHint> {
        let reply = self.call(id, Self::store_request(key, page))?;
        self.stored(id, reply)
    }

    /// The first half of [`ServerPool::page_out`]: the store is on the
    /// wire, and the caller may let go of a lock meanwhile.
    pub fn begin_page_out(&mut self, id: ServerId, key: StoreKey, page: &Page) -> Flight {
        self.begin_call(id, key, Self::store_request(key, page))
    }

    /// The second half of [`ServerPool::page_out`].
    pub fn finish_page_out(&mut self, flight: Flight) -> Result<LoadHint> {
        let id = flight.server;
        let (reply, _) = self.settle(flight)?;
        self.stored(id, reply)
    }

    /// Starts one wave that ships every page in `stores` to its unit and
    /// releases every unit in `frees`. Nothing is waited for: what the
    /// caller does before [`ServerPool::finish_stores`] — a write-through's
    /// disk write — overlaps the wire.
    pub fn begin_stores(
        &mut self,
        stores: &[((ServerId, StoreKey), &Page)],
        frees: &[(ServerId, StoreKey)],
    ) -> StoreWave {
        let legs = (stores.iter())
            .map(|&((server, key), page)| (server, Self::store_request(key, page)))
            .chain(frees.iter().map(|&(s, key)| (s, Message::Free { id: key })))
            .collect();
        StoreWave {
            takers: stores.iter().map(|&((server, _), _)| server).collect(),
            wave: self.begin_scatter(legs),
        }
    }

    /// Collects a wave of [`ServerPool::begin_stores`]: one outcome per
    /// store, then one per free, each as [`ServerPool::page_out`] or
    /// [`ServerPool::free`] would report it.
    pub fn finish_stores(&mut self, wave: StoreWave) -> Vec<Result<()>> {
        let mut replies = self.finish_scatter(wave.wave).into_iter();
        let mut outcomes = Vec::with_capacity(replies.len());
        for (server, reply) in wave.takers.into_iter().zip(replies.by_ref()) {
            outcomes.push(reply.and_then(|reply| self.stored(server, reply).map(drop)));
        }
        outcomes.extend(replies.map(|reply| reply.and_then(Self::freed)));
        outcomes
    }

    /// Fetches the page stored under `key` on `id`, verifying the
    /// server's checksum against the received bytes.
    ///
    /// # Errors
    ///
    /// [`RmpError::PageNotFound`] on a miss, [`RmpError::ServerCrashed`]
    /// on connection failure, [`RmpError::CorruptPage`] when the page
    /// bytes fail their checksum (wire-level corruption — the server
    /// stays alive).
    pub fn page_in(&mut self, id: ServerId, key: StoreKey) -> Result<Page> {
        let reply = self.call(id, Message::PageIn { id: key })?;
        self.fetched(id, key, reply)?
            .ok_or(RmpError::PageNotFound(rmp_types::PageId(key.0)))
    }

    /// The first half of [`ServerPool::page_in`].
    pub fn begin_page_in(&mut self, id: ServerId, key: StoreKey) -> Flight {
        self.begin_call(id, key, Message::PageIn { id: key })
    }

    /// The second half of [`ServerPool::page_in`].
    pub fn finish_page_in(&mut self, flight: Flight) -> Result<Page> {
        let (id, key) = (flight.server, flight.key);
        let (reply, _) = self.settle(flight)?;
        self.fetched(id, key, reply)?
            .ok_or(RmpError::PageNotFound(rmp_types::PageId(key.0)))
    }

    /// Collects a read begun with [`ServerPool::begin_page_in`] after its
    /// one attempt — a read-ahead, polled with [`Flight::is_ready`], or a
    /// demand read that can be served around its holder; a miss is `None`.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures surface directly, a miss taken —
    /// no retry, no redial, no rung: a demand read hands its failure to
    /// `ServerPool::missed`, which puts the holder on its rung.
    pub fn finish_page_in_unretried(&mut self, mut flight: Flight) -> Result<Option<Page>> {
        let (id, key, by) = (flight.server, flight.key, self.budget_end(flight.sent));
        let (reply, elapsed) = self.land(&mut flight, by);
        if reply.is_err() {
            let us = elapsed.as_secs_f64() * 1e6;
            self.transition(id, Event::Miss(us));
        }
        self.fetched(id, key, reply?)
    }

    /// Fetches `reads` off all their holders in one wave — a plain keyed
    /// read each, a holder's reads one burst — so the gather costs one
    /// round trip however many servers it spans. Each page is its own
    /// reply, so no buffer on the way grows past a few pages. Pages come
    /// back in request order, misses as `None`.
    ///
    /// # Errors
    ///
    /// The first failed read's failure, once every reply is read — so each
    /// page that crossed the wire is counted. Kinds as
    /// [`ServerPool::page_in`].
    pub fn page_in_wave(&mut self, reads: &[(ServerId, StoreKey)]) -> Result<Vec<Option<Page>>> {
        let wave = self.begin_page_in_wave(reads);
        self.finish_page_in_wave(wave, reads)
    }

    /// The first half of [`ServerPool::page_in_wave`]: every burst is on
    /// the wire when this returns.
    pub fn begin_page_in_wave(&mut self, reads: &[(ServerId, StoreKey)]) -> Wave {
        let legs = (reads.iter())
            .map(|&(server, key)| (server, Message::PageIn { id: key }))
            .collect();
        self.begin_scatter(legs)
    }

    /// The second half of [`ServerPool::page_in_wave`], given the `reads`
    /// the wave was begun with.
    pub fn finish_page_in_wave(
        &mut self,
        wave: Wave,
        reads: &[(ServerId, StoreKey)],
    ) -> Result<Vec<Option<Page>>> {
        let mut pages = Vec::with_capacity(reads.len());
        let mut failed = None;
        for (&(server, key), reply) in reads.iter().zip(self.finish_scatter(wave)) {
            let page = reply.and_then(|reply| self.fetched(server, key, reply));
            pages.push(page.unwrap_or_else(|e| {
                failed.get_or_insert(e);
                None
            }));
        }
        failed.map_or(Ok(pages), Err)
    }

    /// Releases the page stored under `key` on `id`.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] on connection failure.
    pub fn free(&mut self, id: ServerId, key: StoreKey) -> Result<()> {
        Self::freed(self.call(id, Message::Free { id: key })?)
    }

    /// Basic-parity pageout: stores the page and returns `old XOR new`,
    /// and whether the store was retried — an earlier attempt may have
    /// stored the page already, and the delta then echoes none of it.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::page_out`].
    pub fn page_out_delta(
        &mut self,
        id: ServerId,
        key: StoreKey,
        page: &Page,
    ) -> Result<(Page, bool)> {
        let request = Message::PageOutDelta {
            id: key,
            checksum: page.checksum(),
            page: page.clone(),
        };
        match self.call_retried(id, request)? {
            (Message::PageOutDeltaReply { delta, hint, .. }, retried) => {
                self.note_wire_transfer();
                self.apply_hint(id, hint);
                Ok((delta, retried))
            }
            (other, _) => Err(unexpected_reply("PageOutDelta", &other)),
        }
    }

    /// XORs `delta` into the page under `key` on `id` (parity update).
    /// Whether it was retried: the delta may then be folded in twice,
    /// which cancels it.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::page_out`].
    pub fn xor_into(&mut self, id: ServerId, key: StoreKey, delta: &Page) -> Result<bool> {
        let request = Message::XorInto {
            id: key,
            page: delta.clone(),
        };
        match self.call_retried(id, request)? {
            (Message::XorAck { .. }, retried) => {
                self.note_wire_transfer();
                Ok(retried)
            }
            (other, _) => Err(unexpected_reply("XorInto", &other)),
        }
    }

    /// Queries a server's load report, keeping its free frames and hint —
    /// the paper's
    /// periodic memory-load check.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] on connection failure.
    pub fn query_load(&mut self, id: ServerId) -> Result<(u64, u64, u16, LoadHint)> {
        let reply = self.call(id, Message::LoadQuery)?;
        self.load_reported(id, reply)
    }

    /// Reads the reply to a `LoadQuery` into `id`'s peer.
    fn load_reported(&mut self, id: ServerId, reply: Message) -> Result<(u64, u64, u16, LoadHint)> {
        match reply {
            Message::LoadReport {
                free_pages,
                stored_pages,
                cpu_permille,
                hint,
            } => {
                if let Some(peer) = self.peers.get_mut(&id) {
                    peer.free_pages = free_pages;
                }
                self.apply_hint(id, hint);
                Ok((free_pages, stored_pages, cpu_permille, hint))
            }
            other => Err(unexpected_reply("LoadQuery", &other)),
        }
    }

    /// Refreshes the load of every live server with one wave of
    /// load queries; dead servers are skipped, newly unreachable ones get
    /// marked dead. Returns the servers that died during this refresh, in
    /// id order, so the caller can enqueue their recovery proactively
    /// instead of waiting for a pagein to trip over them.
    pub fn refresh_loads(&mut self) -> Vec<ServerId> {
        let mut live = self.live_servers();
        let queries = live.iter().map(|&id| (id, Message::LoadQuery)).collect();
        for (&id, reply) in live.iter().zip(self.scatter(queries)) {
            let _ = reply.and_then(|reply| self.load_reported(id, reply));
        }
        live.retain(|&id| !self.alive(id));
        live
    }

    /// Enumerates every storage key the server currently holds, following
    /// the protocol's pagination — used by audits and by operators via
    /// `rmpctl`.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] on connection failure.
    pub fn list_keys(&mut self, id: ServerId) -> Result<Vec<StoreKey>> {
        let mut keys = Vec::new();
        let mut start = StoreKey(0);
        loop {
            match self.call(id, Message::ListPages { start, limit: 512 })? {
                Message::ListPagesReply { ids, more } => {
                    if let Some(&last) = ids.last() {
                        start = last.next();
                    }
                    keys.extend(ids);
                    if !more {
                        return Ok(keys);
                    }
                }
                other => return Err(unexpected_reply("ListPages", &other)),
            }
        }
    }

    /// As [`ServerPool::list_keys`], for a server about to be written —
    /// a rebuild onto a rebooted one: its refill ([`ServerPool::refill`])
    /// leaves first, so the listing's round trip brings the grants too.
    /// A denial is left for the first reservation to meet.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::list_keys`].
    pub(crate) fn list_keys_granting(&mut self, id: ServerId) -> Result<Vec<StoreKey>> {
        self.refill(id);
        self.list_keys(id)
    }

    /// Injects a crash into server `id` (fault injection for experiments).
    ///
    /// # Errors
    ///
    /// Propagates send failures (an already-dead server).
    pub fn inject_crash(&mut self, id: ServerId) -> Result<()> {
        if self.peers.contains_key(&id) {
            // No reply will come: the handle is dropped, abandoning it.
            drop(self.submit_to(id, &[Message::InjectCrash])?);
        }
        self.declare_dead(id, "injected");
        Ok(())
    }

    /// Pulls the server's metrics snapshot over the wire (the
    /// `GetStats`/`StatsReply` exchange used by `rmpstat`).
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] on connection failure, or
    /// [`RmpError::Protocol`] when the server predates the frame.
    pub fn get_stats(&mut self, id: ServerId) -> Result<String> {
        match self.call(id, Message::GetStats)? {
            Message::StatsReply { json } => Ok(json),
            other => Err(unexpected_reply("GetStats", &other)),
        }
    }
}

impl Default for ServerPool {
    fn default() -> Self {
        ServerPool::new()
    }
}

#[cfg(test)]
mod tests {
    //! One test per row of the module docs' table, then the ranking of
    //! servers for new pages.
    use super::*;
    use crate::transport::in_process::Local;
    use Standing::{Dead, Healthy, Suspect};

    /// Where a peer standing `from` with `evidence` stands after `event`.
    fn after(from: Standing, evidence: fn(&mut Health), event: Event) -> (Standing, Health) {
        let local = Local::new(ServerId(0), Arc::default(), Clock::Real);
        let mut peer = Peer::new(Box::new(local), None, 1.0);
        peer.standing = from;
        evidence(&mut peer.health);
        peer.step(event, Instant::now());
        (peer.standing, peer.health)
    }

    fn rung(failed: u32) -> Option<Rung> {
        let (due, timed_out, why) = (Instant::now(), true, "timeout");
        Some(Rung {
            failed,
            due,
            timed_out,
            why,
        })
    }

    const CLEAN: Event = Event::Reply(0.0, true);
    const VERDICT: Event = Event::Verdict("test");

    #[test]
    fn a_reply_that_suspects_a_trusted_server_makes_it_suspect() {
        fn nearly(h: &mut Health) {
            h.on_reply(0.0, true);
            h.suspicion = 1.5;
        }
        let slow = Event::Reply(1e4, true);
        assert_eq!(after(Healthy(rung(1)), nearly, slow).0, Suspect(None));
    }

    #[test]
    fn a_reply_that_clears_a_suspect_or_dead_server_trusts_it_again() {
        for from in [Suspect(rung(1)), Dead(None)] {
            let (to, health) = after(from, |h| h.clean_data_streak = 2, CLEAN);
            assert_eq!((to, health.clean_data_streak), (Healthy(None), 0));
        }
    }

    #[test]
    fn a_miss_suspects_a_trusted_server() {
        let (on, miss) = (rung(1), Event::Miss(0.0));
        assert_eq!(after(Healthy(on), |_| {}, miss).0, Suspect(on));
    }

    #[test]
    fn a_transient_failure_puts_the_server_on_its_next_rung() {
        let (before, backoff, why) = (Instant::now(), Duration::from_secs(1), "transport");
        for from in [Suspect(None), Suspect(rung(1)), Dead(rung(1))] {
            let to = after(from, |_| {}, Event::Rung(backoff, why, false)).0;
            let next = to.rung().expect("on a rung");
            assert_eq!(to, from.on(Some(next)));
            let failed = from.rung().map_or(1, |r| r.failed + 1);
            let timed_out = from.rung().is_some();
            assert_eq!((next.failed, next.timed_out), (failed, timed_out));
            assert!(next.why == why && next.due >= before + backoff);
        }
    }

    #[test]
    fn a_siblings_rung_is_taken_by_a_live_server_on_none_or_an_earlier_one() {
        let (told, later) = (rung(2), rung(3));
        let rows = [
            (Healthy(None), Healthy(told)),
            (Suspect(rung(1)), Suspect(told)),
        ];
        let kept = [(Healthy(later), Healthy(later)), (Dead(None), Dead(None))];
        for (from, to) in rows.into_iter().chain(kept) {
            assert_eq!(
                after(from, |_| {}, Event::Told(told.expect("a rung"))).0,
                to
            );
        }
    }

    #[test]
    fn a_typed_refusal_takes_the_server_off_its_rung() {
        for from in [Healthy(rung(1)), Dead(rung(1))] {
            assert_eq!(after(from, |_| {}, Event::Refused).0, from.on(None));
        }
    }

    #[test]
    fn forgiveness_trusts_the_server_afresh() {
        let (to, health) = after(Dead(rung(1)), |h| h.on_miss(1e3), Event::Forgiven);
        let fresh = (health.suspicion(), health.expected_latency_us());
        assert_eq!((to, fresh), (Healthy(None), (0.0, 0.0)));
    }

    #[test]
    fn a_verdict_holds_a_live_server_dead_and_pins_its_suspicion() {
        // A rejoin that keeps the record works its way back from the cap;
        // latency history does not outlive the death.
        for from in [Healthy(None), Suspect(rung(2))] {
            let (to, health) = after(from, |h| h.on_miss(1e3), VERDICT);
            let pinned = (health.suspicion(), health.expected_latency_us());
            assert_eq!((to, pinned), (Dead(None), (SUSPICION_CAP, 0.0)));
        }
    }

    #[test]
    fn a_verdict_on_a_dead_server_only_takes_it_off_its_rung() {
        let (to, health) = after(Dead(rung(2)), |h| h.on_miss(1e3), VERDICT);
        assert_eq!((to, health.suspicion()), (Dead(None), 2.0));
    }

    /// A pool over in-process servers, server `i` at link cost `loads[i].2`
    /// having reported `loads[i].0` pages free and hint `loads[i].1`.
    fn ranked(loads: &[(u64, LoadHint, f64)]) -> ServerPool {
        let mut pool = ServerPool::new();
        for (i, &(free, hint, cost)) in loads.iter().enumerate() {
            let id = ServerId(i as u32);
            let local = Local::new(id, Arc::default(), Clock::Real);
            pool.add_transport(id, Box::new(local), cost);
            say(&mut pool, id, free, hint);
        }
        pool
    }

    /// Server `id` of `pool` reports `free` pages free and `hint`.
    fn say(pool: &mut ServerPool, id: ServerId, free: u64, hint: LoadHint) {
        let report = Message::LoadReport {
            free_pages: free,
            stored_pages: 0,
            cpu_permille: 0,
            hint,
        };
        pool.load_reported(id, report).expect("a load report");
    }

    /// Three servers at link cost 1, reporting `free[i]` pages and `hint[i]`.
    fn three(free: [u64; 3], hint: [LoadHint; 3]) -> ServerPool {
        ranked(&[
            (free[0], hint[0], 1.0),
            (free[1], hint[1], 1.0),
            (free[2], hint[2], 1.0),
        ])
    }

    const S: [ServerId; 3] = [ServerId(0), ServerId(1), ServerId(2)];
    const OK: [LoadHint; 3] = [LoadHint::Ok; 3];
    const MISS: Event = Event::Miss(1e3);

    #[test]
    fn most_promising_prefers_most_free_memory() {
        let pool = three([100, 500, 200], OK);
        assert_eq!(pool.most_promising(&[]), Some(S[1]));
        assert_eq!(pool.most_promising(&[S[1]]), Some(S[2]));
    }

    #[test]
    fn link_cost_discounts_distant_servers() {
        // 100 / 1 beats 500 / 10.
        let pool = ranked(&[(100, LoadHint::Ok, 1.0), (500, LoadHint::Ok, 10.0)]);
        assert_eq!(pool.most_promising(&[]), Some(S[0]));
    }

    #[test]
    fn pressure_servers_are_last_resort() {
        let hints = [LoadHint::Pressure, LoadHint::Ok, LoadHint::StopSending];
        let mut pool = three([50, 10, 900], hints);
        assert_eq!(pool.most_promising(&[]), Some(S[1]), "trusted beats bigger");
        pool.declare_dead(S[1], "test");
        assert_eq!(
            pool.most_promising(&[]),
            Some(S[0]),
            "pressure, with nothing else"
        );
    }

    #[test]
    fn dead_servers_never_selected() {
        let mut pool = three([100; 3], OK);
        for id in S {
            pool.declare_dead(id, "test");
        }
        assert_eq!(pool.most_promising(&[]), None);
        assert!(pool.live_servers().is_empty());
    }

    #[test]
    fn dead_state_is_sticky_against_updates() {
        let mut pool = three([100; 3], OK);
        pool.declare_dead(S[0], "test");
        say(&mut pool, S[0], 100, LoadHint::Ok);
        assert!(!pool.alive(S[0]), "a load report cannot resurrect");
        pool.absolve(S[0]);
        assert!(pool.alive(S[0]));
    }

    #[test]
    fn ties_break_deterministically_to_lower_id() {
        let pool = three([100; 3], OK);
        assert_eq!(pool.most_promising(&[]), Some(S[0]));
    }

    #[test]
    fn capacity_search_respects_threshold() {
        let mut pool = three(
            [10, 50, 100],
            [LoadHint::Ok, LoadHint::Ok, LoadHint::Pressure],
        );
        assert_eq!(pool.server_with_capacity(40, &[]), Some(S[1]));
        assert_eq!(
            pool.server_with_capacity(60, &[]),
            None,
            "pressured excluded"
        );
        assert_eq!(pool.server_with_capacity(40, &[S[1]]), None);
        pool.transition(S[1], MISS);
        assert_eq!(pool.server_with_capacity(40, &[]), None, "suspect excluded");
    }

    #[test]
    fn suspect_servers_rank_after_pressure() {
        let hints = [LoadHint::Ok, LoadHint::Pressure, LoadHint::Ok];
        let mut pool = three([900, 500, 999], hints);
        pool.transition(S[2], MISS);
        assert_eq!(
            pool.most_promising(&[]),
            Some(S[0]),
            "trusted beats bigger suspect"
        );
        pool.transition(S[0], MISS);
        assert_eq!(
            pool.most_promising(&[]),
            Some(S[1]),
            "pressure beats suspect"
        );
        say(&mut pool, S[1], 0, LoadHint::StopSending);
        assert_eq!(
            pool.most_promising(&[]),
            Some(S[2]),
            "suspect is the last resort"
        );
    }

    #[test]
    fn suspect_is_alive_and_not_cleared_by_load_reports() {
        let mut pool = three([100; 3], OK);
        pool.transition(S[0], MISS);
        assert!(pool.alive(S[0]) && pool.live_servers().contains(&S[0]));
        // Neither an optimistic report nor a stop-sending one clears
        // suspicion, and the stop-sending one is believed at once.
        say(&mut pool, S[0], 100, LoadHint::Ok);
        say(&mut pool, S[0], 100, LoadHint::StopSending);
        assert!(pool.suspected(S[0]) && !pool.accepting(S[0]));
        say(&mut pool, S[0], 100, LoadHint::Ok);
        assert!(pool.suspected(S[0]) && pool.accepting(S[0]));
        // A rejoin trusts it afresh, and forgets its hint.
        pool.apply_hint(S[0], LoadHint::StopSending);
        pool.absolve(S[0]);
        assert!(!pool.suspected(S[0]) && pool.accepting(S[0]));
    }

    #[test]
    fn suspicion_cannot_resurrect_the_dead() {
        let mut pool = three([100; 3], OK);
        pool.declare_dead(S[0], "test");
        pool.transition(S[0], MISS);
        assert!(!pool.alive(S[0]) && !pool.suspected(S[0]));
    }
}
