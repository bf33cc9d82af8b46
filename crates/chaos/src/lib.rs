//! Deterministic chaos engine: scriptable fault injection at the
//! transport seam, for tests and benches only.
//!
//! [`ChaosTransport`] is a session of an in-process memory server
//! ([`rmp_server::InProcessServer`], the socket server's own request
//! handler without the socket) behind a [`FaultPlan`] — an ordered list
//! of [`FaultRule`]s scoped by server, opcode class, call-count window,
//! probability, and budget. Every stochastic choice flows through one
//! seeded generator, so a schedule that exposes a bug replays from its
//! seed alone: the plan's decision sequence depends only on the order of
//! calls reaching it, never on wall-clock time.
//!
//! The injectable faults cover the failure model of `DESIGN.md` §7:
//!
//! * [`FaultAction::Delay`] — gray server: the reply arrives, late — on
//!   the cluster's [`Clock`]: a manual one is advanced, not slept on. A
//!   reply later than the read deadline is a timeout.
//! * [`FaultAction::Drop`] — the request never reaches the server.
//! * [`FaultAction::BlackholeReply`] — one-way partition: the server
//!   *executes* the request but the reply is lost, the shape that breaks
//!   non-idempotent protocols (retried XOR deltas).
//! * [`FaultAction::Refuse`] — a typed refusal: an admission-control
//!   storm (`Overloaded`), a full server (`OutOfMemory`), a draining one.
//! * [`FaultAction::Disconnect`] — the connection drops and stays down
//!   until the client redials; the server keeps its memory.
//! * [`FaultAction::CorruptReply`] — one bit of a page payload flips in
//!   flight; frame checksums are left alone so end-to-end verification
//!   must catch it. [`FaultAction::CorruptStored`] flips it at rest: the
//!   reply's checksum is taken over the flipped bytes.
//! * [`FaultAction::WrongReply`] — the server answers with a reply of the
//!   wrong kind.
//! * [`FaultAction::DuplicateReply`] / [`FaultAction::ReorderBurst`] —
//!   pipelined-burst pathologies: a read answered with another read's
//!   reply must be refused by the key it echoes, not mis-delivered.
//! * [`FaultAction::Crash`] / [`FaultAction::Restart`] — fail-stop: the
//!   server's memory is wiped and connections refuse until restart.
//!
//! [`ChaosCluster`] builds per-shard [`ServerPool`]s over a shared set of
//! in-process servers, all on the cluster's clock, and [`run_schedule`]
//! — the endurance driver of the `chaos_endurance` test and `bench --bin
//! chaos` — runs a randomized seeded schedule against a [`ShardedPager`]
//! on a manual clock and checks the durability invariants (no acked page
//! lost or corrupted, recovery converges, only typed errors surface).
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule};
//! use rmp_types::{ServerId, TransportConfig};
//!
//! // Two in-process servers; once armed, server 0 serves its next three
//! // requests late — a gray server, scripted and replayable.
//! let plan = FaultPlan::seeded(7).with_rule(
//!     FaultRule::new(FaultAction::Delay(Duration::from_millis(2)))
//!         .on_server(ServerId(0))
//!         .times(3),
//! );
//! let cluster = ChaosCluster::new(2, plan);
//! let mut pool = cluster.pool(&TransportConfig::default());
//! cluster.plan().arm();
//!
//! // The delayed call still succeeds — a gray fault degrades latency,
//! // never data — and the injection lands in the event trace.
//! pool.query_load(ServerId(0)).unwrap();
//! assert_eq!(cluster.plan().events().len(), 1);
//!
//! // Server 1 has no matching rule and serves untouched.
//! pool.query_load(ServerId(1)).unwrap();
//! assert_eq!(cluster.plan().events().len(), 1);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmp_blockdev::RamDisk;
use rmp_core::{Clock, Pager, ServerPool, ServerTransport, ShardedPager};
use rmp_proto::{Message, Opcode};
use rmp_server::{InProcessServer, InProcessSession, MemoryServer, ServerConfig};
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, TransportConfig,
};

// --- fault vocabulary ------------------------------------------------------

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Serve the request after a wait on the cluster's clock — a gray
    /// (slow) server.
    Delay(Duration),
    /// The request is lost before the server sees it; the caller
    /// observes a deadline expiry.
    Drop,
    /// One-way partition: the server executes the request, then the
    /// reply vanishes. The caller sees a timeout while server state has
    /// already changed — the shape that breaks non-idempotent calls.
    BlackholeReply,
    /// A typed refusal with this code, without executing the request.
    Refuse(ErrorCode),
    /// The connection drops without the request reaching the server; it
    /// and every later call fail until the client reconnects. The server
    /// keeps its memory.
    Disconnect,
    /// Serve, then flip one bit of the reply's page payload (checksum
    /// fields untouched). Replies without a page payload pass unharmed.
    CorruptReply {
        /// Byte offset to corrupt, taken modulo the page size.
        byte: usize,
        /// Bit index within the byte, taken modulo 8.
        bit: u8,
    },
    /// Like [`FaultAction::CorruptReply`], but the page went bad where
    /// the server keeps it: a page read's checksum is taken over the
    /// flipped bytes, so only the writer's own checksum catches it.
    CorruptStored {
        /// Byte offset to corrupt, taken modulo the page size.
        byte: usize,
        /// Bit index within the byte, taken modulo 8.
        bit: u8,
    },
    /// Serve, then answer with a reply of the wrong kind.
    WrongReply,
    /// Pipelined bursts only: one reply in the burst is replaced by a
    /// clone of another, exercising the client's echoed-key check.
    DuplicateReply,
    /// Pipelined bursts only: the replies come back in reverse order,
    /// exercising the client's echoed-key check.
    ReorderBurst,
    /// Fail-stop: wipe the server's memory; until [`FaultAction::Restart`]
    /// (or [`ChaosCluster::heal`]) every call and reconnect is refused.
    Crash,
    /// Bring a crashed server back (memory stays wiped) and serve.
    Restart,
}

impl FaultAction {
    /// Stable name recorded in [`FaultEvent`] traces.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Delay(_) => "delay",
            FaultAction::Drop => "drop",
            FaultAction::BlackholeReply => "blackhole-reply",
            FaultAction::Refuse(ErrorCode::Overloaded) => "overload",
            FaultAction::Refuse(_) => "refuse",
            FaultAction::Disconnect => "disconnect",
            FaultAction::CorruptReply { .. } => "corrupt-reply",
            FaultAction::CorruptStored { .. } => "corrupt-stored",
            FaultAction::WrongReply => "wrong-reply",
            FaultAction::DuplicateReply => "duplicate-reply",
            FaultAction::ReorderBurst => "reorder-burst",
            FaultAction::Crash => "crash",
            FaultAction::Restart => "restart",
        }
    }

    /// Whether the action can fire in the given context (burst-only
    /// actions never fire on single calls).
    fn applicable(&self, burst: bool) -> bool {
        match self {
            FaultAction::DuplicateReply | FaultAction::ReorderBurst => burst,
            _ => true,
        }
    }
}

/// An admission-control refusal storm's refusal.
const OVERLOAD: FaultAction = FaultAction::Refuse(ErrorCode::Overloaded);

/// Which requests a [`FaultRule`] applies to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpFilter {
    /// Every request.
    Any,
    /// Data-path requests only (see [`Message::is_data_op`]).
    DataOps,
    /// Requests with exactly this opcode.
    Op(Opcode),
}

impl OpFilter {
    fn matches(&self, msg: &Message) -> bool {
        match self {
            OpFilter::Any => true,
            OpFilter::DataOps => msg.is_data_op(),
            OpFilter::Op(op) => msg.opcode() == *op,
        }
    }
}

/// One scoped fault: where, what, when, how often.
///
/// Rules are evaluated in plan order; the first matching rule whose
/// probability draw fires wins the call. Probability draws are made for
/// every matching rule in order (fired or not), so the generator's
/// consumption — and therefore the whole schedule — is a pure function
/// of the seed and the call sequence.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Restrict to one server; `None` matches every server.
    pub server: Option<ServerId>,
    /// Restrict by request class.
    pub filter: OpFilter,
    /// The fault to inject.
    pub action: FaultAction,
    /// Chance the rule fires on a matching call, in `[0, 1]`.
    pub probability: f64,
    /// Armed-call-index window in which the rule is live; `None` means
    /// always.
    pub window: Option<Range<u64>>,
    /// Remaining firings; `None` means unlimited.
    pub remaining: Option<u32>,
}

impl FaultRule {
    /// A rule that fires `action` on every call of every server.
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            server: None,
            filter: OpFilter::Any,
            action,
            probability: 1.0,
            window: None,
            remaining: None,
        }
    }

    /// Restricts the rule to one server.
    pub fn on_server(mut self, id: ServerId) -> Self {
        self.server = Some(id);
        self
    }

    /// Restricts the rule by request class.
    pub fn on_ops(mut self, filter: OpFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the per-call firing probability.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p;
        self
    }

    /// Restricts the rule to a window of armed call indices.
    pub fn in_window(mut self, window: Range<u64>) -> Self {
        self.window = Some(window);
        self
    }

    /// Caps the number of times the rule may fire.
    pub fn times(mut self, n: u32) -> Self {
        self.remaining = Some(n);
        self
    }
}

/// One fired fault, the unit of the determinism contract: two runs of
/// the same plan over the same call sequence produce identical event
/// vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Armed-call index at which the fault fired.
    pub index: u64,
    /// Server the faulted call addressed.
    pub server: ServerId,
    /// Opcode of the faulted request: of a burst, the frame it hit.
    pub opcode: Opcode,
    /// [`FaultAction::name`] of the injected fault.
    pub action: &'static str,
}

struct PlanInner {
    rules: Vec<FaultRule>,
    rng: StdRng,
    calls: u64,
    events: Vec<FaultEvent>,
}

/// A seeded, composable fault schedule shared by every [`ChaosTransport`]
/// in a cluster.
///
/// The plan starts **disarmed**: transports serve faithfully (and the
/// call counter stays frozen) until [`FaultPlan::arm`], so a harness can
/// load fixture state without the plan's windows drifting.
pub struct FaultPlan {
    inner: Mutex<PlanInner>,
    armed: AtomicBool,
}

impl FaultPlan {
    /// An empty plan whose probability draws derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Mutex::new(PlanInner {
                rules: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                calls: 0,
                events: Vec::new(),
            }),
            armed: AtomicBool::new(false),
        }
    }

    /// Adds a rule at build time.
    pub fn with_rule(self, rule: FaultRule) -> Self {
        self.inject(rule);
        self
    }

    /// Adds a rule at run time (e.g. arm a crash *during* a quiesce).
    pub fn inject(&self, rule: FaultRule) {
        self.inner.lock().rules.push(rule);
    }

    /// Starts injecting faults and counting calls.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting faults; the call counter freezes again.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the plan is currently injecting.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Number of armed calls observed so far.
    pub fn calls(&self) -> u64 {
        self.inner.lock().calls
    }

    /// The fired-fault trace so far.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.inner.lock().events.clone()
    }

    /// A randomized plan for `n_servers` servers derived entirely from
    /// `seed`: two to four rules mixing delays, drops, lost replies,
    /// overload storms, corruption, and burst pathologies, plus at most
    /// one crash (optionally followed by a mid-schedule restart).
    pub fn random(seed: u64, n_servers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::seeded(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let n_rules = rng.gen_range(2u32..=4);
        let mut crash_used = false;
        for _ in 0..n_rules {
            let server = ServerId(rng.gen_range(0u32..n_servers as u32));
            let kind = rng.gen_range(0u32..8);
            let rule = match kind {
                0 => FaultRule::new(FaultAction::Delay(Duration::from_micros(
                    rng.gen_range(200u64..2000),
                )))
                .with_probability(rng.gen_range(0.05..0.3)),
                1 => FaultRule::new(FaultAction::Drop)
                    .on_ops(OpFilter::DataOps)
                    .with_probability(rng.gen_range(0.05..0.25)),
                2 => FaultRule::new(FaultAction::BlackholeReply)
                    .on_ops(OpFilter::DataOps)
                    .with_probability(rng.gen_range(0.05..0.2)),
                3 => FaultRule::new(OVERLOAD).with_probability(rng.gen_range(0.05..0.3)),
                4 => FaultRule::new(FaultAction::CorruptReply {
                    byte: rng.gen_range(0usize..4096),
                    bit: rng.gen_range(0u32..8) as u8,
                })
                .on_ops(OpFilter::DataOps)
                .with_probability(rng.gen_range(0.05..0.2)),
                5 => FaultRule::new(FaultAction::DuplicateReply)
                    .with_probability(rng.gen_range(0.05..0.2)),
                6 => FaultRule::new(FaultAction::ReorderBurst)
                    .with_probability(rng.gen_range(0.1..0.4)),
                _ if !crash_used => {
                    crash_used = true;
                    let at = rng.gen_range(20u64..200);
                    plan.inject(
                        FaultRule::new(FaultAction::Crash)
                            .on_server(server)
                            .in_window(at..at + 1)
                            .times(1),
                    );
                    if rng.gen_bool(0.5) {
                        // Sometimes the server comes back mid-schedule,
                        // memory gone — recovery must cope either way.
                        let back = at + rng.gen_range(100u64..400);
                        plan.inject(
                            FaultRule::new(FaultAction::Restart)
                                .on_server(server)
                                .in_window(back..u64::MAX)
                                .times(1),
                        );
                    }
                    continue;
                }
                _ => FaultRule::new(OVERLOAD).with_probability(rng.gen_range(0.05..0.2)),
            };
            // Half the rules are server-scoped, half cluster-wide.
            let rule = if rng.gen_bool(0.5) {
                rule.on_server(server)
            } else {
                rule
            };
            plan.inject(rule);
        }
        plan
    }

    /// Decides the fault (if any) for one call or burst, and the filter of
    /// the rule that fired: a rule matches if any frame of `msgs` matches
    /// its filter. Consumes randomness only while armed, and identically
    /// for identical call sequences.
    fn decide(
        &self,
        server: ServerId,
        msgs: &[Message],
        burst: bool,
    ) -> Option<(FaultAction, OpFilter)> {
        if !self.is_armed() {
            return None;
        }
        let mut inner = self.inner.lock();
        let index = inner.calls;
        inner.calls += 1;
        let inner = &mut *inner;
        for rule in inner.rules.iter_mut() {
            if rule.server.is_some_and(|s| s != server)
                || !rule.action.applicable(burst)
                || rule.window.as_ref().is_some_and(|w| !w.contains(&index))
                || rule.remaining == Some(0)
            {
                continue;
            }
            let Some(hit) = msgs.iter().position(|m| rule.filter.matches(m)) else {
                continue;
            };
            if !inner.rng.gen_bool(rule.probability.clamp(0.0, 1.0)) {
                continue;
            }
            if let Some(left) = rule.remaining.as_mut() {
                *left -= 1;
            }
            inner.events.push(FaultEvent {
                index,
                server,
                opcode: msgs[hit].opcode(),
                action: rule.action.name(),
            });
            return Some((rule.action, rule.filter));
        }
        None
    }
}

// --- the transport onto an in-process server -------------------------------

fn io_err(kind: std::io::ErrorKind, msg: &'static str) -> RmpError {
    RmpError::Io(std::io::Error::new(kind, msg))
}

/// A protocol `Error` reply as the [`RmpError::Remote`] a caller of a
/// connection gets.
fn typed(reply: Message) -> Result<Message> {
    match reply {
        Message::Error { code, message } => Err(RmpError::Remote { code, message }),
        reply => Ok(reply),
    }
}

/// Flips one bit of `reply`'s page payload as if the page had gone bad
/// at rest: a page read's checksum is taken over the flipped bytes.
/// Whether the reply had a payload to flip.
fn rot(reply: &mut Message, byte: usize, bit: u8) -> bool {
    let flipped = reply.flip_payload_bit(byte, bit);
    if let Message::PageInReply { checksum, page, .. } = reply {
        *checksum = page.checksum();
    }
    flipped
}

/// A [`ServerTransport`] onto one session of an in-process server that
/// consults a [`FaultPlan`] before (and sometimes after) the server
/// answers.
pub struct ChaosTransport {
    id: ServerId,
    plan: Arc<FaultPlan>,
    server: InProcessServer,
    session: InProcessSession,
    /// What a delay waits on: the wall clock, unless a [`ChaosCluster`]
    /// built the transport.
    clock: Clock,
    /// A reply later than this is a timeout.
    read_timeout: Duration,
    /// A [`FaultAction::Disconnect`] fired and no reconnect followed.
    disconnected: bool,
}

impl ChaosTransport {
    /// Opens a session on `server`, under `plan`.
    pub fn new(id: ServerId, plan: Arc<FaultPlan>, server: InProcessServer) -> Self {
        ChaosTransport {
            id,
            plan,
            session: server.session(),
            server,
            clock: Clock::Real,
            read_timeout: TransportConfig::default().read_timeout,
            disconnected: false,
        }
    }

    /// Applies a decided fault around one served call. The fault decision
    /// runs *before* the crash-state check so a `Restart` rule can heal a
    /// downed server; everything else hits the refused-connection wall.
    fn apply(&mut self, msg: &Message, action: Option<FaultAction>) -> Result<Message> {
        match action {
            Some(FaultAction::Crash) => {
                self.server.crash();
                return Err(io_err(std::io::ErrorKind::ConnectionReset, "chaos: crash"));
            }
            Some(FaultAction::Restart) => self.server.restart(),
            _ => {}
        }
        if self.server.is_crashed() {
            return Err(io_err(
                std::io::ErrorKind::ConnectionRefused,
                "chaos: server down",
            ));
        }
        if self.disconnected {
            return Err(io_err(
                std::io::ErrorKind::BrokenPipe,
                "chaos: disconnected",
            ));
        }
        match action {
            Some(FaultAction::Delay(d)) => self.clock.sleep(d),
            Some(FaultAction::Drop) => {
                return Err(io_err(std::io::ErrorKind::TimedOut, "chaos: request lost"))
            }
            Some(FaultAction::Refuse(code)) => {
                return Err(RmpError::Remote {
                    code,
                    message: "chaos: refused".into(),
                })
            }
            Some(FaultAction::Disconnect) => {
                self.disconnected = true;
                return Err(io_err(
                    std::io::ErrorKind::ConnectionReset,
                    "chaos: connection dropped",
                ));
            }
            _ => {}
        }
        let mut reply = self.session.serve(msg.clone())?;
        match action {
            // The server executed; the caller never learns, or learns too
            // late.
            Some(FaultAction::BlackholeReply) => {
                Err(io_err(std::io::ErrorKind::TimedOut, "chaos: reply lost"))
            }
            Some(FaultAction::Delay(d)) if d >= self.read_timeout => {
                Err(io_err(std::io::ErrorKind::TimedOut, "chaos: reply late"))
            }
            Some(FaultAction::CorruptReply { byte, bit }) => {
                reply.flip_payload_bit(byte, bit);
                Ok(reply)
            }
            Some(FaultAction::CorruptStored { byte, bit }) => {
                rot(&mut reply, byte, bit);
                Ok(reply)
            }
            Some(FaultAction::WrongReply) => Ok(Message::HelloReply { window: 0 }),
            _ => Ok(reply),
        }
    }
}

impl ServerTransport for ChaosTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let fault = self.plan.decide(self.id, std::slice::from_ref(msg), false);
        self.apply(msg, fault.map(|(action, _)| action))
            .and_then(typed)
    }

    fn send_only(&mut self, msg: &Message) -> Result<()> {
        self.call(msg).map(drop)
    }

    /// Answers a burst frame by frame; a typed `Error` reply stays in
    /// its frame's place, as a windowed connection delivers it.
    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        // A lone frame is faulted as a call is: burst-shape faults need a
        // burst to act on.
        match msgs {
            [] => return Ok(Vec::new()),
            [lone] => return Ok(vec![self.call(lone)?]),
            _ => {}
        }
        // One decision per burst, which any of its frames can match:
        // burst-shape faults (duplicate, reorder) act on the reply vector,
        // a corruption on the first reply with a page of the frames the
        // rule matches, and any other hits the first of them (crash, drop,
        // delay semantics) — the rest are served faithfully.
        let Some((action, filter)) = self.plan.decide(self.id, msgs, true) else {
            return msgs.iter().map(|m| self.apply(m, None)).collect();
        };
        let hit = msgs.iter().position(|m| filter.matches(m));
        let shaped = matches!(
            action,
            FaultAction::DuplicateReply
                | FaultAction::ReorderBurst
                | FaultAction::CorruptReply { .. }
                | FaultAction::CorruptStored { .. }
        );
        let mut replies = Vec::with_capacity(msgs.len());
        for (i, m) in msgs.iter().enumerate() {
            replies.push(self.apply(m, Some(action).filter(|_| hit == Some(i) && !shaped))?);
        }
        let mut matched = (msgs.iter().zip(&mut replies)).filter(|(m, _)| filter.matches(m));
        match action {
            // The last reply becomes a clone of the first: same length,
            // duplicated identity — the client's echoed-key check must
            // refuse it rather than mis-deliver.
            FaultAction::DuplicateReply => {
                let dup = replies[0].clone();
                *replies.last_mut().expect("a burst") = dup;
            }
            FaultAction::ReorderBurst => replies.reverse(),
            FaultAction::CorruptReply { byte, bit } => {
                matched.any(|(_, reply)| reply.flip_payload_bit(byte, bit));
            }
            FaultAction::CorruptStored { byte, bit } => {
                matched.any(|(_, reply)| rot(reply, byte, bit));
            }
            _ => {}
        }
        Ok(replies)
    }

    fn reconnect(&mut self) -> Result<()> {
        if self.server.is_crashed() {
            Err(io_err(
                std::io::ErrorKind::ConnectionRefused,
                "chaos: server down",
            ))
        } else {
            self.disconnected = false;
            Ok(())
        }
    }
}

// --- cluster + endurance driver --------------------------------------------

/// A set of in-process servers sharing one [`FaultPlan`], from which any
/// number of per-shard [`ServerPool`]s can be built. All pools see the
/// same servers (and the same crashes) and read the same [`Clock`]; each
/// transport gets its own session namespace so shards never collide on
/// store keys.
pub struct ChaosCluster {
    plan: Arc<FaultPlan>,
    /// Each server and the link cost its pools' registry gives it.
    servers: Vec<(InProcessServer, f64)>,
    clock: Clock,
}

impl ChaosCluster {
    /// A cluster of `n_servers` default-configured servers under `plan`,
    /// all at link cost 1, on the wall clock.
    pub fn new(n_servers: usize, plan: FaultPlan) -> Self {
        ChaosCluster::with_servers(vec![(ServerConfig::default(), 1.0); n_servers], plan)
    }

    /// A cluster of one server per `(config, link_cost)` pair, under
    /// `plan`, on the wall clock.
    pub fn with_servers(servers: Vec<(ServerConfig, f64)>, plan: FaultPlan) -> Self {
        let servers = servers.into_iter();
        ChaosCluster {
            plan: Arc::new(plan),
            servers: servers
                .map(|(config, cost)| (MemoryServer::in_process(config), cost))
                .collect(),
            clock: Clock::Real,
        }
    }

    /// The cluster on `clock`: its delays wait on it, every pool it builds
    /// reads it — on [`Clock::manual`], a run is a function of its calls.
    pub fn on_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Handle to one server (for direct crash/restart from tests).
    pub fn server(&self, i: usize) -> &InProcessServer {
        &self.servers[i].0
    }

    /// Builds a fresh pool with one chaos transport per server, on the
    /// cluster's clock and with the read deadline of `transport_cfg`.
    pub fn pool(&self, transport_cfg: &TransportConfig) -> ServerPool {
        let mut pool = ServerPool::with_transport_config(transport_cfg.clone());
        pool.set_clock(self.clock.clone());
        for (i, (server, cost)) in self.servers.iter().enumerate() {
            let id = ServerId(i as u32);
            let mut transport = ChaosTransport::new(id, Arc::clone(&self.plan), server.clone());
            transport.clock = self.clock.clone();
            transport.read_timeout = transport_cfg.read_timeout;
            pool.add_transport(id, Box::new(transport), *cost);
        }
        pool
    }

    /// Servers currently down.
    pub fn crashed_servers(&self) -> Vec<ServerId> {
        (self.servers.iter().enumerate())
            .filter(|(_, (s, _))| s.is_crashed())
            .map(|(i, _)| ServerId(i as u32))
            .collect()
    }

    /// Ends the chaos window: disarms the plan and restarts every downed
    /// server (memory stays wiped), returning the ids that were down.
    pub fn heal(&self) -> Vec<ServerId> {
        self.plan.disarm();
        let down = self.crashed_servers();
        for id in &down {
            self.server(id.0 as usize).restart();
        }
        down
    }
}

/// Outcome of one endurance schedule (see [`run_schedule`]).
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Seed the schedule derives from; reruns replay it.
    pub seed: u64,
    /// Policy under test.
    pub policy: Policy,
    /// Operations issued during the chaos window.
    pub ops: u64,
    /// Faults the plan fired.
    pub faults: usize,
    /// Whether a server crash fired during the schedule.
    pub crash_fired: bool,
    /// Pages whose loss the policy legitimately cannot prevent
    /// (NoReliability after a crash).
    pub lost_tolerated: usize,
    /// Invariant violations; empty means the schedule passed.
    pub violations: Vec<String>,
    /// A hash of the fault trace and of every operation's outcome: two
    /// runs of one seed replay one history exactly when theirs agree.
    pub digest: u64,
}

impl ScheduleOutcome {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How one operation of a schedule came back.
type Outcome<'e, T> = std::result::Result<T, &'e RmpError>;

/// Folds the outcome of `op` on page `id` into `journal`.
fn log(journal: &mut DefaultHasher, op: &str, id: u64, done: Outcome<impl std::fmt::Debug>) {
    format!("{op} pg{id} {:?}", done.map_err(|e| e.to_string())).hash(journal);
}

/// Whether some shard's pool of `pager` holds grants, or a refill, on a
/// server it holds dead: they died with it, and a frame placed on one
/// would be lost.
fn grants_on_the_dead(pager: &ShardedPager, shards: usize, servers: u32) -> Option<String> {
    (0..shards).find_map(|shard| {
        let holding = |p: &mut Pager| {
            let pool = p.pool();
            let held = |s| pool.granted_frames(s) + pool.asked_frames(s);
            (0..servers)
                .map(ServerId)
                .find(|&s| !pool.alive(s) && held(s) > 0)
        };
        let server = pager.with_shard(shard, holding)?;
        Some(format!("shard {shard} holds grants on dead {server}"))
    })
}

/// Flushes `pager`: every page still `landing` was acknowledged if the
/// flush reports no failure, and is ambiguous if it does — the failure may
/// be any one of theirs, and a shard's own stops the flush before the
/// later shards' are reported.
fn flush_landed(pager: &ShardedPager, landing: &mut HashSet<u64>, ambiguous: &mut HashSet<u64>) {
    match pager.flush() {
        Ok(()) => landing.clear(),
        Err(_) => ambiguous.extend(landing.drain()),
    }
}

/// Runs one randomized seeded fault schedule against a two-shard
/// [`ShardedPager`] under `policy` and checks the durability invariants:
///
/// 1. **No acked page is lost or corrupted** — every page whose
///    `page_out` returned `Ok`, and whose landing reported no error on the
///    page's next operation or the next `flush`, reads back bit-exact
///    after the cluster heals, unless it was ambiguously overwritten since
///    (NoReliability is excused from *loss* — but never corruption — when
///    a crash fired).
/// 2. **Only typed errors surface** — faults become `RmpError`s, never
///    panics or garbage data.
/// 3. **Recovery converges** — after healing, the recovery backlog
///    drains to zero within a bounded number of maintenance ticks.
/// 4. **The read-ahead ledger balances** — on every shard, pages issued
///    equal hits plus useless plus those still held.
/// 5. **No grant outlives its server** — after the chaos window and at
///    the end, no pool holds frames granted by a server it holds dead.
/// 6. **Every pagein counted is a page returned.**
/// 7. **Nothing is left landing** — after the final flush, every shard's
///    `pager_landings` gauge reads 0.
/// 8. **The registry and the stats agree** — at the end, each of
///    `pager_{pageouts,pageins,degraded_reads,checksum_failures}_total`,
///    summed over shards, equals its [`TransferStats`](rmp_types::TransferStats) field.
///
/// On a manual clock, the run is a function of `seed` alone.
///
/// The returned [`ScheduleOutcome`] lists every violation with enough
/// context to replay from `seed`.
pub fn run_schedule(policy: Policy, seed: u64) -> ScheduleOutcome {
    let n_servers = match policy {
        // Parity wants data + dedicated parity; erasure coding wants
        // k + r = 3 distinct servers for its default 2 + 1 stripe.
        Policy::BasicParity | Policy::ParityLogging | Policy::ErasureCoded => 3,
        _ => 2,
    };
    let cluster =
        ChaosCluster::new(n_servers, FaultPlan::random(seed, n_servers)).on_clock(Clock::manual());
    let shards = 2usize;
    let config = PagerConfig::new(policy)
        .with_servers(2)
        .with_shard_count(shards);
    let pools = (0..shards).map(|_| cluster.pool(&config.transport));
    let pager = ShardedPager::builder(config.clone())
        .pools(pools.collect())
        .disks(
            (0..shards)
                .map(|_| Box::new(RamDisk::unbounded()) as Box<dyn rmp_blockdev::PagingDevice>)
                .collect(),
        )
        .build()
        .expect("chaos pager builds");

    let mut outcome = ScheduleOutcome {
        seed,
        policy,
        ops: 0,
        faults: 0,
        crash_fired: false,
        lost_tolerated: 0,
        violations: Vec::new(),
        digest: 0,
    };
    // Model of what the pager owes us: id → fill value of the last
    // *acknowledged* write. Ids whose last write or free failed are
    // `ambiguous` — either outcome is legal, so they leave the model's
    // strict set (their reads must still be well-typed, never garbage
    // *acknowledged* as good).
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut ambiguous: HashSet<u64> = HashSet::new();
    // Ids whose last `page_out` returned `Ok` and may still be landing:
    // an error of the id's next operation, or of the next flush, may be
    // that landing's, and then the write is ambiguous too.
    let mut landing: HashSet<u64> = HashSet::new();
    // `page_in` calls that returned a page.
    let mut served = 0u64;
    let mut journal = DefaultHasher::new();

    // Phase 1: fixture state, faults disarmed — every write must land.
    for i in 0..64u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("disarmed writes succeed");
        model.insert(i, i);
    }

    // Phase 2: the chaos window.
    cluster.plan().arm();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc3a5_c85c_97cb_3127);
    for _ in 0..300u32 {
        outcome.ops += 1;
        let roll = rng.gen_range(0u32..100);
        if roll < 45 {
            let id = rng.gen_range(0u64..96);
            let fill = rng.gen_range(0u64..1 << 32);
            let done = pager.page_out(PageId(id), &Page::deterministic(fill));
            log(&mut journal, "out", id, done.as_ref().map(|()| fill));
            match done {
                Ok(()) => {
                    model.insert(id, fill);
                    ambiguous.remove(&id);
                    landing.insert(id);
                }
                Err(_) => {
                    // The write may or may not have reached any replica.
                    ambiguous.insert(id);
                    landing.remove(&id);
                }
            }
        } else if roll < 80 {
            let id = rng.gen_range(0u64..96);
            // Mid-chaos read errors are legal (a replica may be down
            // and recovery hasn't run); the post-heal sweep is strict.
            let done = pager.page_in(PageId(id));
            log(&mut journal, "in", id, done.as_ref().map(Page::checksum));
            match done {
                Ok(page) => {
                    served += 1;
                    if let Some(&fill) = model.get(&id) {
                        if !ambiguous.contains(&id) && page != Page::deterministic(fill) {
                            outcome.violations.push(format!(
                                "seed {seed} {policy:?}: mid-chaos read of pg{id} \
                                 returned wrong bytes"
                            ));
                        }
                    }
                }
                Err(_) if landing.remove(&id) => {
                    ambiguous.insert(id);
                }
                Err(_) => {}
            }
            // A read served from the page a landing keeps leaves the
            // landing to report to a later operation: `id` stays in
            // `landing` until an error or a flush settles it.
        } else if roll < 90 {
            let id = rng.gen_range(0u64..96);
            let done = pager.free(PageId(id));
            log(&mut journal, "free", id, done.as_ref());
            match done {
                Ok(()) => {
                    model.remove(&id);
                    ambiguous.remove(&id);
                }
                Err(_) => {
                    ambiguous.insert(id);
                }
            }
            landing.remove(&id);
        } else if roll < 95 {
            flush_landed(&pager, &mut landing, &mut ambiguous);
        } else {
            let _ = pager.periodic_maintenance();
        }
    }
    outcome.faults = cluster.plan().events().len();
    outcome.crash_fired = cluster.plan().events().iter().any(|e| e.action == "crash");
    let dead_grants = grants_on_the_dead(&pager, shards, n_servers as u32);
    (outcome.violations).extend(dead_grants.map(|v| format!("seed {seed} {policy:?}: {v}")));

    // Phase 3: heal and converge. In-process transports have no socket
    // to redial, so each shard's pool absolves every server (detector
    // state and grants are forgotten) before recovery reconstructs what
    // the crashed ones lost.
    let down = cluster.heal();
    for shard in 0..shards {
        pager.with_shard(shard, |p| {
            for s in 0..n_servers {
                p.pool_mut().absolve(ServerId(s as u32));
            }
            // Re-learn capacities: replacement-copy placement consults
            // each server's last reported free pages.
            p.pool_mut().refresh_loads();
        });
    }
    let fired = cluster.plan().events().into_iter();
    let fired = fired.filter(|e| e.action == "crash").map(|e| e.server);
    let mut crashed: Vec<ServerId> = fired.chain(down).collect();
    crashed.sort_by_key(|s| s.0);
    crashed.dedup();
    for id in crashed {
        // NoReliability has nothing to rebuild from; anything else
        // failing here is judged by the strict sweep below.
        let _ = pager.recover_from_crash(id);
    }
    let mut converged = false;
    for _ in 0..50 {
        if pager.recovery_backlog() == 0 {
            converged = true;
            break;
        }
        let _ = pager.periodic_maintenance();
    }
    if !converged {
        outcome.violations.push(format!(
            "seed {seed} {policy:?}: recovery backlog stuck at {} after 50 ticks",
            pager.recovery_backlog()
        ));
    }
    // Everything has landed; a landing that failed unreported says so.
    flush_landed(&pager, &mut landing, &mut ambiguous);
    for shard in 0..shards {
        let landings = |p: &mut Pager| p.metrics().gauge("pager_landings").get();
        let left = pager.with_shard(shard, landings);
        if left > 0 {
            outcome.violations.push(format!(
                "seed {seed} {policy:?}: shard {shard} holds {left} landings after the flush"
            ));
        }
    }

    // Phase 4: strict verification of every unambiguous acked page.
    let mut owed: Vec<(u64, u64)> = model.into_iter().collect();
    owed.sort_unstable();
    for (id, fill) in owed {
        let read = pager.page_in(PageId(id));
        log(&mut journal, "final", id, read.as_ref().map(Page::checksum));
        served += u64::from(read.is_ok());
        if ambiguous.contains(&id) {
            // Either outcome is legal; it just must not panic.
            continue;
        }
        match read {
            Ok(page) => {
                if page != Page::deterministic(fill) {
                    outcome.violations.push(format!(
                        "seed {seed} {policy:?}: pg{id} corrupted after heal"
                    ));
                }
            }
            Err(RmpError::PageNotFound(_)) | Err(RmpError::Unrecoverable(_))
                if policy == Policy::NoReliability && outcome.crash_fired =>
            {
                // The one policy that promises nothing across a crash.
                outcome.lost_tolerated += 1;
            }
            Err(e) => {
                outcome.violations.push(format!(
                    "seed {seed} {policy:?}: pg{id} unreadable after heal: {e}"
                ));
            }
        }
    }

    // The read-ahead ledger balances whatever happened: a page issued
    // is a hit, useless, or still held.
    for shard in 0..shards {
        let (issued, accounted) = pager.with_shard(shard, |p| {
            let count = |what| (p.metrics().counter(&format!("pager_prefetch_{what}_total"))).get();
            let accounted = count("hits") + count("useless") + p.read_ahead_held() as u64;
            (count("issued"), accounted)
        });
        if issued != accounted {
            outcome.violations.push(format!(
                "seed {seed} {policy:?}: shard {shard} accounts for {accounted} of {issued} read-aheads"
            ));
        }
    }
    let dead_grants = grants_on_the_dead(&pager, shards, n_servers as u32);
    (outcome.violations).extend(dead_grants.map(|v| format!("seed {seed} {policy:?}: {v}")));
    format!("{:?}", cluster.plan().events()).hash(&mut journal);
    outcome.digest = journal.finish();
    let stats = pager.stats();
    if stats.pageins != served {
        outcome.violations.push(format!(
            "seed {seed} {policy:?}: {} pageins counted for {served} pages returned",
            stats.pageins
        ));
    }
    let ledgers = [
        ("pageouts", stats.pageouts),
        ("pageins", stats.pageins),
        ("degraded_reads", stats.degraded_reads),
        ("checksum_failures", stats.checksum_failures),
    ];
    for (what, booked) in ledgers {
        let name = format!("pager_{what}_total");
        let counted: u64 = (0..shards)
            .map(|shard| pager.with_shard(shard, |p| p.metrics().counter(&name).get()))
            .sum();
        if counted != booked {
            outcome.violations.push(format!(
                "seed {seed} {policy:?}: {name} reads {counted}, the stats {booked}"
            ));
        }
    }
    outcome
}

/// The engine's own tests, under the module path they had while the
/// engine was a module of `rmp-core`, so their names stay comparable
/// across the history of the suite.
#[cfg(test)]
mod chaos {
    mod tests {
        use crate::*;
        use rmp_types::StoreKey;

        /// `n` servers under `plan` and a pool over them, on a manual clock:
        /// backoffs cost no wall time.
        fn quiet(n: usize, plan: FaultPlan) -> (ChaosCluster, ServerPool) {
            let cluster = ChaosCluster::new(n, plan).on_clock(Clock::manual());
            let pool = cluster.pool(&TransportConfig::default());
            (cluster, pool)
        }

        #[test]
        fn disarmed_plan_serves_faithfully() {
            let rule = FaultRule::new(FaultAction::Drop);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(7).with_rule(rule));
            pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
                .expect("disarmed plan injects nothing");
            assert_eq!(cluster.plan().calls(), 0, "disarmed calls are not counted");
            assert!(cluster.plan().events().is_empty());
        }

        #[test]
        fn drop_rides_through_retry_and_is_traced() {
            let rule = FaultRule::new(FaultAction::Drop).times(1);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(7).with_rule(rule));
            cluster.plan().arm();
            pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
                .expect("one drop is absorbed by the retry budget");
            let events = cluster.plan().events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].action, "drop");
            assert_eq!(events[0].server, ServerId(0));
        }

        #[test]
        fn blackhole_executes_but_times_out() {
            let rule = FaultRule::new(FaultAction::BlackholeReply).times(1);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(3).with_rule(rule));
            cluster.plan().arm();
            // The first attempt stores the page server-side and loses the
            // reply; the retry overwrites idempotently and succeeds.
            pool.page_out(ServerId(0), StoreKey(9), &Page::deterministic(9))
                .expect("retry lands");
            assert_eq!(cluster.server(0).stored_pages(), 1);
            assert_eq!(
                pool.page_in(ServerId(0), StoreKey(9)).expect("read back"),
                Page::deterministic(9)
            );
        }

        #[test]
        fn corrupt_reply_is_caught_by_checksums() {
            let (cluster, mut pool) = quiet(
                1,
                FaultPlan::seeded(3).with_rule(
                    FaultRule::new(FaultAction::CorruptReply { byte: 17, bit: 3 })
                        .on_ops(OpFilter::Op(Opcode::PageIn))
                        .times(1),
                ),
            );
            pool.page_out(ServerId(0), StoreKey(4), &Page::deterministic(4))
                .expect("store");
            cluster.plan().arm();
            // The corrupted reply must never be accepted as good data: the
            // pool's end-to-end verification rejects it, and the clean retry
            // (rule budget exhausted) returns the true bytes.
            let page = pool.page_in(ServerId(0), StoreKey(4));
            match page {
                Ok(p) => assert_eq!(p, Page::deterministic(4), "corrupt bytes accepted"),
                Err(e) => assert!(
                    matches!(e, RmpError::CorruptPage { .. } | RmpError::Corrupt(_)),
                    "unexpected error {e}"
                ),
            }
        }

        #[test]
        fn crash_downs_server_until_restart() {
            let rule = FaultRule::new(FaultAction::Crash).times(1);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(5).with_rule(rule));
            pool.page_out(ServerId(0), StoreKey(2), &Page::deterministic(2))
                .expect("store");
            cluster.plan().arm();
            let err = pool
                .page_in(ServerId(0), StoreKey(2))
                .expect_err("crashed server cannot answer");
            assert!(err.is_server_failure(), "typed server failure, got {err}");
            assert!(cluster.server(0).is_crashed());
            assert_eq!(cluster.server(0).stored_pages(), 0, "crash wipes memory");
            let down = cluster.heal();
            assert_eq!(down, vec![ServerId(0)]);
            pool.absolve(ServerId(0));
            pool.page_out(ServerId(0), StoreKey(2), &Page::deterministic(3))
                .expect("healed server serves again");
        }

        #[test]
        fn overload_is_typed_and_transient() {
            let rule = FaultRule::new(OVERLOAD).times(1);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(5).with_rule(rule));
            cluster.plan().arm();
            pool.page_out(ServerId(0), StoreKey(1), &Page::deterministic(1))
                .expect("overload backs off and retries");
            assert!(pool.alive(ServerId(0)), "overload must not kill the server");
        }

        #[test]
        fn same_seed_same_call_sequence_same_trace() {
            let trace = |seed: u64| {
                let (cluster, mut pool) = quiet(
                    2,
                    FaultPlan::seeded(seed)
                        .with_rule(
                            FaultRule::new(FaultAction::Drop)
                                .on_ops(OpFilter::DataOps)
                                .with_probability(0.3),
                        )
                        .with_rule(FaultRule::new(OVERLOAD).with_probability(0.2)),
                );
                cluster.plan().arm();
                for i in 0..40u64 {
                    let _ = pool.page_out(
                        ServerId((i % 2) as u32),
                        StoreKey(i),
                        &Page::deterministic(i),
                    );
                }
                cluster.plan().events()
            };
            let a = trace(42);
            let b = trace(42);
            assert!(!a.is_empty(), "a 30% drop rule over 40 calls fires");
            assert_eq!(a, b, "identical seeds and call sequences diverged");
            let c = trace(43);
            assert_ne!(a, c, "different seeds should explore different faults");
        }

        #[test]
        fn random_plans_are_seed_deterministic() {
            let events = |seed: u64| {
                let (cluster, mut pool) = quiet(2, FaultPlan::random(seed, 2));
                cluster.plan().arm();
                for i in 0..30u64 {
                    let _ = pool.page_out(
                        ServerId((i % 2) as u32),
                        StoreKey(i),
                        &Page::deterministic(i),
                    );
                }
                cluster.plan().events()
            };
            assert_eq!(events(11), events(11));
        }

        /// A transport onto server 0 of a one-server cluster under
        /// `rule`, holding pages 1 and 3; the plan armed.
        fn holding_two(rule: FaultRule) -> (ChaosCluster, ChaosTransport) {
            let cluster = ChaosCluster::new(1, FaultPlan::seeded(1).with_rule(rule));
            let plan = Arc::clone(cluster.plan());
            let mut transport = ChaosTransport::new(ServerId(0), plan, cluster.server(0).clone());
            transport
                .call_pipelined(&[store(1), store(3)])
                .expect("stores");
            cluster.plan().arm();
            (cluster, transport)
        }

        fn store(id: u64) -> Message {
            let page = Page::deterministic(id);
            Message::PageOut {
                id: StoreKey(id),
                checksum: page.checksum(),
                page,
            }
        }

        fn read(id: u64) -> Message {
            Message::PageIn { id: StoreKey(id) }
        }

        #[test]
        fn a_rule_matches_a_burst_by_any_frame_and_hits_that_frame() {
            let refuse = FaultRule::new(FaultAction::Refuse(ErrorCode::OutOfMemory))
                .on_ops(OpFilter::Op(Opcode::PageOut))
                .times(1);
            let (cluster, mut transport) = holding_two(refuse);
            // The read is served; the store riding second is the frame the
            // rule refuses, unexecuted.
            let err = transport
                .call_pipelined(&[read(1), store(2)])
                .expect_err("the store was refused");
            assert!(
                matches!(
                    err,
                    RmpError::Remote {
                        code: ErrorCode::OutOfMemory,
                        ..
                    }
                ),
                "{err}"
            );
            let events = cluster.plan().events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].opcode, Opcode::PageOut);
            assert_eq!(cluster.server(0).stored_pages(), 2, "the refused store ran");
        }

        #[test]
        fn a_corruption_flips_the_reply_of_the_frame_it_matched() {
            let flip = FaultRule::new(FaultAction::CorruptReply { byte: 5, bit: 1 })
                .on_ops(OpFilter::Op(Opcode::PageIn))
                .times(1);
            let (_cluster, mut transport) = holding_two(flip);
            let replies = transport
                .call_pipelined(&[store(2), read(1), read(3)])
                .expect("served");
            let page = |reply: &Message| match reply {
                Message::PageInReply { page, .. } => page.clone(),
                other => panic!("{other:?}"),
            };
            assert_ne!(page(&replies[1]), Page::deterministic(1), "not flipped");
            assert_eq!(page(&replies[2]), Page::deterministic(3), "the wrong frame");
        }

        #[test]
        fn windowed_rule_fires_only_inside_its_window() {
            let drop = FaultRule::new(FaultAction::Drop).in_window(5..6).times(1);
            let (cluster, mut pool) = quiet(1, FaultPlan::seeded(1).with_rule(drop));
            cluster.plan().arm();
            for i in 0..10u64 {
                let _ = pool.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i));
            }
            let events = cluster.plan().events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].index, 5);
        }
    }
}
