//! The scripted wire of `scatter_waves.rs` and `split_phase.rs`: a pool
//! talks to transports whose submissions complete only when the test
//! says so ([`PendingReplies::deferred`]), so a test can hold a reply
//! back, see what else reaches the wire meanwhile, and answer in any
//! order — no assertion compares a duration against a threshold. Also
//! what every suite pages through: a one-shard pager ([`one_shard`]),
//! and a pageout that lands before it returns ([`landed`]).
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_core::{Clock, Completion, PendingReplies, ServerPool, ServerTransport, ShardedPager};
use rmp_proto::{Message, Opcode};
use rmp_server::{InProcessServer, InProcessSession, MemoryServer, ServerConfig};
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Result, RetryPolicy, RmpError, ServerId, TransportConfig,
};

/// How long the test thread waits for a wave to assemble before it
/// declares the operation stuck. Only ever reached by a failing test.
pub const STUCK: Duration = Duration::from_secs(10);

/// What one wave carried: the request opcodes, per burst.
pub type WaveLog = Vec<(ServerId, Vec<Opcode>)>;

/// One burst on the wire: already served, not yet answered.
pub struct Flight {
    pub server: ServerId,
    pub completion: Completion,
    pub replies: Vec<Message>,
}

#[derive(Default)]
pub struct WireState {
    pub flying: Vec<Flight>,
    /// Opcodes of the frames answered as calls since last asked (see
    /// [`a_call`]), for tests that check what went *outside* a wave.
    pub calls: Vec<(ServerId, Opcode)>,
    /// Opcodes of every frame submitted, lost ones included, in order.
    pub sent: Vec<(ServerId, Opcode)>,
    /// Servers whose next burst is lost, once per entry: it is never
    /// served, and its replies time out.
    pub lost: Vec<ServerId>,
    /// Frames each allocation a server answered granted, in order.
    pub granted: Vec<(ServerId, u32)>,
    /// Servers whose next `PageOut` is refused as out of memory.
    pub refuse_store: Vec<ServerId>,
    /// Servers that answer every read with a page of the given length —
    /// a unit where a page was stored, or the reverse — under a checksum
    /// that matches it.
    pub bent_reads: Vec<(ServerId, usize)>,
    /// Servers that die with their next burst on the wire: it was served
    /// but is never answered.
    pub dying: Vec<ServerId>,
    /// Servers that are down: calls, submissions and redials are refused.
    pub dead: Vec<ServerId>,
    /// Redials attempted, per dead server.
    pub redials: Vec<ServerId>,
    /// Calls and submissions a dead server refused: the dials it got.
    pub refused: Vec<ServerId>,
}

/// The wire all transports of one pool share.
#[derive(Default)]
pub struct Wire {
    state: Mutex<WireState>,
    pub changed: Condvar,
}

impl Wire {
    pub fn state(&self) -> MutexGuard<'_, WireState> {
        self.state.lock().expect("wire lock")
    }

    /// Waits until exactly `frames` frames are outstanding.
    pub fn wait_for(&self, frames: usize) -> MutexGuard<'_, WireState> {
        let outstanding = |st: &WireState| st.flying.iter().map(|f| f.replies.len()).sum::<usize>();
        let (st, timeout) = self
            .changed
            .wait_timeout_while(self.state(), STUCK, |st| outstanding(st) < frames)
            .expect("wire lock");
        assert!(
            !timeout.timed_out(),
            "the operation waited with {} of {frames} frames on the wire",
            outstanding(&st)
        );
        assert_eq!(outstanding(&st), frames, "the wave is wider than expected");
        st
    }

    /// Waits until exactly `frames` frames are outstanding, then answers
    /// them all. Returns the opcodes the wave carried, per burst.
    pub fn release_wave(&self, frames: usize) -> WaveLog {
        let mut st = self.wait_for(frames);
        let dying = std::mem::take(&mut st.dying);
        let mut wave = Vec::new();
        for flight in std::mem::take(&mut st.flying) {
            let ops = flight.replies.iter().map(reply_to).collect();
            wave.push((flight.server, ops));
            flight
                .completion
                .complete(if dying.contains(&flight.server) {
                    st.dead.push(flight.server);
                    Err(refused("died mid-wave"))
                } else {
                    Ok(flight.replies)
                });
        }
        wave
    }

    pub fn calls(&self) -> Vec<(ServerId, Opcode)> {
        std::mem::take(&mut self.state().calls)
    }
}

/// The request opcode a reply answers (all the waves here carry).
pub fn reply_to(reply: &Message) -> Opcode {
    match reply {
        Message::PageOutAck { .. } | Message::Error { .. } => Opcode::PageOut,
        Message::FreeAck { .. } => Opcode::Free,
        Message::PageInReply { .. } | Message::PageInMiss { .. } => Opcode::PageIn,
        Message::LoadReport { .. } => Opcode::LoadQuery,
        other => panic!("unexpected {:?} in a wave", other.opcode()),
    }
}

pub fn refused(why: &'static str) -> RmpError {
    RmpError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionRefused,
        why,
    ))
}

pub struct WaveTransport {
    id: ServerId,
    session: InProcessSession,
    wire: Arc<Wire>,
}

impl WaveTransport {
    /// Serves `msg`, bent to the script; fails as a connection to a
    /// crashed server does.
    fn serve(&self, st: &mut WireState, msg: &Message) -> Result<Message> {
        let refusing = st.refuse_store.iter().position(|&s| s == self.id);
        if let (Message::PageOut { .. }, Some(at)) = (msg, refusing) {
            st.refuse_store.remove(at);
            return Ok(Message::Error {
                code: ErrorCode::OutOfMemory,
                message: "scripted refusal".into(),
            });
        }
        let reply = self.session.serve(msg.clone())?;
        if let Message::AllocReply { granted, .. } = reply {
            st.granted.push((self.id, granted));
        }
        let bent = st.bent_reads.iter().find(|&&(s, _)| s == self.id);
        Ok(match (reply, bent) {
            (Message::PageInReply { id, .. }, Some(&(_, len))) => {
                let page =
                    Page::unit(&Page::deterministic(id.0).as_ref()[..len]).expect("a length");
                Message::PageInReply {
                    id,
                    checksum: page.checksum(),
                    page,
                }
            }
            (reply, _) => reply,
        })
    }
}

/// Whether `msgs` is a frame no wave carries — an allocation, a listing,
/// a stats query, basic parity's delta or its fold, a crash injection,
/// which the pool only ever sends alone: such a frame is answered as it
/// is submitted, and logged as a call.
fn a_call(msgs: &[Message]) -> bool {
    matches!(
        msgs,
        [Message::Alloc { .. }
            | Message::ListPages { .. }
            | Message::GetStats
            | Message::PageOutDelta { .. }
            | Message::XorInto { .. }
            | Message::InjectCrash]
    )
}

impl ServerTransport for WaveTransport {
    fn call(&mut self, _msg: &Message) -> Result<Message> {
        unreachable!("the pool only submits")
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        unreachable!("the pool only submits")
    }

    fn reconnect(&mut self) -> Result<()> {
        let mut st = self.wire.state();
        if st.dead.contains(&self.id) {
            st.redials.push(self.id);
            return Err(refused("still down"));
        }
        Ok(())
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        let mut st = self.wire.state();
        st.sent.extend(msgs.iter().map(|m| (self.id, m.opcode())));
        if st.dead.contains(&self.id) {
            st.refused.push(self.id);
            return Some(Err(refused("down")));
        }
        let (pending, completion) = PendingReplies::deferred(msgs.len(), STUCK);
        if let Some(at) = st.lost.iter().position(|&s| s == self.id) {
            st.lost.remove(at);
            let lost = std::io::Error::new(std::io::ErrorKind::TimedOut, "lost on the wire");
            completion.complete(Err(RmpError::Io(lost)));
            return Some(Ok(pending));
        }
        let replies = msgs.iter().map(|m| self.serve(&mut st, m)).collect();
        if a_call(msgs) {
            // The reply to an `InjectCrash` is its connection's reset.
            st.calls.push((self.id, msgs[0].opcode()));
            completion.complete(replies);
        } else {
            let replies = match replies {
                Ok(replies) => replies,
                Err(e) => return Some(Err(e)),
            };
            st.flying.push(Flight {
                server: self.id,
                completion,
                replies,
            });
            self.wire.changed.notify_all();
        }
        Some(Ok(pending))
    }
}

/// A pool of `n` scripted servers on one wire.
pub fn wave_pool(n: usize) -> (Arc<Wire>, Vec<InProcessServer>, ServerPool) {
    let wire = Arc::new(Wire::default());
    // The read deadline only ever fails a broken operation; the retry
    // ladder is kept short so the death test walks it quickly.
    let mut pool = ServerPool::with_transport_config(TransportConfig {
        read_timeout: STUCK / 2,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    });
    // A reply arrives when the test thread releases it: on a manual clock
    // it takes no time, so only a miss may raise suspicion (a test that
    // wants latency scored puts the pool back on the wall clock).
    pool.set_clock(Clock::manual());
    let mut servers = Vec::new();
    for i in 0..n {
        let id = ServerId(i as u32);
        let server = MemoryServer::in_process(ServerConfig::default());
        let transport = WaveTransport {
            id,
            session: server.session(),
            wire: Arc::clone(&wire),
        };
        pool.add_transport(id, Box::new(transport), 1.0);
        servers.push(server);
    }
    (wire, servers, pool)
}

/// A one-shard pager over `pool`, paging to `disks`: its shard's disk,
/// or none.
pub fn one_shard(
    config: PagerConfig,
    pool: ServerPool,
    disks: Vec<Box<dyn PagingDevice>>,
) -> ShardedPager {
    ShardedPager::builder(config.with_shard_count(1))
        .pools(vec![pool])
        .disks(disks)
        .build()
        .expect("pager")
}

/// A one-shard pager over `n` scripted servers, with a RAM disk.
pub fn wave_pager(
    config: PagerConfig,
    n: usize,
) -> (Arc<Wire>, Vec<InProcessServer>, ShardedPager) {
    let (wire, servers, pool) = wave_pool(n);
    let transport = pool.transport_config().clone();
    // No read-ahead: its submissions are not part of any operation.
    let config = config.with_prefetch_window(0).with_transport(transport);
    let disk: Box<dyn PagingDevice> = Box::new(RamDisk::unbounded());
    (wire, servers, one_shard(config, pool, vec![disk]))
}

/// What shard 0's `name` counter reads.
pub fn counted(pager: &ShardedPager, name: &str) -> u64 {
    pager.with_shard(0, |p| p.metrics().counter(name).get())
}

/// Pages `page` out under `id` and lands it before returning (`stats`
/// lands every landing): each wave the pageout costs — its completion's,
/// a re-home or a rerun, included — is sent within the call, as for a
/// caller that waits for its ack. Panics if the landing failed: a test
/// that expects a failure reads it where a landing reports it.
pub fn landed(pager: &ShardedPager, id: PageId, page: &Page) -> Result<()> {
    let failed = || counted(pager, "pager_pageout_errors_total");
    let before = failed();
    pager.page_out(id, page)?;
    pager.stats();
    assert_eq!(failed(), before, "the pageout of {id} failed as it landed");
    Ok(())
}

/// A two-shard pager, each shard over `n` scripted servers and a wire of
/// its own. Returns the wire and servers of shard 0, where every even
/// page lives; shard 1 sees no traffic unless a test sends it some.
pub fn wave_sharded(
    config: PagerConfig,
    n: usize,
) -> (Arc<Wire>, Vec<InProcessServer>, Arc<ShardedPager>) {
    // No read-ahead: its submissions are not part of any operation.
    let ([wire, _], servers, pager) = wave_shards(config.with_prefetch_window(0), n);
    (wire, servers, pager)
}

/// As [`wave_sharded`], with read-ahead as `config` has it and both
/// shards' wires.
pub fn wave_shards(
    config: PagerConfig,
    n: usize,
) -> ([Arc<Wire>; 2], Vec<InProcessServer>, Arc<ShardedPager>) {
    let (wire, servers, pool) = wave_pool(n);
    let (odd, _, mut sibling) = wave_pool(n);
    // One clock for both shards: a rung one shard passes on is due when
    // it is due on the other's.
    sibling.set_clock(pool.clock().clone());
    let transport = pool.transport_config().clone();
    let config = config.with_transport(transport).with_shard_count(2);
    let pager = ShardedPager::builder(config)
        .pools(vec![pool, sibling])
        .build()
        .expect("sharded pager");
    ([wire, odd], servers, Arc::new(pager))
}

/// Runs `op` while the test thread answers exactly the waves of `widths`
/// frames, in that order, and checks that nothing else was submitted.
/// Returns `op`'s result and what each wave carried.
pub fn in_waves<R: Send>(
    wire: &Wire,
    widths: &[usize],
    op: impl FnOnce() -> R + Send,
) -> (R, Vec<WaveLog>) {
    std::thread::scope(|scope| {
        let worker = scope.spawn(op);
        let waves = widths.iter().map(|&w| wire.release_wave(w)).collect();
        let done = worker.join().expect("operation thread");
        assert!(
            wire.state().flying.is_empty(),
            "the operation submitted a wave beyond the expected ones"
        );
        (done, waves)
    })
}

/// The servers a wave reached, sorted, and the opcodes it carried, sorted.
pub fn shape(wave: &WaveLog) -> (Vec<u32>, Vec<Opcode>) {
    let mut servers: Vec<u32> = wave.iter().map(|(s, _)| s.0).collect();
    servers.sort_unstable();
    let mut ops: Vec<Opcode> = wave.iter().flat_map(|(_, ops)| ops.clone()).collect();
    ops.sort_by_key(|op| *op as u8);
    (servers, ops)
}
