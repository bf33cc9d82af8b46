//! The windowed transport: a request window on one connection, read by
//! whoever waits on it.
//!
//! A request/response socket parks the calling thread for every in-flight
//! request, so a single client thread can never keep more than one frame
//! on the wire. Every pool connection instead carries a window: requests
//! are wrapped in seq-tagged [`Message::Windowed`] envelopes, the
//! submitting thread encodes a burst into the connection's one reusable
//! buffer, reserves window slots under the shared lock and writes the
//! burst itself (one `write`, outside the lock), and each reply — which
//! may arrive out of order — is matched back to its per-call completion
//! slot by seq. Submission is decoupled from completion, so demand
//! pageins, prefetch batches, recovery fetches, and pageouts all overlap
//! on one connection while `Pager`'s synchronous API stays untouched.
//!
//! A burst of only stores and frees — a split-phase pageout nobody waits
//! for yet — gets its seqs and slots but is *held*: its bytes stay in the
//! buffer, and leave, in submission order, in one write with the next
//! burst that is not all stores and frees; before any caller blocks on
//! the connection (a wait on a reply, a window-full stall), sends a bare
//! frame or tears it down; or once [`HOLD_MAX`] bytes would be held. A
//! pageout then costs no `write` and no server wake-up of its own. A
//! poll sends nothing, and a frame's read deadline counts from the write
//! that sent it.
//!
//! No thread exists to read the socket. A caller that has to wait for a
//! reply takes the connection's read side if nobody holds it (it leads),
//! blocks in `read(2)`, and completes every reply a read brings, its own
//! and other callers'. A caller that finds the read side taken follows:
//! it sleeps on its slot until the leader completes it or leaves, and a
//! leaving leader wakes every sleeper so one of them takes over. A lone
//! caller therefore reads its own reply, with no thread between the
//! kernel and the fault (leader/follower; see `DESIGN.md` §10).
//!
//! The window itself is negotiated at connect time: the client sends
//! [`Message::Hello`] asking for [`rmp_types::TransportConfig::window_max_inflight`]
//! outstanding frames and the server grants at most its own per-session
//! cap. Submissions beyond the granted window stall (counted in
//! [`WindowStats::stalls`]) until a completion frees a slot, bounding both
//! client memory and server queue depth.
//!
//! Lock order: `Shared::writer` before `Shared::reader` before
//! `Shared::inner` before any slot lock. Every socket write goes through
//! `writer` — a submitter's, and a waiter's sending what is held before
//! it waits — and it is never taken under another lock. A leader
//! completes replies under `inner` while it holds `reader`; a submitter
//! takes `inner` under `writer`, and lets go of it to write; a follower
//! takes its slot's lock alone and releases it before it tries `reader`,
//! or `inner` to abandon a timed-out seq.
//!
//! # Examples
//!
//! ```
//! use rmp_core::reactor::WindowedTransport;
//! use rmp_proto::Message;
//! use rmp_server::{MemoryServer, ServerConfig};
//! use rmp_types::TransportConfig;
//!
//! let server = MemoryServer::spawn(ServerConfig::default()).unwrap();
//! let addr = server.addr().to_string();
//! let mut t = WindowedTransport::connect_with(&addr, &TransportConfig::default()).unwrap();
//!
//! // Submit two requests back to back, then collect both replies: they
//! // share the connection and the server may answer either first.
//! let pending = t.submit(&[Message::LoadQuery, Message::GetStats]).unwrap();
//! let replies = pending.wait_all().unwrap();
//! assert!(matches!(replies[0], Message::LoadReport { .. }));
//! assert!(matches!(replies[1], Message::StatsReply { .. }));
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rmp_proto::wire::HEADER_LEN;
use rmp_proto::{FrameAccumulator, Framed, Message};
use rmp_types::{ErrorCode, Result, RmpError, TransportConfig};

use crate::transport::ServerTransport;

/// The longest a leader's blocking read waits before it rechecks its
/// slot: the socket's `SO_RCVTIMEO`, set again only when a deadline
/// closer than this shortens it. Data arrival wakes the reader at once.
const READ_TICK: Duration = Duration::from_millis(100);

/// The most bytes of stores and frees a connection holds back for the
/// next write: about four whole pages. A read that takes held stores
/// along is answered after the server has stored them; held without
/// bound, a random read mix's pageins and set-up slowed by 4-10 %.
pub const HOLD_MAX: usize = 32 * 1024;

/// Cumulative counters of one windowed connection, snapshotted by
/// [`WindowedTransport::stats`]. Counters reset when the connection is
/// re-established.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Granted window (outstanding-frame limit) of this connection.
    pub window: usize,
    /// Seq-tagged frames currently awaiting replies.
    pub inflight: usize,
    /// Times a submission found the window full and had to wait.
    pub stalls: u64,
    /// Frames submitted onto the window.
    pub submitted: u64,
    /// Replies matched back to a waiting slot.
    pub completed: u64,
    /// Replies whose seq no longer had a waiter (abandoned after a
    /// deadline); dropped on the floor.
    pub late_replies: u64,
    /// Reads of the connection by its waiters: a leader's blocking reads
    /// (reply bytes arrived, or a tick passed) and the polls of
    /// [`PendingReplies::is_ready`].
    pub wakeups: u64,
}

/// Why a connection stopped serving; reproduced into an error for every
/// pending and future call ([`RmpError`] is not `Clone`, so each slot gets
/// a freshly built instance).
#[derive(Debug)]
enum Dead {
    Io(io::ErrorKind, String),
    Remote(ErrorCode, String),
}

impl Dead {
    fn to_error(&self) -> RmpError {
        match self {
            Dead::Io(kind, msg) => RmpError::Io(io::Error::new(*kind, msg.clone())),
            Dead::Remote(code, message) => RmpError::Remote {
                code: *code,
                message: message.clone(),
            },
        }
    }
}

/// One frame's completion slot: the waker handed from the submitting
/// thread to whichever waiter reads its reply. The result is stamped with
/// its arrival time, so a waiter that collects it late — it was waiting
/// on another server's reply — still learns how long *this* server took.
///
/// A slot is written through the clone in [`Inner::pending`] and through
/// nothing else, and that clone is gone once the frame is answered,
/// abandoned or failed with its connection — which is what lets
/// [`WindowedTransport::spare_slot`] hand a slot out again as soon as
/// its handle is dropped.
///
/// A slot also records when its frame's bytes were written: a frame the
/// connection holds back has not left, and its read deadline does not run.
#[derive(Default)]
struct Slot {
    state: Mutex<Option<Arrived>>,
    cv: Condvar,
    sent: Mutex<Option<Instant>>,
}

type Arrived = (Result<Message>, Instant);

impl Slot {
    fn is_done(&self) -> bool {
        self.state.lock().expect("slot lock").is_some()
    }

    /// When the frame's bytes were written; `None` while they are held.
    fn sent(&self) -> Option<Instant> {
        *self.sent.lock().expect("slot lock")
    }

    fn set_sent(&self, at: Option<Instant>) {
        *self.sent.lock().expect("slot lock") = at;
    }
}

/// The connection's read side, held by whichever waiter reads it.
struct Reader {
    stream: TcpStream,
    /// Reads land in the accumulator's own buffer, sized to take a full
    /// 32-frame burst of page replies (the server writes each burst's
    /// replies as one block) in one read.
    acc: FrameAccumulator,
    /// The frames of one read; emptied by every read, reused by the next.
    burst: Vec<(Option<u32>, Message)>,
    /// The socket's `SO_RCVTIMEO` as last set.
    timeout: Duration,
}

/// The connection's write side: every write of the socket goes through
/// it, a submitter's and a waiter's alike.
struct Writer {
    /// `None` with no socket behind the handles.
    stream: Option<TcpStream>,
    /// Frames with their seqs that have not been written: the stores and
    /// frees the connection holds back, then, while a submitter holds the
    /// writer, the burst it is putting on the window. One buffer for the
    /// connection's life, so a submission allocates nothing for its frames.
    wbuf: Vec<u8>,
    /// The slots of the frames in `wbuf` that have their seqs, in order.
    leaving: Vec<Arc<Slot>>,
}

struct Inner {
    /// In-flight seqs to their completion slots.
    pending: HashMap<u32, Arc<Slot>>,
    inflight: usize,
    next_seq: u32,
    window: usize,
    dead: Option<Dead>,
    stalls: u64,
    submitted: u64,
    completed: u64,
    late_replies: u64,
}

struct Shared {
    /// Taken before `reader` and `inner`, never under either or a slot's
    /// lock.
    writer: Mutex<Writer>,
    inner: Mutex<Inner>,
    /// Wakes submitters stalled on a full window.
    space_cv: Condvar,
    wakeups: AtomicU64,
    /// `None` with no socket behind the handles: their waiters only sleep.
    reader: Option<Mutex<Reader>>,
    /// Set while a waiter holds `reader`. A waiter tests it only after it
    /// has counted itself in `sleepers`, so a leader that clears it and
    /// then finds no sleeper has nobody to wake.
    reading: AtomicBool,
    /// Threads about to sleep, or asleep, on a slot or on `space_cv`.
    /// Each counts itself before it tests what it waits for, so whoever
    /// changes that and then reads zero may skip the futex wake-up.
    sleepers: AtomicUsize,
}

impl Shared {
    fn new(window: usize, reader: Option<Reader>, stream: Option<TcpStream>) -> Self {
        Shared {
            writer: Mutex::new(Writer {
                stream,
                wbuf: Vec::new(),
                leaving: Vec::new(),
            }),
            inner: Mutex::new(Inner {
                pending: HashMap::new(),
                inflight: 0,
                next_seq: 0,
                window,
                dead: None,
                stalls: 0,
                submitted: 0,
                completed: 0,
                late_replies: 0,
            }),
            space_cv: Condvar::new(),
            wakeups: AtomicU64::new(0),
            reader: reader.map(Mutex::new),
            reading: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("reactor lock")
    }

    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().expect("writer lock")
    }

    /// Whether `slot`'s frame is held: on the window, and written to no
    /// socket yet. A handle with no socket behind it holds nothing.
    fn holds(&self, slot: &Slot) -> bool {
        self.reader.is_some() && slot.sent().is_none()
    }

    /// Writes whatever `w` holds.
    fn send_all(&self, w: &mut Writer) -> Result<()> {
        let sent = self.write_out(w, 0, w.wbuf.len());
        w.wbuf.clear();
        sent
    }

    /// Writes `w.wbuf[from..to]` — the frames of every slot in
    /// `w.leaving` — and stamps those slots as gone. A dead connection
    /// writes nothing, and a failed write kills it; either is the error.
    fn write_out(&self, w: &mut Writer, from: usize, to: usize) -> Result<()> {
        if from == to {
            return Ok(());
        }
        let now = Instant::now();
        for slot in w.leaving.drain(..) {
            slot.set_sent(Some(now));
        }
        if let Some(dead) = &self.lock().dead {
            return Err(dead.to_error());
        }
        let Some(stream) = &w.stream else {
            return Ok(());
        };
        write_burst(stream, &w.wbuf[from..to]).map_err(|e| {
            let mut inner = self.lock();
            self.write_failed(&mut inner, stream, &e);
            RmpError::Io(e)
        })
    }

    /// Wakes whoever sleeps on `cv`, if anybody might.
    fn wake(&self, cv: &Condvar) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            cv.notify_all();
        }
    }

    fn complete(&self, slot: &Slot, result: Result<Message>) {
        *slot.state.lock().expect("slot lock") = Some((result, Instant::now()));
        self.wake(&slot.cv);
    }

    /// Blocks until `slot` holds its result or `deadline` passes, reading
    /// the connection itself whenever nobody else is.
    fn settle<'s>(&self, slot: &'s Slot, deadline: Instant) -> MutexGuard<'s, Option<Arrived>> {
        if self.holds(slot) {
            // Its frame is held: it leaves before anybody waits for it.
            // A failure is in the slot by now.
            let _ = self.send_all(&mut self.writer());
        }
        loop {
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let mut state = slot.state.lock().expect("slot lock");
            while state.is_none() && (self.reader.is_none() || self.reading.load(Ordering::SeqCst))
            {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                state = slot.cv.wait_timeout(state, left).expect("slot lock").0;
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            if state.is_some() || Instant::now() >= deadline {
                return state;
            }
            drop(state);
            self.lead(Some(deadline), || slot.is_done());
        }
    }

    /// Lets go of `inner`, held with the window full, once a completion
    /// may have freed a slot: reads the connection itself when nobody
    /// does, since nothing else would drain the window.
    fn await_space(&self, inner: MutexGuard<'_, Inner>, deadline: Instant) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.reading.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            drop(self.space_cv.wait_timeout(inner, left));
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(inner);
        self.lead(Some(deadline), || {
            let inner = self.lock();
            inner.inflight < inner.window || inner.dead.is_some()
        });
    }

    /// Takes the read side if nobody holds it and reads until `done` —
    /// until `deadline`, or, with none, once without blocking. Leaving,
    /// it clears `reading` first and then wakes every sleeper, so one
    /// whose reply has not come takes over.
    fn lead(&self, deadline: Option<Instant>, done: impl Fn() -> bool) {
        let Some(Ok(mut reader)) = self.reader.as_ref().map(Mutex::try_lock) else {
            // A leader is arriving or leaving: let it run first.
            if deadline.is_some() {
                std::thread::yield_now();
            }
            return;
        };
        self.reading.store(true, Ordering::SeqCst);
        while !done() && self.read_once(&mut reader, deadline) {}
        self.reading.store(false, Ordering::SeqCst);
        drop(reader);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let inner = self.lock();
            for slot in inner.pending.values() {
                let _state = slot.state.lock().expect("slot lock");
                slot.cv.notify_all();
            }
            self.space_cv.notify_all();
        }
    }

    /// One read of the socket, blocking until `deadline` (a
    /// [`READ_TICK`] at most) or, with none, not at all. The frames it
    /// completes are decoded before `inner` is taken — deserializing a
    /// page reply copies its 8 KiB out of the read buffer, and submitters
    /// need the lock meanwhile. `false` once the deadline has passed, the
    /// connection is dead, or the read was a poll.
    fn read_once(&self, reader: &mut Reader, deadline: Option<Instant>) -> bool {
        let (stream, acc) = (&reader.stream, &mut reader.acc);
        let read = match deadline {
            Some(deadline) => {
                let left = READ_TICK.min(deadline.saturating_duration_since(Instant::now()));
                if left.is_zero() {
                    return false;
                }
                if left != reader.timeout && stream.set_read_timeout(Some(left)).is_ok() {
                    reader.timeout = left;
                }
                acc.fill_from(&mut &*stream)
            }
            None => acc.fill_from(&mut DontWait(stream)),
        };
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut fatal = match read {
            Ok(0) => Some(Dead::Io(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection".into(),
            )),
            Ok(_) => None,
            // A tick (EAGAIN on Linux, TimedOut elsewhere), or a poll
            // that found nothing: no data yet.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return deadline.is_some();
            }
            Err(e) => Some(Dead::Io(e.kind(), e.to_string())),
        };
        loop {
            match acc.next_enveloped() {
                Ok(Some(frame)) => reader.burst.push(frame),
                Ok(None) => break,
                Err(e) => {
                    fatal = Some(Dead::Io(io::ErrorKind::InvalidData, e.to_string()));
                    break;
                }
            }
        }
        let mut inner = self.lock();
        for frame in reader.burst.drain(..) {
            self.complete_frame(&mut inner, frame);
        }
        if let Some(reason) = fatal {
            self.mark_dead(&mut inner, reason);
        }
        inner.dead.is_none() && deadline.is_some()
    }

    /// Blocks until `slot` — the one registered under `seq` — holds its
    /// result or `deadline` passes, in which case the seq is abandoned:
    /// its window slot frees now and the reply, if it ever comes, is
    /// dropped as late.
    fn wait_slot(&self, seq: u32, slot: &Slot, deadline: Instant) -> Arrived {
        loop {
            if let Some(arrived) = self.settle(slot, deadline).take() {
                return arrived;
            }
            let mut inner = self.lock();
            if inner.pending.remove(&seq).is_some() {
                inner.inflight -= 1;
                self.wake(&self.space_cv);
                let timed_out = RmpError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "windowed call timed out",
                ));
                return (Err(timed_out), Instant::now());
            }
            // A reader completed this seq between our timeout and the
            // abandon attempt; the result is there now.
        }
    }

    /// Fails every pending slot and refuses future submissions.
    /// Idempotent.
    fn mark_dead(&self, inner: &mut Inner, reason: Dead) {
        if inner.dead.is_some() {
            return;
        }
        for (_, slot) in inner.pending.drain() {
            self.complete(&slot, Err(reason.to_error()));
        }
        inner.inflight = 0;
        inner.dead = Some(reason);
        self.wake(&self.space_cv);
    }

    /// Marks the connection dead after a failed write, and shuts its read
    /// side down so a waiter blocked reading it wakes at once.
    fn write_failed(&self, inner: &mut Inner, stream: &TcpStream, e: &io::Error) {
        self.mark_dead(inner, Dead::Io(e.kind(), e.to_string()));
        let _ = stream.shutdown(Shutdown::Read);
    }

    /// Routes one inbound frame: enveloped replies complete their seq's
    /// slot; a bare `Error` (e.g. an accept-time overload refusal)
    /// concerns the whole connection and fails everything.
    fn complete_frame(&self, inner: &mut Inner, frame: (Option<u32>, Message)) {
        match frame {
            (Some(seq), reply) => match inner.pending.remove(&seq) {
                Some(slot) => {
                    inner.inflight -= 1;
                    inner.completed += 1;
                    self.complete(&slot, Ok(reply));
                    // Hysteresis: wake stalled submitters only once half
                    // the window has drained, so each wakeup injects half
                    // a window of frames in one write. Waking on every
                    // completion costs a condvar-and-scheduler round trip
                    // per frame — the submitter trickles in one frame per
                    // reply and the pipeline collapses to lockstep.
                    // Liveness: every in-flight frame completes (or is
                    // abandoned/failed, which notifies unconditionally),
                    // and a leader that leaves wakes every sleeper, so
                    // `inflight` always reaches the threshold.
                    if inner.inflight * 2 <= inner.window {
                        self.wake(&self.space_cv);
                    }
                }
                None => inner.late_replies += 1,
            },
            (None, Message::Error { code, message }) => {
                self.mark_dead(inner, Dead::Remote(code, message));
            }
            (None, other) => {
                let opcode = other.opcode();
                let bare = format!("bare {opcode:?} frame on a windowed session");
                self.mark_dead(inner, Dead::Io(io::ErrorKind::InvalidData, bare));
            }
        }
    }
}

/// A read that never blocks: `recv(2)` with `MSG_DONTWAIT`. Setting
/// `O_NONBLOCK` instead would reach the submitter's writes too — it lives
/// on the file description the two halves share — and a short
/// `SO_RCVTIMEO` is no poll: the kernel rounds it up to a jiffy.
struct DontWait<'a>(&'a TcpStream);

#[cfg(target_os = "linux")]
impl Read for DontWait<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::ffi::{c_int, c_void};
        use std::os::fd::AsRawFd;
        const MSG_DONTWAIT: c_int = 0x40;
        extern "C" {
            fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        }
        let fd = self.0.as_raw_fd();
        // SAFETY: `buf` is valid for writes of `buf.len()` bytes for the
        // whole call, and the descriptor stays open while `self.0` is
        // borrowed.
        let n = unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
        usize::try_from(n).map_err(|_| io::Error::last_os_error())
    }
}

/// Elsewhere a poll finds nothing; the replies wait for a caller to block.
#[cfg(not(target_os = "linux"))]
impl Read for DontWait<'_> {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }
}

/// A protocol `Error` reply as the [`RmpError::Remote`] callers branch on.
fn typed(reply: Message) -> Result<Message> {
    match reply {
        Message::Error { code, message } => Err(RmpError::Remote { code, message }),
        reply => Ok(reply),
    }
}

/// The error of a frame that has no reply of its own because the burst it
/// left in failed first: transient, like the dropped connection it is.
pub(crate) fn lost_with_its_burst() -> RmpError {
    RmpError::Io(io::Error::new(
        io::ErrorKind::ConnectionAborted,
        "burst failed before this frame was answered",
    ))
}

/// Writes a burst of encoded frames to the blocking socket — one
/// `write(2)` unless the send buffer takes it in pieces.
///
/// Called under [`Shared::writer`] only, never while holding
/// [`Shared::inner`]: a blocking write that stalled on a full send buffer
/// while holding the lock would wedge the reader (which needs the lock to
/// complete replies) and deadlock the connection. The socket's
/// `SO_SNDTIMEO` bounds the stall; hitting it surfaces as `TimedOut`.
fn write_burst(mut stream: &TcpStream, mut frames: &[u8]) -> io::Result<()> {
    while !frames.is_empty() {
        match stream.write(frames) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ));
            }
            Ok(written) => frames = &frames[written..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "socket write stalled past the write deadline",
                ));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Replies still owed for a batch of submitted frames.
///
/// Returned by [`WindowedTransport::submit`]; consume with
/// [`PendingReplies::wait_all`], or poll [`PendingReplies::is_ready`]
/// first to avoid blocking (the prefetch path does). Dropping the handle
/// abandons the outstanding seqs: their window slots are released
/// immediately and late replies are discarded when they arrive.
pub struct PendingReplies {
    shared: Arc<Shared>,
    read_timeout: Duration,
    slots: Slots,
    taken: usize,
}

/// The seq and slot of each frame of a handle. A lone frame — a fault —
/// and a pair — a store and the free of the unit it supersedes, a
/// server's whole share of a sealing wave or a re-home — keep
/// theirs inline, so their handles allocate nothing.
enum Slots {
    One([(u32, Arc<Slot>); 1]),
    Two([(u32, Arc<Slot>); 2]),
    Many(Vec<(u32, Arc<Slot>)>),
}

impl std::ops::Deref for Slots {
    type Target = [(u32, Arc<Slot>)];

    fn deref(&self) -> &Self::Target {
        match self {
            Slots::One(slot) => slot,
            Slots::Two(slots) => slots,
            Slots::Many(slots) => slots,
        }
    }
}

impl std::ops::DerefMut for Slots {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Slots::One(slot) => slot,
            Slots::Two(slots) => slots,
            Slots::Many(slots) => slots,
        }
    }
}

/// The delivering side of [`PendingReplies::deferred`]. Dropped without
/// [`Completion::complete`], it fails every reply still owed.
pub struct Completion {
    shared: Arc<Shared>,
    frames: u32,
}

impl Completion {
    /// Delivers the burst's outcome and wakes whoever waits on the
    /// handle. A failed burst hands its error to the first frame; that
    /// frame's successors — like the frames a short reply vector leaves
    /// out — fail as a dropped connection. Replies to frames the handle
    /// has given up on are discarded.
    pub fn complete(self, outcome: Result<Vec<Message>>) {
        let mut results = match outcome {
            Ok(replies) => replies.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e)],
        }
        .into_iter();
        let mut inner = self.shared.lock();
        for seq in 0..self.frames {
            let result = results.next().unwrap_or_else(|| Err(lost_with_its_burst()));
            if let Some(slot) = inner.pending.remove(&seq) {
                inner.inflight -= 1;
                self.shared.complete(&slot, result);
            }
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        let dropped = Dead::Io(
            io::ErrorKind::ConnectionAborted,
            "completion dropped".into(),
        );
        self.shared.mark_dead(&mut self.shared.lock(), dropped);
    }
}

impl PendingReplies {
    /// A handle owed `frames` replies with no connection behind it, and
    /// the [`Completion`] that delivers them — for transports that answer
    /// some other way than a request window (an emulated link, a scripted
    /// test double) and still want their callers to overlap bursts.
    /// `read_timeout` is what [`PendingReplies::wait_all`] allows.
    pub fn deferred(frames: usize, read_timeout: Duration) -> (PendingReplies, Completion) {
        let shared = Arc::new(Shared::new(frames, None, None));
        let slots: Vec<(u32, Arc<Slot>)> = (0..frames as u32)
            .map(|seq| (seq, Arc::new(Slot::default())))
            .collect();
        {
            let mut inner = shared.lock();
            inner.inflight = frames;
            inner
                .pending
                .extend(slots.iter().map(|(seq, slot)| (*seq, Arc::clone(slot))));
        }
        let completion = Completion {
            shared: Arc::clone(&shared),
            frames: frames as u32,
        };
        let pending = PendingReplies {
            shared,
            read_timeout,
            slots: Slots::Many(slots),
            taken: 0,
        };
        (pending, completion)
    }

    /// A handle born complete, for transports that answer `frames`
    /// requests inside `call_pipelined` instead of running a window (the
    /// provided [`ServerTransport::submit`]): no wait on it blocks.
    pub(crate) fn ready(frames: usize, outcome: Result<Vec<Message>>) -> Self {
        let (pending, completion) = PendingReplies::deferred(frames, Duration::ZERO);
        completion.complete(outcome);
        pending
    }

    /// Whether every reply has already arrived: `wait_all` will not block.
    /// Never blocks itself: when replies are owed and nobody reads the
    /// connection, it reads once, taking only what the socket already has
    /// — unless a frame owed is still held, which no read can answer. A
    /// poll sends nothing.
    pub fn is_ready(&self) -> bool {
        let owed = &self.slots[self.taken..];
        let settled = || owed.iter().all(|(_, s)| s.is_done());
        if settled() || owed.iter().any(|(_, s)| self.shared.holds(s)) {
            return settled();
        }
        self.shared.lead(None, settled);
        settled()
    }

    /// Sends what the connection holds if a frame owed here is among it,
    /// and returns when the first frame owed was written — `None` with no
    /// connection behind the handle. Every frame owed has left once this
    /// returns.
    pub(crate) fn push(&self) -> Option<Instant> {
        let owed = &self.slots[self.taken..];
        if owed.iter().any(|(_, s)| self.shared.holds(s)) {
            // A failure is in the slots by now.
            let _ = self.shared.send_all(&mut self.shared.writer());
        }
        owed.first().and_then(|(_, slot)| slot.sent())
    }

    /// Blocks until every submitted frame has its reply, returning them
    /// in submission order. The read deadline starts now and covers the
    /// whole batch, however many frames it has.
    ///
    /// # Errors
    ///
    /// The first failed slot fails the whole batch: a reply outstanding
    /// past the read deadline returns a `TimedOut` I/O error, a dead
    /// connection the error that killed it, and a protocol `Error` reply
    /// [`RmpError::Remote`]. Remaining outstanding seqs are abandoned.
    pub fn wait_all(mut self) -> Result<Vec<Message>> {
        let deadline = Instant::now() + self.read_timeout;
        let mut replies = Vec::with_capacity(self.slots.len() - self.taken);
        while let Some((reply, _)) = self.next_by(deadline) {
            replies.push(reply?);
        }
        Ok(replies)
    }

    /// Blocks until every reply still owed has arrived or `deadline`
    /// passes, taking none: the wait a caller does while it holds no
    /// lock. Whatever [`PendingReplies::next_by`] then finds, it finds
    /// without blocking.
    pub(crate) fn park(&self, deadline: Instant) {
        for (_, slot) in &self.slots[self.taken..] {
            if self.shared.settle(slot, deadline).is_none() {
                return;
            }
        }
    }

    /// Blocks until `deadline` — the caller's, so that several handles
    /// can share one and a gather over `n` silent servers gives up after
    /// one read deadline, not `n` — for the next reply in submission
    /// order, and returns it with its arrival time: how long *this*
    /// frame's server took, however long the caller was busy elsewhere. A
    /// protocol `Error` reply comes back as [`RmpError::Remote`]. A frame
    /// failing does not abandon its successors. `None` once every frame
    /// is taken.
    pub(crate) fn next_by(&mut self, deadline: Instant) -> Option<(Result<Message>, Instant)> {
        let (seq, slot) = self.slots.get(self.taken)?;
        self.taken += 1;
        let (result, at) = self.shared.wait_slot(*seq, slot, deadline);
        Some((result.and_then(typed), at))
    }
}

impl Drop for PendingReplies {
    fn drop(&mut self) {
        if self.taken >= self.slots.len() {
            return;
        }
        let mut inner = self.shared.lock();
        let mut freed = false;
        for (seq, _) in &self.slots[self.taken..] {
            if inner.pending.remove(seq).is_some() {
                inner.inflight -= 1;
                freed = true;
            }
        }
        if freed {
            self.shared.wake(&self.shared.space_cv);
        }
    }
}

/// The pool's transport: a sliding window of seq-tagged frames kept in
/// flight on one connection (see the [module docs](self)), sized by
/// [`rmp_types::TransportConfig::window_max_inflight`] — 1 is a window of
/// one, not a different transport.
pub struct WindowedTransport {
    addr: String,
    config: TransportConfig,
    shared: Arc<Shared>,
    granted: usize,
    /// The slots of submissions, at most a window of them, handed out
    /// again and again (see [`WindowedTransport::spare_slot`]).
    slots: Vec<Arc<Slot>>,
}

impl std::fmt::Debug for WindowedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedTransport")
            .field("addr", &self.addr)
            .field("granted", &self.granted)
            .finish_non_exhaustive()
    }
}

impl WindowedTransport {
    /// Connects to `addr` (`host:port`) with default deadlines and window.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Self> {
        WindowedTransport::connect_with(addr, &TransportConfig::default())
    }

    /// Dials `addr` and performs the `Hello` handshake on the socket.
    ///
    /// Only dial failures error out. A failed *handshake* (the server
    /// refused with a typed `Error`, timed out, or spoke garbage) yields
    /// a transport whose calls all return that failure, so an accept-time
    /// refusal or a silent server reaches the pool's retry/reconnect
    /// logic as an ordinary failed call.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no connection is established within the deadline;
    /// otherwise propagates resolution and connection failures.
    pub fn connect_with(addr: &str, config: &TransportConfig) -> Result<Self> {
        let mut transport = WindowedTransport {
            addr: addr.to_string(),
            config: config.clone(),
            shared: Arc::new(Shared::new(1, None, None)),
            granted: 1,
            slots: Vec::new(),
        };
        transport.establish()?;
        Ok(transport)
    }

    /// The address this transport dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The window the server granted (1 when the handshake failed).
    pub fn granted_window(&self) -> usize {
        self.granted
    }

    fn install_dead(&mut self, reason: Dead) {
        let shared = Shared::new(1, None, None);
        shared.lock().dead = Some(reason);
        self.shared = Arc::new(shared);
        self.granted = 1;
    }

    fn establish(&mut self) -> Result<()> {
        let stream = crate::transport::dial(&self.addr, &self.config)?;
        let mut framed = Framed::new(stream);
        let requested = self.config.window_max_inflight.max(1) as u32;
        let handshake = framed
            .send(&Message::Hello { window: requested })
            .and_then(|()| framed.recv());
        let refusal = match handshake {
            Ok(Message::HelloReply { window }) => {
                let granted = (window.max(1) as usize).min(requested as usize);
                let stream = framed.into_inner();
                // The socket stays blocking: a leader parks in read(2)
                // for at most SO_RCVTIMEO, and the submitter's writes are
                // bounded by SO_SNDTIMEO (set to the write timeout by
                // `dial`).
                stream.set_read_timeout(Some(READ_TICK))?;
                let reader = Reader {
                    stream: stream.try_clone()?,
                    acc: FrameAccumulator::new(),
                    burst: Vec::new(),
                    timeout: READ_TICK,
                };
                self.shared = Arc::new(Shared::new(granted, Some(reader), Some(stream)));
                self.granted = granted;
                return Ok(());
            }
            Ok(Message::Error { code, message }) | Err(RmpError::Remote { code, message }) => {
                Dead::Remote(code, message)
            }
            Ok(other) => Dead::Io(
                io::ErrorKind::InvalidData,
                format!("unexpected {:?} handshake reply", other.opcode()),
            ),
            Err(RmpError::Io(e)) => Dead::Io(e.kind(), e.to_string()),
            Err(other) => Dead::Io(io::ErrorKind::InvalidData, other.to_string()),
        };
        self.install_dead(refusal);
        Ok(())
    }

    fn teardown(&mut self) {
        // What the connection holds leaves first: its callers have
        // returned, and a store that left is a store made.
        let mut w = self.shared.writer();
        let _ = self.shared.send_all(&mut w);
        let torn = Dead::Io(io::ErrorKind::ConnectionReset, "transport torn down".into());
        self.shared.mark_dead(&mut self.shared.lock(), torn);
        // Shutting the socket down turns a leader's parked read into an
        // immediate end of stream.
        if let Some(stream) = w.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Submits every message in `msgs` onto the request window without
    /// waiting for replies; the returned handle collects them later.
    /// Stalls (bounded by the write deadline) when the window is full.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the window stays full past the write deadline;
    /// the connection's terminal error when it has died. Frames already
    /// enqueued before a mid-batch failure stay in flight and their
    /// replies are discarded on arrival.
    pub fn submit(&mut self, msgs: &[Message]) -> Result<PendingReplies> {
        let mut spare = || (0, self.spare_slot());
        let mut slots = match msgs.len() {
            1 => Slots::One([spare()]),
            2 => Slots::Two([spare(), spare()]),
            _ => Slots::Many(msgs.iter().map(|_| spare()).collect()),
        };
        self.put_on_window(msgs, &mut slots)?;
        Ok(PendingReplies {
            shared: Arc::clone(&self.shared),
            read_timeout: self.config.read_timeout,
            slots,
            taken: 0,
        })
    }

    /// A slot for one frame of a submission that allocates nothing once
    /// the pool is warm: one of the transport's own that nobody else holds
    /// — its last frame was answered, abandoned or failed, so no clone is
    /// left in `pending`, its bytes have left, and the handle that waited
    /// on it is gone. Only this method clones a pooled slot, so a count
    /// of one stays one — and a burst that draws several gets a different
    /// one each time.
    fn spare_slot(&mut self) -> Arc<Slot> {
        if let Some(slot) = self.slots.iter().find(|s| Arc::strong_count(s) == 1) {
            // A handle dropped uncollected leaves its reply behind.
            *slot.state.lock().expect("slot lock") = None;
            slot.set_sent(None);
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot::default());
        if self.slots.len() < self.granted {
            self.slots.push(Arc::clone(&slot));
        }
        slot
    }

    /// The one way onto the window: encodes `msgs` as windowed frames into
    /// the connection's write buffer, behind what it holds, registers
    /// `slots[i].1` to be completed by the reply to `msgs[i]` under a
    /// fresh seq (left in `slots[i].0`), and writes the lot — one
    /// `write`, unless the window fills midway and what is queued has to
    /// leave for it to drain. A burst of stores and frees nobody waits
    /// for yet is held instead, up to [`HOLD_MAX`]: it leaves with the
    /// next burst that is not, or when somebody waits on the connection.
    fn put_on_window(&mut self, msgs: &[Message], slots: &mut [(u32, Arc<Slot>)]) -> Result<()> {
        let write_deadline = Instant::now() + self.config.write_timeout;
        let shared = &*self.shared;
        let mut writer = shared.writer();
        let w = &mut *writer;
        // Encode before taking the lock: a page-carrying frame costs an
        // 8 KiB copy, and a reader needs the lock to complete replies
        // — encoding under it would stall completions for the whole
        // batch. Only the seq (four bytes of the envelope, zero for now)
        // is filled in under the lock.
        let start = w.wbuf.len();
        (w.wbuf).reserve(msgs.iter().map(Message::windowed_len_hint).sum());
        for msg in msgs {
            Message::encode_windowed_into(0, msg, &mut w.wbuf);
        }
        // `wbuf[..written]` has left; `wbuf[written..at]` has its seqs.
        let (mut written, mut at) = (0, start);
        let placed = 'place: {
            let mut inner = shared.lock();
            for (seq_out, slot) in slots.iter_mut() {
                if let Some(dead) = &inner.dead {
                    break 'place Err(dead.to_error());
                }
                let mut counted_stall = false;
                while inner.inflight >= inner.window {
                    if !counted_stall {
                        inner.stalls += 1;
                        counted_stall = true;
                    }
                    // The window is full: send what is queued so the
                    // server can drain it, then wait — reading, if
                    // nobody else is — until a completion frees a slot.
                    // Both drop the lock, so re-test everything
                    // afterwards.
                    if written < at {
                        drop(inner);
                        if let Err(e) = shared.write_out(w, written, at) {
                            break 'place Err(e);
                        }
                        written = at;
                        inner = shared.lock();
                        continue;
                    }
                    if Instant::now() >= write_deadline {
                        break 'place Err(RmpError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "request window stalled past the write deadline",
                        )));
                    }
                    shared.await_space(inner, write_deadline);
                    inner = shared.lock();
                    if let Some(dead) = &inner.dead {
                        break 'place Err(dead.to_error());
                    }
                }
                // Skip sequence numbers still occupied by an in-flight
                // (possibly abandoned) request: after the u32 counter
                // wraps, reusing a live seq would overwrite its pending
                // slot and let the *old* request's reply complete the new
                // slot with the wrong payload. Terminates because
                // `pending` never holds more than `window` entries.
                let mut seq = inner.next_seq;
                while inner.pending.contains_key(&seq) {
                    seq = seq.wrapping_add(1);
                }
                inner.next_seq = seq.wrapping_add(1);
                inner.pending.insert(seq, Arc::clone(slot));
                inner.inflight += 1;
                inner.submitted += 1;
                *seq_out = seq;
                w.leaving.push(Arc::clone(slot));
                // An envelope is its header, then the seq, then the inner
                // frame; the header's length field says where the next
                // starts.
                let frame = &mut w.wbuf[at..];
                let len = u32::from_le_bytes(frame[4..HEADER_LEN].try_into().expect("four bytes"));
                frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&seq.to_le_bytes());
                at += HEADER_LEN + len as usize;
            }
            Ok(())
        };
        // Frames that found no seq never leave.
        w.wbuf.truncate(at);
        let hold = placed.is_ok()
            && written == 0
            && at < HOLD_MAX
            && (msgs.iter()).all(|m| matches!(m, Message::PageOut { .. } | Message::Free { .. }));
        if hold {
            return Ok(());
        }
        let sent = shared.write_out(w, written, at);
        w.wbuf.clear();
        placed.and(sent)
    }

    /// Pins the next sequence number, so tests can stage a wrap-around
    /// onto a seq that is still in flight. Not part of the public API.
    #[doc(hidden)]
    pub fn force_next_seq(&mut self, seq: u32) {
        self.shared.lock().next_seq = seq;
    }

    /// Current window counters.
    pub fn stats(&self) -> WindowStats {
        let inner = self.shared.lock();
        WindowStats {
            window: inner.window,
            inflight: inner.inflight,
            stalls: inner.stalls,
            submitted: inner.submitted,
            completed: inner.completed,
            late_replies: inner.late_replies,
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
        }
    }
}

impl ServerTransport for WindowedTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        // A submission of one, waited for at once: the frame goes through
        // the transport's buffer and the reply through a pooled slot.
        let mut pending = WindowedTransport::submit(self, std::slice::from_ref(msg))?;
        let deadline = Instant::now() + self.config.read_timeout;
        let (reply, _) = pending.next_by(deadline).expect("one frame, one reply");
        reply
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        self.submit(msgs)?.wait_all()
    }

    fn send_only(&mut self, msg: &Message) -> Result<()> {
        // Bare frame, no envelope: used for crash injection, where no
        // reply will come and no window slot should be held. It leaves
        // behind what the connection holds, in one write.
        let mut w = self.shared.writer();
        if w.stream.is_none() {
            return Err(match &self.shared.lock().dead {
                Some(dead) => dead.to_error(),
                None => RmpError::Protocol("no stream on a live transport".into()),
            });
        }
        msg.encode_into(&mut w.wbuf);
        self.shared.send_all(&mut w)
    }

    fn reconnect(&mut self) -> Result<()> {
        // A connection the reactor still holds up is kept: the server keys
        // what it stores by session, and a new session holds none of it. A
        // frame that timed out or was refused was abandoned by its seq,
        // and a late reply to it is dropped when it comes.
        if self.shared.lock().dead.is_none() {
            return Err(RmpError::Unsupported("the connection is up"));
        }
        self.teardown();
        self.establish()
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        Some(WindowedTransport::submit(self, msgs))
    }

    fn window_stats(&self) -> Option<WindowStats> {
        Some(self.stats())
    }
}

impl Drop for WindowedTransport {
    fn drop(&mut self) {
        self.teardown();
    }
}
