//! The pager's front-end: the page space sharded over independent pagers.
//!
//! The paper's pager serves one faulting process; [`ShardedPager`] serves
//! it, or many application threads at once, by splitting the [`PageId`]
//! space over a fixed power-of-two number of *shards* — one included.
//! Each shard is a single-threaded [`Pager`] — its own page table,
//! checksum map, engine bookkeeping, read-ahead copies, and its own
//! [`ServerPool`] with private TCP connections to every server — behind
//! one mutex. Threads faulting on different shards proceed in parallel
//! end to end: they neither share a lock nor serialize on a socket;
//! threads faulting on one shard share its lock and its sockets, and
//! neither across a round trip (below).
//! (Server-side, each shard's connection gets a private key namespace,
//! so shards cannot collide on store keys.)
//!
//! # Shard map
//!
//! A page lives on shard `id & (shard_count - 1)`: consecutive pages
//! round-robin across shards, so a sequential scan spreads over every
//! shard.
//!
//! # Read-ahead
//!
//! A shard sees every `shard_count`-th page of a scan, and of a short run
//! that turns back — 5, 6, 7, 8 reaches two shards as 6, 8 and 5, 7 —
//! nothing a stride vote can use. So the *decision* to read ahead is
//! taken here, once, over the whole fault stream: one [`Planner`] behind
//! a small lock of its own hears every served fault and answers nothing,
//! or a stride and a depth, then the page that has followed this one
//! twice running — a sweep's wrap, say — if the stride does not reach
//! it. The *copies* stay with the shards: once the fault's turn has
//! ended, the shard of the next page along the stride says whether the
//! runway is gone, and each shard is handed the planned pages it holds
//! (`Pager::read_ahead`) — fetched, cached, verified and voided by
//! writes under that shard's lock, like any other copy. Three rules:
//! **speculation never waits** — a shard is only `try_lock`ed for it and
//! a busy one skipped, and a planned page with an operation under way is
//! left out (a pageout that begins later voids the copy on the wire);
//! **the window adapts** — one page after a miss or on a planned
//! successor, doubled each time a hit finds the runway gone, up to
//! [`PagerConfig::prefetch_window`]; **one page, one plain read** — a
//! keyed `PageIn` frame of its own on the request window, which
//! allocates nothing but the page.
//!
//! **Read-ahead leads a sweep.** A fault is told to the planner once it
//! is served — but for a miss on a page the stream has looped through
//! ([`Planner::recurs`]): a sweep the stream has learnt is restarting,
//! as a solve's verify and the next solve's init do, and its next
//! faults come as fast as the application can touch pages. That miss is
//! told while it parks on its demand read, so its refill leaves beside
//! the read, not a round trip behind it. Any other miss — a random one
//! after a scan has trained the stride, say — is planned once served.
//!
//! The same table says which pages the stream loops through, and a
//! pageout of one is **read behind**: `page_out` asks the planner —
//! holding no shard lock, and only if nobody holds the planner — whether
//! the page has a confirmed successor; if so, once the write is acked,
//! the shard reads the page back through `Pager::read_ahead`, for the
//! next lap's fault to find cached. After a whole pageout that is at
//! once; a landing records the answer and reads as it lands — unless
//! the page's own next operation lands it, which reads or rewrites the
//! page anyway. The read follows an acknowledged write, so it never
//! comes from a store that may still fail and is checked against the
//! checksum that write committed. The planner also says whether the page
//! *recurs* — some successor of it has repeated, if not the last — and
//! then its landing keeps the page for its faults (below).
//!
//! # Begin, park, complete
//!
//! No shard lock is held across the wire. `page_in` and `page_out` run
//! in three steps: *begin*, under the shard lock, does everything up to
//! the wait and leaves the frames on the connection's request window;
//! the caller then *parks* on the replies holding no lock; *complete*
//! re-takes the lock to verify, fall back, commit and book. Two callers on one shard therefore share
//! its link delay instead of queueing for it. An operation with nothing
//! on the wire (a read-ahead hit, a disk read, the operations DESIGN.md
//! §11 lists as kept whole) runs begin and complete under one
//! acquisition. `contains` and the accessors never leave the lock, nor
//! does `free` but to land its page's pageout.
//!
//! A split-phase pageout — the stripe engine's wave, a rewrite or a
//! first placement, whatever `k`, and the parity log's append, sealing
//! or not — does not even park: once all its frames are on the request
//! window, `page_out` returns `Ok` and the shard keeps the flight and
//! the caller's page (an `Arc` clone) as a *landing*, as the OSF/1
//! kernel never waited for a pageout. Whichever turn next enters the
//! shard completes, under the lock, each landing whose replies are in —
//! oldest first, re-homing from the kept page a unit whose store did not
//! ack, and running the pageout again if a server failed under it — and
//! after each fault served but from a kept page, so does every shard
//! nobody holds. A failure
//! that survives that is reported once: by the page's next operation, or
//! by the next `flush`. A landing of a page that recurs leaves at once
//! (is never held on its connection) and is the exception: the page's
//! newest keeps it, replies in or not, until the page is rewritten or
//! freed, a room's worth of the pager's pageouts have left after it, a
//! planner or `stats` asks, or the room is full. Every fault of the page
//! meanwhile is served from it — checked against the checksum the
//! pageout commits, no frame sent — and lands nothing, its own landing
//! included, which it leaves with nothing to read behind. Landings
//! hold their pages and the reply slots of their frames, and allocate
//! nothing; dropping the pager gives them up unanswered. A shard's
//! *room* for them is what they hold: a request window's worth
//! ([`TransportConfig::window_max_inflight`](rmp_types::TransportConfig::window_max_inflight)),
//! the slots a connection keeps for a window. Only a full room lands a
//! landing whose replies are still out, and its caller waits for them
//! (`pager_landing_room_waits_total`). How long a recurring page is kept
//! does not hang on the room: [`CHUNK_PAGES`] (16) pageouts.
//!
//! Two rules stand in for "the lock is held":
//!
//! - **A page's landings complete oldest first, and an append may be
//!   overtaken.** A shard keeps the set of pages between a begin and the
//!   end of its complete; `page_in`, `page_out` and `free` of a page in
//!   that set wait for it to leave, and only its turn lands the page's
//!   landings. So no read is verified against a newer write's checksum.
//!   A landing page's next operation parks on its replies, holding no
//!   lock, and completes it first — but for a read served from the kept
//!   page, and a rewrite behind a landing that *appends* (the parity
//!   log's, whose keys no later version overwrites:
//!   [`Engine::appends`](crate::engine::Engine::appends)). That one
//!   begins at once and supersedes the landing: neither read behind nor
//!   kept, its version not committed, its server's rebuild queued rather
//!   than the pageout run again. The page's landings complete strictly
//!   oldest first — in a turn, a planner, `stats`, and before a rewrite
//!   whose frames did not leave completes. A stripe rewrite overwrites
//!   its units in place: it waits.
//! - **Planners wait for the wire to empty.** Whatever plans against the
//!   placement table as a whole — `flush`, `recover_from_crash`,
//!   `periodic_maintenance`, `reconnect`, and within one shard the
//!   queued rebuild a pageout or free drains first and the recovery a
//!   pageout runs when a server fails under it — first completes every
//!   landing and lets every flight of the shard land, and no new
//!   operation begins while a planner waits. `stats` completes every
//!   landing too, so its counts are exact.
//!
//! # One verdict
//!
//! Every shard dials every server, so every shard could walk the whole
//! retry ladder to learn of the same crash. Instead a shard's pool leaves
//! news of what it found: an obituary for a server it declared dead
//! ([`ServerPool::obituaries`]), and the rung of one it has backing off
//! after a failed attempt. `page_in`, `page_out` and `free`, when a turn
//! ends with news, pass it on: holding no shard lock, the caller takes
//! each shard's lock in turn and tells it, as if it had found out for
//! itself. Told of a death, a shard first lets its flights land (the
//! planners' rule), then holds the server dead and queues its rebuild —
//! the shard that reached the verdict too, whichever operation did;
//! told of a rung, a sibling goes on from that rung — reads go around
//! the server until it is due, neither dialling it nor, were it silent,
//! waiting out a read deadline for it. A maintenance pass, which holds
//! every shard, passes each shard's news on before the next shard's
//! pass. [`ShardedPager::reconnect`] forgives on every shard alike;
//! verdicts and pardons are passed under one mutex, so a verdict reached
//! before a pardon is never delivered after it.
//!
//! # Lock order
//!
//! The verdict mutex, taken holding nothing, before everything below.
//! Shard → that shard's connection windows → a reply slot; a parked
//! caller holds only the last. Under the planner's lock a shard is only
//! `try_lock`ed, so it sits in no cycle. Operations on pages lock exactly one
//! shard, so they cannot deadlock. The planners that must observe every
//! shard *quiesce*: they take the shards in ascending index order — the
//! one global lock order — emptying each one's wire as they go and
//! holding all of them while they work, so no application thread can
//! interleave a write with a half-done recovery pass. A flight landing
//! needs only its own shard's lock, which a quiescer waiting for it has
//! let go of, so the wait cannot deadlock either. Anything locking more
//! than one shard must take them in ascending order.
//!
//! # Examples
//!
//! ```
//! use rmp_cluster::{Registry, ServerInfo};
//! use rmp_core::ShardedPager;
//! use rmp_server::{MemoryServer, ServerConfig};
//! use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId};
//!
//! let mut registry = Registry::new();
//! let mut handles = Vec::new();
//! for i in 0..2u32 {
//!     let h = MemoryServer::spawn(ServerConfig::default()).unwrap();
//!     registry
//!         .add(ServerInfo {
//!             id: ServerId(i),
//!             addr: h.addr().to_string(),
//!             link_cost: 1.0,
//!         })
//!         .unwrap();
//!     handles.push(h);
//! }
//!
//! // Two shards, each a complete pager with its own connections; pages
//! // round-robin across them by id, and callers share one `&self` API.
//! let config = PagerConfig::new(Policy::Mirroring).with_shard_count(2);
//! let pager = ShardedPager::connect(config, &registry).unwrap();
//! pager.page_out(PageId(1), &Page::filled(9)).unwrap();
//! pager.page_out(PageId(2), &Page::filled(4)).unwrap();
//! assert_eq!(pager.page_in(PageId(1)).unwrap(), Page::filled(9));
//! assert_eq!(pager.page_in(PageId(2)).unwrap(), Page::filled(4));
//! ```

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

use rmp_blockdev::PagingDevice;
use rmp_cluster::Registry;
use rmp_types::{Page, PageId, PagerConfig, Result, RmpError, ServerId, TransferStats};

use crate::pager::{PageOutFlight, Pager};
use crate::pool::{Event, Rung, ServerPool, CHUNK_PAGES};
use crate::prefetch::{Plan, Planner};
use crate::recovery::RecoveryReport;

/// Builder for [`ShardedPager`]; supply one pre-dialed [`ServerPool`] per
/// shard (tests and benches with fake transports), or use
/// [`ShardedPager::connect`] to dial everything over TCP.
pub struct ShardedPagerBuilder {
    config: PagerConfig,
    pools: Vec<ServerPool>,
    disks: Vec<Box<dyn PagingDevice>>,
}

impl ShardedPagerBuilder {
    /// Sets the per-shard server pools; `pools.len()` must equal
    /// `config.shard_count`.
    pub fn pools(mut self, pools: Vec<ServerPool>) -> Self {
        self.pools = pools;
        self
    }

    /// Sets per-shard local-disk backends (for disk fallback or
    /// write-through); empty for none, else one per shard.
    pub fn disks(mut self, disks: Vec<Box<dyn PagingDevice>>) -> Self {
        self.disks = disks;
        self
    }

    /// Builds the sharded pager.
    ///
    /// # Errors
    ///
    /// [`RmpError::Config`] when the configuration is invalid, the pool
    /// count does not match the shard count, or the disk count is
    /// neither zero nor the shard count.
    pub fn build(self) -> Result<ShardedPager> {
        let ShardedPagerBuilder {
            config,
            pools,
            disks,
        } = self;
        config.validate()?;
        let shards = config.shard_count;
        if pools.len() != shards {
            return Err(RmpError::Config(format!(
                "{} pools for {shards} shards (need exactly one per shard)",
                pools.len()
            )));
        }
        if !disks.is_empty() && disks.len() != shards {
            return Err(RmpError::Config(format!(
                "{} disks for {shards} shards (need none or one per shard)",
                disks.len()
            )));
        }
        let mut disks: Vec<Option<Box<dyn PagingDevice>>> = if disks.is_empty() {
            (0..shards).map(|_| None).collect()
        } else {
            disks.into_iter().map(Some).collect()
        };
        let mut built = Vec::with_capacity(shards);
        let departures = Arc::new(AtomicUsize::new(0));
        for pool in pools {
            let disk = disks.remove(0);
            let pager = Pager::new(config.clone(), pool, disk)?;
            // Room for as many landings as `Shard::enter` lets wait.
            let flights = Flights {
                landings: Vec::with_capacity(landing_room(&pager)),
                ..Flights::default()
            };
            built.push(Shard {
                state: Mutex::new((pager, flights)),
                landed: Condvar::new(),
                departures: Arc::clone(&departures),
            });
        }
        Ok(ShardedPager {
            shards: built,
            mask: (shards - 1) as u64,
            planner: Mutex::new(Planner::new(config.prefetch_window)),
            verdicts: Mutex::new(()),
        })
    }
}

/// What a shard has between a begin and its complete.
#[derive(Default)]
struct Flights {
    /// Pages with an operation under way, from before its begin to the
    /// end of its complete. A landing page is not, until an operation
    /// takes its landing back.
    busy: Vec<PageId>,
    /// Operations parked and pageouts landing: begun, and not yet back
    /// under the lock.
    on_wire: usize,
    /// Planners waiting for `on_wire` to reach zero; while there is one,
    /// no operation begins.
    planners: usize,
    /// Threads blocked on [`Shard::landed`], so that a landing nobody
    /// waits for costs no wake-up call.
    waiting: usize,
    /// Pageouts whose callers have returned, oldest first.
    landings: Vec<Landing>,
    /// What landings failed with, each kept for its page's next operation
    /// or the next flush, whichever asks first.
    failed: Vec<(PageId, RmpError)>,
}

impl Flights {
    /// Where `id`'s oldest landing is, if it has one.
    fn landing(&self, id: PageId) -> Option<usize> {
        self.landings.iter().position(|l| l.out.id() == id)
    }

    /// Whether a turn holds the page of `landing`: that turn lands it.
    fn held(&self, landing: &Landing) -> bool {
        self.busy.contains(&landing.out.id())
    }

    /// Takes landing `at` out; it is no longer on the wire for planners.
    fn take(&mut self, at: usize) -> Landing {
        self.on_wire -= 1;
        self.landings.remove(at)
    }
}

/// A pageout whose caller has returned with its frames on the wire: the
/// flight, and the caller's page — an `Arc` clone, not a copy — to
/// complete it with, and to run it again if a server failed under it.
struct Landing {
    out: PageOutFlight,
    page: Page,
    /// Whether the page is read back once it has landed (read-behind),
    /// as the front door decided when it left.
    behind: bool,
    /// Whether it keeps its page for the page's faults, as the front door
    /// found the page recurs when it left — until a rewrite or a free of
    /// the page comes, or a [`Room`]'s worth of pageouts have left after
    /// it.
    recurs: bool,
    /// Pageouts of the pager that had left when it did, itself included.
    left: usize,
}

/// A shard's room for landings: it holds [`landing_room`] of them, and a
/// landing keeps its page for [`CHUNK_PAGES`] pageouts of the whole
/// pager — how long does not hang on how many shards share the stream,
/// nor on the room — `now` of which have left so far.
#[derive(Clone, Copy)]
struct Room {
    size: usize,
    now: usize,
}

impl Room {
    /// Whether `landing` keeps its page: a read of it is served from
    /// there, its replies in or not.
    fn keeps(self, landing: &Landing) -> bool {
        landing.recurs && self.now - landing.left < CHUNK_PAGES
    }
}

/// Where the oldest landing a turn lands is, if one is due, and whether
/// its replies are in: the oldest that keeps no page, once its replies
/// are in — or with the room full, the oldest, in or not — of those
/// whose page no turn holds. Landings are in the order they left, and
/// only a page's newest keeps it, so the one found is its page's oldest.
fn due(flights: &Flights, room: Room) -> Option<(usize, bool)> {
    let landings = &flights.landings;
    let full = landings.len() >= room.size;
    let mut left = (0..landings.len()).filter(|&at| !flights.held(&landings[at]));
    let oldest = match full {
        true => left.next(),
        false => left.find(|&at| !room.keeps(&landings[at])),
    }?;
    let ready = landings[oldest].out.writing.is_ready();
    (full || ready).then_some((oldest, ready))
}

/// The most pageouts a shard keeps landing: a request window's. Each
/// holds its page and the reply slots of its frames, which are what the
/// room protects — the next operation's frames must find room on the
/// connection's window, and slots among the ones it keeps for a window,
/// or allocate. Only a full room makes a caller land a landing whose
/// replies are still out.
fn landing_room(pager: &Pager) -> usize {
    pager.config().transport.window_max_inflight
}

type ShardGuard<'a> = MutexGuard<'a, (Pager, Flights)>;

/// One shard: its pager and flights under one lock, and the condition
/// every change to the flights is announced on.
struct Shard {
    state: Mutex<(Pager, Flights)>,
    landed: Condvar,
    /// Pageouts that have left landing, on every shard of the pager: a
    /// count, written and read under shard locks, publishing nothing.
    departures: Arc<AtomicUsize>,
}

impl Shard {
    /// Locks the shard. A panic under the lock leaves the pager as
    /// consistent as any unwound call leaves it: carry on.
    fn lock(&self) -> ShardGuard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock if nobody holds it: all that speculation may ask for.
    fn try_lock(&self) -> Option<ShardGuard<'_>> {
        match self.state.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Lets go of the lock until `blocked` no longer holds of the
    /// flights, counting the wait — once, however often it is woken — in
    /// `pager_flight_waits_total`.
    fn wait_while<'a>(
        &self,
        mut guard: ShardGuard<'a>,
        blocked: impl Fn(&Flights) -> bool,
    ) -> ShardGuard<'a> {
        if blocked(&guard.1) {
            guard.0.note_flight_wait();
        }
        while blocked(&guard.1) {
            guard.1.waiting += 1;
            guard = (self.landed.wait(guard)).unwrap_or_else(PoisonError::into_inner);
            guard.1.waiting -= 1;
        }
        guard
    }

    /// Where the landing due on the shard `pager` is, if one is: see
    /// [`due`]. One still on the wire is due only for a full room, and its
    /// lander waits for it: counted in `pager_landing_room_waits_total`.
    fn due(&self, pager: &Pager, flights: &Flights) -> Option<usize> {
        let (at, ready) = due(flights, self.room(pager))?;
        if !ready {
            pager.note_room_wait();
        }
        Some(at)
    }

    /// The room of the shard `pager` is.
    fn room(&self, pager: &Pager) -> Room {
        let now = self.departures.load(Ordering::Relaxed);
        Room {
            size: landing_room(pager),
            now,
        }
    }

    fn announce(&self, guard: &ShardGuard<'_>) {
        if guard.1.waiting > 0 {
            self.landed.notify_all();
        }
    }

    /// Locks the shard for `op`, not a read, on `id`, once no other
    /// operation on `id` is under way and no planner is waiting. Every
    /// pageout whose replies are in lands first, oldest first — and,
    /// whatever the wait, `id`'s own but those a rewrite begins behind
    /// ([`Shard::admit`]), and the oldest while [`landing_room`] are
    /// landing.
    ///
    /// # Errors
    ///
    /// What `id`'s last landing failed with, if nobody has been told:
    /// the operation then does not run.
    fn enter(&self, id: PageId, op: Op) -> Result<Turn<'_>> {
        match self.admit(id, op)? {
            Entry::Turn(turn) => Ok(turn),
            Entry::Kept(_) => unreachable!("only a read is served from a kept page"),
        }
    }

    /// As [`Shard::enter`], for `op` — which `id`'s landings may not make
    /// wait: a read is served from the page the newest keeps, under the
    /// lock, landing nothing, and the landing stays, with nothing to read
    /// behind, the page resident again; a rewrite begins behind landings
    /// that append, unless a rebuild is queued.
    fn admit(&self, id: PageId, op: Op) -> Result<Entry<'_>> {
        loop {
            let mut guard =
                self.wait_while(self.lock(), |f| f.planners > 0 || f.busy.contains(&id));
            let (pager, flights) = &mut *guard;
            let room = self.room(pager);
            let ours = |l: &Landing| l.out.id() == id;
            let newest = flights.landings.iter().rposition(ours);
            let kept = newest.filter(|&at| op == Op::Read && room.keeps(&flights.landings[at]));
            let rides = op == Op::Rewrite && pager.recovery_backlog() == 0 && pager.appends();
            // A read served from a kept page lands nothing: the next
            // operation on the wire does.
            let own = flights.landing(id).filter(|_| !rides);
            let lands = || own.or_else(|| self.due(pager, flights));
            if let Some(at) = kept.is_none().then(lands).flatten() {
                // `id`'s own operation is about to read, rewrite or free
                // it: nothing to read behind.
                flights.landings[at].behind &= !ours(&flights.landings[at]);
                self.land(guard, at);
                continue;
            }
            if let Some(at) = flights.failed.iter().position(|f| f.0 == id) {
                return Err(flights.failed.swap_remove(at).1);
            }
            let Some(at) = kept else {
                return Ok(Entry::Turn(self.turn(guard, id)));
            };
            // The page is resident again: nothing to read behind. A kept
            // page that fails its check is no page to serve — the read
            // lands the pageout, and reads the wire.
            let landing = &mut flights.landings[at];
            landing.behind = false;
            let stamp = landing.out.writing.stamp();
            if let Some(page) = pager.read_kept(id, &landing.page, stamp) {
                return Ok(Entry::Kept(page));
            }
            landing.recurs = false;
        }
    }

    /// As [`Shard::admit`], for an operation that changes placements:
    /// the pager drains its queued rebuilds first, and a rebuild plans —
    /// so if any is queued, the wire is emptied for it.
    fn enter_to_write(&self, id: PageId, op: Op) -> Result<Turn<'_>> {
        let mut turn = self.enter(id, op)?;
        if turn.pager().recovery_backlog() > 0 {
            turn.quiet();
        }
        Ok(turn)
    }

    /// `id`'s turn, under `guard`.
    fn turn<'a>(&'a self, mut guard: ShardGuard<'a>, id: PageId) -> Turn<'a> {
        guard.1.busy.push(id);
        Turn {
            shard: self,
            id,
            guard: Some(guard),
            parked: false,
        }
    }

    /// Takes landing `at` back, as a turn of its page.
    fn claim<'a>(&'a self, mut guard: ShardGuard<'a>, at: usize) -> (Turn<'a>, Landing) {
        let landing = guard.1.take(at);
        (self.turn(guard, landing.out.id()), landing)
    }

    /// Lands landing `at`, its page's oldest, as a turn of its page.
    fn land(&self, guard: ShardGuard<'_>, at: usize) {
        let (mut turn, landing) = self.claim(guard, at);
        turn.land(landing, false);
    }

    /// Lands, while nobody holds the lock, what a turn would land — so
    /// that a shard no fault has entered since holds back neither a
    /// read-behind nor, its page landing, a read-ahead. Speculation's
    /// rule: nothing waits.
    fn land_ready(&self) {
        while let Some(guard) = self.try_lock() {
            let (pager, flights) = &*guard;
            match self.due(pager, flights) {
                Some(at) => self.land(guard, at),
                None => return,
            }
        }
    }

    /// Returns holding the lock, once every pageout landing has landed:
    /// those of a page a turn holds, by that turn.
    fn land_all<'a>(&'a self, mut guard: ShardGuard<'a>) -> ShardGuard<'a> {
        while !guard.1.landings.is_empty() {
            let flights = &guard.1;
            match flights.landings.iter().position(|l| !flights.held(l)) {
                Some(at) => {
                    self.land(guard, at);
                    guard = self.lock();
                }
                None => {
                    let blocked = |f: &Flights| {
                        !f.landings.is_empty() && f.landings.iter().all(|l| f.held(l))
                    };
                    guard = self.wait_while(guard, blocked);
                }
            }
        }
        guard
    }

    /// Returns once nothing of this shard is on the wire, holding the
    /// lock — so nothing takes off until the caller lets go. Landings are
    /// landed first, while operations still begin: a turn that leaves one
    /// begins before the planner counts itself, so none is left once it
    /// has. Nothing between the two counts can unwind: the waits recover
    /// a poisoned lock.
    fn quiet<'a>(&'a self, guard: ShardGuard<'a>) -> ShardGuard<'a> {
        let mut guard = self.land_all(guard);
        guard.1.planners += 1;
        guard = self.wait_while(guard, |f| f.on_wire > 0);
        guard.1.planners -= 1;
        self.announce(&guard);
        guard
    }
}

/// What an operation on a page does with the page's landings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    /// A read: served from the page the newest keeps, or lands them.
    Read,
    /// A rewrite: begins behind landings that append, or lands them.
    Rewrite,
    /// Anything else: lands them.
    Other,
}

/// What [`Shard::admit`] lets an operation on a page in to.
enum Entry<'a> {
    /// The page's turn.
    Turn(Turn<'a>),
    /// The page its landing keeps, served.
    Kept(Page),
}

/// One operation's turn on a shard: its page's entry in the busy set,
/// and the lock except while parked. Dropping it gives both back — on an
/// unwind too, so a panic under it leaves no page busy for ever and no
/// flight counted on a wire it has left.
struct Turn<'a> {
    shard: &'a Shard,
    id: PageId,
    /// `None` while parked or quieting.
    guard: Option<ShardGuard<'a>>,
    /// Whether it is parked, and so counted in `on_wire`.
    parked: bool,
}

impl Turn<'_> {
    fn pager(&mut self) -> &mut Pager {
        &mut self.guard.as_mut().expect("not parked").0
    }

    fn flights(&mut self) -> &mut Flights {
        &mut self.guard.as_mut().expect("not parked").1
    }

    /// Runs `park` with the lock released.
    fn parked(&mut self, park: impl FnOnce()) {
        let mut guard = self.guard.take().expect("not parked");
        guard.1.on_wire += 1;
        self.parked = true;
        drop(guard);
        park();
        let mut guard = self.shard.lock();
        guard.1.on_wire -= 1;
        self.parked = false;
        self.shard.announce(&guard);
        self.guard = Some(guard);
    }

    /// As [`Shard::quiet`], in mid-turn.
    fn quiet(&mut self) {
        let guard = self.guard.take().expect("not parked");
        self.guard = Some(self.shard.quiet(guard));
    }

    /// Completes the pageout `out` of `page`, back under the lock: when a
    /// server failed under it, lets the wire empty and runs it again —
    /// unless a later pageout of the page is under way, landing or, if
    /// `newer`, begun by this turn: that one has the page's version, so
    /// this one is not run again, and the server's rebuild is queued.
    fn complete_page_out(&mut self, out: PageOutFlight, page: &Page, newer: bool) -> Result<()> {
        let id = self.id;
        match self.pager().complete_page_out(out, page) {
            ControlFlow::Break(done) => done,
            ControlFlow::Continue(failed) if newer || self.flights().landing(id).is_some() => {
                self.pager().supersede(failed, page)
            }
            ControlFlow::Continue(failed) => {
                self.quiet();
                self.pager().retry_page_out(failed, page)
            }
        }
    }

    /// Lands `landing`, a landing of the turn's page taken out of the
    /// flights: waits for its replies holding no lock, if they are not in
    /// — a wait for a flight like any other — and completes it, reading
    /// the page behind it if it was left so. A failure is kept for the
    /// page's next operation, or the next flush. `newer` as in
    /// [`Turn::complete_page_out`].
    fn land(&mut self, landing: Landing, newer: bool) {
        let Landing {
            out, page, behind, ..
        } = landing;
        if !out.writing.is_ready() {
            self.pager().note_flight_wait();
            self.parked(|| out.writing.park());
        }
        match self.complete_page_out(out, &page, newer) {
            Ok(()) if behind => self.read_behind(),
            Ok(()) => {}
            Err(e) => {
                let id = self.id;
                self.flights().failed.push((id, e));
            }
        }
    }

    /// Lands the landings of the turn's page, oldest first, before the
    /// pageout it has begun completes: pageouts of a page commit in the
    /// order they began. `newer` when that pageout took, and so
    /// supersedes them.
    fn land_older(&mut self, newer: bool) {
        let id = self.id;
        while let Some(at) = self.flights().landing(id) {
            let landing = self.flights().take(at);
            self.land(landing, newer);
        }
    }

    /// Leaves the pageout `out` of `page` landing: its caller may return.
    /// One to be read behind leaves the connection at once: its read waits
    /// for it to land. So does one of a page that recurs, kept for its
    /// faults: it lands no later than its replies make it. The
    /// landings of its page it finds are superseded: a newer version is
    /// on its way, so they are neither read behind nor kept.
    fn leave(&mut self, out: PageOutFlight, page: &Page, (behind, recurs): (bool, bool)) {
        if behind || recurs {
            out.writing.push();
        }
        let id = self.id;
        let left = self.shard.departures.fetch_add(1, Ordering::Relaxed) + 1;
        let flights = self.flights();
        for landing in (flights.landings.iter_mut()).filter(|l| l.out.id() == id) {
            (landing.behind, landing.recurs) = (false, false);
        }
        let page = page.clone();
        flights.landings.push(Landing {
            out,
            page,
            behind,
            recurs,
            left,
        });
        flights.on_wire += 1;
    }

    /// Reads the page back behind its acknowledged pageout: a read-ahead
    /// of one page, under the page's own turn.
    fn read_behind(&mut self) {
        let id = self.id;
        self.pager().read_ahead(std::iter::once(id));
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let guard = (self.guard).get_or_insert_with(|| self.shard.lock());
        if std::mem::take(&mut self.parked) {
            guard.1.on_wire -= 1;
        }
        guard.1.busy.retain(|&busy| busy != self.id);
        guard.0.note_landings(guard.1.landings.len());
        self.shard.announce(guard);
    }
}

/// A `&self` pager many threads can fault through concurrently.
///
/// See the [module docs](self) for the shard map and locking rules.
/// Implements [`PagingDevice`], so a single-threaded consumer — a
/// [`PagedMemory`](../rmp_vm/struct.PagedMemory.html) region — pages
/// through it unchanged; wrap it in an `Arc` and clone the handle into
/// each application thread.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use rmp_cluster::Registry;
/// use rmp_core::ShardedPager;
/// use rmp_types::{Page, PageId, PagerConfig, Policy};
///
/// let registry = Registry::parse("0 127.0.0.1:7070 1.0\n").unwrap();
/// let config = PagerConfig::new(Policy::NoReliability)
///     .with_servers(1)
///     .with_shard_count(8);
/// let pager = Arc::new(ShardedPager::connect(config, &registry).unwrap());
/// let threads: Vec<_> = (0..8u64)
///     .map(|t| {
///         let pager = Arc::clone(&pager);
///         std::thread::spawn(move || {
///             pager.page_out(PageId(t), &Page::deterministic(t)).unwrap();
///             assert_eq!(pager.page_in(PageId(t)).unwrap(), Page::deterministic(t));
///         })
///     })
///     .collect();
/// for t in threads {
///     t.join().unwrap();
/// }
/// ```
pub struct ShardedPager {
    shards: Vec<Shard>,
    /// `shard_count - 1`; the shard of `id` is `id & mask`.
    mask: u64,
    /// The one decision to read ahead, over every shard's faults (see the
    /// [module docs](self#read-ahead)).
    planner: Mutex<Planner>,
    /// Held while a death verdict is passed from one shard to the others
    /// and while [`ShardedPager::reconnect`] pardons, so that a verdict
    /// reached before a pardon is never delivered after it. Taken before
    /// any shard lock, never under one.
    verdicts: Mutex<()>,
}

impl std::fmt::Debug for ShardedPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPager")
            .field("shard_count", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedPager {
    /// Starts building a sharded pager for `config`.
    pub fn builder(config: PagerConfig) -> ShardedPagerBuilder {
        ShardedPagerBuilder {
            config,
            pools: Vec::new(),
            disks: Vec::new(),
        }
    }

    /// Dials every server in `registry` once *per shard* — the
    /// connection pool that keeps shards from serializing on one socket
    /// — and builds `config.shard_count` shards.
    ///
    /// # Errors
    ///
    /// [`RmpError::Config`] for invalid configurations; connection
    /// errors when any server is unreachable.
    pub fn connect(config: PagerConfig, registry: &Registry) -> Result<Self> {
        config.validate()?;
        let mut pools = Vec::with_capacity(config.shard_count);
        for _ in 0..config.shard_count {
            pools.push(ServerPool::connect_with(
                registry,
                config.transport.clone(),
            )?);
        }
        ShardedPager::builder(config).pools(pools).build()
    }

    /// Number of shards (and the maximum useful thread parallelism).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `id`.
    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[(id.0 & self.mask) as usize]
    }

    /// Runs `f` on shard `index`'s pager — an escape hatch for tests and
    /// tools that inspect per-shard state (metrics, pool views).
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut Pager) -> R) -> R {
        f(&mut self.shards[index].lock().0)
    }

    /// Stores `page` under `id`, locking only `id`'s shard, and that not
    /// while the frames are on the wire. A split-phase pageout returns
    /// once its frames are on the request window, and lands later (see
    /// the [module docs](self#begin-park-complete)).
    ///
    /// # Errors
    ///
    /// What the pageout failed with, if it did not leave landing; or what
    /// the last pageout of `id` failed with as it landed, and then `page`
    /// is not written.
    pub fn page_out(&self, id: PageId, page: &Page) -> Result<()> {
        let (behind, recurs) = self.recurrence(id);
        let mut turn = self.shard(id).enter_to_write(id, Op::Rewrite)?;
        let out = turn.pager().begin_page_out(id, page);
        let done = if out.writing.left() {
            turn.leave(out, page, (behind, recurs));
            Ok(())
        } else {
            turn.land_older(out.writing.took());
            if out.writing.on_wire() {
                turn.parked(|| out.writing.park());
            }
            let done = turn.complete_page_out(out, page, false);
            if behind && done.is_ok() {
                turn.read_behind();
            }
            done
        };
        self.end_turn(turn);
        done
    }

    /// Fetches the page stored under `id`, locking only `id`'s shard, and
    /// that not while the read is on the wire.
    ///
    /// # Errors
    ///
    /// [`RmpError::PageNotFound`] for a page never written (or freed); the
    /// policy's failure when no copy nor its redundancy serves it; or
    /// what the last pageout of `id` failed with as it landed.
    pub fn page_in(&self, id: PageId) -> Result<Page> {
        let mut turn = match self.shard(id).admit(id, Op::Read)? {
            Entry::Turn(turn) => turn,
            Entry::Kept(page) => {
                self.plan_read_ahead(id, false);
                return Ok(page);
            }
        };
        let flight = turn.pager().begin_page_in(id);
        let mut led = false;
        if flight.reading.on_wire() {
            turn.parked(|| {
                led = self.lead_read_ahead(id);
                flight.reading.park();
            });
        }
        let hit = flight.hit;
        let done = turn.pager().complete_page_in(flight);
        self.end_turn(turn);
        if done.is_ok() {
            // Whatever each shard nobody holds has to land: a shard no
            // fault has entered since its pageouts were acked would hold
            // their read-behinds back.
            self.shards.iter().for_each(Shard::land_ready);
            if !led {
                self.plan_read_ahead(id, hit);
            }
        }
        done
    }

    /// Tells the planner of the served fault on `id` and hands out what
    /// it plans.
    fn plan_read_ahead(&self, id: PageId, hit: bool) {
        let plan = self.planner().plan(id, hit, |next| self.runway_gone(next));
        self.hand_out(id, plan);
    }

    /// Read-ahead leads a sweep: a miss on `id` about to wait for its
    /// demand read, if `id` recurs — it restarts a sweep the stream has
    /// learnt — is told to the planner now, and the plan handed out, so
    /// that the refill rides beside the demand read, not a round trip
    /// behind it. Whether it was; any other miss is planned once served.
    fn lead_read_ahead(&self, id: PageId) -> bool {
        let mut planner = self.planner();
        if !planner.recurs(id) {
            return false;
        }
        let plan = planner.plan(id, false, |next| self.runway_gone(next));
        drop(planner);
        self.hand_out(id, plan);
        true
    }

    fn planner(&self) -> MutexGuard<'_, Planner> {
        self.planner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the shard holding `next` has neither a copy of it nor one
    /// on its way; a shard that is locked says no.
    fn runway_gone(&self, next: PageId) -> bool {
        let ahead = self.shard(next).try_lock();
        ahead.is_some_and(|guard| !guard.0.prefetch_covers(next))
    }

    /// Hands each shard the pages of `plan`, counted from the fault on
    /// `id`, that it holds. Waits for no shard: one that is locked is
    /// skipped, and so is a page with an operation under way or a
    /// pageout landing.
    fn hand_out(&self, id: PageId, plan: Option<Plan>) {
        let Some(plan) = plan else {
            return;
        };
        for (index, shard) in self.shards.iter().enumerate() {
            let held = (plan.pages(id)).filter(|p| p.0 & self.mask == index as u64);
            let Some(mut guard) = held.clone().next().and_then(|_| shard.try_lock()) else {
                continue;
            };
            let (pager, flights) = &mut *guard;
            let idle = |&p: &PageId| !flights.busy.contains(&p) && flights.landing(p).is_none();
            pager.read_ahead(held.filter(idle));
        }
    }

    /// Whether `id` sits in a loop the fault stream has repeated, so that
    /// its pageout is read behind, and whether it recurs, so that its
    /// landing keeps it for its faults (see the [module
    /// docs](self#read-ahead)). Asked holding no shard lock, and of a
    /// planner nobody holds: speculation never waits.
    fn recurrence(&self, id: PageId) -> (bool, bool) {
        let ask = |planner: &Planner| (planner.loops(id), planner.recurs(id));
        match self.planner.try_lock() {
            Ok(planner) => ask(&planner),
            Err(TryLockError::Poisoned(planner)) => ask(&planner.into_inner()),
            Err(TryLockError::WouldBlock) => (false, false),
        }
    }

    /// Releases the page stored under `id`, locking only `id`'s shard.
    ///
    /// # Errors
    ///
    /// A queued rebuild or the engine's release failing; or what the last
    /// pageout of `id` failed with as it landed, and then `id` is not
    /// freed.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut turn = self.shard(id).enter_to_write(id, Op::Other)?;
        let done = turn.pager().free(id);
        self.end_turn(turn);
        done
    }

    /// Ends `turn` and, if its shard's pool has news, passes it on.
    fn end_turn(&self, mut turn: Turn<'_>) {
        let pool = turn.pager().pool_mut();
        let news = !pool.obituaries().is_empty() || !pool.backoffs().is_empty();
        let from = turn.shard;
        drop(turn);
        if news {
            self.pass_verdicts(from);
        }
    }

    /// One verdict for all: tells every shard what `from`'s pool has
    /// found — a connection to the same machine would only find it again —
    /// so each sibling's next read of a lost page goes straight to the
    /// policy's redundancy, and each shard, `from` too, queues the rebuild
    /// of a server declared dead, whatever operation reached the verdict.
    /// Told of a death, a shard is told as a planner would be heard: under
    /// its lock alone, once its flights have landed. The caller holds no
    /// shard lock.
    fn pass_verdicts(&self, from: &Shard) {
        let _no_pardon_meanwhile = self.verdicts.lock().unwrap_or_else(PoisonError::into_inner);
        let news = News::of(&mut from.lock().0);
        if news.dead.is_empty() && news.backing_off.is_empty() {
            return;
        }
        for shard in &self.shards {
            let mut guard = match news.dead.is_empty() {
                true => shard.lock(),
                false => shard.quiet(shard.lock()),
            };
            news.tell(&mut guard.0, std::ptr::eq(shard, from));
        }
    }

    /// Returns `true` when a page is stored under `id`.
    pub fn contains(&self, id: PageId) -> bool {
        self.shard(id).lock().0.contains(id)
    }

    /// Quiesces all shards — every pageout lands — and flushes each
    /// (seals partial parity groups).
    ///
    /// # Errors
    ///
    /// The first shard failure; earlier shards stay flushed. Else the
    /// first failure of a landed pageout its page's operations have not
    /// reported, and no later flush reports it again.
    pub fn flush(&self) -> Result<()> {
        let mut guards = self.quiesce();
        let mut landed = Ok(());
        for guard in guards.iter_mut() {
            for (_, e) in guard.1.failed.drain(..) {
                landed = landed.and(Err(e));
            }
            guard.0.flush()?;
        }
        landed
    }

    /// Cumulative transfer statistics summed over every shard, once every
    /// pageout has landed.
    pub fn stats(&self) -> TransferStats {
        let mut total = TransferStats::default();
        for shard in &self.shards {
            total += shard.land_all(shard.lock()).0.stats();
        }
        total
    }

    /// Records on every shard that `server` crashed; each shard defers
    /// its rebuild and serves degraded reads in the meantime, exactly as
    /// [`Pager::note_crash`] does.
    pub fn note_crash(&self, server: ServerId) {
        for shard in &self.shards {
            shard.lock().0.note_crash(server);
        }
    }

    /// Crashed servers still awaiting rebuild, summed over shards.
    pub fn recovery_backlog(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().0.recovery_backlog())
            .sum()
    }

    /// Quiesces all shards and rebuilds `server`'s pages on each — the
    /// coarse writer path: no application thread pages while the
    /// cluster-wide recovery pass runs.
    ///
    /// # Errors
    ///
    /// The first shard failure aborts the pass; completed shards keep
    /// their rebuilt state.
    pub fn recover_from_crash(&self, server: ServerId) -> Result<Vec<RecoveryReport>> {
        let mut guards = self.quiesce();
        self.planner().reset();
        let mut reports = Vec::with_capacity(guards.len());
        for guard in guards.iter_mut() {
            reports.push(guard.0.recover_from_crash(server)?);
        }
        Ok(reports)
    }

    /// Quiesces all shards and runs one maintenance pass on each
    /// (advisory service plus a budgeted recovery step), passing each
    /// shard's news on before the next one's pass: a server one shard's
    /// load probe found dead is not probed again by the others. Returns
    /// the summed `(pages_migrated, pages_rebuilt)`.
    ///
    /// # Errors
    ///
    /// The first shard failure aborts the pass.
    pub fn periodic_maintenance(&self) -> Result<(u64, u64)> {
        let _no_pardon_meanwhile = self.verdicts.lock().unwrap_or_else(PoisonError::into_inner);
        let mut guards = self.quiesce();
        let (mut migrated, mut rebuilt) = (0, 0);
        for shard in 0..guards.len() {
            let (m, r) = guards[shard].0.periodic_maintenance()?;
            migrated += m;
            rebuilt += r;
            let news = News::of(&mut guards[shard].0);
            for (_, sibling) in (guards.iter_mut().enumerate()).filter(|&(s, _)| s != shard) {
                news.tell(&mut sibling.0, false);
            }
        }
        Ok((migrated, rebuilt))
    }

    /// Redials `server` on every shard's pool (after a
    /// [`restart`](../rmp_server/struct.ServerHandle.html#method.restart)).
    ///
    /// # Errors
    ///
    /// The first shard whose redial fails; earlier shards stay
    /// reconnected.
    pub fn reconnect(&self, server: ServerId) -> Result<()> {
        let _no_verdict_meanwhile = self.verdicts.lock().unwrap_or_else(PoisonError::into_inner);
        let mut guards = self.quiesce();
        for guard in guards.iter_mut() {
            guard.0.pool_mut().reconnect(server)?;
        }
        Ok(())
    }

    /// Worst (highest) detector suspicion for `server` across every
    /// shard's pool. Shards see the same physical server through
    /// independent connections, so the pessimistic view is the honest
    /// one: any shard observing trouble is trouble.
    pub fn suspicion(&self, server: ServerId) -> f64 {
        self.shards
            .iter()
            .map(|s| s.lock().0.pool().suspicion(server))
            .fold(0.0, f64::max)
    }

    /// Per-shard metrics snapshots wrapped in one JSON document.
    pub fn metrics_snapshot_json(&self) -> String {
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| s.lock().0.metrics_snapshot_json())
            .collect();
        format!(
            "{{\"schema\": \"rmp-sharded-pager-v1\", \"shard_count\": {}, \"shards\": [{}]}}",
            self.shards.len(),
            shards.join(", ")
        )
    }

    /// Acquires every shard lock in ascending index order — the global
    /// lock order that makes multi-shard operations deadlock-free — each
    /// once its flights have landed.
    fn quiesce(&self) -> Vec<ShardGuard<'_>> {
        self.shards.iter().map(|s| s.quiet(s.lock())).collect()
    }
}

/// What one shard's pool found that its siblings have not: the servers
/// it declared dead — and of those, the ones the shard has rebuilt since
/// — and those it has backing off, with their rungs.
struct News {
    dead: Vec<ServerId>,
    rebuilt: Vec<ServerId>,
    backing_off: Vec<(ServerId, Rung)>,
}

impl News {
    /// Takes the news `pager`'s pool has left since it was last taken.
    fn of(pager: &mut Pager) -> News {
        let pool = pager.pool_mut();
        let mut dead = std::mem::take(pool.obituaries());
        // Forgiven or re-promoted since: no longer this shard's view.
        dead.retain(|&server| !pool.alive(server));
        let backing_off = std::mem::take(pool.backoffs());
        let backing_off = (backing_off.into_iter())
            .filter_map(|server| Some((server, pool.rung(server)?)))
            .collect();
        let rebuilt = pool.take_rebuilt();
        News {
            dead,
            rebuilt,
            backing_off,
        }
    }

    /// Tells `pager` — its flights landed if any server died — as if it
    /// had found out for itself; the shard that found it (`own`) queues
    /// no rebuild it has run since.
    fn tell(&self, pager: &mut Pager, own: bool) {
        for &server in &self.dead {
            pager.pool_mut().declare_dead(server, "sibling");
            if !(own && self.rebuilt.contains(&server)) {
                pager.note_crash(server);
            }
        }
        for &(server, rung) in &self.backing_off {
            pager.pool_mut().transition(server, Event::Told(rung));
        }
        // What it was just told is no news of its own to pass back.
        let theirs = pager.pool_mut().obituaries();
        theirs.retain(|server| !self.dead.contains(server));
    }
}

/// The sharded pager is itself a [`PagingDevice`], so a single-threaded
/// consumer (e.g. a paged-memory region) can page through it unchanged.
impl PagingDevice for ShardedPager {
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
        ShardedPager::page_out(self, id, page)
    }

    fn page_in(&mut self, id: PageId) -> Result<Page> {
        ShardedPager::page_in(self, id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        ShardedPager::free(self, id)
    }

    fn contains(&self, id: PageId) -> bool {
        ShardedPager::contains(self, id)
    }

    fn flush(&mut self) -> Result<()> {
        ShardedPager::flush(self)
    }

    fn stats(&self) -> TransferStats {
        ShardedPager::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_process;
    use crate::Clock;
    use rmp_types::Policy;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn sharded_pager_is_send_and_sync() {
        // The whole point: one instance shared by reference across
        // threads. A compile-time property, asserted explicitly so a
        // future non-Send field fails here instead of in user code.
        assert_send_sync::<ShardedPager>();
    }

    #[test]
    fn a_panic_in_mid_turn_gives_the_page_and_the_wire_back() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let config = PagerConfig::new(Policy::NoReliability).with_shard_count(1);
        let pool = in_process::pool(2, Clock::Real).1;
        let pager = (ShardedPager::builder(config).pools(vec![pool]))
            .build()
            .expect("one shard");
        let shard = &pager.shards[0];
        let enter = || {
            shard
                .enter(PageId(7), Op::Other)
                .expect("no landing failed")
        };
        let on_the_wire = || enter().parked(|| panic!("parked"));
        assert!(catch_unwind(AssertUnwindSafe(on_the_wire)).is_err());
        let under_the_lock = || {
            let _turn = enter();
            panic!("holding the lock");
        };
        assert!(catch_unwind(AssertUnwindSafe(under_the_lock)).is_err());
        let guard = shard.lock();
        assert!(guard.1.busy.is_empty() && guard.1.on_wire == 0);
        // Neither a planner nor the page's next operation hangs.
        drop(shard.quiet(guard));
        drop(enter());
    }

    #[test]
    fn a_panic_mid_landing_leaves_no_page_busy() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let config = PagerConfig::new(Policy::NoReliability).with_shard_count(1);
        let pool = in_process::pool(2, Clock::Real).1;
        let pager = (ShardedPager::builder(config).pools(vec![pool]))
            .build()
            .expect("one shard");
        let shard = &pager.shards[0];
        let land = |id: u64, page: u8| {
            pager
                .page_out(PageId(id), &Page::filled(page))
                .expect("out");
            shard.claim(shard.lock(), 0)
        };
        for id in [3, 5] {
            pager
                .page_out(PageId(id), &Page::filled(1))
                .expect("placed");
        }
        // Waiting for its replies, and holding the lock to complete it.
        let parked = || land(3, 2).0.parked(|| panic!("parked on a landing"));
        assert!(catch_unwind(AssertUnwindSafe(parked)).is_err());
        let completing = || {
            let _landing = land(5, 2);
            panic!("completing a landing");
        };
        assert!(catch_unwind(AssertUnwindSafe(completing)).is_err());
        let guard = shard.lock();
        assert!(guard.1.busy.is_empty() && guard.1.landings.is_empty());
        assert_eq!(guard.1.on_wire, 0);
        drop(shard.quiet(guard));
        // Lost with the panic, the rewrites are forgotten; the pages are
        // not stuck.
        for id in [3, 5] {
            pager.page_out(PageId(id), &Page::filled(4)).expect("out");
            assert_eq!(pager.page_in(PageId(id)).expect("in"), Page::filled(4));
        }
    }

    #[test]
    fn a_verdict_is_passed_on_once_and_a_pardon_withdraws_it() {
        let config = PagerConfig::new(Policy::Mirroring).with_shard_count(2);
        let pools = (0..2).map(|_| in_process::pool(3, Clock::Real).1);
        let pager = (ShardedPager::builder(config).pools(pools.collect()))
            .build()
            .expect("two shards");
        for id in [PageId(0), PageId(1)] {
            pager.page_out(id, &Page::deterministic(id.0)).expect("out");
        }
        let gone = ServerId(2);
        let dead_on = |shard| pager.with_shard(shard, |p| !p.pool().alive(gone));
        // Declared dead and pardoned before a turn has ended: no news.
        pager.with_shard(0, |p| {
            p.pool_mut().declare_dead(gone, "test");
            p.pool_mut().absolve(gone);
        });
        pager.page_in(PageId(0)).expect("in");
        assert!(!dead_on(1));
        // Declared dead: the next turn to end on shard 0 tells shard 1,
        // which queues its own rebuild.
        pager.with_shard(0, |p| p.pool_mut().declare_dead(gone, "test"));
        pager.page_in(PageId(0)).expect("in");
        assert!(dead_on(1));
        assert_eq!(pager.with_shard(1, |p| p.recovery_backlog()), 1);
        // What shard 1 was told is no news of its own: once shard 0 has
        // forgiven, a turn ending on shard 1 does not bring it back.
        pager.with_shard(0, |p| p.pool_mut().absolve(gone));
        pager.page_in(PageId(1)).expect("in");
        assert!(!dead_on(0) && dead_on(1));
    }

    #[test]
    fn a_read_behind_leaves_a_dead_backing_off_or_gray_holder_alone() {
        use crate::Readable;
        use std::time::Duration;
        let config = PagerConfig::new(Policy::Mirroring).with_shard_count(1);
        let (bend, pool) = in_process::pool(2, Clock::manual());
        let pager = (ShardedPager::builder(config).pools(vec![pool]))
            .build()
            .expect("one shard");
        let id = PageId(0);
        pager.page_out(id, &Page::filled(1)).expect("placed");
        let read = || assert_eq!(pager.page_in(id).expect("in"), Page::filled(1));
        read();
        // What `id`'s read-behind moved `pager_prefetch_{issued,
        // skipped_gray}_total` by.
        let shard = &pager.shards[0];
        let behind = || {
            let mut turn = shard.enter(id, Op::Other).expect("no landing failed");
            let counts = |turn: &mut Turn<'_>| {
                let metrics = turn.pager().metrics();
                let names = [
                    "pager_prefetch_issued_total",
                    "pager_prefetch_skipped_gray_total",
                ];
                names.map(|name| metrics.counter(name).get())
            };
            let before = counts(&mut turn);
            turn.read_behind();
            let after = counts(&mut turn);
            [after[0] - before[0], after[1] - before[1]]
        };
        assert_eq!(behind(), [1, 0], "a healthy holder is read");
        read();
        // The holder's read is lost once: it backs off, and the read goes
        // around it.
        bend.lock().expect("bend lock").lose_pageins = 1;
        read();
        let backing_off = |p: &mut Pager| {
            (0..2)
                .map(ServerId)
                .find(|&s| p.pool().backoff(s).is_some())
        };
        let holder = pager
            .with_shard(0, backing_off)
            .expect("the holder backs off");
        assert_eq!(behind(), [0, 0], "a backing-off holder was read");
        pager.with_shard(0, |p| p.pool_mut().declare_dead(holder, "test"));
        assert_eq!(behind(), [0, 0], "a dead holder was read");
        pager.with_shard(0, |p| p.pool_mut().absolve(holder));
        // Fast replies set the holder's baseline; then every one is late.
        (0..3).for_each(|_| read());
        bend.lock().expect("bend lock").late = Some((holder, Duration::from_millis(20)));
        let gray = |p: &mut Pager| p.pool().may_read(holder, true) == Readable::Gray;
        for _ in 0..20 {
            if pager.with_shard(0, gray) {
                break;
            }
            read();
        }
        assert!(pager.with_shard(0, gray), "the holder never looked gray");
        assert_eq!(behind(), [0, 1], "a gray holder was read");
    }

    #[test]
    fn builder_rejects_mismatched_pool_count() {
        let config = PagerConfig::new(Policy::NoReliability).with_shard_count(4);
        // Zero pools for four shards.
        let err = ShardedPager::builder(config).pools(Vec::new()).build();
        assert!(matches!(err, Err(RmpError::Config(_))), "got {err:?}");
    }

    #[test]
    fn builder_rejects_invalid_shard_count() {
        let config = PagerConfig::new(Policy::NoReliability).with_shard_count(3);
        let err = ShardedPager::builder(config).pools(Vec::new()).build();
        assert!(
            matches!(&err, Err(RmpError::Config(m)) if m.contains("power of two")),
            "got {err:?}"
        );
    }
}
