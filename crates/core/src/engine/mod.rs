//! Policy engines.
//!
//! The paper's reliability policies differ only in how many units of a
//! page go where, so most of them are one engine: [`stripe::Stripe`],
//! parameterised by a `(k, r)` geometry. [`basic`] and [`paritylog`] keep
//! what is theirs alone (a fixed layout with server-side deltas; a
//! client-side log) and [`diskonly`] is the baseline. This module holds
//! what they all share: the per-call [`Ctx`] with the one read, fetch,
//! placement and release path, the placement [`Table`], the
//! [`rebuild_step`] every recovery advances by, and the [`Engine`] trait
//! the [`crate::Pager`] dispatches through.

pub mod basic;
pub mod diskonly;
pub mod paritylog;
pub mod stripe;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use rmp_blockdev::PagingDevice;
use rmp_cluster::Condition;
use rmp_types::metrics::{Counter, EventKind, MetricsRegistry};
use rmp_types::{
    Page, PageId, Policy, Result, RmpError, ServerId, StoreKey, TransferStats, PAGE_SIZE,
};

use crate::pool::{Flight, ServerPool, StoreWave};
use crate::recovery::RecoveryStep;

/// One stored unit of a page — a whole copy, a split or a parity frame:
/// the holding server and the storage key it sits under.
pub type Unit = (ServerId, StoreKey);

/// The unit of a [`Table`] row that has not been placed yet. No server
/// bears this id, so the view reports its holder as not alive.
pub const VACANT: Unit = (ServerId(u32::MAX), StoreKey(u64::MAX));

/// The placement table: `PageId → {width units on distinct servers |
/// the local disk}`.
///
/// Units sit in one flat arena, `width` to a row, so recording a
/// placement allocates nothing of its own. Row 0 is the *staging* row: a
/// fresh placement is assembled there and only then recorded with
/// [`Table::commit`], so a page gets a row only once every unit has a
/// taker.
#[derive(Debug)]
pub struct Table {
    width: usize,
    /// Arena offset of each page's row; `None` for a page on the disk.
    rows: HashMap<PageId, Option<usize>>,
    units: Vec<Unit>,
    /// Offsets of released rows, reused before the arena grows.
    spare: Vec<usize>,
}

impl Table {
    /// Creates a table of `width` units per page.
    pub fn new(width: usize) -> Self {
        Table {
            width,
            rows: HashMap::new(),
            units: vec![VACANT; width],
            spare: Vec::new(),
        }
    }

    /// The units of `id`: empty for a page on the local disk, `None` for
    /// an unknown page.
    pub fn units(&self, id: PageId) -> Option<&[Unit]> {
        Some(match *self.rows.get(&id)? {
            Some(at) => &self.units[at..at + self.width],
            None => &[],
        })
    }

    /// As [`Table::units`], for updating units in place.
    pub fn units_mut(&mut self, id: PageId) -> Option<&mut [Unit]> {
        Some(match *self.rows.get(&id)? {
            Some(at) => &mut self.units[at..at + self.width],
            None => &mut [],
        })
    }

    /// The staging row.
    pub fn staged(&mut self) -> &mut [Unit] {
        &mut self.units[..self.width]
    }

    /// Records the staged units as the placement of `id`, over whatever
    /// it had.
    pub fn commit(&mut self, id: PageId) {
        let at = match self.rows.get(&id) {
            Some(&Some(at)) => at,
            _ => {
                let at = self.spare.pop().unwrap_or_else(|| {
                    self.units.resize(self.units.len() + self.width, VACANT);
                    self.units.len() - self.width
                });
                self.rows.insert(id, Some(at));
                at
            }
        };
        self.units.copy_within(..self.width, at);
    }

    /// Records `id` as held by the local disk, dropping its units.
    pub fn set_disk(&mut self, id: PageId) {
        if let Some(Some(at)) = self.rows.insert(id, None) {
            self.spare.push(at);
        }
    }

    /// Forgets `id`.
    pub fn remove(&mut self, id: PageId) {
        if let Some(Some(at)) = self.rows.remove(&id) {
            self.spare.push(at);
        }
    }

    /// Pages `keep` accepts the units of, in id order — so that rebuilds,
    /// migrations and promotions replay identically from run to run.
    fn pages_where(&self, keep: impl Fn(&[Unit]) -> bool) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.rows.keys().copied().collect();
        ids.retain(|&id| self.units(id).is_some_and(&keep));
        ids.sort_unstable();
        ids
    }

    /// Pages with at least one unit on `server`.
    pub fn pages_on(&self, server: ServerId) -> Vec<PageId> {
        self.pages_where(|units| units.iter().any(|&(s, _)| s == server))
    }

    /// Pages held by the local disk.
    pub fn on_disk(&self) -> Vec<PageId> {
        self.pages_where(<[Unit]>::is_empty)
    }
}

/// Runs one budget-bounded step over `queue`, the rebuild work an engine
/// planned for a crash — the one claim / requeue loop behind every
/// [`Engine::recovery_step`].
///
/// Up to `budget` items are claimed, `chunk` at a time, and each chunk is
/// handed to `rebuild` — which can then gather what the whole chunk needs
/// in one wave, and ship what it rebuilt in one more, instead of a round
/// trip or two per item. `rebuild` pops each item off the front once it
/// is done with it: its store acked, or no work left in it. Whatever it
/// leaves behind — the item it failed on and everything after it — goes
/// back to the head of the queue in order, so the retry after a replan
/// or a transient fault skips nothing.
///
/// # Errors
///
/// Whatever `rebuild` returns; the chunks after a failed one are not
/// claimed.
pub fn rebuild_step<W>(
    queue: &mut VecDeque<W>,
    budget: usize,
    chunk: usize,
    mut rebuild: impl FnMut(&mut VecDeque<W>, &mut RecoveryStep) -> Result<()>,
) -> Result<RecoveryStep> {
    let mut step = RecoveryStep::default();
    let mut left = budget.min(queue.len());
    while left > 0 {
        let mut claimed: VecDeque<W> = queue.drain(..left.min(chunk.max(1))).collect();
        left -= claimed.len();
        let outcome = rebuild(&mut claimed, &mut step);
        while let Some(work) = claimed.pop_back() {
            queue.push_front(work);
        }
        outcome?;
    }
    step.remaining = queue.len() as u64;
    Ok(step)
}

/// `page`, read off `unit`, if it is `len` bytes long: a reply of any other
/// length — a unit where a page was stored, or the reverse — is a typed
/// error here, not a slice-length panic where it is copied or XORed.
///
/// # Errors
///
/// [`RmpError::Protocol`] naming the unit and both lengths.
pub(crate) fn sized(page: Page, (server, key): Unit, len: usize) -> Result<Page> {
    match page.as_ref().len() {
        n if n == len => Ok(page),
        n => Err(RmpError::Protocol(format!(
            "{server} answered the read of {key} with {n} bytes, not {len}"
        ))),
    }
}

/// Whether a store failed the way that sends its frame on to the next
/// server — the holder denied it, crashed or timed out — rather than in
/// a way the caller has to hear about.
pub(crate) fn gave_way(e: &RmpError) -> bool {
    matches!(
        e,
        RmpError::NoSpace(_) | RmpError::ServerCrashed(_) | RmpError::Timeout(_)
    )
}

/// The engines' handles into the shared metrics registry: the registry
/// for traces, and their counters, each resolved by name the first time
/// it is bumped and kept — so counting takes no registry lock, and a
/// counter is registered only once its event has happened.
pub struct EngineMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) counters: Vec<(&'static str, Arc<Counter>)>,
}

/// An engine operation between its begin and its complete.
pub enum Begun<T, W> {
    /// Nothing on the wire: served or refused before it, or run whole.
    Done(Result<T>),
    /// One frame, collected through the retry ladder: the read of a unit
    /// that holds the whole page and has no redundancy, the rewrite of a
    /// lone copy in its frame.
    One(Flight),
    /// One frame of a read that can be served around its holder: it gets
    /// one attempt, and its failure is the caller's cue to do so.
    Around(Flight),
    /// Frames to several servers: a flight to each data unit of a page,
    /// each collected like [`Begun::Around`]; the rewrite of every unit in
    /// its frame, a wave.
    Many(W),
}

/// A demand read between [`Engine::begin_page_in`] and
/// [`Engine::complete_page_in`].
pub type Reading = Begun<Page, Vec<Flight>>;

/// A pageout between [`Engine::begin_page_out`] and
/// [`Engine::complete_page_out`].
pub type Writing = Begun<(), StoreWave>;

/// Frames an operation has on the wire, to several servers.
pub trait Owed {
    /// Waits for their replies, taking none.
    fn park(&self);
}

impl Owed for StoreWave {
    fn park(&self) {
        StoreWave::park(self);
    }
}

impl Owed for Vec<Flight> {
    fn park(&self) {
        self.iter().for_each(Flight::park);
    }
}

impl<T, W: Owed> Begun<T, W> {
    /// Whether replies are owed: whether there is anything to park on.
    pub fn on_wire(&self) -> bool {
        !matches!(self, Begun::Done(_))
    }

    /// Waits for the replies owed, taking none — the one step of an
    /// operation that needs no lock on the pager.
    pub fn park(&self) {
        match self {
            Begun::Done(_) => {}
            Begun::One(flight) | Begun::Around(flight) => flight.park(),
            Begun::Many(owed) => owed.park(),
        }
    }
}

impl Writing {
    /// Whether every frame is on the request window (see
    /// [`Flight::left`]): the replies will come whoever waits for them.
    pub fn left(&self) -> bool {
        match self {
            Begun::One(flight) => flight.left(),
            Begun::Many(wave) => wave.left(),
            _ => false,
        }
    }

    /// Whether collecting it will not block.
    pub fn is_ready(&self) -> bool {
        match self {
            Begun::One(flight) | Begun::Around(flight) => flight.is_ready(),
            Begun::Many(wave) => wave.is_ready(),
            Begun::Done(_) => true,
        }
    }

    /// The checksum of the page, where its frames carry it whole — a
    /// coded stripe's units carry their own.
    pub fn stamp(&self) -> Option<u64> {
        match self {
            Begun::One(flight) | Begun::Around(flight) => flight.stamp(),
            Begun::Many(wave) => wave.stamp(),
            Begun::Done(_) => None,
        }
    }
}

/// Per-call context handed to engines: the connection pool, the optional
/// local disk, shared statistics, and routing preferences.
pub struct Ctx<'a> {
    /// Server connections and load view.
    pub pool: &'a mut ServerPool,
    /// Local disk backend, when configured.
    pub disk: Option<&'a mut Box<dyn PagingDevice>>,
    /// Pager-wide transfer statistics.
    pub stats: &'a mut TransferStats,
    /// When set, route *new* pageouts to the local disk (the adaptive
    /// network-load switch of Section 5).
    pub prefer_disk: bool,
    /// Shared metrics registry for trace events and cold-path counters;
    /// `None` records nothing. Hot-path counting stays in
    /// [`Ctx::stats`] — this hook is for the rare, interesting moments
    /// (degraded reads, GC passes, group seals, migrations, recovery).
    pub metrics: Option<&'a mut EngineMetrics>,
    /// Whether a demand read may go around its holder; off once the way
    /// around failed and the holder lives: every read walks its ladder.
    pub around: bool,
}

impl Ctx<'_> {
    /// Appends a trace event to the shared event ring, if metrics are
    /// attached. Engines pass their own [`Policy`] so the event says
    /// which reliability scheme was acting.
    pub fn trace(
        &self,
        kind: EventKind,
        server: Option<ServerId>,
        policy: Option<Policy>,
        outcome: &'static str,
    ) {
        if let Some(m) = &self.metrics {
            m.registry.trace(kind, server, policy, outcome);
        }
    }

    /// Bumps the counter `name` by one, if metrics are attached: by a
    /// scan of the few handles resolved so far, through the registry
    /// only the first time.
    pub fn count(&mut self, name: &'static str) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let at = (m.counters.iter().position(|c| c.0 == name)).unwrap_or_else(|| {
            m.counters.push((name, m.registry.counter(name)));
            m.counters.len() - 1
        });
        m.counters[at].1.inc();
    }

    /// Counts and traces a finished migration of `moved` pages off
    /// `server`.
    pub fn note_migration(&mut self, moved: u64, server: ServerId, policy: Policy) {
        if moved > 0 {
            self.count("engine_migrations_total");
            self.trace(EventKind::Migration, Some(server), Some(policy), "moved");
        }
    }

    /// Writes `page` to the local disk under the logical id.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] when no disk is configured.
    pub fn disk_write(&mut self, id: PageId, page: &Page) -> Result<()> {
        let disk = self
            .disk
            .as_deref_mut()
            .ok_or(RmpError::Unsupported("no local disk configured"))?;
        disk.page_out(id, page)?;
        self.stats.disk_writes += 1;
        self.count("engine_disk_writes_total");
        Ok(())
    }

    /// Reads the page under the logical id from the local disk.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] when no disk is configured.
    pub fn disk_read(&mut self, id: PageId) -> Result<Page> {
        let disk = self
            .disk
            .as_deref_mut()
            .ok_or(RmpError::Unsupported("no local disk configured"))?;
        let page = disk.page_in(id)?;
        self.stats.disk_reads += 1;
        self.count("engine_disk_reads_total");
        Ok(page)
    }

    /// Removes the page under the logical id from the local disk (no-op
    /// without a disk).
    ///
    /// # Errors
    ///
    /// Propagates disk failures.
    pub fn disk_free(&mut self, id: PageId) -> Result<()> {
        if let Some(disk) = self.disk.as_deref_mut() {
            disk.free(id)?;
        }
        Ok(())
    }

    /// Returns `true` when a local disk is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Returns `true` when the view holds `server` to be alive.
    pub fn alive(&self, server: ServerId) -> bool {
        self.pool.view().is_alive(server)
    }

    /// Returns `true` when `server` is alive and has not asked the client
    /// to stop sending it new pages.
    pub fn accepting(&self, server: ServerId) -> bool {
        (self.pool.view().status(server))
            .is_some_and(|st| !matches!(st.condition, Condition::Dead | Condition::StopSending))
    }

    /// The holder check of every demand read that has a degraded path to
    /// fall back on: a holder the view holds dead, one backing off whose
    /// next rung is not due yet, or one that looks gray is reported
    /// *before* dialling it — the read goes straight to the redundancy,
    /// and waits for no verdict on the holder. Reads no clock for a holder
    /// on no rung; refuses only a dead holder when [`Ctx::around`] is off.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] naming the holder.
    pub fn holder_ready(&self, server: ServerId) -> Result<()> {
        let backing_off = || (self.pool.backoff(server)).is_some_and(|due| Instant::now() < due);
        let usable = || !self.around || (!backing_off() && !self.pool.looks_gray(server));
        if self.alive(server) && usable() {
            Ok(())
        } else {
            Err(RmpError::ServerCrashed(server))
        }
    }

    /// Demand-reads a unit that holds a whole page, with one plain keyed
    /// read (no wave, no allocation beyond the page). `redundant` says the
    /// policy can serve the page some other way: the holder check is on,
    /// and the read gets one attempt — a holder whose rung is due is
    /// dialled as that rung; with [`Ctx::around`] off, a live holder is
    /// read through its whole ladder. Without redundancy the read walks
    /// the retry ladder, and dials a holder held to be dead: that is the
    /// only way the page — and the holder, should it be back — is ever
    /// found again.
    ///
    /// # Errors
    ///
    /// As [`Ctx::holder_ready`], `ServerPool::missed` and
    /// [`ServerPool::page_in`].
    pub fn read_unit(&mut self, unit: Unit, redundant: bool) -> Result<Page> {
        let reading = self.begin_read(unit, redundant);
        self.finish_read(reading)
    }

    /// The first half of [`Ctx::read_unit`]: the read is on the wire,
    /// unless the holder check refused it.
    pub fn begin_read(&mut self, (server, key): Unit, redundant: bool) -> Reading {
        if !redundant {
            return Reading::One(self.pool.begin_page_in(server, key));
        }
        match self.holder_ready(server) {
            Ok(()) => Reading::Around(self.pool.begin_page_in(server, key)),
            Err(refused) => Reading::Done(Err(refused)),
        }
    }

    /// The second half of [`Ctx::read_unit`]; a read that never took
    /// the wire passes through.
    pub fn finish_read(&mut self, reading: Reading) -> Result<Page> {
        let page = match reading {
            Reading::Done(done) => return done,
            Reading::One(flight) => self.pool.finish_page_in(flight)?,
            Reading::Around(flight) => self.read_once(flight)?,
            Reading::Many(_) => return Err(RmpError::Unsupported("a gather is not one unit")),
        };
        self.stats.net_fetches += 1;
        Ok(page)
    }

    /// Collects a read that can be served around its holder, after its one
    /// attempt — the whole ladder with [`Ctx::around`] off. A failure puts
    /// the holder on its rung and names it.
    ///
    /// # Errors
    ///
    /// As `ServerPool::missed`; [`RmpError::PageNotFound`] on a miss.
    pub(crate) fn read_once(&mut self, flight: Flight) -> Result<Page> {
        if !self.around {
            return self.pool.finish_page_in(flight);
        }
        let (server, key) = flight.unit();
        match self.pool.finish_page_in_unretried(flight) {
            Ok(Some(page)) => Ok(page),
            Ok(None) => Err(RmpError::PageNotFound(PageId(key.0))),
            Err(e) => Err(self.pool.missed(server, e)),
        }
    }

    /// Fetches many remote pages in one round trip: one plain keyed read
    /// each, a holder's reads leaving as one burst and all bursts on the
    /// wire before any reply is awaited ([`ServerPool::page_in_wave`]).
    /// No read is no wave, and a lone read is one call. Results come back
    /// in request order.
    ///
    /// Callers read from placement maps they own, so every key is
    /// expected to exist, and to hold a whole page; a miss, or a reply of
    /// another length, is a protocol-level surprise, not a normal outcome.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::page_in`] and [`ServerPool::page_in_wave`];
    /// [`RmpError::Protocol`] when a server no longer holds a requested
    /// key or answers with no whole page.
    pub fn gather(&mut self, reads: &[Unit]) -> Result<Vec<Page>> {
        self.gather_units(reads, PAGE_SIZE)
    }

    /// [`Ctx::gather`] of units `len` bytes long: a stripe's.
    ///
    /// # Errors
    ///
    /// As [`Ctx::gather`], a reply that is not `len` bytes long included.
    pub fn gather_units(&mut self, reads: &[Unit], len: usize) -> Result<Vec<Page>> {
        let pages = match *reads {
            [] => return Ok(Vec::new()),
            [(server, key)] => match self.pool.page_in(server, key) {
                Ok(page) => Ok(vec![Some(page)]),
                Err(RmpError::PageNotFound(_)) => Ok(vec![None]),
                Err(e) => Err(e),
            },
            _ => self.pool.page_in_wave(reads),
        };
        self.fetched(pages, reads, len)
    }

    /// Counts what a fetch of `reads` brought; a miss, or a page that is
    /// not `len` bytes long, is an error.
    fn fetched(
        &mut self,
        pages: Result<Vec<Option<Page>>>,
        reads: &[Unit],
        len: usize,
    ) -> Result<Vec<Page>> {
        let missing = |(server, key): Unit| {
            RmpError::Protocol(format!("server {server} no longer holds key {key}"))
        };
        let pages = (pages?.into_iter().zip(reads))
            .map(|(page, &read)| sized(page.ok_or_else(|| missing(read))?, read, len))
            .collect::<Result<Vec<Page>>>()?;
        self.stats.net_fetches += reads.len() as u64;
        Ok(pages)
    }

    /// Fetches every listed piece of `group` — the survivors of a
    /// redundancy group and its parity — in one wave, for the caller to
    /// XOR or decode. A piece whose holder is already known to be dead
    /// means the group lost more than its redundancy covers.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unrecoverable`] for a piece on a dead server; otherwise
    /// as [`Ctx::gather`] (a holder found dead *during* the fetch
    /// surfaces as [`RmpError::ServerCrashed`], and the caller replans).
    pub fn fetch_group(
        &mut self,
        pieces: &[Unit],
        group: &dyn std::fmt::Display,
    ) -> Result<Vec<Page>> {
        if let Some(&(dead, _)) = pieces.iter().find(|&&(s, _)| !self.alive(s)) {
            return Err(RmpError::Unrecoverable(format!(
                "{group} lost a second piece with {dead}"
            )));
        }
        self.gather(pieces)
    }

    /// [`Ctx::fetch_group`] for the groups at the head of a queue, in one
    /// wave: the first of `groups`, named `first`, and as many of those
    /// behind it as have every holder alive — a group that lost a second
    /// piece is left to head a gather of its own, so that its loss is
    /// reported once the groups before it are served. Returns the pieces
    /// of each group served.
    ///
    /// # Errors
    ///
    /// As [`Ctx::fetch_group`].
    pub fn fetch_groups<G: AsRef<[Unit]>>(
        &mut self,
        groups: &[G],
        first: &dyn std::fmt::Display,
    ) -> Result<Vec<Vec<Page>>> {
        let whole = |group: &&G| group.as_ref().iter().all(|&(s, _)| self.alive(s));
        let served = groups.len().min(1) + groups.iter().skip(1).take_while(whole).count();
        let groups = groups[..served].iter().map(G::as_ref);
        let pieces: Vec<Unit> = groups.clone().flatten().copied().collect();
        let mut fetched = self.fetch_group(&pieces, first)?.into_iter();
        Ok(groups
            .map(|group| fetched.by_ref().take(group.len()).collect())
            .collect())
    }

    /// Reserves a frame on `server` and ships `page` under `key`,
    /// returning the frame grant to the pool when the pageout fails —
    /// otherwise every failed store after a successful reservation leaks
    /// one grant and slowly starves the server of frames it never sees.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::reserve_frame`] and [`ServerPool::page_out`].
    pub fn reserve_and_page_out(
        &mut self,
        server: ServerId,
        key: StoreKey,
        page: &Page,
    ) -> Result<rmp_proto::LoadHint> {
        self.pool.reserve_frame(server)?;
        match self.pool.page_out(server, key, page) {
            Ok(hint) => Ok(hint),
            Err(e) => {
                self.pool.return_frame(server);
                Err(e)
            }
        }
    }

    /// [`Ctx::reserve_and_page_out`] for a caller that works a queue in
    /// order: reserves a frame for each of `stores` and ships them all in
    /// one wave. Returns how many of the *leading* stores landed and what
    /// stopped the next one. The grant of every store not counted goes
    /// back to the pool — that of one that landed behind a failed one
    /// too: the caller ships it again, under a grant reserved then, into
    /// the frame it already has.
    pub fn ship_in_order(&mut self, stores: &[(Unit, &Page)]) -> (usize, Result<()>) {
        let mut denied = None;
        let mut reserved = 0;
        for &((server, _), _) in stores {
            match self.pool.reserve_frame(server) {
                Ok(()) => reserved += 1,
                Err(e) => {
                    denied = Some(e);
                    break;
                }
            }
        }
        let outcomes = match stores[..reserved] {
            [((server, key), page)] => vec![self.pool.page_out(server, key, page).map(drop)],
            ref reserved => self.ship(reserved, &[], None).0,
        };
        let landed = outcomes.iter().take_while(|stored| stored.is_ok()).count();
        for &((server, _), _) in &stores[landed..reserved] {
            self.pool.return_frame(server);
        }
        let stopped = outcomes.into_iter().find_map(Result::err).or(denied);
        (landed, stopped.map_or(Ok(()), Err))
    }

    /// One wave: ships every page in `stores` to its unit and releases
    /// every unit in `frees`, all frames on the wire before any reply is
    /// awaited; `through` — a write-through's disk leg — is written while
    /// they are in flight. The frees are awaited like the stores, so a
    /// caller that returns has nothing left ageing on the wire to be
    /// counted as stored; riding the same wave they cost no round trip of
    /// their own.
    ///
    /// Returns each store's outcome for the caller to weigh, and what
    /// became of the rest: the frees are best-effort as in
    /// [`Ctx::release`], the disk write as [`Ctx::disk_write`].
    pub fn ship(
        &mut self,
        stores: &[(Unit, &Page)],
        frees: &[Unit],
        through: Option<(PageId, &Page)>,
    ) -> (Vec<Result<()>>, Result<()>) {
        let frees: Vec<Unit> = (frees.iter().copied())
            .filter(|&(server, _)| self.alive(server))
            .collect();
        if stores.is_empty() && frees.is_empty() {
            let rest = through.map_or(Ok(()), |(id, page)| self.disk_write(id, page));
            return (Vec::new(), rest);
        }
        let wave = self.pool.begin_stores(stores, &frees);
        let mut rest = through.map_or(Ok(()), |(id, page)| self.disk_write(id, page));
        let mut outcomes = self.pool.finish_stores(wave);
        for freed in outcomes.drain(stores.len()..) {
            match freed {
                Ok(()) | Err(RmpError::ServerCrashed(_) | RmpError::Timeout(_)) => {}
                Err(e) => rest = rest.and(Err(e)),
            }
        }
        (outcomes, rest)
    }

    /// The server the next frame should be offered to: `preferred` (if
    /// given, not excluded, healthy and accepting), else the most
    /// promising server outside `exclude`.
    fn candidate(&self, preferred: Option<ServerId>, exclude: &[ServerId]) -> Option<ServerId> {
        preferred
            .filter(|s| !exclude.contains(s) && self.accepting(*s))
            .or_else(|| self.pool.view().most_promising(exclude))
    }

    /// Finds a taker for one frame — the Section 2.1 dynamics: start from
    /// `preferred`, then walk the other servers by promise order whenever
    /// one denies the allocation, crashes or times out — and reserves a
    /// frame grant on it. Every server tried joins `exclude`. `None` when
    /// no server is left.
    fn reserve_taker(
        &mut self,
        preferred: Option<ServerId>,
        exclude: &mut Vec<ServerId>,
    ) -> Result<Option<Unit>> {
        let mut candidate = self.candidate(preferred, exclude);
        while let Some(server) = candidate {
            exclude.push(server);
            match self.pool.reserve_frame(server) {
                Ok(()) => return Ok(Some((server, self.pool.fresh_key()))),
                Err(e) if gave_way(&e) => candidate = self.pool.view().most_promising(exclude),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Reserves a taker for each frame of a placement, one frame per
    /// entry of `preferred`: its own server if it has one and that takes
    /// it, else by promise order, and every server tried joins `exclude` —
    /// so the frames of one call land on distinct servers, exactly the
    /// servers the serial walk would reach first on a healthy cluster.
    /// `None` where no server is left.
    ///
    /// # Errors
    ///
    /// As [`ServerPool::reserve_frame`], for a failure other than denial,
    /// crash and timeout; every grant reserved by then goes back.
    pub(crate) fn reserve_takers(
        &mut self,
        preferred: impl IntoIterator<Item = Option<ServerId>>,
        exclude: &mut Vec<ServerId>,
    ) -> Result<Vec<Option<Unit>>> {
        let mut takers = Vec::new();
        for preferred in preferred {
            match self.reserve_taker(preferred, exclude) {
                Ok(taker) => takers.push(taker),
                Err(e) => {
                    for &(server, _) in takers.iter().flatten() {
                        self.pool.return_frame(server);
                    }
                    return Err(e);
                }
            }
        }
        Ok(takers)
    }

    /// The serial walk: offers `frame` to one taker after another until
    /// one stores it.
    fn walk(
        &mut self,
        frame: &Page,
        mut preferred: Option<ServerId>,
        exclude: &mut Vec<ServerId>,
    ) -> Result<Option<Unit>> {
        while let Some((server, key)) = self.reserve_taker(preferred.take(), exclude)? {
            match self.pool.page_out(server, key, frame) {
                Ok(_hint) => return Ok(Some((server, key))),
                Err(e) => {
                    self.pool.return_frame(server);
                    if !gave_way(&e) {
                        return Err(e);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Stores each frame of `wanted` under a fresh key on a server of its
    /// own, in one wave: a taker is picked for every frame up front — its
    /// preferred server if it has one, else by promise order, exactly the
    /// servers the serial walk would have reached on a healthy cluster —
    /// a grant is reserved on each, and all the pageouts leave together.
    /// Only a frame whose taker then denied it, crashed or timed out falls
    /// through to the walk, one server after another. Servers in `exclude`
    /// are never tried, and every server tried joins it — so the frames of
    /// one call, and of consecutive calls with one list, land on distinct
    /// servers. A lone frame with nothing to release is the walk alone:
    /// one call, no wave. `frees` — the units this placement supersedes —
    /// ride the same wave; a taker that denies its frame beside the free
    /// of its own old unit has just made the room, and is offered the
    /// frame once more before the walk moves on.
    ///
    /// Returns the unit of each frame, `None` where no server took it —
    /// all `None`, with only `frees` released, when the adaptive switch
    /// routes new pages to the disk; the caller falls back to it.
    ///
    /// # Errors
    ///
    /// Propagates storage failures other than denial, crash and timeout;
    /// what the call had stored by then is released. `frees` may or may
    /// not have been.
    pub fn place(
        &mut self,
        wanted: &[(&Page, Option<ServerId>)],
        exclude: &mut Vec<ServerId>,
        frees: &[Unit],
    ) -> Result<Vec<Option<Unit>>> {
        let mut placed = vec![None; wanted.len()];
        if self.prefer_disk {
            return self.release(frees).map(|()| placed);
        }
        let outcome = self.place_into(&mut placed, wanted, exclude, frees);
        if outcome.is_err() {
            let landed: Vec<Unit> = placed.iter().flatten().copied().collect();
            let _ = self.release(&landed);
        }
        outcome.map(|()| placed)
    }

    /// [`Ctx::place`], recording in `placed` what is stored so far.
    fn place_into(
        &mut self,
        placed: &mut [Option<Unit>],
        wanted: &[(&Page, Option<ServerId>)],
        exclude: &mut Vec<ServerId>,
        frees: &[Unit],
    ) -> Result<()> {
        if let ([(frame, preferred)], []) = (wanted, frees) {
            placed[0] = self.walk(frame, *preferred, exclude)?;
            return Ok(());
        }
        let reserved = self.reserve_takers(wanted.iter().map(|w| w.1), exclude)?;
        let takers: Vec<(usize, (Unit, &Page))> = (reserved.into_iter().zip(wanted).enumerate())
            .filter_map(|(slot, (taker, &(frame, _)))| Some((slot, (taker?, frame))))
            .collect();
        let stores: Vec<(Unit, &Page)> = takers.iter().map(|&(_, store)| store).collect();
        let (outcomes, freed) = self.ship(&stores, frees, None);
        let mut fatal = freed.err();
        let mut refused = Vec::new();
        for ((slot, (taker, _)), outcome) in takers.into_iter().zip(outcomes) {
            match outcome {
                Ok(()) => placed[slot] = Some(taker),
                Err(e) => {
                    self.pool.return_frame(taker.0);
                    let made_room = matches!(e, RmpError::NoSpace(_))
                        && frees.iter().any(|&(server, _)| server == taker.0);
                    match gave_way(&e) {
                        true => refused.push((slot, made_room.then_some(taker))),
                        false => fatal = fatal.or(Some(e)),
                    }
                }
            }
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        for (slot, again) in refused {
            let frame = wanted[slot].0;
            placed[slot] = match again {
                Some((s, key)) if self.reserve_and_page_out(s, key, frame).is_ok() => again,
                _ => self.walk(frame, None, exclude)?,
            };
        }
        Ok(())
    }

    /// Best-effort release of stored units, in one wave: a dead holder is
    /// skipped, and one that crashes or times out under the call took the
    /// unit with it; everything else propagates. The frees are awaited
    /// before this returns (see [`Ctx::ship`]). A lone unit is one call.
    ///
    /// # Errors
    ///
    /// Propagates storage failures other than crash and timeout.
    pub fn release(&mut self, units: &[Unit]) -> Result<()> {
        if let [(server, key)] = *units {
            if !self.alive(server) {
                return Ok(());
            }
            return match self.pool.free(server, key) {
                Ok(()) | Err(RmpError::ServerCrashed(_) | RmpError::Timeout(_)) => Ok(()),
                Err(e) => Err(e),
            };
        }
        self.ship(&[], units, None).1
    }
}

/// A reliability-policy engine.
pub trait Engine: Send {
    /// Services one pageout, whole.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable storage failures; transient server crashes
    /// are retried internally across servers where the policy allows.
    fn page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()>;

    /// Starts one pageout and returns with its frames on the wire; the
    /// caller may [`Begun::park`] on them holding no lock. An engine that
    /// keeps the operation whole (DESIGN.md §11 lists which, and why)
    /// runs it here, under the caller's lock.
    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        Writing::Done(self.page_out(ctx, id, page))
    }

    /// Collects what [`Engine::begin_page_out`] left on the wire and
    /// commits the pageout. Until it has, the engine's record of `id`
    /// must stay as `begin_page_out` left it.
    fn complete_page_out(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _id: PageId,
        _page: &Page,
        writing: Writing,
    ) -> Result<()> {
        match writing {
            Writing::Done(done) => done,
            _ => Err(RmpError::Unsupported("no pageout of this engine waits")),
        }
    }

    /// Services one pagein: [`Engine::begin_page_in`] and
    /// [`Engine::complete_page_in`] back to back.
    ///
    /// # Errors
    ///
    /// [`RmpError::PageNotFound`] for unknown pages;
    /// [`RmpError::ServerCrashed`] when the holding server died (the pager
    /// then runs recovery and retries).
    fn page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<Page> {
        let reading = self.begin_page_in(ctx, id);
        self.complete_page_in(ctx, id, reading)
    }

    /// Looks `id` up and puts its demand read on the wire; the caller may
    /// [`Begun::park`] on it holding no lock.
    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Reading;

    /// Collects the read [`Engine::begin_page_in`] started.
    fn complete_page_in(
        &mut self,
        ctx: &mut Ctx<'_>,
        _id: PageId,
        reading: Reading,
    ) -> Result<Page> {
        ctx.finish_read(reading)
    }

    /// Releases a page everywhere it is stored.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn free(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<()>;

    /// Returns `true` when the engine tracks a current version of `id`.
    fn contains(&self, id: PageId) -> bool;

    /// Flushes buffered redundancy state (e.g. seals a partial parity
    /// group so every stored page is covered).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn flush(&mut self, _ctx: &mut Ctx<'_>) -> Result<()> {
        Ok(())
    }

    /// Serves a pagein for `id` from redundancy, without the crashed (or
    /// corrupt) server `dead`: mirroring reads the surviving copy, the
    /// parity policies reconstruct *only the requested page* from its
    /// parity group, write-through reads the local disk. Placement maps
    /// are left untouched — the full rebuild runs separately through
    /// [`Engine::plan_recovery`] / [`Engine::recovery_step`].
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] when the policy keeps no redundancy;
    /// [`RmpError::Unrecoverable`] when the redundancy needed for this
    /// page is itself gone.
    fn degraded_read(&mut self, _ctx: &mut Ctx<'_>, _id: PageId, _dead: ServerId) -> Result<Page> {
        Err(RmpError::Unsupported("policy keeps no redundancy"))
    }

    /// Where the engine reads `id` from first (the primary copy), for
    /// routing around a corrupt copy. `None` when the page is unknown or
    /// lives only on the local disk.
    fn primary_location(&self, _id: PageId) -> Option<Unit> {
        None
    }

    /// Servers whose stored bytes contribute to a demand read of `id` —
    /// the candidate fault domains when the assembled page fails the
    /// writer's checksum and the corrupt copy must be located by
    /// exclusion. Defaults to the primary copy's holder; striped engines
    /// list every contributing server, since the checksum covers the
    /// whole page and cannot name the bad fragment.
    fn fault_domains(&self, id: PageId) -> Vec<ServerId> {
        self.primary_location(id)
            .map(|(s, _)| s)
            .into_iter()
            .collect()
    }

    /// Where a *whole-page* copy of `id` can be fetched ahead of demand
    /// with a plain keyed read, for the stride prefetcher. Defaults to
    /// the primary copy; engines whose placement unit is smaller than a
    /// page (erasure coding) return `None` — no single key yields the
    /// page, so read-ahead must go through the demand path.
    fn prefetch_location(&self, id: PageId) -> Option<Unit> {
        self.primary_location(id)
    }

    /// Plans incremental recovery from the crash of `server`: enumerates
    /// the rebuild work against the engine's current maps and stores it
    /// engine-side. Returns the number of work items planned; calling
    /// again discards any previous plan (the replan path after a
    /// mid-recovery fault).
    ///
    /// # Errors
    ///
    /// [`RmpError::Unrecoverable`] when the policy keeps no redundancy or
    /// more than one fault hit the same redundancy group.
    fn plan_recovery(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64>;

    /// Executes planned recovery work, claiming at most `page_budget`
    /// items, and reports how many remain.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] / [`RmpError::Timeout`] when another
    /// server fails mid-step (the caller replans);
    /// [`RmpError::Unrecoverable`] when a page's remaining redundancy is
    /// gone too.
    fn recovery_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: ServerId,
        page_budget: usize,
    ) -> Result<RecoveryStep>;

    /// Moves every page off `server` (which asked us to stop sending) to
    /// other servers or the local disk. Returns pages moved.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] for fixed-layout policies.
    fn migrate_from(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64>;

    /// Promotes disk-resident pages back to remote memory when servers
    /// have free space again (the paper's periodic re-replication).
    /// Returns pages promoted.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn rebalance(&mut self, ctx: &mut Ctx<'_>) -> Result<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rebuild that pops every item but fails *at* `bad`, logging the
    /// chunks it was handed.
    fn stop_at(
        bad: u32,
        chunks: &mut Vec<Vec<u32>>,
    ) -> impl FnMut(&mut VecDeque<u32>, &mut RecoveryStep) -> Result<()> + '_ {
        move |claimed, step| {
            chunks.push(claimed.iter().copied().collect());
            while let Some(&item) = claimed.front() {
                if item == bad {
                    return Err(RmpError::NoSpace(ServerId(0)));
                }
                step.pages_rebuilt += 1;
                claimed.pop_front();
            }
            Ok(())
        }
    }

    #[test]
    fn a_step_claims_its_budget_a_chunk_at_a_time() {
        let mut queue: VecDeque<u32> = (0..10).collect();
        let mut chunks = Vec::new();
        let step = rebuild_step(&mut queue, 7, 3, stop_at(99, &mut chunks)).expect("step");
        assert_eq!(chunks, [vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        assert_eq!((step.pages_rebuilt, step.remaining), (7, 3));
        assert_eq!(queue, [7, 8, 9]);
        // A budget below the chunk is the chunk; no budget claims nothing.
        let mut chunks = Vec::new();
        let step = rebuild_step(&mut queue, 2, 16, stop_at(99, &mut chunks)).expect("step");
        assert_eq!((chunks, step.remaining), (vec![vec![7, 8]], 1));
        let step = rebuild_step(&mut queue, usize::MAX, 16, stop_at(99, &mut Vec::new()));
        assert_eq!(step.expect("step").remaining, 0);
    }

    #[test]
    fn a_failure_leaves_the_failed_item_and_all_after_it_at_the_head_in_order() {
        let mut queue: VecDeque<u32> = (0..10).collect();
        let mut chunks = Vec::new();
        let failed = rebuild_step(&mut queue, 8, 3, stop_at(4, &mut chunks));
        assert!(matches!(failed, Err(RmpError::NoSpace(_))));
        // The second chunk stopped at 4: 3 left the queue, 4 and 5 are
        // back in front of what was never claimed, and no third chunk
        // was.
        assert_eq!(chunks, [vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(queue, [4, 5, 6, 7, 8, 9]);
    }
}
