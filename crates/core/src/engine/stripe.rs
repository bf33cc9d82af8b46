//! The stripe engine: every per-page placement policy as one `(k, r)`
//! geometry.
//!
//! A page is cut into `k` data units of `PAGE_SIZE / k` bytes, `r`
//! redundancy units are derived from them, and the `k + r` units go to
//! `k + r` *distinct* servers, so no single crash takes more than one
//! unit of any page and any `k` survivors rebuild it:
//!
//! | policy         | (k, r) | unit             | redundancy                |
//! |----------------|--------|------------------|---------------------------|
//! | NoReliability  | (1, 0) | the page         | none                      |
//! | Mirroring      | (1, 1) | the page         | a second copy             |
//! | WriteThrough   | (1, 0) | the page         | the local disk (its *leg*) |
//! | ErasureCoded   | (k, r) | `PAGE_SIZE / k`  | `r` Reed–Solomon units    |
//!
//! A unit travels and rests at its real size, a [`Page`] of `PAGE_SIZE /
//! k` bytes ([`Page::unit`]): a `(4, 1)` stripe stores 1.25 pages a page.
//! It still takes one frame grant. When the cluster cannot hold a full
//! placement the whole page goes to the local disk instead.
//!
//! Every pageout, whatever `k`, is one wave to a row: the page is encoded
//! once and each unit's frame goes to the `(server, key)` the row names,
//! `k + r` frames with no free. A rewrite of a held page overwrites its
//! units in place, with no grant. A first placement stages a new row
//! first — a taker and a grant for each unit, chosen and recorded under
//! the caller's lock — so its wave can land behind the caller like a
//! rewrite's. A unit whose store did not ack — refused, lost, or failed
//! any other way — leaves the row at once and is re-homed from the page:
//! a rewrite's old holder has its copy freed in the same wave; a new
//! row's gets its grant back and is not asked again. The row never names
//! a stale unit beside new ones, so no stripe decodes to garbage.
//!
//! With `k == 1` every unit *is* the page: reads and prefetches are plain
//! keyed reads, and new pages take the round-robin cursor so they spread
//! over the cluster instead of piling onto the one most promising server.
//! A stripe already spans `k + r` servers and follows promise order alone.

use rmp_parity::rs::{join_splits, RsCode};
use rmp_types::{Page, PageId, Policy, Result, RmpError, ServerId, PAGE_SIZE};

use std::collections::VecDeque;

use crate::engine::{
    gave_way, rebuild_step, sized, Ctx, Engine, Reading, Table, Unit, Writing, VACANT,
};
use crate::pool::CHUNK_PAGES;
use crate::recovery::RecoveryStep;

/// The frame of each unit of one page: the page itself where units are
/// whole pages (or one frame is all that moves), else the `k + r` encoded
/// frames.
struct Frames<'a>(&'a Page, Vec<Page>);

impl Frames<'_> {
    fn get(&self, unit: usize) -> &Page {
        self.1.get(unit).unwrap_or(self.0)
    }
}

/// Names the units of a row that are not placed yet.
fn vacant(_: &Ctx<'_>, server: ServerId) -> bool {
    server == VACANT.0
}

/// The server the round-robin `cursor` names next among `live`, which
/// it then passes; none when `live` is empty.
fn next_of(cursor: &mut usize, live: &[ServerId]) -> Option<ServerId> {
    let server = live.get(*cursor % live.len().max(1))?;
    *cursor += 1;
    Some(*server)
}

/// Names the units lost with `crashed` — which may have rejoined, alive
/// but empty, by now — or with *any* dead server, so that a second crash
/// leaves no half-healed page behind.
fn lost_with(crashed: ServerId) -> impl Fn(&Ctx<'_>, ServerId) -> bool {
    move |ctx, server| server == crashed || !ctx.pool.alive(server)
}

/// Counts the store of unit `i` of a `k`-data-unit row as a transfer, and
/// returns whether it was parity: copies of the page are data; only a
/// coded stripe has parity.
fn count_store(ctx: &mut Ctx<'_>, k: usize, i: usize) -> bool {
    let parity = k > 1 && i >= k;
    match parity {
        true => ctx.stats.net_parity_transfers += 1,
        false => ctx.stats.net_data_transfers += 1,
    }
    parity
}

/// The unit of a stripe payload: every geometry [`Stripe::new`] accepts
/// cuts a page into lengths [`Page::unit`] takes.
fn unit_of(payload: &[u8]) -> Page {
    Page::unit(payload).expect("a stripe unit divides the page into checksum blocks")
}

/// The stripe engine. See the module docs for the geometry table.
#[derive(Debug)]
pub struct Stripe {
    policy: Policy,
    k: usize,
    r: usize,
    /// The codec over the `k + r` units; `None` when `k == 1`, where
    /// every unit is a copy of the page.
    code: Option<RsCode>,
    /// Write-through: every page is also on the local disk, which then is
    /// the redundancy — remote units are a read cache.
    disk_leg: bool,
    table: Table,
    cursor: usize,
    /// Pages whose new row [`Stripe::stage`] recorded and whose wave is
    /// not completed yet, each with whether the disk holds a copy to free
    /// once it is.
    fresh: Vec<(PageId, bool)>,
    /// Pages awaiting the rebuild of their lost units after a crash.
    rebuild: VecDeque<PageId>,
}

impl Stripe {
    /// Creates the engine of `policy` for `k` data and `r` redundancy
    /// units per page.
    ///
    /// # Errors
    ///
    /// [`RmpError::Config`] for a `k` that does not divide the page size
    /// or a geometry the codec rejects.
    pub fn new(policy: Policy, k: usize, r: usize) -> Result<Self> {
        if k == 0 || !PAGE_SIZE.is_multiple_of(k) {
            return Err(RmpError::Config(format!(
                "{k} data units per page must divide the page size ({PAGE_SIZE})"
            )));
        }
        let code = match k {
            1 => None,
            _ => Some(RsCode::new(k, r).map_err(|e| RmpError::Config(e.to_string()))?),
        };
        Ok(Stripe {
            policy,
            k,
            r,
            code,
            disk_leg: policy == Policy::WriteThrough,
            table: Table::new(k + r),
            cursor: 0,
            fresh: Vec::new(),
            rebuild: VecDeque::new(),
        })
    }

    /// Cuts and encodes `page` into its `k + r` unit frames; none when
    /// every unit is the page itself.
    fn encode(&self, ctx: &mut Ctx<'_>, page: &Page) -> Result<Vec<Page>> {
        let Some(code) = &self.code else {
            return Ok(Vec::new());
        };
        let mut units: Vec<Page> = Vec::with_capacity(self.k + self.r);
        units.extend(page.as_ref().chunks(self.unit_len()).map(unit_of));
        let parity = code
            .encode(&units)
            .map_err(|e| RmpError::Unrecoverable(e.to_string()))?;
        ctx.count("engine_ec_encodes_total");
        units.extend(parity.iter().map(|u| unit_of(u)));
        Ok(units)
    }

    /// Bytes in each unit of a page.
    fn unit_len(&self) -> usize {
        PAGE_SIZE / self.k
    }

    /// Re-homes every unit of `id`'s row whose holder `lost` names, each
    /// onto a server that holds none of the row's other units (nor is in
    /// `avoid`), all in one wave with `frees`, and counts the transfers.
    /// Returns the units placed and whether a parity unit was among them,
    /// or `None` when a unit found no taker — the units that did stay
    /// recorded.
    #[allow(clippy::too_many_arguments)]
    fn place_lost(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        frames: &Frames<'_>,
        lost: &dyn Fn(&Ctx<'_>, ServerId) -> bool,
        avoid: &[ServerId],
        spread: bool,
        frees: &[Unit],
    ) -> Result<Option<(u64, bool)>> {
        let units = self.table.units_mut(id).expect("caller holds the row");
        let mut exclude: Vec<ServerId> = (avoid.iter().copied())
            .chain(units.iter().map(|u| u.0).filter(|&s| !lost(ctx, s)))
            .collect();
        let live = if spread {
            ctx.pool.live_servers()
        } else {
            Vec::new()
        };
        let slots: Vec<usize> = (0..units.len())
            .filter(|&i| lost(ctx, units[i].0))
            .collect();
        let wanted: Vec<(&Page, Option<ServerId>)> = (slots.iter())
            .map(|&i| (frames.get(i), next_of(&mut self.cursor, &live)))
            .collect();
        let takers = ctx.place(&wanted, &mut exclude, frees)?;
        let (mut placed, mut parity) = (0, false);
        for (&i, taker) in slots.iter().zip(&takers) {
            let Some(taker) = *taker else { continue };
            units[i] = taker;
            placed += 1;
            parity |= count_store(ctx, self.k, i);
        }
        Ok((placed == slots.len() as u64).then_some((placed, parity)))
    }

    /// Gives `id` a new row: reserves a taker for each of its units —
    /// with `spread`, the round-robin cursor's server first, else promise
    /// order; distinct servers either way, the choices [`Ctx::place`]
    /// makes — and records them, for the wave of [`Self::begin_wave`] to
    /// store into and its completion to settle. `false`, every grant given
    /// back and the page left as it was, when some unit found no taker.
    fn stage(&mut self, ctx: &mut Ctx<'_>, id: PageId, spread: bool) -> Result<bool> {
        let live = if spread {
            ctx.pool.live_servers()
        } else {
            Vec::new()
        };
        let cursor = &mut self.cursor;
        let preferred = (0..self.k + self.r).map(|_| next_of(cursor, &live));
        let takers = ctx.reserve_takers(preferred, &mut Vec::new())?;
        if takers.contains(&None) {
            for &(server, _) in takers.iter().flatten() {
                ctx.pool.return_frame(server);
            }
            return Ok(false);
        }
        // A page the disk holds — and only it, here — has a row already.
        let from_disk = !self.disk_leg && self.table.units(id).is_some();
        for (unit, taker) in self.table.staged().iter_mut().zip(takers) {
            *unit = taker.expect("every unit has a taker");
        }
        self.table.commit(id);
        self.fresh.push((id, from_disk));
        Ok(true)
    }

    /// Moves the whole page to the local disk, releasing the units it
    /// still has — the fallback of every geometry when the cluster
    /// cannot hold a full placement. (Write-through pages are on the
    /// disk already; their fallback rewrites the same bytes, which is
    /// rare and idempotent.)
    fn park(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        if !ctx.has_disk() {
            return Err(RmpError::ClusterFull);
        }
        ctx.disk_write(id, page)?;
        if let Some(units) = self.table.units(id) {
            ctx.release(units)?;
        }
        self.table.set_disk(id);
        Ok(())
    }

    /// Parks a page that gets no placement — while the adaptive switch
    /// routes pageouts to the disk, or when a new row finds no taker for
    /// some unit. A write-through page's disk leg is written first, as on
    /// every pageout: that is the "write through".
    fn fall_back(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        if self.disk_leg {
            ctx.disk_write(id, page)?;
        }
        self.park(ctx, id, page)
    }

    /// Starts the wave that stores `frames` into the units `id`'s row
    /// names — a held page's, overwritten in place, or those a first
    /// placement or a promotion just staged: each unit's frame goes to its
    /// `(server, key)`, all in one wave with no `Alloc` and no `Free`. A
    /// unit on a dead holder leaves the row, for the completion to
    /// re-home.
    fn begin_wave(&mut self, ctx: &mut Ctx<'_>, id: PageId, frames: &Frames<'_>) -> Writing {
        let page = frames.0;
        let units = self.table.units_mut(id).expect("caller checked");
        for unit in units.iter_mut().filter(|u| !ctx.pool.alive(u.0)) {
            *unit = VACANT;
        }
        let live = || units.iter().enumerate().filter(|(_, u)| **u != VACANT);
        match *units {
            // No unit left to rewrite: what remains is to re-home.
            _ if live().next().is_none() => Writing::Done(Ok(())),
            // A lone copy and no disk leg to overlap: the wave is one
            // frame, and its flight allocates nothing.
            [(server, key)] if !self.disk_leg => {
                Writing::One(ctx.pool.begin_page_out(server, key, page))
            }
            _ => {
                let stores: Vec<(Unit, &Page)> = live().map(|(i, &u)| (u, frames.get(i))).collect();
                Writing::Many(ctx.pool.begin_stores(&stores, &[]))
            }
        }
    }

    /// Places the units of `id` that have no holder, if any, from `page`
    /// encoded anew — never on a server of `avoid` — in the wave that
    /// frees `dropped`. Whether every unit has a holder now.
    fn fill(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        avoid: &[ServerId],
        spread: bool,
        dropped: &[Unit],
    ) -> Result<bool> {
        if !(self.table.units(id)).is_some_and(|units| units.contains(&VACANT)) {
            return Ok(true);
        }
        let frames = Frames(page, self.encode(ctx, page)?);
        let placed = self.place_lost(ctx, id, &frames, &vacant, avoid, spread, dropped)?;
        Ok(placed.is_some())
    }

    /// [`Self::fill`] for a held page, in the wave that frees `dropped`
    /// — units it had whose holders may still keep their old bytes; when
    /// the cluster cannot take them the page goes to the disk.
    fn rehome(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        dropped: &[Unit],
    ) -> Result<()> {
        match self.fill(ctx, id, page, &[], self.k == 1, dropped)? {
            true => Ok(()),
            false => self.park(ctx, id, page),
        }
    }

    /// Gives up on a row a first placement could not complete: the page
    /// goes to the disk or, with none, the units it has are released and
    /// the page is forgotten.
    ///
    /// # Errors
    ///
    /// [`RmpError::ClusterFull`] without a disk.
    fn abandon(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        if ctx.has_disk() {
            return self.park(ctx, id, page);
        }
        let released = (self.table.units(id)).map_or(Ok(()), |units| ctx.release(units));
        self.table.remove(id);
        released.and(Err(RmpError::ClusterFull))
    }

    /// The units a rebuild of `id` reads, as positions in its row: any
    /// `k`, data units first — which keeps the common case decode-free —
    /// and never one on `avoid` or on a dead server.
    fn survivors(&self, ctx: &Ctx<'_>, id: PageId, avoid: ServerId) -> Result<Vec<usize>> {
        let units = self.table.units(id).ok_or(RmpError::PageNotFound(id))?;
        let chosen: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].0 != avoid && ctx.pool.alive(units[i].0))
            .take(self.k)
            .collect();
        if chosen.len() < self.k {
            return Err(RmpError::Unrecoverable(format!(
                "{id}: only {} of the {} units needed to rebuild it remain",
                chosen.len(),
                self.k
            )));
        }
        Ok(chosen)
    }

    /// Rebuilds page `id` from the units `fetched` off its `chosen`
    /// positions — [`Ctx::gather_units`] checked their length. Returns the
    /// page and, for a coded stripe, all `k + r` unit payloads for callers
    /// that re-place lost units afterwards.
    fn decode(
        &self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        chosen: &[usize],
        fetched: &[Page],
    ) -> Result<(Page, Vec<Vec<u8>>)> {
        let Some(code) = &self.code else {
            return Ok((fetched[0].clone(), Vec::new()));
        };
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.k + self.r];
        for (&i, unit) in chosen.iter().zip(fetched) {
            shards[i] = Some(unit.as_ref().to_vec());
        }
        if shards[..self.k].iter().any(Option::is_none) {
            ctx.count("engine_ec_reconstructs_total");
        }
        code.reconstruct(&mut shards)
            .map_err(|e| RmpError::Unrecoverable(format!("{id}: erasure decode failed: {e}")))?;
        let shards: Vec<Vec<u8>> = shards
            .into_iter()
            .map(|s| s.expect("reconstruct fills every slot"))
            .collect();
        Ok((join_splits(&shards[..self.k]), shards))
    }

    /// Whether the local disk is where a rebuild of `id` reads it from.
    fn on_disk(&self, id: PageId) -> bool {
        self.disk_leg || self.table.units(id).is_some_and(<[Unit]>::is_empty)
    }

    /// Rebuilds page `id` from any `k` of its units, never reading
    /// `avoid` or a dead server: [`Self::survivors`], one gather,
    /// [`Self::decode`] — or reads it off the disk, where that holds it.
    fn reconstruct(&self, ctx: &mut Ctx<'_>, id: PageId, avoid: ServerId) -> Result<Page> {
        let units = self.table.units(id).ok_or(RmpError::PageNotFound(id))?;
        if self.on_disk(id) {
            return ctx.disk_read(id);
        }
        let chosen = self.survivors(ctx, id, avoid)?;
        let reads: Vec<Unit> = chosen.iter().map(|&i| units[i]).collect();
        let fetched = ctx.gather_units(&reads, self.unit_len())?;
        Ok(self.decode(ctx, id, &chosen, &fetched)?.0)
    }

    /// Rebuilds the units of `id` lost with `crashed` ([`lost_with`])
    /// from the frames `fetched` off its `chosen` units (the local disk
    /// when there are none).
    fn rebuild_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        crashed: ServerId,
        (chosen, fetched): (&[usize], &[Page]),
        step: &mut RecoveryStep,
    ) -> Result<()> {
        let lost = lost_with(crashed);
        let (page, shards) = match chosen {
            [] => (ctx.disk_read(id)?, Vec::new()),
            _ => self.decode(ctx, id, chosen, fetched)?,
        };
        if !self.disk_leg {
            step.transfers += self.k as u64;
        }
        let frames = Frames(&page, shards.iter().map(|s| unit_of(s)).collect());
        // A page counts once: as parity when the unit lost was its parity,
        // else as data.
        let parity = match self.place_lost(ctx, id, &frames, &lost, &[crashed], false, &[])? {
            Some((placed, parity)) => {
                step.transfers += placed;
                parity
            }
            // No server can take a unit without doubling up.
            None => {
                self.park(ctx, id, &page)?;
                false
            }
        };
        match parity {
            true => step.parity_rebuilt += 1,
            false => step.pages_rebuilt += 1,
        }
        Ok(())
    }

    /// Rebuilds a chunk of claimed pages: one gather for what all of
    /// them read, then page by page — decode, re-home the lost units (a
    /// wave a page: its takers depend on the pool as the page before left
    /// it), done. A page whose survivors cannot be named stops the chunk
    /// *at* it: the pages before it are rebuilt first.
    fn rebuild_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        claimed: &mut VecDeque<PageId>,
        crashed: ServerId,
        step: &mut RecoveryStep,
    ) -> Result<()> {
        let lost = lost_with(crashed);
        // Per page, the units it reads: `None` for one overwritten,
        // parked or freed since planning, none for one the disk has.
        let mut sources: Vec<Option<Vec<usize>>> = Vec::with_capacity(claimed.len());
        let mut reads: Vec<Unit> = Vec::new();
        let mut stopped = Ok(());
        for &id in claimed.iter() {
            let units = self.table.units(id).unwrap_or_default();
            let chosen = match units.iter().any(|u| lost(ctx, u.0)) {
                false => None,
                true if self.on_disk(id) => Some(Vec::new()),
                true => match self.survivors(ctx, id, crashed) {
                    Ok(chosen) => Some(chosen),
                    Err(e) => {
                        stopped = Err(e);
                        break;
                    }
                },
            };
            reads.extend(chosen.iter().flatten().map(|&i| units[i]));
            sources.push(chosen);
        }
        let fetched = ctx.gather_units(&reads, self.unit_len())?;
        let mut fetched = fetched.as_slice();
        for chosen in sources {
            let id = claimed[0];
            if let Some(chosen) = chosen {
                let (mine, rest) = fetched.split_at(chosen.len());
                fetched = rest;
                self.rebuild_page(ctx, id, crashed, (&chosen, mine), step)?;
            }
            claimed.pop_front();
        }
        stopped
    }
}

impl Engine for Stripe {
    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        if ctx.prefer_disk {
            // The adaptive switch routes pageouts to the disk: nothing is
            // placed, and the page — a held one too — is parked.
            return Writing::Done(self.fall_back(ctx, id, page));
        }
        let frames = match self.encode(ctx, page) {
            Ok(units) => Frames(page, units),
            Err(e) => return Writing::Done(Err(e)),
        };
        if self.table.units(id).is_none_or(<[Unit]>::is_empty) {
            match self.stage(ctx, id, self.k == 1) {
                Ok(true) => {}
                staged => {
                    return Writing::Done(self.fall_back(ctx, id, page).and(staged.map(drop)))
                }
            }
        }
        let writing = self.begin_wave(ctx, id, &frames);
        // A write-through's disk write is under way while the frames are in
        // flight. Should it fail, the wave is completed before the error
        // is returned, so the row names no unit whose store did not ack.
        match self.disk_leg.then(|| ctx.disk_write(id, page)) {
            Some(Err(e)) => {
                Writing::Done(self.complete_page_out(ctx, id, page, writing).and(Err(e)))
            }
            _ => writing,
        }
    }

    fn complete_page_out(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        writing: Writing,
    ) -> Result<()> {
        let fresh =
            (self.fresh.iter().position(|f| f.0 == id)).map(|at| self.fresh.swap_remove(at).1);
        // What `begin_wave` left on the wire: each live unit's outcome, in
        // the row's order. Every leg is settled; a unit whose store did
        // not ack leaves the row and is re-homed, and the first failure
        // that is no give-way is the pageout's.
        let (one, many) = match writing {
            Writing::Done(done) => return done.and_then(|()| self.rehome(ctx, id, page, &[])),
            Writing::One(flight) => (Some(ctx.pool.finish_page_out(flight).map(drop)), Vec::new()),
            Writing::Many(wave) => (None, ctx.pool.finish_stores(wave)),
            Writing::Around(_) => return Err(RmpError::Unsupported("a write has no way around")),
        };
        let units = (self.table.units_mut(id)).ok_or(RmpError::PageNotFound(id))?;
        let (mut dropped, mut failed) = (Vec::new(), None);
        let live = units.iter_mut().enumerate().filter(|(_, u)| **u != VACANT);
        for ((i, unit), outcome) in live.zip(one.into_iter().chain(many)) {
            match outcome {
                Ok(()) => {
                    count_store(ctx, self.k, i);
                }
                Err(e) => {
                    dropped.push(std::mem::replace(unit, VACANT));
                    if !gave_way(&e) {
                        failed.get_or_insert(e);
                    }
                }
            }
        }
        let Some(from_disk) = fresh else {
            let rehomed = self.rehome(ctx, id, page, &dropped);
            return failed.map_or(rehomed, Err);
        };
        // A new row: a failed leg gives its grant back, and its taker is
        // not asked again — the walk goes on by promise order, as it would
        // have from the taker that refused.
        let refused: Vec<ServerId> = dropped.iter().map(|u| u.0).collect();
        for &server in &refused {
            ctx.pool.return_frame(server);
        }
        let filled = match failed {
            Some(e) => Err(e),
            None => self.fill(ctx, id, page, &refused, false, &[]),
        };
        match filled {
            // The row is recorded, so the disk copy can go.
            Ok(true) if from_disk => ctx.disk_free(id),
            Ok(true) => Ok(()),
            filled => self.abandon(ctx, id, page).and(filled.map(drop)),
        }
    }

    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId, avoid: Option<ServerId>) -> Reading {
        if avoid.is_some() && self.r == 0 && !self.disk_leg {
            return Reading::Done(Err(RmpError::Unsupported("policy keeps no redundancy")));
        }
        let Some(units) = self.table.units(id) else {
            return Reading::Done(Err(RmpError::PageNotFound(id)));
        };
        if units.is_empty() {
            return Reading::Done(ctx.disk_read(id));
        }
        if let Some(dead) = avoid {
            // A mirror's other copy is the last way to the page: it is
            // read down its ladder, as a page with no redundancy is. Any
            // other way around is a reconstruction.
            let copy = units.iter().find(|u| u.0 != dead && ctx.pool.alive(u.0));
            return match copy {
                Some(&copy) if self.k == 1 && !self.disk_leg => ctx.begin_read(copy, false),
                _ => Reading::Done(self.reconstruct(ctx, id, dead)),
            };
        }
        if self.k > 1 {
            // A coded stripe always has redundancy: each data unit's read
            // is checked and collected as a whole page's would be.
            let data = &units[..self.k];
            if let Err(refused) = data.iter().try_for_each(|u| ctx.holder_ready(u.0)) {
                return Reading::Done(Err(refused));
            }
            let flights = data
                .iter()
                .map(|&(server, key)| ctx.pool.begin_page_in(server, key));
            return Reading::Many(flights.collect());
        }
        ctx.begin_read(units[0], self.r > 0 || self.disk_leg)
    }

    fn complete_page_in(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        reading: Reading,
    ) -> Result<Page> {
        if let Reading::Many(flights) = reading {
            // Every reply is read — those after a failed one too — so that
            // each page that crossed the wire is counted and each failed
            // holder takes its rung; the first failure is the read's.
            let len = self.unit_len();
            let mut page = Page::zeroed();
            let mut failed = None;
            for (i, flight) in flights.into_iter().enumerate() {
                let unit = flight.unit();
                match ctx.read_once(flight).and_then(|got| sized(got, unit, len)) {
                    Ok(got) => page.as_mut()[i * len..][..len].copy_from_slice(got.as_ref()),
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            return match failed {
                Some(e) => Err(e),
                None => {
                    ctx.stats.net_fetches += self.k as u64;
                    Ok(page)
                }
            };
        }
        let remote = reading.on_wire();
        match ctx.finish_read(reading) {
            // Write-through: a holder that restarted empty is a plain
            // cache miss; drop the stale unit, the disk has the page. (A
            // page with no unit — unknown, or on the disk already — has
            // nothing to drop, and an unknown one must not be recorded; a
            // miss that never took the wire, a read around off the disk, is
            // no holder's.)
            Err(RmpError::PageNotFound(_))
                if self.disk_leg
                    && remote
                    && (self.table.units(id)).is_some_and(|units| !units.is_empty()) =>
            {
                self.table.set_disk(id);
                ctx.disk_read(id)
            }
            read => read,
        }
    }

    fn free(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<()> {
        let Some(units) = self.table.units(id) else {
            return Ok(());
        };
        if units.is_empty() || self.disk_leg {
            ctx.disk_free(id)?;
        }
        ctx.release(units)?;
        self.table.remove(id);
        Ok(())
    }

    fn contains(&self, id: PageId) -> bool {
        self.table.units(id).is_some()
    }

    fn read_units(&self, id: PageId) -> Option<&[Unit]> {
        // A demand read joins only the data units: when the joined page
        // fails the writer's checksum the bad bytes sit under one of their
        // holders.
        let units = self.table.units(id)?;
        Some(&units[..self.k.min(units.len())])
    }

    fn plan_recovery(&mut self, _ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64> {
        let lost = self.table.pages_on(server);
        if self.r == 0 && !self.disk_leg && !lost.is_empty() {
            // Purge the lost placements so later pageins fail cleanly.
            lost.iter().for_each(|&id| self.table.remove(id));
            return Err(RmpError::Unrecoverable(format!(
                "{} lost {} page(s) with {server}",
                self.policy.label(),
                lost.len()
            )));
        }
        self.rebuild = lost.into();
        Ok(self.rebuild.len() as u64)
    }

    fn recovery_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: ServerId,
        page_budget: usize,
    ) -> Result<RecoveryStep> {
        let mut rebuild = std::mem::take(&mut self.rebuild);
        let step = rebuild_step(&mut rebuild, page_budget, |claimed, step| {
            self.rebuild_chunk(ctx, claimed, server, step)
        });
        self.rebuild = rebuild;
        step
    }

    fn migrate_from(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64> {
        let mut moved = 0;
        let leaving = |_: &Ctx<'_>, s: ServerId| s == server;
        let ids = self.table.pages_on(server);
        // One burst of reads per chunk fetches every leaving unit off
        // the loaded server (write-through reads its disk instead).
        for chunk in ids.chunks(CHUNK_PAGES) {
            let old: Vec<Unit> = chunk
                .iter()
                .filter_map(|&id| self.table.units(id)?.iter().find(|u| u.0 == server))
                .copied()
                .collect();
            let fetched = if self.disk_leg {
                chunk.iter().map(|&id| ctx.disk_read(id)).collect()
            } else {
                ctx.gather_units(&old, self.unit_len())
            }?;
            for ((&id, old), frame) in chunk.iter().zip(old).zip(&fetched) {
                let frames = Frames(frame, Vec::new());
                match self.place_lost(ctx, id, &frames, &leaving, &[server], false, &[])? {
                    Some(_) => ctx.release(&[old])?,
                    // Nowhere to move the unit without doubling up. A
                    // whole page can still go to the disk; a split stays
                    // — migration is advisory, not durability.
                    None if self.k == 1 && ctx.has_disk() => self.park(ctx, id, frame)?,
                    None => continue,
                }
                ctx.stats.migrations += 1;
                moved += 1;
            }
        }
        ctx.note_migration(moved, server, self.policy);
        Ok(moved)
    }

    fn rebalance(&mut self, ctx: &mut Ctx<'_>) -> Result<u64> {
        let mut promoted = 0;
        for id in self.table.on_disk() {
            if ctx.pool.server_with_capacity(1, &[]).is_none() {
                break;
            }
            let page = ctx.disk_read(id)?;
            let frames = Frames(&page, self.encode(ctx, &page)?);
            if !self.stage(ctx, id, false)? {
                break;
            }
            let writing = self.begin_wave(ctx, id, &frames);
            self.complete_page_out(ctx, id, &page, writing)?;
            if self.table.units(id).is_some_and(<[Unit]>::is_empty) {
                // Parked again: the cluster took fewer units than it promised.
                break;
            }
            promoted += 1;
        }
        Ok(promoted)
    }
}
