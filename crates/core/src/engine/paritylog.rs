//! PARITY LOGGING — the paper's novel policy.

use std::collections::{HashSet, VecDeque};

use rmp_parity::group::ReclaimedGroup;
use rmp_parity::xor::xor_reduce;
use rmp_parity::{GroupMember, GroupState, GroupTable, ParityBuffer, SealedGroup};
use rmp_types::metrics::EventKind;
use rmp_types::{GroupId, Page, PageId, Policy, Result, RmpError, ServerId};

use crate::engine::{
    freed, gave_way, rebuild_step, Ctx, Engine, Reading, Table, Unit, Writing, VACANT,
};
use crate::pool::{StoreWave, CHUNK_PAGES};
use crate::recovery::RecoveryStep;

/// Active-fraction threshold below which garbage collection compacts a
/// group when a server runs short of memory.
const GC_ACTIVE_FRACTION: f64 = 0.5;

/// The log-structured parity policy of Section 2.2: each paged-out page is
/// XORed into a client-side buffer and shipped round-robin to one of `S`
/// servers; every `S` pages the buffer goes to the parity server, costing
/// `1 + 1/S` transfers per pageout. Old versions stay on their servers
/// (inside the overflow memory) until their whole group goes inactive.
///
/// Every write is an *append*, split like a stripe's wave: begin takes
/// the data server and grant (`take`) and submits the data frame
/// — a demand append absorbs its page first, and a seal it makes
/// (`seal`) rides the same wave; complete commits the unit. A
/// re-log (GC, recovery, migration, promotion) runs both back to back
/// and absorbs once its frame acks. No seal is undone: a leg that did not
/// ack is re-homed from the kept page, and a parity page no server takes
/// is kept by the client until one does. GC leaves a landing page alone.
///
/// What is this engine's alone is the log: the client-side buffer, the
/// group table with its inactive marking, and garbage collection.
/// Reading a group's pieces, the holder check, the current-version
/// table and the recovery stepping are the shared [`Ctx`], [`Table`] and
/// [`rebuild_step`].
pub struct ParityLogging {
    data_servers: Vec<ServerId>,
    parity_server: ServerId,
    buffer: ParityBuffer,
    groups: GroupTable,
    /// Current version of each page (pending and sealed alike): one unit,
    /// or the local disk.
    table: Table,
    /// Pages freed while still pending in the buffer; dropped from the
    /// group table right after their group seals.
    freed_pending: HashSet<PageId>,
    /// Appends begun and not completed: each page is a member of the
    /// pending group or of a sealed one already — a re-log's not yet —
    /// while `table` still names its version before.
    landing: Vec<Append>,
    /// Parity pages no server has acked, each group naming [`VACANT`] or
    /// the dead server it went to: what its degraded reads, rebuilds and
    /// cancels use, and what every later seal and flush offers again.
    kept: Vec<Seal>,
    cursor: usize,
    gc_in_progress: bool,
    rebuild: VecDeque<PlWork>,
}

/// An append between [`Engine::begin_page_out`] and
/// [`Engine::complete_page_out`]: the page, the unit its data frame went
/// to and, if its absorb sealed the group, what went with it.
struct Append {
    id: PageId,
    unit: Unit,
    seal: Option<Seal>,
    /// A re-log's walk, gone on from if its frame does not ack.
    relog: Option<Walk>,
    /// Whether a later pageout of the page has begun: its version is the
    /// page's, and this one's bytes matter only to its group's parity.
    superseded: bool,
}

/// A sealed group's parity page, between its seal and the server that
/// acks it.
struct Seal {
    group: GroupId,
    /// The parity page and the unit it was offered to.
    parity: (Unit, Page),
    /// Whether it had a grant there; without one its wave carries none.
    granted: bool,
}

/// One data frame's walk over the data servers ([`ParityLogging::take`]).
#[derive(Default)]
struct Walk {
    /// Servers it never goes to: a re-log's old holder, a sealed member's
    /// group-mates.
    exclude: Vec<ServerId>,
    /// Servers that denied or failed it since the last look at the loads.
    tried: Vec<ServerId>,
    collected: bool,
    refreshed: bool,
}

/// One planned rebuild item of the parity log.
#[derive(Clone, Copy, Debug)]
enum PlWork {
    /// Recover the client-side unsealed group (pending pages).
    Pending,
    /// Rebuild the sealed group's member lost with the crash.
    Group(GroupId),
    /// Recompute the sealed group's parity page onto the replacement
    /// parity server.
    ParityGroup(GroupId),
}

impl ParityLogging {
    /// Creates the engine over `data_servers` (the stripe) plus a
    /// dedicated `parity_server`, sealing groups of `group_size` pages.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Config`] when the stripe is empty, the parity
    /// server is part of it, or `group_size` exceeds the stripe width
    /// (which would put two group members on one server and break
    /// single-crash recovery).
    pub fn new(
        data_servers: Vec<ServerId>,
        parity_server: ServerId,
        group_size: usize,
    ) -> Result<Self> {
        if data_servers.is_empty() {
            return Err(RmpError::Config("parity logging needs data servers".into()));
        }
        if data_servers.contains(&parity_server) {
            return Err(RmpError::Config(
                "parity server must be distinct from data servers".into(),
            ));
        }
        if group_size == 0 || group_size > data_servers.len() {
            return Err(RmpError::Config(format!(
                "group size {group_size} must be in 1..={}",
                data_servers.len()
            )));
        }
        Ok(ParityLogging {
            data_servers,
            parity_server,
            buffer: ParityBuffer::new(group_size),
            groups: GroupTable::new(),
            table: Table::new(1),
            freed_pending: HashSet::new(),
            landing: Vec::new(),
            kept: Vec::new(),
            cursor: 0,
            gc_in_progress: false,
            rebuild: VecDeque::new(),
        })
    }

    /// Whether `m` is still the current version of its page.
    fn is_current(&self, m: &GroupMember) -> bool {
        (self.table.units(m.page_id)).is_some_and(|units| units == [(m.server, m.key)])
    }

    fn is_pending(&self, id: PageId) -> bool {
        self.buffer.members().iter().any(|m| m.page_id == id)
    }

    fn is_landing(&self, id: PageId) -> bool {
        self.landing.iter().any(|a| a.id == id)
    }

    /// The parity page of `group` the client keeps, if no server holds it.
    fn kept_parity(&self, group: GroupId) -> Option<&Page> {
        let seal = self.kept.iter().find(|seal| seal.group == group);
        seal.map(|seal| &seal.parity.1)
    }

    /// The next data server in round-robin order that is alive and
    /// accepting, skipping `exclude`.
    fn next_server(&mut self, ctx: &Ctx<'_>, exclude: &[ServerId]) -> Option<ServerId> {
        let n = self.data_servers.len();
        for _ in 0..n {
            let s = self.data_servers[self.cursor % n];
            self.cursor += 1;
            if !exclude.contains(&s) && ctx.pool.accepting(s) {
                return Some(s);
            }
        }
        None
    }

    /// The one taker step of every data frame: the next server of `walk` —
    /// round-robin off the pending group's servers (two members
    /// co-located would break single-crash recovery), its exclusions and
    /// the servers it tried — with a frame grant reserved and a key
    /// minted. A denial for memory collects garbage once; with no server
    /// left, the loads are refreshed once and the tried ones offered
    /// again — a stale view can say "full" long after frees and GC made
    /// room. `None` when no server takes it.
    fn take(&mut self, ctx: &mut Ctx<'_>, walk: &mut Walk) -> Result<Option<Unit>> {
        loop {
            let pending = self.buffer.members().iter().map(|m| m.server);
            let skip: Vec<ServerId> = (pending.chain(walk.exclude.iter().copied()))
                .chain(walk.tried.iter().copied())
                .collect();
            let Some(server) = self.next_server(ctx, &skip) else {
                if std::mem::replace(&mut walk.refreshed, true) {
                    return Ok(None);
                }
                ctx.pool.refresh_loads();
                walk.tried.clear();
                continue;
            };
            match ctx.pool.reserve_frame(server) {
                Ok(()) => return Ok(Some((server, ctx.pool.fresh_key()))),
                Err(e) if !gave_way(&e) => return Err(e),
                Err(e) => {
                    if !(matches!(e, RmpError::NoSpace(_)) && self.collect(ctx, walk)?) {
                        walk.tried.push(server);
                    }
                }
            }
        }
    }

    /// Collects garbage for `walk`, once, and not inside a collection:
    /// whether that re-logged anything, and the loads were refreshed to
    /// show the room it made.
    fn collect(&mut self, ctx: &mut Ctx<'_>, walk: &mut Walk) -> Result<bool> {
        if self.gc_in_progress || std::mem::replace(&mut walk.collected, true) {
            return Ok(false);
        }
        self.gc_in_progress = true;
        let relogged = self.collect_garbage(ctx);
        self.gc_in_progress = false;
        if relogged? == 0 {
            return Ok(false);
        }
        ctx.pool.refresh_loads();
        Ok(true)
    }

    /// The one seal: registers `sealed` — which yields the frees of every
    /// group it left fully inactive, and of its pages freed while pending —
    /// mints the parity key, takes its grant and submits one wave: `data`,
    /// the frame of the append that sealed, if one did; the parity page;
    /// the frees. Kept parity pages are offered again first.
    fn seal(
        &mut self,
        ctx: &mut Ctx<'_>,
        sealed: SealedGroup,
        data: Option<(Unit, &Page)>,
    ) -> (Seal, StoreWave) {
        self.house_kept(ctx);
        let parity = (self.parity_server, ctx.pool.fresh_key());
        let granted = ctx.pool.reserve_frame(parity.0).is_ok();
        let members: Vec<PageId> = sealed.members.iter().map(|m| m.page_id).collect();
        let (group, reclaimed) = self.groups.register(sealed.members, parity.0, parity.1);
        let freed = (members.iter()).filter(|page| self.freed_pending.remove(page));
        let dropped: Vec<_> = freed.filter_map(|&p| self.groups.drop_page(p)).collect();
        let mut frees = self.storage_of(ctx, reclaimed.into_iter().chain(dropped));
        frees.retain(|&(server, _)| ctx.pool.alive(server));
        // The data frame, if any, then the parity page, if it has a grant.
        let store = (parity, &sealed.parity);
        let legs = [data.unwrap_or(store), store];
        let to = legs.len() - usize::from(!granted);
        let stores = &legs[usize::from(data.is_none())..to];
        let wave = ctx.pool.begin_stores(stores, &frees);
        let parity = (parity, sealed.parity);
        let seal = Seal {
            group,
            parity,
            granted,
        };
        (seal, wave)
    }

    /// Seals `sealed` and lands its wave: the seal of a flush or a re-log.
    fn seal_whole(&mut self, ctx: &mut Ctx<'_>, sealed: SealedGroup) -> Result<()> {
        let (seal, wave) = self.seal(ctx, sealed, None);
        let mut outcomes = ctx.pool.finish_stores(wave).into_iter();
        let sealed = self.land_parity(ctx, seal, &mut outcomes);
        sealed.and(freed(outcomes))
    }

    /// Seals the partial group, if any; with none, offers the kept parity
    /// pages again.
    fn seal_pending(&mut self, ctx: &mut Ctx<'_>) -> Result<()> {
        let Some(sealed) = self.buffer.flush() else {
            self.house_kept(ctx);
            return Ok(());
        };
        self.seal_whole(ctx, sealed)
    }

    /// Settles the parity leg of a seal, the next of its wave's
    /// `outcomes` if it had a grant: one that did not ack gives the grant
    /// back and is offered again ([`Self::house`]) — or, its server dead,
    /// kept until that server's rebuild recomputes it.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] naming a parity server that died: the
    /// recovery the pageout's retry runs rebuilds the group's parity page.
    fn land_parity(
        &mut self,
        ctx: &mut Ctx<'_>,
        seal: Seal,
        outcomes: &mut impl Iterator<Item = Result<()>>,
    ) -> Result<()> {
        let holder = seal.parity.0 .0;
        if seal.granted {
            if outcomes.next().expect("one outcome per store").is_ok() {
                ctx.stats.net_parity_transfers += 1;
                ctx.count("engine_groups_sealed_total");
                return Ok(());
            }
            ctx.pool.return_frame(holder);
        }
        if self.groups.group(seal.group).is_some() && !ctx.pool.alive(holder) {
            self.kept.push(seal);
            return Err(RmpError::ServerCrashed(holder));
        }
        self.house(ctx, seal);
        Ok(())
    }

    /// Stores `seal`'s parity page on the parity server, or failing that
    /// any live server holding no member of its group, and records where;
    /// keeps it when no server takes it (paper §2.2 keeps a page until its
    /// write completes). A group reclaimed meanwhile needs it no more.
    fn house(&mut self, ctx: &mut Ctx<'_>, seal: Seal) {
        let Some(state) = self.groups.group(seal.group) else {
            return;
        };
        let mut exclude: Vec<ServerId> = state.members.iter().map(|m| m.server).collect();
        let group = seal.group;
        let (server, key) = match ctx.walk(&seal.parity.1, Some(self.parity_server), &mut exclude) {
            Ok(Some(unit)) => {
                ctx.stats.net_parity_transfers += 1;
                ctx.count("engine_groups_sealed_total");
                unit
            }
            _ => {
                self.kept.push(seal);
                VACANT
            }
        };
        let _ = self.groups.relocate_parity(group, server, key);
    }

    /// Offers every kept parity page again ([`Self::house`]).
    fn house_kept(&mut self, ctx: &mut Ctx<'_>) {
        for seal in std::mem::take(&mut self.kept) {
            self.house(ctx, seal);
        }
    }

    /// Takes `page`, the member at `slot`, back out of `group`, sealed
    /// around a data frame no server took: the parity page — kept, or read
    /// back and stored again (an overwrite: a retry cannot fold it out
    /// twice) — stops covering it. One on a dead server is the rebuild's.
    fn cancel_member(
        &mut self,
        ctx: &mut Ctx<'_>,
        page: &Page,
        (group, slot): (GroupId, usize),
    ) -> Result<()> {
        if let Some(emptied) = self.groups.retract(group, slot) {
            // It was the group's only active member: the parity page goes.
            return self.release_reclaimed(ctx, Some(emptied));
        }
        if let Some(kept) = self.kept.iter_mut().find(|seal| seal.group == group) {
            kept.parity.1.xor_with(page);
            return Ok(());
        }
        match self.groups.group(group) {
            Some(state) if ctx.pool.alive(state.parity_server) => {
                let unit = (state.parity_server, state.parity_key);
                let mut parity = ctx.gather(&[unit])?.remove(0);
                parity.xor_with(page);
                let stored = ctx.pool.page_out(unit.0, unit.1, &parity);
                stored.map(|_hint| ctx.stats.net_parity_transfers += 1)
            }
            _ => Ok(()),
        }
    }

    /// The storage of `reclaimed` groups — members and parity page — for
    /// the caller to free, counting the groups; a kept parity page goes
    /// with its group.
    fn storage_of(
        &mut self,
        ctx: &mut Ctx<'_>,
        reclaimed: impl IntoIterator<Item = ReclaimedGroup>,
    ) -> Vec<Unit> {
        let mut units = Vec::new();
        for group in reclaimed {
            units.extend(group.member_storage);
            units.push(group.parity_storage);
            self.kept.retain(|seal| seal.group != group.group);
            ctx.stats.groups_reclaimed += 1;
        }
        units
    }

    fn release_reclaimed(
        &mut self,
        ctx: &mut Ctx<'_>,
        reclaimed: impl IntoIterator<Item = ReclaimedGroup>,
    ) -> Result<()> {
        let units = self.storage_of(ctx, reclaimed);
        ctx.release(&units)
    }

    /// Garbage collection: re-log the active pages of fragmented groups so
    /// those groups drain and their storage frees up (Section 2.2: "one
    /// has to perform garbage collection freeing parity sets by combining
    /// their active pages to new ones").
    fn collect_garbage(&mut self, ctx: &mut Ctx<'_>) -> Result<u64> {
        let plan = self.groups.gc_plan(GC_ACTIVE_FRACTION);
        let mut relogged = 0;
        // Skip members superseded since the plan was taken — and those of
        // a page whose append is landing: its newer version is logged
        // already — then fetch the rest a chunk at a time, one gather
        // each, so client memory stays bounded. Re-logging one member
        // never invalidates another's current version, so chunked
        // prefetching is safe.
        let mut relog = plan.relog;
        relog.retain(|m| self.is_current(m) && !self.is_landing(m.page_id));
        for chunk in relog.chunks(CHUNK_PAGES) {
            let reads: Vec<Unit> = chunk.iter().map(|m| (m.server, m.key)).collect();
            let pages = ctx.gather(&reads)?;
            for (member, page) in chunk.iter().zip(pages) {
                self.relog(ctx, member.page_id, &page, Walk::default())?;
                relogged += 1;
            }
        }
        if relogged > 0 {
            // Seal the partial group so the re-logged pages supersede
            // their old versions and the victims actually drain.
            self.seal_pending(ctx)?;
            ctx.stats.gc_passes += 1;
            ctx.count("engine_gc_passes_total");
            ctx.trace(EventKind::Gc, None, Some(Policy::ParityLogging), "relogged");
        }
        Ok(relogged)
    }

    /// How many pending pages seal the group: the configured group size,
    /// or — the buffer could never fill with fewer live servers, and the
    /// log has to make progress on a degraded cluster — the stripe width.
    fn seal_width(&self, ctx: &Ctx<'_>) -> usize {
        let live = self
            .data_servers
            .iter()
            .filter(|s| ctx.pool.alive(**s))
            .count();
        live.clamp(1, self.buffer.group_size())
    }

    /// Absorbs the version of `id` stored (or about to be) as `unit`;
    /// returns the group if that sealed it.
    fn absorb(
        &mut self,
        ctx: &Ctx<'_>,
        id: PageId,
        unit: Unit,
        page: &Page,
    ) -> Option<SealedGroup> {
        let full = self.buffer.absorb(id, unit.1, unit.0, page);
        let seals = self.buffer.pending() >= self.seal_width(ctx);
        full.or_else(|| seals.then(|| self.buffer.flush()).flatten())
    }

    /// Begins the append of `page` as the new version of `id`: the disk,
    /// if the adaptive switch prefers it; else a data server and grant
    /// from the walk — `relog`'s, for a re-log — and the data frame on the
    /// wire. A demand append absorbs the page first, and if that seals the
    /// group, its frame rides the seal's wave. A group that has reached
    /// the live width seals before it grows. No taker: the disk, or
    /// [`RmpError::ClusterFull`].
    fn begin_append(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        mut relog: Option<Walk>,
    ) -> Writing {
        if ctx.prefer_disk {
            return Writing::Done(self.log_to_disk(ctx, id, page));
        }
        if self.buffer.pending() >= self.seal_width(ctx) {
            if let Err(e) = self.seal_pending(ctx) {
                return Writing::Done(Err(e));
            }
        }
        let mut demand = Walk::default();
        let unit = match self.take(ctx, relog.as_mut().unwrap_or(&mut demand)) {
            Ok(Some(unit)) => unit,
            Ok(None) if ctx.has_disk() => return Writing::Done(self.log_to_disk(ctx, id, page)),
            Ok(None) => return Writing::Done(Err(RmpError::ClusterFull)),
            Err(e) => return Writing::Done(Err(e)),
        };
        let sealed = (relog.is_none()).then(|| self.absorb(ctx, id, unit, page));
        let (seal, writing) = match sealed.flatten() {
            None => (
                None,
                Writing::One(ctx.pool.begin_page_out(unit.0, unit.1, page)),
            ),
            Some(sealed) => {
                let (seal, wave) = self.seal(ctx, sealed, Some((unit, page)));
                (Some(seal), Writing::Many(wave))
            }
        };
        self.landing.push(Append {
            id,
            unit,
            seal,
            relog,
            superseded: false,
        });
        writing
    }

    /// Logs `page` anew as the version of `id` along `walk`: a re-log,
    /// begun and completed back to back.
    fn relog(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page, walk: Walk) -> Result<()> {
        match self.begin_append(ctx, id, page, Some(walk)) {
            Writing::Done(done) => done,
            writing => {
                let append = self.landing.pop().expect("the append just begun");
                self.complete_append(ctx, append, page, writing)
            }
        }
    }

    /// Collects `append`'s frames and commits it, unless it is superseded.
    fn complete_append(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut append: Append,
        page: &Page,
        writing: Writing,
    ) -> Result<()> {
        let (data, sealed, frees) = match (writing, append.seal.take()) {
            (Writing::One(flight), None) => {
                (ctx.pool.finish_page_out(flight).map(drop), Ok(()), Ok(()))
            }
            (Writing::Many(wave), Some(seal)) => {
                let mut outcomes = ctx.pool.finish_stores(wave).into_iter();
                let data = outcomes.next().expect("one outcome per store");
                let sealed = self.land_parity(ctx, seal, &mut outcomes);
                (data, sealed, freed(outcomes))
            }
            _ => return Err(RmpError::Unsupported("an append is a frame or a wave")),
        };
        let (id, unit) = (append.id, append.unit);
        let (kept, failed) = match data {
            Ok(()) => {
                ctx.stats.net_data_transfers += 1;
                let kept = match append.superseded {
                    true => Ok(()),
                    false => self.commit(ctx, id, unit),
                };
                // A re-log joins the pending group only now its frame acked.
                let full = append.relog.and_then(|_| self.absorb(ctx, id, unit, page));
                let joined = full.map_or(Ok(()), |full| self.seal_whole(ctx, full));
                (kept.and(joined), None)
            }
            Err(e) => {
                let reported = !append.superseded && !gave_way(&e);
                let kept = self.land_again(ctx, append, page, &e);
                (kept, reported.then_some(e))
            }
        };
        sealed.and(kept).and(frees).and(failed.map_or(Ok(()), Err))
    }

    /// Records `unit`, stored, as the version of `id`.
    fn commit(&mut self, ctx: &mut Ctx<'_>, id: PageId, unit: Unit) -> Result<()> {
        let was_on_disk = self.table.units(id).is_some_and(<[Unit]>::is_empty);
        self.table.staged()[0] = unit;
        self.table.commit(id);
        match was_on_disk {
            true => ctx.disk_free(id),
            false => Ok(()),
        }
    }

    /// Lands `page`, the version `append` logs, whose data frame failed
    /// with `e`, from the kept page, off that server until a fresh look at
    /// the loads; a refusal for memory collects garbage first. A sealed
    /// member is re-homed in its group, or failing that leaves it. A
    /// pending one, like a re-log's page, leaves the accumulator and is
    /// logged again — unless superseded: a later pageout names the page's
    /// version, so this one's bytes matter only to its group's parity. It
    /// is re-homed where it is, pending or sealed, or failing that leaves
    /// its group; it is neither committed nor abandoned to the disk.
    fn land_again(
        &mut self,
        ctx: &mut Ctx<'_>,
        append: Append,
        page: &Page,
        e: &RmpError,
    ) -> Result<()> {
        let Append {
            id,
            unit: lost,
            relog,
            superseded,
            ..
        } = append;
        ctx.pool.return_frame(lost.0);
        // The page's own version leaves the accumulator, if pending, before
        // a collection could seal it; a superseded one keeps its place.
        if !superseded {
            self.buffer.retract(lost.1, page);
        }
        let mut walk = relog.unwrap_or_default();
        if matches!(e, RmpError::NoSpace(_)) {
            self.collect(ctx, &mut walk)?;
        }
        walk.tried.push(lost.0);
        let member = |(group, state): (GroupId, &GroupState)| {
            let slot = state.members.iter().position(|m| m.key == lost.1);
            slot.map(|slot| (group, slot))
        };
        let sealed = self.groups.iter().find_map(member);
        if let Some(at) = sealed {
            return match self.rehome_member(ctx, page, at, walk) {
                Some(_) if superseded => Ok(()),
                Some(unit) => self.commit(ctx, id, unit),
                None if superseded => self.cancel_member(ctx, page, at),
                None => self.abandon(ctx, id, page, at),
            };
        }
        // Pending, or a re-log's page, in no group yet.
        if !superseded {
            return self.relog(ctx, id, page, walk);
        }
        // The walk goes round the pending members' servers.
        if self.buffer.members().iter().any(|m| m.key == lost.1) {
            match self.store_again(ctx, page, &mut walk) {
                Some((server, key)) => self.buffer.relocate(lost.1, server, key),
                None => self.buffer.retract(lost.1, page).is_some(),
            };
        }
        Ok(())
    }

    /// Stores `page` again — the member at `slot` of sealed `group`, whose
    /// frame did not ack — wherever `walk` finds a taker off the group's
    /// other members, and records the move: parity covers contents, not
    /// places. `None` when no server takes it.
    fn rehome_member(
        &mut self,
        ctx: &mut Ctx<'_>,
        page: &Page,
        (group, slot): (GroupId, usize),
        mut walk: Walk,
    ) -> Option<Unit> {
        let members = self.groups.group(group)?.members.iter().enumerate();
        let others = members.filter(|&(at, _)| at != slot).map(|(_, m)| m.server);
        walk.exclude = others.collect();
        let (server, key) = self.store_again(ctx, page, &mut walk)?;
        let moved = self.groups.relocate_member(group, slot, server, key);
        moved.is_ok().then_some((server, key))
    }

    /// Stores `page`, whose frame did not ack, wherever `walk` finds a
    /// taker: the unit that took it, or `None` when no server does.
    fn store_again(&mut self, ctx: &mut Ctx<'_>, page: &Page, walk: &mut Walk) -> Option<Unit> {
        while let Some((server, key)) = self.take(ctx, walk).ok().flatten() {
            if ctx.pool.page_out(server, key, page).is_err() {
                ctx.pool.return_frame(server);
                walk.tried.push(server);
                continue;
            }
            ctx.stats.net_data_transfers += 1;
            return Some((server, key));
        }
        None
    }

    /// Gives up on the sealed member at `at` no server would take: it
    /// leaves its group, whose parity page stops covering `page`, and the
    /// page goes to the disk or, with none, the pageout fails. The version
    /// its seal superseded is not brought back.
    fn abandon(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        at: (GroupId, usize),
    ) -> Result<()> {
        if (self.table.units(id)).is_some_and(|units| !units.is_empty()) {
            self.table.remove(id);
        }
        let cancelled = self.cancel_member(ctx, page, at);
        let parked = match ctx.has_disk() {
            true => self.log_to_disk(ctx, id, page),
            false => Err(RmpError::ClusterFull),
        };
        cancelled.and(parked)
    }

    /// Writes `id` to the local disk. The page drops out of the parity
    /// log: the disk is stable storage and needs no parity.
    fn log_to_disk(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        ctx.disk_write(id, page)?;
        self.table.set_disk(id);
        let reclaimed = self.groups.drop_page(id);
        self.release_reclaimed(ctx, reclaimed)?;
        if self.is_pending(id) {
            // A pending version exists; drop it from the group table
            // right after its group seals.
            self.freed_pending.insert(id);
        }
        Ok(())
    }

    /// Re-logs `m`'s page as `page` through a fresh group, keeping it off
    /// `crashed`, if `m` still is its current version.
    fn relog_member(
        &mut self,
        ctx: &mut Ctx<'_>,
        m: &GroupMember,
        page: &Page,
        crashed: ServerId,
        step: &mut RecoveryStep,
    ) -> Result<()> {
        if self.is_current(m) && !self.freed_pending.contains(&m.page_id) {
            let mut walk = Walk::default();
            walk.exclude.push(crashed);
            self.relog(ctx, m.page_id, page, walk)?;
            step.transfers += 1;
        }
        Ok(())
    }

    /// Recovers pending (unsealed) pages lost with `crashed` using the
    /// client-side parity buffer, then re-logs *every* pending page
    /// through fresh groups so full single-crash tolerance is restored
    /// even when the stripe shrank.
    fn recover_pending(
        &mut self,
        ctx: &mut Ctx<'_>,
        crashed: ServerId,
        step: &mut RecoveryStep,
    ) -> Result<()> {
        let pending: Vec<GroupMember> = self.buffer.members().to_vec();
        let (lost, survivors): (Vec<_>, Vec<_>) =
            pending.into_iter().partition(|m| m.server == crashed);
        if lost.len() > 1 {
            return Err(RmpError::Unrecoverable(format!(
                "{} pending pages lost with {crashed} in one unsealed group",
                lost.len()
            )));
        }
        // Fetch the surviving pending contents in one gather and
        // reconstruct the lost one (if any) from the buffer's accumulator.
        let reads: Vec<Unit> = survivors.iter().map(|m| (m.server, m.key)).collect();
        let pieces = ctx.fetch_group(&reads, &"the unsealed group")?;
        step.transfers += pieces.len() as u64;
        let mut rebuilt = self.buffer.accumulated().clone();
        pieces.iter().for_each(|piece| rebuilt.xor_with(piece));
        step.pages_rebuilt += lost.len() as u64;
        // Re-log the current version of each pending page and release the
        // old copies.
        self.buffer.reset();
        let contents = survivors
            .iter()
            .zip(&pieces)
            .chain(lost.iter().map(|m| (m, &rebuilt)));
        for (m, page) in contents {
            self.relog_member(ctx, m, page, crashed, step)?;
            self.freed_pending.remove(&m.page_id);
            ctx.release(&[(m.server, m.key)])?;
        }
        Ok(())
    }

    /// What solves the XOR equation of sealed group `gid` for its member
    /// at `slot`: the other members and the parity page — unless the
    /// client keeps that one ([`Self::parity_base`]).
    fn pieces_without(&self, gid: GroupId, slot: usize) -> Option<Vec<Unit>> {
        let state = self.groups.group(gid)?;
        let others = (state.members.iter().enumerate()).filter(|(at, _)| *at != slot);
        let mut reads: Vec<Unit> = others.map(|(_, m)| (m.server, m.key)).collect();
        if self.kept_parity(gid).is_none() {
            reads.push((state.parity_server, state.parity_key));
        }
        Some(reads)
    }

    /// Rebuilds page `id` alone from its group, in one gather: a pending
    /// (unsealed) page is the client-side accumulator XOR the other
    /// pending members; a sealed page solves its group's XOR equation from
    /// the other members and the parity page.
    fn reconstruct(&self, ctx: &mut Ctx<'_>, id: PageId) -> Result<Page> {
        let (mut page, reads) = if self.is_pending(id) {
            let others = self.buffer.members().iter().filter(|m| m.page_id != id);
            let reads: Vec<Unit> = others.map(|m| (m.server, m.key)).collect();
            (self.buffer.accumulated().clone(), reads)
        } else {
            let loc = (self.groups.location_of(id)).ok_or(RmpError::PageNotFound(id))?;
            let reads = self.pieces_without(loc.group, loc.slot);
            let reads = reads.ok_or(RmpError::PageNotFound(id))?;
            (self.parity_base(loc.group), reads)
        };
        let pieces = ctx.fetch_group(&reads, &format_args!("the group of {id}"))?;
        pieces.iter().for_each(|piece| page.xor_with(piece));
        Ok(page)
    }

    /// What the XOR of sealed group `gid`'s pieces starts from: the parity
    /// page the client keeps, or zeroes.
    fn parity_base(&self, gid: GroupId) -> Page {
        self.kept_parity(gid).cloned().unwrap_or_else(Page::zeroed)
    }

    /// The slot of sealed group `gid` that was lost with `crashed`, and
    /// what solves its XOR equation. `None` for a group reclaimed by an
    /// earlier item's re-logging — it holds no current data any more — or
    /// untouched by the crash.
    fn lost_member(&self, gid: GroupId, crashed: ServerId) -> Option<(usize, Vec<Unit>)> {
        let state = self.groups.group(gid)?;
        let lost_slot = state.members.iter().position(|m| m.server == crashed)?;
        Some((lost_slot, self.pieces_without(gid, lost_slot)?))
    }

    /// The members of sealed group `gid`, if its parity page is still on
    /// a dead server: what its new parity page is the XOR of. `None` for
    /// a group that is gone or already relocated (a replanned step ran
    /// this item before).
    fn orphaned_members(&self, ctx: &Ctx<'_>, gid: GroupId) -> Option<Vec<Unit>> {
        let state = self.groups.group(gid)?;
        let members = state.members.iter().map(|m| (m.server, m.key));
        (!ctx.pool.alive(state.parity_server)).then(|| members.collect())
    }

    /// What `work` gathers before it can run; nothing for an item with
    /// no work left in it, and for the unsealed group, which gathers for
    /// itself: it heads the plan, and what it reads is the buffer's to
    /// say when it runs.
    fn pieces_of(&self, ctx: &Ctx<'_>, work: PlWork, crashed: ServerId) -> Vec<Unit> {
        match work {
            PlWork::Pending => None,
            PlWork::Group(gid) => self.lost_member(gid, crashed).map(|(_, reads)| reads),
            PlWork::ParityGroup(gid) => self.orphaned_members(ctx, gid),
        }
        .unwrap_or_default()
    }

    /// Rebuilds the member of sealed group `gid` lost with `crashed` from
    /// `fetched` — the pieces [`Self::lost_member`] named — then re-logs
    /// the group's active members so full redundancy is restored and the
    /// damaged group drains.
    fn recover_group(
        &mut self,
        ctx: &mut Ctx<'_>,
        crashed: ServerId,
        gid: GroupId,
        fetched: &[Page],
        step: &mut RecoveryStep,
    ) -> Result<()> {
        // Work from the full group state: we need every member's page id
        // and active flag, not just the storage addresses.
        let Some((lost_slot, _)) = self.lost_member(gid, crashed) else {
            return Ok(());
        };
        let members = self
            .groups
            .group(gid)
            .expect("it has a lost member")
            .members
            .clone();
        step.transfers += fetched.len() as u64;
        let mut rebuilt = self.parity_base(gid);
        fetched.iter().for_each(|piece| rebuilt.xor_with(piece));
        step.pages_rebuilt += 1;
        // Restore full redundancy by re-logging the *current* version of
        // every active member through fresh parity groups; the damaged
        // group drains to fully-inactive and is reclaimed (freeing the
        // survivors' old copies and the parity page).
        let mut survivors = fetched.iter();
        for (slot, m) in members.iter().enumerate() {
            let page = match slot == lost_slot {
                true => &rebuilt,
                false => survivors.next().expect("one piece per survivor"),
            };
            if m.active {
                self.relog_member(ctx, m, page, crashed, step)?;
            }
        }
        Ok(())
    }

    /// Recomputes the parity page of sealed group `gid` — the XOR of
    /// `members`, the pages [`Self::orphaned_members`] named — onto the
    /// replacement parity server chosen at plan time.
    fn rebuild_parity(
        &mut self,
        ctx: &mut Ctx<'_>,
        gid: GroupId,
        members: &[Page],
        step: &mut RecoveryStep,
    ) -> Result<()> {
        if self.orphaned_members(ctx, gid).is_none() {
            return Ok(());
        }
        let parity = xor_reduce(members);
        let pkey = ctx.pool.fresh_key();
        ctx.reserve_and_page_out(self.parity_server, pkey, &parity)?;
        ctx.stats.net_parity_transfers += 1;
        step.transfers += members.len() as u64 + 1;
        step.parity_rebuilt += 1;
        self.kept.retain(|seal| seal.group != gid);
        self.groups.relocate_parity(gid, self.parity_server, pkey)
    }

    /// Runs the claimed items: one gather for what the items at the head
    /// read, then item by item — a re-log is an append, and each may
    /// seal.
    fn rebuild_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        claimed: &mut VecDeque<PlWork>,
        crashed: ServerId,
        step: &mut RecoveryStep,
    ) -> Result<()> {
        while let Some(&head) = claimed.front() {
            let pieces: Vec<Vec<Unit>> = (claimed.iter())
                .map(|&work| self.pieces_of(ctx, work, crashed))
                .collect();
            for fetched in ctx.fetch_groups(&pieces, &format_args!("{head:?}"))? {
                match claimed[0] {
                    PlWork::Pending => self.recover_pending(ctx, crashed, step),
                    PlWork::Group(gid) => self.recover_group(ctx, crashed, gid, &fetched, step),
                    PlWork::ParityGroup(gid) => self.rebuild_parity(ctx, gid, &fetched, step),
                }?;
                claimed.pop_front();
            }
        }
        Ok(())
    }
}

impl Engine for ParityLogging {
    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        self.freed_pending.remove(&id);
        let older = self.landing.len();
        let writing = self.begin_append(ctx, id, page, None);
        if writing.took() {
            let landing = self.landing[..older].iter_mut();
            landing
                .filter(|a| a.id == id)
                .for_each(|a| a.superseded = true);
        }
        writing
    }

    fn appends(&self) -> bool {
        true
    }

    /// Completes the oldest append of `id` landing: the one `writing`
    /// belongs to, as a page's appends complete in the order they began.
    fn complete_page_out(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        writing: Writing,
    ) -> Result<()> {
        if let Writing::Done(done) = writing {
            return done;
        }
        let Some(at) = self.landing.iter().position(|a| a.id == id) else {
            return Err(RmpError::Unsupported("no append of this page is landing"));
        };
        let append = self.landing.remove(at);
        self.complete_append(ctx, append, page, writing)
    }

    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId, avoid: Option<ServerId>) -> Reading {
        let unit = match self.table.units(id) {
            Some(&[unit]) => unit,
            Some(_) => return Reading::Done(ctx.disk_read(id)),
            None => return Reading::Done(Err(RmpError::PageNotFound(id))),
        };
        match avoid {
            Some(dead) if unit.0 == dead || !ctx.pool.alive(unit.0) => {
                Reading::Done(self.reconstruct(ctx, id))
            }
            _ => ctx.begin_read(unit, true),
        }
    }

    fn free(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<()> {
        let Some(units) = self.table.units(id) else {
            return Ok(());
        };
        let on_disk = units.is_empty();
        self.table.remove(id);
        if on_disk {
            ctx.disk_free(id)
        } else if self.is_pending(id) {
            // Still pending: its storage must survive until the group
            // seals (other pending pages recover through it).
            self.freed_pending.insert(id);
            Ok(())
        } else {
            let reclaimed = self.groups.drop_page(id);
            self.release_reclaimed(ctx, reclaimed)
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.table.units(id).is_some() || self.is_landing(id)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) -> Result<()> {
        self.seal_pending(ctx)
    }

    fn read_units(&self, id: PageId) -> Option<&[Unit]> {
        self.table.units(id)
    }

    fn plan_recovery(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64> {
        // Pending pages first — the unsealed group's parity lives in the
        // client's buffer.
        let pending = (!self.buffer.members().is_empty()).then_some(PlWork::Pending);
        let (recoveries, rebuilds) = self.groups.recovery_plan(server)?;
        if !rebuilds.is_empty() || server == self.parity_server {
            // The parity server died: pick a replacement now so re-logged
            // groups seal onto a live server; each group's parity page is
            // recomputed step by step.
            // One that holds no members if there is one: parity beside a
            // member loses both to one crash.
            let mut taken = self.data_servers.clone();
            taken.push(server);
            self.parity_server = (ctx.pool.most_promising(&taken))
                .or_else(|| ctx.pool.most_promising(&[server]))
                .ok_or_else(|| RmpError::Unrecoverable("no live server to host parity".into()))?;
        }
        let groups = recoveries.iter().map(|plan| PlWork::Group(plan.group));
        let parities = rebuilds.iter().map(|plan| PlWork::ParityGroup(plan.group));
        self.rebuild = pending.into_iter().chain(groups).chain(parities).collect();
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
        if self.rebuild.is_empty() && step.is_ok() {
            // Seal whatever the re-logging left pending so the damaged
            // groups drain out of the table before the next fault.
            self.seal_pending(ctx)?;
        }
        step
    }

    fn migrate_from(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64> {
        // Re-log every current page living on `server`; old versions drain
        // as their groups go inactive. Chunked fetches off the loaded
        // server: one burst of reads per chunk instead of a round trip
        // per page.
        let mut moved = 0;
        let pages = self.table.pages_on(server);
        for chunk in pages.chunks(CHUNK_PAGES) {
            // Skip pages an earlier re-log (or the GC it triggered)
            // already moved.
            let work: Vec<(PageId, Unit)> = chunk
                .iter()
                .filter_map(|&id| match self.table.units(id)? {
                    &[unit] if unit.0 == server => Some((id, unit)),
                    _ => None,
                })
                .collect();
            let reads: Vec<Unit> = work.iter().map(|&(_, unit)| unit).collect();
            let fetched = ctx.gather(&reads)?;
            for ((id, _), page) in work.into_iter().zip(fetched) {
                let mut walk = Walk::default();
                walk.exclude.push(server);
                self.relog(ctx, id, &page, walk)?;
                ctx.stats.migrations += 1;
                moved += 1;
            }
        }
        // Seal so the re-logged versions supersede the old ones.
        if moved > 0 {
            self.seal_pending(ctx)?;
        }
        ctx.note_migration(moved, server, Policy::ParityLogging);
        Ok(moved)
    }

    fn rebalance(&mut self, ctx: &mut Ctx<'_>) -> Result<u64> {
        let mut promoted = 0;
        for id in self.table.on_disk() {
            if ctx.pool.server_with_capacity(1, &[]).is_none() {
                break;
            }
            let page = ctx.disk_read(id)?;
            self.relog(ctx, id, &page, Walk::default())?;
            if self.table.units(id).is_some_and(|units| !units.is_empty()) {
                promoted += 1;
            }
        }
        Ok(promoted)
    }
}
