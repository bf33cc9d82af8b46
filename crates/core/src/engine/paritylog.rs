//! PARITY LOGGING — the paper's novel policy.

use std::collections::{HashSet, VecDeque};

use rmp_parity::group::ReclaimedGroup;
use rmp_parity::xor::xor_reduce;
use rmp_parity::{GroupMember, GroupTable, ParityBuffer, SealedGroup};
use rmp_types::metrics::EventKind;
use rmp_types::{GroupId, Page, PageId, Policy, Result, RmpError, ServerId};

use crate::engine::{freed, gave_way, rebuild_step, Ctx, Engine, Reading, Table, Unit, Writing};
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
/// A pageout is an *append*, split like a stripe's wave: its begin does
/// all the bookkeeping under the caller's lock — the data server, the
/// key, the grant, the absorb and, if that seals the group, the
/// registration and the parity page — then submits the data frame, or
/// the sealing wave of data frame, parity page and frees; its complete
/// commits the unit. No append waits for another's landing, and a leg
/// that did not ack is re-homed from the kept page, never unsealed:
/// parity covers contents, not places. Re-logs — GC, recovery,
/// migration, promotion — run whole, and GC leaves a landing page alone.
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
    /// pending group or of a sealed one already, while `table` still names
    /// its version before.
    landing: Vec<Append>,
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
}

/// What a sealing append registered and shipped beside its data frame.
struct Seal {
    group: GroupId,
    /// The parity page and its unit, kept to ship it again should that
    /// leg not ack.
    parity: (Unit, Page),
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

    /// The next data server in round-robin order that is alive and
    /// accepting, skipping `exclude`.
    fn next_server(&mut self, ctx: &Ctx<'_>, exclude: &[ServerId]) -> Option<ServerId> {
        let n = self.data_servers.len();
        for _ in 0..n {
            let s = self.data_servers[self.cursor % n];
            self.cursor += 1;
            if !exclude.contains(&s) && ctx.accepting(s) {
                return Some(s);
            }
        }
        None
    }

    /// Registers a sealed group and ships its parity page in one wave with
    /// the frees of every group the registration left fully inactive.
    ///
    /// Keys are minted here, so the group is registered — and its frees
    /// known — *before* anything ships. If the parity page then finds no
    /// server the seal is undone: the members, whose own pageouts were
    /// acked, are pending again under the client-side accumulator, and
    /// the next pageout or flush seals them anew.
    fn commit_group(&mut self, ctx: &mut Ctx<'_>, sealed: SealedGroup) -> Result<()> {
        let parity = (self.parity_server, ctx.pool.fresh_key());
        let members: Vec<PageId> = sealed.members.iter().map(|m| m.page_id).collect();
        let (group, reclaimed) = self.groups.register(sealed.members, parity.0, parity.1);
        let frees = Self::storage_of(ctx, reclaimed);
        // A parity server that grants no frame still leaves the frees to
        // send.
        let reserved = ctx.pool.reserve_frame(parity.0);
        let store = [(parity, &sealed.parity)];
        let stores = &store[..usize::from(reserved.is_ok())];
        let (stored, freed) = ctx.ship(stores, &frees, None);
        let shipped = reserved.and_then(|()| {
            let shipped = stored.into_iter().next().expect("one outcome per store");
            shipped.inspect_err(|_| ctx.pool.return_frame(parity.0))
        });
        if let Err(e) = shipped {
            let members = self.groups.unregister(group);
            let parity = sealed.parity;
            self.buffer.unseal(SealedGroup { parity, members });
            return Err(e);
        }
        ctx.stats.net_parity_transfers += 1;
        ctx.count("engine_groups_sealed_total");
        // Pages freed while pending are dropped now that their group is
        // sealed and registered.
        let mut dropped = Ok(());
        for page in &members {
            if self.freed_pending.remove(page) {
                let reclaimed = self.groups.drop_page(*page);
                dropped = dropped.and(Self::release_reclaimed(ctx, reclaimed));
            }
        }
        freed.and(dropped)
    }

    /// Takes `page`, the member at `slot`, back out of `group` — sealed
    /// around it ahead of a data frame no server would then hold: the
    /// group stops naming it and its parity page — `parity` as stored, or
    /// read back — is stored again without it (an overwrite: a retry
    /// cannot fold it out twice). A parity page on a dead server is left
    /// to the rebuild, which recomputes it from the members left.
    fn cancel_member(
        &mut self,
        ctx: &mut Ctx<'_>,
        page: &Page,
        (group, slot): (GroupId, usize),
        parity: Option<Page>,
    ) -> Result<()> {
        match (self.groups.retract(group, slot), self.groups.group(group)) {
            // It was the group's only active member: the parity page goes.
            (Some(emptied), _) => Self::release_reclaimed(ctx, Some(emptied)),
            (None, Some(state)) if ctx.alive(state.parity_server) => {
                let unit = (state.parity_server, state.parity_key);
                let mut parity = match parity {
                    Some(parity) => parity,
                    None => ctx.gather(&[unit])?.remove(0),
                };
                parity.xor_with(page);
                let stored = ctx.pool.page_out(unit.0, unit.1, &parity);
                stored.map(|_hint| ctx.stats.net_parity_transfers += 1)
            }
            _ => Ok(()),
        }
    }

    /// The storage of `reclaimed` groups — members and parity page — for
    /// the caller to free, counting the groups.
    fn storage_of(
        ctx: &mut Ctx<'_>,
        reclaimed: impl IntoIterator<Item = ReclaimedGroup>,
    ) -> Vec<Unit> {
        let mut units = Vec::new();
        for group in reclaimed {
            units.extend(group.member_storage);
            units.push(group.parity_storage);
            ctx.stats.groups_reclaimed += 1;
        }
        units
    }

    fn release_reclaimed(
        ctx: &mut Ctx<'_>,
        reclaimed: impl IntoIterator<Item = ReclaimedGroup>,
    ) -> Result<()> {
        let units = Self::storage_of(ctx, reclaimed);
        ctx.release(&units)
    }

    /// Seals the partial group, if any.
    fn seal_pending(&mut self, ctx: &mut Ctx<'_>) -> Result<()> {
        match self.buffer.flush() {
            Some(sealed) => self.commit_group(ctx, sealed),
            None => Ok(()),
        }
    }

    /// Garbage collection: re-log the active pages of fragmented groups so
    /// those groups drain and their storage frees up (Section 2.2: "one
    /// has to perform garbage collection freeing parity sets by combining
    /// their active pages to new ones").
    fn collect_garbage(&mut self, ctx: &mut Ctx<'_>) -> Result<u64> {
        if self.gc_in_progress {
            return Ok(0);
        }
        self.gc_in_progress = true;
        let result = self.collect_garbage_inner(ctx);
        self.gc_in_progress = false;
        result
    }

    fn collect_garbage_inner(&mut self, ctx: &mut Ctx<'_>) -> Result<u64> {
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
        for chunk in relog.chunks(ctx.pool.batch_max_pages().max(1)) {
            let reads: Vec<Unit> = chunk.iter().map(|m| (m.server, m.key)).collect();
            let pages = ctx.gather(&reads)?;
            for (member, page) in chunk.iter().zip(pages) {
                self.page_out_inner(ctx, member.page_id, &page, &[])?;
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

    /// Logs `page` as the new version of `id`, whole, off the servers in
    /// `exclude`: stored first, absorbed after — sealing the group, if
    /// that fills it, in a wave of its own. A re-log — GC, recovery,
    /// migration, promotion — holds the only copy of an *acked* version;
    /// an append that cannot begin split ([`Self::begin_append`]) runs
    /// this too.
    fn page_out_inner(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        exclude: &[ServerId],
    ) -> Result<()> {
        if ctx.prefer_disk {
            return self.log_to_disk(ctx, id, page);
        }
        // A group a failed seal put back seals before it can grow.
        if self.buffer.pending() >= self.seal_width(ctx) {
            self.seal_pending(ctx)?;
        }
        match self.offer(ctx, page, exclude)? {
            Some(unit) => self.log_remote(ctx, id, page, unit),
            None if ctx.has_disk() => self.log_to_disk(ctx, id, page),
            None => Err(RmpError::ClusterFull),
        }
    }

    /// How many pending pages seal the group: the configured group size,
    /// or — the buffer could never fill with fewer live servers, and the
    /// log has to make progress on a degraded cluster — the stripe width.
    fn seal_width(&self, ctx: &Ctx<'_>) -> usize {
        let live = self.data_servers.iter().filter(|s| ctx.alive(**s)).count();
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

    /// Finds a data server for `page` — round-robin, collecting garbage
    /// when one is full and refreshing the load view once before giving
    /// up — and stores it there; `None` when no server took it.
    fn offer(
        &mut self,
        ctx: &mut Ctx<'_>,
        page: &Page,
        exclude: &[ServerId],
    ) -> Result<Option<Unit>> {
        let mut tried: Vec<ServerId> = exclude.to_vec();
        // Keep every member of the pending group on a distinct server —
        // two members co-located would break single-crash recovery.
        tried.extend(self.buffer.members().iter().map(|m| m.server));
        let base_tried = tried.clone();
        let mut refreshed = false;
        while let Some(server) = self.next_server(ctx, &tried) {
            let key = ctx.pool.fresh_key();
            match ctx.reserve_and_page_out(server, key, page) {
                Ok(_hint) => {
                    ctx.stats.net_data_transfers += 1;
                    return Ok(Some((server, key)));
                }
                Err(RmpError::NoSpace(_)) => {
                    // Try to make room before writing this server off.
                    if !self.gc_in_progress && self.collect_garbage(ctx)? > 0 {
                        // GC freed server memory; take fresh load reports
                        // so stop-sending verdicts get revisited.
                        ctx.pool.refresh_loads();
                        continue;
                    }
                    tried.push(server);
                }
                Err(RmpError::ServerCrashed(_) | RmpError::Timeout(_)) => tried.push(server),
                Err(e) => return Err(e),
            }
            if self.next_server(ctx, &tried).is_none() && !refreshed {
                // Every server looks full or stopped; a stale view can
                // say that long after frees and GC made room. Refresh
                // once before conceding to the disk.
                refreshed = true;
                ctx.pool.refresh_loads();
                tried = base_tried.clone();
            }
        }
        Ok(None)
    }

    /// Records the version of `id` just stored as `unit`, absorbed into
    /// the pending group — sealing it, if that fills it.
    fn log_remote(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page, unit: Unit) -> Result<()> {
        let sealed = match self.absorb(ctx, id, unit, page) {
            Some(full) => self.commit_group(ctx, full),
            None => Ok(()),
        };
        self.commit(ctx, id, unit)?;
        sealed
    }

    /// Starts the append of `page` as the new version of `id`, all its
    /// bookkeeping done before anything is sent: picks the data server
    /// round-robin off the pending group's servers, mints the key, takes
    /// the grant and absorbs the page — and if that seals the group,
    /// registers it, mints the parity key and collects the frees. Then
    /// submits the data frame, or the sealing wave: data frame, parity
    /// page and frees. `None`, nothing done, when the append runs whole:
    /// the adaptive switch routes pageouts to the disk, a failed seal put
    /// a full group back, or a grant is not to be had at once.
    fn begin_append(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Option<Writing> {
        if ctx.prefer_disk || self.buffer.pending() >= self.seal_width(ctx) {
            return None;
        }
        let taken: Vec<ServerId> = self.buffer.members().iter().map(|m| m.server).collect();
        let server = self.next_server(ctx, &taken)?;
        let unit = (server, ctx.pool.fresh_key());
        ctx.pool.reserve_frame(server).ok()?;
        let seals = self.buffer.pending() + 1 >= self.seal_width(ctx);
        if seals && ctx.pool.reserve_frame(self.parity_server).is_err() {
            ctx.pool.return_frame(server);
            return None;
        }
        let Some(sealed) = self.absorb(ctx, id, unit, page) else {
            self.landing.push(Append {
                id,
                unit,
                seal: None,
            });
            return Some(Writing::One(ctx.pool.begin_page_out(server, unit.1, page)));
        };
        let parity = (self.parity_server, ctx.pool.fresh_key());
        let members: Vec<PageId> = sealed.members.iter().map(|m| m.page_id).collect();
        let (group, reclaimed) = self.groups.register(sealed.members, parity.0, parity.1);
        let mut frees = Self::storage_of(ctx, reclaimed);
        // Pages freed while pending are dropped now that their group is
        // registered.
        for member in members {
            if self.freed_pending.remove(&member) {
                frees.extend(Self::storage_of(ctx, self.groups.drop_page(member)));
            }
        }
        frees.retain(|&(server, _)| ctx.alive(server));
        let wave = ctx
            .pool
            .begin_stores(&[(unit, page), (parity, &sealed.parity)], &frees);
        let seal = Some(Seal {
            group,
            parity: (parity, sealed.parity),
        });
        self.landing.push(Append { id, unit, seal });
        Some(Writing::Many(wave))
    }

    /// Where the member `unit` of `id` sits: `None` in the pending group,
    /// else its sealed group and slot; and the servers of the group's
    /// other members.
    fn member_of(&self, id: PageId, unit: Unit) -> (Option<(GroupId, usize)>, Vec<ServerId>) {
        let others = |members: &[GroupMember], slot: Option<usize>| {
            let others = members
                .iter()
                .enumerate()
                .filter(|&(at, m)| Some(at) != slot && (slot.is_some() || m.key != unit.1));
            others.map(|(_, m)| m.server).collect()
        };
        match self.groups.location_of(id).filter(|l| l.key == unit.1) {
            Some(l) => {
                let members = &self
                    .groups
                    .group(l.group)
                    .expect("it locates the page")
                    .members;
                (Some((l.group, l.slot)), others(members, Some(l.slot)))
            }
            None => (None, others(self.buffer.members(), None)),
        }
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

    /// Lands `page` — the version of `id` whose data frame to `lost`
    /// failed with `e` — from the kept page, as an append would have
    /// landed it: a refusal for memory first collects garbage. A pending
    /// member leaves the accumulator and is logged again, whole; a sealed
    /// one is re-homed in its group ([`Self::rehome_member`]), or failing
    /// that leaves it ([`Self::abandon`]).
    fn land_again(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        lost: Unit,
        e: &RmpError,
        seal: &mut Option<Seal>,
    ) -> Result<()> {
        ctx.pool.return_frame(lost.0);
        let pending = self.member_of(id, lost).0.is_none();
        if pending {
            self.buffer.retract(lost.1, page);
        }
        if matches!(e, RmpError::NoSpace(_)) && self.collect_garbage(ctx)? > 0 {
            ctx.pool.refresh_loads();
        }
        if pending {
            return self.page_out_inner(ctx, id, page, &[]);
        }
        match self.rehome_member(ctx, id, page, lost) {
            Some(unit) => self.commit(ctx, id, unit),
            None => self.abandon(ctx, id, page, lost, seal),
        }
    }

    /// Stores `page` again — the version of `id` whose frame to `lost` did
    /// not ack, a member of a sealed group — on a live data server that
    /// holds no other member of the group, `lost`'s own only after a fresh
    /// look at the loads, and records the move: parity covers contents,
    /// not places. `None` when no server takes it.
    fn rehome_member(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        lost: Unit,
    ) -> Option<Unit> {
        let (Some((group, slot)), others) = self.member_of(id, lost) else {
            return None;
        };
        let mut tried = [&others[..], &[lost.0]].concat();
        let mut refreshed = false;
        loop {
            let Some(server) = self.next_server(ctx, &tried) else {
                if std::mem::replace(&mut refreshed, true) {
                    return None;
                }
                ctx.pool.refresh_loads();
                tried.clone_from(&others);
                continue;
            };
            let key = ctx.pool.fresh_key();
            if ctx.reserve_and_page_out(server, key, page).is_err() {
                tried.push(server);
                continue;
            }
            ctx.stats.net_data_transfers += 1;
            let moved = self.groups.relocate_member(group, slot, server, key);
            return moved.is_ok().then_some((server, key));
        }
    }

    /// Settles the parity leg of a sealing append: one that did not ack
    /// is shipped again from the parity page the landing keeps — to the
    /// parity server, or failing that to any live server holding no
    /// member of the group.
    ///
    /// # Errors
    ///
    /// [`RmpError::ServerCrashed`] naming a parity server that died: the
    /// recovery the pageout's retry runs rebuilds the group's parity page.
    /// The leg's own failure when no server took the page.
    fn land_parity(&mut self, ctx: &mut Ctx<'_>, seal: Seal, stored: Result<()>) -> Result<()> {
        let Seal {
            group,
            parity: ((holder, _), parity),
        } = seal;
        let Err(e) = stored else {
            ctx.stats.net_parity_transfers += 1;
            ctx.count("engine_groups_sealed_total");
            return Ok(());
        };
        ctx.pool.return_frame(holder);
        let Some(state) = self.groups.group(group) else {
            return Ok(());
        };
        if !ctx.alive(holder) {
            return Err(RmpError::ServerCrashed(holder));
        }
        let mut exclude: Vec<ServerId> = state.members.iter().map(|m| m.server).collect();
        let Some((server, key)) = ctx.walk(&parity, Some(holder), &mut exclude)? else {
            return Err(e);
        };
        ctx.stats.net_parity_transfers += 1;
        ctx.count("engine_groups_sealed_total");
        self.groups.relocate_parity(group, server, key)
    }

    /// Gives up on a sealed member no server would take: it leaves its
    /// group, whose parity page stops covering `page`, and the page goes
    /// to the disk or, with none, the pageout fails. The version its seal
    /// superseded is not brought back.
    fn abandon(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        lost: Unit,
        seal: &mut Option<Seal>,
    ) -> Result<()> {
        let cancelled = match self.member_of(id, lost).0 {
            None => Ok(()),
            Some(at) => {
                if (self.table.units(id)).is_some_and(|units| !units.is_empty()) {
                    self.table.remove(id);
                }
                // The parity page this append is still to settle stops
                // covering the page too; the one it stored is overwritten.
                let own = seal.as_mut().filter(|seal| seal.group == at.0);
                let stored = own.map(|seal| {
                    let stored = seal.parity.1.clone();
                    seal.parity.1.xor_with(page);
                    stored
                });
                self.cancel_member(ctx, page, at, stored)
            }
        };
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
        Self::release_reclaimed(ctx, self.groups.drop_page(id))?;
        if self.is_pending(id) {
            // A pending version exists; drop it from the group table
            // right after its group seals.
            self.freed_pending.insert(id);
        }
        Ok(())
    }

    /// Re-logs `m`'s page as `page` through a fresh group, keeping it off
    /// `crashed`, if `m` still is its current version.
    fn relog(
        &mut self,
        ctx: &mut Ctx<'_>,
        m: &GroupMember,
        page: &Page,
        crashed: ServerId,
        step: &mut RecoveryStep,
    ) -> Result<()> {
        if self.is_current(m) && !self.freed_pending.contains(&m.page_id) {
            self.page_out_inner(ctx, m.page_id, page, &[crashed])?;
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
            self.relog(ctx, m, page, crashed, step)?;
            self.freed_pending.remove(&m.page_id);
            ctx.release(&[(m.server, m.key)])?;
        }
        Ok(())
    }

    /// The slot of sealed group `gid` that was lost with `crashed`, and
    /// what solves its XOR equation: the other members and the parity
    /// page. `None` for a group reclaimed by an earlier item's re-logging
    /// — it holds no current data any more — or untouched by the crash.
    fn lost_member(&self, gid: GroupId, crashed: ServerId) -> Option<(usize, Vec<Unit>)> {
        let state = self.groups.group(gid)?;
        let lost_slot = state.members.iter().position(|m| m.server == crashed)?;
        let others = (state.members.iter().enumerate()).filter(|(slot, _)| *slot != lost_slot);
        let mut reads: Vec<Unit> = others.map(|(_, m)| (m.server, m.key)).collect();
        reads.push((state.parity_server, state.parity_key));
        Some((lost_slot, reads))
    }

    /// The members of sealed group `gid`, if its parity page is still on
    /// a dead server: what its new parity page is the XOR of. `None` for
    /// a group that is gone or already relocated (a replanned step ran
    /// this item before).
    fn orphaned_members(&self, ctx: &Ctx<'_>, gid: GroupId) -> Option<Vec<Unit>> {
        let state = self.groups.group(gid)?;
        let members = state.members.iter().map(|m| (m.server, m.key));
        (!ctx.alive(state.parity_server)).then(|| members.collect())
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
        let rebuilt = xor_reduce(fetched);
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
                self.relog(ctx, m, page, crashed, step)?;
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
    fn page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        let writing = self.begin_page_out(ctx, id, page);
        self.complete_page_out(ctx, id, page, writing)
    }

    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        self.freed_pending.remove(&id);
        match self.begin_append(ctx, id, page) {
            Some(writing) => writing,
            None => Writing::Done(self.page_out_inner(ctx, id, page, &[])),
        }
    }

    fn complete_page_out(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: PageId,
        page: &Page,
        writing: Writing,
    ) -> Result<()> {
        let Some(at) = self.landing.iter().position(|a| a.id == id) else {
            return match writing {
                Writing::Done(done) => done,
                _ => Err(RmpError::Unsupported("no append of this page is landing")),
            };
        };
        let Append { unit, mut seal, .. } = self.landing.swap_remove(at);
        let (data, parity, frees) = match writing {
            Writing::One(flight) => (ctx.pool.finish_page_out(flight).map(drop), None, Ok(())),
            Writing::Many(wave) => {
                let mut outcomes = ctx.pool.finish_stores(wave).into_iter();
                let data = outcomes.next().expect("one outcome per store");
                (data, outcomes.next(), freed(outcomes))
            }
            _ => return Err(RmpError::Unsupported("an append is a frame or a wave")),
        };
        let (kept, failed) = match data {
            Ok(()) => {
                ctx.stats.net_data_transfers += 1;
                (self.commit(ctx, id, unit), None)
            }
            Err(e) => {
                let kept = self.land_again(ctx, id, page, unit, &e, &mut seal);
                (kept, (!gave_way(&e)).then_some(e))
            }
        };
        let sealed = match (seal, parity) {
            (Some(seal), Some(stored)) => self.land_parity(ctx, seal, stored),
            _ => Ok(()),
        };
        sealed.and(kept).and(frees).and(failed.map_or(Ok(()), Err))
    }

    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Reading {
        match self.table.units(id) {
            Some(&[unit]) => ctx.begin_read(unit, true),
            Some(_) => Reading::Done(ctx.disk_read(id)),
            None => Reading::Done(Err(RmpError::PageNotFound(id))),
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
            Self::release_reclaimed(ctx, self.groups.drop_page(id))
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.table.units(id).is_some() || self.is_landing(id)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) -> Result<()> {
        self.seal_pending(ctx)
    }

    fn degraded_read(&mut self, ctx: &mut Ctx<'_>, id: PageId, dead: ServerId) -> Result<Page> {
        let unit = match self.table.units(id) {
            Some(&[unit]) => unit,
            Some(_) => return ctx.disk_read(id),
            None => return Err(RmpError::PageNotFound(id)),
        };
        if unit.0 != dead && ctx.alive(unit.0) {
            // The page's own server survived the crash; read it directly.
            return ctx.read_unit(unit, true);
        }
        // A pending (unsealed) page is the client-side accumulator XOR
        // the other pending members; a sealed page solves its group's XOR
        // equation from the other members and the parity page. Either
        // way the pieces come in one gather, nothing else.
        let (mut page, reads) = if self.is_pending(id) {
            let others = self.buffer.members().iter().filter(|m| m.page_id != id);
            let reads: Vec<Unit> = others.map(|m| (m.server, m.key)).collect();
            (self.buffer.accumulated().clone(), reads)
        } else {
            let loc = (self.groups.location_of(id)).ok_or(RmpError::PageNotFound(id))?;
            let state = (self.groups.group(loc.group)).ok_or(RmpError::PageNotFound(id))?;
            let others = state
                .members
                .iter()
                .enumerate()
                .filter(|(slot, _)| *slot != loc.slot);
            let mut reads: Vec<Unit> = others.map(|(_, m)| (m.server, m.key)).collect();
            reads.push((state.parity_server, state.parity_key));
            (Page::zeroed(), reads)
        };
        let pieces = ctx.fetch_group(&reads, &format_args!("the group of {id}"))?;
        pieces.iter().for_each(|piece| page.xor_with(piece));
        Ok(page)
    }

    fn primary_location(&self, id: PageId) -> Option<Unit> {
        self.table.units(id)?.first().copied()
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
            let view = ctx.pool.view();
            let mut taken = self.data_servers.clone();
            taken.push(server);
            self.parity_server = view
                .most_promising(&taken)
                .or_else(|| view.most_promising(&[server]))
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
        let chunk = ctx.pool.batch_max_pages();
        let step = rebuild_step(&mut rebuild, page_budget, chunk, |claimed, step| {
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
        for chunk in pages.chunks(ctx.pool.batch_max_pages().max(1)) {
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
                self.page_out_inner(ctx, id, &page, &[server])?;
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
            if ctx.pool.view().server_with_capacity(1, &[]).is_none() {
                break;
            }
            let page = ctx.disk_read(id)?;
            self.page_out_inner(ctx, id, &page, &[])?;
            if self.table.units(id).is_some_and(|units| !units.is_empty()) {
                promoted += 1;
            }
        }
        Ok(promoted)
    }
}
