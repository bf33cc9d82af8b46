//! The parity-group log of the parity-logging policy.
//!
//! Every sealed parity group is recorded here. The table answers the
//! questions the pager asks at runtime:
//!
//! * where is the current (active) version of a logical page?
//! * which storage can be freed because a whole group went inactive?
//! * which groups and pages are needed to recover a crashed server?
//! * which fragmented groups should garbage collection compact?
//!
//! The table never performs I/O; it returns *plans* (lists of keys to
//! fetch, free or re-log) that `rmp-core` executes against live servers.

use std::collections::{BTreeMap, HashMap};

use rmp_types::{GroupId, PageId, Result, RmpError, ServerId, StoreKey};

/// One member slot of a parity group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupMember {
    /// Logical page covered by this slot.
    pub page_id: PageId,
    /// Storage key of this *version* of the page on its server.
    pub key: StoreKey,
    /// Server holding this version.
    pub server: ServerId,
    /// Whether this is the page's current version. Inactive versions stay
    /// on their server (footnote 3 of the paper: deleting them would force
    /// a parity update) until the whole group is reclaimed.
    pub active: bool,
}

/// A sealed parity group as recorded in the table.
#[derive(Clone, Debug)]
pub struct GroupState {
    /// Member slots in absorption order.
    pub members: Vec<GroupMember>,
    /// Server holding the parity page.
    pub parity_server: ServerId,
    /// Storage key of the parity page.
    pub parity_key: StoreKey,
    active: usize,
}

impl GroupState {
    /// Number of members still active.
    pub fn active_members(&self) -> usize {
        self.active
    }

    /// Fraction of members still active (0.0 ..= 1.0).
    pub fn active_fraction(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else {
            self.active as f64 / self.members.len() as f64
        }
    }
}

/// Where the active version of a page lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageLocation {
    /// Group covering the active version.
    pub group: GroupId,
    /// Member slot index inside the group.
    pub slot: usize,
    /// Storage key of the version.
    pub key: StoreKey,
    /// Server holding it.
    pub server: ServerId,
}

/// Storage freed by reclaiming a fully-inactive group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReclaimedGroup {
    /// The reclaimed group.
    pub group: GroupId,
    /// `(server, key)` pairs of every member version to free.
    pub member_storage: Vec<(ServerId, StoreKey)>,
    /// Location of the parity page to free.
    pub parity_storage: (ServerId, StoreKey),
}

/// Instructions for recovering the contents lost with a crashed server.
#[derive(Clone, Debug)]
pub struct GroupRecovery {
    /// The affected group.
    pub group: GroupId,
    /// The member slot lost with the crash (its contents must be rebuilt).
    pub lost: GroupMember,
    /// Index of the lost member inside the group (for
    /// [`GroupTable::relocate_member`]).
    pub slot: usize,
    /// Surviving member versions to fetch (`(server, key)`), across **all**
    /// slots including inactive ones — the parity page was computed over
    /// every member at seal time.
    pub fetch: Vec<(ServerId, StoreKey)>,
    /// Location of the parity page, unless the parity itself was lost.
    pub parity: Option<(ServerId, StoreKey)>,
}

/// Parity recomputation needed because a *parity* page was lost.
#[derive(Clone, Debug)]
pub struct ParityRebuild {
    /// The affected group.
    pub group: GroupId,
    /// All member versions to fetch and XOR into a fresh parity page.
    pub fetch: Vec<(ServerId, StoreKey)>,
}

/// A garbage-collection plan: which groups to compact and which active
/// pages must be re-logged (fetched and paged out again through the normal
/// parity-logging path) before the victims can be reclaimed.
#[derive(Clone, Debug, Default)]
pub struct GcPlan {
    /// Groups chosen for compaction.
    pub victims: Vec<GroupId>,
    /// Active members that must be re-logged.
    pub relog: Vec<GroupMember>,
}

/// The client-side log of sealed parity groups.
///
/// # Examples
///
/// ```
/// use rmp_parity::{GroupMember, GroupTable};
/// use rmp_types::{PageId, ServerId, StoreKey};
///
/// let mut table = GroupTable::new();
/// let member = |p, k, s| GroupMember {
///     page_id: PageId(p),
///     key: StoreKey(k),
///     server: ServerId(s),
///     active: true,
/// };
/// table.register(vec![member(1, 101, 0), member(2, 102, 1)], ServerId(9), StoreKey(900));
/// // Re-paging-out page 1 into a later group supersedes its old version.
/// let (_, reclaimed) =
///     table.register(vec![member(1, 201, 1), member(3, 203, 2)], ServerId(9), StoreKey(901));
/// assert!(reclaimed.is_empty(), "page 2 still pins the first group");
/// assert_eq!(table.location_of(PageId(1)).unwrap().key, StoreKey(201));
/// ```
#[derive(Debug, Default)]
pub struct GroupTable {
    groups: BTreeMap<GroupId, GroupState>,
    /// Active version location per logical page.
    current: HashMap<PageId, (GroupId, usize)>,
    next_id: GroupId,
    reclaimed_total: u64,
}

impl GroupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        GroupTable::default()
    }

    /// Records a sealed group and returns its id plus any groups that
    /// became fully inactive (and were removed) because members of the new
    /// group superseded their last active slots.
    ///
    /// Every member of the new group becomes the active version of its
    /// logical page; the previously active version (if any) is marked
    /// inactive in its group, exactly the paper's "every time a page is
    /// repaged out, it is marked in the old parity group containing it as
    /// inactive".
    pub fn register(
        &mut self,
        members: Vec<GroupMember>,
        parity_server: ServerId,
        parity_key: StoreKey,
    ) -> (GroupId, Vec<ReclaimedGroup>) {
        let id = self.next_id;
        self.next_id = self.next_id.next();
        let member_pages: Vec<PageId> = members.iter().map(|m| m.page_id).collect();
        debug_assert!(
            members.iter().all(|m| m.active),
            "freshly sealed members must be active"
        );
        let active = members.len();
        // Install the group first so that superseding can deactivate slots
        // of this very group (the same page can be paged out twice within
        // one pending group).
        self.groups.insert(
            id,
            GroupState {
                members,
                parity_server,
                parity_key,
                active,
            },
        );
        let mut reclaimed = Vec::new();
        for (slot, page_id) in member_pages.into_iter().enumerate() {
            if let Some((old_group, old_slot)) = self.current.insert(page_id, (id, slot)) {
                if old_group == id && old_slot == slot {
                    continue;
                }
                if let Some(r) = self.deactivate(old_group, old_slot) {
                    reclaimed.push(r);
                }
            }
        }
        (id, reclaimed)
    }

    /// Marks the active version of `page_id` inactive without installing a
    /// replacement (used when a page is freed outright, e.g. the process
    /// exited and its swap space is released).
    ///
    /// Returns the reclaimed group if this was its last active member.
    pub fn drop_page(&mut self, page_id: PageId) -> Option<ReclaimedGroup> {
        let (group, slot) = self.current.remove(&page_id)?;
        self.deactivate(group, slot)
    }

    fn deactivate(&mut self, group: GroupId, slot: usize) -> Option<ReclaimedGroup> {
        let state = self
            .groups
            .get_mut(&group)
            .expect("current map points at live group");
        let member = &mut state.members[slot];
        if member.active {
            member.active = false;
            state.active -= 1;
        }
        self.reclaim_if_drained(group)
    }

    /// Removes `group` and returns its storage if no member is active.
    fn reclaim_if_drained(&mut self, group: GroupId) -> Option<ReclaimedGroup> {
        if self.groups.get(&group)?.active > 0 {
            return None;
        }
        let state = self.groups.remove(&group)?;
        self.reclaimed_total += 1;
        Some(ReclaimedGroup {
            group,
            member_storage: state.members.iter().map(|m| (m.server, m.key)).collect(),
            parity_storage: (state.parity_server, state.parity_key),
        })
    }

    /// Takes the member at `slot` back out of `group`: the group was
    /// registered ahead of that member's store, and no server took the
    /// frame. The group is left as if it had sealed without the member —
    /// the caller rewrites the parity page to match — and the member's
    /// page has no active version: the one this registration superseded
    /// is not brought back. The members after it move up a slot.
    ///
    /// Returns the reclaimed group if it has no active member left.
    pub fn retract(&mut self, group: GroupId, slot: usize) -> Option<ReclaimedGroup> {
        let state = self.groups.get_mut(&group)?;
        if slot >= state.members.len() {
            return None;
        }
        let member = state.members.remove(slot);
        if member.active {
            state.active -= 1;
            self.current.remove(&member.page_id);
        }
        for (at, moved) in state.members.iter().enumerate().skip(slot) {
            if moved.active {
                self.current.insert(moved.page_id, (group, at));
            }
        }
        self.reclaim_if_drained(group)
    }

    /// Returns the location of the active version of `page_id`, if it is
    /// covered by a sealed group.
    pub fn location_of(&self, page_id: PageId) -> Option<PageLocation> {
        let &(group, slot) = self.current.get(&page_id)?;
        let member = &self.groups[&group].members[slot];
        Some(PageLocation {
            group,
            slot,
            key: member.key,
            server: member.server,
        })
    }

    /// Returns the state of a group, if it still exists.
    pub fn group(&self, id: GroupId) -> Option<&GroupState> {
        self.groups.get(&id)
    }

    /// Number of live (not yet reclaimed) groups.
    pub fn live_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total groups reclaimed over the table's lifetime.
    pub fn reclaimed_groups(&self) -> u64 {
        self.reclaimed_total
    }

    /// Total member versions currently occupying server memory, including
    /// inactive ones — the quantity the overflow memory must absorb.
    pub fn stored_versions(&self) -> usize {
        self.groups.values().map(|g| g.members.len()).sum()
    }

    /// Member versions that are the current version of their page.
    pub fn active_versions(&self) -> usize {
        self.groups.values().map(|g| g.active).sum()
    }

    /// Parity pages currently stored.
    pub fn parity_pages(&self) -> usize {
        self.groups.len()
    }

    /// Overall fragmentation: fraction of stored versions that are
    /// inactive. Zero when empty.
    pub fn fragmentation(&self) -> f64 {
        let stored = self.stored_versions();
        if stored == 0 {
            return 0.0;
        }
        1.0 - self.active_versions() as f64 / stored as f64
    }

    /// Builds the recovery plans for a crash of `server`.
    ///
    /// Returns one [`GroupRecovery`] per member version lost (active or
    /// inactive — inactive versions participate in other pages' parity
    /// equations and must be rebuilt too) and one [`ParityRebuild`] per
    /// parity page lost.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Unrecoverable`] when any single group lost two
    /// or more pieces (two members, or a member and its parity) — beyond
    /// single-failure tolerance.
    pub fn recovery_plan(
        &self,
        server: ServerId,
    ) -> Result<(Vec<GroupRecovery>, Vec<ParityRebuild>)> {
        let mut recoveries = Vec::new();
        let mut rebuilds = Vec::new();
        for (&gid, state) in &self.groups {
            let lost: Vec<usize> = state
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| m.server == server)
                .map(|(i, _)| i)
                .collect();
            let parity_lost = state.parity_server == server;
            if lost.len() + usize::from(parity_lost) > 1 {
                return Err(RmpError::Unrecoverable(format!(
                    "group {gid} lost {} member(s){} on {server}",
                    lost.len(),
                    if parity_lost { " plus its parity" } else { "" },
                )));
            }
            if let Some(&slot) = lost.first() {
                recoveries.push(GroupRecovery {
                    group: gid,
                    lost: state.members[slot],
                    slot,
                    fetch: state
                        .members
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != slot)
                        .map(|(_, m)| (m.server, m.key))
                        .collect(),
                    parity: Some((state.parity_server, state.parity_key)),
                });
            } else if parity_lost {
                rebuilds.push(ParityRebuild {
                    group: gid,
                    fetch: state.members.iter().map(|m| (m.server, m.key)).collect(),
                });
            }
        }
        Ok((recoveries, rebuilds))
    }

    /// Rewrites the recorded location of a recovered piece after the
    /// recovery executor stored it elsewhere.
    ///
    /// `slot` addresses the member inside `group`; pass the new server and
    /// key it now lives under.
    pub fn relocate_member(
        &mut self,
        group: GroupId,
        slot: usize,
        server: ServerId,
        key: StoreKey,
    ) -> Result<()> {
        let state = self
            .groups
            .get_mut(&group)
            .ok_or_else(|| RmpError::Unrecoverable(format!("group {group} vanished")))?;
        let member = state
            .members
            .get_mut(slot)
            .ok_or_else(|| RmpError::Unrecoverable(format!("slot {slot} out of range")))?;
        member.server = server;
        member.key = key;
        Ok(())
    }

    /// Rewrites the recorded location of a group's parity page.
    pub fn relocate_parity(
        &mut self,
        group: GroupId,
        server: ServerId,
        key: StoreKey,
    ) -> Result<()> {
        let state = self
            .groups
            .get_mut(&group)
            .ok_or_else(|| RmpError::Unrecoverable(format!("group {group} vanished")))?;
        state.parity_server = server;
        state.parity_key = key;
        Ok(())
    }

    /// Chooses a garbage-collection plan: every group whose active fraction
    /// is at most `max_active_fraction` becomes a victim, and its active
    /// members are scheduled for re-logging.
    ///
    /// The paper performs GC "freeing parity sets by combining their active
    /// pages to new ones" when a server runs out of overflow memory; with
    /// 10 % overflow and 4 servers they "never had to perform garbage
    /// collection", which our experiments confirm.
    pub fn gc_plan(&self, max_active_fraction: f64) -> GcPlan {
        let mut plan = GcPlan::default();
        for (&gid, state) in &self.groups {
            if state.active > 0 && state.active_fraction() <= max_active_fraction {
                plan.victims.push(gid);
                plan.relog
                    .extend(state.members.iter().filter(|m| m.active).copied());
            }
        }
        plan
    }

    /// Iterates over all live groups.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &GroupState)> {
        self.groups.iter().map(|(&id, st)| (id, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(page: u64, key: u64, server: u32) -> GroupMember {
        GroupMember {
            page_id: PageId(page),
            key: StoreKey(key),
            server: ServerId(server),
            active: true,
        }
    }

    fn register_group(
        table: &mut GroupTable,
        specs: &[(u64, u64, u32)],
        pserver: u32,
        pkey: u64,
    ) -> (GroupId, Vec<ReclaimedGroup>) {
        let members = specs.iter().map(|&(p, k, s)| member(p, k, s)).collect();
        table.register(members, ServerId(pserver), StoreKey(pkey))
    }

    #[test]
    fn register_tracks_active_locations() {
        let mut t = GroupTable::new();
        let (gid, reclaimed) =
            register_group(&mut t, &[(1, 101, 0), (2, 102, 1), (3, 103, 2)], 9, 900);
        assert!(reclaimed.is_empty());
        let loc = t.location_of(PageId(2)).expect("page registered");
        assert_eq!(loc.group, gid);
        assert_eq!(loc.key, StoreKey(102));
        assert_eq!(loc.server, ServerId(1));
        assert_eq!(t.active_versions(), 3);
        assert_eq!(t.stored_versions(), 3);
    }

    #[test]
    fn repageout_marks_old_version_inactive() {
        let mut t = GroupTable::new();
        let (g1, _) = register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        // Page 1 is paged out again in a later group.
        let (_, reclaimed) = register_group(&mut t, &[(1, 201, 1), (5, 202, 0)], 9, 901);
        assert!(reclaimed.is_empty(), "group 1 still has page 2 active");
        assert_eq!(t.group(g1).expect("live").active_members(), 1);
        // The stale version still occupies storage (footnote 3).
        assert_eq!(t.stored_versions(), 4);
        assert_eq!(t.active_versions(), 3);
        assert!(t.fragmentation() > 0.0);
        // Reads now go to the new location.
        assert_eq!(t.location_of(PageId(1)).expect("live").key, StoreKey(201));
    }

    #[test]
    fn fully_inactive_group_is_reclaimed() {
        let mut t = GroupTable::new();
        let (g1, _) = register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        let (_, r1) = register_group(&mut t, &[(1, 201, 1), (6, 206, 2)], 9, 901);
        assert!(r1.is_empty());
        let (_, r2) = register_group(&mut t, &[(2, 301, 2), (7, 306, 0)], 9, 902);
        assert_eq!(r2.len(), 1, "group 1 fully superseded");
        let reclaimed = &r2[0];
        assert_eq!(reclaimed.group, g1);
        assert_eq!(
            reclaimed.member_storage,
            vec![(ServerId(0), StoreKey(101)), (ServerId(1), StoreKey(102))]
        );
        assert_eq!(reclaimed.parity_storage, (ServerId(9), StoreKey(900)));
        assert!(t.group(g1).is_none());
        assert_eq!(t.reclaimed_groups(), 1);
    }

    #[test]
    fn drop_page_can_reclaim() {
        let mut t = GroupTable::new();
        let (g1, _) = register_group(&mut t, &[(1, 101, 0)], 9, 900);
        assert!(t.location_of(PageId(1)).is_some());
        let reclaimed = t.drop_page(PageId(1)).expect("last member dropped");
        assert_eq!(reclaimed.group, g1);
        assert!(t.location_of(PageId(1)).is_none());
        assert!(t.drop_page(PageId(1)).is_none(), "idempotent");
    }

    #[test]
    fn retract_last_leaves_the_group_as_if_sealed_without_the_member() {
        let mut t = GroupTable::new();
        register_group(&mut t, &[(3, 103, 2)], 9, 900);
        let (g2, reclaimed) = register_group(&mut t, &[(1, 201, 0), (3, 203, 1)], 9, 901);
        assert_eq!(reclaimed.len(), 1, "page 3's first version went");
        assert!(t.retract(g2, 1).is_none(), "page 1 still pins the group");
        // The group names one member, page 3 has no version at all, and
        // the recovery of page 1's server reads nothing of page 3's.
        assert_eq!(t.group(g2).expect("live").members.len(), 1);
        assert!(t.location_of(PageId(3)).is_none());
        let (recoveries, _) = t.recovery_plan(ServerId(0)).expect("recoverable");
        assert!(recoveries[0].fetch.is_empty());
        // Retracting the last active member reclaims the group.
        let gone = t.retract(g2, 0).expect("no member left");
        assert_eq!(gone.parity_storage, (ServerId(9), StoreKey(901)));
        assert!(gone.member_storage.is_empty());
    }

    #[test]
    fn retracting_a_middle_member_keeps_the_later_ones_located() {
        let mut t = GroupTable::new();
        let (g, _) = register_group(&mut t, &[(1, 101, 0), (2, 102, 1), (3, 103, 2)], 9, 900);
        assert!(t.retract(g, 1).is_none(), "pages 1 and 3 pin the group");
        assert!(t.location_of(PageId(2)).is_none());
        let moved = t.location_of(PageId(3)).expect("page 3 stays current");
        assert_eq!((moved.slot, moved.key), (1, StoreKey(103)));
        // A crash of page 3's server rebuilds it from page 1 alone.
        let (recoveries, _) = t.recovery_plan(ServerId(2)).expect("recoverable");
        assert_eq!(recoveries[0].slot, 1);
        assert_eq!(recoveries[0].fetch, [(ServerId(0), StoreKey(101))]);
    }

    #[test]
    fn recovery_plan_covers_active_and_inactive_versions() {
        let mut t = GroupTable::new();
        register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        register_group(&mut t, &[(1, 201, 1), (3, 203, 2)], 9, 901);
        // Server 1 holds: inactive version of page 2? No — page 2's active
        // version (key 102) and page 1's new active version (key 201).
        let (recoveries, rebuilds) = t.recovery_plan(ServerId(1)).expect("recoverable");
        assert_eq!(recoveries.len(), 2);
        assert!(rebuilds.is_empty());
        for r in &recoveries {
            assert_eq!(r.lost.server, ServerId(1));
            assert!(r.parity.is_some());
            // Survivors exclude the lost slot.
            assert!(r.fetch.iter().all(|&(s, _)| s != ServerId(1)));
        }
    }

    #[test]
    fn recovery_plan_handles_parity_server_crash() {
        let mut t = GroupTable::new();
        register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        let (recoveries, rebuilds) = t.recovery_plan(ServerId(9)).expect("recoverable");
        assert!(recoveries.is_empty());
        assert_eq!(rebuilds.len(), 1);
        assert_eq!(rebuilds[0].fetch.len(), 2);
    }

    #[test]
    fn double_loss_in_one_group_is_unrecoverable() {
        let mut t = GroupTable::new();
        register_group(&mut t, &[(1, 101, 0), (2, 102, 0)], 9, 900);
        assert!(t.recovery_plan(ServerId(0)).is_err());
        // Member plus parity on the same server is equally fatal.
        let mut t2 = GroupTable::new();
        register_group(&mut t2, &[(1, 101, 0), (2, 102, 1)], 0, 900);
        assert!(t2.recovery_plan(ServerId(0)).is_err());
    }

    #[test]
    fn relocate_updates_locations() {
        let mut t = GroupTable::new();
        let (gid, _) = register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        t.relocate_member(gid, 0, ServerId(5), StoreKey(555))
            .expect("relocates");
        assert_eq!(t.location_of(PageId(1)).expect("live").server, ServerId(5));
        t.relocate_parity(gid, ServerId(6), StoreKey(666))
            .expect("relocates");
        assert_eq!(t.group(gid).expect("live").parity_server, ServerId(6));
    }

    #[test]
    fn gc_plan_picks_fragmented_groups() {
        let mut t = GroupTable::new();
        // Group with 1 of 4 active (75 % fragmented).
        let (g1, _) = register_group(
            &mut t,
            &[(1, 101, 0), (2, 102, 1), (3, 103, 2), (4, 104, 3)],
            9,
            900,
        );
        register_group(
            &mut t,
            &[(1, 201, 0), (2, 202, 1), (3, 203, 2), (8, 204, 3)],
            9,
            901,
        );
        let plan = t.gc_plan(0.25);
        assert_eq!(plan.victims, vec![g1]);
        assert_eq!(plan.relog.len(), 1);
        assert_eq!(plan.relog[0].page_id, PageId(4));
        // A healthier threshold selects nothing.
        assert!(t.gc_plan(0.1).victims.is_empty());
    }

    #[test]
    fn gc_ignores_fully_active_groups() {
        let mut t = GroupTable::new();
        register_group(&mut t, &[(1, 101, 0), (2, 102, 1)], 9, 900);
        let plan = t.gc_plan(1.0);
        // Threshold 1.0 selects even fully-active groups — they have
        // active > 0 and fraction <= 1.0 — which is intentional: GC with
        // max threshold compacts everything.
        assert_eq!(plan.victims.len(), 1);
        assert_eq!(plan.relog.len(), 2);
    }

    #[test]
    fn duplicate_page_within_one_group_supersedes_in_place() {
        let mut t = GroupTable::new();
        // Page 1 paged out twice inside the same (partial-seal) group.
        let (gid, reclaimed) = register_group(&mut t, &[(1, 101, 0), (1, 102, 1)], 9, 900);
        assert!(reclaimed.is_empty());
        let g = t.group(gid).expect("live");
        assert_eq!(g.active_members(), 1, "first version superseded");
        assert!(!g.members[0].active);
        assert!(g.members[1].active);
        assert_eq!(t.location_of(PageId(1)).expect("live").key, StoreKey(102));
    }

    #[test]
    fn stats_on_empty_table() {
        let t = GroupTable::new();
        assert_eq!(t.live_groups(), 0);
        assert_eq!(t.fragmentation(), 0.0);
        assert_eq!(t.stored_versions(), 0);
        assert!(t.location_of(PageId(0)).is_none());
    }
}
