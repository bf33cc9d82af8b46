//! The RAID-style fixed-group "Parity" policy (Section 2.2).
//!
//! With `S` data servers, page `(i, j)` is the `j`th page on server `i`,
//! and parity page `j` is the XOR of the `j`th page of every server. All
//! `j`th pages form one *parity group*. Unlike parity logging, a page is
//! bound to its `(server, slot)` for life: updating it means sending the
//! new contents to its server, getting back `old XOR new`, and folding
//! that delta into the parity page — two page transfers per pageout.

use std::collections::HashMap;

use rmp_types::{PageId, Result, RmpError, ServerId, StoreKey};

/// The fixed location a logical page is bound to under basic parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasicSlot {
    /// Data server holding the page, and its storage key there (the
    /// stripe slot index).
    pub unit: (ServerId, StoreKey),
    /// Storage key of the group's parity page on the parity server.
    pub parity_key: StoreKey,
    /// Stripe slot (`j`) identifying the parity group.
    pub slot: u64,
}

/// Recovery instructions for one page lost with a crashed data server.
#[derive(Clone, Debug)]
pub struct BasicRecovery {
    /// Logical page to rebuild.
    pub page_id: PageId,
    /// Where the lost copy lived.
    pub lost: BasicSlot,
    /// Surviving same-slot pages to fetch (`(server, key)`).
    pub fetch: Vec<(ServerId, StoreKey)>,
    /// The parity page to fetch (`(server, key)`).
    pub parity: (ServerId, StoreKey),
}

/// Client-side layout map for the basic parity policy.
///
/// # Examples
///
/// ```
/// use rmp_parity::BasicParityMap;
/// use rmp_types::{PageId, ServerId};
///
/// let mut map = BasicParityMap::new(
///     vec![ServerId(0), ServerId(1), ServerId(2)],
///     ServerId(9),
/// ).unwrap();
/// let slot = map.assign(PageId(7));
/// assert_eq!(map.assign(PageId(7)), slot, "assignment is stable");
/// ```
#[derive(Debug)]
pub struct BasicParityMap {
    servers: Vec<ServerId>,
    parity_server: ServerId,
    assignments: HashMap<PageId, BasicSlot>,
    /// Next free slot index per data server (index parallel to `servers`).
    next_slot: Vec<u64>,
    /// Round-robin cursor for new assignments.
    cursor: usize,
    /// Occupancy per (slot, server index) so recovery knows which
    /// same-slot pages exist.
    occupancy: HashMap<u64, Vec<Option<PageId>>>,
}

impl BasicParityMap {
    /// Creates a map over `servers` data servers plus a parity server.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Config`] when `servers` is empty or the parity
    /// server also appears as a data server (a single crash would then
    /// take out both a member and its parity).
    pub fn new(servers: Vec<ServerId>, parity_server: ServerId) -> Result<Self> {
        if servers.is_empty() {
            return Err(RmpError::Config("basic parity needs data servers".into()));
        }
        if servers.contains(&parity_server) {
            return Err(RmpError::Config(
                "parity server must be distinct from data servers".into(),
            ));
        }
        let n = servers.len();
        Ok(BasicParityMap {
            servers,
            parity_server,
            assignments: HashMap::new(),
            next_slot: vec![0; n],
            cursor: 0,
            occupancy: HashMap::new(),
        })
    }

    /// The parity server.
    pub fn parity_server(&self) -> ServerId {
        self.parity_server
    }

    /// Returns the page's slot, assigning a fresh one on first use.
    ///
    /// New pages go round-robin across data servers, each taking the next
    /// free stripe slot on its server.
    pub fn assign(&mut self, page_id: PageId) -> BasicSlot {
        if let Some(&slot) = self.assignments.get(&page_id) {
            return slot;
        }
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.servers.len();
        let j = self.next_slot[idx];
        self.next_slot[idx] += 1;
        let slot = BasicSlot {
            unit: (self.servers[idx], StoreKey(j)),
            parity_key: StoreKey(j),
            slot: j,
        };
        self.assignments.insert(page_id, slot);
        let row = self
            .occupancy
            .entry(j)
            .or_insert_with(|| vec![None; self.servers.len()]);
        row[idx] = Some(page_id);
        slot
    }

    /// Returns the page's slot without assigning.
    pub fn location(&self, page_id: PageId) -> Option<&BasicSlot> {
        self.assignments.get(&page_id)
    }

    /// Releases a page's slot.
    ///
    /// The caller must first cancel the page out of its parity (fetch the
    /// old contents and XOR them into the parity page) — the map only does
    /// bookkeeping. Returns the freed slot, or `None` if unassigned.
    pub fn free(&mut self, page_id: PageId) -> Option<BasicSlot> {
        let slot = self.assignments.remove(&page_id)?;
        let idx = self
            .servers
            .iter()
            .position(|&s| s == slot.unit.0)
            .expect("assigned slot references known server");
        if let Some(row) = self.occupancy.get_mut(&slot.slot) {
            row[idx] = None;
        }
        Some(slot)
    }

    /// Number of assigned pages.
    pub fn assigned_pages(&self) -> usize {
        self.assignments.len()
    }

    /// The occupied members of stripe `slot` as `(server, key)`, in
    /// data-server order, leaving out the one on `except` — the one place
    /// the layout of a stripe is read. With the parity page they are what
    /// rebuilds `except`'s member; with `except = None` they are what the
    /// parity page is the XOR of.
    pub fn stripe_members(&self, slot: u64, except: Option<ServerId>) -> Vec<(ServerId, StoreKey)> {
        let Some(row) = self.occupancy.get(&slot) else {
            return Vec::new();
        };
        row.iter()
            .zip(&self.servers)
            .filter(|&(occ, &server)| occ.is_some() && Some(server) != except)
            .map(|(_, &server)| (server, StoreKey(slot)))
            .collect()
    }

    /// Builds recovery plans for a crash of `server`.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Unrecoverable`] when `server` is unknown (it is
    /// neither a data nor the parity server); a parity-server crash yields
    /// an empty member list — all data pages survive, and the caller should
    /// recompute parity pages from the members (see
    /// [`BasicParityMap::parity_rebuild_plan`]).
    pub fn recovery_plan(&self, server: ServerId) -> Result<Vec<BasicRecovery>> {
        if server == self.parity_server {
            return Ok(Vec::new());
        }
        let idx = self
            .servers
            .iter()
            .position(|&s| s == server)
            .ok_or_else(|| RmpError::Unrecoverable(format!("unknown server {server}")))?;
        let mut plans: Vec<BasicRecovery> = self
            .occupancy
            .iter()
            .filter_map(|(&j, row)| {
                let page_id = row[idx]?;
                Some(BasicRecovery {
                    page_id,
                    lost: self.assignments[&page_id],
                    fetch: self.stripe_members(j, Some(server)),
                    parity: (self.parity_server, StoreKey(j)),
                })
            })
            .collect();
        plans.sort_by_key(|p| p.lost.slot);
        Ok(plans)
    }

    /// Lists, per stripe slot, the member pages whose XOR re-creates the
    /// parity page — used after a parity-server crash.
    pub fn parity_rebuild_plan(&self) -> Vec<(StoreKey, Vec<(ServerId, StoreKey)>)> {
        let mut plans: Vec<_> = self
            .occupancy
            .keys()
            .map(|&j| (StoreKey(j), self.stripe_members(j, None)))
            .filter(|(_, members)| !members.is_empty())
            .collect();
        plans.sort_by_key(|(k, _)| *k);
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map3() -> BasicParityMap {
        BasicParityMap::new(vec![ServerId(0), ServerId(1), ServerId(2)], ServerId(9))
            .expect("valid config")
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(BasicParityMap::new(vec![], ServerId(9)).is_err());
        assert!(BasicParityMap::new(vec![ServerId(1)], ServerId(1)).is_err());
    }

    #[test]
    fn assignment_round_robins_servers() {
        let mut m = map3();
        let a = m.assign(PageId(0));
        let b = m.assign(PageId(1));
        let c = m.assign(PageId(2));
        let d = m.assign(PageId(3));
        assert_eq!(a.unit.0, ServerId(0));
        assert_eq!(b.unit.0, ServerId(1));
        assert_eq!(c.unit.0, ServerId(2));
        assert_eq!(d.unit.0, ServerId(0));
        // Same stripe slot for the first wave, next slot for the wrap.
        assert_eq!(a.slot, 0);
        assert_eq!(b.slot, 0);
        assert_eq!(d.slot, 1);
    }

    #[test]
    fn assignment_is_stable() {
        let mut m = map3();
        let first = m.assign(PageId(5));
        for _ in 0..3 {
            assert_eq!(m.assign(PageId(5)), first);
        }
        assert_eq!(m.assigned_pages(), 1);
    }

    #[test]
    fn recovery_plan_lists_surviving_members_and_parity() {
        let mut m = map3();
        for p in 0..6 {
            m.assign(PageId(p));
        }
        let plans = m.recovery_plan(ServerId(1)).expect("recoverable");
        assert_eq!(plans.len(), 2, "pages 1 and 4 lived on srv1");
        for plan in &plans {
            assert_eq!(plan.lost.unit.0, ServerId(1));
            assert_eq!(plan.fetch.len(), 2, "two surviving members per stripe");
            assert_eq!(plan.parity.0, ServerId(9));
            assert_eq!(plan.parity.1, plan.lost.parity_key);
        }
    }

    #[test]
    fn recovery_plan_skips_empty_slots() {
        let mut m = map3();
        m.assign(PageId(0)); // Only server 0, slot 0 in use.
        let plans = m.recovery_plan(ServerId(0)).expect("recoverable");
        assert_eq!(plans.len(), 1);
        assert!(plans[0].fetch.is_empty(), "no surviving members");
        let none = m.recovery_plan(ServerId(2)).expect("recoverable");
        assert!(none.is_empty());
    }

    #[test]
    fn parity_crash_yields_rebuild_plan() {
        let mut m = map3();
        for p in 0..4 {
            m.assign(PageId(p));
        }
        assert!(m.recovery_plan(ServerId(9)).expect("ok").is_empty());
        let rebuilds = m.parity_rebuild_plan();
        assert_eq!(rebuilds.len(), 2, "stripe slots 0 and 1 in use");
        assert_eq!(rebuilds[0].1.len(), 3);
        assert_eq!(rebuilds[1].1.len(), 1);
    }

    #[test]
    fn stripe_members_is_the_matching_row_of_each_full_plan() {
        let mut m = map3();
        for p in 0..8 {
            m.assign(PageId(p));
        }
        m.free(PageId(4)); // A hole in stripe 1.
        for server in [ServerId(0), ServerId(1), ServerId(2)] {
            for plan in m.recovery_plan(server).expect("recoverable") {
                assert_eq!(
                    m.stripe_members(plan.lost.slot, Some(server)),
                    plan.fetch,
                    "survivors of stripe {} without {server}",
                    plan.lost.slot
                );
            }
        }
        let rebuilds = m.parity_rebuild_plan();
        assert_eq!(rebuilds.len(), 3);
        for (key, members) in rebuilds {
            assert_eq!(m.stripe_members(key.0, None), members, "stripe {key}");
        }
        assert!(m.stripe_members(99, None).is_empty(), "unoccupied stripe");
    }

    #[test]
    fn unknown_server_is_error() {
        let m = map3();
        assert!(m.recovery_plan(ServerId(42)).is_err());
    }

    #[test]
    fn free_clears_occupancy() {
        let mut m = map3();
        m.assign(PageId(0));
        m.assign(PageId(1));
        let slot = m.free(PageId(0)).expect("assigned");
        assert_eq!(slot.unit.0, ServerId(0));
        assert!(m.free(PageId(0)).is_none(), "idempotent");
        let plans = m.recovery_plan(ServerId(0)).expect("ok");
        assert!(plans.is_empty(), "freed page no longer recovered");
    }
}
