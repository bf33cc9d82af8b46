//! The client's live view of server load.

use std::collections::BTreeMap;

use rmp_types::ServerId;

/// Liveness/pressure condition of a server as seen by the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Condition {
    /// Healthy, accepting pages.
    #[default]
    Healthy,
    /// Under memory pressure; usable but dispreferred.
    Pressure,
    /// Asked the client to stop sending pages (native load took its
    /// memory); usable for pageins of already-stored pages only.
    StopSending,
    /// Recently timed out or dropped a connection but recovered on
    /// retry: still holds this client's pages and still answers, so it
    /// stays usable, but new pages go elsewhere while it proves itself.
    Suspect,
    /// Crashed or unreachable.
    Dead,
}

/// Load snapshot of one server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStatus {
    /// Free page frames reported by the server.
    pub free_pages: u64,
    /// Pages the server stores for this client.
    pub stored_pages: u64,
    /// Host CPU utilization, per-mille.
    pub cpu_permille: u16,
    /// Current condition.
    pub condition: Condition,
    /// Relative link cost from the registry.
    pub link_cost: f64,
}

/// The client's view of every registered server, driving the "most
/// promising server" choice and migration decisions of Section 2.1.
///
/// # Examples
///
/// ```
/// use rmp_cluster::{ClusterView, Condition};
/// use rmp_types::ServerId;
///
/// let mut view = ClusterView::new();
/// view.register(ServerId(0), 1.0);
/// view.register(ServerId(1), 1.0);
/// view.update_load(ServerId(0), 100, 0, 0, Condition::Healthy);
/// view.update_load(ServerId(1), 900, 0, 0, Condition::Healthy);
/// assert_eq!(view.most_promising(&[]), Some(ServerId(1)));
/// view.mark_dead(ServerId(1));
/// assert_eq!(view.most_promising(&[]), Some(ServerId(0)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusterView {
    servers: BTreeMap<ServerId, ServerStatus>,
}

impl ClusterView {
    /// Creates an empty view.
    pub fn new() -> Self {
        ClusterView::default()
    }

    /// Registers a server with its link cost; status starts healthy and
    /// unknown (zero free pages until the first report).
    pub fn register(&mut self, id: ServerId, link_cost: f64) {
        self.servers.entry(id).or_insert(ServerStatus {
            link_cost,
            ..ServerStatus::default()
        });
    }

    /// Returns the status of `id`, if registered.
    pub fn status(&self, id: ServerId) -> Option<&ServerStatus> {
        self.servers.get(&id)
    }

    /// Updates a server's load report.
    pub fn update_load(
        &mut self,
        id: ServerId,
        free_pages: u64,
        stored_pages: u64,
        cpu_permille: u16,
        condition: Condition,
    ) {
        let entry = self.servers.entry(id).or_default();
        entry.free_pages = free_pages;
        entry.stored_pages = stored_pages;
        entry.cpu_permille = cpu_permille;
        match entry.condition {
            // Death is sticky: only an explicit mark_alive resurrects.
            Condition::Dead => {}
            // Suspicion clears through proven clean calls (mark_alive),
            // not through an optimistic load report — though a server
            // that says "stop sending" is believed immediately.
            Condition::Suspect if condition != Condition::StopSending => {}
            _ => entry.condition = condition,
        }
    }

    /// Marks a server crashed/unreachable.
    pub fn mark_dead(&mut self, id: ServerId) {
        if let Some(s) = self.servers.get_mut(&id) {
            s.condition = Condition::Dead;
        }
    }

    /// Marks a server suspect after a transient failure (timeout or
    /// dropped connection that reconnect repaired). Suspect servers keep
    /// serving the pages they hold but rank last for new pages. Has no
    /// effect on a dead server — suspicion must not resurrect.
    pub fn mark_suspect(&mut self, id: ServerId) {
        if let Some(s) = self.servers.get_mut(&id) {
            if s.condition != Condition::Dead {
                s.condition = Condition::Suspect;
            }
        }
    }

    /// Marks a server alive again (rebooted workstation rejoining).
    pub fn mark_alive(&mut self, id: ServerId) {
        if let Some(s) = self.servers.get_mut(&id) {
            s.condition = Condition::Healthy;
        }
    }

    /// Returns `true` when the server is registered and not dead.
    pub fn is_alive(&self, id: ServerId) -> bool {
        self.servers
            .get(&id)
            .is_some_and(|s| s.condition != Condition::Dead)
    }

    /// Picks the *most promising server*: the healthy server with the most
    /// free memory per unit link cost, excluding `exclude`. Servers under
    /// pressure are considered only when no healthy server exists, and
    /// suspect servers only after those; stop-sending and dead servers
    /// never qualify.
    pub fn most_promising(&self, exclude: &[ServerId]) -> Option<ServerId> {
        let candidates = |cond: Condition| {
            self.servers
                .iter()
                .filter(|(id, s)| s.condition == cond && !exclude.contains(id))
                .max_by(|(aid, a), (bid, b)| {
                    let score_a = a.free_pages as f64 / a.link_cost.max(1e-9);
                    let score_b = b.free_pages as f64 / b.link_cost.max(1e-9);
                    score_a
                        .partial_cmp(&score_b)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // Deterministic tie-break: lower id wins, so prefer
                        // the *greater* id on the "less" side of max_by.
                        .then_with(|| bid.cmp(aid))
                })
                .map(|(&id, _)| id)
        };
        candidates(Condition::Healthy)
            .or_else(|| candidates(Condition::Pressure))
            .or_else(|| candidates(Condition::Suspect))
    }

    /// Finds a server (other than `exclude`) with at least `needed_pages`
    /// free — the migration target search of Section 2.1 ("the client will
    /// try to find another server having enough free memory").
    pub fn server_with_capacity(
        &self,
        needed_pages: u64,
        exclude: &[ServerId],
    ) -> Option<ServerId> {
        self.servers
            .iter()
            .filter(|(id, s)| {
                s.condition == Condition::Healthy
                    && s.free_pages >= needed_pages
                    && !exclude.contains(id)
            })
            .max_by_key(|(id, s)| (s.free_pages, std::cmp::Reverse(**id)))
            .map(|(&id, _)| id)
    }

    /// All live (non-dead) server ids in ascending order.
    pub fn live_servers(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|(_, s)| s.condition != Condition::Dead)
            .map(|(&id, _)| id)
            .collect()
    }

    /// All registered server ids in ascending order.
    pub fn all_servers(&self) -> Vec<ServerId> {
        self.servers.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view3() -> ClusterView {
        let mut v = ClusterView::new();
        for id in 0..3 {
            v.register(ServerId(id), 1.0);
        }
        v
    }

    #[test]
    fn most_promising_prefers_most_free_memory() {
        let mut v = view3();
        v.update_load(ServerId(0), 100, 0, 0, Condition::Healthy);
        v.update_load(ServerId(1), 500, 0, 0, Condition::Healthy);
        v.update_load(ServerId(2), 200, 0, 0, Condition::Healthy);
        assert_eq!(v.most_promising(&[]), Some(ServerId(1)));
        assert_eq!(v.most_promising(&[ServerId(1)]), Some(ServerId(2)));
    }

    #[test]
    fn link_cost_discounts_distant_servers() {
        let mut v = ClusterView::new();
        v.register(ServerId(0), 1.0);
        v.register(ServerId(1), 10.0); // Ten times more expensive link.
        v.update_load(ServerId(0), 100, 0, 0, Condition::Healthy);
        v.update_load(ServerId(1), 500, 0, 0, Condition::Healthy);
        // 100/1 beats 500/10.
        assert_eq!(v.most_promising(&[]), Some(ServerId(0)));
    }

    #[test]
    fn pressure_servers_are_last_resort() {
        let mut v = view3();
        v.update_load(ServerId(0), 50, 0, 0, Condition::Pressure);
        v.update_load(ServerId(1), 10, 0, 0, Condition::Healthy);
        v.update_load(ServerId(2), 900, 0, 0, Condition::StopSending);
        assert_eq!(
            v.most_promising(&[]),
            Some(ServerId(1)),
            "healthy beats bigger pressured/stopped servers"
        );
        v.mark_dead(ServerId(1));
        assert_eq!(
            v.most_promising(&[]),
            Some(ServerId(0)),
            "pressure is acceptable when nothing healthy remains"
        );
    }

    #[test]
    fn dead_servers_never_selected() {
        let mut v = view3();
        for id in 0..3 {
            v.update_load(ServerId(id), 100, 0, 0, Condition::Healthy);
            v.mark_dead(ServerId(id));
        }
        assert_eq!(v.most_promising(&[]), None);
        assert!(v.live_servers().is_empty());
    }

    #[test]
    fn dead_state_is_sticky_against_updates() {
        let mut v = view3();
        v.mark_dead(ServerId(0));
        v.update_load(ServerId(0), 100, 0, 0, Condition::Healthy);
        assert!(!v.is_alive(ServerId(0)), "load update cannot resurrect");
        v.mark_alive(ServerId(0));
        assert!(v.is_alive(ServerId(0)));
    }

    #[test]
    fn ties_break_deterministically_to_lower_id() {
        let mut v = view3();
        for id in 0..3 {
            v.update_load(ServerId(id), 100, 0, 0, Condition::Healthy);
        }
        assert_eq!(v.most_promising(&[]), Some(ServerId(0)));
    }

    #[test]
    fn capacity_search_respects_threshold() {
        let mut v = view3();
        v.update_load(ServerId(0), 10, 0, 0, Condition::Healthy);
        v.update_load(ServerId(1), 50, 0, 0, Condition::Healthy);
        v.update_load(ServerId(2), 100, 0, 0, Condition::Pressure);
        assert_eq!(v.server_with_capacity(40, &[]), Some(ServerId(1)));
        assert_eq!(v.server_with_capacity(60, &[]), None, "pressured excluded");
        assert_eq!(v.server_with_capacity(40, &[ServerId(1)]), None);
    }

    #[test]
    fn suspect_servers_rank_after_pressure() {
        let mut v = view3();
        v.update_load(ServerId(0), 900, 0, 0, Condition::Healthy);
        v.update_load(ServerId(1), 500, 0, 0, Condition::Pressure);
        v.update_load(ServerId(2), 999, 0, 0, Condition::Healthy);
        v.mark_suspect(ServerId(2));
        assert_eq!(
            v.most_promising(&[]),
            Some(ServerId(0)),
            "suspect loses to healthy despite more free memory"
        );
        v.mark_suspect(ServerId(0));
        assert_eq!(
            v.most_promising(&[]),
            Some(ServerId(1)),
            "pressure beats suspect"
        );
        v.update_load(ServerId(1), 0, 0, 0, Condition::StopSending);
        assert_eq!(
            v.most_promising(&[]),
            Some(ServerId(2)),
            "suspect is still usable as last resort"
        );
    }

    #[test]
    fn suspect_is_alive_and_not_cleared_by_load_reports() {
        let mut v = view3();
        v.mark_suspect(ServerId(0));
        assert!(v.is_alive(ServerId(0)), "suspect servers still serve pages");
        assert!(v.live_servers().contains(&ServerId(0)));
        // An optimistic load report must not clear suspicion...
        v.update_load(ServerId(0), 100, 0, 0, Condition::Healthy);
        assert_eq!(v.status(ServerId(0)).unwrap().condition, Condition::Suspect);
        // ...but an explicit stop-sending is believed immediately.
        v.update_load(ServerId(0), 0, 0, 0, Condition::StopSending);
        assert_eq!(
            v.status(ServerId(0)).unwrap().condition,
            Condition::StopSending
        );
        // Proven-clean promotion goes through mark_alive.
        v.mark_suspect(ServerId(0));
        v.mark_alive(ServerId(0));
        assert_eq!(v.status(ServerId(0)).unwrap().condition, Condition::Healthy);
    }

    #[test]
    fn suspicion_cannot_resurrect_the_dead() {
        let mut v = view3();
        v.mark_dead(ServerId(0));
        v.mark_suspect(ServerId(0));
        assert!(!v.is_alive(ServerId(0)));
        assert_eq!(v.status(ServerId(0)).unwrap().condition, Condition::Dead);
    }
}
