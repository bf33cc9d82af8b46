//! Transfer and fault statistics.

use std::ops::{Add, AddAssign};

/// Counts of pager activity, accumulated per run.
///
/// The paper's Figure 4 extrapolation multiplies the number of page
/// transfers by per-transfer costs; these counters are the inputs to that
/// model. Every policy engine updates them as it services requests.
///
/// # Examples
///
/// ```
/// use rmp_types::TransferStats;
///
/// let stats = TransferStats {
///     pageouts: 4,
///     net_data_transfers: 4,
///     net_parity_transfers: 1,
///     ..TransferStats::default()
/// };
/// // Parity logging with S = 4: one parity transfer per 4 pageouts.
/// assert_eq!(stats.outbound_transfers_per_pageout(), 1.25);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Pagein requests serviced (kernel reads from the paging device).
    pub pageins: u64,
    /// Pageout requests serviced (kernel writes to the paging device).
    pub pageouts: u64,
    /// Data pages shipped to remote servers (includes mirror copies and
    /// re-sent pages during migration).
    pub net_data_transfers: u64,
    /// Parity pages shipped to the parity server.
    pub net_parity_transfers: u64,
    /// Pages fetched from remote servers.
    pub net_fetches: u64,
    /// Pages written to the local disk.
    pub disk_writes: u64,
    /// Pages read from the local disk.
    pub disk_reads: u64,
    /// Parity groups reclaimed because all members became inactive.
    pub groups_reclaimed: u64,
    /// Garbage-collection passes executed.
    pub gc_passes: u64,
    /// Pages migrated between servers in response to load advisories.
    pub migrations: u64,
    /// Pageins served by reconstructing the requested page from
    /// redundancy (mirror copy or parity group) while its holder was
    /// down, instead of waiting for a full rebuild.
    pub degraded_reads: u64,
    /// Bounded recovery steps executed by the incremental recovery
    /// driver (a maintenance tick's step rebuilds at most 64 pages).
    pub recovery_steps: u64,
    /// Page payloads that failed their end-to-end checksum.
    pub checksum_failures: u64,
}

impl TransferStats {
    /// Total network page transfers in either direction — the quantity the
    /// Figure 4 formula multiplies by `pptime`.
    pub fn total_net_transfers(&self) -> u64 {
        self.net_data_transfers + self.net_parity_transfers + self.net_fetches
    }

    /// Total local disk operations.
    pub fn total_disk_ops(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }

    /// Network transfers per pageout, the policy-overhead metric of
    /// Section 2.2. Returns 0 when no pageouts occurred — so the ratio is
    /// safe on empty stats and on merged stats whose pageout count is
    /// still zero (e.g. summing runs that only serviced pageins).
    pub fn outbound_transfers_per_pageout(&self) -> f64 {
        if self.pageouts == 0 {
            return 0.0;
        }
        (self.net_data_transfers + self.net_parity_transfers) as f64 / self.pageouts as f64
    }

    /// Merges `rhs` into `self` with saturating arithmetic.
    ///
    /// `Add`/`AddAssign` delegate here, so merging long-run aggregates can
    /// never wrap a counter back toward zero and silently corrupt the
    /// per-pageout ratios derived from it.
    pub fn saturating_merge(&mut self, rhs: &TransferStats) {
        self.pageins = self.pageins.saturating_add(rhs.pageins);
        self.pageouts = self.pageouts.saturating_add(rhs.pageouts);
        self.net_data_transfers = self
            .net_data_transfers
            .saturating_add(rhs.net_data_transfers);
        self.net_parity_transfers = self
            .net_parity_transfers
            .saturating_add(rhs.net_parity_transfers);
        self.net_fetches = self.net_fetches.saturating_add(rhs.net_fetches);
        self.disk_writes = self.disk_writes.saturating_add(rhs.disk_writes);
        self.disk_reads = self.disk_reads.saturating_add(rhs.disk_reads);
        self.groups_reclaimed = self.groups_reclaimed.saturating_add(rhs.groups_reclaimed);
        self.gc_passes = self.gc_passes.saturating_add(rhs.gc_passes);
        self.migrations = self.migrations.saturating_add(rhs.migrations);
        self.degraded_reads = self.degraded_reads.saturating_add(rhs.degraded_reads);
        self.recovery_steps = self.recovery_steps.saturating_add(rhs.recovery_steps);
        self.checksum_failures = self.checksum_failures.saturating_add(rhs.checksum_failures);
    }

    /// Serializes the counters as a JSON object, in the same hand-rolled
    /// style as [`crate::metrics::MetricsRegistry::snapshot_json`], so the
    /// pager can embed its engine-level stats next to runtime metrics.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pageins\": {}, \"pageouts\": {}, \"net_data_transfers\": {}, \
             \"net_parity_transfers\": {}, \"net_fetches\": {}, \"disk_writes\": {}, \
             \"disk_reads\": {}, \"groups_reclaimed\": {}, \"gc_passes\": {}, \
             \"migrations\": {}, \"degraded_reads\": {}, \"recovery_steps\": {}, \
             \"checksum_failures\": {}, \"outbound_transfers_per_pageout\": {:.4}}}",
            self.pageins,
            self.pageouts,
            self.net_data_transfers,
            self.net_parity_transfers,
            self.net_fetches,
            self.disk_writes,
            self.disk_reads,
            self.groups_reclaimed,
            self.gc_passes,
            self.migrations,
            self.degraded_reads,
            self.recovery_steps,
            self.checksum_failures,
            self.outbound_transfers_per_pageout(),
        )
    }
}

impl Add for TransferStats {
    type Output = TransferStats;

    fn add(mut self, rhs: TransferStats) -> TransferStats {
        self += rhs;
        self
    }
}

impl AddAssign for TransferStats {
    fn add_assign(&mut self, rhs: TransferStats) {
        self.saturating_merge(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = TransferStats {
            net_data_transfers: 3,
            net_parity_transfers: 1,
            net_fetches: 2,
            disk_reads: 4,
            disk_writes: 5,
            ..Default::default()
        };
        assert_eq!(s.total_net_transfers(), 6);
        assert_eq!(s.total_disk_ops(), 9);
    }

    #[test]
    fn transfers_per_pageout_handles_zero() {
        assert_eq!(
            TransferStats::default().outbound_transfers_per_pageout(),
            0.0
        );
        let s = TransferStats {
            pageouts: 4,
            net_data_transfers: 4,
            net_parity_transfers: 1,
            ..Default::default()
        };
        assert!((s.outbound_transfers_per_pageout() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn addition_accumulates_all_fields() {
        let a = TransferStats {
            pageins: 1,
            pageouts: 2,
            net_data_transfers: 3,
            net_parity_transfers: 4,
            net_fetches: 5,
            disk_writes: 6,
            disk_reads: 7,
            groups_reclaimed: 8,
            gc_passes: 9,
            migrations: 10,
            degraded_reads: 11,
            recovery_steps: 12,
            checksum_failures: 13,
        };
        let sum = a + a;
        assert_eq!(sum.pageins, 2);
        assert_eq!(sum.migrations, 20);
        assert_eq!(sum.degraded_reads, 22);
        assert_eq!(sum.recovery_steps, 24);
        assert_eq!(sum.checksum_failures, 26);
        assert_eq!(sum.total_net_transfers(), 24);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let near_max = TransferStats {
            net_data_transfers: u64::MAX - 1,
            pageouts: u64::MAX,
            ..Default::default()
        };
        let more = TransferStats {
            net_data_transfers: 10,
            pageouts: 10,
            ..Default::default()
        };
        let sum = near_max + more;
        assert_eq!(sum.net_data_transfers, u64::MAX);
        assert_eq!(sum.pageouts, u64::MAX);
        // The derived ratio stays finite and sane after saturation.
        assert!(sum.outbound_transfers_per_pageout() <= 1.0 + 1e-12);
    }

    #[test]
    fn merged_zero_pageout_ratio_is_zero() {
        // The audit case from the merge path: summing runs that serviced
        // only pageins must not divide by the zero pageout count.
        let a = TransferStats {
            pageins: 50,
            net_fetches: 50,
            ..Default::default()
        };
        let b = TransferStats {
            pageins: 30,
            net_fetches: 30,
            ..Default::default()
        };
        let merged = a + b;
        assert_eq!(merged.pageouts, 0);
        assert_eq!(merged.outbound_transfers_per_pageout(), 0.0);
    }

    #[test]
    fn json_includes_every_counter_and_the_ratio() {
        let s = TransferStats {
            pageouts: 4,
            net_data_transfers: 4,
            net_parity_transfers: 1,
            degraded_reads: 2,
            ..Default::default()
        };
        let json = s.to_json();
        assert!(json.contains("\"pageouts\": 4"));
        assert!(json.contains("\"degraded_reads\": 2"));
        assert!(json.contains("\"outbound_transfers_per_pageout\": 1.2500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
