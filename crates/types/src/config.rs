//! Pager configuration.

use std::time::Duration;

use crate::error::{Result, RmpError};
use crate::page::PAGE_SIZE;
use crate::policy::Policy;

/// Bounded-retry policy applied by the server pool before a server is
/// declared dead.
///
/// The `n`-th failure in a row (zero-based) puts the server on a rung of
/// the retry ladder: its next attempt is due `min(base_backoff * 2^n,
/// max_backoff)`, scaled by a random factor in `[1 - jitter, 1 +
/// jitter]`, later, on a redialled connection if the old one broke.
/// The rung is the server's, not a call's, and only a caller with no
/// other way pays the backoff — a pageout, a free, a control call, a
/// rebuild, a read without redundancy sleeps until the rung is due. A
/// read the policy can serve some other way makes one attempt and reads
/// around a failing server at once, and around one backing off until
/// its rung is due. The failure of the last of `max_attempts` attempts
/// is the verdict: the server is dead. With the defaults (3 attempts,
/// 10 ms base, 500 ms cap, 20 % jitter) a server that stays down costs a
/// caller that waits ~30 ms of backoff, and a read that goes around it
/// none.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical call, including the first
    /// (`1` disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Random scale applied to each sleep, as a fraction in `[0, 1]`;
    /// `0.2` means ±20 %. Keeps retried mirror writes from re-colliding.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no backoff.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// Nominal backoff before retry `attempt` (zero-based), without
    /// jitter: exponential from `base_backoff`, capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// Deadlines and retry behaviour of the TCP transport.
///
/// Every socket operation in the paging path runs under one of these
/// deadlines; a pager configured with finite timeouts can never block
/// indefinitely on a hung server (the paper's pager relied on the
/// kernel's TCP timeouts, minutes long — far beyond what a page fault
/// can tolerate).
#[derive(Clone, Debug, PartialEq)]
pub struct TransportConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each blocking read (one reply frame).
    pub read_timeout: Duration,
    /// Deadline for each blocking write (one request frame).
    pub write_timeout: Duration,
    /// Retry/backoff behaviour on transient failures.
    pub retry: RetryPolicy,
    /// Request window per server connection: how many seq-tagged frames
    /// the windowed (reactor) transport keeps outstanding at once. The
    /// server may grant less (its per-session cap). `1` is a window of
    /// one on the same transport; `0` is rejected by validation.
    pub window_max_inflight: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(2000),
            retry: RetryPolicy::default(),
            window_max_inflight: 32,
        }
    }
}

impl TransportConfig {
    /// Validates deadline and retry parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Config`] for zero timeouts, zero attempts, or
    /// jitter outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.connect_timeout.is_zero()
            || self.read_timeout.is_zero()
            || self.write_timeout.is_zero()
        {
            return Err(RmpError::Config(
                "transport timeouts must be positive".into(),
            ));
        }
        if self.retry.max_attempts == 0 {
            return Err(RmpError::Config("retry needs at least one attempt".into()));
        }
        if !(0.0..=1.0).contains(&self.retry.jitter) || !self.retry.jitter.is_finite() {
            return Err(RmpError::Config(format!(
                "retry jitter {} outside [0, 1]",
                self.retry.jitter
            )));
        }
        if self.retry.max_backoff < self.retry.base_backoff {
            return Err(RmpError::Config("max backoff below base backoff".into()));
        }
        if self.window_max_inflight == 0 {
            return Err(RmpError::Config("request window must be at least 1".into()));
        }
        Ok(())
    }

    /// The wall-clock budget one logical pool call may consume across
    /// all retry attempts, fixed when the call starts: the worst case the
    /// per-attempt knobs imply — every attempt exhausting its write and
    /// read deadlines, every reconnect its dial deadline, plus
    /// maximally-jittered backoff sleeps between attempts. A call can
    /// never run unbounded, even when each attempt re-arms fresh socket
    /// timeouts.
    pub fn effective_call_budget(&self) -> Duration {
        let attempts = self.retry.max_attempts.max(1);
        let per_attempt = self.write_timeout + self.read_timeout + self.connect_timeout;
        let mut total = per_attempt * attempts;
        for attempt in 0..attempts.saturating_sub(1) {
            total += self
                .retry
                .backoff_for(attempt)
                .mul_f64(1.0 + self.retry.jitter);
        }
        total
    }
}

/// Configuration of the remote memory pager client.
///
/// Mirrors the knobs the paper describes: the reliability policy and the
/// number of data servers (`S` in Section 2.2, also the parity group size:
/// one page per server per group). The overflow memory parity logging needs
/// is the *server's* setting (`ServerConfig::overflow_fraction`), and the
/// local-disk fallback exists exactly when the pager is given a disk.
///
/// # Examples
///
/// ```
/// use rmp_types::{PagerConfig, Policy};
///
/// let cfg = PagerConfig::new(Policy::ParityLogging)
///     .with_servers(4)
///     .with_prefetch_window(4);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PagerConfig {
    /// Reliability policy in force.
    pub policy: Policy,
    /// Number of data servers used for striping (`S`).
    pub servers: usize,
    /// Adaptive network-load switching threshold, ms per request
    /// (Section 5, "Network load"); `None` disables the adaptive switch.
    pub adaptive_threshold_ms: Option<f64>,
    /// Socket deadlines and retry/backoff behaviour of the paging path.
    pub transport: TransportConfig,
    /// Stride-prefetch lookahead: the *cap* on how many predicted pages a
    /// refill fetches ahead of the faulting one, not its size — a run
    /// starts with one page and doubles each time a read-ahead hit finds
    /// the runway gone, up to this many. Also the most read-aheads a
    /// pager keeps on the wire. `0` disables prefetching entirely.
    pub prefetch_window: usize,
    /// Number of independent shards the pager's front-end
    /// (`ShardedPager`) splits the page space into. Each shard owns its
    /// page table, checksum map, engine bookkeeping, and server
    /// connections, guarded by one lock, so up to `shard_count`
    /// application threads can page in parallel. Must be a power of two
    /// (shard selection masks the low bits of the `PageId`); one shard
    /// is one pool, as the paper's single client has.
    pub shard_count: usize,
    /// Data splits per page under the erasure-coded policy (`k`): each
    /// page is cut into `k` equal splits of `PAGE_SIZE / k` bytes, so `k`
    /// must divide the page size. A degraded read costs `k` split
    /// fetches, against the parity policies' `S` full pages.
    pub ec_data_splits: usize,
    /// Parity splits per page under the erasure-coded policy (`r`): the
    /// Reed–Solomon redundancy on top of the `k` data splits. The page
    /// survives any `r` simultaneous split losses; `r = 1` degenerates to
    /// plain XOR parity.
    pub ec_parity_splits: usize,
}

impl PagerConfig {
    /// Creates a configuration for `policy` with the paper's defaults:
    /// two servers for plain policies, 4 + 1 for the parity policies.
    pub fn new(policy: Policy) -> Self {
        let servers = match policy {
            Policy::ParityLogging | Policy::BasicParity => 4,
            _ => 2,
        };
        PagerConfig {
            policy,
            servers,
            adaptive_threshold_ms: None,
            transport: TransportConfig::default(),
            prefetch_window: 8,
            shard_count: 8,
            ec_data_splits: 2,
            ec_parity_splits: 1,
        }
    }

    /// Sets the number of data servers.
    pub fn with_servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Enables adaptive switching to the local disk when the average
    /// network service time exceeds `ms`.
    pub fn with_adaptive_threshold_ms(mut self, ms: f64) -> Self {
        self.adaptive_threshold_ms = Some(ms);
        self
    }

    /// Replaces the transport deadlines and retry policy.
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Replaces just the retry policy, keeping the default deadlines.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.transport.retry = retry;
        self
    }

    /// Sets the cap on the stride-prefetch lookahead (`0` disables
    /// prefetching).
    pub fn with_prefetch_window(mut self, pages: usize) -> Self {
        self.prefetch_window = pages;
        self
    }

    /// Sets the shard count of the concurrent front-end (power of two;
    /// `1` degrades to a single-lock pager).
    pub fn with_shard_count(mut self, shards: usize) -> Self {
        self.shard_count = shards;
        self
    }

    /// Sets the erasure-code geometry: `k` data splits and `r` parity
    /// splits per page (`k` must divide the page size; placement needs
    /// `k + r` distinct live servers).
    pub fn with_ec_splits(mut self, data: usize, parity: usize) -> Self {
        self.ec_data_splits = data;
        self.ec_parity_splits = parity;
        self
    }

    /// Sets the per-connection request window of the windowed transport
    /// (`1` is a window of one frame at a time, not another transport).
    pub fn with_window_max_inflight(mut self, window: usize) -> Self {
        self.transport.window_max_inflight = window;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Config`] when the combination of policy and
    /// parameters cannot work (zero servers for a remote policy, mirroring
    /// with a single server, an erasure-code geometry that cannot stripe, ...).
    pub fn validate(&self) -> Result<()> {
        if self.policy != Policy::DiskOnly && self.servers == 0 {
            return Err(RmpError::Config(
                "remote policies need at least one server".into(),
            ));
        }
        if self.policy == Policy::Mirroring && self.servers < 2 {
            return Err(RmpError::Config(
                "mirroring needs at least two servers".into(),
            ));
        }
        if self.policy == Policy::ErasureCoded {
            let (k, r) = (self.ec_data_splits, self.ec_parity_splits);
            if k == 0 || r == 0 {
                return Err(RmpError::Config(format!(
                    "erasure coding needs k >= 1 data and r >= 1 parity splits, got k={k} r={r}"
                )));
            }
            if !PAGE_SIZE.is_multiple_of(k) {
                return Err(RmpError::Config(format!(
                    "ec_data_splits {k} must divide the page size ({PAGE_SIZE})"
                )));
            }
            if k + r > 32 {
                return Err(RmpError::Config(format!(
                    "erasure-code stripe width k + r = {} exceeds the placement cap of 32",
                    k + r
                )));
            }
        }
        if self.shard_count == 0 || !self.shard_count.is_power_of_two() {
            return Err(RmpError::Config(format!(
                "shard count {} must be a power of two",
                self.shard_count
            )));
        }
        if let Some(ms) = self.adaptive_threshold_ms {
            if !ms.is_finite() || ms <= 0.0 {
                return Err(RmpError::Config(format!(
                    "adaptive threshold {ms} must be positive and finite"
                )));
            }
        }
        self.transport.validate()
    }
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig::new(Policy::ParityLogging)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PagerConfig::default();
        assert_eq!(cfg.policy, Policy::ParityLogging);
        assert_eq!(cfg.servers, 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn no_reliability_defaults_to_two_servers() {
        // The Figure 2 experiment ran no-reliability with two servers.
        let cfg = PagerConfig::new(Policy::NoReliability);
        assert_eq!(cfg.servers, 2);
    }

    #[test]
    fn rejects_zero_servers_for_remote_policies() {
        let cfg = PagerConfig::new(Policy::NoReliability).with_servers(0);
        assert!(cfg.validate().is_err());
        let disk = PagerConfig::new(Policy::DiskOnly).with_servers(0);
        assert!(disk.validate().is_ok());
    }

    #[test]
    fn rejects_single_server_mirroring() {
        let cfg = PagerConfig::new(Policy::Mirroring).with_servers(1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_adaptive_threshold() {
        assert!(PagerConfig::default()
            .with_adaptive_threshold_ms(0.0)
            .validate()
            .is_err());
        assert!(PagerConfig::default()
            .with_adaptive_threshold_ms(f64::NAN)
            .validate()
            .is_err());
        assert!(PagerConfig::default()
            .with_adaptive_threshold_ms(25.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn prefetch_knob() {
        let cfg = PagerConfig::default();
        assert_eq!(cfg.prefetch_window, 8);
        let cfg = cfg.with_prefetch_window(0);
        assert_eq!(cfg.prefetch_window, 0, "zero window disables prefetch");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn shard_count_knob() {
        let cfg = PagerConfig::default();
        assert_eq!(cfg.shard_count, 8);
        for good in [1, 2, 4, 16, 64] {
            assert!(
                PagerConfig::default()
                    .with_shard_count(good)
                    .validate()
                    .is_ok(),
                "{good} shards must validate"
            );
        }
        for bad in [0, 3, 6, 12, 100] {
            assert!(
                PagerConfig::default()
                    .with_shard_count(bad)
                    .validate()
                    .is_err(),
                "{bad} shards must be rejected (not a power of two)"
            );
        }
    }

    #[test]
    fn erasure_code_knobs() {
        let cfg = PagerConfig::new(Policy::ErasureCoded);
        assert_eq!(cfg.ec_data_splits, 2);
        assert_eq!(cfg.ec_parity_splits, 1);
        assert!(cfg.validate().is_ok());
        assert!(PagerConfig::new(Policy::ErasureCoded)
            .with_ec_splits(4, 2)
            .validate()
            .is_ok());
        // k must divide PAGE_SIZE.
        assert!(PagerConfig::new(Policy::ErasureCoded)
            .with_ec_splits(3, 1)
            .validate()
            .is_err());
        // k and r must be at least one.
        assert!(PagerConfig::new(Policy::ErasureCoded)
            .with_ec_splits(0, 1)
            .validate()
            .is_err());
        assert!(PagerConfig::new(Policy::ErasureCoded)
            .with_ec_splits(4, 0)
            .validate()
            .is_err());
        // Stripe width is capped.
        assert!(PagerConfig::new(Policy::ErasureCoded)
            .with_ec_splits(32, 4)
            .validate()
            .is_err());
        // Other policies ignore the knobs entirely.
        assert!(PagerConfig::new(Policy::Mirroring)
            .with_ec_splits(0, 0)
            .validate()
            .is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let retry = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
        };
        assert_eq!(retry.backoff_for(0), Duration::from_millis(10));
        assert_eq!(retry.backoff_for(1), Duration::from_millis(20));
        assert_eq!(retry.backoff_for(2), Duration::from_millis(40));
        assert_eq!(retry.backoff_for(3), Duration::from_millis(50));
        assert_eq!(retry.backoff_for(40), Duration::from_millis(50));
    }

    #[test]
    fn no_retry_policy_is_single_attempt() {
        let retry = RetryPolicy::no_retry();
        assert_eq!(retry.max_attempts, 1);
        assert_eq!(retry.backoff_for(0), Duration::ZERO);
    }

    #[test]
    fn rejects_bad_transport_config() {
        let mut cfg = PagerConfig::default();
        cfg.transport.read_timeout = Duration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = PagerConfig::default();
        cfg.transport.retry.max_attempts = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = PagerConfig::default();
        cfg.transport.retry.jitter = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = PagerConfig::default();
        cfg.transport.retry.max_backoff = Duration::from_millis(1);
        assert!(cfg.validate().is_err());

        assert!(PagerConfig::default().validate().is_ok());
    }

    #[test]
    fn window_knob() {
        let cfg = PagerConfig::default();
        assert_eq!(cfg.transport.window_max_inflight, 32);
        assert!(PagerConfig::default()
            .with_window_max_inflight(1)
            .validate()
            .is_ok());
        assert!(PagerConfig::default()
            .with_window_max_inflight(0)
            .validate()
            .is_err());
    }

    #[test]
    fn derived_call_budget_covers_worst_case_attempts() {
        // Default retry: 3 attempts, 10/20 ms backoffs, 20 % jitter.
        // Per attempt: 2 s write + 2 s read + 1 s reconnect dial.
        let cfg = TransportConfig::default();
        let budget = cfg.effective_call_budget();
        assert!(budget >= Duration::from_secs(15), "budget {budget:?}");
        assert!(budget <= Duration::from_secs(16), "budget {budget:?}");
    }
}
