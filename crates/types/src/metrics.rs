//! Lock-cheap runtime observability: counters, gauges, fixed-bucket
//! latency histograms, and a bounded trace-event ring — all exportable as
//! one JSON snapshot.
//!
//! The paper's whole evaluation (Figures 1–5) rests on *measured*
//! per-policy transfer counts and latencies. This module is the
//! instrumentation those measurements flow through at runtime: the pager,
//! the server pool, the policy engines, the recovery driver, and the
//! remote memory server each hold a [`MetricsRegistry`] (or share one)
//! and record into pre-resolved handles, so the hot path costs one or two
//! relaxed atomic operations per event — no locks, no allocation.
//!
//! The design in one breath:
//!
//! * [`Counter`] / [`Gauge`] — single `AtomicU64`s.
//! * [`Histogram`] — fixed log-spaced microsecond buckets
//!   ([`LATENCY_BUCKETS_US`]) plus exact `count`/`sum`/`max`; percentiles
//!   (p50/p90/p99) are interpolated from the buckets at snapshot time,
//!   never computed on the hot path.
//! * [`EventRing`] — a bounded ring of structured [`TraceEvent`]s
//!   (pageout, pagein, retry, degraded read, recovery step, crash,
//!   rejoin, …), each stamped with a registry-relative timestamp and an
//!   optional server/policy/outcome. Old events are evicted, and the
//!   eviction count is reported, so the ring is lossy but never lies.
//! * [`MetricsRegistry`] — a name → handle table. Registration takes a
//!   short lock; recording through the returned [`Arc`] handles does not.
//!   [`MetricsRegistry::snapshot_json`] serializes everything (schema
//!   `rmp-metrics-v1`, documented in `OBSERVABILITY.md`).
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use rmp_types::metrics::MetricsRegistry;
//!
//! let metrics = MetricsRegistry::new();
//! // Resolve handles once, record cheaply ever after.
//! let pageouts = metrics.counter("pager_pageouts_total");
//! let latency = metrics.histogram("pager_pageout_latency_us");
//! for _ in 0..100 {
//!     pageouts.inc();
//!     latency.record(Duration::from_micros(120));
//! }
//! assert_eq!(pageouts.get(), 100);
//! assert_eq!(latency.snapshot().count, 100);
//! let json = metrics.snapshot_json();
//! assert!(json.contains("\"pager_pageouts_total\": 100"));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{Policy, ServerId};

/// Upper bounds (inclusive, microseconds) of the histogram buckets; a
/// final implicit overflow bucket catches everything slower than 10 s.
///
/// Log-spaced 1-2-5 steps from 1 µs to 10 s cover everything from a
/// loopback RAM hit to a retry loop draining its whole backoff budget,
/// with ≤ 2.5× relative error inside any bucket — plenty for the p50/p90/
/// p99 comparisons the paper's tables make.
pub const LATENCY_BUCKETS_US: [u64; 22] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Default capacity of a registry's trace-event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 512;

/// A monotonically increasing `u64` counter.
///
/// # Examples
///
/// ```
/// use rmp_types::metrics::Counter;
///
/// let c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating at `u64::MAX`, like the stats it mirrors).
    pub fn add(&self, n: u64) {
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (backlog depth, occupancy, 0/1 flags).
///
/// # Examples
///
/// ```
/// use rmp_types::metrics::Gauge;
///
/// let g = Gauge::default();
/// g.set(42);
/// assert_eq!(g.get(), 42);
/// ```
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (microseconds).
///
/// Recording is two relaxed atomic adds plus an atomic max; the bucket
/// index is found by binary search over [`LATENCY_BUCKETS_US`]. Nothing
/// is computed until [`Histogram::snapshot`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use rmp_types::metrics::Histogram;
///
/// let h = Histogram::default();
/// for us in [100u64, 150, 200, 900, 5_000] {
///     h.record(Duration::from_micros(us));
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert_eq!(snap.max_us, 5_000);
/// assert!(snap.p50_us() <= snap.p90_us() && snap.p90_us() <= snap.p99_us());
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len()],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `d`.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US.partition_point(|&bound| bound < us);
        match self.buckets.get(idx) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out for analysis/serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with percentile estimation.
///
/// Shared schema note: the figure harnesses in `crates/bench` emit their
/// latency numbers through this same type, so `BENCH_*.json` files and
/// runtime `rmpstat` snapshots carry identical histogram objects.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Largest observation, microseconds (exact, not bucketed).
    pub max_us: u64,
    /// Per-bucket counts, parallel to [`LATENCY_BUCKETS_US`].
    pub buckets: [u64; LATENCY_BUCKETS_US.len()],
    /// Observations above the last bucket bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) in microseconds by linear
    /// interpolation inside the containing bucket, clamped to the exact
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += n;
            if (cumulative as f64) >= rank {
                let lo = if i == 0 { 0 } else { LATENCY_BUCKETS_US[i - 1] } as f64;
                let hi = LATENCY_BUCKETS_US[i] as f64;
                let within = (rank - before) / n as f64;
                return (lo + (hi - lo) * within).min(self.max_us as f64);
            }
        }
        // Rank lands in the overflow bucket: the max is the best bound.
        self.max_us as f64
    }

    /// Median, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile, microseconds.
    pub fn p90_us(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile, microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serializes as a JSON object: exact `count`/`sum_us`/`max_us`,
    /// derived `mean_us`/`p50_us`/`p90_us`/`p99_us`, and the non-empty
    /// buckets as `[upper_bound_us, count]` pairs (`overflow` separate).
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !buckets.is_empty() {
                buckets.push_str(", ");
            }
            let _ = write!(buckets, "[{}, {}]", LATENCY_BUCKETS_US[i], n);
        }
        format!(
            "{{\"count\": {}, \"sum_us\": {}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \
             \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {}, \
             \"buckets\": [{}], \"overflow\": {}}}",
            self.count,
            self.sum_us,
            self.mean_us(),
            self.p50_us(),
            self.p90_us(),
            self.p99_us(),
            self.max_us,
            buckets,
            self.overflow,
        )
    }
}

/// What happened, for [`TraceEvent`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A pageout was serviced by the pager.
    PageOut,
    /// A pagein was serviced by the pager.
    PageIn,
    /// One wire call attempt failed transiently and was retried.
    Retry,
    /// A pagein was served from redundancy, around its holder.
    DegradedRead,
    /// One bounded step of an incremental rebuild ran.
    RecoveryStep,
    /// A server was declared dead (crash, timeout budget, shutdown).
    Crash,
    /// A previously dead server was reconnected and rejoined the pool.
    Rejoin,
    /// Pages were migrated away from a loaded server.
    Migration,
    /// A parity-log garbage-collection pass ran.
    Gc,
    /// A page failed its end-to-end checksum.
    ChecksumFailure,
}

impl EventKind {
    /// Stable snake-case name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::PageOut => "pageout",
            EventKind::PageIn => "pagein",
            EventKind::Retry => "retry",
            EventKind::DegradedRead => "degraded_read",
            EventKind::RecoveryStep => "recovery_step",
            EventKind::Crash => "crash",
            EventKind::Rejoin => "rejoin",
            EventKind::Migration => "migration",
            EventKind::Gc => "gc",
            EventKind::ChecksumFailure => "checksum_failure",
        }
    }
}

/// One structured trace event in the ring.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (survives ring eviction, so gaps in a
    /// snapshot reveal exactly how much history was lost).
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// The server involved, if any.
    pub server: Option<ServerId>,
    /// The policy in force, if known.
    pub policy: Option<Policy>,
    /// Short outcome tag: `"ok"`, `"error"`, or a kind-specific word.
    pub outcome: &'static str,
    /// Optional free-form context (counts, error text).
    pub detail: Option<String>,
}

impl TraceEvent {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\": {}, \"at_us\": {}, \"kind\": \"{}\", \"outcome\": \"{}\"",
            self.seq,
            self.at_us,
            self.kind.as_str(),
            self.outcome,
        );
        if let Some(server) = self.server {
            let _ = write!(s, ", \"server\": {}", server.0);
        }
        if let Some(policy) = self.policy {
            let _ = write!(s, ", \"policy\": \"{}\"", policy.label());
        }
        if let Some(detail) = &self.detail {
            let _ = write!(s, ", \"detail\": \"{}\"", escape_json(detail));
        }
        s.push('}');
        s
    }
}

#[derive(Debug, Default)]
struct RingInner {
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
    evicted: u64,
}

/// A bounded in-memory ring of [`TraceEvent`]s.
///
/// Pushing to a full ring evicts the oldest event and counts the
/// eviction, so snapshots always state how much history they are missing.
/// Capacity 0 disables tracing entirely (pushes become no-ops).
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity,
            inner: Mutex::new(RingInner::default()),
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `event`, stamping its sequence number; evicts the oldest
    /// event when full.
    pub fn push(&self, mut event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("event ring poisoned");
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() >= self.capacity {
            inner.buf.pop_front();
            inner.evicted += 1;
        }
        inner.buf.push_back(event);
    }

    /// Copies out the retained events (oldest first) and the count of
    /// events evicted so far.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let inner = self.inner.lock().expect("event ring poisoned");
        (inner.buf.iter().cloned().collect(), inner.evicted)
    }
}

/// A named collection of [`Counter`]s, [`Gauge`]s, [`Histogram`]s, and an
/// [`EventRing`], snapshottable as JSON.
///
/// Handles are resolved once (a short registration lock) and then shared
/// as [`Arc`]s; recording through a handle is lock-free. Names follow
/// `<subsystem>_<what>_<unit-or-total>` (catalogued in
/// `OBSERVABILITY.md`); per-server variants append `{srvN}`.
///
/// # Examples
///
/// ```
/// use rmp_types::metrics::{EventKind, MetricsRegistry};
/// use rmp_types::{Policy, ServerId};
///
/// let m = MetricsRegistry::new();
/// m.counter("pool_retries_total").inc();
/// m.gauge("pager_recovery_backlog").set(2);
/// m.trace(
///     EventKind::Crash,
///     Some(ServerId(3)),
///     Some(Policy::Mirroring),
///     "dead",
/// );
/// let (events, evicted) = m.events();
/// assert_eq!(events.len(), 1);
/// assert_eq!(evicted, 0);
/// assert!(m.snapshot_json().contains("\"kind\": \"crash\""));
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    ring: EventRing,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// Looks `name` up in `table`, registering it on a miss — the only time
/// the name is copied: a hit allocates nothing.
fn resolve<T: Default>(table: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = table.lock().expect("metric table poisoned");
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// Creates a registry with the default event-ring capacity.
    pub fn new() -> Self {
        MetricsRegistry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a registry retaining at most `capacity` trace events
    /// (0 disables event tracing).
    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            started: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            ring: EventRing::new(capacity),
        }
    }

    /// Microseconds since the registry was created (the event clock).
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Returns (registering if needed) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// Returns (registering if needed) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// Returns (registering if needed) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// Appends a trace event with no detail text.
    pub fn trace(
        &self,
        kind: EventKind,
        server: Option<ServerId>,
        policy: Option<Policy>,
        outcome: &'static str,
    ) {
        self.trace_with(kind, server, policy, outcome, None);
    }

    /// Appends a trace event carrying free-form `detail`.
    pub fn trace_with(
        &self,
        kind: EventKind,
        server: Option<ServerId>,
        policy: Option<Policy>,
        outcome: &'static str,
        detail: Option<String>,
    ) {
        self.ring.push(TraceEvent {
            seq: 0, // Stamped by the ring.
            at_us: self.elapsed_us(),
            kind,
            server,
            policy,
            outcome,
            detail,
        });
    }

    /// Copies out the retained trace events (oldest first) plus the count
    /// of evicted events.
    pub fn events(&self) -> (Vec<TraceEvent>, u64) {
        self.ring.snapshot()
    }

    /// Serializes every metric and the event ring as one JSON object
    /// (schema `rmp-metrics-v1`; see `OBSERVABILITY.md`).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\": \"rmp-metrics-v1\"");
        let _ = write!(out, ", \"uptime_us\": {}", self.elapsed_us());
        out.push_str(", \"counters\": {");
        {
            let map = self.counters.lock().expect("counter table poisoned");
            for (i, (name, c)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", escape_json(name), c.get());
            }
        }
        out.push_str("}, \"gauges\": {");
        {
            let map = self.gauges.lock().expect("gauge table poisoned");
            for (i, (name, g)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", escape_json(name), g.get());
            }
        }
        out.push_str("}, \"histograms\": {");
        {
            let map = self.histograms.lock().expect("histogram table poisoned");
            for (i, (name, h)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", escape_json(name), h.snapshot().to_json());
            }
        }
        let (events, evicted) = self.ring.snapshot();
        let _ = write!(
            out,
            "}}, \"events\": {{\"capacity\": {}, \"evicted\": {}, \"entries\": [",
            self.ring.capacity(),
            evicted
        );
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}}");
        out
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::default();
        // 90 fast observations and 10 slow ones: p50 must sit in the fast
        // band, p99 in the slow band, max exact.
        for _ in 0..90 {
            h.record_us(80);
        }
        for _ in 0..10 {
            h.record_us(45_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 45_000);
        assert!(s.p50_us() <= 100.0, "p50 {}", s.p50_us());
        assert!(s.p99_us() > 20_000.0, "p99 {}", s.p99_us());
        assert!(s.p50_us() <= s.p90_us() && s.p90_us() <= s.p99_us());
        assert!((s.mean_us() - (90.0 * 80.0 + 10.0 * 45_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::default();
        h.record_us(3); // Bucket bound is 5; the max must still win.
        let s = h.snapshot();
        assert!(s.quantile(1.0) <= 3.0);
    }

    #[test]
    fn overflow_bucket_catches_outliers() {
        let h = Histogram::default();
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.overflow, 1);
        assert_eq!(s.quantile(0.99), u64::MAX as f64);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us(), 0.0);
        assert_eq!(s.mean_us(), 0.0);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.push(TraceEvent {
                seq: 0,
                at_us: i,
                kind: EventKind::PageOut,
                server: None,
                policy: None,
                outcome: "ok",
                detail: None,
            });
        }
        let (events, evicted) = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(evicted, 6);
        // Sequence numbers survive eviction: the retained tail is 6..10.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_disables_tracing() {
        let m = MetricsRegistry::with_event_capacity(0);
        m.trace(EventKind::Crash, None, None, "dead");
        let (events, evicted) = m.events();
        assert!(events.is_empty());
        assert_eq!(evicted, 0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let m = MetricsRegistry::new();
        let a = m.counter("x_total");
        let b = m.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(m.counter("x_total").get(), 2);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = MetricsRegistry::new();
        m.counter("a_total").add(3);
        m.gauge("b_gauge").set(7);
        m.histogram("c_us").record_us(100);
        m.trace_with(
            EventKind::DegradedRead,
            Some(ServerId(1)),
            Some(Policy::ParityLogging),
            "ok",
            Some("quote \" and \\ backslash".into()),
        );
        let json = m.snapshot_json();
        assert!(json.contains("\"schema\": \"rmp-metrics-v1\""));
        assert!(json.contains("\"a_total\": 3"));
        assert!(json.contains("\"b_gauge\": 7"));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"kind\": \"degraded_read\""));
        assert!(json.contains("\"policy\": \"Parity logging\""));
        assert!(json.contains("quote \\\" and \\\\ backslash"));
        // Balanced braces/brackets (cheap well-formedness check; none of
        // the escaped content above adds unbalanced delimiters).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for pair in LATENCY_BUCKETS_US.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
