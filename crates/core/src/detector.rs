//! Accrual failure detection — gray servers scored, not just crashed ones.
//!
//! The original pool heuristic was binary: a failed call made a server
//! Suspect, three clean calls of *any* kind promoted it back. Real
//! remote-memory fleets fail *gray* — a server that answers every call,
//! but at 10× its usual latency, never trips a binary detector and holds
//! the pagein tail hostage. This module replaces the binary rule with a
//! phi-accrual-style **suspicion score** per server, in the spirit of
//! Hayashibara's φ detector: instead of a boolean "did it time out", the
//! detector accumulates continuous evidence (deadline misses, replies far
//! above the server's own baseline) and decays it on clean replies, so
//! the pager can distinguish *dead*, *gray*, and *healthy* and act
//! differently on each.
//!
//! Evidence in:
//!
//! * **Deadline miss / transport failure** — [`MISS_WEIGHT`] added at
//!   once; a single miss reaches the Suspect threshold, preserving the
//!   old behaviour for clean fail-stop faults.
//! * **Slow reply** — a reply slower than [`SLOW_MULT`]× the server's own
//!   *fast baseline* (an EWMA fed only by non-slow replies, so a
//!   persistently slow server cannot drag its baseline up and launder its
//!   lateness) adds [`SLOW_WEIGHT`]. Replies under the slow floor
//!   ([`FailureDetector::set_slow_floor_us`]) are
//!   never "slow" — microsecond jitter on a loopback fake is noise, not
//!   grayness.
//! * **Clean reply** — halves the score ([`CLEAN_DECAY`]).
//!
//! State out: `Healthy → Suspect` when the score crosses
//! [`SUSPECT_ENTER`]; `Suspect → Healthy` only when the score has decayed
//! below [`SUSPECT_EXIT`] **and** [`CLEAN_DATA_CALLS`] consecutive clean
//! *data-path* replies have arrived (control chatter like `GetStats`
//! proves nothing about the paging path — see the regression test in
//! `tests/flaky_transport.rs`). The enter/exit gap is the hysteresis: a
//! server flapping around one threshold cannot oscillate. Declaring a
//! server *Dead* stays where it always was — in the pool, when a retry
//! budget is exhausted — because death is a decision about abandoning
//! in-flight work, not about statistics.
//!
//! The score also decides which servers look **gray**
//! (`ServerPool::looks_gray`): at [`GRAY_SUSPICION`], with
//! [`Health::expected_latency_us`] (an EWMA over *every* attempt) above
//! the best other server's tail. A demand read goes around a gray holder
//! as around a dead one. An infinite slow floor turns it all off.
//!
//! The detector holds the rules and their one tunable; each server's
//! state is a [`Health`] value the pool keeps inline in its per-server
//! record, so resetting that record resets the detector's memory too.
//!
//! # Examples
//!
//! ```
//! use rmp_core::detector::{FailureDetector, Health};
//!
//! let d = FailureDetector::new();
//! let mut s = Health::default();
//! // Twenty clean data-path replies at ~100µs establish a baseline.
//! for _ in 0..20 {
//!     d.on_reply(&mut s, 100.0, true);
//! }
//! assert!(!s.is_suspect());
//!
//! // One deadline miss is strong evidence: the server turns Suspect.
//! d.on_miss(&mut s, 100.0);
//! assert!(s.is_suspect());
//!
//! // Clean data-path replies decay the score back below the exit
//! // threshold — hysteresis, not a fixed clean-call count.
//! for _ in 0..10 {
//!     d.on_reply(&mut s, 100.0, true);
//! }
//! assert!(!s.is_suspect());
//! ```

/// Suspicion score at which a Healthy server becomes Suspect.
pub const SUSPECT_ENTER: f64 = 2.0;

/// Suspicion score below which a Suspect server *may* recover (the other
/// gate is [`CLEAN_DATA_CALLS`]); the gap to [`SUSPECT_ENTER`] is the
/// hysteresis band.
pub const SUSPECT_EXIT: f64 = 0.5;

/// Suspicion score at which a live server that is also expected to
/// answer slowly looks gray: a demand read goes around it. Above
/// [`SUSPECT_ENTER`], so one miss alone makes no server gray.
pub const GRAY_SUSPICION: f64 = 3.0;

/// Consecutive clean data-path replies required before a Suspect server
/// is trusted again.
pub const CLEAN_DATA_CALLS: u32 = 3;

/// Score added by one deadline miss or transport failure. Equal to
/// [`SUSPECT_ENTER`] so a single miss suspects the server immediately.
pub const MISS_WEIGHT: f64 = 2.0;

/// Score added by one slow (but successful) reply. Three slow replies in
/// a row out-accrue the clean decay and cross [`SUSPECT_ENTER`].
pub const SLOW_WEIGHT: f64 = 0.75;

/// Multiplicative decay applied by one clean reply.
pub const CLEAN_DECAY: f64 = 0.5;

/// Ceiling on the suspicion score, so recovery from a long fault takes a
/// bounded number of clean replies rather than growing with fault length.
pub const SUSPICION_CAP: f64 = 8.0;

/// A reply is "slow" when it exceeds this multiple of the server's fast
/// baseline (and the slow floor).
pub const SLOW_MULT: f64 = 4.0;

/// Default floor below which replies are never counted slow,
/// microseconds. In-memory test transports answer in single-digit
/// microseconds with multi-× jitter; only real-network-scale lateness
/// should accrue suspicion.
pub const DEFAULT_SLOW_FLOOR_US: f64 = 200.0;

/// EWMA smoothing factor of every latency estimate (1/8, TCP's classic
/// SRTT gain).
const EWMA_ALPHA: f64 = 0.125;

/// Folds `sample` into the decaying mean `estimate`; a zero estimate has
/// seen nothing yet and takes the sample whole.
pub(crate) fn ewma(estimate: &mut f64, sample: f64) {
    if *estimate == 0.0 {
        *estimate = sample;
    } else {
        *estimate += EWMA_ALPHA * (sample - *estimate);
    }
}

/// What a sample did to a server's health state, so the pool can mirror
/// the transition into its `ClusterView` (and metrics) exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No state change (score moved, state did not).
    Unchanged,
    /// Healthy → Suspect: deprioritize the server.
    BecameSuspect,
    /// Suspect → Healthy: trust the server again.
    BecameHealthy,
}

/// One server's accrual state: all zeroes (the `Default`) for a server
/// nothing is known about.
#[derive(Clone, Debug, Default)]
pub struct Health {
    /// The accrued suspicion score.
    suspicion: f64,
    /// EWMA over the latency of *every* attempt, failed ones included, µs
    /// — what the next call is expected to cost. 0 until the first sample.
    expected_us: f64,
    /// EWMA over non-slow reply latencies, µs — the server's fast
    /// baseline that slow detection compares against.
    baseline_us: f64,
    /// Consecutive clean data-path replies since the last fault.
    clean_data_streak: u32,
    /// Hysteresis latch: true between Suspect entry and recovery.
    suspect: bool,
}

impl Health {
    /// The state of a server declared dead: the score pinned to the cap,
    /// so a later rejoin that keeps this record starts from maximum
    /// distrust. Latency history does not outlive the death.
    pub fn dead() -> Self {
        Health {
            suspicion: SUSPICION_CAP,
            suspect: true,
            ..Health::default()
        }
    }

    /// Current suspicion score (0 when never sampled).
    pub fn suspicion(&self) -> f64 {
        self.suspicion
    }

    /// Whether the server is currently latched Suspect.
    pub fn is_suspect(&self) -> bool {
        self.suspect
    }

    /// EWMA over every attempt's latency, µs — what the next call is
    /// expected to cost (0 when never sampled).
    pub fn expected_latency_us(&self) -> f64 {
        self.expected_us
    }

    /// The fast baseline latency, µs (0 when never sampled).
    pub fn baseline_us(&self) -> f64 {
        self.baseline_us
    }

    /// Applies the hysteresis rules after a score/streak update.
    fn transition(&mut self) -> Verdict {
        if !self.suspect && self.suspicion >= SUSPECT_ENTER {
            self.suspect = true;
            return Verdict::BecameSuspect;
        }
        if self.suspect
            && self.suspicion < SUSPECT_EXIT
            && self.clean_data_streak >= CLEAN_DATA_CALLS
        {
            self.suspect = false;
            self.clean_data_streak = 0;
            return Verdict::BecameHealthy;
        }
        Verdict::Unchanged
    }
}

/// The accrual rules, applied to whichever server's [`Health`] the caller
/// hands in.
///
/// Owned by [`crate::ServerPool`], which feeds it one sample per attempt
/// and mirrors the returned [`Verdict`] into its cluster view.
///
/// # Examples
///
/// ```
/// use rmp_core::detector::{FailureDetector, Health, Verdict};
///
/// let d = FailureDetector::new();
/// let mut srv = Health::default();
/// // One miss crosses the Suspect threshold...
/// assert_eq!(d.on_miss(&mut srv, 100.0), Verdict::BecameSuspect);
/// // ...and three clean data replies (with the score decayed) recover it.
/// assert_eq!(d.on_reply(&mut srv, 100.0, true), Verdict::Unchanged);
/// assert_eq!(d.on_reply(&mut srv, 100.0, true), Verdict::Unchanged);
/// assert_eq!(d.on_reply(&mut srv, 100.0, true), Verdict::BecameHealthy);
/// ```
#[derive(Debug)]
pub struct FailureDetector {
    slow_floor_us: f64,
}

impl Default for FailureDetector {
    fn default() -> Self {
        FailureDetector::new()
    }
}

impl FailureDetector {
    /// Creates a detector with the default slow floor.
    pub fn new() -> Self {
        FailureDetector {
            slow_floor_us: DEFAULT_SLOW_FLOOR_US,
        }
    }

    /// Sets the floor below which replies are never counted slow.
    /// `f64::INFINITY` disables slow-reply accrual entirely — the
    /// determinism property test uses this, because wall-clock latencies
    /// are the one nondeterministic input the detector consumes.
    pub fn set_slow_floor_us(&mut self, floor: f64) {
        self.slow_floor_us = floor;
    }

    /// Whether latency counts at all: `false` once the slow floor is
    /// infinite, and then no server looks gray either.
    pub(crate) fn scores_latency(&self) -> bool {
        self.slow_floor_us.is_finite()
    }

    /// Feeds one successful reply: `latency_us` spent, `data_path` when
    /// the call carried page data (stores/fetches/frees, not stats or
    /// load chatter). Returns the state transition, if any.
    pub fn on_reply(&self, h: &mut Health, latency_us: f64, data_path: bool) -> Verdict {
        let slow =
            h.baseline_us > 0.0 && latency_us > (SLOW_MULT * h.baseline_us).max(self.slow_floor_us);
        ewma(&mut h.expected_us, latency_us);
        if slow {
            h.suspicion = (h.suspicion + SLOW_WEIGHT).min(SUSPICION_CAP);
            // A slow reply is still correct data: the streak survives, but
            // does not grow — promotion needs *fast* clean evidence.
        } else {
            ewma(&mut h.baseline_us, latency_us);
            h.suspicion *= CLEAN_DECAY;
            if data_path {
                h.clean_data_streak += 1;
            }
        }
        h.transition()
    }

    /// Feeds one deadline miss or transport failure that took
    /// `latency_us` to surface: waiting on a server that fails slowly
    /// costs that time too, so it counts toward the expected latency.
    pub fn on_miss(&self, h: &mut Health, latency_us: f64) -> Verdict {
        ewma(&mut h.expected_us, latency_us);
        h.suspicion = (h.suspicion + MISS_WEIGHT).min(SUSPICION_CAP);
        h.clean_data_streak = 0;
        h.transition()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_miss_suspects_immediately() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        assert_eq!(d.on_miss(&mut h, 100.0), Verdict::BecameSuspect);
        assert!(h.is_suspect());
        assert!(h.suspicion() >= SUSPECT_ENTER);
    }

    #[test]
    fn clean_data_replies_recover_a_suspect() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        d.on_miss(&mut h, 100.0);
        // Two clean data replies: score decayed below exit but streak short.
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::Unchanged);
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::Unchanged);
        assert!(h.is_suspect());
        // Third completes the streak.
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::BecameHealthy);
        assert!(!h.is_suspect());
    }

    #[test]
    fn control_replies_do_not_recover_a_suspect() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        d.on_miss(&mut h, 100.0);
        for _ in 0..20 {
            assert_eq!(d.on_reply(&mut h, 100.0, false), Verdict::Unchanged);
        }
        assert!(h.is_suspect(), "stats chatter must not promote");
        // Data replies still work afterwards.
        for _ in 0..2 {
            d.on_reply(&mut h, 100.0, true);
        }
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::BecameHealthy);
    }

    #[test]
    fn a_miss_resets_the_clean_streak() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        d.on_miss(&mut h, 100.0);
        d.on_reply(&mut h, 100.0, true);
        d.on_reply(&mut h, 100.0, true);
        d.on_miss(&mut h, 100.0); // Streak back to zero.
        d.on_reply(&mut h, 100.0, true);
        d.on_reply(&mut h, 100.0, true);
        assert!(h.is_suspect(), "streak must restart after a new miss");
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::BecameHealthy);
    }

    #[test]
    fn slow_replies_accrue_to_suspect_without_any_miss() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        // Establish a ~500 µs baseline.
        for _ in 0..20 {
            assert_eq!(d.on_reply(&mut h, 500.0, true), Verdict::Unchanged);
        }
        // Now the server gray-fails: 10× latency, still answering.
        let mut became_suspect = false;
        for _ in 0..6 {
            if d.on_reply(&mut h, 5_000.0, true) == Verdict::BecameSuspect {
                became_suspect = true;
            }
        }
        assert!(became_suspect, "persistent slowness must suspect");
        // The fast baseline must not have been dragged up to the slow
        // latency (else the server launders its own grayness)...
        assert!(h.baseline_us() < 1_000.0, "{}", h.baseline_us());
        // ...while the expected latency has moved toward it.
        assert!(h.expected_latency_us() > 1_000.0);
        // And the score holds (slow replies keep out-accruing decay).
        for _ in 0..50 {
            d.on_reply(&mut h, 5_000.0, true);
        }
        assert!(h.is_suspect(), "gray server must stay suspect");
        assert!(h.suspicion() >= SUSPECT_ENTER);
    }

    #[test]
    fn fast_jitter_below_floor_is_not_slow() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        // 2 µs baseline, 40 µs spikes: 20× the baseline but under the
        // 200 µs floor — loopback noise, not grayness.
        for _ in 0..10 {
            d.on_reply(&mut h, 2.0, true);
        }
        for _ in 0..100 {
            d.on_reply(&mut h, 40.0, true);
        }
        assert!(!h.is_suspect());
        assert!(h.suspicion() < SUSPECT_EXIT);
    }

    #[test]
    fn infinite_floor_disables_slow_accrual() {
        let mut d = FailureDetector::new();
        let mut h = Health::default();
        d.set_slow_floor_us(f64::INFINITY);
        for _ in 0..10 {
            d.on_reply(&mut h, 500.0, true);
        }
        for _ in 0..100 {
            assert_eq!(d.on_reply(&mut h, 1_000_000.0, true), Verdict::Unchanged);
        }
        assert_eq!(h.suspicion(), 0.0);
    }

    #[test]
    fn score_caps_and_recovery_is_bounded() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        for _ in 0..1000 {
            d.on_miss(&mut h, 100.0);
        }
        assert!(h.suspicion() <= SUSPICION_CAP);
        // From the cap, a bounded number of clean replies recovers:
        // 8 * 0.5^n < 0.5 within 5 decays, then the streak gate.
        let mut verdicts = Vec::new();
        for _ in 0..10 {
            verdicts.push(d.on_reply(&mut h, 100.0, true));
        }
        assert!(verdicts.contains(&Verdict::BecameHealthy));
    }

    #[test]
    fn death_pins_the_score_and_a_fresh_record_forgets() {
        let d = FailureDetector::new();
        let mut h = Health::dead();
        assert_eq!(h.suspicion(), SUSPICION_CAP);
        assert!(h.is_suspect());
        // A rejoin that keeps the record works its way back from the cap.
        assert_eq!(d.on_reply(&mut h, 100.0, true), Verdict::Unchanged);
        assert!(h.is_suspect());
        h = Health::default();
        assert_eq!(h.suspicion(), 0.0);
        assert!(!h.is_suspect());
        assert_eq!(h.expected_latency_us(), 0.0);
    }

    #[test]
    fn failed_attempts_count_toward_the_expected_latency() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        for _ in 0..20 {
            d.on_reply(&mut h, 100.0, true);
        }
        // A server that burns its deadline before failing is expensive to
        // wait on, and the estimate says so; its fast baseline (fed by
        // clean replies only) does not move.
        for _ in 0..8 {
            d.on_miss(&mut h, 50_000.0);
        }
        assert!(h.expected_latency_us() > 10_000.0);
        assert!((h.baseline_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_blocks_flapping() {
        let d = FailureDetector::new();
        let mut h = Health::default();
        // Alternate miss / clean-data forever: the score oscillates
        // between ~2 and ~1+, never below SUSPECT_EXIT, and the streak
        // never reaches 3 — the server must stay Suspect, not flap.
        d.on_miss(&mut h, 100.0);
        let mut promotions = 0;
        for _ in 0..100 {
            if d.on_reply(&mut h, 100.0, true) == Verdict::BecameHealthy {
                promotions += 1;
            }
            d.on_miss(&mut h, 100.0);
        }
        assert_eq!(promotions, 0, "flapping server must not be promoted");
        assert!(h.is_suspect());
    }
}
