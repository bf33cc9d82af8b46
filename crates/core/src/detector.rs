//! Accrual failure detection — gray servers scored, not just crashed ones.
//!
//! A server that answers every call at 10× its usual latency never trips
//! a binary detector, and holds the pagein tail hostage. Each server
//! therefore has a phi-accrual-style **suspicion score** (after
//! Hayashibara's φ detector): a deadline miss adds [`MISS_WEIGHT`]; a
//! reply slower than [`SLOW_MULT`]× the server's *fast baseline* (an EWMA
//! fed only by non-slow replies, so a slow server cannot launder its
//! lateness) and than [`DEFAULT_SLOW_FLOOR_US`] adds [`SLOW_WEIGHT`]; any
//! other reply halves it and, when it carried page data, lengthens the
//! clean streak (control chatter proves nothing about the paging path).
//!
//! That is all this module holds. [`Health::suspects`] and
//! [`Health::clears`] are the two edges of the hysteresis band; the
//! standing they move a server between — Healthy, Suspect, Dead — and
//! what looks **gray** ([`GRAY_SUSPICION`] and an expected reply above the
//! best other server's tail) are the pool's.
//!
//! # Examples
//!
//! ```
//! use rmp_core::detector::Health;
//!
//! let mut s = Health::default();
//! for _ in 0..20 {
//!     s.on_reply(100.0, true); // a ~100 µs baseline
//! }
//! s.on_miss(100.0); // one miss is strong evidence
//! assert!(s.suspects());
//! for _ in 0..3 {
//!     assert!(!s.clears());
//!     s.on_reply(100.0, true);
//! }
//! assert!(s.clears()); // decayed, and three clean data replies in a row
//! ```

/// Suspicion score at which a Healthy server becomes Suspect.
pub const SUSPECT_ENTER: f64 = 2.0;

/// Suspicion score below which a Suspect server *may* recover (with
/// [`CLEAN_DATA_CALLS`]); the gap to [`SUSPECT_ENTER`] is the hysteresis.
pub const SUSPECT_EXIT: f64 = 0.5;

/// Suspicion score at which a server expected to answer slowly looks
/// gray; above [`SUSPECT_ENTER`], so one miss alone makes none gray.
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
/// bounded number of clean replies; a dead server is pinned here.
pub const SUSPICION_CAP: f64 = 8.0;

/// A reply is "slow" when it exceeds this multiple of the server's fast
/// baseline (and [`DEFAULT_SLOW_FLOOR_US`]).
pub const SLOW_MULT: f64 = 4.0;

/// Floor below which replies are never counted slow, µs: microsecond
/// jitter on a loopback is noise, not grayness.
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

/// One server's evidence: all zeroes (the `Default`) for a server nothing
/// is known about.
#[derive(Clone, Debug, Default)]
pub struct Health {
    /// The accrued suspicion score.
    pub(crate) suspicion: f64,
    /// EWMA over the latency of *every* attempt, failed ones included, µs
    /// — what the next call is expected to cost. 0 until the first sample.
    expected_us: f64,
    /// EWMA over non-slow reply latencies, µs — the server's fast
    /// baseline that slow detection compares against.
    baseline_us: f64,
    /// Whether a non-slow reply has set the baseline — on a manual clock
    /// a fast reply takes no time at all.
    baselined: bool,
    /// Consecutive clean data-path replies since the last fault or the
    /// last promotion.
    pub(crate) clean_data_streak: u32,
}

impl Health {
    /// Current suspicion score (0 when never sampled).
    pub fn suspicion(&self) -> f64 {
        self.suspicion
    }

    /// Whether the evidence suspects the server: the score has reached
    /// [`SUSPECT_ENTER`].
    pub fn suspects(&self) -> bool {
        self.suspicion >= SUSPECT_ENTER
    }

    /// Whether the evidence clears a suspected server: the score has
    /// decayed below [`SUSPECT_EXIT`] and [`CLEAN_DATA_CALLS`] clean
    /// data-path replies came in a row.
    pub fn clears(&self) -> bool {
        self.suspicion < SUSPECT_EXIT && self.clean_data_streak >= CLEAN_DATA_CALLS
    }

    /// What the next call is expected to cost, µs (0 when never sampled).
    pub fn expected_latency_us(&self) -> f64 {
        self.expected_us
    }

    /// The fast baseline latency, µs; `None` before a non-slow reply.
    pub fn baseline_us(&self) -> Option<f64> {
        self.baselined.then_some(self.baseline_us)
    }

    /// Feeds one successful reply: `latency_us` spent, `data_path` when
    /// the call carried page data, not stats or load chatter.
    pub fn on_reply(&mut self, latency_us: f64, data_path: bool) {
        let floor = (SLOW_MULT * self.baseline_us).max(DEFAULT_SLOW_FLOOR_US);
        let slow = self.baselined && latency_us > floor;
        ewma(&mut self.expected_us, latency_us);
        if slow {
            self.suspicion = (self.suspicion + SLOW_WEIGHT).min(SUSPICION_CAP);
            // A slow reply is still correct data: the streak survives, but
            // does not grow — promotion needs *fast* clean evidence.
        } else {
            ewma(&mut self.baseline_us, latency_us);
            self.baselined = true;
            self.suspicion *= CLEAN_DECAY;
            if data_path {
                self.clean_data_streak += 1;
            }
        }
    }

    /// Feeds one deadline miss or transport failure that took
    /// `latency_us` to surface — time the expected latency counts too.
    pub fn on_miss(&mut self, latency_us: f64) {
        ewma(&mut self.expected_us, latency_us);
        self.suspicion = (self.suspicion + MISS_WEIGHT).min(SUSPICION_CAP);
        self.clean_data_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server after `misses` misses and then `replies` of `latency_us`.
    fn after(misses: usize, replies: usize, latency_us: f64, data: bool) -> Health {
        let mut h = Health::default();
        (0..misses).for_each(|_| h.on_miss(100.0));
        (0..replies).for_each(|_| h.on_reply(latency_us, data));
        h
    }

    #[test]
    fn one_miss_suspects_immediately() {
        assert!(after(1, 0, 0.0, true).suspects());
    }

    #[test]
    fn clean_data_replies_recover_a_suspect() {
        // Two: the score has decayed below the exit, but the streak is short.
        assert!(!after(1, 2, 100.0, true).clears());
        assert!(after(1, 3, 100.0, true).clears());
    }

    #[test]
    fn control_replies_do_not_recover_a_suspect() {
        let mut h = after(1, 20, 100.0, false);
        assert!(!h.clears(), "stats chatter must not clear");
        (0..3).for_each(|_| h.on_reply(100.0, true));
        assert!(h.clears());
    }

    #[test]
    fn a_miss_resets_the_clean_streak() {
        let mut h = after(1, 2, 100.0, true);
        h.on_miss(100.0);
        (0..2).for_each(|_| h.on_reply(100.0, true));
        assert!(
            h.clean_data_streak == 2 && !h.clears(),
            "the streak restarts"
        );
        h.on_reply(100.0, true);
        assert!(h.clears());
    }

    #[test]
    fn slow_replies_accrue_to_suspect_without_any_miss() {
        let mut h = after(0, 20, 500.0, true);
        assert!(!h.suspects());
        // Now the server gray-fails: 10× latency, still answering.
        (0..6).for_each(|_| h.on_reply(5_000.0, true));
        assert!(h.suspects(), "persistent slowness must suspect");
        // The fast baseline was not dragged up to the slow latency (else
        // the server launders its grayness); the expected latency was.
        assert!(h.baseline_us() < Some(1_000.0), "{:?}", h.baseline_us());
        assert!(h.expected_latency_us() > 1_000.0);
        (0..50).for_each(|_| h.on_reply(5_000.0, true));
        assert!(h.suspects() && !h.clears(), "gray server must stay suspect");
    }

    #[test]
    fn fast_jitter_below_floor_is_not_slow() {
        // 2 µs baseline, 40 µs spikes: 20× the baseline but under the
        // 200 µs floor — loopback noise, not grayness.
        let mut h = after(0, 10, 2.0, true);
        (0..100).for_each(|_| h.on_reply(40.0, true));
        assert!(h.suspicion() < SUSPECT_EXIT);
    }

    #[test]
    fn a_reply_that_takes_no_time_sets_a_baseline() {
        // On a manual clock a fast reply takes no time at all; one past
        // the floor is then slow.
        let mut h = after(0, 1, 0.0, true);
        assert_eq!(h.baseline_us(), Some(0.0));
        (0..3).for_each(|_| h.on_reply(3_000.0, true));
        assert!(h.suspects(), "{}", h.suspicion());
    }

    #[test]
    fn score_caps_and_recovery_is_bounded() {
        let mut h = after(1000, 0, 0.0, true);
        assert!(h.suspicion() <= SUSPICION_CAP);
        // 8 * 0.5^n < 0.5 within 5 decays, then the streak gate.
        assert!((0..10).any(|_| (h.on_reply(100.0, true), h.clears()).1));
    }

    #[test]
    fn failed_attempts_count_toward_the_expected_latency() {
        // A server that burns its deadline before failing is expensive to
        // wait on; its fast baseline, fed by clean replies, does not move.
        let mut h = after(0, 20, 100.0, true);
        (0..8).for_each(|_| h.on_miss(50_000.0));
        assert!(h.expected_latency_us() > 10_000.0);
        assert_eq!(h.baseline_us(), Some(100.0));
    }

    #[test]
    fn hysteresis_blocks_flapping() {
        // Alternate miss / clean data: the score never decays below the
        // exit and the streak never reaches 3 — never cleared.
        let mut h = after(1, 0, 0.0, true);
        for _ in 0..100 {
            h.on_reply(100.0, true);
            assert!(!h.clears(), "flapping server must not be cleared");
            h.on_miss(100.0);
        }
    }
}
