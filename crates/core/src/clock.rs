//! The one clock every decision about a server's standing reads —
//! latencies, the §5 service-time mean, a rung's due time, the call
//! budget and the ladder's wait. [`Clock::Real`], the default, is the
//! wall clock; a [`Clock::Manual`] moves only when advanced (by an
//! in-process fault's delay, or by the ladder where the real one would
//! sleep), so a run on it is a function of its inputs. I/O deadlines
//! stay on the wall clock: a socket never waits forever or gives up at
//! once for it.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use rmp_core::Clock;
//!
//! let clock = Clock::manual();
//! let then = clock.now();
//! clock.sleep(Duration::from_millis(20)); // returns at once
//! assert_eq!(clock.now() - then, Duration::from_millis(20));
//! ```

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A source of "now" for the pool's decisions; clones share the time.
#[derive(Clone, Debug, Default)]
pub enum Clock {
    /// The wall clock: [`Instant::now`], and sleeps that sleep.
    #[default]
    Real,
    /// Time that moves only when advanced.
    Manual(Arc<Manual>),
}

/// The time of a [`Clock::Manual`]: where it started, and each advance —
/// the wall-clock instant it was made at and how far the clock then
/// stood — the last `MOVES_KEPT` of them, enough to read the stamps of
/// any frame still owed a reply.
#[derive(Debug)]
pub struct Manual {
    base: Instant,
    moves: Mutex<Vec<(Instant, Duration)>>,
}

/// Advances a manual clock remembers.
const MOVES_KEPT: usize = 1024;

impl Clock {
    /// A manual clock standing at the wall clock's now.
    pub fn manual() -> Clock {
        let base = Instant::now();
        let moves = Mutex::new(vec![(base, Duration::ZERO)]);
        Clock::Manual(Arc::new(Manual { base, moves }))
    }

    /// The time now.
    pub fn now(&self) -> Instant {
        self.read(Instant::now())
    }

    /// Waits `by`: sleeps on the wall clock, advances a manual one.
    pub fn sleep(&self, by: Duration) {
        let Clock::Manual(manual) = self else {
            return std::thread::sleep(by);
        };
        let mut moves = manual.moves.lock().unwrap_or_else(PoisonError::into_inner);
        let stood = moves.last().map_or(Duration::ZERO, |&(_, stood)| stood);
        if moves.len() == MOVES_KEPT {
            // The oldest kept move then stands for every earlier stamp.
            moves.drain(..MOVES_KEPT / 2);
            moves[0].0 = manual.base;
        }
        moves.push((Instant::now(), stood + by));
    }

    /// This clock's reading at `stamp`, a wall-clock instant — one a
    /// transport put on a frame as it left or arrived, say: `stamp`
    /// itself on the wall clock; on a manual one, where it stood then.
    pub(crate) fn read(&self, stamp: Instant) -> Instant {
        let Clock::Manual(manual) = self else {
            return stamp;
        };
        let moves = manual.moves.lock().unwrap_or_else(PoisonError::into_inner);
        let made = moves.partition_point(|&(at, _)| at <= stamp).max(1);
        manual.base + moves[made - 1].1
    }

    /// The time between the wall-clock stamps `from` and `to`.
    pub(crate) fn between(&self, from: Instant, to: Instant) -> Duration {
        self.read(to).saturating_duration_since(self.read(from))
    }
}
