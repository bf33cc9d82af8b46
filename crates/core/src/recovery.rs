//! Recovery planning, incremental execution, and reporting.
//!
//! Recovery is a state machine, so that a rebuild never blocks the paging
//! path for its whole length: the engine *plans* the rebuild (enumerating
//! work items against its current maps), then executes it in
//! budget-bounded *steps*, each claiming at most `page_budget` items.
//! [`crate::Pager::periodic_maintenance`] drives one step per tick so
//! paging continues — degraded reads serve requests for not-yet-rebuilt
//! pages — while [`crate::Pager::recover_from_crash`] drains the same
//! machine to completion for callers that want the rebuild done now.
//!
//! A second crash (or timeout) in the middle of a step does not abort the
//! rebuild: the pager marks the new server dead, calls
//! [`RecoveryPlan::replan`], and the next step re-plans around it from the
//! engine's current state. Only genuine data loss — two faults inside one
//! redundancy group — surfaces as [`rmp_types::RmpError::Unrecoverable`].

use std::time::{Duration, Instant};

use rmp_types::metrics::EventKind;
use rmp_types::{Result, RmpError, ServerId};

use crate::engine::{Ctx, Engine};

/// Replans tolerated per plan before recovery gives up; each replan
/// corresponds to another server dying mid-rebuild, so hitting the cap
/// means the cluster is collapsing faster than recovery can run.
const MAX_REPLANS: u32 = 8;

/// Outcome of recovering from one server crash.
///
/// The paper argues crash-recovery overhead matters least of the three
/// reliability costs ("it is affordable to devote a few more seconds
/// whenever a server crashes"); the recovery bench measures these fields
/// to quantify that claim per policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The crashed server.
    pub crashed: ServerId,
    /// Data pages reconstructed (from mirrors or parity equations).
    pub pages_rebuilt: u64,
    /// Parity pages recomputed (after a parity-server crash).
    pub parity_rebuilt: u64,
    /// Page transfers performed during recovery.
    pub transfers: u64,
    /// Wall-clock duration of the recovery.
    pub elapsed: Duration,
}

impl RecoveryReport {
    /// Creates a report for `crashed` with zero counters.
    pub fn new(crashed: ServerId) -> Self {
        RecoveryReport {
            crashed,
            ..RecoveryReport::default()
        }
    }

    /// Total pages rebuilt (data plus parity).
    pub fn total_rebuilt(&self) -> u64 {
        self.pages_rebuilt + self.parity_rebuilt
    }
}

/// Progress made by one bounded recovery step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStep {
    /// Data pages reconstructed in this step.
    pub pages_rebuilt: u64,
    /// Parity pages recomputed in this step.
    pub parity_rebuilt: u64,
    /// Page transfers performed in this step.
    pub transfers: u64,
    /// Work items still planned after this step (0 = recovery complete).
    pub remaining: u64,
}

/// Phase of a [`RecoveryPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// The engine has not yet enumerated the work (or must re-enumerate
    /// it after a mid-recovery fault).
    Planning,
    /// Planned items are being executed step by step.
    Stepping,
    /// Every planned item has been executed.
    Done,
}

/// Incremental recovery of one crashed server: `plan → step(budget)* →
/// done`, with replanning on mid-recovery faults.
#[derive(Debug)]
pub struct RecoveryPlan {
    crashed: ServerId,
    phase: Phase,
    report: RecoveryReport,
    started: Instant,
    replans: u32,
}

impl RecoveryPlan {
    /// Creates a plan for the crash of `crashed`; nothing is enumerated
    /// until the first [`RecoveryPlan::step`].
    pub fn new(crashed: ServerId) -> Self {
        RecoveryPlan {
            crashed,
            phase: Phase::Planning,
            report: RecoveryReport::new(crashed),
            started: Instant::now(),
            replans: 0,
        }
    }

    /// The server this plan recovers from.
    pub fn crashed(&self) -> ServerId {
        self.crashed
    }

    /// `true` once every planned item has been executed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Progress so far (totals across all steps; `elapsed` is filled in
    /// when the plan completes).
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// Discards the remaining item list so the next step re-enumerates it
    /// from the engine's current state — called after another server died
    /// mid-recovery. Returns `false` when the plan has been replanned so
    /// often that the caller should give up instead.
    pub fn replan(&mut self) -> bool {
        self.replans += 1;
        if self.replans > MAX_REPLANS {
            return false;
        }
        if self.phase != Phase::Done {
            self.phase = Phase::Planning;
        }
        true
    }

    /// Advances the recovery by at most `page_budget` pages: plans on the
    /// first call, then executes one bounded engine step. Returns `true`
    /// when recovery completed (possibly within this very step).
    ///
    /// # Errors
    ///
    /// Propagates engine failures. [`RmpError::ServerCrashed`] /
    /// [`RmpError::Timeout`] naming *another* server mean a mid-recovery
    /// fault: the caller should mark it dead, [`RecoveryPlan::replan`],
    /// and step again. [`RmpError::Unrecoverable`] means data is lost.
    pub fn step(
        &mut self,
        engine: &mut dyn Engine,
        ctx: &mut Ctx<'_>,
        page_budget: usize,
    ) -> Result<bool> {
        if self.phase == Phase::Done {
            return Ok(true);
        }
        if page_budget == 0 {
            return Err(RmpError::Config(
                "recovery step budget must be positive".into(),
            ));
        }
        let step_started = Instant::now();
        if self.phase == Phase::Planning {
            let items = engine.plan_recovery(ctx, self.crashed)?;
            ctx.trace(EventKind::RecoveryStep, Some(self.crashed), None, "planned");
            if items == 0 {
                self.finish();
                return Ok(true);
            }
            self.phase = Phase::Stepping;
        }
        let step = engine.recovery_step(ctx, self.crashed, page_budget)?;
        self.report.pages_rebuilt += step.pages_rebuilt;
        self.report.parity_rebuilt += step.parity_rebuilt;
        self.report.transfers += step.transfers;
        if let Some(m) = ctx.metrics.as_deref().map(|m| &m.registry) {
            m.histogram("pager_recovery_step_latency_us")
                .record(step_started.elapsed());
            m.counter("pager_recovery_pages_rebuilt_total")
                .add(step.pages_rebuilt + step.parity_rebuilt);
            m.trace_with(
                EventKind::RecoveryStep,
                Some(self.crashed),
                None,
                "stepped",
                Some(format!(
                    "rebuilt {} pages, {} remaining",
                    step.pages_rebuilt + step.parity_rebuilt,
                    step.remaining
                )),
            );
        }
        if step.remaining == 0 {
            self.finish();
        }
        Ok(self.is_done())
    }

    fn finish(&mut self) {
        self.phase = Phase::Done;
        self.report.elapsed = self.started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let mut r = RecoveryReport::new(ServerId(3));
        r.pages_rebuilt = 5;
        r.parity_rebuilt = 2;
        assert_eq!(r.total_rebuilt(), 7);
        assert_eq!(r.crashed, ServerId(3));
    }

    #[test]
    fn replan_is_bounded() {
        let mut plan = RecoveryPlan::new(ServerId(1));
        for _ in 0..MAX_REPLANS {
            assert!(plan.replan());
        }
        assert!(!plan.replan());
    }

    #[test]
    fn fresh_plan_is_not_done() {
        let plan = RecoveryPlan::new(ServerId(2));
        assert!(!plan.is_done());
        assert_eq!(plan.crashed(), ServerId(2));
        assert_eq!(plan.report().total_rebuilt(), 0);
    }
}
