//! Cooperative budgets for the diagnosis engines.
//!
//! The paper's SAT engines are naturally bounded — a conflict budget turns
//! CDCL into an anytime procedure — but the simulation-side engines and
//! the validity screen had no preemption at all, so a campaign instance
//! could run away on a pathological circuit. This module is the shared
//! vocabulary that closes the gap: a [`Budget`] bundles the three limits a
//! caller can impose, and a [`BudgetMeter`] is the cheap checkpointed
//! counter the hot loops consult.
//!
//! # Determinism contract
//!
//! The three limits have very different determinism properties, and the
//! whole design hinges on keeping them apart:
//!
//! * **`work`** counts *engine-defined deterministic units* — tests traced
//!   by BSIM, solver conflicts in the SAT engines and in COV's covering
//!   phase, candidate sets screened by the validity screen. Work
//!   truncation points are a pure function of the input, so a
//!   work-truncated run is **bit-identical for every worker count**: the
//!   drift suites extend their contract over budgeted runs.
//! * **`conflicts`** is the classic SAT conflict budget (also
//!   deterministic — the CDCL search is schedule-independent in this
//!   workspace). It differs from `work` only in unit: it always means
//!   conflicts, even for engines whose work unit is something else.
//! * **`deadline_ms`** is a *wall-clock* deadline. It is inherently
//!   nondeterministic and therefore opt-in, quarantined exactly like the
//!   `wall_ms` report column: never set it in a flow whose output must be
//!   reproducible.
//!
//! Engines report exhaustion through `complete = false` plus a
//! [`Truncation`] reason on their result structs, which the campaign layer
//! surfaces as `InstanceStatus::Preempted`.
//!
//! # Examples
//!
//! ```
//! use gatediag_core::budget::{Budget, Truncation};
//!
//! let budget = Budget {
//!     work: Some(2),
//!     ..Budget::default()
//! };
//! let mut meter = budget.meter();
//! assert!(meter.charge(1));
//! assert!(meter.charge(1));
//! assert!(!meter.charge(1), "third unit exceeds the budget");
//! assert_eq!(meter.truncation(), Some(Truncation::Work));
//! ```

use std::time::{Duration, Instant};

/// How often a [`BudgetMeter`] actually polls the wall clock: one check
/// per this many [`BudgetMeter::charge`]/[`BudgetMeter::checkpoint`]
/// calls. Polling is the only non-free part of a checkpoint, so hot loops
/// can charge per node without measurable overhead.
const DEADLINE_POLL_MASK: u32 = 0xFF;

/// Why an engine stopped before exhausting its search space.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Truncation {
    /// The deterministic work budget ran out ([`Budget::work`]).
    Work,
    /// The wall-clock deadline passed ([`Budget::deadline_ms`]).
    Deadline,
    /// The SAT conflict budget ran out ([`Budget::conflicts`]).
    Conflicts,
    /// The enumeration cap (`max_solutions`) was reached — not a budget,
    /// but reported through the same channel so callers see one reason.
    Solutions,
    /// The discriminating-test generation phase ran out of budget (work,
    /// conflicts or deadline) before resolving every candidate.
    TestGen,
}

impl Truncation {
    /// Stable serialisation token.
    pub fn name(self) -> &'static str {
        match self {
            Truncation::Work => "work",
            Truncation::Deadline => "deadline",
            Truncation::Conflicts => "conflicts",
            Truncation::Solutions => "solutions",
            Truncation::TestGen => "testgen",
        }
    }

    /// `true` for the budget-imposed reasons (everything except the
    /// enumeration cap) — the ones the campaign records as `preempted`.
    pub fn is_preemption(self) -> bool {
        !matches!(self, Truncation::Solutions)
    }

    /// Merges the truncation reasons of two phases of a composite run:
    /// a budget preemption from *either* phase outranks the enumeration
    /// cap (`Solutions`), so a tripped budget guard can never be masked
    /// into an `ok`-looking record; ties resolve to the earlier phase.
    pub fn merge(first: Option<Truncation>, second: Option<Truncation>) -> Option<Truncation> {
        [first, second]
            .iter()
            .flatten()
            .copied()
            .find(|t| t.is_preemption())
            .or(first)
            .or(second)
    }
}

/// A bundle of cooperative limits for one engine run.
///
/// All limits default to `None` (unlimited); [`Budget::default`] is the
/// zero-overhead no-op budget every option struct starts with. See the
/// [module docs](self) for the determinism contract of each field.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Budget {
    /// Deterministic work budget, in engine-defined units.
    pub work: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from [`Budget::anchor`]
    /// (or from meter creation when unanchored). Nondeterministic; opt-in.
    pub deadline_ms: Option<u64>,
    /// SAT conflict budget, threaded to every solver the run creates.
    pub conflicts: Option<u64>,
    /// Anchor instant for the deadline. Composite engines (`auto`, COV)
    /// set this once at entry so all phases race the *same* deadline
    /// instead of each phase re-starting the clock.
    pub anchor: Option<Instant>,
}

impl Budget {
    /// This budget anchored at `at` (used by composite engines so their
    /// phases share one deadline); a no-op if already anchored.
    pub fn anchored(mut self, at: Instant) -> Budget {
        self.anchor.get_or_insert(at);
        self
    }

    /// The absolute deadline instant, if any (anchor + `deadline_ms`).
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| self.anchor.unwrap_or_else(Instant::now) + Duration::from_millis(ms))
    }

    /// The conflict limit a SAT engine should install, together with the
    /// [`Truncation`] reason to report when the solver gives up: the SAT
    /// engines' work unit *is* conflicts, so `work` and `conflicts` merge
    /// into one solver budget, with `Work` reported when the work limit is
    /// the binding one.
    pub fn conflict_limit(&self) -> (Option<u64>, Truncation) {
        match (self.work, self.conflicts) {
            (Some(w), Some(c)) if w <= c => (Some(w), Truncation::Work),
            (Some(w), None) => (Some(w), Truncation::Work),
            (_, c @ Some(_)) => (c, Truncation::Conflicts),
            (None, None) => (None, Truncation::Conflicts),
        }
    }

    /// Starts a [`BudgetMeter`] for this budget. The deadline is resolved
    /// to an absolute instant here, so sibling phases race the same
    /// wall-clock point.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            work_limit: self.work.unwrap_or(u64::MAX),
            deadline: self.deadline_instant(),
            work_used: 0,
            tick: 0,
            truncation: None,
        }
    }
}

/// A cheap checkpointed counter over one [`Budget`].
///
/// `charge` is an add-and-compare on the deterministic work counter; the
/// wall clock is polled only every 256 calls (`DEADLINE_POLL_MASK`, and
/// only when a deadline is set at all), so metering a hot loop per node is
/// effectively free. Meters are plain values, each counting the work of
/// one run.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    work_limit: u64,
    deadline: Option<Instant>,
    work_used: u64,
    tick: u32,
    truncation: Option<Truncation>,
}

impl BudgetMeter {
    /// Charges `units` of deterministic work (plus an occasional deadline
    /// poll). Returns `false` once any limit is exhausted — the caller
    /// should stop at the next safe point.
    #[inline]
    pub fn charge(&mut self, units: u64) -> bool {
        if self.truncation.is_some() {
            return false;
        }
        gatediag_obs::count("budget.charged", units);
        self.work_used = self.work_used.saturating_add(units);
        if self.work_used > self.work_limit {
            self.truncation = Some(Truncation::Work);
            return false;
        }
        self.checkpoint()
    }

    /// A cooperative checkpoint: polls the deadline every few calls.
    /// Returns `false` once the meter is exhausted.
    #[inline]
    pub fn checkpoint(&mut self) -> bool {
        if self.truncation.is_some() {
            return false;
        }
        if let Some(deadline) = self.deadline {
            self.tick = self.tick.wrapping_add(1);
            if self.tick & DEADLINE_POLL_MASK == 0 && Instant::now() >= deadline {
                self.truncation = Some(Truncation::Deadline);
                return false;
            }
        }
        true
    }

    /// Work units still chargeable (`u64::MAX` when unlimited).
    pub fn remaining_work(&self) -> u64 {
        self.work_limit.saturating_sub(self.work_used)
    }

    /// Work units charged so far.
    pub fn work_used(&self) -> u64 {
        self.work_used
    }

    /// The absolute deadline this meter races, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Why the meter stopped, if it has.
    pub fn truncation(&self) -> Option<Truncation> {
        self.truncation
    }

    /// Records an externally observed truncation (e.g. a solver that gave
    /// up on its conflict budget); the first reason recorded wins.
    pub fn note(&mut self, reason: Truncation) {
        self.truncation.get_or_insert(reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let mut meter = Budget::default().meter();
        for _ in 0..10_000 {
            assert!(meter.charge(1));
        }
        assert_eq!(meter.truncation(), None);
        assert_eq!(meter.remaining_work(), u64::MAX - 10_000);
    }

    #[test]
    fn work_budget_trips_exactly_at_the_limit() {
        let budget = Budget {
            work: Some(3),
            ..Budget::default()
        };
        let mut meter = budget.meter();
        assert!(meter.charge(3));
        assert!(!meter.charge(1));
        assert_eq!(meter.truncation(), Some(Truncation::Work));
        // Once stopped, stays stopped.
        assert!(!meter.charge(0));
        assert!(!meter.checkpoint());
    }

    #[test]
    fn checkpoint_polls_only_every_few_ticks() {
        // An already-expired deadline is detected by the checkpoint path
        // too, just not necessarily on the first call.
        let budget = Budget {
            deadline_ms: Some(0),
            ..Budget::default()
        }
        .anchored(Instant::now() - Duration::from_secs(1));
        let mut meter = budget.meter();
        let mut stopped = false;
        for _ in 0..=(DEADLINE_POLL_MASK + 1) {
            if !meter.checkpoint() {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "expired deadline never detected");
        assert_eq!(meter.truncation(), Some(Truncation::Deadline));
    }

    #[test]
    fn conflict_limit_merges_work_and_conflicts() {
        let b = |work, conflicts| Budget {
            work,
            conflicts,
            ..Budget::default()
        };
        assert_eq!(
            b(None, None).conflict_limit(),
            (None, Truncation::Conflicts)
        );
        assert_eq!(
            b(Some(5), None).conflict_limit(),
            (Some(5), Truncation::Work)
        );
        assert_eq!(
            b(None, Some(7)).conflict_limit(),
            (Some(7), Truncation::Conflicts)
        );
        assert_eq!(
            b(Some(5), Some(7)).conflict_limit(),
            (Some(5), Truncation::Work)
        );
        assert_eq!(
            b(Some(9), Some(7)).conflict_limit(),
            (Some(7), Truncation::Conflicts)
        );
    }

    #[test]
    fn note_keeps_the_first_reason() {
        let mut meter = Budget::default().meter();
        meter.note(Truncation::Conflicts);
        meter.note(Truncation::Deadline);
        assert_eq!(meter.truncation(), Some(Truncation::Conflicts));
    }

    #[test]
    fn truncation_names_are_stable() {
        assert_eq!(Truncation::Work.name(), "work");
        assert_eq!(Truncation::Deadline.name(), "deadline");
        assert_eq!(Truncation::Conflicts.name(), "conflicts");
        assert_eq!(Truncation::Solutions.name(), "solutions");
        assert_eq!(Truncation::TestGen.name(), "testgen");
        assert!(Truncation::Work.is_preemption());
        assert!(Truncation::TestGen.is_preemption());
        assert!(!Truncation::Solutions.is_preemption());
    }
}
