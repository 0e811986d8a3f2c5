//! Cooperative cancellation for long-running chase/rewrite calls.
//!
//! [`ChaseBudget`](crate::ChaseBudget) caps *logical* work (facts, rounds)
//! but gives no wall-clock guarantee: a single round over a large instance
//! can run arbitrarily long. A [`CancelToken`] adds the missing governor —
//! a shared cancellation flag plus an optional [`Instant`] deadline —
//! threaded alongside the budget into every chase round loop, the parallel
//! trigger-search workers, the work-stealing candidate evaluator, the
//! entailment-cache batch paths, and the countermodel/locality searches.
//!
//! Checks are *cooperative* and placed at round and group-claim
//! granularity, so a cancelled run stops within one chase round (resp. one
//! candidate group) and reports [`ChaseOutcome::Cancelled`](crate::ChaseOutcome::Cancelled)
//! (resp. `RewriteOutcome::Cancelled`) with coherent stats for the work
//! actually done.
//!
//! ## Soundness under cancellation
//!
//! Cancellation can only *truncate* a chase at a round boundary, never add
//! or corrupt facts. A truncated chase keeps the hom-universality property
//! for the facts it did derive, so `Entailment::Proved` stays sound;
//! `Disproved` already requires [`ChaseOutcome::Terminated`](crate::ChaseOutcome::Terminated), which a
//! cancelled run never reports. Every verdict site therefore degrades a
//! cancelled run to `Unknown` at worst — the same discipline as a budget
//! cutoff (see the crate-level "Soundness discipline" notes).
//!
//! A token may also carry a seeded [`FaultPlan`] (test/bench-only; see
//! [`crate::faults`]) which deterministically injects worker panics, budget
//! trips, and deadline expiries at the same cooperative check sites.

use crate::faults::{FaultPlan, FaultSite};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Sentinel for a disabled suspend-check countdown.
const SUSPEND_CHECKS_DISABLED: u64 = u64::MAX;

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    /// Latched by [`CancelToken::request_suspend`], a quantum expiry, or
    /// the countdown below. Unlike `cancelled`, suspension is *recoverable*:
    /// the checkpointing entry points stop at their next resumable boundary
    /// and hand back a checkpoint instead of degrading verdicts.
    suspend: AtomicBool,
    /// Wall-clock quantum: once it has elapsed, `should_suspend` latches
    /// the suspend flag. Armed *lazily* — the countdown starts at the
    /// first `should_suspend` consultation, not at token construction —
    /// so a scheduler slice's resume setup (checkpoint decode, candidate
    /// re-enumeration) does not consume the quantum and every slice
    /// passes at least its first boundary. Without this, a fixed setup
    /// cost larger than the quantum livelocks the scheduler: each slice
    /// suspends at its first boundary with zero work retired.
    suspend_quantum: Option<Duration>,
    /// The armed expiry instant for `suspend_quantum`.
    suspend_armed: OnceLock<Instant>,
    /// Deterministic quantum: suspend after this many `should_suspend`
    /// consultations ([`SUSPEND_CHECKS_DISABLED`] = off). Boundary checks —
    /// not wall time — drive it, so schedules replay identically.
    suspend_after_checks: AtomicU64,
}

impl Default for TokenState {
    fn default() -> Self {
        TokenState {
            cancelled: AtomicBool::new(false),
            deadline: None,
            faults: None,
            suspend: AtomicBool::new(false),
            suspend_quantum: None,
            suspend_armed: OnceLock::new(),
            suspend_after_checks: AtomicU64::new(SUSPEND_CHECKS_DISABLED),
        }
    }
}

/// A shared cancellation flag with an optional wall-clock deadline.
///
/// Cloning is cheap ([`Arc`]) and every clone observes the same flag, so a
/// caller can keep one clone and hand another to a long-running call:
///
/// ```
/// use tgdkit_chase::{chase_governed, CancelToken, ChaseBudget, ChaseVariant};
/// use tgdkit_instance::parse_instance;
/// use tgdkit_logic::{parse_tgds, Schema};
/// let mut schema = Schema::default();
/// let tgds = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
/// let start = parse_instance(&mut schema, "E(a,b)").unwrap();
/// let token = CancelToken::new();
/// token.cancel(); // e.g. from another thread
/// let result = chase_governed(
///     &start,
///     &tgds,
///     ChaseVariant::Restricted,
///     ChaseBudget::default(),
///     &token,
/// );
/// assert!(result.cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<TokenState>,
    /// Per-clone bitmask of [`FaultSite`]s whose *injection* this view
    /// suppresses (cancellation and real governance are never masked).
    masked: u16,
}

impl CancelToken {
    /// A token that never cancels on its own (no deadline, no faults);
    /// [`CancelToken::cancel`] can still be called explicitly. This is what
    /// the ungoverned entry points (`chase`, `entails`, …) run with.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::deadline_at(Instant::now() + timeout)
    }

    /// A token that cancels at the given instant.
    pub fn deadline_at(deadline: Instant) -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                deadline: Some(deadline),
                ..TokenState::default()
            }),
            masked: 0,
        }
    }

    /// A token carrying a scheduling *quantum*: once `quantum` has elapsed,
    /// [`CancelToken::should_suspend`] reports `true` and the checkpointing
    /// entry points suspend at their next resumable boundary (body group or
    /// chase round) with a checkpoint — verdicts already decided stay exact
    /// and the run continues via the matching `*_resume` entry point.
    ///
    /// Unlike [`CancelToken::with_deadline`], quantum expiry neither
    /// cancels nor taints the token: suspension is an OS-scheduler-style
    /// preemption, not a failure.
    ///
    /// The countdown is armed at the **first** [`CancelToken::should_suspend`]
    /// consultation, not here: a resumed slice's setup (checkpoint decode,
    /// candidate re-enumeration) runs before the first boundary and must
    /// not consume the quantum, or a setup cost larger than the quantum
    /// would suspend every slice at its first boundary with zero progress.
    /// Arming at the first boundary guarantees each slice retires at
    /// least one unit of work regardless of how small the quantum is.
    pub fn with_quantum(quantum: Duration) -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                suspend_quantum: Some(quantum),
                ..TokenState::default()
            }),
            masked: 0,
        }
    }

    /// A token that suspends after `checks` consultations of
    /// [`CancelToken::should_suspend`] — a *deterministic* quantum, driven
    /// by cooperative boundary checks instead of wall time, so property
    /// tests can place suspension at arbitrary group/round boundaries and
    /// replay the schedule exactly. `0` suspends at the first boundary.
    pub fn with_suspend_after_checks(checks: u64) -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                suspend_after_checks: AtomicU64::new(checks),
                ..TokenState::default()
            }),
            masked: 0,
        }
    }

    /// A token carrying a seeded [`FaultPlan`] (test/bench-only): the
    /// governed code paths consult the plan at each cooperative check site
    /// and inject the scheduled faults. See [`crate::faults`].
    #[cfg(any(test, feature = "tgdkit-faults"))]
    pub fn with_faults(plan: FaultPlan) -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                faults: Some(plan),
                ..TokenState::default()
            }),
            masked: 0,
        }
    }

    /// A view of this token that shares its cancellation state but ignores
    /// *injected* faults at `site`. Real governance (deadlines, budgets,
    /// the memory accountant) is unaffected — only the test-only
    /// [`FaultPlan`] is filtered, and only for the given site.
    ///
    /// The batch/rewrite evaluators use this to confine injected
    /// [`FaultSite::MemBudgetTrip`]s to their suspension sites (the group
    /// boundaries): a spurious trip *inside* a group's entailment chase
    /// would degrade verdicts that no resume could recover, which is the
    /// job of [`FaultSite::BudgetTrip`], not of the resumable-trip site.
    pub fn masking_fault(&self, site: FaultSite) -> CancelToken {
        CancelToken {
            state: Arc::clone(&self.state),
            masked: self.masked | (1u16 << site as u8),
        }
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Requests suspension: the checkpointing entry points stop at their
    /// next resumable boundary and return a checkpoint. Every clone of
    /// this token observes it. A no-op for the non-checkpointing entry
    /// points, which have no resumable boundaries to stop at.
    pub fn request_suspend(&self) {
        self.state.suspend.store(true, Ordering::Relaxed);
    }

    /// `true` once suspension is due — explicitly
    /// ([`CancelToken::request_suspend`]), by quantum expiry
    /// ([`CancelToken::with_quantum`]), or because the deterministic
    /// check countdown ([`CancelToken::with_suspend_after_checks`]) ran
    /// out. Sticky, like cancellation — but unlike cancellation it does
    /// **not** taint the token: a suspended run's verdicts are exact and
    /// its checkpoint resumes to the byte-identical uninterrupted result.
    pub fn should_suspend(&self) -> bool {
        if self.state.suspend.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(quantum) = self.state.suspend_quantum {
            // Armed on first consultation (see `with_quantum`): the clock
            // starts at the first boundary, so slice setup is free and a
            // fresh slice always passes its first boundary check when the
            // quantum is nonzero.
            let deadline = *self
                .state
                .suspend_armed
                .get_or_init(|| Instant::now() + quantum);
            if Instant::now() >= deadline {
                self.request_suspend();
                return true;
            }
        }
        let counter = &self.state.suspend_after_checks;
        if counter.load(Ordering::Relaxed) != SUSPEND_CHECKS_DISABLED {
            let prev = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c != SUSPEND_CHECKS_DISABLED && c > 0).then(|| c - 1)
            });
            if prev == Err(0) {
                self.request_suspend();
                return true;
            }
        }
        false
    }

    /// `true` once the token is cancelled — explicitly, by deadline expiry,
    /// or by an injected [`FaultSite::DeadlineExpire`]. Deadline expiry is
    /// sticky: once observed, the flag is set so later checks are a single
    /// atomic load.
    pub fn is_cancelled(&self) -> bool {
        if self.state.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.state.deadline {
            if Instant::now() >= deadline {
                self.cancel();
                return true;
            }
        }
        if self.fault(FaultSite::DeadlineExpire) {
            self.cancel();
            return true;
        }
        false
    }

    /// Consults the fault plan (if any) at the given injection site. Always
    /// `false` for tokens without a plan — the fault-free fast path is one
    /// `Option` check.
    pub fn fault(&self, site: FaultSite) -> bool {
        if self.masked & (1u16 << site as u8) != 0 {
            return false;
        }
        match &self.state.faults {
            None => false,
            Some(plan) => plan.should_fault(site),
        }
    }

    /// `true` when the token carries a fault plan.
    pub fn has_faults(&self) -> bool {
        self.state.faults.is_some()
    }

    /// `true` when results computed under this token may be degraded
    /// (cancelled or fault-injected) and so must not be persisted into
    /// cross-run caches keyed only by budget.
    pub fn is_tainted(&self) -> bool {
        self.has_faults() || self.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(!token.has_faults());
        assert!(!token.is_tainted());
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.is_tainted());
    }

    #[test]
    fn deadline_in_the_past_cancels() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.is_cancelled());
    }

    #[test]
    fn generous_deadline_does_not_cancel() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn fault_plan_marks_token_tainted() {
        let token = CancelToken::with_faults(FaultPlan::seeded(7));
        assert!(token.has_faults());
        assert!(token.is_tainted());
    }

    #[test]
    fn masking_filters_one_site_and_shares_cancellation() {
        let token = CancelToken::with_faults(FaultPlan::always(FaultSite::MemBudgetTrip));
        let masked = token.masking_fault(FaultSite::MemBudgetTrip);
        assert!(token.fault(FaultSite::MemBudgetTrip));
        assert!(!masked.fault(FaultSite::MemBudgetTrip));
        // Other sites pass through (period 0 in `always`, but the plan is
        // still consulted), and the view stays tainted.
        assert!(!masked.fault(FaultSite::BudgetTrip));
        assert!(masked.has_faults() && masked.is_tainted());
        masked.cancel();
        assert!(token.is_cancelled(), "masked view shares the cancel flag");
    }

    #[test]
    fn injected_deadline_expiry_is_sticky() {
        let token = CancelToken::with_faults(FaultPlan::only(0, FaultSite::DeadlineExpire, 1));
        assert!(token.is_cancelled());
        assert!(token.is_cancelled());
    }

    #[test]
    fn suspend_request_is_sticky_and_shared_but_not_tainting() {
        let token = CancelToken::new();
        assert!(!token.should_suspend());
        let clone = token.clone();
        token.request_suspend();
        assert!(clone.should_suspend());
        assert!(token.should_suspend(), "suspension is sticky");
        assert!(!token.is_cancelled(), "suspension is not cancellation");
        assert!(!token.is_tainted(), "suspension does not taint verdicts");
    }

    #[test]
    fn expired_quantum_suspends_without_cancelling() {
        let token = CancelToken::with_quantum(Duration::ZERO);
        assert!(token.should_suspend());
        assert!(!token.is_cancelled());
        let generous = CancelToken::with_quantum(Duration::from_secs(3600));
        assert!(!generous.should_suspend());
    }

    #[test]
    fn check_countdown_suspends_at_the_chosen_boundary() {
        let token = CancelToken::with_suspend_after_checks(2);
        assert!(!token.should_suspend());
        assert!(!token.should_suspend());
        assert!(token.should_suspend(), "third boundary suspends");
        assert!(token.should_suspend(), "and stays suspended");
        let immediate = CancelToken::with_suspend_after_checks(0);
        assert!(immediate.should_suspend(), "0 suspends at first boundary");
        let plain = CancelToken::new();
        for _ in 0..64 {
            assert!(!plain.should_suspend(), "disabled countdown never fires");
        }
    }
}
