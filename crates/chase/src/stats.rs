//! Observability for the chase engine.
//!
//! Every chase entry point ([`crate::chase()`], [`crate::chase_with_provenance`],
//! [`crate::core_chase`], [`crate::chase::chase_with_egds`]) populates a
//! [`ChaseStats`] on its [`crate::ChaseResult`], so regressions in the hot
//! loop — extra index rebuilds, runaway trigger counts, a serial trigger
//! phase where a parallel one was expected — are observable from tests and
//! benches instead of only from wall time.

use std::time::Duration;

/// Counters and phase timings for one chase run.
///
/// Populated by every chase entry point. For [`crate::chase::chase_with_egds`] the
/// counters accumulate over all inner tgd-chase passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Chase rounds executed (mirrors [`crate::ChaseResult::rounds`]).
    pub rounds: usize,
    /// Live triggers found by the (semi-naive) trigger search, summed over
    /// rounds; deduplicated per round, so a trigger re-found in a later
    /// round counts again. Dead full-tgd triggers (every head fact already
    /// present) and full-tgd triggers repeating an earlier head image of
    /// the same round are not counted: they could never fire.
    pub triggers_found: usize,
    /// Triggers that actually fired (restricted-variant satisfied triggers
    /// and oblivious repeats are found but not fired).
    pub triggers_fired: usize,
    /// Facts added across all rounds.
    pub facts_added: usize,
    /// Rounds that grew the run's index. The index layers over the chased
    /// instance, so each fired fact is appended to it in place by its
    /// insert ([`tgdkit_hom::InstanceIndex::insert`]); this counts the
    /// rounds that added at least one fact, not the inserts.
    pub index_extends: usize,
    /// Full index builds over an existing instance
    /// ([`tgdkit_hom::InstanceIndex::owned`], or
    /// [`tgdkit_hom::InstanceIndex::with_tail`] on a resume): one per chase
    /// pass, whether a fresh run, a resumed segment or an incremental fold;
    /// more would mean the incremental path regressed.
    pub index_rebuilds: usize,
    /// Rounds whose trigger search ran on multiple worker threads. The
    /// search runs on the calling thread, so the chase leaves this at 0;
    /// the field stays so stats consumers keep one field set.
    pub parallel_rounds: usize,
    /// Chase/entailment results served from a memoization layer instead of
    /// being recomputed (witness-chase memo in the locality checkers,
    /// [`crate::EntailCache`] in batch entailment).
    pub cache_hits: usize,
    /// Cache lookups that missed and forced a recomputation.
    pub cache_misses: usize,
    /// Worker panics contained by `catch_unwind` (trigger-search or
    /// evaluator workers; real or injected via [`crate::faults`]). Any
    /// nonzero count demotes the affected run to
    /// [`crate::ChaseOutcome::Cancelled`] — a fixpoint can no longer be
    /// certified — but never unwinds the caller.
    pub panics_contained: usize,
    /// High-water mark of the instance arena as reported to the
    /// [`crate::MemoryAccountant`] at round boundaries (bytes; `absorb`
    /// takes the max, not the sum, since passes reuse the arena).
    pub mem_peak_bytes: usize,
    /// Memory-budget trips: rounds stopped because the arena crossed
    /// [`crate::ChaseBudget::max_bytes`] (real or injected via
    /// [`crate::FaultSite::MemBudgetTrip`]).
    pub mem_trips: usize,
    /// Times this run was resumed from a [`crate::ChaseCheckpoint`].
    pub resumes: usize,
    /// Wall time spent finding triggers.
    pub trigger_search_time: Duration,
    /// Wall time spent checking and firing triggers, the inserts that grow
    /// the instance and its index included.
    pub apply_time: Duration,
    /// Total wall time of the chase pass.
    pub total_time: Duration,
}

impl ChaseStats {
    /// Folds another pass's stats into `self` (used by the egd chase, whose
    /// runs interleave several tgd chase passes).
    pub fn absorb(&mut self, other: &ChaseStats) {
        self.rounds += other.rounds;
        self.triggers_found += other.triggers_found;
        self.triggers_fired += other.triggers_fired;
        self.facts_added += other.facts_added;
        self.index_extends += other.index_extends;
        self.index_rebuilds += other.index_rebuilds;
        self.parallel_rounds += other.parallel_rounds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.panics_contained += other.panics_contained;
        self.mem_peak_bytes = self.mem_peak_bytes.max(other.mem_peak_bytes);
        self.mem_trips += other.mem_trips;
        self.resumes += other.resumes;
        self.trigger_search_time += other.trigger_search_time;
        self.apply_time += other.apply_time;
        self.total_time += other.total_time;
    }

    /// A copy with the run-shape-dependent fields zeroed: wall times (never
    /// reproducible), `index_rebuilds` (a resumed run honestly rebuilds its
    /// index once per segment), and the trip/resume bookkeeping itself.
    /// Everything left — rounds, trigger/fact/cache counters, memory peak —
    /// must be identical between an uninterrupted run and any
    /// trip→checkpoint→resume chain over it; the checkpoint proptests
    /// compare `normalized()` stats.
    pub fn normalized(&self) -> ChaseStats {
        ChaseStats {
            index_rebuilds: 0,
            mem_trips: 0,
            resumes: 0,
            trigger_search_time: Duration::ZERO,
            apply_time: Duration::ZERO,
            total_time: Duration::ZERO,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = ChaseStats {
            rounds: 2,
            triggers_found: 10,
            triggers_fired: 4,
            facts_added: 6,
            index_extends: 3,
            index_rebuilds: 1,
            parallel_rounds: 1,
            cache_hits: 5,
            cache_misses: 3,
            panics_contained: 1,
            mem_peak_bytes: 100,
            mem_trips: 1,
            resumes: 1,
            trigger_search_time: Duration::from_millis(5),
            apply_time: Duration::from_millis(7),
            total_time: Duration::from_millis(20),
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.triggers_found, 20);
        assert_eq!(a.triggers_fired, 8);
        assert_eq!(a.facts_added, 12);
        assert_eq!(a.index_extends, 6);
        assert_eq!(a.index_rebuilds, 2);
        assert_eq!(a.parallel_rounds, 2);
        assert_eq!(a.cache_hits, 10);
        assert_eq!(a.cache_misses, 6);
        assert_eq!(a.panics_contained, 2);
        // Peaks take the max (arena reuse), trips/resumes accumulate.
        assert_eq!(a.mem_peak_bytes, 100);
        assert_eq!(a.mem_trips, 2);
        assert_eq!(a.resumes, 2);
        assert_eq!(a.total_time, Duration::from_millis(40));
    }

    #[test]
    fn normalized_zeroes_only_run_shape_fields() {
        let a = ChaseStats {
            rounds: 3,
            index_rebuilds: 2,
            mem_peak_bytes: 512,
            mem_trips: 1,
            resumes: 1,
            total_time: Duration::from_millis(9),
            ..ChaseStats::default()
        };
        let n = a.normalized();
        assert_eq!(n.rounds, 3);
        assert_eq!(n.mem_peak_bytes, 512);
        assert_eq!(n.index_rebuilds, 0);
        assert_eq!(n.mem_trips, 0);
        assert_eq!(n.resumes, 0);
        assert_eq!(n.total_time, Duration::ZERO);
    }
}
