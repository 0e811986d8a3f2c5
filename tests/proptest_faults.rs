//! Fault-injection property tests for the cancellation / panic-isolation
//! layer: under any injected fault schedule (worker panics, spurious budget
//! trips, deadline expiries), the pipeline may only *degrade* answers
//! toward `Unknown`/`Cancelled` — never invert a verdict — and a cancelled
//! chase always stops on a round-boundary prefix of the uncancelled run.
//!
//! CI runs this file under a seed matrix via `TGDKIT_FAULTS_SEED`
//! (`tgdkit::chase_crate::faults::env_seed`), so one green run covers one
//! schedule and the matrix covers several.

use proptest::prelude::*;
use tgdkit::chase_crate::faults::{env_seed, silence_injected_panics, FaultPlan, FaultSite};
use tgdkit::chase_crate::EntailCache;
use tgdkit::chase_crate::{
    chase, chase_governed, decide, decide_all, entails_all, entails_auto, CancelToken, ChaseBudget,
    ChaseOutcome, ChaseVariant, Entailment,
};
use tgdkit::core::rewrite::{rewrite, RewriteOptions, RewriteStats, RewriteTarget};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::core::RewriteOutcome;
use tgdkit::instance::Instance;
use tgdkit::logic::{Tgd, TgdSet};

fn random_set(seed: u64, rules: usize, existentials: usize) -> TgdSet {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials,
    };
    generate_set(&params, Family::Guarded, seed)
}

/// Algorithm 1 on a fresh cache under `token`.
fn linearize(
    set: &TgdSet,
    opts: &RewriteOptions,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    let cache = EntailCache::new();
    let (outcome, stats, _) =
        rewrite(set, RewriteTarget::Linear, opts, &cache, token, None).unwrap();
    (outcome, stats)
}

fn random_candidates(seed: u64, count: usize) -> Vec<Tgd> {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules: count,
        body_atoms: 1,
        head_atoms: 1,
        universals: 2,
        existentials: 0,
    };
    generate_set(&params, Family::Unrestricted, seed)
        .tgds()
        .to_vec()
}

/// A small start instance over the set's schema: one fact per predicate on
/// a two-element domain, enough to trigger most rules.
fn seed_instance(set: &TgdSet) -> Instance {
    let schema = set.schema();
    let mut inst = Instance::new(schema.clone());
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        inst.add_fact(
            pred,
            (0..arity)
                .map(|i| tgdkit::instance::Elem((i % 2) as u32))
                .collect(),
        );
    }
    inst
}

/// Faulted verdicts must equal the fault-free verdict or be `Unknown` —
/// injected faults only truncate work, so they can never manufacture a
/// `Proved`/`Disproved` the clean run did not reach, nor flip one.
fn assert_not_inverted(clean: Entailment, faulted: Entailment) {
    assert!(
        faulted == clean || faulted == Entailment::Unknown,
        "injected faults inverted a verdict: clean {clean:?}, faulted {faulted:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chase cancelled by injected deadline expiries stops exactly on one
    /// of the uncancelled run's round prefixes (reconstructed via
    /// `max_rounds = j` reruns).
    #[test]
    fn cancelled_chase_lands_on_a_round_prefix(
        set_seed in 0u64..200,
        rules in 1usize..4,
        schedule in 0u64..6,
    ) {
        let set = random_set(set_seed, rules, 1);
        let start = seed_instance(&set);
        let budget = ChaseBudget {
            max_facts: 2_000,
            max_rounds: 12,
            max_bytes: usize::MAX,
        };
        let full = chase(&start, set.tgds(), ChaseVariant::Restricted, budget);
        let prefixes: Vec<Instance> = (0..=full.stats.rounds)
            .map(|j| {
                chase(
                    &start,
                    set.tgds(),
                    ChaseVariant::Restricted,
                    ChaseBudget {
                        max_facts: budget.max_facts,
                        max_rounds: j,
                        max_bytes: usize::MAX,
                    },
                )
                .instance
            })
            .collect();
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token =
            CancelToken::with_faults(FaultPlan::only(seed, FaultSite::DeadlineExpire, 3));
        let result = chase_governed(
            &start,
            set.tgds(),
            ChaseVariant::Restricted,
            budget,
            &token,
        );
        if result.outcome == ChaseOutcome::Cancelled {
            prop_assert!(result.stats.rounds < prefixes.len());
            prop_assert_eq!(
                &result.instance,
                &prefixes[result.stats.rounds],
                "cancelled instance is not the round-{} prefix",
                result.stats.rounds
            );
        }
    }

    /// Entailment under a mixed fault schedule (panics + budget trips +
    /// expiries) never inverts the fault-free verdict: not for one
    /// candidate without a cache or through a cache shared across the
    /// faulted calls, and not for the conjunctions `Σ ⊨ candidates` and
    /// `Σ ⊨ Σ` (the shape of the rewriting's `Σ′ ⊨ Σ` check). A faulted
    /// run never leaves a wrong verdict in the cache: clean calls through
    /// it afterwards still reach the fault-free verdicts.
    #[test]
    fn entailment_verdicts_survive_mixed_faults(
        sigma_seed in 0u64..200,
        cand_seed in 200u64..400,
        rules in 1usize..4,
        existentials in 0usize..2,
        schedule in 0u64..3,
    ) {
        silence_injected_panics();
        let set = random_set(sigma_seed, rules, existentials);
        let candidates = random_candidates(cand_seed, 4);
        let budget = ChaseBudget::default();
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let (schema, sigma) = (set.schema(), set.tgds());
        let cache = EntailCache::new();
        let mut clean = Vec::new();
        for candidate in &candidates {
            let expected = entails_auto(schema, sigma, candidate, budget);
            let token = CancelToken::with_faults(FaultPlan::seeded(seed));
            let faulted = decide(schema, sigma, candidate, budget, None, &token);
            assert_not_inverted(expected, faulted);
            let cached = decide(schema, sigma, candidate, budget, Some(&cache), &token);
            assert_not_inverted(expected, cached);
            clean.push(expected);
        }
        for (candidate, &expected) in candidates.iter().zip(&clean) {
            let after = decide(schema, sigma, candidate, budget, Some(&cache), &CancelToken::new());
            prop_assert_eq!(after, expected);
        }
        for pool in [&candidates[..], sigma] {
            let expected = entails_all(schema, sigma, pool, budget);
            let token = CancelToken::with_faults(FaultPlan::seeded(seed));
            assert_not_inverted(expected, decide_all(schema, sigma, pool, budget, None, &token));
            let cached = decide_all(schema, sigma, pool, budget, Some(&cache), &token);
            assert_not_inverted(expected, cached);
        }
    }

    /// The rewriting procedure under injected faults never contradicts the
    /// fault-free outcome: a rewritable set is never reported
    /// `NotRewritable`, a definitively non-rewritable set never yields a
    /// rewriting.
    #[test]
    fn rewrite_outcome_survives_mixed_faults(
        set_seed in 0u64..120,
        rules in 1usize..3,
        schedule in 0u64..3,
    ) {
        silence_injected_panics();
        let set = random_set(set_seed, rules, 0);
        let opts = tgdkit::core::RewriteOptions::default();
        let (clean, _) = linearize(&set, &opts, &CancelToken::new());
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::seeded(seed));
        let (faulted, stats) = linearize(&set, &opts, &token);
        match (&clean, &faulted) {
            (RewriteOutcome::Rewritten(_), RewriteOutcome::NotRewritable) => {
                panic!("faults flipped Rewritten to NotRewritable");
            }
            (RewriteOutcome::NotRewritable, RewriteOutcome::Rewritten(r)) => {
                panic!("faults fabricated a rewriting for a non-rewritable set: {r:?}");
            }
            _ => {}
        }
        if faulted == RewriteOutcome::Cancelled {
            prop_assert!(stats.cancelled, "Cancelled outcome without stats.cancelled");
        }
    }
}

/// Non-property smoke checks for the harness itself.
#[test]
fn injected_group_eval_panics_are_contained() {
    silence_injected_panics();
    let set = random_set(7, 2, 0);
    let opts = tgdkit::core::RewriteOptions::default();
    let token = CancelToken::with_faults(FaultPlan::only(1, FaultSite::GroupEvalPanic, 2));
    // Must return (not unwind), and every poisoned group reports Unknown.
    let (outcome, stats) = linearize(&set, &opts, &token);
    if stats.panics_contained > 0 {
        assert_ne!(
            outcome,
            RewriteOutcome::NotRewritable,
            "a run with contained panics has Unknown verdicts and cannot be definitive"
        );
    }
}

#[test]
fn injected_trigger_worker_panics_cancel_the_chase() {
    silence_injected_panics();
    let set = random_set(11, 2, 1);
    let start = seed_instance(&set);
    let token = CancelToken::with_faults(FaultPlan::always(FaultSite::TriggerWorkerPanic));
    let result = chase_governed(
        &start,
        set.tgds(),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
        &token,
    );
    assert_eq!(result.outcome, ChaseOutcome::Cancelled);
    assert!(result.stats.panics_contained > 0);
    // No partial round was applied: the instance is the untouched start.
    assert_eq!(result.instance.fact_count(), start.fact_count());
}
