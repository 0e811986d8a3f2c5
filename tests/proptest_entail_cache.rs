//! Property-based tests for the entailment memoization layer
//! ([`EntailCache`], body-grouped batch evaluation) and the work-stealing
//! candidate evaluator in the rewriting procedures: cached, shared and
//! parallel paths must be observationally identical to the plain
//! per-candidate serial path.

use proptest::prelude::*;
use tgdkit::chase_crate::{
    entails_auto, entails_auto_cached, entails_batch, sigma_fingerprint, CancelToken, ChaseBudget,
    EntailCache, Entailment,
};
use tgdkit::core::rewrite::{guarded_to_linear_cached, rewrite, RewriteOptions, RewriteTarget};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::logic::{Tgd, TgdSet};

/// A small random guarded tgd set (the input class of Algorithm 1).
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

/// Candidate pool: the members of a second random set over the same schema
/// (so entailment questions are non-trivial in both directions).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Batch evaluation with body-grouped chase sharing returns exactly the
    /// per-candidate `entails_auto` verdicts — cold, and again warm from a
    /// cache populated by the first pass.
    #[test]
    fn cached_batch_agrees_with_entails_auto(
        sigma_seed in 0u64..300,
        cand_seed in 300u64..600,
        rules in 1usize..4,
        existentials in 0usize..2,
    ) {
        let set = random_set(sigma_seed, rules, existentials);
        let candidates = random_candidates(cand_seed, 6);
        let budget = ChaseBudget::default();
        let expected: Vec<Entailment> = candidates
            .iter()
            .map(|c| entails_auto(set.schema(), set.tgds(), c, budget))
            .collect();

        let (ungrouped, stats) =
            entails_batch(set.schema(), set.tgds(), &candidates, budget, None);
        prop_assert_eq!(&ungrouped, &expected);
        prop_assert_eq!(stats.candidates, candidates.len());
        prop_assert!(stats.bodies_chased <= stats.body_groups);

        let cache = EntailCache::new();
        let (cold, _) =
            entails_batch(set.schema(), set.tgds(), &candidates, budget, Some(&cache));
        prop_assert_eq!(&cold, &expected);
        let (warm, warm_stats) =
            entails_batch(set.schema(), set.tgds(), &candidates, budget, Some(&cache));
        prop_assert_eq!(&warm, &expected);
        prop_assert_eq!(warm_stats.bodies_chased, 0);
    }

    /// The single-candidate cached entry point agrees with `entails_auto`,
    /// hits on renaming-stable repeats, and never crosses Σ fingerprints.
    #[test]
    fn cached_single_agrees_with_entails_auto(
        sigma_seed in 0u64..300,
        cand_seed in 300u64..600,
        rules in 1usize..4,
    ) {
        let set = random_set(sigma_seed, rules, 0);
        let candidates = random_candidates(cand_seed, 4);
        let budget = ChaseBudget::default();
        let cache = EntailCache::new();
        for c in &candidates {
            let plain = entails_auto(set.schema(), set.tgds(), c, budget);
            let cached = entails_auto_cached(set.schema(), set.tgds(), c, budget, &cache);
            prop_assert_eq!(cached, plain);
            // Second call must be served from the cache with the same verdict.
            let hits_before = cache.hits();
            let again = entails_auto_cached(set.schema(), set.tgds(), c, budget, &cache);
            prop_assert_eq!(again, plain);
            prop_assert_eq!(cache.hits(), hits_before + 1);
        }
        // Fingerprints separate different sets with high probability; equal
        // sets always share one.
        // Fingerprinting is order-invariant: reversing Σ changes nothing.
        let reversed: Vec<_> = set.tgds().iter().rev().cloned().collect();
        prop_assert_eq!(sigma_fingerprint(set.tgds()), sigma_fingerprint(&reversed));
    }

    /// Serial and work-stealing rewriting produce byte-identical outcomes
    /// (the acceptance criterion of the work-stealing evaluator), and a
    /// shared cache does not change the answer either.
    #[test]
    fn workstealing_rewrite_identical_to_serial(
        sigma_seed in 0u64..200,
        rules in 1usize..3,
    ) {
        let set = random_set(sigma_seed, rules, 0);
        let fresh = |opts: &RewriteOptions| {
            let (cache, token) = (EntailCache::new(), CancelToken::new());
            rewrite(&set, RewriteTarget::Linear, opts, &cache, &token, None).unwrap().0
        };
        let serial = fresh(&RewriteOptions::default());
        let parallel = fresh(&RewriteOptions { parallel: true, ..Default::default() });
        prop_assert_eq!(&serial, &parallel);
        let cache = EntailCache::new();
        let opts = RewriteOptions { parallel: true, ..Default::default() };
        let cold = guarded_to_linear_cached(&set, &opts, &cache).0;
        let warm = guarded_to_linear_cached(&set, &opts, &cache).0;
        prop_assert_eq!(&serial, &cold);
        prop_assert_eq!(&serial, &warm);
    }
}
