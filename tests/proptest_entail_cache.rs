//! Property-based tests for the entailment pipeline: the memoization layer
//! ([`EntailCache`], body-grouped batch evaluation) and the work-stealing
//! candidate evaluator in the rewriting procedures must be observationally
//! identical to the plain per-candidate serial path, and every path must
//! agree with the naive freeze + chase + probe oracle of
//! `tests/support/entail.rs` wherever that oracle is decisive.

#[path = "support/entail.rs"]
mod entail_oracle;
#[path = "support/homs.rs"]
mod homs;
#[path = "support/oracle.rs"]
mod oracle;

use entail_oracle::naive_entails;
use proptest::prelude::*;
use tgdkit::chase_crate::{
    decide, entails_auto, entails_auto_cached, entails_batch, sigma_fingerprint, CancelToken,
    ChaseBudget, EntailCache, Entailment,
};
use tgdkit::core::enumerate::{linear_candidates, EnumOptions};
use tgdkit::core::rewrite::{
    evaluate_pool_keyed, guarded_to_linear_cached, rewrite, RewriteOptions, RewriteTarget,
};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::logic::{parse_tgds, Schema, Tgd, TgdSet};
use tgdkit::serve::smoke::pathological_program;

/// The oracle's budget: small enough for its exhaustive search, and below
/// [`ChaseBudget::default`] in both limits, so wherever the oracle's chase
/// settles a question the engine's default-budget chase gets there too.
const ORACLE_BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 200,
    max_rounds: 8,
    max_bytes: usize::MAX,
};

/// Checks `verdict` against the oracle: equal wherever the oracle is
/// decisive (`Proved` or `Disproved`).
fn agrees_with_oracle(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    verdict: Entailment,
) -> bool {
    let oracle = naive_entails(schema, sigma, candidate, ORACLE_BUDGET);
    oracle == Entailment::Unknown || verdict == oracle
}

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

/// A generated guarded or linear set over three predicates of arity ≤ 2.
fn oracle_set(seed: u64, linear: bool, rules: usize, existentials: usize) -> TgdSet {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials,
    };
    let family = if linear {
        Family::Linear
    } else {
        Family::Guarded
    };
    generate_set(&params, family, seed)
}

/// Candidates for the oracle property: random tgds (mostly not entailed),
/// the set's own members (entailed in one round), and the whole linear
/// candidate space `C_{2,1}` over the set's schema (75 tgds), which holds
/// consequences the chase needs several rounds for.
fn oracle_candidates(set: &TgdSet, seed: u64) -> Vec<Tgd> {
    let opts = EnumOptions {
        max_head_atoms: 1,
        ..Default::default()
    };
    let mut out = random_candidates(seed, 4);
    out.extend(set.tgds().iter().cloned());
    out.extend(linear_candidates(set.schema(), 2, 1, &opts).tgds);
    out
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
        for (c, &v) in candidates.iter().zip(&expected) {
            prop_assert!(agrees_with_oracle(set.schema(), set.tgds(), c, v), "{:?}", c);
        }

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
            prop_assert!(agrees_with_oracle(set.schema(), set.tgds(), c, plain), "{:?}", c);
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

    /// The one entailment pipeline against the naive oracle, on generated
    /// guarded and linear sets with and without existentials. Wherever the
    /// oracle is decisive, `decide` reaches its verdict with no cache, with
    /// a cold cache and with a warm one (served from the cache). Under a
    /// budget far below the oracle's, `decide` may settle less, but never
    /// contradicts what the oracle settled: a truncated chase that misses
    /// the head proves nothing either way.
    #[test]
    fn decide_agrees_with_the_naive_oracle(
        sigma_seed in 0u64..300,
        cand_seed in 300u64..600,
        linear in 0u8..2,
        rules in 1usize..7,
        existentials in 0usize..2,
        rounds in 1usize..3,
    ) {
        let set = oracle_set(sigma_seed, linear == 1, rules, existentials);
        let (schema, sigma) = (set.schema(), set.tgds());
        let candidates = oracle_candidates(&set, cand_seed);
        let (budget, token, cache) = (ChaseBudget::default(), CancelToken::new(), EntailCache::new());
        let truncated = ChaseBudget { max_facts: 50, max_rounds: rounds, max_bytes: usize::MAX };
        for c in &candidates {
            let oracle = naive_entails(schema, sigma, c, ORACLE_BUDGET);
            let plain = decide(schema, sigma, c, budget, None, &token);
            let cold = decide(schema, sigma, c, budget, Some(&cache), &token);
            let hits = cache.hits();
            let warm = decide(schema, sigma, c, budget, Some(&cache), &token);
            prop_assert_eq!(cache.hits(), hits + 1);
            prop_assert_eq!(cold, plain);
            prop_assert_eq!(warm, plain);
            if oracle != Entailment::Unknown {
                prop_assert_eq!(plain, oracle, "{:?}", c);
            }
            let cut = decide(schema, sigma, c, truncated, None, &token);
            prop_assert!(
                cut == Entailment::Unknown || oracle == Entailment::Unknown || cut == oracle,
                "truncated decide {:?} contradicts oracle {:?} on {:?}", cut, oracle, c
            );
        }
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

/// The work the sweep does for Algorithm 1's candidate pool over a
/// 3-level branching chain, pinned exactly: the 1,266 candidates fall into
/// 4 body groups, one chase per group answers every head (81 are
/// entailed, none left unknown), a warm rerun takes every verdict from the
/// cache, and each verdict is the one [`decide`] gives the candidate on
/// its own. Speed is perfbench's `rewrite` workload; this pins the work a
/// speed figure stands for.
#[test]
fn branching_chain_pool_shares_one_chase_per_body() {
    let mut schema = Schema::default();
    let sigma = parse_tgds(&mut schema, &pathological_program(3)).unwrap();
    let (n, m) = TgdSet::new(schema.clone(), sigma.clone())
        .unwrap()
        .profile();
    let opts = EnumOptions {
        max_candidates: 1_200,
        ..Default::default()
    };
    let pool = linear_candidates(&schema, n, m, &opts);
    assert_eq!(pool.tgds.len(), 1_266);
    let budget = ChaseBudget::default();
    let cache = EntailCache::new();
    let sweep = || {
        evaluate_pool_keyed(
            &schema, &sigma, &pool.tgds, &pool.keys, budget, true, &cache,
        )
    };
    let (cold, stats, _) = sweep();
    assert_eq!(stats.body_groups, 4);
    assert_eq!(stats.bodies_chased, 4);
    assert_eq!(stats.heads_probed, 1_266);
    assert_eq!(stats.cache_misses, 1_266);
    let count = |e: Entailment| cold.iter().filter(|v| **v == e).count();
    assert_eq!(
        (count(Entailment::Proved), count(Entailment::Unknown)),
        (81, 0)
    );
    let (warm, warm_stats, _) = sweep();
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.cache_hits, 1_266);
    assert_eq!(warm_stats.bodies_chased, 0);
    let token = CancelToken::new();
    for (candidate, verdict) in pool.tgds.iter().zip(&cold) {
        assert_eq!(
            decide(&schema, &sigma, candidate, budget, None, &token),
            *verdict,
            "{candidate:?}"
        );
    }
}
