//! Property-based tests for the incremental chase machinery: append-only
//! index maintenance ([`InstanceIndex::extend`] of an owned index) and
//! coherent chase stats.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::hom::InstanceIndex;
use tgdkit::instance::Fact;
use tgdkit::logic::PredId;
use tgdkit::prelude::*;

/// A schema exercising the index edge cases: a zero-arity predicate next to
/// ordinary ones.
fn mixed_schema() -> Schema {
    Schema::builder()
        .pred("Z", 0)
        .pred("P", 1)
        .pred("R", 2)
        .pred("T", 3)
        .build()
}

/// Random facts over [`mixed_schema`], with repetitions likely.
fn random_facts(schema: &Schema, seed: u64, count: usize) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let preds: Vec<PredId> = schema.preds().collect();
    (0..count)
        .map(|_| {
            let pred = preds[rng.random_range(0..preds.len())];
            let arity = schema.arity(pred);
            let args = (0..arity)
                .map(|_| Elem(rng.random_range(0u32..6)))
                .collect();
            Fact::new(pred, args)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// `InstanceIndex::extend(delta)` is observationally equivalent to a
    /// fresh `InstanceIndex::new` on the extended instance: same tuple
    /// sets, same counts, and postings that dereference consistently —
    /// including zero-arity predicates and duplicate delta facts.
    #[test]
    fn extend_equals_fresh_build(
        base_seed in 0u64..500,
        delta_seed in 500u64..1000,
        base_size in 0usize..25,
        delta_size in 0usize..25,
    ) {
        let schema = mixed_schema();
        let base = random_facts(&schema, base_seed, base_size);
        let delta = random_facts(&schema, delta_seed, delta_size);

        let mut instance = Instance::new(schema.clone());
        for fact in &base {
            instance.add_fact(fact.pred, fact.args.clone());
        }
        let mut incremental = InstanceIndex::owned(instance.clone());
        incremental.extend(&delta);

        for fact in &delta {
            instance.add_fact(fact.pred, fact.args.clone());
        }
        let fresh = InstanceIndex::new(&instance);

        prop_assert_eq!(incremental.total_count(), fresh.total_count());
        for pred in schema.preds() {
            prop_assert_eq!(incremental.count(pred), fresh.count(pred));
            let mut a = incremental.tuples(pred).to_vec();
            let mut b = fresh.tuples(pred).to_vec();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "tuple sets differ on {:?}", pred);
            // Postings consistency: every row is reachable through each of
            // its positions, and every posting hit dereferences to a row
            // carrying the probed element (read through the columns).
            let tuples = incremental.tuples(pred);
            for t in 0..tuples.len() {
                for pos in 0..tuples.arity() {
                    let e = tuples.at(t, pos);
                    prop_assert!(
                        incremental.postings(pred, pos, e).contains(&(t as u32)),
                        "row {} not reachable via position {}", t, pos
                    );
                }
            }
            for pos in 0..schema.arity(pred) {
                for e in (0..6).map(Elem) {
                    for &hit in incremental.postings(pred, pos, e) {
                        prop_assert_eq!(incremental.at(pred, hit, pos), e);
                    }
                }
            }
            // Membership agrees with the fresh build.
            for tuple in fresh.tuples(pred).to_vec() {
                prop_assert!(incremental.contains(pred, &tuple));
            }
        }
        // Predicates beyond the indexed schema read as empty, never panic.
        let ghost = PredId(99);
        prop_assert_eq!(incremental.count(ghost), 0);
        prop_assert!(incremental.tuples(ghost).is_empty());
        prop_assert!(incremental.postings(ghost, 0, Elem(0)).is_empty());
        prop_assert!(!incremental.contains(ghost, &[Elem(0)]));
    }

    /// Every chase run populates its stats coherently: rounds mirror the
    /// result, exactly one full index build happens per pass, and fired
    /// triggers never exceed found ones.
    #[test]
    fn chase_stats_are_coherent(rule_seed in 0u64..200, data_seed in 0u64..200) {
        let set = generate_set(&WorkloadParams::default(), Family::Full, rule_seed);
        let start = InstanceGen::new(set.schema().clone(), data_seed).generate(4, 0.35);
        let result = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::large());
        prop_assert_eq!(result.stats.rounds, result.rounds);
        prop_assert_eq!(result.stats.index_rebuilds, 1, "incremental path regressed");
        prop_assert!(result.stats.triggers_fired <= result.stats.triggers_found);
        prop_assert_eq!(
            result.stats.facts_added,
            result.instance.fact_count() - start.fact_count()
        );
    }
}
