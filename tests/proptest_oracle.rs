//! Differential tests: the chase engine against the naive oracle of
//! `tests/support/oracle.rs`, on generated rule sets of the full, linear,
//! guarded and frontier-guarded classes.
//!
//! The oracle has no index, planner, semi-naive frontier, trigger filter or
//! shards, and it keeps every trigger it finds, dead or not. So agreement
//! on the instance, the nulls and their numbering, the rounds, the
//! outcome, the fired count and every provenance step shows that none of
//! those parts changes what the chase computes.

mod support;

use proptest::prelude::*;
use support::oracle::naive_chase;
use tgdkit::chase_crate::chase_with_provenance;
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::instance::Fact;
use tgdkit::prelude::*;

/// Small enough for the oracle's exhaustive search, and a cap on the
/// oblivious variant, which diverges on most sets with existentials.
const BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 200,
    max_rounds: 8,
    max_bytes: usize::MAX,
};

/// A generated tgd set of class `class` (0 full, 1 linear, 2 guarded,
/// 3 frontier-guarded) over three predicates of arity at most two, with
/// one or two head atoms per tgd.
fn class_set(class: u8, seed: u64, existentials: usize) -> (Schema, Vec<Tgd>) {
    let params = WorkloadParams {
        existentials: if class == 0 { 0 } else { existentials },
        head_atoms: 1 + (seed % 2) as usize,
        universals: if class == 2 { 2 } else { 3 },
        ..WorkloadParams::default()
    };
    let family = match class {
        0 => Family::Full,
        1 => Family::Linear,
        2 => Family::Guarded,
        _ => Family::Unrestricted,
    };
    let set = generate_set(&params, family, seed);
    let tgds = set
        .tgds()
        .iter()
        .filter(|t| class != 3 || t.is_frontier_guarded())
        .cloned()
        .collect();
    (set.schema().clone(), tgds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `chase()`, `chase_with_provenance()` and the chase at `shards`
    /// shards all agree with the oracle exactly.
    #[test]
    fn chase_matches_the_naive_oracle(
        class in 0u8..4,
        set_seed in 0u64..400,
        data_seed in 0u64..400,
        existentials in 0usize..2,
        oblivious in 0u8..2,
        shards in 1usize..5,
    ) {
        let (schema, tgds) = class_set(class, set_seed, existentials);
        let start = InstanceGen::new(schema, data_seed).generate(4, 0.35);
        let variant = if oblivious == 1 { ChaseVariant::Oblivious } else { ChaseVariant::Restricted };
        let oracle = naive_chase(&start, &tgds, variant, BUDGET);

        let (logged, provenance) = chase_with_provenance(&start, &tgds, variant, BUDGET);
        let plain = chase(&start, &tgds, variant, BUDGET);
        let sharded = chase_sharded(&start, &tgds, variant, BUDGET, shards);
        for result in [&logged, &plain, &sharded] {
            let facts: std::collections::BTreeSet<Fact> = result.instance.facts().collect();
            prop_assert_eq!(&facts, &oracle.facts);
            prop_assert_eq!(&result.nulls, &oracle.nulls);
            prop_assert_eq!(result.rounds, oracle.rounds);
            prop_assert_eq!(result.outcome, oracle.outcome);
            prop_assert_eq!(result.stats.triggers_fired, oracle.triggers_fired);
            prop_assert!(result.stats.triggers_found >= result.stats.triggers_fired);
        }
        prop_assert_eq!(&provenance.steps, &oracle.steps);
    }
}

/// The differential test reaches every class, both outcomes and the
/// fact-cap stop, so a silently degenerate generator cannot pass it.
#[test]
fn oracle_inputs_cover_classes_and_outcomes() {
    let mut outcomes = std::collections::BTreeSet::new();
    for class in 0u8..4 {
        let mut fired = 0;
        for seed in 0..24u64 {
            let (schema, tgds) = class_set(class, seed, 1);
            let start = InstanceGen::new(schema, seed).generate(4, 0.35);
            for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
                let oracle = naive_chase(&start, &tgds, variant, BUDGET);
                fired += oracle.triggers_fired;
                outcomes.insert(format!("{:?}", oracle.outcome));
            }
        }
        assert!(fired > 0, "class {class}: no trigger ever fired");
    }
    assert!(outcomes.contains("Terminated"));
    assert!(outcomes.contains("BudgetExceeded"));
}
