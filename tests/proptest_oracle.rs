//! Differential tests: the chase engine against the naive oracle of
//! `tests/support/oracle.rs`, on generated rule sets of the full, linear,
//! guarded and frontier-guarded classes.
//!
//! The oracle has no index, planner, semi-naive frontier, trigger filter or
//! checkpoint, and it keeps every trigger it finds, dead or not. So
//! agreement on the instance, the nulls and their numbering, the rounds,
//! the outcome, the fired count and every provenance step shows that none
//! of those parts changes what the chase computes. A run tripped at a
//! round boundary and resumed from its decoded frame is held to the same
//! agreement, so the resume path's re-indexing of the pending delta is
//! checked too.

mod support;

use proptest::prelude::*;
use std::collections::BTreeSet;
use support::oracle::naive_chase;
use tgdkit::chase_crate::{chase_with_provenance, ChaseResult, DerivationStep};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::hom::InstanceIndex;
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

/// Room for the dense-domain case: a few hundred facts, and enough nulls
/// for their ids to pass the 64-id minimum side of the index's dense
/// membership bits.
const DENSE_BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 400,
    max_rounds: 6,
    max_bytes: usize::MAX,
};

/// The chase tripped by a round budget of `j` and, when that leaves a
/// checkpoint, resumed from the encoded and decoded frame under `budget`:
/// the run the oracle must match when the chase is interrupted at round
/// `j`.
fn tripped_and_resumed(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    j: usize,
) -> ChaseResult {
    let token = CancelToken::new();
    let trip = ChaseBudget {
        max_rounds: j,
        ..budget
    };
    let (tripped, cp) = chase_checkpointing(start, tgds, variant, trip, &token);
    let Some(cp) = cp else {
        return tripped;
    };
    let decoded = ChaseCheckpoint::decode(&cp.encode(), start.schema()).expect("frame decodes");
    chase_resume(&decoded, tgds, budget, &token)
        .expect("the frame's own tgd set resumes")
        .0
}

/// A start instance over `size` elements, sparse enough that a binary
/// predicate over a small domain starts below the dense bits' row floor.
fn dense_start(schema: Schema, seed: u64, size: usize) -> Instance {
    InstanceGen::new(schema, seed).generate(size, 0.12)
}

/// What the chase's index does with its dense membership bits over a run:
/// the index is rebuilt from `start` and extended fact by fact in firing
/// order, exactly the push sequence of the chase's own index, and each
/// predicate's bits are watched switch `"on"`, `"grow"` (a new id passed
/// the side) and switch `"off"` after the start.
fn dense_events(start: &Instance, steps: &[DerivationStep]) -> BTreeSet<&'static str> {
    let preds: Vec<_> = start.schema().preds().collect();
    let mut index = InstanceIndex::new(start);
    let mut sides: Vec<Option<u64>> = preds.iter().map(|&p| index.dense_side(p)).collect();
    let mut events = BTreeSet::new();
    for step in steps {
        index.extend(&step.added);
        for (&p, side) in preds.iter().zip(&mut sides) {
            let now = index.dense_side(p);
            match (*side, now) {
                (None, Some(_)) => events.insert("on"),
                (Some(_), None) => events.insert("off"),
                (Some(a), Some(b)) if b > a => events.insert("grow"),
                _ => false,
            };
            *side = now;
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `chase()`, `chase_with_provenance()` and the chase tripped at a
    /// round `j` and resumed all agree with the oracle exactly.
    #[test]
    fn chase_matches_the_naive_oracle(
        class in 0u8..4,
        set_seed in 0u64..400,
        data_seed in 0u64..400,
        existentials in 0usize..2,
        oblivious in 0u8..2,
        trip in 0usize..8,
    ) {
        let (schema, tgds) = class_set(class, set_seed, existentials);
        let start = InstanceGen::new(schema, data_seed).generate(4, 0.35);
        let variant = if oblivious == 1 { ChaseVariant::Oblivious } else { ChaseVariant::Restricted };
        let oracle = naive_chase(&start, &tgds, variant, BUDGET);

        let (logged, provenance) = chase_with_provenance(&start, &tgds, variant, BUDGET);
        let plain = chase(&start, &tgds, variant, BUDGET);
        let resumed =
            tripped_and_resumed(&start, &tgds, variant, BUDGET, trip % oracle.rounds.max(1));
        for result in [&logged, &plain, &resumed] {
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

    /// The same agreement over 12–24 element domains, where unary and
    /// binary predicates cross the dense-membership rule of the chase's
    /// index mid-run (switching on, growing as null ids pass the side,
    /// switching off; see `dense_inputs_switch_the_index_bits`).
    #[test]
    fn chase_matches_the_naive_oracle_on_dense_domains(
        class in 0u8..4,
        set_seed in 0u64..400,
        data_seed in 0u64..400,
        size in 12usize..25,
        existentials in 0usize..2,
        trip in 0usize..6,
    ) {
        let (schema, tgds) = class_set(class, set_seed, existentials);
        let start = dense_start(schema, data_seed, size);
        let variant = ChaseVariant::Restricted;
        let oracle = naive_chase(&start, &tgds, variant, DENSE_BUDGET);

        let (logged, provenance) = chase_with_provenance(&start, &tgds, variant, DENSE_BUDGET);
        let resumed =
            tripped_and_resumed(&start, &tgds, variant, DENSE_BUDGET, trip % oracle.rounds.max(1));
        for result in [&logged, &resumed] {
            let facts: BTreeSet<Fact> = result.instance.facts().collect();
            prop_assert_eq!(&facts, &oracle.facts);
            prop_assert_eq!(&result.nulls, &oracle.nulls);
            prop_assert_eq!(result.rounds, oracle.rounds);
            prop_assert_eq!(result.outcome, oracle.outcome);
            prop_assert_eq!(result.stats.triggers_fired, oracle.triggers_fired);
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

/// The dense-domain inputs make the chase's index switch its dense bits
/// on, grow them past a null id and switch them off mid-run, for full and
/// existential sets alike, so the differential test above exercises every
/// transition and cannot pass on a generator that never reaches them.
#[test]
fn dense_inputs_switch_the_index_bits() {
    let mut full = BTreeSet::new();
    let mut existential = BTreeSet::new();
    for class in 0u8..4 {
        for seed in 0..24u64 {
            let (schema, tgds) = class_set(class, seed, 1);
            let size = 12 + (seed % 13) as usize;
            let start = dense_start(schema, seed, size);
            let (_, provenance) =
                chase_with_provenance(&start, &tgds, ChaseVariant::Restricted, DENSE_BUDGET);
            let events = dense_events(&start, &provenance.steps);
            let into = if tgds.iter().all(Tgd::is_full) {
                &mut full
            } else {
                &mut existential
            };
            into.extend(events);
        }
    }
    assert!(full.contains("on"), "full sets: {full:?}");
    for event in ["on", "grow", "off"] {
        assert!(
            existential.contains(event),
            "existential sets: {existential:?}"
        );
    }
}
