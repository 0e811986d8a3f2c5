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
/// one or two head atoms per tgd. Full sets also get one or two chain
/// tgds (see [`chain_tgds`]).
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
    let mut schema = set.schema().clone();
    let mut tgds: Vec<Tgd> = set
        .tgds()
        .iter()
        .filter(|t| class != 3 || t.is_frontier_guarded())
        .cloned()
        .collect();
    if class == 0 {
        tgds.extend(chain_tgds(&mut schema, seed));
    }
    (schema, tgds)
}

/// One or two full tgds of chain shape `P(x,y), Q(y,z) -> H(x,z)` over
/// the schema's binary predicates, each predicate and the body order drawn
/// from `seed`: the shape the chase joins over bit rows when all three
/// predicates keep dense membership bits.
fn chain_tgds(schema: &mut Schema, seed: u64) -> Vec<Tgd> {
    let binary: Vec<String> = schema
        .preds()
        .filter(|&p| schema.arity(p) == 2)
        .map(|p| schema.name(p).to_string())
        .collect();
    let mut bits = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
    let mut draw = |n: usize| {
        let k = (bits % n as u64) as usize;
        bits /= n as u64;
        k
    };
    let mut text = String::new();
    for _ in 0..1 + draw(2) {
        let [p, q, h] = [0; 3].map(|_| &binary[draw(binary.len())]);
        if draw(2) == 0 {
            text.push_str(&format!("{p}(x,y), {q}(y,z) -> {h}(x,z). "));
        } else {
            text.push_str(&format!("{q}(y,z), {p}(x,y) -> {h}(x,z). "));
        }
    }
    parse_tgds(schema, &text).expect("chain tgds parse")
}

/// `true` for a full tgd `P(x,y), Q(y,z) -> H(x,z)` (x, y, z distinct,
/// either body order): the shape of [`chain_tgds`].
fn is_chain(tgd: &Tgd) -> bool {
    let ([a, b], [head]) = (tgd.body(), tgd.head()) else {
        return false;
    };
    let &[x, z] = head.args.as_slice() else {
        return false;
    };
    tgd.is_full()
        && x != z
        && [(a, b), (b, a)].iter().any(|(p, q)| {
            matches!(
                (p.args.as_slice(), q.args.as_slice()),
                (&[px, y], &[qy, qz]) if px == x && qz == z && y == qy && y != x && y != z
            )
        })
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
    let mut index = InstanceIndex::owned(start.clone());
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

/// The chase's index at the start of each round of a fresh run, rebuilt
/// from `start` and extended with each round's additions in firing order
/// (the push sequence of the chase's own index); the round boundaries are
/// read off the fired counts of runs tripped after each round.
fn round_start_indexes(
    start: &Instance,
    tgds: &[Tgd],
    steps: &[DerivationStep],
    rounds: usize,
) -> Vec<InstanceIndex<'static>> {
    (0..rounds)
        .map(|j| {
            let trip = ChaseBudget {
                max_rounds: j,
                ..DENSE_BUDGET
            };
            let token = CancelToken::new();
            let (tripped, _) =
                chase_checkpointing(start, tgds, ChaseVariant::Restricted, trip, &token);
            let mut index = InstanceIndex::owned(start.clone());
            for step in &steps[..tripped.stats.triggers_fired] {
                index.extend(&step.added);
            }
            index
        })
        .collect()
}

/// The dense-domain cases reach the chase's bit-row step: some round of
/// some full set starts with a chain tgd whose three predicates all keep
/// dense bits, both in round one and in a later, delta-driven round. The
/// step's exactness is then checked by the differential test above.
#[test]
fn dense_cases_reach_the_bit_row_step() {
    let (mut first, mut later) = (0, 0);
    for seed in 0..24u64 {
        let (schema, tgds) = class_set(0, seed, 1);
        let size = 12 + (seed % 13) as usize;
        let start = dense_start(schema, seed, size);
        let (result, provenance) =
            chase_with_provenance(&start, &tgds, ChaseVariant::Restricted, DENSE_BUDGET);
        let indexes = round_start_indexes(&start, &tgds, &provenance.steps, result.rounds);
        for (round, index) in indexes.iter().enumerate() {
            let stepped = tgds.iter().filter(|t| is_chain(t)).any(|t| {
                let mut preds = t.body().iter().chain(t.head()).map(|a| a.pred);
                preds.all(|p| index.bit_rows(p).is_some())
            });
            if stepped {
                *(if round == 0 { &mut first } else { &mut later }) += 1;
            }
        }
    }
    assert!(
        first > 0 && later > 0,
        "round one {first}, later rounds {later}"
    );
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
