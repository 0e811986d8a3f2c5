//! A deliberately naive entailment oracle: the reference the one
//! entailment pipeline (`decide`) is checked against.
//!
//! It freezes the candidate's body (variable `v` becomes the element
//! `Elem(v)`), chases the frozen instance with the naive chase of
//! `oracle.rs`, and probes the head with the exhaustive hom enumerator of
//! `homs.rs`, keeping only homomorphisms that fix each frontier variable
//! to its frozen element. There is no linear fast path, no index, no cache
//! and no countermodel search here. Include it by path next to those two
//! files, as modules `oracle` and `homs` of the test crate.

use crate::homs::all_homs;
use crate::oracle::naive_chase;
use tgdkit::prelude::*;

/// `Σ ⊨ σ` by freeze, naive chase and exhaustive head probe:
///
/// - `Proved` when the head maps into the (possibly partial) chase with
///   the frontier pinned — sound, since every chase fact follows from `Σ`
///   and the frozen body;
/// - `Disproved` when the chase terminated without such a map — its
///   result is then a model of `Σ` violating `σ`;
/// - `Unknown` otherwise: the budget ran out first.
pub fn naive_entails(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
) -> Entailment {
    let mut frozen = Instance::new(schema.clone());
    for atom in candidate.body() {
        frozen.add_fact(atom.pred, atom.args.iter().map(|v| Elem(v.0)).collect());
    }
    let run = naive_chase(&frozen, sigma, ChaseVariant::Restricted, budget);
    // The run's own bookkeeping: within budget, one provenance step per
    // fired trigger, and every null fresh beside the frozen elements.
    assert!(run.rounds <= budget.max_rounds);
    assert_eq!(run.triggers_fired, run.steps.len());
    assert!(run.nulls.iter().all(|&n| n >= frozen.fresh_elem()));
    // Universal variables missing from the head stay unbound (`None`).
    let pinned = |binding: &Vec<Option<Elem>>| {
        (0..candidate.universal_count())
            .all(|v| binding[v].is_none() || binding[v] == Some(Elem(v as u32)))
    };
    let homs = all_homs(candidate.head(), candidate.var_count(), &run.facts);
    if homs.iter().any(pinned) {
        Entailment::Proved
    } else if run.outcome == ChaseOutcome::Terminated {
        Entailment::Disproved
    } else {
        Entailment::Unknown
    }
}
