//! Deciding expressibility in the weaker tgd classes, with fast semantic
//! refutations.
//!
//! The rewriting procedures of §9.2 are complete but doubly exponential.
//! The paper's own hardness proofs (Appendix F, direction (2) ⇒ (1)) use a
//! much cheaper *refutation* route:
//!
//! - a set equivalent to **linear** tgds is closed under **unions** of
//!   models sharing their overlap, so two models whose union violates the
//!   set refute linear expressibility outright;
//! - a set equivalent to **guarded** tgds is closed under **disjoint
//!   unions**, refuting guarded expressibility the same way.
//!
//! (Why: a linear tgd's body is one atom, living entirely inside one of the
//! union's components, whose witness head is also in the union; a guarded
//! body lives inside one disjoint-union component for the same reason.)
//!
//! [`is_linear_expressible`] / [`is_guarded_expressible`] combine the
//! refutation search over seeded sample models with the complete rewriting
//! procedures: refutations give fast definitive `No`s, Algorithm 1/2 give
//! definitive `Yes`s (and exhaustive `No`s when budgets allow).

use crate::properties::sample_members;
use crate::rewrite::{
    frontier_guarded_to_guarded, guarded_to_linear, RewriteOptions, RewriteOutcome,
};
use crate::verdict::Verdict;
use tgdkit_chase::{chase, satisfies_tgds, ChaseBudget, ChaseVariant};
use tgdkit_instance::{disjoint_union, union, Elem, Instance};
use tgdkit_logic::TgdSet;

/// Chased single-fact instances over a 2-element domain — the exact witness
/// shape of the paper's Appendix F closure arguments (e.g. `{R(c)}` and
/// `{P(c)}` for the §9.1 gadget).
fn atomic_members(set: &TgdSet) -> Vec<Instance> {
    let schema = set.schema();
    let mut out = Vec::new();
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        // Two element patterns per predicate: all-same and all-distinct.
        let patterns: Vec<Vec<Elem>> =
            vec![vec![Elem(0); arity], (0..arity as u32).map(Elem).collect()];
        for args in patterns {
            let mut inst = Instance::new(schema.clone());
            inst.add_fact(pred, args);
            let result = chase(
                &inst,
                set.tgds(),
                ChaseVariant::Restricted,
                ChaseBudget::small(),
            );
            if result.terminated() {
                out.push(result.instance);
            }
        }
    }
    out
}

/// A refutation witness: two models whose (disjoint) union violates the
/// set.
#[derive(Debug, Clone)]
pub struct UnionWitness {
    /// The first model.
    pub left: Instance,
    /// The second model.
    pub right: Instance,
    /// The violating union.
    pub union: Instance,
    /// Whether the witness used a disjoint union.
    pub disjoint: bool,
}

/// Searches seeded sample models for a union-closure violation (refutes
/// linear expressibility when found).
pub fn union_closure_witness(set: &TgdSet, samples: usize, seed: u64) -> Option<UnionWitness> {
    let mut members = atomic_members(set);
    members.extend(sample_members(
        set.schema(),
        set.tgds(),
        samples,
        4,
        0.35,
        seed,
    ));
    for (i, left) in members.iter().enumerate() {
        for right in members.iter().skip(i) {
            let joined = union(left, right);
            if !satisfies_tgds(&joined, set.tgds()) {
                return Some(UnionWitness {
                    left: left.clone(),
                    right: right.clone(),
                    union: joined,
                    disjoint: false,
                });
            }
        }
    }
    None
}

/// Searches seeded sample models for a disjoint-union-closure violation
/// (refutes guarded expressibility when found).
pub fn disjoint_union_closure_witness(
    set: &TgdSet,
    samples: usize,
    seed: u64,
) -> Option<UnionWitness> {
    let mut members = atomic_members(set);
    members.extend(sample_members(
        set.schema(),
        set.tgds(),
        samples,
        4,
        0.35,
        seed,
    ));
    for (i, left) in members.iter().enumerate() {
        for right in members.iter().skip(i) {
            let (joined, _) = disjoint_union(left, right);
            if !satisfies_tgds(&joined, set.tgds()) {
                return Some(UnionWitness {
                    left: left.clone(),
                    right: right.clone(),
                    union: joined,
                    disjoint: true,
                });
            }
        }
    }
    None
}

/// Decides whether a guarded set is expressible with linear tgds.
///
/// Fast path: a union-closure violation refutes immediately. Slow path:
/// Algorithm 1 (definitive `Yes` via a constructed rewriting; definitive
/// `No` only over an exhaustive candidate space).
pub fn is_linear_expressible(set: &TgdSet, opts: &RewriteOptions, seed: u64) -> Verdict {
    if union_closure_witness(set, 6, seed).is_some() {
        return Verdict::No;
    }
    match guarded_to_linear(set, opts) {
        RewriteOutcome::Rewritten(_) => Verdict::Yes,
        RewriteOutcome::NotRewritable => Verdict::No,
        RewriteOutcome::Inconclusive | RewriteOutcome::Cancelled | RewriteOutcome::Suspended => {
            Verdict::Unknown
        }
    }
}

/// Decides whether a frontier-guarded set is expressible with guarded tgds,
/// with the disjoint-union fast path and Algorithm 2.
pub fn is_guarded_expressible(set: &TgdSet, opts: &RewriteOptions, seed: u64) -> Verdict {
    if disjoint_union_closure_witness(set, 6, seed).is_some() {
        return Verdict::No;
    }
    match frontier_guarded_to_guarded(set, opts) {
        RewriteOutcome::Rewritten(_) => Verdict::Yes,
        RewriteOutcome::NotRewritable => Verdict::No,
        RewriteOutcome::Inconclusive | RewriteOutcome::Cancelled | RewriteOutcome::Suspended => {
            Verdict::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumOptions;
    use tgdkit_logic::{parse_tgds, Schema};

    fn set(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    fn exhaustive_opts() -> RewriteOptions {
        RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 8,
                max_body_atoms: 8,
                max_candidates: 200_000,
            },
            parallel: true,
            ..Default::default()
        }
    }

    #[test]
    fn gadget_9_1_refuted_by_union_closure() {
        // Σ_G = {R(x), P(x) -> T(x)}: the models {R(c)} and {P(c)} union to
        // a violation — no rewriting search needed.
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(x) -> T(x).");
        let witness = union_closure_witness(&sigma, 8, 1);
        assert!(witness.is_some(), "expected a union witness");
        let w = witness.unwrap();
        assert!(!w.disjoint);
        assert!(satisfies_tgds(&w.left, sigma.tgds()));
        assert!(satisfies_tgds(&w.right, sigma.tgds()));
        assert!(!satisfies_tgds(&w.union, sigma.tgds()));
        assert_eq!(
            is_linear_expressible(&sigma, &exhaustive_opts(), 1),
            Verdict::No
        );
    }

    #[test]
    fn fg_gadget_refuted_by_disjoint_union() {
        // Σ_F = {R(x), P(y) -> T(x)}: disjoint models {R(c)} and {P(d)}
        // refute guardability (the Appendix F argument verbatim).
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(y) -> T(x).");
        let witness = disjoint_union_closure_witness(&sigma, 8, 1);
        assert!(witness.is_some());
        assert_eq!(
            is_guarded_expressible(&sigma, &exhaustive_opts(), 1),
            Verdict::No
        );
    }

    #[test]
    fn linear_sets_have_no_union_witness() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> T(x). T(x) -> exists z : R(x,z).");
        assert!(union_closure_witness(&sigma, 8, 2).is_none());
        assert_eq!(
            is_linear_expressible(&sigma, &RewriteOptions::default(), 2),
            Verdict::Yes
        );
    }

    #[test]
    fn guarded_sets_have_no_disjoint_union_witness() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), T(x) -> exists z : R(y,z).");
        assert!(disjoint_union_closure_witness(&sigma, 8, 3).is_none());
    }

    #[test]
    fn expressible_sets_get_yes() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        assert_eq!(
            is_linear_expressible(&sigma, &RewriteOptions::default(), 4),
            Verdict::Yes
        );
        let mut s2 = Schema::default();
        let fg = set(&mut s2, "R(x,y) -> P(x). R(x,y), P(x) -> T(x).");
        assert_eq!(
            is_guarded_expressible(&fg, &RewriteOptions::default(), 4),
            Verdict::Yes
        );
    }
}
