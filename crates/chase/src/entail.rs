//! Dependency entailment `Σ ⊨ σ` via freezing and chasing
//! (Maier–Mendelzon–Sagiv \[13\]; paper §9.2 uses exactly this reduction to
//! conjunctive query answering).
//!
//! One pipeline decides tgd entailment: [`decide`] runs the candidate as a
//! one-member body group through the evaluator behind the candidate sweep
//! ([`crate::cache::sweep`]) — linear backward-rewriting fast path,
//! budgeted chase of the frozen body, head probe, finite countermodel
//! search on `Unknown`. [`decide_all`] conjoins it over a set, and the
//! plain forms ([`entails_auto`], [`entails_all`], [`equivalent`],
//! [`crate::entails_auto_cached`]) call these two. [`entails`] is the
//! chase-only procedure on its own, sharing the head probe.

use crate::cache::{evaluate_group, sigma_fingerprint, BodyGroup, EntailBatchStats, EntailCache};
use crate::chase::{chase_indexed, ChaseBudget, ChaseOutcome};
use crate::govern::CancelToken;
use std::borrow::Cow;
use std::ops::ControlFlow;
use tgdkit_hom::{for_each_hom_reusing, Binding, InstanceIndex};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{tgd_variant_key, Atom, Edd, EddDisjunct, Egd, Schema, Tgd, TgdVariantKey, Var};

/// A three-valued entailment verdict.
///
/// `Proved` and `Disproved` are definitive; `Unknown` means the chase budget
/// ran out before the question was settled (possible only for non-weakly-
/// acyclic sets with existentials).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entailment {
    /// `Σ ⊨ σ` holds.
    Proved,
    /// `Σ ⊭ σ`: a countermodel was constructed.
    Disproved,
    /// The chase budget was exhausted before an answer was found.
    Unknown,
}

impl Entailment {
    /// `true` for [`Entailment::Proved`].
    pub fn is_proved(self) -> bool {
        self == Entailment::Proved
    }

    /// `true` for [`Entailment::Disproved`].
    pub fn is_disproved(self) -> bool {
        self == Entailment::Disproved
    }

    /// Three-valued conjunction: all proved → proved; any disproved →
    /// disproved; otherwise unknown.
    pub fn and(self, other: Entailment) -> Entailment {
        use Entailment::*;
        match (self, other) {
            (Disproved, _) | (_, Disproved) => Disproved,
            (Proved, Proved) => Proved,
            _ => Unknown,
        }
    }
}

/// Freezes a conjunction: each variable `v` becomes the element
/// `Elem(v)`. Returns the frozen instance (dom = adom).
fn freeze(schema: &Schema, atoms: &[Atom<Var>]) -> Instance {
    let mut out = Instance::new(schema.clone());
    for atom in atoms {
        out.add_fact(atom.pred, atom.args.iter().map(|v| Elem(v.0)).collect());
    }
    out
}

/// Freezes the body of a tgd: each universal variable becomes a distinct
/// element `Elem(0..n)`. Returns the frozen instance (dom = adom).
pub fn freeze_body(schema: &Schema, tgd: &Tgd) -> Instance {
    freeze(schema, tgd.body())
}

/// The head probe of freeze-and-chase entailment: whether `atoms` map into
/// `index` with the variables `0..pinned` fixed to their frozen elements
/// `Elem(0..pinned)`. `fixed` is a buffer reused across probes.
pub(crate) fn holds_pinned(
    atoms: &[Atom<Var>],
    var_count: usize,
    pinned: usize,
    index: &InstanceIndex<'_>,
    fixed: &mut Binding,
) -> bool {
    fixed.clear();
    fixed.resize(var_count, None);
    for (v, slot) in fixed.iter_mut().enumerate().take(pinned) {
        *slot = Some(Elem(v as u32));
    }
    let mut holds = false;
    for_each_hom_reusing(atoms, var_count, index, fixed, &mut |_| {
        holds = true;
        ControlFlow::Break(())
    });
    holds
}

/// Decides `Σ ⊨ σ` for sets of tgds by chasing the frozen body of `σ` and
/// testing the head as a conjunctive query with the frontier pinned to the
/// frozen elements.
///
/// - `Proved` is sound even when the chase was truncated (every chase fact
///   is a consequence of `Σ` and the frozen body).
/// - `Disproved` is reported only from a terminated chase, whose result is
///   then a model of `Σ` violating `σ`.
///
/// ```
/// use tgdkit_logic::{parse_tgd, parse_tgds, Schema};
/// use tgdkit_chase::{entails, ChaseBudget, Entailment};
/// let mut schema = Schema::default();
/// let sigma = parse_tgds(&mut schema, "E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z).").unwrap();
/// let sym_trans = parse_tgd(&mut schema, "E(x,y) -> E(x,x)").unwrap();
/// assert_eq!(entails(&schema, &sigma, &sym_trans, ChaseBudget::default()), Entailment::Proved);
/// let wrong = parse_tgd(&mut schema, "E(x,y) -> P(x)").unwrap();
/// assert_eq!(entails(&schema, &sigma, &wrong, ChaseBudget::default()), Entailment::Disproved);
/// ```
pub fn entails(schema: &Schema, sigma: &[Tgd], candidate: &Tgd, budget: ChaseBudget) -> Entailment {
    let frozen = freeze_body(schema, candidate);
    let run = chase_indexed(&frozen, sigma, budget, &CancelToken::new());
    let (head, vars) = (candidate.head(), candidate.var_count());
    if holds_pinned(
        head,
        vars,
        candidate.universal_count(),
        &run.index,
        &mut Vec::new(),
    ) {
        Entailment::Proved
    } else if run.outcome == ChaseOutcome::Terminated {
        Entailment::Disproved
    } else {
        Entailment::Unknown
    }
}

/// Decides `Σ ⊨ ε` for an egd under a set of *tgds*: trivial egds
/// (`x = x`) are proved outright, and every other egd is disproved. A tgd
/// chase never merges elements, and every tgd set has a model extending
/// any instance, so some model of `Σ` contains the frozen body with
/// `lhs ≠ rhs`. `schema`, `sigma` and `budget` do not affect the verdict.
///
/// (This is the semantic engine behind paper Lemma 4.9 / Step 3: critical
/// instances show that tgd-ontologies never force equalities.)
pub fn entails_egd(
    _schema: &Schema,
    _sigma: &[Tgd],
    egd: &Egd,
    _budget: ChaseBudget,
) -> Entailment {
    if egd.is_trivial() {
        Entailment::Proved
    } else {
        Entailment::Disproved
    }
}

/// Decides `Σ ⊨ δ` for an edd under a set of **tgds** by freezing the
/// edd's body and chasing: the chase is hom-universal among models
/// containing the frozen body, so
///
/// - if the (possibly partial) chase satisfies some existential disjunct
///   with the frontier pinned, every model does — `Proved`;
/// - equality disjuncts over distinct frozen elements can never be
///   satisfied under a tgd-only chase (no merging), so they contribute
///   nothing beyond trivial `x = x` disjuncts;
/// - if a terminated chase satisfies no disjunct, it is a countermodel —
///   `Disproved`.
///
/// This makes the paper's Step 1 (`Σ^∨ = {δ ∈ E_{n,m} | O ⊨ δ}`) exactly
/// computable for TGD-ontologies.
pub fn entails_edd_under_tgds(
    schema: &Schema,
    sigma: &[Tgd],
    edd: &Edd,
    budget: ChaseBudget,
) -> Entailment {
    // Trivial equality disjunct ⇒ tautology.
    if edd
        .disjuncts()
        .iter()
        .any(|d| matches!(d, EddDisjunct::Eq(a, b) if a == b))
    {
        return Entailment::Proved;
    }
    let run = chase_indexed(
        &freeze(schema, edd.body()),
        sigma,
        budget,
        &CancelToken::new(),
    );
    let n = edd.universal_count();
    let mut fixed = Vec::new();
    // Non-trivial equality disjuncts never hold on the frozen distinct
    // elements (tgd chases do not merge), so only existential ones count.
    let proved = edd.disjuncts().iter().any(|disjunct| match disjunct {
        EddDisjunct::Exists(atoms) => {
            let vars = atoms
                .iter()
                .flat_map(|a| &a.args)
                .map(|v| v.index() + 1)
                .max()
                .unwrap_or(0)
                .max(n);
            holds_pinned(atoms, vars, n, &run.index, &mut fixed)
        }
        EddDisjunct::Eq(..) => false,
    });
    if proved {
        Entailment::Proved
    } else if run.outcome == ChaseOutcome::Terminated {
        Entailment::Disproved
    } else {
        Entailment::Unknown
    }
}

/// Decides `Σ ⊨ σ` for one tgd: the single entry point of the entailment
/// pipeline. The candidate runs, as given (not canonicalized), as a
/// one-member body group through the sweep's group evaluator:
///
/// 1. for all-linear `sigma`, the exact backward-rewriting procedure
///    ([`crate::linear::entails_linear`]) — total in practice;
/// 2. the budgeted chase of the frozen body and a head probe, as in
///    [`entails`] — sound `Proved`, terminating `Disproved`;
/// 3. on a chase `Unknown`, finite countermodel search
///    ([`crate::countermodel::refute_by_countermodel`]) — definitive
///    `Disproved` when a small countermodel exists (always, for guarded
///    sets with a large enough budget, by the finite model property).
///
/// With a `cache`, the verdict is looked up under the candidate's variant
/// key first and stored afterwards; an `Unknown` reached under a tainted
/// token ([`CancelToken::is_tainted`]) is returned but not stored. Every
/// stage observes `token` and degrades to `Unknown` when cut off; a
/// cancelled body chase settles `Unknown` without probing its partial
/// instance. Injected [`crate::FaultSite::MemBudgetTrip`]s are masked, as
/// in the sweep, and there is no panic barrier.
pub fn decide(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
    cache: Option<&EntailCache>,
    token: &CancelToken,
) -> Entailment {
    let keyed = cache.map(|c| (c, sigma_fingerprint(sigma)));
    decide_keyed(schema, sigma, candidate, budget, keyed, token)
}

/// [`decide`] with the `Σ` fingerprint already computed alongside the
/// cache, so [`decide_all`] fingerprints its set once.
fn decide_keyed(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
    keyed: Option<(&EntailCache, u64)>,
    token: &CancelToken,
) -> Entailment {
    // The key is read only for cache lookups and stores; without a cache
    // an empty placeholder spares the canonical ordering search.
    let key = match keyed {
        Some(_) => tgd_variant_key(candidate),
        None => TgdVariantKey::default(),
    };
    let group = BodyGroup {
        members: vec![(0, Cow::Borrowed(candidate), Cow::Owned(key))],
    };
    let mut stats = EntailBatchStats::default();
    evaluate_group(schema, sigma, &group, budget, keyed, &mut stats, token)[0].1
}

/// `Σ ⊨ Σ'`: the three-valued conjunction of [`decide`] over
/// `candidates`, in order, stopping at the first `Disproved`. A
/// cancellation observed between candidates degrades the conjunction to
/// `Unknown` (never a false `Proved` from an unfinished run) unless some
/// candidate already disproved it.
pub fn decide_all(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    cache: Option<&EntailCache>,
    token: &CancelToken,
) -> Entailment {
    let keyed = cache.map(|c| (c, sigma_fingerprint(sigma)));
    let mut acc = Entailment::Proved;
    for c in candidates {
        if token.is_cancelled() {
            return acc.and(Entailment::Unknown);
        }
        acc = acc.and(decide_keyed(schema, sigma, c, budget, keyed, token));
        if acc == Entailment::Disproved {
            return acc;
        }
    }
    acc
}

/// [`decide`] without a cache or a token.
pub fn entails_auto(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
) -> Entailment {
    decide(schema, sigma, candidate, budget, None, &CancelToken::new())
}

/// [`decide`] through an [`EntailCache`], without a token.
pub fn entails_auto_cached(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
    cache: &EntailCache,
) -> Entailment {
    decide(
        schema,
        sigma,
        candidate,
        budget,
        Some(cache),
        &CancelToken::new(),
    )
}

/// `Σ ⊨ Σ'` for sets of tgds: [`decide_all`] without a cache or a token.
pub fn entails_all(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
) -> Entailment {
    decide_all(schema, sigma, candidates, budget, None, &CancelToken::new())
}

/// Logical equivalence `Σ ≡ Σ'` of two sets of tgds.
pub fn equivalent(schema: &Schema, a: &[Tgd], b: &[Tgd], budget: ChaseBudget) -> Entailment {
    entails_all(schema, a, b, budget).and(entails_all(schema, b, a, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_logic::{parse_dependencies, parse_tgd, parse_tgds};

    #[test]
    fn subset_entails_member() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        assert_eq!(
            entails(&s, &sigma, &sigma[0], ChaseBudget::default()),
            Entailment::Proved
        );
    }

    #[test]
    fn existential_entailment() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "P(x) -> exists z : E(x,z). E(x,y) -> Q(y).").unwrap();
        let derived = parse_tgd(&mut s, "P(x) -> exists w : E(x,w), Q(w)").unwrap();
        assert_eq!(
            entails(&s, &sigma, &derived, ChaseBudget::default()),
            Entailment::Proved
        );
        let too_strong = parse_tgd(&mut s, "P(x) -> E(x,x)").unwrap();
        assert_eq!(
            entails(&s, &sigma, &too_strong, ChaseBudget::default()),
            Entailment::Disproved
        );
    }

    #[test]
    fn weakening_is_entailed() {
        let mut s = Schema::default();
        // Guarded rule entails its linear weakenings? No — but a rule with a
        // stronger body is entailed by one with a weaker body.
        let sigma = parse_tgds(&mut s, "R(x) -> T(x).").unwrap();
        let weaker = parse_tgd(&mut s, "R(x), P(x) -> T(x)").unwrap();
        assert_eq!(
            entails(&s, &sigma, &weaker, ChaseBudget::default()),
            Entailment::Proved
        );
        // And not conversely.
        let sigma2 = parse_tgds(&mut s, "R(x), P(x) -> T(x).").unwrap();
        let stronger = parse_tgd(&mut s, "R(x) -> T(x)").unwrap();
        assert_eq!(
            entails(&s, &sigma2, &stronger, ChaseBudget::default()),
            Entailment::Disproved
        );
    }

    #[test]
    fn unknown_on_divergent_unsettled_queries() {
        let mut s = Schema::default();
        // Diverging chase; candidate head never appears.
        let sigma = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let candidate = parse_tgd(&mut s, "E(x,y) -> P(x)").unwrap();
        let verdict = entails(
            &s,
            &sigma,
            &candidate,
            ChaseBudget {
                max_facts: 200,
                max_rounds: 50,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(verdict, Entailment::Unknown);
    }

    #[test]
    fn egd_disproved_under_tgds() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "R(x,y) -> R(y,x).").unwrap();
        let deps = parse_dependencies(&mut s, "R(x,y) -> x = y.").unwrap();
        let egd = deps[0].as_egd().unwrap().clone();
        assert_eq!(
            entails_egd(&s, &sigma, &egd, ChaseBudget::default()),
            Entailment::Disproved
        );
        let trivial = parse_dependencies(&mut s, "R(x,y) -> x = x.").unwrap();
        let egd2 = trivial[0].as_egd().unwrap().clone();
        assert_eq!(
            entails_egd(&s, &sigma, &egd2, ChaseBudget::default()),
            Entailment::Proved
        );
    }

    #[test]
    fn equivalence_of_reformulations() {
        let mut s = Schema::default();
        let a = parse_tgds(&mut s, "E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z).").unwrap();
        // Same theory, transitivity stated through the symmetric flip.
        let b = parse_tgds(&mut s, "E(x,y) -> E(y,x). E(y,x), E(y,z) -> E(x,z).").unwrap();
        assert_eq!(
            equivalent(&s, &a, &b, ChaseBudget::default()),
            Entailment::Proved
        );
        let c = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        assert_eq!(
            equivalent(&s, &a, &c, ChaseBudget::default()),
            Entailment::Disproved
        );
    }

    #[test]
    fn empty_sigma_entails_only_tautologies() {
        let mut s = Schema::default();
        let taut = parse_tgd(&mut s, "E(x,y) -> E(x,y)").unwrap();
        assert_eq!(
            entails(&s, &[], &taut, ChaseBudget::default()),
            Entailment::Proved
        );
        let nontaut = parse_tgd(&mut s, "E(x,y) -> E(y,x)").unwrap();
        assert_eq!(
            entails(&s, &[], &nontaut, ChaseBudget::default()),
            Entailment::Disproved
        );
    }

    #[test]
    fn edd_entailment_under_tgds() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "P(x) -> Q(x).").unwrap();
        // P(x) -> Q(x) | R(x) is entailed (first disjunct).
        let deps = parse_dependencies(&mut s, "P(x) -> Q(x) | R(x).").unwrap();
        let edd = match &deps[0] {
            tgdkit_logic::Dependency::Edd(e) => e.clone(),
            other => panic!("expected edd, got {other:?}"),
        };
        assert_eq!(
            entails_edd_under_tgds(&s, &sigma, &edd, ChaseBudget::default()),
            Entailment::Proved
        );
        // Q(x) -> P(x) | R(x) is not.
        let deps2 = parse_dependencies(&mut s, "Q(x) -> P(x) | R(x).").unwrap();
        let edd2 = match &deps2[0] {
            tgdkit_logic::Dependency::Edd(e) => e.clone(),
            other => panic!("expected edd, got {other:?}"),
        };
        assert_eq!(
            entails_edd_under_tgds(&s, &sigma, &edd2, ChaseBudget::default()),
            Entailment::Disproved
        );
        // Equality disjuncts are never satisfied by tgd chases: the dd
        // R(x,y) -> x = y | P(x) reduces to its tgd disjunct.
        let sigma2 = parse_tgds(&mut s, "S2(x,y) -> P(x).").unwrap();
        let deps3 = parse_dependencies(&mut s, "S2(x,y) -> x = y | P(x).").unwrap();
        let edd3 = match &deps3[0] {
            tgdkit_logic::Dependency::Edd(e) => e.clone(),
            other => panic!("expected edd, got {other:?}"),
        };
        assert_eq!(
            entails_edd_under_tgds(&s, &sigma2, &edd3, ChaseBudget::default()),
            Entailment::Proved
        );
        assert_eq!(
            entails_edd_under_tgds(&s, &[], &edd3, ChaseBudget::default()),
            Entailment::Disproved
        );
        // Trivial equality: tautology even under the empty set.
        let deps4 = parse_dependencies(&mut s, "S2(x,y) -> x = x | P(x).").unwrap();
        let edd4 = match &deps4[0] {
            tgdkit_logic::Dependency::Edd(e) => e.clone(),
            other => panic!("expected edd, got {other:?}"),
        };
        assert_eq!(
            entails_edd_under_tgds(&s, &[], &edd4, ChaseBudget::default()),
            Entailment::Proved
        );
    }

    #[test]
    fn empty_body_candidates() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "true -> exists x : P(x). P(x) -> Q(x).").unwrap();
        let candidate = parse_tgd(&mut s, "true -> exists x : Q(x)").unwrap();
        assert_eq!(
            entails(&s, &sigma, &candidate, ChaseBudget::default()),
            Entailment::Proved
        );
    }
}
