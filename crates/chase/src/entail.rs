//! Dependency entailment `Σ ⊨ σ` via freezing and chasing
//! (Maier–Mendelzon–Sagiv \[13\]; paper §9.2 uses exactly this reduction to
//! conjunctive query answering).

use crate::chase::{chase_governed, ChaseBudget, ChaseOutcome, ChaseVariant};
use crate::govern::CancelToken;
use crate::stats::ChaseStats;
use tgdkit_hom::{Binding, Cq};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{Edd, EddDisjunct, Egd, Schema, Tgd};

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

/// Freezes the body of a tgd: each universal variable becomes a distinct
/// element `Elem(0..n)`. Returns the frozen instance (dom = adom).
pub fn freeze_body(schema: &Schema, tgd: &Tgd) -> Instance {
    let mut out = Instance::new(schema.clone());
    for atom in tgd.body() {
        let args: Vec<Elem> = atom.args.iter().map(|v| Elem(v.0)).collect();
        out.add_fact(atom.pred, args);
    }
    out
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
    entails_with_stats(schema, sigma, candidate, budget).0
}

/// As [`entails`], additionally reporting the inner chase's [`ChaseStats`]
/// (so callers sweeping many candidates can aggregate engine work).
pub fn entails_with_stats(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
) -> (Entailment, ChaseStats) {
    entails_with_stats_governed(schema, sigma, candidate, budget, &CancelToken::new())
}

/// [`entails_with_stats`] under a [`CancelToken`]: the inner chase stops
/// within one round of cancellation. A cancelled chase can still settle
/// `Proved` (the partial chase is a sound set of consequences); `Disproved`
/// requires a terminated chase, which a cancelled run never reports — so
/// cancellation degrades to `Unknown`, never inverts a verdict.
pub fn entails_with_stats_governed(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
    token: &CancelToken,
) -> (Entailment, ChaseStats) {
    let frozen = freeze_body(schema, candidate);
    let result = chase_governed(&frozen, sigma, ChaseVariant::Restricted, budget, token);
    let head_cq = Cq::boolean(candidate.head().to_vec());
    let mut fixed: Binding = vec![None; candidate.var_count()];
    for (v, slot) in fixed
        .iter_mut()
        .enumerate()
        .take(candidate.universal_count())
    {
        *slot = Some(Elem(v as u32));
    }
    let verdict = if head_cq.holds_with(&result.instance, &fixed) {
        Entailment::Proved
    } else if result.outcome == ChaseOutcome::Terminated {
        Entailment::Disproved
    } else {
        Entailment::Unknown
    };
    (verdict, result.stats)
}

/// Decides `Σ ⊨ ε` for an egd under a set of *tgds*: a chase with tgds never
/// merges the distinct frozen elements, so a non-trivial egd is disproved by
/// any terminated chase; trivial egds (`x = x`) are proved outright.
///
/// (This is the semantic engine behind paper Lemma 4.9 / Step 3: critical
/// instances show that tgd-ontologies never force equalities.)
pub fn entails_egd(schema: &Schema, sigma: &[Tgd], egd: &Egd, budget: ChaseBudget) -> Entailment {
    if egd.is_trivial() {
        return Entailment::Proved;
    }
    let mut frozen = Instance::new(schema.clone());
    for atom in egd.body() {
        let args: Vec<Elem> = atom.args.iter().map(|v| Elem(v.0)).collect();
        frozen.add_fact(atom.pred, args);
    }
    let result = chase_governed(
        &frozen,
        sigma,
        ChaseVariant::Restricted,
        budget,
        &CancelToken::new(),
    );
    if result.outcome == ChaseOutcome::Terminated {
        // The chase result is a model of Σ in which the frozen body holds
        // with lhs ≠ rhs.
        Entailment::Disproved
    } else {
        // Still disproved in spirit (tgds cannot merge elements), but the
        // witness is not a model; report Unknown only if a caller insists on
        // model-backed answers. Tgd chases never equate elements, so we can
        // safely disprove.
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
    entails_edd_under_tgds_governed(schema, sigma, edd, budget, &CancelToken::new())
}

/// [`entails_edd_under_tgds`] under a [`CancelToken`]: a cancelled chase
/// still proves satisfied disjuncts soundly, and lands `Unknown` (never
/// `Disproved`) when no disjunct holds, since the non-terminated result is
/// not a countermodel.
pub fn entails_edd_under_tgds_governed(
    schema: &Schema,
    sigma: &[Tgd],
    edd: &Edd,
    budget: ChaseBudget,
    token: &CancelToken,
) -> Entailment {
    // Trivial equality disjunct ⇒ tautology.
    if edd
        .disjuncts()
        .iter()
        .any(|d| matches!(d, EddDisjunct::Eq(a, b) if a == b))
    {
        return Entailment::Proved;
    }
    let mut frozen = Instance::new(schema.clone());
    for atom in edd.body() {
        frozen.add_fact(atom.pred, atom.args.iter().map(|v| Elem(v.0)).collect());
    }
    let result = chase_governed(&frozen, sigma, ChaseVariant::Restricted, budget, token);
    let n = edd.universal_count();
    for disjunct in edd.disjuncts() {
        if let EddDisjunct::Exists(atoms) = disjunct {
            let cq = Cq::boolean(atoms.to_vec());
            let mut fixed: Binding = vec![None; cq.var_count().max(n)];
            for (v, slot) in fixed.iter_mut().enumerate().take(n) {
                *slot = Some(Elem(v as u32));
            }
            if cq.holds_with(&result.instance, &fixed) {
                return Entailment::Proved;
            }
        }
        // Non-trivial equality disjuncts never hold on the frozen distinct
        // elements (tgd chases do not merge).
    }
    if result.outcome == ChaseOutcome::Terminated {
        Entailment::Disproved
    } else {
        Entailment::Unknown
    }
}

/// Dispatching entailment, combining every decision procedure in the
/// crate:
///
/// 1. for all-linear `sigma`, the exact backward-rewriting procedure
///    ([`crate::linear::entails_linear`]) — total in practice;
/// 2. the budgeted chase ([`entails`]) — sound `Proved`, terminating
///    `Disproved`;
/// 3. on a chase `Unknown`, finite countermodel search
///    ([`crate::countermodel::refute_by_countermodel`]) — definitive
///    `Disproved` when a small countermodel exists (always, for guarded
///    sets with a large enough budget, by the finite model property).
pub fn entails_auto(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
) -> Entailment {
    entails_auto_governed(schema, sigma, candidate, budget, &CancelToken::new())
}

/// [`entails_auto`] under a [`CancelToken`]: every stage (linear
/// saturation, chase, countermodel search) observes the token and degrades
/// to `Unknown` when cut off.
pub fn entails_auto_governed(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: ChaseBudget,
    token: &CancelToken,
) -> Entailment {
    if !sigma.is_empty() && sigma.iter().all(Tgd::is_linear) {
        // Saturation cap proportional to the chase budget's appetite.
        let verdict = crate::linear::entails_linear_governed(
            schema,
            sigma,
            candidate,
            budget.max_facts.max(10_000),
            token,
        );
        if verdict != Entailment::Unknown {
            return verdict;
        }
    }
    match entails_with_stats_governed(schema, sigma, candidate, budget, token).0 {
        Entailment::Unknown if token.is_cancelled() => Entailment::Unknown,
        Entailment::Unknown => crate::countermodel::refute_by_countermodel_governed(
            schema,
            sigma,
            candidate,
            &crate::countermodel::SearchBudget::default(),
            token,
        ),
        verdict => verdict,
    }
}

/// `Σ ⊨ Σ'` for sets of tgds (three-valued conjunction over the members).
pub fn entails_all(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
) -> Entailment {
    entails_all_governed(schema, sigma, candidates, budget, &CancelToken::new())
}

/// [`entails_all`] under a [`CancelToken`]: members not reached before
/// cancellation contribute `Unknown` to the conjunction.
pub fn entails_all_governed(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    token: &CancelToken,
) -> Entailment {
    let mut acc = Entailment::Proved;
    for c in candidates {
        if token.is_cancelled() {
            return acc.and(Entailment::Unknown);
        }
        acc = acc.and(entails_auto_governed(schema, sigma, c, budget, token));
        if acc == Entailment::Disproved {
            return acc;
        }
    }
    acc
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
