//! The constructive direction of Theorem 4.1 (paper §4.2): synthesizing a
//! `TGD_{n,m}` axiomatization of an ontology from a membership oracle.
//!
//! The proof proceeds in three steps:
//!
//! 1. `Σ^∨` — all edds from the finite family `E_{n,m}` satisfied by every
//!    member of `O`;
//! 2. `Σ^∃,=` — the tgds and egds among them (equivalent to `Σ^∨` by
//!    ⊗-closure, Lemma 4.7);
//! 3. `Σ^∃` — the tgds among those (equivalent by criticality, Lemma 4.9).
//!
//! This module implements the pipeline twice:
//!
//! - [`edd_pipeline`] runs the literal three-step construction against a
//!   [`FiniteOntology`] (where "satisfied by every member" is checkable),
//!   returning all three intermediate sets — the shape of the proof as an
//!   executable artifact;
//! - [`recover_tgds`] runs the end result against a [`crate::TgdOntology`] with a
//!   hidden specification `Σ`: it enumerates candidate tgds in `TGD_{n,m}`
//!   and keeps those entailed by `Σ` (by Lemma 4.4 + Steps 2–3, the kept
//!   set axiomatizes the same ontology), then verifies `Σ_synth ≡ Σ`.
//!
//! Both are exponential-space searches driven by the same atom budgets as
//! the rewriting procedures; `exhaustive` flags report whether the budgets
//! covered the full `E_{n,m}` / `TGD_{n,m}` space.

use crate::enumerate::{all_candidates, atom_universe, EnumOptions};
use crate::ontology::{FiniteOntology, Ontology};
use crate::rewrite::minimize;
use tgdkit_chase::{
    entails_batch, entails_edd_under_tgds, equivalent, satisfies_edd, satisfies_egd, satisfies_tgd,
    CancelToken, ChaseBudget, Entailment,
};
use tgdkit_logic::{conjunction_vars, Atom, Edd, EddDisjunct, Egd, Tgd, TgdSet, Var};

/// The three intermediate sets of the Theorem 4.1 construction.
#[derive(Debug, Clone)]
pub struct EddPipeline {
    /// Step 1: the edds of (budgeted) `E_{n,m}` satisfied by every member.
    pub sigma_vee: Vec<Edd>,
    /// Step 2: the tgds and egds among them.
    pub sigma_exists_eq: (Vec<Tgd>, Vec<Egd>),
    /// Step 3: the tgds alone.
    pub sigma_exists: Vec<Tgd>,
    /// Whether the enumeration covered the full `E_{n,m}`.
    pub exhaustive: bool,
}

/// Budgets for edd enumeration.
#[derive(Debug, Clone, Copy)]
pub struct EddEnumOptions {
    /// Maximum atoms per edd body.
    pub max_body_atoms: usize,
    /// Maximum atoms per existential disjunct.
    pub max_disjunct_atoms: usize,
    /// Maximum number of disjuncts.
    pub max_disjuncts: usize,
}

impl Default for EddEnumOptions {
    fn default() -> Self {
        EddEnumOptions {
            max_body_atoms: 2,
            max_disjunct_atoms: 1,
            max_disjuncts: 2,
        }
    }
}

/// Enumerates (a budgeted fragment of) the family `E_{n,m}` of paper §4.2
/// Step 1: edds with at most `n` universal variables whose disjuncts each
/// mention at most `m` existential variables.
pub fn enumerate_edds(
    schema: &tgdkit_logic::Schema,
    n: usize,
    m: usize,
    opts: &EddEnumOptions,
) -> (Vec<Edd>, bool) {
    let body_universe = atom_universe(schema, n);
    let mut exhaustive = opts.max_body_atoms >= body_universe.len();
    // Bodies: subsets (incl. empty) of the universe over n vars.
    let mut bodies: Vec<Vec<Atom<Var>>> = vec![Vec::new()];
    subsets_into(&body_universe, opts.max_body_atoms, &mut bodies);

    let mut out = Vec::new();
    for body in &bodies {
        let body_vars = conjunction_vars(body);
        let k = body_vars.len();
        // Disjunct pool: equalities over body vars + single-conjunction
        // existential disjuncts over k + m vars.
        let mut pool: Vec<EddDisjunct> = Vec::new();
        for (i, &a) in body_vars.iter().enumerate() {
            for &b in body_vars.iter().skip(i + 1) {
                pool.push(EddDisjunct::Eq(a, b));
            }
        }
        let head_universe = atom_universe(schema, k + m);
        exhaustive &= opts.max_disjunct_atoms >= 1;
        let mut conjunctions: Vec<Vec<Atom<Var>>> = Vec::new();
        subsets_into(&head_universe, opts.max_disjunct_atoms, &mut conjunctions);
        exhaustive &= opts.max_disjunct_atoms >= head_universe.len();
        for conj in conjunctions {
            if !conj.is_empty() {
                pool.push(EddDisjunct::Exists(conj));
            }
        }
        exhaustive &= opts.max_disjuncts >= pool.len();
        // Disjunct subsets of size 1..max_disjuncts.
        let mut selections: Vec<Vec<EddDisjunct>> = Vec::new();
        subsets_into(&pool, opts.max_disjuncts, &mut selections);
        for selection in selections {
            if selection.is_empty() {
                continue;
            }
            if let Ok(edd) = Edd::new(body.clone(), selection) {
                out.push(edd);
            }
        }
    }
    (out, exhaustive)
}

fn subsets_into<T: Clone>(universe: &[T], cap: usize, out: &mut Vec<Vec<T>>) {
    fn go<T: Clone>(
        universe: &[T],
        start: usize,
        cap: usize,
        acc: &mut Vec<T>,
        out: &mut Vec<Vec<T>>,
    ) {
        if acc.len() == cap {
            return;
        }
        for i in start..universe.len() {
            acc.push(universe[i].clone());
            out.push(acc.clone());
            go(universe, i + 1, cap, acc, out);
            acc.pop();
        }
    }
    let mut acc = Vec::new();
    go(universe, 0, cap, &mut acc, out);
}

/// The Theorem 5.6 / Appendix B pipeline for **full** tgds: enumerate
/// (budgeted) **disjunctive dependencies** (dds — edds without existential
/// variables, single-atom disjuncts), keep those satisfied by every member,
/// and extract the full tgds (the `Σ` of Lemma B.5).
#[derive(Debug, Clone)]
pub struct DdPipeline {
    /// The dds satisfied by every member (the `Σ^∨` of Appendix B).
    pub sigma_vee: Vec<Edd>,
    /// The full tgds among them (Lemma B.5's `Σ`).
    pub sigma_full: Vec<Tgd>,
    /// Whether the enumeration covered the full dd space for `(n, bodies)`.
    pub exhaustive: bool,
}

/// Runs the Appendix B construction against a finite ontology: dds over at
/// most `n` variables with bodies of at most `opts.max_body_atoms` atoms.
pub fn dd_pipeline(ontology: &FiniteOntology, n: usize, opts: &EddEnumOptions) -> DdPipeline {
    let (candidates, exhaustive) = enumerate_edds(
        ontology.schema(),
        n,
        0, // dds have no existential variables
        &EddEnumOptions {
            max_disjunct_atoms: 1, // dd disjuncts are single atoms
            ..*opts
        },
    );
    let sigma_vee: Vec<Edd> = candidates
        .into_iter()
        .filter(Edd::is_dd)
        .filter(|dd| ontology.members().iter().all(|i| satisfies_edd(i, dd)))
        .collect();
    let sigma_full: Vec<Tgd> = sigma_vee
        .iter()
        .filter_map(Edd::to_tgd)
        .filter(Tgd::is_full)
        .collect();
    DdPipeline {
        sigma_vee,
        sigma_full,
        exhaustive,
    }
}

/// Runs the literal Steps 1–3 of Theorem 4.1 against a finite ontology.
pub fn edd_pipeline(
    ontology: &FiniteOntology,
    n: usize,
    m: usize,
    opts: &EddEnumOptions,
) -> EddPipeline {
    let (candidates, exhaustive) = enumerate_edds(ontology.schema(), n, m, opts);
    // Step 1: keep the edds satisfied by every member.
    let sigma_vee: Vec<Edd> = candidates
        .into_iter()
        .filter(|edd| ontology.members().iter().all(|i| satisfies_edd(i, edd)))
        .collect();
    // Step 2: the tgds and egds among them.
    let tgds: Vec<Tgd> = sigma_vee.iter().filter_map(Edd::to_tgd).collect();
    let egds: Vec<Egd> = sigma_vee.iter().filter_map(Edd::to_egd).collect();
    // Step 3: the tgds alone.
    let sigma_exists = tgds.clone();
    EddPipeline {
        sigma_vee,
        sigma_exists_eq: (tgds, egds),
        sigma_exists,
        exhaustive,
    }
}

/// Runs the literal Steps 1–3 of Theorem 4.1 against a **TGD-ontology**,
/// where Step 1's "satisfied by every member" is decided exactly by
/// [`entails_edd_under_tgds`] (chase universality). Edds whose entailment
/// check times out are conservatively excluded from `Σ^∨`.
pub fn edd_pipeline_for_tgd_ontology(
    hidden: &tgdkit_logic::TgdSet,
    n: usize,
    m: usize,
    opts: &EddEnumOptions,
    budget: ChaseBudget,
) -> EddPipeline {
    let (candidates, exhaustive) = enumerate_edds(hidden.schema(), n, m, opts);
    let sigma_vee: Vec<Edd> = candidates
        .into_iter()
        .filter(|edd| {
            entails_edd_under_tgds(hidden.schema(), hidden.tgds(), edd, budget)
                == Entailment::Proved
        })
        .collect();
    let tgds: Vec<Tgd> = sigma_vee.iter().filter_map(Edd::to_tgd).collect();
    let egds: Vec<Egd> = sigma_vee.iter().filter_map(Edd::to_egd).collect();
    let sigma_exists = tgds.clone();
    EddPipeline {
        sigma_vee,
        sigma_exists_eq: (tgds, egds),
        sigma_exists,
        exhaustive,
    }
}

/// The result of a synthesis run against a hidden tgd set.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The synthesized set `Σ^∃` (minimized).
    pub tgds: Vec<Tgd>,
    /// Number of candidates examined.
    pub candidates: usize,
    /// Whether `Σ_synth ≡ Σ` was verified by the chase.
    pub equivalent: Entailment,
    /// Whether the candidate space covered `TGD_{n,m}` exhaustively.
    pub exhaustive: bool,
}

/// Recovers an axiomatization of the ontology of `hidden` from entailment
/// alone: enumerates `TGD_{n,m}` for the hidden set's own profile, keeps the
/// entailed candidates, minimizes, and verifies equivalence.
///
/// With exhaustive budgets this realizes the Theorem 4.1 promise for
/// TGD-ontologies: the synthesized set axiomatizes exactly the hidden
/// ontology.
pub fn recover_tgds(hidden: &TgdSet, opts: &EnumOptions, budget: ChaseBudget) -> Recovery {
    let (n, m) = hidden.profile();
    let enumeration = all_candidates(hidden.schema(), n, m, opts);
    // Candidates in TGD_{n,m} share bodies massively (every admissible body
    // is paired with every admissible head), so filter them through the
    // body-grouped batch evaluator: one chase per distinct canonical body
    // instead of one per candidate.
    let (verdicts, _batch) = entails_batch(
        hidden.schema(),
        hidden.tgds(),
        &enumeration.tgds,
        budget,
        None,
    );
    let kept: Vec<Tgd> = enumeration
        .tgds
        .iter()
        .zip(&verdicts)
        .filter(|&(_, v)| *v == Entailment::Proved)
        .map(|(c, _)| c.clone())
        .collect();
    let candidates = enumeration.tgds.len();
    let kept = minimize(hidden.schema(), kept, budget, None, &CancelToken::new());
    let equivalence = equivalent(hidden.schema(), &kept, hidden.tgds(), budget);
    Recovery {
        tgds: kept,
        candidates,
        equivalent: equivalence,
        exhaustive: enumeration.exhaustive,
    }
}

/// The Theorem 4.1 characterization applied to an extensionally-given
/// family over a bounded universe: check the three properties
/// (criticality, ⊗-closure, (n,m)-locality has no counterexample among the
/// members' complement), then synthesize `Σ^∃` and validate agreement.
#[derive(Debug, Clone)]
pub struct BoundedCharacterization {
    /// Criticality up to the bounded domain size.
    pub critical: crate::Verdict,
    /// ⊗-closure over all member pairs whose product fits the bound.
    pub product_closed: crate::Verdict,
    /// No bounded instance is (n,m)-locally embeddable yet a non-member.
    pub local: crate::Verdict,
    /// The synthesized `Σ^∃` when the properties held.
    pub synthesized: Option<Vec<Tgd>>,
    /// Whether `Σ^∃` agrees with the family on the whole bounded universe.
    pub agrees: crate::Verdict,
}

/// Runs the Theorem 4.1 check for the *iso-closure of `members`* treated as
/// an ontology restricted to the `≤ max_domain` universe: if the family has
/// the three characteristic properties there, the synthesized `Σ^∃` must
/// agree with it everywhere in that universe.
///
/// (Locality for extensional families is checked counterexample-style: a
/// bounded non-member that is (n,m)-locally embeddable *into which every
/// small-subinstance chase-free witness embeds* cannot be detected without
/// a specification; instead the check validates the end result — synthesis
/// agreement — which by Lemma 4.4 fails exactly when some property fails.)
pub fn characterize_bounded_family(
    family: &FiniteOntology,
    n: usize,
    m: usize,
    max_domain: usize,
    opts: &EddEnumOptions,
) -> BoundedCharacterization {
    use crate::properties::{check_criticality, check_product_closure};
    use crate::universe::all_instances_up_to;
    use crate::Verdict;
    let critical = Verdict::from_bool(check_criticality(family, max_domain).is_ok());
    // Product closure over member pairs (products may exceed the bound; the
    // oracle still answers by isomorphism against the listed members, so
    // out-of-bound products count as failures only if genuinely outside the
    // closure — conservatively restrict to products that fit).
    let members: Vec<tgdkit_instance::Instance> = family.members().to_vec();
    let fitting_pairs: Vec<(tgdkit_instance::Instance, tgdkit_instance::Instance)> = {
        let mut out = Vec::new();
        for (i, a) in members.iter().enumerate() {
            for b in members.iter().skip(i) {
                if a.dom().len() * b.dom().len() <= max_domain {
                    out.push((a.clone(), b.clone()));
                }
            }
        }
        out
    };
    let product_closed = Verdict::from_bool(check_product_closure(family, &fitting_pairs).is_ok());

    let pipeline = edd_pipeline(family, n, m, opts);
    let universe = all_instances_up_to(family.schema(), max_domain);
    let mut agrees = Verdict::Yes;
    for i in &universe {
        let by_family = family.contains(i);
        let by_sigma = pipeline.sigma_exists.iter().all(|t| satisfies_tgd(i, t));
        if by_family != by_sigma {
            agrees = Verdict::No;
            break;
        }
    }
    // Locality is reported through the agreement outcome (see docs): when
    // criticality and ⊗-closure hold but agreement fails, locality is the
    // property that broke.
    let local = match (critical, product_closed, agrees) {
        (Verdict::Yes, Verdict::Yes, Verdict::No) => Verdict::No,
        (_, _, Verdict::Yes) => Verdict::Yes,
        _ => Verdict::Unknown,
    };
    BoundedCharacterization {
        critical,
        product_closed,
        local,
        synthesized: Some(pipeline.sigma_exists),
        agrees,
    }
}

/// Validates a synthesized axiomatization against an oracle on test
/// instances: membership must agree everywhere.
pub fn validate_synthesis<O: Ontology>(
    oracle: &O,
    synthesized: &[Tgd],
    tests: &[tgdkit_instance::Instance],
) -> Result<(), usize> {
    for (i, instance) in tests.iter().enumerate() {
        let by_oracle = oracle.contains(instance);
        let by_synthesis = synthesized.iter().all(|t| satisfies_tgd(instance, t));
        if by_oracle != by_synthesis {
            return Err(i);
        }
    }
    Ok(())
}

/// Helper for tests and experiments: `true` when the egds of a pipeline are
/// all satisfied by the given instance (used to confirm Step 3's claim that
/// the egds contribute nothing for criticality-closed ontologies).
pub fn egds_hold(instance: &tgdkit_instance::Instance, egds: &[Egd]) -> bool {
    egds.iter().all(|e| satisfies_egd(instance, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::TgdOntology;
    use tgdkit_instance::{critical_instance, parse_instance};
    use tgdkit_logic::{parse_tgds, Schema};

    fn hidden(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    #[test]
    fn recovery_of_a_linear_set() {
        let mut s = Schema::default();
        let sigma = hidden(&mut s, "P(x) -> Q(x).");
        let recovery = recover_tgds(
            &sigma,
            &EnumOptions {
                max_body_atoms: 2,
                max_head_atoms: 2,
                max_candidates: 100_000,
            },
            ChaseBudget::default(),
        );
        assert_eq!(recovery.equivalent, Entailment::Proved);
        assert!(!recovery.tgds.is_empty());
    }

    #[test]
    fn recovery_of_an_existential_set() {
        let mut s = Schema::default();
        let sigma = hidden(&mut s, "P(x) -> exists z : E(x,z).");
        let recovery = recover_tgds(
            &sigma,
            &EnumOptions {
                max_body_atoms: 1,
                max_head_atoms: 1,
                max_candidates: 100_000,
            },
            ChaseBudget::default(),
        );
        assert_eq!(recovery.equivalent, Entailment::Proved);
    }

    #[test]
    fn recovery_of_a_two_rule_set() {
        let mut s = Schema::default();
        let sigma = hidden(&mut s, "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).");
        let recovery = recover_tgds(
            &sigma,
            &EnumOptions {
                max_body_atoms: 2,
                max_head_atoms: 2,
                max_candidates: 500_000,
            },
            ChaseBudget::default(),
        );
        assert_eq!(recovery.equivalent, Entailment::Proved);
        // Synthesized set agrees with the hidden ontology on samples.
        let ont = TgdOntology::new(sigma.clone());
        let mut tests = vec![
            parse_instance(&mut s, "E(a,b), E(b,a)").unwrap(),
            parse_instance(&mut s, "E(a,b)").unwrap(),
            parse_instance(&mut s, "P(a), E(a,b), E(b,a), P(b)").unwrap(),
            parse_instance(&mut s, "P(a), E(a,b), E(b,a)").unwrap(),
        ];
        tests.push(critical_instance(&s, 2, 0));
        assert_eq!(validate_synthesis(&ont, &recovery.tgds, &tests), Ok(()));
    }

    #[test]
    fn edd_pipeline_on_a_finite_family() {
        // O = iso-closure of { {P(a),Q(a)}, {} } over schema {P/1, Q/1}: the
        // models of P(x) -> Q(x) and Q(x) -> P(x) restricted to ≤1 element
        // ... plus nothing else; the pipeline must find those tgds.
        let mut s = Schema::default();
        let m1 = parse_instance(&mut s, "P(a), Q(a)").unwrap();
        let m2 = parse_instance(&mut s, "").unwrap();
        // Ensure both predicates exist in the schema even if unused.
        s.add_pred("P", 1).unwrap();
        s.add_pred("Q", 1).unwrap();
        let ont = FiniteOntology::new(s.clone(), vec![m1, m2]);
        let pipeline = edd_pipeline(&ont, 1, 0, &EddEnumOptions::default());
        // Step 1 found some edds; Steps 2–3 keep only tgds/egds.
        assert!(!pipeline.sigma_vee.is_empty());
        let tgds = &pipeline.sigma_exists;
        // P(x) -> Q(x) and Q(x) -> P(x) must be among them.
        let mut probe_schema = s.clone();
        let expect = parse_tgds(&mut probe_schema, "P(x) -> Q(x). Q(x) -> P(x).").unwrap();
        for e in &expect {
            assert!(
                tgds.iter()
                    .any(|t| tgdkit_logic::canon::same_up_to_renaming(t, e)),
                "missing {e:?}"
            );
        }
    }

    #[test]
    fn pipeline_steps_shrink() {
        let mut s = Schema::default();
        let m1 = parse_instance(&mut s, "P(a)").unwrap();
        s.add_pred("P", 1).unwrap();
        let ont = FiniteOntology::new(s.clone(), vec![m1]);
        let pipeline = edd_pipeline(&ont, 1, 0, &EddEnumOptions::default());
        let (tgds, egds) = &pipeline.sigma_exists_eq;
        assert!(pipeline.sigma_vee.len() >= tgds.len() + egds.len());
        assert_eq!(pipeline.sigma_exists.len(), tgds.len());
    }

    #[test]
    fn theorem_4_1_pipeline_on_tgd_ontology() {
        // The full Steps 1–3 against a hidden TGD-ontology: Σ^∃ must be
        // equivalent to the hidden set (Lemmas 4.4 + 4.7 + 4.9).
        let mut s = Schema::default();
        let hidden_set = hidden(&mut s, "P(x) -> Q(x).");
        let pipeline = edd_pipeline_for_tgd_ontology(
            &hidden_set,
            1,
            0,
            &EddEnumOptions::default(),
            ChaseBudget::default(),
        );
        // Step 2 never forgets tgds/egds; Step 3 keeps Σ^∃ non-empty here.
        assert!(!pipeline.sigma_exists.is_empty());
        // No egds survive for a tgd-ontology with distinct frozen elements
        // (Lemma 4.9's content).
        assert!(pipeline.sigma_exists_eq.1.is_empty());
        // Σ^∃ ≡ hidden.
        assert_eq!(
            equivalent(
                hidden_set.schema(),
                &pipeline.sigma_exists,
                hidden_set.tgds(),
                ChaseBudget::default()
            ),
            Entailment::Proved
        );
    }

    #[test]
    fn pipeline_with_existentials_via_edd_entailment() {
        let mut s = Schema::default();
        let hidden_set = hidden(&mut s, "P(x) -> exists z : E(x,z).");
        let pipeline = edd_pipeline_for_tgd_ontology(
            &hidden_set,
            1,
            1,
            &EddEnumOptions::default(),
            ChaseBudget::default(),
        );
        assert_eq!(
            equivalent(
                hidden_set.schema(),
                &pipeline.sigma_exists,
                hidden_set.tgds(),
                ChaseBudget::default()
            ),
            Entailment::Proved
        );
    }

    #[test]
    fn bounded_characterization_accepts_tgd_families() {
        // Members = all ≤2-element models of P(x) -> Q(x): the three
        // properties hold and synthesis agrees.
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "P(x) -> Q(x).").unwrap();
        let members: Vec<_> = crate::universe::all_instances_up_to(&s, 2)
            .into_iter()
            .filter(|i| tgdkit_chase::satisfies_tgds(i, &sigma))
            .collect();
        let family = FiniteOntology::new(s.clone(), members);
        let report = characterize_bounded_family(&family, 1, 0, 2, &EddEnumOptions::default());
        assert_eq!(report.critical, crate::Verdict::Yes);
        assert_eq!(report.product_closed, crate::Verdict::Yes);
        assert_eq!(report.agrees, crate::Verdict::Yes);
        assert_eq!(report.local, crate::Verdict::Yes);
    }

    #[test]
    fn bounded_characterization_rejects_non_product_closed_families() {
        // Members = ≤2-element models of the edd P(x) -> Q(x) | R(x): not
        // ⊗-closed, hence not a TGD-ontology; synthesis cannot agree.
        let mut s = Schema::default();
        let deps = tgdkit_logic::parse_dependencies(&mut s, "P(x) -> Q(x) | R(x).").unwrap();
        let ont = crate::ontology::DependencyOntology::new(s.clone(), deps);
        let members: Vec<_> = crate::universe::all_instances_up_to(&s, 2)
            .into_iter()
            .filter(|i| crate::Ontology::contains(&ont, i))
            .collect();
        let family = FiniteOntology::new(s.clone(), members);
        let report = characterize_bounded_family(&family, 1, 0, 2, &EddEnumOptions::default());
        assert_eq!(
            report.agrees,
            crate::Verdict::No,
            "a disjunctive family is not tgd-definable"
        );
    }

    #[test]
    fn dd_pipeline_extracts_full_tgds() {
        // O = iso-closure of models of P(x) -> Q(x) over ≤ 2 elements.
        let mut s = Schema::default();
        s.add_pred("P", 1).unwrap();
        s.add_pred("Q", 1).unwrap();
        let mut members = Vec::new();
        for text in [
            "",
            "Q(a)",
            "P(a), Q(a)",
            "Q(a), Q(b)",
            "P(a), Q(a), Q(b)",
            "P(a), Q(a), P(b), Q(b)",
        ] {
            members.push(parse_instance(&mut s, text).unwrap());
        }
        let ont = FiniteOntology::new(s.clone(), members);
        let pipeline = dd_pipeline(&ont, 1, &EddEnumOptions::default());
        assert!(!pipeline.sigma_vee.is_empty());
        assert!(pipeline.sigma_vee.iter().all(Edd::is_dd));
        assert!(pipeline.sigma_full.iter().all(Tgd::is_full));
        // P(x) -> Q(x) must be among the extracted full tgds.
        let mut probe_schema = s.clone();
        let expect = parse_tgds(&mut probe_schema, "P(x) -> Q(x).").unwrap();
        assert!(pipeline
            .sigma_full
            .iter()
            .any(|t| tgdkit_logic::canon::same_up_to_renaming(t, &expect[0])));
        // Q(x) -> P(x) must NOT be (Q(a) alone is a member).
        let not_expect = parse_tgds(&mut probe_schema, "Q(x) -> P(x).").unwrap();
        assert!(!pipeline
            .sigma_full
            .iter()
            .any(|t| tgdkit_logic::canon::same_up_to_renaming(t, &not_expect[0])));
    }

    #[test]
    fn validate_synthesis_detects_mismatches() {
        let mut s = Schema::default();
        let sigma = hidden(&mut s, "P(x) -> Q(x).");
        let ont = TgdOntology::new(sigma);
        // An (empty) synthesis disagrees on {P(a)}.
        let tests = vec![
            parse_instance(&mut s, "P(a), Q(a)").unwrap(),
            parse_instance(&mut s, "P(a)").unwrap(),
        ];
        assert_eq!(validate_synthesis(&ont, &[], &tests), Err(1));
    }
}
