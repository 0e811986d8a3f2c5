//! The locality properties of the paper: (n,m)-locality (§3.3) and its
//! linear (§6.1), guarded (§7.1) and frontier-guarded (§8.1) refinements.
//!
//! ## What is decided, and how
//!
//! For a TGD-ontology `O = {I | I ⊨ Σ}`, the checker decides whether `O` is
//! *(n,m)-locally embeddable* in a given finite instance `I`
//! ([`locally_embeddable`]). The definitions quantify a witness
//! `J_K ∈ O` per small subinstance `K`; the checker always tries
//! `J_K = chase(K, Σ)`, which is an **optimal** witness:
//!
//! > If any `J ∈ O` with `K ⊆ J` satisfies the neighbourhood-embedding
//! > condition, then so does the (terminated) chase of `K`: by
//! > hom-universality there is `h : chase(K,Σ) → J` fixing `adom(K)`
//! > (resp. `F`), and `h` maps every maximal m-neighbourhood restriction of
//! > `chase(K,Σ)` into a neighbourhood of `K` in `J`, whose embedding into
//! > `I` composes with `h` to the required identity-on-`K` embedding.
//!
//! Consequently the verdict is exact whenever the chase of each `K`
//! terminates within budget; otherwise [`Verdict::Unknown`] is reported.
//!
//! Locality itself ("for **every** instance, embeddable ⇒ member",
//! Def. 3.5) quantifies over all instances and cannot be decided directly;
//! the library instead offers [`locality_counterexample`] (is this `I` a
//! witness that `O` is *not* (n,m)-local?) — which is all the paper's §9.1
//! separation arguments need — and sampled positive checks
//! ([`local_on_samples`]) for the Lemma 3.6 direction.

use crate::neighbourhood::{
    for_each_maximal_neighbourhood, for_each_subset_up_to, maximal_neighbourhood_count,
};
use crate::verdict::Verdict;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::rc::Rc;
use tgdkit_chase::{
    chase_governed, satisfies_tgds, CancelToken, ChaseBudget, ChaseStats, ChaseVariant,
};
use tgdkit_hom::find_instance_hom;
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::TgdSet;

/// Which locality refinement to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalityFlavor {
    /// Plain (n,m)-locality (Def. 3.5): `K` ranges over all subinstances
    /// `K ≤ I` with `|adom(K)| ≤ n`.
    Plain,
    /// Linear locality (Def. 6.1): `K ⊆ I` with at most one fact.
    Linear,
    /// Guarded locality (Def. 7.1): `K ≤ I` guarded (one fact covers
    /// `adom(K)`).
    Guarded,
    /// Frontier-guarded locality (Def. 8.1): `K ≤ I` guarded relative to a
    /// finite `F ⊆ adom(I)`; embeddings fix `F` rather than `adom(K)`.
    FrontierGuarded,
}

/// Budgets for the locality checker.
#[derive(Debug, Clone, Copy)]
pub struct LocalityOptions {
    /// Chase budget per witness construction.
    pub chase_budget: ChaseBudget,
    /// Cap on the number of (K, neighbourhood) cases examined; exceeding it
    /// yields [`Verdict::Unknown`].
    pub max_cases: usize,
}

impl Default for LocalityOptions {
    fn default() -> Self {
        LocalityOptions {
            chase_budget: ChaseBudget::default(),
            max_cases: 1_000_000,
        }
    }
}

/// One locality case: the small subinstance `K` and the element set the
/// embedding must fix.
#[derive(Debug, Clone)]
struct Case {
    k: Instance,
    fix: BTreeSet<Elem>,
}

/// Enumerates the cases demanded by the flavor's definition.
fn cases(sigma: &TgdSet, i: &Instance, n: usize, flavor: LocalityFlavor) -> Vec<Case> {
    let adom: Vec<Elem> = i.active_domain().iter().copied().collect();
    let mut out = Vec::new();
    match flavor {
        LocalityFlavor::Plain => {
            let _ = for_each_subset_up_to(&adom, n, &mut |d| {
                let k = i.restrict(&d.iter().copied().collect());
                let fix = k.active_domain().clone();
                out.push(Case { k, fix });
                ControlFlow::Continue(())
            });
        }
        LocalityFlavor::Linear => {
            // The empty K plus each single fact of I with ≤ n elements.
            out.push(Case {
                k: Instance::new(sigma.schema().clone()),
                fix: BTreeSet::new(),
            });
            for fact in i.facts() {
                let elems: BTreeSet<Elem> = fact.args.iter().copied().collect();
                if elems.len() > n {
                    continue;
                }
                let mut k = Instance::new(sigma.schema().clone());
                k.add_fact(fact.pred, fact.args.clone());
                out.push(Case {
                    fix: k.active_domain().clone(),
                    k,
                });
            }
        }
        LocalityFlavor::Guarded => {
            let _ = for_each_subset_up_to(&adom, n, &mut |d| {
                let k = i.restrict(&d.iter().copied().collect());
                if is_guarded_instance(&k) {
                    let fix = k.active_domain().clone();
                    out.push(Case { k, fix });
                }
                ControlFlow::Continue(())
            });
        }
        LocalityFlavor::FrontierGuarded => {
            // For each K ≤ I and each F ⊆ adom(K) covered by some fact of K
            // (the F-guardedness condition), fix F instead of adom(K).
            //
            // Larger F ⊆ adom(I) pair only with instances K whose fact set
            // is empty; those cases are vacuously witnessed by the chase of
            // the empty instance (whose active domain avoids the elements of
            // I by construction), so they are not enumerated.
            let _ = for_each_subset_up_to(&adom, n, &mut |d| {
                let k = i.restrict(&d.iter().copied().collect());
                let k_adom: Vec<Elem> = k.active_domain().iter().copied().collect();
                let _ = for_each_subset_up_to(&k_adom, k_adom.len(), &mut |f| {
                    let fset: BTreeSet<Elem> = f.iter().copied().collect();
                    if is_relative_guarded(&k, &fset) {
                        out.push(Case {
                            k: k.clone(),
                            fix: fset,
                        });
                    }
                    ControlFlow::Continue(())
                });
                ControlFlow::Continue(())
            });
        }
    }
    out
}

/// An instance is guarded when it is empty or some fact contains its whole
/// active domain (paper §7.1).
pub fn is_guarded_instance(k: &Instance) -> bool {
    if k.is_empty() {
        return true;
    }
    let adom = k.active_domain();
    k.facts().any(|f| adom.iter().all(|e| f.args.contains(e)))
}

/// An instance is `F`-guarded when it is empty or some fact contains all of
/// `F` (paper §8.1).
pub fn is_relative_guarded(k: &Instance, f: &BTreeSet<Elem>) -> bool {
    if k.is_empty() {
        return true;
    }
    k.facts()
        .any(|fact| f.iter().all(|e| fact.args.contains(e)))
}

/// The outcome of one locality case (a single small subinstance `K`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaseOutcome {
    /// Every maximal m-neighbourhood of the chase witness embeds.
    Embeds,
    /// Some neighbourhood does not embed — by witness optimality, no member
    /// of the ontology can serve as `J_K`.
    Fails,
    /// The chase of `K` did not terminate within budget.
    Unknown,
}

/// Memo of witness chases within one locality check, keyed by `K`'s fact
/// set (`None` = the chase did not terminate within budget).
///
/// The chase of `K + sentinel` depends only on `K`'s facts (isolated domain
/// elements create no triggers, and null numbering starts above the shared
/// sentinel either way), and every downstream consumer — neighbourhood
/// enumeration, embedding probes — reads only active-domain structure. The
/// [`LocalityFlavor::FrontierGuarded`] enumeration re-visits one `K` under
/// many fix sets, and [`LocalityFlavor::Plain`]/[`LocalityFlavor::Guarded`]
/// revisit one fact set under many domains, so most cases hit.
type WitnessMemo = HashMap<Vec<Fact>, Option<Rc<Instance>>>;

/// Checks one case: chase `K` (through the memo), then try to embed every
/// maximal m-neighbourhood of `fix` in the chase back into `i` fixing `fix`.
/// `sentinel` keeps chase nulls disjoint from `i`'s elements.
#[allow(clippy::too_many_arguments)] // internal helper threading accumulators
fn check_case(
    sigma: &TgdSet,
    i: &Instance,
    case: &Case,
    m: usize,
    sentinel: Elem,
    opts: &LocalityOptions,
    cases_used: &mut usize,
    stats: &mut ChaseStats,
    memo: &mut WitnessMemo,
    token: &CancelToken,
) -> CaseOutcome {
    let key: Vec<Fact> = case.k.facts().collect();
    let witness = match memo.get(&key) {
        Some(cached) => {
            stats.cache_hits += 1;
            cached.clone()
        }
        None => {
            stats.cache_misses += 1;
            let mut k = case.k.clone();
            k.add_dom_elem(sentinel);
            // A cancelled chase is not `Terminated`, so its witness is
            // (soundly) treated exactly like a budget-truncated one.
            let result = chase_governed(
                &k,
                sigma.tgds(),
                ChaseVariant::Restricted,
                opts.chase_budget,
                token,
            );
            stats.absorb(&result.stats);
            let entry = result.terminated().then(|| Rc::new(result.instance));
            memo.insert(key, entry.clone());
            entry
        }
    };
    let Some(j_k) = witness else {
        return CaseOutcome::Unknown;
    };
    let j_k = j_k.as_ref();
    *cases_used += maximal_neighbourhood_count(j_k, &case.fix, m);
    if *cases_used > opts.max_cases {
        return CaseOutcome::Unknown;
    }
    let fixed: BTreeMap<Elem, Elem> = case.fix.iter().map(|&e| (e, e)).collect();
    let mut failed = false;
    let _ = for_each_maximal_neighbourhood(j_k, &case.fix, m, &mut |neighbour| {
        if find_instance_hom(neighbour, i, &fixed).is_none() {
            failed = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if failed {
        CaseOutcome::Fails
    } else {
        CaseOutcome::Embeds
    }
}

/// Decides whether the TGD-ontology of `sigma` is (n,m)-locally embeddable
/// in `I`, in the given flavor.
///
/// Exact whenever every per-`K` chase terminates within budget (see the
/// module docs for the witness-optimality argument); otherwise `Unknown`.
pub fn locally_embeddable(
    sigma: &TgdSet,
    i: &Instance,
    n: usize,
    m: usize,
    flavor: LocalityFlavor,
    opts: &LocalityOptions,
) -> Verdict {
    locally_embeddable_with_stats_governed(sigma, i, n, m, flavor, opts, &CancelToken::new()).0
}

/// [`locally_embeddable`] under a [`CancelToken`], additionally reporting
/// the engine work aggregated over every per-`K` witness chase
/// ([`ChaseStats::absorb`]ed across cases) — including the witness-memo
/// hit/miss counters ([`ChaseStats::cache_hits`] /
/// [`ChaseStats::cache_misses`]), which show how much re-chasing the memo
/// avoided. The token is checked between cases and inside each witness
/// chase, so cancellation stops the check within one case. A cut-short
/// check reports [`Verdict::Unknown`] — a definitive `No` found *before*
/// the cut is still returned (it cannot be invalidated by the unexamined
/// cases).
pub fn locally_embeddable_with_stats_governed(
    sigma: &TgdSet,
    i: &Instance,
    n: usize,
    m: usize,
    flavor: LocalityFlavor,
    opts: &LocalityOptions,
    token: &CancelToken,
) -> (Verdict, ChaseStats) {
    let mut stats = ChaseStats::default();
    let mut unknown = false;
    let mut cases_used = 0usize;
    let mut memo = WitnessMemo::new();
    // Fresh chase nulls must not collide with I's elements: seed each K's
    // domain with a sentinel above I's maximum element.
    let sentinel = i.fresh_elem();
    for case in cases(sigma, i, n, flavor) {
        if token.is_cancelled() {
            return (Verdict::Unknown, stats);
        }
        match check_case(
            sigma,
            i,
            &case,
            m,
            sentinel,
            opts,
            &mut cases_used,
            &mut stats,
            &mut memo,
            token,
        ) {
            CaseOutcome::Embeds => {}
            // The chase was a member of O containing K; by witness
            // optimality no other member can do better: definitive No.
            CaseOutcome::Fails => return (Verdict::No, stats),
            CaseOutcome::Unknown => unknown = true,
        }
        if cases_used > opts.max_cases {
            return (Verdict::Unknown, stats);
        }
    }
    let verdict = if unknown {
        Verdict::Unknown
    } else {
        Verdict::Yes
    };
    (verdict, stats)
}

/// Finds a small subinstance `K ≤ I` (with the element set embeddings must
/// fix) witnessing that the ontology is **not** (n,m)-locally embeddable in
/// `I` — the `K` of paper Claim 4.5, from which [`crate::diagram`] extracts
/// a separating edd. Returns `(K, fix)` or `None`.
pub fn failing_case(
    sigma: &TgdSet,
    i: &Instance,
    n: usize,
    m: usize,
    flavor: LocalityFlavor,
    opts: &LocalityOptions,
) -> Option<(Instance, BTreeSet<Elem>)> {
    let sentinel = i.fresh_elem();
    let mut cases_used = 0usize;
    let mut stats = ChaseStats::default();
    let mut memo = WitnessMemo::new();
    let token = CancelToken::new();
    for case in cases(sigma, i, n, flavor) {
        if check_case(
            sigma,
            i,
            &case,
            m,
            sentinel,
            opts,
            &mut cases_used,
            &mut stats,
            &mut memo,
            &token,
        ) == CaseOutcome::Fails
        {
            return Some((case.k, case.fix));
        }
        if cases_used > opts.max_cases {
            return None;
        }
    }
    None
}

/// Checks whether `I` witnesses that the ontology of `sigma` is **not**
/// (n,m)-local in the given flavor: `O` locally embeddable in `I` while
/// `I ∉ O` (the shape of the §9.1 separation arguments).
pub fn locality_counterexample(
    sigma: &TgdSet,
    i: &Instance,
    n: usize,
    m: usize,
    flavor: LocalityFlavor,
    opts: &LocalityOptions,
) -> Verdict {
    if satisfies_tgds(i, sigma.tgds()) {
        return Verdict::No; // I ∈ O: cannot witness non-locality
    }
    locally_embeddable(sigma, i, n, m, flavor, opts)
}

/// Samples the Lemma 3.6 direction on given instances: for each `I`, if `O`
/// is (n,m)-locally embeddable in `I` then `I ∈ O` must hold. Returns `No`
/// with the index of the first violating instance, `Yes` if none violates,
/// `Unknown` if some check was inconclusive and none violated.
pub fn local_on_samples(
    sigma: &TgdSet,
    samples: &[Instance],
    n: usize,
    m: usize,
    flavor: LocalityFlavor,
    opts: &LocalityOptions,
) -> (Verdict, Option<usize>) {
    let mut unknown = false;
    for (idx, i) in samples.iter().enumerate() {
        match locally_embeddable(sigma, i, n, m, flavor, opts) {
            Verdict::Yes => {
                if !satisfies_tgds(i, sigma.tgds()) {
                    return (Verdict::No, Some(idx));
                }
            }
            Verdict::No => {}
            Verdict::Unknown => unknown = true,
        }
    }
    if unknown {
        (Verdict::Unknown, None)
    } else {
        (Verdict::Yes, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_tgds, Schema};

    fn set(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    #[test]
    fn members_are_always_embeddable() {
        // If I ⊨ Σ then O is trivially locally embeddable in I (witnesses
        // exist inside I itself; the chase of K ≤ I terminates into I-like
        // structures). Spot-check on a small model.
        let mut s = Schema::default();
        let sigma = set(&mut s, "E(x,y) -> E(y,x).");
        let i = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let v = locally_embeddable(&sigma, &i, 2, 0, LocalityFlavor::Plain, &Default::default());
        assert_eq!(v, Verdict::Yes);
    }

    #[test]
    fn missing_symmetric_edge_blocks_embedding() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "E(x,y) -> E(y,x).");
        // I lacks E(b,a): the chase of K = {E(a,b)} contains E(b,a), whose
        // 0-neighbourhood cannot embed into I fixing {a,b}.
        let i = parse_instance(&mut s, "E(a,b)").unwrap();
        let v = locally_embeddable(&sigma, &i, 2, 0, LocalityFlavor::Plain, &Default::default());
        assert_eq!(v, Verdict::No);
    }

    #[test]
    fn lemma_3_6_direction_on_samples() {
        // TGD_{n,m}-ontologies are (n,m)-local: no sample may be embeddable
        // yet a non-member.
        let mut s = Schema::default();
        let sigma = set(&mut s, "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).");
        let samples = vec![
            parse_instance(&mut s, "E(a,b), E(b,a)").unwrap(),
            parse_instance(&mut s, "E(a,b)").unwrap(),
            parse_instance(&mut s, "P(a), E(a,b), E(b,a), P(b)").unwrap(),
            parse_instance(&mut s, "P(a), E(a,b), E(b,a)").unwrap(),
            parse_instance(&mut s, "").unwrap(),
        ];
        let (verdict, witness) = local_on_samples(
            &sigma,
            &samples,
            3,
            0,
            LocalityFlavor::Plain,
            &Default::default(),
        );
        assert_eq!(verdict, Verdict::Yes, "witness: {witness:?}");
    }

    #[test]
    fn section_9_1_linear_separation() {
        // Σ_G = {R(x), P(x) -> T(x)} is linearly (1,0)-locally embeddable in
        // I = {R(c), P(c)} but I ⊭ Σ_G: witnesses non-linear-(1,0)-locality.
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(x) -> T(x).");
        let i = parse_instance(&mut s, "R(c), P(c)").unwrap();
        assert_eq!(
            locally_embeddable(
                &sigma,
                &i,
                1,
                0,
                LocalityFlavor::Linear,
                &Default::default()
            ),
            Verdict::Yes
        );
        assert_eq!(
            locality_counterexample(
                &sigma,
                &i,
                1,
                0,
                LocalityFlavor::Linear,
                &Default::default()
            ),
            Verdict::Yes
        );
        // But Σ_G is NOT plainly (1,0)-locally embeddable... in fact for
        // plain locality with n = 2 the subinstance K = I itself reveals the
        // missing T(c).
        assert_eq!(
            locally_embeddable(&sigma, &i, 2, 0, LocalityFlavor::Plain, &Default::default()),
            Verdict::No
        );
    }

    #[test]
    fn section_9_1_guarded_separation() {
        // Σ_F = {R(x), P(y) -> T(x)} is guardedly (2,0)-locally embeddable
        // in I = {R(c), P(d)} but I ⊭ Σ_F.
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(y) -> T(x).");
        let i = parse_instance(&mut s, "R(c), P(d)").unwrap();
        assert_eq!(
            locally_embeddable(
                &sigma,
                &i,
                2,
                0,
                LocalityFlavor::Guarded,
                &Default::default()
            ),
            Verdict::Yes
        );
        assert_eq!(
            locality_counterexample(
                &sigma,
                &i,
                2,
                0,
                LocalityFlavor::Guarded,
                &Default::default()
            ),
            Verdict::Yes
        );
        // Plain (2,0)-local embeddability fails: K = I itself (adom size 2)
        // forces T(c).
        assert_eq!(
            locally_embeddable(&sigma, &i, 2, 0, LocalityFlavor::Plain, &Default::default()),
            Verdict::No
        );
    }

    #[test]
    fn guarded_sets_are_guardedly_local_on_samples() {
        // A guarded set must not admit guarded-locality counterexamples
        // (Lemma 7.2 + Theorem 7.4 direction (1) ⇒ (2)).
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> exists z : R(y,z).");
        let samples = vec![
            parse_instance(&mut s, "R(a,b)").unwrap(),
            parse_instance(&mut s, "R(a,b), R(b,a)").unwrap(),
            parse_instance(&mut s, "R(a,a)").unwrap(),
        ];
        for i in &samples {
            let v = locality_counterexample(
                &sigma,
                i,
                2,
                1,
                LocalityFlavor::Guarded,
                &Default::default(),
            );
            assert_ne!(v, Verdict::Yes, "unexpected counterexample: {i}");
        }
    }

    #[test]
    fn existential_witnesses_embed_through_neighbourhoods() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "P(x) -> exists z : E(x,z).");
        // I provides a witness edge: embeddable and a member.
        let good = parse_instance(&mut s, "P(a), E(a,b)").unwrap();
        assert_eq!(
            locally_embeddable(
                &sigma,
                &good,
                1,
                1,
                LocalityFlavor::Plain,
                &Default::default()
            ),
            Verdict::Yes
        );
        // I without the edge: chase of K = {P(a)} yields E(a, null) whose
        // 1-neighbourhood cannot embed fixing a.
        let bad = parse_instance(&mut s, "P(a)").unwrap();
        assert_eq!(
            locally_embeddable(
                &sigma,
                &bad,
                1,
                1,
                LocalityFlavor::Plain,
                &Default::default()
            ),
            Verdict::No
        );
    }

    #[test]
    fn m_matters_for_embeddability() {
        // With m = 0 the existential witness is never inspected, so the
        // instance without the edge is (1,0)-embeddable; (1,1) sees the
        // missing witness.
        let mut s = Schema::default();
        let sigma = set(&mut s, "P(x) -> exists z : E(x,z).");
        let bad = parse_instance(&mut s, "P(a)").unwrap();
        assert_eq!(
            locally_embeddable(
                &sigma,
                &bad,
                1,
                0,
                LocalityFlavor::Plain,
                &Default::default()
            ),
            Verdict::Yes
        );
        assert_eq!(
            locally_embeddable(
                &sigma,
                &bad,
                1,
                1,
                LocalityFlavor::Plain,
                &Default::default()
            ),
            Verdict::No
        );
    }

    #[test]
    fn witness_memo_avoids_rechasing() {
        // The frontier-guarded enumeration pairs each K with many fix sets;
        // the witness chase of K must run once per distinct fact set, with
        // the remaining cases served from the memo.
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> exists z : S(x,z).");
        let i = parse_instance(&mut s, "R(a,b), S(a,c)").unwrap();
        let (verdict, stats) = locally_embeddable_with_stats_governed(
            &sigma,
            &i,
            2,
            1,
            LocalityFlavor::FrontierGuarded,
            &Default::default(),
            &CancelToken::new(),
        );
        assert_eq!(verdict, Verdict::Yes);
        assert!(
            stats.cache_hits > 0,
            "repeated fix sets over one K should hit the memo"
        );
        assert!(stats.cache_misses > 0);
        // On a non-member the counterexample check is the embeddability
        // check, so it reaches the same verdict, and the memo counts there
        // too.
        let bad = parse_instance(&mut s, "R(a,b)").unwrap();
        assert!(!satisfies_tgds(&bad, sigma.tgds()));
        let (v2, stats2) = locally_embeddable_with_stats_governed(
            &sigma,
            &bad,
            2,
            1,
            LocalityFlavor::FrontierGuarded,
            &Default::default(),
            &CancelToken::new(),
        );
        assert_eq!(
            v2,
            locality_counterexample(
                &sigma,
                &bad,
                2,
                1,
                LocalityFlavor::FrontierGuarded,
                &Default::default()
            )
        );
        assert!(stats2.cache_hits + stats2.cache_misses > 0);
    }

    #[test]
    fn divergent_chase_reports_unknown() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).");
        let i = parse_instance(&mut s, "E(a,b)").unwrap();
        let opts = LocalityOptions {
            chase_budget: ChaseBudget {
                max_facts: 50,
                max_rounds: 10,
                max_bytes: usize::MAX,
            },
            max_cases: 1_000_000,
        };
        let v = locally_embeddable(&sigma, &i, 2, 1, LocalityFlavor::Plain, &opts);
        assert_eq!(v, Verdict::Unknown);
    }

    #[test]
    fn frontier_guarded_flavor_runs() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> exists z : S(x,z).");
        let i = parse_instance(&mut s, "R(a,b), S(a,c)").unwrap();
        let v = locally_embeddable(
            &sigma,
            &i,
            2,
            1,
            LocalityFlavor::FrontierGuarded,
            &Default::default(),
        );
        assert_eq!(v, Verdict::Yes);
        let bad = parse_instance(&mut s, "R(a,b)").unwrap();
        let v2 = locally_embeddable(
            &sigma,
            &bad,
            2,
            1,
            LocalityFlavor::FrontierGuarded,
            &Default::default(),
        );
        assert_eq!(v2, Verdict::No);
    }
}
