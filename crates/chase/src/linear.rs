//! Exact entailment under **linear** tgds via backward piece-rewriting.
//!
//! The chase under linear tgds need not terminate (e.g.
//! `E(x,y) → ∃z E(y,z)`), so the freeze-and-chase entailment of
//! [`crate::entail`] can come back `Unknown`. For linear rules, however,
//! backward rewriting of the query *always terminates*: a rewriting step
//! replaces a piece (one or more query atoms matched against a rule head)
//! by the rule's single body atom, so queries never grow, and there are
//! finitely many queries up to renaming over a fixed schema and constant
//! set.
//!
//! This is the UCQ-rewritability of linear tgds exploited by the paper's
//! Theorem 9.1 complexity analysis ("given Σ_L ∈ LTGD and a guarded tgd
//! σ_G … decide in polynomial time in the size of Σ_L"); the
//! piece-unification machinery follows the standard existential-rule
//! rewriting literature (Calì–Gottlob–Lukasiewicz; Baget et al.).
//!
//! Entry point: [`entails_linear`], a total decision procedure for
//! `Σ_L ⊨ σ` with linear `Σ_L` and arbitrary tgd `σ` (up to an explicit
//! saturation cap, reported as `Unknown` — never hit in practice for the
//! candidate sizes of Algorithms 1–2).

use crate::entail::{freeze_body, Entailment};
use crate::govern::CancelToken;
use std::collections::BTreeSet;
use tgdkit_hom::{find_hom_indexed, Binding, InstanceIndex};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{Atom, PredId, Schema, Tgd, Var};

/// A term of a rewritten query: a frozen constant or a query variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Term {
    /// A frozen constant (an element of the frozen body instance).
    Const(u32),
    /// A query variable.
    Qvar(u32),
}

/// A conjunctive query with constants, kept in a canonical form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Query {
    atoms: Vec<(PredId, Vec<Term>)>,
}

impl Query {
    /// Canonicalizes: renumber query variables by first occurrence after
    /// sorting atoms; iterate to a fixpoint of (sort, renumber).
    fn canonical(mut self) -> Query {
        for _ in 0..4 {
            self.atoms.sort();
            let renamed = self.renumbered();
            if renamed == self {
                return self;
            }
            self = renamed;
        }
        self.atoms.sort();
        self
    }

    fn renumbered(&self) -> Query {
        let mut map: Vec<(u32, u32)> = Vec::new();
        let mut atoms = Vec::with_capacity(self.atoms.len());
        for (pred, args) in &self.atoms {
            let new_args: Vec<Term> = args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Term::Const(*c),
                    Term::Qvar(v) => {
                        if let Some(&(_, w)) = map.iter().find(|&&(orig, _)| orig == *v) {
                            Term::Qvar(w)
                        } else {
                            let w = map.len() as u32;
                            map.push((*v, w));
                            Term::Qvar(w)
                        }
                    }
                })
                .collect();
            atoms.push((*pred, new_args));
        }
        Query { atoms }
    }

    fn max_qvar(&self) -> u32 {
        self.atoms
            .iter()
            .flat_map(|(_, args)| args)
            .filter_map(|t| match t {
                Term::Qvar(v) => Some(*v + 1),
                Term::Const(_) => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the query over an indexed instance, treating constants as
    /// themselves. Taking the index (rather than the instance) lets the
    /// saturation loop probe thousands of rewritings against one shared
    /// index instead of rebuilding it per query.
    fn holds_in(&self, index: &InstanceIndex<'_>) -> bool {
        // Convert to a Var-conjunction: constants become pinned variables.
        let num_qvars = self.max_qvar();
        let mut consts: Vec<u32> = Vec::new();
        let mut atoms: Vec<Atom<Var>> = Vec::with_capacity(self.atoms.len());
        for (pred, args) in &self.atoms {
            let vars: Vec<Var> = args
                .iter()
                .map(|t| match t {
                    Term::Qvar(v) => Var(*v),
                    Term::Const(c) => {
                        let idx = if let Some(i) = consts.iter().position(|&x| x == *c) {
                            i
                        } else {
                            consts.push(*c);
                            consts.len() - 1
                        };
                        Var(num_qvars + idx as u32)
                    }
                })
                .collect();
            atoms.push(Atom::new(*pred, vars));
        }
        let total = num_qvars as usize + consts.len();
        let mut fixed: Binding = vec![None; total];
        for (i, &c) in consts.iter().enumerate() {
            fixed[num_qvars as usize + i] = Some(Elem(c));
        }
        find_hom_indexed(&atoms, total, index, &fixed).is_some()
    }
}

/// Identifiers in the unification union-find: query terms and rule
/// variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Term(Term),
    RuleVar(Var),
}

struct UnionFind {
    nodes: Vec<Node>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            nodes: Vec::new(),
            parent: Vec::new(),
        }
    }

    fn id(&mut self, node: Node) -> usize {
        if let Some(i) = self.nodes.iter().position(|&n| n == node) {
            i
        } else {
            self.nodes.push(node);
            self.parent.push(self.nodes.len() - 1);
            self.nodes.len() - 1
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: Node, b: Node) {
        let (ia, ib) = (self.id(a), self.id(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Groups nodes by class representative.
    fn classes(&mut self) -> Vec<Vec<Node>> {
        let len = self.nodes.len();
        let mut out: Vec<Vec<Node>> = vec![Vec::new(); len];
        for i in 0..len {
            let r = self.find(i);
            out[r].push(self.nodes[i]);
        }
        out.into_iter().filter(|c| !c.is_empty()).collect()
    }
}

/// One piece-rewriting step: unify the query atoms at `piece` (indices into
/// `query.atoms`) with head atoms of `rule` (given by `head_choice`,
/// parallel to `piece`), and if the unifier is admissible produce the
/// rewritten query.
fn rewrite_step(
    query: &Query,
    piece: &[usize],
    head_choice: &[usize],
    rule: &Tgd,
) -> Option<Query> {
    let mut uf = UnionFind::new();
    // Unify per position.
    for (&qi, &hi) in piece.iter().zip(head_choice) {
        let (pred, args) = &query.atoms[qi];
        let head_atom = &rule.head()[hi];
        if *pred != head_atom.pred {
            return None;
        }
        for (t, &v) in args.iter().zip(&head_atom.args) {
            uf.union(Node::Term(*t), Node::RuleVar(v));
        }
    }
    // Admissibility per class.
    let piece_set: BTreeSet<usize> = piece.iter().copied().collect();
    let outside_vars: BTreeSet<Term> = query
        .atoms
        .iter()
        .enumerate()
        .filter(|(i, _)| !piece_set.contains(i))
        .flat_map(|(_, (_, args))| args.iter().copied())
        .filter(|t| matches!(t, Term::Qvar(_)))
        .collect();
    let classes = uf.classes();
    // Substitution target per class.
    #[derive(Clone, Copy)]
    enum Repr {
        Const(u32),
        Qvar(u32),
        Fresh(u32),
    }
    let mut next_fresh = query.max_qvar();
    let mut reprs: Vec<(Vec<Node>, Repr)> = Vec::new();
    for class in classes {
        let mut consts: Vec<u32> = Vec::new();
        let mut qvars: Vec<u32> = Vec::new();
        let mut existentials = 0usize;
        let mut universals = 0usize;
        for node in &class {
            match node {
                Node::Term(Term::Const(c)) => consts.push(*c),
                Node::Term(Term::Qvar(v)) => qvars.push(*v),
                Node::RuleVar(v) => {
                    if rule.is_existential(*v) {
                        existentials += 1;
                    } else {
                        universals += 1;
                    }
                }
            }
        }
        consts.sort_unstable();
        consts.dedup();
        if consts.len() > 1 {
            return None; // two distinct constants forced equal
        }
        if existentials > 0 {
            // An existential class must not touch constants, other
            // existentials, universal rule variables (a fresh null never
            // equals a pre-existing element), or query variables that
            // survive outside the piece.
            if existentials > 1 || universals > 0 || !consts.is_empty() {
                return None;
            }
            if qvars.iter().any(|v| outside_vars.contains(&Term::Qvar(*v))) {
                return None;
            }
        }
        let repr = if let Some(&c) = consts.first() {
            Repr::Const(c)
        } else if let Some(&v) = qvars.first() {
            Repr::Qvar(v)
        } else {
            let f = next_fresh;
            next_fresh += 1;
            Repr::Fresh(f)
        };
        reprs.push((class, repr));
    }
    let subst_term = |t: Term, reprs: &[(Vec<Node>, Repr)]| -> Term {
        for (class, repr) in reprs {
            if class.contains(&Node::Term(t)) {
                return match repr {
                    Repr::Const(c) => Term::Const(*c),
                    Repr::Qvar(v) => Term::Qvar(*v),
                    Repr::Fresh(f) => Term::Qvar(*f),
                };
            }
        }
        t
    };
    let subst_rule_var = |v: Var, reprs: &[(Vec<Node>, Repr)], fresh_base: &mut u32| -> Term {
        for (class, repr) in reprs {
            if class.contains(&Node::RuleVar(v)) {
                return match repr {
                    Repr::Const(c) => Term::Const(*c),
                    Repr::Qvar(w) => Term::Qvar(*w),
                    Repr::Fresh(f) => Term::Qvar(*f),
                };
            }
        }
        // A body variable not occurring in the unified head atoms: fresh.
        let f = *fresh_base;
        *fresh_base += 1;
        Term::Qvar(f)
    };

    // Build the rewritten query: surviving atoms + the rule body.
    let mut atoms: Vec<(PredId, Vec<Term>)> = Vec::new();
    for (i, (pred, args)) in query.atoms.iter().enumerate() {
        if piece_set.contains(&i) {
            continue;
        }
        atoms.push((*pred, args.iter().map(|&t| subst_term(t, &reprs)).collect()));
    }
    // A single body variable can occur several times; memoize its fresh
    // assignment across positions by pre-binding all body vars.
    let mut body_var_terms: Vec<Option<Term>> = vec![None; rule.var_count()];
    for atom in rule.body() {
        let mut args = Vec::with_capacity(atom.args.len());
        for &v in &atom.args {
            let term = if let Some(t) = body_var_terms[v.index()] {
                t
            } else {
                let t = subst_rule_var(v, &reprs, &mut next_fresh);
                body_var_terms[v.index()] = Some(t);
                t
            };
            args.push(term);
        }
        atoms.push((atom.pred, args));
    }
    Some(Query { atoms }.canonical())
}

/// Enumerates all piece rewritings of `query` with `rule` and pushes the
/// new queries into `out`.
fn rewritings_into(query: &Query, rule: &Tgd, out: &mut Vec<Query>) {
    // Pieces: non-empty subsets of query atoms, each mapped to a head atom
    // with the same predicate. Queries are small (bounded by the candidate
    // sizes of Algorithms 1–2), so the enumeration is affordable.
    let candidates: Vec<Vec<usize>> = query
        .atoms
        .iter()
        .map(|(pred, _)| {
            rule.head()
                .iter()
                .enumerate()
                .filter(|(_, h)| h.pred == *pred)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let n = query.atoms.len();
    // Iterate over assignment vectors: each atom gets either "not in piece"
    // or one of its candidate head atoms.
    #[allow(clippy::too_many_arguments)] // internal recursion state
    fn go(
        idx: usize,
        n: usize,
        candidates: &[Vec<usize>],
        piece: &mut Vec<usize>,
        choice: &mut Vec<usize>,
        query: &Query,
        rule: &Tgd,
        out: &mut Vec<Query>,
    ) {
        if idx == n {
            if !piece.is_empty() {
                if let Some(rewritten) = rewrite_step(query, piece, choice, rule) {
                    out.push(rewritten);
                }
            }
            return;
        }
        // Not in the piece.
        go(idx + 1, n, candidates, piece, choice, query, rule, out);
        // In the piece, via each candidate head atom.
        for &h in &candidates[idx] {
            piece.push(idx);
            choice.push(h);
            go(idx + 1, n, candidates, piece, choice, query, rule, out);
            piece.pop();
            choice.pop();
        }
    }
    go(
        0,
        n,
        &candidates,
        &mut Vec::new(),
        &mut Vec::new(),
        query,
        rule,
        out,
    );
}

/// Decides `Σ ⊨ σ` for a set of **linear** tgds by saturating the backward
/// rewriting of `σ`'s head and matching each rewriting against the frozen
/// body.
///
/// Always terminates up to the saturation cap (`max_queries`); the
/// procedure is exact: `Proved`/`Disproved` are definitive.
///
/// ```
/// use tgdkit_logic::{parse_tgd, parse_tgds, Schema};
/// use tgdkit_chase::{entails_linear, Entailment};
/// let mut schema = Schema::default();
/// // The chase of this set diverges, but the rewriting decides instantly.
/// let sigma = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z).").unwrap();
/// let two_steps = parse_tgd(&mut schema, "E(x,y) -> exists z, w : E(y,z), E(z,w)").unwrap();
/// assert_eq!(entails_linear(&schema, &sigma, &two_steps, 10_000), Entailment::Proved);
/// let wrong = parse_tgd(&mut schema, "E(x,y) -> exists z : E(z,x)").unwrap();
/// assert_eq!(entails_linear(&schema, &sigma, &wrong, 10_000), Entailment::Disproved);
/// ```
///
/// # Panics
/// Panics if some tgd of `sigma` is not linear.
pub fn entails_linear(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    max_queries: usize,
) -> Entailment {
    entails_linear_governed(schema, sigma, candidate, max_queries, &CancelToken::new())
}

/// [`entails_linear`] under a [`CancelToken`]: the saturation loop checks
/// the token periodically and reports `Unknown` when cancelled (sound — the
/// saturation was simply not finished).
pub fn entails_linear_governed(
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    max_queries: usize,
    token: &CancelToken,
) -> Entailment {
    assert!(
        sigma.iter().all(Tgd::is_linear),
        "entails_linear requires linear tgds"
    );
    // Frozen body database: universal var v ↦ Elem(v).
    let frozen = freeze_body(schema, candidate);
    // Initial query: the head with frontier variables as constants and
    // existentials as query variables.
    let initial = Query {
        atoms: candidate
            .head()
            .iter()
            .map(|atom| {
                (
                    atom.pred,
                    atom.args
                        .iter()
                        .map(|&v| {
                            if candidate.is_existential(v) {
                                Term::Qvar(v.0 - candidate.universal_count() as u32)
                            } else {
                                Term::Const(v.0)
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
    }
    .canonical();
    match saturate(sigma, initial, &frozen, max_queries, token) {
        Some(true) => Entailment::Proved,
        Some(false) => Entailment::Disproved,
        None => Entailment::Unknown,
    }
}

/// Saturates the rewriting set of `initial` under `sigma`, testing each
/// query against `database` as it is generated. `Some(true)` on the first
/// match, `Some(false)` when the saturation completed without one, `None`
/// when the cap was hit or `token` was cancelled first.
///
/// The database is indexed **once** up front; every generated rewriting is
/// then probed against the shared index.
fn saturate(
    sigma: &[Tgd],
    initial: Query,
    database: &Instance,
    max_queries: usize,
    token: &CancelToken,
) -> Option<bool> {
    let index = InstanceIndex::new(database);
    let mut seen: BTreeSet<Query> = BTreeSet::new();
    let mut frontier: Vec<Query> = vec![initial.clone()];
    seen.insert(initial);
    let mut popped = 0usize;
    while let Some(query) = frontier.pop() {
        popped += 1;
        // Cooperative cancellation every 64 popped queries (a token check
        // can consult a deadline clock).
        if popped.is_multiple_of(64) && token.is_cancelled() {
            return None;
        }
        if query.holds_in(&index) {
            return Some(true);
        }
        if seen.len() > max_queries {
            return None;
        }
        let mut new_queries = Vec::new();
        for rule in sigma {
            rewritings_into(&query, rule, &mut new_queries);
        }
        for q in new_queries {
            if seen.insert(q.clone()) {
                frontier.push(q);
            }
        }
    }
    Some(false)
}

/// Decides Boolean certain answering under **linear** tgds by first-order
/// (UCQ) rewriting — no chase is ever built, so divergence is impossible:
/// `Σ, D ⊨ q` iff some backward rewriting of `q` matches `D` directly.
///
/// Returns `None` only if the saturation cap is hit.
///
/// ```
/// use tgdkit_logic::{parse_tgd, parse_tgds, Schema};
/// use tgdkit_instance::parse_instance;
/// use tgdkit_hom::Cq;
/// use tgdkit_chase::certainly_holds_by_rewriting;
/// let mut schema = Schema::default();
/// // Divergent-chase ontology; rewriting answers instantly.
/// let sigma = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z).").unwrap();
/// let data = parse_instance(&mut schema, "E(a,b)").unwrap();
/// let probe = parse_tgd(&mut schema, "E(u,v), E(v,w), E(w,t) -> T(u)").unwrap();
/// let q = Cq::boolean(probe.body().to_vec());
/// assert_eq!(certainly_holds_by_rewriting(&data, &sigma, &q, 100_000), Some(true));
/// ```
///
/// # Panics
/// Panics if some tgd of `sigma` is not linear.
pub fn certainly_holds_by_rewriting(
    data: &Instance,
    sigma: &[Tgd],
    query: &tgdkit_hom::Cq,
    max_queries: usize,
) -> Option<bool> {
    assert!(
        sigma.iter().all(Tgd::is_linear),
        "rewriting-based certain answering requires linear tgds"
    );
    let initial = Query {
        atoms: query
            .atoms()
            .iter()
            .map(|atom| {
                (
                    atom.pred,
                    atom.args.iter().map(|v| Term::Qvar(v.0)).collect(),
                )
            })
            .collect(),
    }
    .canonical();
    saturate(sigma, initial, data, max_queries, &CancelToken::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entail::entails;
    use crate::ChaseBudget;
    use tgdkit_logic::{parse_tgd, parse_tgds};

    fn check_against_chase(sigma_text: &str, candidate_text: &str) {
        let mut schema = Schema::default();
        let sigma = parse_tgds(&mut schema, sigma_text).unwrap();
        let candidate = parse_tgd(&mut schema, candidate_text).unwrap();
        let by_chase = entails(&schema, &sigma, &candidate, ChaseBudget::default());
        let by_rewriting = entails_linear(&schema, &sigma, &candidate, 100_000);
        if by_chase != Entailment::Unknown {
            assert_eq!(
                by_chase, by_rewriting,
                "disagreement on {sigma_text} |= {candidate_text}"
            );
        }
    }

    #[test]
    fn agrees_with_chase_on_terminating_cases() {
        let cases = [
            ("P(x) -> Q(x).", "P(x) -> Q(x)"),
            ("P(x) -> Q(x). Q(x) -> R(x).", "P(x) -> R(x)"),
            ("P(x) -> Q(x).", "Q(x) -> P(x)"),
            ("E(x,y) -> E(y,x).", "E(x,y) -> E(y,x)"),
            ("E(x,y) -> E(y,x).", "E(x,y) -> E(x,x)"),
            (
                "P(x) -> exists z : E(x,z). E(x,y) -> Q(y).",
                "P(x) -> exists w : E(x,w), Q(w)",
            ),
            ("P(x) -> exists z : E(x,z).", "P(x) -> E(x,x)"),
            (
                "true -> exists x : P(x). P(x) -> Q(x).",
                "true -> exists x : Q(x)",
            ),
        ];
        for (sigma, candidate) in cases {
            check_against_chase(sigma, candidate);
        }
    }

    #[test]
    fn decides_divergent_chains() {
        let mut schema = Schema::default();
        let sigma = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z).").unwrap();
        // k-step reachability from y is entailed for every k.
        let three = parse_tgd(
            &mut schema,
            "E(x,y) -> exists z, w, u : E(y,z), E(z,w), E(w,u)",
        )
        .unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &three, 100_000),
            Entailment::Proved
        );
        // E(x,y) -> exists z : E(z,y) is trivially entailed (z = x) ...
        let into_y = parse_tgd(&mut schema, "E(x,y) -> exists z : E(z,y)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &into_y, 100_000),
            Entailment::Proved
        );
        // ... but nothing flows backwards into x.
        let back = parse_tgd(&mut schema, "E(x,y) -> exists z : E(z,x)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &back, 100_000),
            Entailment::Disproved
        );
        // And nothing forces a loop.
        let looped = parse_tgd(&mut schema, "E(x,y) -> exists z : E(z,z)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &looped, 100_000),
            Entailment::Disproved
        );
    }

    #[test]
    fn multi_atom_heads_need_piece_unification() {
        let mut schema = Schema::default();
        // The head atoms share the existential z: a query asking for the
        // shared pattern must rewrite as one piece.
        let sigma = parse_tgds(&mut schema, "P(x) -> exists z : R(x,z), S(x,z).").unwrap();
        let shared = parse_tgd(&mut schema, "P(x) -> exists w : R(x,w), S(x,w)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &shared, 100_000),
            Entailment::Proved
        );
        // Distinct witnesses are also entailed (weaker) ...
        let split = parse_tgd(&mut schema, "P(x) -> exists w, u : R(x,w), S(x,u)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &split, 100_000),
            Entailment::Proved
        );
        // ... but a *joined-the-other-way* pattern is not.
        let crossed = parse_tgd(&mut schema, "P(x) -> exists w : R(x,w), S(w,x)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &crossed, 100_000),
            Entailment::Disproved
        );
    }

    #[test]
    fn partial_piece_with_outside_variable_is_rejected() {
        let mut schema = Schema::default();
        // R(x,z) with z also used in S(z,x) cannot unify z with the
        // existential unless S(z,x) joins the piece — and S is not in the
        // head, so entailment fails.
        let sigma = parse_tgds(&mut schema, "P(x) -> exists z : R(x,z).").unwrap();
        let q = parse_tgd(&mut schema, "P(x) -> exists w : R(x,w), S(w,x)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &q, 100_000),
            Entailment::Disproved
        );
    }

    #[test]
    fn constants_block_existential_unification() {
        let mut schema = Schema::default();
        // The frontier constant x cannot be the existential witness.
        let sigma = parse_tgds(&mut schema, "P(x) -> exists z : E(x,z).").unwrap();
        let q = parse_tgd(&mut schema, "P(x) -> E(x,x)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &q, 100_000),
            Entailment::Disproved
        );
    }

    #[test]
    fn empty_body_rules_rewrite_to_smaller_queries() {
        let mut schema = Schema::default();
        let sigma = parse_tgds(
            &mut schema,
            "true -> exists x : P(x). P(x) -> exists z : E(x,z).",
        )
        .unwrap();
        let q = parse_tgd(&mut schema, "true -> exists x, z : P(x), E(x,z)").unwrap();
        assert_eq!(
            entails_linear(&schema, &sigma, &q, 100_000),
            Entailment::Proved
        );
    }

    #[test]
    fn rewriting_based_certain_answering_matches_chase() {
        use crate::certain::certainly_holds;
        use tgdkit_hom::Cq;
        use tgdkit_instance::parse_instance;
        let mut schema = Schema::default();
        // A terminating linear set: both routes must agree.
        let sigma = parse_tgds(&mut schema, "A(x) -> B(x). B(x) -> C(x).").unwrap();
        let data = parse_instance(&mut schema, "A(a), B(b)").unwrap();
        let cases = [
            ("C(x), A(x) -> T(x)", Some(true)),
            ("C(x), B(x) -> T(x)", Some(true)),
            ("A(x), T(x) -> T(x)", Some(false)),
        ];
        for (text, expected) in cases {
            let probe = parse_tgd(&mut schema, text).unwrap();
            let q = Cq::boolean(probe.body().to_vec());
            assert_eq!(
                certainly_holds_by_rewriting(&data, &sigma, &q, 100_000),
                expected,
                "rewriting wrong on {text}"
            );
            assert_eq!(
                certainly_holds(&data, &sigma, &q, crate::ChaseBudget::default()),
                expected,
                "chase wrong on {text}"
            );
        }
    }

    #[test]
    fn rewriting_based_answering_handles_divergence() {
        use tgdkit_hom::Cq;
        use tgdkit_instance::parse_instance;
        let mut schema = Schema::default();
        let sigma = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z).").unwrap();
        let data = parse_instance(&mut schema, "E(a,b)").unwrap();
        // Any forward path is certain; a backward edge into a is not.
        let forward = parse_tgd(&mut schema, "E(u,v), E(v,w) -> T(u)").unwrap();
        let q1 = Cq::boolean(forward.body().to_vec());
        assert_eq!(
            certainly_holds_by_rewriting(&data, &sigma, &q1, 100_000),
            Some(true)
        );
        let self_loop = parse_tgd(&mut schema, "E(u,u) -> T(u)").unwrap();
        let q2 = Cq::boolean(self_loop.body().to_vec());
        assert_eq!(
            certainly_holds_by_rewriting(&data, &sigma, &q2, 100_000),
            Some(false)
        );
    }

    #[test]
    fn randomized_agreement_with_chase() {
        use tgdkit_instance::InstanceGen;
        let _ = InstanceGen::new(Schema::default(), 0); // keep dep used
                                                        // Cross-validate on generated linear sets where the chase
                                                        // terminates.
        for seed in 0..40u64 {
            let mut schema = Schema::default();
            let sigma = parse_tgds(
                &mut schema,
                "A(x) -> B(x). B(x) -> exists z : E(x,z). E(x,y) -> C(y). C(x) -> A(x).",
            )
            .unwrap();
            // Candidates: compositions of the cycle.
            let texts = [
                "A(x) -> exists z : E(x,z)",
                "A(x) -> exists z : C(z)",
                "E(x,y) -> A(y)",
                "A(x) -> C(x)",
                "C(x) -> exists z, w : E(x,z), E(z,w)",
            ];
            let candidate = parse_tgd(&mut schema, texts[(seed % 5) as usize]).unwrap();
            let by_chase = entails(&schema, &sigma, &candidate, ChaseBudget::default());
            let by_rewriting = entails_linear(&schema, &sigma, &candidate, 100_000);
            if by_chase != Entailment::Unknown {
                assert_eq!(by_chase, by_rewriting, "case {seed}");
            } else {
                assert_ne!(by_rewriting, Entailment::Unknown, "rewriting should decide");
            }
        }
    }
}
