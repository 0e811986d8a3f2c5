//! Canonical enumeration of candidate tgds from the bounded classes
//! `LTGD_{n,m}`, `GTGD_{n,m}` and `TGD_{n,m}` over a schema.
//!
//! Algorithms 1 and 2 of paper §9.2 construct
//! `Σ' = {σ | σ over S, {σ} ∈ C_{n,m}, Σ ⊨ σ}`; this module generates the
//! candidate space, canonicalized (variables renamed by first occurrence,
//! conjunctions deduplicated up to renaming/reordering via
//! [`tgdkit_logic::canon`]).
//!
//! The paper's candidate spaces are doubly exponential: a head may be any
//! conjunction of atoms over `n + m` variables. The enumerator therefore
//! takes per-conjunction **atom budgets**; an [`Enumeration`] records
//! whether the space was covered exhaustively relative to the paper bound
//! (budget ≥ full atom universe), which the rewriting procedures use to
//! distinguish definitive *not rewritable* answers from budget-limited
//! *inconclusive* ones.

use std::collections::{BTreeSet, HashSet};
use tgdkit_chase::CancelToken;
use tgdkit_instance::FxBuildHasher;
use tgdkit_logic::{canonical_tgd_with_key, Atom, PredId, Schema, Tgd, TgdVariantKey, Var};

/// How many enumeration-loop iterations may pass between two cancellation
/// checks inside the governed enumeration loops. Strides are counted on a
/// dedicated iteration counter, never on `tgds.len()`: rejected or deduped
/// candidates leave the length unchanged, so a length-keyed stride either
/// polls every iteration (parked on a multiple) or never again (parked off
/// one) — exactly the deadline-overshoot failure mode.
const ENUM_CANCEL_STRIDE: usize = 256;

/// Budgets for candidate enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOptions {
    /// Maximum number of atoms in a candidate head conjunction.
    pub max_head_atoms: usize,
    /// Maximum number of *non-guard* atoms in a guarded candidate body
    /// (ignored for linear candidates).
    pub max_body_atoms: usize,
    /// Hard cap on the number of generated candidates (safety valve; when
    /// hit the enumeration is marked non-exhaustive).
    pub max_candidates: usize,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions {
            max_head_atoms: 2,
            max_body_atoms: 2,
            max_candidates: 250_000,
        }
    }
}

/// The result of an enumeration: deduplicated canonical candidates and
/// whether the space was exhausted relative to the paper's bound.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Canonical candidates, in generation order.
    pub tgds: Vec<Tgd>,
    /// `tgds[i]`'s [`tgd_variant_key`](tgdkit_logic::tgd_variant_key),
    /// parallel to `tgds`. Dedup computes every key anyway; keeping them lets
    /// downstream body-grouping and cache lookups skip the canonical
    /// ordering search entirely.
    pub keys: Vec<TgdVariantKey>,
    /// `true` when the atom budgets covered the full candidate space of the
    /// paper's construction (so an unsuccessful rewriting search is a
    /// definitive negative answer).
    pub exhaustive: bool,
}

/// All atoms `R(v̄)` over the variables `Var(0..num_vars)`, for every
/// predicate of the schema, in deterministic order.
pub fn atom_universe(schema: &Schema, num_vars: usize) -> Vec<Atom<Var>> {
    let mut out = Vec::new();
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        push_all_tuples(pred, arity, num_vars, &mut out);
    }
    out
}

fn push_all_tuples(pred: PredId, arity: usize, num_vars: usize, out: &mut Vec<Atom<Var>>) {
    if arity == 0 {
        out.push(Atom::new(pred, Vec::new()));
        return;
    }
    if num_vars == 0 {
        return;
    }
    let mut idx = vec![0u32; arity];
    'tuples: loop {
        out.push(Atom::new(pred, idx.iter().map(|&i| Var(i)).collect()));
        let mut pos = 0;
        loop {
            if pos == arity {
                break 'tuples;
            }
            idx[pos] += 1;
            if (idx[pos] as usize) < num_vars {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// All canonical variable patterns of one atom of the given arity using at
/// most `max_vars` distinct variables: restricted-growth strings, so each
/// pattern is the canonical representative of its renaming class.
pub fn atom_patterns(arity: usize, max_vars: usize) -> Vec<Vec<Var>> {
    let mut out = Vec::new();
    if arity == 0 {
        out.push(Vec::new());
        return out;
    }
    if max_vars == 0 {
        return out;
    }
    fn go(arity: usize, max_vars: usize, acc: &mut Vec<u32>, used: u32, out: &mut Vec<Vec<Var>>) {
        if acc.len() == arity {
            out.push(acc.iter().map(|&i| Var(i)).collect());
            return;
        }
        // Existing variables, then (if allowed) one fresh variable.
        for v in 0..used {
            acc.push(v);
            go(arity, max_vars, acc, used, out);
            acc.pop();
        }
        if (used as usize) < max_vars {
            acc.push(used);
            go(arity, max_vars, acc, used + 1, out);
            acc.pop();
        }
    }
    let mut acc = Vec::with_capacity(arity);
    go(arity, max_vars, &mut acc, 0, &mut out);
    out
}

/// Enumerates canonical single-atom bodies with at most `n` distinct
/// variables — the linear bodies of Algorithm 1. Each entry is
/// `(body_atom, distinct_var_count)`.
pub fn linear_bodies(schema: &Schema, n: usize) -> Vec<(Atom<Var>, usize)> {
    let mut out = Vec::new();
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        for pattern in atom_patterns(arity, n) {
            let distinct = pattern.iter().copied().collect::<BTreeSet<Var>>().len();
            out.push((Atom::new(pred, pattern), distinct));
        }
    }
    out
}

/// Enumerates all head conjunctions for a body using `universal_count`
/// universal variables: non-empty subsets of the atom universe over
/// `universal_count + m` variables, of size at most `max_atoms`.
///
/// Returns `(heads, exhaustive)` where `exhaustive` reflects whether
/// `max_atoms` covered the whole universe.
pub fn head_conjunctions(
    schema: &Schema,
    universal_count: usize,
    m: usize,
    max_atoms: usize,
) -> (Vec<Vec<Atom<Var>>>, bool) {
    let universe = atom_universe(schema, universal_count + m);
    let exhaustive = max_atoms >= universe.len();
    let cap = max_atoms.min(universe.len());
    let mut out = Vec::new();
    let mut acc: Vec<Atom<Var>> = Vec::new();
    fn go(
        universe: &[Atom<Var>],
        start: usize,
        cap: usize,
        acc: &mut Vec<Atom<Var>>,
        out: &mut Vec<Vec<Atom<Var>>>,
    ) {
        if !acc.is_empty() {
            out.push(acc.clone());
        }
        if acc.len() == cap {
            return;
        }
        for i in start..universe.len() {
            acc.push(universe[i].clone());
            go(universe, i + 1, cap, acc, out);
            acc.pop();
        }
    }
    go(&universe, 0, cap, &mut acc, &mut out);
    (out, exhaustive)
}

/// Deduplicates tgds up to renaming/reordering, keeping canonical
/// representatives in first-seen order.
pub fn dedup_canonical(tgds: impl IntoIterator<Item = Tgd>) -> Vec<Tgd> {
    dedup_canonical_governed(tgds, &CancelToken::new()).0
}

/// [`dedup_canonical`] under a [`CancelToken`]: once cancelled, the
/// remaining input is dropped (callers treating cancellation as a
/// non-exhaustive enumeration already discard the partial result). Returns
/// the representatives together with their variant keys (parallel vectors),
/// so enumeration callers never recompute the canonical ordering search.
fn dedup_canonical_governed(
    tgds: impl IntoIterator<Item = Tgd>,
    token: &CancelToken,
) -> (Vec<Tgd>, Vec<TgdVariantKey>) {
    let mut seen: HashSet<TgdVariantKey, FxBuildHasher> = HashSet::default();
    let mut out = Vec::new();
    let mut keys = Vec::new();
    for (i, tgd) in tgds.into_iter().enumerate() {
        if i % ENUM_CANCEL_STRIDE == 0 && token.is_cancelled() {
            break;
        }
        let (canon, key) = canonical_tgd_with_key(&tgd);
        if seen.insert(key.clone()) {
            out.push(canon);
            keys.push(key);
        }
    }
    (out, keys)
}

/// The candidate space of Algorithm 1: canonical linear tgds over `schema`
/// with at most `n` universal and `m` existential variables.
pub fn linear_candidates(schema: &Schema, n: usize, m: usize, opts: &EnumOptions) -> Enumeration {
    linear_candidates_governed(schema, n, m, opts, &CancelToken::new())
}

/// [`linear_candidates`] under a [`CancelToken`]: the generation and dedup
/// loops check the token every [`ENUM_CANCEL_STRIDE`] candidates, so a
/// deadline expiring mid-enumeration stops the sweep promptly (the result is
/// then marked non-exhaustive; governed rewriting discards it as
/// `Cancelled`).
pub fn linear_candidates_governed(
    schema: &Schema,
    n: usize,
    m: usize,
    opts: &EnumOptions,
    token: &CancelToken,
) -> Enumeration {
    let mut tgds = Vec::new();
    let mut exhaustive = true;
    let mut since_check = 0usize;
    'outer: for (body_atom, distinct) in linear_bodies(schema, n) {
        if token.is_cancelled() {
            exhaustive = false;
            break;
        }
        let (heads, heads_exhaustive) = head_conjunctions(schema, distinct, m, opts.max_head_atoms);
        exhaustive &= heads_exhaustive;
        for head in heads {
            if let Ok(tgd) = Tgd::new(vec![body_atom.clone()], head) {
                tgds.push(tgd);
            }
            if tgds.len() >= opts.max_candidates {
                exhaustive = false;
                break 'outer;
            }
            since_check += 1;
            if since_check >= ENUM_CANCEL_STRIDE {
                since_check = 0;
                if token.is_cancelled() {
                    exhaustive = false;
                    break 'outer;
                }
            }
        }
    }
    // Empty-body tgds are linear too (at most one body atom).
    let (empty_heads, eh_exhaustive) = head_conjunctions(schema, 0, m, opts.max_head_atoms);
    exhaustive &= eh_exhaustive;
    for head in empty_heads {
        if let Ok(tgd) = Tgd::new(Vec::new(), head) {
            tgds.push(tgd);
        }
    }
    let (tgds, keys) = dedup_canonical_governed(tgds, token);
    Enumeration {
        tgds,
        keys,
        exhaustive,
    }
}

/// The candidate space of Algorithm 2: canonical guarded tgds over `schema`
/// with at most `n` universal and `m` existential variables. A guarded body
/// is a guard atom using exactly the tgd's universal variables plus at most
/// `max_body_atoms` side atoms over those variables.
pub fn guarded_candidates(schema: &Schema, n: usize, m: usize, opts: &EnumOptions) -> Enumeration {
    guarded_candidates_governed(schema, n, m, opts, &CancelToken::new())
}

/// [`guarded_candidates`] under a [`CancelToken`] (same check granularity
/// as [`linear_candidates_governed`]).
pub fn guarded_candidates_governed(
    schema: &Schema,
    n: usize,
    m: usize,
    opts: &EnumOptions,
    token: &CancelToken,
) -> Enumeration {
    let mut tgds = Vec::new();
    let mut exhaustive = true;
    let mut since_check = 0usize;
    'outer: for (guard, distinct) in linear_bodies(schema, n) {
        if token.is_cancelled() {
            exhaustive = false;
            break;
        }
        // Guardedness: every universal variable occurs in the guard, i.e.
        // the side atoms may only use the guard's variables.
        let side_universe: Vec<Atom<Var>> = atom_universe(schema, distinct)
            .into_iter()
            .filter(|a| *a != guard)
            .collect();
        exhaustive &= opts.max_body_atoms >= side_universe.len();
        let side_cap = opts.max_body_atoms.min(side_universe.len());
        let mut sides: Vec<Vec<Atom<Var>>> = vec![Vec::new()];
        {
            let mut acc: Vec<Atom<Var>> = Vec::new();
            fn go(
                universe: &[Atom<Var>],
                start: usize,
                cap: usize,
                acc: &mut Vec<Atom<Var>>,
                out: &mut Vec<Vec<Atom<Var>>>,
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
            go(&side_universe, 0, side_cap, &mut acc, &mut sides);
        }
        let (heads, heads_exhaustive) = head_conjunctions(schema, distinct, m, opts.max_head_atoms);
        exhaustive &= heads_exhaustive;
        for side in &sides {
            let mut body = vec![guard.clone()];
            body.extend(side.iter().cloned());
            for head in &heads {
                if let Ok(tgd) = Tgd::new(body.clone(), head.clone()) {
                    debug_assert!(tgd.is_guarded());
                    tgds.push(tgd);
                }
                if tgds.len() >= opts.max_candidates {
                    exhaustive = false;
                    break 'outer;
                }
                since_check += 1;
                if since_check >= ENUM_CANCEL_STRIDE {
                    since_check = 0;
                    if token.is_cancelled() {
                        exhaustive = false;
                        break 'outer;
                    }
                }
            }
        }
    }
    // Empty-body tgds are guarded too (paper §2); include heads over only
    // existential variables.
    let (empty_heads, eh_exhaustive) = head_conjunctions(schema, 0, m, opts.max_head_atoms);
    exhaustive &= eh_exhaustive;
    for head in empty_heads {
        if let Ok(tgd) = Tgd::new(Vec::new(), head) {
            tgds.push(tgd);
        }
    }
    let (tgds, keys) = dedup_canonical_governed(tgds, token);
    Enumeration {
        tgds,
        keys,
        exhaustive,
    }
}

/// The candidate space of `TGD_{n,m}` with per-conjunction budgets, used by
/// the Theorem 4.1 synthesis pipeline: bodies are subsets of the atom
/// universe over `n` variables (of size ≤ `max_body_atoms`, including the
/// empty body), heads over the body's variables plus `m` existentials.
pub fn all_candidates(schema: &Schema, n: usize, m: usize, opts: &EnumOptions) -> Enumeration {
    let body_universe = atom_universe(schema, n);
    let mut exhaustive = opts.max_body_atoms >= body_universe.len();
    let body_cap = opts.max_body_atoms.min(body_universe.len());
    let mut bodies: Vec<Vec<Atom<Var>>> = vec![Vec::new()];
    {
        let mut acc: Vec<Atom<Var>> = Vec::new();
        fn go(
            universe: &[Atom<Var>],
            start: usize,
            cap: usize,
            acc: &mut Vec<Atom<Var>>,
            out: &mut Vec<Vec<Atom<Var>>>,
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
        go(&body_universe, 0, body_cap, &mut acc, &mut bodies);
    }
    let mut tgds = Vec::new();
    'outer: for body in &bodies {
        let distinct = tgdkit_logic::conjunction_vars(body).len();
        let (heads, heads_exhaustive) = head_conjunctions(schema, distinct, m, opts.max_head_atoms);
        exhaustive &= heads_exhaustive;
        for head in heads {
            // Heads over body vars + m fresh; `Tgd::new` classifies the
            // fresh ones as existential.
            if let Ok(tgd) = Tgd::new(body.clone(), head) {
                if tgd.universal_count() <= n && tgd.existential_count() <= m {
                    tgds.push(tgd);
                }
            }
            if tgds.len() >= opts.max_candidates {
                exhaustive = false;
                break 'outer;
            }
        }
    }
    let (tgds, keys) = dedup_canonical_governed(tgds, &CancelToken::new());
    Enumeration {
        tgds,
        keys,
        exhaustive,
    }
}

/// The paper's upper bound on the number of linear tgds over `S` with at
/// most `n` universal and `m` existential variables (Theorem 9.1 analysis):
/// `|S| · n^{ar(S)} · 2^{|S| · (n+m)^{ar(S)}}`, as an `f64` (it overflows
/// integers immediately).
pub fn paper_bound_linear(schema: &Schema, n: usize, m: usize) -> f64 {
    let s = schema.len() as f64;
    let ar = schema.max_arity() as f64;
    let bodies = s * (n as f64).powf(ar);
    let heads = (2f64).powf(s * ((n + m) as f64).powf(ar));
    bodies * heads
}

/// The paper's upper bound on the number of guarded tgds (Theorem 9.2
/// analysis): `2^{|S| · n^{ar(S)}} · 2^{|S| · (n+m)^{ar(S)}}`.
pub fn paper_bound_guarded(schema: &Schema, n: usize, m: usize) -> f64 {
    let s = schema.len() as f64;
    let ar = schema.max_arity() as f64;
    let bodies = (2f64).powf(s * (n as f64).powf(ar));
    let heads = (2f64).powf(s * ((n + m) as f64).powf(ar));
    bodies * heads
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_logic::tgd_variant_key;

    fn schema() -> Schema {
        Schema::builder().pred("R", 2).pred("T", 1).build()
    }

    #[test]
    fn atom_patterns_are_restricted_growth() {
        // Arity 2, up to 2 vars: [0,0], [0,1].
        let pats = atom_patterns(2, 2);
        assert_eq!(pats, vec![vec![Var(0), Var(0)], vec![Var(0), Var(1)]]);
        // Arity 3, up to 2 vars: 000, 001, 010, 011.
        assert_eq!(atom_patterns(3, 2).len(), 4);
        // Arity 2, 1 var: just [0,0].
        assert_eq!(atom_patterns(2, 1).len(), 1);
        assert_eq!(atom_patterns(2, 0).len(), 0);
        assert_eq!(atom_patterns(0, 3), vec![Vec::<Var>::new()]);
    }

    #[test]
    fn atom_universe_counts() {
        let s = schema();
        // 2 vars: R gets 4 tuples, T gets 2.
        assert_eq!(atom_universe(&s, 2).len(), 6);
        assert_eq!(atom_universe(&s, 1).len(), 2);
        assert_eq!(atom_universe(&s, 0).len(), 0);
    }

    #[test]
    fn linear_candidate_space_is_clean() {
        let s = schema();
        let e = linear_candidates(&s, 2, 1, &EnumOptions::default());
        assert!(!e.tgds.is_empty());
        for tgd in &e.tgds {
            assert!(tgd.is_linear());
            assert!(tgd.universal_count() <= 2);
            assert!(tgd.existential_count() <= 1);
            assert!(tgd.validate(&s).is_ok());
        }
        // No duplicates up to renaming.
        let keys: BTreeSet<TgdVariantKey> = e.tgds.iter().map(tgd_variant_key).collect();
        assert_eq!(keys.len(), e.tgds.len());
    }

    #[test]
    fn exhaustive_flag_reflects_budgets() {
        let s = Schema::builder().pred("T", 1).build();
        // Universe over 1+0 vars: only T(x0): 1 atom; budget 1 is
        // exhaustive.
        let opts = EnumOptions {
            max_head_atoms: 1,
            max_body_atoms: 1,
            max_candidates: 10_000,
        };
        assert!(linear_candidates(&s, 1, 0, &opts).exhaustive);
        let big = Schema::builder().pred("R", 2).build();
        // Universe over 2 vars: 4 atoms; head budget 1 is not exhaustive.
        assert!(!linear_candidates(&big, 2, 0, &opts).exhaustive);
        let opts4 = EnumOptions {
            max_head_atoms: 4,
            ..opts
        };
        assert!(linear_candidates(&big, 2, 0, &opts4).exhaustive);
    }

    #[test]
    fn guarded_candidates_are_guarded() {
        let s = schema();
        let e = guarded_candidates(&s, 2, 1, &EnumOptions::default());
        assert!(!e.tgds.is_empty());
        for tgd in &e.tgds {
            assert!(tgd.is_guarded(), "{tgd:?} not guarded");
            assert!(tgd.universal_count() <= 2);
            assert!(tgd.existential_count() <= 1);
        }
        // Guarded space strictly contains the linear one.
        let lin = linear_candidates(&s, 2, 1, &EnumOptions::default());
        assert!(e.tgds.len() > lin.tgds.len());
        // Includes multi-atom bodies like R(x,y), T(x) -> ...
        assert!(e.tgds.iter().any(|t| t.body().len() == 2));
        // Includes empty-body tgds.
        assert!(e.tgds.iter().any(|t| t.body().is_empty()));
    }

    #[test]
    fn all_candidates_cover_nonguarded_shapes() {
        let s = schema();
        let e = all_candidates(&s, 3, 0, &EnumOptions::default());
        // Transitivity is in TGD_{3,0} with 2 body atoms.
        assert!(e
            .tgds
            .iter()
            .any(|t| t.body().len() == 2 && !t.is_guarded() && t.is_full()));
    }

    #[test]
    fn paper_bounds_dominate_enumeration() {
        let s = schema();
        for (n, m) in [(1, 0), (2, 0), (2, 1)] {
            let opts = EnumOptions {
                max_head_atoms: 6,
                max_body_atoms: 6,
                max_candidates: 1_000_000,
            };
            let e = linear_candidates(&s, n, m, &opts);
            assert!(
                (e.tgds.len() as f64) <= paper_bound_linear(&s, n, m),
                "bound violated at ({n},{m})"
            );
            let g = guarded_candidates(&s, n, m, &opts);
            assert!((g.tgds.len() as f64) <= paper_bound_guarded(&s, n, m));
        }
    }
}
