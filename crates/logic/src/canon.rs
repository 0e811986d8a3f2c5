//! Canonicalization of tgds up to variable renaming and atom reordering.
//!
//! The rewriting algorithms of paper §9 enumerate candidate tgds and must
//! deduplicate them modulo renaming of variables and reordering of atoms
//! within the body/head conjunctions. [`canonical_tgd`] computes a canonical
//! representative by searching for the lexicographically least encoding over
//! all atom orderings (with variables renamed by first occurrence);
//! [`tgd_variant_key`] exposes that encoding as a hashable key.
//!
//! For dependencies with more than [`EXACT_LIMIT`] atoms per conjunction the
//! exhaustive search is replaced by a deterministic greedy pass; in that
//! regime two renaming-variants may receive different keys (dedup then keeps
//! both — harmless for correctness, only costing duplicate work downstream).

use crate::atom::{Atom, Var};
use crate::tgd::Tgd;

/// Maximum conjunction size for which the canonical search is exhaustive.
pub const EXACT_LIMIT: usize = 7;

/// A hashable key identifying a tgd up to variable renaming and atom
/// reordering (exactly, for conjunctions of at most [`EXACT_LIMIT`] atoms).
///
/// The `Default` key is the empty sequence, which encodes no tgd (and has
/// no body prefix): a placeholder where a key is carried but never read.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TgdVariantKey(Vec<u32>);

const SEP: u32 = u32::MAX;

impl TgdVariantKey {
    /// The body segment of the encoded sequence (everything before the
    /// body/head separator). The canonical body atoms are reconstructible
    /// from this prefix, so two keys share a body prefix iff the canonical
    /// bodies coincide — body-grouped evaluation keys its groups by it.
    pub fn body_prefix(&self) -> &[u32] {
        let sep = self
            .0
            .iter()
            .position(|&w| w == SEP)
            .expect("encoded key always contains the body/head separator");
        &self.0[..sep]
    }

    /// Number of `u32` words in the encoded canonical sequence. Used by the
    /// bounded entailment cache to estimate per-key residency.
    pub fn encoded_len(&self) -> usize {
        self.0.len()
    }
}

/// State of the encoding search: atom order chosen so far and the variable
/// renaming induced by first occurrence.
#[derive(Clone)]
struct SearchState {
    /// Renaming: original var index -> canonical id (u32::MAX = unassigned).
    renaming: Vec<u32>,
    assigned: u32,
    seq: Vec<u32>,
    body_order: Vec<usize>,
    head_order: Vec<usize>,
}

fn encode_atom(atom: &Atom<Var>, renaming: &mut [u32], assigned: &mut u32, seq: &mut Vec<u32>) {
    seq.push(atom.pred.0);
    for &v in &atom.args {
        let slot = &mut renaming[v.index()];
        if *slot == u32::MAX {
            *slot = *assigned;
            *assigned += 1;
        }
        seq.push(*slot);
    }
}

/// Exhaustive branch-and-bound over atom orderings, minimizing the encoded
/// sequence. `stage` 0 = choosing body atoms, 1 = head atoms.
struct Canonicalizer<'a> {
    body: &'a [Atom<Var>],
    head: &'a [Atom<Var>],
    num_vars: usize,
    best: Option<SearchState>,
}

impl<'a> Canonicalizer<'a> {
    fn run(mut self) -> SearchState {
        let init = SearchState {
            renaming: vec![u32::MAX; self.num_vars],
            assigned: 0,
            seq: Vec::new(),
            body_order: Vec::new(),
            head_order: Vec::new(),
        };
        self.extend(init, 0);
        self.best.expect("canonicalization always finds a state")
    }

    fn extend(&mut self, state: SearchState, stage: usize) {
        let atoms = if stage == 0 { self.body } else { self.head };
        let chosen = if stage == 0 {
            &state.body_order
        } else {
            &state.head_order
        };
        if chosen.len() == atoms.len() {
            if stage == 0 {
                let mut next = state;
                next.seq.push(SEP);
                self.extend(next, 1);
            } else {
                match &self.best {
                    Some(b) if b.seq <= state.seq => {}
                    _ => self.best = Some(state),
                }
            }
            return;
        }
        // Candidate next atoms: those minimizing the next encoded block.
        let mut best_block: Option<Vec<u32>> = None;
        let mut candidates: Vec<(usize, Vec<u32>, SearchState)> = Vec::new();
        for (i, atom) in atoms.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let mut st = state.clone();
            let mut block = Vec::with_capacity(atom.args.len() + 1);
            encode_atom(atom, &mut st.renaming, &mut st.assigned, &mut block);
            match &best_block {
                Some(b) if *b < block => continue,
                Some(b) if *b == block => {}
                _ => {
                    best_block = Some(block.clone());
                    candidates.retain(|(_, blk, _)| *blk <= block);
                }
            }
            candidates.push((i, block, st));
        }
        let best_block = best_block.expect("at least one remaining atom");
        for (i, block, mut st) in candidates {
            if block != best_block {
                continue;
            }
            st.seq.extend_from_slice(&block);
            if stage == 0 {
                st.body_order.push(i);
            } else {
                st.head_order.push(i);
            }
            // Prune against the best complete sequence found so far.
            if let Some(b) = &self.best {
                if b.seq.len() >= st.seq.len() && b.seq[..st.seq.len()] < st.seq[..] {
                    continue;
                }
            }
            self.extend(st, stage);
        }
    }
}

/// Deterministic greedy ordering used beyond [`EXACT_LIMIT`].
fn greedy_state(tgd: &Tgd) -> SearchState {
    let mut st = SearchState {
        renaming: vec![u32::MAX; tgd.var_count()],
        assigned: 0,
        seq: Vec::new(),
        body_order: Vec::new(),
        head_order: Vec::new(),
    };
    for (stage, atoms) in [(0, tgd.body()), (1, tgd.head())] {
        let mut remaining: Vec<usize> = (0..atoms.len()).collect();
        while !remaining.is_empty() {
            let mut best: Option<(usize, Vec<u32>)> = None;
            for &i in &remaining {
                let mut renaming = st.renaming.clone();
                let mut assigned = st.assigned;
                let mut block = Vec::new();
                encode_atom(&atoms[i], &mut renaming, &mut assigned, &mut block);
                if best.as_ref().is_none_or(|(_, b)| block < *b) {
                    best = Some((i, block));
                }
            }
            let (i, _) = best.unwrap();
            encode_atom(&atoms[i], &mut st.renaming, &mut st.assigned, &mut st.seq);
            if stage == 0 {
                st.body_order.push(i);
            } else {
                st.head_order.push(i);
            }
            remaining.retain(|&j| j != i);
        }
        if stage == 0 {
            st.seq.push(SEP);
        }
    }
    st
}

/// Conjunction size up to which [`canonical_state_small`] enumerates every
/// ordering directly (at most 6 x 6 encodings) instead of running the
/// branch-and-bound search. The two produce the same minimal sequence; the
/// direct loop reuses scratch buffers where the search clones its state per
/// branch, which matters on the candidate-dedup hot path (Algorithm 1
/// candidates rarely exceed two body atoms).
const SMALL_LIMIT: usize = 3;

fn small_perms(n: usize) -> &'static [&'static [usize]] {
    const P0: &[&[usize]] = &[&[]];
    const P1: &[&[usize]] = &[&[0]];
    const P2: &[&[usize]] = &[&[0, 1], &[1, 0]];
    const P3: &[&[usize]] = &[
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
    ];
    match n {
        0 => P0,
        1 => P1,
        2 => P2,
        3 => P3,
        _ => unreachable!("small_perms called beyond SMALL_LIMIT"),
    }
}

/// Exhaustive-by-enumeration canonical state for tiny conjunctions: encode
/// the tgd under every (body ordering, head ordering) pair and keep the
/// lexicographically least sequence. Equivalent to [`Canonicalizer`] (both
/// minimize the same encoding over the same ordering space) but allocation
/// free until a new minimum is found.
fn canonical_state_small(tgd: &Tgd) -> SearchState {
    let (body, head) = (tgd.body(), tgd.head());
    let mut renaming = vec![u32::MAX; tgd.var_count()];
    let mut seq: Vec<u32> = Vec::new();
    let mut best: Option<SearchState> = None;
    for &bp in small_perms(body.len()) {
        for &hp in small_perms(head.len()) {
            renaming.iter_mut().for_each(|slot| *slot = u32::MAX);
            seq.clear();
            let mut assigned = 0u32;
            for &i in bp {
                encode_atom(&body[i], &mut renaming, &mut assigned, &mut seq);
            }
            seq.push(SEP);
            for &i in hp {
                encode_atom(&head[i], &mut renaming, &mut assigned, &mut seq);
            }
            if best.as_ref().is_none_or(|b| seq < b.seq) {
                best = Some(SearchState {
                    renaming: renaming.clone(),
                    assigned,
                    seq: seq.clone(),
                    body_order: bp.to_vec(),
                    head_order: hp.to_vec(),
                });
            }
        }
    }
    best.expect("at least one ordering pair")
}

fn canonical_state(tgd: &Tgd) -> SearchState {
    if tgd.body().len() <= SMALL_LIMIT && tgd.head().len() <= SMALL_LIMIT {
        canonical_state_small(tgd)
    } else if tgd.body().len() <= EXACT_LIMIT && tgd.head().len() <= EXACT_LIMIT {
        Canonicalizer {
            body: tgd.body(),
            head: tgd.head(),
            num_vars: tgd.var_count(),
            best: None,
        }
        .run()
    } else {
        greedy_state(tgd)
    }
}

/// The canonical renaming-and-reordering key of a tgd.
pub fn tgd_variant_key(tgd: &Tgd) -> TgdVariantKey {
    TgdVariantKey(canonical_state(tgd).seq)
}

/// The canonical representative of a tgd's renaming/reordering class.
///
/// `canonical_tgd(a) == canonical_tgd(b)` iff `a` and `b` differ only by a
/// variable renaming and by reordering atoms within their conjunctions
/// (exactly, up to [`EXACT_LIMIT`] atoms per conjunction).
pub fn canonical_tgd(tgd: &Tgd) -> Tgd {
    canonical_tgd_with_key(tgd).0
}

/// [`canonical_tgd`] and [`tgd_variant_key`] from a single canonicalization
/// pass — both derive from the same minimal encoding, so callers needing
/// the representative *and* the key (candidate grouping + entailment-cache
/// keying) should not pay for the ordering search twice.
pub fn canonical_tgd_with_key(tgd: &Tgd) -> (Tgd, TgdVariantKey) {
    let st = canonical_state(tgd);
    let rename = |atom: &Atom<Var>| -> Atom<Var> { atom.map(|v| Var(st.renaming[v.index()])) };
    let body: Vec<Atom<Var>> = st
        .body_order
        .iter()
        .map(|&i| rename(&tgd.body()[i]))
        .collect();
    let head: Vec<Atom<Var>> = st
        .head_order
        .iter()
        .map(|&i| rename(&tgd.head()[i]))
        .collect();
    let canon = Tgd::new(body, head).expect("canonical form of a valid tgd is valid");
    (canon, TgdVariantKey(st.seq))
}

/// Removes head atoms that already occur in the body (an
/// equivalence-preserving simplification: the identity extension always
/// witnesses them). Returns `None` when every head atom is redundant, i.e.
/// the tgd is a tautology.
pub fn simplify_tgd(tgd: &Tgd) -> Option<Tgd> {
    let head: Vec<Atom<Var>> = tgd
        .head()
        .iter()
        .filter(|a| !tgd.body().contains(a))
        .cloned()
        .collect();
    if head.is_empty() {
        return None;
    }
    if head.len() == tgd.head().len() {
        return Some(tgd.clone());
    }
    Tgd::new(tgd.body().to_vec(), head).ok()
}

/// `true` when the two tgds are equal up to variable renaming and atom
/// reordering.
pub fn same_up_to_renaming(a: &Tgd, b: &Tgd) -> bool {
    if a.universal_count() != b.universal_count()
        || a.existential_count() != b.existential_count()
        || a.body().len() != b.body().len()
        || a.head().len() != b.head().len()
    {
        return false;
    }
    tgd_variant_key(a) == tgd_variant_key(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tgd;
    use crate::schema::Schema;

    fn tgd(schema: &mut Schema, text: &str) -> Tgd {
        parse_tgd(schema, text).unwrap()
    }

    #[test]
    fn renaming_variants_share_key() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "R(x,y), S(y,z) -> T(x,z)");
        let b = tgd(&mut s, "R(u,v), S(v,w) -> T(u,w)");
        assert!(same_up_to_renaming(&a, &b));
        assert_eq!(canonical_tgd(&a), canonical_tgd(&b));
    }

    #[test]
    fn reordered_bodies_share_key() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "R(x,y), S(y,z) -> T(x,z)");
        let b = tgd(&mut s, "S(y,z), R(x,y) -> T(x,z)");
        assert!(same_up_to_renaming(&a, &b));
    }

    #[test]
    fn different_patterns_have_different_keys() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "R(x,y) -> T(x,y)");
        let b = tgd(&mut s, "R(x,x) -> T(x,x)");
        let c = tgd(&mut s, "R(x,y) -> T(y,x)");
        assert!(!same_up_to_renaming(&a, &b));
        assert!(!same_up_to_renaming(&a, &c));
        assert!(!same_up_to_renaming(&b, &c));
    }

    #[test]
    fn existential_structure_is_distinguished() {
        let mut s = Schema::default();
        // Shared existential vs. independent existentials.
        let a = tgd(&mut s, "T(x) -> exists z : R(x,z), S(x,z)");
        let b = tgd(&mut s, "T(x) -> exists z, w : R(x,z), S(x,w)");
        assert!(!same_up_to_renaming(&a, &b));
    }

    #[test]
    fn symmetric_bodies_canonicalize_consistently() {
        let mut s = Schema::default();
        // Both atoms have the same predicate; canonical search must explore
        // ties to find the true minimum.
        let a = tgd(&mut s, "E(x,y), E(y,x) -> P(x)");
        let b = tgd(&mut s, "E(b,a), E(a,b) -> P(b)");
        assert!(same_up_to_renaming(&a, &b));
    }

    #[test]
    fn triangle_automorphism() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "E(x,y), E(y,z), E(z,x) -> P(x)");
        let b = tgd(&mut s, "E(z,x), E(x,y), E(y,z) -> P(z)");
        assert!(same_up_to_renaming(&a, &b));
    }

    #[test]
    fn canonical_is_idempotent() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "S(y,z), R(x,y) -> exists w : T(z,w)");
        let c = canonical_tgd(&a);
        assert_eq!(c, canonical_tgd(&c));
        assert!(same_up_to_renaming(&a, &c));
    }

    #[test]
    fn head_reordering_shares_key() {
        let mut s = Schema::default();
        let a = tgd(&mut s, "R(x,y) -> exists z : S(x,z), T(z,y)");
        let b = tgd(&mut s, "R(x,y) -> exists w : T(w,y), S(x,w)");
        assert!(same_up_to_renaming(&a, &b));
    }
}
