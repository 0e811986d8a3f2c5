//! The chase's semi-naive trigger search.
//!
//! The first round searches every tgd's whole body once. Each later round
//! runs [`for_each_hom_anchored`] once per `(tgd, anchor)` whose predicate
//! has a fact in the delta.
//!
//! The search is exactly semi-naive. The delta is the index tail: per
//! predicate the rows below the round's watermark are the old facts and
//! the rows at or past it are the delta, and the anchored search matches
//! the body atoms *before* the anchor against old facts only. A body match whose delta atoms sit at positions `S` is then
//! found once, at anchor `min(S)` — not once per delta atom it uses.
//!
//! The search drops **dead** triggers as they are found: a binding of a
//! full tgd whose head facts are all already present can never change the
//! instance, so it is never stored. That membership probe runs before
//! anything else is done with the binding, since most bindings fail it. It
//! reads the head arguments straight off the binding, with no tuple
//! buffer, and for a unary or binary head predicate whose element ids are
//! dense it is one test of the relation's membership bits
//! ([`InstanceIndex::contains_bound`]); the anchored search is generic over
//! its visitor, so the probe inlines into the join loop.
//!
//! A full tgd of chain shape `P(x,y), Q(y,z) -> H(x,z)` (x, y and z
//! distinct, either body order) skips the enumeration when `P`, `Q` and
//! `H` are binary and all keep dense bits at round start: the **bit-row
//! step** reads their relations' bits as rows ([`InstanceIndex::bit_rows`])
//! and computes the round's live triggers word by word. For each x it walks
//! y ascending over `P(x,·)` and takes `new = Q(y,·) ∧ ¬H(x,·) ∧ ¬claimed`,
//! pushing `(x, y, z)` for each z in `new`; `claimed` is one reused row,
//! cleared per x. Dead matches cost a cleared bit, not a visit. Each absent head image
//! gets its smallest y, the trigger `offer` would keep, and every match
//! with an absent head is found: `I ∖ Δ` is closed under the full tgds at
//! every round boundary, so such a match touches Δ. For the same reason
//! only the x a delta fact reaches are walked (sources of Δ_P facts and
//! P-predecessors of Δ_Q sources), which keeps the step proportional to Δ
//! on a fold or a resume. Marking them walks each distinct Δ_Q source's
//! P-postings once, not once per Δ_Q fact. Any other shape, and any round
//! where one of the three bit sets is off, runs the anchored search.
//!
//! The live ones accumulate into a `TriggerRun` — a flat arena of
//! `(tgd, universal-image)` entries — and one `sort_unstable` + dedup
//! produces exactly the sequence a `BTreeSet<(usize, Vec<Elem>)>` would
//! iterate; full-tgd triggers sharing a head image then collapse to the
//! first of them. A bit-row step whose image lists x, y and z in that
//! order walks them ascending and emits each once, so a round filled only
//! by such steps is in that order already and skips the sort. The firing
//! phase consumes the triggers in that canonical order, so it adds facts
//! and numbers nulls independently of the order in which the search found
//! them. A visit appends a few words to two flat vectors instead of
//! allocating a `Vec<Elem>` per trigger, and the dedup cost is paid once
//! per round in one cache-friendly sort.

use crate::chase::CANCEL_CHECK_STRIDE;
use crate::faults::{FaultSite, INJECTED_PANIC};
use crate::govern::CancelToken;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tgdkit_hom::{for_each_hom_anchored, for_each_hom_indexed, Binding, InstanceIndex};
use tgdkit_instance::store::{self, RowSet};
use tgdkit_instance::Elem;
use tgdkit_logic::{PredId, Tgd};

/// One round's triggers as a flat arena: `entries` holds
/// `(tgd index, offset)` pairs into the shared `elems` buffer, with each
/// entry's length fixed by its tgd's universal-variable count. Appending a
/// trigger is two vector pushes — no per-trigger allocation, no tree
/// rebalancing — and [`TriggerRun::sort_dedup`] normalizes the whole run to
/// the exact iteration order of an ordered set of `(usize, Vec<Elem>)`.
///
/// Full-tgd bindings enter through [`TriggerRun::offer`], which stores
/// live triggers only, one per head image.
pub(crate) struct TriggerRun {
    entries: Vec<(u32, u32)>,
    elems: Vec<Elem>,
    /// Universal-variable count per tgd (the per-entry slice length).
    lens: Vec<u32>,
    /// Per tgd: `None` unless full; for a full tgd, the range of
    /// `head_vars` listing the universal positions its head reads when
    /// they are fewer than all of them (distinct triggers may then share a
    /// head image), else an empty range.
    heads: Vec<Option<(u32, u32)>>,
    head_vars: Vec<usize>,
    /// The kept entry of each `(tgd, head image)` this round, keyed by
    /// [`head_hash`] and verified against the entry's image in `elems`.
    by_head: RowSet,
    /// Bindings offered this round, live or dead: with an exact
    /// semi-naive search, one per distinct body match touching the delta.
    /// The bit-row step offers none.
    offered: u64,
    /// Per tgd: its chain shape, when it has one (see [`Chain`]).
    chains: Vec<Option<Chain>>,
    /// How many leading `entries` are known to be in canonical order with
    /// no repeats: those that bit-row steps whose universal image is
    /// `(x, y, z)` in that order appended, segment after segment in
    /// ascending tgd order. When that is all of them,
    /// [`TriggerRun::sort_dedup`] has nothing to do.
    in_order: usize,
}

/// A full tgd of chain shape `P(x,y), Q(y,z) -> H(x,z)`, with x, y and z
/// distinct and the body atoms in either order: the shape the bit-row step
/// joins. `vars` holds the positions of x, y and z in the universal image.
#[derive(Clone, Copy, Debug)]
struct Chain {
    p: PredId,
    q: PredId,
    h: PredId,
    vars: [usize; 3],
}

impl Chain {
    fn of(tgd: &Tgd) -> Option<Chain> {
        let ([first, second], [head]) = (tgd.body(), tgd.head()) else {
            return None;
        };
        let &[x, z] = head.args.as_slice() else {
            return None;
        };
        if !tgd.is_full() || x == z {
            return None;
        }
        [(first, second), (second, first)]
            .into_iter()
            .find_map(|(p, q)| match (p.args.as_slice(), q.args.as_slice()) {
                (&[px, y], &[qy, qz]) if px == x && qz == z && y == qy && y != x && y != z => {
                    Some(Chain {
                        p: p.pred,
                        q: q.pred,
                        h: head.pred,
                        vars: [x.index(), y.index(), z.index()],
                    })
                }
                _ => None,
            })
    }
}

impl TriggerRun {
    pub(crate) fn new(tgds: &[Tgd]) -> TriggerRun {
        let mut head_vars = Vec::new();
        let mut vars = Vec::new();
        let heads = tgds
            .iter()
            .map(|tgd| {
                tgd.is_full().then(|| {
                    vars.clear();
                    vars.extend(
                        tgd.head()
                            .iter()
                            .flat_map(|a| a.args.iter().map(|v| v.index())),
                    );
                    vars.sort_unstable();
                    vars.dedup();
                    if vars.len() == tgd.universal_count() {
                        vars.clear();
                    }
                    let start = head_vars.len() as u32;
                    head_vars.extend_from_slice(&vars);
                    (start, head_vars.len() as u32)
                })
            })
            .collect();
        TriggerRun {
            entries: Vec::new(),
            elems: Vec::new(),
            lens: tgds.iter().map(|t| t.universal_count() as u32).collect(),
            heads,
            head_vars,
            by_head: RowSet::new(),
            offered: 0,
            chains: tgds.iter().map(Chain::of).collect(),
            in_order: 0,
        }
    }

    /// Empties the run for the next round, keeping its allocations.
    fn clear(&mut self) {
        self.entries.clear();
        self.elems.clear();
        self.by_head.clear();
        self.offered = 0;
        self.in_order = 0;
    }

    /// Records that tgd `ti` appended `entries[start..]`, in canonical
    /// order when `ascending`: the run stays in order only if the segment
    /// is, and follows an in-order run of entries of smaller tgds.
    fn end_segment(&mut self, ti: usize, start: usize, ascending: bool) {
        let follows = start == 0 || (self.entries[start - 1].0 as usize) < ti;
        if ascending && follows && self.in_order == start {
            self.in_order = self.entries.len();
        }
    }

    /// Appends tgd `ti`'s trigger with the universal image read off
    /// `binding[0..universal_count]` (the layout every search maintains).
    fn push_binding(&mut self, ti: usize, binding: &Binding) {
        let n = self.lens[ti] as usize;
        self.push_image(ti, (0..n).map(|v| binding[v].expect("universal bound")));
    }

    /// Appends tgd `ti`'s trigger with the universal image `image`.
    fn push_image(&mut self, ti: usize, image: impl IntoIterator<Item = Elem>) {
        let off = u32::try_from(self.elems.len()).expect("trigger arena exceeds u32 offsets");
        self.elems.extend(image);
        debug_assert_eq!(self.elems.len() - off as usize, self.lens[ti] as usize);
        self.entries.push((ti as u32, off));
    }

    /// Takes a binding of tgd `ti`, dropping it when it cannot fire.
    ///
    /// - **Dead:** `tgd` is full and every head fact under `binding` is
    ///   already in `index`, which covers the instance as of round start.
    ///   Firing a full tgd only inserts its head facts, and nothing is
    ///   removed within a round, so the trigger could never change the
    ///   instance, the fired count or the provenance log.
    /// - **Same head image:** a full tgd's head facts depend only on its
    ///   head variables. Of the live triggers sharing a head image, only
    ///   the first in canonical order inserts anything; the rest find every
    ///   head fact present. So only the smallest universal image is kept.
    ///
    /// The dead check runs first: it is one membership probe per head atom,
    /// read straight off the binding (a bit test for a dense unary or
    /// binary head, else one hash), and most bindings fail it. The order
    /// cannot change what is kept: the index does not change during the
    /// search, so a head image found live stays live for the whole round.
    fn offer(&mut self, ti: usize, tgd: &Tgd, binding: &Binding, index: &InstanceIndex<'_>) {
        self.offered += 1;
        let Some((lo, hi)) = self.heads[ti] else {
            self.push_binding(ti, binding);
            return;
        };
        let universal = |v: usize| binding[v].expect("universal bound");
        let dead = tgd
            .head()
            .iter()
            .all(|atom| index.contains_bound(atom.pred, &atom.args, binding));
        if dead {
            return;
        }
        let vars = &self.head_vars[lo as usize..hi as usize];
        if !vars.is_empty() {
            let hash = head_hash(ti, vars, universal);
            let (entries, elems) = (&self.entries, &self.elems);
            let same_head = |e: u32| {
                let (te, off) = entries[e as usize];
                te as usize == ti
                    && vars
                        .iter()
                        .all(|&v| elems[off as usize + v] == universal(v))
            };
            if let Some(entry) = self.by_head.find(hash, same_head) {
                let off = self.entries[entry as usize].1 as usize;
                let kept = &mut self.elems[off..off + self.lens[ti] as usize];
                let n = kept.len();
                if (0..n).map(universal).lt(kept.iter().copied()) {
                    for (v, slot) in kept.iter_mut().enumerate() {
                        *slot = universal(v);
                    }
                }
                return;
            }
            let entry = u32::try_from(self.entries.len()).expect("trigger run exceeds u32 entries");
            let (heads, head_vars) = (&self.heads, &self.head_vars);
            self.by_head.insert(hash, entry, |e| {
                let (te, off) = entries[e as usize];
                let (lo, hi) = heads[te as usize].expect("keyed entries are full tgds");
                let vars = &head_vars[lo as usize..hi as usize];
                head_hash(te as usize, vars, |v| elems[off as usize + v])
            });
        }
        self.push_binding(ti, binding);
    }

    /// The universal image of the entry at `(ti, off)`.
    fn slice(&self, ti: u32, off: u32) -> &[Elem] {
        &self.elems[off as usize..off as usize + self.lens[ti as usize] as usize]
    }

    /// The `(tgd, universal-image lex)` order of two entries.
    fn cmp_entries(&self, (ta, oa): (u32, u32), (tb, ob): (u32, u32)) -> std::cmp::Ordering {
        ta.cmp(&tb)
            .then_with(|| self.slice(ta, oa).cmp(self.slice(tb, ob)))
    }

    /// Sorts by `(tgd, universal-image lex)` and drops duplicates —
    /// after this, iteration order equals a `BTreeSet<(usize, Vec<Elem>)>`
    /// holding the same triggers. A run that is in that order already
    /// (only in-order bit-row steps filled it) is left as it is.
    pub(crate) fn sort_dedup(&mut self) {
        if self.in_order == self.entries.len() {
            debug_assert!(
                self.entries
                    .windows(2)
                    .all(|w| self.cmp_entries(w[0], w[1]).is_lt()),
                "a run taken as sorted is not"
            );
            return;
        }
        let mut entries = std::mem::take(&mut self.entries);
        entries.sort_unstable_by(|&a, &b| self.cmp_entries(a, b));
        entries.dedup_by(|&mut a, &mut b| self.cmp_entries(a, b).is_eq());
        self.entries = entries;
    }

    /// Distinct triggers (call after [`TriggerRun::sort_dedup`]).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[Elem])> + '_ {
        self.entries
            .iter()
            .map(|&(ti, off)| (ti as usize, self.slice(ti, off)))
    }
}

/// The [`TriggerRun::by_head`] key of tgd `ti`'s head image: the hash of
/// `[ti, image(v) for v in vars]`.
fn head_hash(ti: usize, vars: &[usize], image: impl Fn(usize) -> Elem) -> u64 {
    let ti = u32::try_from(ti).expect("tgd index fits u32");
    store::tuple_hash_iter(std::iter::once(Elem(ti)).chain(vars.iter().map(|&v| image(v))))
}

/// How one round's trigger search ended. On `aborted` or a contained
/// panic the caller discards the round without firing.
pub(crate) struct TriggerScan {
    pub(crate) aborted: bool,
    pub(crate) panics_contained: usize,
}

/// Fills `run` (a run built for `tgds`, reused across rounds) with one
/// round's live triggers: every tgd's body matched per anchor, dead
/// full-tgd bindings dropped, and the rest merged into the canonical
/// firing order with duplicate head images collapsed.
///
/// `index` must cover exactly the current instance, and `old` (when given)
/// is the watermark below which its rows are the old facts: the rows at or
/// past it are the delta. Without it the round is the first, and its
/// frontier is the whole instance.
pub(crate) fn find_triggers(
    tgds: &[Tgd],
    index: &InstanceIndex<'_>,
    old: Option<&[usize]>,
    run: &mut TriggerRun,
    token: &CancelToken,
) -> TriggerScan {
    scan(tgds, index, old, run, token, Path::BitRows)
}

/// Whether [`scan`] may take the bit-row step. Only the tests compare the
/// two paths; the chase always passes [`Path::BitRows`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    BitRows,
    #[cfg_attr(not(test), allow(dead_code))]
    Generic,
}

/// [`find_triggers`], with the bit-row step on or off.
fn scan(
    tgds: &[Tgd],
    index: &InstanceIndex<'_>,
    old: Option<&[usize]>,
    run: &mut TriggerRun,
    token: &CancelToken,
    path: Path,
) -> TriggerScan {
    run.clear();
    let mut aborted = false;
    let mut panics_contained = 0usize;
    for (ti, tgd) in tgds.iter().enumerate() {
        if token.is_cancelled() {
            aborted = true;
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if token.fault(FaultSite::TriggerWorkerPanic) {
                panic!("{INJECTED_PANIC}: trigger worker for tgd {ti}");
            }
            let chain = run.chains[ti].filter(|_| path == Path::BitRows);
            let start = run.entries.len();
            let stepped = chain.and_then(|chain| bit_row_step(ti, chain, index, old, run, token));
            let (finished, ascending) = match stepped {
                Some(step) => step,
                None => (triggers_into(ti, tgd, index, old, run, token), false),
            };
            run.end_segment(ti, start, ascending);
            finished
        }));
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                aborted = true;
                break;
            }
            Err(_) => {
                aborted = true;
                panics_contained += 1;
                break;
            }
        }
    }
    if !aborted && panics_contained == 0 {
        run.sort_dedup();
    }
    TriggerScan {
        aborted,
        panics_contained,
    }
}

/// Collects one tgd's live triggers into `run`: one full body search on
/// the first round (`old` is `None`), else one anchored search per body
/// atom whose predicate has a delta row. Returns `false` when cancellation
/// cut the enumeration short (the run then holds a partial set; the caller
/// discards the round).
fn triggers_into(
    ti: usize,
    tgd: &Tgd,
    index: &InstanceIndex<'_>,
    old: Option<&[usize]>,
    run: &mut TriggerRun,
    token: &CancelToken,
) -> bool {
    let body = tgd.body();
    let mut since_check = 0u32;
    let mut cancelled = false;
    let mut visit = |binding: &Binding| {
        since_check += 1;
        if since_check >= CANCEL_CHECK_STRIDE {
            since_check = 0;
            if token.is_cancelled() {
                cancelled = true;
                return ControlFlow::Break(());
            }
        }
        run.offer(ti, tgd, binding, index);
        ControlFlow::Continue(())
    };
    match old {
        // The whole instance is the frontier: one full body search finds
        // every trigger once (anchoring each body atom on every fact would
        // find each of them once per atom).
        None => {
            let fixed: Binding = vec![None; tgd.var_count()];
            for_each_hom_indexed(body, tgd.var_count(), index, &fixed, &mut visit);
        }
        Some(old) => {
            for (anchor, atom) in body.iter().enumerate() {
                // An anchor whose predicate has no delta row anchors nothing.
                let p = atom.pred;
                let anchored = old.get(p.index()).is_some_and(|&o| o < index.count(p));
                if !anchored {
                    continue;
                }
                let flow =
                    for_each_hom_anchored(body, tgd.var_count(), index, anchor, old, &mut visit);
                if flow.is_break() {
                    break;
                }
            }
        }
    }
    !cancelled
}

/// The bit-row join step: tgd `ti`'s live triggers, for a chain
/// `P(x,y), Q(y,z) -> H(x,z)` whose three predicates all keep dense bits,
/// straight from the bit rows. `None` when a bit set is off (the caller
/// then runs the anchored search); else `Some((finished, ascending))`:
/// `finished` is `false` when cancellation cut the walk short, and
/// `ascending` is `true` when the universal image lists x, y and z in that
/// order, so the walk (x, then y, then z ascending, each image once)
/// emitted its triggers in canonical order.
///
/// For each x it walks y ascending over `P(x,·)`, takes
/// `new = Q(y,·) ∧ ¬H(x,·) ∧ ¬claimed` and pushes `(x, y, z)` for each z
/// in `new`, then sets `claimed |= new`. So each absent head image `H(x,z)`
/// gets the trigger with the smallest y, which is the one
/// [`TriggerRun::offer`] keeps: for fixed x and z the universal images
/// differ in y alone. Those are all the live triggers. Without a delta
/// (round one) every match counts; with one, `I ∖ Δ` is closed under the
/// tgd at round start, so every match with an absent head touches Δ. That
/// is also why the walk skips every x that no delta fact reaches: a match
/// `(x, y, z)` touches Δ only through `P(x,y) ∈ Δ` or `Q(y,z) ∈ Δ`, so
/// the x worth walking are the sources of Δ_P facts and the P-predecessors
/// of Δ_Q sources, and every match at another x is old and dead. Each
/// distinct Δ_Q source's P-postings are walked once, so marking costs at
/// most |P| per round, not the sum of in-degrees over Δ_Q.
fn bit_row_step(
    ti: usize,
    chain: Chain,
    index: &InstanceIndex<'_>,
    old: Option<&[usize]>,
    run: &mut TriggerRun,
    token: &CancelToken,
) -> Option<(bool, bool)> {
    let p = index.bit_rows(chain.p)?;
    let q = index.bit_rows(chain.q)?;
    let h = index.bit_rows(chain.h)?;
    // The x to walk, as bits below P's side (P's sources are all there).
    let mut xs = vec![0u64; p.row_words()];
    match old {
        None => xs.fill(!0),
        Some(old) => {
            // The first column of a predicate's delta rows: its rows past
            // the watermark (a predicate beyond it has none).
            let delta_sources = |pred: PredId| {
                let col = index.tuples(pred).col(0);
                &col[old
                    .get(pred.index())
                    .map_or(col.len(), |&o| o.min(col.len()))..]
            };
            for &x in delta_sources(chain.p) {
                set_bit(&mut xs, x);
            }
            // The Δ_Q sources whose P-predecessors are marked: each source's
            // postings are walked once, however many Δ_Q facts leave it. A
            // source at or beyond P's side has no P-predecessor.
            let p_sources = index.tuples(chain.p).col(0);
            let mut sources = vec![0u64; p.row_words()];
            for &source in delta_sources(chain.q) {
                if set_bit(&mut sources, source) {
                    for &prow in index.postings(chain.p, 1, source) {
                        set_bit(&mut xs, p_sources[prow as usize]);
                    }
                }
            }
        }
    }
    let [vx, vy, vz] = chain.vars;
    let mut image = [Elem(0); 3];
    let mut claimed = vec![0u64; q.row_words()];
    let mut since_check = 0u32;
    for x in ones(&xs) {
        let (row_p, row_h) = (p.row(x), h.row(x));
        claimed.fill(0);
        image[vx] = x;
        for y in ones(row_p) {
            since_check += 1;
            if since_check >= CANCEL_CHECK_STRIDE {
                since_check = 0;
                if token.is_cancelled() {
                    return Some((false, false));
                }
            }
            image[vy] = y;
            for (w, (&row_q, seen)) in q.row(y).iter().zip(&mut claimed).enumerate() {
                let new = row_q & !row_h.get(w).copied().unwrap_or(0) & !*seen;
                *seen |= new;
                for z in ones_in(w, new) {
                    image[vz] = z;
                    run.push_image(ti, image);
                }
            }
        }
    }
    Some((true, chain.vars == [0, 1, 2]))
}

/// Sets `e`'s bit in `words`; `true` when it was clear. An id beyond the
/// words has no bit, and reads as already set.
fn set_bit(words: &mut [u64], e: Elem) -> bool {
    let Some(word) = words.get_mut(e.0 as usize >> 6) else {
        return false;
    };
    let bit = 1 << (e.0 & 63);
    let clear = *word & bit == 0;
    *word |= bit;
    clear
}

/// The element ids whose bits are set in `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = Elem> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| ones_in(w, word))
}

/// The element ids whose bits are set in `word`, the `w`-th word of a
/// row, ascending.
fn ones_in(w: usize, mut word: u64) -> impl Iterator<Item = Elem> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            Elem(((w as u32) << 6) | bit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::Fact;

    #[test]
    fn trigger_run_sorts_and_dedups_like_an_ordered_set() {
        use std::collections::BTreeSet;
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z). P(x) -> T(x).").unwrap();
        let mut run = TriggerRun::new(&tgds);
        let mut reference: BTreeSet<(usize, Vec<Elem>)> = BTreeSet::new();
        // Deterministic pseudo-random inserts with duplicates, out of order.
        let mut state = 0x1234_5678u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ti = (state >> 60) as usize % 2;
            let a = Elem((state >> 10) as u32 % 7);
            let b = Elem((state >> 20) as u32 % 7);
            let c = Elem((state >> 30) as u32 % 7);
            let universal: Vec<Elem> = if ti == 0 { vec![a, b, c] } else { vec![a] };
            let mut binding: Binding = universal.iter().map(|&e| Some(e)).collect();
            binding.resize(4, None);
            run.push_binding(ti, &binding);
            reference.insert((ti, universal));
        }
        run.sort_dedup();
        assert_eq!(run.len(), reference.len());
        let flat: Vec<(usize, Vec<Elem>)> = run.iter().map(|(ti, u)| (ti, u.to_vec())).collect();
        let expect: Vec<(usize, Vec<Elem>)> = reference.into_iter().collect();
        assert_eq!(flat, expect, "run order must equal ordered-set order");
    }

    #[test]
    fn offer_keeps_live_triggers_once_per_head_image() {
        use tgdkit_instance::parse_instance;
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let inst = parse_instance(&mut s, "E(a,b), E(b,c), E(a,d), E(d,c), E(c,a)").unwrap();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| inst.elem_by_name(n).unwrap());
        let bind = |x, y, z| -> Binding { vec![Some(x), Some(y), Some(z)] };
        let tc = &tgds[0];

        let index = InstanceIndex::new(&inst);
        let mut run = TriggerRun::new(&tgds);
        // Both derive the absent E(a,c); the smaller universal image is
        // kept although it is offered second.
        run.offer(0, tc, &bind(a, d, c), &index);
        run.offer(0, tc, &bind(a, b, c), &index);
        run.offer(0, tc, &bind(b, c, a), &index);
        run.offer(0, tc, &bind(c, a, b), &index);
        run.sort_dedup();
        let kept: Vec<Vec<Elem>> = run.iter().map(|(_, u)| u.to_vec()).collect();
        assert_eq!(kept, vec![vec![a, b, c], vec![b, c, a], vec![c, a, b]]);

        // Once E(c,b) is present, the trigger deriving it is dead.
        let mut with_cb = inst.clone();
        with_cb.add_fact(s.pred_id("E").unwrap(), vec![c, b]);
        let mut run = TriggerRun::new(&tgds);
        run.offer(0, tc, &bind(c, a, b), &InstanceIndex::new(&with_cb));
        assert_eq!(run.len(), 0);
    }

    /// The closure probe: transitive closure over 140 nodes with
    /// out-degree 3 drawn from a fixed LCG.
    fn tc_probe() -> (Vec<Tgd>, tgdkit_instance::Instance) {
        use tgdkit_logic::{parse_tgds, Schema};
        let mut schema = Schema::default();
        let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let pred = schema.pred_id("E").unwrap();
        let mut inst = tgdkit_instance::Instance::new(schema);
        let nodes = 140u32;
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for u in 0..nodes {
            for _ in 0..3 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((s >> 33) % nodes as u64) as u32;
                inst.add_fact(pred, vec![Elem(u), Elem(v)]);
            }
        }
        (tgds, inst)
    }

    /// On the closure probe the search stores live triggers only: at most
    /// four found per trigger fired (the search that collected every
    /// binding found about 140 per fired trigger here).
    #[test]
    fn closure_probe_finds_live_triggers() {
        use crate::{chase, ChaseBudget, ChaseVariant};
        let (tgds, start) = tc_probe();
        let budget = ChaseBudget {
            max_facts: 2_000_000,
            max_rounds: 64,
            max_bytes: usize::MAX,
        };
        let result = chase(&start, &tgds, ChaseVariant::Restricted, budget);
        assert!(result.terminated());
        assert!(
            result.stats.triggers_found <= 4 * result.stats.triggers_fired,
            "{} triggers found for {} fired",
            result.stats.triggers_found,
            result.stats.triggers_fired
        );
    }

    /// Round two of the closure probe offers each body match that uses a
    /// round-one fact exactly once — also the matches using two of them,
    /// which an anchor-per-atom search over the whole index finds twice.
    #[test]
    fn round_two_offers_each_delta_touching_match_once() {
        use crate::{chase_checkpointing, ChaseBudget, ChaseVariant};
        use std::collections::HashSet;
        let (tgds, start) = tc_probe();
        let budget = ChaseBudget {
            max_facts: 2_000_000,
            max_rounds: 1,
            max_bytes: usize::MAX,
        };
        let token = CancelToken::new();
        let (_, cp) = chase_checkpointing(&start, &tgds, ChaseVariant::Restricted, budget, &token);
        let cp = cp.expect("a round-budget trip is resumable");
        let delta = cp.delta.clone().expect("round one added facts");
        let (index, old) = InstanceIndex::with_tail(cp.instance.clone(), &delta);

        // Reference: every body match into I ∪ Δ, counted when it uses Δ.
        let new: HashSet<&[Elem]> = delta.iter().map(|f| f.args.as_slice()).collect();
        let (mut touching, mut both) = (0u64, 0u64);
        for_each_hom_indexed(tgds[0].body(), 3, &index, &vec![None; 3], &mut |b| {
            let [x, y, z] = [0, 1, 2].map(|v| b[v].expect("bound"));
            let first = new.contains(&[x, y][..]);
            let second = new.contains(&[y, z][..]);
            touching += u64::from(first || second);
            both += u64::from(first && second);
            ControlFlow::Continue(())
        });
        assert!(both > 0, "some match uses two delta facts");

        let mut run = TriggerRun::new(&tgds);
        let found = scan(&tgds, &index, Some(&old), &mut run, &token, Path::Generic);
        assert!(!found.aborted && found.panics_contained == 0);
        assert_eq!(run.offered, touching);
    }

    /// One round's triggers on `path`, in firing order.
    fn triggers_on(
        tgds: &[Tgd],
        index: &InstanceIndex<'_>,
        old: Option<&[usize]>,
        path: Path,
    ) -> Vec<(usize, Vec<Elem>)> {
        let mut run = TriggerRun::new(tgds);
        let found = scan(tgds, index, old, &mut run, &CancelToken::new(), path);
        assert!(!found.aborted && found.panics_contained == 0);
        run.iter().map(|(ti, u)| (ti, u.to_vec())).collect()
    }

    #[test]
    fn chain_shape_is_recognized_in_either_body_order() {
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z).
             Q(y,z), P(x,y) -> H(x,z).
             P(x,y), Q(y,z) -> H(z,x).
             P(x,x), Q(x,z) -> H(x,z).
             P(x,y), Q(y,z) -> H(x,z), H(z,x).
             P(x,y), Q(y,z), P(z,x) -> H(x,z).
             P(x,y), Q(y,z) -> exists w : H(x,w).",
        )
        .unwrap();
        let chains: Vec<Option<[usize; 3]>> =
            tgds.iter().map(|t| Chain::of(t).map(|c| c.vars)).collect();
        // `Q(y,z), P(x,y)` numbers y, z, x as 0, 1, 2.
        assert_eq!(chains[..2], [Some([0, 1, 2]), Some([2, 0, 1])]);
        assert!(chains[2..].iter().all(Option::is_none), "{chains:?}");
    }

    /// On every round of the closure probe the bit-row step and the
    /// anchored search produce the same trigger run, and the step runs in
    /// every round after the first (whose 420 rows keep the bits off).
    #[test]
    fn bit_row_step_matches_the_generic_path_on_every_round() {
        use crate::{chase_checkpointing, ChaseBudget, ChaseVariant};
        let (tgds, start) = tc_probe();
        let e = tgds[0].head()[0].pred;
        let (mut stepped, mut total) = (0, 0);
        for rounds in 0.. {
            let budget = ChaseBudget {
                max_facts: 2_000_000,
                max_rounds: rounds,
                max_bytes: usize::MAX,
            };
            let token = CancelToken::new();
            let (_, cp) =
                chase_checkpointing(&start, &tgds, ChaseVariant::Restricted, budget, &token);
            let Some(cp) = cp else { break };
            let (index, old) = match cp.delta() {
                None => (InstanceIndex::owned(cp.instance.clone()), None),
                Some(delta) => {
                    let (index, old) = InstanceIndex::with_tail(cp.instance.clone(), delta);
                    (index, Some(old))
                }
            };
            total += 1;
            stepped += usize::from(index.bit_rows(e).is_some());
            let generic = triggers_on(&tgds, &index, old.as_deref(), Path::Generic);
            let bit_rows = triggers_on(&tgds, &index, old.as_deref(), Path::BitRows);
            assert_eq!(bit_rows, generic, "round {}", rounds + 1);
        }
        assert!(total > 2, "{total} rounds");
        assert_eq!(
            stepped,
            total - 1,
            "the step ran in {stepped} of {total} rounds"
        );
    }

    /// A bit-row round of the closure probe arrives in canonical order, so
    /// its sort is skipped, and the sequence is the one sorting gives. With
    /// the body atoms swapped the image lists y, z, x: the step still runs,
    /// but its run is sorted, and agrees with the anchored search.
    #[test]
    fn bit_row_round_is_the_sorted_run_without_sorting() {
        use crate::{chase_checkpointing, ChaseBudget, ChaseVariant};
        use tgdkit_logic::parse_tgds;
        let (tgds, start) = tc_probe();
        let budget = ChaseBudget {
            max_facts: 2_000_000,
            max_rounds: 1,
            max_bytes: usize::MAX,
        };
        let token = CancelToken::new();
        let (_, cp) = chase_checkpointing(&start, &tgds, ChaseVariant::Restricted, budget, &token);
        let cp = cp.expect("a round-budget trip is resumable");
        let delta = cp.delta.clone().expect("round one added facts");
        let (index, old) = InstanceIndex::with_tail(cp.instance.clone(), &delta);
        assert!(index.bit_rows(tgds[0].head()[0].pred).is_some());

        let mut run = TriggerRun::new(&tgds);
        let found = scan(&tgds, &index, Some(&old), &mut run, &token, Path::BitRows);
        assert!(!found.aborted && found.panics_contained == 0);
        assert_eq!(run.in_order, run.len(), "the round's sort was not skipped");
        let unsorted: Vec<(usize, Vec<Elem>)> = run.iter().map(|(t, u)| (t, u.to_vec())).collect();
        assert!(unsorted.len() > 100, "{} triggers", unsorted.len());
        run.in_order = 0;
        run.sort_dedup();
        let sorted: Vec<(usize, Vec<Elem>)> = run.iter().map(|(t, u)| (t, u.to_vec())).collect();
        assert_eq!(unsorted, sorted);

        let mut schema = index.instance().schema().clone();
        let swapped = parse_tgds(&mut schema, "E(y,z), E(x,y) -> E(x,z).").unwrap();
        assert_eq!(Chain::of(&swapped[0]).map(|c| c.vars), Some([2, 0, 1]));
        let mut run = TriggerRun::new(&swapped);
        scan(
            &swapped,
            &index,
            Some(&old),
            &mut run,
            &token,
            Path::BitRows,
        );
        assert!(run.in_order < run.len());
        let stepped: Vec<(usize, Vec<Elem>)> = run.iter().map(|(t, u)| (t, u.to_vec())).collect();
        assert_eq!(
            stepped,
            triggers_on(&swapped, &index, Some(&old), Path::Generic)
        );
    }

    /// The walk visits only the x a delta fact reaches. Here `I ∖ Δ` is
    /// left open at `a` on purpose (`E(a,b), E(b,c)` without `E(a,c)`),
    /// and no delta fact reaches `a`, so neither path offers `(a,b,c)`.
    #[test]
    fn bit_row_step_walks_only_the_x_a_delta_fact_reaches() {
        use tgdkit_logic::{parse_tgds, Schema};
        let mut schema = Schema::default();
        let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let e = schema.pred_id("E").unwrap();
        let mut instance = tgdkit_instance::Instance::new(schema);
        // A closed cycle over 10..50 keeps the bits on (40 rows, side 64).
        let mut edges: Vec<(u32, u32)> = (10..50)
            .flat_map(|u| (10..50).map(move |v| (u, v)))
            .collect();
        edges.extend([(0, 1), (1, 2)]);
        for &(u, v) in &edges {
            instance.add_fact(e, vec![Elem(u), Elem(v)]);
        }
        let mut index = InstanceIndex::owned(instance);
        let old = index.instance().watermark();
        index.extend(&[
            Fact::new(e, vec![Elem(3), Elem(4)]),
            Fact::new(e, vec![Elem(4), Elem(5)]),
        ]);
        assert!(index.bit_rows(e).is_some());
        let generic = triggers_on(&tgds, &index, Some(&old), Path::Generic);
        let bit_rows = triggers_on(&tgds, &index, Some(&old), Path::BitRows);
        assert_eq!(generic, vec![(0, vec![Elem(3), Elem(4), Elem(5)])]);
        assert_eq!(bit_rows, generic);
    }

    /// The chain `P(x,y), Q(y,z) -> H(x,z)` over the instance `old`, with
    /// `delta` appended as the index tail, and the watermark below which
    /// the rows are old. Each `(pred, edges)` lists one predicate's facts by
    /// name.
    fn chain_round(
        old: &[(&str, Vec<(u32, u32)>)],
        delta: &[(&str, Vec<(u32, u32)>)],
    ) -> (Vec<Tgd>, InstanceIndex<'static>, Vec<usize>) {
        use tgdkit_logic::{parse_tgds, Schema};
        let mut schema = Schema::default();
        let tgds = parse_tgds(&mut schema, "P(x,y), Q(y,z) -> H(x,z).").unwrap();
        let facts = |named: &[(&str, Vec<(u32, u32)>)]| -> Vec<Fact> {
            named
                .iter()
                .flat_map(|(name, edges)| {
                    let pred = schema.pred_id(name).unwrap();
                    edges
                        .iter()
                        .map(move |&(u, v)| Fact::new(pred, vec![Elem(u), Elem(v)]))
                })
                .collect()
        };
        let (old, delta) = (facts(old), facts(delta));
        let mut instance = tgdkit_instance::Instance::new(schema);
        for fact in &old {
            instance.add_tuple(fact.pred, &fact.args);
        }
        let mut index = InstanceIndex::owned(instance);
        let marks = index.instance().watermark();
        index.extend(&delta);
        for pred in ["P", "Q", "H"].map(|n| index.instance().schema().pred_id(n).unwrap()) {
            assert!(index.bit_rows(pred).is_some(), "bits on for {pred:?}");
        }
        (tgds, index, marks)
    }

    /// Every `(a, b)` with `a` in `sources` and `b` in `targets`.
    fn grid(sources: std::ops::Range<u32>, targets: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        sources
            .flat_map(|a| targets.clone().map(move |b| (a, b)))
            .collect()
    }

    /// Many Δ_Q facts leave two sources, 5 and 7, whose P-predecessors are
    /// all old, so every x walked for them comes from postings: 1 and 2
    /// reach only 5, 4 reaches only 7, and 3 reaches both. The Δ_P fact
    /// `P(5,9)` comes first and marks 5 as an x, so a source tested
    /// against the x bits instead of its own would skip 1 and 2. `I ∖ Δ` is
    /// closed: the filler keeps the three bit sets on and joins nothing.
    #[test]
    fn bit_row_step_walks_shared_delta_sources_once_each() {
        let mut p = vec![(1, 5), (2, 5), (3, 5), (3, 7), (4, 7)];
        p.extend(grid(40..56, 62..64));
        let old = [
            ("P", p),
            ("Q", grid(60..62, 40..56)),
            ("H", grid(56..60, 40..48)),
        ];
        let mut q = grid(5..6, 20..30);
        q.extend(grid(7..8, 20..30));
        let delta = [("P", vec![(5, 9)]), ("Q", q)];
        let (tgds, index, marks) = chain_round(&old, &delta);
        let generic = triggers_on(&tgds, &index, Some(&marks), Path::Generic);
        // H(3,z) is derived through 5 and 7; the smaller y is kept.
        let mut want: Vec<(usize, Vec<Elem>)> = [(1, 5), (2, 5), (3, 5), (4, 7)]
            .into_iter()
            .flat_map(|(x, y)| (20..30).map(move |z| (0, vec![Elem(x), Elem(y), Elem(z)])))
            .collect();
        want.sort();
        assert_eq!(generic, want);
        let bit_rows = triggers_on(&tgds, &index, Some(&marks), Path::BitRows);
        assert_eq!(bit_rows, generic);
    }

    /// A Δ_Q source at or beyond P's side has no P-predecessor and no bit
    /// among the walked sources. Q's 128 rows keep its bits on at side
    /// 128 while P's side is 64; the source 3 beside it still counts.
    #[test]
    fn bit_row_step_skips_a_delta_source_beyond_the_side_of_p() {
        let mut p = vec![(10, 3)];
        p.extend(grid(0..16, 40..42));
        let old = [
            ("P", p),
            ("Q", grid(80..84, 0..32)),
            ("H", grid(48..52, 56..64)),
        ];
        let delta = [("Q", vec![(70, 1), (3, 2), (70, 2)])];
        let (tgds, index, marks) = chain_round(&old, &delta);
        let side = |i: usize| index.dense_side(tgds[0].body()[i].pred);
        assert_eq!((side(0), side(1)), (Some(64), Some(128)));
        let generic = triggers_on(&tgds, &index, Some(&marks), Path::Generic);
        assert_eq!(generic, vec![(0, vec![Elem(10), Elem(3), Elem(2)])]);
        let bit_rows = triggers_on(&tgds, &index, Some(&marks), Path::BitRows);
        assert_eq!(bit_rows, generic);
    }
}
