//! Backtracking homomorphism search.
//!
//! Execution follows a compiled [`JoinPlan`](crate::plan::JoinPlan): each
//! step carries the set of argument positions statically known to be bound,
//! and the executor picks a join algorithm per step — a fully-bound
//! containment probe, a multi-position hash join against a cached
//! [`JoinTable`](crate::index), an indexed nested loop over the shortest
//! postings list, or a (chunked, columnar) relation scan. Unification is
//! always re-verified element-wise against the binding, so the algorithm
//! choice affects speed, never the visited set.

use crate::index::{InstanceIndex, Tuples};
use crate::plan::{
    plan_join_cached, record_join_counters, record_trivial_plan, step_for, PlanStep,
};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use tgdkit_instance::{store, Elem, Instance};
use tgdkit_logic::{Atom, PredId, Var};

/// A partial assignment of variables to elements (`None` = unassigned).
pub type Binding = Vec<Option<Elem>>;

/// Finds one homomorphism from the conjunction `atoms` (over variables
/// `Var(0..num_vars)`) into `target`, extending the partial binding `fixed`.
///
/// Returns the total-on-atom-variables binding, or `None` if no
/// homomorphism exists. Unconstrained variables not occurring in any atom
/// keep their `fixed` value (possibly `None`).
///
/// ```
/// use tgdkit_logic::{parse_tgd, Schema};
/// use tgdkit_instance::{parse_instance, Elem};
/// use tgdkit_hom::find_hom;
/// let mut schema = Schema::default();
/// let tgd = parse_tgd(&mut schema, "E(x,y), E(y,z) -> E(x,z)").unwrap();
/// let inst = parse_instance(&mut schema, "E(a,b), E(b,c)").unwrap();
/// let hom = find_hom(tgd.body(), tgd.var_count(), &inst, &vec![None; 3]);
/// assert!(hom.is_some());
/// ```
pub fn find_hom(
    atoms: &[Atom<Var>],
    num_vars: usize,
    target: &Instance,
    fixed: &Binding,
) -> Option<Binding> {
    let index = InstanceIndex::new(target);
    find_hom_indexed(atoms, num_vars, &index, fixed)
}

/// [`find_hom`] against a prebuilt [`InstanceIndex`] (reuse the index when
/// probing many conjunctions against the same instance).
pub fn find_hom_indexed(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    fixed: &Binding,
) -> Option<Binding> {
    let mut result = None;
    search(atoms, num_vars, index, fixed, &mut |binding| {
        result = Some(binding.clone());
        ControlFlow::Break(())
    });
    result
}

/// [`for_each_hom`] against a prebuilt [`InstanceIndex`].
pub fn for_each_hom_indexed(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    fixed: &Binding,
    visit: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) {
    search(atoms, num_vars, index, fixed, visit);
}

/// [`for_each_hom_indexed`] with a caller-owned binding buffer: `binding`
/// plays the role of the fixed partial assignment and serves in place as
/// the search's working state (grown to `num_vars` slots if shorter, and
/// restored to exactly its entry assignments on return). Hot probe loops
/// reuse one buffer across thousands of calls instead of cloning a fresh
/// `Binding` per probe.
pub fn for_each_hom_reusing(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    binding: &mut Binding,
    visit: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) {
    search_in(atoms, num_vars, index, binding, visit);
}

/// Enumerates homomorphisms from `atoms` into `target`, invoking `visit` for
/// each; the callback can stop the enumeration early by returning
/// [`ControlFlow::Break`].
///
/// Distinct homomorphisms may agree on the variables of `atoms` only if the
/// search found them along different atom-match paths; callers needing
/// set-semantics answers should project and deduplicate (as [`crate::Cq`]
/// does).
pub fn for_each_hom(
    atoms: &[Atom<Var>],
    num_vars: usize,
    target: &Instance,
    fixed: &Binding,
    visit: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) {
    let index = InstanceIndex::new(target);
    search(atoms, num_vars, &index, fixed, visit);
}

/// One anchor's worth of a semi-naive enumeration: binds atom `anchor` to
/// each delta row of its predicate in turn and searches the remaining
/// atoms, those before the anchor over old facts only.
///
/// `old` is a watermark of the index (see [`Instance::watermark`]): the
/// rows of predicate `p` below `old[p]` are the old facts `I`, the rest are
/// `Δ`. Predicates beyond `old` have no delta rows. Run over every anchor,
/// the visits are exactly the homomorphisms into `I ∪ Δ` that are not
/// homomorphisms into `I`, each once: a match whose delta atoms sit at body
/// positions `S` is found at anchor `min(S)` and no other. The chase skips
/// the anchors whose predicate has no delta row, so the anchor loop lives
/// with the caller.
///
/// Returns [`ControlFlow::Break`] iff `visit` broke (so a caller looping
/// over anchors can stop early). Generic over the visitor, so a concrete
/// closure inlines into the search loop; `&mut dyn FnMut` works too.
pub fn for_each_hom_anchored<V>(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    anchor: usize,
    old: &[usize],
    visit: &mut V,
) -> ControlFlow<()>
where
    V: FnMut(&Binding) -> ControlFlow<()> + ?Sized,
{
    let mut anchor_undo: Vec<u32> = Vec::new();
    let atom = &atoms[anchor];
    let tuples = index.tuples(atom.pred);
    let first = old.get(atom.pred.index()).copied().unwrap_or(usize::MAX);
    if first >= tuples.len() || tuples.arity() != atom.args.len() {
        return ControlFlow::Continue(());
    }
    // The non-anchor conjunction is the same for every delta fact at
    // this anchor; build it once instead of once per fact.
    let rest: Vec<Atom<Var>> = atoms
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != anchor)
        .map(|(_, a)| a.clone())
        .collect();
    // The join plan depends only on which variables are bound — the
    // anchor atom's — not on the anchoring fact, so one plan serves every
    // delta fact at this anchor (and, through the plan cache, every round
    // requesting the same shape).
    let mut bound_vars = vec![false; num_vars];
    for v in &atom.args {
        bound_vars[v.index()] = true;
    }
    let one_step;
    let cached;
    let steps: &[PlanStep] = match rest.len() {
        0 => &[],
        1 => {
            // One remaining atom needs no planning or cache traffic.
            record_trivial_plan();
            one_step = [step_for(0, &rest[0], |vi| {
                bound_vars.get(vi).copied().unwrap_or(false)
            })];
            &one_step
        }
        _ => {
            cached = plan_join_cached(&rest, index, &bound_vars);
            &cached.steps
        }
    };
    // `rest` keeps body order, so its first `anchor` atoms are the ones
    // before the anchor: those range over old rows only.
    let mut exec = Exec::new(
        &rest,
        steps,
        index,
        Watermark {
            old,
            before: anchor,
        },
    );
    // One binding buffer per anchor, reset between facts by undoing the
    // anchor's own assignments (the executor restores everything else).
    let mut binding: Binding = vec![None; num_vars];
    let mut stop = false;
    for row in first..tuples.len() {
        // Bind the anchor atom to the delta row.
        anchor_undo.clear();
        let mut ok = true;
        for (pos, &v) in atom.args.iter().enumerate() {
            let e = tuples.at(row, pos);
            match binding[v.index()] {
                Some(prev) if prev != e => {
                    ok = false;
                    break;
                }
                Some(_) => {}
                None => {
                    binding[v.index()] = Some(e);
                    anchor_undo.push(v.index() as u32);
                }
            }
        }
        if ok {
            stop = exec.run(0, &mut binding, visit).is_break();
        }
        for &vi in &anchor_undo {
            binding[vi as usize] = None;
        }
        if stop {
            break;
        }
    }
    exec.flush();
    if stop {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// The planned recursive search behind the public entry points: fetch the
/// compiled join plan once (inline for ≤1 atom, memoized otherwise), then
/// execute it.
fn search(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    fixed: &Binding,
    visit: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) {
    let mut binding: Binding = fixed.clone();
    search_in(atoms, num_vars, index, &mut binding, visit);
}

/// [`search`] on a caller-owned working binding (the allocation-free core).
fn search_in(
    atoms: &[Atom<Var>],
    num_vars: usize,
    index: &InstanceIndex<'_>,
    binding: &mut Binding,
    visit: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) {
    if binding.len() < num_vars {
        binding.resize(num_vars, None);
    }
    // ≤1-atom conjunctions bypass the shared plan cache: a single atom has
    // exactly one evaluation order, and recomputing its step is cheaper
    // than a key hash plus a lock acquisition. Most probe traffic (linear
    // bodies, small CQ heads) lands here.
    let one_step;
    let cached;
    let steps: &[PlanStep] = match atoms.len() {
        0 => &[],
        1 => {
            record_trivial_plan();
            one_step = [step_for(0, &atoms[0], |vi| {
                binding.get(vi).is_some_and(|b| b.is_some())
            })];
            &one_step
        }
        _ => {
            let bound_vars: Vec<bool> = binding.iter().map(Option::is_some).collect();
            cached = plan_join_cached(atoms, index, &bound_vars);
            &cached.steps
        }
    };
    let mut exec = Exec::new(atoms, steps, index, Watermark::NONE);
    let _ = exec.run(0, binding, visit);
    exec.flush();
}

/// Relations smaller than this stay on the nested-loop path even when a
/// multi-position hash join is possible — building a table over a handful
/// of rows costs more than scanning them.
const HASH_MIN_ROWS: usize = 16;

/// Locally accumulated join telemetry, flushed to the global counters once
/// per search so the hot loop touches no atomics.
#[derive(Default)]
struct JoinCounters {
    hash_joins: u64,
    nested_loop_joins: u64,
    build_rows: u64,
    probe_rows: u64,
}

/// Which atoms of a search see old facts only: conjunction atoms
/// `0..before` range over the rows of predicate `p` below `old[p]`
/// (predicates beyond `old` have no delta rows); every other atom ranges
/// over all rows.
#[derive(Clone, Copy)]
struct Watermark<'a> {
    old: &'a [usize],
    before: usize,
}

impl<'a> Watermark<'a> {
    /// No watermark: every atom sees every row.
    const NONE: Watermark<'a> = Watermark {
        old: &[],
        before: 0,
    };

    /// The row count atom `atom` (of predicate `pred`) may match below.
    #[inline]
    fn limit(&self, atom: usize, pred: PredId) -> usize {
        if atom < self.before {
            self.old.get(pred.index()).copied().unwrap_or(usize::MAX)
        } else {
            usize::MAX
        }
    }
}

/// One planned search over a fixed conjunction: the plan's step slice, the
/// index, its watermark, and the per-search scratch state (a shared undo
/// stack instead of a per-tuple `Vec` of newly bound variables).
struct Exec<'a> {
    atoms: &'a [Atom<Var>],
    steps: &'a [PlanStep],
    index: &'a InstanceIndex<'a>,
    watermark: Watermark<'a>,
    undo: Vec<Var>,
    counters: JoinCounters,
}

std::thread_local! {
    /// A parked undo stack handed to the next [`Exec`] on this thread.
    /// Probe-heavy callers run millions of one-atom searches; without the
    /// pool each search pays a malloc/free for its first `undo` push. A
    /// nested search (a visit callback starting its own) finds the slot
    /// empty and allocates fresh — correct, just unpooled.
    static EXEC_SCRATCH: std::cell::Cell<Option<Vec<Var>>> =
        const { std::cell::Cell::new(None) };
}

impl<'a> Exec<'a> {
    fn new(
        atoms: &'a [Atom<Var>],
        steps: &'a [PlanStep],
        index: &'a InstanceIndex<'a>,
        watermark: Watermark<'a>,
    ) -> Exec<'a> {
        Exec {
            atoms,
            steps,
            index,
            watermark,
            undo: EXEC_SCRATCH.take().unwrap_or_default(),
            counters: JoinCounters::default(),
        }
    }

    /// Publishes the locally accumulated telemetry. Call once per search
    /// (re-running after a flush keeps accumulating from zero).
    fn flush(&mut self) {
        let c = std::mem::take(&mut self.counters);
        record_join_counters(
            c.hash_joins,
            c.nested_loop_joins,
            c.build_rows,
            c.probe_rows,
        );
    }

    /// Unifies the atom of step `depth` with row `row` of `tuples`,
    /// recursing on success; the binding is restored either way.
    fn try_row<V>(
        &mut self,
        depth: usize,
        atom: &Atom<Var>,
        tuples: Tuples<'a>,
        row: usize,
        binding: &mut Binding,
        visit: &mut V,
    ) -> ControlFlow<()>
    where
        V: FnMut(&Binding) -> ControlFlow<()> + ?Sized,
    {
        let mark = self.undo.len();
        let mut ok = true;
        for (pos, &v) in atom.args.iter().enumerate() {
            let e = tuples.at(row, pos);
            match binding[v.index()] {
                Some(prev) if prev == e => {}
                Some(_) => {
                    ok = false;
                    break;
                }
                None => {
                    binding[v.index()] = Some(e);
                    self.undo.push(v);
                }
            }
        }
        let flow = if ok {
            self.run(depth + 1, binding, visit)
        } else {
            ControlFlow::Continue(())
        };
        for v in self.undo.drain(mark..) {
            binding[v.index()] = None;
        }
        flow
    }

    /// Executes plan steps from `depth` on, visiting every extension of
    /// `binding` that matches the remaining atoms. Returns
    /// [`ControlFlow::Break`] iff `visit` broke.
    fn run<V>(&mut self, depth: usize, binding: &mut Binding, visit: &mut V) -> ControlFlow<()>
    where
        V: FnMut(&Binding) -> ControlFlow<()> + ?Sized,
    {
        let Some(step) = self.steps.get(depth) else {
            return visit(binding);
        };
        let step = *step;
        let atoms = self.atoms;
        let index = self.index;
        let atom = &atoms[step.atom as usize];
        let arity = atom.args.len();
        let tuples = index.tuples(atom.pred);
        // Rows and postings are in insertion order, so the rows this step
        // may match are exactly a prefix: every branch below stops at it.
        let rows = tuples
            .len()
            .min(self.watermark.limit(step.atom as usize, atom.pred));
        if rows == 0 {
            return ControlFlow::Continue(());
        }
        let n_bound = step.n_bound as usize;

        // Fully bound atom: a single containment probe against the index's
        // exact membership (dense bits or the collision-safe row set)
        // decides the step.
        if arity > 0 && n_bound == arity && arity <= 64 {
            self.counters.hash_joins += 1;
            self.counters.probe_rows += 1;
            if !index.contains_bound_below(atom.pred, &atom.args, binding, rows) {
                return ControlFlow::Continue(());
            }
            return self.run(depth + 1, binding, visit);
        }

        // Two or more bound positions over a non-tiny relation: hash join.
        // Probe the cached join table with the joint key of the bound
        // values; candidates are verified by unification, so collisions and
        // unbound-position constraints are handled uniformly.
        if n_bound >= 2 && rows >= HASH_MIN_ROWS {
            if let Some((table, built)) = index.join_table(atom.pred, step.bound_mask) {
                self.counters.build_rows += built;
                self.counters.hash_joins += 1;
                let key = store::tuple_hash_iter(
                    atom.args
                        .iter()
                        .enumerate()
                        .filter(|&(pos, _)| pos < 64 && step.bound_mask >> pos & 1 == 1)
                        .map(|(_, v)| binding[v.index()].expect("planned-bound var is bound")),
                );
                let candidates = table.probe(key);
                self.counters.probe_rows += candidates.len() as u64;
                let mut flow = ControlFlow::Continue(());
                for &r in candidates {
                    if r as usize >= rows {
                        break;
                    }
                    flow = self.try_row(depth, atom, tuples, r as usize, binding, visit);
                    if flow.is_break() {
                        break;
                    }
                }
                return flow;
            }
        }

        // At least one bound position: indexed nested loop over the
        // shortest postings list among the bound positions.
        if n_bound >= 1 {
            self.counters.nested_loop_joins += 1;
            let mut source: Option<&[u32]> = None;
            for (pos, &v) in atom.args.iter().enumerate() {
                if pos < 64 && step.bound_mask >> pos & 1 == 1 {
                    let e = binding[v.index()].expect("planned-bound var is bound");
                    let postings = index.postings(atom.pred, pos, e);
                    if source.is_none_or(|s| postings.len() < s.len()) {
                        source = Some(postings);
                    }
                }
            }
            let mut flow = ControlFlow::Continue(());
            for &r in source.unwrap_or(&[]) {
                if r as usize >= rows {
                    break;
                }
                flow = self.try_row(depth, atom, tuples, r as usize, binding, visit);
                if flow.is_break() {
                    break;
                }
            }
            return flow;
        }

        // Nothing bound. With a repeated variable in the atom, filter rows
        // by a chunked equality scan over the two contiguous column slices
        // (64 rows per bitmask word — branch-free and SIMD-friendly) before
        // unifying; otherwise scan every row.
        self.counters.nested_loop_joins += 1;
        if let Some((p, q)) = step.rep_pair {
            let ca = tuples.col(p as usize);
            let cb = tuples.col(q as usize);
            let mut base = 0usize;
            while base < rows {
                let end = (base + 64).min(rows);
                let mut mask = 0u64;
                for i in base..end {
                    mask |= ((ca[i] == cb[i]) as u64) << (i - base);
                }
                while mask != 0 {
                    let r = base + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let flow = self.try_row(depth, atom, tuples, r, binding, visit);
                    if flow.is_break() {
                        return flow;
                    }
                }
                base = end;
            }
            return ControlFlow::Continue(());
        }
        let mut flow = ControlFlow::Continue(());
        for r in 0..rows {
            flow = self.try_row(depth, atom, tuples, r, binding, visit);
            if flow.is_break() {
                break;
            }
        }
        flow
    }
}

impl Drop for Exec<'_> {
    fn drop(&mut self) {
        self.undo.clear();
        EXEC_SCRATCH.set(Some(std::mem::take(&mut self.undo)));
    }
}

/// Finds a homomorphism `h : adom(src) → dom(dst)` with
/// `h(facts(src)) ⊆ facts(dst)`, extending the partial element map `fixed`.
///
/// Returns the mapping on `adom(src)`, or `None`. This is the paper's notion
/// of an embedding of one instance's facts into another; with `fixed` set to
/// the identity on a set `F` it is exactly the mapping required by the
/// locality definitions (§3.3, §6.1, §7.1, §8.1).
pub fn find_instance_hom(
    src: &Instance,
    dst: &Instance,
    fixed: &BTreeMap<Elem, Elem>,
) -> Option<BTreeMap<Elem, Elem>> {
    // Convert src's facts to a conjunction with one variable per active
    // element.
    let adom: Vec<Elem> = src.active_domain().iter().copied().collect();
    let var_of: BTreeMap<Elem, Var> = adom
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, Var(i as u32)))
        .collect();
    let atoms: Vec<Atom<Var>> = src
        .facts()
        .map(|f| Atom::new(f.pred, f.args.iter().map(|e| var_of[e]).collect()))
        .collect();
    let mut fixed_binding: Binding = vec![None; adom.len()];
    for (e, v) in &var_of {
        if let Some(target) = fixed.get(e) {
            fixed_binding[v.index()] = Some(*target);
        }
    }
    let binding = find_hom(&atoms, adom.len(), dst, &fixed_binding)?;
    Some(
        adom.iter()
            .enumerate()
            .map(|(i, &e)| (e, binding[i].expect("active element is bound")))
            .collect(),
    )
}

/// `true` when there is a homomorphism from `src` into `dst` that is the
/// identity on `fixed` (which need not be a subset of `adom(src)`; elements
/// of `fixed` not active in `src` are unconstrained).
pub fn embeds_fixing(src: &Instance, dst: &Instance, fixed: &[Elem]) -> bool {
    let map: BTreeMap<Elem, Elem> = fixed.iter().map(|&e| (e, e)).collect();
    find_instance_hom(src, dst, &map).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_tgd, Schema};

    #[test]
    fn path_into_cycle() {
        let mut s = Schema::default();
        let path = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let cycle = parse_instance(&mut s, "E(p,q), E(q,p)").unwrap();
        // A path maps into a cycle, not vice versa (cycle of odd length 2?
        // E(p,q),E(q,p) is a 2-cycle; a 3-path maps onto it).
        assert!(find_instance_hom(&path, &cycle, &BTreeMap::new()).is_some());
        // The 2-cycle does not map into the path (no cycle in the path).
        assert!(find_instance_hom(&cycle, &path, &BTreeMap::new()).is_none());
    }

    #[test]
    fn hom_respects_fixed_elements() {
        let mut s = Schema::default();
        let src = parse_instance(&mut s, "E(a,b)").unwrap();
        let dst = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let a_src = src.elem_by_name("a").unwrap();
        let b_dst = dst.elem_by_name("b").unwrap();
        // Pin a ↦ b: the only extension maps b ↦ a.
        let fixed: BTreeMap<Elem, Elem> = [(a_src, b_dst)].into_iter().collect();
        let hom = find_instance_hom(&src, &dst, &fixed).unwrap();
        assert_eq!(hom[&a_src], b_dst);
        let b_src = src.elem_by_name("b").unwrap();
        assert_eq!(hom[&b_src], dst.elem_by_name("a").unwrap());
    }

    #[test]
    fn embeds_fixing_identity() {
        let mut s = Schema::default();
        // dst extends src: identity embedding exists.
        let src = parse_instance(&mut s, "E(a,b)").unwrap();
        let mut dst = src.clone();
        let e = s.pred_id("E").unwrap();
        dst.add_fact(e, vec![Elem(1), Elem(0)]);
        assert!(embeds_fixing(&src, &dst, &[Elem(0), Elem(1)]));
        // But src does not embed into a *disjoint* copy while fixing its
        // elements.
        let mut disjoint = tgdkit_instance::Instance::new(src.schema().clone());
        disjoint.add_fact(e, vec![Elem(10), Elem(11)]);
        assert!(!embeds_fixing(&src, &disjoint, &[Elem(0), Elem(1)]));
        assert!(find_instance_hom(&src, &disjoint, &BTreeMap::new()).is_some());
    }

    #[test]
    fn repeated_variables_constrain_matches() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,x) -> T(x)").unwrap();
        let no_loop = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        assert!(find_hom(tgd.body(), tgd.var_count(), &no_loop, &vec![None; 1]).is_none());
        let with_loop = parse_instance(&mut s, "E(a,a)").unwrap();
        assert!(find_hom(tgd.body(), tgd.var_count(), &with_loop, &vec![None; 1]).is_some());
    }

    #[test]
    fn enumeration_visits_all_matches() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let inst = parse_instance(&mut s, "E(a,b), E(b,c), E(a,c)").unwrap();
        let mut seen = Vec::new();
        for_each_hom(
            tgd.body(),
            tgd.var_count(),
            &inst,
            &vec![None; 2],
            &mut |b| {
                seen.push((b[0].unwrap(), b[1].unwrap()));
                ControlFlow::Continue(())
            },
        );
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let inst = parse_instance(&mut s, "E(a,b), E(b,c), E(a,c)").unwrap();
        let mut count = 0;
        for_each_hom(
            tgd.body(),
            tgd.var_count(),
            &inst,
            &vec![None; 2],
            &mut |_| {
                count += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_conjunction_has_trivial_hom() {
        let mut s = Schema::default();
        let inst = parse_instance(&mut s, "E(a,b)").unwrap();
        let hom = find_hom(&[], 0, &inst, &Binding::new());
        assert!(hom.is_some());
    }

    #[test]
    fn cross_predicate_join() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "R(x,y), S(y,z) -> T(x,z)").unwrap();
        let inst = parse_instance(&mut s, "R(a,b), S(c,d)").unwrap();
        // b ≠ c: no join.
        assert!(find_hom(tgd.body(), tgd.var_count(), &inst, &vec![None; 3]).is_none());
        let inst2 = parse_instance(&mut s, "R(a,b), S(b,d)").unwrap();
        let hom = find_hom(tgd.body(), tgd.var_count(), &inst2, &vec![None; 3]).unwrap();
        // The join variable y must be bound to the one element occurring in
        // both R (2nd position) and S (1st position).
        assert_eq!(hom[0], inst2.elem_by_name("a"));
        assert_eq!(hom[1], inst2.elem_by_name("b"));
        assert_eq!(hom[2], inst2.elem_by_name("d"));
    }

    #[test]
    fn fixed_binding_prunes_search() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let inst = parse_instance(&mut s, "E(a,b), E(b,c)").unwrap();
        let b = inst.elem_by_name("b").unwrap();
        let mut fixed: Binding = vec![None; 2];
        fixed[0] = Some(b);
        let hom = find_hom(tgd.body(), tgd.var_count(), &inst, &fixed).unwrap();
        assert_eq!(hom[0], Some(b));
        assert_eq!(hom[1], Some(inst.elem_by_name("c").unwrap()));
    }
}
