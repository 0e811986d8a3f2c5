//! Selectivity-guided join planning for the homomorphism search.
//!
//! Before a search starts, the atoms of the conjunction are ordered once by
//! a greedy selectivity estimate instead of being rescanned for the most
//! constrained atom at every recursion node: repeatedly pick the unplanned
//! atom with the smallest estimated candidate count — relation cardinality
//! divided by the number of distinct elements at each already-bound
//! position (a textbook independence estimate, with the distinct counts
//! read off the index postings) — then mark its variables bound and repeat.
//! The most constrained atom anchors the search instead of whatever the
//! parser emitted first, and the per-node `O(n)` reselection disappears
//! from the hot path.
//!
//! The plan depends only on *which* variables are bound, never on the bound
//! values, so semi-naive enumeration can plan once per anchor and reuse the
//! order across every delta fact. Because execution follows the planned
//! order deterministically, the set of bound argument positions at each
//! step is also static: each [`PlanStep`] carries a bound-position bitmask,
//! which is what the executor uses to pick a join *algorithm* per step
//! (containment probe / hash join / indexed nested loop / columnar scan)
//! without inspecting the binding.
//!
//! Plans are memoized in a process-wide, bounded, collision-safe cache
//! keyed by `(schema fingerprint, atom structure, entry bound-var set,
//! per-atom relation size class)`. The chase's anchored trigger searches
//! (one plan per anchor) and the candidate-evaluation head probes request
//! structurally identical plans hundreds of thousands of times per run;
//! with the cache they pay a hash lookup and an `Arc` clone instead of a
//! rebuild. Size classes
//! (`⌈log2(count)⌉`) keep cached orders honest as relations grow: a plan is
//! refreshed whenever a relation crosses a power-of-two boundary.

use crate::index::InstanceIndex;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use tgdkit_instance::{store, FxBuildHasher};
use tgdkit_logic::{Atom, Var};

/// A relaxed counter padded to its own cache line: the telemetry statics
/// below are bumped from every search on every worker thread, and packing
/// them into one line makes each add false-share with all the others.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    const fn new() -> Self {
        PaddedCounter(AtomicU64::new(0))
    }

    #[inline]
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

static PLANS_BUILT: PaddedCounter = PaddedCounter::new();
static PLANS_REORDERED: PaddedCounter = PaddedCounter::new();
static ATOMS_PLANNED: PaddedCounter = PaddedCounter::new();
static PLAN_CACHE_HITS: PaddedCounter = PaddedCounter::new();
static HASH_JOINS: PaddedCounter = PaddedCounter::new();
static NESTED_LOOP_JOINS: PaddedCounter = PaddedCounter::new();
static BUILD_ROWS: PaddedCounter = PaddedCounter::new();
static PROBE_ROWS: PaddedCounter = PaddedCounter::new();

/// Aggregate planner counters since process start (or the last
/// [`reset_plan_stats`]); perfbench reports them as `hom.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Join plans actually constructed (plan-cache misses; cache hits and
    /// trivially empty conjunctions don't build anything).
    pub plans_built: u64,
    /// Built plans whose chosen order differs from the syntactic atom order.
    pub plans_reordered: u64,
    /// Atoms routed through the planner, counted on hits and misses alike —
    /// with the cache working, `plans_built` falls far below this.
    pub atoms_planned: u64,
}

/// Snapshot of the global planner counters.
pub fn plan_stats() -> PlanStats {
    PlanStats {
        plans_built: PLANS_BUILT.get(),
        plans_reordered: PLANS_REORDERED.get(),
        atoms_planned: ATOMS_PLANNED.get(),
    }
}

/// Resets the global planner counters (benchmark harness scoping). The plan
/// cache itself is left intact — it is cross-run state by design.
pub fn reset_plan_stats() {
    PLANS_BUILT.reset();
    PLANS_REORDERED.reset();
    ATOMS_PLANNED.reset();
}

/// Aggregate join-execution counters since process start (or the last
/// [`reset_join_stats`]); perfbench reports them as `hom.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStats {
    /// Plan steps executed as hash joins (multi-position join-table probes
    /// and fully-bound containment probes).
    pub hash_joins: u64,
    /// Plan steps executed as indexed nested loops (single-position postings
    /// drives) or columnar scans.
    pub nested_loop_joins: u64,
    /// Build-side rows ingested: rows indexed by building an index over an
    /// existing instance, and rows scanned constructing hash-join tables.
    /// Rows a chase appends through its index's inserts are not counted.
    /// Nonzero whenever any indexed search ran over a nonempty instance.
    pub build_rows: u64,
    /// Candidate rows returned by hash-join probes (before column-wise
    /// verification).
    pub probe_rows: u64,
    /// Join-plan requests served from the cross-run plan cache.
    pub plan_cache_hits: u64,
}

/// Snapshot of the global join-execution counters.
pub fn join_stats() -> JoinStats {
    JoinStats {
        hash_joins: HASH_JOINS.get(),
        nested_loop_joins: NESTED_LOOP_JOINS.get(),
        build_rows: BUILD_ROWS.get(),
        probe_rows: PROBE_ROWS.get(),
        plan_cache_hits: PLAN_CACHE_HITS.get(),
    }
}

/// Resets the global join-execution counters (benchmark harness scoping).
pub fn reset_join_stats() {
    HASH_JOINS.reset();
    NESTED_LOOP_JOINS.reset();
    BUILD_ROWS.reset();
    PROBE_ROWS.reset();
    PLAN_CACHE_HITS.reset();
}

/// Adds one search's locally accumulated join counters to the globals —
/// called once per search, so the hot loop touches no atomics.
#[inline]
pub(crate) fn record_join_counters(hash: u64, nested: u64, build: u64, probe: u64) {
    if hash != 0 {
        HASH_JOINS.add(hash);
    }
    if nested != 0 {
        NESTED_LOOP_JOINS.add(nested);
    }
    if build != 0 {
        BUILD_ROWS.add(build);
    }
    if probe != 0 {
        PROBE_ROWS.add(probe);
    }
}

/// Charges `n` rows to the build side of the join telemetry. Building an
/// [`InstanceIndex`] over an existing instance calls this for every row it
/// indexes (the build feeds every later probe, so it is build work in the
/// hash-join sense), alongside the executor's own accounting of join-table
/// construction scans. Rows appended one insert at a time are not charged:
/// the insert path stays free of shared counters.
///
/// [`InstanceIndex`]: crate::index::InstanceIndex
#[inline]
pub(crate) fn record_build_rows(n: u64) {
    if n != 0 {
        BUILD_ROWS.add(n);
    }
}

/// Records a one-atom plan request satisfied by the executor's inline fast
/// path. A single atom admits exactly one evaluation order, so nothing is
/// built and nothing needs the shared cache — the request counts as one
/// planned atom answered by a cache hit (a build was avoided), keeping the
/// `plans_built` / `atoms_planned` telemetry comparable across paths.
#[inline]
pub(crate) fn record_trivial_plan() {
    ATOMS_PLANNED.add(1);
    PLAN_CACHE_HITS.add(1);
}

/// One step of a [`JoinPlan`]: which atom to match next, and which of its
/// argument positions are statically known to be bound when the step runs
/// (entry-bound variables plus variables bound by earlier steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the atom in the planned conjunction.
    pub atom: u32,
    /// Bitmask over argument positions (bit `p` = position `p` bound);
    /// positions ≥ 64 are conservatively reported unbound, which only
    /// affects algorithm choice, never correctness.
    pub bound_mask: u64,
    /// `bound_mask.count_ones()`, precomputed.
    pub n_bound: u8,
    /// First pair of positions carrying the same variable (for the chunked
    /// columnar equality filter on unbound scans), if any.
    pub rep_pair: Option<(u8, u8)>,
}

/// A compiled join plan: the atom evaluation order with per-step static
/// bound-position information. Built by [`plan_join_cached`] (memoized) or
/// [`plan_join`] (fresh, order only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Steps in evaluation order; one per atom of the conjunction.
    pub steps: Vec<PlanStep>,
}

impl JoinPlan {
    /// The planned atom order (indices into the planned conjunction).
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.atom as usize).collect()
    }
}

/// Estimated number of candidate tuples for `atom` given the set of bound
/// variables: `|R| / Π_{bound positions p} distinct(R, p)`, clamped to at
/// least one candidate unless the relation is empty.
fn estimate(atom: &Atom<Var>, index: &InstanceIndex<'_>, bound: &[bool]) -> f64 {
    let card = index.count(atom.pred) as f64;
    if card == 0.0 {
        return 0.0;
    }
    let mut est = card;
    for (pos, v) in atom.args.iter().enumerate() {
        if bound.get(v.index()).copied().unwrap_or(false) {
            est /= index.distinct(atom.pred, pos).max(1) as f64;
        }
    }
    est.max(1.0)
}

/// The [`PlanStep`] for placing `atom` (at conjunction index `i`) while the
/// variables for which `is_bound` (indexed by variable number) holds are
/// bound.
pub(crate) fn step_for(i: usize, atom: &Atom<Var>, is_bound: impl Fn(usize) -> bool) -> PlanStep {
    let mut mask = 0u64;
    for (pos, v) in atom.args.iter().enumerate() {
        if pos < 64 && is_bound(v.index()) {
            mask |= 1 << pos;
        }
    }
    let mut rep_pair = None;
    'outer: for p in 0..atom.args.len().min(u8::MAX as usize) {
        for q in (p + 1)..atom.args.len().min(u8::MAX as usize) {
            if atom.args[p] == atom.args[q] {
                rep_pair = Some((p as u8, q as u8));
                break 'outer;
            }
        }
    }
    PlanStep {
        atom: i as u32,
        bound_mask: mask,
        n_bound: mask.count_ones() as u8,
        rep_pair,
    }
}

/// Greedy plan construction; returns the plan and whether the chosen order
/// differs from the syntactic atom order.
fn build_plan(
    atoms: &[Atom<Var>],
    index: &InstanceIndex<'_>,
    entry_bound: &[bool],
) -> (JoinPlan, bool) {
    let mut bound = entry_bound.to_vec();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(atoms.len());
    let mut placed = vec![false; atoms.len()];
    for _ in 0..atoms.len() {
        let i = if atoms.len() == 1 {
            0
        } else {
            let mut best: Option<(f64, usize)> = None;
            for (i, atom) in atoms.iter().enumerate() {
                if placed[i] {
                    continue;
                }
                let est = estimate(atom, index, &bound);
                if best.is_none_or(|(b, _)| est < b) {
                    best = Some((est, i));
                }
            }
            best.expect("an unplaced atom remains").1
        };
        placed[i] = true;
        steps.push(step_for(i, &atoms[i], |vi| {
            bound.get(vi).copied().unwrap_or(false)
        }));
        for v in &atoms[i].args {
            if v.index() >= bound.len() {
                bound.resize(v.index() + 1, false);
            }
            bound[v.index()] = true;
        }
    }
    let reordered = steps
        .iter()
        .enumerate()
        .any(|(slot, s)| slot != s.atom as usize);
    (JoinPlan { steps }, reordered)
}

/// Computes the greedy join order for `atoms` against `index`, starting
/// from the variables flagged bound in `bound` (the fixed part of the
/// binding, plus any anchor atom's variables in the semi-naive case).
///
/// Returns atom indices in evaluation order. Ties break on the original
/// atom index, so the plan is deterministic. Always builds fresh (and
/// counts a built plan); the executor-facing entry point is
/// [`plan_join_cached`], which memoizes.
pub fn plan_join(atoms: &[Atom<Var>], index: &InstanceIndex<'_>, bound: &[bool]) -> Vec<usize> {
    if atoms.is_empty() {
        PLANS_BUILT.add(1);
        return Vec::new();
    }
    let (plan, reordered) = build_plan(atoms, index, bound);
    PLANS_BUILT.add(1);
    ATOMS_PLANNED.add(atoms.len() as u64);
    if reordered {
        PLANS_REORDERED.add(1);
    }
    plan.order()
}

/// Total cached plans across all buckets is capped; beyond the cap, misses
/// build fresh plans without inserting (a bound, not an eviction policy —
/// real workloads have a few hundred distinct plan shapes).
const PLAN_CACHE_CAP: usize = 1 << 14;

/// One cached plan under its full structural key (the key words verify a
/// hash-bucket match, so a collision degrades to a short linear scan
/// instead of returning a wrong plan).
type PlanBucket = Vec<(Box<[u64]>, Arc<JoinPlan>)>;

struct PlanCache {
    /// Key hash → bucket of every structural key that hashed alike.
    map: HashMap<u64, PlanBucket, FxBuildHasher>,
    entries: usize,
}

static PLAN_CACHE: OnceLock<RwLock<PlanCache>> = OnceLock::new();
static EMPTY_PLAN: OnceLock<Arc<JoinPlan>> = OnceLock::new();

fn plan_cache() -> &'static RwLock<PlanCache> {
    PLAN_CACHE.get_or_init(|| {
        RwLock::new(PlanCache {
            map: HashMap::default(),
            entries: 0,
        })
    })
}

/// Streams the structural cache-key words: schema fingerprint, atom
/// structure (predicate, arity, variable ids), per-atom relation size
/// class, and the entry bound-var bitmap. Streamed (not materialized) so
/// cache hits allocate nothing.
fn for_each_key_word(
    atoms: &[Atom<Var>],
    index: &InstanceIndex<'_>,
    bound: &[bool],
    mut f: impl FnMut(u64),
) {
    f(index.fingerprint());
    f(atoms.len() as u64);
    for atom in atoms {
        f(((atom.pred.index() as u64) << 32) | atom.args.len() as u64);
        for v in &atom.args {
            f(v.index() as u64);
        }
        // Bit length of the relation's cardinality: the plan refreshes when
        // a relation crosses a power-of-two size boundary.
        f(u64::BITS as u64 - (index.count(atom.pred) as u64).leading_zeros() as u64);
    }
    f(bound.len() as u64);
    for chunk in bound.chunks(64) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= (b as u64) << i;
        }
        f(word);
    }
}

fn key_hash(atoms: &[Atom<Var>], index: &InstanceIndex<'_>, bound: &[bool]) -> u64 {
    let mut h = store::FxHasher::default();
    for_each_key_word(atoms, index, bound, |w| h.write_u64(w));
    h.finish()
}

fn key_matches(
    stored: &[u64],
    atoms: &[Atom<Var>],
    index: &InstanceIndex<'_>,
    bound: &[bool],
) -> bool {
    let mut i = 0;
    let mut ok = true;
    for_each_key_word(atoms, index, bound, |w| {
        if ok {
            if stored.get(i) != Some(&w) {
                ok = false;
            }
            i += 1;
        }
    });
    ok && i == stored.len()
}

/// [`plan_join`] with memoization: returns the compiled [`JoinPlan`] for
/// `(index schema, atoms, bound set, relation size classes)` from the
/// process-wide cache, building it only on the first request. This is the
/// entry point the hom executor uses — the chase's anchored trigger
/// searches and repeated head probes request the same handful of plan
/// shapes hundreds of thousands of times per run.
pub fn plan_join_cached(
    atoms: &[Atom<Var>],
    index: &InstanceIndex<'_>,
    bound: &[bool],
) -> Arc<JoinPlan> {
    if atoms.is_empty() {
        // Nothing to plan and nothing worth counting.
        return Arc::clone(EMPTY_PLAN.get_or_init(|| Arc::new(JoinPlan { steps: Vec::new() })));
    }
    ATOMS_PLANNED.add(atoms.len() as u64);
    let hash = key_hash(atoms, index, bound);
    {
        let cache = plan_cache().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(bucket) = cache.map.get(&hash) {
            for (key, plan) in bucket {
                if key_matches(key, atoms, index, bound) {
                    PLAN_CACHE_HITS.add(1);
                    return Arc::clone(plan);
                }
            }
        }
    }
    let (plan, reordered) = build_plan(atoms, index, bound);
    PLANS_BUILT.add(1);
    if reordered {
        PLANS_REORDERED.add(1);
    }
    let plan = Arc::new(plan);
    let mut cache = plan_cache().write().unwrap_or_else(PoisonError::into_inner);
    if cache.entries < PLAN_CACHE_CAP {
        let bucket = cache.map.entry(hash).or_default();
        // Another thread may have inserted between the locks; keep the
        // first copy so all searches share one Arc.
        if let Some((_, existing)) = bucket
            .iter()
            .find(|(key, _)| key_matches(key, atoms, index, bound))
        {
            return Arc::clone(existing);
        }
        let mut words = Vec::new();
        for_each_key_word(atoms, index, bound, |w| words.push(w));
        bucket.push((words.into_boxed_slice(), Arc::clone(&plan)));
        cache.entries += 1;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::{Elem, Instance};
    use tgdkit_logic::{PredId, Schema};

    fn atom(pred: PredId, vars: &[u32]) -> Atom<Var> {
        Atom::new(pred, vars.iter().map(|&v| Var(v)).collect())
    }

    #[test]
    fn rare_relation_anchors_the_plan() {
        let s = Schema::builder().pred("Big", 2).pred("Tiny", 2).build();
        let big = s.pred_id("Big").unwrap();
        let tiny = s.pred_id("Tiny").unwrap();
        let mut i = Instance::new(s);
        for k in 0..20 {
            i.add_fact(big, vec![Elem(k), Elem(k + 1)]);
        }
        i.add_fact(tiny, vec![Elem(0), Elem(1)]);
        let index = InstanceIndex::new(&i);
        // Syntactic order lists Big first; the plan must flip it.
        let atoms = [atom(big, &[0, 1]), atom(tiny, &[1, 2])];
        let order = plan_join(&atoms, &index, &[false, false, false]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn bound_variables_raise_selectivity() {
        let s = Schema::builder().pred("R", 2).pred("S", 2).build();
        let r = s.pred_id("R").unwrap();
        let sp = s.pred_id("S").unwrap();
        let mut i = Instance::new(s);
        // R: 6 tuples over 6 distinct first elements; S: 4 tuples with one
        // shared first element.
        for k in 0..6 {
            i.add_fact(r, vec![Elem(k), Elem(50)]);
        }
        for k in 0..4 {
            i.add_fact(sp, vec![Elem(99), Elem(k)]);
        }
        let index = InstanceIndex::new(&i);
        // With x bound, R(x,y) estimates 6/6 = 1 candidate and beats
        // S(z,w) at 4 despite R's larger cardinality.
        let atoms = [atom(sp, &[2, 3]), atom(r, &[0, 1])];
        let order = plan_join(&atoms, &index, &[true, false, false, false]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn empty_relations_go_first() {
        let s = Schema::builder().pred("R", 1).pred("Empty", 1).build();
        let r = s.pred_id("R").unwrap();
        let e = s.pred_id("Empty").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0)]);
        let index = InstanceIndex::new(&i);
        // The empty relation refutes the conjunction immediately; planning
        // it first short-circuits the search.
        let atoms = [atom(r, &[0]), atom(e, &[1])];
        let order = plan_join(&atoms, &index, &[false, false]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn ties_keep_syntactic_order() {
        let s = Schema::builder().pred("R", 1).build();
        let r = s.pred_id("R").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0)]);
        let index = InstanceIndex::new(&i);
        let atoms = [atom(r, &[0]), atom(r, &[1]), atom(r, &[2])];
        // The counters this plan moves are pinned in `tests/plan_counters.rs`,
        // a binary of its own: other tests here plan joins concurrently.
        let order = plan_join(&atoms, &index, &[false, false, false]);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn steps_carry_static_bound_masks() {
        let s = Schema::builder().pred("R", 2).pred("S", 2).build();
        let r = s.pred_id("R").unwrap();
        let sp = s.pred_id("S").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0), Elem(1)]);
        for k in 0..9 {
            i.add_fact(sp, vec![Elem(k), Elem(k)]);
        }
        let index = InstanceIndex::new(&i);
        // R(x,y), S(y,z): R (rarer) runs first with nothing bound; S then
        // sees y bound at position 0.
        let atoms = [atom(r, &[0, 1]), atom(sp, &[1, 2])];
        let (plan, reordered) = build_plan(&atoms, &index, &[false, false, false]);
        assert!(!reordered);
        assert_eq!(plan.steps[0].atom, 0);
        assert_eq!(plan.steps[0].bound_mask, 0);
        assert_eq!(plan.steps[0].n_bound, 0);
        assert_eq!(plan.steps[1].atom, 1);
        assert_eq!(plan.steps[1].bound_mask, 0b01);
        assert_eq!(plan.steps[1].n_bound, 1);
        // With everything entry-bound, both steps are fully bound.
        let (plan, _) = build_plan(&atoms, &index, &[true, true, true]);
        assert!(plan.steps.iter().all(|s| s.n_bound == 2));
        // Repeated-variable pairs are recorded for the columnar filter.
        let rep = [atom(r, &[3, 3])];
        let (plan, _) = build_plan(&rep, &index, &[false, false, false, false]);
        assert_eq!(plan.steps[0].rep_pair, Some((0, 1)));
        assert_eq!(plan.steps[0].bound_mask, 0);
    }

    #[test]
    fn cached_plans_are_reused_and_refresh_on_growth() {
        let s = Schema::builder().pred("A", 2).pred("B", 2).build();
        let a = s.pred_id("A").unwrap();
        let b = s.pred_id("B").unwrap();
        let mut i = Instance::new(s);
        for k in 0..8 {
            i.add_fact(a, vec![Elem(k), Elem(k + 1)]);
        }
        i.add_fact(b, vec![Elem(0), Elem(1)]);
        let index = InstanceIndex::new(&i);
        let atoms = [atom(a, &[0, 1]), atom(b, &[1, 2])];
        let bound = [false, false, false];
        let before = join_stats();
        let p1 = plan_join_cached(&atoms, &index, &bound);
        let p2 = plan_join_cached(&atoms, &index, &bound);
        assert!(Arc::ptr_eq(&p1, &p2), "second request must hit the cache");
        // Other tests share the process-wide counters, so only a lower
        // bound is stable here.
        assert!(join_stats().plan_cache_hits > before.plan_cache_hits);
        // A different bound set is a different plan shape.
        let p3 = plan_join_cached(&atoms, &index, &[true, false, false]);
        assert!(!Arc::ptr_eq(&p1, &p3));
        // Growing a relation past a power-of-two boundary refreshes the key.
        let mut grown = Instance::new(Schema::builder().pred("A", 2).pred("B", 2).build());
        for k in 0..40 {
            grown.add_fact(a, vec![Elem(k), Elem(k + 1)]);
        }
        grown.add_fact(b, vec![Elem(0), Elem(1)]);
        let grown_index = InstanceIndex::new(&grown);
        let p4 = plan_join_cached(&atoms, &grown_index, &bound);
        assert!(
            !Arc::ptr_eq(&p1, &p4),
            "size class changed: plan must be rebuilt, not replayed"
        );
        // The empty conjunction is a shared static.
        assert!(plan_join_cached(&[], &index, &bound).steps.is_empty());
    }
}
