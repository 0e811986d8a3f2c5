//! Positional indexes over instances, accelerating homomorphism search.
//!
//! Tuples are stored column-major (struct-of-arrays, mirroring the
//! [`tgdkit_instance::Relation`] layout): one contiguous `Vec<Elem>` per
//! argument position. Single-position lookups go through hash postings,
//! multi-position lookups through lazily built `JoinTable`s (hash maps
//! keyed by the joint value of a *set* of positions — the build side of the
//! executor's hash joins), and batched filters read whole column slices.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use tgdkit_instance::store::{self, RowSet};
use tgdkit_instance::{Elem, Fact, FxBuildHasher, Instance};
use tgdkit_logic::{PredId, Schema};

/// Per-predicate columnar tuple store plus positional postings and lazy
/// multi-column join tables.
#[derive(Debug, Default)]
struct PredIndex {
    arity: usize,
    rows: usize,
    /// One column per argument position, `rows` elements long, in the order
    /// the tuples were indexed (canonical instance order for the initial
    /// build, delta order for `extend`).
    cols: Vec<Vec<Elem>>,
    /// Position → element → rows having that element at that position,
    /// ascending (rows are only ever appended).
    postings: Vec<HashMap<Elem, Vec<u32>, FxBuildHasher>>,
    /// Collision-safe membership: the rows, keyed by tuple hash and
    /// verified column-wise.
    seen: RowSet,
    /// Lazily built hash-join tables, keyed by the bound-position bitmask
    /// they index. Built on first probe (the executor decides per plan step
    /// whether a hash join pays), shared across concurrent searches, and
    /// invalidated wholesale when the predicate grows.
    tables: RwLock<HashMap<u64, Arc<JoinTable>, FxBuildHasher>>,
}

impl PredIndex {
    #[inline]
    fn at(&self, row: u32, pos: usize) -> Elem {
        self.cols[pos][row as usize]
    }

    /// `true` when `tuple` is indexed at a row below `limit`. Indexed
    /// tuples are distinct, so the one match decides.
    fn contains_below(&self, tuple: &[Elem], limit: usize) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        self.seen
            .find(store::tuple_hash(tuple), |r| {
                store::columns_row_eq(&self.cols, r, tuple)
            })
            .is_some_and(|r| (r as usize) < limit)
    }

    /// Appends `tuple` unless already present; returns `true` when added.
    ///
    /// # Panics
    /// Panics when the predicate already holds [`store::MAX_ROWS`] rows.
    fn push(&mut self, tuple: &[Elem]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let hash = store::tuple_hash(tuple);
        let cols = &self.cols;
        if self
            .seen
            .find(hash, |r| store::columns_row_eq(cols, r, tuple))
            .is_some()
        {
            return false;
        }
        let row = store::next_row_id(self.rows).unwrap_or_else(|e| panic!("index overflow: {e}"));
        self.seen
            .insert(hash, row, |r| store::columns_row_hash(cols, r));
        for (pos, (col, &e)) in self.cols.iter_mut().zip(tuple).enumerate() {
            col.push(e);
            self.postings[pos].entry(e).or_default().push(row);
        }
        self.rows += 1;
        // The predicate changed shape: any cached join table is stale.
        let tables = self
            .tables
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if !tables.is_empty() {
            tables.clear();
        }
        true
    }

    /// The join table over the positions in `mask`, building (and caching)
    /// it on first use. Returns the rows scanned by a fresh build (0 on a
    /// cache hit) alongside the table, for the `build_rows` telemetry.
    fn join_table(&self, mask: u64) -> (Arc<JoinTable>, u64) {
        {
            let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = tables.get(&mask) {
                return (Arc::clone(t), 0);
            }
        }
        let built = Arc::new(JoinTable::build(&self.cols, self.rows, mask));
        let mut tables = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have built it between the locks; first build
        // wins so all probers share one table.
        let entry = tables.entry(mask).or_insert_with(|| Arc::clone(&built));
        let fresh = Arc::ptr_eq(entry, &built);
        (Arc::clone(entry), if fresh { self.rows as u64 } else { 0 })
    }
}

/// The build side of a hash join: rows of one predicate keyed by the joint
/// hash of the elements at a fixed set of positions (the step's bound-position
/// bitmask). Probes return *candidate* rows; the executor verifies each
/// candidate column-wise, so hash collisions cannot produce wrong matches.
#[derive(Debug)]
pub(crate) struct JoinTable {
    map: HashMap<u64, Vec<u32>, FxBuildHasher>,
}

impl JoinTable {
    fn build(cols: &[Vec<Elem>], rows: usize, mask: u64) -> JoinTable {
        let mut map: HashMap<u64, Vec<u32>, FxBuildHasher> = HashMap::default();
        for row in 0..rows {
            let key = store::tuple_hash_iter(
                cols.iter()
                    .enumerate()
                    .filter(|&(pos, _)| pos < 64 && mask >> pos & 1 == 1)
                    .map(|(_, col)| col[row]),
            );
            map.entry(key).or_default().push(row as u32);
        }
        JoinTable { map }
    }

    /// Candidate rows whose masked positions hash to `key` (positions taken
    /// in ascending order, hashed with [`store::tuple_hash_iter`]), in
    /// ascending row order.
    #[inline]
    pub(crate) fn probe(&self, key: u64) -> &[u32] {
        self.map.get(&key).map_or(&[], Vec::as_slice)
    }
}

/// A per-predicate, per-position index of an instance's tuples.
///
/// For each predicate the tuples are materialized column-major (in the
/// instance's deterministic order) and, for each argument position, a map
/// from element to the list of tuple indices having that element at that
/// position. Join-style candidate lookups during homomorphism search then
/// cost a hash lookup instead of a relation scan, equality filters run over
/// contiguous column slices, and multi-position probes hit cached hash-join
/// tables.
#[derive(Debug)]
pub struct InstanceIndex {
    preds: Vec<PredIndex>,
    /// Hash of the indexed schema (predicate names and arities) — part of
    /// the planner's cross-run plan-cache key, so plans cached against one
    /// schema are never replayed against another.
    fingerprint: u64,
}

fn schema_fingerprint(schema: &Schema) -> u64 {
    use std::hash::Hasher;
    let mut h = store::FxHasher::default();
    for pred in schema.preds() {
        h.write(schema.name(pred).as_bytes());
        h.write_usize(schema.arity(pred));
    }
    h.finish()
}

impl InstanceIndex {
    /// Builds the index for `instance`.
    pub fn new(instance: &Instance) -> InstanceIndex {
        let schema = instance.schema();
        let mut preds: Vec<PredIndex> = Vec::with_capacity(schema.len());
        let mut scratch: Vec<Elem> = Vec::new();
        for pred in schema.preds() {
            let rel = instance.relation(pred);
            let arity = schema.arity(pred);
            let mut pi = PredIndex {
                arity,
                rows: 0,
                cols: (0..arity).map(|_| Vec::with_capacity(rel.len())).collect(),
                postings: vec![HashMap::default(); arity],
                seen: RowSet::new(),
                tables: RwLock::default(),
            };
            let mut built: u64 = 0;
            for tuple in rel {
                tuple.copy_into(&mut scratch);
                built += pi.push(&scratch) as u64;
            }
            crate::plan::record_build_rows(built);
            preds.push(pi);
        }
        InstanceIndex {
            preds,
            fingerprint: schema_fingerprint(schema),
        }
    }

    /// Hash of the indexed schema, scoping cached join plans (see
    /// [`crate::plan`]).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// All tuples of `pred`, in deterministic order, as a columnar view.
    /// Predicates beyond the indexed instance's schema (e.g. added to a
    /// shared schema after the instance was built) read as empty relations.
    #[inline]
    pub fn tuples(&self, pred: PredId) -> Tuples<'_> {
        match self.preds.get(pred.index()) {
            Some(pi) => Tuples {
                cols: &pi.cols,
                arity: pi.arity,
                rows: pi.rows,
            },
            None => Tuples {
                cols: &[],
                arity: 0,
                rows: 0,
            },
        }
    }

    /// The element at position `pos` of indexed tuple `row` of `pred`.
    ///
    /// # Panics
    /// Panics if the row or position is out of range for the predicate.
    #[inline]
    pub fn at(&self, pred: PredId, row: u32, pos: usize) -> Elem {
        self.preds[pred.index()].at(row, pos)
    }

    /// Tuple indices of `pred` having `elem` at `position` (empty slice if
    /// none, or if the predicate/position is beyond the indexed schema).
    #[inline]
    pub fn postings(&self, pred: PredId, position: usize, elem: Elem) -> &[u32] {
        self.preds
            .get(pred.index())
            .and_then(|pi| pi.postings.get(position))
            .and_then(|map| map.get(&elem))
            .map_or(&[], Vec::as_slice)
    }

    /// The hash-join table of `pred` over the positions in `mask`, built on
    /// first use and cached until the predicate grows. `None` beyond the
    /// indexed schema. The second component is the number of rows a fresh
    /// build scanned (0 on a cache hit).
    #[inline]
    pub(crate) fn join_table(&self, pred: PredId, mask: u64) -> Option<(Arc<JoinTable>, u64)> {
        self.preds.get(pred.index()).map(|pi| pi.join_table(mask))
    }

    /// Number of distinct elements occurring at `position` of `pred` — the
    /// denominator of the join planner's selectivity estimate. Zero beyond
    /// the indexed schema.
    #[inline]
    pub fn distinct(&self, pred: PredId, position: usize) -> usize {
        self.preds
            .get(pred.index())
            .and_then(|pi| pi.postings.get(position))
            .map_or(0, HashMap::len)
    }

    /// Number of tuples of `pred` (zero beyond the indexed schema).
    #[inline]
    pub fn count(&self, pred: PredId) -> usize {
        self.preds.get(pred.index()).map_or(0, |pi| pi.rows)
    }

    /// Total number of indexed tuples across all predicates.
    pub fn total_count(&self) -> usize {
        self.preds.iter().map(|pi| pi.rows).sum()
    }

    /// `true` if the tuple `args` of `pred` is already indexed.
    pub fn contains(&self, pred: PredId, args: &[Elem]) -> bool {
        self.contains_below(pred, args, usize::MAX)
    }

    /// `true` if the tuple `args` of `pred` is indexed at a row below
    /// `limit`. With `limit` a semi-naive watermark, that is whether it is
    /// an old fact rather than part of the appended delta (see
    /// [`InstanceIndex::extend`]).
    pub fn contains_below(&self, pred: PredId, args: &[Elem], limit: usize) -> bool {
        self.preds
            .get(pred.index())
            .is_some_and(|pi| pi.contains_below(args, limit))
    }

    /// Appends `delta` to the index, growing it in place.
    ///
    /// Observationally equivalent to rebuilding with [`InstanceIndex::new`]
    /// on the extended instance — same tuple *sets* and consistent postings
    /// — except that new tuples are appended in `delta` order instead of
    /// the instance's sorted order, so [`InstanceIndex::tuples`] may
    /// enumerate in a different order. Facts already indexed (and
    /// duplicates within `delta`) are skipped, and predicates beyond the
    /// original schema grow the index as needed, so repeated `extend`s from
    /// any source converge to the same fact set. Cost is O(|delta|) amortized
    /// — this is what keeps multi-round chases from paying a full O(|I|)
    /// rebuild per round. Cached join tables of the touched predicates are
    /// invalidated (rebuilt lazily on the next probe).
    ///
    /// Appended rows get the next row numbers, and postings and join-table
    /// rows stay ascending. So when `delta` holds new, distinct facts, they
    /// are exactly the rows of each predicate `p` at or above
    /// `count(p) − |delta_p|` — the watermark the semi-naive search
    /// ([`crate::for_each_hom_anchored`]) cuts old facts at.
    pub fn extend(&mut self, delta: &[Fact]) {
        let mut built: u64 = 0;
        for fact in delta {
            let p = fact.pred.index();
            if p >= self.preds.len() {
                self.preds.resize_with(p + 1, PredIndex::default);
            }
            let pi = &mut self.preds[p];
            if pi.rows == 0 && pi.arity != fact.args.len() {
                // Predicate first seen through a delta (or still empty):
                // adopt the fact's arity.
                pi.arity = fact.args.len();
            }
            debug_assert_eq!(pi.arity, fact.args.len(), "mixed arity in extend");
            if pi.cols.len() < fact.args.len() {
                pi.cols.resize_with(fact.args.len(), Vec::new);
                pi.postings.resize_with(fact.args.len(), HashMap::default);
            }
            built += pi.push(&fact.args) as u64;
        }
        crate::plan::record_build_rows(built);
    }
}

/// A columnar view of one predicate's indexed tuples: per-position element
/// access plus whole-column slices for batched scans. Copy-cheap (three
/// words).
#[derive(Clone, Copy)]
pub struct Tuples<'a> {
    cols: &'a [Vec<Elem>],
    arity: usize,
    rows: usize,
}

impl<'a> Tuples<'a> {
    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when there are no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The arity of the viewed predicate.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The element at position `pos` of tuple `row`.
    ///
    /// # Panics
    /// Panics if `row >= len()` or `pos >= arity()`.
    #[inline]
    pub fn at(&self, row: usize, pos: usize) -> Elem {
        self.cols[pos][row]
    }

    /// The contiguous column of elements at position `pos` (one per tuple,
    /// in index order) — the slice chunked equality filters scan.
    ///
    /// # Panics
    /// Panics if `pos >= arity()`.
    #[inline]
    pub fn col(&self, pos: usize) -> &'a [Elem] {
        &self.cols[pos]
    }

    /// Materializes the tuples as owned vectors. Test/diagnostic helper
    /// only — hot paths read columns ([`Tuples::col`]) or elements
    /// ([`Tuples::at`]) in place.
    pub fn to_vec(&self) -> Vec<Vec<Elem>> {
        (0..self.rows)
            .map(|row| (0..self.arity).map(|pos| self.at(row, pos)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_logic::Schema;

    #[test]
    fn postings_locate_tuples() {
        let s = Schema::builder().pred("R", 2).build();
        let r = s.pred_id("R").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0), Elem(1)]);
        i.add_fact(r, vec![Elem(1), Elem(1)]);
        i.add_fact(r, vec![Elem(2), Elem(0)]);
        let idx = InstanceIndex::new(&i);
        assert_eq!(idx.count(r), 3);
        // Elem(1) at position 1 appears in two tuples.
        let hits = idx.postings(r, 1, Elem(1));
        assert_eq!(hits.len(), 2);
        for &h in hits {
            assert_eq!(idx.at(r, h, 1), Elem(1));
        }
        assert!(idx.postings(r, 0, Elem(9)).is_empty());
        // Distinct counts per position: {0,1,2} first, {0,1} second.
        assert_eq!(idx.distinct(r, 0), 3);
        assert_eq!(idx.distinct(r, 1), 2);
        // Column slices expose the same data position-wise.
        let t = idx.tuples(r);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.col(0), &[Elem(0), Elem(1), Elem(2)]);
        assert_eq!(t.col(1), &[Elem(1), Elem(1), Elem(0)]);
    }

    #[test]
    fn extend_matches_fresh_build() {
        let s = Schema::builder().pred("R", 2).pred("P", 1).build();
        let r = s.pred_id("R").unwrap();
        let p = s.pred_id("P").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0), Elem(1)]);
        let mut idx = InstanceIndex::new(&i);
        let delta = [
            Fact::new(r, vec![Elem(1), Elem(2)]),
            Fact::new(p, vec![Elem(0)]),
            Fact::new(r, vec![Elem(0), Elem(1)]), // already indexed: skipped
            Fact::new(p, vec![Elem(0)]),          // duplicate in delta: skipped
        ];
        idx.extend(&delta);
        for fact in &delta {
            i.add_fact(fact.pred, fact.args.clone());
        }
        let fresh = InstanceIndex::new(&i);
        for pred in [r, p] {
            assert_eq!(idx.count(pred), fresh.count(pred));
            let mut a = idx.tuples(pred).to_vec();
            let mut b = fresh.tuples(pred).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        assert_eq!(idx.total_count(), fresh.total_count());
        // Postings stay consistent: every hit dereferences to a matching
        // tuple, and every tuple is reachable from each of its positions.
        let hits = idx.postings(r, 0, Elem(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.at(r, hits[0], 0), Elem(1));
        assert_eq!(idx.at(r, hits[0], 1), Elem(2));
    }

    #[test]
    fn extend_grows_past_indexed_schema() {
        let s = Schema::builder().pred("R", 2).build();
        let i = Instance::new(s);
        let mut idx = InstanceIndex::new(&i);
        // A predicate the indexed instance never saw, plus a zero-arity one.
        let ghost = tgdkit_logic::PredId(3);
        let zero = tgdkit_logic::PredId(5);
        idx.extend(&[
            Fact::new(ghost, vec![Elem(4), Elem(5)]),
            Fact::new(zero, vec![]),
            Fact::new(zero, vec![]),
        ]);
        assert_eq!(idx.count(ghost), 1);
        assert_eq!(idx.postings(ghost, 1, Elem(5)), &[0]);
        assert_eq!(idx.count(zero), 1);
        assert!(idx.contains(zero, &[]));
        assert!(!idx.contains(tgdkit_logic::PredId(9), &[]));
    }

    #[test]
    fn unknown_predicates_read_as_empty() {
        let s = Schema::builder().pred("R", 2).build();
        let i = Instance::new(s);
        let idx = InstanceIndex::new(&i);
        // A predicate added to a shared schema after the instance was built.
        let ghost = tgdkit_logic::PredId(7);
        assert_eq!(idx.count(ghost), 0);
        assert!(idx.tuples(ghost).is_empty());
        assert!(idx.postings(ghost, 0, Elem(0)).is_empty());
        assert_eq!(idx.distinct(ghost, 0), 0);
    }

    #[test]
    fn join_tables_return_exact_candidates_after_verify() {
        let s = Schema::builder().pred("R", 3).build();
        let r = s.pred_id("R").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0), Elem(1), Elem(2)]);
        i.add_fact(r, vec![Elem(0), Elem(1), Elem(3)]);
        i.add_fact(r, vec![Elem(0), Elem(2), Elem(2)]);
        let idx = InstanceIndex::new(&i);
        // Key on positions {0, 1}.
        let mask = 0b011u64;
        let (table, built) = idx.join_table(r, mask).unwrap();
        assert_eq!(built, 3, "first build scans every row");
        let key = store::tuple_hash_iter([Elem(0), Elem(1)].into_iter());
        let hits = table.probe(key);
        // Both (0,1,_) rows, after column-wise verification.
        let verified: Vec<u32> = hits
            .iter()
            .copied()
            .filter(|&row| idx.at(r, row, 0) == Elem(0) && idx.at(r, row, 1) == Elem(1))
            .collect();
        assert_eq!(verified.len(), 2);
        // Second request hits the cache (no rebuild).
        let (_, rebuilt) = idx.join_table(r, mask).unwrap();
        assert_eq!(rebuilt, 0);
        // Absent keys probe empty.
        let miss = store::tuple_hash_iter([Elem(7), Elem(7)].into_iter());
        assert!(table.probe(miss).is_empty());
    }

    #[test]
    fn extend_invalidates_join_tables() {
        let s = Schema::builder().pred("R", 2).build();
        let r = s.pred_id("R").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(0), Elem(1)]);
        let mut idx = InstanceIndex::new(&i);
        let mask = 0b11u64;
        let (stale, _) = idx.join_table(r, mask).unwrap();
        idx.extend(&[Fact::new(r, vec![Elem(2), Elem(3)])]);
        let (fresh, built) = idx.join_table(r, mask).unwrap();
        assert_eq!(built, 2, "table rebuilt over the grown predicate");
        let key = store::tuple_hash_iter([Elem(2), Elem(3)].into_iter());
        assert!(stale.probe(key).is_empty(), "old Arc unchanged");
        assert_eq!(fresh.probe(key).len(), 1);
    }

    #[test]
    fn fingerprint_tracks_schema_not_contents() {
        let s = Schema::builder().pred("R", 2).build();
        let mut a = Instance::new(s.clone());
        let r = s.pred_id("R").unwrap();
        a.add_fact(r, vec![Elem(0), Elem(1)]);
        let b = Instance::new(s);
        assert_eq!(
            InstanceIndex::new(&a).fingerprint(),
            InstanceIndex::new(&b).fingerprint()
        );
        let other = Schema::builder().pred("R", 3).build();
        assert_ne!(
            InstanceIndex::new(&a).fingerprint(),
            InstanceIndex::new(&Instance::new(other)).fingerprint()
        );
    }
}
