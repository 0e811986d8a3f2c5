//! Positional indexes over instances, accelerating homomorphism search.
//!
//! Tuples are stored column-major (struct-of-arrays, mirroring the
//! [`tgdkit_instance::Relation`] layout): one contiguous `Vec<Elem>` per
//! argument position. Single-position lookups go through hash postings,
//! multi-position lookups through lazily built `JoinTable`s (hash maps
//! keyed by the joint value of a *set* of positions — the build side of the
//! executor's hash joins), and batched filters read whole column slices.
//!
//! Membership is a [`RowSet`] keyed by tuple hash. Unary and binary
//! predicates whose element ids are dense also keep one bit per possible
//! tuple (`DenseBits`), so the chase's dead-trigger probe — almost every
//! body match it offers — is one bit test instead of a hash, a slot read and
//! a column-wise verify.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use tgdkit_instance::store::{self, RowSet};
use tgdkit_instance::{Elem, Fact, FxBuildHasher, Instance};
use tgdkit_logic::{PredId, Schema, Var};

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
    /// verified column-wise. The only map from a tuple to its row id.
    seen: RowSet,
    /// Exact membership bits for arity 1 and 2, on while the density rule
    /// holds (see [`DenseBits`]).
    dense: DenseBits,
    /// Lazily built hash-join tables, keyed by the bound-position bitmask
    /// they index. Built on first probe (the executor decides per plan step
    /// whether a hash join pays), shared across concurrent searches, and
    /// invalidated wholesale when the predicate grows.
    tables: RwLock<HashMap<u64, Arc<JoinTable>, FxBuildHasher>>,
}

/// One bit per possible tuple of a unary or binary predicate: bit `a` for
/// `P(a)`, bit `a · side + b` for `R(a, b)`, where `side` is the smallest
/// power of two (at least 64) above every indexed element id. A bit is set
/// iff the tuple is indexed, so a test is exact; an id at or beyond `side`
/// reads as absent.
///
/// The bits are kept only while they cost no more than the [`RowSet`] they
/// shortcut, which holds at least two 8-byte slots per row: `side^arity ≤
/// 128 · rows` bits, i.e. at most 16 bytes per row, and never below 32
/// rows. The floor is where binary bits start anyway (64² bits need 32
/// rows); for unary predicates it keeps the thousands of tiny indexes of a
/// rewrite's entailment checks, a row or two each, on the row set alone,
/// with no build and no allocation. The rule is re-evaluated
/// when the row count reaches a power of two and when an id at or beyond
/// `side` arrives; switching on or resizing rebuilds the bits from the
/// columns in O(rows), which is amortized O(1) per insert.
#[derive(Debug, Default)]
struct DenseBits {
    /// `log2(side)`.
    shift: u32,
    /// Empty while the bits are off.
    words: Vec<u64>,
}

impl DenseBits {
    /// `log2` of the smallest side: one 64-bit word per bit row.
    const MIN_SHIFT: u32 = 6;
    /// The density rule: at most this many bits per indexed row.
    const MAX_BITS_PER_ROW: u128 = 128;
    /// The density rule: no bits for fewer rows than this.
    const MIN_ROWS: usize = 32;

    /// The bits for the first `rows` tuples of the `arity` columns `cols`,
    /// sized by their largest element id, or off when they would break the
    /// density rule.
    fn build(arity: usize, cols: &[Vec<Elem>], rows: usize) -> DenseBits {
        if rows < Self::MIN_ROWS {
            return DenseBits::default();
        }
        let max_elem = cols
            .iter()
            .flat_map(|col| &col[..rows])
            .map(|e| e.0)
            .max()
            .unwrap_or(0);
        let shift = (u64::from(max_elem) + 1)
            .next_power_of_two()
            .trailing_zeros()
            .max(Self::MIN_SHIFT);
        let bits = 1u128 << (arity as u32 * shift);
        if bits > Self::MAX_BITS_PER_ROW * rows as u128 {
            return DenseBits::default();
        }
        let mut dense = DenseBits {
            shift,
            words: vec![0; (bits / 64) as usize],
        };
        let covered = (0..rows).all(|row| dense.set(arity, |pos| cols[pos][row]));
        debug_assert!(covered, "the side covers every indexed id");
        dense
    }

    #[inline]
    fn is_on(&self) -> bool {
        !self.words.is_empty()
    }

    /// The bit of the tuple `elem(0..arity)`, or `None` when an id is at or
    /// beyond `side`. Only meaningful while the bits are on (arity 1 or 2).
    #[inline]
    fn bit(&self, arity: usize, elem: impl Fn(usize) -> Elem) -> Option<u64> {
        let a = u64::from(elem(0).0);
        let (key, ids) = if arity == 1 {
            (a, a)
        } else {
            let b = u64::from(elem(1).0);
            ((a << self.shift) | b, a | b)
        };
        (ids >> self.shift == 0).then_some(key)
    }

    /// Exact membership while on; `None` while off.
    #[inline]
    fn test(&self, arity: usize, elem: impl Fn(usize) -> Elem) -> Option<bool> {
        if !self.is_on() {
            return None;
        }
        Some(
            self.bit(arity, elem)
                .is_some_and(|i| self.words[(i >> 6) as usize] >> (i & 63) & 1 == 1),
        )
    }

    /// Sets the tuple's bit; `false` (and nothing set) when an id is at or
    /// beyond `side`.
    #[inline]
    fn set(&mut self, arity: usize, elem: impl Fn(usize) -> Elem) -> bool {
        match self.bit(arity, elem) {
            Some(i) => {
                self.words[(i >> 6) as usize] |= 1 << (i & 63);
                true
            }
            None => false,
        }
    }
}

impl PredIndex {
    #[inline]
    fn at(&self, row: u32, pos: usize) -> Elem {
        self.cols[pos][row as usize]
    }

    /// `true` when the tuple `elem(0..len)` is indexed at a row below
    /// `limit`. Indexed tuples are distinct, so the one match decides. With
    /// the dense bits on, a clear bit decides absence and, when `limit`
    /// covers every row, a set bit decides presence; only a probe below a
    /// watermark needs the row id, which the [`RowSet`] alone maps.
    #[inline]
    fn contains_with(&self, len: usize, elem: impl Fn(usize) -> Elem, limit: usize) -> bool {
        if len != self.arity {
            return false;
        }
        if let Some(present) = self.dense.test(len, &elem) {
            if !present || limit >= self.rows {
                return present;
            }
        }
        self.seen
            .find(store::tuple_hash_iter((0..len).map(&elem)), |r| {
                (0..len).all(|pos| self.at(r, pos) == elem(pos))
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
        let present = match self.dense.test(self.arity, |pos| tuple[pos]) {
            Some(present) => present,
            None => self
                .seen
                .find(hash, |r| store::columns_row_eq(cols, r, tuple))
                .is_some(),
        };
        if present {
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
        if matches!(self.arity, 1 | 2) {
            let refresh = if self.dense.is_on() {
                !self.dense.set(self.arity, |pos| tuple[pos])
            } else {
                self.rows.is_power_of_two()
            };
            if refresh {
                self.dense = DenseBits::build(self.arity, &self.cols, self.rows);
            }
        }
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
                dense: DenseBits::default(),
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

    /// The side of `pred`'s dense membership bits (see the module docs):
    /// every element id below it has a bit, and `None` means the bits are
    /// off, as they always are for arities other than 1 and 2. A
    /// diagnostic: no answer of the index depends on it.
    pub fn dense_side(&self, pred: PredId) -> Option<u64> {
        self.preds
            .get(pred.index())
            .filter(|pi| pi.dense.is_on())
            .map(|pi| 1u64 << pi.dense.shift)
    }

    /// The dense membership bits of a binary predicate, read as bit rows
    /// (see [`BitRows`]); `None` while its bits are off, and for every
    /// other arity. The bits are exact, so a join over the rows decides
    /// membership without touching the columns.
    pub fn bit_rows(&self, pred: PredId) -> Option<BitRows<'_>> {
        self.preds
            .get(pred.index())
            .filter(|pi| pi.arity == 2 && pi.dense.is_on())
            .map(|pi| BitRows {
                words: &pi.dense.words,
                shift: pi.dense.shift,
            })
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
            .is_some_and(|pi| pi.contains_with(args.len(), |pos| args[pos], limit))
    }

    /// [`InstanceIndex::contains`] for the tuple an atom with arguments
    /// `args` reads off `binding`, without materializing it: a unary or
    /// binary probe against dense bits reads two binding slots and one word.
    ///
    /// # Panics
    /// Panics if a variable of `args` is unbound.
    #[inline]
    pub fn contains_bound(&self, pred: PredId, args: &[Var], binding: &[Option<Elem>]) -> bool {
        self.contains_bound_below(pred, args, binding, usize::MAX)
    }

    /// [`InstanceIndex::contains_below`] for the tuple `args` reads off
    /// `binding` (see [`InstanceIndex::contains_bound`]).
    #[inline]
    pub(crate) fn contains_bound_below(
        &self,
        pred: PredId,
        args: &[Var],
        binding: &[Option<Elem>],
        limit: usize,
    ) -> bool {
        let elem = |pos: usize| binding[args[pos].index()].expect("probed variable is bound");
        self.preds
            .get(pred.index())
            .is_some_and(|pi| pi.contains_with(args.len(), elem, limit))
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

/// The dense membership bits of one binary predicate `R` as rows of
/// words: row `a` holds one bit per possible second argument, and bit
/// `b % 64` of its word `b / 64` is set iff `R(a, b)` is indexed. Rows are
/// `side / 64` words long; an id at or beyond the side has an empty row.
/// Copy-cheap (two words).
#[derive(Clone, Copy, Debug)]
pub struct BitRows<'a> {
    words: &'a [u64],
    /// `log2(side)`, at least 6.
    shift: u32,
}

impl<'a> BitRows<'a> {
    /// Every element id below the side has a row, and a bit in each row.
    #[inline]
    pub fn side(&self) -> u64 {
        1 << self.shift
    }

    /// Words per row: `side / 64`.
    #[inline]
    pub fn row_words(&self) -> usize {
        1 << (self.shift - 6)
    }

    /// The bits of `R(a, ·)`; empty when `a` is at or beyond the side.
    #[inline]
    pub fn row(&self, a: Elem) -> &'a [u64] {
        let a = a.0 as usize;
        let n = self.row_words();
        self.words.get(a * n..(a + 1) * n).unwrap_or_default()
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
    fn dense_bits_follow_the_density_rule() {
        let s = Schema::builder().pred("R", 2).pred("P", 1).build();
        let r = s.pred_id("R").unwrap();
        let p = s.pred_id("P").unwrap();
        let mut idx = InstanceIndex::new(&Instance::new(s));
        let edge = |a: u32, b: u32| Fact::new(r, vec![Elem(a), Elem(b)]);
        let unary = |a: u32| Fact::new(p, vec![Elem(a)]);
        // Below 32 rows a unary predicate has no bits, though 64 ≤ 128 · 31.
        idx.extend(&(0..31).map(unary).collect::<Vec<_>>());
        assert_eq!(idx.dense_side(p), None);
        // Its 32nd row reaches the floor: on.
        idx.extend(&[unary(40)]);
        assert_eq!(idx.dense_side(p), Some(64));
        // 31 binary rows under side 64: 4096 bits > 128 · 31, off.
        idx.extend(&(0..31).map(|i| edge(i, i + 1)).collect::<Vec<_>>());
        assert_eq!(idx.dense_side(r), None);
        // The 32nd row is a power of two and 4096 ≤ 128 · 32: on.
        idx.extend(&[edge(40, 0)]);
        assert_eq!(idx.dense_side(r), Some(64));
        // Id 64 needs side 128 (16384 bits) with 33 rows: off again.
        idx.extend(&[edge(0, 64)]);
        assert_eq!(idx.dense_side(r), None);
        // Back on at 128 rows, under side 128.
        idx.extend(&(0..95).map(|i| edge(i, 63)).collect::<Vec<_>>());
        assert_eq!(idx.count(r), 128);
        assert_eq!(idx.dense_side(r), Some(128));
        // A unary predicate grows with its ids while the rule allows it.
        idx.extend(&[unary(100)]);
        assert_eq!(idx.dense_side(p), Some(128));
        idx.extend(&[unary(u32::MAX)]);
        assert_eq!(idx.dense_side(p), None);
        // Answers stay exact on every side of each switch.
        assert!(idx.contains(r, &[Elem(0), Elem(64)]));
        assert!(idx.contains(r, &[Elem(40), Elem(0)]));
        assert!(!idx.contains(r, &[Elem(64), Elem(0)]));
        assert!(!idx.contains(r, &[Elem(0), Elem(u32::MAX)]));
        assert!(idx.contains(p, &[Elem(u32::MAX)]));
        assert!(idx.contains(p, &[Elem(4)]));
        assert!(!idx.contains(p, &[Elem(41)]));
        // Below a watermark the row id decides, even with the bits on.
        assert!(idx.contains_below(r, &[Elem(0), Elem(1)], 1));
        assert!(!idx.contains_below(r, &[Elem(1), Elem(2)], 1));
        let binding = [None, Some(Elem(1)), Some(Elem(0))];
        assert!(idx.contains_bound(r, &[Var(2), Var(1)], &binding));
        assert!(!idx.contains_bound(r, &[Var(1), Var(2)], &binding));
    }

    #[test]
    fn bit_rows_read_the_dense_bits() {
        let s = Schema::builder().pred("R", 2).pred("P", 1).build();
        let r = s.pred_id("R").unwrap();
        let p = s.pred_id("P").unwrap();
        let mut idx = InstanceIndex::new(&Instance::new(s));
        let edges: Vec<Fact> = (0..40)
            .map(|i| Fact::new(r, vec![Elem(i), Elem((i * 7 + 3) % 64)]))
            .collect();
        idx.extend(&edges[..31]);
        assert!(idx.bit_rows(r).is_none(), "off below the row floor");
        idx.extend(&edges[31..]);
        idx.extend(
            &(0..40)
                .map(|i| Fact::new(p, vec![Elem(i)]))
                .collect::<Vec<_>>(),
        );
        assert!(idx.bit_rows(p).is_none(), "unary bits are not rows");
        let rows = idx.bit_rows(r).expect("on at side 64");
        assert_eq!((rows.side(), rows.row_words()), (64, 1));
        for a in 0..64 {
            let row = rows.row(Elem(a));
            for b in 0..64 {
                let bit = row[b as usize >> 6] >> (b & 63) & 1 == 1;
                assert_eq!(bit, idx.contains(r, &[Elem(a), Elem(b)]), "R({a},{b})");
            }
        }
        assert!(rows.row(Elem(64)).is_empty());
        assert!(rows.row(Elem(u32::MAX)).is_empty());
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
