//! Positional indexes over instances, accelerating homomorphism search.
//!
//! An [`InstanceIndex`] layers over an instance's own relations: the tuples
//! stay in the [`tgdkit_instance::Relation`] columns (struct-of-arrays, one
//! contiguous `Vec<Elem>` per argument position), and the index keys
//! everything it adds by the relation's physical row ids. Single-position
//! lookups go through hash postings, multi-position lookups through lazily
//! built `JoinTable`s (hash maps keyed by the joint value of a *set* of
//! positions — the build side of the executor's hash joins), and batched
//! filters read whole column slices straight off the relation.
//!
//! Membership is the relation's own [`tgdkit_instance::store::RowSet`],
//! keyed by tuple hash. Unary and binary predicates whose element ids are
//! dense also keep one bit per possible tuple (`DenseBits`), so the chase's
//! dead-trigger probe — almost every body match it offers — is one bit test
//! instead of a hash, a slot read and a column-wise verify.
//!
//! Read-only callers borrow the instance ([`InstanceIndex::new`]); the
//! chase hands its instance over ([`InstanceIndex::owned`]) and grows both
//! through [`InstanceIndex::insert`], so a chased fact is hashed and
//! deduplicated once, by the relation, and the index then only appends its
//! postings and sets a bit. Rows are only ever appended, so the facts added
//! since a [`Instance::watermark`] are the rows at or past it, and
//! [`InstanceIndex::truncate`] takes them out again.
//!
//! Rows are enumerated in physical order — insertion order, not the
//! relation's canonical sorted order — so the order in which searches find
//! homomorphisms follows the order the instance's facts were added.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use tgdkit_instance::store;
use tgdkit_instance::{Elem, Fact, FxBuildHasher, Instance, Relation};
use tgdkit_logic::{PredId, Schema, Var};

/// What the index keeps per predicate beside the relation's own rows:
/// positional postings, dense membership bits and lazy multi-column join
/// tables, all keyed by the relation's physical row ids.
#[derive(Debug, Default)]
struct PredIndex {
    /// Position → element → rows having that element at that position,
    /// ascending (rows are only ever appended).
    postings: Vec<HashMap<Elem, Vec<u32>, FxBuildHasher>>,
    /// Exact membership bits for arity 1 and 2, on while the density rule
    /// holds (see [`DenseBits`]).
    dense: DenseBits,
    /// Lazily built hash-join tables, keyed by the bound-position bitmask
    /// they index. Built on first probe (the executor decides per plan step
    /// whether a hash join pays), shared across concurrent searches, and
    /// invalidated wholesale when the predicate changes.
    tables: RwLock<HashMap<u64, Arc<JoinTable>, FxBuildHasher>>,
}

/// One bit per possible tuple of a unary or binary predicate: bit `a` for
/// `P(a)`, bit `a · side + b` for `R(a, b)`, where `side` is the smallest
/// power of two (at least 64) above every indexed element id. A bit is set
/// iff the tuple is indexed, so a test is exact; an id at or beyond `side`
/// reads as absent.
///
/// The bits are kept only while they cost no more than the row set they
/// shortcut, which holds at least two 8-byte slots per row: `side^arity ≤
/// 128 · rows` bits, i.e. at most 16 bytes per row, and never below 32
/// rows. The floor is where binary bits start anyway (64² bits need 32
/// rows); for unary predicates it keeps the thousands of tiny indexes of a
/// rewrite's entailment checks, a row or two each, on the row set alone,
/// with no build and no allocation. The rule is re-evaluated
/// when the row count reaches a power of two and when an id at or beyond
/// `side` arrives; switching on or resizing rebuilds the bits from the
/// columns in O(rows), which is amortized O(1) per insert. Every threshold
/// of the rule is a power of two, so the bits grown insert by insert are
/// the bits a fresh build over the same rows would choose.
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

    /// The bits for the rows of `rel`, sized by their largest element id,
    /// or off when they would break the density rule or the arity is not 1
    /// or 2.
    fn build(rel: &Relation) -> DenseBits {
        let (arity, rows) = (rel.arity(), rel.len());
        if !matches!(arity, 1 | 2) || rows < Self::MIN_ROWS {
            return DenseBits::default();
        }
        let cols = rel.columns();
        let max_elem = cols.iter().flatten().map(|e| e.0).max().unwrap_or(0);
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
    /// The index over every row of `rel`.
    fn build(rel: &Relation) -> PredIndex {
        let mut postings = vec![HashMap::default(); rel.arity()];
        for (map, col) in postings.iter_mut().zip(rel.columns()) {
            for (row, &e) in (0u32..).zip(col) {
                map.entry(e).or_insert_with(Vec::new).push(row);
            }
        }
        PredIndex {
            postings,
            dense: DenseBits::build(rel),
            tables: RwLock::default(),
        }
    }

    /// `true` when the tuple `elem(0..len)` is in `rel` at a row below
    /// `limit`. Stored tuples are distinct, so the one match decides. With
    /// the dense bits on, a clear bit decides absence and, when `limit`
    /// covers every row, a set bit decides presence; only a probe below a
    /// watermark needs the row id, which the relation's row set maps.
    #[inline]
    fn contains_with(
        &self,
        rel: &Relation,
        len: usize,
        elem: impl Fn(usize) -> Elem,
        limit: usize,
    ) -> bool {
        if len != rel.arity() {
            return false;
        }
        if let Some(present) = self.dense.test(len, &elem) {
            if !present || limit >= rel.len() {
                return present;
            }
        }
        rel.find_row(elem).is_some_and(|r| (r as usize) < limit)
    }

    /// Indexes the last row of `rel`, just appended.
    fn append(&mut self, rel: &Relation) {
        let rows = rel.len();
        let row = (rows - 1) as u32;
        let cols = rel.columns();
        for (map, col) in self.postings.iter_mut().zip(cols) {
            map.entry(col[row as usize])
                .or_insert_with(Vec::new)
                .push(row);
        }
        let arity = rel.arity();
        if matches!(arity, 1 | 2) {
            let refresh = if self.dense.is_on() {
                !self.dense.set(arity, |pos| cols[pos][row as usize])
            } else {
                rows.is_power_of_two()
            };
            if refresh {
                self.dense = DenseBits::build(rel);
            }
        }
        self.drop_tables();
    }

    /// Takes the rows of `rel` at or past `keep` out of the postings
    /// (before the relation drops them).
    fn unindex_tail(&mut self, rel: &Relation, keep: usize) {
        for (map, col) in self.postings.iter_mut().zip(rel.columns()) {
            for (row, e) in col.iter().enumerate().skip(keep).rev() {
                let list = map.get_mut(e).expect("an indexed element has postings");
                let popped = list.pop();
                debug_assert_eq!(popped, Some(row as u32), "postings ascend");
                if list.is_empty() {
                    map.remove(e);
                }
            }
        }
        self.drop_tables();
    }

    /// The predicate changed shape: any cached join table is stale.
    fn drop_tables(&mut self) {
        let tables = self
            .tables
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if !tables.is_empty() {
            tables.clear();
        }
    }

    /// The join table over the positions in `mask` of `rel`, building (and
    /// caching) it on first use. Returns the rows scanned by a fresh build
    /// (0 on a cache hit) alongside the table, for the `build_rows`
    /// telemetry.
    fn join_table(&self, rel: &Relation, mask: u64) -> (Arc<JoinTable>, u64) {
        {
            let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = tables.get(&mask) {
                return (Arc::clone(t), 0);
            }
        }
        let built = Arc::new(JoinTable::build(rel.columns(), rel.len(), mask));
        let mut tables = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have built it between the locks; first build
        // wins so all probers share one table.
        let entry = tables.entry(mask).or_insert_with(|| Arc::clone(&built));
        let fresh = Arc::ptr_eq(entry, &built);
        (Arc::clone(entry), if fresh { rel.len() as u64 } else { 0 })
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

/// A per-predicate, per-position index over an instance's relations.
///
/// The tuples are the relations' own columns; for each argument position
/// the index adds a map from element to the rows having that element at
/// that position. Join-style candidate lookups during homomorphism search
/// then cost a hash lookup instead of a relation scan, equality filters run
/// over contiguous column slices, and multi-position probes hit cached
/// hash-join tables.
///
/// The instance is borrowed ([`InstanceIndex::new`]) or owned
/// ([`InstanceIndex::owned`]); only an owned index is grown in place, and a
/// borrowed one copies its instance on the first insert. Predicates beyond
/// the instance's schema read as empty relations.
#[derive(Debug)]
pub struct InstanceIndex<'a> {
    instance: Cow<'a, Instance>,
    /// One entry per predicate of the instance's schema.
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

impl<'a> InstanceIndex<'a> {
    /// Indexes `instance` in place, borrowing it.
    pub fn new(instance: &'a Instance) -> InstanceIndex<'a> {
        InstanceIndex::build(Cow::Borrowed(instance))
    }

    /// Indexes `instance`, taking it over: the form that grows in place
    /// ([`InstanceIndex::insert`]).
    pub fn owned(instance: Instance) -> InstanceIndex<'static> {
        InstanceIndex::build(Cow::Owned(instance))
    }

    fn build(instance: Cow<'a, Instance>) -> InstanceIndex<'a> {
        let schema = instance.schema();
        let preds = schema
            .preds()
            .map(|pred| PredIndex::build(instance.relation(pred)))
            .collect();
        crate::plan::record_build_rows(instance.fact_count() as u64);
        let fingerprint = schema_fingerprint(schema);
        InstanceIndex {
            instance,
            preds,
            fingerprint,
        }
    }

    /// Indexes `instance` with the facts of `delta` as its tail: the facts
    /// of `I ∖ Δ` take the first rows, and the delta facts present in
    /// `instance` are moved past them, each once. Returns the index and the
    /// watermark below which the rows are `I ∖ Δ` — the shape a chase
    /// round starts from. Facts of `delta` missing from `instance` are
    /// ignored, and the instance's fact set and domain end unchanged.
    pub fn with_tail(
        mut instance: Instance,
        delta: &[Fact],
    ) -> (InstanceIndex<'static>, Vec<usize>) {
        let moved: Vec<&Fact> = delta
            .iter()
            .filter(|fact| instance.remove_fact(fact.pred, &fact.args))
            .collect();
        let marks = instance.watermark();
        let mut index = InstanceIndex::owned(instance);
        for fact in moved {
            index.insert(fact.pred, &fact.args);
        }
        (index, marks)
    }

    /// The indexed instance.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The indexed instance, copied out when it is borrowed.
    pub fn into_instance(self) -> Instance {
        self.instance.into_owned()
    }

    /// Hash of the indexed schema, scoping cached join plans (see
    /// [`crate::plan`]).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The relation of `pred` beside its index entry; `None` beyond the
    /// schema.
    #[inline]
    fn pred(&self, pred: PredId) -> Option<(&Relation, &PredIndex)> {
        let pi = self.preds.get(pred.index())?;
        Some((self.instance.relation(pred), pi))
    }

    /// All tuples of `pred`, in physical row order, as a columnar view.
    /// Predicates beyond the indexed instance's schema (e.g. added to a
    /// shared schema after the instance was built) read as empty relations.
    #[inline]
    pub fn tuples(&self, pred: PredId) -> Tuples<'_> {
        match self.pred(pred) {
            Some((rel, _)) => Tuples {
                cols: rel.columns(),
                arity: rel.arity(),
                rows: rel.len(),
            },
            None => Tuples {
                cols: &[],
                arity: 0,
                rows: 0,
            },
        }
    }

    /// The element at position `pos` of row `row` of `pred`.
    ///
    /// # Panics
    /// Panics if the row or position is out of range for the predicate.
    #[inline]
    pub fn at(&self, pred: PredId, row: u32, pos: usize) -> Elem {
        self.instance.relation(pred).column(pos)[row as usize]
    }

    /// Rows of `pred` having `elem` at `position`, ascending (empty slice if
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
    /// first use and cached until the predicate changes. `None` beyond the
    /// indexed schema. The second component is the number of rows a fresh
    /// build scanned (0 on a cache hit).
    #[inline]
    pub(crate) fn join_table(&self, pred: PredId, mask: u64) -> Option<(Arc<JoinTable>, u64)> {
        self.pred(pred).map(|(rel, pi)| pi.join_table(rel, mask))
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
        self.pred(pred).map_or(0, |(rel, _)| rel.len())
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
        self.pred(pred)
            .filter(|(rel, pi)| rel.arity() == 2 && pi.dense.is_on())
            .map(|(_, pi)| BitRows {
                words: &pi.dense.words,
                shift: pi.dense.shift,
            })
    }

    /// Total number of indexed tuples across all predicates.
    pub fn total_count(&self) -> usize {
        self.instance.fact_count()
    }

    /// `true` if the tuple `args` of `pred` is present.
    pub fn contains(&self, pred: PredId, args: &[Elem]) -> bool {
        self.contains_below(pred, args, usize::MAX)
    }

    /// `true` if the tuple `args` of `pred` is present at a row below
    /// `limit`. With `limit` a semi-naive watermark, that is whether it is
    /// an old fact rather than one appended since.
    pub fn contains_below(&self, pred: PredId, args: &[Elem], limit: usize) -> bool {
        self.pred(pred)
            .is_some_and(|(rel, pi)| pi.contains_with(rel, args.len(), |pos| args[pos], limit))
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
        self.pred(pred)
            .is_some_and(|(rel, pi)| pi.contains_with(rel, args.len(), elem, limit))
    }

    /// Adds the fact `pred(args)` to the instance and the index; returns
    /// `true` when it was new. The relation hashes and deduplicates the
    /// tuple and appends its row; the index then appends the row to its
    /// postings and sets its dense bit. A duplicate that the dense bits
    /// already show is turned away without hashing. A borrowed index
    /// copies its instance first.
    ///
    /// # Panics
    /// As [`Instance::add_tuple`]: on a predicate outside the schema, an
    /// arity mismatch, or a relation at its row-id capacity.
    pub fn insert(&mut self, pred: PredId, args: &[Elem]) -> bool {
        if let Some((rel, pi)) = self.pred(pred) {
            if rel.arity() == args.len() && pi.dense.test(args.len(), |pos| args[pos]) == Some(true)
            {
                return false;
            }
        }
        let instance = self.instance.to_mut();
        if !instance.add_tuple(pred, args) {
            return false;
        }
        self.preds[pred.index()].append(instance.relation(pred));
        true
    }

    /// Inserts every fact of `delta` ([`InstanceIndex::insert`]), in order.
    /// New facts get the next rows of their predicates, so the facts of
    /// `delta` that were new are exactly the rows at or past the
    /// [`Instance::watermark`] read before the call.
    pub fn extend(&mut self, delta: &[Fact]) {
        for fact in delta {
            self.insert(fact.pred, &fact.args);
        }
    }

    /// [`Instance::remove_dom_elem`] on the indexed instance: the domain
    /// is not indexed, so dropping an isolated element leaves the index as
    /// it is.
    pub fn remove_dom_elem(&mut self, e: Elem) -> bool {
        self.instance.to_mut().remove_dom_elem(e)
    }

    /// Drops every row at or past `marks` (a watermark of the indexed
    /// instance) from the instance and the index: after inserts alone, the
    /// state the watermark was read in. The instance's domain is kept, as
    /// [`Instance::truncate`] keeps it. The dense bits of a truncated
    /// predicate are rebuilt from its remaining rows.
    pub fn truncate(&mut self, marks: &[usize]) {
        let instance = self.instance.to_mut();
        let mut cut = Vec::new();
        for (p, (pi, &mark)) in self.preds.iter_mut().zip(marks).enumerate() {
            let rel = instance.relation(PredId(p as u32));
            if mark < rel.len() {
                pi.unindex_tail(rel, mark);
                cut.push(p);
            }
        }
        instance.truncate(marks);
        for p in cut {
            let pi = &mut self.preds[p];
            pi.dense = DenseBits::build(instance.relation(PredId(p as u32)));
        }
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

/// A columnar view of one predicate's tuples: per-position element access
/// plus whole-column slices for batched scans. Copy-cheap (three words).
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
    /// in row order) — the slice chunked equality filters scan.
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
        let mut idx = InstanceIndex::owned(i.clone());
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
    fn rows_follow_the_relation_and_insert_grows_both() {
        let s = Schema::builder().pred("R", 2).pred("Z", 0).build();
        let r = s.pred_id("R").unwrap();
        let z = s.pred_id("Z").unwrap();
        let mut i = Instance::new(s);
        i.add_fact(r, vec![Elem(5), Elem(1)]);
        i.add_fact(r, vec![Elem(0), Elem(2)]);
        // Physical (insertion) order, not the canonical sorted order.
        let borrowed = InstanceIndex::new(&i);
        assert_eq!(borrowed.tuples(r).col(0), &[Elem(5), Elem(0)]);
        assert_eq!(borrowed.postings(r, 0, Elem(0)), &[1]);
        let mut idx = InstanceIndex::owned(i);
        assert!(idx.insert(r, &[Elem(3), Elem(1)]));
        assert!(!idx.insert(r, &[Elem(5), Elem(1)]), "already present");
        assert!(idx.insert(z, &[]));
        assert!(!idx.insert(z, &[]));
        assert_eq!(idx.postings(r, 1, Elem(1)), &[0, 2]);
        assert_eq!(idx.count(z), 1);
        assert!(idx.contains(z, &[]));
        assert_eq!(idx.instance().fact_count(), 4);
        assert!(idx.instance().contains_fact(r, &[Elem(3), Elem(1)]));
    }

    #[test]
    fn truncate_returns_to_the_watermark() {
        let s = Schema::builder().pred("R", 2).pred("P", 1).build();
        let r = s.pred_id("R").unwrap();
        let p = s.pred_id("P").unwrap();
        let mut idx = InstanceIndex::owned(Instance::new(s));
        for a in 0..40 {
            idx.insert(r, &[Elem(a), Elem(a + 1)]);
        }
        let mark = idx.instance().watermark();
        let before = idx.instance().clone();
        for a in 40..70 {
            idx.insert(r, &[Elem(a), Elem(1)]);
            idx.insert(p, &[Elem(a)]);
        }
        let (table, _) = idx.join_table(r, 0b11).unwrap();
        assert_eq!(
            table
                .probe(store::tuple_hash_iter([Elem(50), Elem(1)].into_iter()))
                .len(),
            1
        );
        idx.truncate(&mark);
        assert_eq!(idx.instance().facts().count(), before.fact_count());
        assert_eq!(idx.postings(r, 1, Elem(1)), &[0]);
        assert_eq!(idx.distinct(r, 0), 40);
        assert_eq!(idx.distinct(p, 0), 0);
        assert!(!idx.contains(r, &[Elem(50), Elem(1)]));
        assert!(idx.contains(r, &[Elem(39), Elem(40)]));
        // The dense bits are those of a fresh build over the 40 rows.
        let fresh = InstanceIndex::new(&before);
        assert_eq!(idx.dense_side(r), fresh.dense_side(r));
        assert_eq!(idx.dense_side(p), None);
        let (table, built) = idx.join_table(r, 0b11).unwrap();
        assert_eq!(built, 40, "the join table is rebuilt over what is left");
        assert!(table
            .probe(store::tuple_hash_iter([Elem(50), Elem(1)].into_iter()))
            .is_empty());
        // Truncated rows insert again at the tail.
        assert!(idx.insert(r, &[Elem(50), Elem(1)]));
        assert_eq!(idx.postings(r, 1, Elem(1)), &[0, 40]);
    }

    #[test]
    fn with_tail_moves_the_delta_past_the_watermark() {
        let s = Schema::builder().pred("R", 2).build();
        let r = s.pred_id("R").unwrap();
        let mut i = Instance::new(s);
        for a in 0..5 {
            i.add_fact(r, vec![Elem(a), Elem(a + 1)]);
        }
        let delta = [
            Fact::new(r, vec![Elem(0), Elem(1)]),
            Fact::new(r, vec![Elem(9), Elem(9)]), // absent: ignored
            Fact::new(r, vec![Elem(2), Elem(3)]),
            Fact::new(r, vec![Elem(0), Elem(1)]), // repeated: moved once
        ];
        let (idx, mark) = InstanceIndex::with_tail(i.clone(), &delta);
        assert_eq!(mark, vec![3]);
        assert_eq!(idx.instance(), &i);
        let tail: Vec<Fact> = idx.instance().facts_from(&mark).collect();
        assert_eq!(tail, vec![delta[0].clone(), delta[2].clone()]);
        assert!(idx.contains_below(r, &[Elem(1), Elem(2)], 3));
        assert!(!idx.contains_below(r, &[Elem(0), Elem(1)], 3));
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
        let mut idx = InstanceIndex::owned(i);
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
        let mut idx = InstanceIndex::owned(Instance::new(s));
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
        let mut idx = InstanceIndex::owned(Instance::new(s));
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
