//! Columnar (struct-of-arrays) tuple storage for relations.
//!
//! A [`Relation`] keeps its tuples in one `Vec<Elem>` **per argument
//! position**: inserting a tuple appends one word to each column, and —
//! the point of the layout — equality and filter checks over one position
//! run over a contiguous `&[Elem]` slice ([`Relation::column`]), which is
//! what the hom-search executor's batched scans and hash-join builds
//! consume.
//!
//! Membership is one of two structures. A unary or binary relation whose
//! element ids are dense keeps one bit per possible tuple (`DenseBits`):
//! an insert is then a bit test-and-set plus the column pushes, with no
//! hash, and a membership probe one word read. Every other relation — and
//! a dense one once a caller asks for a row id — keeps a [`RowSet`]: one
//! flat open-addressing table of row ids keyed by tuple hash, each
//! candidate verified column-wise, so hash collisions never conflate
//! tuples and a tuple costs no allocation of its own. The chase's
//! head-image dedup uses the same set.
//!
//! The canonical (lexicographic) iteration order of a
//! `BTreeSet<Vec<Elem>>` is kept through a lazily computed, cached sort
//! permutation, so every observable enumeration stays byte-identical to the
//! set semantics.
//!
//! Rows no longer exist contiguously in memory, so iteration yields
//! [`RowRef`] views (cheap `(relation, row)` handles with positional
//! accessors) instead of `&[Elem]` slices; [`RowRef::copy_into`] fills a
//! caller-owned scratch buffer for the call sites that need a materialized
//! tuple, so hot paths stay allocation-free.

use crate::instance::Elem;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A hasher for keys that are already well-mixed 64-bit hashes (or small
/// integers we mix ourselves): the default SipHash is measurable overhead on
/// the hom-search hot path, and none of these tables face untrusted input.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // FxHash-style rotate-xor-multiply round.
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// [`BuildHasherDefault`] over [`FxHasher`] — a deterministic, fast hasher
/// for internal tables such as the postings, join tables and caches (no
/// per-process random seed, so debug output and iteration order never
/// depend on table identity).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// FNV-1a over the raw element ids, finalized with a splitmix64 round so
/// that the low bits (used by the hash table) are well distributed. Shared
/// with the hom index's dedup table.
#[inline]
pub fn tuple_hash(tuple: &[Elem]) -> u64 {
    tuple_hash_iter(tuple.iter().copied())
}

/// [`tuple_hash`] over any element sequence (same fold, same finalizer), so
/// columnar storage can hash a row without materializing it first.
#[inline]
pub fn tuple_hash_iter(elems: impl Iterator<Item = Elem>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in elems {
        h ^= e.0 as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 27)
}

/// Maximum number of tuples one [`Relation`] can hold: row ids are `u32`
/// (half the index footprint of a `usize`), so the columns are capped at
/// `u32::MAX` rows. Beyond it, [`Relation::try_insert`] reports a typed
/// [`CapacityError`] — the pre-fix `self.rows as u32` silently truncated,
/// aliasing row `2^32` with row `0` and corrupting the dedup map.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// A relation grew past [`MAX_ROWS`] tuples, the largest row id the
/// `u32`-indexed columns can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Rows already stored when the insert was rejected.
    pub rows: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relation is full: {} rows is the u32 row-id capacity ({MAX_ROWS})",
            self.rows
        )
    }
}

impl std::error::Error for CapacityError {}

/// The row id a tuple appended after `rows` existing rows would get, or a
/// [`CapacityError`] when it would not fit a `u32`. Factored out so the
/// guard is testable without inserting four billion tuples.
#[inline]
pub fn next_row_id(rows: usize) -> Result<u32, CapacityError> {
    if rows >= MAX_ROWS {
        return Err(CapacityError { rows });
    }
    Ok(rows as u32)
}

/// A set of row ids keyed by the hash of the row each one names: the
/// membership table of [`Relation`], of the hom index and of the chase's
/// head-image dedup.
///
/// Open addressing with linear probing over a flat `Vec<u64>`, at most half
/// full. A slot packs the high 32 bits of the row's hash (its *tag*) with
/// `row + 1`; 0 marks an empty slot. The row's data lives with the caller,
/// so the set stores neither the tuple nor its full hash:
///
/// - lookups take the caller's equality test, run on each candidate whose
///   tag matches, so hash collisions never conflate two rows;
/// - growth and deletion, which need a row's home slot, take a closure
///   recomputing the hash of a stored row.
///
/// Deletion shifts the rest of the probe chain back, so there are no
/// tombstones and a lookup always stops at the first empty slot.
#[derive(Clone, Debug, Default)]
pub struct RowSet {
    slots: Vec<u64>,
    /// Rows stored, which [`RowSet::insert`] keeps at most half of `slots`.
    len: usize,
}

impl RowSet {
    /// Smallest non-empty table, in slots.
    const MIN_SLOTS: usize = 8;

    /// Creates an empty set; it allocates on the first insert.
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// The set of the distinct rows `0..rows`, row `r` under `hash(r)`,
    /// in one pass over a table sized for them up front.
    fn build(rows: u32, mut hash: impl FnMut(u32) -> u64) -> RowSet {
        if rows == 0 {
            return RowSet::new();
        }
        let size = (rows as usize * 2).next_power_of_two().max(Self::MIN_SLOTS);
        let mut set = RowSet {
            slots: vec![0; size],
            len: 0,
        };
        for row in 0..rows {
            set.insert(hash(row), row, |_| unreachable!("the table never grows"));
        }
        set
    }

    #[inline]
    fn tag(hash: u64) -> u64 {
        hash & !u64::from(u32::MAX)
    }

    #[inline]
    fn pack(hash: u64, row: u32) -> u64 {
        assert!(row < u32::MAX, "row id {row} does not fit a row set slot");
        Self::tag(hash) | (u64::from(row) + 1)
    }

    #[inline]
    fn row_of(slot: u64) -> u32 {
        (slot as u32) - 1
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    /// Index of the slot holding a row under `hash` that `eq` accepts.
    #[inline]
    fn slot_of(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = Self::tag(hash);
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if Self::tag(slot) == tag && eq(Self::row_of(slot)) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The row stored under `hash` that `eq` accepts, if any. `eq` is asked
    /// only about rows whose hash shares `hash`'s high 32 bits.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.slot_of(hash, eq).map(|i| Self::row_of(self.slots[i]))
    }

    /// Adds `row` under `hash`. The caller has checked (with
    /// [`RowSet::find`]) that the row's data is not in the set yet, and
    /// `rehash` returns the hash of any row already in the set.
    ///
    /// # Panics
    /// Panics if `row == u32::MAX`, which a slot cannot hold.
    pub fn insert(&mut self, hash: u64, row: u32, rehash: impl FnMut(u32) -> u64) {
        let packed = Self::pack(hash, row);
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(rehash);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = packed;
        self.len += 1;
    }

    /// Doubles the table and re-places every row from its recomputed hash.
    fn grow(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let size = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        let mask = size - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let hash = rehash(Self::row_of(slot));
            debug_assert_eq!(Self::tag(hash), Self::tag(slot), "rehash disagrees");
            let mut i = self.home(hash);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Removes the row under `hash` that `eq` accepts and returns it. The
    /// rest of its probe chain shifts back into the gap; `rehash` returns
    /// the hash of any row in the set.
    pub fn remove(
        &mut self,
        hash: u64,
        eq: impl FnMut(u32) -> bool,
        mut rehash: impl FnMut(u32) -> u64,
    ) -> Option<u32> {
        let mut gap = self.slot_of(hash, eq)?;
        let row = Self::row_of(self.slots[gap]);
        let mask = self.slots.len() - 1;
        let mut i = gap;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            // The row at `i` may fill the gap unless its home lies
            // cyclically in `(gap, i]`: moving it before its home would
            // hide it from lookups.
            let home = self.home(rehash(Self::row_of(slot)));
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(gap) & mask) {
                self.slots[gap] = slot;
                gap = i;
            }
        }
        self.slots[gap] = 0;
        self.len -= 1;
        Some(row)
    }

    /// Renumbers row `old`, stored under `hash`, as `new`: a swap-remove
    /// moved its data to another row.
    ///
    /// # Panics
    /// Panics if `old` is not stored under `hash`, or if `new == u32::MAX`.
    pub fn repoint(&mut self, hash: u64, old: u32, new: u32) {
        let i = self
            .slot_of(hash, |r| r == old)
            .expect("repointed row is in the set");
        self.slots[i] = Self::pack(hash, new);
    }

    /// Empties the set, keeping its table allocated.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }
}

/// The hash of row `row` of a struct-of-arrays column set (the value
/// [`tuple_hash`] gives the materialized tuple).
#[inline]
pub fn columns_row_hash(cols: &[Vec<Elem>], row: u32) -> u64 {
    tuple_hash_iter(cols.iter().map(|c| c[row as usize]))
}

/// `true` when row `row` of a struct-of-arrays column set equals `tuple`.
#[inline]
pub fn columns_row_eq(cols: &[Vec<Elem>], row: u32, tuple: &[Elem]) -> bool {
    cols.iter()
        .zip(tuple)
        .all(|(col, &e)| col[row as usize] == e)
}

/// One bit per possible tuple of a unary or binary relation: bit `a` for
/// `P(a)`, bit `a · side + b` for `R(a, b)`, where `side` is the smallest
/// power of two (at least 64) above every stored element id. A bit is set
/// iff the tuple is stored, so a test is exact; an id at or beyond `side`
/// reads as absent.
///
/// The bits are kept only while they cost no more than the row set they
/// replace, which holds at least two 8-byte slots per row: `side^arity ≤
/// 128 · rows` bits, i.e. at most 16 bytes per row, and never below 32
/// rows. The floor is where binary bits start anyway (64² bits need 32
/// rows); for unary relations it keeps the thousands of tiny instances of
/// a rewrite's entailment checks, a row or two each, on the row set alone,
/// with no build and no allocation. The rule is re-evaluated when the row
/// count reaches a power of two, when an id at or beyond `side` arrives
/// and on a truncation; switching on or resizing rebuilds the bits from
/// the columns in O(rows), which is amortized O(1) per insert. Every
/// threshold of the rule is a power of two, so the bits grown insert by
/// insert are the bits a fresh build over the same rows would choose. A
/// removal clears its bit and leaves the rule alone.
#[derive(Clone, Debug, Default)]
struct DenseBits {
    /// `log2(side)`.
    shift: u32,
    /// Empty while the bits are off.
    words: Vec<u64>,
}

impl DenseBits {
    /// `log2` of the smallest side: one 64-bit word per bit row.
    const MIN_SHIFT: u32 = 6;
    /// The density rule: at most this many bits per stored row.
    const MAX_BITS_PER_ROW: u128 = 128;
    /// The density rule: no bits for fewer rows than this.
    const MIN_ROWS: usize = 32;

    /// The bits for the rows of `cols` (one column per position), sized by
    /// their largest element id, or off when they would break the density
    /// rule or the arity is not 1 or 2.
    fn build(cols: &[Vec<Elem>]) -> DenseBits {
        let (arity, rows) = (cols.len(), cols.first().map_or(0, Vec::len));
        if !matches!(arity, 1 | 2) || rows < Self::MIN_ROWS {
            return DenseBits::default();
        }
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
        let covered = (0..rows).all(|row| {
            let bit = dense.bit(arity, |pos| cols[pos][row]);
            bit.map(|i| dense.set(i)).is_some()
        });
        debug_assert!(covered, "the side covers every stored id");
        dense
    }

    #[inline]
    fn is_on(&self) -> bool {
        !self.words.is_empty()
    }

    /// The index of the tuple `elem(0..arity)`'s bit, or `None` when an id
    /// is at or beyond `side`. Only meaningful while the bits are on
    /// (arity 1 or 2).
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

    /// Whether bit `i` is set.
    #[inline]
    fn get(&self, i: u64) -> bool {
        self.words[(i >> 6) as usize] >> (i & 63) & 1 == 1
    }

    #[inline]
    fn set(&mut self, i: u64) {
        self.words[(i >> 6) as usize] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: u64) {
        self.words[(i >> 6) as usize] &= !(1 << (i & 63));
    }

    /// Exact membership while on; `None` while off.
    #[inline]
    fn test(&self, arity: usize, elem: impl Fn(usize) -> Elem) -> Option<bool> {
        if !self.is_on() {
            return None;
        }
        Some(self.bit(arity, elem).is_some_and(|i| self.get(i)))
    }
}

/// The dense membership bits of one binary relation `R` as rows of words:
/// row `a` holds one bit per possible second argument, and bit `b % 64` of
/// its word `b / 64` is set iff `R(a, b)` is stored. Rows are `side / 64`
/// words long; an id at or beyond the side has an empty row. Copy-cheap
/// (two words).
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

/// A single relation stored as struct-of-arrays columns.
///
/// Insertion order is the physical row order; all public iteration goes
/// through the cached canonical permutation so observers see the same
/// lexicographically sorted sequence the original `BTreeSet<Vec<Elem>>`
/// representation produced.
pub struct Relation {
    arity: usize,
    rows: usize,
    /// One column per argument position, each `rows` elements long.
    cols: Vec<Vec<Elem>>,
    /// Exact membership bits for arity 1 and 2, on while the density rule
    /// holds (see `DenseBits`).
    dense: DenseBits,
    /// Collision-safe dedup: the row ids, keyed by tuple hash and verified
    /// by column-wise equality on every probe. Built from the columns in
    /// one pass on first use — a membership test while the bits are off, or
    /// a row-id request ([`Relation::find_row`], [`Relation::remove`], a
    /// [`Relation::contains_below`] under a watermark) — and maintained
    /// from then on; dropped when the bits switch on. So a dense relation
    /// that no caller asks a row id of never hashes a tuple.
    dedup: OnceLock<RowSet>,
    /// Lazily computed sort permutation over rows; reset on every mutation
    /// that changes the tuple set. `OnceLock` keeps `&self` iteration cheap
    /// and the type `Sync`.
    order: OnceLock<Vec<u32>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            rows: 0,
            cols: vec![Vec::new(); arity],
            dense: DenseBits::default(),
            dedup: OnceLock::new(),
            order: OnceLock::new(),
        }
    }

    /// The arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The contiguous column of elements at argument position `pos` (one
    /// entry per row, in physical row order) — the slice batched equality
    /// scans and hash-join builds read.
    ///
    /// # Panics
    /// Panics if `pos >= arity`.
    #[inline]
    pub fn column(&self, pos: usize) -> &[Elem] {
        &self.cols[pos]
    }

    /// Every column, position by position, each `len()` elements long in
    /// physical row order: the storage the hom index reads its rows from.
    #[inline]
    pub fn columns(&self) -> &[Vec<Elem>] {
        &self.cols
    }

    /// Bytes of tuple payload held across all columns (excludes index
    /// overhead). Computed from logical column lengths, not capacities.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.cols
            .iter()
            .map(|c| c.len() * std::mem::size_of::<Elem>())
            .sum()
    }

    /// The memory accountant's deterministic charge for the relation: the
    /// per-column payloads plus one `Vec` header per column, plus a fixed
    /// charge per tuple for the dedup index (36 bytes on 64-bit targets).
    /// That charge is an accounting unit, not a measurement — the
    /// [`RowSet`] takes 16–32 bytes per tuple at its ½ load bound, the
    /// dense bits at most 16 and often none — and it stays fixed because
    /// memory budgets are set against it: changing it would move the round
    /// at which they trip.
    /// Computed from logical sizes, not capacities, so two relations
    /// holding the same tuple set always report the same figure — which is
    /// what lets the accountant trip at the same round on every replay of a
    /// run, and keeps checkpoint resume (which re-inserts tuples in a
    /// different physical order) byte-identical.
    pub fn heap_bytes(&self) -> usize {
        // A hash key, a bucket header and a row id: the unit budgets use.
        let index_entry = std::mem::size_of::<u64>()
            + std::mem::size_of::<Vec<u32>>()
            + std::mem::size_of::<u32>();
        self.payload_bytes()
            + self.cols.len() * std::mem::size_of::<Vec<Elem>>()
            + self.rows * index_entry
    }

    /// The side of the dense membership bits: every element id below it
    /// has a bit, and `None` means the bits are off, as they always are for
    /// arities other than 1 and 2. A diagnostic: no answer of the relation
    /// depends on it.
    pub fn dense_side(&self) -> Option<u64> {
        self.dense.is_on().then(|| 1 << self.dense.shift)
    }

    /// The dense membership bits of a binary relation, read as bit rows
    /// (see [`BitRows`]); `None` while its bits are off, and for every
    /// other arity. The bits are exact, so a join over the rows decides
    /// membership without touching the columns.
    pub fn bit_rows(&self) -> Option<BitRows<'_>> {
        (self.arity == 2 && self.dense.is_on()).then_some(BitRows {
            words: &self.dense.words,
            shift: self.dense.shift,
        })
    }

    /// Whether the relation keeps a [`RowSet`] now: always once it has
    /// answered a membership test with its bits off, or a row-id request.
    /// A diagnostic, for pinning the hash-free insert path in tests.
    pub fn has_row_set(&self) -> bool {
        self.dedup.get().is_some()
    }

    /// The element at physical row `row`, position `pos`.
    #[inline]
    fn elem(&self, row: u32, pos: usize) -> Elem {
        self.cols[pos][row as usize]
    }

    /// A [`RowRef`] view of physical row `r` (insertion order, not
    /// canonical order).
    #[inline]
    fn row(&self, r: u32) -> RowRef<'_> {
        RowRef { rel: self, row: r }
    }

    /// Lexicographic comparison of two physical rows.
    #[inline]
    fn cmp_rows(&self, a: u32, b: u32) -> std::cmp::Ordering {
        for col in &self.cols {
            match col[a as usize].cmp(&col[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// The row set, built from the columns on first use.
    fn row_set(&self) -> &RowSet {
        self.dedup.get_or_init(|| {
            let rows = u32::try_from(self.rows).expect("rows bounded by MAX_ROWS");
            RowSet::build(rows, |r| columns_row_hash(&self.cols, r))
        })
    }

    /// `true` when `tuple` is present.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn contains(&self, tuple: &[Elem]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        self.contains_below(|pos| tuple[pos], usize::MAX)
    }

    /// `true` when the tuple viewed by `row` (possibly of *another*
    /// relation) is present — column-wise, without materializing the tuple.
    /// Rows of a different arity are simply absent.
    pub fn contains_row(&self, row: RowRef<'_>) -> bool {
        row.len() == self.arity && self.contains_below(|pos| row.get(pos), usize::MAX)
    }

    /// `true` when the tuple `elem(0..arity)` is stored at a physical row
    /// below `limit`; with `limit` a watermark, whether it was stored before
    /// the watermark was read. Stored tuples are distinct, so the one match
    /// decides. With the dense bits on, a clear bit decides absence and,
    /// when `limit` covers every row, a set bit decides presence; only a
    /// probe below a watermark needs the row id, which the row set maps.
    #[inline]
    pub fn contains_below(&self, elem: impl Fn(usize) -> Elem, limit: usize) -> bool {
        if let Some(present) = self.dense.test(self.arity, &elem) {
            if !present || limit >= self.rows {
                return present;
            }
        }
        self.find_row(elem).is_some_and(|r| (r as usize) < limit)
    }

    /// The physical row holding the tuple `elem(0..arity)`, if present:
    /// one hash and one probe, with no tuple materialized. `elem` is asked
    /// only for positions below the relation's arity. The first row-id
    /// request of a dense relation builds its row set.
    #[inline]
    pub fn find_row(&self, elem: impl Fn(usize) -> Elem) -> Option<u32> {
        let hash = tuple_hash_iter((0..self.arity).map(&elem));
        self.row_set().find(hash, |r| {
            self.cols
                .iter()
                .enumerate()
                .all(|(pos, col)| col[r as usize] == elem(pos))
        })
    }

    /// Inserts `tuple`, returning `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity, or if the
    /// relation already holds [`MAX_ROWS`] tuples (use [`Relation::try_insert`]
    /// to handle capacity exhaustion as a value instead).
    pub fn insert(&mut self, tuple: &[Elem]) -> bool {
        self.try_insert(tuple)
            .unwrap_or_else(|e| panic!("relation overflow: {e}"))
    }

    /// Inserts `tuple`, returning `Ok(true)` if it was not already present,
    /// `Ok(false)` on a duplicate, and [`CapacityError`] when the relation
    /// already holds [`MAX_ROWS`] tuples — row ids are `u32`, and without
    /// this check `self.rows as u32` would wrap past 2^32 rows, silently
    /// aliasing new tuples with row 0 in the dedup map.
    ///
    /// With the dense bits on and no row set kept, this is a bit
    /// test-and-set plus one push per column: no hash.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn try_insert(&mut self, tuple: &[Elem]) -> Result<bool, CapacityError> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        // The duplicate probe: the tuple's bit while the bits are on (`None`
        // for an id beyond their side, which is absent), else the row set.
        let mut hash = None;
        let bit = if self.dense.is_on() {
            let bit = self.dense.bit(self.arity, |pos| tuple[pos]);
            if bit.is_some_and(|i| self.dense.get(i)) {
                return Ok(false);
            }
            bit
        } else {
            let h = tuple_hash(tuple);
            let cols = &self.cols;
            if self
                .row_set()
                .find(h, |r| columns_row_eq(cols, r, tuple))
                .is_some()
            {
                return Ok(false);
            }
            hash = Some(h);
            None
        };
        // Check capacity only after the duplicate probe: membership queries
        // against a full relation must keep answering, not erroring.
        let row = next_row_id(self.rows)?;
        if let Some(set) = self.dedup.get_mut() {
            let cols = &self.cols;
            let hash = hash.unwrap_or_else(|| tuple_hash(tuple));
            set.insert(hash, row, |r| columns_row_hash(cols, r));
        }
        for (col, &e) in self.cols.iter_mut().zip(tuple) {
            col.push(e);
        }
        self.rows += 1;
        self.order = OnceLock::new();
        match bit {
            Some(i) => self.dense.set(i),
            None if self.dense.is_on() || self.rows.is_power_of_two() => self.refresh_bits(),
            None => {}
        }
        Ok(true)
    }

    /// Re-evaluates the density rule over the stored rows and rebuilds the
    /// bits; bits switching on drop the row set, which they replace.
    fn refresh_bits(&mut self) {
        let was_on = self.dense.is_on();
        self.dense = DenseBits::build(&self.cols);
        if self.dense.is_on() && !was_on {
            self.dedup.take();
        }
    }

    /// Removes `tuple`, returning `true` if it was present. The vacated row
    /// is back-filled by the last physical row in every column
    /// (swap-remove), keeping the columns dense; canonical iteration order
    /// is unaffected because it is recomputed from the tuple set. Removal
    /// renumbers a row, so it builds the row set of a dense relation; it
    /// clears the tuple's bit and leaves the density rule alone.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn remove(&mut self, tuple: &[Elem]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.dense.test(self.arity, |pos| tuple[pos]) == Some(false) {
            return false;
        }
        self.row_set();
        let cols = &self.cols;
        let set = self.dedup.get_mut().expect("the row set was just built");
        let Some(row) = set.remove(
            tuple_hash(tuple),
            |r| columns_row_eq(cols, r, tuple),
            |r| columns_row_hash(cols, r),
        ) else {
            return false;
        };
        if self.dense.is_on() {
            if let Some(i) = self.dense.bit(self.arity, |pos| tuple[pos]) {
                self.dense.clear(i);
            }
        }
        // `rows <= MAX_ROWS` is an invariant enforced by `try_insert`, so the
        // conversion cannot truncate; keep it checked anyway so a future
        // violation fails loudly instead of corrupting the dedup map.
        let last = u32::try_from(self.rows - 1).expect("rows bounded by MAX_ROWS");
        for col in &mut self.cols {
            col.swap_remove(row as usize);
        }
        if row != last {
            // The last row moved into the hole; repoint its dedup entry.
            set.repoint(columns_row_hash(&self.cols, row), last, row);
        }
        self.rows -= 1;
        self.order = OnceLock::new();
        true
    }

    /// Drops every physical row at or past `rows` (nothing when the
    /// relation holds no more than `rows`). Rows are appended in insertion
    /// order, so after inserts alone this undoes exactly the inserts made
    /// since the relation held `rows` tuples. The density rule is
    /// re-evaluated over the rows left, so the bits are those a fresh build
    /// over them would choose.
    pub fn truncate(&mut self, rows: usize) {
        if rows >= self.rows {
            return;
        }
        if let Some(set) = self.dedup.get_mut() {
            let cols = &self.cols;
            for row in (rows..self.rows).rev() {
                let row = row as u32;
                let removed = set.remove(
                    columns_row_hash(cols, row),
                    |r| r == row,
                    |r| columns_row_hash(cols, r),
                );
                debug_assert_eq!(removed, Some(row), "every row is in the dedup set");
            }
        }
        for col in &mut self.cols {
            col.truncate(rows);
        }
        self.rows = rows;
        self.order = OnceLock::new();
        self.refresh_bits();
    }

    /// The canonical (lexicographically sorted) row permutation, computed on
    /// first use after a mutation and cached.
    fn order(&self) -> &[u32] {
        self.order.get_or_init(|| {
            let end = u32::try_from(self.rows).expect("rows bounded by MAX_ROWS");
            let mut perm: Vec<u32> = (0..end).collect();
            if self.arity > 0 {
                perm.sort_unstable_by(|&a, &b| self.cmp_rows(a, b));
            }
            perm
        })
    }

    /// Iterates over tuples in canonical (lexicographic) order — the same
    /// order a `BTreeSet<Vec<Elem>>` would produce — as [`RowRef`] views.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rel: self,
            perm: self.order(),
            next: 0,
        }
    }

    /// Set-inclusion of tuples: every tuple of `self` occurs in `other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.rows <= other.rows && self.iter().all(|t| other.contains_row(t))
    }
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            rows: self.rows,
            cols: self.cols.clone(),
            dense: self.dense.clone(),
            dedup: self.dedup.clone(),
            order: self.order.clone(),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && self.iter().all(|t| other.contains_row(t))
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    /// Renders the sorted tuple set (dedup internals are elided so debug
    /// output stays deterministic and matches the old `BTreeSet` shape).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A borrowed view of one tuple of a columnar [`Relation`]: a cheap
/// `(relation, row)` handle with positional accessors. Comparison operators
/// are lexicographic over the tuple's elements, so sorting and equality
/// behave exactly as they did on `&[Elem]` rows.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    rel: &'a Relation,
    row: u32,
}

impl<'a> RowRef<'a> {
    /// The element at position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> Elem {
        self.rel.elem(self.row, pos)
    }

    /// The tuple's arity.
    #[inline]
    pub fn len(&self) -> usize {
        self.rel.arity
    }

    /// `true` for zero-arity tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rel.arity == 0
    }

    /// Iterates the tuple's elements by value, in position order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Elem> + 'a {
        let rel = self.rel;
        let row = self.row;
        (0..rel.arity).map(move |pos| rel.elem(row, pos))
    }

    /// Materializes the tuple (allocates; prefer [`RowRef::copy_into`] on
    /// hot paths).
    pub fn to_vec(&self) -> Vec<Elem> {
        self.iter().collect()
    }

    /// Copies the tuple into a caller-owned scratch buffer (cleared first),
    /// so repeated materialization reuses one allocation.
    pub fn copy_into(&self, out: &mut Vec<Elem>) {
        out.clear();
        out.extend(self.iter());
    }
}

impl std::ops::Index<usize> for RowRef<'_> {
    type Output = Elem;

    #[inline]
    fn index(&self, pos: usize) -> &Elem {
        &self.rel.cols[pos][self.row as usize]
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RowRef<'_> {}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowRef<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialEq<[Elem]> for RowRef<'_> {
    fn eq(&self, other: &[Elem]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[Elem]> for RowRef<'_> {
    fn eq(&self, other: &&[Elem]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<Elem>> for RowRef<'_> {
    fn eq(&self, other: &Vec<Elem>) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Relation`]'s tuples in canonical order.
pub struct Iter<'a> {
    rel: &'a Relation,
    perm: &'a [u32],
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        let &row = self.perm.get(self.next)?;
        self.next += 1;
        Some(self.rel.row(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.perm.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = RowRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(args: &[u32]) -> Vec<Elem> {
        args.iter().copied().map(Elem).collect()
    }

    #[test]
    fn insert_dedups_and_sorts() {
        let mut r = Relation::new(2);
        assert!(r.insert(&t(&[2, 0])));
        assert!(r.insert(&t(&[0, 2])));
        assert!(!r.insert(&t(&[2, 0])));
        assert_eq!(r.len(), 2);
        let listed: Vec<Vec<Elem>> = r.iter().map(|s| s.to_vec()).collect();
        assert_eq!(listed, vec![t(&[0, 2]), t(&[2, 0])]);
        assert!(r.contains(&t(&[0, 2])));
        assert!(!r.contains(&t(&[2, 2])));
    }

    #[test]
    fn columns_track_positions() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1, 10]));
        r.insert(&t(&[2, 20]));
        r.insert(&t(&[3, 30]));
        assert_eq!(r.column(0), &[Elem(1), Elem(2), Elem(3)]);
        assert_eq!(r.column(1), &[Elem(10), Elem(20), Elem(30)]);
        r.remove(&t(&[1, 10])); // swap-remove backfills from the last row
        assert_eq!(r.column(0), &[Elem(3), Elem(2)]);
        assert_eq!(r.column(1), &[Elem(30), Elem(20)]);
    }

    #[test]
    fn remove_swaps_and_reindexes() {
        let mut r = Relation::new(1);
        for v in 0..5 {
            r.insert(&t(&[v]));
        }
        assert!(r.remove(&t(&[0]))); // not the last physical row: swap path
        assert!(!r.remove(&t(&[0])));
        assert_eq!(r.len(), 4);
        for v in 1..5 {
            assert!(r.contains(&t(&[v])), "lost {v} after swap-remove");
        }
        let listed: Vec<Vec<Elem>> = r.iter().map(|s| s.to_vec()).collect();
        assert_eq!(listed, vec![t(&[1]), t(&[2]), t(&[3]), t(&[4])]);
    }

    #[test]
    fn truncate_drops_the_tail_rows() {
        let mut r = Relation::new(2);
        for v in 0..6 {
            r.insert(&t(&[v, v + 1]));
        }
        assert_eq!(r.find_row(|pos| Elem(4 + pos as u32)), Some(4));
        r.truncate(9);
        assert_eq!(r.len(), 6, "a mark past the end keeps every row");
        r.truncate(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.column(0), &[Elem(0), Elem(1), Elem(2)]);
        assert!(!r.contains(&t(&[4, 5])));
        assert_eq!(r.find_row(|pos| Elem(4 + pos as u32)), None);
        assert!(r.contains(&t(&[2, 3])));
        assert!(r.insert(&t(&[4, 5])), "a dropped tuple inserts again");
        assert_eq!(r.find_row(|pos| Elem(4 + pos as u32)), Some(3));
        let listed: Vec<Vec<Elem>> = r.iter().map(|s| s.to_vec()).collect();
        assert_eq!(listed, vec![t(&[0, 1]), t(&[1, 2]), t(&[2, 3]), t(&[4, 5])]);
    }

    #[test]
    fn zero_arity_holds_at_most_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert!(!r.contains(&[]));
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().count(), 1);
        assert!(r.contains(&[]));
        assert!(r.remove(&[]));
        assert!(r.is_empty());
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Relation::new(2);
        a.insert(&t(&[1, 2]));
        a.insert(&t(&[3, 4]));
        let mut b = Relation::new(2);
        b.insert(&t(&[3, 4]));
        b.insert(&t(&[1, 2]));
        assert_eq!(a, b);
        b.insert(&t(&[5, 6]));
        assert_ne!(a, b);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn contains_row_crosses_relations() {
        let mut a = Relation::new(2);
        a.insert(&t(&[1, 2]));
        a.insert(&t(&[3, 4]));
        let mut b = Relation::new(2);
        b.insert(&t(&[3, 4]));
        let row = b.iter().next().unwrap();
        assert!(a.contains_row(row));
        let mut c = Relation::new(1);
        c.insert(&t(&[3]));
        assert!(!a.contains_row(c.iter().next().unwrap()), "arity mismatch");
    }

    #[test]
    fn row_id_allocation_is_checked_at_capacity() {
        // The guard itself, without materializing 2^32 tuples.
        assert_eq!(next_row_id(0), Ok(0));
        assert_eq!(next_row_id(MAX_ROWS - 1), Ok(u32::MAX - 1));
        let err = next_row_id(MAX_ROWS).unwrap_err();
        assert_eq!(err.rows, MAX_ROWS);
        let err = next_row_id(MAX_ROWS + 7).unwrap_err();
        assert_eq!(err.rows, MAX_ROWS + 7);
        let msg = err.to_string();
        assert!(msg.contains("u32 row-id capacity"), "unhelpful: {msg}");
        // `rows == MAX_ROWS` itself stays addressable by the remove/order
        // paths: the last row id handed out is u32::MAX - 1.
        assert!(u32::try_from(MAX_ROWS).is_ok());
    }

    #[test]
    fn try_insert_reports_duplicates_without_consuming_capacity() {
        let mut r = Relation::new(2);
        assert_eq!(r.try_insert(&t(&[1, 2])), Ok(true));
        assert_eq!(r.try_insert(&t(&[1, 2])), Ok(false));
        assert_eq!(r.try_insert(&t(&[2, 1])), Ok(true));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn clone_preserves_contents_and_bytes() {
        let mut a = Relation::new(3);
        a.insert(&t(&[1, 2, 3]));
        a.iter().count(); // force the order cache
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.payload_bytes(), 12);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn heap_bytes_is_construction_order_invariant() {
        // The accountant-facing figure must depend only on the tuple set,
        // never on insertion order or intermediate removals (checkpoint
        // resume re-inserts in sorted order).
        let mut a = Relation::new(2);
        a.insert(&t(&[1, 2]));
        a.insert(&t(&[3, 4]));
        let mut b = Relation::new(2);
        b.insert(&t(&[9, 9]));
        b.insert(&t(&[3, 4]));
        b.insert(&t(&[1, 2]));
        b.remove(&t(&[9, 9]));
        assert_eq!(a.heap_bytes(), b.heap_bytes());
        assert_eq!(a.payload_bytes(), b.payload_bytes());
        // Budgets are set against this figure: two 8-byte payloads, two
        // column headers and the fixed per-tuple index charge.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(a.heap_bytes(), 2 * 8 + 2 * 24 + 2 * 36);
    }

    #[test]
    fn dense_bits_follow_the_density_rule() {
        let mut r = Relation::new(2);
        let mut p = Relation::new(1);
        // Below 32 rows a unary relation has no bits, though 64 ≤ 128 · 31.
        for a in 0..31 {
            p.insert(&t(&[a]));
        }
        assert_eq!(p.dense_side(), None);
        assert!(p.has_row_set());
        // Its 32nd row reaches the floor: on, and the row set is dropped.
        p.insert(&t(&[40]));
        assert_eq!(p.dense_side(), Some(64));
        assert!(!p.has_row_set());
        // 31 binary rows under side 64: 4096 bits > 128 · 31, off.
        for a in 0..31 {
            r.insert(&t(&[a, a + 1]));
        }
        assert_eq!(r.dense_side(), None);
        // The 32nd row is a power of two and 4096 ≤ 128 · 32: on.
        r.insert(&t(&[40, 0]));
        assert_eq!(r.dense_side(), Some(64));
        assert!(!r.has_row_set());
        // Id 64 needs side 128 (16384 bits) with 33 rows: off again, and
        // the next membership test builds the row set.
        r.insert(&t(&[0, 64]));
        assert_eq!(r.dense_side(), None);
        assert!(r.contains(&t(&[0, 64])));
        assert!(r.has_row_set());
        // Back on at 128 rows, under side 128.
        for a in 0..95 {
            r.insert(&t(&[a, 63]));
        }
        assert_eq!(r.len(), 128);
        assert_eq!(r.dense_side(), Some(128));
        assert!(!r.has_row_set());
        // A unary relation grows with its ids while the rule allows it.
        p.insert(&t(&[100]));
        assert_eq!(p.dense_side(), Some(128));
        p.insert(&t(&[u32::MAX]));
        assert_eq!(p.dense_side(), None);
        // Answers stay exact on every side of each switch.
        assert!(r.contains(&t(&[0, 64])));
        assert!(r.contains(&t(&[40, 0])));
        assert!(!r.contains(&t(&[64, 0])));
        assert!(!r.contains(&t(&[0, u32::MAX])));
        assert!(p.contains(&t(&[u32::MAX])));
        assert!(p.contains(&t(&[4])));
        assert!(!p.contains(&t(&[41])));
        // Below a watermark the row id decides, even with the bits on: the
        // request builds the row set, which inserts then maintain.
        assert!(!r.contains_below(|pos| Elem([1, 2][pos]), 1));
        assert!(r.has_row_set());
        assert!(r.contains_below(|pos| Elem([0, 1][pos]), 1));
        assert!(r.insert(&t(&[7, 7])));
        assert_eq!(r.find_row(|_| Elem(7)), Some(128));
        assert_eq!(r.dense_side(), Some(128));
    }

    #[test]
    fn remove_clears_the_bit_and_truncate_rebuilds_the_bits() {
        let mut r = Relation::new(2);
        for a in 0..40 {
            r.insert(&t(&[a, a + 1]));
        }
        assert_eq!(r.dense_side(), Some(64));
        assert!(r.remove(&t(&[3, 4])));
        assert!(!r.contains(&t(&[3, 4])));
        assert!(!r.remove(&t(&[3, 4])));
        // The rule is left alone by a removal: 31 rows keep their bits.
        for a in 30..39 {
            assert!(r.remove(&t(&[a, a + 1])));
        }
        assert_eq!((r.len(), r.dense_side()), (30, Some(64)));
        assert!(r.insert(&t(&[3, 4])));
        assert!(r.contains(&t(&[3, 4])));
        // A truncation re-evaluates it over the rows left.
        let dropped: Vec<Vec<Elem>> = (20..r.len())
            .map(|row| vec![r.column(0)[row], r.column(1)[row]])
            .collect();
        r.truncate(20);
        assert_eq!((r.len(), r.dense_side()), (20, None));
        assert!(dropped.iter().all(|d| !r.contains(d)));
        assert!(r.iter().all(|kept| r.contains(&kept.to_vec())));
    }

    /// A hash whose tag (high half) is `tag` and whose home bits are `home`.
    fn forced(tag: u32, home: u32) -> u64 {
        (u64::from(tag) << 32) | u64::from(home)
    }

    #[test]
    fn row_set_tells_rows_under_one_hash_apart_by_eq() {
        let h = forced(0xdead_beef, 5);
        let mut set = RowSet::new();
        for row in 0..4 {
            set.insert(h, row, |_| h);
        }
        assert_eq!(set.len, 4);
        for row in 0..4 {
            assert_eq!(set.find(h, |r| r == row), Some(row));
        }
        assert_eq!(set.find(h, |_| false), None);
        assert_eq!(
            set.find(forced(0xdead_bef0, 5), |_| true),
            None,
            "tag differs"
        );
    }

    #[test]
    fn row_set_equal_tags_on_different_homes() {
        let (a, b) = (forced(7, 1), forced(7, 2));
        let mut set = RowSet::new();
        set.insert(a, 10, |_| unreachable!());
        set.insert(b, 20, |_| unreachable!());
        // Same tag, so only `eq` decides which candidate answers.
        assert_eq!(set.find(a, |r| r == 10), Some(10));
        assert_eq!(set.find(b, |r| r == 20), Some(20));
        assert_eq!(set.find(a, |r| r == 20), Some(20), "chain from 1 reaches 2");
        assert_eq!(set.find(b, |r| r == 10), None, "slot 1 is before b's home");
        let rehash = |r: u32| if r == 10 { a } else { b };
        assert_eq!(set.remove(a, |r| r == 10, rehash), Some(10));
        assert_eq!(set.find(b, |r| r == 20), Some(20));
        assert_eq!(set.find(a, |r| r == 10), None);
    }

    #[test]
    fn row_set_remove_shifts_a_chain_back_across_the_table_end() {
        // Eight slots (the first table): rows 0 and 1 share home 6 and sit
        // at 6 and 7, row 2 (home 7) wraps to 0, and row 3 sits at its own
        // home 1.
        let hashes = [forced(1, 6), forced(2, 6), forced(3, 7), forced(4, 1)];
        let rehash = |r: u32| hashes[r as usize];
        let mut set = RowSet::new();
        for (row, &h) in (0..).zip(&hashes) {
            set.insert(h, row, rehash);
        }
        let layout = |set: &RowSet| -> Vec<Option<u32>> {
            let slots = set.slots.iter();
            slots
                .map(|&s| (s != 0).then(|| RowSet::row_of(s)))
                .collect()
        };
        let mut want = vec![None; 8];
        (want[6], want[7], want[0], want[1]) = (Some(0), Some(1), Some(2), Some(3));
        assert_eq!(layout(&set), want);
        assert_eq!(set.remove(hashes[0], |r| r == 0, rehash), Some(0));
        // Row 1 moves home, row 2 back past the end, row 3 stays at home.
        let mut want = vec![None; 8];
        (want[6], want[7], want[1]) = (Some(1), Some(2), Some(3));
        assert_eq!(layout(&set), want);
        for row in 1..4 {
            assert_eq!(set.find(hashes[row as usize], |r| r == row), Some(row));
        }
        assert_eq!(set.remove(hashes[0], |r| r == 0, rehash), None);
        assert_eq!(set.len, 3);
    }

    #[test]
    fn row_set_repoint_renumbers_in_place() {
        let h = forced(9, 3);
        let mut set = RowSet::new();
        set.insert(h, 3, |_| h);
        set.repoint(h, 3, 7);
        assert_eq!(set.find(h, |r| r == 7), Some(7));
        assert_eq!(set.find(h, |r| r == 3), None);
        assert_eq!(set.len, 1);
    }

    #[test]
    fn row_set_growth_keeps_every_row() {
        let hash = |r: u32| tuple_hash(&[Elem(r), Elem(r / 3)]);
        let mut set = RowSet::new();
        for row in 0..1000 {
            assert_eq!(set.find(hash(row), |r| r == row), None);
            set.insert(hash(row), row, hash);
        }
        assert_eq!(set.len, 1000);
        assert!(set.slots.len() >= 2000, "load stays at most 1/2");
        for row in 0..1000 {
            assert_eq!(set.find(hash(row), |r| r == row), Some(row));
        }
        for row in (0..1000).step_by(2) {
            assert_eq!(set.remove(hash(row), |r| r == row, hash), Some(row));
        }
        for row in 0..1000 {
            let found = set.find(hash(row), |r| r == row);
            assert_eq!(found, (row % 2 == 1).then_some(row));
        }
    }

    #[test]
    fn row_set_clear_keeps_capacity() {
        let hash = |r: u32| tuple_hash(&[Elem(r)]);
        let mut set = RowSet::new();
        for row in 0..100 {
            set.insert(hash(row), row, hash);
        }
        let slots = set.slots.len();
        set.clear();
        assert_eq!(set.len, 0);
        assert_eq!(set.slots.len(), slots);
        assert_eq!(set.find(hash(5), |_| true), None);
        set.insert(hash(5), 0, hash);
        assert_eq!(set.find(hash(5), |r| r == 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "does not fit a row set slot")]
    fn row_set_rejects_the_row_id_that_would_spill_into_the_tag() {
        RowSet::new().insert(forced(1, 1), u32::MAX, |_| unreachable!());
    }
}
