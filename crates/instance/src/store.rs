//! Columnar (struct-of-arrays) tuple storage for relations.
//!
//! A [`Relation`] keeps its tuples in one `Vec<Elem>` **per argument
//! position**: inserting a tuple appends one word to each column, and —
//! the point of the layout — equality and filter checks over one position
//! run over a contiguous `&[Elem]` slice ([`Relation::column`]), which is
//! what the hom-search executor's batched scans and hash-join builds
//! consume. Membership is a [`RowSet`]: one flat open-addressing table of
//! row ids keyed by tuple hash, each candidate verified column-wise, so hash
//! collisions never conflate tuples and a tuple costs no allocation of its
//! own. The hom index and the chase's head-image dedup use the same set.
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
    /// Collision-safe dedup: the row ids, keyed by tuple hash and verified
    /// by column-wise equality on every probe.
    dedup: RowSet,
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
            dedup: RowSet::new(),
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
    /// [`RowSet`] itself takes 16–32 bytes per tuple at its ½ load bound —
    /// and it stays fixed because memory budgets are set against it:
    /// changing it would move the round at which they trip.
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

    /// `true` when `tuple` is present.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn contains(&self, tuple: &[Elem]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        self.dedup
            .find(tuple_hash(tuple), |r| columns_row_eq(&self.cols, r, tuple))
            .is_some()
    }

    /// `true` when the tuple viewed by `row` (possibly of *another*
    /// relation) is present — column-wise, without materializing the tuple.
    /// Rows of a different arity are simply absent.
    pub fn contains_row(&self, row: RowRef<'_>) -> bool {
        if row.len() != self.arity {
            return false;
        }
        let hash = columns_row_hash(&row.rel.cols, row.row);
        self.dedup
            .find(hash, |r| {
                (0..self.arity).all(|pos| self.elem(r, pos) == row.rel.elem(row.row, pos))
            })
            .is_some()
    }

    /// The physical row holding the tuple `elem(0..arity)`, if present:
    /// one hash and one probe, with no tuple materialized. `elem` is asked
    /// only for positions below the relation's arity.
    #[inline]
    pub fn find_row(&self, elem: impl Fn(usize) -> Elem) -> Option<u32> {
        let hash = tuple_hash_iter((0..self.arity).map(&elem));
        self.dedup.find(hash, |r| {
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
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn try_insert(&mut self, tuple: &[Elem]) -> Result<bool, CapacityError> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        let hash = tuple_hash(tuple);
        let cols = &self.cols;
        if self
            .dedup
            .find(hash, |r| columns_row_eq(cols, r, tuple))
            .is_some()
        {
            return Ok(false);
        }
        // Check capacity only after the duplicate probe: membership queries
        // against a full relation must keep answering, not erroring.
        let row = next_row_id(self.rows)?;
        self.dedup.insert(hash, row, |r| columns_row_hash(cols, r));
        for (col, &e) in self.cols.iter_mut().zip(tuple) {
            col.push(e);
        }
        self.rows += 1;
        self.order = OnceLock::new();
        Ok(true)
    }

    /// Removes `tuple`, returning `true` if it was present. The vacated row
    /// is back-filled by the last physical row in every column
    /// (swap-remove), keeping the columns dense; canonical iteration order
    /// is unaffected because it is recomputed from the tuple set.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn remove(&mut self, tuple: &[Elem]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        let cols = &self.cols;
        let Some(row) = self.dedup.remove(
            tuple_hash(tuple),
            |r| columns_row_eq(cols, r, tuple),
            |r| columns_row_hash(cols, r),
        ) else {
            return false;
        };
        // `rows <= MAX_ROWS` is an invariant enforced by `try_insert`, so the
        // conversion cannot truncate; keep it checked anyway so a future
        // violation fails loudly instead of corrupting the dedup map.
        let last = u32::try_from(self.rows - 1).expect("rows bounded by MAX_ROWS");
        for col in &mut self.cols {
            col.swap_remove(row as usize);
        }
        if row != last {
            // The last row moved into the hole; repoint its dedup entry.
            self.dedup
                .repoint(columns_row_hash(&self.cols, row), last, row);
        }
        self.rows -= 1;
        self.order = OnceLock::new();
        true
    }

    /// Drops every physical row at or past `rows` (nothing when the
    /// relation holds no more than `rows`). Rows are appended in insertion
    /// order, so after inserts alone this undoes exactly the inserts made
    /// since the relation held `rows` tuples.
    pub fn truncate(&mut self, rows: usize) {
        if rows >= self.rows {
            return;
        }
        let cols = &self.cols;
        for row in (rows..self.rows).rev() {
            let row = row as u32;
            let removed = self.dedup.remove(
                columns_row_hash(cols, row),
                |r| r == row,
                |r| columns_row_hash(cols, r),
            );
            debug_assert_eq!(removed, Some(row), "every row is in the dedup set");
        }
        for col in &mut self.cols {
            col.truncate(rows);
        }
        self.rows = rows;
        self.order = OnceLock::new();
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
        let order = OnceLock::new();
        if let Some(perm) = self.order.get() {
            let _ = order.set(perm.clone());
        }
        Relation {
            arity: self.arity,
            rows: self.rows,
            cols: self.cols.clone(),
            dedup: self.dedup.clone(),
            order,
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
