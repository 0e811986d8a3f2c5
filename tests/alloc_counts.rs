//! Allocation counts of the tuple store and the index over it.
//!
//! A relation keeps its tuples in columns and finds them through its dense
//! membership bits or a flat row set, and the hom index adds only postings
//! keyed by the relation's rows, so storing a tuple costs no allocation of
//! its own: what remains is the amortized growth of a few vectors (and, in
//! the index, the per-element postings lists). A per-tuple allocation
//! anywhere on these paths shows here as thousands of extra calls. Where
//! the bits are on, the tests also check that no row set was kept: an
//! insert there is a bit test-and-set, and a regression to hashing every
//! tuple would grow one.
//!
//! The binary installs a counting global allocator, so it holds only these
//! tests. Counts are kept per thread, so the harness's own threads add
//! nothing to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tgdkit::hom::InstanceIndex;
use tgdkit::instance::Relation;
use tgdkit::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// 10,000 distinct binary tuples over 100 × 100 elements.
fn grid() -> Vec<[Elem; 2]> {
    (0..100u32)
        .flat_map(|a| (0..100u32).map(move |b| [Elem(a), Elem(b)]))
        .collect()
}

#[test]
fn relation_inserts_allocate_per_growth_not_per_tuple() {
    let tuples = grid();
    let mut rel = Relation::new(2);
    let (n, ()) = allocations(|| {
        for t in &tuples {
            assert!(rel.insert(t));
        }
    });
    assert_eq!(rel.len(), 10_000);
    assert!(n < 100, "{n} allocations for 10,000 relation inserts");
    // Side 128 holds the 100 × 100 ids: the bits are on from row 128 on,
    // and the row set kept before then is gone.
    assert_eq!(rel.dense_side(), Some(128));
    assert!(!rel.has_row_set(), "the dense inserts kept a row set");
}

#[test]
fn index_build_allocates_per_growth_and_posting_not_per_tuple() {
    let mut schema = Schema::default();
    let e = schema.add_pred("E", 2).expect("fresh predicate");
    let mut inst = Instance::new(schema);
    for t in grid() {
        inst.add_fact(e, t.to_vec());
    }
    // Sort the relation now, so the index build pays only for itself.
    assert_eq!(inst.relation(e).iter().count(), 10_000);
    let (n, index) = allocations(|| InstanceIndex::new(&inst));
    assert_eq!(index.count(e), 10_000);
    assert!(n < 2_500, "{n} allocations to index 10,000 tuples");
}

/// A restricted chase of transitive closure on a 48-node graph: full-tgd
/// firing allocates nothing per added fact — the round's delta is the rows
/// past a watermark, not a list of owned facts — so what remains is
/// amortized growth of the instance, the index postings, the trigger run
/// and the round vectors: about one allocation per four added facts here,
/// most of it the 96 postings lists doubling up to 48 rows each.
#[test]
fn full_tgd_chase_allocates_under_one_buffer_per_three_added_facts() {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").expect("rule parses");
    let e = schema.pred_id("E").expect("E is declared");
    let mut start = Instance::new(schema);
    for u in 0..48u32 {
        start.add_fact(e, vec![Elem(u), Elem((u + 1) % 48)]);
    }
    let budget = ChaseBudget {
        max_facts: 10_000,
        max_rounds: 64,
        max_bytes: usize::MAX,
    };
    let (n, result) = allocations(|| chase(&start, &tgds, ChaseVariant::Restricted, budget));
    assert!(result.terminated());
    let added = result.stats.facts_added as u64;
    assert_eq!(added, 48 * 48 - 48);
    assert!(n < added / 3, "{n} allocations for {added} added facts");
    // The closure's ids stay below side 64, so E's bits are on throughout
    // and no step of the chase asked for a row set.
    let closure = result.instance.relation(e);
    assert_eq!(closure.dense_side(), Some(64));
    assert!(!closure.has_row_set(), "the dense chase kept a row set");
}
