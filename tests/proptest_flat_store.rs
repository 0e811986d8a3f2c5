//! Property-based tests for the columnar tuple store and the join
//! planner/executor: both are pure representation/ordering changes, so each
//! is checked against a straightforward reference model — a `BTreeSet` of
//! owned tuples for the store, and exhaustive assignment enumeration for
//! the hom search. The executor picks join algorithms (containment probe,
//! hash join, indexed nested loop, columnar scan) per plan step, so the
//! search properties are exercised both with nothing bound (scan/nested
//! loop heavy) and with partially pinned bindings over larger relations
//! (hash-join and containment-probe heavy).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use tgdkit::chase_crate::{group_by_body, group_by_body_keyed};
use tgdkit::hom::{for_each_hom_indexed, plan_join, plan_join_cached, Binding, InstanceIndex};
use tgdkit::instance::{Fact, Relation};
use tgdkit::logic::{canonical_tgd_with_key, Atom, PredId, TgdVariantKey};
use tgdkit::prelude::*;

/// Random tuples with heavy repetition, so inserts collide often.
fn random_tuples(seed: u64, arity: usize, count: usize) -> Vec<Vec<Elem>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..arity)
                .map(|_| Elem(rng.random_range(0u32..4)))
                .collect()
        })
        .collect()
}

/// A tuple stream that drives a unary or binary index predicate across its
/// dense-membership rule in both directions. Ids are drawn below a bound
/// that grows with the position `i`: `48 + i/4` (`slow` false) switches a
/// binary predicate's bits on at 32 rows under side 64, off when an id
/// reaches 64, on again at 128 rows, and so on; `48 + i/16` (`slow`) lets
/// them grow from side 64 to 128 while on. With `far`, one element in a
/// hundred is an id in `1000..5000` instead, which a unary predicate absorbs
/// only once it has enough rows; `huge` puts an id near `u32::MAX` at that
/// position.
fn dense_tuples(
    seed: u64,
    arity: usize,
    count: usize,
    slow: bool,
    far: bool,
    huge: Option<usize>,
) -> Vec<Vec<Elem>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pace = if slow { 16 } else { 4 };
    (0..count)
        .map(|i| {
            (0..arity)
                .map(|pos| {
                    if huge == Some(i) && pos + 1 == arity {
                        Elem(u32::MAX - rng.random_range(0u32..2))
                    } else if far && rng.random_bool(0.01) {
                        Elem(rng.random_range(1000u32..5000))
                    } else {
                        Elem(rng.random_range(0..48 + (i / pace) as u32))
                    }
                })
                .collect()
        })
        .collect()
}

/// Every tuple of `arity` over the ids `0..n`, with `n` chosen per arity so
/// the grid covers each dense side the streams reach (one id per bit for
/// arity 1, side 128 squared for arity 2).
fn id_grid(arity: usize) -> Vec<Vec<Elem>> {
    let n = [1u32, 600, 160, 12][arity];
    let mut grid = vec![Vec::new()];
    for _ in 0..arity {
        grid = grid
            .into_iter()
            .flat_map(|t: Vec<Elem>| {
                (0..n).map(move |id| {
                    let mut t = t.clone();
                    t.push(Elem(id));
                    t
                })
            })
            .collect();
    }
    grid
}

/// Checks `index`'s membership answers for predicate `pred` against the
/// reference `rows` (each indexed tuple and its row id): `contains`, the
/// binding probe `contains_bound`, and `contains_below` at watermarks from
/// none to all rows, over every tuple of `probes` and, per probe, variants
/// that swap in ids around the dense sides and near `u32::MAX`, plus a
/// probe of the wrong arity; then `contains` over the whole id grid, where
/// a bit set at a wrong position would show.
fn check_membership(
    index: &InstanceIndex<'_>,
    pred: PredId,
    rows: &HashMap<Vec<Elem>, usize>,
    probes: &[Vec<Elem>],
    grid: &[Vec<Elem>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = rows.len();
    prop_assert_eq!(index.count(pred), n);
    let limits = [0, n / 2, n.saturating_sub(1), n, n + 1, usize::MAX];
    let swaps = [1u32, 63, 64, 127, 128, 255, 256, u32::MAX - 1, u32::MAX];
    let mut variants: Vec<Vec<Elem>> = Vec::new();
    for probe in probes {
        variants.push(probe.clone());
        for &id in &swaps {
            for pos in 0..probe.len() {
                let mut v = probe.clone();
                v[pos] = Elem(id);
                variants.push(v);
            }
        }
    }
    for t in &variants {
        let row = rows.get(t).copied();
        prop_assert_eq!(index.contains(pred, t), row.is_some(), "contains {:?}", t);
        for &limit in &limits {
            prop_assert_eq!(
                index.contains_below(pred, t, limit),
                row.is_some_and(|r| r < limit),
                "contains_below {:?} {}",
                t,
                limit
            );
        }
        // The atom reads the tuple off the binding back to front, around
        // an unbound slot, so the probe reads each argument's own slot.
        let arity = t.len();
        let args: Vec<Var> = (0..arity).map(|pos| Var((arity - pos) as u32)).collect();
        let mut binding: Binding = vec![None; arity + 1];
        for (pos, v) in args.iter().enumerate() {
            binding[v.index()] = Some(t[pos]);
        }
        prop_assert_eq!(
            index.contains_bound(pred, &args, &binding),
            row.is_some(),
            "contains_bound {:?}",
            t
        );
        let mut longer = t.clone();
        longer.push(Elem(0));
        prop_assert!(!index.contains(pred, &longer));
    }
    for t in grid {
        prop_assert_eq!(
            index.contains(pred, t),
            rows.contains_key(t),
            "grid {:?}",
            t
        );
    }
    Ok(())
}

/// `index` answers as an index freshly built over its own instance does,
/// predicate by predicate: counts, distinct counts, postings of every
/// element (as sets), the tuples (as a set), the bit rows, and membership
/// — `contains` and `contains_below(round)` — of every held tuple and of
/// random probes around them.
fn check_coherence(
    index: &InstanceIndex<'_>,
    round: &[usize],
    rng: &mut StdRng,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let instance = index.instance();
    let fresh = InstanceIndex::new(instance);
    prop_assert_eq!(index.total_count(), fresh.total_count());
    for pred in instance.schema().preds() {
        let arity = instance.schema().arity(pred);
        prop_assert_eq!(index.count(pred), fresh.count(pred));
        let set =
            |i: &InstanceIndex<'_>| i.tuples(pred).to_vec().into_iter().collect::<BTreeSet<_>>();
        let tuples = set(index);
        prop_assert_eq!(&tuples, &set(&fresh));
        for pos in 0..arity {
            prop_assert_eq!(index.distinct(pred, pos), fresh.distinct(pred, pos));
            for e in tuples.iter().map(|t| t[pos]) {
                let rows = |i: &InstanceIndex<'_>| {
                    i.postings(pred, pos, e)
                        .iter()
                        .copied()
                        .collect::<BTreeSet<u32>>()
                };
                prop_assert_eq!(rows(index), rows(&fresh));
            }
        }
        match (index.bit_rows(pred), fresh.bit_rows(pred)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.side(), b.side());
                for x in 0..a.side() as u32 {
                    prop_assert_eq!(a.row(Elem(x)), b.row(Elem(x)));
                }
            }
            (a, b) => prop_assert!(
                false,
                "bit rows {:?} vs fresh {:?}",
                a.is_some(),
                b.is_some()
            ),
        }
        prop_assert_eq!(index.dense_side(pred), fresh.dense_side(pred));
        let mut probes: Vec<Vec<Elem>> = tuples.iter().cloned().collect();
        for _ in 0..16 {
            probes.push(
                (0..arity)
                    .map(|_| Elem(rng.random_range(0u32..130)))
                    .collect(),
            );
        }
        let limit = round.get(pred.index()).copied().unwrap_or(0);
        for t in &probes {
            prop_assert_eq!(
                index.contains(pred, t),
                tuples.contains(t),
                "contains {:?}",
                t
            );
            prop_assert_eq!(index.contains(pred, t), fresh.contains(pred, t));
            prop_assert_eq!(
                index.contains_below(pred, t, limit),
                fresh.contains_below(pred, t, limit),
                "contains_below {:?} {}",
                t,
                limit
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The index's membership answers — the dense bits of unary and binary
    /// predicates, the relation's row set behind them and the watermark
    /// probes — match a `BTreeSet` reference over arities 0–3, whether the
    /// index is built at once over an instance ([`InstanceIndex::new`]) or
    /// grown chunk by chunk ([`InstanceIndex::extend`]), while the drawn ids
    /// cross the density rule in both directions. Either way a tuple's row
    /// is its first insertion.
    #[test]
    fn index_membership_matches_btreeset_model(
        seed in 0u64..1000,
        arity_pick in 0usize..6,
        count in 1usize..700,
        slow in 0u8..2,
        far in 0u8..3,
        huge in 0usize..2100,
        chunks in 1usize..6,
    ) {
        // Unary and binary predicates, the ones with dense bits, twice as
        // often as the others.
        let arity = [0, 1, 2, 3, 1, 2][arity_pick];
        let huge = (huge < count).then_some(huge);
        let tuples = dense_tuples(seed, arity, count, slow == 1, far == 0, huge);
        let grid = id_grid(arity);
        let schema = Schema::builder().pred("R", arity).build();
        let r = schema.pred_id("R").unwrap();

        // Grown by `extend`: rows in first-insertion order.
        let mut grown = InstanceIndex::owned(Instance::new(schema.clone()));
        let mut rows: HashMap<Vec<Elem>, usize> = HashMap::new();
        for chunk in tuples.chunks(count.div_ceil(chunks)) {
            let facts: Vec<Fact> = chunk.iter().map(|t| Fact::new(r, t.clone())).collect();
            grown.extend(&facts);
            for t in chunk {
                let next = rows.len();
                rows.entry(t.clone()).or_insert(next);
            }
            check_membership(&grown, r, &rows, &tuples, &grid)?;
        }

        // Built by `new` over the instance: rows are the relation's
        // physical rows, the same first-insertion order.
        let mut inst = Instance::new(schema);
        for t in &tuples {
            inst.add_fact(r, t.clone());
        }
        check_membership(&InstanceIndex::new(&inst), r, &rows, &tuples, &grid)?;
    }

    /// An index grown in place stays coherent with its instance: after
    /// every step of a random interleaving of inserts through the index,
    /// truncations back to the last round boundary and re-tailings of a
    /// random delta ([`InstanceIndex::with_tail`]), it answers `count`,
    /// `distinct`, `contains`, `contains_below` at the round watermark,
    /// `postings`, `tuples` and `bit_rows` exactly as an index freshly built
    /// over the same instance does (postings, tuples and bits compared as
    /// sets). Ids mostly stay below a bound that grows with the step, so
    /// the unary and binary predicates cross the density rule.
    #[test]
    fn grown_index_agrees_with_a_fresh_build(seed in 0u64..1000, steps in 1usize..24) {
        let schema = Schema::builder()
            .pred("Z", 0)
            .pred("P", 1)
            .pred("R", 2)
            .pred("T", 3)
            .build();
        let preds: Vec<PredId> = schema.preds().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut index = InstanceIndex::owned(Instance::new(schema.clone()));
        let mut round = index.instance().watermark();
        for step in 0..steps {
            let bound = 40 + 2 * step as u32;
            let fact = |rng: &mut StdRng| {
                // P and R, the predicates with dense bits, twice as often.
                let pred = preds[[0, 1, 2, 3, 1, 2][rng.random_range(0..6)]];
                let args: Vec<Elem> = (0..schema.arity(pred))
                    .map(|_| match rng.random_range(0u32..400) {
                        0 => Elem(rng.random_range(200u32..300)),
                        _ => Elem(rng.random_range(0..bound)),
                    })
                    .collect();
                Fact::new(pred, args)
            };
            match rng.random_range(0u32..10) {
                0 => {
                    index.truncate(&round);
                    prop_assert_eq!(index.instance().watermark(), round.clone());
                }
                1 => {
                    // Re-tail: some held facts, a repeat and an absent one.
                    let held: Vec<Fact> = index.instance().facts().collect();
                    let mut delta: Vec<Fact> = held
                        .iter()
                        .filter(|_| rng.random_bool(0.3))
                        .cloned()
                        .collect();
                    delta.extend(delta.first().cloned());
                    delta.push(fact(&mut rng));
                    let instance = std::mem::replace(
                        &mut index,
                        InstanceIndex::owned(Instance::new(schema.clone())),
                    )
                    .into_instance();
                    let facts: BTreeSet<Fact> = instance.facts().collect();
                    let moved: BTreeSet<Fact> =
                        delta.iter().filter(|f| facts.contains(f)).cloned().collect();
                    let (tailed, marks) = InstanceIndex::with_tail(instance, &delta);
                    prop_assert_eq!(tailed.instance().facts().collect::<BTreeSet<_>>(), facts);
                    let tail: Vec<Fact> = tailed.instance().facts_from(&marks).collect();
                    prop_assert_eq!(tail.len(), moved.len());
                    prop_assert_eq!(tail.into_iter().collect::<BTreeSet<_>>(), moved);
                    index = tailed;
                    round = marks;
                }
                2 => round = index.instance().watermark(),
                _ => {
                    for _ in 0..rng.random_range(1usize..100) {
                        let f = fact(&mut rng);
                        let new = !index.instance().contains_fact(f.pred, &f.args);
                        prop_assert_eq!(index.insert(f.pred, &f.args), new);
                    }
                }
            }
            check_coherence(&index, &round, &mut rng)?;
        }
    }

    /// A [`Relation`] under a random insert/remove workload is
    /// observationally equivalent to a `BTreeSet<Vec<Elem>>`: same membership
    /// answers, same cardinality, same return values from the mutators, and
    /// — the load-bearing invariant for chase determinism — the same
    /// (lexicographic) iteration order.
    #[test]
    fn relation_matches_btreeset_model(
        seed in 0u64..1000,
        arity in 0usize..4,
        ops in 1usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let tuples = random_tuples(seed, arity, ops);
        let mut rel = Relation::new(arity);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for t in &tuples {
            if rng.random_bool(0.7) {
                prop_assert_eq!(rel.insert(t), model.insert(t.clone()));
            } else {
                prop_assert_eq!(rel.remove(t), model.remove(t));
            }
            prop_assert_eq!(rel.len(), model.len());
            prop_assert_eq!(rel.is_empty(), model.is_empty());
            // Canonical iteration order must match the tree's sorted order.
            let flat: Vec<Vec<Elem>> = rel.iter().map(|t| t.to_vec()).collect();
            let tree: Vec<Vec<Elem>> = model.iter().cloned().collect();
            prop_assert_eq!(flat, tree);
        }
        for t in &tuples {
            prop_assert_eq!(rel.contains(t), model.contains(t));
        }
        // The columns are the positional transpose of the sorted-row view
        // read back in physical order: same multiset per position, and
        // row-consistent under RowRef access.
        for t in rel.iter() {
            prop_assert_eq!(t.len(), arity);
            for pos in 0..arity {
                prop_assert_eq!(t.get(pos), t[pos]);
            }
        }
        let mut col_multiset: Vec<Vec<Elem>> = (0..arity)
            .map(|pos| rel.column(pos).to_vec())
            .collect();
        let mut model_multiset: Vec<Vec<Elem>> = (0..arity)
            .map(|pos| model.iter().map(|t| t[pos]).collect())
            .collect();
        for (a, b) in col_multiset.iter_mut().zip(model_multiset.iter_mut()) {
            a.sort_unstable();
            b.sort_unstable();
        }
        prop_assert_eq!(col_multiset, model_multiset);
        // Subset agrees with the model, and a clone is indistinguishable.
        let clone = rel.clone();
        prop_assert!(rel.is_subset(&clone) && clone.is_subset(&rel));
        prop_assert_eq!(clone.len(), rel.len());
        prop_assert_eq!(
            clone.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
            rel.iter().map(|t| t.to_vec()).collect::<Vec<_>>()
        );
    }

    /// The accountant-facing byte figures of the columnar layout depend only
    /// on the stored tuple *set* — never on insertion order, intermediate
    /// removals, or `Vec` growth history. This is what keeps
    /// `MemoryAccountant` trips and `memory/peak_bytes` deterministic across
    /// checkpoint trip→resume replays (resume re-inserts in sorted order).
    #[test]
    fn heap_accounting_is_construction_order_invariant(
        seed in 0u64..500,
        arity in 0usize..4,
        ops in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
        let tuples = random_tuples(seed, arity, ops);
        let mut rel = Relation::new(arity);
        for t in &tuples {
            if rng.random_bool(0.7) {
                rel.insert(t);
            } else {
                rel.remove(t);
            }
        }
        // Rebuild from the canonical listing, insert-only.
        let mut rebuilt = Relation::new(arity);
        for t in rel.iter().map(|t| t.to_vec()).collect::<Vec<_>>() {
            rebuilt.insert(&t);
        }
        prop_assert_eq!(rebuilt.len(), rel.len());
        prop_assert_eq!(rebuilt.payload_bytes(), rel.payload_bytes());
        prop_assert_eq!(rebuilt.heap_bytes(), rel.heap_bytes());
        // Payload is exactly the logical element count.
        prop_assert_eq!(
            rel.payload_bytes(),
            rel.len() * arity * std::mem::size_of::<Elem>()
        );
    }

    /// `Instance::active_domain` (incrementally occurrence-counted) always
    /// equals the set recomputed from scratch over the current facts, across
    /// interleaved insertions and removals.
    #[test]
    fn active_domain_matches_recomputation(seed in 0u64..1000, ops in 1usize..60) {
        let schema = Schema::builder().pred("Z", 0).pred("P", 1).pred("R", 2).build();
        let preds: Vec<PredId> = schema.preds().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = Instance::new(schema.clone());
        for _ in 0..ops {
            let pred = preds[rng.random_range(0..preds.len())];
            let args: Vec<Elem> = (0..schema.arity(pred))
                .map(|_| Elem(rng.random_range(0u32..5)))
                .collect();
            if rng.random_bool(0.65) {
                inst.add_fact(pred, args);
            } else {
                inst.remove_fact(pred, &args);
            }
            let recomputed: BTreeSet<Elem> =
                inst.facts().flat_map(|f| f.args.clone()).collect();
            prop_assert_eq!(inst.active_domain(), &recomputed);
        }
    }

    /// The planner-steered hom search finds exactly the homomorphisms that
    /// exhaustive assignment enumeration finds — the plan reorders the
    /// search, never its answer — and the answer set is invariant under
    /// syntactic permutation of the conjunction's atoms.
    #[test]
    fn planned_search_matches_exhaustive_reference(
        rule_seed in 0u64..500,
        data_seed in 0u64..500,
        atom_count in 1usize..4,
        facts in 0usize..14,
    ) {
        let schema = Schema::builder().pred("P", 1).pred("R", 2).build();
        let preds: Vec<PredId> = schema.preds().collect();
        let mut rng = StdRng::seed_from_u64(rule_seed);
        // Random conjunction with dense variable indices.
        let raw: Vec<(PredId, Vec<u32>)> = (0..atom_count)
            .map(|_| {
                let pred = preds[rng.random_range(0..preds.len())];
                let args = (0..schema.arity(pred))
                    .map(|_| rng.random_range(0u32..3))
                    .collect();
                (pred, args)
            })
            .collect();
        let mut used: Vec<u32> = raw.iter().flat_map(|(_, a)| a.clone()).collect();
        used.sort_unstable();
        used.dedup();
        let atoms: Vec<Atom<Var>> = raw
            .iter()
            .map(|(pred, args)| {
                Atom::new(
                    *pred,
                    args.iter()
                        .map(|v| Var(used.binary_search(v).unwrap() as u32))
                        .collect(),
                )
            })
            .collect();
        let num_vars = used.len();

        let mut data_rng = StdRng::seed_from_u64(data_seed);
        let mut inst = Instance::new(schema.clone());
        for _ in 0..facts {
            let pred = preds[data_rng.random_range(0..preds.len())];
            let args = (0..schema.arity(pred))
                .map(|_| Elem(data_rng.random_range(0u32..4)))
                .collect();
            inst.add_fact(pred, args);
        }
        let index = InstanceIndex::new(&inst);
        let domain: Vec<Elem> = inst.active_domain().iter().copied().collect();

        let collect = |atoms: &[Atom<Var>]| {
            let fixed: Binding = vec![None; num_vars];
            let mut homs: BTreeSet<Vec<Option<Elem>>> = BTreeSet::new();
            for_each_hom_indexed(atoms, num_vars, &index, &fixed, &mut |b| {
                homs.insert(b.clone());
                ControlFlow::Continue(())
            });
            homs
        };
        let found = collect(&atoms);

        // Exhaustive reference: every assignment of the (dense) variables to
        // active-domain elements that satisfies all atoms.
        let mut expected: BTreeSet<Vec<Option<Elem>>> = BTreeSet::new();
        let mut assignment = vec![0usize; num_vars];
        'assignments: loop {
            if !domain.is_empty() || num_vars == 0 {
                let binding: Vec<Option<Elem>> =
                    assignment.iter().map(|&i| Some(domain[i])).collect();
                let satisfied = atoms.iter().all(|a| {
                    let tuple: Vec<Elem> = a
                        .args
                        .iter()
                        .map(|v| binding[v.index()].unwrap())
                        .collect();
                    inst.contains_fact(a.pred, &tuple)
                });
                if satisfied {
                    expected.insert(binding);
                }
            }
            let mut pos = 0;
            loop {
                if pos == num_vars || domain.is_empty() {
                    break 'assignments;
                }
                assignment[pos] += 1;
                if assignment[pos] < domain.len() {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
        }
        prop_assert_eq!(&found, &expected);

        // Atom order is syntax; the planner must make the answer order-free.
        let mut permuted = atoms.clone();
        permuted.reverse();
        prop_assert_eq!(collect(&permuted), expected);

        // The plan itself is a permutation of the atom indices.
        let plan = plan_join(&atoms, &index, &vec![false; num_vars]);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..atoms.len()).collect::<Vec<_>>());
    }

    /// Every join-algorithm tier of the executor agrees with exhaustive
    /// assignment enumeration. Relations here grow past the hash-join row
    /// threshold and a random subset of variables is pinned up front, so the
    /// executor is pushed through its containment-probe and build/probe
    /// hash-join tiers; the unpinned runs cover indexed nested loop and the
    /// columnar repeated-variable scan. A zero-arity predicate and empty
    /// relations ride along as edge cases. Re-asking the identical query
    /// must hit the cross-run plan cache (same `Arc` plan), stay a valid
    /// permutation, and return the identical answer set.
    #[test]
    fn join_algorithms_agree_with_reference(
        rule_seed in 0u64..400,
        data_seed in 0u64..400,
        atom_count in 1usize..4,
        facts in 0usize..80,
        pin_bits in 0u32..64,
    ) {
        let schema = Schema::builder()
            .pred("Z", 0)
            .pred("P", 1)
            .pred("R", 2)
            .pred("S", 3)
            .build();
        let preds: Vec<PredId> = schema.preds().collect();
        let mut rng = StdRng::seed_from_u64(rule_seed);
        let raw: Vec<(PredId, Vec<u32>)> = (0..atom_count)
            .map(|_| {
                let pred = preds[rng.random_range(0..preds.len())];
                let args = (0..schema.arity(pred))
                    .map(|_| rng.random_range(0u32..4))
                    .collect();
                (pred, args)
            })
            .collect();
        let mut used: Vec<u32> = raw.iter().flat_map(|(_, a)| a.clone()).collect();
        used.sort_unstable();
        used.dedup();
        let atoms: Vec<Atom<Var>> = raw
            .iter()
            .map(|(pred, args)| {
                Atom::new(
                    *pred,
                    args.iter()
                        .map(|v| Var(used.binary_search(v).unwrap() as u32))
                        .collect(),
                )
            })
            .collect();
        let num_vars = used.len();

        let mut data_rng = StdRng::seed_from_u64(data_seed);
        let mut inst = Instance::new(schema.clone());
        for _ in 0..facts {
            let pred = preds[data_rng.random_range(0..preds.len())];
            let args = (0..schema.arity(pred))
                .map(|_| Elem(data_rng.random_range(0u32..4)))
                .collect();
            inst.add_fact(pred, args);
        }
        let index = InstanceIndex::new(&inst);
        let domain: Vec<Elem> = inst.active_domain().iter().copied().collect();

        // Pin a subset of variables to concrete elements — occasionally one
        // outside the active domain, which must simply produce no answers
        // from any atom mentioning it.
        let fixed: Binding = (0..num_vars)
            .map(|v| {
                if pin_bits >> (v % 6) & 1 == 1 {
                    Some(Elem(rng.random_range(0u32..5)))
                } else {
                    None
                }
            })
            .collect();

        let collect = |atoms: &[Atom<Var>]| {
            let mut homs: BTreeSet<Vec<Option<Elem>>> = BTreeSet::new();
            for_each_hom_indexed(atoms, num_vars, &index, &fixed, &mut |b| {
                homs.insert(b.clone());
                ControlFlow::Continue(())
            });
            homs
        };
        let found = collect(&atoms);

        // Exhaustive reference: unpinned variables range over the active
        // domain, pinned ones over their single value.
        let choices: Vec<Vec<Elem>> = fixed
            .iter()
            .map(|b| match b {
                Some(e) => vec![*e],
                None => domain.clone(),
            })
            .collect();
        let mut expected: BTreeSet<Vec<Option<Elem>>> = BTreeSet::new();
        let mut assignment = vec![0usize; num_vars];
        'assignments: loop {
            if choices.iter().all(|c| !c.is_empty()) {
                let binding: Vec<Option<Elem>> = assignment
                    .iter()
                    .zip(&choices)
                    .map(|(&i, c)| Some(c[i]))
                    .collect();
                let satisfied = atoms.iter().all(|a| {
                    let tuple: Vec<Elem> = a
                        .args
                        .iter()
                        .map(|v| binding[v.index()].unwrap())
                        .collect();
                    inst.contains_fact(a.pred, &tuple)
                });
                if satisfied {
                    expected.insert(binding);
                }
            }
            let mut pos = 0;
            loop {
                if pos == num_vars || choices[pos].is_empty() {
                    break 'assignments;
                }
                assignment[pos] += 1;
                if assignment[pos] < choices[pos].len() {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
        }
        prop_assert_eq!(&found, &expected);

        // Atom order is syntax: permuting the conjunction must not change
        // the answer set, whatever mix of algorithms the permuted plan uses.
        let mut permuted = atoms.clone();
        permuted.reverse();
        prop_assert_eq!(collect(&permuted), expected.clone());

        // Identical query again: the cross-run plan cache must hand back the
        // very same plan object, the plan must still be a permutation of the
        // atom indices, and the answers must be unchanged.
        let bound: Vec<bool> = fixed.iter().map(|b| b.is_some()).collect();
        let first = plan_join_cached(&atoms, &index, &bound);
        let second = plan_join_cached(&atoms, &index, &bound);
        prop_assert!(std::sync::Arc::ptr_eq(&first, &second));
        let mut order = first.order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..atoms.len()).collect::<Vec<_>>());
        prop_assert_eq!(collect(&atoms), expected);
    }

    /// Grouping by precomputed enumeration keys ([`group_by_body_keyed`])
    /// yields exactly the groups of the canonicalizing path
    /// ([`group_by_body`]) on the same canonical candidates: same group
    /// count, same member indices, same order.
    #[test]
    fn keyed_grouping_matches_canonicalizing_grouping(seed in 0u64..300) {
        let mut schema = Schema::default();
        let text = "R(x,y) -> T(x). R(x,y) -> T(y). R(x,y) -> exists z : R(y,z). \
                    T(x) -> exists z : R(x,z). R(x,x) -> T(x). T(x) -> T(x).";
        let base = parse_tgds(&mut schema, text).unwrap();
        // A shuffled, duplicated pool of canonical forms.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<(Tgd, TgdVariantKey)> = Vec::new();
        for _ in 0..20 {
            let t = &base[rng.random_range(0..base.len())];
            pool.push(canonical_tgd_with_key(t));
        }
        let candidates: Vec<Tgd> = pool.iter().map(|(t, _)| t.clone()).collect();
        let keys: Vec<TgdVariantKey> = pool.iter().map(|(_, k)| k.clone()).collect();

        let keyed = group_by_body_keyed(&candidates, &keys);
        let plain = group_by_body(&candidates);
        prop_assert_eq!(keyed.len(), plain.len());
        for (g_keyed, g_plain) in keyed.iter().zip(&plain) {
            let a: Vec<usize> = g_keyed.members.iter().map(|(i, _, _)| *i).collect();
            let b: Vec<usize> = g_plain.members.iter().map(|(i, _, _)| *i).collect();
            prop_assert_eq!(a, b);
        }
    }
}

/// The streams of `index_membership_matches_btreeset_model` switch the
/// dense bits on, grow them while on and switch them off again, for unary
/// and binary predicates, so the property cannot pass on inputs that never
/// leave one side of the density rule.
#[test]
fn dense_tuple_streams_cross_the_density_rule() {
    let mut events: BTreeSet<(usize, &str)> = BTreeSet::new();
    for seed in 0..16u64 {
        for arity in [1, 2] {
            let huge = (seed % 4 == 0).then_some(400);
            let tuples = dense_tuples(seed, arity, 699, seed % 3 == 0, seed % 2 == 0, huge);
            let schema = Schema::builder().pred("R", arity).build();
            let r = schema.pred_id("R").unwrap();
            let mut index = InstanceIndex::owned(Instance::new(schema));
            let mut side = None;
            for t in tuples {
                index.extend(&[Fact::new(r, t)]);
                let now = index.dense_side(r);
                match (side, now) {
                    (None, Some(_)) => events.insert((arity, "on")),
                    (Some(_), None) => events.insert((arity, "off")),
                    (Some(a), Some(b)) if b > a => events.insert((arity, "grow")),
                    _ => false,
                };
                side = now;
            }
        }
    }
    for arity in [1, 2] {
        for event in ["on", "grow", "off"] {
            assert!(events.contains(&(arity, event)), "{events:?}");
        }
    }
}
