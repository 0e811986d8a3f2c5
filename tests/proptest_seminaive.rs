//! Semi-naive search exactness.
//!
//! - Hom level: with the index holding `I ∪ Δ` and `Δ` appended last, the
//!   anchored search over every anchor visits the homomorphisms into
//!   `I ∪ Δ` that are not homomorphisms into `I`, each exactly once. The
//!   reference is the exhaustive enumerator in `support/homs.rs`. Bodies
//!   of two or three atoms repeat predicates and variables, and the fixed
//!   bodies below put an atom before the anchor on each executor branch:
//!   containment probe, hash join, postings nested loop, and scan with and
//!   without a repeated-variable filter.
//! - Chase level: a resumed checkpoint frame whose delta sorts before old
//!   facts, and an incremental fold into a fixpoint, both land on the
//!   uninterrupted chase byte for byte, normalized statistics included.
//!   The chase rests on the delta being the index tail; these are the
//!   runs where the instance order does not give that for free.
//! - Bit-row step: on chain sets `P(x,y), Q(y,z) -> H(x,z)` over dense
//!   graphs, every round runs the chase's bit-row join step; resumed
//!   frames and incremental folds still land on the uninterrupted run.
//!   The step rests on `I ∖ Δ` being closed under the full tgds at every
//!   round start, so that is checked as a property of its own on each way
//!   a round can start: a fresh run, a resumed frame, a fold, and a run
//!   rolled back by a cancellation.

#[path = "support/homs.rs"]
mod homs;

use homs::{all_homs, Binding};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use tgdkit::chase_crate::faults::{FaultPlan, FaultSite};
use tgdkit::chase_crate::{chase_extend_governed, ChaseResult};
use tgdkit::hom::{for_each_hom, for_each_hom_anchored, InstanceIndex};
use tgdkit::instance::Fact;
use tgdkit::logic::Atom;
use tgdkit::prelude::*;

/// `(is R, arguments)`: `R(a0, a1, a2)` or `S(a0, a1)`.
type AtomSpec = (bool, [u32; 3]);

/// Elements in play: `0..ELEMS`.
const ELEMS: u32 = 5;

/// Variables in play: `0..VARS`.
const VARS: usize = 4;

/// Bodies whose first atom, searched with the second as the anchor, runs
/// on one executor branch each (old `R` has at least 16 rows, so two bound
/// positions make a hash join), plus a three-atom body.
const BRANCH_BODIES: &[&[AtomSpec]] = &[
    // R(x,y,z) with x, y bound: hash join.
    &[(true, [0, 1, 2]), (false, [0, 1, 0])],
    // S(x,y) with both bound: containment probe.
    &[(false, [0, 1, 0]), (true, [0, 1, 2])],
    // S(x,y) with y bound: nested loop over postings.
    &[(false, [0, 1, 0]), (false, [1, 2, 0])],
    // S(x,y) with nothing bound: scan.
    &[(false, [0, 1, 0]), (false, [2, 3, 0])],
    // R(z,w,z) with nothing bound: scan filtered on the repeated variable.
    &[(true, [2, 3, 2]), (false, [0, 1, 0])],
    &[(true, [0, 1, 2]), (true, [2, 1, 3]), (false, [3, 0, 0])],
];

/// The case generator: splitmix64 over the proptest seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % u64::from(n)) as u32
    }

    fn spec(&mut self, is_r: bool, values: u32) -> AtomSpec {
        (is_r, [0; 3].map(|_| self.below(values)))
    }

    /// Half the cases take a branch body, half a random one.
    fn body(&mut self) -> Vec<AtomSpec> {
        if self.below(2) == 0 {
            return BRANCH_BODIES[self.below(BRANCH_BODIES.len() as u32) as usize].to_vec();
        }
        let len = 2 + self.below(2);
        (0..len)
            .map(|_| {
                let is_r = self.below(2) == 0;
                self.spec(is_r, VARS as u32)
            })
            .collect()
    }

    /// `lo..hi` facts, each an `R` fact with probability `r_in_8 / 8`.
    fn facts(&mut self, lo: u32, hi: u32, r_in_8: u32) -> Vec<AtomSpec> {
        let len = lo + self.below(hi - lo);
        (0..len)
            .map(|_| {
                let is_r = self.below(8) < r_in_8;
                self.spec(is_r, ELEMS)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn anchored_search_visits_each_new_hom_once(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let body = gen.body();
        let mut old_specs = gen.facts(24, 48, 8);
        old_specs.extend(gen.facts(4, 24, 2));
        let delta_specs = gen.facts(1, 16, 4);

        let schema = Schema::builder().pred("R", 3).pred("S", 2).build();
        let r = schema.pred_id("R").unwrap();
        let s = schema.pred_id("S").unwrap();
        let pred = |is_r: bool| if is_r { (r, 3) } else { (s, 2) };
        let fact = |(is_r, args): AtomSpec| {
            let (p, arity) = pred(is_r);
            Fact::new(p, args[..arity].iter().map(|&e| Elem(e)).collect())
        };
        let mut instance = Instance::new(schema.clone());
        for f in old_specs.into_iter().map(fact) {
            instance.add_fact(f.pred, f.args);
        }
        let old_facts: BTreeSet<Fact> = instance.facts().collect();
        let mut all_facts = old_facts.clone();
        let delta: Vec<Fact> = delta_specs
            .into_iter()
            .map(fact)
            .filter(|f| all_facts.insert(f.clone()))
            .collect();

        let mut index = InstanceIndex::owned(instance);
        let old = index.instance().watermark();
        index.extend(&delta);

        let atoms: Vec<Atom<Var>> = body
            .iter()
            .map(|&(is_r, vars)| {
                let (p, arity) = pred(is_r);
                Atom::new(p, vars[..arity].iter().map(|&v| Var(v)).collect())
            })
            .collect();
        let mut visited: Vec<Binding> = Vec::new();
        for anchor in 0..atoms.len() {
            let flow = for_each_hom_anchored(
                &atoms,
                VARS,
                &index,
                anchor,
                &old,
                &mut |b| {
                    visited.push(b.clone());
                    ControlFlow::Continue(())
                },
            );
            prop_assert!(flow.is_continue());
        }
        visited.sort();
        let expected: Vec<Binding> = all_homs(&atoms, VARS, &all_facts)
            .difference(&all_homs(&atoms, VARS, &old_facts))
            .cloned()
            .collect();
        prop_assert_eq!(visited, expected);
    }
}

const BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 4_000,
    max_rounds: 32,
    max_bytes: usize::MAX,
};

fn assert_same_run(got: &ChaseResult, want: &ChaseResult) {
    assert_eq!(
        format!("{:?}", got.instance),
        format!("{:?}", want.instance)
    );
    assert_eq!(got.nulls, want.nulls);
    assert_eq!(got.rounds, want.rounds);
    assert_eq!(got.outcome, want.outcome);
    assert_eq!(got.stats.normalized(), want.stats.normalized());
}

/// With `a, b, c` numbered in that order, round one derives `P(a,b)`,
/// which sorts before the old `P(c,a)`. Round two needs `P(c,a)` before
/// the anchor `P(a,b)`, and no other match derives `Q(c,b)`: if the
/// resume indexed the decoded instance in its own order, the old-fact
/// watermark would cut `P(c,a)` off and lose it.
#[test]
fn resumed_frame_with_delta_sorting_first_matches_uninterrupted() {
    let mut schema = Schema::default();
    let tgds = parse_tgds(
        &mut schema,
        "R(x,y) -> P(x,y). P(x,y), P(y,z) -> Q(x,z). Q(x,y) -> exists w : F(y,w).",
    )
    .unwrap();
    let start = parse_instance(&mut schema, "R(a,b), P(c,a)").unwrap();
    let full = chase(&start, &tgds, ChaseVariant::Restricted, BUDGET);
    assert!(full.terminated());
    assert_eq!(full.nulls.len(), 1);
    let (_, cp) = chase_checkpointing(
        &start,
        &tgds,
        ChaseVariant::Restricted,
        ChaseBudget {
            max_rounds: 1,
            ..BUDGET
        },
        &CancelToken::new(),
    );
    let cp = cp.expect("a round-budget trip is resumable");
    let p = schema.pred_id("P").unwrap();
    let [a, b, c] = ["a", "b", "c"].map(|n| start.elem_by_name(n).unwrap());
    assert!(cp.instance().contains_fact(p, &[a, b]));
    assert!(Fact::new(p, vec![a, b]) < Fact::new(p, vec![c, a]));

    let decoded = ChaseCheckpoint::decode(&cp.encode(), &schema).expect("the frame decodes");
    let (resumed, next) = chase_resume(&decoded, &tgds, BUDGET, &CancelToken::new()).unwrap();
    assert!(next.is_none());
    assert_same_run(&resumed, &full);
}

/// Folding `P(a,a)` into the fixpoint of `P(a,b), P(c,a)`: the batch fact
/// sorts first, and `Q(c,a)` needs the old `P(c,a)` before the anchor.
/// The fold must equal chasing base ∪ batch from scratch, statistics
/// included (the resume's index build is not an index extend).
#[test]
fn extend_fold_with_batch_sorting_first_matches_from_scratch() {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "P(x,y), P(y,z) -> Q(x,z).").unwrap();
    let start = parse_instance(&mut schema, "P(a,b), P(c,a)").unwrap();
    let base = chase(&start, &tgds, ChaseVariant::Restricted, BUDGET);
    assert!(base.terminated());
    let p = schema.pred_id("P").unwrap();
    let a = start.elem_by_name("a").unwrap();
    let batch = [Fact::new(p, vec![a, a])];
    assert!(base.instance.facts().all(|o| o.pred != p || batch[0] < o));

    let (folded, next) = chase_extend_governed(
        &base.instance,
        &base.nulls,
        &batch,
        &tgds,
        ChaseVariant::Restricted,
        BUDGET,
        &CancelToken::new(),
    );
    assert!(next.is_none());
    let mut union = base.instance.clone();
    union.add_fact(p, vec![a, a]);
    let scratch = chase(&union, &tgds, ChaseVariant::Restricted, BUDGET);
    assert_same_run(&folded, &scratch);
}

/// Room for the closure of both predicates over 63 nodes.
const CHAIN_BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 10_000,
    ..BUDGET
};

/// Chain sets over the binary `E` and `F`, in both body orders; every tgd
/// is of the shape the bit-row step joins.
const CHAIN_SETS: &[&str] = &[
    "E(x,y), E(y,z) -> E(x,z).",
    "E(x,y), F(y,z) -> F(x,z). F(y,z), E(x,y) -> E(x,z).",
    "E(x,y), E(y,z) -> F(x,z). F(x,y), E(y,z) -> E(x,z).",
    "F(y,z), F(x,y) -> E(x,z). E(x,y), E(y,z) -> E(x,z).",
];

/// A chain set and a start graph on which the step runs in every round:
/// 32 to 63 nodes (so every id is below 64) and at least 32 `E` and 32
/// `F` edges, which switches both predicates' dense bits on at side 64.
/// Full tgds invent no ids, so they stay on.
struct ChainCase {
    schema: Schema,
    tgds: Vec<Tgd>,
    start: Instance,
    nodes: u32,
}

impl ChainCase {
    fn new(gen: &mut Gen) -> ChainCase {
        let mut schema = Schema::builder().pred("E", 2).pred("F", 2).build();
        let rules = CHAIN_SETS[gen.below(CHAIN_SETS.len() as u32) as usize];
        let tgds = parse_tgds(&mut schema, rules).unwrap();
        let nodes = 32 + gen.below(32);
        let mut start = Instance::new(schema.clone());
        for pred in schema.preds() {
            while start.relation(pred).len() < 32 + gen.below(16) as usize {
                let edge = gen.edge(nodes);
                start.add_fact(pred, edge.to_vec());
            }
        }
        ChainCase {
            schema,
            tgds,
            start,
            nodes,
        }
    }

    /// `true` when the chase's index at a round start (`old` first, then
    /// `delta`) keeps dense bits for both predicates: the step then joins
    /// every tgd of the set.
    fn on_the_step(&self, old: &Instance, delta: &[Fact]) -> bool {
        let mut index = InstanceIndex::owned(old.clone());
        index.extend(delta);
        self.schema.preds().all(|p| index.bit_rows(p).is_some())
    }
}

impl Gen {
    fn edge(&mut self, nodes: u32) -> [Elem; 2] {
        [0; 2].map(|_| Elem(self.below(nodes)))
    }
}

/// `instance` without the facts of `delta`.
fn without(instance: &Instance, delta: &[Fact]) -> Instance {
    let mut old = instance.clone();
    for fact in delta {
        old.remove_fact(fact.pred, &fact.args);
    }
    old
}

/// `true` when `I ∖ Δ` is closed under the full tgds of `tgds`: every body
/// match into the old facts has its head facts in `I`. Before round one
/// (no delta) there are no old facts to speak of.
fn old_facts_closed(instance: &Instance, delta: Option<&[Fact]>, tgds: &[Tgd]) -> bool {
    let Some(delta) = delta else {
        return true;
    };
    let old = without(instance, delta);
    tgds.iter().filter(|t| t.is_full()).all(|tgd| {
        let mut closed = true;
        let fixed = vec![None; tgd.var_count()];
        for_each_hom(tgd.body(), tgd.var_count(), &old, &fixed, &mut |b| {
            closed = tgd.head().iter().all(|atom| {
                let args: Vec<Elem> = atom.args.iter().map(|v| b[v.index()].unwrap()).collect();
                instance.contains_fact(atom.pred, &args)
            });
            if closed {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        closed
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A frame tripped after `trip` rounds of a chain set resumes on the
    /// bit-row step and lands on the uninterrupted run.
    #[test]
    fn resumed_frame_on_the_bit_row_step_matches_uninterrupted(
        seed in 0u64..u64::MAX,
        trip in 1usize..6,
    ) {
        let case = ChainCase::new(&mut Gen(seed));
        let full = chase(&case.start, &case.tgds, ChaseVariant::Restricted, CHAIN_BUDGET);
        prop_assert!(full.terminated());
        let budget = ChaseBudget { max_rounds: trip, ..CHAIN_BUDGET };
        let token = CancelToken::new();
        let (_, cp) =
            chase_checkpointing(&case.start, &case.tgds, ChaseVariant::Restricted, budget, &token);
        let Some(cp) = cp else {
            return Ok(());
        };
        let delta = cp.delta().expect("a round ran");
        prop_assert!(case.on_the_step(&without(cp.instance(), delta), delta));
        let decoded = ChaseCheckpoint::decode(&cp.encode(), &case.schema).unwrap();
        let (resumed, next) = chase_resume(&decoded, &case.tgds, CHAIN_BUDGET, &token).unwrap();
        prop_assert!(next.is_none());
        assert_same_run(&resumed, &full);
    }

    /// Folding a few new edges into a chain set's fixpoint runs on the
    /// bit-row step and equals chasing the union from scratch.
    #[test]
    fn extend_fold_on_the_bit_row_step_matches_from_scratch(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let case = ChainCase::new(&mut gen);
        let base = chase(&case.start, &case.tgds, ChaseVariant::Restricted, CHAIN_BUDGET);
        prop_assert!(base.terminated());
        let preds: Vec<_> = case.schema.preds().collect();
        let batch: Vec<Fact> = (0..1 + gen.below(6))
            .map(|_| {
                let pred = preds[gen.below(2) as usize];
                Fact::new(pred, gen.edge(case.nodes).to_vec())
            })
            .collect();
        let mut union = base.instance.clone();
        let mut fresh = Vec::new();
        for fact in &batch {
            if union.add_fact(fact.pred, fact.args.clone()) {
                fresh.push(fact.clone());
            }
        }
        if fresh.is_empty() {
            // Nothing to fold: the fold returns the base without a round.
            return Ok(());
        }
        prop_assert!(case.on_the_step(&base.instance, &fresh));
        let (folded, next) = chase_extend_governed(
            &base.instance,
            &base.nulls,
            &batch,
            &case.tgds,
            ChaseVariant::Restricted,
            CHAIN_BUDGET,
            &CancelToken::new(),
        );
        prop_assert!(next.is_none());
        let scratch = chase(&union, &case.tgds, ChaseVariant::Restricted, CHAIN_BUDGET);
        assert_same_run(&folded, &scratch);
    }

    /// `I ∖ Δ` is closed under the full tgds at the round start each
    /// checkpoint captures, on all four ways a round can start: after
    /// round `trip` of a fresh run, after a resumed frame runs one more
    /// round, after `trip` rounds of a fold, and where a cancellation
    /// (an injected deadline expiry, in the search or mid-apply) rolled a
    /// run back.
    #[test]
    fn old_facts_are_closed_at_every_round_start(
        seed in 0u64..u64::MAX,
        trip in 1usize..5,
        period in 2u64..40,
    ) {
        let mut gen = Gen(seed);
        let case = ChainCase::new(&mut gen);
        let tgds = &case.tgds;
        let variant = ChaseVariant::Restricted;
        let rounds = |n: usize| ChaseBudget { max_rounds: n, ..CHAIN_BUDGET };
        let token = CancelToken::new();
        let mut frames = Vec::new();

        let (_, fresh) = chase_checkpointing(&case.start, tgds, variant, rounds(trip), &token);
        if let Some(cp) = fresh {
            let (_, resumed) = chase_resume(&cp, tgds, rounds(trip + 1), &token).unwrap();
            frames.extend(resumed);
            frames.push(cp);
        }

        let base = chase(&case.start, tgds, variant, CHAIN_BUDGET);
        let e = case.schema.pred_id("E").unwrap();
        let batch: Vec<Fact> =
            (0..4).map(|_| Fact::new(e, gen.edge(case.nodes).to_vec())).collect();
        let (_, folded) = chase_extend_governed(
            &base.instance, &base.nulls, &batch, tgds, variant, rounds(trip), &token,
        );
        frames.extend(folded);

        let cancelling = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::DeadlineExpire, period));
        let (cancelled, rolled_back) =
            chase_checkpointing(&case.start, tgds, variant, CHAIN_BUDGET, &cancelling);
        if cancelled.cancelled() {
            frames.extend(rolled_back);
        }

        for cp in &frames {
            prop_assert!(old_facts_closed(cp.instance(), cp.delta(), tgds));
        }
    }
}
