//! Instance bookkeeping against a naive model.
//!
//! An `Instance` keeps its domain, its active domain and the occurrence
//! counts behind it incrementally, and touches the two ordered sets only
//! when an element's count goes from 0 to 1. That rests on `adom ⊆ dom`
//! holding after every operation. Here random sequences of every operation
//! that adds, removes or rebuilds facts or domain elements run beside a
//! model that keeps the fact set and the domain as plain sets. Truncation
//! to a watermark is one of them: back to a watermark read before a run of
//! inserts it restores the fact set of that moment, and to any other
//! watermark it drops exactly the facts the rows past it hold. After every
//! step:
//!
//! - the active domain is exactly the elements of the facts;
//! - the domain is the model's domain, and contains the active domain;
//! - `fresh_elem` is one past the model's largest domain element.
//!
//! `Debug` prints the occurrence counts in element order, so two instances
//! holding the same facts print the same whatever order the facts came in.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use tgdkit::instance::Fact;
use tgdkit::logic::PredId;
use tgdkit::prelude::*;

/// Element ids are drawn below this, so operations collide often.
const UNIVERSE: u64 = 12;

fn schema() -> Schema {
    Schema::builder()
        .pred("R", 2)
        .pred("T", 1)
        .pred("S", 3)
        .build()
}

/// The model: the fact set and the domain as plain sets, and the last
/// watermark read with the fact set of that moment, kept while only
/// inserts follow it.
#[derive(Default)]
struct Model {
    facts: BTreeSet<Fact>,
    dom: BTreeSet<Elem>,
    mark: Option<(Vec<usize>, BTreeSet<Fact>)>,
}

impl Model {
    fn active(&self) -> BTreeSet<Elem> {
        self.facts
            .iter()
            .flat_map(|f| f.args.iter().copied())
            .collect()
    }
}

/// Reads `n` element ids off `code`, four bits each (mod [`UNIVERSE`]).
fn elems(code: u64, n: usize) -> Vec<Elem> {
    (0..n)
        .map(|i| Elem(((code >> (4 * i)) % UNIVERSE) as u32))
        .collect()
}

/// The fact `code` encodes over `s`: a predicate and its arguments.
fn fact_of(s: &Schema, code: u64) -> Fact {
    let preds: Vec<PredId> = s.preds().collect();
    let pred = preds[(code % preds.len() as u64) as usize];
    Fact::new(pred, elems(code >> 8, s.arity(pred)))
}

/// Applies the operation `op` encodes to `inst` and to `model`, checking
/// each return value against the model.
fn step(inst: &mut Instance, model: &mut Model, op: u64) -> Result<(), TestCaseError> {
    let s = inst.schema().clone();
    let code = op >> 4;
    // Removals and rebuilds move rows: a watermark read before them no
    // longer marks where the later inserts begin.
    if matches!(op % 11, 3 | 6 | 7) {
        model.mark = None;
    }
    match op % 11 {
        kind @ 0..=2 => {
            let fact = fact_of(&s, code);
            let want = !model.facts.contains(&fact);
            let got = match kind {
                0 => inst.add_fact(fact.pred, fact.args.clone()),
                1 => inst.add_tuple(fact.pred, &fact.args),
                _ => inst
                    .try_add_fact(fact.pred, fact.args.clone())
                    .expect("far below capacity"),
            };
            prop_assert_eq!(got, want);
            model.dom.extend(fact.args.iter().copied());
            model.facts.insert(fact);
        }
        3 => {
            // Mostly facts the model holds, so removals take effect.
            let fact = match model.facts.iter().nth(code as usize % 4) {
                Some(held) if !code.is_multiple_of(3) => held.clone(),
                _ => fact_of(&s, code),
            };
            let got = inst.remove_fact(fact.pred, &fact.args);
            prop_assert_eq!(got, model.facts.remove(&fact));
        }
        4 => {
            let e = elems(code, 1)[0];
            inst.add_dom_elem(e);
            model.dom.insert(e);
        }
        5 => {
            inst.shrink_dom_to_active();
            model.dom = model.active();
        }
        6 => {
            // Keep each universe element with its bit of `code` set.
            let d: BTreeSet<Elem> = (0..UNIVERSE as u32)
                .filter(|i| code >> i & 1 == 1)
                .map(Elem)
                .collect();
            *inst = inst.restrict(&d);
            model.dom = model.dom.intersection(&d).copied().collect();
            let dom = &model.dom;
            model
                .facts
                .retain(|f| f.args.iter().all(|e| dom.contains(e)));
        }
        8 => model.mark = Some((inst.watermark(), model.facts.clone())),
        10 => {
            let e = elems(code, 1)[0];
            let isolated = model.dom.contains(&e) && !model.active().contains(&e);
            prop_assert_eq!(inst.remove_dom_elem(e), isolated);
            if isolated {
                model.dom.remove(&e);
            }
        }
        9 => match model.mark.take() {
            Some((marks, facts)) => {
                inst.truncate(&marks);
                model.facts = facts;
            }
            None => {
                // Any watermark at or below the row counts: the facts past
                // it go, each once, and every one of them was held.
                let marks: Vec<usize> = inst
                    .watermark()
                    .iter()
                    .enumerate()
                    .map(|(p, &rows)| (code >> (4 * p)) as usize % (rows + 1))
                    .collect();
                let tail: Vec<Fact> = inst.facts_from(&marks).collect();
                let dropped = marks.iter().zip(inst.watermark()).map(|(m, r)| r - m);
                prop_assert_eq!(tail.len(), dropped.sum::<usize>());
                inst.truncate(&marks);
                prop_assert_eq!(inst.watermark(), marks);
                for fact in tail {
                    prop_assert!(model.facts.remove(&fact), "dropped {:?} twice", fact);
                }
            }
        },
        _ => {
            // A non-injective map, sometimes into fresh ids.
            let (k, shift) = (2 + code % 9, (code >> 4) % 3 * 5);
            let h = |e: Elem| Elem((e.0 % k as u32) + shift as u32);
            *inst = inst.map_elements(h);
            model.dom = model.dom.iter().map(|&e| h(e)).collect();
            model.facts = model
                .facts
                .iter()
                .map(|f| Fact::new(f.pred, f.args.iter().map(|&e| h(e)).collect()))
                .collect();
        }
    }
    Ok(())
}

/// The invariants every step must leave behind.
fn check(inst: &Instance, model: &Model) -> Result<(), TestCaseError> {
    let facts: BTreeSet<Fact> = inst.facts().collect();
    prop_assert_eq!(&facts, &model.facts);
    let of_facts: BTreeSet<Elem> = facts.iter().flat_map(|f| f.args.iter().copied()).collect();
    prop_assert_eq!(inst.active_domain(), &of_facts);
    prop_assert_eq!(inst.dom(), &model.dom);
    prop_assert!(inst.active_domain().is_subset(inst.dom()));
    let fresh = model
        .dom
        .iter()
        .next_back()
        .map_or(Elem(0), |e| Elem(e.0 + 1));
    prop_assert_eq!(inst.fresh_elem(), fresh);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every step of a random operation sequence keeps the instance's
    /// domain, active domain and fresh element equal to the model's.
    #[test]
    fn bookkeeping_matches_the_model(ops in vec(0u64..1 << 40, 0..80)) {
        let mut inst = Instance::new(schema());
        let mut model = Model::default();
        for op in ops {
            step(&mut inst, &mut model, op)?;
            check(&inst, &model)?;
        }
    }

    /// The same facts inserted in two orders print the same `Debug`
    /// string, also after removals that leave the two with equal facts.
    #[test]
    fn debug_is_independent_of_insertion_order(
        codes in vec(0u64..1 << 40, 0..40),
        drop in 0usize..6,
    ) {
        let s = schema();
        let facts: Vec<Fact> = codes.iter().map(|&c| fact_of(&s, c)).collect();
        let build = |order: &mut dyn Iterator<Item = &Fact>| {
            let mut inst = Instance::new(s.clone());
            for f in order {
                inst.add_tuple(f.pred, &f.args);
            }
            inst
        };
        let mut forward = build(&mut facts.iter());
        let mut backward = build(&mut facts.iter().rev());
        prop_assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        prop_assert_eq!(format!("{forward:#?}"), format!("{backward:#?}"));
        for f in facts.iter().take(drop) {
            forward.remove_fact(f.pred, &f.args);
            backward.remove_fact(f.pred, &f.args);
        }
        prop_assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        prop_assert_eq!(&forward, &backward);
    }
}
