//! The planner's process-global counters, pinned exactly.
//!
//! This binary holds one test, so no other test in the process plans a
//! join while it reads the counters before and after its own plans.

use std::ops::ControlFlow;

use tgdkit_hom::{for_each_hom, join_stats, plan_join, plan_stats, InstanceIndex};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{Atom, Schema, Var};

#[test]
fn plans_atoms_and_cache_hits_count_exactly() {
    let s = Schema::builder().pred("R", 1).build();
    let r = s.pred_id("R").unwrap();
    let mut i = Instance::new(s);
    i.add_fact(r, vec![Elem(0)]);
    let index = InstanceIndex::new(&i);
    let atoms: Vec<Atom<Var>> = (0..3).map(|v| Atom::new(r, vec![Var(v)])).collect();
    let before = plan_stats();
    let order = plan_join(&atoms, &index, &[false, false, false]);
    assert_eq!(order, vec![0, 1, 2]);
    let after = plan_stats();
    assert_eq!(after.plans_built, before.plans_built + 1);
    assert_eq!(after.atoms_planned, before.atoms_planned + 3);

    // The same two-atom join searched ten times: the first search builds
    // its plan, the nine others take it from the plan cache.
    let s = Schema::builder().pred("A", 2).pred("B", 2).build();
    let (a, b) = (s.pred_id("A").unwrap(), s.pred_id("B").unwrap());
    let mut i = Instance::new(s);
    for k in 0..8 {
        i.add_fact(a, vec![Elem(k), Elem(k + 1)]);
        i.add_fact(b, vec![Elem(k + 1), Elem(k)]);
    }
    let join = [
        Atom::new(a, vec![Var(0), Var(1)]),
        Atom::new(b, vec![Var(1), Var(2)]),
    ];
    let (plans_before, joins_before) = (plan_stats(), join_stats());
    for _ in 0..10 {
        let mut found = 0;
        for_each_hom(&join, 3, &i, &vec![None; 3], &mut |_| {
            found += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(found, 8);
    }
    let (plans, joins) = (plan_stats(), join_stats());
    let built = plans.plans_built - plans_before.plans_built;
    let planned = plans.atoms_planned - plans_before.atoms_planned;
    assert_eq!(
        (built, planned),
        (1, 20),
        "one plan for twenty planned atoms"
    );
    assert_eq!(joins.plan_cache_hits - joins_before.plan_cache_hits, 9);
    // Each search indexes the 16 facts before it probes them.
    assert!(joins.build_rows - joins_before.build_rows >= 160);
}
