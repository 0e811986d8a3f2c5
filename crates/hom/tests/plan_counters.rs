//! The planner's process-global counters, pinned exactly.
//!
//! This binary holds one test, so no other test in the process plans a
//! join while it reads the counters before and after its own plan.

use tgdkit_hom::{plan_join, plan_stats, InstanceIndex};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{Atom, Schema, Var};

#[test]
fn one_plan_of_three_atoms_counts_one_plan_and_three_atoms() {
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
}
