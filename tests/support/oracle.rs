//! A deliberately naive chase: the reference the engine is checked against.
//!
//! Facts live in one `BTreeSet<Fact>`, and every body match is found by
//! backtracking over all facts. There is no index, join planner,
//! semi-naive frontier or trigger filter here.
//!
//! It keeps the engine's round discipline, so outputs compare exactly:
//!
//! - budgets are checked at round starts, and a round that pushes the
//!   instance past four times `max_facts` stops at once;
//! - a round takes every trigger of the instance as of its start and fires
//!   them in `(tgd, universal image)` order;
//! - a full tgd fires by inserting its head facts, and counts as fired only
//!   when one of them was new;
//! - the restricted variant re-checks head satisfaction against the
//!   current instance before each firing; the oblivious variant fires each
//!   trigger of a non-full tgd once;
//! - a round in which nothing fires is the fixpoint, and it counts.

use std::collections::BTreeSet;
use tgdkit::chase_crate::DerivationStep;
use tgdkit::instance::Fact;
use tgdkit::logic::Atom;
use tgdkit::prelude::*;

/// The outcome of [`naive_chase`], field for field what the engine reports.
#[derive(Debug)]
pub struct NaiveChase {
    pub facts: BTreeSet<Fact>,
    pub nulls: BTreeSet<Elem>,
    pub rounds: usize,
    pub outcome: ChaseOutcome,
    pub triggers_fired: usize,
    pub steps: Vec<DerivationStep>,
}

type Binding = Vec<Option<Elem>>;

/// Calls `visit` with every extension of `binding` that maps `atoms` into
/// `facts`, until it returns `false`. Returns `false` if it was stopped.
fn search(
    atoms: &[Atom<Var>],
    binding: &mut Binding,
    facts: &BTreeSet<Fact>,
    visit: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return visit(binding);
    };
    for fact in facts.iter().filter(|f| f.pred == atom.pred) {
        let saved = binding.clone();
        let fits = atom
            .args
            .iter()
            .zip(&fact.args)
            .all(|(v, &e)| match binding[v.index()] {
                Some(bound) => bound == e,
                None => {
                    binding[v.index()] = Some(e);
                    true
                }
            });
        if fits && !search(rest, binding, facts, visit) {
            return false;
        }
        *binding = saved;
    }
    true
}

/// The facts of `tgd`'s head under `assignment` (universal images first,
/// then the existential witnesses).
fn head_facts(tgd: &Tgd, assignment: &[Elem]) -> Vec<Fact> {
    tgd.head()
        .iter()
        .map(|atom| {
            Fact::new(
                atom.pred,
                atom.args.iter().map(|v| assignment[v.index()]).collect(),
            )
        })
        .collect()
}

/// Chases `start` with `tgds` the naive way (see the module docs).
pub fn naive_chase(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> NaiveChase {
    let mut facts: BTreeSet<Fact> = start.facts().collect();
    let mut next_null = start.fresh_elem().0;
    let mut nulls = BTreeSet::new();
    let mut fired: Vec<BTreeSet<Vec<Elem>>> = vec![BTreeSet::new(); tgds.len()];
    let mut steps = Vec::new();
    let mut triggers_fired = 0;
    let mut rounds = 0;
    let hard_cap = budget.max_facts.saturating_mul(4);
    let outcome = 'run: loop {
        if rounds >= budget.max_rounds || facts.len() > budget.max_facts {
            break ChaseOutcome::BudgetExceeded;
        }
        rounds += 1;
        let mut triggers: BTreeSet<(usize, Vec<Elem>)> = BTreeSet::new();
        for (ti, tgd) in tgds.iter().enumerate() {
            let mut binding = vec![None; tgd.var_count()];
            search(tgd.body(), &mut binding, &facts, &mut |b| {
                let universal = (0..tgd.universal_count()).map(|v| b[v].unwrap()).collect();
                triggers.insert((ti, universal));
                true
            });
        }
        let mut fired_this_round = false;
        for (ti, universal) in triggers {
            let tgd = &tgds[ti];
            let mut witnesses = Vec::new();
            if !tgd.is_full() {
                match variant {
                    ChaseVariant::Restricted => {
                        let mut binding: Binding = vec![None; tgd.var_count()];
                        for (v, &e) in universal.iter().enumerate() {
                            binding[v] = Some(e);
                        }
                        let satisfied = !search(tgd.head(), &mut binding, &facts, &mut |_| false);
                        if satisfied {
                            continue;
                        }
                    }
                    ChaseVariant::Oblivious => {
                        if !fired[ti].insert(universal.clone()) {
                            continue;
                        }
                    }
                }
                for _ in tgd.existential_vars() {
                    let e = Elem(next_null);
                    next_null += 1;
                    nulls.insert(e);
                    witnesses.push(e);
                }
            }
            let assignment: Vec<Elem> = universal.iter().chain(&witnesses).copied().collect();
            let added: Vec<Fact> = head_facts(tgd, &assignment)
                .into_iter()
                .filter(|f| facts.insert(f.clone()))
                .collect();
            if tgd.is_full() && added.is_empty() {
                continue;
            }
            steps.push(DerivationStep {
                tgd_index: ti,
                universal,
                witnesses,
                added,
            });
            triggers_fired += 1;
            fired_this_round = true;
            if facts.len() > hard_cap {
                break 'run ChaseOutcome::BudgetExceeded;
            }
        }
        if !fired_this_round {
            break ChaseOutcome::Terminated;
        }
    };
    NaiveChase {
        facts,
        nulls,
        rounds,
        outcome,
        triggers_fired,
        steps,
    }
}
