//! An exhaustive homomorphism enumerator: the reference the planned,
//! indexed hom search is checked against.
//!
//! It tries every assignment of the body's variables to the elements of
//! the facts and keeps those that map every atom onto a fact. There is no
//! index, join plan, join algorithm or search order here.

use std::collections::BTreeSet;
use tgdkit::instance::Fact;
use tgdkit::logic::Atom;
use tgdkit::prelude::*;

/// A binding as the hom search reports it: one slot per variable, `None`
/// where no atom uses the variable.
pub type Binding = Vec<Option<Elem>>;

/// Every homomorphism from `atoms` (over `Var(0..num_vars)`) into `facts`.
pub fn all_homs(atoms: &[Atom<Var>], num_vars: usize, facts: &BTreeSet<Fact>) -> BTreeSet<Binding> {
    let elems: Vec<Elem> = facts
        .iter()
        .flat_map(|f| f.args.iter().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let used: Vec<usize> = atoms
        .iter()
        .flat_map(|a| a.args.iter().map(|v| v.index()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut homs = BTreeSet::new();
    if elems.is_empty() && !used.is_empty() {
        return homs;
    }
    // An odometer over `elems^used`.
    let mut digits = vec![0usize; used.len()];
    loop {
        let mut binding: Binding = vec![None; num_vars];
        for (&v, &d) in used.iter().zip(&digits) {
            binding[v] = Some(elems[d]);
        }
        let maps = atoms.iter().all(|atom| {
            let args = atom.args.iter().map(|v| binding[v.index()].unwrap());
            facts.contains(&Fact::new(atom.pred, args.collect()))
        });
        if maps {
            homs.insert(binding);
        }
        let mut i = 0;
        loop {
            if i == digits.len() {
                return homs;
            }
            digits[i] += 1;
            if digits[i] < elems.len() {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}
