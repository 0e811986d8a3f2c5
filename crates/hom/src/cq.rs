//! Conjunctive queries over instances.

use crate::hom::{for_each_hom, for_each_hom_indexed, Binding};
use crate::index::InstanceIndex;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{conjunction_vars, Atom, LogicError, Schema, Var};

/// A conjunctive query `q(x̄) :- φ(x̄, ȳ)` with answer variables `x̄`.
///
/// Boolean CQs have an empty answer tuple. Evaluation is set-semantics: the
/// answers are deduplicated projections of the homomorphisms from the body
/// into the instance.
///
/// ```
/// use tgdkit_logic::{parse_tgd, Schema};
/// use tgdkit_instance::parse_instance;
/// use tgdkit_hom::Cq;
/// let mut schema = Schema::default();
/// // Query: pairs connected by a 2-step path.
/// let tgd = parse_tgd(&mut schema, "E(x,y), E(y,z) -> Ans(x,z)").unwrap();
/// let q = Cq::new(tgd.body().to_vec(), vec![tgdkit_logic::Var(0), tgdkit_logic::Var(2)]).unwrap();
/// let inst = parse_instance(&mut schema, "E(a,b), E(b,c), E(b,d)").unwrap();
/// assert_eq!(q.eval(&inst).len(), 2); // (a,c), (a,d)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    atoms: Vec<Atom<Var>>,
    answer: Vec<Var>,
    num_vars: usize,
}

impl Cq {
    /// Builds a CQ; every answer variable must occur in the body.
    pub fn new(atoms: Vec<Atom<Var>>, answer: Vec<Var>) -> Result<Cq, LogicError> {
        let vars = conjunction_vars(&atoms);
        for v in &answer {
            if !vars.contains(v) {
                return Err(LogicError::UnsafeHeadVariable(*v));
            }
        }
        let num_vars = vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        Ok(Cq {
            atoms,
            answer,
            num_vars,
        })
    }

    /// A Boolean CQ (no answer variables).
    pub fn boolean(atoms: Vec<Atom<Var>>) -> Cq {
        let num_vars = conjunction_vars(&atoms)
            .iter()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        Cq {
            atoms,
            answer: Vec::new(),
            num_vars,
        }
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom<Var>] {
        &self.atoms
    }

    /// The answer variables.
    pub fn answer_vars(&self) -> &[Var] {
        &self.answer
    }

    /// Number of variables (dense upper bound).
    pub fn var_count(&self) -> usize {
        self.num_vars
    }

    /// Validates the atoms against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), LogicError> {
        for atom in &self.atoms {
            atom.validate(schema)?;
        }
        Ok(())
    }

    /// Evaluates the query, returning the set of answer tuples.
    pub fn eval(&self, instance: &Instance) -> BTreeSet<Vec<Elem>> {
        let mut out = BTreeSet::new();
        let fixed: Binding = vec![None; self.num_vars];
        for_each_hom(&self.atoms, self.num_vars, instance, &fixed, &mut |b| {
            out.insert(
                self.answer
                    .iter()
                    .map(|v| b[v.index()].expect("answer var bound"))
                    .collect(),
            );
            ControlFlow::Continue(())
        });
        out
    }

    /// `true` when the query has at least one match (for Boolean CQs this is
    /// the query's truth value).
    pub fn holds_in(&self, instance: &Instance) -> bool {
        let fixed: Binding = vec![None; self.num_vars];
        let mut found = false;
        for_each_hom(&self.atoms, self.num_vars, instance, &fixed, &mut |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Evaluates with some variables pre-bound (used for entailment checks
    /// where the frontier is frozen).
    pub fn holds_with(&self, instance: &Instance, fixed: &Binding) -> bool {
        let mut padded = fixed.clone();
        padded.resize(self.num_vars.max(fixed.len()), None);
        let mut found = false;
        for_each_hom(&self.atoms, self.num_vars, instance, &padded, &mut |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// [`Cq::holds_with`] against a prebuilt [`InstanceIndex`] (reuse the
    /// index when probing many bindings against the same instance).
    pub fn holds_with_indexed(&self, index: &InstanceIndex<'_>, fixed: &Binding) -> bool {
        let mut padded = fixed.clone();
        padded.resize(self.num_vars.max(fixed.len()), None);
        let mut found = false;
        for_each_hom_indexed(&self.atoms, self.num_vars, index, &padded, &mut |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::parse_tgd;

    #[test]
    fn boolean_cq_truth() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y), E(y,x) -> T(x)").unwrap();
        let q = Cq::boolean(tgd.body().to_vec());
        let sym = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let asym = parse_instance(&mut s, "E(a,b), E(b,c)").unwrap();
        assert!(q.holds_in(&sym));
        assert!(!q.holds_in(&asym));
    }

    #[test]
    fn answers_are_set_semantics() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let q = Cq::new(tgd.body().to_vec(), vec![Var(0)]).unwrap();
        // a has two outgoing edges but appears once in the answer.
        let inst = parse_instance(&mut s, "E(a,b), E(a,c), E(b,c)").unwrap();
        assert_eq!(q.eval(&inst).len(), 2);
    }

    #[test]
    fn unsafe_answer_variable_rejected() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        assert!(Cq::new(tgd.body().to_vec(), vec![Var(9)]).is_err());
    }

    #[test]
    fn prebound_evaluation() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let q = Cq::boolean(tgd.body().to_vec());
        let inst = parse_instance(&mut s, "E(a,b)").unwrap();
        let b = inst.elem_by_name("b").unwrap();
        // x pinned to b: no outgoing edge from b.
        let mut fixed: Binding = vec![None; 2];
        fixed[0] = Some(b);
        assert!(!q.holds_with(&inst, &fixed));
        fixed[0] = Some(inst.elem_by_name("a").unwrap());
        assert!(q.holds_with(&inst, &fixed));
    }

    #[test]
    fn empty_query_always_holds() {
        let mut s = Schema::default();
        let inst = parse_instance(&mut s, "").unwrap();
        let q = Cq::boolean(vec![]);
        assert!(q.holds_in(&inst));
        assert_eq!(q.eval(&inst).len(), 1); // the empty tuple
    }
}
