//! Relational schemas: finite sets of predicates with associated arities.

use crate::error::LogicError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a predicate within a [`Schema`].
///
/// Predicate ids are dense (`0..schema.len()`), so they can index into
/// per-predicate side tables without hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

impl PredId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PredInfo {
    name: String,
    arity: usize,
}

/// A relational schema `S = {R_1, ..., R_n}` (paper §2).
///
/// Schemas are immutable once built; use [`Schema::builder`] or
/// [`Schema::parse`](crate::parse::parse_program) to construct one.
///
/// ```
/// use tgdkit_logic::Schema;
/// let s = Schema::builder().pred("R", 2).pred("T", 1).build();
/// let r = s.pred_id("R").unwrap();
/// assert_eq!(s.arity(r), 2);
/// assert_eq!(s.max_arity(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Schema {
    preds: Vec<PredInfo>,
    by_name: HashMap<String, PredId>,
}

impl Schema {
    /// Creates an empty schema builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder {
            schema: Schema::default(),
        }
    }

    /// Number of predicates `|S|`.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` when the schema declares no predicate.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The arity of `pred`.
    #[inline]
    pub fn arity(&self, pred: PredId) -> usize {
        self.preds[pred.index()].arity
    }

    /// The name of `pred`.
    #[inline]
    pub fn name(&self, pred: PredId) -> &str {
        &self.preds[pred.index()].name
    }

    /// Looks up a predicate by name.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over all predicate ids in declaration order.
    pub fn preds(&self) -> impl ExactSizeIterator<Item = PredId> + '_ {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// The maximum arity `ar(S) = max_{R in S} ar(R)`; zero for an empty
    /// schema.
    pub fn max_arity(&self) -> usize {
        self.preds.iter().map(|p| p.arity).max().unwrap_or(0)
    }

    /// Adds a predicate, returning its id. Returns an error if the name is
    /// already declared with a different arity; re-declaring with the same
    /// arity is idempotent.
    pub fn add_pred(&mut self, name: &str, arity: usize) -> Result<PredId, LogicError> {
        // Arity 0 is allowed: the paper's §2 stipulates positive arities,
        // but its own Appendix F reductions use a 0-ary predicate `Aux`;
        // propositional facts are represented as empty tuples downstream.
        if let Some(&id) = self.by_name.get(name) {
            let existing = self.arity(id);
            if existing != arity {
                return Err(LogicError::ConflictingArity {
                    pred: name.to_string(),
                    first: existing,
                    second: arity,
                });
            }
            return Ok(id);
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredInfo {
            name: name.to_string(),
            arity,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Returns a new schema extending `self` with the given fresh predicates.
    ///
    /// Existing predicate ids remain valid in the extended schema. This is
    /// used by the Appendix F reductions, which extend a schema with
    /// auxiliary predicates `Aux`, `R`, `S`, `T`.
    pub fn extended_with(&self, preds: &[(&str, usize)]) -> Result<Schema, LogicError> {
        let mut schema = self.clone();
        for &(name, arity) in preds {
            schema.add_pred(name, arity)?;
        }
        Ok(schema)
    }
}

/// The derived layout, with `by_name` printed in [`PredId`] order: the
/// map's own iteration order follows its per-process random hash keys, so
/// it would differ between two runs, or two schemas built apart.
impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct ByName<'a>(&'a HashMap<String, PredId>);
        impl fmt::Debug for ByName<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut entries: Vec<_> = self.0.iter().collect();
                entries.sort_unstable_by_key(|&(_, id)| *id);
                f.debug_map().entries(entries).finish()
            }
        }
        f.debug_struct("Schema")
            .field("preds", &self.preds)
            .field("by_name", &ByName(&self.by_name))
            .finish()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.preds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}", p.name, p.arity)?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Schema`]. Panics on conflicting declarations; use
/// [`Schema::add_pred`] for fallible construction.
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    schema: Schema,
}

impl SchemaBuilder {
    /// Declares a predicate with the given arity.
    ///
    /// # Panics
    /// Panics if the predicate was already declared with a different arity.
    pub fn pred(mut self, name: &str, arity: usize) -> Self {
        self.schema
            .add_pred(name, arity)
            .unwrap_or_else(|e| panic!("schema builder: {e}"));
        self
    }

    /// Finishes building.
    pub fn build(self) -> Schema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let s = Schema::builder()
            .pred("R", 2)
            .pred("S", 3)
            .pred("T", 1)
            .build();
        assert_eq!(s.len(), 3);
        assert_eq!(s.pred_id("R"), Some(PredId(0)));
        assert_eq!(s.pred_id("S"), Some(PredId(1)));
        assert_eq!(s.pred_id("T"), Some(PredId(2)));
        assert_eq!(s.arity(PredId(1)), 3);
        assert_eq!(s.max_arity(), 3);
        assert_eq!(s.pred_id("missing"), None);
    }

    #[test]
    fn redeclaration_same_arity_is_idempotent() {
        let mut s = Schema::default();
        let a = s.add_pred("R", 2).unwrap();
        let b = s.add_pred("R", 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn conflicting_arity_is_rejected() {
        let mut s = Schema::default();
        s.add_pred("R", 2).unwrap();
        let err = s.add_pred("R", 3).unwrap_err();
        assert!(matches!(err, LogicError::ConflictingArity { .. }));
    }

    #[test]
    fn zero_arity_is_allowed_for_appendix_f() {
        let mut s = Schema::default();
        let aux = s.add_pred("Aux", 0).unwrap();
        assert_eq!(s.arity(aux), 0);
    }

    #[test]
    fn extension_preserves_ids() {
        let s = Schema::builder().pred("R", 2).build();
        let ext = s.extended_with(&[("Aux", 1), ("T", 1)]).unwrap();
        assert_eq!(ext.pred_id("R"), s.pred_id("R"));
        assert_eq!(ext.len(), 3);
    }

    #[test]
    fn debug_is_independent_of_hash_order() {
        // Two schemas built independently hash their name maps with
        // different random keys; the printed form must not show it.
        let build = || {
            let mut s = Schema::default();
            for i in 0..16 {
                s.add_pred(&format!("P{i}"), i % 3).unwrap();
            }
            s
        };
        let (a, b) = (build(), build());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
    }

    #[test]
    fn display_lists_predicates() {
        let s = Schema::builder().pred("R", 2).pred("T", 1).build();
        assert_eq!(s.to_string(), "{R/2, T/1}");
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.max_arity(), 0);
        assert_eq!(s.to_string(), "{}");
    }
}
