//! Finite relational instances (paper §2).

use crate::store::{CapacityError, FxBuildHasher, Relation};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use tgdkit_logic::{PredId, Schema};

/// A domain element of an instance.
///
/// Elements are opaque integers shared across instances: two instances over
/// the same schema may (and, for the subinstance-sensitive constructions of
/// the paper, must) refer to the same elements. The chase allocates fresh
/// elements as labeled nulls from the same space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Elem(pub u32);

impl Elem {
    /// The element id as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fact `R(c_1, ..., c_k)` of an instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// Predicate symbol.
    pub pred: PredId,
    /// Argument tuple.
    pub args: Vec<Elem>,
}

impl Fact {
    /// Creates a fact.
    pub fn new(pred: PredId, args: Vec<Elem>) -> Self {
        Fact { pred, args }
    }
}

/// A finite relational instance `I = (dom(I), R_1^I, ..., R_n^I)` over a
/// schema (paper §2).
///
/// The **domain** may strictly contain the **active domain** (the elements
/// occurring in facts); the paper's Def. 3.7 (domain independence) and the
/// normalization `dom(I) = adom(I)` used throughout §4 depend on this
/// distinction being representable.
///
/// Relations are stored in columnar (struct-of-arrays) arenas ([`Relation`])
/// whose iteration is canonical (lexicographically sorted), so every
/// enumeration stays deterministic. The active domain is maintained incrementally under
/// insertion and removal (occurrence-counted), so [`Instance::active_domain`]
/// is O(1) instead of a full relation scan.
///
/// ```
/// use tgdkit_logic::Schema;
/// use tgdkit_instance::{Elem, Instance};
/// let schema = Schema::builder().pred("R", 2).build();
/// let r = schema.pred_id("R").unwrap();
/// let mut inst = Instance::new(schema);
/// inst.add_fact(r, vec![Elem(0), Elem(1)]);
/// inst.add_dom_elem(Elem(7)); // isolated element: in dom, not in adom
/// assert_eq!(inst.dom().len(), 3);
/// assert_eq!(inst.active_domain().len(), 2);
/// ```
///
/// `adom ⊆ dom` always holds: removal keeps the domain, and every other
/// operation that narrows the domain rebuilds the facts inside it. So an
/// insert touches the two ordered sets only for an element whose count
/// goes from 0 to 1; an element already counted is in both. The counts
/// live in an [`FxBuildHasher`] hash map, one probe per element of a new
/// fact. `Debug` is written by hand to print the counts in element order,
/// so equal instances print the same whatever order their facts came in
/// (tests compare chase results by their `Debug` strings).
#[derive(Clone, PartialEq, Eq)]
pub struct Instance {
    schema: Schema,
    dom: BTreeSet<Elem>,
    rels: Vec<Relation>,
    /// Cached active domain, maintained incrementally by `insert_tuple` /
    /// `remove_fact` via the occurrence counts below.
    adom: BTreeSet<Elem>,
    /// Occurrences of each active element across all tuples (an element is
    /// dropped from `adom` exactly when its count reaches zero), so its key
    /// set is `adom`.
    adom_counts: HashMap<Elem, u32, FxBuildHasher>,
    /// Optional display names for elements (populated by the parser).
    names: BTreeMap<Elem, String>,
}

impl Instance {
    /// Creates an empty instance over `schema`.
    pub fn new(schema: Schema) -> Instance {
        let rels = schema
            .preds()
            .map(|p| Relation::new(schema.arity(p)))
            .collect();
        Instance {
            schema,
            dom: BTreeSet::new(),
            rels,
            adom: BTreeSet::new(),
            adom_counts: HashMap::default(),
            names: BTreeMap::new(),
        }
    }

    /// The schema of the instance.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The domain `dom(I)`.
    #[inline]
    pub fn dom(&self) -> &BTreeSet<Elem> {
        &self.dom
    }

    /// The active domain `adom(I)`: elements occurring in at least one fact.
    ///
    /// Maintained incrementally on insertion/removal — this is O(1), not a
    /// relation scan (it is called per-round by locality and countermodel
    /// searches).
    #[inline]
    pub fn active_domain(&self) -> &BTreeSet<Elem> {
        &self.adom
    }

    /// Adds an element to the domain without adding any fact.
    pub fn add_dom_elem(&mut self, e: Elem) {
        self.dom.insert(e);
    }

    /// Removes `e` from the domain if it is isolated (in no fact); returns
    /// whether it was removed. An active element stays, so `adom ⊆ dom`
    /// holds.
    pub fn remove_dom_elem(&mut self, e: Elem) -> bool {
        !self.adom.contains(&e) && self.dom.remove(&e)
    }

    /// Removes isolated elements so that `dom(I) = adom(I)` (the
    /// normalization used throughout paper §4, justified by domain
    /// independence).
    pub fn shrink_dom_to_active(&mut self) {
        self.dom = self.adom.clone();
    }

    /// Inserts `tuple` into relation `idx`, maintaining the domain and the
    /// active-domain occurrence counts. All fact-adding paths (including
    /// `restrict` and `map_elements`) funnel through here. A tuple refused
    /// for capacity leaves the instance unchanged.
    fn insert_tuple(&mut self, idx: usize, tuple: &[Elem]) -> Result<bool, CapacityError> {
        let added = self.rels[idx].try_insert(tuple)?;
        if added {
            for &e in tuple {
                let count = self.adom_counts.entry(e).or_insert(0);
                *count += 1;
                // A counted element is in `adom ⊆ dom` already.
                if *count == 1 {
                    self.adom.insert(e);
                    self.dom.insert(e);
                }
            }
        }
        Ok(added)
    }

    /// Adds the fact `pred(args)`, extending the domain with its elements.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the predicate arity, or if
    /// the predicate's relation is at its `u32` row-id capacity (see
    /// [`Instance::try_add_fact`] for the fallible variant).
    pub fn add_fact(&mut self, pred: PredId, args: Vec<Elem>) -> bool {
        self.add_tuple(pred, &args)
    }

    /// [`Instance::add_fact`] by slice: the tuple is copied into the
    /// relation's columns, so a caller that builds it in a reused buffer
    /// allocates nothing per fact.
    ///
    /// # Panics
    /// As [`Instance::add_fact`].
    pub fn add_tuple(&mut self, pred: PredId, args: &[Elem]) -> bool {
        self.try_add_tuple(pred, args)
            .unwrap_or_else(|e| panic!("relation overflow: {e}"))
    }

    /// Adds the fact `pred(args)` like [`Instance::add_fact`], but reports
    /// relation-capacity exhaustion as a typed [`CapacityError`] instead of
    /// panicking — the variant long-lived request-parsing surfaces (the
    /// entailment server) use so an oversized tenant payload becomes an
    /// error response, not a process abort. On an error the instance,
    /// its domain included, is unchanged.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the predicate arity.
    pub fn try_add_fact(&mut self, pred: PredId, args: Vec<Elem>) -> Result<bool, CapacityError> {
        self.try_add_tuple(pred, &args)
    }

    /// The arity check shared by every adding path, then
    /// [`Instance::insert_tuple`].
    fn try_add_tuple(&mut self, pred: PredId, args: &[Elem]) -> Result<bool, CapacityError> {
        assert_eq!(
            args.len(),
            self.schema.arity(pred),
            "arity mismatch for {}",
            self.schema.name(pred)
        );
        self.insert_tuple(pred.index(), args)
    }

    /// Adds a [`Fact`].
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.add_fact(fact.pred, fact.args)
    }

    /// Removes a fact (the domain is left unchanged; the active domain
    /// shrinks if this was the last occurrence of an element).
    pub fn remove_fact(&mut self, pred: PredId, args: &[Elem]) -> bool {
        let removed = self.rels[pred.index()].remove(args);
        if removed {
            for &e in args {
                let count = self
                    .adom_counts
                    .get_mut(&e)
                    .expect("removed element was counted");
                *count -= 1;
                if *count == 0 {
                    self.adom_counts.remove(&e);
                    self.adom.remove(&e);
                }
            }
        }
        removed
    }

    /// The row count of every relation, in predicate order: a watermark.
    /// Inserts append rows, so the facts added after it are exactly the
    /// rows at or past it ([`Instance::facts_from`]), and
    /// [`Instance::truncate`] drops them again.
    pub fn watermark(&self) -> Vec<usize> {
        self.rels.iter().map(Relation::len).collect()
    }

    /// Drops every fact at a row at or past `marks` (a [`Instance::watermark`];
    /// predicates beyond `marks` keep all their rows). Like
    /// [`Instance::remove_fact`], the domain is left unchanged and the
    /// active domain shrinks by the elements no remaining fact mentions.
    /// Rows are appended in insertion order, so after inserts alone this
    /// undoes exactly the inserts made since the watermark was read.
    pub fn truncate(&mut self, marks: &[usize]) {
        for (rel, &mark) in self.rels.iter_mut().zip(marks) {
            for col in rel.columns() {
                for &e in col.get(mark..).unwrap_or_default() {
                    let count = self
                        .adom_counts
                        .get_mut(&e)
                        .expect("a stored element is counted");
                    *count -= 1;
                    if *count == 0 {
                        self.adom_counts.remove(&e);
                        self.adom.remove(&e);
                    }
                }
            }
            rel.truncate(mark);
        }
    }

    /// The facts at rows at or past `marks` (a [`Instance::watermark`]),
    /// predicate by predicate and in row order within each; predicates
    /// beyond `marks` contribute none.
    pub fn facts_from<'a>(&'a self, marks: &'a [usize]) -> impl Iterator<Item = Fact> + 'a {
        self.schema
            .preds()
            .zip(marks)
            .flat_map(move |(pred, &mark)| {
                let cols = self.rels[pred.index()].columns();
                let rows = self.rels[pred.index()].len();
                (mark.min(rows)..rows)
                    .map(move |row| Fact::new(pred, cols.iter().map(|c| c[row]).collect()))
            })
    }

    /// `true` when the instance contains `pred(args)`.
    pub fn contains_fact(&self, pred: PredId, args: &[Elem]) -> bool {
        self.rels[pred.index()].contains(args)
    }

    /// The relation of `pred`.
    pub fn relation(&self, pred: PredId) -> &Relation {
        &self.rels[pred.index()]
    }

    /// Iterates over all facts in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.schema.preds().flat_map(move |pred| {
            self.rels[pred.index()]
                .iter()
                .map(move |tuple| Fact::new(pred, tuple.to_vec()))
        })
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.rels.iter().map(Relation::len).sum()
    }

    /// Bytes of tuple payload across all relation arenas (reported by the
    /// benchmark harness as storage telemetry).
    pub fn payload_bytes(&self) -> usize {
        self.rels.iter().map(Relation::payload_bytes).sum()
    }

    /// Deterministic heap-residency estimate across all relation arenas and
    /// their dedup indexes (see [`Relation::heap_bytes`]); the figure the
    /// chase reports to its memory accountant at round boundaries.
    pub fn heap_bytes(&self) -> usize {
        self.rels.iter().map(Relation::heap_bytes).sum()
    }

    /// `true` when the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.rels.iter().all(Relation::is_empty)
    }

    /// Set-inclusion of facts: `facts(self) ⊆ facts(other)` (the paper's
    /// `J ⊆ I`). The domains are not compared.
    pub fn is_contained_in(&self, other: &Instance) -> bool {
        self.rels
            .iter()
            .zip(&other.rels)
            .all(|(a, b)| a.is_subset(b))
    }

    /// Subinstance test `self ≤ other` (paper §2): `dom(self) ⊆ dom(other)`
    /// and each relation of `self` is the restriction of the corresponding
    /// relation of `other` to `dom(self)`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        if !self.dom.is_subset(&other.dom) {
            return false;
        }
        self.rels.iter().zip(&other.rels).all(|(a, b)| {
            // a must equal { t ∈ b | t ⊆ dom(self) }.
            a.iter().all(|t| b.contains_row(t))
                && b.iter()
                    .filter(|t| t.iter().all(|e| self.dom.contains(&e)))
                    .all(|t| a.contains_row(t))
        })
    }

    /// The restriction `I|_D` (paper §2): the subinstance with domain
    /// `dom(I) ∩ D` whose relations keep exactly the tuples over `D`.
    pub fn restrict(&self, d: &BTreeSet<Elem>) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        out.dom = self.dom.intersection(d).copied().collect();
        let mut buf: Vec<Elem> = Vec::new();
        for (i, rel) in self.rels.iter().enumerate() {
            for tuple in rel {
                if tuple.iter().all(|e| out.dom.contains(&e)) {
                    tuple.copy_into(&mut buf);
                    out.insert_tuple(i, &buf)
                        .expect("a restriction has no more rows than its source");
                }
            }
        }
        out.names = self
            .names
            .iter()
            .filter(|(e, _)| out.dom.contains(e))
            .map(|(e, n)| (*e, n.clone()))
            .collect();
        out
    }

    /// The restriction of `self` to the elements occurring in `facts`,
    /// i.e. `I|_{adom(F)}`.
    pub fn restrict_to_facts(&self, facts: &[Fact]) -> Instance {
        let d: BTreeSet<Elem> = facts.iter().flat_map(|f| f.args.iter().copied()).collect();
        self.restrict(&d)
    }

    /// Smallest element id not used in the domain, for allocating fresh
    /// elements (chase nulls, disjoint copies).
    pub fn fresh_elem(&self) -> Elem {
        Elem(self.dom.iter().next_back().map_or(0, |e| e.0 + 1))
    }

    /// Applies a function to every element, producing the homomorphic image
    /// `h(facts(I))` as a new instance (domain = image of the domain).
    pub fn map_elements(&self, mut h: impl FnMut(Elem) -> Elem) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for e in &self.dom {
            out.add_dom_elem(h(*e));
        }
        let mut mapped: Vec<Elem> = Vec::new();
        for (i, rel) in self.rels.iter().enumerate() {
            for tuple in rel {
                mapped.clear();
                mapped.extend(tuple.iter().map(&mut h));
                out.insert_tuple(i, &mapped)
                    .expect("an image has no more rows than its source");
            }
        }
        out
    }

    /// Assigns a display name to an element.
    pub fn set_name(&mut self, e: Elem, name: impl Into<String>) {
        self.names.insert(e, name.into());
    }

    /// The display name of an element, if one was assigned.
    pub fn name_of(&self, e: Elem) -> Option<&str> {
        self.names.get(&e).map(String::as_str)
    }

    /// All (element, display-name) assignments, in element order.
    pub fn names(&self) -> impl Iterator<Item = (Elem, &str)> + '_ {
        self.names.iter().map(|(e, n)| (*e, n.as_str()))
    }

    /// Looks up an element by display name.
    pub fn elem_by_name(&self, name: &str) -> Option<Elem> {
        self.names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(e, _)| *e)
    }

    fn render_elem(&self, e: Elem) -> String {
        self.names
            .get(&e)
            .cloned()
            .unwrap_or_else(|| format!("e{}", e.0))
    }
}

impl fmt::Debug for Instance {
    /// The derived layout, with the occurrence counts in element order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Counts<'a>(&'a Instance);
        impl fmt::Debug for Counts<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Instance {
                    adom, adom_counts, ..
                } = self.0;
                f.debug_map()
                    .entries(adom.iter().map(|e| (e, &adom_counts[e])))
                    .finish()
            }
        }
        f.debug_struct("Instance")
            .field("schema", &self.schema)
            .field("dom", &self.dom)
            .field("rels", &self.rels)
            .field("adom", &self.adom)
            .field("adom_counts", &Counts(self))
            .field("names", &self.names)
            .finish()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for fact in self.facts() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}(", self.schema.name(fact.pred))?;
            for (i, &e) in fact.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.render_elem(e))?;
            }
            write!(f, ")")?;
        }
        // Isolated elements, if any, are listed after the facts.
        for e in self.dom.difference(&self.adom) {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}", self.render_elem(*e))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder().pred("R", 2).pred("T", 1).build()
    }

    fn r(s: &Schema) -> PredId {
        s.pred_id("R").unwrap()
    }

    fn t(s: &Schema) -> PredId {
        s.pred_id("T").unwrap()
    }

    #[test]
    fn add_and_query_facts() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        assert!(i.add_fact(r(&s), vec![Elem(0), Elem(1)]));
        assert!(!i.add_fact(r(&s), vec![Elem(0), Elem(1)]));
        assert!(i.contains_fact(r(&s), &[Elem(0), Elem(1)]));
        assert!(!i.contains_fact(r(&s), &[Elem(1), Elem(0)]));
        assert_eq!(i.fact_count(), 1);
        assert_eq!(i.facts().count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0)]);
    }

    #[test]
    fn dom_vs_adom() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(t(&s), vec![Elem(3)]);
        i.add_dom_elem(Elem(9));
        assert_eq!(i.dom().len(), 2);
        assert_eq!(i.active_domain().len(), 1);
        i.shrink_dom_to_active();
        assert_eq!(i.dom().len(), 1);
    }

    #[test]
    fn adom_is_occurrence_counted() {
        // The incrementally maintained active domain must track *last*
        // occurrences: removing one of two facts sharing an element keeps
        // the element active; removing both drops it.
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(1), Elem(2)]);
        i.add_fact(t(&s), vec![Elem(1)]);
        assert!(i.active_domain().contains(&Elem(1)));
        i.remove_fact(t(&s), &[Elem(1)]);
        assert!(i.active_domain().contains(&Elem(1)), "still in R(1,2)");
        i.remove_fact(r(&s), &[Elem(1), Elem(2)]);
        assert!(i.active_domain().is_empty());
        // Duplicate insertion must not double-count.
        i.add_fact(t(&s), vec![Elem(5)]);
        i.add_fact(t(&s), vec![Elem(5)]);
        i.remove_fact(t(&s), &[Elem(5)]);
        assert!(i.active_domain().is_empty());
    }

    #[test]
    fn containment_vs_subinstance() {
        // The paper stresses J ≤ I implies J ⊆ I but not conversely.
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        i.add_fact(r(&s), vec![Elem(0), Elem(0)]);

        // J has both elements but misses R(0,0): contained, not a
        // subinstance.
        let mut j = Instance::new(s.clone());
        j.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        assert!(j.is_contained_in(&i));
        assert!(!j.is_subinstance_of(&i));

        // The restriction to {0} is a subinstance.
        let k = i.restrict(&[Elem(0)].into_iter().collect());
        assert!(k.is_subinstance_of(&i));
        assert!(k.is_contained_in(&i));
        assert_eq!(k.fact_count(), 1);
        assert!(k.contains_fact(r(&s), &[Elem(0), Elem(0)]));
    }

    #[test]
    fn restriction_keeps_only_inner_tuples() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        i.add_fact(r(&s), vec![Elem(1), Elem(2)]);
        i.add_fact(t(&s), vec![Elem(2)]);
        let d: BTreeSet<Elem> = [Elem(1), Elem(2)].into_iter().collect();
        let sub = i.restrict(&d);
        assert_eq!(sub.fact_count(), 2);
        assert!(sub.contains_fact(r(&s), &[Elem(1), Elem(2)]));
        assert!(sub.contains_fact(t(&s), &[Elem(2)]));
        // The restriction's cached adom reflects only the kept tuples.
        assert_eq!(sub.active_domain().len(), 2);
    }

    #[test]
    fn map_elements_builds_hom_image() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        let img = i.map_elements(|_| Elem(5));
        assert!(img.contains_fact(r(&s), &[Elem(5), Elem(5)]));
        assert_eq!(img.fact_count(), 1);
        assert_eq!(img.dom().len(), 1);
        assert_eq!(img.active_domain().len(), 1);
    }

    #[test]
    fn fresh_elem_is_unused() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        assert_eq!(i.fresh_elem(), Elem(0));
        i.add_fact(r(&s), vec![Elem(0), Elem(7)]);
        assert_eq!(i.fresh_elem(), Elem(8));
    }

    #[test]
    fn display_uses_names() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        i.set_name(Elem(0), "a");
        i.set_name(Elem(1), "b");
        i.add_dom_elem(Elem(2));
        assert_eq!(i.to_string(), "{R(a, b), e2}");
        assert_eq!(i.elem_by_name("b"), Some(Elem(1)));
    }

    #[test]
    fn facts_iterate_deterministically() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(t(&s), vec![Elem(5)]);
        i.add_fact(r(&s), vec![Elem(2), Elem(0)]);
        i.add_fact(r(&s), vec![Elem(0), Elem(2)]);
        let listed: Vec<Fact> = i.facts().collect();
        assert_eq!(
            listed,
            vec![
                Fact::new(r(&s), vec![Elem(0), Elem(2)]),
                Fact::new(r(&s), vec![Elem(2), Elem(0)]),
                Fact::new(t(&s), vec![Elem(5)]),
            ]
        );
    }

    #[test]
    fn try_add_fact_matches_add_fact_semantics() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        assert_eq!(i.try_add_fact(r(&s), vec![Elem(0), Elem(1)]), Ok(true));
        assert_eq!(i.try_add_fact(r(&s), vec![Elem(0), Elem(1)]), Ok(false));
        assert!(i.contains_fact(r(&s), &[Elem(0), Elem(1)]));
        // Domain and adom bookkeeping match the infallible path.
        assert_eq!(i.dom().len(), 2);
        assert_eq!(i.active_domain().len(), 2);
        i.remove_fact(r(&s), &[Elem(0), Elem(1)]);
        assert!(i.active_domain().is_empty());
    }

    #[test]
    fn only_isolated_elements_leave_the_domain() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(t(&s), vec![Elem(1)]);
        i.add_dom_elem(Elem(2));
        assert!(!i.remove_dom_elem(Elem(1)), "active");
        assert!(i.remove_dom_elem(Elem(2)));
        assert!(!i.remove_dom_elem(Elem(2)), "already gone");
        assert_eq!(i.dom().len(), 1);
    }

    #[test]
    fn truncate_undoes_the_inserts_since_a_watermark() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(r(&s), vec![Elem(0), Elem(1)]);
        let mark = i.watermark();
        let before = i.clone();
        i.add_fact(t(&s), vec![Elem(1)]);
        i.add_fact(r(&s), vec![Elem(1), Elem(2)]);
        i.add_fact(t(&s), vec![Elem(3)]);
        let tail: Vec<Fact> = i.facts_from(&mark).collect();
        assert_eq!(
            tail,
            vec![
                Fact::new(r(&s), vec![Elem(1), Elem(2)]),
                Fact::new(t(&s), vec![Elem(1)]),
                Fact::new(t(&s), vec![Elem(3)]),
            ]
        );
        i.truncate(&mark);
        assert_eq!(
            i.facts().collect::<Vec<_>>(),
            before.facts().collect::<Vec<_>>()
        );
        assert_eq!(i.active_domain(), before.active_domain());
        // The domain keeps the dropped elements, as `remove_fact` does.
        assert_eq!(i.dom().len(), 4);
        assert_eq!(i.facts_from(&mark).count(), 0);
    }

    #[test]
    fn remove_fact_keeps_domain() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        i.add_fact(t(&s), vec![Elem(1)]);
        assert!(i.remove_fact(t(&s), &[Elem(1)]));
        assert!(!i.remove_fact(t(&s), &[Elem(1)]));
        assert!(i.dom().contains(&Elem(1)));
        assert!(i.active_domain().is_empty());
    }
}
