//! # tgdkit-instance
//!
//! Relational instances and the instance-level constructions used by
//! *Model-theoretic Characterizations of Rule-based Ontologies* (PODS 2021):
//!
//! - [`Instance`]: finite relational instances over a [`Schema`]
//!   (paper §2), with an explicit **domain** that may strictly contain the
//!   **active domain** — required to even state domain independence
//!   (paper Def. 3.7);
//! - instance algebra ([`algebra`]): direct products `I ⊗ J` (paper §3.2),
//!   intersections `I ∩ J` (paper §5), unions, disjoint unions and
//!   restrictions;
//! - k-critical instances ([`critical`], paper §3.1);
//! - oblivious and non-oblivious duplicating extensions ([`duplicate`],
//!   paper §5 and Example 5.2);
//! - seeded random instance generation ([`generator`]) for benchmarks and
//!   sampled property checks.
//!
//! All collections iterate deterministically, so tests and benchmarks are
//! reproducible.
//!
//! [`Schema`]: tgdkit_logic::Schema

pub mod algebra;
pub mod critical;
pub mod duplicate;
pub mod generator;
pub mod instance;
pub mod parse;
pub mod store;

pub use algebra::{direct_product, direct_product_many, disjoint_union, intersection, union};
pub use critical::{critical_instance, is_critical};
pub use duplicate::{non_oblivious_duplicating_extension, oblivious_duplicating_extension};
pub use generator::InstanceGen;
pub use instance::{Elem, Fact, Instance};
pub use parse::parse_instance;
pub use store::{CapacityError, FxBuildHasher, Relation, RowRef, MAX_ROWS};
