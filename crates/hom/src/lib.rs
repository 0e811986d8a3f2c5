//! # tgdkit-hom
//!
//! Homomorphism machinery for tgdkit:
//!
//! - [`find_hom`]/[`for_each_hom`]: backtracking search for homomorphisms
//!   from a conjunction of atoms into an instance, with positional indexes
//!   and a selectivity-guided join plan ([`plan`]) ordering the atoms;
//! - [`find_instance_hom`]/[`embeds_fixing`]: instance-to-instance
//!   homomorphisms, optionally pinned to be the identity on a set of
//!   elements — the exact shape of mapping required by the paper's locality
//!   definitions (§3.3: "a function h : adom(J') → adom(I), which is the
//!   identity on adom(K)");
//! - [`Cq`]: conjunctive queries with answer variables;
//! - [`are_isomorphic`]: instance isomorphism (paper §2);
//! - [`core_of`]: the core of an instance (smallest retract).
//!
//! Homomorphisms are the semantic workhorse of the paper: tgd satisfaction,
//! local embeddings, diagrams and chase universality are all phrased through
//! them.

pub mod cq;
pub mod hom;
pub mod index;
pub mod iso;
pub mod plan;
pub mod retract;

pub use cq::Cq;
pub use hom::{
    embeds_fixing, find_hom, find_instance_hom, for_each_hom, for_each_hom_indexed,
    for_each_hom_reusing, Binding,
};
pub use hom::{find_hom_indexed, for_each_hom_anchored};
pub use index::{InstanceIndex, Tuples};
pub use iso::are_isomorphic;
pub use plan::{
    join_stats, plan_join, plan_join_cached, plan_stats, reset_join_stats, reset_plan_stats,
    JoinPlan, JoinStats, PlanStats, PlanStep,
};
pub use retract::{core_of, core_preserving};
pub use tgdkit_instance::BitRows;
