//! # tgdkit
//!
//! A Rust implementation of *Model-theoretic Characterizations of
//! Rule-based Ontologies* (Console, Kolaitis, Pieris; PODS 2021): tgd
//! ontologies, their model-theoretic characterizations via criticality,
//! closure under direct products, and (n,m)-locality, and the effective
//! rewriting procedures between the linear / guarded / frontier-guarded
//! classes.
//!
//! The facade re-exports the workspace crates:
//!
//! - [`logic`] — schemas, atoms, tgds/egds/edds, parser, canonicalization;
//! - [`instance`] — relational instances and instance algebra (products,
//!   intersections, critical instances, duplicating extensions);
//! - [`hom`] — homomorphisms, conjunctive queries, isomorphism, cores;
//! - [`chase_crate`] — chase engines, termination certificates, entailment;
//! - [`core`] — ontologies, closure properties, locality, separations,
//!   synthesis, and the rewriting algorithms;
//! - [`store`] — the durable knowledge-base store: checksummed snapshot +
//!   WAL segments over the incremental chase, crash-consistent recovery;
//! - [`serve`] — the multi-tenant entailment service: wire protocol,
//!   preemptive scheduler, and the `tgdkit-serve` binary's internals.
//!
//! ## Quickstart
//!
//! ```
//! use tgdkit::prelude::*;
//!
//! // Parse an ontology specification and a data instance.
//! let mut schema = Schema::default();
//! let sigma = parse_tgds(&mut schema, "
//!     Employee(x) -> exists d : WorksIn(x, d).
//!     WorksIn(x, d) -> Dept(d).
//! ").unwrap();
//! let data = parse_instance(&mut schema, "Employee(ann)").unwrap();
//!
//! // Chase the data to a universal model and query it.
//! let result = chase(&data, &sigma, ChaseVariant::Restricted, ChaseBudget::default());
//! assert!(result.terminated());
//! assert_eq!(result.instance.fact_count(), 3);
//! ```

pub use tgdkit_chase as chase_crate;
pub use tgdkit_core as core;
pub use tgdkit_hom as hom;
pub use tgdkit_instance as instance;
pub use tgdkit_logic as logic;
pub use tgdkit_serve as serve;
pub use tgdkit_store as store;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use tgdkit_chase::{
        batch_entailment, certain_answers, certainly_holds, chase, chase_checkpointing,
        chase_governed, chase_resume, decide, decide_all, entails, entails_all, entails_auto,
        entails_auto_cached, entails_batch, entails_linear, equivalent, is_weakly_acyclic,
        satisfies_tgd, satisfies_tgds, BatchCheckpoint, CancelToken, CertainAnswers, ChaseBudget,
        ChaseCheckpoint, ChaseOutcome, ChaseStats, ChaseVariant, CheckpointError, EntailCache,
        Entailment, MemoryAccountant,
    };
    pub use tgdkit_core::{
        frontier_guarded_to_guarded, frontier_guarded_to_guarded_cached, guarded_to_linear,
        guarded_to_linear_cached, locality_counterexample, locally_embeddable, rewrite,
        DependencyOntology, FiniteOntology, LocalityFlavor, LocalityOptions, Ontology,
        RewriteCheckpoint, RewriteOptions, RewriteOutcome, RewriteStats, RewriteTarget,
        TgdOntology, Verdict,
    };
    pub use tgdkit_hom::{are_isomorphic, core_of, embeds_fixing, find_instance_hom, Cq};
    pub use tgdkit_instance::{
        critical_instance, direct_product, intersection, is_critical,
        non_oblivious_duplicating_extension, oblivious_duplicating_extension, parse_instance,
        union, Elem, Instance, InstanceGen,
    };
    pub use tgdkit_logic::{
        parse_dependencies, parse_program, parse_tgd, parse_tgds, Dependency, Schema, Tgd, TgdSet,
        Var,
    };
}
