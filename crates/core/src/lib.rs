//! # tgdkit-core
//!
//! The primary contribution of *Model-theoretic Characterizations of
//! Rule-based Ontologies* (Console, Kolaitis, Pieris; PODS 2021),
//! implemented on top of the tgdkit substrates:
//!
//! - [`ontology`]: ontologies as membership oracles — isomorphism-closed
//!   classes of instances, specified by tgd sets, dependency sets, or
//!   explicit finite families (paper §2);
//! - [`properties`]: the closure properties of §3 and §5 — criticality,
//!   closure under direct products, intersections, unions, domain
//!   independence, n-modularity, duplicating-extension closure — as
//!   exhaustive-on-bounded-universe or sampled checkers;
//! - [`locality`]: the novel (n,m)-locality of §3.3 with its linear (§6.1),
//!   guarded (§7.1) and frontier-guarded (§8.1) refinements, decided exactly
//!   for tgd-ontologies whenever the chase terminates;
//! - [`separations`]: the §9.1 semantic separations
//!   `LTGD ⊊ GTGD ⊊ FGTGD`, with machine-checked locality violations;
//! - [`mv`]: the Makowsky–Vardi correction of §5 — Example 5.2 and
//!   non-oblivious duplicating extensions;
//! - [`rewrite`](mod@rewrite): Algorithms 1 and 2 of §9.2 — `Rewrite(GTGD, LTGD)` and
//!   `Rewrite(FGTGD, GTGD)` — with canonical candidate enumeration and
//!   one entailment sweep over the candidates, serial or work-stealing;
//! - [`characterize`]: the constructive direction of Theorem 4.1 — synthesis
//!   of a `TGD_{n,m}` axiomatization from a membership oracle;
//! - [`reductions`]: the Appendix F lower-bound constructions.

pub mod characterize;
pub mod checkpoint;
pub mod diagram;
pub mod enumerate;
pub mod expressibility;
pub mod locality;
pub mod mv;
pub mod neighbourhood;
pub mod ontology;
pub mod properties;
pub mod reductions;
pub mod rewrite;
pub mod separations;
pub mod universe;
pub mod verdict;
pub mod workload;

pub use checkpoint::{keys_fingerprint, RewriteCheckpoint};
pub use locality::{
    locality_counterexample, locally_embeddable, locally_embeddable_with_stats_governed,
    LocalityFlavor, LocalityOptions,
};
pub use ontology::{DependencyOntology, FiniteOntology, Ontology, TgdOntology};
pub use rewrite::{
    frontier_guarded_to_guarded, frontier_guarded_to_guarded_cached, guarded_to_linear,
    guarded_to_linear_cached, rewrite, RewriteOptions, RewriteOutcome, RewriteRun, RewriteStats,
    RewriteTarget,
};
pub use verdict::Verdict;
