//! # tgdkit-chase
//!
//! The chase and dependency reasoning for tgdkit:
//!
//! - [`satisfy`]: satisfaction of tgds, egds and edds by instances
//!   (paper §2 and §4.1 semantics, `I ⊨ σ`);
//! - [`mod@chase`]: restricted (standard) and oblivious chase with labeled
//!   nulls, fair round-based scheduling, and explicit budgets — the paper's
//!   Appendix C/D/E constructions all hinge on `chase(I_δ, Σ)`;
//! - [`termination`]: weak-acyclicity certificate (position dependency
//!   graph), guaranteeing chase termination a priori;
//! - [`entail`]: three-valued entailment `Σ ⊨ σ` by freezing the body and
//!   chasing (Maier–Mendelzon–Sagiv \[13\]), the engine inside the rewriting
//!   algorithms of paper §9, with one decision pipeline ([`decide`]) shared
//!   with the candidate sweep of [`cache`];
//! - [`universal`]: hom-universality helpers for chase results.
//!
//! ## Soundness discipline
//!
//! The chase of tgds with existentials may not terminate, so entailment is
//! three-valued ([`Entailment`]): `Proved` is sound even from a truncated
//! chase (every chase fact maps homomorphically into every model of `Σ`
//! containing the frozen body); `Disproved` is only reported when the chase
//! *terminated* (its result is then a model of `Σ` witnessing
//! non-entailment) — otherwise `Unknown`.

pub mod cache;
pub mod certain;
pub mod chase;
pub mod checkpoint;
pub mod countermodel;
pub mod entail;
pub mod faults;
pub mod govern;
pub mod linear;
pub mod memory;
pub mod satisfy;
mod search;
pub mod stats;
pub mod termination;
pub mod universal;

pub use cache::{
    batch_entailment, entails_batch, group_by_body, group_by_body_keyed, sigma_fingerprint, sweep,
    BatchRun, BodyGroup, EntailBatchStats, EntailCache, Schedule, SweepRun, SweepState,
    DEFAULT_CACHE_MAX_BYTES, DEFAULT_CACHE_MAX_ENTRIES,
};
pub use certain::{certain_answers, certainly_holds, CertainAnswers};
pub use chase::{
    chase, chase_checkpointing, chase_extend_governed, chase_governed, chase_resume,
    chase_with_provenance, core_chase, ChaseBudget, ChaseOutcome, ChaseResult, ChaseVariant,
    DerivationStep, Provenance,
};
pub use checkpoint::{tgds_fingerprint, BatchCheckpoint, ChaseCheckpoint, CheckpointError};
pub use countermodel::{
    finite_model, refute_by_countermodel, refute_by_countermodel_governed, SearchBudget,
};
pub use entail::{
    decide, decide_all, entails, entails_all, entails_auto, entails_auto_cached,
    entails_edd_under_tgds, equivalent, Entailment,
};
pub use faults::{FaultPlan, FaultSite, FAULT_SITES};
pub use govern::CancelToken;
pub use linear::{certainly_holds_by_rewriting, entails_linear, entails_linear_governed};
pub use memory::MemoryAccountant;
pub use satisfy::{satisfies_edd, satisfies_egd, satisfies_tgd, satisfies_tgds, violation};
pub use stats::ChaseStats;
pub use termination::{is_weakly_acyclic, PositionGraph};
pub use universal::universal_hom_into;
