//! # tgdkit-serve
//!
//! Entailment-as-a-service on top of the tgdkit engine: a long-lived,
//! multi-tenant server that accepts ontologies and
//! entailment/batch-entailment/rewrite requests over a length-prefixed
//! wire protocol and schedules them preemptively.
//!
//! The procedures served here are 2EXPTIME in the worst case (the
//! rewriting characterizations of the source paper), so a fair server
//! cannot run requests to completion: the [`scheduler`] runs each request
//! for a quantum, suspends long runs at the engine's body-group
//! boundaries (the serial schedule of its one batch and rewrite entry
//! points, `batch_entailment` and `rewrite`), round-robins across tenants,
//! and resumes. Because suspension rides the same byte-exact checkpoint
//! machinery as the memory trips, **verdicts under time-slicing are
//! identical to dedicated runs** — property-tested in
//! `tests/proptest_serve.rs` and re-checked end-to-end by the
//! [`smoke`] workload CI runs.
//!
//! Tenants with a server `--data-dir` additionally get a **durable
//! knowledge base** (`KbApply`/`KbQuery` frames): per-tenant
//! [`tgdkit_store::DurableKb`] stores whose acknowledged batches survive
//! crashes and restarts, and whose WALs are flushed by the graceful
//! shutdown path ([`Scheduler::shutdown_graceful`]).
//!
//! Module map:
//! - [`proto`]: the `TGCK`-framed wire protocol (requests, responses,
//!   stream framing);
//! - [`job`]: one admitted request, runnable a slice at a time;
//! - [`tenant`]: per-tenant admission limits, entailment cache,
//!   byte accounting, counters, durable knowledge-base slot;
//! - [`scheduler`]: worker threads + round-robin ring over tenants;
//! - [`server`]: TCP accept loop, connection-per-request framing;
//! - [`client`]: minimal blocking client;
//! - [`smoke`]: the mixed pathological/small workload used by
//!   `tgdkit-serve --self-test` and the bench probe.

pub mod client;
pub mod job;
pub mod proto;
pub mod scheduler;
pub mod server;
pub mod smoke;
pub mod tenant;

pub use client::{Client, ClientConfig};
pub use job::{Job, JobOutput, JobStep, SliceLimit};
pub use proto::{Request, Response, TenantSnapshot, WireFact, WireStats};
pub use scheduler::{DrainReport, Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig};
pub use smoke::{run_smoke, SmokeConfig, SmokeReport};
pub use tenant::{KbSlot, TenantConfig, TenantState};
pub use tgdkit_core::RewriteTarget;
