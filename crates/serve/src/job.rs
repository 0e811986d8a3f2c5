//! One admitted request, runnable one scheduler slice at a time.
//!
//! A [`Job`] wraps the engine's two suspendable entry points
//! ([`batch_entailment`] and [`rewrite()`], each taking an optional
//! checkpoint to resume) behind a single [`Job::run_slice`]: the scheduler
//! hands it a [`SliceLimit`], the job runs until it finishes or the engine
//! suspends at the next body-group boundary, and a suspended job carries
//! its checkpoint to the next slice. Because suspension rides the exact
//! same checkpoint machinery as the memory trips, a time-sliced job's
//! verdicts are byte-identical to a dedicated run — the property
//! `proptest_serve.rs` exercises.
//!
//! The job also tells a *quantum* suspension apart from a *byte-budget*
//! trip: both return a checkpoint, but only a trip increments the engine's
//! `mem_trips` counter. Trips fail the request (the tenant exceeded its
//! own budget); quantum suspensions re-queue it.

use std::time::Duration;

use tgdkit_chase::{
    batch_entailment, BatchCheckpoint, CancelToken, ChaseBudget, EntailCache, Entailment,
};
use tgdkit_core::{rewrite, RewriteCheckpoint, RewriteOptions, RewriteOutcome, RewriteTarget};
use tgdkit_logic::{parse_program, parse_tgds, Schema, Tgd, TgdSet};

use crate::proto::{Request, WireStats};

/// How long one scheduler slice may run before the engine suspends at the
/// next resumable boundary.
#[derive(Debug, Clone, Copy)]
pub enum SliceLimit {
    /// Suspend after this many suspension-boundary checks — deterministic,
    /// used by the interleaving proptest. `Checks(0)` suspends at the
    /// *first* boundary, before any work: a valid checkpoint, but a slice
    /// that makes no progress — schedulers must use `k >= 1` (or a wall
    /// quantum) to guarantee forward progress.
    Checks(u64),
    /// Suspend when this much wall clock has elapsed — what the server's
    /// scheduler uses.
    Wall(Duration),
    /// Never suspend (dedicated run).
    Unlimited,
}

impl SliceLimit {
    fn token(self) -> CancelToken {
        match self {
            SliceLimit::Checks(k) => CancelToken::with_suspend_after_checks(k),
            SliceLimit::Wall(q) => CancelToken::with_quantum(q),
            SliceLimit::Unlimited => CancelToken::new(),
        }
    }
}

/// What a slice produced.
#[derive(Debug)]
pub enum JobStep {
    /// The request finished; respond with the output.
    Done(JobOutput),
    /// The engine suspended on the slice limit; re-queue the job.
    Suspended,
    /// The request tripped its own byte budget; fail it (other tenants —
    /// and this tenant's other requests — are untouched).
    MemExceeded,
    /// The request failed outright (e.g. a checkpoint/context mismatch,
    /// which cannot happen for jobs built by [`Job::build`] but is
    /// surfaced rather than swallowed).
    Failed(String),
}

/// Final output of a finished job.
#[derive(Debug)]
pub enum JobOutput {
    /// Entailment verdicts in candidate order.
    Verdicts(Vec<Entailment>),
    /// Rewrite outcome; rewritten members are rendered as program text.
    Rewrite {
        /// The engine's outcome.
        outcome: RewriteOutcome,
        /// `outcome`'s rewriting rendered through the request schema
        /// (empty unless rewritten).
        rewritten: Vec<String>,
    },
}

enum JobKind {
    Batch {
        schema: Schema,
        sigma: Vec<Tgd>,
        candidates: Vec<Tgd>,
        checkpoint: Option<Box<BatchCheckpoint>>,
    },
    Rewrite {
        set: TgdSet,
        opts: RewriteOptions,
        target: RewriteTarget,
        checkpoint: Option<Box<RewriteCheckpoint>>,
    },
}

/// An admitted, parsed request plus its suspension state.
pub struct Job {
    kind: JobKind,
    budget: ChaseBudget,
    /// Engine `mem_trips` observed so far — cumulative across resumes, so
    /// a slice that raises it witnessed a *new* byte-budget trip.
    mem_trips_seen: usize,
    /// Execution counters reported back to the client.
    pub stats: WireStats,
}

impl Job {
    /// Parses a request into a runnable job. Parse and validation errors
    /// are returned as the message for an error response.
    pub fn build(request: &Request) -> Result<Job, String> {
        match request {
            Request::Entail {
                budget,
                program,
                candidate,
                ..
            } => Self::build_batch(*budget, program, candidate),
            Request::Batch {
                budget,
                program,
                candidates,
                ..
            } => Self::build_batch(*budget, program, candidates),
            Request::Rewrite {
                budget,
                program,
                target,
                ..
            } => {
                let parsed =
                    parse_program(program).map_err(|e| format!("ontology parse error: {e}"))?;
                let tgds = parsed.tgds();
                if tgds.is_empty() {
                    return Err("ontology has no tgds".into());
                }
                let set = TgdSet::new(parsed.schema, tgds)
                    .map_err(|e| format!("invalid ontology: {e}"))?;
                let opts = RewriteOptions {
                    budget: *budget,
                    ..RewriteOptions::default()
                };
                Ok(Job {
                    kind: JobKind::Rewrite {
                        set,
                        opts,
                        target: *target,
                        checkpoint: None,
                    },
                    budget: *budget,
                    mem_trips_seen: 0,
                    stats: WireStats::default(),
                })
            }
            Request::Stats
            | Request::Shutdown
            | Request::KbApply { .. }
            | Request::KbQuery { .. } => {
                Err("control and knowledge-base requests are not schedulable jobs".into())
            }
        }
    }

    fn build_batch(budget: ChaseBudget, program: &str, candidates: &str) -> Result<Job, String> {
        let parsed = parse_program(program).map_err(|e| format!("ontology parse error: {e}"))?;
        let mut schema = parsed.schema;
        let sigma = parsed
            .dependencies
            .iter()
            .filter_map(|d| d.as_tgd().cloned())
            .collect::<Vec<_>>();
        let cands = parse_tgds(&mut schema, candidates)
            .map_err(|e| format!("candidate parse error: {e}"))?;
        if cands.is_empty() {
            return Err("no candidates to check".into());
        }
        Ok(Job {
            kind: JobKind::Batch {
                schema,
                sigma,
                candidates: cands,
                checkpoint: None,
            },
            budget,
            mem_trips_seen: 0,
            stats: WireStats::default(),
        })
    }

    /// `true` when the job has a checkpoint, i.e. it has been suspended at
    /// least once and the next slice resumes rather than starts.
    pub fn is_suspended(&self) -> bool {
        match &self.kind {
            JobKind::Batch { checkpoint, .. } => checkpoint.is_some(),
            JobKind::Rewrite { checkpoint, .. } => checkpoint.is_some(),
        }
    }

    /// Runs the job for one slice against `cache`, updating the wire stats
    /// and stashing the new checkpoint when the engine suspends.
    pub fn run_slice(&mut self, cache: &EntailCache, limit: SliceLimit) -> JobStep {
        let token = limit.token();
        self.stats.quanta += 1;
        let hits_before = cache.hits() as u64;
        let misses_before = cache.misses() as u64;
        let step = match &mut self.kind {
            JobKind::Batch {
                schema,
                sigma,
                candidates,
                checkpoint,
            } => {
                let resume = checkpoint.take();
                let run = batch_entailment(
                    schema,
                    sigma,
                    candidates,
                    self.budget,
                    Some(cache),
                    &token,
                    resume.as_deref(),
                );
                let (verdicts, stats, new_cp) = match run {
                    Ok(run) => run,
                    Err(e) => return JobStep::Failed(format!("resume rejected: {e}")),
                };
                let peak = stats.chase.mem_peak_bytes as u64;
                self.stats.mem_peak_bytes = self.stats.mem_peak_bytes.max(peak);
                match new_cp {
                    None => JobStep::Done(JobOutput::Verdicts(verdicts)),
                    Some(cp) => {
                        *checkpoint = Some(cp);
                        Self::suspension(
                            &mut self.stats,
                            &mut self.mem_trips_seen,
                            stats.chase.mem_trips,
                        )
                    }
                }
            }
            JobKind::Rewrite {
                set,
                opts,
                target,
                checkpoint,
            } => {
                let resume = checkpoint.take();
                let run = rewrite(set, *target, opts, cache, &token, resume.as_deref());
                let (outcome, stats, new_cp) = match run {
                    Ok(run) => run,
                    Err(e) => return JobStep::Failed(format!("resume rejected: {e}")),
                };
                self.stats.mem_peak_bytes =
                    self.stats.mem_peak_bytes.max(stats.mem_peak_bytes as u64);
                match (outcome, new_cp) {
                    (RewriteOutcome::Suspended, Some(cp)) => {
                        *checkpoint = Some(cp);
                        Self::suspension(&mut self.stats, &mut self.mem_trips_seen, stats.mem_trips)
                    }
                    (RewriteOutcome::Suspended, None) => {
                        return JobStep::Failed("engine suspended without a checkpoint".into())
                    }
                    (outcome, _) => {
                        let rewritten = match &outcome {
                            RewriteOutcome::Rewritten(tgds) => tgds
                                .iter()
                                .map(|t| format!("{}.", t.display(set.schema())))
                                .collect(),
                            _ => Vec::new(),
                        };
                        JobStep::Done(JobOutput::Rewrite { outcome, rewritten })
                    }
                }
            }
        };
        self.stats.cache_hits += cache.hits() as u64 - hits_before;
        self.stats.cache_misses += cache.misses() as u64 - misses_before;
        step
    }

    /// Classifies a suspension by the engine's cumulative `mem_trips`: a
    /// new trip means the request exceeded its own byte budget, anything
    /// else is a quantum expiry to re-queue.
    fn suspension(stats: &mut WireStats, trips_seen: &mut usize, trips: usize) -> JobStep {
        if trips > *trips_seen {
            *trips_seen = trips;
            JobStep::MemExceeded
        } else {
            stats.suspensions += 1;
            JobStep::Suspended
        }
    }

    /// Runs the job to completion in dedicated (unlimited) slices —
    /// reference execution for equivalence tests.
    pub fn run_to_completion(&mut self, cache: &EntailCache) -> JobStep {
        loop {
            match self.run_slice(cache, SliceLimit::Unlimited) {
                JobStep::Suspended => continue,
                step => return step,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::{DEFAULT_CACHE_MAX_BYTES, DEFAULT_CACHE_MAX_ENTRIES};

    fn cache() -> EntailCache {
        EntailCache::with_capacity(DEFAULT_CACHE_MAX_ENTRIES, DEFAULT_CACHE_MAX_BYTES)
    }

    fn entail_request(candidate: &str) -> Request {
        Request::Entail {
            tenant: "t".into(),
            budget: ChaseBudget::default(),
            program: "R(x0, x1) -> S(x1). S(x0) -> T(x0).".into(),
            candidate: candidate.into(),
        }
    }

    #[test]
    fn entail_job_completes_with_verdicts() {
        let mut job = Job::build(&entail_request("R(x0, x1) -> T(x1).")).unwrap();
        let cache = cache();
        match job.run_slice(&cache, SliceLimit::Unlimited) {
            JobStep::Done(JobOutput::Verdicts(v)) => {
                assert_eq!(v, vec![Entailment::Proved]);
            }
            other => panic!("expected verdicts, got {other:?}"),
        }
        assert_eq!(job.stats.quanta, 1);
        assert_eq!(job.stats.suspensions, 0);
    }

    #[test]
    fn tiny_checks_slice_suspends_then_finishes_identically() {
        let candidates = "R(x0, x1) -> T(x1). T(x0) -> S(x0). S(x0) -> T(x0).";
        let make = || {
            Job::build(&Request::Batch {
                tenant: "t".into(),
                budget: ChaseBudget::default(),
                program: "R(x0, x1) -> S(x1). S(x0) -> T(x0).".into(),
                candidates: candidates.into(),
            })
            .unwrap()
        };

        let cache_a = cache();
        let mut dedicated = make();
        let JobStep::Done(JobOutput::Verdicts(reference)) = dedicated.run_to_completion(&cache_a)
        else {
            panic!("dedicated run failed");
        };

        // One body group per slice (`Checks(0)` would suspend *before* the
        // first group and make no progress): three groups → two suspensions
        // before completion.
        let cache_b = cache();
        let mut sliced = make();
        let mut verdicts = None;
        for _ in 0..16 {
            match sliced.run_slice(&cache_b, SliceLimit::Checks(1)) {
                JobStep::Suspended => {
                    assert!(sliced.is_suspended());
                    continue;
                }
                JobStep::Done(JobOutput::Verdicts(v)) => {
                    verdicts = Some(v);
                    break;
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert_eq!(verdicts.expect("sliced run finished"), reference);
        assert!(sliced.stats.suspensions >= 2);
        assert!(sliced.stats.quanta > dedicated.stats.quanta);
    }

    #[test]
    fn byte_tripping_job_reports_mem_exceeded() {
        let mut job = Job::build(&Request::Batch {
            tenant: "t".into(),
            budget: ChaseBudget {
                max_facts: 100_000,
                max_rounds: 1_000,
                max_bytes: 1, // everything trips
            },
            program: "R(x0, x1) -> exists z0 : R(x1, z0).".into(),
            // Two distinct body groups: the first one's chase residency
            // trips the accountant at the second group boundary, which is
            // where the engine suspends with the trip recorded.
            candidates: "R(x0, x1) -> R(x1, x0). R(x0, x0) -> R(x0, x0).".into(),
        })
        .unwrap();
        let cache = cache();
        match job.run_slice(&cache, SliceLimit::Unlimited) {
            JobStep::MemExceeded => {}
            other => panic!("expected MemExceeded, got {other:?}"),
        }
    }

    #[test]
    fn control_requests_are_not_jobs() {
        assert!(Job::build(&Request::Stats).is_err());
        assert!(Job::build(&Request::Shutdown).is_err());
    }

    #[test]
    fn parse_errors_become_messages() {
        let err = match Job::build(&entail_request("this is not a tgd")) {
            Err(e) => e,
            Ok(_) => panic!("nonsense parsed"),
        };
        assert!(err.contains("parse error"), "{err}");
    }
}
