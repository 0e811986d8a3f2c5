//! The rewriting procedures of paper §9.2: Algorithm 1
//! (`Rewrite(GTGD, LTGD)`, Theorem 9.1) and Algorithm 2
//! (`Rewrite(FGTGD, GTGD)`, Theorem 9.2).
//!
//! Both algorithms are instances of one scheme, justified by the
//! Linearization Lemma (6.3) and the Guardedization Lemma (7.3): if an
//! equivalent set in the weaker class exists at all, one exists within
//! `C_{n,m}` for the input's own variable profile `(n, m)`. The procedure
//! therefore:
//!
//! 1. enumerates the canonical candidate space `C_{n,m}` over the schema
//!    ([`crate::enumerate`]);
//! 2. keeps `Σ' = {σ ∈ C_{n,m} | Σ ⊨ σ}` (chase-based entailment, in
//!    parallel across candidates);
//! 3. answers *rewritable with `Σ'`* iff `Σ' ⊨ Σ`.
//!
//! Entailment under non-weakly-acyclic sets may return `Unknown`; the
//! procedure then reports [`RewriteOutcome::Inconclusive`] rather than
//! guessing. Similarly, a failed search with truncated atom budgets is
//! `Inconclusive`, while a failed search over the exhaustive space is a
//! definitive [`RewriteOutcome::NotRewritable`].

use crate::checkpoint::{keys_fingerprint, CandidateSpace, RewriteCheckpoint, SpaceMemo};
use crate::enumerate::{
    guarded_candidates_governed, linear_candidates_governed, EnumOptions, Enumeration,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use tgdkit_chase::faults::INJECTED_PANIC;
use tgdkit_chase::{
    entails_all_cached_governed, entails_auto_cached_governed, evaluate_group, group_by_body,
    group_by_body_keyed, sigma_fingerprint, tgds_fingerprint, CancelToken, ChaseBudget,
    CheckpointError, EntailBatchStats, EntailCache, Entailment, FaultSite, MemoryAccountant,
};
use tgdkit_logic::{Schema, Tgd, TgdSet, TgdVariantKey};

/// Options for the rewriting procedures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Chase budget per entailment check.
    pub budget: ChaseBudget,
    /// Candidate enumeration budgets.
    pub enumeration: EnumOptions,
    /// Run the candidate filtering on all available cores.
    pub parallel: bool,
}

/// The answer of a rewriting procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteOutcome {
    /// An equivalent set in the target class, minimized by removing
    /// candidates entailed by the rest.
    Rewritten(Vec<Tgd>),
    /// No equivalent set exists (definitive: the candidate space was
    /// exhaustive and every entailment check was decisive).
    NotRewritable,
    /// The search was cut short (chase budget exhausted, or atom budgets
    /// below the exhaustive bound) without finding a rewriting.
    Inconclusive,
    /// The run was cancelled (deadline expired or [`CancelToken::cancel`]
    /// was called) before the procedure could decide. Like
    /// [`RewriteOutcome::Inconclusive`] this never contradicts what an
    /// uncancelled run would answer; [`RewriteStats`] still describes the
    /// work completed before the cut.
    Cancelled,
    /// The run suspended on its memory budget
    /// ([`ChaseBudget::max_bytes`], or an injected
    /// [`FaultSite::MemBudgetTrip`]) at a body-group boundary. Only the
    /// checkpointing entry points ([`guarded_to_linear_checkpointing`] /
    /// [`frontier_guarded_to_guarded_checkpointing`]) report this; they
    /// return the [`RewriteCheckpoint`] that resumes the run alongside.
    Suspended,
}

impl RewriteOutcome {
    /// The rewriting, if one was found.
    pub fn rewriting(&self) -> Option<&[Tgd]> {
        match self {
            RewriteOutcome::Rewritten(tgds) => Some(tgds),
            _ => None,
        }
    }
}

/// Statistics of a rewriting run, for the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// Number of candidates enumerated (after dedup).
    pub candidates: usize,
    /// Number of candidates entailed by the input (the `Σ'` of the paper).
    pub entailed: usize,
    /// Number of entailment checks that returned `Unknown`.
    pub unknown_checks: usize,
    /// Whether the candidate space was exhaustive.
    pub exhaustive: bool,
    /// Size of the minimized rewriting (0 if none).
    pub rewriting_size: usize,
    /// Distinct canonical bodies among the candidates.
    pub body_groups: usize,
    /// Frozen bodies actually chased during candidate filtering (the rest
    /// were shared, cached, or settled by the linear fast path).
    pub bodies_chased: usize,
    /// Heads decided by an indexed hom probe into a shared chase result.
    pub heads_probed: usize,
    /// Candidate verdicts served from the [`EntailCache`] during filtering.
    pub cache_hits: usize,
    /// Cache lookups that missed during filtering.
    pub cache_misses: usize,
    /// Work-stealing imbalance: body groups claimed by workers beyond an
    /// even static split (`Σ_w max(0, claimed_w − ⌈groups/workers⌉)`).
    /// Non-zero means the dynamic scheduler absorbed skew that a
    /// fixed-chunk split would have serialized.
    pub steals: usize,
    /// Whether the run was cancelled (mirrors
    /// [`RewriteOutcome::Cancelled`], but also set when cancellation
    /// arrived too late to change the outcome).
    pub cancelled: bool,
    /// Panics contained during candidate evaluation: each one poisoned a
    /// single body group, whose candidates settled as `Unknown` while every
    /// other group's verdict is untouched (includes panics the chase layer
    /// contained, via [`tgdkit_chase::ChaseStats::panics_contained`]).
    pub panics_contained: usize,
    /// Peak estimated resident bytes observed by the memory accounting
    /// (chase arenas; for the checkpointing entry points, also entailment
    /// cache residency at group boundaries).
    pub mem_peak_bytes: usize,
    /// Memory-budget trips (real or injected) during the run.
    pub mem_trips: usize,
    /// Checkpoint resumptions folded into this run's figures.
    pub resumes: usize,
    /// Keys evicted from the bounded [`EntailCache`] during the run.
    pub evictions: usize,
}

/// Algorithm 1 (paper §9.2, `G-to-L`): rewrites a set of **guarded** tgds
/// into an equivalent set of **linear** tgds, if one exists.
///
/// ```
/// use tgdkit_logic::{parse_tgds, Schema, TgdSet};
/// use tgdkit_core::{guarded_to_linear, RewriteOptions, RewriteOutcome};
/// let mut schema = Schema::default();
/// // A guarded set whose side atom R(x,x) is semantically redundant (the
/// // second rule subsumes the first), so a linear equivalent exists.
/// let tgds = parse_tgds(&mut schema, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).").unwrap();
/// let set = TgdSet::new(schema, tgds).unwrap();
/// let outcome = guarded_to_linear(&set, &RewriteOptions::default());
/// assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
/// ```
pub fn guarded_to_linear(set: &TgdSet, opts: &RewriteOptions) -> RewriteOutcome {
    rewrite(set, opts, Target::Linear, &CancelToken::new()).0
}

/// Algorithm 2 (paper §9.2, `FG-to-G`): rewrites a set of
/// **frontier-guarded** tgds into an equivalent set of **guarded** tgds, if
/// one exists.
pub fn frontier_guarded_to_guarded(set: &TgdSet, opts: &RewriteOptions) -> RewriteOutcome {
    rewrite(set, opts, Target::Guarded, &CancelToken::new()).0
}

/// [`guarded_to_linear`] under a [`CancelToken`]: a deadline expiry or an
/// explicit [`CancelToken::cancel`] stops the run cooperatively (within one
/// chase round / one body group) and yields [`RewriteOutcome::Cancelled`]
/// with the statistics of the work completed so far.
///
/// ```
/// use std::time::Duration;
/// use tgdkit_chase::CancelToken;
/// use tgdkit_core::{guarded_to_linear_governed, RewriteOptions, RewriteOutcome};
/// use tgdkit_logic::{parse_tgds, Schema, TgdSet};
/// let mut schema = Schema::default();
/// let tgds = parse_tgds(&mut schema, "R(x,y), R(x,x) -> T(x).").unwrap();
/// let set = TgdSet::new(schema, tgds).unwrap();
/// let token = CancelToken::new();
/// token.cancel(); // already expired: the run must stop immediately
/// let (outcome, stats) = guarded_to_linear_governed(&set, &RewriteOptions::default(), &token);
/// assert_eq!(outcome, RewriteOutcome::Cancelled);
/// assert!(stats.cancelled);
/// ```
pub fn guarded_to_linear_governed(
    set: &TgdSet,
    opts: &RewriteOptions,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    rewrite(set, opts, Target::Linear, token)
}

/// [`frontier_guarded_to_guarded`] under a [`CancelToken`]; see
/// [`guarded_to_linear_governed`].
pub fn frontier_guarded_to_guarded_governed(
    set: &TgdSet,
    opts: &RewriteOptions,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    rewrite(set, opts, Target::Guarded, token)
}

/// [`guarded_to_linear`] with run statistics.
pub fn guarded_to_linear_with_stats(
    set: &TgdSet,
    opts: &RewriteOptions,
) -> (RewriteOutcome, RewriteStats) {
    rewrite(set, opts, Target::Linear, &CancelToken::new())
}

/// [`frontier_guarded_to_guarded`] with run statistics.
pub fn frontier_guarded_to_guarded_with_stats(
    set: &TgdSet,
    opts: &RewriteOptions,
) -> (RewriteOutcome, RewriteStats) {
    rewrite(set, opts, Target::Guarded, &CancelToken::new())
}

/// [`guarded_to_linear_with_stats`] against a caller-provided
/// [`EntailCache`], so repeated rewrites (equivalent inputs, warm reruns,
/// expressibility sweeps) reuse entailment verdicts across calls.
pub fn guarded_to_linear_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_cached(set, opts, Target::Linear, cache, &CancelToken::new())
}

/// [`frontier_guarded_to_guarded_with_stats`] against a caller-provided
/// [`EntailCache`].
pub fn frontier_guarded_to_guarded_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_cached(set, opts, Target::Guarded, cache, &CancelToken::new())
}

/// [`guarded_to_linear_cached`] under a [`CancelToken`]. Verdicts decided
/// before the cut are cached (and sound); cancellation-induced `Unknown`s
/// are not persisted, so a warm rerun with a fresh token re-decides them.
pub fn guarded_to_linear_cached_governed(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_cached(set, opts, Target::Linear, cache, token)
}

/// [`frontier_guarded_to_guarded_cached`] under a [`CancelToken`]; see
/// [`guarded_to_linear_cached_governed`].
pub fn frontier_guarded_to_guarded_cached_governed(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_cached(set, opts, Target::Guarded, cache, token)
}

/// [`guarded_to_linear_cached_governed`] with **suspend/resume support**:
/// the candidate filtering charges estimated resident memory (entailment
/// cache bytes + peak chase arena) against [`ChaseBudget::max_bytes`] at
/// every body-group boundary, and a trip — real, or injected at
/// [`FaultSite::MemBudgetTrip`] — suspends the run as
/// [`RewriteOutcome::Suspended`] with a [`RewriteCheckpoint`] capturing
/// the verdict slots and group progress so far.
///
/// Checkpointing pins the **serial** evaluator (`opts.parallel` is
/// ignored): group completion order must be deterministic for the done
/// flags to mean the same thing on resume, and the serial and parallel
/// evaluators are verdict-identical anyway. The decision tail after
/// filtering (`Σ' ⊨ Σ`, minimization) runs without suspension points —
/// it revisits already-cached verdicts and is cheap next to the sweep.
///
/// Feeding the checkpoint to [`guarded_to_linear_resume`] — with the same
/// budget after an injected trip, or a larger `max_bytes` (or a smaller
/// cache) after a real one — finishes the run with an outcome identical
/// to an uninterrupted run's. A run that completes (or is merely
/// cancelled) returns no checkpoint.
pub fn guarded_to_linear_checkpointing(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>) {
    rewrite_checkpointed(set, opts, Target::Linear, cache, token, None)
        .expect("fresh runs have no checkpoint to mismatch")
}

/// [`guarded_to_linear_checkpointing`] for Algorithm 2 (`FG-to-G`).
pub fn frontier_guarded_to_guarded_checkpointing(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>) {
    rewrite_checkpointed(set, opts, Target::Guarded, cache, token, None)
        .expect("fresh runs have no checkpoint to mismatch")
}

/// Resumes a suspended [`guarded_to_linear_checkpointing`] run.
///
/// `set` and `opts.enumeration` must be the ones the checkpoint was taken
/// under — resume re-enumerates the candidate space (deterministic; an
/// in-process checkpoint instead reuses the space it was cut from when
/// schema, profile, options and target all match) and validates the
/// input-set and enumeration fingerprints, the target class, and the slot
/// counts; any mismatch is a typed
/// [`CheckpointError::ContextMismatch`], never a wrong answer.
/// `opts.budget` is absolute, not incremental.
pub fn guarded_to_linear_resume(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    checkpoint: &RewriteCheckpoint,
    token: &CancelToken,
) -> Result<(RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>), CheckpointError> {
    rewrite_checkpointed(set, opts, Target::Linear, cache, token, Some(checkpoint))
}

/// Resumes a suspended [`frontier_guarded_to_guarded_checkpointing`] run;
/// see [`guarded_to_linear_resume`].
pub fn frontier_guarded_to_guarded_resume(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
    checkpoint: &RewriteCheckpoint,
    token: &CancelToken,
) -> Result<(RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>), CheckpointError> {
    rewrite_checkpointed(set, opts, Target::Guarded, cache, token, Some(checkpoint))
}

/// Filters an explicit candidate pool through the evaluator the rewriting
/// procedures use internally: body-grouped chase sharing, the entailment
/// cache, and (when `parallel`) work stealing over the body groups.
///
/// Exposed for bulk entailment filtering and benchmarking; returns
/// `(verdicts in candidate order, batch stats, steals)`.
pub fn evaluate_pool(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
) -> (Vec<Entailment>, EntailBatchStats, usize) {
    let eval = evaluate_candidates(
        schema,
        sigma,
        candidates,
        None,
        budget,
        parallel,
        cache,
        &CancelToken::new(),
    );
    (eval.verdicts, eval.stats, eval.steals)
}

/// [`evaluate_pool`] for an enumerator-produced pool: `keys` are the
/// candidates' variant keys (parallel to `candidates`, as in
/// [`Enumeration::keys`](crate::enumerate::Enumeration)), so body-grouping
/// reuses them instead of re-running the canonical ordering search per
/// candidate. Verdicts are identical to [`evaluate_pool`].
pub fn evaluate_pool_keyed(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    keys: &[TgdVariantKey],
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
) -> (Vec<Entailment>, EntailBatchStats, usize) {
    let eval = evaluate_candidates(
        schema,
        sigma,
        candidates,
        Some(keys),
        budget,
        parallel,
        cache,
        &CancelToken::new(),
    );
    (eval.verdicts, eval.stats, eval.steals)
}

/// [`evaluate_pool`] under a [`CancelToken`]: cancellation stops the sweep
/// at the next group boundary (remaining candidates settle as `Unknown`),
/// and a panic inside one group's evaluation is contained to that group.
pub fn evaluate_pool_governed(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
    token: &CancelToken,
) -> PoolEval {
    evaluate_candidates(
        schema, sigma, candidates, None, budget, parallel, cache, token,
    )
}

/// Result of [`evaluate_pool_governed`] / the internal candidate evaluator.
#[derive(Debug, Default)]
pub struct PoolEval {
    /// One verdict per candidate, in input order.
    pub verdicts: Vec<Entailment>,
    /// Sharing/caching counters for the sweep.
    pub stats: EntailBatchStats,
    /// Work-stealing imbalance (see [`RewriteStats::steals`]).
    pub steals: usize,
    /// Body groups whose evaluation panicked and was contained; their
    /// candidates report `Unknown`.
    pub panics_contained: usize,
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Linear,
    Guarded,
}

fn enumerate(
    schema: &Schema,
    n: usize,
    m: usize,
    opts: &RewriteOptions,
    target: Target,
    token: &CancelToken,
) -> Enumeration {
    match target {
        Target::Linear => linear_candidates_governed(schema, n, m, &opts.enumeration, token),
        Target::Guarded => guarded_candidates_governed(schema, n, m, &opts.enumeration, token),
    }
}

fn rewrite(
    set: &TgdSet,
    opts: &RewriteOptions,
    target: Target,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    // Fresh per-run cache: within one run it still pays (minimization and
    // the Σ' ⊨ Σ check revisit filtered candidates); callers wanting
    // cross-run reuse pass their own via the `_cached` entry points.
    let cache = EntailCache::new();
    rewrite_cached(set, opts, target, &cache, token)
}

fn rewrite_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    target: Target,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    let schema = set.schema();
    let (n, m) = set.profile();
    let enumeration = enumerate(schema, n, m, opts, target, token);
    let mut stats = RewriteStats {
        candidates: enumeration.tgds.len(),
        exhaustive: enumeration.exhaustive,
        ..Default::default()
    };

    // Σ' := { σ ∈ C_{n,m} | Σ ⊨ σ }.
    let eval = evaluate_candidates(
        schema,
        set.tgds(),
        &enumeration.tgds,
        Some(&enumeration.keys),
        opts.budget,
        opts.parallel,
        cache,
        token,
    );
    stats.body_groups = eval.stats.body_groups;
    stats.bodies_chased = eval.stats.bodies_chased;
    stats.heads_probed = eval.stats.heads_probed;
    stats.cache_hits = eval.stats.cache_hits;
    stats.cache_misses = eval.stats.cache_misses;
    stats.steals = eval.steals;
    stats.panics_contained = eval.panics_contained + eval.stats.chase.panics_contained;
    stats.mem_peak_bytes = eval.stats.chase.mem_peak_bytes;
    stats.mem_trips = eval.stats.chase.mem_trips;
    stats.evictions = eval.stats.evictions;
    conclude(set, opts, &enumeration, &eval.verdicts, stats, cache, token)
}

/// The decision tail shared by the plain and checkpointing procedures:
/// builds `Σ' = {σ | Σ ⊨ σ}` from the verdict slots, then answers
/// *rewritable with `Σ'`* iff `Σ' ⊨ Σ` (minimizing on success).
fn conclude(
    set: &TgdSet,
    opts: &RewriteOptions,
    enumeration: &Enumeration,
    verdicts: &[Entailment],
    mut stats: RewriteStats,
    cache: &EntailCache,
    token: &CancelToken,
) -> (RewriteOutcome, RewriteStats) {
    let schema = set.schema();
    let mut sigma_prime: Vec<Tgd> = Vec::new();
    for (candidate, verdict) in enumeration.tgds.iter().zip(verdicts) {
        match verdict {
            Entailment::Proved => sigma_prime.push(candidate.clone()),
            Entailment::Disproved => {}
            Entailment::Unknown => stats.unknown_checks += 1,
        }
    }
    stats.entailed = sigma_prime.len();
    if token.is_cancelled() {
        stats.cancelled = true;
        return (RewriteOutcome::Cancelled, stats);
    }

    // The paper's procedure: Σ' ≠ ∅ and Σ' ⊨ Σ.
    if sigma_prime.is_empty() {
        return (negative(&stats, enumeration), stats);
    }
    match entails_all_cached_governed(schema, &sigma_prime, set.tgds(), opts.budget, cache, token) {
        Entailment::Proved => {
            // A cancellation inside `minimize` only stops the pruning early:
            // the partially minimized Σ' is still a correct rewriting, so
            // the outcome stays `Rewritten` (with `stats.cancelled` set).
            let minimized = minimize(schema, sigma_prime, opts.budget, cache, token);
            stats.rewriting_size = minimized.len();
            stats.cancelled = token.is_cancelled();
            (RewriteOutcome::Rewritten(minimized), stats)
        }
        Entailment::Disproved => (negative(&stats, enumeration), stats),
        Entailment::Unknown => {
            if token.is_cancelled() {
                stats.cancelled = true;
                (RewriteOutcome::Cancelled, stats)
            } else {
                (RewriteOutcome::Inconclusive, stats)
            }
        }
    }
}

fn target_tag(target: Target) -> u8 {
    match target {
        Target::Linear => 1,
        Target::Guarded => 2,
    }
}

/// The checkpointing rewrite: a serial, resumable candidate filtering
/// sweep with memory charging at group boundaries, then the shared
/// decision tail. `resume` restores verdict slots and group progress from
/// a prior suspension after validating it belongs to this exact run.
fn rewrite_checkpointed(
    set: &TgdSet,
    opts: &RewriteOptions,
    target: Target,
    cache: &EntailCache,
    token: &CancelToken,
    resume: Option<&RewriteCheckpoint>,
) -> Result<(RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>), CheckpointError> {
    let schema = set.schema();
    let (n, m) = set.profile();
    let tag = target_tag(target);
    // An in-process checkpoint carries the space it was cut from; any
    // other resume re-enumerates, and the checks below hold either way.
    let enumeration = resume
        .and_then(|cp| cp.space.get(schema, (n, m), &opts.enumeration, tag))
        .unwrap_or_else(|| Arc::new(enumerate(schema, n, m, opts, target, token)));
    let sigma_fp = tgds_fingerprint(set.tgds());
    let enum_fp = keys_fingerprint(&enumeration.keys);
    let groups = group_by_body_keyed(&enumeration.tgds, &enumeration.keys);
    if let Some(cp) = resume {
        if cp.target != tag {
            return Err(CheckpointError::ContextMismatch("rewrite target class"));
        }
        if cp.sigma_fp != sigma_fp {
            return Err(CheckpointError::ContextMismatch("tgd set"));
        }
        if cp.enum_fp != enum_fp || cp.verdicts.len() != enumeration.tgds.len() {
            return Err(CheckpointError::ContextMismatch("candidate enumeration"));
        }
        if cp.done.len() != groups.len() {
            return Err(CheckpointError::ContextMismatch("body-group count"));
        }
    }
    let mut stats = RewriteStats {
        candidates: enumeration.tgds.len(),
        exhaustive: enumeration.exhaustive,
        ..Default::default()
    };
    let (mut batch, mut verdicts, mut done, mut panics, mut tainted) = match resume {
        Some(cp) => {
            let mut batch = cp.stats;
            batch.chase.resumes += 1;
            (
                batch,
                cp.verdicts.clone(),
                cp.done.clone(),
                cp.panics_contained,
                cp.cache_tainted,
            )
        }
        None => (
            EntailBatchStats {
                candidates: enumeration.tgds.len(),
                body_groups: groups.len(),
                ..Default::default()
            },
            vec![Entailment::Unknown; enumeration.tgds.len()],
            vec![false; groups.len()],
            0usize,
            false,
        ),
    };
    let accountant = MemoryAccountant::new(opts.budget.effective_max_bytes());
    let cache_fp = sigma_fingerprint(set.tgds());
    let evictions_before = cache.evictions();
    let mut suspended = false;
    for (gi, group) in groups.iter().enumerate() {
        if done[gi] {
            continue;
        }
        if token.is_cancelled() {
            break;
        }
        let resident = cache.approx_bytes() + batch.chase.mem_peak_bytes;
        let tripped = accountant.charge_to(resident) || token.fault(FaultSite::MemBudgetTrip);
        // Quantum expiry suspends at the same boundary as a byte trip but
        // does not count as one — the scheduler resumes with the same
        // budget (see `CancelToken::should_suspend`).
        if tripped || token.should_suspend() {
            if tripped {
                batch.chase.mem_trips += 1;
            }
            suspended = true;
            break;
        }
        match evaluate_group_contained(
            schema,
            set.tgds(),
            group,
            opts.budget,
            Some((cache, cache_fp)),
            &mut batch,
            token,
        ) {
            Some(group_verdicts) => {
                for (idx, v) in group_verdicts {
                    verdicts[idx] = v;
                }
            }
            None => panics += 1,
        }
        done[gi] = true;
    }
    batch.evictions += cache.evictions().saturating_sub(evictions_before);
    tainted = tainted || token.is_tainted();
    stats.body_groups = batch.body_groups;
    stats.bodies_chased = batch.bodies_chased;
    stats.heads_probed = batch.heads_probed;
    stats.cache_hits = batch.cache_hits;
    stats.cache_misses = batch.cache_misses;
    stats.panics_contained = panics + batch.chase.panics_contained;
    stats.mem_peak_bytes = batch.chase.mem_peak_bytes.max(accountant.peak_bytes());
    stats.mem_trips = batch.chase.mem_trips;
    stats.resumes = batch.chase.resumes;
    stats.evictions = batch.evictions;
    if suspended {
        let checkpoint = Box::new(RewriteCheckpoint {
            target: tag,
            sigma_fp,
            enum_fp,
            exhaustive: enumeration.exhaustive,
            done,
            verdicts,
            stats: batch,
            panics_contained: panics,
            cache_tainted: tainted,
            space: SpaceMemo::new(CandidateSpace {
                schema: schema.clone(),
                profile: (n, m),
                options: opts.enumeration,
                target: tag,
                enumeration: enumeration.clone(),
            }),
        });
        return Ok((RewriteOutcome::Suspended, stats, Some(checkpoint)));
    }
    let (outcome, stats) = conclude(set, opts, &enumeration, &verdicts, stats, cache, token);
    Ok((outcome, stats, None))
}

fn negative(stats: &RewriteStats, enumeration: &Enumeration) -> RewriteOutcome {
    if enumeration.exhaustive && stats.unknown_checks == 0 {
        RewriteOutcome::NotRewritable
    } else {
        RewriteOutcome::Inconclusive
    }
}

/// Removes candidates entailed by the remaining ones (greedy, keeping the
/// earlier, syntactically smaller candidates). Cancellation stops the
/// pruning early; the survivors still form a correct (merely less minimal)
/// rewriting.
fn minimize(
    schema: &Schema,
    tgds: Vec<Tgd>,
    budget: ChaseBudget,
    cache: &EntailCache,
    token: &CancelToken,
) -> Vec<Tgd> {
    // Drop tautologies and redundant head atoms first.
    let mut tgds: Vec<Tgd> = tgds.iter().filter_map(tgdkit_logic::simplify_tgd).collect();
    // Try to drop from the back (larger candidates were generated later).
    let mut i = tgds.len();
    while i > 0 {
        if token.is_cancelled() {
            break;
        }
        i -= 1;
        let candidate = tgds[i].clone();
        let rest: Vec<Tgd> = tgds
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, t)| t.clone())
            .collect();
        if entails_auto_cached_governed(schema, &rest, &candidate, budget, cache, token)
            == Entailment::Proved
        {
            tgds.remove(i);
        }
    }
    tgds
}

/// `Entailment` packed into a byte, so parallel workers can publish
/// verdicts into pre-sized atomic slots without locks.
fn encode_verdict(v: Entailment) -> u8 {
    match v {
        Entailment::Proved => 0,
        Entailment::Disproved => 1,
        Entailment::Unknown => 2,
    }
}

fn decode_verdict(b: u8) -> Entailment {
    match b {
        0 => Entailment::Proved,
        1 => Entailment::Disproved,
        _ => Entailment::Unknown,
    }
}

/// Evaluates one body group behind a panic barrier.
///
/// A panic inside the group (a bug in the chase/entailment stack, or a
/// fault injected at [`FaultSite::GroupEvalPanic`]) is caught here: the
/// group's candidates keep their pre-initialized `Unknown` verdicts, its
/// partial stats are discarded (a fresh local accumulator is absorbed only
/// on success), and the caller counts one contained panic. `Unknown` is
/// always sound, so containment can only degrade precision, never invert a
/// verdict.
fn evaluate_group_contained(
    schema: &Schema,
    sigma: &[Tgd],
    group: &tgdkit_chase::BodyGroup,
    budget: ChaseBudget,
    keyed: Option<(&EntailCache, u64)>,
    stats: &mut EntailBatchStats,
    token: &CancelToken,
) -> Option<Vec<(usize, Entailment)>> {
    let mut local = EntailBatchStats::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if token.fault(FaultSite::GroupEvalPanic) {
            panic!("{INJECTED_PANIC}: group evaluation");
        }
        evaluate_group(schema, sigma, group, budget, keyed, &mut local, token)
    }));
    match outcome {
        Ok(verdicts) => {
            stats.absorb(&local);
            Some(verdicts)
        }
        Err(_) => None,
    }
}

/// Filters candidates through the body-grouped, cache-aware evaluator
/// ([`evaluate_group`]): serially, or — when `parallel` — on all available
/// cores with **work stealing**.
///
/// The parallel scheduler is an atomic claim index over the body groups:
/// each worker repeatedly claims the next unevaluated group, so a worker
/// that drew cheap groups keeps pulling work while another grinds through an
/// expensive chase (the fixed-chunk split this replaces would have left it
/// idle). Verdicts are published into pre-sized per-candidate slots, so the
/// output vector — and therefore the rewriting built from it — is
/// byte-identical to the serial evaluation regardless of claim order.
///
/// Cancellation is honored at group-claim granularity (workers stop
/// claiming once the token trips; unevaluated candidates stay `Unknown`),
/// and each group evaluates behind [`evaluate_group_contained`]'s panic
/// barrier, so one poisoned group cannot take down the sweep — or the
/// process.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidates(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    keys: Option<&[TgdVariantKey]>,
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
    token: &CancelToken,
) -> PoolEval {
    // A token that tripped during enumeration must not pay for grouping:
    // non-keyed grouping canonicalizes every candidate (~1µs each), which
    // on a 20k pool is tens of milliseconds of post-deadline work. All
    // candidates settle as `Unknown`, same as an immediate break below.
    if token.is_cancelled() {
        return PoolEval {
            verdicts: vec![Entailment::Unknown; candidates.len()],
            stats: EntailBatchStats {
                candidates: candidates.len(),
                ..Default::default()
            },
            steals: 0,
            panics_contained: 0,
        };
    }
    // Enumerator-produced pools carry their variant keys (dedup computed
    // them anyway); grouping then skips the canonical ordering search.
    let groups = match keys {
        Some(keys) => group_by_body_keyed(candidates, keys),
        None => group_by_body(candidates),
    };
    let fingerprint = sigma_fingerprint(sigma);
    let mut stats = EntailBatchStats {
        candidates: candidates.len(),
        body_groups: groups.len(),
        ..Default::default()
    };
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(groups.len().max(1))
    } else {
        1
    };
    if workers <= 1 {
        let mut verdicts = vec![Entailment::Unknown; candidates.len()];
        let mut panics = 0usize;
        for group in &groups {
            if token.is_cancelled() {
                break;
            }
            match evaluate_group_contained(
                schema,
                sigma,
                group,
                budget,
                Some((cache, fingerprint)),
                &mut stats,
                token,
            ) {
                Some(group_verdicts) => {
                    for (idx, v) in group_verdicts {
                        verdicts[idx] = v;
                    }
                }
                None => panics += 1,
            }
        }
        return PoolEval {
            verdicts,
            stats,
            steals: 0,
            panics_contained: panics,
        };
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<AtomicU8> = (0..candidates.len())
        .map(|_| AtomicU8::new(encode_verdict(Entailment::Unknown)))
        .collect();
    let mut claims: Vec<usize> = Vec::with_capacity(workers);
    let mut panics = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, slots, groups) = (&next, &slots, &groups);
                scope.spawn(move || {
                    let mut local = EntailBatchStats::default();
                    let mut claimed = 0usize;
                    let mut contained = 0usize;
                    loop {
                        if token.is_cancelled() {
                            break;
                        }
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        if gi >= groups.len() {
                            break;
                        }
                        claimed += 1;
                        match evaluate_group_contained(
                            schema,
                            sigma,
                            &groups[gi],
                            budget,
                            Some((cache, fingerprint)),
                            &mut local,
                            token,
                        ) {
                            Some(group_verdicts) => {
                                for (idx, v) in group_verdicts {
                                    slots[idx].store(encode_verdict(v), Ordering::Release);
                                }
                            }
                            None => contained += 1,
                        }
                    }
                    (local, claimed, contained)
                })
            })
            .collect();
        for handle in handles {
            // Worker bodies contain per-group panics themselves; a panic
            // escaping here would be a bug in the scheduler shell, which is
            // worth aborting on.
            let (local, claimed, contained) = handle.join().expect("entailment worker panicked");
            stats.absorb(&local);
            claims.push(claimed);
            panics += contained;
        }
    });
    // `absorb` also summed the workers' zeroed candidates/body_groups;
    // restore the batch-level figures.
    stats.candidates = candidates.len();
    stats.body_groups = groups.len();
    let fair_share = groups.len().div_ceil(workers);
    let steals = claims
        .iter()
        .map(|&c| c.saturating_sub(fair_share))
        .sum::<usize>();
    let verdicts = slots
        .iter()
        .map(|s| decode_verdict(s.load(Ordering::Acquire)))
        .collect();
    PoolEval {
        verdicts,
        stats,
        steals,
        panics_contained: panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::equivalent;
    use tgdkit_logic::parse_tgds;

    fn set(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    fn assert_equivalent(schema: &Schema, a: &[Tgd], b: &[Tgd]) {
        assert_eq!(
            equivalent(schema, a, b, ChaseBudget::default()),
            Entailment::Proved,
            "sets not equivalent"
        );
    }

    #[test]
    fn redundant_guard_side_atom_is_linearized() {
        let mut s = Schema::default();
        // The side atom R(x,x) is subsumed whenever the second rule fires:
        // Σ ≡ { R(x,y) -> T(x) }.
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let outcome = guarded_to_linear(&sigma, &RewriteOptions::default());
        let rewriting = outcome.rewriting().expect("rewritable");
        assert!(rewriting.iter().all(Tgd::is_linear));
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn section_9_1_gadget_is_not_linearizable() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(x) -> T(x).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 8, // universe over {R/1,P/1,T/1} with 1 var: 3 atoms
                max_body_atoms: 8,
                max_candidates: 100_000,
            },
            ..Default::default()
        };
        let outcome = guarded_to_linear(&sigma, &opts);
        assert_eq!(outcome, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn already_linear_sets_roundtrip() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> exists z : R(y,z).");
        let outcome = guarded_to_linear(&sigma, &RewriteOptions::default());
        let rewriting = outcome.rewriting().expect("linear input stays linear");
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn section_9_1_fg_gadget_is_not_guardable() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(y) -> T(x).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 8,
                max_body_atoms: 8,
                max_candidates: 100_000,
            },
            ..Default::default()
        };
        let outcome = frontier_guarded_to_guarded(&sigma, &opts);
        assert_eq!(outcome, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn guardable_fg_set_is_guarded() {
        let mut s = Schema::default();
        // Frontier-guarded but not guarded as written; semantically the
        // side condition is implied: P(y) in the body is redundant given
        // the second rule makes every R-source P.
        let sigma = set(&mut s, "R(x,y) -> P(x). R(x,y), P(x) -> T(x).");
        // Σ ≡ { R(x,y) -> P(x), R(x,y) -> T(x) }: guarded (even linear).
        let outcome = frontier_guarded_to_guarded(&sigma, &RewriteOptions::default());
        let rewriting = outcome.rewriting().expect("rewritable");
        assert!(rewriting.iter().all(Tgd::is_guarded));
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let seq = guarded_to_linear(&sigma, &RewriteOptions::default());
        let par = guarded_to_linear(
            &sigma,
            &RewriteOptions {
                parallel: true,
                ..Default::default()
            },
        );
        // The work-stealing evaluator publishes verdicts into per-candidate
        // slots, so the rewriting must be *identical* to the serial one, not
        // merely equivalent.
        assert_eq!(seq, par, "work-stealing output diverged from serial");
        let rewriting = seq.rewriting().expect("rewritable");
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn sharing_and_cache_counters_are_populated() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let (outcome, stats) = guarded_to_linear_with_stats(
            &sigma,
            &RewriteOptions {
                parallel: true,
                ..Default::default()
            },
        );
        assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
        assert!(
            stats.body_groups > 0 && stats.body_groups < stats.candidates,
            "candidates share bodies: {} groups / {} candidates",
            stats.body_groups,
            stats.candidates
        );
        assert_eq!(stats.cache_misses, stats.candidates, "cold filtering pass");
        // The per-run cache pays off inside the Σ' ⊨ Σ check + minimization.
        assert!(stats.bodies_chased <= stats.body_groups);
    }

    #[test]
    fn shared_cache_warms_across_calls() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let cache = tgdkit_chase::EntailCache::new();
        let opts = RewriteOptions::default();
        let (cold_outcome, cold) = guarded_to_linear_cached(&sigma, &opts, &cache);
        let (warm_outcome, warm) = guarded_to_linear_cached(&sigma, &opts, &cache);
        assert_eq!(cold_outcome, warm_outcome);
        assert_eq!(warm.cache_hits, warm.candidates, "fully warm second run");
        assert_eq!(warm.bodies_chased, 0);
        assert!(cold.cache_misses > 0);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> T(x).");
        let (outcome, stats) = guarded_to_linear_with_stats(&sigma, &RewriteOptions::default());
        assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
        assert!(stats.candidates > 0);
        assert!(stats.entailed > 0);
        assert!(stats.rewriting_size >= 1);
    }

    #[test]
    fn in_process_resume_reuses_the_space_and_still_checks_context() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let opts = RewriteOptions::default();
        let clean = guarded_to_linear(&sigma, &opts);
        let token = CancelToken::with_suspend_after_checks(1);
        let (outcome, _, cp) =
            guarded_to_linear_checkpointing(&sigma, &opts, &EntailCache::new(), &token);
        assert_eq!(outcome, RewriteOutcome::Suspended);
        let cp = cp.expect("suspended runs return a checkpoint");
        let tag = target_tag(Target::Linear);
        let profile = sigma.profile();
        assert!(cp.space.get(&s, profile, &opts.enumeration, tag).is_some());
        let decoded = RewriteCheckpoint::decode(&cp.encode()).unwrap();
        assert!(decoded
            .space
            .get(&s, profile, &opts.enumeration, tag)
            .is_none());
        // The cached space and a re-enumerated one resume to the same answer.
        for resumed in [cp.as_ref(), &decoded] {
            let (outcome, _, rest) = guarded_to_linear_resume(
                &sigma,
                &opts,
                &EntailCache::new(),
                resumed,
                &CancelToken::new(),
            )
            .unwrap();
            assert!(rest.is_none());
            assert_eq!(outcome, clean);
        }
        // A memo built under other inputs is not reused: the context
        // checks still reject the checkpoint.
        let truncated = RewriteOptions {
            enumeration: EnumOptions {
                max_candidates: 5,
                ..opts.enumeration
            },
            ..opts
        };
        assert!(cp
            .space
            .get(&s, profile, &truncated.enumeration, tag)
            .is_none());
        assert!(matches!(
            guarded_to_linear_resume(
                &sigma,
                &truncated,
                &EntailCache::new(),
                &cp,
                &CancelToken::new()
            ),
            Err(CheckpointError::ContextMismatch("candidate enumeration"))
        ));
        assert!(matches!(
            frontier_guarded_to_guarded_resume(
                &sigma,
                &opts,
                &EntailCache::new(),
                &cp,
                &CancelToken::new()
            ),
            Err(CheckpointError::ContextMismatch("rewrite target class"))
        ));
    }

    #[test]
    fn truncated_budget_reports_inconclusive_not_negative() {
        let mut s = Schema::default();
        // Not linearizable; with a non-exhaustive head budget the answer
        // must be Inconclusive rather than NotRewritable... except the
        // candidate space here is small enough that even 1 head atom is
        // decisive through the Σ' ⊨ Σ check. Use a cap on candidates to
        // force truncation.
        let sigma = set(&mut s, "R(x,y), P(x,y) -> T(x,y).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 1,
                max_body_atoms: 1,
                max_candidates: 5,
            },
            ..Default::default()
        };
        let outcome = guarded_to_linear(&sigma, &opts);
        assert_eq!(outcome, RewriteOutcome::Inconclusive);
    }

    #[test]
    fn minimization_removes_redundant_members() {
        let mut s = Schema::default();
        // Both R(x,y) -> T(x) and R(x,x) -> T(x) are entailed; the latter
        // is redundant.
        let sigma = set(&mut s, "R(x,y) -> T(x).");
        let outcome = guarded_to_linear(&sigma, &RewriteOptions::default());
        let rewriting = outcome.rewriting().unwrap();
        // Minimized: no member entailed by the others.
        for (i, tgd) in rewriting.iter().enumerate() {
            let rest: Vec<Tgd> = rewriting
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, t)| t.clone())
                .collect();
            assert_ne!(
                tgdkit_chase::entails_auto(&s, &rest, tgd, ChaseBudget::default()),
                Entailment::Proved,
                "redundant member survived minimization: {tgd:?}"
            );
        }
    }
}
