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
//! 2. keeps `Σ' = {σ ∈ C_{n,m} | Σ ⊨ σ}` (one chase-based candidate sweep,
//!    [`tgdkit_chase::sweep`], serial or work-stealing);
//! 3. answers *rewritable with `Σ'`* iff `Σ' ⊨ Σ`.
//!
//! [`rewrite`] is the one entry point (target class, cache, token,
//! resume); [`guarded_to_linear`] and [`frontier_guarded_to_guarded`] and
//! their `_cached` forms are plain calls into it.
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
use std::sync::Arc;
use tgdkit_chase::{
    entails_all_cached_governed, entails_auto_cached_governed, group_by_body_keyed, sweep,
    tgds_fingerprint, CancelToken, ChaseBudget, CheckpointError, EntailBatchStats, EntailCache,
    Entailment, Schedule,
};
use tgdkit_logic::{Schema, Tgd, TgdSet, TgdVariantKey};

/// Options for the rewriting procedures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Chase budget per entailment check.
    pub budget: ChaseBudget,
    /// Candidate enumeration budgets.
    pub enumeration: EnumOptions,
    /// Filter the candidates by work stealing on all available cores
    /// instead of the serial, resumable schedule (see
    /// [`tgdkit_chase::Schedule`]).
    pub parallel: bool,
}

/// The target class of a rewriting — which of the two procedures runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteTarget {
    /// Algorithm 1 (`G-to-L`): guarded → linear.
    Linear,
    /// Algorithm 2 (`FG-to-G`): frontier-guarded → guarded.
    Guarded,
}

/// The target's tag in rewrite checkpoints and on the service wire:
/// `1` linear, `2` guarded.
impl From<RewriteTarget> for u8 {
    fn from(target: RewriteTarget) -> u8 {
        match target {
            RewriteTarget::Linear => 1,
            RewriteTarget::Guarded => 2,
        }
    }
}

impl TryFrom<u8> for RewriteTarget {
    type Error = CheckpointError;

    fn try_from(tag: u8) -> Result<RewriteTarget, CheckpointError> {
        match tag {
            1 => Ok(RewriteTarget::Linear),
            2 => Ok(RewriteTarget::Guarded),
            _ => Err(CheckpointError::Malformed("rewrite target tag")),
        }
    }
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
    /// The serial candidate filter suspended at a body-group boundary: on
    /// its memory budget ([`ChaseBudget::max_bytes`], or the
    /// `TGDKIT_BUDGET_MAX_BYTES` fallback), an injected
    /// [`tgdkit_chase::FaultSite::MemBudgetTrip`], or a quantum expiry.
    /// [`rewrite`] returns the [`RewriteCheckpoint`] that resumes the run
    /// alongside; the plain calls drop it. Work-stealing runs
    /// (`RewriteOptions::parallel`) never suspend.
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
    /// Peak estimated resident bytes observed by the memory accounting:
    /// the chase arenas, and for the serial schedule also the entailment
    /// cache's residency at group boundaries (work stealing does not charge
    /// memory, so its figure is the chase arenas alone).
    pub mem_peak_bytes: usize,
    /// Memory-budget trips (real or injected) during the run.
    pub mem_trips: usize,
    /// Checkpoint resumptions folded into this run's figures.
    pub resumes: usize,
    /// Keys evicted from the bounded [`EntailCache`] during the run.
    pub evictions: usize,
}

/// Result of [`rewrite`]: the outcome, the run's statistics, and the
/// checkpoint when the outcome is [`RewriteOutcome::Suspended`].
pub type RewriteRun = (RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>);

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
    fresh(set, RewriteTarget::Linear, opts, &EntailCache::new()).0
}

/// Algorithm 2 (paper §9.2, `FG-to-G`): rewrites a set of
/// **frontier-guarded** tgds into an equivalent set of **guarded** tgds, if
/// one exists.
pub fn frontier_guarded_to_guarded(set: &TgdSet, opts: &RewriteOptions) -> RewriteOutcome {
    fresh(set, RewriteTarget::Guarded, opts, &EntailCache::new()).0
}

/// [`guarded_to_linear`] with run statistics, against a caller-provided
/// [`EntailCache`], so repeated rewrites (equivalent inputs, warm reruns,
/// expressibility sweeps) reuse entailment verdicts across calls.
pub fn guarded_to_linear_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    fresh(set, RewriteTarget::Linear, opts, cache)
}

/// [`frontier_guarded_to_guarded`] with run statistics, against a
/// caller-provided [`EntailCache`].
pub fn frontier_guarded_to_guarded_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    fresh(set, RewriteTarget::Guarded, opts, cache)
}

/// [`rewrite`] without a token or a resume.
fn fresh(
    set: &TgdSet,
    target: RewriteTarget,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    let run = rewrite(set, target, opts, cache, &CancelToken::new(), None);
    let (outcome, stats, _) = run.expect("a fresh run has no checkpoint to mismatch");
    (outcome, stats)
}

/// Filters an enumerator-produced candidate pool through the sweep the
/// rewriting procedures use: body-grouped chase sharing, the entailment
/// cache, and (when `parallel`) work stealing over the body groups. `keys`
/// are the candidates' variant keys (parallel to `candidates`, as in
/// [`Enumeration::keys`](crate::enumerate::Enumeration)), so grouping
/// reuses them instead of re-running the canonical ordering search.
///
/// Exposed for bulk entailment filtering and benchmarking; returns
/// `(verdicts in candidate order, sweep stats, steals)`.
pub fn evaluate_pool_keyed(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    keys: &[TgdVariantKey],
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
) -> (Vec<Entailment>, EntailBatchStats, usize) {
    let groups = group_by_body_keyed(candidates, keys);
    let schedule = if parallel {
        Schedule::Stealing
    } else {
        Schedule::Serial(None)
    };
    let token = CancelToken::new();
    let run = sweep(
        schema,
        sigma,
        &groups,
        budget,
        Some(cache),
        &token,
        schedule,
    );
    (run.state.verdicts, run.state.stats, run.steals)
}

fn enumerate(
    schema: &Schema,
    n: usize,
    m: usize,
    opts: &RewriteOptions,
    target: RewriteTarget,
    token: &CancelToken,
) -> Enumeration {
    match target {
        RewriteTarget::Linear => linear_candidates_governed(schema, n, m, &opts.enumeration, token),
        RewriteTarget::Guarded => {
            guarded_candidates_governed(schema, n, m, &opts.enumeration, token)
        }
    }
}

/// Rewrites `set` into an equivalent set of the `target` class, if one
/// exists — the one entry point of Algorithms 1 and 2.
///
/// The candidate filter `Σ′ = {σ ∈ C_{n,m} | Σ ⊨ σ}` is one
/// [`tgdkit_chase::sweep`] against `cache`. `opts.parallel` selects its
/// schedule: work stealing, which runs to completion or cancellation, or
/// the serial schedule, which at every body-group boundary charges
/// estimated resident memory (cache bytes + peak chase arena) against
/// `opts.budget.max_bytes` and polls the token's quantum. A trip — real, or
/// injected at [`tgdkit_chase::FaultSite::MemBudgetTrip`] — or a quantum
/// expiry suspends the run as [`RewriteOutcome::Suspended`] with a
/// [`RewriteCheckpoint`] of the verdict slots and group progress. The
/// decision tail after filtering (`Σ′ ⊨ Σ`, minimization) runs without
/// suspension points: it revisits cached verdicts and is cheap next to the
/// sweep.
///
/// A deadline expiry or [`CancelToken::cancel`] stops the run
/// cooperatively (within one chase round / one body group) and yields
/// [`RewriteOutcome::Cancelled`] with the statistics of the work so far.
/// Verdicts decided before the cut are cached (and sound);
/// cancellation-induced `Unknown`s are not, so a warm rerun with a fresh
/// token re-decides them.
///
/// `resume` continues a suspended run on the serial schedule, with an
/// outcome identical to an uninterrupted run's. `set` and
/// `opts.enumeration` must be the ones it was taken under: resume
/// re-enumerates the candidate space (deterministic; an in-process
/// checkpoint instead reuses the space it was cut from when schema,
/// profile, options and target all match) and validates the target class,
/// the input-set and enumeration fingerprints, and the slot counts; any
/// mismatch is a typed [`CheckpointError::ContextMismatch`], never a wrong
/// answer. `opts.budget` is absolute, not incremental — the same budget
/// after an injected trip or a quantum, a larger `max_bytes` (or a smaller
/// cache) after a real trip.
///
/// ```
/// use tgdkit_chase::{CancelToken, EntailCache};
/// use tgdkit_core::{rewrite, RewriteOptions, RewriteOutcome, RewriteTarget};
/// use tgdkit_logic::{parse_tgds, Schema, TgdSet};
/// let mut schema = Schema::default();
/// let tgds = parse_tgds(&mut schema, "R(x,y), R(x,x) -> T(x).").unwrap();
/// let set = TgdSet::new(schema, tgds).unwrap();
/// let token = CancelToken::new();
/// token.cancel(); // already expired: the run must stop immediately
/// let opts = RewriteOptions::default();
/// let (outcome, stats, checkpoint) =
///     rewrite(&set, RewriteTarget::Linear, &opts, &EntailCache::new(), &token, None).unwrap();
/// assert_eq!(outcome, RewriteOutcome::Cancelled);
/// assert!(stats.cancelled && checkpoint.is_none());
/// ```
pub fn rewrite(
    set: &TgdSet,
    target: RewriteTarget,
    opts: &RewriteOptions,
    cache: &EntailCache,
    token: &CancelToken,
    resume: Option<&RewriteCheckpoint>,
) -> Result<RewriteRun, CheckpointError> {
    let schema = set.schema();
    let (n, m) = set.profile();
    // An in-process checkpoint carries the space it was cut from; any
    // other resume re-enumerates, and the checks below hold either way.
    let enumeration = resume
        .and_then(|cp| cp.space.get(schema, (n, m), &opts.enumeration, target))
        .unwrap_or_else(|| Arc::new(enumerate(schema, n, m, opts, target, token)));
    let groups = group_by_body_keyed(&enumeration.tgds, &enumeration.keys);
    if let Some(cp) = resume {
        if cp.target != target {
            return Err(CheckpointError::ContextMismatch("rewrite target class"));
        }
        if cp.sigma_fp != tgds_fingerprint(set.tgds()) {
            return Err(CheckpointError::ContextMismatch("tgd set"));
        }
        if cp.enum_fp != keys_fingerprint(&enumeration.keys)
            || cp.sweep.verdicts.len() != enumeration.tgds.len()
        {
            return Err(CheckpointError::ContextMismatch("candidate enumeration"));
        }
        if cp.sweep.done.len() != groups.len() {
            return Err(CheckpointError::ContextMismatch("body-group count"));
        }
    }
    let schedule = match resume {
        Some(cp) => Schedule::Serial(Some(&cp.sweep)),
        None if opts.parallel => Schedule::Stealing,
        None => Schedule::Serial(None),
    };
    let run = sweep(
        schema,
        set.tgds(),
        &groups,
        opts.budget,
        Some(cache),
        token,
        schedule,
    );
    let filtered = &run.state.stats;
    let stats = RewriteStats {
        candidates: enumeration.tgds.len(),
        exhaustive: enumeration.exhaustive,
        body_groups: filtered.body_groups,
        bodies_chased: filtered.bodies_chased,
        heads_probed: filtered.heads_probed,
        cache_hits: filtered.cache_hits,
        cache_misses: filtered.cache_misses,
        steals: run.steals,
        panics_contained: filtered.panics_contained + filtered.chase.panics_contained,
        mem_peak_bytes: run.mem_peak_bytes,
        mem_trips: filtered.chase.mem_trips,
        resumes: filtered.chase.resumes,
        evictions: filtered.evictions,
        ..Default::default()
    };
    if run.suspended {
        let checkpoint = Box::new(RewriteCheckpoint {
            target,
            sigma_fp: tgds_fingerprint(set.tgds()),
            enum_fp: keys_fingerprint(&enumeration.keys),
            exhaustive: enumeration.exhaustive,
            sweep: run.state,
            space: SpaceMemo::new(CandidateSpace {
                schema: schema.clone(),
                profile: (n, m),
                options: opts.enumeration,
                target,
                enumeration,
            }),
        });
        return Ok((RewriteOutcome::Suspended, stats, Some(checkpoint)));
    }
    let (outcome, stats) = conclude(
        set,
        opts,
        &enumeration,
        &run.state.verdicts,
        stats,
        cache,
        token,
    );
    Ok((outcome, stats, None))
}

/// The decision tail after the candidate filter: builds
/// `Σ' = {σ | Σ ⊨ σ}` from the verdict slots, then answers
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
        let opts = RewriteOptions {
            parallel: true,
            ..Default::default()
        };
        let token = CancelToken::new();
        let (outcome, stats, _) = rewrite(
            &sigma,
            RewriteTarget::Linear,
            &opts,
            &EntailCache::new(),
            &token,
            None,
        )
        .unwrap();
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
        let opts = RewriteOptions::default();
        let token = CancelToken::new();
        let (outcome, stats, _) = rewrite(
            &sigma,
            RewriteTarget::Linear,
            &opts,
            &EntailCache::new(),
            &token,
            None,
        )
        .unwrap();
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
        let (outcome, _, cp) = rewrite(
            &sigma,
            RewriteTarget::Linear,
            &opts,
            &EntailCache::new(),
            &token,
            None,
        )
        .unwrap();
        assert_eq!(outcome, RewriteOutcome::Suspended);
        let cp = cp.expect("suspended runs return a checkpoint");
        let tag = RewriteTarget::Linear;
        let profile = sigma.profile();
        assert!(cp.space.get(&s, profile, &opts.enumeration, tag).is_some());
        let decoded = RewriteCheckpoint::decode(&cp.encode()).unwrap();
        assert!(decoded
            .space
            .get(&s, profile, &opts.enumeration, tag)
            .is_none());
        // The cached space and a re-enumerated one resume to the same answer.
        for resumed in [cp.as_ref(), &decoded] {
            let (outcome, _, rest) = rewrite(
                &sigma,
                RewriteTarget::Linear,
                &opts,
                &EntailCache::new(),
                &CancelToken::new(),
                Some(resumed),
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
            rewrite(
                &sigma,
                RewriteTarget::Linear,
                &truncated,
                &EntailCache::new(),
                &CancelToken::new(),
                Some(&cp),
            ),
            Err(CheckpointError::ContextMismatch("candidate enumeration"))
        ));
        assert!(matches!(
            rewrite(
                &sigma,
                RewriteTarget::Guarded,
                &opts,
                &EntailCache::new(),
                &CancelToken::new(),
                Some(&cp),
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
