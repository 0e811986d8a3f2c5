//! The chase procedure (restricted and oblivious variants) with labeled
//! nulls and explicit budgets.

use crate::checkpoint::{tgds_fingerprint, ChaseCheckpoint, CheckpointError};
use crate::faults::FaultSite;
use crate::govern::CancelToken;
use crate::memory::MemoryAccountant;
use crate::search::{find_triggers, TriggerRun};
use crate::stats::ChaseStats;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Instant;
use tgdkit_hom::{for_each_hom, Binding, Cq, InstanceIndex};
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::{Egd, Tgd};

/// Which chase variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseVariant {
    /// The restricted (standard) chase: a trigger fires only if the head is
    /// not already satisfied with the trigger's frontier image.
    #[default]
    Restricted,
    /// The oblivious chase: every trigger fires exactly once, regardless of
    /// head satisfaction. Produces larger, more regular results.
    Oblivious,
}

/// Resource budget for a chase run.
///
/// The chase of tgds with existential variables may not terminate; budgets
/// turn divergence into an explicit [`ChaseOutcome::BudgetExceeded`] (or
/// [`ChaseOutcome::MemoryExceeded`]) result that downstream reasoning
/// treats conservatively.
///
/// All three limits are enforced at **round boundaries**: a run stops
/// before a round when the previous rounds pushed it past a cap, so a
/// single round may overshoot `max_facts`/`max_bytes` by its own
/// production (a 4× mid-round guard bounds pathological rounds). This is
/// what makes a tripped run a clean *round prefix* — resumable from a
/// [`crate::ChaseCheckpoint`] byte-identically.
///
/// Zero values are honored, not silently bypassed: `max_rounds: 0` trips
/// before round one with an untouched instance, and `max_facts: 0` on a
/// nonempty start trips before any trigger search (it used to be able to
/// report `Terminated` without ever consulting the budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaseBudget {
    /// Maximum number of facts in the chased instance.
    pub max_facts: usize,
    /// Maximum number of chase rounds (each round fires all triggers found
    /// at its start).
    pub max_rounds: usize,
    /// Maximum heap residency of the instance arena in bytes
    /// ([`tgdkit_instance::Instance::heap_bytes`]), charged through a
    /// [`crate::MemoryAccountant`]; `usize::MAX` (the default) means
    /// *unspecified*.
    ///
    /// **Precedence:** an explicit per-request value (anything other than
    /// `usize::MAX`) always wins. Only when the field is left unspecified
    /// does [`ChaseBudget::effective_max_bytes`] fall back to the
    /// process-wide `TGDKIT_BUDGET_MAX_BYTES` environment override, and an
    /// unset/unparsable/zero variable means unlimited. A multi-tenant
    /// server therefore keeps full control of each tenant's byte cap: the
    /// operator's env override is a default for requests that don't name a
    /// cap, never a clamp on ones that do.
    pub max_bytes: usize,
}

/// `TGDKIT_BUDGET_MAX_BYTES` parsed once per process: a positive integer
/// byte cap used as the *fallback* for budgets whose `max_bytes` is left
/// unspecified; unset, unparsable, or zero means unlimited.
fn env_max_bytes() -> usize {
    use std::sync::OnceLock;
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| parse_max_bytes(std::env::var("TGDKIT_BUDGET_MAX_BYTES").ok().as_deref()))
}

fn parse_max_bytes(var: Option<&str>) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(usize::MAX)
}

/// The byte cap a run should actually enforce, given an explicit
/// per-budget value and the process-wide env override. Explicit wins;
/// `usize::MAX` (unspecified) defers to the override. Pure so the
/// precedence is testable without mutating process environment (the env
/// read is cached in a `OnceLock`, so a test could only observe one
/// value per process anyway).
#[inline]
fn resolve_max_bytes(explicit: usize, env_override: usize) -> usize {
    if explicit != usize::MAX {
        explicit
    } else {
        env_override
    }
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_facts: 20_000,
            max_rounds: 128,
            max_bytes: usize::MAX,
        }
    }
}

impl ChaseBudget {
    /// The byte cap this budget actually enforces: the explicit
    /// [`ChaseBudget::max_bytes`] when one was set, otherwise the
    /// `TGDKIT_BUDGET_MAX_BYTES` environment override, otherwise
    /// unlimited. Every [`crate::MemoryAccountant`] construction funnels
    /// through here, so per-request budgets are never silently widened or
    /// narrowed by process-global state.
    pub fn effective_max_bytes(&self) -> usize {
        resolve_max_bytes(self.max_bytes, env_max_bytes())
    }

    /// A small budget for quick probes.
    pub fn small() -> Self {
        ChaseBudget {
            max_facts: 2_000,
            max_rounds: 32,
            max_bytes: usize::MAX,
        }
    }

    /// A generous budget for stubborn inputs.
    pub fn large() -> Self {
        ChaseBudget {
            max_facts: 200_000,
            max_rounds: 512,
            max_bytes: usize::MAX,
        }
    }
}

/// Whether the chase reached a fixpoint or was cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// A fixpoint: the result satisfies every tgd of the input set.
    Terminated,
    /// The round or fact budget ran out; the result is a *partial* chase
    /// (sound for positive entailment, useless for refutation).
    BudgetExceeded,
    /// The byte budget ([`ChaseBudget::max_bytes`]) tripped at a round
    /// boundary — same soundness as [`ChaseOutcome::BudgetExceeded`], but
    /// distinguishable so callers can shed memory (or resume from a
    /// [`crate::ChaseCheckpoint`] with a larger budget) instead of giving
    /// the run more rounds.
    MemoryExceeded,
    /// The run was cut off by a [`CancelToken`] — explicit cancellation,
    /// deadline expiry, or a contained worker panic. The result is the
    /// partial chase *as of the last completed round* (the aborted round's
    /// trigger set is discarded before any firing), so like
    /// [`ChaseOutcome::BudgetExceeded`] it is sound for positive entailment
    /// and useless for refutation.
    Cancelled,
}

/// One recorded chase step: a trigger that fired and the facts it added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the tgd in the input set.
    pub tgd_index: usize,
    /// Images of the tgd's universal variables.
    pub universal: Vec<Elem>,
    /// Nulls invented for the existential variables (in variable order).
    pub witnesses: Vec<Elem>,
    /// Facts newly added by this step.
    pub added: Vec<Fact>,
}

/// A derivation log for a chase run; see [`chase_with_provenance`].
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// The steps, in firing order.
    pub steps: Vec<DerivationStep>,
}

impl Provenance {
    /// The step that first derived `fact`, if any (facts of the input
    /// instance have no step).
    pub fn explain(&self, fact: &Fact) -> Option<&DerivationStep> {
        self.steps.iter().find(|s| s.added.contains(fact))
    }
}

/// The result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased instance (extends the input instance).
    pub instance: Instance,
    /// Fixpoint or budget cutoff.
    pub outcome: ChaseOutcome,
    /// The labeled nulls invented by the chase.
    pub nulls: BTreeSet<Elem>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Engine counters and phase timings for this run.
    pub stats: ChaseStats,
}

impl ChaseResult {
    /// `true` when the chase reached a fixpoint.
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }

    /// `true` when the run was cut off by a [`CancelToken`].
    pub fn cancelled(&self) -> bool {
        self.outcome == ChaseOutcome::Cancelled
    }
}

/// Runs the chase of `start` with `tgds` (paper notation:
/// `chase(I, Σ)`).
///
/// The result extends `start`; when the outcome is
/// [`ChaseOutcome::Terminated`] it is a model of `Σ` that maps
/// homomorphically into every model of `Σ` containing `start` while fixing
/// `start`'s elements (hom-universality) — the property exploited by
/// Claims C.2/D.3/E.2 of the paper.
///
/// ```
/// use tgdkit_logic::{parse_tgds, Schema};
/// use tgdkit_instance::parse_instance;
/// use tgdkit_chase::{chase, ChaseBudget, ChaseVariant};
/// let mut schema = Schema::default();
/// let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
/// let path = parse_instance(&mut schema, "E(a,b), E(b,c), E(c,d)").unwrap();
/// let result = chase(&path, &tgds, ChaseVariant::Restricted, ChaseBudget::default());
/// assert!(result.terminated());
/// assert_eq!(result.instance.fact_count(), 6); // transitive closure of a 3-path
/// ```
pub fn chase(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> ChaseResult {
    chase_governed(start, tgds, variant, budget, &CancelToken::new())
}

/// [`chase`] under a [`CancelToken`]: the token is checked at every round
/// start, inside the trigger search and inside the apply loop, so a
/// cancelled run stops within one round and reports
/// [`ChaseOutcome::Cancelled`] with the instance *as of the last completed
/// round* and coherent [`ChaseStats`] for the work actually done.
///
/// Trigger-search panics (real or injected via [`crate::faults`]) are
/// contained with `catch_unwind`: the round's partial trigger set is
/// discarded, the panic is counted in [`ChaseStats::panics_contained`],
/// and the run reports `Cancelled` instead of unwinding the caller.
pub fn chase_governed(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    token: &CancelToken,
) -> ChaseResult {
    chase_impl(
        RunState::fresh(start, tgds),
        tgds,
        variant,
        budget,
        token,
        None,
    )
    .into_result()
}

/// [`chase`] with a derivation log: every fired trigger is recorded with
/// the facts it added, so results can be *explained*
/// ([`Provenance::explain`]).
pub fn chase_with_provenance(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> (ChaseResult, Provenance) {
    let mut provenance = Provenance::default();
    let result = chase_impl(
        RunState::fresh(start, tgds),
        tgds,
        variant,
        budget,
        &CancelToken::new(),
        Some(&mut provenance),
    )
    .into_result();
    (result, provenance)
}

/// How many visited trigger bindings pass between cooperative cancellation
/// checks inside one tgd's enumeration. Small enough that a dense body
/// search notices an expired deadline within a fraction of a millisecond;
/// large enough that the atomic load is invisible in the profile.
pub(crate) const CANCEL_CHECK_STRIDE: u32 = 64;

/// How many triggers the apply loop fires between cooperative cancellation
/// checks. A round's trigger set can run to thousands of entries, each with
/// a satisfaction probe under the restricted variant, so an unpolled apply
/// loop was the last multi-millisecond blind spot between a deadline
/// expiring and the chase noticing (the deadline-overshoot probe in the
/// bench caught it at 10–15 ms). A mid-apply cancellation **rolls the
/// half-applied round back** to its boundary, preserving the round-prefix
/// property the fault proptests pin down.
const APPLY_CANCEL_STRIDE: u32 = 64;

/// The state a run starts from: the instance inside its owned index, and
/// what a suspended run carries across a checkpoint.
struct RunState {
    /// When the run's wall time starts: before the index build, which is
    /// part of the run.
    started: Instant,
    index: InstanceIndex<'static>,
    nulls: BTreeSet<Elem>,
    next_null: u32,
    fired: Vec<BTreeSet<Vec<Elem>>>,
    /// The watermark below which the index rows are old: the rows at or
    /// past it are the delta the next round searches from. `None` before
    /// round one, whose frontier is the whole instance.
    delta: Option<Vec<usize>>,
    stats: ChaseStats,
    rounds: usize,
}

impl RunState {
    /// A fresh run from `start`.
    fn fresh(start: &Instance, tgds: &[Tgd]) -> RunState {
        let started = Instant::now();
        let index = InstanceIndex::owned(start.clone());
        RunState {
            started,
            next_null: index.instance().fresh_elem().0,
            index,
            nulls: BTreeSet::new(),
            fired: vec![BTreeSet::new(); tgds.len()],
            delta: None,
            stats: ChaseStats {
                index_rebuilds: 1,
                ..ChaseStats::default()
            },
            rounds: 0,
        }
    }

    /// The captured state of a suspended run, its pending delta moved to
    /// the index tail once. Budgets are absolute across trip + resume:
    /// `rounds` continues counting from the checkpoint, so resuming with
    /// the same budget that tripped stops again immediately — callers
    /// resume with a larger one.
    fn resume(cp: &ChaseCheckpoint, tgds: &[Tgd]) -> RunState {
        let started = Instant::now();
        let (index, delta) = match &cp.delta {
            None => (InstanceIndex::owned(cp.instance.clone()), None),
            Some(delta) => {
                let (index, marks) = InstanceIndex::with_tail(cp.instance.clone(), delta);
                (index, Some(marks))
            }
        };
        let mut stats = cp.stats;
        stats.resumes += 1;
        stats.index_rebuilds += 1;
        RunState {
            started,
            index,
            nulls: cp.nulls.clone(),
            next_null: cp.next_null,
            fired: if cp.fired.is_empty() {
                vec![BTreeSet::new(); tgds.len()]
            } else {
                cp.fired.clone()
            },
            delta,
            stats,
            rounds: cp.rounds,
        }
    }
}

/// What [`chase_impl`] hands back: the result's parts with the instance
/// still inside the run's index, so a caller can probe the chased instance
/// without indexing it again, plus what a checkpoint needs.
pub(crate) struct ChaseRun {
    pub(crate) index: InstanceIndex<'static>,
    pub(crate) outcome: ChaseOutcome,
    pub(crate) stats: ChaseStats,
    nulls: BTreeSet<Elem>,
    rounds: usize,
    next_null: u32,
    fired: Vec<BTreeSet<Vec<Elem>>>,
    /// The watermark of the pending delta (see [`RunState::delta`]).
    delta: Option<Vec<usize>>,
    /// `false` when the run stopped mid-round (the 4× fact-overshoot
    /// guard): the state is not on a round boundary and must not be
    /// checkpointed.
    resumable: bool,
}

impl ChaseRun {
    /// The public result; the index is dropped, its instance kept.
    fn into_result(self) -> ChaseResult {
        ChaseResult {
            instance: self.index.into_instance(),
            outcome: self.outcome,
            nulls: self.nulls,
            rounds: self.rounds,
            stats: self.stats,
        }
    }

    /// The checkpoint of a non-terminated, round-boundary stop, with the
    /// pending delta read off the rows past its watermark.
    fn checkpoint(&self, variant: ChaseVariant, sigma_fp: u64) -> Option<Box<ChaseCheckpoint>> {
        if self.outcome == ChaseOutcome::Terminated || !self.resumable {
            return None;
        }
        let instance = self.index.instance();
        Some(Box::new(ChaseCheckpoint {
            variant,
            rounds: self.rounds,
            next_null: self.next_null,
            sigma_fp,
            nulls: self.nulls.clone(),
            // Restricted runs never consult `fired`; drop it from the capture.
            fired: match variant {
                ChaseVariant::Oblivious => self.fired.clone(),
                ChaseVariant::Restricted => Vec::new(),
            },
            delta: self
                .delta
                .as_ref()
                .map(|marks| instance.facts_from(marks).collect()),
            stats: self.stats,
            instance: instance.clone(),
        }))
    }

    /// The public result and, on a resumable stop, its checkpoint.
    fn finish(
        self,
        variant: ChaseVariant,
        sigma_fp: u64,
    ) -> (ChaseResult, Option<Box<ChaseCheckpoint>>) {
        let checkpoint = self.checkpoint(variant, sigma_fp);
        (self.into_result(), checkpoint)
    }
}

/// A restricted chase of `start` that keeps its index: the crate's
/// entailment checks probe the chased instance through it instead of
/// indexing the result a second time.
pub(crate) fn chase_indexed(
    start: &Instance,
    tgds: &[Tgd],
    budget: ChaseBudget,
    token: &CancelToken,
) -> ChaseRun {
    chase_impl(
        RunState::fresh(start, tgds),
        tgds,
        ChaseVariant::Restricted,
        budget,
        token,
        None,
    )
}

/// The one chase engine. Every entry point lands here, so budgets,
/// mid-apply rollback and checkpoint capture exist once.
///
/// The instance lives inside ONE index for the whole run, grown one
/// [`InstanceIndex::insert`] at a time as triggers fire, so head checks,
/// the anchored joins and the search's dead-trigger filter always read the
/// current instance. A round only appends, so its additions are exactly
/// the rows past the watermark read at its start: that watermark is the
/// next round's delta, and truncating to it undoes the round.
fn chase_impl(
    state: RunState,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    token: &CancelToken,
    mut log: Option<&mut Provenance>,
) -> ChaseRun {
    let RunState {
        started: run_started,
        mut index,
        mut nulls,
        mut next_null,
        mut fired,
        mut delta,
        mut stats,
        mut rounds,
    } = state;
    // Head queries of the non-full tgds, built on their first restricted
    // check: entailment chases run under hundreds of tgds of which few fire.
    let mut head_cqs: Vec<Option<Cq>> = vec![None; tgds.len()];
    let mut triggers = TriggerRun::new(tgds);

    let accountant = MemoryAccountant::new(budget.effective_max_bytes());
    // Mid-round emergency stop: rounds are atomic for budget purposes, but
    // a single pathological round must not allocate unboundedly past the
    // cap. Tripping here loses the round boundary, so no checkpoint.
    let hard_fact_cap = budget.max_facts.saturating_mul(4);
    let mut resumable = true;

    let outcome = 'run: loop {
        // Every cutoff below lands on a round boundary (the mid-apply
        // cancellation poll truncates its half-applied round back to one),
        // so a cancelled (or fault-tripped) run's instance is exactly the
        // state after its last completed round — the prefix property the
        // proptests pin down, and the state a `ChaseCheckpoint` captures.
        let instance = index.instance();
        if token.is_cancelled() {
            break 'run ChaseOutcome::Cancelled;
        }
        if token.fault(FaultSite::BudgetTrip) {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if rounds >= budget.max_rounds {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if instance.fact_count() > budget.max_facts {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if accountant.charge_to(instance.heap_bytes()) || token.fault(FaultSite::MemBudgetTrip) {
            stats.mem_trips += 1;
            break 'run ChaseOutcome::MemoryExceeded;
        }
        rounds += 1;

        // Snapshot this round's live triggers against the instance as of
        // the start of the round (fair, breadth-first scheduling), sorted
        // into canonical `(tgd, universal)` order.
        let search_started = Instant::now();
        let scan = find_triggers(tgds, &index, delta.as_deref(), &mut triggers, token);
        stats.trigger_search_time += search_started.elapsed();
        if scan.aborted || scan.panics_contained > 0 {
            // Discard the partial trigger set without firing: the aborted
            // round never happened, and a contained panic means the set
            // may be incomplete, so a fixpoint cannot be certified.
            stats.panics_contained += scan.panics_contained;
            rounds -= 1;
            break 'run ChaseOutcome::Cancelled;
        }
        stats.triggers_found += triggers.len();

        let apply_started = Instant::now();
        // Round-boundary watermarks: everything a mid-apply cancellation
        // must undo to land the run back on the boundary. The rows past
        // `round_start` are this round's additions.
        let round_start = index.instance().watermark();
        let facts_at_start = index.instance().fact_count();
        let null_watermark = next_null;
        let log_watermark = log.as_deref().map_or(0, |p| p.steps.len());
        let fired_watermark = stats.triggers_fired;
        let mut oblivious_undo: Vec<(usize, Vec<Elem>)> = Vec::new();
        let mut since_apply_check = 0u32;
        // One head tuple at a time, reused across the round's firings.
        let mut head_args: Vec<Elem> = Vec::new();
        for (ti, universal) in triggers.iter() {
            since_apply_check += 1;
            if since_apply_check >= APPLY_CANCEL_STRIDE {
                since_apply_check = 0;
                if token.is_cancelled() {
                    // Roll the half-applied round back to its boundary:
                    // the cancelled instance must be exactly the state
                    // after the last *completed* round.
                    index.truncate(&round_start);
                    for (oti, ouni) in oblivious_undo.drain(..) {
                        fired[oti].remove(&ouni);
                    }
                    if let Some(prov) = log.as_deref_mut() {
                        prov.steps.truncate(log_watermark);
                    }
                    // The round's nulls entered the domain with its
                    // facts; with those gone they are isolated.
                    for e in null_watermark..next_null {
                        nulls.remove(&Elem(e));
                        index.remove_dom_elem(Elem(e));
                    }
                    next_null = null_watermark;
                    stats.triggers_fired = fired_watermark;
                    rounds -= 1;
                    stats.apply_time += apply_started.elapsed();
                    break 'run ChaseOutcome::Cancelled;
                }
            }
            let tgd = &tgds[ti];
            let mut step_added: Vec<Fact> = Vec::new();
            let step = log.is_some().then_some(&mut step_added);
            if tgd.is_full() {
                // Full tgds invent no nulls: firing is an idempotent set
                // insertion, cheaper than any satisfaction check.
                let changed = insert_head(&mut index, tgd, universal, &mut head_args, step);
                if changed {
                    if let Some(prov) = log.as_deref_mut() {
                        prov.steps.push(DerivationStep {
                            tgd_index: ti,
                            universal: universal.to_vec(),
                            witnesses: Vec::new(),
                            added: step_added,
                        });
                    }
                    stats.triggers_fired += 1;
                    if index.instance().fact_count() > hard_fact_cap {
                        stats.apply_time += apply_started.elapsed();
                        resumable = false;
                        break 'run ChaseOutcome::BudgetExceeded;
                    }
                }
                continue;
            }
            match variant {
                ChaseVariant::Restricted => {
                    // Re-check satisfaction against the *current* instance,
                    // which the index always covers.
                    let mut head_fixed: Binding = vec![None; tgd.var_count()];
                    for (v, &e) in universal.iter().enumerate() {
                        head_fixed[v] = Some(e);
                    }
                    let head_cq =
                        head_cqs[ti].get_or_insert_with(|| Cq::boolean(tgd.head().to_vec()));
                    if head_cq.holds_with_indexed(&index, &head_fixed) {
                        continue;
                    }
                }
                ChaseVariant::Oblivious => {
                    if !fired[ti].insert(universal.to_vec()) {
                        continue;
                    }
                    oblivious_undo.push((ti, universal.to_vec()));
                }
            }
            // Fire: fresh nulls for the existential variables.
            let mut assignment: Vec<Elem> = Vec::with_capacity(tgd.var_count());
            assignment.extend(universal.iter().copied());
            let mut witnesses: Vec<Elem> = Vec::new();
            for _ in tgd.existential_vars() {
                let e = Elem(next_null);
                next_null += 1;
                nulls.insert(e);
                witnesses.push(e);
                assignment.push(e);
            }
            insert_head(&mut index, tgd, &assignment, &mut head_args, step);
            if let Some(prov) = log.as_deref_mut() {
                prov.steps.push(DerivationStep {
                    tgd_index: ti,
                    universal: universal.to_vec(),
                    witnesses,
                    added: step_added,
                });
            }
            stats.triggers_fired += 1;
            if index.instance().fact_count() > hard_fact_cap {
                stats.apply_time += apply_started.elapsed();
                resumable = false;
                break 'run ChaseOutcome::BudgetExceeded;
            }
        }

        // The round fired iff it fired a trigger; a fired trigger of an
        // existential tgd may add no fact (its head atoms can all be
        // present already, e.g. under the oblivious variant).
        if stats.triggers_fired == fired_watermark {
            stats.apply_time += apply_started.elapsed();
            break 'run ChaseOutcome::Terminated;
        }
        let added = index.instance().fact_count() - facts_at_start;
        if added > 0 {
            stats.index_extends += 1;
        }
        stats.facts_added += added;
        stats.apply_time += apply_started.elapsed();
        delta = Some(round_start);
    };

    // Final high-water observation (the loop's charge sites see round
    // starts only, not the last round's growth).
    accountant.observe(index.instance().heap_bytes());
    stats.mem_peak_bytes = stats.mem_peak_bytes.max(accountant.peak_bytes());
    stats.rounds = rounds;
    // `+=` not `=`: a resumed run accumulates wall time across segments.
    stats.total_time += run_started.elapsed();
    ChaseRun {
        index,
        outcome,
        stats,
        nulls,
        rounds,
        next_null,
        fired,
        delta,
        resumable,
    }
}

/// Inserts the head facts of one firing of `tgd`, each argument read
/// through `image` (the universal image, then any witnesses), into the
/// index and its instance. The tuple is assembled in the reused `buf`, so
/// firing allocates nothing per fact; a [`Fact`] is built only for `step`,
/// when a provenance step is being recorded. Returns whether any fact was
/// new.
fn insert_head(
    index: &mut InstanceIndex<'static>,
    tgd: &Tgd,
    image: &[Elem],
    buf: &mut Vec<Elem>,
    mut step: Option<&mut Vec<Fact>>,
) -> bool {
    let mut changed = false;
    for atom in tgd.head() {
        buf.clear();
        buf.extend(atom.args.iter().map(|v| image[v.index()]));
        if index.insert(atom.pred, buf) {
            if let Some(step) = step.as_deref_mut() {
                step.push(Fact::new(atom.pred, buf.clone()));
            }
            changed = true;
        }
    }
    changed
}

/// [`chase_governed`] that additionally captures a [`ChaseCheckpoint`]
/// whenever the run stops short of a fixpoint on a resumable round
/// boundary (budget, memory, or cancellation trip). Feed the checkpoint to
/// [`chase_resume`] — with a larger budget, since budgets are absolute
/// across segments — to continue the run byte-identically to one that was
/// never interrupted.
pub fn chase_checkpointing(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    token: &CancelToken,
) -> (ChaseResult, Option<Box<ChaseCheckpoint>>) {
    let sigma_fp = tgds_fingerprint(tgds);
    let state = RunState::fresh(start, tgds);
    chase_impl(state, tgds, variant, budget, token, None).finish(variant, sigma_fp)
}

/// Continues a suspended chase from `checkpoint` under a (typically
/// larger) budget. The tgd set must be the one the checkpoint was captured
/// from — validated by an order-sensitive fingerprint, since trigger
/// ordering is positional — and the run continues with the captured
/// variant, frontier, null counter and stats, so the final
/// result is byte-identical to an uninterrupted run with the final budget.
/// Returns a fresh checkpoint when the resumed run trips again.
pub fn chase_resume(
    checkpoint: &ChaseCheckpoint,
    tgds: &[Tgd],
    budget: ChaseBudget,
    token: &CancelToken,
) -> Result<(ChaseResult, Option<Box<ChaseCheckpoint>>), CheckpointError> {
    let sigma_fp = tgds_fingerprint(tgds);
    if checkpoint.sigma_fp != sigma_fp {
        return Err(CheckpointError::ContextMismatch("tgd set"));
    }
    if !checkpoint.fired.is_empty() && checkpoint.fired.len() != tgds.len() {
        return Err(CheckpointError::ContextMismatch("fired-set arity"));
    }
    let variant = checkpoint.variant;
    let state = RunState::resume(checkpoint, tgds);
    Ok(chase_impl(state, tgds, variant, budget, token, None).finish(variant, sigma_fp))
}

/// **Incremental fold**: extends an already-chased *fixpoint* with a batch
/// of new facts and chases only the consequences of the batch, never
/// re-deriving the base.
///
/// `base` must be a fixpoint of `tgds` under `variant` (e.g. the instance
/// of a `Terminated` [`ChaseResult`]), and `base_nulls` its labeled-null
/// set. The batch is inserted, the facts that were *actually* new become
/// the semi-naive delta frontier, and the run proceeds exactly like a
/// [`chase_resume`] from a round boundary: only triggers touching at least
/// one delta fact are searched, which is sound because at a fixpoint every
/// all-old trigger is already satisfied. Folding a batch into a fixpoint
/// is therefore byte-identical to chasing `base ∪ batch` from scratch with
/// the same variant — the property the durable-store layer's
/// `restart ≡ uninterrupted` guarantee rests on — at delta cost instead of
/// from-scratch cost.
///
/// An empty (or fully duplicate) batch returns the base unchanged as
/// `Terminated` without searching a single trigger. Budgets count from
/// zero for each fold, not cumulatively across folds. Like
/// [`chase_checkpointing`], a budget/memory/cancellation trip on a round
/// boundary yields a resumable checkpoint.
pub fn chase_extend_governed(
    base: &Instance,
    base_nulls: &BTreeSet<Elem>,
    batch: &[Fact],
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    token: &CancelToken,
) -> (ChaseResult, Option<Box<ChaseCheckpoint>>) {
    let sigma_fp = tgds_fingerprint(tgds);
    let mut state = RunState::fresh(base, tgds);
    // The base is indexed first, so the facts of the batch that are new
    // land past its watermark: the delta is the index tail as inserted.
    let marks = state.index.instance().watermark();
    state.index.extend(batch);
    if state.index.instance().watermark() == marks {
        return (
            ChaseResult {
                instance: state.index.into_instance(),
                outcome: ChaseOutcome::Terminated,
                nulls: base_nulls.clone(),
                rounds: 0,
                stats: ChaseStats::default(),
            },
            None,
        );
    }
    // A round boundary: the base fixpoint plus the inserted batch as the
    // pending delta. `next_null` is re-derived from the extended instance
    // so nulls allocated by the fold can never collide with batch
    // constants. `fired` starts fresh, which only matters for triggers
    // touching the delta (all-old triggers are never searched again).
    state.next_null = state.index.instance().fresh_elem().0;
    state.nulls = base_nulls.clone();
    state.delta = Some(marks);
    chase_impl(state, tgds, variant, budget, token, None).finish(variant, sigma_fp)
}

/// The **core chase**: a restricted chase followed by core minimization
/// relative to the input's elements, yielding the *minimal* universal model
/// containing `start` (when the chase terminates).
///
/// The core chase is the canonical-model construction of the data-exchange
/// literature; tgdkit uses it to produce small witnesses (e.g. the `J_K` of
/// the locality checks are hom-equivalent to core-chase results). Core
/// minimization is exponential in the worst case — reserve for small
/// results.
pub fn core_chase(start: &Instance, tgds: &[Tgd], budget: ChaseBudget) -> ChaseResult {
    let result = chase(start, tgds, ChaseVariant::Restricted, budget);
    if !result.terminated() {
        return result;
    }
    let frozen = start.active_domain();
    let minimized = tgdkit_hom::core_preserving(&result.instance, frozen);
    let nulls: BTreeSet<Elem> = result
        .nulls
        .iter()
        .copied()
        .filter(|n| minimized.active_domain().contains(n))
        .collect();
    ChaseResult {
        instance: minimized,
        outcome: result.outcome,
        nulls,
        rounds: result.rounds,
        stats: result.stats,
    }
}

/// An egd chase failure: the egd forced two *original* (non-null) elements
/// to be equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgdFailure {
    /// The two original elements that the egd tried to merge.
    pub elements: (Elem, Elem),
    /// Counters for the chase passes completed before the failure (rounds,
    /// triggers, timings), so callers can still account for the work done.
    pub stats: ChaseStats,
}

impl std::fmt::Display for EgdFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "egd chase failure: cannot equate original elements {:?} and {:?}",
            self.elements.0, self.elements.1
        )
    }
}

impl std::error::Error for EgdFailure {}

/// Runs the chase with both tgds and egds: tgd rounds as in [`chase`],
/// interleaved with egd steps that merge a labeled null into the other
/// element of a violated equality (failing if both elements are original).
pub fn chase_with_egds(
    start: &Instance,
    tgds: &[Tgd],
    egds: &[Egd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> Result<ChaseResult, Box<EgdFailure>> {
    let mut current = start.clone();
    let mut all_nulls: BTreeSet<Elem> = BTreeSet::new();
    let mut rounds_total = 0usize;
    let mut stats_total = ChaseStats::default();
    loop {
        let mut result = chase(&current, tgds, variant, budget);
        all_nulls.extend(result.nulls.iter().copied());
        rounds_total += result.rounds;
        stats_total.absorb(&result.stats);
        // Apply egds to a fixpoint.
        let mut merged_any = false;
        'egds: loop {
            for egd in egds {
                if let Some((a, b)) = egd_violation(&result.instance, egd) {
                    let (keep, drop) = match (all_nulls.contains(&a), all_nulls.contains(&b)) {
                        (_, true) => (a, b),
                        (true, false) => (b, a),
                        (false, false) => {
                            // `stats_total` already folds in the failing
                            // pass (absorbed right after the chase above):
                            // report it instead of discarding the counters.
                            // Boxed: `ChaseStats` makes the failure much
                            // larger than the `Ok` path should pay for.
                            return Err(Box::new(EgdFailure {
                                elements: (a, b),
                                stats: stats_total,
                            }));
                        }
                    };
                    result.instance =
                        result
                            .instance
                            .map_elements(|e| if e == drop { keep } else { e });
                    all_nulls.remove(&drop);
                    merged_any = true;
                    continue 'egds;
                }
            }
            break;
        }
        if !merged_any {
            return Ok(ChaseResult {
                instance: result.instance,
                outcome: result.outcome,
                nulls: all_nulls,
                rounds: rounds_total,
                stats: stats_total,
            });
        }
        if result.outcome != ChaseOutcome::Terminated || rounds_total >= budget.max_rounds {
            // Keep the specific cutoff kind (memory vs rounds/facts) when
            // the inner pass was itself cut off.
            let outcome = if result.outcome == ChaseOutcome::Terminated {
                ChaseOutcome::BudgetExceeded
            } else {
                result.outcome
            };
            return Ok(ChaseResult {
                instance: result.instance,
                outcome,
                nulls: all_nulls,
                rounds: rounds_total,
                stats: stats_total,
            });
        }
        // Merging may enable new tgd triggers: chase again.
        current = result.instance;
    }
}

fn egd_violation(instance: &Instance, egd: &Egd) -> Option<(Elem, Elem)> {
    let n = egd.var_count();
    let fixed: Binding = vec![None; n];
    let mut found = None;
    for_each_hom(egd.body(), n, instance, &fixed, &mut |binding| {
        let a = binding[egd.lhs().index()].expect("bound");
        let b = binding[egd.rhs().index()].expect("bound");
        if a == b {
            ControlFlow::Continue(())
        } else {
            found = Some((a, b));
            ControlFlow::Break(())
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::satisfies_tgds;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_dependencies, parse_tgds, Schema};

    #[test]
    fn full_tgds_reach_fixpoint() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..6u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let result = chase(
            &path,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert!(result.nulls.is_empty());
        // Transitive closure of a 6-edge path: 7*6/2 pairs.
        assert_eq!(result.instance.fact_count(), 21);
        assert!(satisfies_tgds(&result.instance, &tgds));
    }

    #[test]
    fn existential_chase_invents_nulls() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "P(x) -> exists z : E(x,z).").unwrap();
        let start = parse_instance(&mut s, "P(a)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.nulls.len(), 1);
        assert_eq!(result.instance.fact_count(), 2);
    }

    #[test]
    fn restricted_chase_reuses_witnesses() {
        let mut s = Schema::default();
        // E(x,y) -> exists z : E(y,z) on a cycle: already satisfied, no
        // firing.
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let result = chase(
            &cycle,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.instance.fact_count(), 2);
        assert!(result.nulls.is_empty());
    }

    #[test]
    fn oblivious_chase_fires_every_trigger() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        // Oblivious chase on a cycle diverges: every new edge spawns another.
        let result = chase(&cycle, &tgds, ChaseVariant::Oblivious, ChaseBudget::small());
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert!(result.instance.fact_count() > 2);
    }

    #[test]
    fn divergent_restricted_chase_hits_budget() {
        let mut s = Schema::default();
        // The classic non-terminating rule: every node has a successor,
        // and successors are fresh because of the P marker asymmetry.
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 500,
                max_rounds: 1_000,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
    }

    #[test]
    fn extend_fold_matches_from_scratch_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
        )
        .unwrap();
        let e = s.pred_id("E").unwrap();
        let p = s.pred_id("P").unwrap();
        let base_start = parse_instance(&mut s, "E(a,b), E(b,c)").unwrap();
        let base = chase(
            &base_start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(base.terminated());
        // Fold in a batch touching both rules: a new edge closing into the
        // old component plus a P-fact demanding a fresh null.
        let c = base_start.elem_by_name("c").unwrap();
        let a = base_start.elem_by_name("a").unwrap();
        let fresh = base.instance.fresh_elem();
        let batch = vec![Fact::new(e, vec![c, fresh]), Fact::new(p, vec![a])];
        let folded = chase_extend_governed(
            &base.instance,
            &base.nulls,
            &batch,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        )
        .0;
        assert!(folded.terminated());
        // Reference: chase base ∪ batch from scratch. Nulls there are
        // allocated from the *start* instance's fresh_elem, so compare by
        // hom-equivalence-free structure: same fact count and the fold's
        // instance satisfies the tgds while containing base ∪ batch.
        let mut scratch_start = base.instance.clone();
        for f in &batch {
            scratch_start.add_fact(f.pred, f.args.clone());
        }
        let scratch = chase(
            &scratch_start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(scratch.terminated());
        assert_eq!(folded.instance, scratch.instance);
        assert_eq!(
            folded.nulls,
            scratch.nulls.union(&base.nulls).copied().collect()
        );
        assert!(satisfies_tgds(&folded.instance, &tgds));
        assert!(base.instance.is_contained_in(&folded.instance));
        assert_eq!(folded.stats.resumes, 0);
    }

    #[test]
    fn extend_with_duplicate_batch_is_a_noop() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let e = s.pred_id("E").unwrap();
        let base = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let a = start.elem_by_name("a").unwrap();
        let b = start.elem_by_name("b").unwrap();
        // Both batch facts are already in the fixpoint: zero rounds, zero
        // trigger searches, unchanged instance.
        let batch = vec![Fact::new(e, vec![a, b]), Fact::new(e, vec![b, a])];
        let folded = chase_extend_governed(
            &base.instance,
            &base.nulls,
            &batch,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        )
        .0;
        assert!(folded.terminated());
        assert_eq!(folded.rounds, 0);
        assert_eq!(folded.stats.triggers_found, 0);
        assert_eq!(folded.instance, base.instance);
    }

    #[test]
    fn chase_extends_start() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(start.is_contained_in(&result.instance));
        assert_eq!(result.instance.fact_count(), 2);
    }

    #[test]
    fn empty_body_rule_fires_once() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "true -> exists x : P(x).").unwrap();
        let start = parse_instance(&mut s, "").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.instance.fact_count(), 1);
        // Already satisfied: no second null.
        let again = chase(
            &result.instance,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert_eq!(again.instance.fact_count(), 1);
    }

    #[test]
    fn provenance_explains_derived_facts() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
        )
        .unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), P(c)").unwrap();
        let (result, provenance) = chase_with_provenance(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        // Every derived fact has an explanation; input facts have none.
        for fact in result.instance.facts() {
            let explained = provenance.explain(&fact).is_some();
            let is_input = start.contains_fact(fact.pred, &fact.args);
            assert_eq!(explained, !is_input, "fact {fact:?}");
        }
        // The transitive edge E(a,c) is explained by rule 0 with (a,b,c).
        let e = s.pred_id("E").unwrap();
        let a = start.elem_by_name("a").unwrap();
        let c = start.elem_by_name("c").unwrap();
        let step = provenance
            .explain(&Fact::new(e, vec![a, c]))
            .expect("derived fact explained");
        assert_eq!(step.tgd_index, 0);
        assert!(step.witnesses.is_empty());
        // The existential edge records its invented witness.
        let exist_step = provenance
            .steps
            .iter()
            .find(|st| st.tgd_index == 1)
            .expect("existential rule fired");
        assert_eq!(exist_step.witnesses.len(), 1);
        assert!(result.nulls.contains(&exist_step.witnesses[0]));
    }

    #[test]
    fn provenance_free_chase_matches_logged_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(c,d)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let (logged, provenance) = chase_with_provenance(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert_eq!(plain.instance, logged.instance);
        assert_eq!(provenance.steps.len(), 2);
    }

    #[test]
    fn core_chase_minimizes_redundant_witnesses() {
        let mut s = Schema::default();
        // Oblivious-style redundancy through two rules deriving the same
        // witness need: the restricted chase of E(a,b) under
        // "E(x,y) -> exists z : E(y,z)" with an extra loop-closing fact.
        let tgds = parse_tgds(
            &mut s,
            "P(x) -> exists z : E(x,z). Q(x) -> exists z : E(x,z).",
        )
        .unwrap();
        let start = parse_instance(&mut s, "P(a), Q(a)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let cored = core_chase(&start, &tgds, ChaseBudget::default());
        assert!(cored.terminated());
        // Both rules share one witness after minimization.
        assert!(cored.instance.fact_count() <= plain.instance.fact_count());
        assert_eq!(cored.instance.fact_count(), 3); // P(a), Q(a), E(a,n)
        assert_eq!(cored.nulls.len(), 1);
        // The result is still a model containing the input.
        assert!(crate::satisfy::satisfies_tgds(&cored.instance, &tgds));
        assert!(start.is_contained_in(&cored.instance));
    }

    #[test]
    fn core_chase_preserves_input_elements() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,a), E(a,b), E(b,a)").unwrap();
        let cored = core_chase(&start, &tgds, ChaseBudget::default());
        assert!(cored.terminated());
        for e in start.active_domain() {
            assert!(
                cored.instance.active_domain().contains(e),
                "input element {e:?} dropped"
            );
        }
        assert!(start.is_contained_in(&cored.instance));
    }

    #[test]
    fn egd_chase_merges_nulls() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "P(x) -> exists z : E(x,z).").unwrap();
        let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
        let egd = deps[0].as_egd().unwrap().clone();
        // Start with E(a,b) and P(a): the chase adds E(a,n) for a null n,
        // and the key egd merges n into b.
        let start = parse_instance(&mut s, "P(a), E(a,b)").unwrap();
        // With the restricted chase nothing fires (E(a,b) witnesses the
        // head); use oblivious to force the null and exercise the merge.
        let result = chase_with_egds(
            &start,
            &tgds,
            &[egd],
            ChaseVariant::Oblivious,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(result.instance.fact_count(), 2);
        assert!(result.nulls.is_empty());
    }

    #[test]
    fn egd_chase_fails_on_original_elements() {
        let mut s = Schema::default();
        let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
        let egd = deps[0].as_egd().unwrap().clone();
        let start = parse_instance(&mut s, "E(a,b), E(a,c)").unwrap();
        let err = chase_with_egds(
            &start,
            &[],
            &[egd],
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        )
        .unwrap_err();
        let (x, y) = err.elements;
        assert_ne!(x, y);
        // The failure carries the stats of the work done up to it: one
        // (trivial, zero-tgd) chase pass ran to termination first.
        assert_eq!(err.stats.rounds, 1);
        assert!(err.stats.total_time > std::time::Duration::ZERO);
    }

    #[test]
    fn pre_cancelled_token_stops_before_round_one() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let result = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert!(result.cancelled());
        assert_eq!(result.rounds, 0);
        assert_eq!(result.instance, start);
        assert_eq!(result.stats.triggers_fired, 0);
    }

    #[test]
    fn expired_deadline_cancels_divergent_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let result = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::large(),
            &token,
        );
        assert!(result.cancelled());
        assert!(start.is_contained_in(&result.instance));
    }

    #[test]
    fn never_token_matches_ungoverned_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let governed = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        );
        assert_eq!(plain.instance, governed.instance);
        assert_eq!(plain.outcome, governed.outcome);
        assert_eq!(plain.rounds, governed.rounds);
    }

    #[test]
    fn injected_trigger_worker_panic_is_contained() {
        crate::faults::silence_injected_panics();
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token = CancelToken::with_faults(crate::faults::FaultPlan::always(
            FaultSite::TriggerWorkerPanic,
        ));
        let result = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        // The very first per-tgd search panics: contained, nothing fired,
        // instance untouched, no process teardown.
        assert!(result.cancelled());
        assert_eq!(result.instance, start);
        assert_eq!(result.rounds, 0);
        assert!(result.stats.panics_contained >= 1);
    }

    #[test]
    fn injected_budget_trip_reports_budget_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token =
            CancelToken::with_faults(crate::faults::FaultPlan::always(FaultSite::BudgetTrip));
        let result = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.instance, start);
    }

    #[test]
    fn cancelled_instance_is_a_round_prefix() {
        // Deterministic chase: the round-j prefix equals a run capped at
        // max_rounds = j. An injected deadline expiry must land exactly on
        // one of those prefixes.
        crate::faults::silence_injected_panics();
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..8u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let full = chase(
            &path,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(full.terminated());
        let prefixes: Vec<Instance> = (0..=full.rounds)
            .map(|j| {
                chase(
                    &path,
                    &tgds,
                    ChaseVariant::Restricted,
                    ChaseBudget {
                        max_facts: usize::MAX,
                        max_rounds: j,
                        max_bytes: usize::MAX,
                    },
                )
                .instance
            })
            .collect();
        for seed in 0..16u64 {
            let token = CancelToken::with_faults(crate::faults::FaultPlan::only(
                seed,
                FaultSite::DeadlineExpire,
                3,
            ));
            let result = chase_governed(
                &path,
                &tgds,
                ChaseVariant::Restricted,
                ChaseBudget::default(),
                &token,
            );
            assert!(
                prefixes.contains(&result.instance),
                "seed {seed}: cancelled instance is not a round prefix"
            );
            if result.cancelled() {
                assert_eq!(result.instance, prefixes[result.rounds]);
            }
        }
    }

    /// A cancellation noticed inside the apply loop truncates the round
    /// back to its watermark: instance, nulls and fired count land on the
    /// run capped at the rounds completed, for both variants. Rounds here
    /// fire well over `APPLY_CANCEL_STRIDE` triggers, so some seeds cancel
    /// mid-apply, which shows as triggers found beyond the capped run's.
    #[test]
    fn mid_apply_cancellation_truncates_to_the_round_watermark() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). E(x,y) -> exists w : F(y,w).",
        )
        .unwrap();
        let e = s.pred_id("E").unwrap();
        let mut path = Instance::new(s.clone());
        for i in 0..100u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let budget = ChaseBudget {
            max_facts: usize::MAX,
            max_rounds: 6,
            max_bytes: usize::MAX,
        };
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let capped: Vec<ChaseResult> = (0..=budget.max_rounds)
                .map(|j| {
                    let budget = ChaseBudget {
                        max_rounds: j,
                        ..budget
                    };
                    chase(&path, &tgds, variant, budget)
                })
                .collect();
            let mut mid_apply = 0;
            for seed in 0..32u64 {
                let token = CancelToken::with_faults(crate::faults::FaultPlan::only(
                    seed,
                    FaultSite::DeadlineExpire,
                    12,
                ));
                let result = chase_governed(&path, &tgds, variant, budget, &token);
                if !result.cancelled() {
                    continue;
                }
                let want = &capped[result.rounds];
                assert_eq!(result.instance, want.instance, "seed {seed}");
                assert_eq!(result.nulls, want.nulls, "seed {seed}");
                assert_eq!(result.stats.triggers_fired, want.stats.triggers_fired);
                assert_eq!(result.stats.facts_added, want.stats.facts_added);
                mid_apply += usize::from(result.stats.triggers_found > want.stats.triggers_found);
            }
            assert!(mid_apply > 0, "{variant:?}: no seed cancelled mid-apply");
        }
    }

    #[test]
    fn max_bytes_env_parse_rules() {
        assert_eq!(parse_max_bytes(None), usize::MAX);
        assert_eq!(parse_max_bytes(Some("")), usize::MAX);
        assert_eq!(parse_max_bytes(Some("not a number")), usize::MAX);
        // Zero means "unset", not "trip immediately on an empty arena".
        assert_eq!(parse_max_bytes(Some("0")), usize::MAX);
        assert_eq!(parse_max_bytes(Some(" 4096 ")), 4096);
    }

    #[test]
    fn explicit_max_bytes_beats_env_override() {
        // Per-request explicit caps win over the process-wide override —
        // a tenant that asked for 1 KiB gets 1 KiB even when the operator
        // set a wider (or tighter) env default.
        assert_eq!(resolve_max_bytes(1024, 1 << 30), 1024);
        assert_eq!(resolve_max_bytes(1 << 30, 1024), 1 << 30);
        // Unspecified (usize::MAX) defers to the override...
        assert_eq!(resolve_max_bytes(usize::MAX, 4096), 4096);
        // ...and stays unlimited when the override is unset too.
        assert_eq!(resolve_max_bytes(usize::MAX, usize::MAX), usize::MAX);
        // Default budgets are env-deferring, not env-baked: the field is
        // the sentinel, so the override is consulted at accountant
        // construction rather than frozen into every budget value (which
        // would leak into cache keys and checkpoint bytes).
        assert_eq!(ChaseBudget::default().max_bytes, usize::MAX);
    }

    #[test]
    fn zero_fact_budget_trips_before_any_trigger_search() {
        let mut s = Schema::default();
        // A trivially satisfied rule: nothing would ever fire, so the old
        // mid-round check never ran and the chase reported Terminated
        // despite the zero budget. The round-start check trips first now.
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(x,y).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 0,
                max_rounds: 100,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.stats.triggers_found, 0);
        assert_eq!(result.instance, start);
        // An empty start under a zero budget is a genuine (empty) fixpoint.
        let empty = parse_instance(&mut s, "").unwrap();
        let empty_result = chase(
            &empty,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 0,
                max_rounds: 100,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(empty_result.outcome, ChaseOutcome::Terminated);
    }

    #[test]
    fn zero_round_budget_reports_budget_exceeded_untouched() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 1_000,
                max_rounds: 0,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.instance, start);
    }

    #[test]
    fn byte_budget_trips_with_memory_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let tight = ChaseBudget {
            max_facts: usize::MAX,
            max_rounds: 1_000,
            max_bytes: start.heap_bytes() + 64,
        };
        let result = chase(&start, &tgds, ChaseVariant::Restricted, tight);
        assert_eq!(result.outcome, ChaseOutcome::MemoryExceeded);
        assert_eq!(result.stats.mem_trips, 1);
        assert!(result.stats.mem_peak_bytes > tight.max_bytes);
        // The trip landed on a round boundary: the instance is a round
        // prefix of the unbounded run.
        let unbounded = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: usize::MAX,
                max_rounds: result.rounds,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.instance, unbounded.instance);
    }

    #[test]
    fn injected_mem_trip_reports_memory_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token =
            CancelToken::with_faults(crate::faults::FaultPlan::always(FaultSite::MemBudgetTrip));
        let result = chase_governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert_eq!(result.outcome, ChaseOutcome::MemoryExceeded);
        assert_eq!(result.instance, start);
        assert_eq!(result.stats.mem_trips, 1);
    }

    #[test]
    fn trip_checkpoint_resume_matches_uninterrupted() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..8u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let generous = ChaseBudget::default();
        let full = chase(&path, &tgds, ChaseVariant::Restricted, generous);
        assert!(full.terminated());
        // Trip at every possible round boundary and resume to completion.
        for j in 0..full.rounds {
            let tight = ChaseBudget {
                max_facts: 20_000,
                max_rounds: j,
                max_bytes: usize::MAX,
            };
            let (tripped, checkpoint) = chase_checkpointing(
                &path,
                &tgds,
                ChaseVariant::Restricted,
                tight,
                &CancelToken::new(),
            );
            assert_eq!(tripped.outcome, ChaseOutcome::BudgetExceeded);
            let checkpoint = checkpoint.expect("tripped run is resumable");
            // Exercise the full encode/decode path, not just the in-memory
            // struct.
            let decoded =
                ChaseCheckpoint::decode(&checkpoint.encode(), &s).expect("decodes cleanly");
            assert_eq!(decoded, *checkpoint);
            let (resumed, next) = chase_resume(&decoded, &tgds, generous, &CancelToken::new())
                .expect("checkpoint matches its tgd set");
            assert!(next.is_none(), "resumed run reaches the fixpoint");
            assert_eq!(resumed.instance, full.instance);
            assert_eq!(resumed.nulls, full.nulls);
            assert_eq!(resumed.rounds, full.rounds);
            assert_eq!(resumed.stats.normalized(), full.stats.normalized());
            assert_eq!(resumed.stats.resumes, 1);
        }
    }

    #[test]
    fn oblivious_resume_preserves_fired_memory() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let full_budget = ChaseBudget {
            max_facts: usize::MAX,
            max_rounds: 6,
            max_bytes: usize::MAX,
        };
        let full = chase(&cycle, &tgds, ChaseVariant::Oblivious, full_budget);
        for j in 0..6 {
            let (_, checkpoint) = chase_checkpointing(
                &cycle,
                &tgds,
                ChaseVariant::Oblivious,
                ChaseBudget {
                    max_rounds: j,
                    ..full_budget
                },
                &CancelToken::new(),
            );
            let checkpoint = checkpoint.expect("resumable");
            let decoded = ChaseCheckpoint::decode(&checkpoint.encode(), &s).unwrap();
            let (resumed, _) =
                chase_resume(&decoded, &tgds, full_budget, &CancelToken::new()).unwrap();
            assert_eq!(resumed.instance, full.instance);
            assert_eq!(resumed.stats.normalized(), full.stats.normalized());
        }
    }

    #[test]
    fn resume_against_wrong_tgds_is_rejected() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let other = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let (_, checkpoint) = chase_checkpointing(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: usize::MAX,
                max_rounds: 2,
                max_bytes: usize::MAX,
            },
            &CancelToken::new(),
        );
        let checkpoint = checkpoint.expect("resumable");
        let err = chase_resume(
            &checkpoint,
            &other,
            ChaseBudget::default(),
            &CancelToken::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::ContextMismatch(_)));
    }

    #[test]
    fn terminated_run_yields_no_checkpoint() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let (result, checkpoint) = chase_checkpointing(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        );
        assert!(result.terminated());
        assert!(checkpoint.is_none());
    }
}
