//! Entailment memoization and body-grouped chase sharing.
//!
//! The rewriting procedures of paper §9.2 and the locality checkers spend
//! almost all their time deciding `Σ ⊨ σ` over the enumerated candidate
//! space `C_{n,m}`. Two structural facts make most of that work redundant:
//!
//! 1. **Entailment is renaming-invariant.** `Σ ⊨ σ` depends on `σ` only up
//!    to variable renaming and atom reordering, so a verdict can be keyed by
//!    the candidate's [`tgd_variant_key`] together with a fingerprint of `Σ`
//!    and the chase budget, and reused across repeated procedures
//!    ([`EntailCache`]).
//! 2. **Candidates cluster by body.** `C_{n,m}` pairs every admissible body
//!    with every admissible head, so thousands of candidates share a body
//!    modulo renaming — and the chase of the frozen body depends on the body
//!    alone. Grouping candidates by canonical body ([`group_by_body`]),
//!    chasing each distinct body once, and deciding every head in the group
//!    by an indexed hom probe into the shared chase result (one [`sweep`]
//!    over the groups) turns `O(candidates)` chases into
//!    `O(distinct bodies)` chases.
//!
//! Both layers are exact: the canonical form produced by
//! [`tgdkit_logic::canonical_tgd`] is identical for renaming-variants (for conjunctions of
//! at most [`tgdkit_logic::canon::EXACT_LIMIT`] atoms; beyond that the
//! greedy form merely splits groups, which costs speed, never soundness).
//! The group evaluator is the one pipeline that decides `Σ ⊨ σ` — linear
//! fast path, budgeted chase, head probe, finite countermodel search on
//! `Unknown` — for the sweep's groups and, as one-member groups, for every
//! single-candidate decision ([`crate::decide`]).

use crate::chase::{chase_indexed, ChaseBudget, ChaseOutcome};
use crate::checkpoint::{verdict_from_tag, verdict_tag, BatchCheckpoint, CheckpointError};
use crate::countermodel::{refute_by_countermodel_governed, SearchBudget};
use crate::entail::{freeze_body, holds_pinned, Entailment};
use crate::faults::FaultSite;
use crate::faults::INJECTED_PANIC;
use crate::govern::CancelToken;
use crate::linear::entails_linear_governed;
use crate::memory::MemoryAccountant;
use crate::stats::ChaseStats;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use tgdkit_hom::{Binding, InstanceIndex};
use tgdkit_instance::FxBuildHasher;
use tgdkit_logic::{canonical_tgd_with_key, tgd_variant_key, Schema, Tgd, TgdVariantKey};

/// Verdicts stored under one variant key: `(Σ fingerprint, budget, verdict)`
/// triples. Nearly always one entry — a second appears only when the same
/// candidate is decided under a different set or budget.
type KeyedVerdicts = Vec<(u64, ChaseBudget, Entailment)>;

/// Result of [`batch_entailment`]: per-candidate verdicts, batch stats, and
/// the checkpoint when the run suspended (`None` when it ran to completion
/// or was merely cancelled).
pub type BatchRun = (
    Vec<Entailment>,
    EntailBatchStats,
    Option<Box<BatchCheckpoint>>,
);

/// A renaming-invariant fingerprint of a tgd set, for use as the `Σ`
/// component of an [`EntailCache`] key.
///
/// Two sets with the same members up to variable renaming, atom reordering,
/// member reordering and duplication get the same fingerprint. (A 64-bit
/// hash collision between *different* sets is possible in principle; at the
/// cache's working-set sizes — thousands of entries — the probability is
/// negligible, and the cache is an accelerator, not a proof store.)
pub fn sigma_fingerprint(sigma: &[Tgd]) -> u64 {
    let mut keys: Vec<TgdVariantKey> = sigma.iter().map(tgd_variant_key).collect();
    keys.sort();
    keys.dedup();
    let mut hasher = DefaultHasher::new();
    keys.hash(&mut hasher);
    hasher.finish()
}

/// Default key-count cap for [`EntailCache::new`]: effectively unbounded
/// for the candidate spaces tgdkit enumerates, yet a hard backstop against
/// pathological runs.
pub const DEFAULT_CACHE_MAX_ENTRIES: usize = 1 << 20;

/// Default resident-byte cap for [`EntailCache::new`] (256 MiB).
pub const DEFAULT_CACHE_MAX_BYTES: usize = 256 * 1024 * 1024;

/// Fixed overhead charged per cached key: one map entry, one queue slot,
/// and the two `Vec` headers (encoded sequence + verdict bucket).
const KEY_OVERHEAD_BYTES: usize = 96;

/// Estimated resident bytes of one cached key (stored twice: map + queue).
fn key_cost(key: &TgdVariantKey) -> usize {
    KEY_OVERHEAD_BYTES + 2 * key.encoded_len() * std::mem::size_of::<u32>()
}

/// Estimated resident bytes of one verdict slot inside a bucket.
const VERDICT_COST: usize = std::mem::size_of::<(u64, ChaseBudget, Entailment)>();

/// The locked state of an [`EntailCache`]: the verdict map plus the
/// eviction queue and the byte estimate, mutated together so they never
/// drift apart.
#[derive(Debug, Default)]
struct CacheInner {
    // Keyed by variant key alone (the fingerprint/budget pair discriminates
    // inside the bucket): lookups then need no key clone and no SipHash —
    // the map uses the deterministic Fx hasher shared with the tuple store.
    // The key is `Arc`-shared with the eviction queue so a fresh store
    // clones the encoded key once, not once per structure (`Borrow` lets
    // lookups still probe with a plain `&TgdVariantKey`).
    map: HashMap<Arc<TgdVariantKey>, KeyedVerdicts, FxBuildHasher>,
    /// Keys in first-insertion order — the deterministic eviction queue.
    queue: VecDeque<Arc<TgdVariantKey>>,
    /// Estimated resident bytes of the map and queue contents.
    bytes: usize,
}

/// A concurrent, **bounded** memo of entailment verdicts keyed by
/// (candidate [`tgd_variant_key`], [`sigma_fingerprint`], [`ChaseBudget`]).
///
/// Shared by reference across rewriting / expressibility / characterization
/// calls (and across worker threads within one call); all methods take
/// `&self`. Hit/miss counters are cumulative over the cache's lifetime;
/// per-run accounting lives in [`EntailBatchStats`].
///
/// ## Bounds and eviction
///
/// The cache holds at most `max_entries` keys and an estimated
/// `max_bytes` of resident memory ([`Self::with_capacity`]). When a store
/// pushes past either cap, whole keys are evicted in **first-insertion
/// (FIFO) order** — a deterministic policy, unlike recency-based ones,
/// because it depends only on the store sequence, never on lookup timing —
/// until the cache is back under both caps. The key being stored is never
/// evicted by its own store, so at least the most recent entry is always
/// retained, even under a zero cap. Evicted keys count in
/// [`Self::evictions`].
#[derive(Debug)]
pub struct EntailCache {
    inner: RwLock<CacheInner>,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    /// Mirror of `CacheInner::bytes`, refreshed after every store, so
    /// memory accounting can read residency without taking the lock.
    approx_bytes: AtomicUsize,
    /// Lock acquisitions that found the lock poisoned and recovered
    /// (see [`EntailCache::poison_recoveries`]).
    poison_recoveries: AtomicUsize,
    /// Poison recoveries whose invariant check failed, forcing a
    /// defensive clear (see [`EntailCache::poison_clears`]).
    poison_clears: AtomicUsize,
}

impl Default for EntailCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EntailCache {
    /// An empty cache with the default caps
    /// ([`DEFAULT_CACHE_MAX_ENTRIES`], [`DEFAULT_CACHE_MAX_BYTES`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_MAX_ENTRIES, DEFAULT_CACHE_MAX_BYTES)
    }

    /// An empty cache holding at most `max_entries` keys and an estimated
    /// `max_bytes` of resident memory. The most recently stored key is
    /// always retained, so the effective floor of both caps is one entry.
    pub fn with_capacity(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            inner: RwLock::default(),
            max_entries,
            max_bytes,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            approx_bytes: AtomicUsize::new(0),
            poison_recoveries: AtomicUsize::new(0),
            poison_clears: AtomicUsize::new(0),
        }
    }

    /// Acquires the verdict map for reading, recovering from poison.
    ///
    /// The cache is shared across worker threads whose panics PR 3
    /// deliberately *contains* — so a panic that unwound through a lock
    /// guard must not convert every later cached query into an abort (the
    /// pre-fix behavior: `.expect("entail cache poisoned")` crashed the
    /// whole process on the next request). A memo of exact, reproducible
    /// verdicts is safe to keep serving: readers never see torn data
    /// because writers re-validate the map/queue invariants on their own
    /// recovery path ([`Self::write_inner`]).
    fn read_inner(&self) -> std::sync::RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Acquires the verdict map for writing, recovering from poison. On
    /// recovery the map/queue/bytes invariants are checked; if the
    /// interrupted writer left them inconsistent the whole cache is
    /// defensively cleared (counted in [`Self::poison_clears`]) — dropping
    /// a memo is always sound, serving a torn one never is.
    fn write_inner(&self) -> std::sync::RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            let mut inner = poisoned.into_inner();
            let coherent = inner.queue.len() == inner.map.len()
                && inner.queue.iter().all(|k| inner.map.contains_key(k));
            if !coherent {
                inner.map.clear();
                inner.queue.clear();
                inner.bytes = 0;
                self.approx_bytes.store(0, Ordering::Relaxed);
                self.poison_clears.fetch_add(1, Ordering::Relaxed);
            }
            inner
        })
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.read_inner().map.values().map(Vec::len).sum()
    }

    /// `true` when no verdict has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative keys evicted by the capacity caps.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lock acquisitions that found the `RwLock` poisoned by a contained
    /// panic and recovered instead of propagating (pre-fix, every one of
    /// these was a process-crashing `.expect`).
    pub fn poison_recoveries(&self) -> usize {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Poison recoveries that found the map/queue invariants broken and
    /// defensively cleared the cache (a cleared memo costs speed, never
    /// soundness).
    pub fn poison_clears(&self) -> usize {
        self.poison_clears.load(Ordering::Relaxed)
    }

    /// Test-only: poisons the internal lock the way a contained worker
    /// panic would — unwinding while the write guard is held. Lets
    /// integration tests (see `tests/cache_poison.rs`) exercise the
    /// poison-recovery path against the public API from outside the crate.
    #[cfg(any(test, feature = "tgdkit-faults"))]
    pub fn poison_for_tests(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.inner.write().unwrap();
            panic!(
                "{}: unwound while holding the cache write lock",
                crate::faults::INJECTED_PANIC
            );
        }));
        assert!(result.is_err(), "the injected panic must unwind");
    }

    /// Estimated resident bytes of the cached verdicts (lock-free read of
    /// the value maintained by the last store).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// The key-count cap this cache was built with.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The resident-byte cap this cache was built with.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Cumulative hit rate in `[0, 1]`; `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Looks up the verdict for `candidate` under a set with the given
    /// fingerprint and budget.
    pub fn lookup(
        &self,
        candidate: &Tgd,
        fingerprint: u64,
        budget: ChaseBudget,
    ) -> Option<Entailment> {
        self.lookup_key(&tgd_variant_key(candidate), fingerprint, budget)
    }

    /// Stores a verdict for `candidate` under the given fingerprint/budget.
    pub fn store(&self, candidate: &Tgd, fingerprint: u64, budget: ChaseBudget, v: Entailment) {
        self.store_key(&tgd_variant_key(candidate), fingerprint, budget, v);
    }

    fn lookup_key(
        &self,
        key: &TgdVariantKey,
        fingerprint: u64,
        budget: ChaseBudget,
    ) -> Option<Entailment> {
        let v = self.read_inner().map.get(key).and_then(|entries| {
            entries
                .iter()
                .find(|(fp, b, _)| *fp == fingerprint && *b == budget)
                .map(|(_, _, v)| *v)
        });
        let counter = if v.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// [`Self::lookup_key`] over a whole sequence of keys under **one**
    /// read-lock acquisition, returning one slot per key in order. The
    /// grouped evaluator resolves every member this way before its member
    /// loop starts — per-member lookups made the shared lock word (and the
    /// hit/miss counters) the hottest cache lines of the parallel sweep.
    fn lookup_keys<'k>(
        &self,
        keys: impl Iterator<Item = &'k TgdVariantKey>,
        fingerprint: u64,
        budget: ChaseBudget,
    ) -> Vec<Option<Entailment>> {
        let inner = self.read_inner();
        let out: Vec<Option<Entailment>> = keys
            .map(|key| {
                inner.map.get(key).and_then(|entries| {
                    entries
                        .iter()
                        .find(|(fp, b, _)| *fp == fingerprint && *b == budget)
                        .map(|(_, _, v)| *v)
                })
            })
            .collect();
        drop(inner);
        let hits = out.iter().filter(|v| v.is_some()).count();
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(out.len() - hits, Ordering::Relaxed);
        out
    }

    /// [`Self::store_key`] over a batch under **one** write-lock
    /// acquisition. Stores land in iteration order, so the FIFO eviction
    /// sequence is identical to storing one by one; `approx_bytes` is
    /// refreshed once after the batch.
    fn store_keys<'k>(
        &self,
        items: impl Iterator<Item = (&'k TgdVariantKey, Entailment)>,
        fingerprint: u64,
        budget: ChaseBudget,
    ) {
        let mut inner = self.write_inner();
        for (key, v) in items {
            self.store_locked(&mut inner, key, fingerprint, budget, v);
        }
        self.approx_bytes.store(inner.bytes, Ordering::Relaxed);
    }

    fn store_key(&self, key: &TgdVariantKey, fingerprint: u64, budget: ChaseBudget, v: Entailment) {
        let mut inner = self.write_inner();
        self.store_locked(&mut inner, key, fingerprint, budget, v);
        self.approx_bytes.store(inner.bytes, Ordering::Relaxed);
    }

    fn store_locked(
        &self,
        inner: &mut CacheInner,
        key: &TgdVariantKey,
        fingerprint: u64,
        budget: ChaseBudget,
        v: Entailment,
    ) {
        match inner.map.get_mut(key) {
            Some(entries) => {
                match entries
                    .iter_mut()
                    .find(|(fp, b, _)| *fp == fingerprint && *b == budget)
                {
                    Some(slot) => slot.2 = v,
                    None => {
                        entries.push((fingerprint, budget, v));
                        inner.bytes += VERDICT_COST;
                    }
                }
            }
            None => {
                let shared = Arc::new(key.clone());
                inner
                    .map
                    .insert(Arc::clone(&shared), vec![(fingerprint, budget, v)]);
                inner.queue.push_back(shared);
                inner.bytes += key_cost(key) + VERDICT_COST;
            }
        }
        // FIFO eviction down to both caps; the key just stored is skipped
        // (rotated to the back) so a store can never erase its own verdict.
        while inner.map.len() > 1
            && (inner.map.len() > self.max_entries || inner.bytes > self.max_bytes)
        {
            let victim = inner.queue.pop_front().expect("queue tracks map keys");
            if *victim == *key {
                inner.queue.push_back(victim);
                continue;
            }
            if let Some(entries) = inner.map.remove(&victim) {
                let freed = key_cost(&victim) + entries.len() * VERDICT_COST;
                inner.bytes = inner.bytes.saturating_sub(freed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Candidates sharing one canonical body (hence one frozen instance, hence
/// one chase). Produced by [`group_by_body`].
#[derive(Debug, Clone)]
pub struct BodyGroup<'a> {
    /// `(index into the original slice, canonical representative, variant
    /// key)` for each member. The canonical form is what gets evaluated;
    /// verdicts are renaming-invariant, so they hold for the original
    /// candidate too. The key rides along so cache lookups never repeat the
    /// canonical ordering search.
    ///
    /// Members borrow from the candidate pool when it is already canonical
    /// ([`group_by_body_keyed`]) — cloning thousands of `Tgd`s just to
    /// group them was a measurable slice of the evaluator's serial prelude
    /// — and own freshly canonicalized forms otherwise ([`group_by_body`]).
    pub members: Vec<(usize, Cow<'a, Tgd>, Cow<'a, TgdVariantKey>)>,
}

/// Groups candidates by the body of their canonical form
/// ([`tgdkit_logic::canonical_tgd`]), preserving first-occurrence order of
/// both groups and members (so downstream evaluation order is
/// deterministic).
pub fn group_by_body(candidates: &[Tgd]) -> Vec<BodyGroup<'static>> {
    let mut groups: Vec<BodyGroup<'static>> = Vec::new();
    // Grouping key: the body prefix of the variant key — equal prefixes iff
    // equal canonical bodies, and a flat `Vec<u32>` hashes much faster than
    // the atom vector it encodes.
    let mut by_body: HashMap<Vec<u32>, usize, FxBuildHasher> = HashMap::default();
    for (i, c) in candidates.iter().enumerate() {
        let (canon, key) = canonical_tgd_with_key(c);
        let slot = match by_body.get(key.body_prefix()) {
            Some(&slot) => slot,
            None => {
                groups.push(BodyGroup {
                    members: Vec::new(),
                });
                by_body.insert(key.body_prefix().to_vec(), groups.len() - 1);
                groups.len() - 1
            }
        };
        groups[slot]
            .members
            .push((i, Cow::Owned(canon), Cow::Owned(key)));
    }
    groups
}

/// [`group_by_body`] for candidates that are **already canonical** with
/// known variant keys (parallel slices, as produced by the candidate
/// enumerator, whose dedup computes every key anyway): grouping then skips
/// the canonical ordering search entirely and just buckets by the keys'
/// body prefixes. Grouping, member order, and downstream verdicts are
/// identical to [`group_by_body`] on the same candidates.
pub fn group_by_body_keyed<'a>(
    candidates: &'a [Tgd],
    keys: &'a [TgdVariantKey],
) -> Vec<BodyGroup<'a>> {
    assert_eq!(
        candidates.len(),
        keys.len(),
        "candidates and variant keys must be parallel"
    );
    let mut groups: Vec<BodyGroup<'a>> = Vec::new();
    let mut by_body: HashMap<&[u32], usize, FxBuildHasher> = HashMap::default();
    for (i, (c, key)) in candidates.iter().zip(keys).enumerate() {
        let slot = match by_body.get(key.body_prefix()) {
            Some(&slot) => slot,
            None => {
                groups.push(BodyGroup {
                    members: Vec::new(),
                });
                by_body.insert(key.body_prefix(), groups.len() - 1);
                groups.len() - 1
            }
        };
        groups[slot]
            .members
            .push((i, Cow::Borrowed(c), Cow::Borrowed(key)));
    }
    groups
}

/// Per-sweep accounting for [`sweep`] and the entry points built on it.
///
/// Unlike the cumulative counters on [`EntailCache`], these cover exactly
/// one sweep, so callers can report per-run sharing even with a cache shared
/// across many runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntailBatchStats {
    /// Candidates evaluated.
    pub candidates: usize,
    /// Distinct canonical bodies among them.
    pub body_groups: usize,
    /// Frozen bodies actually chased (≤ `body_groups`: a group whose members
    /// are all settled by the cache or the linear fast path never chases).
    pub bodies_chased: usize,
    /// Heads decided by a hom probe into a shared chase result.
    pub heads_probed: usize,
    /// Verdicts served from the [`EntailCache`].
    pub cache_hits: usize,
    /// Lookups that missed and forced an evaluation.
    pub cache_misses: usize,
    /// Keys evicted from the bounded [`EntailCache`] during this sweep
    /// (approximate when the cache is concurrently shared with other runs).
    pub evictions: usize,
    /// Body groups whose evaluation panicked and was contained; their
    /// candidates keep `Unknown` verdicts.
    pub panics_contained: usize,
    /// Aggregated engine stats of the body chases.
    pub chase: ChaseStats,
}

impl EntailBatchStats {
    /// Folds another sweep's counters into `self`.
    pub fn absorb(&mut self, other: &EntailBatchStats) {
        self.candidates += other.candidates;
        self.body_groups += other.body_groups;
        self.bodies_chased += other.bodies_chased;
        self.heads_probed += other.heads_probed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.panics_contained += other.panics_contained;
        self.chase.absorb(&other.chase);
    }
}

/// Decides `Σ ⊨ σ` for every member of one body group, chasing the shared
/// frozen body at most once: the one pipeline behind the sweep and, as a
/// one-member group, behind [`crate::decide`].
///
/// Per member: linear backward-rewriting fast path when `Σ` is all-linear,
/// then the budgeted chase (shared across the group) and a head probe with
/// the frontier pinned, then finite countermodel search on `Unknown`.
/// Members are evaluated as given, so the group must share one frozen
/// body. The chase is lazy: if every member is settled by the cache or the
/// linear fast path, the body is never chased. With `cache` unset the
/// members' keys are never read.
///
/// Returns `(original index, verdict)` pairs in member order.
///
/// The [`CancelToken`] is checked per member: once cancelled, remaining
/// members settle as `Unknown` without chasing or searching. `Unknown`
/// verdicts reached under a *tainted* token (cancelled or fault-injected;
/// see [`CancelToken::is_tainted`]) are **not** stored in the cache — the
/// cache is keyed by budget alone, and a deadline-induced `Unknown` must
/// not shadow the verdict an unhurried rerun would reach. `Proved` /
/// `Disproved` stay storable: both are sound regardless of truncation.
pub(crate) fn evaluate_group(
    schema: &Schema,
    sigma: &[Tgd],
    group: &BodyGroup,
    budget: ChaseBudget,
    cache: Option<(&EntailCache, u64)>,
    stats: &mut EntailBatchStats,
    token: &CancelToken,
) -> Vec<(usize, Entailment)> {
    // Injected memory trips belong to the *suspension* sites (the batch's
    // group boundaries), where a checkpoint can recover them. Inside the
    // group they would degrade verdicts unrecoverably — that failure mode
    // is `FaultSite::BudgetTrip`'s job — so the member chases run under a
    // view of the token that masks the injection (real byte governance is
    // untouched; it is deterministic and hits clean reruns identically).
    let token = &token.masking_fault(FaultSite::MemBudgetTrip);
    let sigma_linear = !sigma.is_empty() && sigma.iter().all(Tgd::is_linear);
    let mut shared: Option<(InstanceIndex<'static>, ChaseOutcome)> = None;
    let mut verdicts = Vec::with_capacity(group.members.len());
    // Resolve the whole group against the cache under one read-lock
    // acquisition, and defer stores to one write-lock acquisition after the
    // member loop: with per-member lookup/store the shared `RwLock` was the
    // hottest line of the parallel sweep. Deferring a store only delays when
    // a concurrent worker could reuse the verdict (and drops it if the group
    // panics) — both cost speed, never soundness.
    let cached: Option<Vec<Option<Entailment>>> =
        cache.map(|(c, fp)| c.lookup_keys(group.members.iter().map(|(_, _, k)| &**k), fp, budget));
    let mut to_store: Vec<(usize, Entailment)> = Vec::new();
    // One binding buffer serves every head probe in the group.
    let mut fixed: Binding = Vec::new();
    for (mi, (idx, cand, _)) in group.members.iter().enumerate() {
        if token.is_cancelled() {
            verdicts.push((*idx, Entailment::Unknown));
            continue;
        }
        if let Some(cached) = &cached {
            if let Some(v) = cached[mi] {
                stats.cache_hits += 1;
                verdicts.push((*idx, v));
                continue;
            }
            stats.cache_misses += 1;
        }
        let mut verdict = Entailment::Unknown;
        if sigma_linear {
            // Saturation cap proportional to the chase budget's appetite.
            verdict =
                entails_linear_governed(schema, sigma, cand, budget.max_facts.max(10_000), token);
        }
        if verdict == Entailment::Unknown && !token.is_cancelled() {
            if shared.is_none() {
                let frozen = freeze_body(schema, cand);
                let run = chase_indexed(&frozen, sigma, budget, token);
                stats.bodies_chased += 1;
                stats.chase.absorb(&run.stats);
                // A cancelled chase yields a round-prefix, not the model the
                // head probe needs: every member's verdict is `Unknown`
                // regardless.
                if run.outcome == ChaseOutcome::Cancelled {
                    verdicts.push((*idx, Entailment::Unknown));
                    continue;
                }
                // The chase's own index covers the chased instance: the
                // head probes read it as it is.
                shared = Some((run.index, run.outcome));
            }
            let (index, outcome) = shared.as_ref().expect("chase result shared above");
            stats.heads_probed += 1;
            let (head, vars) = (cand.head(), cand.var_count());
            verdict = if holds_pinned(head, vars, cand.universal_count(), index, &mut fixed) {
                Entailment::Proved
            } else if *outcome == ChaseOutcome::Terminated {
                Entailment::Disproved
            } else if token.is_cancelled() {
                Entailment::Unknown
            } else {
                refute_by_countermodel_governed(
                    schema,
                    sigma,
                    cand,
                    &SearchBudget::default(),
                    token,
                )
            };
        }
        let storable = verdict != Entailment::Unknown || !token.is_tainted();
        if cache.is_some() && storable {
            to_store.push((mi, verdict));
        }
        verdicts.push((*idx, verdict));
    }
    if let (Some((c, fp)), false) = (cache, to_store.is_empty()) {
        c.store_keys(
            to_store.iter().map(|&(mi, v)| (&*group.members[mi].2, v)),
            fp,
            budget,
        );
    }
    verdicts
}

/// Progress of one candidate sweep ([`sweep`]): which body groups are
/// settled, one verdict slot per candidate, the sweep's counters, and
/// whether any verdict was reached under a tainted token.
///
/// This is the whole resumable state of a suspended sweep. The batch
/// checkpoint ([`BatchCheckpoint`]) and the rewrite checkpoint (in
/// `tgdkit-core`) embed it next to their own context fingerprints, and both
/// encode it with one codec ([`crate::checkpoint::write_sweep`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepState {
    /// Settled flag per body group, in group order.
    pub done: Vec<bool>,
    /// Verdict slot per candidate, in candidate order (`Unknown` until the
    /// candidate's group settles).
    pub verdicts: Vec<Entailment>,
    /// Counters accumulated so far, contained group panics included.
    pub stats: EntailBatchStats,
    /// Whether any verdict was reached under a tainted token (see
    /// [`CancelToken::is_tainted`]), carried so resumed runs keep gating
    /// cache persistence correctly.
    pub tainted: bool,
}

/// How [`sweep`] visits the body groups. The rule: only the serial
/// schedule suspends, so only it resumes.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// One group after another, in group order — the resumable schedule.
    /// Groups the given state already settled are skipped. At each group
    /// boundary the sweep charges resident bytes (cache residency plus the
    /// peak chase arena) against [`ChaseBudget::max_bytes`], consults
    /// [`FaultSite::MemBudgetTrip`], and polls the quantum
    /// ([`CancelToken::should_suspend`]); any of the three suspends it.
    Serial(Option<&'a SweepState>),
    /// Work stealing on all available cores: workers claim the next group
    /// from an atomic index and publish verdicts into per-candidate slots,
    /// so the output is identical to the serial one whatever the claim
    /// order. No suspension points: it runs to completion or cancellation.
    Stealing,
}

/// What [`sweep`] returns.
#[derive(Debug)]
pub struct SweepRun {
    /// Verdicts, counters and group progress — the checkpoint payload when
    /// the sweep suspended.
    pub state: SweepState,
    /// `true` when the serial schedule stopped at a group boundary on a
    /// byte trip or a quantum expiry (a trip also counts in
    /// `state.stats.chase.mem_trips`).
    pub suspended: bool,
    /// Work-stealing imbalance: groups claimed beyond an even static split
    /// (`Σ_w max(0, claimed_w − ⌈groups/workers⌉)`); 0 when serial.
    pub steals: usize,
    /// Highest estimated resident bytes seen: the peak chase arena, and for
    /// the serial schedule also cache residency at group boundaries.
    pub mem_peak_bytes: usize,
}

/// Decides `Σ ⊨ σ` for every member of `groups` — the one candidate sweep
/// behind batch entailment ([`batch_entailment`]) and the rewriting filter
/// `Σ′ = {σ ∈ C_{n,m} | Σ ⊨ σ}` (in `tgdkit-core`).
///
/// Each group is evaluated behind a panic barrier: a panic
/// inside one group (a bug in the chase stack, or a fault injected at
/// [`FaultSite::GroupEvalPanic`]) leaves that group's candidates `Unknown`,
/// discards its partial counters, and counts one
/// [`EntailBatchStats::panics_contained`]. `Unknown` is always sound, so
/// containment can degrade precision but never invert a verdict.
///
/// Cancellation is honored at group granularity: remaining candidates stay
/// `Unknown`. The [`Schedule`] picks serial (resumable) or work-stealing
/// evaluation; both give identical verdicts.
///
/// # Panics
///
/// If a resumed state does not match `groups` (group or candidate count);
/// the entry points check this and return a typed error first.
pub fn sweep(
    schema: &Schema,
    sigma: &[Tgd],
    groups: &[BodyGroup],
    budget: ChaseBudget,
    cache: Option<&EntailCache>,
    token: &CancelToken,
    schedule: Schedule<'_>,
) -> SweepRun {
    let keyed = cache.map(|c| (c, sigma_fingerprint(sigma)));
    let evictions_before = cache.map_or(0, EntailCache::evictions);
    let candidates = groups.iter().map(|g| g.members.len()).sum();
    let mut state = match schedule {
        Schedule::Serial(Some(resumed)) => {
            assert_eq!(resumed.done.len(), groups.len(), "resumed group count");
            assert_eq!(
                resumed.verdicts.len(),
                candidates,
                "resumed candidate count"
            );
            let mut state = resumed.clone();
            state.stats.chase.resumes += 1;
            state
        }
        _ => SweepState {
            done: vec![false; groups.len()],
            verdicts: vec![Entailment::Unknown; candidates],
            stats: EntailBatchStats {
                candidates,
                body_groups: groups.len(),
                ..Default::default()
            },
            tainted: false,
        },
    };
    let (suspended, steals, mem_peak_bytes) = match schedule {
        Schedule::Serial(_) => {
            let accountant = MemoryAccountant::new(budget.effective_max_bytes());
            let mut suspended = false;
            for (gi, group) in groups.iter().enumerate() {
                if state.done[gi] {
                    continue;
                }
                if token.is_cancelled() {
                    break;
                }
                let resident =
                    cache.map_or(0, EntailCache::approx_bytes) + state.stats.chase.mem_peak_bytes;
                let tripped =
                    accountant.charge_to(resident) || token.fault(FaultSite::MemBudgetTrip);
                // A quantum expiry lands on the same resumable boundary as
                // a byte trip but is not one: the scheduler that asked for
                // it resumes with the same budget.
                if tripped || token.should_suspend() {
                    if tripped {
                        state.stats.chase.mem_trips += 1;
                    }
                    suspended = true;
                    break;
                }
                let decided = evaluate_group_contained(
                    schema,
                    sigma,
                    group,
                    budget,
                    keyed,
                    &mut state.stats,
                    token,
                );
                for (idx, v) in decided {
                    state.verdicts[idx] = v;
                }
                state.done[gi] = true;
            }
            let peak = state
                .stats
                .chase
                .mem_peak_bytes
                .max(accountant.peak_bytes());
            (suspended, 0, peak)
        }
        Schedule::Stealing => {
            let steals = steal(schema, sigma, groups, budget, keyed, token, &mut state);
            (false, steals, state.stats.chase.mem_peak_bytes)
        }
    };
    if let Some(c) = cache {
        state.stats.evictions += c.evictions().saturating_sub(evictions_before);
    }
    state.tainted |= token.is_tainted();
    SweepRun {
        state,
        suspended,
        steals,
        mem_peak_bytes,
    }
}

/// The work-stealing schedule of [`sweep`]: the calling thread and
/// `workers − 1` scoped threads repeatedly claim the next unevaluated group
/// from an atomic index, so a worker that drew cheap groups keeps pulling
/// work while another grinds through an expensive chase. Verdicts land in
/// pre-sized atomic slots (hence in `state` in candidate order); returns the
/// steal count.
fn steal(
    schema: &Schema,
    sigma: &[Tgd],
    groups: &[BodyGroup],
    budget: ChaseBudget,
    keyed: Option<(&EntailCache, u64)>,
    token: &CancelToken,
    state: &mut SweepState,
) -> usize {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(groups.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<AtomicU8> = (0..state.verdicts.len())
        .map(|_| AtomicU8::new(verdict_tag(Entailment::Unknown)))
        .collect();
    let work = || {
        let mut local = EntailBatchStats::default();
        let mut claimed = 0usize;
        while !token.is_cancelled() {
            let gi = next.fetch_add(1, Ordering::Relaxed);
            if gi >= groups.len() {
                break;
            }
            claimed += 1;
            let group = &groups[gi];
            for (idx, v) in
                evaluate_group_contained(schema, sigma, group, budget, keyed, &mut local, token)
            {
                slots[idx].store(verdict_tag(v), Ordering::Release);
            }
        }
        (local, claimed)
    };
    let mut claims = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        claims.push(work());
        for handle in handles {
            // Worker bodies contain per-group panics themselves; a panic
            // escaping here is a bug in the scheduler shell, worth aborting on.
            claims.push(handle.join().expect("entailment worker panicked"));
        }
    });
    for (local, _) in &claims {
        state.stats.absorb(local);
    }
    for (slot, verdict) in slots.iter().zip(&mut state.verdicts) {
        *verdict = verdict_from_tag(slot.load(Ordering::Acquire)).expect("slots hold verdict tags");
    }
    // Claims are handed out in group order and every claimed group was
    // evaluated before its worker joined.
    let claimed = next.into_inner().min(groups.len());
    state.done[..claimed].fill(true);
    let fair_share = groups.len().div_ceil(workers);
    claims
        .iter()
        .map(|&(_, c)| c.saturating_sub(fair_share))
        .sum()
}

/// [`evaluate_group`] behind [`sweep`]'s panic barrier. On a panic the
/// group's verdicts are dropped (callers keep the pre-initialized
/// `Unknown`s), its partial counters are discarded — a fresh accumulator
/// is absorbed only on success — and one contained panic is counted.
fn evaluate_group_contained(
    schema: &Schema,
    sigma: &[Tgd],
    group: &BodyGroup,
    budget: ChaseBudget,
    keyed: Option<(&EntailCache, u64)>,
    stats: &mut EntailBatchStats,
    token: &CancelToken,
) -> Vec<(usize, Entailment)> {
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
            verdicts
        }
        Err(_) => {
            stats.panics_contained += 1;
            Vec::new()
        }
    }
}

/// Batch entailment `{ Σ ⊨ σ | σ ∈ candidates }` — the one entry point:
/// body-grouped chase sharing, optional memoization, cancellation, and
/// suspend/resume, over the serial schedule of [`sweep`].
///
/// Returns one verdict per candidate (in input order; agreeing with
/// [`crate::entails_auto`] per candidate), the batch counters, and a
/// [`BatchCheckpoint`] when the run suspended at a group boundary — on the
/// byte budget ([`ChaseBudget::max_bytes`]), an injected
/// [`FaultSite::MemBudgetTrip`], or a quantum expiry. Remaining candidates
/// of a cancelled or suspended run stay `Unknown`, which is sound. A group
/// that panics is contained and settles as `Unknown`.
///
/// `resume` continues a suspended run: `schema`, `sigma` and `candidates`
/// must be the ones it was taken under. The tgd-set fingerprint, candidate
/// count and body-group count are validated; a mismatch is a typed
/// [`CheckpointError::ContextMismatch`], never a wrong verdict. `budget` is
/// absolute, not incremental — resume with the suspended budget after an
/// injected trip or a quantum, or a larger `max_bytes` (or a smaller cache)
/// after a real trip, which would otherwise re-trip at the first boundary.
/// *Trip → checkpoint → resume* yields the verdicts of an uninterrupted run.
pub fn batch_entailment(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    cache: Option<&EntailCache>,
    token: &CancelToken,
    resume: Option<&BatchCheckpoint>,
) -> Result<BatchRun, CheckpointError> {
    let sigma_fp = sigma_fingerprint(sigma);
    let groups = group_by_body(candidates);
    if let Some(cp) = resume {
        if cp.sigma_fp != sigma_fp {
            return Err(CheckpointError::ContextMismatch("tgd set"));
        }
        if cp.sweep.verdicts.len() != candidates.len() {
            return Err(CheckpointError::ContextMismatch("candidate count"));
        }
        if cp.sweep.done.len() != groups.len() {
            return Err(CheckpointError::ContextMismatch("body-group count"));
        }
    }
    let schedule = Schedule::Serial(resume.map(|cp| &cp.sweep));
    let run = sweep(schema, sigma, &groups, budget, cache, token, schedule);
    let checkpoint = run.suspended.then(|| {
        Box::new(BatchCheckpoint {
            sigma_fp,
            sweep: run.state.clone(),
        })
    });
    Ok((run.state.verdicts, run.state.stats, checkpoint))
}

/// [`batch_entailment`] run to completion without a token or a resume.
pub fn entails_batch(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    budget: ChaseBudget,
    cache: Option<&EntailCache>,
) -> (Vec<Entailment>, EntailBatchStats) {
    let run = batch_entailment(
        schema,
        sigma,
        candidates,
        budget,
        cache,
        &CancelToken::new(),
        None,
    );
    let (verdicts, stats, _) = run.expect("a fresh run has no checkpoint to mismatch");
    (verdicts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entail::{entails_auto, entails_auto_cached};
    use tgdkit_logic::{parse_tgd, parse_tgds};

    fn schema_and_sigma(text: &str) -> (Schema, Vec<Tgd>) {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, text).unwrap();
        (s, sigma)
    }

    #[test]
    fn fingerprint_is_renaming_and_order_invariant() {
        let (_, a) = schema_and_sigma("E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z).");
        let (_, b) = schema_and_sigma("E(u,v), E(v,w) -> E(u,w). E(p,q) -> E(q,p).");
        assert_eq!(sigma_fingerprint(&a), sigma_fingerprint(&b));
        let (_, c) = schema_and_sigma("E(x,y) -> E(y,x).");
        assert_ne!(sigma_fingerprint(&a), sigma_fingerprint(&c));
    }

    #[test]
    fn grouping_merges_renaming_variant_bodies() {
        let mut s = Schema::default();
        let candidates = vec![
            parse_tgd(&mut s, "R(x,y) -> T(x)").unwrap(),
            parse_tgd(&mut s, "R(u,v) -> T(v)").unwrap(),
            parse_tgd(&mut s, "R(x,x) -> T(x)").unwrap(),
        ];
        let groups = group_by_body(&candidates);
        assert_eq!(groups.len(), 2, "R(x,y) variants share a group");
        assert_eq!(groups[0].members.len(), 2);
        assert_eq!(groups[0].members[0].0, 0);
        assert_eq!(groups[0].members[1].0, 1);
        assert_eq!(groups[1].members.len(), 1);
    }

    #[test]
    fn batch_agrees_with_entails_auto() {
        let (s, sigma) = schema_and_sigma(
            "E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z). P(x) -> exists z : E(x,z).",
        );
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "E(x,y) -> E(x,x)").unwrap(),
            parse_tgd(&mut s2, "E(u,v) -> E(v,v)").unwrap(),
            parse_tgd(&mut s2, "E(x,y) -> P(x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> exists w : E(w,x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> E(x,x)").unwrap(),
        ];
        let budget = ChaseBudget::default();
        let expected: Vec<Entailment> = candidates
            .iter()
            .map(|c| entails_auto(&s, &sigma, c, budget))
            .collect();
        let (got, stats) = entails_batch(&s, &sigma, &candidates, budget, None);
        assert_eq!(got, expected);
        assert_eq!(stats.candidates, 5);
        assert!(stats.body_groups < stats.candidates, "bodies were shared");
        assert!(stats.bodies_chased <= stats.body_groups);
    }

    #[test]
    fn cache_hits_on_repeat_and_on_renaming_variants() {
        let (s, sigma) = schema_and_sigma("E(x,y) -> E(y,x).");
        let mut s2 = s.clone();
        let candidate = parse_tgd(&mut s2, "E(x,y) -> E(x,x)").unwrap();
        let variant = parse_tgd(&mut s2, "E(a,b) -> E(a,a)").unwrap();
        let cache = EntailCache::new();
        let budget = ChaseBudget::default();
        let v1 = entails_auto_cached(&s, &sigma, &candidate, budget, &cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        let v2 = entails_auto_cached(&s, &sigma, &variant, budget, &cache);
        assert_eq!(v1, v2);
        assert_eq!(cache.hits(), 1, "renaming variant hits the same entry");
        assert_eq!(cache.len(), 1);
        // A different Σ fingerprint misses.
        let (s3, other) = schema_and_sigma("E(x,y) -> E(y,x). E(x,y) -> E(x,x).");
        let _ = entails_auto_cached(&s3, &other, &candidate, budget, &cache);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_batch_skips_chase_entirely_on_full_hit() {
        let (s, sigma) = schema_and_sigma("R(x,y) -> T(x).");
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "R(x,y) -> T(x)").unwrap(),
            parse_tgd(&mut s2, "R(x,y) -> T(y)").unwrap(),
        ];
        let cache = EntailCache::new();
        let budget = ChaseBudget::default();
        let (cold, cold_stats) = entails_batch(&s, &sigma, &candidates, budget, Some(&cache));
        assert_eq!(cold_stats.cache_misses, 2);
        let (warm, warm_stats) = entails_batch(&s, &sigma, &candidates, budget, Some(&cache));
        assert_eq!(cold, warm);
        assert_eq!(warm_stats.cache_hits, 2);
        assert_eq!(warm_stats.bodies_chased, 0, "warm batch never chases");
        assert_eq!(warm_stats.heads_probed, 0);
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let (s, sigma) = schema_and_sigma("R(x,y) -> T(x).");
        let mut s2 = s.clone();
        let candidate = parse_tgd(&mut s2, "R(x,y) -> T(x)").unwrap();
        let cache = EntailCache::new();
        let _ = entails_auto_cached(&s, &sigma, &candidate, ChaseBudget::default(), &cache);
        let _ = entails_auto_cached(&s, &sigma, &candidate, ChaseBudget::small(), &cache);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn bounded_cache_evicts_in_insertion_order() {
        let mut s = Schema::default();
        let keys: Vec<TgdVariantKey> = ["R(x,y) -> T(x)", "R(x,y) -> T(y)", "R(x,x) -> T(x)"]
            .iter()
            .map(|t| tgd_variant_key(&parse_tgd(&mut s, t).unwrap()))
            .collect();
        let budget = ChaseBudget::default();
        for _ in 0..2 {
            // Two identical passes: eviction is a function of the store
            // sequence alone, so the outcome must repeat exactly.
            let cache = EntailCache::with_capacity(2, usize::MAX);
            for k in &keys {
                cache.store_key(k, 1, budget, Entailment::Proved);
            }
            assert_eq!(cache.evictions(), 1);
            assert_eq!(
                cache.lookup_key(&keys[0], 1, budget),
                None,
                "oldest key is the FIFO victim"
            );
            assert_eq!(
                cache.lookup_key(&keys[1], 1, budget),
                Some(Entailment::Proved)
            );
            assert_eq!(
                cache.lookup_key(&keys[2], 1, budget),
                Some(Entailment::Proved)
            );
        }
    }

    #[test]
    fn byte_cap_keeps_at_least_the_newest_entry() {
        let mut s = Schema::default();
        let a = tgd_variant_key(&parse_tgd(&mut s, "R(x,y) -> T(x)").unwrap());
        let b = tgd_variant_key(&parse_tgd(&mut s, "R(x,y) -> T(y)").unwrap());
        let budget = ChaseBudget::default();
        let cache = EntailCache::with_capacity(usize::MAX, 1);
        cache.store_key(&a, 1, budget, Entailment::Proved);
        assert_eq!(
            cache.lookup_key(&a, 1, budget),
            Some(Entailment::Proved),
            "a lone over-cap entry is still retained"
        );
        cache.store_key(&b, 1, budget, Entailment::Disproved);
        assert_eq!(cache.lookup_key(&a, 1, budget), None);
        assert_eq!(cache.lookup_key(&b, 1, budget), Some(Entailment::Disproved));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.approx_bytes() > 0);
    }

    #[test]
    fn injected_trip_checkpoint_resume_matches_uninterrupted() {
        use crate::faults::FaultPlan;
        let (s, sigma) = schema_and_sigma(
            "E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z). P(x) -> exists z : E(x,z).",
        );
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "E(x,y) -> E(x,x)").unwrap(),
            parse_tgd(&mut s2, "E(x,y) -> P(x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> exists w : E(w,x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> E(x,x)").unwrap(),
        ];
        let budget = ChaseBudget::default();
        let (plain, plain_stats) = entails_batch(&s, &sigma, &candidates, budget, None);
        for seed in 0..6u64 {
            let plan = if seed == 0 {
                FaultPlan::always(FaultSite::MemBudgetTrip)
            } else {
                FaultPlan::only(seed, FaultSite::MemBudgetTrip, 2)
            };
            let token = CancelToken::with_faults(plan);
            let (_, _, cp) =
                batch_entailment(&s, &sigma, &candidates, budget, None, &token, None).unwrap();
            let Some(cp) = cp else { continue };
            // Round-trip through the binary frame, as a real caller would.
            let cp = BatchCheckpoint::decode(&cp.encode()).unwrap();
            let (resumed, resumed_stats, again) = batch_entailment(
                &s,
                &sigma,
                &candidates,
                budget,
                None,
                &CancelToken::new(),
                Some(&cp),
            )
            .unwrap();
            assert!(again.is_none(), "fault-free resume runs to completion");
            assert_eq!(resumed, plain, "seed {seed}");
            assert!(resumed_stats.chase.mem_trips >= 1);
            assert_eq!(resumed_stats.chase.resumes, 1);
            assert_eq!(
                resumed_stats.chase.normalized(),
                plain_stats.chase.normalized(),
                "seed {seed}"
            );
            assert_eq!(resumed_stats.bodies_chased, plain_stats.bodies_chased);
            assert_eq!(resumed_stats.heads_probed, plain_stats.heads_probed);
        }
        // seed 0 (`always`) is guaranteed to suspend, so the loop body ran.
    }

    #[test]
    fn real_byte_trip_suspends_and_larger_budget_resumes() {
        let (s, sigma) = schema_and_sigma("R(x,y) -> T(x).");
        let mut s2 = s.clone();
        let candidates: Vec<Tgd> = [
            "R(x,y) -> T(x)",
            "R(x,y) -> T(y)",
            "R(x,x) -> T(x)",
            "T(x) -> exists y : R(x,y)",
            "R(x,y), R(y,z) -> T(x)",
            "T(x), T(y) -> R(x,y)",
        ]
        .iter()
        .map(|t| parse_tgd(&mut s2, t).unwrap())
        .collect();
        let (plain, _) = entails_batch(&s, &sigma, &candidates, ChaseBudget::default(), None);
        // Tight byte budget: roomy enough for each tiny body chase, tight
        // enough that cache residency + arena peak crosses it mid-batch.
        let tight = ChaseBudget {
            max_bytes: 700,
            ..ChaseBudget::default()
        };
        let cache = EntailCache::new();
        let (_, stats, cp) = batch_entailment(
            &s,
            &sigma,
            &candidates,
            tight,
            Some(&cache),
            &CancelToken::new(),
            None,
        )
        .unwrap();
        let cp = cp.expect("tight byte budget suspends the batch");
        assert!(stats.chase.mem_trips >= 1);
        assert!(cp.groups_done() < cp.groups_total());
        // Same budget after a real trip re-trips immediately at the first
        // boundary — the residency that tripped is still resident.
        let (_, _, re) = batch_entailment(
            &s,
            &sigma,
            &candidates,
            tight,
            Some(&cache),
            &CancelToken::new(),
            Some(&cp),
        )
        .unwrap();
        assert!(
            re.is_some(),
            "same-budget resume after a real trip re-trips"
        );
        let (resumed, resumed_stats, none) = batch_entailment(
            &s,
            &sigma,
            &candidates,
            ChaseBudget::default(),
            Some(&cache),
            &CancelToken::new(),
            Some(&cp),
        )
        .unwrap();
        assert!(none.is_none());
        assert_eq!(resumed, plain);
        assert_eq!(resumed_stats.chase.resumes, 1);
    }

    #[test]
    fn batch_resume_rejects_wrong_context() {
        let (s, sigma) = schema_and_sigma("R(x,y) -> T(x).");
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "R(x,y) -> T(x)").unwrap(),
            parse_tgd(&mut s2, "R(x,y) -> T(y)").unwrap(),
        ];
        let token =
            CancelToken::with_faults(crate::faults::FaultPlan::always(FaultSite::MemBudgetTrip));
        let budget = ChaseBudget::default();
        let (_, _, cp) =
            batch_entailment(&s, &sigma, &candidates, budget, None, &token, None).unwrap();
        let cp = cp.unwrap();
        let (_, other) = schema_and_sigma("R(x,y) -> T(y).");
        assert!(matches!(
            batch_entailment(
                &s,
                &other,
                &candidates,
                budget,
                None,
                &CancelToken::new(),
                Some(&cp)
            ),
            Err(CheckpointError::ContextMismatch("tgd set"))
        ));
        assert!(matches!(
            batch_entailment(
                &s,
                &sigma,
                &candidates[..1],
                budget,
                None,
                &CancelToken::new(),
                Some(&cp)
            ),
            Err(CheckpointError::ContextMismatch("candidate count"))
        ));
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_aborting() {
        let (s, sigma) = schema_and_sigma("E(x,y) -> E(y,x).");
        let mut s2 = s.clone();
        let candidate = parse_tgd(&mut s2, "E(x,y) -> E(x,x)").unwrap();
        let cache = EntailCache::new();
        let budget = ChaseBudget::default();
        let before = entails_auto_cached(&s, &sigma, &candidate, budget, &cache);
        // Poison the lock the way a contained worker panic would: unwind
        // while holding the write guard. The coherent state survives.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.write().unwrap();
            panic!("injected worker panic while holding the cache lock");
        }));
        assert!(result.is_err(), "the panic was raised and contained");
        assert!(cache.inner.is_poisoned(), "the lock really was poisoned");
        // Pre-fix, each of these calls aborted via
        // `.expect("entail cache poisoned")`. Now they recover and the
        // memoized verdict is still served.
        let after = entails_auto_cached(&s, &sigma, &candidate, budget, &cache);
        assert_eq!(before, after);
        assert!(cache.poison_recoveries() >= 1);
        assert_eq!(cache.poison_clears(), 0, "coherent state is kept");
        assert_eq!(cache.len(), 1);
        let variant = parse_tgd(&mut s2, "E(a,b) -> E(a,a)").unwrap();
        cache.store(&variant, 7, budget, Entailment::Disproved);
        assert_eq!(
            cache.lookup(&variant, 7, budget),
            Some(Entailment::Disproved)
        );
    }

    #[test]
    fn incoherent_poisoned_state_is_defensively_cleared() {
        let mut s = Schema::default();
        let key = tgd_variant_key(&parse_tgd(&mut s, "R(x,y) -> T(x)").unwrap());
        let budget = ChaseBudget::default();
        let cache = EntailCache::new();
        cache.store_key(&key, 1, budget, Entailment::Proved);
        // Poison mid-mutation: the map gains a key the queue never saw,
        // exactly the torn state an unwinding writer could leave behind.
        let other = tgd_variant_key(&parse_tgd(&mut s, "R(x,x) -> T(x)").unwrap());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = cache.inner.write().unwrap();
            guard.map.insert(Arc::new(other.clone()), Vec::new());
            panic!("unwound between map and queue updates");
        }));
        assert!(result.is_err());
        // The next store detects the broken invariant and clears.
        cache.store_key(&key, 2, budget, Entailment::Disproved);
        assert_eq!(cache.poison_clears(), 1);
        assert_eq!(
            cache.lookup_key(&key, 1, budget),
            None,
            "pre-poison entries were dropped with the torn state"
        );
        assert_eq!(
            cache.lookup_key(&key, 2, budget),
            Some(Entailment::Disproved),
            "the cache keeps working after the clear"
        );
    }

    #[test]
    fn quantum_suspension_checkpoints_and_resumes_identically() {
        let (s, sigma) = schema_and_sigma(
            "E(x,y) -> E(y,x). E(x,y), E(y,z) -> E(x,z). P(x) -> exists z : E(x,z).",
        );
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "E(x,y) -> E(x,x)").unwrap(),
            parse_tgd(&mut s2, "E(x,y) -> P(x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> exists w : E(w,x)").unwrap(),
            parse_tgd(&mut s2, "P(x) -> E(x,x)").unwrap(),
        ];
        let budget = ChaseBudget::default();
        let (plain, plain_stats) = entails_batch(&s, &sigma, &candidates, budget, None);
        // Suspend at every group boundary in turn; each run then resumes
        // to completion with a fresh token and must match the dedicated
        // run exactly, with no mem trips charged.
        for boundary in 0..4u64 {
            let token = CancelToken::with_suspend_after_checks(boundary);
            let (_, _, mut cp) =
                batch_entailment(&s, &sigma, &candidates, budget, None, &token, None).unwrap();
            let mut resumed = None;
            let mut hops = 0;
            while let Some(inner) = cp {
                let decoded = BatchCheckpoint::decode(&inner.encode()).unwrap();
                let (v, st, next) = batch_entailment(
                    &s,
                    &sigma,
                    &candidates,
                    budget,
                    None,
                    &CancelToken::new(),
                    Some(&decoded),
                )
                .unwrap();
                resumed = Some((v, st));
                cp = next;
                hops += 1;
                assert!(hops <= 2, "fresh-token resume runs to completion");
            }
            let Some((verdicts, stats)) = resumed else {
                continue; // boundary beyond the last group: no suspension
            };
            assert_eq!(verdicts, plain, "boundary {boundary}");
            assert_eq!(stats.chase.mem_trips, 0, "suspension is not a trip");
            assert_eq!(
                stats.chase.normalized(),
                plain_stats.chase.normalized(),
                "boundary {boundary}"
            );
        }
    }

    #[test]
    fn empty_body_candidates_group_and_evaluate() {
        // Non-linear Σ (two-atom body), so the chase route — not the linear
        // fast path — decides the group.
        let (s, sigma) = schema_and_sigma("true -> exists x : P(x). P(x), P(y) -> Q(x).");
        let mut s2 = s.clone();
        let candidates = vec![
            parse_tgd(&mut s2, "true -> exists x : Q(x)").unwrap(),
            parse_tgd(&mut s2, "true -> exists x : P(x)").unwrap(),
        ];
        let (verdicts, stats) =
            entails_batch(&s, &sigma, &candidates, ChaseBudget::default(), None);
        assert_eq!(verdicts, vec![Entailment::Proved; 2]);
        assert_eq!(stats.body_groups, 1);
        assert_eq!(stats.bodies_chased, 1);
    }
}
