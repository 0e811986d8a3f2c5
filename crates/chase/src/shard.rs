//! The chase's trigger search over a hash-partitioned instance.
//!
//! Every chase runs on a [`ShardedInstance`] — one shard unless the caller
//! asks for more — and each round searches per shard over that shard's
//! slice of the delta, stitched together by a deterministic **exchange**
//! phase ([`tgdkit_hom::exchange`]):
//!
//! - `Local` / `Broadcast` anchors run [`for_each_hom_anchored`] against
//!   the union index (the delta — always the smaller side — is what a
//!   distributed run would ship to every peer);
//! - `ReKey` anchors skip the join entirely: every non-anchor atom is fully
//!   bound once the anchor fact is, so each candidate reduces to
//!   owner-routed point probes against the [`ShardedInstance`].
//!
//! The search is exactly semi-naive. The delta is the index tail, so per
//! predicate the rows below `count − |Δ_p|` are the old facts, and both
//! paths match the body atoms *before* the anchor against old facts only
//! (the `ReKey` path probes the index below that watermark for them). A
//! body match whose delta atoms sit at positions `S` is then found once,
//! at anchor `min(S)`, on the shard owning that delta fact — not once per
//! delta atom it uses.
//!
//! Both paths drop **dead** triggers as they are found: a binding of a
//! full tgd whose head facts are all already present can never change the
//! instance, so it is never stored. That membership probe runs before
//! anything else is done with the binding, since most bindings fail it. It
//! reads the head arguments straight off the binding, with no tuple
//! buffer, and for a unary or binary head predicate whose element ids are
//! dense it is one bit test ([`InstanceIndex::contains_bound`]); the
//! anchored search is generic over its visitor, so the probe inlines into
//! the join loop.
//! The live ones accumulate into a `TriggerRun` — a flat arena of
//! `(tgd, universal-image)` entries — and one global `sort_unstable` +
//! dedup produces exactly the sequence a `BTreeSet<(usize, Vec<Elem>)>`
//! would iterate; full-tgd triggers sharing a head image then collapse to
//! the first of them. That sort is what makes
//! the result **bit-for-bit equal** at any shard count: the firing phase
//! consumes the same triggers in the same order, so it adds the same facts
//! and numbers nulls identically. A visit appends a few words to two flat
//! vectors instead of allocating a `Vec<Elem>` per trigger, and the dedup
//! cost is paid once per round in one cache-friendly sort.

use crate::chase::CANCEL_CHECK_STRIDE;
use crate::faults::{FaultSite, INJECTED_PANIC};
use crate::govern::CancelToken;
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use tgdkit_hom::{
    classify_exchange, for_each_hom_anchored, for_each_hom_indexed, Binding, ExchangeChoice,
    InstanceIndex,
};
use tgdkit_instance::store::{self, RowSet};
use tgdkit_instance::{shard_of, Elem, Fact, ShardedInstance};
use tgdkit_logic::{PredId, Tgd};

/// `TGDKIT_SHARDS` parsed fresh on each call (tests and the bench harness
/// flip it between runs): a positive shard count, default 1.
pub fn shards_from_env() -> usize {
    std::env::var("TGDKIT_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

// Process-wide shard telemetry, reported by the bench harness next to the
// planner/join counters. Plain relaxed atomics: the counters are additive
// across runs (except the run-shape pair, which records the latest run).
static EXCHANGED_TUPLES: AtomicU64 = AtomicU64::new(0);
static BROADCASTS: AtomicU64 = AtomicU64::new(0);
static REKEYED_PROBES: AtomicU64 = AtomicU64::new(0);
static LAST_SHARD_COUNT: AtomicU64 = AtomicU64::new(0);
static LAST_SKEW_BITS: AtomicU64 = AtomicU64::new(0);

/// Cross-shard exchange counters since process start (or the last
/// [`reset_shard_stats`]), plus the shape of the most recent sharded run.
/// Only runs with more than one shard count: a one-shard run exchanges
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard count of the most recent sharded chase (0 = none ran).
    pub shard_count: u64,
    /// Tuples a distributed run would have shipped: for every round with at
    /// least one broadcast plan, the round's delta size times the number of
    /// receiving peers (`shards − 1`).
    pub exchanged_tuples: u64,
    /// Broadcast searches executed (one per `(tgd, anchor, shard)` with a
    /// nonempty delta slice whose exchange plan was `Broadcast`).
    pub broadcasts: u64,
    /// Owner-routed point probes issued by `ReKey` plans.
    pub rekeyed_probes: u64,
    /// Final fact-count skew of the most recent sharded chase: largest
    /// shard over smallest (1.0 = perfectly balanced, 0.0 = none ran).
    pub skew_max_over_min: f64,
}

/// Snapshot of the global shard telemetry.
pub fn shard_stats() -> ShardStats {
    ShardStats {
        shard_count: LAST_SHARD_COUNT.load(Ordering::Relaxed),
        exchanged_tuples: EXCHANGED_TUPLES.load(Ordering::Relaxed),
        broadcasts: BROADCASTS.load(Ordering::Relaxed),
        rekeyed_probes: REKEYED_PROBES.load(Ordering::Relaxed),
        skew_max_over_min: f64::from_bits(LAST_SKEW_BITS.load(Ordering::Relaxed)),
    }
}

/// Resets the global shard telemetry (benchmark harness scoping).
pub fn reset_shard_stats() {
    EXCHANGED_TUPLES.store(0, Ordering::Relaxed);
    BROADCASTS.store(0, Ordering::Relaxed);
    REKEYED_PROBES.store(0, Ordering::Relaxed);
    LAST_SHARD_COUNT.store(0, Ordering::Relaxed);
    LAST_SKEW_BITS.store(0, Ordering::Relaxed);
}

/// Records the final shape of a multi-shard run (called once per run).
pub(crate) fn record_run_shape(store: &ShardedInstance) {
    LAST_SHARD_COUNT.store(store.shard_count() as u64, Ordering::Relaxed);
    LAST_SKEW_BITS.store(store.skew_max_over_min().to_bits(), Ordering::Relaxed);
}

/// Per-round exchange counters, accumulated locally during the search and
/// published once so the hot loops touch no atomics.
#[derive(Default)]
struct ExchangeTally {
    broadcasts: u64,
    rekeyed_probes: u64,
}

impl ExchangeTally {
    fn publish(&self) {
        if self.broadcasts != 0 {
            BROADCASTS.fetch_add(self.broadcasts, Ordering::Relaxed);
        }
        if self.rekeyed_probes != 0 {
            REKEYED_PROBES.fetch_add(self.rekeyed_probes, Ordering::Relaxed);
        }
    }
}

/// One round's triggers as a flat arena: `entries` holds
/// `(tgd index, offset)` pairs into the shared `elems` buffer, with each
/// entry's length fixed by its tgd's universal-variable count. Appending a
/// trigger is two vector pushes — no per-trigger allocation, no tree
/// rebalancing — and [`TriggerRun::sort_dedup`] normalizes the whole run to
/// the exact iteration order of an ordered set of `(usize, Vec<Elem>)`.
///
/// Full-tgd bindings enter through [`TriggerRun::offer`], which stores
/// live triggers only, one per head image.
pub(crate) struct TriggerRun {
    entries: Vec<(u32, u32)>,
    elems: Vec<Elem>,
    /// Universal-variable count per tgd (the per-entry slice length).
    lens: Vec<u32>,
    /// Per tgd: `None` unless full; for a full tgd, the range of
    /// `head_vars` listing the universal positions its head reads when
    /// they are fewer than all of them (distinct triggers may then share a
    /// head image), else an empty range.
    heads: Vec<Option<(u32, u32)>>,
    head_vars: Vec<usize>,
    /// The kept entry of each `(tgd, head image)` this round, keyed by
    /// [`head_hash`] and verified against the entry's image in `elems`.
    by_head: RowSet,
    /// Bindings offered this round, live or dead: with an exact
    /// semi-naive search, one per distinct body match touching the delta.
    offered: u64,
}

impl TriggerRun {
    pub(crate) fn new(tgds: &[Tgd]) -> TriggerRun {
        let mut head_vars = Vec::new();
        let mut vars = Vec::new();
        let heads = tgds
            .iter()
            .map(|tgd| {
                tgd.is_full().then(|| {
                    vars.clear();
                    vars.extend(
                        tgd.head()
                            .iter()
                            .flat_map(|a| a.args.iter().map(|v| v.index())),
                    );
                    vars.sort_unstable();
                    vars.dedup();
                    if vars.len() == tgd.universal_count() {
                        vars.clear();
                    }
                    let start = head_vars.len() as u32;
                    head_vars.extend_from_slice(&vars);
                    (start, head_vars.len() as u32)
                })
            })
            .collect();
        TriggerRun {
            entries: Vec::new(),
            elems: Vec::new(),
            lens: tgds.iter().map(|t| t.universal_count() as u32).collect(),
            heads,
            head_vars,
            by_head: RowSet::new(),
            offered: 0,
        }
    }

    /// Empties the run for the next round, keeping its allocations.
    fn clear(&mut self) {
        self.entries.clear();
        self.elems.clear();
        self.by_head.clear();
        self.offered = 0;
    }

    /// Appends tgd `ti`'s trigger with the universal image read off
    /// `binding[0..universal_count]` (the layout every search maintains).
    fn push_binding(&mut self, ti: usize, binding: &Binding) {
        let n = self.lens[ti] as usize;
        let off = u32::try_from(self.elems.len()).expect("trigger arena exceeds u32 offsets");
        self.elems
            .extend((0..n).map(|v| binding[v].expect("universal bound")));
        self.entries.push((ti as u32, off));
    }

    /// Takes a binding of tgd `ti`, dropping it when it cannot fire.
    ///
    /// - **Dead:** `tgd` is full and every head fact under `binding` is
    ///   already in `index`, which covers the instance as of round start.
    ///   Firing a full tgd only inserts its head facts, and nothing is
    ///   removed within a round, so the trigger could never change the
    ///   instance, the fired count or the provenance log.
    /// - **Same head image:** a full tgd's head facts depend only on its
    ///   head variables. Of the live triggers sharing a head image, only
    ///   the first in canonical order inserts anything; the rest find every
    ///   head fact present. So only the smallest universal image is kept.
    ///
    /// The dead check runs first: it is one membership probe per head atom,
    /// read straight off the binding (a bit test for a dense unary or
    /// binary head, else one hash), and most bindings fail it. The order
    /// cannot change what is kept: the index does not change during the
    /// search, so a head image found live stays live for the whole round.
    fn offer(&mut self, ti: usize, tgd: &Tgd, binding: &Binding, index: &InstanceIndex) {
        self.offered += 1;
        let Some((lo, hi)) = self.heads[ti] else {
            self.push_binding(ti, binding);
            return;
        };
        let universal = |v: usize| binding[v].expect("universal bound");
        let dead = tgd
            .head()
            .iter()
            .all(|atom| index.contains_bound(atom.pred, &atom.args, binding));
        if dead {
            return;
        }
        let vars = &self.head_vars[lo as usize..hi as usize];
        if !vars.is_empty() {
            let hash = head_hash(ti, vars, universal);
            let (entries, elems) = (&self.entries, &self.elems);
            let same_head = |e: u32| {
                let (te, off) = entries[e as usize];
                te as usize == ti
                    && vars
                        .iter()
                        .all(|&v| elems[off as usize + v] == universal(v))
            };
            if let Some(entry) = self.by_head.find(hash, same_head) {
                let off = self.entries[entry as usize].1 as usize;
                let kept = &mut self.elems[off..off + self.lens[ti] as usize];
                let n = kept.len();
                if (0..n).map(universal).lt(kept.iter().copied()) {
                    for (v, slot) in kept.iter_mut().enumerate() {
                        *slot = universal(v);
                    }
                }
                return;
            }
            let entry = u32::try_from(self.entries.len()).expect("trigger run exceeds u32 entries");
            let (heads, head_vars) = (&self.heads, &self.head_vars);
            self.by_head.insert(hash, entry, |e| {
                let (te, off) = entries[e as usize];
                let (lo, hi) = heads[te as usize].expect("keyed entries are full tgds");
                let vars = &head_vars[lo as usize..hi as usize];
                head_hash(te as usize, vars, |v| elems[off as usize + v])
            });
        }
        self.push_binding(ti, binding);
    }

    /// The universal image of the entry at `(ti, off)`.
    fn slice(&self, ti: u32, off: u32) -> &[Elem] {
        &self.elems[off as usize..off as usize + self.lens[ti as usize] as usize]
    }

    /// Sorts by `(tgd, universal-image lex)` and drops duplicates —
    /// after this, iteration order equals a `BTreeSet<(usize, Vec<Elem>)>`
    /// holding the same triggers.
    pub(crate) fn sort_dedup(&mut self) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.sort_unstable_by(|&(ta, oa), &(tb, ob)| {
            ta.cmp(&tb)
                .then_with(|| self.slice(ta, oa).cmp(self.slice(tb, ob)))
        });
        entries.dedup_by(|&mut (ta, oa), &mut (tb, ob)| {
            ta == tb && self.slice(ta, oa) == self.slice(tb, ob)
        });
        self.entries = entries;
    }

    /// Distinct triggers (call after [`TriggerRun::sort_dedup`]).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[Elem])> + '_ {
        self.entries
            .iter()
            .map(|&(ti, off)| (ti as usize, self.slice(ti, off)))
    }
}

/// The [`TriggerRun::by_head`] key of tgd `ti`'s head image: the hash of
/// `[ti, image(v) for v in vars]`.
fn head_hash(ti: usize, vars: &[usize], image: impl Fn(usize) -> Elem) -> u64 {
    let ti = u32::try_from(ti).expect("tgd index fits u32");
    store::tuple_hash_iter(std::iter::once(Elem(ti)).chain(vars.iter().map(|&v| image(v))))
}

/// How one round's trigger search ended. On `aborted` or a contained
/// panic the caller discards the round without firing.
pub(crate) struct TriggerScan {
    pub(crate) aborted: bool,
    pub(crate) panics_contained: usize,
}

/// Fills `run` (a run built for `tgds`, reused across rounds) with one
/// round's live triggers over the (possibly one-shard) store: every
/// tgd's body matched per shard per anchor under its exchange plan, dead
/// full-tgd bindings dropped, and the rest merged into the canonical
/// firing order with duplicate head images collapsed.
///
/// `index` must cover exactly the current logical instance (the union of
/// the shards), so broadcast joins, `ReKey` store probes and the dead
/// filter all see the same content, and the found set is independent of
/// the shard count.
pub(crate) fn find_triggers(
    tgds: &[Tgd],
    index: &InstanceIndex,
    store: &ShardedInstance,
    delta: Option<&[Fact]>,
    run: &mut TriggerRun,
    token: &CancelToken,
) -> TriggerScan {
    let shards = store.shard_count();
    // Each shard's slice of the previous round's delta, routed by the same
    // hash that placed the facts (one shard borrows it as is). The first
    // round has no delta: its frontier is the whole instance, searched in
    // full on the union index.
    let per_shard: Vec<Cow<'_, [Fact]>> = match delta {
        None => Vec::new(),
        Some(facts) if shards == 1 => vec![Cow::Borrowed(facts)],
        Some(facts) => {
            let mut parts: Vec<Vec<Fact>> = vec![Vec::new(); shards];
            for fact in facts {
                parts[shard_of(fact.pred, &fact.args, shards)].push(fact.clone());
            }
            parts.into_iter().map(Cow::Owned).collect()
        }
    };

    // The delta is the index tail (the chase appends each round's
    // additions last, and a resume indexes I ∖ Δ before appending Δ), so
    // per predicate the rows below `count − |Δ_p|` are the old facts.
    let mut delta_rows: Vec<usize> = Vec::new();
    for fact in delta.unwrap_or_default() {
        let p = fact.pred.index();
        if p >= delta_rows.len() {
            delta_rows.resize(p + 1, 0);
        }
        delta_rows[p] += 1;
    }
    let old: Vec<usize> = delta_rows
        .iter()
        .enumerate()
        .map(|(p, &n)| {
            let rows = index.count(PredId(p as u32));
            debug_assert!(n <= rows, "the delta must be the index tail");
            rows.saturating_sub(n)
        })
        .collect();

    // One exchange plan per (tgd, anchor) per semi-naive round, computed
    // from the body shape and the union index's statistics — identical on
    // every shard, so no coordination would be needed to agree on it. An
    // anchor whose predicate has no fact in the delta anchors nothing and
    // gets no plan.
    let choices: Vec<Vec<Option<ExchangeChoice>>> = tgds
        .iter()
        .map(|t| match delta {
            None => Vec::new(),
            Some(_) => (0..t.body().len())
                .map(|a| {
                    let p = t.body()[a].pred.index();
                    let anchored = delta_rows.get(p).is_some_and(|&n| n > 0);
                    anchored.then(|| classify_exchange(t.body(), a, &[], index))
                })
                .collect(),
        })
        .collect();
    if shards > 1
        && choices
            .iter()
            .flatten()
            .any(|&c| c == Some(ExchangeChoice::Broadcast))
    {
        // A distributed round with any broadcast plan ships each shard's
        // delta to every peer once; re-key probes are accounted per probe.
        let delta_total: usize = per_shard.iter().map(|p| p.len()).sum();
        EXCHANGED_TUPLES.fetch_add((delta_total * (shards - 1)) as u64, Ordering::Relaxed);
    }

    run.clear();
    let mut tally = ExchangeTally::default();
    let mut aborted = false;
    let mut panics_contained = 0usize;
    for (ti, tgd) in tgds.iter().enumerate() {
        if token.is_cancelled() {
            aborted = true;
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if token.fault(FaultSite::TriggerWorkerPanic) {
                panic!("{INJECTED_PANIC}: trigger worker for tgd {ti}");
            }
            triggers_into(
                ti,
                tgd,
                &choices[ti],
                index,
                store,
                &per_shard,
                &old,
                delta.is_none(),
                run,
                &mut tally,
                token,
            )
        }));
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                aborted = true;
                break;
            }
            Err(_) => {
                aborted = true;
                panics_contained += 1;
                break;
            }
        }
    }
    if shards > 1 {
        tally.publish();
    }
    if !aborted && panics_contained == 0 {
        run.sort_dedup();
    }
    TriggerScan {
        aborted,
        panics_contained,
    }
}

/// A search visit that offers each binding to `run`, polling `token` every
/// [`CANCEL_CHECK_STRIDE`] bindings and stopping (with `cancelled` set)
/// once it is cancelled.
fn offer_polled<'a>(
    ti: usize,
    tgd: &'a Tgd,
    index: &'a InstanceIndex,
    run: &'a mut TriggerRun,
    token: &'a CancelToken,
    since_check: &'a mut u32,
    cancelled: &'a mut bool,
) -> impl FnMut(&Binding) -> ControlFlow<()> + 'a {
    move |binding| {
        *since_check += 1;
        if *since_check >= CANCEL_CHECK_STRIDE {
            *since_check = 0;
            if token.is_cancelled() {
                *cancelled = true;
                return ControlFlow::Break(());
            }
        }
        run.offer(ti, tgd, binding, index);
        ControlFlow::Continue(())
    }
}

/// Collects one tgd's live triggers across all shards and anchors into
/// `run`. Returns `false` when cancellation cut the enumeration short (the
/// run then holds a partial set; the caller discards the round).
#[allow(clippy::too_many_arguments)]
fn triggers_into(
    ti: usize,
    tgd: &Tgd,
    choices: &[Option<ExchangeChoice>],
    index: &InstanceIndex,
    store: &ShardedInstance,
    per_shard: &[Cow<'_, [Fact]>],
    old: &[usize],
    first_round: bool,
    run: &mut TriggerRun,
    tally: &mut ExchangeTally,
    token: &CancelToken,
) -> bool {
    let body = tgd.body();
    let fixed: Binding = vec![None; tgd.var_count()];
    let mut since_check = 0u32;
    if first_round {
        // The whole instance is the frontier: one full body search finds
        // every trigger once (anchoring each body atom on every fact would
        // find each of them once per atom).
        let mut cancelled = false;
        let mut visit = offer_polled(ti, tgd, index, run, token, &mut since_check, &mut cancelled);
        for_each_hom_indexed(body, tgd.var_count(), index, &fixed, &mut visit);
        drop(visit);
        return !cancelled;
    }
    for (anchor, &choice) in choices.iter().enumerate() {
        let Some(choice) = choice else {
            continue;
        };
        let atom = &body[anchor];
        for shard_delta in per_shard {
            if shard_delta.is_empty() {
                continue;
            }
            if choice == ExchangeChoice::ReKey {
                // Every non-anchor atom is fully bound once the anchor
                // fact is: evaluate by owner-routed membership probes
                // against the sharded store (each probe touches exactly
                // the shard owning the probed tuple).
                let mut binding: Binding = vec![None; tgd.var_count()];
                let mut undo: Vec<u32> = Vec::new();
                let mut key: Vec<Elem> = Vec::new();
                for fact in shard_delta.iter() {
                    if fact.pred != atom.pred || fact.args.len() != atom.args.len() {
                        continue;
                    }
                    since_check += 1;
                    if since_check >= CANCEL_CHECK_STRIDE {
                        since_check = 0;
                        if token.is_cancelled() {
                            return false;
                        }
                    }
                    undo.clear();
                    let mut ok = true;
                    for (&v, &e) in atom.args.iter().zip(&fact.args) {
                        match binding[v.index()] {
                            Some(prev) if prev != e => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                binding[v.index()] = Some(e);
                                undo.push(v.index() as u32);
                            }
                        }
                    }
                    if ok {
                        let mut all_present = true;
                        for (i, rest) in body.iter().enumerate() {
                            if i == anchor {
                                continue;
                            }
                            key.clear();
                            key.extend(
                                rest.args
                                    .iter()
                                    .map(|v| binding[v.index()].expect("rekey-bound var")),
                            );
                            tally.rekeyed_probes += 1;
                            // An atom before the anchor must match an old
                            // fact, as in the anchored join: the store has
                            // no row order, the index's watermark does.
                            let present = if i < anchor {
                                let limit =
                                    old.get(rest.pred.index()).copied().unwrap_or(usize::MAX);
                                index.contains_below(rest.pred, &key, limit)
                            } else {
                                store.contains_fact(rest.pred, &key)
                            };
                            if !present {
                                all_present = false;
                                break;
                            }
                        }
                        if all_present {
                            run.offer(ti, tgd, &binding, index);
                        }
                    }
                    for &vi in &undo {
                        binding[vi as usize] = None;
                    }
                }
            } else {
                if choice == ExchangeChoice::Broadcast {
                    tally.broadcasts += 1;
                }
                let mut cancelled = false;
                let mut visit =
                    offer_polled(ti, tgd, index, run, token, &mut since_check, &mut cancelled);
                let _ = for_each_hom_anchored(
                    body,
                    tgd.var_count(),
                    index,
                    anchor,
                    shard_delta,
                    old,
                    &mut visit,
                );
                drop(visit);
                if cancelled {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_env_parsing() {
        // Parsing logic only (env mutation is racy across tests): the
        // helper clamps to ≥ 1 and defaults to 1 — modeled directly.
        let parse = |v: Option<&str>| {
            v.and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        };
        assert_eq!(parse(None), 1);
        assert_eq!(parse(Some("4")), 4);
        assert_eq!(parse(Some(" 2 ")), 2);
        assert_eq!(parse(Some("0")), 1);
        assert_eq!(parse(Some("nope")), 1);
    }

    #[test]
    fn trigger_run_sorts_and_dedups_like_an_ordered_set() {
        use std::collections::BTreeSet;
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z). P(x) -> T(x).").unwrap();
        let mut run = TriggerRun::new(&tgds);
        let mut reference: BTreeSet<(usize, Vec<Elem>)> = BTreeSet::new();
        // Deterministic pseudo-random inserts with duplicates, out of order.
        let mut state = 0x1234_5678u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ti = (state >> 60) as usize % 2;
            let a = Elem((state >> 10) as u32 % 7);
            let b = Elem((state >> 20) as u32 % 7);
            let c = Elem((state >> 30) as u32 % 7);
            let universal: Vec<Elem> = if ti == 0 { vec![a, b, c] } else { vec![a] };
            let mut binding: Binding = universal.iter().map(|&e| Some(e)).collect();
            binding.resize(4, None);
            run.push_binding(ti, &binding);
            reference.insert((ti, universal));
        }
        run.sort_dedup();
        assert_eq!(run.len(), reference.len());
        let flat: Vec<(usize, Vec<Elem>)> = run.iter().map(|(ti, u)| (ti, u.to_vec())).collect();
        let expect: Vec<(usize, Vec<Elem>)> = reference.into_iter().collect();
        assert_eq!(flat, expect, "run order must equal ordered-set order");
    }

    #[test]
    fn offer_keeps_live_triggers_once_per_head_image() {
        use tgdkit_instance::parse_instance;
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let inst = parse_instance(&mut s, "E(a,b), E(b,c), E(a,d), E(d,c), E(c,a)").unwrap();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| inst.elem_by_name(n).unwrap());
        let bind = |x, y, z| -> Binding { vec![Some(x), Some(y), Some(z)] };
        let tc = &tgds[0];

        let index = InstanceIndex::new(&inst);
        let mut run = TriggerRun::new(&tgds);
        // Both derive the absent E(a,c); the smaller universal image is
        // kept although it is offered second.
        run.offer(0, tc, &bind(a, d, c), &index);
        run.offer(0, tc, &bind(a, b, c), &index);
        run.offer(0, tc, &bind(b, c, a), &index);
        run.offer(0, tc, &bind(c, a, b), &index);
        run.sort_dedup();
        let kept: Vec<Vec<Elem>> = run.iter().map(|(_, u)| u.to_vec()).collect();
        assert_eq!(kept, vec![vec![a, b, c], vec![b, c, a], vec![c, a, b]]);

        // Once E(c,b) is present, the trigger deriving it is dead.
        let mut with_cb = inst.clone();
        with_cb.add_fact(s.pred_id("E").unwrap(), vec![c, b]);
        let mut run = TriggerRun::new(&tgds);
        run.offer(0, tc, &bind(c, a, b), &InstanceIndex::new(&with_cb));
        assert_eq!(run.len(), 0);
    }

    /// The shard probe graph of `tests/proptest_sharded.rs`: transitive
    /// closure over 140 nodes with out-degree 3 drawn from a fixed LCG.
    fn tc_probe() -> (Vec<Tgd>, tgdkit_instance::Instance) {
        use tgdkit_logic::{parse_tgds, Schema};
        let mut schema = Schema::default();
        let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let pred = schema.pred_id("E").unwrap();
        let mut inst = tgdkit_instance::Instance::new(schema);
        let nodes = 140u32;
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for u in 0..nodes {
            for _ in 0..3 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((s >> 33) % nodes as u64) as u32;
                inst.add_fact(pred, vec![Elem(u), Elem(v)]);
            }
        }
        (tgds, inst)
    }

    /// Round two of the closure probe offers each body match that uses a
    /// round-one fact exactly once — also the matches using two of them,
    /// which an anchor-per-atom search over the whole index finds twice —
    /// and the count does not depend on the shard count.
    #[test]
    fn round_two_offers_each_delta_touching_match_once() {
        use crate::chase::index_with_tail;
        use crate::{chase_checkpointing, ChaseBudget, ChaseVariant};
        use std::collections::HashSet;
        let (tgds, start) = tc_probe();
        let budget = ChaseBudget {
            max_facts: 2_000_000,
            max_rounds: 1,
            max_bytes: usize::MAX,
        };
        let token = CancelToken::new();
        let (_, cp) = chase_checkpointing(&start, &tgds, ChaseVariant::Restricted, budget, &token);
        let cp = cp.expect("a round-budget trip is resumable");
        let mut instance = cp.instance.clone();
        let mut delta = cp.delta.clone().expect("round one added facts");
        let index = index_with_tail(&mut instance, &mut delta);

        // Reference: every body match into I ∪ Δ, counted when it uses Δ.
        let new: HashSet<&[Elem]> = delta.iter().map(|f| f.args.as_slice()).collect();
        let (mut touching, mut both) = (0u64, 0u64);
        for_each_hom_indexed(tgds[0].body(), 3, &index, &vec![None; 3], &mut |b| {
            let [x, y, z] = [0, 1, 2].map(|v| b[v].expect("bound"));
            let first = new.contains(&[x, y][..]);
            let second = new.contains(&[y, z][..]);
            touching += u64::from(first || second);
            both += u64::from(first && second);
            ControlFlow::Continue(())
        });
        assert!(both > 0, "some match uses two delta facts");

        for shards in [1, 2, 4] {
            let store = ShardedInstance::from_instance(instance.clone(), shards);
            let mut run = TriggerRun::new(&tgds);
            let scan = find_triggers(&tgds, &index, &store, Some(&delta), &mut run, &token);
            assert!(!scan.aborted && scan.panics_contained == 0);
            assert_eq!(run.offered, touching, "offers at {shards} shards");
        }
    }
}
