//! Hash-partitioned instances: the storage substrate of the sharded chase.
//!
//! A [`ShardedInstance`] splits one logical instance into `N` disjoint
//! [`Instance`] shards, routing every fact to the shard named by a
//! deterministic hash of its predicate and tuple ([`shard_of`]). The
//! partition is a pure function of the fact — independent of insertion
//! order, shard-local state, or the process — so re-partitioning the same
//! fact set (e.g. when resuming a checkpointed run) always reproduces the
//! same placement, and a fact's owner can be computed by any party without
//! coordination (the property the chase's re-key exchange probes rely on).
//!
//! The logical content is the disjoint union of the shards:
//! [`ShardedInstance::merge`] reassembles a plain [`Instance`] that is
//! equal (content-wise, via the canonical sorted iteration of
//! [`crate::Relation`]) to the instance the same facts would have produced
//! unsharded. Nothing here is approximate — sharding changes *where* a
//! tuple lives, never *whether* it exists.

use crate::instance::{Elem, Fact, Instance};
use crate::store::tuple_hash_iter;
use tgdkit_logic::{PredId, Schema};

/// The shard owning `pred(args)` among `shard_count` shards.
///
/// The routing key mixes the predicate id into the tuple hash so two
/// relations with identical tuples still spread independently; the hash is
/// the same splitmix-finalized FNV used by the relation dedup maps, so the
/// placement is deterministic across processes and platforms.
#[inline]
pub fn shard_of(pred: PredId, args: &[Elem], shard_count: usize) -> usize {
    debug_assert!(shard_count > 0, "shard_count must be positive");
    if shard_count <= 1 {
        return 0;
    }
    let h = tuple_hash_iter(std::iter::once(Elem(pred.index() as u32)).chain(args.iter().copied()));
    (h % shard_count as u64) as usize
}

/// An instance hash-partitioned across `N` shards (see the module docs).
///
/// Every mutation routes through [`shard_of`]; queries against a known
/// tuple consult only the owning shard. Aggregate figures (fact counts,
/// heap residency) are sums over shards, and the per-shard breakdown is
/// exposed for telemetry (load skew) and per-shard memory accounting.
#[derive(Debug, Clone)]
pub struct ShardedInstance {
    shards: Vec<Instance>,
}

impl ShardedInstance {
    /// An empty sharded instance over `schema` with `shard_count` shards.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn new(schema: Schema, shard_count: usize) -> ShardedInstance {
        assert!(shard_count > 0, "shard_count must be positive");
        ShardedInstance {
            shards: (0..shard_count)
                .map(|_| Instance::new(schema.clone()))
                .collect(),
        }
    }

    /// Partitions `instance` across `shard_count` shards. Isolated domain
    /// elements (in `dom` but not `adom`) are kept on shard 0 so the merge
    /// round-trips the domain exactly.
    pub fn partition(instance: &Instance, shard_count: usize) -> ShardedInstance {
        let mut sharded = ShardedInstance::new(instance.schema().clone(), shard_count);
        for fact in instance.facts() {
            sharded.add_fact(fact.pred, fact.args);
        }
        for &e in instance.dom() {
            sharded.shards[0].add_dom_elem(e);
        }
        for (e, name) in instance.names() {
            sharded.shards[0].set_name(e, name);
        }
        sharded
    }

    /// `instance` as a sharded instance of `shard_count` shards. One shard
    /// takes the instance as it is, without a copy, so its heap figure is
    /// the plain instance's; more shards [`ShardedInstance::partition`] it.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn from_instance(instance: Instance, shard_count: usize) -> ShardedInstance {
        assert!(shard_count > 0, "shard_count must be positive");
        if shard_count == 1 {
            ShardedInstance {
                shards: vec![instance],
            }
        } else {
            ShardedInstance::partition(&instance, shard_count)
        }
    }

    /// The logical instance: the single shard moved out, or the
    /// [`ShardedInstance::merge`] of several.
    pub fn into_instance(mut self) -> Instance {
        if self.shards.len() == 1 {
            self.shards.pop().expect("one shard")
        } else {
            self.merge()
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `i`.
    ///
    /// # Panics
    /// Panics if `i >= shard_count()`.
    #[inline]
    pub fn shard(&self, i: usize) -> &Instance {
        &self.shards[i]
    }

    /// The schema (shared by every shard).
    #[inline]
    pub fn schema(&self) -> &Schema {
        self.shards[0].schema()
    }

    /// Adds `pred(args)` to its owning shard; `true` when newly added.
    pub fn add_fact(&mut self, pred: PredId, args: Vec<Elem>) -> bool {
        let s = shard_of(pred, &args, self.shards.len());
        self.shards[s].add_fact(pred, args)
    }

    /// Removes `pred(args)` from its owning shard; `true` when present.
    pub fn remove_fact(&mut self, pred: PredId, args: &[Elem]) -> bool {
        let s = shard_of(pred, args, self.shards.len());
        self.shards[s].remove_fact(pred, args)
    }

    /// `true` when the owning shard holds `pred(args)` — a single-shard
    /// probe, never a scan of the others (the re-key exchange path).
    pub fn contains_fact(&self, pred: PredId, args: &[Elem]) -> bool {
        let s = shard_of(pred, args, self.shards.len());
        self.shards[s].contains_fact(pred, args)
    }

    /// Total facts across all shards.
    pub fn fact_count(&self) -> usize {
        self.shards.iter().map(Instance::fact_count).sum()
    }

    /// Per-shard fact counts, in shard order (the telemetry skew source).
    pub fn per_shard_fact_counts(&self) -> Vec<usize> {
        self.shards.iter().map(Instance::fact_count).collect()
    }

    /// Deterministic heap-residency estimate, summed over shards. Each
    /// shard carries its own dedup maps, so the figure is larger than the
    /// unsharded instance's for the same facts — per-shard accounting is
    /// honest about the partitioned layout's real footprint.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(Instance::heap_bytes).sum()
    }

    /// Per-shard heap-residency estimates, in shard order.
    pub fn per_shard_heap_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(Instance::heap_bytes).collect()
    }

    /// Load skew: the largest shard's fact count over the smallest's
    /// (`1.0` = perfectly balanced). Empty shards floor the denominator at
    /// one fact so the figure stays finite.
    pub fn skew_max_over_min(&self) -> f64 {
        let counts = self.per_shard_fact_counts();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    }

    /// Smallest element id unused across every shard's domain.
    pub fn fresh_elem(&self) -> Elem {
        Elem(
            self.shards
                .iter()
                .map(|s| s.fresh_elem().0)
                .max()
                .unwrap_or(0),
        )
    }

    /// Iterates over all facts, shard-by-shard (shard order, then each
    /// shard's canonical order). This is **not** the merged canonical
    /// order; use [`ShardedInstance::merge`] for that.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.shards.iter().flat_map(Instance::facts)
    }

    /// Reassembles the logical instance: the union of every shard's facts
    /// (disjoint by construction), domain, and display names. Equal to the
    /// instance the same fact set produces unsharded.
    pub fn merge(&self) -> Instance {
        let mut out = Instance::new(self.schema().clone());
        for shard in &self.shards {
            for fact in shard.facts() {
                out.add_fact(fact.pred, fact.args);
            }
            for &e in shard.dom() {
                out.add_dom_elem(e);
            }
            for (e, name) in shard.names() {
                out.set_name(e, name);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::InstanceGen;

    fn schema() -> Schema {
        Schema::builder().pred("R", 2).pred("T", 1).build()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let s = schema();
        let r = s.pred_id("R").unwrap();
        for n in 1..=8 {
            for k in 0..100u32 {
                let args = [Elem(k), Elem(k + 1)];
                let a = shard_of(r, &args, n);
                let b = shard_of(r, &args, n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
        // One shard routes everything to shard 0.
        assert_eq!(shard_of(r, &[Elem(7), Elem(9)], 1), 0);
    }

    #[test]
    fn predicate_participates_in_the_key() {
        let s = Schema::builder().pred("A", 1).pred("B", 1).build();
        let a = s.pred_id("A").unwrap();
        let b = s.pred_id("B").unwrap();
        // Same tuple under different predicates must not always co-locate.
        let differs = (0..64u32).any(|k| shard_of(a, &[Elem(k)], 4) != shard_of(b, &[Elem(k)], 4));
        assert!(differs, "predicate id never affected routing");
    }

    #[test]
    fn partition_then_merge_round_trips() {
        let s = schema();
        let gen_inst = InstanceGen::new(s.clone(), 42).generate_sparse(20, 60);
        for n in [1, 2, 3, 4, 7, 8] {
            let sharded = ShardedInstance::partition(&gen_inst, n);
            assert_eq!(sharded.fact_count(), gen_inst.fact_count());
            let merged = sharded.merge();
            assert_eq!(
                merged, gen_inst,
                "merge must equal the original at {n} shards"
            );
            assert_eq!(merged.dom(), gen_inst.dom());
        }
    }

    #[test]
    fn owned_round_trip_matches_partition_and_merge() {
        let s = schema();
        let gen_inst = InstanceGen::new(s.clone(), 7).generate_sparse(20, 60);
        let one = ShardedInstance::from_instance(gen_inst.clone(), 1);
        assert_eq!(one.heap_bytes(), gen_inst.heap_bytes());
        assert_eq!(one.into_instance(), gen_inst);
        for n in [2, 3, 8] {
            let sharded = ShardedInstance::from_instance(gen_inst.clone(), n);
            assert_eq!(sharded.shard_count(), n);
            assert_eq!(sharded.into_instance(), gen_inst);
        }
    }

    #[test]
    fn mutations_route_to_one_owner() {
        let s = schema();
        let r = s.pred_id("R").unwrap();
        let mut sharded = ShardedInstance::new(s.clone(), 4);
        for k in 0..50u32 {
            assert!(sharded.add_fact(r, vec![Elem(k), Elem(k + 1)]));
            assert!(!sharded.add_fact(r, vec![Elem(k), Elem(k + 1)]));
        }
        assert_eq!(sharded.fact_count(), 50);
        // Each fact lives on exactly one shard, and contains_fact sees it.
        for k in 0..50u32 {
            let args = [Elem(k), Elem(k + 1)];
            assert!(sharded.contains_fact(r, &args));
            let holders = (0..4)
                .filter(|&i| sharded.shard(i).contains_fact(r, &args))
                .count();
            assert_eq!(holders, 1);
        }
        assert!(sharded.remove_fact(r, &[Elem(0), Elem(1)]));
        assert!(!sharded.contains_fact(r, &[Elem(0), Elem(1)]));
        assert_eq!(sharded.fact_count(), 49);
    }

    #[test]
    fn skew_and_fresh_elem() {
        let s = schema();
        let r = s.pred_id("R").unwrap();
        let mut sharded = ShardedInstance::new(s.clone(), 2);
        assert_eq!(sharded.fresh_elem(), Elem(0));
        for k in 0..200u32 {
            sharded.add_fact(r, vec![Elem(k), Elem(200 - k)]);
        }
        // A 200-fact hash split across 2 shards should be roughly even.
        assert!(sharded.skew_max_over_min() < 2.0);
        assert_eq!(sharded.fresh_elem(), Elem(201));
    }
}
