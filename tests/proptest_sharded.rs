//! Sharded-chase property tests: for any tgd set, any start instance, and
//! any shard count 1–8, the chase at `shards = k` is *indistinguishable*
//! from the default one-shard [`chase`] — byte-identical instances,
//! identical outcomes/rounds/nulls, identical normalized statistics — and
//! the shard-aware checkpoint frames round-trip trip → encode → decode →
//! resume back onto the uninterrupted run, including version-1 frames
//! that predate the shard count.
//!
//! CI runs this file under the same `TGDKIT_FAULTS_SEED` matrix as
//! `proptest_faults`, so the injected-trip test covers a different fault
//! schedule per matrix leg.

use proptest::prelude::*;
use tgdkit::chase_crate::checkpoint::{open, seal, KIND_CHASE};
use tgdkit::chase_crate::faults::{env_seed, FaultPlan, FaultSite};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::prelude::*;

fn random_set(seed: u64, rules: usize, existentials: usize) -> TgdSet {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials,
    };
    generate_set(&params, Family::Guarded, seed)
}

/// Unlimited byte budget: a multi-shard run's resident-heap figure sums
/// per-shard dedup maps and so differs from the one-shard layout; byte
/// budgets are therefore pinned open and `mem_peak_bytes` is zeroed out of
/// the stats comparison below.
const BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 4_000,
    max_rounds: 16,
    max_bytes: usize::MAX,
};

/// Normalized stats with the engine-dependent heap-peak figure removed.
fn comparable(stats: &ChaseStats) -> ChaseStats {
    let mut n = stats.normalized();
    n.mem_peak_bytes = 0;
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At every shard count 1–8 the chase reproduces the one-shard chase
    /// bit-for-bit — same instance, outcome, rounds, nulls, and normalized
    /// stats (found and fired trigger counts included).
    #[test]
    fn sharded_chase_equals_unsharded(
        set_seed in 0u64..300,
        data_seed in 0u64..300,
        rules in 1usize..4,
        existentials in 0usize..2,
        shards in 1usize..9,
    ) {
        let set = random_set(set_seed, rules, existentials);
        let start = InstanceGen::new(set.schema().clone(), data_seed).generate(4, 0.35);
        let one = chase(&start, set.tgds(), ChaseVariant::Restricted, BUDGET);
        let sharded = chase_sharded(&start, set.tgds(), ChaseVariant::Restricted, BUDGET, shards);
        prop_assert_eq!(sharded.outcome, one.outcome);
        prop_assert_eq!(sharded.rounds, one.rounds);
        prop_assert_eq!(&sharded.nulls, &one.nulls);
        prop_assert_eq!(
            &sharded.instance, &one.instance,
            "sharded chase at {} shards diverged", shards
        );
        prop_assert_eq!(comparable(&sharded.stats), comparable(&one.stats));
    }

    /// The oblivious variant holds to the same equivalence (its
    /// fired-trigger memory keys on the universal binding, which the
    /// deduped trigger runs must reproduce in the same order).
    #[test]
    fn sharded_oblivious_chase_equals_unsharded(
        set_seed in 0u64..200,
        data_seed in 0u64..200,
        shards in 1usize..9,
    ) {
        let set = random_set(set_seed, 2, 0);
        let start = InstanceGen::new(set.schema().clone(), data_seed).generate(3, 0.35);
        let one = chase(&start, set.tgds(), ChaseVariant::Oblivious, BUDGET);
        let sharded = chase_sharded(&start, set.tgds(), ChaseVariant::Oblivious, BUDGET, shards);
        prop_assert_eq!(sharded.outcome, one.outcome);
        prop_assert_eq!(&sharded.instance, &one.instance);
        prop_assert_eq!(comparable(&sharded.stats), comparable(&one.stats));
    }

    /// Shard-aware checkpointing: trip the round budget at ANY round,
    /// round-trip the frame through encode/decode (the frame carries the
    /// shard count), resume — and land exactly on the uninterrupted
    /// sharded run, which itself equals the one-shard run.
    #[test]
    fn sharded_trip_resume_is_invisible(
        set_seed in 0u64..300,
        rules in 1usize..4,
        shards in 2usize..9,
        trip in 0usize..16,
    ) {
        let set = random_set(set_seed, rules, 1);
        let start = InstanceGen::new(set.schema().clone(), set_seed + 7).generate(4, 0.35);
        let token = CancelToken::new();
        let (full, _) = chase_sharded_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, shards, &token,
        );
        // A reference run that itself tripped the budget would make the
        // resume legitimately suspend again; pin the property to runs
        // that complete.
        prop_assume!(full.outcome == ChaseOutcome::Terminated);
        prop_assume!(full.stats.rounds > 0);
        let j = trip % full.stats.rounds;
        let (tripped, cp) = chase_sharded_checkpointing(
            &start,
            set.tgds(),
            ChaseVariant::Restricted,
            ChaseBudget { max_rounds: j, ..BUDGET },
            shards,
            &token,
        );
        prop_assert_eq!(tripped.outcome, ChaseOutcome::BudgetExceeded);
        let cp = cp.expect("budget trip must be resumable");
        // The frame round-trips with its shard dimension intact: the
        // decoded checkpoint equals the captured one, and resuming it
        // (which re-partitions at the frame's shard count) completes
        // exactly as the uninterrupted sharded run did.
        let decoded = ChaseCheckpoint::decode(&cp.encode(), set.schema()).unwrap();
        prop_assert_eq!(&decoded, cp.as_ref());
        let (resumed, after) = chase_resume(
            &decoded, set.tgds(), BUDGET, &token,
        ).unwrap();
        prop_assert!(after.is_none(), "resume under the full budget completes");
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance, "trip at round {} is visible", j);
        prop_assert_eq!(comparable(&resumed.stats), comparable(&full.stats));
        prop_assert_eq!(resumed.stats.resumes, 1);
    }

    /// Injected memory trips (the `TGDKIT_FAULTS_SEED` arm): a spurious
    /// `MemBudgetTrip` mid-run suspends the sharded chase resumably, and a
    /// clean-token resume reproduces the clean sharded run byte-for-byte.
    #[test]
    fn sharded_injected_trip_resume_is_invisible(
        set_seed in 0u64..200,
        shards in 2usize..7,
        schedule in 0u64..6,
    ) {
        let set = random_set(set_seed, 2, 1);
        let start = InstanceGen::new(set.schema().clone(), set_seed + 11).generate(4, 0.35);
        let clean = CancelToken::new();
        let (full, _) = chase_sharded_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, shards, &clean,
        );
        prop_assume!(full.outcome == ChaseOutcome::Terminated);
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::MemBudgetTrip, 3));
        let (tripped, cp) = chase_sharded_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, shards, &token,
        );
        if tripped.outcome != ChaseOutcome::MemoryExceeded {
            // The schedule never fired inside this run; nothing to resume.
            return Ok(());
        }
        let cp = cp.expect("memory trip must be resumable");
        let (resumed, _) = chase_resume(
            &cp, set.tgds(), BUDGET, &clean,
        ).unwrap();
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance);
        prop_assert_eq!(comparable(&resumed.stats), comparable(&full.stats));
    }

    /// Partitioning is a partition: every fact of the source instance
    /// lands on exactly the shard `shard_of` names, counts are preserved,
    /// and merging reassembles the source exactly.
    #[test]
    fn partition_routes_totally_and_merges_back(
        data_seed in 0u64..500,
        shards in 1usize..9,
    ) {
        let set = random_set(17, 3, 1);
        let inst = InstanceGen::new(set.schema().clone(), data_seed).generate(6, 0.5);
        let sharded = ShardedInstance::partition(&inst, shards);
        prop_assert_eq!(sharded.shard_count(), shards);
        prop_assert_eq!(sharded.fact_count(), inst.fact_count());
        for s in 0..shards {
            for fact in sharded.shard(s).facts() {
                prop_assert_eq!(shard_of(fact.pred, &fact.args, shards), s);
                prop_assert!(sharded.contains_fact(fact.pred, &fact.args));
            }
        }
        prop_assert_eq!(sharded.merge(), inst);
    }
}

/// Payload offset of a chase frame's shard count: after the variant tag,
/// the round count and the null counter.
const SHARDS_AT: usize = 1 + 8 + 4;

/// FNV-1a-64, the frame checksum: re-seals a hand-edited frame.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Rewrites a version-2 chase frame in the version-1 layout, which has no
/// shard count: the shard `u32` is cut out, the version field set to 1,
/// and the checksum recomputed.
fn as_version_one(frame: &[u8]) -> Vec<u8> {
    let payload = open(frame, KIND_CHASE).expect("a valid chase frame");
    let mut v1_payload = payload[..SHARDS_AT].to_vec();
    v1_payload.extend_from_slice(&payload[SHARDS_AT + 4..]);
    let mut v1 = seal(KIND_CHASE, &v1_payload);
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    let body = v1.len() - 8;
    let sum = fnv1a(&v1[..body]);
    v1[body..].copy_from_slice(&sum.to_le_bytes());
    v1
}

/// A version-1 frame (written before checkpoints carried a shard count)
/// still decodes, as a one-shard checkpoint, and resumes onto the
/// uninterrupted run — also when the run that wrote it had more shards.
#[test]
fn version_one_checkpoint_resumes_at_one_shard() {
    let mut schema = Schema::default();
    let tgds = parse_tgds(
        &mut schema,
        "E(x,y), E(y,z) -> E(x,z). E(x,y) -> exists w : F(y,w).",
    )
    .unwrap();
    let start = parse_instance(&mut schema, "E(a,b), E(b,c), E(c,d), E(d,e)").unwrap();
    let full = chase(&start, &tgds, ChaseVariant::Restricted, BUDGET);
    assert!(full.terminated());
    assert!(full.rounds >= 2);
    for shards in [1, 3] {
        let (_, cp) = chase_sharded_checkpointing(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_rounds: 1,
                ..BUDGET
            },
            shards,
            &CancelToken::new(),
        );
        let cp = cp.expect("a round-budget trip is resumable");
        let v1 = as_version_one(&cp.encode());
        let decoded = ChaseCheckpoint::decode(&v1, &schema).expect("version-1 frames decode");
        assert_eq!(decoded.rounds(), 1);
        assert_eq!(decoded.instance(), cp.instance());
        if shards == 1 {
            assert_eq!(&decoded, cp.as_ref());
        }
        // Re-encoded, the decoded frame is a current one at one shard.
        let reencoded = decoded.encode();
        let payload = open(&reencoded, KIND_CHASE).unwrap();
        assert_eq!(&payload[SHARDS_AT..SHARDS_AT + 4], &1u32.to_le_bytes());
        let (resumed, after) = chase_resume(&decoded, &tgds, BUDGET, &CancelToken::new()).unwrap();
        assert!(after.is_none());
        assert_eq!(resumed.outcome, full.outcome);
        assert_eq!(resumed.instance, full.instance);
        assert_eq!(resumed.nulls, full.nulls);
        assert_eq!(resumed.rounds, full.rounds);
    }
}

/// The shard probe workload: transitive closure over a 140-node graph with
/// out-degree 3 drawn from a fixed LCG.
fn tc_probe() -> (Vec<Tgd>, Instance) {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
    let pred = schema.pred_id("E").unwrap();
    let mut inst = Instance::new(schema);
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

/// On the closure probe the output is byte-identical at 1, 2 and 4 shards,
/// multi-shard runs exchange tuples, and the search stores live triggers
/// only: at most four found per trigger fired (the search that collected
/// every binding found about 140 per fired trigger here).
#[test]
fn closure_probe_is_shard_invariant_and_finds_live_triggers() {
    let (tgds, start) = tc_probe();
    let budget = ChaseBudget {
        max_facts: 2_000_000,
        max_rounds: 64,
        max_bytes: usize::MAX,
    };
    let one = chase(&start, &tgds, ChaseVariant::Restricted, budget);
    assert!(one.terminated());
    assert!(
        one.stats.triggers_found <= 4 * one.stats.triggers_fired,
        "{} triggers found for {} fired",
        one.stats.triggers_found,
        one.stats.triggers_fired
    );
    for shards in [1, 2, 4] {
        let sharded = chase_sharded(&start, &tgds, ChaseVariant::Restricted, budget, shards);
        assert_eq!(
            format!("{:?}", sharded.instance),
            format!("{:?}", one.instance)
        );
        assert_eq!(sharded.nulls, one.nulls);
        assert_eq!(sharded.rounds, one.rounds);
        assert_eq!(sharded.outcome, one.outcome);
        assert_eq!(sharded.stats.triggers_found, one.stats.triggers_found);
        assert_eq!(sharded.stats.triggers_fired, one.stats.triggers_fired);
        if shards > 1 {
            assert!(shard_stats().exchanged_tuples >= 1);
        }
    }
}
