//! Checkpoint/resume property tests: for any trip point and any seed,
//! *trip → checkpoint → encode → decode → resume* is indistinguishable
//! from an uninterrupted run — byte-identical chase instances, identical
//! rewrite outcomes, and identical normalized statistics — and a corrupted
//! checkpoint is always rejected with a typed error, never a panic or a
//! silently wrong resume.
//!
//! CI runs this file under the same `TGDKIT_FAULTS_SEED` matrix as
//! `proptest_faults`, so one green run covers one injected-trip schedule
//! and the matrix covers several.

use proptest::prelude::*;
use tgdkit::chase_crate::checkpoint::{open, seal, KIND_CHASE};
use tgdkit::chase_crate::faults::{env_seed, FaultPlan, FaultSite};
use tgdkit::chase_crate::{
    batch_entailment, chase, chase_checkpointing, chase_resume, BatchCheckpoint, CancelToken,
    ChaseBudget, ChaseCheckpoint, ChaseOutcome, ChaseVariant, CheckpointError, EntailBatchStats,
    EntailCache,
};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::core::{rewrite, RewriteCheckpoint, RewriteOptions, RewriteOutcome, RewriteTarget};
use tgdkit::instance::{parse_instance, Elem, Instance};
use tgdkit::logic::{parse_tgds, Schema, Tgd, TgdSet};

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

/// A batch candidate pool: the members of a second random set over the
/// same schema, one body atom each.
fn random_candidates(seed: u64, count: usize) -> Vec<Tgd> {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules: count,
        body_atoms: 1,
        head_atoms: 1,
        universals: 2,
        existentials: 0,
    };
    generate_set(&params, Family::Unrestricted, seed)
        .tgds()
        .to_vec()
}

/// Batch stats with the fields a suspension legitimately changes (trip
/// and resume counts, timings) zeroed.
fn normalized(stats: &EntailBatchStats) -> EntailBatchStats {
    EntailBatchStats {
        chase: stats.chase.normalized(),
        ..*stats
    }
}

/// A small start instance over the set's schema: one fact per predicate on
/// a two-element domain, enough to trigger most rules.
fn seed_instance(set: &TgdSet) -> Instance {
    let schema = set.schema();
    let mut inst = Instance::new(schema.clone());
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        inst.add_fact(pred, (0..arity).map(|i| Elem((i % 2) as u32)).collect());
    }
    inst
}

const BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 2_000,
    max_rounds: 12,
    max_bytes: usize::MAX,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1 (chase): tripping the round budget at ANY round `j`,
    /// checkpointing, encoding, decoding, and resuming yields an instance
    /// byte-identical to the uninterrupted run's — and (property 4) the
    /// resumed run's normalized stats equal the uninterrupted run's.
    #[test]
    fn chase_trip_resume_is_invisible(
        set_seed in 0u64..300,
        rules in 1usize..4,
        existentials in 0usize..2,
        trip in 0usize..12,
    ) {
        let set = random_set(set_seed, rules, existentials);
        let start = seed_instance(&set);
        let token = CancelToken::new();
        let (full, _) = chase_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, &token,
        );
        prop_assume!(full.stats.rounds > 0);
        let j = trip % full.stats.rounds;
        let (tripped, cp) = chase_checkpointing(
            &start,
            set.tgds(),
            ChaseVariant::Restricted,
            ChaseBudget { max_rounds: j, ..BUDGET },
            &token,
        );
        prop_assert_eq!(tripped.outcome, ChaseOutcome::BudgetExceeded);
        let cp = cp.expect("budget trip must be resumable");
        // Property 2: the checkpoint round-trips through its binary frame.
        let decoded = ChaseCheckpoint::decode(&cp.encode(), set.schema()).unwrap();
        prop_assert_eq!(&decoded, cp.as_ref());
        let (resumed, after) = chase_resume(
            &decoded, set.tgds(), BUDGET, &token,
        ).unwrap();
        prop_assert!(after.is_none(), "resume under the full budget completes");
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance, "trip at round {} is visible", j);
        prop_assert_eq!(resumed.stats.rounds, full.stats.rounds);
        // Property 4: run-shape normalization aside (trips/resumes/timing),
        // the stats are those of the uninterrupted run.
        prop_assert_eq!(resumed.stats.normalized(), full.stats.normalized());
        prop_assert_eq!(resumed.stats.resumes, 1);
    }

    /// Property 1 (chase, injected trips): a spurious
    /// `FaultSite::MemBudgetTrip` at an arbitrary round suspends as
    /// `MemoryExceeded`, and resuming with a clean token reproduces the
    /// clean run byte-for-byte.
    #[test]
    fn injected_mem_trip_resume_is_invisible(
        set_seed in 0u64..300,
        rules in 1usize..4,
        schedule in 0u64..6,
    ) {
        let set = random_set(set_seed, rules, 1);
        let start = seed_instance(&set);
        let clean = CancelToken::new();
        let (full, _) = chase_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, &clean,
        );
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::MemBudgetTrip, 3));
        let (tripped, cp) = chase_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, &token,
        );
        if tripped.outcome != ChaseOutcome::MemoryExceeded {
            prop_assert!(cp.is_none() || tripped.outcome != ChaseOutcome::Terminated);
            return Ok(());
        }
        prop_assert!(tripped.stats.mem_trips >= 1);
        let cp = cp.expect("memory trip must be resumable");
        let (resumed, _) = chase_resume(
            &cp, set.tgds(), BUDGET, &clean,
        ).unwrap();
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance);
        prop_assert_eq!(resumed.stats.normalized(), full.stats.normalized());
    }

    /// Property 1 (rewrite): an injected memory trip mid-filtering
    /// suspends with a checkpoint; resuming (through encode/decode)
    /// produces the exact outcome — including the identical rewriting —
    /// and filtering counters of the uninterrupted run, for both
    /// algorithms.
    #[test]
    fn rewrite_trip_resume_is_invisible(
        set_seed in 0u64..120,
        rules in 1usize..3,
        schedule in 0u64..4,
        target_tag in 1u8..3,
    ) {
        let set = random_set(set_seed, rules, 0);
        let target = RewriteTarget::try_from(target_tag).unwrap();
        let opts = RewriteOptions::default();
        let clean_token = CancelToken::new();
        let (clean, clean_stats, none) = rewrite(
            &set, target, &opts, &EntailCache::new(), &clean_token, None,
        ).unwrap();
        prop_assert!(none.is_none(), "unlimited budget never suspends");
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::MemBudgetTrip, 2));
        let cache = EntailCache::new();
        let (mut outcome, mut stats, mut cp) =
            rewrite(&set, target, &opts, &cache, &token, None).unwrap();
        let mut resumes = 0usize;
        while let Some(checkpoint) = cp {
            prop_assert_eq!(&outcome, &RewriteOutcome::Suspended);
            // Property 2 for rewrite checkpoints: binary round-trip.
            let decoded = RewriteCheckpoint::decode(&checkpoint.encode()).unwrap();
            prop_assert_eq!(&decoded, checkpoint.as_ref());
            let (o, s, c) = rewrite(
                &set, target, &opts, &cache, &clean_token, Some(&decoded),
            ).unwrap();
            outcome = o;
            stats = s;
            cp = c;
            resumes += 1;
            prop_assert!(resumes <= 1, "clean-token resume cannot re-trip");
        }
        prop_assert_eq!(&outcome, &clean, "suspension changed the verdict");
        prop_assert_eq!(stats.entailed, clean_stats.entailed);
        prop_assert_eq!(stats.unknown_checks, clean_stats.unknown_checks);
        prop_assert_eq!(stats.rewriting_size, clean_stats.rewriting_size);
        prop_assert_eq!(stats.bodies_chased, clean_stats.bodies_chased);
        if resumes > 0 {
            prop_assert_eq!(stats.resumes, resumes);
            prop_assert!(stats.mem_trips >= 1);
        }
    }

    /// Property 1 (batch): the same invisibility for batch entailment —
    /// an injected trip suspends at a group boundary, and resuming through
    /// encode/decode yields the verdicts and normalized counters of the
    /// uninterrupted batch.
    #[test]
    fn batch_trip_resume_is_invisible(
        set_seed in 0u64..120,
        cand_seed in 0u64..120,
        rules in 1usize..3,
        schedule in 0u64..4,
    ) {
        let set = random_set(set_seed, rules, 1);
        let (schema, sigma) = (set.schema(), set.tgds());
        let candidates = random_candidates(cand_seed, 6);
        let budget = ChaseBudget::default();
        let clean_token = CancelToken::new();
        let (clean, clean_stats, none) = batch_entailment(
            schema, sigma, &candidates, budget, Some(&EntailCache::new()), &clean_token, None,
        ).unwrap();
        prop_assert!(none.is_none(), "unlimited budget never suspends");
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::MemBudgetTrip, 2));
        let cache = EntailCache::new();
        let (mut verdicts, mut stats, mut cp) = batch_entailment(
            schema, sigma, &candidates, budget, Some(&cache), &token, None,
        ).unwrap();
        let mut resumes = 0usize;
        while let Some(checkpoint) = cp {
            let decoded = BatchCheckpoint::decode(&checkpoint.encode()).unwrap();
            prop_assert_eq!(&decoded, checkpoint.as_ref());
            let (v, s, c) = batch_entailment(
                schema, sigma, &candidates, budget, Some(&cache), &clean_token, Some(&decoded),
            ).unwrap();
            verdicts = v;
            stats = s;
            cp = c;
            resumes += 1;
            prop_assert!(resumes <= 1, "clean-token resume cannot re-trip");
        }
        prop_assert_eq!(&verdicts, &clean, "suspension changed a verdict");
        prop_assert_eq!(normalized(&stats), normalized(&clean_stats));
        if resumes > 0 {
            prop_assert_eq!(stats.chase.resumes, resumes);
            prop_assert!(stats.chase.mem_trips >= 1);
        }
    }

    /// Property 3: flipping any single byte (or bit) of an encoded
    /// checkpoint is detected by the checksum and surfaces as a typed
    /// error — resuming from corruption is impossible, and decoding never
    /// panics.
    #[test]
    fn corrupted_checkpoints_are_rejected_not_resumed(
        set_seed in 0u64..300,
        rules in 1usize..4,
        trip in 0usize..12,
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let set = random_set(set_seed, rules, 1);
        let start = seed_instance(&set);
        let token = CancelToken::new();
        let (full, _) = chase_checkpointing(
            &start, set.tgds(), ChaseVariant::Restricted, BUDGET, &token,
        );
        prop_assume!(full.stats.rounds > 0);
        let (_, cp) = chase_checkpointing(
            &start,
            set.tgds(),
            ChaseVariant::Restricted,
            ChaseBudget { max_rounds: trip % full.stats.rounds, ..BUDGET },
            &token,
        );
        let bytes = cp.expect("budget trip must be resumable").encode();
        let mut corrupt = bytes.clone();
        let i = flip_pos % corrupt.len();
        corrupt[i] ^= 1 << flip_bit;
        prop_assert!(
            ChaseCheckpoint::decode(&corrupt, set.schema()).is_err(),
            "flip at byte {}/bit {} went undetected", i, flip_bit
        );
        // Injected corruption at decode time is also a typed error.
        let corrupt_token =
            CancelToken::with_faults(FaultPlan::always(FaultSite::CheckpointCorrupt));
        prop_assert!(matches!(
            ChaseCheckpoint::decode_governed(&bytes, set.schema(), &corrupt_token).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
        // And the pristine frame still decodes: the rejection above was the
        // corruption, not the frame.
        let decoded = ChaseCheckpoint::decode(&bytes, set.schema()).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
        let _ = KIND_CHASE; // the frame's kind tag is part of the public API
    }

    /// Property 3 for the batch and rewrite frames: injected corruption at
    /// decode time is a typed error there too, never a panic, and the
    /// pristine frame still decodes through the same governed entry point.
    #[test]
    fn batch_and_rewrite_frames_reject_injected_corruption(
        set_seed in 0u64..120,
        cand_seed in 0u64..120,
        rules in 1usize..3,
        target_tag in 1u8..3,
    ) {
        let set = random_set(set_seed, rules, 1);
        let trip = CancelToken::with_faults(FaultPlan::always(FaultSite::MemBudgetTrip));
        let corrupt = CancelToken::with_faults(FaultPlan::always(FaultSite::CheckpointCorrupt));
        let clean = CancelToken::new();

        let candidates = random_candidates(cand_seed, 6);
        let (_, _, cp) = batch_entailment(
            set.schema(), set.tgds(), &candidates, ChaseBudget::default(),
            Some(&EntailCache::new()), &trip, None,
        ).unwrap();
        let bytes = cp.expect("an always-tripping batch suspends").encode();
        prop_assert!(matches!(
            BatchCheckpoint::decode_governed(&bytes, &corrupt).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
        let decoded = BatchCheckpoint::decode_governed(&bytes, &clean).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);

        let set = random_set(set_seed, rules, 0);
        let target = RewriteTarget::try_from(target_tag).unwrap();
        let (_, _, cp) = rewrite(
            &set, target, &RewriteOptions::default(), &EntailCache::new(), &trip, None,
        ).unwrap();
        let bytes = cp.expect("an always-tripping rewrite suspends").encode();
        prop_assert!(matches!(
            RewriteCheckpoint::decode_governed(&bytes, &corrupt).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
        let decoded = RewriteCheckpoint::decode_governed(&bytes, &clean).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
    }
}

/// Payload offset of a chase frame's reserved word: after the variant tag,
/// the round count and the null counter.
const RESERVED_AT: usize = 1 + 8 + 4;

/// FNV-1a-64, the frame checksum: re-seals a hand-edited frame.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `frame` with its format version set to `version` and the checksum
/// recomputed.
fn with_version(mut frame: Vec<u8>, version: u16) -> Vec<u8> {
    frame[4..6].copy_from_slice(&version.to_le_bytes());
    let body = frame.len() - 8;
    let sum = fnv1a(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// Older and hand-edited chase frames still resume onto the uninterrupted
/// run: a version-1 frame, which has no reserved word, and a current frame
/// whose reserved word reads 3 (the shard count a sharded run once wrote
/// there). Both decode to the captured checkpoint, which re-encodes with
/// the word at 1. A 0 in the word is malformed.
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
    let trip = ChaseBudget {
        max_rounds: 1,
        ..BUDGET
    };
    let (_, cp) = chase_checkpointing(
        &start,
        &tgds,
        ChaseVariant::Restricted,
        trip,
        &CancelToken::new(),
    );
    let cp = cp.expect("a round-budget trip is resumable");
    let frame = cp.encode();
    let payload = open(&frame, KIND_CHASE).expect("a valid chase frame");
    assert_eq!(&payload[RESERVED_AT..RESERVED_AT + 4], &1u32.to_le_bytes());

    let mut v1_payload = payload[..RESERVED_AT].to_vec();
    v1_payload.extend_from_slice(&payload[RESERVED_AT + 4..]);
    let v1 = with_version(seal(KIND_CHASE, &v1_payload), 1);
    let with_word = |word: u32| {
        let mut edited = payload.to_vec();
        edited[RESERVED_AT..RESERVED_AT + 4].copy_from_slice(&word.to_le_bytes());
        seal(KIND_CHASE, &edited)
    };
    for edited in [v1, with_word(3)] {
        let decoded = ChaseCheckpoint::decode(&edited, &schema).expect("the edited frame decodes");
        assert_eq!(&decoded, cp.as_ref());
        assert_eq!(decoded.encode(), frame);
        let (resumed, after) = chase_resume(&decoded, &tgds, BUDGET, &CancelToken::new()).unwrap();
        assert!(after.is_none());
        assert_eq!(resumed.outcome, full.outcome);
        assert_eq!(resumed.instance, full.instance);
        assert_eq!(resumed.nulls, full.nulls);
        assert_eq!(resumed.rounds, full.rounds);
    }
    assert_eq!(
        ChaseCheckpoint::decode(&with_word(0), &schema).unwrap_err(),
        CheckpointError::Malformed("zero reserved word")
    );
}
