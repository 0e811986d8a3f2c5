//! End-to-end regression tests for the crash-on-poisoned-cache fix: a
//! worker panic contained while the shared entailment cache's lock is held
//! used to abort every later query via `.expect("entail cache poisoned")`.
//! Now the cache recovers (counting the recovery), keeps coherent state,
//! and keeps serving — including through the entailment service's jobs.
//!
//! Runs under the `tgdkit-faults` feature (a root dev-dependency), which
//! exposes the deterministic fault plans and the poison helper.

use tgdkit::chase_crate::faults::{silence_injected_panics, FaultPlan, FaultSite};
use tgdkit::chase_crate::{
    batch_entailment, entails_batch, CancelToken, ChaseBudget, EntailCache, Entailment,
};
use tgdkit::logic::{parse_tgds, Schema};
use tgdkit::serve::{Job, JobOutput, JobStep, Request, SliceLimit};

fn workload(schema: &mut Schema) -> (Vec<tgdkit::logic::Tgd>, Vec<tgdkit::logic::Tgd>) {
    let sigma = parse_tgds(schema, "R(x,y) -> S(y). S(x), R(x,y) -> T(y).").unwrap();
    let candidates = parse_tgds(
        schema,
        "R(x,y) -> S(y). R(x,y) -> T(x). S(x) -> T(x). R(x,y), S(y) -> S(y).",
    )
    .unwrap();
    (sigma, candidates)
}

/// The original crash: poison the cache lock the way a contained worker
/// panic does, then keep querying. Pre-fix this aborted the process; now
/// the memoized verdicts are still served and the recovery is counted.
#[test]
fn poisoned_cache_keeps_serving_batch_queries() {
    let mut schema = Schema::default();
    let (sigma, candidates) = workload(&mut schema);
    let cache = EntailCache::new();
    let budget = ChaseBudget::default();

    let (before, _) = entails_batch(&schema, &sigma, &candidates, budget, Some(&cache));
    assert!(before.contains(&Entailment::Proved));

    cache.poison_for_tests();

    // Every one of these lock acquisitions crashed pre-fix.
    let (after, stats) = entails_batch(&schema, &sigma, &candidates, budget, Some(&cache));
    assert_eq!(before, after, "poison changed cached verdicts");
    assert!(stats.cache_hits > 0, "the memo survived the poison");
    assert!(cache.poison_recoveries() >= 1);
    assert_eq!(cache.poison_clears(), 0, "coherent state was kept");
}

/// A contained in-engine panic (the deterministic `GroupEvalPanic` fault)
/// leaves the shared cache usable: the faulted batch counts its contained
/// group panics, every verdict it reports is `Unknown`, and a clean rerun
/// against the same cache produces the clean verdicts.
#[test]
fn contained_group_panic_leaves_cache_usable() {
    silence_injected_panics();
    let mut schema = Schema::default();
    let (sigma, candidates) = workload(&mut schema);
    let cache = EntailCache::new();
    let budget = ChaseBudget::default();

    let clean_reference = entails_batch(&schema, &sigma, &candidates, budget, None).0;

    // Panic inside every group evaluation: all verdicts degrade to
    // Unknown, but nothing aborts and nothing poisons permanently.
    let token = CancelToken::with_faults(FaultPlan::only(7, FaultSite::GroupEvalPanic, 1));
    let (faulted, stats, checkpoint) = batch_entailment(
        &schema,
        &sigma,
        &candidates,
        budget,
        Some(&cache),
        &token,
        None,
    )
    .unwrap();
    assert!(
        checkpoint.is_none(),
        "a contained panic is not a suspension"
    );
    assert!(stats.panics_contained >= 1, "no group panic was counted");
    assert_eq!(faulted, vec![Entailment::Unknown; candidates.len()]);

    let (rerun, _) = entails_batch(&schema, &sigma, &candidates, budget, Some(&cache));
    assert_eq!(
        rerun, clean_reference,
        "panic residue perturbed a clean rerun"
    );
}

/// The service path: a scheduler job sliced against an already-poisoned
/// tenant cache completes with the same verdicts as a dedicated run
/// against a healthy cache.
#[test]
fn serve_jobs_survive_a_poisoned_tenant_cache() {
    let request = Request::Batch {
        tenant: "t".into(),
        budget: ChaseBudget::default(),
        program: "R(x0, x1) -> S(x1). S(x0) -> T(x0).".into(),
        candidates: "R(x0, x1) -> T(x1). T(x0) -> S(x0). S(x0) -> T(x0).".into(),
    };
    let reference = {
        let mut job = Job::build(&request).unwrap();
        match job.run_to_completion(&EntailCache::new()) {
            JobStep::Done(JobOutput::Verdicts(v)) => v,
            other => panic!("dedicated run failed: {other:?}"),
        }
    };

    let poisoned = EntailCache::new();
    poisoned.poison_for_tests();
    let mut job = Job::build(&request).unwrap();
    let verdicts = loop {
        match job.run_slice(&poisoned, SliceLimit::Checks(1)) {
            JobStep::Suspended => continue,
            JobStep::Done(JobOutput::Verdicts(v)) => break v,
            other => panic!("sliced run failed: {other:?}"),
        }
    };
    assert_eq!(verdicts, reference);
    assert!(
        poisoned.poison_recoveries() >= 1,
        "the job really hit the poisoned lock"
    );
}
