//! E11: chase substrate scaling (DESIGN.md §5).
//!
//! Measures the restricted chase across the paper's rule families
//! (full / linear / guarded) and growing instances, plus the
//! weak-acyclicity certificate and the entailment check that drives
//! Algorithms 1–2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tgdkit_chase::{chase, entails, is_weakly_acyclic, ChaseBudget, ChaseVariant};
use tgdkit_core::workload::{generate_set, Family, WorkloadParams};
use tgdkit_instance::InstanceGen;

fn params_for(family: Family, existentials: usize) -> WorkloadParams {
    WorkloadParams {
        rules: 4,
        existentials,
        universals: if family == Family::Guarded { 2 } else { 3 },
        ..Default::default()
    }
}

fn bench_chase_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/restricted");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    for (family, label, existentials) in [
        (Family::Full, "full", 0usize),
        (Family::Linear, "linear", 1),
        (Family::Guarded, "guarded", 1),
    ] {
        let set = generate_set(&params_for(family, existentials), family, 17);
        for size in [8usize, 16, 32] {
            let start = InstanceGen::new(set.schema().clone(), 5).generate(size, 0.15);
            group.bench_with_input(
                BenchmarkId::new(label, size),
                &(set.clone(), start),
                |b, (set, start)| {
                    b.iter(|| {
                        black_box(chase(
                            start,
                            set.tgds(),
                            ChaseVariant::Restricted,
                            ChaseBudget::default(),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_oblivious_vs_restricted(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/variant");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = generate_set(&params_for(Family::Full, 0), Family::Full, 23);
    let start = InstanceGen::new(set.schema().clone(), 5).generate(16, 0.2);
    for (variant, label) in [
        (ChaseVariant::Restricted, "restricted"),
        (ChaseVariant::Oblivious, "oblivious"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(chase(&start, set.tgds(), variant, ChaseBudget::default())))
        });
    }
    group.finish();
}

fn bench_weak_acyclicity(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/weak_acyclicity");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    for rules in [4usize, 16, 64] {
        let set = generate_set(
            &WorkloadParams {
                rules,
                existentials: 1,
                predicates: 6,
                ..Default::default()
            },
            Family::Unrestricted,
            31,
        );
        group.bench_with_input(BenchmarkId::from_parameter(rules), &set, |b, set| {
            b.iter(|| black_box(is_weakly_acyclic(set.schema(), set.tgds())))
        });
    }
    group.finish();
}

fn bench_entailment(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/entailment");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    for rules in [2usize, 4, 8] {
        let set = generate_set(
            &WorkloadParams {
                rules,
                ..Default::default()
            },
            Family::Full,
            23,
        );
        let candidates = generate_set(
            &WorkloadParams {
                rules: 16,
                ..Default::default()
            },
            Family::Full,
            29,
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(rules),
            &(set, candidates),
            |b, (set, candidates)| {
                b.iter(|| {
                    for cand in candidates.tgds() {
                        black_box(entails(
                            set.schema(),
                            set.tgds(),
                            cand,
                            ChaseBudget::default(),
                        ));
                    }
                })
            },
        );
    }
    group.finish();
}

/// Multi-round runs: the regime where the incremental index pays off. A
/// recursive full set forces many rounds over a growing instance; the
/// per-round cost is now O(|Δ|) index maintenance instead of an O(|I|)
/// rebuild. `ChaseStats` asserts the invariant (exactly one full build per
/// run) while the wall time quantifies the win.
fn bench_incremental_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/incremental");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = generate_set(
        &WorkloadParams {
            rules: 6,
            predicates: 4,
            universals: 3,
            ..Default::default()
        },
        Family::Full,
        41,
    );
    for size in [16usize, 32, 64] {
        let start = InstanceGen::new(set.schema().clone(), 7).generate(size, 0.25);
        group.bench_with_input(
            BenchmarkId::new("chase", size),
            &(set.clone(), start),
            |b, (set, start)| {
                b.iter(|| {
                    let result = chase(
                        start,
                        set.tgds(),
                        ChaseVariant::Restricted,
                        ChaseBudget::large(),
                    );
                    assert_eq!(result.stats.index_rebuilds, 1, "incremental path regressed");
                    black_box(result)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chase_families,
    bench_oblivious_vs_restricted,
    bench_weak_acyclicity,
    bench_entailment,
    bench_incremental_rounds
);
criterion_main!(benches);
