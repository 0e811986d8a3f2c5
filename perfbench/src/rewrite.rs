//! `rewrite`: the paper's nine E7–E9 problems, decided by Algorithms 1–2
//! with the E7–E9 enumeration options and `parallel: true`, as the CLI
//! decides them.
//!
//! Set-up parses the program texts and builds the Appendix F reductions.
//! A pass decides the whole suite in seed order; the run repeats passes
//! for the requested time. Verdicts are checked against the known E7–E9
//! outcomes, every Appendix F entailment is re-derived by chasing Σ from
//! the empty instance, and every rewriting is chase-verified equivalent to
//! its input — all outside the timed region.

use std::time::{Duration, Instant};

use tgdkit_chase::{chase, equivalent, ChaseBudget, ChaseVariant, EntailCache, Entailment};
use tgdkit_core::enumerate::{guarded_candidates, linear_candidates, EnumOptions};
use tgdkit_core::reductions::{
    fg_entailment_to_guarded_rewritability, guarded_entailment_to_linear_rewritability,
};
use tgdkit_core::rewrite::{
    evaluate_pool_keyed, frontier_guarded_to_guarded_cached, guarded_to_linear_cached,
    RewriteOptions, RewriteOutcome, RewriteStats,
};
use tgdkit_hom::{join_stats, plan_stats, reset_join_stats, reset_plan_stats};
use tgdkit_instance::Instance;
use tgdkit_logic::{parse_tgds, Schema, TgdSet};

use crate::host::Rng;
use crate::report::{Counts, Outcome};
use crate::stats::{fast_time, median, ms, ratio};
use crate::trace::Trace;
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Algorithm 1, `Rewrite(GTGD, LTGD)`.
    Linear,
    /// Algorithm 2, `Rewrite(FGTGD, GTGD)`.
    Guarded,
}

/// The known E7–E9 answer (EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    Rewritten(usize),
    NotRewritable,
    Inconclusive,
}

/// Text of one problem: the E7/E8 inputs directly, the E9 ones as the
/// base set Σ whose reduction is decided.
struct Spec {
    label: &'static str,
    target: Target,
    text: &'static str,
    /// `Some(entailed)` for an Appendix F reduction of `text`, where
    /// `entailed` is whether Σ ⊨ ∃x Q(x).
    reduction: Option<bool>,
    /// Whether the problem gets the exhaustive E7/E8 atom budgets.
    exhaustive: bool,
    expected: Expected,
}

const SPECS: [Spec; 9] = [
    Spec {
        label: "e7_redundant_side_atom",
        target: Target::Linear,
        text: "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).",
        reduction: None,
        exhaustive: false,
        expected: Expected::Rewritten(1),
    },
    Spec {
        label: "e7_unary_join",
        target: Target::Linear,
        text: "R(x), P(x) -> T(x).",
        reduction: None,
        exhaustive: true,
        expected: Expected::NotRewritable,
    },
    Spec {
        label: "e7_existential_chain",
        target: Target::Linear,
        text: "G(x,y) -> exists z : G(y,z). G(x,y), G(x,x) -> T(x,y).",
        reduction: None,
        exhaustive: false,
        expected: Expected::Inconclusive,
    },
    Spec {
        label: "e8_frontier_guarded",
        target: Target::Guarded,
        text: "R(x,y) -> P(x). R(x,y), P(x) -> T(x).",
        reduction: None,
        exhaustive: false,
        expected: Expected::Rewritten(2),
    },
    Spec {
        label: "e8_cross_product",
        target: Target::Guarded,
        text: "R(x), P(y) -> T(x).",
        reduction: None,
        exhaustive: true,
        expected: Expected::NotRewritable,
    },
    Spec {
        label: "thm91_pos",
        target: Target::Linear,
        text: "true -> exists u : P(u). P(x) -> Q(x).",
        reduction: Some(true),
        exhaustive: false,
        expected: Expected::Rewritten(4),
    },
    Spec {
        label: "thm92_pos",
        target: Target::Guarded,
        text: "true -> exists u : P(u). P(x) -> Q(x).",
        reduction: Some(true),
        exhaustive: false,
        expected: Expected::Rewritten(4),
    },
    Spec {
        label: "thm91_neg",
        target: Target::Linear,
        text: "P(x) -> Q(x).",
        reduction: Some(false),
        exhaustive: false,
        expected: Expected::NotRewritable,
    },
    Spec {
        label: "thm92_neg",
        target: Target::Guarded,
        text: "P(x) -> Q(x).",
        reduction: Some(false),
        exhaustive: false,
        expected: Expected::NotRewritable,
    },
];

/// One decidable problem, built by set-up.
struct Problem {
    spec: &'static Spec,
    set: TgdSet,
    opts: RewriteOptions,
    /// For reductions: the base Σ, whose entailment of ∃x Q(x) the
    /// harness re-derives by chasing.
    base: Option<TgdSet>,
}

fn options(spec: &Spec) -> RewriteOptions {
    // E7/E8: default budgets, except the unary §9.1 gadgets, whose budgets
    // cover the full candidate space. E9: head budget 2 for positive
    // instances, 8 for negative ones (so their answers are definitive).
    let enumeration = match spec.reduction {
        Some(entailed) => EnumOptions {
            max_head_atoms: if entailed { 2 } else { 8 },
            max_body_atoms: 8,
            max_candidates: 500_000,
        },
        None if spec.exhaustive => EnumOptions {
            max_head_atoms: 8,
            max_body_atoms: 8,
            max_candidates: 500_000,
        },
        None => EnumOptions::default(),
    };
    RewriteOptions {
        enumeration,
        parallel: true,
        ..Default::default()
    }
}

fn parse_set(text: &str) -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, text).expect("suite program parses");
    TgdSet::new(schema, tgds).expect("suite program is a valid tgd set")
}

/// Set-up: parse every program text and build the reductions.
fn build_suite() -> Vec<Problem> {
    SPECS
        .iter()
        .map(|spec| {
            let parsed = parse_set(spec.text);
            let (set, base) = match (spec.reduction, spec.target) {
                (None, _) => (parsed, None),
                (Some(_), target) => {
                    let q = parsed.schema().pred_id("Q").expect("reduction query Q");
                    let reduction = match target {
                        Target::Linear => guarded_entailment_to_linear_rewritability(&parsed, q),
                        Target::Guarded => fg_entailment_to_guarded_rewritability(&parsed, q),
                    }
                    .expect("reduction builds");
                    (reduction.sigma_prime, Some(parsed))
                }
            };
            Problem {
                spec,
                set,
                opts: options(spec),
                base,
            }
        })
        .collect()
}

fn decide(p: &Problem, cache: &EntailCache) -> (RewriteOutcome, RewriteStats) {
    match p.spec.target {
        Target::Linear => guarded_to_linear_cached(&p.set, &p.opts, cache),
        Target::Guarded => frontier_guarded_to_guarded_cached(&p.set, &p.opts, cache),
    }
}

/// Checks one verdict against the known outcome and, for rewritings,
/// against a chase-verified equivalence with the input and the target
/// class. Runs outside the timed region.
fn check_verdict(p: &Problem, outcome: &RewriteOutcome, out: &mut Outcome) {
    let label = p.spec.label;
    let matches = match (p.spec.expected, outcome) {
        (Expected::Rewritten(n), RewriteOutcome::Rewritten(tgds)) => tgds.len() == n,
        (Expected::NotRewritable, RewriteOutcome::NotRewritable) => true,
        (Expected::Inconclusive, RewriteOutcome::Inconclusive) => true,
        _ => false,
    };
    out.check(matches, || {
        format!("{label}: expected {:?}, got {outcome:?}", p.spec.expected)
    });
    if let RewriteOutcome::Rewritten(tgds) = outcome {
        let in_class = tgds.iter().all(|t| match p.spec.target {
            Target::Linear => t.is_linear(),
            Target::Guarded => t.is_guarded(),
        });
        let equiv = equivalent(p.set.schema(), tgds, p.set.tgds(), ChaseBudget::default());
        out.check(in_class && equiv == Entailment::Proved, || {
            format!("{label}: rewriting in class {in_class}, equivalence {equiv:?}")
        });
    }
}

/// Re-derives Σ ⊨ ∃x Q(x) for a reduction by chasing Σ from the empty
/// instance, and checks that the decided verdict agrees with it.
fn check_reduction(p: &Problem, out: &mut Outcome) {
    let (Some(base), Some(expected)) = (&p.base, p.spec.reduction) else {
        return;
    };
    let q = base.schema().pred_id("Q").expect("reduction query Q");
    let result = chase(
        &Instance::new(base.schema().clone()),
        base.tgds(),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    let entailed = result.instance.facts().any(|f| f.pred == q);
    out.check(result.terminated() && entailed == expected, || {
        format!(
            "{}: chasing Σ gives entailment {entailed}, suite says {expected}",
            p.spec.label
        )
    });
}

/// One traced pass: enumerate, evaluate and decide each problem as
/// separate calls under one `problem` span. The decision's conclude share
/// (Σ′ ⊨ Σ plus minimization) is its span minus the enumerate and
/// evaluate spans.
struct TracedPass {
    trace: Trace,
    counts: Vec<Counts>,
    decide: Duration,
    conclude: Duration,
    thm92: [f64; 3],
}

fn traced_pass(suite: &[Problem], order: &[usize], out: &mut Outcome) -> TracedPass {
    let mut trace = Trace::new(Instant::now());
    let mut counts = vec![Counts::new(); suite.len()];
    let (mut decide_total, mut conclude_total) = (Duration::ZERO, Duration::ZERO);
    let mut thm92 = [0.0; 3];
    for &i in order {
        let p = &suite[i];
        let schema = p.set.schema();
        let (n, m) = p.set.profile();
        let root = trace.begin("problem", None);
        let (pool, e) = trace.span("core.enumerate", Some(root), || match p.spec.target {
            Target::Linear => linear_candidates(schema, n, m, &p.opts.enumeration),
            Target::Guarded => guarded_candidates(schema, n, m, &p.opts.enumeration),
        });
        let pool_cache = EntailCache::new();
        let (_, v) = trace.span("core.evaluate", Some(root), || {
            evaluate_pool_keyed(
                schema,
                p.set.tgds(),
                &pool.tgds,
                &pool.keys,
                p.opts.budget,
                p.opts.parallel,
                &pool_cache,
            )
        });
        let cache = EntailCache::new();
        reset_plan_stats();
        reset_join_stats();
        let ((outcome, stats), d) = trace.span("core.decide", Some(root), || decide(p, &cache));
        let plans = plan_stats();
        let joins = join_stats();
        trace.end(root);
        let (enum_t, eval_t, dec_t) = (trace.duration(e), trace.duration(v), trace.duration(d));
        let conclude = dec_t.saturating_sub(enum_t + eval_t);
        decide_total += dec_t;
        conclude_total += conclude;
        if p.spec.label == "thm92_pos" {
            thm92 = [ms(enum_t), ms(eval_t), ms(conclude)];
        }
        check_verdict(p, &outcome, out);
        counts[i] = vec![
            ("core.candidates", stats.candidates as u64),
            ("core.body_groups", stats.body_groups as u64),
            ("core.bodies_chased", stats.bodies_chased as u64),
            ("core.entailed", stats.entailed as u64),
            ("core.rewriting_size", stats.rewriting_size as u64),
            ("chase.cache.hits", cache.hits() as u64),
            ("chase.cache.misses", cache.misses() as u64),
            ("hom.plans_built", plans.plans_built),
            ("hom.atoms_planned", plans.atoms_planned),
            ("hom.plan_cache_hits", joins.plan_cache_hits),
            ("hom.hash_joins", joins.hash_joins),
            ("hom.nested_loop_joins", joins.nested_loop_joins),
            ("hom.build_rows", joins.build_rows),
            ("hom.probe_rows", joins.probe_rows),
        ];
    }
    TracedPass {
        trace,
        counts,
        decide: decide_total,
        conclude: conclude_total,
        thm92,
    }
}

/// Decides the suite once in `order`; returns the pass's wall time and
/// the verdicts (for checking after the clock stops).
fn timed_pass(suite: &[Problem], order: &[usize]) -> (Duration, Vec<RewriteOutcome>) {
    let mut outcomes = Vec::with_capacity(order.len());
    let started = Instant::now();
    for &i in order {
        let cache = EntailCache::new();
        outcomes.push(std::hint::black_box(decide(&suite[i], &cache)).0);
    }
    (started.elapsed(), outcomes)
}

/// Per-layer counts of this workload that may differ between two passes
/// of the same code.
const NOT_CLAIMABLE: &[&str] = &[];

/// Set-up repetitions before each pass; the median over all of them is
/// reported, so the samples spread over the run.
const SETUP_REPS: usize = 101;

/// Set-up, repeated: returns the suite and appends the times.
fn timed_setups(setups: &mut Vec<f64>) -> Vec<Problem> {
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        suite = std::hint::black_box(build_suite());
        setups.push(started.elapsed().as_secs_f64());
    }
    suite
}

pub fn run(args: &Args, out: &mut Outcome) -> Option<String> {
    let mut setups = Vec::new();
    let suite = timed_setups(&mut setups);
    let mut order: Vec<usize> = (0..suite.len()).collect();
    Rng::new(args.seed).shuffle(&mut order);
    if args.small {
        // The self-check skips the one multi-second decision.
        order.retain(|&i| suite[i].spec.label != "thm92_pos");
    }
    for p in &suite {
        check_reduction(p, out);
    }

    // Untraced passes: the headline. The traced run makes one, for the
    // tracing overhead.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let (t, outcomes) = timed_pass(&suite, &order);
        for (&i, outcome) in order.iter().zip(&outcomes) {
            check_verdict(&suite[i], outcome, out);
        }
        passes.push(t.as_secs_f64());
        if args.trace || started.elapsed() >= budget {
            break;
        }
        timed_setups(&mut setups);
    }
    let setup_s = fast_time(&setups);
    out.set("setup_s", setup_s);
    let pass_s = fast_time(&passes);
    out.set("work_per_s", order.len() as f64 / pass_s);
    out.note(format!(
        "rewrite: {} problems, passes {passes:.4?} s, decide_s (fast quartile) {pass_s:.4}, \
         setup {:.1} us (fast quartile of {} samples, median {:.1} us)",
        order.len(),
        setup_s * 1e6,
        setups.len(),
        median(&setups) * 1e6,
    ));
    if !args.trace {
        return None;
    }

    // Two traced passes: times are their mean, counts must repeat.
    let first = traced_pass(&suite, &order, out);
    let second = traced_pass(&suite, &order, out);
    let mean_ms = |a: Duration, b: Duration| (ms(a) + ms(b)) / 2.0;
    let total = |name| mean_ms(first.trace.total(name), second.trace.total(name));
    out.set("core.enumerate.ms", total("core.enumerate"));
    out.set("core.evaluate.ms", total("core.evaluate"));
    out.set("core.conclude.ms", mean_ms(first.conclude, second.conclude));
    let thm92 = [
        "core.thm92_pos.enumerate.ms",
        "core.thm92_pos.evaluate.ms",
        "core.thm92_pos.conclude.ms",
    ];
    for (k, name) in thm92.into_iter().enumerate() {
        out.set(name, (first.thm92[k] + second.thm92[k]) / 2.0);
    }
    let decide_s = (first.decide + second.decide).as_secs_f64() / 2.0;
    out.set("core.decide_s", decide_s);
    out.set("trace.overhead_pct", (decide_s / pass_s - 1.0) * 100.0);
    let labels: Vec<String> = suite.iter().map(|p| p.spec.label.to_string()).collect();
    let t = out.report_counts(
        "rewrite",
        &labels,
        &first.counts,
        &second.counts,
        NOT_CLAIMABLE,
    );
    let get = |name| t.get(name).copied().unwrap_or_default();
    out.set(
        "core.entailed_ratio",
        ratio(get("core.entailed"), get("core.candidates")),
    );
    let hits = get("chase.cache.hits");
    out.set(
        "chase.cache.hit_ratio",
        ratio(hits, hits + get("chase.cache.misses")),
    );
    let mut trace = first.trace;
    trace.absorb(second.trace);
    Some(trace.to_tsv())
}
