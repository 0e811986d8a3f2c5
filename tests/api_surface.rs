//! Breadth tests for API surfaces and edge paths not exercised by the
//! paper-focused suites: error rendering, parser diagnostics, the greedy
//! canonicalization fallback, display adapters, budget edge cases, and the
//! chase entry points.

use tgdkit::logic::canon::EXACT_LIMIT;
use tgdkit::logic::{
    canonical_tgd, parse_dependencies, same_up_to_renaming, tgd_variant_key, Dependency, LogicError,
};
use tgdkit::prelude::*;

#[test]
fn logic_errors_render_helpfully() {
    let mut s = Schema::default();
    s.add_pred("R", 2).unwrap();
    let err = s.add_pred("R", 3).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains('R') && rendered.contains('2') && rendered.contains('3'));

    let arity = LogicError::ArityMismatch {
        pred: "R".into(),
        expected: 2,
        actual: 1,
    };
    assert!(arity.to_string().contains("arity 2"));
    assert!(LogicError::EmptyHead.to_string().contains("non-empty"));
}

#[test]
fn parse_errors_carry_positions() {
    let mut s = Schema::default();
    // Error on line 3.
    let err =
        tgdkit::logic::parse_tgds(&mut s, "R(x,y) -> R(y,x).\n// fine\nR(x -> T(x).").unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.to_string().contains("3:"));
    // Column information for a mid-line error.
    let err2 = tgdkit::logic::parse_tgds(&mut s, "R(x,y) => T(x).").unwrap_err();
    assert_eq!(err2.line, 1);
    assert!(err2.column > 1);
}

#[test]
fn dependency_display_covers_all_kinds() {
    let mut s = Schema::default();
    let deps = parse_dependencies(
        &mut s,
        "R(x,y) -> T(x). R(x,y) -> x = y. R(x,y) -> x = y | T(x).",
    )
    .unwrap();
    let rendered: Vec<String> = deps.iter().map(|d| d.display(&s).to_string()).collect();
    assert_eq!(rendered[0], "R(x0, x1) -> T(x0)");
    assert_eq!(rendered[1], "R(x0, x1) -> x0 = x1");
    assert_eq!(rendered[2], "R(x0, x1) -> x0 = x1 | T(x0)");
    assert!(matches!(deps[2], Dependency::Edd(_)));
    for d in &deps {
        assert!(d.validate(&s).is_ok());
    }
}

#[test]
fn canonicalization_greedy_fallback_beyond_exact_limit() {
    // Bodies larger than EXACT_LIMIT take the deterministic greedy path;
    // it must stay idempotent and identify simple rotations.
    let mut s = Schema::default();
    let n = EXACT_LIMIT + 2;
    let mut body_a = String::new();
    for i in 0..n {
        body_a.push_str(&format!("E(v{}, v{}), ", i, (i + 1) % n));
    }
    let text_a = format!("{}P(v0) -> T(v0)", body_a);
    let tgd_a = parse_tgd(&mut s, &text_a).unwrap();
    assert!(tgd_a.body().len() > EXACT_LIMIT);
    let canon = canonical_tgd(&tgd_a);
    assert_eq!(
        canon,
        canonical_tgd(&canon),
        "greedy canonical not idempotent"
    );
    assert_eq!(tgd_variant_key(&tgd_a), tgd_variant_key(&canon));
    assert!(same_up_to_renaming(&tgd_a, &canon));
}

#[test]
fn instance_name_bookkeeping_through_operations() {
    let mut s = Schema::default();
    let i = parse_instance(&mut s, "R(alice, bob), T(alice)").unwrap();
    let alice = i.elem_by_name("alice").unwrap();
    // Restriction keeps names of surviving elements.
    let r = i.restrict(&[alice].into_iter().collect());
    assert_eq!(r.name_of(alice), Some("alice"));
    assert_eq!(r.elem_by_name("bob"), None);
    // restrict_to_facts keeps exactly the fact-touched elements.
    let t_fact: Vec<_> = i.facts().filter(|f| s.name(f.pred) == "T").collect();
    let rt = i.restrict_to_facts(&t_fact);
    assert_eq!(rt.fact_count(), 1);
    assert!(rt.dom().contains(&alice));
}

#[test]
fn cq_validation_and_query_surface() {
    let mut s = Schema::default();
    let probe = parse_tgd(&mut s, "E(x,y) -> Ans(x)").unwrap();
    let q = Cq::new(probe.body().to_vec(), vec![Var(0)]).unwrap();
    assert!(q.validate(&s).is_ok());
    assert_eq!(q.answer_vars(), &[Var(0)]);
    assert_eq!(q.atoms().len(), 1);
    // Validation against a schema missing the predicate fails.
    let empty = Schema::default();
    assert!(q.validate(&empty).is_err());
}

#[test]
fn position_graph_surface() {
    use tgdkit::chase_crate::PositionGraph;
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : F(y,z).").unwrap();
    let graph = PositionGraph::new(&s, &tgds);
    assert_eq!(graph.node_count(), 4); // E/2 + F/2 positions
    assert!(graph.is_weakly_acyclic());
}

#[test]
fn egd_chase_budget_and_failure_paths() {
    use tgdkit::chase_crate::chase::{chase_with_egds, ChaseVariant};
    let mut s = Schema::default();
    let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
    let egd = deps[0].as_egd().unwrap().clone();
    // Merging chains: E(a,b), E(a,c), E(a,d) all merge into one successor.
    let start = parse_instance(&mut s, "E(a,b), E(a,c), E(a,d)").unwrap();
    let err = chase_with_egds(
        &start,
        &[],
        std::slice::from_ref(&egd),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    // All elements are original: hard failure.
    assert!(err.is_err());
    let failure = err.unwrap_err();
    assert!(failure.to_string().contains("cannot equate"));
}

#[test]
fn verdict_and_entailment_utilities() {
    assert!(Entailment::Proved.is_proved());
    assert!(Entailment::Disproved.is_disproved());
    assert_eq!(
        Entailment::Proved.and(Entailment::Unknown),
        Entailment::Unknown
    );
    assert_eq!(Verdict::from(Entailment::Unknown), Verdict::Unknown);
}

#[test]
fn chase_budget_presets_are_ordered() {
    let small = ChaseBudget::small();
    let default = ChaseBudget::default();
    let large = ChaseBudget::large();
    assert!(small.max_facts < default.max_facts && default.max_facts < large.max_facts);
    assert!(small.max_rounds <= default.max_rounds && default.max_rounds <= large.max_rounds);
}

#[test]
fn chase_entry_points_run_one_engine() {
    let mut s = Schema::default();
    let tgds = parse_tgds(
        &mut s,
        "E(x,y), E(y,z) -> E(x,z). E(x,y) -> exists w : F(y,w).",
    )
    .unwrap();
    let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
    let budget = ChaseBudget::default();
    let token = CancelToken::new();
    let plain = chase(&start, &tgds, ChaseVariant::Restricted, budget);
    let governed = chase_governed(&start, &tgds, ChaseVariant::Restricted, budget, &token);
    let (checkpointing, checkpoint) =
        chase_checkpointing(&start, &tgds, ChaseVariant::Restricted, budget, &token);
    assert!(plain.terminated());
    assert!(checkpoint.is_none(), "a fixpoint leaves nothing to resume");
    for other in [&governed, &checkpointing] {
        assert_eq!(other.instance, plain.instance);
        assert_eq!(other.nulls, plain.nulls);
        assert_eq!(other.rounds, plain.rounds);
        assert_eq!(other.stats.normalized(), plain.stats.normalized());
    }
    // The trigger search runs on the calling thread.
    assert_eq!(plain.stats.parallel_rounds, 0);
}

#[test]
fn tgd_class_most_specific_labels() {
    let mut s = Schema::default();
    let cases = [
        ("U(x) -> T(x)", "linear"),
        ("R(x,y), T(x) -> T(y)", "guarded"),
        ("R(x,y), T(y) -> exists z : R(x,z)", "guarded"),
        ("R(x,y), R(y,z) -> T(y)", "frontier-guarded"),
        ("R(x,y), R(y,z) -> R(x,z)", "tgd"),
    ];
    for (text, expected) in cases {
        let tgd = parse_tgd(&mut s, text).unwrap();
        assert_eq!(tgd.class().most_specific(), expected, "for {text}");
    }
}

#[test]
fn subset_enumeration_edges() {
    use std::ops::ControlFlow;
    use tgdkit::core::neighbourhood::{for_each_subset_exact, for_each_subset_up_to};
    // k = 0: only the empty subset.
    let mut count = 0;
    let _ = for_each_subset_up_to(&[Elem(0), Elem(1)], 0, &mut |s| {
        assert!(s.is_empty());
        count += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(count, 1);
    let mut exact0 = 0;
    let _ = for_each_subset_exact(&[Elem(0), Elem(1)], 0, &mut |s| {
        assert!(s.is_empty());
        exact0 += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(exact0, 1);
    // Early break propagates.
    let mut seen = 0;
    let flow = for_each_subset_up_to(&[Elem(0), Elem(1), Elem(2)], 2, &mut |_| {
        seen += 1;
        if seen == 3 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert_eq!(flow, ControlFlow::Break(()));
    assert_eq!(seen, 3);
}

#[test]
fn schema_display_and_extension_round() {
    let s = Schema::builder().pred("Aux", 0).pred("R", 3).build();
    assert_eq!(s.to_string(), "{Aux/0, R/3}");
    let ext = s.extended_with(&[("T", 1)]).unwrap();
    assert_eq!(ext.len(), 3);
    assert_eq!(ext.max_arity(), 3);
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library crates' public surface does not grow back its suffixed
/// twins: distinct `pub fn` names ending in a variant suffix, and
/// `too_many_arguments` allows, stay at or below what is left today. Lower
/// the bounds when a change removes more.
#[test]
fn suffixed_entry_points_do_not_grow_back() {
    const SUFFIXES: [&str; 6] = [
        "_governed",
        "_checkpointing",
        "_resume",
        "_with_stats",
        "_cached",
        "_keyed",
    ];
    const MAX_SUFFIXED: usize = 21;
    const MAX_TOO_MANY_ARGUMENTS: usize = 5;
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    let mut suffixed = std::collections::BTreeSet::new();
    let mut allows = 0;
    for file in &files {
        for line in std::fs::read_to_string(file).unwrap().lines() {
            let line = line.trim_start();
            if line.starts_with("#[allow(") && line.contains("clippy::too_many_arguments") {
                allows += 1;
            }
            let Some(rest) = line.strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if SUFFIXES.iter().any(|s| name.ends_with(s)) {
                suffixed.insert(name);
            }
        }
    }
    assert!(
        suffixed.len() <= MAX_SUFFIXED,
        "{} suffixed pub fn names (at most {MAX_SUFFIXED}): {suffixed:?}",
        suffixed.len()
    );
    assert!(
        allows <= MAX_TOO_MANY_ARGUMENTS,
        "{allows} too_many_arguments allows (at most {MAX_TOO_MANY_ARGUMENTS})"
    );
}
