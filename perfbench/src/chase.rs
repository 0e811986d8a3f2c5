//! `chase`: restricted `chase()` of seeded random graphs under transitive
//! closure at E11 size (120–160 nodes, out-degree 3, up to ~25k facts).
//!
//! Inputs are delivered as rule and instance text, as the CLI reads them;
//! set-up is parsing that text. A cycle chases one graph of each size in
//! seed order; the run repeats cycles for the requested time and reports
//! facts produced per second of `chase()` time. Every result is compared
//! with a reachability closure the harness computes by BFS.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tgdkit_chase::{chase, ChaseBudget, ChaseResult, ChaseVariant};
use tgdkit_hom::{join_stats, plan_stats, reset_join_stats, reset_plan_stats};
use tgdkit_instance::{parse_instance, Elem, Instance};
use tgdkit_logic::{parse_tgds, Schema, Tgd};

use crate::host::Rng;
use crate::report::{Counts, Outcome};
use crate::stats::{fast_time, median, ms, ratio};
use crate::trace::Trace;
use crate::Args;

pub const RULES: &str = "E(x,y), E(y,z) -> E(x,z).";
const DEGREE: usize = 3;

/// One generated graph: its text and the edge list the BFS reference
/// closes.
pub struct Graph {
    pub nodes: usize,
    pub edges: Vec<(usize, usize)>,
    pub text: String,
}

/// A seeded graph with `DEGREE` distinct out-edges per node (no self
/// loops), as instance text `E(n0,n7), ...`.
pub fn graph(nodes: usize, rng: &mut Rng) -> Graph {
    let mut edges = Vec::with_capacity(nodes * DEGREE);
    for u in 0..nodes {
        let mut targets: Vec<usize> = Vec::with_capacity(DEGREE);
        while targets.len() < DEGREE {
            let v = rng.below(nodes as u64) as usize;
            if v != u && !targets.contains(&v) {
                targets.push(v);
            }
        }
        edges.extend(targets.into_iter().map(|v| (u, v)));
    }
    let mut text = String::with_capacity(edges.len() * 12);
    for (i, (u, v)) in edges.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(text, "{sep}E(n{u},n{v})");
    }
    Graph { nodes, edges, text }
}

/// The closure's expected pairs: `(u, v)` for every `v` reachable from
/// `u` by a path of one or more edges.
pub fn reachability(nodes: usize, edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut adj = vec![Vec::new(); nodes];
    for &(u, v) in edges {
        adj[u].push(v);
    }
    let mut pairs = Vec::new();
    for s in 0..nodes {
        let mut seen = vec![false; nodes];
        let mut queue: VecDeque<usize> = adj[s].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if !seen[v] {
                seen[v] = true;
                pairs.push((s, v));
                queue.extend(adj[v].iter().copied());
            }
        }
    }
    pairs
}

/// Set-up: the rules and instance parsed from text.
struct Input {
    tgds: Vec<Tgd>,
    start: Instance,
}

fn parse(graph: &Graph) -> Input {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, RULES).expect("TC rule parses");
    let start = parse_instance(&mut schema, &graph.text).expect("graph text parses");
    Input { tgds, start }
}

fn budget() -> ChaseBudget {
    ChaseBudget {
        max_facts: 2_000_000,
        max_rounds: 64,
        max_bytes: usize::MAX,
    }
}

fn run_chase(input: &Input) -> ChaseResult {
    chase(
        &input.start,
        &input.tgds,
        ChaseVariant::Restricted,
        budget(),
    )
}

/// Compares a chase result with the BFS closure of its graph.
fn check(graph: &Graph, input: &Input, result: &ChaseResult, out: &mut Outcome) {
    let expected = reachability(graph.nodes, &graph.edges);
    let pred = result
        .instance
        .schema()
        .pred_id("E")
        .expect("E is in the schema");
    let elem = |n: usize| -> Option<Elem> { input.start.elem_by_name(&format!("n{n}")) };
    let all_present = expected.iter().all(|&(u, v)| match (elem(u), elem(v)) {
        (Some(a), Some(b)) => result.instance.contains_fact(pred, &[a, b]),
        _ => false,
    });
    let exact = result.instance.fact_count() == expected.len() && result.nulls.is_empty();
    out.check(result.terminated() && all_present && exact, || {
        format!(
            "{}-node graph: chase gave {} facts, BFS closure has {} (terminated {})",
            graph.nodes,
            result.instance.fact_count(),
            expected.len(),
            result.terminated()
        )
    });
}

/// Graph sizes of one cycle (the run's order is seeded).
const SIZES: [usize; 3] = [120, 140, 160];
const SMALL_SIZES: [usize; 2] = [30, 40];
/// Set-up repetitions before each cycle; the median over all of them is
/// reported, so the samples spread over the run.
const SETUP_REPS: usize = 21;

/// Set-up, repeated: parses every graph of a cycle and appends the times.
fn timed_setups(graphs: &[Graph], setups: &mut Vec<f64>) -> Vec<Input> {
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        inputs = std::hint::black_box(graphs.iter().map(parse).collect::<Vec<_>>());
        setups.push(started.elapsed().as_secs_f64());
    }
    inputs
}

pub fn run(args: &Args, out: &mut Outcome) -> Option<String> {
    let mut rng = Rng::new(args.seed);
    let mut sizes: Vec<usize> = if args.small {
        SMALL_SIZES.to_vec()
    } else {
        SIZES.to_vec()
    };
    rng.shuffle(&mut sizes);
    let graphs: Vec<Graph> = sizes.iter().map(|&n| graph(n, &mut rng)).collect();

    let mut setups = Vec::new();
    let inputs = timed_setups(&graphs, &mut setups);

    // Untraced cycles: the headline. The traced run makes one, for the
    // tracing overhead. Each size's chase time is its fast quartile over
    // the run's cycles.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); graphs.len()];
    let mut facts = vec![0usize; graphs.len()];
    loop {
        for (g, (graph, input)) in graphs.iter().zip(&inputs).enumerate() {
            let t = Instant::now();
            let result = std::hint::black_box(run_chase(input));
            times[g].push(t.elapsed().as_secs_f64());
            facts[g] = result.instance.fact_count() - input.start.fact_count();
            check(graph, input, &result, out);
        }
        if args.trace || started.elapsed() >= budget {
            break;
        }
        timed_setups(&graphs, &mut setups);
    }
    let setup_s = fast_time(&setups);
    out.set("setup_s", setup_s);
    let chase_s: f64 = times.iter().map(|t| fast_time(t)).sum();
    let rate = facts.iter().sum::<usize>() as f64 / chase_s;
    out.set("work_per_s", rate);
    out.note(format!(
        "chase: sizes {sizes:?}, facts {facts:?}, chase times {times:.3?} s, facts_per_s \
         {rate:.1}, setup {:.3} ms (fast quartile of {} samples, median {:.3} ms)",
        setup_s * 1e3,
        setups.len(),
        median(&setups) * 1e3,
    ));
    if !args.trace {
        return None;
    }

    let first = traced_cycle(&graphs, out);
    let second = traced_cycle(&graphs, out);
    let mean = |name: &str| (ms(first.trace.total(name)) + ms(second.trace.total(name))) / 2.0;
    out.set("instance.parse.ms", mean("instance.parse"));
    out.set("chase.run.ms", mean("chase.run"));
    out.set(
        "chase.search.ms",
        (ms(first.search) + ms(second.search)) / 2.0,
    );
    out.set("chase.apply.ms", (ms(first.apply) + ms(second.apply)) / 2.0);
    let labels: Vec<String> = graphs.iter().map(|g| format!("{}-node", g.nodes)).collect();
    let t = out.report_counts(
        "chase",
        &labels,
        &first.counts,
        &second.counts,
        NOT_CLAIMABLE,
    );
    let get = |name| t.get(name).copied().unwrap_or_default();
    let traced_rate = get("chase.facts_added") / (mean("chase.run") / 1e3);
    out.set("chase.facts_per_s", traced_rate);
    out.set("trace.overhead_pct", (rate / traced_rate - 1.0) * 100.0);
    out.set(
        "chase.fired_ratio",
        ratio(get("chase.triggers_fired"), get("chase.triggers_found")),
    );
    let mut trace = first.trace;
    trace.absorb(second.trace);
    Some(trace.to_tsv())
}

/// Per-layer counts of this workload that may differ between two passes
/// of the same code.
const NOT_CLAIMABLE: &[&str] = &[];

struct TracedCycle {
    trace: Trace,
    /// Per graph.
    counts: Vec<Counts>,
    search: Duration,
    apply: Duration,
}

/// One traced cycle: parse and chase each graph under a `graph` span,
/// with the join counters reset before each chase.
fn traced_cycle(graphs: &[Graph], out: &mut Outcome) -> TracedCycle {
    let mut trace = Trace::new(Instant::now());
    let mut counts = Vec::with_capacity(graphs.len());
    let (mut search, mut apply) = (Duration::ZERO, Duration::ZERO);
    for graph in graphs {
        let root = trace.begin("graph", None);
        let (input, _) = trace.span("instance.parse", Some(root), || parse(graph));
        reset_plan_stats();
        reset_join_stats();
        let (result, _) = trace.span("chase.run", Some(root), || run_chase(&input));
        let (plans, joins) = (plan_stats(), join_stats());
        trace.end(root);
        check(graph, &input, &result, out);
        let s = &result.stats;
        search += s.trigger_search_time;
        apply += s.apply_time;
        counts.push(vec![
            ("chase.rounds", s.rounds as u64),
            ("chase.triggers_found", s.triggers_found as u64),
            ("chase.triggers_fired", s.triggers_fired as u64),
            ("chase.facts_added", s.facts_added as u64),
            ("chase.parallel_rounds", s.parallel_rounds as u64),
            ("hom.plans_built", plans.plans_built),
            ("hom.atoms_planned", plans.atoms_planned),
            ("hom.plan_cache_hits", joins.plan_cache_hits),
            ("hom.hash_joins", joins.hash_joins),
            ("hom.nested_loop_joins", joins.nested_loop_joins),
            ("hom.build_rows", joins.build_rows),
            ("hom.probe_rows", joins.probe_rows),
        ]);
    }
    TracedCycle {
        trace,
        counts,
        search,
        apply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_closure_of_a_cycle_is_complete() {
        let pairs = reachability(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(pairs.len(), 9);
    }

    #[test]
    fn graphs_repeat_by_seed() {
        let a = graph(20, &mut Rng::new(7));
        let b = graph(20, &mut Rng::new(7));
        assert_eq!(a.text, b.text);
        assert_eq!(a.edges.len(), 60);
    }
}
