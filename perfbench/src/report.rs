//! Metric names, units and the one-line JSON result.
//!
//! Every run reports the same metric names whatever its workload: the
//! end-to-end set with tracing off, the per-layer set with tracing on. A
//! per-layer metric a workload never exercises reads 0 (that layer did
//! no work on that workload).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rewrite: enumerate -> evaluate -> conclude
    ("core.enumerate.ms", "ms"),
    ("core.evaluate.ms", "ms"),
    ("core.conclude.ms", "ms"),
    ("core.thm92_pos.enumerate.ms", "ms"),
    ("core.thm92_pos.evaluate.ms", "ms"),
    ("core.thm92_pos.conclude.ms", "ms"),
    ("core.decide_s", "s"),
    ("core.candidates", "count"),
    ("core.body_groups", "count"),
    ("core.bodies_chased", "count"),
    ("core.entailed", "count"),
    ("core.rewriting_size", "count"),
    ("core.entailed_ratio", "ratio"),
    ("chase.cache.hits", "count"),
    ("chase.cache.misses", "count"),
    ("chase.cache.hit_ratio", "ratio"),
    // joins (process-global counters, reset before each traced call)
    ("hom.plans_built", "count"),
    ("hom.plan_cache_hits", "count"),
    ("hom.atoms_planned", "count"),
    ("hom.hash_joins", "count"),
    ("hom.nested_loop_joins", "count"),
    ("hom.build_rows", "count"),
    ("hom.probe_rows", "count"),
    // chase: parse -> search/apply
    ("instance.parse.ms", "ms"),
    ("chase.run.ms", "ms"),
    ("chase.search.ms", "ms"),
    ("chase.apply.ms", "ms"),
    ("chase.facts_per_s", "1/s"),
    ("chase.rounds", "count"),
    ("chase.triggers_found", "count"),
    ("chase.triggers_fired", "count"),
    ("chase.fired_ratio", "ratio"),
    ("chase.facts_added", "count"),
    ("chase.parallel_rounds", "count"),
    // serve: transport -> compute -> store
    ("serve.requests_per_s", "1/s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.batch_tail_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_tail_ms", "ms"),
    ("serve.proto.encode.us", "us"),
    ("serve.proto.decode.us", "us"),
    ("logic.parse_program.us", "us"),
    ("chase.entail.us", "us"),
    ("chase.batch.ms", "ms"),
    ("store.open.ms", "ms"),
    ("store.fold.ms", "ms"),
    ("store.rechase.ms", "ms"),
    ("serve.overhead.ms", "ms"),
    ("serve.quanta", "count"),
    ("serve.suspensions", "count"),
    ("serve.suspend_ratio", "ratio"),
    ("store.wal_appends", "count"),
    ("store.compactions", "count"),
    ("store.rechases", "count"),
    // harness diagnostics
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.mem_ms", "ms"),
    ("host.cores", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks (printed, never silently dropped).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form diagnostics printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a `false` check is a failed one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports the per-layer counts of a traced run: each count summed
    /// over the run's units (problems, graphs, windows) is set as a
    /// metric, and the repeat assertion compares the two traced passes.
    /// Counts named in `not_claimable` depend on thread interleaving and
    /// are only listed; any other difference fails the check. Returns the
    /// sums.
    pub fn report_counts(
        &mut self,
        workload: &str,
        labels: &[String],
        first: &[Counts],
        second: &[Counts],
        not_claimable: &[&str],
    ) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        let mut differing = Vec::new();
        for ((label, a), b) in labels.iter().zip(first).zip(second) {
            for (&(name, va), &(_, vb)) in a.iter().zip(b) {
                *totals.entry(name).or_insert(0.0) += va as f64;
                if va != vb && !not_claimable.contains(&name) {
                    differing.push(format!("{label}:{name} {va}!={vb}"));
                }
            }
        }
        for (name, v) in &totals {
            self.set(name, *v);
        }
        let listed = if not_claimable.is_empty() {
            "none".to_string()
        } else {
            not_claimable.join(", ")
        };
        self.note(format!(
            "{workload}: counts not claimable (may differ between passes): {listed}"
        ));
        self.note(format!(
            "{workload}: claimable counts repeated exactly across two traced passes: {}",
            differing.is_empty()
        ));
        self.check(differing.is_empty(), || {
            format!(
                "{workload}: claimable counts differ: {}",
                differing.join(", ")
            )
        });
        totals
    }
}

/// Per-layer counts of one traced unit, in a fixed order.
pub type Counts = Vec<(&'static str, u64)>;

/// The result line: every metric of `table`, in table order. A metric the
/// run did not set reads 0.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    // A run that checked nothing has failed.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the metrics a run reports.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_reports_every_metric() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.set("setup_s", 0.5);
        let line = result_line(&out, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"work_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        let failed = result_line(&Outcome::default(), END_TO_END);
        assert!(failed.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
