//! Mixed-workload smoke test: one pathological rewrite + small entailments.
//!
//! This is the CI gate for the scheduler's reason to exist: while a
//! branching-chain rewrite (a worst-case-regime workload) is repeatedly
//! suspended and resumed, small entailment requests from other tenants
//! must keep completing with low latency. The routine backs
//! `tgdkit-serve --self-test`, which turns its report into a process exit
//! code.

use std::time::{Duration, Instant};

use tgdkit_chase::ChaseBudget;

use crate::client::Client;
use crate::job::{Job, JobOutput, JobStep};
use crate::proto::{Request, Response};
use crate::scheduler::SchedulerConfig;
use crate::server::{Server, ServerConfig};
use crate::tenant::TenantConfig;
use tgdkit_core::RewriteTarget;

/// The pathological ontology: a guarded branching chain whose candidate
/// filtering does levels-deep chase work per body group — long enough to
/// be time-sliced many times at a small quantum, structured enough that
/// suspension boundaries (body groups) come frequently. Every level-`i`
/// fact spawns two existential children at level `i+1`; the closing
/// two-atom guarded rule keeps the set off the all-linear fast path.
pub fn pathological_program(levels: usize) -> String {
    let mut text = String::new();
    for i in 1..=levels {
        let p = i - 1;
        text.push_str(&format!("L{p}(x) -> exists y : E{i}(x,y). "));
        text.push_str(&format!("E{i}(x,y) -> L{i}(y). "));
        text.push_str(&format!("L{p}(x) -> exists y : F{i}(x,y). "));
        text.push_str(&format!("F{i}(x,y) -> L{i}(y). "));
    }
    text.push_str("E1(x,y), L1(y) -> D(x).");
    text
}

/// A small entailment request for tenant `tenant`: two chase rounds, a
/// provable candidate, single-digit milliseconds dedicated.
pub fn small_request(tenant: &str) -> Request {
    Request::Entail {
        tenant: tenant.into(),
        budget: ChaseBudget::default(),
        program: "R(x0, x1) -> S(x1). S(x0) -> T(x0).".into(),
        candidate: "R(x0, x1) -> T(x1).".into(),
    }
}

/// What [`run_smoke`] measured.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// Total client requests issued (rewrite + smalls).
    pub requests: u64,
    /// Times the pathological rewrite was suspended and re-queued.
    pub rewrite_suspensions: u64,
    /// Scheduler quanta the rewrite consumed.
    pub rewrite_quanta: u64,
    /// Wire outcome tag of the served rewrite.
    pub rewrite_outcome: u8,
    /// Whether the served (time-sliced) rewrite matched a dedicated
    /// in-process run: same outcome tag and same rewriting members.
    pub rewrite_matches_dedicated: bool,
    /// Client-side wall latency of the rewrite.
    pub rewrite_ms: u64,
    /// Sorted client-side latencies of the small requests, microseconds.
    /// Millisecond buckets flattened the whole distribution to 0–3 at a
    /// 10 ms quantum; microsecond resolution is what makes p50 ≠ p99
    /// visible at all.
    pub small_latencies_us: Vec<u64>,
    /// Small requests that completed while the rewrite was still in
    /// flight.
    pub smalls_finished_before_rewrite: usize,
    /// Small requests answered with the expected verdict.
    pub smalls_correct: usize,
}

impl SmokeReport {
    fn percentile(&self, p: f64) -> u64 {
        if self.small_latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.small_latencies_us.len() - 1) as f64 * p).round() as usize;
        self.small_latencies_us[rank]
    }

    /// Median small-request latency, microseconds.
    pub fn small_p50_us(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile small-request latency, microseconds.
    pub fn small_p99_us(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// Smoke tuning; defaults are the CI shape.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Branching-chain depth of the pathological rewrite.
    pub levels: usize,
    /// Small requests to issue while the rewrite runs.
    pub smalls: usize,
    /// Scheduler quantum.
    pub quantum: Duration,
    /// Worker threads.
    pub workers: usize,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        SmokeConfig {
            // Deep enough that the candidate-filtering loop spans several
            // quanta (the gate wants >= 3 suspensions with margin; this
            // shape yields ~5 on a laptop-class core, more on slower CI).
            levels: 5,
            smalls: 12,
            quantum: Duration::from_millis(10),
            workers: 2,
        }
    }
}

/// Runs the mixed workload against a fresh server and reports what
/// happened. Errors are strings, ready for a process exit message.
pub fn run_smoke(config: &SmokeConfig) -> Result<SmokeReport, String> {
    let program = pathological_program(config.levels);
    let rewrite_request = Request::Rewrite {
        tenant: "heavy".into(),
        budget: ChaseBudget::default(),
        program: program.clone(),
        target: RewriteTarget::Linear,
    };

    // Dedicated reference run (no server, no slicing): the equivalence arm
    // of the acceptance criterion.
    let mut reference_job =
        Job::build(&rewrite_request).map_err(|e| format!("reference build: {e}"))?;
    let reference_cache = tgdkit_chase::EntailCache::with_capacity(
        tgdkit_chase::DEFAULT_CACHE_MAX_ENTRIES,
        tgdkit_chase::DEFAULT_CACHE_MAX_BYTES,
    );
    let reference = match reference_job.run_to_completion(&reference_cache) {
        JobStep::Done(JobOutput::Rewrite { outcome, rewritten }) => (outcome, rewritten),
        other => return Err(format!("reference rewrite did not finish: {other:?}")),
    };

    let server = Server::start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: config.workers,
            quantum: config.quantum,
            tenant: TenantConfig::default(),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let client = Client::new(server.addr());

    let rewrite_started = Instant::now();
    let rewrite_handle = client.request_async(rewrite_request);

    // Give the scheduler a beat so the rewrite occupies a worker before
    // the smalls arrive — the contention the smoke exists to measure.
    std::thread::sleep(config.quantum);

    let mut small_latencies_us = Vec::with_capacity(config.smalls);
    let mut smalls_correct = 0;
    let mut smalls_finished_before_rewrite = 0;
    for i in 0..config.smalls {
        let tenant = format!("small-{}", i % 3);
        let started = Instant::now();
        let response = client
            .request(&small_request(&tenant))
            .map_err(|e| format!("small request {i}: {e}"))?;
        small_latencies_us.push(started.elapsed().as_micros() as u64);
        if !rewrite_handle.is_finished() {
            smalls_finished_before_rewrite += 1;
        }
        match response {
            Response::Verdicts { verdicts, .. }
                if verdicts == vec![tgdkit_chase::Entailment::Proved] =>
            {
                smalls_correct += 1;
            }
            other => return Err(format!("small request {i} got {other:?}")),
        }
    }

    let (rewrite_response, _latency) = rewrite_handle
        .join()
        .map_err(|_| "rewrite client thread panicked".to_string())?
        .map_err(|e| format!("rewrite request: {e}"))?;
    let rewrite_ms = rewrite_started.elapsed().as_millis() as u64;
    let (outcome, rewritten, stats) = match rewrite_response {
        Response::Rewrite {
            outcome,
            rewritten,
            stats,
        } => (outcome, rewritten, stats),
        other => return Err(format!("rewrite got {other:?}")),
    };

    server.shutdown();

    let (ref_outcome, ref_rewritten) = reference;
    let ref_tag = crate::scheduler::outcome_tag(&ref_outcome);
    let rewrite_matches_dedicated = outcome == ref_tag && rewritten == *ref_rewritten;

    small_latencies_us.sort_unstable();
    Ok(SmokeReport {
        requests: 1 + config.smalls as u64,
        rewrite_suspensions: stats.suspensions,
        rewrite_quanta: stats.quanta,
        rewrite_outcome: outcome,
        rewrite_matches_dedicated,
        rewrite_ms,
        small_latencies_us,
        smalls_finished_before_rewrite,
        smalls_correct,
    })
}

/// The knowledge-base crash-smoke ontology: pure transitive closure, so
/// after applying the chain edges `E(0,1) … E(k-1,k)` the chased fixpoint
/// holds `E(i,j)` exactly for `i < j <= k`. That closed form is what lets
/// [`run_kb_verify`] check a *killed* server's recovered state without a
/// reference run: whatever batch prefix survived, the visible facts must
/// be exactly the ones that prefix implies.
pub const KB_SMOKE_PROGRAM: &str = "E(x,y), E(y,z) -> E(x,z).";

/// The `i`-th drive batch: insert the chain edge `E(i, i+1)`.
pub fn kb_smoke_batch(tenant: &str, i: u32) -> Request {
    Request::KbApply {
        tenant: tenant.into(),
        program: KB_SMOKE_PROGRAM.into(),
        inserts: vec![crate::proto::WireFact {
            pred: "E".into(),
            args: vec![i, i + 1],
        }],
        retracts: Vec::new(),
    }
}

/// Applies `batches` chain-edge batches to `tenant`'s knowledge base,
/// one acknowledged request at a time — the load half of the CI
/// kill-and-recover smoke (the driver process is SIGKILLed, or the server
/// is, somewhere in this loop).
pub fn run_kb_drive(addr: &str, tenant: &str, batches: u32) -> Result<String, String> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
    let client = Client::new(addr);
    for i in 0..batches {
        match client.request(&kb_smoke_batch(tenant, i)) {
            Ok(Response::Kb { seq, .. }) => {
                println!("kb-drive: batch {i} acknowledged (seq {seq})");
            }
            Ok(other) => return Err(format!("batch {i}: unexpected response {other:?}")),
            Err(e) => return Err(format!("batch {i}: {e}")),
        }
    }
    Ok(format!("kb-drive: {batches} batches acknowledged\n"))
}

/// Verifies a (possibly crash-recovered) knowledge base against the
/// closed form of the chain workload: reads the recovered sequence number
/// `k` from a query response, then checks that `E(0,j)` holds iff
/// `j <= k`. Any deviation — a lost acknowledged batch, a resurrected
/// truncated one, an inverted membership — is a failure.
pub fn run_kb_verify(addr: &str, tenant: &str, batches: u32) -> Result<String, String> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
    let client = Client::new(addr);
    let facts = (1..=batches)
        .map(|j| crate::proto::WireFact {
            pred: "E".into(),
            args: vec![0, j],
        })
        .collect();
    let response = client
        .request(&Request::KbQuery {
            tenant: tenant.into(),
            program: KB_SMOKE_PROGRAM.into(),
            facts,
        })
        .map_err(|e| format!("kb query: {e}"))?;
    let (seq, holds) = match response {
        Response::Kb { seq, holds, .. } => (seq, holds),
        other => return Err(format!("kb query got {other:?}")),
    };
    if seq > u64::from(batches) {
        return Err(format!(
            "recovered seq {seq} exceeds the {batches} driven batches"
        ));
    }
    for (idx, &held) in holds.iter().enumerate() {
        let j = idx as u64 + 1;
        let expected = j <= seq;
        if held != expected {
            return Err(format!(
                "E(0,{j}) held={held} but recovered seq {seq} implies {expected} — \
                 recovery diverged from the acknowledged prefix"
            ));
        }
    }
    Ok(format!(
        "kb-verify: PASS (recovered seq {seq}/{batches}, {} facts checked)\n",
        holds.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let report = SmokeReport {
            requests: 0,
            rewrite_suspensions: 0,
            rewrite_quanta: 0,
            rewrite_outcome: 0,
            rewrite_matches_dedicated: true,
            rewrite_ms: 0,
            small_latencies_us: vec![1, 2, 3, 4, 100],
            smalls_finished_before_rewrite: 0,
            smalls_correct: 0,
        };
        assert_eq!(report.small_p50_us(), 3);
        assert_eq!(report.small_p99_us(), 100);
    }

    #[test]
    fn pathological_program_parses() {
        let program = pathological_program(3);
        let parsed = tgdkit_logic::parse_program(&program).expect("parses");
        assert!(parsed.tgds().len() >= 13);
    }

    fn kb_server(data_dir: &std::path::Path) -> Server {
        Server::start(ServerConfig {
            scheduler: SchedulerConfig {
                data_dir: Some(data_dir.to_path_buf()),
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("bind")
    }

    #[test]
    fn kb_workload_survives_a_server_restart() {
        let dir =
            std::env::temp_dir().join(format!("tgdkit-serve-kb-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let server = kb_server(&dir);
        let addr = server.addr().to_string();
        run_kb_drive(&addr, "acme", 5).expect("drive");
        run_kb_verify(&addr, "acme", 5).expect("verify while up");
        // Graceful wire shutdown: drains and flushes tenant WALs.
        let client = Client::new(server.addr());
        assert!(matches!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::Ok
        ));
        server.shutdown();

        // A fresh server over the same data dir recovers the store; the
        // verify predicate (seq-implied membership) must still hold, with
        // the full 5-batch prefix intact.
        let server = kb_server(&dir);
        let addr = server.addr().to_string();
        let report = run_kb_verify(&addr, "acme", 5).expect("verify after restart");
        assert!(report.contains("seq 5/5"), "{report}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kb_requests_without_a_data_dir_are_errors() {
        let server = Server::start(ServerConfig::default()).expect("bind");
        let client = Client::new(server.addr());
        match client.request(&kb_smoke_batch("t", 0)).expect("round trip") {
            Response::Error { message } => assert!(message.contains("data dir"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }
}
