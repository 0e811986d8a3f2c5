//! `serve`: an in-process `Server` with the default scheduler (2 workers,
//! 25 ms quantum) and a durable data directory, driven by two closed-loop
//! client threads over four tenants.
//!
//! Each client sends a seeded request stream: ≈55% `Entail`, 25%
//! `KbQuery`, 10% `Batch`, 8% `KbApply` insert, 1% `KbApply` retract and
//! 1% `Rewrite`. Client `c` owns tenants `c` and `c + 2` for knowledge-base
//! requests, so each tenant's KB sees one ordered stream and its answers
//! have an exact shadow; entailment requests go to any tenant. Each tenant
//! KB is transitive closure over a 48-node DAG, preloaded in set-up.
//!
//! Set-up (timed, three times per run, median reported) is server start,
//! each tenant's store open and preload through `KbApply`, and one
//! warm-up pass of the mix. Every response is checked after the measured
//! window against in-process references (`entails_auto`, `entails_batch`,
//! the rewriting), a BFS shadow of each tenant's edges, and gap-free
//! acknowledgement sequence numbers.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tgdkit_chase::{
    entails_auto, entails_auto_cached, entails_batch, ChaseBudget, EntailCache, Entailment,
};
use tgdkit_core::enumerate::{linear_candidates, EnumOptions};
use tgdkit_core::rewrite::{frontier_guarded_to_guarded, RewriteOptions, RewriteOutcome};
use tgdkit_instance::{Elem, Fact};
use tgdkit_logic::{parse_program, parse_tgds, Schema, Tgd, TgdSet};
use tgdkit_serve::smoke::pathological_program;
use tgdkit_serve::{
    Client, Request, Response, RewriteTarget, SchedulerConfig, Server, ServerConfig, WireFact,
    WireStats,
};
use tgdkit_store::{DurableKb, KbConfig};

use crate::chase::RULES as KB_PROGRAM;
use crate::host::Rng;
use crate::report::{Counts, Outcome};
use crate::stats::{fast_rate, fast_time, median, ms, ratio, tail, us};
use crate::trace::Trace;
use crate::Args;

const TENANTS: usize = 4;
const CLIENTS: usize = 2;
const KB_NODES: u32 = 48;
/// Edges per preload batch.
const PRELOAD_BATCH: usize = 8;
/// Edges a retraction removes (at most): eight retracted edges per
/// retraction balance eight single-edge inserts, so the base stays near
/// its preloaded size for the whole run.
const RETRACT_EDGES: usize = 8;
const QUERY_PAIRS: usize = 8;
/// Entail-pool problems each tenant sees in the warm-up pass.
const WARMUP_ENTAILS: usize = 8;
/// Requests per client in each fixed-count pass of the traced run.
const TRACED_REQUESTS: usize = 1500;
const SETUP_REPS: usize = 3;
/// Recurring entailment problems (the rest of the `Entail` traffic is
/// fresh, so the per-tenant caches both hit and miss).
const ENTAIL_POOL: usize = 32;
/// Branching-chain depths of the `Batch` ontologies.
const BATCH_LEVELS: [usize; 2] = [2, 3];
const BATCH_SIZE: usize = 24;
/// Recurring candidate pools: every `Batch` request carries one of them.
const BATCH_POOLS: usize = 8;
/// The E8 frontier-guarded input, rewritten into guarded tgds.
const REWRITE_PROGRAM: &str = "R(x,y) -> P(x). R(x,y), P(x) -> T(x).";

/// Request classes for latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `Entail` and `KbQuery`.
    Read,
    /// `Batch` and `Rewrite`.
    Batch,
    /// `KbApply`.
    Write,
}

/// One request of a client's stream, as the harness knows it.
#[derive(Debug, Clone)]
enum Op {
    Entail {
        tenant: usize,
        program: String,
        candidate: String,
    },
    Batch {
        tenant: usize,
        pool: usize,
    },
    Rewrite {
        tenant: usize,
    },
    Apply {
        tenant: usize,
        inserts: Vec<(u32, u32)>,
        retracts: Vec<(u32, u32)>,
    },
    Query {
        tenant: usize,
        pairs: Vec<(u32, u32)>,
    },
}

impl Op {
    fn class(&self) -> Class {
        match self {
            Op::Entail { .. } | Op::Query { .. } => Class::Read,
            Op::Batch { .. } | Op::Rewrite { .. } => Class::Batch,
            Op::Apply { .. } => Class::Write,
        }
    }

    fn request(&self, shared: &Shared) -> Request {
        let budget = ChaseBudget::default();
        let wire = |edges: &[(u32, u32)]| -> Vec<WireFact> {
            edges
                .iter()
                .map(|&(u, v)| WireFact {
                    pred: "E".into(),
                    args: vec![u, v],
                })
                .collect()
        };
        match self {
            Op::Entail {
                tenant,
                program,
                candidate,
            } => Request::Entail {
                tenant: tenant_name(*tenant),
                budget,
                program: program.clone(),
                candidate: candidate.clone(),
            },
            Op::Batch { tenant, pool } => {
                let (level, candidates) = &shared.batch_pools[*pool];
                Request::Batch {
                    tenant: tenant_name(*tenant),
                    budget,
                    program: shared.batch_programs[*level].clone(),
                    candidates: candidates.clone(),
                }
            }
            Op::Rewrite { tenant } => Request::Rewrite {
                tenant: tenant_name(*tenant),
                budget,
                program: REWRITE_PROGRAM.into(),
                target: RewriteTarget::Guarded,
            },
            Op::Apply {
                tenant,
                inserts,
                retracts,
            } => Request::KbApply {
                tenant: tenant_name(*tenant),
                program: KB_PROGRAM.into(),
                inserts: wire(inserts),
                retracts: wire(retracts),
            },
            Op::Query { tenant, pairs } => Request::KbQuery {
                tenant: tenant_name(*tenant),
                program: KB_PROGRAM.into(),
                facts: wire(pairs),
            },
        }
    }
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

/// Inputs shared by both clients, generated from the seed.
struct Shared {
    entail_pool: Vec<(String, String)>,
    batch_programs: Vec<String>,
    /// Recurring `Batch` inputs: `(level, candidates text)`, each a seeded
    /// sample of the level's Algorithm-1 candidate space.
    batch_pools: Vec<(usize, String)>,
}

/// A small stratified ontology (rules only lead from `A_i` to `A_j` with
/// `i < j`, so every chase terminates) and a candidate over its schema.
fn entail_problem(rng: &mut Rng) -> (String, String) {
    let mut program = String::new();
    let pair = |rng: &mut Rng| {
        let i = rng.below(5);
        (i, i + 1 + rng.below(5 - i))
    };
    for _ in 0..4 {
        let (i, j) = pair(rng);
        let k = rng.below(2);
        let rule = match rng.below(3) {
            0 => format!("A{i}(x) -> A{j}(x). "),
            1 => format!("R{k}(x,y), A{i}(x) -> A{j}(y). "),
            _ => format!("A{i}(x) -> exists y : R{k}(x,y), A{j}(y). "),
        };
        program.push_str(&rule);
    }
    let (i, j) = pair(rng);
    let candidate = match rng.below(2) {
        0 => format!("A{i}(x) -> A{j}(x)."),
        _ => format!("A{i}(x) -> exists y : R{}(x,y).", rng.below(2)),
    };
    (program, candidate)
}

fn sample_batch(shared_candidates: &[String], rng: &mut Rng) -> String {
    let mut picked: Vec<usize> = (0..shared_candidates.len()).collect();
    rng.shuffle(&mut picked);
    picked.truncate(BATCH_SIZE);
    picked.sort_unstable();
    picked
        .iter()
        .map(|&i| shared_candidates[i].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

fn shared_inputs(seed: u64) -> Shared {
    let mut rng = Rng::new(seed ^ 0x5e4e);
    let entail_pool = (0..ENTAIL_POOL).map(|_| entail_problem(&mut rng)).collect();
    let batch_programs: Vec<String> = BATCH_LEVELS
        .iter()
        .map(|&l| pathological_program(l))
        .collect();
    let batch_candidates: Vec<Vec<String>> = batch_programs
        .iter()
        .map(|text| {
            let set = parse_set(text);
            let (n, m) = set.profile();
            let pool = linear_candidates(set.schema(), n, m, &EnumOptions::default());
            pool.tgds
                .iter()
                .map(|t| format!("{}.", t.display(set.schema())))
                .collect()
        })
        .collect();
    let batch_pools = (0..BATCH_POOLS)
        .map(|i| {
            let level = i % BATCH_LEVELS.len();
            (level, sample_batch(&batch_candidates[level], &mut rng))
        })
        .collect();
    Shared {
        entail_pool,
        batch_programs,
        batch_pools,
    }
}

fn parse_set(text: &str) -> TgdSet {
    let parsed = parse_program(text).expect("workload program parses");
    let tgds = parsed.tgds();
    TgdSet::new(parsed.schema, tgds).expect("workload program is a valid tgd set")
}

/// One client's seeded request stream. It tracks the base edges of the
/// tenants it owns, so retractions name edges that exist.
struct Stream {
    rng: Rng,
    owned: [usize; 2],
    base: [BTreeSet<(u32, u32)>; 2],
}

impl Stream {
    fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            owned: [client, client + CLIENTS],
            base: [BTreeSet::new(), BTreeSet::new()],
        }
    }

    /// The preload: a DAG with one or two forward edges per node, applied
    /// in batches of `PRELOAD_BATCH` edges to each owned tenant.
    fn preload(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for slot in 0..2 {
            let mut edges = Vec::new();
            for u in 0..KB_NODES - 1 {
                for _ in 0..1 + self.rng.below(2) {
                    let v = u + 1 + self.rng.below(u64::from(KB_NODES - u - 1)) as u32;
                    if self.base[slot].insert((u, v)) {
                        edges.push((u, v));
                    }
                }
            }
            for chunk in edges.chunks(PRELOAD_BATCH) {
                ops.push(Op::Apply {
                    tenant: self.owned[slot],
                    inserts: chunk.to_vec(),
                    retracts: Vec::new(),
                });
            }
        }
        ops
    }

    /// The warm-up pass: for each owned tenant, the same mix of every
    /// request kind whatever the seed (one rewrite, each recurring batch,
    /// pool entailments, queries and inserts), so set-up does the same
    /// work on every seed.
    fn warmup(&mut self, shared: &Shared) -> Vec<Op> {
        let mut ops = Vec::new();
        for slot in 0..2 {
            let tenant = self.owned[slot];
            ops.push(Op::Rewrite { tenant });
            for pool in 0..BATCH_POOLS {
                ops.push(Op::Batch { tenant, pool });
            }
            for i in 0..WARMUP_ENTAILS {
                let (program, candidate) =
                    shared.entail_pool[(tenant * WARMUP_ENTAILS + i) % ENTAIL_POOL].clone();
                ops.push(Op::Entail {
                    tenant,
                    program,
                    candidate,
                });
            }
            for _ in 0..2 {
                ops.push(self.query(slot));
                ops.push(self.insert(slot));
            }
        }
        ops
    }

    fn query(&mut self, slot: usize) -> Op {
        Op::Query {
            tenant: self.owned[slot],
            pairs: (0..QUERY_PAIRS)
                .map(|_| {
                    let u = self.rng.below(u64::from(KB_NODES)) as u32;
                    (u, self.rng.below(u64::from(KB_NODES)) as u32)
                })
                .collect(),
        }
    }

    fn insert(&mut self, slot: usize) -> Op {
        let u = self.rng.below(u64::from(KB_NODES - 1)) as u32;
        let v = u + 1 + self.rng.below(u64::from(KB_NODES - u - 1)) as u32;
        self.base[slot].insert((u, v));
        Op::Apply {
            tenant: self.owned[slot],
            inserts: vec![(u, v)],
            retracts: Vec::new(),
        }
    }

    fn next(&mut self, shared: &Shared) -> Op {
        let roll = self.rng.below(100);
        let any_tenant = self.rng.below(TENANTS as u64) as usize;
        let slot = self.rng.below(2) as usize;
        let tenant = self.owned[slot];
        match roll {
            0..=54 => {
                let (program, candidate) = if self.rng.below(2) == 0 {
                    shared.entail_pool[self.rng.below(ENTAIL_POOL as u64) as usize].clone()
                } else {
                    entail_problem(&mut self.rng)
                };
                Op::Entail {
                    tenant: any_tenant,
                    program,
                    candidate,
                }
            }
            55..=79 => self.query(slot),
            80..=89 => Op::Batch {
                tenant: any_tenant,
                pool: self.rng.below(BATCH_POOLS as u64) as usize,
            },
            90..=97 => self.insert(slot),
            98 => {
                let mut present: Vec<(u32, u32)> = self.base[slot].iter().copied().collect();
                self.rng.shuffle(&mut present);
                present.truncate(RETRACT_EDGES);
                for e in &present {
                    self.base[slot].remove(e);
                }
                Op::Apply {
                    tenant,
                    inserts: Vec::new(),
                    retracts: present,
                }
            }
            _ => Op::Rewrite { tenant: any_tenant },
        }
    }
}

/// One answered (or failed) request. The request itself is not kept: a
/// client's stream does not depend on responses, so a fresh [`Source`]
/// with the same seed regenerates it when the record is checked.
struct Record {
    class: Class,
    response: Result<Response, String>,
    start: Duration,
    latency: Duration,
}

impl Record {
    fn wire_stats(&self) -> WireStats {
        match &self.response {
            Ok(Response::Verdicts { stats, .. }) | Ok(Response::Rewrite { stats, .. }) => *stats,
            _ => WireStats::default(),
        }
    }
}

/// A client's requests in order: the set-up requests (preload, then
/// warm-up), then its stream.
struct Source {
    stream: Stream,
    /// Set-up requests still to send, last first.
    pending: Vec<Op>,
}

impl Source {
    fn new(seed: u64, client: usize, shared: &Shared) -> Source {
        let mut stream = Stream::new(seed, client);
        let mut pending = stream.preload();
        pending.extend(stream.warmup(shared));
        pending.reverse();
        Source { stream, pending }
    }

    fn in_setup(&self) -> bool {
        !self.pending.is_empty()
    }

    fn next(&mut self, shared: &Shared) -> Op {
        self.pending
            .pop()
            .unwrap_or_else(|| self.stream.next(shared))
    }
}

/// When a drive stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the end of the set-up requests.
    SetUp,
    /// After this long (the measured window).
    After(Duration),
    /// After this many stream requests per client.
    Count(usize),
}

/// Sends each client's next requests concurrently, closed loop, until
/// `stop`. Returns per-client records.
fn drive(
    client: Client,
    shared: &Shared,
    sources: &mut [Source],
    stop: Stop,
    epoch: Instant,
) -> Vec<Vec<Record>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .map(|source| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let started = Instant::now();
                    let mut sent = 0usize;
                    loop {
                        let done = match stop {
                            Stop::SetUp => !source.in_setup(),
                            Stop::After(d) => started.elapsed() >= d,
                            Stop::Count(n) => sent >= n,
                        };
                        if done {
                            break;
                        }
                        sent += 1;
                        let op = source.next(shared);
                        let request = op.request(shared);
                        let start = epoch.elapsed();
                        let response = client.request(&request).map_err(|e| e.to_string());
                        let latency = epoch.elapsed() - start;
                        records.push(Record {
                            class: op.class(),
                            response,
                            start,
                            latency,
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A started server on a fresh data directory, with its tenants preloaded
/// and warmed up.
struct Live {
    server: Server,
    dir: PathBuf,
    sources: Vec<Source>,
    setup_records: Vec<Vec<Record>>,
}

fn set_up(args: &Args, shared: &Shared, dir: PathBuf, epoch: Instant) -> Live {
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        scheduler: SchedulerConfig {
            data_dir: Some(dir.clone()),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts on a loopback port");
    let client = Client::new(server.addr());
    let mut sources: Vec<Source> = (0..CLIENTS)
        .map(|c| Source::new(args.seed, c, shared))
        .collect();
    let setup_records = drive(client, shared, &mut sources, Stop::SetUp, epoch);
    Live {
        server,
        dir,
        sources,
        setup_records,
    }
}

fn tear_down(live: Live) {
    live.server.shutdown();
    let _ = std::fs::remove_dir_all(&live.dir);
}

/// Reference answers, computed in-process. Recurring inputs (the entail
/// pool, the recurring batches, the rewrite) are memoized; fresh ones are
/// unique and computed on each check.
#[derive(Default)]
struct References {
    entail: HashMap<(String, String), Entailment>,
    batch: HashMap<usize, Vec<Entailment>>,
    rewrite: Option<Vec<String>>,
}

impl References {
    fn entail(&mut self, shared: &Shared, program: &str, candidate: &str) -> Entailment {
        let compute = || {
            let (schema, sigma, cands) = parse_with_candidates(program, candidate);
            entails_auto(&schema, &sigma, &cands[0], ChaseBudget::default())
        };
        let recurring = shared
            .entail_pool
            .iter()
            .any(|(p, c)| p == program && c == candidate);
        if !recurring {
            return compute();
        }
        *self
            .entail
            .entry((program.to_string(), candidate.to_string()))
            .or_insert_with(compute)
    }

    fn batch(&mut self, shared: &Shared, pool: usize) -> &[Entailment] {
        self.batch.entry(pool).or_insert_with(|| {
            let (level, candidates) = &shared.batch_pools[pool];
            let (schema, sigma, cands) =
                parse_with_candidates(&shared.batch_programs[*level], candidates);
            entails_batch(&schema, &sigma, &cands, ChaseBudget::default(), None).0
        })
    }

    fn rewrite(&mut self) -> &[String] {
        self.rewrite.get_or_insert_with(|| {
            let set = parse_set(REWRITE_PROGRAM);
            let opts = RewriteOptions {
                budget: ChaseBudget::default(),
                ..RewriteOptions::default()
            };
            match frontier_guarded_to_guarded(&set, &opts) {
                RewriteOutcome::Rewritten(tgds) => tgds
                    .iter()
                    .map(|t| format!("{}.", t.display(set.schema())))
                    .collect(),
                other => vec![format!("reference did not rewrite: {other:?}")],
            }
        })
    }
}

/// Parses an ontology and candidate text the way the server does: the
/// program through `parse_program`, the candidates against its schema.
fn parse_with_candidates(program: &str, candidates: &str) -> (Schema, Vec<Tgd>, Vec<Tgd>) {
    let parsed = parse_program(program).expect("workload program parses");
    let sigma = parsed.tgds();
    let mut schema = parsed.schema;
    let cands = parse_tgds(&mut schema, candidates).expect("workload candidates parse");
    (schema, sigma, cands)
}

/// Pairs `(u, v)` with `v` reachable from `u` by one or more edges.
fn closure(edges: &BTreeSet<(u32, u32)>) -> BTreeSet<(u32, u32)> {
    let list: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    crate::chase::reachability(KB_NODES as usize, &list)
        .into_iter()
        .map(|(u, v)| (u as u32, v as u32))
        .collect()
}

/// Per-tenant KB shadow for checking: base edges and acknowledged batches.
#[derive(Default, Clone)]
struct KbShadow {
    base: BTreeSet<(u32, u32)>,
    applied: u64,
}

/// Checks records against the references and the KB shadows, in each
/// client's order, regenerating each record's request from a source with
/// the same seed. Each tenant's KB requests all come from its owning
/// client, so the shadows see them in served order.
struct Checker {
    sources: Vec<Source>,
    shadows: Vec<KbShadow>,
}

impl Checker {
    fn new(seed: u64, shared: &Shared) -> Checker {
        Checker {
            sources: (0..CLIENTS).map(|c| Source::new(seed, c, shared)).collect(),
            shadows: vec![KbShadow::default(); TENANTS],
        }
    }

    /// Checks the next records of every client (set-up records first,
    /// then window records, in separate calls) and returns their requests.
    fn check(
        &mut self,
        shared: &Shared,
        refs: &mut References,
        logs: &[Vec<Record>],
        out: &mut Outcome,
        keep_ops: bool,
    ) -> Vec<Vec<Op>> {
        let mut kept = Vec::new();
        for (source, log) in self.sources.iter_mut().zip(logs) {
            let mut ops = Vec::new();
            for r in log {
                let op = source.next(shared);
                check_record(shared, refs, &mut self.shadows, &op, r, out);
                if keep_ops {
                    ops.push(op);
                }
            }
            kept.push(ops);
        }
        kept
    }
}

fn check_record(
    shared: &Shared,
    refs: &mut References,
    shadows: &mut [KbShadow],
    op: &Op,
    r: &Record,
    out: &mut Outcome,
) {
    let response = match &r.response {
        Ok(resp) => resp,
        Err(e) => {
            out.check(false, || format!("{op:?}: transport error {e}"));
            return;
        }
    };
    match (op, response) {
        (
            Op::Entail {
                program, candidate, ..
            },
            Response::Verdicts { verdicts, .. },
        ) => {
            let want = refs.entail(shared, program, candidate);
            out.check(verdicts.as_slice() == [want], || {
                format!("Entail {candidate:?} under {program:?}: got {verdicts:?}, want {want:?}")
            });
        }
        (Op::Batch { pool, .. }, Response::Verdicts { verdicts, .. }) => {
            let want = refs.batch(shared, *pool);
            out.check(verdicts.as_slice() == want, || {
                format!("Batch pool {pool}: verdicts differ from entails_batch")
            });
        }
        (
            Op::Rewrite { .. },
            Response::Rewrite {
                outcome, rewritten, ..
            },
        ) => {
            let want = refs.rewrite();
            out.check(*outcome == 0 && rewritten.as_slice() == want, || {
                format!("Rewrite: got outcome {outcome} {rewritten:?}, want {want:?}")
            });
        }
        (
            Op::Apply {
                tenant,
                inserts,
                retracts,
            },
            Response::Kb { seq, .. },
        ) => {
            let shadow = &mut shadows[*tenant];
            shadow.applied += 1;
            for e in retracts {
                shadow.base.remove(e);
            }
            shadow.base.extend(inserts.iter().copied());
            let want = shadow.applied;
            out.check(*seq == want, || {
                format!("KbApply t{tenant}: acknowledged seq {seq}, expected {want}")
            });
        }
        (Op::Query { tenant, pairs }, Response::Kb { seq, holds, .. }) => {
            let shadow = &shadows[*tenant];
            let reach = closure(&shadow.base);
            let want: Vec<bool> = pairs.iter().map(|p| reach.contains(p)).collect();
            out.check(*seq == shadow.applied && *holds == want, || {
                format!(
                    "KbQuery t{tenant}: seq {seq} (want {}), holds {holds:?} (want {want:?})",
                    shadow.applied
                )
            });
        }
        (op, resp) => out.check(false, || format!("{op:?}: unexpected response {resp:?}")),
    }
}

/// Latency summary of one measured window.
struct Window {
    requests_per_s: f64,
    per_slice: Vec<usize>,
    latencies: [Vec<f64>; 3],
}

/// Throughput is the fast quartile over the window's full one-second
/// slices of the requests completed in each, so a stall or a contended
/// stretch of the host moves some slices, not the result; windows shorter
/// than three slices use the overall rate.
fn window(records: &[Vec<Record>], start: Duration, end: Duration) -> Window {
    let mut latencies: [Vec<f64>; 3] = Default::default();
    let full = (end - start).as_secs() as usize;
    let mut per_slice = vec![0usize; full];
    for r in records.iter().flatten() {
        let slot = match r.class {
            Class::Read => 0,
            Class::Batch => 1,
            Class::Write => 2,
        };
        latencies[slot].push(ms(r.latency));
        let done = (r.start + r.latency).saturating_sub(start).as_secs() as usize;
        if done < full {
            per_slice[done] += 1;
        }
    }
    let n: usize = records.iter().map(Vec::len).sum();
    let requests_per_s = if full >= 3 {
        let counts: Vec<f64> = per_slice.iter().map(|&c| c as f64).collect();
        fast_rate(&counts)
    } else {
        n as f64 / (end - start).as_secs_f64()
    };
    Window {
        requests_per_s,
        per_slice,
        latencies,
    }
}

const CLASS_NAMES: [&str; 3] = ["read", "batch", "write"];

fn window_note(w: &Window) -> String {
    let mut parts = vec![format!(
        "requests_per_s {:.1} (one-second slices {:?})",
        w.requests_per_s, w.per_slice
    )];
    for (name, lat) in CLASS_NAMES.iter().zip(&w.latencies) {
        let t = tail(lat);
        parts.push(format!(
            "{name}_p50_ms {:.3} {name}_tail_ms {:.3} (p{} of {} samples)",
            median(lat),
            t.value,
            t.percentile,
            t.samples
        ));
    }
    parts.join(", ")
}

fn data_dir(tag: &str) -> PathBuf {
    crate::run_dir().join(format!("serve-{}-{tag}", std::process::id()))
}

pub fn run(args: &Args, out: &mut Outcome) -> Option<String> {
    let epoch = Instant::now();
    let shared = shared_inputs(args.seed);
    let mut refs = References::default();

    // The measured window runs on the first set-up. The other set-ups
    // follow it, so set-up samples spread over the run.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let started = Instant::now();
    let mut live = set_up(args, &shared, data_dir("setup0"), epoch);
    setups.push(started.elapsed().as_secs_f64());
    let mut checker = Checker::new(args.seed, &shared);
    checker.check(&shared, &mut refs, &live.setup_records, out, false);

    // The window: the run's time, or a fixed count when traced (so the
    // traced passes below compare like with like).
    let traced_count = if args.small {
        TRACED_REQUESTS / 8
    } else {
        TRACED_REQUESTS
    };
    let stop = if args.trace {
        Stop::Count(traced_count)
    } else {
        Stop::After(Duration::from_secs_f64(args.seconds))
    };
    let client = Client::new(live.server.addr());
    let window_start = epoch.elapsed();
    let records = drive(client, &shared, &mut live.sources, stop, epoch);
    let untraced = window(&records, window_start, epoch.elapsed());
    checker.check(&shared, &mut refs, &records, out, false);
    drop(records);
    out.set("work_per_s", untraced.requests_per_s);
    out.note(format!("serve window: {}", window_note(&untraced)));
    out.note(format!(
        "serve: data dir {} (inside the checkout)",
        live.dir.display()
    ));
    tear_down(live);
    if !args.trace {
        for rep in 1..SETUP_REPS {
            let started = Instant::now();
            let live = set_up(args, &shared, data_dir(&format!("setup{rep}")), epoch);
            setups.push(started.elapsed().as_secs_f64());
            Checker::new(args.seed, &shared).check(
                &shared,
                &mut refs,
                &live.setup_records,
                out,
                false,
            );
            tear_down(live);
        }
        out.set("setup_s", fast_time(&setups));
        out.note(format!("serve: set-ups {setups:.4?} s"));
        return None;
    }

    let first = traced_pass(
        args,
        &shared,
        &mut refs,
        traced_count,
        epoch,
        "traced1",
        out,
    );
    let second = traced_pass(
        args,
        &shared,
        &mut refs,
        traced_count,
        epoch,
        "traced2",
        out,
    );
    let t = out.report_counts(
        "serve",
        &["window".to_string()],
        &[first.counts],
        &[second.counts],
        NOT_CLAIMABLE,
    );
    let get = |name| t.get(name).copied().unwrap_or_default();
    out.set(
        "serve.suspend_ratio",
        ratio(get("serve.suspensions"), get("serve.quanta")),
    );
    let hits = get("chase.cache.hits");
    out.set(
        "chase.cache.hit_ratio",
        ratio(hits, hits + get("chase.cache.misses")),
    );
    for (name, a) in &first.times {
        let b = second
            .times
            .iter()
            .find(|(n, _)| n == name)
            .map_or(*a, |(_, v)| *v);
        out.set(name, (a + b) / 2.0);
    }
    let traced_rps = (first.window.requests_per_s + second.window.requests_per_s) / 2.0;
    out.set("serve.requests_per_s", traced_rps);
    for (k, name) in CLASS_NAMES.iter().enumerate() {
        let mut both = first.window.latencies[k].clone();
        both.extend_from_slice(&second.window.latencies[k]);
        let (p50, tail_ms) = match *name {
            "read" => ("serve.read_p50_ms", "serve.read_tail_ms"),
            "batch" => ("serve.batch_p50_ms", "serve.batch_tail_ms"),
            _ => ("serve.write_p50_ms", "serve.write_tail_ms"),
        };
        out.set(p50, median(&both));
        out.set(tail_ms, tail(&both).value);
    }
    out.set(
        "trace.overhead_pct",
        (untraced.requests_per_s / traced_rps - 1.0) * 100.0,
    );
    out.note(format!(
        "serve traced pass 1: {}",
        window_note(&first.window)
    ));
    out.note(format!(
        "serve traced pass 2: {}",
        window_note(&second.window)
    ));
    let mut trace = first.trace;
    trace.absorb(second.trace);
    Some(trace.to_tsv())
}

/// Counts that depend on how the two clients and two workers interleave.
const NOT_CLAIMABLE: &[&str] = &[
    "serve.quanta",
    "serve.suspensions",
    "chase.cache.hits",
    "chase.cache.misses",
];

struct TracedPass {
    trace: Trace,
    window: Window,
    counts: Counts,
    times: Vec<(&'static str, f64)>,
}

/// A fresh set-up, a fixed-count traced window, then an in-process replay
/// of every request in start order that times each layer's public
/// functions on the same inputs.
fn traced_pass(
    args: &Args,
    shared: &Shared,
    refs: &mut References,
    count: usize,
    epoch: Instant,
    tag: &str,
    out: &mut Outcome,
) -> TracedPass {
    let mut live = set_up(args, shared, data_dir(tag), epoch);
    let mut checker = Checker::new(args.seed, shared);
    let setup_ops = checker.check(shared, refs, &live.setup_records, out, true);
    let client = Client::new(live.server.addr());
    let window_start = epoch.elapsed();
    let records = drive(client, shared, &mut live.sources, Stop::Count(count), epoch);
    let w = window(&records, window_start, epoch.elapsed());
    let ops = checker.check(shared, refs, &records, out, true);
    let setup_records = std::mem::take(&mut live.setup_records);
    tear_down(live);

    // Replay: set-up requests first (they built the tenant state; their
    // spans are dropped), then the window, each in start order across
    // clients.
    let shadow_dir = data_dir(&format!("{tag}-shadow"));
    let _ = std::fs::remove_dir_all(&shadow_dir);
    let mut replay = Replay::new(&shadow_dir);
    let mut scratch = Trace::new(epoch);
    for (op, r) in in_start_order(&setup_ops, &setup_records) {
        replay.request(shared, op, r, &mut scratch);
    }
    let mut trace = Trace::new(epoch);
    let mut wire = WireStats::default();
    for (op, r) in in_start_order(&ops, &records) {
        replay.request(shared, op, r, &mut trace);
        let s = r.wire_stats();
        wire.quanta += s.quanta;
        wire.suspensions += s.suspensions;
        wire.cache_hits += s.cache_hits;
        wire.cache_misses += s.cache_misses;
    }
    let store = replay.finish(&shadow_dir);
    let med_us = |name| {
        median(
            &trace
                .durations(name)
                .into_iter()
                .map(us)
                .collect::<Vec<_>>(),
        )
    };
    let med_ms = |name| {
        median(
            &trace
                .durations(name)
                .into_iter()
                .map(ms)
                .collect::<Vec<_>>(),
        )
    };
    let times = vec![
        ("serve.proto.encode.us", med_us("serve.proto.encode")),
        ("serve.proto.decode.us", med_us("serve.proto.decode")),
        ("logic.parse_program.us", med_us("logic.parse_program")),
        ("chase.entail.us", med_us("chase.entail")),
        ("chase.batch.ms", med_ms("chase.batch")),
        (
            "store.open.ms",
            median(&store.3.into_iter().map(ms).collect::<Vec<_>>()),
        ),
        ("store.fold.ms", med_ms("store.fold")),
        ("store.rechase.ms", med_ms("store.rechase")),
        (
            "serve.overhead.ms",
            median(
                &trace
                    .self_times("serve.request")
                    .into_iter()
                    .map(ms)
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    let counts = vec![
        ("serve.quanta", wire.quanta),
        ("serve.suspensions", wire.suspensions),
        ("chase.cache.hits", wire.cache_hits),
        ("chase.cache.misses", wire.cache_misses),
        ("store.wal_appends", store.0),
        ("store.compactions", store.1),
        ("store.rechases", store.2),
    ];
    TracedPass {
        trace,
        window: w,
        counts,
        times,
    }
}

/// Requests paired with their records, in start order across clients.
fn in_start_order<'a>(ops: &'a [Vec<Op>], records: &'a [Vec<Record>]) -> Vec<(&'a Op, &'a Record)> {
    let mut pairs: Vec<(&Op, &Record)> =
        ops.iter().flatten().zip(records.iter().flatten()).collect();
    pairs.sort_by_key(|(_, r)| r.start);
    pairs
}

/// In-process replay of served requests: times the protocol codec, the
/// program parser, the entailment engine and a shadow durable store fed
/// the same batches.
struct Replay {
    shadow_dir: PathBuf,
    stores: Vec<Option<DurableKb>>,
    caches: Vec<EntailCache>,
    /// `DurableKb::open` times of the shadow stores.
    opens: Vec<Duration>,
}

impl Replay {
    fn new(shadow_dir: &Path) -> Replay {
        Replay {
            shadow_dir: shadow_dir.to_path_buf(),
            stores: (0..TENANTS).map(|_| None).collect(),
            caches: (0..TENANTS).map(|_| EntailCache::new()).collect(),
            opens: Vec::new(),
        }
    }

    /// Replays one record. The client latency becomes a `serve.request`
    /// span whose self time (latency minus the replayed layer times) is
    /// the serving overhead: connect, connection thread, queueing and
    /// frame I/O.
    fn request(&mut self, shared: &Shared, op: &Op, r: &Record, trace: &mut Trace) {
        let Ok(response) = &r.response else { return };
        let parent = Some(trace.push("serve.request", None, r.start, r.start + r.latency));
        let request = op.request(shared);
        let (frames, _) = trace.span("serve.proto.encode", parent, || {
            (request.to_frame(), response.to_frame())
        });
        trace.span("serve.proto.decode", parent, || {
            let req = Request::from_frame(&frames.0).expect("request frame decodes");
            let resp = Response::from_frame(&frames.1).expect("response frame decodes");
            std::hint::black_box((req, resp));
        });
        let program = match &request {
            Request::Entail { program, .. }
            | Request::Batch { program, .. }
            | Request::Rewrite { program, .. }
            | Request::KbApply { program, .. }
            | Request::KbQuery { program, .. } => program.as_str(),
            Request::Stats | Request::Shutdown => "",
        };
        trace.span("logic.parse_program", parent, || {
            std::hint::black_box(parse_program(program).expect("workload program parses"))
        });
        match op {
            Op::Entail {
                tenant,
                program,
                candidate,
            } => {
                let (schema, sigma, cands) = parse_with_candidates(program, candidate);
                let cache = &self.caches[*tenant];
                trace.span("chase.entail", parent, || {
                    entails_auto_cached(&schema, &sigma, &cands[0], ChaseBudget::default(), cache)
                });
            }
            Op::Batch { tenant, pool } => {
                let (level, candidates) = &shared.batch_pools[*pool];
                let (schema, sigma, cands) =
                    parse_with_candidates(&shared.batch_programs[*level], candidates);
                let cache = &self.caches[*tenant];
                trace.span("chase.batch", parent, || {
                    entails_batch(&schema, &sigma, &cands, ChaseBudget::default(), Some(cache))
                });
            }
            Op::Rewrite { .. } => {
                let set = parse_set(REWRITE_PROGRAM);
                trace.span("core.rewrite", parent, || {
                    frontier_guarded_to_guarded(&set, &RewriteOptions::default())
                });
            }
            Op::Apply {
                tenant,
                inserts,
                retracts,
            } => {
                let kb = self.store(*tenant);
                let pred = kb.schema().pred_id("E").expect("E is in the KB schema");
                let facts = |edges: &[(u32, u32)]| -> Vec<Fact> {
                    edges
                        .iter()
                        .map(|&(u, v)| Fact::new(pred, vec![Elem(u), Elem(v)]))
                        .collect()
                };
                let (ins, ret) = (facts(inserts), facts(retracts));
                let name = if ret.is_empty() {
                    "store.fold"
                } else {
                    "store.rechase"
                };
                let (applied, _) = trace.span(name, parent, || kb.apply(&ins, &ret));
                applied.expect("shadow store applies the served batch");
            }
            Op::Query { tenant, pairs } => {
                let kb = self.store(*tenant);
                let pred = kb.schema().pred_id("E").expect("E is in the KB schema");
                trace.span("store.query", parent, || {
                    pairs
                        .iter()
                        .filter(|&&(u, v)| kb.holds(pred, &[Elem(u), Elem(v)]))
                        .count()
                });
            }
        }
    }

    fn store(&mut self, tenant: usize) -> &mut DurableKb {
        if self.stores[tenant].is_none() {
            let dir = self.shadow_dir.join(tenant_name(tenant));
            let set = parse_set(KB_PROGRAM);
            let started = Instant::now();
            let opened = DurableKb::open(&dir, &set, KbConfig::default());
            self.opens.push(started.elapsed());
            self.stores[tenant] = Some(opened.expect("shadow store opens").0);
        }
        self.stores[tenant].as_mut().expect("opened above")
    }

    /// Store counters summed over tenants (`wal appends, compactions,
    /// full re-chases`) and the open times; removes the shadow directory.
    fn finish(self, shadow_dir: &Path) -> (u64, u64, u64, Vec<Duration>) {
        let mut totals = (0, 0, 0, self.opens);
        for kb in self.stores.into_iter().flatten() {
            let s = kb.stats();
            totals.0 += s.wal_appends;
            totals.1 += s.compactions;
            totals.2 += s.full_rechases;
        }
        let _ = std::fs::remove_dir_all(shadow_dir);
        totals
    }
}
