//! Wire protocol of the entailment service.
//!
//! Frames reuse the PR-5 `TGCK` discipline verbatim — magic · version ·
//! kind · length · payload · FNV-1a-64 checksum — via
//! [`tgdkit_chase::checkpoint::seal`] / [`open`], so a request frame is
//! validated by exactly the code paths the checkpoint tests already cover.
//! Request kinds live at `0x10..=0x1F` and response kinds at `0x20..=0x2F`,
//! disjoint from the checkpoint kinds (`1..=3`), so a checkpoint blob can
//! never be replayed at the server as a request (and vice versa).
//!
//! Payloads are encoded with the little-endian
//! [`CheckpointWriter`]/[`CheckpointReader`] primitives. Ontologies and
//! candidates travel as program text (the parser's round-trip format): the
//! server parses them against a fresh schema per request, which keeps the
//! wire format stable under internal representation changes and makes every
//! request self-contained — nothing survives between requests except the
//! per-tenant cache.

use std::io::{Read, Write};

use tgdkit_chase::checkpoint::{open, seal, CheckpointReader, CheckpointWriter};
use tgdkit_chase::{ChaseBudget, CheckpointError, Entailment};
use tgdkit_core::RewriteTarget;

/// Request frame kind: single-candidate entailment.
pub const REQ_ENTAIL: u8 = 0x10;
/// Request frame kind: batch entailment over many candidates.
pub const REQ_BATCH: u8 = 0x11;
/// Request frame kind: rewriting (Algorithm 1 / Algorithm 2).
pub const REQ_REWRITE: u8 = 0x12;
/// Request frame kind: durable knowledge-base batch (inserts/retracts).
pub const REQ_KB_APPLY: u8 = 0x13;
/// Request frame kind: durable knowledge-base point queries.
pub const REQ_KB_QUERY: u8 = 0x14;
/// Request frame kind: server/tenant stats snapshot.
pub const REQ_STATS: u8 = 0x18;
/// Request frame kind: orderly shutdown.
pub const REQ_SHUTDOWN: u8 = 0x1F;
/// Response frame kind: entailment verdicts.
pub const RESP_VERDICTS: u8 = 0x20;
/// Response frame kind: rewrite outcome.
pub const RESP_REWRITE: u8 = 0x21;
/// Response frame kind: request-level failure.
pub const RESP_ERROR: u8 = 0x22;
/// Response frame kind: knowledge-base acknowledgement / answers.
pub const RESP_KB: u8 = 0x23;
/// Response frame kind: stats snapshot.
pub const RESP_STATS: u8 = 0x28;
/// Response frame kind: bare acknowledgement.
pub const RESP_OK: u8 = 0x2F;

/// A ground fact on the wire: predicate by name, arguments as raw element
/// ids. Element ids share one flat space with the chase's invented nulls
/// (the store allocates nulls above the current domain maximum), so
/// clients that stick to a stable id range below their first null never
/// collide; the encoding is deterministic either way, which is what the
/// durable store's replay guarantee needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFact {
    /// Predicate name, resolved against the knowledge base's schema.
    pub pred: String,
    /// Argument element ids.
    pub args: Vec<u32>,
}

impl WireFact {
    fn encode(&self, w: &mut CheckpointWriter) {
        w.str(&self.pred);
        w.count(self.args.len());
        for &a in &self.args {
            w.u32(a);
        }
    }

    fn decode(r: &mut CheckpointReader<'_>) -> Result<Self, CheckpointError> {
        let pred = r.str()?;
        let n = r.count(4)?;
        let mut args = Vec::with_capacity(n);
        for _ in 0..n {
            args.push(r.u32()?);
        }
        Ok(WireFact { pred, args })
    }
}

fn encode_facts(w: &mut CheckpointWriter, facts: &[WireFact]) {
    w.count(facts.len());
    for f in facts {
        f.encode(w);
    }
}

fn decode_facts(r: &mut CheckpointReader<'_>) -> Result<Vec<WireFact>, CheckpointError> {
    let n = r.count(1)?;
    let mut facts = Vec::with_capacity(n);
    for _ in 0..n {
        facts.push(WireFact::decode(r)?);
    }
    Ok(facts)
}

/// A client request, decoded from one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Does `sigma` entail the single candidate tgd?
    Entail {
        /// Tenant the request is billed to.
        tenant: String,
        /// Per-request budget (explicit `max_bytes` wins over the server's
        /// `TGDKIT_BUDGET_MAX_BYTES` override — see
        /// [`ChaseBudget::effective_max_bytes`]).
        budget: ChaseBudget,
        /// Ontology as program text.
        program: String,
        /// Candidate tgd as program text.
        candidate: String,
    },
    /// Verdicts for a whole candidate list under one ontology.
    Batch {
        /// Tenant the request is billed to.
        tenant: String,
        /// Per-request budget.
        budget: ChaseBudget,
        /// Ontology as program text.
        program: String,
        /// Candidate tgds as program text.
        candidates: String,
    },
    /// Rewrite the ontology into the target class.
    Rewrite {
        /// Tenant the request is billed to.
        tenant: String,
        /// Per-request budget.
        budget: ChaseBudget,
        /// Ontology as program text.
        program: String,
        /// Target class.
        target: RewriteTarget,
    },
    /// Apply one batch of fact insertions/retractions to the tenant's
    /// durable knowledge base (created on first use under the server's
    /// data directory). The batch is acknowledged only once its WAL frame
    /// is fsynced, so an acknowledged batch survives any crash.
    KbApply {
        /// Tenant whose knowledge base is addressed.
        tenant: String,
        /// Ontology as program text; must match the tgd set the tenant's
        /// store was created with (fingerprint-checked server-side).
        program: String,
        /// Facts added to the base instance.
        inserts: Vec<WireFact>,
        /// Facts removed from the base instance.
        retracts: Vec<WireFact>,
    },
    /// Point queries against the tenant's chased fixpoint.
    KbQuery {
        /// Tenant whose knowledge base is addressed.
        tenant: String,
        /// Ontology as program text (same matching rule as `KbApply`).
        program: String,
        /// Facts to test for membership in the chased fixpoint.
        facts: Vec<WireFact>,
    },
    /// Server-wide stats snapshot.
    Stats,
    /// Orderly shutdown: drains in-flight jobs within the server's drain
    /// deadline and flushes every tenant WAL before stopping.
    Shutdown,
}

/// Per-request execution counters echoed with every verdict/rewrite
/// response, so clients (and the CI smoke gate) can see how the scheduler
/// treated the request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Scheduler quanta the request consumed (1 for an uninterrupted run).
    pub quanta: u64,
    /// Times the request was suspended to a checkpoint and re-queued.
    pub suspensions: u64,
    /// Peak estimated resident bytes during evaluation.
    pub mem_peak_bytes: u64,
    /// Entailment-cache hits while evaluating this request.
    pub cache_hits: u64,
    /// Entailment-cache misses while evaluating this request.
    pub cache_misses: u64,
}

impl WireStats {
    fn encode(&self, w: &mut CheckpointWriter) {
        w.u64(self.quanta);
        w.u64(self.suspensions);
        w.u64(self.mem_peak_bytes);
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
    }

    fn decode(r: &mut CheckpointReader<'_>) -> Result<Self, CheckpointError> {
        Ok(WireStats {
            quanta: r.u64()?,
            suspensions: r.u64()?,
            mem_peak_bytes: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
        })
    }
}

/// Stats snapshot for one tenant (see [`Response::Stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests completed (any verdict, including request-level errors).
    pub completed: u64,
    /// Scheduler quanta consumed across all requests.
    pub quanta: u64,
    /// Suspensions across all requests.
    pub suspensions: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Peak resident bytes the tenant's accountant has observed.
    pub peak_bytes: u64,
    /// Tenant cache hits.
    pub cache_hits: u64,
    /// Tenant cache misses.
    pub cache_misses: u64,
    /// Tenant cache evictions.
    pub cache_evictions: u64,
    /// Lock-poison recoveries on the tenant cache (a contained panic
    /// poisoned a guard; the cache healed instead of aborting).
    pub poison_recoveries: u64,
}

impl TenantSnapshot {
    fn encode(&self, w: &mut CheckpointWriter) {
        w.str(&self.tenant);
        for v in [
            self.admitted,
            self.rejected,
            self.completed,
            self.quanta,
            self.suspensions,
            self.queue_depth,
            self.peak_bytes,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.poison_recoveries,
        ] {
            w.u64(v);
        }
    }

    fn decode(r: &mut CheckpointReader<'_>) -> Result<Self, CheckpointError> {
        Ok(TenantSnapshot {
            tenant: r.str()?,
            admitted: r.u64()?,
            rejected: r.u64()?,
            completed: r.u64()?,
            quanta: r.u64()?,
            suspensions: r.u64()?,
            queue_depth: r.u64()?,
            peak_bytes: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_evictions: r.u64()?,
            poison_recoveries: r.u64()?,
        })
    }
}

/// A server response, decoded from one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Entailment verdicts in candidate order.
    Verdicts {
        /// One verdict per candidate.
        verdicts: Vec<Entailment>,
        /// How the request executed.
        stats: WireStats,
    },
    /// Rewrite outcome. `rewritten` is nonempty exactly for tag
    /// `Rewritten`; members are program-text tgds (parser round-trip
    /// format).
    Rewrite {
        /// `0` rewritten, `1` not rewritable, `2` inconclusive,
        /// `3` cancelled.
        outcome: u8,
        /// The rewriting, one tgd per string.
        rewritten: Vec<String>,
        /// How the request executed.
        stats: WireStats,
    },
    /// The request failed (parse error, admission denied, memory budget
    /// exceeded, ...). The failure is the *request's*: the connection and
    /// the server stay up.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Stats snapshot, one entry per tenant that has been seen.
    Stats {
        /// Per-tenant counters.
        tenants: Vec<TenantSnapshot>,
    },
    /// Knowledge-base acknowledgement (for applies) or answers (for
    /// queries).
    Kb {
        /// Batches acknowledged over the store's lifetime, after this
        /// request.
        seq: u64,
        /// Current snapshot generation.
        generation: u64,
        /// Facts in the chased fixpoint.
        fact_count: u64,
        /// `true` when the apply retracted base facts and re-chased.
        rechased: bool,
        /// `true` when the apply tipped the WAL over the compaction
        /// threshold.
        compacted: bool,
        /// For queries: membership of each requested fact in the chased
        /// fixpoint, in request order (empty for applies).
        holds: Vec<bool>,
    },
    /// Bare acknowledgement (shutdown).
    Ok,
}

/// Rewrite outcome tag: rewritten.
pub const OUTCOME_REWRITTEN: u8 = 0;
/// Rewrite outcome tag: definitively not rewritable.
pub const OUTCOME_NOT_REWRITABLE: u8 = 1;
/// Rewrite outcome tag: search exhausted without an answer.
pub const OUTCOME_INCONCLUSIVE: u8 = 2;
/// Rewrite outcome tag: cancelled.
pub const OUTCOME_CANCELLED: u8 = 3;

fn encode_budget(w: &mut CheckpointWriter, budget: &ChaseBudget) {
    w.count(budget.max_facts);
    w.count(budget.max_rounds);
    w.count(budget.max_bytes);
}

fn decode_budget(r: &mut CheckpointReader<'_>) -> Result<ChaseBudget, CheckpointError> {
    Ok(ChaseBudget {
        max_facts: r.u64()? as usize,
        max_rounds: r.u64()? as usize,
        max_bytes: r.u64()? as usize,
    })
}

fn verdict_to_wire(v: Entailment) -> u8 {
    match v {
        Entailment::Proved => 0,
        Entailment::Disproved => 1,
        Entailment::Unknown => 2,
    }
}

fn decode_bool(v: u8) -> Result<bool, CheckpointError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Malformed("bool")),
    }
}

fn verdict_from_wire(v: u8) -> Result<Entailment, CheckpointError> {
    match v {
        0 => Ok(Entailment::Proved),
        1 => Ok(Entailment::Disproved),
        2 => Ok(Entailment::Unknown),
        _ => Err(CheckpointError::Malformed("verdict")),
    }
}

impl Request {
    /// Seals the request into one wire frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        let kind = match self {
            Request::Entail {
                tenant,
                budget,
                program,
                candidate,
            } => {
                w.str(tenant);
                encode_budget(&mut w, budget);
                w.str(program);
                w.str(candidate);
                REQ_ENTAIL
            }
            Request::Batch {
                tenant,
                budget,
                program,
                candidates,
            } => {
                w.str(tenant);
                encode_budget(&mut w, budget);
                w.str(program);
                w.str(candidates);
                REQ_BATCH
            }
            Request::Rewrite {
                tenant,
                budget,
                program,
                target,
            } => {
                w.str(tenant);
                encode_budget(&mut w, budget);
                w.str(program);
                w.u8((*target).into());
                REQ_REWRITE
            }
            Request::KbApply {
                tenant,
                program,
                inserts,
                retracts,
            } => {
                w.str(tenant);
                w.str(program);
                encode_facts(&mut w, inserts);
                encode_facts(&mut w, retracts);
                REQ_KB_APPLY
            }
            Request::KbQuery {
                tenant,
                program,
                facts,
            } => {
                w.str(tenant);
                w.str(program);
                encode_facts(&mut w, facts);
                REQ_KB_QUERY
            }
            Request::Stats => REQ_STATS,
            Request::Shutdown => REQ_SHUTDOWN,
        };
        seal(kind, &w.into_payload())
    }

    /// Opens and decodes one request frame (checksum and header are
    /// validated before any payload byte is interpreted).
    pub fn from_frame(bytes: &[u8]) -> Result<Request, CheckpointError> {
        let kind = frame_kind(bytes)?;
        let payload = open(bytes, kind)?;
        let mut r = CheckpointReader::new(payload);
        let req = match kind {
            REQ_ENTAIL => Request::Entail {
                tenant: r.str()?,
                budget: decode_budget(&mut r)?,
                program: r.str()?,
                candidate: r.str()?,
            },
            REQ_BATCH => Request::Batch {
                tenant: r.str()?,
                budget: decode_budget(&mut r)?,
                program: r.str()?,
                candidates: r.str()?,
            },
            REQ_REWRITE => Request::Rewrite {
                tenant: r.str()?,
                budget: decode_budget(&mut r)?,
                program: r.str()?,
                target: RewriteTarget::try_from(r.u8()?)?,
            },
            REQ_KB_APPLY => Request::KbApply {
                tenant: r.str()?,
                program: r.str()?,
                inserts: decode_facts(&mut r)?,
                retracts: decode_facts(&mut r)?,
            },
            REQ_KB_QUERY => Request::KbQuery {
                tenant: r.str()?,
                program: r.str()?,
                facts: decode_facts(&mut r)?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            _ => return Err(CheckpointError::Malformed("request kind")),
        };
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing request bytes"));
        }
        Ok(req)
    }
}

impl Response {
    /// Seals the response into one wire frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        let kind = match self {
            Response::Verdicts { verdicts, stats } => {
                w.count(verdicts.len());
                for &v in verdicts {
                    w.u8(verdict_to_wire(v));
                }
                stats.encode(&mut w);
                RESP_VERDICTS
            }
            Response::Rewrite {
                outcome,
                rewritten,
                stats,
            } => {
                w.u8(*outcome);
                w.count(rewritten.len());
                for tgd in rewritten {
                    w.str(tgd);
                }
                stats.encode(&mut w);
                RESP_REWRITE
            }
            Response::Error { message } => {
                w.str(message);
                RESP_ERROR
            }
            Response::Stats { tenants } => {
                w.count(tenants.len());
                for t in tenants {
                    t.encode(&mut w);
                }
                RESP_STATS
            }
            Response::Kb {
                seq,
                generation,
                fact_count,
                rechased,
                compacted,
                holds,
            } => {
                w.u64(*seq);
                w.u64(*generation);
                w.u64(*fact_count);
                w.u8(u8::from(*rechased));
                w.u8(u8::from(*compacted));
                w.count(holds.len());
                for &h in holds {
                    w.u8(u8::from(h));
                }
                RESP_KB
            }
            Response::Ok => RESP_OK,
        };
        seal(kind, &w.into_payload())
    }

    /// Opens and decodes one response frame.
    pub fn from_frame(bytes: &[u8]) -> Result<Response, CheckpointError> {
        let kind = frame_kind(bytes)?;
        let payload = open(bytes, kind)?;
        let mut r = CheckpointReader::new(payload);
        let resp = match kind {
            RESP_VERDICTS => {
                let n = r.count(1)?;
                let mut verdicts = Vec::with_capacity(n);
                for _ in 0..n {
                    verdicts.push(verdict_from_wire(r.u8()?)?);
                }
                Response::Verdicts {
                    verdicts,
                    stats: WireStats::decode(&mut r)?,
                }
            }
            RESP_REWRITE => {
                let outcome = r.u8()?;
                if outcome > OUTCOME_CANCELLED {
                    return Err(CheckpointError::Malformed("rewrite outcome"));
                }
                let n = r.count(1)?;
                let mut rewritten = Vec::with_capacity(n);
                for _ in 0..n {
                    rewritten.push(r.str()?);
                }
                Response::Rewrite {
                    outcome,
                    rewritten,
                    stats: WireStats::decode(&mut r)?,
                }
            }
            RESP_ERROR => Response::Error { message: r.str()? },
            RESP_STATS => {
                let n = r.count(1)?;
                let mut tenants = Vec::with_capacity(n);
                for _ in 0..n {
                    tenants.push(TenantSnapshot::decode(&mut r)?);
                }
                Response::Stats { tenants }
            }
            RESP_KB => {
                let seq = r.u64()?;
                let generation = r.u64()?;
                let fact_count = r.u64()?;
                let rechased = decode_bool(r.u8()?)?;
                let compacted = decode_bool(r.u8()?)?;
                let n = r.count(1)?;
                let mut holds = Vec::with_capacity(n);
                for _ in 0..n {
                    holds.push(decode_bool(r.u8()?)?);
                }
                Response::Kb {
                    seq,
                    generation,
                    fact_count,
                    rechased,
                    compacted,
                    holds,
                }
            }
            RESP_OK => Response::Ok,
            _ => return Err(CheckpointError::Malformed("response kind")),
        };
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing response bytes"));
        }
        Ok(resp)
    }
}

/// The kind byte of a sealed frame, read from the fixed header offset
/// (offset 6: after magic and version). The checksum is *not* verified
/// here — callers pass the kind straight back into [`open`], which is.
pub fn frame_kind(bytes: &[u8]) -> Result<u8, CheckpointError> {
    if bytes.len() < 15 + 8 {
        return Err(CheckpointError::Truncated);
    }
    Ok(bytes[6])
}

/// Frame header length: magic (4) + version (2) + kind (1) + payload
/// length (8).
const HEADER_LEN: usize = 15;
/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;
/// Refuse to buffer frames above this payload size (64 MiB): a corrupted
/// or hostile length field must not drive an unbounded allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 64 << 20;

/// Reads exactly one sealed frame from a byte stream: header first (which
/// carries the payload length), then payload + checksum. Returns the full
/// frame, ready for [`Request::from_frame`] / [`Response::from_frame`].
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let len = u64::from_le_bytes(header[7..15].try_into().expect("8-byte slice"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap"),
        ));
    }
    let total = HEADER_LEN + len as usize + CHECKSUM_LEN;
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(frame)
}

/// Writes one sealed frame to a byte stream.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_budget() -> ChaseBudget {
        ChaseBudget {
            max_facts: 1234,
            max_rounds: 56,
            max_bytes: 789_000,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Entail {
                tenant: "acme".into(),
                budget: sample_budget(),
                program: "R(x0) -> S(x0).".into(),
                candidate: "R(x0) -> S(x0).".into(),
            },
            Request::Batch {
                tenant: "β-tenant".into(),
                budget: ChaseBudget::default(),
                program: "R(x0) -> S(x0).".into(),
                candidates: "R(x0) -> S(x0). S(x0) -> R(x0).".into(),
            },
            Request::Rewrite {
                tenant: "t".into(),
                budget: ChaseBudget::small(),
                program: "R(x0, x1) -> exists z0 : R(x1, z0).".into(),
                target: RewriteTarget::Guarded,
            },
            Request::KbApply {
                tenant: "kb".into(),
                program: "E(x,y), E(y,z) -> E(x,z).".into(),
                inserts: vec![
                    WireFact {
                        pred: "E".into(),
                        args: vec![0, 1],
                    },
                    WireFact {
                        pred: "E".into(),
                        args: vec![1, 2],
                    },
                ],
                retracts: vec![WireFact {
                    pred: "E".into(),
                    args: vec![7, 7],
                }],
            },
            Request::KbQuery {
                tenant: "kb".into(),
                program: "E(x,y), E(y,z) -> E(x,z).".into(),
                facts: vec![WireFact {
                    pred: "E".into(),
                    args: vec![0, 2],
                }],
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip() {
        let reqs = sample_requests();
        for req in reqs {
            let frame = req.to_frame();
            assert_eq!(Request::from_frame(&frame).unwrap(), req, "{req:?}");
        }
    }

    fn sample_responses() -> Vec<Response> {
        let stats = WireStats {
            quanta: 7,
            suspensions: 6,
            mem_peak_bytes: 1 << 20,
            cache_hits: 3,
            cache_misses: 4,
        };
        vec![
            Response::Verdicts {
                verdicts: vec![
                    Entailment::Proved,
                    Entailment::Disproved,
                    Entailment::Unknown,
                ],
                stats,
            },
            Response::Rewrite {
                outcome: OUTCOME_REWRITTEN,
                rewritten: vec!["R(x0) -> S(x0).".into()],
                stats,
            },
            Response::Error {
                message: "memory budget exceeded".into(),
            },
            Response::Stats {
                tenants: vec![TenantSnapshot {
                    tenant: "acme".into(),
                    admitted: 10,
                    completed: 9,
                    quanta: 40,
                    suspensions: 12,
                    ..TenantSnapshot::default()
                }],
            },
            Response::Kb {
                seq: 12,
                generation: 3,
                fact_count: 78,
                rechased: true,
                compacted: false,
                holds: vec![true, false, true],
            },
            Response::Ok,
        ]
    }

    #[test]
    fn responses_round_trip() {
        let resps = sample_responses();
        for resp in resps {
            let frame = resp.to_frame();
            assert_eq!(Response::from_frame(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let frame = Request::Stats.to_frame();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(Request::from_frame(&bad).is_err(), "byte {i} accepted");
        }
        for cut in 0..frame.len() {
            assert!(Request::from_frame(&frame[..cut]).is_err());
        }
    }

    /// Decodes `payload` sealed under `kind` as a request or a response
    /// (by kind range), failing the test on a panic. A valid checksum
    /// around the payload means every byte reaches the payload decoders.
    fn decode_sealed(kind: u8, payload: &[u8]) -> Result<(), CheckpointError> {
        let frame = seal(kind, payload);
        std::panic::catch_unwind(|| {
            if kind < RESP_VERDICTS {
                Request::from_frame(&frame).map(drop)
            } else {
                Response::from_frame(&frame).map(drop)
            }
        })
        .unwrap_or_else(|_| panic!("kind {kind:#x}: decoding {payload:?} panicked"))
    }

    #[test]
    fn malformed_payloads_under_valid_checksums_are_typed_errors() {
        let mut frames: Vec<Vec<u8>> = sample_requests().iter().map(Request::to_frame).collect();
        frames.extend(sample_responses().iter().map(Response::to_frame));
        for frame in &frames {
            let kind = frame_kind(frame).unwrap();
            let payload = open(frame, kind).unwrap();
            // Truncated vectors and strings: every proper prefix.
            for cut in 0..payload.len() {
                assert!(
                    decode_sealed(kind, &payload[..cut]).is_err(),
                    "kind {kind:#x} cut {cut}"
                );
            }
            // Trailing garbage.
            let mut longer = payload.to_vec();
            longer.push(0);
            assert!(
                decode_sealed(kind, &longer).is_err(),
                "kind {kind:#x} trailing byte"
            );
            // Huge length prefixes, wherever a length may sit.
            for at in 0..payload.len().saturating_sub(7) {
                for huge in [u64::MAX, 1 << 63, u32::MAX as u64 + 1, payload.len() as u64] {
                    let mut bad = payload.to_vec();
                    bad[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                    let _ = decode_sealed(kind, &bad);
                }
            }
            // Unknown enum tags, invalid booleans and UTF-8: every byte
            // replaced by values outside the small tag ranges.
            for at in 0..payload.len() {
                for v in [2u8, 3, 4, 0x7f, 0x80, 0xc0, 0xff] {
                    let mut bad = payload.to_vec();
                    bad[at] = v;
                    let _ = decode_sealed(kind, &bad);
                }
            }
        }
        // Seeded random payloads under every request and response kind,
        // known or not.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for kind in 0x10u8..=0x2f {
            for len in 0..48usize {
                let payload: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                let _ = decode_sealed(kind, &payload);
            }
        }
    }

    #[test]
    fn checkpoint_frames_are_not_requests() {
        // A sealed chase checkpoint must be rejected at the kind check, not
        // misparsed: the kind namespaces are disjoint.
        let frame = tgdkit_chase::checkpoint::seal(tgdkit_chase::checkpoint::KIND_CHASE, &[1, 2]);
        assert!(Request::from_frame(&frame).is_err());
    }

    #[test]
    fn stream_round_trip_and_length_cap() {
        let frame = Request::Stats.to_frame();
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        assert!(read_frame(&mut cursor).is_err(), "stream is drained");

        // A hostile length field fails fast instead of allocating.
        let mut huge = frame.clone();
        huge[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor).is_err());
    }
}
