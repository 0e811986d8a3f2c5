//! Versioned, checksummed checkpoints for preempted chase and batch runs.
//!
//! A budget trip (rounds, facts, or bytes — see
//! [`MemoryAccountant`](crate::MemoryAccountant)) lands on a round or
//! group boundary, so the suspended state is small and fully logical: the
//! instance arena, the semi-naive frontier, the round counter, and the
//! stats so far. [`ChaseCheckpoint`] and [`BatchCheckpoint`] capture that
//! state; [`crate::chase_resume`] / [`crate::batch_entailment`]
//! continue a run such that *trip → checkpoint → resume* is byte-identical
//! to an uninterrupted run (property-tested in
//! `tests/proptest_checkpoint.rs`).
//!
//! ## Encoding layout
//!
//! A checkpoint serializes to one self-describing frame:
//!
//! ```text
//! [0..4)   magic  b"TGCK"
//! [4..6)   format version, u16 LE (currently 3)
//! [6]      payload kind: 1 chase, 2 batch, 3 rewrite
//! [7..15)  payload length, u64 LE
//! [15..N)  payload (kind-specific, little-endian, length-prefixed vectors)
//! [N..N+8) FNV-1a-64 checksum of bytes [0..N), u64 LE
//! ```
//!
//! The checksum is verified **before** any field is interpreted, and the
//! FNV-1a step `h ← (h ⊕ b) · prime` is injective in `h` (the prime is
//! odd, so the multiplication is invertible mod 2⁶⁴), which guarantees
//! that any single flipped byte in a frame of unchanged length changes the
//! digest — corruption always surfaces as a typed
//! [`CheckpointError::ChecksumMismatch`], never as a panic or a silently
//! wrong resume. Decoders bound-check every read and never pre-allocate
//! from unvalidated lengths.
//!
//! ## Versioning policy
//!
//! The version field covers the whole payload layout. Readers reject
//! unknown versions ([`CheckpointError::UnsupportedVersion`]); the format
//! is bumped (never reinterpreted in place) whenever a captured struct
//! gains, loses, or reorders a field. Version 2 added the shard count to
//! the chase payload and changed nothing else, so version-1 frames still
//! open, and a version-1 chase checkpoint decodes as a one-shard run.
//! Version 3 dropped the never-read budget from the batch payload, which
//! now ends in the shared sweep state ([`write_sweep`]) exactly like the
//! rewrite payload; batch frames older than version 3 are rejected as
//! [`CheckpointError::UnsupportedVersion`], every other kind is unchanged.
//! Checkpoints are short-lived
//! suspend/resume tokens, not archival storage — cross-version migration
//! is out of scope by design.

use crate::cache::{EntailBatchStats, SweepState};
use crate::chase::ChaseVariant;
use crate::entail::Entailment;
use crate::govern::CancelToken;
use crate::stats::ChaseStats;
use std::collections::BTreeSet;
use std::time::Duration;
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::{tgd_variant_key, Schema, Tgd};

/// Why a checkpoint could not be decoded or resumed. Every decode failure
/// is reported through this type; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The frame is shorter than its header + checksum, or a length prefix
    /// points past the end of the payload.
    Truncated,
    /// The frame does not start with the checkpoint magic.
    BadMagic,
    /// The frame was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The frame holds a different checkpoint kind than the decoder
    /// expected (e.g. a batch checkpoint handed to the chase resumer).
    WrongKind {
        /// The kind the decoder expected.
        expected: u8,
        /// The kind found in the frame.
        found: u8,
    },
    /// The checksum does not match the frame content (real corruption or
    /// injected via [`crate::FaultSite::CheckpointCorrupt`]). Carries the
    /// byte position of the frame within its container (0 for a
    /// stand-alone frame; segment scanners pass the frame's file offset
    /// through [`open_at`]) and the frame's *header* kind byte — read
    /// before verification, so it is advisory triage data, not a trusted
    /// field — because "a checksum failed somewhere" is useless to
    /// recovery triage without the offending byte position.
    ChecksumMismatch {
        /// Byte offset of the frame start within its container file.
        offset: u64,
        /// The kind byte the (unverified) frame header claims.
        kind: u8,
    },
    /// The frame is structurally invalid (bad enum tag, non-UTF-8 name,
    /// inconsistent internal lengths).
    Malformed(&'static str),
    /// The checkpoint is well-formed but does not belong to the inputs it
    /// was resumed against (different tgd set, schema, or group count).
    ContextMismatch(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint frame truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint frame (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong checkpoint kind: expected {expected}, found {found}"
                )
            }
            CheckpointError::ChecksumMismatch { offset, kind } => write!(
                f,
                "checksum mismatch in frame at byte offset {offset} (header kind 0x{kind:02x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ContextMismatch(what) => {
                write!(f, "checkpoint does not match the resume inputs: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

const MAGIC: [u8; 4] = *b"TGCK";
const VERSION: u16 = 3;
/// Oldest format version readers accept (see the versioning policy).
const MIN_VERSION: u16 = 1;
/// Payload kind of a [`ChaseCheckpoint`] frame.
pub const KIND_CHASE: u8 = 1;
/// Payload kind of a [`BatchCheckpoint`] frame.
pub const KIND_BATCH: u8 = 2;
/// Payload kind reserved for the rewrite checkpoint (encoded in
/// `tgdkit_core` with the writer/reader exported here).
pub const KIND_REWRITE: u8 = 3;

/// FNV-1a-64 over `bytes`. Each step is injective in the running state, so
/// same-length frames differing in any single byte always digest apart.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Wraps a kind-specific payload into a sealed frame (header + checksum).
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(15 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The format version of a frame that [`open`] accepted.
fn frame_version(bytes: &[u8]) -> u16 {
    u16::from_le_bytes([bytes[4], bytes[5]])
}

/// Verifies a sealed frame and returns its payload slice. The checksum is
/// checked before any header field is interpreted.
pub fn open(bytes: &[u8], expected_kind: u8) -> Result<&[u8], CheckpointError> {
    open_at(bytes, expected_kind, 0)
}

/// [`open`] for a frame that lives at `base_offset` within a larger
/// container (a segment file): a checksum mismatch reports that offset so
/// recovery triage can name the damaged byte range instead of just "some
/// frame, somewhere".
pub fn open_at(
    bytes: &[u8],
    expected_kind: u8,
    base_offset: u64,
) -> Result<&[u8], CheckpointError> {
    const HEADER: usize = 15;
    if bytes.len() < HEADER + 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte slice"));
    if fnv1a(body) != stored {
        return Err(CheckpointError::ChecksumMismatch {
            offset: base_offset,
            kind: body[6],
        });
    }
    if body[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind = body[6];
    let len = u64::from_le_bytes(body[7..15].try_into().expect("8-byte slice"));
    if len != (body.len() - HEADER) as u64 {
        return Err(CheckpointError::Malformed("payload length"));
    }
    if kind != expected_kind {
        return Err(CheckpointError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    Ok(&body[HEADER..])
}

/// [`open`] under a [`CancelToken`]: consults
/// [`FaultSite::CheckpointCorrupt`](crate::FaultSite::CheckpointCorrupt)
/// first, so fault schedules can exercise the corruption path without
/// hand-flipping bytes.
pub fn open_governed<'a>(
    bytes: &'a [u8],
    expected_kind: u8,
    token: &CancelToken,
) -> Result<&'a [u8], CheckpointError> {
    if token.fault(crate::FaultSite::CheckpointCorrupt) {
        return Err(CheckpointError::ChecksumMismatch {
            offset: 0,
            kind: bytes.get(6).copied().unwrap_or(0),
        });
    }
    open(bytes, expected_kind)
}

/// Little-endian payload writer used by all checkpoint kinds.
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    buf: Vec<u8>,
}

impl CheckpointWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes the payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn count(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian payload reader; every method fails with
/// [`CheckpointError::Truncated`] instead of panicking on short input.
#[derive(Debug)]
pub struct CheckpointReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CheckpointReader<'a> {
    /// A reader over a payload returned by [`open`].
    pub fn new(buf: &'a [u8]) -> Self {
        CheckpointReader { buf, pos: 0 }
    }

    /// `true` when every payload byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` count and validates it against the bytes still
    /// available (`elem_size` payload bytes per element, 1 for
    /// variable-size elements), so a corrupted count can never drive a
    /// huge allocation.
    pub fn count(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v.saturating_mul(elem_size.max(1) as u64) > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Malformed("string"))
    }
}

/// An order-sensitive fingerprint of a tgd set (unlike the
/// renaming-invariant cache fingerprint, trigger ordering and oblivious
/// fired-sets are keyed by tgd *position*, so resuming against a permuted
/// set must be rejected).
pub fn tgds_fingerprint(tgds: &[Tgd]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tgds.len().hash(&mut h);
    for tgd in tgds {
        tgd_variant_key(tgd).hash(&mut h);
    }
    h.finish()
}

fn write_duration(w: &mut CheckpointWriter, d: Duration) {
    w.u64(d.as_nanos().min(u64::MAX as u128) as u64);
}

fn read_duration(r: &mut CheckpointReader<'_>) -> Result<Duration, CheckpointError> {
    Ok(Duration::from_nanos(r.u64()?))
}

/// Writes a [`ChaseStats`] block (fixed layout, 13 counters + 3 timings).
pub fn write_chase_stats(w: &mut CheckpointWriter, s: &ChaseStats) {
    for v in [
        s.rounds,
        s.triggers_found,
        s.triggers_fired,
        s.facts_added,
        s.index_extends,
        s.index_rebuilds,
        s.parallel_rounds,
        s.cache_hits,
        s.cache_misses,
        s.panics_contained,
        s.mem_peak_bytes,
        s.mem_trips,
        s.resumes,
    ] {
        w.count(v);
    }
    write_duration(w, s.trigger_search_time);
    write_duration(w, s.apply_time);
    write_duration(w, s.total_time);
}

/// Reads a [`ChaseStats`] block written by [`write_chase_stats`].
pub fn read_chase_stats(r: &mut CheckpointReader<'_>) -> Result<ChaseStats, CheckpointError> {
    Ok(ChaseStats {
        rounds: r.u64()? as usize,
        triggers_found: r.u64()? as usize,
        triggers_fired: r.u64()? as usize,
        facts_added: r.u64()? as usize,
        index_extends: r.u64()? as usize,
        index_rebuilds: r.u64()? as usize,
        parallel_rounds: r.u64()? as usize,
        cache_hits: r.u64()? as usize,
        cache_misses: r.u64()? as usize,
        panics_contained: r.u64()? as usize,
        mem_peak_bytes: r.u64()? as usize,
        mem_trips: r.u64()? as usize,
        resumes: r.u64()? as usize,
        trigger_search_time: read_duration(r)?,
        apply_time: read_duration(r)?,
        total_time: read_duration(r)?,
    })
}

/// Writes an [`EntailBatchStats`] block (without the contained panics,
/// which [`write_sweep`] places after it).
fn write_batch_stats(w: &mut CheckpointWriter, s: &EntailBatchStats) {
    for v in [
        s.candidates,
        s.body_groups,
        s.bodies_chased,
        s.heads_probed,
        s.cache_hits,
        s.cache_misses,
        s.evictions,
    ] {
        w.count(v);
    }
    write_chase_stats(w, &s.chase);
}

/// Reads an [`EntailBatchStats`] block written by [`write_batch_stats`].
fn read_batch_stats(r: &mut CheckpointReader<'_>) -> Result<EntailBatchStats, CheckpointError> {
    Ok(EntailBatchStats {
        candidates: r.u64()? as usize,
        body_groups: r.u64()? as usize,
        bodies_chased: r.u64()? as usize,
        heads_probed: r.u64()? as usize,
        cache_hits: r.u64()? as usize,
        cache_misses: r.u64()? as usize,
        evictions: r.u64()? as usize,
        panics_contained: 0,
        chase: read_chase_stats(r)?,
    })
}

/// The one-byte tag of an [`Entailment`], shared by the checkpoint codec
/// and the work-stealing verdict slots of [`crate::sweep`].
pub(crate) fn verdict_tag(v: Entailment) -> u8 {
    match v {
        Entailment::Proved => 0,
        Entailment::Disproved => 1,
        Entailment::Unknown => 2,
    }
}

/// The verdict a [`verdict_tag`] byte stands for, if any.
pub(crate) fn verdict_from_tag(tag: u8) -> Option<Entailment> {
    match tag {
        0 => Some(Entailment::Proved),
        1 => Some(Entailment::Disproved),
        2 => Some(Entailment::Unknown),
        _ => None,
    }
}

/// Writes an [`Entailment`] verdict as one byte.
fn write_verdict(w: &mut CheckpointWriter, v: Entailment) {
    w.u8(verdict_tag(v));
}

/// Reads an [`Entailment`] verdict byte.
fn read_verdict(r: &mut CheckpointReader<'_>) -> Result<Entailment, CheckpointError> {
    verdict_from_tag(r.u8()?).ok_or(CheckpointError::Malformed("verdict tag"))
}

fn read_flag(r: &mut CheckpointReader<'_>, what: &'static str) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Malformed(what)),
    }
}

/// Writes a [`SweepState`] — the one codec of the batch and rewrite
/// payloads' shared tail: done flags, verdict slots, the counters, the
/// contained-panic count, then the taint flag.
pub fn write_sweep(w: &mut CheckpointWriter, sweep: &SweepState) {
    w.count(sweep.done.len());
    for &d in &sweep.done {
        w.u8(d as u8);
    }
    w.count(sweep.verdicts.len());
    for &v in &sweep.verdicts {
        write_verdict(w, v);
    }
    write_batch_stats(w, &sweep.stats);
    w.count(sweep.stats.panics_contained);
    w.u8(sweep.tainted as u8);
}

/// Reads a [`SweepState`] written by [`write_sweep`].
pub fn read_sweep(r: &mut CheckpointReader<'_>) -> Result<SweepState, CheckpointError> {
    let done_count = r.count(1)?;
    let mut done = Vec::with_capacity(done_count);
    for _ in 0..done_count {
        done.push(read_flag(r, "done tag")?);
    }
    let verdict_count = r.count(1)?;
    let mut verdicts = Vec::with_capacity(verdict_count);
    for _ in 0..verdict_count {
        verdicts.push(read_verdict(r)?);
    }
    let mut stats = read_batch_stats(r)?;
    stats.panics_contained = r.u64()? as usize;
    let tainted = read_flag(r, "taint tag")?;
    Ok(SweepState {
        done,
        verdicts,
        stats,
        tainted,
    })
}

/// Writes an instance (relations in schema order, then the domain and the
/// element display names) so that decoding against the same schema
/// reconstructs an [`Instance`] comparing `==` to the original. Shared
/// with the durable-store snapshot codec (`tgdkit-store`), which must
/// round-trip instances under exactly the checkpoint discipline.
pub fn write_instance(w: &mut CheckpointWriter, instance: &Instance) {
    let schema = instance.schema();
    w.count(schema.preds().len());
    for pred in schema.preds() {
        let arity = schema.arity(pred);
        w.u32(arity as u32);
        let tuples: Vec<Vec<Elem>> = instance
            .facts()
            .filter(|f| f.pred == pred)
            .map(|f| f.args)
            .collect();
        w.count(tuples.len());
        for tuple in tuples {
            for e in tuple {
                w.u32(e.0);
            }
        }
    }
    w.count(instance.dom().len());
    for e in instance.dom() {
        w.u32(e.0);
    }
    let names: Vec<(Elem, String)> = instance.names().map(|(e, n)| (e, n.to_string())).collect();
    w.count(names.len());
    for (e, name) in names {
        w.u32(e.0);
        w.str(&name);
    }
}

/// Reads an instance written by [`write_instance`], validating every
/// predicate and arity against `schema`.
pub fn read_instance(
    r: &mut CheckpointReader<'_>,
    schema: &Schema,
) -> Result<Instance, CheckpointError> {
    let preds = r.count(4)?;
    if preds != schema.preds().len() {
        return Err(CheckpointError::ContextMismatch("predicate count"));
    }
    let mut instance = Instance::new(schema.clone());
    for pred in schema.preds() {
        let arity = r.u32()? as usize;
        if arity != schema.arity(pred) {
            return Err(CheckpointError::ContextMismatch("relation arity"));
        }
        let tuples = r.count(arity.max(1) * 4)?;
        for _ in 0..tuples {
            let mut args = Vec::with_capacity(arity);
            for _ in 0..arity {
                args.push(Elem(r.u32()?));
            }
            instance.add_fact(pred, args);
        }
    }
    let dom = r.count(4)?;
    for _ in 0..dom {
        instance.add_dom_elem(Elem(r.u32()?));
    }
    let names = r.count(5)?;
    for _ in 0..names {
        let e = Elem(r.u32()?);
        let name = r.str()?;
        instance.set_name(e, name);
    }
    Ok(instance)
}

/// Writes a length-prefixed fact list (shared with the WAL-batch codec in
/// `tgdkit-store`).
pub fn write_facts(w: &mut CheckpointWriter, facts: &[Fact]) {
    w.count(facts.len());
    for fact in facts {
        w.u32(fact.pred.0);
        w.count(fact.args.len());
        for e in &fact.args {
            w.u32(e.0);
        }
    }
}

/// Reads a fact list written by [`write_facts`], validating predicate ids
/// and arities against `schema`.
pub fn read_facts(
    r: &mut CheckpointReader<'_>,
    schema: &Schema,
) -> Result<Vec<Fact>, CheckpointError> {
    let count = r.count(8)?;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let pred_raw = r.u32()? as usize;
        if pred_raw >= schema.preds().len() {
            return Err(CheckpointError::Malformed("predicate id"));
        }
        let pred = tgdkit_logic::PredId(pred_raw as u32);
        let arity = r.count(4)?;
        if arity != schema.arity(pred) {
            return Err(CheckpointError::ContextMismatch("fact arity"));
        }
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            args.push(Elem(r.u32()?));
        }
        out.push(Fact::new(pred, args));
    }
    Ok(out)
}

/// A suspended chase run, captured at a round boundary. Produced by
/// [`crate::chase_checkpointing`] / [`crate::chase_resume`] whenever a
/// governed run stops short of a fixpoint on a resumable boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseCheckpoint {
    pub(crate) variant: ChaseVariant,
    pub(crate) rounds: usize,
    pub(crate) next_null: u32,
    /// Shard count of the captured run (1 unless the caller asked for
    /// more; version-1 frames decode as 1). Resume re-partitions the
    /// decoded instance with the same count, so the frame pins the
    /// layout, not the partition contents.
    pub(crate) shards: u32,
    pub(crate) sigma_fp: u64,
    pub(crate) nulls: BTreeSet<Elem>,
    /// Oblivious-variant fired-trigger memory (empty for restricted runs).
    pub(crate) fired: Vec<BTreeSet<Vec<Elem>>>,
    /// The semi-naive frontier: facts added by the last completed round.
    pub(crate) delta: Option<Vec<Fact>>,
    pub(crate) stats: ChaseStats,
    pub(crate) instance: Instance,
}

impl ChaseCheckpoint {
    /// Rounds completed when the run was suspended.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The instance as of the last completed round.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The chase variant of the suspended run.
    pub fn variant(&self) -> ChaseVariant {
        self.variant
    }

    /// Serializes to a sealed frame (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.u8(match self.variant {
            ChaseVariant::Restricted => 0,
            ChaseVariant::Oblivious => 1,
        });
        w.count(self.rounds);
        w.u32(self.next_null);
        w.u32(self.shards);
        w.u64(self.sigma_fp);
        write_chase_stats(&mut w, &self.stats);
        w.count(self.nulls.len());
        for e in &self.nulls {
            w.u32(e.0);
        }
        w.count(self.fired.len());
        for set in &self.fired {
            w.count(set.len());
            for tuple in set {
                w.count(tuple.len());
                for e in tuple {
                    w.u32(e.0);
                }
            }
        }
        match &self.delta {
            None => w.u8(0),
            Some(facts) => {
                w.u8(1);
                write_facts(&mut w, facts);
            }
        }
        write_instance(&mut w, &self.instance);
        seal(KIND_CHASE, &w.into_payload())
    }

    /// Decodes a sealed frame produced by [`ChaseCheckpoint::encode`],
    /// verifying the checksum first and validating every field against
    /// `schema`. Never panics; every failure is a typed
    /// [`CheckpointError`].
    pub fn decode(bytes: &[u8], schema: &Schema) -> Result<ChaseCheckpoint, CheckpointError> {
        let payload = open(bytes, KIND_CHASE)?;
        Self::decode_payload(payload, frame_version(bytes), schema)
    }

    /// [`ChaseCheckpoint::decode`] with
    /// [`FaultSite::CheckpointCorrupt`](crate::FaultSite::CheckpointCorrupt)
    /// injection via `token`.
    pub fn decode_governed(
        bytes: &[u8],
        schema: &Schema,
        token: &CancelToken,
    ) -> Result<ChaseCheckpoint, CheckpointError> {
        let payload = open_governed(bytes, KIND_CHASE, token)?;
        Self::decode_payload(payload, frame_version(bytes), schema)
    }

    fn decode_payload(
        payload: &[u8],
        version: u16,
        schema: &Schema,
    ) -> Result<ChaseCheckpoint, CheckpointError> {
        let mut r = CheckpointReader::new(payload);
        let variant = match r.u8()? {
            0 => ChaseVariant::Restricted,
            1 => ChaseVariant::Oblivious,
            _ => return Err(CheckpointError::Malformed("chase variant tag")),
        };
        let rounds = r.u64()? as usize;
        let next_null = r.u32()?;
        // Version 1 predates sharding: its runs were one-shard runs.
        let shards = if version >= 2 { r.u32()? } else { 1 };
        if shards == 0 {
            return Err(CheckpointError::Malformed("zero shard count"));
        }
        let sigma_fp = r.u64()?;
        let stats = read_chase_stats(&mut r)?;
        let null_count = r.count(4)?;
        let mut nulls = BTreeSet::new();
        for _ in 0..null_count {
            nulls.insert(Elem(r.u32()?));
        }
        let fired_count = r.count(8)?;
        let mut fired = Vec::with_capacity(fired_count.min(1 << 16));
        for _ in 0..fired_count {
            let set_count = r.count(8)?;
            let mut set = BTreeSet::new();
            for _ in 0..set_count {
                let len = r.count(4)?;
                let mut tuple = Vec::with_capacity(len);
                for _ in 0..len {
                    tuple.push(Elem(r.u32()?));
                }
                set.insert(tuple);
            }
            fired.push(set);
        }
        let delta = match r.u8()? {
            0 => None,
            1 => Some(read_facts(&mut r, schema)?),
            _ => return Err(CheckpointError::Malformed("delta tag")),
        };
        let instance = read_instance(&mut r, schema)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(ChaseCheckpoint {
            variant,
            rounds,
            next_null,
            shards,
            sigma_fp,
            nulls,
            fired,
            delta,
            stats,
            instance,
        })
    }
}

/// A suspended [`crate::batch_entailment`] run, captured at a body-group
/// boundary: the renaming-invariant fingerprint of the tgd set it decides
/// against, plus the sweep state (settled groups, verdict slots, stats,
/// taint). The budget is not part of it: resume takes the budget as an
/// argument, and that budget is absolute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCheckpoint {
    pub(crate) sigma_fp: u64,
    pub(crate) sweep: SweepState,
}

impl BatchCheckpoint {
    /// Body groups already settled when the run was suspended.
    pub fn groups_done(&self) -> usize {
        self.sweep.done.iter().filter(|&&d| d).count()
    }

    /// Total body groups in the suspended run.
    pub fn groups_total(&self) -> usize {
        self.sweep.done.len()
    }

    /// Serializes to a sealed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.u64(self.sigma_fp);
        write_sweep(&mut w, &self.sweep);
        seal(KIND_BATCH, &w.into_payload())
    }

    /// Decodes a sealed frame produced by [`BatchCheckpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<BatchCheckpoint, CheckpointError> {
        Self::decode_payload(open(bytes, KIND_BATCH)?, frame_version(bytes))
    }

    /// [`BatchCheckpoint::decode`] with
    /// [`FaultSite::CheckpointCorrupt`](crate::FaultSite::CheckpointCorrupt)
    /// injection via `token`.
    pub fn decode_governed(
        bytes: &[u8],
        token: &CancelToken,
    ) -> Result<BatchCheckpoint, CheckpointError> {
        Self::decode_payload(
            open_governed(bytes, KIND_BATCH, token)?,
            frame_version(bytes),
        )
    }

    fn decode_payload(payload: &[u8], version: u16) -> Result<BatchCheckpoint, CheckpointError> {
        // Versions 1 and 2 carried a budget between the fingerprint and the
        // sweep state (see the versioning policy).
        if version < 3 {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut r = CheckpointReader::new(payload);
        let sigma_fp = r.u64()?;
        let sweep = read_sweep(&mut r)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(BatchCheckpoint { sigma_fp, sweep })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let frame = seal(KIND_CHASE, &payload);
        assert_eq!(open(&frame, KIND_CHASE).unwrap(), &payload[..]);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let payload: Vec<u8> = (0..40u8).collect();
        let frame = seal(KIND_BATCH, &payload);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    open(&bad, KIND_BATCH).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let frame = seal(KIND_CHASE, &[9u8; 16]);
        for cut in 0..frame.len() {
            assert!(open(&frame[..cut], KIND_CHASE).is_err());
        }
        let mut longer = frame.clone();
        longer.push(0);
        assert!(open(&longer, KIND_CHASE).is_err());
    }

    #[test]
    fn checksum_mismatch_reports_offset_and_kind() {
        let mut frame = seal(KIND_BATCH, &[7u8; 16]);
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        // A stand-alone open anchors the frame at offset 0; a segment
        // scanner passes the real file offset through `open_at`.
        assert_eq!(
            open(&frame, KIND_BATCH),
            Err(CheckpointError::ChecksumMismatch {
                offset: 0,
                kind: KIND_BATCH
            })
        );
        let err = open_at(&frame, KIND_BATCH, 4096).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ChecksumMismatch {
                offset: 4096,
                kind: KIND_BATCH
            }
        );
        let shown = err.to_string();
        assert!(shown.contains("4096"), "{shown}");
        assert!(shown.contains("0x02"), "{shown}");
    }

    #[test]
    fn wrong_kind_is_a_typed_error() {
        let frame = seal(KIND_CHASE, &[1u8]);
        assert_eq!(
            open(&frame, KIND_BATCH),
            Err(CheckpointError::WrongKind {
                expected: KIND_BATCH,
                found: KIND_CHASE
            })
        );
    }

    #[test]
    fn injected_corruption_surfaces_as_checksum_mismatch() {
        let frame = seal(KIND_CHASE, &[1u8]);
        let token = CancelToken::with_faults(crate::faults::FaultPlan::always(
            crate::FaultSite::CheckpointCorrupt,
        ));
        assert_eq!(
            open_governed(&frame, KIND_CHASE, &token),
            Err(CheckpointError::ChecksumMismatch {
                offset: 0,
                kind: KIND_CHASE
            })
        );
        // An ungoverned open of the same frame succeeds: the frame itself
        // is intact, only the injection said otherwise.
        assert!(open(&frame, KIND_CHASE).is_ok());
    }

    #[test]
    fn batch_checkpoint_round_trips() {
        let cp = BatchCheckpoint {
            sigma_fp: 0xDEAD_BEEF,
            sweep: SweepState {
                done: vec![true, false, true],
                verdicts: vec![
                    Entailment::Proved,
                    Entailment::Unknown,
                    Entailment::Disproved,
                ],
                stats: EntailBatchStats {
                    candidates: 3,
                    body_groups: 3,
                    bodies_chased: 2,
                    heads_probed: 1,
                    cache_hits: 1,
                    cache_misses: 2,
                    evictions: 1,
                    panics_contained: 1,
                    chase: ChaseStats {
                        rounds: 7,
                        mem_peak_bytes: 4096,
                        ..ChaseStats::default()
                    },
                },
                tainted: true,
            },
        };
        let decoded = BatchCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);
    }

    #[test]
    fn batch_frame_in_the_version_2_layout_is_a_typed_error() {
        // The version-2 payload: fingerprint, budget (facts, rounds, bytes),
        // taint, done flags, verdicts, stats — sealed under a version-2
        // header, as a binary of that version wrote it.
        let mut w = CheckpointWriter::new();
        w.u64(0xDEAD_BEEF);
        for v in [100_000usize, 128, usize::MAX] {
            w.count(v);
        }
        w.u8(0);
        w.count(1);
        w.u8(1);
        w.count(1);
        write_verdict(&mut w, Entailment::Proved);
        write_batch_stats(&mut w, &EntailBatchStats::default());
        let mut frame = seal(KIND_BATCH, &w.into_payload());
        frame[4..6].copy_from_slice(&2u16.to_le_bytes());
        let body = frame.len() - 8;
        let sum = fnv1a(&frame[..body]);
        frame[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            BatchCheckpoint::decode(&frame),
            Err(CheckpointError::UnsupportedVersion(2))
        );
    }
}
