//! Resumable rewrite state: the [`RewriteCheckpoint`] captured when a
//! rewriting procedure suspends on its memory budget.
//!
//! The rewriting procedures enumerate a deterministic candidate space and
//! filter it group by group, so a suspended run is fully described by
//! *which groups are done* plus the verdict slots filled so far — the
//! enumeration itself is never serialized; resume re-enumerates (same
//! schema, profile and options ⇒ same candidates in the same order) and
//! validates that it landed in the same space via an order-sensitive
//! fingerprint of the variant keys. An in-process checkpoint also keeps
//! the enumerated space in memory ([`SpaceMemo`]), so resuming it with the
//! same schema, profile, options and target skips the re-enumeration; a
//! decoded checkpoint has no such copy. A checkpoint fed to a different set,
//! target class, or enumeration budget is rejected with a typed
//! [`CheckpointError::ContextMismatch`], never silently misapplied.
//!
//! The binary frame reuses the chase crate's codec
//! ([`tgdkit_chase::checkpoint`]): magic, version, kind
//! ([`KIND_REWRITE`]), length, payload, FNV-1a checksum — with the same
//! guarantee that any single flipped byte is detected before any field is
//! interpreted.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tgdkit_chase::checkpoint::{
    open, open_governed, read_batch_stats, read_verdict, seal, write_batch_stats, write_verdict,
    CheckpointReader, CheckpointWriter, KIND_REWRITE,
};
use tgdkit_chase::{CancelToken, CheckpointError, EntailBatchStats, Entailment};
use tgdkit_logic::{Schema, TgdVariantKey};

use crate::enumerate::{EnumOptions, Enumeration};

/// Order-sensitive fingerprint of an enumerated candidate space (its
/// variant keys, in enumeration order). Checkpoint verdict slots are
/// positional, so — unlike [`tgdkit_chase::sigma_fingerprint`] — this must
/// distinguish permutations of the same space.
pub fn keys_fingerprint(keys: &[TgdVariantKey]) -> u64 {
    let mut hasher = DefaultHasher::new();
    keys.len().hash(&mut hasher);
    for key in keys {
        key.hash(&mut hasher);
    }
    hasher.finish()
}

/// Suspended state of a rewriting procedure
/// ([`crate::guarded_to_linear_checkpointing`] /
/// [`crate::frontier_guarded_to_guarded_checkpointing`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteCheckpoint {
    /// Target-class tag (`1` linear, `2` guarded), so a checkpoint cannot
    /// resume the wrong procedure.
    pub(crate) target: u8,
    /// [`tgdkit_chase::tgds_fingerprint`] of the input set.
    pub(crate) sigma_fp: u64,
    /// [`keys_fingerprint`] of the enumerated candidate space.
    pub(crate) enum_fp: u64,
    /// Whether the enumeration was exhaustive.
    pub(crate) exhaustive: bool,
    /// Completion flag per body group, in group order.
    pub(crate) done: Vec<bool>,
    /// Verdict slot per candidate, in enumeration order (`Unknown` until
    /// the candidate's group completes).
    pub(crate) verdicts: Vec<Entailment>,
    /// Filtering counters accumulated before the suspension.
    pub(crate) stats: EntailBatchStats,
    /// Body groups whose evaluation panicked and was contained so far.
    pub(crate) panics_contained: usize,
    /// Whether any verdict was computed under a tainted token (see
    /// [`CancelToken::is_tainted`]); carried so resumed runs keep gating
    /// cache persistence correctly.
    pub(crate) cache_tainted: bool,
    /// The enumerated candidate space, for in-process resumes.
    pub(crate) space: SpaceMemo,
}

/// The candidate space a suspended run enumerated, with every input the
/// enumeration depends on. It is an in-memory cache, not checkpoint
/// state: it is never encoded, a decoded checkpoint has none, and two
/// checkpoints compare equal whatever their memos hold.
#[derive(Clone, Default)]
pub(crate) struct SpaceMemo(Option<Arc<CandidateSpace>>);

pub(crate) struct CandidateSpace {
    pub(crate) schema: Schema,
    pub(crate) profile: (usize, usize),
    pub(crate) options: EnumOptions,
    pub(crate) target: u8,
    pub(crate) enumeration: Arc<Enumeration>,
}

impl SpaceMemo {
    pub(crate) fn new(space: CandidateSpace) -> SpaceMemo {
        SpaceMemo(Some(Arc::new(space)))
    }

    /// The cached enumeration, if it was built from exactly these inputs.
    pub(crate) fn get(
        &self,
        schema: &Schema,
        profile: (usize, usize),
        options: &EnumOptions,
        target: u8,
    ) -> Option<Arc<Enumeration>> {
        let space = self.0.as_ref()?;
        (space.profile == profile
            && space.options == *options
            && space.target == target
            && space.schema == *schema)
            .then(|| space.enumeration.clone())
    }
}

impl PartialEq for SpaceMemo {
    fn eq(&self, _: &SpaceMemo) -> bool {
        true
    }
}

impl Eq for SpaceMemo {}

impl std::fmt::Debug for SpaceMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = if self.0.is_some() { "held" } else { "none" };
        write!(f, "SpaceMemo({held})")
    }
}

impl RewriteCheckpoint {
    /// Body groups already evaluated.
    pub fn groups_done(&self) -> usize {
        self.done.iter().filter(|&&d| d).count()
    }

    /// Total body groups in the filtering sweep.
    pub fn groups_total(&self) -> usize {
        self.done.len()
    }

    /// Candidates in the enumerated space this checkpoint covers.
    pub fn candidates(&self) -> usize {
        self.verdicts.len()
    }

    /// Serializes into the versioned, checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.u8(self.target);
        w.u64(self.sigma_fp);
        w.u64(self.enum_fp);
        w.u8(self.exhaustive as u8);
        w.count(self.done.len());
        for &d in &self.done {
            w.u8(d as u8);
        }
        w.count(self.verdicts.len());
        for &v in &self.verdicts {
            write_verdict(&mut w, v);
        }
        write_batch_stats(&mut w, &self.stats);
        w.u64(self.panics_contained as u64);
        w.u8(self.cache_tainted as u8);
        seal(KIND_REWRITE, &w.into_payload())
    }

    /// Decodes a frame produced by [`Self::encode`]. Corruption anywhere —
    /// checksum, truncation, malformed flags — is a typed
    /// [`CheckpointError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<RewriteCheckpoint, CheckpointError> {
        Self::from_payload(open(bytes, KIND_REWRITE)?)
    }

    /// [`Self::decode`] consulting the token's fault plan at
    /// [`tgdkit_chase::FaultSite::CheckpointCorrupt`].
    pub fn decode_governed(
        bytes: &[u8],
        token: &CancelToken,
    ) -> Result<RewriteCheckpoint, CheckpointError> {
        Self::from_payload(open_governed(bytes, KIND_REWRITE, token)?)
    }

    fn from_payload(payload: &[u8]) -> Result<RewriteCheckpoint, CheckpointError> {
        let mut r = CheckpointReader::new(payload);
        let target = r.u8()?;
        if target != 1 && target != 2 {
            return Err(CheckpointError::Malformed("rewrite target tag"));
        }
        let sigma_fp = r.u64()?;
        let enum_fp = r.u64()?;
        let exhaustive = read_flag(&mut r)?;
        let done_len = r.count(1)?;
        let mut done = Vec::with_capacity(done_len);
        for _ in 0..done_len {
            done.push(read_flag(&mut r)?);
        }
        let verdict_len = r.count(1)?;
        let mut verdicts = Vec::with_capacity(verdict_len);
        for _ in 0..verdict_len {
            verdicts.push(read_verdict(&mut r)?);
        }
        let stats = read_batch_stats(&mut r)?;
        let panics_contained = r.u64()? as usize;
        let cache_tainted = read_flag(&mut r)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(RewriteCheckpoint {
            target,
            sigma_fp,
            enum_fp,
            exhaustive,
            done,
            verdicts,
            stats,
            panics_contained,
            cache_tainted,
            space: SpaceMemo::default(),
        })
    }
}

fn read_flag(r: &mut CheckpointReader<'_>) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Malformed("boolean flag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RewriteCheckpoint {
        RewriteCheckpoint {
            target: 1,
            sigma_fp: 0xDEAD_BEEF,
            enum_fp: 42,
            exhaustive: true,
            done: vec![true, false, true],
            verdicts: vec![
                Entailment::Proved,
                Entailment::Unknown,
                Entailment::Disproved,
            ],
            stats: EntailBatchStats {
                candidates: 3,
                body_groups: 3,
                ..Default::default()
            },
            panics_contained: 1,
            cache_tainted: true,
            space: SpaceMemo::default(),
        }
    }

    #[test]
    fn rewrite_checkpoint_round_trips() {
        let cp = sample();
        let decoded = RewriteCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    RewriteCheckpoint::decode(&corrupt).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn bad_flag_bytes_are_malformed_not_panics() {
        let mut cp = sample();
        cp.target = 7;
        // Re-seal with the bogus tag: checksum is fine, content is not.
        assert!(matches!(
            RewriteCheckpoint::decode(&cp.encode()),
            Err(CheckpointError::Malformed("rewrite target tag"))
        ));
    }

    #[test]
    fn keys_fingerprint_is_order_sensitive() {
        let mut s = tgdkit_logic::Schema::default();
        let a = tgdkit_logic::tgd_variant_key(
            &tgdkit_logic::parse_tgd(&mut s, "R(x,y) -> T(x)").unwrap(),
        );
        let b = tgdkit_logic::tgd_variant_key(
            &tgdkit_logic::parse_tgd(&mut s, "R(x,y) -> T(y)").unwrap(),
        );
        let ab = keys_fingerprint(&[a.clone(), b.clone()]);
        let ba = keys_fingerprint(&[b, a]);
        assert_ne!(ab, ba, "verdict slots are positional");
    }
}
