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
//! the enumerated space in memory, so resuming it with the
//! same schema, profile, options and target skips the re-enumeration; a
//! decoded checkpoint has no such copy. A checkpoint fed to a different set,
//! target class, or enumeration budget is rejected with a typed
//! [`CheckpointError::ContextMismatch`], never silently misapplied.
//!
//! The binary frame reuses the chase crate's codec
//! ([`tgdkit_chase::checkpoint`]): magic, version, kind
//! ([`KIND_REWRITE`]), length, payload, FNV-1a checksum — with the same
//! guarantee that any single flipped byte is detected before any field is
//! interpreted. The payload is the rewrite context (target, fingerprints,
//! exhaustiveness) followed by the sweep state, written by the same
//! [`write_sweep`] as the batch checkpoint's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tgdkit_chase::checkpoint::{
    open, open_governed, read_sweep, seal, write_sweep, CheckpointReader, CheckpointWriter,
    KIND_REWRITE,
};
use tgdkit_chase::{CancelToken, CheckpointError, SweepState};
use tgdkit_logic::{Schema, TgdVariantKey};

use crate::enumerate::{EnumOptions, Enumeration};
use crate::rewrite::RewriteTarget;

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

/// Suspended state of a rewriting procedure ([`crate::rewrite()`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteCheckpoint {
    /// Target class, so a checkpoint cannot resume the wrong procedure.
    pub(crate) target: RewriteTarget,
    /// [`tgdkit_chase::tgds_fingerprint`] of the input set.
    pub(crate) sigma_fp: u64,
    /// [`keys_fingerprint`] of the enumerated candidate space.
    pub(crate) enum_fp: u64,
    /// Whether the enumeration was exhaustive.
    pub(crate) exhaustive: bool,
    /// The candidate filter's progress: group flags, verdict slots in
    /// enumeration order, counters, taint.
    pub(crate) sweep: SweepState,
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
    pub(crate) target: RewriteTarget,
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
        target: RewriteTarget,
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
        self.sweep.done.iter().filter(|&&d| d).count()
    }

    /// Total body groups in the filtering sweep.
    pub fn groups_total(&self) -> usize {
        self.sweep.done.len()
    }

    /// Candidates in the enumerated space this checkpoint covers.
    pub fn candidates(&self) -> usize {
        self.sweep.verdicts.len()
    }

    /// Serializes into the versioned, checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.u8(self.target.into());
        w.u64(self.sigma_fp);
        w.u64(self.enum_fp);
        w.u8(self.exhaustive as u8);
        write_sweep(&mut w, &self.sweep);
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
        let target = RewriteTarget::try_from(r.u8()?)?;
        let sigma_fp = r.u64()?;
        let enum_fp = r.u64()?;
        let exhaustive = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Malformed("boolean flag")),
        };
        let sweep = read_sweep(&mut r)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(RewriteCheckpoint {
            target,
            sigma_fp,
            enum_fp,
            exhaustive,
            sweep,
            space: SpaceMemo::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::{EntailBatchStats, Entailment};

    fn sample() -> RewriteCheckpoint {
        RewriteCheckpoint {
            target: RewriteTarget::Linear,
            sigma_fp: 0xDEAD_BEEF,
            enum_fp: 42,
            exhaustive: true,
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
                    panics_contained: 1,
                    ..Default::default()
                },
                tainted: true,
            },
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
        let mut payload = open(&sample().encode(), KIND_REWRITE).unwrap().to_vec();
        payload[0] = 7;
        // Re-seal with the bogus tag: checksum is fine, content is not.
        assert!(matches!(
            RewriteCheckpoint::decode(&seal(KIND_REWRITE, &payload)),
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
