//! The WAL batch: one acknowledged unit of knowledge-base change, encoded
//! as a sealed [`KIND_WAL_BATCH`] frame.

use crate::segment::KIND_WAL_BATCH;
use tgdkit_chase::checkpoint::{
    read_facts, seal, write_facts, CheckpointError, CheckpointReader, CheckpointWriter,
};
use tgdkit_instance::Fact;
use tgdkit_logic::Schema;

/// One batch of fact insertions and retractions, stamped with the
/// knowledge base's sequence number at append time. Recovery replays
/// batches strictly in sequence; a frame whose `seq` does not continue
/// the snapshot's is treated as damage and truncated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalBatch {
    /// Sequence number: the number of batches acknowledged before this
    /// one since the store was created (compaction does not reset it).
    pub seq: u64,
    /// Facts added to the base instance.
    pub inserts: Vec<Fact>,
    /// Facts removed from the base instance (retracting a fact that is
    /// merely *derived* leaves the base unchanged).
    pub retracts: Vec<Fact>,
}

impl WalBatch {
    /// Encodes the batch as one sealed frame ready to append.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.u64(self.seq);
        write_facts(&mut w, &self.inserts);
        write_facts(&mut w, &self.retracts);
        seal(KIND_WAL_BATCH, &w.into_payload())
    }

    /// Decodes a verified frame payload (as handed out by
    /// [`scan_frames`](crate::scan_frames)), validating every predicate
    /// and arity against `schema`.
    pub fn decode_payload(payload: &[u8], schema: &Schema) -> Result<Self, CheckpointError> {
        let mut r = CheckpointReader::new(payload);
        let seq = r.u64()?;
        let inserts = read_facts(&mut r, schema)?;
        let retracts = read_facts(&mut r, schema)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed("trailing WAL batch bytes"));
        }
        Ok(WalBatch {
            seq,
            inserts,
            retracts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::checkpoint::open;
    use tgdkit_instance::Elem;
    use tgdkit_logic::parse_tgds;

    #[test]
    fn wal_batch_round_trips() {
        let mut s = Schema::default();
        let _ = parse_tgds(&mut s, "E(x,y) -> P(x).").unwrap();
        let e = s.pred_id("E").unwrap();
        let p = s.pred_id("P").unwrap();
        let batch = WalBatch {
            seq: 42,
            inserts: vec![
                Fact::new(e, vec![Elem(0), Elem(1)]),
                Fact::new(p, vec![Elem(2)]),
            ],
            retracts: vec![Fact::new(e, vec![Elem(3), Elem(3)])],
        };
        let frame = batch.encode();
        let payload = open(&frame, KIND_WAL_BATCH).unwrap();
        let decoded = WalBatch::decode_payload(payload, &s).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn wal_batch_rejects_bad_predicate() {
        let mut s = Schema::default();
        let _ = parse_tgds(&mut s, "E(x,y) -> P(x).").unwrap();
        let e = s.pred_id("E").unwrap();
        let batch = WalBatch {
            seq: 0,
            inserts: vec![Fact::new(e, vec![Elem(0), Elem(1)])],
            retracts: Vec::new(),
        };
        let frame = batch.encode();
        let payload = open(&frame, KIND_WAL_BATCH).unwrap();
        // Decode against a schema missing the predicates: typed error.
        let empty = Schema::default();
        assert!(WalBatch::decode_payload(payload, &empty).is_err());
    }
}
