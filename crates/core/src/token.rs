//! The queue token (§6.2): the circulating capability to assign `LId`s.
//!
//! "Queues ensure causality of LId assignments by the use of a token. The
//! token consists of the current maximum TOId of each datacenter in the
//! local log, the LId of the most recent record, and the deferred records
//! with unsatisfied dependencies. … The token is sent to the next
//! [queue] in a round-robin fashion."

use std::collections::BTreeMap;

use chariots_types::{DatacenterId, LId, Record, RecordId, TOId, VersionVector};

use crate::message::LocalAppend;

/// The token circulating among the queues stage.
#[derive(Debug)]
pub struct Token {
    /// "The current maximum TOId of each datacenter in the local log."
    pub applied: VersionVector,
    /// The next `LId` to assign (successor of "the LId of the most recent
    /// record").
    pub next_lid: LId,
    /// External records whose dependencies are not yet satisfied, keyed by
    /// identity so redeliveries collapse. Carried with the token when the
    /// deployment's `token_carries_deferred` policy is on.
    pub deferred: BTreeMap<RecordId, Record>,
    /// Local appends whose client context is not yet satisfied.
    pub deferred_local: Vec<LocalAppend>,
}

impl Token {
    /// The initial token for a deployment of `num_datacenters`.
    pub fn new(num_datacenters: usize) -> Self {
        Token {
            applied: VersionVector::new(num_datacenters),
            next_lid: LId::ZERO,
            deferred: BTreeMap::new(),
            deferred_local: Vec::new(),
        }
    }

    /// Whether an external record is ready for `LId` assignment: it must be
    /// the next record of its host's total order, and its causal cut must
    /// be contained in the applied cut.
    pub fn can_apply(&self, record: &Record) -> bool {
        record.toid() == self.applied.get(record.host()).next()
            && self.applied.dominates(&record.deps)
    }

    /// Whether an external record is a duplicate of one already in the log.
    pub fn is_duplicate(&self, record: &Record) -> bool {
        self.applied.covers(record.host(), record.toid())
    }

    /// Assigns the next `LId` to an applicable external record, updating
    /// the applied cut. Caller must have checked [`can_apply`](Self::can_apply).
    pub fn assign_external(&mut self, record: &Record) -> LId {
        debug_assert!(self.can_apply(record));
        let lid = self.next_lid;
        self.next_lid = lid.next();
        self.applied.set(record.host(), record.toid());
        lid
    }

    /// Assigns the next `(TOId, LId)` to a local append for datacenter
    /// `dc`, updating the applied cut.
    pub fn assign_local(&mut self, dc: DatacenterId) -> (TOId, LId) {
        let toid = self.applied.get(dc).next();
        let lid = self.next_lid;
        self.next_lid = lid.next();
        self.applied.set(dc, toid);
        (toid, lid)
    }

    /// Total records parked on the token.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len() + self.deferred_local.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_types::TagSet;

    fn record(host: u16, toid: u64, deps: Vec<u64>) -> Record {
        Record::new(
            RecordId::new(DatacenterId(host), TOId(toid)),
            VersionVector::from_entries(deps.into_iter().map(TOId).collect()),
            TagSet::new(),
            Bytes::new(),
        )
    }

    #[test]
    fn fresh_token_applies_first_records_only() {
        let t = Token::new(2);
        assert!(t.can_apply(&record(0, 1, vec![0, 0])));
        assert!(t.can_apply(&record(1, 1, vec![0, 0])));
        assert!(!t.can_apply(&record(0, 2, vec![0, 0])), "gap in host order");
        assert!(
            !t.can_apply(&record(1, 1, vec![1, 0])),
            "dependency not in log"
        );
    }

    #[test]
    fn assign_external_advances_cut_and_lid() {
        let mut t = Token::new(2);
        let r1 = record(0, 1, vec![0, 0]);
        assert_eq!(t.assign_external(&r1), LId(0));
        assert_eq!(t.applied.get(DatacenterId(0)), TOId(1));
        let r2 = record(0, 2, vec![1, 0]);
        assert!(t.can_apply(&r2));
        assert_eq!(t.assign_external(&r2), LId(1));
        assert_eq!(t.next_lid, LId(2));
    }

    #[test]
    fn assign_local_interleaves_with_external() {
        let mut t = Token::new(2);
        let (toid, lid) = t.assign_local(DatacenterId(0));
        assert_eq!((toid, lid), (TOId(1), LId(0)));
        let ext = record(1, 1, vec![0, 0]);
        assert_eq!(t.assign_external(&ext), LId(1));
        let (toid, lid) = t.assign_local(DatacenterId(0));
        assert_eq!((toid, lid), (TOId(2), LId(2)));
    }

    #[test]
    fn duplicates_are_detected() {
        let mut t = Token::new(2);
        let r = record(1, 1, vec![0, 0]);
        t.assign_external(&r);
        assert!(t.is_duplicate(&r));
        assert!(!t.is_duplicate(&record(1, 2, vec![0, 1])));
    }

    #[test]
    fn deferred_dedupes_by_identity() {
        let mut t = Token::new(2);
        let r = record(1, 2, vec![0, 1]); // not applicable yet
        t.deferred.insert(r.id, r.clone());
        t.deferred.insert(r.id, r);
        assert_eq!(t.deferred_len(), 1);
    }
}
