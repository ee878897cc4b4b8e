//! Messages flowing through the Chariots pipeline (§6.2) and between
//! datacenters.

use std::sync::Arc;

use bytes::Bytes;
use chariots_simnet::ReplyTo;
use chariots_types::{
    DatacenterId, LId, Record, TOId, TagSet, TraceId, VersionVector, Wire, WireReader,
};

/// A locally originated append, not yet assigned a `TOId`.
///
/// The total order of a datacenter's records is decided where the log order
/// is decided — at the queues stage, under the token. Until then a local
/// append carries only what the client supplied: tags, body, and the
/// client's causal context.
#[derive(Debug)]
pub struct LocalAppend {
    /// System-visible tags.
    pub tags: TagSet,
    /// Opaque body.
    pub body: Bytes,
    /// The client's causal context: every record it has observed. The
    /// assigned record is ordered after all of them.
    pub deps: VersionVector,
    /// Where to deliver the assigned `(TOId, LId)` ("the assigned TOId and
    /// LId will be sent back to the Application client", §3). `None` for
    /// open-loop load generation. A [`ReplyTo`] so the slot survives a TCP
    /// hop: serialized, it becomes a dial-back token the queue answers
    /// across the wire.
    pub reply: Option<ReplyTo<(TOId, LId)>>,
    /// Observability: set on a sampled subset of appends so the pipeline
    /// stages stamp per-stage enter/exit times for this record.
    pub trace: Option<TraceId>,
}

/// One record entering the pipeline: either a fresh local append or a fully
/// formed external record received from another datacenter.
#[derive(Debug)]
pub enum Incoming {
    /// A local append awaiting `TOId` and `LId` assignment.
    Local(LocalAppend),
    /// A replica copy of a record created elsewhere.
    External(Record),
}

impl Wire for LocalAppend {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tags.encode(buf);
        self.body.encode(buf);
        self.deps.encode(buf);
        self.reply.encode(buf);
        self.trace.encode(buf);
    }

    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(LocalAppend {
            tags: TagSet::decode(r)?,
            body: Bytes::decode(r)?,
            deps: VersionVector::decode(r)?,
            reply: Option::<ReplyTo<(TOId, LId)>>::decode(r)?,
            trace: Option::<TraceId>::decode(r)?,
        })
    }
}

impl Wire for Incoming {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Incoming::Local(l) => {
                buf.push(0);
                l.encode(buf);
            }
            Incoming::External(record) => {
                buf.push(1);
                record.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(Incoming::Local(LocalAppend::decode(r)?)),
            1 => Some(Incoming::External(Record::decode(r)?)),
            _ => None,
        }
    }
}

impl Incoming {
    /// Approximate wire/memory size, for bandwidth-modelled links and
    /// batching decisions.
    pub fn wire_size(&self) -> usize {
        match self {
            Incoming::Local(l) => 16 + l.body.len() + l.deps.len() * 8,
            Incoming::External(r) => r.wire_size(),
        }
    }

    /// Whether a caller is blocked on this record's `(TOId, LId)`.
    #[inline]
    pub fn awaits_reply(&self) -> bool {
        matches!(self, Incoming::Local(l) if l.reply.is_some())
    }

    /// The record's trace id, if this record is sampled for tracing.
    #[inline]
    pub fn trace(&self) -> Option<TraceId> {
        match self {
            Incoming::Local(l) => l.trace,
            Incoming::External(r) => r.trace,
        }
    }
}

/// A propagation message between datacenters: "the local log and ATable are
/// continuously being propagated to other DCs" (§6.1). In the distributed
/// design each **sender** machine ships the local records it is responsible
/// for (§6.2), together with the sending datacenter's applied cut — the
/// ATable row other datacenters need for propagation filtering and garbage
/// collection.
#[derive(Debug, Clone)]
pub struct PropagationMsg {
    /// The sending datacenter.
    pub from: DatacenterId,
    /// Local records of `from`, in `TOId` order (within this sender's
    /// subset of the log). Shared, not owned: a sender builds each chunk
    /// once and fans the same allocation out to every peer that needs the
    /// range, so cloning the message (links duplicate, receivers share a
    /// channel) never deep-copies the payload.
    pub records: Arc<[Record]>,
    /// `from`'s applied cut (row `from` of its ATable).
    pub applied: VersionVector,
}

impl PropagationMsg {
    /// Approximate wire size for bandwidth-modelled WAN links.
    pub fn wire_size(&self) -> usize {
        8 + self.applied.len() * 8 + self.records.iter().map(Record::wire_size).sum::<usize>()
    }
}

/// A batch of incoming records forwarded from one pipeline stage to the
/// next.
#[derive(Debug)]
pub struct Batch {
    /// The records.
    pub records: Vec<Incoming>,
}

/// The reply side of a client append.
pub type AppendReply = (TOId, LId);

/// Placeholder re-export so stage modules share one vocabulary.
pub type AssignedId = (TOId, LId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Incoming::Local(LocalAppend {
            tags: TagSet::new(),
            body: Bytes::from_static(b"x"),
            deps: VersionVector::new(2),
            reply: None,
            trace: None,
        });
        let big = Incoming::Local(LocalAppend {
            tags: TagSet::new(),
            body: Bytes::from(vec![0u8; 512]),
            deps: VersionVector::new(2),
            reply: None,
            trace: None,
        });
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn propagation_msg_size_counts_records() {
        use chariots_types::RecordId;
        let record = Record::new(
            RecordId::new(DatacenterId(0), TOId(1)),
            VersionVector::new(2),
            TagSet::new(),
            Bytes::from(vec![0u8; 100]),
        );
        let empty = PropagationMsg {
            from: DatacenterId(0),
            records: Arc::from(vec![]),
            applied: VersionVector::new(2),
        };
        let one = PropagationMsg {
            from: DatacenterId(0),
            records: Arc::from(vec![record]),
            applied: VersionVector::new(2),
        };
        assert!(one.wire_size() >= empty.wire_size() + 100);
    }
}
