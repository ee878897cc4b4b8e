//! Log records and their application-visible tags.
//!
//! A record's **body** is opaque to Chariots; **tags** are key/value pairs
//! the system can see and index (§3, §5.3). The record also carries the
//! meta-information the paper lists: its host datacenter and `TOId`
//! (combined in [`RecordId`]), and — once persisted at a datacenter — the
//! `LId` of that copy.

use std::fmt;

use bytes::Bytes;

use crate::causality::VersionVector;
use crate::ids::{DatacenterId, LId, RecordId, TOId, TraceId};

/// The value attached to a tag, if any.
///
/// Values participate in indexer lookup predicates (§5.3): "look up records
/// with a certain tag with values greater than *i*".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TagValue {
    /// An integer value, comparable in lookup rules.
    Int(i64),
    /// A string value, comparable lexicographically.
    Str(String),
}

impl fmt::Display for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagValue::Int(i) => write!(f, "{i}"),
            TagValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for TagValue {
    fn from(v: i64) -> Self {
        TagValue::Int(v)
    }
}

impl From<&str> for TagValue {
    fn from(v: &str) -> Self {
        TagValue::Str(v.to_owned())
    }
}

impl From<String> for TagValue {
    fn from(v: String) -> Self {
        TagValue::Str(v)
    }
}

/// One tag: a key naming a feature of the record, optionally with a value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tag {
    /// The tag's name; indexers shard and look up by this key.
    pub key: String,
    /// Optional value used by value predicates in lookups.
    pub value: Option<TagValue>,
}

impl Tag {
    /// A bare tag with no value.
    pub fn key(key: impl Into<String>) -> Self {
        Tag {
            key: key.into(),
            value: None,
        }
    }

    /// A tag with a value.
    pub fn with_value(key: impl Into<String>, value: impl Into<TagValue>) -> Self {
        Tag {
            key: key.into(),
            value: Some(value.into()),
        }
    }
}

/// The set of tags attached to one record ("each record might have more than
/// one tag", §5.3). Small-vector semantics: records typically carry 0–4 tags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagSet {
    tags: Vec<Tag>,
}

impl TagSet {
    /// An empty tag set.
    pub fn new() -> Self {
        TagSet::default()
    }

    /// Builds a tag set from tags.
    pub fn from_tags(tags: Vec<Tag>) -> Self {
        TagSet { tags }
    }

    /// Adds a tag (builder style).
    pub fn with(mut self, tag: Tag) -> Self {
        self.tags.push(tag);
        self
    }

    /// Adds a tag in place.
    pub fn push(&mut self, tag: Tag) {
        self.tags.push(tag);
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the record carries no tags.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates the tags.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> {
        self.tags.iter()
    }

    /// First tag with the given key, if any.
    pub fn get(&self, key: &str) -> Option<&Tag> {
        self.tags.iter().find(|t| t.key == key)
    }

    /// Whether any tag has the given key.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

impl FromIterator<Tag> for TagSet {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        TagSet {
            tags: iter.into_iter().collect(),
        }
    }
}

/// A record as created by an application client, before it is assigned a
/// position in any datacenter's log.
///
/// Contains everything the abstract solution's *Append* event attaches
/// (§6.1): host identifier and `TOId` (in [`RecordId`]), causality
/// information ([`VersionVector`]), tags, and the opaque body.
#[derive(Debug, Clone)]
pub struct Record {
    /// Host datacenter + total-order id: the record's global identity.
    pub id: RecordId,
    /// The causal cut the host datacenter had applied when this record was
    /// appended: every record covered by `deps` must precede this record in
    /// every replica's log.
    pub deps: VersionVector,
    /// System-visible tags used for indexing.
    pub tags: TagSet,
    /// Application payload, opaque to Chariots.
    pub body: Bytes,
    /// Observability: set on a sampled subset of records so the pipeline
    /// stages can stamp per-stage enter/exit times. Not part of the
    /// record's identity (excluded from equality); the `Wire` encoding
    /// carries it, across hops and onto disk.
    pub trace: Option<TraceId>,
}

// Trace ids are diagnostic metadata: two copies of a record are the same
// record whether or not either copy happens to be sampled.
impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.deps == other.deps
            && self.tags == other.tags
            && self.body == other.body
    }
}

impl Record {
    /// Creates a record (untraced; see [`Record::with_trace`]).
    pub fn new(id: RecordId, deps: VersionVector, tags: TagSet, body: Bytes) -> Self {
        Record {
            id,
            deps,
            tags,
            body,
            trace: None,
        }
    }

    /// Replaces the record's trace id (builder style).
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }

    /// Host datacenter of the record.
    #[inline]
    pub fn host(&self) -> DatacenterId {
        self.id.host
    }

    /// Total-order id of the record.
    #[inline]
    pub fn toid(&self) -> TOId {
        self.id.toid
    }

    /// Approximate wire size in bytes (body + tags + fixed metadata); used
    /// by the simulated network to model bandwidth.
    pub fn wire_size(&self) -> usize {
        const FIXED: usize = 8 /* id */ + 8 /* lid slot */;
        let tags: usize = self
            .tags
            .iter()
            .map(|t| {
                t.key.len()
                    + match &t.value {
                        Some(TagValue::Int(_)) => 8,
                        Some(TagValue::Str(s)) => s.len(),
                        None => 0,
                    }
            })
            .sum();
        FIXED + self.deps.len() * 8 + tags + self.body.len()
    }
}

/// A record copy persisted in one datacenter's log: the record plus the
/// `LId` of this copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Position of this copy in the local shared log.
    pub lid: LId,
    /// The record itself.
    pub record: Record,
}

impl Entry {
    /// Creates an entry.
    pub fn new(lid: LId, record: Record) -> Self {
        Entry { lid, record }
    }

    /// The record's global identity.
    #[inline]
    pub fn id(&self) -> RecordId {
        self.record.id
    }
}

/// Builder for records, used by application-client libraries.
///
/// The client library fills in identity and causality; applications only
/// supply body and tags, matching the paper's `Append(record, tags)` API.
#[derive(Debug, Clone, Default)]
pub struct RecordBuilder {
    tags: TagSet,
    body: Bytes,
}

impl RecordBuilder {
    /// Starts a new builder with an empty body and no tags.
    pub fn new() -> Self {
        RecordBuilder::default()
    }

    /// Sets the record body.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Attaches a tag.
    pub fn tag(mut self, tag: Tag) -> Self {
        self.tags.push(tag);
        self
    }

    /// Finalizes the record once the client library knows its identity and
    /// dependency cut.
    pub fn build(self, id: RecordId, deps: VersionVector) -> Record {
        Record::new(id, deps, self.tags, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(host: u16, toid: u64) -> RecordId {
        RecordId::new(DatacenterId(host), TOId(toid))
    }

    #[test]
    fn tag_constructors() {
        let bare = Tag::key("commit");
        assert_eq!(bare.key, "commit");
        assert!(bare.value.is_none());

        let valued = Tag::with_value("key", "x");
        assert_eq!(valued.value, Some(TagValue::Str("x".into())));

        let int = Tag::with_value("seq", 42i64);
        assert_eq!(int.value, Some(TagValue::Int(42)));
    }

    #[test]
    fn tagset_lookup() {
        let tags = TagSet::new()
            .with(Tag::with_value("key", "x"))
            .with(Tag::key("put"));
        assert_eq!(tags.len(), 2);
        assert!(tags.contains_key("put"));
        assert!(!tags.contains_key("get"));
        assert_eq!(
            tags.get("key").unwrap().value,
            Some(TagValue::Str("x".into()))
        );
    }

    #[test]
    fn tagset_from_iterator() {
        let tags: TagSet = vec![Tag::key("a"), Tag::key("b")].into_iter().collect();
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn record_accessors() {
        let r = Record::new(
            rid(1, 3),
            VersionVector::new(2),
            TagSet::new(),
            Bytes::from_static(b"payload"),
        );
        assert_eq!(r.host(), DatacenterId(1));
        assert_eq!(r.toid(), TOId(3));
        assert_eq!(&r.body[..], b"payload");
    }

    #[test]
    fn wire_size_counts_body_deps_and_tags() {
        let r = Record::new(
            rid(0, 1),
            VersionVector::new(3),
            TagSet::new().with(Tag::with_value("key", "abc")),
            Bytes::from(vec![0u8; 100]),
        );
        // 16 fixed + 24 deps + (3 key + 3 value) + 100 body
        assert_eq!(r.wire_size(), 16 + 24 + 6 + 100);
    }

    #[test]
    fn builder_defers_identity() {
        let r = RecordBuilder::new()
            .body(Bytes::from_static(b"hello"))
            .tag(Tag::key("greeting"))
            .build(rid(2, 9), VersionVector::new(3));
        assert_eq!(r.id, rid(2, 9));
        assert!(r.tags.contains_key("greeting"));
        assert_eq!(&r.body[..], b"hello");
    }

    #[test]
    fn entry_wraps_record_with_lid() {
        let r = Record::new(
            rid(0, 1),
            VersionVector::new(1),
            TagSet::new(),
            Bytes::new(),
        );
        let e = Entry::new(LId(7), r);
        assert_eq!(e.lid, LId(7));
        assert_eq!(e.id(), rid(0, 1));
    }

    #[test]
    fn trace_id_is_not_part_of_record_identity() {
        let r = Record::new(
            rid(0, 1),
            VersionVector::new(1),
            TagSet::new(),
            Bytes::new(),
        );
        let traced = r.clone().with_trace(Some(TraceId(9)));
        assert_eq!(r, traced, "trace ids are diagnostic, not identity");
    }
}
