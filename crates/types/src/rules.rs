//! Read rules: the predicate language of the `Read(in: rules, out: records)`
//! API (§3).
//!
//! A rule "might involve TOIds, LIds, and tags information"; tag lookups may
//! constrain the value and bound the number of results ("return the most
//! recent 100 record LIds", §5.3).

use crate::ids::{DatacenterId, LId, TOId};
use crate::record::{Entry, TagValue};

/// A comparison predicate over a tag's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuePredicate {
    /// Value equals the operand.
    Eq(TagValue),
    /// Value is strictly greater than the operand.
    Gt(TagValue),
    /// Value is greater than or equal to the operand.
    Ge(TagValue),
    /// Value is strictly less than the operand.
    Lt(TagValue),
    /// Value is less than or equal to the operand.
    Le(TagValue),
}

impl ValuePredicate {
    /// Evaluates the predicate against a tag value; a missing value never
    /// matches.
    pub fn matches(&self, value: Option<&TagValue>) -> bool {
        let Some(v) = value else { return false };
        match self {
            ValuePredicate::Eq(op) => v == op,
            ValuePredicate::Gt(op) => v > op,
            ValuePredicate::Ge(op) => v >= op,
            ValuePredicate::Lt(op) => v < op,
            ValuePredicate::Le(op) => v <= op,
        }
    }
}

/// One atomic read condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// The copy's `LId` equals the operand.
    LIdEq(LId),
    /// The copy's `LId` is strictly below the operand (used by Hyksos
    /// get-transactions: "read the most recent write at a position less than
    /// the snapshot head", Alg. 1).
    LIdBelow(LId),
    /// The copy's `LId` lies in the inclusive range.
    LIdRange(LId, LId),
    /// The record was created at `host` with exactly this `TOId`.
    TOIdEq(DatacenterId, TOId),
    /// The record was created at `host`.
    FromHost(DatacenterId),
    /// The record carries a tag with this key.
    HasTag(String),
    /// The record carries a tag with this key whose value satisfies the
    /// predicate.
    TagValue(String, ValuePredicate),
}

impl Condition {
    /// Whether `entry` satisfies this condition.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Condition::LIdEq(lid) => entry.lid == *lid,
            Condition::LIdBelow(lid) => entry.lid < *lid,
            Condition::LIdRange(lo, hi) => entry.lid >= *lo && entry.lid <= *hi,
            Condition::TOIdEq(host, toid) => {
                entry.record.host() == *host && entry.record.toid() == *toid
            }
            Condition::FromHost(host) => entry.record.host() == *host,
            Condition::HasTag(key) => entry.record.tags.contains_key(key),
            Condition::TagValue(key, pred) => entry
                .record
                .tags
                .iter()
                .any(|t| t.key == *key && pred.matches(t.value.as_ref())),
        }
    }
}

/// How many matches to return, and from which end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// All matching records, in `LId` order.
    All,
    /// The `n` matches with the highest `LId`s ("most recent"), returned in
    /// descending `LId` order.
    MostRecent(usize),
    /// The `n` matches with the lowest `LId`s, in ascending order.
    Oldest(usize),
}

/// A complete read rule: the conjunction of all conditions, bounded by a
/// limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRule {
    /// Conditions; a record matches when it satisfies all of them.
    pub conditions: Vec<Condition>,
    /// Result bound and direction.
    pub limit: Limit,
}

impl ReadRule {
    /// A rule with no conditions returning everything.
    pub fn all() -> Self {
        ReadRule {
            conditions: Vec::new(),
            limit: Limit::All,
        }
    }

    /// Starts a rule from one condition.
    pub fn where_(condition: Condition) -> Self {
        ReadRule {
            conditions: vec![condition],
            limit: Limit::All,
        }
    }

    /// Adds a condition (conjunction).
    pub fn and(mut self, condition: Condition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Bounds the result to the `n` most recent matches.
    pub fn most_recent(mut self, n: usize) -> Self {
        self.limit = Limit::MostRecent(n);
        self
    }

    /// Bounds the result to the `n` oldest matches.
    pub fn oldest(mut self, n: usize) -> Self {
        self.limit = Limit::Oldest(n);
        self
    }

    /// Whether `entry` satisfies every condition.
    pub fn matches(&self, entry: &Entry) -> bool {
        self.conditions.iter().all(|c| c.matches(entry))
    }

    /// Applies the rule to an iterator of entries **in ascending `LId`
    /// order**, producing the limited result set.
    pub fn apply<'a, I>(&self, entries: I) -> Vec<Entry>
    where
        I: Iterator<Item = &'a Entry>,
    {
        let mut matched: Vec<Entry> = entries.filter(|e| self.matches(e)).cloned().collect();
        match self.limit {
            Limit::All => matched,
            Limit::Oldest(n) => {
                matched.truncate(n);
                matched
            }
            Limit::MostRecent(n) => {
                let skip = matched.len().saturating_sub(n);
                let mut recent: Vec<Entry> = matched.split_off(skip);
                recent.reverse();
                recent
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causality::VersionVector;
    use crate::ids::RecordId;
    use crate::record::{Record, Tag, TagSet};
    use bytes::Bytes;

    fn entry(lid: u64, host: u16, toid: u64, tags: TagSet) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(host), TOId(toid)),
                VersionVector::new(2),
                tags,
                Bytes::new(),
            ),
        )
    }

    fn sample_log() -> Vec<Entry> {
        vec![
            entry(0, 0, 1, TagSet::new().with(Tag::with_value("key", "x"))),
            entry(1, 1, 1, TagSet::new().with(Tag::with_value("key", "y"))),
            entry(2, 0, 2, TagSet::new().with(Tag::with_value("key", "x"))),
            entry(3, 1, 2, TagSet::new().with(Tag::with_value("seq", 10i64))),
            entry(4, 0, 3, TagSet::new().with(Tag::with_value("seq", 20i64))),
        ]
    }

    #[test]
    fn value_predicates() {
        let v = TagValue::Int(10);
        assert!(ValuePredicate::Eq(TagValue::Int(10)).matches(Some(&v)));
        assert!(ValuePredicate::Gt(TagValue::Int(9)).matches(Some(&v)));
        assert!(!ValuePredicate::Gt(TagValue::Int(10)).matches(Some(&v)));
        assert!(ValuePredicate::Ge(TagValue::Int(10)).matches(Some(&v)));
        assert!(ValuePredicate::Lt(TagValue::Int(11)).matches(Some(&v)));
        assert!(ValuePredicate::Le(TagValue::Int(10)).matches(Some(&v)));
        assert!(!ValuePredicate::Eq(TagValue::Int(10)).matches(None));
    }

    #[test]
    fn lid_conditions() {
        let log = sample_log();
        assert!(Condition::LIdEq(LId(2)).matches(&log[2]));
        assert!(Condition::LIdBelow(LId(3)).matches(&log[2]));
        assert!(!Condition::LIdBelow(LId(2)).matches(&log[2]));
        assert!(Condition::LIdRange(LId(1), LId(3)).matches(&log[3]));
        assert!(!Condition::LIdRange(LId(1), LId(3)).matches(&log[4]));
    }

    #[test]
    fn toid_and_host_conditions() {
        let log = sample_log();
        assert!(Condition::TOIdEq(DatacenterId(1), TOId(2)).matches(&log[3]));
        assert!(!Condition::TOIdEq(DatacenterId(0), TOId(2)).matches(&log[3]));
        assert!(Condition::FromHost(DatacenterId(0)).matches(&log[0]));
        assert!(!Condition::FromHost(DatacenterId(0)).matches(&log[1]));
    }

    #[test]
    fn tag_conditions() {
        let log = sample_log();
        assert!(Condition::HasTag("key".into()).matches(&log[0]));
        assert!(!Condition::HasTag("seq".into()).matches(&log[0]));
        let pred = Condition::TagValue("seq".into(), ValuePredicate::Gt(TagValue::Int(15)));
        assert!(pred.matches(&log[4]));
        assert!(!pred.matches(&log[3]));
    }

    #[test]
    fn rule_conjunction() {
        let log = sample_log();
        let rule = ReadRule::where_(Condition::HasTag("key".into()))
            .and(Condition::FromHost(DatacenterId(0)));
        let hits = rule.apply(log.iter());
        assert_eq!(
            hits.iter().map(|e| e.lid).collect::<Vec<_>>(),
            vec![LId(0), LId(2)]
        );
    }

    #[test]
    fn most_recent_returns_descending() {
        let log = sample_log();
        // Hyksos-style lookup: most recent write to key x below the head.
        let rule = ReadRule::where_(Condition::TagValue(
            "key".into(),
            ValuePredicate::Eq(TagValue::Str("x".into())),
        ))
        .and(Condition::LIdBelow(LId(5)))
        .most_recent(1);
        let hits = rule.apply(log.iter());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lid, LId(2));
    }

    #[test]
    fn most_recent_larger_than_matches_returns_all() {
        let log = sample_log();
        let rule = ReadRule::where_(Condition::HasTag("seq".into())).most_recent(10);
        let hits = rule.apply(log.iter());
        assert_eq!(
            hits.iter().map(|e| e.lid).collect::<Vec<_>>(),
            vec![LId(4), LId(3)]
        );
    }

    #[test]
    fn oldest_truncates_front() {
        let log = sample_log();
        let rule = ReadRule::all().oldest(2);
        let hits = rule.apply(log.iter());
        assert_eq!(
            hits.iter().map(|e| e.lid).collect::<Vec<_>>(),
            vec![LId(0), LId(1)]
        );
    }

    #[test]
    fn empty_rule_matches_everything() {
        let log = sample_log();
        assert_eq!(ReadRule::all().apply(log.iter()).len(), log.len());
    }
}
