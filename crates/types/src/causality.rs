//! Causal metadata: version vectors over per-datacenter total orders.
//!
//! Chariots orders the replicated log by *causality* (§3): records created at
//! the same datacenter are totally ordered by their [`TOId`]s, and a record
//! must appear after everything its appender had observed. Because each
//! datacenter's records are already totally ordered, a causal cut is fully
//! described by one `TOId` per datacenter — a **version vector**. A record's
//! dependency vector is the cut its host datacenter had incorporated when the
//! record was appended.

use std::fmt;

use crate::ids::{DatacenterId, TOId};

/// A causal cut: for every datacenter, the highest `TOId` included in the cut.
///
/// `VersionVector` is fixed-size (one entry per datacenter in the
/// deployment). Entry `d` holds the largest `TOId` of datacenter `d`'s
/// records contained in the cut, with [`TOId::NONE`] meaning "none".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionVector {
    entries: Vec<TOId>,
}

impl VersionVector {
    /// An all-zero vector for a deployment of `num_datacenters` replicas.
    pub fn new(num_datacenters: usize) -> Self {
        VersionVector {
            entries: vec![TOId::NONE; num_datacenters],
        }
    }

    /// Builds a vector directly from per-datacenter entries.
    pub fn from_entries(entries: Vec<TOId>) -> Self {
        VersionVector { entries }
    }

    /// Number of datacenters this vector covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector covers zero datacenters (degenerate deployments).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cut's entry for datacenter `dc`.
    ///
    /// Out-of-range datacenters (possible transiently while a deployment is
    /// growing) read as [`TOId::NONE`].
    #[inline]
    pub fn get(&self, dc: DatacenterId) -> TOId {
        self.entries.get(dc.index()).copied().unwrap_or(TOId::NONE)
    }

    /// Sets the entry for `dc`, growing the vector if needed.
    pub fn set(&mut self, dc: DatacenterId, toid: TOId) {
        if dc.index() >= self.entries.len() {
            self.entries.resize(dc.index() + 1, TOId::NONE);
        }
        self.entries[dc.index()] = toid;
    }

    /// Raises the entry for `dc` to `toid` if it is currently lower.
    pub fn observe(&mut self, dc: DatacenterId, toid: TOId) {
        if toid > self.get(dc) {
            self.set(dc, toid);
        }
    }

    /// Pointwise maximum with `other` (join in the version-vector lattice).
    pub fn merge(&mut self, other: &VersionVector) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), TOId::NONE);
        }
        for (mine, theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            if theirs > mine {
                *mine = *theirs;
            }
        }
    }

    /// Whether every entry of `self` is ≥ the matching entry of `other`.
    ///
    /// When the *applied* vector of a replica dominates a record's dependency
    /// vector, all of that record's causal dependencies are already in the
    /// replica's log and the record may be assigned an `LId`.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        let n = self.entries.len().max(other.entries.len());
        (0..n).all(|i| {
            let mine = self.entries.get(i).copied().unwrap_or(TOId::NONE);
            let theirs = other.entries.get(i).copied().unwrap_or(TOId::NONE);
            mine >= theirs
        })
    }

    /// Whether the cut contains record `toid` of datacenter `dc`.
    #[inline]
    pub fn covers(&self, dc: DatacenterId, toid: TOId) -> bool {
        self.get(dc) >= toid
    }

    /// Iterates `(datacenter, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DatacenterId, TOId)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &t)| (DatacenterId(i as u16), t))
    }

    /// Sum of all entries — a scalar progress measure used by tests and the
    /// bench harness (total records covered by the cut).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|t| t.as_u64()).sum()
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", t.0)?;
        }
        write!(f, "]")
    }
}

/// Outcome of comparing two version vectors in the causal partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalOrder {
    /// The vectors are identical.
    Equal,
    /// The left cut is strictly contained in the right.
    Before,
    /// The left cut strictly contains the right.
    After,
    /// Neither contains the other: the cuts are concurrent.
    Concurrent,
}

/// Compares two cuts in the causal partial order.
pub fn compare(a: &VersionVector, b: &VersionVector) -> CausalOrder {
    let a_dom = a.dominates(b);
    let b_dom = b.dominates(a);
    match (a_dom, b_dom) {
        (true, true) => CausalOrder::Equal,
        (true, false) => CausalOrder::After,
        (false, true) => CausalOrder::Before,
        (false, false) => CausalOrder::Concurrent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u16) -> DatacenterId {
        DatacenterId(i)
    }

    #[test]
    fn new_vector_is_all_none() {
        let v = VersionVector::new(3);
        assert_eq!(v.len(), 3);
        for (_, t) in v.iter() {
            assert_eq!(t, TOId::NONE);
        }
        assert_eq!(v.total(), 0);
    }

    #[test]
    fn observe_only_raises() {
        let mut v = VersionVector::new(2);
        v.observe(dc(0), TOId(5));
        assert_eq!(v.get(dc(0)), TOId(5));
        v.observe(dc(0), TOId(3));
        assert_eq!(v.get(dc(0)), TOId(5), "observe must never lower an entry");
        v.observe(dc(0), TOId(9));
        assert_eq!(v.get(dc(0)), TOId(9));
    }

    #[test]
    fn set_grows_vector() {
        let mut v = VersionVector::new(1);
        v.set(dc(4), TOId(2));
        assert_eq!(v.len(), 5);
        assert_eq!(v.get(dc(4)), TOId(2));
        assert_eq!(v.get(dc(2)), TOId::NONE);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let v = VersionVector::new(2);
        assert_eq!(v.get(dc(9)), TOId::NONE);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VersionVector::from_entries(vec![TOId(3), TOId(1), TOId(0)]);
        let b = VersionVector::from_entries(vec![TOId(2), TOId(5), TOId(1)]);
        a.merge(&b);
        assert_eq!(
            a,
            VersionVector::from_entries(vec![TOId(3), TOId(5), TOId(1)])
        );
    }

    #[test]
    fn merge_grows_to_longer_vector() {
        let mut a = VersionVector::from_entries(vec![TOId(3)]);
        let b = VersionVector::from_entries(vec![TOId(1), TOId(2)]);
        a.merge(&b);
        assert_eq!(a, VersionVector::from_entries(vec![TOId(3), TOId(2)]));
    }

    #[test]
    fn dominates_handles_unequal_lengths() {
        let a = VersionVector::from_entries(vec![TOId(3), TOId(0)]);
        let b = VersionVector::from_entries(vec![TOId(3)]);
        assert!(a.dominates(&b));
        assert!(b.dominates(&a), "trailing NONE entries are implicit");
    }

    #[test]
    fn covers_checks_single_entry() {
        let v = VersionVector::from_entries(vec![TOId(2), TOId(7)]);
        assert!(v.covers(dc(1), TOId(7)));
        assert!(v.covers(dc(1), TOId(1)));
        assert!(!v.covers(dc(1), TOId(8)));
        assert!(!v.covers(dc(0), TOId(3)));
        // TOId::NONE is covered by anything.
        assert!(v.covers(dc(5), TOId::NONE));
    }

    #[test]
    fn compare_detects_all_relations() {
        let a = VersionVector::from_entries(vec![TOId(1), TOId(1)]);
        let b = VersionVector::from_entries(vec![TOId(2), TOId(1)]);
        let c = VersionVector::from_entries(vec![TOId(1), TOId(2)]);
        assert_eq!(compare(&a, &a), CausalOrder::Equal);
        assert_eq!(compare(&a, &b), CausalOrder::Before);
        assert_eq!(compare(&b, &a), CausalOrder::After);
        assert_eq!(compare(&b, &c), CausalOrder::Concurrent);
    }

    #[test]
    fn total_sums_entries() {
        let v = VersionVector::from_entries(vec![TOId(2), TOId(7), TOId(1)]);
        assert_eq!(v.total(), 10);
    }

    #[test]
    fn display_is_compact() {
        let v = VersionVector::from_entries(vec![TOId(2), TOId(7)]);
        assert_eq!(v.to_string(), "[2,7]");
    }
}
