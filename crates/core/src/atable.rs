//! The Awareness Table (ATable), inspired by the Replicated Dictionary
//! (§6.1).
//!
//! "The table represents the datacenter's extent of knowledge about other
//! DCs. … The entry `T_A[B,C]` contains a TOId, t, that represents B's
//! knowledge about C's records according to A: A is certain that B knows
//! about all records generated at host DC C up to record t."
//!
//! Row `i` is datacenter `i`'s applied cut (a [`VersionVector`]); the whole
//! table is the transitive-knowledge matrix that drives propagation
//! filtering and garbage collection.

use std::fmt;

use chariots_types::{DatacenterId, TOId, VersionVector};

/// An n×n awareness table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ATable {
    n: usize,
    /// Row-major: `cells[i * n + j] = T[i][j]`.
    cells: Vec<TOId>,
}

impl ATable {
    /// An all-zero table for `n` datacenters ("the ATable entries are set
    /// to zero" at initialization).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one datacenter");
        ATable {
            n,
            cells: vec![TOId::NONE; n * n],
        }
    }

    /// Number of datacenters covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never zero; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, i: DatacenterId, j: DatacenterId) -> usize {
        debug_assert!(i.index() < self.n && j.index() < self.n);
        i.index() * self.n + j.index()
    }

    /// `T[i][j]`: how much of `j`'s history datacenter `i` is known to
    /// have.
    #[inline]
    pub fn get(&self, i: DatacenterId, j: DatacenterId) -> TOId {
        self.cells[self.idx(i, j)]
    }

    /// Raises `T[i][j]` to `t` (never lowers — knowledge is monotone).
    /// Returns whether the cell actually rose.
    pub fn observe(&mut self, i: DatacenterId, j: DatacenterId, t: TOId) -> bool {
        let idx = self.idx(i, j);
        if t > self.cells[idx] {
            self.cells[idx] = t;
            true
        } else {
            false
        }
    }

    /// Replaces row `i` with the pointwise max of itself and `row` —
    /// how a datacenter incorporates a peer's gossiped applied cut.
    /// Returns whether any cell rose (stale gossip merges to `false`).
    pub fn merge_row(&mut self, i: DatacenterId, row: &VersionVector) -> bool {
        let mut rose = false;
        for j in 0..self.n {
            let dc = DatacenterId(j as u16);
            rose |= self.observe(i, dc, row.get(dc));
        }
        rose
    }

    /// Pointwise max with an entire table (full ATable exchange, as in the
    /// abstract solution's *Propagate*).
    pub fn merge(&mut self, other: &ATable) {
        assert_eq!(self.n, other.n, "tables must cover the same deployment");
        for (mine, theirs) in self.cells.iter_mut().zip(other.cells.iter()) {
            if theirs > mine {
                *mine = *theirs;
            }
        }
    }

    /// Row `i` as a version vector (datacenter `i`'s applied cut).
    pub fn row(&self, i: DatacenterId) -> VersionVector {
        let mut v = VersionVector::new(self.n);
        for j in 0..self.n {
            let dc = DatacenterId(j as u16);
            v.set(dc, self.get(i, dc));
        }
        v
    }

    /// Whether, according to this table, datacenter `j` knows record
    /// `(host, toid)`.
    #[inline]
    pub fn knows(&self, j: DatacenterId, host: DatacenterId, toid: TOId) -> bool {
        self.get(j, host) >= toid
    }

    /// The garbage-collection bound for records hosted at `host`: the
    /// largest TOId known by *every* datacenter. A record `r` of `host` may
    /// be collected iff `toid(r) ≤ gc_bound(host)` — "a record can be
    /// garbage collected at i if and only if ∀j (T_i[j, host(r)] ≥ ts(r))".
    pub fn gc_bound(&self, host: DatacenterId) -> TOId {
        (0..self.n)
            .map(|j| self.get(DatacenterId(j as u16), host))
            .min()
            .unwrap_or(TOId::NONE)
    }
}

impl fmt::Display for ATable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}:", DatacenterId(i as u16))?;
            for j in 0..self.n {
                write!(
                    f,
                    " {}",
                    self.get(DatacenterId(i as u16), DatacenterId(j as u16)).0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u16) -> DatacenterId {
        DatacenterId(i)
    }

    #[test]
    fn new_table_is_all_zero() {
        let t = ATable::new(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.get(dc(i), dc(j)), TOId::NONE);
            }
        }
    }

    #[test]
    fn observe_is_monotone() {
        let mut t = ATable::new(2);
        t.observe(dc(0), dc(1), TOId(5));
        assert_eq!(t.get(dc(0), dc(1)), TOId(5));
        t.observe(dc(0), dc(1), TOId(3));
        assert_eq!(t.get(dc(0), dc(1)), TOId(5));
    }

    #[test]
    fn merge_row_takes_pointwise_max() {
        let mut t = ATable::new(3);
        t.observe(dc(1), dc(0), TOId(4));
        let row = VersionVector::from_entries(vec![TOId(2), TOId(7), TOId(1)]);
        assert!(t.merge_row(dc(1), &row), "knowledge rose");
        assert_eq!(t.get(dc(1), dc(0)), TOId(4), "kept the larger");
        assert_eq!(t.get(dc(1), dc(1)), TOId(7));
        assert_eq!(t.get(dc(1), dc(2)), TOId(1));
    }

    #[test]
    fn redundant_merges_report_no_rise() {
        let mut t = ATable::new(2);
        let row = VersionVector::from_entries(vec![TOId(3), TOId(5)]);
        assert!(t.merge_row(dc(0), &row));
        // A duplicated delivery of the same cut changes nothing.
        assert!(!t.merge_row(dc(0), &row));
        assert!(!t.observe(dc(0), dc(1), TOId(4)), "stale observe");
        assert!(t.observe(dc(0), dc(1), TOId(6)));
    }

    #[test]
    fn merge_tables() {
        let mut a = ATable::new(2);
        let mut b = ATable::new(2);
        a.observe(dc(0), dc(0), TOId(3));
        b.observe(dc(0), dc(0), TOId(1));
        b.observe(dc(1), dc(0), TOId(9));
        a.merge(&b);
        assert_eq!(a.get(dc(0), dc(0)), TOId(3));
        assert_eq!(a.get(dc(1), dc(0)), TOId(9));
    }

    #[test]
    fn knows_checks_cell() {
        let mut t = ATable::new(2);
        t.observe(dc(1), dc(0), TOId(5));
        assert!(t.knows(dc(1), dc(0), TOId(5)));
        assert!(t.knows(dc(1), dc(0), TOId(1)));
        assert!(!t.knows(dc(1), dc(0), TOId(6)));
    }

    #[test]
    fn gc_bound_is_min_over_replicas() {
        let mut t = ATable::new(3);
        // Everyone's knowledge of host 0's records: 5, 3, 7.
        t.observe(dc(0), dc(0), TOId(5));
        t.observe(dc(1), dc(0), TOId(3));
        t.observe(dc(2), dc(0), TOId(7));
        assert_eq!(t.gc_bound(dc(0)), TOId(3));
        // Host 1 unknown anywhere: bound is NONE (collect nothing).
        assert_eq!(t.gc_bound(dc(1)), TOId::NONE);
    }

    #[test]
    fn row_roundtrip() {
        let mut t = ATable::new(3);
        t.observe(dc(2), dc(0), TOId(1));
        t.observe(dc(2), dc(2), TOId(4));
        let row = t.row(dc(2));
        assert_eq!(
            row,
            VersionVector::from_entries(vec![TOId(1), TOId::NONE, TOId(4)])
        );
    }
}
