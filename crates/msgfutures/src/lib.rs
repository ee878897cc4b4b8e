//! # chariots-msgfutures
//!
//! **Message Futures** and **Helios**-style commit protocols: strongly
//! consistent transactions on geo-replicated data, built over the causally
//! ordered Chariots shared log (§4.3 of *Chariots*, EDBT 2015; protocols
//! from Nawab et al., CIDR 2013 and SIGMOD 2015).
//!
//! The construction follows the papers' architecture: transactions execute
//! optimistically, then a **commit request record** is appended to the
//! causal log. The log's replication ("histories") doubles as the commit
//! protocol's communication: a transaction `t` at datacenter `A` is
//! decidable once `A` has exchanged histories with every other datacenter
//! up to the point where they saw `t` — Message Futures' "waits for other
//! datacenters to send their histories up to the point of t's position in
//! the log". Conflicts are then detected among the **concurrent**
//! transactions (mutually invisible in the causal order), and resolved by
//! a deterministic priority rule that every datacenter evaluates
//! identically, so no coordination beyond the log itself is needed.
//!
//! ## Scope of the reproduction
//!
//! The full Message Futures and Helios protocols include machinery this
//! module simplifies (documented per `DESIGN.md` §3):
//!
//! * Validation is **conservative**: a transaction commits iff it has the
//!   minimum priority among its conflicting concurrent set. This preserves
//!   the headline invariant — *of any set of pairwise-conflicting
//!   concurrent transactions at most one commits, and every datacenter
//!   decides every transaction identically* — at the cost of some commits
//!   the full protocols would allow.
//! * [`CommitPolicy::Helios`] models Helios' conflict-zone optimization by
//!   validating only against the transaction's conflict zone (records not
//!   already visible to it), rather than implementing the RTT lower-bound
//!   calculation.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chariots_core::{ATable, ChariotsClient, ChariotsDc};
use chariots_types::{
    decode_exact, encode_to_vec, wire_struct, ChariotsError, DatacenterId, LId, RecordId, Result,
    TOId, Tag, TagSet, VersionVector,
};
use parking_lot::RwLock;

/// Tag marking transaction commit-request records.
pub const TXN_TAG: &str = "txn.request";

/// The body of a commit-request record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnBody {
    /// Client-supplied label (diagnostics).
    pub label: String,
    /// Keys read.
    pub read_set: BTreeSet<String>,
    /// Keys written, with their new values.
    pub write_set: BTreeMap<String, String>,
}

wire_struct!(TxnBody, label, read_set, write_set);

/// Which commit protocol drives validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Validate against every concurrent transaction (Message Futures).
    MessageFutures,
    /// Validate only within the conflict zone — transactions not already
    /// visible to this one (Helios).
    Helios,
}

/// The outcome of a commit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Committed; the record sits at this position in the local log.
    Committed(LId),
    /// Aborted due to a conflict with this concurrent transaction.
    Aborted {
        /// The conflicting transaction's record identity.
        conflict_with: RecordId,
    },
}

/// An in-progress transaction: buffered reads and writes.
#[derive(Debug, Default)]
pub struct Transaction {
    label: String,
    read_set: BTreeSet<String>,
    write_set: BTreeMap<String, String>,
}

impl Transaction {
    /// Starts a transaction with a diagnostic label.
    pub fn new(label: impl Into<String>) -> Self {
        Transaction {
            label: label.into(),
            ..Transaction::default()
        }
    }

    /// Buffers a write.
    pub fn write(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.write_set.insert(key.into(), value.into());
    }
}

/// One transaction record as observed in the log.
#[derive(Debug, Clone)]
struct TxnEntry {
    id: RecordId,
    lid: LId,
    deps: VersionVector,
    body: TxnBody,
    /// `None` until decidable; then the agreed outcome.
    decided: Option<bool>,
}

impl TxnEntry {
    /// Deterministic priority: lower (TOId, host) wins conflicts.
    fn priority(&self) -> (TOId, DatacenterId) {
        (self.id.toid, self.id.host)
    }

    fn conflicts_with(&self, other: &TxnEntry) -> bool {
        let w_overlaps = |a: &TxnEntry, b: &TxnEntry| {
            a.body
                .write_set
                .keys()
                .any(|k| b.body.write_set.contains_key(k) || b.body.read_set.contains(k))
        };
        w_overlaps(self, other) || w_overlaps(other, self)
    }

    /// Mutually invisible in the causal order.
    fn concurrent_with(&self, other: &TxnEntry) -> bool {
        !self.deps.covers(other.id.host, other.id.toid)
            && !other.deps.covers(self.id.host, self.id.toid)
    }
}

/// The transaction manager of one datacenter.
///
/// It scans the local log for commit-request records, decides each one
/// with the deterministic rule once its concurrent set is fully known, and
/// materializes committed writes into a key-value view.
pub struct TxnManager {
    log: ChariotsClient,
    atable: Arc<RwLock<ATable>>,
    dc: DatacenterId,
    num_datacenters: usize,
    policy: CommitPolicy,
    scan_cursor: LId,
    txns: BTreeMap<RecordId, TxnEntry>,
    /// Materialized committed state: key → (position of writer, value).
    store: BTreeMap<String, (LId, String)>,
    commits: u64,
    aborts: u64,
}

impl TxnManager {
    /// Attaches a manager to a datacenter.
    pub fn new(dc: &ChariotsDc, policy: CommitPolicy) -> Self {
        TxnManager {
            log: dc.client(),
            atable: dc.atable(),
            dc: dc.id(),
            num_datacenters: dc.config().num_datacenters,
            policy,
            scan_cursor: LId::ZERO,
            txns: BTreeMap::new(),
            store: BTreeMap::new(),
            commits: 0,
            aborts: 0,
        }
    }

    /// Reads a key's committed value (the transaction's read set is
    /// tracked for validation).
    pub fn read(&mut self, txn: &mut Transaction, key: &str) -> Result<Option<String>> {
        self.refresh()?;
        txn.read_set.insert(key.to_owned());
        // Read-your-writes within the transaction.
        if let Some(v) = txn.write_set.get(key) {
            return Ok(Some(v.clone()));
        }
        Ok(self.store.get(key).map(|(_, v)| v.clone()))
    }

    /// Commits a transaction: appends its record, waits for history
    /// exchange with every datacenter, validates, and returns the agreed
    /// outcome. Blocks up to `timeout` (strong consistency is unavailable
    /// during partitions — the CAP price the paper's §1 discusses).
    pub fn commit(&mut self, txn: Transaction, timeout: Duration) -> Result<Outcome> {
        let body = TxnBody {
            label: txn.label,
            read_set: txn.read_set,
            write_set: txn.write_set,
        };
        let tags = TagSet::new().with(Tag::with_value(TXN_TAG, body.label.as_str()));
        let (toid, _lid) = self.log.append(tags, encode_to_vec(&body))?;
        let id = RecordId::new(self.dc, toid);
        let deadline = Instant::now() + timeout;
        loop {
            self.refresh()?;
            if let Some(entry) = self.txns.get(&id) {
                if let Some(committed) = entry.decided {
                    return Ok(if committed {
                        Outcome::Committed(entry.lid)
                    } else {
                        let conflict = self
                            .blocking_conflict(&self.txns[&id])
                            .expect("aborted txn has a conflict");
                        Outcome::Aborted {
                            conflict_with: conflict,
                        }
                    });
                }
            }
            if Instant::now() >= deadline {
                return Err(ChariotsError::Unavailable(format!(
                    "commit of {id} timed out awaiting history exchange"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Commits and aborts decided so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.commits, self.aborts)
    }

    /// The committed value of a key, outside any transaction.
    pub fn get_committed(&mut self, key: &str) -> Result<Option<String>> {
        self.refresh()?;
        Ok(self.store.get(key).map(|(_, v)| v.clone()))
    }

    /// Scans new log records and decides every decidable transaction. A
    /// record that cannot be read yet is scanned by a later refresh, never
    /// skipped.
    pub fn refresh(&mut self) -> Result<()> {
        let hl = self.log.head_of_log()?;
        let txns = &mut self.txns;
        self.log.follow(
            &mut self.scan_cursor,
            hl,
            |_| true,
            |entry| {
                if entry.record.tags.contains_key(TXN_TAG) {
                    if let Some(body) = decode_exact::<TxnBody>(entry.record.body.clone()) {
                        txns.entry(entry.id()).or_insert(TxnEntry {
                            id: entry.id(),
                            lid: entry.lid,
                            deps: entry.record.deps.clone(),
                            body,
                            decided: None,
                        });
                    }
                }
                ControlFlow::Continue(())
            },
        )?;
        self.decide_ready();
        Ok(())
    }

    /// Whether the observer has certainly seen every transaction that can
    /// be concurrent with `t`: each datacenter `k` acknowledged `t`'s
    /// record while having `x_k` records of its own, and the local log has
    /// incorporated `k`'s records through `x_k`.
    fn history_exchanged(&self, t: &TxnEntry) -> bool {
        let atable = self.atable.read();
        for k in 0..self.num_datacenters {
            let k = DatacenterId(k as u16);
            if k == t.id.host {
                continue;
            }
            // k has seen t…
            if atable.get(k, t.id.host) < t.id.toid {
                return false;
            }
            // …and we have seen everything k produced before acknowledging.
            let x_k = atable.get(k, k);
            if atable.get(self.dc, k) < x_k {
                return false;
            }
        }
        true
    }

    fn decide_ready(&mut self) {
        let undecided: Vec<RecordId> = self
            .txns
            .values()
            .filter(|t| t.decided.is_none())
            .map(|t| t.id)
            .collect();
        for id in undecided {
            let t = self.txns[&id].clone();
            if !self.history_exchanged(&t) {
                continue;
            }
            let commit = self.blocking_conflict(&t).is_none();
            let entry = self.txns.get_mut(&id).expect("present");
            entry.decided = Some(commit);
            if commit {
                self.commits += 1;
                for (k, v) in &entry.body.write_set {
                    let lid = entry.lid;
                    match self.store.get(k) {
                        Some((prev, _)) if *prev > lid => {}
                        _ => {
                            self.store.insert(k.clone(), (lid, v.clone()));
                        }
                    }
                }
            } else {
                self.aborts += 1;
            }
        }
    }

    /// The deterministic rule: `t` commits iff no conflicting transaction
    /// in its validation set has lower priority. Returns the blocking
    /// transaction's id, if any.
    fn blocking_conflict(&self, t: &TxnEntry) -> Option<RecordId> {
        self.txns
            .values()
            .filter(|u| u.id != t.id)
            .filter(|u| match self.policy {
                // Message Futures validates against every concurrent
                // transaction; Helios narrows to the conflict zone —
                // operationally the same predicate here (records already
                // visible to t are excluded by concurrency), retained as
                // the hook where the zone computation differs.
                CommitPolicy::MessageFutures | CommitPolicy::Helios => t.concurrent_with(u),
            })
            .filter(|u| t.conflicts_with(u))
            .filter(|u| u.priority() < t.priority())
            .map(|u| u.id)
            .min_by_key(|id| (id.toid, id.host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chariots_core::{ChariotsCluster, StageStations};
    use chariots_simnet::LinkConfig;
    use chariots_types::{ChariotsConfig, FLStoreConfig, MaintainerId};

    fn launch(n: usize) -> ChariotsCluster {
        let mut cfg = ChariotsConfig::new().datacenters(n);
        cfg.flstore = FLStoreConfig::new()
            .maintainers(2)
            .batch_size(8)
            .gossip_interval(Duration::from_millis(1));
        cfg.batcher_flush_threshold = 2;
        cfg.batcher_flush_interval = Duration::from_millis(1);
        cfg.propagation_interval = Duration::from_millis(2);
        ChariotsCluster::launch(
            cfg,
            StageStations::default(),
            LinkConfig::with_latency(Duration::from_millis(2)),
        )
        .unwrap()
    }

    fn dc(i: u16) -> DatacenterId {
        DatacenterId(i)
    }

    /// One datacenter whose two maintainers own alternate positions and
    /// gossip every 3 s, so nothing gossips unless the test says so.
    fn launch_quiet() -> ChariotsCluster {
        let mut cfg = ChariotsConfig::new().datacenters(1);
        cfg.flstore = FLStoreConfig::new()
            .maintainers(2)
            .batch_size(1)
            .gossip_interval(Duration::from_secs(3));
        ChariotsCluster::launch(
            cfg,
            StageStations::default(),
            LinkConfig::with_latency(Duration::from_millis(2)),
        )
        .unwrap()
    }

    /// One gossip message that reaches one side only: once both
    /// maintainers hold their share of positions 0..4, maintainer `to`
    /// hears that the other's are filled. Until maintainer 1 hears it,
    /// maintainer 0 vouches for a Head of 4 under which maintainer 1
    /// refuses to read its positions 1 and 3.
    fn hear(cluster: &ChariotsCluster, to: usize) {
        let maintainers = cluster.dc(dc(0)).flstore().maintainers();
        let deadline = Instant::now() + Duration::from_secs(10);
        while maintainers
            .iter()
            .any(|m| m.stats().unwrap().frontier < LId(4))
        {
            assert!(Instant::now() < deadline, "positions 0..4 never stored");
            std::thread::sleep(Duration::from_millis(1));
        }
        maintainers[to].gossip_in(MaintainerId(1 - to as u16), LId(4));
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn single_txn_commits_and_materializes() {
        let cluster = launch(2);
        let mut tm = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut t = Transaction::new("t1");
        t.write("balance", "100");
        let outcome = tm.commit(t, TIMEOUT).unwrap();
        assert!(matches!(outcome, Outcome::Committed(_)));
        assert_eq!(tm.get_committed("balance").unwrap().unwrap(), "100");
        cluster.shutdown();
    }

    #[test]
    fn remote_manager_agrees_on_outcome() {
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);
        let mut t = Transaction::new("t1");
        t.write("x", "5");
        tm_a.commit(t, TIMEOUT).unwrap();
        // B eventually materializes the same committed write.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if tm_b.get_committed("x").unwrap().as_deref() == Some("5") {
                break;
            }
            assert!(Instant::now() < deadline, "B never saw the commit");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(tm_b.stats(), (1, 0));
        cluster.shutdown();
    }

    #[test]
    fn read_your_writes_inside_transaction() {
        let cluster = launch(2);
        let mut tm = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut t = Transaction::new("t");
        assert_eq!(tm.read(&mut t, "k").unwrap(), None);
        t.write("k", "v");
        assert_eq!(tm.read(&mut t, "k").unwrap().unwrap(), "v");
        cluster.shutdown();
    }

    #[test]
    fn conflicting_concurrent_txns_one_commits_and_all_agree() {
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);

        // Both write the same key, concurrently (neither reads first, and
        // the commits race).
        let mut ta = Transaction::new("ta");
        ta.write("hot", "from-A");
        let mut tb = Transaction::new("tb");
        tb.write("hot", "from-B");

        let h_a = std::thread::spawn(move || {
            let out = tm_a.commit(ta, TIMEOUT).unwrap();
            (tm_a, out)
        });
        let h_b = std::thread::spawn(move || {
            let out = tm_b.commit(tb, TIMEOUT).unwrap();
            (tm_b, out)
        });
        let (mut tm_a, out_a) = h_a.join().unwrap();
        let (mut tm_b, out_b) = h_b.join().unwrap();

        let committed = [&out_a, &out_b]
            .iter()
            .filter(|o| matches!(o, Outcome::Committed(_)))
            .count();
        assert_eq!(committed, 1, "exactly one of the conflicting pair commits");

        // Both managers converge to the same value.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let va = tm_a.get_committed("hot").unwrap();
            let vb = tm_b.get_committed("hot").unwrap();
            if va.is_some() && va == vb {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "managers disagree: {va:?} vs {vb:?}"
            );
            std::thread::sleep(Duration::from_millis(3));
        }
        cluster.shutdown();
    }

    #[test]
    fn non_conflicting_concurrent_txns_both_commit() {
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);
        let mut ta = Transaction::new("ta");
        ta.write("a_key", "1");
        let mut tb = Transaction::new("tb");
        tb.write("b_key", "2");
        let h_a = std::thread::spawn(move || tm_a.commit(ta, TIMEOUT).unwrap());
        let h_b = std::thread::spawn(move || tm_b.commit(tb, TIMEOUT).unwrap());
        assert!(matches!(h_a.join().unwrap(), Outcome::Committed(_)));
        assert!(matches!(h_b.join().unwrap(), Outcome::Committed(_)));
        cluster.shutdown();
    }

    #[test]
    fn helios_policy_also_maintains_the_invariant() {
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::Helios);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::Helios);
        let mut ta = Transaction::new("ta");
        ta.write("z", "A");
        let mut tb = Transaction::new("tb");
        tb.write("z", "B");
        let h_a = std::thread::spawn(move || tm_a.commit(ta, TIMEOUT).unwrap());
        let h_b = std::thread::spawn(move || tm_b.commit(tb, TIMEOUT).unwrap());
        let outcomes = [h_a.join().unwrap(), h_b.join().unwrap()];
        let committed = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Committed(_)))
            .count();
        assert_eq!(committed, 1);
        cluster.shutdown();
    }

    #[test]
    fn commit_blocks_during_partition_and_resumes_after_heal() {
        let cluster = launch(2);
        let mut tm = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        cluster.partition(dc(0), dc(1));
        let mut t = Transaction::new("partitioned");
        t.write("p", "1");
        let err = tm.commit(t, Duration::from_millis(300)).unwrap_err();
        assert!(matches!(err, ChariotsError::Unavailable(_)), "{err}");
        cluster.heal(dc(0), dc(1));
        // The record is already in the log; once histories exchange, the
        // same transaction decides (and commits — no conflicts).
        let deadline = Instant::now() + TIMEOUT;
        loop {
            tm.refresh().unwrap();
            if tm.get_committed("p").unwrap().as_deref() == Some("1") {
                break;
            }
            assert!(Instant::now() < deadline, "commit never resumed after heal");
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.shutdown();
    }

    #[test]
    fn causally_ordered_txns_are_not_concurrent() {
        // A commits t1; B reads the key (observing t1), then commits t2
        // writing it. t2 conflicts with t1 but is causally AFTER it, so it
        // must commit.
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);
        let mut t1 = Transaction::new("t1");
        t1.write("acct", "10");
        tm_a.commit(t1, TIMEOUT).unwrap();
        // B waits to observe t1, reads it, then writes.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if tm_b.get_committed("acct").unwrap().is_some() {
                break;
            }
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(3));
        }
        let mut t2 = Transaction::new("t2");
        let v = tm_b.read(&mut t2, "acct").unwrap().unwrap();
        assert_eq!(v, "10");
        t2.write("acct", "20");
        let out = tm_b.commit(t2, TIMEOUT).unwrap();
        assert!(
            matches!(out, Outcome::Committed(_)),
            "causally later txn wrongly aborted: {out:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn three_way_conflict_chain_is_decided_consistently() {
        // t_a, t_b, t_c all write the same key concurrently from two DCs:
        // the minimum-priority one commits, the rest abort, and both
        // managers agree on every outcome.
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);
        let mk = |label: &str| {
            let mut t = Transaction::new(label);
            t.write("chain", label.to_string());
            t
        };
        let h_a = std::thread::spawn(move || {
            let o1 = tm_a.commit(mk("a1"), TIMEOUT).unwrap();
            (tm_a, o1)
        });
        let h_b = std::thread::spawn(move || {
            let o1 = tm_b.commit(mk("b1"), TIMEOUT).unwrap();
            let o2 = tm_b.commit(mk("b2"), TIMEOUT).unwrap();
            (tm_b, o1, o2)
        });
        let (mut tm_a, _oa) = h_a.join().unwrap();
        let (mut tm_b, _ob1, _ob2) = h_b.join().unwrap();
        // Whatever interleaving happened, the materialized value must
        // converge and the decision counts must agree.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            tm_a.refresh().unwrap();
            tm_b.refresh().unwrap();
            let (ca, aa) = tm_a.stats();
            let (cb, ab) = tm_b.stats();
            let va = tm_a.get_committed("chain").unwrap();
            let vb = tm_b.get_committed("chain").unwrap();
            if ca + aa == 3 && cb + ab == 3 {
                assert_eq!((ca, aa), (cb, ab), "managers disagree on outcomes");
                assert!(ca >= 1, "at least one transaction must commit");
                assert_eq!(va, vb, "values diverged: {va:?} vs {vb:?}");
                break;
            }
            assert!(Instant::now() < deadline, "decisions never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.shutdown();
    }

    #[test]
    fn read_write_conflict_aborts_one_side() {
        // t_a reads "cfg" and writes "out"; t_b writes "cfg" concurrently.
        // That is a read-write conflict: at most one commits.
        let cluster = launch(2);
        let mut tm_a = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        let mut tm_b = TxnManager::new(cluster.dc(dc(1)), CommitPolicy::MessageFutures);
        // Seed so the read has something to see.
        let mut seed = Transaction::new("seed");
        seed.write("cfg", "v0");
        tm_a.commit(seed, TIMEOUT).unwrap();
        let deadline = Instant::now() + TIMEOUT;
        while tm_b.get_committed("cfg").unwrap().is_none() {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(3));
        }
        let h_a = std::thread::spawn(move || {
            let mut t = Transaction::new("reader");
            let v = tm_a.read(&mut t, "cfg").unwrap().unwrap();
            t.write("out", format!("derived-from-{v}"));
            tm_a.commit(t, TIMEOUT).unwrap()
        });
        let h_b = std::thread::spawn(move || {
            let mut t = Transaction::new("writer");
            t.write("cfg", "v1");
            tm_b.commit(t, TIMEOUT).unwrap()
        });
        let oa = h_a.join().unwrap();
        let ob = h_b.join().unwrap();
        let commits = [&oa, &ob]
            .iter()
            .filter(|o| matches!(o, Outcome::Committed(_)))
            .count();
        assert!(commits <= 1, "read-write conflicting pair both committed");
        cluster.shutdown();
    }

    #[test]
    fn commit_request_its_owner_refused_at_first_is_decided_once() {
        let cluster = launch_quiet();
        let mut writer = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        for i in 0..4 {
            let mut t = Transaction::new(format!("t{i}"));
            t.write(format!("k{i}"), "v");
            // Nothing is readable yet: the record lands, undecided.
            assert!(writer.commit(t, Duration::ZERO).is_err());
        }
        hear(&cluster, 0);
        let mut tm = TxnManager::new(cluster.dc(dc(0)), CommitPolicy::MessageFutures);
        // The Head polls ask the maintainers in turn, whose views are 0 and
        // 4, and the client keeps the highest Head it was handed; under 4
        // the manager decides t0, then stops at position 1, which its
        // owner still refuses when the client's retry budget is spent.
        for _ in 0..4 {
            let _ = tm.refresh();
        }
        assert_eq!(tm.stats(), (1, 0));
        hear(&cluster, 1);
        tm.refresh().unwrap();
        assert_eq!(tm.stats(), (4, 0));
        for i in 0..4 {
            let value = tm.get_committed(&format!("k{i}")).unwrap();
            assert_eq!(value.as_deref(), Some("v"), "k{i}");
        }
        assert_eq!(tm.stats(), (4, 0), "decided once");
        cluster.shutdown();
    }
}
