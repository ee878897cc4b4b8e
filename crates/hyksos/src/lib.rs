//! # chariots-hyksos
//!
//! **Hyksos** — the causally consistent key-value store built over the
//! Chariots shared log (§4.1 of *Chariots*, EDBT 2015).
//!
//! "The value of keys reside in the shared log. A record holds one, or
//! more, put operation information. The order in the log reflects the
//! causal order of put operations. Thus, the current value of a key k is in
//! the record with the highest log position containing a put operation."
//!
//! Besides `put` and `get`, Hyksos offers **get transactions** returning a
//! causally consistent snapshot of several keys (Algorithm 1): pick the
//! Head of the Log as the snapshot position, then read each key's most
//! recent write *below* that position.
//!
//! Because the log is causal (not serial), two datacenters may observe
//! concurrent puts to the same key in different orders — the paper's Fig. 2
//! scenario, reproduced in this crate's tests.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use bytes::Bytes;
use chariots_core::ChariotsClient;
use chariots_types::{
    decode_exact, encode_to_vec, wire_struct, ChariotsError, Condition, Entry, LId, ReadRule,
    Result, TOId, Tag, TagSet, TagValue, ValuePredicate,
};

/// The tag key under which Hyksos indexes put operations.
pub const KEY_TAG: &str = "hyksos.key";

/// The payload of one record: a batch of put operations ("a record holds
/// one, or more, put operation information"), plus deletes — which, in a
/// log of immutable records, are just another accumulated change ("if an
/// application client desires to alter the effect of a record it can do so
/// by appending another record that exemplifies the desired change", §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutBatch {
    /// `key → value` pairs written atomically in one record.
    pub puts: BTreeMap<String, String>,
    /// Keys tombstoned by this record.
    pub deletes: BTreeSet<String>,
}

impl PutBatch {
    /// A batch with one put.
    pub fn put(key: impl Into<String>, value: impl Into<String>) -> Self {
        let mut puts = BTreeMap::new();
        puts.insert(key.into(), value.into());
        PutBatch {
            puts,
            deletes: Default::default(),
        }
    }

    /// Decodes a record body written by [`HyksosClient::put_all`]; `None`
    /// for a body that is not a put batch.
    pub fn from_body(body: &Bytes) -> Option<PutBatch> {
        decode_exact(body.clone())
    }
}

// The body of a put record: the puts, then the deletes, each in key order.
wire_struct!(PutBatch, puts, deletes);

/// The result of a get: the value plus the position it was read from
/// (useful for session tokens and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    /// The value.
    pub value: String,
    /// The log position of the record that wrote it.
    pub lid: LId,
    /// The writing record's total-order id at its host.
    pub toid: TOId,
}

wire_struct!(Versioned, value, lid, toid);

/// A Hyksos client session bound to one datacenter's Chariots instance.
///
/// Reads and writes flow through the underlying [`ChariotsClient`], so the
/// session inherits its causal context: a client always sees its own puts,
/// and anything it reads is a dependency of its subsequent puts.
pub struct HyksosClient {
    log: ChariotsClient,
}

impl HyksosClient {
    /// Wraps a Chariots client session.
    pub fn new(log: ChariotsClient) -> Self {
        HyksosClient { log }
    }

    /// Puts one key ("performing an Append operation with the new value of
    /// x, tagged with the key").
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<String>) -> Result<LId> {
        self.put_all(PutBatch::put(key, value))
    }

    /// Deletes a key by appending a tombstone record; subsequent gets see
    /// `None` until a later put revives the key.
    pub fn delete(&mut self, key: impl Into<String>) -> Result<LId> {
        let mut deletes = BTreeSet::new();
        deletes.insert(key.into());
        self.put_all(PutBatch {
            puts: BTreeMap::new(),
            deletes,
        })
    }

    /// Puts (and deletes) several keys atomically in one record.
    pub fn put_all(&mut self, batch: PutBatch) -> Result<LId> {
        let mut tags = TagSet::new();
        for key in batch.puts.keys().chain(batch.deletes.iter()) {
            tags.push(Tag::with_value(KEY_TAG, key.as_str()));
        }
        let (_toid, lid) = self.log.append(tags, encode_to_vec(&batch))?;
        Ok(lid)
    }

    /// Gets the current value of `key`: "the record with the highest log
    /// position containing a put operation" to it.
    pub fn get(&mut self, key: &str) -> Result<Option<Versioned>> {
        let hl = self.log.head_of_log()?;
        self.get_below(key, hl)
    }

    /// The most recent value of `key` strictly below log position `below`.
    fn get_below(&mut self, key: &str, below: LId) -> Result<Option<Versioned>> {
        let rule = ReadRule::where_(Condition::TagValue(
            KEY_TAG.into(),
            ValuePredicate::Eq(TagValue::Str(key.into())),
        ))
        .and(Condition::LIdBelow(below))
        .most_recent(1);
        let hits = self.log.read_rule(&rule)?;
        Ok(hits.first().and_then(|e| extract(e, key)))
    }

    /// Get transaction (Algorithm 1): a causally consistent snapshot of
    /// several keys, all read as of the same Head-of-Log position.
    pub fn get_txn(&mut self, keys: &[&str]) -> Result<BTreeMap<String, Option<Versioned>>> {
        // Line 2: "request the head of the log position id" — there are no
        // gaps below it, so the snapshot is stable.
        let snapshot = self.log.head_of_log()?;
        // Lines 4-6: read each key's most recent write below the snapshot.
        let mut out = BTreeMap::new();
        for &key in keys {
            out.insert(key.to_owned(), self.get_below(key, snapshot)?);
        }
        Ok(out)
    }

    /// The snapshot position a get transaction would use right now.
    pub fn snapshot_position(&mut self) -> Result<LId> {
        self.log.head_of_log()
    }

    /// Access to the underlying log session (e.g. for mixing raw appends).
    pub fn log(&mut self) -> &mut ChariotsClient {
        &mut self.log
    }
}

/// Extracts `key`'s value from a put record. A tombstone yields `None`
/// from the caller's perspective — but the *record* still matched, so the
/// get must not fall through to an older put; the most-recent-1 rule
/// already guarantees that.
fn extract(entry: &Entry, key: &str) -> Option<Versioned> {
    let batch = PutBatch::from_body(&entry.record.body)?;
    if batch.deletes.contains(key) {
        return None;
    }
    batch.puts.get(key).map(|v| Versioned {
        value: v.clone(),
        lid: entry.lid,
        toid: entry.record.toid(),
    })
}

/// A materialized view of the store: the Tango-style pattern of replaying
/// the shared log into an in-memory state machine.
///
/// [`HyksosClient`] answers every get with an indexed log read — simple and
/// always fresh, but one round trip per key. `Materializer` instead scans
/// the log once, folds every put/delete into a map, and serves gets from
/// memory; `catch_up` advances it to the current Head of the Log. Because
/// the log is causally ordered, the view is always a causally consistent
/// snapshot — and any *historical* snapshot is reachable by stopping the
/// replay early ([`catch_up_to`](Materializer::catch_up_to), the paper's
/// "time travel").
pub struct Materializer {
    log: ChariotsClient,
    cursor: LId,
    view: BTreeMap<String, Versioned>,
}

impl Materializer {
    /// An empty view at the start of the log.
    pub fn new(log: ChariotsClient) -> Self {
        Materializer {
            log,
            cursor: LId::ZERO,
            view: BTreeMap::new(),
        }
    }

    /// Replays the log up to the current Head of the Log. Returns the new
    /// cursor.
    pub fn catch_up(&mut self) -> Result<LId> {
        let hl = self.log.head_of_log()?;
        self.catch_up_to(hl)
    }

    /// Replays the log up to `bound` (exclusive) — a historical snapshot
    /// if `bound` is below the head — and returns the new cursor. A
    /// position that cannot be read yet stops the replay there, to be
    /// applied by the next catch-up ([`ChariotsClient::follow`]).
    pub fn catch_up_to(&mut self, bound: LId) -> Result<LId> {
        let view = &mut self.view;
        self.log.follow(
            &mut self.cursor,
            bound,
            |_| true,
            |entry| {
                if entry.record.tags.contains_key(KEY_TAG) {
                    if let Some(batch) = PutBatch::from_body(&entry.record.body) {
                        apply(view, entry, batch);
                    }
                }
                ControlFlow::Continue(())
            },
        )?;
        Ok(self.cursor)
    }

    /// The materialized value of `key` (as of the last catch-up).
    pub fn get(&self, key: &str) -> Option<&Versioned> {
        self.view.get(key)
    }

    /// Number of live keys in the view.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// The replay cursor (first position NOT yet applied).
    pub fn cursor(&self) -> LId {
        self.cursor
    }

    /// Iterates the live keys in order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Versioned)> {
        self.view.iter()
    }

    /// Snapshots the view (cursor + live keys) to `path`. Paired with
    /// [`restore`](Materializer::restore), this gives the materializer the
    /// same O(delta) restart the maintainers get from their WALs: a
    /// restored view replays only the log suffix past the saved cursor
    /// instead of everything from LId 0.
    pub fn checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = encode_to_vec(&(self.cursor, self.view.clone()));
        std::fs::write(path, bytes)
            .map_err(|e| ChariotsError::Storage(format!("view snapshot write: {e}")))
    }

    /// Replaces the view and cursor with a snapshot written by
    /// [`checkpoint`](Materializer::checkpoint). A cut or garbled snapshot
    /// is refused and leaves the view untouched. Call `catch_up` afterwards
    /// to fold in whatever the log accumulated since the snapshot.
    pub fn restore(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = std::fs::read(path)
            .map_err(|e| ChariotsError::Storage(format!("view snapshot read: {e}")))?;
        let (cursor, view) = decode_exact(Bytes::from(bytes))
            .ok_or_else(|| ChariotsError::Storage("view snapshot is cut or garbled".into()))?;
        self.cursor = cursor;
        self.view = view;
        Ok(())
    }
}

/// Folds one put record into a view: its deletes, then its puts.
fn apply(view: &mut BTreeMap<String, Versioned>, entry: &Entry, batch: PutBatch) {
    for key in &batch.deletes {
        view.remove(key);
    }
    let (lid, toid) = (entry.lid, entry.record.toid());
    for (key, value) in batch.puts {
        view.insert(key, Versioned { value, lid, toid });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chariots_core::{ChariotsCluster, StageStations};
    use chariots_simnet::LinkConfig;
    use chariots_types::{ChariotsConfig, DatacenterId, FLStoreConfig, MaintainerId};
    use std::time::{Duration, Instant};

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
        let maintainers = cluster.dc(DatacenterId(0)).flstore().maintainers();
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

    fn wait_visible(client: &mut HyksosClient, key: &str, value: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(Some(v)) = client.get(key) {
                if v.value == value {
                    return;
                }
            }
            assert!(
                Instant::now() < deadline,
                "{key}={value} never became visible"
            );
            std::thread::sleep(Duration::from_millis(3));
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("x", "10").unwrap();
        wait_visible(&mut kv, "x", "10");
        kv.put("x", "30").unwrap();
        wait_visible(&mut kv, "x", "30");
        cluster.shutdown();
    }

    #[test]
    fn get_missing_key_is_none() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        assert_eq!(kv.get("ghost").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn multi_put_is_atomic_in_one_record() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        let mut puts = BTreeMap::new();
        puts.insert("a".to_string(), "1".to_string());
        puts.insert("b".to_string(), "2".to_string());
        let lid = kv
            .put_all(PutBatch {
                puts,
                deletes: Default::default(),
            })
            .unwrap();
        wait_visible(&mut kv, "a", "1");
        let a = kv.get("a").unwrap().unwrap();
        let b = kv.get("b").unwrap().unwrap();
        assert_eq!(a.lid, lid);
        assert_eq!(b.lid, lid, "both came from the same record");
        cluster.shutdown();
    }

    #[test]
    fn puts_replicate_across_datacenters() {
        let cluster = launch(2);
        let mut kv_a = HyksosClient::new(cluster.client(DatacenterId(0)));
        let mut kv_b = HyksosClient::new(cluster.client(DatacenterId(1)));
        kv_a.put("y", "20").unwrap();
        wait_visible(&mut kv_b, "y", "20");
        cluster.shutdown();
    }

    #[test]
    fn get_txn_returns_consistent_snapshot() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("x", "10").unwrap();
        kv.put("y", "20").unwrap();
        wait_visible(&mut kv, "y", "20");
        let snap = kv.get_txn(&["x", "y", "z"]).unwrap();
        assert_eq!(snap["x"].as_ref().unwrap().value, "10");
        assert_eq!(snap["y"].as_ref().unwrap().value, "20");
        assert!(snap["z"].is_none());
        cluster.shutdown();
    }

    #[test]
    fn get_txn_ignores_writes_above_snapshot() {
        // The paper's example: "although a more recent y value is
        // available, it was not returned … because it is not part of the
        // view of records up to position [the snapshot]".
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("y", "20").unwrap();
        wait_visible(&mut kv, "y", "20");
        let snapshot = kv.snapshot_position().unwrap();
        // A later write lands above the snapshot…
        kv.put("y", "50").unwrap();
        wait_visible(&mut kv, "y", "50");
        // …but a read below the old snapshot still sees 20.
        let old = kv.get_below("y", snapshot).unwrap().unwrap();
        assert_eq!(old.value, "20");
        cluster.shutdown();
    }

    #[test]
    fn fig2_concurrent_puts_order_differently_but_both_arrive() {
        // Fig. 2: A puts x=30 while B puts x=10, concurrently.
        let cluster = launch(2);
        let mut kv_a = HyksosClient::new(cluster.client(DatacenterId(0)));
        let mut kv_b = HyksosClient::new(cluster.client(DatacenterId(1)));
        kv_a.put("x", "30").unwrap();
        kv_b.put("x", "10").unwrap();
        assert!(cluster.wait_for_replication(2, Duration::from_secs(10)));
        // Each datacenter sees *some* value — which one depends on its
        // local order of the concurrent puts (both are permissible).
        let va = kv_a.get("x").unwrap().unwrap().value;
        let vb = kv_b.get("x").unwrap().unwrap().value;
        assert!(va == "10" || va == "30");
        assert!(vb == "10" || vb == "30");
        cluster.shutdown();
    }

    #[test]
    fn causal_read_then_write_is_ordered_everywhere() {
        let cluster = launch(2);
        let mut kv_a = HyksosClient::new(cluster.client(DatacenterId(0)));
        let mut kv_b = HyksosClient::new(cluster.client(DatacenterId(1)));
        kv_a.put("x", "1").unwrap();
        wait_visible(&mut kv_b, "x", "1");
        // B's put of y is causally after reading x=1.
        kv_b.put("y", "saw-x").unwrap();
        // At A: whenever y is visible, x must be too (causal consistency).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = kv_a.get_txn(&["x", "y"]).unwrap();
            if let Some(y) = &snap["y"] {
                assert_eq!(y.value, "saw-x");
                let x = snap["x"].as_ref().expect("y visible without its cause");
                assert_eq!(x.value, "1");
                break;
            }
            assert!(Instant::now() < deadline, "y never replicated");
            std::thread::sleep(Duration::from_millis(3));
        }
        cluster.shutdown();
    }

    #[test]
    fn delete_tombstones_until_revived() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("x", "1").unwrap();
        wait_visible(&mut kv, "x", "1");
        kv.delete("x").unwrap();
        // Deleted: get returns None once the tombstone is readable.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if kv.get("x").unwrap().is_none() {
                break;
            }
            assert!(Instant::now() < deadline, "tombstone never visible");
            std::thread::sleep(Duration::from_millis(3));
        }
        // A later put revives the key.
        kv.put("x", "2").unwrap();
        wait_visible(&mut kv, "x", "2");
        cluster.shutdown();
    }

    #[test]
    fn deletes_replicate_causally() {
        let cluster = launch(2);
        let mut kv_a = HyksosClient::new(cluster.client(DatacenterId(0)));
        let mut kv_b = HyksosClient::new(cluster.client(DatacenterId(1)));
        kv_a.put("gone", "soon").unwrap();
        wait_visible(&mut kv_b, "gone", "soon");
        // B reads, then deletes: causally after the put everywhere.
        kv_b.delete("gone").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if kv_a.get("gone").unwrap().is_none() {
                break;
            }
            assert!(Instant::now() < deadline, "delete never replicated");
            std::thread::sleep(Duration::from_millis(3));
        }
        cluster.shutdown();
    }

    #[test]
    fn materializer_matches_client_gets() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("a", "1").unwrap();
        kv.put("b", "2").unwrap();
        kv.put("a", "3").unwrap();
        kv.delete("b").unwrap();
        wait_visible(&mut kv, "a", "3");
        let deadline = Instant::now() + Duration::from_secs(10);
        while kv.get("b").unwrap().is_some() {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(3));
        }
        let mut view = Materializer::new(cluster.client(DatacenterId(0)));
        view.catch_up().unwrap();
        assert_eq!(view.get("a").unwrap().value, "3");
        assert!(view.get("b").is_none(), "tombstone must erase b");
        assert_eq!(view.len(), 1);
        cluster.shutdown();
    }

    #[test]
    fn materializer_checkpoint_restores_view_and_cursor() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        kv.put("a", "1").unwrap();
        kv.put("b", "2").unwrap();
        wait_visible(&mut kv, "b", "2");

        let dir = chariots_simnet::TestDir::new("hyksos-view-ckpt");
        let snap_path = dir.path().join("view.json");
        let mut view = Materializer::new(cluster.client(DatacenterId(0)));
        view.catch_up().unwrap();
        let cursor = view.cursor();
        view.checkpoint(&snap_path).unwrap();

        // More writes land after the snapshot.
        kv.put("a", "3").unwrap();
        wait_visible(&mut kv, "a", "3");

        // A fresh materializer restored from the snapshot resumes at the
        // saved cursor (not LId 0) and only needs the suffix.
        let mut restored = Materializer::new(cluster.client(DatacenterId(0)));
        restored.restore(&snap_path).unwrap();
        assert_eq!(restored.cursor(), cursor);
        assert_eq!(restored.get("a").unwrap().value, "1");
        assert_eq!(restored.get("b").unwrap().value, "2");
        restored.catch_up().unwrap();
        assert_eq!(restored.get("a").unwrap().value, "3");
        assert!(restored.cursor() > cursor);

        // A corrupt snapshot refuses to load rather than half-applying.
        std::fs::write(&snap_path, b"{not json").unwrap();
        let mut broken = Materializer::new(cluster.client(DatacenterId(0)));
        assert!(broken.restore(&snap_path).is_err());
        assert_eq!(
            broken.cursor(),
            LId::ZERO,
            "failed restore leaves it untouched"
        );
        cluster.shutdown();
    }

    #[test]
    fn materializer_time_travel_snapshots() {
        let cluster = launch(1);
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        let lid1 = kv.put("x", "v1").unwrap();
        let _lid2 = kv.put("x", "v2").unwrap();
        wait_visible(&mut kv, "x", "v2");
        // A view replayed only past the first put sees v1.
        let mut old = Materializer::new(cluster.client(DatacenterId(0)));
        old.catch_up_to(LId(lid1.0 + 1)).unwrap();
        assert_eq!(old.get("x").unwrap().value, "v1");
        // Catching the same view up to the head moves it to v2.
        old.catch_up().unwrap();
        assert_eq!(old.get("x").unwrap().value, "v2");
        cluster.shutdown();
    }

    #[test]
    fn materializer_keeps_a_put_its_owner_refused_at_first() {
        let cluster = launch_quiet();
        let mut kv = HyksosClient::new(cluster.client(DatacenterId(0)));
        for i in 0..4 {
            kv.put(format!("k{i}"), "v").unwrap();
        }
        hear(&cluster, 0);
        let mut view = Materializer::new(cluster.client(DatacenterId(0)));
        // The Head polls ask the maintainers in turn, whose views are 0 and
        // 4, and the client keeps the highest Head it was handed; under 4
        // the view takes k0, then stops at position 1, which its owner
        // still refuses when the client's retry budget is spent.
        for _ in 0..4 {
            view.catch_up().unwrap();
        }
        assert_eq!(view.cursor(), LId(1));
        hear(&cluster, 1);
        assert_eq!(view.catch_up().unwrap(), LId(4));
        let keys: Vec<&str> = view.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k0", "k1", "k2", "k3"]);
        cluster.shutdown();
    }
}
