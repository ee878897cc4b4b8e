//! # chariots-streamproc
//!
//! Multi-datacenter event processing over the Chariots shared log (§4.2 of
//! *Chariots*, EDBT 2015).
//!
//! "Event processing applications consist of publishers and readers.
//! Publishing an event is as easy as performing an append to the log.
//! Readers then read the events from the log maintainers. … readers can
//! read from different log maintainers [which distributes] the analysis
//! work without the need of a centralized dispatcher."
//!
//! The log provides what stream pipelines struggle to build themselves:
//!
//! * **Exactly-once semantics** — a reader's position cursor only ever
//!   moves past positions it has delivered (or that hold nothing for it),
//!   and, checkpointed *into the log itself*, survives reader crashes.
//! * **Multi-datacenter streams** — events published at any datacenter
//!   appear in every replica's log in a causally consistent order, so a
//!   Photon-style join of streams from different datacenters (the paper's
//!   motivating example) is just a log scan.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use chariots_core::ChariotsClient;
use chariots_types::{
    decode_exact, encode_to_vec, ChariotsError, Condition, DatacenterId, Entry, LId, ReadRule,
    Result, TOId, Tag, TagSet, TagValue, ValuePredicate,
};

/// Tag key carrying the topic name.
pub const TOPIC_TAG: &str = "stream.topic";
/// Tag key carrying the (optional) join key.
pub const KEY_TAG: &str = "stream.key";
/// Tag key marking reader checkpoints.
pub const CKPT_TAG: &str = "stream.ckpt";

/// One event as delivered to a reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The topic it was published under.
    pub topic: String,
    /// The join/partition key, if any.
    pub key: Option<String>,
    /// The payload.
    pub body: Vec<u8>,
    /// Which datacenter published it.
    pub publisher: DatacenterId,
    /// Publisher-side total order.
    pub toid: TOId,
    /// Position in this datacenter's log.
    pub lid: LId,
}

/// Publishes events by appending tagged records.
pub struct Publisher {
    log: ChariotsClient,
}

impl Publisher {
    /// Wraps a Chariots client session.
    pub fn new(log: ChariotsClient) -> Self {
        Publisher { log }
    }

    /// Publishes an event to `topic`.
    pub fn publish(&mut self, topic: &str, body: impl Into<Vec<u8>>) -> Result<LId> {
        self.publish_inner(topic, None, body.into())
    }

    /// Publishes a keyed event (joins and partitioning use the key).
    pub fn publish_keyed(
        &mut self,
        topic: &str,
        key: &str,
        body: impl Into<Vec<u8>>,
    ) -> Result<LId> {
        self.publish_inner(topic, Some(key), body.into())
    }

    fn publish_inner(&mut self, topic: &str, key: Option<&str>, body: Vec<u8>) -> Result<LId> {
        let mut tags = TagSet::new().with(Tag::with_value(TOPIC_TAG, topic));
        if let Some(key) = key {
            tags.push(Tag::with_value(KEY_TAG, key));
        }
        let (_toid, lid) = self.log.append(tags, body)?;
        Ok(lid)
    }
}

/// A cursor-based, exactly-once reader of one topic.
///
/// `poll` delivers every matching event in log order exactly once: its
/// cursor ([`ChariotsClient::follow`]'s) stops *at* a position it cannot
/// read yet, which a later poll delivers. The cursor lives in memory;
/// [`checkpoint`](Reader::checkpoint) appends it to the log so a restarted
/// reader ([`recover`](Reader::recover)) resumes where it left off —
/// at-least-once delivery of the tail since the last checkpoint, never
/// re-delivering anything before it.
pub struct Reader {
    log: ChariotsClient,
    /// Stable identity for checkpointing.
    id: String,
    topic: String,
    cursor: LId,
    /// Partitioned reading: process only positions with
    /// `lid % stride == offset` (readers can share a topic without a
    /// dispatcher).
    stride: u64,
    offset: u64,
}

impl Reader {
    /// A reader of `topic` starting from the beginning of the log.
    pub fn new(log: ChariotsClient, id: impl Into<String>, topic: impl Into<String>) -> Self {
        Reader {
            log,
            id: id.into(),
            topic: topic.into(),
            cursor: LId::ZERO,
            stride: 1,
            offset: 0,
        }
    }

    /// Restricts this reader to its share of a partitioned reader group:
    /// member `offset` of `stride` processes positions ≡ `offset` (mod
    /// `stride`).
    pub fn partitioned(mut self, stride: u64, offset: u64) -> Self {
        assert!(stride > 0 && offset < stride);
        self.stride = stride;
        self.offset = offset;
        self
    }

    /// The current cursor.
    pub fn cursor(&self) -> LId {
        self.cursor
    }

    /// Delivers the next events, at most `max`, advancing the cursor.
    /// Events are delivered in log order, each exactly once per reader. A
    /// partitioned reader reads only its own positions.
    pub fn poll(&mut self, max: usize) -> Result<Vec<Event>> {
        let hl = self.log.head_of_log()?;
        let (stride, offset, topic) = (self.stride, self.offset, &self.topic);
        let mut out = Vec::new();
        self.log.follow(
            &mut self.cursor,
            hl,
            |lid| lid.0 % stride == offset,
            |entry| match to_event(entry, topic) {
                Some(_) if out.len() == max => ControlFlow::Break(()),
                Some(event) => {
                    out.push(event);
                    ControlFlow::Continue(())
                }
                None => ControlFlow::Continue(()),
            },
        )?;
        Ok(out)
    }

    /// Appends a checkpoint record carrying the cursor, and returns once a
    /// restart would find it: readable below the Head and indexed. A
    /// record still not found after 10 s is `NotYetAvailable`.
    pub fn checkpoint(&mut self) -> Result<LId> {
        let tags = TagSet::new().with(Tag::with_value(CKPT_TAG, self.id.as_str()));
        let (_toid, lid) = self.log.append(tags, encode_to_vec(&self.cursor))?;
        let rule = checkpoint_rule(&self.id);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.log.read_rule(&rule)?.first().map(|e| e.lid) >= Some(lid) {
                return Ok(lid);
            }
            if Instant::now() >= deadline {
                return Err(ChariotsError::NotYetAvailable(lid));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Rebuilds a reader from its most recent checkpoint in the log (a
    /// crashed reader restarting). Without one, it starts from the
    /// beginning.
    pub fn recover(
        mut log: ChariotsClient,
        id: impl Into<String>,
        topic: impl Into<String>,
    ) -> Result<Self> {
        let id = id.into();
        let hits = log.read_rule(&checkpoint_rule(&id))?;
        let cursor = hits
            .first()
            .and_then(|e| decode_exact::<LId>(e.record.body.clone()))
            .unwrap_or(LId::ZERO);
        let mut reader = Reader::new(log, id, topic);
        reader.cursor = cursor;
        Ok(reader)
    }
}

/// The most recent checkpoint record of reader `id`.
fn checkpoint_rule(id: &str) -> ReadRule {
    ReadRule::where_(Condition::TagValue(
        CKPT_TAG.into(),
        ValuePredicate::Eq(TagValue::Str(id.into())),
    ))
    .most_recent(1)
}

fn to_event(entry: &Entry, topic: &str) -> Option<Event> {
    let record = &entry.record;
    let topic_tag = record.tags.get(TOPIC_TAG)?;
    let Some(TagValue::Str(t)) = &topic_tag.value else {
        return None;
    };
    if t != topic {
        return None;
    }
    let key = record.tags.get(KEY_TAG).and_then(|tag| match &tag.value {
        Some(TagValue::Str(k)) => Some(k.clone()),
        _ => None,
    });
    Some(Event {
        topic: t.clone(),
        key,
        body: record.body.to_vec(),
        publisher: record.host(),
        toid: record.toid(),
        lid: entry.lid,
    })
}

/// A group of partitioned readers managed as one logical consumer:
/// "readers can read from different log maintainers … without the need of
/// a centralized dispatcher" (§4.2). Each member owns the positions
/// `≡ its index (mod group size)`; the group's poll drains all members and
/// merges their events back into log order.
pub struct ReaderGroup {
    members: Vec<Reader>,
}

impl ReaderGroup {
    /// Builds a group of `size` partitioned readers over `topic`, with
    /// sessions produced by `make_session` (one per member — each reader
    /// is its own machine).
    pub fn new(
        size: u64,
        id_prefix: &str,
        topic: &str,
        mut make_session: impl FnMut() -> ChariotsClient,
    ) -> Self {
        assert!(size > 0);
        ReaderGroup {
            members: (0..size)
                .map(|i| {
                    Reader::new(make_session(), format!("{id_prefix}-{i}"), topic)
                        .partitioned(size, i)
                })
                .collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Polls every member and returns the union of their events, merged
    /// into log (`LId`) order.
    pub fn poll(&mut self, max_per_member: usize) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        for m in &mut self.members {
            out.extend(m.poll(max_per_member)?);
        }
        out.sort_by_key(|e| e.lid);
        Ok(out)
    }

    /// Checkpoints every member.
    pub fn checkpoint(&mut self) -> Result<()> {
        for m in &mut self.members {
            m.checkpoint()?;
        }
        Ok(())
    }

    /// Access the members (e.g. for per-member recovery).
    pub fn members_mut(&mut self) -> &mut [Reader] {
        &mut self.members
    }
}

/// A joined pair from two streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Joined {
    /// The join key.
    pub key: String,
    /// The event from the left stream.
    pub left: Event,
    /// The event from the right stream.
    pub right: Event,
}

/// A Photon-style streaming join of two topics on [`KEY_TAG`] — "joins
/// streams of clicks from different datacenters" (§1). Unmatched events
/// are buffered by key; each pair is emitted exactly once, in log order of
/// the later event.
pub struct Joiner {
    log: ChariotsClient,
    left_topic: String,
    right_topic: String,
    cursor: LId,
    pending_left: BTreeMap<String, Vec<Event>>,
    pending_right: BTreeMap<String, Vec<Event>>,
    /// Join window in log positions: an unmatched event is evicted once
    /// the cursor has advanced this far past it (Photon's windowed join —
    /// without a window, skew would grow the buffers without bound).
    window: Option<u64>,
    evicted: u64,
}

impl Joiner {
    /// A joiner over `left_topic ⋈ right_topic`.
    pub fn new(
        log: ChariotsClient,
        left_topic: impl Into<String>,
        right_topic: impl Into<String>,
    ) -> Self {
        Joiner {
            log,
            left_topic: left_topic.into(),
            right_topic: right_topic.into(),
            cursor: LId::ZERO,
            pending_left: BTreeMap::new(),
            pending_right: BTreeMap::new(),
            window: None,
            evicted: 0,
        }
    }

    /// Bounds the join window to `positions` log positions: unmatched
    /// events older than that are evicted (and counted).
    pub fn with_window(mut self, positions: u64) -> Self {
        assert!(positions > 0);
        self.window = Some(positions);
        self
    }

    /// Unmatched events evicted by the window so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn evict_expired(&mut self) {
        let Some(window) = self.window else { return };
        let horizon = self.cursor.0.saturating_sub(window);
        let mut evicted = 0u64;
        for pending in [&mut self.pending_left, &mut self.pending_right] {
            for events in pending.values_mut() {
                let before = events.len();
                events.retain(|e| e.lid.0 >= horizon);
                evicted += (before - events.len()) as u64;
            }
            pending.retain(|_, v| !v.is_empty());
        }
        self.evicted += evicted;
    }

    /// Scans new log positions and returns the joins they complete.
    pub fn poll(&mut self) -> Result<Vec<Joined>> {
        let hl = self.log.head_of_log()?;
        let mut out = Vec::new();
        self.evict_expired();
        let (left_topic, right_topic) = (&self.left_topic, &self.right_topic);
        let (pending_left, pending_right) = (&mut self.pending_left, &mut self.pending_right);
        self.log.follow(
            &mut self.cursor,
            hl,
            |_| true,
            |entry| {
                let found = to_event(entry, left_topic)
                    .map(|e| (e, true))
                    .or_else(|| to_event(entry, right_topic).map(|e| (e, false)));
                let Some((event, is_left)) = found else {
                    return ControlFlow::Continue(());
                };
                let Some(key) = event.key.clone() else {
                    return ControlFlow::Continue(()); // unkeyed events cannot join
                };
                let (mine, theirs) = if is_left {
                    (&mut *pending_left, &mut *pending_right)
                } else {
                    (&mut *pending_right, &mut *pending_left)
                };
                if let Some(waiting) = theirs.get_mut(&key) {
                    let partner = waiting.remove(0);
                    if waiting.is_empty() {
                        theirs.remove(&key);
                    }
                    let (left, right) = if is_left {
                        (event, partner)
                    } else {
                        (partner, event)
                    };
                    out.push(Joined { key, left, right });
                } else {
                    mine.entry(key).or_default().push(event);
                }
                ControlFlow::Continue(())
            },
        )?;
        self.evict_expired();
        Ok(out)
    }

    /// Events buffered awaiting a partner.
    pub fn pending(&self) -> usize {
        self.pending_left.values().map(Vec::len).sum::<usize>()
            + self.pending_right.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chariots_core::{ChariotsCluster, StageStations};
    use chariots_simnet::LinkConfig;
    use chariots_types::{ChariotsConfig, FLStoreConfig, MaintainerId};
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

    fn poll_until(reader: &mut Reader, n: usize) -> Vec<Event> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut events = Vec::new();
        while events.len() < n {
            events.extend(reader.poll(64).unwrap());
            assert!(Instant::now() < deadline, "only {} events", events.len());
            std::thread::sleep(Duration::from_millis(2));
        }
        events
    }

    #[test]
    fn publish_and_read_in_order_exactly_once() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        for i in 0..10 {
            publisher.publish("clicks", format!("click{i}")).unwrap();
        }
        let mut reader = Reader::new(cluster.client(dc(0)), "r1", "clicks");
        let events = poll_until(&mut reader, 10);
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.body, format!("click{i}").into_bytes());
        }
        // Exactly-once: a further poll returns nothing new.
        assert!(reader.poll(64).unwrap().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn topics_are_isolated() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        publisher.publish("clicks", "c").unwrap();
        publisher.publish("queries", "q").unwrap();
        publisher.publish("clicks", "c2").unwrap();
        let mut reader = Reader::new(cluster.client(dc(0)), "r", "clicks");
        let events = poll_until(&mut reader, 2);
        assert!(events.iter().all(|e| e.topic == "clicks"));
        cluster.shutdown();
    }

    #[test]
    fn checkpoint_and_recover_resume_exactly_once() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        for i in 0..6 {
            publisher.publish("t", format!("e{i}")).unwrap();
        }
        let mut reader = Reader::new(cluster.client(dc(0)), "worker-7", "t");
        let first = poll_until(&mut reader, 6);
        assert_eq!(first.len(), 6);
        reader.checkpoint().unwrap();
        drop(reader); // "crash"
        for i in 6..9 {
            publisher.publish("t", format!("e{i}")).unwrap();
        }
        let mut revived = Reader::recover(cluster.client(dc(0)), "worker-7", "t").unwrap();
        let rest = poll_until(&mut revived, 3);
        let bodies: Vec<String> = rest
            .iter()
            .map(|e| String::from_utf8(e.body.clone()).unwrap())
            .collect();
        assert_eq!(bodies, vec!["e6", "e7", "e8"], "no replays, no losses");
        cluster.shutdown();
    }

    #[test]
    fn partitioned_readers_cover_disjointly() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        for i in 0..12 {
            publisher.publish("t", format!("e{i}")).unwrap();
        }
        let mut r0 = Reader::new(cluster.client(dc(0)), "g-0", "t").partitioned(2, 0);
        let mut r1 = Reader::new(cluster.client(dc(0)), "g-1", "t").partitioned(2, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut all = Vec::new();
        while all.len() < 12 {
            all.extend(r0.poll(64).unwrap());
            all.extend(r1.poll(64).unwrap());
            assert!(Instant::now() < deadline, "got {}", all.len());
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut lids: Vec<u64> = all.iter().map(|e| e.lid.0).collect();
        lids.sort_unstable();
        lids.dedup();
        assert_eq!(lids.len(), 12, "no event delivered to both partitions");
        cluster.shutdown();
    }

    #[test]
    fn photon_join_across_datacenters() {
        // Clicks published at DC 0, queries at DC 1 — joined at DC 0.
        let cluster = launch(2);
        let mut clicks = Publisher::new(cluster.client(dc(0)));
        let mut queries = Publisher::new(cluster.client(dc(1)));
        queries
            .publish_keyed("queries", "q42", "search: rust logs")
            .unwrap();
        clicks
            .publish_keyed("clicks", "q42", "clicked result 3")
            .unwrap();
        clicks
            .publish_keyed("clicks", "q77", "orphan click")
            .unwrap();
        assert!(cluster.wait_for_replication(3, Duration::from_secs(10)));
        let mut joiner = Joiner::new(cluster.client(dc(0)), "clicks", "queries");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut joined = Vec::new();
        while joined.is_empty() {
            joined.extend(joiner.poll().unwrap());
            assert!(Instant::now() < deadline, "join never completed");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].key, "q42");
        assert_eq!(joined[0].left.publisher, dc(0));
        assert_eq!(joined[0].right.publisher, dc(1));
        assert_eq!(joiner.pending(), 1, "the orphan click is buffered");
        cluster.shutdown();
    }

    #[test]
    fn windowed_join_evicts_stale_events() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        // An orphan event, then enough unrelated traffic to push it past
        // the window.
        publisher
            .publish_keyed("l", "orphan", "never matched")
            .unwrap();
        for i in 0..20 {
            publisher.publish("noise", format!("n{i}")).unwrap();
        }
        let mut joiner = Joiner::new(cluster.client(dc(0)), "l", "r").with_window(5);
        let deadline = Instant::now() + Duration::from_secs(10);
        while joiner.evicted() == 0 {
            joiner.poll().unwrap();
            assert!(Instant::now() < deadline, "orphan never evicted");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(joiner.pending(), 0);
        // A matching right-event arriving now finds nothing: the join
        // window has closed, exactly like Photon dropping late clicks.
        publisher.publish_keyed("r", "orphan", "too late").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let joined = joiner.poll().unwrap();
        assert!(joined.is_empty(), "joined across a closed window");
        cluster.shutdown();
    }

    #[test]
    fn unwindowed_join_buffers_indefinitely() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        publisher.publish_keyed("l", "k", "left").unwrap();
        for i in 0..20 {
            publisher.publish("noise", format!("n{i}")).unwrap();
        }
        publisher.publish_keyed("r", "k", "right").unwrap();
        let mut joiner = Joiner::new(cluster.client(dc(0)), "l", "r");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut joined = Vec::new();
        while joined.is_empty() {
            joined.extend(joiner.poll().unwrap());
            assert!(Instant::now() < deadline, "join never completed");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(joined[0].key, "k");
        cluster.shutdown();
    }

    #[test]
    fn reader_group_merges_partitions_in_log_order() {
        let cluster = launch(1);
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        for i in 0..20 {
            publisher.publish("t", format!("e{i}")).unwrap();
        }
        let mut group = ReaderGroup::new(3, "grp", "t", || cluster.client(dc(0)));
        assert_eq!(group.len(), 3);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut events: Vec<Event> = Vec::new();
        while events.len() < 20 {
            events.extend(group.poll(64).unwrap());
            assert!(
                Instant::now() < deadline,
                "group stalled at {}",
                events.len()
            );
            std::thread::sleep(Duration::from_millis(3));
        }
        // Each poll batch is LId-ordered and the union is exactly-once.
        let mut lids: Vec<u64> = events.iter().map(|e| e.lid.0).collect();
        let mut deduped = lids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), 20, "duplicate delivery inside the group");
        lids.sort_unstable();
        assert_eq!(lids, deduped);
        cluster.shutdown();
    }

    #[test]
    fn reader_delivers_an_event_its_owner_refused_at_first_exactly_once() {
        let cluster = launch_quiet();
        let mut publisher = Publisher::new(cluster.client(dc(0)));
        for i in 0..4 {
            publisher.publish("t", format!("e{i}")).unwrap();
        }
        hear(&cluster, 0);
        let mut reader = Reader::new(cluster.client(dc(0)), "r", "t");
        let mut events = Vec::new();
        // The Head polls ask the maintainers in turn, whose views are 0 and
        // 4, and the client keeps the highest Head it was handed; under 4
        // the reader gets e0, then stops at position 1, which its owner
        // still refuses when the client's retry budget is spent.
        for _ in 0..4 {
            events.extend(reader.poll(64).unwrap());
        }
        assert_eq!(reader.cursor(), LId(1));
        hear(&cluster, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while events.len() < 4 {
            events.extend(reader.poll(64).unwrap());
            assert!(Instant::now() < deadline, "only {} events", events.len());
        }
        let bodies: Vec<&[u8]> = events.iter().map(|e| &e.body[..]).collect();
        assert_eq!(bodies, [b"e0", b"e1", b"e2", b"e3"]);
        assert!(reader.poll(64).unwrap().is_empty(), "delivered twice");
        cluster.shutdown();
    }
}
