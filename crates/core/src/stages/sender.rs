//! The senders stage (§6.2): log propagation to other datacenters.
//!
//! "Senders propagate the local records of the log to other datacenters.
//! … Each Sender machine is responsible to send parts of the log from some
//! of the maintainers to a number of Receivers at other datacenters."
//!
//! Reliability still comes from the ATable, exactly as in the abstract
//! solution's *Propagate* (§6.1) — but a healthy round no longer re-offers
//! the entire unacknowledged window. Each sender keeps a per-peer **send
//! cursor** (the TOId high-water mark of what it has offered) and ships
//! only records beyond it; acknowledgement is still implicit — the peer's
//! applied cut flows back with *its* propagation messages. Only when a
//! peer's cut stalls past `retransmit_timeout` with offered records
//! outstanding does the sender fall back to re-offering from the
//! ATable-known cut, so drops, duplicated deliveries, and partitions heal
//! exactly as before (the filters and queues downstream are exactly-once).
//! The stall clock starts when records first go outstanding and is
//! restarted only by observable peer progress or by the fallback itself —
//! never by fresh offers, so sustained append load cannot starve the
//! retransmission a stalled peer is waiting for.
//!
//! Two invariants keep the cursor from ever *skipping* a record:
//!
//! * **Stable frontier.** Local TOIds and LIds are assigned together under
//!   the queues' token, so TOId order is LId order. A chunk never ships a
//!   record unless every one of this sender's maintainers has scanned past
//!   its LId — otherwise a lower TOId could still surface late from a
//!   maintainer whose group commit is in flight, and the advancing cursor
//!   would strand it until a retransmit timeout.
//! * **Eviction guard.** When the bounded cache evicts a record, its exact
//!   location (maintainer, LId) is kept in an index; a stale peer's offer
//!   window re-reads evicted records back by point lookup, lowest TOIds
//!   first, and a chunk never ships past a TOId still sitting in the
//!   index (e.g. its re-read failed during a failover).
//!
//! Outgoing chunks are built once per round as `Arc<[Record]>` and shared
//! across every peer that needs the same range, bounded both by record
//! count ([`SEND_BATCH`]) and by bytes (`max_chunk_bytes`). Rounds follow
//! local records: the queues signal the senders' [`Notify`] when they
//! route an assignment, and the propagation interval is the heartbeat
//! floor of a quiet sender. Nothing a peer sends starts a round — its
//! acknowledgement changes nothing a round would ship, and pruning, cursor
//! clamping and the retransmit clock are served by the next round — so a
//! message never causes a message.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chariots_simnet::{
    Counter, EventJournal, EventKind, Gauge, LinkSender, MetricsRegistry, Notify, ServiceStation,
    Shutdown, StageTracer,
};
use chariots_types::{DatacenterId, LId, Record, TOId};
use parking_lot::RwLock;
use std::collections::HashMap;

use chariots_flstore::ReplicaGroupHandle;

use crate::atable::ATable;
use crate::message::PropagationMsg;

/// How many records a sender ships to one peer per propagation round.
/// Kept moderate so the station pacing (the sender's NIC model) applies
/// per chunk rather than letting a giant burst bypass it.
const SEND_BATCH: usize = 512;
/// How many entries a sender pulls from one maintainer per scan.
const SCAN_BATCH: usize = 4096;
/// Byte bound of one outgoing chunk (summed record wire sizes, alongside
/// [`SEND_BATCH`]), so a catch-up burst after a partition heals cannot
/// monopolize the WAN link.
const MAX_CHUNK_BYTES: usize = 1 << 20;
/// Cap of a sender's retransmission cache in records. A crashed or
/// partitioned peer pins the cache's pruning bound; beyond this cap the
/// oldest records are evicted and re-hydrated from the maintainers by point
/// lookup if the stale peer recovers.
const CACHE_MAX_RECORDS: usize = 131_072;
/// After an event wakeup, how long the sender waits before scanning — the
/// queue signals when it *routes* entries to the maintainers, a moment
/// before they are applied and scannable; this grace absorbs that race so
/// the event path does not degrade to the heartbeat floor.
const WAKEUP_GRACE: Duration = Duration::from_micros(200);

/// WAN propagation counters, shared by every sender of one datacenter.
#[derive(Debug, Clone)]
pub struct SenderMetrics {
    /// Wire bytes shipped (records + applied-cut gossip).
    pub bytes: Counter,
    /// Records offered to peers (including retransmissions).
    pub records: Counter,
    /// Timeout-triggered fallbacks to re-offering from the ATable cut.
    pub retransmits: Counter,
    /// Distinct non-empty chunks built (each may fan out to many peers).
    pub chunks: Counter,
    /// Records evicted from the bounded retransmission cache.
    pub cache_evicted: Counter,
}

impl SenderMetrics {
    /// Unregistered counters (tests, standalone nodes).
    pub fn disabled() -> Self {
        SenderMetrics {
            bytes: Counter::new(),
            records: Counter::new(),
            retransmits: Counter::new(),
            chunks: Counter::new(),
            cache_evicted: Counter::new(),
        }
    }

    /// Counters registered under `{prefix}.chariots.wan.*`. Repeated calls
    /// return handles to the same counters, so a datacenter's senders share
    /// one set.
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> Self {
        SenderMetrics {
            bytes: registry.counter(&format!("{prefix}.chariots.wan.bytes")),
            records: registry.counter(&format!("{prefix}.chariots.wan.records")),
            retransmits: registry.counter(&format!("{prefix}.chariots.wan.retransmits")),
            chunks: registry.counter(&format!("{prefix}.chariots.wan.chunks")),
            cache_evicted: registry.counter(&format!("{prefix}.chariots.wan.cache.evicted")),
        }
    }
}

/// Live health of one sender machine, refreshed once per propagation
/// round: rounds run, retransmission-cache occupancy and, per peer, how
/// far the peer's applied cut trails this sender's offer cursor. Timeout-triggered
/// fallbacks additionally land in the registry's event journal as
/// [`EventKind::WanRetransmit`], correlated with the peer they healed.
#[derive(Debug, Clone)]
pub struct SenderHealth {
    /// Propagation rounds run. A quiet sender runs one per heartbeat.
    pub rounds: Counter,
    /// Records currently cached for (re)transmission.
    pub cache: Gauge,
    /// Evicted-record locations tracked for on-demand rehydration.
    pub evicted: Gauge,
    /// Per-peer cursor lag (offered-but-unacknowledged TOIds), in the
    /// sender's peer order.
    pub peer_lag: Vec<Gauge>,
    journal: EventJournal,
    source: String,
}

impl SenderHealth {
    /// Unregistered gauges and a detached journal (tests, standalone
    /// nodes).
    pub fn disabled() -> Self {
        SenderHealth {
            rounds: Counter::new(),
            cache: Gauge::new(),
            evicted: Gauge::new(),
            peer_lag: Vec::new(),
            journal: EventJournal::default(),
            source: String::new(),
        }
    }

    /// Counter `{prefix}.{node}.rounds`; gauges `{prefix}.{node}.cache.occupancy`,
    /// `{prefix}.{node}.evicted.occupancy`, and
    /// `{prefix}.{node}.peer{P}.cursor_lag`; events publish to the
    /// registry's journal under source `{prefix}.{node}`.
    pub fn registered(
        registry: &MetricsRegistry,
        prefix: &str,
        node: &str,
        peers: &[DatacenterId],
    ) -> Self {
        SenderHealth {
            rounds: registry.counter(&format!("{prefix}.{node}.rounds")),
            cache: registry.gauge(&format!("{prefix}.{node}.cache.occupancy")),
            evicted: registry.gauge(&format!("{prefix}.{node}.evicted.occupancy")),
            peer_lag: peers
                .iter()
                .map(|p| registry.gauge(&format!("{prefix}.{node}.peer{}.cursor_lag", p.index())))
                .collect(),
            journal: registry.journal().clone(),
            source: format!("{prefix}.{node}"),
        }
    }

    fn note_retransmit(&self, peer: DatacenterId) {
        self.journal.publish(
            &self.source,
            None,
            EventKind::WanRetransmit {
                peer: peer.index() as u64,
            },
        );
    }
}

/// Per-peer propagation state.
#[derive(Debug)]
struct PeerState {
    /// TOId high-water mark of what this sender has offered the peer. A
    /// healthy round ships only `(cursor, …]`.
    cursor: TOId,
    /// The peer's applied cut for our records, as of the last round.
    known: TOId,
    /// Stall clock for the retransmission fallback: when this peer first
    /// had offered records outstanding beyond `known` without observable
    /// progress since. Restarted when the cut rises or the fallback fires,
    /// cleared when the peer catches up — but NOT restarted by fresh
    /// offers, so rounds more frequent than the timeout (sustained append
    /// load) cannot postpone the retransmission forever.
    stalled_since: Option<Instant>,
}

/// A locally scanned record held for (re)transmission, remembering where
/// it was scanned from so an evicted copy can be re-read by point lookup.
#[derive(Debug, Clone)]
struct Cached {
    /// Registry index of the maintainer group the record lives on.
    midx: usize,
    lid: LId,
    record: Record,
}

/// One sender machine: scans its subset of maintainers for new local
/// records and offers each peer the records beyond its send cursor,
/// falling back to the ATable-known cut when the peer stalls.
pub struct SenderNode {
    dc: DatacenterId,
    /// The deployment's maintainer registry; this sender is responsible
    /// for indices `≡ my_index (mod num_senders)`, adopting newly added
    /// maintainers automatically.
    registry: Arc<RwLock<Vec<ReplicaGroupHandle>>>,
    my_index: usize,
    num_senders: usize,
    /// Per-maintainer scan cursors, by registry index.
    cursors: HashMap<usize, LId>,
    /// Local records discovered, by TOId (pruned once all peers know them,
    /// capped at `cache_max_records`).
    cache: BTreeMap<TOId, Cached>,
    /// Where evicted-but-possibly-still-needed records live: TOId →
    /// (registry index, LId). Entries move back into `cache` by point
    /// lookup when a stale peer's offer window reaches them, and are
    /// pruned exactly like the cache once every peer's cut passes them
    /// (~tens of bytes per record versus a full payload).
    evicted: BTreeMap<TOId, (usize, LId)>,
    atable: Arc<RwLock<ATable>>,
    /// WAN egress per peer: `peers[i] = (peer id, link sender)`.
    peers: Vec<(DatacenterId, LinkSender<PropagationMsg>)>,
    states: Vec<PeerState>,
    retransmit_timeout: Duration,
    max_chunk_bytes: usize,
    cache_max_records: usize,
    metrics: SenderMetrics,
    health: SenderHealth,
}

impl SenderNode {
    /// Creates the sender state with default bounds; tune with the `with_*`
    /// builders.
    pub fn new(
        dc: DatacenterId,
        registry: Arc<RwLock<Vec<ReplicaGroupHandle>>>,
        my_index: usize,
        num_senders: usize,
        atable: Arc<RwLock<ATable>>,
        peers: Vec<(DatacenterId, LinkSender<PropagationMsg>)>,
    ) -> Self {
        assert!(num_senders > 0 && my_index < num_senders);
        let states = peers
            .iter()
            .map(|_| PeerState {
                cursor: TOId::NONE,
                known: TOId::NONE,
                stalled_since: None,
            })
            .collect();
        SenderNode {
            dc,
            registry,
            my_index,
            num_senders,
            cursors: HashMap::new(),
            cache: BTreeMap::new(),
            evicted: BTreeMap::new(),
            atable,
            peers,
            states,
            retransmit_timeout: Duration::from_millis(200),
            max_chunk_bytes: MAX_CHUNK_BYTES,
            cache_max_records: CACHE_MAX_RECORDS,
            metrics: SenderMetrics::disabled(),
            health: SenderHealth::disabled(),
        }
    }

    /// Sets the stalled-peer retransmission timeout.
    pub fn with_retransmit_timeout(mut self, d: Duration) -> Self {
        self.retransmit_timeout = d;
        self
    }

    /// Sets the per-chunk byte bound.
    pub fn with_max_chunk_bytes(mut self, n: usize) -> Self {
        self.max_chunk_bytes = n.max(1);
        self
    }

    /// Caps the retransmission cache (records).
    pub fn with_cache_cap(mut self, n: usize) -> Self {
        self.cache_max_records = n.max(1);
        self
    }

    /// Attaches WAN propagation counters.
    pub fn with_metrics(mut self, metrics: SenderMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches health gauges and the event journal.
    pub fn with_health(mut self, health: SenderHealth) -> Self {
        self.health = health;
        self
    }

    /// One propagation round: scan for new local records, then offer each
    /// peer what it is missing — its cursor delta when healthy, the
    /// ATable-known cut after a stall. `station`, when present, models the
    /// sender's NIC: the round pays for each chunk *before* it goes on the
    /// wire, so the long-run send rate respects the machine's capacity.
    /// Returns the number of records sent.
    pub fn round(&mut self, station: Option<&ServiceStation>) -> u64 {
        self.health.rounds.add(1);
        self.scan_new_records();
        self.enforce_cache_cap();
        let now = Instant::now();
        // One ATable read per round: our applied cut (shared by every
        // outgoing message) and each peer's knowledge of our records.
        let (applied, peer_known): (chariots_types::VersionVector, Vec<TOId>) = {
            let at = self.atable.read();
            (
                at.row(self.dc),
                self.peers
                    .iter()
                    .map(|(p, _)| at.get(*p, self.dc))
                    .collect(),
            )
        };

        // Advance per-peer state and pick each peer's offer start.
        let mut starts: Vec<TOId> = Vec::with_capacity(self.peers.len());
        for (i, (state, known)) in self
            .states
            .iter_mut()
            .zip(peer_known.iter().copied())
            .enumerate()
        {
            if known > state.known {
                state.known = known;
                // Observable progress: the stall clock restarts (and is
                // cleared below if the peer caught up entirely).
                state.stalled_since = Some(now);
            }
            if state.cursor < known {
                // Acknowledged past our cursor (e.g. relayed via a third
                // datacenter): never re-offer what the peer already has.
                state.cursor = known;
            }
            if state.cursor <= known {
                // Nothing outstanding — there is no stall to clock.
                state.stalled_since = None;
            }
            let start = if state.cursor > known
                && state
                    .stalled_since
                    .is_some_and(|t| now.duration_since(t) >= self.retransmit_timeout)
            {
                // Offered records outstanding and the peer's cut stalled:
                // heal by re-offering from the ATable-known cut. One
                // fallback per timeout window, not per round — the clock
                // restarts when the re-offer goes out below.
                self.metrics.retransmits.add(1);
                self.health.note_retransmit(self.peers[i].0);
                state.stalled_since = None;
                state.cursor = known;
                known
            } else {
                state.cursor
            };
            starts.push(start);
        }

        // A stale peer's offer window may need records the cap evicted;
        // point-read them back from the maintainers before building chunks.
        self.rehydrate(&starts);

        // Never ship (and advance a cursor) past the stable frontier: a
        // record above it could still be followed by a lower TOId
        // surfacing late from a lagging maintainer, and the skipped record
        // would strand until a retransmit timeout.
        let stable = self.stable_frontier();

        // Build each distinct chunk once and fan the shared payload out to
        // every peer starting at the same cursor.
        let mut chunks: HashMap<TOId, Arc<[Record]>> = HashMap::new();
        let mut sent = 0u64;
        for (i, start) in starts.into_iter().enumerate() {
            let records = chunks
                .entry(start)
                .or_insert_with(|| {
                    let chunk = build_chunk(
                        &self.cache,
                        &self.evicted,
                        start,
                        stable,
                        SEND_BATCH,
                        self.max_chunk_bytes,
                    );
                    if !chunk.is_empty() {
                        // One count per distinct payload built, not per
                        // peer send — the fan-out effectiveness metric.
                        self.metrics.chunks.add(1);
                    }
                    chunk
                })
                .clone();
            let n = records.len() as u64;
            if n > 0 {
                if let Some(st) = station {
                    st.note_arrival(n);
                    if st.serve(n).is_err() {
                        continue; // crashed: this peer's chunk waits
                    }
                }
                self.metrics.records.add(n);
                if let Some(last) = records.last() {
                    let state = &mut self.states[i];
                    if last.toid() > state.cursor {
                        state.cursor = last.toid();
                        // Records going outstanding start the stall clock;
                        // an already-running clock keeps running (fresh
                        // offers are not peer progress).
                        if state.cursor > state.known {
                            state.stalled_since.get_or_insert(now);
                        }
                    }
                }
            }
            // Even an empty message carries our applied cut — that is the
            // gossip that unblocks the peer's GC and our pruning.
            sent += n;
            let msg = PropagationMsg {
                from: self.dc,
                records,
                applied: applied.clone(),
            };
            self.metrics.bytes.add(msg.wire_size() as u64);
            let (_, link) = &self.peers[i];
            link.send(msg);
        }
        self.prune(&peer_known);
        // Refresh this machine's health gauges once per round, post-prune,
        // so the readings reflect what the round left behind.
        self.health.cache.set(self.cache.len() as i64);
        self.health.evicted.set(self.evicted.len() as i64);
        for (i, state) in self.states.iter().enumerate() {
            if let Some(lag) = self.health.peer_lag.get(i) {
                lag.set(state.cursor.0.saturating_sub(state.known.0) as i64);
            }
        }
        sent
    }

    /// Pulls newly persisted local records from this sender's maintainers.
    fn scan_new_records(&mut self) {
        let mine = self.my_maintainers();
        for (idx, handle) in mine {
            let cursor = self.cursors.entry(idx).or_insert(LId::ZERO);
            loop {
                // Only positions below the maintainer's frontier are final
                // (everything owned below the frontier is filled), so the
                // cursor never skips a slot that fills later. The frontier
                // comes with the scan it bounds: one RPC per maintainer.
                let Ok((frontier, entries)) = handle.scan(*cursor, SCAN_BATCH) else {
                    break;
                };
                if entries.is_empty() {
                    // Nothing filled at or above the cursor, so no owned
                    // slot sits in [cursor, frontier) (slots below the
                    // frontier are filled by definition): the cursor can
                    // jump to the frontier without skipping anything. This
                    // keeps a record-less maintainer (fresh stripe) from
                    // pinning the stable frontier at zero.
                    if *cursor < frontier {
                        *cursor = frontier;
                    }
                    break;
                }
                let mut advanced = false;
                for e in &entries {
                    if e.lid >= frontier {
                        break;
                    }
                    if e.record.host() == self.dc {
                        self.cache.insert(
                            e.record.toid(),
                            Cached {
                                midx: idx,
                                lid: e.lid,
                                record: e.record.clone(),
                            },
                        );
                    }
                    *cursor = e.lid.next();
                    advanced = true;
                }
                let hit_frontier = entries.last().is_some_and(|e| e.lid >= frontier);
                if hit_frontier || entries.len() < SCAN_BATCH {
                    if !hit_frontier && *cursor < frontier {
                        // Everything up to the frontier is scanned.
                        *cursor = frontier;
                    }
                    break;
                }
                if !advanced {
                    break;
                }
            }
        }
    }

    /// The maintainers this sender is responsible for.
    fn my_maintainers(&self) -> Vec<(usize, ReplicaGroupHandle)> {
        let registry = self.registry.read();
        registry
            .iter()
            .enumerate()
            .filter(|(i, _)| i % self.num_senders == self.my_index)
            .map(|(i, h)| (i, h.clone()))
            .collect()
    }

    /// The highest cached TOId every one of this sender's maintainers has
    /// scanned past (by LId). Local TOIds and LIds are assigned together
    /// under the token — TOId order *is* LId order — and a maintainer only
    /// admits new records at owned slots at or above its frontier, so no
    /// record at a TOId at or below this bound can surface later.
    fn stable_frontier(&self) -> TOId {
        let registry_len = self.registry.read().len();
        let mut min_scanned: Option<LId> = None;
        for idx in (0..registry_len).filter(|i| i % self.num_senders == self.my_index) {
            let c = self.cursors.get(&idx).copied().unwrap_or(LId::ZERO);
            min_scanned = Some(min_scanned.map_or(c, |m| m.min(c)));
        }
        let Some(min_scanned) = min_scanned else {
            return TOId::NONE;
        };
        // Cached TOIds ascend with their LIds, so walk down from the top
        // to the first entry below every scan cursor. The walk is bounded
        // by the records one lagging maintainer is holding back.
        self.cache
            .iter()
            .rev()
            .find(|(_, c)| c.lid < min_scanned)
            .map(|(t, _)| *t)
            .unwrap_or(TOId::NONE)
    }

    /// Caps the retransmission cache by evicting the oldest records (only
    /// a stale peer can still need them) into the location index, from
    /// which they re-hydrate on demand.
    fn enforce_cache_cap(&mut self) {
        let over = self.cache.len().saturating_sub(self.cache_max_records);
        if over == 0 {
            return;
        }
        for _ in 0..over {
            if let Some((toid, c)) = self.cache.pop_first() {
                self.evicted.insert(toid, (c.midx, c.lid));
            }
        }
        self.metrics.cache_evicted.add(over as u64);
    }

    /// Moves evicted records that some peer's offer window now needs back
    /// into the cache — lowest TOIds first, at most a chunk's worth per
    /// distinct offer start — via exact per-maintainer point lookups (no
    /// log rescans). A record whose read fails (its group mid-failover)
    /// stays in the index, and [`build_chunk`]'s eviction guard keeps
    /// every offer short of the hole until a later round heals it. Safe
    /// against GC: the ATable's collection rule keeps any record some
    /// datacenter still lacks.
    fn rehydrate(&mut self, starts: &[TOId]) {
        if self.evicted.is_empty() {
            return;
        }
        let mut sorted: Vec<TOId> = starts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut picks: BTreeMap<TOId, (usize, LId)> = BTreeMap::new();
        for start in sorted {
            for (t, loc) in self.evicted.range(start.next()..).take(SEND_BATCH) {
                picks.insert(*t, *loc);
            }
        }
        if picks.is_empty() {
            return;
        }
        let mut by_maintainer: HashMap<usize, Vec<(TOId, LId)>> = HashMap::new();
        for (t, (idx, lid)) in picks {
            by_maintainer.entry(idx).or_default().push((t, lid));
        }
        for (idx, positions) in by_maintainer {
            let handle = self.registry.read().get(idx).cloned();
            let Some(handle) = handle else { continue };
            let lids: Vec<LId> = positions.iter().map(|&(_, lid)| lid).collect();
            let results = handle.read_batch(&lids, false);
            for ((t, lid), result) in positions.into_iter().zip(results) {
                let Ok(entry) = result else { continue };
                // The slot must still hold the record we evicted.
                if entry.record.host() != self.dc || entry.record.toid() != t {
                    continue;
                }
                self.cache.insert(
                    t,
                    Cached {
                        midx: idx,
                        lid,
                        record: entry.record,
                    },
                );
                self.evicted.remove(&t);
            }
        }
    }

    /// Drops cached records every peer already knows.
    fn prune(&mut self, peer_known: &[TOId]) {
        let Some(min_known) = peer_known.iter().min().copied() else {
            return;
        };
        if min_known.is_none() {
            return;
        }
        self.cache = self.cache.split_off(&min_known.next());
        self.evicted = self.evicted.split_off(&min_known.next());
    }

    /// Records currently cached for retransmission.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Evicted records currently tracked by the location index.
    pub fn evicted_len(&self) -> usize {
        self.evicted.len()
    }
}

/// Builds one outgoing chunk: records in `(start, stable]`, bounded by
/// count and by summed wire size (a chunk always makes progress — the
/// first record ships even if it alone exceeds the byte bound). The chunk
/// additionally stops short of the first TOId still in the eviction index
/// — offering past it would advance the peer's cursor over a record the
/// sender cannot currently produce.
fn build_chunk(
    cache: &BTreeMap<TOId, Cached>,
    evicted: &BTreeMap<TOId, (usize, LId)>,
    start: TOId,
    stable: TOId,
    max_records: usize,
    max_bytes: usize,
) -> Arc<[Record]> {
    let bound = evicted
        .range(start.next()..)
        .next()
        .map(|(t, _)| t.prev())
        .unwrap_or(stable)
        .min(stable);
    if bound <= start {
        return Vec::new().into();
    }
    let mut out: Vec<Record> = Vec::new();
    let mut bytes = 0usize;
    for (t, c) in cache.range(start.next()..) {
        if *t > bound {
            break;
        }
        // Record::wire_size is what Incoming::wire_size charges for an
        // external record, so the chunk bound matches the link model.
        let sz = c.record.wire_size();
        if !out.is_empty() && (out.len() >= max_records || bytes + sz > max_bytes) {
            break;
        }
        bytes += sz;
        out.push(c.record.clone());
        if out.len() >= max_records {
            break;
        }
    }
    out.into()
}

/// Spawns a sender node. Rounds are event-driven: `wakeup` fires when a
/// queue routes new local records, and `interval` is the gossip heartbeat
/// floor a quiet sender still honours.
pub fn spawn_sender(
    mut node: SenderNode,
    interval: Duration,
    mut wakeup: Notify,
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
    tracer: StageTracer,
) -> (Counter, JoinHandle<()>) {
    let processed = Counter::new();
    let counter = processed.clone();
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || loop {
            if shutdown.is_signaled() {
                return;
            }
            let t0 = std::time::Instant::now();
            let sent = node.round(Some(&station));
            if sent > 0 {
                processed.add(sent);
                // Records ship in bulk, so the sender stage reports its
                // round service time rather than per-record spans.
                tracer.observe(t0.elapsed());
            }
            if wakeup.wait_timeout(interval) {
                std::thread::sleep(WAKEUP_GRACE);
            }
        })
        .expect("spawn sender");
    (counter, thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_flstore::{AppendPayload, EpochJournal, Fabric, MaintainerCore, RangeMap};
    use chariots_simnet::{Link, LinkConfig, StationConfig};
    use chariots_types::{Entry, MaintainerId, RecordId, TagSet, VersionVector};

    /// Builds one maintainer node with some local records persisted the
    /// Chariots way (pre-assigned entries).
    fn maintainer_with_local_records(
        n_records: u64,
    ) -> (
        ReplicaGroupHandle,
        Shutdown,
        Vec<std::thread::JoinHandle<MaintainerCore>>,
    ) {
        let shutdown = Shutdown::new();
        let journal = EpochJournal::new(RangeMap::new(1, 100));
        let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal);
        let station = Arc::new(ServiceStation::new("m0", StationConfig::uncapped()));
        let (handle, thread) = chariots_flstore::node::spawn_maintainer(
            core,
            station,
            Fabric::new(),
            Duration::from_millis(1),
            shutdown.clone(),
        );
        // Standalone appends: host == DC 0, TOId == LId+1.
        for i in 0..n_records {
            handle
                .append(vec![AppendPayload::new(TagSet::new(), format!("r{i}"))])
                .unwrap();
        }
        (ReplicaGroupHandle::solo(handle), shutdown, vec![thread])
    }

    #[test]
    fn delta_sender_ships_new_records_exactly_once_until_timeout() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(5);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer])),
            0,
            1,
            Arc::clone(&atable),
            vec![(DatacenterId(1), link_tx)],
        )
        .with_retransmit_timeout(Duration::from_millis(40));
        // Wait for the maintainer's frontier to cover the appends.
        std::thread::sleep(Duration::from_millis(10));
        let sent = node.round(None);
        assert_eq!(sent, 5);
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.records.len(), 5);
        assert_eq!(msg.from, DatacenterId(0));
        // Delta shipping: the cursor advanced, so the very next round does
        // NOT re-offer (no ack yet, but no timeout either).
        assert_eq!(node.round(None), 0, "cursor suppresses the re-offer");
        assert_eq!(node.cache_len(), 5, "unacked records stay cached");
        // After the stall timeout with no ack, the sender falls back to
        // re-offering from the ATable-known cut — the healing path.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(node.round(None), 5, "timeout re-offers the window");
        assert_eq!(node.metrics.retransmits.get(), 1);
        // The peer's applied cut arrives (via a receiver, modelled here by
        // writing the ATable row directly): pruning resumes.
        atable.write().merge_row(
            DatacenterId(1),
            &VersionVector::from_entries(vec![TOId(5), TOId(0)]),
        );
        assert_eq!(node.round(None), 0, "peer has everything");
        assert_eq!(node.cache_len(), 0, "cache pruned");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// Regression for retransmit starvation: fresh offers must not restart
    /// the stall clock. Under sustained append load (rounds more frequent
    /// than the timeout), a peer stalled at a dropped chunk still gets its
    /// fallback re-offer within one timeout window.
    #[test]
    fn sustained_append_load_does_not_starve_the_retransmit_fallback() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(3);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer.clone()])),
            0,
            1,
            atable,
            vec![(DatacenterId(1), link_tx)],
        )
        .with_retransmit_timeout(Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(node.round(None), 3, "initial window offered");
        let _ = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        // The peer never acks (its chunk was "dropped"); meanwhile the
        // workload keeps appending, so every round has something fresh to
        // offer. The stall clock must keep running regardless.
        let deadline = Instant::now() + Duration::from_millis(400);
        let mut appended = 3;
        while node.metrics.retransmits.get() == 0 {
            assert!(
                Instant::now() < deadline,
                "retransmit fallback starved by sustained fresh offers"
            );
            maintainer
                .append(vec![AppendPayload::new(
                    TagSet::new(),
                    format!("w{appended}"),
                )])
                .unwrap();
            appended += 1;
            std::thread::sleep(Duration::from_millis(10));
            node.round(None);
        }
        // The fallback re-offered from the known cut: the whole window,
        // starting back at TOId 1, goes out again.
        let reoffer = std::iter::from_fn(|| link_rx.recv_timeout(Duration::from_millis(100)).ok())
            .find(|m| m.records.first().is_some_and(|r| r.toid() == TOId(1)))
            .expect("fallback re-offer starts at the known cut");
        assert!(reoffer.records.len() >= 3);
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// Regression for cursor gap-skipping: with several maintainers per
    /// sender, a lower TOId surfacing late (its maintainer's group commit
    /// in flight) must not be passed over by a cursor already advanced by
    /// a faster maintainer's higher TOIds. The stable frontier holds the
    /// chunk back until every maintainer has scanned past the gap.
    #[test]
    fn late_record_from_slow_maintainer_is_not_skipped() {
        let shutdown = Shutdown::new();
        let dc = DatacenterId(0);
        // Two maintainers, striped 4 LIds each: m0 owns [0,4), m1 [4,8).
        let journal = EpochJournal::new(RangeMap::new(2, 4));
        let mut handles = Vec::new();
        let mut threads = Vec::new();
        for i in 0..2u16 {
            let core = MaintainerCore::new(MaintainerId(i), dc, journal.clone());
            let station = Arc::new(ServiceStation::new(
                format!("m{i}"),
                StationConfig::uncapped(),
            ));
            let (handle, thread) = chariots_flstore::node::spawn_maintainer(
                core,
                station,
                Fabric::new(),
                Duration::from_millis(1),
                shutdown.clone(),
            );
            handles.push(ReplicaGroupHandle::solo(handle));
            threads.push(thread);
        }
        let local = |toid: u64, body: &str| {
            Record::new(
                RecordId::new(dc, TOId(toid)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::copy_from_slice(body.as_bytes()),
            )
        };
        let external = |toid: u64| {
            Record::new(
                RecordId::new(DatacenterId(1), TOId(toid)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::new(),
            )
        };
        // TOId order is LId order for local records: T1@L0, T2@L1 (m0),
        // T3@L4 (m1). T2's store lags — m0's frontier stays at L1 — while
        // m1 has already persisted T3.
        handles[0].store(vec![
            Entry::new(LId(0), local(1, "a")),
            Entry::new(LId(2), external(1)),
            Entry::new(LId(3), external(2)),
        ]);
        handles[1].store(vec![Entry::new(LId(4), local(3, "c"))]);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            dc,
            Arc::new(RwLock::new(handles.clone())),
            0,
            1,
            atable,
            vec![(DatacenterId(1), link_tx)],
        );
        std::thread::sleep(Duration::from_millis(10));
        // T3 is cached but unstable (m0's scan stops at its frontier, L1):
        // only T1 ships, and the cursor stays short of the gap.
        assert_eq!(node.round(None), 1, "chunk stops at the stable frontier");
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.records.len(), 1);
        assert_eq!(msg.records[0].toid(), TOId(1));
        // The slow store lands; the frontier and the stable bound advance.
        handles[0].store(vec![Entry::new(LId(1), local(2, "b"))]);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(node.round(None), 2, "gap record and successor ship");
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        let toids: Vec<TOId> = msg.records.iter().map(|r| r.toid()).collect();
        assert_eq!(toids, vec![TOId(2), TOId(3)], "in order, nothing skipped");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn shared_chunk_fans_out_to_peers_at_the_same_cursor() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(4);
        let atable = Arc::new(RwLock::new(ATable::new(3)));
        let (tx1, rx1, _h1) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let (tx2, rx2, _h2) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer])),
            0,
            1,
            atable,
            vec![(DatacenterId(1), tx1), (DatacenterId(2), tx2)],
        );
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(node.round(None), 8, "4 records offered to each peer");
        let m1 = rx1.recv_timeout(Duration::from_secs(1)).unwrap();
        let m2 = rx2.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m1.records.len(), 4);
        assert!(
            Arc::ptr_eq(&m1.records, &m2.records),
            "both peers share one payload allocation"
        );
        assert_eq!(
            node.metrics.chunks.get(),
            1,
            "one distinct chunk built, fanned out to both peers"
        );
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn chunks_respect_the_byte_bound() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(6);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer])),
            0,
            1,
            atable,
            vec![(DatacenterId(1), link_tx)],
        )
        .with_max_chunk_bytes(1); // every record alone exceeds the bound
        std::thread::sleep(Duration::from_millis(10));
        // A chunk always makes progress: exactly one record per round.
        assert_eq!(node.round(None), 1);
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.records.len(), 1);
        assert_eq!(msg.records[0].toid(), TOId(1));
        assert_eq!(node.round(None), 1, "cursor advanced to the next record");
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.records[0].toid(), TOId(2));
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn cache_cap_evicts_and_rehydrates_for_a_lagging_peer() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(12);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer])),
            0,
            1,
            Arc::clone(&atable),
            vec![(DatacenterId(1), link_tx)],
        )
        .with_cache_cap(4);
        std::thread::sleep(Duration::from_millis(10));
        // The cap evicts the 8 oldest of the 12 scanned records into the
        // location index — but the peer's cursor is still at zero, so the
        // round re-hydrates them by point lookup and the offer still
        // starts at TOId 1. Nothing is lost.
        assert_eq!(node.round(None), 12);
        assert_eq!(node.metrics.cache_evicted.get(), 8, "12 scanned, 4 kept");
        assert_eq!(node.evicted_len(), 0, "rehydration emptied the index");
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.records.len(), 12);
        assert_eq!(
            msg.records[0].toid(),
            TOId(1),
            "offer starts below the eviction high-water: rehydrated"
        );
        // Once the peer acks everything, the cache empties as before.
        atable.write().merge_row(
            DatacenterId(1),
            &VersionVector::from_entries(vec![TOId(12), TOId(0)]),
        );
        node.round(None);
        assert_eq!(node.cache_len(), 0);
        assert_eq!(node.evicted_len(), 0);
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// The eviction guard: a chunk never offers past a TOId that is still
    /// only in the eviction index (its re-read failed), because the peer's
    /// cursor would skip it permanently.
    #[test]
    fn chunk_stops_short_of_an_unrehydrated_eviction() {
        let rec = |toid: u64| Cached {
            midx: 0,
            lid: LId(toid - 1),
            record: Record::new(
                RecordId::new(DatacenterId(0), TOId(toid)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::new(),
            ),
        };
        let cache: BTreeMap<TOId, Cached> = [1u64, 2, 4, 5]
            .into_iter()
            .map(|t| (TOId(t), rec(t)))
            .collect();
        let evicted: BTreeMap<TOId, (usize, LId)> = [(TOId(3), (0usize, LId(2)))].into();
        let chunk = build_chunk(&cache, &evicted, TOId::NONE, TOId(5), 512, 1 << 20);
        let toids: Vec<TOId> = chunk.iter().map(|r| r.toid()).collect();
        assert_eq!(toids, vec![TOId(1), TOId(2)], "stops before the hole");
        // Once the hole heals (record back in cache), the rest ships.
        let mut cache = cache;
        cache.insert(TOId(3), rec(3));
        let chunk = build_chunk(&cache, &BTreeMap::new(), TOId::NONE, TOId(5), 512, 1 << 20);
        assert_eq!(chunk.len(), 5);
    }

    #[test]
    fn empty_rounds_still_gossip_applied_cut() {
        let (maintainer, shutdown, threads) = maintainer_with_local_records(0);
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        atable
            .write()
            .observe(DatacenterId(0), DatacenterId(0), TOId(7));
        let (link_tx, link_rx, _h) = Link::spawn_simple::<PropagationMsg>(LinkConfig::default());
        let mut node = SenderNode::new(
            DatacenterId(0),
            Arc::new(RwLock::new(vec![maintainer])),
            0,
            1,
            atable,
            vec![(DatacenterId(1), link_tx)],
        );
        node.round(None);
        let msg = link_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(msg.records.is_empty());
        assert_eq!(msg.applied.get(DatacenterId(0)), TOId(7));
        assert!(node.metrics.bytes.get() > 0, "gossip bytes are counted");
        assert_eq!(node.metrics.chunks.get(), 0, "heartbeats are not chunks");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }
}
