//! Thread-hosted servers wrapping the synchronous cores: each simulated
//! machine (maintainer or indexer) is one worker thread fed by a channel,
//! paced by its [`ServiceStation`].
//!
//! The maintainer node is a **group-commit batch engine** (§5.2's "batches
//! of records" made real): after the first blocking `recv`, the loop
//! opportunistically drains further queued `Append`/`Store` requests into
//! one batch bounded by [`BatchPolicy`], then pays one station admission,
//! one generation capture, one application pass, and one commit: the
//! batch's shared `Arc<[Entry]>` goes to every live backup (never
//! deep-cloned per backup), the primary pays one WAL flush+fsync (under the
//! configured [`WalSyncPolicy`](chariots_types::WalSyncPolicy)) while those
//! pushes are in flight, and the group's commit tracker fans replies out to
//! every waiter once a quorum of the participating seats holds the batch
//! durably. A primary with no live backup is a quorum of one.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{
    Counter, Endpoint, EventJournal, EventKind, Gauge, Histogram, MetricsRegistry, Notify, ReplyTo,
    ServiceStation, Shutdown, StageTracer,
};
use chariots_types::{
    ChariotsError, Entry, Generation, LId, Limit, MaintainerId, Result, TOId, TagValue, TraceId,
    ValuePredicate, Wire, WireReader,
};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use crate::indexer::{indexer_for, IndexerCore};
use crate::maintainer::{AppendPayload, MaintainerCore, MaintainerStats};
use crate::range::RangeMap;
use crate::replication::commit::{
    CommitOutcomeCtx, CommitWaiter, PendingCommit, MAX_PENDING_COMMITS,
};
use crate::replication::{GroupState, ReplicaCtx, ReplicaGroupHandle};

/// Reply slot for append requests: the assigned `(TOId, LId)` pairs. A
/// [`ReplyTo`] rather than a raw channel sender so the slot survives a TCP
/// hop — serialized, it becomes a dial-back token the serving node answers
/// across the wire.
pub type AppendReplySender = ReplyTo<Result<Vec<(TOId, LId)>>>;

/// Bounds on how many queued requests the node loop coalesces into one
/// group-commit batch. Deployments set the records bound from the config
/// knob `max_batch_records` (1 disables coalescing); the byte bound is a
/// constant of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum records (payloads + pre-routed entries) per batch.
    pub max_records: usize,
    /// Maximum summed record-body bytes per batch.
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_records: 512,
            max_bytes: 1 << 20,
        }
    }
}

/// Requests served by a maintainer node.
pub enum MaintainerRequest {
    /// Post-assigned append of a batch of payloads. `reply` is `None` for
    /// open-loop load generation (fire-and-forget).
    Append {
        /// Payloads to append.
        payloads: Vec<AppendPayload>,
        /// Where to send the assigned ids, if anyone is waiting.
        reply: Option<AppendReplySender>,
    },
    /// Explicit-order append: the assigned position must exceed `min`.
    AppendMinBound {
        /// Payload to append.
        payload: AppendPayload,
        /// Minimum-bound position.
        min: LId,
        /// Immediate assignment, or `None` if parked.
        reply: ReplyTo<Result<Option<(TOId, LId)>>>,
    },
    /// Store entries whose positions were pre-routed by the Chariots
    /// queues.
    Store {
        /// Entries to persist.
        entries: Vec<Entry>,
    },
    /// Primary→backup replication of already-assigned entries (also used
    /// by anti-entropy repair). Unlike `Store`, duplicates are overwritten
    /// rather than rejected, and no tag postings or counters fire — the
    /// acting primary already accounted for the records.
    Replicate {
        /// Entries to persist on this replica. Shared: the primary sends
        /// every backup the same allocation instead of a deep copy each.
        entries: Arc<[Entry]>,
        /// The sender's view of the group generation (fencing).
        generation: Generation,
        /// Replies with this replica's frontier after applying. `None` for
        /// commit-path pushes, which report through the commit tracker
        /// instead.
        reply: Option<Sender<Result<LId>>>,
        /// Commit sequence number to ack durability against (`None` for
        /// synchronous anti-entropy repair).
        seq: Option<u64>,
    },
    /// Read one position.
    Read {
        /// Position to read.
        lid: LId,
        /// Whether to refuse positions at/above the Head of the Log.
        enforce_hl: bool,
        /// Reply channel.
        reply: ReplyTo<Result<Entry>>,
    },
    /// Read several positions in one round trip (scatter-gather read
    /// path). Each position is gated exactly like a single `Read`; the
    /// reply carries one result per requested position, in request order.
    ReadBatch {
        /// Positions to read.
        lids: Vec<LId>,
        /// Whether to refuse positions at/above the Head of the Log.
        enforce_hl: bool,
        /// Reply channel (one result per position, in order).
        reply: ReplyTo<Vec<Result<Entry>>>,
    },
    /// Scan owned entries with `lid ≥ from` (sender/reader bulk path).
    Scan {
        /// Scan start.
        from: LId,
        /// Maximum entries returned.
        max: usize,
        /// Reply channel: the maintainer's frontier as of the scan (every
        /// owned position below it is filled, so entries below it are
        /// final), then the entries.
        reply: ReplyTo<(LId, Vec<Entry>)>,
    },
    /// Ask for this maintainer's view of the Head of the Log.
    HeadOfLog {
        /// Reply channel.
        reply: ReplyTo<LId>,
    },
    /// Incorporate a peer's gossiped frontier.
    GossipIn {
        /// Gossiping maintainer.
        from: MaintainerId,
        /// Its advertised frontier.
        frontier: LId,
    },
    /// Apply a future reassignment (§6.3).
    AnnounceEpoch {
        /// First position governed by the new map.
        start: LId,
        /// The new striping.
        map: RangeMap,
    },
    /// Garbage-collect owned positions below `before`.
    Gc {
        /// Exclusive GC bound.
        before: LId,
    },
    /// Fetch live counters.
    Stats {
        /// Reply channel.
        reply: Sender<MaintainerStats>,
    },
}

/// The request variants a client may route over TCP: the append/read/scan
/// family. `Replicate`, gossip, epoch, GC, and stats traffic is the
/// simulation harness talking to the machine and stays on the in-process
/// channel — those variants encode as an invalid tag, so a decoder drops
/// them instead of ever reconstructing one from the network.
impl Wire for MaintainerRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MaintainerRequest::Append { payloads, reply } => {
                buf.push(0);
                payloads.encode(buf);
                reply.encode(buf);
            }
            MaintainerRequest::AppendMinBound {
                payload,
                min,
                reply,
            } => {
                buf.push(1);
                payload.encode(buf);
                min.encode(buf);
                reply.encode(buf);
            }
            MaintainerRequest::Store { entries } => {
                buf.push(2);
                entries.encode(buf);
            }
            MaintainerRequest::Read {
                lid,
                enforce_hl,
                reply,
            } => {
                buf.push(3);
                lid.encode(buf);
                enforce_hl.encode(buf);
                reply.encode(buf);
            }
            MaintainerRequest::ReadBatch {
                lids,
                enforce_hl,
                reply,
            } => {
                buf.push(4);
                lids.encode(buf);
                enforce_hl.encode(buf);
                reply.encode(buf);
            }
            MaintainerRequest::Scan { from, max, reply } => {
                buf.push(5);
                from.encode(buf);
                max.encode(buf);
                reply.encode(buf);
            }
            MaintainerRequest::HeadOfLog { reply } => {
                buf.push(6);
                reply.encode(buf);
            }
            MaintainerRequest::Replicate { .. }
            | MaintainerRequest::GossipIn { .. }
            | MaintainerRequest::AnnounceEpoch { .. }
            | MaintainerRequest::Gc { .. }
            | MaintainerRequest::Stats { .. } => buf.push(u8::MAX),
        }
    }

    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(MaintainerRequest::Append {
                payloads: Vec::<AppendPayload>::decode(r)?,
                reply: Option::<AppendReplySender>::decode(r)?,
            }),
            1 => Some(MaintainerRequest::AppendMinBound {
                payload: AppendPayload::decode(r)?,
                min: LId::decode(r)?,
                reply: ReplyTo::<Result<Option<(TOId, LId)>>>::decode(r)?,
            }),
            2 => Some(MaintainerRequest::Store {
                entries: Vec::<Entry>::decode(r)?,
            }),
            3 => Some(MaintainerRequest::Read {
                lid: LId::decode(r)?,
                enforce_hl: bool::decode(r)?,
                reply: ReplyTo::<Result<Entry>>::decode(r)?,
            }),
            4 => Some(MaintainerRequest::ReadBatch {
                lids: Vec::<LId>::decode(r)?,
                enforce_hl: bool::decode(r)?,
                reply: ReplyTo::<Vec<Result<Entry>>>::decode(r)?,
            }),
            5 => Some(MaintainerRequest::Scan {
                from: LId::decode(r)?,
                max: usize::decode(r)?,
                reply: ReplyTo::<(LId, Vec<Entry>)>::decode(r)?,
            }),
            6 => Some(MaintainerRequest::HeadOfLog {
                reply: ReplyTo::<LId>::decode(r)?,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Debug for MaintainerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MaintainerHandle")
    }
}

/// Client-side handle to a maintainer node. Cheap to clone.
#[derive(Clone)]
pub struct MaintainerHandle {
    /// The maintainer's id.
    pub id: MaintainerId,
    /// The node's channel, or under the TCP transport its listener: where
    /// the client-facing RPCs (append/read/scan family) `send`, a failure
    /// there being the transient [`ChariotsError::Transport`]. Replication,
    /// gossip, epoch, GC and stats always `send_local`: they are the
    /// harness modelling the machine, not client traffic.
    pub(crate) to: Endpoint<MaintainerRequest>,
    station: Arc<ServiceStation>,
    appended: Counter,
    /// Replication RPCs received by this node (one per `replicate` call,
    /// however many entries it carries) — observable proof that a drained
    /// batch costs each backup a single push.
    replicate_rpcs: Counter,
}

impl MaintainerHandle {
    /// Fire-and-forget append (open-loop load generation).
    pub fn append_async(&self, payloads: Vec<AppendPayload>) -> bool {
        self.station.note_arrival(payloads.len() as u64);
        self.to
            .send(MaintainerRequest::Append {
                payloads,
                reply: None,
            })
            .is_ok()
    }

    /// Append and wait for the assigned `(TOId, LId)` pairs.
    ///
    /// The reply arrives only after the whole group-commit batch this
    /// request rode in has **committed**: applied locally and durable
    /// (WAL-synced under the configured policy) on a quorum of the group's
    /// live replicas. The node may coalesce this request with other queued
    /// `Append`/`Store` requests up to the [`BatchPolicy`] bounds, which
    /// amortizes the fsync and the replication round trip without changing
    /// the one-at-a-time semantics — each request still succeeds or fails
    /// on its own application outcome.
    pub fn append(&self, payloads: Vec<AppendPayload>) -> Result<Vec<(TOId, LId)>> {
        self.station.note_arrival(payloads.len() as u64);
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::Append {
            payloads,
            reply: Some(ReplyTo::local(reply)),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Explicit-order append with a minimum bound.
    pub fn append_min_bound(
        &self,
        payload: AppendPayload,
        min: LId,
    ) -> Result<Option<(TOId, LId)>> {
        self.station.note_arrival(1);
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::AppendMinBound {
            payload,
            min,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Store pre-routed entries (Chariots queues stage).
    pub fn store(&self, entries: Vec<Entry>) -> bool {
        self.station.note_arrival(entries.len() as u64);
        self.to.send(MaintainerRequest::Store { entries }).is_ok()
    }

    /// Replicates already-assigned entries onto this replica, stamped with
    /// the sender's group generation. Returns the replica's frontier after
    /// applying; a stale generation is fenced. The entries are shared — a
    /// primary fanning one batch out to several backups clones the `Arc`,
    /// not the payloads.
    pub fn replicate(&self, entries: Arc<[Entry]>, generation: Generation) -> Result<LId> {
        self.station.note_arrival(entries.len() as u64);
        self.replicate_rpcs.add(1);
        let (reply, rx) = bounded(1);
        self.to.send_local(MaintainerRequest::Replicate {
            entries,
            generation,
            reply: Some(reply),
            seq: None,
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Non-blocking replication push of the commit path: the
    /// backup fsyncs the entries and reports durability for batch `seq`
    /// through the group's commit tracker instead of a reply channel.
    /// Returns `false` if the backup's channel is gone (counts as an
    /// immediate failure for the quorum).
    pub fn replicate_async(&self, entries: Arc<[Entry]>, generation: Generation, seq: u64) -> bool {
        self.station.note_arrival(entries.len() as u64);
        self.replicate_rpcs.add(1);
        self.to
            .send_local(MaintainerRequest::Replicate {
                entries,
                generation,
                reply: None,
                seq: Some(seq),
            })
            .is_ok()
    }

    /// Read one position.
    pub fn read(&self, lid: LId, enforce_hl: bool) -> Result<Entry> {
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::Read {
            lid,
            enforce_hl,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Read several positions in one round trip. Returns one result per
    /// requested position, in request order; the outer `Result` only fails
    /// when the node is gone.
    pub fn read_batch(&self, lids: Vec<LId>, enforce_hl: bool) -> Result<Vec<Result<Entry>>> {
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::ReadBatch {
            lids,
            enforce_hl,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Scan owned entries with `lid ≥ from`. Returns them behind the
    /// maintainer's frontier at the time of the scan: every owned position
    /// below it is filled, so what the scan returned below it is final.
    pub fn scan(&self, from: LId, max: usize) -> Result<(LId, Vec<Entry>)> {
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::Scan {
            from,
            max,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// This maintainer's view of the Head of the Log.
    pub fn head_of_log(&self) -> Result<LId> {
        let (reply, rx) = bounded(1);
        self.to.send(MaintainerRequest::HeadOfLog {
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Live counters.
    pub fn stats(&self) -> Result<MaintainerStats> {
        let (reply, rx) = bounded(1);
        self.to.send_local(MaintainerRequest::Stats { reply })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Injects gossip (used by peers and tests).
    pub fn gossip_in(&self, from: MaintainerId, frontier: LId) {
        let _ = self
            .to
            .send_local(MaintainerRequest::GossipIn { from, frontier });
    }

    /// Announces a future reassignment to this maintainer.
    pub fn announce_epoch(&self, start: LId, map: RangeMap) {
        let _ = self
            .to
            .send_local(MaintainerRequest::AnnounceEpoch { start, map });
    }

    /// Requests garbage collection below `before`.
    pub fn gc(&self, before: LId) {
        let _ = self.to.send_local(MaintainerRequest::Gc { before });
    }

    /// Crashes the simulated machine (requests fail until recovery).
    pub fn crash(&self) {
        self.station.crash();
    }

    /// Recovers the simulated machine.
    pub fn recover(&self) {
        self.station.recover();
    }

    /// Total records appended+stored through this node (shared counter).
    pub fn appended_counter(&self) -> Counter {
        self.appended.clone()
    }

    /// Replication RPCs received by this node (shared counter; one per
    /// `replicate` call regardless of batch size).
    pub fn replicate_rpc_counter(&self) -> Counter {
        self.replicate_rpcs.clone()
    }

    /// The station modelling this machine's capacity.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }
}

/// Shared observability instruments for one FLStore deployment. All
/// fields are cheap shared handles; a default-constructed instance works
/// standalone, while [`FabricObs::registered`] ties the instruments into a
/// [`MetricsRegistry`] so they show up in snapshots.
#[derive(Clone, Default, Debug)]
pub struct FabricObs {
    /// Service time of standalone `append_batch` calls.
    pub append_latency: Histogram,
    /// Service time of pre-routed `store_entries` calls.
    pub store_latency: Histogram,
    /// Gossip rounds initiated across all maintainers.
    pub gossip_rounds: Counter,
    /// Highest Head of the Log any maintainer has computed.
    pub hl: Gauge,
    /// Records per committed group-commit batch.
    pub batch_size: Histogram,
    /// Summed record-body bytes per committed group-commit batch.
    pub batch_bytes: Histogram,
    /// WAL flush+fsync operations across all maintainer cores.
    pub wal_syncs: Counter,
    /// WAL frames appended but not yet fsynced, as of the most recent
    /// durability point any core paid (crash-durability debt; stays
    /// nonzero under `WalSyncPolicy::Never`).
    pub wal_backlog: Gauge,
    /// Drained min-bound entries whose replication push was abandoned to
    /// anti-entropy repair (deposed mid-drain, or a live backup refused).
    pub replication_dropped: Counter,
    /// The primary's own WAL fsync leg of each commit, in µs.
    pub commit_fsync: Histogram,
    /// Commit time spent waiting on backup acks *after* the primary's own
    /// durability point (the exposed, un-overlapped replication wait);
    /// sampled only for commits a backup participated in.
    pub commit_repl_wait: Histogram,
    /// Register-to-quorum latency of each acked batch, in µs.
    pub commit_quorum_latency: Histogram,
    /// Cumulative µs of fsync/replication overlap the commit hid versus
    /// paying the two legs back to back (0 while no backup participates).
    pub commit_overlap_saved: Counter,
    /// Live WAL segment files across all maintainer cores.
    pub storage_segments: Gauge,
    /// Total WAL bytes on disk across all maintainer cores.
    pub storage_disk_bytes: Gauge,
    /// Live payload bytes resident in memory across all maintainer cores.
    pub storage_live_bytes: Gauge,
    /// Compaction sweeps that reclaimed anything.
    pub storage_compactions: Counter,
    /// Disk bytes freed by compaction and checkpoint truncation.
    pub storage_reclaimed: Counter,
    /// Event journal for WAL sync-stall events (the registry's journal
    /// when registered; a detached ring otherwise).
    journal: EventJournal,
    /// Journal source label (`{prefix}.wal`).
    source: String,
}

/// A batch fsync slower than this is journalled as a
/// [`WalSyncStall`](EventKind::WalSyncStall): at the paper's target rates a
/// multi-millisecond durability point stalls the whole maintainer loop.
const WAL_STALL_THRESHOLD: Duration = Duration::from_millis(5);

impl FabricObs {
    /// Instruments registered in `registry` as `{prefix}.append.latency_us`,
    /// `{prefix}.store.latency_us`, `{prefix}.gossip.rounds`, `{prefix}.hl`,
    /// `{prefix}.batch.size`, `{prefix}.batch.bytes`,
    /// `{prefix}.wal.sync.count`, `{prefix}.wal.backlog`,
    /// `{prefix}.replication.dropped`, `{prefix}.commit.fsync_us`,
    /// `{prefix}.commit.repl_wait_us`, `{prefix}.commit.quorum.latency_us`,
    /// and `{prefix}.commit.overlap_saved_us`. The registry's event journal
    /// also receives WAL sync-stall/failure events.
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> Self {
        FabricObs {
            append_latency: registry.histogram(&format!("{prefix}.append.latency_us")),
            store_latency: registry.histogram(&format!("{prefix}.store.latency_us")),
            gossip_rounds: registry.counter(&format!("{prefix}.gossip.rounds")),
            hl: registry.gauge(&format!("{prefix}.hl")),
            batch_size: registry.histogram(&format!("{prefix}.batch.size")),
            batch_bytes: registry.histogram(&format!("{prefix}.batch.bytes")),
            wal_syncs: registry.counter(&format!("{prefix}.wal.sync.count")),
            wal_backlog: registry.gauge(&format!("{prefix}.wal.backlog")),
            replication_dropped: registry.counter(&format!("{prefix}.replication.dropped")),
            commit_fsync: registry.histogram(&format!("{prefix}.commit.fsync_us")),
            commit_repl_wait: registry.histogram(&format!("{prefix}.commit.repl_wait_us")),
            commit_quorum_latency: registry
                .histogram(&format!("{prefix}.commit.quorum.latency_us")),
            commit_overlap_saved: registry.counter(&format!("{prefix}.commit.overlap_saved_us")),
            storage_segments: registry.gauge(&format!("{prefix}.storage.segments")),
            storage_disk_bytes: registry.gauge(&format!("{prefix}.storage.disk_bytes")),
            storage_live_bytes: registry.gauge(&format!("{prefix}.storage.live_bytes")),
            storage_compactions: registry.counter(&format!("{prefix}.storage.compactions")),
            storage_reclaimed: registry.counter(&format!("{prefix}.storage.reclaimed_bytes")),
            journal: registry.journal().clone(),
            source: format!("{prefix}.wal"),
        }
    }

    fn note_gossip(&self, hl: LId) {
        self.gossip_rounds.add(1);
        self.hl.raise_to(hl.0 as i64);
    }

    /// Records one durability point: refreshes the backlog gauge and
    /// journals a [`WalSyncStall`](EventKind::WalSyncStall) when the sync
    /// blew past [`WAL_STALL_THRESHOLD`].
    fn note_wal_sync(&self, elapsed: Duration, backlog: usize) {
        self.wal_backlog.set(backlog as i64);
        if elapsed >= WAL_STALL_THRESHOLD {
            self.journal.publish(
                &self.source,
                None,
                EventKind::WalSyncStall {
                    stall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                },
            );
        }
    }

    /// Journals a batch sync failing outright: the `records` it covered
    /// were never made durable and must not be replicated or acked.
    pub(crate) fn note_wal_sync_failed(&self, records: u64) {
        self.journal
            .publish(&self.source, None, EventKind::WalSyncFailed { records });
    }

    /// Refreshes the storage gauges from one core's point-in-time
    /// footprint. Gauges are deployment-wide maxima per refresh cycle in a
    /// multi-core fabric; the single-core deployments the benches run make
    /// them exact.
    pub(crate) fn note_storage(&self, stats: crate::maintainer::StorageStats) {
        self.storage_segments.set(stats.segments as i64);
        self.storage_disk_bytes.set(stats.disk_bytes as i64);
        self.storage_live_bytes.set(stats.live_bytes as i64);
    }

    /// Journals a storage sweep that reclaimed WAL disk and bumps the
    /// reclaim counters.
    pub(crate) fn note_compaction(&self, stats: crate::wal::CompactionStats) {
        self.storage_compactions.add(1);
        self.storage_reclaimed.add(stats.reclaimed_bytes);
        self.journal.publish(
            &self.source,
            None,
            EventKind::CompactionSweep {
                segments_deleted: stats.segments_deleted,
                segments_rewritten: stats.segments_rewritten,
                reclaimed_bytes: stats.reclaimed_bytes,
            },
        );
    }

    /// Journals a checkpoint write and counts the WAL disk its truncation
    /// gave back. (GC-driven checkpoints are folded into their sweep's
    /// `CompactionStats` instead, so no byte is counted twice.)
    pub(crate) fn note_checkpoint(&self, info: crate::maintainer::CheckpointInfo) {
        self.storage_reclaimed.add(info.reclaimed_bytes);
        self.journal.publish(
            &self.source,
            None,
            EventKind::CheckpointWritten {
                upto: info.upto.0,
                entries: info.entries,
                bytes: info.bytes,
            },
        );
    }
}

/// Wiring shared by all maintainers of one deployment: peer handles for
/// gossip, indexer handles for tag postings, and observability instruments.
/// Registered after spawn (the topology is cyclic).
#[derive(Clone, Default)]
pub struct Fabric {
    peers: Arc<RwLock<Vec<ReplicaGroupHandle>>>,
    indexers: Arc<RwLock<Vec<IndexerHandle>>>,
    obs: FabricObs,
    /// The Chariots "store" stage tracer: exit stamps for traced records
    /// once a maintainer persists them. Swappable because the owning
    /// datacenter wires it after FLStore launches.
    store_tracer: Arc<RwLock<StageTracer>>,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// A fabric reporting into `obs`.
    pub fn with_obs(obs: FabricObs) -> Self {
        Fabric {
            obs,
            ..Fabric::default()
        }
    }

    /// The deployment's observability instruments.
    pub fn obs(&self) -> &FabricObs {
        &self.obs
    }

    /// Registers the full set of replica-group handles (gossip peers).
    /// Gossip fans out group-wide so backups track the Head of the Log.
    pub fn set_peers(&self, peers: Vec<ReplicaGroupHandle>) {
        *self.peers.write() = peers;
    }

    /// Registers the indexer handles.
    pub fn set_indexers(&self, indexers: Vec<IndexerHandle>) {
        *self.indexers.write() = indexers;
    }

    /// Wires the Chariots store-stage tracer (disabled by default).
    pub fn set_store_tracer(&self, tracer: StageTracer) {
        *self.store_tracer.write() = tracer;
    }

    pub(crate) fn stamp_store_exits(&self, traced: &[TraceId]) {
        if traced.is_empty() {
            return;
        }
        let tracer = self.store_tracer.read();
        for t in traced {
            tracer.exit(Some(*t));
        }
    }

    fn gossip(&self, from: MaintainerId, frontier: LId) {
        for peer in self.peers.read().iter() {
            if peer.id != from {
                peer.gossip_in(from, frontier);
            }
        }
    }

    pub(crate) fn post_tags(&self, entries_tags: Vec<(String, Option<TagValue>, LId)>) {
        let indexers = self.indexers.read();
        if indexers.is_empty() {
            return;
        }
        for (key, value, lid) in entries_tags {
            let ix = indexer_for(&key, indexers.len());
            indexers[ix].post(key, value, lid);
        }
    }
}

/// Spawns a standalone (unreplicated) maintainer node thread: a
/// single-replica group under the default [`BatchPolicy`]. Kept as the
/// simple entry point for tests and benches; deployments spawn full groups
/// via [`spawn_replica`].
pub fn spawn_maintainer(
    core: MaintainerCore,
    station: Arc<ServiceStation>,
    fabric: Fabric,
    gossip_interval: Duration,
    shutdown: Shutdown,
) -> (MaintainerHandle, JoinHandle<MaintainerCore>) {
    let state = Arc::new(GroupState::new(core.id()));
    let (handle, thread) = spawn_replica(
        core,
        station,
        fabric,
        gossip_interval,
        shutdown,
        ReplicaCtx::solo(Arc::clone(&state)),
        Counter::new(),
        BatchPolicy::default(),
    );
    state.set_replicas(vec![handle.clone()]);
    (handle, thread)
}

/// Spawns one replica of a maintainer group.
///
/// The node loop group-commits: after each blocking `recv` it drains
/// further queued `Append`/`Store` requests into one batch (bounded by
/// `batch`) and pays a single station admission, generation capture and
/// commit for the whole batch. It also heartbeats the failure detector,
/// gossips the group frontier every `gossip_interval` while acting primary,
/// and posts tag information to the fabric's indexers. `appended` is the
/// group-level record counter, bumped only by the acting primary.
#[allow(clippy::too_many_arguments)]
pub fn spawn_replica(
    core: MaintainerCore,
    station: Arc<ServiceStation>,
    fabric: Fabric,
    gossip_interval: Duration,
    shutdown: Shutdown,
    ctx: ReplicaCtx,
    appended: Counter,
    batch: BatchPolicy,
) -> (MaintainerHandle, JoinHandle<MaintainerCore>) {
    let (tx, rx) = unbounded::<MaintainerRequest>();
    let handle = MaintainerHandle {
        id: core.id(),
        to: Endpoint::Channel(tx),
        station: Arc::clone(&station),
        appended: appended.clone(),
        replicate_rpcs: Counter::new(),
    };
    let thread = std::thread::Builder::new()
        // Prefixed with the datacenter's letter like the stage threads, and
        // short enough for the 15 bytes Linux keeps of a thread's name.
        .name(format!(
            "{}-maint-{}-r{}",
            core.datacenter(),
            core.id().0,
            ctx.index
        ))
        .spawn(move || {
            let mut replica = Replica::new(core, station, fabric, appended, ctx);
            replica.run(&rx, gossip_interval, &shutdown, batch);
            // Nobody is left to ack this replica's in-flight batches: fail
            // their waiters instead of letting them hang.
            replica.ctx.group.abort_pending(ChariotsError::ShutDown);
            replica.core
        })
        .expect("spawn maintainer");
    (handle, thread)
}

pub(crate) fn collect_tag_postings(entries: &[Entry]) -> Vec<(String, Option<TagValue>, LId)> {
    let mut out = Vec::new();
    for e in entries {
        for tag in e.record.tags.iter() {
            out.push((tag.key.clone(), tag.value.clone(), e.lid));
        }
    }
    out
}

/// One request's worth of coalescable work inside a group-commit batch,
/// kept in arrival order so a batched serve is indistinguishable from
/// serving the requests one at a time.
enum BatchItem {
    /// A post-assignment append and (if closed-loop) its waiter.
    Append {
        /// Payloads to append.
        payloads: Vec<AppendPayload>,
        /// Where to send the assigned ids, if anyone is waiting.
        reply: Option<AppendReplySender>,
    },
    /// Pre-routed entries from the Chariots queues stage.
    Store {
        /// Entries to persist.
        entries: Vec<Entry>,
    },
}

impl BatchItem {
    /// Records this item adds to the batch.
    fn records(&self) -> usize {
        match self {
            BatchItem::Append { payloads, .. } => payloads.len(),
            BatchItem::Store { entries } => entries.len(),
        }
    }

    /// Record-body bytes this item adds to the batch.
    fn bytes(&self) -> usize {
        match self {
            BatchItem::Append { payloads, .. } => payloads.iter().map(|p| p.body.len()).sum(),
            BatchItem::Store { entries } => entries.iter().map(|e| e.record.body.len()).sum(),
        }
    }
}

/// Splits a request into a coalescable batch item, or hands it back when it
/// must be served on its own (reads, gossip, control traffic, and the
/// order-sensitive min-bound/replicate paths).
fn coalesce(req: MaintainerRequest) -> std::result::Result<BatchItem, MaintainerRequest> {
    match req {
        MaintainerRequest::Append { payloads, reply } => Ok(BatchItem::Append { payloads, reply }),
        MaintainerRequest::Store { entries } => Ok(BatchItem::Store { entries }),
        other => Err(other),
    }
}

/// Pays one [`MaintainerCore::sync_batch`] durability point under the
/// clock, reporting its duration and the core's remaining WAL backlog to
/// the fabric's instruments. Returns the sync's wall-clock duration; a
/// failed sync is additionally journalled as a
/// [`WalSyncFailed`](EventKind::WalSyncFailed) covering the core's backlog.
fn timed_sync_batch(core: &mut MaintainerCore, fabric: &Fabric) -> Result<Duration> {
    let t0 = std::time::Instant::now();
    let result = core.sync_batch();
    let elapsed = t0.elapsed();
    fabric.obs().note_wal_sync(elapsed, core.wal_backlog());
    if result.is_err() {
        fabric.obs().note_wal_sync_failed(core.wal_backlog() as u64);
    }
    result.map(|()| elapsed)
}

/// One replica's serving state: the core it wraps, its seat in the group,
/// and what its loop carries from one request to the next.
struct Replica {
    core: MaintainerCore,
    station: Arc<ServiceStation>,
    fabric: Fabric,
    /// The group-level record counter.
    appended: Counter,
    ctx: ReplicaCtx,
    /// Wakeup for commit backpressure: signalled whenever a batch leaves
    /// the group's commit tracker.
    quorum_wait: Notify,
    /// Pre-routed entries that arrived while the machine was crashed: their
    /// positions are already committed by the queues' token, so they must
    /// not be lost — a real deployment recovers them from the WAL or a
    /// re-send; we hold them until recovery.
    crash_buffer: Vec<Entry>,
}

impl Replica {
    fn new(
        core: MaintainerCore,
        station: Arc<ServiceStation>,
        fabric: Fabric,
        appended: Counter,
        ctx: ReplicaCtx,
    ) -> Self {
        Replica {
            quorum_wait: ctx.group.commit().subscribe(),
            core,
            station,
            fabric,
            appended,
            ctx,
            crash_buffer: Vec::new(),
        }
    }

    /// The generation under which this replica is the acting primary, if
    /// it is.
    fn primary_generation(&self) -> Option<Generation> {
        self.ctx.group.primary_generation(self.ctx.index)
    }

    /// The error a deposed (or never-primary) replica answers assignment
    /// requests with: the client should refresh and re-route.
    fn fenced(&self) -> ChariotsError {
        let current = self.ctx.group.generation();
        ChariotsError::Fenced {
            group: self.core.id(),
            // The best stale stamp this replica can name is the generation
            // preceding the current one (it has not acted under `current`).
            sent: Generation(current.as_u64().saturating_sub(1)),
            current,
        }
    }

    /// A commit context with no batch-level facts (see
    /// [`CommitOutcomeCtx::new`]).
    fn outcome_ctx(&self, measured: bool) -> CommitOutcomeCtx {
        CommitOutcomeCtx::new(&self.fabric, &self.appended, measured)
    }

    /// The commit — the one durability point every record applied at an
    /// acting primary goes through. Registers the batch with the group's
    /// [`CommitTracker`](crate::replication::commit::CommitTracker), ships
    /// its shared `Arc<[Entry]>` to every live backup *first*
    /// (non-blocking; a crashed backup is left out, anti-entropy catches it
    /// up later), pays the primary's own WAL fsync while those RPCs are in
    /// flight, and lets the tracker resolve the batch — generation
    /// re-check, then reply fan-out — the moment f+1 of the participating
    /// seats report it durable. Whichever seat's ack completes the quorum
    /// runs the completion, so with live backups this may return before
    /// the batch is acked.
    ///
    /// The participants are {primary} ∪ live backups, so a solo group, an
    /// `rf = 1` deployment and a group whose backups are all down are a
    /// quorum of one: the primary's own durability report resolves the
    /// batch inline, before this returns. There a failed fsync reaches the
    /// waiters as that fsync's own `Storage` error, not as `QuorumLost` —
    /// clients treat the latter as transient and would re-append records
    /// this maintainer has already applied.
    ///
    /// An empty `share` (every item of the batch failed on its own)
    /// completes on the spot: nothing to register, fsync or ship, each
    /// waiter just gets its own error.
    fn commit(
        &mut self,
        generation: Generation,
        share: Arc<[Entry]>,
        waiters: Vec<CommitWaiter>,
        drained_records: u64,
        outcome_ctx: CommitOutcomeCtx,
    ) {
        let measured = outcome_ctx.measured;
        let seat = self.ctx.index;
        let mut batch = PendingCommit::new(
            generation,
            seat,
            Arc::clone(&share),
            waiters,
            drained_records,
            outcome_ctx,
        );
        if share.is_empty() {
            batch.complete(Ok(()));
            return;
        }
        let group = &self.ctx.group;
        let backups: Vec<(usize, MaintainerHandle)> = group
            .replicas()
            .into_iter()
            .enumerate()
            .filter(|(i, r)| *i != seat && !r.station().is_crashed())
            .collect();
        batch.enroll_backups(backups.iter().map(|(i, _)| *i), group.replica_count());
        // Backpressure: bound the batches in flight awaiting quorum so a
        // slow backup cannot let the tracker grow without bound.
        while group.commit().pending() >= MAX_PENDING_COMMITS {
            self.quorum_wait.wait_timeout(Duration::from_millis(1));
        }
        let seq = group.commit().register(batch);
        // Backups first — their fsyncs overlap the primary's below.
        for (i, backup) in &backups {
            if !backup.replicate_async(Arc::clone(&share), generation, seq) {
                group.report_commit_failure(*i, seq, ChariotsError::ShutDown);
            }
        }
        match timed_sync_batch(&mut self.core, &self.fabric) {
            Ok(elapsed) => {
                let fsync_us = elapsed.as_micros() as u64;
                if measured {
                    self.fabric.obs().commit_fsync.record(fsync_us);
                }
                group.report_primary_durable(seat, seq, fsync_us, self.core.durable_frontier());
            }
            Err(e) => group.report_commit_failure(seat, seq, e),
        }
    }

    /// Commits any min-bound waiters drained outside a group-commit batch
    /// (gossip ticks and min-bound serves; batch serves fold drained
    /// entries into the batch's own commit). The drained entries come
    /// straight from the core — no store re-reads. Best-effort: the waiters
    /// were acked as *parked*, not as committed, so a shortfall here — a
    /// failed durability point, a lost quorum, a deposition — is left to
    /// anti-entropy repair rather than failing the current request, but
    /// every abandoned entry is counted on `flstore.replication.dropped` so
    /// the shortfall is visible. A background flush: it stays out of the
    /// ack-path commit metrics.
    fn commit_drained(&mut self) {
        let drained = self.core.take_drained();
        if drained.is_empty() {
            return;
        }
        let n = drained.len() as u64;
        match self.primary_generation() {
            Some(generation) => {
                let ctx = self.outcome_ctx(false);
                self.commit(generation, drained.into(), Vec::new(), n, ctx)
            }
            None => self.fabric.obs().replication_dropped.add(n),
        }
    }

    /// Re-homes pre-routed entries this group must not lose — their
    /// positions were committed upstream by the queues' token — after an
    /// outage or a failed commit. An acting primary applies them
    /// (idempotently: `replicate_entries` overwrites, and leaves identical
    /// copies alone) and commits them, counting them on success; a `Store`
    /// stake in a commit that fails comes back through the tracker's
    /// orphans. A deposed replica hands them to the current primary, which
    /// skips whatever it already holds. Returns the entries when neither
    /// was possible, for the next loop turn.
    fn rehome_stores(&mut self, entries: Vec<Entry>) -> Vec<Entry> {
        match self.primary_generation() {
            Some(generation) => {
                if self.core.replicate_entries(&entries).is_err() {
                    return entries;
                }
                let ctx = self.outcome_ctx(false);
                let share = entries.as_slice().into();
                self.commit(
                    generation,
                    share,
                    vec![CommitWaiter::Store { entries }],
                    0,
                    ctx,
                );
                Vec::new()
            }
            None => match self.ctx.group.primary_handle() {
                Some(primary) if primary.store(entries.clone()) => Vec::new(),
                _ => entries,
            },
        }
    }

    /// Serves one coalesced batch: one station admission, one generation
    /// capture, one application pass in arrival order, then one
    /// [`commit`](Self::commit) that every waiter's reply comes out of.
    /// Min-bound waiters drained by the batch's appends commit with the
    /// batch.
    ///
    /// Per-item application failures only fail that item; admission,
    /// fencing, durability, and replication failures fail the **whole
    /// batch** — no partial acks under a deposed generation.
    fn serve_batch(&mut self, batch: Vec<BatchItem>) {
        let total_records: usize = batch.iter().map(BatchItem::records).sum();
        let total_bytes: usize = batch.iter().map(BatchItem::bytes).sum();

        // Admission: one station pass for the whole batch.
        if let Err(e) = self.station.serve(total_records as u64) {
            for item in batch {
                match item {
                    // Crashed: the appends are lost, as they would be on a
                    // machine that died with them in its socket buffer.
                    BatchItem::Append { reply, .. } => {
                        if let Some(reply) = reply {
                            let _ = reply.send(Err(e.clone()));
                        }
                    }
                    // Stores are already committed upstream by the queues'
                    // token — park them for recovery instead of losing them.
                    BatchItem::Store { entries } => self.crash_buffer.extend(entries),
                }
            }
            return;
        }

        // One generation capture *after* station pacing (a primary deposed
        // while stalled in serve must not assign). Everything below is
        // stamped with it, so a deposition mid-flight is fenced by the
        // backups instead of silently acked.
        let Some(generation) = self.primary_generation() else {
            for item in batch {
                match item {
                    // Only the primary assigns positions; fence appends so
                    // the client refreshes its routing toward the new
                    // primary.
                    BatchItem::Append { reply, .. } => {
                        if let Some(reply) = reply {
                            let _ = reply.send(Err(self.fenced()));
                        }
                    }
                    // Routed here because the primary's machine is down (or
                    // a stale route). Relay to a live primary when there is
                    // one; otherwise persist locally so the positions
                    // survive until this replica (or a repaired peer) is
                    // promoted.
                    BatchItem::Store { entries } => match self.ctx.group.primary_handle() {
                        Some(primary) if !primary.station().is_crashed() => {
                            primary.store(entries);
                        }
                        _ => {
                            let _ = self.core.replicate_entries(&entries);
                        }
                    },
                }
            }
            return;
        };

        let t0 = std::time::Instant::now();
        let mut had_appends = false;
        let mut had_stores = false;

        // Application pass, in arrival order. Each item succeeds or fails
        // on its own; a failed append keeps its own error whatever the
        // batch's outcome, a failed store (bad routing) has nothing to
        // commit or reply.
        let mut waiters = Vec::with_capacity(batch.len());
        let mut committed: Vec<Entry> = Vec::with_capacity(total_records);
        for item in batch {
            match item {
                BatchItem::Append { payloads, reply } => {
                    had_appends = true;
                    waiters.push(match self.core.append_batch(payloads) {
                        Ok(assigned) => {
                            let ids = assigned.iter().map(|e| (e.record.toid(), e.lid)).collect();
                            committed.extend(assigned);
                            CommitWaiter::Append { ids, reply }
                        }
                        Err(err) => CommitWaiter::FailedAppend { err, reply },
                    });
                }
                BatchItem::Store { entries } => {
                    had_stores = true;
                    if self.core.store_entries(entries.clone()).is_ok() {
                        committed.extend_from_slice(&entries);
                        waiters.push(CommitWaiter::Store { entries });
                    }
                }
            }
        }
        // Min-bound waiters drained by this batch's appends commit with it.
        let drained = self.core.take_drained();
        let drained_count = drained.len() as u64;
        committed.extend(drained);

        let outcome_ctx = CommitOutcomeCtx {
            total_records: total_records as u64,
            total_bytes: total_bytes as u64,
            had_appends,
            had_stores,
            started: t0,
            ..self.outcome_ctx(true)
        };
        self.commit(
            generation,
            committed.into(),
            waiters,
            drained_count,
            outcome_ctx,
        );
    }

    fn run(
        &mut self,
        rx: &Receiver<MaintainerRequest>,
        gossip_interval: Duration,
        shutdown: &Shutdown,
        batch: BatchPolicy,
    ) {
        let mut last_gossip = std::time::Instant::now();
        let mut last_heartbeat = std::time::Instant::now();
        let heartbeat_key = self.ctx.key();
        let seat = self.ctx.index;
        let group = Arc::clone(&self.ctx.group);
        let mut was_primary = group.is_primary(seat);
        // Seed this seat's durable watermark: whatever the core holds now
        // (fresh, or replayed from its WAL) is durable.
        group.note_durable(seat, self.core.durable_frontier());
        loop {
            if shutdown.is_signaled() {
                return;
            }
            let req = match rx.recv_timeout(gossip_interval) {
                Ok(r) => Some(r),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            };

            // Liveness: report to the failure detector while the machine is
            // up. A crashed station stops beating, so silence accumulates
            // and the detector suspects this replica after the suspicion
            // timeout.
            if let Some(detector) = &self.ctx.detector {
                if !self.station.is_crashed()
                    && last_heartbeat.elapsed() >= self.ctx.heartbeat_interval
                {
                    detector.heartbeat(&heartbeat_key);
                    last_heartbeat = std::time::Instant::now();
                }
            }

            // Role change: a backup promoted to primary resumes
            // self-assignment after the suffix it already replicated,
            // instead of re-assigning positions the old primary handed out.
            let is_primary = group.is_primary(seat);
            if is_primary && !was_primary {
                self.core.resume_assignment();
            }
            was_primary = is_primary;

            // Recovery: everything buffered during the outage goes first,
            // once the station has admitted it. Every path that cannot
            // place the entries puts them back for the next loop turn.
            if !self.crash_buffer.is_empty() && !self.station.is_crashed() {
                let entries = std::mem::take(&mut self.crash_buffer);
                self.crash_buffer = if self.station.serve(entries.len() as u64).is_ok() {
                    self.rehome_stores(entries)
                } else {
                    entries
                };
            }

            // Failed commits (a lost quorum, a failed durability point, a
            // deposition mid-flight) park their `Store` stakes with the
            // tracker: committed upstream just the same, so whichever live
            // replica's loop comes by re-homes them, and leaves with the
            // tracker what it could not place.
            if !self.station.is_crashed() {
                let orphans = group.commit().take_orphans();
                if !orphans.is_empty() {
                    let unplaced = self.rehome_stores(orphans);
                    group.commit().park_orphans(unplaced);
                }
            }

            if let Some(req) = req {
                match coalesce(req) {
                    // Group commit: the first coalescable request opens a
                    // batch; keep draining the channel until a bound is
                    // hit, it runs dry, or a non-coalescable request shows
                    // up (which is then served right after the batch,
                    // preserving arrival order).
                    Ok(first) => {
                        let mut followup = None;
                        let mut records = first.records();
                        let mut bytes = first.bytes();
                        let mut items = vec![first];
                        while records < batch.max_records && bytes < batch.max_bytes {
                            match rx.try_recv() {
                                Ok(next) => match coalesce(next) {
                                    Ok(item) => {
                                        records += item.records();
                                        bytes += item.bytes();
                                        items.push(item);
                                    }
                                    Err(other) => {
                                        followup = Some(other);
                                        break;
                                    }
                                },
                                Err(_) => break,
                            }
                        }
                        self.serve_batch(items);
                        if let Some(req) = followup {
                            self.serve_request(req);
                        }
                    }
                    Err(other) => self.serve_request(other),
                }
            }

            // Periodic drain of parked min-bound records, plus gossip: only
            // the acting primary speaks for the group; backups still
            // refresh their own frontier so a promotion starts from an
            // honest view.
            if last_gossip.elapsed() >= gossip_interval {
                last_gossip = std::time::Instant::now();
                let _ = self.core.drain_deferred();
                self.commit_drained();
                group.note_durable(seat, self.core.durable_frontier());
                let (from, frontier) = self.core.gossip_out();
                let obs = self.fabric.obs();
                if is_primary {
                    self.fabric.gossip(from, frontier);
                    obs.note_gossip(self.core.head_of_log());
                }
                // Storage maintenance rides the same tick: an
                // interval-gated checkpoint (O(delta) restarts) and fresh
                // footprint gauges. A failed snapshot costs restart time,
                // not correctness — the WAL still holds everything — so
                // errors are not fatal here.
                if let Ok(Some(info)) = self.core.maybe_checkpoint() {
                    obs.note_checkpoint(info);
                }
                obs.note_storage(self.core.storage_stats());
            }
        }
    }

    /// Serves one request the loop could not coalesce into a batch.
    fn serve_request(&mut self, req: MaintainerRequest) {
        match req {
            MaintainerRequest::Append { .. } | MaintainerRequest::Store { .. } => {
                unreachable!("appends and stores are coalesced into batches by the loop")
            }
            MaintainerRequest::AppendMinBound {
                payload,
                min,
                reply,
            } => {
                if let Err(e) = self.station.serve(1) {
                    let _ = reply.send(Err(e));
                    return;
                }
                let Some(generation) = self.primary_generation() else {
                    let _ = reply.send(Err(self.fenced()));
                    return;
                };
                match self.core.append_min_bound(payload, min) {
                    // A one-entry batch: the waiter replies and counts when
                    // the commit resolves.
                    Ok(Some(entry)) => {
                        let id = Some((entry.record.toid(), entry.lid));
                        let ctx = self.outcome_ctx(true);
                        self.commit(
                            generation,
                            vec![entry].into(),
                            vec![CommitWaiter::MinBound { id, reply }],
                            0,
                            ctx,
                        );
                    }
                    Ok(None) => {
                        let _ = reply.send(Ok(None));
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
                self.commit_drained();
            }
            MaintainerRequest::Replicate {
                entries,
                generation,
                reply,
                seq,
            } => {
                let n = entries.len() as u64;
                let group = &self.ctx.group;
                let seat = self.ctx.index;
                // No counters, postings, or trace stamps here: the acting
                // primary already accounted for these records. Backups
                // group-commit too — one WAL sync per replicated batch, so
                // a durable ack means the records survive this replica's
                // crash.
                let outcome = self
                    .station
                    .serve(n)
                    .and_then(|()| {
                        let current = group.generation();
                        if generation < current {
                            return Err(ChariotsError::Fenced {
                                group: group.group(),
                                sent: generation,
                                current,
                            });
                        }
                        Ok(())
                    })
                    .and_then(|()| self.core.replicate_entries(&entries))
                    .and_then(|frontier| {
                        timed_sync_batch(&mut self.core, &self.fabric).map(|_| frontier)
                    });
                if outcome.is_ok() {
                    // Raise this seat's durable watermark: failover
                    // promotes by it.
                    group.note_durable(seat, self.core.durable_frontier());
                }
                match (reply, seq) {
                    // Synchronous caller (anti-entropy repair).
                    (Some(reply), _) => {
                        let _ = reply.send(outcome);
                    }
                    // Commit-path push: report durability to the commit
                    // tracker; whoever completes the quorum fans the
                    // batch's acks out.
                    (None, Some(seq)) => match outcome {
                        Ok(_) => group.report_commit_ack(seat, seq, self.core.durable_frontier()),
                        Err(e) => group.report_commit_failure(seat, seq, e),
                    },
                    (None, None) => {}
                }
            }
            MaintainerRequest::Read {
                lid,
                enforce_hl,
                reply,
            } => {
                let result = if self.station.is_crashed() {
                    Err(self.unavailable())
                } else {
                    self.core.read(lid, enforce_hl)
                };
                let _ = reply.send(result);
            }
            MaintainerRequest::ReadBatch {
                lids,
                enforce_hl,
                reply,
            } => {
                // Mirrors the single-read arm: a crashed machine refuses
                // every position in the batch, not just some.
                let result = if self.station.is_crashed() {
                    lids.iter().map(|_| Err(self.unavailable())).collect()
                } else {
                    self.core.read_many(&lids, enforce_hl)
                };
                let _ = reply.send(result);
            }
            MaintainerRequest::Scan { from, max, reply } => {
                let _ = reply.send((self.core.stats().frontier, self.core.scan_from(from, max)));
            }
            MaintainerRequest::HeadOfLog { reply } => {
                let _ = reply.send(self.core.head_of_log());
            }
            MaintainerRequest::GossipIn { from, frontier } => {
                self.core.gossip_in(from, frontier);
                let _ = self.core.drain_deferred();
                self.commit_drained();
            }
            MaintainerRequest::AnnounceEpoch { start, map } => {
                self.core.announce_epoch(start, map);
            }
            MaintainerRequest::Gc { before } => {
                if let Some(stats) = self.core.gc_before(before) {
                    self.fabric.obs().note_compaction(stats);
                }
                self.fabric.obs().note_storage(self.core.storage_stats());
            }
            MaintainerRequest::Stats { reply } => {
                let _ = reply.send(self.core.stats());
            }
        }
    }

    /// What a crashed machine answers reads with.
    fn unavailable(&self) -> ChariotsError {
        ChariotsError::Unavailable(format!("maintainer {}", self.core.id()))
    }
}

/// Requests served by an indexer node.
pub enum IndexerRequest {
    /// Ingest postings.
    Post {
        /// `(key, value, lid)` triples.
        postings: Vec<(String, Option<TagValue>, LId)>,
    },
    /// Look up positions by tag.
    Lookup {
        /// Tag key.
        key: String,
        /// Optional value predicate.
        predicate: Option<ValuePredicate>,
        /// Optional exclusive position bound, applied before the limit
        /// (clients push their Head-of-Log view and `LIdBelow` conditions
        /// down here).
        below: Option<LId>,
        /// Result bound.
        limit: Limit,
        /// Reply channel.
        reply: Sender<Vec<LId>>,
    },
    /// Drop postings below the bound.
    Gc {
        /// Exclusive GC bound.
        before: LId,
    },
}

/// Client-side handle to an indexer node.
#[derive(Clone)]
pub struct IndexerHandle {
    tx: Sender<IndexerRequest>,
    posted: Counter,
}

impl IndexerHandle {
    /// Posts one tag occurrence.
    pub fn post(&self, key: String, value: Option<TagValue>, lid: LId) {
        self.posted.add(1);
        let _ = self.tx.send(IndexerRequest::Post {
            postings: vec![(key, value, lid)],
        });
    }

    /// Posts a batch of tag occurrences.
    pub fn post_batch(&self, postings: Vec<(String, Option<TagValue>, LId)>) {
        self.posted.add(postings.len() as u64);
        let _ = self.tx.send(IndexerRequest::Post { postings });
    }

    /// Total tag postings sent through this handle (shared counter).
    pub fn posted_counter(&self) -> Counter {
        self.posted.clone()
    }

    /// Looks up positions carrying a tag, optionally below an exclusive
    /// position bound (applied before `limit`).
    pub fn lookup(
        &self,
        key: String,
        predicate: Option<ValuePredicate>,
        below: Option<LId>,
        limit: Limit,
    ) -> Result<Vec<LId>> {
        let (reply, rx) = bounded(1);
        self.tx
            .send(IndexerRequest::Lookup {
                key,
                predicate,
                below,
                limit,
                reply,
            })
            .map_err(|_| ChariotsError::ShutDown)?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Requests index GC below the bound.
    pub fn gc(&self, before: LId) {
        let _ = self.tx.send(IndexerRequest::Gc { before });
    }
}

/// Spawns an indexer node thread.
pub fn spawn_indexer(
    mut core: IndexerCore,
    shutdown: Shutdown,
) -> (IndexerHandle, JoinHandle<IndexerCore>) {
    let (tx, rx) = unbounded::<IndexerRequest>();
    let handle = IndexerHandle {
        tx,
        posted: Counter::new(),
    };
    let thread = std::thread::Builder::new()
        .name("indexer".into())
        .spawn(move || loop {
            if shutdown.is_signaled() {
                return core;
            }
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(IndexerRequest::Post { postings }) => {
                    for (key, value, lid) in postings {
                        core.post(&key, value, lid);
                    }
                }
                Ok(IndexerRequest::Lookup {
                    key,
                    predicate,
                    below,
                    limit,
                    reply,
                }) => {
                    let _ = reply.send(core.lookup(&key, predicate.as_ref(), below, limit));
                }
                Ok(IndexerRequest::Gc { before }) => core.gc_before(before),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return core,
            }
        })
        .expect("spawn indexer");
    (handle, thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochJournal;
    use bytes::Bytes;
    use chariots_simnet::StationConfig;
    use chariots_types::{DatacenterId, Tag, TagSet};

    fn launch_one(
        maintainers: usize,
        batch: u64,
    ) -> (
        Vec<MaintainerHandle>,
        Fabric,
        Shutdown,
        Vec<JoinHandle<MaintainerCore>>,
    ) {
        let journal = EpochJournal::new(RangeMap::new(maintainers, batch));
        let fabric = Fabric::new();
        let shutdown = Shutdown::new();
        let mut handles = Vec::new();
        let mut threads = Vec::new();
        for i in 0..maintainers {
            let core =
                MaintainerCore::new(MaintainerId(i as u16), DatacenterId(0), journal.clone());
            let station = Arc::new(ServiceStation::new(
                format!("m{i}"),
                StationConfig::uncapped(),
            ));
            let (h, t) = spawn_maintainer(
                core,
                station,
                fabric.clone(),
                Duration::from_millis(2),
                shutdown.clone(),
            );
            handles.push(h);
            threads.push(t);
        }
        let groups = handles
            .iter()
            .cloned()
            .map(ReplicaGroupHandle::solo)
            .collect();
        fabric.set_peers(groups);
        (handles, fabric, shutdown, threads)
    }

    fn payload(s: &str) -> AppendPayload {
        AppendPayload::new(TagSet::new(), Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn append_read_roundtrip_through_node() {
        let (handles, _fabric, shutdown, threads) = launch_one(1, 10);
        let ids = handles[0].append(vec![payload("hi")]).unwrap();
        assert_eq!(ids, vec![(TOId(1), LId(0))]);
        let e = handles[0].read(LId(0), false).unwrap();
        assert_eq!(&e.record.body[..], b"hi");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn gossip_raises_head_of_log_across_nodes() {
        let (handles, _fabric, shutdown, threads) = launch_one(2, 5);
        handles[0].append(vec![payload("a")]).unwrap();
        handles[1].append(vec![payload("b")]).unwrap();
        // Give gossip a few intervals to propagate.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let hl = handles[0].head_of_log().unwrap();
            if hl >= LId(1) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "HL never advanced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Position 0 is now safely readable with HL enforcement.
        assert!(handles[0].read(LId(0), true).is_ok());
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn crash_fails_requests_until_recovery() {
        let (handles, _fabric, shutdown, threads) = launch_one(1, 10);
        handles[0].append(vec![payload("a")]).unwrap();
        handles[0].crash();
        assert!(matches!(
            handles[0].read(LId(0), false),
            Err(ChariotsError::Unavailable(_))
        ));
        assert!(matches!(
            handles[0].append(vec![payload("b")]),
            Err(ChariotsError::Unavailable(_))
        ));
        handles[0].recover();
        assert!(handles[0].read(LId(0), false).is_ok());
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn tags_flow_to_indexer() {
        let (handles, fabric, shutdown, threads) = launch_one(1, 10);
        let (ix, ix_thread) = spawn_indexer(IndexerCore::new(), shutdown.clone());
        fabric.set_indexers(vec![ix.clone()]);
        let p = AppendPayload::new(
            TagSet::new().with(Tag::with_value("key", "x")),
            Bytes::from_static(b"v"),
        );
        let ids = handles[0].append(vec![p]).unwrap();
        // Indexer ingestion is async; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let hits = ix.lookup("key".into(), None, None, Limit::All).unwrap();
            if hits == vec![ids[0].1] {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "posting never arrived"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
        ix_thread.join().unwrap();
    }

    /// Seat `index` of `state`'s group, outside any deployment.
    fn seat_ctx(state: &Arc<GroupState>, index: usize) -> ReplicaCtx {
        ReplicaCtx {
            index,
            ..ReplicaCtx::solo(Arc::clone(state))
        }
    }

    /// A replica at `ctx`'s seat wrapping `core`, for a test to serve on its
    /// own thread in place of a spawned node loop.
    fn driver(
        core: MaintainerCore,
        ctx: ReplicaCtx,
        station: StationConfig,
        fabric: &Fabric,
        appended: &Counter,
    ) -> Replica {
        let station = Arc::new(ServiceStation::new("driver", station));
        Replica::new(core, station, fabric.clone(), appended.clone(), ctx)
    }

    /// A closed-loop append item and the channel its reply arrives on.
    fn append_item(body: &str) -> (BatchItem, Receiver<Result<Vec<(TOId, LId)>>>) {
        let (tx, rx) = bounded(1);
        let item = BatchItem::Append {
            payloads: vec![payload(body)],
            reply: Some(ReplyTo::local(tx)),
        };
        (item, rx)
    }

    /// Spawns `n` replica node threads of group M0 and returns the pieces a
    /// test needs to drive a batch against the group directly. The group's
    /// `appended` counter comes back as the first handle's.
    fn launch_backups(
        n: usize,
    ) -> (
        Arc<GroupState>,
        Vec<MaintainerHandle>,
        Fabric,
        Shutdown,
        Vec<JoinHandle<MaintainerCore>>,
        EpochJournal,
    ) {
        let journal = EpochJournal::new(RangeMap::new(1, 10));
        let fabric = Fabric::new();
        let shutdown = Shutdown::new();
        let state = Arc::new(GroupState::new(MaintainerId(0)));
        let appended = Counter::new();
        let mut raw = Vec::new();
        let mut threads = Vec::new();
        for r in 0..n {
            let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
            let station = Arc::new(ServiceStation::new(
                format!("m0-r{r}"),
                StationConfig::uncapped(),
            ));
            let (h, t) = spawn_replica(
                core,
                station,
                fabric.clone(),
                Duration::from_millis(50),
                shutdown.clone(),
                seat_ctx(&state, r),
                appended.clone(),
                BatchPolicy::default(),
            );
            raw.push(h);
            threads.push(t);
        }
        state.set_replicas(raw.clone());
        (state, raw, fabric, shutdown, threads, journal)
    }

    fn stored_entry(lid: u64, body: &str) -> Entry {
        use chariots_types::{Record, RecordId, VersionVector};
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(0), TOId(lid + 1)),
                VersionVector::new(1),
                TagSet::new(),
                Bytes::copy_from_slice(body.as_bytes()),
            ),
        )
    }

    /// A drained batch costs each live backup exactly ONE replication RPC,
    /// however many appends and stores it coalesced — and the seat-0 node
    /// (whose place the driven core takes) receives none.
    #[test]
    fn coalesced_batch_sends_one_rpc_per_backup() {
        let (state, raw, fabric, shutdown, threads, journal) = launch_backups(3);
        // Drive a fresh seat-0 core through serve_batch directly so the
        // batch composition is exact (the spawned seat-0 node idles).
        let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
        let appended = Counter::new();
        let (a, rx1) = append_item("a");
        let (b, rx2) = append_item("b");
        let store = BatchItem::Store {
            entries: vec![stored_entry(5, "s")],
        };
        let uncapped = StationConfig::uncapped();
        driver(core, seat_ctx(&state, 0), uncapped, &fabric, &appended)
            .serve_batch(vec![a, b, store]);
        assert_eq!(rx1.recv().unwrap().unwrap(), vec![(TOId(1), LId(0))]);
        assert_eq!(rx2.recv().unwrap().unwrap(), vec![(TOId(2), LId(1))]);
        assert_eq!(appended.get(), 3);
        // One push per backup for the whole 3-record batch; the acting
        // primary's own seat gets nothing.
        assert_eq!(raw[0].replicate_rpc_counter().get(), 0);
        assert_eq!(raw[1].replicate_rpc_counter().get(), 1);
        assert_eq!(raw[2].replicate_rpc_counter().get(), 1);
        // And the push carried every record of the batch.
        for backup in &raw[1..] {
            for lid in [0, 1, 5] {
                assert_eq!(backup.read(LId(lid), false).unwrap().lid, LId(lid));
            }
        }
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A fencing event while a batch is in service fails the WHOLE batch:
    /// every append waiter gets the fencing error and nothing is acked —
    /// no partial acks under a deposed generation.
    #[test]
    fn fencing_mid_batch_fails_every_item() {
        let (state, raw, fabric, shutdown, threads, journal) = launch_backups(2);
        let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
        // Rate-capped station: serving the 2-record batch blocks the driver
        // for ~200ms, a deterministic window to depose it in.
        let slow = StationConfig::with_rate(10.0);
        let appended = Counter::new();
        let mut replica = driver(core, seat_ctx(&state, 0), slow, &fabric, &appended);
        let (a, rx1) = append_item("a");
        let (b, rx2) = append_item("b");
        let driver = std::thread::spawn(move || replica.serve_batch(vec![a, b]));
        // Depose seat 0 while the batch is still being served.
        std::thread::sleep(Duration::from_millis(50));
        state.promote(1);
        driver.join().unwrap();
        // Both waiters see the fencing failure; neither append was acked.
        assert!(matches!(
            rx1.recv().unwrap(),
            Err(ChariotsError::Fenced { .. })
        ));
        assert!(matches!(
            rx2.recv().unwrap(),
            Err(ChariotsError::Fenced { .. })
        ));
        assert_eq!(appended.get(), 0, "no partial acks");
        assert_eq!(raw[1].replicate_rpc_counter().get(), 0);
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A lone primary is a quorum of one: its own durability report
    /// resolves the batch on the serving thread, so the ack is out before
    /// `serve_batch` returns and nothing stays in the tracker. With no
    /// backup participating there was nothing to wait for or overlap.
    #[test]
    fn solo_append_is_acked_before_serve_batch_returns() {
        let state = Arc::new(GroupState::new(MaintainerId(0)));
        let journal = EpochJournal::new(RangeMap::new(1, 10));
        let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal);
        let fabric = Fabric::new();
        let appended = Counter::new();
        let (item, rx) = append_item("a");
        let uncapped = StationConfig::uncapped();
        driver(core, seat_ctx(&state, 0), uncapped, &fabric, &appended).serve_batch(vec![item]);
        assert_eq!(rx.try_recv().unwrap().unwrap(), vec![(TOId(1), LId(0))]);
        assert_eq!(state.commit().pending(), 0);
        assert_eq!(appended.get(), 1);
        let obs = fabric.obs();
        assert_eq!(obs.commit_quorum_latency.count(), 1);
        assert_eq!(obs.commit_repl_wait.count(), 0, "no backup to wait for");
        assert_eq!(obs.commit_overlap_saved.get(), 0, "nothing overlapped");
    }

    /// A batch whose every item failed on its own has nothing to commit:
    /// each append gets its own error, and no durability point is paid.
    #[test]
    fn all_items_failed_batch_pays_no_fsync() {
        let dir = chariots_simnet::TestDir::new("chariots-node-emptyshare");
        let state = Arc::new(GroupState::new(MaintainerId(1)));
        // M1 is not part of a one-maintainer striping: it can assign
        // nothing and owns no position.
        let journal = EpochJournal::new(RangeMap::new(1, 10));
        let core = MaintainerCore::new(MaintainerId(1), DatacenterId(0), journal)
            .with_wal(dir.path().join("m1.wal"))
            .unwrap();
        let fabric = Fabric::new();
        let appended = Counter::new();
        let (a, rx1) = append_item("a");
        let (b, rx2) = append_item("b");
        let store = BatchItem::Store {
            entries: vec![stored_entry(0, "not ours")],
        };
        let uncapped = StationConfig::uncapped();
        let mut replica = driver(core, seat_ctx(&state, 0), uncapped, &fabric, &appended);
        replica.serve_batch(vec![a, store, b]);
        for rx in [rx1, rx2] {
            assert!(matches!(
                rx.try_recv().unwrap(),
                Err(ChariotsError::Unavailable(_))
            ));
        }
        assert_eq!(
            replica.core.wal_syncs(),
            0,
            "nothing applied, nothing to fsync"
        );
        assert_eq!(state.commit().pending(), 0);
        assert_eq!(appended.get(), 0);
        assert_eq!(fabric.obs().commit_quorum_latency.count(), 0);
    }

    /// A promotion landing between a batch's registration and its primary's
    /// durability report acks nothing: appenders see `Fenced`, and the
    /// batch's `Store` entries — committed upstream — are parked as orphans
    /// that the next loop turn re-homes onto the new primary.
    #[test]
    fn promotion_mid_commit_fences_appends_and_rehomes_stores() {
        let (state, raw, fabric, shutdown, threads, journal) = launch_backups(2);
        // The driven seat-0 core holds its fsync open for 200ms: the batch
        // is registered and shipped, but not yet durable on the primary.
        let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
            .with_sync_delay(Duration::from_millis(200));
        let appended = raw[0].appended_counter();
        let uncapped = StationConfig::uncapped();
        let mut replica = driver(core, seat_ctx(&state, 0), uncapped, &fabric, &appended);
        let (item, rx) = append_item("a");
        let store = BatchItem::Store {
            entries: vec![stored_entry(5, "s")],
        };
        let driver = std::thread::spawn(move || replica.serve_batch(vec![item, store]));
        // The backup's push leaves after registration and before the
        // primary's fsync starts: once it has arrived, the window is open.
        while raw[1].replicate_rpc_counter().get() == 0 {
            std::thread::yield_now();
        }
        state.promote(1);
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ChariotsError::Fenced { .. })
        ));
        driver.join().unwrap();
        // Whichever replica loop picks the orphan up, it ends on the new
        // primary — committed there, or handed to it — and is counted then,
        // once; the fenced append never is.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while appended.get() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "orphaned store never re-homed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(&raw[1].read(LId(5), false).unwrap().record.body[..], b"s");
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(appended.get(), 1);
        assert!(state.commit().take_orphans().is_empty());
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// Entries buffered while the primary's machine was down are committed
    /// like any other once it is back: both replicas end up holding them,
    /// and the group counts each exactly once.
    #[test]
    fn crash_buffer_recovery_commits_to_the_backup_and_counts_once() {
        let (_state, raw, _fabric, shutdown, threads, _journal) = launch_backups(2);
        let appended = raw[0].appended_counter();
        raw[0].crash();
        assert!(raw[0].store(vec![stored_entry(0, "x"), stored_entry(1, "y")]));
        // Give the node time to pick the store up (and buffer it) while
        // crashed.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(appended.get(), 0);
        raw[0].recover();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while appended.get() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "buffered stores never committed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        for replica in &raw {
            assert_eq!(&replica.read(LId(0), false).unwrap().record.body[..], b"x");
            assert_eq!(&replica.read(LId(1), false).unwrap().record.body[..], b"y");
        }
        // Several loop turns later the count has not moved.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(appended.get(), 2);
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn async_appends_are_counted() {
        let (handles, _fabric, shutdown, threads) = launch_one(1, 100);
        let counter = handles[0].appended_counter();
        for _ in 0..10 {
            assert!(handles[0].append_async(vec![payload("x"); 10]));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while counter.get() < 100 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(counter.get(), 100);
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }
}
