//! Thread-hosted servers wrapping the synchronous cores: each simulated
//! machine (maintainer or indexer) is one worker thread fed by a channel,
//! paced by its [`ServiceStation`].
//!
//! The maintainer node is a **group-commit batch engine** (§5.2's "batches
//! of records" made real): after the first blocking `recv`, the loop
//! opportunistically drains further queued `Append`/`Store` requests into
//! one batch bounded by [`BatchPolicy`], then pays one station admission,
//! one generation capture, one application pass, one WAL flush+fsync
//! (under the configured [`WalSyncPolicy`](chariots_types::WalSyncPolicy)),
//! and one replication push per live backup — the pushed entries are a
//! shared `Arc<[Entry]>`, never deep-cloned per backup — before fanning
//! replies out to every waiter.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{
    spawn_wire_listener, Counter, EventJournal, EventKind, Gauge, Histogram, MetricsRegistry,
    Notify, ReplyTo, ServiceStation, Shutdown, StageTracer, TcpSender, TransportMetrics,
};
use chariots_types::{
    ChariotsError, CommitMode, Entry, Generation, LId, Limit, MaintainerId, Result, TOId, TagValue,
    TraceId, ValuePredicate, Wire, WireReader,
};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use crate::indexer::{indexer_for, IndexerCore};
use crate::maintainer::{AppendPayload, MaintainerCore, MaintainerStats};
use crate::range::RangeMap;
use crate::replication::commit::{
    quorum_required, CommitOutcomeCtx, CommitWaiter, MAX_PENDING_COMMITS,
};
use crate::replication::{GroupState, ReplicaCtx, ReplicaGroupHandle};

/// Reply slot for append requests: the assigned `(TOId, LId)` pairs. A
/// [`ReplyTo`] rather than a raw channel sender so the slot survives a TCP
/// hop — serialized, it becomes a dial-back token the serving node answers
/// across the wire.
pub type AppendReplySender = ReplyTo<Result<Vec<(TOId, LId)>>>;

/// Bounds on how many queued requests the node loop coalesces into one
/// group-commit batch (config knobs `max_batch_records` /
/// `max_batch_bytes`). A records bound of 1 disables coalescing.
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
        /// pipelined sends, which report through the commit tracker
        /// instead.
        reply: Option<Sender<Result<LId>>>,
        /// Pipelined-commit sequence number to ack durability against
        /// (`None` for synchronous anti-entropy/serial replication).
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
    tx: Sender<MaintainerRequest>,
    station: Arc<ServiceStation>,
    appended: Counter,
    /// Replication RPCs received by this node (one per `replicate` call,
    /// however many entries it carries) — observable proof that a drained
    /// batch costs each backup a single push.
    replicate_rpcs: Counter,
    /// When set, the client-facing RPCs (append/read/scan family) travel
    /// over this TCP connection instead of the in-process channel.
    wire: Option<Arc<TcpSender>>,
}

impl MaintainerHandle {
    /// Routes a client-facing request: over TCP when this handle was
    /// wrapped by [`via_tcp`](Self::via_tcp), the in-process channel
    /// otherwise. Wire failures surface as the transient
    /// [`ChariotsError::Transport`], so retry-driven clients ride them out.
    fn dispatch(&self, req: MaintainerRequest) -> Result<()> {
        match &self.wire {
            Some(wire) => wire.send(&req),
            None => self.tx.send(req).map_err(|_| ChariotsError::ShutDown),
        }
    }

    /// Wraps this handle so its client-facing RPCs (append/read/scan
    /// family) travel over a real loopback TCP socket: a listener thread
    /// feeds the node's queue and the returned handle carries a
    /// reconnecting [`TcpSender`]. Replication, gossip, epoch, GC, stats,
    /// and crash/recover stay on the local channel — they are the harness
    /// modelling the machine, not client traffic. Station accounting stays
    /// on the sending side (the shared [`ServiceStation`]), so a request
    /// is never counted twice.
    pub fn via_tcp(
        &self,
        name: &str,
        shutdown: Shutdown,
        metrics: TransportMetrics,
    ) -> std::io::Result<MaintainerHandle> {
        let tx = self.tx.clone();
        let addr = spawn_wire_listener(
            name,
            shutdown,
            metrics.clone(),
            move |req: MaintainerRequest| {
                let _ = tx.send(req);
            },
        )?;
        let mut wired = self.clone();
        wired.wire = Some(Arc::new(TcpSender::new(addr, metrics)));
        Ok(wired)
    }

    /// Fire-and-forget append (open-loop load generation).
    pub fn append_async(&self, payloads: Vec<AppendPayload>) -> bool {
        self.station.note_arrival(payloads.len() as u64);
        self.dispatch(MaintainerRequest::Append {
            payloads,
            reply: None,
        })
        .is_ok()
    }

    /// Append and wait for the assigned `(TOId, LId)` pairs.
    ///
    /// The reply arrives only after the whole group-commit batch this
    /// request rode in has **committed**: applied locally, WAL-synced under
    /// the configured policy, and acked by every live backup. The node may
    /// coalesce this request with other queued `Append`/`Store` requests up
    /// to the [`BatchPolicy`] bounds, which amortizes the fsync and the
    /// replication round trip without changing the serial semantics — each
    /// request still succeeds or fails on its own application outcome.
    pub fn append(&self, payloads: Vec<AppendPayload>) -> Result<Vec<(TOId, LId)>> {
        self.station.note_arrival(payloads.len() as u64);
        let (reply, rx) = bounded(1);
        self.dispatch(MaintainerRequest::Append {
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
        self.dispatch(MaintainerRequest::AppendMinBound {
            payload,
            min,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Store pre-routed entries (Chariots queues stage).
    pub fn store(&self, entries: Vec<Entry>) -> bool {
        self.station.note_arrival(entries.len() as u64);
        self.dispatch(MaintainerRequest::Store { entries }).is_ok()
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
        self.tx
            .send(MaintainerRequest::Replicate {
                entries,
                generation,
                reply: Some(reply),
                seq: None,
            })
            .map_err(|_| ChariotsError::ShutDown)?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)?
    }

    /// Non-blocking replication push for the pipelined commit path: the
    /// backup fsyncs the entries and reports durability for batch `seq`
    /// through the group's commit tracker instead of a reply channel.
    /// Returns `false` if the backup's channel is gone (counts as an
    /// immediate failure for the quorum).
    pub fn replicate_async(&self, entries: Arc<[Entry]>, generation: Generation, seq: u64) -> bool {
        self.station.note_arrival(entries.len() as u64);
        self.replicate_rpcs.add(1);
        self.tx
            .send(MaintainerRequest::Replicate {
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
        self.dispatch(MaintainerRequest::Read {
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
        self.dispatch(MaintainerRequest::ReadBatch {
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
        self.dispatch(MaintainerRequest::Scan {
            from,
            max,
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// This maintainer's view of the Head of the Log.
    pub fn head_of_log(&self) -> Result<LId> {
        let (reply, rx) = bounded(1);
        self.dispatch(MaintainerRequest::HeadOfLog {
            reply: ReplyTo::local(reply),
        })?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Live counters.
    pub fn stats(&self) -> Result<MaintainerStats> {
        let (reply, rx) = bounded(1);
        self.tx
            .send(MaintainerRequest::Stats { reply })
            .map_err(|_| ChariotsError::ShutDown)?;
        rx.recv().map_err(|_| ChariotsError::ShutDown)
    }

    /// Injects gossip (used by peers and tests).
    pub fn gossip_in(&self, from: MaintainerId, frontier: LId) {
        let _ = self.tx.send(MaintainerRequest::GossipIn { from, frontier });
    }

    /// Announces a future reassignment to this maintainer.
    pub fn announce_epoch(&self, start: LId, map: RangeMap) {
        let _ = self
            .tx
            .send(MaintainerRequest::AnnounceEpoch { start, map });
    }

    /// Requests garbage collection below `before`.
    pub fn gc(&self, before: LId) {
        let _ = self.tx.send(MaintainerRequest::Gc { before });
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
    /// durability point (the exposed, un-overlapped replication wait).
    pub commit_repl_wait: Histogram,
    /// Register-to-quorum latency of each acked batch, in µs.
    pub commit_quorum_latency: Histogram,
    /// Cumulative µs of fsync/replication overlap the pipelined commit hid
    /// versus a serial chain paying the two legs back to back.
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
/// `batch`), pays a single station admission, generation capture, WAL
/// flush+fsync, and replication push per live backup for the whole batch,
/// then fans replies out. It also heartbeats the failure detector, gossips
/// the group frontier every `gossip_interval` while acting primary, and
/// posts tag information to the fabric's indexers. `appended` is the
/// group-level record counter, bumped only by the acting primary.
#[allow(clippy::too_many_arguments)]
pub fn spawn_replica(
    mut core: MaintainerCore,
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
        tx,
        station: Arc::clone(&station),
        appended: appended.clone(),
        replicate_rpcs: Counter::new(),
        wire: None,
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
            maintainer_loop(
                &mut core,
                &rx,
                &station,
                &fabric,
                gossip_interval,
                &shutdown,
                &appended,
                &ctx,
                batch,
            );
            // Nobody is left to ack this replica's in-flight pipelined
            // batches: fail their waiters instead of letting them hang.
            ctx.group.abort_pending(ChariotsError::ShutDown);
            core
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

/// Pushes `entries` to every live backup of the group, stamped with the
/// generation captured when the batch was admitted. Called by the acting
/// primary after it applies records locally; `Ok` means every live backup
/// acked (synchronous replication — the client's ack happens after this).
/// One RPC per backup per batch: each backup receives a clone of the same
/// `Arc<[Entry]>`, so the entry payloads are never copied per backup.
/// Backups whose machines are crashed are skipped (anti-entropy catches
/// them up later); any other failure — fencing after a mid-flight
/// deposition, overload — is propagated so the caller does NOT ack.
fn replicate_to_backups(
    ctx: &ReplicaCtx,
    entries: &Arc<[Entry]>,
    generation: Generation,
) -> Result<()> {
    if entries.is_empty() {
        return Ok(());
    }
    let replicas = ctx.group.replicas();
    if replicas.len() < 2 {
        return Ok(());
    }
    for (i, replica) in replicas.iter().enumerate() {
        if i == ctx.index || replica.station().is_crashed() {
            continue;
        }
        if let Err(e) = replica.replicate(Arc::clone(entries), generation) {
            // A backup that crashed in the window after the liveness check
            // is treated like one that was already down; every other error
            // means a live backup does not hold the records.
            if replica.station().is_crashed() {
                continue;
            }
            return Err(e);
        }
    }
    Ok(())
}

/// The group's live backups from this replica's point of view:
/// `(seat index, handle)` for every other replica whose machine is up.
/// Crashed backups are excluded from the commit's participant set exactly
/// as the serial path skips them (anti-entropy catches them up later).
fn live_backups(ctx: &ReplicaCtx) -> Vec<(usize, MaintainerHandle)> {
    ctx.group
        .replicas()
        .into_iter()
        .enumerate()
        .filter(|(i, r)| *i != ctx.index && !r.station().is_crashed())
        .collect()
}

/// The pipelined commit: ship the batch's shared `Arc<[Entry]>` to every
/// live backup *first* (non-blocking), pay the primary's own WAL fsync
/// while those RPCs are in flight, and let the group's
/// [`CommitTracker`](crate::replication::commit::CommitTracker) resolve
/// the batch — fanning replies out — the moment f+1 seats report
/// it durable. Whichever seat's ack completes the quorum runs the
/// completion, so the ack can land before the primary's fsync returns.
///
/// `pay_fsync` is `false` for drained-waiter flushes, whose durability
/// point was already paid before registration (the primary then enrolls
/// as already-durable).
#[allow(clippy::too_many_arguments)]
fn pipelined_commit(
    core: &mut MaintainerCore,
    ctx: &ReplicaCtx,
    fabric: &Fabric,
    generation: Generation,
    share: Arc<[Entry]>,
    waiters: Vec<CommitWaiter>,
    drained_records: u64,
    outcome_ctx: CommitOutcomeCtx,
    backups: &[(usize, MaintainerHandle)],
    quorum_wait: &mut Notify,
    pay_fsync: bool,
) {
    let tracker = ctx.group.commit();
    // Backpressure: bound the batches in flight awaiting quorum so a slow
    // backup cannot let the tracker grow without bound.
    while tracker.pending() >= MAX_PENDING_COMMITS {
        quorum_wait.wait_timeout(Duration::from_millis(1));
    }
    let mut participants = 1u64 << ctx.index;
    for (i, _) in backups {
        participants |= 1u64 << *i;
    }
    let required = quorum_required(
        ctx.group.replica_count(),
        participants.count_ones() as usize,
    );
    let seq = tracker.register(
        generation,
        ctx.index,
        participants,
        required,
        Arc::clone(&share),
        waiters,
        drained_records,
        outcome_ctx,
    );
    // Backups first — their fsyncs overlap the primary's below.
    for (i, backup) in backups {
        if !backup.replicate_async(Arc::clone(&share), generation, seq) {
            ctx.group.report_commit_failure(*i, seq);
        }
    }
    if pay_fsync {
        match timed_sync_batch(core, fabric) {
            Ok(elapsed) => {
                let fsync_us = elapsed.as_micros() as u64;
                fabric.obs().commit_fsync.record(fsync_us);
                ctx.group
                    .report_primary_durable(ctx.index, seq, fsync_us, core.durable_frontier());
            }
            Err(_) => ctx.group.report_commit_failure(ctx.index, seq),
        }
    } else {
        ctx.group
            .report_primary_durable(ctx.index, seq, 0, core.durable_frontier());
    }
}

/// The error a deposed (or never-primary) replica answers assignment
/// requests with: the client should refresh and re-route.
fn fenced(group: MaintainerId, ctx: &ReplicaCtx) -> ChariotsError {
    let current = ctx.group.generation();
    ChariotsError::Fenced {
        group,
        // The best stale stamp this replica can name is the generation
        // preceding the current one (it has not acted under `current`).
        sent: Generation(current.as_u64().saturating_sub(1)),
        current,
    }
}

/// Replicates any min-bound waiters drained outside a group-commit batch
/// (gossip ticks and min-bound serves; batch serves fold drained entries
/// into the batch's own push). The drained entries come straight from the
/// core — no store re-reads — and ride one shared-`Arc` push per backup.
/// Best-effort: the waiters were acked as *parked*, not as committed, so a
/// shortfall here — including a failed local durability point, after which
/// the entries must not be pushed at all — is left to anti-entropy repair
/// rather than failing the current request, but every abandoned entry is
/// counted on `flstore.replication.dropped` so the shortfall is visible.
fn replicate_drained(
    core: &mut MaintainerCore,
    ctx: &ReplicaCtx,
    fabric: &Fabric,
    appended: &Counter,
    quorum_wait: &mut Notify,
) {
    let drained = core.take_drained();
    if drained.is_empty() {
        return;
    }
    let n = drained.len() as u64;
    // Drained entries were applied (and WAL-appended) after the last batch
    // commit point; give them their own durability point before pushing. A
    // failed sync means they are NOT durable locally — abandon the push to
    // anti-entropy rather than replicate records a restart would lose.
    if timed_sync_batch(core, fabric).is_err() {
        fabric.obs().replication_dropped.add(n);
        return;
    }
    let entries: Arc<[Entry]> = drained.into();
    let Some(generation) = ctx.group.primary_generation(ctx.index) else {
        fabric.obs().replication_dropped.add(n);
        return;
    };
    ctx.group.note_durable(ctx.index, core.durable_frontier());
    let backups = live_backups(ctx);
    if ctx.commit_mode == CommitMode::PipelinedQuorum && !backups.is_empty() {
        // Background flush: ride the pipelined path (the fsync above
        // already made the primary durable), but keep it out of the
        // ack-path commit metrics.
        let outcome_ctx = CommitOutcomeCtx {
            fabric: fabric.clone(),
            appended: appended.clone(),
            total_records: 0,
            total_bytes: 0,
            had_appends: false,
            had_stores: false,
            post_share_tags: false,
            measured: false,
            started: std::time::Instant::now(),
        };
        pipelined_commit(
            core,
            ctx,
            fabric,
            generation,
            entries,
            Vec::new(),
            n,
            outcome_ctx,
            &backups,
            quorum_wait,
            false,
        );
        return;
    }
    if replicate_to_backups(ctx, &entries, generation).is_err() {
        fabric.obs().replication_dropped.add(n);
    }
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

/// The outcome of applying one batch item, held until the batch commits so
/// replies can be fanned out afterwards.
enum AppliedItem {
    /// Append applied; `assigned` are the built entries awaiting commit.
    Append {
        assigned: Vec<Entry>,
        reply: Option<AppendReplySender>,
    },
    /// Append failed on its own (e.g. no assignable positions); the error
    /// is delivered regardless of how the rest of the batch fares.
    AppendFailed {
        err: ChariotsError,
        reply: Option<AppendReplySender>,
    },
    /// Store applied; the entries await commit (they have no reply channel,
    /// but a failed commit queues them for re-replication).
    Store { entries: Vec<Entry> },
    /// Store failed on its own (bad routing); nothing to commit or reply.
    StoreFailed,
}

/// Serves one coalesced batch end to end: one station admission, one
/// generation capture, one application pass in arrival order, one WAL
/// sync ([`MaintainerCore::sync_batch`]), one shared-`Arc` replication push
/// per live backup, then reply fan-out. Min-bound waiters drained by the
/// batch's appends commit (and replicate) with the batch.
///
/// Per-item application failures only fail that item; admission, fencing,
/// durability, and replication failures fail the **whole batch** — no
/// partial acks under a deposed generation.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    core: &mut MaintainerCore,
    batch: Vec<BatchItem>,
    station: &ServiceStation,
    fabric: &Fabric,
    appended: &Counter,
    crash_buffer: &mut Vec<Entry>,
    pending_replication: &mut Vec<Entry>,
    ctx: &ReplicaCtx,
    quorum_wait: &mut Notify,
) {
    let total_records: usize = batch.iter().map(BatchItem::records).sum();
    let total_bytes: usize = batch.iter().map(BatchItem::bytes).sum();

    // Admission: one station pass for the whole batch.
    if let Err(e) = station.serve(total_records as u64) {
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
                BatchItem::Store { entries } => crash_buffer.extend(entries),
            }
        }
        return;
    }

    // One generation capture *after* station pacing (a primary deposed
    // while stalled in serve must not assign). Everything below is stamped
    // with it, so a deposition mid-flight is fenced by the backups instead
    // of silently acked.
    let Some(generation) = ctx.group.primary_generation(ctx.index) else {
        for item in batch {
            match item {
                // Only the primary assigns positions; fence appends so the
                // client refreshes its routing toward the new primary.
                BatchItem::Append { reply, .. } => {
                    if let Some(reply) = reply {
                        let _ = reply.send(Err(fenced(core.id(), ctx)));
                    }
                }
                // Routed here because the primary's machine is down (or a
                // stale route). Relay to a live primary when there is one;
                // otherwise persist locally so the positions survive until
                // this replica (or a repaired peer) is promoted.
                BatchItem::Store { entries } => match ctx.group.primary_handle() {
                    Some(primary) if !primary.station().is_crashed() => {
                        primary.store(entries);
                    }
                    _ => {
                        let _ = core.replicate_entries(&entries);
                    }
                },
            }
        }
        return;
    };

    let t0 = std::time::Instant::now();
    let mut had_appends = false;
    let mut had_stores = false;

    // Application pass, in arrival order. Each item succeeds or fails on
    // its own (serial equivalence); failures drop out of the commit set.
    let mut applied = Vec::with_capacity(batch.len());
    let mut committed: Vec<Entry> = Vec::with_capacity(total_records);
    for item in batch {
        match item {
            BatchItem::Append { payloads, reply } => {
                had_appends = true;
                match core.append_batch(payloads) {
                    Ok(assigned) => {
                        committed.extend_from_slice(&assigned);
                        applied.push(AppliedItem::Append { assigned, reply });
                    }
                    Err(err) => applied.push(AppliedItem::AppendFailed { err, reply }),
                }
            }
            BatchItem::Store { entries } => {
                had_stores = true;
                match core.store_entries(entries.clone()) {
                    Ok(()) => {
                        committed.extend_from_slice(&entries);
                        applied.push(AppliedItem::Store { entries });
                    }
                    Err(_) => applied.push(AppliedItem::StoreFailed),
                }
            }
        }
    }
    // Min-bound waiters drained by this batch's appends commit with it:
    // same WAL sync, same replication push.
    let drained = core.take_drained();
    let drained_count = drained.len();
    committed.extend(drained);

    // Commit. Pipelined (the default with live backups): register the
    // batch with the group's commit tracker, ship the shared `Arc` to the
    // backups first, pay the primary's fsync while those RPCs are in
    // flight, and let the tracker ack at f+1 durable copies — replies fan
    // out from whichever seat completes the quorum, so this function
    // returns before the batch is acked.
    let share: Arc<[Entry]> = committed.into();
    let backups = live_backups(ctx);
    if !share.is_empty() && ctx.commit_mode == CommitMode::PipelinedQuorum && !backups.is_empty() {
        let waiters = applied
            .into_iter()
            .filter_map(|item| match item {
                AppliedItem::Append { assigned, reply } => Some(CommitWaiter::Append {
                    ids: assigned.iter().map(|e| (e.record.toid(), e.lid)).collect(),
                    count: assigned.len() as u64,
                    reply,
                }),
                AppliedItem::AppendFailed { err, reply } => {
                    Some(CommitWaiter::FailedAppend { err, reply })
                }
                AppliedItem::Store { entries } => Some(CommitWaiter::Store { entries }),
                AppliedItem::StoreFailed => None,
            })
            .collect();
        let outcome_ctx = CommitOutcomeCtx {
            fabric: fabric.clone(),
            appended: appended.clone(),
            total_records: total_records as u64,
            total_bytes: total_bytes as u64,
            had_appends,
            had_stores,
            post_share_tags: true,
            measured: true,
            started: t0,
        };
        pipelined_commit(
            core,
            ctx,
            fabric,
            generation,
            share,
            waiters,
            drained_count as u64,
            outcome_ctx,
            &backups,
            quorum_wait,
            true,
        );
        return;
    }

    // Serial commit (oracle mode, solo groups, or no live backup): the
    // batch's single durability point, then one shared-`Arc` push per live
    // backup, then the post-replication primacy re-check — a deposition
    // anywhere in the window fails the whole batch (the promoted backup
    // may resume assignment at these very positions, so acking any of it
    // would admit duplicate LIds).
    let commit = if share.is_empty() {
        // Nothing committed (every item failed on its own): no durability
        // point or replication push to pay for.
        Ok(())
    } else {
        let obs = fabric.obs().clone();
        let group_id = core.id();
        (|| {
            let fsync = timed_sync_batch(core, fabric)?;
            let fsync_us = fsync.as_micros() as u64;
            obs.commit_fsync.record(fsync_us);
            ctx.group.note_durable(ctx.index, core.durable_frontier());
            let repl0 = std::time::Instant::now();
            replicate_to_backups(ctx, &share, generation)?;
            if ctx.group.primary_generation(ctx.index) != Some(generation) {
                return Err(ChariotsError::Fenced {
                    group: group_id,
                    sent: generation,
                    current: ctx.group.generation(),
                });
            }
            // The two legs ran back to back: the replication wait is fully
            // exposed, and nothing was saved by overlap.
            let repl_us = repl0.elapsed().as_micros() as u64;
            obs.commit_repl_wait.record(repl_us);
            obs.commit_quorum_latency.record(fsync_us + repl_us);
            Ok(())
        })()
    };

    match commit {
        Ok(()) => {
            let elapsed = t0.elapsed();
            let obs = fabric.obs();
            obs.batch_size.record(total_records as u64);
            obs.batch_bytes.record(total_bytes as u64);
            if had_appends {
                obs.append_latency.record_duration(elapsed);
            }
            if had_stores {
                obs.store_latency.record_duration(elapsed);
            }
            // Tag postings and trace stamps once per batch, for everything
            // that committed (drained waiters included).
            let traced: Vec<TraceId> = share.iter().filter_map(|e| e.record.trace).collect();
            fabric.stamp_store_exits(&traced);
            fabric.post_tags(collect_tag_postings(&share));
            for item in applied {
                match item {
                    AppliedItem::Append { assigned, reply } => {
                        appended.add(assigned.len() as u64);
                        if let Some(reply) = reply {
                            let ids = assigned
                                .iter()
                                .map(|e| (e.record.toid(), e.lid))
                                .collect::<Vec<_>>();
                            let _ = reply.send(Ok(ids));
                        }
                    }
                    AppliedItem::AppendFailed { err, reply } => {
                        if let Some(reply) = reply {
                            let _ = reply.send(Err(err));
                        }
                    }
                    AppliedItem::Store { entries } => {
                        appended.add(entries.len() as u64);
                    }
                    AppliedItem::StoreFailed => {}
                }
            }
        }
        Err(commit_err) => {
            for item in applied {
                match item {
                    // No partial acks: every append waiter in the batch
                    // sees the commit failure, whatever its own item did.
                    AppliedItem::Append { reply, .. } => {
                        if let Some(reply) = reply {
                            let _ = reply.send(Err(commit_err.clone()));
                        }
                    }
                    AppliedItem::AppendFailed { err, reply } => {
                        if let Some(reply) = reply {
                            let _ = reply.send(Err(err));
                        }
                    }
                    // Store positions are committed upstream: queue them
                    // for re-replication / handover instead of dropping.
                    AppliedItem::Store { entries } => pending_replication.extend(entries),
                    AppliedItem::StoreFailed => {}
                }
            }
            // Drained waiters were acked as *parked*; their shortfall is
            // left to anti-entropy, but counted.
            fabric.obs().replication_dropped.add(drained_count as u64);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn maintainer_loop(
    core: &mut MaintainerCore,
    rx: &Receiver<MaintainerRequest>,
    station: &ServiceStation,
    fabric: &Fabric,
    gossip_interval: Duration,
    shutdown: &Shutdown,
    appended: &Counter,
    ctx: &ReplicaCtx,
    batch: BatchPolicy,
) {
    let mut last_gossip = std::time::Instant::now();
    let mut last_heartbeat = std::time::Instant::now();
    let heartbeat_key = ctx.key();
    let mut was_primary = ctx.group.is_primary(ctx.index);
    // Wakeup for pipelined-commit backpressure: signalled whenever a batch
    // leaves the group's commit tracker.
    let mut quorum_wait = ctx.group.commit().subscribe();
    // Seed this seat's durable watermark: whatever the core holds now
    // (fresh, or replayed from its WAL) is durable.
    ctx.group.note_durable(ctx.index, core.durable_frontier());
    // Pre-routed entries that arrived while the machine was crashed: their
    // positions are already committed by the queues' token, so they must
    // not be lost — a real deployment recovers them from the WAL or a
    // re-send; we hold them until recovery.
    let mut crash_buffer: Vec<Entry> = Vec::new();
    // Entries this node applied and counted but failed to push to a live
    // backup (or was deposed before it could): re-replicated — or handed to
    // the current primary — each loop turn until the group holds them.
    let mut pending_replication: Vec<Entry> = Vec::new();
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
        // up. A crashed station stops beating, so silence accumulates and
        // the detector suspects this replica after the suspicion timeout.
        if let Some(detector) = &ctx.detector {
            if !station.is_crashed() && last_heartbeat.elapsed() >= ctx.heartbeat_interval {
                detector.heartbeat(&heartbeat_key);
                last_heartbeat = std::time::Instant::now();
            }
        }

        // Role change: a backup promoted to primary resumes self-assignment
        // after the suffix it already replicated, instead of re-assigning
        // positions the old primary handed out.
        let is_primary = ctx.group.is_primary(ctx.index);
        if is_primary && !was_primary {
            core.resume_assignment();
        }
        was_primary = is_primary;

        // Recovery: apply everything buffered during the outage first. The
        // buffered positions are already committed by the queues' token, so
        // every failure path puts them back for the next loop turn instead
        // of dropping them.
        if !crash_buffer.is_empty() && !station.is_crashed() {
            let entries = std::mem::take(&mut crash_buffer);
            let n = entries.len() as u64;
            match ctx.group.primary_generation(ctx.index) {
                Some(generation) => {
                    // Re-applying is idempotent (`replicate_entries`
                    // overwrites), so a retry after a partial failure
                    // cannot be rejected as a duplicate.
                    if station.serve(n).is_ok()
                        && core.replicate_entries(&entries).is_ok()
                        && core.sync_batch().is_ok()
                    {
                        let traced: Vec<TraceId> =
                            entries.iter().filter_map(|e| e.record.trace).collect();
                        appended.add(n);
                        fabric.stamp_store_exits(&traced);
                        fabric.post_tags(collect_tag_postings(&entries));
                        let share: Arc<[Entry]> = entries.into();
                        if replicate_to_backups(ctx, &share, generation).is_err() {
                            pending_replication.extend(share.iter().cloned());
                        }
                    } else {
                        crash_buffer = entries;
                    }
                }
                // Deposed while down: the buffered positions belong to the
                // current primary now — hand them over (it skips whatever
                // it already holds).
                None => match ctx.group.primary_handle() {
                    Some(primary) if primary.store(entries.clone()) => {}
                    _ => crash_buffer = entries,
                },
            }
        }

        // Store entries orphaned by failed pipelined batches (their
        // completion may run on a backup's thread, which cannot reach this
        // queue directly) join the re-replication queue here.
        pending_replication.extend(ctx.group.commit().take_orphans());

        // Re-replication of applied-but-unreplicated positions: keep
        // pushing until every live backup holds them, or hand them to the
        // new primary if this replica was deposed mid-flight.
        if !pending_replication.is_empty() && !station.is_crashed() {
            let entries = std::mem::take(&mut pending_replication);
            match ctx.group.primary_generation(ctx.index) {
                Some(generation) => {
                    let share: Arc<[Entry]> = entries.into();
                    if replicate_to_backups(ctx, &share, generation).is_err() {
                        pending_replication.extend(share.iter().cloned());
                    }
                }
                None => match ctx.group.primary_handle() {
                    Some(primary) if primary.store(entries.clone()) => {}
                    _ => pending_replication = entries,
                },
            }
        }

        if let Some(req) = req {
            match coalesce(req) {
                // Group commit: the first coalescable request opens a
                // batch; keep draining the channel until a bound is hit, it
                // runs dry, or a non-coalescable request shows up (which is
                // then served right after the batch, preserving arrival
                // order).
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
                    serve_batch(
                        core,
                        items,
                        station,
                        fabric,
                        appended,
                        &mut crash_buffer,
                        &mut pending_replication,
                        ctx,
                        &mut quorum_wait,
                    );
                    if let Some(req) = followup {
                        serve_request(
                            core,
                            req,
                            station,
                            fabric,
                            appended,
                            &mut crash_buffer,
                            &mut pending_replication,
                            ctx,
                            &mut quorum_wait,
                        );
                    }
                }
                Err(other) => serve_request(
                    core,
                    other,
                    station,
                    fabric,
                    appended,
                    &mut crash_buffer,
                    &mut pending_replication,
                    ctx,
                    &mut quorum_wait,
                ),
            }
        }

        // Periodic drain of parked min-bound records, plus gossip: only
        // the acting primary speaks for the group; backups still refresh
        // their own frontier so a promotion starts from an honest view.
        if last_gossip.elapsed() >= gossip_interval {
            last_gossip = std::time::Instant::now();
            let _ = core.drain_deferred();
            replicate_drained(core, ctx, fabric, appended, &mut quorum_wait);
            ctx.group.note_durable(ctx.index, core.durable_frontier());
            let (from, frontier) = core.gossip_out();
            if is_primary {
                fabric.gossip(from, frontier);
                fabric.obs().note_gossip(core.head_of_log());
            }
            // Storage maintenance rides the same tick: an interval-gated
            // checkpoint (O(delta) restarts) and fresh footprint gauges.
            // A failed snapshot costs restart time, not correctness — the
            // WAL still holds everything — so errors are not fatal here.
            if let Ok(Some(info)) = core.maybe_checkpoint() {
                fabric.obs().note_checkpoint(info);
            }
            fabric.obs().note_storage(core.storage_stats());
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_request(
    core: &mut MaintainerCore,
    req: MaintainerRequest,
    station: &ServiceStation,
    fabric: &Fabric,
    appended: &Counter,
    crash_buffer: &mut Vec<Entry>,
    pending_replication: &mut Vec<Entry>,
    ctx: &ReplicaCtx,
    quorum_wait: &mut Notify,
) {
    match req {
        // Append/Store normally enter through the loop's batch drain; a
        // straggler routed here is just a batch of one.
        MaintainerRequest::Append { payloads, reply } => serve_batch(
            core,
            vec![BatchItem::Append { payloads, reply }],
            station,
            fabric,
            appended,
            crash_buffer,
            pending_replication,
            ctx,
            quorum_wait,
        ),
        MaintainerRequest::Store { entries } => serve_batch(
            core,
            vec![BatchItem::Store { entries }],
            station,
            fabric,
            appended,
            crash_buffer,
            pending_replication,
            ctx,
            quorum_wait,
        ),
        MaintainerRequest::AppendMinBound {
            payload,
            min,
            reply,
        } => {
            if let Err(e) = station.serve(1) {
                let _ = reply.send(Err(e));
                return;
            }
            let Some(generation) = ctx.group.primary_generation(ctx.index) else {
                let _ = reply.send(Err(fenced(core.id(), ctx)));
                return;
            };
            match core.append_min_bound(payload, min) {
                Ok(Some(entry)) => {
                    let backups = live_backups(ctx);
                    if ctx.commit_mode == CommitMode::PipelinedQuorum && !backups.is_empty() {
                        // A one-entry pipelined batch: the MinBound waiter
                        // replies and counts at quorum.
                        let share: Arc<[Entry]> = vec![entry.clone()].into();
                        let waiter = CommitWaiter::MinBound {
                            id: Some((entry.record.toid(), entry.lid)),
                            reply,
                        };
                        let outcome_ctx = CommitOutcomeCtx {
                            fabric: fabric.clone(),
                            appended: appended.clone(),
                            total_records: 0,
                            total_bytes: 0,
                            had_appends: false,
                            had_stores: false,
                            post_share_tags: true,
                            measured: true,
                            started: std::time::Instant::now(),
                        };
                        pipelined_commit(
                            core,
                            ctx,
                            fabric,
                            generation,
                            share,
                            vec![waiter],
                            0,
                            outcome_ctx,
                            &backups,
                            quorum_wait,
                            true,
                        );
                    } else {
                        let group_id = core.id();
                        let result = (|| {
                            timed_sync_batch(core, fabric)?;
                            ctx.group.note_durable(ctx.index, core.durable_frontier());
                            let share: Arc<[Entry]> = vec![entry.clone()].into();
                            replicate_to_backups(ctx, &share, generation)?;
                            if ctx.group.primary_generation(ctx.index) != Some(generation) {
                                return Err(ChariotsError::Fenced {
                                    group: group_id,
                                    sent: generation,
                                    current: ctx.group.generation(),
                                });
                            }
                            appended.add(1);
                            fabric.post_tags(collect_tag_postings(std::slice::from_ref(&entry)));
                            Ok(Some((entry.record.toid(), entry.lid)))
                        })();
                        let _ = reply.send(result);
                    }
                }
                Ok(None) => {
                    let _ = reply.send(Ok(None));
                }
                Err(e) => {
                    let _ = reply.send(Err(e));
                }
            }
            replicate_drained(core, ctx, fabric, appended, quorum_wait);
        }
        MaintainerRequest::Replicate {
            entries,
            generation,
            reply,
            seq,
        } => {
            let n = entries.len() as u64;
            let group_id = core.id();
            // No counters, postings, or trace stamps here: the acting
            // primary already accounted for these records. Backups group-
            // commit too — one WAL sync per replicated batch, so a durable
            // ack means the records survive this replica's crash.
            let outcome = station
                .serve(n)
                .and_then(|()| {
                    let current = ctx.group.generation();
                    if generation < current {
                        return Err(ChariotsError::Fenced {
                            group: group_id,
                            sent: generation,
                            current,
                        });
                    }
                    Ok(())
                })
                .and_then(|()| core.replicate_entries(&entries))
                .and_then(|frontier| timed_sync_batch(core, fabric).map(|_| frontier));
            if outcome.is_ok() {
                // Raise this seat's durable watermark in both commit modes:
                // failover promotes by it.
                ctx.group.note_durable(ctx.index, core.durable_frontier());
            }
            match (reply, seq) {
                // Synchronous caller (serial replication, anti-entropy).
                (Some(reply), _) => {
                    let _ = reply.send(outcome);
                }
                // Pipelined push: report durability to the commit tracker;
                // whoever completes the quorum fans the batch's acks out.
                (None, Some(seq)) => match outcome {
                    Ok(_) => ctx
                        .group
                        .report_commit_ack(ctx.index, seq, core.durable_frontier()),
                    Err(_) => ctx.group.report_commit_failure(ctx.index, seq),
                },
                (None, None) => {}
            }
        }
        MaintainerRequest::Read {
            lid,
            enforce_hl,
            reply,
        } => {
            let result = if station.is_crashed() {
                Err(ChariotsError::Unavailable(format!(
                    "maintainer {}",
                    core.id()
                )))
            } else {
                core.read(lid, enforce_hl)
            };
            let _ = reply.send(result);
        }
        MaintainerRequest::ReadBatch {
            lids,
            enforce_hl,
            reply,
        } => {
            // Mirrors the single-read arm: a crashed machine refuses every
            // position in the batch, not just some.
            let result = if station.is_crashed() {
                lids.iter()
                    .map(|_| {
                        Err(ChariotsError::Unavailable(format!(
                            "maintainer {}",
                            core.id()
                        )))
                    })
                    .collect()
            } else {
                core.read_many(&lids, enforce_hl)
            };
            let _ = reply.send(result);
        }
        MaintainerRequest::Scan { from, max, reply } => {
            let _ = reply.send((core.stats().frontier, core.scan_from(from, max)));
        }
        MaintainerRequest::HeadOfLog { reply } => {
            let _ = reply.send(core.head_of_log());
        }
        MaintainerRequest::GossipIn { from, frontier } => {
            core.gossip_in(from, frontier);
            let _ = core.drain_deferred();
            replicate_drained(core, ctx, fabric, appended, quorum_wait);
        }
        MaintainerRequest::AnnounceEpoch { start, map } => {
            core.announce_epoch(start, map);
        }
        MaintainerRequest::Gc { before } => {
            if let Some(stats) = core.gc_before(before) {
                fabric.obs().note_compaction(stats);
            }
            fabric.obs().note_storage(core.storage_stats());
        }
        MaintainerRequest::Stats { reply } => {
            let _ = reply.send(core.stats());
        }
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

    /// Spawns `n` replica node threads of group M0 and returns the pieces a
    /// test needs to drive a batch against the group directly.
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
            let ctx = ReplicaCtx {
                group: Arc::clone(&state),
                index: r,
                detector: None,
                heartbeat_interval: Duration::from_millis(5),
                commit_mode: CommitMode::PipelinedQuorum,
            };
            let (h, t) = spawn_replica(
                core,
                station,
                fabric.clone(),
                Duration::from_millis(50),
                shutdown.clone(),
                ctx,
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
        let mut core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
        let station = ServiceStation::new("driver", StationConfig::uncapped());
        let appended = Counter::new();
        let mut crash_buffer = Vec::new();
        let mut pending_replication = Vec::new();
        let ctx = ReplicaCtx {
            group: Arc::clone(&state),
            index: 0,
            detector: None,
            heartbeat_interval: Duration::from_millis(5),
            commit_mode: CommitMode::PipelinedQuorum,
        };
        let (tx1, rx1) = bounded(1);
        let (tx2, rx2) = bounded(1);
        serve_batch(
            &mut core,
            vec![
                BatchItem::Append {
                    payloads: vec![payload("a")],
                    reply: Some(ReplyTo::local(tx1)),
                },
                BatchItem::Append {
                    payloads: vec![payload("b")],
                    reply: Some(ReplyTo::local(tx2)),
                },
                BatchItem::Store {
                    entries: vec![stored_entry(5, "s")],
                },
            ],
            &station,
            &fabric,
            &appended,
            &mut crash_buffer,
            &mut pending_replication,
            &ctx,
            &mut Notify::new(),
        );
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
        let mut core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
        // Rate-capped station: serving the 2-record batch blocks the driver
        // for ~200ms, a deterministic window to depose it in.
        let station = ServiceStation::new("driver", StationConfig::with_rate(10.0));
        let appended = Counter::new();
        let ctx = ReplicaCtx {
            group: Arc::clone(&state),
            index: 0,
            detector: None,
            heartbeat_interval: Duration::from_millis(5),
            commit_mode: CommitMode::PipelinedQuorum,
        };
        let (tx1, rx1) = bounded(1);
        let (tx2, rx2) = bounded(1);
        let driver = {
            let fabric = fabric.clone();
            let appended = appended.clone();
            std::thread::spawn(move || {
                let mut crash_buffer = Vec::new();
                let mut pending_replication = Vec::new();
                serve_batch(
                    &mut core,
                    vec![
                        BatchItem::Append {
                            payloads: vec![payload("a")],
                            reply: Some(ReplyTo::local(tx1)),
                        },
                        BatchItem::Append {
                            payloads: vec![payload("b")],
                            reply: Some(ReplyTo::local(tx2)),
                        },
                    ],
                    &station,
                    &fabric,
                    &appended,
                    &mut crash_buffer,
                    &mut pending_replication,
                    &ctx,
                    &mut Notify::new(),
                );
            })
        };
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
