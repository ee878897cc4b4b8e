//! The log maintainer: post-assignment of log positions (§5.2).
//!
//! "The thesis of a post-assignment approach is to let the application
//! client construct the record and send it to a randomly (or intelligibly)
//! selected Log maintainer. The Log maintainer will assign the record the
//! next available log position from log positions under its control."
//!
//! [`MaintainerCore`] is the synchronous, single-threaded state machine —
//! everything is testable without spawning anything. The thread-hosted
//! server wrapper lives in [`node`](crate::node).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chariots_simnet::{append_frame, Counter, FrameReader};
use chariots_types::{
    ChariotsError, DatacenterId, Entry, LId, MaintainerId, Record, RecordId, Result, TOId, TagSet,
    VersionVector, WalSyncPolicy, Wire, WireReader,
};

use crate::epoch::EpochJournal;
use crate::gossip::HlVector;
use crate::segment::SegmentStore;
use crate::wal::{frame_entry, io_err, next_entry, CompactionStats, Wal, WalPosition};

/// What an application client sends to append: tags plus the opaque body.
/// The maintainer constructs the full [`Record`] — identity included —
/// because under post-assignment the position (and hence, in standalone
/// FLStore, the total order) is not known until the maintainer picks it.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendPayload {
    /// System-visible tags to index.
    pub tags: TagSet,
    /// Opaque application payload.
    pub body: Bytes,
}

impl AppendPayload {
    /// Creates a payload.
    pub fn new(tags: TagSet, body: impl Into<Bytes>) -> Self {
        AppendPayload {
            tags,
            body: body.into(),
        }
    }
}

impl Wire for AppendPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tags.encode(buf);
        self.body.encode(buf);
    }

    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(AppendPayload {
            tags: TagSet::decode(r)?,
            body: Bytes::decode(r)?,
        })
    }
}

/// Per-epoch storage and append cursor.
#[derive(Debug)]
struct EpochState {
    store: SegmentStore,
    /// Next local slot this maintainer will self-assign in this epoch.
    next_local: u64,
}

impl EpochState {
    fn new() -> Self {
        EpochState {
            store: SegmentStore::default(),
            next_local: 0,
        }
    }
}

/// A record waiting for its explicit-order minimum bound (§5.4).
#[derive(Debug)]
struct MinBoundWaiter {
    payload: AppendPayload,
    min: LId,
}

/// How the last [`MaintainerCore::with_wal`] recovery went: whether a
/// checkpoint cut the replay short, and how much work the replay was.
/// This is the signal the `recovery` bench measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Whether a valid checkpoint was loaded (current or previous).
    pub used_checkpoint: bool,
    /// Entries restored from the checkpoint snapshot.
    pub checkpoint_entries: u64,
    /// On-disk size of the loaded checkpoint file.
    pub checkpoint_bytes: u64,
    /// WAL frames replayed (the suffix past the checkpoint, or everything).
    pub replayed_frames: u64,
    /// WAL frame bytes read during replay.
    pub replayed_bytes: u64,
}

/// Point-in-time storage footprint of one maintainer, for the
/// `flstore.storage.*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Live WAL segment files (sealed + active).
    pub segments: u64,
    /// Total bytes across the live WAL segment files.
    pub disk_bytes: u64,
    /// Payload bytes of live entries resident in memory.
    pub live_bytes: u64,
}

/// Result of one [`MaintainerCore::checkpoint`]: what was snapshotted and
/// what the accompanying WAL truncation reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The durable frontier captured by the checkpoint.
    pub upto: LId,
    /// Entries snapshotted.
    pub entries: u64,
    /// On-disk size of the checkpoint file.
    pub bytes: u64,
    /// WAL bytes reclaimed by truncating segments the previous checkpoint
    /// already covers.
    pub reclaimed_bytes: u64,
}

/// Compaction threshold in thousandths: a GC sweep rewrites a sealed WAL
/// segment without its dead frames once its estimated live ratio falls
/// below this (fully dead segments are deleted either way).
const COMPACT_LIVE_FRAC_MILLI: u32 = 500;

/// A checkpoint file is a run of transport frames: one whose payload is
/// `(magic, version, per-epoch GC floors, WAL position, entry count)` as
/// `Wire` values, then one per live entry, as in a WAL segment.
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CCKP");
/// Version 2: the frames above. (Version 1 was one CRC over a hand-laid
/// body; it fails the first frame and recovery falls through.)
const CKPT_VERSION: u16 = 2;

fn ckpt_path(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(suffix);
    base.with_file_name(name)
}

/// Parsed checkpoint contents.
struct CheckpointData {
    /// Per-epoch GC floors (local-index space), index = epoch.
    gc_floors: Vec<u64>,
    /// The WAL position the snapshot covers: replay resumes here.
    wal_pos: WalPosition,
    /// Snapshotted live entries.
    entries: Vec<Entry>,
    /// On-disk size of the checkpoint file.
    file_bytes: u64,
}

/// Loads and validates the checkpoint at `path`. Any malformation —
/// missing file, a short or CRC-failed frame, bad magic, another version,
/// an undecodable entry, fewer or more frames than the count says — yields
/// `None`: the caller falls back to the previous checkpoint or a full
/// replay, never to partial state.
fn load_checkpoint(path: &Path) -> Option<CheckpointData> {
    let mut frames = FrameReader::new(File::open(path).ok()?);
    let mut head = WireReader::new(frames.next_frame().ok()??);
    if u32::decode(&mut head)? != CKPT_MAGIC || u16::decode(&mut head)? != CKPT_VERSION {
        return None;
    }
    let gc_floors = Vec::<u64>::decode(&mut head)?;
    let wal_pos = WalPosition {
        seq: u64::decode(&mut head)?,
        offset: u64::decode(&mut head)?,
    };
    let entry_count = u64::decode(&mut head)?;
    if !head.is_empty() {
        return None;
    }
    let mut entries = Vec::with_capacity(entry_count.min(1 << 20) as usize);
    for _ in 0..entry_count {
        entries.push(next_entry(&mut frames, path).ok()??);
    }
    // The count must be the whole file: no frame, whole or torn, after it.
    if frames.next_frame().ok()?.is_some() || frames.torn() {
        return None;
    }
    Some(CheckpointData {
        gc_floors,
        wal_pos,
        entries,
        file_bytes: frames.valid_bytes(),
    })
}

/// Counters exposed for diagnostics and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintainerStats {
    /// Records appended via post-assignment.
    pub appended: u64,
    /// Entries stored with pre-routed positions (Chariots queues).
    pub stored: u64,
    /// Reads served.
    pub reads: u64,
    /// Records currently parked awaiting a minimum bound.
    pub deferred: usize,
    /// This maintainer's current frontier.
    pub frontier: LId,
    /// The frontier as of the last successful durability point — every
    /// owned position below it is both filled and fsynced.
    pub durable_frontier: LId,
    /// This maintainer's current view of the Head of the Log.
    pub head_of_log: LId,
}

/// The synchronous state machine of one log maintainer.
#[derive(Debug)]
pub struct MaintainerCore {
    id: MaintainerId,
    dc: DatacenterId,
    journal: EpochJournal,
    /// Index i holds state for epoch i; grown lazily.
    epochs: Vec<EpochState>,
    /// Cursor: the epoch in which the next self-assigned append lands.
    append_epoch: usize,
    hl: HlVector,
    wal: Option<Wal>,
    /// When the WAL is fsynced on the apply path; see
    /// [`MaintainerCore::sync_batch`].
    sync_policy: WalSyncPolicy,
    /// Counts WAL fsyncs (shared with the node's metrics registry as
    /// `flstore.wal.sync.count`).
    wal_syncs: Counter,
    /// The frontier as of the last successful durability point; feeds the
    /// commit tracker and failover watermarks.
    durable: LId,
    /// Fault-injection hook: added latency paid inside every durability
    /// point (tests use it to widen the fsync window).
    sync_delay: Option<Duration>,
    /// WAL segment rotation threshold; applied when `with_wal` opens the
    /// log, so it must be configured first.
    wal_segment_bytes: u64,
    /// Checkpoint cadence for [`MaintainerCore::maybe_checkpoint`];
    /// `Duration::ZERO` disables.
    checkpoint_interval: Duration,
    last_checkpoint: Instant,
    /// WAL segment seqs anchoring the current and previous checkpoints
    /// (protected from compaction; truncation keeps everything from the
    /// previous one up so fallback recovery always finds its suffix).
    cur_ckpt_seq: Option<u64>,
    prev_ckpt_seq: Option<u64>,
    /// How the last recovery went (zeroed for a fresh core).
    recovery: RecoveryStats,
    /// Highest GC bound applied so far (gates repeat sweeps).
    last_gc_bound: LId,
    /// Compaction sweeps that changed anything (shared with the node's
    /// registry as `flstore.storage.compactions`).
    compactions: Counter,
    /// Disk bytes reclaimed by compaction + checkpoint truncation
    /// (`flstore.storage.reclaimed_bytes`).
    reclaimed: Counter,
    deferred: Vec<MinBoundWaiter>,
    max_deferred: usize,
    /// Entries built for drained min-bound waiters since the last
    /// [`MaintainerCore::take_drained`] — the node replicates these to its
    /// backups (they bypass the normal append reply path).
    drained: Vec<Entry>,
    stats_appended: u64,
    stats_stored: u64,
    stats_reads: u64,
}

impl MaintainerCore {
    /// Creates a maintainer with empty storage.
    pub fn new(id: MaintainerId, dc: DatacenterId, journal: EpochJournal) -> Self {
        let n = journal.current().map.num_maintainers();
        let hl = HlVector::new(n);
        let mut core = MaintainerCore {
            id,
            dc,
            journal,
            epochs: vec![EpochState::new()],
            append_epoch: 0,
            hl,
            wal: None,
            sync_policy: WalSyncPolicy::default(),
            wal_syncs: Counter::new(),
            durable: LId::ZERO,
            sync_delay: None,
            wal_segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            checkpoint_interval: Duration::ZERO,
            last_checkpoint: Instant::now(),
            cur_ckpt_seq: None,
            prev_ckpt_seq: None,
            recovery: RecoveryStats::default(),
            last_gc_bound: LId::ZERO,
            compactions: Counter::new(),
            reclaimed: Counter::new(),
            deferred: Vec::new(),
            max_deferred: 65_536,
            drained: Vec::new(),
            stats_appended: 0,
            stats_stored: 0,
            stats_reads: 0,
        };
        // A fresh maintainer's frontier is its first owned slot, not zero:
        // it is not blocking any position below that slot.
        core.refresh_own_frontier();
        core.durable = core.frontier();
        core
    }

    /// Bounds the explicit-order deferral buffer.
    pub fn with_max_deferred(mut self, max: usize) -> Self {
        self.max_deferred = max;
        self
    }

    /// Selects when the WAL is flushed+fsynced on the apply path.
    pub fn with_sync_policy(mut self, policy: WalSyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Shares the WAL fsync counter (e.g. a registry-backed
    /// `flstore.wal.sync.count`) so syncs are observable.
    pub fn with_wal_sync_counter(mut self, counter: Counter) -> Self {
        self.wal_syncs = counter;
        self
    }

    /// Fault injection: pays `delay` inside every durability point. Tests
    /// use it to hold a replica's fsync open while others race ahead.
    pub fn with_sync_delay(mut self, delay: Duration) -> Self {
        self.sync_delay = Some(delay);
        self
    }

    /// Sets the WAL segment rotation threshold. Must be called before
    /// [`MaintainerCore::with_wal`] to take effect.
    pub fn with_wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes.max(1);
        self
    }

    /// Sets the cadence of [`MaintainerCore::maybe_checkpoint`]
    /// (`Duration::ZERO` disables periodic checkpoints).
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Shares the storage-maintenance counters (registry-backed
    /// `flstore.storage.compactions` / `flstore.storage.reclaimed_bytes`).
    pub fn with_storage_counters(mut self, compactions: Counter, reclaimed: Counter) -> Self {
        self.compactions = compactions;
        self.reclaimed = reclaimed;
        self
    }

    /// Enables write-ahead persistence at `path`, recovering any existing
    /// state first: the latest valid checkpoint (falling back to the
    /// previous one, then to nothing, on corruption) plus a streamed
    /// replay of the WAL suffix the checkpoint does not cover — O(delta
    /// since checkpoint), not O(log). [`MaintainerCore::recovery_stats`]
    /// reports how the recovery went.
    pub fn with_wal(mut self, path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut stats = RecoveryStats::default();
        // Newest checkpoint first; a bad CRC (or any malformation) falls
        // back to the double-buffered previous snapshot, never to a
        // half-applied state.
        let checkpoint = load_checkpoint(&ckpt_path(&path, ".ckpt"))
            .or_else(|| load_checkpoint(&ckpt_path(&path, ".ckpt.prev")));
        let replay_from = match checkpoint {
            Some(ckpt) => {
                stats.used_checkpoint = true;
                stats.checkpoint_entries = ckpt.entries.len() as u64;
                stats.checkpoint_bytes = ckpt.file_bytes;
                // Floors first: a restored floor must reject stale WAL
                // frames below it during the suffix replay.
                for (i, floor) in ckpt.gc_floors.iter().enumerate() {
                    self.epoch_state(i).store.gc_before(*floor);
                }
                for entry in ckpt.entries {
                    self.apply_recovered(entry)?;
                }
                self.cur_ckpt_seq = Some(ckpt.wal_pos.seq);
                self.prev_ckpt_seq = Some(ckpt.wal_pos.seq);
                Some(ckpt.wal_pos)
            }
            None => None,
        };
        let mut replay = match replay_from {
            Some(pos) => Wal::replay_from(&path, pos)?,
            None => Wal::replay_iter(&path)?,
        };
        for entry in replay.by_ref() {
            // Last-wins: a replica's WAL may hold a newer frame for a slot
            // it first learned via replication and later saw repaired.
            self.apply_recovered(entry?)?;
        }
        stats.replayed_frames = replay.frames();
        stats.replayed_bytes = replay.bytes_read();
        self.recovery = stats;
        // Self-assignment resumes after the densest filled prefix of each
        // epoch (appends are dense per epoch, so the prefix is exact).
        for (i, state) in self.epochs.iter_mut().enumerate() {
            let _ = i;
            state.next_local = state.store.filled_prefix();
        }
        self.refresh_own_frontier();
        // Replayed entries were durable before the restart.
        self.durable = self.frontier();
        let mut wal = Wal::open_with(path, self.wal_segment_bytes)?;
        wal.set_protected(self.cur_ckpt_seq.iter().chain(&self.prev_ckpt_seq).copied());
        self.wal = Some(wal);
        Ok(self)
    }

    /// Applies one recovered entry (checkpoint snapshot or WAL frame),
    /// overwriting any occupant. Positions below a restored GC floor are
    /// skipped — the floor is authoritative, the stale frame is not.
    fn apply_recovered(&mut self, entry: Entry) -> Result<()> {
        match self.locate_and_apply(entry, false, true) {
            Ok(_) | Err(ChariotsError::GarbageCollected(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// This maintainer's id.
    pub fn id(&self) -> MaintainerId {
        self.id
    }

    /// The datacenter this maintainer serves.
    pub fn datacenter(&self) -> DatacenterId {
        self.dc
    }

    /// Read-only view of the epoch journal.
    pub fn journal(&self) -> &EpochJournal {
        &self.journal
    }

    fn epoch_state(&mut self, epoch_idx: usize) -> &mut EpochState {
        while self.epochs.len() <= epoch_idx {
            self.epochs.push(EpochState::new());
        }
        &mut self.epochs[epoch_idx]
    }

    /// The global position the next self-assigned append would take,
    /// without consuming it.
    ///
    /// Fails with [`ChariotsError::Unavailable`] if this maintainer owns no
    /// assignable positions — e.g. a freshly added maintainer whose future
    /// reassignment has not been announced to it yet.
    pub fn peek_next_lid(&mut self) -> Result<LId> {
        loop {
            let epoch_idx = self.append_epoch;
            let epoch = chariots_types::Epoch(epoch_idx as u32);
            let next_local = self.epoch_state(epoch_idx).next_local;
            let assignment = *self
                .journal
                .by_epoch(epoch)
                .expect("append_epoch within journal");
            let member = self.id.index() < assignment.map.num_maintainers();
            let exhausted = match self.journal.slots_in_epoch(epoch, self.id) {
                Some(cap) => next_local >= cap,
                // Unbounded (current) epoch: exhausted only if we are not
                // part of its striping.
                None => !member,
            };
            if exhausted {
                if self
                    .journal
                    .by_epoch(chariots_types::Epoch(epoch_idx as u32 + 1))
                    .is_none()
                {
                    return Err(ChariotsError::Unavailable(format!(
                        "maintainer {} owns no assignable positions yet",
                        self.id
                    )));
                }
                // This epoch's slots are exhausted; move on.
                self.append_epoch += 1;
                continue;
            }
            return Ok(assignment.lid_for(self.id, next_local));
        }
    }

    fn take_next_lid(&mut self) -> Result<LId> {
        let lid = self.peek_next_lid()?;
        self.epoch_state(self.append_epoch).next_local += 1;
        Ok(lid)
    }

    /// Appends payloads with post-assigned positions, returning the built
    /// [`Entry`]s — each carries the `(TOId, LId)` pair "sent back to the
    /// Application client" (§3) plus the full record, so callers (the node's
    /// group-commit path in particular) can reply *and* replicate without
    /// re-reading every position out of the store.
    ///
    /// In standalone FLStore the datacenter's total order *is* the log
    /// order, so the assigned `TOId` is `LId + 1` (TOIds are 1-based).
    pub fn append_batch(&mut self, payloads: Vec<AppendPayload>) -> Result<Vec<Entry>> {
        let mut appended = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let lid = self.take_next_lid()?;
            let toid = TOId(lid.0 + 1);
            let record = Record::new(
                RecordId::new(self.dc, toid),
                VersionVector::new(0),
                payload.tags,
                payload.body,
            );
            let entry = Entry::new(lid, record);
            self.locate_and_apply(entry.clone(), true, false)?;
            self.stats_appended += 1;
            appended.push(entry);
        }
        self.drain_deferred()?;
        Ok(appended)
    }

    /// Appends one payload subject to an explicit-order minimum bound: the
    /// assigned position is guaranteed to exceed `min` (§5.4). Returns the
    /// built entry if the append could happen immediately, or `Ok(None)` if
    /// the record was parked ("buffered until it can be added to a partial
    /// log with LIds larger than the minimum bound").
    pub fn append_min_bound(&mut self, payload: AppendPayload, min: LId) -> Result<Option<Entry>> {
        if self.peek_next_lid()? > min {
            let mut out = self.append_batch(vec![payload])?;
            return Ok(Some(out.pop().expect("one payload appended")));
        }
        if self.deferred.len() >= self.max_deferred {
            return Err(ChariotsError::Overloaded(format!(
                "maintainer {} min-bound buffer",
                self.id
            )));
        }
        self.deferred.push(MinBoundWaiter { payload, min });
        Ok(None)
    }

    /// Appends every parked record whose bound is now satisfied. Returns
    /// the entries appended. Called after ordinary appends and on gossip
    /// ticks.
    pub fn drain_deferred(&mut self) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        loop {
            let next = self.peek_next_lid()?;
            let Some(pos) = self.deferred.iter().position(|w| next > w.min) else {
                break;
            };
            let waiter = self.deferred.swap_remove(pos);
            // One-element append cannot recurse into drain_deferred
            // infinitely: each call strictly consumes a waiter.
            let lid = self.take_next_lid()?;
            let toid = TOId(lid.0 + 1);
            let record = Record::new(
                RecordId::new(self.dc, toid),
                VersionVector::new(0),
                waiter.payload.tags,
                waiter.payload.body,
            );
            let entry = Entry::new(lid, record);
            self.locate_and_apply(entry.clone(), true, false)?;
            self.stats_appended += 1;
            self.drained.push(entry.clone());
            out.push(entry);
        }
        Ok(out)
    }

    /// Entries built for drained min-bound waiters since the last call
    /// (consumed by the node's replication path — no store re-read needed).
    pub fn take_drained(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.drained)
    }

    /// Stores entries whose positions were already assigned by the Chariots
    /// queues stage. Positions must be owned by this maintainer under the
    /// governing epoch. Entries already held (re-sends after a crash, link
    /// duplication) are skipped — the position is immutable once assigned,
    /// so a re-delivery carries nothing new.
    pub fn store_entries(&mut self, entries: Vec<Entry>) -> Result<()> {
        for entry in entries {
            match self.locate_and_apply(entry, true, false) {
                Ok(_) => self.stats_stored += 1,
                Err(ChariotsError::DuplicateRecord(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Applies entries replicated from a peer replica of this maintainer's
    /// group (primary→backup push or anti-entropy repair), overwriting any
    /// occupant, and returns the resulting frontier. Positions already
    /// garbage-collected locally are skipped — collected data is gone.
    ///
    /// Takes a slice so the caller can hand every backup the same shared
    /// `Arc<[Entry]>` batch; entries are cloned only into this replica's
    /// own store/WAL.
    pub fn replicate_entries(&mut self, entries: &[Entry]) -> Result<LId> {
        for entry in entries {
            match self.locate_and_apply(entry.clone(), true, true) {
                Ok(_) => self.stats_stored += 1,
                Err(ChariotsError::GarbageCollected(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Replication can extend the filled prefix past the append cursor;
        // keep self-assignment ahead of what this replica now holds.
        self.resume_assignment();
        Ok(self.frontier())
    }

    /// Moves the self-assignment cursor of every epoch past the densest
    /// filled prefix. Called when a backup is promoted to primary (and
    /// after replication), so the new primary resumes assignment after the
    /// replicated suffix instead of re-handing-out taken positions.
    pub fn resume_assignment(&mut self) {
        for state in &mut self.epochs {
            state.next_local = state.next_local.max(state.store.filled_prefix());
        }
        self.refresh_own_frontier();
    }

    /// Locates `entry`'s slot under the governing epoch and applies it.
    ///
    /// Returns whether the slot was previously empty. With `overwrite`,
    /// an occupant is replaced (identical copies are left alone without a
    /// new WAL frame); without it, an occupied slot is a
    /// [`ChariotsError::DuplicateRecord`] and nothing is written.
    fn locate_and_apply(&mut self, entry: Entry, write_wal: bool, overwrite: bool) -> Result<bool> {
        let assignment = *self.journal.assignment_at(entry.lid);
        let Some(local) = assignment.local_index(self.id, entry.lid) else {
            return Err(ChariotsError::WrongMaintainer {
                asked: self.id,
                owner: assignment.owner_of(entry.lid),
                lid: entry.lid,
            });
        };
        let epoch_idx = assignment.epoch.0 as usize;
        {
            let state = self.epoch_state(epoch_idx);
            if state.store.is_collected(local) {
                return Err(ChariotsError::GarbageCollected(entry.lid));
            }
            if let Some(existing) = state.store.get(local) {
                if !overwrite {
                    return Err(ChariotsError::DuplicateRecord(entry.record.id));
                }
                if existing.record.id == entry.record.id {
                    return Ok(false);
                }
            }
        }
        if write_wal {
            if let Some(wal) = &mut self.wal {
                wal.append(&entry)?;
                // The strictest policy pays one fsync per record; the batch
                // policies defer to the sync_batch() commit point.
                if self.sync_policy == WalSyncPolicy::PerRecord {
                    wal.sync()?;
                    self.wal_syncs.add(1);
                }
            }
        }
        let state = self.epoch_state(epoch_idx);
        let was_empty = if overwrite {
            state.store.insert_or_replace(local, entry)?
        } else {
            state.store.insert(local, entry)?;
            true
        };
        self.refresh_own_frontier();
        Ok(was_empty)
    }

    /// This maintainer's frontier: the smallest owned global position still
    /// unfilled. Every owned position below it is filled.
    pub fn frontier(&self) -> LId {
        for (i, state) in self.epochs.iter().enumerate() {
            let epoch = chariots_types::Epoch(i as u32);
            let prefix = state.store.filled_prefix();
            let assignment = self.journal.by_epoch(epoch).expect("state implies epoch");
            let member = self.id.index() < assignment.map.num_maintainers();
            match self.journal.slots_in_epoch(epoch, self.id) {
                Some(cap) if prefix >= cap => continue, // epoch fully filled
                None if !member => continue,            // we own nothing in it
                _ => return assignment.lid_for(self.id, prefix),
            }
        }
        // All materialized epochs full: frontier is the first slot of the
        // next epoch (or of the current one if none materialized).
        let epoch = chariots_types::Epoch(self.epochs.len() as u32);
        let assignment = self
            .journal
            .by_epoch(epoch)
            .unwrap_or_else(|| self.journal.current());
        if self.id.index() >= assignment.map.num_maintainers() {
            // Not part of this striping yet (a newly added maintainer whose
            // epoch has not been announced here): conservatively claim
            // nothing is filled.
            return LId::ZERO;
        }
        assignment.lid_for(self.id, 0)
    }

    fn refresh_own_frontier(&mut self) {
        let f = self.frontier();
        self.hl.update(self.id, f);
    }

    /// Incorporates a gossiped frontier from a peer maintainer.
    pub fn gossip_in(&mut self, from: MaintainerId, frontier: LId) {
        self.hl.update(from, frontier);
    }

    /// The gossip message this maintainer sends to peers: its own frontier,
    /// freshly recomputed (an epoch announcement can move it without any
    /// record being stored).
    pub fn gossip_out(&mut self) -> (MaintainerId, LId) {
        self.refresh_own_frontier();
        (self.id, self.hl.get(self.id))
    }

    /// This maintainer's current view of the Head of the Log.
    pub fn head_of_log(&self) -> LId {
        self.hl.head_of_log()
    }

    /// Reads the entry at `lid`.
    ///
    /// With `enforce_hl`, positions at or above the maintainer's view of
    /// the Head of the Log are refused ("Application clients must not be
    /// allowed to read a record at log position i if there exists at least
    /// one gap at log position j less than i", §5.4).
    pub fn read(&mut self, lid: LId, enforce_hl: bool) -> Result<Entry> {
        self.stats_reads += 1;
        if enforce_hl && lid >= self.hl.head_of_log() {
            return Err(ChariotsError::NotYetAvailable(lid));
        }
        let assignment = self.journal.assignment_at(lid);
        let Some(local) = assignment.local_index(self.id, lid) else {
            return Err(ChariotsError::WrongMaintainer {
                asked: self.id,
                owner: assignment.owner_of(lid),
                lid,
            });
        };
        let epoch_idx = assignment.epoch.0 as usize;
        let Some(state) = self.epochs.get(epoch_idx) else {
            return Err(ChariotsError::NotYetAvailable(lid));
        };
        if state.store.is_collected(local) {
            return Err(ChariotsError::GarbageCollected(lid));
        }
        state
            .store
            .get(local)
            .cloned()
            .ok_or(ChariotsError::NotYetAvailable(lid))
    }

    /// Reads several positions in one pass, returning per-position results
    /// in input order. Each position is gated exactly as in [`read`], so a
    /// batch of one is indistinguishable from a single read — the batching
    /// only amortizes the request round trip, not the checks.
    ///
    /// [`read`]: MaintainerCore::read
    pub fn read_many(&mut self, lids: &[LId], enforce_hl: bool) -> Vec<Result<Entry>> {
        lids.iter().map(|&lid| self.read(lid, enforce_hl)).collect()
    }

    /// Scans this maintainer's stored entries with `lid ≥ from`, in `LId`
    /// order, up to `max` entries. Senders use this to ship local records to
    /// other datacenters; unlike client reads it is *not* HL-gated (causal
    /// safety at the receiver is TOId-based).
    pub fn scan_from(&self, from: LId, max: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        for (i, state) in self.epochs.iter().enumerate() {
            if out.len() >= max {
                break;
            }
            let epoch = chariots_types::Epoch(i as u32);
            let assignment = match self.journal.by_epoch(epoch) {
                Some(a) => *a,
                None => break,
            };
            let start_local = assignment.local_index(self.id, from).unwrap_or_else(|| {
                // `from` is not one of our slots (or predates the
                // epoch): start from the first owned slot ≥ from.
                if from <= assignment.start {
                    0
                } else {
                    assignment
                        .map
                        .owned_below(self.id, from.0 - assignment.start.0)
                }
            });
            for (_, entry) in state.store.iter_from(start_local) {
                if entry.lid >= from {
                    out.push(entry.clone());
                    if out.len() >= max {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Garbage-collects every owned position strictly below `bound`, then
    /// compacts the WAL: segments whose frames are all (or mostly) below
    /// the collection floor are deleted or rewritten, so the hot log's
    /// disk footprint tracks the live suffix instead of growing forever.
    ///
    /// Returns the combined reclaim outcome when anything was freed.
    pub fn gc_before(&mut self, bound: LId) -> Option<CompactionStats> {
        if bound <= self.last_gc_bound {
            return None; // the bound only moves forward; nothing new to do
        }
        self.last_gc_bound = bound;
        for (i, state) in self.epochs.iter_mut().enumerate() {
            let epoch = chariots_types::Epoch(i as u32);
            let Some(assignment) = self.journal.by_epoch(epoch) else {
                continue;
            };
            if bound <= assignment.start {
                continue;
            }
            let span = bound.0 - assignment.start.0;
            let floor = assignment.map.owned_below(self.id, span);
            state.store.gc_before(floor);
        }
        self.wal.as_ref()?;
        // The new floors must be durable before any frame below them is
        // dropped: recovery has to learn "collected", not "empty", for
        // the reclaimed prefix — an un-persisted floor would let a
        // restarted maintainer re-assign positions that were already
        // acked. The checkpoint records the floors (and the live
        // snapshot); if it cannot be written, skip compaction — that
        // costs disk, never data.
        let ckpt_reclaimed = match self.checkpoint() {
            Ok(Some(info)) => info.reclaimed_bytes,
            _ => return None,
        };
        let mut wal = self.wal.take()?;
        let result = wal.compact(bound, COMPACT_LIVE_FRAC_MILLI, |lid| self.lid_live(lid));
        self.wal = Some(wal);
        // Compaction itself is best-effort: a failed rewrite leaves the
        // original segment in place (tmp + rename).
        let mut stats = result.ok()?;
        if !stats.is_empty() {
            self.compactions.add(1);
            self.reclaimed.add(stats.reclaimed_bytes);
        }
        stats.reclaimed_bytes += ckpt_reclaimed;
        if stats.is_empty() {
            return None;
        }
        Some(stats)
    }

    /// Whether the record at `lid` is still live on this maintainer (not
    /// garbage-collected). Used as the compaction predicate for WAL frames.
    fn lid_live(&self, lid: LId) -> bool {
        let assignment = self.journal.assignment_at(lid);
        let Some(local) = assignment.local_index(self.id, lid) else {
            // Not one of our slots under the governing epoch: the frame is
            // a leftover from a reassignment; nothing recovers from it.
            return false;
        };
        match self.epochs.get(assignment.epoch.0 as usize) {
            Some(state) => !state.store.is_collected(local),
            // No state for the epoch yet: keep the frame conservatively.
            None => true,
        }
    }

    /// Applies a future reassignment announced by the controller.
    pub fn announce_epoch(&mut self, start: LId, map: crate::range::RangeMap) {
        self.journal.announce(start, map);
    }

    /// Live counters.
    pub fn stats(&self) -> MaintainerStats {
        MaintainerStats {
            appended: self.stats_appended,
            stored: self.stats_stored,
            reads: self.stats_reads,
            deferred: self.deferred.len(),
            frontier: self.hl.get(self.id),
            durable_frontier: self.durable,
            head_of_log: self.hl.head_of_log(),
        }
    }

    /// Flushes (and syncs) the WAL if persistence is enabled,
    /// unconditionally — shutdown paths and tests that want durability
    /// regardless of the configured policy.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(d) = self.sync_delay {
            std::thread::sleep(d);
        }
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
            self.wal_syncs.add(1);
        }
        self.durable = self.frontier();
        Ok(())
    }

    /// The group-commit durability point: called by the node once per
    /// drained batch, after every record in the batch has been applied and
    /// before any ack leaves this replica.
    ///
    /// - `PerBatch` (default): one flush+fsync for the whole batch.
    /// - `PerRecord`: no-op — every record already fsynced on apply.
    /// - `Never`: flush frames to the OS but skip the fsync (ablation /
    ///   bulk-load; crash durability is forfeited).
    pub fn sync_batch(&mut self) -> Result<()> {
        if let Some(d) = self.sync_delay {
            std::thread::sleep(d);
        }
        if let Some(wal) = &mut self.wal {
            match self.sync_policy {
                WalSyncPolicy::PerBatch => {
                    wal.sync()?;
                    self.wal_syncs.add(1);
                }
                WalSyncPolicy::PerRecord => {}
                // `Never` flushes frames to the OS without an fsync, so the
                // crash-durability debt is *not* retired — the backlog gauge
                // keeps growing, which is the honest signal for this
                // ablation. The durable frontier still advances: the
                // ablation deliberately treats flushed as good enough.
                WalSyncPolicy::Never => wal.flush()?,
            }
        }
        self.durable = self.frontier();
        Ok(())
    }

    /// The frontier as of the last successful durability point: every
    /// owned position below it is filled *and* covered by an fsync (or by
    /// the configured policy's weaker promise). Without persistence this
    /// tracks the plain frontier.
    pub fn durable_frontier(&self) -> LId {
        self.durable
    }

    /// WAL fsyncs performed by this core so far.
    pub fn wal_syncs(&self) -> u64 {
        self.wal_syncs.get()
    }

    /// WAL frames appended since the last fsync — records that would be
    /// lost if the machine died right now. Zero when persistence is off.
    pub fn wal_backlog(&self) -> usize {
        self.wal.as_ref().map_or(0, |w| w.unsynced() as usize)
    }

    /// Writes a checkpoint if persistence is on and the configured
    /// interval has elapsed since the last one. The node's maintenance
    /// tick calls this.
    pub fn maybe_checkpoint(&mut self) -> Result<Option<CheckpointInfo>> {
        if self.checkpoint_interval.is_zero() || self.wal.is_none() {
            return Ok(None);
        }
        if self.last_checkpoint.elapsed() < self.checkpoint_interval {
            return Ok(None);
        }
        self.checkpoint()
    }

    /// Snapshots durable state to `<wal>.ckpt` so the next recovery loads
    /// the snapshot and replays only the WAL suffix past it (O(delta)
    /// restart). Double-buffered: the prior snapshot is kept at
    /// `<wal>.ckpt.prev` until the new one is durably in place, and the
    /// WAL keeps every segment from the *previous* checkpoint's position
    /// up — so a torn or rotted current checkpoint still recovers exactly,
    /// just with a longer replay. Returns `None` when persistence is off.
    pub fn checkpoint(&mut self) -> Result<Option<CheckpointInfo>> {
        let Some(mut wal) = self.wal.take() else {
            return Ok(None);
        };
        let outcome = self.write_checkpoint(&mut wal);
        self.wal = Some(wal);
        self.last_checkpoint = Instant::now();
        outcome.map(Some)
    }

    fn write_checkpoint(&mut self, wal: &mut Wal) -> Result<CheckpointInfo> {
        // The snapshot must not get ahead of the log: fsync first, then
        // record the position the snapshot covers.
        if let Some(d) = self.sync_delay {
            std::thread::sleep(d);
        }
        wal.sync()?;
        self.wal_syncs.add(1);
        self.durable = self.frontier();
        let pos = wal.position();

        let gc_floors: Vec<u64> = self.epochs.iter().map(|s| s.store.gc_floor()).collect();
        let entry_count: u64 = self.epochs.iter().map(|s| s.store.len()).sum();
        let base = wal.path().to_path_buf();
        let tmp = ckpt_path(&base, ".ckpt.tmp");
        let cur = ckpt_path(&base, ".ckpt");
        let prev = ckpt_path(&base, ".ckpt.prev");
        let bytes = {
            let mut out = BufWriter::new(File::create(&tmp).map_err(io_err)?);
            let mut frame = Vec::new();
            append_frame(&mut frame, |b| {
                CKPT_MAGIC.encode(b);
                CKPT_VERSION.encode(b);
                gc_floors.encode(b);
                pos.seq.encode(b);
                pos.offset.encode(b);
                entry_count.encode(b);
            })
            .map_err(|e| ChariotsError::Storage(format!("checkpoint header: {e}")))?;
            out.write_all(&frame).map_err(io_err)?;
            for (_, entry) in self.epochs.iter().flat_map(|s| s.store.iter()) {
                frame.clear();
                frame_entry(&mut frame, entry)?;
                out.write_all(&frame).map_err(io_err)?;
            }
            let file = out.into_inner().map_err(|e| io_err(e.into_error()))?;
            file.sync_data().map_err(io_err)?;
            file.metadata().map_err(io_err)?.len()
        };
        // Demote the current snapshot before promoting the new one; both
        // renames are atomic, so every crash point leaves at least one
        // loadable checkpoint. A *corrupt* current snapshot is deleted
        // instead of demoted — clobbering a good `.prev` with rot would
        // open a crash window (between the renames) with no loadable
        // snapshot but an already-truncated WAL.
        if cur.exists() {
            if load_checkpoint(&cur).is_some() {
                std::fs::rename(&cur, &prev).map_err(io_err)?;
            } else {
                std::fs::remove_file(&cur).map_err(io_err)?;
            }
        }
        std::fs::rename(&tmp, &cur).map_err(io_err)?;

        let old_cur = self.cur_ckpt_seq;
        // The very first snapshot has no predecessor: leave `prev` unset so
        // nothing is truncated while only one snapshot exists on disk — a
        // rotted sole `.ckpt` must still fall back to a full WAL replay.
        self.prev_ckpt_seq = old_cur;
        self.cur_ckpt_seq = Some(pos.seq);
        wal.set_protected(
            self.prev_ckpt_seq
                .iter()
                .chain(self.cur_ckpt_seq.iter())
                .copied(),
        );
        // Everything below the *previous* checkpoint's segment is covered
        // by both on-disk snapshots: safe to drop.
        let mut reclaimed_bytes = 0;
        if let Some(seq) = self.prev_ckpt_seq {
            reclaimed_bytes = wal.truncate_below(seq)?;
        }
        self.reclaimed.add(reclaimed_bytes);
        Ok(CheckpointInfo {
            upto: self.durable,
            entries: entry_count,
            bytes,
            reclaimed_bytes,
        })
    }

    /// How the last [`MaintainerCore::with_wal`] recovery went.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Point-in-time storage footprint: WAL segments and bytes on disk,
    /// live payload bytes resident in memory.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            segments: self.wal.as_ref().map_or(0, |w| w.segment_count() as u64),
            disk_bytes: self.wal.as_ref().map_or(0, |w| w.disk_bytes()),
            live_bytes: self.epochs.iter().map(|s| s.store.resident_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::RangeMap;
    use chariots_types::Tag;

    fn core(id: u16, maintainers: usize, batch: u64) -> MaintainerCore {
        MaintainerCore::new(
            MaintainerId(id),
            DatacenterId(0),
            EpochJournal::new(RangeMap::new(maintainers, batch)),
        )
    }

    fn payload(body: &str) -> AppendPayload {
        AppendPayload::new(TagSet::new(), Bytes::copy_from_slice(body.as_bytes()))
    }

    /// `(TOId, LId)` view of appended entries, for assignment asserts.
    fn ids(entries: &[Entry]) -> Vec<(TOId, LId)> {
        entries.iter().map(|e| (e.record.toid(), e.lid)).collect()
    }

    #[test]
    fn post_assignment_fills_owned_slots_in_order() {
        let mut m = core(1, 3, 10); // owns 10..19, 40..49, …
        let out = m.append_batch(vec![payload("a"), payload("b")]).unwrap();
        assert_eq!(ids(&out), vec![(TOId(11), LId(10)), (TOId(12), LId(11))]);
        let out = m
            .append_batch((0..8).map(|_| payload("x")).collect())
            .unwrap();
        assert_eq!(out.last().unwrap().lid, LId(19));
        // Next round skips to 40.
        let out = m.append_batch(vec![payload("y")]).unwrap();
        assert_eq!(out[0].lid, LId(40));
    }

    #[test]
    fn append_batch_returns_full_entries() {
        let mut m = core(0, 1, 10);
        let out = m.append_batch(vec![payload("body")]).unwrap();
        // The returned entry matches what a store read would produce — the
        // node's hot path relies on this to skip the re-read.
        assert_eq!(out[0], m.read(out[0].lid, false).unwrap());
        assert_eq!(&out[0].record.body[..], b"body");
    }

    #[test]
    fn read_own_records_without_hl() {
        let mut m = core(0, 2, 5);
        m.append_batch(vec![payload("hello")]).unwrap();
        let e = m.read(LId(0), false).unwrap();
        assert_eq!(&e.record.body[..], b"hello");
        assert_eq!(e.record.toid(), TOId(1));
    }

    #[test]
    fn read_foreign_lid_names_owner() {
        let mut m = core(0, 2, 5);
        let err = m.read(LId(7), false).unwrap_err();
        assert_eq!(
            err,
            ChariotsError::WrongMaintainer {
                asked: MaintainerId(0),
                owner: MaintainerId(1),
                lid: LId(7),
            }
        );
    }

    #[test]
    fn hl_gates_reads_until_gossip_closes_gaps() {
        let mut m = core(0, 2, 5);
        m.append_batch(vec![payload("a")]).unwrap();
        // Own frontier is 1, but maintainer 1 has not gossiped: HL = 0.
        assert_eq!(m.head_of_log(), LId(0));
        assert!(matches!(
            m.read(LId(0), true),
            Err(ChariotsError::NotYetAvailable(_))
        ));
        // Peer reports it has filled its first round: HL rises.
        m.gossip_in(MaintainerId(1), LId(10));
        assert_eq!(m.head_of_log(), LId(1));
        assert!(m.read(LId(0), true).is_ok());
    }

    #[test]
    fn frontier_advances_within_and_across_rounds() {
        let mut m = core(0, 2, 3); // owns 0,1,2, 6,7,8, …
        assert_eq!(m.frontier(), LId(0));
        m.append_batch(vec![payload("a"), payload("b")]).unwrap();
        assert_eq!(m.frontier(), LId(2));
        m.append_batch(vec![payload("c")]).unwrap();
        assert_eq!(m.frontier(), LId(6), "round exhausted: next owned slot");
    }

    #[test]
    fn min_bound_defers_until_position_exceeds_bound() {
        let mut m = core(0, 2, 5);
        // Next position would be 0, min bound 7 (e.g. assigned by peer): defer.
        let parked = m.append_min_bound(payload("later"), LId(7)).unwrap();
        assert!(parked.is_none());
        assert_eq!(m.stats().deferred, 1);
        // Five appends exhaust round one (0..4); next position is 10 > 7,
        // so the waiter drains during the batch append.
        m.append_batch((0..5).map(|_| payload("x")).collect())
            .unwrap();
        assert_eq!(m.stats().deferred, 0);
        let e = m.read(LId(10), false).unwrap();
        assert_eq!(&e.record.body[..], b"later");
    }

    #[test]
    fn min_bound_satisfied_immediately_appends_now() {
        let mut m = core(0, 2, 5);
        m.append_batch(vec![payload("a")]).unwrap();
        let got = m.append_min_bound(payload("b"), LId(0)).unwrap();
        assert_eq!(
            got.map(|e| (e.record.toid(), e.lid)),
            Some((TOId(2), LId(1)))
        );
    }

    #[test]
    fn min_bound_buffer_is_bounded() {
        let mut m = core(0, 2, 5).with_max_deferred(2);
        assert!(m
            .append_min_bound(payload("1"), LId(100))
            .unwrap()
            .is_none());
        assert!(m
            .append_min_bound(payload("2"), LId(100))
            .unwrap()
            .is_none());
        assert!(matches!(
            m.append_min_bound(payload("3"), LId(100)),
            Err(ChariotsError::Overloaded(_))
        ));
    }

    #[test]
    fn store_entries_accepts_owned_positions_only() {
        let mut m = core(1, 2, 5); // owns 5..9, 15..19, …
        let entry = Entry::new(
            LId(6),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(1)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::from_static(b"ext"),
            ),
        );
        m.store_entries(vec![entry]).unwrap();
        assert_eq!(
            m.read(LId(6), false).unwrap().record.host(),
            DatacenterId(1)
        );
        let foreign = Entry::new(
            LId(2),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(2)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::new(),
            ),
        );
        assert!(matches!(
            m.store_entries(vec![foreign]),
            Err(ChariotsError::WrongMaintainer { .. })
        ));
    }

    #[test]
    fn out_of_order_store_tracks_frontier() {
        let mut m = core(0, 2, 3);
        let mk = |lid: u64| {
            Entry::new(
                LId(lid),
                Record::new(
                    RecordId::new(DatacenterId(0), TOId(lid + 1)),
                    VersionVector::new(1),
                    TagSet::new(),
                    Bytes::new(),
                ),
            )
        };
        m.store_entries(vec![mk(2)]).unwrap();
        assert_eq!(m.frontier(), LId(0));
        m.store_entries(vec![mk(0), mk(1)]).unwrap();
        assert_eq!(m.frontier(), LId(6));
    }

    #[test]
    fn scan_from_returns_lid_ordered_entries() {
        let mut m = core(0, 2, 3); // owns 0,1,2,6,7,8
        m.append_batch((0..5).map(|_| payload("x")).collect())
            .unwrap();
        let all = m.scan_from(LId(0), 100);
        let lids: Vec<LId> = all.iter().map(|e| e.lid).collect();
        assert_eq!(lids, vec![LId(0), LId(1), LId(2), LId(6), LId(7)]);
        let tail = m.scan_from(LId(2), 2);
        let lids: Vec<LId> = tail.iter().map(|e| e.lid).collect();
        assert_eq!(lids, vec![LId(2), LId(6)]);
        // From a position we don't own: starts at the next owned slot.
        let from_foreign = m.scan_from(LId(4), 2);
        assert_eq!(from_foreign[0].lid, LId(6));
    }

    #[test]
    fn gc_collects_below_bound() {
        let mut m = core(0, 2, 3);
        m.append_batch((0..4).map(|_| payload("x")).collect())
            .unwrap();
        m.gc_before(LId(2));
        assert!(matches!(
            m.read(LId(0), false),
            Err(ChariotsError::GarbageCollected(_))
        ));
        assert!(m.read(LId(2), false).is_ok());
        assert!(m.read(LId(6), false).is_ok());
    }

    #[test]
    fn epoch_reassignment_changes_future_appends() {
        let mut m = core(0, 1, 5); // alone: owns everything
        m.append_batch((0..5).map(|_| payload("x")).collect())
            .unwrap();
        // A second maintainer joins from position 10.
        m.announce_epoch(LId(10), RangeMap::new(2, 5));
        // Positions 5..9 are still epoch-0 (ours); fill them.
        let out = m
            .append_batch((0..5).map(|_| payload("y")).collect())
            .unwrap();
        assert_eq!(out.last().unwrap().lid, LId(9));
        // Next append lands in epoch 1 at relative 0 → global 10; we are
        // maintainer 0 so we own 10..14, then 20..24.
        let out = m
            .append_batch((0..6).map(|_| payload("z")).collect())
            .unwrap();
        assert_eq!(out[0].lid, LId(10));
        assert_eq!(out[4].lid, LId(14));
        assert_eq!(out[5].lid, LId(20));
    }

    #[test]
    fn wal_recovery_restores_state() {
        let dir = chariots_simnet::TestDir::new("chariots-m-recover");
        let path = dir.path().join("m0.wal");

        let journal = EpochJournal::new(RangeMap::new(2, 3));
        {
            let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
                .with_wal(&path)
                .unwrap();
            m.append_batch(vec![payload("a"), payload("b")]).unwrap();
            m.sync().unwrap();
        }
        // "Crash" and recover from the WAL.
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(&path)
            .unwrap();
        assert_eq!(&m.read(LId(0), false).unwrap().record.body[..], b"a");
        assert_eq!(&m.read(LId(1), false).unwrap().record.body[..], b"b");
        assert_eq!(m.frontier(), LId(2));
        // New appends continue after the recovered prefix.
        let out = m.append_batch(vec![payload("c")]).unwrap();
        assert_eq!(out[0].lid, LId(2));
    }

    /// The group-commit durability contract: every record acked at a
    /// `sync_batch()` boundary survives a crash that tears the WAL anywhere
    /// after that boundary — here mid-frame inside the *next* (unacked)
    /// batch.
    #[test]
    fn acked_batches_survive_mid_batch_truncation() {
        let dir = chariots_simnet::TestDir::new("chariots-m-groupcommit");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 100));

        let synced_len = {
            let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
                .with_wal(&path)
                .unwrap()
                .with_sync_policy(WalSyncPolicy::PerBatch);
            // Batch 1: applied, then the batch commit point — these three
            // records are the ones a client saw acked.
            m.append_batch(vec![payload("a1"), payload("a2"), payload("a3")])
                .unwrap();
            m.sync_batch().unwrap();
            assert_eq!(m.wal_syncs(), 1, "one fsync for the whole batch");
            let synced_len = std::fs::metadata(Wal::segment_path(&path, 0))
                .unwrap()
                .len();
            // Batch 2: applied but the crash lands before its sync_batch —
            // nothing in it was ever acked.
            m.append_batch(vec![payload("b1"), payload("b2")]).unwrap();
            m.sync().unwrap(); // flush so the file holds batch 2 bytes to tear
            synced_len
        };

        // Crash: tear the file mid-frame inside the unacked second batch.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(Wal::segment_path(&path, 0))
            .unwrap();
        file.set_len(synced_len + 5).unwrap();
        drop(file);

        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(&path)
            .unwrap();
        for (lid, body) in [(0u64, "a1"), (1, "a2"), (2, "a3")] {
            assert_eq!(
                &m.read(LId(lid), false).unwrap().record.body[..],
                body.as_bytes(),
                "acked record {lid} must survive the crash"
            );
        }
        assert_eq!(m.frontier(), LId(3), "exactly the acked prefix recovered");
    }

    /// `PerRecord` fsyncs on every apply; `Never` never does.
    #[test]
    fn sync_policy_controls_fsync_count() {
        let dir = chariots_simnet::TestDir::new("chariots-m-syncpolicy");
        let journal = EpochJournal::new(RangeMap::new(1, 100));

        let mut per_record = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
            .with_wal(dir.path().join("per-record.wal"))
            .unwrap()
            .with_sync_policy(WalSyncPolicy::PerRecord);
        per_record
            .append_batch(vec![payload("a"), payload("b"), payload("c")])
            .unwrap();
        per_record.sync_batch().unwrap();
        assert_eq!(per_record.wal_syncs(), 3, "one fsync per record");

        let mut never = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(dir.path().join("never.wal"))
            .unwrap()
            .with_sync_policy(WalSyncPolicy::Never);
        never
            .append_batch(vec![payload("a"), payload("b"), payload("c")])
            .unwrap();
        never.sync_batch().unwrap();
        assert_eq!(never.wal_syncs(), 0, "Never policy does not fsync");
    }

    #[test]
    fn append_returns_tags_preserved() {
        let mut m = core(0, 1, 10);
        let p = AppendPayload::new(
            TagSet::new().with(Tag::with_value("key", "k1")),
            Bytes::from_static(b"v"),
        );
        let out = m.append_batch(vec![p]).unwrap();
        let e = m.read(out[0].lid, false).unwrap();
        assert!(e.record.tags.contains_key("key"));
    }

    #[test]
    fn checkpoint_recovery_replays_only_suffix() {
        let dir = chariots_simnet::TestDir::new("chariots-m-ckpt");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 1000));
        {
            let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
                .with_wal_segment_bytes(256)
                .with_wal(&path)
                .unwrap();
            m.append_batch((0..50).map(|_| payload("ckpt-body")).collect())
                .unwrap();
            m.sync_batch().unwrap();
            let info = m.checkpoint().unwrap().unwrap();
            assert_eq!(info.entries, 50);
            assert!(info.bytes > 0);
            // Only a short suffix lands after the snapshot.
            m.append_batch(vec![payload("t1"), payload("t2"), payload("t3")])
                .unwrap();
            m.sync().unwrap();
        }
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal_segment_bytes(256)
            .with_wal(&path)
            .unwrap();
        let rs = m.recovery_stats();
        assert!(rs.used_checkpoint);
        assert_eq!(rs.checkpoint_entries, 50);
        assert_eq!(
            rs.replayed_frames, 3,
            "recovery replays only the post-checkpoint suffix"
        );
        assert_eq!(m.frontier(), LId(53));
        assert_eq!(
            &m.read(LId(0), false).unwrap().record.body[..],
            b"ckpt-body"
        );
        assert_eq!(&m.read(LId(52), false).unwrap().record.body[..], b"t3");
        // Appends resume past the recovered log.
        let out = m.append_batch(vec![payload("after")]).unwrap();
        assert_eq!(out[0].lid, LId(53));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous_snapshot() {
        let dir = chariots_simnet::TestDir::new("chariots-m-ckpt-corrupt");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 1000));
        {
            let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
                .with_wal(&path)
                .unwrap();
            m.append_batch((0..10).map(|_| payload("one")).collect())
                .unwrap();
            m.sync_batch().unwrap();
            m.checkpoint().unwrap().unwrap();
            m.append_batch((0..5).map(|_| payload("two")).collect())
                .unwrap();
            m.sync_batch().unwrap();
            m.checkpoint().unwrap().unwrap();
            m.append_batch(vec![payload("tail1"), payload("tail2")])
                .unwrap();
            m.sync().unwrap();
        }
        // Rot the *current* checkpoint's last byte: its CRC fails, so
        // recovery must fall back to the previous snapshot and replay a
        // longer suffix — never load half a snapshot.
        let cur = ckpt_path(&path, ".ckpt");
        let mut bytes = std::fs::read(&cur).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&cur, &bytes).unwrap();

        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(&path)
            .unwrap();
        let rs = m.recovery_stats();
        assert!(rs.used_checkpoint, "previous snapshot still loads");
        assert_eq!(rs.checkpoint_entries, 10, "snapshot #1, not the rotted #2");
        assert_eq!(
            rs.replayed_frames, 7,
            "everything after snapshot #1 replays from the WAL"
        );
        assert_eq!(m.frontier(), LId(17));
        for (lid, body) in [(0u64, "one"), (12, "two"), (16, "tail2")] {
            assert_eq!(
                &m.read(LId(lid), false).unwrap().record.body[..],
                body.as_bytes()
            );
        }
    }

    /// A checkpoint is rejected whole — never loaded in part, never a
    /// panic — whatever is cut off it or flipped in it.
    #[test]
    fn a_checkpoint_cut_anywhere_or_with_any_byte_flipped_does_not_load() {
        let dir = chariots_simnet::TestDir::new("chariots-m-ckpt-fuzz");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 1000));
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(&path)
            .unwrap();
        m.append_batch((0..6).map(|_| payload("snapshotted")).collect())
            .unwrap();
        m.gc_before(LId(2));
        let info = m.checkpoint().unwrap().unwrap();
        let cur = ckpt_path(&path, ".ckpt");
        let good = std::fs::read(&cur).unwrap();
        assert_eq!(info.bytes, good.len() as u64);
        let loaded = load_checkpoint(&cur).expect("the checkpoint as written loads");
        assert_eq!(loaded.entries.len() as u64, info.entries);
        assert_eq!((loaded.gc_floors, loaded.file_bytes), (vec![2], info.bytes));

        let probe = dir.path().join("probe.ckpt");
        for cut in 0..good.len() {
            std::fs::write(&probe, &good[..cut]).unwrap();
            assert!(load_checkpoint(&probe).is_none(), "loaded cut at {cut}");
        }
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0xFF;
            std::fs::write(&probe, &bad).unwrap();
            assert!(
                load_checkpoint(&probe).is_none(),
                "loaded with byte {at} flipped"
            );
        }
        // One whole frame too many is a miscount, not a longer snapshot.
        let mut extra = good.clone();
        frame_entry(&mut extra, &loaded.entries[0]).unwrap();
        std::fs::write(&probe, &extra).unwrap();
        assert!(load_checkpoint(&probe).is_none());
    }

    /// A version 1 checkpoint (one CRC over a hand-laid body) does not
    /// load: recovery falls through to `.ckpt.prev` and then to the WAL.
    #[test]
    fn a_version_1_checkpoint_falls_through_to_full_replay() {
        let dir = chariots_simnet::TestDir::new("chariots-m-ckpt-v1");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 1000));
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
            .with_wal(&path)
            .unwrap();
        m.append_batch(vec![payload("a"), payload("b"), payload("c")])
            .unwrap();
        m.sync().unwrap();
        drop(m);
        // Magic, version 1, reserved, body length, body CRC; the body: one
        // epoch floor, a WAL position past everything, no entries.
        let mut body = 1u16.to_le_bytes().to_vec();
        body.extend_from_slice(&[0xFF; 8 + 8 + 8]);
        body.extend_from_slice(&0u64.to_le_bytes());
        let mut v1 = b"CCKP\x01\x00\x00\x00".to_vec();
        v1.extend_from_slice(&(body.len() as u64).to_le_bytes());
        v1.extend_from_slice(&chariots_types::crc32(&body).to_le_bytes());
        v1.extend_from_slice(&body);
        for suffix in [".ckpt", ".ckpt.prev"] {
            std::fs::write(ckpt_path(&path, suffix), &v1).unwrap();
        }
        let m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal(&path)
            .unwrap();
        let rs = m.recovery_stats();
        assert_eq!((rs.used_checkpoint, rs.replayed_frames), (false, 3));
        assert_eq!(m.frontier(), LId(3));
    }

    #[test]
    fn gc_checkpoints_floors_then_compacts_wal() {
        let dir = chariots_simnet::TestDir::new("chariots-m-gc-compact");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 10_000));
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
            .with_wal_segment_bytes(512)
            .with_wal(&path)
            .unwrap();
        m.append_batch((0..100).map(|_| payload("wal-compaction-filler")).collect())
            .unwrap();
        m.sync_batch().unwrap();
        let before = m.storage_stats();
        assert!(before.segments > 4, "small segments force rotation");
        assert!(before.live_bytes > 0);

        let stats = m.gc_before(LId(90)).expect("sweep reclaims disk");
        assert!(stats.reclaimed_bytes > 0);
        let after = m.storage_stats();
        assert!(
            after.disk_bytes < before.disk_bytes,
            "WAL footprint shrinks: {} -> {}",
            before.disk_bytes,
            after.disk_bytes
        );
        assert!(after.live_bytes < before.live_bytes);
        // Repeating the same bound is a no-op.
        assert!(m.gc_before(LId(90)).is_none());

        // The floors went durable with the sweep's checkpoint: recovery
        // sees the prefix as *collected*, not empty, and resumes append
        // assignment after the acked log — never re-issuing positions.
        drop(m);
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal)
            .with_wal_segment_bytes(512)
            .with_wal(&path)
            .unwrap();
        assert!(matches!(
            m.read(LId(10), false),
            Err(ChariotsError::GarbageCollected(_))
        ));
        assert!(m.read(LId(95), false).is_ok());
        assert_eq!(m.frontier(), LId(100));
        let out = m.append_batch(vec![payload("next")]).unwrap();
        assert_eq!(out[0].lid, LId(100));
    }

    #[test]
    fn maybe_checkpoint_respects_interval() {
        let dir = chariots_simnet::TestDir::new("chariots-m-ckpt-interval");
        let path = dir.path().join("m0.wal");
        let journal = EpochJournal::new(RangeMap::new(1, 100));
        // Disabled by default (zero interval).
        let mut m = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone())
            .with_wal(&path)
            .unwrap();
        m.append_batch(vec![payload("a")]).unwrap();
        m.sync_batch().unwrap();
        assert!(m.maybe_checkpoint().unwrap().is_none());
        // A zero-elapsed interval has not fired yet right after startup…
        let mut m = m.with_checkpoint_interval(Duration::from_secs(3600));
        assert!(m.maybe_checkpoint().unwrap().is_none());
        // …but a tiny one fires on the next tick.
        let mut m = m.with_checkpoint_interval(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let info = m.maybe_checkpoint().unwrap().expect("interval elapsed");
        assert_eq!(info.entries, 1);
    }
}
