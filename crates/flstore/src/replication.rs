//! Maintainer replica groups: quorum-committed replication, failure
//! detection hooks, and automatic primary failover.
//!
//! The paper's FLStore persists each log range on exactly one maintainer;
//! a crashed maintainer therefore stalls the Head of the Log until it
//! recovers (§5.4 discusses the HL, not maintainer fault tolerance). This
//! module adds the missing availability story: every maintainer id is
//! backed by a *replica group* of `f + 1` interchangeable replicas sharing
//! that id. One replica acts as **primary** — it self-assigns positions,
//! gossips the group frontier, and acks an append only once a quorum of
//! the live replicas (itself included) holds it durably. Backups persist
//! replicated entries in their own WALs and serve reads when the primary is
//! unreachable.
//!
//! Failover is driven by a heartbeat [`FailureDetector`]
//! (crate `chariots-simnet`): when the detector suspects a primary, the
//! [`Controller`](crate::Controller) promotes the most caught-up live
//! backup and bumps the group's [`Generation`]. Requests stamped with an
//! older generation are *fenced* ([`ChariotsError::Fenced`]), so a deposed
//! primary cannot ack writes the new primary will never see. Because every
//! [`ReplicaGroupHandle`] clone shares one [`GroupState`], sessions held by
//! clients and by the Chariots store stage re-route transparently the
//! moment the promotion lands.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chariots_simnet::{Counter, EventJournal, EventKind, FailureDetector, Gauge, ServiceStation};
use chariots_types::{ChariotsError, Entry, Generation, LId, MaintainerId, Result, TOId};
use parking_lot::RwLock;

use crate::maintainer::{AppendPayload, MaintainerStats};
use crate::node::MaintainerHandle;
use crate::range::RangeMap;

pub mod commit;

use commit::{CommitTracker, ResolvedCommit, SeatReport};

/// The failure-detector key of one replica, e.g. `"M1.r0"`.
pub fn replica_key(group: MaintainerId, index: usize) -> String {
    format!("{group}.r{index}")
}

/// Shared control state of one replica group: who is primary, the fencing
/// generation, and the endpoint of every replica. All clones of a group's
/// [`ReplicaGroupHandle`] — and the replicas themselves — observe the same
/// instance, which is what makes failover take effect everywhere at once.
#[derive(Debug)]
pub struct GroupState {
    group: MaintainerId,
    primary: AtomicUsize,
    generation: AtomicU64,
    replicas: RwLock<Vec<MaintainerHandle>>,
    commit: CommitTracker,
}

impl GroupState {
    /// Fresh state for group `group`: replica 0 is primary, generation 0,
    /// no endpoints registered yet (the topology is cyclic, so endpoints
    /// arrive via [`GroupState::set_replicas`] after spawn).
    pub fn new(group: MaintainerId) -> Self {
        GroupState {
            group,
            primary: AtomicUsize::new(0),
            generation: AtomicU64::new(Generation::INITIAL.as_u64()),
            replicas: RwLock::new(Vec::new()),
            commit: CommitTracker::new(group),
        }
    }

    /// The maintainer id all replicas of this group share.
    pub fn group(&self) -> MaintainerId {
        self.group
    }

    /// Index of the replica currently acting as primary.
    pub fn primary_index(&self) -> usize {
        self.primary.load(Ordering::Acquire)
    }

    /// Whether replica `index` is the current primary.
    pub fn is_primary(&self, index: usize) -> bool {
        self.primary_index() == index
    }

    /// The generation under which replica `index` currently holds primacy,
    /// or `None` if it is not primary. Unlike reading [`Self::is_primary`]
    /// and [`Self::generation`] separately, the two are observed
    /// consistently: a concurrent [`Self::promote`] (which bumps the
    /// generation before moving the seat) can never yield "primary under
    /// the *new* generation" to the replica being deposed.
    pub fn primary_generation(&self, index: usize) -> Option<Generation> {
        loop {
            let before = self.generation();
            if !self.is_primary(index) {
                return None;
            }
            if self.generation() == before {
                return Some(before);
            }
            // A promotion landed between the two reads; retry.
        }
    }

    /// The group's current fencing generation.
    pub fn generation(&self) -> Generation {
        Generation(self.generation.load(Ordering::Acquire))
    }

    /// Registers the replica endpoints (called once after spawn).
    pub fn set_replicas(&self, replicas: Vec<MaintainerHandle>) {
        *self.replicas.write() = replicas;
    }

    /// Snapshot of all replica endpoints.
    pub fn replicas(&self) -> Vec<MaintainerHandle> {
        self.replicas.read().clone()
    }

    /// Endpoint of replica `index`, if registered.
    pub fn replica(&self, index: usize) -> Option<MaintainerHandle> {
        self.replicas.read().get(index).cloned()
    }

    /// Endpoint of the current primary, if registered.
    pub fn primary_handle(&self) -> Option<MaintainerHandle> {
        self.replica(self.primary_index())
    }

    /// Number of replicas in the group.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// Promotes replica `index` to primary and bumps the generation,
    /// fencing every request stamped with the old one — including every
    /// batch still awaiting quorum under the old generation.
    /// Returns the new generation.
    pub fn promote(&self, index: usize) -> Generation {
        // Generation first: a deposed primary that still sees itself as
        // primary for an instant will have its replication fenced.
        let g = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.primary.store(index, Ordering::Release);
        let new_gen = Generation(g);
        let fenced = self.commit.fence(new_gen);
        self.finish(fenced);
        new_gen
    }

    /// The group's commit ledger.
    pub fn commit(&self) -> &CommitTracker {
        &self.commit
    }

    /// Raises replica `index`'s durable watermark (highest contiguous
    /// fsynced frontier) — the state failover promotes by.
    pub fn note_durable(&self, index: usize, frontier: LId) {
        self.commit.note_durable(index, frontier);
    }

    /// A backup reports batch `seq` durable at `frontier`. Resolves the
    /// batch if this ack completes its quorum.
    pub fn report_commit_ack(&self, index: usize, seq: u64, frontier: LId) {
        self.commit.note_durable(index, frontier);
        let resolved = self.commit.report(index, seq, SeatReport::Durable);
        self.finish(resolved);
    }

    /// A replica reports batch `seq` failed on its seat with `cause` (send
    /// error, fencing, or sync failure). Resolves the batch as failed if
    /// too few participants remain — with `cause` itself when it is the
    /// primary's, so a lone primary's waiters see the real `Storage` error
    /// rather than a transient-looking `QuorumLost`.
    pub fn report_commit_failure(&self, index: usize, seq: u64, cause: ChariotsError) {
        let resolved = self.commit.report(index, seq, SeatReport::Failed(cause));
        self.finish(resolved);
    }

    /// The primary reports its own WAL fsync done for batch `seq`. With no
    /// backup enrolled this is the whole quorum: the batch resolves — and
    /// its replies go out — on the caller's thread.
    pub fn report_primary_durable(&self, index: usize, seq: u64, fsync_us: u64, frontier: LId) {
        self.commit.note_durable(index, frontier);
        let resolved = self
            .commit
            .report(index, seq, SeatReport::PrimaryDurable { fsync_us });
        self.finish(resolved);
    }

    /// Fails every in-flight batch with `err` (replica loop
    /// shutdown — nobody is left to ack, so waiters must not hang).
    pub fn abort_pending(&self, err: ChariotsError) {
        let resolved = self.commit.abort(err);
        self.finish(resolved);
    }

    /// Completes resolved batches outside the tracker lock, re-checking
    /// fencing first: a batch whose quorum arrived *after* a promotion
    /// deposed its primary must not ack — the new primary may assign those
    /// positions to different records.
    fn finish(&self, resolved: impl IntoIterator<Item = ResolvedCommit>) {
        for ResolvedCommit { batch, outcome } in resolved {
            let outcome = if outcome.is_ok()
                && self.primary_generation(batch.primary) != Some(batch.generation)
            {
                Err(ChariotsError::Fenced {
                    group: self.group,
                    sent: batch.generation,
                    current: self.generation(),
                })
            } else {
                outcome
            };
            let orphans = batch.complete(outcome);
            if !orphans.is_empty() {
                self.commit.park_orphans(orphans);
            }
        }
    }
}

/// Per-replica wiring a maintainer node needs to participate in its group:
/// which group, which seat, and how to report liveness.
#[derive(Clone)]
pub struct ReplicaCtx {
    /// The group's shared control state.
    pub group: Arc<GroupState>,
    /// This replica's index within the group.
    pub index: usize,
    /// Failure detector to heartbeat into (`None` outside deployments).
    pub detector: Option<FailureDetector>,
    /// Liveness reporting period.
    pub heartbeat_interval: Duration,
}

impl ReplicaCtx {
    /// Wiring for a single-replica (unreplicated) group — the
    /// standalone-maintainer shape used by tests and benches.
    pub fn solo(group: Arc<GroupState>) -> Self {
        ReplicaCtx {
            group,
            index: 0,
            detector: None,
            heartbeat_interval: Duration::from_millis(5),
        }
    }

    /// This replica's failure-detector key.
    pub fn key(&self) -> String {
        replica_key(self.group.group(), self.index)
    }
}

/// Client-side handle to a replica group. It exposes the same surface as a
/// single [`MaintainerHandle`] — callers address "maintainer M*i*" exactly
/// as before — but routes every request according to the group's live
/// primary, falling back to backups where that preserves availability.
/// Cheap to clone; all clones share the group state, so a failover
/// re-routes every session at once.
#[derive(Clone)]
pub struct ReplicaGroupHandle {
    /// The maintainer id this group serves.
    pub id: MaintainerId,
    state: Arc<GroupState>,
    appended: Counter,
}

impl fmt::Debug for ReplicaGroupHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaGroupHandle")
            .field("id", &self.id)
            .field("primary", &self.state.primary_index())
            .field("generation", &self.state.generation())
            .field("replicas", &self.state.replica_count())
            .finish()
    }
}

impl ReplicaGroupHandle {
    /// Wraps registered group state into a routable handle. `appended` is
    /// the group-level appended counter (incremented by whichever replica
    /// is acting primary).
    pub fn new(id: MaintainerId, state: Arc<GroupState>, appended: Counter) -> Self {
        ReplicaGroupHandle {
            id,
            state,
            appended,
        }
    }

    /// Wraps one already-spawned standalone maintainer as a single-replica
    /// group (no replication, no failover — the legacy shape).
    pub fn solo(handle: MaintainerHandle) -> Self {
        let state = Arc::new(GroupState::new(handle.id));
        let appended = handle.appended_counter();
        state.set_replicas(vec![handle.clone()]);
        ReplicaGroupHandle {
            id: handle.id,
            state,
            appended,
        }
    }

    /// The group's shared control state.
    pub fn state(&self) -> Arc<GroupState> {
        Arc::clone(&self.state)
    }

    /// The group's current fencing generation.
    pub fn generation(&self) -> Generation {
        self.state.generation()
    }

    /// Snapshot of the group's replica endpoints.
    pub fn replicas(&self) -> Vec<MaintainerHandle> {
        self.state.replicas()
    }

    fn primary(&self) -> Result<MaintainerHandle> {
        self.state
            .primary_handle()
            .ok_or(ChariotsError::NoLivePrimary(self.id))
    }

    /// A target for pre-assigned stores: the primary if its machine is up,
    /// otherwise any live backup — positions committed upstream by the
    /// queues' token must not park in a dead node's buffer.
    fn live_for_store(&self) -> Result<MaintainerHandle> {
        let primary = self.primary()?;
        if !primary.station().is_crashed() {
            return Ok(primary);
        }
        for replica in self.state.replicas() {
            if !replica.station().is_crashed() {
                return Ok(replica);
            }
        }
        // Every replica is down: behave like the unreplicated store (the
        // primary's node buffers the entries until recovery).
        Ok(primary)
    }

    /// Fire-and-forget append to the current primary.
    pub fn append_async(&self, payloads: Vec<AppendPayload>) -> bool {
        match self.primary() {
            Ok(p) => p.append_async(payloads),
            Err(_) => false,
        }
    }

    /// Append through the current primary and wait for the assigned
    /// `(TOId, LId)` pairs. Acked only once a quorum of the group's live
    /// replicas holds the records durably.
    pub fn append(&self, payloads: Vec<AppendPayload>) -> Result<Vec<(TOId, LId)>> {
        self.primary()?.append(payloads)
    }

    /// Explicit-order append with a minimum bound, via the primary.
    pub fn append_min_bound(
        &self,
        payload: AppendPayload,
        min: LId,
    ) -> Result<Option<(TOId, LId)>> {
        self.primary()?.append_min_bound(payload, min)
    }

    /// Store pre-routed entries (Chariots queues stage) on the group.
    pub fn store(&self, entries: Vec<Entry>) -> bool {
        match self.live_for_store() {
            Ok(target) => target.store(entries),
            Err(_) => false,
        }
    }

    /// Read one position, falling back to backups if the primary's machine
    /// is unavailable.
    pub fn read(&self, lid: LId, enforce_hl: bool) -> Result<Entry> {
        let primary_index = self.state.primary_index();
        let mut last = ChariotsError::NoLivePrimary(self.id);
        let replicas = self.state.replicas();
        // Primary first, then the backups in seat order.
        let order = std::iter::once(primary_index)
            .chain((0..replicas.len()).filter(|&i| i != primary_index));
        for i in order {
            let Some(replica) = replicas.get(i) else {
                continue;
            };
            match replica.read(lid, enforce_hl) {
                Ok(entry) => return Ok(entry),
                // Keep falling back: the replica may be down (Unavailable)
                // or simply lagging (NotYetAvailable) while a later one —
                // e.g. a more caught-up backup — holds the entry.
                Err(e @ (ChariotsError::Unavailable(_) | ChariotsError::NotYetAvailable(_))) => {
                    last = e
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Read several positions in one round trip per replica, with the same
    /// per-position fallback semantics as [`read`](Self::read): positions a
    /// replica refuses as `Unavailable` or `NotYetAvailable` are retried
    /// against the backups in seat order, while every other outcome (the
    /// entry, `GarbageCollected`, `WrongMaintainer`, …) is final. Returns
    /// one result per requested position, in request order.
    pub fn read_batch(&self, lids: &[LId], enforce_hl: bool) -> Vec<Result<Entry>> {
        let mut results: Vec<Option<Result<Entry>>> = lids.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..lids.len()).collect();
        let mut last = ChariotsError::NoLivePrimary(self.id);
        let primary_index = self.state.primary_index();
        let replicas = self.state.replicas();
        // Primary first, then the backups in seat order.
        let order = std::iter::once(primary_index)
            .chain((0..replicas.len()).filter(|&i| i != primary_index));
        for i in order {
            if pending.is_empty() {
                break;
            }
            let Some(replica) = replicas.get(i) else {
                continue;
            };
            let batch: Vec<LId> = pending.iter().map(|&p| lids[p]).collect();
            match replica.read_batch(batch, enforce_hl) {
                Ok(batch_results) => {
                    let mut still = Vec::new();
                    for (&p, r) in pending.iter().zip(batch_results) {
                        match r {
                            // Keep falling back, exactly as the single-read
                            // path does: down (Unavailable) or lagging
                            // (NotYetAvailable) replicas may be covered by
                            // a later, more caught-up seat.
                            Err(
                                e @ (ChariotsError::Unavailable(_)
                                | ChariotsError::NotYetAvailable(_)),
                            ) => {
                                last = e;
                                still.push(p);
                            }
                            other => results[p] = Some(other),
                        }
                    }
                    pending = still;
                }
                // The node is gone entirely: like the single-read path,
                // a dead channel is final, not a fallback trigger.
                Err(e) => {
                    for p in pending.drain(..) {
                        results[p] = Some(Err(e.clone()));
                    }
                }
            }
        }
        for p in pending {
            results[p] = Some(Err(last.clone()));
        }
        results
            .into_iter()
            .map(|r| r.expect("every position resolved"))
            .collect()
    }

    /// Scan owned entries with `lid ≥ from`, behind the frontier they were
    /// scanned under (served by the primary).
    pub fn scan(&self, from: LId, max: usize) -> Result<(LId, Vec<Entry>)> {
        self.primary()?.scan(from, max)
    }

    /// The group's view of the Head of the Log (served by the primary).
    pub fn head_of_log(&self) -> Result<LId> {
        self.primary()?.head_of_log()
    }

    /// Live counters (served by the primary).
    pub fn stats(&self) -> Result<MaintainerStats> {
        self.primary()?.stats()
    }

    /// Injects gossip into every replica, so backups track the Head of the
    /// Log and can serve HL-gated reads during failover.
    pub fn gossip_in(&self, from: MaintainerId, frontier: LId) {
        for replica in self.state.replicas() {
            replica.gossip_in(from, frontier);
        }
    }

    /// Announces a future reassignment to every replica.
    pub fn announce_epoch(&self, start: LId, map: RangeMap) {
        for replica in self.state.replicas() {
            replica.announce_epoch(start, map);
        }
    }

    /// Requests garbage collection below `before` on every replica.
    pub fn gc(&self, before: LId) {
        for replica in self.state.replicas() {
            replica.gc(before);
        }
    }

    /// Crashes the current primary's machine (fault injection). Backups
    /// stay up; the failure detector notices and the controller fails over.
    pub fn crash(&self) {
        if let Some(primary) = self.state.primary_handle() {
            primary.crash();
        }
    }

    /// Recovers every crashed replica of the group.
    pub fn recover(&self) {
        for replica in self.state.replicas() {
            replica.recover();
        }
    }

    /// Total records appended+stored through the group (shared counter,
    /// incremented only by the acting primary — replication is not double
    /// counted).
    pub fn appended_counter(&self) -> Counter {
        self.appended.clone()
    }

    /// The station of the current primary's machine.
    pub fn station(&self) -> Arc<ServiceStation> {
        match self.state.primary_handle() {
            Some(primary) => primary.station(),
            // No endpoints registered yet: a parked station that never
            // serves. Deployments always register before exposing handles.
            None => Arc::new(ServiceStation::new(
                format!("{}-unwired", self.id),
                chariots_simnet::StationConfig::uncapped(),
            )),
        }
    }
}

/// One failover sweep: for every group whose primary the detector
/// suspects, promote the most caught-up live backup through the group
/// state and count the event. Returns how many promotions happened.
///
/// The decision inputs are per-replica: a candidate must be unsuspected,
/// its machine must be up, and among such candidates the one with the
/// highest **durable watermark** wins — the commit tracker's record of the
/// highest contiguous frontier that seat has fsynced (falling back to the
/// seat's self-reported durable frontier). A batch is only
/// promised to survive on seats that reported it durable, so promoting by
/// volatile frontier could seat a primary missing acked records.
///
/// Each promotion publishes a [`EventKind::FailoverStart`] /
/// [`EventKind::FailoverEnd`] pair plus a [`EventKind::Fencing`] event
/// into `journal`. The reported promotion latency is how long the group
/// ran without an acting primary: the time from the silent primary
/// crossing the suspicion threshold to the promotion landing.
pub fn run_failover(
    groups: &[ReplicaGroupHandle],
    detector: &FailureDetector,
    failovers: &Counter,
    journal: &EventJournal,
) -> usize {
    let mut promoted = 0;
    for group in groups {
        let state = group.state();
        let replicas = state.replicas();
        if replicas.len() < 2 {
            continue;
        }
        let primary_index = state.primary_index();
        let key = replica_key(group.id, primary_index);
        if !detector.is_suspected(&key) {
            continue;
        }
        let mut best: Option<(usize, LId)> = None;
        for (i, replica) in replicas.iter().enumerate() {
            if i == primary_index
                || replica.station().is_crashed()
                || detector.is_suspected(&replica_key(group.id, i))
            {
                continue;
            }
            // Promote by durable watermark, not the volatile frontier: a
            // backup may have applied entries whose fsync failed, and a
            // batch is only promised to survive on seats that reported it
            // durable.
            let watermark = state.commit().durable_frontier(i).unwrap_or(LId::ZERO).max(
                replica
                    .stats()
                    .map(|s| s.durable_frontier)
                    .unwrap_or(LId::ZERO),
            );
            if best.is_none_or(|(_, f)| watermark > f) {
                best = Some((i, watermark));
            }
        }
        if let Some((index, _)) = best {
            let source = format!("flstore.{}", group.id);
            let gid = group.id.0 as u64;
            journal.publish(&source, None, EventKind::FailoverStart { group: gid });
            let generation = state.promote(index);
            let latency = detector
                .last_heartbeat_age(&key)
                .map(|age| age.saturating_sub(detector.suspicion_timeout()))
                .unwrap_or_default();
            journal.publish(
                &source,
                None,
                EventKind::FailoverEnd {
                    group: gid,
                    new_primary: index as u64,
                    promotion_latency_us: latency.as_micros() as u64,
                },
            );
            journal.publish(
                &source,
                None,
                EventKind::Fencing {
                    group: gid,
                    generation: generation.as_u64(),
                },
            );
            failovers.add(1);
            promoted += 1;
        }
    }
    promoted
}

/// One anti-entropy sweep: for every group, copy the missing suffix from
/// the authoritative live replica into every lagging live replica (in
/// `batch`-entry chunks), and report the worst observed lag — in log
/// positions — through the `lag` gauge. This is both how a restarted
/// replica catches up after WAL replay and how a primary that missed
/// stores during a brief outage is made whole again.
///
/// The source is the *current primary* whenever its machine is live — a
/// recovered deposed primary may hold a longer local log whose tail was
/// never acked (fenced mid-flight), and picking it by frontier alone would
/// resurrect those stale entries over the new primary's assignments. Only
/// when the primary's machine is down does the sweep fall back to the
/// highest live frontier.
pub fn run_repair(groups: &[ReplicaGroupHandle], batch: usize, lag: &Gauge) {
    let mut worst_lag = 0u64;
    for group in groups {
        let state = group.state();
        let replicas = state.replicas();
        if replicas.len() < 2 {
            continue;
        }
        let mut frontiers: Vec<(usize, LId)> = Vec::new();
        for (i, replica) in replicas.iter().enumerate() {
            if replica.station().is_crashed() {
                continue;
            }
            if let Ok(stats) = replica.stats() {
                frontiers.push((i, stats.frontier));
            }
        }
        let primary_index = state.primary_index();
        let Some(&(source, top)) = frontiers
            .iter()
            .find(|&&(i, _)| i == primary_index)
            .or_else(|| frontiers.iter().max_by_key(|&&(_, f)| f))
        else {
            continue;
        };
        let generation = state.generation();
        for &(i, frontier) in &frontiers {
            if i == source || frontier >= top {
                continue;
            }
            worst_lag = worst_lag.max(top.0 - frontier.0);
            if let Ok((_, missing)) = replicas[source].scan(frontier, batch) {
                if !missing.is_empty() {
                    let _ = replicas[i].replicate(missing.into(), generation);
                }
            }
        }
    }
    lag.set(worst_lag as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochJournal;
    use crate::maintainer::MaintainerCore;
    use crate::node::{spawn_replica, BatchPolicy, Fabric};
    use bytes::Bytes;
    use chariots_simnet::{Shutdown, StationConfig};
    use chariots_types::{DatacenterId, TagSet};

    fn payload(s: &str) -> AppendPayload {
        AppendPayload::new(TagSet::new(), Bytes::copy_from_slice(s.as_bytes()))
    }

    /// Spawns one replicated group of `n` replicas over a single-maintainer
    /// striping and returns (handle, shutdown, threads).
    fn launch_group(
        n: usize,
    ) -> (
        ReplicaGroupHandle,
        Shutdown,
        Vec<std::thread::JoinHandle<MaintainerCore>>,
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
            };
            let (h, t) = spawn_replica(
                core,
                station,
                fabric.clone(),
                Duration::from_millis(1),
                shutdown.clone(),
                ctx,
                appended.clone(),
                BatchPolicy::default(),
            );
            raw.push(h);
            threads.push(t);
        }
        state.set_replicas(raw);
        let group = ReplicaGroupHandle::new(MaintainerId(0), state, appended);
        fabric.set_peers(vec![group.clone()]);
        (group, shutdown, threads)
    }

    #[test]
    fn appends_reach_every_replica_before_ack() {
        let (group, shutdown, threads) = launch_group(2);
        let ids = group.append(vec![payload("a"), payload("b")]).unwrap();
        assert_eq!(ids.len(), 2);
        // Synchronous replication: by ack time both replicas hold both
        // entries — no sleeping, no retries.
        for replica in group.replicas() {
            for (_, lid) in &ids {
                let e = replica.read(*lid, false).unwrap();
                assert_eq!(e.lid, *lid);
            }
        }
        assert_eq!(
            group.appended_counter().get(),
            2,
            "counted once, not per replica"
        );
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn promotion_bumps_generation_and_fences_the_old_one() {
        let (group, shutdown, threads) = launch_group(2);
        group.append(vec![payload("a")]).unwrap();
        let old_gen = group.generation();
        let new_gen = group.state().promote(1);
        assert_eq!(new_gen, old_gen.next());
        // A replicate stamped with the stale generation is fenced.
        let entry = group.replicas()[1].read(LId(0), false).unwrap();
        let err = group.replicas()[0]
            .replicate(vec![entry].into(), old_gen)
            .unwrap_err();
        assert!(matches!(err, ChariotsError::Fenced { .. }), "got {err:?}");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn promoted_backup_serves_appends_after_primary_crash() {
        let (group, shutdown, threads) = launch_group(2);
        let before = group.append(vec![payload("a"), payload("b")]).unwrap();
        assert_eq!(before.len(), 2);
        // Kill the primary's machine and promote the backup, as the
        // controller's failover would.
        group.crash();
        group.state().promote(1);
        // The group keeps accepting appends, resuming after the replicated
        // suffix instead of re-assigning positions.
        let after = group.append(vec![payload("c")]).unwrap();
        assert_eq!(
            after[0].1,
            LId(2),
            "assignment resumed past replicated entries"
        );
        let e = group.read(LId(2), false).unwrap();
        assert_eq!(&e.record.body[..], b"c");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn run_failover_promotes_most_caught_up_backup() {
        let (group, shutdown, threads) = launch_group(3);
        group.append(vec![payload("a"), payload("b")]).unwrap();
        let detector = FailureDetector::new(Duration::from_millis(20));
        // Heartbeat the backups so only the primary is suspected; never
        // beat the primary's key.
        detector.register(&replica_key(MaintainerId(0), 0));
        group.crash();
        let failovers = Counter::new();
        let journal = EventJournal::default();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            detector.heartbeat(&replica_key(MaintainerId(0), 1));
            detector.heartbeat(&replica_key(MaintainerId(0), 2));
            let groups = [group.clone()];
            if run_failover(&groups, &detector, &failovers, &journal) > 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never promoted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_ne!(group.state().primary_index(), 0);
        assert_eq!(failovers.get(), 1);
        assert_eq!(group.generation(), Generation(1));
        // The promotion left its structured trail: start, end (with the
        // promotion latency), and the fencing bump.
        let events = journal.recent(8);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FailoverStart { group: 0 })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::FailoverEnd {
                group: 0,
                new_primary: _,
                promotion_latency_us: _,
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Fencing {
                group: 0,
                generation: 1,
            }
        )));
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn repair_sources_from_the_primary_not_a_longer_deposed_log() {
        let (group, shutdown, threads) = launch_group(2);
        // a, b reach both replicas; c, d only the primary (backup down).
        group.append(vec![payload("a"), payload("b")]).unwrap();
        group.replicas()[1].crash();
        group.append(vec![payload("c"), payload("d")]).unwrap();
        // Fail over to the backup: the deposed replica now holds a longer
        // local log (frontier 4) than the new primary (frontier 2), but
        // its tail was never replicated under the current generation.
        group.replicas()[1].recover();
        group.state().promote(1);
        let lag = Gauge::new();
        let groups = [group.clone()];
        run_repair(&groups, 64, &lag);
        // The stale tail is NOT resurrected onto the new primary: repair
        // sources from the current primary, not the highest frontier.
        assert!(matches!(
            group.replicas()[1].read(LId(2), false),
            Err(ChariotsError::NotYetAvailable(_))
        ));
        // The new primary reassigns position 2; replication overwrites the
        // deposed replica's stale copy.
        let after = group.append(vec![payload("e")]).unwrap();
        assert_eq!(after[0].1, LId(2));
        let stale = group.replicas()[0].read(LId(2), false).unwrap();
        assert_eq!(&stale.record.body[..], b"e", "stale copy overwritten");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn read_falls_back_past_a_lagging_primary() {
        let (group, shutdown, threads) = launch_group(2);
        // The backup misses position 0 (down during the append), then
        // comes back and is promoted before catching up.
        group.replicas()[1].crash();
        group.append(vec![payload("a")]).unwrap();
        group.replicas()[1].recover();
        group.state().promote(1);
        // The lagging new primary answers NotYetAvailable; the group read
        // falls back to the caught-up replica instead of surfacing it.
        let e = group.read(LId(0), false).unwrap();
        assert_eq!(&e.record.body[..], b"a");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn run_repair_catches_a_lagging_replica_up() {
        let (group, shutdown, threads) = launch_group(2);
        // Lag the backup: crash it, append through the primary (which
        // skips crashed backups), then bring it back empty-handed.
        group.replicas()[1].crash();
        group
            .append(vec![payload("a"), payload("b"), payload("c")])
            .unwrap();
        group.replicas()[1].recover();
        let lag = Gauge::new();
        let groups = [group.clone()];
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            run_repair(&groups, 64, &lag);
            let f = group.replicas()[1].stats().unwrap().frontier;
            if f >= LId(3) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "backup never caught up"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let e = group.replicas()[1].read(LId(2), false).unwrap();
        assert_eq!(&e.record.body[..], b"c");
        shutdown.signal();
        for t in threads {
            t.join().unwrap();
        }
    }
}
