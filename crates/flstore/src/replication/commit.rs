//! Quorum commit tracking (the f+1 durable-copies rule).
//!
//! The acting primary does not serialize `fsync → replicate → ack`. It
//! ships the batch's shared `Arc<[Entry]>` to every live backup *first*,
//! pays its own WAL fsync while those RPCs are in flight, and acks the
//! batch as soon as **f+1 replicas report the entries durable** — whichever
//! combination of {primary fsync, backup fsync acks} gets there first. With
//! no live backup the primary is a quorum of one and its own fsync report
//! resolves the batch. The [`CommitTracker`] is the per-group ledger making
//! that possible: it holds each in-flight batch's waiters, counts durable
//! acks against the quorum, and maintains the per-replica **durable
//! watermark** failover promotes by.
//!
//! The tracker is deliberately a plain data structure: it never talks to
//! the network and never re-checks fencing itself. Its owner —
//! [`GroupState`](crate::replication::GroupState) — wraps every mutation,
//! performs the post-quorum generation re-check, and runs batch completion
//! outside the tracker lock.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use chariots_simnet::{Notify, ReplyTo};
use chariots_types::{ChariotsError, Entry, Generation, LId, MaintainerId, Result, TOId, TraceId};
use parking_lot::Mutex;

use crate::node::{collect_tag_postings, AppendReplySender, Fabric};
use chariots_simnet::Counter;

/// Upper bound on batches a primary may have in flight awaiting quorum.
/// Past it, `serve_batch` blocks until a resolution frees a slot — simple
/// backpressure so a slow backup cannot let the tracker grow without
/// bound.
pub(crate) const MAX_PENDING_COMMITS: usize = 64;

/// The durable acks a batch needs before it may be acked to the client:
/// a majority of the group (`f + 1` of `2f + 1`, and both copies at
/// `rf = 2`), capped at the replicas actually participating — crashed
/// backups are skipped at send time, so a degraded group still commits on
/// what is live, down to the primary alone.
pub(crate) fn quorum_required(replica_count: usize, participants: usize) -> usize {
    (replica_count / 2 + 1).min(participants).max(1)
}

/// One request's stake in a pending batch, parked until the batch resolves.
pub(crate) enum CommitWaiter {
    /// A post-assigned append: the ids to ack on success.
    Append {
        /// Assigned `(TOId, LId)` pairs, in request order.
        ids: Vec<(TOId, LId)>,
        /// Closed-loop reply channel, if anyone is waiting.
        reply: Option<AppendReplySender>,
    },
    /// An append that failed on its own during the apply pass. It always
    /// receives its *own* error, whatever the batch outcome.
    FailedAppend {
        /// The item's own application error.
        err: ChariotsError,
        /// Closed-loop reply channel, if anyone is waiting.
        reply: Option<AppendReplySender>,
    },
    /// Pre-routed entries from the queues stage: counted on success,
    /// parked as orphans for re-replication on failure (their positions
    /// are committed upstream and must not be lost).
    Store {
        /// The stored entries.
        entries: Vec<Entry>,
    },
    /// An explicit-order (min-bound) append.
    MinBound {
        /// The assigned id, if the append was not parked.
        id: Option<(TOId, LId)>,
        /// Reply slot (survives a TCP hop as a dial-back token).
        reply: ReplyTo<Result<Option<(TOId, LId)>>>,
    },
}

/// Everything batch completion needs outside the tracker: instruments,
/// counters, and the batch's observability facts. Captured at registration
/// so completion can run on whichever replica's thread reaches quorum.
pub(crate) struct CommitOutcomeCtx {
    /// Deployment fabric (metrics, tag postings, trace stamps).
    pub fabric: Fabric,
    /// Group-level appended counter (bumped only on successful commit).
    pub appended: Counter,
    /// Records in the batch (0 skips batch-size metrics).
    pub total_records: u64,
    /// Summed record-body bytes in the batch.
    pub total_bytes: u64,
    /// Whether the batch carried appends (append-latency histogram).
    pub had_appends: bool,
    /// Whether the batch carried stores (store-latency histogram).
    pub had_stores: bool,
    /// Whether to record commit-path metrics (off for background flushes
    /// and re-homed stores, which would pollute the ack-path numbers).
    pub measured: bool,
    /// When the batch's service began (append/store latency baseline).
    pub started: Instant,
}

impl CommitOutcomeCtx {
    /// The context of a commit with no batch-level facts to report (no
    /// batch-size or append/store latency samples), starting now. A served
    /// batch fills those in on top.
    pub(crate) fn new(fabric: &Fabric, appended: &Counter, measured: bool) -> Self {
        CommitOutcomeCtx {
            fabric: fabric.clone(),
            appended: appended.clone(),
            total_records: 0,
            total_bytes: 0,
            had_appends: false,
            had_stores: false,
            measured,
            started: Instant::now(),
        }
    }
}

/// One batch in flight: who must ack, who has, and everything needed to
/// finish it.
pub(crate) struct PendingCommit {
    /// Tracker-assigned sequence number (the ack correlation key).
    pub seq: u64,
    /// Generation the batch was admitted under.
    pub generation: Generation,
    /// Seat index of the registering primary.
    pub primary: usize,
    /// Bitmask of participating replica seats ({primary} ∪ live backups).
    participants: u64,
    /// Bitmask of seats that reported the batch durable.
    acked: u64,
    /// Bitmask of seats that failed (send error, fencing, sync failure).
    failed: u64,
    /// Durable acks required to resolve.
    required: usize,
    /// The batch's shared entries (tag postings + trace stamps on success).
    share: Arc<[Entry]>,
    /// Parked request stakes.
    waiters: Vec<CommitWaiter>,
    /// Drained min-bound entries riding the batch (counted as dropped on
    /// failure — they were acked as *parked*, not committed).
    drained_records: u64,
    /// Completion context.
    ctx: CommitOutcomeCtx,
    /// When the batch entered the tracker (quorum-latency baseline).
    registered: Instant,
    /// When the primary reported its own fsync durable, if it has.
    primary_reported: Option<Instant>,
    /// The primary's fsync duration in µs (overlap accounting).
    primary_fsync_us: u64,
    /// Why the primary's own durability point failed, if it did: when that
    /// is what loses the quorum, the waiters see this error.
    primary_failure: Option<ChariotsError>,
}

impl PendingCommit {
    /// A batch admitted under `generation` by the primary at seat
    /// `primary`, so far a quorum of one: the primary is its only
    /// participant. [`CommitTracker::register`] assigns the sequence number.
    pub(crate) fn new(
        generation: Generation,
        primary: usize,
        share: Arc<[Entry]>,
        waiters: Vec<CommitWaiter>,
        drained_records: u64,
        ctx: CommitOutcomeCtx,
    ) -> Self {
        PendingCommit {
            seq: 0,
            generation,
            primary,
            participants: 1u64 << primary,
            acked: 0,
            failed: 0,
            required: 1,
            share,
            waiters,
            drained_records,
            ctx,
            registered: Instant::now(),
            primary_reported: None,
            primary_fsync_us: 0,
            primary_failure: None,
        }
    }

    /// Adds the live backups at `seats` to the participants and sets the
    /// quorum for a group of `replica_count` replicas.
    pub(crate) fn enroll_backups(
        &mut self,
        seats: impl Iterator<Item = usize>,
        replica_count: usize,
    ) {
        for seat in seats {
            self.participants |= 1u64 << seat;
        }
        self.required = quorum_required(replica_count, self.participants.count_ones() as usize);
    }

    /// Completes the batch: metrics, tag postings, reply fan-out. Returns
    /// orphaned `Store` entries the caller must park for re-replication.
    /// Runs on whichever thread resolved the quorum — never under the
    /// tracker lock.
    pub(crate) fn complete(self, outcome: Result<()>) -> Vec<Entry> {
        let PendingCommit {
            primary,
            participants,
            share,
            waiters,
            drained_records,
            ctx,
            registered,
            primary_reported,
            primary_fsync_us,
            ..
        } = self;
        let obs = ctx.fabric.obs();
        match outcome {
            Ok(()) => {
                let elapsed = ctx.started.elapsed();
                if ctx.total_records > 0 {
                    obs.batch_size.record(ctx.total_records);
                    obs.batch_bytes.record(ctx.total_bytes);
                }
                if ctx.had_appends {
                    obs.append_latency.record_duration(elapsed);
                }
                if ctx.had_stores {
                    obs.store_latency.record_duration(elapsed);
                }
                // An empty share (every item failed on its own) paid no
                // durability point: there is no commit to measure.
                if ctx.measured && !share.is_empty() {
                    let quorum_us = registered.elapsed().as_micros() as u64;
                    obs.commit_quorum_latency.record(quorum_us);
                    // With no backup participating nothing was waited for
                    // or overlapped; the two samples below would be noise.
                    if participants & !(1u64 << primary) != 0 {
                        // Time spent waiting on backups *after* the
                        // primary's own durability point — the exposed,
                        // un-overlapped part of the replication leg.
                        let repl_wait_us = primary_reported
                            .map(|t| t.elapsed().as_micros() as u64)
                            .unwrap_or(0);
                        obs.commit_repl_wait.record(repl_wait_us);
                        // What the overlap bought over paying fsync and
                        // backup wait back to back.
                        let saved = if primary_reported.is_some() {
                            primary_fsync_us
                        } else {
                            // Quorum reached before the primary's fsync
                            // even returned: the whole wait was hidden.
                            quorum_us
                        };
                        obs.commit_overlap_saved.add(saved);
                    }
                }
                let traced: Vec<TraceId> = share.iter().filter_map(|e| e.record.trace).collect();
                ctx.fabric.stamp_store_exits(&traced);
                ctx.fabric.post_tags(collect_tag_postings(&share));
                // Count everything before any reply goes out: a client
                // that observes its ack must also observe the counter.
                let counted: u64 = waiters
                    .iter()
                    .map(|w| match w {
                        CommitWaiter::Append { ids, .. } => ids.len() as u64,
                        CommitWaiter::FailedAppend { .. } => 0,
                        CommitWaiter::Store { entries } => entries.len() as u64,
                        CommitWaiter::MinBound { id, .. } => u64::from(id.is_some()),
                    })
                    .sum();
                ctx.appended.add(counted);
                for waiter in waiters {
                    match waiter {
                        CommitWaiter::Append { ids, reply } => {
                            if let Some(reply) = reply {
                                let _ = reply.send(Ok(ids));
                            }
                        }
                        CommitWaiter::FailedAppend { err, reply } => {
                            if let Some(reply) = reply {
                                let _ = reply.send(Err(err));
                            }
                        }
                        CommitWaiter::Store { .. } => {}
                        CommitWaiter::MinBound { id, reply } => {
                            let _ = reply.send(Ok(id));
                        }
                    }
                }
                Vec::new()
            }
            Err(e) => {
                let mut orphans = Vec::new();
                for waiter in waiters {
                    match waiter {
                        // No partial acks: every append waiter sees the
                        // batch failure, whatever its own item did.
                        CommitWaiter::Append { reply, .. } => {
                            if let Some(reply) = reply {
                                let _ = reply.send(Err(e.clone()));
                            }
                        }
                        CommitWaiter::FailedAppend { err, reply } => {
                            if let Some(reply) = reply {
                                let _ = reply.send(Err(err));
                            }
                        }
                        CommitWaiter::Store { entries } => orphans.extend(entries),
                        CommitWaiter::MinBound { reply, .. } => {
                            let _ = reply.send(Err(e.clone()));
                        }
                    }
                }
                obs.replication_dropped.add(drained_records);
                orphans
            }
        }
    }
}

/// What one seat says about a batch it participates in.
pub(crate) enum SeatReport {
    /// A backup fsynced the batch.
    Durable,
    /// The primary's own fsync completed, taking `fsync_us` (the overlap
    /// accounting's input).
    PrimaryDurable {
        /// The fsync's duration in µs.
        fsync_us: u64,
    },
    /// The seat does not hold the batch durably and will not: a send
    /// error, fencing, or a failed sync, which is the cause it hands over.
    Failed(ChariotsError),
}

/// A batch plucked out of the tracker with its decided outcome, awaiting
/// completion by the tracker's owner (who re-checks fencing first).
pub(crate) struct ResolvedCommit {
    /// The batch.
    pub batch: PendingCommit,
    /// The tracker's verdict (quorum reached / quorum lost / aborted).
    pub outcome: Result<()>,
}

#[derive(Default)]
struct Inner {
    next_seq: u64,
    pending: VecDeque<PendingCommit>,
    /// Per-replica durable watermarks: the highest contiguous frontier each
    /// seat has reported fsynced. Failover promotes the live seat with the
    /// highest watermark.
    durable: Vec<LId>,
    /// Store entries from failed batches, awaiting re-homing by the next
    /// replica loop turn (completion may run on any replica's thread, so
    /// they wait here, where every loop can reach them).
    orphans: Vec<Entry>,
}

/// Per-group ledger of in-flight commits and per-replica durable
/// watermarks. See the module docs for the protocol; see
/// [`GroupState`](crate::replication::GroupState) for the wrapper methods
/// that drive it.
pub struct CommitTracker {
    inner: Mutex<Inner>,
    group: MaintainerId,
    /// Signalled whenever a batch leaves the tracker (backpressure wakeup).
    resolved: Notify,
}

impl std::fmt::Debug for CommitTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CommitTracker")
            .field("group", &self.group)
            .field("pending", &inner.pending.len())
            .field("durable", &inner.durable)
            .finish()
    }
}

impl CommitTracker {
    /// An empty tracker for `group`.
    pub fn new(group: MaintainerId) -> Self {
        CommitTracker {
            inner: Mutex::new(Inner::default()),
            group,
            resolved: Notify::new(),
        }
    }

    /// A wakeup handle signalled on every resolution (each clone has its
    /// own cursor; see [`Notify`]).
    pub fn subscribe(&self) -> Notify {
        self.resolved.clone()
    }

    /// Batches currently awaiting quorum.
    pub fn pending(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Raises replica `replica`'s durable watermark to `frontier` (never
    /// lowers it — watermarks are monotone).
    pub fn note_durable(&self, replica: usize, frontier: LId) {
        let mut inner = self.inner.lock();
        if inner.durable.len() <= replica {
            inner.durable.resize(replica + 1, LId::ZERO);
        }
        if frontier > inner.durable[replica] {
            inner.durable[replica] = frontier;
        }
    }

    /// Replica `replica`'s durable watermark, if it has ever reported one.
    pub fn durable_frontier(&self, replica: usize) -> Option<LId> {
        self.inner.lock().durable.get(replica).copied()
    }

    /// Registers a batch awaiting its quorum of durable acks. Returns the
    /// batch's sequence number — the correlation key every ack must carry.
    pub(crate) fn register(&self, mut batch: PendingCommit) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        batch.seq = seq;
        inner.pending.push_back(batch);
        seq
    }

    /// Records seat `replica`'s report for batch `seq` and returns the
    /// batch if that decided it: a durable ack completing the quorum
    /// resolves it `Ok`; a failure leaving too few live participants to
    /// reach quorum resolves it with the primary's own error when the
    /// primary's durability point is among the failures (on a quorum of one
    /// it always is), with [`ChariotsError::QuorumLost`] otherwise. Reports
    /// for unknown sequence numbers (already resolved, fenced, or aborted)
    /// and from seats not enrolled are ignored.
    pub(crate) fn report(
        &self,
        replica: usize,
        seq: u64,
        report: SeatReport,
    ) -> Option<ResolvedCommit> {
        let resolved = {
            let mut inner = self.inner.lock();
            let pos = inner.pending.iter().position(|b| b.seq == seq)?;
            let batch = &mut inner.pending[pos];
            let bit = 1u64 << replica;
            if batch.participants & bit == 0 {
                return None;
            }
            match report {
                SeatReport::Durable => batch.acked |= bit,
                SeatReport::PrimaryDurable { fsync_us } => {
                    batch.acked |= bit;
                    batch.primary_reported = Some(Instant::now());
                    batch.primary_fsync_us = fsync_us;
                }
                SeatReport::Failed(cause) => {
                    batch.failed |= bit;
                    if replica == batch.primary {
                        batch.primary_failure = Some(cause);
                    }
                }
            }
            let durable = batch.acked.count_ones() as usize;
            let reachable = (batch.participants & !batch.failed).count_ones() as usize;
            if durable < batch.required && reachable >= batch.required {
                return None;
            }
            let mut batch = inner.pending.remove(pos).expect("position just found");
            let outcome = if durable >= batch.required {
                Ok(())
            } else {
                Err(batch
                    .primary_failure
                    .take()
                    .unwrap_or(ChariotsError::QuorumLost {
                        group: self.group,
                        required: batch.required,
                        durable,
                    }))
            };
            ResolvedCommit { batch, outcome }
        };
        self.resolved.notify();
        Some(resolved)
    }

    /// Fails every pending batch registered under a generation older than
    /// `current` (a promotion landed; the deposed primary must not ack).
    pub(crate) fn fence(&self, current: Generation) -> Vec<ResolvedCommit> {
        let fenced: Vec<PendingCommit> = {
            let mut inner = self.inner.lock();
            let (stale, live): (Vec<_>, Vec<_>) = inner
                .pending
                .drain(..)
                .partition(|b| b.generation < current);
            inner.pending = live.into();
            stale
        };
        if fenced.is_empty() {
            return Vec::new();
        }
        self.resolved.notify();
        let group = self.group;
        fenced
            .into_iter()
            .map(|batch| {
                let sent = batch.generation;
                ResolvedCommit {
                    batch,
                    outcome: Err(ChariotsError::Fenced {
                        group,
                        sent,
                        current,
                    }),
                }
            })
            .collect()
    }

    /// Fails every pending batch with `err` (shutdown: nobody is left to
    /// ack, so waiters must not hang).
    pub(crate) fn abort(&self, err: ChariotsError) -> Vec<ResolvedCommit> {
        let drained: Vec<PendingCommit> = {
            let mut inner = self.inner.lock();
            inner.pending.drain(..).collect()
        };
        if drained.is_empty() {
            return Vec::new();
        }
        self.resolved.notify();
        drained
            .into_iter()
            .map(|batch| ResolvedCommit {
                batch,
                outcome: Err(err.clone()),
            })
            .collect()
    }

    /// Parks orphaned store entries — from a failed batch, or ones a
    /// replica loop took and could not place — for the next loop turn of a
    /// live replica to re-home.
    pub(crate) fn park_orphans(&self, entries: Vec<Entry>) {
        self.inner.lock().orphans.extend(entries);
    }

    /// Takes every parked orphan (the replica loops re-home them).
    pub fn take_orphans(&self) -> Vec<Entry> {
        std::mem::take(&mut self.inner.lock().orphans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measured one-append batch context on a fresh fabric.
    fn outcome_ctx() -> CommitOutcomeCtx {
        CommitOutcomeCtx {
            total_records: 1,
            total_bytes: 8,
            had_appends: true,
            ..CommitOutcomeCtx::new(&Fabric::new(), &Counter::new(), true)
        }
    }

    /// A waiter-less batch from seat 0 under `generation`, with the seats in
    /// `backups` enrolled, in a group of `replica_count`.
    fn batch(generation: Generation, backups: &[usize], replica_count: usize) -> PendingCommit {
        let mut batch = PendingCommit::new(
            generation,
            0,
            Vec::new().into(),
            Vec::new(),
            0,
            outcome_ctx(),
        );
        batch.enroll_backups(backups.iter().copied(), replica_count);
        batch
    }

    fn register(tracker: &CommitTracker, backups: &[usize], replica_count: usize) -> u64 {
        tracker.register(batch(Generation::INITIAL, backups, replica_count))
    }

    fn failed() -> SeatReport {
        SeatReport::Failed(ChariotsError::Storage("disk".into()))
    }

    #[test]
    fn quorum_rule_matches_f_plus_one() {
        assert_eq!(quorum_required(1, 1), 1);
        assert_eq!(quorum_required(2, 2), 2);
        assert_eq!(quorum_required(3, 3), 2);
        assert_eq!(quorum_required(5, 5), 3);
        // Crashed backups shrink the participant set, never below one.
        assert_eq!(quorum_required(3, 1), 1);
        assert_eq!(quorum_required(2, 1), 1);
    }

    #[test]
    fn resolves_exactly_at_quorum() {
        let tracker = CommitTracker::new(MaintainerId(0));
        let seq = register(&tracker, &[1, 2], 3);
        assert!(
            tracker.report(1, seq, SeatReport::Durable).is_none(),
            "1 of 2"
        );
        let resolved = tracker
            .report(2, seq, SeatReport::Durable)
            .expect("2 of 2 resolves");
        assert!(resolved.outcome.is_ok());
        assert_eq!(tracker.pending(), 0);
        // A late ack for a resolved batch is ignored.
        let late = SeatReport::PrimaryDurable { fsync_us: 1 };
        assert!(tracker.report(0, seq, late).is_none());
    }

    #[test]
    fn a_lone_primary_is_a_quorum_of_one() {
        let tracker = CommitTracker::new(MaintainerId(0));
        // rf = 2 with the backup down, and a solo group: either way the
        // primary's own durability report is the whole quorum.
        for replica_count in [2, 1] {
            let seq = register(&tracker, &[], replica_count);
            let report = SeatReport::PrimaryDurable { fsync_us: 7 };
            let resolved = tracker.report(0, seq, report).expect("resolves inline");
            assert!(resolved.outcome.is_ok());
            assert_eq!(tracker.pending(), 0);
        }
    }

    #[test]
    fn quorum_lost_when_too_many_backups_fail() {
        let tracker = CommitTracker::new(MaintainerId(3));
        let seq = register(&tracker, &[1, 2], 3);
        assert!(
            tracker.report(1, seq, failed()).is_none(),
            "still reachable"
        );
        let resolved = tracker.report(2, seq, failed()).expect("unreachable now");
        // Backups' causes are replication shortfalls: the verdict counts
        // copies instead of naming one of them.
        assert!(matches!(
            resolved.outcome,
            Err(ChariotsError::QuorumLost {
                group: MaintainerId(3),
                required: 2,
                durable: 0,
            })
        ));
    }

    /// When the primary's own durability point is what loses the quorum,
    /// the waiters see that error — `QuorumLost` reads as transient to
    /// clients, which would re-append records already applied here.
    #[test]
    fn a_failed_primary_fsync_surfaces_its_own_error() {
        let tracker = CommitTracker::new(MaintainerId(0));
        // A quorum of one, rf = 2 (both copies needed), and rf = 3 where the
        // primary's failure is the second one.
        let solo = register(&tracker, &[], 1);
        let pair = register(&tracker, &[1], 2);
        let trio = register(&tracker, &[1, 2], 3);
        assert!(tracker.report(2, trio, failed()).is_none());
        for seq in [solo, pair, trio] {
            let cause = SeatReport::Failed(ChariotsError::Storage("fsync: EIO".into()));
            let resolved = tracker.report(0, seq, cause).expect("quorum out of reach");
            assert_eq!(
                resolved.outcome,
                Err(ChariotsError::Storage("fsync: EIO".into()))
            );
        }
        assert_eq!(tracker.pending(), 0);
    }

    #[test]
    fn ack_then_failures_still_commits_at_quorum() {
        let tracker = CommitTracker::new(MaintainerId(0));
        let seq = register(&tracker, &[1, 2], 3);
        let primary = SeatReport::PrimaryDurable { fsync_us: 1 };
        assert!(tracker.report(0, seq, primary).is_none());
        assert!(
            tracker.report(2, seq, failed()).is_none(),
            "2 seats left ≥ 2"
        );
        let resolved = tracker.report(1, seq, SeatReport::Durable).expect("quorum");
        assert!(resolved.outcome.is_ok());
    }

    #[test]
    fn fence_fails_only_older_generations() {
        let tracker = CommitTracker::new(MaintainerId(0));
        let old = register(&tracker, &[1], 2);
        let next = Generation::INITIAL.next();
        let kept = tracker.register(batch(next, &[1], 2));
        let fenced = tracker.fence(next);
        assert_eq!(fenced.len(), 1);
        assert_eq!(fenced[0].batch.seq, old);
        assert!(matches!(
            fenced[0].outcome,
            Err(ChariotsError::Fenced { .. })
        ));
        assert_eq!(tracker.pending(), 1);
        assert!(tracker.report(1, kept, SeatReport::Durable).is_none());
    }

    #[test]
    fn watermarks_are_monotone_per_replica() {
        let tracker = CommitTracker::new(MaintainerId(0));
        assert_eq!(tracker.durable_frontier(0), None);
        tracker.note_durable(0, LId(5));
        tracker.note_durable(2, LId(3));
        tracker.note_durable(0, LId(2)); // never lowers
        assert_eq!(tracker.durable_frontier(0), Some(LId(5)));
        assert_eq!(tracker.durable_frontier(1), Some(LId::ZERO));
        assert_eq!(tracker.durable_frontier(2), Some(LId(3)));
    }

    #[test]
    fn abort_drains_everything_and_notifies() {
        let tracker = CommitTracker::new(MaintainerId(0));
        let mut wakeup = tracker.subscribe();
        register(&tracker, &[1], 2);
        register(&tracker, &[1], 2);
        let aborted = tracker.abort(ChariotsError::ShutDown);
        assert_eq!(aborted.len(), 2);
        assert_eq!(tracker.pending(), 0);
        assert!(wakeup.try_consume(), "resolution signalled");
    }

    #[test]
    fn acks_from_non_participants_are_ignored() {
        let tracker = CommitTracker::new(MaintainerId(0));
        let seq = register(&tracker, &[1], 3);
        assert!(
            tracker.report(2, seq, SeatReport::Durable).is_none(),
            "seat 2 not enrolled"
        );
        let primary = SeatReport::PrimaryDurable { fsync_us: 1 };
        assert!(tracker.report(0, seq, primary).is_none());
        assert!(tracker.report(1, seq, SeatReport::Durable).is_some());
    }

    /// The catalog's meaning of the commit metrics: every measured commit
    /// has a quorum latency, but only one a backup took part in waited on
    /// replication or overlapped anything with it.
    #[test]
    fn replication_metrics_need_a_backup() {
        let fabric = Fabric::new();
        let ctx = || CommitOutcomeCtx::new(&fabric, &Counter::new(), true);
        let share: Arc<[Entry]> = vec![Entry::new(
            LId(0),
            chariots_types::Record::new(
                chariots_types::RecordId::new(chariots_types::DatacenterId(0), TOId(1)),
                chariots_types::VersionVector::new(1),
                chariots_types::TagSet::new(),
                bytes::Bytes::from_static(b"x"),
            ),
        )]
        .into();
        let tracker = CommitTracker::new(MaintainerId(0));
        let lone = PendingCommit::new(
            Generation::INITIAL,
            0,
            Arc::clone(&share),
            Vec::new(),
            0,
            ctx(),
        );
        let mut pair = PendingCommit::new(Generation::INITIAL, 0, share, Vec::new(), 0, ctx());
        pair.enroll_backups([1].into_iter(), 2);
        let obs = fabric.obs();

        let seq = tracker.register(lone);
        let durable = SeatReport::PrimaryDurable { fsync_us: 40 };
        let resolved = tracker.report(0, seq, durable).unwrap();
        resolved.batch.complete(resolved.outcome);
        assert_eq!(obs.commit_quorum_latency.count(), 1);
        assert_eq!(obs.commit_repl_wait.count(), 0);
        assert_eq!(obs.commit_overlap_saved.get(), 0);

        let seq = tracker.register(pair);
        let durable = SeatReport::PrimaryDurable { fsync_us: 40 };
        assert!(tracker.report(0, seq, durable).is_none());
        let resolved = tracker.report(1, seq, SeatReport::Durable).unwrap();
        resolved.batch.complete(resolved.outcome);
        assert_eq!(obs.commit_quorum_latency.count(), 2);
        assert_eq!(obs.commit_repl_wait.count(), 1);
        assert_eq!(obs.commit_overlap_saved.get(), 40);
    }
}
