//! Chaos tests for maintainer replica groups: with replication factor 2,
//! crashing a primary mid-workload must not stall the shared log — the
//! failure detector suspects it, the monitor promotes the caught-up
//! backup, clients ride out the window on retries, and the restarted
//! replica is repaired back to the group's frontier. And under pipelined
//! quorum commit, an append acked at f+1 durable copies must survive the
//! primary crashing before its *own* WAL fsync ever returned.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chariots::prelude::*;
use chariots_flstore::epoch::EpochJournal;
use chariots_flstore::maintainer::{AppendPayload, MaintainerCore};
use chariots_flstore::node::{spawn_replica, BatchPolicy, Fabric};
use chariots_flstore::range::RangeMap;
use chariots_flstore::replica_key;
use chariots_flstore::replication::{run_failover, GroupState, ReplicaCtx, ReplicaGroupHandle};
use chariots_simnet::{
    Counter, EventJournal, FailureDetector, ServiceStation, Shutdown, StationConfig,
};
use chariots_types::MaintainerId;

#[test]
fn primary_crash_mid_workload_fails_over_without_stalling() {
    let cfg = FLStoreConfig::new()
        .maintainers(2)
        .batch_size(4)
        .gossip_interval(Duration::from_millis(1))
        .replication(2)
        .heartbeat_interval(Duration::from_millis(2))
        .suspicion_timeout(Duration::from_millis(40));
    let store = FLStore::launch(DatacenterId(0), cfg).unwrap();
    let mut client = store.client();

    // Steady pre-crash workload, spread round-robin over both groups.
    for i in 0..12 {
        client.append(TagSet::new(), format!("pre{i}")).unwrap();
    }

    let group = store.maintainers()[0].clone();
    let old_primary = group.state().primary_index();
    let old_generation = group.generation();
    let pre_crash_frontier = group.stats().unwrap().frontier;
    let pre_crash_hl = client.head_of_log().unwrap();
    group.crash();

    // Appends keep completing through the crash window: attempts that land
    // on the dead primary retry with backoff until the promotion re-routes
    // them. The paced loop comfortably outlasts the suspicion timeout, so
    // plenty of appends land *after* failover too — every one must
    // succeed, no crash-window errors surface to the client.
    for i in 0..300 {
        client.append(TagSet::new(), format!("during{i}")).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    // The failover is observable: the monitor bumped the counter, the
    // group's primary seat moved, and the generation fences the old one.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let failovers = store
            .metrics()
            .counters
            .get("dc0.flstore.failover.count")
            .copied()
            .unwrap_or(0);
        if failovers >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "failover never counted");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_ne!(group.state().primary_index(), old_primary);
    assert!(group.generation() > old_generation);
    let detector = store.failure_detector().expect("replication enables it");
    assert!(
        detector.is_suspected(&replica_key(group.id, old_primary)),
        "crashed primary should be suspected"
    );

    // The crashed group's slice of the log kept filling: the promoted
    // backup accepted appends past the dead primary's frontier, and the
    // head of the log moved beyond its pre-crash value instead of
    // stalling there. Every position below the final HL reads back.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut hl = pre_crash_hl;
    while Instant::now() < deadline
        && (hl <= pre_crash_hl || group.stats().unwrap().frontier <= pre_crash_frontier)
    {
        hl = client.head_of_log().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(hl > pre_crash_hl, "head of log stalled at {hl}");
    assert!(
        group.stats().unwrap().frontier > pre_crash_frontier,
        "crashed group's range stopped filling"
    );
    for l in 0..hl.0 {
        assert!(client.read(LId(l)).is_ok(), "gap below HL at {l}");
    }

    // Restart the deposed primary: anti-entropy repair must catch it up to
    // the group's frontier (it missed the whole crash-window suffix).
    let frontier = group.stats().unwrap().frontier;
    group.replicas()[old_primary].recover();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let caught_up = group.replicas()[old_primary]
            .stats()
            .map(|s| s.frontier >= frontier)
            .unwrap_or(false);
        if caught_up {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted replica never caught up to {frontier}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // And the group still serves appends after all that.
    client.append(TagSet::new(), "post").unwrap();
    store.shutdown();
}

/// The pipelined quorum commit's central durability promise, under the
/// nastiest crash window it admits: an rf=3 group whose primary pays an
/// artificially slow WAL fsync acks appends at f+1 = 2 durable copies (the
/// two fast backups) while the primary's own fsync is still in flight —
/// then the primary crashes before that fsync ever returns. Every acked
/// LId must be served by the promoted backup, and post-failover appends
/// must not reuse any acked position.
#[test]
fn acked_append_survives_primary_crash_before_its_own_fsync() {
    let sync_delay = Duration::from_millis(500);
    let journal = EpochJournal::new(RangeMap::new(1, 64));
    let fabric = Fabric::new();
    let shutdown = Shutdown::new();
    let detector = FailureDetector::new(Duration::from_millis(40));
    let state = Arc::new(GroupState::new(MaintainerId(0)));
    let appended = Counter::new();
    let mut raw = Vec::new();
    let mut threads = Vec::new();
    for r in 0..3 {
        let mut core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal.clone());
        if r == 0 {
            // Only the primary's durability point is slowed: the overlap
            // window between "backups durable" and "primary durable" is
            // stretched wide enough to crash inside deterministically.
            core = core.with_sync_delay(sync_delay);
        }
        detector.register(replica_key(MaintainerId(0), r));
        let station = Arc::new(ServiceStation::new(
            format!("m0-r{r}"),
            StationConfig::uncapped(),
        ));
        let ctx = ReplicaCtx {
            group: Arc::clone(&state),
            index: r,
            detector: Some(detector.clone()),
            heartbeat_interval: Duration::from_millis(2),
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
    state.set_replicas(raw.clone());
    let group = ReplicaGroupHandle::new(MaintainerId(0), Arc::clone(&state), appended);
    fabric.set_peers(vec![group.clone()]);

    // The append acks at quorum — both backups durable — while the
    // primary is still asleep inside its own fsync.
    let payload = AppendPayload::new(TagSet::new(), bytes::Bytes::from_static(b"pipelined"));
    let t0 = Instant::now();
    let ids = group.append(vec![payload]).unwrap();
    let ack_latency = t0.elapsed();
    assert!(
        ack_latency < Duration::from_millis(400),
        "ack took {ack_latency:?}: it waited out the primary's {sync_delay:?} fsync \
         instead of committing at quorum"
    );
    let acked: Vec<LId> = ids.iter().map(|&(_, lid)| lid).collect();
    // Both backups already hold every acked position durably.
    for backup in &raw[1..] {
        for lid in &acked {
            assert_eq!(backup.read(*lid, false).unwrap().lid, *lid);
        }
    }

    // Crash the primary NOW — its own fsync (and the WAL durability of the
    // acked records on seat 0) never completes.
    raw[0].crash();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !detector.is_suspected(&replica_key(MaintainerId(0), 0)) {
        assert!(Instant::now() < deadline, "crashed primary never suspected");
        std::thread::sleep(Duration::from_millis(2));
    }
    let failovers = Counter::new();
    let events = EventJournal::default();
    assert_eq!(
        run_failover(&[group.clone()], &detector, &failovers, &events),
        1
    );
    let new_primary = state.primary_index();
    assert_ne!(new_primary, 0, "crashed seat must not be promoted");

    // The durability promise: the promoted backup serves every acked LId.
    let promoted = state.replica(new_primary).unwrap();
    for lid in &acked {
        let entry = promoted.read(*lid, false).unwrap();
        assert_eq!(entry.lid, *lid);
        assert_eq!(&entry.record.body[..], b"pipelined");
    }

    // And the group keeps assigning *past* the acked suffix — no LId is
    // ever reused for a different record.
    let payload = AppendPayload::new(TagSet::new(), bytes::Bytes::from_static(b"after"));
    let post = group.append(vec![payload]).unwrap();
    let max_acked = acked.iter().copied().max().unwrap();
    assert!(
        post[0].1 > max_acked,
        "post-failover append reused or preceded an acked position"
    );

    shutdown.signal();
    for t in threads {
        t.join().unwrap();
    }
}
