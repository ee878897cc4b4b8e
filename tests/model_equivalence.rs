//! Model-based testing: the distributed pipeline (§6.2) against the
//! paper's abstract solution (§6.1).
//!
//! The paper's claim: "the distributed implementation … will result in a
//! behavior identical to the abstract solution with a higher performance."
//! These tests drive both with the same workloads and check that the
//! distributed outcome satisfies exactly the abstract specification:
//! identical record sets everywhere, per-host total order, and causal
//! dependencies satisfied at every position.

mod common;

use std::time::Duration;

use chariots::prelude::*;
use common::{assert_log_invariants, assert_same_record_sets, dump_log, launch};

/// A deterministic pseudo-random workload: per step, one datacenter
/// appends. Returns the number of appends per datacenter.
fn run_workload(cluster: &ChariotsCluster, n: usize, steps: usize, seed: u64) -> Vec<u64> {
    let mut clients: Vec<ChariotsClient> = (0..n)
        .map(|i| cluster.client(DatacenterId(i as u16)))
        .collect();
    let mut counts = vec![0u64; n];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for step in 0..steps {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let dc = (state % n as u64) as usize;
        clients[dc]
            .append(TagSet::new(), format!("s{step}"))
            .expect("append");
        counts[dc] += 1;
    }
    counts
}

#[test]
fn distributed_matches_abstract_spec_two_dcs() {
    let n = 2;
    let cluster = launch(n, 2);
    let counts = run_workload(&cluster, n, 40, 7);
    let total: u64 = counts.iter().sum();
    assert!(cluster.wait_for_replication(total, Duration::from_secs(20)));
    let logs: Vec<Vec<Entry>> = (0..n)
        .map(|i| dump_log(&cluster, DatacenterId(i as u16)))
        .collect();
    for log in &logs {
        assert_eq!(log.len() as u64, total);
        assert_log_invariants(log, n);
    }
    assert_same_record_sets(&logs);
    cluster.shutdown();
}

#[test]
fn distributed_matches_abstract_spec_three_dcs() {
    let n = 3;
    let cluster = launch(n, 3);
    let counts = run_workload(&cluster, n, 45, 13);
    let total: u64 = counts.iter().sum();
    assert!(cluster.wait_for_replication(total, Duration::from_secs(20)));
    let logs: Vec<Vec<Entry>> = (0..n)
        .map(|i| dump_log(&cluster, DatacenterId(i as u16)))
        .collect();
    for log in &logs {
        assert_log_invariants(log, n);
    }
    assert_same_record_sets(&logs);
    cluster.shutdown();
}

#[test]
fn abstract_model_accepts_the_distributed_outcome() {
    // Replay the distributed system's per-DC local sequences into the
    // abstract cluster; after settle, both must contain the same records —
    // i.e. the distributed outcome is reachable by the abstract model.
    let n = 2;
    let cluster = launch(n, 2);
    let counts = run_workload(&cluster, n, 30, 99);
    let total: u64 = counts.iter().sum();
    assert!(cluster.wait_for_replication(total, Duration::from_secs(20)));
    let logs: Vec<Vec<Entry>> = (0..n)
        .map(|i| dump_log(&cluster, DatacenterId(i as u16)))
        .collect();

    let mut abstract_cluster = AbstractCluster::new(n);
    for dc in 0..n {
        let dcid = DatacenterId(dc as u16);
        // Local records of this DC, in TOId order.
        let mut local: Vec<&Entry> = logs[dc]
            .iter()
            .filter(|e| e.record.host() == dcid)
            .collect();
        local.sort_by_key(|e| e.record.toid());
        for e in local {
            abstract_cluster
                .dc_mut(dcid)
                .append(e.record.tags.clone(), e.record.body.clone());
        }
    }
    abstract_cluster.settle();
    for dc in 0..n {
        let dcid = DatacenterId(dc as u16);
        let mut abstract_ids: Vec<RecordId> = abstract_cluster
            .dc(dcid)
            .log()
            .iter()
            .map(|e| e.id())
            .collect();
        abstract_ids.sort();
        let mut distributed_ids: Vec<RecordId> = logs[dc].iter().map(|e| e.id()).collect();
        distributed_ids.sort();
        assert_eq!(abstract_ids, distributed_ids);
    }
    cluster.shutdown();
}

use chariots_types::RecordId;

#[test]
fn cross_dc_causal_chain_is_ordered_at_every_replica() {
    // A chain of length 6 hopping between datacenters: each append is made
    // by a client that read the previous link, so the chain is totally
    // causally ordered and must appear in chain order in every log.
    let n = 3;
    let cluster = launch(n, 2);
    let mut expected_order = Vec::new();
    for i in 0..6u64 {
        let dc = DatacenterId((i % n as u64) as u16);
        let mut client = cluster.client(dc);
        if i > 0 {
            // Read every record so far (establishing the dependency).
            assert!(
                cluster.wait_for_replication(i, Duration::from_secs(20)),
                "link {i} never replicated"
            );
            for l in 0..i {
                client.read(LId(l)).expect("chain prefix readable");
            }
        }
        let (toid, _lid) = client
            .append(TagSet::new(), format!("link{i}"))
            .expect("append link");
        expected_order.push((dc, toid));
    }
    assert!(cluster.wait_for_replication(6, Duration::from_secs(20)));
    for dc in 0..n {
        let log = dump_log(&cluster, DatacenterId(dc as u16));
        let got: Vec<(DatacenterId, TOId)> = log
            .iter()
            .map(|e| (e.record.host(), e.record.toid()))
            .collect();
        assert_eq!(got, expected_order, "chain order broken at DC {dc}");
        assert_log_invariants(&log, n);
    }
    cluster.shutdown();
}

/// Group-commit equivalence: any interleaving of `Append` and `Store`
/// requests served through the maintainer node's coalescing drain loop
/// produces exactly the log (contents and position assignments) of a
/// [`MaintainerCore`] serving the same operations one at a time.
mod group_commit_equivalence {
    use std::sync::Arc;
    use std::time::Duration;

    use bytes::Bytes;
    use chariots_flstore::node::{spawn_maintainer, Fabric};
    use chariots_flstore::{AppendPayload, EpochJournal, MaintainerCore, RangeMap};
    use chariots_simnet::{ServiceStation, Shutdown, StationConfig};
    use chariots_types::{
        DatacenterId, Entry, LId, MaintainerId, Record, RecordId, TOId, TagSet, VersionVector,
    };
    use proptest::prelude::*;

    /// One submitted request. `Append(n)` carries `n` payloads; `Store(n)`
    /// carries `n` pre-routed entries at far positions that cannot collide
    /// with post-assignment.
    #[derive(Debug, Clone)]
    enum Op {
        Append(usize),
        Store(usize),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (1usize..=4).prop_map(Op::Append),
                (1usize..=3).prop_map(Op::Store),
            ],
            1..12,
        )
    }

    /// Base position of the `Store` operand space: far above anything the
    /// appends of one case can assign, so the two request kinds never race
    /// for a slot.
    const STORE_BASE: u64 = 100_000;

    /// Materializes the concrete operations: payload bodies for appends,
    /// full entries (deterministic far positions, a second host's record
    /// ids) for stores. Both the serial and the batched run consume these
    /// verbatim.
    fn materialize(ops: &[Op]) -> Vec<MaterializedOp> {
        let mut out = Vec::new();
        let mut store_slot = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Append(n) => out.push(MaterializedOp::Append(
                    (0..*n)
                        .map(|j| {
                            AppendPayload::new(
                                TagSet::new(),
                                Bytes::from(format!("a{i}.{j}").into_bytes()),
                            )
                        })
                        .collect(),
                )),
                Op::Store(n) => {
                    let entries: Vec<Entry> = (0..*n)
                        .map(|_| {
                            let slot = store_slot;
                            store_slot += 1;
                            Entry::new(
                                LId(STORE_BASE + slot),
                                Record::new(
                                    RecordId::new(DatacenterId(1), TOId(slot + 1)),
                                    VersionVector::new(2),
                                    TagSet::new(),
                                    Bytes::from(format!("s{slot}").into_bytes()),
                                ),
                            )
                        })
                        .collect();
                    out.push(MaterializedOp::Store(entries));
                }
            }
        }
        out
    }

    enum MaterializedOp {
        Append(Vec<AppendPayload>),
        Store(Vec<Entry>),
    }

    fn journal() -> EpochJournal {
        EpochJournal::new(RangeMap::new(1, 16))
    }

    fn scan_all(entries: Vec<Entry>) -> Vec<(LId, RecordId, Bytes)> {
        entries
            .into_iter()
            .map(|e| (e.lid, e.record.id, e.record.body))
            .collect()
    }

    proptest! {
        // Each case spawns a node thread; keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn coalesced_serving_matches_serial(ops in arb_ops()) {
            let materialized = materialize(&ops);
            let total: u64 = materialized
                .iter()
                .map(|op| match op {
                    MaterializedOp::Append(p) => p.len() as u64,
                    MaterializedOp::Store(e) => e.len() as u64,
                })
                .sum();

            // Serial reference: one core, one operation at a time.
            let mut serial = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal());
            for op in &materialized {
                match op {
                    MaterializedOp::Append(payloads) => {
                        serial.append_batch(payloads.clone()).expect("serial append");
                    }
                    MaterializedOp::Store(entries) => {
                        serial.store_entries(entries.clone()).expect("serial store");
                    }
                }
            }

            // Batched run: the same operations fired into a node whose loop
            // coalesces whatever it finds queued (submission order = channel
            // order, so the batch order matches the serial order).
            let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal());
            let station = Arc::new(ServiceStation::new("gce", StationConfig::uncapped()));
            let shutdown = Shutdown::new();
            let (handle, thread) = spawn_maintainer(
                core,
                station,
                Fabric::new(),
                Duration::from_millis(50),
                shutdown.clone(),
            );
            let counter = handle.appended_counter();
            for op in materialized {
                match op {
                    MaterializedOp::Append(payloads) => {
                        prop_assert!(handle.append_async(payloads));
                    }
                    MaterializedOp::Store(entries) => {
                        prop_assert!(handle.store(entries));
                    }
                }
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while counter.get() < total {
                prop_assert!(
                    std::time::Instant::now() < deadline,
                    "only {}/{} records committed",
                    counter.get(),
                    total
                );
                std::thread::sleep(Duration::from_millis(1));
            }

            let (_, batched_log) = handle.scan(LId(0), 1_000_000).expect("scan");
            shutdown.signal();
            thread.join().expect("join node");

            let serial_log = serial.scan_from(LId(0), 1_000_000);
            prop_assert_eq!(scan_all(batched_log), scan_all(serial_log));
        }
    }
}

/// WAN propagation against its specification: the senders' cursor-based
/// delta shipping (per-peer send cursors, event-driven rounds,
/// timeout-triggered re-offer healing) delivers *exactly the set of records
/// the workload appended* to every datacenter — under message drops,
/// duplication, and a partition-then-heal with *sustained* append load
/// across the heal — with all log invariants intact and every datacenter's
/// applied cut covering the full workload. The expected set needs no second
/// cluster to compute: datacenter `h`'s `n` appends are the records
/// `(h, 1..=n)`.
mod wan_propagation_equivalence {
    use std::time::{Duration, Instant};

    use chariots::prelude::*;
    use chariots_types::RecordId;
    use proptest::prelude::*;

    use crate::common::{assert_log_invariants, assert_same_record_sets, dump_log};

    #[derive(Debug, Clone)]
    struct Scenario {
        dcs: usize,
        steps: usize,
        /// Partition DC 0 ↔ DC 1 for the middle third of the workload,
        /// forcing the senders through their stall-fallback path.
        partition: bool,
        seed: u64,
    }

    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        (2usize..=3, 12usize..=24, any::<bool>(), any::<u64>()).prop_map(
            |(dcs, steps, partition, seed)| Scenario {
                dcs,
                steps,
                partition,
                seed,
            },
        )
    }

    fn launch(s: &Scenario) -> ChariotsCluster {
        let mut cfg = ChariotsConfig::new().datacenters(s.dcs);
        cfg.flstore = FLStoreConfig::new()
            .maintainers(2)
            .batch_size(8)
            .gossip_interval(Duration::from_millis(1));
        cfg.batcher_flush_threshold = 2;
        cfg.batcher_flush_interval = Duration::from_millis(1);
        cfg.propagation_interval = Duration::from_millis(2);
        // Small enough that dropped chunks re-offer many times within the
        // convergence deadline.
        cfg.retransmit_timeout = Duration::from_millis(25);
        // A hostile WAN: drops exercise the healing fallback, duplication
        // exercises the filters, jitter reorders chunks.
        let wan = LinkConfig::with_latency(Duration::from_millis(1))
            .jitter(Duration::from_millis(1))
            .drop_prob(0.05)
            .duplicate_prob(0.05)
            .seed(s.seed);
        ChariotsCluster::launch(cfg, StageStations::default(), wan).expect("launch cluster")
    }

    /// Runs the deterministic workload (same construction as
    /// [`super::run_workload`]) with an optional mid-run partition of
    /// DC 0 ↔ DC 1. Returns how many records each datacenter appended.
    fn drive(cluster: &ChariotsCluster, s: &Scenario) -> Vec<u64> {
        let mut clients: Vec<ChariotsClient> = (0..s.dcs)
            .map(|i| cluster.client(DatacenterId(i as u16)))
            .collect();
        let (a, b) = (DatacenterId(0), DatacenterId(1));
        let mut state = s.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut appends = vec![0u64; s.dcs];
        for step in 0..s.steps {
            if s.partition && step == s.steps / 3 {
                cluster.partition(a, b);
            }
            if s.partition && step == (2 * s.steps) / 3 {
                // Let the outage outlast the retransmit timeout so healing
                // really goes through the fallback re-offer.
                std::thread::sleep(Duration::from_millis(40));
                cluster.heal(a, b);
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let dc = (state % s.dcs as u64) as usize;
            appends[dc] += 1;
            clients[dc]
                .append(TagSet::new(), format!("w{step}"))
                .expect("append");
        }
        if s.partition {
            // Sustained post-heal load: DC 0 keeps appending (paced well
            // inside the retransmit timeout) and DC 1 must absorb every
            // pre-heal DC 0 record *while* the load runs. The partition
            // guarantees the senders enter this phase with offered records
            // outstanding (cursor > known), so a stall clock that fresh
            // offers can restart would never fire and DC 1 would stay stuck
            // at the gap for the whole window.
            const EXTRA: u64 = 300;
            let pre_heal = appends[0];
            let atable = cluster.dc(b).atable();
            let mut converged_under_load = false;
            for extra in 0..EXTRA {
                converged_under_load =
                    converged_under_load || atable.read().row(b).get(a).0 >= pre_heal;
                clients[0]
                    .append(TagSet::new(), format!("x{extra}"))
                    .expect("append");
                appends[0] += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                converged_under_load || atable.read().row(b).get(a).0 >= pre_heal,
                "DC 1 never absorbed DC 0's pre-heal records under sustained load"
            );
        }
        appends
    }

    /// The record-id set every datacenter's log converged to, sorted.
    fn converged_set(cluster: &ChariotsCluster, s: &Scenario, total: u64) -> Vec<RecordId> {
        assert!(
            cluster.wait_for_replication(total, Duration::from_secs(30)),
            "cluster never converged"
        );
        let logs: Vec<Vec<Entry>> = (0..s.dcs)
            .map(|i| dump_log(cluster, DatacenterId(i as u16)))
            .collect();
        for log in &logs {
            assert_eq!(log.len() as u64, total);
            assert_log_invariants(log, s.dcs);
        }
        assert_same_record_sets(&logs);
        let mut ids: Vec<RecordId> = logs[0].iter().map(|e| e.id()).collect();
        ids.sort();
        ids
    }

    /// Waits until every datacenter's own applied cut (row `i` of its
    /// ATable) covers the per-host workload counts — the cut the senders
    /// gossip, and the quantity delta shipping must not corrupt.
    fn assert_applied_cuts_converge(cluster: &ChariotsCluster, appends: &[u64]) {
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..appends.len() {
            let dc = DatacenterId(i as u16);
            let atable = cluster.dc(dc).atable();
            loop {
                let row = atable.read().row(dc);
                let done = appends
                    .iter()
                    .enumerate()
                    .all(|(j, n)| row.get(DatacenterId(j as u16)).0 >= *n);
                if done {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "DC {i} applied cut stalled at {row}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    proptest! {
        // Each case launches a full multi-DC cluster; keep it small.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn propagation_delivers_exactly_the_appended_set(s in arb_scenario()) {
            let cluster = launch(&s);
            let appends = drive(&cluster, &s);
            let delivered = converged_set(&cluster, &s, appends.iter().sum());
            assert_applied_cuts_converge(&cluster, &appends);
            cluster.shutdown();

            // Nothing lost, nothing invented, nothing doubled: what every
            // datacenter holds is what the workload appended.
            let mut appended: Vec<RecordId> = appends
                .iter()
                .enumerate()
                .flat_map(|(host, n)| {
                    (1..=*n).map(move |t| RecordId::new(DatacenterId(host as u16), TOId(t)))
                })
                .collect();
            appended.sort();
            prop_assert_eq!(delivered, appended);
        }
    }
}

/// The commit path's durability contract, through a primary crash: under a
/// deterministic workload — including a crash that drops every in-flight
/// RPC on the dead station and forces a failover mid-run, after which the
/// group commits on what is left of it (a quorum of one at `rf = 2`) — no
/// acked position is ever reused, every acked `(LId, body)` reads back
/// verbatim from the surviving group, and the log below the final Head of
/// the Log is dense.
///
/// This was the commit-mode equivalence property, which ran every scenario
/// under the pipelined and the serial commit and compared them. The serial
/// chain is gone; what the comparison checked inside each run stays. One
/// repair: the old run read acked positions back *under the Head-of-Log
/// gate*, and over the full scenario cross-product × 6 seeds (96 scenarios)
/// that failed 24 times — identically in both modes, always with two
/// maintainers and a crash — with "acked L12 unreadable: not yet readable".
/// The post-crash appends are re-routed around the dead group and leave its
/// range short, so an acked position can sit above the Head for as long as
/// nobody fills that range: a range-fill question, not a commit-path one.
/// Acked records are therefore read ungated here (they must exist, wherever
/// the Head is), and density is asserted where it is defined — below the
/// Head.
mod commit_durability {
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    use chariots_flstore::{FLStore, FLStoreClient};
    use chariots_types::{DatacenterId, FLStoreConfig, LId, TagSet};
    use proptest::prelude::*;

    /// Positions per striping round (`batch_size`).
    const ROUND: usize = 4;

    /// Appends fired after the crash, riding client retries across the
    /// failover window.
    const POST_CRASH: usize = 8;

    #[derive(Debug, Clone)]
    struct Scenario {
        maintainers: usize,
        replication: usize,
        records: usize,
        crash_primary: bool,
        seed: u64,
    }

    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        (
            1usize..=2,
            2usize..=3,
            1usize..=2,
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(
                |(maintainers, replication, rounds, crash_primary, seed)| Scenario {
                    maintainers,
                    replication,
                    records: maintainers * ROUND * rounds,
                    crash_primary,
                    seed,
                },
            )
    }

    fn launch(s: &Scenario) -> FLStore {
        let cfg = FLStoreConfig::new()
            .maintainers(s.maintainers)
            .batch_size(ROUND as u64)
            .replication(s.replication)
            .gossip_interval(Duration::from_millis(1))
            .heartbeat_interval(Duration::from_millis(2))
            .suspicion_timeout(Duration::from_millis(40));
        FLStore::launch(DatacenterId(0), cfg).expect("launch")
    }

    /// Polls until `lid` reads back, returning its body; panics at the
    /// deadline (a just-promoted backup may briefly lag on repair/gossip).
    fn read_body(
        client: &mut FLStoreClient,
        lid: LId,
        enforce_hl: bool,
        deadline: Instant,
    ) -> bytes::Bytes {
        loop {
            match client.read_with_hl(lid, enforce_hl) {
                Ok(entry) => return entry.record.body,
                Err(e) => {
                    assert!(Instant::now() < deadline, "{lid} unreadable: {e}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn acked_records_survive_a_primary_crash(s in arb_scenario()) {
            let store = launch(&s);
            let mut client = store.client();
            let mut acked: Vec<(LId, String)> = Vec::new();
            for i in 0..s.records {
                let body = format!("p{i}");
                let (_, lid) = client.append(TagSet::new(), body.clone()).expect("append");
                acked.push((lid, body));
            }
            // Whole rounds on every maintainer: the settled prefix is exactly
            // the first `records` positions.
            let prefix: BTreeSet<LId> = acked.iter().map(|&(lid, _)| lid).collect();
            prop_assert_eq!(prefix, (0..s.records as u64).map(LId).collect::<BTreeSet<_>>());
            // Let it settle (HL covers every acked position) so the crash
            // lands on a quiet system.
            let deadline = Instant::now() + Duration::from_secs(10);
            while client.head_of_log().expect("hl") < LId(s.records as u64) {
                prop_assert!(Instant::now() < deadline, "HL never covered the appends");
                std::thread::sleep(Duration::from_millis(2));
            }

            if s.crash_primary {
                // Crash one group's primary: its in-flight RPCs are dropped
                // wholesale, the monitor promotes a backup, and the client's
                // retry schedule carries the post-crash appends across the
                // window. A failed attempt assigned nothing, so no retry can
                // duplicate a record.
                let group = s.seed as usize % s.maintainers;
                store.maintainers()[group].crash();
                for i in 0..POST_CRASH {
                    let body = format!("q{i}");
                    let (_, lid) = client
                        .append(TagSet::new(), body.clone())
                        .expect("append must survive the failover window");
                    acked.push((lid, body));
                }
            }

            // No acked position was ever assigned twice.
            let positions: BTreeSet<LId> = acked.iter().map(|&(lid, _)| lid).collect();
            prop_assert_eq!(positions.len(), acked.len(), "an acked LId was reused");

            // Every acked record is durable: it reads back from the
            // surviving group with exactly the acked body at exactly the
            // acked position, wherever the Head currently is.
            let deadline = Instant::now() + Duration::from_secs(10);
            for (lid, body) in &acked {
                let got = read_body(&mut client, *lid, false, deadline);
                prop_assert_eq!(&got[..], body.as_bytes(), "acked {} lost or replaced", lid);
            }

            // Log density: every position below the final HL is readable —
            // the commit path left no holes behind.
            let hl = client.head_of_log().expect("hl");
            let deadline = Instant::now() + Duration::from_secs(10);
            for l in 0..hl.0 {
                read_body(&mut client, LId(l), true, deadline);
            }

            store.shutdown();
        }
    }
}

/// Read-path equivalence: the scatter-gather `read_many` and the batched,
/// cache-enabled `read_rule` return exactly what the per-record serial
/// path (caches off, one RPC per position) returns — across maintainer
/// counts, replication factors, and a crashed primary served by backup
/// fallback.
mod read_path_equivalence {
    use std::time::{Duration, Instant};

    use chariots_flstore::{AppendPayload, FLStore, FLStoreClient};
    use chariots_types::{
        Condition, DatacenterId, Entry, FLStoreConfig, LId, ReadRule, Tag, TagSet, TagValue,
        ValuePredicate,
    };
    use proptest::prelude::*;

    const TAG: &str = "k";

    /// Positions per striping round (`batch_size`).
    const ROUND: usize = 4;

    #[derive(Debug, Clone)]
    struct Scenario {
        maintainers: usize,
        replication: usize,
        records: usize,
        crash_primary: bool,
        seed: u64,
    }

    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        (
            1usize..=3,
            1usize..=2,
            1usize..=2,
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(maintainers, replication, rounds, crash, seed)| Scenario {
                maintainers,
                replication,
                // Crashing only makes sense with a backup to fall back to.
                crash_primary: crash && replication > 1,
                // Whole striping rounds on every maintainer, so the
                // round-robin appends leave no sub-round gaps and the HL
                // can cover everything appended.
                records: maintainers * ROUND * rounds,
                seed,
            })
    }

    fn launch(s: &Scenario) -> FLStore {
        let cfg = FLStoreConfig::new()
            .maintainers(s.maintainers)
            .batch_size(ROUND as u64)
            .indexers(1)
            .replication(s.replication)
            .gossip_interval(Duration::from_millis(1))
            .heartbeat_interval(Duration::from_millis(2))
            .suspicion_timeout(Duration::from_millis(40));
        FLStore::launch(DatacenterId(0), cfg).expect("launch")
    }

    /// A client with both read caches disabled: the serial reference.
    fn serial_client(store: &FLStore) -> FLStoreClient {
        store
            .client()
            .with_hl_cache_ttl(Duration::ZERO)
            .with_entry_cache_capacity(0)
    }

    /// Reads every position one RPC at a time, panicking only on real
    /// gaps; returns entries once all are readable, `None` if any position
    /// is still transiently unreadable.
    fn try_serial_read_all(client: &mut FLStoreClient, records: usize) -> Option<Vec<Entry>> {
        let mut out = Vec::with_capacity(records);
        for l in 0..records as u64 {
            out.push(client.read_with_hl(LId(l), true).ok()?);
        }
        Some(out)
    }

    proptest! {
        // Each case launches a full deployment; keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn batched_reads_match_the_serial_path(s in arb_scenario()) {
            let store = launch(&s);
            let mut writer = store.client();
            for i in 0..s.records {
                let mut tags = TagSet::new();
                tags.push(Tag::with_value(TAG, (i % 3).to_string().as_str()));
                writer
                    .append(tags, format!("r{i}"))
                    .expect("append");
            }
            // Wait for everything to be readable.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if writer.head_of_log().expect("hl") >= LId(s.records as u64) {
                    break;
                }
                prop_assert!(Instant::now() < deadline, "HL never covered the appends");
                std::thread::sleep(Duration::from_millis(2));
            }

            // Postings reach the indexer asynchronously from the HL: wait
            // until the index covers every record before comparing
            // rule-based reads against the model (the indexer nodes are
            // not part of any replica group, so the crash below cannot
            // un-warm them).
            let mut reference = serial_client(&store);
            let all_tagged = ReadRule::where_(Condition::HasTag(TAG.into()));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if reference.read_rule(&all_tagged).expect("warm index").len() == s.records {
                    break;
                }
                prop_assert!(Instant::now() < deadline, "indexer never caught up");
                std::thread::sleep(Duration::from_millis(2));
            }

            if s.crash_primary {
                // Crash one group's primary AFTER the appends are acked:
                // reads must ride the backup fallback (and, once the
                // monitor promotes, the new primary).
                let group = s.seed as usize % s.maintainers;
                store.maintainers()[group].crash();
            }

            // Serial reference: per-record RPCs, no caches. A just-crashed
            // primary's backup may briefly lag on gossip, so poll until
            // the reference itself sees everything.
            let deadline = Instant::now() + Duration::from_secs(10);
            let expected = loop {
                if let Some(entries) = try_serial_read_all(&mut reference, s.records) {
                    break entries;
                }
                prop_assert!(Instant::now() < deadline, "serial reference never settled");
                std::thread::sleep(Duration::from_millis(2));
            };

            // A query mix: every position, plus seed-driven duplicates and
            // out-of-order picks.
            let mut lids: Vec<LId> = (0..s.records as u64).map(LId).collect();
            let mut state = s.seed | 1;
            for _ in 0..s.records / 2 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                lids.push(LId(state % s.records as u64));
            }

            // Batched path, caches at their deployment defaults — run
            // twice so the second pass is served from the entry cache.
            let mut batched = store.client();
            for pass in 0..2 {
                let got = batched.read_many(&lids);
                prop_assert_eq!(got.len(), lids.len());
                for (lid, result) in lids.iter().zip(got) {
                    let entry = result.expect("position below HL must read");
                    prop_assert_eq!(&entry, &expected[lid.0 as usize], "pass {}", pass);
                }
            }

            // Rule equivalence: batched+cached read_rule vs the model
            // (the rule applied to the full serial log). Two evaluations
            // each, exercising HL-cache hits on the second.
            let rules = [
                ReadRule::where_(Condition::TagValue(
                    TAG.into(),
                    ValuePredicate::Eq(TagValue::Str("1".into())),
                ))
                .most_recent(2),
                ReadRule::where_(Condition::HasTag(TAG.into()))
                    .and(Condition::LIdBelow(LId(s.records as u64 / 2)))
                    .oldest(3),
                // Exact-LId path, with an extra non-LId condition that is
                // filtered after the batch read.
                ReadRule::where_(Condition::LIdEq(LId(0)))
                    .and(Condition::HasTag(TAG.into())),
                ReadRule::where_(Condition::TagValue(
                    TAG.into(),
                    ValuePredicate::Ge(TagValue::Str("1".into())),
                ))
                .and(Condition::FromHost(DatacenterId(0)))
                .most_recent(4),
            ];
            for rule in &rules {
                let model = rule.apply(expected.iter());
                for pass in 0..2 {
                    let got = batched.read_rule(rule).expect("read_rule");
                    prop_assert_eq!(&got, &model, "rule {:?} pass {}", rule, pass);
                }
                // The serial-path client must agree too (same code, caches
                // and batching ablated).
                let serial_got = reference.read_rule(rule).expect("serial read_rule");
                prop_assert_eq!(&serial_got, &model, "serial rule {:?}", rule);
            }
            store.shutdown();
        }
    }
}
