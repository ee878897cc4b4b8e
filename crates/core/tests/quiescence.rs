//! A pipeline wakes only for work: with no client the token does not
//! move and the senders gossip at the heartbeat and no faster; under load
//! sender rounds follow the queues' assignments, not the peer's messages.

use std::time::{Duration, Instant};

use chariots_core::{ChariotsCluster, StageStations};
use chariots_simnet::{LinkConfig, MetricsSnapshot};
use chariots_types::{ChariotsConfig, DatacenterId, TagSet};

const DCS: [DatacenterId; 2] = [DatacenterId(0), DatacenterId(1)];

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    *snapshot
        .counters
        .get(name)
        .unwrap_or_else(|| panic!("no counter {name}"))
}

/// Messages delivered over both WAN links.
fn delivered(cluster: &ChariotsCluster) -> u64 {
    let link = |from, to| cluster.link(from, to).expect("link").delivered();
    link(DCS[0], DCS[1]) + link(DCS[1], DCS[0])
}

/// Rounds a sender can have run in `elapsed` beyond those a queue woke it
/// for: one per heartbeat, one under way when the window opened and one
/// when it closed.
fn heartbeats(cfg: &ChariotsConfig, elapsed: Duration) -> u64 {
    (elapsed.as_nanos() / cfg.propagation_interval.as_nanos()) as u64 + 2
}

#[test]
fn an_idle_cluster_passes_no_token_and_gossips_at_the_heartbeat() {
    let cfg = ChariotsConfig::new();
    let cluster =
        ChariotsCluster::launch(cfg.clone(), StageStations::default(), LinkConfig::default())
            .expect("launch cluster");
    // Let the launch settle: tokens picked up, links connected.
    std::thread::sleep(Duration::from_millis(100));

    let (before, sent_before, t0) = (cluster.metrics(), delivered(&cluster), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let (after, sent_after, elapsed) = (cluster.metrics(), delivered(&cluster), t0.elapsed());

    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    for dc in 0..2 {
        assert_eq!(delta(&format!("dc{dc}.queue0.token_passes")), 0, "dc{dc}");
        let rounds = delta(&format!("dc{dc}.sender0.rounds"));
        assert!(
            rounds <= heartbeats(&cfg, elapsed),
            "dc{dc}: {rounds} rounds in {elapsed:?}"
        );
        // Nor has the sender stopped: a quiet peer still hears from it.
        assert!(rounds >= heartbeats(&cfg, elapsed) / 4, "dc{dc}: {rounds}");
    }
    // One message per round and peer, and no message answers another.
    let exchanged = sent_after - sent_before;
    assert!(
        exchanged <= 2 * heartbeats(&cfg, elapsed),
        "{exchanged} messages in {elapsed:?}"
    );
    cluster.shutdown();
}

#[test]
fn under_load_sender_rounds_follow_the_queues_assignments() {
    let cfg = ChariotsConfig::new();
    // A WAN slow enough that each acknowledgement comes back on its own,
    // long after the records it acknowledges went out.
    let wan = LinkConfig::with_latency(Duration::from_millis(5));
    let cluster = ChariotsCluster::launch(cfg.clone(), StageStations::default(), wan)
        .expect("launch cluster");
    let mut client = cluster.client(DCS[0]);
    client.append(TagSet::new(), "warm-up").expect("append");

    let (before, t0) = (cluster.metrics(), Instant::now());
    for i in 0..60 {
        client
            .append(TagSet::new(), format!("r{i}"))
            .expect("append");
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(cluster.wait_for_replication(61, Duration::from_secs(10)));
    let (after, elapsed) = (cluster.metrics(), t0.elapsed());

    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    for dc in 0..2 {
        // A queue wakes its senders at most once per assignment, and it
        // assigns at most as often as it assigns records; what a receiver
        // hears wakes nobody.
        let assigned = delta(&format!("dc{dc}.queue0.in"));
        let rounds = delta(&format!("dc{dc}.sender0.rounds"));
        assert!(
            rounds <= assigned + heartbeats(&cfg, elapsed),
            "dc{dc}: {rounds} rounds for {assigned} records assigned in {elapsed:?}"
        );
    }
    cluster.shutdown();
}
