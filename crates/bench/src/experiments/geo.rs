//! Geo-propagation sweep: the senders' cursor-based delta shipping across
//! propagation intervals, on a lossy WAN.
//!
//! The senders keep a per-peer send cursor and ship only records beyond
//! it, falling back to re-offering from the ATable-known cut after a
//! `retransmit_timeout` stall; rounds are event-driven (the queues wake the
//! senders), with the propagation interval demoted to a gossip heartbeat
//! floor — so the sweep shows visibility staying flat as the interval
//! grows.
//!
//! Each run pushes a paced append stream through DC 0 of a two-datacenter
//! cluster over a WAN with latency, jitter, duplication, and drops, and
//! reports: committed throughput, WAN bytes per committed record, the
//! duplicate ratio observed at the destination's filters, cross-DC
//! visibility latency (append at DC 0 → applied cut at DC 1), and
//! timeout-triggered retransmissions.

use std::time::{Duration, Instant};

use chariots_core::{ChariotsCluster, StageStations};
use chariots_simnet::{Histogram, LinkConfig, MetricsSnapshot, RateLimiter};
use chariots_types::{ChariotsConfig, DatacenterId, FLStoreConfig, TOId, TagSet};

use crate::report::Report;

/// Every k-th append is timed for visibility latency.
const SAMPLE_EVERY: u64 = 8;
/// Visibility poll granularity.
const VIS_POLL: Duration = Duration::from_micros(200);

struct RunResult {
    committed_per_s: f64,
    wan_bytes_per_record: f64,
    dup_ratio: f64,
    vis_p50_ms: f64,
    vis_p99_ms: f64,
    retransmits: f64,
}

fn run_one(interval: Duration, records: u64, rate: f64) -> (RunResult, MetricsSnapshot) {
    let mut cfg = ChariotsConfig::new().datacenters(2);
    cfg.flstore = FLStoreConfig::new()
        .maintainers(2)
        .batch_size(16)
        .gossip_interval(Duration::from_millis(1));
    cfg.batcher_flush_threshold = 4;
    cfg.batcher_flush_interval = Duration::from_millis(1);
    cfg.propagation_interval = interval;
    cfg.retransmit_timeout = Duration::from_millis(50);
    // A lossy, jittery WAN: drops force the healing path, duplicates feed
    // the destination filters' dedup counters.
    let wan = LinkConfig::with_latency(Duration::from_millis(3))
        .jitter(Duration::from_micros(500))
        .duplicate_prob(0.02)
        .drop_prob(0.02)
        .seed(11);
    let cluster = ChariotsCluster::launch(cfg, StageStations::default(), wan).expect("launch");

    let src = DatacenterId(0);
    let dst = DatacenterId(1);
    let dst_atable = cluster.dc(dst).atable();

    // Visibility watcher: for each sampled record, the time from the
    // append submission at DC 0 until DC 1's applied cut covers its TOId
    // (row `dst` of DC 1's own ATable — raised when DC 1's queues commit
    // the record, i.e. when it becomes readable there).
    let (vis_tx, vis_rx) = crossbeam::channel::unbounded::<(TOId, Instant)>();
    let vis_hist = Histogram::new();
    let watcher = {
        let hist = vis_hist.clone();
        let atable = std::sync::Arc::clone(&dst_atable);
        std::thread::Builder::new()
            .name("geo-visibility".into())
            .spawn(move || {
                // Samples arrive in TOId order, so waiting sequentially
                // never misses one (the cut is monotone).
                for (toid, t0) in vis_rx {
                    while atable.read().get(dst, src) < toid {
                        std::thread::sleep(VIS_POLL);
                    }
                    hist.record_duration(t0.elapsed());
                }
            })
            .expect("spawn visibility watcher")
    };

    // Paced open-loop appends at DC 0. The single client's appends reach
    // the queues in order, so record i is assigned TOId i+1.
    let mut client = cluster.client(src);
    let mut pacer = RateLimiter::new(rate);
    let m0 = cluster.metrics();
    let t0 = Instant::now();
    for i in 0..records {
        pacer.pace(1);
        let submitted = Instant::now();
        client
            .append_async(TagSet::new(), format!("geo{i}"))
            .expect("append");
        if i % SAMPLE_EVERY == 0 {
            let _ = vis_tx.send((TOId(i + 1), submitted));
        }
    }
    drop(vis_tx);
    assert!(
        cluster.wait_for_replication(records, Duration::from_secs(60)),
        "geo run never converged (interval={interval:?})"
    );
    let elapsed = t0.elapsed().as_secs_f64();
    watcher.join().expect("visibility watcher");
    let m1 = cluster.metrics();

    let delta_of = |name: &str| -> u64 {
        let b = m0.counters.get(name).copied().unwrap_or(0);
        let a = m1.counters.get(name).copied().unwrap_or(0);
        a.saturating_sub(b)
    };
    // Both directions count: DC 0 ships records, DC 1 ships the ack
    // gossip that completes the loop.
    let wan_bytes = delta_of("dc0.chariots.wan.bytes") + delta_of("dc1.chariots.wan.bytes");
    let retransmits =
        delta_of("dc0.chariots.wan.retransmits") + delta_of("dc1.chariots.wan.retransmits");
    // Duplicates dropped at the destination's filters, per committed
    // record: redundant WAN deliveries (link duplication + re-offers).
    let dups: u64 = m1
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("dc1.filter") && name.ends_with(".dups"))
        .map(|(_, v)| *v)
        .sum();

    let result = RunResult {
        committed_per_s: records as f64 / elapsed,
        wan_bytes_per_record: wan_bytes as f64 / records as f64,
        dup_ratio: dups as f64 / records as f64,
        vis_p50_ms: vis_hist.percentile(0.50) as f64 / 1_000.0,
        vis_p99_ms: vis_hist.percentile(0.99) as f64 / 1_000.0,
        retransmits: retransmits as f64,
    };
    cluster.shutdown();
    (result, m1)
}

/// Runs the geo-propagation sweep. `quick` trims sizes and the interval
/// grid.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new(
        "geo",
        "WAN propagation: delta shipping + event-driven senders on a lossy WAN",
        vec![
            "committed/s".into(),
            "WAN B/rec".into(),
            "dup ratio".into(),
            "vis p50 (ms)".into(),
            "vis p99 (ms)".into(),
            "retransmits".into(),
        ],
    );
    let (records, rate) = if quick {
        (600, 3_000.0)
    } else {
        (2_400, 6_000.0)
    };
    let intervals: &[u64] = if quick { &[5] } else { &[2, 5, 20] };

    let mut last_metrics = None;
    for &ms in intervals {
        let (r, metrics) = run_one(Duration::from_millis(ms), records, rate);
        // The artifact `--metrics-out` writes: the last run's full
        // registry, chariots.wan.* counters included.
        last_metrics = Some(metrics);
        report.row(
            format!("delta interval={ms}ms"),
            vec![
                r.committed_per_s,
                r.wan_bytes_per_record,
                r.dup_ratio,
                r.vis_p50_ms,
                r.vis_p99_ms,
                r.retransmits,
            ],
        );
    }

    report.note(format!(
        "{records} paced appends at DC 0 of a 2-DC cluster; WAN 3ms ±0.5ms \
         with 2% duplication and 2% drops; retransmit_timeout 50ms. \
         WAN B/rec sums both directions' chariots.wan.bytes (records + ack \
         gossip) over committed records; dup ratio is duplicates dropped at \
         DC 1's filters per committed record; visibility is append submit \
         at DC 0 until DC 1's applied cut covers the record's TOId"
    ));
    report.note(
        "each record ships once per healthy peer and is re-offered only \
         after a retransmit_timeout stall, so duplicates and retransmits \
         track the WAN's loss, not the in-flight window; event-driven \
         rounds keep visibility flat as the heartbeat interval grows",
    );
    if let Some(m) = last_metrics {
        report.attach_metrics(m);
    }
    report
}
