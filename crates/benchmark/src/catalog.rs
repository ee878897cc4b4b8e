//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is `benchmark manifest` printed from these tables;
//! the smoke test fails when the two drift apart.

use crate::json::Json;

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pipeline_tcp",
        why: "one DC over loopback TCP, rf=1, no WAL: wire codec, transport and batcher/filter/queue do the work; WAL, replication and senders do none",
    },
    Workload {
        name: "flstore_durable",
        why: "FLStore direct, rf=2, fsync per batch, then relaunch from disk: node, WAL and quorum commit dominate; pipeline stages and wire codec are bypassed",
    },
    Workload {
        name: "read_mix",
        why: "reads over 200k tagged records, 50x the client cache, with appends beside them: client caches, maintainer reads and the indexer dominate",
    },
    Workload {
        name: "geo_2dc",
        why: "two DCs, 20 ms one-way WAN, probe seen at the remote DC: senders, receivers, filters and the ATable do work they do nowhere else; no wire codec",
    },
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change is a regression. On the two shared cores
/// this was written on, whole runs of an unchanged program come out up
/// to 5 % faster or slower together, runs an hour apart by 10 % and more,
/// and latencies of a few thread hand-offs (reads, in-memory appends)
/// and of an fsync a little more again; each bound is at least twice the
/// widest spread between quartiles seen over ten runs, and four times
/// the widest gap between two sets of five (`results/aa.json`).
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (lower("append_p50_us", "us"), 0.24),
    (lower("visibility_p50_ms", "ms"), 0.24),
    (lower("read_p50_us", "us"), 0.24),
    (lower("cpu_us_per_op", "us"), 0.20),
    (lower("peak_rss_mb", "MB"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

pub const PER_LAYER: [MetricDef; 56] = [
    lower("types.wire.encode_ns_per_rec", "ns"),
    lower("types.wire.decode_ns_per_rec", "ns"),
    lower("types.wire.bytes_per_rec", "B"),
    lower("simnet.transport.bytes_out_per_rec", "B"),
    lower("simnet.transport.frames_per_rec", "count"),
    lower("simnet.transport.serialize_us_mean", "us"),
    lower("simnet.transport.reconnects", "count"),
    lower("core.client.append_async_ns_per_rec", "ns"),
    lower("core.client.append_p99_us", "us"),
    lower("core.batcher.ingest_ns_per_rec", "ns"),
    lower("core.batcher.latency_us_mean", "us"),
    lower("core.batcher.queue_depth_max", "count"),
    lower("core.filter.ingest_ns_per_rec", "ns"),
    lower("core.filter.latency_us_mean", "us"),
    lower("core.filter.dups", "count"),
    lower("core.queue.process_ns_per_rec", "ns"),
    lower("core.queue.latency_us_mean", "us"),
    higher("flstore.node.batch_size_mean", "count"),
    lower("flstore.node.batch_latency_us_mean", "us"),
    lower("flstore.maintainer.append_ns_per_rec", "ns"),
    lower("flstore.wal.append_sync_us_per_batch", "us"),
    lower("flstore.wal.syncs_per_krec", "count"),
    lower("flstore.wal.disk_bytes_per_rec", "B"),
    lower("flstore.wal.restart_s", "s"),
    lower("flstore.wal.recover_ns_per_rec", "ns"),
    lower("flstore.replication.fsync_us_mean", "us"),
    lower("flstore.replication.repl_wait_us_mean", "us"),
    lower("flstore.replication.quorum_latency_us_mean", "us"),
    lower("flstore.replication.dropped", "count"),
    lower("flstore.client.append_p99_us", "us"),
    higher("flstore.gossip.rounds_per_s", "1/s"),
    higher("flstore.client.cache_hit_ratio", "ratio"),
    lower("flstore.client.rpc_per_read", "count"),
    higher("flstore.client.read_batch_size_mean", "count"),
    lower("flstore.client.read_many_p50_us", "us"),
    lower("flstore.client.read_rule_p50_us", "us"),
    lower("flstore.client.read_p99_us", "us"),
    lower("flstore.maintainer.read_ns_per_rec", "ns"),
    lower("flstore.indexer.post_ns", "ns"),
    lower("flstore.indexer.lookup_us", "us"),
    lower("core.sender.round_us_mean", "us"),
    lower("core.sender.wan_bytes_per_rec", "B"),
    higher("core.sender.records_per_chunk", "count"),
    lower("core.sender.retransmits", "count"),
    lower("core.sender.cursor_lag_max", "count"),
    lower("core.receiver.ingest_ns_per_rec", "ns"),
    lower("core.atable.merge_ns", "ns"),
    lower("deployment.launch_ms", "ms"),
    lower("deployment.preload_s", "s"),
    lower("proc.threads", "count"),
    lower("gen.lateness_p99_us", "us"),
    higher("gen.achieved_rate_frac", "ratio"),
    higher("gen.sat_per_s", "1/s"),
    lower("gen.rate_over_sat", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.stage_sum_over_e2e", "ratio"),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

fn metric_json(def: &MetricDef, bound: Option<f64>) -> Json {
    let mut fields = vec![
        ("name", Json::str(def.name)),
        ("unit", Json::str(def.unit)),
        (
            "better",
            Json::str(match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }),
        ),
    ];
    if let Some(bound) = bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "crates/benchmark/offline/Cargo.toml",
        "--bin",
        "benchmark",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("crates/benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(def, bound)| metric_json(def, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| metric_json(def, None)).collect()),
        ),
    ])
}
