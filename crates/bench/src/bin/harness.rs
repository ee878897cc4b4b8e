//! The experiment harness: regenerates every table and figure of the
//! Chariots evaluation (§7).
//!
//! ```sh
//! cargo run --release -p chariots-bench --bin harness -- all
//! cargo run --release -p chariots-bench --bin harness -- fig8 --quick
//! cargo run --release -p chariots-bench --bin harness -- --metrics-out /tmp/m.json fig9
//! ```

use std::path::PathBuf;

use chariots_bench::experiments::{
    ablations, apps, availability, baseline, batching, elasticity, fig7, fig8, fig9, geo, obs,
    readpath, recovery, tables, txn, wire,
};
use chariots_bench::report::Report;
use chariots_simnet::MetricsSnapshot;
use chariots_types::TransportMode;

const USAGE: &str = "\
usage: harness [--quick] [--smoke] [--transport <simnet|tcp>]
               [--metrics-out <path>] [--timeline-out <path>]
               [--trace-out <path>] <experiment>...
experiments:
  fig7       single-maintainer throughput vs target load
  fig8       FLStore scalability with maintainers
  table2     pipeline, one machine per stage
  table3     pipeline, two clients
  table4     pipeline, two clients + two batchers
  table5     pipeline, two machines per stage
  fig9       pipeline throughput time-series
  baseline   FLStore vs CORFU sequencer (ablation A4)
  availability  append availability and p99 before/during/after a
             maintainer-primary crash (replication factor 2)
  batching   group-commit sweep: throughput/latency vs drain bound and
             WAL sync policy
  readpath   read sweep: scatter-gather batched reads and client caches
             vs per-record reads, plus pushed-down rule lookups
  recovery   restart sweep: flat-WAL full replay vs segmented WAL with
             checkpoints — time-to-serving, replayed bytes, reclaimed
             disk, and an acked-record ledger across the restart
  geo        WAN propagation sweep: cursor-based delta shipping and
             event-driven senders across heartbeat intervals, on a lossy
             WAN
  txn        commit latency vs WAN latency (Message Futures / Helios)
  apps       Hyksos / stream-processing throughput over the log
  ablations  A1/A2 (FLStore knobs), A3 (token policy), A5 (flush threshold)
  obs        telemetry collector overhead: throughput with/without 100ms
             scrapes, plus the exportable timeline and Chrome trace
  elasticity flash crowd vs the autoscaling control plane: scale-out
             under load, drain-and-retire after, integrity vs a static
             layout, and the cost of each reconfiguration
  wire       transport head-to-head: the Table-4 workload on simnet
             channels vs real TCP loopback sockets — throughput, append
             latency, bytes/record on the wire, and an acked-(LId, body)
             integrity audit on both backends
  all        everything above
--quick trims warmups/windows for smoke runs
--smoke implies --quick and additionally gates: experiments with a smoke
  check (batching, readpath, recovery, obs, elasticity, wire) fail the
  process when the check fails
--transport launches the pipeline experiments (tables 2-5, fig9) on the
  chosen substrate: in-process simnet channels (default) or real TCP
  loopback sockets; recorded in every saved results JSON (the wire
  experiment always runs both backends regardless)
--metrics-out writes the merged metrics registries (counters, gauges,
  per-stage latency histograms) of every selected experiment as JSON
--timeline-out writes the obs (or elasticity) run's collector timeline
  (per-tick counter deltas, gauge samples, rolling quantiles, journal
  events) as JSON
--trace-out writes the obs run's Chrome trace_event JSON (pipeline spans
  + journal events; open in Perfetto or chrome://tracing)";

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut timeline_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => {
                quick = true;
                smoke = true;
            }
            "--transport" => match args.next().as_deref() {
                Some("simnet") => chariots_bench::set_transport(TransportMode::Simnet),
                Some("tcp") => chariots_bench::set_transport(TransportMode::Tcp),
                Some(other) => {
                    eprintln!("--transport must be simnet or tcp, got {other}\n{USAGE}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--transport requires a value\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--metrics-out requires a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--timeline-out" => match args.next() {
                Some(path) => timeline_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--timeline-out requires a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace-out requires a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}\n{USAGE}");
                std::process::exit(2);
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let run = |name: &str| -> Vec<Report> {
        match name {
            "fig7" => vec![fig7::run(quick)],
            "fig8" => vec![fig8::run(quick)],
            "table2" => vec![tables::run(2, quick)],
            "table3" => vec![tables::run(3, quick)],
            "table4" => vec![tables::run(4, quick)],
            "table5" => vec![tables::run(5, quick)],
            "fig9" => vec![fig9::run(quick)],
            "baseline" => vec![baseline::run(quick)],
            "availability" => vec![availability::run(quick)],
            "batching" => vec![batching::run(quick)],
            "readpath" => vec![readpath::run(quick)],
            "recovery" => vec![recovery::run(quick)],
            "geo" => vec![geo::run(quick)],
            "txn" => vec![txn::run(quick)],
            "apps" => vec![apps::run(quick)],
            "obs" => vec![obs::run(
                quick,
                timeline_out.as_deref(),
                trace_out.as_deref(),
            )],
            "elasticity" => vec![elasticity::run(quick, timeline_out.as_deref())],
            "wire" => vec![wire::run(quick)],
            "ablations" => vec![
                ablations::run_flstore_knobs(quick),
                ablations::run_token_policy(quick),
                ablations::run_flush_threshold(quick),
                ablations::run_sender_scaling(quick),
            ],
            other => {
                eprintln!("unknown experiment: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    };

    let mut merged = MetricsSnapshot::empty("harness");
    let mut smoke_failures = 0usize;
    let mut run_and_collect = |name: &str| {
        for report in run(name) {
            report.finish();
            if smoke {
                let gate = match report.id.as_str() {
                    "batching" => Some(batching::verify_smoke(&report)),
                    "readpath" => Some(readpath::verify_smoke(&report)),
                    "recovery" => Some(recovery::verify_smoke(&report)),
                    "obs" => Some(obs::verify_smoke(&report)),
                    "elasticity" => Some(elasticity::verify_smoke(&report)),
                    "wire" => Some(wire::verify_smoke(&report)),
                    _ => None,
                };
                match gate {
                    Some(Ok(())) => println!("smoke gate [{}]: ok", report.id),
                    Some(Err(e)) => {
                        eprintln!("smoke gate [{}]: FAIL: {e}", report.id);
                        smoke_failures += 1;
                    }
                    None => {}
                }
            }
            if let Some(m) = &report.metrics {
                merged.merge(m);
            }
        }
    };

    for name in &selected {
        if name == "all" {
            for e in [
                "fig7",
                "fig8",
                "table2",
                "table3",
                "table4",
                "table5",
                "fig9",
                "baseline",
                "availability",
                "batching",
                "readpath",
                "recovery",
                "geo",
                "txn",
                "apps",
                "ablations",
                "obs",
                "elasticity",
                "wire",
            ] {
                run_and_collect(e);
            }
        } else {
            run_and_collect(name);
        }
    }

    if let Some(path) = metrics_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let json = serde_json::to_vec_pretty(&merged).expect("serialize metrics");
        match std::fs::write(&path, json) {
            Ok(()) => println!("metrics: {}", path.display()),
            Err(e) => {
                eprintln!("could not write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if smoke_failures > 0 {
        eprintln!("{smoke_failures} smoke gate(s) failed");
        std::process::exit(1);
    }
}
