//! `chariots-top`: a refreshing terminal dashboard over a live geo
//! workload.
//!
//! Launches a small multi-datacenter cluster over a simulated WAN, drives
//! paced appends into DC 0, and renders the telemetry collector's live
//! view in place — per-stage throughput, token passes and sender rounds
//! per second, queue depths and other health gauges, rolling latency
//! quantiles, and the newest journal events — until `--duration` elapses.
//!
//! ```sh
//! cargo run --release -p chariots-bench --bin chariots-top -- \
//!     --duration 30 --refresh 500 --dcs 2 --rate 4000
//! ```

use std::time::{Duration, Instant};

use chariots_core::{AutoscaleConfig, Autoscaler, ChariotsCluster, StagePolicy, StageStations};
use chariots_simnet::{
    Collector, CollectorConfig, EventKind, LinkConfig, LiveView, RateLimiter, Shutdown,
    StationConfig,
};
use chariots_types::{ChariotsConfig, DatacenterId, FLStoreConfig, TagSet, TransportMode};

const USAGE: &str = "\
usage: chariots-top [--duration <secs>] [--refresh <ms>] [--dcs <n>] [--rate <appends/s>]
                    [--autoscale] [--transport <simnet|tcp>]
  --duration  how long to run before exiting (default 20)
  --refresh   dashboard refresh interval in ms (default 500)
  --dcs       datacenters in the cluster (default 2)
  --rate      paced append rate into DC 0 (default 4000)
  --autoscale close the autoscaling control plane over the cluster (the
              elastic stages are capped below the append rate so the
              dashboard shows live scale-out/scale-in)
  --transport run the intra-DC hops and FLStore RPCs on in-process simnet
              channels (default) or real TCP loopback sockets; with tcp
              the dashboard grows a chariots.transport.* panel (socket
              B/s, frames/s, writes/s, reconnects, frames per write)";

struct Opts {
    duration: Duration,
    refresh: Duration,
    dcs: usize,
    rate: f64,
    autoscale: bool,
    transport: TransportMode,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        duration: Duration::from_secs(20),
        refresh: Duration::from_millis(500),
        dcs: 2,
        rate: 4_000.0,
        autoscale: false,
        transport: TransportMode::Simnet,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--duration" => {
                opts.duration = Duration::from_secs_f64(parse(&value(&arg, &mut args), &arg))
            }
            "--refresh" => {
                opts.refresh = Duration::from_millis(parse::<u64>(&value(&arg, &mut args), &arg))
            }
            "--dcs" => opts.dcs = parse(&value(&arg, &mut args), &arg),
            "--rate" => opts.rate = parse(&value(&arg, &mut args), &arg),
            "--autoscale" => opts.autoscale = true,
            "--transport" => {
                opts.transport = match value(&arg, &mut args).as_str() {
                    "simnet" => TransportMode::Simnet,
                    "tcp" => TransportMode::Tcp,
                    other => {
                        eprintln!("--transport must be simnet or tcp, got {other}\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("could not parse {flag} value {s:?}\n{USAGE}");
        std::process::exit(2);
    })
}

fn main() {
    let opts = parse_opts();

    let mut cfg = ChariotsConfig::new().datacenters(opts.dcs);
    cfg.flstore = FLStoreConfig::new()
        .maintainers(2)
        .batch_size(32)
        .gossip_interval(Duration::from_millis(2));
    cfg.batcher_flush_threshold = 16;
    cfg.batcher_flush_interval = Duration::from_millis(2);
    let cfg = cfg.transport(opts.transport);
    let wan = LinkConfig::with_latency(Duration::from_millis(3))
        .jitter(Duration::from_micros(500))
        .seed(7);
    // With --autoscale, cap the elastic stages below the append rate so a
    // single machine falls behind and the control plane visibly acts.
    let stations = if opts.autoscale {
        StageStations {
            batcher: StationConfig::with_rate(opts.rate * 0.6),
            queue: StationConfig::with_rate(opts.rate * 0.6),
            ..StageStations::default()
        }
    } else {
        StageStations::default()
    };
    let cluster = ChariotsCluster::launch(cfg, stations, wan).expect("launch cluster");

    // Paced append client into DC 0; its records propagate to every peer.
    // (Opened before the autoscaler takes the cluster: client handles stay
    // valid across reconfigurations.)
    let shutdown = Shutdown::new();
    let client_thread = {
        let mut client = cluster.client(DatacenterId(0));
        let stop = shutdown.clone();
        let rate = opts.rate;
        std::thread::Builder::new()
            .name("chariots-top-client".into())
            .spawn(move || {
                let mut pacer = RateLimiter::new(rate);
                let mut i = 0u64;
                while !stop.is_signaled() {
                    pacer.pace(1);
                    if client
                        .append_async(TagSet::new(), format!("top{i}"))
                        .is_err()
                    {
                        return;
                    }
                    i += 1;
                }
            })
            .expect("spawn client")
    };

    let window_ticks = 16;
    let deadline = Instant::now() + opts.duration;
    let timeline = if opts.autoscale {
        let handle = Autoscaler::launch(cluster, top_autoscale_cfg());
        while Instant::now() < deadline {
            std::thread::sleep(opts.refresh);
            render(&handle.live(window_ticks, 10));
        }
        shutdown.signal();
        let _ = client_thread.join();
        let outcome = handle.stop();
        outcome.cluster.shutdown();
        println!(
            "\nchariots-top: {} scale-outs, {} scale-ins, {} blocked verdicts",
            outcome.summary.scale_outs(),
            outcome.summary.scale_ins(),
            outcome.summary.blocked
        );
        outcome.timeline
    } else {
        let collector = Collector::spawn(cluster.registries(), CollectorConfig::default());
        while Instant::now() < deadline {
            std::thread::sleep(opts.refresh);
            render(&collector.live(window_ticks, 10));
        }
        shutdown.signal();
        let _ = client_thread.join();
        let timeline = collector.stop();
        cluster.shutdown();
        timeline
    };
    println!(
        "\nchariots-top: {} collector ticks, {} journal events over {:?}",
        timeline.ticks.len(),
        timeline.events.len(),
        opts.duration
    );
}

/// A dashboard-speed autoscaler: sub-second reactions so a 20-second run
/// shows scale-out under the capped stages and scale-in once load drops.
fn top_autoscale_cfg() -> AutoscaleConfig {
    let elastic = StagePolicy {
        min: 1,
        max: 4,
        high_backlog: 200.0,
        high_p99_us: 0.0,
        high_batch: 0.0,
        low_frac: 0.1,
        sustain: 3,
        cooldown: Duration::from_secs(2),
        scale_in: true,
    };
    AutoscaleConfig {
        interval: Duration::from_millis(100),
        batcher: elastic.clone(),
        queue: elastic,
        ..AutoscaleConfig::default()
    }
}

/// Clears the terminal and renders one frame of the dashboard.
fn render(live: &LiveView) {
    // ANSI: clear screen, home cursor.
    print!("\x1b[2J\x1b[H");
    println!(
        "chariots-top — up {:.1}s, {} scrapes @ {:?}",
        live.elapsed.as_secs_f64(),
        live.ticks,
        live.interval
    );

    println!("\nthroughput (rolling, rec/s)");
    let mut rates: Vec<&(String, f64)> = live
        .rates
        .iter()
        .filter(|(k, _)| k.ends_with(".in"))
        .collect();
    rates.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, rate) in rates.iter().take(24) {
        println!("  {key:<36} {rate:>10.0}");
    }

    // What moves only for work: an idle ring passes no token, and a quiet
    // sender runs one round per heartbeat.
    println!("\nwake-ups (rolling, /s: token passes per queue, rounds per sender)");
    let mut wakeups: Vec<&(String, f64)> = live
        .rates
        .iter()
        .filter(|(k, _)| {
            k.ends_with(".token_passes") || (k.contains(".sender") && k.ends_with(".rounds"))
        })
        .collect();
    wakeups.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, rate) in wakeups.iter().take(16) {
        println!("  {key:<36} {rate:>10.0}");
    }

    println!("\nhealth gauges (queue depth / occupancy / lag / backlog)");
    let mut gauges: Vec<&(String, i64)> = live
        .gauges
        .iter()
        .filter(|(k, _)| {
            k.ends_with(".queue.depth")
                || k.ends_with(".occupancy")
                || k.ends_with(".cursor_lag")
                || k.ends_with(".wal.backlog")
                || k.ends_with(".replica.lag")
        })
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, v) in gauges.iter().take(24) {
        println!("  {key:<36} {v:>10}");
    }

    // Autoscaler machine counts (present only when the control plane is
    // attached).
    let mut machines: Vec<&(String, i64)> = live
        .gauges
        .iter()
        .filter(|(k, _)| k.ends_with(".machines"))
        .collect();
    if !machines.is_empty() {
        machines.sort_by(|a, b| a.0.cmp(&b.0));
        println!("\nmachines (autoscaler)");
        for (key, v) in machines {
            println!("  {key:<36} {v:>10}");
        }
    }

    // Transport counters (populated only on the TCP backend): rolling
    // socket bytes/s, frames/s, and reconnects/s per endpoint.
    let mut transport: Vec<&(String, f64)> = live
        .rates
        .iter()
        .filter(|(k, _)| k.contains(".chariots.transport."))
        .collect();
    if !transport.is_empty() {
        transport.sort_by(|a, b| a.0.cmp(&b.0));
        println!("\ntransport (rolling: B/s, frames/s, writes/s, reconnects/s)");
        for (key, rate) in transport.iter().take(30) {
            println!("  {key:<52} {rate:>10.0}");
        }
        // How many frames one `write` carried. An endpoint's `frames`
        // counts each frame where it is sent and again where it is
        // decoded; `writes` counts on the sending side only.
        println!("transport (frames per write)");
        for (key, writes) in transport.iter().filter(|(_, rate)| *rate > 0.0) {
            let Some(endpoint) = key.strip_suffix(".writes") else {
                continue;
            };
            let frames = format!("{endpoint}.frames");
            if let Some((_, frames)) = transport.iter().find(|(k, _)| *k == frames) {
                println!("  {endpoint:<52} {:>10.1}", frames / 2.0 / writes);
            }
        }
    }

    println!("\nlatency (rolling window, µs)");
    let mut quantiles: Vec<_> = live
        .quantiles
        .iter()
        .filter(|(k, w)| {
            (k.ends_with(".latency_us")
                || k.ends_with(".fsync_us")
                || k.ends_with(".repl_wait_us")
                || k.ends_with(".serialize_us"))
                && w.count() > 0
        })
        .collect();
    quantiles.sort_by(|a, b| a.0.cmp(&b.0));
    println!("  {:<36} {:>8} {:>8} {:>8}", "stage", "n", "p50", "p99");
    for (key, w) in quantiles.iter().take(12) {
        println!(
            "  {key:<36} {:>8} {:>8} {:>8}",
            w.count(),
            w.percentile(0.50),
            w.percentile(0.99)
        );
    }

    println!("\nevents (newest last)");
    if live.events.is_empty() {
        println!("  (none yet)");
    }
    for e in &live.events {
        println!(
            "  [{:>9.3}s] {:<20} {} {}",
            e.at_us as f64 / 1e6,
            e.kind.label(),
            e.source,
            event_detail(&e.kind)
        );
    }
}

/// Human detail text for the reconfiguration events; empty for kinds whose
/// label already says it all.
fn event_detail(kind: &EventKind) -> String {
    match kind {
        EventKind::ScaleOut {
            stage,
            machines,
            signal_milli,
        } => format!(
            "{stage} → {machines} machines (signal {:.2}× watermark)",
            *signal_milli as f64 / 1000.0
        ),
        EventKind::ScaleIn {
            stage,
            machines,
            signal_milli,
        } => format!(
            "{stage} → {machines} machines (signal {:.2}× watermark)",
            *signal_milli as f64 / 1000.0
        ),
        EventKind::EpochChange { boundary } => format!("new epoch from LId {boundary}"),
        EventKind::CompactionSweep {
            segments_deleted,
            segments_rewritten,
            reclaimed_bytes,
        } => format!(
            "{segments_deleted} deleted, {segments_rewritten} rewritten, {reclaimed_bytes} B freed"
        ),
        EventKind::CheckpointWritten {
            upto,
            entries,
            bytes,
        } => format!("{entries} entries to LId {upto} ({bytes} B)"),
        _ => String::new(),
    }
}
