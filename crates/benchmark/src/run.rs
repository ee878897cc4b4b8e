//! One benchmark run: set-up, the paced measured phase with its probe
//! thread, the audit, and — in a traced run — the saturation burst and
//! the per-layer replays.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use chariots_simnet::MetricsSnapshot;
use chariots_types::{LId, TagSet};

use crate::audit;
use crate::load::{self, AppendLoad, GenReport, Load, MixLoad, GEN_BASE, SAT_BASE};
use crate::probe::{Observer, Probe, ProbeReport, PROBES_PER_SECOND, PROBE_BASE};
use crate::replay;
use crate::spans;
use crate::stats::{mean, median_f64, quantile};
use crate::sys;
use crate::system::{lowest_head, Kind, Spec, System, WAN_ONE_WAY};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Records per preload operation.
const PRELOAD_BATCH: u64 = 100;
/// Records (or `read_mix` operations) in the closed-loop burst that
/// measures saturation.
const SATURATION_RECORDS: u64 = 200_000;
const SATURATION_MIX_OPS: u64 = 60_000;
/// How long set-up, drain and relaunch wait for the log to catch up.
const CATCH_UP: Duration = Duration::from_secs(60);

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Tenth-size preload, one set-up, and missing the offered rate does
    /// not make the run incorrect: for tests of the plumbing.
    pub smoke: bool,
    pub work_dir: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub started: Instant,
}

impl RunArgs {
    fn preload(&self) -> u64 {
        if self.smoke {
            self.spec.preload / 10
        } else {
            self.spec.preload
        }
    }

    fn set_ups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    /// The audit passed and the run held its offered rate.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// What went wrong, and facts a reader of the output needs.
    pub notes: Vec<String>,
    /// Why the measured phase was not at the offered rate, if it was not.
    /// Nothing the system returned was wrong; the numbers mean nothing.
    pub invalid: Option<String>,
}

/// What the log under test holds: the index ranges (`base`, `count`)
/// the run appended.
struct Contents {
    ranges: Vec<(u64, u64)>,
}

impl Contents {
    fn records(&self) -> u64 {
        self.ranges.iter().map(|(_, n)| n).sum()
    }
}

struct SetUp {
    launch_s: f64,
    preload_s: f64,
    total_s: f64,
}

/// What one measured phase produced.
struct Phase {
    seconds: u64,
    gen: GenReport,
    probe: ProbeReport,
    cpu_ns: u64,
    /// Generator operations completed when the last window closed.
    done_at_end: u64,
    /// Process CPU and generator operations, window by window.
    cpu_by_window: Vec<u64>,
    done_by_window: Vec<u64>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Records offered but not yet readable at each window's end.
    backlog: Vec<u64>,
    queue_depth_max: i64,
    cursor_lag_max: i64,
    threads: u64,
    /// `VmHWM` when the last window closed: set-up and measured phase,
    /// without the audit's own reading and relaunching.
    peak_rss_mb: f64,
    /// The Head of the Log once everything the phase appended was
    /// readable, or why that never happened.
    head: Result<u64, String>,
}

fn tags_for(spec: &Spec) -> fn(u64) -> TagSet {
    match spec.kind {
        Kind::ReadMix => load::tagged,
        _ => load::untagged,
    }
}

/// Launches the deployment and appends the preload as fast as the
/// system takes it, until every preloaded record is readable.
fn set_up(
    spec: &Spec,
    preload: u64,
    seed: u64,
    dir: &Path,
    from: Instant,
) -> Result<(System, SetUp, Contents), String> {
    let launch_start = Instant::now();
    let system = System::launch(spec, dir).map_err(|e| format!("launch failed: {e}"))?;
    let launch_s = launch_start.elapsed().as_secs_f64();
    let preload_start = Instant::now();
    let mut load = AppendLoad {
        clients: system.clients(),
        seed,
        base: 0,
        ops_per_tick: 1,
        records_per_op: PRELOAD_BATCH,
        tags_for: tags_for(spec),
    };
    let report = load::run_unpaced(&mut load, preload / PRELOAD_BATCH, from);
    if report.failed > 0 {
        return Err(format!("{} preload appends were refused", report.failed));
    }
    let contents = Contents {
        ranges: vec![(0, preload)],
    };
    system.wait_head(preload, CATCH_UP)?;
    let set_up = SetUp {
        launch_s,
        preload_s: preload_start.elapsed().as_secs_f64(),
        total_s: from.elapsed().as_secs_f64(),
    };
    Ok((system, set_up, contents))
}

fn gauge_max(snapshot: &MetricsSnapshot, suffix: &str) -> i64 {
    snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0)
}

/// One paced phase of `seconds`: the generator and the probe thread run
/// on their schedules while this thread samples once per window.
fn measured_phase(
    system: &System,
    args: &RunArgs,
    contents: &mut Contents,
    epoch: Instant,
) -> Phase {
    let spec = args.spec;
    let (seconds, traced) = (args.seconds, args.traced);
    let mut generator: Box<dyn Load> = match spec.kind {
        Kind::ReadMix => Box::new(MixLoad::new(
            system.client(0),
            args.seed,
            GEN_BASE,
            args.preload(),
        )),
        _ => Box::new(AppendLoad {
            clients: system.clients(),
            seed: args.seed,
            base: GEN_BASE,
            ops_per_tick: spec.ops_per_tick,
            records_per_op: spec.records_per_op,
            tags_for: tags_for(spec),
        }),
    };
    let mut watchers = system.clients();
    let head_before = lowest_head(&mut watchers);
    let probe = Probe {
        appender: system.client(0),
        observer: match spec.kind {
            Kind::Geo2Dc => Observer::Remote {
                tail: system.client(1),
                reader: system.client(1),
                next: LId(head_before),
            },
            _ => Observer::Local,
        },
        seed: args.seed,
        base: PROBE_BASE,
        tags_for: tags_for(spec),
    };
    let probes = seconds * PROBES_PER_SECOND;
    let ticks = spec.ticks_in(seconds);
    let done = AtomicU64::new(0);

    let before = system.metrics();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase {
        seconds,
        gen: GenReport::default(),
        probe: ProbeReport::default(),
        cpu_ns: 0,
        done_at_end: 0,
        cpu_by_window: Vec::new(),
        done_by_window: Vec::new(),
        before,
        after: MetricsSnapshot::empty("unset"),
        backlog: Vec::new(),
        queue_depth_max: 0,
        cursor_lag_max: 0,
        threads: 0,
        peak_rss_mb: 0.0,
        head: Ok(0),
    };
    std::thread::scope(|scope| {
        let gen_thread = std::thread::Builder::new()
            .name("bench-generator".into())
            .spawn_scoped(scope, || {
                load::run_paced(generator.as_mut(), spec, t0, epoch, ticks, traced, &done)
            })
            .expect("spawn generator thread");
        let probe_thread = std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn_scoped(scope, move || probe.run(t0, epoch, probes, traced))
            .expect("spawn probe thread");

        let now = Instant::now();
        if t0 > now {
            std::thread::sleep(t0 - now);
        }
        let cpu_start = sys::process_cpu_ns();
        let (mut cpu_before, mut done_before) = (cpu_start, 0);
        for window in 1..=seconds {
            let end = t0 + Duration::from_secs(window);
            let now = Instant::now();
            if end > now {
                std::thread::sleep(end - now);
            }
            let (cpu_now, done_ops) = (sys::process_cpu_ns(), done.load(Ordering::Relaxed));
            phase.cpu_by_window.push(cpu_now - cpu_before);
            phase.done_by_window.push(done_ops - done_before);
            (cpu_before, done_before) = (cpu_now, done_ops);
            if window == seconds {
                phase.cpu_ns = cpu_now - cpu_start;
                phase.done_at_end = done_ops;
                phase.peak_rss_mb = sys::peak_rss_mb();
            }
            let due_ops = spec.ticks_in(window) * spec.ops_per_tick;
            let unissued = due_ops.saturating_sub(done_ops) * spec.records_per_op;
            let unreadable = match spec.kind {
                Kind::ReadMix => 0,
                _ => (done_ops * spec.records_per_op)
                    .saturating_sub(lowest_head(&mut watchers).saturating_sub(head_before)),
            };
            phase.backlog.push(unissued + unreadable);
            let sample = system.metrics();
            phase.queue_depth_max = phase
                .queue_depth_max
                .max(gauge_max(&sample, ".queue.depth"));
            phase.cursor_lag_max = phase.cursor_lag_max.max(gauge_max(&sample, ".cursor_lag"));
            if window == seconds.div_ceil(2) {
                phase.threads = sys::thread_count();
            }
            if window == seconds {
                phase.after = sample;
            }
        }
        phase.gen = gen_thread.join().expect("generator thread panicked");
        phase.probe = probe_thread.join().expect("probe thread panicked");
        contents.ranges.push((GEN_BASE, phase.gen.records));
        contents
            .ranges
            .push((PROBE_BASE, phase.probe.append_ns.len() as u64));
        phase.head = system.wait_head(contents.records(), CATCH_UP);
    });
    phase
}

impl Phase {
    fn counter(&self, suffix: &str) -> f64 {
        let sum = |s: &MetricsSnapshot| -> u64 {
            s.counters
                .iter()
                .filter(|(name, _)| name.ends_with(suffix))
                .map(|(_, &v)| v)
                .sum()
        };
        sum(&self.after).saturating_sub(sum(&self.before)) as f64
    }

    /// Count and sum of the samples taken during the phase by every
    /// histogram whose name ends with `suffix`.
    fn hist_delta(&self, suffix: &str) -> (u64, u64) {
        let totals = |s: &MetricsSnapshot| -> (u64, u64) {
            s.histograms
                .iter()
                .filter(|(name, _)| name.ends_with(suffix))
                .fold((0, 0), |(n, sum), (_, h)| (n + h.count, sum + h.sum))
        };
        let (n0, sum0) = totals(&self.before);
        let (n1, sum1) = totals(&self.after);
        (n1.saturating_sub(n0), sum1.saturating_sub(sum0))
    }

    fn hist_mean(&self, suffix: &str) -> f64 {
        let (n, sum) = self.hist_delta(suffix);
        sum as f64 / n.max(1) as f64
    }

    /// Client operations completed in the measured windows.
    fn operations(&self, spec: &Spec) -> u64 {
        self.done_at_end * spec.records_per_op + self.probe.append_ns.len() as u64
    }

    fn cpu_us_per_op(&self, spec: &Spec) -> f64 {
        self.cpu_ns as f64 / 1000.0 / self.operations(spec).max(1) as f64
    }

    /// Spans are recorded in every other window only (see
    /// `spans::Recorder`): CPU per operation in the windows with, over the
    /// windows without, minus one.
    fn tracing_overhead(&self, spec: &Spec) -> f64 {
        let per_op = |traced: bool| -> f64 {
            let (cpu, ops) = self
                .cpu_by_window
                .iter()
                .zip(&self.done_by_window)
                .enumerate()
                .filter(|(window, _)| spans::recorded_in(*window as u64) == traced)
                .fold((0, 0), |(cpu, ops), (_, (c, d))| {
                    (cpu + c, ops + d * spec.records_per_op + PROBES_PER_SECOND)
                });
            cpu as f64 / ops.max(1) as f64
        };
        per_op(true) / per_op(false).max(1e-9) - 1.0
    }

    fn achieved_rate_frac(&self, spec: &Spec) -> f64 {
        self.done_at_end as f64 / (spec.ticks_in(self.seconds) * spec.ops_per_tick) as f64
    }

    /// Why the phase's numbers cannot be trusted, if they cannot: the
    /// generator fell behind its schedule, or the system behind the
    /// generator, so the phase was not measured at the offered rate.
    fn invalid_because(&self, spec: &Spec) -> Option<String> {
        let frac = self.achieved_rate_frac(spec);
        if frac < 0.99 {
            return Some(format!("the generator achieved {frac:.4} of its rate"));
        }
        // In step with the generator the backlog is what the system takes
        // in while one record becomes readable: a few milliseconds' worth,
        // 25 ms' across the WAN.
        let last = *self.backlog.last()?;
        let fifth_of_a_second = (spec.ops_per_s() * spec.records_per_op as f64 / 5.0) as u64;
        if last > fifth_of_a_second {
            return Some(format!(
                "when the last window closed the system was {last} records behind the \
                 generator, more than it is offered in 200 ms"
            ));
        }
        // The probe's appends block, so acknowledgements that fall behind
        // (a disk that stalls: the Head runs ahead of durability) put it
        // behind its schedule; its last sample, timed from when it was
        // due, says by how much.
        let behind = Duration::from_nanos(*self.probe.append_ns.last()?);
        (behind > Duration::from_millis(200))
            .then(|| format!("the probe thread ended {behind:?} behind its schedule"))
    }
}

fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Closed-loop burst through the generator's API; returns operations per
/// second and the Head of the Log once the burst was readable.
fn saturation(
    system: &System,
    args: &RunArgs,
    contents: &mut Contents,
    epoch: Instant,
) -> Result<(f64, u64), String> {
    let spec = args.spec;
    let (mut load, ticks, operations): (Box<dyn Load>, u64, u64) = match spec.kind {
        Kind::ReadMix => (
            Box::new(MixLoad::new(
                system.client(0),
                args.seed,
                SAT_BASE,
                args.preload(),
            )),
            SATURATION_MIX_OPS,
            SATURATION_MIX_OPS,
        ),
        _ => (
            Box::new(AppendLoad {
                clients: system.clients(),
                seed: args.seed,
                base: SAT_BASE,
                ops_per_tick: 1,
                records_per_op: PRELOAD_BATCH,
                tags_for: tags_for(spec),
            }),
            SATURATION_RECORDS / PRELOAD_BATCH,
            SATURATION_RECORDS,
        ),
    };
    let start = Instant::now();
    let report = load::run_unpaced(load.as_mut(), ticks, epoch);
    if report.failed > 0 {
        return Err(format!("{} saturation operations failed", report.failed));
    }
    contents.ranges.push((SAT_BASE, report.records));
    let head = system.wait_head(contents.records(), CATCH_UP)?;
    Ok((operations as f64 / start.elapsed().as_secs_f64(), head))
}

/// Reads every datacenter's log back and checks it against what the run
/// appended and what its clients were told.
fn audit_logs(
    system: &System,
    args: &RunArgs,
    ranges: &[(u64, u64)],
    head: u64,
    phase: &Phase,
) -> Result<audit::LogImage, String> {
    let spec = args.spec;
    let tagged = spec.kind == Kind::ReadMix;
    let mut images = Vec::new();
    for (dc, mut client) in system.clients().into_iter().enumerate() {
        let image = audit::read_log(&mut client, args.seed, head, tagged)
            .map_err(|e| format!("datacenter {dc}: {e}"))?;
        audit::check_exactly_once(&image, ranges).map_err(|e| format!("datacenter {dc}: {e}"))?;
        audit::check_host_order(&image).map_err(|e| format!("datacenter {dc}: {e}"))?;
        images.push(image);
    }
    if let [a, b] = &images[..] {
        audit::check_same_records(a, b)?;
    }
    let image = images.swap_remove(0);
    audit::check_ledger(&image, &phase.gen.seen)?;
    audit::check_rules(&image, &phase.gen.rules, args.preload())?;
    Ok(image)
}

/// `flstore_durable` only: stop the store, start it again on the same
/// directory and require the identical log. Returns the restart time.
fn relaunch_and_compare(
    system: System,
    args: &RunArgs,
    dir: &Path,
    image: &audit::LogImage,
) -> Result<(System, f64), String> {
    system.shutdown();
    let start = Instant::now();
    let system = System::launch(args.spec, dir).map_err(|e| format!("relaunch failed: {e}"))?;
    let records = image.index_at.len() as u64;
    system
        .wait_head(records, CATCH_UP)
        .map_err(|e| format!("after the relaunch {e}"))?;
    let restart_s = start.elapsed().as_secs_f64();
    let again = audit::read_log(&mut system.client(0), args.seed, records, false)
        .map_err(|e| format!("after the relaunch: {e}"))?;
    if again.index_at != image.index_at || again.host_toid_at != image.host_toid_at {
        return Err("the relaunched store holds a different log".to_string());
    }
    Ok((system, restart_s))
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let spec = args.spec;
    if sys::allowed_cpus().len() < 2 {
        return Err(format!(
            "the benchmark's threads and the system under test need a processor each; \
             this process may use {}",
            sys::allowed_cpus().len()
        ));
    }
    let run_dir = args
        .work_dir
        .join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let outcome = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome
}

fn run_in(args: &RunArgs, run_dir: &Path) -> Result<RunResult, String> {
    let spec = args.spec;
    let epoch = args.started;
    let mut result = RunResult::default();

    // Set-up, several times over; the last deployment is the one measured.
    let mut set_ups = Vec::new();
    let mut kept = None;
    for i in 0..args.set_ups() {
        let dir = run_dir.join(format!("setup-{i}"));
        let from = if i == 0 { args.started } else { Instant::now() };
        let (system, timing, contents) = set_up(spec, args.preload(), args.seed, &dir, from)?;
        set_ups.push(timing);
        if i + 1 < args.set_ups() {
            system.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((system, dir, contents));
        }
    }
    let (system, data_dir, mut contents) = kept.expect("the last set-up is kept");

    let phase = measured_phase(&system, args, &mut contents, epoch);
    result.attempted = phase.gen.attempted + phase.probe.attempted;
    result.failed = phase.gen.failed + phase.probe.failed;
    let mut head = phase.head.clone();

    let mut sat_per_s = 0.0;
    if args.traced && head.is_ok() {
        let (rate, head_after) = saturation(&system, args, &mut contents, epoch)?;
        sat_per_s = rate;
        head = Ok(head_after);
    }

    // The audit.
    let mut restart_s = 0.0;
    let mut system = Some(system);
    let audited = head.and_then(|head| {
        let running = system.as_ref().expect("still running");
        audit_logs(running, args, &contents.ranges, head, &phase)
    });
    let audited = match (audited, spec.kind) {
        (Ok(image), Kind::FlstoreDurable) => {
            let running = system.take().expect("still running");
            relaunch_and_compare(running, args, &data_dir, &image).map(|(again, s)| {
                system = Some(again);
                restart_s = s;
            })
        }
        (other, _) => other.map(|_| ()),
    };
    if let Err(problem) = &audited {
        result.notes.push(format!("audit failed: {problem}"));
    }
    if result.failed > 0 {
        result.notes.push(format!(
            "failed: {} generator operations; probes: {} appends refused, {} read back wrong, {} never visible",
            phase.gen.failed,
            phase.probe.refused_appends,
            phase.probe.wrong_reads,
            phase.probe.never_visible
        ));
    }
    if phase.probe.early_reads > 0 {
        result.notes.push(format!(
            "{} probe reads below the polled Head were refused by the position's owner and retried",
            phase.probe.early_reads
        ));
    }
    let failovers = phase.counter(".failover.count");
    if failovers > 0.0 {
        result.notes.push(format!(
            "{failovers} replica failovers during the measured phase"
        ));
    }
    let invalid = phase.invalid_because(spec);
    if let Some(why) = &invalid {
        result.notes.push(format!("run invalid: {why}"));
    }
    result.correct = audited.is_ok() && result.failed == 0 && (invalid.is_none() || args.smoke);
    result.invalid = invalid;
    if spec.kind == Kind::Geo2Dc {
        result.notes.push(format!(
            "injected WAN delay: {WAN_ONE_WAY:?} one way, no jitter, no loss"
        ));
    }
    if let Some(system) = system {
        system.shutdown();
    }

    // End-to-end metrics.
    let append = sorted(phase.probe.append_ns.clone());
    let visibility = sorted(phase.probe.visibility_ns.clone());
    let reads = sorted(match spec.kind {
        Kind::ReadMix => phase.gen.point_read_ns.clone(),
        _ => phase.probe.read_ns.clone(),
    });
    let mut totals: Vec<f64> = set_ups.iter().map(|s| s.total_s).collect();
    result.end_to_end = vec![
        ("append_p50_us", quantile(&append, 0.5) / 1e3),
        ("visibility_p50_ms", quantile(&visibility, 0.5) / 1e6),
        ("read_p50_us", quantile(&reads, 0.5) / 1e3),
        ("cpu_us_per_op", phase.cpu_us_per_op(spec)),
        ("peak_rss_mb", phase.peak_rss_mb),
        ("setup_s", median_f64(&mut totals)),
    ];
    result.notes.push(format!(
        "{} probe samples; append p99 {:.1} us, visibility p99 {:.3} ms, read p99 {:.1} us",
        append.len(),
        quantile(&append, 0.99) / 1e3,
        quantile(&visibility, 0.99) / 1e6,
        quantile(&reads, 0.99) / 1e3,
    ));

    if args.traced {
        result.per_layer = per_layer(
            args, &phase, &set_ups, sat_per_s, restart_s, &append, &reads, run_dir,
        );
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.json", spec.name, args.seed));
        let written = spans::write_file(
            &path,
            &[
                ("generator", &phase.gen.spans),
                ("probe", &phase.probe.spans),
            ],
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        result
            .notes
            .push(format!("{written} spans written to {}", path.display()));
    }
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &RunArgs,
    phase: &Phase,
    set_ups: &[SetUp],
    sat_per_s: f64,
    restart_s: f64,
    append: &[u64],
    reads: &[u64],
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let spec = args.spec;
    let pipeline = matches!(spec.kind, Kind::PipelineTcp | Kind::Geo2Dc);
    let appended = phase.counter(".appended").max(1.0);
    let mut out = replay::run(spec.kind, args.seed, scratch);

    // Transport counters of every endpoint, per record through the
    // pipeline (zero under simnet).
    let frames = phase.counter(".frames");
    if frames > 0.0 {
        // Each frame is counted once where it is sent and once where it
        // is decoded.
        out.push(("simnet.transport.frames_per_rec", frames / 2.0 / appended));
        out.push((
            "simnet.transport.bytes_out_per_rec",
            phase.counter(".bytes_out") / appended,
        ));
        out.push((
            "simnet.transport.serialize_us_mean",
            phase.hist_mean(".serialize_us"),
        ));
        out.push(("simnet.transport.reconnects", phase.counter(".reconnects")));
    }

    let (async_ns, async_records) = phase.gen.spans.totals("client.append_async");
    if pipeline {
        out.push((
            "core.client.append_async_ns_per_rec",
            async_ns as f64 / async_records.max(1) as f64,
        ));
        out.push(("core.client.append_p99_us", quantile(append, 0.99) / 1e3));
        out.push((
            "core.batcher.latency_us_mean",
            phase.hist_mean(".batcher.latency_us"),
        ));
        out.push(("core.batcher.queue_depth_max", phase.queue_depth_max as f64));
        out.push((
            "core.filter.latency_us_mean",
            phase.hist_mean(".filter.latency_us"),
        ));
        out.push(("core.filter.dups", phase.counter(".dups")));
        out.push((
            "core.queue.latency_us_mean",
            phase.hist_mean(".queue.latency_us"),
        ));
    } else {
        out.push(("flstore.client.append_p99_us", quantile(append, 0.99) / 1e3));
    }

    out.push((
        "flstore.node.batch_size_mean",
        phase.hist_mean(".flstore.batch.size"),
    ));
    out.push((
        "flstore.node.batch_latency_us_mean",
        phase.hist_mean(if pipeline {
            ".flstore.store.latency_us"
        } else {
            ".flstore.append.latency_us"
        }),
    ));
    out.push((
        "flstore.gossip.rounds_per_s",
        phase.counter(".gossip.rounds") / phase.seconds as f64,
    ));
    if spec.kind == Kind::FlstoreDurable {
        out.push((
            "flstore.wal.syncs_per_krec",
            phase.counter(".wal.sync.count") / (appended / 1000.0),
        ));
        let disk = phase
            .after
            .gauges
            .iter()
            .find(|(n, _)| n.ends_with(".storage.disk_bytes"));
        let stored = phase
            .after
            .counters
            .iter()
            .filter(|(n, _)| n.ends_with(".appended"));
        out.push((
            "flstore.wal.disk_bytes_per_rec",
            disk.map_or(0.0, |(_, &b)| b as f64)
                / stored.map(|(_, &v)| v).sum::<u64>().max(1) as f64,
        ));
        out.push(("flstore.wal.restart_s", restart_s));
        out.push((
            "flstore.replication.fsync_us_mean",
            phase.hist_mean(".commit.fsync_us"),
        ));
        out.push((
            "flstore.replication.repl_wait_us_mean",
            phase.hist_mean(".commit.repl_wait_us"),
        ));
        out.push((
            "flstore.replication.quorum_latency_us_mean",
            phase.hist_mean(".commit.quorum.latency_us"),
        ));
        out.push((
            "flstore.replication.dropped",
            phase.counter(".replication.dropped"),
        ));
    }
    if spec.kind == Kind::ReadMix {
        let hits = phase.counter(".read.cache.hit");
        let lookups = hits + phase.counter(".read.cache.miss");
        out.push(("flstore.client.cache_hit_ratio", hits / lookups.max(1.0)));
        // The probe's Head-of-Log polls and read-backs are read RPCs too;
        // what is left belongs to the generator's reads.
        let probe_rpcs = (phase.probe.polls + phase.probe.read_ns.len() as u64) as f64;
        let gen_reads = phase.gen.point_read_ns.len()
            + phase.gen.read_many_ns.len()
            + phase.gen.read_rule_ns.len();
        out.push((
            "flstore.client.rpc_per_read",
            (phase.counter(".read.rpc.count") - probe_rpcs).max(0.0) / gen_reads.max(1) as f64,
        ));
        out.push((
            "flstore.client.read_batch_size_mean",
            phase.hist_mean(".read.batch.size"),
        ));
        out.push((
            "flstore.client.read_many_p50_us",
            quantile(&sorted(phase.gen.read_many_ns.clone()), 0.5) / 1e3,
        ));
        out.push((
            "flstore.client.read_rule_p50_us",
            quantile(&sorted(phase.gen.read_rule_ns.clone()), 0.5) / 1e3,
        ));
        out.push(("flstore.client.read_p99_us", quantile(reads, 0.99) / 1e3));
    }
    if spec.kind == Kind::Geo2Dc {
        let shipped = phase.counter(".chariots.wan.records").max(1.0);
        out.push((
            "core.sender.round_us_mean",
            phase.hist_mean(".sender.latency_us"),
        ));
        out.push((
            "core.sender.wan_bytes_per_rec",
            phase.counter(".chariots.wan.bytes") / shipped,
        ));
        out.push((
            "core.sender.records_per_chunk",
            shipped / phase.counter(".chariots.wan.chunks").max(1.0),
        ));
        out.push((
            "core.sender.retransmits",
            phase.counter(".chariots.wan.retransmits"),
        ));
        out.push(("core.sender.cursor_lag_max", phase.cursor_lag_max as f64));
        // The receiver's histogram times the hand-off of one message's
        // records to the batchers.
        let received = phase.counter(".receiver0.in");
        let (_, busy_us) = phase.hist_delta(".receiver.latency_us");
        out.push((
            "core.receiver.ingest_ns_per_rec",
            busy_us as f64 * 1000.0 / received.max(1.0),
        ));
    }

    let mut launches: Vec<f64> = set_ups.iter().map(|s| s.launch_s * 1000.0).collect();
    let mut preloads: Vec<f64> = set_ups.iter().map(|s| s.preload_s).collect();
    out.push(("deployment.launch_ms", median_f64(&mut launches)));
    out.push(("deployment.preload_s", median_f64(&mut preloads)));
    out.push(("proc.threads", phase.threads as f64));
    out.push((
        "gen.lateness_p99_us",
        quantile(&sorted(phase.gen.lateness_ns.clone()), 0.99) / 1e3,
    ));
    out.push(("gen.achieved_rate_frac", phase.achieved_rate_frac(spec)));
    out.push(("gen.sat_per_s", sat_per_s));
    out.push((
        "gen.rate_over_sat",
        spec.ops_per_s() * spec.records_per_op as f64 / sat_per_s.max(1.0),
    ));
    out.push(("trace.overhead_frac", phase.tracing_overhead(spec)));
    // What the system's own stage timers add up to, over the mean the
    // probe saw. The pipeline acknowledges when the queue assigns the
    // position, so its sum stops there.
    let stage_sum = if pipeline {
        phase.hist_mean(".batcher.latency_us")
            + phase.hist_mean(".filter.latency_us")
            + phase.hist_mean(".queue.latency_us")
    } else {
        phase.hist_mean(".flstore.append.latency_us")
    };
    out.push((
        "trace.stage_sum_over_e2e",
        stage_sum / (mean(append) / 1e3).max(1e-9),
    ));
    out
}
