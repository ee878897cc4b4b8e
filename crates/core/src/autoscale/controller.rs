//! The background control loop tying sensors, policy, and actuation
//! together, plus its launch/stop lifecycle.
//!
//! [`Autoscaler::launch`] takes ownership of a running
//! [`ChariotsCluster`], spawns a telemetry [`Collector`] over its
//! registries, and starts one controller thread that — every `interval` —
//! scrapes a [`LiveView`], smooths per-stage signals, runs each stage's
//! [`StageGovernor`], and actuates the verdicts. Every action is journaled
//! as a typed [`EventKind::ScaleOut`] / [`EventKind::ScaleIn`] event
//! carrying the triggering signal, counted under
//! `chariots.autoscale.{scaleout,scalein,blocked}.count`, and reflected in
//! the per-stage `chariots.autoscale.dc{N}.{stage}.machines` gauges — all
//! of which flow through the same collector, so dashboards and timelines
//! see the control plane next to the data plane.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chariots_simnet::{
    Collector, CollectorConfig, CollectorHandle, EventKind, Gauge, LiveView, MetricsRegistry,
    Shutdown, Timeline,
};
use chariots_types::DatacenterId;

use super::actuator::Actuator;
use super::policy::{ScaleDecision, StageGovernor, StagePolicy, Verdict};
use super::signals::{ScaleStage, SignalSmoother};
use crate::cluster::ChariotsCluster;

/// The registry (and metric-name prefix) the autoscaler publishes under.
pub const AUTOSCALE_REGISTRY: &str = "chariots.autoscale";

/// Full controller configuration.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Evaluation period.
    pub interval: Duration,
    /// Collector ticks per live window (signal averaging horizon).
    pub window_ticks: usize,
    /// EWMA weight on the newest observation.
    pub alpha: f64,
    /// Batcher-stage policy.
    pub batcher: StagePolicy,
    /// Queue-stage policy.
    pub queue: StagePolicy,
    /// Filter-stage policy (scale-out only).
    pub filter: StagePolicy,
    /// Maintainer-fleet policy (scale-out only, epoch-based).
    pub maintainer: StagePolicy,
    /// Actuation knobs (drain deadline, reassignment margins).
    pub actuator: Actuator,
    /// Telemetry collector configuration (scrape interval, windows).
    pub collector: CollectorConfig,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: Duration::from_millis(100),
            window_ticks: 5,
            alpha: 0.5,
            batcher: StagePolicy {
                min: 1,
                max: 8,
                high_backlog: 500.0,
                high_p99_us: 0.0,
                high_batch: 0.0,
                low_frac: 0.2,
                sustain: 3,
                cooldown: Duration::from_secs(2),
                scale_in: true,
            },
            queue: StagePolicy {
                min: 1,
                max: 8,
                high_backlog: 500.0,
                high_p99_us: 0.0,
                high_batch: 0.0,
                low_frac: 0.2,
                sustain: 3,
                cooldown: Duration::from_secs(2),
                scale_in: true,
            },
            filter: StagePolicy {
                min: 1,
                max: 4,
                high_backlog: 2_000.0,
                high_p99_us: 0.0,
                high_batch: 0.0,
                low_frac: 0.0,
                sustain: 5,
                cooldown: Duration::from_secs(5),
                scale_in: false,
            },
            maintainer: StagePolicy {
                min: 1,
                max: 4,
                high_backlog: 0.0,
                high_p99_us: 0.0,
                high_batch: 0.0, // disabled by default: opt in per deployment
                low_frac: 0.0,
                sustain: 5,
                cooldown: Duration::from_secs(5),
                scale_in: false,
            },
            actuator: Actuator::default(),
            collector: CollectorConfig::default(),
        }
    }
}

impl AutoscaleConfig {
    fn policy_for(&self, stage: ScaleStage) -> &StagePolicy {
        match stage {
            ScaleStage::Batcher => &self.batcher,
            ScaleStage::Queue => &self.queue,
            ScaleStage::Filter => &self.filter,
            ScaleStage::Maintainer => &self.maintainer,
        }
    }
}

/// One actuated reconfiguration, as recorded in the run summary.
#[derive(Debug, Clone)]
pub struct ScaleAction {
    /// Time since the autoscaler launched.
    pub at: Duration,
    /// Datacenter acted on.
    pub dc: u16,
    /// Stage acted on.
    pub stage: ScaleStage,
    /// Direction.
    pub decision: ScaleDecision,
    /// The normalized signal that triggered the action.
    pub signal: f64,
    /// Machines in the stage after the action.
    pub machines: usize,
}

/// What the control loop did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct AutoscaleSummary {
    /// Evaluation rounds completed.
    pub evals: u64,
    /// Every actuated action, in order.
    pub actions: Vec<ScaleAction>,
    /// Would-be actions denied by bounds or cooldown.
    pub blocked: u64,
}

impl AutoscaleSummary {
    /// Actuated scale-outs.
    pub fn scale_outs(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| a.decision == ScaleDecision::Out)
            .count()
    }

    /// Actuated scale-ins.
    pub fn scale_ins(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| a.decision == ScaleDecision::In)
            .count()
    }
}

/// Everything handed back when the autoscaler stops: the cluster (still
/// running), the full telemetry timeline, and the action summary.
pub struct AutoscaleOutcome {
    /// The cluster, ownership returned to the caller.
    pub cluster: ChariotsCluster,
    /// The collector's complete windowed timeline (includes the
    /// autoscaler's own events and gauges).
    pub timeline: Timeline,
    /// The control loop's action record.
    pub summary: AutoscaleSummary,
}

/// The autoscaling control plane. See [`Autoscaler::launch`].
pub struct Autoscaler;

struct ControlContext {
    cluster: Arc<parking_lot::Mutex<ChariotsCluster>>,
    collector: Arc<CollectorHandle>,
    registry: MetricsRegistry,
    cfg: AutoscaleConfig,
    shutdown: Shutdown,
}

impl Autoscaler {
    /// Takes ownership of a running cluster and closes the loop over it.
    ///
    /// Client handles opened *before* launch stay valid — they hold their
    /// own references into the pipeline — so the usual shape is: launch
    /// the cluster, open clients, then hand the cluster to the autoscaler
    /// and drive load. [`AutoscalerHandle::stop`] returns the cluster.
    pub fn launch(cluster: ChariotsCluster, cfg: AutoscaleConfig) -> AutoscalerHandle {
        let collector = Collector::spawn(cluster.registries(), cfg.collector.clone());
        let registry = MetricsRegistry::new(AUTOSCALE_REGISTRY);
        // Pre-create the counters and gauges so they exist (at zero) from
        // the first scrape, then attach the registry to the collector:
        // the control plane's own telemetry rides the same timeline.
        registry.counter(&format!("{AUTOSCALE_REGISTRY}.scaleout.count"));
        registry.counter(&format!("{AUTOSCALE_REGISTRY}.scalein.count"));
        registry.counter(&format!("{AUTOSCALE_REGISTRY}.blocked.count"));
        for dcn in 0..cluster.len() as u16 {
            let dc = cluster.dc(DatacenterId(dcn));
            for stage in ScaleStage::ALL {
                let count = stage_count(dc, stage);
                machines_gauge(&registry, dcn, stage).set(count as i64);
            }
        }
        collector.attach(&registry);

        let shutdown = Shutdown::new();
        let ctx = ControlContext {
            cluster: Arc::new(parking_lot::Mutex::new(cluster)),
            collector: Arc::new(collector),
            registry: registry.clone(),
            cfg,
            shutdown: shutdown.clone(),
        };
        let cluster = Arc::clone(&ctx.cluster);
        let collector = Arc::clone(&ctx.collector);
        let thread = std::thread::Builder::new()
            .name("autoscaler".into())
            .spawn(move || control_loop(ctx))
            .expect("spawn autoscaler thread");
        AutoscalerHandle {
            cluster,
            collector,
            registry,
            shutdown,
            thread: Some(thread),
        }
    }
}

/// Handle to a running autoscaler.
pub struct AutoscalerHandle {
    cluster: Arc<parking_lot::Mutex<ChariotsCluster>>,
    collector: Arc<CollectorHandle>,
    registry: MetricsRegistry,
    shutdown: Shutdown,
    thread: Option<JoinHandle<AutoscaleSummary>>,
}

impl AutoscalerHandle {
    /// A non-destructive live view over the whole deployment *plus* the
    /// autoscaler's own counters, gauges, and scale events.
    pub fn live(&self, window_ticks: usize, recent_events: usize) -> LiveView {
        self.collector.live(window_ticks, recent_events)
    }

    /// The autoscaler's own registry (`chariots.autoscale.*`).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs `f` against the cluster under the control-plane lock. Keep it
    /// short: the control loop shares this lock and cannot evaluate while
    /// `f` runs.
    pub fn with_cluster<R>(&self, f: impl FnOnce(&ChariotsCluster) -> R) -> R {
        f(&self.cluster.lock())
    }

    /// Stops the control loop and the collector, returning the cluster,
    /// the full timeline, and the action summary.
    pub fn stop(mut self) -> AutoscaleOutcome {
        self.shutdown.signal();
        let summary = self
            .thread
            .take()
            .expect("stop called once")
            .join()
            .expect("autoscaler thread panicked");
        let AutoscalerHandle {
            cluster, collector, ..
        } = self;
        let collector = Arc::try_unwrap(collector)
            .ok()
            .expect("control thread joined: last collector ref");
        let timeline = collector.stop();
        let cluster = Arc::try_unwrap(cluster)
            .ok()
            .expect("control thread joined: last cluster ref")
            .into_inner();
        AutoscaleOutcome {
            cluster,
            timeline,
            summary,
        }
    }
}

fn machines_gauge(registry: &MetricsRegistry, dc: u16, stage: ScaleStage) -> Gauge {
    registry.gauge(&format!("{AUTOSCALE_REGISTRY}.dc{dc}.{stage}.machines"))
}

fn stage_count(dc: &crate::datacenter::ChariotsDc, stage: ScaleStage) -> usize {
    match stage {
        ScaleStage::Batcher => dc.batcher_count(),
        ScaleStage::Queue => dc.queue_count(),
        ScaleStage::Filter => dc.filter_count(),
        ScaleStage::Maintainer => dc.maintainer_count(),
    }
}

fn control_loop(ctx: ControlContext) -> AutoscaleSummary {
    let start = Instant::now();
    let mut summary = AutoscaleSummary::default();
    let mut smoother = SignalSmoother::new(ctx.cfg.alpha);
    let mut governors: HashMap<(u16, ScaleStage), StageGovernor> = HashMap::new();
    let scaleout = ctx
        .registry
        .counter(&format!("{AUTOSCALE_REGISTRY}.scaleout.count"));
    let scalein = ctx
        .registry
        .counter(&format!("{AUTOSCALE_REGISTRY}.scalein.count"));
    let blocked = ctx
        .registry
        .counter(&format!("{AUTOSCALE_REGISTRY}.blocked.count"));

    while !ctx.shutdown.is_signaled() {
        std::thread::sleep(ctx.cfg.interval);
        if ctx.shutdown.is_signaled() {
            break;
        }
        let view = ctx.collector.live(ctx.cfg.window_ticks, 0);
        let now = Instant::now();
        let mut cluster = ctx.cluster.lock();
        let num_dcs = cluster.len() as u16;
        for dcn in 0..num_dcs {
            for stage in ScaleStage::ALL {
                let machines = stage_count(cluster.dc(DatacenterId(dcn)), stage);
                let sig = smoother.observe(&view, dcn, stage);
                let governor = governors
                    .entry((dcn, stage))
                    .or_insert_with(|| StageGovernor::new(ctx.cfg.policy_for(stage).clone()));
                match governor.decide(now, &sig, machines) {
                    Verdict::Hold => {}
                    Verdict::Blocked { .. } => blocked.add(1),
                    Verdict::Act { decision, signal } => {
                        let dc = cluster.dc_mut(DatacenterId(dcn));
                        match ctx.cfg.actuator.apply(dc, stage, decision) {
                            Err(_) => blocked.add(1),
                            Ok(count) => {
                                record_action(
                                    &ctx.registry,
                                    &mut summary,
                                    start,
                                    dcn,
                                    stage,
                                    decision,
                                    signal,
                                    count,
                                );
                                match decision {
                                    ScaleDecision::Out => scaleout.add(1),
                                    ScaleDecision::In => scalein.add(1),
                                }
                                machines_gauge(&ctx.registry, dcn, stage).set(count as i64);
                            }
                        }
                    }
                }
            }
        }
        drop(cluster);
        summary.evals += 1;
    }
    summary.blocked = blocked.get();
    summary
}

#[allow(clippy::too_many_arguments)]
fn record_action(
    registry: &MetricsRegistry,
    summary: &mut AutoscaleSummary,
    start: Instant,
    dcn: u16,
    stage: ScaleStage,
    decision: ScaleDecision,
    signal: f64,
    machines: usize,
) {
    let signal_milli = (signal * 1000.0).round().max(0.0) as u64;
    let kind = match decision {
        ScaleDecision::Out => EventKind::ScaleOut {
            stage: stage.name().to_string(),
            machines: machines as u64,
            signal_milli,
        },
        ScaleDecision::In => EventKind::ScaleIn {
            stage: stage.name().to_string(),
            machines: machines as u64,
            signal_milli,
        },
    };
    registry
        .journal()
        .publish(&format!("autoscale.dc{dcn}"), None, kind);
    summary.actions.push(ScaleAction {
        at: start.elapsed(),
        dc: dcn,
        stage,
        decision,
        signal,
        machines,
    });
}
