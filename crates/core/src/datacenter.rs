//! One Chariots datacenter: the full §6.2 pipeline wired together.
//!
//! ```text
//! clients ─┐
//!          ├─► batchers ─► filters ─► queues ─► log maintainers (FLStore)
//! receivers┘     ▲                      │(token ring)      │
//!     ▲          └──────────────────────┘                  ▼
//!     └──────────────── WAN ◄──────────────────────── senders
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chariots_simnet::{
    Counter, Endpoint, LinkSender, MetricsRegistry, MetricsSnapshot, Notify, PipelineTracer,
    ServiceStation, Shutdown, StationConfig, TransportMetrics,
};
use chariots_types::{
    ChariotsConfig, ChariotsError, DatacenterId, LId, Result, TransportMode, Wire,
};
use crossbeam::channel::Receiver;
use parking_lot::RwLock;

use chariots_flstore::FLStore;

use crate::atable::ATable;
use crate::message::PropagationMsg;
use crate::routing_plan::RoutingPlan;
use crate::stages::batcher::{spawn_batcher, BatcherHandle};
use crate::stages::filter::{spawn_filter, FilterCore, FilterHandle, FilterIngress, FilterRouting};
use crate::stages::queue::{spawn_queue, QueueHandle, QueueIngress, QueueNodeConfig, QueueRing};
use crate::stages::receiver::spawn_receiver;
use crate::stages::sender::{spawn_sender, SenderHealth, SenderMetrics, SenderNode};
use crate::stages::{StageHealth, STAGE_NAMES};
use crate::token::Token;

/// Per-stage capacity models for the simulated machines (see `DESIGN.md`
/// §3 for the substitution rationale). Default: uncapped (correctness
/// mode); the bench harness caps them to reproduce the paper's tables.
#[derive(Debug, Clone)]
pub struct StageStations {
    /// Batcher machines.
    pub batcher: StationConfig,
    /// Filter machines.
    pub filter: StationConfig,
    /// Queue machines.
    pub queue: StationConfig,
    /// Log-maintainer (store) machines.
    pub store: StationConfig,
    /// Sender machines.
    pub sender: StationConfig,
    /// Receiver machines.
    pub receiver: StationConfig,
}

impl Default for StageStations {
    fn default() -> Self {
        StageStations {
            batcher: StationConfig::uncapped(),
            filter: StationConfig::uncapped(),
            queue: StationConfig::uncapped(),
            store: StationConfig::uncapped(),
            sender: StationConfig::uncapped(),
            receiver: StationConfig::uncapped(),
        }
    }
}

impl StageStations {
    /// Every stage machine capped at the same rate — the paper's
    /// homogeneous clusters.
    pub fn uniform(rate: f64) -> Self {
        StageStations {
            batcher: StationConfig::with_rate(rate),
            filter: StationConfig::with_rate(rate),
            queue: StationConfig::with_rate(rate),
            store: StationConfig::with_rate(rate),
            sender: StationConfig::with_rate(rate),
            receiver: StationConfig::with_rate(rate),
        }
    }
}

/// A running Chariots datacenter.
pub struct ChariotsDc {
    dc: DatacenterId,
    cfg: ChariotsConfig,
    flstore: FLStore,
    maintainer_registry: Arc<RwLock<Vec<chariots_flstore::ReplicaGroupHandle>>>,
    atable: Arc<RwLock<ATable>>,
    batchers: Arc<RwLock<Vec<BatcherHandle>>>,
    filters: Vec<FilterHandle>,
    filter_ingresses: Arc<RwLock<Vec<FilterIngress>>>,
    queues: Vec<QueueHandle>,
    queue_ring: QueueRing,
    queue_ingresses: Arc<RwLock<Vec<QueueIngress>>>,
    plan: Arc<RwLock<RoutingPlan>>,
    stations: StageStations,
    /// The senders' wakeup, handed to late-added queues too.
    sender_wakeup: Notify,
    registry: MetricsRegistry,
    tracer: PipelineTracer,
    gc_floor: AtomicU64,
    shutdown: Shutdown,
    /// Lifetime spawn counts per elastic stage. Node names and metric keys
    /// are derived from these, never from list positions, so a retired
    /// node's name is never reused (reusing it would silently alias
    /// registry entries and stale collector windows).
    spawned_batchers: usize,
    spawned_queues: usize,
    /// Worker threads for the retireable stages, index-aligned with the
    /// corresponding handle lists so retire can join exactly one thread.
    batcher_threads: Vec<JoinHandle<()>>,
    queue_threads: Vec<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl ChariotsDc {
    /// Launches a datacenter.
    ///
    /// * `wan_rx` — ingress channel carrying [`PropagationMsg`]s from every
    ///   peer (the cluster wires the links; a lone datacenter passes an
    ///   idle channel).
    /// * `peers` — egress link senders, one per peer datacenter.
    pub fn launch(
        dc: DatacenterId,
        cfg: ChariotsConfig,
        stations: StageStations,
        wan_rx: Receiver<PropagationMsg>,
        peers: Vec<(DatacenterId, LinkSender<PropagationMsg>)>,
    ) -> Result<Self> {
        cfg.validate().map_err(ChariotsError::InvalidConfig)?;
        let shutdown = Shutdown::new();
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut batcher_threads: Vec<JoinHandle<()>> = Vec::new();
        let mut queue_threads: Vec<JoinHandle<()>> = Vec::new();

        // Observability: the per-DC metrics registry and the sampled
        // record tracer all six stages stamp into (see DESIGN.md
        // "Observability" for the naming scheme).
        let prefix = format!("dc{}", dc.0);
        let registry = MetricsRegistry::new(prefix.clone());
        let tracer = PipelineTracer::new(&STAGE_NAMES, cfg.trace_sample_every, &registry, &prefix);

        // Log maintainers (FLStore) — §5, reused as the persistence stage.
        let flstore = FLStore::launch_with(dc, cfg.flstore.clone(), stations.store.clone(), None)?;
        flstore.set_store_tracer(tracer.stage("store"));
        let controller = flstore.controller().clone();
        let maintainers: Arc<RwLock<Vec<chariots_flstore::ReplicaGroupHandle>>> =
            Arc::new(RwLock::new(flstore.maintainers().to_vec()));
        for (i, m) in flstore.maintainers().iter().enumerate() {
            registry.register_counter(format!("{prefix}.store{i}.in"), m.appended_counter());
        }

        let atable = Arc::new(RwLock::new(ATable::new(cfg.num_datacenters)));

        // The senders' wakeup: queues signal it when new local records are
        // routed, and nothing else does — a peer's gossip changes nothing a
        // round would ship.
        let sender_wakeup = Notify::new();

        // Queues: each joins the token ring as it is spawned.
        let n_q = cfg.stages.queues;
        let queue_ring = QueueRing::new();
        let mut queues = Vec::with_capacity(n_q);
        for i in 0..n_q {
            let station = Arc::new(ServiceStation::new(
                format!("{dc}-queue-{i}"),
                stations.queue.clone(),
            ));
            let (handle, thread) = spawn_queue(
                QueueNodeConfig {
                    dc,
                    carries_deferred: cfg.token_carries_deferred,
                    controller: controller.clone(),
                    maintainers: Arc::clone(&maintainers),
                    atable: Arc::clone(&atable),
                    ring: queue_ring.clone(),
                    tracer: tracer.stage("queue"),
                    store_tracer: tracer.stage("store"),
                    sender_wakeup: sender_wakeup.clone(),
                    health: StageHealth::registered(&registry, &prefix, &format!("queue{i}")),
                },
                station,
                shutdown.clone(),
                format!("{dc}-queue-{i}"),
            );
            register_queue_counters(&registry, &prefix, i, &handle);
            queues.push(handle);
            queue_threads.push(thread);
        }
        // Exactly one token exists; it starts at queue 0.
        queues[0].inject_token(Token::new(cfg.num_datacenters));
        // Under the TCP transport every intra-DC hop crosses a real
        // loopback socket: the ingress handles handed to the upstream
        // stage carry a reconnecting `TcpSender` instead of the channel.
        let mut ingresses = Vec::with_capacity(queues.len());
        for (i, q) in queues.iter().enumerate() {
            let mut ingress = q.ingress();
            wire_stage(
                &cfg,
                &mut ingress.to,
                &registry,
                &format!("queue{i}"),
                &shutdown,
            )?;
            ingresses.push(ingress);
        }
        let queue_ingresses = Arc::new(RwLock::new(ingresses));

        // Filters, governed by the shared routing plan (future
        // reassignment support, §6.3).
        let plan = Arc::new(RwLock::new(RoutingPlan::new(FilterRouting::new(
            cfg.stages.filters,
            cfg.num_datacenters,
        ))));
        let mut filters = Vec::with_capacity(cfg.stages.filters);
        for i in 0..cfg.stages.filters {
            let station = Arc::new(ServiceStation::new(
                format!("{dc}-filter-{i}"),
                stations.filter.clone(),
            ));
            let (handle, thread) = spawn_filter(
                FilterCore::new(i, Arc::clone(&plan)),
                Arc::clone(&queue_ingresses),
                station,
                shutdown.clone(),
                format!("{dc}-filter-{i}"),
                tracer.stage("filter"),
                StageHealth::registered(&registry, &prefix, &format!("filter{i}")),
            );
            registry.register_counter(format!("{prefix}.filter{i}.in"), handle.processed_counter());
            registry.register_counter(
                format!("{prefix}.filter{i}.dups"),
                handle.duplicates_counter(),
            );
            filters.push(handle);
            threads.push(thread);
        }
        let mut f_ingresses = Vec::with_capacity(filters.len());
        for (i, f) in filters.iter().enumerate() {
            let mut ingress = f.ingress();
            wire_stage(
                &cfg,
                &mut ingress.to,
                &registry,
                &format!("filter{i}"),
                &shutdown,
            )?;
            f_ingresses.push(ingress);
        }
        let filter_ingresses = Arc::new(RwLock::new(f_ingresses));

        // Batchers.
        let n_b = cfg.stages.batchers;
        let mut batcher_handles = Vec::with_capacity(n_b);
        for i in 0..n_b {
            let station = Arc::new(ServiceStation::new(
                format!("{dc}-batcher-{i}"),
                stations.batcher.clone(),
            ));
            let (handle, thread) = spawn_batcher(
                Arc::clone(&plan),
                cfg.batcher_flush_threshold,
                cfg.batcher_flush_interval,
                Arc::clone(&filter_ingresses),
                station,
                shutdown.clone(),
                format!("{dc}-batcher-{i}"),
                tracer.stage("batcher"),
                StageHealth::registered(&registry, &prefix, &format!("batcher{i}")),
            );
            registry.register_counter(
                format!("{prefix}.batcher{i}.in"),
                handle.processed_counter(),
            );
            let mut handle = handle;
            wire_stage(
                &cfg,
                &mut handle.to,
                &registry,
                &format!("batcher{i}"),
                &shutdown,
            )?;
            batcher_handles.push(handle);
            batcher_threads.push(thread);
        }
        let batchers = Arc::new(RwLock::new(batcher_handles));

        // Receivers and senders (multi-datacenter only).
        if cfg.num_datacenters > 1 {
            for i in 0..cfg.stages.receivers {
                let station = Arc::new(ServiceStation::new(
                    format!("{dc}-receiver-{i}"),
                    stations.receiver.clone(),
                ));
                let (counter, thread) = spawn_receiver(
                    wan_rx.clone(),
                    Arc::clone(&batchers),
                    Arc::clone(&atable),
                    station,
                    shutdown.clone(),
                    format!("{dc}-receiver-{i}"),
                    tracer.clone(),
                    StageHealth::registered(&registry, &prefix, &format!("receiver{i}")),
                );
                registry.register_counter(format!("{prefix}.receiver{i}.in"), counter);
                threads.push(thread);
            }
            let wan_metrics = SenderMetrics::registered(&registry, &prefix);
            let peer_ids: Vec<DatacenterId> = peers.iter().map(|(p, _)| *p).collect();
            for i in 0..cfg.stages.senders {
                // Sender i is responsible for maintainers i, i+S, i+2S, …
                let node = SenderNode::new(
                    dc,
                    Arc::clone(&maintainers),
                    i,
                    cfg.stages.senders,
                    Arc::clone(&atable),
                    peers.clone(),
                )
                .with_retransmit_timeout(cfg.retransmit_timeout)
                .with_metrics(wan_metrics.clone())
                .with_health(SenderHealth::registered(
                    &registry,
                    &prefix,
                    &format!("sender{i}"),
                    &peer_ids,
                ));
                let station = Arc::new(ServiceStation::new(
                    format!("{dc}-sender-{i}"),
                    stations.sender.clone(),
                ));
                let (counter, thread) = spawn_sender(
                    node,
                    cfg.propagation_interval,
                    sender_wakeup.clone(),
                    station,
                    shutdown.clone(),
                    format!("{dc}-sender-{i}"),
                    tracer.stage("sender"),
                );
                registry.register_counter(format!("{prefix}.sender{i}.in"), counter);
                threads.push(thread);
            }
        }

        Ok(ChariotsDc {
            dc,
            cfg,
            flstore,
            maintainer_registry: maintainers,
            atable,
            batchers,
            filters,
            filter_ingresses,
            queues,
            queue_ring,
            queue_ingresses,
            plan,
            stations,
            sender_wakeup,
            registry,
            tracer,
            gc_floor: AtomicU64::new(0),
            shutdown,
            spawned_batchers: n_b,
            spawned_queues: n_q,
            batcher_threads,
            queue_threads,
            threads,
        })
    }

    /// This datacenter's id.
    pub fn id(&self) -> DatacenterId {
        self.dc
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ChariotsConfig {
        &self.cfg
    }

    /// The FLStore backing the log-maintainers stage.
    pub fn flstore(&self) -> &FLStore {
        &self.flstore
    }

    /// The shared awareness table.
    pub fn atable(&self) -> Arc<RwLock<ATable>> {
        Arc::clone(&self.atable)
    }

    /// The batcher nodes' handles (bench harness drives them directly to
    /// model client machines with their own pacing and backpressure).
    pub fn batcher_handles(&self) -> Vec<crate::stages::batcher::BatcherHandle> {
        self.batchers.read().clone()
    }

    /// Shared access to the batcher list (client handles).
    pub(crate) fn batchers(&self) -> Arc<RwLock<Vec<BatcherHandle>>> {
        Arc::clone(&self.batchers)
    }

    /// Opens an application-client session.
    pub fn client(&self) -> crate::client::ChariotsClient {
        crate::client::ChariotsClient::connect(self)
    }

    /// Live elasticity (§6.3): adds a batcher. "A new batcher need[s] to
    /// inform local receivers of its existence" — here, it registers in the
    /// shared list both receivers and clients consult.
    pub fn add_batcher(&mut self) -> usize {
        let idx = self.spawned_batchers;
        self.spawned_batchers += 1;
        let station = Arc::new(ServiceStation::new(
            format!("{}-batcher-{idx}", self.dc),
            self.stations.batcher.clone(),
        ));
        let (handle, thread) = spawn_batcher(
            Arc::clone(&self.plan),
            self.cfg.batcher_flush_threshold,
            self.cfg.batcher_flush_interval,
            Arc::clone(&self.filter_ingresses),
            station,
            self.shutdown.clone(),
            format!("{}-batcher-{idx}", self.dc),
            self.tracer.stage("batcher"),
            StageHealth::registered(
                &self.registry,
                &format!("dc{}", self.dc.0),
                &format!("batcher{idx}"),
            ),
        );
        self.registry.register_counter(
            format!("dc{}.batcher{idx}.in", self.dc.0),
            handle.processed_counter(),
        );
        let mut handle = handle;
        self.wire_elastic(&mut handle.to, &format!("batcher{idx}"));
        self.batchers.write().push(handle);
        self.batcher_threads.push(thread);
        idx
    }

    /// Scale-in (drain-and-retire): removes the most recently added
    /// batcher. Popping the handle from the shared list under its write
    /// lock is the admission barrier — clients and receivers hold the read
    /// lock for the duration of each send, so once the lock is released no
    /// new record can reach the victim. The node then serves and flushes
    /// everything already admitted before its thread exits, so nothing is
    /// lost. Errors if only one batcher remains.
    pub fn retire_batcher(&mut self) -> Result<()> {
        let victim = {
            let mut batchers = self.batchers.write();
            if batchers.len() <= 1 {
                return Err(ChariotsError::InvalidConfig(
                    "cannot retire the last batcher".into(),
                ));
            }
            batchers.pop().expect("non-empty")
        };
        victim.begin_retire();
        if let Some(t) = self.batcher_threads.pop() {
            let _ = t.join();
        }
        Ok(())
    }

    /// Live elasticity (§6.3): adds a queue to the token ring, after the
    /// last one, and registers it with the filters — which needs no
    /// coordination "because a queue can receive any record".
    pub fn add_queue(&mut self) -> usize {
        let idx = self.spawned_queues;
        self.spawned_queues += 1;
        let prefix = format!("dc{}", self.dc.0);
        let station = Arc::new(ServiceStation::new(
            format!("{}-queue-{idx}", self.dc),
            self.stations.queue.clone(),
        ));
        let (handle, thread) = spawn_queue(
            QueueNodeConfig {
                dc: self.dc,
                carries_deferred: self.cfg.token_carries_deferred,
                controller: self.flstore.controller().clone(),
                maintainers: Arc::clone(&self.maintainer_registry),
                atable: Arc::clone(&self.atable),
                ring: self.queue_ring.clone(),
                tracer: self.tracer.stage("queue"),
                store_tracer: self.tracer.stage("store"),
                sender_wakeup: self.sender_wakeup.clone(),
                health: StageHealth::registered(&self.registry, &prefix, &format!("queue{idx}")),
            },
            station,
            self.shutdown.clone(),
            format!("{}-queue-{idx}", self.dc),
        );
        register_queue_counters(&self.registry, &prefix, idx, &handle);
        let mut ingress = handle.ingress();
        self.wire_elastic(&mut ingress.to, &format!("queue{idx}"));
        self.queue_ingresses.write().push(ingress);
        self.queues.push(handle);
        self.queue_threads.push(thread);
        idx
    }

    /// Scale-in (drain-and-retire): removes the most recently added queue
    /// from the token ring. Steps, in order:
    ///
    /// 1. Pop the victim's ingress under the shared list's write lock —
    ///    filters hold the read lock for the duration of each send, so
    ///    after this no new record reaches the victim.
    /// 2. Signal the drain, which brings the token to the victim; on its
    ///    visit the victim evicts parked records onto it and confirms —
    ///    while holding it — that its inbox, staged set, and parked set are
    ///    empty.
    /// 3. Take the victim out of the ring and stop it; its loop forwards
    ///    the token first if it rests there, preserving the deployment's
    ///    single token.
    ///
    /// If the drain misses `drain_timeout`, the retire is cancelled, the
    /// ingress restored, and `Unavailable` returned — the ring is left
    /// exactly as it was. Errors with `InvalidConfig` if only one queue
    /// remains.
    pub fn retire_queue(&mut self, drain_timeout: Duration) -> Result<()> {
        if self.queues.len() <= 1 {
            return Err(ChariotsError::InvalidConfig(
                "cannot retire the last queue".into(),
            ));
        }
        // Admission barrier (step 1).
        self.queue_ingresses.write().pop();
        let victim = self.queues.last().expect("non-empty").clone();
        victim.begin_retire();
        let deadline = Instant::now() + drain_timeout;
        while !victim.is_drained() {
            if Instant::now() >= deadline {
                victim.cancel_retire();
                self.queue_ingresses.write().push(victim.ingress());
                return Err(ChariotsError::Unavailable(
                    "queue drain timed out; retire cancelled".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Out of the ring and stopped (step 3), then joined.
        victim.finish_retire();
        self.queues.pop();
        if let Some(t) = self.queue_threads.pop() {
            let _ = t.join();
        }
        Ok(())
    }

    /// Live batcher machines (the autoscaler's per-stage gauge source).
    pub fn batcher_count(&self) -> usize {
        self.batchers.read().len()
    }

    /// Live queue machines.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Live filter machines.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Live maintainer groups.
    pub fn maintainer_count(&self) -> usize {
        self.maintainer_registry.read().len()
    }

    /// Live elasticity (§6.3): adds a filter via *future reassignment*.
    ///
    /// The championing switch takes effect at a TOId boundary chosen far
    /// beyond anything currently in flight (`margin` past the highest TOId
    /// this datacenter knows of), giving the announcement "enough time to
    /// propagate … to batchers". Returns the new filter's index.
    pub fn add_filter(&mut self, margin: u64) -> usize {
        let idx = self.filters.len();
        let new_routing = FilterRouting::new(idx + 1, self.cfg.num_datacenters);
        // Boundary: beyond every TOId any host is known to have produced.
        let max_known = {
            let atable = self.atable.read();
            (0..self.cfg.num_datacenters)
                .map(|h| {
                    let h = DatacenterId(h as u16);
                    (0..self.cfg.num_datacenters)
                        .map(|i| atable.get(DatacenterId(i as u16), h).0)
                        .max()
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0)
        };
        let boundary = chariots_types::TOId(max_known + margin.max(1));
        // Spawn the filter before activating the epoch so it exists when
        // the first post-boundary record routes to it.
        let station = Arc::new(ServiceStation::new(
            format!("{}-filter-{idx}", self.dc),
            self.stations.filter.clone(),
        ));
        let (handle, thread) = spawn_filter(
            FilterCore::new(idx, Arc::clone(&self.plan)),
            Arc::clone(&self.queue_ingresses),
            station,
            self.shutdown.clone(),
            format!("{}-filter-{idx}", self.dc),
            self.tracer.stage("filter"),
            StageHealth::registered(
                &self.registry,
                &format!("dc{}", self.dc.0),
                &format!("filter{idx}"),
            ),
        );
        self.registry.register_counter(
            format!("dc{}.filter{idx}.in", self.dc.0),
            handle.processed_counter(),
        );
        self.registry.register_counter(
            format!("dc{}.filter{idx}.dups", self.dc.0),
            handle.duplicates_counter(),
        );
        let mut ingress = handle.ingress();
        self.wire_elastic(&mut ingress.to, &format!("filter{idx}"));
        self.filter_ingresses.write().push(ingress);
        self.filters.push(handle);
        self.threads.push(thread);
        self.plan.write().announce(boundary, new_routing);
        idx
    }

    /// The queue nodes' handles (fault injection and diagnostics).
    pub fn queue_handles(&self) -> &[QueueHandle] {
        &self.queues
    }

    /// The shared filter-routing plan (diagnostics).
    pub fn routing_plan(&self) -> Arc<RwLock<RoutingPlan>> {
        Arc::clone(&self.plan)
    }

    /// Live elasticity (§6.3): expands the FLStore maintainer fleet via a
    /// future reassignment at `boundary`, and registers the new maintainer
    /// with the queues (routing) and senders (propagation scanning).
    pub fn flstore_add_maintainer(
        &mut self,
        boundary: LId,
    ) -> Result<chariots_types::MaintainerId> {
        let id = self.flstore.add_maintainer(boundary)?;
        *self.maintainer_registry.write() = self.flstore.maintainers().to_vec();
        for (i, m) in self.flstore.maintainers().iter().enumerate() {
            self.registry
                .register_counter(format!("dc{}.store{i}.in", self.dc.0), m.appended_counter());
        }
        Ok(id)
    }

    /// The datacenter's metrics registry. Stage throughput counters are
    /// registered as `dc{N}.{stage}{i}.in`; the tracer keeps one
    /// `dc{N}.{stage}.latency_us` histogram per pipeline stage.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sampled record tracer stamping per-stage spans.
    pub fn tracer(&self) -> &PipelineTracer {
        &self.tracer
    }

    /// A point-in-time snapshot of every metric this datacenter owns:
    /// the pipeline registry merged with the FLStore registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(&self.flstore.metrics());
        snap
    }

    /// Per-stage throughput counters: `(machine name, counter)` pairs for
    /// the bench harness (Tables 2–5, Fig. 9).
    ///
    /// A thin shim over [`registry`](Self::registry): each
    /// `dc{N}.{stage}{i}.in` counter is reported under its legacy
    /// `{stage}-{i}` name.
    pub fn stage_counters(&self) -> Vec<(String, Counter)> {
        let prefix = format!("dc{}.", self.dc.0);
        let mut out = Vec::new();
        for (name, counter) in self.registry.counters() {
            let Some(machine) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".in"))
            else {
                continue;
            };
            let split = machine
                .find(|c: char| c.is_ascii_digit())
                .unwrap_or(machine.len());
            let (stage, idx) = machine.split_at(split);
            out.push((format!("{stage}-{idx}"), counter));
        }
        out
    }

    /// Garbage collection (§6.1): collects the longest log prefix in which
    /// every record is known by all replicas, additionally honoring the
    /// `gc_keep_records` spatial rule. Returns the new exclusive bound.
    pub fn run_gc(&self) -> Result<LId> {
        let mut client = self.flstore.client();
        let hl = client.head_of_log()?;
        let atable = self.atable.read();
        let floor = self.gc_floor.load(Ordering::Acquire);
        let mut bound = LId(floor);
        while bound < hl {
            match client.read_with_hl(bound, true) {
                Ok(entry) => {
                    let r = &entry.record;
                    if atable.gc_bound(r.host()) >= r.toid() {
                        bound = bound.next();
                    } else {
                        break;
                    }
                }
                Err(ChariotsError::GarbageCollected(_)) => {
                    bound = bound.next();
                }
                Err(_) => break,
            }
        }
        drop(atable);
        // Spatial rule: keep at least the most recent `keep` records.
        if let Some(keep) = self.cfg.gc_keep_records {
            let cap = LId(hl.0.saturating_sub(keep));
            if bound > cap {
                bound = cap;
            }
        }
        if bound.0 > floor {
            self.flstore.gc_before(bound);
            self.gc_floor.store(bound.0, Ordering::Release);
            self.registry.journal().publish(
                &format!("dc{}.gc", self.dc.0),
                None,
                chariots_simnet::EventKind::GcSweep {
                    bound: bound.0,
                    collected: bound.0 - floor,
                },
            );
        }
        Ok(bound)
    }

    /// [`wire_stage`] for a late-added stage. Elastic adds cannot fail, so
    /// a loopback bind error (fd exhaustion) leaves that one node on the
    /// in-process channel instead of panicking mid-scale-out.
    fn wire_elastic<T: Wire + Send + 'static>(&self, to: &mut Endpoint<T>, endpoint: &str) {
        let _ = wire_stage(&self.cfg, to, &self.registry, endpoint, &self.shutdown);
    }

    fn join_all(&mut self) {
        self.shutdown.signal();
        for t in self
            .threads
            .drain(..)
            .chain(self.batcher_threads.drain(..))
            .chain(self.queue_threads.drain(..))
        {
            let _ = t.join();
        }
    }

    /// Stops every stage and joins the worker threads.
    pub fn shutdown(mut self) {
        self.join_all();
    }
}

impl Drop for ChariotsDc {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Registers a queue's `{prefix}.queue{i}.in` (records assigned) and
/// `{prefix}.queue{i}.token_passes` counters.
fn register_queue_counters(registry: &MetricsRegistry, prefix: &str, i: usize, q: &QueueHandle) {
    registry.register_counter(format!("{prefix}.queue{i}.in"), q.processed_counter());
    registry.register_counter(
        format!("{prefix}.queue{i}.token_passes"),
        q.token_passes_counter(),
    );
}

/// Puts a stage's endpoint on TCP when the configured transport is
/// [`TransportMode::Tcp`]: spawns the stage's loopback listener, registers
/// per-endpoint `chariots.transport.*` metrics, and leaves in `to` an
/// endpoint whose sends cross the socket. Under the default simnet
/// transport `to` stays as it is.
fn wire_stage<T: Wire + Send + 'static>(
    cfg: &ChariotsConfig,
    to: &mut Endpoint<T>,
    registry: &MetricsRegistry,
    endpoint: &str,
    shutdown: &Shutdown,
) -> Result<()> {
    if cfg.transport == TransportMode::Tcp {
        let metrics = TransportMetrics::registered(registry, endpoint);
        *to = to
            .listen(endpoint, shutdown.clone(), metrics)
            .map_err(|e| ChariotsError::Transport(e.to_string()))?;
    }
    Ok(())
}
