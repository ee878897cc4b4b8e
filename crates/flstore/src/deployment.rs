//! Deployment wiring: launch a full FLStore instance inside one simulated
//! datacenter — maintainer replica groups, indexer nodes, the controller,
//! the failure monitor, and the gossip fabric (Fig. 3's architecture).

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use chariots_simnet::{
    Counter, FailureDetector, FailureMonitor, MetricsRegistry, MetricsSnapshot, ServiceStation,
    Shutdown, StageTracer, StationConfig, TransportMetrics,
};
use chariots_types::{DatacenterId, FLStoreConfig, LId, MaintainerId, Result, TransportMode};

use crate::client::{FLStoreClient, ReadObs};
use crate::controller::Controller;
use crate::indexer::IndexerCore;
use crate::maintainer::MaintainerCore;
use crate::node::{spawn_indexer, spawn_replica, BatchPolicy, Fabric, FabricObs, IndexerHandle};
use crate::range::RangeMap;
use crate::replication::{
    replica_key, run_failover, run_repair, GroupState, ReplicaCtx, ReplicaGroupHandle,
};

/// A running FLStore deployment: the §5 architecture inside one datacenter.
///
/// With `replication_factor > 1` every maintainer id is served by a replica
/// group: one primary plus backups, heartbeating into a shared
/// [`FailureDetector`]. A background [`FailureMonitor`] promotes a
/// caught-up backup when a primary goes silent (`{prefix}.failover.count`)
/// and runs anti-entropy repair so lagging replicas converge
/// (`{prefix}.replica.lag`).
pub struct FLStore {
    cfg: FLStoreConfig,
    dc: DatacenterId,
    controller: Controller,
    fabric: Fabric,
    maintainers: Vec<ReplicaGroupHandle>,
    indexers: Vec<IndexerHandle>,
    station_cfg: StationConfig,
    persist_dir: Option<PathBuf>,
    registry: MetricsRegistry,
    detector: Option<FailureDetector>,
    monitor: Option<FailureMonitor>,
    shutdown: Shutdown,
    threads: Vec<JoinHandle<()>>,
}

impl FLStore {
    /// Launches a deployment with uncapped machines (correctness testing).
    pub fn launch(dc: DatacenterId, cfg: FLStoreConfig) -> Result<Self> {
        Self::launch_with(dc, cfg, StationConfig::uncapped(), None)
    }

    /// Launches a deployment whose machines are paced by `station_cfg`,
    /// optionally persisting each maintainer replica's log under
    /// `persist_dir`.
    pub fn launch_with(
        dc: DatacenterId,
        cfg: FLStoreConfig,
        station_cfg: StationConfig,
        persist_dir: Option<PathBuf>,
    ) -> Result<Self> {
        cfg.validate()
            .map_err(chariots_types::ChariotsError::InvalidConfig)?;
        let initial = RangeMap::new(cfg.num_maintainers, cfg.batch_size);
        let controller = Controller::new(dc, initial);
        let prefix = format!("dc{}.flstore", dc.0);
        let registry = MetricsRegistry::new(prefix.clone());
        controller.set_read_obs(ReadObs::registered(&registry, &prefix));
        let fabric = Fabric::with_obs(FabricObs::registered(&registry, &prefix));
        let shutdown = Shutdown::new();
        let detector = if cfg.replication_factor > 1 {
            Some(FailureDetector::new(cfg.suspicion_timeout))
        } else {
            None
        };
        let mut deployment = FLStore {
            cfg,
            dc,
            controller,
            fabric,
            maintainers: Vec::new(),
            indexers: Vec::new(),
            station_cfg,
            persist_dir,
            registry,
            detector,
            monitor: None,
            shutdown,
            threads: Vec::new(),
        };

        for i in 0..deployment.cfg.num_maintainers {
            deployment.spawn_maintainer_group(MaintainerId(i as u16))?;
        }
        for i in 0..deployment.cfg.num_indexers {
            let (handle, thread) = spawn_indexer(IndexerCore::new(), deployment.shutdown.clone());
            deployment.registry.register_counter(
                format!("{}.indexer{i}.posted", deployment.registry.name()),
                handle.posted_counter(),
            );
            deployment.indexers.push(handle);
            deployment.threads.push(forget_result(thread));
        }
        deployment.rewire();
        deployment.start_failure_monitor();
        Ok(deployment)
    }

    /// Spawns the `replication_factor` replicas of group `id` and registers
    /// the group. Replica 0 starts as primary and keeps the legacy
    /// single-node WAL filename, so an unreplicated deployment's on-disk
    /// layout is unchanged and pre-replication logs replay into seat 0.
    fn spawn_maintainer_group(&mut self, id: MaintainerId) -> Result<()> {
        let replicas = self.cfg.replication_factor.max(1);
        let state = Arc::new(GroupState::new(id));
        let appended = Counter::new();
        let mut raw = Vec::new();
        let batch = BatchPolicy {
            max_records: self.cfg.max_batch_records,
            ..BatchPolicy::default()
        };
        for r in 0..replicas {
            let mut core = MaintainerCore::new(id, self.dc, self.controller.journal())
                .with_sync_policy(self.cfg.wal_sync_policy)
                .with_wal_sync_counter(self.fabric.obs().wal_syncs.clone())
                .with_checkpoint_interval(self.cfg.checkpoint_interval);
            if let Some(dir) = &self.persist_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| chariots_types::ChariotsError::Storage(e.to_string()))?;
                let file = if r == 0 {
                    format!("maintainer-{}.wal", id.0)
                } else {
                    format!("maintainer-{}-r{r}.wal", id.0)
                };
                core = core.with_wal(dir.join(file))?;
            }
            let name = if r == 0 {
                format!("maintainer-{}", id.0)
            } else {
                format!("maintainer-{}.r{r}", id.0)
            };
            let station = Arc::new(ServiceStation::new(name, self.station_cfg.clone()));
            if let Some(detector) = &self.detector {
                detector.register(&replica_key(id, r));
            }
            let ctx = ReplicaCtx {
                group: Arc::clone(&state),
                index: r,
                detector: self.detector.clone(),
                heartbeat_interval: self.cfg.heartbeat_interval,
            };
            let (handle, thread) = spawn_replica(
                core,
                station,
                self.fabric.clone(),
                self.cfg.gossip_interval,
                self.shutdown.clone(),
                ctx,
                appended.clone(),
                batch,
            );
            // Under the TCP transport, client-facing RPCs routed through
            // the registered handles cross a real loopback socket;
            // replication/gossip stay on the in-process channel.
            let mut handle = handle;
            if self.cfg.transport == TransportMode::Tcp {
                let endpoint = if r == 0 {
                    format!("maintainer{}", id.0)
                } else {
                    format!("maintainer{}.r{r}", id.0)
                };
                let metrics = TransportMetrics::registered(&self.registry, &endpoint);
                // Named for its listener's threads: `A-m0r0-accept`, `-conn`.
                let listener = format!("{}-m{}r{r}", self.dc, id.0);
                handle.to = handle
                    .to
                    .listen(&listener, self.shutdown.clone(), metrics)
                    .map_err(|e| chariots_types::ChariotsError::Transport(e.to_string()))?;
            }
            raw.push(handle);
            self.threads.push(forget_result(thread));
        }
        state.set_replicas(raw);
        self.registry.register_counter(
            format!("{}.maintainer{}.appended", self.registry.name(), id.0),
            appended.clone(),
        );
        self.maintainers
            .push(ReplicaGroupHandle::new(id, state, appended));
        Ok(())
    }

    /// Starts the failover/repair loop when replication is on. The monitor
    /// period trades detection latency for overhead: it must tick at least
    /// a few times per suspicion window to promote promptly.
    fn start_failure_monitor(&mut self) {
        let Some(detector) = self.detector.clone() else {
            return;
        };
        let prefix = self.registry.name().to_string();
        let failovers = self.registry.counter(&format!("{prefix}.failover.count"));
        let lag = self.registry.gauge(&format!("{prefix}.replica.lag"));
        let controller = self.controller.clone();
        let period = self
            .cfg
            .heartbeat_interval
            .max(self.cfg.suspicion_timeout / 4);
        let tick_detector = detector.clone();
        let journal = self.registry.journal().clone();
        self.monitor = Some(FailureMonitor::spawn(detector, period, move |_suspects| {
            let groups = controller.groups();
            run_failover(&groups, &tick_detector, &failovers, &journal);
            run_repair(&groups, 256, &lag);
        }));
    }

    fn rewire(&self) {
        self.fabric.set_peers(self.maintainers.clone());
        self.fabric.set_indexers(self.indexers.clone());
        self.controller
            .register_maintainers(self.maintainers.clone());
        self.controller.register_indexers(self.indexers.clone());
    }

    /// The deployment's controller (session bootstrap).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Opens an application-client session.
    pub fn client(&self) -> FLStoreClient {
        FLStoreClient::connect(&self.controller)
    }

    /// Handles to the maintainer replica groups (bench harness
    /// instrumentation and fault injection).
    pub fn maintainers(&self) -> &[ReplicaGroupHandle] {
        &self.maintainers
    }

    /// Handles to the indexer nodes.
    pub fn indexers(&self) -> &[IndexerHandle] {
        &self.indexers
    }

    /// The shared failure detector, when replication is enabled.
    pub fn failure_detector(&self) -> Option<&FailureDetector> {
        self.detector.as_ref()
    }

    /// The datacenter this deployment serves.
    pub fn datacenter(&self) -> DatacenterId {
        self.dc
    }

    /// The deployment's metrics registry (`dc{N}.flstore.*` names).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A point-in-time snapshot of the deployment's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Wires the Chariots store-stage tracer into the maintainer fabric so
    /// persisted records close their store span (disabled by default).
    pub fn set_store_tracer(&self, tracer: StageTracer) {
        self.fabric.set_store_tracer(tracer);
    }

    /// Live elasticity (§6.3): adds a maintainer via *future reassignment*.
    ///
    /// The new striping (one more maintainer, same batch size) takes effect
    /// at `boundary`, which the caller picks comfortably beyond the current
    /// append frontier so the announcement reaches every stage first.
    pub fn add_maintainer(&mut self, boundary: LId) -> Result<MaintainerId> {
        let new_id = MaintainerId(self.maintainers.len() as u16);
        let new_map = RangeMap::new(self.maintainers.len() + 1, self.cfg.batch_size);
        // Spawn the group first so it exists when the epoch activates. Its
        // journal snapshot (taken in spawn) predates the announcement; the
        // broadcast below reaches it through the registered handle.
        self.spawn_maintainer_group(new_id)?;
        self.rewire();
        self.controller.announce_epoch(boundary, new_map)?;
        self.registry.journal().publish(
            &format!("{}.controller", self.registry.name()),
            None,
            chariots_simnet::EventKind::EpochChange {
                boundary: boundary.0,
            },
        );
        Ok(new_id)
    }

    /// Archives every readable position below `bound` into `archive`
    /// (cold storage, §6.1), then garbage-collects the prefix. The archive
    /// must already cover everything previously collected.
    pub fn archive_and_gc(
        &self,
        bound: LId,
        archive: &mut crate::archive::ArchiveWriter,
    ) -> Result<()> {
        let mut client = self.client();
        let mut batch = Vec::new();
        let mut lid = archive.archived_below();
        // Batched sweep: chunks of positions through the scatter-gather
        // read path instead of one RPC per position.
        const CHUNK: usize = 256;
        'sweep: while lid < bound {
            let mut lids = Vec::with_capacity(CHUNK);
            while lid < bound && lids.len() < CHUNK {
                lids.push(lid);
                lid = lid.next();
            }
            for result in client.read_many(&lids) {
                match result {
                    Ok(entry) => batch.push(entry),
                    Err(chariots_types::ChariotsError::GarbageCollected(_)) => {}
                    Err(_) => break 'sweep, // not yet readable: archive up to here only
                }
            }
        }
        let archived_to = batch.last().map(|e| e.lid.next());
        archive.archive(&batch)?;
        if let Some(upto) = archived_to {
            self.gc_before(upto);
        }
        Ok(())
    }

    /// Requests garbage collection of all positions below `bound`.
    pub fn gc_before(&self, bound: LId) {
        for m in &self.maintainers {
            m.gc(bound);
        }
        for ix in &self.indexers {
            ix.gc(bound);
        }
    }

    /// Stops every node and waits for the threads.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        if let Some(monitor) = self.monitor.take() {
            monitor.stop();
        }
        self.shutdown.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FLStore {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Erases a typed join handle into `JoinHandle<()>` by wrapping.
fn forget_result<T: Send + 'static>(handle: JoinHandle<T>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("join-wrapper".into())
        .spawn(move || {
            let _ = handle.join();
        })
        .expect("spawn join wrapper")
}
