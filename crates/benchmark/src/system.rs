//! The four deployments and the two client libraries behind one shape,
//! so that the paced driver, the probes and the audit are written once.
//! Everything here goes through the public launch and client API.

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::sys;
use bytes::Bytes;
use chariots_core::{ChariotsClient, ChariotsCluster, StageStations};
use chariots_flstore::maintainer::AppendPayload;
use chariots_flstore::{FLStore, FLStoreClient};
use chariots_simnet::{LinkConfig, MetricsSnapshot, StationConfig};
use chariots_types::{
    ChariotsConfig, DatacenterId, Entry, FLStoreConfig, LId, ReadRule, Result, TOId, TagSet,
    TransportMode, WalSyncPolicy,
};

/// One-way delay injected on every WAN link of `geo_2dc`.
pub const WAN_ONE_WAY: Duration = Duration::from_millis(20);

/// How long a replica of `flstore_durable` may stay silent before the
/// failure detector suspects it. The store's shutdown waits for the
/// detector's monitor thread, which sleeps a quarter of this at a time.
const SUSPICION_TIMEOUT: Duration = Duration::from_secs(4);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PipelineTcp,
    FlstoreDurable,
    ReadMix,
    Geo2Dc,
}

/// A workload's fixed parameters. Rates are constants of the benchmark,
/// not options: a later change is measured at the same offered load.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// The generator releases `ops_per_tick` operations every `tick`.
    pub tick: Duration,
    pub ops_per_tick: u64,
    /// Records one generator operation appends (a batch for FLStore).
    pub records_per_op: u64,
    /// Records appended during set-up, before the measured phase.
    pub preload: u64,
}

pub const SPECS: [Spec; 4] = [
    // 20 000 rec/s; with its threads on one CPU the pipeline over
    // loopback TCP saturates near 70 000 rec/s here.
    Spec {
        name: "pipeline_tcp",
        kind: Kind::PipelineTcp,
        tick: Duration::from_millis(1),
        ops_per_tick: 20,
        records_per_op: 1,
        preload: 120_000,
    },
    // 750 batches of 16 = 12 000 rec/s.
    Spec {
        name: "flstore_durable",
        kind: Kind::FlstoreDurable,
        tick: Duration::from_nanos(1_333_333),
        ops_per_tick: 1,
        records_per_op: 16,
        preload: 200_000,
    },
    // 6 000 ops/s, one due every 166.7 µs.
    Spec {
        name: "read_mix",
        kind: Kind::ReadMix,
        tick: Duration::from_nanos(166_667),
        ops_per_tick: 1,
        records_per_op: 1,
        preload: 200_000,
    },
    // 10 000 rec/s in total, alternating between the two DCs.
    Spec {
        name: "geo_2dc",
        kind: Kind::Geo2Dc,
        tick: Duration::from_millis(1),
        ops_per_tick: 10,
        records_per_op: 1,
        preload: 100_000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_tick as f64 / self.tick.as_secs_f64()
    }

    /// Ticks in a measured phase of `seconds`.
    pub fn ticks_in(&self, seconds: u64) -> u64 {
        (seconds as f64 / self.tick.as_secs_f64()).round() as u64
    }
}

/// The CPUs this process may use, split between the benchmark's threads
/// (the first) and the system under test (the rest). Where the scheduler
/// is free to put a woken stage thread next to the client that woke it
/// or on an idle CPU, a hand-off costs 8 µs or 40 µs by its choice, and
/// whole runs come out in one mode or the other; kept apart, every run
/// crosses CPUs the same way.
pub fn cpu_split() -> (&'static [usize], &'static [usize]) {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    let allowed = ALLOWED.get_or_init(sys::allowed_cpus);
    assert!(allowed.len() >= 2, "checked before any launch");
    allowed.split_at(1)
}

#[allow(clippy::large_enum_variant)] // one value per run
pub enum System {
    Cluster(ChariotsCluster),
    Store(FLStore),
}

impl System {
    /// Launches the workload's deployment. `dir` is where a durable
    /// deployment keeps its WAL; the others ignore it.
    pub fn launch(spec: &Spec, dir: &Path) -> Result<System> {
        // The deployment's threads inherit the CPUs of the thread that
        // spawns them: the system under test gets every CPU but the
        // first, which the benchmark's own threads keep to themselves.
        let (harness, system) = cpu_split();
        sys::run_on(system);
        let launched = Self::launch_here(spec, dir);
        sys::run_on(harness);
        launched
    }

    fn launch_here(spec: &Spec, dir: &Path) -> Result<System> {
        match spec.kind {
            Kind::PipelineTcp => {
                let mut cfg = ChariotsConfig::new().datacenters(1);
                cfg.flstore = FLStoreConfig::new().maintainers(2).replication(1);
                let cfg = cfg.transport(TransportMode::Tcp);
                ChariotsCluster::launch(cfg, StageStations::default(), LinkConfig::default())
                    .map(System::Cluster)
            }
            Kind::Geo2Dc => {
                let mut cfg = ChariotsConfig::new().datacenters(2);
                cfg.flstore = FLStoreConfig::new().maintainers(2).replication(1);
                ChariotsCluster::launch(
                    cfg,
                    StageStations::default(),
                    LinkConfig::with_latency(WAN_ONE_WAY),
                )
                .map(System::Cluster)
            }
            Kind::FlstoreDurable => {
                // One maintainer group of two replicas. With several
                // groups a record waits for the ranges below its own to
                // fill, which at 12 000 rec/s takes up to a quarter of a
                // second and depends on how far apart the groups have
                // drifted: visibility would measure that, not the commit
                // path. Checkpoints are off: at the default interval each
                // replica rewrites its whole state every second, which
                // stalls it past the failure detector's suspicion
                // timeout, and the failover that follows loses
                // acknowledged records (see the README's findings). For the
                // same reason the suspicion timeout is far above its 150 ms
                // default: no replica fails in this workload, and on a
                // shared host one slow fsync must not be taken for a crash.
                let cfg = FLStoreConfig::new()
                    .maintainers(1)
                    .replication(2)
                    .wal_sync_policy(WalSyncPolicy::PerBatch)
                    .checkpoint_interval(Duration::ZERO)
                    .suspicion_timeout(SUSPICION_TIMEOUT);
                FLStore::launch_with(
                    DatacenterId(0),
                    cfg,
                    StationConfig::uncapped(),
                    Some(dir.to_path_buf()),
                )
                .map(System::Store)
            }
            Kind::ReadMix => {
                // One maintainer, for the same reason: at 800 appends/s a
                // striped log fills a round of ranges in seconds.
                let cfg = FLStoreConfig::new()
                    .maintainers(1)
                    .replication(1)
                    .indexers(1);
                FLStore::launch(DatacenterId(0), cfg).map(System::Store)
            }
        }
    }

    pub fn client(&self, dc: usize) -> Client {
        match self {
            System::Cluster(c) => Client::Chariots(c.client(DatacenterId(dc as u16))),
            System::Store(s) => Client::Store(s.client()),
        }
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            System::Cluster(c) => c.metrics(),
            System::Store(s) => s.metrics(),
        }
    }

    pub fn shutdown(self) {
        match self {
            System::Cluster(c) => c.shutdown(),
            System::Store(s) => s.shutdown(),
        }
    }

    /// Waits until the Head of the Log is at least `records` at every
    /// datacenter and returns the lowest Head.
    pub fn wait_head(&self, records: u64, patience: Duration) -> std::result::Result<u64, String> {
        let deadline = Instant::now() + patience;
        let mut watchers = self.clients();
        loop {
            let head = lowest_head(&mut watchers);
            if head >= records {
                return Ok(head);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "only {head} of {records} records became readable within {patience:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One client per datacenter.
    pub fn clients(&self) -> Vec<Client> {
        let datacenters = match self {
            System::Cluster(c) => c.len(),
            System::Store(_) => 1,
        };
        (0..datacenters).map(|dc| self.client(dc)).collect()
    }
}

/// The lowest Head of the Log the clients' datacenters report; 0 for one
/// that cannot be asked.
pub fn lowest_head(clients: &mut [Client]) -> u64 {
    clients
        .iter_mut()
        .map(|c| c.head_of_log().map_or(0, |hl| hl.0))
        .min()
        .unwrap_or(0)
}

pub enum Client {
    Chariots(ChariotsClient),
    Store(FLStoreClient),
}

impl Client {
    /// Blocking append of one record.
    pub fn append(&mut self, tags: TagSet, body: Bytes) -> Result<(TOId, LId)> {
        match self {
            Client::Chariots(c) => c.append(tags, body),
            Client::Store(c) => c.append(tags, body),
        }
    }

    /// One fire-and-forget generator operation: the pipeline client
    /// takes records one at a time, the FLStore client as one batch.
    pub fn append_async(&mut self, records: Vec<(TagSet, Bytes)>) -> Result<()> {
        match self {
            Client::Chariots(c) => {
                for (tags, body) in records {
                    c.append_async(tags, body)?;
                }
                Ok(())
            }
            Client::Store(c) => c.append_async(
                records
                    .into_iter()
                    .map(|(tags, body)| AppendPayload::new(tags, body))
                    .collect(),
            ),
        }
    }

    pub fn head_of_log(&mut self) -> Result<LId> {
        match self {
            Client::Chariots(c) => c.head_of_log(),
            Client::Store(c) => c.head_of_log(),
        }
    }

    pub fn read(&mut self, lid: LId) -> Result<Entry> {
        match self {
            Client::Chariots(c) => c.read(lid),
            Client::Store(c) => c.read(lid),
        }
    }

    pub fn read_many(&mut self, lids: &[LId]) -> Vec<Result<Entry>> {
        match self {
            Client::Chariots(c) => c.read_many(lids),
            Client::Store(c) => c.read_many(lids),
        }
    }

    pub fn read_rule(&mut self, rule: &ReadRule) -> Result<Vec<Entry>> {
        match self {
            Client::Chariots(c) => c.read_rule(rule),
            Client::Store(c) => c.read_rule(rule),
        }
    }
}
