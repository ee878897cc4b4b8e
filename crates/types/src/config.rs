//! Deployment configuration for FLStore and the Chariots pipeline.
//!
//! Configuration follows the builder pattern; every knob has a documented
//! default chosen to match the paper's evaluation setup (§7) at 1/10 scale
//! (see `DESIGN.md` §3 for the scaling rationale). A field here is something
//! two deployments, benches or ablations set differently; a bound nothing
//! varies is a constant of the component that enforces it, not a knob.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// When a maintainer flushes **and fsyncs** its write-ahead log — the §5.2
/// durability point. Group commit (the default) syncs once per drained
/// request batch, amortizing the fsync the way BTRLog-style cloud logs do;
/// the other two policies exist for the `batching` bench ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalSyncPolicy {
    /// One flush+fsync per drained group-commit batch (default): every
    /// *acked* record is durable, at one fsync per batch instead of one per
    /// record.
    #[default]
    PerBatch,
    /// Flush+fsync after every record applied. The strictest (and slowest)
    /// policy; equivalent to `PerBatch` with a batch bound of 1.
    PerRecord,
    /// Never fsync on the serve path; frames are flushed to the OS per
    /// batch but the durability point is left to the OS / shutdown. Crash
    /// durability is NOT guaranteed — ablation and bulk-load use only.
    Never,
}

/// Which substrate carries messages between the deployment's machines.
///
/// The protocol code is byte-for-byte identical on both; only the seam
/// under the stage handles changes (see `DESIGN.md` §15). `Simnet` (the
/// default) keeps every link an in-process channel — deterministic, and
/// the test/bench oracle. `Tcp` runs the intra-DC hops (client→batcher,
/// batcher→filter, filter→queue, and the FLStore client↔maintainer RPCs)
/// over real `TcpStream`s with length-prefixed CRC'd frames, so measured
/// numbers are hardware-limited instead of queueing-model-limited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportMode {
    /// In-process crossbeam channels behind the simnet substitution
    /// (deterministic; zero serialization).
    #[default]
    Simnet,
    /// Real TCP sockets on loopback/NICs: one serialization per batch,
    /// vectored writes, per-peer connection reuse with reconnect-on-error.
    Tcp,
}

/// Configuration of one datacenter's FLStore deployment (§5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FLStoreConfig {
    /// Number of log maintainers sharing the log ("a group of log
    /// maintainers that mutually handle exclusive ranges", §1).
    pub num_maintainers: usize,
    /// Records per round-robin round per maintainer; the paper's running
    /// example uses 1000 (§5.2, Fig. 4).
    pub batch_size: u64,
    /// Number of tag indexers (§5.3).
    pub num_indexers: usize,
    /// Interval between Head-of-Log gossip messages between maintainers
    /// (§5.4). Fixed-size messages, so the cost is throughput-independent.
    pub gossip_interval: Duration,
    /// Replicas per maintainer group (`f + 1`): 1 disables replication,
    /// 2 (the default) survives one replica failure per group. Appends ack
    /// once a majority of the owning group's replicas — both at 2 — hold
    /// them durably, counting only the replicas that are live; a primary
    /// with no live backup commits as a quorum of one.
    pub replication_factor: usize,
    /// How often each replica reports liveness to the failure detector.
    pub heartbeat_interval: Duration,
    /// Silence after which the failure detector suspects a replica and the
    /// controller considers failing over its group.
    pub suspicion_timeout: Duration,
    /// Group-commit drain bound: after a maintainer node picks up one
    /// request it opportunistically drains further queued `Append`/`Store`
    /// requests into the same batch, up to this many *records*. 1 disables
    /// coalescing (every request is its own batch).
    pub max_batch_records: usize,
    /// When the maintainer WAL is flushed+fsynced on the serve path.
    pub wal_sync_policy: WalSyncPolicy,
    /// How often a maintainer checkpoints its durable state so recovery
    /// can replay only the WAL suffix written since. `Duration::ZERO`
    /// disables checkpointing (recovery replays the whole log).
    pub checkpoint_interval: Duration,
    /// Substrate carrying client↔maintainer RPCs: in-process channels
    /// (default) or real TCP sockets. Replication, gossip, and control
    /// traffic stay in-process either way (`DESIGN.md` §15).
    #[serde(default)]
    pub transport: TransportMode,
}

impl Default for FLStoreConfig {
    fn default() -> Self {
        FLStoreConfig {
            num_maintainers: 3,
            batch_size: 1000,
            num_indexers: 1,
            gossip_interval: Duration::from_millis(5),
            replication_factor: 2,
            heartbeat_interval: Duration::from_millis(5),
            suspicion_timeout: Duration::from_millis(150),
            max_batch_records: 512,
            wal_sync_policy: WalSyncPolicy::default(),
            checkpoint_interval: Duration::from_secs(1),
            transport: TransportMode::default(),
        }
    }
}

impl FLStoreConfig {
    /// Starts from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of log maintainers.
    pub fn maintainers(mut self, n: usize) -> Self {
        self.num_maintainers = n;
        self
    }

    /// Sets the round-robin batch size.
    pub fn batch_size(mut self, n: u64) -> Self {
        self.batch_size = n;
        self
    }

    /// Sets the number of indexers.
    pub fn indexers(mut self, n: usize) -> Self {
        self.num_indexers = n;
        self
    }

    /// Sets the HL gossip interval.
    pub fn gossip_interval(mut self, d: Duration) -> Self {
        self.gossip_interval = d;
        self
    }

    /// Sets the replication factor (replicas per maintainer group; 1
    /// disables replication).
    pub fn replication(mut self, n: usize) -> Self {
        self.replication_factor = n;
        self
    }

    /// Sets the replica heartbeat interval.
    pub fn heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the failure-detector suspicion timeout.
    pub fn suspicion_timeout(mut self, d: Duration) -> Self {
        self.suspicion_timeout = d;
        self
    }

    /// Sets the group-commit drain bound in records (1 disables coalescing).
    pub fn max_batch_records(mut self, n: usize) -> Self {
        self.max_batch_records = n;
        self
    }

    /// Sets the WAL sync policy for the maintainer serve path.
    pub fn wal_sync_policy(mut self, p: WalSyncPolicy) -> Self {
        self.wal_sync_policy = p;
        self
    }

    /// Sets the maintainer checkpoint interval (`Duration::ZERO` disables).
    pub fn checkpoint_interval(mut self, d: Duration) -> Self {
        self.checkpoint_interval = d;
        self
    }

    /// Sets the transport substrate for client↔maintainer RPCs.
    pub fn transport(mut self, t: TransportMode) -> Self {
        self.transport = t;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_maintainers == 0 {
            return Err("num_maintainers must be at least 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1".into());
        }
        if self.num_indexers == 0 {
            return Err("num_indexers must be at least 1".into());
        }
        if self.replication_factor == 0 {
            return Err("replication_factor must be at least 1".into());
        }
        if self.suspicion_timeout < self.heartbeat_interval {
            return Err("suspicion_timeout must be at least the heartbeat interval".into());
        }
        if self.max_batch_records == 0 {
            return Err("max_batch_records must be at least 1".into());
        }
        Ok(())
    }
}

/// Per-stage machine counts for one datacenter's Chariots pipeline (§6.2).
///
/// "Each stage can consist of more than one machine, e.g., five machines
/// acting as Queues and four acting as Batchers."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCounts {
    /// Machines receiving records propagated from other datacenters.
    pub receivers: usize,
    /// Machines batching incoming records toward filters.
    pub batchers: usize,
    /// Machines enforcing exactly-once record incorporation.
    pub filters: usize,
    /// Machines assigning `LId`s under the token protocol.
    pub queues: usize,
    /// Machines propagating local records to other datacenters.
    pub senders: usize,
}

impl Default for StageCounts {
    fn default() -> Self {
        StageCounts {
            receivers: 1,
            batchers: 1,
            filters: 1,
            queues: 1,
            senders: 1,
        }
    }
}

impl StageCounts {
    /// One machine per stage — the paper's basic deployment (Table 2).
    pub fn uniform(n: usize) -> Self {
        StageCounts {
            receivers: n,
            batchers: n,
            filters: n,
            queues: n,
            senders: n,
        }
    }
}

/// Configuration of one Chariots datacenter instance (§6.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChariotsConfig {
    /// Number of datacenters in the deployment (sizes the ATable and all
    /// version vectors).
    pub num_datacenters: usize,
    /// Per-stage machine counts.
    pub stages: StageCounts,
    /// FLStore deployment backing the Log-maintainers stage.
    pub flstore: FLStoreConfig,
    /// Records a batcher accumulates per destination filter before flushing
    /// (§6.2: "once a buffer size exceeds a threshold, the records are
    /// sent").
    pub batcher_flush_threshold: usize,
    /// Maximum time records may sit in a batcher buffer before a flush is
    /// forced, bounding append latency at low load.
    pub batcher_flush_interval: Duration,
    /// Whether queues forward deferred (dependency-blocked) records along
    /// with the token, trading network I/O for append latency (§6.2: "it is
    /// a design decision"). Ablation A3.
    pub token_carries_deferred: bool,
    /// Heartbeat floor of the senders stage (§6.1 *Propagate*): senders run
    /// a round as soon as a queue has assigned new local records, and this
    /// interval only bounds how long a quiet sender may go without
    /// gossiping its applied cut (a peer's gossip arriving starts no
    /// round).
    pub propagation_interval: Duration,
    /// How long a peer's applied cut may stall — with offered records still
    /// unacknowledged — before a sender falls back to re-offering from the
    /// ATable-known cut. The healing path for dropped chunks and healed
    /// partitions; must comfortably exceed the WAN round trip plus one
    /// propagation interval, or healthy peers get spurious retransmissions.
    pub retransmit_timeout: Duration,
    /// User-specified spatial GC rule: keep at most this many records
    /// per datacenter log beyond the replication-safe prefix. `None`
    /// disables user GC (records are kept indefinitely, §6.1).
    pub gc_keep_records: Option<u64>,
    /// Observability: stamp a [`TraceId`](crate::TraceId) on every N-th
    /// appended record so the pipeline stages record per-stage enter/exit
    /// times for it. `0` disables tracing entirely; `1` traces every
    /// record (tests/debugging).
    pub trace_sample_every: u64,
    /// Substrate carrying the intra-DC pipeline hops (client→batcher,
    /// batcher→filter, filter→queue): in-process channels (default) or
    /// real TCP sockets. WAN propagation and the token ring stay on the
    /// simnet substrate either way (`DESIGN.md` §15). Set via
    /// [`ChariotsConfig::transport`], which also switches the embedded
    /// FLStore's RPC transport so the whole datacenter moves together.
    #[serde(default)]
    pub transport: TransportMode,
}

impl Default for ChariotsConfig {
    fn default() -> Self {
        ChariotsConfig {
            num_datacenters: 2,
            stages: StageCounts::default(),
            flstore: FLStoreConfig::default(),
            batcher_flush_threshold: 64,
            batcher_flush_interval: Duration::from_millis(2),
            token_carries_deferred: true,
            propagation_interval: Duration::from_millis(10),
            retransmit_timeout: Duration::from_millis(200),
            gc_keep_records: None,
            trace_sample_every: 64,
            transport: TransportMode::default(),
        }
    }
}

impl ChariotsConfig {
    /// Starts from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of datacenters.
    pub fn datacenters(mut self, n: usize) -> Self {
        self.num_datacenters = n;
        self
    }

    /// Sets per-stage machine counts.
    pub fn stages(mut self, stages: StageCounts) -> Self {
        self.stages = stages;
        self
    }

    /// Sets the FLStore configuration.
    pub fn flstore(mut self, flstore: FLStoreConfig) -> Self {
        self.flstore = flstore;
        self
    }

    /// Sets the batcher flush threshold.
    pub fn batcher_flush_threshold(mut self, n: usize) -> Self {
        self.batcher_flush_threshold = n;
        self
    }

    /// Sets whether the token carries deferred records (ablation A3).
    pub fn token_carries_deferred(mut self, yes: bool) -> Self {
        self.token_carries_deferred = yes;
        self
    }

    /// Sets the propagation interval (the senders' heartbeat floor).
    pub fn propagation_interval(mut self, d: Duration) -> Self {
        self.propagation_interval = d;
        self
    }

    /// Sets the stalled-peer retransmission timeout.
    pub fn retransmit_timeout(mut self, d: Duration) -> Self {
        self.retransmit_timeout = d;
        self
    }

    /// Enables the spatial GC rule.
    pub fn gc_keep_records(mut self, n: u64) -> Self {
        self.gc_keep_records = Some(n);
        self
    }

    /// Sets the record-trace sampling period (0 disables tracing).
    pub fn trace_sample_every(mut self, n: u64) -> Self {
        self.trace_sample_every = n;
        self
    }

    /// Sets the transport substrate for the whole datacenter: the pipeline
    /// hops *and* the embedded FLStore's client↔maintainer RPCs.
    pub fn transport(mut self, t: TransportMode) -> Self {
        self.transport = t;
        self.flstore.transport = t;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_datacenters == 0 {
            return Err("num_datacenters must be at least 1".into());
        }
        let s = &self.stages;
        if s.batchers == 0 || s.filters == 0 || s.queues == 0 {
            return Err("batchers, filters, and queues must each have at least 1 machine".into());
        }
        if self.num_datacenters > 1 && (s.receivers == 0 || s.senders == 0) {
            return Err("multi-datacenter deployments need receivers and senders".into());
        }
        if self.batcher_flush_threshold == 0 {
            return Err("batcher_flush_threshold must be at least 1".into());
        }
        if self.retransmit_timeout.is_zero() {
            return Err("retransmit_timeout must be positive".into());
        }
        self.flstore.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(FLStoreConfig::default().validate().is_ok());
        assert!(ChariotsConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let cfg = ChariotsConfig::new()
            .datacenters(3)
            .stages(StageCounts::uniform(2))
            .flstore(FLStoreConfig::new().maintainers(4).batch_size(100))
            .batcher_flush_threshold(32)
            .token_carries_deferred(false)
            .gc_keep_records(10_000)
            .trace_sample_every(8);
        assert_eq!(cfg.num_datacenters, 3);
        assert_eq!(cfg.stages.queues, 2);
        assert_eq!(cfg.flstore.num_maintainers, 4);
        assert_eq!(cfg.flstore.batch_size, 100);
        assert!(!cfg.token_carries_deferred);
        assert_eq!(cfg.gc_keep_records, Some(10_000));
        assert_eq!(cfg.trace_sample_every, 8);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_maintainers_rejected() {
        let cfg = FLStoreConfig::new().maintainers(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_batch_size_rejected() {
        let cfg = FLStoreConfig::new().batch_size(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn replication_knobs_validate() {
        assert!(FLStoreConfig::new().replication(0).validate().is_err());
        assert!(FLStoreConfig::new().replication(3).validate().is_ok());
        let cfg = FLStoreConfig::new()
            .heartbeat_interval(Duration::from_millis(50))
            .suspicion_timeout(Duration::from_millis(10));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn batching_knobs_validate() {
        assert!(FLStoreConfig::new()
            .max_batch_records(0)
            .validate()
            .is_err());
        let cfg = FLStoreConfig::new()
            .max_batch_records(64)
            .wal_sync_policy(WalSyncPolicy::Never);
        assert_eq!(cfg.max_batch_records, 64);
        assert_eq!(cfg.wal_sync_policy, WalSyncPolicy::Never);
        assert!(cfg.validate().is_ok());
        assert_eq!(
            FLStoreConfig::default().wal_sync_policy,
            WalSyncPolicy::PerBatch
        );
    }

    #[test]
    fn checkpoint_interval_builds_and_disables() {
        assert!(FLStoreConfig::default().checkpoint_interval > Duration::ZERO);
        let cfg = FLStoreConfig::new().checkpoint_interval(Duration::from_millis(200));
        assert_eq!(cfg.checkpoint_interval, Duration::from_millis(200));
        assert!(cfg.validate().is_ok());
        // Zero checkpoint interval means "disabled", not "invalid".
        assert!(FLStoreConfig::new()
            .checkpoint_interval(Duration::ZERO)
            .validate()
            .is_ok());
    }

    #[test]
    fn multi_dc_requires_senders_and_receivers() {
        let mut cfg = ChariotsConfig::new().datacenters(2);
        cfg.stages.senders = 0;
        assert!(cfg.validate().is_err());
        // A single-datacenter deployment does not need senders.
        cfg.num_datacenters = 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn propagation_knobs_validate() {
        let cfg = ChariotsConfig::new();
        assert!(cfg.retransmit_timeout > cfg.propagation_interval);
        let mut cfg = ChariotsConfig::new().retransmit_timeout(Duration::from_millis(50));
        assert!(cfg.validate().is_ok());
        cfg.retransmit_timeout = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn transport_defaults_to_simnet_and_switches_both_layers() {
        assert_eq!(ChariotsConfig::default().transport, TransportMode::Simnet);
        assert_eq!(FLStoreConfig::default().transport, TransportMode::Simnet);
        let cfg = ChariotsConfig::new().transport(TransportMode::Tcp);
        assert_eq!(cfg.transport, TransportMode::Tcp);
        assert_eq!(
            cfg.flstore.transport,
            TransportMode::Tcp,
            "the datacenter-level knob moves the embedded FLStore too"
        );
        assert!(cfg.validate().is_ok());
        // Configs persisted before the knob existed still deserialize.
        let mut json: serde_json::Value = serde_json::to_value(FLStoreConfig::default()).unwrap();
        json.as_object_mut().unwrap().remove("transport");
        let legacy: FLStoreConfig = serde_json::from_value(json).unwrap();
        assert_eq!(legacy.transport, TransportMode::Simnet);
    }

    #[test]
    fn zero_core_stage_rejected() {
        let mut cfg = ChariotsConfig::new();
        cfg.stages.filters = 0;
        assert!(cfg.validate().is_err());
    }
}
