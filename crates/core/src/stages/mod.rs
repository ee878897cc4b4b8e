//! The six pipeline stages of a Chariots datacenter (§6.2, Fig. 6):
//! application clients and [`receiver`]s feed [`batcher`]s, which feed
//! [`filter`]s, which feed [`queue`]s, which persist into FLStore's log
//! maintainers; [`sender`]s propagate local records to other datacenters.

pub mod batcher;
pub mod filter;
pub mod queue;
pub mod receiver;
pub mod sender;

use chariots_simnet::{Gauge, MetricsRegistry};

/// The pipeline stages in flow order, as named in metrics and traces:
/// `dc{N}.{stage}.latency_us` histograms and `dc{N}.{stage}{i}.in` counters
/// both draw from this list.
pub const STAGE_NAMES: [&str; 6] = ["receiver", "batcher", "filter", "queue", "store", "sender"];

/// Per-node health gauges every pipeline stage refreshes once per loop
/// iteration: how much work is waiting at the machine's door (inbound
/// channel depth) and how much is held inside the stage itself (batcher
/// buffers, filter reorder parking, queue staging). Gauges are point
/// reads, so refreshing them costs two relaxed stores per iteration —
/// cheap enough to leave on always.
#[derive(Clone, Debug, Default)]
pub struct StageHealth {
    /// Records waiting in the node's inbound channel.
    pub depth: Gauge,
    /// Records held inside the stage (buffered, parked, or staged).
    pub occupancy: Gauge,
}

impl StageHealth {
    /// Unregistered gauges (tests, standalone nodes).
    pub fn disabled() -> Self {
        StageHealth::default()
    }

    /// Gauges registered as `{prefix}.{node}.queue.depth` and
    /// `{prefix}.{node}.occupancy`, where `node` names the instance
    /// (e.g. `batcher0`).
    pub fn registered(registry: &MetricsRegistry, prefix: &str, node: &str) -> Self {
        StageHealth {
            depth: registry.gauge(&format!("{prefix}.{node}.queue.depth")),
            occupancy: registry.gauge(&format!("{prefix}.{node}.occupancy")),
        }
    }
}

pub use batcher::{spawn_batcher, BatcherCore, BatcherHandle};
pub use filter::{spawn_filter, FilterCore, FilterHandle, FilterIngress, FilterRouting};
pub use queue::{spawn_queue, QueueCore, QueueHandle, QueueIngress, QueueNodeConfig, QueueRing};
pub use receiver::spawn_receiver;
pub use sender::{spawn_sender, SenderHealth, SenderMetrics, SenderNode};
