//! The filters stage (§6.2): exactly-once incorporation.
//!
//! "The Filters ensure uniqueness of records. … each Filter becomes a
//! champion for a subset of the records," normally the records of one host
//! datacenter; with more filters than datacenters, a host's records are
//! split by TOId parity ("x can be responsible for A's records with odd
//! TOIds and y … with even TOIds"). "The processing agent maintains a
//! counter of the next expected TOId. When the next expected record arrives
//! it is added to the batch to be sent to one of the Queues."
//!
//! Filter championing is governed by the shared
//! [`RoutingPlan`](crate::routing_plan::RoutingPlan), whose epochs realize
//! §6.3's *future reassignment*: a filter keeps per-`(host, epoch)`
//! champion state, so an old filter drains its pre-boundary records while a
//! newly added filter picks up its share from the boundary onward.
//!
//! Filters are a *scalable pre-filter*: they drop duplicates and release
//! each host's records in TOId order without any filter-to-filter
//! communication. The queues' token re-checks applicability, so even
//! records misrouted during an elastic reassignment cannot violate
//! exactly-once.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{Counter, Endpoint, ServiceStation, Shutdown, StageTracer};
use chariots_types::{DatacenterId, Record, TOId};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use crate::message::Incoming;
use crate::routing_plan::RoutingPlan;
use crate::stages::StageHealth;

/// Deterministic record→filter striping for one routing epoch.
///
/// * `F ≤ D` (filters ≤ datacenters): host `h` → filter `h mod F`.
/// * `F > D`: host `h` is championed by the filters `{h mod D, h mod D + D,
///   …}`; among them the record's TOId picks one (`toid mod k`), realizing
///   the paper's odd/even split for `k = 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRouting {
    num_filters: usize,
    num_datacenters: usize,
}

impl FilterRouting {
    /// Creates a routing for the deployment shape.
    pub fn new(num_filters: usize, num_datacenters: usize) -> Self {
        assert!(num_filters > 0 && num_datacenters > 0);
        FilterRouting {
            num_filters,
            num_datacenters,
        }
    }

    /// Number of filters.
    pub fn num_filters(&self) -> usize {
        self.num_filters
    }

    /// The filter championing record `(host, toid)`.
    pub fn filter_for(&self, host: DatacenterId, toid: TOId) -> usize {
        let f = self.num_filters;
        let d = self.num_datacenters;
        if f <= d {
            host.index() % f
        } else {
            let base = host.index() % d;
            // How many filters champion this base slot.
            let k = f / d + usize::from(base < f % d);
            let pick = (toid.0 as usize) % k;
            base + pick * d
        }
    }

    /// The TOId stride and offset a filter uses for host `host`'s
    /// next-expected counter, or `None` if this filter never sees that
    /// host's records.
    pub fn stride_for(&self, filter: usize, host: DatacenterId) -> Option<(u64, u64)> {
        let f = self.num_filters;
        let d = self.num_datacenters;
        if f <= d {
            (host.index() % f == filter).then_some((1, 1))
        } else {
            let base = host.index() % d;
            if filter % d != base {
                return None;
            }
            let k = (f / d + usize::from(base < f % d)) as u64;
            let pick = (filter - base) / d;
            // TOIds championed: toid ≡ pick (mod k); the smallest ≥ 1.
            let first = if pick == 0 { k } else { pick as u64 };
            Some((k, first))
        }
    }
}

/// Per-`(host, epoch)` exactly-once state within one filter.
#[derive(Debug)]
struct HostChampion {
    /// Next TOId this filter expects from the host within its stride.
    next_expected: TOId,
    /// TOId distance between consecutive championed records.
    stride: u64,
    /// Out-of-order arrivals waiting for the expected record.
    reorder: BTreeMap<TOId, Record>,
}

/// The synchronous state of one filter.
#[derive(Debug)]
pub struct FilterCore {
    index: usize,
    plan: Arc<RwLock<RoutingPlan>>,
    champions: HashMap<(DatacenterId, usize), HostChampion>,
    /// Bound on each champion's reorder buffer; beyond it, new out-of-order
    /// entries are dropped (they will be re-propagated — the ATable loop is
    /// the source of reliability, the filter buffer is an optimization).
    max_reorder: usize,
    /// Shared so the bench harness can watch duplicate arrivals live (the
    /// WAN duplicate ratio of the geo experiment).
    duplicates_dropped: Counter,
}

impl FilterCore {
    /// Filter `index` under the shared routing plan.
    pub fn new(index: usize, plan: Arc<RwLock<RoutingPlan>>) -> Self {
        FilterCore {
            index,
            plan,
            champions: HashMap::new(),
            max_reorder: 65_536,
            duplicates_dropped: Counter::new(),
        }
    }

    /// Convenience: a filter under a single-epoch plan (tests, static
    /// deployments).
    pub fn with_routing(index: usize, routing: FilterRouting) -> Self {
        FilterCore::new(index, Arc::new(RwLock::new(RoutingPlan::new(routing))))
    }

    /// Bounds the per-champion reorder buffer.
    pub fn with_max_reorder(mut self, max: usize) -> Self {
        self.max_reorder = max;
        self
    }

    /// Duplicates dropped so far.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped.get()
    }

    /// A live handle to the duplicates-dropped counter (survives the core
    /// moving into its node thread).
    pub fn duplicates_counter(&self) -> Counter {
        self.duplicates_dropped.clone()
    }

    /// Records parked in reorder buffers.
    pub fn reordering(&self) -> usize {
        self.champions.values().map(|c| c.reorder.len()).sum()
    }

    /// Ingests one record, returning everything now releasable in order.
    ///
    /// Local records pass through untouched (they have no identity yet and
    /// need no dedup). External records are deduplicated and released in
    /// per-host TOId order within their routing epoch.
    pub fn ingest(&mut self, record: Incoming) -> Vec<Incoming> {
        let external = match record {
            Incoming::Local(_) => return vec![record],
            Incoming::External(r) => r,
        };
        let host = external.host();
        let toid = external.toid();
        let (epoch_idx, stride_first) = {
            let plan = self.plan.read();
            let e = plan.epoch_for(toid);
            (e, plan.stride_in_epoch(e, self.index, host))
        };
        let Some((stride, first)) = stride_first else {
            // Misrouted during a reassignment window: forward unchanged;
            // the queue's token enforces order and exactly-once anyway.
            return vec![Incoming::External(external)];
        };
        let max_reorder = self.max_reorder;
        let champ = self
            .champions
            .entry((host, epoch_idx))
            .or_insert_with(|| HostChampion {
                next_expected: TOId(first),
                stride,
                reorder: BTreeMap::new(),
            });
        if toid < champ.next_expected {
            self.duplicates_dropped.add(1);
            return Vec::new();
        }
        if toid == champ.next_expected {
            let mut out = Vec::with_capacity(1);
            champ.next_expected = TOId(champ.next_expected.0 + champ.stride);
            out.push(Incoming::External(external));
            // Drain the reorder buffer while it continues the sequence.
            while let Some(entry) = champ.reorder.first_entry() {
                if *entry.key() == champ.next_expected {
                    champ.next_expected = TOId(champ.next_expected.0 + champ.stride);
                    out.push(Incoming::External(entry.remove()));
                } else {
                    break;
                }
            }
            return out;
        }
        // Future record: park it (duplicates collapse on the key).
        if champ.reorder.len() < max_reorder && champ.reorder.insert(toid, external).is_some() {
            self.duplicates_dropped.add(1);
        }
        Vec::new()
    }
}

/// Producer-side ingress to a filter: sending notes the arrival at the
/// filter's station so its backlog (and overload model) reflects queued
/// work, like bytes sitting in a real machine's socket buffer.
#[derive(Clone)]
pub struct FilterIngress {
    pub(crate) to: Endpoint<Vec<Incoming>>,
    station: Arc<ServiceStation>,
    tracer: StageTracer,
}

impl FilterIngress {
    /// Builds an ingress from raw parts (tests and custom wiring).
    pub fn from_parts(
        tx: Sender<Vec<Incoming>>,
        station: Arc<ServiceStation>,
        tracer: StageTracer,
    ) -> Self {
        FilterIngress {
            to: Endpoint::Channel(tx),
            station,
            tracer,
        }
    }

    /// Enqueues a batch. Returns false when the filter is gone. A traced
    /// record's filter span starts here, so it includes channel wait and
    /// any time parked in the reorder buffer.
    pub fn send(&self, batch: Vec<Incoming>) -> bool {
        self.station.note_arrival(batch.len() as u64);
        for record in &batch {
            self.tracer.enter(record.trace());
        }
        self.to.send(batch).is_ok()
    }

    /// The filter machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }
}

/// Handle to a filter node.
#[derive(Clone)]
pub struct FilterHandle {
    tx: Sender<Vec<Incoming>>,
    station: Arc<ServiceStation>,
    processed: Counter,
    duplicates: Counter,
    tracer: StageTracer,
}

impl FilterHandle {
    /// A producer-side ingress (notes arrivals at this filter's station).
    pub fn ingress(&self) -> FilterIngress {
        FilterIngress::from_parts(
            self.tx.clone(),
            Arc::clone(&self.station),
            self.tracer.clone(),
        )
    }

    /// Records processed (bench instrumentation).
    pub fn processed_counter(&self) -> Counter {
        self.processed.clone()
    }

    /// Duplicates this filter has dropped (bench instrumentation — the
    /// numerator of the WAN duplicate ratio).
    pub fn duplicates_counter(&self) -> Counter {
        self.duplicates.clone()
    }

    /// The machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }
}

/// Spawns a filter node: drains batches, dedupes/orders them, and forwards
/// releasable records round-robin to the (dynamically growable) queue
/// fleet ("sent to one of the Queues").
pub fn spawn_filter(
    core: FilterCore,
    queues: Arc<RwLock<Vec<crate::stages::queue::QueueIngress>>>,
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
    tracer: StageTracer,
    health: StageHealth,
) -> (FilterHandle, JoinHandle<()>) {
    let (tx, rx) = unbounded::<Vec<Incoming>>();
    let processed = Counter::new();
    let handle = FilterHandle {
        tx,
        station: Arc::clone(&station),
        processed: processed.clone(),
        duplicates: core.duplicates_counter(),
        tracer: tracer.clone(),
    };
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            filter_loop(
                core, &rx, &queues, &station, &shutdown, &processed, &tracer, &health,
            )
        })
        .expect("spawn filter");
    (handle, thread)
}

#[allow(clippy::too_many_arguments)]
fn filter_loop(
    mut core: FilterCore,
    rx: &Receiver<Vec<Incoming>>,
    queues: &RwLock<Vec<crate::stages::queue::QueueIngress>>,
    station: &ServiceStation,
    shutdown: &Shutdown,
    processed: &Counter,
    tracer: &StageTracer,
    health: &StageHealth,
) {
    let mut rr = 0usize;
    loop {
        if shutdown.is_signaled() {
            return;
        }
        health.depth.set(rx.len() as i64);
        // Occupancy: records parked in reorder buffers, waiting for their
        // predecessor — the early-warning signal for WAN reordering storms.
        health.occupancy.set(core.reordering() as i64);
        let batch = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(b) => b,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let n = batch.len() as u64;
        if station.serve(n).is_err() {
            continue; // crashed: batch lost; the ATable loop re-propagates
        }
        processed.add(n);
        let mut out = Vec::with_capacity(batch.len());
        for record in batch {
            out.extend(core.ingest(record));
        }
        if !out.is_empty() {
            // The filter span ends as releasable records leave for a
            // queue — including records just released from reorder.
            for record in &out {
                tracer.exit(record.trace());
            }
            let queues = queues.read();
            if queues.is_empty() {
                continue;
            }
            rr = (rr + 1) % queues.len();
            queues[rr].send(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_types::{RecordId, TagSet, VersionVector};

    fn record(host: u16, toid: u64) -> Record {
        Record::new(
            RecordId::new(DatacenterId(host), TOId(toid)),
            VersionVector::new(2),
            TagSet::new(),
            Bytes::new(),
        )
    }

    fn toids(out: &[Incoming]) -> Vec<u64> {
        out.iter()
            .map(|i| match i {
                Incoming::External(r) => r.toid().0,
                Incoming::Local(_) => panic!("expected external"),
            })
            .collect()
    }

    #[test]
    fn routing_with_fewer_filters_than_dcs_wraps() {
        let r = FilterRouting::new(2, 5);
        assert_eq!(r.filter_for(DatacenterId(0), TOId(1)), 0);
        assert_eq!(r.filter_for(DatacenterId(1), TOId(1)), 1);
        assert_eq!(r.filter_for(DatacenterId(2), TOId(1)), 0);
        assert_eq!(r.stride_for(0, DatacenterId(2)), Some((1, 1)));
        assert_eq!(r.stride_for(1, DatacenterId(2)), None);
    }

    #[test]
    fn routing_with_more_filters_splits_by_toid() {
        // 4 filters, 2 DCs: host 0 → filters {0, 2}, host 1 → {1, 3}.
        let r = FilterRouting::new(4, 2);
        let f1 = r.filter_for(DatacenterId(0), TOId(1));
        let f2 = r.filter_for(DatacenterId(0), TOId(2));
        assert_ne!(f1, f2, "consecutive TOIds alternate filters");
        assert!(f1 % 2 == 0 && f2 % 2 == 0, "host 0's filters are even");
        // Strides: each of host 0's filters sees every 2nd TOId.
        let (stride, first0) = r.stride_for(0, DatacenterId(0)).unwrap();
        let (_, first2) = r.stride_for(2, DatacenterId(0)).unwrap();
        assert_eq!(stride, 2);
        let mut firsts = vec![first0, first2];
        firsts.sort_unstable();
        assert_eq!(firsts, vec![1, 2], "between them they cover all TOIds");
    }

    #[test]
    fn routing_and_stride_agree() {
        // Every record must be routed to a filter whose championed TOId
        // sequence contains it.
        for (f, d) in [(1, 3), (3, 3), (4, 2), (5, 2), (6, 4)] {
            let r = FilterRouting::new(f, d);
            for host in 0..d as u16 {
                for toid in 1..=40u64 {
                    let target = r.filter_for(DatacenterId(host), TOId(toid));
                    let (stride, first) = r
                        .stride_for(target, DatacenterId(host))
                        .expect("routed filter champions the host");
                    assert!(
                        toid >= first && (toid - first) % stride == 0,
                        "F={f} D={d} host={host} toid={toid} → filter {target} \
                         (stride {stride}, first {first})"
                    );
                }
            }
        }
    }

    #[test]
    fn in_order_records_pass_immediately() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        assert_eq!(toids(&f.ingest(Incoming::External(record(0, 1)))), vec![1]);
        assert_eq!(toids(&f.ingest(Incoming::External(record(0, 2)))), vec![2]);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        f.ingest(Incoming::External(record(0, 1)));
        assert!(f.ingest(Incoming::External(record(0, 1))).is_empty());
        assert_eq!(f.duplicates_dropped(), 1);
    }

    #[test]
    fn out_of_order_records_release_in_order() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        assert!(f.ingest(Incoming::External(record(0, 3))).is_empty());
        assert!(f.ingest(Incoming::External(record(0, 2))).is_empty());
        assert_eq!(f.reordering(), 2);
        let out = f.ingest(Incoming::External(record(0, 1)));
        assert_eq!(toids(&out), vec![1, 2, 3]);
        assert_eq!(f.reordering(), 0);
    }

    #[test]
    fn buffered_duplicate_collapses() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        f.ingest(Incoming::External(record(0, 2)));
        f.ingest(Incoming::External(record(0, 2)));
        assert_eq!(f.duplicates_dropped(), 1);
        let out = f.ingest(Incoming::External(record(0, 1)));
        assert_eq!(toids(&out), vec![1, 2]);
    }

    #[test]
    fn hosts_are_independent() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        assert_eq!(toids(&f.ingest(Incoming::External(record(0, 1)))), vec![1]);
        assert_eq!(toids(&f.ingest(Incoming::External(record(1, 1)))), vec![1]);
        assert!(f.ingest(Incoming::External(record(1, 3))).is_empty());
        assert_eq!(
            toids(&f.ingest(Incoming::External(record(1, 2)))),
            vec![2, 3]
        );
    }

    #[test]
    fn strided_champion_expects_its_subsequence() {
        // Filter 0 of 4 (2 DCs) champions a parity class of host 0's TOIds.
        let routing = FilterRouting::new(4, 2);
        let (stride, first) = routing.stride_for(0, DatacenterId(0)).unwrap();
        let mut f = FilterCore::with_routing(0, routing);
        let out = f.ingest(Incoming::External(record(0, first)));
        assert_eq!(toids(&out), vec![first]);
        let out = f.ingest(Incoming::External(record(0, first + stride)));
        assert_eq!(toids(&out), vec![first + stride]);
    }

    #[test]
    fn local_records_pass_through() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2));
        let out = f.ingest(Incoming::Local(crate::message::LocalAppend {
            tags: TagSet::new(),
            body: Bytes::new(),
            deps: VersionVector::new(2),
            reply: None,
            trace: None,
        }));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Incoming::Local(_)));
    }

    #[test]
    fn reorder_buffer_is_bounded() {
        let mut f = FilterCore::with_routing(0, FilterRouting::new(1, 2)).with_max_reorder(3);
        for toid in [5u64, 4, 3, 2] {
            f.ingest(Incoming::External(record(0, toid)));
        }
        assert_eq!(f.reordering(), 3, "fourth out-of-order record dropped");
        // The dropped record (toid 2) will be re-propagated by the ATable
        // loop; releasing 1 releases only the buffered run.
        let out = f.ingest(Incoming::External(record(0, 1)));
        assert_eq!(toids(&out), vec![1]);
    }

    #[test]
    fn reassignment_epoch_splits_champion_state() {
        // One filter; a second joins from TOId 10. The old filter keeps
        // draining its pre-boundary sequence; in the new epoch it only
        // champions its stride class.
        let plan = Arc::new(RwLock::new(RoutingPlan::new(FilterRouting::new(1, 1))));
        let mut f0 = FilterCore::new(0, Arc::clone(&plan));
        let mut f1 = FilterCore::new(1, Arc::clone(&plan));
        for t in 1..=5u64 {
            assert_eq!(toids(&f0.ingest(Incoming::External(record(0, t)))), vec![t]);
        }
        plan.write().announce(TOId(10), FilterRouting::new(2, 1));
        // Pre-boundary records still flow through f0's old champion.
        for t in 6..=9u64 {
            assert_eq!(toids(&f0.ingest(Incoming::External(record(0, t)))), vec![t]);
        }
        // Post-boundary records split; route them per the plan and check
        // each filter releases its own class in order.
        let mut released = Vec::new();
        for t in 10..=20u64 {
            let target = plan.read().filter_for(DatacenterId(0), TOId(t));
            let out = if target == 0 {
                f0.ingest(Incoming::External(record(0, t)))
            } else {
                f1.ingest(Incoming::External(record(0, t)))
            };
            released.extend(toids(&out));
        }
        released.sort_unstable();
        assert_eq!(released, (10..=20).collect::<Vec<_>>(), "nothing stuck");
        assert_eq!(f0.duplicates_dropped() + f1.duplicates_dropped(), 0);
    }

    #[test]
    fn misrouted_records_pass_through_to_queue() {
        // A record routed to a non-championing filter (transient window
        // during reassignment) is forwarded, not dropped: the queue is the
        // exactly-once authority.
        let mut f = FilterCore::with_routing(1, FilterRouting::new(2, 2));
        // Filter 1 champions host 1 only; feed it a host-0 record.
        let out = f.ingest(Incoming::External(record(0, 1)));
        assert_eq!(toids(&out), vec![1]);
    }
}
