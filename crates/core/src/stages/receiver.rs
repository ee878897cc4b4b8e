//! The receivers stage (§6.2): the ingress for records propagated from
//! other datacenters.
//!
//! Receivers drain the WAN links, record the sending datacenter's applied
//! cut in the shared ATable (the knowledge that drives propagation
//! filtering and GC), and forward the records to the batchers. A receiver
//! never wakes the local senders: with delta shipping a peer's cut changes
//! nothing a round would ship, and pruning, cursor clamping and the
//! retransmit clock are served by the next round anyway — one driven by a
//! local record or by the heartbeat floor. So a message cannot cause a
//! message, and two datacenters cannot ping-pong each other awake.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{Counter, PipelineTracer, ServiceStation, Shutdown};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::RwLock;

use crate::atable::ATable;
use crate::message::{Incoming, PropagationMsg};
use crate::stages::batcher::BatcherHandle;
use crate::stages::StageHealth;

/// Spawns a receiver node draining `wan_rx`. Multiple receivers of one
/// datacenter share the same channel (crossbeam channels are MPMC), exactly
/// like multiple machines behind one ingress VIP.
#[allow(clippy::too_many_arguments)]
pub fn spawn_receiver(
    wan_rx: Receiver<PropagationMsg>,
    batchers: Arc<RwLock<Vec<BatcherHandle>>>,
    atable: Arc<RwLock<ATable>>,
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
    tracer: PipelineTracer,
    health: StageHealth,
) -> (Counter, JoinHandle<()>) {
    let processed = Counter::new();
    let counter = processed.clone();
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let stage = tracer.stage("receiver");
            let mut rr = 0usize;
            loop {
                if shutdown.is_signaled() {
                    return;
                }
                // A receiver holds nothing between iterations; its health
                // is entirely the WAN channel backlog behind it.
                health.depth.set(wan_rx.len() as i64);
                let msg = match wan_rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                };
                let n = msg.records.len() as u64;
                // Empty heartbeats (applied-cut gossip) cost the ingress
                // machine nothing record-shaped: charging them a full
                // record unit would let idle gossip eat serve capacity.
                if n > 0 {
                    station.note_arrival(n);
                    if station.serve(n).is_err() {
                        continue; // crashed: the ATable loop re-sends
                    }
                } else if station.is_crashed() {
                    continue;
                }
                processed.add(n);
                // The sender's applied cut: everything `from` has
                // incorporated — row `from` of our ATable.
                atable.write().merge_row(msg.from, &msg.applied);
                let batchers = batchers.read();
                if batchers.is_empty() {
                    continue;
                }
                let t0 = std::time::Instant::now();
                for record in msg.records.iter() {
                    // A foreign record's trace does not cross the WAN: this
                    // datacenter re-samples it under its own tracer.
                    let record = record.clone().with_trace(tracer.sample());
                    rr = (rr + 1) % batchers.len();
                    batchers[rr].send(Incoming::External(record));
                }
                if n > 0 {
                    stage.observe(t0.elapsed());
                }
            }
        })
        .expect("spawn receiver");
    (counter, thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::batcher::spawn_batcher;
    use crate::stages::filter::FilterRouting;
    use bytes::Bytes;
    use chariots_simnet::StationConfig;
    use chariots_types::{DatacenterId, Record, RecordId, TOId, TagSet, VersionVector};
    use crossbeam::channel::unbounded;
    use std::time::Instant;

    fn test_batchers(
        shutdown: &Shutdown,
    ) -> (
        Arc<RwLock<Vec<BatcherHandle>>>,
        crossbeam::channel::Receiver<Vec<Incoming>>,
        JoinHandle<()>,
    ) {
        let (filter_tx, filter_rx) = unbounded();
        let filter_ingress = crate::stages::filter::FilterIngress::from_parts(
            filter_tx,
            Arc::new(ServiceStation::new("f0", StationConfig::uncapped())),
            chariots_simnet::StageTracer::disabled(),
        );
        let plan = Arc::new(RwLock::new(crate::routing_plan::RoutingPlan::new(
            FilterRouting::new(1, 2),
        )));
        let (batcher, batcher_thread) = spawn_batcher(
            plan,
            1, // flush immediately
            Duration::from_millis(1),
            Arc::new(RwLock::new(vec![filter_ingress])),
            Arc::new(ServiceStation::new("b0", StationConfig::uncapped())),
            shutdown.clone(),
            "batcher".into(),
            chariots_simnet::StageTracer::disabled(),
            StageHealth::disabled(),
        );
        (
            Arc::new(RwLock::new(vec![batcher])),
            filter_rx,
            batcher_thread,
        )
    }

    #[test]
    fn receiver_updates_atable_and_forwards() {
        let shutdown = Shutdown::new();
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let station = Arc::new(ServiceStation::new("r0", StationConfig::uncapped()));
        let (batchers, filter_rx, batcher_thread) = test_batchers(&shutdown);
        let (wan_tx, wan_rx) = unbounded();
        let (counter, recv_thread) = spawn_receiver(
            wan_rx,
            batchers,
            Arc::clone(&atable),
            station,
            shutdown.clone(),
            "receiver".into(),
            PipelineTracer::disabled(),
            StageHealth::disabled(),
        );

        let record = Record::new(
            RecordId::new(DatacenterId(1), TOId(1)),
            VersionVector::new(2),
            TagSet::new(),
            Bytes::from_static(b"ext"),
        );
        wan_tx
            .send(PropagationMsg {
                from: DatacenterId(1),
                records: Arc::from(vec![record]),
                applied: VersionVector::from_entries(vec![TOId(0), TOId(1)]),
            })
            .unwrap();

        // The record flows receiver → batcher → filter channel.
        let batch = filter_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("record forwarded");
        assert_eq!(batch.len(), 1);
        // And the ATable learned DC 1's applied cut.
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let known = atable.read().get(DatacenterId(1), DatacenterId(1));
            if known == TOId(1) {
                break;
            }
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(counter.get(), 1);
        shutdown.signal();
        recv_thread.join().unwrap();
        batcher_thread.join().unwrap();
    }

    /// Regression: empty applied-cut heartbeats must not be charged as
    /// record work at the ingress station — under the old `n.max(1)`
    /// accounting, the gossip floor alone consumed serve capacity.
    #[test]
    fn empty_heartbeats_cost_nothing() {
        let shutdown = Shutdown::new();
        let atable = Arc::new(RwLock::new(ATable::new(2)));
        let station = Arc::new(ServiceStation::new("r0", StationConfig::uncapped()));
        let (batchers, _filter_rx, batcher_thread) = test_batchers(&shutdown);
        let (wan_tx, wan_rx) = unbounded();
        let (counter, recv_thread) = spawn_receiver(
            wan_rx,
            batchers,
            Arc::clone(&atable),
            Arc::clone(&station),
            shutdown.clone(),
            "receiver".into(),
            PipelineTracer::disabled(),
            StageHealth::disabled(),
        );

        let cut = VersionVector::from_entries(vec![TOId(0), TOId(3)]);
        for _ in 0..5 {
            wan_tx
                .send(PropagationMsg {
                    from: DatacenterId(1),
                    records: Arc::from(vec![]),
                    applied: cut.clone(),
                })
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while atable.read().get(DatacenterId(1), DatacenterId(1)) < TOId(3) {
            assert!(Instant::now() < deadline, "heartbeats still merge the cut");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Give the remaining redundant heartbeats time to drain.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(station.served(), 0, "heartbeats are not record work");
        assert_eq!(counter.get(), 0);
        shutdown.signal();
        recv_thread.join().unwrap();
        batcher_thread.join().unwrap();
    }
}
