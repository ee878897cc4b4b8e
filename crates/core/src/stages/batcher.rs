//! The batchers stage (§6.2).
//!
//! "The Batchers buffer records that are received locally or from external
//! sources. Batchers are completely independent from each other … Each
//! Batcher has a number of buffers equal to the number of Filters. Each
//! record is mapped to a specific Filter … Once a buffer size exceeds a
//! threshold, the records are sent to the designated Filter."
//!
//! Batchers consult the shared [`RoutingPlan`] on every record, so filter
//! reassignments (§6.3) reach them without coordination — routing is a pure
//! function of `(host, TOId)`.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chariots_simnet::{Counter, Endpoint, ServiceStation, Shutdown, StageTracer};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::RwLock;

use crate::message::Incoming;
use crate::routing_plan::RoutingPlan;
use crate::stages::filter::FilterIngress;
use crate::stages::StageHealth;

/// The synchronous state of one batcher: per-filter buffers.
#[derive(Debug)]
pub struct BatcherCore {
    buffers: Vec<Vec<Incoming>>,
    threshold: usize,
    plan: Arc<RwLock<RoutingPlan>>,
    local_spread: usize,
}

impl BatcherCore {
    /// A batcher flushing at `threshold` records per buffer, routing by
    /// the shared plan.
    pub fn new(plan: Arc<RwLock<RoutingPlan>>, threshold: usize) -> Self {
        let n = plan.read().current().routing.num_filters();
        BatcherCore {
            buffers: (0..n).map(|_| Vec::new()).collect(),
            threshold,
            plan,
            local_spread: 0,
        }
    }

    fn buffer_mut(&mut self, idx: usize) -> &mut Vec<Incoming> {
        if idx >= self.buffers.len() {
            self.buffers.resize_with(idx + 1, Vec::new);
        }
        &mut self.buffers[idx]
    }

    /// Buffers one record; returns a `(filter_index, batch)` flush if the
    /// destination buffer crossed the threshold.
    pub fn ingest(&mut self, record: Incoming) -> Option<(usize, Vec<Incoming>)> {
        let idx = match &record {
            Incoming::External(r) => self.plan.read().filter_for(r.host(), r.toid()),
            Incoming::Local(_) => {
                // Local records have no champion (no dedup needed); spread
                // them round-robin over the current filter fleet.
                let n = self.plan.read().current().routing.num_filters();
                self.local_spread = (self.local_spread + 1) % n;
                self.local_spread
            }
        };
        let threshold = self.threshold;
        let buffer = self.buffer_mut(idx);
        buffer.push(record);
        if buffer.len() >= threshold {
            Some((idx, std::mem::take(buffer)))
        } else {
            None
        }
    }

    /// Flushes every non-empty buffer (time-based flush at low load).
    pub fn flush_all(&mut self) -> Vec<(usize, Vec<Incoming>)> {
        self.buffers
            .iter_mut()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (i, std::mem::take(b)))
            .collect()
    }

    /// Records currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }
}

/// Handle to a batcher node.
#[derive(Clone)]
pub struct BatcherHandle {
    /// Where records for this batcher go. This is the pipeline's one hop
    /// that carries a record per message.
    pub(crate) to: Endpoint<Incoming>,
    station: Arc<ServiceStation>,
    processed: Counter,
    tracer: StageTracer,
    retire: Shutdown,
}

impl BatcherHandle {
    /// Feeds one record into the batcher. A traced record's batcher span
    /// starts here, so it includes channel and buffer wait.
    ///
    /// Over TCP a record someone waits on the reply of is written before
    /// this returns, so a blocking append still fails with the transport's
    /// error instead of waiting for a reply to a frame that never left.
    /// Every other record is posted: a burst of them shares one `write`.
    pub fn send(&self, record: Incoming) -> bool {
        self.station.note_arrival(1);
        self.tracer.enter(record.trace());
        if record.awaits_reply() {
            self.to.send(record).is_ok()
        } else {
            self.to.post(record).is_ok()
        }
    }

    /// Records processed by this batcher (bench instrumentation).
    pub fn processed_counter(&self) -> Counter {
        self.processed.clone()
    }

    /// The machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }

    /// Signals drain-and-retire: the loop serves and flushes everything
    /// already admitted, then exits so the caller can join the thread.
    /// The caller must have removed this handle from the shared batcher
    /// list first — that write lock is the admission barrier, after which
    /// the channel only shrinks.
    pub fn begin_retire(&self) {
        self.retire.signal();
    }
}

/// Spawns a batcher node: drains its channel, paces through its station,
/// and flushes batches to the (dynamically growable) filter fleet.
#[allow(clippy::too_many_arguments)]
pub fn spawn_batcher(
    plan: Arc<RwLock<RoutingPlan>>,
    threshold: usize,
    flush_interval: Duration,
    filters: Arc<RwLock<Vec<FilterIngress>>>,
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
    tracer: StageTracer,
    health: StageHealth,
) -> (BatcherHandle, JoinHandle<()>) {
    let (tx, rx) = unbounded::<Incoming>();
    let processed = Counter::new();
    let retire = Shutdown::new();
    let handle = BatcherHandle {
        to: Endpoint::Channel(tx),
        station: Arc::clone(&station),
        processed: processed.clone(),
        tracer: tracer.clone(),
        retire: retire.clone(),
    };
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            batcher_loop(
                BatcherCore::new(plan, threshold),
                &rx,
                &filters,
                &station,
                flush_interval,
                &shutdown,
                &retire,
                &processed,
                &tracer,
                &health,
            )
        })
        .expect("spawn batcher");
    (handle, thread)
}

fn send_to_filter(
    filters: &RwLock<Vec<FilterIngress>>,
    idx: usize,
    batch: Vec<Incoming>,
    tracer: &StageTracer,
) {
    // The batcher span ends when the batch leaves for the filter.
    for record in &batch {
        tracer.exit(record.trace());
    }
    let filters = filters.read();
    if let Some(f) = filters.get(idx) {
        f.send(batch);
    }
}

#[allow(clippy::too_many_arguments)]
fn batcher_loop(
    mut core: BatcherCore,
    rx: &Receiver<Incoming>,
    filters: &RwLock<Vec<FilterIngress>>,
    station: &ServiceStation,
    flush_interval: Duration,
    shutdown: &Shutdown,
    retire: &Shutdown,
    processed: &Counter,
    tracer: &StageTracer,
    health: &StageHealth,
) {
    let mut last_flush = Instant::now();
    // Serves and buffers one record, sending on the buffer it fills.
    let take = |core: &mut BatcherCore, record: Incoming| {
        if station.serve(1).is_err() {
            return; // crashed: the record is lost
        }
        processed.add(1);
        if let Some((idx, batch)) = core.ingest(record) {
            send_to_filter(filters, idx, batch, tracer);
        }
    };
    loop {
        if shutdown.is_signaled() {
            return;
        }
        if retire.is_signaled() {
            // Drain-and-retire: admission stopped when the handle left the
            // shared list, so the channel only shrinks. Serve what's left,
            // flush every buffer, zero the gauges, and exit — nothing this
            // node ever admitted is lost.
            while let Ok(record) = rx.try_recv() {
                take(&mut core, record);
            }
            for (idx, batch) in core.flush_all() {
                send_to_filter(filters, idx, batch, tracer);
            }
            health.depth.set(0);
            health.occupancy.set(0);
            return;
        }
        health.depth.set(rx.len() as i64);
        health.occupancy.set(core.buffered() as i64);
        match rx.recv_timeout(flush_interval) {
            Ok(record) => {
                take(&mut core, record);
                // Paced clients send in bursts, and the record that finds
                // the timer expired is as a rule the first of one: take
                // what has already arrived behind it, so the flush carries
                // the burst and not that one record. No further than half
                // a threshold's worth: under a backlog the channel never
                // runs empty, and a timer looked at once per threshold
                // would always find the buffer that fills just flushed —
                // the timed flush, and the batches and wake-ups downstream
                // of it, must stay one per interval there as well.
                for _ in 1..core.threshold / 2 {
                    let Ok(record) = rx.try_recv() else { break };
                    take(&mut core, record);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                for (idx, batch) in core.flush_all() {
                    send_to_filter(filters, idx, batch, tracer);
                }
                return;
            }
        }
        if last_flush.elapsed() >= flush_interval {
            last_flush = Instant::now();
            for (idx, batch) in core.flush_all() {
                send_to_filter(filters, idx, batch, tracer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::filter::FilterRouting;
    use bytes::Bytes;
    use chariots_types::{DatacenterId, Record, RecordId, TOId, TagSet, VersionVector};

    fn plan(filters: usize, dcs: usize) -> Arc<RwLock<RoutingPlan>> {
        Arc::new(RwLock::new(RoutingPlan::new(FilterRouting::new(
            filters, dcs,
        ))))
    }

    fn external(host: u16, toid: u64) -> Incoming {
        Incoming::External(Record::new(
            RecordId::new(DatacenterId(host), TOId(toid)),
            VersionVector::new(2),
            TagSet::new(),
            Bytes::new(),
        ))
    }

    fn local() -> Incoming {
        Incoming::Local(crate::message::LocalAppend {
            tags: TagSet::new(),
            body: Bytes::new(),
            deps: VersionVector::new(2),
            reply: None,
            trace: None,
        })
    }

    #[test]
    fn flush_triggers_at_threshold() {
        let mut b = BatcherCore::new(plan(1, 2), 3);
        assert!(b.ingest(external(0, 1)).is_none());
        assert!(b.ingest(external(0, 2)).is_none());
        let (idx, batch) = b.ingest(external(0, 3)).expect("threshold flush");
        assert_eq!(idx, 0);
        assert_eq!(batch.len(), 3);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn records_route_to_host_champion_buffers() {
        let mut b = BatcherCore::new(plan(2, 2), 100);
        b.ingest(external(0, 1));
        b.ingest(external(1, 1));
        b.ingest(external(0, 2));
        // Host 0 → filter 0, host 1 → filter 1 (2 filters, 2 DCs).
        assert_eq!(b.buffers[0].len(), 2);
        assert_eq!(b.buffers[1].len(), 1);
    }

    #[test]
    fn local_records_spread_round_robin() {
        let mut b = BatcherCore::new(plan(2, 2), 100);
        for _ in 0..6 {
            b.ingest(local());
        }
        assert_eq!(b.buffers[0].len(), 3);
        assert_eq!(b.buffers[1].len(), 3);
    }

    #[test]
    fn flush_all_empties_every_buffer() {
        let mut b = BatcherCore::new(plan(2, 2), 100);
        b.ingest(external(0, 1));
        b.ingest(external(1, 1));
        let flushed = b.flush_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(b.buffered(), 0);
        assert!(b.flush_all().is_empty());
    }

    #[test]
    fn plan_change_reroutes_future_toids() {
        let p = plan(1, 1);
        let mut b = BatcherCore::new(Arc::clone(&p), 100);
        b.ingest(external(0, 1));
        assert_eq!(b.buffers[0].len(), 1);
        p.write().announce(TOId(10), FilterRouting::new(2, 1));
        // Below the boundary: still the old filter.
        b.ingest(external(0, 9));
        assert_eq!(b.buffers[0].len(), 2);
        // At/after the boundary: split across both filters.
        b.ingest(external(0, 10));
        b.ingest(external(0, 11));
        let in_new: usize = b.buffers.get(1).map(Vec::len).unwrap_or(0);
        assert_eq!(b.buffered(), 4);
        assert!(in_new >= 1, "the new filter got part of the split");
    }

    #[test]
    fn node_forwards_batches_to_filters() {
        use chariots_simnet::StationConfig;
        let (filter_tx, filter_rx) = unbounded();
        let shutdown = Shutdown::new();
        let station = Arc::new(ServiceStation::new("b0", StationConfig::uncapped()));
        let ingress = FilterIngress::from_parts(
            filter_tx,
            Arc::new(ServiceStation::new("f0", StationConfig::uncapped())),
            StageTracer::disabled(),
        );
        let (handle, thread) = spawn_batcher(
            plan(1, 2),
            4,
            Duration::from_millis(1),
            Arc::new(RwLock::new(vec![ingress])),
            station,
            shutdown.clone(),
            "batcher-test".into(),
            StageTracer::disabled(),
            StageHealth::disabled(),
        );
        for i in 0..10 {
            assert!(handle.send(external(0, i + 1)));
        }
        let mut received = 0;
        let deadline = Instant::now() + Duration::from_secs(2);
        while received < 10 {
            match filter_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(batch) => received += batch.len(),
                Err(_) => assert!(Instant::now() < deadline, "batches never arrived"),
            }
        }
        assert_eq!(handle.processed_counter().get(), 10);
        shutdown.signal();
        thread.join().unwrap();
    }
}
