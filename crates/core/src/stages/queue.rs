//! The queues stage (§6.2): causal `LId` assignment under the token.
//!
//! "Queues are responsible for assigning LIds to the records. … Once a
//! group of records have their causal dependencies satisfied, they are
//! assigned LIds and sent to the appropriate log maintainer for
//! persistence. … The queue holding the token appends all the records that
//! can be added to the log … the token is sent to the next [queue] in a
//! round-robin fashion."
//!
//! Adding a queue at runtime (§6.3) "involves two tasks: making the new
//! queue part of the token exchange loop and propagating the information
//! of its addition to filters". The first is the swappable `next_queue`
//! slot below; the second needs no coordination "because a queue can
//! receive any record" — filters just see a longer ingress list.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{Counter, Notify, ServiceStation, Shutdown, StageTracer};
use chariots_types::{DatacenterId, Entry, MaintainerId, Record, RecordId};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use chariots_flstore::{Controller, ReplicaGroupHandle};

use crate::atable::ATable;
use crate::message::{Incoming, LocalAppend};
use crate::stages::StageHealth;
use crate::token::Token;

/// The synchronous assignment logic of one queue.
#[derive(Debug)]
pub struct QueueCore {
    dc: DatacenterId,
    /// Records staged here while the token is elsewhere.
    staged: Vec<Incoming>,
    /// Deferred records parked *at this queue* when the deployment's
    /// token-carries-deferred policy is off (ablation A3).
    parked: BTreeMap<RecordId, Record>,
    parked_local: Vec<LocalAppend>,
    carries_deferred: bool,
}

impl QueueCore {
    /// A queue for datacenter `dc`.
    pub fn new(dc: DatacenterId, carries_deferred: bool) -> Self {
        QueueCore {
            dc,
            staged: Vec::new(),
            parked: BTreeMap::new(),
            parked_local: Vec::new(),
            carries_deferred,
        }
    }

    /// Stages records for the next token visit.
    pub fn stage(&mut self, records: Vec<Incoming>) {
        self.staged.extend(records);
    }

    /// Records waiting for the token.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Records parked here with unsatisfied dependencies.
    pub fn parked_len(&self) -> usize {
        self.parked.len() + self.parked_local.len()
    }

    /// Processes everything processable while holding the token: assigns
    /// `(TOId, LId)` to ready records, sends client replies, and returns
    /// the entries to persist. Unsatisfied records move to the token (or
    /// stay parked here, per policy).
    pub fn process(&mut self, token: &mut Token) -> Vec<Entry> {
        let mut out = Vec::new();

        // Pull everything parked on the token into our working set.
        let mut ext: BTreeMap<RecordId, Record> = std::mem::take(&mut token.deferred);
        ext.append(&mut self.parked);
        let mut locals: Vec<LocalAppend> = std::mem::take(&mut token.deferred_local);
        locals.append(&mut self.parked_local);

        // Stage the new arrivals.
        for inc in self.staged.drain(..) {
            match inc {
                Incoming::External(r) => {
                    if !token.is_duplicate(&r) {
                        ext.entry(r.id).or_insert(r);
                    }
                }
                Incoming::Local(l) => locals.push(l),
            }
        }

        // Fixed point: applying one record can unblock others.
        loop {
            let mut progress = false;

            // External records in (host, TOId) order — the order they can
            // possibly apply in.
            let ready: Vec<RecordId> = ext
                .values()
                .filter(|r| token.can_apply(r))
                .map(|r| r.id)
                .collect();
            for id in ready {
                let Some(r) = ext.get(&id) else { continue };
                if !token.can_apply(r) {
                    continue;
                }
                let r = ext.remove(&id).expect("present");
                let lid = token.assign_external(&r);
                out.push(Entry::new(lid, r));
                progress = true;
            }

            // Local appends whose client context is satisfied.
            let mut still_waiting = Vec::new();
            for l in locals.drain(..) {
                if token.applied.dominates(&l.deps) {
                    let (toid, lid) = token.assign_local(self.dc);
                    let record = Record::new(RecordId::new(self.dc, toid), l.deps, l.tags, l.body)
                        .with_trace(l.trace);
                    if let Some(reply) = l.reply {
                        let _ = reply.send((toid, lid));
                    }
                    out.push(Entry::new(lid, record));
                    progress = true;
                } else {
                    still_waiting.push(l);
                }
            }
            locals = still_waiting;

            if !progress {
                break;
            }
        }

        // Park the rest — on the token or here, per policy.
        if self.carries_deferred {
            token.deferred = ext;
            token.deferred_local = locals;
        } else {
            self.parked = ext;
            self.parked_local = locals;
        }
        out
    }

    /// Moves everything parked *at this queue* onto the token, regardless
    /// of the carries-deferred policy. Used by drain-and-retire: a queue
    /// leaving the ring must not strand records with unmet dependencies —
    /// the token carries them to the surviving queues.
    pub fn evict_onto(&mut self, token: &mut Token) {
        token.deferred.append(&mut self.parked);
        token.deferred_local.append(&mut self.parked_local);
    }
}

/// Routes assigned entries to their owning maintainer groups and stores
/// them. The group handle picks a live replica, so a crashed primary does
/// not swallow entries whose positions the token already committed.
pub fn route_entries(
    entries: Vec<Entry>,
    controller: &Controller,
    maintainers: &[ReplicaGroupHandle],
) {
    if entries.is_empty() {
        return;
    }
    let journal = controller.journal();
    let mut per_maintainer: HashMap<MaintainerId, Vec<Entry>> = HashMap::new();
    for entry in entries {
        let owner = journal.owner_of(entry.lid);
        per_maintainer.entry(owner).or_default().push(entry);
    }
    for (owner, batch) in per_maintainer {
        if let Some(handle) = maintainers.get(owner.index()) {
            handle.store(batch);
        }
    }
}

/// Producer-side ingress to a queue: sending notes the arrival at the
/// queue's station so backlog drives its overload model.
#[derive(Clone)]
pub struct QueueIngress {
    tx: Sender<Vec<Incoming>>,
    station: Arc<ServiceStation>,
    tracer: StageTracer,
    /// When set, `send` ships the batch over TCP to this queue's loopback
    /// listener; the listener feeds `tx` raw, so station accounting stays
    /// on the sending side either way.
    wire: Option<Arc<chariots_simnet::TcpSender>>,
}

impl QueueIngress {
    /// Enqueues a batch of releasable records. A traced record's queue
    /// span starts here, so it includes the wait for the token.
    pub fn send(&self, batch: Vec<Incoming>) -> bool {
        self.station.note_arrival(batch.len() as u64);
        for record in &batch {
            self.tracer.enter(record.trace());
        }
        match &self.wire {
            Some(wire) => wire.send(&batch).is_ok(),
            None => self.tx.send(batch).is_ok(),
        }
    }

    /// Exposes this queue over TCP: a loopback listener feeds the same
    /// channel, and the returned ingress clone sends through a pooled
    /// socket (one serialization per batch).
    pub fn via_tcp(
        &self,
        name: &str,
        shutdown: Shutdown,
        metrics: chariots_simnet::TransportMetrics,
    ) -> std::io::Result<QueueIngress> {
        let tx = self.tx.clone();
        let addr = chariots_simnet::spawn_wire_listener(
            name,
            shutdown,
            metrics.clone(),
            move |batch: Vec<Incoming>| {
                let _ = tx.send(batch);
            },
        )?;
        let mut wired = self.clone();
        wired.wire = Some(Arc::new(chariots_simnet::TcpSender::new(addr, metrics)));
        Ok(wired)
    }

    /// The queue machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }
}

/// Drain-and-retire coordination between a queue's handle and its loop.
#[derive(Clone)]
struct RetireState {
    /// Set by the actuator: stop accepting that new work will arrive and
    /// start evicting parked records onto the token.
    retiring: Arc<AtomicBool>,
    /// Set by the loop while holding the token: channel, staged set, and
    /// parked set are all empty — nothing is stranded here anymore.
    drained: Arc<AtomicBool>,
    /// Per-node stop (distinct from deployment shutdown): signalled once
    /// the ring is unspliced; the loop forwards any straggler tokens and
    /// exits.
    stop: Shutdown,
}

impl RetireState {
    fn new() -> Self {
        RetireState {
            retiring: Arc::new(AtomicBool::new(false)),
            drained: Arc::new(AtomicBool::new(false)),
            stop: Shutdown::new(),
        }
    }
}

/// Handle to a queue node.
#[derive(Clone)]
pub struct QueueHandle {
    records_tx: Sender<Vec<Incoming>>,
    token_tx: Sender<Token>,
    next_queue: Arc<Mutex<Sender<Token>>>,
    station: Arc<ServiceStation>,
    processed: Counter,
    tracer: StageTracer,
    retire: RetireState,
}

impl QueueHandle {
    /// A producer-side ingress (notes arrivals at this queue's station).
    pub fn ingress(&self) -> QueueIngress {
        QueueIngress {
            tx: self.records_tx.clone(),
            station: Arc::clone(&self.station),
            tracer: self.tracer.clone(),
            wire: None,
        }
    }

    /// Injects the token (deployment wiring: exactly one token exists).
    pub fn inject_token(&self, token: Token) {
        let _ = self.token_tx.send(token);
    }

    /// The sender other queues use to pass the token to this queue.
    pub fn token_sender(&self) -> Sender<Token> {
        self.token_tx.clone()
    }

    /// Re-points this queue's token forwarding — the ring-insertion step
    /// of adding a queue (§6.3: "informing one of the queues that it
    /// should forward the token to the new queue rather than the original
    /// neighbor").
    pub fn set_next(&self, next: Sender<Token>) {
        *self.next_queue.lock() = next;
    }

    /// Records assigned by this queue (bench instrumentation).
    pub fn processed_counter(&self) -> Counter {
        self.processed.clone()
    }

    /// The machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }

    /// Starts drain-and-retire. The caller must already have removed this
    /// queue's ingress from the shared list (the admission barrier) — from
    /// here on the loop evicts parked records onto the token and reports
    /// [`is_drained`](Self::is_drained) once nothing is left on this node.
    pub fn begin_retire(&self) {
        self.retire.retiring.store(true, Ordering::SeqCst);
    }

    /// Aborts an in-progress retire (drain deadline missed). The loop
    /// clears its drained flag on the next token visit and the node keeps
    /// serving.
    pub fn cancel_retire(&self) {
        self.retire.retiring.store(false, Ordering::SeqCst);
    }

    /// Whether the node has confirmed — while holding the token — that its
    /// channel, staged set, and parked set are all empty.
    pub fn is_drained(&self) -> bool {
        self.retire.drained.load(Ordering::SeqCst)
    }

    /// Final retire step, after the ring has been unspliced around this
    /// node: the loop forwards any straggler tokens and exits, so the
    /// caller can join the thread.
    pub fn finish_retire(&self) {
        self.retire.stop.signal();
    }
}

/// Everything a queue node needs to do its job.
pub struct QueueNodeConfig {
    /// This datacenter.
    pub dc: DatacenterId,
    /// Token-carries-deferred policy (ablation A3).
    pub carries_deferred: bool,
    /// The FLStore controller, for routing journal lookups.
    pub controller: Controller,
    /// Maintainer replica-group handles for persistence (shared registry:
    /// FLStore expansion appends to it live).
    pub maintainers: Arc<RwLock<Vec<ReplicaGroupHandle>>>,
    /// Shared ATable: row `dc` is refreshed from the token's applied cut.
    pub atable: Arc<RwLock<ATable>>,
    /// Where to pass the token next (swappable for ring insertion).
    pub next_queue: Arc<Mutex<Sender<Token>>>,
    /// Idle pause before passing on a token that found no work.
    pub idle_pause: Duration,
    /// Queue-stage tracer: entered at ingress, exited when an entry is
    /// assigned and routed to a maintainer.
    pub tracer: StageTracer,
    /// Store-stage tracer: a record's store span starts when the queue
    /// hands it to a maintainer and ends when the maintainer persists it.
    pub store_tracer: StageTracer,
    /// Signalled after this queue routes newly assigned entries to the
    /// maintainers — the "new local records exist" edge that wakes the
    /// senders for an immediate propagation round.
    pub sender_wakeup: Notify,
    /// Health gauges: inbound channel depth and records held (staged for
    /// the next token visit plus parked with unmet dependencies).
    pub health: StageHealth,
}

/// Spawns a queue node. The caller supplies the token channel pair so the
/// round-robin ring can be wired before any queue runs: queue *i* receives
/// on its own channel and `cfg.next_queue` points at queue *i+1*'s sender.
pub fn spawn_queue(
    cfg: QueueNodeConfig,
    token_channel: (Sender<Token>, Receiver<Token>),
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
) -> (QueueHandle, JoinHandle<()>) {
    let (records_tx, records_rx) = unbounded::<Vec<Incoming>>();
    let (token_tx, token_rx) = token_channel;
    let processed = Counter::new();
    let retire = RetireState::new();
    let handle = QueueHandle {
        records_tx,
        token_tx,
        next_queue: Arc::clone(&cfg.next_queue),
        station: Arc::clone(&station),
        processed: processed.clone(),
        tracer: cfg.tracer.clone(),
        retire: retire.clone(),
    };
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            queue_loop(
                cfg,
                &records_rx,
                &token_rx,
                &station,
                &shutdown,
                &processed,
                &retire,
            )
        })
        .expect("spawn queue");
    (handle, thread)
}

fn queue_loop(
    cfg: QueueNodeConfig,
    records_rx: &Receiver<Vec<Incoming>>,
    token_rx: &Receiver<Token>,
    station: &ServiceStation,
    shutdown: &Shutdown,
    processed: &Counter,
    retire: &RetireState,
) {
    let mut core = QueueCore::new(cfg.dc, cfg.carries_deferred);
    let pass_token = |token: Token| cfg.next_queue.lock().send(token).is_ok();
    // Assigns everything assignable under the token and hands it to the
    // maintainers; returns how many records that was.
    let assign = |core: &mut QueueCore, token: &mut Token| {
        let entries = core.process(token);
        let assigned = entries.len() as u64;
        processed.add(assigned);
        for e in &entries {
            // The queue span ends at assignment; the store span opens as
            // the entry leaves for its maintainer.
            cfg.tracer.exit(e.record.trace);
            cfg.store_tracer.enter(e.record.trace);
        }
        route_entries(entries, &cfg.controller, &cfg.maintainers.read());
        assigned
    };
    loop {
        if shutdown.is_signaled() {
            return;
        }
        if retire.stop.is_signaled() {
            // Retired: the ring is already unspliced around this node, so
            // no further tokens will be addressed here — but one may still
            // sit in the channel. Forward stragglers so the deployment's
            // single token survives, then exit.
            while let Ok(token) = token_rx.try_recv() {
                let _ = pass_token(token);
            }
            cfg.health.depth.set(0);
            cfg.health.occupancy.set(0);
            return;
        }
        cfg.health.depth.set(records_rx.len() as i64);
        cfg.health
            .occupancy
            .set((core.staged_len() + core.parked_len()) as i64);
        // Stage any waiting records (non-blocking), paying their machine
        // cost NOW — while this queue does *not* hold the token. The
        // per-record work (staging, buffering, building batches) is what a
        // queue machine spends its time on; only the LId assignment itself
        // is serialized by the token, so queue machines scale out (§6.2,
        // Table 5).
        let mut crashed = false;
        loop {
            match records_rx.try_recv() {
                Ok(batch) => {
                    let n = batch.len() as u64;
                    core.stage(batch);
                    if station.serve(n).is_err() {
                        crashed = true;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        // Wait briefly for the token.
        let mut token = match token_rx.recv_timeout(Duration::from_millis(5)) {
            Ok(t) => t,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        };
        if crashed || station.is_crashed() {
            // Crashed: pass the token straight on so the ring survives (a
            // real deployment would re-mint it via the controller).
            let _ = pass_token(token);
            continue;
        }

        let staged = core.staged_len() as u64;
        let mut assigned = assign(&mut core, &mut token);
        if assigned == 0 && staged == 0 && !cfg.idle_pause.is_zero() {
            // Nothing to do: rest before passing the token on, so a quiet
            // single-queue deployment doesn't spin — but rest on the
            // records channel. A batch that arrives meanwhile is assigned
            // under the token already in hand instead of waiting out the
            // pause and another trip round the ring.
            if let Ok(batch) = records_rx.recv_timeout(cfg.idle_pause) {
                let n = batch.len() as u64;
                core.stage(batch);
                if station.serve(n).is_err() {
                    let _ = pass_token(token);
                    continue;
                }
                assigned = assign(&mut core, &mut token);
            }
        }
        if retire.retiring.load(Ordering::SeqCst) {
            // Draining: the ingress is already gone, so the channel only
            // shrinks. Push anything parked here onto the token and report
            // drained once this node holds no records at all — judged
            // while holding the token, so the verdict cannot race an
            // assignment.
            core.evict_onto(&mut token);
            let empty = records_rx.is_empty() && core.staged_len() == 0 && core.parked_len() == 0;
            retire.drained.store(empty, Ordering::SeqCst);
        } else if retire.drained.load(Ordering::SeqCst) {
            // A cancelled retire leaves no stale verdict behind.
            retire.drained.store(false, Ordering::SeqCst);
        }
        cfg.atable.write().merge_row(cfg.dc, &token.applied);
        if assigned > 0 {
            // New local records are on their way to the maintainers: wake
            // the senders so propagation starts now, not at the next
            // heartbeat. Coalesces, so a busy ring costs one signal per
            // sender round at most.
            cfg.sender_wakeup.notify();
        }
        token.passes += 1;
        if !pass_token(token) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_types::{LId, TOId, TagSet, VersionVector};

    fn record(host: u16, toid: u64, deps: Vec<u64>) -> Record {
        Record::new(
            RecordId::new(DatacenterId(host), TOId(toid)),
            VersionVector::from_entries(deps.into_iter().map(TOId).collect()),
            TagSet::new(),
            Bytes::new(),
        )
    }

    fn local(deps: Vec<u64>) -> LocalAppend {
        LocalAppend {
            tags: TagSet::new(),
            body: Bytes::new(),
            deps: VersionVector::from_entries(deps.into_iter().map(TOId).collect()),
            reply: None,
            trace: None,
        }
    }

    /// A batch that reaches a queue resting with the token is assigned
    /// then, not after the rest of the pause.
    #[test]
    fn idle_token_holder_assigns_a_batch_as_it_arrives() {
        use chariots_flstore::RangeMap;
        use chariots_simnet::StationConfig;
        use crossbeam::channel::bounded;

        let idle_pause = Duration::from_secs(5);
        let (token_tx, token_rx) = unbounded();
        let shutdown = Shutdown::new();
        let (queue, thread) = spawn_queue(
            QueueNodeConfig {
                dc: DatacenterId(0),
                carries_deferred: true,
                controller: Controller::new(DatacenterId(0), RangeMap::new(1, 1_000)),
                maintainers: Arc::new(RwLock::new(Vec::new())),
                atable: Arc::new(RwLock::new(ATable::new(1))),
                next_queue: Arc::new(Mutex::new(token_tx.clone())),
                idle_pause,
                tracer: StageTracer::disabled(),
                store_tracer: StageTracer::disabled(),
                sender_wakeup: Notify::new(),
                health: StageHealth::disabled(),
            },
            (token_tx, token_rx),
            Arc::new(ServiceStation::new("q0", StationConfig::uncapped())),
            shutdown.clone(),
            "queue-test".into(),
        );
        let append = |reply| {
            let mut l = local(vec![0]);
            l.reply = Some(chariots_simnet::ReplyTo::local(reply));
            queue.ingress().send(vec![Incoming::Local(l)])
        };
        queue.inject_token(Token::new(1));
        // The first reply shows the queue has the token and has used it;
        // with nothing more staged it now rests, token in hand.
        let (reply, first) = bounded(1);
        assert!(append(reply));
        first.recv_timeout(Duration::from_secs(10)).unwrap();
        // Give it time to get there. Whether the next batch then meets the
        // queue resting or (on a slow machine) still on its way, it is
        // assigned without waiting out a pause.
        std::thread::sleep(Duration::from_millis(100));
        let (reply, second) = bounded(1);
        assert!(append(reply));
        assert_eq!(
            second.recv_timeout(idle_pause / 2).unwrap(),
            (TOId(2), LId(1))
        );
        // An empty batch ends the pause the loop is in, and it sees the signal.
        shutdown.signal();
        assert!(queue.ingress().send(Vec::new()));
        thread.join().unwrap();
    }

    #[test]
    fn ready_records_are_assigned_in_causal_order() {
        let mut q = QueueCore::new(DatacenterId(0), true);
        let mut token = Token::new(2);
        // Deliver host 1's records out of order.
        q.stage(vec![
            Incoming::External(record(1, 2, vec![0, 1])),
            Incoming::External(record(1, 1, vec![0, 0])),
        ]);
        let entries = q.process(&mut token);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record.toid(), TOId(1));
        assert_eq!(entries[0].lid, LId(0));
        assert_eq!(entries[1].record.toid(), TOId(2));
        assert_eq!(entries[1].lid, LId(1));
        assert_eq!(token.deferred_len(), 0);
    }

    #[test]
    fn unsatisfied_records_ride_the_token() {
        let mut q = QueueCore::new(DatacenterId(0), true);
        let mut token = Token::new(2);
        q.stage(vec![Incoming::External(record(1, 2, vec![0, 1]))]);
        let entries = q.process(&mut token);
        assert!(entries.is_empty());
        assert_eq!(token.deferred.len(), 1, "parked on the token");
        // A second queue later receives the missing dependency.
        let mut q2 = QueueCore::new(DatacenterId(0), true);
        q2.stage(vec![Incoming::External(record(1, 1, vec![0, 0]))]);
        let entries = q2.process(&mut token);
        assert_eq!(entries.len(), 2, "token-carried record applied too");
    }

    #[test]
    fn parked_locally_when_policy_off() {
        let mut q = QueueCore::new(DatacenterId(0), false);
        let mut token = Token::new(2);
        q.stage(vec![Incoming::External(record(1, 2, vec![0, 1]))]);
        q.process(&mut token);
        assert_eq!(token.deferred_len(), 0, "token travels light");
        assert_eq!(q.parked_len(), 1);
        // The dependency arrives at *this* queue on a later pass.
        q.stage(vec![Incoming::External(record(1, 1, vec![0, 0]))]);
        let entries = q.process(&mut token);
        assert_eq!(entries.len(), 2);
        assert_eq!(q.parked_len(), 0);
    }

    #[test]
    fn local_appends_get_toid_and_reply() {
        let mut q = QueueCore::new(DatacenterId(0), true);
        let mut token = Token::new(2);
        let (reply_tx, reply_rx) = unbounded();
        q.stage(vec![Incoming::Local(LocalAppend {
            reply: Some(chariots_simnet::ReplyTo::local(reply_tx)),
            ..local(vec![0, 0])
        })]);
        let entries = q.process(&mut token);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].record.host(), DatacenterId(0));
        assert_eq!(reply_rx.try_recv().unwrap(), (TOId(1), LId(0)));
        assert_eq!(token.applied.get(DatacenterId(0)), TOId(1));
    }

    #[test]
    fn local_append_waits_for_its_context() {
        let mut q = QueueCore::new(DatacenterId(0), true);
        let mut token = Token::new(2);
        // Client observed host 1's record 1, which is not in the log yet.
        q.stage(vec![Incoming::Local(local(vec![0, 1]))]);
        assert!(q.process(&mut token).is_empty());
        assert_eq!(token.deferred_local.len(), 1);
        // The dependency arrives; both apply, dependency first.
        q.stage(vec![Incoming::External(record(1, 1, vec![0, 0]))]);
        let entries = q.process(&mut token);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record.host(), DatacenterId(1));
        assert_eq!(entries[1].record.host(), DatacenterId(0));
    }

    #[test]
    fn duplicate_externals_are_dropped() {
        let mut q = QueueCore::new(DatacenterId(0), true);
        let mut token = Token::new(2);
        q.stage(vec![Incoming::External(record(1, 1, vec![0, 0]))]);
        assert_eq!(q.process(&mut token).len(), 1);
        // The same record arrives again (filter restarted, link duplicated…).
        q.stage(vec![Incoming::External(record(1, 1, vec![0, 0]))]);
        assert!(
            q.process(&mut token).is_empty(),
            "exactly-once at the queue"
        );
        // And a duplicate of a *deferred* record collapses too.
        q.stage(vec![
            Incoming::External(record(1, 3, vec![0, 2])),
            Incoming::External(record(1, 3, vec![0, 2])),
        ]);
        q.process(&mut token);
        assert_eq!(token.deferred.len(), 1);
    }

    #[test]
    fn cross_host_causality_is_enforced() {
        // Host 1's record depends on host 0's record 1.
        let mut q = QueueCore::new(DatacenterId(2), true);
        let mut token = Token::new(3);
        q.stage(vec![Incoming::External(record(1, 1, vec![1, 0, 0]))]);
        assert!(q.process(&mut token).is_empty(), "cause missing");
        q.stage(vec![Incoming::External(record(0, 1, vec![0, 0, 0]))]);
        let entries = q.process(&mut token);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record.host(), DatacenterId(0), "cause first");
        assert_eq!(entries[1].record.host(), DatacenterId(1));
    }
}
