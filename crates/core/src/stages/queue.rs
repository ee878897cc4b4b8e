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
//! of its addition to filters". The first is joining the [`QueueRing`]
//! below; the second needs no coordination "because a queue can receive
//! any record" — filters just see a longer ingress list.
//!
//! Nothing in the stage runs on a timer. The token rests with the queue
//! that used it last and moves only when another queue asks for it (see
//! [`QueueRing`]); a queue's thread sleeps on its inbox until a batch, the
//! token or such a request reaches it.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use chariots_simnet::{Counter, Endpoint, Gauge, Notify, ServiceStation, Shutdown, StageTracer};
use chariots_types::{DatacenterId, Entry, MaintainerId, Record, RecordId};
use parking_lot::RwLock;

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

/// How long a queue with nothing to do sleeps before it looks at the
/// deployment's shutdown flag and its station again. Everything else —
/// batches, the token, requests for the token, retire steps — wakes it.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// What reaches a queue from outside its own thread.
#[derive(Default)]
struct InboxState {
    /// Batches sent here and not yet staged.
    batches: Vec<Vec<Incoming>>,
    /// The token, from the moment a neighbour delivers it until the loop
    /// picks it up.
    token: Option<Token>,
    /// The loop has picked the token up and not passed it on.
    holding: bool,
    /// Somebody wants the token to come by: a queue that has staged records
    /// without it, or a retire step that needs a visit. Set on every queue
    /// the token may have to cross, cleared only by passing the token on.
    nudged: bool,
    /// Drain-and-retire: the actuator has closed this queue's ingress.
    retiring: bool,
    /// Judged by the loop with the token in hand: inbox, staged set and
    /// parked set were all empty — nothing is stranded here anymore.
    drained: bool,
    /// The queue has left the ring: forward the token if it is here, exit.
    stopped: bool,
}

/// One queue's mailbox. Producers (`QueueIngress::send`, the TCP listener),
/// the ring neighbour and the handle all post here; the queue's loop is
/// the only reader and sleeps on `ready` when there is nothing for it.
struct Inbox {
    state: StdMutex<InboxState>,
    ready: Condvar,
    /// `queue.depth`: batches waiting in `state.batches`.
    depth: Gauge,
}

impl Inbox {
    fn state(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().expect("queue inbox lock")
    }

    fn push(&self, batch: Vec<Incoming>) {
        let mut s = self.state();
        s.batches.push(batch);
        self.depth.set(s.batches.len() as i64);
        drop(s);
        self.ready.notify_one();
    }

    fn deliver(&self, token: Token) {
        let mut s = self.state();
        debug_assert!(s.token.is_none() && !s.holding, "two tokens in one ring");
        s.token = Some(token);
        drop(s);
        self.ready.notify_one();
    }

    /// Asks this queue to pass the token on once it is done with it, and
    /// says whether the token is here. Only the queue that has the token
    /// needs to wake for that.
    fn nudge(&self) -> bool {
        let mut s = self.state();
        s.nudged = true;
        let wake = s.holding;
        let here = s.holding || s.token.is_some();
        drop(s);
        if wake {
            self.ready.notify_one();
        }
        here
    }

    /// Sleeps until there is something to do or `IDLE_TICK` has passed, and
    /// takes what arrived: the batches, the token if it came, and whether
    /// the queue has been told to stop.
    fn wait(&self) -> (Vec<Vec<Incoming>>, Option<Token>, bool) {
        let (mut s, _) = self
            .ready
            .wait_timeout_while(self.state(), IDLE_TICK, |s| {
                s.batches.is_empty() && s.token.is_none() && !(s.holding && s.nudged) && !s.stopped
            })
            .expect("queue inbox lock");
        let token = s.token.take();
        s.holding |= token.is_some();
        self.depth.set(0);
        (std::mem::take(&mut s.batches), token, s.stopped)
    }
}

/// A datacenter's token ring: the inboxes of its queues, in the order the
/// token visits them. A queue joins at the end when it is spawned and
/// leaves in [`QueueHandle::finish_retire`].
///
/// The token rests with the queue that used it last. A queue that stages
/// records without it [asks](Self::ask) for it, which marks the queues the
/// token has to cross on its way; a marked queue passes the token on when
/// it is done with it and loses its mark by doing so. So between the token
/// and the asker every queue either still has its mark or has already
/// passed the token on: the token cannot come to rest before it reaches
/// the asker, and with nobody asking it does not move.
#[derive(Clone, Default)]
pub struct QueueRing {
    inboxes: Arc<RwLock<Vec<Arc<Inbox>>>>,
}

impl QueueRing {
    /// An empty ring.
    pub fn new() -> Self {
        QueueRing::default()
    }

    /// Brings the token to `asker`: marks its predecessors, nearest first,
    /// back to the one the token is at. The token only moves forward, so
    /// when the walk meets it every queue it has yet to cross is marked;
    /// if it slips past the walk (it is in no inbox while it changes
    /// hands) every queue ends up marked, and a mark the token never
    /// needed costs one needless pass later.
    fn ask(&self, asker: &Arc<Inbox>) {
        if asker.state().token.is_some() {
            return; // delivered while the asker was staging
        }
        let ring = self.inboxes.read();
        let Some(at) = ring.iter().position(|inbox| Arc::ptr_eq(inbox, asker)) else {
            return;
        };
        let before = ring[..at].iter().rev();
        let behind = ring[at + 1..].iter().rev();
        for inbox in before.chain(behind) {
            if inbox.nudge() {
                break;
            }
        }
    }

    /// Hands the token to the queue after `from` — the first queue, if
    /// `from` is the last or has already left the ring.
    fn pass(&self, from: &Arc<Inbox>, token: Token) {
        // Delivered under the read lock: once `finish_retire` has taken a
        // queue out under the write lock, no token is on its way to it.
        let ring = self.inboxes.read();
        let after = ring
            .iter()
            .position(|inbox| Arc::ptr_eq(inbox, from))
            .map_or(0, |i| i + 1);
        // With no queue left there is nobody to hold a token.
        if let Some(next) = ring.get(after).or(ring.first()) {
            next.deliver(token);
        }
    }
}

/// Producer-side ingress to a queue: sending notes the arrival at the
/// queue's station so backlog drives its overload model.
#[derive(Clone)]
pub struct QueueIngress {
    pub(crate) to: Endpoint<Vec<Incoming>>,
    station: Arc<ServiceStation>,
    tracer: StageTracer,
}

impl QueueIngress {
    /// Enqueues a batch of releasable records. A traced record's queue
    /// span starts here, so it includes the wait for the token.
    pub fn send(&self, batch: Vec<Incoming>) -> bool {
        self.station.note_arrival(batch.len() as u64);
        for record in &batch {
            self.tracer.enter(record.trace());
        }
        self.to.send(batch).is_ok()
    }

    /// The queue machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }
}

/// Handle to a queue node.
#[derive(Clone)]
pub struct QueueHandle {
    inbox: Arc<Inbox>,
    ring: QueueRing,
    station: Arc<ServiceStation>,
    processed: Counter,
    token_passes: Counter,
    tracer: StageTracer,
}

impl QueueHandle {
    /// A producer-side ingress (notes arrivals at this queue's station).
    pub fn ingress(&self) -> QueueIngress {
        let inbox = Arc::clone(&self.inbox);
        QueueIngress {
            to: Endpoint::Inbox(Arc::new(move |batch| inbox.push(batch))),
            station: Arc::clone(&self.station),
            tracer: self.tracer.clone(),
        }
    }

    /// Injects the token (deployment wiring: exactly one token exists).
    pub fn inject_token(&self, token: Token) {
        self.inbox.deliver(token);
    }

    /// Records assigned by this queue (bench instrumentation).
    pub fn processed_counter(&self) -> Counter {
        self.processed.clone()
    }

    /// Times this queue has passed the token on. An idle ring passes none.
    pub fn token_passes_counter(&self) -> Counter {
        self.token_passes.clone()
    }

    /// The machine's capacity model.
    pub fn station(&self) -> Arc<ServiceStation> {
        Arc::clone(&self.station)
    }

    /// Starts drain-and-retire. The caller must already have removed this
    /// queue's ingress from the shared list (the admission barrier) — from
    /// here on each visit of the token evicts parked records onto it and
    /// reports [`is_drained`](Self::is_drained) once nothing is left on
    /// this node. Brings the token here so that the first visit is now.
    pub fn begin_retire(&self) {
        self.inbox.state().retiring = true;
        if !self.inbox.nudge() {
            self.ring.ask(&self.inbox);
        }
    }

    /// Aborts an in-progress retire (drain deadline missed): the verdict
    /// is withdrawn and the node keeps serving.
    pub fn cancel_retire(&self) {
        let mut s = self.inbox.state();
        s.retiring = false;
        s.drained = false;
    }

    /// Whether the node has confirmed — while holding the token — that its
    /// inbox, staged set, and parked set are all empty.
    pub fn is_drained(&self) -> bool {
        self.inbox.state().drained
    }

    /// Final retire step: takes this queue out of the ring (its
    /// predecessor now passes to its successor) and stops its loop, which
    /// forwards the token first if it is resting here, so the caller can
    /// join the thread.
    pub fn finish_retire(&self) {
        self.ring
            .inboxes
            .write()
            .retain(|inbox| !Arc::ptr_eq(inbox, &self.inbox));
        self.inbox.state().stopped = true;
        self.inbox.ready.notify_one();
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
    /// Shared ATable: row `dc` is refreshed from the token's applied cut
    /// after each assignment.
    pub atable: Arc<RwLock<ATable>>,
    /// The datacenter's token ring; the new queue joins it at the end
    /// (§6.3: its predecessor forwards "to the new queue rather than the
    /// original neighbor").
    pub ring: QueueRing,
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
    /// Health gauges: batches waiting in the inbox and records held
    /// (staged for the token plus parked with unmet dependencies).
    pub health: StageHealth,
}

/// Spawns a queue node as the last member of `cfg.ring`.
pub fn spawn_queue(
    cfg: QueueNodeConfig,
    station: Arc<ServiceStation>,
    shutdown: Shutdown,
    name: String,
) -> (QueueHandle, JoinHandle<()>) {
    let inbox = Arc::new(Inbox {
        state: StdMutex::default(),
        ready: Condvar::new(),
        depth: cfg.health.depth.clone(),
    });
    cfg.ring.inboxes.write().push(Arc::clone(&inbox));
    let processed = Counter::new();
    let token_passes = Counter::new();
    let handle = QueueHandle {
        inbox: Arc::clone(&inbox),
        ring: cfg.ring.clone(),
        station: Arc::clone(&station),
        processed: processed.clone(),
        token_passes: token_passes.clone(),
        tracer: cfg.tracer.clone(),
    };
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || queue_loop(cfg, &inbox, &station, &shutdown, &processed, &token_passes))
        .expect("spawn queue");
    (handle, thread)
}

fn queue_loop(
    cfg: QueueNodeConfig,
    inbox: &Arc<Inbox>,
    station: &ServiceStation,
    shutdown: &Shutdown,
    processed: &Counter,
    token_passes: &Counter,
) {
    let mut core = QueueCore::new(cfg.dc, cfg.carries_deferred);
    // Records this queue holds: staged for the token, or parked.
    let held_records = |core: &QueueCore| core.staged_len() + core.parked_len();
    // The token, while it rests here.
    let mut held: Option<Token> = None;
    // Whether this queue has asked for the token since it last had it.
    let mut asked = false;
    loop {
        let (batches, arrived, stopped) = inbox.wait();
        if shutdown.is_signaled() {
            return;
        }
        let token_came = arrived.is_some();
        if token_came {
            debug_assert!(held.is_none(), "two tokens in one ring");
            held = arrived;
            asked = false;
        }
        // Stage what arrived, paying its machine cost NOW — whether or not
        // this queue holds the token. The per-record work (staging,
        // buffering, building batches) is what a queue machine spends its
        // time on; only the LId assignment itself is serialized by the
        // token, so queue machines scale out (§6.2, Table 5).
        let mut crashed = false;
        for batch in batches {
            let n = batch.len() as u64;
            core.stage(batch);
            crashed |= station.serve(n).is_err();
        }
        crashed |= station.is_crashed();

        let Some(token) = held.as_mut() else {
            if stopped {
                return;
            }
            // Records are held here and the token is elsewhere: ask for it,
            // once. (A crashed queue asks when it is back up; one that let
            // the token through while it held records asks again.)
            if held_records(&core) > 0 && !asked && !crashed {
                cfg.ring.ask(inbox);
                asked = true;
            }
            cfg.health.occupancy.set(held_records(&core) as i64);
            continue;
        };

        // With the token: assign everything assignable and hand it to the
        // maintainers. Only new records here, or a token fresh from
        // assignments elsewhere, can make anything assignable.
        if !crashed && (core.staged_len() > 0 || token_came) {
            let entries = core.process(token);
            let assigned = entries.len() as u64;
            processed.add(assigned);
            for e in &entries {
                // The queue span ends at assignment; the store span opens
                // as the entry leaves for its maintainer.
                cfg.tracer.exit(e.record.trace);
                cfg.store_tracer.enter(e.record.trace);
            }
            route_entries(entries, &cfg.controller, &cfg.maintainers.read());
            if assigned > 0 {
                cfg.atable.write().merge_row(cfg.dc, &token.applied);
                // New local records are on their way to the maintainers:
                // wake the senders so propagation starts now, not at the
                // next heartbeat. Coalesces, so a busy ring costs one
                // signal per sender round at most.
                cfg.sender_wakeup.notify();
            }
        }
        // The turn ends. A crashed machine judges nothing; it only lets
        // the token through so the ring survives (a real deployment would
        // re-mint it via the controller).
        let pass = {
            let mut s = inbox.state();
            if s.retiring && !crashed {
                // Draining: the ingress is already gone, so the inbox only
                // shrinks. Push anything parked here onto the token and
                // report drained once this node holds no records at all —
                // judged while holding the token, so the verdict cannot
                // race an assignment.
                core.evict_onto(token);
                s.drained = s.batches.is_empty() && held_records(&core) == 0;
            }
            // The token moves on only if somebody asked for it (or this
            // queue is leaving); otherwise it rests here.
            let pass = std::mem::take(&mut s.nudged) || stopped;
            s.holding = !pass;
            pass
        };
        cfg.health.occupancy.set(held_records(&core) as i64);
        if pass {
            token_passes.add(1);
            cfg.ring.pass(inbox, held.take().expect("checked above"));
        }
        if stopped {
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

    // ---- the ring of queue nodes ----

    use chariots_flstore::RangeMap;
    use chariots_simnet::StationConfig;
    use crossbeam::channel::{bounded, unbounded, Receiver};
    use std::time::Instant;

    /// Well inside every deadline below, well over a trip round the ring.
    const SETTLE: Duration = Duration::from_millis(50);
    const DEADLINE: Duration = Duration::from_millis(100);

    /// `n` queue nodes on one ring, in-process inboxes, uncapped stations,
    /// no maintainers behind them; the token starts at queue 0.
    struct TestRing {
        queues: Vec<QueueHandle>,
        threads: Vec<JoinHandle<()>>,
        shutdown: Shutdown,
    }

    impl TestRing {
        fn new(n: usize) -> Self {
            let ring = QueueRing::new();
            let shutdown = Shutdown::new();
            let (queues, threads): (Vec<_>, Vec<_>) = (0..n)
                .map(|i| {
                    spawn_queue(
                        QueueNodeConfig {
                            dc: DatacenterId(0),
                            carries_deferred: true,
                            controller: Controller::new(DatacenterId(0), RangeMap::new(1, 1_000)),
                            maintainers: Arc::new(RwLock::new(Vec::new())),
                            atable: Arc::new(RwLock::new(ATable::new(1))),
                            ring: ring.clone(),
                            tracer: StageTracer::disabled(),
                            store_tracer: StageTracer::disabled(),
                            sender_wakeup: Notify::new(),
                            health: StageHealth::disabled(),
                        },
                        Arc::new(ServiceStation::new(
                            format!("q{i}"),
                            StationConfig::uncapped(),
                        )),
                        shutdown.clone(),
                        format!("queue-test-{i}"),
                    )
                })
                .unzip();
            queues[0].inject_token(Token::new(1));
            TestRing {
                queues,
                threads,
                shutdown,
            }
        }

        /// Sends one local append to queue `q`; the position arrives on the
        /// returned channel when a queue assigns it.
        fn append(&self, q: usize) -> Receiver<(TOId, LId)> {
            let (reply, assigned) = bounded(1);
            let mut l = local(vec![0]);
            l.reply = Some(chariots_simnet::ReplyTo::local(reply));
            assert!(self.queues[q].ingress().send(vec![Incoming::Local(l)]));
            assigned
        }

        fn passes(&self) -> u64 {
            self.queues
                .iter()
                .map(|q| q.token_passes_counter().get())
                .sum()
        }

        /// The token has come to rest: no pass for `SETTLE`. Returns the
        /// passes made so far.
        fn passes_at_rest(&self) -> u64 {
            let before = self.passes();
            std::thread::sleep(SETTLE);
            assert_eq!(self.passes(), before, "the token is still moving");
            before
        }

        fn stop(self) {
            self.shutdown.signal();
            for t in self.threads {
                t.join().unwrap();
            }
        }
    }

    #[test]
    fn an_idle_ring_passes_no_token() {
        for n in [1, 3] {
            let ring = TestRing::new(n);
            std::thread::sleep(Duration::from_millis(200));
            assert_eq!(ring.passes(), 0, "ring of {n}");
            ring.stop();
        }
    }

    /// Appends one after the other, each sent when the last is assigned,
    /// at the queues `at` names in turn; returns how long all of them took.
    /// A queue that sat out its idle tick before acting would need the
    /// whole of [`IDLE_TICK`] for each, having just woken for the last.
    fn appends_in_a_row(ring: &TestRing, at: impl Iterator<Item = usize>) -> Duration {
        let t0 = Instant::now();
        for q in at {
            ring.append(q).recv_timeout(DEADLINE).unwrap();
        }
        t0.elapsed()
    }

    /// A batch that reaches the queue the token rests at is assigned as it
    /// arrives, with no timer in the way and without the token moving.
    #[test]
    fn resting_token_holder_assigns_a_batch_as_it_arrives() {
        let ring = TestRing::new(1);
        assert_eq!(
            ring.append(0).recv_timeout(DEADLINE).unwrap(),
            (TOId(1), LId(0))
        );
        let took = appends_in_a_row(&ring, std::iter::repeat(0).take(10));
        assert!(took < IDLE_TICK * 5, "ten appends took {took:?}");
        assert_eq!(ring.passes(), 0);
        ring.stop();
    }

    #[test]
    fn a_batch_at_another_queue_brings_the_token_there() {
        let ring = TestRing::new(3);
        let assigned = ring.append(2).recv_timeout(DEADLINE).unwrap();
        assert_eq!(assigned, (TOId(1), LId(0)));
        // 0 → 1 → 2, and there it stays: the next batch at 2 moves nothing.
        assert_eq!(ring.passes_at_rest(), 2);
        ring.append(2).recv_timeout(DEADLINE).unwrap();
        assert_eq!(ring.passes_at_rest(), 2);
        // To and fro, one pass to queue 0 and two back each time, and no
        // leg of it waits for a tick.
        let took = appends_in_a_row(&ring, [0, 2].into_iter().cycle().take(10));
        assert!(took < IDLE_TICK * 5, "ten appends took {took:?}");
        assert_eq!(ring.passes_at_rest(), 2 + 5 * 3);
        ring.stop();
    }

    #[test]
    fn two_waiting_queues_are_served_in_one_lap() {
        let ring = TestRing::new(3);
        let (a, b) = (ring.append(1), ring.append(2));
        let mut lids = [
            a.recv_timeout(DEADLINE).unwrap().1,
            b.recv_timeout(DEADLINE).unwrap().1,
        ];
        lids.sort();
        assert_eq!(lids, [LId(0), LId(1)]);
        // Whichever way the two requests and the token interleave, it goes
        // 0 → 1 → 2 once and rests.
        assert_eq!(ring.passes_at_rest(), 2);
        ring.stop();
    }

    #[test]
    fn retiring_an_idle_queue_needs_no_timer_and_keeps_the_token() {
        let mut ring = TestRing::new(3);
        let victim = ring.queues[2].clone();
        victim.begin_retire();
        let t0 = Instant::now();
        while !victim.is_drained() {
            assert!(t0.elapsed() < DEADLINE, "no verdict");
            std::thread::yield_now();
        }
        victim.cancel_retire();
        assert!(!victim.is_drained(), "a cancelled retire leaves no verdict");
        // Its visit over, the token has left the victim: 0 → 1 → 2 → 0.
        assert_eq!(ring.passes_at_rest(), 3);

        victim.begin_retire();
        let t0 = Instant::now();
        while !victim.is_drained() {
            assert!(t0.elapsed() < DEADLINE, "no second verdict");
            std::thread::yield_now();
        }
        victim.finish_retire();
        ring.queues.pop();
        ring.threads.pop().unwrap().join().unwrap();
        // The ring of two still has its token, and only one: positions go on
        // where they left off at either queue.
        assert_eq!(ring.append(1).recv_timeout(DEADLINE).unwrap().1, LId(0));
        assert_eq!(ring.append(0).recv_timeout(DEADLINE).unwrap().1, LId(1));
        assert_eq!(ring.append(1).recv_timeout(DEADLINE).unwrap().1, LId(2));
        ring.stop();
    }

    /// A queue retired while the token rests with it hands it on first.
    #[test]
    fn a_retired_queue_forwards_the_token_it_holds() {
        let mut ring = TestRing::new(2);
        ring.append(1).recv_timeout(DEADLINE).unwrap();
        assert_eq!(ring.passes_at_rest(), 1, "the token rests at queue 1");
        let victim = ring.queues.pop().unwrap();
        victim.finish_retire();
        ring.threads.pop().unwrap().join().unwrap();
        assert_eq!(ring.append(0).recv_timeout(DEADLINE).unwrap().1, LId(1));
        ring.stop();
    }

    #[test]
    fn a_crashed_holder_lets_the_token_through() {
        let ring = TestRing::new(3);
        ring.queues[0].station().crash();
        let assigned = ring.append(1).recv_timeout(DEADLINE).unwrap();
        assert_eq!(assigned, (TOId(1), LId(0)));
        // And a crashed queue in the token's way does not stop it either.
        ring.queues[2].station().crash();
        ring.queues[0].station().recover();
        let assigned = ring.append(0).recv_timeout(DEADLINE).unwrap();
        assert_eq!(assigned, (TOId(2), LId(1)));
        ring.stop();
    }

    /// Records staged at a crashed queue wait out the outage and are
    /// assigned once it is back, whether or not anything else arrives.
    #[test]
    fn a_recovered_queue_assigns_what_it_staged_while_down() {
        let ring = TestRing::new(2);
        ring.queues[1].station().crash();
        let stalled = ring.append(1);
        assert!(stalled.recv_timeout(SETTLE).is_err(), "assigned while down");
        ring.queues[1].station().recover();
        let assigned = stalled.recv_timeout(IDLE_TICK + DEADLINE).unwrap();
        assert_eq!(assigned, (TOId(1), LId(0)));
        ring.stop();
    }

    #[test]
    fn concurrent_producers_get_dense_unique_positions() {
        const PRODUCERS: usize = 4;
        const BATCHES: usize = 2_000;
        let ring = TestRing::new(3);
        let mut lids: Vec<u64> = std::thread::scope(|scope| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let ring = &ring;
                    scope.spawn(move || {
                        let replies: Vec<_> =
                            (0..BATCHES).map(|i| ring.append((p + i) % 3)).collect();
                        replies
                            .into_iter()
                            .map(|r| r.recv_timeout(Duration::from_secs(30)).unwrap().1 .0)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            producers
                .into_iter()
                .flat_map(|p| p.join().unwrap())
                .collect()
        });
        lids.sort_unstable();
        let expected: Vec<u64> = (0..(PRODUCERS * BATCHES) as u64).collect();
        assert_eq!(lids, expected, "every position once, none skipped");
        ring.passes_at_rest();
        ring.stop();
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
