//! The probe thread: 200 blocking appends a second on a schedule, each
//! followed until it is readable under the Head of the Log at the
//! observing client and then read back once.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use chariots_types::{ChariotsError, DatacenterId, LId, TOId, TagSet};

use crate::pace::wait_until;
use crate::rng;
use crate::spans::{ns_since, Recorder, Span, ROOT};
use crate::system::Client;

pub const PROBES_PER_SECOND: u64 = 200;
/// One probe every 5 ms.
const PROBE_PERIOD: Duration = Duration::from_nanos(1_000_000_000 / PROBES_PER_SECOND);
/// Outstanding probes are checked against one `head_of_log()` per tick.
const POLL_TICK: Duration = Duration::from_micros(100);
/// A probe not visible this long after the last one was sent has failed.
/// As long as the drain that follows may take (`run::CATCH_UP`): a disk
/// that stalls for seconds makes a run invalid, not incorrect.
const VISIBILITY_DEADLINE: Duration = Duration::from_secs(60);
/// The remote log is followed in reads of at most this many positions.
const TAIL_CHUNK: u64 = 512;

/// Record indexes of probe appends start here (see `load::GEN_BASE`).
pub const PROBE_BASE: u64 = 2 << 32;

/// Where a probe's record is looked for.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Observer {
    /// The datacenter the probe appended at: its `LId` is the one the
    /// append returned, read through the same client.
    Local,
    /// Another datacenter, where the record gets a position of its own:
    /// `tail` follows that log to find it and `reader`, a client that has
    /// never seen the record, reads it back.
    Remote {
        tail: Client,
        reader: Client,
        next: LId,
    },
}

pub struct Probe {
    pub appender: Client,
    pub observer: Observer,
    pub seed: u64,
    /// Index of this thread's first record.
    pub base: u64,
    pub tags_for: fn(u64) -> TagSet,
}

#[derive(Debug, Default)]
pub struct ProbeReport {
    pub attempted: u64,
    pub failed: u64,
    pub append_ns: Vec<u64>,
    pub visibility_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub polls: u64,
    /// Reads refused because the owner's Head trailed the polled one.
    pub early_reads: u64,
    /// Failures by kind, for the run's notes.
    pub refused_appends: u64,
    pub wrong_reads: u64,
    pub never_visible: u64,
    pub spans: Recorder,
}

struct Outstanding {
    id: u64,
    from: Instant,
    acked: Instant,
    /// Known at once for a local observer, found by the tail otherwise.
    lid: Option<LId>,
    toid: TOId,
}

impl Probe {
    /// Sends `count` probes from `t0` on and follows each to the end.
    pub fn run(mut self, t0: Instant, epoch: Instant, count: u64, traced: bool) -> ProbeReport {
        crate::sys::tighten_timer_slack();
        let mut report = ProbeReport {
            spans: Recorder::new(traced, ns_since(epoch, t0)),
            ..ProbeReport::default()
        };
        let mut waiting: VecDeque<Outstanding> = VecDeque::new();
        // One probe per period, at a seeded random offset within it, so
        // that the probes of a run meet the system's own timers (flush,
        // gossip, generator ticks) at every phase and not at the one or
        // two a fixed schedule would happen to start on.
        let mut offsets = rng::Rng::new(self.seed ^ self.base);
        for id in 0..count {
            let offset = offsets.below(PROBE_PERIOD.as_nanos() as u64);
            let due = t0 + PROBE_PERIOD * id as u32 + Duration::from_nanos(offset);
            self.poll_until(due, epoch, &mut waiting, &mut report);
            let start = wait_until(due);
            report.attempted += 1;
            let index = self.base + id;
            let body = rng::body(self.seed, index);
            match self.appender.append((self.tags_for)(index), body) {
                Ok((toid, lid)) => {
                    let acked = Instant::now();
                    report
                        .append_ns
                        .push((acked - start.from).as_nanos() as u64);
                    waiting.push_back(Outstanding {
                        id,
                        from: start.from,
                        acked,
                        lid: matches!(self.observer, Observer::Local).then_some(lid),
                        toid,
                    });
                }
                Err(_) => {
                    report.failed += 1;
                    report.refused_appends += 1;
                }
            }
        }
        let deadline = Instant::now() + VISIBILITY_DEADLINE;
        self.poll_until(deadline, epoch, &mut waiting, &mut report);
        report.failed += waiting.len() as u64;
        report.never_visible = waiting.len() as u64;
        report
    }

    /// Checks outstanding probes once per tick until `until`, sleeping
    /// straight through when none is outstanding.
    fn poll_until(
        &mut self,
        until: Instant,
        epoch: Instant,
        waiting: &mut VecDeque<Outstanding>,
        report: &mut ProbeReport,
    ) {
        while !waiting.is_empty() {
            let now = Instant::now();
            if now + POLL_TICK > until {
                return;
            }
            std::thread::sleep(POLL_TICK);
            self.poll_once(epoch, waiting, report);
        }
    }

    fn poll_once(
        &mut self,
        epoch: Instant,
        waiting: &mut VecDeque<Outstanding>,
        report: &mut ProbeReport,
    ) {
        report.polls += 1;
        let poll_start = Instant::now();
        let hl = match &mut self.observer {
            Observer::Local => self.appender.head_of_log(),
            Observer::Remote { tail, .. } => tail.head_of_log(),
        };
        let Ok(hl) = hl else { return };
        let seen = Instant::now();
        report.spans.record(Span {
            name: "client.head_of_log",
            start_ns: ns_since(epoch, poll_start),
            end_ns: ns_since(epoch, seen),
            parent: ROOT,
            probe: -1,
            count: 1,
        });
        if let Observer::Remote { tail, next, .. } = &mut self.observer {
            // Follow the remote log up to its Head and note where the
            // outstanding probes' records landed.
            'follow: while *next < hl {
                let upto = (next.0 + TAIL_CHUNK).min(hl.0);
                let lids: Vec<LId> = (next.0..upto).map(LId).collect();
                for result in tail.read_many(&lids) {
                    // A position its owner cannot serve yet is looked at
                    // again on the next tick.
                    let Ok(entry) = result else { break 'follow };
                    *next = entry.lid.next();
                    if entry.record.host() != DatacenterId(0) {
                        continue;
                    }
                    if let Some(p) = waiting.iter_mut().find(|p| p.toid == entry.record.toid()) {
                        p.lid = Some(entry.lid);
                    }
                }
            }
        }
        // Positions are handed out by several maintainers, so a later
        // probe can become readable before an earlier one.
        let mut i = 0;
        while i < waiting.len() {
            let Some(lid) = waiting[i].lid.filter(|&lid| lid < hl) else {
                i += 1;
                continue;
            };
            let reader = match &mut self.observer {
                Observer::Local => &mut self.appender,
                Observer::Remote { reader, .. } => reader,
            };
            let read_start = Instant::now();
            let read = reader.read(lid);
            let read_end = Instant::now();
            if matches!(read, Err(ChariotsError::NotYetAvailable(_))) {
                // The maintainer that answered the poll knows a higher
                // Head than the one that owns the position: the record is
                // not readable yet.
                report.early_reads += 1;
                i += 1;
                continue;
            }
            let p = waiting.remove(i).expect("index in range");
            let verbatim = read.is_ok_and(|e| {
                e.lid == lid
                    && rng::verify_body(self.seed, &e.record.body) == Some(self.base + p.id)
            });
            if verbatim {
                // Readable when the read that succeeded began.
                report
                    .visibility_ns
                    .push((read_start - p.from).as_nanos() as u64);
                report
                    .read_ns
                    .push((read_end - read_start).as_nanos() as u64);
            } else {
                report.failed += 1;
                report.wrong_reads += 1;
            }
            let root = report.spans.record(Span {
                name: "probe",
                start_ns: ns_since(epoch, p.from),
                end_ns: ns_since(epoch, read_end),
                parent: ROOT,
                probe: p.id as i64,
                count: 1,
            });
            for (name, start_ns, end_ns) in [
                (
                    "client.append",
                    ns_since(epoch, p.from),
                    ns_since(epoch, p.acked),
                ),
                (
                    "visibility.wait",
                    ns_since(epoch, p.acked),
                    ns_since(epoch, read_start),
                ),
                (
                    "client.read",
                    ns_since(epoch, read_start),
                    ns_since(epoch, read_end),
                ),
            ] {
                report.spans.record(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: root,
                    probe: p.id as i64,
                    count: 1,
                });
            }
        }
    }
}
