//! The generator thread: releases each workload's operations on their
//! schedule and keeps a ledger of what it was told, for the audit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chariots_types::{Condition, LId, ReadRule, Tag, TagSet};

use crate::pace::wait_until;
use crate::rng::{self, Rng, Zipf};
use crate::spans::{ns_since, Recorder, Span, ROOT};
use crate::system::{Client, Spec};

/// Record indexes by origin. Every record of a run has one index, found
/// in its body, so the audit can tell exactly which records a log holds.
pub const GEN_BASE: u64 = 1 << 32;
pub const SAT_BASE: u64 = 3 << 32;

/// Tag keys used by `read_mix`; a record's key follows from its index.
pub const TAG_KEYS: u64 = 1024;
/// Positions one `read_many` operation asks for.
pub const READ_MANY_SPAN: u64 = 32;
/// Entries one `read_rule` operation asks for.
pub const READ_RULE_LIMIT: usize = 16;

pub fn tag_key(index: u64) -> String {
    format!("k{}", index % TAG_KEYS)
}

pub fn tagged(index: u64) -> TagSet {
    TagSet::new().with(Tag::key(tag_key(index)))
}

pub fn untagged(_index: u64) -> TagSet {
    TagSet::new()
}

/// What one `read_rule` operation returned, checked after the run
/// against the final log.
#[derive(Debug)]
pub struct RuleResult {
    pub key: u64,
    pub lids: Vec<u64>,
}

#[derive(Debug, Default)]
pub struct GenReport {
    pub attempted: u64,
    pub failed: u64,
    /// Records this generator appended (indexes `GEN_BASE..`).
    pub records: u64,
    /// Per tick: how long after its due instant it began.
    pub lateness_ns: Vec<u64>,
    pub point_read_ns: Vec<u64>,
    pub read_many_ns: Vec<u64>,
    pub read_rule_ns: Vec<u64>,
    pub append_ns: Vec<u64>,
    /// `(LId, record index)` of every entry a read returned and of every
    /// acknowledged append.
    pub seen: Vec<(u64, u64)>,
    pub rules: Vec<RuleResult>,
    pub spans: Recorder,
}

/// One workload's operations, a tick at a time.
pub trait Load: Send {
    /// Performs the operations of tick `tick`, timed from `from`.
    fn tick(&mut self, tick: u64, from: Instant, epoch: Instant, report: &mut GenReport);
}

/// Runs `ticks` ticks of `load` from `t0` on. `done` counts completed
/// operations for the main thread's backlog samples.
pub fn run_paced(
    load: &mut dyn Load,
    spec: &Spec,
    t0: Instant,
    epoch: Instant,
    ticks: u64,
    traced: bool,
    done: &AtomicU64,
) -> GenReport {
    crate::sys::tighten_timer_slack();
    let mut report = GenReport {
        spans: Recorder::new(traced, ns_since(epoch, t0)),
        ..GenReport::default()
    };
    for tick in 0..ticks {
        let due = t0 + Duration::from_nanos(spec.tick.as_nanos() as u64 * tick);
        let start = wait_until(due);
        report.lateness_ns.push(start.late.as_nanos() as u64);
        load.tick(tick, start.from, epoch, &mut report);
        done.store((tick + 1) * spec.ops_per_tick, Ordering::Relaxed);
    }
    report
}

/// Runs the same operations with no pacing, for the saturation figure.
pub fn run_unpaced(load: &mut dyn Load, ticks: u64, epoch: Instant) -> GenReport {
    let mut report = GenReport::default();
    for tick in 0..ticks {
        load.tick(tick, Instant::now(), epoch, &mut report);
    }
    report
}

/// Fire-and-forget appends, spread over the workload's datacenters.
pub struct AppendLoad {
    pub clients: Vec<Client>,
    pub seed: u64,
    pub base: u64,
    pub ops_per_tick: u64,
    pub records_per_op: u64,
    pub tags_for: fn(u64) -> TagSet,
}

impl Load for AppendLoad {
    fn tick(&mut self, tick: u64, _from: Instant, epoch: Instant, report: &mut GenReport) {
        // Bodies are made before the clock starts: the span below covers
        // the client library only.
        let ops: Vec<Vec<(TagSet, Bytes)>> = (0..self.ops_per_tick)
            .map(|op| {
                let first = self.base + (tick * self.ops_per_tick + op) * self.records_per_op;
                (first..first + self.records_per_op)
                    .map(|index| ((self.tags_for)(index), rng::body(self.seed, index)))
                    .collect()
            })
            .collect();
        let start = Instant::now();
        for (op, records) in ops.into_iter().enumerate() {
            report.attempted += self.records_per_op;
            let dc = (tick * self.ops_per_tick + op as u64) as usize % self.clients.len();
            match self.clients[dc].append_async(records) {
                Ok(()) => report.records += self.records_per_op,
                Err(_) => report.failed += self.records_per_op,
            }
        }
        report.spans.record(Span {
            name: "client.append_async",
            start_ns: ns_since(epoch, start),
            end_ns: ns_since(epoch, Instant::now()),
            parent: ROOT,
            probe: -1,
            count: (self.ops_per_tick * self.records_per_op) as u32,
        });
    }
}

/// The `read_mix` operations, one per tick, each synchronous: 60 %
/// Zipf(0.99) point reads, 20 % `read_many` of 32 consecutive positions at
/// a uniform offset, 10 % `read_rule` by tag key, 10 % blocking appends.
pub struct MixLoad {
    pub client: Client,
    pub seed: u64,
    pub base: u64,
    pub preload: u64,
    pub rng: Rng,
    pub zipf: Zipf,
}

impl MixLoad {
    pub fn new(client: Client, seed: u64, base: u64, preload: u64) -> Self {
        MixLoad {
            client,
            seed,
            base,
            preload,
            rng: Rng::new(seed ^ base),
            zipf: Zipf::new(preload as usize, 0.99),
        }
    }

    /// Notes a returned entry in the ledger; false if its body is not
    /// what was appended under that index.
    fn note(&self, report: &mut GenReport, lid: LId, body: &[u8]) -> bool {
        match rng::verify_body(self.seed, body) {
            Some(index) => {
                report.seen.push((lid.0, index));
                true
            }
            None => false,
        }
    }
}

impl Load for MixLoad {
    fn tick(&mut self, _tick: u64, from: Instant, epoch: Instant, report: &mut GenReport) {
        report.attempted += 1;
        let choice = self.rng.below(100);
        let (name, ok) = if choice < 60 {
            // Popular ranks are scattered over the log by a fixed
            // multiplier coprime with the preload size.
            let rank = self.zipf.sample(&mut self.rng) as u64;
            let lid = LId(rank.wrapping_mul(7919) % self.preload);
            let got = self.client.read(lid);
            report.point_read_ns.push(from.elapsed().as_nanos() as u64);
            let ok = got.is_ok_and(|e| e.lid == lid && self.note(report, e.lid, &e.record.body));
            ("client.read", ok)
        } else if choice < 80 {
            let first = self.rng.below(self.preload - READ_MANY_SPAN);
            let lids: Vec<LId> = (first..first + READ_MANY_SPAN).map(LId).collect();
            let got = self.client.read_many(&lids);
            report.read_many_ns.push(from.elapsed().as_nanos() as u64);
            let ok = got.len() == lids.len()
                && got.into_iter().zip(&lids).all(|(r, &lid)| {
                    r.is_ok_and(|e| e.lid == lid && self.note(report, e.lid, &e.record.body))
                });
            ("client.read_many", ok)
        } else if choice < 90 {
            let key = self.rng.below(TAG_KEYS);
            let rule =
                ReadRule::where_(Condition::HasTag(tag_key(key))).most_recent(READ_RULE_LIMIT);
            let got = self.client.read_rule(&rule);
            report.read_rule_ns.push(from.elapsed().as_nanos() as u64);
            let ok = got.is_ok_and(|entries| {
                let lids = entries.iter().map(|e| e.lid.0).collect();
                let all = entries
                    .iter()
                    .all(|e| self.note(report, e.lid, &e.record.body));
                report.rules.push(RuleResult { key, lids });
                all
            });
            ("client.read_rule", ok)
        } else {
            let index = self.base + report.records;
            let got = self
                .client
                .append(tagged(index), rng::body(self.seed, index));
            report.append_ns.push(from.elapsed().as_nanos() as u64);
            let ok = got.is_ok_and(|(_, lid)| {
                report.records += 1;
                report.seen.push((lid.0, index));
                true
            });
            ("client.append", ok)
        };
        if !ok {
            report.failed += 1;
        }
        report.spans.record(Span {
            name,
            start_ns: ns_since(epoch, from),
            end_ns: ns_since(epoch, Instant::now()),
            parent: ROOT,
            probe: -1,
            count: 1,
        });
    }
}
