//! The application-client library (§3): `Append` and `Read` over FLStore.
//!
//! "The shared log is accessed by cloud applications … through a linked
//! library that manages the exchange of information between the application
//! and the log maintainers." The client polls the controller once at
//! session start (and again on topology trouble), then talks directly to
//! maintainers — and to indexers only "if [the] read operation did not
//! specify LIds in the rules".
//!
//! ## The batched read path
//!
//! Reads exploit two structural properties of the log:
//!
//! * **Deterministic striping** (§5.2): the epoch journal tells the client
//!   which maintainer owns any position, so [`read_many`] groups candidate
//!   positions by owner and issues **one batch RPC per owning replica
//!   group** (concurrently across groups) instead of one RPC per record.
//! * **A monotonic Head of the Log**: the HL only grows, so it can be
//!   served from a bounded-staleness cache — a stale HL is always a safe
//!   *lower* bound on readability. Entries are not cached: every position
//!   is read from its owner, which is the only one that can say whether
//!   it is still held (see DESIGN.md, "Why a client keeps no entries").
//!
//! Every read goes through [`read_many`]: a point read is a batch of one,
//! [`follow`] tails the log with it, and [`read_rule`] routes its
//! exact-`LId`, tag-indexed, and scan paths through it, skipping (rather
//! than aborting on) positions that cannot currently be read.
//!
//! [`read_many`]: FLStoreClient::read_many
//! [`read_rule`]: FLStoreClient::read_rule
//! [`follow`]: FLStoreClient::follow

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use bytes::Bytes;
use chariots_simnet::{Counter, Histogram, MetricsRegistry, RetryPolicy};
use chariots_types::{ChariotsError, Condition, Entry, LId, Limit, ReadRule, Result, TOId, TagSet};

use crate::controller::{Controller, Session};
use crate::maintainer::AppendPayload;

/// Errors worth a bounded retry after a session refresh: the target's
/// machine is down (failover may be promoting a backup right now), the
/// group's routing moved (fencing / no primary yet), the journal went
/// stale, or the TCP transport hiccuped (connection reset mid-send,
/// reconnect in progress, corrupt frame) — the sender reconnects under the
/// retry. Everything else — bad requests, GC'd positions, shutdown — is
/// returned immediately.
fn transient(e: &ChariotsError) -> bool {
    matches!(
        e,
        ChariotsError::Unavailable(_)
            | ChariotsError::Fenced { .. }
            | ChariotsError::NoLivePrimary(_)
            | ChariotsError::WrongMaintainer { .. }
            | ChariotsError::QuorumLost { .. }
            | ChariotsError::Transport(_)
    )
}

/// How the client spreads appends over maintainers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppendRouting {
    /// Round-robin over maintainers (default; best load spread).
    #[default]
    RoundRobin,
    /// Always the same maintainer (gives same-maintainer FIFO ordering for
    /// this client's appends, §5.4's first explicit-order technique).
    Pinned(u16),
}

/// Shared read-path instruments. Every client of a deployment feeds the
/// same counters (the controller hands them out with the session), so the
/// deployment's registry sees the aggregate:
///
/// * `{prefix}.read.rpc.count` — read-path RPCs issued by clients (batch
///   reads, scans, index lookups, HL polls). The batched path's win is
///   this dropping from O(candidates) to O(owning groups).
/// * `{prefix}.read.batch.size` — positions per batch-read RPC (a point
///   read is a batch of one).
/// * `{prefix}.read.cache.{hit,miss}` — Head-of-Log cache outcomes of
///   `read_rule` (counted only while the cache is enabled).
#[derive(Clone, Default)]
pub struct ReadObs {
    /// Positions per batch-read RPC.
    pub batch_size: Histogram,
    /// Head-of-Log cache hits.
    pub cache_hit: Counter,
    /// Head-of-Log cache misses.
    pub cache_miss: Counter,
    /// Read-path RPCs issued by clients.
    pub rpc_count: Counter,
}

impl ReadObs {
    /// Fresh, unregistered instruments (standalone controllers).
    pub fn new() -> Self {
        ReadObs::default()
    }

    /// Instruments registered in `registry` as `{prefix}.read.batch.size`,
    /// `{prefix}.read.cache.hit`, `{prefix}.read.cache.miss`, and
    /// `{prefix}.read.rpc.count`.
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> Self {
        ReadObs {
            batch_size: registry.histogram(&format!("{prefix}.read.batch.size")),
            cache_hit: registry.counter(&format!("{prefix}.read.cache.hit")),
            cache_miss: registry.counter(&format!("{prefix}.read.cache.miss")),
            rpc_count: registry.counter(&format!("{prefix}.read.rpc.count")),
        }
    }
}

/// How long a client serves `read_rule` from its cached Head of the Log
/// before refreshing it with an RPC. The HL is monotonic, so a stale value
/// is always a safe *lower* bound — the cache trades freshness (a record may
/// become visible up to one TTL late) for one `head_of_log` round trip per
/// rule. Override per client with [`FLStoreClient::with_hl_cache_ttl`].
const HL_CACHE_TTL: Duration = Duration::from_millis(5);

/// Positions one [`FLStoreClient::follow`] round reads.
const FOLLOW_CHUNK: usize = 256;

/// A client session against one datacenter's FLStore.
pub struct FLStoreClient {
    controller: Controller,
    session: Session,
    routing: AppendRouting,
    retry: RetryPolicy,
    rr_cursor: usize,
    hl_cache_ttl: Duration,
    hl_cache: Option<(LId, Instant)>,
    obs: ReadObs,
}

impl FLStoreClient {
    /// Opens a session via the controller, with the Head-of-Log cache at
    /// its default 5 ms TTL. The read instruments come with the session.
    pub fn connect(controller: &Controller) -> Self {
        let session = controller.session();
        let obs = session.read_obs.clone();
        FLStoreClient {
            controller: controller.clone(),
            session,
            routing: AppendRouting::default(),
            retry: RetryPolicy::default(),
            rr_cursor: 0,
            hl_cache_ttl: HL_CACHE_TTL,
            hl_cache: None,
            obs,
        }
    }

    /// Sets the append-routing policy.
    pub fn with_routing(mut self, routing: AppendRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the retry schedule used for transient errors (Unavailable,
    /// fenced or primary-less groups, stale-journal routing) and for a
    /// position below the held Head that its owner does not serve yet. The
    /// default rides out a failover window and several gossip rounds;
    /// `RetryPolicy::new().max_attempts(1)` restores fail-fast behavior.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the Head-of-Log cache TTL for this client
    /// (`Duration::ZERO` disables the cache).
    pub fn with_hl_cache_ttl(mut self, ttl: Duration) -> Self {
        self.hl_cache_ttl = ttl;
        self
    }

    /// Re-polls the controller ("if communication problems occur").
    pub fn refresh_session(&mut self) {
        self.session = self.controller.session();
    }

    /// Approximate number of records in the log (from session start).
    pub fn approx_records(&self) -> u64 {
        self.session.approx_records
    }

    fn pick_maintainer(&mut self) -> Result<usize> {
        let n = self.session.maintainers.len();
        if n == 0 {
            return Err(ChariotsError::Unavailable("no maintainers".into()));
        }
        Ok(match self.routing {
            AppendRouting::Pinned(i) => (i as usize) % n,
            AppendRouting::RoundRobin => {
                self.rr_cursor = (self.rr_cursor + 1) % n;
                self.rr_cursor
            }
        })
    }

    /// Appends a record; returns the assigned `(TOId, LId)` (§3's
    /// `Append(in: record, tags)`).
    pub fn append(&mut self, tags: TagSet, body: impl Into<Bytes>) -> Result<(TOId, LId)> {
        let mut ids = self.append_batch(vec![AppendPayload::new(tags, body)])?;
        Ok(ids.pop().expect("one payload, one id"))
    }

    /// Appends a batch to a single maintainer (amortizes the round trip).
    ///
    /// Transient failures — the primary's machine down mid-failover, a
    /// fenced or deposed primary, a lost quorum, a transport error — are
    /// retried with jittered backoff after refreshing the session. A retry
    /// can store the batch twice, at a second `LId`, in two cases:
    /// - `QuorumLost`: the primary had already applied the batch to its
    ///   core and WAL before the quorum failed;
    /// - `Transport` over TCP: the batch committed and only its reply was
    ///   lost.
    ///
    /// Requests carry no id a replica could recognize a retry by.
    pub fn append_batch(&mut self, payloads: Vec<AppendPayload>) -> Result<Vec<(TOId, LId)>> {
        let retry = self.retry.clone();
        retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let i = self.pick_maintainer()?;
            self.session.maintainers[i].append(payloads.clone())
        })
    }

    /// Fire-and-forget batch append (open-loop load generation).
    pub fn append_async(&mut self, payloads: Vec<AppendPayload>) -> Result<()> {
        let i = self.pick_maintainer()?;
        if self.session.maintainers[i].append_async(payloads) {
            Ok(())
        } else {
            Err(ChariotsError::ShutDown)
        }
    }

    /// Explicit-order append across maintainers: the assigned position is
    /// guaranteed to exceed `min` (§5.4's second technique).
    pub fn append_after(
        &mut self,
        tags: TagSet,
        body: impl Into<Bytes>,
        min: LId,
    ) -> Result<Option<(TOId, LId)>> {
        let payload = AppendPayload::new(tags, body.into());
        let retry = self.retry.clone();
        retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let i = self.pick_maintainer()?;
            self.session.maintainers[i].append_min_bound(payload.clone(), min)
        })
    }

    /// Reads the record at `lid`, enforcing the no-gaps-below rule via the
    /// Head of the Log.
    pub fn read(&mut self, lid: LId) -> Result<Entry> {
        self.read_with_hl(lid, true)
    }

    /// Reads the record at `lid`, optionally skipping the HL gate: a batch
    /// of one through [`read_many_with_hl`](Self::read_many_with_hl).
    pub fn read_with_hl(&mut self, lid: LId, enforce_hl: bool) -> Result<Entry> {
        self.read_many_with_hl(&[lid], enforce_hl).remove(0)
    }

    /// Reads every position in `lids`, enforcing the HL gate, and returns
    /// per-position results **in input order** (one slot per requested
    /// position, duplicates included).
    ///
    /// This is the scatter-gather path: positions are grouped by owning
    /// maintainer via the journal's striping and fetched with one
    /// [`crate::ReplicaGroupHandle::read_batch`] RPC per owning group,
    /// issued concurrently across groups. Transiently failing positions
    /// (downed or fenced groups, stale routing) are retried with jittered
    /// backoff after a session refresh. So is a position below the highest
    /// Head this client was handed that its owner refuses as
    /// `NotYetAvailable`: the maintainer that vouched for the Head had heard
    /// gossip the owner has yet to hear. Everything else (`NotYetAvailable`
    /// at or above that Head, `GarbageCollected`, …), and a refusal still
    /// standing when the retry budget is spent, lands in that position's
    /// slot.
    pub fn read_many(&mut self, lids: &[LId]) -> Vec<Result<Entry>> {
        self.read_many_with_hl(lids, true)
    }

    /// [`read_many`](Self::read_many) with an explicit HL-gate flag.
    pub fn read_many_with_hl(&mut self, lids: &[LId], enforce_hl: bool) -> Vec<Result<Entry>> {
        // One slot per position, open until its owner answers it.
        let mut results: Vec<Option<Result<Entry>>> = vec![None; lids.len()];
        let held = self.held_head();
        // A refusal worth another round: a transient one, or the gate's
        // refusal of a position this client was told is readable.
        let retryable = |lid: LId, e: &ChariotsError| {
            transient(e)
                || (enforce_hl && lid < held && matches!(e, ChariotsError::NotYetAvailable(_)))
        };
        let retry = self.retry.clone();
        // Each round reads the slots still open (never answered, or refused
        // retryably) under the possibly refreshed journal; a slot still
        // refused at the retry budget keeps its error. A round fails only
        // with a retryable refusal, so every failed round is retried.
        let always = |_: &ChariotsError| true;
        let _ = retry.run(always, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let journal = &self.session.journal;
            // `(owner, slot)`, sorted so that each owner's slots are adjacent.
            let mut open: Vec<(usize, usize)> = (0..lids.len())
                .filter(|&i| {
                    results[i]
                        .as_ref()
                        .is_none_or(|r| r.as_ref().is_err_and(|e| retryable(lids[i], e)))
                })
                .map(|i| (journal.owner_of(lids[i]).index(), i))
                .collect();
            if open.is_empty() {
                return Ok(());
            }
            open.sort_unstable();
            let (maintainers, obs) = (&self.session.maintainers, &self.obs);
            // One batch RPC for the slots of one owning group.
            let read = |slots: &[(usize, usize)]| -> Vec<Result<Entry>> {
                let owner = slots[0].0;
                let Some(handle) = maintainers.get(owner) else {
                    // Stale journal: the owner is not in this session's
                    // topology. Transient — a refresh resolves it.
                    let err = ChariotsError::Unavailable(format!("maintainer group {owner}"));
                    return vec![Err(err); slots.len()];
                };
                obs.rpc_count.add(1);
                obs.batch_size.record(slots.len() as u64);
                if slots.len() == lids.len() {
                    // Every position, in order.
                    handle.read_batch(lids, enforce_hl)
                } else {
                    let batch: Vec<LId> = slots.iter().map(|&(_, i)| lids[i]).collect();
                    handle.read_batch(&batch, enforce_hl)
                }
            };
            let mut refused = None;
            let mut place = |slots: &[(usize, usize)], answers: Vec<Result<Entry>>| {
                for (&(_, i), r) in slots.iter().zip(answers) {
                    if let Some(e) = r.as_ref().err().filter(|e| retryable(lids[i], e)) {
                        refused = Some(e.clone());
                    }
                    results[i] = Some(r);
                }
            };
            if open[0].0 == open[open.len() - 1].0 {
                place(&open, read(&open));
            } else {
                // Several owning groups: scatter concurrently, gather in order.
                let read = &read;
                let answered: Vec<_> = std::thread::scope(|s| {
                    let threads: Vec<_> = open
                        .chunk_by(|a, b| a.0 == b.0)
                        .map(|slots| (slots, s.spawn(move || read(slots))))
                        .collect();
                    threads
                        .into_iter()
                        .map(|(slots, t)| (slots, t.join().expect("read_batch worker panicked")))
                        .collect()
                });
                for (slots, answers) in answered {
                    place(slots, answers);
                }
            }
            // A retryable refusal fails the round, so another one follows.
            refused.map_or(Ok(()), Err)
        });
        results
            .into_iter()
            .map(|r| r.expect("every position resolved"))
            .collect()
    }

    /// Follows the log: reads `[*cursor, upto)` in ascending chunks of 256
    /// positions through [`read_many`](Self::read_many) and hands each
    /// entry to `visit` in `LId` order. Only positions for which `wanted`
    /// holds are read; the others, and garbage-collected positions, are
    /// consumed silently. `visit` consumes an entry by returning `Continue`
    /// or stops before it with `Break`.
    ///
    /// The cursor ends at the first position not consumed — the one
    /// `visit` stopped at, or the first that could not be read. It never
    /// moves past a position it could not read. A position refused as
    /// `NotYetAvailable` ends the call with `Ok`: the readable log ends
    /// there for now, as if `upto` were lower. Below a Head this client
    /// was handed that refusal comes only after `read_many` has waited out
    /// the owner's gossip lag for the retry budget; above it (say, `upto`
    /// taken from another client's Head) it comes at once. Any other read
    /// error is returned only when the call consumed nothing, so an `Err`
    /// never follows entries the caller already took.
    /// `Ok` with `*cursor == upto` is caught up; `Ok` with `*cursor < upto`
    /// and no `Break` is stopped at a position not readable yet, which a
    /// later call retries (a record that is never served holds the cursor
    /// there for good).
    pub fn follow(
        &mut self,
        cursor: &mut LId,
        upto: LId,
        wanted: impl Fn(LId) -> bool,
        mut visit: impl FnMut(&Entry) -> ControlFlow<()>,
    ) -> Result<()> {
        let start = *cursor;
        while *cursor < upto {
            let lids: Vec<LId> = (cursor.0..upto.0)
                .map(LId)
                .filter(|&lid| wanted(lid))
                .take(FOLLOW_CHUNK)
                .collect();
            for (&lid, result) in lids.iter().zip(self.read_many(&lids)) {
                let stop = match result {
                    Ok(entry) => visit(&entry).is_break(),
                    Err(ChariotsError::GarbageCollected(_)) => false,
                    Err(ChariotsError::NotYetAvailable(_)) => true,
                    Err(e) if lid == start => return Err(e),
                    Err(_) => true,
                };
                if stop {
                    *cursor = lid;
                    return Ok(());
                }
            }
            *cursor = lids.last().map_or(upto, |last| last.next());
        }
        Ok(())
    }

    /// The Head of the Log: every position strictly below it is readable
    /// (Hyksos polls this to pick get-transaction snapshots, Alg. 1).
    ///
    /// Always fetched fresh from one maintainer, whose view may lag another's
    /// by a gossip round, so the client returns the highest Head it has been
    /// handed: one client's Heads never go backwards. The result refreshes
    /// the client's HL cache. The owner of a position below the Head may not
    /// have heard the gossip behind it yet; [`read_many`](Self::read_many)
    /// waits that out within the retry budget.
    pub fn head_of_log(&mut self) -> Result<LId> {
        // Any maintainer answers ("it asks one of the maintainers").
        let retry = self.retry.clone();
        let fetched = retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let i = self.pick_maintainer()?;
            self.obs.rpc_count.add(1);
            self.session.maintainers[i].head_of_log()
        })?;
        let hl = fetched.max(self.held_head());
        self.hl_cache = Some((hl, Instant::now()));
        Ok(hl)
    }

    /// The highest Head of the Log this client has been handed (zero before
    /// its first poll).
    fn held_head(&self) -> LId {
        self.hl_cache.map_or(LId::ZERO, |(hl, _)| hl)
    }

    /// The HL for rule evaluation: served from the cache while younger
    /// than the TTL, fetched (and re-cached) otherwise. A stale value is
    /// safe — the HL only grows, so the cache can only *under*-report
    /// readability, never expose a gap (bounded-staleness reads).
    fn cached_head_of_log(&mut self) -> Result<LId> {
        if self.hl_cache_ttl > Duration::ZERO {
            if let Some((hl, at)) = self.hl_cache {
                if at.elapsed() <= self.hl_cache_ttl {
                    self.obs.cache_hit.add(1);
                    return Ok(hl);
                }
            }
            self.obs.cache_miss.add(1);
        }
        self.head_of_log()
    }

    /// `Read(in: rules, out: records)` (§3): evaluates a [`ReadRule`].
    ///
    /// * Rules that pin exact `LId`s read directly from the owners.
    /// * Rules with tag conditions consult the responsible indexer first,
    ///   pushing the value predicate, the position bound (HL ∧ `LIdBelow`),
    ///   and — when those conditions are the whole rule — the limit down
    ///   into the lookup.
    /// * Rules with neither fall back to scanning the maintainers.
    ///
    /// All three paths fetch candidate entries through the scatter-gather
    /// [`read_many`](Self::read_many) batch path.
    ///
    /// Results respect the Head of the Log: positions at or above it are
    /// never returned. The HL may be served from the bounded-staleness
    /// cache, so a just-committed record can be missed for up to the TTL.
    ///
    /// **Error semantics**: positions that cannot currently be read
    /// (`NotYetAvailable` under replica lag, `GarbageCollected`, a group
    /// that stays down past the retry budget) are *skipped* — uniformly,
    /// on every path — so a rule returns the readable subset rather than
    /// failing outright. Infrastructure errors outside per-position reads
    /// (HL poll, index lookup, scan) still fail the call.
    pub fn read_rule(&mut self, rule: &ReadRule) -> Result<Vec<Entry>> {
        let hl = self.cached_head_of_log()?;

        // Exact-LId fast path.
        let exact: Vec<LId> = rule
            .conditions
            .iter()
            .filter_map(|c| match c {
                Condition::LIdEq(lid) => Some(*lid),
                _ => None,
            })
            .collect();
        if !exact.is_empty() {
            let lids: Vec<LId> = exact.into_iter().filter(|&lid| lid < hl).collect();
            let entries = self.collect_readable(&lids, rule);
            return Ok(self.finish_rule(entries, rule));
        }

        // Tag-indexed path.
        let tag_cond = rule.conditions.iter().find_map(|c| match c {
            Condition::HasTag(key) => Some((key.clone(), None)),
            Condition::TagValue(key, pred) => Some((key.clone(), Some(pred.clone()))),
            _ => None,
        });
        let candidates: Vec<LId> = match tag_cond {
            Some((key, predicate)) if !self.session.indexers.is_empty() => {
                // Push the position bound down: the HL, tightened by any
                // `LIdBelow` conditions the rule carries.
                let below = rule.conditions.iter().fold(hl, |acc, c| match c {
                    Condition::LIdBelow(bound) => acc.min(*bound),
                    _ => acc,
                });
                // The limit may only be pushed down when the lookup's
                // filters are exhaustive — one tag condition, position
                // bounds, nothing else — otherwise a condition applied
                // after the lookup could reject candidates the truncated
                // result no longer has replacements for.
                let sole_tag = rule
                    .conditions
                    .iter()
                    .filter(|c| matches!(c, Condition::HasTag(_) | Condition::TagValue(_, _)))
                    .count()
                    == 1;
                let pushable = sole_tag
                    && rule.conditions.iter().all(|c| {
                        matches!(
                            c,
                            Condition::HasTag(_)
                                | Condition::TagValue(_, _)
                                | Condition::LIdBelow(_)
                        )
                    });
                let limit = if pushable { rule.limit } else { Limit::All };
                let ix = crate::indexer::indexer_for(&key, self.session.indexers.len());
                self.obs.rpc_count.add(1);
                self.session.indexers[ix].lookup(key, predicate, Some(below), limit)?
            }
            _ => {
                // No tag to index on (or no indexers): scan fallback. The
                // scan already materializes the entries — use them.
                let entries = self.scan_matching(hl, rule)?;
                return Ok(self.finish_rule(entries, rule));
            }
        };
        let lids: Vec<LId> = candidates.into_iter().filter(|&lid| lid < hl).collect();
        let entries = self.collect_readable(&lids, rule);
        Ok(self.finish_rule(entries, rule))
    }

    /// Batch-reads `lids` and keeps the readable, rule-matching entries
    /// (skip-unreadable semantics — see [`read_rule`](Self::read_rule)).
    fn collect_readable(&mut self, lids: &[LId], rule: &ReadRule) -> Vec<Entry> {
        self.read_many(lids)
            .into_iter()
            .filter_map(|r| r.ok())
            .filter(|e| rule.matches(e))
            .collect()
    }

    /// Orders, dedups, and limits matched entries per the rule.
    fn finish_rule(&self, mut entries: Vec<Entry>, rule: &ReadRule) -> Vec<Entry> {
        entries.sort_by_key(|e| e.lid);
        entries.dedup_by_key(|e| e.lid);
        apply_limit(entries, rule.limit)
    }

    /// Full-scan fallback: every readable, rule-matching entry below the
    /// HL, straight from the maintainers' scan responses (no per-position
    /// re-reads).
    fn scan_matching(&mut self, hl: LId, rule: &ReadRule) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        for m in &self.session.maintainers {
            self.obs.rpc_count.add(1);
            for e in m.scan(LId::ZERO, usize::MAX)?.1 {
                if e.lid < hl && rule.matches(&e) {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }
}

/// Applies a [`Limit`] to `LId`-ascending entries, mirroring
/// [`ReadRule::apply`]'s ordering semantics.
fn apply_limit(mut entries: Vec<Entry>, limit: Limit) -> Vec<Entry> {
    match limit {
        Limit::All => entries,
        Limit::Oldest(n) => {
            entries.truncate(n);
            entries
        }
        Limit::MostRecent(n) => {
            let skip = entries.len().saturating_sub(n);
            let mut recent = entries.split_off(skip);
            recent.reverse();
            recent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FLStore;
    use chariots_types::{
        DatacenterId, FLStoreConfig, MaintainerId, Record, RecordId, TagSet, VersionVector,
    };

    fn entry(lid: u64) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(0), chariots_types::TOId(lid + 1)),
                VersionVector::new(1),
                TagSet::new(),
                Bytes::new(),
            ),
        )
    }

    #[test]
    fn apply_limit_most_recent_descends() {
        let entries: Vec<Entry> = (0..5).map(entry).collect();
        let got = apply_limit(entries.clone(), Limit::MostRecent(2));
        assert_eq!(
            got.iter().map(|e| e.lid).collect::<Vec<_>>(),
            vec![LId(4), LId(3)]
        );
        let got = apply_limit(entries, Limit::Oldest(2));
        assert_eq!(
            got.iter().map(|e| e.lid).collect::<Vec<_>>(),
            vec![LId(0), LId(1)]
        );
    }

    /// Positions 0..4 on two maintainers that own alternate positions and
    /// gossip every 3 s, so nothing gossips unless the test says so.
    /// Maintainer 0 has heard maintainer 1's frontier and vouches for a
    /// Head of 4; maintainer 1 has heard nothing and refuses to read its
    /// positions 1 and 3 under that Head.
    fn one_sided_store() -> FLStore {
        let cfg = FLStoreConfig::new()
            .maintainers(2)
            .batch_size(1)
            .gossip_interval(Duration::from_secs(3));
        let store = FLStore::launch(DatacenterId(0), cfg).unwrap();
        let mut client = store.client();
        for i in 0..4 {
            client.append(TagSet::new(), format!("r{i}")).unwrap();
        }
        store.maintainers()[0].gossip_in(MaintainerId(1), LId(4));
        store
    }

    /// Follows `[*cursor, upto)` consuming everything; the positions read.
    fn follow_all(client: &mut FLStoreClient, cursor: &mut LId, upto: LId) -> Result<Vec<LId>> {
        let mut seen = Vec::new();
        client.follow(
            cursor,
            upto,
            |_| true,
            |entry| {
                seen.push(entry.lid);
                ControlFlow::Continue(())
            },
        )?;
        Ok(seen)
    }

    #[test]
    fn follower_stops_at_a_refused_position_and_delivers_it_once_heard() {
        let store = one_sided_store();
        let mut client = store.client();
        let mut cursor = LId::ZERO;
        // 0 is consumed, then 1 is refused: the call ends there with `Ok`,
        // never dropping what it handed out.
        assert_eq!(
            follow_all(&mut client, &mut cursor, LId(4)).unwrap(),
            [LId(0)]
        );
        assert_eq!(cursor, LId(1));
        // With nothing to consume the call still ends with `Ok`, and the
        // cursor does not move past the refused position.
        assert!(follow_all(&mut client, &mut cursor, LId(4))
            .unwrap()
            .is_empty());
        assert_eq!(cursor, LId(1));
        store.maintainers()[1].gossip_in(MaintainerId(0), LId(4));
        assert_eq!(
            follow_all(&mut client, &mut cursor, LId(4)).unwrap(),
            [LId(1), LId(2), LId(3)]
        );
        assert_eq!(cursor, LId(4));
        store.shutdown();
    }

    #[test]
    fn follower_consumes_unwanted_positions_without_reading_them() {
        let store = one_sided_store();
        let mut client = store.client();
        let mut cursor = LId::ZERO;
        let mut seen = Vec::new();
        // Had 1 or 3 been read, their owner would have refused them.
        client
            .follow(
                &mut cursor,
                LId(4),
                |lid| lid.0 % 2 == 0,
                |entry| {
                    seen.push(entry.lid);
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
        assert_eq!(seen, [LId(0), LId(2)]);
        assert_eq!(cursor, LId(4));
        store.shutdown();
    }

    #[test]
    fn follower_skips_collected_positions_and_stops_at_the_entry() {
        let store = one_sided_store();
        store.maintainers()[1].gossip_in(MaintainerId(0), LId(4));
        store.gc_before(LId(2));
        let mut client = store.client();
        let mut cursor = LId::ZERO;
        let mut seen = Vec::new();
        client
            .follow(
                &mut cursor,
                LId(4),
                |_| true,
                |entry| {
                    if entry.lid == LId(3) {
                        return ControlFlow::Break(());
                    }
                    seen.push(entry.lid);
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
        // 0 and 1 were collected: consumed without a visit.
        assert_eq!(seen, [LId(2)]);
        assert_eq!(cursor, LId(3), "a stop leaves the cursor at the entry");
        assert_eq!(
            follow_all(&mut client, &mut cursor, LId(4)).unwrap(),
            [LId(3)]
        );
        store.shutdown();
    }

    /// Polls until the client holds the Head of 4 that maintainer 0
    /// vouches for; maintainer 1 still answers 0.
    fn hold_head_of_four(client: &mut FLStoreClient) {
        for _ in 0..2 {
            client.head_of_log().unwrap();
        }
        // A poll answered by maintainer 1 does not take the Head back.
        for _ in 0..2 {
            assert_eq!(client.head_of_log().unwrap(), LId(4));
        }
    }

    #[test]
    fn a_position_below_the_held_head_waits_for_its_owner_to_hear_the_gossip() {
        let store = one_sided_store();
        let mut client = fail_fast(&store);
        hold_head_of_four(&mut client);
        let got = client.read(LId(1));
        assert!(
            matches!(got, Err(ChariotsError::NotYetAvailable(LId(1)))),
            "{got:?}"
        );

        let mut client = store.client();
        hold_head_of_four(&mut client);
        let rpcs = client.obs.rpc_count.clone();
        let before = rpcs.get();
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                // Once a second read RPC is under way, the first was
                // refused: only then does maintainer 1 hear the gossip.
                let deadline = Instant::now() + Duration::from_secs(10);
                while rpcs.get() < before + 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                store.maintainers()[1].gossip_in(MaintainerId(0), LId(4));
            });
            client.read(LId(1))
        });
        assert_eq!(got.unwrap().lid, LId(1));
        assert!(rpcs.get() - before >= 2, "the read was never refused");
        store.shutdown();
    }

    /// Positions 0..4 on two single-copy maintainers that own alternate
    /// positions and gossip every 3 s, each told the other's frontier, so
    /// both vouch for a Head of 4 and every position reads. Also returns
    /// the body appended at each position, indexed by `LId`.
    fn readable_store() -> (FLStore, Vec<Bytes>) {
        let cfg = FLStoreConfig::new()
            .maintainers(2)
            .replication(1)
            .batch_size(1)
            .gossip_interval(Duration::from_secs(3));
        let store = FLStore::launch(DatacenterId(0), cfg).unwrap();
        let mut client = store.client();
        let mut bodies = vec![Bytes::new(); 4];
        for i in 0..4 {
            let body = Bytes::from(format!("r{i}"));
            let (_, lid) = client.append(TagSet::new(), body.clone()).unwrap();
            bodies[lid.0 as usize] = body;
        }
        store.maintainers()[0].gossip_in(MaintainerId(1), LId(4));
        store.maintainers()[1].gossip_in(MaintainerId(0), LId(4));
        (store, bodies)
    }

    /// A client that returns the first transient refusal it gets.
    fn fail_fast(store: &FLStore) -> FLStoreClient {
        store
            .client()
            .with_retry_policy(RetryPolicy::new().max_attempts(1))
    }

    #[test]
    fn a_position_read_then_collected_reads_garbage_collected() {
        let (store, bodies) = readable_store();
        let mut client = fail_fast(&store);
        assert_eq!(client.read(LId(0)).unwrap().record.body, bodies[0]);
        store.gc_before(LId(2));
        let got = client.read(LId(0));
        assert!(
            matches!(got, Err(ChariotsError::GarbageCollected(_))),
            "{got:?}"
        );
        store.shutdown();
    }

    #[test]
    fn a_position_read_then_crashed_reads_the_transient_error() {
        let (store, bodies) = readable_store();
        let mut client = fail_fast(&store);
        assert_eq!(client.read(LId(1)).unwrap().record.body, bodies[1]);
        let owner = client.session.journal.owner_of(LId(1)).index();
        store.maintainers()[owner].station().crash();
        let err = client.read(LId(1)).unwrap_err();
        assert!(transient(&err), "{err:?}");
        store.shutdown();
    }

    #[test]
    fn read_many_answers_duplicates_over_two_owners_in_input_order() {
        let (store, bodies) = readable_store();
        let mut client = fail_fast(&store);
        let lids = [3, 0, 3, 1, 0, 2].map(LId);
        let owners: Vec<usize> = lids
            .iter()
            .map(|&lid| client.session.journal.owner_of(lid).index())
            .collect();
        assert!(owners.contains(&0) && owners.contains(&1));
        let rpcs = client.obs.rpc_count.get();
        let got: Vec<(LId, Bytes)> = client
            .read_many(&lids)
            .into_iter()
            .map(|r| {
                let entry = r.unwrap();
                (entry.lid, entry.record.body)
            })
            .collect();
        let want: Vec<(LId, Bytes)> = lids
            .iter()
            .map(|&lid| (lid, bodies[lid.0 as usize].clone()))
            .collect();
        assert_eq!(got, want);
        // One RPC per owning group, however many positions each owns.
        assert_eq!(client.obs.rpc_count.get() - rpcs, 2);

        // A second rule within the HL-cache TTL takes the Head from the
        // cache the first one filled.
        let mut client = client.with_hl_cache_ttl(Duration::from_secs(60));
        let rule = ReadRule::where_(Condition::LIdEq(LId(2)));
        let (hits, misses) = (client.obs.cache_hit.get(), client.obs.cache_miss.get());
        for _ in 0..2 {
            let got = client.read_rule(&rule).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].record.body, bodies[2]);
        }
        assert_eq!(client.obs.cache_miss.get() - misses, 1);
        assert_eq!(client.obs.cache_hit.get() - hits, 1);
        store.shutdown();
    }
}
