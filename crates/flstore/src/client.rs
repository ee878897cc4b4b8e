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
//! * **Immutability**: a committed position below the Head of the Log
//!   never changes, so a bounded LRU entry cache needs no invalidation,
//!   and the monotonic HL itself can be served from a bounded-staleness
//!   cache — a stale HL is always a safe *lower* bound on readability.
//!
//! [`read_rule`] routes its exact-`LId`, tag-indexed, and scan paths
//! through this machinery and skips (rather than aborts on) positions that
//! cannot currently be read — see [`read_rule`] for the exact semantics.
//!
//! [`read_many`]: FLStoreClient::read_many
//! [`read_rule`]: FLStoreClient::read_rule

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chariots_simnet::{Counter, Histogram, MetricsRegistry, RetryPolicy};
use chariots_types::{ChariotsError, Condition, Entry, LId, Limit, ReadRule, Result, TOId, TagSet};

use crate::controller::{Controller, Session};
use crate::maintainer::AppendPayload;
use crate::replication::ReplicaGroupHandle;

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
///   reads, single reads, scans, index lookups, HL polls). The batched
///   path's win is this dropping from O(candidates) to O(owning groups).
/// * `{prefix}.read.batch.size` — positions per batch-read RPC.
/// * `{prefix}.read.cache.{hit,miss}` — HL-cache and entry-cache outcomes
///   (counted only while the respective cache is enabled).
#[derive(Clone, Default)]
pub struct ReadObs {
    /// Positions per batch-read RPC.
    pub batch_size: Histogram,
    /// Cache hits (HL cache + entry cache).
    pub cache_hit: Counter,
    /// Cache misses (HL cache + entry cache).
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

/// A bounded LRU cache of committed entries, keyed by `LId`.
///
/// Soundness needs no invalidation protocol: only entries read under HL
/// enforcement are inserted, and a position below the Head of the Log is
/// committed and immutable (per §5.4's no-gaps-below rule a later read can
/// only return the identical entry). Eviction is least-recently-used via
/// a logical clock; capacity 0 disables the cache entirely.
struct EntryCache {
    cap: usize,
    clock: u64,
    map: HashMap<LId, (Entry, u64)>,
    by_use: BTreeMap<u64, LId>,
}

impl EntryCache {
    fn new(cap: usize) -> Self {
        EntryCache {
            cap,
            clock: 0,
            map: HashMap::new(),
            by_use: BTreeMap::new(),
        }
    }

    fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn get(&mut self, lid: LId) -> Option<Entry> {
        let old_stamp = self.map.get(&lid).map(|(_, s)| *s)?;
        self.clock += 1;
        self.by_use.remove(&old_stamp);
        self.by_use.insert(self.clock, lid);
        let (entry, stamp) = self.map.get_mut(&lid).expect("present above");
        *stamp = self.clock;
        Some(entry.clone())
    }

    fn insert(&mut self, entry: Entry) {
        if self.cap == 0 {
            return;
        }
        let lid = entry.lid;
        if let Some((_, old_stamp)) = self.map.get(&lid) {
            self.by_use.remove(old_stamp);
        } else {
            while self.map.len() >= self.cap {
                let (_, evicted) = self.by_use.pop_first().expect("cache non-empty");
                self.map.remove(&evicted);
            }
        }
        self.clock += 1;
        self.by_use.insert(self.clock, lid);
        self.map.insert(lid, (entry, self.clock));
    }
}

/// How long a client serves `read_rule` from its cached Head of the Log
/// before refreshing it with an RPC. The HL is monotonic, so a stale value
/// is always a safe *lower* bound — the cache trades freshness (a record may
/// become visible up to one TTL late) for one `head_of_log` round trip per
/// rule. Override per client with [`FLStoreClient::with_hl_cache_ttl`].
const HL_CACHE_TTL: Duration = Duration::from_millis(5);

/// Capacity of a client's entry cache, in entries. Override per client with
/// [`FLStoreClient::with_entry_cache_capacity`].
const ENTRY_CACHE_CAPACITY: usize = 4096;

/// A client session against one datacenter's FLStore.
pub struct FLStoreClient {
    controller: Controller,
    session: Session,
    routing: AppendRouting,
    retry: RetryPolicy,
    rr_cursor: usize,
    hl_cache_ttl: Duration,
    hl_cache: Option<(LId, Instant)>,
    entry_cache: EntryCache,
    obs: ReadObs,
}

impl FLStoreClient {
    /// Opens a session via the controller, with both read caches at their
    /// defaults (a 5 ms Head-of-Log TTL, 4096 cached entries). The read
    /// instruments come with the session.
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
            entry_cache: EntryCache::new(ENTRY_CACHE_CAPACITY),
            obs,
        }
    }

    /// Sets the append-routing policy.
    pub fn with_routing(mut self, routing: AppendRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the retry schedule used for transient errors (Unavailable,
    /// fenced or primary-less groups, stale-journal routing). The default
    /// rides out a failover window; `RetryPolicy::new().max_attempts(1)`
    /// restores fail-fast behavior.
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

    /// Overrides the entry-cache capacity for this client (0 disables).
    pub fn with_entry_cache_capacity(mut self, cap: usize) -> Self {
        self.entry_cache = EntryCache::new(cap);
        self
    }

    /// Re-polls the controller ("if communication problems occur"). The
    /// entry cache survives: committed positions are immutable, so a
    /// topology change cannot stale it.
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
    /// fenced or deposed primary — are retried with jittered backoff after
    /// refreshing the session; a failed attempt assigned nothing, so the
    /// retry cannot duplicate records.
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

    /// Reads the record at `lid`, optionally skipping the HL gate (used by
    /// infrastructure that has its own ordering guarantees).
    ///
    /// A stale journal (`WrongMaintainer`) or a down machine is handled by
    /// refreshing the session and retrying with bounded jittered backoff —
    /// the paper's "if communication problems occur" clause; the group
    /// handle additionally falls back to backups for reads. Entries read
    /// under the HL gate populate the entry cache.
    pub fn read_with_hl(&mut self, lid: LId, enforce_hl: bool) -> Result<Entry> {
        if let Some(entry) = self.entry_cache.get(lid) {
            self.obs.cache_hit.add(1);
            return Ok(entry);
        }
        if self.entry_cache.enabled() {
            self.obs.cache_miss.add(1);
        }
        let retry = self.retry.clone();
        let entry = retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let owner = self.session.journal.owner_of(lid);
            let handle = self
                .session
                .maintainers
                .get(owner.index())
                .ok_or_else(|| ChariotsError::Unavailable(format!("maintainer {owner}")))?;
            self.obs.rpc_count.add(1);
            handle.read(lid, enforce_hl)
        })?;
        // Only HL-gated reads are known-committed; a gate-free read may
        // observe a position that a failover could still reassign.
        if enforce_hl {
            self.entry_cache.insert(entry.clone());
        }
        Ok(entry)
    }

    /// Reads every position in `lids`, enforcing the HL gate, and returns
    /// per-position results **in input order** (one slot per requested
    /// position, duplicates included).
    ///
    /// This is the scatter-gather path: positions are grouped by owning
    /// maintainer via the journal's striping and fetched with one
    /// [`ReplicaGroupHandle::read_batch`] RPC per owning group, issued
    /// concurrently across groups. Transiently failing positions (downed
    /// or fenced groups, stale routing) are retried with jittered backoff
    /// after a session refresh; everything else (`NotYetAvailable`,
    /// `GarbageCollected`, …) lands in that position's slot.
    pub fn read_many(&mut self, lids: &[LId]) -> Vec<Result<Entry>> {
        self.read_many_with_hl(lids, true)
    }

    /// [`read_many`](Self::read_many) with an explicit HL-gate flag. Only
    /// HL-gated results populate the entry cache.
    pub fn read_many_with_hl(&mut self, lids: &[LId], enforce_hl: bool) -> Vec<Result<Entry>> {
        let mut results: Vec<Option<Result<Entry>>> = lids.iter().map(|_| None).collect();
        // Serve what we can from the entry cache.
        let mut pending: Vec<usize> = Vec::new();
        for (i, &lid) in lids.iter().enumerate() {
            if let Some(entry) = self.entry_cache.get(lid) {
                self.obs.cache_hit.add(1);
                results[i] = Some(Ok(entry));
            } else {
                if self.entry_cache.enabled() {
                    self.obs.cache_miss.add(1);
                }
                pending.push(i);
            }
        }
        if pending.is_empty() {
            return results.into_iter().map(|r| r.expect("cached")).collect();
        }

        let retry = self.retry.clone();
        let mut last_transient: Option<ChariotsError> = None;
        // Each retry round re-groups the still-pending positions under the
        // (possibly refreshed) journal and scatters again; `results` keeps
        // the latest outcome per position, so a final transient failure is
        // reported per-slot rather than failing the whole call.
        let _ = retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &i in &pending {
                let owner = self.session.journal.owner_of(lids[i]);
                groups.entry(owner.index()).or_default().push(i);
            }
            pending.clear();
            let mut scatter: Vec<(Vec<usize>, ReplicaGroupHandle, Vec<LId>)> = Vec::new();
            for (owner, idxs) in groups {
                match self.session.maintainers.get(owner) {
                    Some(handle) => {
                        let batch: Vec<LId> = idxs.iter().map(|&i| lids[i]).collect();
                        self.obs.rpc_count.add(1);
                        self.obs.batch_size.record(batch.len() as u64);
                        scatter.push((idxs, handle.clone(), batch));
                    }
                    None => {
                        // Stale journal: the owner is not in this session's
                        // topology. Transient — a refresh resolves it.
                        let err = ChariotsError::Unavailable(format!("maintainer group {owner}"));
                        for &i in &idxs {
                            results[i] = Some(Err(err.clone()));
                            pending.push(i);
                        }
                        last_transient = Some(err);
                    }
                }
            }

            // Scatter concurrently across owning groups, gather in order.
            let gathered: Vec<Vec<Result<Entry>>> = if scatter.len() == 1 {
                let (_, handle, batch) = &scatter[0];
                vec![handle.read_batch(batch, enforce_hl)]
            } else {
                std::thread::scope(|s| {
                    let threads: Vec<_> = scatter
                        .iter()
                        .map(|(_, handle, batch)| {
                            s.spawn(move || handle.read_batch(batch, enforce_hl))
                        })
                        .collect();
                    threads
                        .into_iter()
                        .map(|t| t.join().expect("read_batch worker panicked"))
                        .collect()
                })
            };

            for ((idxs, _, _), batch_results) in scatter.into_iter().zip(gathered) {
                for (i, r) in idxs.into_iter().zip(batch_results) {
                    match r {
                        Ok(entry) => {
                            if enforce_hl {
                                self.entry_cache.insert(entry.clone());
                            }
                            results[i] = Some(Ok(entry));
                        }
                        Err(e) => {
                            if transient(&e) {
                                last_transient = Some(e.clone());
                                pending.push(i);
                            }
                            results[i] = Some(Err(e));
                        }
                    }
                }
            }
            if pending.is_empty() {
                last_transient = None;
                Ok(())
            } else {
                // Failing the closure triggers another round (or, at the
                // retry budget, leaves the per-slot errors in place).
                Err(last_transient.clone().expect("pending implies transient"))
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every position resolved"))
            .collect()
    }

    /// The Head of the Log: every position strictly below it is readable
    /// (Hyksos polls this to pick get-transaction snapshots, Alg. 1).
    /// Always fetched fresh; the result refreshes the client's HL cache.
    pub fn head_of_log(&mut self) -> Result<LId> {
        // Any maintainer answers ("it asks one of the maintainers").
        let retry = self.retry.clone();
        let hl = retry.run(transient, |attempt| {
            if attempt > 0 {
                self.refresh_session();
            }
            let i = self.pick_maintainer()?;
            self.obs.rpc_count.add(1);
            self.session.maintainers[i].head_of_log()
        })?;
        self.hl_cache = Some((hl, Instant::now()));
        Ok(hl)
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
    use chariots_types::{DatacenterId, Record, RecordId, TagSet, VersionVector};

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

    #[test]
    fn entry_cache_is_lru_and_bounded() {
        let mut cache = EntryCache::new(2);
        cache.insert(entry(0));
        cache.insert(entry(1));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(LId(0)).is_some());
        cache.insert(entry(2));
        assert!(cache.get(LId(1)).is_none(), "LRU victim evicted");
        assert!(cache.get(LId(0)).is_some());
        assert!(cache.get(LId(2)).is_some());
        assert!(cache.map.len() <= 2);
    }

    #[test]
    fn entry_cache_zero_capacity_is_disabled() {
        let mut cache = EntryCache::new(0);
        assert!(!cache.enabled());
        cache.insert(entry(0));
        assert!(cache.get(LId(0)).is_none());
    }

    #[test]
    fn entry_cache_reinsert_refreshes_not_grows() {
        let mut cache = EntryCache::new(2);
        cache.insert(entry(0));
        cache.insert(entry(0));
        cache.insert(entry(1));
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.by_use.len(), 2);
    }
}
