//! The correctness audit every run ends with: the whole log is read back
//! and compared with what the run appended and was told.

use std::collections::HashMap;

use std::time::{Duration, Instant};

use chariots_types::{ChariotsError, LId};

use crate::load::{tag_key, RuleResult, READ_RULE_LIMIT, TAG_KEYS};
use crate::rng;
use crate::system::Client;

const CHUNK: u64 = 1024;
/// How long a position below the Head may stay unreadable at its owner.
const READABLE_WITHIN: Duration = Duration::from_secs(10);

/// A log as one client sees it: per position, the record's index and
/// where it was first appended.
pub struct LogImage {
    pub index_at: Vec<u64>,
    pub host_toid_at: Vec<(u16, u64)>,
}

/// Reads positions `0..len` through `client`. Every body must be what
/// was appended under the index it carries.
pub fn read_log(
    client: &mut Client,
    seed: u64,
    len: u64,
    tagged: bool,
) -> Result<LogImage, String> {
    let mut image = LogImage {
        index_at: Vec::with_capacity(len as usize),
        host_toid_at: Vec::with_capacity(len as usize),
    };
    let mut deadline = Instant::now() + READABLE_WITHIN;
    let mut next = 0;
    while next < len {
        let upto = (next + CHUNK).min(len);
        let lids: Vec<LId> = (next..upto).map(LId).collect();
        for (result, &lid) in client.read_many(&lids).into_iter().zip(&lids) {
            let entry = match result {
                Ok(entry) => entry,
                // The maintainer that owns the position has not heard of
                // the Head the caller saw yet; gossip will tell it.
                Err(ChariotsError::NotYetAvailable(_)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
                Err(e) => return Err(format!("position {lid} unreadable: {e}")),
            };
            if entry.lid != lid {
                return Err(format!("asked for {lid}, got {}", entry.lid));
            }
            let index = rng::verify_body(seed, &entry.record.body)
                .ok_or_else(|| format!("position {lid} holds a body nobody appended"))?;
            if tagged && !entry.record.tags.contains_key(&tag_key(index)) {
                return Err(format!("position {lid} lost its tag"));
            }
            image.index_at.push(index);
            image
                .host_toid_at
                .push((entry.record.host().0, entry.record.toid().0));
        }
        // Resume after the last position read, whole chunk or not.
        let read = image.index_at.len() as u64;
        if read > next {
            deadline = Instant::now() + READABLE_WITHIN;
        }
        next = read;
    }
    Ok(image)
}

/// Every index of `ranges` (`base`, `count`) is in the log exactly once
/// and the log holds nothing else. The image was read position by
/// position, so positions are dense and unique.
pub fn check_exactly_once(image: &LogImage, ranges: &[(u64, u64)]) -> Result<(), String> {
    let mut seen: Vec<Vec<bool>> = ranges
        .iter()
        .map(|&(_, n)| vec![false; n as usize])
        .collect();
    for (lid, &index) in image.index_at.iter().enumerate() {
        let slot = ranges
            .iter()
            .position(|&(base, n)| index >= base && index < base + n)
            .ok_or_else(|| format!("position {lid} holds index {index}, which nobody appended"))?;
        let offset = (index - ranges[slot].0) as usize;
        if std::mem::replace(&mut seen[slot][offset], true) {
            return Err(format!("index {index} is in the log twice"));
        }
    }
    for (&(base, _), seen) in ranges.iter().zip(&seen) {
        if let Some(offset) = seen.iter().position(|&s| !s) {
            return Err(format!(
                "index {} was appended but is not in the log",
                base + offset as u64
            ));
        }
    }
    Ok(())
}

/// Each host's records appear in its total order, without a hole.
pub fn check_host_order(image: &LogImage) -> Result<(), String> {
    let mut last: HashMap<u16, u64> = HashMap::new();
    for (lid, &(host, toid)) in image.host_toid_at.iter().enumerate() {
        let prev = last.insert(host, toid).unwrap_or(0);
        if toid != prev + 1 {
            return Err(format!(
                "position {lid}: host {host} TOId {toid} follows TOId {prev}"
            ));
        }
    }
    Ok(())
}

/// Two datacenters hold the same records: each `(host, TOId)` names the
/// same record index at both.
pub fn check_same_records(a: &LogImage, b: &LogImage) -> Result<(), String> {
    let at_a: HashMap<(u16, u64), u64> = a
        .host_toid_at
        .iter()
        .copied()
        .zip(a.index_at.iter().copied())
        .collect();
    if at_a.len() != a.index_at.len() || a.index_at.len() != b.index_at.len() {
        return Err("the datacenters hold different numbers of records".to_string());
    }
    for (id, &index) in b.host_toid_at.iter().zip(&b.index_at) {
        if at_a.get(id) != Some(&index) {
            return Err(format!("record {id:?} differs between the datacenters"));
        }
    }
    Ok(())
}

/// Everything a read returned or an append acknowledged is what the log
/// holds at that position.
pub fn check_ledger(image: &LogImage, seen: &[(u64, u64)]) -> Result<(), String> {
    for &(lid, index) in seen {
        if image.index_at.get(lid as usize) != Some(&index) {
            return Err(format!(
                "a client was told position {lid} holds index {index}; the log disagrees"
            ));
        }
    }
    Ok(())
}

/// Each `read_rule` answer is a run of consecutive postings of its key,
/// most recent first, full length, and reaches at least the newest
/// preloaded posting (everything preloaded was readable before the first
/// query).
pub fn check_rules(image: &LogImage, rules: &[RuleResult], preload: u64) -> Result<(), String> {
    let mut postings: Vec<Vec<u64>> = vec![Vec::new(); TAG_KEYS as usize];
    for (lid, &index) in image.index_at.iter().enumerate() {
        postings[(index % TAG_KEYS) as usize].push(lid as u64);
    }
    for rule in rules {
        let list = &postings[rule.key as usize];
        let describe = || format!("read_rule on key {} returned {:?}", rule.key, rule.lids);
        if rule.lids.len() != READ_RULE_LIMIT {
            return Err(format!("{}: wrong length", describe()));
        }
        let newest = list
            .binary_search(&rule.lids[0])
            .map_err(|_| format!("{}: not a posting of the key", describe()))?;
        let newest_preloaded = list.partition_point(|&lid| lid < preload);
        if newest + 1 < newest_preloaded {
            return Err(format!("{}: older than the preloaded postings", describe()));
        }
        let run = list[..=newest].iter().rev().take(READ_RULE_LIMIT);
        if !run.eq(rule.lids.iter()) {
            return Err(format!("{}: not the most recent run", describe()));
        }
    }
    Ok(())
}
