//! Per-layer costs, measured by driving each layer's public core on its
//! own with the workload's record stream: one thread, nothing else
//! running, so a `*_ns_per_rec` figure is that layer's work and no
//! waiting. Part of the traced run only.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use chariots_core::stages::{BatcherCore, FilterCore, FilterRouting, QueueCore};
use chariots_core::{ATable, Incoming, LocalAppend, RoutingPlan, Token};
use chariots_flstore::maintainer::AppendPayload;
use chariots_flstore::{EpochJournal, IndexerCore, MaintainerCore, RangeMap, Wal};
use chariots_simnet::{FrameDecoder, FRAME_HEADER_BYTES};
use chariots_types::{
    crc32, decode_exact, encode_to_vec, DatacenterId, Entry, LId, Limit, MaintainerId, Record,
    RecordId, TOId, TagSet, VersionVector,
};

use parking_lot::RwLock;

use crate::load::{tag_key, tagged, untagged, READ_MANY_SPAN, READ_RULE_LIMIT, TAG_KEYS};
use crate::rng::{self, Rng};
use crate::system::Kind;

/// Records each replay pushes through its layer.
const RECORDS: u64 = 100_000;
/// Records per message on the batcher→filter and filter→queue hops at
/// the default flush threshold.
const HOP_BATCH: usize = 64;
/// Entries per WAL group commit in the replay, near what the node drains
/// at the offered rate.
const WAL_BATCH: usize = 32;

fn ns_per(start: Instant, n: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn local(seed: u64, index: u64, dcs: usize, tags: fn(u64) -> TagSet) -> Incoming {
    Incoming::Local(LocalAppend {
        tags: tags(index),
        body: rng::body(seed, index),
        deps: VersionVector::new(dcs),
        reply: None,
        trace: None,
    })
}

fn external(seed: u64, index: u64, dcs: usize) -> Incoming {
    Incoming::External(Record::new(
        RecordId::new(DatacenterId(0), TOId(index + 1)),
        VersionVector::new(dcs),
        TagSet::new(),
        rng::body(seed, index),
    ))
}

/// Runs the replays that belong to `kind` and returns their metrics.
pub fn run(kind: Kind, seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    match kind {
        Kind::PipelineTcp => {
            wire(seed, &mut out);
            pipeline_stages(seed, 1, false, &mut out);
        }
        Kind::Geo2Dc => {
            // Half of a geo datacenter's records arrive from its peer.
            pipeline_stages(seed, 2, true, &mut out);
            atable(&mut out);
        }
        Kind::FlstoreDurable => {
            maintainer_append(seed, untagged, &mut out);
            wal(seed, scratch, &mut out);
        }
        Kind::ReadMix => {
            maintainer_append(seed, tagged, &mut out);
            maintainer_read(seed, &mut out);
            indexer(&mut out);
        }
    }
    out
}

/// `Wire` encode of the batches the TCP hops carry, then the receiving
/// side: `FrameDecoder` and decode.
fn wire(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let batches: Vec<Vec<Incoming>> = (0..RECORDS / HOP_BATCH as u64)
        .map(|b| {
            (0..HOP_BATCH as u64)
                .map(|i| local(seed, b * HOP_BATCH as u64 + i, 1, untagged))
                .collect()
        })
        .collect();
    let records = (batches.len() * HOP_BATCH) as u64;
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = batches.iter().map(encode_to_vec).collect();
    out.push(("types.wire.encode_ns_per_rec", ns_per(start, records)));
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    out.push(("types.wire.bytes_per_rec", bytes as f64 / records as f64));

    // Frame each payload as the transport does: length, CRC, payload.
    let mut stream = Vec::with_capacity(bytes + encoded.len() * FRAME_HEADER_BYTES);
    for payload in &encoded {
        stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stream.extend_from_slice(&crc32(payload).to_le_bytes());
        stream.extend_from_slice(payload);
    }
    let start = Instant::now();
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0u64;
    // Socket reads hand the decoder 64 KiB at a time.
    for chunk in stream.chunks(64 * 1024) {
        decoder.extend(chunk);
        while let Ok(Some(frame)) = decoder.next_frame() {
            let batch: Vec<Incoming> = decode_exact(frame).expect("frame decodes");
            decoded += batch.len() as u64;
            black_box(batch);
        }
    }
    assert_eq!(decoded, records, "every encoded record decodes");
    out.push(("types.wire.decode_ns_per_rec", ns_per(start, records)));
}

/// Batcher, filter and queue cores in sequence, each timed on its own.
fn pipeline_stages(seed: u64, dcs: usize, with_external: bool, out: &mut Vec<(&'static str, f64)>) {
    // One filter, as deployed.
    let plan = Arc::new(RwLock::new(RoutingPlan::new(FilterRouting::new(1, dcs))));
    let inputs: Vec<Incoming> = (0..RECORDS)
        .map(|i| {
            if with_external && i % 2 == 1 {
                external(seed, i / 2, dcs)
            } else {
                local(seed, i, dcs, untagged)
            }
        })
        .collect();

    let mut batcher = BatcherCore::new(Arc::clone(&plan), HOP_BATCH);
    let start = Instant::now();
    let mut batches: Vec<Vec<Incoming>> = Vec::new();
    for record in inputs {
        if let Some((_, batch)) = batcher.ingest(record) {
            batches.push(batch);
        }
    }
    batches.extend(batcher.flush_all().into_iter().map(|(_, b)| b));
    out.push(("core.batcher.ingest_ns_per_rec", ns_per(start, RECORDS)));

    // Filter 0 champions host 0, as in the deployment (one filter).
    let mut filter = FilterCore::new(0, Arc::clone(&plan));
    let start = Instant::now();
    let released: Vec<Vec<Incoming>> = batches
        .into_iter()
        .map(|batch| batch.into_iter().flat_map(|r| filter.ingest(r)).collect())
        .collect();
    out.push(("core.filter.ingest_ns_per_rec", ns_per(start, RECORDS)));

    // The queue is local to DC 1 when external records come from DC 0.
    let dc = DatacenterId(if with_external { 1 } else { 0 });
    let mut queue = QueueCore::new(dc, true);
    let mut token = Token::new(dcs);
    let start = Instant::now();
    let mut assigned = 0u64;
    for batch in released {
        queue.stage(batch);
        assigned += queue.process(&mut token).len() as u64;
    }
    assert_eq!(assigned, RECORDS, "the queue assigned every record");
    out.push(("core.queue.process_ns_per_rec", ns_per(start, RECORDS)));
}

/// `ATable::merge_row` with a cut that rises every time, as a receiver
/// sees it from a peer under load.
fn atable(out: &mut Vec<(&'static str, f64)>) {
    let mut table = ATable::new(2);
    let start = Instant::now();
    for i in 0..RECORDS {
        let row = VersionVector::from_entries(vec![TOId(i + 1), TOId(i / 2)]);
        black_box(table.merge_row(DatacenterId(0), &row));
    }
    out.push(("core.atable.merge_ns", ns_per(start, RECORDS)));
}

fn solo_maintainer() -> MaintainerCore {
    MaintainerCore::new(
        MaintainerId(0),
        DatacenterId(0),
        EpochJournal::new(RangeMap::new(1, 1000)),
    )
}

fn payloads(seed: u64, tags: fn(u64) -> TagSet, range: std::ops::Range<u64>) -> Vec<AppendPayload> {
    range
        .map(|i| AppendPayload::new(tags(i), rng::body(seed, i)))
        .collect()
}

/// `MaintainerCore::append_batch` in batches of 16, without a WAL.
fn maintainer_append(seed: u64, tags: fn(u64) -> TagSet, out: &mut Vec<(&'static str, f64)>) {
    let mut core = solo_maintainer();
    let batches: Vec<Vec<AppendPayload>> = (0..RECORDS / 16)
        .map(|b| payloads(seed, tags, b * 16..b * 16 + 16))
        .collect();
    let start = Instant::now();
    for batch in batches {
        black_box(core.append_batch(batch).expect("append_batch"));
    }
    out.push((
        "flstore.maintainer.append_ns_per_rec",
        ns_per(start, RECORDS / 16 * 16),
    ));
}

/// `MaintainerCore::read_many` over spans of 32 at uniform offsets.
fn maintainer_read(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut core = solo_maintainer();
    core.append_batch(payloads(seed, untagged, 0..RECORDS))
        .expect("append_batch");
    let mut rng = Rng::new(seed);
    let spans: Vec<Vec<LId>> = (0..RECORDS / READ_MANY_SPAN)
        .map(|_| {
            let first = rng.below(RECORDS - READ_MANY_SPAN);
            (first..first + READ_MANY_SPAN).map(LId).collect()
        })
        .collect();
    let start = Instant::now();
    let mut read = 0u64;
    for lids in &spans {
        let got = core.read_many(lids, true);
        read += got.iter().filter(|r| r.is_ok()).count() as u64;
        black_box(got);
    }
    assert_eq!(
        read,
        spans.len() as u64 * READ_MANY_SPAN,
        "every position read"
    );
    out.push(("flstore.maintainer.read_ns_per_rec", ns_per(start, read)));
}

/// `IndexerCore::post` for every record, then `lookup` of the most
/// recent 16 postings of each key in turn.
fn indexer(out: &mut Vec<(&'static str, f64)>) {
    let mut core = IndexerCore::new();
    let keys: Vec<String> = (0..TAG_KEYS).map(tag_key).collect();
    let start = Instant::now();
    for i in 0..RECORDS {
        core.post(&keys[(i % TAG_KEYS) as usize], None, LId(i));
    }
    out.push(("flstore.indexer.post_ns", ns_per(start, RECORDS)));
    let lookups = 20_000u64;
    let start = Instant::now();
    for i in 0..lookups {
        let hits = core.lookup(
            &keys[(i % TAG_KEYS) as usize],
            None,
            Some(LId(RECORDS)),
            Limit::MostRecent(READ_RULE_LIMIT),
        );
        assert_eq!(hits.len(), READ_RULE_LIMIT);
        black_box(hits);
    }
    out.push(("flstore.indexer.lookup_us", ns_per(start, lookups) / 1000.0));
}

/// `Wal::append` + `sync` per group of entries, then `replay_iter`.
fn wal(seed: u64, scratch: &Path, out: &mut Vec<(&'static str, f64)>) {
    let base = scratch.join("replay.wal");
    let entries: Vec<Entry> = (0..RECORDS / 4)
        .map(|i| {
            Entry::new(
                LId(i),
                Record::new(
                    RecordId::new(DatacenterId(0), TOId(i + 1)),
                    VersionVector::new(0),
                    TagSet::new(),
                    rng::body(seed, i),
                ),
            )
        })
        .collect();
    let mut log = Wal::open(&base).expect("open WAL");
    let start = Instant::now();
    let mut batches = 0u64;
    for group in entries.chunks(WAL_BATCH) {
        for entry in group {
            log.append(entry).expect("WAL append");
        }
        log.sync().expect("WAL sync");
        batches += 1;
    }
    out.push((
        "flstore.wal.append_sync_us_per_batch",
        ns_per(start, batches) / 1000.0,
    ));
    drop(log);
    let start = Instant::now();
    let replayed = Wal::replay_iter(&base).expect("open replay").count() as u64;
    assert_eq!(
        replayed,
        entries.len() as u64,
        "the WAL replays what it was given"
    );
    out.push(("flstore.wal.recover_ns_per_rec", ns_per(start, replayed)));
}
