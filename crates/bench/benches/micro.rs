//! Criterion micro-benchmarks of the hot paths: the per-record costs that
//! determine each simulated machine's real capacity.

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use chariots_core::stages::filter::{FilterCore, FilterRouting};
use chariots_core::{ATable, Incoming, Token};
use chariots_flstore::{
    indexer::IndexerCore, maintainer::AppendPayload, segment::SegmentStore, EpochJournal, HlVector,
    MaintainerCore, RangeMap,
};
use chariots_types::{
    crc32, DatacenterId, Entry, LId, Limit, MaintainerId, Record, RecordId, TOId, Tag, TagSet,
    TagValue, VersionVector,
};

fn record(host: u16, toid: u64) -> Record {
    Record::new(
        RecordId::new(DatacenterId(host), TOId(toid)),
        VersionVector::from_entries(vec![TOId(toid), TOId(0)]),
        TagSet::new().with(Tag::with_value("key", "bench")),
        Bytes::from_static(&[0u8; 512]),
    )
}

fn bench_version_vectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("version_vector");
    let a = VersionVector::from_entries((0..5).map(TOId).collect());
    let b = VersionVector::from_entries((0..5).rev().map(TOId).collect());
    group.bench_function("dominates_n5", |bench| {
        bench.iter(|| std::hint::black_box(&a).dominates(std::hint::black_box(&b)))
    });
    group.bench_function("merge_n5", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut v| v.merge(std::hint::black_box(&b)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_atable(c: &mut Criterion) {
    let mut group = c.benchmark_group("atable");
    let mut t = ATable::new(5);
    for i in 0..5 {
        for j in 0..5 {
            t.observe(DatacenterId(i), DatacenterId(j), TOId((i * 7 + j) as u64));
        }
    }
    let other = t.clone();
    group.bench_function("merge_5x5", |bench| {
        bench.iter_batched(
            || t.clone(),
            |mut mine| mine.merge(std::hint::black_box(&other)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("gc_bound", |bench| {
        bench.iter(|| std::hint::black_box(&t).gc_bound(DatacenterId(2)))
    });
    group.finish();
}

fn bench_rangemap(c: &mut Criterion) {
    let mut group = c.benchmark_group("rangemap");
    let map = RangeMap::new(10, 1000);
    group.bench_function("owner_of", |bench| {
        bench.iter(|| map.owner_of(std::hint::black_box(LId(123_456))))
    });
    group.bench_function("lid_for", |bench| {
        bench.iter(|| map.lid_for(MaintainerId(7), std::hint::black_box(99_999)))
    });
    group.finish();
}

fn bench_maintainer_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintainer");
    group.throughput(Throughput::Elements(100));
    group.bench_function("append_batch_100", |bench| {
        bench.iter_batched(
            || {
                let journal = EpochJournal::new(RangeMap::new(3, 1000));
                let core = MaintainerCore::new(MaintainerId(0), DatacenterId(0), journal);
                let batch: Vec<AppendPayload> = (0..100)
                    .map(|_| AppendPayload::new(TagSet::new(), Bytes::from_static(&[0u8; 512])))
                    .collect();
                (core, batch)
            },
            |(mut core, batch)| core.append_batch(batch).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    // The checksum of a record-sized frame, and of a batch-sized one.
    for (name, len) in [("crc32_512B", 512), ("crc32_32KiB", 32 * 1024)] {
        group.bench_function(name, |bench| {
            let data = vec![0xA5u8; len];
            bench.iter(|| crc32(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("ingest_in_order_1000", |bench| {
        bench.iter_batched(
            || {
                let core = FilterCore::with_routing(0, FilterRouting::new(1, 2));
                let records: Vec<Incoming> = (1..=1000)
                    .map(|t| Incoming::External(record(1, t)))
                    .collect();
                (core, records)
            },
            |(mut core, records)| {
                let mut out = 0;
                for r in records {
                    out += core.ingest(r).len();
                }
                out
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_token(c: &mut Criterion) {
    let mut group = c.benchmark_group("token");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("assign_external_1000", |bench| {
        bench.iter_batched(
            || {
                let token = Token::new(2);
                let records: Vec<Record> = (1..=1000).map(|t| record(1, t)).collect();
                (token, records)
            },
            |(mut token, records)| {
                for r in &records {
                    token.assign_external(r);
                }
                token.next_lid
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_indexer(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexer");
    let mut ix = IndexerCore::new();
    for i in 0..10_000u64 {
        ix.post("key", Some(TagValue::Int(i as i64)), LId(i));
    }
    group.bench_function("lookup_most_recent_100_of_10k", |bench| {
        bench.iter(|| ix.lookup("key", None, None, Limit::MostRecent(100)))
    });
    group.bench_function("post", |bench| {
        let mut i = 10_000u64;
        bench.iter(|| {
            ix.post("key", Some(TagValue::Int(i as i64)), LId(i));
            i += 1;
        })
    });
    group.finish();
}

fn bench_segment_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_store");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("insert_1000_in_order", |bench| {
        bench.iter_batched(
            || {
                let entries: Vec<Entry> = (0..1000)
                    .map(|i| Entry::new(LId(i), record(0, i + 1)))
                    .collect();
                (SegmentStore::new(256), entries)
            },
            |(mut store, entries)| {
                for (i, e) in entries.into_iter().enumerate() {
                    store.insert(i as u64, e).unwrap();
                }
                store.filled_prefix()
            },
            BatchSize::SmallInput,
        )
    });
    let mut filled = SegmentStore::new(256);
    for i in 0..10_000u64 {
        filled
            .insert(i, Entry::new(LId(i), record(0, i + 1)))
            .unwrap();
    }
    group.bench_function("get_of_10k", |bench| {
        bench.iter(|| filled.get(std::hint::black_box(7_777)).is_some())
    });
    group.finish();
}

fn bench_epoch_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_journal");
    let mut journal = EpochJournal::new(RangeMap::new(2, 1000));
    journal.announce(LId(50_000), RangeMap::new(4, 1000));
    journal.announce(LId(200_000), RangeMap::new(8, 1000));
    group.bench_function("owner_of_3_epochs", |bench| {
        bench.iter(|| journal.owner_of(std::hint::black_box(LId(123_456))))
    });
    group.finish();
}

fn bench_hl_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("hl_vector");
    let mut hl = HlVector::new(10);
    for i in 0..10u16 {
        hl.update(MaintainerId(i), LId(1000 + i as u64));
    }
    group.bench_function("head_of_log_n10", |bench| {
        bench.iter(|| std::hint::black_box(&hl).head_of_log())
    });
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configure();
    targets =
        bench_version_vectors,
        bench_atable,
        bench_rangemap,
        bench_maintainer_append,
        bench_frame,
        bench_filter,
        bench_token,
        bench_indexer,
        bench_segment_store,
        bench_epoch_journal,
        bench_hl_vector,
}
criterion_main!(benches);
