//! # chariots-types
//!
//! Fundamental data model for the Chariots shared-log stack — the Rust
//! reproduction of *Chariots: A Scalable Shared Log for Data Management in
//! Multi-Datacenter Cloud Environments* (EDBT 2015).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ids`] — newtype identifiers: [`DatacenterId`], [`LId`] (log
//!   position), [`TOId`] (per-host total order), [`RecordId`],
//!   [`MaintainerId`], [`Epoch`].
//! * [`record`] — [`Record`]s with opaque bodies and system-visible
//!   [`Tag`]s; [`Entry`] couples a record copy with its `LId`.
//! * [`causality`] — [`VersionVector`] causal cuts over per-datacenter
//!   total orders.
//! * [`rules`] — the [`ReadRule`] predicate language of the `Read` API.
//! * [`config`] — builder-style deployment configuration.
//! * [`error`] — [`ChariotsError`] and the workspace [`Result`] alias.
//! * [`wire`] — the hand-rolled [`Wire`] codec the TCP transport backend
//!   serializes with (zero-copy record bodies via [`WireReader`]), plus
//!   the shared [`crc32`] used by both the WAL and transport frames.
//!
//! ```
//! use chariots_types::{DatacenterId, Record, RecordBuilder, Tag, TOId, RecordId, VersionVector};
//!
//! // A record as an application client builds it: tags + body; the
//! // system supplies identity and causality.
//! let record = RecordBuilder::new()
//!     .body("put x=10")
//!     .tag(Tag::with_value("key", "x"))
//!     .build(
//!         RecordId::new(DatacenterId(0), TOId(1)),
//!         VersionVector::new(2),
//!     );
//! assert_eq!(record.id.to_string(), "<A,1>");
//! assert!(record.tags.contains_key("key"));
//! ```

#![warn(missing_docs)]

pub mod causality;
pub mod config;
pub mod error;
pub mod ids;
pub mod record;
pub mod rules;
pub mod wire;

pub use causality::{compare, CausalOrder, VersionVector};
pub use config::{ChariotsConfig, FLStoreConfig, StageCounts, TransportMode, WalSyncPolicy};
pub use error::{ChariotsError, Result};
pub use ids::{
    ClientId, DatacenterId, Epoch, Generation, LId, MaintainerId, RecordId, TOId, TraceId,
};
pub use record::{Entry, Record, RecordBuilder, Tag, TagSet, TagValue};
pub use rules::{Condition, Limit, ReadRule, ValuePredicate};
pub use wire::{crc32, decode_exact, encode_to_vec, Wire, WireReader};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vv(n: usize) -> impl Strategy<Value = VersionVector> {
        proptest::collection::vec(0u64..64, n)
            .prop_map(|v| VersionVector::from_entries(v.into_iter().map(TOId).collect()))
    }

    fn arb_tag() -> impl Strategy<Value = Tag> {
        (
            "[a-z]{0,6}",
            proptest::option::of(prop_oneof![
                any::<i64>().prop_map(TagValue::Int),
                "[ -~]{0,12}".prop_map(TagValue::Str),
            ]),
        )
            .prop_map(|(key, value)| Tag { key, value })
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (
            0u16..4,
            0u64..1_000_000,
            arb_vv(3),
            proptest::collection::vec(arb_tag(), 0..4),
            proptest::collection::vec(any::<u8>(), 0..256),
            proptest::option::of(any::<u64>().prop_map(TraceId)),
        )
            .prop_map(|(host, toid, deps, tags, body, trace)| {
                Record::new(
                    RecordId::new(DatacenterId(host), TOId(toid)),
                    deps,
                    TagSet::from_tags(tags),
                    bytes::Bytes::from(body),
                )
                .with_trace(trace)
            })
    }

    proptest! {
        /// merge is the lattice join: commutative, idempotent, and an upper
        /// bound of both operands.
        #[test]
        fn merge_is_join(a in arb_vv(4), b in arb_vv(4)) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert!(ab.dominates(&a));
            prop_assert!(ab.dominates(&b));
            let mut twice = ab.clone();
            twice.merge(&a);
            prop_assert_eq!(&twice, &ab);
        }

        /// dominates is a partial order: reflexive and transitive.
        #[test]
        fn dominates_is_partial_order(a in arb_vv(4), b in arb_vv(4), c in arb_vv(4)) {
            prop_assert!(a.dominates(&a));
            if a.dominates(&b) && b.dominates(&c) {
                prop_assert!(a.dominates(&c));
            }
            // Antisymmetry up to equality.
            if a.dominates(&b) && b.dominates(&a) {
                prop_assert_eq!(compare(&a, &b), CausalOrder::Equal);
            }
        }

        /// compare is consistent with dominates in both directions.
        #[test]
        fn compare_consistency(a in arb_vv(3), b in arb_vv(3)) {
            match compare(&a, &b) {
                CausalOrder::Equal => {
                    prop_assert!(a.dominates(&b) && b.dominates(&a));
                }
                CausalOrder::After => {
                    prop_assert!(a.dominates(&b) && !b.dominates(&a));
                }
                CausalOrder::Before => {
                    prop_assert!(!a.dominates(&b) && b.dominates(&a));
                }
                CausalOrder::Concurrent => {
                    prop_assert!(!a.dominates(&b) && !b.dominates(&a));
                }
            }
        }

        /// The wire codec is lossless on arbitrary record batches —
        /// including the trace id, which the TCP backend and the WAL must
        /// carry.
        #[test]
        fn wire_roundtrips_arbitrary_record_batches(
            batch in proptest::collection::vec((0u64..1 << 40, arb_record()), 0..16),
        ) {
            let entries: Vec<Entry> =
                batch.into_iter().map(|(l, r)| Entry::new(LId(l), r)).collect();
            let buf = wire::encode_to_vec(&entries);
            let back: Vec<Entry> =
                wire::decode_exact(bytes::Bytes::from(buf)).expect("decodes");
            prop_assert_eq!(back.len(), entries.len());
            for (b, e) in back.iter().zip(entries.iter()) {
                prop_assert_eq!(b, e);
                prop_assert_eq!(b.record.trace, e.record.trace);
            }
        }

        /// The table-sliced CRC-32 is the bitwise IEEE definition on
        /// buffers of any content and length.
        #[test]
        fn crc32_agrees_with_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..=64 * 1024),
        ) {
            prop_assert_eq!(crc32(&data), wire::crc32_bitwise(&data));
        }

        /// Decoding arbitrary garbage never panics; it either produces a
        /// value or rejects cleanly.
        #[test]
        fn wire_decode_of_garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut r = WireReader::new(bytes::Bytes::from(raw));
            let _ = Vec::<Entry>::decode(&mut r);
        }

        /// ReadRule::apply with MostRecent(n) returns at most n entries in
        /// strictly descending LId order, and they are exactly the top
        /// matches.
        #[test]
        fn most_recent_is_sorted_suffix(lids in proptest::collection::btree_set(0u64..200, 0..40), n in 1usize..10) {
            use bytes::Bytes;
            let entries: Vec<Entry> = lids.iter().map(|&l| Entry::new(
                LId(l),
                Record::new(
                    RecordId::new(DatacenterId(0), TOId(l + 1)),
                    VersionVector::new(1),
                    TagSet::new(),
                    Bytes::new(),
                ),
            )).collect();
            let rule = ReadRule::all().most_recent(n);
            let hits = rule.apply(entries.iter());
            prop_assert!(hits.len() <= n);
            prop_assert!(hits.windows(2).all(|w| w[0].lid > w[1].lid));
            let expected: Vec<LId> = lids.iter().rev().take(n).map(|&l| LId(l)).collect();
            let got: Vec<LId> = hits.iter().map(|e| e.lid).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
