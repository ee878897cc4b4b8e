//! In-memory segmented storage of one maintainer's partial log.
//!
//! A maintainer's owned slots form a dense *local index* space (0, 1, 2, …)
//! that the [`RangeMap`](crate::range::RangeMap) maps to global `LId`s.
//! Slots are stored in fixed-size segments so that garbage collection can
//! drop whole segments from the front without shifting anything.
//!
//! Within a single-datacenter FLStore deployment the maintainer fills its
//! slots strictly in order, but under Chariots the queues stage routes
//! already-assigned records to maintainers over the network, so slots may
//! fill *out of order*; the store tracks the contiguous filled prefix, which
//! feeds the Head-of-Log gossip (§5.4).

use std::collections::VecDeque;

use chariots_types::{ChariotsError, Entry, Result};

/// Entries per segment. Small enough that GC is granular, large enough that
/// the per-segment overhead is negligible.
const DEFAULT_SEGMENT_SIZE: usize = 1024;

#[derive(Debug)]
struct Segment {
    /// Local index of slot 0 of this segment.
    base: u64,
    slots: Vec<Option<Entry>>,
    filled: usize,
}

impl Segment {
    fn new(base: u64, size: usize) -> Self {
        Segment {
            base,
            slots: vec![None; size],
            filled: 0,
        }
    }
}

/// Segmented storage of one maintainer's partial log, indexed by local index.
#[derive(Debug)]
pub struct SegmentStore {
    segment_size: usize,
    /// Live segments; `segments[0].base == first_base`.
    segments: VecDeque<Segment>,
    /// Local index of the first live (non-GC'd) segment's base.
    first_base: u64,
    /// All slots `< filled_prefix` are filled (or were, before GC).
    filled_prefix: u64,
    /// Total filled slots currently live.
    len: u64,
    /// Slots `< gc_floor` were garbage-collected.
    gc_floor: u64,
    /// Payload bytes (record bodies) of live entries. GC must drive this
    /// down — it is the signal that collected memory was actually freed.
    resident_bytes: u64,
}

impl Default for SegmentStore {
    fn default() -> Self {
        SegmentStore::new(DEFAULT_SEGMENT_SIZE)
    }
}

impl SegmentStore {
    /// Creates a store with the given segment size.
    pub fn new(segment_size: usize) -> Self {
        assert!(segment_size > 0);
        SegmentStore {
            segment_size,
            segments: VecDeque::new(),
            first_base: 0,
            filled_prefix: 0,
            len: 0,
            gc_floor: 0,
            resident_bytes: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last local index of the contiguous filled prefix: every
    /// slot below this was filled at some point. This is the maintainer's
    /// contribution to the Head-of-Log computation.
    pub fn filled_prefix(&self) -> u64 {
        self.filled_prefix
    }

    /// Local indexes below this were garbage-collected.
    pub fn gc_floor(&self) -> u64 {
        self.gc_floor
    }

    /// Payload bytes of live entries resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    fn segment_mut(&mut self, local_idx: u64) -> &mut Segment {
        let seg_base = local_idx / self.segment_size as u64 * self.segment_size as u64;
        if self.segments.is_empty() {
            self.first_base = seg_base;
            self.segments
                .push_back(Segment::new(seg_base, self.segment_size));
        }
        // Out-of-order inserts may land before the first materialized
        // segment (but never below the GC floor, checked by the caller).
        while self.first_base > seg_base {
            self.first_base -= self.segment_size as u64;
            self.segments
                .push_front(Segment::new(self.first_base, self.segment_size));
        }
        // Extend forward as needed.
        while self.segments.back().expect("nonempty").base < seg_base {
            let next_base = self.segments.back().unwrap().base + self.segment_size as u64;
            self.segments
                .push_back(Segment::new(next_base, self.segment_size));
        }
        let seg_idx = ((seg_base - self.first_base) / self.segment_size as u64) as usize;
        &mut self.segments[seg_idx]
    }

    fn segment(&self, local_idx: u64) -> Option<&Segment> {
        if local_idx < self.first_base {
            return None;
        }
        let seg_idx = ((local_idx - self.first_base) / self.segment_size as u64) as usize;
        self.segments.get(seg_idx)
    }

    /// Inserts `entry` at `local_idx`.
    ///
    /// Inserting below the GC floor or into an occupied slot is an error
    /// (duplicate incorporation must be caught by the filters upstream; at
    /// this layer it indicates a protocol bug).
    pub fn insert(&mut self, local_idx: u64, entry: Entry) -> Result<()> {
        if local_idx < self.gc_floor {
            return Err(ChariotsError::GarbageCollected(entry.lid));
        }
        let size = self.segment_size as u64;
        let seg = self.segment_mut(local_idx);
        let slot = (local_idx % size) as usize;
        if seg.slots[slot].is_some() {
            return Err(ChariotsError::DuplicateRecord(entry.id()));
        }
        let body_bytes = entry.record.body.len() as u64;
        seg.slots[slot] = Some(entry);
        seg.filled += 1;
        self.len += 1;
        self.resident_bytes += body_bytes;
        // Advance the contiguous prefix over newly filled slots.
        while self.get(self.filled_prefix).is_some() {
            self.filled_prefix += 1;
        }
        Ok(())
    }

    /// Inserts `entry` at `local_idx`, replacing any occupant (replication
    /// repair: the copy stamped by the current generation wins). Returns
    /// whether the slot was previously empty. Inserting below the GC floor
    /// is still an error — collected data is gone on every replica.
    pub fn insert_or_replace(&mut self, local_idx: u64, entry: Entry) -> Result<bool> {
        if local_idx < self.gc_floor {
            return Err(ChariotsError::GarbageCollected(entry.lid));
        }
        let size = self.segment_size as u64;
        let body_bytes = entry.record.body.len() as u64;
        let seg = self.segment_mut(local_idx);
        let slot = (local_idx % size) as usize;
        let was_empty = seg.slots[slot].is_none();
        let old = seg.slots[slot].replace(entry);
        if was_empty {
            seg.filled += 1;
        }
        if let Some(old) = old {
            self.resident_bytes -= old.record.body.len() as u64;
        }
        self.resident_bytes += body_bytes;
        if was_empty {
            self.len += 1;
            while self.get(self.filled_prefix).is_some() {
                self.filled_prefix += 1;
            }
        }
        Ok(was_empty)
    }

    /// The entry at `local_idx`, if present and not GC'd.
    pub fn get(&self, local_idx: u64) -> Option<&Entry> {
        let seg = self.segment(local_idx)?;
        seg.slots[(local_idx % self.segment_size as u64) as usize].as_ref()
    }

    /// Whether `local_idx` was garbage-collected.
    pub fn is_collected(&self, local_idx: u64) -> bool {
        local_idx < self.gc_floor
    }

    /// Iterates live entries in local-index order starting at `from`.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &Entry)> {
        self.segments.iter().flat_map(move |seg| {
            seg.slots.iter().enumerate().filter_map(move |(i, slot)| {
                let idx = seg.base + i as u64;
                if idx < from {
                    return None;
                }
                slot.as_ref().map(|e| (idx, e))
            })
        })
    }

    /// Iterates all live entries in local-index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Entry)> {
        self.iter_from(0)
    }

    /// Garbage-collects every slot below `local_idx`: whole segments fully
    /// below the floor are freed; a partially-collected segment keeps its
    /// storage but its collected slots read as absent.
    pub fn gc_before(&mut self, local_idx: u64) {
        if local_idx <= self.gc_floor {
            return;
        }
        self.gc_floor = local_idx;
        // Drop whole segments below the floor, releasing their payloads.
        while let Some(front) = self.segments.front() {
            if front.base + self.segment_size as u64 <= local_idx {
                let seg = self.segments.pop_front().expect("front exists");
                self.len -= seg.filled as u64;
                for entry in seg.slots.into_iter().flatten() {
                    self.resident_bytes -= entry.record.body.len() as u64;
                }
                self.first_base = seg.base + self.segment_size as u64;
            } else {
                break;
            }
        }
        // Null out collected slots of the (at most one) straddling segment.
        if let Some(front) = self.segments.front_mut() {
            if front.base < local_idx {
                let upto = (local_idx - front.base) as usize;
                for slot in front.slots[..upto].iter_mut() {
                    if let Some(entry) = slot.take() {
                        front.filled -= 1;
                        self.len -= 1;
                        self.resident_bytes -= entry.record.body.len() as u64;
                    }
                }
            }
        }
        // Release the VecDeque's spare capacity once a GC pass has drained
        // segments: without this, a long-lived store that GC'd most of its
        // history still pins the high-water-mark allocation.
        if self.segments.capacity() > 2 * self.segments.len().max(1) {
            self.segments.shrink_to_fit();
        }
        if self.filled_prefix < self.gc_floor {
            self.filled_prefix = self.gc_floor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_types::{DatacenterId, LId, Record, RecordId, TOId, TagSet, VersionVector};

    fn entry(lid: u64) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(0), TOId(lid + 1)),
                VersionVector::new(1),
                TagSet::new(),
                Bytes::from_static(b"x"),
            ),
        )
    }

    #[test]
    fn insert_and_get() {
        let mut s = SegmentStore::new(4);
        s.insert(0, entry(0)).unwrap();
        s.insert(1, entry(10)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0).unwrap().lid, LId(0));
        assert_eq!(s.get(1).unwrap().lid, LId(10));
        assert!(s.get(2).is_none());
    }

    #[test]
    fn double_insert_is_rejected() {
        let mut s = SegmentStore::new(4);
        s.insert(0, entry(0)).unwrap();
        assert!(matches!(
            s.insert(0, entry(0)),
            Err(ChariotsError::DuplicateRecord(_))
        ));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_or_replace_overwrites_without_double_count() {
        let mut s = SegmentStore::new(4);
        assert!(s.insert_or_replace(0, entry(0)).unwrap());
        assert!(!s.insert_or_replace(0, entry(0)).unwrap());
        assert_eq!(s.len(), 1);
        assert_eq!(s.filled_prefix(), 1);
        s.gc_before(1);
        assert!(matches!(
            s.insert_or_replace(0, entry(0)),
            Err(ChariotsError::GarbageCollected(_))
        ));
    }

    #[test]
    fn filled_prefix_tracks_contiguity() {
        let mut s = SegmentStore::new(4);
        assert_eq!(s.filled_prefix(), 0);
        s.insert(0, entry(0)).unwrap();
        assert_eq!(s.filled_prefix(), 1);
        s.insert(2, entry(2)).unwrap(); // gap at 1
        assert_eq!(s.filled_prefix(), 1);
        s.insert(1, entry(1)).unwrap(); // gap closes; prefix jumps past 2
        assert_eq!(s.filled_prefix(), 3);
    }

    #[test]
    fn out_of_order_fill_across_segments() {
        let mut s = SegmentStore::new(2);
        s.insert(5, entry(5)).unwrap();
        s.insert(0, entry(0)).unwrap();
        assert_eq!(s.get(5).unwrap().lid, LId(5));
        assert_eq!(s.filled_prefix(), 1);
        for i in 1..5 {
            s.insert(i, entry(i)).unwrap();
        }
        assert_eq!(s.filled_prefix(), 6);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn iter_is_ordered_and_skips_gaps() {
        let mut s = SegmentStore::new(2);
        for i in [3u64, 0, 5] {
            s.insert(i, entry(i)).unwrap();
        }
        let idxs: Vec<u64> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 3, 5]);
        let from2: Vec<u64> = s.iter_from(2).map(|(i, _)| i).collect();
        assert_eq!(from2, vec![3, 5]);
    }

    #[test]
    fn gc_drops_whole_segments_and_partial_slots() {
        let mut s = SegmentStore::new(2);
        for i in 0..6 {
            s.insert(i, entry(i)).unwrap();
        }
        s.gc_before(3); // segment [0,1] freed entirely; slot 2 nulled
        assert_eq!(s.gc_floor(), 3);
        assert!(s.is_collected(2));
        assert!(!s.is_collected(3));
        assert!(s.get(0).is_none());
        assert!(s.get(2).is_none());
        assert_eq!(s.get(3).unwrap().lid, LId(3));
        assert_eq!(s.len(), 3);
        // Inserting below the floor is an error.
        assert!(matches!(
            s.insert(1, entry(1)),
            Err(ChariotsError::GarbageCollected(_))
        ));
    }

    #[test]
    fn gc_is_monotone() {
        let mut s = SegmentStore::new(2);
        for i in 0..4 {
            s.insert(i, entry(i)).unwrap();
        }
        s.gc_before(3);
        s.gc_before(1); // no-op: floor never regresses
        assert_eq!(s.gc_floor(), 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn gc_then_insert_beyond_floor_works() {
        let mut s = SegmentStore::new(2);
        for i in 0..4 {
            s.insert(i, entry(i)).unwrap();
        }
        s.gc_before(4);
        assert_eq!(s.len(), 0);
        s.insert(4, entry(4)).unwrap();
        assert_eq!(s.get(4).unwrap().lid, LId(4));
        assert_eq!(s.filled_prefix(), 5);
    }

    #[test]
    fn gc_releases_resident_payload_bytes() {
        let mut s = SegmentStore::new(2);
        let body = vec![7u8; 512];
        for i in 0..8 {
            s.insert(
                i,
                Entry::new(
                    LId(i),
                    Record::new(
                        RecordId::new(DatacenterId(0), TOId(i + 1)),
                        VersionVector::new(1),
                        TagSet::new(),
                        Bytes::from(body.clone()),
                    ),
                ),
            )
            .unwrap();
        }
        let full = s.resident_bytes();
        assert_eq!(full, 8 * 512);
        // GC of a prefix (whole segments plus a straddling slot) must
        // actually release the collected payload memory.
        s.gc_before(5);
        assert_eq!(s.resident_bytes(), 3 * 512);
        // Replacement swaps the accounting, it doesn't leak the old body.
        s.insert_or_replace(
            6,
            Entry::new(
                LId(6),
                Record::new(
                    RecordId::new(DatacenterId(0), TOId(100)),
                    VersionVector::new(1),
                    TagSet::new(),
                    Bytes::from_static(b"tiny"),
                ),
            ),
        )
        .unwrap();
        assert_eq!(s.resident_bytes(), 2 * 512 + 4);
        s.gc_before(8);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn prefix_never_below_gc_floor() {
        let mut s = SegmentStore::new(2);
        s.insert(0, entry(0)).unwrap();
        s.gc_before(2); // collected past the filled prefix
        assert_eq!(s.filled_prefix(), 2);
    }
}
