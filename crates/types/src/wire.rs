//! The one byte encoding of the data model: what a TCP hop carries and
//! what the WAL, the checkpoints and the archive hold.
//!
//! The simnet substrate moves values between stages by `Send`ing them over
//! crossbeam channels — no bytes, no copies. The real TCP backend needs an
//! on-wire form, a maintainer an on-disk one, and they are the same; this
//! module is that codec: a tiny, explicit
//! [`Wire`] trait (length-delimited little-endian fields, no reflection,
//! no external serialization framework) plus the [`WireReader`] cursor
//! that decodes from a refcounted [`Bytes`] buffer so record **bodies are
//! sliced out of the receive buffer without copying**.
//!
//! Design rules:
//!
//! - `encode` is infallible and appends to a caller-owned `Vec<u8>` — the
//!   transport reuses one buffer per connection, so the hot path does one
//!   serialization and no intermediate allocations.
//! - `decode` is total: any byte sequence either yields a value or `None`.
//!   Decoders never panic, never over-read, and cap length prefixes against
//!   the bytes actually remaining, so a corrupt length cannot drive an
//!   allocation bomb.
//! - Variable-length payloads ([`Bytes`]) decode as zero-copy slices of
//!   the backing buffer (`Bytes::slice`), which is what keeps the TCP
//!   receive path at zero intermediate copies of record bodies.
//!
//! The frame layer (length prefix + CRC, torn-frame reassembly) lives in
//! `chariots-simnet::transport`, for sockets and files alike; this module
//! only defines payload bytes — and the CRC-32, which the frames and the
//! WAL's segment headers share.

use bytes::Bytes;

use crate::causality::VersionVector;
use crate::error::ChariotsError;
use crate::ids::{
    ClientId, DatacenterId, Epoch, Generation, LId, MaintainerId, RecordId, TOId, TraceId,
};
use crate::record::{Entry, Record, Tag, TagSet, TagValue};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup tables
/// for slicing-by-8, built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes, which lets eight input bytes be folded
/// with eight independent lookups instead of a chain of eight.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the IEEE CRC-32 checksum of `data` (the frame header's, on
/// sockets and on disk, and the WAL segment headers'). Table-sliced: eight bytes per step, then the tail a
/// byte at a time. The value is that of the plain bit-at-a-time
/// definition for every input, so nothing on disk or on the wire depends
/// on how it is computed.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The definition [`crc32`] must agree with, a bit at a time and with no
/// table: the reference of the differential tests.
#[cfg(test)]
pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// Decoding cursor over a refcounted byte buffer.
///
/// Fixed-width reads copy out of the buffer; [`WireReader::take_bytes`]
/// returns a zero-copy [`Bytes`] slice sharing the backing allocation —
/// the receive path hands each decoded record body a view into the
/// connection's frame, not a fresh allocation.
#[derive(Debug, Clone)]
pub struct WireReader {
    data: Bytes,
    pos: usize,
}

impl WireReader {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: Bytes) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the reader is exhausted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn chunk(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.chunk(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.chunk(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.chunk(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.chunk(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// Takes `n` bytes as a zero-copy slice of the backing buffer.
    pub fn take_bytes(&mut self, n: usize) -> Option<Bytes> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = self.data.slice(self.pos..end);
        self.pos = end;
        Some(s)
    }

    /// Reads a `u32` length prefix, bounded by the bytes remaining (a
    /// corrupt length fails cleanly instead of driving a huge allocation).
    pub fn len_prefix(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return None;
        }
        Some(n)
    }

    /// Reads a `u32` count prefix for a sequence of items each at least
    /// `min_item_bytes` wide — rejects counts the remaining bytes cannot
    /// possibly satisfy, so `Vec` preallocation stays bounded.
    pub fn count_prefix(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_item_bytes.max(1))? > self.remaining() {
            return None;
        }
        Some(n)
    }
}

/// A value with a byte-level wire form.
///
/// Implementations come in matched pairs: `decode(encode(v)) == Some(v)`
/// for every value, and `decode` of arbitrary bytes never panics.
pub trait Wire: Sized {
    /// Appends the wire form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value, consuming its bytes from `r`. `None` means the
    /// bytes are malformed or truncated; the reader position is then
    /// unspecified and the whole message must be discarded.
    fn decode(r: &mut WireReader) -> Option<Self>;
}

/// Encodes `value` into a fresh buffer (convenience for tests and
/// single-shot messages; the transport hot path reuses buffers instead).
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes one `T` from `data`, requiring every byte to be consumed.
pub fn decode_exact<T: Wire>(data: Bytes) -> Option<T> {
    let mut r = WireReader::new(data);
    let v = T::decode(&mut r)?;
    if r.is_empty() {
        Some(v)
    } else {
        None
    }
}

macro_rules! wire_le_int {
    ($($t:ty => $read:ident),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader) -> Option<Self> {
                r.$read()
            }
        }
    )*};
}

wire_le_int!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, i64 => i64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

// usize crosses the wire as u64 so 32- and 64-bit peers agree.
impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        buf.extend_from_slice(self);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let n = r.len_prefix()?;
        r.take_bytes(n)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let n = r.len_prefix()?;
        let raw = r.take_bytes(n)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let n = r.count_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

macro_rules! wire_newtype {
    ($($t:ident($inner:ty)),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut WireReader) -> Option<Self> {
                Some($t(<$inner>::decode(r)?))
            }
        }
    )*};
}

wire_newtype!(
    DatacenterId(u16),
    LId(u64),
    TOId(u64),
    MaintainerId(u16),
    Generation(u64),
    ClientId(u32),
    Epoch(u32),
    TraceId(u64),
);

impl Wire for RecordId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.host.encode(buf);
        self.toid.encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(RecordId {
            host: DatacenterId::decode(r)?,
            toid: TOId::decode(r)?,
        })
    }
}

impl Wire for TagValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TagValue::Int(i) => {
                buf.push(0);
                i.encode(buf);
            }
            TagValue::Str(s) => {
                buf.push(1);
                s.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(TagValue::Int(i64::decode(r)?)),
            1 => Some(TagValue::Str(String::decode(r)?)),
            _ => None,
        }
    }
}

impl Wire for Tag {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        self.value.encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(Tag {
            key: String::decode(r)?,
            value: Option::<TagValue>::decode(r)?,
        })
    }
}

impl Wire for TagSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for t in self.iter() {
            t.encode(buf);
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let n = r.count_prefix(1)?;
        let mut tags = Vec::with_capacity(n);
        for _ in 0..n {
            tags.push(Tag::decode(r)?);
        }
        Some(TagSet::from_tags(tags))
    }
}

impl Wire for VersionVector {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for (_, t) in self.iter() {
            t.encode(buf);
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let n = r.count_prefix(8)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(TOId::decode(r)?);
        }
        Some(VersionVector::from_entries(entries))
    }
}

impl Wire for Record {
    // The wire form carries the trace id: the TCP backend must preserve
    // sampled-trace continuity across hops exactly as the in-process
    // channels do, and the WAL across a restart.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.deps.encode(buf);
        self.tags.encode(buf);
        self.body.encode(buf);
        self.trace.encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        let id = RecordId::decode(r)?;
        let deps = VersionVector::decode(r)?;
        let tags = TagSet::decode(r)?;
        let body = Bytes::decode(r)?;
        let trace = Option::<TraceId>::decode(r)?;
        Some(Record::new(id, deps, tags, body).with_trace(trace))
    }
}

impl Wire for Entry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.lid.encode(buf);
        self.record.encode(buf);
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(Entry {
            lid: LId::decode(r)?,
            record: Record::decode(r)?,
        })
    }
}

impl Wire for ChariotsError {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ChariotsError::NotYetAvailable(lid) => {
                buf.push(0);
                lid.encode(buf);
            }
            ChariotsError::GarbageCollected(lid) => {
                buf.push(1);
                lid.encode(buf);
            }
            ChariotsError::WrongMaintainer { asked, owner, lid } => {
                buf.push(2);
                asked.encode(buf);
                owner.encode(buf);
                lid.encode(buf);
            }
            ChariotsError::DuplicateRecord(id) => {
                buf.push(3);
                id.encode(buf);
            }
            ChariotsError::Fenced {
                group,
                sent,
                current,
            } => {
                buf.push(4);
                group.encode(buf);
                sent.encode(buf);
                current.encode(buf);
            }
            ChariotsError::NoLivePrimary(group) => {
                buf.push(5);
                group.encode(buf);
            }
            ChariotsError::Unavailable(s) => {
                buf.push(6);
                s.encode(buf);
            }
            ChariotsError::Overloaded(s) => {
                buf.push(7);
                s.encode(buf);
            }
            ChariotsError::UnknownDatacenter(dc) => {
                buf.push(8);
                dc.encode(buf);
            }
            ChariotsError::InvalidConfig(s) => {
                buf.push(9);
                s.encode(buf);
            }
            ChariotsError::QuorumLost {
                group,
                required,
                durable,
            } => {
                buf.push(10);
                group.encode(buf);
                required.encode(buf);
                durable.encode(buf);
            }
            ChariotsError::ShutDown => buf.push(11),
            ChariotsError::Storage(s) => {
                buf.push(12);
                s.encode(buf);
            }
            ChariotsError::Transport(s) => {
                buf.push(13);
                s.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        Some(match r.u8()? {
            0 => ChariotsError::NotYetAvailable(LId::decode(r)?),
            1 => ChariotsError::GarbageCollected(LId::decode(r)?),
            2 => ChariotsError::WrongMaintainer {
                asked: MaintainerId::decode(r)?,
                owner: MaintainerId::decode(r)?,
                lid: LId::decode(r)?,
            },
            3 => ChariotsError::DuplicateRecord(RecordId::decode(r)?),
            4 => ChariotsError::Fenced {
                group: MaintainerId::decode(r)?,
                sent: Generation::decode(r)?,
                current: Generation::decode(r)?,
            },
            5 => ChariotsError::NoLivePrimary(MaintainerId::decode(r)?),
            6 => ChariotsError::Unavailable(String::decode(r)?),
            7 => ChariotsError::Overloaded(String::decode(r)?),
            8 => ChariotsError::UnknownDatacenter(DatacenterId::decode(r)?),
            9 => ChariotsError::InvalidConfig(String::decode(r)?),
            10 => ChariotsError::QuorumLost {
                group: MaintainerId::decode(r)?,
                required: usize::decode(r)?,
                durable: usize::decode(r)?,
            },
            11 => ChariotsError::ShutDown,
            12 => ChariotsError::Storage(String::decode(r)?),
            13 => ChariotsError::Transport(String::decode(r)?),
            _ => return None,
        })
    }
}

impl<T: Wire> Wire for std::result::Result<T, ChariotsError> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Err(e) => {
                buf.push(1);
                e.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(Ok(T::decode(r)?)),
            1 => Some(Err(ChariotsError::decode(r)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode_to_vec(&v);
        let back: T = decode_exact(Bytes::from(buf)).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length that exercises the eight-byte steps, the tail, and
    /// the hand-over between them, at every alignment of the input.
    #[test]
    fn crc32_agrees_with_the_bitwise_definition_at_every_length_and_offset() {
        let backing: Vec<u8> = (0..64 + 8)
            .map(|i: u32| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &backing[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "{len} bytes at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(usize::MAX);
        roundtrip(String::from("héllo"));
        roundtrip(Bytes::from_static(b"body"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(LId(9)));
        roundtrip(vec![TOId(1), TOId(2)]);
        roundtrip((TOId(3), LId(4)));
    }

    #[test]
    fn record_and_entry_roundtrip_with_trace() {
        let record = Record::new(
            RecordId::new(DatacenterId(2), TOId(7)),
            VersionVector::from_entries(vec![TOId(1), TOId(0), TOId(3)]),
            TagSet::new()
                .with(Tag::key("put"))
                .with(Tag::with_value("seq", 42i64))
                .with(Tag::with_value("user", "u9")),
            Bytes::from_static(b"payload bytes"),
        )
        .with_trace(Some(TraceId(77)));
        let buf = encode_to_vec(&record);
        let back: Record = decode_exact(Bytes::from(buf)).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.trace, Some(TraceId(77)), "trace survives the wire");
        roundtrip(Entry::new(LId(11), record));
    }

    #[test]
    fn entry_body_decodes_zero_copy() {
        let record = Record::new(
            RecordId::new(DatacenterId(0), TOId(1)),
            VersionVector::new(1),
            TagSet::new(),
            Bytes::from(vec![7u8; 64]),
        );
        let frame = Bytes::from(encode_to_vec(&Entry::new(LId(0), record)));
        let back: Entry = decode_exact(frame.clone()).unwrap();
        // The decoded body points into the frame allocation, not a copy.
        let body_ptr = back.record.body.as_ptr() as usize;
        let frame_ptr = frame.as_ptr() as usize;
        assert!(
            body_ptr >= frame_ptr && body_ptr < frame_ptr + frame.len(),
            "body must be a zero-copy slice of the frame"
        );
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let variants = vec![
            ChariotsError::NotYetAvailable(LId(1)),
            ChariotsError::GarbageCollected(LId(2)),
            ChariotsError::WrongMaintainer {
                asked: MaintainerId(0),
                owner: MaintainerId(3),
                lid: LId(8),
            },
            ChariotsError::DuplicateRecord(RecordId::new(DatacenterId(1), TOId(2))),
            ChariotsError::Fenced {
                group: MaintainerId(1),
                sent: Generation(2),
                current: Generation(3),
            },
            ChariotsError::NoLivePrimary(MaintainerId(2)),
            ChariotsError::Unavailable("m0".into()),
            ChariotsError::Overloaded("q1".into()),
            ChariotsError::UnknownDatacenter(DatacenterId(9)),
            ChariotsError::InvalidConfig("bad".into()),
            ChariotsError::QuorumLost {
                group: MaintainerId(0),
                required: 2,
                durable: 1,
            },
            ChariotsError::ShutDown,
            ChariotsError::Storage("disk".into()),
            ChariotsError::Transport("connection reset".into()),
        ];
        for v in variants {
            roundtrip(v);
        }
        roundtrip::<Result<LId, ChariotsError>>(Err(ChariotsError::ShutDown));
        roundtrip(Ok::<_, ChariotsError>(vec![(TOId(1), LId(2))]));
    }

    #[test]
    fn truncated_and_corrupt_inputs_decode_to_none() {
        let record = Record::new(
            RecordId::new(DatacenterId(2), TOId(7)),
            VersionVector::from_entries(vec![TOId(1)]),
            TagSet::new().with(Tag::with_value("k", "v")),
            Bytes::from_static(b"abc"),
        );
        let full = encode_to_vec(&record);
        // Every strict prefix is rejected, never panics.
        for cut in 0..full.len() {
            let mut r = WireReader::new(Bytes::copy_from_slice(&full[..cut]));
            assert!(Record::decode(&mut r).is_none(), "prefix of {cut} bytes");
        }
        // A corrupt length prefix cannot drive a huge allocation.
        let mut bomb = Vec::new();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = WireReader::new(Bytes::from(bomb));
        assert!(Vec::<Entry>::decode(&mut r).is_none());
    }
}
