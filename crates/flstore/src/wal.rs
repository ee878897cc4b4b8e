//! Write-ahead persistence for log maintainers: a segmented, compactable
//! storage engine.
//!
//! Maintainers "are responsible for persisting the log's records" (§5.2).
//! Each maintainer owns one WAL, stored as a sequence of numbered *segment
//! files* (`<base>.000000`, `<base>.000001`, …). The active segment is
//! append-only; once it reaches `segment_bytes` it is *sealed* (its header
//! is stamped with the first/last LId, frame count, and a header CRC) and a
//! new segment starts. Sealed segments are immutable except for two
//! whole-file operations:
//!
//! - **Compaction** ([`Wal::compact`]): a sealed segment whose estimated
//!   live ratio fell below the configured threshold is rewritten without
//!   its dead (garbage-collected / archived) frames and atomically swapped
//!   in; a fully dead segment is deleted outright.
//! - **Truncation** ([`Wal::truncate_below`]): segments wholly covered by a
//!   durable checkpoint are deleted.
//!
//! Frames are length-prefixed and CRC-32 protected; recovery streams
//! frames segment by segment. A torn or corrupt frame ends replay of the
//! *final* segment (a crash mid-write); in an earlier segment it skips to
//! the next segment, because a later segment can only exist if the WAL was
//! reopened after that tear — everything past it was never acked.
//!
//! The codec is hand-rolled: the format is tiny, stable, and has no reason
//! to pull a serialization framework into the storage path.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use chariots_types::{
    ChariotsError, DatacenterId, Entry, LId, Record, RecordId, Result, TOId, Tag, TagSet, TagValue,
    VersionVector,
};

/// Default rotation threshold for one segment file.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

// The CRC-32 implementation moved to `chariots_types::wire` so WAL frames
// and transport frames share one checksum; re-exported to keep `wal::crc32`
// callers working.
pub use chariots_types::crc32;

fn io_err(e: std::io::Error) -> ChariotsError {
    ChariotsError::Storage(e.to_string())
}

/// Serializes one entry into the WAL payload format.
pub(crate) fn encode_entry(entry: &Entry, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&entry.lid.0.to_le_bytes());
    buf.extend_from_slice(&entry.record.host().0.to_le_bytes());
    buf.extend_from_slice(&entry.record.toid().0.to_le_bytes());

    let deps: Vec<u64> = entry.record.deps.iter().map(|(_, t)| t.0).collect();
    buf.extend_from_slice(&(deps.len() as u16).to_le_bytes());
    for d in deps {
        buf.extend_from_slice(&d.to_le_bytes());
    }

    buf.extend_from_slice(&(entry.record.tags.len() as u16).to_le_bytes());
    for tag in entry.record.tags.iter() {
        buf.extend_from_slice(&(tag.key.len() as u16).to_le_bytes());
        buf.extend_from_slice(tag.key.as_bytes());
        match &tag.value {
            None => buf.push(0),
            Some(TagValue::Int(i)) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Some(TagValue::Str(s)) => {
                buf.push(2);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }

    buf.extend_from_slice(&(entry.record.body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&entry.record.body);
}

/// Cursor-based reader over a decoded payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }
}

/// Deserializes one entry from a WAL payload. Returns `None` on any
/// malformation (the caller treats it as a torn tail).
pub(crate) fn decode_entry(payload: &[u8]) -> Option<Entry> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let lid = LId(c.u64()?);
    let host = DatacenterId(c.u16()?);
    let toid = TOId(c.u64()?);

    let deps_len = c.u16()? as usize;
    let mut deps = Vec::with_capacity(deps_len);
    for _ in 0..deps_len {
        deps.push(TOId(c.u64()?));
    }

    let tag_count = c.u16()? as usize;
    let mut tags = TagSet::new();
    for _ in 0..tag_count {
        let key_len = c.u16()? as usize;
        let key = std::str::from_utf8(c.take(key_len)?).ok()?.to_owned();
        let value = match *c.take(1)?.first()? {
            0 => None,
            1 => Some(TagValue::Int(c.i64()?)),
            2 => {
                let len = c.u32()? as usize;
                Some(TagValue::Str(
                    std::str::from_utf8(c.take(len)?).ok()?.to_owned(),
                ))
            }
            _ => return None,
        };
        tags.push(Tag { key, value });
    }

    let body_len = c.u32()? as usize;
    let body = Bytes::copy_from_slice(c.take(body_len)?);
    if c.pos != payload.len() {
        return None; // trailing garbage
    }
    Some(Entry::new(
        lid,
        Record::new(
            RecordId::new(host, toid),
            VersionVector::from_entries(deps),
            tags,
            body,
        ),
    ))
}

/// Frame length cap against absurd lengths from a corrupt header.
const MAX_FRAME_LEN: usize = 1 << 30;

/// Writes one `[len][crc][payload]` frame; returns the bytes written.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<u64> {
    let crc = crc32(payload);
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|_| w.write_all(&crc.to_le_bytes()))
        .and_then(|_| w.write_all(payload))
        .map_err(io_err)?;
    Ok(8 + payload.len() as u64)
}

/// Outcome of attempting to read one frame.
pub(crate) enum FrameStep {
    /// An intact frame: the decoded entry and its on-disk size in bytes.
    Entry(Box<Entry>, u64),
    /// Clean end of file.
    Eof,
    /// A torn, corrupt, or undecodable frame: replay must not proceed
    /// past this point within the current file.
    Invalid,
}

/// Reads one frame from `r`, validating length, CRC, and decodability.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<FrameStep> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(r, &mut header) {
        Ok(true) => {}
        Ok(false) => return Ok(FrameStep::Eof),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Ok(FrameStep::Invalid);
    }
    let mut payload = vec![0u8; len];
    match r.read_exact(&mut payload) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Ok(FrameStep::Invalid); // torn tail
        }
        Err(e) => return Err(io_err(e)),
    }
    if crc32(&payload) != crc {
        return Ok(FrameStep::Invalid);
    }
    match decode_entry(&payload) {
        Some(entry) => Ok(FrameStep::Entry(Box::new(entry), 8 + len as u64)),
        None => Ok(FrameStep::Invalid),
    }
}

/// Reads exactly `buf.len()` bytes, returning `Ok(false)` on a clean EOF at
/// offset zero of the read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(io_err(e)),
    }
}

// ---------------------------------------------------------------------------
// Segment headers
// ---------------------------------------------------------------------------

const SEG_MAGIC: [u8; 4] = *b"CSEG";
const SEG_VERSION: u16 = 1;
const SEG_FLAG_SEALED: u16 = 1;
/// Fixed on-disk size of a segment header.
pub const SEG_HEADER_LEN: u64 = 48;

/// Decoded per-segment header: identity plus seal-time metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegHeader {
    sealed: bool,
    seq: u64,
    /// `u64::MAX` when the segment holds no frames.
    first_lid: u64,
    last_lid: u64,
    frames: u64,
}

impl SegHeader {
    fn encode(&self) -> [u8; SEG_HEADER_LEN as usize] {
        let mut out = [0u8; SEG_HEADER_LEN as usize];
        out[0..4].copy_from_slice(&SEG_MAGIC);
        out[4..6].copy_from_slice(&SEG_VERSION.to_le_bytes());
        let flags: u16 = if self.sealed { SEG_FLAG_SEALED } else { 0 };
        out[6..8].copy_from_slice(&flags.to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..24].copy_from_slice(&self.first_lid.to_le_bytes());
        out[24..32].copy_from_slice(&self.last_lid.to_le_bytes());
        out[32..40].copy_from_slice(&self.frames.to_le_bytes());
        let crc = crc32(&out[0..40]);
        out[40..44].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<SegHeader> {
        if buf.len() < SEG_HEADER_LEN as usize || buf[0..4] != SEG_MAGIC {
            return None;
        }
        let crc = u32::from_le_bytes([buf[40], buf[41], buf[42], buf[43]]);
        if crc32(&buf[0..40]) != crc {
            return None;
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != SEG_VERSION {
            return None;
        }
        let flags = u16::from_le_bytes([buf[6], buf[7]]);
        let u64_at = |o: usize| {
            u64::from_le_bytes([
                buf[o],
                buf[o + 1],
                buf[o + 2],
                buf[o + 3],
                buf[o + 4],
                buf[o + 5],
                buf[o + 6],
                buf[o + 7],
            ])
        };
        Some(SegHeader {
            sealed: flags & SEG_FLAG_SEALED != 0,
            seq: u64_at(8),
            first_lid: u64_at(16),
            last_lid: u64_at(24),
            frames: u64_at(32),
        })
    }
}

/// Metadata of one on-disk segment, as known to the writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment sequence number; `None` for a legacy (pre-segmentation)
    /// flat WAL file, which sorts before every numbered segment.
    pub seq: Option<u64>,
    /// The backing file.
    pub path: PathBuf,
    /// Total file size in bytes (header included, if any).
    pub bytes: u64,
    /// Smallest LId of any intact frame; `None` when empty.
    pub first_lid: Option<LId>,
    /// Largest LId of any intact frame.
    pub last_lid: Option<LId>,
    /// Intact frames in the segment.
    pub frames: u64,
}

/// A durable position in the WAL: `offset` bytes of frame data into
/// segment `seq` (excluding the segment header). Recovery from a
/// checkpoint resumes replay here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalPosition {
    /// Segment sequence number.
    pub seq: u64,
    /// Frame-data byte offset within the segment (header excluded).
    pub offset: u64,
}

/// Result of one [`Wal::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Sealed segments rewritten in place without their dead frames.
    pub segments_rewritten: u64,
    /// Sealed segments deleted outright (fully dead or empty).
    pub segments_deleted: u64,
    /// Disk bytes reclaimed by this pass.
    pub reclaimed_bytes: u64,
}

impl CompactionStats {
    /// Whether the pass changed anything on disk.
    pub fn is_empty(&self) -> bool {
        self.segments_rewritten == 0 && self.segments_deleted == 0
    }
}

/// Lists the segment files of the WAL at `base`, legacy flat file first,
/// then numbered segments in ascending order. Missing directory ⇒ empty.
fn discover_segments(base: &Path) -> Result<Vec<(Option<u64>, PathBuf)>> {
    let mut out = Vec::new();
    if base.is_file() {
        out.push((None, base.to_path_buf()));
    }
    let Some(parent) = base.parent() else {
        return Ok(out);
    };
    let Some(stem) = base.file_name().and_then(|n| n.to_str()) else {
        return Ok(out);
    };
    let entries = match std::fs::read_dir(parent) {
        Ok(it) => it,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(e)),
    };
    let mut numbered = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(suffix) = name.strip_prefix(stem).and_then(|s| s.strip_prefix('.')) else {
            continue;
        };
        if suffix.len() == 6 && suffix.bytes().all(|b| b.is_ascii_digit()) {
            let seq: u64 = suffix.parse().expect("six digits");
            numbered.push((Some(seq), entry.path()));
        }
    }
    numbered.sort_by_key(|(seq, _)| *seq);
    out.extend(numbered);
    Ok(out)
}

/// Scans one segment file: returns its metadata (valid-prefix frames only)
/// and whether it starts with an intact segment header.
fn scan_segment(seq: Option<u64>, path: &Path) -> Result<(SegmentInfo, bool)> {
    let file = File::open(path).map_err(io_err)?;
    let bytes = file.metadata().map_err(io_err)?.len();
    let mut reader = BufReader::new(file);
    let headered = skip_header(&mut reader)?.is_some();
    let mut info = SegmentInfo {
        seq,
        path: path.to_path_buf(),
        bytes,
        first_lid: None,
        last_lid: None,
        frames: 0,
    };
    loop {
        match read_frame(&mut reader)? {
            FrameStep::Entry(entry, _) => {
                info.first_lid = Some(info.first_lid.map_or(entry.lid, |f| f.min(entry.lid)));
                info.last_lid = Some(info.last_lid.map_or(entry.lid, |l| l.max(entry.lid)));
                info.frames += 1;
            }
            FrameStep::Eof | FrameStep::Invalid => break,
        }
    }
    Ok((info, headered))
}

/// Consumes the segment header if the file starts with an intact one,
/// returning it; otherwise rewinds to offset 0 (legacy/garbled header:
/// the whole file is frame data).
fn skip_header(reader: &mut BufReader<File>) -> Result<Option<SegHeader>> {
    let mut buf = [0u8; SEG_HEADER_LEN as usize];
    let got = read_exact_or_eof(reader, &mut buf)?;
    if got {
        if let Some(h) = SegHeader::decode(&buf) {
            return Ok(Some(h));
        }
    }
    reader.seek(SeekFrom::Start(0)).map_err(io_err)?;
    Ok(None)
}

/// An append-only, CRC-protected, segmented write-ahead log of entries.
#[derive(Debug)]
pub struct Wal {
    base: PathBuf,
    segment_bytes: u64,
    /// Sealed (immutable) segments, oldest first.
    sealed: Vec<SegmentInfo>,
    writer: BufWriter<File>,
    active_seq: u64,
    /// Frame-data bytes written to the active segment (header excluded).
    active_bytes: u64,
    active_frames: u64,
    active_first: Option<LId>,
    active_last: Option<LId>,
    appended: u64,
    synced: u64,
    /// Segments never compacted: they carry the byte offsets of the two
    /// most recent durable checkpoints.
    protected: Vec<u64>,
}

impl Wal {
    /// Opens (creating if absent) the WAL rooted at `base` with the
    /// default segment size.
    pub fn open(base: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(base, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens the WAL rooted at `base`, rotating segments at
    /// `segment_bytes`. Existing segments are scanned (sealed headers are
    /// trusted; the rest get a frame scan), the most recent one is sealed
    /// as-is, and appends start in a fresh segment — so a torn tail from a
    /// crash can never be followed by live frames in the same file.
    pub fn open_with(base: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let base = base.into();
        let segment_bytes = segment_bytes.max(1);
        let mut sealed = Vec::new();
        let mut next_seq = 0u64;
        for (seq, path) in discover_segments(&base)? {
            let info = match read_sealed_header(&path)? {
                Some(h) if seq == Some(h.seq) => SegmentInfo {
                    seq,
                    bytes: std::fs::metadata(&path).map_err(io_err)?.len(),
                    path,
                    first_lid: (h.first_lid != u64::MAX).then_some(LId(h.first_lid)),
                    last_lid: (h.first_lid != u64::MAX).then_some(LId(h.last_lid)),
                    frames: h.frames,
                },
                _ => scan_segment(seq, &path)?.0,
            };
            if let Some(s) = seq {
                next_seq = next_seq.max(s + 1);
            }
            sealed.push(info);
        }
        // Seal the most recent segment in place (if it carries a header):
        // its metadata is now exact and replay can trust it.
        if let Some(last) = sealed.last() {
            if last.seq.is_some() {
                seal_in_place(last)?;
            }
        }
        let (writer, active_seq) = new_active_segment(&base, next_seq)?;
        Ok(Wal {
            base,
            segment_bytes,
            sealed,
            writer,
            active_seq,
            active_bytes: 0,
            active_frames: 0,
            active_first: None,
            active_last: None,
            appended: 0,
            synced: 0,
            protected: Vec::new(),
        })
    }

    /// The path of numbered segment `seq` of the WAL at `base`.
    pub fn segment_path(base: impl AsRef<Path>, seq: u64) -> PathBuf {
        let base = base.as_ref();
        let mut name = base
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(&format!(".{seq:06}"));
        base.with_file_name(name)
    }

    /// Appends one entry frame, rotating to a new segment once the active
    /// one reaches the configured size.
    pub fn append(&mut self, entry: &Entry) -> Result<()> {
        let mut payload = Vec::with_capacity(64 + entry.record.body.len());
        encode_entry(entry, &mut payload);
        let written = write_frame(&mut self.writer, &payload)?;
        self.active_bytes += written;
        self.active_frames += 1;
        self.active_first = Some(self.active_first.map_or(entry.lid, |f| f.min(entry.lid)));
        self.active_last = Some(self.active_last.map_or(entry.lid, |l| l.max(entry.lid)));
        self.appended += 1;
        if self.active_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seals the active segment (flush, fsync, stamp the header) and
    /// starts a new one. Sealing is itself a durability point.
    fn rotate(&mut self) -> Result<()> {
        if self.active_frames == 0 {
            return Ok(());
        }
        self.writer.flush().map_err(io_err)?;
        let header = SegHeader {
            sealed: true,
            seq: self.active_seq,
            first_lid: self.active_first.map_or(u64::MAX, |l| l.0),
            last_lid: self.active_last.map_or(0, |l| l.0),
            frames: self.active_frames,
        };
        let file = self.writer.get_mut();
        file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        file.write_all(&header.encode()).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
        self.sealed.push(SegmentInfo {
            seq: Some(self.active_seq),
            path: Self::segment_path(&self.base, self.active_seq),
            bytes: SEG_HEADER_LEN + self.active_bytes,
            first_lid: self.active_first,
            last_lid: self.active_last,
            frames: self.active_frames,
        });
        let (writer, seq) = new_active_segment(&self.base, self.active_seq + 1)?;
        self.writer = writer;
        self.active_seq = seq;
        self.active_bytes = 0;
        self.active_frames = 0;
        self.active_first = None;
        self.active_last = None;
        self.synced = self.appended;
        Ok(())
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush().map_err(io_err)
    }

    /// Flushes and fsyncs the active segment (durability point). Sealed
    /// segments were fsynced when sealed.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.writer.get_ref().sync_data().map_err(io_err)?;
        self.synced = self.appended;
        Ok(())
    }

    /// Number of frames appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Number of frames covered by the last successful `sync`.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// Frames appended but not yet covered by a successful `sync`.
    pub fn unsynced(&self) -> u64 {
        self.appended - self.synced
    }

    /// The base path this WAL's segment files derive from.
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// The current append position (end of the active segment, counting
    /// written-but-possibly-unflushed frames).
    pub fn position(&self) -> WalPosition {
        WalPosition {
            seq: self.active_seq,
            offset: self.active_bytes,
        }
    }

    /// Live segment files (sealed plus the active one).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total bytes across all live segment files.
    pub fn disk_bytes(&self) -> u64 {
        let sealed: u64 = self.sealed.iter().map(|s| s.bytes).sum();
        sealed + SEG_HEADER_LEN + self.active_bytes
    }

    /// Marks segments that must never be compacted: the ones holding the
    /// byte offsets of still-useful checkpoints.
    pub fn set_protected(&mut self, seqs: impl IntoIterator<Item = u64>) {
        self.protected = seqs.into_iter().collect();
    }

    /// Deletes every sealed segment strictly below numbered segment `seq`
    /// (the legacy flat file always qualifies). Returns the disk bytes
    /// reclaimed. Called after a checkpoint makes the prefix redundant.
    pub fn truncate_below(&mut self, seq: u64) -> Result<u64> {
        let mut reclaimed = 0;
        let mut keep = Vec::with_capacity(self.sealed.len());
        for info in self.sealed.drain(..) {
            let dead = match info.seq {
                None => true,
                Some(s) => s < seq,
            };
            if dead {
                std::fs::remove_file(&info.path).map_err(io_err)?;
                reclaimed += info.bytes;
            } else {
                keep.push(info);
            }
        }
        self.sealed = keep;
        Ok(reclaimed)
    }

    /// Compacts sealed segments: a segment whose frames all carry LIds
    /// below `dead_below` is deleted; one whose *estimated* live ratio
    /// (from its header's LId range) fell below `live_frac_milli`/1000 is
    /// rewritten keeping only frames for which `is_live` holds, then
    /// atomically swapped in. Protected segments (checkpoint anchors) and
    /// the active segment are never touched.
    pub fn compact<F: Fn(LId) -> bool>(
        &mut self,
        dead_below: LId,
        live_frac_milli: u32,
        is_live: F,
    ) -> Result<CompactionStats> {
        let mut stats = CompactionStats::default();
        let mut keep = Vec::with_capacity(self.sealed.len());
        for mut info in self.sealed.drain(..) {
            if info.seq.is_some_and(|s| self.protected.contains(&s)) {
                keep.push(info);
                continue;
            }
            let (first, last) = match (info.first_lid, info.last_lid) {
                (Some(f), Some(l)) => (f, l),
                // No intact frames: pure dead weight.
                _ => {
                    std::fs::remove_file(&info.path).map_err(io_err)?;
                    stats.segments_deleted += 1;
                    stats.reclaimed_bytes += info.bytes;
                    continue;
                }
            };
            if last < dead_below {
                std::fs::remove_file(&info.path).map_err(io_err)?;
                stats.segments_deleted += 1;
                stats.reclaimed_bytes += info.bytes;
                continue;
            }
            if first >= dead_below {
                keep.push(info);
                continue;
            }
            // Straddling segment: estimate the live fraction from the LId
            // range (frames are roughly uniform across the range).
            let span = last.0 - first.0 + 1;
            let live = last.0 - dead_below.0 + 1;
            let live_milli = live.saturating_mul(1000) / span;
            if live_milli >= live_frac_milli as u64 {
                keep.push(info);
                continue;
            }
            let old_bytes = info.bytes;
            match rewrite_segment(&info, &is_live)? {
                Some(new_info) => {
                    stats.segments_rewritten += 1;
                    stats.reclaimed_bytes += old_bytes.saturating_sub(new_info.bytes);
                    info = new_info;
                    keep.push(info);
                }
                None => {
                    // Nothing live survived the exact pass: delete.
                    std::fs::remove_file(&info.path).map_err(io_err)?;
                    stats.segments_deleted += 1;
                    stats.reclaimed_bytes += old_bytes;
                }
            }
        }
        self.sealed = keep;
        Ok(stats)
    }

    /// Replays every intact frame under `base` into memory. Prefer
    /// [`Wal::replay_iter`] on recovery paths — this convenience loads the
    /// whole log and is meant for tests and small archives.
    pub fn replay(base: impl AsRef<Path>) -> Result<Vec<Entry>> {
        Self::replay_iter(base)?.collect()
    }

    /// Streams every intact frame under `base` in write order, stopping
    /// cleanly at a torn or corrupt tail. Missing files replay as empty (a
    /// maintainer that never persisted anything).
    pub fn replay_iter(base: impl AsRef<Path>) -> Result<WalReplay> {
        WalReplay::new(base.as_ref(), None)
    }

    /// Streams intact frames starting at `pos` (exclusive of everything
    /// before it) — the O(delta) suffix replay after loading a checkpoint.
    pub fn replay_from(base: impl AsRef<Path>, pos: WalPosition) -> Result<WalReplay> {
        WalReplay::new(base.as_ref(), Some(pos))
    }
}

/// Reads and validates the header of `path` if it is a sealed segment.
fn read_sealed_header(path: &Path) -> Result<Option<SegHeader>> {
    let file = File::open(path).map_err(io_err)?;
    let mut reader = BufReader::new(file);
    Ok(skip_header(&mut reader)?.filter(|h| h.sealed))
}

/// Rewrites a sealed segment keeping only live frames; returns the new
/// metadata, or `None` if nothing survived (caller deletes the original).
fn rewrite_segment<F: Fn(LId) -> bool>(
    info: &SegmentInfo,
    is_live: &F,
) -> Result<Option<SegmentInfo>> {
    let file = File::open(&info.path).map_err(io_err)?;
    let mut reader = BufReader::new(file);
    skip_header(&mut reader)?;
    let mut kept: Vec<Entry> = Vec::new();
    loop {
        match read_frame(&mut reader)? {
            FrameStep::Entry(entry, _) => {
                if is_live(entry.lid) {
                    kept.push(*entry);
                }
            }
            FrameStep::Eof | FrameStep::Invalid => break,
        }
    }
    if kept.is_empty() {
        return Ok(None);
    }
    let seq = info.seq.unwrap_or(0);
    let tmp = info.path.with_extension("tmp");
    let mut first = u64::MAX;
    let mut last = 0u64;
    let mut bytes = SEG_HEADER_LEN;
    {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(io_err)?;
        let mut w = BufWriter::new(file);
        // Placeholder header; stamped below once the totals are known.
        w.write_all(&[0u8; SEG_HEADER_LEN as usize])
            .map_err(io_err)?;
        let mut payload = Vec::new();
        for entry in &kept {
            payload.clear();
            encode_entry(entry, &mut payload);
            bytes += write_frame(&mut w, &payload)?;
            first = first.min(entry.lid.0);
            last = last.max(entry.lid.0);
        }
        w.flush().map_err(io_err)?;
        let header = SegHeader {
            sealed: true,
            seq,
            first_lid: first,
            last_lid: last,
            frames: kept.len() as u64,
        };
        let file = w.get_mut();
        file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        file.write_all(&header.encode()).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
    }
    std::fs::rename(&tmp, &info.path).map_err(io_err)?;
    Ok(Some(SegmentInfo {
        seq: info.seq,
        path: info.path.clone(),
        bytes,
        first_lid: Some(LId(first)),
        last_lid: Some(LId(last)),
        frames: kept.len() as u64,
    }))
}

/// Seals an existing segment file in place: stamps its header with the
/// scanned valid-prefix metadata. Headerless (legacy) files are left
/// alone — replay scans them directly.
fn seal_in_place(info: &SegmentInfo) -> Result<()> {
    let Some(seq) = info.seq else { return Ok(()) };
    let mut file = match OpenOptions::new().read(true).write(true).open(&info.path) {
        Ok(f) => f,
        Err(e) => return Err(io_err(e)),
    };
    let mut buf = [0u8; SEG_HEADER_LEN as usize];
    {
        let mut r = BufReader::new(&mut file);
        if !read_exact_or_eof(&mut r, &mut buf)? || SegHeader::decode(&buf).is_none() {
            return Ok(()); // legacy or garbled header: leave as-is
        }
    }
    let header = SegHeader {
        sealed: true,
        seq,
        first_lid: info.first_lid.map_or(u64::MAX, |l| l.0),
        last_lid: info.last_lid.map_or(0, |l| l.0),
        frames: info.frames,
    };
    file.seek(SeekFrom::Start(0)).map_err(io_err)?;
    file.write_all(&header.encode()).map_err(io_err)?;
    file.sync_data().map_err(io_err)?;
    Ok(())
}

/// Creates the numbered segment `seq` with an unsealed header.
fn new_active_segment(base: &Path, seq: u64) -> Result<(BufWriter<File>, u64)> {
    let path = Wal::segment_path(base, seq);
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(io_err)?;
    let mut writer = BufWriter::new(file);
    let header = SegHeader {
        sealed: false,
        seq,
        first_lid: u64::MAX,
        last_lid: 0,
        frames: 0,
    };
    writer.write_all(&header.encode()).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Ok((writer, seq))
}

/// Streaming replay over the segments of one WAL, in write order.
///
/// Yields each intact entry exactly once. A torn/corrupt frame in the
/// final segment ends iteration (crash tail); in an earlier segment it
/// skips to the next segment (that tail predates a reopen — nothing past
/// it was ever acked).
pub struct WalReplay {
    /// Remaining segments, next first.
    segments: std::vec::IntoIter<(Option<u64>, PathBuf)>,
    current: Option<BufReader<File>>,
    /// Whether any segment remains after the current one.
    remaining: usize,
    bytes_read: u64,
    frames: u64,
}

impl WalReplay {
    fn new(base: &Path, from: Option<WalPosition>) -> Result<WalReplay> {
        let mut segs = discover_segments(base)?;
        if let Some(pos) = from {
            segs.retain(|(seq, _)| seq.is_some_and(|s| s >= pos.seq));
        }
        let remaining = segs.len();
        let mut replay = WalReplay {
            segments: segs.into_iter(),
            current: None,
            remaining,
            bytes_read: 0,
            frames: 0,
        };
        replay.advance_segment(from)?;
        Ok(replay)
    }

    /// Opens the next segment, seeking past the header (and, for the very
    /// first segment of a positioned replay, past `pos.offset`).
    fn advance_segment(&mut self, from: Option<WalPosition>) -> Result<bool> {
        let Some((seq, path)) = self.segments.next() else {
            self.current = None;
            return Ok(false);
        };
        self.remaining -= 1;
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.current = None;
                return Ok(false);
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut reader = BufReader::new(file);
        skip_header(&mut reader)?;
        if let Some(pos) = from {
            if seq == Some(pos.seq) {
                reader.seek_relative(pos.offset as i64).map_err(io_err)?;
            }
        }
        self.current = Some(reader);
        Ok(true)
    }

    /// Frame-data bytes consumed so far (headers excluded).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Intact frames yielded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

impl Iterator for WalReplay {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Result<Entry>> {
        loop {
            let reader = self.current.as_mut()?;
            match read_frame(reader) {
                Ok(FrameStep::Entry(entry, bytes)) => {
                    self.bytes_read += bytes;
                    self.frames += 1;
                    return Some(Ok(*entry));
                }
                Ok(FrameStep::Eof) => match self.advance_segment(None) {
                    Ok(true) => continue,
                    Ok(false) => return None,
                    Err(e) => return Some(Err(e)),
                },
                Ok(FrameStep::Invalid) => {
                    if self.remaining == 0 {
                        // Torn/corrupt tail of the final segment: replay
                        // ends at the longest valid prefix.
                        self.current = None;
                        return None;
                    }
                    // Mid-log tear predates a reopen; skip to the next
                    // segment, whose frames are strictly newer.
                    match self.advance_segment(None) {
                        Ok(true) => continue,
                        Ok(false) => return None,
                        Err(e) => return Some(Err(e)),
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(lid: u64, toid: u64) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(toid)),
                VersionVector::from_entries(vec![TOId(3), TOId(toid)]),
                TagSet::new()
                    .with(Tag::with_value("key", "x"))
                    .with(Tag::with_value("seq", 9i64))
                    .with(Tag::key("put")),
                Bytes::from(vec![0xAB; 64]),
            ),
        )
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A sealed one-entry segment written by the build before the CRC was
    /// table-sliced (hex-dumped from it): its header and its entry frame
    /// still verify, and replay yields the entry.
    #[test]
    fn golden_segment_from_the_bytewise_crc_build_still_replays() {
        let hex = concat!(
            "435345470100010000000000000000002a000000000000002a000000000000000100000000000000",
            "e5113fe9000000004d0000006b5e389f2a0000000000000001000700000000000000020003000000",
            "000000000600000000000000020003006b657902010000007803007075740012000000676f6c6465",
            "6e207265636f726420626f6479",
        );
        let golden: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let entry = Entry::new(
            LId(42),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(7)),
                VersionVector::from_entries(vec![TOId(3), TOId(6)]),
                TagSet::new()
                    .with(Tag::with_value("key", "x"))
                    .with(Tag::key("put")),
                Bytes::from_static(b"golden record body"),
            ),
        );

        let header = SegHeader::decode(&golden).expect("header CRC verifies");
        let sealed = SegHeader {
            sealed: true,
            seq: 0,
            first_lid: 42,
            last_lid: 42,
            frames: 1,
        };
        assert_eq!(header, sealed);
        assert_eq!(sealed.encode()[..], golden[..SEG_HEADER_LEN as usize]);
        let mut frame = Vec::new();
        let mut payload = Vec::new();
        encode_entry(&entry, &mut payload);
        write_frame(&mut frame, &payload).unwrap();
        assert_eq!(frame[..], golden[SEG_HEADER_LEN as usize..]);

        let dir = chariots_simnet::TestDir::new("chariots-wal-golden");
        let base = dir.path().join("golden.wal");
        std::fs::write(Wal::segment_path(&base, 0), &golden).unwrap();
        assert_eq!(Wal::replay(&base).unwrap(), vec![entry]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let entry = sample_entry(42, 7);
        let mut buf = Vec::new();
        encode_entry(&entry, &mut buf);
        let back = decode_entry(&buf).expect("decodes");
        assert_eq!(back, entry);
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let entry = sample_entry(1, 1);
        let mut buf = Vec::new();
        encode_entry(&entry, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_entry(&buf[..cut]).is_none(),
                "decoded from a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn seg_header_roundtrip_and_corruption() {
        let h = SegHeader {
            sealed: true,
            seq: 7,
            first_lid: 100,
            last_lid: 250,
            frames: 31,
        };
        let buf = h.encode();
        assert_eq!(SegHeader::decode(&buf), Some(h));
        for i in 0..40 {
            let mut bad = buf;
            bad[i] ^= 0xFF;
            assert!(SegHeader::decode(&bad).is_none(), "flip at {i} accepted");
        }
    }

    #[test]
    fn wal_roundtrips_through_file() {
        let dir = chariots_simnet::TestDir::new("chariots-wal");
        let path = dir.path().join("roundtrip.wal");

        let entries: Vec<Entry> = (0..10).map(|i| sample_entry(i, i + 1)).collect();
        {
            let mut wal = Wal::open(&path).unwrap();
            for e in &entries {
                wal.append(e).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.appended(), 10);
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, entries);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let replayed = Wal::replay("/nonexistent/chariots.wal").unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn replay_reads_legacy_flat_file() {
        // A pre-segmentation WAL: raw frames at the base path, no header.
        let dir = chariots_simnet::TestDir::new("chariots-wal-legacy");
        let path = dir.path().join("legacy.wal");
        let entries: Vec<Entry> = (0..3).map(|i| sample_entry(i, i + 1)).collect();
        {
            let mut buf = Vec::new();
            let mut file = File::create(&path).unwrap();
            for e in &entries {
                buf.clear();
                encode_entry(e, &mut buf);
                write_frame(&mut file, &buf).unwrap();
            }
        }
        assert_eq!(Wal::replay(&path).unwrap(), entries);
        // Appending through the segmented WAL keeps the legacy prefix.
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(3, 4)).unwrap();
            wal.sync().unwrap();
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[3].lid, LId(3));
    }

    #[test]
    fn rotation_splits_log_across_segments() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-rotate");
        let path = dir.path().join("rot.wal");
        let entries: Vec<Entry> = (0..50).map(|i| sample_entry(i, i + 1)).collect();
        {
            // ~150 B frames; rotate every 512 B ⇒ many segments.
            let mut wal = Wal::open_with(&path, 512).unwrap();
            for e in &entries {
                wal.append(e).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segment_count() > 5, "got {}", wal.segment_count());
        }
        assert!(Wal::segment_path(&path, 1).exists());
        assert_eq!(Wal::replay(&path).unwrap(), entries);
    }

    #[test]
    fn sealed_segment_headers_carry_lid_range() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-sealhdr");
        let path = dir.path().join("seal.wal");
        let mut wal = Wal::open_with(&path, 512).unwrap();
        for i in 0..50 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        let first_sealed = &wal.sealed[0];
        let h = read_sealed_header(&first_sealed.path)
            .unwrap()
            .expect("sealed");
        assert_eq!(h.seq, 0);
        assert_eq!(Some(LId(h.first_lid)), first_sealed.first_lid);
        assert_eq!(Some(LId(h.last_lid)), first_sealed.last_lid);
        assert_eq!(h.frames, first_sealed.frames);
        assert!(h.first_lid < h.last_lid);
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-torn");
        let path = dir.path().join("torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(0, 1)).unwrap();
            wal.append(&sample_entry(1, 2)).unwrap();
            wal.sync().unwrap();
        }
        // Tear off the last 5 bytes, as a crash mid-write would.
        let seg = Wal::segment_path(&path, 0);
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 5]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].lid, LId(0));
    }

    #[test]
    fn replay_stops_at_corrupt_frame_but_keeps_prefix() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-corrupt");
        let path = dir.path().join("corrupt.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(0, 1)).unwrap();
            wal.append(&sample_entry(1, 2)).unwrap();
            wal.append(&sample_entry(2, 3)).unwrap();
            wal.sync().unwrap();
        }
        // Flip a byte in the middle of the second frame's payload.
        let seg = Wal::segment_path(&path, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let hdr = SEG_HEADER_LEN as usize;
        let frame_len = {
            let l = u32::from_le_bytes([data[hdr], data[hdr + 1], data[hdr + 2], data[hdr + 3]])
                as usize;
            8 + l
        };
        data[hdr + frame_len + 20] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1, "only the intact prefix survives");
    }

    #[test]
    fn torn_tail_before_reopen_does_not_mask_newer_segments() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-reopen-tear");
        let path = dir.path().join("tear.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(0, 1)).unwrap();
            wal.append(&sample_entry(1, 2)).unwrap();
            wal.sync().unwrap();
        }
        // Crash tears the tail of segment 0…
        let seg = Wal::segment_path(&path, 0);
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 5]).unwrap();
        // …and the reopened WAL appends into a fresh segment.
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(1, 2)).unwrap();
            wal.sync().unwrap();
        }
        let replayed = Wal::replay(&path).unwrap();
        let lids: Vec<LId> = replayed.iter().map(|e| e.lid).collect();
        assert_eq!(
            lids,
            vec![LId(0), LId(1)],
            "newer segment survives the old tear"
        );
    }

    #[test]
    fn append_after_reopen_extends_log() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-reopen");
        let path = dir.path().join("reopen.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(0, 1)).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample_entry(1, 2)).unwrap();
            wal.sync().unwrap();
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2);
    }

    #[test]
    fn replay_from_position_skips_prefix() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-from");
        let path = dir.path().join("from.wal");
        let mut wal = Wal::open_with(&path, 512).unwrap();
        for i in 0..20 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.flush().unwrap();
        let pos = wal.position();
        for i in 20..30 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        let mut it = Wal::replay_from(&path, pos).unwrap();
        let mut lids = Vec::new();
        for r in it.by_ref() {
            lids.push(r.unwrap().lid.0);
        }
        assert_eq!(lids, (20..30).collect::<Vec<u64>>());
        let full = Wal::replay_iter(&path).unwrap().count() as u64;
        assert_eq!(full, 30);
        assert!(it.bytes_read() > 0);
    }

    #[test]
    fn truncate_below_removes_old_segments() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-trunc");
        let path = dir.path().join("trunc.wal");
        let mut wal = Wal::open_with(&path, 512).unwrap();
        for i in 0..50 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        let segs = wal.segment_count();
        assert!(segs > 3);
        let cut = wal.position().seq;
        let reclaimed = wal.truncate_below(cut).unwrap();
        assert!(reclaimed > 0);
        assert_eq!(wal.segment_count(), 1);
        assert!(!Wal::segment_path(&path, 0).exists());
        // Replay only sees what the active segment holds (nothing sealed).
        assert!(Wal::replay(&path).unwrap().len() < 50);
    }

    #[test]
    fn compaction_deletes_dead_and_rewrites_straddling_segments() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-compact");
        let path = dir.path().join("compact.wal");
        let mut wal = Wal::open_with(&path, 512).unwrap();
        for i in 0..60 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.disk_bytes();
        let sealed_before = wal.sealed.len();
        assert!(sealed_before >= 3);
        // Everything below 55 is dead: most segments die outright, the one
        // straddling 55 is rewritten.
        let bound = LId(55);
        let stats = wal.compact(bound, 1000, |lid| lid >= bound).unwrap();
        assert!(stats.segments_deleted > 0, "{stats:?}");
        assert!(stats.reclaimed_bytes > 0);
        assert!(wal.disk_bytes() < before);
        // Replay yields exactly the live suffix, still in order.
        let lids: Vec<u64> = Wal::replay(&path)
            .unwrap()
            .iter()
            .map(|e| e.lid.0)
            .collect();
        assert_eq!(lids, (55..60).collect::<Vec<u64>>());
    }

    #[test]
    fn compaction_skips_protected_segments() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-protect");
        let path = dir.path().join("protect.wal");
        let mut wal = Wal::open_with(&path, 512).unwrap();
        for i in 0..40 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        let protected_seq = wal.sealed[0].seq.unwrap();
        wal.set_protected([protected_seq]);
        let stats = wal.compact(LId(1_000), 1000, |_| false).unwrap();
        assert!(stats.segments_deleted > 0);
        assert!(
            Wal::segment_path(&path, protected_seq).exists(),
            "protected segment survived"
        );
    }

    #[test]
    fn compaction_respects_live_fraction_threshold() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-frac");
        let path = dir.path().join("frac.wal");
        let mut wal = Wal::open_with(&path, 4096).unwrap();
        for i in 0..20 {
            wal.append(&sample_entry(i, i + 1)).unwrap();
        }
        wal.sync().unwrap();
        // Force a seal so there is one sealed segment spanning 0..19.
        wal.rotate().unwrap();
        // Bound kills 25% of the range; with a 50% threshold the segment
        // is still live enough to leave alone.
        let stats = wal.compact(LId(5), 500, |lid| lid >= LId(5)).unwrap();
        assert!(stats.is_empty(), "{stats:?}");
        // With a 90% threshold it gets rewritten.
        let stats = wal.compact(LId(5), 900, |lid| lid >= LId(5)).unwrap();
        assert_eq!(stats.segments_rewritten, 1);
        let lids: Vec<u64> = Wal::replay(&path)
            .unwrap()
            .iter()
            .map(|e| e.lid.0)
            .collect();
        assert_eq!(lids, (5..20).collect::<Vec<u64>>());
    }

    mod torn_tail {
        use super::*;
        use proptest::prelude::*;

        /// Byte offset (within the segment's frame data) at which each
        /// frame ends, given the entries written.
        fn frame_ends(entries: &[Entry]) -> Vec<usize> {
            let mut ends = Vec::with_capacity(entries.len());
            let mut pos = 0usize;
            let mut buf = Vec::new();
            for e in entries {
                buf.clear();
                encode_entry(e, &mut buf);
                pos += 8 + buf.len();
                ends.push(pos);
            }
            ends
        }

        proptest! {
            /// Crash-consistency contract (§5.2 durability): whatever a
            /// crash does to the active segment's tail — truncation
            /// mid-frame or a flipped byte — replay returns *exactly* the
            /// longest prefix of intact frames, never a partial or
            /// corrupted record.
            #[test]
            fn replay_yields_longest_valid_prefix(
                n in 1usize..16,
                cut_frac in 0.0f64..1.0,
                flip in proptest::bool::ANY,
            ) {
                let dir = chariots_simnet::TestDir::new("chariots-wal-prop");
                let path = dir.path().join("prop.wal");
                let entries: Vec<Entry> =
                    (0..n as u64).map(|i| sample_entry(i, i + 1)).collect();
                {
                    let mut wal = Wal::open(&path).unwrap();
                    for e in &entries {
                        wal.append(e).unwrap();
                    }
                    wal.sync().unwrap();
                }
                let seg = Wal::segment_path(&path, 0);
                let hdr = SEG_HEADER_LEN as usize;
                let ends = frame_ends(&entries);
                let total = *ends.last().unwrap();
                prop_assert_eq!(
                    std::fs::metadata(&seg).unwrap().len() as usize,
                    hdr + total
                );
                let cut = ((total as f64) * cut_frac) as usize;
                let expected = if flip {
                    // Flip one frame-data byte: the frame containing it
                    // fails its CRC (or decodes as garbage), ending replay
                    // there.
                    let mut data = std::fs::read(&seg).unwrap();
                    let target = cut.min(total - 1);
                    data[hdr + target] ^= 0xFF;
                    std::fs::write(&seg, &data).unwrap();
                    ends.iter().position(|&e| e > target).unwrap()
                } else {
                    // Truncate: only frames wholly below the cut survive.
                    let data = std::fs::read(&seg).unwrap();
                    std::fs::write(&seg, &data[..hdr + cut]).unwrap();
                    ends.iter().take_while(|&&e| e <= cut).count()
                };
                let replayed = Wal::replay(&path).unwrap();
                prop_assert_eq!(&replayed[..], &entries[..expected]);
            }

            /// The same contract across a *segment boundary*: with small
            /// segments, tearing the final segment mid-frame discards
            /// exactly its tail — every earlier segment replays clean.
            #[test]
            fn segment_boundary_tear_discards_only_final_tail(
                n in 8usize..32,
                cut_frac in 0.0f64..1.0,
            ) {
                let dir = chariots_simnet::TestDir::new("chariots-wal-prop-seg");
                let path = dir.path().join("prop-seg.wal");
                let entries: Vec<Entry> =
                    (0..n as u64).map(|i| sample_entry(i, i + 1)).collect();
                let (last_seq, frames_before_last) = {
                    // ~150 B frames; 400 B segments ⇒ several boundaries.
                    let mut wal = Wal::open_with(&path, 400).unwrap();
                    for e in &entries {
                        wal.append(e).unwrap();
                    }
                    wal.sync().unwrap();
                    let before: u64 = wal.sealed.iter().map(|s| s.frames).sum();
                    (wal.position().seq, before as usize)
                };
                prop_assert!(last_seq > 0, "workload must cross a boundary");
                // Tear the *final* segment mid-frame.
                let seg = Wal::segment_path(&path, last_seq);
                let hdr = SEG_HEADER_LEN as usize;
                let tail = &entries[frames_before_last..];
                let ends = frame_ends(tail);
                let total = ends.last().copied().unwrap_or(0);
                let cut = ((total as f64) * cut_frac) as usize;
                let data = std::fs::read(&seg).unwrap();
                std::fs::write(&seg, &data[..hdr + cut]).unwrap();
                let survivors = ends.iter().take_while(|&&e| e <= cut).count();
                let replayed = Wal::replay(&path).unwrap();
                // Segments 0..last replay clean; the final segment keeps
                // exactly its longest valid prefix.
                prop_assert_eq!(
                    &replayed[..],
                    &entries[..frames_before_last + survivors]
                );
            }
        }
    }
}
