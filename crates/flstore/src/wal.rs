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
//! After its 48-byte header a segment holds entries exactly as a socket
//! carries them: each is one transport frame (`[len][crc32][payload]`,
//! written by [`append_frame`], checked by the transport's decoder through
//! [`FrameReader`]) whose payload is the entry's [`Wire`] encoding. There
//! is no storage codec and no storage framer; an entry over the
//! transport's 64 MiB frame cap is refused by [`Wal::append`].
//!
//! Recovery streams frames segment by segment. A *torn* frame — cut short,
//! or failing its CRC — ends replay of the *final* segment (a crash
//! mid-write); in an earlier segment it skips to the next segment, because
//! a later segment can only exist if the WAL was reopened after that tear —
//! everything past it was never acked. A frame whose CRC verifies but whose
//! payload is not an entry is not a tail: it is a [`ChariotsError::Storage`]
//! error, as is a segment header of another format version (this is
//! version 2; nothing upgrades a log written by an earlier build). A
//! segment whose header is short or rotted holds nothing replayable — a
//! crash while the segment was being created leaves one.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use chariots_simnet::{append_frame, FrameReader};
use chariots_types::{crc32, decode_exact, ChariotsError, Entry, LId, Result, Wire};

/// Default rotation threshold for one segment file.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// The largest frame buffer a [`Wal`] keeps from one append to the next.
const FRAME_KEEP_BYTES: usize = 1024 * 1024;

pub(crate) fn io_err(e: std::io::Error) -> ChariotsError {
    ChariotsError::Storage(e.to_string())
}

/// Appends `entry` to `buf` as one frame: the bytes a WAL segment, a
/// checkpoint and the archive hold for it, and the bytes a socket carries.
pub(crate) fn frame_entry(buf: &mut Vec<u8>, entry: &Entry) -> Result<()> {
    append_frame(buf, |b| entry.encode(b))
        .map_err(|e| ChariotsError::Storage(format!("entry at {}: {e}", entry.lid)))
}

/// The next entry of `frames` (read from `path`); `None` at the end of the
/// file or at a torn frame. An intact frame that does not decode is neither:
/// the CRC has vouched for its bytes, so it was written as something else
/// (by an earlier format, say) — an error, never a tail to cut.
pub(crate) fn next_entry(
    frames: &mut FrameReader<impl Read>,
    path: &Path,
) -> Result<Option<Entry>> {
    let Some(frame) = frames.next_frame().map_err(io_err)? else {
        return Ok(None);
    };
    decode_exact(frame).map(Some).ok_or_else(|| {
        ChariotsError::Storage(format!(
            "{}: a frame passes its CRC but is not an entry of this format",
            path.display()
        ))
    })
}

// ---------------------------------------------------------------------------
// Segment headers
// ---------------------------------------------------------------------------

const SEG_MAGIC: [u8; 4] = *b"CSEG";
/// Version 2: entry frames are transport frames of `Wire`-encoded entries.
const SEG_VERSION: u16 = 2;
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

    /// `Ok(None)` for bytes that are not an intact header (short, wrong
    /// magic, failed CRC); `Err(version)` for an intact header of a format
    /// this build does not read.
    fn decode(buf: &[u8]) -> std::result::Result<Option<SegHeader>, u16> {
        if buf.len() < SEG_HEADER_LEN as usize || buf[0..4] != SEG_MAGIC {
            return Ok(None);
        }
        let crc = u32::from_le_bytes([buf[40], buf[41], buf[42], buf[43]]);
        if crc32(&buf[0..40]) != crc {
            return Ok(None);
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != SEG_VERSION {
            return Err(version);
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
        Ok(Some(SegHeader {
            sealed: flags & SEG_FLAG_SEALED != 0,
            seq: u64_at(8),
            first_lid: u64_at(16),
            last_lid: u64_at(24),
            frames: u64_at(32),
        }))
    }
}

/// Consumes the segment header `file` starts with. `None` when it is short
/// or rotted: nothing in such a segment replays. A header of another
/// format version is an error — the log must never read as empty because
/// an earlier build wrote it.
fn read_header(file: &mut File, path: &Path) -> Result<Option<SegHeader>> {
    let mut buf = [0u8; SEG_HEADER_LEN as usize];
    match file.read_exact(&mut buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io_err(e)),
    }
    SegHeader::decode(&buf).map_err(|version| {
        ChariotsError::Storage(format!(
            "{}: WAL segment format version {version}, this build reads version {SEG_VERSION}",
            path.display()
        ))
    })
}

/// Metadata of one on-disk segment, as known to the writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment sequence number.
    pub seq: u64,
    /// The backing file.
    pub path: PathBuf,
    /// Total file size in bytes (header included).
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

/// Lists the numbered segment files of the WAL at `base` in ascending
/// order. Missing directory ⇒ empty.
fn discover_segments(base: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
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
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(suffix) = name.strip_prefix(stem).and_then(|s| s.strip_prefix('.')) else {
            continue;
        };
        if suffix.len() == 6 && suffix.bytes().all(|b| b.is_ascii_digit()) {
            out.push((suffix.parse().expect("six digits"), entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Scans one segment file: its metadata, counting the frames of its valid
/// prefix only.
fn scan_segment(seq: u64, path: &Path) -> Result<SegmentInfo> {
    let mut file = File::open(path).map_err(io_err)?;
    let mut info = SegmentInfo {
        seq,
        path: path.to_path_buf(),
        bytes: file.metadata().map_err(io_err)?.len(),
        first_lid: None,
        last_lid: None,
        frames: 0,
    };
    if read_header(&mut file, path)?.is_some() {
        let mut frames = FrameReader::new(file);
        while let Some(entry) = next_entry(&mut frames, path)? {
            info.first_lid = Some(info.first_lid.map_or(entry.lid, |f| f.min(entry.lid)));
            info.last_lid = Some(info.last_lid.map_or(entry.lid, |l| l.max(entry.lid)));
            info.frames += 1;
        }
    }
    Ok(info)
}

/// An append-only, CRC-protected, segmented write-ahead log of entries.
#[derive(Debug)]
pub struct Wal {
    base: PathBuf,
    segment_bytes: u64,
    /// Sealed (immutable) segments, oldest first.
    sealed: Vec<SegmentInfo>,
    writer: BufWriter<File>,
    /// The frame being appended; kept (up to [`FRAME_KEEP_BYTES`]) so an
    /// append allocates nothing.
    frame: Vec<u8>,
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
    /// crash can never be followed by live frames in the same file. A
    /// segment of another format version fails the open.
    pub fn open_with(base: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let base = base.into();
        let segment_bytes = segment_bytes.max(1);
        let mut sealed = Vec::new();
        for (seq, path) in discover_segments(&base)? {
            let info = match read_sealed_header(&path)? {
                Some(h) if seq == h.seq => SegmentInfo {
                    seq,
                    bytes: std::fs::metadata(&path).map_err(io_err)?.len(),
                    path,
                    first_lid: (h.first_lid != u64::MAX).then_some(LId(h.first_lid)),
                    last_lid: (h.first_lid != u64::MAX).then_some(LId(h.last_lid)),
                    frames: h.frames,
                },
                _ => scan_segment(seq, &path)?,
            };
            sealed.push(info);
        }
        // Seal the most recent segment in place: its metadata is now exact
        // and replay can trust it.
        let next_seq = match sealed.last() {
            Some(last) => {
                seal_in_place(last)?;
                last.seq + 1
            }
            None => 0,
        };
        let (writer, active_seq) = new_active_segment(&base, next_seq)?;
        Ok(Wal {
            base,
            segment_bytes,
            sealed,
            writer,
            frame: Vec::new(),
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
    /// one reaches the configured size. An entry too large for one frame
    /// (it could not have crossed a hop either) is refused with nothing
    /// written.
    pub fn append(&mut self, entry: &Entry) -> Result<()> {
        self.frame.clear();
        let written = frame_entry(&mut self.frame, entry)
            .and_then(|()| self.writer.write_all(&self.frame).map_err(io_err));
        let len = self.frame.len() as u64;
        if self.frame.capacity() > FRAME_KEEP_BYTES {
            self.frame = Vec::new(); // one outsized entry, accepted or not
        }
        written?;
        self.active_bytes += len;
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
            seq: self.active_seq,
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

    /// Deletes every sealed segment strictly below segment `seq`. Returns
    /// the disk bytes reclaimed. Called after a checkpoint makes the prefix
    /// redundant.
    pub fn truncate_below(&mut self, seq: u64) -> Result<u64> {
        let mut reclaimed = 0;
        let mut keep = Vec::with_capacity(self.sealed.len());
        for info in self.sealed.drain(..) {
            if info.seq < seq {
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
            if self.protected.contains(&info.seq) {
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
    /// cleanly at a torn tail. Missing files replay as empty (a maintainer
    /// that never persisted anything); a segment of another format version,
    /// or an intact frame that is not an entry, is an error.
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
    let mut file = File::open(path).map_err(io_err)?;
    Ok(read_header(&mut file, path)?.filter(|h| h.sealed))
}

/// Rewrites a sealed segment keeping only live frames; returns the new
/// metadata, or `None` if nothing survived (caller deletes the original).
fn rewrite_segment<F: Fn(LId) -> bool>(
    info: &SegmentInfo,
    is_live: &F,
) -> Result<Option<SegmentInfo>> {
    let mut file = File::open(&info.path).map_err(io_err)?;
    let mut kept: Vec<Entry> = Vec::new();
    if read_header(&mut file, &info.path)?.is_some() {
        let mut frames = FrameReader::new(file);
        while let Some(entry) = next_entry(&mut frames, &info.path)? {
            if is_live(entry.lid) {
                kept.push(entry);
            }
        }
    }
    if kept.is_empty() {
        return Ok(None);
    }
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
        let mut frame = Vec::new();
        for entry in &kept {
            frame.clear();
            frame_entry(&mut frame, entry)?;
            w.write_all(&frame).map_err(io_err)?;
            bytes += frame.len() as u64;
            first = first.min(entry.lid.0);
            last = last.max(entry.lid.0);
        }
        w.flush().map_err(io_err)?;
        let header = SegHeader {
            sealed: true,
            seq: info.seq,
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
/// scanned valid-prefix metadata. A segment without an intact header is
/// left as it is — nothing in it replays, sealed or not.
fn seal_in_place(info: &SegmentInfo) -> Result<()> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&info.path)
        .map_err(io_err)?;
    if read_header(&mut file, &info.path)?.is_none() {
        return Ok(());
    }
    let header = SegHeader {
        sealed: true,
        seq: info.seq,
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
/// Yields each intact entry exactly once. A torn frame ends its segment:
/// in the final one that is the crash tail, in an earlier one the tail
/// predates a reopen (nothing past it was ever acked) and replay goes on
/// with the next segment, whose frames are strictly newer.
pub struct WalReplay {
    /// Remaining segments, next first.
    segments: std::vec::IntoIter<(u64, PathBuf)>,
    current: Option<(FrameReader<File>, PathBuf)>,
    /// Frame bytes of the segments already finished.
    bytes_before: u64,
    frames: u64,
}

impl WalReplay {
    fn new(base: &Path, from: Option<WalPosition>) -> Result<WalReplay> {
        let mut segs = discover_segments(base)?;
        if let Some(pos) = from {
            segs.retain(|(seq, _)| *seq >= pos.seq);
        }
        let mut replay = WalReplay {
            segments: segs.into_iter(),
            current: None,
            bytes_before: 0,
            frames: 0,
        };
        replay.advance_segment(from)?;
        Ok(replay)
    }

    /// Opens the next segment that has an intact header, past that header
    /// (and, for the very first segment of a positioned replay, past
    /// `pos.offset`). `false` when none is left.
    fn advance_segment(&mut self, from: Option<WalPosition>) -> Result<bool> {
        if let Some((done, _)) = self.current.take() {
            self.bytes_before += done.valid_bytes();
        }
        for (seq, path) in self.segments.by_ref() {
            let mut file = match File::open(&path) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
                Err(e) => return Err(io_err(e)),
            };
            if read_header(&mut file, &path)?.is_none() {
                continue;
            }
            if let Some(pos) = from.filter(|pos| pos.seq == seq) {
                file.seek(SeekFrom::Current(pos.offset as i64))
                    .map_err(io_err)?;
            }
            self.current = Some((FrameReader::new(file), path));
            return Ok(true);
        }
        Ok(false)
    }

    /// Frame-data bytes consumed so far (headers excluded).
    pub fn bytes_read(&self) -> u64 {
        let current = self.current.as_ref().map_or(0, |(r, _)| r.valid_bytes());
        self.bytes_before + current
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
            let (frames, path) = self.current.as_mut()?;
            let step = match next_entry(frames, path) {
                Ok(Some(entry)) => {
                    self.frames += 1;
                    return Some(Ok(entry));
                }
                // The end of the segment or a torn frame: either way what
                // is left to replay starts with the next segment.
                Ok(None) => self.advance_segment(None),
                Err(e) => Err(e),
            };
            match step {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.current = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_types::{
        DatacenterId, Record, RecordId, TOId, Tag, TagSet, TraceId, VersionVector,
    };

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

    /// Opens the WAL at `path`, appends `entries`, syncs and closes it.
    fn write_wal(path: &Path, entries: &[Entry]) {
        let mut wal = Wal::open(path).unwrap();
        for e in entries {
            wal.append(e).unwrap();
        }
        wal.sync().unwrap();
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The entry of every golden below (and of the transport's golden frame).
    fn golden_entry() -> Entry {
        Entry::new(
            LId(42),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(7)),
                VersionVector::from_entries(vec![TOId(3), TOId(6)]),
                TagSet::new()
                    .with(Tag::with_value("key", "x"))
                    .with(Tag::key("put")),
                Bytes::from_static(b"golden record body"),
            ),
        )
    }

    /// The one-entry segment's header: sealed, seq 0, LId 42 to 42.
    const GOLDEN_SEALED: SegHeader = SegHeader {
        sealed: true,
        seq: 0,
        first_lid: 42,
        last_lid: 42,
        frames: 1,
    };

    fn is_storage_naming(result: Result<impl std::fmt::Debug>, what: &str) -> bool {
        matches!(&result, Err(ChariotsError::Storage(why)) if why.contains(what))
    }

    /// Invariant (a). A sealed one-entry segment written by a format
    /// version 1 build (hex-dumped from it): its header still passes magic
    /// and CRC, so it is not a rotted file but a log this build cannot
    /// read — `open` and `replay` say so, naming the version, and neither
    /// reads it as empty.
    #[test]
    fn golden_v1_segment_is_refused_not_read_as_empty() {
        let golden = unhex(concat!(
            "435345470100010000000000000000002a000000000000002a000000000000000100000000000000",
            "e5113fe9000000004d0000006b5e389f2a0000000000000001000700000000000000020003000000",
            "000000000600000000000000020003006b657902010000007803007075740012000000676f6c6465",
            "6e207265636f726420626f6479",
        ));
        assert_eq!(SegHeader::decode(&golden), Err(1));

        let dir = chariots_simnet::TestDir::new("chariots-wal-golden-v1");
        let base = dir.path().join("golden.wal");
        std::fs::write(Wal::segment_path(&base, 0), &golden).unwrap();
        assert!(is_storage_naming(Wal::replay(&base), "version 1"));
        assert!(is_storage_naming(
            Wal::replay_from(&base, WalPosition::default()).map(|_| ()),
            "version 1"
        ));
        assert!(is_storage_naming(Wal::open(&base), "version 1"));
        assert!(is_storage_naming(Wal::open_with(&base, 512), "version 1"));
        // Refused, not clobbered: the file is as it was.
        assert_eq!(std::fs::read(Wal::segment_path(&base, 0)).unwrap(), golden);
    }

    /// The same segment as this format writes it (hex-dumped from this
    /// build): it replays, it is what this build writes, and its entry
    /// frame is byte for byte the transport's golden frame
    /// (`transport.rs::golden_frame_from_the_bytewise_crc_build_still_verifies`).
    #[test]
    fn golden_v2_segment_replays_and_its_frame_is_the_transports() {
        let header_hex = concat!(
            "435345470200010000000000000000002a000000000000002a000000000000000100000000000000",
            "1b6adf8d00000000",
        );
        let transport_frame_hex = concat!(
            "57000000cfd28d872a00000000000000010007000000000000000200000003000000000000000600",
            "00000000000002000000030000006b65790101010000007803000000707574001200000067",
            "6f6c64656e207265636f726420626f647900",
        );
        let golden = unhex(&format!("{header_hex}{transport_frame_hex}"));
        let (header, frame) = golden.split_at(SEG_HEADER_LEN as usize);
        assert_eq!(SegHeader::decode(header), Ok(Some(GOLDEN_SEALED)));
        assert_eq!(GOLDEN_SEALED.encode()[..], *header);
        let mut written = Vec::new();
        frame_entry(&mut written, &golden_entry()).unwrap();
        assert_eq!(written, frame);

        let dir = chariots_simnet::TestDir::new("chariots-wal-golden");
        let base = dir.path().join("golden.wal");
        std::fs::write(Wal::segment_path(&base, 0), &golden).unwrap();
        assert_eq!(Wal::replay(&base).unwrap(), vec![golden_entry()]);

        // And the writer produces exactly these bytes.
        let base = dir.path().join("written.wal");
        let mut wal = Wal::open(&base).unwrap();
        wal.append(&golden_entry()).unwrap();
        wal.rotate().unwrap();
        assert_eq!(std::fs::read(Wal::segment_path(&base, 0)).unwrap(), golden);
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
        assert_eq!(SegHeader::decode(&buf), Ok(Some(h)));
        for i in 0..40 {
            let mut bad = buf;
            bad[i] ^= 0xFF;
            assert_eq!(SegHeader::decode(&bad), Ok(None), "flip at {i} accepted");
        }
        assert_eq!(SegHeader::decode(&buf[..47]), Ok(None), "short header");
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

    /// Invariant (b). Torn means short or CRC-failed. A frame whose CRC
    /// verifies and whose payload is not an entry was written by something
    /// else — it must stop recovery with an error, not pass for a tail.
    #[test]
    fn an_intact_frame_that_is_not_an_entry_is_an_error_not_a_tail() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-foreign");
        let path = dir.path().join("foreign.wal");
        write_wal(&path, &[sample_entry(0, 1)]);
        let seg = Wal::segment_path(&path, 0);
        let mut data = std::fs::read(&seg).unwrap();
        append_frame(&mut data, |b| b.extend_from_slice(b"not an entry")).unwrap();
        frame_entry(&mut data, &sample_entry(1, 2)).unwrap();
        std::fs::write(&seg, &data).unwrap();
        assert!(is_storage_naming(Wal::replay(&path), "not an entry"));
        assert!(is_storage_naming(Wal::open(&path), "not an entry"));
        // The iterator hands out the intact prefix, then the error, then ends.
        let mut replay = Wal::replay_iter(&path).unwrap();
        assert_eq!(replay.next().unwrap().unwrap(), sample_entry(0, 1));
        assert!(replay.next().unwrap().is_err());
        assert!(replay.next().is_none());
    }

    /// Invariant (c). A crash inside `new_active_segment` leaves a numbered
    /// file with a short header; rot can break an intact one. Either way
    /// the segment yields no entries and no error, and restart goes on.
    #[test]
    fn a_segment_with_a_short_or_rotted_header_yields_nothing_and_no_error() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-badheader");
        let path = dir.path().join("badheader.wal");
        write_wal(&path, &[sample_entry(0, 1)]);
        write_wal(&path, &[sample_entry(1, 2)]);
        // Segment 1 (entry 1) rots in its header; segment 2 is ten bytes.
        let rotted = Wal::segment_path(&path, 1);
        let mut data = std::fs::read(&rotted).unwrap();
        data[9] ^= 0xFF;
        std::fs::write(&rotted, &data).unwrap();
        std::fs::write(Wal::segment_path(&path, 2), &data[..10]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![sample_entry(0, 1)]);

        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.position().seq, 3);
        wal.append(&sample_entry(1, 2)).unwrap();
        wal.sync().unwrap();
        // Neither broken file was stamped into something that replays…
        assert_eq!(std::fs::read(&rotted).unwrap(), data);
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        // …and compaction sees both as dead weight.
        let stats = wal.compact(LId(0), 1000, |_| true).unwrap();
        assert_eq!(stats.segments_deleted, 2);
    }

    /// Invariant (d). The WAL's cap is the sockets': an entry one byte over
    /// it is refused before anything is written.
    #[test]
    fn an_entry_over_the_frame_cap_is_refused_and_the_segment_stays_replayable() {
        let mut huge = golden_entry();
        let overhead = chariots_types::encode_to_vec(&huge).len() - huge.record.body.len();
        huge.record.body = Bytes::from(vec![0u8; chariots_simnet::MAX_FRAME_BYTES - overhead + 1]);

        let dir = chariots_simnet::TestDir::new("chariots-wal-cap");
        let path = dir.path().join("cap.wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_entry(0, 1)).unwrap();
        assert!(is_storage_naming(wal.append(&huge), "exceeds cap"));
        assert_eq!((wal.appended(), wal.frame.capacity()), (1, 0));
        // A large entry that does fit is written, and its buffer not kept.
        let mut large = sample_entry(1, 2);
        large.record.body = Bytes::from(vec![7u8; 2 * FRAME_KEEP_BYTES]);
        wal.append(&large).unwrap();
        assert_eq!((wal.appended(), wal.frame.capacity()), (2, 0));
        wal.sync().unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![sample_entry(0, 1), large]);
    }

    /// The old storage codec dropped the trace id the sockets carry; the
    /// one encoding keeps it.
    #[test]
    fn a_traced_record_comes_back_from_replay_with_its_trace_id() {
        let dir = chariots_simnet::TestDir::new("chariots-wal-trace");
        let path = dir.path().join("trace.wal");
        let mut traced = sample_entry(0, 1);
        traced.record = traced.record.with_trace(Some(TraceId(77)));
        write_wal(&path, &[traced.clone(), sample_entry(1, 2)]);
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, vec![traced, sample_entry(1, 2)]);
        let traces: Vec<_> = replayed.iter().map(|e| e.record.trace).collect();
        assert_eq!(traces, vec![Some(TraceId(77)), None]);
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
        let protected_seq = wal.sealed[0].seq;
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
            let mut frames = Vec::new();
            entries
                .iter()
                .map(|e| {
                    frame_entry(&mut frames, e).unwrap();
                    frames.len()
                })
                .collect()
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
