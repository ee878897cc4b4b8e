//! Cold storage for garbage-collected records (§6.1).
//!
//! "If the user chooses not to garbage collect the records then they may
//! employ a cold storage solution to archive older records." This module
//! provides that tier: before the hot log reclaims a prefix, its entries
//! are appended to an archive file — the frames a WAL segment holds and a
//! socket carries, one `Wire`-encoded entry each, but flat, headerless and
//! unsegmented: archives only grow at the tail and are never compacted —
//! and an [`ArchiveReader`] serves reads of collected positions — the
//! substrate for the paper's "time travel" and auditing use cases.
//!
//! The reader keeps only an LId→offset index resident plus a small
//! bounded cache of decoded entries; bodies stay on disk until asked for.
//! An archive written by an earlier build (another entry encoding) fails
//! to open: its frames pass their CRC and are not entries.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use chariots_simnet::FrameReader;
use chariots_types::{ChariotsError, Entry, LId, Result};

use crate::wal::{frame_entry, io_err, next_entry};

/// Decoded entries kept resident by an [`ArchiveReader`]. Small on
/// purpose: archive reads are cold-path (anti-entropy repair, audits).
const READER_CACHE_ENTRIES: usize = 1024;

/// Append-side handle to an archive file.
#[derive(Debug)]
pub struct ArchiveWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Positions strictly below this have been archived.
    archived_below: LId,
}

impl ArchiveWriter {
    /// Opens (creating if absent) the archive at `path`. Existing frames
    /// are scanned (not loaded) to find where archiving left off, and a
    /// final frame cut short — a crash mid-`archive` — is cut off, so that
    /// what is appended next continues the frames a reader can reach. A
    /// whole frame that does not verify is a `Storage` error instead, and the
    /// file is not touched.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let mut archived_below = LId::ZERO;
        let mut frames = FrameReader::new(&file);
        while let Some(entry) = next_entry(&mut frames, &path)? {
            archived_below = entry.lid.next();
        }
        if frames.cut_short() {
            file.set_len(frames.valid_bytes()).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        } else if frames.torn() {
            // A whole frame that does not verify is rot, not a crash: intact
            // frames may sit behind it, in the only copy of positions the
            // hot log has dropped. Nothing is cut, nothing appended.
            return Err(ChariotsError::Storage(format!(
                "{}: the frame at offset {} does not verify; left as it is",
                path.display(),
                frames.valid_bytes()
            )));
        }
        Ok(ArchiveWriter {
            path,
            writer: BufWriter::new(file),
            archived_below,
        })
    }

    /// Archives entries. They must continue the archived prefix in `LId`
    /// order (the GC bound only moves forward, so this is the natural call
    /// pattern); re-archiving already-archived positions is a no-op.
    pub fn archive(&mut self, entries: &[Entry]) -> Result<()> {
        let mut frame = Vec::new();
        for entry in entries {
            if entry.lid < self.archived_below {
                continue; // idempotent re-archive
            }
            if entry.lid != self.archived_below {
                return Err(ChariotsError::Storage(format!(
                    "archive gap: expected {}, got {}",
                    self.archived_below, entry.lid
                )));
            }
            frame.clear();
            frame_entry(&mut frame, entry)?;
            self.writer.write_all(&frame).map_err(io_err)?;
            self.archived_below = entry.lid.next();
        }
        self.writer.flush().map_err(io_err)?;
        self.writer.get_ref().sync_data().map_err(io_err)
    }

    /// Positions strictly below this are safely archived.
    pub fn archived_below(&self) -> LId {
        self.archived_below
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Interior state of an [`ArchiveReader`]: the file handle plus a small
/// FIFO cache of decoded entries.
#[derive(Debug)]
struct ReaderInner {
    /// `None` when no archive file existed at open time (the index is
    /// empty, so no read ever needs it).
    file: Option<File>,
    cache: VecDeque<(LId, Entry)>,
}

/// Read-side handle: a lazily-consulted LId→offset index over the
/// archive file. Only the index (8 bytes per entry) and a bounded cache
/// of decoded entries stay resident; payloads are fetched on demand.
#[derive(Debug)]
pub struct ArchiveReader {
    path: PathBuf,
    /// First archived position; entries are dense from here.
    base: Option<LId>,
    /// Where each entry's frame ends, indexed by `lid - base + 1`, behind
    /// a leading zero: entry `i` occupies `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u64>,
    inner: Mutex<ReaderInner>,
}

impl ArchiveReader {
    /// Opens the archive at `path`, scanning frame boundaries to build
    /// the offset index without retaining any payloads. No archive yet is
    /// an empty reader.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut base = None;
        let mut offsets = vec![0];
        let file = match File::open(&path) {
            Ok(file) => {
                let mut frames = FrameReader::new(&file);
                while let Some(entry) = next_entry(&mut frames, &path)? {
                    base.get_or_insert(entry.lid);
                    offsets.push(frames.valid_bytes());
                }
                Some(file)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(e)),
        };
        Ok(ArchiveReader {
            path,
            base,
            offsets,
            inner: Mutex::new(ReaderInner {
                file,
                cache: VecDeque::new(),
            }),
        })
    }

    /// Reads the archived entry at `lid`, seeking to its frame on disk
    /// (or serving it from the bounded cache).
    pub fn read(&self, lid: LId) -> Result<Entry> {
        // Entries are dense and LId-ordered starting at the first archived
        // position.
        let base = self.base.ok_or(ChariotsError::NotYetAvailable(lid))?;
        if lid < base {
            return Err(ChariotsError::GarbageCollected(lid));
        }
        let at = (lid.0 - base.0) as usize;
        let (Some(&start), Some(&end)) = (self.offsets.get(at), self.offsets.get(at + 1)) else {
            return Err(ChariotsError::NotYetAvailable(lid));
        };
        let inner = &mut *self.inner.lock();
        if let Some((_, e)) = inner.cache.iter().find(|(l, _)| *l == lid) {
            return Ok(e.clone());
        }
        // A non-empty offset index implies the file existed at open time.
        let file = inner
            .file
            .as_mut()
            .ok_or(ChariotsError::NotYetAvailable(lid))?;
        file.seek(SeekFrom::Start(start)).map_err(io_err)?;
        let mut frames = FrameReader::with_chunk(file.take(end - start), (end - start) as usize);
        let entry = match next_entry(&mut frames, &self.path)? {
            Some(entry) if entry.lid == lid => entry,
            // The index said a frame lives here; anything else means the
            // file changed underneath us or rotted.
            _ => {
                return Err(ChariotsError::Storage(format!(
                    "archive frame at offset {start} unreadable for {lid}"
                )))
            }
        };
        if inner.cache.len() >= READER_CACHE_ENTRIES {
            inner.cache.pop_front();
        }
        inner.cache.push_back((lid, entry.clone()));
        Ok(entry)
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams archived entries in `LId` order from disk (nothing is
    /// retained once yielded).
    pub fn iter(&self) -> impl Iterator<Item = Entry> {
        let path = self.path.clone();
        let mut frames = File::open(&path).ok().map(FrameReader::new);
        (0..self.len()).map_while(move |_| next_entry(frames.as_mut()?, &path).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chariots_simnet::{append_frame, TestDir};
    use chariots_types::{DatacenterId, Record, RecordId, TOId, TagSet, VersionVector};

    fn entry(lid: u64) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(0), TOId(lid + 1)),
                VersionVector::new(1),
                TagSet::new(),
                Bytes::from(format!("r{lid}")),
            ),
        )
    }

    #[test]
    fn archive_and_read_back() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("roundtrip.arc");
        let mut w = ArchiveWriter::open(&path).unwrap();
        w.archive(&[entry(0), entry(1), entry(2)]).unwrap();
        assert_eq!(w.archived_below(), LId(3));
        let r = ArchiveReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(&r.read(LId(1)).unwrap().record.body[..], b"r1");
        assert!(matches!(
            r.read(LId(3)),
            Err(ChariotsError::NotYetAvailable(_))
        ));
    }

    #[test]
    fn archive_rejects_gaps_and_tolerates_rearchive() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("gaps.arc");
        let mut w = ArchiveWriter::open(&path).unwrap();
        w.archive(&[entry(0)]).unwrap();
        // Re-archiving position 0 is a no-op…
        w.archive(&[entry(0), entry(1)]).unwrap();
        assert_eq!(w.archived_below(), LId(2));
        // …but skipping position 2 is an error.
        assert!(matches!(
            w.archive(&[entry(3)]),
            Err(ChariotsError::Storage(_))
        ));
    }

    #[test]
    fn archive_resumes_after_reopen() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("resume.arc");
        {
            let mut w = ArchiveWriter::open(&path).unwrap();
            w.archive(&[entry(0), entry(1)]).unwrap();
        }
        let mut w = ArchiveWriter::open(&path).unwrap();
        assert_eq!(w.archived_below(), LId(2));
        w.archive(&[entry(2)]).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
    }

    /// A crash mid-`archive` leaves a torn frame at the tail. The next
    /// writer must cut it off before appending: frames written behind it
    /// would be out of every reader's reach, and the writer after that
    /// would report an archive gap for positions GC has already dropped.
    #[test]
    fn a_torn_tail_is_cut_off_before_appending_behind_it() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("torn.arc");
        let entries: Vec<Entry> = (0..5).map(entry).collect();
        ArchiveWriter::open(&path)
            .unwrap()
            .archive(&entries[..3])
            .unwrap();
        // Chop the file in the middle of the frame of position 2.
        let whole = std::fs::read(&path).unwrap();
        let mut two = Vec::new();
        frame_entry(&mut two, &entries[0]).unwrap();
        frame_entry(&mut two, &entries[1]).unwrap();
        assert!(whole.starts_with(&two));
        std::fs::write(&path, &whole[..two.len() + 5]).unwrap();

        let mut w = ArchiveWriter::open(&path).unwrap();
        assert_eq!(w.archived_below(), LId(2));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), two.len() as u64);
        w.archive(&entries[2..]).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), entries);
        assert_eq!(r.read(LId(4)).unwrap(), entries[4]);
        assert_eq!(ArchiveWriter::open(&path).unwrap().archived_below(), LId(5));
    }

    /// A rotted byte in the middle is not a crash tail: the writer refuses
    /// the file and cuts nothing, so the intact frames behind the bad one
    /// stay on disk for whoever repairs it.
    #[test]
    fn a_rotted_frame_in_the_middle_is_an_error_and_nothing_is_cut() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("rot.arc");
        let entries: Vec<Entry> = (0..5).map(entry).collect();
        ArchiveWriter::open(&path)
            .unwrap()
            .archive(&entries)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mut first = Vec::new();
        frame_entry(&mut first, &entries[0]).unwrap();
        bytes[first.len() + 12] ^= 0x40; // inside the payload of frame 1 of 5
        std::fs::write(&path, &bytes).unwrap();

        let err = ArchiveWriter::open(&path).unwrap_err();
        assert!(matches!(err, ChariotsError::Storage(_)), "{err:?}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "refused, not truncated"
        );
        // The reader still serves the prefix in front of the bad frame.
        assert_eq!(ArchiveReader::open(&path).unwrap().len(), 1);
    }

    /// An archive has no header to carry a version, so an old-format one is
    /// known by its frames: they pass their CRC and are not entries. That
    /// is an error from both handles, never an empty archive.
    #[test]
    fn an_archive_of_another_entry_format_fails_to_open() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("old.arc");
        let mut old = Vec::new();
        // `entry(0)` as format version 1 laid it out.
        append_frame(&mut old, |b| {
            b.extend_from_slice(&0u64.to_le_bytes()); // lid
            b.extend_from_slice(&0u16.to_le_bytes()); // host
            b.extend_from_slice(&1u64.to_le_bytes()); // toid
            b.extend_from_slice(&1u16.to_le_bytes()); // one dependency:
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&0u16.to_le_bytes()); // no tags
            b.extend_from_slice(&2u32.to_le_bytes()); // body
            b.extend_from_slice(b"r0");
        })
        .unwrap();
        std::fs::write(&path, &old).unwrap();
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ChariotsError::Storage(_))
        ));
        assert!(matches!(
            ArchiveWriter::open(&path),
            Err(ChariotsError::Storage(_))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), old, "refused, not truncated");
    }

    #[test]
    fn empty_archive_reads_nothing() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("empty.arc");
        let _ = ArchiveWriter::open(&path).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        assert!(r.is_empty());
        assert!(r.read(LId(0)).is_err());
        // So does one that was never written.
        let r = ArchiveReader::open(dir.path().join("absent.arc")).unwrap();
        assert!(r.is_empty());
        assert!(r.read(LId(0)).is_err());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn reader_serves_reads_with_bounded_cache() {
        let dir = TestDir::new("chariots-archive");
        let path = dir.path().join("bounded.arc");
        let mut w = ArchiveWriter::open(&path).unwrap();
        let entries: Vec<Entry> = (0..64).map(entry).collect();
        w.archive(&entries).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        // Random-access reads hit the offset index, not a resident Vec.
        for lid in [63u64, 0, 31, 7, 63, 0] {
            let e = r.read(LId(lid)).unwrap();
            assert_eq!(e.lid, LId(lid));
            assert_eq!(&e.record.body[..], format!("r{lid}").as_bytes());
        }
        assert!(r.inner.lock().cache.len() <= READER_CACHE_ENTRIES);
        // Streaming iteration sees everything, in order.
        let lids: Vec<u64> = r.iter().map(|e| e.lid.0).collect();
        assert_eq!(lids, (0..64).collect::<Vec<u64>>());
    }
}
