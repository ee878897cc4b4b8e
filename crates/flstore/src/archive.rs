//! Cold storage for garbage-collected records (§6.1).
//!
//! "If the user chooses not to garbage collect the records then they may
//! employ a cold storage solution to archive older records." This module
//! provides that tier: before the hot log reclaims a prefix, its entries
//! are appended to an archive file (the same CRC-framed format as the
//! WAL segments, but flat and unsegmented — archives only grow at the
//! tail and are never compacted), and an [`ArchiveReader`] serves reads
//! of collected positions — the substrate for the paper's "time travel"
//! and auditing use cases.
//!
//! The reader keeps only an LId→offset index resident plus a small
//! bounded cache of decoded entries; bodies stay on disk until asked for.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use chariots_types::{ChariotsError, Entry, LId, Result};

use crate::wal::{encode_entry, read_frame, write_frame, FrameStep};

fn io_err(e: std::io::Error) -> ChariotsError {
    ChariotsError::Storage(e.to_string())
}

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
    /// are scanned (not loaded) to find where archiving left off.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut archived_below = LId::ZERO;
        match File::open(&path) {
            Ok(file) => {
                let mut reader = BufReader::new(file);
                while let FrameStep::Entry(entry, _) = read_frame(&mut reader)? {
                    archived_below = entry.lid.next();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
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
        let mut payload = Vec::new();
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
            payload.clear();
            encode_entry(entry, &mut payload);
            write_frame(&mut self.writer, &payload)?;
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
    /// Byte offset of each entry's frame, indexed by `lid - base`.
    offsets: Vec<u64>,
    inner: Mutex<ReaderInner>,
}

impl ArchiveReader {
    /// Opens the archive at `path`, scanning frame boundaries to build
    /// the offset index without retaining any payloads.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut base = None;
        let mut offsets = Vec::new();
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No archive yet: an empty reader.
                return Ok(ArchiveReader {
                    path,
                    base,
                    offsets,
                    inner: Mutex::new(ReaderInner {
                        file: None,
                        cache: VecDeque::new(),
                    }),
                });
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut reader = BufReader::new(file);
        let mut pos = 0u64;
        loop {
            match read_frame(&mut reader)? {
                FrameStep::Entry(entry, bytes) => {
                    if base.is_none() {
                        base = Some(entry.lid);
                    }
                    offsets.push(pos);
                    pos += bytes;
                }
                FrameStep::Eof | FrameStep::Invalid => break,
            }
        }
        let file = File::open(&path).map_err(io_err)?;
        Ok(ArchiveReader {
            path,
            base,
            offsets,
            inner: Mutex::new(ReaderInner {
                file: Some(file),
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
        let offset = *self
            .offsets
            .get((lid.0 - base.0) as usize)
            .ok_or(ChariotsError::NotYetAvailable(lid))?;
        let inner = &mut *self.inner.lock();
        if let Some((_, e)) = inner.cache.iter().find(|(l, _)| *l == lid) {
            return Ok(e.clone());
        }
        // A non-empty offset index implies the file existed at open time.
        let file = inner
            .file
            .as_mut()
            .ok_or(ChariotsError::NotYetAvailable(lid))?;
        file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        let entry = match read_frame(file)? {
            FrameStep::Entry(entry, _) if entry.lid == lid => *entry,
            // The index said a frame lives here; anything else means the
            // file changed underneath us or rotted.
            _ => {
                return Err(ChariotsError::Storage(format!(
                    "archive frame at offset {offset} unreadable for {lid}"
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
        self.offsets.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Streams archived entries in `LId` order from disk (nothing is
    /// retained once yielded).
    pub fn iter(&self) -> impl Iterator<Item = Entry> {
        let reader = File::open(&self.path).map(BufReader::new);
        let mut remaining = self.offsets.len();
        let mut reader = reader.ok();
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let r = reader.as_mut()?;
            match read_frame(r) {
                Ok(FrameStep::Entry(entry, _)) => {
                    remaining -= 1;
                    Some(*entry)
                }
                _ => None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
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

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chariots-archive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn archive_and_read_back() {
        let path = temp_path("roundtrip.arc");
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn archive_rejects_gaps_and_tolerates_rearchive() {
        let path = temp_path("gaps.arc");
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn archive_resumes_after_reopen() {
        let path = temp_path("resume.arc");
        {
            let mut w = ArchiveWriter::open(&path).unwrap();
            w.archive(&[entry(0), entry(1)]).unwrap();
        }
        let mut w = ArchiveWriter::open(&path).unwrap();
        assert_eq!(w.archived_below(), LId(2));
        w.archive(&[entry(2)]).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_archive_reads_nothing() {
        let path = temp_path("empty.arc");
        let _ = ArchiveWriter::open(&path).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        assert!(r.is_empty());
        assert!(r.read(LId(0)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_serves_reads_with_bounded_cache() {
        let path = temp_path("bounded.arc");
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
        std::fs::remove_file(&path).unwrap();
    }
}
