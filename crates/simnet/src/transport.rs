//! Real-socket transport backend: length-prefixed, CRC-checked frames over
//! `std::net::TcpStream` — and the repository's one framing layer: the WAL,
//! the checkpoints and the archive write their entries with
//! [`append_frame`] and read them back through [`FrameReader`], so a frame
//! on disk is the frame a socket carries.
//!
//! The simulated substrate moves messages over crossbeam channels; this
//! module moves the *same* `Wire`-encoded messages over real TCP sockets so
//! the pipeline's numbers can be hardware-limited instead of
//! simulation-limited. The protocol code upstream is byte-for-byte
//! identical on both backends — only the substrate changes.
//!
//! Pieces:
//!
//! * [`FrameDecoder`] — torn-frame-safe accumulation of the wire format
//!   `[len u32 LE][crc32 u32 LE][payload]`. Corrupt input is rejected,
//!   never panicked on, and a CRC-failed frame does not mis-frame the next
//!   message (the length prefix still delimits it).
//! * [`FrameReader`] — the same decoder over anything that is `Read` and
//!   ends (a file, a connection read until it closes): intact frames, then
//!   whether the source ended cleanly or torn, and how long its valid
//!   prefix is.
//! * [`TcpSender`] — a pooled, reconnecting connection to one peer. Every
//!   message is serialized once, header and payload, straight into the
//!   connection's frame buffer; a flush writes everything buffered in one
//!   `write`. [`send`](TcpSender::send) flushes on the caller's thread,
//!   the one-way [`post`](TcpSender::post) leaves the flush to the
//!   connection's writer thread, so a burst of posts costs one system call
//!   rather than one each.
//! * [`spawn_wire_listener`] — binds `127.0.0.1:0`, decodes inbound frames
//!   into typed messages, and hands them to a callback (one reader thread
//!   per connection, reusable receive buffer).
//! * [`Endpoint`] — where a stage handle sends: the stage's channel or
//!   inbox, or (after [`Endpoint::listen`]) its loopback listener through
//!   a `TcpSender`. The one place where a hop picks its substrate.
//! * [`ReplyTo`] — a reply slot that is a plain channel sender on the
//!   simnet backend and a dial-back (address, token) pair on the TCP
//!   backend, so request/reply RPCs cross the wire without the caller
//!   changing shape.
//!
//! Failures surface as [`ChariotsError::Transport`], which the client
//! retry policy classifies as transient: the sender reconnects on the next
//! call, so a reset mid-burst looks like a failover window, not an outage.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};
use chariots_types::{crc32, ChariotsError, Wire, WireReader};
use crossbeam::channel::Sender;
use parking_lot::Mutex;

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::shutdown::Shutdown;

/// Frame header: `[len u32 LE][crc32 u32 LE]`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on a single frame's payload. A corrupted or hostile length
/// prefix cannot make the decoder allocate more than this.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How often a connection's reader wakes from `read` to poll shutdown.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long shutdown waits for the connection that wakes an accept thread.
/// Loopback connects in microseconds while that thread is alive; if it is
/// not, nothing needs waking.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-endpoint transport counters, registered like the `chariots.wan.*`
/// family: `{prefix}.chariots.transport.{endpoint}.{metric}`.
#[derive(Debug, Clone, Default)]
pub struct TransportMetrics {
    /// Bytes written to sockets (headers included).
    pub bytes_out: Counter,
    /// Bytes of the frames taken off sockets (headers included).
    pub bytes_in: Counter,
    /// Frames successfully sent or decoded.
    pub frames: Counter,
    /// `write` calls that moved bytes to a socket. `frames` sent over
    /// `writes` is how many frames one system call carried.
    pub writes: Counter,
    /// Times a pooled connection had to be re-established.
    pub reconnects: Counter,
    /// Microseconds spent serializing each outbound message.
    pub serialize_us: Histogram,
}

impl TransportMetrics {
    /// Metrics not attached to any registry (reply-path plumbing, tests).
    pub fn detached() -> Self {
        TransportMetrics::default()
    }

    /// Metrics registered under
    /// `{registry name}.chariots.transport.{endpoint}.*`.
    pub fn registered(registry: &MetricsRegistry, endpoint: &str) -> Self {
        let base = format!("{}.chariots.transport.{endpoint}", registry.name());
        TransportMetrics {
            bytes_out: registry.counter(&format!("{base}.bytes_out")),
            bytes_in: registry.counter(&format!("{base}.bytes_in")),
            frames: registry.counter(&format!("{base}.frames")),
            writes: registry.counter(&format!("{base}.writes")),
            reconnects: registry.counter(&format!("{base}.reconnects")),
            serialize_us: registry.histogram(&format!("{base}.serialize_us")),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload failed its CRC. The frame was skipped; decoding can
    /// continue at the next length boundary, but callers normally drop the
    /// connection instead of trusting a stream that has already lied once.
    CrcMismatch,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`]. The decoder is
    /// poisoned — there is no trustworthy boundary to resynchronize at —
    /// and the connection must be dropped.
    TooLarge(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::CrcMismatch => write!(f, "frame failed CRC check"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
        }
    }
}

/// Appends one frame to `buf`: the header, then whatever `fill` writes as
/// the payload, with length and CRC patched in afterwards — the payload is
/// serialized in place, never copied. A payload over [`MAX_FRAME_BYTES`]
/// (which the receiver would refuse) is taken back out of `buf`.
pub fn append_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), FrameError> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    fill(buf);
    let body = start + FRAME_HEADER_BYTES;
    let len = buf.len() - body;
    if len > MAX_FRAME_BYTES {
        buf.truncate(start);
        return Err(FrameError::TooLarge(len));
    }
    let crc = crc32(&buf[body..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The offset of the frame that holds byte `at` of `frames` (complete
/// frames back to back; `at` within them).
fn frame_start(frames: &[u8], at: usize) -> usize {
    let mut start = 0;
    loop {
        let len = u32::from_le_bytes(frames[start..start + 4].try_into().expect("4 bytes"));
        let next = start + FRAME_HEADER_BYTES + len as usize;
        if next > at {
            return start;
        }
        start = next;
    }
}

/// Incremental, torn-frame-safe decoder for the wire format. Feed it raw
/// socket bytes with [`extend`](Self::extend); pull complete payloads with
/// [`next_frame`](Self::next_frame). Yielded payloads are zero-copy slices
/// of the accumulation buffer (frozen `Bytes`), so a decoded record body
/// aliases the receive buffer rather than being copied out of it.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The next complete, CRC-valid payload, `Ok(None)` if more bytes are
    /// needed, or an error. After [`FrameError::CrcMismatch`] the bad
    /// frame has been skipped and decoding may continue; after
    /// [`FrameError::TooLarge`] the decoder stays poisoned.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if self.poisoned {
            return Err(FrameError::TooLarge(MAX_FRAME_BYTES + 1));
        }
        if self.buf.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            self.poisoned = true;
            return Err(FrameError::TooLarge(len));
        }
        if self.buf.len() < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        if crc32(&self.buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len]) != crc {
            // The length prefix still delimits the bad frame, so skip it
            // and stay framed for the next message.
            self.buf.advance(FRAME_HEADER_BYTES + len);
            return Err(FrameError::CrcMismatch);
        }
        let mut frame = self.buf.split_to(FRAME_HEADER_BYTES + len);
        frame.advance(FRAME_HEADER_BYTES);
        Ok(Some(frame.freeze()))
    }
}

/// Frames out of a byte source that ends — a WAL segment, a checkpoint, an
/// archive, a connection read until it closes — through the same
/// [`FrameDecoder`] a listener's bytes go through, so what verifies on a
/// hop is what verifies on disk.
#[derive(Debug)]
pub struct FrameReader<R> {
    source: R,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    valid_bytes: u64,
    /// The source ended inside a frame.
    cut_short: bool,
    /// A whole frame failed its CRC or claimed more than the cap.
    corrupt: bool,
}

impl<R: Read> FrameReader<R> {
    /// A reader of the frames that start where `source` stands.
    pub fn new(source: R) -> Self {
        Self::with_chunk(source, 64 * 1024)
    }

    /// [`new`](Self::new), taking up to `chunk_bytes` from `source` per
    /// read: for a source known to be short (one frame of a known length).
    pub fn with_chunk(source: R, chunk_bytes: usize) -> Self {
        FrameReader {
            source,
            decoder: FrameDecoder::new(),
            chunk: vec![0u8; chunk_bytes],
            valid_bytes: 0,
            cut_short: false,
            corrupt: false,
        }
    }

    /// The next intact frame's payload. `Ok(None)` once there is no more
    /// to take: at the end of the source, or at the first frame that is
    /// cut short, fails its CRC or claims more than [`MAX_FRAME_BYTES`]
    /// ([`torn`](Self::torn) tells which). Nothing past a torn frame is
    /// ever returned.
    pub fn next_frame(&mut self) -> io::Result<Option<Bytes>> {
        while !self.torn() {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.valid_bytes += (FRAME_HEADER_BYTES + payload.len()) as u64;
                    return Ok(Some(payload));
                }
                Ok(None) => match self.source.read(&mut self.chunk) {
                    Ok(0) => {
                        self.cut_short = self.decoder.buffered() > 0;
                        return Ok(None);
                    }
                    Ok(n) => self.decoder.extend(&self.chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                },
                Err(_) => self.corrupt = true,
            }
        }
        Ok(None)
    }

    /// Whether the frames ended at one that did not verify rather than at
    /// the end of the source.
    pub fn torn(&self) -> bool {
        self.cut_short || self.corrupt
    }

    /// Whether the source ended inside a frame — what a write interrupted
    /// by a crash leaves — as opposed to holding a whole frame that fails
    /// its CRC, which may have intact frames behind it.
    pub fn cut_short(&self) -> bool {
        self.cut_short
    }

    /// Bytes of the frames returned so far, headers included: the length
    /// of the source's valid prefix once `next_frame` has returned `None`.
    pub fn valid_bytes(&self) -> u64 {
        self.valid_bytes
    }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// Bytes of posted frames that may wait for the writer thread. A `post`
/// that finds this much pending blocks until a flush has taken it, so a
/// caller that outruns the socket is slowed by TCP back-pressure rather
/// than buffered without bound.
const PENDING_CAP_BYTES: usize = 256 * 1024;

/// How long the writer thread, once a post has woken it, waits for more
/// before it flushes (the kernel's timer slack, 50 µs by default, comes on
/// top). Paced callers post in bursts; without the wait the writer keeps
/// up with them and each `write` carries three or four frames, with it a
/// whole burst. A `send` never waits: it flushes what is there.
const POST_LINGER: Duration = Duration::from_micros(50);

/// Frames handed to the sender and not yet to the socket.
#[derive(Default)]
struct Pending {
    /// Complete frames, back to back.
    frames: Vec<u8>,
    count: u64,
    /// Posters asleep at the cap (a flush wakes them only if there are any).
    blocked: usize,
    /// What the writer thread's last failed flush lost its frames to;
    /// handed to the next `post`.
    failed: Option<ChariotsError>,
    /// The sender is being dropped: the writer flushes what is left and exits.
    closed: bool,
}

struct Connection {
    stream: Option<TcpStream>,
    /// The frames a flush is writing; empty between flushes. It trades
    /// places with `Pending::frames`, so appends go on during a write and
    /// neither allocation is ever given up.
    out: Vec<u8>,
    ever_connected: bool,
}

/// What a [`TcpSender`] shares with its writer thread. Lock order:
/// `conn`, then `pending`.
struct SenderShared {
    peer: SocketAddr,
    metrics: TransportMetrics,
    /// Held for the length of a flush: whoever holds it is the only writer
    /// of the socket.
    conn: std::sync::Mutex<Connection>,
    pending: std::sync::Mutex<Pending>,
    /// Signaled when `pending` stops being empty, and on close.
    work: Condvar,
    /// Signaled when a flush has emptied `pending` and posters wait.
    room: Condvar,
}

impl SenderShared {
    fn conn(&self) -> MutexGuard<'_, Connection> {
        self.conn.lock().expect("a flush panicked")
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().expect("an append panicked")
    }

    /// Appends one frame to `pending`.
    fn append(
        &self,
        pending: &mut Pending,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ChariotsError> {
        append_frame(&mut pending.frames, fill)
            .map_err(|e| ChariotsError::Transport(format!("send to {}: {e}", self.peer)))?;
        pending.count += 1;
        Ok(())
    }

    /// Writes out everything pending — the one way bytes reach the socket.
    /// Because a flush always takes the whole buffer, frames leave in the
    /// order they were appended, whichever thread flushes.
    ///
    /// On an I/O error the connection is dropped and re-dialed once, and
    /// the write resumes at the first frame the old connection did not
    /// take whole. If that fails too, every frame not yet written is lost
    /// and the error is returned; the next flush dials afresh.
    fn flush(&self, conn: &mut Connection) -> Result<(), ChariotsError> {
        let count = {
            let mut pending = self.pending();
            std::mem::swap(&mut pending.frames, &mut conn.out);
            if pending.blocked > 0 {
                self.room.notify_all();
            }
            std::mem::take(&mut pending.count)
        };
        if conn.out.is_empty() {
            // The writer thread, beaten to its frames by a `send`.
            return Ok(());
        }
        let result = self.write_out(conn);
        conn.out.clear();
        if result.is_ok() {
            self.metrics.frames.add(count);
        }
        result
    }

    fn write_out(&self, conn: &mut Connection) -> Result<(), ChariotsError> {
        let mut written = 0;
        let mut last_err: Option<io::Error> = None;
        for _attempt in 0..2 {
            let stream = match &mut conn.stream {
                Some(stream) => stream,
                None => {
                    if conn.ever_connected {
                        self.metrics.reconnects.add(1);
                    }
                    let stream = TcpStream::connect(self.peer).map_err(|e| {
                        ChariotsError::Transport(format!("connect to {} failed: {e}", self.peer))
                    })?;
                    let _ = stream.set_nodelay(true);
                    conn.ever_connected = true;
                    conn.stream.insert(stream)
                }
            };
            match self.write_rest(stream, &conn.out, &mut written) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // Reconnect once and go on: a peer restart between
                    // flushes otherwise loses the frames of exactly one
                    // flush. Frames the dead connection took whole are not
                    // sent twice.
                    conn.stream = None;
                    written = frame_start(&conn.out, written);
                    last_err = Some(e);
                }
            }
        }
        Err(ChariotsError::Transport(format!(
            "send to {} failed: {}",
            self.peer,
            last_err.expect("loop exited via error")
        )))
    }

    /// `write_all` of `out[*written..]` that counts its system calls and
    /// leaves in `written` how far it got.
    fn write_rest(
        &self,
        stream: &mut TcpStream,
        out: &[u8],
        written: &mut usize,
    ) -> io::Result<()> {
        while *written < out.len() {
            match stream.write(&out[*written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.metrics.writes.add(1);
                    self.metrics.bytes_out.add(n as u64);
                    *written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The writer thread: flushes [`POST_LINGER`] after something became
    /// pending, until the sender is dropped and nothing is.
    fn run_writer(&self) {
        loop {
            {
                let mut pending = self.pending();
                while pending.frames.is_empty() {
                    if pending.closed {
                        return;
                    }
                    pending = self.work.wait(pending).expect("an append panicked");
                }
                // Posts signal `work` only when the buffer was empty, so
                // nothing but the drop of the sender cuts this short.
                let _lingered = self
                    .work
                    .wait_timeout_while(pending, POST_LINGER, |p| !p.closed)
                    .expect("an append panicked");
            }
            let result = self.flush(&mut self.conn());
            if let Err(e) = result {
                self.pending().failed = Some(e);
            }
        }
    }
}

/// A pooled, reconnecting TCP connection to one peer, with one buffer of
/// complete frames in front of it and two ways in:
///
/// * [`send`](Self::send) appends the message and flushes on the caller's
///   thread. A failure of that flush is the caller's `Err`. For requests
///   that carry a [`ReplyTo`], batches, and replies.
/// * [`post`](Self::post) appends the message and returns; the
///   connection's writer thread, woken by the first post into an empty
///   buffer, flushes some 50–100 µs later everything posted by then in one
///   `write`. For one-way messages that arrive one record at a time.
///
/// Frames reach the peer in the order the two calls appended them. Flush
/// failures surface as the transient [`ChariotsError::Transport`] and the
/// next flush dials fresh — callers under a retry policy ride straight
/// through.
pub struct TcpSender {
    shared: Arc<SenderShared>,
    /// Started by the first `post`; a sender that only `send`s has none.
    writer: OnceLock<JoinHandle<()>>,
}

impl TcpSender {
    /// A sender for `peer`. The connection is dialed lazily on first flush.
    pub fn new(peer: SocketAddr, metrics: TransportMetrics) -> Self {
        TcpSender {
            shared: Arc::new(SenderShared {
                peer,
                metrics,
                conn: std::sync::Mutex::new(Connection {
                    stream: None,
                    out: Vec::new(),
                    ever_connected: false,
                }),
                pending: std::sync::Mutex::default(),
                work: Condvar::new(),
                room: Condvar::new(),
            }),
            writer: OnceLock::new(),
        }
    }

    /// The peer this sender dials.
    pub fn peer(&self) -> SocketAddr {
        self.shared.peer
    }

    /// Bytes of frames appended and not yet taken by a flush.
    #[cfg(test)]
    fn pending_bytes(&self) -> usize {
        self.shared.pending().frames.len()
    }

    /// Serializes `msg` as one frame behind everything posted so far and
    /// writes all of it before returning.
    pub fn send<T: Wire>(&self, msg: &T) -> Result<(), ChariotsError> {
        self.send_with(|buf| self.encode_timed(msg, buf))
    }

    /// Sends an already-encoded payload as one frame (reply plumbing).
    pub fn send_raw(&self, payload: &[u8]) -> Result<(), ChariotsError> {
        self.send_with(|buf| buf.extend_from_slice(payload))
    }

    fn send_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), ChariotsError> {
        // The connection first: this thread, not the writer, must be the
        // one that writes the frame it is about to append.
        let mut conn = self.shared.conn();
        self.shared.append(&mut self.shared.pending(), fill)?;
        self.shared.flush(&mut conn)
    }

    /// Serializes `msg` as one frame and leaves the writing to the
    /// connection's writer thread. Blocks only while 256 KiB of earlier
    /// posts are still waiting for it.
    ///
    /// `Ok` means queued, not written. If the writer thread's flush fails,
    /// the frames it was writing are lost and the *next* `post` returns
    /// that error instead of queuing its message.
    pub fn post<T: Wire>(&self, msg: &T) -> Result<(), ChariotsError> {
        self.writer.get_or_init(|| {
            let shared = Arc::clone(&self.shared);
            thread::Builder::new()
                .name("transport-writer".into())
                .spawn(move || shared.run_writer())
                .expect("spawn transport writer")
        });
        let mut pending = self.shared.pending();
        while pending.frames.len() >= PENDING_CAP_BYTES {
            pending.blocked += 1;
            pending = self.shared.room.wait(pending).expect("an append panicked");
            pending.blocked -= 1;
        }
        if let Some(e) = pending.failed.take() {
            return Err(e);
        }
        let was_empty = pending.frames.is_empty();
        self.shared
            .append(&mut pending, |buf| self.encode_timed(msg, buf))?;
        drop(pending);
        if was_empty {
            // Later posts find the buffer non-empty and the writer already
            // on its way: one wake-up per flush, not per frame.
            self.shared.work.notify_one();
        }
        Ok(())
    }

    fn encode_timed<T: Wire>(&self, msg: &T, buf: &mut Vec<u8>) {
        let t0 = Instant::now();
        msg.encode(buf);
        self.shared
            .metrics
            .serialize_us
            .record(t0.elapsed().as_micros() as u64);
    }
}

impl Drop for TcpSender {
    /// Everything posted is written (or has failed) before the sender is gone.
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            // A poisoned lock means the writer has panicked and exited.
            if let Ok(mut pending) = self.shared.pending.lock() {
                pending.closed = true;
            }
            self.shared.work.notify_one();
            let _ = writer.join();
        }
    }
}

impl fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpSender")
            .field("peer", &self.shared.peer)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

/// Binds `127.0.0.1:0` and serves inbound frames to `on_frame` until
/// `shutdown` is signaled. Returns the bound address. The accept thread
/// (`{name}-accept`) sleeps in `accept` — a connection is taken the moment
/// it is made — and shutdown wakes it with a connection of its own. One
/// reader thread per connection (`{name}-conn`), each with a reusable
/// receive buffer; threads exit on peer disconnect, any frame error (the
/// stream can no longer be trusted), or shutdown. Linux keeps 15 bytes of
/// a thread's name: a `name` of up to 8 shows whole in both.
pub fn spawn_frame_listener<F>(
    name: &str,
    shutdown: Shutdown,
    metrics: TransportMetrics,
    on_frame: F,
) -> io::Result<SocketAddr>
where
    F: Fn(Bytes) + Send + Clone + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let conn_name = format!("{name}-conn");
    let accepting = shutdown.clone();
    thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if accepting.is_signaled() {
                    break;
                }
                let Ok(stream) = stream else { break };
                let shutdown = accepting.clone();
                let metrics = metrics.clone();
                let on_frame = on_frame.clone();
                let _ = thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || serve_connection(stream, shutdown, metrics, on_frame));
            }
        })
        .map_err(io::Error::other)?;
    // The accept thread sees the flag only when `accept` returns.
    shutdown.on_signal(move || {
        let _ = TcpStream::connect_timeout(&addr, WAKE_CONNECT_TIMEOUT);
    });
    Ok(addr)
}

fn serve_connection<F>(
    stream: TcpStream,
    shutdown: Shutdown,
    metrics: TransportMetrics,
    on_frame: F,
) where
    F: Fn(Bytes),
{
    let _ = stream.set_read_timeout(Some(READ_POLL_INTERVAL));
    let mut frames = FrameReader::new(stream);
    while !shutdown.is_signaled() {
        match frames.next_frame() {
            Ok(Some(payload)) => {
                metrics
                    .bytes_in
                    .add((FRAME_HEADER_BYTES + payload.len()) as u64);
                metrics.frames.add(1);
                on_frame(payload);
            }
            // The peer is gone, or the stream failed framing once and cannot
            // be trusted again: drop the connection, the sender reconnects.
            Ok(None) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
}

/// Like [`spawn_frame_listener`], but decodes each frame into `T` and
/// silently drops frames that fail to decode (the CRC already vouched for
/// transport integrity; a decode failure means a protocol mismatch).
pub fn spawn_wire_listener<T, F>(
    name: &str,
    shutdown: Shutdown,
    metrics: TransportMetrics,
    on_msg: F,
) -> io::Result<SocketAddr>
where
    T: Wire,
    F: Fn(T) + Send + Clone + 'static,
{
    spawn_frame_listener(name, shutdown, metrics, move |frame| {
        if let Some(msg) = chariots_types::decode_exact::<T>(frame) {
            on_msg(msg);
        }
    })
}

/// Where one hop's messages go — decided once, when the deployment called
/// [`listen`](Self::listen) for the receiving stage or did not.
pub enum Endpoint<T> {
    /// The channel the stage's thread receives on.
    Channel(Sender<T>),
    /// Any other way into the stage (the queues' token inbox).
    Inbox(Arc<dyn Fn(T) + Send + Sync>),
    /// The stage's listener, and the one of the two above that it feeds.
    Tcp(Arc<TcpSender>, Arc<Endpoint<T>>),
}

impl<T> Clone for Endpoint<T> {
    fn clone(&self) -> Self {
        match self {
            Endpoint::Channel(tx) => Endpoint::Channel(tx.clone()),
            Endpoint::Inbox(put) => Endpoint::Inbox(Arc::clone(put)),
            Endpoint::Tcp(wire, local) => Endpoint::Tcp(Arc::clone(wire), Arc::clone(local)),
        }
    }
}

// The senders are inlined: `read_mix` shows a call more per RPC.
impl<T: Wire + Send + 'static> Endpoint<T> {
    /// Delivers `msg`; over TCP it is on the socket when this returns. A
    /// stage that is gone is `ShutDown`, a failed write `Transport`.
    #[inline]
    pub fn send(&self, msg: T) -> Result<(), ChariotsError> {
        match self {
            Endpoint::Tcp(wire, _) => wire.send(&msg),
            local => local.send_local(msg),
        }
    }

    /// [`send`](Self::send), except that over TCP the write is left to the
    /// connection's writer thread ([`TcpSender::post`]): for one-way
    /// messages nobody waits on.
    #[inline]
    pub fn post(&self, msg: T) -> Result<(), ChariotsError> {
        match self {
            Endpoint::Tcp(wire, _) => wire.post(&msg),
            local => local.send_local(msg),
        }
    }

    /// Hands `msg` to the stage itself, past any listener: for the
    /// traffic of a harness that models the machine, not its clients.
    #[inline]
    pub fn send_local(&self, msg: T) -> Result<(), ChariotsError> {
        match self {
            Endpoint::Channel(tx) => tx.send(msg).map_err(|_| ChariotsError::ShutDown),
            Endpoint::Inbox(put) => {
                put(msg);
                Ok(())
            }
            Endpoint::Tcp(_, local) => local.send_local(msg),
        }
    }

    /// Puts the stage on TCP: a loopback listener (threads `{name}-accept`,
    /// `{name}-conn`) feeds what this endpoint feeds, raw — station
    /// arrivals and spans stay with the sender — and the result dials it.
    pub fn listen(
        &self,
        name: &str,
        shutdown: Shutdown,
        metrics: TransportMetrics,
    ) -> io::Result<Endpoint<T>> {
        let local = Arc::new(self.clone());
        let feeds = Arc::clone(&local);
        let addr = spawn_wire_listener(name, shutdown, metrics.clone(), move |msg: T| {
            let _ = feeds.send_local(msg);
        })?;
        let wire = Arc::new(TcpSender::new(addr, metrics));
        Ok(Endpoint::Tcp(wire, local))
    }
}

// ---------------------------------------------------------------------------
// Reply hub: request/reply over one-way frames
// ---------------------------------------------------------------------------

type ReplyCallback = Box<dyn FnOnce(Option<WireReader>) + Send>;

/// The process-global reply endpoint. When a [`ReplyTo::Local`] is
/// serialized for the wire, the hub registers a one-shot waiter and the
/// frame carries `(hub address, token)` instead of the channel. The server
/// dials back with `[token u64][has u8][reply bytes]`; the hub routes the
/// payload to the waiter. Replies for RPCs whose request frame was lost
/// simply never arrive — callers surface that through their own error
/// paths, exactly as a crashed simnet stage would.
pub struct ReplyHub {
    addr: SocketAddr,
    next_token: AtomicU64,
    waiters: Arc<Mutex<HashMap<u64, ReplyCallback>>>,
}

impl ReplyHub {
    /// The loopback address servers dial back to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a one-shot waiter; returns its token.
    pub fn register(&self, cb: ReplyCallback) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.waiters.lock().insert(token, cb);
        token
    }

    /// Waiters currently parked (diagnostics / tests).
    pub fn pending(&self) -> usize {
        self.waiters.lock().len()
    }
}

/// The lazily started process-global [`ReplyHub`]. The accept thread is a
/// daemon: it lives for the process and needs no shutdown plumbing.
pub fn reply_hub() -> &'static ReplyHub {
    static HUB: OnceLock<ReplyHub> = OnceLock::new();
    HUB.get_or_init(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind reply hub on loopback");
        let addr = listener.local_addr().expect("reply hub local addr");
        let waiters: Arc<Mutex<HashMap<u64, ReplyCallback>>> = Arc::default();
        let thread_waiters = Arc::clone(&waiters);
        thread::Builder::new()
            .name("reply-hub".into())
            .spawn(move || {
                for stream in listener.incoming().flatten() {
                    let waiters = Arc::clone(&thread_waiters);
                    let _ = thread::Builder::new()
                        .name("reply-hub-conn".into())
                        .spawn(move || hub_serve(stream, waiters));
                }
            })
            .expect("spawn reply hub accept thread");
        ReplyHub {
            addr,
            next_token: AtomicU64::new(1),
            waiters,
        }
    })
}

fn hub_serve(stream: TcpStream, waiters: Arc<Mutex<HashMap<u64, ReplyCallback>>>) {
    let mut frames = FrameReader::new(stream);
    while let Ok(Some(payload)) = frames.next_frame() {
        let mut r = WireReader::new(payload);
        let (Some(token), Some(has)) = (r.u64(), r.u8()) else {
            return;
        };
        let reply = if has == 1 { Some(r) } else { None };
        let cb = waiters.lock().remove(&token);
        if let Some(cb) = cb {
            cb(reply);
        }
    }
}

/// Pooled dial-back senders, keyed by hub address. Every server in the
/// process reuses one connection per client hub rather than dialing per
/// reply.
fn reply_sender(addr: SocketAddr) -> Arc<TcpSender> {
    static POOL: OnceLock<Mutex<HashMap<SocketAddr, Arc<TcpSender>>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(
        pool.lock()
            .entry(addr)
            .or_insert_with(|| Arc::new(TcpSender::new(addr, TransportMetrics::detached()))),
    )
}

fn send_reply_frame(addr: SocketAddr, payload: &[u8]) -> bool {
    reply_sender(addr).send_raw(payload).is_ok()
}

/// The wire half of a [`ReplyTo`]: where to dial back, and which waiter
/// token to complete. One-shot; dropping it unanswered sends a tombstone
/// so the waiter's channel disconnects instead of hanging (mirroring how
/// dropping a crossbeam `Sender` fails the paired `recv`).
pub struct RemoteReply {
    addr: SocketAddr,
    token: u64,
    sent: AtomicBool,
    forwarded: AtomicBool,
}

impl RemoteReply {
    fn send_value<T: Wire>(&self, value: &T) -> bool {
        if self.sent.swap(true, Ordering::AcqRel) {
            return false;
        }
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.token.to_le_bytes());
        buf.push(1);
        value.encode(&mut buf);
        send_reply_frame(self.addr, &buf)
    }
}

impl Drop for RemoteReply {
    fn drop(&mut self) {
        if self.sent.load(Ordering::Acquire) || self.forwarded.load(Ordering::Acquire) {
            return;
        }
        let mut buf = Vec::with_capacity(9);
        buf.extend_from_slice(&self.token.to_le_bytes());
        buf.push(0);
        let _ = send_reply_frame(self.addr, &buf);
    }
}

impl fmt::Debug for RemoteReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RemoteReply({} #{})", self.addr, self.token)
    }
}

/// A reply slot that works on both backends. On the simnet path it wraps
/// the existing crossbeam sender unchanged; when a request is serialized
/// for TCP, the local sender becomes a hub registration and travels as a
/// dial-back `(address, token)` pair. Re-serializing a `Remote` (a hop
/// forwarding the request onward) writes the same pair, so multi-hop
/// pipelines deliver the reply straight to the original caller.
pub enum ReplyTo<T> {
    /// In-process delivery over a channel.
    Local(Sender<T>),
    /// Dial-back delivery to another process's reply hub.
    Remote(RemoteReply),
}

impl<T> ReplyTo<T> {
    /// Wraps a channel sender (the simnet path).
    pub fn local(tx: Sender<T>) -> Self {
        ReplyTo::Local(tx)
    }
}

impl<T: Wire> ReplyTo<T> {
    /// Delivers the reply. Returns false if the receiver is gone, exactly
    /// like `Sender::send(..).is_ok()` — every call site treats that the
    /// same way it treated a dropped channel.
    pub fn send(&self, value: T) -> bool {
        match self {
            ReplyTo::Local(tx) => tx.send(value).is_ok(),
            ReplyTo::Remote(remote) => remote.send_value(&value),
        }
    }
}

impl<T> fmt::Debug for ReplyTo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplyTo::Local(_) => write!(f, "ReplyTo::Local"),
            ReplyTo::Remote(r) => write!(f, "ReplyTo::Remote({r:?})"),
        }
    }
}

impl<T: Wire + Send + 'static> Wire for ReplyTo<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReplyTo::Local(tx) => {
                let hub = reply_hub();
                let tx = tx.clone();
                let token = hub.register(Box::new(move |reply| {
                    if let Some(mut r) = reply {
                        if let Some(value) = T::decode(&mut r) {
                            let _ = tx.send(value);
                        }
                    }
                    // A tombstone (or undecodable reply) just drops `tx`,
                    // disconnecting the waiter's receive side.
                }));
                hub.addr().to_string().encode(buf);
                buf.extend_from_slice(&token.to_le_bytes());
            }
            ReplyTo::Remote(remote) => {
                remote.forwarded.store(true, Ordering::Release);
                remote.addr.to_string().encode(buf);
                buf.extend_from_slice(&remote.token.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut WireReader) -> Option<Self> {
        let addr: SocketAddr = String::decode(r)?.parse().ok()?;
        let token = r.u64()?;
        Some(ReplyTo::Remote(RemoteReply {
            addr,
            token,
            sent: AtomicBool::new(false),
            forwarded: AtomicBool::new(false),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chariots_types::{
        encode_to_vec, DatacenterId, Entry, LId, Record, RecordId, TOId, TagSet, VersionVector,
    };
    use crossbeam::channel::{bounded, unbounded, RecvTimeoutError};

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(&mut out, |buf| buf.extend_from_slice(payload)).unwrap();
        out
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A listener that hands every decoded `T` to the returned channel.
    fn collecting_listener<T: Wire + Send + 'static>(
        shutdown: &Shutdown,
    ) -> (SocketAddr, crossbeam::channel::Receiver<T>) {
        let (tx, rx) = unbounded::<T>();
        let addr = spawn_wire_listener(
            "test",
            shutdown.clone(),
            TransportMetrics::detached(),
            move |msg| {
                let _ = tx.send(msg);
            },
        )
        .unwrap();
        (addr, rx)
    }

    fn entry(lid: u64, body: &'static [u8]) -> Entry {
        Entry::new(
            LId(lid),
            Record::new(
                RecordId::new(DatacenterId(0), TOId(lid + 1)),
                VersionVector::new(2),
                TagSet::new(),
                Bytes::from_static(body),
            ),
        )
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 300], b"hello".to_vec()];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
        // Feed one byte at a time: every torn boundary is exercised.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.extend(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn crc_mismatch_skips_frame_and_stays_framed() {
        let mut stream = frame_bytes(b"first");
        let mut bad = frame_bytes(b"second");
        let last = bad.len() - 1;
        bad[last] ^= 0x40; // flip a payload bit
        stream.extend_from_slice(&bad);
        stream.extend_from_slice(&frame_bytes(b"third"));

        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"first");
        assert_eq!(dec.next_frame(), Err(FrameError::CrcMismatch));
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"third");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_poisons_instead_of_allocating() {
        let mut dec = FrameDecoder::new();
        let mut header = (u32::MAX).to_le_bytes().to_vec();
        header.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&header);
        assert!(matches!(dec.next_frame(), Err(FrameError::TooLarge(_))));
        // Poisoned: even after more bytes arrive it refuses to resync.
        dec.extend(&frame_bytes(b"late"));
        assert!(matches!(dec.next_frame(), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn sender_reaches_listener_with_typed_messages() {
        let shutdown = Shutdown::new();
        let registry = MetricsRegistry::new("dc0");
        let rx_metrics = TransportMetrics::registered(&registry, "store0");
        let (tx, rx) = unbounded::<Vec<Entry>>();
        let addr = spawn_wire_listener("test", shutdown.clone(), rx_metrics, move |batch| {
            let _ = tx.send(batch);
        })
        .unwrap();

        let tx_metrics = TransportMetrics::registered(&registry, "client0");
        let sender = TcpSender::new(addr, tx_metrics.clone());
        let batch = vec![entry(7, b"alpha"), entry(8, b"beta")];
        sender.send(&batch).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, batch);
        assert_eq!(tx_metrics.frames.get(), 1);
        assert!(tx_metrics.bytes_out.get() > FRAME_HEADER_BYTES as u64);
        assert_eq!(tx_metrics.reconnects.get(), 0);
        let snap = registry.snapshot();
        assert!(snap.counters["dc0.chariots.transport.client0.bytes_out"] > 0);
        shutdown.signal();
    }

    /// The accept thread sleeps in `accept`; shutdown wakes it with a
    /// connection of its own and it goes, taking the socket with it.
    #[test]
    fn shutdown_ends_the_accept_thread() {
        let shutdown = Shutdown::new();
        let addr = spawn_frame_listener(
            "test",
            shutdown.clone(),
            TransportMetrics::detached(),
            |_frame| {},
        )
        .unwrap();
        assert!(TcpStream::connect(addr).is_ok(), "listening");
        shutdown.signal();
        let deadline = Instant::now() + Duration::from_secs(5);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "still accepting");
            thread::yield_now();
        }
    }

    #[test]
    fn sender_reconnects_after_listener_side_drop() {
        let shutdown = Shutdown::new();
        let (tx, rx) = unbounded::<Vec<Entry>>();
        let seen = tx.clone();
        let metrics = TransportMetrics::detached();
        let addr = spawn_wire_listener(
            "test",
            shutdown.clone(),
            TransportMetrics::detached(),
            move |batch| {
                let _ = seen.send(batch);
            },
        )
        .unwrap();
        drop(tx);

        let sender = TcpSender::new(addr, metrics.clone());
        sender.send(&vec![entry(1, b"a")]).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();

        // Kill the server-side connection by poisoning it with a frame the
        // listener rejects (bad CRC): the handler drops the stream.
        {
            let mut conn = sender.shared.conn();
            let mut raw = frame_bytes(b"garbage");
            let last = raw.len() - 1;
            raw[last] ^= 1;
            conn.stream.as_mut().unwrap().write_all(&raw).unwrap();
        }

        // Depending on timing the first resend may be buffered by the
        // kernel before the reset is visible; the retry-once-in-send plus
        // at most one more call always lands it.
        let mut delivered = false;
        for _ in 0..50 {
            if sender.send(&vec![entry(2, b"b")]).is_ok()
                && rx.recv_timeout(Duration::from_millis(200)).is_ok()
            {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "message re-delivered after connection drop");
        assert!(metrics.reconnects.get() >= 1);
        shutdown.signal();
    }

    /// A frame written by the build before the CRC was table-sliced
    /// (hex-dumped from it) still verifies, and is what this build writes.
    #[test]
    fn golden_frame_from_the_bytewise_crc_build_still_verifies() {
        let golden = unhex(concat!(
            "57000000cfd28d872a00000000000000010007000000000000000200000003000000000000000600",
            "00000000000002000000030000006b65790101010000007803000000707574001200000067",
            "6f6c64656e207265636f726420626f647900",
        ));
        let entry = Entry::new(
            LId(42),
            Record::new(
                RecordId::new(DatacenterId(1), TOId(7)),
                VersionVector::from_entries(vec![TOId(3), TOId(6)]),
                TagSet::new()
                    .with(chariots_types::Tag::with_value("key", "x"))
                    .with(chariots_types::Tag::key("put")),
                Bytes::from_static(b"golden record body"),
            ),
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&golden);
        let payload = dec.next_frame().unwrap().expect("one whole frame");
        assert_eq!(
            chariots_types::decode_exact::<Entry>(payload),
            Some(entry.clone())
        );
        assert_eq!(dec.buffered(), 0);
        assert_eq!(frame_bytes(&encode_to_vec(&entry)), golden);
    }

    #[test]
    fn oversized_payload_is_refused_and_leaves_the_buffer_as_it_was() {
        let mut buf = frame_bytes(b"kept");
        let before = buf.clone();
        let err = append_frame(&mut buf, |b| b.resize(b.len() + MAX_FRAME_BYTES + 1, 0));
        assert_eq!(err, Err(FrameError::TooLarge(MAX_FRAME_BYTES + 1)));
        assert_eq!(buf, before);
    }

    #[test]
    fn concurrent_posts_arrive_in_each_threads_order() {
        const THREADS: u64 = 4;
        const EACH: u64 = 5_000;
        let shutdown = Shutdown::new();
        let (addr, rx) = collecting_listener::<(u64, u64)>(&shutdown);
        let sender = TcpSender::new(addr, TransportMetrics::detached());
        let start = std::sync::Barrier::new(THREADS as usize);
        thread::scope(|s| {
            for id in 0..THREADS {
                let (sender, start) = (&sender, &start);
                s.spawn(move || {
                    start.wait();
                    for seq in 0..EACH {
                        sender.post(&(id, seq)).unwrap();
                    }
                });
            }
        });
        let mut next = [0u64; THREADS as usize];
        for _ in 0..THREADS * EACH {
            let (id, seq) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(
                seq, next[id as usize],
                "thread {id}: lost, duplicated or reordered"
            );
            next[id as usize] += 1;
        }
        assert_eq!(next, [EACH; THREADS as usize]);
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a frame came twice"
        );
        shutdown.signal();
    }

    #[test]
    fn a_burst_of_posts_leaves_in_fewer_writes_than_frames() {
        const FRAMES: u64 = 1_000;
        let shutdown = Shutdown::new();
        let (addr, rx) = collecting_listener::<u64>(&shutdown);
        let metrics = TransportMetrics::detached();
        let sender = TcpSender::new(addr, metrics.clone());
        {
            // No flush can start while the connection is held, so the whole
            // burst (16 KB, well under the cap) is pending when it ends.
            let _held = sender.shared.conn();
            for i in 0..FRAMES {
                sender.post(&i).unwrap();
            }
            assert_eq!(sender.pending_bytes() as u64, FRAMES * (8 + 8));
        }
        for i in 0..FRAMES {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), i);
        }
        assert_eq!(metrics.frames.get(), FRAMES);
        assert_eq!(metrics.bytes_out.get(), FRAMES * (8 + 8));
        let writes = metrics.writes.get();
        assert!(
            (1..FRAMES).contains(&writes),
            "{writes} writes for {FRAMES} frames"
        );
        shutdown.signal();
    }

    #[test]
    fn post_blocks_at_the_cap_until_the_peer_reads() {
        const FRAME: usize = 64 * 1024;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpSender::new(listener.local_addr().unwrap(), TransportMetrics::detached());
        let posted = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let i = posted.load(Ordering::SeqCst);
                    sender.post(&Bytes::from(vec![i as u8; FRAME])).unwrap();
                    posted.store(i + 1, Ordering::SeqCst);
                }
            });
            // The peer accepts and does not read. The kernel's buffers fill,
            // the writer thread blocks in `write`, the pending buffer fills
            // to the cap, and the poster stops — however much the kernel took.
            let (conn, _) = listener.accept().unwrap();
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut seen = u64::MAX;
            loop {
                assert!(Instant::now() < deadline, "the poster never blocked");
                thread::sleep(Duration::from_millis(100));
                let pending = sender.pending_bytes();
                assert!(
                    pending <= PENDING_CAP_BYTES + FRAME + 12,
                    "{pending} B pending"
                );
                let now = posted.load(Ordering::SeqCst);
                if now == seen && pending >= PENDING_CAP_BYTES {
                    break;
                }
                seen = now;
            }
            // Draining the socket lets the blocked `post`, frame `seen`, go
            // through; the poster then sees `stop` and the scope can end.
            stop.store(true, Ordering::SeqCst);
            let mut frames = FrameReader::new(&conn);
            for i in 0..=seen {
                let frame = frames.next_frame().unwrap().expect("a frame short");
                let body: Bytes = chariots_types::decode_exact(frame).unwrap();
                assert_eq!(body.len(), FRAME);
                assert!(body.iter().all(|&b| b == i as u8), "frame {i} corrupt");
            }
        });
    }

    #[test]
    fn dropping_the_sender_delivers_everything_posted() {
        let shutdown = Shutdown::new();
        let (addr, rx) = collecting_listener::<u64>(&shutdown);
        let sender = TcpSender::new(addr, TransportMetrics::detached());
        for i in 0..500u64 {
            sender.post(&i).unwrap();
        }
        drop(sender);
        for i in 0..500u64 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), i);
        }
        shutdown.signal();
    }

    #[test]
    fn post_after_a_listener_side_drop_goes_over_a_fresh_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let metrics = TransportMetrics::detached();
        let sender = TcpSender::new(listener.local_addr().unwrap(), metrics.clone());
        let next_u64 = |conn: &TcpStream| {
            let frame = FrameReader::new(conn).next_frame().unwrap().unwrap();
            chariots_types::decode_exact::<u64>(frame).unwrap()
        };

        sender.post(&1u64).unwrap();
        let (first, _) = listener.accept().unwrap();
        assert_eq!(next_u64(&first), 1);

        // The listener drops the connection with a frame unread, which
        // resets it. That frame is lost: the kernel had taken it.
        sender.post(&2u64).unwrap();
        let mut probe = [0u8; 1];
        first.peek(&mut probe).unwrap();
        drop(first);
        // Block until the reset has reached the sender's socket.
        let sender_side = sender
            .shared
            .conn()
            .stream
            .as_ref()
            .unwrap()
            .try_clone()
            .unwrap();
        assert!(sender_side.peek(&mut probe).is_err());

        sender.post(&3u64).unwrap();
        let (second, _) = listener.accept().unwrap();
        assert_eq!(next_u64(&second), 3);
        assert_eq!(metrics.reconnects.get(), 1);
    }

    #[test]
    fn a_failed_background_flush_is_reported_by_the_next_post() {
        // Nobody listens at this address any more.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let sender = TcpSender::new(addr, TransportMetrics::detached());
        sender.post(&1u64).unwrap();
        // The writer thread's flush fails to connect and leaves its error.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sender.shared.pending().failed.is_none() {
            assert!(Instant::now() < deadline, "the flush never failed");
            thread::yield_now();
        }
        assert!(matches!(
            sender.post(&2u64),
            Err(ChariotsError::Transport(_))
        ));
        assert_eq!(sender.pending_bytes(), 0, "the refused post was not queued");
        // Reported once; the sender is usable again.
        sender.post(&3u64).unwrap();
    }

    #[test]
    fn send_arrives_after_the_posts_before_it() {
        let shutdown = Shutdown::new();
        let (addr, rx) = collecting_listener::<u64>(&shutdown);
        let sender = TcpSender::new(addr, TransportMetrics::detached());
        let mut n = 0u64;
        for _round in 0..200 {
            for _ in 0..5 {
                sender.post(&n).unwrap();
                n += 1;
            }
            sender.send(&n).unwrap();
            n += 1;
            assert_eq!(sender.pending_bytes(), 0, "a send leaves nothing behind");
        }
        for i in 0..n {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), i);
        }
        shutdown.signal();
    }

    #[test]
    fn an_endpoint_delivers_over_every_substrate_and_reports_a_stage_that_is_gone() {
        let (tx, rx) = unbounded::<u64>();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let channel = Endpoint::Channel(tx);
        let inbox = Endpoint::Inbox(Arc::new(move |n: u64| sink.lock().push(n)));
        let shutdown = Shutdown::new();
        let listen = |local: &Endpoint<u64>| {
            local
                .listen("test", shutdown.clone(), TransportMetrics::detached())
                .unwrap()
        };
        let (wired, relayed) = (listen(&channel), listen(&inbox));
        channel.send(1).unwrap();
        wired.send(2).unwrap();
        wired.post(3).unwrap();
        for expected in 1..=3 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(expected));
        }
        inbox.send(4).unwrap();
        inbox.post(5).unwrap();
        relayed.clone().send(6).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while *seen.lock() != [4, 5, 6] {
            assert!(Instant::now() < deadline, "saw {:?}", seen.lock());
            thread::yield_now();
        }

        // The listener gone: the connection it held goes within a poll
        // interval and the re-dial is refused — the transport's error.
        shutdown.signal();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(wired.send(7), Err(ChariotsError::Transport(_))) {
            assert!(Instant::now() < deadline, "sends never failed");
            thread::sleep(Duration::from_millis(10));
        }
        // Past the dead listener the stage is still there…
        wired.send_local(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        // …and the stage gone, a local endpoint says so.
        drop(rx);
        assert_eq!(channel.send(8), Err(ChariotsError::ShutDown));
        assert_eq!(channel.post(8), Err(ChariotsError::ShutDown));
        assert_eq!(wired.send_local(8), Err(ChariotsError::ShutDown));
    }

    #[test]
    fn reply_to_roundtrips_over_the_hub() {
        let (tx, rx) = bounded::<chariots_types::Result<Vec<(TOId, LId)>>>(1);
        let encoded = encode_to_vec(&ReplyTo::local(tx));
        let decoded: ReplyTo<chariots_types::Result<Vec<(TOId, LId)>>> =
            chariots_types::decode_exact(Bytes::from(encoded)).unwrap();
        assert!(matches!(decoded, ReplyTo::Remote(_)));
        assert!(decoded.send(Ok(vec![(TOId(3), LId(9))])));
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, Ok(vec![(TOId(3), LId(9))]));
    }

    #[test]
    fn dropping_remote_reply_disconnects_the_waiter() {
        let (tx, rx) = bounded::<LId>(1);
        let encoded = encode_to_vec(&ReplyTo::local(tx));
        let decoded: ReplyTo<LId> = chariots_types::decode_exact(Bytes::from(encoded)).unwrap();
        drop(decoded); // tombstone
        match rx.recv_timeout(Duration::from_secs(5)) {
            Err(RecvTimeoutError::Disconnected) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn forwarded_reply_suppresses_tombstone_and_still_delivers() {
        let (tx, rx) = bounded::<LId>(1);
        let hop1 = encode_to_vec(&ReplyTo::local(tx));
        let mid: ReplyTo<LId> = chariots_types::decode_exact(Bytes::from(hop1)).unwrap();
        // The middle hop forwards the request onward: re-encode, then drop
        // its copy. The tombstone must be suppressed.
        let hop2 = encode_to_vec(&mid);
        drop(mid);
        let end: ReplyTo<LId> = chariots_types::decode_exact(Bytes::from(hop2)).unwrap();
        assert!(end.send(LId(42)));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), LId(42));
    }

    #[test]
    fn double_send_on_remote_reply_is_rejected() {
        let (tx, rx) = bounded::<LId>(2);
        let encoded = encode_to_vec(&ReplyTo::local(tx));
        let decoded: ReplyTo<LId> = chariots_types::decode_exact(Bytes::from(encoded)).unwrap();
        assert!(decoded.send(LId(1)));
        assert!(!decoded.send(LId(2)), "remote replies are one-shot");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), LId(1));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Cutting the stream at *every* byte boundary never loses,
            /// duplicates, or corrupts a frame: the decoder yields exactly
            /// the frames whose bytes have fully arrived.
            #[test]
            fn torn_frames_at_every_boundary(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..64), 1..6),
                cut_seed in any::<u64>(),
            ) {
                let stream: Vec<u8> =
                    payloads.iter().flat_map(|p| frame_bytes(p)).collect();
                let cut = (cut_seed as usize) % (stream.len() + 1);
                let mut dec = FrameDecoder::new();
                let mut got = Vec::new();
                for part in [&stream[..cut], &stream[cut..]] {
                    dec.extend(part);
                    while let Some(f) = dec.next_frame().unwrap() {
                        got.push(f.to_vec());
                    }
                }
                prop_assert_eq!(got, payloads);
            }

            /// A bit flip inside a payload is always caught by the CRC:
            /// the poisoned frame is rejected, every other frame decodes
            /// intact, and the decoder never panics or mis-frames.
            #[test]
            fn payload_bit_flip_is_rejected_without_desync(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..64), 1..6),
                victim_seed in any::<u64>(),
                bit in 0u8..8,
            ) {
                let victim = (victim_seed as usize) % payloads.len();
                let mut stream = Vec::new();
                let mut flip_at = None;
                for (i, p) in payloads.iter().enumerate() {
                    let start = stream.len();
                    stream.extend_from_slice(&frame_bytes(p));
                    if i == victim {
                        let off = (victim_seed as usize) % p.len();
                        flip_at = Some(start + FRAME_HEADER_BYTES + off);
                    }
                }
                stream[flip_at.unwrap()] ^= 1 << bit;

                let mut dec = FrameDecoder::new();
                dec.extend(&stream);
                let mut got = Vec::new();
                let mut crc_errors = 0;
                loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => got.push(f.to_vec()),
                        Ok(None) => break,
                        Err(FrameError::CrcMismatch) => crc_errors += 1,
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                prop_assert_eq!(crc_errors, 1);
                let expected: Vec<Vec<u8>> = payloads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != victim)
                    .map(|(_, p)| p.clone())
                    .collect();
                prop_assert_eq!(got, expected);
            }

            /// Flipping a bit *anywhere* (headers included) never panics
            /// the decoder, and every frame it does yield carried a valid
            /// CRC for its claimed extent.
            #[test]
            fn arbitrary_corruption_never_panics(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..32), 1..5),
                pos_seed in any::<u64>(),
                bit in 0u8..8,
            ) {
                let mut stream: Vec<u8> =
                    payloads.iter().flat_map(|p| frame_bytes(p)).collect();
                let pos = (pos_seed as usize) % stream.len();
                stream[pos] ^= 1 << bit;
                let mut dec = FrameDecoder::new();
                dec.extend(&stream);
                // Bounded pulls: poison and torn tails both terminate.
                for _ in 0..(payloads.len() + 2) {
                    match dec.next_frame() {
                        Ok(Some(_)) | Err(FrameError::CrcMismatch) => {}
                        Ok(None) | Err(FrameError::TooLarge(_)) => break,
                    }
                }
            }
        }
    }
}
