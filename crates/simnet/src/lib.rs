//! # chariots-simnet
//!
//! Simulated cluster substrate for the Chariots reproduction.
//!
//! The paper evaluates on a private Xeon cluster and on AWS; this crate
//! replaces that hardware with controllable software models (see
//! `DESIGN.md` §3 for why each substitution preserves the behaviour the
//! evaluation measures):
//!
//! * [`station`] — [`ServiceStation`]: per-machine capacity with an
//!   overload-degradation model (the shape of the paper's Fig. 7).
//! * [`link`] — [`Link`]: latency / jitter / bandwidth plus fault injection
//!   (partitions, drops, duplication) for WAN and intra-DC hops.
//! * [`pacing`] — precise sleeps and the open-loop [`RateLimiter`] used by
//!   target-throughput load generators.
//! * [`metrics`] — counters, gauges, log-bucketed latency histograms, the
//!   time-series sampler behind Fig. 9, the named [`MetricsRegistry`]
//!   whose [`MetricsSnapshot`] the bench harness dumps as JSON, and the
//!   live telemetry plane: windowed views, the structured [`EventJournal`],
//!   the background [`Collector`], and Prometheus / Chrome-trace
//!   exporters.
//! * [`trace`] — sampled per-record tracing: a [`PipelineTracer`] stamps
//!   [`TraceId`](chariots_types::TraceId)s on records and stages record
//!   enter/exit times through [`StageTracer`]s.
//! * [`failure`] — heartbeat-based [`FailureDetector`] and the periodic
//!   [`FailureMonitor`] thread that drives failover decisions.
//! * [`retry`] — [`RetryPolicy`]: bounded retries with deterministic
//!   jittered exponential backoff for clients riding out failover windows.
//! * [`notify`] — [`Notify`]: edge-triggered, coalescing wakeups that turn
//!   fixed-interval polling loops into event-driven ones (the interval
//!   demotes to a heartbeat floor).
//! * [`shutdown`] — cooperative worker shutdown.
//! * [`transport`] — the real-socket backend: length-prefixed CRC'd
//!   frames over `std::net::TcpStream` ([`FrameDecoder`], [`TcpSender`],
//!   typed listeners, and the [`ReplyTo`] dial-back reply slot), so the
//!   same `Wire`-encoded protocol runs hardware-limited instead of
//!   simulation-limited.
//! * [`tempdir`] — [`TestDir`]: collision-free, self-cleaning scratch
//!   directories for tests that persist WALs.
//!
//! ```
//! use chariots_simnet::{Link, LinkConfig, ServiceStation, StationConfig};
//! use std::time::Duration;
//!
//! // A machine that can serve 50k records/s, and a 5ms link to it.
//! let station = ServiceStation::new("m0", StationConfig::with_rate(50_000.0));
//! let (tx, rx, handle) = Link::spawn_simple::<u32>(
//!     LinkConfig::with_latency(Duration::from_millis(5)),
//! );
//! tx.send(42);
//! assert_eq!(rx.recv().unwrap(), 42);
//! station.note_arrival(1);
//! station.serve(1).unwrap();
//! assert_eq!(station.served(), 1);
//! handle.partition(); // messages sent now are lost until heal()
//! ```

#![warn(missing_docs)]

pub mod failure;
pub mod link;
pub mod metrics;
pub mod notify;
pub mod pacing;
pub mod retry;
pub mod shutdown;
pub mod station;
pub mod tempdir;
pub mod trace;
pub mod transport;

pub use failure::{FailureDetector, FailureMonitor};
pub use link::{Link, LinkConfig, LinkHandle, LinkSender};
pub use metrics::{
    chrome_trace, parse_prometheus_text, prometheus_text, ChromeTrace, Collector, CollectorConfig,
    CollectorHandle, Counter, Event, EventJournal, EventKind, Gauge, Histogram, HistogramSnapshot,
    LiveView, MetricsRegistry, MetricsSnapshot, Sampler, Series, ThroughputMeter, TimeSeries,
    Timeline, TimelineTick, WindowSummary,
};
pub use notify::Notify;
pub use pacing::{sleep_until, RateLimiter};
pub use retry::RetryPolicy;
pub use shutdown::Shutdown;
pub use station::{ServiceStation, StationConfig};
pub use tempdir::TestDir;
pub use trace::{PipelineTracer, StageTracer, TraceSpan};
pub use transport::{
    append_frame, reply_hub, spawn_frame_listener, spawn_wire_listener, Endpoint, FrameDecoder,
    FrameError, FrameReader, RemoteReply, ReplyHub, ReplyTo, TcpSender, TransportMetrics,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
