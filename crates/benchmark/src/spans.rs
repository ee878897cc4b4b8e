//! Spans the benchmark records around its own calls into a layer during
//! a traced run. They stay in memory until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span times are nanoseconds since the process started.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// No parent: the span is the root of its probe or tick.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same recorder, or [`ROOT`].
    pub parent: u32,
    /// The probe this span belongs to; -1 for generator spans.
    pub probe: i64,
    /// Records or operations the call covered.
    pub count: u32,
}

/// Whether a traced run records spans in the one-second window `window`
/// of its measured phase: in every other one. The windows without are
/// the same run untraced, which is what tracing's cost is measured
/// against (`trace.overhead_frac`).
pub fn recorded_in(window: u64) -> bool {
    window % 2 == 1
}

/// One thread's spans. Disabled recorders drop everything, so the same
/// driver code runs traced and untraced.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    /// When the measured phase began, in the spans' clock.
    phase_start_ns: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, phase_start_ns: u64) -> Self {
        Recorder {
            enabled,
            phase_start_ns,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index for children to
    /// name as their parent.
    pub fn record(&mut self, span: Span) -> u32 {
        let window = span.start_ns.saturating_sub(self.phase_start_ns) / 1_000_000_000;
        if !self.enabled || !recorded_in(window) {
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and covered count of every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns), n + u64::from(s.count))
            })
    }
}

/// Writes every recorder's spans as one JSON document. Span ids are
/// `"<thread>:<index>"` so parents stay unambiguous across threads.
pub fn write_file(path: &Path, threads: &[(&str, &Recorder)]) -> std::io::Result<u64> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0u64;
    writeln!(out, "{{\"unit\": \"ns since run start\", \"spans\": [")?;
    for (thread, recorder) in threads {
        for (i, s) in recorder.spans().iter().enumerate() {
            if written > 0 {
                writeln!(out, ",")?;
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                format!("\"{thread}:{}\"", s.parent)
            };
            write!(
                out,
                "{{\"id\": \"{thread}:{i}\", \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"probe\": {}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, s.probe, s.count
            )?;
            written += 1;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(written)
}
