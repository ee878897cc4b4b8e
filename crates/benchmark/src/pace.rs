//! Open-loop pacing: operations are due on a fixed schedule whatever the
//! system does, and a stall shows as lateness of everything due after it.

use std::time::{Duration, Instant};

/// The instant a paced operation is timed from, and how late it began.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    /// The due instant — or, when the thread was idle waiting for it,
    /// the instant its timer fired: timer latency is the harness's, a
    /// backlog behind a slow operation is the system's.
    pub from: Instant,
    /// How long after the due instant the operation could begin.
    pub late: Duration,
}

/// Waits for `due` and says where to time the operation from.
pub fn wait_until(due: Instant) -> Start {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
        let woke = Instant::now();
        Start {
            from: woke,
            late: woke.saturating_duration_since(due),
        }
    } else {
        Start {
            from: due,
            late: now - due,
        }
    }
}
