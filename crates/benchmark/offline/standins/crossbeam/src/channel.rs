//! Multi-producer multi-consumer channels with crossbeam's signatures.
//!
//! One `Mutex<VecDeque>` and two condvars per channel: the real crate
//! is lock-free, this is not. Like the real crate, a receiver that finds
//! the channel empty spins briefly and yields a few times before it
//! parks (crossbeam's `Backoff`: 127 spin hints, then 4 yields), and a
//! sender wakes nobody when nobody is parked. A zero-capacity
//! (rendezvous) channel is not provided; the repository only asks for
//! capacity ≥ 1 or unbounded.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    /// Receivers parked on `not_empty`, senders parked on `not_full`.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the last sender leaves.
    not_empty: Condvar,
    /// Signalled when room appears or the last receiver leaves.
    not_full: Condvar,
    cap: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The state is valid at every step, so a poisoned lock is usable.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // Both counters are only compared against zero under the state lock
    // by the side that is about to sleep, and the side that drops to
    // zero takes the lock before notifying, so SeqCst plus the lock
    // orders "last peer left" before the wake-up.
    fn no_senders(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }

    fn no_receivers(&self) -> bool {
        self.receivers.load(Ordering::SeqCst) == 0
    }

    /// Takes the front message, waking a parked sender if there is one.
    fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
        match st.queue.pop_front() {
            Some(msg) => {
                let wake = st.parked_senders > 0;
                drop(st);
                if wake {
                    self.not_full.notify_one();
                }
                Ok(msg)
            }
            None => Err(st),
        }
    }

    fn push(&self, mut st: MutexGuard<'_, State<T>>, msg: T) {
        st.queue.push_back(msg);
        let wake = st.parked_receivers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Crossbeam's `Backoff` before parking: look again after 1, 2, 4 …
    /// 64 spin hints, then after each of 4 yields.
    fn pop_spinning(&self) -> Option<T> {
        for step in 0..=10u32 {
            if let Ok(msg) = self.pop(self.lock()) {
                return Some(msg);
            }
            if self.no_senders() {
                return None;
            }
            if step <= 6 {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        None
    }
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "the crossbeam stand-in has no rendezvous channel");
    channel(Some(cap))
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Blocks while a bounded channel is full; fails once every
    /// receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let s = &*self.shared;
        let mut st = s.lock();
        loop {
            if s.no_receivers() {
                return Err(SendError(msg));
            }
            match s.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st.parked_senders += 1;
                    st = s.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.parked_senders -= 1;
                }
                _ => break,
            }
        }
        s.push(st, msg);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Take the lock so a receiver between its check and its
            // wait cannot miss the notification.
            drop(self.shared.lock());
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives; fails once the channel is empty
    /// and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let s = &*self.shared;
        match s.pop(s.lock()) {
            Ok(msg) => Ok(msg),
            Err(_) if s.no_senders() => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Receives, parking until `deadline` (for ever if `None`).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let s = &*self.shared;
        if let Some(msg) = s.pop_spinning() {
            return Ok(msg);
        }
        let mut st = s.lock();
        loop {
            st = match s.pop(st) {
                Ok(msg) => return Ok(msg),
                Err(st) => st,
            };
            if s.no_senders() {
                return Err(RecvTimeoutError::Disconnected);
            }
            st.parked_receivers += 1;
            st = match deadline {
                None => s.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        st.parked_receivers -= 1;
                        return Err(RecvTimeoutError::Timeout);
                    }
                    s.not_empty
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            st.parked_receivers -= 1;
        }
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            drop(self.shared.lock());
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}
