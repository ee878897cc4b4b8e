//! Cooperative shutdown signalling for simulated-machine worker threads.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

type Hook = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Inner {
    flag: AtomicBool,
    /// Run by the first `signal`, then gone.
    hooks: Mutex<Vec<Hook>>,
}

/// A cloneable shutdown flag shared by a deployment's worker threads.
///
/// Workers poll [`is_signaled`](Shutdown::is_signaled) between batches;
/// the deployment owner calls [`signal`](Shutdown::signal) once and joins.
/// A worker that sleeps where it cannot poll — in a blocking system call —
/// registers with [`on_signal`](Shutdown::on_signal) what wakes it.
#[derive(Clone, Default)]
pub struct Shutdown {
    inner: Arc<Inner>,
}

impl Shutdown {
    /// A fresh, un-signalled flag.
    pub fn new() -> Self {
        Shutdown::default()
    }

    /// Requests shutdown. Idempotent.
    pub fn signal(&self) {
        self.inner.flag.store(true, Ordering::Release);
        let hooks = std::mem::take(&mut *self.hooks());
        for hook in hooks {
            hook();
        }
    }

    /// Whether shutdown has been requested.
    #[inline]
    pub fn is_signaled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// Runs `hook` once, on the thread that signals shutdown — at once if
    /// that has already happened. For waking a thread that is blocked
    /// where it cannot see the flag; the hook must not block itself.
    pub fn on_signal(&self, hook: impl FnOnce() + Send + 'static) {
        // The flag is read under the lock `signal` takes its hooks under,
        // after it has set the flag: a hook is either seen by `signal` or
        // sees the flag.
        let mut hooks = self.hooks();
        if self.is_signaled() {
            drop(hooks);
            hook();
        } else {
            hooks.push(Box::new(hook));
        }
    }

    fn hooks(&self) -> std::sync::MutexGuard<'_, Vec<Hook>> {
        self.inner.hooks.lock().expect("a shutdown hook panicked")
    }
}

impl fmt::Debug for Shutdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shutdown")
            .field("signaled", &self.is_signaled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_is_visible_to_clones() {
        let s = Shutdown::new();
        let c = s.clone();
        assert!(!c.is_signaled());
        s.signal();
        assert!(c.is_signaled());
        s.signal(); // idempotent
        assert!(s.is_signaled());
    }

    #[test]
    fn hooks_run_once_whichever_side_of_the_signal_they_register() {
        use std::sync::atomic::AtomicUsize;
        let s = Shutdown::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let count = |runs: &Arc<AtomicUsize>| {
            let runs = Arc::clone(runs);
            move || {
                runs.fetch_add(1, Ordering::SeqCst);
            }
        };
        s.on_signal(count(&runs));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "not before the signal");
        s.signal();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        s.clone().on_signal(count(&runs));
        assert_eq!(runs.load(Ordering::SeqCst), 2, "late hooks run at once");
        s.signal();
        assert_eq!(runs.load(Ordering::SeqCst), 2, "and none runs twice");
    }

    #[test]
    fn signal_crosses_threads() {
        let s = Shutdown::new();
        let c = s.clone();
        let h = std::thread::spawn(move || {
            while !c.is_signaled() {
                std::thread::yield_now();
            }
            true
        });
        s.signal();
        assert!(h.join().unwrap());
    }
}
