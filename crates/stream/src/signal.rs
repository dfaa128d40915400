//! The one blocking wait behind [`LoopStats`](crate::LoopStats) and
//! [`StreamClient`](crate::StreamClient): counters stay plain atomics,
//! their owner calls [`Signal::notify`] after bumping them, and a
//! waiter re-tests its predicate on each notification.

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
pub(crate) struct Signal {
    /// Guards no data: a waiter holds it while testing its predicate,
    /// so a notification cannot slip in between the test and the wait.
    lock: Mutex<()>,
    changed: Condvar,
}

impl Signal {
    /// Wakes every waiter. Call after the counters have moved.
    pub(crate) fn notify(&self) {
        let _guard = self.lock.lock();
        self.changed.notify_all();
    }

    /// Blocks until `done()` holds (returns `true`) or `timeout`
    /// passes (`false`). A timeout too large to add to now never ends.
    pub(crate) fn wait_until(&self, timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = self.lock.lock();
        while !done() {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.changed.wait(&mut guard),
                Some(Duration::ZERO) => return false,
                Some(left) => _ = self.changed.wait_for(&mut guard, left),
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;

    #[test]
    fn waiter_sees_every_notified_change() {
        let signal = Arc::new(Signal::default());
        let count = Arc::new(AtomicU64::new(0));
        let bumper = {
            let (signal, count) = (Arc::clone(&signal), Arc::clone(&count));
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    count.fetch_add(1, Ordering::SeqCst);
                    signal.notify();
                }
            })
        };
        assert!(signal.wait_until(Duration::MAX, || count.load(Ordering::SeqCst) == 1000));
        bumper.join().unwrap();
    }

    #[test]
    fn unmet_predicate_times_out() {
        let signal = Signal::default();
        assert!(!signal.wait_until(Duration::ZERO, || false));
        assert!(signal.wait_until(Duration::ZERO, || true));
    }
}
