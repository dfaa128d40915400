//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment for this repository has no access to
//! crates.io, so the handful of `parking_lot` primitives the workspace
//! uses are provided here on top of `std::sync`. The semantic
//! differences that matter to callers are preserved:
//!
//! * [`Mutex::lock`] returns the guard directly (no poisoning — a
//!   panicked holder does not poison the lock for everyone else).
//! * [`Condvar::wait_for`] takes the guard by `&mut` and returns a
//!   [`WaitTimeoutResult`] rather than consuming and re-yielding the
//!   guard.
//!
//! Fairness, inline-ness and micro-contention behaviour of the real
//! crate are *not* reproduced; none of the workspace code depends on
//! them.
//!
//! # Lock order (debug builds only)
//!
//! Under `debug_assertions` every [`Mutex`] also checks lock order at
//! run time, after Linux lockdep. Its class is the `#[track_caller]`
//! site of its [`Mutex::new`] (or `Default`) call. Before
//! [`Mutex::lock`] blocks, each held-A-then-B class order it creates
//! goes into one process-wide graph. An order that closes a cycle, or
//! a lock taken while the thread holds another of its class, panics
//! and names both construction sites, even if the run would never have
//! deadlocked. [`Mutex::try_lock`] cannot deadlock, so it adds no
//! order, but its guard counts as held. A [`Condvar`] wait keeps its
//! lock on the held list, so re-taking it records nothing. The check
//! sees only the orders that tests and runs execute.
//!
//! Release builds compile the check out: `Mutex` and [`MutexGuard`]
//! then have exactly the fields and size of the plain `std` wrapper,
//! so the measurement path does not pay for it.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

#[cfg(debug_assertions)]
mod order;

/// A mutual-exclusion primitive (non-poisoning `lock()` like
/// `parking_lot::Mutex`).
pub struct Mutex<T: ?Sized> {
    /// The lock-order class: where this mutex was made.
    #[cfg(debug_assertions)]
    class: &'static Location<'static>,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex, of the lock-order class of the caller's
    /// source location in debug builds.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            class: Location::caller(),
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    ///
    /// # Panics
    ///
    /// In debug builds, before blocking, if taking this lock behind the
    /// ones the thread holds closes a lock-order cycle, or if the
    /// thread already holds a lock of its class.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.addr(), self.class);
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            _held: order::Held::push(self.addr(), self.class),
        })
    }

    /// This mutex's address, which tells it apart from others of its
    /// class on a thread's held list.
    #[cfg(debug_assertions)]
    fn addr(&self) -> usize {
        std::ptr::from_ref(self).cast::<()>().addr()
    }

    /// Returns a mutable reference to the underlying data (no locking
    /// needed — the borrow proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`].
///
/// Internally holds an `Option` so [`Condvar::wait_for`] can move the
/// underlying std guard out and back while blocking.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<StdMutexGuard<'a, T>>,
    /// This guard's entry in its thread's held list.
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` when the wait ended because the timeout elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable with `parking_lot`'s `&mut`-guard API.
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: StdCondvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.inner = Some(std_guard);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        let (std_guard, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(std_guard);
        WaitTimeoutResult(result.timed_out())
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_crosses_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            let r = cv.wait_for(&mut done, Duration::from_secs(5));
            assert!(!r.timed_out(), "missed notification");
        }
        t.join().unwrap();
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
