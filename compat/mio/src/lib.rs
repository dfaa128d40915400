//! Offline stand-in for the `mio` crate.
//!
//! Implements the small slice of mio's surface the stream daemon's
//! event loop uses — [`Poll`] / [`Registry`] / [`Events`] / [`Token`]
//! / [`Interest`] / [`Waker`] — on top of `std` only, because
//! crates.io is unavailable in the build environment.
//!
//! # Design
//!
//! Readiness notification goes through one of two backends, both in
//! [`sys`]:
//!
//! * **epoll** (Linux, the default there): one `epoll` instance per
//!   [`Poll`]; sockets register level-triggered so the caller never
//!   has to drain-to-`WouldBlock` to stay correct, and the [`Waker`]'s
//!   `eventfd` registers edge-triggered so its counter never needs
//!   reading.
//! * **poll(2)** (every other Unix; also compiled and tested on Linux
//!   so the fallback cannot rot): the [`Registry`] keeps a mutexed
//!   fd → (token, interest) table, each `select` snapshots it into a
//!   `pollfd` array, and the waker is a classic self-pipe whose read
//!   end is drained by the selector before the event is reported.
//!
//! Error (`EPOLLERR`) and hang-up (`EPOLLHUP`/`POLLHUP`) conditions
//! are folded into readable *and* writable readiness, mio-style, so a
//! connection state machine discovers the failure from the `io::Error`
//! of its next read or write rather than needing a third code path.
//!
//! This is the **only crate in the workspace allowed `unsafe`**: the
//! raw `epoll`/`poll`/`eventfd`/`pipe` and socket-option calls live
//! here (see [`net`]), and every block carries a `// SAFETY:` comment
//! (`clippy::undocumented_unsafe_blocks`). The workspace denies
//! `unsafe_code`, this crate opts out below, and `ci.sh lint` fails on
//! `unsafe` in any other `src/` tree. (Test code aside: `ps3-duts`'
//! `float_hygiene` probe reads the MXCSR register with `asm!`.)

#![expect(
    unsafe_code,
    reason = "the readiness layer over the OS: raw epoll/poll/eventfd/pipe and socket-option calls"
)]

pub mod net;
pub mod sys;

use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a registered event source; returned in every [`Event`].
/// An opaque `usize` the caller maps back to its own connection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both (`|` them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness (incoming data, accepts, peer close).
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness (send buffer has room again).
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combines two interests (same as `|`, usable in `const`).
    #[must_use]
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether this interest includes read readiness.
    #[must_use]
    pub const fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Whether this interest includes write readiness.
    #[must_use]
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl core::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness event delivered by [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub(crate) token: usize,
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) error: bool,
    pub(crate) read_closed: bool,
}

impl Event {
    /// The token the source was registered with.
    #[must_use]
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    /// Read readiness (includes errors, hang-ups and peer close, so a
    /// state machine discovers failures from its next read).
    #[must_use]
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Write readiness (includes errors and hang-ups).
    #[must_use]
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// An error condition was signalled on the source.
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.error
    }

    /// The peer closed its write half (or the connection hung up).
    #[must_use]
    pub fn is_read_closed(&self) -> bool {
        self.read_closed
    }
}

/// Buffer of events filled by [`Poll::poll`]; reused across calls.
#[derive(Debug)]
pub struct Events {
    pub(crate) inner: Vec<Event>,
    pub(crate) capacity: usize,
}

impl Events {
    /// An event buffer that returns at most `capacity` events per poll.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Iterates the events from the last poll.
    pub fn iter(&self) -> core::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// Whether the last poll returned no events (timeout).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Discards buffered events (also done by the next poll).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = core::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// Registration handle: maps event sources to tokens on the backend
/// selector. Cloned-by-`Arc` inside [`Waker`]; obtained from
/// [`Poll::registry`].
#[derive(Debug)]
pub struct Registry {
    selector: Arc<sys::Selector>,
}

impl Registry {
    /// Starts delivering `interest` readiness for `source` under
    /// `token`.
    ///
    /// # Errors
    ///
    /// Backend registration failures (bad fd, duplicate registration).
    pub fn register<S: Source + ?Sized>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.register(source.raw_fd(), token, interest)
    }

    /// Changes the interest set of an already-registered source.
    ///
    /// # Errors
    ///
    /// Backend failures (source was never registered).
    pub fn reregister<S: Source + ?Sized>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.reregister(source.raw_fd(), token, interest)
    }

    /// Stops delivering events for `source`.
    ///
    /// # Errors
    ///
    /// Backend failures (source was never registered).
    pub fn deregister<S: Source + ?Sized>(&self, source: &S) -> io::Result<()> {
        self.selector.deregister(source.raw_fd())
    }
}

/// An event source that can be registered: anything with a raw fd.
pub trait Source {
    /// The OS handle the backend watches.
    fn raw_fd(&self) -> sys::RawSocketFd;
}

#[cfg(unix)]
impl<T: std::os::fd::AsRawFd> Source for T {
    fn raw_fd(&self) -> sys::RawSocketFd {
        self.as_raw_fd()
    }
}

/// The readiness selector: wraps one backend instance.
#[derive(Debug)]
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// Creates a selector on the platform's default backend (epoll on
    /// Linux, poll(2) elsewhere).
    ///
    /// # Errors
    ///
    /// Backend creation failures (fd exhaustion).
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            registry: Registry {
                selector: Arc::new(sys::Selector::new()?),
            },
        })
    }

    /// The registration handle for this selector.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Blocks until at least one event is ready, the timeout elapses
    /// (`None` = forever, `Some(ZERO)` = non-blocking check), or a
    /// [`Waker`] fires; fills `events` with what became ready.
    ///
    /// # Errors
    ///
    /// Backend wait failures. `EINTR` is retried internally.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.registry.selector.select(events, timeout)
    }
}

/// Cross-thread wakeup for a [`Poll`]: `wake` from any thread makes
/// the next (or current) `poll` return with an event carrying the
/// waker's token. `eventfd` on the epoll backend, a self-pipe on the
/// poll(2) backend.
#[derive(Debug)]
pub struct Waker {
    selector: Arc<sys::Selector>,
    inner: sys::WakerFd,
}

impl Waker {
    /// Creates a waker delivering `token` through `registry`'s
    /// selector.
    ///
    /// # Errors
    ///
    /// fd-pair creation or registration failures.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        let inner = sys::WakerFd::new()?;
        registry.selector.register_waker(&inner, token)?;
        Ok(Waker {
            selector: Arc::clone(&registry.selector),
            inner,
        })
    }

    /// Wakes the associated [`Poll`]. Cheap and non-blocking; multiple
    /// wakes before the next poll coalesce into one event.
    ///
    /// # Errors
    ///
    /// Write failures on the wakeup fd (never `WouldBlock`; a full
    /// pipe already implies a pending wakeup and reports success).
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        let _ = self.selector.deregister_waker(&self.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn ready_tokens(events: &Events) -> Vec<usize> {
        let mut t: Vec<usize> = events.iter().map(|e| e.token().0).collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let mut poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&listener, Token(7), Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "no connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ready_tokens(&events), vec![7]);
        assert!(events.iter().next().unwrap().is_readable());
    }

    #[test]
    fn stream_read_and_write_readiness() {
        let mut poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&served, Token(1), Interest::READABLE | Interest::WRITABLE)
            .unwrap();

        // A fresh connection is writable but not readable.
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = *events.iter().next().unwrap();
        assert!(ev.is_writable() && !ev.is_readable());

        // Narrow to READABLE: data from the peer must surface it.
        poll.registry()
            .reregister(&served, Token(1), Interest::READABLE)
            .unwrap();
        client.write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.is_readable() && e.token().0 == 1));
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Deregistered sources go quiet.
        poll.registry().deregister(&served).unwrap();
        client.write_all(b"more").unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let mut poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&served, Token(3), Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token().0 == 3).unwrap();
        assert!(ev.is_readable(), "EOF must be readable so reads see it");
    }

    #[test]
    fn waker_wakes_a_blocked_poll_from_another_thread() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(poll.registry(), Token(99)).unwrap());
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake().unwrap();
        });
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        handle.join().unwrap();
        assert_eq!(ready_tokens(&events), vec![99]);

        // Coalesced wakes deliver one event, and the selector is quiet
        // again afterwards.
        waker.wake().unwrap();
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ready_tokens(&events), vec![99]);
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "wakeups must not repeat");
    }

    #[test]
    fn interest_combinators() {
        let both = Interest::READABLE | Interest::WRITABLE;
        assert!(both.is_readable() && both.is_writable());
        assert!(!Interest::READABLE.is_writable());
        assert!(!Interest::WRITABLE.is_readable());
    }
}
