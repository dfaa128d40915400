//! The single-thread readiness event loop behind the stream daemon
//! and the fleet coordinator.
//!
//! The C10k problem, in this codebase's terms: the original daemon
//! spawned **two OS threads per TCP subscriber** (a ring-draining
//! sender and a control-message reader), so a few hundred subscribers
//! meant a thousand threads contending on per-subscriber mutexes —
//! exactly the measurement-plane perturbation a power-measurement
//! stack must not introduce. This module replaces all of them with
//! **one** thread per daemon running a readiness loop over the
//! vendored `mio` compat layer (epoll on Linux, poll(2) elsewhere).
//!
//! # Structure
//!
//! * [`bring_up`] — the one shared bring-up path: bind the listener
//!   (`SO_REUSEADDR`, non-blocking), create the selector, register
//!   the listener and the publish [`LoopWaker`].
//! * [`spawn_loop`] — runs the reactor on its own named thread.
//! * [`Handler`] — what differs between a plain daemon and a fleet
//!   coordinator: which rings a `Subscribe` selects and with which
//!   `Hello`, and how control messages are answered. Every streaming
//!   connection is pumped by the one [`Session::pump`]; the reactor
//!   owns the rest: non-blocking accept, per-connection handshake
//!   state machines, incremental control-frame parsing, batched
//!   non-blocking sends, stall detection and eviction.
//!
//! # Eviction equivalence
//!
//! The thread-per-subscriber implementation pinned down precise
//! semantics (and the sim invariants assert them). They carry over:
//!
//! * A connection is only pumped while its [`OutQueue`] is below its
//!   bound, and each pass reads a ring only until `QUEUE_CAP`
//!   downsampled frames wait in the session's ready queue for it, so a
//!   cursor runs at most that far past the `OutQueue`. A slow
//!   subscriber is then lapped by the ring as before: same
//!   `Gap { dropped }` raw-frame accounting, same `TooManyGaps`
//!   eviction once `max_gap_events` is exceeded.
//! * A connection whose socket accepts no bytes for `write_timeout`
//!   while output is pending is evicted `StalledWrite` — the same
//!   stall the per-subscriber blocking write timeout detected.
//! * Ring closure (shutdown, end of replay) sends a best-effort
//!   `Evicted { reason: Shutdown }` and drains the connection within
//!   a `write_timeout` grace window.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};

use crate::daemon::StreamDaemonConfig;
use crate::log;
use crate::net::set_send_buffer;
use crate::proto::{ClientMsg, EvictReason, RigSelector, ServerMsg, StreamStats, MAX_MSG_LEN};
use crate::session::{Pump, Session};
use crate::signal::Signal;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection slot `i` registers as token `i + TOKEN_BASE`.
const TOKEN_BASE: usize = 2;

/// Fallback poll timeout: bounds how late a deadline (handshake,
/// stall, drain grace) can be noticed when no I/O event fires.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Per-connection read budget per loop iteration, so one chatty
/// client cannot starve the rest (level-triggered readiness
/// re-delivers whatever is left).
const READ_CHUNKS_PER_TURN: usize = 8;

/// Output bound when the config leaves the kernel send buffer at its
/// OS default (`send_buffer_bytes == 0`).
const DEFAULT_OUT_LIMIT: usize = 256 * 1024;

/// What a daemon flavour plugs into the shared reactor.
///
/// Implemented by the plain stream daemon (its one ring for every
/// subscriber) and the fleet coordinator (the rings of the selected
/// rigs). Handlers run on the loop thread and must never block.
pub trait Handler: Send + 'static {
    /// Validates a `Subscribe` and opens a [`Session`] over the rings it
    /// selects. Returns the encoded `Hello` to send and the session.
    ///
    /// # Errors
    ///
    /// Invalid subscriptions (e.g. a rig selector out of range); the
    /// connection is dropped without a hello, as before.
    fn begin(
        &self,
        pair_mask: u8,
        divisor: u32,
        rig: Option<RigSelector>,
    ) -> io::Result<(Vec<u8>, Session)>;

    /// Handles one decoded control message.
    fn control(&self, msg: ClientMsg, out: &mut OutQueue) -> Control;
}

/// Outcome of one [`Handler::control`] call.
#[derive(Debug)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Client said `Bye` (or broke protocol): close without eviction.
    Disconnect,
}

/// Cumulative counters shared between the loop thread and
/// `stats()`/status surfaces. All plain `SeqCst` atomics, plus a
/// signal that [`LoopStats::wait_until`] blocks on.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Currently connected (post-handshake) subscribers.
    pub active_subscribers: AtomicU64,
    /// TCP connections accepted since start (including ones that
    /// never completed a handshake).
    pub accepted: AtomicU64,
    /// High-water mark of `active_subscribers`.
    pub active_peak: AtomicU64,
    /// Subscribers evicted for cause (gaps or stalls; shutdown is not
    /// an eviction).
    pub evicted: AtomicU64,
    /// Evictions whose cause was `TooManyGaps`.
    pub evicted_gaps: AtomicU64,
    /// Evictions whose cause was `StalledWrite`.
    pub evicted_stalled: AtomicU64,
    /// Ring-lap gap events across all subscribers.
    pub gap_events: AtomicU64,
    /// Payload bytes handed to the kernel across all subscribers.
    pub bytes_sent: AtomicU64,
    /// Notified when a subscriber comes up, goes down or is evicted,
    /// and when the loop exits.
    changed: Signal,
}

impl LoopStats {
    /// Blocks until `done()` holds (returns `true`) or `timeout` passes.
    /// `done` is re-tested when a subscriber comes up (after `begin`
    /// pinned its cursors), goes down or is evicted, and on loop exit.
    pub fn wait_until(&self, timeout: Duration, done: impl FnMut() -> bool) -> bool {
        self.changed.wait_until(timeout, done)
    }

    /// The wire view of these counters, given the frames the caller's
    /// ring(s) published.
    #[must_use]
    pub fn snapshot(&self, frames_published: u64) -> StreamStats {
        StreamStats {
            frames_published,
            active_subscribers: self.active_subscribers.load(Ordering::SeqCst),
            evicted: self.evicted.load(Ordering::SeqCst),
            gap_events: self.gap_events.load(Ordering::SeqCst),
            accepted: self.accepted.load(Ordering::SeqCst),
            active_peak: self.active_peak.load(Ordering::SeqCst),
            bytes_sent: self.bytes_sent.load(Ordering::SeqCst),
            evicted_gaps: self.evicted_gaps.load(Ordering::SeqCst),
            evicted_stalled: self.evicted_stalled.load(Ordering::SeqCst),
        }
    }

    fn subscriber_up(&self) {
        let now_active = self.active_subscribers.fetch_add(1, Ordering::SeqCst) + 1;
        self.active_peak.fetch_max(now_active, Ordering::SeqCst);
        self.changed.notify();
    }

    fn subscriber_down(&self) {
        self.active_subscribers.fetch_sub(1, Ordering::SeqCst);
        self.changed.notify();
    }

    fn note_evicted(&self, reason: &EvictReason) {
        self.evicted.fetch_add(1, Ordering::SeqCst);
        match reason {
            EvictReason::TooManyGaps { .. } => {
                self.evicted_gaps.fetch_add(1, Ordering::SeqCst);
            }
            EvictReason::StalledWrite => {
                self.evicted_stalled.fetch_add(1, Ordering::SeqCst);
            }
            EvictReason::Shutdown => {}
        }
        self.changed.notify();
    }
}

/// Wakes the loop when the pump publishes new frames. Coalescing: any
/// number of `wake` calls between two loop iterations cost one
/// syscall, so a 20 kHz publisher does not turn into 20 k wakeups.
#[derive(Debug)]
pub struct LoopWaker {
    waker: Waker,
    pending: AtomicBool,
}

impl LoopWaker {
    /// Signals the loop; safe from any thread, never blocks.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = self.waker.wake();
        }
    }

    /// Re-arms coalescing; called by the loop after each poll.
    fn clear(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// Everything [`bring_up`] assembles and [`spawn_loop`] consumes: the
/// bound listener, the selector, and the publish waker.
#[derive(Debug)]
pub struct LoopParts {
    listener: TcpListener,
    local_addr: SocketAddr,
    poll: Poll,
    waker: Arc<LoopWaker>,
}

impl LoopParts {
    /// The address the listener bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The waker publishers signal after `ring.publish`.
    #[must_use]
    pub fn waker(&self) -> Arc<LoopWaker> {
        Arc::clone(&self.waker)
    }
}

/// The one shared bring-up path (live daemon, replay daemon, and the
/// fleet coordinator all go through here): bind with `SO_REUSEADDR`,
/// switch to non-blocking, create the selector, register listener and
/// waker.
///
/// # Errors
///
/// Bind and selector-creation failures.
pub fn bring_up<A: ToSocketAddrs>(addr: A) -> io::Result<LoopParts> {
    let listener = crate::net::bind_reusable(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let poll = Poll::new()?;
    poll.registry()
        .register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Arc::new(LoopWaker {
        waker: Waker::new(poll.registry(), WAKER)?,
        pending: AtomicBool::new(false),
    });
    Ok(LoopParts {
        listener,
        local_addr,
        poll,
        waker,
    })
}

/// Spawns the reactor thread. `component` prefixes structured log
/// lines (`ps3-stream`, `ps3-fleet`).
///
/// # Errors
///
/// Thread spawn failures.
#[expect(
    clippy::disallowed_methods,
    reason = "spawns the one event-loop thread itself; connections are multiplexed onto it, never given threads"
)]
pub fn spawn_loop<H: Handler>(
    thread_name: &str,
    component: &'static str,
    parts: LoopParts,
    handler: H,
    config: StreamDaemonConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<LoopStats>,
) -> io::Result<JoinHandle<()>> {
    let reactor = Reactor {
        listener: parts.listener,
        poll: parts.poll,
        waker: parts.waker,
        handler,
        config,
        shutdown,
        stats,
        component,
        conns: Vec::new(),
        free_slots: Vec::new(),
        next_client: 0,
    };
    std::thread::Builder::new()
        .name(thread_name.into())
        .spawn(move || reactor.run())
}

/// Extracts one complete length-prefixed message body from the front
/// of `buf`, leaving any partial tail for the next read. This is the
/// incremental (non-blocking) twin of [`crate::proto::read_msg_body`]
/// and enforces the same framing limits.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a zero or oversized length — the
/// connection is unrecoverable because framing is lost.
pub fn take_frame(buf: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 || len > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad message length",
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(body))
}

/// A connection's bounded outgoing message queue.
///
/// Messages are pre-encoded wire bytes (length prefix included);
/// writes drain the front message-by-message, tracking a partial
/// offset, so a send interrupted by `WouldBlock` resumes exactly
/// where it stopped. The bound is soft: the *pump* stops adding
/// batches once [`is_full`](Self::is_full), which parks the ring
/// cursor and lets the ring's drop-oldest lap semantics take over —
/// control replies and gap/evict notices still enqueue.
#[derive(Debug)]
pub struct OutQueue {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front message already written.
    front_off: usize,
    queued_bytes: usize,
    limit: usize,
}

impl OutQueue {
    /// An empty queue that reports full at `limit` buffered bytes.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            front_off: 0,
            queued_bytes: 0,
            limit: limit.max(1),
        }
    }

    /// Encodes and enqueues a server message.
    pub fn push(&mut self, msg: &ServerMsg) {
        self.push_encoded(msg.encode());
    }

    /// Enqueues pre-encoded wire bytes (length prefix included).
    pub fn push_encoded(&mut self, bytes: Vec<u8>) {
        self.queued_bytes += bytes.len();
        self.queue.push_back(bytes);
    }

    /// Whether the pump should stop adding frames.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.queued_bytes >= self.limit
    }

    /// Whether everything queued has been written out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes currently queued (unwritten).
    #[must_use]
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Writes as much queued data as `w` accepts without blocking.
    /// Returns the bytes written; `WouldBlock` is not an error (the
    /// remainder stays queued).
    ///
    /// # Errors
    ///
    /// Real I/O errors (peer reset, broken pipe) — and a `write`
    /// returning `Ok(0)` is reported as [`io::ErrorKind::WriteZero`].
    pub fn write_some<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0usize;
        while let Some(front) = self.queue.front() {
            match w.write(&front[self.front_off..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    written += n;
                    self.front_off += n;
                    self.queued_bytes -= n;
                    if self.front_off == front.len() {
                        self.queue.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

/// Per-connection state machine.
enum State {
    /// Waiting for the `Subscribe`; dropped at `deadline`.
    Handshake { deadline: Instant },
    /// Serving frames.
    Streaming { session: Session },
    /// Evicted or shut down: flush what is queued, then close. The
    /// session is gone (`active` already decremented).
    Draining { deadline: Instant },
}

struct Conn {
    stream: TcpStream,
    client_id: u64,
    state: State,
    /// Unparsed inbound bytes (partial control frames).
    inbuf: Vec<u8>,
    out: OutQueue,
    /// Interest currently registered with the selector.
    interest: Interest,
    /// Set when a flush made zero progress with output pending;
    /// cleared on any accepted byte. The stall-eviction timer.
    blocked_since: Option<Instant>,
}

/// How a connection ended (mirrors the threaded daemon's
/// `SessionEnd` so the observable semantics stay identical).
enum End {
    /// Client closed, said `Bye`, or broke protocol.
    Disconnected,
    /// For-cause eviction: counted, best-effort `Evicted` notice.
    Evicted(EvictReason),
    /// Source closed (shutdown / replay end): uncounted `Evicted`
    /// notice with `Shutdown`.
    Shutdown,
}

struct Reactor<H: Handler> {
    listener: TcpListener,
    poll: Poll,
    waker: Arc<LoopWaker>,
    handler: H,
    config: StreamDaemonConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<LoopStats>,
    component: &'static str,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    next_client: u64,
}

impl<H: Handler> Reactor<H> {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.drain_all_and_exit();
                return;
            }
            if let Err(e) = self.poll.poll(&mut events, Some(IDLE_POLL)) {
                log::emit(self.component, "poll-error", &[("cause", &e.to_string())]);
                std::thread::sleep(Duration::from_millis(5));
            }
            self.waker.clear();
            let now = Instant::now();
            let mut accept_ready = false;
            for ev in &events {
                match ev.token() {
                    LISTENER => accept_ready = true,
                    WAKER => {}
                    Token(t) => {
                        if ev.is_readable() {
                            self.on_readable(t - TOKEN_BASE, now);
                        }
                    }
                }
            }
            if accept_ready {
                self.accept_all(now);
            }
            self.pump_and_flush_all(now);
            self.sweep_deadlines(now);
        }
    }

    // ---- accept path ----------------------------------------------

    fn accept_all(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.stats.accepted.fetch_add(1, Ordering::SeqCst);
                    self.next_client += 1;
                    let client_id = self.next_client;
                    if let Err(e) = self.setup_conn(stream, client_id, now) {
                        log::emit(
                            self.component,
                            "client-dropped",
                            &[
                                ("client", &client_id.to_string()),
                                ("cause", &e.to_string()),
                            ],
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Degrade, don't die: fd exhaustion may be
                    // transient; the listener stays registered.
                    log::emit(self.component, "accept-error", &[("cause", &e.to_string())]);
                    return;
                }
            }
        }
    }

    fn setup_conn(&mut self, stream: TcpStream, client_id: u64, now: Instant) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        if self.config.send_buffer_bytes > 0 {
            set_send_buffer(&stream, self.config.send_buffer_bytes)?;
        }
        let idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if let Err(e) =
            self.poll
                .registry()
                .register(&stream, Token(idx + TOKEN_BASE), Interest::READABLE)
        {
            self.free_slots.push(idx);
            return Err(e);
        }
        let out_limit = if self.config.send_buffer_bytes > 0 {
            self.config.send_buffer_bytes
        } else {
            DEFAULT_OUT_LIMIT
        };
        self.conns[idx] = Some(Conn {
            stream,
            client_id,
            state: State::Handshake {
                deadline: now + self.config.handshake_timeout,
            },
            inbuf: Vec::new(),
            out: OutQueue::new(out_limit),
            interest: Interest::READABLE,
            blocked_since: None,
        });
        Ok(())
    }

    // ---- read path ------------------------------------------------

    fn on_readable(&mut self, idx: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if matches!(conn.state, State::Draining { .. }) {
            return; // input no longer matters; only the flush does
        }
        let mut buf = [0u8; 4096];
        let mut eof = false;
        for _ in 0..READ_CHUNKS_PER_TURN {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true; // connection reset: same as gone
                    break;
                }
            }
        }
        match self.process_inbuf(idx, now) {
            Ok(()) if !eof => {}
            Ok(()) => self.finish_conn(idx, End::Disconnected, now),
            // Protocol error (bad framing, non-Subscribe handshake):
            // drop the connection, exactly as the blocking readers
            // did when `read_msg_body`/`decode` failed.
            Err(_) => self.finish_conn(idx, End::Disconnected, now),
        }
    }

    /// Parses and dispatches every complete control frame buffered on
    /// `idx`. Errors mean the connection must be dropped.
    fn process_inbuf(&mut self, idx: usize, _now: Instant) -> io::Result<()> {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return Ok(());
            };
            let Some(body) = take_frame(&mut conn.inbuf)? else {
                return Ok(());
            };
            let msg = ClientMsg::decode(&body)?;
            match &mut conn.state {
                State::Handshake { .. } => {
                    let ClientMsg::Subscribe {
                        pair_mask,
                        divisor,
                        rig,
                    } = msg
                    else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "first message must be Subscribe",
                        ));
                    };
                    let (hello, session) = self.handler.begin(pair_mask, divisor, rig)?;
                    conn.out.push_encoded(hello);
                    conn.state = State::Streaming { session };
                    self.stats.subscriber_up();
                }
                State::Streaming { .. } => match self.handler.control(msg, &mut conn.out) {
                    Control::Continue => {}
                    Control::Disconnect => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "client ended the session",
                        ));
                    }
                },
                State::Draining { .. } => return Ok(()),
            }
        }
    }

    // ---- pump + write path ----------------------------------------

    fn pump_and_flush_all(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let end = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                match &mut conn.state {
                    State::Streaming { session } if !conn.out.is_full() => {
                        match session.pump(&mut conn.out, &self.stats, self.config.max_gap_events) {
                            Pump::Idle => None,
                            Pump::Evict(reason) => Some(End::Evicted(reason)),
                            Pump::Closed => Some(End::Shutdown),
                        }
                    }
                    _ => None,
                }
            };
            if let Some(end) = end {
                self.finish_conn(idx, end, now);
            }
            self.flush_conn(idx, now);
        }
    }

    /// Attempts a non-blocking flush; manages write interest, the
    /// stall timer, and closes drained `Draining` connections.
    fn flush_conn(&mut self, idx: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if !conn.out.is_empty() {
            match conn.out.write_some(&mut conn.stream) {
                Ok(written) => {
                    if written > 0 {
                        self.stats
                            .bytes_sent
                            .fetch_add(written as u64, Ordering::SeqCst);
                        conn.blocked_since = None;
                    }
                }
                Err(_) => {
                    // Peer is gone; nothing left to deliver.
                    self.close_conn(idx, false);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.out.is_empty() {
            conn.blocked_since = None;
            if matches!(conn.state, State::Draining { .. }) {
                self.close_conn(idx, false);
                return;
            }
            if conn.interest.is_writable() {
                self.set_interest(idx, Interest::READABLE);
            }
        } else {
            if conn.blocked_since.is_none() {
                conn.blocked_since = Some(now);
            }
            if !conn.interest.is_writable() {
                self.set_interest(idx, Interest::READABLE | Interest::WRITABLE);
            }
        }
    }

    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if self
            .poll
            .registry()
            .reregister(&conn.stream, Token(idx + TOKEN_BASE), interest)
            .is_ok()
        {
            conn.interest = interest;
        }
    }

    // ---- deadlines ------------------------------------------------

    fn sweep_deadlines(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let (end, client_id) = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                match &conn.state {
                    State::Handshake { deadline } if now >= *deadline => {
                        (Some(End::Disconnected), conn.client_id)
                    }
                    State::Draining { deadline } if now >= *deadline => {
                        // Grace expired with bytes still queued (a
                        // stalled peer won't read its eviction
                        // notice): close regardless.
                        self.close_conn(idx, false);
                        continue;
                    }
                    State::Streaming { .. } => {
                        let stalled = conn.blocked_since.is_some_and(|since| {
                            now.duration_since(since) >= self.config.write_timeout
                        });
                        if stalled {
                            (
                                Some(End::Evicted(EvictReason::StalledWrite)),
                                conn.client_id,
                            )
                        } else {
                            (None, 0)
                        }
                    }
                    _ => (None, 0),
                }
            };
            match end {
                Some(End::Disconnected) => {
                    log::emit(
                        self.component,
                        "client-dropped",
                        &[
                            ("client", &client_id.to_string()),
                            ("cause", "handshake timeout"),
                        ],
                    );
                    self.close_conn(idx, true);
                }
                Some(end) => self.finish_conn(idx, end, now),
                None => {}
            }
        }
    }

    // ---- teardown -------------------------------------------------

    /// Ends a session the way the threaded daemon's `serve_client`
    /// epilogue did: count evictions, queue the best-effort `Evicted`
    /// notice, then drain within a `write_timeout` grace window.
    fn finish_conn(&mut self, idx: usize, end: End, now: Instant) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let was_streaming = matches!(conn.state, State::Streaming { .. });
        if was_streaming {
            self.stats.subscriber_down();
        }
        match end {
            End::Disconnected => {
                self.close_conn(idx, true);
            }
            End::Evicted(reason) => {
                self.stats.note_evicted(&reason);
                conn.out.push(&ServerMsg::Evicted { reason });
                conn.state = State::Draining {
                    deadline: now + self.config.write_timeout,
                };
                self.flush_conn(idx, now);
            }
            End::Shutdown => {
                conn.out.push(&ServerMsg::Evicted {
                    reason: EvictReason::Shutdown,
                });
                conn.state = State::Draining {
                    deadline: now + self.config.write_timeout,
                };
                self.flush_conn(idx, now);
            }
        }
    }

    /// Deregisters and drops the connection. `count_down` is for
    /// states where the subscriber count was not already decremented.
    fn close_conn(&mut self, idx: usize, already_counted: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if !already_counted && matches!(conn.state, State::Streaming { .. }) {
            self.stats.subscriber_down();
        }
        let _ = self.poll.registry().deregister(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.free_slots.push(idx);
    }

    /// Daemon shutdown: notify every live subscriber, grant one
    /// `write_timeout` of grace to flush, close everything, and wake
    /// the stats waiters.
    fn drain_all_and_exit(mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let is_live = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                match conn.state {
                    State::Streaming { .. } => true,
                    State::Handshake { .. } => false,
                    State::Draining { .. } => continue,
                }
            };
            if is_live {
                self.finish_conn(idx, End::Shutdown, now);
            } else {
                self.close_conn(idx, true);
            }
        }
        let deadline = now + self.config.write_timeout;
        let mut events = Events::with_capacity(256);
        while self.conns.iter().any(Option::is_some) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let _ = self.poll.poll(
                &mut events,
                Some(Duration::from_millis(5).min(deadline - now)),
            );
            let now = Instant::now();
            for idx in 0..self.conns.len() {
                self.flush_conn(idx, now);
            }
        }
        for idx in 0..self.conns.len() {
            self.close_conn(idx, true);
        }
        self.stats.changed.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_frame_reassembles_split_messages() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(b'z');

        let mut buf = Vec::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(2) {
            buf.extend_from_slice(chunk);
            while let Some(body) = take_frame(&mut buf).unwrap() {
                got.push(body);
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"z".to_vec()]);
        assert!(buf.is_empty());
    }

    #[test]
    fn take_frame_rejects_broken_framing() {
        let mut zero = 0u32.to_le_bytes().to_vec();
        assert!(take_frame(&mut zero).is_err());
        let mut huge = ((MAX_MSG_LEN + 1) as u32).to_le_bytes().to_vec();
        assert!(take_frame(&mut huge).is_err());
    }

    #[test]
    fn out_queue_resumes_partial_writes() {
        struct Trickle(Vec<u8>, usize);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    self.1 = 3;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.1);
                self.1 -= n;
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut q = OutQueue::new(1024);
        q.push_encoded(b"hello ".to_vec());
        q.push_encoded(b"world".to_vec());
        let mut sink = Trickle(Vec::new(), 4);
        let mut total = 0;
        while !q.is_empty() {
            total += q.write_some(&mut sink).unwrap();
        }
        assert_eq!(total, 11);
        assert_eq!(sink.0, b"hello world");
        assert_eq!(q.queued_bytes(), 0);
    }

    #[test]
    fn out_queue_reports_fullness_by_bytes() {
        let mut q = OutQueue::new(8);
        assert!(!q.is_full());
        q.push_encoded(vec![0u8; 8]);
        assert!(q.is_full());
        let mut sink = Vec::new();
        q.write_some(&mut sink).unwrap();
        assert!(!q.is_full() && q.is_empty());
    }
}
