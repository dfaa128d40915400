//! Fault application: one offset-keyed state machine
//! ([`FaultChannel`]) shared by the two faultable paths — the virtual
//! serial link (via [`FaultInjector`], a [`Transport`] wrapper) and
//! the stream daemon's TCP loopback (via [`FaultProxy`]).
//!
//! Faults are keyed to byte offsets of the *source* stream, which is a
//! deterministic function of `(seed, command sequence)` — so the bytes
//! a consumer observes are identical on every replay, no matter how
//! reads are chunked or threads are scheduled.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ps3_transport::{Transport, TransportError};

use crate::plan::{FaultEvent, FaultKind, SimPlan};

/// Side effects of pushing a chunk through [`FaultChannel::apply`]
/// that the carrier (transport wrapper or TCP pump) must enact.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ApplyEffects {
    /// Total stall time to sleep before delivering the chunk.
    pub stall_ms: u64,
    /// Deliver only this many of the produced bytes now (short read);
    /// the carrier keeps the rest pending. `None` = deliver all.
    pub cut: Option<usize>,
    /// The link crashed inside this chunk: deliver the produced bytes,
    /// then fail every later operation.
    pub crashed: bool,
}

/// The offset-keyed fault state machine. Feed it the raw source bytes
/// in order; it produces the faulted bytes plus delivery effects.
#[derive(Debug)]
pub struct FaultChannel {
    events: Vec<FaultEvent>,
    next: usize,
    offset: u64,
    crashed: bool,
    faults_applied: u64,
}

impl FaultChannel {
    /// A channel applying `plan`.
    #[must_use]
    pub fn new(plan: &SimPlan) -> Self {
        Self {
            events: plan.events().to_vec(),
            next: 0,
            offset: 0,
            crashed: false,
            faults_applied: 0,
        }
    }

    /// Total source bytes consumed so far.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Events that have fired so far.
    #[must_use]
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// `true` once a [`FaultKind::Crash`] event has fired.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Pushes `input` through the fault schedule, appending the
    /// surviving bytes to `out` and returning the delivery effects.
    /// Bytes at or after a crash offset are discarded.
    pub fn apply(&mut self, input: &[u8], out: &mut Vec<u8>) -> ApplyEffects {
        let mut fx = ApplyEffects::default();
        if self.crashed {
            fx.crashed = true;
            return fx;
        }
        for &byte in input {
            let at = self.offset;
            self.offset += 1;
            let mut survivor = Some(byte);
            let mut duplicates = 0usize;
            while self.next < self.events.len() && self.events[self.next].offset <= at {
                let event = self.events[self.next];
                self.next += 1;
                if event.offset < at {
                    continue; // offset was skipped (e.g. guard overlap)
                }
                self.faults_applied += 1;
                match event.kind {
                    FaultKind::Drop => survivor = None,
                    FaultKind::Duplicate => duplicates += 1,
                    FaultKind::BitFlip(bit) => {
                        survivor = survivor.map(|b| b ^ (1 << (bit & 7)));
                    }
                    FaultKind::Stall(ms) => fx.stall_ms += u64::from(ms),
                    FaultKind::ShortRead => {
                        // Cut after this byte (or right here if it is
                        // dropped by another event at the same offset).
                        fx.cut = Some(out.len() + usize::from(survivor.is_some()));
                    }
                    FaultKind::Crash => {
                        self.crashed = true;
                        fx.crashed = true;
                        return fx;
                    }
                }
            }
            if let Some(b) = survivor {
                for _ in 0..=duplicates {
                    out.push(b);
                }
            }
        }
        fx
    }
}

#[derive(Debug)]
struct InjectorState {
    channel: FaultChannel,
    /// Faulted bytes produced but not yet handed to the reader.
    pending: VecDeque<u8>,
    /// Deliver at most this many pending bytes before forcing the
    /// reader to come back (a short read in flight).
    deliver_limit: Option<usize>,
}

struct InjectorShared<T> {
    inner: T,
    state: Mutex<InjectorState>,
}

/// A [`Transport`] wrapper that applies a [`SimPlan`] to the
/// device→host byte stream. Host→device writes pass through unfaulted
/// (command loss is a different failure domain than sample-stream
/// corruption) until a crash, after which everything fails.
///
/// Cloning yields another handle onto the same channel — scenarios
/// keep a clone as an observation tap (`available`, fault counters)
/// after moving the injector into `PowerSensor::connect`.
pub struct FaultInjector<T> {
    shared: Arc<InjectorShared<T>>,
}

impl<T> Clone for FaultInjector<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Transport> FaultInjector<T> {
    /// Wraps `inner`, faulting its read side according to `plan`.
    #[must_use]
    pub fn new(inner: T, plan: &SimPlan) -> Self {
        Self {
            shared: Arc::new(InjectorShared {
                inner,
                state: Mutex::new(InjectorState {
                    channel: FaultChannel::new(plan),
                    pending: VecDeque::new(),
                    deliver_limit: None,
                }),
            }),
        }
    }

    /// Source-stream bytes consumed so far.
    #[must_use]
    pub fn bytes_seen(&self) -> u64 {
        self.shared.state.lock().channel.offset()
    }

    /// Fault events that have fired so far.
    #[must_use]
    pub fn faults_applied(&self) -> u64 {
        self.shared.state.lock().channel.faults_applied()
    }

    /// `true` once a crash event has fired.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.shared.state.lock().channel.is_crashed()
    }

    /// Copies pending bytes into `buf`, honouring a short-read limit.
    fn take_pending(state: &mut InjectorState, buf: &mut [u8]) -> usize {
        let mut cap = buf.len().min(state.pending.len());
        if let Some(limit) = state.deliver_limit {
            cap = cap.min(limit);
        }
        for slot in buf.iter_mut().take(cap) {
            *slot = state.pending.pop_front().expect("len checked");
        }
        if let Some(limit) = &mut state.deliver_limit {
            *limit -= cap;
            // The short read has been enacted once the limit is hit;
            // later reads flow normally.
            if *limit == 0 {
                state.deliver_limit = None;
            }
        }
        cap
    }
}

impl<T: Transport> Transport for FaultInjector<T> {
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError> {
        if self.shared.state.lock().channel.is_crashed() {
            return Err(TransportError::Disconnected);
        }
        self.shared.inner.write_all(bytes)
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            {
                let mut state = self.shared.state.lock();
                if !state.pending.is_empty() {
                    let n = Self::take_pending(&mut state, buf);
                    if n > 0 {
                        return Ok(n);
                    }
                }
                if state.channel.is_crashed() {
                    return Err(TransportError::Disconnected);
                }
            }
            // Read more source bytes without holding the lock (writers
            // on other threads must not wait on a blocking read).
            let mut raw = [0u8; 4096];
            let n = self.shared.inner.read(&mut raw, timeout)?;
            let stall_ms;
            {
                let mut state = self.shared.state.lock();
                let mut produced = Vec::with_capacity(n);
                let fx = state.channel.apply(&raw[..n], &mut produced);
                stall_ms = fx.stall_ms;
                if let Some(cut) = fx.cut {
                    // `cut` indexes into `produced`; anything already
                    // pending is delivered ahead of it.
                    state.deliver_limit = Some((state.pending.len() + cut).max(1));
                }
                state.pending.extend(produced);
            }
            if stall_ms > 0 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fault injection: a transport stall is a real sleep of the thread carrying the bytes"
                )]
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            // All bytes of this chunk may have been dropped (or held
            // back by a crash): loop and read again.
        }
    }

    fn available(&self) -> usize {
        let state = self.shared.state.lock();
        let inner = if state.channel.is_crashed() {
            0
        } else {
            self.shared.inner.available()
        };
        state.pending.len() + inner
    }
}

/// A TCP proxy that forwards one client connection to `upstream`,
/// applying a [`SimPlan`] to the downstream (daemon→client) bytes.
/// Client→daemon traffic passes through verbatim. A crash event
/// severs both directions.
pub struct FaultProxy {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts the proxy on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn start(upstream: SocketAddr, plan: &SimPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let plan = plan.clone();
        let accept = std::thread::Builder::new()
            .name("ps3-sim-proxy".into())
            .spawn(move || {
                let Ok((client, _)) = listener.accept() else {
                    return;
                };
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                };
                let up = {
                    let (client, server) = (
                        client.try_clone().expect("clone client"),
                        server.try_clone().expect("clone server"),
                    );
                    std::thread::Builder::new()
                        .name("ps3-sim-proxy-up".into())
                        .spawn(move || forward_verbatim(client, server))
                        .expect("spawn proxy upstream thread")
                };
                forward_faulted(server, client, &plan);
                let _ = up.join();
            })
            .expect("spawn proxy accept thread");
        Ok(Self {
            addr,
            accept: Some(accept),
        })
    }

    /// The address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Client→daemon: byte-for-byte.
fn forward_verbatim(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Daemon→client: through the fault channel.
fn forward_faulted(mut from: TcpStream, mut to: TcpStream, plan: &SimPlan) {
    let mut channel = FaultChannel::new(plan);
    let mut buf = [0u8; 4096];
    let mut produced = Vec::new();
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        produced.clear();
        let fx = channel.apply(&buf[..n], &mut produced);
        if fx.stall_ms > 0 {
            #[expect(
                clippy::disallowed_methods,
                reason = "fault injection: a transport stall is a real sleep of the thread carrying the bytes"
            )]
            std::thread::sleep(Duration::from_millis(fx.stall_ms));
        }
        // TCP has no read-boundary to cut at; a short read degrades to
        // two writes, which is the same byte stream on the wire.
        if to.write_all(&produced).is_err() {
            break;
        }
        if fx.crashed {
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_transport::VirtualSerial;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Golden model: what the plan should do to a byte stream.
    fn golden(input: &[u8], plan: &SimPlan) -> Vec<u8> {
        let mut out = Vec::new();
        let mut channel = FaultChannel::new(plan);
        channel.apply(input, &mut out);
        out
    }

    #[test]
    fn channel_applies_each_kind() {
        let plan = SimPlan::parse("drop@1,dup@3,flip@5:0,crash@8").unwrap();
        let mut out = Vec::new();
        let mut ch = FaultChannel::new(&plan);
        let fx = ch.apply(&[10, 11, 12, 13, 14, 15, 16, 17, 18, 19], &mut out);
        // 10, (11 dropped), 12, 13 13, 14, 15^1, 16, 17, crash at 18.
        assert_eq!(out, vec![10, 12, 13, 13, 14, 14, 16, 17]);
        assert!(fx.crashed && ch.is_crashed());
        assert_eq!(ch.faults_applied(), 4);
    }

    #[test]
    fn short_read_cuts_inside_the_chunk() {
        let plan = SimPlan::parse("short@2").unwrap();
        let mut out = Vec::new();
        let mut ch = FaultChannel::new(&plan);
        let fx = ch.apply(&[1, 2, 3, 4, 5], &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(fx.cut, Some(3));
    }

    #[test]
    fn injector_output_is_chunking_independent() {
        let data = pattern(512);
        let plan = SimPlan::parse("drop@5,flip@17:6,dup@40,short@100,drop@101,dup@300").unwrap();
        let want = golden(&data, &plan);
        for chunk in [1usize, 7, 64, 512] {
            let (host, dev) = VirtualSerial::pair();
            let injector = FaultInjector::new(host, &plan);
            let writer = std::thread::spawn({
                let data = data.clone();
                move || {
                    for piece in data.chunks(chunk) {
                        dev.write_all(piece).unwrap();
                    }
                    dev
                }
            });
            let mut got = Vec::new();
            let mut buf = [0u8; 33];
            while got.len() < want.len() {
                let n = injector
                    .read(&mut buf, Some(Duration::from_secs(5)))
                    .expect("read");
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, want, "chunk size {chunk}");
            assert_eq!(injector.bytes_seen(), data.len() as u64);
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn injector_crash_disconnects_both_directions() {
        let data = pattern(64);
        let plan = SimPlan::parse("crash@10").unwrap();
        let (host, dev) = VirtualSerial::pair();
        let injector = FaultInjector::new(host, &plan);
        dev.write_all(&data).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match injector.read(&mut buf, Some(Duration::from_secs(1))) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => {
                    assert_eq!(e, TransportError::Disconnected);
                    break;
                }
            }
        }
        assert_eq!(got, &data[..10], "bytes before the crash survive");
        assert!(injector.is_crashed());
        assert_eq!(
            injector.write_all(b"x"),
            Err(TransportError::Disconnected),
            "writes fail after the crash"
        );
        assert_eq!(injector.available(), 0);
    }

    #[test]
    fn proxy_faults_only_the_downstream_direction() {
        let plan = SimPlan::parse("flip@3:0,drop@8").unwrap();
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            // Echo 16 bytes back, then close.
            let mut buf = [0u8; 16];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
            buf
        });
        let proxy = FaultProxy::start(upstream_addr, &plan).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let sent: Vec<u8> = (0u8..16).collect();
        client.write_all(&sent).unwrap();
        let seen_by_server = server.join().unwrap();
        assert_eq!(&seen_by_server[..], &sent[..], "upstream is verbatim");
        let mut echoed = Vec::new();
        client.read_to_end(&mut echoed).unwrap();
        assert_eq!(echoed, golden(&sent, &plan), "downstream is faulted");
    }
}
