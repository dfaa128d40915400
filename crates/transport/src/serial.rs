//! The in-memory virtual serial pair.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::{Transport, TransportError};

/// Default per-direction buffer: roomy enough for ~0.1 s of full-rate
/// sensor data (20 kHz × 18 bytes/frame ≈ 360 kB/s).
const DEFAULT_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct Pipe {
    buf: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct PipeState {
    data: VecDeque<u8>,
    /// Set when the writing side has been dropped.
    closed: bool,
    /// Set by a [`ReadWaker`]; consumed by the next `wait_readable`.
    woken: bool,
}

impl Pipe {
    fn new(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(PipeState {
                data: VecDeque::new(),
                closed: false,
                woken: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        }
    }

    fn write_all(&self, mut bytes: &[u8]) -> Result<(), TransportError> {
        while !bytes.is_empty() {
            let mut state = self.buf.lock();
            while state.data.len() >= self.capacity && !state.closed {
                self.writable.wait(&mut state);
            }
            if state.closed {
                return Err(TransportError::Disconnected);
            }
            let room = self.capacity - state.data.len();
            let n = room.min(bytes.len());
            state.data.extend(&bytes[..n]);
            bytes = &bytes[n..];
            drop(state);
            self.readable.notify_one();
        }
        Ok(())
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.buf.lock();
        loop {
            if !state.data.is_empty() {
                let n = buf.len().min(state.data.len());
                // The ring holds at most two runs: its front, then the
                // part wrapped to the start of its storage.
                let (front, back) = state.data.as_slices();
                let head = n.min(front.len());
                buf[..head].copy_from_slice(&front[..head]);
                buf[head..n].copy_from_slice(&back[..n - head]);
                state.data.drain(..n);
                drop(state);
                self.writable.notify_one();
                return Ok(n);
            }
            if state.closed {
                return Err(TransportError::Disconnected);
            }
            match timeout {
                Some(t) => {
                    if self.readable.wait_for(&mut state, t).timed_out() && state.data.is_empty() {
                        if state.closed {
                            return Err(TransportError::Disconnected);
                        }
                        return Err(TransportError::TimedOut);
                    }
                }
                None => self.readable.wait(&mut state),
            }
        }
    }

    fn wait_readable(&self) {
        let mut state = self.buf.lock();
        while state.data.is_empty() && !state.woken {
            self.readable.wait(&mut state);
        }
        state.woken = false;
    }

    fn wake(&self) {
        self.buf.lock().woken = true;
        self.readable.notify_all();
    }

    fn close(&self) {
        let mut state = self.buf.lock();
        state.closed = true;
        drop(state);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    fn available(&self) -> usize {
        self.buf.lock().data.len()
    }
}

/// One end of a [`VirtualSerial`] link.
///
/// Cloning an endpoint shares the same underlying pipes (like `dup` on
/// a file descriptor); the link closes only when the *last* clone of an
/// endpoint is dropped.
#[derive(Debug, Clone)]
pub struct SerialEndpoint {
    /// Pipe this endpoint reads from.
    rx: Arc<Pipe>,
    /// Pipe this endpoint writes to.
    tx: Arc<Pipe>,
    /// Close-on-last-drop guard for the tx pipe.
    _guard: Arc<CloseGuard>,
}

#[derive(Debug)]
struct CloseGuard {
    /// Both pipes of the link: dropping the last clone of an endpoint
    /// severs the whole connection, like unplugging a USB cable.
    pipes: [Arc<Pipe>; 2],
}

impl Drop for CloseGuard {
    fn drop(&mut self) {
        for pipe in &self.pipes {
            pipe.close();
        }
    }
}

impl SerialEndpoint {
    /// Blocks until bytes are waiting to be read, or until a
    /// [`ReadWaker`] of this endpoint fires. A wakeup that fires while
    /// nobody waits is kept for the next call, so none is lost.
    pub fn wait_readable(&self) {
        self.rx.wait_readable();
    }

    /// A handle that interrupts [`SerialEndpoint::wait_readable`] from
    /// another thread. Unlike a clone, it does not keep the link open.
    #[must_use]
    pub fn read_waker(&self) -> ReadWaker {
        ReadWaker(Arc::clone(&self.rx))
    }
}

/// Interrupts a blocked [`SerialEndpoint::wait_readable`] (see
/// [`SerialEndpoint::read_waker`]).
#[derive(Debug)]
pub struct ReadWaker(Arc<Pipe>);

impl ReadWaker {
    /// Wakes the endpoint's current or next `wait_readable`.
    pub fn wake(&self) {
        self.0.wake();
    }
}

/// Factory for connected endpoint pairs.
#[derive(Debug)]
pub struct VirtualSerial;

impl VirtualSerial {
    /// Creates a connected pair with the default buffer capacity.
    ///
    /// By convention the first endpoint is the host side and the second
    /// the device side, but the link is symmetric.
    #[must_use]
    pub fn pair() -> (SerialEndpoint, SerialEndpoint) {
        Self::pair_with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a connected pair with buffers of `capacity` bytes per
    /// direction. Small capacities exercise backpressure, modelling the
    /// Black Pill's limited USB 1.1 endpoint buffering.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn pair_with_capacity(capacity: usize) -> (SerialEndpoint, SerialEndpoint) {
        assert!(capacity > 0, "capacity must be non-zero");
        let a_to_b = Arc::new(Pipe::new(capacity));
        let b_to_a = Arc::new(Pipe::new(capacity));
        let a = SerialEndpoint {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
            _guard: Arc::new(CloseGuard {
                pipes: [Arc::clone(&a_to_b), Arc::clone(&b_to_a)],
            }),
        };
        let b = SerialEndpoint {
            rx: Arc::clone(&a_to_b),
            tx: Arc::clone(&b_to_a),
            _guard: Arc::new(CloseGuard {
                pipes: [a_to_b, b_to_a],
            }),
        };
        (a, b)
    }
}

impl Transport for SerialEndpoint {
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.tx.write_all(bytes)
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        self.rx.read(buf, timeout)
    }

    fn available(&self) -> usize {
        self.rx.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn roundtrip_both_directions() {
        let (a, b) = VirtualSerial::pair();
        a.write_all(b"hello").unwrap();
        b.write_all(b"world").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    /// Reads that cross the ring's wrap point, and reads shorter than
    /// what is buffered, deliver every byte in order.
    #[test]
    fn reads_across_the_ring_wrap_deliver_every_byte() {
        let (a, b) = VirtualSerial::pair_with_capacity(1000);
        let (mut written, mut read) = (0usize, 0usize);
        let (mut wrapped, mut partial) = (0, 0);
        let byte = |i: usize| (i * 7 % 251) as u8;
        let mut buf = [0u8; 300];
        for round in 0..400usize {
            let room = 1000 - (written - read);
            let chunk: Vec<u8> = (written..written + (round * 37 % 211).min(room))
                .map(byte)
                .collect();
            a.write_all(&chunk).unwrap();
            written += chunk.len();
            let buffered = written - read;
            if buffered == 0 {
                continue;
            }
            if !b.rx.buf.lock().data.as_slices().1.is_empty() {
                wrapped += 1;
            }
            let want = 1 + round * 53 % 300;
            partial += usize::from(want < buffered);
            let n = b.read(&mut buf[..want], Some(Duration::ZERO)).unwrap();
            assert_eq!(n, want.min(buffered), "round {round}");
            for (k, &got) in buf[..n].iter().enumerate() {
                assert_eq!(got, byte(read + k), "round {round}, byte {}", read + k);
            }
            read += n;
        }
        assert!(
            wrapped > 10 && partial > 10,
            "{wrapped} wrapped, {partial} partial"
        );
        assert_eq!(b.available(), written - read);
    }

    #[test]
    fn read_timeout() {
        let (a, _b) = VirtualSerial::pair();
        let mut buf = [0u8; 1];
        let err = a
            .read(&mut buf, Some(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, TransportError::TimedOut);
    }

    #[test]
    fn disconnect_on_drop() {
        let (a, b) = VirtualSerial::pair();
        drop(b);
        let mut buf = [0u8; 1];
        assert_eq!(
            a.read(&mut buf, None).unwrap_err(),
            TransportError::Disconnected
        );
        assert_eq!(a.write_all(b"x").unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn buffered_bytes_readable_after_disconnect() {
        let (a, b) = VirtualSerial::pair();
        b.write_all(b"last words").unwrap();
        drop(b);
        let mut buf = [0u8; 10];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"last words");
        assert_eq!(
            a.read(&mut buf, None).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn backpressure_blocks_then_resumes() {
        let (a, b) = VirtualSerial::pair_with_capacity(4);
        let writer = thread::spawn(move || {
            a.write_all(b"0123456789").unwrap();
        });
        // Give the writer a chance to fill the buffer and block.
        thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        let mut buf = [0u8; 3];
        while out.len() < 10 {
            let n = b.read(&mut buf, Some(Duration::from_secs(1))).unwrap();
            out.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(out, b"0123456789");
    }

    #[test]
    fn clones_share_the_stream() {
        let (a, b) = VirtualSerial::pair();
        let a2 = a.clone();
        a.write_all(b"x").unwrap();
        drop(a); // a2 still alive: link must stay open
        a2.write_all(b"y").unwrap();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"xy");
        drop(a2); // now the link closes
        assert_eq!(
            b.read(&mut buf, None).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn available_counts_buffered() {
        let (a, b) = VirtualSerial::pair();
        assert_eq!(b.available(), 0);
        a.write_all(b"abc").unwrap();
        assert_eq!(b.available(), 3);
    }

    #[test]
    fn concurrent_writer_reader_transfers_everything() {
        let (a, b) = VirtualSerial::pair_with_capacity(257);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let writer = thread::spawn(move || a.write_all(&payload).unwrap());
        let mut got = vec![0u8; expect.len()];
        b.read_exact(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn wait_readable_returns_on_bytes_and_on_wake() {
        let (a, b) = VirtualSerial::pair();
        a.write_all(b"x").unwrap();
        b.wait_readable(); // bytes already waiting
        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).unwrap();
        // Nothing left to read: only the waker can end this wait.
        let waker = b.read_waker();
        let blocked = thread::spawn(move || b.wait_readable());
        waker.wake();
        blocked.join().unwrap();
        // The waker alone does not hold the link open.
        assert_eq!(
            a.read(&mut buf, None).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn empty_read_returns_zero() {
        let (a, b) = VirtualSerial::pair();
        b.write_all(b"z").unwrap();
        let mut empty: [u8; 0] = [];
        assert_eq!(a.read(&mut empty, None).unwrap(), 0);
    }
}
