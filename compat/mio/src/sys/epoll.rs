//! The Linux backend: one `epoll` instance per selector.
//!
//! Sockets register **level-triggered**, so callers are never required
//! to drain a source to `WouldBlock` for correctness — unhandled
//! readiness simply reports again on the next wait. The waker's
//! `eventfd` registers **edge-triggered** (`EPOLLET`): every `write`
//! to the counter re-arms one event, so the counter never needs to be
//! read back and `wake()` stays a single syscall.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

use crate::{Event, Events, Interest, Token};

const EPOLL_CLOEXEC: i32 = 0x8_0000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0x8_0000;

/// `struct epoll_event`. The kernel packs it on x86-64 (no padding
/// between the 32-bit event mask and the 64-bit data word); on other
/// architectures it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
}

/// The epoll selector.
#[derive(Debug)]
pub struct Selector {
    epfd: OwnedFd,
}

impl Selector {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures (fd exhaustion).
    pub fn new() -> io::Result<Selector> {
        // SAFETY: plain fd creation; a negative return is an error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Selector {
            // SAFETY: fd was just returned by epoll_create1 and is owned
            // by nobody else; OwnedFd closes it.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token.0 as u64,
        };
        // SAFETY: epfd and fd are live fds; ev is a properly laid-out
        // epoll_event that outlives the call.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &raw mut ev) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.is_readable() {
            bits |= EPOLLIN;
        }
        if interest.is_writable() {
            bits |= EPOLLOUT;
        }
        bits
    }

    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Self::interest_bits(interest), token)
    }

    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Self::interest_bits(interest), token)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Token(0))
    }

    pub fn register_waker(&self, waker: &WakerFd, token: Token) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            waker.fd.as_raw_fd(),
            EPOLLIN | EPOLLET,
            token,
        )
    }

    pub fn deregister_waker(&self, waker: &WakerFd) -> io::Result<()> {
        self.deregister(waker.fd.as_raw_fd())
    }

    pub fn select(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        let cap = events.capacity.min(1024);
        let mut buf = vec![EpollEvent { events: 0, data: 0 }; cap];
        let n = loop {
            // SAFETY: buf is a live, properly laid-out epoll_event
            // array of length cap; the kernel writes at most cap
            // entries.
            let rc = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    cap as i32,
                    super::timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            let (bits, data) = (ev.events, ev.data);
            events.inner.push(Event {
                token: data as usize,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                error: bits & EPOLLERR != 0,
                read_closed: bits & (EPOLLRDHUP | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// The wakeup fd: an `eventfd` counter. Writes re-arm the
/// edge-triggered registration; the counter is never read back (it
/// saturates only after 2^64 − 1 un-polled wakes).
#[derive(Debug)]
pub struct WakerFd {
    fd: OwnedFd,
}

impl WakerFd {
    pub fn new() -> io::Result<WakerFd> {
        // SAFETY: plain fd creation; a negative return is an error.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakerFd {
            // SAFETY: fd was just returned by eventfd and is owned by
            // nobody else; OwnedFd closes it.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: valid fd; buf points at 8 readable bytes (the u64),
        // matching count.
        let rc = unsafe {
            write(
                self.fd.as_raw_fd(),
                (&raw const one).cast(),
                core::mem::size_of::<u64>(),
            )
        };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        // A saturated counter still has a wakeup pending: success.
        if err.kind() == io::ErrorKind::WouldBlock {
            Ok(())
        } else {
            Err(err)
        }
    }
}
