//! Virtual serial/USB transport.
//!
//! The real PowerSensor3 talks to the host over the Black Pill's USB
//! 1.1 full-speed CDC-ACM serial port. This crate provides the software
//! equivalent: a pair of in-memory byte pipes ([`VirtualSerial::pair`])
//! with blocking reads, bounded buffering (backpressure, like a full
//! USB endpoint), and explicit disconnect semantics.
//!
//! [`RecordingTransport`] tees all traffic for protocol inspection.
//! Link faults are injected by `ps3_sim::FaultInjector`, which wraps
//! any [`Transport`]; recorded bytes are decoded offline by
//! `ps3_core::decode_stream`.
//!
//! # Examples
//!
//! ```
//! use ps3_transport::{Transport, VirtualSerial};
//!
//! let (host, device) = VirtualSerial::pair();
//! host.write_all(b"V").unwrap(); // firmware 'version' command
//! let mut buf = [0u8; 1];
//! device.read_exact(&mut buf).unwrap();
//! assert_eq!(&buf, b"V");
//! ```

#![forbid(unsafe_code)]

mod recording;
mod serial;

use std::error::Error;
use std::fmt;
use std::time::Duration;

pub use recording::RecordingTransport;
pub use serial::{ReadWaker, SerialEndpoint, VirtualSerial};

/// Errors returned by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The peer endpoint has been dropped and the buffer is drained.
    Disconnected,
    /// A read with a timeout expired before any byte arrived.
    TimedOut,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport peer disconnected"),
            TransportError::TimedOut => write!(f, "transport read timed out"),
        }
    }
}

impl Error for TransportError {}

/// A bidirectional byte-stream endpoint.
///
/// Implementations must be safe to share across threads: the host
/// library reads sensor data from a background thread while sending
/// commands from the caller's thread.
pub trait Transport: Send + Sync {
    /// Writes all bytes, blocking while the peer's buffer is full.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer is gone.
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Reads at least one byte into `buf`, blocking up to `timeout`
    /// (or indefinitely when `None`). Returns the number of bytes read.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::TimedOut`] when the deadline expires
    /// with nothing available, or [`TransportError::Disconnected`] when
    /// the peer is gone and the buffer is drained.
    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError>;

    /// Reads exactly `buf.len()` bytes (no timeout).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer disconnects
    /// before the buffer is filled.
    fn read_exact(&self, buf: &mut [u8]) -> Result<(), TransportError> {
        let mut filled = 0;
        while filled < buf.len() {
            filled += self.read(&mut buf[filled..], None)?;
        }
        Ok(())
    }

    /// Number of bytes currently buffered for reading.
    fn available(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            TransportError::Disconnected.to_string(),
            "transport peer disconnected"
        );
        assert_eq!(
            TransportError::TimedOut.to_string(),
            "transport read timed out"
        );
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_t: &dyn Transport) {}
    }
}
