//! Socket plumbing shared by the stream daemon and the fleet
//! coordinator.
//!
//! The raw-syscall pieces ([`bind_reusable`] — `SO_REUSEADDR` set
//! *before* `bind` so a bounced daemon never races the kernel's
//! `TIME_WAIT` hold — and [`set_send_buffer`] — `SO_SNDBUF` capping)
//! live in the vendored `mio` compat crate, the workspace's one
//! `unsafe` enclave; this module re-exports them so `ps3-stream`
//! stays `#![forbid(unsafe_code)]` and existing callers keep their
//! import paths.

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

use std::io;

pub use mio::net::{bind_reusable, set_send_buffer};

/// Resolves a daemon's listen address: an explicit CLI value wins,
/// then the `PS3_BIND` environment variable, then `default`. Shared by
/// `ps3-streamd` and `ps3-fleet` so both honour the same conventions.
#[must_use]
pub fn resolve_bind(explicit: Option<String>, default: &str) -> String {
    explicit
        .or_else(|| std::env::var("PS3_BIND").ok().filter(|v| !v.is_empty()))
        .unwrap_or_else(|| default.to_owned())
}

/// Formats a bind failure so the colliding address is named (an
/// `EADDRINUSE` without the address is useless in fleet logs).
#[must_use]
pub fn bind_error(addr: &str, e: &io::Error) -> String {
    if e.kind() == io::ErrorKind::AddrInUse {
        format!("cannot bind {addr}: address already in use (another daemon on {addr}?)")
    } else {
        format!("cannot bind {addr}: {e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_and_accepts() {
        let listener = bind_reusable("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (_conn, peer) = listener.accept().unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
    }

    #[test]
    fn rebinds_immediately_after_close() {
        let listener = bind_reusable("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Leave a connection half-open so the old listener's port
        // lingers, then rebind the exact same address straight away.
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (_conn, _) = listener.accept().unwrap();
        drop(listener);
        let again = bind_reusable(addr).unwrap();
        assert_eq!(again.local_addr().unwrap(), addr);
    }

    #[test]
    fn reports_collision() {
        let listener = bind_reusable("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // SO_REUSEADDR does not allow two *live* listeners.
        let err = bind_reusable(addr).unwrap_err();
        let msg = bind_error(&addr.to_string(), &err);
        assert!(
            msg.contains(&addr.to_string()) && msg.contains("in use"),
            "collision message must name the address: {msg}"
        );
    }

    #[test]
    fn resolve_bind_prefers_explicit_over_default() {
        assert_eq!(
            resolve_bind(Some("10.0.0.1:9".into()), "127.0.0.1:9421"),
            "10.0.0.1:9"
        );
        // No explicit value and (in the test env) no PS3_BIND: default.
        if std::env::var("PS3_BIND").is_err() {
            assert_eq!(resolve_bind(None, "127.0.0.1:9421"), "127.0.0.1:9421");
        }
    }
}
