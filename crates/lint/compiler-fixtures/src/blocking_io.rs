//! Blocking socket calls and thread spawns on the readiness loop, as in
//! `crates/stream/src/event_loop.rs` and `crates/fleet/src/serve.rs`.
//! The list lives in those crates' clippy.toml, not the root one.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

pub fn accept_loop(listener: &TcpListener) {
    for mut sock in listener.incoming().flatten() {
        std::thread::spawn(move || {
            //~^ clippy::disallowed_methods
            let mut len = [0u8; 4];
            sock.read_exact(&mut len).ok(); //~ clippy::disallowed_methods
            sock.write_all(&len).ok(); //~ clippy::disallowed_methods
        });
    }
}

pub fn drain(sock: &mut TcpStream, buf: &mut Vec<u8>, text: &mut String) {
    sock.read_to_end(buf).ok(); //~ clippy::disallowed_methods
    sock.read_to_string(text).ok(); //~ clippy::disallowed_methods
}

pub fn timed_blocking_mode(sock: &TcpStream, timeout: Duration) {
    sock.set_read_timeout(Some(timeout)).ok(); //~ clippy::disallowed_methods
    sock.set_write_timeout(Some(timeout)).ok(); //~ clippy::disallowed_methods
}

pub fn builder_variant(work: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name("per-conn".into())
        .spawn(work) //~ clippy::disallowed_methods
        .ok();
}

pub fn readiness_variant(sock: &mut TcpStream, chunk: &mut [u8]) {
    sock.set_nonblocking(true).ok();
    let _ = sock.read(chunk);
    let _ = sock.write(chunk);
}

#[expect(
    clippy::disallowed_methods,
    reason = "fixture: the one event-loop thread itself, not per-connection"
)]
pub fn allowed_loop_thread(run: impl FnOnce() + Send + 'static) {
    std::thread::spawn(run);
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    #[test]
    fn blocking_in_test_code_is_fine() {
        let mut sink = Vec::new();
        sink.write_all(b"x").ok();
        std::thread::spawn(|| {}).join().ok();
    }
}
