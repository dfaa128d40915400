//! Panics on a server hot path, as in the stream daemon, ring, socket
//! and event-loop modules, the fleet coordinator, rig supervision and
//! serve handler, and the tsdb compactor and writer.

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

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

pub fn subscriber_loop(rx: &Receiver<u32>, out: &mut Vec<u32>) {
    let frame = rx.recv().unwrap(); //~ clippy::unwrap_used
    let next = rx.try_recv().expect("second frame"); //~ clippy::expect_used
    if next < frame {
        panic!("stale frame in subscriber"); //~ clippy::panic
    }
    match frame % 2 {
        0 => out.push(frame),
        1 => out.push(next),
        _ => unreachable!("a remainder of 2 is 0 or 1"), //~ clippy::unreachable
    }
}

pub fn unfinished_handler() {
    todo!() //~ clippy::todo
}

pub fn unsupported_handler() {
    unimplemented!() //~ clippy::unimplemented
}

pub fn graceful_variant(rx: &Receiver<u32>, out: &mut Vec<u32>) {
    let Ok(frame) = rx.recv() else {
        return;
    };
    out.push(frame);
}

pub fn allowed_unwrap(lock: &Mutex<u8>) -> u8 {
    #[expect(
        clippy::unwrap_used,
        reason = "fixture: a poisoned lock is unrecoverable by design"
    )]
    let guard = lock.lock().unwrap();
    *guard
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_in_test_code_are_fine() {
        let v: Result<u8, _> = "1".parse::<u8>();
        assert_eq!(v.clone().unwrap(), 1);
        assert_eq!(v.clone().expect("a digit"), 1);
        if v.is_err() {
            unreachable!("1 is a digit");
        }
    }
}
