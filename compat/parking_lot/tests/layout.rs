//! The lock-order check is compiled out of release builds: there a
//! `parking_lot::Mutex` is exactly the `std` mutex it wraps.
//! `ci.sh test` runs this with `--release` as well as in debug.

use std::mem::size_of;

#[test]
fn lock_order_class_exists_only_in_debug_builds() {
    let ours = size_of::<parking_lot::Mutex<u64>>();
    let std = size_of::<std::sync::Mutex<u64>>();
    if cfg!(debug_assertions) {
        assert!(ours > std, "debug Mutex carries its class: {ours} vs {std}");
    } else {
        assert_eq!(ours, std, "release Mutex must be the bare std mutex");
    }
}
