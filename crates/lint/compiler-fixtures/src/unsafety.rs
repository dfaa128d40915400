//! `unsafe` without a `// SAFETY:` comment, in a module that opts out
//! of `unsafe_code` the way `compat/mio` does.

#![expect(unsafe_code, reason = "fixture: the opt-out compat/mio uses")]

use std::fs::File;
use std::os::fd::{FromRawFd, IntoRawFd, OwnedFd};

pub fn read_reg(reg: &u32) -> u32 {
    unsafe { core::ptr::read_volatile(reg) } //~ clippy::undocumented_unsafe_blocks
}

pub fn documented_read(reg: &u32) -> u32 {
    // SAFETY: a reference is valid and aligned for the whole read; the
    // volatile read has no aliasing requirements beyond that.
    unsafe { core::ptr::read_volatile(reg) }
}

pub struct Holder {
    pub fd: OwnedFd,
}

/// The comment must sit directly above the field that holds the block.
pub fn adopt(file: File) -> Holder {
    let fd = file.into_raw_fd();
    // SAFETY: `fd` was just released by `file` and is owned by nobody
    // else; OwnedFd closes it.
    Holder {
        fd: unsafe { OwnedFd::from_raw_fd(fd) }, //~ clippy::undocumented_unsafe_blocks
    }
}

pub struct Wrapper(pub *const u32);

// SAFETY: the pointer is never dereferenced through a shared Wrapper.
unsafe impl Send for Wrapper {}
