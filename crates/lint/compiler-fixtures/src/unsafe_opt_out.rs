//! `unsafe` outside `compat/mio` and the MXCSR probe: the workspace
//! denies `unsafe_code` unless a module or crate opts out.

pub fn first(v: &[u8]) -> u8 {
    if v.is_empty() {
        return 0;
    }
    // SAFETY: `v` is non-empty, so index 0 is in bounds.
    unsafe { *v.get_unchecked(0) } //~ unsafe_code
}
