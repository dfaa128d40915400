//! Planted violations, one module per convention. Each module opens
//! with the same lint attribute as the workspace code it stands in for.
//! Checked twice: under the root clippy.toml (every module but
//! `blocking_io`) and under `crates/stream`'s and `crates/fleet`'s
//! (`blocking_io` only).

pub mod blocking_io;
pub mod determinism;
pub mod panic_path;
pub mod unsafe_opt_out;
pub mod unsafety;
