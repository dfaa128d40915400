//! Rule drivers. Each rule pushes [`Finding`]s; `run_all` runs every
//! rule over the file set and returns findings sorted by location.

pub mod atomics;
pub mod lock_order;

use crate::config::Config;
use crate::findings::Finding;
use crate::source::SourceFile;

/// Runs every rule class over `files` and returns findings sorted by
/// file/line/rule.
#[must_use]
pub fn run_all(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        atomics::check(f, cfg, &mut out);
    }
    lock_order::check(files, cfg, &mut out);
    out.sort();
    out.dedup();
    out
}
