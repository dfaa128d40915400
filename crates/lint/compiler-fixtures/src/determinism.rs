//! Wall-clock reads and sleeps, as in the lib roots of the sim-clocked
//! crates (sim, archive, tsdb, bench, pmt, duts) and in `repro`.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::time::{Duration, Instant, SystemTime};

pub fn sample_time() -> (Instant, SystemTime) {
    let t = Instant::now(); //~ clippy::disallowed_methods
    let w = SystemTime::now(); //~ clippy::disallowed_methods
    (t, w)
}

pub fn wait_for_device(d: Duration) {
    std::thread::sleep(d); //~ clippy::disallowed_methods
}

/// A token matcher sees `Clock::now`; clippy resolves the path.
pub fn aliased_clock() -> Duration {
    use std::time::Instant as Clock;
    Clock::now().elapsed() //~ clippy::disallowed_methods
}

pub fn allowed_wait(d: Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: a deliberate wall-clock wait is not a finding"
    )]
    std::thread::sleep(d);
}

/// A suppression must say why, and name a lint that exists.
pub fn unexplained_wait(d: Duration) {
    #[expect(clippy::disallowed_methods)] //~ clippy::allow_attributes_without_reason
    std::thread::sleep(d);
    #[expect(clippy::no_such_lint, reason = "fixture: a misspelt lint")] //~ unknown_lints
    let _ = d;
}

pub fn virtual_clock_is_fine(ticks: u64) -> Duration {
    Duration::from_micros(ticks * 50)
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_in_test_code_is_fine() {
        let _ = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::ZERO);
    }
}
