//! Flag parsing and the serving summary lines shared by the
//! command-line tools in `src/bin`.
//!
//! Flags take the form `--name VALUE`. An absent flag falls back to the
//! tool's default; a present flag must carry a well-formed value, or
//! the command fails with an error naming the flag.

use std::fmt::Display;
use std::str::FromStr;

use ps3_stream::StreamStats;

/// The value following `flag` in `args`, or `None` when the flag is
/// absent.
///
/// # Errors
///
/// The flag is the last argument, or the next argument is another
/// `--flag`.
pub fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// The value following `flag` in `args` parsed as `T`, or `None` when
/// the flag is absent.
///
/// # Errors
///
/// As [`flag_value`], or the value does not parse as `T`.
pub fn flag<T>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(args, flag)?
        .map(|value| {
            value
                .parse()
                .map_err(|e| format!("{flag}: malformed value '{value}' ({e})"))
        })
        .transpose()
}

/// The periodic progress line of a serving tool, `secs` seconds in.
#[must_use]
pub fn progress_line(secs: u64, s: &StreamStats) -> String {
    format!(
        "t={:>5} s  frames={}  subscribers={} (peak {})  accepted={}  gaps={}  evicted={} (gaps {}, stalled {})  sent={} B",
        secs,
        s.frames_published,
        s.active_subscribers,
        s.active_peak,
        s.accepted,
        s.gap_events,
        s.evicted,
        s.evicted_gaps,
        s.evicted_stalled,
        s.bytes_sent
    )
}

/// The `done:` summary a serving tool prints on exit.
#[must_use]
pub fn done_line(s: &StreamStats) -> String {
    format!(
        "done: {} frames served to {} accepted subscribers (peak {} concurrent), {} bytes sent, {} gap events, {} evictions ({} gap-budget, {} stalled-write)",
        s.frames_published,
        s.accepted,
        s.active_peak,
        s.bytes_sent,
        s.gap_events,
        s.evicted,
        s.evicted_gaps,
        s.evicted_stalled
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn absent_flag_is_none_and_present_flag_parses() {
        let a = args("FILE --frames 4000 --out x.ps3a");
        assert_eq!(flag::<u64>(&a, "--seed"), Ok(None));
        assert_eq!(flag::<u64>(&a, "--frames"), Ok(Some(4000)));
        assert_eq!(flag_value(&a, "--out"), Ok(Some("x.ps3a".to_owned())));
    }

    #[test]
    fn malformed_or_missing_values_name_the_flag() {
        let err = flag::<u64>(&args("--frames 4k"), "--frames").unwrap_err();
        assert!(err.starts_with("--frames: malformed value '4k'"), "{err}");
        for line in ["--frames", "--frames --seed 3"] {
            let err = flag::<u64>(&args(line), "--frames").unwrap_err();
            assert_eq!(err, "--frames needs a value");
        }
    }
}
