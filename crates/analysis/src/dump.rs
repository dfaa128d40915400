//! Writer and parser for PowerSensor3 continuous-mode dump files.
//!
//! The format is line-oriented text:
//!
//! ```text
//! # PowerSensor3 dump (times in device µs)
//! 1025 38.4000 2.1000 40.5000        <- t_us, per-pair W…, total W
//! M 1075 k                           <- marker at t_us with label 'k'
//! # end frames=1                     <- seal: the dump is complete
//! ```
//!
//! [`DumpWriter`] writes it — for the host library's live `dump_to`
//! and for `ps3-arc cat` of an archive alike — and [`parse_dump`] reads
//! it back into a [`Trace`] (total power) plus the per-pair series,
//! closing the capture-to-analysis loop without the device being
//! attached.

use core::fmt;
use std::error::Error;
use std::io::{self, Write};

use ps3_units::{SimTime, Watts};

use crate::trace::Trace;

/// Writes the continuous-mode dump format: the header on creation, one
/// data line (plus a marker line when marked) per frame, and the
/// `# end frames=N` seal that tells a complete dump from one cut short.
/// Which per-pair columns a frame carries is the caller's choice.
#[derive(Debug)]
pub struct DumpWriter<W: Write> {
    out: W,
    frames: u64,
}

impl<W: Write> DumpWriter<W> {
    /// Starts a dump by writing its header line.
    ///
    /// # Errors
    ///
    /// Any error writing to `out`.
    pub fn new(mut out: W) -> io::Result<Self> {
        writeln!(out, "# PowerSensor3 dump (times in device µs)")?;
        Ok(Self { out, frames: 0 })
    }

    /// Writes one frame: `t_us`, each of `pairs` and `total` in watts
    /// to four decimals, then `M t_us label` if the frame is marked.
    ///
    /// # Errors
    ///
    /// Any error writing to the underlying writer.
    pub fn frame(
        &mut self,
        time: SimTime,
        pairs: impl IntoIterator<Item = Watts>,
        total: Watts,
        marker: Option<char>,
    ) -> io::Result<()> {
        let t = time.as_micros();
        write!(self.out, "{t}")?;
        for watts in pairs {
            write!(self.out, " {:.4}", watts.value())?;
        }
        writeln!(self.out, " {:.4}", total.value())?;
        if let Some(label) = marker {
            writeln!(self.out, "M {t} {label}")?;
        }
        self.frames += 1;
        Ok(())
    }

    /// Writes the seal record, flushes, and hands back the writer.
    ///
    /// # Errors
    ///
    /// Any error writing to or flushing the underlying writer.
    pub fn seal(mut self) -> io::Result<W> {
        writeln!(self.out, "# end frames={}", self.frames)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A parsed dump: the total-power trace plus per-pair power series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedDump {
    /// Total power over time, with markers attached.
    pub total: Trace,
    /// Per-pair power series, one trace per enabled pair, in pair
    /// order.
    pub pairs: Vec<Trace>,
}

/// Errors from [`parse_dump`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseDumpError {
    /// A data line had an unparseable field.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
    /// A marker line was malformed.
    BadMarker {
        /// 1-based line number.
        line: usize,
    },
    /// Data lines disagreed about the number of columns.
    InconsistentColumns {
        /// 1-based line number.
        line: usize,
    },
    /// A data line's timestamp precedes the previous data line's.
    TimeBackwards {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ParseDumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDumpError::BadNumber { line } => {
                write!(f, "unparseable number on line {line}")
            }
            ParseDumpError::BadMarker { line } => {
                write!(f, "malformed marker on line {line}")
            }
            ParseDumpError::InconsistentColumns { line } => {
                write!(f, "inconsistent column count on line {line}")
            }
            ParseDumpError::TimeBackwards { line } => {
                write!(f, "timestamp goes backwards on line {line}")
            }
        }
    }
}

impl Error for ParseDumpError {}

/// One successfully parsed dump line.
enum DumpLine {
    /// Blank line or `#` comment.
    Skip,
    /// `M t_us <label>` marker line.
    Marker(u64, char),
    /// Data line: timestamp plus per-pair and total power columns.
    Data(u64, Vec<f64>),
}

fn parse_line(trimmed: &str, line: usize) -> Result<DumpLine, ParseDumpError> {
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(DumpLine::Skip);
    }
    if let Some(rest) = trimmed.strip_prefix("M ") {
        let mut parts = rest.split_whitespace();
        let t: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseDumpError::BadMarker { line })?;
        let label = parts
            .next()
            .and_then(|s| s.chars().next())
            .ok_or(ParseDumpError::BadMarker { line })?;
        return Ok(DumpLine::Marker(t, label));
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() < 2 {
        return Err(ParseDumpError::BadNumber { line });
    }
    let t: u64 = fields[0]
        .parse()
        .map_err(|_| ParseDumpError::BadNumber { line })?;
    let mut values = Vec::with_capacity(fields.len() - 1);
    for f in &fields[1..] {
        let v: f64 = f.parse().map_err(|_| ParseDumpError::BadNumber { line })?;
        values.push(v);
    }
    Ok(DumpLine::Data(t, values))
}

/// Parses a dump file's text.
///
/// Comment lines (`#`) are skipped; marker lines attach to the total
/// trace; blank lines are ignored. Data timestamps must not decrease.
/// Both `\n` and `\r\n` line endings are accepted. If the text does
/// not end in a newline, its final line is treated as a torn tail from
/// an interrupted write: a parse or ordering failure there drops the
/// fragment instead of failing the whole dump.
///
/// # Errors
///
/// Returns a [`ParseDumpError`] naming the offending line.
pub fn parse_dump(text: &str) -> Result<ParsedDump, ParseDumpError> {
    let mut out = ParsedDump::default();
    let mut columns: Option<usize> = None;
    let complete = text.is_empty() || text.ends_with('\n');
    let last_idx = text.lines().count().saturating_sub(1);
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let torn_tail = !complete && idx == last_idx;
        let parsed = match parse_line(raw.trim(), line) {
            Ok(parsed) => parsed,
            Err(_) if torn_tail => break,
            Err(e) => return Err(e),
        };
        match parsed {
            DumpLine::Skip => {}
            DumpLine::Marker(t, label) => out.total.mark(SimTime::from_micros(t), label),
            DumpLine::Data(t, values) => {
                let fields = values.len() + 1;
                let time = SimTime::from_micros(t);
                let error = if columns.is_some_and(|n| n != fields) {
                    // A data line torn mid-write looks like a line
                    // with too few columns.
                    Some(ParseDumpError::InconsistentColumns { line })
                } else if out.total.samples().last().is_some_and(|s| s.time > time) {
                    Some(ParseDumpError::TimeBackwards { line })
                } else {
                    None
                };
                match error {
                    Some(_) if torn_tail => break,
                    Some(e) => return Err(e),
                    None => columns = Some(fields),
                }
                // Last column is the total; the rest are per-pair.
                let total = *values.last().expect("len >= 1");
                out.total.push(time, Watts::new(total));
                let pair_count = values.len() - 1;
                while out.pairs.len() < pair_count {
                    out.pairs.push(Trace::new());
                }
                for (pair, v) in values[..pair_count].iter().enumerate() {
                    out.pairs[pair].push(time, Watts::new(*v));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# PowerSensor3 dump (times in device µs)
25 10.5000 2.0000 12.5000
75 10.6000 2.1000 12.7000
M 75 k
125 10.7000 2.2000 12.9000
";

    #[test]
    fn parses_data_pairs_and_markers() {
        let dump = parse_dump(SAMPLE).unwrap();
        assert_eq!(dump.total.len(), 3);
        assert_eq!(dump.pairs.len(), 2);
        assert_eq!(dump.total.samples()[1].power, Watts::new(12.7));
        assert_eq!(dump.pairs[0].samples()[0].power, Watts::new(10.5));
        assert_eq!(dump.pairs[1].samples()[2].power, Watts::new(2.2));
        assert_eq!(dump.total.markers().len(), 1);
        assert_eq!(dump.total.markers()[0].label, 'k');
        assert_eq!(dump.total.markers()[0].time, SimTime::from_micros(75));
    }

    #[test]
    fn empty_and_comment_only_input() {
        let dump = parse_dump("# nothing\n\n# else\n").unwrap();
        assert!(dump.total.is_empty());
        assert!(dump.pairs.is_empty());
    }

    #[test]
    fn bad_number_is_reported_with_line() {
        let err = parse_dump("25 1.0 2.0\n99 oops 3.0\n").unwrap_err();
        assert_eq!(err, ParseDumpError::BadNumber { line: 2 });
    }

    #[test]
    fn inconsistent_columns_rejected() {
        let err = parse_dump("25 1.0 2.0\n75 1.0 2.0 3.0\n").unwrap_err();
        assert_eq!(err, ParseDumpError::InconsistentColumns { line: 2 });
    }

    #[test]
    fn backwards_timestamp_rejected() {
        let err = parse_dump("75 1.0 2.0\n25 1.0 2.0\n").unwrap_err();
        assert_eq!(err, ParseDumpError::TimeBackwards { line: 2 });
        // Repeated timestamps are in order.
        assert_eq!(
            parse_dump("75 1.0 2.0\n75 1.0 2.0\n").unwrap().total.len(),
            2
        );
        // An unterminated final line going backwards is a torn tail.
        assert_eq!(parse_dump("75 1.0 2.0\n25 1.0 2.0").unwrap().total.len(), 1);
    }

    #[test]
    fn malformed_marker_rejected() {
        let err = parse_dump("M nope\n").unwrap_err();
        assert_eq!(err, ParseDumpError::BadMarker { line: 1 });
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let dos = SAMPLE.replace('\n', "\r\n");
        assert_eq!(parse_dump(&dos).unwrap(), parse_dump(SAMPLE).unwrap());
    }

    #[test]
    fn torn_trailing_data_line_is_dropped() {
        // Killed mid-write: the final line stops in the middle of a
        // number and has no trailing newline.
        let torn = "25 10.5000 2.0000 12.5000\n75 10.6000 2.1000 12.7000\n125 10.7";
        let dump = parse_dump(torn).unwrap();
        assert_eq!(dump.total.len(), 2);
        assert_eq!(dump.pairs.len(), 2);

        // Same fragment with a newline is a real (complete) bad line.
        let sealed = format!("{torn}\n");
        assert_eq!(
            parse_dump(&sealed).unwrap_err(),
            ParseDumpError::InconsistentColumns { line: 3 }
        );
    }

    #[test]
    fn torn_trailing_marker_is_dropped() {
        let dump = parse_dump("25 1.0 2.0\nM 7").unwrap();
        assert_eq!(dump.total.len(), 1);
        assert!(dump.total.markers().is_empty());
    }

    #[test]
    fn mid_file_errors_still_reported() {
        // Only the *final* unterminated line gets the torn-tail pass.
        let err = parse_dump("25 1.0 2.0\n99 oops 3.0\n125 1.1 2.1").unwrap_err();
        assert_eq!(err, ParseDumpError::BadNumber { line: 2 });
    }

    #[test]
    fn written_dump_parses_back() {
        let mut writer = DumpWriter::new(Vec::new()).unwrap();
        let rows = [(25, [10.5, 2.0], None), (75, [10.6, 2.1], Some('k'))];
        for (t, pairs, marker) in rows {
            let total = Watts::new(pairs[0] + pairs[1]);
            let time = SimTime::from_micros(t);
            writer
                .frame(time, pairs.map(Watts::new), total, marker)
                .unwrap();
        }
        let text = String::from_utf8(writer.seal().unwrap()).unwrap();
        assert_eq!(
            text,
            "# PowerSensor3 dump (times in device µs)\n\
             25 10.5000 2.0000 12.5000\n\
             75 10.6000 2.1000 12.7000\n\
             M 75 k\n\
             # end frames=2\n"
        );
        let dump = parse_dump(&text).unwrap();
        assert_eq!(dump.total.len(), 2);
        assert_eq!(dump.pairs.len(), 2);
        assert_eq!(dump.total.samples()[1].power, Watts::new(12.7));
        assert_eq!(dump.pairs[1].samples()[0].power, Watts::new(2.0));
        assert_eq!(dump.total.markers()[0].label, 'k');
        assert_eq!(dump.total.markers()[0].time, SimTime::from_micros(75));
    }

    #[test]
    fn single_column_total_only() {
        // A one-pair dump has two columns: pair0 and total.
        let dump = parse_dump("25 5.0 5.0\n").unwrap();
        assert_eq!(dump.pairs.len(), 1);
        assert_eq!(dump.total.len(), 1);
    }
}
