//! Library equivalents of the PowerSensor3 command-line utilities
//! (§III-C): `psinfo`, `pstest`, `psrun` and `psconfig`.
//!
//! The real tools talk to physical hardware; here each function takes a
//! connected [`PowerSensor`] plus — where the tool has to let simulated
//! time pass — an `advance` closure that the caller wires to their
//! testbed. Runnable demonstrations live in the repository's
//! `examples/` directory.

use core::fmt;
use std::time::Duration;

use ps3_units::{Joules, SimDuration, Volts, Watts};

use crate::error::PowerSensorError;
use crate::power_sensor::PowerSensor;
use crate::state::{joules, seconds, watts, State, SENSOR_PAIRS};

/// How long tools wait (in real time) for simulated frames to arrive.
pub(crate) const TOOL_TIMEOUT: Duration = Duration::from_secs(30);

/// `psinfo`: renders the configuration and latest measurement of every
/// enabled sensor, plus the total power.
#[must_use]
pub fn info(ps: &PowerSensor) -> String {
    use core::fmt::Write as _;
    let configs = ps.configs();
    let state = ps.read();
    let mut out = String::new();
    let _ = writeln!(out, "PowerSensor3 sensor overview");
    for pair in 0..SENSOR_PAIRS {
        let i_cfg = &configs[2 * pair];
        let u_cfg = &configs[2 * pair + 1];
        if !(i_cfg.enabled && u_cfg.enabled) {
            let _ = writeln!(out, "pair {pair}: (not populated)");
            continue;
        }
        let p = &state.pairs[pair];
        let _ = writeln!(
            out,
            "pair {pair}: {} / {}  vref={:.3} V  sens={:.4}  gain={:.3}  \
             -> {:.3} V  {:.3} A  {:.3} W",
            i_cfg.name,
            u_cfg.name,
            i_cfg.vref,
            i_cfg.gain,
            u_cfg.gain,
            p.volts.value(),
            p.amps.value(),
            p.watts.value()
        );
    }
    let _ = writeln!(out, "total: {:.3} W", state.total_watts().value());
    out
}

/// One row of `pstest` output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestRow {
    /// Length of the measurement interval.
    pub interval: SimDuration,
    /// Energy consumed during the interval.
    pub joules: Joules,
    /// Average power over the interval.
    pub watts: Watts,
}

impl fmt::Display for TestRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}  {:>12.6} J  {:>10.4} W",
            self.interval.to_string(),
            self.joules.value(),
            self.watts.value()
        )
    }
}

/// `pstest`: measures energy and average power over each of the given
/// intervals (the paper uses exponentially increasing intervals to
/// sanity-check a device).
///
/// `advance` must move the simulated device forward by the requested
/// duration (e.g. `|d| testbed.advance(d)`).
///
/// # Errors
///
/// Propagates timeouts when frames do not arrive.
pub fn pstest<F>(
    ps: &PowerSensor,
    intervals: &[SimDuration],
    mut advance: F,
) -> Result<Vec<TestRow>, PowerSensorError>
where
    F: FnMut(SimDuration),
{
    let mut rows = Vec::with_capacity(intervals.len());
    for &interval in intervals {
        let first = measure_point(ps, &mut advance, interval)?;
        rows.push(first);
    }
    Ok(rows)
}

fn measure_point<F>(
    ps: &PowerSensor,
    advance: &mut F,
    interval: SimDuration,
) -> Result<TestRow, PowerSensorError>
where
    F: FnMut(SimDuration),
{
    let frames_needed = interval.as_micros() / 50;
    let start_frames = ps.frames_received();
    let first = ps.read();
    advance(interval);
    ps.wait_for_frames(start_frames + frames_needed, TOOL_TIMEOUT)?;
    let second = ps.read();
    Ok(TestRow {
        interval,
        joules: joules(&first, &second),
        watts: watts(&first, &second),
    })
}

/// Result of a `psrun` measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Total energy consumed while the workload ran.
    pub joules: Joules,
    /// Elapsed device time in seconds.
    pub seconds: f64,
    /// Average power.
    pub watts: Watts,
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} J over {:.6} s  (avg {:.4} W)",
            self.joules.value(),
            self.seconds,
            self.watts.value()
        )
    }
}

/// `psrun`: runs `workload` and reports the energy it consumed.
///
/// The workload closure receives no arguments; it is expected to drive
/// the simulated device (through a testbed) and return once the device
/// has run it. The second snapshot is taken after the reader has
/// decoded every byte the device delivered
/// ([`PowerSensor::wait_drained`]).
///
/// # Errors
///
/// [`PowerSensorError::Timeout`] if the reader does not drain, or
/// [`PowerSensorError::Shutdown`] if the link died.
pub fn psrun<W>(ps: &PowerSensor, workload: W) -> Result<RunReport, PowerSensorError>
where
    W: FnOnce(),
{
    let first = ps.read();
    workload();
    ps.wait_drained(TOOL_TIMEOUT)?;
    let second = ps.read();
    Ok(RunReport {
        joules: joules(&first, &second),
        seconds: seconds(&first, &second),
        watts: watts(&first, &second),
    })
}

/// `psconfig --auto`: calibrates every populated pair against a known
/// reference voltage (see [`calibrate_pair`](crate::calibrate_pair) for
/// the preconditions).
///
/// # Errors
///
/// Propagates calibration failures; pairs that are not populated are
/// skipped.
pub fn autocalibrate(
    ps: &PowerSensor,
    reference_voltages: &[Option<Volts>; SENSOR_PAIRS],
    frames: usize,
    mut advance: impl FnMut(SimDuration),
) -> Result<Vec<crate::CalibrationReport>, PowerSensorError> {
    let mut reports = Vec::new();
    let configs = ps.configs();
    for pair in 0..SENSOR_PAIRS {
        let Some(reference) = reference_voltages[pair] else {
            continue;
        };
        if !(configs[2 * pair].enabled && configs[2 * pair + 1].enabled) {
            continue;
        }
        reports.push(crate::calibrate_pair(
            ps,
            pair,
            reference,
            frames,
            &mut advance,
        )?);
    }
    Ok(reports)
}

/// Formats a state snapshot the way the `psinfo` footer does (used by
/// several examples).
#[must_use]
pub fn format_state(state: &State) -> String {
    format!(
        "t={:.6}s total={:.3}W energy={:.4}J frames={}",
        state.timestamp.as_secs_f64(),
        state.total_watts().value(),
        state.total_energy.value(),
        state.frames
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testharness::{one_pair_eeprom, spawn_device, two_amp_source};
    use ps3_units::SimDuration;

    #[test]
    fn info_renders_live_configuration_and_readings() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = crate::PowerSensor::connect(host_end).unwrap();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(90, Duration::from_secs(10)).unwrap();
        let text = info(&ps);
        assert!(text.contains("pair 0: I0 / U0"), "{text}");
        assert!(text.contains("(not populated)"), "{text}");
        // 2 A × 12 V ≈ 24 W in the footer.
        let total_line = text.lines().last().unwrap();
        assert!(total_line.starts_with("total: 24."), "{total_line}");
        drop(ps);
        drop(h);
    }

    #[test]
    fn pstest_measures_each_interval() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = crate::PowerSensor::connect(host_end).unwrap();
        let intervals = [SimDuration::from_millis(5), SimDuration::from_millis(10)];
        let rows = pstest(&ps, &intervals, |d| {
            let before = ps.frames_received();
            h.advance(d);
            let frames = d.as_micros() / 50;
            ps.wait_for_frames(before + frames, Duration::from_secs(10))
                .unwrap();
        })
        .unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!((row.watts.value() - 24.0).abs() < 0.5, "{row}");
        }
        let ratio = rows[1].joules.value() / rows[0].joules.value();
        assert!((ratio - 2.0).abs() < 0.1, "energy ratio {ratio}");
        drop(ps);
        drop(h);
    }

    #[test]
    fn psrun_reports_workload_energy() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = crate::PowerSensor::connect(host_end).unwrap();
        let report = psrun(&ps, || {
            h.advance(SimDuration::from_millis(20));
            assert!(h.wait_parked(std::time::Instant::now() + Duration::from_secs(10)));
        })
        .unwrap();
        assert!((report.watts.value() - 24.0).abs() < 0.5, "{report}");
        assert!((report.seconds - 0.02).abs() < 0.002, "{report}");
        drop(ps);
        drop(h);
    }

    #[test]
    fn test_row_formats() {
        let row = TestRow {
            interval: SimDuration::from_millis(10),
            joules: Joules::new(0.5),
            watts: Watts::new(50.0),
        };
        let text = row.to_string();
        assert!(text.contains("10.000ms"), "{text}");
        assert!(text.contains("0.500000 J"), "{text}");
        assert!(text.contains("50.0000 W"), "{text}");
    }

    #[test]
    fn run_report_formats() {
        let r = RunReport {
            joules: Joules::new(1.5),
            seconds: 0.5,
            watts: Watts::new(3.0),
        };
        assert_eq!(r.to_string(), "1.500000 J over 0.500000 s  (avg 3.0000 W)");
    }
}
