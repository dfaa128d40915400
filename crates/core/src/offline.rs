//! Offline decoding of raw sensor-stream captures.
//!
//! A recorded byte stream (e.g. from
//! [`RecordingTransport`](ps3_transport::RecordingTransport), a logic
//! analyser on the real USB wire, or a file) can be decoded into a
//! trace without a device attached. Decoding runs the live reader's own
//! frame path — the same byte→frame assembler and the same per-pair
//! conversion fold — so it keeps the live reader's frame semantics,
//! incomplete frames included, and yields exactly the frames and watts
//! a live reader fed the same bytes would; only the left-Riemann energy
//! integration is its own.

use ps3_analysis::Trace;
use ps3_firmware::{fold_pairs, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::{Joules, SimDuration, SimTime};

use crate::frame::FrameAssembler;
use crate::state::SENSOR_PAIRS;

/// Result of decoding a capture.
#[derive(Debug, Clone)]
pub struct OfflineDecode {
    /// Total power over time. Markers carry the labels supplied to
    /// [`decode_stream_with_labels`], or the placeholder `'?'` (the
    /// wire carries only the marker bit — labels live host-side).
    pub total: Trace,
    /// Per-pair power traces (enabled pairs only, in pair order). A
    /// pair gets a sample in every frame that carries both its codes.
    pub pairs: Vec<(usize, Trace)>,
    /// Total energy by frame integration.
    pub energy: Joules,
    /// Frames decoded.
    pub frames: u64,
    /// Framing resynchronisations the decoder needed (0 for a clean
    /// capture).
    pub resyncs: u64,
}

/// Decodes a raw device→host byte capture using the sensor
/// configuration that was active when it was recorded.
///
/// Frames follow the live reader's rules: a frame is kept once every
/// enabled slot has reported, or when the next timestamp arrives with
/// samples missing (corrupted or lost bytes), in which case its total
/// sums the pairs that are present. A frame the capture cuts off
/// before it completes is not kept. Markers get the placeholder label
/// `'?'`; use [`decode_stream_with_labels`] to restore the host-side
/// labels from a sidecar.
#[must_use]
pub fn decode_stream(bytes: &[u8], configs: &[SensorConfig; SENSOR_SLOTS]) -> OfflineDecode {
    decode_stream_with_labels(bytes, configs, &[])
}

/// Decodes a capture like [`decode_stream`], restoring marker labels
/// from a host-side sidecar (see [`write_label_sidecar`]).
///
/// The wire protocol carries only a marker *bit*; the labels live on
/// the host. `labels` is consumed in marker order — the first marked
/// frame gets `labels[0]` and so on, falling back to `'?'` once the
/// list is exhausted (mirroring the live reader when `mark` labels run
/// out).
#[must_use]
pub fn decode_stream_with_labels(
    bytes: &[u8],
    configs: &[SensorConfig; SENSOR_SLOTS],
    labels: &[char],
) -> OfflineDecode {
    let adc = AdcSpec::POWERSENSOR3;
    let mut assembler = FrameAssembler::new(configs);
    let mut total = Trace::new();
    let mut pairs: [Trace; SENSOR_PAIRS] = Default::default();
    let mut energy = Joules::zero();
    let mut frames = 0u64;
    let mut prev_time: Option<SimTime> = None;
    let mut next_label = labels.iter().copied();

    for frame in bytes.iter().filter_map(|&byte| assembler.push(byte)) {
        let time = frame.time;
        let watts = fold_pairs(configs, &adc, &frame.raw, frame.present, |pair, _, _, w| {
            pairs[pair].push(time, w);
        });
        let dt = prev_time
            .map(|p| time.saturating_duration_since(p))
            .unwrap_or(SimDuration::ZERO);
        prev_time = Some(time);
        energy += watts * dt;
        total.push(time, watts);
        if frame.marker.is_some() {
            total.mark(time, next_label.next().unwrap_or('?'));
        }
        frames += 1;
    }

    OfflineDecode {
        total,
        pairs: pairs
            .into_iter()
            .enumerate()
            .filter(|(p, _)| configs[2 * p].enabled && configs[2 * p + 1].enabled)
            .collect(),
        energy,
        frames,
        resyncs: assembler.resyncs(),
    }
}

/// Serialises marker labels into the text sidecar format: a header
/// comment followed by one label per line, in marker order.
///
/// Written next to a raw capture, the sidecar lets
/// [`decode_stream_with_labels`] round-trip the labels the wire
/// protocol cannot carry.
#[must_use]
pub fn write_label_sidecar(labels: &[char]) -> String {
    let mut out = String::from("# PowerSensor3 marker labels (one per line, marker order)\n");
    for &label in labels {
        out.push(label);
        out.push('\n');
    }
    out
}

/// Parses a sidecar produced by [`write_label_sidecar`].
///
/// Blank lines and `#` comments are skipped; each remaining line
/// contributes its first non-whitespace character. Unknown content
/// never fails — a mangled line simply yields whatever character it
/// starts with, keeping the label stream aligned.
#[must_use]
pub fn parse_label_sidecar(text: &str) -> Vec<char> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.chars().next())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_firmware::protocol::Packet;

    fn configs_one_pair() -> [SensorConfig; SENSOR_SLOTS] {
        let mut configs: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        configs[0] = SensorConfig::new("I0", 3.3, 0.12, true);
        configs[1] = SensorConfig::new("U0", 3.3, 5.0, true);
        configs
    }

    /// Synthesises `n` wire frames carrying exactly 2 A / 12 V, with
    /// the marker bit set on the listed frames.
    fn synthetic_stream_with_markers(n: u64, marked: &[u64]) -> Vec<u8> {
        let adc = AdcSpec::POWERSENSOR3;
        let raw_i = adc.quantize(1.65 + 2.0 * 0.12);
        let raw_u = adc.quantize(12.0 / 5.0);
        let mut bytes = Vec::new();
        for frame in 0..n {
            let micros = ((frame * 50 + 25) % 1024) as u16;
            bytes.extend_from_slice(&Packet::Timestamp { micros }.encode());
            for (sensor, value) in [(0u8, raw_i), (1, raw_u)] {
                bytes.extend_from_slice(
                    &Packet::Sample {
                        sensor,
                        marker: sensor == 0 && marked.contains(&frame),
                        value,
                    }
                    .encode(),
                );
            }
        }
        bytes
    }

    /// Synthesises `n` wire frames carrying exactly 2 A / 12 V.
    fn synthetic_stream(n: u64) -> Vec<u8> {
        synthetic_stream_with_markers(n, &[])
    }

    #[test]
    fn decodes_clean_capture() {
        let bytes = synthetic_stream(200);
        let decoded = decode_stream(&bytes, &configs_one_pair());
        assert_eq!(decoded.frames, 200);
        assert_eq!(decoded.resyncs, 0);
        assert_eq!(decoded.pairs.len(), 1);
        let mean = decoded.total.mean_power().unwrap().value();
        assert!((mean - 24.0).abs() < 0.3, "mean {mean}");
        // 24 W for 199 frame gaps of 50 µs ≈ 0.239 J.
        assert!((decoded.energy.value() - 24.0 * 199.0 * 50e-6).abs() < 0.01);
    }

    #[test]
    fn tolerates_truncated_capture() {
        let mut bytes = synthetic_stream(10);
        bytes.truncate(bytes.len() - 3); // cut mid-frame
        let decoded = decode_stream(&bytes, &configs_one_pair());
        assert_eq!(decoded.frames, 9, "the cut-off last frame is not kept");
    }

    #[test]
    fn tolerates_corruption_with_resync() {
        let mut bytes = synthetic_stream(100);
        // Flip framing bits in a handful of places.
        for idx in [30usize, 151, 322] {
            bytes[idx] ^= 0x80;
        }
        let decoded = decode_stream(&bytes, &configs_one_pair());
        assert!(decoded.resyncs > 0);
        assert!(decoded.frames >= 95, "frames {}", decoded.frames);
        let mean = decoded.total.mean_power().unwrap().value();
        assert!((mean - 24.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn labels_attach_in_marker_order_and_exhaust_to_placeholder() {
        let bytes = synthetic_stream_with_markers(50, &[5, 20, 40]);
        // Without labels: the legacy placeholder behaviour.
        let plain = decode_stream(&bytes, &configs_one_pair());
        let labels: Vec<char> = plain.total.markers().iter().map(|m| m.label).collect();
        assert_eq!(labels, vec!['?', '?', '?']);

        // With a sidecar: labels round-trip in order; the third marker
        // falls back to '?' because only two labels were recorded.
        let decoded = decode_stream_with_labels(&bytes, &configs_one_pair(), &['k', 'e']);
        let labels: Vec<char> = decoded.total.markers().iter().map(|m| m.label).collect();
        assert_eq!(labels, vec!['k', 'e', '?']);
        assert_eq!(decoded.frames, plain.frames);
        assert_eq!(decoded.total.samples(), plain.total.samples());
    }

    #[test]
    fn label_sidecar_round_trips() {
        let labels = vec!['k', 'e', '#', 'x'];
        let text = write_label_sidecar(&labels);
        assert!(text.starts_with("# PowerSensor3 marker labels"));
        // '#' as a *label* collides with the comment syntax: it is the
        // one character the text sidecar cannot carry.
        assert_eq!(parse_label_sidecar(&text), vec!['k', 'e', 'x']);
        let clean = vec!['a', 'b', 'c'];
        assert_eq!(parse_label_sidecar(&write_label_sidecar(&clean)), clean);
        assert!(parse_label_sidecar("# only comments\n\n").is_empty());
        // CRLF sidecars parse the same.
        let dos = write_label_sidecar(&clean).replace('\n', "\r\n");
        assert_eq!(parse_label_sidecar(&dos), clean);
    }

    #[test]
    fn empty_capture_decodes_to_nothing() {
        let decoded = decode_stream(&[], &configs_one_pair());
        assert_eq!(decoded.frames, 0);
        assert!(decoded.total.is_empty());
        assert_eq!(decoded.energy, Joules::zero());
    }
}
