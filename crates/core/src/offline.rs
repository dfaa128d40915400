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
    /// Total power over time. Markers carry the placeholder label
    /// `'?'` (the wire carries only the marker bit — labels live
    /// host-side).
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
/// `'?'`: the wire carries only the marker bit.
#[must_use]
pub fn decode_stream(bytes: &[u8], configs: &[SensorConfig; SENSOR_SLOTS]) -> OfflineDecode {
    let adc = AdcSpec::POWERSENSOR3;
    let mut assembler = FrameAssembler::new(configs);
    let mut total = Trace::new();
    let mut pairs: [Trace; SENSOR_PAIRS] = Default::default();
    let mut energy = Joules::zero();
    let mut frames = 0u64;
    let mut prev_time: Option<SimTime> = None;

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
            total.mark(time, '?');
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
    fn markers_decode_with_the_placeholder_label() {
        let bytes = synthetic_stream_with_markers(50, &[5, 20, 40]);
        let decoded = decode_stream(&bytes, &configs_one_pair());
        let labels: Vec<char> = decoded.total.markers().iter().map(|m| m.label).collect();
        assert_eq!(labels, vec!['?', '?', '?']);
    }

    #[test]
    fn empty_capture_decodes_to_nothing() {
        let decoded = decode_stream(&[], &configs_one_pair());
        assert_eq!(decoded.frames, 0);
        assert!(decoded.total.is_empty());
        assert_eq!(decoded.energy, Joules::zero());
    }
}
