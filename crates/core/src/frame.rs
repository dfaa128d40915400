//! The one frame path: the frame type every layer carries, the one
//! byte→frame assembler, and the frame's total power.
//!
//! The live reader and the offline decoder both turn device bytes into
//! frames through [`FrameAssembler`], and every layer that needs a
//! frame's power — live trace, offline trace, archive, tsdb — takes it
//! from [`fold_pairs`] ([`frame_total`] is its sum), or on archive
//! reads from its cached twin `ps3_firmware::PairTable`, so all of
//! them agree bit for bit on the same bytes.

use ps3_firmware::protocol::{Packet, StreamDecoder, TimestampUnwrapper};
use ps3_firmware::{fold_pairs, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::{SimTime, Watts};

/// One assembled 20 kHz sample frame: raw codes plus presence, so any
/// consumer re-derives physical units bit-identically with the sensor
/// configuration. Frame sinks (see
/// [`PowerSensor::add_chunk_sink`](crate::PowerSensor::add_chunk_sink))
/// receive it live; the archive stores it as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// Unwrapped device timestamp of the frame.
    pub time: SimTime,
    /// Raw 10-bit ADC code per sensor slot (0 where absent).
    pub raw: [u16; SENSOR_SLOTS],
    /// Bit `i` set when slot `i` reported a sample in this frame.
    pub present: u8,
    /// Host-side marker label paired with this frame, if any.
    pub marker: Option<char>,
}

/// Total power of one frame: the sum of [`fold_pairs`] over its
/// enabled, present pairs. This *is* the live reader's per-frame fold,
/// so the result is bit-identical to the live trace sample.
#[must_use]
pub fn frame_total(
    configs: &[SensorConfig; SENSOR_SLOTS],
    adc: &AdcSpec,
    frame: &FrameRecord,
) -> Watts {
    fold_pairs(configs, adc, &frame.raw, frame.present, |_, _, _, _| {})
}

/// Turns the device→host byte stream into frames: framing-bit
/// resynchronisation, timestamp unwrapping and frame assembly.
///
/// A timestamp packet opens a frame and completes the one before it. A
/// frame also completes as soon as every enabled slot has reported, so
/// a clean frame is handed on without waiting for the next timestamp.
/// A frame missing samples (lost or corrupted bytes) is still handed on
/// when the next timestamp arrives, with only its present slots set;
/// samples before the first timestamp belong to no frame and are
/// dropped.
#[derive(Debug)]
pub(crate) struct FrameAssembler {
    decoder: StreamDecoder,
    unwrapper: TimestampUnwrapper,
    /// Bit `i` set when slot `i` is enabled.
    enabled: u8,
    time: Option<SimTime>,
    raw: [u16; SENSOR_SLOTS],
    present: u8,
    marker: bool,
}

impl FrameAssembler {
    pub(crate) fn new(configs: &[SensorConfig; SENSOR_SLOTS]) -> Self {
        Self {
            decoder: StreamDecoder::new(),
            unwrapper: TimestampUnwrapper::new(),
            enabled: enabled_mask(configs),
            time: None,
            raw: [0; SENSOR_SLOTS],
            present: 0,
            marker: false,
        }
    }

    /// Feeds one byte; returns the frame it completes, if any. A frame
    /// whose slot-0 marker bit was set carries the placeholder label
    /// `'?'` — the wire has no labels; callers holding host-side labels
    /// substitute their own.
    #[inline]
    pub(crate) fn push(&mut self, byte: u8) -> Option<FrameRecord> {
        match self.decoder.push(byte)? {
            Packet::Timestamp { micros } => {
                let done = self.take();
                self.time = Some(SimTime::from_micros(self.unwrapper.unwrap(micros)));
                done
            }
            Packet::Sample {
                sensor,
                marker,
                value,
            } => {
                self.raw[usize::from(sensor)] = value;
                self.present |= 1 << sensor;
                self.marker |= marker && sensor == 0;
                if self.present & self.enabled == self.enabled {
                    self.take()
                } else {
                    None
                }
            }
        }
    }

    /// Adopts `configs`' enabled slots (the stream paused or the
    /// configuration changed). The frame in progress is kept: the
    /// device sends whole frames, so its remaining bytes are already
    /// on the wire, and dropping it would lose a frame the device
    /// counted. Decoder and timestamp state carry on.
    pub(crate) fn set_enabled(&mut self, configs: &[SensorConfig; SENSOR_SLOTS]) {
        self.enabled = enabled_mask(configs);
    }

    /// Framing resynchronisations so far.
    pub(crate) fn resyncs(&self) -> u64 {
        self.decoder.resync_count()
    }

    /// Closes the frame in progress: the frame itself if a timestamp
    /// opened it, and the slate is wiped either way.
    fn take(&mut self) -> Option<FrameRecord> {
        let frame = self.time.take().map(|time| FrameRecord {
            time,
            raw: self.raw,
            present: self.present,
            marker: self.marker.then_some('?'),
        });
        self.raw = [0; SENSOR_SLOTS];
        self.present = 0;
        self.marker = false;
        frame
    }
}

fn enabled_mask(configs: &[SensorConfig; SENSOR_SLOTS]) -> u8 {
    configs
        .iter()
        .enumerate()
        .filter(|(_, cfg)| cfg.enabled)
        .fold(0, |mask, (slot, _)| mask | 1 << slot)
}
