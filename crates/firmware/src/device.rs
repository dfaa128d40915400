//! The device state machine: firmware main loop on a virtual clock.

use ps3_transport::{Transport, TransportError};
use ps3_units::{SimDuration, SimTime};

use crate::adc::{AdcSequencer, AnalogSource};
use crate::convert::fold_pairs;
use crate::display::{Display, PairReadout};
use crate::eeprom::{Eeprom, SENSOR_SLOTS};
use crate::protocol::{opcode, Command, CommandParser, Packet, VALUE_MASK};

/// Version string returned by the `Version` command.
pub const FIRMWARE_VERSION: &str = "PowerSensor3-rs 1.0.0-sim";

/// Frames sampled per command poll when streaming through
/// [`Device::run_until`] — the batch size of the hot path. 64 frames is
/// 3.2 ms of stream at the default 20 kHz rate: long enough to
/// amortise dispatch, short enough that host commands are still seen
/// promptly.
pub const COMMAND_POLL_FRAMES: usize = 64;

/// Operating mode of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// Normal operation: commands and streaming work.
    Normal,
    /// DFU (firmware-update) mode: only a reboot brings it back.
    Dfu,
}

/// The emulated PowerSensor3 device.
///
/// Owns the analog source (the testbed's wiring of DUT rails through
/// sensor models), the virtual EEPROM, the ADC sequencer, the display,
/// and the streaming state. The device is *synchronous*: callers
/// (usually a [`DeviceThread`](crate::DeviceThread)) repeatedly invoke
/// [`Device::run_until`] to advance the firmware clock, and the device
/// reads commands/writes sensor packets on the supplied transport as it
/// goes.
///
/// # Examples
///
/// ```
/// use ps3_firmware::{Device, Eeprom};
/// use ps3_transport::{Transport, VirtualSerial};
/// use ps3_units::SimTime;
///
/// let (host, dev_end) = VirtualSerial::pair();
/// // Mid-scale on all channels.
/// let mut dev = Device::new(|_ch, _t| 1.65f64, Eeprom::new());
/// host.write_all(b"S").unwrap(); // start streaming
/// dev.run_until(&dev_end, SimTime::from_micros(200));
/// assert!(host.available() > 0);
/// ```
#[derive(Debug)]
pub struct Device<S> {
    source: S,
    eeprom: Eeprom,
    sequencer: AdcSequencer,
    clock: SimTime,
    streaming: bool,
    marker_pending: bool,
    mode: DeviceMode,
    display: Display,
    parser: CommandParser,
    frames_emitted: u64,
    host_connected: bool,
    /// Virtual time at which the device hard-crashes (simulation
    /// fault-injection hook).
    crash_at: Option<SimTime>,
    crashed: bool,
    /// Frame and wire buffers reused across batches (hot path never
    /// allocates).
    frame_buf: Vec<crate::adc::Frame>,
    tx_buf: Vec<u8>,
}

impl<S: AnalogSource> Device<S> {
    /// Creates a device reading from `source` with the given EEPROM
    /// contents.
    pub fn new(source: S, eeprom: Eeprom) -> Self {
        Self {
            source,
            eeprom,
            sequencer: AdcSequencer::new(),
            clock: SimTime::ZERO,
            streaming: false,
            marker_pending: false,
            mode: DeviceMode::Normal,
            display: Display::new(),
            parser: CommandParser::new(),
            frames_emitted: 0,
            host_connected: true,
            crash_at: None,
            crashed: false,
            frame_buf: Vec::with_capacity(COMMAND_POLL_FRAMES),
            tx_buf: Vec::with_capacity(COMMAND_POLL_FRAMES * 2 * (1 + SENSOR_SLOTS)),
        }
    }

    /// Replaces the ADC sequencer (ablation benches use non-default
    /// averaging depths).
    pub fn set_sequencer(&mut self, sequencer: AdcSequencer) {
        self.sequencer = sequencer;
    }

    /// Current firmware clock.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Virtual time between output frames (50 µs by default).
    #[must_use]
    pub fn frame_interval(&self) -> SimDuration {
        self.sequencer.frame_interval()
    }

    /// Whether the device is streaming sensor data.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Current operating mode.
    #[must_use]
    pub fn mode(&self) -> DeviceMode {
        self.mode
    }

    /// The EEPROM (tests and factory provisioning).
    #[must_use]
    pub fn eeprom(&self) -> &Eeprom {
        &self.eeprom
    }

    /// The status display.
    #[must_use]
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// Number of sample frames emitted since boot.
    #[must_use]
    pub fn frames_emitted(&self) -> u64 {
        self.frames_emitted
    }

    /// `false` once the host side of the transport has gone away.
    #[must_use]
    pub fn host_connected(&self) -> bool {
        self.host_connected
    }

    /// Schedules a hard crash: once the firmware clock reaches `at`,
    /// the device freezes — no more frames, no command processing —
    /// exactly as a sudden power loss or firmware fault would look to
    /// the host. Simulation fault-injection hook.
    pub fn schedule_crash(&mut self, at: SimTime) {
        self.crash_at = Some(at);
    }

    /// `true` once a scheduled crash has fired.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Fires the scheduled crash if the clock has reached it.
    fn check_crash(&mut self) -> bool {
        if !self.crashed && self.crash_at.is_some_and(|at| self.clock >= at) {
            self.crashed = true;
            self.streaming = false;
        }
        self.crashed
    }

    /// Advances the firmware until its clock reaches `target`,
    /// processing commands between frame batches and streaming sample
    /// packets when enabled.
    ///
    /// Frames are sampled, encoded, and written in batches of up to
    /// [`COMMAND_POLL_FRAMES`] — one transport write per batch instead
    /// of one per frame — with the command queue drained between
    /// batches.
    pub fn run_until(&mut self, transport: &dyn Transport, target: SimTime) {
        if self.check_crash() {
            return;
        }
        self.process_commands(transport);
        // A scheduled crash caps how far this call may run, so the
        // device dies within one frame of its crash time rather than
        // at batch granularity.
        let target = match self.crash_at {
            Some(at) if at < target => at,
            _ => target,
        };
        while self.clock < target {
            if self.streaming && self.mode == DeviceMode::Normal {
                // Same frame count as stepping one frame at a time:
                // keep sampling while the clock is short of the target,
                // so the last frame may overshoot it.
                let remaining = target.saturating_duration_since(self.clock).as_nanos();
                let interval = self.sequencer.frame_interval().as_nanos().max(1);
                let frames = remaining.div_ceil(interval).min(COMMAND_POLL_FRAMES as u64);
                self.run_frame_batch(transport, frames as usize);
            } else {
                // Nothing to sample: fast-forward. (Long idle gaps —
                // e.g. between probes of the 50-hour stability run —
                // would otherwise cost one loop iteration per 50 µs.)
                self.clock = target;
            }
            if self.check_crash() {
                return;
            }
            self.process_commands(transport);
        }
        self.check_crash();
    }

    /// Runs exactly one 50 µs frame (or idles one frame interval when
    /// not streaming).
    pub fn step_frame(&mut self, transport: &dyn Transport) {
        if self.check_crash() {
            return;
        }
        if self.streaming && self.mode == DeviceMode::Normal {
            self.run_frame_batch(transport, 1);
        } else {
            self.clock += self.sequencer.frame_interval();
        }
    }

    /// Samples `frames` consecutive frames, encodes them into one wire
    /// buffer, writes it in a single transport call, and feeds the
    /// display. Buffers are reused across calls.
    fn run_frame_batch(&mut self, transport: &dyn Transport, frames: usize) {
        self.frame_buf.clear();
        self.sequencer
            .run_frames_into(&mut self.source, self.clock, frames, &mut self.frame_buf);
        self.tx_buf.clear();
        for i in 0..self.frame_buf.len() {
            let frame = self.frame_buf[i];
            let ts = Packet::Timestamp {
                micros: (frame.timestamp_at.as_micros() & u64::from(VALUE_MASK)) as u16,
            };
            self.tx_buf.extend_from_slice(&ts.encode());
            for (slot, &value) in frame.values.iter().enumerate() {
                if !self.eeprom.read(slot).enabled {
                    continue;
                }
                // A pending marker rides on the first sensor-0 sample.
                let marker = slot == 0 && self.marker_pending;
                if marker {
                    self.marker_pending = false;
                }
                let pkt = Packet::Sample {
                    sensor: slot as u8,
                    marker,
                    value,
                };
                self.tx_buf.extend_from_slice(&pkt.encode());
            }
        }
        if transport.write_all(&self.tx_buf).is_err() {
            // Host is gone: stop streaming, keep the clock running.
            self.streaming = false;
            self.host_connected = false;
        }
        for i in 0..self.frame_buf.len() {
            let frame = self.frame_buf[i];
            self.update_display(&frame);
        }
        if let Some(last) = self.frame_buf.last() {
            self.clock = last.end;
            self.frames_emitted += self.frame_buf.len() as u64;
        }
    }

    fn update_display(&mut self, frame: &crate::adc::Frame) {
        // The display self-throttles to 2 Hz; skip the readout math
        // entirely for frames it will ignore.
        if !self.display.due(frame.end) {
            return;
        }
        let mut pairs = [PairReadout {
            volts: 0.0,
            amps: 0.0,
        }; SENSOR_SLOTS / 2];
        let mut used = 0;
        let total = fold_pairs(
            self.eeprom.slots(),
            self.sequencer.spec(),
            &frame.values,
            u8::MAX,
            |_, volts, amps, _| {
                pairs[used] = PairReadout {
                    volts: volts.value(),
                    amps: amps.value(),
                };
                used += 1;
            },
        )
        .value();
        self.display.update(frame.end, total, &pairs[..used]);
    }

    /// Drains pending host bytes and executes completed commands.
    pub fn process_commands(&mut self, transport: &dyn Transport) {
        if self.crashed {
            return;
        }
        let mut buf = [0u8; 256];
        while transport.available() > 0 {
            match transport.read(&mut buf, Some(std::time::Duration::ZERO)) {
                Ok(n) => {
                    let cmds = self.parser.push_slice(&buf[..n]);
                    for cmd in cmds {
                        self.execute(transport, cmd);
                    }
                }
                Err(TransportError::TimedOut) => break,
                Err(TransportError::Disconnected) => {
                    self.streaming = false;
                    self.host_connected = false;
                    break;
                }
                Err(_) => break,
            }
        }
    }

    fn execute(&mut self, transport: &dyn Transport, cmd: Command) {
        if self.mode == DeviceMode::Dfu {
            // In DFU mode only a reboot (i.e. "reflash complete") works.
            if cmd == Command::Reboot {
                self.reboot();
            }
            return;
        }
        match cmd {
            Command::StartStreaming => self.streaming = true,
            Command::StopStreaming => self.streaming = false,
            Command::Marker => self.marker_pending = true,
            Command::ReadConfig => {
                if !self.streaming {
                    let mut bytes = Vec::new();
                    for slot in 0..SENSOR_SLOTS {
                        bytes.push(opcode::CONFIG_RECORD);
                        bytes.push(slot as u8);
                        bytes.extend_from_slice(&self.eeprom.read(slot).to_wire());
                    }
                    bytes.push(opcode::CONFIG_END);
                    let _ = transport.write_all(&bytes);
                }
            }
            Command::WriteConfig { sensor, config } => {
                if !self.streaming && (sensor as usize) < SENSOR_SLOTS {
                    self.eeprom.write(sensor as usize, config);
                }
            }
            Command::Version => {
                if !self.streaming {
                    let mut bytes = vec![opcode::VERSION_REPLY, FIRMWARE_VERSION.len() as u8];
                    bytes.extend_from_slice(FIRMWARE_VERSION.as_bytes());
                    let _ = transport.write_all(&bytes);
                }
            }
            Command::Reboot => self.reboot(),
            Command::RebootToDfu => {
                self.streaming = false;
                self.mode = DeviceMode::Dfu;
            }
        }
    }

    fn reboot(&mut self) {
        self.streaming = false;
        self.marker_pending = false;
        self.mode = DeviceMode::Normal;
        self.parser = CommandParser::new();
        // The EEPROM and the clock survive a reboot.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eeprom::SensorConfig;
    use crate::protocol::StreamDecoder;
    use ps3_transport::VirtualSerial;

    fn populated_eeprom() -> Eeprom {
        let mut e = Eeprom::new();
        for pair in 0..4 {
            e.write(
                2 * pair,
                SensorConfig::new(&format!("I{pair}"), 3.3, 0.12, true),
            );
            e.write(
                2 * pair + 1,
                SensorConfig::new(&format!("U{pair}"), 3.3, 5.0, true),
            );
        }
        e
    }

    fn midscale_device() -> Device<impl AnalogSource> {
        Device::new(|_ch: usize, _t: SimTime| 1.65f64, populated_eeprom())
    }

    #[test]
    fn no_stream_until_start_command() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        dev.run_until(&dev_end, SimTime::from_micros(500));
        assert_eq!(host.available(), 0);
        assert_eq!(dev.frames_emitted(), 0);
        // But the clock advanced anyway.
        assert!(dev.clock() >= SimTime::from_micros(500));
    }

    #[test]
    fn streaming_emits_frames_at_20khz() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(1000));
        assert_eq!(dev.frames_emitted(), 20); // 1 ms / 50 µs
                                              // Each frame: 1 timestamp + 8 sensors = 18 bytes.
        assert_eq!(host.available(), 20 * 18);
    }

    #[test]
    fn frame_contains_timestamp_then_samples() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        let mut bytes = vec![0u8; host.available()];
        host.read_exact(&mut bytes).unwrap();
        let mut dec = StreamDecoder::new();
        let packets = dec.push_slice(&bytes);
        assert_eq!(packets.len(), 9);
        assert!(matches!(packets[0], Packet::Timestamp { micros: 25 }));
        for (i, p) in packets[1..].iter().enumerate() {
            match p {
                Packet::Sample { sensor, value, .. } => {
                    assert_eq!(*sensor as usize, i);
                    assert_eq!(*value, 512); // mid-scale
                }
                Packet::Timestamp { .. } => panic!("unexpected timestamp"),
            }
        }
    }

    #[test]
    fn disabled_sensors_are_skipped() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut eeprom = populated_eeprom();
        eeprom.write(6, SensorConfig::unpopulated());
        eeprom.write(7, SensorConfig::unpopulated());
        let mut dev = Device::new(|_c: usize, _t: SimTime| 1.0f64, eeprom);
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        let mut bytes = vec![0u8; host.available()];
        host.read_exact(&mut bytes).unwrap();
        let packets = StreamDecoder::new().push_slice(&bytes);
        assert_eq!(packets.len(), 7); // timestamp + 6 enabled sensors
    }

    #[test]
    fn marker_bit_set_on_next_sensor0_sample() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        host.write_all(b"M").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(150));
        let mut bytes = vec![0u8; host.available()];
        host.read_exact(&mut bytes).unwrap();
        let packets = StreamDecoder::new().push_slice(&bytes);
        let marked: Vec<_> = packets
            .iter()
            .filter(|p| matches!(p, Packet::Sample { marker: true, .. }))
            .collect();
        assert_eq!(marked.len(), 1, "exactly one marked sample");
        assert!(matches!(
            marked[0],
            Packet::Sample {
                sensor: 0,
                marker: true,
                ..
            }
        ));
    }

    #[test]
    fn config_readback_only_when_not_streaming() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        // While streaming, R is ignored.
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        let streamed = host.available();
        host.write_all(b"R").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(100));
        assert_eq!(host.available() - streamed, 18, "only the next frame");
        // Stop, then R answers with 8 records + end byte.
        host.write_all(b"X").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(150));
        let mut drain = vec![0u8; host.available()];
        host.read_exact(&mut drain).unwrap();
        host.write_all(b"R").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(200));
        let expect = 8 * (2 + crate::eeprom::CONFIG_WIRE_SIZE) + 1;
        assert_eq!(host.available(), expect);
    }

    #[test]
    fn write_config_persists() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        let cfg = SensorConfig::new("Calibrated", 3.31, 0.121, true);
        host.write_all(
            &Command::WriteConfig {
                sensor: 2,
                config: cfg.clone(),
            }
            .encode(),
        )
        .unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        assert_eq!(dev.eeprom().read(2), &cfg);
    }

    #[test]
    fn version_reply() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"V").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        let mut head = [0u8; 2];
        host.read_exact(&mut head).unwrap();
        assert_eq!(head[0], opcode::VERSION_REPLY);
        let mut name = vec![0u8; head[1] as usize];
        host.read_exact(&mut name).unwrap();
        assert_eq!(name, FIRMWARE_VERSION.as_bytes());
    }

    #[test]
    fn dfu_mode_ignores_everything_but_reboot() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"D").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(50));
        assert_eq!(dev.mode(), DeviceMode::Dfu);
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(150));
        assert!(!dev.is_streaming());
        assert_eq!(host.available(), 0);
        host.write_all(b"Z").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(200));
        assert_eq!(dev.mode(), DeviceMode::Normal);
    }

    #[test]
    fn reboot_stops_streaming_but_keeps_eeprom() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(100));
        assert!(dev.is_streaming());
        host.write_all(b"Z").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(200));
        assert!(!dev.is_streaming());
        assert!(dev.eeprom().read(0).enabled);
    }

    #[test]
    fn host_disconnect_stops_streaming() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(100));
        drop(host);
        dev.run_until(&dev_end, SimTime::from_micros(100_000));
        assert!(!dev.is_streaming());
        assert!(!dev.host_connected());
    }

    #[test]
    fn tiny_usb_buffer_applies_backpressure_without_loss() {
        // A 64-byte endpoint buffer forces the device to block on
        // write_all mid-frame; a slow host must still receive every
        // byte in order.
        let (host, dev_end) = ps3_transport::VirtualSerial::pair_with_capacity(64);
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        let producer = std::thread::spawn(move || {
            dev.run_until(&dev_end, SimTime::from_micros(5_000));
            dev.frames_emitted()
        });
        let mut bytes = Vec::new();
        let mut buf = [0u8; 16];
        while bytes.len() < 100 * 18 {
            let n = host
                .read(&mut buf, Some(std::time::Duration::from_secs(5)))
                .unwrap();
            bytes.extend_from_slice(&buf[..n]);
            // Simulate a slow host.
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let frames = producer.join().unwrap();
        assert_eq!(frames, 100);
        let packets = StreamDecoder::new().push_slice(&bytes);
        assert_eq!(packets.len(), 100 * 9);
    }

    #[test]
    fn scheduled_crash_freezes_the_device() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = midscale_device();
        host.write_all(b"S").unwrap();
        dev.schedule_crash(SimTime::from_micros(500));
        dev.run_until(&dev_end, SimTime::from_micros(2_000));
        assert!(dev.is_crashed());
        assert!(!dev.is_streaming());
        // The device ran up to (within one frame of) the crash time and
        // no further: 500 µs / 50 µs = 10 frames.
        assert_eq!(dev.frames_emitted(), 10);
        assert!(dev.clock() <= SimTime::from_micros(550));
        // A crashed device is inert: no frames, no command replies.
        let before = host.available();
        host.write_all(b"V").unwrap();
        dev.run_until(&dev_end, SimTime::from_micros(10_000));
        dev.step_frame(&dev_end);
        assert_eq!(host.available(), before);
        assert_eq!(dev.frames_emitted(), 10);
    }

    #[test]
    fn display_tracks_power() {
        let (host, dev_end) = VirtualSerial::pair();
        // Current channels at mid-scale + 0.12 V (1 A), voltage channels
        // at 2.4 V (12 V rail through gain 5).
        let mut dev = Device::new(
            |ch: usize, _t: SimTime| {
                if ch.is_multiple_of(2) {
                    1.65 + 0.12
                } else {
                    2.4
                }
            },
            populated_eeprom(),
        );
        host.write_all(b"S").unwrap();
        dev.run_until(&dev_end, SimTime::ZERO + SimDuration::from_millis(1));
        let text = dev.display().text();
        // 4 pairs × 12 V × ~1 A ≈ 48 W total.
        assert!(text.contains("W"), "{text}");
        assert!(dev.display().update_count() >= 1);
        let total: f64 = text
            .lines()
            .next()
            .unwrap()
            .trim_end_matches(" W")
            .parse()
            .unwrap();
        assert!((total - 48.0).abs() < 2.0, "total {total}");
    }
}
