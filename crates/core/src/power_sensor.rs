//! The `PowerSensor` host class and its background reader thread.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ps3_analysis::Trace;
use ps3_firmware::protocol::{opcode, Command, Packet, StreamDecoder, TimestampUnwrapper};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_transport::{Transport, TransportError};
use ps3_units::{Joules, SimDuration, SimTime, Watts};

use crate::convert::pair_readings;
use crate::error::PowerSensorError;
use crate::state::{PairState, State};

pub use crate::state::SENSOR_PAIRS;

/// One fully assembled 20 kHz sample frame, as delivered to frame
/// sinks (see [`PowerSensor::add_frame_sink`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Unwrapped device timestamp of the frame.
    pub time: SimTime,
    /// Raw 10-bit ADC code per sensor slot (0 where absent).
    pub raw: [u16; SENSOR_SLOTS],
    /// Bit `i` set when slot `i` reported a sample in this frame.
    pub present: u8,
    /// Host-side marker label paired with this frame, if any.
    pub marker: Option<char>,
    /// Total power across enabled pairs.
    pub total: Watts,
}

/// Callback receiving every assembled frame; return `false` to
/// deregister.
pub type FrameSink = Box<dyn FnMut(&FrameRecord) -> bool + Send>;

/// How long connect-time handshakes may take before we give up.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle read timeout of the reader thread (so it can notice shutdown).
const READER_POLL: Duration = Duration::from_millis(20);

/// The PowerSensor3 host interface.
///
/// Mirrors the C++ `PowerSensor` class from the paper (§III-C): it
/// connects over a transport, loads the sensor configuration from the
/// device EEPROM, starts the 20 kHz stream, and keeps cumulative energy
/// accounting in a lightweight background thread.
///
/// Dropping the `PowerSensor` stops the stream and joins the reader.
pub struct PowerSensor {
    transport: Arc<dyn Transport>,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    changed: Condvar,
    stop: AtomicBool,
    frames: AtomicU64,
    alive: AtomicBool,
    /// Why the reader thread exited, when it exited on a transport
    /// fault rather than a clean stop.
    link_error: Mutex<Option<TransportError>>,
    /// Parking place for an in-flight version reply (reader → caller).
    version: Mutex<Option<String>>,
    /// Set while [`PowerSensor::firmware_version`] awaits a reply; a
    /// `v` byte is a reply header only then, and otherwise stream data.
    version_requested: AtomicBool,
    /// [`PowerSensor::wait_drained`] callers currently blocked. The
    /// reader looks for an empty pipeline only while this is non-zero.
    drain_waiters: AtomicUsize,
}

struct Inner {
    state: State,
    configs: [SensorConfig; SENSOR_SLOTS],
    adc: AdcSpec,
    unwrapper: TimestampUnwrapper,
    prev_frame_time: Option<SimTime>,
    frame: FrameAssembly,
    marker_labels: VecDeque<char>,
    trace: Option<Trace>,
    dump: Option<DumpState>,
    raw_capture: Option<RawCaptureState>,
    sinks: Vec<FrameSink>,
    /// Bumped each time the reader, with a drain waiter registered,
    /// holds no undecoded bytes and finds the transport empty.
    drained: u64,
}

impl core::fmt::Debug for PowerSensor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PowerSensor")
            .field("frames_received", &self.frames_received())
            .field("alive", &self.is_alive())
            .finish_non_exhaustive()
    }
}

impl core::fmt::Debug for Inner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Inner")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

/// Continuous-mode dump writer plus the line count it has produced,
/// so the seal record can state how many frames a complete dump holds.
struct DumpState {
    writer: std::io::BufWriter<Box<dyn Write + Send>>,
    frames: u64,
}

impl DumpState {
    /// Writes the seal record and flushes. A dump without this final
    /// `# end frames=N` line was cut short (process killed mid-write).
    fn seal(mut self) {
        let _ = writeln!(self.writer, "# end frames={}", self.frames);
        let _ = self.writer.flush();
    }
}

struct FrameAssembly {
    time: Option<SimTime>,
    values: [Option<u16>; SENSOR_SLOTS],
    marker: bool,
}

impl FrameAssembly {
    fn empty() -> Self {
        Self {
            time: None,
            values: [None; SENSOR_SLOTS],
            marker: false,
        }
    }
}

#[derive(Debug)]
struct RawCaptureState {
    remaining: usize,
    count: u64,
    sums: [f64; SENSOR_SLOTS],
    done: bool,
}

/// Handle to an in-flight raw-sample capture (see
/// [`PowerSensor::begin_raw_capture`]).
#[derive(Debug)]
pub struct RawCapture {
    shared: Arc<Shared>,
}

impl RawCapture {
    /// Blocks until the requested number of frames has been averaged,
    /// returning the mean raw ADC code per sensor slot.
    ///
    /// # Errors
    ///
    /// [`PowerSensorError::Timeout`] if the capture does not finish
    /// within `timeout` (e.g. nobody is advancing the simulated
    /// device), or [`PowerSensorError::Shutdown`] if the reader died.
    pub fn wait(self, timeout: Duration) -> Result<[f64; SENSOR_SLOTS], PowerSensorError> {
        let taken = self.shared.wait(timeout, "capturing raw samples", |inner| {
            match &inner.raw_capture {
                Some(cap) if !cap.done => None,
                _ => Some(inner.raw_capture.take()),
            }
        });
        let cap = taken?.ok_or(PowerSensorError::Shutdown)?;
        let n = cap.count.max(1) as f64;
        Ok(core::array::from_fn(|i| cap.sums[i] / n))
    }
}

impl Shared {
    /// The one blocking wait on the reader's progress: re-tests `check`
    /// under the state lock each time the reader signals `changed`,
    /// until it yields a value, the reader exits, or `timeout` passes.
    fn wait<T>(
        &self,
        timeout: Duration,
        what: &'static str,
        mut check: impl FnMut(&mut Inner) -> Option<T>,
    ) -> Result<T, PowerSensorError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some(value) = check(&mut inner) {
                return Ok(value);
            }
            if !self.alive.load(Ordering::SeqCst) {
                return Err(PowerSensorError::Shutdown);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(PowerSensorError::Timeout(what));
            }
            self.changed.wait_for(&mut inner, left);
        }
    }
}

impl PowerSensor {
    /// Connects to a device on `transport`: stops any stale stream,
    /// reads the sensor configuration, starts streaming, and spawns the
    /// reader thread.
    ///
    /// # Errors
    ///
    /// Fails with a [`PowerSensorError::Timeout`] when the device does
    /// not answer the configuration request, or a transport error when
    /// the link is down.
    pub fn connect<T: Transport + 'static>(transport: T) -> Result<Self, PowerSensorError> {
        let transport: Arc<dyn Transport> = Arc::new(transport);
        transport.write_all(&Command::StopStreaming.encode())?;
        drain(&*transport);
        transport.write_all(&Command::ReadConfig.encode())?;
        let configs = read_config_response(&*transport)?;

        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                state: State::default(),
                configs: configs.clone(),
                adc: AdcSpec::POWERSENSOR3,
                unwrapper: TimestampUnwrapper::new(),
                prev_frame_time: None,
                frame: FrameAssembly::empty(),
                marker_labels: VecDeque::new(),
                trace: None,
                dump: None,
                raw_capture: None,
                sinks: Vec::new(),
                drained: 0,
            }),
            changed: Condvar::new(),
            stop: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            link_error: Mutex::new(None),
            version: Mutex::new(None),
            version_requested: AtomicBool::new(false),
            drain_waiters: AtomicUsize::new(0),
        });

        transport.write_all(&Command::StartStreaming.encode())?;

        let reader = {
            let transport = Arc::clone(&transport);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ps3-reader".into())
                .spawn(move || reader_loop(&*transport, &shared))
                .expect("spawn reader thread")
        };

        Ok(Self {
            transport,
            shared,
            reader: Some(reader),
        })
    }

    /// The current measurement snapshot.
    #[must_use]
    pub fn read(&self) -> State {
        self.shared.inner.lock().state
    }

    /// Number of sample frames received since connect.
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// `false` once the device link has died.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// The transport fault that killed the reader thread, if one did.
    /// `None` while the link is healthy and after a clean stop —
    /// so `!is_alive() && link_error().is_some()` distinguishes a
    /// dead device from an ordinary shutdown.
    #[must_use]
    pub fn link_error(&self) -> Option<TransportError> {
        self.shared.link_error.lock().clone()
    }

    /// The sensor configuration read from the device EEPROM at connect
    /// (or as updated through [`PowerSensor::update_configs`]).
    #[must_use]
    pub fn configs(&self) -> [SensorConfig; SENSOR_SLOTS] {
        self.shared.inner.lock().configs.clone()
    }

    /// Sends a marker: the device flags the next sensor-0 sample and
    /// the host pairs that flag with `label` in traces and dumps
    /// (continuous-mode markers, §III-C).
    ///
    /// # Errors
    ///
    /// Transport failure if the link is down.
    pub fn mark(&self, label: char) -> Result<(), PowerSensorError> {
        {
            let mut inner = self.shared.inner.lock();
            inner.marker_labels.push_back(label);
        }
        self.transport.write_all(&Command::Marker.encode())?;
        Ok(())
    }

    /// Begins recording every frame into an in-memory
    /// [`Trace`](ps3_analysis::Trace) (continuous mode). Any previous
    /// unfinished trace is discarded.
    pub fn begin_trace(&self) {
        self.shared.inner.lock().trace = Some(Trace::new());
    }

    /// Like [`PowerSensor::begin_trace`], but pre-allocates room for
    /// `samples` frames so a capture of known length never reallocates
    /// on the reader thread.
    pub fn begin_trace_with_capacity(&self, samples: usize) {
        self.shared.inner.lock().trace = Some(Trace::with_capacity(samples));
    }

    /// Stops recording and returns the captured trace (empty if
    /// [`PowerSensor::begin_trace`] was never called).
    #[must_use]
    pub fn end_trace(&self) -> Trace {
        self.shared.inner.lock().trace.take().unwrap_or_default()
    }

    /// Streams every frame as a text line into `writer` (continuous
    /// mode dump file): `t_us p0_W p1_W p2_W p3_W total_W`, with
    /// `M t_us <label>` lines for markers.
    ///
    /// Output is buffered; [`PowerSensor::stop_dump`] (or dropping the
    /// sensor) flushes it and appends a `# end frames=N` seal line so
    /// readers can tell a complete dump from one cut short by a crash.
    pub fn dump_to<W: Write + Send + 'static>(&self, writer: W) {
        let mut writer = std::io::BufWriter::new(Box::new(writer) as Box<dyn Write + Send>);
        let _ = writeln!(writer, "# PowerSensor3 dump (times in device µs)");
        self.shared.inner.lock().dump = Some(DumpState { writer, frames: 0 });
    }

    /// Stops dumping, appends the seal line, and flushes the writer.
    pub fn stop_dump(&self) {
        if let Some(state) = self.shared.inner.lock().dump.take() {
            state.seal();
        }
    }

    /// Starts averaging raw ADC codes over the next `frames` frames —
    /// the building block of the calibration procedure (§III-D).
    #[must_use]
    pub fn begin_raw_capture(&self, frames: usize) -> RawCapture {
        let mut inner = self.shared.inner.lock();
        inner.raw_capture = Some(RawCaptureState {
            remaining: frames,
            count: 0,
            sums: [0.0; SENSOR_SLOTS],
            done: frames == 0,
        });
        RawCapture {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the host has processed at least `target` frames.
    ///
    /// # Errors
    ///
    /// [`PowerSensorError::Timeout`] if the frames do not arrive within
    /// `timeout`.
    pub fn wait_for_frames(&self, target: u64, timeout: Duration) -> Result<(), PowerSensorError> {
        self.shared.wait(timeout, "waiting for frames", |_| {
            (self.shared.frames.load(Ordering::SeqCst) >= target).then_some(())
        })
    }

    /// Blocks until the reader has decoded every byte the transport
    /// delivered and the transport is empty. After parking the device
    /// (`DeviceThread::wait_parked`), the frame count is then final.
    ///
    /// # Errors
    ///
    /// [`PowerSensorError::Shutdown`] once the reader has exited, or
    /// [`PowerSensorError::Timeout`] if the pipeline does not drain
    /// within `timeout`.
    pub fn wait_drained(&self, timeout: Duration) -> Result<(), PowerSensorError> {
        let shared = &self.shared;
        shared.drain_waiters.fetch_add(1, Ordering::SeqCst);
        // The epoch is read under the lock the reader bumps it under,
        // so only a check the reader makes after that can release us.
        let mut epoch = None;
        let result = shared.wait(timeout, "waiting for the reader to drain", |inner| {
            (*epoch.get_or_insert(inner.drained) != inner.drained).then_some(())
        });
        shared.drain_waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Rewrites the configuration of the given sensor slots, both on
    /// the device EEPROM and in the host's conversion tables. The
    /// stream is paused for the update and restarted afterwards; energy
    /// accounting continues, but a small time discontinuity is
    /// unavoidable (the paper recommends configuring before measuring).
    ///
    /// # Errors
    ///
    /// Transport failure, or [`PowerSensorError::InvalidSensor`] for an
    /// out-of-range slot.
    pub fn update_configs(
        &self,
        updates: &[(usize, SensorConfig)],
    ) -> Result<(), PowerSensorError> {
        for (slot, _) in updates {
            if *slot >= SENSOR_SLOTS {
                return Err(PowerSensorError::InvalidSensor(*slot));
            }
        }
        self.transport.write_all(&Command::StopStreaming.encode())?;
        for (slot, cfg) in updates {
            self.transport.write_all(
                &Command::WriteConfig {
                    sensor: *slot as u8,
                    config: cfg.clone(),
                }
                .encode(),
            )?;
        }
        {
            let mut inner = self.shared.inner.lock();
            for (slot, cfg) in updates {
                inner.configs[*slot] = cfg.clone();
            }
            // The stream pauses: restart interval accounting cleanly.
            inner.prev_frame_time = None;
            inner.frame = FrameAssembly::empty();
        }
        self.transport
            .write_all(&Command::StartStreaming.encode())?;
        Ok(())
    }

    /// Pauses the sensor stream (device keeps time, emits nothing).
    ///
    /// Long measurement campaigns with sparse probe windows (the
    /// paper's 50-hour stability run takes 128 k samples every
    /// 15 minutes) pause between windows so the simulation can
    /// fast-forward. Resume with [`PowerSensor::resume_stream`].
    ///
    /// # Errors
    ///
    /// Transport failure if the link is down.
    pub fn pause_stream(&self) -> Result<(), PowerSensorError> {
        self.transport.write_all(&Command::StopStreaming.encode())?;
        Ok(())
    }

    /// Resumes a paused stream. Interval accounting restarts cleanly
    /// (the pause is a time discontinuity on the wire).
    ///
    /// # Errors
    ///
    /// Transport failure if the link is down.
    pub fn resume_stream(&self) -> Result<(), PowerSensorError> {
        {
            let mut inner = self.shared.inner.lock();
            inner.prev_frame_time = None;
            inner.frame = FrameAssembly::empty();
        }
        self.transport
            .write_all(&Command::StartStreaming.encode())?;
        Ok(())
    }

    /// Registers a callback invoked with every assembled frame, on the
    /// reader thread. Keep it fast — it runs inside the 50 µs sample
    /// cadence. Return `false` from the callback to deregister it.
    ///
    /// This is the tap the `ps3-stream` daemon uses to feed its
    /// broadcast ring without a second decode of the wire stream.
    pub fn add_frame_sink<F>(&self, sink: F)
    where
        F: FnMut(&FrameRecord) -> bool + Send + 'static,
    {
        self.shared.inner.lock().sinks.push(Box::new(sink));
    }

    /// Requests the firmware version string.
    ///
    /// The stream is paused for the exchange.
    ///
    /// # Errors
    ///
    /// Transport failure or timeout.
    pub fn firmware_version(&self) -> Result<String, PowerSensorError> {
        self.transport.write_all(&Command::StopStreaming.encode())?;
        // Let the reader drain remaining stream bytes, then take over.
        std::thread::sleep(Duration::from_millis(10));
        self.shared.version_requested.store(true, Ordering::SeqCst);
        self.transport.write_all(&Command::Version.encode())?;
        // The reader thread will stash the version reply for us.
        let shared = &self.shared;
        let reply = shared.wait(HANDSHAKE_TIMEOUT, "reading firmware version", |_| {
            shared.version.lock().take()
        });
        let version =
            reply.inspect_err(|_| shared.version_requested.store(false, Ordering::SeqCst))?;
        self.transport
            .write_all(&Command::StartStreaming.encode())?;
        Ok(version)
    }
}

/// A cheaply clonable, thread-shareable handle to a [`PowerSensor`].
///
/// Subsystems that hand one sensor to several consumers (the streaming
/// daemon's acquisition side, `Ps3Meter`, application threads) share
/// this instead of threading `&PowerSensor` lifetimes through their
/// APIs. Derefs to [`PowerSensor`], so all its methods are available
/// directly.
#[derive(Debug, Clone)]
pub struct SharedPowerSensor {
    inner: Arc<PowerSensor>,
}

impl SharedPowerSensor {
    /// Wraps a connected sensor for shared ownership.
    #[must_use]
    pub fn new(sensor: PowerSensor) -> Self {
        Self {
            inner: Arc::new(sensor),
        }
    }

    /// The underlying `Arc` (for APIs that take `Arc<PowerSensor>`).
    #[must_use]
    pub fn arc(&self) -> Arc<PowerSensor> {
        Arc::clone(&self.inner)
    }
}

impl From<PowerSensor> for SharedPowerSensor {
    fn from(sensor: PowerSensor) -> Self {
        Self::new(sensor)
    }
}

impl From<Arc<PowerSensor>> for SharedPowerSensor {
    fn from(inner: Arc<PowerSensor>) -> Self {
        Self { inner }
    }
}

impl std::ops::Deref for SharedPowerSensor {
    type Target = PowerSensor;
    fn deref(&self) -> &PowerSensor {
        &self.inner
    }
}

impl Drop for PowerSensor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.transport.write_all(&Command::StopStreaming.encode());
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
        if let Some(dump) = self.shared.inner.lock().dump.take() {
            dump.seal();
        }
    }
}

/// Discards incoming bytes until the link is quiet.
fn drain(transport: &dyn Transport) {
    let mut buf = [0u8; 4096];
    while transport
        .read(&mut buf, Some(Duration::from_millis(20)))
        .is_ok()
    {}
}

/// Reads the `R` command response: eight `C <slot> <record>` entries
/// terminated by `E`.
fn read_config_response(
    transport: &dyn Transport,
) -> Result<[SensorConfig; SENSOR_SLOTS], PowerSensorError> {
    use ps3_firmware::CONFIG_WIRE_SIZE;
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    loop {
        let mut op = [0u8; 1];
        read_with_deadline(transport, &mut op, deadline)?;
        match op[0] {
            opcode::CONFIG_RECORD => {
                let mut slot = [0u8; 1];
                read_with_deadline(transport, &mut slot, deadline)?;
                let mut record = [0u8; CONFIG_WIRE_SIZE];
                read_with_deadline(transport, &mut record, deadline)?;
                let cfg = SensorConfig::from_wire(&record)?;
                if (slot[0] as usize) < SENSOR_SLOTS {
                    configs[slot[0] as usize] = cfg;
                }
            }
            opcode::CONFIG_END => return Ok(configs),
            _ => { /* stale stream byte: skip */ }
        }
    }
}

fn read_with_deadline(
    transport: &dyn Transport,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), PowerSensorError> {
    let mut filled = 0;
    while filled < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(PowerSensorError::Timeout("reading configuration"));
        }
        match transport.read(&mut buf[filled..], Some(deadline - now)) {
            Ok(n) => filled += n,
            Err(TransportError::TimedOut) => {
                return Err(PowerSensorError::Timeout("reading configuration"))
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The background reader: decodes the stream and maintains state.
fn reader_loop(transport: &dyn Transport, shared: &Shared) {
    let mut decoder = StreamDecoder::new();
    let mut buf = [0u8; 4096];
    let mut version_pending: Option<(usize, Vec<u8>)> = None;
    while !shared.stop.load(Ordering::SeqCst) {
        let n = match transport.read(&mut buf, Some(READER_POLL)) {
            Ok(n) => n,
            // Idle: nothing to decode, but still a drained check.
            Err(TransportError::TimedOut) => 0,
            Err(e) => {
                *shared.link_error.lock() = Some(e);
                break;
            }
        };
        let mut bytes = &buf[..n];
        // One state lock and one waiter wakeup per read chunk — a
        // chunk carries hundreds of packets under streaming load, so
        // per-packet locking would dominate the reader.
        {
            let mut inner = shared.inner.lock();
            // A version reply may be interleaved when the stream is
            // paused.
            while !bytes.is_empty() {
                if let Some((want, partial)) = &mut version_pending {
                    let take = bytes.len().min(*want - partial.len());
                    partial.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if partial.len() == *want {
                        let text = String::from_utf8_lossy(partial).into_owned();
                        *shared.version.lock() = Some(text);
                        shared.version_requested.store(false, Ordering::SeqCst);
                        shared.changed.notify_all();
                        version_pending = None;
                    }
                    continue;
                }
                // `v` is also byte 0 of a slot-7 sample whose code lies
                // in 768..=895: only a requested reply is taken as one.
                if bytes[0] == opcode::VERSION_REPLY
                    && bytes.len() >= 2
                    && shared.version_requested.load(Ordering::SeqCst)
                {
                    let len = bytes[1] as usize;
                    version_pending = Some((len, Vec::with_capacity(len)));
                    bytes = &bytes[2..];
                    continue;
                }
                let byte = bytes[0];
                bytes = &bytes[1..];
                if let Some(packet) = decoder.push(byte) {
                    handle_packet(shared, &mut inner, packet);
                }
            }
            // Every byte read is decoded: for a registered drain
            // waiter, an empty transport means an empty pipeline.
            if shared.drain_waiters.load(Ordering::SeqCst) > 0 && transport.available() == 0 {
                inner.drained += 1;
            }
        }
        shared.changed.notify_all();
    }
    shared.alive.store(false, Ordering::SeqCst);
    shared.changed.notify_all();
}

fn handle_packet(shared: &Shared, inner: &mut Inner, packet: Packet) {
    match packet {
        Packet::Timestamp { micros } => {
            // A timestamp opens a new frame; finalise the previous one.
            finalize_frame(shared, inner);
            let abs = inner.unwrapper.unwrap(micros);
            inner.frame.time = Some(SimTime::from_micros(abs));
        }
        Packet::Sample {
            sensor,
            marker,
            value,
        } => {
            inner.frame.values[sensor as usize] = Some(value);
            if marker && sensor == 0 {
                inner.frame.marker = true;
            }
            // Finalise eagerly once every enabled slot has reported, so
            // state updates land one frame earlier than waiting for the
            // next timestamp.
            let complete = inner.frame.time.is_some()
                && (0..SENSOR_SLOTS)
                    .all(|s| !inner.configs[s].enabled || inner.frame.values[s].is_some());
            if complete {
                finalize_frame(shared, inner);
            }
        }
    }
}

fn finalize_frame(shared: &Shared, inner: &mut Inner) {
    let Some(time) = inner.frame.time else {
        inner.frame = FrameAssembly::empty();
        return;
    };
    let values = inner.frame.values;
    let had_marker = inner.frame.marker;
    inner.frame = FrameAssembly::empty();

    let dt = inner
        .prev_frame_time
        .map(|prev| time.saturating_duration_since(prev))
        .unwrap_or(SimDuration::ZERO);
    inner.prev_frame_time = Some(time);

    let adc = inner.adc;
    let mut total_power = Watts::zero();
    let mut pair_updates: [Option<PairState>; SENSOR_PAIRS] = [None; SENSOR_PAIRS];
    for pair in 0..SENSOR_PAIRS {
        let i_cfg = &inner.configs[2 * pair];
        let u_cfg = &inner.configs[2 * pair + 1];
        if !(i_cfg.enabled && u_cfg.enabled) {
            continue;
        }
        let (Some(raw_i), Some(raw_u)) = (values[2 * pair], values[2 * pair + 1]) else {
            continue;
        };
        let (volts, amps, watts) = pair_readings(i_cfg, u_cfg, &adc, raw_i, raw_u);
        total_power += watts;
        let prev_energy = inner.state.pairs[pair].energy;
        pair_updates[pair] = Some(PairState {
            enabled: true,
            volts,
            amps,
            watts,
            energy: prev_energy + watts * dt,
        });
    }

    // Raw-capture accumulation.
    if let Some(cap) = &mut inner.raw_capture {
        if !cap.done {
            for (slot, sum) in cap.sums.iter_mut().enumerate() {
                if let Some(v) = values[slot] {
                    *sum += f64::from(v);
                }
            }
            cap.count += 1;
            cap.remaining -= 1;
            if cap.remaining == 0 {
                cap.done = true;
            }
        }
    }

    // Commit state.
    let mut delta_energy = Joules::zero();
    for (pair, update) in pair_updates.into_iter().enumerate() {
        if let Some(p) = update {
            delta_energy += p.energy - inner.state.pairs[pair].energy;
            inner.state.pairs[pair] = p;
        }
    }
    for (slot, value) in values.iter().enumerate() {
        if let Some(v) = value {
            inner.state.raw[slot] = *v;
        }
    }
    inner.state.total_energy += delta_energy;
    inner.state.timestamp = time;
    inner.state.frames += 1;
    shared.frames.fetch_add(1, Ordering::SeqCst);

    // Markers.
    let marker_label = if had_marker {
        Some(inner.marker_labels.pop_front().unwrap_or('?'))
    } else {
        None
    };

    // Continuous-mode consumers.
    if let Some(trace) = &mut inner.trace {
        trace.push(time, total_power);
        if let Some(label) = marker_label {
            trace.mark(time, label);
        }
    }
    let pairs_snapshot = inner.state.pairs;
    if let Some(dump) = &mut inner.dump {
        let mut line = String::new();
        use core::fmt::Write as _;
        let _ = write!(line, "{}", time.as_micros());
        for p in &pairs_snapshot {
            if p.enabled {
                let _ = write!(line, " {:.4}", p.watts.value());
            }
        }
        let _ = writeln!(line, " {:.4}", total_power.value());
        let _ = dump.writer.write_all(line.as_bytes());
        if let Some(label) = marker_label {
            let _ = writeln!(dump.writer, "M {} {label}", time.as_micros());
        }
        dump.frames += 1;
    }
    if !inner.sinks.is_empty() {
        let mut raw = [0u16; SENSOR_SLOTS];
        let mut present = 0u8;
        for (slot, value) in values.iter().enumerate() {
            if let Some(v) = value {
                raw[slot] = *v;
                present |= 1 << slot;
            }
        }
        let record = FrameRecord {
            time,
            raw,
            present,
            marker: marker_label,
            total: total_power,
        };
        inner.sinks.retain_mut(|sink| sink(&record));
    }
    // Waiters are woken once per read chunk (in `reader_loop`), not
    // per frame here.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testharness::{one_pair_eeprom, spawn_device, two_amp_source};

    #[test]
    fn connect_reads_configs() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let configs = ps.configs();
        assert_eq!(configs[0].name, "I0");
        assert!(configs[0].enabled);
        assert!(!configs[2].enabled);
        drop(ps);
        drop(h);
    }

    #[test]
    fn state_tracks_power_and_energy() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        h.advance(SimDuration::from_millis(100));
        ps.wait_for_frames(2000, Duration::from_secs(10)).unwrap();
        let state = ps.read();
        // ~24 W, quantisation-limited accuracy.
        assert!(
            (state.total_watts().value() - 24.0).abs() < 0.3,
            "power {}",
            state.total_watts()
        );
        // Energy over ~0.1 s ≈ 2.4 J (first frame contributes no dt).
        assert!(
            (state.total_energy.value() - 2.4).abs() < 0.05,
            "energy {}",
            state.total_energy
        );
        assert!((state.pairs[0].volts.value() - 12.0).abs() < 0.05);
        assert!((state.pairs[0].amps.value() - 2.0).abs() < 0.03);
        drop(ps);
        drop(h);
    }

    #[test]
    fn interval_mode_between_states() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        h.advance(SimDuration::from_millis(10));
        ps.wait_for_frames(200, Duration::from_secs(10)).unwrap();
        let first = ps.read();
        h.advance(SimDuration::from_millis(50));
        ps.wait_for_frames(1200, Duration::from_secs(10)).unwrap();
        let second = ps.read();
        let w = crate::state::watts(&first, &second);
        assert!((w.value() - 24.0).abs() < 0.3, "avg power {w}");
        let s = crate::state::seconds(&first, &second);
        assert!((s - 0.05).abs() < 0.001, "interval {s}");
        drop(ps);
        drop(h);
    }

    #[test]
    fn trace_capture_at_20khz() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        ps.begin_trace();
        h.advance(SimDuration::from_millis(50));
        ps.wait_for_frames(1000, Duration::from_secs(10)).unwrap();
        let trace = ps.end_trace();
        assert!(trace.len() >= 999, "got {} samples", trace.len());
        let rate = trace.sample_rate().unwrap();
        assert!((rate - 20_000.0).abs() < 100.0, "rate {rate}");
        drop(ps);
        drop(h);
    }

    #[test]
    fn markers_are_labelled_in_order() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        ps.begin_trace();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(100, Duration::from_secs(10)).unwrap();
        ps.mark('a').unwrap();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(200, Duration::from_secs(10)).unwrap();
        ps.mark('b').unwrap();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(300, Duration::from_secs(10)).unwrap();
        let trace = ps.end_trace();
        let labels: Vec<char> = trace.markers().iter().map(|m| m.label).collect();
        assert_eq!(labels, vec!['a', 'b']);
        assert!(trace.markers()[0].time < trace.markers()[1].time);
        drop(ps);
        drop(h);
    }

    #[test]
    fn dump_produces_lines_and_markers() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        ps.dump_to(SharedWriter(Arc::clone(&buf)));
        ps.mark('k').unwrap();
        h.advance(SimDuration::from_millis(2));
        ps.wait_for_frames(40, Duration::from_secs(10)).unwrap();
        ps.stop_dump();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(text.starts_with("# PowerSensor3 dump"));
        assert!(text.lines().count() > 30, "{text}");
        assert!(text
            .lines()
            .any(|l| l.starts_with("M ") && l.ends_with('k')));
        // Data lines: t_us pair0_W total_W.
        let data_line = text.lines().nth(1).unwrap();
        let fields: Vec<&str> = data_line.split_whitespace().collect();
        assert_eq!(fields.len(), 3);
        // The dump is sealed: the last line states the frame count.
        let data_lines = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("M "))
            .count();
        assert_eq!(
            text.lines().last().unwrap(),
            format!("# end frames={data_lines}")
        );
        drop(ps);
        drop(h);
    }

    #[test]
    fn dropping_the_sensor_seals_the_dump() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        ps.dump_to(SharedWriter(Arc::clone(&buf)));
        h.advance(SimDuration::from_millis(2));
        ps.wait_for_frames(40, Duration::from_secs(10)).unwrap();
        // No stop_dump: dropping the sensor must flush and seal anyway.
        drop(ps);
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let data_lines = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("M "))
            .count();
        assert!(data_lines >= 40, "buffered data lost on drop: {data_lines}");
        assert!(
            text.ends_with('\n')
                && text.lines().last().unwrap() == format!("# end frames={data_lines}"),
            "dump not sealed on drop: {:?}",
            text.lines().last()
        );
        drop(h);
    }

    #[test]
    fn raw_capture_averages_codes() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let capture = ps.begin_raw_capture(100);
        h.advance(SimDuration::from_millis(10));
        let means = capture.wait(Duration::from_secs(10)).unwrap();
        // Channel 0: 1.89 V → code ≈ 1.89/3.3*1024 ≈ 586.
        assert!((means[0] - 586.0).abs() < 2.0, "ch0 mean {}", means[0]);
        // Channel 1: 2.4 V → ≈ 744.7.
        assert!((means[1] - 744.0).abs() < 2.0, "ch1 mean {}", means[1]);
        drop(ps);
        drop(h);
    }

    #[test]
    fn update_configs_rescales_readings() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(100, Duration::from_secs(10)).unwrap();
        // Halve the voltage gain: reported volts should halve.
        ps.update_configs(&[(1, SensorConfig::new("U0", 3.3, 2.5, true))])
            .unwrap();
        let before = ps.frames_received();
        h.advance(SimDuration::from_millis(5));
        ps.wait_for_frames(before + 50, Duration::from_secs(10))
            .unwrap();
        let state = ps.read();
        assert!(
            (state.pairs[0].volts.value() - 6.0).abs() < 0.05,
            "volts {}",
            state.pairs[0].volts
        );
        drop(ps);
        drop(h);
    }

    #[test]
    fn invalid_config_slot_rejected() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let err = ps
            .update_configs(&[(9, SensorConfig::unpopulated())])
            .unwrap_err();
        assert_eq!(err, PowerSensorError::InvalidSensor(9));
        drop(ps);
        drop(h);
    }

    #[test]
    fn wait_for_frames_times_out_when_idle() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let err = ps
            .wait_for_frames(1000, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, PowerSensorError::Timeout(_)));
        drop(ps);
        drop(h);
    }

    #[test]
    fn frame_sinks_observe_frames_and_deregister() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        // This sink detaches itself after 10 frames.
        ps.add_frame_sink(move |record| {
            assert!(record.present & 0b11 == 0b11, "pair 0 samples present");
            assert!((record.total.value() - 24.0).abs() < 0.5);
            seen2.fetch_add(1, Ordering::SeqCst) < 9
        });
        h.advance(SimDuration::from_millis(10));
        ps.wait_for_frames(150, Duration::from_secs(10)).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 10);
        drop(ps);
        drop(h);
    }

    #[test]
    fn shared_power_sensor_derefs() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let shared = SharedPowerSensor::new(PowerSensor::connect(host_end).unwrap());
        let clone = shared.clone();
        h.advance(SimDuration::from_millis(5));
        clone.wait_for_frames(50, Duration::from_secs(10)).unwrap();
        assert!(shared.frames_received() >= 50);
        assert_eq!(Arc::strong_count(&shared.arc()), 3); // shared + clone + temp
        drop(shared);
        drop(clone);
        drop(h);
    }

    #[test]
    fn device_disconnect_marks_dead() {
        let (h, host_end) = spawn_device(two_amp_source(), one_pair_eeprom());
        let ps = PowerSensor::connect(host_end).unwrap();
        assert!(ps.is_alive());
        assert_eq!(ps.link_error(), None);
        drop(h); // device thread exits, endpoint drops, link dies

        // No frame ever arrives: the wait ends only when the reader does.
        assert_eq!(
            ps.wait_for_frames(u64::MAX, Duration::from_secs(5)),
            Err(PowerSensorError::Shutdown)
        );
        assert!(!ps.is_alive());
        // The fault surface records why the reader died.
        assert_eq!(ps.link_error(), Some(TransportError::Disconnected));
    }
}
