//! The device thread: one emulated board running beside the host. It
//! advances a [`Device`] toward a virtual-time target that the host
//! side moves, then parks until the target moves, host command bytes
//! arrive, or the handle is dropped. Nothing sleeps or polls.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use ps3_transport::{ReadWaker, SerialEndpoint};
use ps3_units::{SimDuration, SimTime};

use crate::adc::AnalogSource;
use crate::device::{Device, COMMAND_POLL_FRAMES};

/// How finely the device thread chunks long advances: a few firmware
/// batches' worth of frames at the device's actual output rate, so the
/// chunk size adapts to the configured averaging depth instead of a
/// fixed wall of virtual time. Progress is published and the stop
/// request honoured between chunks.
fn advance_chunk(frame_interval: SimDuration) -> SimDuration {
    frame_interval * (4 * COMMAND_POLL_FRAMES) as u64
}

/// State shared between the handle and the device thread.
#[derive(Debug, Default)]
struct Progress {
    /// Virtual time the device runs toward.
    target: SimTime,
    /// The device clock, published after every chunk.
    clock: SimTime,
    /// Frames emitted, published with `clock`.
    frames: u64,
    /// A scheduled crash fired; the thread has left.
    crashed: bool,
    /// The handle is being dropped.
    stop: bool,
}

#[derive(Debug)]
struct Shared {
    progress: Mutex<Progress>,
    /// Notified whenever the device publishes progress.
    moved: Condvar,
}

/// A [`Device`] running in its own thread, advancing toward a
/// virtual-time target that [`DeviceThread::advance`] moves forward.
///
/// A parked device still answers commands, so the host can connect
/// before the first advance. Dropping the handle stops and joins the
/// thread; the device endpoint goes with it, and the host observes a
/// disconnect, as if the sensor were unplugged.
#[derive(Debug)]
pub struct DeviceThread {
    shared: Arc<Shared>,
    waker: ReadWaker,
    join: Option<JoinHandle<()>>,
}

impl DeviceThread {
    /// Starts `device` in a thread of its own, reading commands from and
    /// streaming to `end`. The device sits at its current clock until
    /// the first [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot spawn the thread.
    #[must_use]
    pub fn spawn<S: AnalogSource + Send + 'static>(device: Device<S>, end: SerialEndpoint) -> Self {
        let shared = Arc::new(Shared {
            progress: Mutex::new(Progress {
                target: device.clock(),
                clock: device.clock(),
                ..Progress::default()
            }),
            moved: Condvar::new(),
        });
        let waker = end.read_waker();
        let thread_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("ps3-device".into())
            .spawn(move || drive(device, &end, &thread_shared))
            .expect("spawn the device thread");
        Self {
            shared,
            waker,
            join: Some(join),
        }
    }

    /// Moves the virtual-time target forward by `d` and returns at once;
    /// the device catches up in the background.
    pub fn advance(&self, d: SimDuration) {
        self.shared.progress.lock().target += d;
        self.waker.wake();
    }

    /// The device clock as of its last published chunk.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.shared.progress.lock().clock
    }

    /// Frames the device has emitted, as of its last published chunk.
    #[must_use]
    pub fn frames_emitted(&self) -> u64 {
        self.shared.progress.lock().frames
    }

    /// `true` once a scheduled crash has fired and the thread has left.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.shared.progress.lock().crashed
    }

    /// Blocks until the device has caught up with every `advance` made
    /// before the call, or has crashed. Returns `false` if `deadline`
    /// passes first; a deadline of now or earlier makes this a
    /// non-blocking check.
    #[must_use]
    pub fn wait_parked(&self, deadline: Instant) -> bool {
        let mut progress = self.shared.progress.lock();
        let target = progress.target;
        while progress.clock < target && !progress.crashed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.shared.moved.wait_for(&mut progress, left).timed_out() {
                break;
            }
        }
        progress.clock >= target || progress.crashed
    }
}

impl Drop for DeviceThread {
    fn drop(&mut self) {
        self.shared.progress.lock().stop = true;
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The device thread's body: run toward the target chunk by chunk,
/// publishing progress after each; park on the endpoint when caught up.
fn drive<S: AnalogSource>(mut device: Device<S>, end: &SerialEndpoint, shared: &Shared) {
    let chunk = advance_chunk(device.frame_interval());
    loop {
        let target = {
            let progress = shared.progress.lock();
            if progress.stop {
                return;
            }
            progress.target
        };
        if device.clock() < target {
            device.run_until(end, (device.clock() + chunk).min(target));
            let crashed = device.is_crashed();
            {
                let mut progress = shared.progress.lock();
                progress.clock = device.clock();
                progress.frames = device.frames_emitted();
                progress.crashed = crashed;
            }
            shared.moved.notify_all();
            if crashed {
                // The board died: leave, dropping the endpoint, so the
                // host's link errors out.
                return;
            }
        } else {
            // Parked: answer what the host sent, then sleep until the
            // host sends more, advances, or stops us.
            device.process_commands(end);
            end.wait_readable();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ps3_transport::{Transport, TransportError, VirtualSerial};

    use super::*;
    use crate::eeprom::{Eeprom, SensorConfig, CONFIG_WIRE_SIZE, SENSOR_SLOTS};
    use crate::protocol::Command;

    /// A mid-scale device with one populated pair: 6-byte frames.
    fn one_pair_device() -> Device<impl AnalogSource> {
        let mut eeprom = Eeprom::new();
        eeprom.write(0, SensorConfig::new("I0", 3.3, 0.12, true));
        eeprom.write(1, SensorConfig::new("U0", 3.3, 5.0, true));
        Device::new(|_ch: usize, _t: SimTime| 1.65f64, eeprom)
    }

    /// Generous bound for a wait that the device's progress ends; the
    /// assertions are on counters, never on how long it took.
    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn advance_wakes_a_parked_device() {
        let (host, dev_end) = VirtualSerial::pair();
        let device = DeviceThread::spawn(one_pair_device(), dev_end);
        host.write_all(&Command::StartStreaming.encode()).unwrap();
        // Nothing advanced yet: parked at zero, nothing emitted.
        assert!(device.wait_parked(soon()));
        assert_eq!(device.clock(), SimTime::ZERO);
        for step in 1..=3u64 {
            device.advance(SimDuration::from_millis(1));
            assert!(device.wait_parked(soon()));
            assert!(device.clock() >= SimTime::from_micros(step * 1_000));
            // 1 ms at 50 µs per frame, every millisecond.
            assert_eq!(device.frames_emitted(), step * 20);
        }
        assert_eq!(host.available(), 60 * 6);
    }

    #[test]
    fn scheduled_crash_releases_the_waiter_and_drops_the_link() {
        let (host, dev_end) = VirtualSerial::pair();
        let mut dev = one_pair_device();
        dev.schedule_crash(SimTime::from_micros(1_000));
        let device = DeviceThread::spawn(dev, dev_end);
        host.write_all(&Command::StartStreaming.encode()).unwrap();
        // The target lies far past the crash: only the crash can end
        // this wait before the deadline.
        device.advance(SimDuration::from_secs(3_600));
        assert!(device.wait_parked(soon()));
        assert!(device.is_crashed());
        assert_eq!(device.frames_emitted(), 20);
        let mut buf = [0u8; 4096];
        let mut total = 0;
        let err = loop {
            match host.read(&mut buf, None) {
                Ok(n) => total += n,
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::Disconnected);
        assert_eq!(total, 20 * 6, "exactly the pre-crash frames");
    }

    #[test]
    fn parked_device_answers_read_config() {
        let (host, dev_end) = VirtualSerial::pair();
        let device = DeviceThread::spawn(one_pair_device(), dev_end);
        host.write_all(&Command::ReadConfig.encode()).unwrap();
        // A blocking read with no timeout: only the device's reply,
        // sent while its target is still zero, can end it.
        let mut reply = vec![0u8; SENSOR_SLOTS * (2 + CONFIG_WIRE_SIZE) + 1];
        host.read_exact(&mut reply).unwrap();
        assert_eq!(device.clock(), SimTime::ZERO);
        assert_eq!(device.frames_emitted(), 0);
        assert_eq!(reply.last(), Some(&crate::protocol::opcode::CONFIG_END));
    }

    #[test]
    fn drop_joins_an_idle_device() {
        let (host, dev_end) = VirtualSerial::pair();
        let device = DeviceThread::spawn(one_pair_device(), dev_end);
        device.advance(SimDuration::from_millis(1));
        assert!(device.wait_parked(soon()));
        // Parked and blocked on the endpoint: the drop must wake it,
        // join it, and take the device end of the link with it.
        drop(device);
        let mut buf = [0u8; 1];
        assert_eq!(
            host.read(&mut buf, None).unwrap_err(),
            TransportError::Disconnected
        );
    }
}
