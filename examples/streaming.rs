//! Streaming: one process owns the sensor, many subscribe over TCP.
//!
//! ```text
//! cargo run --release --example streaming
//! ```
//!
//! Starts a [`StreamDaemon`] on an ephemeral port around a simulated
//! 12 V bench, then subscribes three clients at three different rates
//! (native 20 kHz, 1 kHz, 10 Hz) while the virtual clock advances.
//! One client injects a marker over the network; the native-rate
//! client sees it come back time-synced in the sample stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use powersensor3::core::SharedPowerSensor;
use powersensor3::duts::{BenchSetup, LoadProgram, RailId};
use powersensor3::sensors::ModuleKind;
use powersensor3::stream::{
    FrameCallback, StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig,
};
use powersensor3::testbed::TestbedBuilder;
use powersensor3::units::{Amps, SimDuration};

fn main() {
    // 1. A simulated rig: 12 V bench stepping between 2 A and 6 A.
    let mut testbed = TestbedBuilder::new(BenchSetup::twelve_volt(LoadProgram::SquareWave {
        low: Amps::new(2.0),
        high: Amps::new(6.0),
        frequency_hz: 10.0,
    }))
    .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
    .build();
    let sensor = SharedPowerSensor::new(testbed.connect().expect("connect"));

    // 2. The daemon owns the sensor and serves its stream.
    let daemon = StreamDaemon::start(sensor.clone(), "127.0.0.1:0", StreamDaemonConfig::default())
        .expect("start daemon");
    println!("daemon listening on {}", daemon.local_addr());

    // 3. Three subscribers at three rates. The native-rate client
    //    watches for the marker.
    let marker_at = Arc::new(AtomicU64::new(0));
    let watch: FrameCallback = {
        let marker_at = Arc::clone(&marker_at);
        Box::new(move |frame| {
            if frame.marker {
                marker_at.store(frame.time.as_micros(), Ordering::SeqCst);
            }
        })
    };
    let subscribe = |divisor, on_frame| {
        StreamClient::connect(
            daemon.local_addr(),
            StreamClientConfig {
                pair_mask: 0x0F,
                divisor,
                on_frame,
                ..StreamClientConfig::default()
            },
        )
        .expect("subscribe")
    };
    let native = subscribe(1, Some(watch)); // 20 kHz
    let khz = subscribe(20, None); // 1 kHz
    let slow = subscribe(2000, None); // 10 Hz

    // 4. Run half a simulated second; inject a marker part-way, over
    //    the network, from the 1 kHz client.
    testbed
        .advance_and_sync(&sensor, SimDuration::from_millis(200))
        .expect("advance");
    khz.inject_marker('m').expect("marker");
    std::thread::sleep(Duration::from_millis(20)); // let the command land
    testbed
        .advance_and_sync(&sensor, SimDuration::from_millis(300))
        .expect("advance");

    // 5. Let the last batches drain, then report.
    let total = testbed.frames_emitted();
    native.wait_until(Duration::from_secs(30), |c| c.frames_received() >= total);
    println!(
        "device emitted {total} frames; 20 kHz client got {}, 1 kHz client {}, 10 Hz client {}",
        native.frames_received(),
        khz.frames_received(),
        slow.frames_received()
    );
    println!(
        "power right now: native {:.2}, 1 kHz {:.2}, 10 Hz {:.2}",
        native.last_watts(),
        khz.last_watts(),
        slow.last_watts()
    );
    let at = marker_at.load(Ordering::SeqCst);
    println!("marker 'm' observed in the 20 kHz stream at t = {at} µs");
    let stats = daemon.stats();
    println!(
        "daemon: {} frames published, {} subscribers, {} gaps, {} evicted",
        stats.frames_published, stats.active_subscribers, stats.gap_events, stats.evicted
    );
}
