//! Rig construction: how the coordinator obtains and supervises one
//! acquisition stack.
//!
//! The coordinator is agnostic about what a "rig" physically is — it
//! only needs a connected sensor, a way to advance its (virtual)
//! clock, and a way to ask whether it has crashed. A [`RigFactory`]
//! packages that; [`testbed_rig_factory`] builds rigs from the virtual
//! testbed (each with a distinct load program so cross-rig queries
//! have structure), and the simulation harness supplies its own
//! fault-injecting factory without this crate depending on it.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ps3_core::SharedPowerSensor;
use ps3_duts::LoadProgram;
use ps3_sensors::ModuleKind;
use ps3_testbed::setups;
use ps3_units::{Amps, SimDuration};

/// One freshly built acquisition stack, as handed out by a
/// [`RigFactory`].
pub struct RigParts {
    /// The connected sensor (its reader thread is already running).
    pub sensor: SharedPowerSensor,
    /// Advances the rig's virtual clock by `d`. Called only from the
    /// fleet owner's thread, never concurrently.
    pub advance: Box<dyn FnMut(SimDuration) + Send>,
    /// `true` once the rig has crashed and needs a restart.
    pub crashed: Box<dyn Fn() -> bool + Send>,
}

/// Builds generation `generation` of rig `id`. Called at fleet start
/// (generation 0) and again on every restart after a crash.
///
/// # Errors
///
/// Returns whatever prevents the rig from coming up; the coordinator
/// surfaces it from `start`/`supervise`.
pub type RigFactory = Box<dyn FnMut(u16, u32) -> io::Result<RigParts> + Send>;

/// The default factory: virtual accuracy-bench rigs on the 10 A / 12 V
/// module, each drawing a different constant current (1 A + 0.75 A per
/// rig id, cycling over 8 levels) so fleet-wide top-k queries rank a
/// non-trivial power distribution. Seeds vary per rig and generation,
/// so sensor imperfections differ across the fleet.
#[must_use]
pub fn testbed_rig_factory(seed: u64) -> RigFactory {
    Box::new(move |id: u16, generation: u32| {
        let amps = 1.0 + f64::from(id % 8) * 0.75;
        let mut tb = setups::accuracy_bench(
            ModuleKind::Slot10A12V,
            LoadProgram::Constant(Amps::new(amps)),
            seed ^ (u64::from(id) << 16) ^ u64::from(generation),
        );
        let sensor = SharedPowerSensor::new(
            tb.connect()
                .map_err(|e| io::Error::other(format!("rig {id} connect: {e}")))?,
        );
        let advance_sensor = sensor.clone();
        // The testbed never crashes in normal operation; an advance
        // failure means a bug. Flag the rig as crashed instead of
        // panicking the fleet owner's thread — the supervisor then
        // restarts this rig (a fresh generation) and the rest of the
        // fleet keeps streaming.
        let failed = Arc::new(AtomicBool::new(false));
        let failed_flag = Arc::clone(&failed);
        Ok(RigParts {
            sensor,
            advance: Box::new(move |d| {
                if failed_flag.load(Ordering::SeqCst) {
                    return;
                }
                if let Err(e) = tb.advance_and_sync(&advance_sensor, d) {
                    ps3_stream::log::emit(
                        "ps3-fleet",
                        "rig-advance-failed",
                        &[
                            ("rig", &id.to_string()),
                            ("gen", &generation.to_string()),
                            ("error", &e.to_string()),
                        ],
                    );
                    failed_flag.store(true, Ordering::SeqCst);
                }
            }),
            crashed: Box::new(move || failed.load(Ordering::SeqCst)),
        })
    })
}
