//! The DUT abstraction: power rails sampled on the virtual clock.

use std::sync::Arc;

use parking_lot::Mutex;

use ps3_units::{Amps, SimTime, Volts, Watts};

/// Identifies one power path into a device (§II: PCIe devices draw
/// power from several sources that must each be measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RailId {
    /// PCIe slot 3.3 V rail (≤ 10 W).
    Slot3V3,
    /// PCIe slot 12 V rail (≤ 65 W).
    Slot12V,
    /// External PCIe power connector (8-pin, 12 V).
    Ext12V,
    /// USB-C power input (SoC boards).
    UsbC,
}

impl RailId {
    /// Nominal rail voltage.
    #[must_use]
    pub fn nominal(self) -> Volts {
        match self {
            RailId::Slot3V3 => Volts::new(3.3),
            RailId::Slot12V | RailId::Ext12V => Volts::new(12.0),
            RailId::UsbC => Volts::new(20.0),
        }
    }
}

/// Instantaneous electrical state of one rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailState {
    /// Rail voltage at the measurement point.
    pub volts: Volts,
    /// Current drawn by the device.
    pub amps: Amps,
}

impl RailState {
    /// A rail carrying no current at its nominal voltage.
    #[must_use]
    pub fn idle(rail: RailId) -> Self {
        Self {
            volts: rail.nominal(),
            amps: Amps::zero(),
        }
    }

    /// Power delivered over this rail.
    #[must_use]
    pub fn watts(&self) -> Watts {
        self.volts * self.amps
    }
}

/// A device under test: reports rail states as simulated time advances.
///
/// Implementations evolve internal state lazily up to `now` — the ADC
/// samples rails at exact conversion instants, tens of microseconds
/// apart, and expects time to move monotonically forward.
pub trait Dut: Send {
    /// The rails this device draws power from.
    fn rails(&self) -> Vec<RailId>;

    /// Voltage and current on `rail` at time `now`.
    ///
    /// Querying a rail the device does not use returns that rail idle.
    fn rail_state(&mut self, rail: RailId, now: SimTime) -> RailState;

    /// Total power across all rails at `now` (ground truth for
    /// accuracy comparisons).
    fn total_power(&mut self, now: SimTime) -> Watts {
        self.rails()
            .into_iter()
            .map(|r| self.rail_state(r, now).watts())
            .sum()
    }
}

/// A [`Dut`] shared between the device thread (sampling) and the
/// experiment code (driving workloads).
pub type SharedDut = Arc<Mutex<dyn Dut>>;

/// The simplest possible DUT: fixed voltage and current on one rail.
///
/// # Examples
///
/// ```
/// use ps3_duts::{ConstantDut, Dut, RailId};
/// use ps3_units::{Amps, SimTime, Volts};
///
/// let mut dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(2.0));
/// let s = dut.rail_state(RailId::Slot12V, SimTime::ZERO);
/// assert_eq!(s.watts().value(), 24.0);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDut {
    rail: RailId,
    state: RailState,
}

impl ConstantDut {
    /// Creates a constant load on `rail`.
    #[must_use]
    pub fn new(rail: RailId, volts: Volts, amps: Amps) -> Self {
        Self {
            rail,
            state: RailState { volts, amps },
        }
    }
}

impl Dut for ConstantDut {
    fn rails(&self) -> Vec<RailId> {
        vec![self.rail]
    }

    fn rail_state(&mut self, rail: RailId, _now: SimTime) -> RailState {
        if rail == self.rail {
            self.state
        } else {
            RailState::idle(rail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_voltages() {
        assert_eq!(RailId::Slot3V3.nominal().value(), 3.3);
        assert_eq!(RailId::Slot12V.nominal().value(), 12.0);
        assert_eq!(RailId::Ext12V.nominal().value(), 12.0);
        assert_eq!(RailId::UsbC.nominal().value(), 20.0);
    }

    #[test]
    fn idle_rail_has_no_power() {
        let s = RailState::idle(RailId::Slot12V);
        assert_eq!(s.watts(), Watts::zero());
        assert_eq!(s.volts, Volts::new(12.0));
    }

    #[test]
    fn constant_dut_other_rails_idle() {
        let mut dut = ConstantDut::new(RailId::UsbC, Volts::new(20.0), Amps::new(1.0));
        assert_eq!(
            dut.rail_state(RailId::Slot12V, SimTime::ZERO),
            RailState::idle(RailId::Slot12V)
        );
        assert_eq!(dut.total_power(SimTime::ZERO), Watts::new(20.0));
    }

    #[test]
    fn constant_dut_is_object_safe_and_send() {
        fn takes_dut(_d: Box<dyn Dut>) {}
        takes_dut(Box::new(ConstantDut::new(
            RailId::Slot3V3,
            Volts::new(3.3),
            Amps::zero(),
        )));
    }
}
