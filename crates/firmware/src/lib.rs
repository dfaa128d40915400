//! STM32F411 firmware emulation.
//!
//! The real PowerSensor3 firmware (§III-B of the paper) runs on a
//! "Black Pill" STM32F411: the ADC continuously scans up to sixteen
//! analog inputs, DMA moves conversions to RAM, an interrupt handler
//! averages six consecutive samples per sensor and packs them into
//! 2-byte packets, and the main loop streams those packets to the host
//! over USB. This crate reproduces that pipeline on a virtual clock:
//!
//! * [`protocol`] — the exact wire format: 10-bit sensor values with
//!   framing/marker bits, 10-bit µs timestamp packets, and the command
//!   set (start/stop streaming, config read/write, marker, version,
//!   reboot).
//! * [`Eeprom`] / [`SensorConfig`] — the virtual EEPROM holding
//!   per-sensor conversion values (§III-B1).
//! * [`fold_pairs`] / [`pair_readings`] — the §III-C conversion from
//!   raw codes to volts, amps and watts: the one copy every host-side
//!   layer and the status display use. [`PairTable`] caches it per
//!   code for archive reads.
//! * [`AdcSequencer`] — 10-bit conversions at 25 ADC clocks each
//!   (24 MHz clock), eight channels, six-fold averaging → one frame
//!   every 50 µs, i.e. the paper's 20 kHz sampling rate.
//! * [`Display`] — the ST7735-style status display with pre-rendered
//!   fonts and DMA transfer accounting (§III-B2).
//! * [`Device`] — ties everything together into a synchronous state
//!   machine.
//! * [`DeviceThread`] — runs a `Device` in a dedicated thread (the real
//!   MCU runs independently of the host), advancing it toward a
//!   virtual-time target and parking, without polling, once there. It
//!   is the one driver every testbed, test harness and simulation uses.
//!
//! The [`AnalogSource`] trait is the boundary to the analog world: the
//! testbed implements it by wiring DUT rail states through the
//! `ps3-sensors` models.

#![forbid(unsafe_code)]

mod adc;
mod convert;
mod device;
mod display;
mod driver;
mod eeprom;
pub mod font;
pub mod protocol;

pub use adc::{AdcSequencer, AnalogSource, Frame, FRAME_INTERVAL};
pub use convert::{fold_pairs, pair_readings, PairTable};
pub use device::{Device, DeviceMode, COMMAND_POLL_FRAMES, FIRMWARE_VERSION};
pub use display::{Display, Framebuffer, PairReadout, DISPLAY_H, DISPLAY_W};
pub use driver::DeviceThread;
pub use eeprom::{Eeprom, SensorConfig, CONFIG_WIRE_SIZE, NAME_SIZE, SENSOR_SLOTS};
