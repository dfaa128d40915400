//! Raw-code → physical-unit conversion (§III-C): the one place a
//! sensor pair's 10-bit ADC codes become volts, amps and watts.
//!
//! The host library's live reader and offline decoder, the archive's
//! writer, `ps3-stream` clients (which convert on their side of the
//! wire) and the firmware's own status display all fold their frames
//! through [`fold_pairs`], so every layer reports the same bits for
//! the same codes. Archive reads, which refold millions of stored
//! frames, look the same conversion up in a [`PairTable`].

use ps3_sensors::AdcSpec;
use ps3_units::{Amps, Volts, Watts};

use crate::eeprom::{SensorConfig, SENSOR_SLOTS};

/// Converts one sensor pair's raw 10-bit ADC codes into physical
/// readings using the pair's EEPROM configuration (§III-C conversion:
/// the current sensor is offset by `vref/2` and scaled by its
/// sensitivity; the voltage sensor is scaled by its divider gain).
#[must_use]
pub fn pair_readings(
    i_cfg: &SensorConfig,
    u_cfg: &SensorConfig,
    adc: &AdcSpec,
    raw_i: u16,
    raw_u: u16,
) -> (Volts, Amps, Watts) {
    let v_i = adc.to_volts(raw_i);
    let v_u = adc.to_volts(raw_u);
    let amps = Amps::new((v_i - f64::from(i_cfg.vref) / 2.0) / f64::from(i_cfg.gain));
    let volts = Volts::new(v_u * f64::from(u_cfg.gain));
    let watts = volts * amps;
    (volts, amps, watts)
}

/// Converts one frame's sensor pairs: calls `visit(pair, volts, amps,
/// watts)` for every pair whose two slots are both enabled in
/// `configs` and both set in the `present` bit mask, in ascending pair
/// order, and returns the frame's total power — those pairs' watts
/// summed in that order from zero.
pub fn fold_pairs(
    configs: &[SensorConfig; SENSOR_SLOTS],
    adc: &AdcSpec,
    raw: &[u16; SENSOR_SLOTS],
    present: u8,
    mut visit: impl FnMut(usize, Volts, Amps, Watts),
) -> Watts {
    let mut total = Watts::zero();
    for pair in 0..SENSOR_SLOTS / 2 {
        let (i, u) = (2 * pair, 2 * pair + 1);
        if !(configs[i].enabled && configs[u].enabled) || present >> i & 0b11 != 0b11 {
            continue;
        }
        let (volts, amps, watts) = pair_readings(&configs[i], &configs[u], adc, raw[i], raw[u]);
        total += watts;
        visit(pair, volts, amps, watts);
    }
    total
}

/// The codes a 10-bit ADC produces.
const CODES: usize = 1 << 10;

/// One enabled pair's [`pair_readings`] of every code.
#[derive(Debug)]
struct PairCodes {
    /// Slot of the current sensor; the voltage sensor is the next.
    i: usize,
    /// Amps of each current-sensor code.
    amps: Vec<Amps>,
    /// Volts of each voltage-sensor code.
    volts: Vec<Volts>,
}

/// [`fold_pairs`]' frame total with every conversion looked up: each
/// enabled pair's volts and amps of all 1024 codes, each computed once
/// by [`pair_readings`]. A pair's watts depend on its current code
/// only through its amps and on its voltage code only through its
/// volts, so the table's product is bit-identical to the fold's.
#[derive(Debug)]
pub struct PairTable {
    pairs: Vec<PairCodes>,
    /// For codes past 10 bits, which the table does not hold.
    configs: [SensorConfig; SENSOR_SLOTS],
    adc: AdcSpec,
}

impl PairTable {
    /// The table of `configs`' enabled pairs.
    #[must_use]
    pub fn new(configs: &[SensorConfig; SENSOR_SLOTS], adc: &AdcSpec) -> Self {
        let pairs = (0..SENSOR_SLOTS / 2)
            .map(|pair| 2 * pair)
            .filter(|&i| configs[i].enabled && configs[i + 1].enabled)
            .map(|i| {
                let (i_cfg, u_cfg) = (&configs[i], &configs[i + 1]);
                let (volts, amps) = (0..CODES as u16)
                    .map(|code| {
                        let (volts, amps, _) = pair_readings(i_cfg, u_cfg, adc, code, code);
                        (volts, amps)
                    })
                    .unzip();
                PairCodes { i, amps, volts }
            })
            .collect();
        Self {
            pairs,
            configs: configs.clone(),
            adc: *adc,
        }
    }

    /// The frame's total power: bit-identical to [`fold_pairs`] over
    /// the same configuration, raw codes and `present` mask.
    #[must_use]
    #[inline]
    pub fn total(&self, raw: &[u16; SENSOR_SLOTS], present: u8) -> Watts {
        let mut total = Watts::zero();
        for pair in &self.pairs {
            let (i, u) = (pair.i, pair.i + 1);
            if present >> i & 0b11 != 0b11 {
                continue;
            }
            let (raw_i, raw_u) = (raw[i], raw[u]);
            total += match (
                pair.volts.get(raw_u as usize),
                pair.amps.get(raw_i as usize),
            ) {
                (Some(&volts), Some(&amps)) => volts * amps,
                _ => pair_readings(&self.configs[i], &self.configs[u], &self.adc, raw_i, raw_u).2,
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converts_ideal_codes() {
        // 2 A through a 120 mV/A sensor around 1.65 V mid-rail, 12 V
        // through a gain-5 divider.
        let i_cfg = SensorConfig::new("I0", 3.3, 0.12, true);
        let u_cfg = SensorConfig::new("U0", 3.3, 5.0, true);
        let adc = AdcSpec::POWERSENSOR3;
        let raw_i = adc.quantize(1.65 + 2.0 * 0.12);
        let raw_u = adc.quantize(12.0 / 5.0);
        let (volts, amps, watts) = pair_readings(&i_cfg, &u_cfg, &adc, raw_i, raw_u);
        assert!((volts.value() - 12.0).abs() < 0.05, "volts {volts}");
        assert!((amps.value() - 2.0).abs() < 0.03, "amps {amps}");
        assert!((watts.value() - 24.0).abs() < 0.4, "watts {watts}");
    }

    #[test]
    fn fold_visits_enabled_present_pairs_in_order() {
        let adc = AdcSpec::POWERSENSOR3;
        let mut configs: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        for pair in [0, 1, 3] {
            configs[2 * pair] = SensorConfig::new("I", 3.3, 0.12, true);
            configs[2 * pair + 1] = SensorConfig::new("U", 3.3, 5.0, true);
        }
        let raw: [u16; SENSOR_SLOTS] = core::array::from_fn(|s| 600 + 10 * s as u16);
        // Pair 1 lacks its voltage sample; pair 2 is present but
        // disabled.
        let present = 0b1111_0011 | 0b0000_0100;
        let mut visited = Vec::new();
        let total = fold_pairs(&configs, &adc, &raw, present, |pair, _, _, watts| {
            visited.push((pair, watts));
        });
        assert_eq!(visited.iter().map(|v| v.0).collect::<Vec<_>>(), [0, 3]);
        assert_eq!(total, Watts::zero() + visited[0].1 + visited[1].1);
        let (_, _, w3) = pair_readings(&configs[6], &configs[7], &adc, raw[6], raw[7]);
        assert_eq!(visited[1].1, w3);
        assert_eq!(
            fold_pairs(&configs, &adc, &raw, 0, |_, _, _, _| {}),
            Watts::zero()
        );
    }

    /// A splitmix64 step: seeded raws without a dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The GPU riser's factory-calibrated EEPROM: the 3.3 V slot, 12 V
    /// slot and 8-pin modules, configured as the testbed does.
    fn gpu_riser_configs() -> [SensorConfig; SENSOR_SLOTS] {
        use ps3_sensors::{ModuleKind, SensorModule};
        let mut configs: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        let kinds = [
            ModuleKind::Slot10A3V3,
            ModuleKind::Slot10A12V,
            ModuleKind::Pcie8Pin20A,
        ];
        for (pair, kind) in kinds.into_iter().enumerate() {
            let module = SensorModule::new(kind, 12 + pair as u64);
            let (sens, gain, vref) = (
                module.nominal_sensitivity(),
                module.nominal_gain(),
                SensorModule::VREF,
            );
            let vref_cal = vref + 2.0 * sens * module.hall().factory_offset().value();
            let gain_cal = gain / module.voltage_sensor().factory_gain();
            configs[2 * pair] = SensorConfig::new(kind.label(), vref_cal as f32, sens as f32, true);
            configs[2 * pair + 1] =
                SensorConfig::new(kind.label(), vref as f32, gain_cal as f32, true);
        }
        configs
    }

    /// Two GPU-riser-like pairs, a disabled pair (both sides
    /// configured but the voltage side off) and a pair with only its
    /// current side enabled.
    fn mixed_configs() -> [SensorConfig; SENSOR_SLOTS] {
        let mut configs: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
        configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
        configs[2] = SensorConfig::new("I1", 3.3, 0.063, true);
        configs[3] = SensorConfig::new("U1", 3.3, 1.0, true);
        configs[4] = SensorConfig::new("I2", 3.3, 0.12, false);
        configs[5] = SensorConfig::new("U2", 3.3, 5.0, false);
        configs[6] = SensorConfig::new("I3", 3.3, 0.12, true);
        configs[7] = SensorConfig::new("U3", 3.3, 5.0, false);
        configs
    }

    fn assert_table_matches_fold(configs: &[SensorConfig; SENSOR_SLOTS]) {
        let adc = AdcSpec::POWERSENSOR3;
        let table = PairTable::new(configs, &adc);
        let check = |raw: &[u16; SENSOR_SLOTS], present: u8| {
            let want = fold_pairs(configs, &adc, raw, present, |_, _, _, _| {});
            let got = table.total(raw, present);
            assert_eq!(
                got.value().to_bits(),
                want.value().to_bits(),
                "raw {raw:?} present {present:#010b}"
            );
        };
        // Every code of every slot, the other slots at mid-scale.
        for slot in 0..SENSOR_SLOTS {
            for code in 0..CODES as u16 {
                let mut raw = [512u16; SENSOR_SLOTS];
                raw[slot] = code;
                check(&raw, 0xFF);
            }
        }
        // Every present mask over seeded raws.
        let mut state = 0x7AB1E;
        for _ in 0..64 {
            let raw: [u16; SENSOR_SLOTS] =
                core::array::from_fn(|_| (mix(&mut state) % CODES as u64) as u16);
            for present in 0..=u8::MAX {
                check(&raw, present);
            }
        }
        // Codes past 10 bits fall back to the conversion itself.
        for code in [CODES as u16, 0x7FF, u16::MAX] {
            for slot in 0..SENSOR_SLOTS {
                let mut raw = [300u16; SENSOR_SLOTS];
                raw[slot] = code;
                check(&raw, 0xFF);
            }
        }
    }

    #[test]
    fn pair_table_equals_fold_pairs_bit_for_bit() {
        assert_table_matches_fold(&gpu_riser_configs());
        assert_table_matches_fold(&mixed_configs());
        assert_eq!(
            PairTable::new(&mixed_configs(), &AdcSpec::POWERSENSOR3)
                .pairs
                .iter()
                .map(|p| p.i)
                .collect::<Vec<_>>(),
            [0, 2],
            "only the two fully enabled pairs are tabled"
        );
    }
}
