//! Raw-code → physical-unit conversion (§III-C): the one place a
//! sensor pair's 10-bit ADC codes become volts, amps and watts.
//!
//! The host library's live reader and offline decoder, the archive's
//! frame totals, `ps3-stream` clients (which convert on their side of
//! the wire) and the firmware's own status display all fold their
//! frames through [`fold_pairs`], so every layer reports the same
//! bits for the same codes.

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
}
