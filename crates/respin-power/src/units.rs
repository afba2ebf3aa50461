//! Unit conventions used across the workspace.
//!
//! All models exchange plain `f64` values with unit-suffixed names rather
//! than newtypes; this module centralises the conventions and conversion
//! helpers so every crate agrees on them:
//!
//! * time — **picoseconds** (`_ps`)
//! * energy — **picojoules** (`_pj`)
//! * power — **milliwatts** (`_mw`)
//! * area — **mm²** (`_mm2`)
//! * voltage — **volts** (plain `vdd`)
//! * frequency — **megahertz** (`_mhz`)
//!
//! The identity that ties the simulator's energy accounting together:
//! `pJ = mW × ns`, i.e. `energy_pj = power_mw * time_ps / 1000`.

/// Picoseconds per nanosecond.
pub const PS_PER_NS: f64 = 1_000.0;

/// Average power from an energy total and an interval: `pJ / ps → mW`.
///
/// ```
/// use respin_power::units::average_power_mw;
/// assert_eq!(average_power_mw(10.0, 10_000.0), 1.0);
/// ```
pub fn average_power_mw(energy_pj: f64, interval_ps: f64) -> f64 {
    if interval_ps <= 0.0 {
        return 0.0;
    }
    energy_pj / interval_ps * PS_PER_NS
}

/// Kibibytes → bytes, for readable cache-size literals.
pub const fn kib(n: u64) -> u64 {
    n * 1024
}

/// Mebibytes → bytes, for readable cache-size literals.
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_power_zero_interval_is_zero() {
        assert_eq!(average_power_mw(42.0, 0.0), 0.0);
    }

    #[test]
    fn size_helpers() {
        assert_eq!(kib(16), 16384);
        assert_eq!(mib(1), 1024 * kib(1));
    }

    #[test]
    fn average_power_is_picojoules_per_nanosecond() {
        // pJ = mW × ns: 1 pJ spent over 1 ns is 1 mW.
        assert_eq!(average_power_mw(1.0, PS_PER_NS), 1.0);
        for (power_mw, time_ps) in [(0.5, 400.0), (3.0, 1e6), (120.0, 2.5e9)] {
            let energy_pj = power_mw * time_ps / PS_PER_NS;
            let back = average_power_mw(energy_pj, time_ps);
            assert!(
                (back - power_mw).abs() <= 1e-12 * power_mw,
                "{back} vs {power_mw}"
            );
        }
    }

    #[test]
    fn average_power_over_a_negative_interval_is_zero() {
        assert_eq!(average_power_mw(42.0, -1.0), 0.0);
    }
}
