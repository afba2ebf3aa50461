//! Energy bookkeeping.
//!
//! Dynamic energy is charged per event (core events, cache accesses,
//! coherence messages, level-shifter crossings). Leakage is integrated over
//! time by [`LeakageIntegrator`]s whose power changes only at power-gating
//! events, so the integral is exact and cheap.
//!
//! The component split mirrors Figure 1 / Figure 6 of the paper: core
//! dynamic, core leakage, cache dynamic, cache leakage, interconnect
//! (level shifters + coherence messages), and off-chip (reported separately;
//! the paper's CMP power figures exclude DRAM).

use serde::{Deserialize, Serialize};

/// Piecewise-constant power integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageIntegrator {
    power_mw: f64,
    last_tick: u64,
    acc_pj: f64,
    /// Tick duration in picoseconds.
    tick_ps: f64,
}

impl LeakageIntegrator {
    /// New integrator starting at `power_mw` from tick 0.
    pub fn new(power_mw: f64, tick_ps: f64) -> Self {
        Self {
            power_mw,
            last_tick: 0,
            acc_pj: 0.0,
            tick_ps,
        }
    }

    /// Changes the power level at `tick`, folding the elapsed interval in.
    pub fn set_power(&mut self, tick: u64, power_mw: f64) {
        self.accumulate(tick);
        self.power_mw = power_mw;
    }

    /// Restarts the integral from `tick` (measurement warm-up reset).
    pub fn rebase(&mut self, tick: u64) {
        self.acc_pj = 0.0;
        self.last_tick = tick;
    }

    /// Current power level, mW.
    pub fn power_mw(&self) -> f64 {
        self.power_mw
    }

    /// Total energy up to `tick`, pJ.
    pub fn energy_pj(&self, tick: u64) -> f64 {
        let pending =
            self.power_mw * (tick.saturating_sub(self.last_tick)) as f64 * self.tick_ps / 1_000.0;
        self.acc_pj + pending
    }

    fn accumulate(&mut self, tick: u64) {
        debug_assert!(tick >= self.last_tick, "time must not run backwards");
        self.acc_pj +=
            self.power_mw * (tick.saturating_sub(self.last_tick)) as f64 * self.tick_ps / 1_000.0;
        self.last_tick = tick;
    }
}

/// Energy split by chip component, picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Core dynamic energy.
    pub core_dynamic_pj: f64,
    /// Core leakage energy (gating-aware).
    pub core_leakage_pj: f64,
    /// Cache dynamic energy, all levels.
    pub cache_dynamic_pj: f64,
    /// Cache leakage energy, all levels.
    pub cache_leakage_pj: f64,
    /// Level shifters, interconnect, coherence messages.
    pub interconnect_pj: f64,
    /// Off-chip DRAM energy — reported but *excluded* from [`Self::chip_total_pj`].
    pub offchip_pj: f64,
}

impl EnergyBreakdown {
    /// Total CMP energy (the quantity the paper's figures normalise).
    pub fn chip_total_pj(&self) -> f64 {
        self.core_dynamic_pj
            + self.core_leakage_pj
            + self.cache_dynamic_pj
            + self.cache_leakage_pj
            + self.interconnect_pj
    }

    /// Total leakage energy.
    pub fn leakage_pj(&self) -> f64 {
        self.core_leakage_pj + self.cache_leakage_pj
    }

    /// Average CMP power over `interval_ps`, mW.
    pub fn average_power_mw(&self, interval_ps: f64) -> f64 {
        respin_power::units::average_power_mw(self.chip_total_pj(), interval_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrator_constant_power() {
        let li = LeakageIntegrator::new(2.0, 400.0);
        // 2 mW for 1000 ticks of 0.4 ns = 2 mW × 400 ns = 800 pJ.
        assert!((li.energy_pj(1000) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn integrator_power_change_is_exact() {
        let mut li = LeakageIntegrator::new(2.0, 400.0);
        li.set_power(500, 1.0);
        // 2 mW × 200 ns + 1 mW × 200 ns = 400 + 200 pJ.
        assert!((li.energy_pj(1000) - 600.0).abs() < 1e-9);
        // Querying twice is idempotent.
        assert!((li.energy_pj(1000) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let b = EnergyBreakdown {
            core_dynamic_pj: 1.0,
            core_leakage_pj: 2.0,
            cache_dynamic_pj: 3.0,
            cache_leakage_pj: 4.0,
            interconnect_pj: 5.0,
            offchip_pj: 100.0,
        };
        assert_eq!(b.chip_total_pj(), 15.0);
        assert_eq!(b.leakage_pj(), 6.0);
    }

    #[test]
    fn average_power() {
        let b = EnergyBreakdown {
            core_dynamic_pj: 1000.0,
            ..Default::default()
        };
        // 1000 pJ over 1 µs = 1 mW.
        assert!((b.average_power_mw(1e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebase_restarts_the_integral_at_the_given_tick() {
        let mut li = LeakageIntegrator::new(2.0, 400.0);
        li.set_power(500, 4.0);
        li.rebase(1000);
        assert_eq!(li.energy_pj(1000), 0.0);
        assert_eq!(li.power_mw(), 4.0);
        // 4 mW × 1000 ticks × 0.4 ns = 1600 pJ.
        assert!((li.energy_pj(2000) - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn a_tick_before_the_last_change_adds_nothing_pending() {
        let mut li = LeakageIntegrator::new(1.0, 400.0);
        li.set_power(1000, 3.0);
        let at_change = li.energy_pj(1000);
        assert!((at_change - 400.0).abs() < 1e-9);
        assert_eq!(li.energy_pj(10), at_change);
    }

    #[test]
    fn gated_power_integrates_to_nothing() {
        let mut li = LeakageIntegrator::new(5.0, 400.0);
        li.set_power(100, 0.0);
        let off = li.energy_pj(100);
        assert_eq!(li.energy_pj(1_000_000), off);
    }
}
