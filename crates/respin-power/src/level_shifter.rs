//! Cross-voltage-domain level shifters.
//!
//! The Respin chip has two externally regulated rails: the NT core rail
//! (0.4 V) and the nominal cache rail (1.0 V). Every *up-shift* transition
//! (core → cache) passes through level shifters. Following the paper (§II,
//! citing the circuits literature it references), up-shifting costs 0.75 ns;
//! down-shifting (cache → core) is essentially free because a high-voltage
//! signal drives a low-voltage gate directly.
//!
//! In the shared-cache timing model this 0.75 ns, together with wire delay,
//! is the "2 fast cache cycles (0.8 ns)" each request spends in flight
//! before the cache controller sees it (§II-A, Figure 3).

/// Level-shifter delay and energy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelShifter {
    /// Up-shift (low → high domain) delay in picoseconds.
    pub upshift_delay_ps: f64,
    /// Down-shift (high → low domain) delay in picoseconds.
    pub downshift_delay_ps: f64,
    /// Energy per shifted request (address + data bus crossing), picojoules.
    pub energy_per_crossing_pj: f64,
}

impl Default for LevelShifter {
    fn default() -> Self {
        Self {
            upshift_delay_ps: 750.0,
            downshift_delay_ps: 0.0,
            energy_per_crossing_pj: 0.6,
        }
    }
}

impl LevelShifter {
    /// Total request-delivery latency from a core to the shared cache,
    /// expressed in whole cache cycles (rounded up): level shifting plus
    /// `wire_delay_ps` of interconnect.
    ///
    /// With the defaults and 50 ps of wire this is the paper's 2-cycle
    /// (0.8 ns) delivery at a 400 ps cache clock.
    pub fn delivery_cache_cycles(&self, wire_delay_ps: f64, cache_period_ps: f64) -> u32 {
        ((self.upshift_delay_ps + wire_delay_ps) / cache_period_ps).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_delivery_is_two_cache_cycles() {
        let ls = LevelShifter::default();
        assert_eq!(ls.delivery_cache_cycles(50.0, 400.0), 2);
    }

    #[test]
    fn slower_cache_clock_needs_fewer_cycles() {
        let ls = LevelShifter::default();
        assert_eq!(ls.delivery_cache_cycles(50.0, 800.0), 1);
    }

    #[test]
    fn downshift_is_free_by_default() {
        assert_eq!(LevelShifter::default().downshift_delay_ps, 0.0);
    }

    #[test]
    fn delivery_rounds_any_excess_up_to_a_whole_cycle() {
        let ls = LevelShifter::default();
        // 750 + 50 ps is exactly two 400 ps cycles; one more picosecond
        // of wire needs a third.
        assert_eq!(ls.delivery_cache_cycles(50.0, 400.0), 2);
        assert_eq!(ls.delivery_cache_cycles(51.0, 400.0), 3);
        // With no wire at all the up-shift alone still spans two cycles.
        assert_eq!(ls.delivery_cache_cycles(0.0, 400.0), 2);
    }
}
