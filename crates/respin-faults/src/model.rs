//! Per-array STT-RAM fault model: stochastic write failures with
//! write-verify-retry, retention-decay flips, SECDED-at-line-granularity
//! recovery, and epoch-boundary scrubbing.
//!
//! The model tracks *health* per resident line — when it was last
//! (re)written and how many uncorrected bit flips it carries — and makes
//! every stochastic decision through the stateless hash draws in
//! [`crate::hash`], so outcomes depend only on the event's coordinates
//! (key, address, tick, attempt), never on evaluation order.

use crate::hash::{combine, unit_f64, DOMAIN_RETENTION, DOMAIN_WRITE};
use crate::stats::{FaultEventKind, FaultStats};
use crate::FaultConfig;
use std::collections::BTreeMap;

/// Health of one resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHealth {
    /// Tick of the last write / refresh — retention age is measured from
    /// here.
    pub written_tick: u64,
    /// Uncorrected bit flips currently in the line (saturates at small
    /// counts; ≥2 is already uncorrectable under SECDED).
    pub flips: u8,
}

/// The write-verify-retry loop's budget decision: whether a write whose
/// attempt number `attempt` (0 = the initial write) just failed verify
/// gives up instead of retrying, having spent its `retry_budget` extra
/// attempts. [`ArrayFaults::on_write`] decides with it, and so does
/// respin-verify's retry model, which proves the write makes at most
/// `1 + retry_budget` attempts.
pub fn retries_exhausted(attempt: u32, retry_budget: u32) -> bool {
    attempt >= retry_budget
}

/// Result of a write through the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Extra attempts needed beyond the initial write (0 = first try
    /// stuck). Never exceeds the configured retry budget.
    pub retries: u32,
    /// True when the budget was exhausted and the line holds residual
    /// flips.
    pub exhausted: bool,
}

/// Result of a read through the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Line healthy; serve normally.
    Clean,
    /// SECDED corrected a single-bit flip; the controller charges one
    /// rewrite's worth of energy.
    Corrected,
    /// SECDED detected an uncorrectable error; the controller must
    /// invalidate the line and refetch (treat as a miss).
    Refetch,
    /// A corrupted value was consumed undetected (no ECC).
    Escape,
}

/// What scrubbing decided for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubAction {
    /// Line healthy (or flips invisible without ECC); retention age
    /// refreshed in place.
    Refreshed,
    /// Single-bit error corrected and the line rewritten — the controller
    /// charges one array write.
    Rewritten,
    /// Uncorrectable error: the controller must invalidate the line.
    Dropped {
        /// True when the line was dirty, i.e. modified data was lost.
        /// The loss is *detected* (SECDED flagged it), so it is recorded
        /// in the trace but not counted as a silent escape.
        dirty: bool,
    },
}

/// Fault state for one STT-RAM array (one shared L1 slice).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayFaults {
    cfg: FaultConfig,
    /// Array draw key: `combine([chip_seed, fault_seed, cluster])`.
    key: u64,
    /// Bits per cache line (geometry's block bytes × 8).
    line_bits: u32,
    /// Per-line write-attempt failure probability,
    /// `1 - (1-BER)^line_bits`.
    p_write_fail: f64,
    /// Health of resident lines, keyed by block address. BTreeMap for
    /// deterministic iteration order during scrubbing.
    health: BTreeMap<u64, LineHealth>,
    /// Counters and bounded event trace.
    pub stats: FaultStats,
}

impl ArrayFaults {
    /// Builds the fault state for one array. `chip_seed` is the simulator
    /// seed, `cluster` the array's cluster index, `line_bits` the line
    /// size in bits.
    pub fn new(cfg: FaultConfig, chip_seed: u64, cluster: usize, line_bits: u32) -> Self {
        let p_write_fail = if cfg.write_ber > 0.0 {
            1.0 - (1.0 - cfg.write_ber).powi(line_bits as i32)
        } else {
            0.0
        };
        Self {
            cfg,
            key: combine(&[chip_seed, cfg.seed, cluster as u64]),
            line_bits,
            p_write_fail,
            health: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The configuration this array runs under.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A write (store drain or fill) lands on `addr` at `tick`:
    /// write-verify-retry up to the budget, then give up and leave
    /// residual flips.
    pub fn on_write(&mut self, addr: u64, tick: u64) -> WriteOutcome {
        if self.p_write_fail <= 0.0 {
            // Fresh write always clears retention age; only track lines
            // once a cell-level model is active (retention needs ages).
            if self.cfg.retention_flip_rate > 0.0 {
                self.health.insert(
                    addr,
                    LineHealth {
                        written_tick: tick,
                        flips: 0,
                    },
                );
            }
            return WriteOutcome {
                retries: 0,
                exhausted: false,
            };
        }
        let mut attempt: u32 = 0;
        loop {
            let u = unit_f64(combine(&[
                self.key,
                DOMAIN_WRITE,
                addr,
                tick,
                u64::from(attempt),
            ]));
            if u >= self.p_write_fail {
                // This attempt verified.
                if attempt > 0 {
                    self.stats.record(
                        tick,
                        addr,
                        FaultEventKind::WriteRetried { retries: attempt },
                    );
                }
                self.health.insert(
                    addr,
                    LineHealth {
                        written_tick: tick,
                        flips: 0,
                    },
                );
                return WriteOutcome {
                    retries: attempt,
                    exhausted: false,
                };
            }
            self.stats.summary.write_faults += 1;
            if retries_exhausted(attempt, self.cfg.retry_budget) {
                // Budget exhausted: the line is left with one stuck bit,
                // or two when a second coordinate draw also fails —
                // models multi-cell write failure.
                let u2 = unit_f64(combine(&[
                    self.key,
                    DOMAIN_WRITE,
                    addr,
                    tick,
                    u64::from(attempt) + 1_000_000,
                ]));
                let flips = if u2 < self.p_write_fail { 2 } else { 1 };
                self.stats.summary.retry_exhausted += 1;
                self.stats
                    .record(tick, addr, FaultEventKind::RetryExhausted { flips });
                self.health.insert(
                    addr,
                    LineHealth {
                        written_tick: tick,
                        flips,
                    },
                );
                return WriteOutcome {
                    retries: attempt,
                    exhausted: true,
                };
            }
            attempt += 1;
            self.stats.summary.write_retries += 1;
        }
    }

    /// Applies retention decay to a line's health at `tick`. One draw
    /// against the Poisson tail probabilities for ≥1 and ≥2 new flips in
    /// the elapsed age; the age is then re-based so decay is sampled
    /// per-interval, never double-counted.
    fn apply_decay(&mut self, addr: u64, tick: u64) {
        let rate = self.cfg.retention_flip_rate;
        if rate <= 0.0 {
            return;
        }
        let entry = self.health.entry(addr).or_insert(LineHealth {
            written_tick: tick,
            flips: 0,
        });
        if tick <= entry.written_tick {
            return;
        }
        let age = (tick - entry.written_tick) as f64;
        let lambda = rate * f64::from(self.line_bits) * age;
        entry.written_tick = tick;
        if lambda <= 0.0 {
            return;
        }
        // P[N ≥ 1] = 1 − e^{−λ}; P[N ≥ 2] = 1 − e^{−λ}(1 + λ).
        let p_ge1 = -(-lambda).exp_m1();
        let p_ge2 = 1.0 - (-lambda).exp() * (1.0 + lambda);
        let u = unit_f64(combine(&[self.key, DOMAIN_RETENTION, addr, tick]));
        let added: u8 = if u < p_ge2 {
            2
        } else if u < p_ge1 {
            1
        } else {
            0
        };
        if added > 0 {
            let entry = self.health.entry(addr).or_insert(LineHealth {
                written_tick: tick,
                flips: 0,
            });
            entry.flips = entry.flips.saturating_add(added);
            self.stats.summary.retention_flips += u64::from(added);
            self.stats
                .record(tick, addr, FaultEventKind::RetentionFlip { flips: added });
        }
    }

    /// A read hits `addr` at `tick`: age the line, then run the ECC
    /// decision table over its accumulated flips.
    pub fn on_read(&mut self, addr: u64, tick: u64) -> ReadOutcome {
        if !self.cfg.cell_faults_enabled() {
            return ReadOutcome::Clean;
        }
        self.apply_decay(addr, tick);
        let flips = self.health.get(&addr).map_or(0, |h| h.flips);
        match (self.cfg.ecc, flips) {
            (_, 0) => ReadOutcome::Clean,
            (true, 1) => {
                if let Some(h) = self.health.get_mut(&addr) {
                    h.flips = 0;
                    h.written_tick = tick;
                }
                self.stats.summary.ecc_corrected += 1;
                self.stats.record(tick, addr, FaultEventKind::EccCorrected);
                ReadOutcome::Corrected
            }
            (true, _) => {
                self.health.remove(&addr);
                self.stats.summary.ecc_detected += 1;
                self.stats.record(tick, addr, FaultEventKind::EccDetected);
                ReadOutcome::Refetch
            }
            (false, _) => {
                // No ECC: the corrupted value is consumed. Count the
                // escape once, then clear the flip counter so one bad
                // line is not recounted on every subsequent read.
                if let Some(h) = self.health.get_mut(&addr) {
                    h.flips = 0;
                }
                self.stats.summary.uncorrected_escapes += 1;
                self.stats
                    .record(tick, addr, FaultEventKind::UncorrectedEscape);
                ReadOutcome::Escape
            }
        }
    }

    /// Scrubs one resident line at an epoch boundary. `dirty` is whether
    /// the array holds the line in a dirty state (a dropped dirty line
    /// is detected data loss — recorded in the trace, not counted as a
    /// silent escape).
    pub fn scrub_line(&mut self, addr: u64, dirty: bool, tick: u64) -> ScrubAction {
        self.apply_decay(addr, tick);
        self.stats.summary.scrubbed_lines += 1;
        let flips = self.health.get(&addr).map_or(0, |h| h.flips);
        if flips == 0 {
            return ScrubAction::Refreshed;
        }
        if !self.cfg.ecc {
            // Without ECC the scrubber cannot see flips; refresh only.
            return ScrubAction::Refreshed;
        }
        if flips == 1 {
            if let Some(h) = self.health.get_mut(&addr) {
                h.flips = 0;
                h.written_tick = tick;
            }
            self.stats.summary.ecc_corrected += 1;
            self.stats.summary.scrub_rewrites += 1;
            self.stats.record(tick, addr, FaultEventKind::ScrubRewrite);
            return ScrubAction::Rewritten;
        }
        self.health.remove(&addr);
        self.stats.summary.ecc_detected += 1;
        self.stats
            .record(tick, addr, FaultEventKind::ScrubDrop { dirty });
        ScrubAction::Dropped { dirty }
    }

    /// The line left the array (eviction / invalidation): forget its
    /// health.
    pub fn on_invalidate(&mut self, addr: u64) {
        self.health.remove(&addr);
    }

    /// Clears measured counters and the trace; line health (physical
    /// state) persists across measurement resets.
    pub fn reset_measurements(&mut self) {
        self.stats.reset();
    }

    /// Number of lines currently tracked (test hook).
    pub fn tracked_lines(&self) -> usize {
        self.health.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(ber: f64, budget: u32) -> FaultConfig {
        let mut c = FaultConfig::off();
        c.write_ber = ber;
        c.retry_budget = budget;
        c.ecc = true;
        c
    }

    #[test]
    fn zero_ber_never_faults() {
        let mut a = ArrayFaults::new(FaultConfig::off(), 42, 0, 256);
        for addr in (0..4096u64).step_by(32) {
            let o = a.on_write(addr, addr);
            assert_eq!(
                o,
                WriteOutcome {
                    retries: 0,
                    exhausted: false
                }
            );
            assert_eq!(a.on_read(addr, addr + 100), ReadOutcome::Clean);
        }
        assert_eq!(a.stats.summary.total_injected(), 0);
        assert_eq!(a.tracked_lines(), 0);
    }

    #[test]
    fn writes_are_deterministic_in_coordinates() {
        let mut a = ArrayFaults::new(cfg(1e-3, 4), 7, 0, 256);
        let mut b = ArrayFaults::new(cfg(1e-3, 4), 7, 0, 256);
        for i in 0..2_000u64 {
            assert_eq!(a.on_write(i * 32, i), b.on_write(i * 32, i));
        }
        assert_eq!(a.stats, b.stats);
        // A different fault seed diverges.
        let mut c_cfg = cfg(1e-3, 4);
        c_cfg.seed = 99;
        let mut c = ArrayFaults::new(c_cfg, 7, 0, 256);
        for i in 0..2_000u64 {
            c.on_write(i * 32, i);
        }
        assert_ne!(a.stats.summary, c.stats.summary);
    }

    #[test]
    fn a_write_that_never_verifies_retries_exactly_the_budget() {
        // A per-bit BER of 1 fails every attempt, so the budget decision
        // alone ends the loop.
        for budget in [0u32, 1, 3] {
            let mut a = ArrayFaults::new(cfg(1.0, budget), 5, 0, 256);
            assert_eq!(
                a.on_write(0x40, 9),
                WriteOutcome {
                    retries: budget,
                    exhausted: true
                },
                "budget {budget}"
            );
            assert_eq!(a.stats.summary.write_retries, u64::from(budget));
            assert_eq!(a.stats.summary.write_faults, u64::from(budget) + 1);
            assert!(retries_exhausted(budget, budget));
        }
        assert!(!retries_exhausted(2, 3));
    }

    #[test]
    fn exhausted_write_leaves_flips_then_ecc_recovers() {
        // BER high enough that exhaustion happens quickly.
        let mut a = ArrayFaults::new(cfg(0.5, 1), 1, 0, 256);
        let mut exhausted_addr = None;
        for i in 0..512u64 {
            let o = a.on_write(i * 32, i);
            assert!(o.retries <= 1);
            if o.exhausted {
                exhausted_addr = Some(i * 32);
                break;
            }
        }
        let addr = exhausted_addr.expect("0.5 per-bit BER must exhaust a 1-retry budget fast");
        // The next read either corrects (1 flip) or refetches (2 flips).
        let r = a.on_read(addr, 10_000);
        assert!(matches!(r, ReadOutcome::Corrected | ReadOutcome::Refetch));
        assert_eq!(a.stats.summary.uncorrected_escapes, 0);
    }

    #[test]
    fn retention_decay_flips_and_scrub_repairs() {
        let mut c = FaultConfig::off();
        c.retention_flip_rate = 1e-4; // extreme, to force flips fast
        c.ecc = true;
        c.scrub = true;
        let mut a = ArrayFaults::new(c, 3, 0, 256);
        a.on_write(64, 0);
        // Age the line a long time, then read: decay must have fired.
        let r = a.on_read(64, 1_000_000);
        assert!(matches!(r, ReadOutcome::Corrected | ReadOutcome::Refetch));
        assert!(a.stats.summary.retention_flips > 0);
        // Scrubbing a clean line refreshes it.
        a.on_write(128, 1_000_000);
        assert_eq!(a.scrub_line(128, false, 1_000_001), ScrubAction::Refreshed);
        assert!(a.stats.summary.scrubbed_lines > 0);
    }

    #[test]
    fn without_ecc_corruption_escapes() {
        let mut c = FaultConfig::off();
        c.write_ber = 0.5;
        c.retry_budget = 1;
        c.ecc = false;
        let mut a = ArrayFaults::new(c, 11, 0, 256);
        for i in 0..512u64 {
            if a.on_write(i * 32, i).exhausted {
                assert_eq!(a.on_read(i * 32, i + 1), ReadOutcome::Escape);
                assert!(a.stats.summary.uncorrected_escapes > 0);
                return;
            }
        }
        panic!("expected an exhausted write at BER 0.5");
    }

    #[test]
    fn invalidate_forgets_health() {
        let mut c = cfg(0.5, 1);
        c.retention_flip_rate = 1e-9;
        let mut a = ArrayFaults::new(c, 5, 0, 256);
        a.on_write(96, 1);
        assert!(a.tracked_lines() > 0);
        a.on_invalidate(96);
        assert_eq!(a.tracked_lines(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Retry count never exceeds the configured budget, for arbitrary
        /// BER, budget, and write coordinates.
        #[test]
        fn retries_never_exceed_budget(
            ber_mill in 0u64..1000,
            budget in 1u32..8,
            writes in proptest::collection::vec((0u64..1u64 << 20, 0u64..1u64 << 24), 1..64),
        ) {
            let mut c = FaultConfig::off();
            c.write_ber = ber_mill as f64 / 1000.0;
            c.retry_budget = budget;
            let mut a = ArrayFaults::new(c, 17, 0, 256);
            for (addr, tick) in writes {
                let o = a.on_write(addr & !31, tick);
                prop_assert!(o.retries <= budget, "retries {} > budget {budget}", o.retries);
                if o.exhausted {
                    prop_assert!(o.retries == budget);
                }
            }
        }
    }
}
