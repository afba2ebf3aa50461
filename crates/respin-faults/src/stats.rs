//! Fault-event accounting: counters and a bounded event trace, merged up
//! through `respin-sim`'s `ChipStats`.

use serde::{Deserialize, Serialize};

/// Maximum events kept per trace. Sweeps with high BER generate millions
/// of events; the counters carry the aggregate, the trace carries the
/// first [`TRACE_CAP`] for debugging and determinism tests.
pub const TRACE_CAP: usize = 256;

/// Aggregate fault / recovery counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// STT-RAM write attempts that failed verification.
    pub write_faults: u64,
    /// Extra write attempts issued by write-verify-retry.
    pub write_retries: u64,
    /// Writes that exhausted the retry budget and left a corrupted line.
    pub retry_exhausted: u64,
    /// Bit flips accumulated from retention decay.
    pub retention_flips: u64,
    /// Single-bit errors corrected by SECDED.
    pub ecc_corrected: u64,
    /// Double-bit errors detected by SECDED (line dropped + refetched).
    pub ecc_detected: u64,
    /// Corrupted reads that escaped detection (no ECC, or >2 flips
    /// counted as an undetected pattern). Zero in any ECC+retry config
    /// the resilience smoke test accepts.
    pub uncorrected_escapes: u64,
    /// Lines visited by epoch-boundary scrubbing.
    pub scrubbed_lines: u64,
    /// Scrub visits that rewrote an ECC-corrected line.
    pub scrub_rewrites: u64,
    /// Transient core faults injected.
    pub core_faults: u64,
    /// Cores decommissioned after crossing the fault threshold.
    pub cores_decommissioned: u64,
    /// Extra dynamic energy spent on recovery (retries, ECC rewrites,
    /// scrub traffic), in pJ. Also folded into the cache dynamic energy
    /// so chip totals stay consistent.
    pub recovery_energy_pj: f64,
}

impl FaultSummary {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.write_faults += other.write_faults;
        self.write_retries += other.write_retries;
        self.retry_exhausted += other.retry_exhausted;
        self.retention_flips += other.retention_flips;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_detected += other.ecc_detected;
        self.uncorrected_escapes += other.uncorrected_escapes;
        self.scrubbed_lines += other.scrubbed_lines;
        self.scrub_rewrites += other.scrub_rewrites;
        self.core_faults += other.core_faults;
        self.cores_decommissioned += other.cores_decommissioned;
        self.recovery_energy_pj += other.recovery_energy_pj;
    }

    /// Total faults injected across all models — the resilience smoke
    /// test asserts this is nonzero.
    pub fn total_injected(&self) -> u64 {
        self.write_faults + self.retention_flips + self.core_faults
    }

    /// Counters accumulated since `earlier` was captured — `earlier`
    /// must be a previous snapshot of this same monotonically-growing
    /// summary (e.g. an epoch-start copy for per-epoch tracing).
    pub fn delta_since(&self, earlier: &FaultSummary) -> FaultSummary {
        FaultSummary {
            write_faults: self.write_faults - earlier.write_faults,
            write_retries: self.write_retries - earlier.write_retries,
            retry_exhausted: self.retry_exhausted - earlier.retry_exhausted,
            retention_flips: self.retention_flips - earlier.retention_flips,
            ecc_corrected: self.ecc_corrected - earlier.ecc_corrected,
            ecc_detected: self.ecc_detected - earlier.ecc_detected,
            uncorrected_escapes: self.uncorrected_escapes - earlier.uncorrected_escapes,
            scrubbed_lines: self.scrubbed_lines - earlier.scrubbed_lines,
            scrub_rewrites: self.scrub_rewrites - earlier.scrub_rewrites,
            core_faults: self.core_faults - earlier.core_faults,
            cores_decommissioned: self.cores_decommissioned - earlier.cores_decommissioned,
            recovery_energy_pj: self.recovery_energy_pj - earlier.recovery_energy_pj,
        }
    }
}

/// What happened in one traced fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEventKind {
    /// A write needed `retries` extra attempts before sticking.
    WriteRetried {
        /// Extra attempts beyond the initial write.
        retries: u32,
    },
    /// A write exhausted its retry budget; the line is corrupted.
    RetryExhausted {
        /// Residual flips left in the line (1 or 2).
        flips: u8,
    },
    /// Retention decay flipped bits in a resident line.
    RetentionFlip {
        /// Flips added by this event (1 or 2).
        flips: u8,
    },
    /// SECDED corrected a single-bit error on read.
    EccCorrected,
    /// SECDED detected a double-bit error; line dropped and refetched.
    EccDetected,
    /// A corrupted value was consumed undetected.
    UncorrectedEscape,
    /// Scrubbing rewrote an ECC-corrected line.
    ScrubRewrite,
    /// Scrubbing dropped a detectably-dead line.
    ScrubDrop {
        /// True when the line was dirty (modified data lost).
        dirty: bool,
    },
    /// A transient core fault was injected.
    CoreFault {
        /// Cluster index.
        cluster: usize,
        /// Core index within the cluster.
        core: usize,
    },
    /// A core crossed the fault threshold and was decommissioned.
    CoreDecommissioned {
        /// Cluster index.
        cluster: usize,
        /// Core index within the cluster.
        core: usize,
    },
}

/// One traced fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cache tick at which the event fired.
    pub tick: u64,
    /// Block address involved (0 for core-level events).
    pub addr: u64,
    /// Event payload.
    pub kind: FaultEventKind,
}

/// Counters plus the bounded event trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FaultStats {
    /// Aggregate counters.
    pub summary: FaultSummary,
    /// First [`TRACE_CAP`] events, in injection order.
    pub trace: Vec<FaultEvent>,
}

impl FaultStats {
    /// Appends an event, respecting the trace cap (counters in
    /// [`FaultSummary`] are updated by the callers and never capped).
    pub fn record(&mut self, tick: u64, addr: u64, kind: FaultEventKind) {
        if self.trace.len() < TRACE_CAP {
            self.trace.push(FaultEvent { tick, addr, kind });
        }
    }

    /// Accumulates counters and appends the other trace up to the cap.
    pub fn merge(&mut self, other: &FaultStats) {
        self.summary.merge(&other.summary);
        let room = TRACE_CAP.saturating_sub(self.trace.len());
        self.trace.extend(other.trace.iter().take(room).copied());
    }

    /// Clears measured counters and the trace. Persistent fault *state*
    /// (line health, core fault counters) lives elsewhere and survives.
    pub fn reset(&mut self) {
        self.summary = FaultSummary::default();
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_capped() {
        let mut s = FaultStats::default();
        for t in 0..2 * TRACE_CAP as u64 {
            s.record(t, 0, FaultEventKind::EccCorrected);
        }
        assert_eq!(s.trace.len(), TRACE_CAP);
        assert_eq!(s.trace[0].tick, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FaultStats::default();
        a.summary.write_faults = 2;
        a.record(1, 8, FaultEventKind::WriteRetried { retries: 1 });
        let mut b = FaultStats::default();
        b.summary.write_faults = 3;
        b.summary.core_faults = 1;
        b.record(
            5,
            0,
            FaultEventKind::CoreFault {
                cluster: 0,
                core: 2,
            },
        );
        a.merge(&b);
        assert_eq!(a.summary.write_faults, 5);
        assert_eq!(a.summary.total_injected(), 6);
        assert_eq!(a.trace.len(), 2);
    }

    #[test]
    fn delta_subtracts_snapshots() {
        let start = FaultSummary {
            write_faults: 2,
            ecc_corrected: 1,
            recovery_energy_pj: 10.0,
            ..FaultSummary::default()
        };
        let mut end = start;
        end.write_faults = 5;
        end.ecc_corrected = 4;
        end.scrubbed_lines = 7;
        end.recovery_energy_pj = 25.0;
        let d = end.delta_since(&start);
        assert_eq!(d.write_faults, 3);
        assert_eq!(d.ecc_corrected, 3);
        assert_eq!(d.scrubbed_lines, 7);
        assert!((d.recovery_energy_pj - 15.0).abs() < 1e-12);
        assert_eq!(end.delta_since(&end), FaultSummary::default());
    }

    #[test]
    fn reset_clears() {
        let mut s = FaultStats::default();
        s.summary.retention_flips = 7;
        s.record(0, 0, FaultEventKind::EccDetected);
        s.reset();
        assert_eq!(s, FaultStats::default());
    }

    #[test]
    fn merge_fills_the_trace_only_up_to_the_cap() {
        let mut a = FaultStats::default();
        for t in 0..(TRACE_CAP as u64 - 2) {
            a.record(t, 0, FaultEventKind::EccCorrected);
        }
        let mut b = FaultStats::default();
        for t in 0..5u64 {
            b.record(1_000 + t, 0, FaultEventKind::EccDetected);
        }
        b.summary.ecc_detected = 5;
        a.merge(&b);
        assert_eq!(a.trace.len(), TRACE_CAP);
        // The two that fit are b's first two, in order; counters are
        // never capped.
        assert_eq!(a.trace[TRACE_CAP - 2].tick, 1_000);
        assert_eq!(a.trace[TRACE_CAP - 1].tick, 1_001);
        assert_eq!(a.summary.ecc_detected, 5);
    }

    #[test]
    fn total_injected_counts_only_the_fault_models() {
        let s = FaultSummary {
            write_faults: 1,
            retention_flips: 10,
            core_faults: 100,
            write_retries: 1_000,
            ecc_corrected: 1_000,
            ecc_detected: 1_000,
            scrubbed_lines: 1_000,
            cores_decommissioned: 1_000,
            ..FaultSummary::default()
        };
        assert_eq!(s.total_injected(), 111);
    }

    #[test]
    fn summary_merge_adds_every_counter() {
        let one = FaultSummary {
            write_faults: 1,
            write_retries: 2,
            retry_exhausted: 3,
            retention_flips: 4,
            ecc_corrected: 5,
            ecc_detected: 6,
            uncorrected_escapes: 7,
            scrubbed_lines: 8,
            scrub_rewrites: 9,
            core_faults: 10,
            cores_decommissioned: 11,
            recovery_energy_pj: 12.5,
        };
        let mut sum = one;
        sum.merge(&one);
        // Doubling then taking the delta against the original gives the
        // original back field by field.
        assert_eq!(sum.delta_since(&one), one);
        assert_eq!(sum.write_faults, 2);
        assert_eq!(sum.cores_decommissioned, 22);
        assert_eq!(sum.recovery_energy_pj, 25.0);
    }
}
