//! The trace event taxonomy.
//!
//! Two families share one envelope:
//!
//! * **Epoch series** — sampled once per consolidation epoch, carrying an
//!   `epoch` index: [`TraceKind::ClusterEpoch`], [`TraceKind::CacheEpoch`],
//!   [`TraceKind::ChipEpoch`], [`TraceKind::FaultEpoch`],
//!   [`TraceKind::VcmDecision`]. These are the ring-buffered time-series
//!   behind the paper's figures (EPI, half-miss rate, occupancy, miss
//!   rates, fault counters).
//! * **Discrete events** — fired at the tick they happen:
//!   [`TraceKind::Consolidation`] (power-off/on), [`TraceKind::Migration`],
//!   [`TraceKind::CoreFault`], [`TraceKind::Decommission`],
//!   [`TraceKind::FaultCell`] (SECDED corrections and friends, forwarded
//!   from the bounded fault trace), and [`TraceKind::RunStart`] markers.

use serde::{Deserialize, Serialize};

/// Clamps a ratio to a JSON-representable value.
///
/// JSON has no `inf`/`NaN` literal, so undefined ratios — the EPI of an
/// epoch that retired nothing, for instance — are recorded as `0.0` by
/// convention. Emitters must pass every potentially-undefined `f64`
/// through this so a serialised trace roundtrips losslessly.
#[must_use]
pub fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Run id stamped by the collection layer (0 when a single run is
    /// traced directly).
    pub run: u32,
    /// Cache tick the event refers to (epoch-end tick for epoch series).
    pub tick: u64,
    /// Payload.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Builds an event for a directly-traced run (run id 0).
    pub fn at(tick: u64, kind: TraceKind) -> Self {
        Self { run: 0, tick, kind }
    }

    /// The epoch index, for epoch-series records.
    pub fn epoch(&self) -> Option<u64> {
        match &self.kind {
            TraceKind::ClusterEpoch { epoch, .. }
            | TraceKind::CacheEpoch { epoch, .. }
            | TraceKind::ChipEpoch { epoch, .. }
            | TraceKind::FaultEpoch { epoch, .. }
            | TraceKind::VcmDecision { epoch, .. } => Some(*epoch),
            _ => None,
        }
    }

    /// Short stable name of the payload variant (Chrome-trace event name,
    /// grep target in smoke gates).
    pub fn name(&self) -> &'static str {
        match &self.kind {
            TraceKind::RunStart { .. } => "RunStart",
            TraceKind::ClusterEpoch { .. } => "ClusterEpoch",
            TraceKind::CacheEpoch { .. } => "CacheEpoch",
            TraceKind::ChipEpoch { .. } => "ChipEpoch",
            TraceKind::FaultEpoch { .. } => "FaultEpoch",
            TraceKind::VcmDecision { .. } => "VcmDecision",
            TraceKind::Consolidation { .. } => "Consolidation",
            TraceKind::Migration { .. } => "Migration",
            TraceKind::CoreFault { .. } => "CoreFault",
            TraceKind::Decommission { .. } => "Decommission",
            TraceKind::FaultCell { .. } => "FaultCell",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A (de-duplicated) simulation actually started executing. The
    /// experiment cache emits exactly one per underlying run, so the
    /// count of these is the count of simulations paid for.
    RunStart {
        /// The canonical serialised `RunOptions` cache key.
        options: String,
    },
    /// Per-cluster consolidation-epoch sample.
    ClusterEpoch {
        /// Cluster index.
        cluster: usize,
        /// Epoch index since the last measurement reset.
        epoch: u64,
        /// Instructions retired by the cluster during the epoch.
        instructions: u64,
        /// Cluster-local energy spent during the epoch, pJ.
        energy_pj: f64,
        /// Energy per instruction, pJ (`0.0` when nothing retired — see
        /// [`finite_or_zero`]).
        epi_pj: f64,
        /// Active physical cores at epoch end.
        active_cores: usize,
        /// Cores not decommissioned by fault injection.
        healthy_cores: usize,
        /// Per-core effective frequency, MHz (0 for gated/faulty cores).
        core_freq_mhz: Vec<f64>,
    },
    /// Per-cluster shared-L1 + L2 behaviour over one epoch (deltas).
    CacheEpoch {
        /// Cluster index.
        cluster: usize,
        /// Epoch index.
        epoch: u64,
        /// Read requests this epoch.
        reads: u64,
        /// Read misses forwarded down the hierarchy.
        read_misses: u64,
        /// Half-miss responses (§II-A transient arbiter contention).
        half_misses: u64,
        /// Write-port operations (stores + fills).
        writes: u64,
        /// `half_misses / reads` for the epoch.
        half_miss_rate: f64,
        /// Mean requests arriving per cache cycle at the arbiter (from
        /// the Figure 10 arrival histogram; the 4+ bin counts as 4).
        arbiter_occupancy: f64,
        /// L2 miss rate over the epoch.
        l2_miss_rate: f64,
    },
    /// Chip-wide epoch sample.
    ChipEpoch {
        /// Epoch index.
        epoch: u64,
        /// Instructions retired chip-wide during the epoch.
        instructions: u64,
        /// Chip energy spent during the epoch, pJ (cluster-local books).
        energy_pj: f64,
        /// Chip-wide energy per instruction, pJ (`0.0` when nothing
        /// retired — see [`finite_or_zero`]).
        epi_pj: f64,
        /// L3 miss rate over the epoch.
        l3_miss_rate: f64,
        /// Total active cores at epoch end.
        active_cores: usize,
    },
    /// Fault/recovery counters accumulated during one epoch (deltas;
    /// emitted only while fault injection or scrubbing is configured).
    FaultEpoch {
        /// Epoch index.
        epoch: u64,
        /// STT-RAM write attempts that failed verification.
        write_faults: u64,
        /// Extra write attempts issued by write-verify-retry.
        write_retries: u64,
        /// Bit flips from retention decay.
        retention_flips: u64,
        /// Single-bit errors corrected by SECDED.
        ecc_corrected: u64,
        /// Double-bit errors detected by SECDED.
        ecc_detected: u64,
        /// Corrupted reads consumed undetected.
        uncorrected_escapes: u64,
        /// Lines visited by epoch-boundary scrubbing.
        scrubbed_lines: u64,
        /// Scrub visits that rewrote an ECC-corrected line.
        scrub_rewrites: u64,
        /// Recovery energy spent this epoch, pJ.
        recovery_energy_pj: f64,
    },
    /// A consolidation policy observed the epoch's EPI and asked for a
    /// different core count (the VCM's Figure 5 decision input).
    VcmDecision {
        /// Cluster index.
        cluster: usize,
        /// Epoch index.
        epoch: u64,
        /// Chip-wide EPI the decision was based on, pJ (`0.0` when
        /// undefined — see [`finite_or_zero`]).
        epi_pj: f64,
        /// Relative EPI change vs the previous epoch (`null` on the
        /// first usable epoch).
        epi_delta: Option<f64>,
        /// Active cores before the decision.
        current: usize,
        /// Requested active cores.
        target: usize,
    },
    /// Consolidation changed a cluster's active-core count (power-off
    /// when `to < from`, power-on when `to > from`).
    Consolidation {
        /// Cluster index.
        cluster: usize,
        /// Active cores before.
        from: usize,
        /// Active cores after.
        to: usize,
        /// Total active cores chip-wide after the change.
        total_active: usize,
    },
    /// A virtual core was migrated onto a new host core.
    Migration {
        /// Cluster index.
        cluster: usize,
        /// Cluster-local virtual-core id.
        vcore: usize,
        /// Destination physical core.
        to_core: usize,
    },
    /// A transient core fault was injected.
    CoreFault {
        /// Cluster index.
        cluster: usize,
        /// Core index within the cluster.
        core: usize,
        /// Faults observed on this core so far (including this one).
        fault_count: u32,
    },
    /// A core crossed the fault threshold and was decommissioned.
    Decommission {
        /// Cluster index.
        cluster: usize,
        /// Core index within the cluster.
        core: usize,
    },
    /// A cell-level fault event (SECDED correction/detection, retry,
    /// retention flip, scrub action) forwarded from the bounded
    /// per-array fault trace.
    FaultCell {
        /// Cluster whose shared-L1 array fired the event.
        cluster: usize,
        /// Stable kind label (e.g. `EccCorrected`, `WriteRetried`).
        kind: String,
        /// Block address involved (0 for core-level events).
        addr: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_extraction() {
        let e = TraceEvent::at(
            10,
            TraceKind::ChipEpoch {
                epoch: 3,
                instructions: 100,
                energy_pj: 1.0,
                epi_pj: 0.01,
                l3_miss_rate: 0.5,
                active_cores: 8,
            },
        );
        assert_eq!(e.epoch(), Some(3));
        assert_eq!(e.name(), "ChipEpoch");
        let d = TraceEvent::at(
            7,
            TraceKind::Decommission {
                cluster: 1,
                core: 2,
            },
        );
        assert_eq!(d.epoch(), None);
        assert_eq!(d.name(), "Decommission");
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            TraceEvent::at(
                0,
                TraceKind::RunStart {
                    options: "{\"arch\":\"ShStt\"}".into(),
                },
            ),
            TraceEvent::at(
                5,
                TraceKind::CacheEpoch {
                    cluster: 0,
                    epoch: 1,
                    reads: 10,
                    read_misses: 2,
                    half_misses: 1,
                    writes: 4,
                    half_miss_rate: 0.1,
                    arbiter_occupancy: 0.8,
                    l2_miss_rate: 0.25,
                },
            ),
            TraceEvent::at(
                9,
                TraceKind::VcmDecision {
                    cluster: 1,
                    epoch: 2,
                    epi_pj: 42.0,
                    epi_delta: Some(-0.05),
                    current: 4,
                    target: 3,
                },
            ),
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn finite_or_zero_replaces_only_non_finite_values() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(finite_or_zero(v), 0.0);
        }
        for v in [0.0, -1.5, 42.0, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(finite_or_zero(v), v);
        }
    }

    #[test]
    fn epoch_series_carry_an_epoch_and_discrete_events_do_not() {
        let series = [
            TraceKind::ClusterEpoch {
                cluster: 0,
                epoch: 4,
                instructions: 0,
                energy_pj: 0.0,
                epi_pj: 0.0,
                active_cores: 0,
                healthy_cores: 0,
                core_freq_mhz: Vec::new(),
            },
            TraceKind::CacheEpoch {
                cluster: 0,
                epoch: 4,
                reads: 0,
                read_misses: 0,
                half_misses: 0,
                writes: 0,
                half_miss_rate: 0.0,
                arbiter_occupancy: 0.0,
                l2_miss_rate: 0.0,
            },
            TraceKind::FaultEpoch {
                epoch: 4,
                write_faults: 0,
                write_retries: 0,
                retention_flips: 0,
                ecc_corrected: 0,
                ecc_detected: 0,
                uncorrected_escapes: 0,
                scrubbed_lines: 0,
                scrub_rewrites: 0,
                recovery_energy_pj: 0.0,
            },
            TraceKind::VcmDecision {
                cluster: 0,
                epoch: 4,
                epi_pj: 0.0,
                epi_delta: None,
                current: 1,
                target: 1,
            },
        ];
        for kind in series {
            assert_eq!(TraceEvent::at(9, kind).epoch(), Some(4));
        }
        let discrete = [
            TraceKind::RunStart {
                options: String::new(),
            },
            TraceKind::Consolidation {
                cluster: 0,
                from: 2,
                to: 1,
                total_active: 1,
            },
            TraceKind::Migration {
                cluster: 0,
                vcore: 0,
                to_core: 1,
            },
            TraceKind::CoreFault {
                cluster: 0,
                core: 0,
                fault_count: 1,
            },
            TraceKind::FaultCell {
                cluster: 0,
                kind: "EccCorrected".into(),
                addr: 64,
            },
        ];
        for kind in discrete {
            let e = TraceEvent::at(9, kind);
            assert_eq!(e.epoch(), None, "{}", e.name());
        }
    }

    #[test]
    fn run_stamp_survives_the_json_roundtrip() {
        let mut e = TraceEvent::at(
            u64::MAX,
            TraceKind::Migration {
                cluster: 3,
                vcore: 5,
                to_core: 1,
            },
        );
        e.run = u32::MAX;
        let back: TraceEvent = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.name(), "Migration");
    }
}
