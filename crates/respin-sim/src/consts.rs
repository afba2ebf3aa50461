//! Timing and cost constants of the simulated machine.
//!
//! Everything here is a *documented modelling choice*; the paper either
//! states the value (level-shifter delay, wake stall, consolidation
//! interval) or the value is a conventional figure from the architecture
//! literature. All times are in ticks (0.4 ns cache cycles) unless the name
//! says core cycles.

/// The cache reference clock period: 0.4 ns = 2.5 GHz (§II).
pub const CACHE_PERIOD_PS: f64 = 400.0;

/// Ticks a request spends in level shifters + wires from core to shared
/// cache (§II-A: "2 fast cache cycles (0.8 ns)").
pub const DELIVERY_TICKS: u64 = 2;

/// Store-buffer depth per physical core. Stores retire into the buffer and
/// drain in the background; the core stalls only when it is full.
pub const STORE_BUFFER_DEPTH: usize = 8;

/// Branch-mispredict flush penalty in core cycles (shallow dual-issue
/// pipeline at near-threshold frequencies).
pub const MISPREDICT_PENALTY_CORE_CYCLES: u64 = 6;

/// Minimum interval between L2 accepts (pipelined array), ticks.
pub const L2_ACCEPT_INTERVAL_TICKS: u64 = 2;
/// Minimum interval between L3 accepts, ticks.
pub const L3_ACCEPT_INTERVAL_TICKS: u64 = 4;

/// Remote L2 tag lookup during a cluster-to-cluster transfer, ticks
/// (the mesh traversal itself is modelled by `respin-noc`).
pub const REMOTE_LOOKUP_TICKS: u64 = 6;

/// Main-memory access latency, ticks (100 ns).
pub const MEM_LATENCY_TICKS: u64 = 250;
/// Off-chip access energy (row + I/O), pJ. Tracked separately from chip
/// energy — the paper's power/energy figures are CMP-only.
pub const MEM_ACCESS_ENERGY_PJ: f64 = 200.0;

// --- Coherence costs (private-cache configurations) -----------------------

/// Latency added to a write that must invalidate intra-cluster sharers.
pub const INTRA_INVALIDATE_TICKS: u64 = 8;
/// Latency of fetching a line owned Modified by a sibling L1.
pub const INTRA_REMOTE_FETCH_TICKS: u64 = 12;
/// Latency added for inter-cluster invalidations (via the L3 directory).
pub const INTER_INVALIDATE_TICKS: u64 = 24;
/// Latency of fetching a line owned Modified by a remote cluster's L2.
pub const INTER_REMOTE_FETCH_TICKS: u64 = 30;
/// Energy per intra-cluster coherence message, pJ.
pub const INTRA_COHERENCE_MSG_PJ: f64 = 1.5;
/// Energy per inter-cluster coherence message, pJ.
pub const INTER_COHERENCE_MSG_PJ: f64 = 4.0;

// --- Consolidation machinery (§III) ---------------------------------------

/// Hardware context-switch cost, core cycles. The §III mechanism keeps the
/// stacked virtual cores' register state in banks on the hosting core, so
/// a switch is a bank select plus a short pipeline refill — a few cycles,
/// like fine-grained multithreading. (Losing state to *migration* across
/// cores is the expensive case, charged separately below.)
pub const HW_CTX_SWITCH_CORE_CYCLES: u64 = 4;
/// Hardware time-slice when several virtual cores share a physical core,
/// core cycles.
pub const HW_SLICE_CORE_CYCLES: u64 = 1_000;
/// OS context-switch cost, core cycles (≈ 5 µs at 500 MHz).
pub const OS_CTX_SWITCH_CORE_CYCLES: u64 = 2_500;
/// OS scheduling quantum, core cycles. The paper's OS interval is 1 ms
/// (500 000 cycles at 500 MHz); our synthetic runs are ~100× shorter than
/// the reference-input benchmarks, so the quantum is scaled to 0.1 ms to
/// keep OS switching ~50× coarser than the hardware mechanism while still
/// letting it occur within a run.
pub const OS_SLICE_CORE_CYCLES: u64 = 50_000;

/// Stall after power-gating wake-up for voltage stabilisation, core cycles
/// (§III-D: "10–30 ns or 5–15 cycles for a core running at 500 MHz").
pub const POWER_ON_STALL_CORE_CYCLES: u64 = 15;
/// In-flight drain before a migration, core cycles.
pub const MIGRATION_DRAIN_CORE_CYCLES: u64 = 20;
/// Register file + PC transfer to the target core, core cycles.
pub const MIGRATION_TRANSFER_CORE_CYCLES: u64 = 50;
/// Warm-up penalty after migration for lost predictor/pipeline state, core
/// cycles (§III-D: "tens of cycles to rebuild those states").
pub const MIGRATION_COLD_STATE_CORE_CYCLES: u64 = 40;

/// The paper's consolidation interval: 160 K instructions (per cluster).
pub const EPOCH_INSTRUCTIONS: u64 = 160_000;

/// Recovery stall after a transient core fault, core cycles: pipeline
/// flush plus architectural-state repair from the checkpoint, an order of
/// magnitude above a mispredict but far below a migration round-trip.
pub const CORE_FAULT_RECOVERY_CORE_CYCLES: u64 = 100;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_matches_level_shifter_model() {
        let ls = respin_power::LevelShifter::default();
        assert_eq!(
            ls.delivery_cache_cycles(50.0, CACHE_PERIOD_PS) as u64,
            DELIVERY_TICKS
        );
    }

    #[test]
    fn os_quantum_much_coarser_than_hw_slice() {
        let (os, hw) = (OS_SLICE_CORE_CYCLES, HW_SLICE_CORE_CYCLES);
        assert!(os >= 50 * hw, "os {os} vs hw {hw}");
    }

    #[test]
    fn delivery_is_the_papers_0_8_ns() {
        assert_eq!(DELIVERY_TICKS as f64 * CACHE_PERIOD_PS, 800.0);
    }

    #[test]
    fn main_memory_is_100_ns_away() {
        assert_eq!(MEM_LATENCY_TICKS as f64 * CACHE_PERIOD_PS, 100_000.0);
    }

    #[test]
    fn consolidation_costs_are_ordered() {
        // A hardware switch is a bank select; a migration loses state
        // and an OS switch is the most expensive of all.
        let migration = MIGRATION_DRAIN_CORE_CYCLES
            + MIGRATION_TRANSFER_CORE_CYCLES
            + MIGRATION_COLD_STATE_CORE_CYCLES;
        let cheaper_first = [
            (HW_CTX_SWITCH_CORE_CYCLES, MISPREDICT_PENALTY_CORE_CYCLES),
            (CORE_FAULT_RECOVERY_CORE_CYCLES, migration),
            (migration, OS_CTX_SWITCH_CORE_CYCLES),
            // Remote (inter-cluster) coherence costs more than local.
            (INTRA_INVALIDATE_TICKS, INTER_INVALIDATE_TICKS),
            (INTRA_REMOTE_FETCH_TICKS, INTER_REMOTE_FETCH_TICKS),
        ];
        for (cheap, dear) in cheaper_first {
            assert!(cheap < dear, "{cheap} vs {dear}");
        }
        let (intra, inter) = (INTRA_COHERENCE_MSG_PJ, INTER_COHERENCE_MSG_PJ);
        assert!(intra < inter, "{intra} vs {inter}");
    }
}
