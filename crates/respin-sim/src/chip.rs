//! The chip: clusters + L3 + main memory + synchronisation + the
//! consolidation machinery, advanced one cache cycle at a time.
//!
//! Tick phases (all within [`Chip::step`]):
//!
//! 1. **Shared-L1 controllers** arbitrate their ports and emit events
//!    (read done / miss, store drained / missed, writebacks) that the chip
//!    resolves against the L2/L3/memory path and the inter-cluster
//!    directory.
//! 2. **Deferred events** (store-buffer slots freeing) are applied.
//! 3. **Cores** whose cycle boundary falls on this tick execute one core
//!    cycle: context-switch decisions, then up to two issued ops (at most
//!    one memory op), with blocking loads and fire-and-forget stores.
//! 4. **Cross-cluster coherence actions** queued during the tick are
//!    applied (invalidations/downgrades of remote copies).
//!
//! The whole chip is `Clone`: the oracle consolidation policy replays
//! epochs on copies and keeps the best outcome.

use crate::cache::LineState;
use crate::cluster::{Cluster, L1System, PrivateL1};
use crate::config::{ChipConfig, CtxSwitchModel, L1Org};
use crate::consts;
use crate::core::VcState;
use crate::directory::Directory;
use crate::energy::EnergyBreakdown;
use crate::hotpath::{BarrierTable, BoundarySchedule, IdTable};
use crate::journal::{self, Journal, Journaled};
use crate::memsys::{MainMemory, MemLevel};
use crate::profile::{NoProbe, Phase, PhaseProfiler, StepProbe};
use crate::remap;
use crate::shared_l1::L1Event;
use crate::stats::{ChipStats, LevelStats, SharedL1Stats};
use respin_faults::{hash, FaultEventKind, FaultStats, FaultSummary};
use respin_noc::{mesh::Endpoint, Mesh};
use respin_power::diag::{Report, Violation};
use respin_power::{array_params, CoreEnergyModel, CoreEvent};
use respin_trace::{TraceEvent, TraceKind, Tracer};
use respin_variation::{VariationConfig, VariationMap};
use respin_workloads::{Op, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Safety valve: a single epoch may not run longer than this many ticks
/// (a stuck epoch means a simulator bug; fail loudly instead of hanging).
const MAX_EPOCH_TICKS: u64 = 200_000_000;

/// Per-instruction-class dynamic energies, precomputed at the core rail.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InstrEnergies {
    /// Decode + register file + ROB + window, charged on every instruction.
    base_pj: f64,
    int_pj: f64,
    fp_pj: f64,
    branch_pj: f64,
    /// Address generation + LSQ, charged on memory ops.
    mem_pj: f64,
    /// Front-end fetch logic, charged once per issuing core cycle.
    fetch_pj: f64,
    /// Clock tree + latches, charged every cycle the core is powered.
    clock_pj: f64,
}

/// Deferred timed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Deferred {
    /// A store completed; free one store-buffer slot of (cluster, core).
    FreeStoreSlot(usize, usize),
}

/// Cross-cluster coherence actions applied at end of tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RemoteOp {
    /// Remove the line from the cluster's caches (a remote write).
    Invalidate(usize, u64),
    /// Demote the line to Shared (a remote read of a Modified line).
    Downgrade(usize, u64),
}

/// A core-cycle synchronisation op. [`Chip::exec_core_cycle`] retires
/// and charges it where it issues, then hands it to
/// [`Chip::apply_sync_op`] for the chip-global half — barrier arrival
/// maps, lock queues, cross-cluster wakes, the issuing thread's
/// resulting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncKind {
    /// An [`Op::Barrier`] arrival.
    Barrier(u32),
    /// An [`Op::LockAcq`].
    LockAcq(u32),
    /// An [`Op::LockRel`].
    LockRel(u32),
}

#[derive(Debug, Default)]
struct LockEntry {
    holder: Option<(usize, usize)>,
    waiters: VecDeque<(usize, usize)>,
    /// Cluster that last held the lock (for the line-transfer penalty);
    /// `usize::MAX` when never held.
    last_cluster: usize,
}

clone_in_place!(LockEntry {
    holder,
    waiters,
    last_cluster,
});

/// Statistics and outcome of one consolidation epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Instructions retired per cluster during the epoch.
    pub cluster_instructions: Vec<u64>,
    /// Cluster-local energy spent during the epoch, pJ.
    pub cluster_energy_pj: Vec<f64>,
    /// Active physical cores per cluster at epoch end.
    pub active_cores: Vec<usize>,
    /// Energy per instruction per cluster (f64::INFINITY when a cluster
    /// retired nothing).
    pub cluster_epi: Vec<f64>,
    /// Whether the whole workload finished during this epoch.
    pub finished: bool,
    /// Tick at epoch start / end.
    pub start_tick: u64,
    /// Tick at epoch end.
    pub end_tick: u64,
    /// Cores per cluster not decommissioned by fault injection (the
    /// consolidation policies must not target more than this).
    pub healthy_cores: Vec<usize>,
}

/// Final outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Total ticks simulated.
    pub ticks: u64,
    /// Wall-clock time simulated, picoseconds.
    pub time_ps: f64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Detailed statistics.
    pub stats: ChipStats,
}

impl RunResult {
    /// Average CMP power over the run, mW.
    pub fn average_power_mw(&self) -> f64 {
        self.energy.average_power_mw(self.time_ps)
    }

    /// Chip energy per instruction, pJ.
    pub fn epi_pj(&self) -> f64 {
        if self.instructions == 0 {
            return f64::INFINITY;
        }
        self.energy.chip_total_pj() / self.instructions as f64
    }
}

/// The simulated chip.
#[derive(Debug)]
pub struct Chip {
    /// The configuration this chip was built from.
    pub config: ChipConfig,
    core_model: CoreEnergyModel,
    instr_e: InstrEnergies,
    /// Clusters.
    pub clusters: Vec<Cluster>,
    l3: MemLevel,
    l3_leak_mw: f64,
    /// The chip's mesh interconnect (cluster tiles around the L3).
    mesh: Mesh,
    cluster_dir: Directory,
    mem: MainMemory,
    /// Current tick.
    pub tick: u64,
    /// Tick measurement started at (0, or the end of the warm-up).
    measure_start_tick: u64,
    // Dense id-indexed tables (crate::hotpath), not BTreeMaps: sync state
    // is touched on the executed-tick hot path, the id spaces are small
    // and dense, and every observable traversal (diagnostics, tests,
    // `Debug`) is in ascending id order by construction — the same
    // canonical-order guarantee the old maps gave (determinism lint
    // D001), without the per-op tree rebalancing.
    barriers: BarrierTable,
    locks: IdTable<LockEntry>,
    /// Per-cluster boundary-core schedules (see
    /// [`crate::hotpath::BoundarySchedule`]): derived from the cores'
    /// fixed period mults, built at construction. Purely a stepping-loop
    /// accelerator — skipped cores are exactly the ones whose core cycle
    /// is a no-op.
    boundary_scheds: Vec<BoundarySchedule>,
    /// Deferred completions, popped in ascending `(tick, event)` order.
    /// Each one frees an occupied store-buffer slot, so the heap never
    /// holds more than `total_cores × STORE_BUFFER_DEPTH` entries and is
    /// created at that capacity.
    deferred: BinaryHeap<Reverse<(u64, Deferred)>>,
    pending_remote: Vec<RemoteOp>,
    ev_scratch: Vec<L1Event>,
    /// Persistent scratch for the epoch-boundary scrub walk (avoids a
    /// per-scrub `Vec` collect of every resident line).
    scrub_scratch: Vec<(u64, LineState)>,
    /// Run the naive tick-by-tick loop instead of the event-driven fast
    /// path. The fast path is bit-identical by contract (see
    /// [`Chip::advance`]); the reference loop stays available as the
    /// oracle for differential tests.
    reference_loop: bool,
    /// Ticks the fast path advanced without executing them (observability
    /// only — deliberately *not* part of [`ChipStats`], which must be
    /// bit-identical across both loops).
    ticks_skipped: u64,
    total_threads: u32,
    chip_interconnect_pj: f64,
    coherence_messages: u64,
    migrations: u64,
    context_switches: u64,
    consolidation_trace: Vec<(u64, usize)>,
    ctx_cost_core_cycles: u64,
    slice_core_cycles: u64,
    /// Draw key for transient core faults:
    /// `combine([seed, faults.seed, DOMAIN_CORE])`.
    fault_key: u64,
    /// Fault-maintenance epochs since construction. Deliberately *not*
    /// reset with measurements: it indexes the deterministic fault
    /// universe, which must keep advancing across warm-up resets.
    fault_epochs: u64,
    /// Chip-level (core fault / decommission) counters and trace.
    core_fault_stats: FaultStats,
    /// Observability handle. Disabled by default; a disabled tracer
    /// constructs no events, and sinks can only observe — simulation
    /// outcomes are bit-identical with tracing on or off.
    tracer: Tracer,
}

// `clone_from` re-syncs a chip to `source` in place, reusing every
// allocation the destination owns (see `clone_in_place!`). The oracle
// re-syncs its scratch chips this way once per candidate; the result is
// indistinguishable from `source.clone()` whatever the destination was
// built from.
clone_in_place!(Chip {
    config,
    core_model,
    instr_e,
    clusters,
    l3,
    l3_leak_mw,
    mesh,
    cluster_dir,
    mem,
    tick,
    measure_start_tick,
    barriers,
    locks,
    boundary_scheds,
    deferred,
    pending_remote,
    ev_scratch,
    scrub_scratch,
    reference_loop,
    ticks_skipped,
    total_threads,
    chip_interconnect_pj,
    coherence_messages,
    migrations,
    context_switches,
    consolidation_trace,
    ctx_cost_core_cycles,
    slice_core_cycles,
    fault_key,
    fault_epochs,
    core_fault_stats,
    tracer,
});

impl Journaled for Chip {
    fn pair_journals(
        &mut self,
        base: Option<&Self>,
        f: &mut dyn FnMut(&mut Journal, Option<&Journal>),
    ) {
        self.clusters.pair_journals(base.map(|b| &b.clusters), f);
        self.l3.pair_journals(base.map(|b| &b.l3), f);
        self.cluster_dir
            .pair_journals(base.map(|b| &b.cluster_dir), f);
    }
}

impl Chip {
    /// Makes this chip the journal base of `others`, so re-syncing them
    /// to it copies only what changed.
    ///
    /// Every cache tag array and directory journals the sets or slots it
    /// writes. After this call, `clone_from` between any two chips of
    /// the group (this one and `others`) copies only the sets and slots
    /// either side wrote since the call, instead of walking the whole
    /// arrays. Each of `others` adds this chip's journal to its own, all
    /// take a fresh process-unique token, and this chip's journal is
    /// cleared. The first call allocates the journal storage; a chip
    /// that never rebases carries none. Journals are bookkeeping: they
    /// never change a simulated outcome, `Debug` or equality.
    pub fn rebase_journals<'a>(&mut self, others: impl IntoIterator<Item = &'a mut Chip>) {
        journal::rebase(self, others);
    }

    /// Builds a chip running `spec` (one thread per virtual core) with the
    /// given `seed` controlling process variation and workload streams.
    ///
    /// Panics on an invalid configuration; use [`Chip::try_new`] to receive
    /// the structured diagnostics instead.
    pub fn new(config: ChipConfig, spec: &WorkloadSpec, seed: u64) -> Self {
        match Self::try_new(config, spec, seed) {
            Ok(chip) => chip,
            Err(report) => panic!("invalid chip configuration:\n{report}"),
        }
    }

    /// Builds a chip, validating the configuration first. `Err` carries the
    /// full [`Report`] of every violated invariant.
    pub fn try_new(config: ChipConfig, spec: &WorkloadSpec, seed: u64) -> Result<Self, Report> {
        config.validate()?;
        let mut spec = spec.clone();
        if let Some(n) = config.instructions_per_thread {
            spec.instructions_per_thread = n;
        }

        let var_config = VariationConfig {
            cores: config.total_cores(),
            ..VariationConfig::default()
        };
        let variation = VariationMap::generate(&var_config, config.core_vdd, config.band, seed);

        let core_model = CoreEnergyModel::default();
        let e = |ev: CoreEvent| core_model.event_energy_pj(ev, config.core_vdd);
        let instr_e = InstrEnergies {
            base_pj: e(CoreEvent::Decode)
                + 2.0 * e(CoreEvent::RegRead)
                + 0.8 * e(CoreEvent::RegWrite)
                + e(CoreEvent::RobEntry)
                + e(CoreEvent::WindowWakeup),
            int_pj: e(CoreEvent::IntAlu),
            fp_pj: e(CoreEvent::FpAlu),
            branch_pj: e(CoreEvent::BranchPredict),
            mem_pj: e(CoreEvent::AddressGen) + e(CoreEvent::LsqEntry),
            fetch_pj: e(CoreEvent::Fetch),
            clock_pj: e(CoreEvent::ClockTree),
        };

        let mut clusters: Vec<Cluster> = (0..config.clusters)
            .map(|k| Cluster::build(&config, &variation, &spec, k, seed, &core_model))
            .collect();
        for cl in &mut clusters {
            cl.clock_pj = instr_e.clock_pj;
        }

        let l3_geom = config.l3_geometry();
        let l3_params = array_params(config.cache_tech, l3_geom, config.cache_vdd);
        let l3 = MemLevel::new(
            l3_geom,
            &l3_params,
            config.read_ticks(&l3_params, false),
            config.write_ticks(&l3_params),
            consts::L3_ACCEPT_INTERVAL_TICKS,
        );

        let (ctx_cost, slice) = match config.ctx_switch {
            CtxSwitchModel::Hardware => (
                consts::HW_CTX_SWITCH_CORE_CYCLES,
                consts::HW_SLICE_CORE_CYCLES,
            ),
            CtxSwitchModel::Os => (
                consts::OS_CTX_SWITCH_CORE_CYCLES,
                consts::OS_SLICE_CORE_CYCLES,
            ),
        };

        let total_threads = config.total_cores() as u32;
        let total_cores = config.total_cores();
        let mesh = Mesh::new(config.clusters);
        let fault_key = hash::combine(&[seed, config.faults.seed, hash::DOMAIN_CORE]);
        let boundary_scheds = Self::build_boundary_scheds(&clusters);
        Ok(Self {
            config,
            core_model,
            instr_e,
            clusters,
            l3_leak_mw: l3_params.leakage_mw,
            l3,
            mesh,
            cluster_dir: Directory::new(),
            mem: MainMemory::default(),
            tick: 0,
            measure_start_tick: 0,
            barriers: BarrierTable::new(),
            locks: IdTable::new(),
            boundary_scheds,
            deferred: BinaryHeap::with_capacity(total_cores * consts::STORE_BUFFER_DEPTH),
            pending_remote: Vec::new(),
            ev_scratch: Vec::new(),
            scrub_scratch: Vec::new(),
            reference_loop: false,
            ticks_skipped: 0,
            total_threads,
            chip_interconnect_pj: 0.0,
            coherence_messages: 0,
            migrations: 0,
            context_switches: 0,
            consolidation_trace: vec![(0, total_cores)],
            ctx_cost_core_cycles: ctx_cost,
            slice_core_cycles: slice,
            fault_key,
            fault_epochs: 0,
            core_fault_stats: FaultStats::default(),
            tracer: Tracer::disabled(),
        })
    }

    /// Builds the per-cluster boundary-core schedules from the cores'
    /// period mults (fixed for the chip's lifetime).
    fn build_boundary_scheds(clusters: &[Cluster]) -> Vec<BoundarySchedule> {
        clusters
            .iter()
            .map(|cl| BoundarySchedule::build(cl.cores.iter().map(|c| c.mult)))
            .collect()
    }

    /// Always 1: the chip steps its clusters on the calling thread.
    /// Kept only for callers outside the workspace that still read it.
    pub fn cluster_workers(&self) -> usize {
        1
    }

    /// Installs a trace sink. Cloned chips (oracle replays) inherit the
    /// tracer; pass [`Tracer::disabled()`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer, for layers above the chip (policy drivers)
    /// to emit their own events into the same sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Selects the stepping loop: `true` runs the naive tick-by-tick
    /// reference loop, `false` (the default) the event-driven fast path.
    /// Both produce bit-identical results; see [`Chip::advance`].
    pub fn set_reference_loop(&mut self, reference: bool) {
        self.reference_loop = reference;
    }

    /// True when the naive reference loop is selected.
    pub fn reference_loop(&self) -> bool {
        self.reference_loop
    }

    /// Ticks the fast path batch-advanced instead of executing
    /// one-by-one. Always 0 under the reference loop. A perf metric, not
    /// a simulation output: it is excluded from [`ChipStats`].
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// True when every thread has retired its full stream.
    pub fn finished(&self) -> bool {
        self.clusters.iter().all(Cluster::finished)
    }

    /// Total retired instructions.
    pub fn total_instructions(&self) -> u64 {
        self.clusters.iter().map(|c| c.instructions).sum()
    }

    /// Advances the chip by one cache cycle.
    pub fn step(&mut self) {
        self.step_probed(&mut NoProbe);
    }

    /// [`Chip::step`] with a phase-attribution probe. The probe is
    /// observation-only (it never sees simulator state), so every probed
    /// run is bit-identical to an unprobed one; with [`NoProbe`] the
    /// marks monomorphise to nothing and this *is* `step`.
    fn step_probed<P: StepProbe>(&mut self, probe: &mut P) {
        // Time since the previous tick's last phase — next-event
        // computation, idle skipping, run-loop control — belongs to the
        // between-steps bucket.
        probe.mark(Phase::EpochMaintenance);
        let now = self.tick;

        // Phase 1: shared-L1 controllers. One persistent scratch buffer
        // carries each controller's events to the dispatch loop; it must
        // come back empty from every cluster (drain consumes it) and is
        // returned empty for the next tick.
        let mut events = std::mem::take(&mut self.ev_scratch);
        debug_assert!(events.is_empty(), "event scratch leaked from last tick");
        for k in 0..self.clusters.len() {
            if let L1System::Shared(s) = &mut self.clusters[k].l1 {
                s.tick(now, &mut events);
            }
            probe.mark(Phase::SharedL1Tick);
            for ev in events.drain(..) {
                self.handle_l1_event(k, ev, now);
            }
            debug_assert!(events.is_empty(), "events must not outlive their cluster");
            probe.mark(Phase::EventDrain);
        }
        self.ev_scratch = events;

        // Phase 2: deferred completions.
        self.drain_deferred(now);
        probe.mark(Phase::EventDrain);

        // Phase 3: core execution. The boundary schedule names exactly
        // the cores whose cycle can do anything at `now` (the rest
        // would early-return before any side effect), so visiting only
        // those is the same computation. Moved out during the loop so
        // `exec_core_cycle` can borrow `self` mutably.
        let scheds = std::mem::take(&mut self.boundary_scheds);
        for (k, sched) in scheds.iter().enumerate() {
            match sched.cores_at(now) {
                Some(on_boundary) => {
                    for &c in on_boundary {
                        self.exec_core_cycle(k, c as usize, now);
                    }
                }
                None => {
                    for c in 0..self.clusters[k].cores.len() {
                        self.exec_core_cycle(k, c, now);
                    }
                }
            }
        }
        self.boundary_scheds = scheds;
        probe.mark(Phase::CoreExecute);

        // Phase 4: cross-cluster coherence actions.
        self.drain_remote();
        probe.mark(Phase::SyncReplay);

        self.tick = now + 1;
        probe.tick_executed();
    }

    /// Phase 2 of a tick: applies deferred completions due at `now`.
    fn drain_deferred(&mut self, now: u64) {
        // Applying a completion never schedules another, so each due
        // entry is applied as it is popped.
        while let Some(&Reverse((t, d))) = self.deferred.peek() {
            if t > now {
                break;
            }
            self.deferred.pop();
            match d {
                Deferred::FreeStoreSlot(k, c) => {
                    let core = &mut self.clusters[k].cores[c];
                    // Underflow here means a store-buffer slot was freed
                    // that was never occupied — a simulator bug that a
                    // saturating subtract would silently launder into a
                    // permanently-roomier store buffer. Fail loudly with
                    // the structured diagnostic instead of clamping.
                    let Some(rest) = core.pending_stores.checked_sub(1) else {
                        panic!(
                            "{}",
                            Violation::error(
                                "SIM-STORE-UNDERFLOW",
                                "store-buffer slots freed never exceed slots occupied",
                                format!("Chip::drain_deferred: cluster {k}, core {c}, tick {now}"),
                                "FreeStoreSlot fired with pending_stores == 0",
                            )
                        );
                    };
                    core.pending_stores = rest;
                }
            }
        }
    }

    /// Phase 4 of a tick: applies cross-cluster coherence actions queued
    /// during the tick.
    fn drain_remote(&mut self) {
        if !self.pending_remote.is_empty() {
            let ops = std::mem::take(&mut self.pending_remote);
            for op in &ops {
                self.apply_remote(*op);
            }
            self.pending_remote = ops;
            self.pending_remote.clear();
        }
    }

    /// Applies the chip-global half of a sync op issued by cluster `k`:
    /// barrier arrival/release, lock acquisition/queueing/release, and
    /// the issuing (and any woken) thread's resulting state. `vc_id` is
    /// the issuing virtual core, `mult` its host core's period multiple.
    /// Called from [`Chip::exec_core_cycle`] where the op issues.
    fn apply_sync_op(&mut self, k: usize, vc_id: usize, mult: u64, kind: SyncKind, now: u64) {
        match kind {
            SyncKind::Barrier(id) => {
                let arrivals = self.barriers.arrive(id);
                if arrivals == self.total_threads {
                    self.barriers.reset(id);
                    self.release_barrier(id, k, now);
                    self.clusters[k].vcores[vc_id].state = VcState::StallUntil(now + mult);
                } else {
                    self.clusters[k].vcores[vc_id].state = VcState::AtBarrier(id);
                }
            }
            SyncKind::LockAcq(lock) => {
                let (acquired, transfer_from) = {
                    let e = self.locks.get_or_default(lock);
                    if e.holder.is_none() {
                        e.holder = Some((k, vc_id));
                        let from = e.last_cluster;
                        e.last_cluster = k;
                        (true, from)
                    } else {
                        e.waiters.push_back((k, vc_id));
                        (false, usize::MAX)
                    }
                };
                if acquired {
                    let penalty = if transfer_from == usize::MAX {
                        0
                    } else {
                        self.sync_transfer_ticks(transfer_from == k)
                    };
                    if penalty > 0 {
                        self.clusters[k].vcores[vc_id].state = VcState::StallUntil(now + penalty);
                    }
                } else {
                    self.clusters[k].vcores[vc_id].state = VcState::WaitLock(lock);
                }
            }
            SyncKind::LockRel(lock) => {
                let wake = {
                    // A release of a lock with no entry means the sync
                    // model lost track of a holder: a simulator bug.
                    let Some(e) = self.locks.get_mut(lock) else {
                        panic!(
                            "{}",
                            Violation::error(
                                "SIM-LOCK-UNHELD",
                                "a lock is released only by a thread that acquired it",
                                format!(
                                    "Chip::apply_sync_op: cluster {k}, vcore {vc_id}, lock {lock}, tick {now}"
                                ),
                                "LockRel on a lock that was never acquired",
                            )
                        );
                    };
                    debug_assert_eq!(e.holder, Some((k, vc_id)));
                    e.last_cluster = k;
                    match e.waiters.pop_front() {
                        Some(next) => {
                            e.holder = Some(next);
                            Some(next)
                        }
                        None => {
                            e.holder = None;
                            None
                        }
                    }
                };
                if let Some((kk, vv)) = wake {
                    let penalty = self.sync_transfer_ticks(kk == k);
                    self.clusters[kk].vcores[vv].state = VcState::StallUntil(now + penalty.max(1));
                }
            }
        }
    }

    /// Advances the chip to the next tick *at which anything can happen*,
    /// then executes it with [`Chip::step`].
    ///
    /// This is the event-driven fast path. Its correctness rests on the
    /// **next-wakeup invariant**: every sleeping component owns a ready
    /// tick — pending shared-L1 operations their `arrival_tick`, deferred
    /// completions their heap key, stalled threads their `StallUntil`
    /// deadline — and threads in `WaitRead`/`AtBarrier`/`WaitLock` are
    /// only ever woken by an event that fires *inside an executed tick*
    /// bounded by one of those deadlines. A tick strictly before every
    /// deadline therefore mutates nothing but three exactly-batchable
    /// integer counters (per-cluster clock cycles, per-core `slice_left`,
    /// per-controller zero-arrival histogram cycles), which
    /// `Chip::skip_idle_ticks` applies in O(cores). `ChipStats`, energy
    /// and traces are bit-identical to the reference loop by
    /// construction; `integration_fastpath.rs` enforces it.
    ///
    /// With [`Chip::set_reference_loop`]`(true)` this is exactly
    /// [`Chip::step`].
    ///
    /// # Panics
    ///
    /// When no component owns a deadline and the workload has not
    /// finished — a genuine deadlock the reference loop would only
    /// surface as an epoch-tick-limit assertion much later.
    pub fn advance(&mut self) {
        self.advance_with(&mut NoProbe);
    }

    /// [`Chip::advance`] with a phase probe on the executed tick.
    fn advance_with<P: StepProbe>(&mut self, probe: &mut P) {
        if !self.reference_loop {
            match self.next_event_tick() {
                Some(t) if t > self.tick => self.skip_idle_ticks(t),
                Some(_) => {}
                None => {
                    assert!(
                        self.finished(),
                        "simulator deadlock: no pending events and no runnable thread \
                         at tick {}",
                        self.tick
                    );
                }
            }
        }
        self.step_probed(probe);
    }

    /// Earliest tick ≥ `self.tick` at which any component can act: the
    /// minimum over every shared-L1 controller's pending-arrival deadline,
    /// the deferred-completion heap, and each active core's next issue
    /// boundary (first core-cycle boundary past its hosted threads'
    /// earliest wake and its own `stall_until`). `None` when every
    /// component sleeps forever (normally: the workload finished).
    fn next_event_tick(&self) -> Option<u64> {
        let now = self.tick;
        // Every deadline folds in clamped to `now`, so `now` itself is a
        // floor: the moment any component is due at or before the
        // current tick the answer is known and the scan stops. Sources
        // are visited cheapest-first — the heap's peek is O(1), a busy
        // controller usually trips in its first few request slots, and
        // the per-core vcore walk runs only when everything else is
        // quiet (the case where its exact minimum is needed).
        let mut next = u64::MAX;
        if let Some(&Reverse((t, _))) = self.deferred.peek() {
            if t <= now {
                return Some(now);
            }
            next = next.min(t);
        }
        for cl in &self.clusters {
            if let L1System::Shared(s) = &cl.l1 {
                match s.next_work_tick_from(now) {
                    Some(t) if t <= now => return Some(now),
                    Some(t) => next = next.min(t),
                    None => {}
                }
            }
        }
        for cl in &self.clusters {
            for core in &cl.cores {
                if !core.active || core.assigned.is_empty() {
                    continue;
                }
                let wake = core
                    .assigned
                    .iter()
                    .filter_map(|&vc| cl.vcores[vc].wake_tick(now))
                    .min();
                if let Some(w) = wake {
                    let t = core.next_boundary(w.max(core.stall_until).max(now));
                    if t <= now {
                        return Some(now);
                    }
                    next = next.min(t);
                }
            }
        }
        if next == u64::MAX {
            None
        } else {
            Some(next)
        }
    }

    /// Batch-applies the effects of the naive loop over the idle window
    /// `[self.tick, target)` — every tick of which is strictly before
    /// every component deadline (established by
    /// [`Chip::next_event_tick`]) — and jumps the clock to `target`.
    ///
    /// On such a tick the reference loop mutates exactly three things,
    /// all integer counters with batched equivalents:
    /// 1. each shared-L1 controller records a zero-arrival cycle,
    /// 2. each active core at a core-cycle boundary counts one clock-tree
    ///    cycle, and
    /// 3. each tenanted core at a boundary past `stall_until` decrements
    ///    `slice_left` (no context switch can fire: switching requires a
    ///    runnable sibling, and no hosted thread wakes inside the window).
    fn skip_idle_ticks(&mut self, target: u64) {
        let now = self.tick;
        debug_assert!(target > now);
        for cl in &mut self.clusters {
            if let L1System::Shared(s) = &mut cl.l1 {
                debug_assert!(s.next_work_tick_from(now).is_none_or(|t| t >= target));
                s.note_idle_ticks(target - now);
            }
            let mut clock_cycles = 0;
            for core in &mut cl.cores {
                if !core.active {
                    continue;
                }
                clock_cycles += core.boundaries_in(now, target);
                if !core.assigned.is_empty() && core.slice_left != u64::MAX {
                    let issue_from = now.max(core.stall_until);
                    if issue_from < target {
                        // Semantic clamp (audited): the batched window may
                        // legitimately outlast the remaining slice; an
                        // expired slice floors at 0 exactly as the
                        // per-tick decrement in the core cycle does.
                        core.slice_left = core
                            .slice_left
                            .saturating_sub(core.boundaries_in(issue_from, target));
                    }
                }
            }
            cl.clock_cycles += clock_cycles;
        }
        debug_assert!(self
            .deferred
            .peek()
            .is_none_or(|&Reverse((t, _))| t >= target));
        debug_assert!(self.pending_remote.is_empty());
        self.ticks_skipped += target - now;
        self.tick = target;
    }

    fn apply_remote(&mut self, op: RemoteOp) {
        match op {
            RemoteOp::Invalidate(k, line) => {
                let cluster = &mut self.clusters[k];
                match &mut cluster.l1 {
                    L1System::Shared(s) => {
                        s.invalidate(line);
                    }
                    L1System::Private(p) => p.invalidate(line),
                }
                cluster.l2.invalidate(cluster.l2.block_addr(line));
            }
            RemoteOp::Downgrade(k, line) => match &mut self.clusters[k].l1 {
                L1System::Shared(s) => s.downgrade(line),
                L1System::Private(p) => p.downgrade(line),
            },
        }
    }

    // ---------------------------------------------------------------- L1 events

    fn handle_l1_event(&mut self, k: usize, ev: L1Event, now: u64) {
        match ev {
            L1Event::ReadDone {
                core: vc,
                completion_tick,
            } => {
                self.clusters[k].vcores[vc].state = VcState::StallUntil(completion_tick);
            }
            L1Event::ReadMiss {
                core: vc,
                addr,
                mult,
                issue_tick,
            } => {
                let (cluster, mut below) = self.split(k);
                let (ready, state) = below.read_path(&mut cluster.l2, addr, now + 1);
                if let L1System::Shared(s) = &mut cluster.l1 {
                    s.enqueue_fill(addr, ready, state);
                }
                let completion = align_boundary(issue_tick, mult, ready + 1);
                cluster.vcores[vc].state = VcState::StallUntil(completion);
            }
            L1Event::StoreDrained {
                core,
                completion_tick,
                needs_ownership,
                addr,
            } => {
                // A line already held Modified was acquired earlier; for
                // E/S lines confirm or obtain inter-cluster ownership (the
                // adder is zero when we are already the sole sharer).
                let mut completion = completion_tick;
                if needs_ownership {
                    completion += self.split(k).1.acquire_ownership(addr);
                }
                self.deferred
                    .push(Reverse((completion, Deferred::FreeStoreSlot(k, core))));
            }
            L1Event::StoreMiss { core, addr } => {
                let (cluster, mut below) = self.split(k);
                let ready = below.read_path(&mut cluster.l2, addr, now + 1).0
                    + below.acquire_ownership(addr);
                let write_ticks = if let L1System::Shared(s) = &mut cluster.l1 {
                    s.enqueue_fill(addr, ready, LineState::Modified);
                    s.write_ticks()
                } else {
                    1
                };
                self.deferred.push(Reverse((
                    ready + write_ticks,
                    Deferred::FreeStoreSlot(k, core),
                )));
            }
            L1Event::Writeback { addr } => {
                let l2_addr = self.clusters[k].l2.block_addr(addr);
                self.clusters[k].l2.write(l2_addr, now);
            }
        }
    }

    /// Splits cluster `k` from the memory system below its L1, so an L1
    /// walk can hold the cluster's L1 (matched on its organisation once)
    /// and still reach below it.
    fn split(&mut self, k: usize) -> (&mut Cluster, Below<'_>) {
        let clusters = self.clusters.len();
        let below = Below {
            k,
            clusters,
            cluster_dir: &mut self.cluster_dir,
            mesh: &mut self.mesh,
            l3: &mut self.l3,
            mem: &mut self.mem,
            pending_remote: &mut self.pending_remote,
            chip_interconnect_pj: &mut self.chip_interconnect_pj,
            coherence_messages: &mut self.coherence_messages,
        };
        (&mut self.clusters[k], below)
    }

    // ---------------------------------------------------------------- core cycle

    /// One core cycle of core `c` in cluster `k` — the only core-cycle
    /// body, for both L1 organisations. The power/boundary gate, the
    /// context-switch decision and the dual-issue loop are shared; only
    /// the `Load` and `Store` arms dispatch on the cluster's L1 (a
    /// shared-L1 port request, or the private-L1 walk through
    /// [`Below::private_load`]/[`Below::private_store`]).
    /// Sync ops apply their chip-global half ([`Chip::apply_sync_op`])
    /// where they issue and end the issue group.
    ///
    /// Two ordering rules keep the energy sums bit-exact:
    ///
    /// - A sync op's global half runs *before* the issuing core's
    ///   fetch/L1I charge. The two touch disjoint accumulators
    ///   (`core_dyn_pj`/`ifetch_dyn_pj` here; sync tables, vcore states,
    ///   `coherence_messages` and `chip_interconnect_pj` there), so where
    ///   it runs relative to the charge does not change any sum.
    /// - The private-L1 memory ops charge their L1D access to
    ///   `ifetch_dyn_pj` and `interconnect_pj` before the walk, and run
    ///   *before* the fetch charge; the order of f64 additions is
    ///   observable.
    fn exec_core_cycle(&mut self, k: usize, c: usize, now: u64) {
        let cluster = &mut self.clusters[k];
        let mult = {
            let core = &cluster.cores[c];
            if !core.active || !now.is_multiple_of(core.mult) {
                return;
            }
            core.mult
        };
        // The clock network toggles every cycle the core is powered,
        // stalled or not; only power gating (consolidation) removes it.
        // Counted as an integer (energy = count × clock_pj at read time)
        // so the fast path can batch idle boundaries bit-identically.
        cluster.clock_cycles += 1;
        if now < cluster.cores[c].stall_until {
            return;
        }

        // Context-switch decision. Hardware-stacked virtual cores behave
        // like fine-grained multithreading: the register banks of all
        // hosted threads stay resident, so when the current thread cannot
        // issue this cycle the core selects a runnable sibling and executes
        // it in the *same* cycle (the paper's "hardware context switches";
        // the expensive case is migration *between* cores). The OS variant
        // pays its full quantum-switch cost and only reconsiders a blocked
        // thread at quantum granularity.
        let hardware = self.config.ctx_switch == CtxSwitchModel::Hardware;
        let ctx_threshold = 2 * self.ctx_cost_core_cycles * mult;
        let switch = {
            let core = &cluster.cores[c];
            if core.assigned.is_empty() {
                return;
            }
            core.pick_switch_with(
                |i| cluster.vcores[core.assigned[i]].runnable(now),
                |i| {
                    let v = &cluster.vcores[core.assigned[i]];
                    if hardware {
                        !v.runnable(now)
                    } else {
                        v.blocked_on_sync()
                            || matches!(v.state, VcState::StallUntil(t) if t > now + ctx_threshold)
                    }
                },
            )
        };
        if let Some(next) = switch {
            let core = &mut cluster.cores[c];
            core.current = next;
            core.slice_left = self.slice_core_cycles;
            self.context_switches += 1;
            if !hardware {
                core.stall_until = now + self.ctx_cost_core_cycles * mult;
                return;
            }
            // Hardware: fall through and issue from the new thread now.
        }

        let vc_id = {
            let core = &mut cluster.cores[c];
            if core.slice_left != u64::MAX {
                // Semantic clamp, not a masked bug: an expired slice simply
                // stays expired until the next switch refills it.
                core.slice_left = core.slice_left.saturating_sub(1);
            }
            core.assigned[core.current]
        };
        if !cluster.vcores[vc_id].runnable(now) {
            return;
        }
        cluster.vcores[vc_id].state = VcState::Ready;

        let e = self.instr_e;
        let mut issued = 0u32;
        let mut mem_issued = false;
        for _slot in 0..2 {
            // Re-borrowed per slot because the sync arms need all of
            // `self`; every other arm works through this split.
            let (cluster, mut below) = self.split(k);
            let op = {
                let vc = &mut cluster.vcores[vc_id];
                match vc.held.take() {
                    Some(op) => op,
                    None => vc.gen.next_op(),
                }
            };
            match op {
                Op::Int => {
                    cluster.retire(vc_id, e.base_pj + e.int_pj);
                    issued += 1;
                }
                Op::Fp => {
                    cluster.retire(vc_id, e.base_pj + e.fp_pj);
                    issued += 1;
                }
                Op::Branch { mispredict } => {
                    cluster.retire(vc_id, e.base_pj + e.branch_pj);
                    issued += 1;
                    if mispredict {
                        cluster.vcores[vc_id].state = VcState::StallUntil(
                            now + consts::MISPREDICT_PENALTY_CORE_CYCLES * mult,
                        );
                        break;
                    }
                }
                Op::Idle { cycles } => {
                    cluster.vcores[vc_id].state = VcState::StallUntil(now + cycles as u64 * mult);
                    break;
                }
                Op::Load { addr } => {
                    if mem_issued {
                        cluster.vcores[vc_id].held = Some(op);
                        break;
                    }
                    cluster.retire(vc_id, e.base_pj + e.mem_pj);
                    issued += 1;
                    match &mut cluster.l1 {
                        L1System::Shared(s) => {
                            debug_assert!(s.can_accept_read(vc_id), "blocking loads");
                            s.issue_read(vc_id, addr, now, mult);
                            cluster.vcores[vc_id].state = VcState::WaitRead;
                        }
                        L1System::Private(l1) => {
                            cluster.ifetch_dyn_pj += cluster.l1_costs.d_read_pj;
                            cluster.interconnect_pj += cluster.l1_costs.shifter_pj;
                            let pj = &mut cluster.interconnect_pj;
                            // A hit takes one core cycle: the load simply
                            // ends the issue group.
                            if let Some(ready) =
                                below.private_load(l1, &mut cluster.l2, pj, c, addr, now)
                            {
                                cluster.vcores[vc_id].state =
                                    VcState::StallUntil(align_boundary(now, mult, ready + 1));
                            }
                        }
                    }
                    break;
                }
                Op::Store { addr } => {
                    if mem_issued {
                        cluster.vcores[vc_id].held = Some(op);
                        break;
                    }
                    if !cluster.cores[c].store_buffer_has_room() {
                        let vc = &mut cluster.vcores[vc_id];
                        vc.held = Some(op);
                        vc.state = VcState::StallUntil(now + mult);
                        break;
                    }
                    cluster.retire(vc_id, e.base_pj + e.mem_pj);
                    issued += 1;
                    mem_issued = true;
                    cluster.cores[c].pending_stores += 1;
                    match &mut cluster.l1 {
                        L1System::Shared(s) => s.issue_store(c, addr, now),
                        L1System::Private(l1) => {
                            cluster.ifetch_dyn_pj += cluster.l1_costs.d_write_pj;
                            cluster.interconnect_pj += cluster.l1_costs.shifter_pj;
                            let pj = &mut cluster.interconnect_pj;
                            let ready = below.private_store(l1, &mut cluster.l2, pj, c, addr, now);
                            let completion = ready + cluster.l1_costs.d_write_ticks;
                            self.deferred
                                .push(Reverse((completion, Deferred::FreeStoreSlot(k, c))));
                        }
                    }
                }
                Op::Barrier { id } => {
                    cluster.retire(vc_id, e.base_pj);
                    issued += 1;
                    self.apply_sync_op(k, vc_id, mult, SyncKind::Barrier(id), now);
                    break;
                }
                Op::LockAcq { lock } => {
                    cluster.retire(vc_id, e.base_pj + e.mem_pj);
                    issued += 1;
                    self.apply_sync_op(k, vc_id, mult, SyncKind::LockAcq(lock), now);
                    break;
                }
                Op::LockRel { lock } => {
                    cluster.retire(vc_id, e.base_pj + e.mem_pj);
                    issued += 1;
                    self.apply_sync_op(k, vc_id, mult, SyncKind::LockRel(lock), now);
                    break;
                }
                Op::Done => {
                    cluster.vcores[vc_id].state = VcState::Finished;
                    break;
                }
            }
        }

        if issued > 0 {
            let cluster = &mut self.clusters[k];
            cluster.core_dyn_pj += e.fetch_pj;
            // The L1I array is read once per ~6 sequential instructions
            // (a 32 B line holds 8 fixed-width instructions; the fetch line
            // buffer filters repeat reads, branches refetch early).
            cluster.ifetch_dyn_pj += cluster.l1_costs.i_read_pj * issued as f64 / 6.0;
        }
    }

    /// Latency of moving a contended synchronisation line to a new user.
    fn sync_transfer_ticks(&self, same_cluster: bool) -> u64 {
        if !same_cluster {
            consts::INTER_REMOTE_FETCH_TICKS
        } else if self.config.l1_org == L1Org::Private {
            consts::INTRA_REMOTE_FETCH_TICKS
        } else {
            1
        }
    }

    fn release_barrier(&mut self, id: u32, releaser_cluster: usize, now: u64) {
        let private = self.config.l1_org == L1Org::Private;
        let mut msgs = 0u64;
        let mut msg_pj = 0.0;
        for kk in 0..self.clusters.len() {
            let same = kk == releaser_cluster;
            let penalty = self.sync_transfer_ticks(same);
            for vc in self.clusters[kk].vcores.iter_mut() {
                if vc.state == VcState::AtBarrier(id) {
                    vc.state = VcState::StallUntil(now + penalty);
                    if !same {
                        msgs += 1;
                        msg_pj += consts::INTER_COHERENCE_MSG_PJ;
                    } else if private {
                        msgs += 1;
                        msg_pj += consts::INTRA_COHERENCE_MSG_PJ;
                    }
                }
            }
        }
        self.coherence_messages += msgs;
        self.chip_interconnect_pj += msg_pj;
    }

    // --------------------------------------------------------- consolidation

    /// Sets the number of active physical cores in cluster `k`, migrating
    /// virtual cores as needed (§III-C, [`remap::set_active_cores`]).
    /// Requires the configuration to have consolidation enabled.
    pub fn set_active_cores(&mut self, k: usize, count: usize) {
        assert!(
            self.config.consolidation,
            "consolidation disabled in this configuration"
        );
        let from_cores = self.clusters[k].active_cores;
        let ranking = self.clusters[k].efficiency_ranking();
        let Some(count) = remap::set_active_cores(&mut self.cluster_map(k), &ranking, count) else {
            return;
        };
        debug_assert_eq!(self.clusters[k].active_cores, count);
        let total_active = self.settle_core_change(k);
        let now = self.tick;
        self.tracer.emit(|| {
            TraceEvent::at(
                now,
                TraceKind::Consolidation {
                    cluster: k,
                    from: from_cores,
                    to: count,
                    total_active,
                },
            )
        });
    }

    /// Cluster `k` as the [`remap`] passes see it.
    fn cluster_map(&mut self, k: usize) -> ClusterMap<'_> {
        ClusterMap {
            cluster: &mut self.clusters[k],
            migrations: &mut self.migrations,
            tracer: &self.tracer,
            k,
            now: self.tick,
        }
    }

    /// Closes a change of cluster `k`'s powered cores: multi-tenant cores
    /// get a time slice (single-tenant cores never slice), dangling
    /// thread indices reset, the core leakage follows the new gating and
    /// the chip-wide active count joins the consolidation trace, which
    /// is returned.
    fn settle_core_change(&mut self, k: usize) -> usize {
        let now = self.tick;
        for core in &mut self.clusters[k].cores {
            if core.assigned.len() > 1 {
                if core.slice_left == u64::MAX {
                    core.slice_left = self.slice_core_cycles;
                }
            } else {
                core.slice_left = u64::MAX;
            }
            if core.current >= core.assigned.len() {
                core.current = 0;
            }
        }
        self.clusters[k].refresh_core_leakage(now, self.config.core_vdd, &self.core_model);
        let total_active: usize = self.clusters.iter().map(|cl| cl.active_cores).sum();
        self.consolidation_trace.push((now, total_active));
        debug_assert_eq!(self.check_assignment_invariant(k), Ok(()));
        total_active
    }

    /// [`remap::check`] on cluster `k`.
    fn check_assignment_invariant(&mut self, k: usize) -> Result<(), String> {
        let vcores = self.clusters[k].vcores.len();
        remap::check(&self.cluster_map(k), vcores)
    }

    // ------------------------------------------------------ fault injection

    /// Epoch-boundary fault maintenance: scrub shared-L1 arrays and draw
    /// transient core faults. Keyed on a per-chip epoch counter so oracle
    /// clones replay identical fault universes.
    fn epoch_fault_maintenance(&mut self) {
        let fc = self.config.faults;
        let now = self.tick;
        self.fault_epochs += 1;
        let epoch = self.fault_epochs;
        if fc.scrub {
            for cl in &mut self.clusters {
                if let L1System::Shared(sh) = &mut cl.l1 {
                    sh.scrub_with(now, &mut self.scrub_scratch);
                }
            }
            debug_assert!(self.scrub_scratch.is_empty(), "scrub scratch leaked");
        }
        if !fc.core_faults_enabled() {
            return;
        }
        for k in 0..self.clusters.len() {
            for c in 0..self.clusters[k].cores.len() {
                let core = &self.clusters[k].cores[c];
                if core.faulty {
                    continue;
                }
                let global = k * self.config.cores_per_cluster + c;
                let seeded = fc.seeded_bad_core == Some(global);
                // Stochastic transients strike executing cores; the seeded
                // defect fails its epoch-boundary self-test even while
                // power-gated.
                if !seeded && !core.active {
                    continue;
                }
                let hit = if seeded {
                    true
                } else if fc.core_fault_rate > 0.0 {
                    // Slow (high-Vth) cores are the variation-marginal
                    // ones at NT voltage: scale the per-epoch rate with
                    // the square of the period multiplier (mult 4 ≙ the
                    // fastest NT bin).
                    let scale = (core.mult * core.mult) as f64 / 16.0;
                    let p = (fc.core_fault_rate * scale).min(1.0);
                    hash::unit_f64(hash::combine(&[self.fault_key, k as u64, c as u64, epoch])) < p
                } else {
                    false
                };
                if hit {
                    self.inject_core_fault(k, c);
                }
            }
        }
    }

    /// Injects one transient fault on core `c` of cluster `k`: the
    /// pipeline flushes and architectural state repairs from the
    /// checkpoint (a bounded stall). Crossing the configured threshold
    /// decommissions the core.
    pub fn inject_core_fault(&mut self, k: usize, c: usize) {
        let now = self.tick;
        let core = &mut self.clusters[k].cores[c];
        core.fault_count += 1;
        core.stall_until = core
            .stall_until
            .max(now + consts::CORE_FAULT_RECOVERY_CORE_CYCLES * core.mult);
        self.core_fault_stats.summary.core_faults += 1;
        self.core_fault_stats.record(
            now,
            0,
            FaultEventKind::CoreFault {
                cluster: k,
                core: c,
            },
        );
        let fault_count = self.clusters[k].cores[c].fault_count;
        self.tracer.emit(|| {
            TraceEvent::at(
                now,
                TraceKind::CoreFault {
                    cluster: k,
                    core: c,
                    fault_count,
                },
            )
        });
        if self.clusters[k].cores[c].fault_count >= self.config.faults.core_fault_threshold {
            self.decommission_core(k, c);
        }
    }

    /// Permanently decommissions core `c` of cluster `k`
    /// ([`remap::decommission`]): powered off like a consolidation
    /// power-off, its virtual cores remapped to healthy hosts, and
    /// excluded from future rankings — the chip degrades throughput
    /// instead of corrupting results. When the core is the cluster's last
    /// healthy active one, the most efficient healthy inactive core is
    /// woken to take over first; if none exists the chip limps on the
    /// failing core (degrade, never halt) and the call returns `false`.
    pub fn decommission_core(&mut self, k: usize, c: usize) -> bool {
        let ranking = self.clusters[k].efficiency_ranking();
        if !remap::decommission(&mut self.cluster_map(k), &ranking, c) {
            return false;
        }
        self.settle_core_change(k);
        let now = self.tick;
        self.core_fault_stats.summary.cores_decommissioned += 1;
        self.core_fault_stats.record(
            now,
            0,
            FaultEventKind::CoreDecommissioned {
                cluster: k,
                core: c,
            },
        );
        self.tracer.emit(|| {
            TraceEvent::at(
                now,
                TraceKind::Decommission {
                    cluster: k,
                    core: c,
                },
            )
        });
        true
    }

    // --------------------------------------------------------------- epochs

    /// Runs one consolidation epoch: until `epoch_instructions × clusters`
    /// further instructions retire chip-wide (or the workload finishes).
    pub fn run_epoch(&mut self) -> EpochReport {
        self.run_epoch_with(&mut NoProbe)
    }

    /// [`Chip::run_epoch`] with wall time attributed to the
    /// five hot-path phases through `profiler` (the data source of the
    /// benchmark's traced pass). Bit-identical to an unprofiled epoch:
    /// probes are observation-only.
    pub fn run_epoch_profiled(&mut self, profiler: &mut PhaseProfiler<'_>) -> EpochReport {
        self.run_epoch_with(profiler)
    }

    fn run_epoch_with<P: StepProbe>(&mut self, probe: &mut P) -> EpochReport {
        let start_tick = self.tick;
        // Trace bookkeeping is only captured when a sink is installed —
        // the disabled path does no extra work at all.
        let trace_snap = if self.tracer.enabled() {
            Some(self.epoch_trace_snapshot())
        } else {
            None
        };
        let start_instr: Vec<u64> = self.clusters.iter().map(|c| c.instructions).collect();
        let start_energy: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| c.energy_pj(start_tick))
            .collect();
        let start_total: u64 = start_instr.iter().sum();
        let target = self.config.epoch_instructions * self.clusters.len() as u64;

        while !self.finished() && self.total_instructions() - start_total < target {
            assert!(
                self.tick - start_tick < MAX_EPOCH_TICKS,
                "epoch exceeded {MAX_EPOCH_TICKS} ticks — simulator deadlock?"
            );
            self.advance_with(probe);
        }

        // Epoch-boundary fault maintenance runs before the report is
        // assembled so scrub energy lands in this epoch's accounting.
        if self.config.faults.enabled() || self.config.faults.scrub {
            self.epoch_fault_maintenance();
        }

        let end_tick = self.tick;
        let mut report = EpochReport {
            cluster_instructions: Vec::with_capacity(self.clusters.len()),
            cluster_energy_pj: Vec::with_capacity(self.clusters.len()),
            active_cores: Vec::with_capacity(self.clusters.len()),
            cluster_epi: Vec::with_capacity(self.clusters.len()),
            healthy_cores: Vec::with_capacity(self.clusters.len()),
            finished: self.finished(),
            start_tick,
            end_tick,
        };
        for (k, cluster) in self.clusters.iter_mut().enumerate() {
            let instr = cluster.instructions - start_instr[k];
            let energy = cluster.energy_pj(end_tick) - start_energy[k];
            report.cluster_instructions.push(instr);
            report.cluster_energy_pj.push(energy);
            report.active_cores.push(cluster.active_cores);
            report.healthy_cores.push(cluster.healthy_cores());
            report.cluster_epi.push(if instr == 0 {
                f64::INFINITY
            } else {
                energy / instr as f64
            });
            // Figure 14 accounting.
            cluster.epoch_count += 1;
            cluster.active_sum += cluster.active_cores as u64;
            cluster.active_min = cluster.active_min.min(cluster.active_cores);
            cluster.active_max = cluster.active_max.max(cluster.active_cores);
        }
        if let Some(snap) = &trace_snap {
            self.emit_epoch_trace(snap, &report);
        }
        // Fault maintenance and report assembly above belong to the
        // between-steps bucket (no-op under NoProbe).
        probe.mark(Phase::EpochMaintenance);
        report
    }

    /// Epoch-start counters the trace layer diffs against at epoch end.
    /// Only captured when tracing is enabled.
    fn epoch_trace_snapshot(&self) -> EpochTraceSnapshot {
        EpochTraceSnapshot {
            shared_l1: self
                .clusters
                .iter()
                .map(|cl| match &cl.l1 {
                    L1System::Shared(sh) => Some(sh.stats().clone()),
                    L1System::Private(_) => None,
                })
                .collect(),
            l2: self.clusters.iter().map(|cl| cl.l2.stats).collect(),
            l3: self.l3.stats,
            faults: self.fault_summary_now(),
            fault_trace_len: self
                .clusters
                .iter()
                .map(|cl| match &cl.l1 {
                    L1System::Shared(sh) => sh.fault_stats().map_or(0, |fs| fs.trace.len()),
                    L1System::Private(_) => 0,
                })
                .collect(),
        }
    }

    /// Current aggregate fault counters (core-level plus every shared-L1
    /// array), without assembling full [`ChipStats`].
    fn fault_summary_now(&self) -> FaultSummary {
        let mut s = self.core_fault_stats.summary;
        for cl in &self.clusters {
            if let L1System::Shared(sh) = &cl.l1 {
                if let Some(fs) = sh.fault_stats() {
                    s.merge(&fs.summary);
                }
            }
        }
        s
    }

    /// Emits the epoch-series records for the epoch that just ended:
    /// per-cluster compute and cache samples, the chip-wide rollup, a
    /// fault-counter delta when fault machinery is configured, and any
    /// new cell-level fault events (SECDED corrections etc.) from the
    /// bounded per-array traces.
    fn emit_epoch_trace(&self, snap: &EpochTraceSnapshot, report: &EpochReport) {
        // `run_epoch` just incremented every cluster's epoch counter, so
        // the 0-based index of the epoch that ended is count - 1 (the
        // saturation is audited-unreachable — the counter is ≥ 1 here —
        // and only guards the arithmetic, never masks state).
        let epoch = self
            .clusters
            .first()
            .map_or(0, |c| c.epoch_count.saturating_sub(1));
        let end_tick = report.end_tick;
        for (k, cl) in self.clusters.iter().enumerate() {
            self.tracer.emit(|| {
                TraceEvent::at(
                    end_tick,
                    TraceKind::ClusterEpoch {
                        cluster: k,
                        epoch,
                        instructions: report.cluster_instructions[k],
                        energy_pj: report.cluster_energy_pj[k],
                        // JSON-safe: an idle cluster's EPI is +inf.
                        epi_pj: respin_trace::finite_or_zero(report.cluster_epi[k]),
                        active_cores: report.active_cores[k],
                        healthy_cores: report.healthy_cores[k],
                        core_freq_mhz: cl.core_freq_mhz(),
                    },
                )
            });
            // Cache samples are defined for the shared-L1 organisation
            // (the paper's §II-A controller); private configurations
            // still get the cluster/chip series above.
            if let (L1System::Shared(sh), Some(l1_start)) = (&cl.l1, &snap.shared_l1[k]) {
                let d = sh.stats().delta_since(l1_start);
                let l2 = cl.l2.stats.delta_since(&snap.l2[k]);
                self.tracer.emit(|| {
                    TraceEvent::at(
                        end_tick,
                        TraceKind::CacheEpoch {
                            cluster: k,
                            epoch,
                            reads: d.reads,
                            read_misses: d.read_misses,
                            half_misses: d.half_misses,
                            writes: d.writes,
                            half_miss_rate: d.half_miss_fraction(),
                            arbiter_occupancy: d.arbiter_occupancy(),
                            l2_miss_rate: l2.miss_rate(),
                        },
                    )
                });
            }
        }
        let instructions: u64 = report.cluster_instructions.iter().sum();
        let energy_pj: f64 = report.cluster_energy_pj.iter().sum();
        let l3 = self.l3.stats.delta_since(&snap.l3);
        let active_cores: usize = report.active_cores.iter().sum();
        self.tracer.emit(|| {
            TraceEvent::at(
                end_tick,
                TraceKind::ChipEpoch {
                    epoch,
                    instructions,
                    energy_pj,
                    epi_pj: if instructions == 0 {
                        0.0 // JSON-safe stand-in for "undefined".
                    } else {
                        energy_pj / instructions as f64
                    },
                    l3_miss_rate: l3.miss_rate(),
                    active_cores,
                },
            )
        });
        if self.config.faults.enabled() || self.config.faults.scrub {
            let d = self.fault_summary_now().delta_since(&snap.faults);
            self.tracer.emit(|| {
                TraceEvent::at(
                    end_tick,
                    TraceKind::FaultEpoch {
                        epoch,
                        write_faults: d.write_faults,
                        write_retries: d.write_retries,
                        retention_flips: d.retention_flips,
                        ecc_corrected: d.ecc_corrected,
                        ecc_detected: d.ecc_detected,
                        uncorrected_escapes: d.uncorrected_escapes,
                        scrubbed_lines: d.scrubbed_lines,
                        scrub_rewrites: d.scrub_rewrites,
                        recovery_energy_pj: d.recovery_energy_pj,
                    },
                )
            });
            // Forward new cell-level events (the traces are bounded, so
            // a long run forwards at most `TRACE_CAP` per array).
            for (k, cl) in self.clusters.iter().enumerate() {
                let L1System::Shared(sh) = &cl.l1 else {
                    continue;
                };
                let Some(fs) = sh.fault_stats() else {
                    continue;
                };
                for ev in fs.trace.iter().skip(snap.fault_trace_len[k]) {
                    self.tracer.emit(|| {
                        TraceEvent::at(
                            ev.tick,
                            TraceKind::FaultCell {
                                cluster: k,
                                kind: fault_kind_label(&ev.kind).to_string(),
                                addr: ev.addr,
                            },
                        )
                    });
                }
            }
        }
    }

    /// Runs the chip until `total_instructions` have retired chip-wide,
    /// then zeroes every statistic and energy account: caches stay warm,
    /// threads keep their streams, but measurement starts fresh. This is
    /// the "startup phase excluded" treatment the paper applies — without
    /// it, short synthetic runs are dominated by compulsory misses.
    pub fn run_warmup(&mut self, total_instructions: u64) {
        while !self.finished() && self.total_instructions() < total_instructions {
            self.advance();
        }
        self.reset_measurements();
    }

    /// Zeroes all statistics and energy accounts at the current tick.
    pub fn reset_measurements(&mut self) {
        let now = self.tick;
        self.measure_start_tick = now;
        for cl in &mut self.clusters {
            cl.instructions = 0;
            cl.core_dyn_pj = 0.0;
            cl.clock_cycles = 0;
            cl.ifetch_dyn_pj = 0.0;
            cl.interconnect_pj = 0.0;
            cl.core_leak.set_power(now, cl.core_leak.power_mw());
            cl.core_leak.rebase(now);
            cl.measure_start_tick = now;
            cl.l2.reset_measurements();
            match &mut cl.l1 {
                L1System::Shared(sh) => sh.reset_measurements(),
                L1System::Private(p) => p.stats = LevelStats::default(),
            }
            cl.epoch_count = 0;
            cl.active_sum = 0;
            cl.active_min = usize::MAX;
            cl.active_max = 0;
        }
        self.l3.reset_measurements();
        self.mesh.reset_measurements();
        self.mem.reset_measurements();
        self.chip_interconnect_pj = 0.0;
        self.coherence_messages = 0;
        self.migrations = 0;
        self.context_switches = 0;
        // Fault *measurements* reset; the fault-epoch counter and any
        // decommissioned-core state are physical history and persist.
        self.core_fault_stats.reset();
        let total_active: usize = self.clusters.iter().map(|cl| cl.active_cores).sum();
        self.consolidation_trace = vec![(now, total_active)];
    }

    /// Runs to completion with no consolidation decisions.
    pub fn run_to_completion(&mut self) -> RunResult {
        while !self.finished() {
            self.run_epoch();
        }
        self.result()
    }

    /// Assembles the final result at the current tick. Ticks/time cover
    /// the measured window (everything after the last warm-up reset).
    pub fn result(&self) -> RunResult {
        let ticks = self.tick - self.measure_start_tick;
        RunResult {
            ticks,
            time_ps: ticks as f64 * consts::CACHE_PERIOD_PS,
            instructions: self.total_instructions(),
            energy: self.energy_breakdown(),
            stats: self.stats(),
        }
    }

    /// Current energy breakdown over the measured window.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let t = self.tick;
        let measured = (t - self.measure_start_tick) as f64;
        let mut b = EnergyBreakdown::default();
        for cl in &self.clusters {
            b.core_dynamic_pj += cl.core_dyn_pj + cl.clock_cycles as f64 * cl.clock_pj;
            b.core_leakage_pj += cl.core_leak.energy_pj(t);
            b.cache_leakage_pj += cl.cache_leak_mw * measured * consts::CACHE_PERIOD_PS / 1_000.0;
            b.cache_dynamic_pj += cl.ifetch_dyn_pj + cl.l2.dyn_energy_pj;
            b.interconnect_pj += cl.interconnect_pj;
            if let L1System::Shared(s) = &cl.l1 {
                b.cache_dynamic_pj += s.dyn_energy_pj;
                b.interconnect_pj += s.shifter_acc_pj;
            }
        }
        b.cache_dynamic_pj += self.l3.dyn_energy_pj;
        b.cache_leakage_pj += self.l3_leak_mw * measured * consts::CACHE_PERIOD_PS / 1_000.0;
        b.interconnect_pj += self.chip_interconnect_pj + self.mesh.energy_acc_pj;
        b.offchip_pj = self.mem.energy_pj();
        b
    }

    /// Assembles chip statistics (measured window).
    pub fn stats(&self) -> ChipStats {
        let mut s = ChipStats::new(self.clusters.len());
        s.ticks = self.tick - self.measure_start_tick;
        for (k, cl) in self.clusters.iter().enumerate() {
            s.cluster_instructions[k] = cl.instructions;
            s.l2[k] = cl.l2.stats;
            match &cl.l1 {
                L1System::Shared(sh) => s.shared_l1d[k] = sh.stats().clone(),
                L1System::Private(p) => s.private_l1d[k] = p.stats,
            }
            s.active_core_samples[k] = (
                cl.active_sum,
                if cl.active_min == usize::MAX {
                    cl.active_cores
                } else {
                    cl.active_min
                },
                cl.active_max.max(cl.active_cores),
            );
        }
        s.l3 = self.l3.stats;
        s.epochs = self
            .clusters
            .iter()
            .map(|c| c.epoch_count)
            .max()
            .unwrap_or(0);
        s.coherence_messages = self.coherence_messages;
        s.migrations = self.migrations;
        s.context_switches = self.context_switches;
        s.consolidation_trace = self.consolidation_trace.clone();
        let mut faults = self.core_fault_stats.clone();
        for cl in &self.clusters {
            if let L1System::Shared(sh) = &cl.l1 {
                if let Some(fs) = sh.fault_stats() {
                    faults.merge(fs);
                }
            }
        }
        s.faults = faults.summary;
        s.fault_trace = faults.trace;
        s
    }
}

/// Cluster `k` of a chip as a [`remap::CoreMap`]. Besides the mapping,
/// it applies the chip's side of each remap: the migration stall and
/// trace event, the power-on stall, the `active_cores` count and the
/// running-thread index.
struct ClusterMap<'a> {
    cluster: &'a mut Cluster,
    migrations: &'a mut u64,
    tracer: &'a Tracer,
    k: usize,
    now: u64,
}

impl remap::CoreMap for ClusterMap<'_> {
    fn cores(&self) -> usize {
        self.cluster.cores.len()
    }

    fn is_active(&self, c: usize) -> bool {
        self.cluster.cores[c].active
    }

    fn is_faulty(&self, c: usize) -> bool {
        self.cluster.cores[c].faulty
    }

    fn tenants(&self, c: usize) -> &[usize] {
        &self.cluster.cores[c].assigned
    }

    fn gate(&mut self, c: usize) -> Vec<usize> {
        let core = &mut self.cluster.cores[c];
        if core.active {
            self.cluster.active_cores -= 1;
        }
        core.active = false;
        core.current = 0;
        std::mem::take(&mut core.assigned)
    }

    /// Hands the emptied buffer back, so a replay chip that powers cores
    /// off keeps what a re-sync copies into.
    fn reclaim(&mut self, c: usize, drained: Vec<usize>) {
        let assigned = &mut self.cluster.cores[c].assigned;
        if assigned.is_empty() {
            *assigned = drained;
        }
    }

    /// The core stalls for the power-on latency before its first cycle.
    fn wake(&mut self, c: usize) {
        self.cluster.active_cores += 1;
        let core = &mut self.cluster.cores[c];
        core.active = true;
        core.stall_until = self.now + consts::POWER_ON_STALL_CORE_CYCLES * core.mult;
    }

    /// Runnable and stalled threads pay the migration penalty; threads
    /// blocked on sync or an outstanding read keep their state.
    fn assign(&mut self, vc: usize, host: usize) {
        let (now, k) = (self.now, self.k);
        let mult = self.cluster.cores[host].mult;
        self.cluster.cores[host].assigned.push(vc);
        let penalty = (consts::MIGRATION_DRAIN_CORE_CYCLES
            + consts::MIGRATION_TRANSFER_CORE_CYCLES
            + consts::MIGRATION_COLD_STATE_CORE_CYCLES)
            * mult;
        let v = &mut self.cluster.vcores[vc];
        match v.state {
            VcState::Ready => v.state = VcState::StallUntil(now + penalty),
            VcState::StallUntil(t) => v.state = VcState::StallUntil(t.max(now + penalty)),
            _ => {}
        }
        *self.migrations += 1;
        self.tracer.emit(|| {
            TraceEvent::at(
                now,
                TraceKind::Migration {
                    cluster: k,
                    vcore: vc,
                    to_core: host,
                },
            )
        });
    }

    /// A donor whose running-thread index now dangles restarts at 0.
    fn unassign_last(&mut self, c: usize) -> Option<usize> {
        let donor = &mut self.cluster.cores[c];
        let vc = donor.assigned.pop();
        if donor.current >= donor.assigned.len() {
            donor.current = 0;
        }
        vc
    }

    fn retire(&mut self, c: usize) {
        self.cluster.cores[c].faulty = true;
    }
}

/// Epoch-start counter snapshot the trace layer diffs against. Only
/// allocated while a tracer is installed.
struct EpochTraceSnapshot {
    /// Per-cluster shared-L1 counters (`None` for private clusters).
    shared_l1: Vec<Option<SharedL1Stats>>,
    /// Per-cluster L2 counters.
    l2: Vec<LevelStats>,
    /// L3 counters.
    l3: LevelStats,
    /// Aggregate fault counters (core + shared-L1 arrays).
    faults: FaultSummary,
    /// Per-cluster shared-L1 fault-trace length, for forwarding only
    /// events that fired during this epoch.
    fault_trace_len: Vec<usize>,
}

/// Cluster `k`'s view of the memory system below its L1: the
/// inter-cluster directory, the mesh, the L3 and main memory, with the
/// chip's coherence accounts. Borrowed apart from the clusters (see
/// `Chip::split`); the walks take the cluster's own L2 and interconnect
/// account as arguments.
struct Below<'a> {
    k: usize,
    clusters: usize,
    cluster_dir: &'a mut Directory,
    mesh: &'a mut Mesh,
    l3: &'a mut MemLevel,
    mem: &'a mut MainMemory,
    pending_remote: &'a mut Vec<RemoteOp>,
    chip_interconnect_pj: &'a mut f64,
    coherence_messages: &'a mut u64,
}

impl Below<'_> {
    /// Obtains inter-cluster write ownership of `line` for cluster `k`.
    /// Returns the latency adder; remote copies are queued for
    /// invalidation.
    fn acquire_ownership(&mut self, line: u64) -> u64 {
        let k = self.k;
        let out = self.cluster_dir.write(line, k as u8);
        let mut adder = 0;
        if let Some(owner) = out.remote_fetch_from {
            adder += consts::INTER_REMOTE_FETCH_TICKS;
            self.pending_remote
                .push(RemoteOp::Invalidate(owner as usize, line));
            *self.chip_interconnect_pj += 2.0 * consts::INTER_COHERENCE_MSG_PJ;
            *self.coherence_messages += 2;
        }
        let others = match out.remote_fetch_from {
            Some(owner) => out.invalidate_mask & !(1u64 << owner),
            None => out.invalidate_mask,
        };
        if others != 0 {
            adder += consts::INTER_INVALIDATE_TICKS;
            for kk in 0..self.clusters {
                if kk != k && (others >> kk) & 1 == 1 {
                    self.pending_remote.push(RemoteOp::Invalidate(kk, line));
                    *self.chip_interconnect_pj += consts::INTER_COHERENCE_MSG_PJ;
                    *self.coherence_messages += 1;
                }
            }
        }
        adder
    }

    /// The read path below a cluster's L1: inter-cluster directory, the
    /// cluster L2, the L3, then main memory. Returns the tick the data is
    /// back at the cluster's L1 and the state it should be installed in.
    fn read_path(&mut self, l2: &mut MemLevel, line: u64, earliest: u64) -> (u64, LineState) {
        let k = self.k;
        let out = self.cluster_dir.read(line, k as u8);
        // Prior holders may hold the line Exclusive; downgrade them so
        // later silent upgrades stay coherent.
        if out.prior_sharers != 0 {
            for kk in 0..self.clusters {
                if kk != k && (out.prior_sharers >> kk) & 1 == 1 {
                    self.pending_remote.push(RemoteOp::Downgrade(kk, line));
                }
            }
        }
        if let Some(owner) = out.remote_fetch_from {
            self.pending_remote
                .push(RemoteOp::Downgrade(owner as usize, line));
            *self.coherence_messages += 2;
            // Request and response cross the mesh; the remote L2 lookup
            // sits between them.
            let at_owner = self.mesh.traverse(
                Endpoint::Cluster(k),
                Endpoint::Cluster(owner as usize),
                earliest,
            );
            let back = self.mesh.traverse(
                Endpoint::Cluster(owner as usize),
                Endpoint::Cluster(k),
                at_owner + consts::REMOTE_LOOKUP_TICKS,
            );
            // The line also lands in our L2 on the way in.
            let l2_addr = l2.block_addr(line);
            l2.fill(l2_addr, false);
            return (back, LineState::Shared);
        }
        let fill_state = out.fill_state;
        let l2_addr = l2.block_addr(line);
        let (t2, l2_hit) = l2.read(l2_addr, earliest);
        if l2_hit {
            return (t2, fill_state);
        }
        let l3_addr = self.l3.block_addr(line);
        let at_l3 = self.mesh.traverse(Endpoint::Cluster(k), Endpoint::L3, t2);
        let (t3, l3_hit) = self.l3.read(l3_addr, at_l3);
        let below = if l3_hit {
            t3
        } else {
            let tm = self.mem.read(t3);
            self.l3.fill(l3_addr, false);
            tm
        };
        if let Some(ev) = l2.fill(l2_addr, false) {
            if ev.dirty {
                // Victim drains when the eviction is decided (the tag
                // lookup), not when the miss data returns; it also crosses
                // the mesh.
                let wb_at_l3 = self.mesh.traverse(Endpoint::Cluster(k), Endpoint::L3, t2);
                self.l3.write(self.l3.block_addr(ev.addr), wb_at_l3);
            }
        }
        let back = self
            .mesh
            .traverse(Endpoint::L3, Endpoint::Cluster(k), below);
        (back, fill_state)
    }

    /// A private-L1 load of `addr` by core `c`: L1D, intra-cluster
    /// directory, then [`Below::read_path`]. Returns the tick the data is
    /// back, or `None` on an L1 hit.
    fn private_load(
        &mut self,
        l1: &mut PrivateL1,
        l2: &mut MemLevel,
        interconnect_pj: &mut f64,
        c: usize,
        addr: u64,
        now: u64,
    ) -> Option<u64> {
        let (line, prior) = l1.access(c, addr);
        if prior.is_some() {
            return None;
        }
        let intra = l1.dir.read(line, c as u8);
        let (ready, fill_state) = if let Some(owner) = intra.remote_fetch_from {
            l1.l1d[owner as usize].set_state(line, LineState::Shared);
            *interconnect_pj += 2.0 * consts::INTRA_COHERENCE_MSG_PJ;
            *self.coherence_messages += 2;
            (now + consts::INTRA_REMOTE_FETCH_TICKS, LineState::Shared)
        } else {
            let (ready, cluster_state) = self.read_path(l2, line, now + 1);
            let state = if cluster_state == LineState::Shared {
                LineState::Shared
            } else {
                intra.fill_state
            };
            (ready, state)
        };
        l1.fill(c, line, fill_state, l2, now);
        Some(ready)
    }

    /// A private-L1 store of `addr` by core `c`. Returns the tick the
    /// line is held Modified, before the L1D write occupancy.
    fn private_store(
        &mut self,
        l1: &mut PrivateL1,
        l2: &mut MemLevel,
        interconnect_pj: &mut f64,
        c: usize,
        addr: u64,
        now: u64,
    ) -> u64 {
        let (line, prior) = l1.access(c, addr);
        match prior {
            Some(LineState::Modified) => now,
            Some(LineState::Exclusive) => {
                // Upgrade in place; keep directories exact. The masks are
                // normally empty (Exclusive means sole holder) but stale
                // directory entries from silent evictions are tolerated.
                l1.l1d[c].set_state(line, LineState::Modified);
                l1.dir.write(line, c as u8);
                now + self.acquire_ownership(line)
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate intra-cluster sharers, then get
                // inter-cluster ownership.
                l1.l1d[c].set_state(line, LineState::Modified);
                let mask = l1.dir.write(line, c as u8).invalidate_mask;
                let mut ready = now;
                if mask != 0 {
                    ready += consts::INTRA_INVALIDATE_TICKS;
                    *self.coherence_messages +=
                        l1.invalidate_sharers(c, line, mask, interconnect_pj);
                }
                ready + self.acquire_ownership(line)
            }
            None => {
                // Write miss: get the line with ownership, then fill dirty.
                let intra = l1.dir.write(line, c as u8);
                let mut ready = if let Some(owner) = intra.remote_fetch_from {
                    l1.l1d[owner as usize].invalidate(line);
                    *interconnect_pj += 2.0 * consts::INTRA_COHERENCE_MSG_PJ;
                    *self.coherence_messages += 2;
                    now + consts::INTRA_REMOTE_FETCH_TICKS
                } else {
                    self.read_path(l2, line, now + 1).0
                };
                if intra.invalidate_mask != 0 {
                    let mask = intra.invalidate_mask;
                    *self.coherence_messages +=
                        l1.invalidate_sharers(c, line, mask, interconnect_pj);
                    ready += consts::INTRA_INVALIDATE_TICKS;
                }
                ready += self.acquire_ownership(line);
                l1.fill(c, line, LineState::Modified, l2, now);
                ready
            }
        }
    }
}

/// Stable label for a cell-level fault event, used as the `FaultCell`
/// trace kind (core-level kinds never appear in shared-L1 traces, but
/// are labelled anyway for totality).
fn fault_kind_label(kind: &FaultEventKind) -> &'static str {
    match kind {
        FaultEventKind::WriteRetried { .. } => "WriteRetried",
        FaultEventKind::RetryExhausted { .. } => "RetryExhausted",
        FaultEventKind::RetentionFlip { .. } => "RetentionFlip",
        FaultEventKind::EccCorrected => "EccCorrected",
        FaultEventKind::EccDetected => "EccDetected",
        FaultEventKind::UncorrectedEscape => "UncorrectedEscape",
        FaultEventKind::ScrubRewrite => "ScrubRewrite",
        FaultEventKind::ScrubDrop { .. } => "ScrubDrop",
        FaultEventKind::CoreFault { .. } => "CoreFault",
        FaultEventKind::CoreDecommissioned { .. } => "CoreDecommissioned",
    }
}

/// First core-cycle boundary of a core with period `mult` (phase-aligned to
/// `issue`) strictly after `ready`.
fn align_boundary(issue: u64, mult: u64, ready: u64) -> u64 {
    if ready < issue {
        return issue + mult;
    }
    issue + ((ready - issue) / mult + 1) * mult
}

#[cfg(test)]
mod tests {
    use super::*;
    use respin_power::MemTech;
    use respin_variation::FrequencyBand;
    use respin_workloads::Benchmark;

    fn tiny_config(org: L1Org) -> ChipConfig {
        let mut c = ChipConfig::nt_base();
        c.clusters = 2;
        c.cores_per_cluster = 4;
        c.l1_org = org;
        c.instructions_per_thread = Some(3_000);
        c.epoch_instructions = 2_000;
        c
    }

    fn spec() -> respin_workloads::WorkloadSpec {
        Benchmark::Fft.spec()
    }

    #[test]
    fn align_boundary_math() {
        assert_eq!(align_boundary(0, 4, 0), 4);
        assert_eq!(align_boundary(0, 4, 3), 4);
        assert_eq!(align_boundary(0, 4, 4), 8);
        assert_eq!(align_boundary(8, 5, 20), 23);
        assert_eq!(align_boundary(8, 5, 7), 13);
    }

    #[test]
    fn fast_path_is_bit_identical_to_reference_loop() {
        for org in [L1Org::SharedPerCluster, L1Org::Private] {
            let mut fast = Chip::new(tiny_config(org), &spec(), 1);
            let mut reference = Chip::new(tiny_config(org), &spec(), 1);
            reference.set_reference_loop(true);
            fast.run_warmup(2_000);
            reference.run_warmup(2_000);
            let a = fast.run_to_completion();
            let b = reference.run_to_completion();
            assert_eq!(a, b, "stepping loops diverged for {org:?}");
            assert_eq!(reference.ticks_skipped(), 0);
            assert!(
                fast.ticks_skipped() > 0,
                "fast path never engaged for {org:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "SIM-STORE-UNDERFLOW")]
    fn store_slot_underflow_is_a_structured_violation() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        // Stage a completion for a store that was never issued: a fresh
        // chip has pending_stores == 0 everywhere, so draining this slot
        // must surface the structured violation, not clamp to 0.
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
        chip.deferred
            .push(Reverse((chip.tick, Deferred::FreeStoreSlot(0, 0))));
        chip.step();
    }

    #[test]
    fn deferred_completions_never_exceed_occupied_store_slots() {
        // Each queued completion frees a slot that one store occupies, so
        // a core never has more completions queued than `pending_stores`,
        // and the heap never outgrows the capacity it was created with.
        for org in [L1Org::SharedPerCluster, L1Org::Private] {
            let mut chip = Chip::new(tiny_config(org), &spec(), 1);
            let capacity = chip.deferred.capacity();
            assert!(capacity >= chip.config.total_cores() * consts::STORE_BUFFER_DEPTH);
            let mut peak = 0;
            while !chip.finished() {
                chip.advance();
                let mut queued: Vec<Vec<u32>> = chip
                    .clusters
                    .iter()
                    .map(|cl| vec![0; cl.cores.len()])
                    .collect();
                for Reverse((_, Deferred::FreeStoreSlot(k, c))) in chip.deferred.iter() {
                    queued[*k][*c] += 1;
                }
                for (k, cl) in chip.clusters.iter().enumerate() {
                    for (c, core) in cl.cores.iter().enumerate() {
                        assert!(
                            queued[k][c] <= core.pending_stores,
                            "{org:?} core ({k}, {c}) at tick {}: {} completions queued, \
                             {} slots occupied",
                            chip.tick,
                            queued[k][c],
                            core.pending_stores
                        );
                    }
                }
                peak = peak.max(chip.deferred.len());
            }
            assert!(peak > 0, "{org:?} never queued a completion");
            assert_eq!(chip.deferred.capacity(), capacity, "{org:?} heap grew");
        }
    }

    /// A tiny chip that ran to completion with nothing left pending, so
    /// a completion staged on it is the only thing that can wake it.
    fn drained_chip() -> Chip {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        chip.run_to_completion();
        while chip.next_event_tick().is_some() {
            chip.advance();
        }
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
        chip
    }

    #[test]
    fn deferred_completion_fires_at_its_tick() {
        let mut chip = drained_chip();
        chip.set_reference_loop(true);
        let due = chip.tick + 3;
        chip.clusters[0].cores[0].pending_stores = 1;
        chip.deferred
            .push(Reverse((due, Deferred::FreeStoreSlot(0, 0))));
        while chip.tick < due {
            chip.step();
            assert_eq!(chip.clusters[0].cores[0].pending_stores, 1);
        }
        chip.step();
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
        assert!(chip.deferred.is_empty());
    }

    #[test]
    fn idle_skip_stops_at_a_queued_completion() {
        let mut chip = drained_chip();
        let due = chip.tick + 100;
        chip.clusters[0].cores[0].pending_stores = 1;
        chip.deferred
            .push(Reverse((due, Deferred::FreeStoreSlot(0, 0))));
        assert_eq!(chip.next_event_tick(), Some(due));
        let skipped = chip.ticks_skipped();
        chip.advance();
        assert_eq!(chip.ticks_skipped() - skipped, 100);
        assert_eq!(chip.tick, due + 1);
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
    }

    #[test]
    fn completions_due_together_fire_in_one_step() {
        let mut chip = drained_chip();
        chip.set_reference_loop(true);
        let due = chip.tick + 2;
        chip.clusters[0].cores[0].pending_stores = 2;
        chip.clusters[0].cores[1].pending_stores = 1;
        chip.clusters[1].cores[0].pending_stores = 1;
        for (t, k, c) in [(due + 1, 1, 0), (due, 0, 1), (due, 0, 0), (due, 0, 0)] {
            chip.deferred
                .push(Reverse((t, Deferred::FreeStoreSlot(k, c))));
        }
        while chip.tick <= due {
            chip.step();
        }
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
        assert_eq!(chip.clusters[0].cores[1].pending_stores, 0);
        // The later completion is still queued, and fires on its own tick.
        assert_eq!(chip.clusters[1].cores[0].pending_stores, 1);
        assert_eq!(chip.deferred.len(), 1);
        chip.step();
        assert_eq!(chip.clusters[1].cores[0].pending_stores, 0);
        assert!(chip.deferred.is_empty());
    }

    #[test]
    fn idle_skip_reaches_a_far_completion_and_a_near_one_after_it() {
        let mut chip = drained_chip();
        let far = chip.tick + 1_000_000;
        chip.clusters[0].cores[0].pending_stores = 1;
        chip.deferred
            .push(Reverse((far, Deferred::FreeStoreSlot(0, 0))));
        chip.advance();
        assert_eq!(chip.tick, far + 1);
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
        // A completion staged after the long skip is still found.
        let near = chip.tick + 5;
        chip.clusters[0].cores[0].pending_stores = 1;
        chip.deferred
            .push(Reverse((near, Deferred::FreeStoreSlot(0, 0))));
        assert_eq!(chip.next_event_tick(), Some(near));
        chip.advance();
        assert_eq!(chip.tick, near + 1);
        assert_eq!(chip.clusters[0].cores[0].pending_stores, 0);
    }

    #[test]
    fn clone_from_resyncs_queued_completions() {
        // A source with completions in flight, and a destination from
        // another seed at another tick with its own queue.
        let mut src = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        while src.deferred.len() < 2 {
            src.advance();
        }
        let mut dst = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 2);
        for _ in 0..500 {
            dst.advance();
        }
        assert_ne!(dst.tick, src.tick);
        dst.clone_from(&src);
        let mut fresh = src.clone();
        assert_eq!(format!("{dst:?}"), format!("{fresh:?}"));
        assert_eq!(dst.run_to_completion(), fresh.run_to_completion());
        assert_eq!(format!("{dst:?}"), format!("{fresh:?}"));
    }

    #[test]
    #[should_panic(expected = "SIM-LOCK-UNHELD")]
    fn unheld_lock_release_is_a_structured_violation() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        // No thread ever acquired this lock, so releasing it must surface
        // the structured violation rather than a bare `expect`.
        let lock = 9_999;
        assert!(chip.locks.get_mut(lock).is_none());
        let now = chip.tick;
        chip.apply_sync_op(0, 0, 1, SyncKind::LockRel(lock), now);
    }

    #[test]
    #[should_panic(expected = "simulator deadlock")]
    fn fast_path_reports_deadlock_instead_of_spinning() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        // Block every thread on a barrier nobody will ever release: no
        // component owns a wake-up deadline any more.
        for cl in &mut chip.clusters {
            for vc in &mut cl.vcores {
                vc.state = VcState::AtBarrier(999);
            }
        }
        chip.advance();
    }

    #[test]
    fn debug_shows_the_fields_a_field_list_would_leave_out() {
        // The clone/replay tests compare whole chips by `Debug`, so it
        // must see the derived schedules, the scratch buffers and the
        // tracer too, not only the architectural state.
        use std::sync::Arc;

        let chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let base = format!("{chip:?}");
        let mut c = chip.clone();
        c.boundary_scheds.pop();
        assert_ne!(format!("{c:?}"), base, "boundary_scheds");
        let mut c = chip.clone();
        c.scrub_scratch.push((0x40, LineState::Shared));
        assert_ne!(format!("{c:?}"), base, "scrub_scratch");
        let mut c = chip.clone();
        c.set_tracer(Tracer::new(Arc::new(respin_trace::RingSink::unbounded())));
        assert_ne!(format!("{c:?}"), base, "tracer");
        assert_eq!(format!("{:?}", chip.clone()), base);
    }

    #[test]
    fn tracing_is_observation_only() {
        use std::sync::Arc;

        // Two identical chips; one traced, one not. Every simulation
        // outcome must match bit-for-bit — the zero-cost guarantee.
        let mut plain = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let mut traced = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let ring = Arc::new(respin_trace::RingSink::unbounded());
        traced.set_tracer(Tracer::new(ring.clone()));

        let a = plain.run_to_completion();
        let b = traced.run_to_completion();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.energy, b.energy);

        let events = ring.snapshot();
        let epochs = a.stats.epochs;
        assert!(epochs > 0);
        let cluster_epochs = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::ClusterEpoch { .. }))
            .count() as u64;
        let cache_epochs = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::CacheEpoch { .. }))
            .count() as u64;
        let chip_epochs = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::ChipEpoch { .. }))
            .count() as u64;
        assert_eq!(chip_epochs, epochs);
        assert_eq!(cluster_epochs, epochs * 2);
        assert_eq!(
            cache_epochs,
            epochs * 2,
            "shared config samples every cluster"
        );
        // Faults are off in this config: no fault records at all.
        assert!(!events.iter().any(|e| matches!(
            e.kind,
            TraceKind::FaultEpoch { .. } | TraceKind::FaultCell { .. }
        )));
    }

    /// What [`profile_to_completion`] observed.
    struct Profiled {
        result: RunResult,
        acc: crate::profile::PhaseAccum,
        epochs: u64,
        skipped: u64,
    }

    /// Runs a fresh chip to completion through `run_epoch_profiled` with
    /// a counting fake clock, checks that the profiled run serialises
    /// byte-identically to an unprofiled one and that every clock
    /// interval was attributed, and returns what the profiler saw.
    fn profile_to_completion(cfg: &ChipConfig, reference: bool) -> Profiled {
        let mut plain = Chip::new(cfg.clone(), &spec(), 1);
        plain.set_reference_loop(reference);
        let plain = plain.run_to_completion();

        // Each reading is one unit after the last, so every mark
        // attributes exactly one unit and the per-phase totals count the
        // marks.
        let readings = std::cell::Cell::new(0u64);
        let mut clock = || {
            readings.set(readings.get() + 1);
            readings.get()
        };
        let mut chip = Chip::new(cfg.clone(), &spec(), 1);
        chip.set_reference_loop(reference);
        let mut profiler = PhaseProfiler::new(&mut clock);
        let first = readings.get();
        let mut epochs = 0;
        while !chip.finished() {
            chip.run_epoch_profiled(&mut profiler);
            epochs += 1;
        }
        let acc = profiler.acc;
        let result = chip.result();
        assert_eq!(
            serde_json::to_string(&result).expect("serialises"),
            serde_json::to_string(&plain).expect("serialises"),
            "a profiled run must be byte-identical to an unprofiled one"
        );
        assert_eq!(
            acc.total_ns(),
            readings.get() - first,
            "every clock interval must be attributed to some phase"
        );
        Profiled {
            result,
            acc,
            epochs,
            skipped: chip.ticks_skipped(),
        }
    }

    /// Every executed tick marks each phase a fixed number of times, so
    /// under the counting clock a dropped mark moves its unit into a
    /// neighbouring bucket and breaks one of these equalities.
    fn assert_marks_tile_every_tick(p: &Profiled, clusters: u64) {
        let ticks = p.acc.executed_ticks;
        assert_eq!(ticks + p.skipped, p.result.ticks);
        let ns = |phase: Phase| p.acc.ns[phase as usize];
        assert_eq!(ns(Phase::SharedL1Tick), ticks * clusters);
        assert_eq!(ns(Phase::EventDrain), ticks * (clusters + 1));
        assert_eq!(ns(Phase::CoreExecute), ticks);
        assert_eq!(ns(Phase::SyncReplay), ticks);
        assert_eq!(ns(Phase::EpochMaintenance), ticks + p.epochs);
    }

    #[test]
    fn profiling_is_observation_only_and_attributes_every_interval() {
        let cfg = tiny_config(L1Org::SharedPerCluster);
        let p = profile_to_completion(&cfg, false);
        assert!(p.acc.executed_ticks > 0 && p.skipped > 0);
        assert_marks_tile_every_tick(&p, cfg.clusters as u64);
    }

    #[test]
    fn profiling_a_private_l1_chip_attributes_every_interval() {
        let cfg = tiny_config(L1Org::Private);
        let p = profile_to_completion(&cfg, false);
        assert!(p.acc.executed_ticks > 0);
        assert_marks_tile_every_tick(&p, cfg.clusters as u64);
    }

    #[test]
    fn profiling_the_reference_loop_executes_every_tick() {
        let cfg = tiny_config(L1Org::SharedPerCluster);
        let reference = profile_to_completion(&cfg, true);
        assert_eq!(reference.skipped, 0, "the reference loop never skips");
        assert_eq!(reference.acc.executed_ticks, reference.result.ticks);
        assert_marks_tile_every_tick(&reference, cfg.clusters as u64);
        let fast = profile_to_completion(&cfg, false);
        assert_eq!(fast.result, reference.result);
        assert!(fast.acc.executed_ticks < reference.acc.executed_ticks);
    }

    #[test]
    fn profiling_with_faults_and_scrub_attributes_every_interval() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.faults.write_ber = 1e-3;
        cfg.faults.retention_flip_rate = 1e-9;
        cfg.faults.ecc = true;
        cfg.faults.scrub = true;
        let p = profile_to_completion(&cfg, false);
        assert!(p.result.stats.faults.write_faults > 0, "faults must fire");
        assert_marks_tile_every_tick(&p, cfg.clusters as u64);
    }

    #[test]
    fn profiling_a_traced_chip_leaves_the_trace_stream_identical() {
        use std::sync::Arc;

        // The probe runs alongside the epoch trace snapshot and emission;
        // neither may see the other.
        let run = |profiled: bool| {
            let ring = Arc::new(respin_trace::RingSink::unbounded());
            let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
            chip.set_tracer(Tracer::new(ring.clone()));
            let mut t = 0u64;
            let mut clock = || {
                t += 1;
                t
            };
            let mut profiler = profiled.then(|| PhaseProfiler::new(&mut clock));
            while !chip.finished() {
                match &mut profiler {
                    Some(p) => chip.run_epoch_profiled(p),
                    None => chip.run_epoch(),
                };
            }
            (chip.result(), ring.snapshot())
        };
        let (plain, plain_trace) = run(false);
        let (profiled, profiled_trace) = run(true);
        assert_eq!(profiled, plain);
        assert!(!plain_trace.is_empty());
        assert_eq!(profiled_trace, plain_trace);
    }

    #[test]
    fn consolidation_and_migration_are_traced() {
        use std::sync::Arc;

        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.consolidation = true;
        let mut chip = Chip::new(cfg, &spec(), 1);
        let ring = Arc::new(respin_trace::RingSink::unbounded());
        chip.set_tracer(Tracer::new(ring.clone()));
        chip.run_epoch();
        chip.set_active_cores(0, 2);
        let events = ring.snapshot();
        let consolidations: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Consolidation {
                    cluster,
                    from,
                    to,
                    total_active,
                } => Some((cluster, from, to, total_active)),
                _ => None,
            })
            .collect();
        assert_eq!(consolidations, vec![(0, 4, 2, 6)]);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::Migration { cluster: 0, .. })),
            "halving a full cluster must migrate orphaned vcores"
        );
    }

    #[test]
    fn shared_chip_runs_to_completion() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000);
        assert!(res.ticks > 0);
        assert!(res.energy.chip_total_pj() > 0.0);
        let merged = res.stats.shared_l1d_merged();
        assert!(merged.reads > 0);
        assert!(merged.one_cycle_hit_fraction() > 0.5);
    }

    #[test]
    fn private_chip_runs_to_completion() {
        let mut chip = Chip::new(tiny_config(L1Org::Private), &spec(), 1);
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000);
        let l1 = &res.stats.private_l1d[0];
        assert!(l1.hits + l1.misses > 0);
        assert!(
            res.stats.coherence_messages > 0,
            "sharing must cause traffic"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 7);
            chip.run_to_completion()
        };
        let a = run();
        let b = run();
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn clone_forks_identically() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 3);
        chip.run_epoch();
        let mut fork = chip.clone();
        let a = chip.run_epoch();
        let b = fork.run_epoch();
        assert_eq!(a, b);
    }

    #[test]
    fn faults_off_reports_zero_counters() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let res = chip.run_to_completion();
        assert_eq!(res.stats.faults, respin_faults::FaultSummary::default());
        assert!(res.stats.fault_trace.is_empty());
    }

    #[test]
    fn clone_forks_identically_with_faults() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.faults.write_ber = 1e-4;
        cfg.faults.retention_flip_rate = 1e-9;
        cfg.faults.ecc = true;
        cfg.faults.scrub = true;
        let mut chip = Chip::new(cfg, &spec(), 3);
        chip.run_epoch();
        let mut fork = chip.clone();
        let a = chip.run_epoch();
        let b = fork.run_epoch();
        assert_eq!(a, b);
        assert_eq!(chip.stats(), fork.stats());
    }

    #[test]
    fn cell_faults_with_ecc_complete_without_escapes() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.faults.write_ber = 1e-3;
        cfg.faults.retention_flip_rate = 1e-9;
        cfg.faults.ecc = true;
        cfg.faults.scrub = true;
        let mut chip = Chip::new(cfg, &spec(), 1);
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000, "faults must not lose work");
        assert!(res.stats.faults.write_faults > 0, "BER 1e-3 must fire");
        assert!(res.stats.faults.write_retries > 0);
        assert_eq!(
            res.stats.faults.uncorrected_escapes, 0,
            "SECDED is on: nothing may escape silently"
        );
        assert!(res.stats.faults.recovery_energy_pj > 0.0);
        assert!(!res.stats.fault_trace.is_empty());
    }

    #[test]
    fn seeded_bad_core_is_decommissioned_gracefully() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.consolidation = true;
        cfg.faults.seeded_bad_core = Some(1); // cluster 0, core 1
        cfg.faults.core_fault_threshold = 2;
        let mut chip = Chip::new(cfg, &spec(), 1);
        let res = chip.run_to_completion();
        // Degradation is graceful: every instruction still retires.
        assert_eq!(res.instructions, 8 * 3_000);
        assert!(chip.clusters[0].cores[1].faulty);
        assert!(!chip.clusters[0].cores[1].active);
        assert!(chip.clusters[0].cores[1].assigned.is_empty());
        assert_eq!(chip.clusters[0].healthy_cores(), 3);
        assert_eq!(res.stats.faults.cores_decommissioned, 1);
        assert!(res.stats.faults.core_faults >= 2);
        assert_eq!(chip.check_assignment_invariant(0), Ok(()));
        assert_eq!(chip.check_assignment_invariant(1), Ok(()));
        // The decommission is recorded like a consolidation power-off.
        assert!(res
            .stats
            .consolidation_trace
            .iter()
            .any(|&(_, active)| active < 8));
    }

    #[test]
    fn decommission_wakes_replacement_when_last_healthy_active() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.consolidation = true;
        let mut chip = Chip::new(cfg, &spec(), 1);
        chip.run_epoch();
        chip.set_active_cores(0, 1);
        let victim = (0..4)
            .find(|&c| chip.clusters[0].cores[c].active)
            .expect("one active core");
        assert!(chip.decommission_core(0, victim));
        // A healthy replacement core must have been woken; work continues.
        assert_eq!(chip.clusters[0].active_cores, 1);
        assert_eq!(chip.check_assignment_invariant(0), Ok(()));
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000);
    }

    #[test]
    fn decommissioning_a_gated_core_keeps_the_active_count() {
        let mut cfg = tiny_config(L1Org::Private);
        cfg.consolidation = true;
        let mut chip = Chip::new(cfg, &spec(), 1);
        chip.run_epoch();
        chip.set_active_cores(0, 2);
        let gated = (0..4)
            .find(|&c| !chip.clusters[0].cores[c].active)
            .expect("two gated cores");
        let trace_len = chip.consolidation_trace.len();
        assert!(chip.decommission_core(0, gated));
        assert_eq!(chip.clusters[0].active_cores, 2);
        assert_eq!(chip.consolidation_trace.len(), trace_len + 1);
        // Waking every core reaches the 3 healthy ones, never the dead one.
        chip.set_active_cores(0, 4);
        let active = chip.clusters[0].cores.iter().filter(|c| c.active).count();
        assert_eq!((chip.clusters[0].active_cores, active), (3, 3));
        assert!(!chip.clusters[0].cores[gated].active);
        assert_eq!(chip.check_assignment_invariant(0), Ok(()));
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000);
    }

    #[test]
    fn consolidation_moves_and_restores_threads() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.consolidation = true;
        let mut chip = Chip::new(cfg, &spec(), 2);
        chip.run_epoch();
        chip.set_active_cores(0, 2);
        assert_eq!(chip.check_assignment_invariant(0), Ok(()));
        assert_eq!(chip.clusters[0].active_cores, 2);
        assert_eq!(
            chip.clusters[0].cores.iter().filter(|c| c.active).count(),
            2
        );
        let loads: Vec<usize> = chip.clusters[0]
            .cores
            .iter()
            .filter(|c| c.active)
            .map(|c| c.assigned.len())
            .collect();
        assert_eq!(loads.iter().sum::<usize>(), 4);
        assert!(loads.iter().all(|&l| l == 2));
        chip.run_epoch();
        chip.set_active_cores(0, 4);
        assert_eq!(chip.check_assignment_invariant(0), Ok(()));
        assert!(chip.stats().migrations > 0);
        // And the run still completes correctly.
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 3_000);
    }

    #[test]
    fn consolidation_saves_core_leakage() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.consolidation = true;
        let spec = spec();
        let full = Chip::new(cfg.clone(), &spec, 5).run_to_completion();
        let mut half_chip = Chip::new(cfg, &spec, 5);
        half_chip.set_active_cores(0, 2);
        half_chip.set_active_cores(1, 2);
        let half = half_chip.run_to_completion();
        // Halving cores must cut average core-leakage *power*.
        let full_leak_mw = full.energy.core_leakage_pj / full.time_ps * 1_000.0;
        let half_leak_mw = half.energy.core_leakage_pj / half.time_ps * 1_000.0;
        assert!(
            half_leak_mw < full_leak_mw * 0.75,
            "full {full_leak_mw} mW vs half {half_leak_mw} mW"
        );
        // But it should also be slower.
        assert!(half.ticks > full.ticks);
    }

    #[test]
    fn hp_nominal_config_is_faster() {
        // Small working sets so the 3 000-instruction streams are not
        // dominated by compulsory DRAM misses (which hit both designs
        // equally and compress the ratio).
        let mut spec = spec();
        spec.private_ws_bytes = 4 * 1024;
        spec.shared_ws_bytes = 8 * 1024;
        let mut nt = tiny_config(L1Org::Private);
        nt.cache_tech = MemTech::Sram;
        nt.cache_vdd = 0.65;
        let nt_res = Chip::new(nt, &spec, 4).run_to_completion();

        let mut hp = tiny_config(L1Org::Private);
        hp.cache_tech = MemTech::Sram;
        hp.cache_vdd = 1.0;
        hp.core_vdd = 1.0;
        hp.band = FrequencyBand::NOMINAL;
        let hp_res = Chip::new(hp, &spec, 4).run_to_completion();

        // HP runs a 4-6× faster clock but pays more *cycles* per cache
        // miss, so the end-to-end gap lands around 2×.
        assert!(
            (hp_res.ticks as f64) * 1.7 < nt_res.ticks as f64,
            "hp {} vs nt {}",
            hp_res.ticks,
            nt_res.ticks
        );
    }

    #[test]
    fn barrier_synchronises_all_threads() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.instructions_per_thread = Some(5_000);
        let mut spec = Benchmark::Ocean.spec(); // barrier-heavy
        spec.instructions_per_thread = 5_000;
        let mut chip = Chip::new(cfg, &spec, 1);
        let res = chip.run_to_completion();
        assert_eq!(res.instructions, 8 * 5_000);
        // Barrier ids are issued in order, at most one per instruction,
        // so every id the run used lies below its instruction count. A
        // released barrier's next arrival is its first.
        for id in 0..5_000 {
            assert_eq!(chip.barriers.arrive(id), 1, "barrier {id} not released");
        }
    }

    #[test]
    fn locks_are_exclusive_and_all_released() {
        let mut cfg = tiny_config(L1Org::SharedPerCluster);
        cfg.instructions_per_thread = Some(5_000);
        let mut spec = Benchmark::Radiosity.spec(); // lock-heavy
        spec.instructions_per_thread = 5_000;
        let mut chip = Chip::new(cfg, &spec, 1);
        let res = chip.run_to_completion();
        // Lock-bearing streams may retire a few extra instructions: an open
        // critical section always completes before Done so locks balance.
        assert!(res.instructions >= 8 * 5_000);
        assert!(res.instructions < 8 * 5_000 + 100);
        let mut taken = 0;
        for id in 0..spec.locks {
            if let Some(e) = chip.locks.get_mut(id) {
                taken += 1;
                assert!(e.holder.is_none(), "lock {id} still held at exit");
                assert!(e.waiters.is_empty(), "lock {id} still has waiters");
            }
        }
        assert!(taken > 0, "radiosity must take locks");
    }

    #[test]
    fn energy_components_all_positive() {
        let mut chip = Chip::new(tiny_config(L1Org::SharedPerCluster), &spec(), 1);
        let res = chip.run_to_completion();
        let e = res.energy;
        assert!(e.core_dynamic_pj > 0.0);
        assert!(e.core_leakage_pj > 0.0);
        assert!(e.cache_dynamic_pj > 0.0);
        assert!(e.cache_leakage_pj > 0.0);
        assert!(e.interconnect_pj > 0.0);
    }
}
