//! The cluster-shared L1 cache controller (§II-A of the paper).
//!
//! One L1 (instruction or data) is time-multiplexed among all cores of a
//! cluster. The controller keeps, per core, a *request register* (at most
//! one outstanding read — loads are blocking) and a *priority register*
//! (the number of cache cycles left before the response deadline). Each
//! cache cycle the controller:
//!
//! 1. counts arrivals (reads, stores, line fills — Figure 10's histogram),
//! 2. services **one read** through the read port, choosing the pending
//!    request that expires soonest (ties rotate deterministically with the
//!    tick, standing in for the paper's random pick),
//! 3. services **one write** (store drain or line fill) through the write
//!    port in FIFO order.
//!
//! A read that cannot be serviced before its deadline receives a
//! **half-miss**: the core is told to expect the data one core cycle later
//! and the request is rescheduled at top priority (its new deadline is the
//! next core-cycle boundary), exactly the Figure 3 behaviour.

use crate::cache::{CacheArray, LineState};
use crate::journal::{Journal, Journaled};
use crate::stats::SharedL1Stats;
use respin_faults::{ArrayFaults, FaultStats, ReadOutcome, ScrubAction};
use respin_power::{ArrayParams, CacheGeometry};
use std::collections::VecDeque;

/// A pending read in a core's request register.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingRead {
    addr: u64,
    /// Core-cycle boundary the request was issued at.
    issue_tick: u64,
    /// The issuing core's period in ticks.
    mult: u64,
    /// Tick the request becomes visible to the controller.
    arrival_tick: u64,
}

/// The read port's priority key at tick `now` for the read in request
/// register `slot` of `slots`, issued by a core of period `mult` at its
/// boundary `issue_tick`; the arrived read with the smallest key is
/// serviced. The key is the effective deadline, the core's first boundary
/// after `now` (a read past its deadline escalates to the next one: the
/// half-miss's re-initialised priority register), then a tie-break
/// rotated with the tick, `(slot + now) % slots`, standing in for the
/// paper's random pick. respin-verify's arbiter model uses it too.
#[inline]
pub fn read_priority(
    issue_tick: u64,
    mult: u64,
    slot: usize,
    now: u64,
    slots: usize,
) -> (u64, usize) {
    let first = issue_tick + mult;
    let deadline = if now < first {
        first
    } else {
        issue_tick + ((now - issue_tick) / mult + 1) * mult
    };
    (deadline, (slot + now as usize) % slots)
}

/// A queued write-port operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingWrite {
    addr: u64,
    arrival_tick: u64,
    kind: WriteKind,
}

/// What a write-port operation is. Stores carry their issuing core in the
/// variant itself, so a store without a core is unrepresentable (fills
/// have no completion consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    /// Store drain from a core's store buffer.
    Store {
        /// Cluster-local core slot that issued the store.
        core: usize,
    },
    /// Line fill, installed in the given state (set by the inter-cluster
    /// directory outcome, or Modified for write-miss fills).
    Fill(LineState),
}

/// Events the controller hands back to the chip each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Event {
    /// A read hit completed; the core may resume at `completion_tick`.
    ReadDone {
        /// Requesting core slot (cluster-local).
        core: usize,
        /// Tick at which the core's load completes (a core-cycle boundary).
        completion_tick: u64,
    },
    /// A read missed; the chip must fetch from L2 and call
    /// [`SharedL1::enqueue_fill`] + complete the core itself.
    ReadMiss {
        /// Requesting core slot.
        core: usize,
        /// Block-aligned miss address.
        addr: u64,
        /// Core period in ticks (for boundary alignment of the completion).
        mult: u64,
        /// Core-cycle boundary the request was issued at.
        issue_tick: u64,
    },
    /// A store finished occupying its buffer slot.
    StoreDrained {
        /// Issuing core slot.
        core: usize,
        /// Tick the write completes in the array.
        completion_tick: u64,
        /// The line was not already Modified — the chip must confirm or
        /// obtain inter-cluster ownership (upgrade + invalidations).
        needs_ownership: bool,
        /// Block-aligned address (for the inter-cluster directory).
        addr: u64,
    },
    /// A store missed: the chip fetches the line from L2, then re-enqueues
    /// a dirty fill.
    StoreMiss {
        /// Issuing core slot.
        core: usize,
        /// Block-aligned address.
        addr: u64,
    },
    /// A dirty victim must be written back to L2.
    Writeback {
        /// Block-aligned victim address.
        addr: u64,
    },
}

/// The shared L1 controller.
#[derive(Debug, PartialEq)]
pub struct SharedL1 {
    array: CacheArray,
    reads: Vec<Option<PendingRead>>,
    writes: VecDeque<PendingWrite>,
    stats: SharedL1Stats,
    /// Ticks a read takes to produce data (1 for the rounded STT-RAM array,
    /// 2 for nominal-voltage SRAM).
    read_ticks: u64,
    /// Ticks a write occupies before its store-buffer slot frees.
    write_ticks: u64,
    /// Arrivals observed for the tick currently being assembled.
    arrivals_this_tick: u32,
    /// Per-access energies, pJ.
    read_energy_pj: f64,
    write_energy_pj: f64,
    /// Level-shifter energy per request, pJ (0 on single-rail chips).
    shifter_energy_pj: f64,
    /// Request delivery latency (level shifters + wires), ticks.
    delivery_ticks: u64,
    /// Accumulated dynamic energy since last drain, pJ.
    pub(crate) dyn_energy_pj: f64,
    /// Accumulated interconnect (shifter) energy since last drain, pJ.
    pub(crate) shifter_acc_pj: f64,
    /// STT-RAM fault model for this array; `None` when fault injection is
    /// disabled (the guarded hooks then cost nothing and change nothing).
    /// Boxed: the fault state is cold and would otherwise dominate the
    /// controller's footprint inside `L1System`.
    faults: Option<Box<ArrayFaults>>,
}

clone_in_place!(SharedL1 {
    array,
    reads,
    writes,
    stats,
    read_ticks,
    write_ticks,
    arrivals_this_tick,
    read_energy_pj,
    write_energy_pj,
    shifter_energy_pj,
    delivery_ticks,
    dyn_energy_pj,
    shifter_acc_pj,
    faults,
});

impl Journaled for SharedL1 {
    fn pair_journals(
        &mut self,
        base: Option<&Self>,
        f: &mut dyn FnMut(&mut Journal, Option<&Journal>),
    ) {
        self.array.pair_journals(base.map(|b| &b.array), f);
    }
}

impl SharedL1 {
    /// Builds the controller for `cores` cores (fault injection off; see
    /// [`SharedL1::with_faults`]).
    pub fn new(
        geometry: CacheGeometry,
        params: &ArrayParams,
        read_ticks: u64,
        write_ticks: u64,
        cores: usize,
        shifter_energy_pj: f64,
        delivery_ticks: u64,
    ) -> Self {
        Self {
            array: CacheArray::new(geometry),
            reads: vec![None; cores],
            writes: VecDeque::new(),
            stats: SharedL1Stats::default(),
            read_ticks,
            write_ticks,
            arrivals_this_tick: 0,
            read_energy_pj: params.read_energy_pj,
            write_energy_pj: params.write_energy_pj,
            shifter_energy_pj,
            delivery_ticks,
            dyn_energy_pj: 0.0,
            shifter_acc_pj: 0.0,
            faults: None,
        }
    }

    /// Attaches (or detaches) the STT-RAM fault model for this array.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<ArrayFaults>) -> Self {
        self.faults = faults.map(Box::new);
        self
    }

    /// True when `core`'s request register is free.
    pub fn can_accept_read(&self, core: usize) -> bool {
        self.reads[core].is_none()
    }

    /// Core `core` (period `mult` ticks) issues a read of `addr` at the
    /// core-cycle boundary `issue_tick`. The request reaches the controller
    /// after the level-shifter/wire delivery delay.
    pub fn issue_read(&mut self, core: usize, addr: u64, issue_tick: u64, mult: u64) {
        debug_assert!(self.reads[core].is_none(), "request register busy");
        self.reads[core] = Some(PendingRead {
            addr: self.array.block_addr(addr),
            issue_tick,
            mult,
            arrival_tick: issue_tick + self.delivery_ticks,
        });
        self.stats.reads += 1;
        self.shifter_acc_pj += self.shifter_energy_pj;
    }

    /// Core `core` drains a store of `addr`; it reaches the controller at
    /// `issue_tick + delivery`.
    pub fn issue_store(&mut self, core: usize, addr: u64, issue_tick: u64) {
        self.writes.push_back(PendingWrite {
            addr: self.array.block_addr(addr),
            arrival_tick: issue_tick + self.delivery_ticks,
            kind: WriteKind::Store { core },
        });
        self.stats.writes += 1;
        self.shifter_acc_pj += self.shifter_energy_pj;
    }

    /// The chip enqueues a line fill (after an L2 round-trip) that becomes
    /// serviceable at `ready_tick`, installed in `state` (from the
    /// inter-cluster directory: Shared when other clusters hold copies).
    pub fn enqueue_fill(&mut self, addr: u64, ready_tick: u64, state: LineState) {
        self.writes.push_back(PendingWrite {
            addr,
            arrival_tick: ready_tick,
            kind: WriteKind::Fill(state),
        });
        self.stats.writes += 1;
    }

    /// Earliest tick at or after `now` at which this controller has
    /// work: the minimum `arrival_tick` over every pending read and
    /// write, clamped to `now`. `None` when both ports are idle. An
    /// arrival `<= now` means a backlog is still draining (the ports
    /// service one operation per cycle), so the controller is busy
    /// *every* cycle until the queues catch up; the scan returns
    /// `Some(now)` as soon as it sees one, instead of looking on for an
    /// exact minimum the clamp would discard.
    ///
    /// This is the controller's contribution to the chip's next-wakeup
    /// computation: on any tick strictly before this one, [`tick`] would
    /// only record a zero-arrival cycle (see
    /// [`SharedL1Stats::record_idle_cycles`]).
    ///
    /// [`tick`]: SharedL1::tick
    pub fn next_work_tick_from(&self, now: u64) -> Option<u64> {
        let reads = self.reads.iter().flatten().map(|r| r.arrival_tick);
        let writes = self.writes.iter().map(|w| w.arrival_tick);
        let mut min = u64::MAX;
        for t in reads.chain(writes) {
            if t <= now {
                return Some(now);
            }
            min = min.min(t);
        }
        if min == u64::MAX {
            None
        } else {
            Some(min)
        }
    }

    /// Batched equivalent of `n` calls to [`SharedL1::tick`] on cycles
    /// where no request is pending or arriving: only the Figure 10
    /// arrival histogram advances. The caller (the chip's fast path)
    /// guarantees the skipped window ends strictly before
    /// [`next_work_tick_from`](SharedL1::next_work_tick_from).
    pub fn note_idle_ticks(&mut self, n: u64) {
        self.stats.record_idle_cycles(n);
    }

    /// Advances the controller by one cache cycle, appending events to
    /// `events`.
    pub fn tick(&mut self, now: u64, events: &mut Vec<L1Event>) {
        // One fused pass per port queue does the arrival accounting
        // (Figure 10), the read-port pick, and the write-port FIFO
        // position — the three scans the pre-fusion code ran
        // separately. All three read the same pre-service state, so
        // fusing them is exact.
        let mut arrivals = 0usize;

        // Read port: pick the arrived request with the smallest
        // `read_priority` key (the one that expires soonest).
        let mut best: Option<((u64, usize), usize)> = None; // (key, slot)
        for (slot, r) in self.reads.iter().enumerate() {
            if let Some(r) = r {
                if r.arrival_tick > now {
                    continue;
                }
                if r.arrival_tick == now {
                    arrivals += 1;
                }
                let key = read_priority(r.issue_tick, r.mult, slot, now, self.reads.len());
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, slot));
                }
            }
        }

        // Write port: FIFO among arrived operations.
        let mut write_pos: Option<usize> = None;
        for (i, w) in self.writes.iter().enumerate() {
            if w.arrival_tick > now {
                continue;
            }
            if w.arrival_tick == now {
                arrivals += 1;
            }
            if write_pos.is_none() {
                write_pos = Some(i);
            }
        }
        self.stats.record_arrivals(arrivals);

        if let Some((_, slot)) = best {
            let req = self.reads[slot].take().expect("slot checked");
            self.dyn_energy_pj += self.read_energy_pj;
            match self.array.touch(req.addr) {
                Some(_) => {
                    // Retention decay + ECC on the data read out of the
                    // array (no-op when fault injection is off).
                    let fault = self
                        .faults
                        .as_mut()
                        .map_or(ReadOutcome::Clean, |f| f.on_read(req.addr, now));
                    if fault == ReadOutcome::Refetch {
                        // SECDED detected an uncorrectable error: the
                        // line is dead. Drop it and refetch via the
                        // ordinary miss path.
                        self.array.invalidate(req.addr);
                        self.stats.read_misses += 1;
                        events.push(L1Event::ReadMiss {
                            core: slot,
                            addr: req.addr,
                            mult: req.mult,
                            issue_tick: req.issue_tick,
                        });
                    } else {
                        if fault == ReadOutcome::Corrected {
                            // The corrected line is written back through
                            // the (pipelined) write port: energy only.
                            self.charge_recovery(self.write_energy_pj);
                        }
                        // Data ready at now + read_ticks - 1 (end of
                        // tick); the core consumes it at its next cycle
                        // boundary.
                        let data_ready = now + self.read_ticks - 1;
                        let k = (data_ready - req.issue_tick) / req.mult + 1;
                        let completion = req.issue_tick + k * req.mult;
                        self.stats.record_read_hit(k);
                        if k > 1 {
                            self.stats.half_misses += 1;
                        }
                        events.push(L1Event::ReadDone {
                            core: slot,
                            completion_tick: completion,
                        });
                    }
                }
                None => {
                    self.stats.read_misses += 1;
                    events.push(L1Event::ReadMiss {
                        core: slot,
                        addr: req.addr,
                        mult: req.mult,
                        issue_tick: req.issue_tick,
                    });
                }
            }
        }
        // Requests that survive past a deadline without service are counted
        // as half-misses when finally serviced (the 2-cycle bucket of the
        // service histogram); `read_priority` already escalates them
        // to the next core-cycle boundary, the paper's re-initialised
        // priority register.

        // Service the write port (position found in the fused scan; the
        // read path above never touches the write queue).
        if let Some(pos) = write_pos {
            let w = self.writes.remove(pos).expect("position valid");
            self.dyn_energy_pj += self.write_energy_pj;
            match w.kind {
                WriteKind::Store { core } => {
                    let prior = self.array.touch(w.addr);
                    if let Some(state) = prior {
                        self.array.set_state(w.addr, LineState::Modified);
                        // Write-verify-retry: each extra attempt occupies
                        // the write port for another write latency, so
                        // the store-buffer slot frees that much later.
                        let retries = self.fault_write(w.addr, now);
                        events.push(L1Event::StoreDrained {
                            core,
                            completion_tick: now + self.write_ticks * (1 + u64::from(retries)),
                            needs_ownership: state != LineState::Modified,
                            addr: w.addr,
                        });
                    } else {
                        events.push(L1Event::StoreMiss { core, addr: w.addr });
                    }
                }
                WriteKind::Fill(state) => {
                    if let Some(ev) = self.array.fill(w.addr, state) {
                        if let Some(f) = self.faults.as_mut() {
                            f.on_invalidate(ev.addr);
                        }
                        if ev.dirty {
                            events.push(L1Event::Writeback { addr: ev.addr });
                        }
                    }
                    // Fill retries are pipelined behind the port (no
                    // consumer waits on a fill): charge energy only.
                    self.fault_write(w.addr, now);
                }
            }
        }
    }

    /// Runs the write-verify-retry model for a write landing at `now`;
    /// returns the retry count. Retry energy is charged to the array's
    /// dynamic energy (and tracked as recovery energy).
    fn fault_write(&mut self, addr: u64, now: u64) -> u32 {
        let Some(f) = self.faults.as_mut() else {
            return 0;
        };
        let out = f.on_write(addr, now);
        if out.retries > 0 {
            let pj = self.write_energy_pj * f64::from(out.retries);
            self.dyn_energy_pj += pj;
            f.stats.summary.recovery_energy_pj += pj;
        }
        out.retries
    }

    /// Charges `pj` of recovery energy (ECC rewrite, scrub traffic) to
    /// the array's dynamic energy.
    fn charge_recovery(&mut self, pj: f64) {
        self.dyn_energy_pj += pj;
        if let Some(f) = self.faults.as_mut() {
            f.stats.summary.recovery_energy_pj += pj;
        }
    }

    /// Epoch-boundary scrub: walks every resident line, refreshing
    /// retention age, rewriting ECC-correctable lines, and dropping
    /// detectably-dead ones. Returns the number of lines visited. No-op
    /// unless fault injection with scrubbing is enabled.
    ///
    /// `scratch` snapshots the resident-line walk (scrub actions
    /// invalidate lines mid-iteration); the chip lends one persistent
    /// buffer to every scrub. It must be empty on entry and is left empty
    /// on return.
    pub fn scrub_with(&mut self, now: u64, scratch: &mut Vec<(u64, LineState)>) -> u64 {
        debug_assert!(scratch.is_empty(), "scrub scratch leaked between calls");
        if self.faults.as_ref().is_none_or(|f| !f.config().scrub) {
            return 0;
        }
        scratch.extend(self.array.resident_addrs());
        let mut visited = 0u64;
        for (addr, state) in scratch.drain(..) {
            // One array read per scrubbed line.
            self.charge_recovery(self.read_energy_pj);
            let action = match self.faults.as_mut() {
                Some(f) => f.scrub_line(addr, state.is_dirty(), now),
                None => break,
            };
            match action {
                ScrubAction::Refreshed => {}
                ScrubAction::Rewritten => self.charge_recovery(self.write_energy_pj),
                ScrubAction::Dropped { .. } => {
                    self.array.invalidate(addr);
                }
            }
            visited += 1;
        }
        visited
    }

    /// Fault counters and trace, when fault injection is enabled.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| &f.stats)
    }

    /// Probes without side effects (used by the fill path to avoid
    /// re-fetching resident lines).
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        self.array.probe(addr)
    }

    /// Invalidates a line (inter-cluster coherence). Returns its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        if let Some(f) = self.faults.as_mut() {
            f.on_invalidate(addr);
        }
        self.array.invalidate(addr)
    }

    /// Downgrades a line to Shared if present (a remote cluster read it).
    pub fn downgrade(&mut self, addr: u64) {
        if self.array.probe(addr).is_some() {
            self.array.set_state(addr, LineState::Shared);
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SharedL1Stats {
        &self.stats
    }

    /// Zeroes statistics and energy accumulators (measurement warm-up).
    /// Fault *state* (line health) persists — only its counters reset.
    pub fn reset_measurements(&mut self) {
        self.stats = SharedL1Stats::default();
        self.dyn_energy_pj = 0.0;
        self.shifter_acc_pj = 0.0;
        if let Some(f) = self.faults.as_mut() {
            f.reset_measurements();
        }
    }

    /// Write-latency in ticks (for store-buffer completion modelling).
    pub fn write_ticks(&self) -> u64 {
        self.write_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respin_power::{array_params, CacheGeometry, MemTech};

    fn controller(cores: usize) -> SharedL1 {
        let g = CacheGeometry::new(256 * 1024, 32, 4);
        let p = array_params(MemTech::SttRam, g, 1.0);
        SharedL1::new(g, &p, 1, 14, cores, 0.6, 2)
    }

    fn faulty_controller(cores: usize, cfg: respin_faults::FaultConfig) -> SharedL1 {
        let g = CacheGeometry::new(256 * 1024, 32, 4);
        let p = array_params(MemTech::SttRam, g, 1.0);
        let faults = ArrayFaults::new(cfg, 42, 0, g.block_bytes * 8);
        SharedL1::new(g, &p, 1, 14, cores, 0.6, 2).with_faults(Some(faults))
    }

    fn run_tick(c: &mut SharedL1, now: u64) -> Vec<L1Event> {
        let mut ev = Vec::new();
        c.tick(now, &mut ev);
        ev
    }

    /// Warm a line into the array via the fill path.
    fn warm(c: &mut SharedL1, addr: u64) {
        c.enqueue_fill(addr, 0, LineState::Exclusive);
        run_tick(c, 0);
    }

    #[test]
    fn next_work_tick_tracks_pending_arrivals() {
        let mut c = controller(4);
        assert_eq!(c.next_work_tick_from(0), None);
        // delivery_ticks = 1 for this geometry/mult (see constructor).
        c.issue_read(0, 0x1000, 4, 4);
        let read_arrival = c.next_work_tick_from(0).expect("read pending");
        assert!(read_arrival > 4, "delivery delay pushes arrival past issue");
        c.enqueue_fill(0x2000, 3, LineState::Exclusive);
        assert_eq!(
            c.next_work_tick_from(0),
            Some(3),
            "earliest of read and fill"
        );
        assert_eq!(c.next_work_tick_from(5), Some(5), "a backlog clamps to now");
        // Service everything; the controller goes quiet again.
        let mut t = 0;
        while c.next_work_tick_from(t).is_some() {
            run_tick(&mut c, t);
            t += 1;
            assert!(t < 100, "controller never drained");
        }
        assert_eq!(c.next_work_tick_from(t), None);
    }

    #[test]
    fn scrub_with_a_reused_scratch_matches_a_fresh_one() {
        let cfg = respin_faults::FaultConfig {
            scrub: true,
            ..respin_faults::FaultConfig::off()
        };
        let mut a = faulty_controller(4, cfg);
        let mut b = faulty_controller(4, cfg);
        for addr in [0x1000u64, 0x2000, 0x3000] {
            warm(&mut a, addr);
            warm(&mut b, addr);
        }
        // `b` walks twice with one buffer, `a` with a fresh one each time.
        let mut reused = Vec::new();
        for now in [5, 10] {
            let va = a.scrub_with(now, &mut Vec::new());
            let vb = b.scrub_with(now, &mut reused);
            assert_eq!(va, vb);
            assert!(reused.is_empty(), "scratch must be drained on return");
        }
        assert_eq!(a, b, "a reused buffer leaves the same controller");
    }

    #[test]
    fn single_read_hit_completes_in_one_core_cycle() {
        let mut c = controller(4);
        warm(&mut c, 0x1000);
        // Core 0, mult 4, issues at its boundary tick 4.
        c.issue_read(0, 0x1000, 4, 4);
        let mut all = vec![];
        for t in 1..=8 {
            all.extend(run_tick(&mut c, t));
        }
        assert!(
            all.contains(&L1Event::ReadDone {
                core: 0,
                completion_tick: 8
            }),
            "{all:?}"
        );
        assert_eq!(c.stats().read_hit_core_cycles, [1, 0, 0]);
        assert_eq!(c.stats().half_misses, 0);
    }

    #[test]
    fn contention_produces_half_miss() {
        // Three cores, all mult 4, all issue at tick 0 to warm lines; only
        // one read can be serviced per tick, arriving at tick 2 ⇒ ticks 2
        // and 3 service two of them, the third slips to tick 4 ⇒ 2 core
        // cycles (a half-miss).
        let mut c = controller(4);
        for a in [0x100, 0x200, 0x300] {
            warm(&mut c, a);
        }
        c.issue_read(0, 0x100, 0, 4);
        c.issue_read(1, 0x200, 0, 4);
        c.issue_read(2, 0x300, 0, 4);
        let mut all = vec![];
        for t in 1..=10 {
            all.extend(run_tick(&mut c, t));
        }
        let completions: Vec<u64> = all
            .iter()
            .filter_map(|e| match e {
                L1Event::ReadDone {
                    completion_tick, ..
                } => Some(*completion_tick),
                _ => None,
            })
            .collect();
        assert_eq!(completions.len(), 3, "{all:?}");
        assert_eq!(c.stats().half_misses, 1);
        assert_eq!(c.stats().read_hit_core_cycles, [2, 1, 0]);
        // Two complete at the first boundary (tick 4), one at tick 8.
        assert_eq!(
            {
                let mut v = completions.clone();
                v.sort_unstable();
                v
            },
            vec![4, 4, 8]
        );
    }

    #[test]
    fn faster_core_wins_ties() {
        // Core 0 at mult 4 and core 1 at mult 6 issue together; the faster
        // core's deadline is earlier so it must be serviced first.
        let mut c = controller(2);
        warm(&mut c, 0x100);
        warm(&mut c, 0x200);
        c.issue_read(1, 0x200, 0, 6);
        c.issue_read(0, 0x100, 0, 4);
        let ev = run_tick(&mut c, 2);
        assert_eq!(
            ev,
            vec![L1Event::ReadDone {
                core: 0,
                completion_tick: 4
            }]
        );
    }

    #[test]
    fn read_miss_reported_and_fill_installs() {
        let mut c = controller(2);
        c.issue_read(0, 0xAB40, 0, 4);
        let mut all = vec![];
        for t in 1..=3 {
            all.extend(run_tick(&mut c, t));
        }
        assert!(matches!(all[..], [L1Event::ReadMiss { core: 0, addr, .. }, ..] if addr == 0xAB40));
        // Chip fetches from L2 and enqueues the fill.
        c.enqueue_fill(0xAB40, 10, LineState::Exclusive);
        for t in 4..=10 {
            run_tick(&mut c, t);
        }
        assert_eq!(c.probe(0xAB40), Some(LineState::Exclusive));
    }

    #[test]
    fn store_hit_marks_dirty_and_drains() {
        let mut c = controller(2);
        warm(&mut c, 0x500);
        c.issue_store(0, 0x500, 0);
        let mut all = vec![];
        for t in 1..=3 {
            all.extend(run_tick(&mut c, t));
        }
        assert!(matches!(
            all[..],
            [L1Event::StoreDrained {
                core: 0,
                completion_tick: 16,
                needs_ownership: true,
                ..
            }]
        ));
        assert_eq!(c.probe(0x500), Some(LineState::Modified));
    }

    #[test]
    fn store_miss_reported() {
        let mut c = controller(2);
        c.issue_store(0, 0x900, 0);
        let mut all = vec![];
        for t in 1..=3 {
            all.extend(run_tick(&mut c, t));
        }
        assert!(matches!(
            all[..],
            [L1Event::StoreMiss {
                core: 0,
                addr: 0x900
            }]
        ));
    }

    #[test]
    fn dirty_eviction_generates_writeback() {
        // 256 KB, 4-way, 32 B ⇒ 2048 sets; addresses 65536 apart collide.
        let mut c = controller(2);
        let stride = 32 * 2048;
        for i in 0..4 {
            c.enqueue_fill(i * stride, 0, LineState::Modified);
        }
        for t in 0..4 {
            run_tick(&mut c, t);
        }
        // Fifth fill evicts a dirty line.
        c.enqueue_fill(4 * stride, 4, LineState::Exclusive);
        let ev = run_tick(&mut c, 4);
        assert!(
            ev.iter()
                .any(|e| matches!(e, L1Event::Writeback { addr } if *addr % stride == 0)),
            "{ev:?}"
        );
    }

    #[test]
    fn arrival_histogram_counts_all_request_kinds() {
        let mut c = controller(4);
        warm(&mut c, 0x100); // tick 0: one write arrival
        c.issue_read(0, 0x100, 0, 4); // arrives tick 2
        c.issue_store(1, 0x100, 0); // arrives tick 2
        run_tick(&mut c, 1); // 0 arrivals
        run_tick(&mut c, 2); // 2 arrivals
        assert_eq!(c.stats().arrivals[0], 1);
        assert_eq!(c.stats().arrivals[1], 1); // the warming fill at tick 0
        assert_eq!(c.stats().arrivals[2], 1);
    }

    #[test]
    fn one_outstanding_read_per_core() {
        let mut c = controller(2);
        assert!(c.can_accept_read(0));
        c.issue_read(0, 0x100, 0, 4);
        assert!(!c.can_accept_read(0));
        assert!(c.can_accept_read(1));
    }

    #[test]
    fn store_retries_extend_completion_by_write_latency() {
        // Per-bit BER 0.9 over 256 bits ⇒ every attempt fails, so the
        // budget is always exhausted and retries == budget.
        let mut cfg = respin_faults::FaultConfig::off();
        cfg.write_ber = 0.9;
        cfg.retry_budget = 2;
        let mut c = faulty_controller(2, cfg);
        warm(&mut c, 0x500);
        c.issue_store(0, 0x500, 0);
        let mut all = vec![];
        for t in 1..=3 {
            all.extend(run_tick(&mut c, t));
        }
        // Store serviced at tick 2: 1 initial + 2 retried writes ⇒ the
        // slot frees at 2 + 14 × 3 = 44.
        assert!(
            matches!(
                all[..],
                [L1Event::StoreDrained {
                    core: 0,
                    completion_tick: 44,
                    ..
                }]
            ),
            "{all:?}"
        );
        let fs = c.fault_stats().expect("faults enabled");
        assert!(fs.summary.write_retries >= 2);
        assert!(fs.summary.recovery_energy_pj > 0.0);
    }

    #[test]
    fn detected_double_error_becomes_read_miss() {
        // Extreme retention decay + ECC: a line read long after its fill
        // carries ≥2 flips ⇒ SECDED detects, line dropped, miss emitted.
        let mut cfg = respin_faults::FaultConfig::off();
        cfg.retention_flip_rate = 1e-2;
        cfg.ecc = true;
        let mut c = faulty_controller(2, cfg);
        warm(&mut c, 0x700);
        c.issue_read(0, 0x700, 10_000, 4);
        let ev = run_tick(&mut c, 10_002);
        assert!(
            matches!(
                ev[..],
                [L1Event::ReadMiss {
                    core: 0,
                    addr: 0x700,
                    ..
                }]
            ),
            "{ev:?}"
        );
        assert_eq!(c.probe(0x700), None);
        assert_eq!(c.stats().read_misses, 1);
        assert!(c.fault_stats().expect("faults on").summary.ecc_detected >= 1);
    }

    #[test]
    fn scrub_visits_resident_lines_and_is_gated() {
        // Scrub disabled ⇒ no-op even with faults present.
        let mut cfg = respin_faults::FaultConfig::off();
        cfg.retention_flip_rate = 1e-9;
        cfg.ecc = true;
        let mut c = faulty_controller(2, cfg);
        warm(&mut c, 0x100);
        assert_eq!(c.scrub_with(10, &mut Vec::new()), 0);

        cfg.scrub = true;
        let mut c = faulty_controller(2, cfg);
        warm(&mut c, 0x100);
        warm(&mut c, 0x200);
        assert_eq!(c.scrub_with(10, &mut Vec::new()), 2);
        assert_eq!(
            c.fault_stats().expect("faults on").summary.scrubbed_lines,
            2
        );

        // Fault layer absent ⇒ no-op.
        let mut c = controller(2);
        warm(&mut c, 0x100);
        assert_eq!(c.scrub_with(10, &mut Vec::new()), 0);
    }
}
