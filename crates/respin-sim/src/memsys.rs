//! L2 / L3 / main-memory levels.
//!
//! These levels are latency/bandwidth models around [`CacheArray`]s: each
//! level accepts at most one request per `accept_interval` ticks (a
//! pipelined array) and returns data `read_ticks` after acceptance. Fill
//! and writeback traffic updates tag state immediately — only the timing of
//! the *demand* path is modelled precisely, which is what the paper's
//! figures depend on.
//!
//! **Fast-path note** (DESIGN.md §12): these levels are *passive* — they
//! have no per-tick work of their own, only an `accept_interval` gate and
//! a latency folded into the requester's completion tick. The delay a
//! level imposes is always carried by whoever is waiting on it (a
//! shared-L1 pending read's `arrival_tick`, a core's `StallUntil`), so
//! `MemLevel` contributes no deadline of its own to
//! `Chip::next_event_tick` and the next-wakeup invariant holds here
//! trivially.

use crate::cache::{CacheArray, Evicted, LineState};
use crate::journal::{Journal, Journaled};
use crate::stats::LevelStats;
use respin_power::{ArrayParams, CacheGeometry};

/// One cache level below the L1s (L2 or L3).
#[derive(Debug, PartialEq)]
pub struct MemLevel {
    array: CacheArray,
    /// Data latency after acceptance, ticks.
    pub read_ticks: u64,
    /// Write occupancy, ticks.
    pub write_ticks: u64,
    /// Minimum spacing between accepted requests, ticks.
    accept_interval: u64,
    next_free: u64,
    /// Per-access energies, pJ.
    read_energy_pj: f64,
    write_energy_pj: f64,
    /// Hit/miss counters.
    pub stats: LevelStats,
    /// Dynamic energy accumulated since last drain, pJ.
    pub(crate) dyn_energy_pj: f64,
}

clone_in_place!(MemLevel {
    array,
    read_ticks,
    write_ticks,
    accept_interval,
    next_free,
    read_energy_pj,
    write_energy_pj,
    stats,
    dyn_energy_pj,
});

impl Journaled for MemLevel {
    fn pair_journals(
        &mut self,
        base: Option<&Self>,
        f: &mut dyn FnMut(&mut Journal, Option<&Journal>),
    ) {
        self.array.pair_journals(base.map(|b| &b.array), f);
    }
}

impl MemLevel {
    /// Builds the level.
    pub fn new(
        geometry: CacheGeometry,
        params: &ArrayParams,
        read_ticks: u64,
        write_ticks: u64,
        accept_interval: u64,
    ) -> Self {
        Self {
            array: CacheArray::new(geometry),
            read_ticks,
            write_ticks,
            accept_interval,
            next_free: 0,
            read_energy_pj: params.read_energy_pj,
            write_energy_pj: params.write_energy_pj,
            stats: LevelStats::default(),
            dyn_energy_pj: 0.0,
        }
    }

    /// Demand read arriving at `earliest`. Returns `(data_ready_tick, hit)`.
    /// On a miss the caller resolves the next level and then calls
    /// [`Self::fill`]; `data_ready_tick` is then the tick the *tag lookup*
    /// completed (the miss detection point).
    pub fn read(&mut self, addr: u64, earliest: u64) -> (u64, bool) {
        let start = self.next_free.max(earliest);
        self.next_free = start + self.accept_interval;
        self.dyn_energy_pj += self.read_energy_pj;
        let hit = self.array.touch(addr).is_some();
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        (start + self.read_ticks, hit)
    }

    /// Writeback or store propagation arriving at `earliest`. Returns the
    /// completion tick. Write misses allocate (the line just left a level
    /// above; we install it dirty).
    pub fn write(&mut self, addr: u64, earliest: u64) -> (u64, Option<Evicted>) {
        let start = self.next_free.max(earliest);
        self.next_free = start + self.accept_interval;
        self.dyn_energy_pj += self.write_energy_pj;
        let evicted = if self.array.touch(addr).is_some() {
            self.array.set_state(addr, LineState::Modified);
            None
        } else {
            self.stats.misses += 1;
            self.array.fill(addr, LineState::Modified)
        };
        (start + self.write_ticks, evicted)
    }

    /// Installs a line fetched from below; clean unless `dirty`.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Evicted> {
        self.dyn_energy_pj += self.write_energy_pj;
        self.array.fill(
            addr,
            if dirty {
                LineState::Modified
            } else {
                LineState::Exclusive
            },
        )
    }

    /// Block-aligns an address to this level's block size.
    pub fn block_addr(&self, addr: u64) -> u64 {
        self.array.block_addr(addr)
    }

    /// Probe without side effects.
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        self.array.probe(addr)
    }

    /// Invalidate (inter-cluster coherence). Returns the state if present.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        self.array.invalidate(addr)
    }

    /// Zeroes statistics and energy accumulators (measurement warm-up).
    pub fn reset_measurements(&mut self) {
        self.stats = LevelStats::default();
        self.dyn_energy_pj = 0.0;
    }
}

/// Main memory: fixed latency, unbounded bandwidth (the workloads' L3 miss
/// rates are tiny; modelling DRAM channels would add nothing here).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MainMemory {
    /// Accesses served (for the off-chip energy account).
    pub accesses: u64,
}

impl MainMemory {
    /// Read: data ready after the fixed DRAM latency.
    pub fn read(&mut self, earliest: u64) -> u64 {
        self.accesses += 1;
        earliest + crate::consts::MEM_LATENCY_TICKS
    }

    /// Total off-chip energy so far, pJ.
    pub fn energy_pj(&self) -> f64 {
        self.accesses as f64 * crate::consts::MEM_ACCESS_ENERGY_PJ
    }

    /// Zeroes the access count (measurement warm-up).
    pub fn reset_measurements(&mut self) {
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respin_power::{array_params, MemTech};

    fn level() -> MemLevel {
        let g = CacheGeometry::new(64 * 1024, 64, 8);
        let p = array_params(MemTech::SttRam, g, 1.0);
        MemLevel::new(g, &p, 6, 14, 2)
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut l = level();
        let (t, hit) = l.read(0x1000, 10);
        assert!(!hit);
        assert_eq!(t, 16);
        l.fill(0x1000, false);
        let (t2, hit2) = l.read(0x1000, 20);
        assert!(hit2);
        assert_eq!(t2, 26);
        assert_eq!(l.stats.hits, 1);
        assert_eq!(l.stats.misses, 1);
    }

    #[test]
    fn bandwidth_backpressure() {
        let mut l = level();
        let (t1, _) = l.read(0x0, 0);
        let (t2, _) = l.read(0x40, 0);
        let (t3, _) = l.read(0x80, 0);
        assert_eq!(t1, 6);
        assert_eq!(t2, 8); // accepted 2 ticks later
        assert_eq!(t3, 10);
    }

    #[test]
    fn write_allocates_dirty() {
        let mut l = level();
        let (_, ev) = l.write(0x2000, 0);
        assert!(ev.is_none());
        assert_eq!(l.probe(0x2000), Some(LineState::Modified));
    }

    #[test]
    fn dirty_eviction_surfaces() {
        // 64 KB, 8-way, 64 B ⇒ 128 sets; stride 8 KiB collides.
        let mut l = level();
        let stride = 64 * 128;
        for i in 0..8 {
            l.fill(i * stride, true);
        }
        let ev = l.fill(8 * stride, false).expect("must evict");
        assert!(ev.dirty);
    }

    #[test]
    fn memory_latency_and_energy() {
        let mut m = MainMemory::default();
        assert_eq!(m.read(100), 100 + crate::consts::MEM_LATENCY_TICKS);
        assert_eq!(m.read(0), crate::consts::MEM_LATENCY_TICKS);
        assert!((m.energy_pj() - 2.0 * crate::consts::MEM_ACCESS_ENERGY_PJ).abs() < 1e-9);
    }

    #[test]
    fn write_hit_dirties_a_clean_line_without_a_miss() {
        let mut l = level();
        l.fill(0x3000, false);
        assert_eq!(l.probe(0x3000), Some(LineState::Exclusive));
        let (done, ev) = l.write(0x3000, 5);
        assert_eq!(done, 5 + 14);
        assert!(ev.is_none());
        assert_eq!(l.probe(0x3000), Some(LineState::Modified));
        assert_eq!(l.stats.misses, 0);
    }

    #[test]
    fn invalidate_removes_the_line_and_reports_its_state() {
        let mut l = level();
        l.fill(0x4000, true);
        assert_eq!(l.invalidate(0x4000), Some(LineState::Modified));
        assert_eq!(l.probe(0x4000), None);
        assert_eq!(l.invalidate(0x4000), None);
        let (_, hit) = l.read(0x4000, 0);
        assert!(!hit);
    }

    #[test]
    fn reset_measurements_keeps_the_contents() {
        let mut l = level();
        l.fill(0x5000, false);
        l.read(0x5000, 0);
        l.read(0x6000, 0);
        assert!(l.dyn_energy_pj > 0.0);
        l.reset_measurements();
        assert_eq!(l.stats, LevelStats::default());
        assert_eq!(l.dyn_energy_pj, 0.0);
        let (_, hit) = l.read(0x5000, 100);
        assert!(hit, "a measurement reset must not flush the array");
    }

    #[test]
    fn an_idle_level_does_not_delay_a_late_request() {
        let mut l = level();
        l.read(0x0, 0);
        let (t, _) = l.read(0x40, 100);
        assert_eq!(t, 106);
    }

    #[test]
    fn memory_reset_clears_the_off_chip_account() {
        let mut m = MainMemory::default();
        m.read(0);
        m.read(0);
        m.reset_measurements();
        assert_eq!(m.accesses, 0);
        assert_eq!(m.energy_pj(), 0.0);
    }
}
