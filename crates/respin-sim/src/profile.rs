//! Phase-attribution self-profiling for the executed-tick hot path.
//!
//! Perf work on the simulator needs to argue from data: which of the
//! step's phases actually costs wall-clock time? This module defines a
//! zero-cost probe seam — [`Chip::step`](crate::Chip::step) is generic
//! over a [`StepProbe`] whose no-op implementation ([`NoProbe`])
//! monomorphises away entirely — plus the accumulating implementation
//! ([`PhaseProfiler`]) that the repository benchmark's traced pass
//! (`perfbench --trace 1`) drives to report per-phase shares.
//!
//! The simulator itself never reads a wall clock (determinism lint D002
//! fires on `Instant::now` in every workspace crate), so the profiler is
//! handed a monotonic nanosecond closure by its caller. Probing is
//! observation-only by construction: no simulator state ever depends on
//! a probe, so a profiled run is bit-identical to an unprofiled one.

/// The executed-tick phases wall time is attributed to.
///
/// The first four are the step's own phases; everything between steps —
/// next-event computation, idle-skip, the run loop's finished checks,
/// epoch-boundary fault maintenance and report assembly — lands in
/// [`Phase::EpochMaintenance`], so the five buckets partition the entire
/// run-loop wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Shared-L1 controller ticks (port arbitration, array access).
    SharedL1Tick = 0,
    /// L1 event dispatch (miss path, fills, writebacks) and deferred
    /// completions.
    EventDrain = 1,
    /// Core cycles: context-switch decisions, issue, retire, and the
    /// inline synchronisation ops they raise.
    CoreExecute = 2,
    /// Tick-boundary replay of queued cross-cluster coherence actions.
    SyncReplay = 3,
    /// Everything between executed ticks: next-event-tick computation,
    /// idle skipping, loop control, epoch-boundary maintenance.
    EpochMaintenance = 4,
}

/// Number of phases in [`Phase`].
pub const PHASE_COUNT: usize = 5;

/// Probe seam the stepping loop reports phase boundaries through.
///
/// `mark(p)` means "the wall time since the previous mark belongs to
/// phase `p`". Implementations must not touch simulator state (the type
/// system enforces this: probes only see themselves).
pub trait StepProbe {
    /// Attributes the time since the last mark to `phase`.
    fn mark(&mut self, phase: Phase);
    /// Called once per executed tick, after its last phase mark.
    fn tick_executed(&mut self);
}

/// The default probe: does nothing, costs nothing (every call inlines to
/// a no-op in the monomorphised unprofiled stepping loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl StepProbe for NoProbe {
    #[inline(always)]
    fn mark(&mut self, _phase: Phase) {}
    #[inline(always)]
    fn tick_executed(&mut self) {}
}

/// Accumulated phase attribution, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAccum {
    /// Nanoseconds per phase, indexed by `Phase as usize`.
    pub ns: [u64; PHASE_COUNT],
    /// Executed (non-skipped) ticks observed.
    pub executed_ticks: u64,
}

impl PhaseAccum {
    /// Total attributed nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Folds another accumulation into this one.
    pub fn merge(&mut self, other: &PhaseAccum) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
        self.executed_ticks += other.executed_ticks;
    }
}

/// The accumulating probe: attributes the interval between consecutive
/// marks to the marked phase, using a caller-supplied monotonic
/// nanosecond clock (the simulator crate never reads wall clocks
/// itself — determinism lint D002).
pub struct PhaseProfiler<'c> {
    clock: &'c mut dyn FnMut() -> u64,
    last: u64,
    /// The attribution accumulated so far.
    pub acc: PhaseAccum,
}

impl<'c> PhaseProfiler<'c> {
    /// Creates a profiler over `clock` (monotonic nanoseconds); the
    /// first mark attributes time from this call.
    pub fn new(clock: &'c mut dyn FnMut() -> u64) -> Self {
        let last = clock();
        Self {
            clock,
            last,
            acc: PhaseAccum::default(),
        }
    }
}

impl StepProbe for PhaseProfiler<'_> {
    fn mark(&mut self, phase: Phase) {
        let now = (self.clock)();
        self.acc.ns[phase as usize] += now.saturating_sub(self.last);
        self.last = now;
    }

    fn tick_executed(&mut self) {
        self.acc.executed_ticks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_attributes_intervals_to_marked_phases() {
        let mut t = 0u64;
        let mut clock = || {
            t += 10;
            t
        };
        let mut p = PhaseProfiler::new(&mut clock);
        p.mark(Phase::SharedL1Tick);
        p.mark(Phase::CoreExecute);
        p.mark(Phase::CoreExecute);
        p.tick_executed();
        assert_eq!(p.acc.ns[Phase::SharedL1Tick as usize], 10);
        assert_eq!(p.acc.ns[Phase::CoreExecute as usize], 20);
        assert_eq!(p.acc.total_ns(), 30);
        assert_eq!(p.acc.executed_ticks, 1);
    }

    #[test]
    fn merge_folds_all_buckets() {
        let mut a = PhaseAccum::default();
        let mut b = PhaseAccum::default();
        a.ns[0] = 5;
        a.executed_ticks = 2;
        b.ns[0] = 7;
        b.ns[4] = 3;
        b.executed_ticks = 1;
        a.merge(&b);
        assert_eq!(a.ns[0], 12);
        assert_eq!(a.ns[4], 3);
        assert_eq!(a.executed_ticks, 3);
        assert_eq!(a.total_ns(), 15);
    }

    #[test]
    fn a_clock_running_backwards_attributes_nothing() {
        let mut readings = [100u64, 50, 80].into_iter();
        let mut clock = || readings.next().unwrap_or(80);
        let mut p = PhaseProfiler::new(&mut clock);
        p.mark(Phase::EventDrain);
        p.mark(Phase::SyncReplay);
        assert_eq!(p.acc.ns[Phase::EventDrain as usize], 0);
        assert_eq!(p.acc.ns[Phase::SyncReplay as usize], 30);
    }

    #[test]
    fn phases_index_every_bucket_once() {
        let phases = [
            Phase::SharedL1Tick,
            Phase::EventDrain,
            Phase::CoreExecute,
            Phase::SyncReplay,
            Phase::EpochMaintenance,
        ];
        let idx: Vec<usize> = phases.iter().map(|&p| p as usize).collect();
        assert_eq!(idx, (0..PHASE_COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn no_probe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
        let mut p = NoProbe;
        p.mark(Phase::CoreExecute);
        p.tick_executed();
    }
}
