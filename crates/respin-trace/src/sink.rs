//! Collection: the [`TraceSink`] trait, the [`Tracer`] handle the
//! simulator carries, and the stock sinks.
//!
//! The contract that makes the zero-cost guarantee checkable: sinks
//! *observe* — [`TraceSink::record`] takes `&self` and returns nothing,
//! so no sink can feed state back into the simulation. The disabled
//! path is `Option::None` plus an inlined closure, so a build with
//! tracing off constructs no events at all.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A consumer of trace events.
///
/// Implementations must be thread-safe: experiment batches run
/// simulations from several threads into one sink.
pub trait TraceSink: Send + Sync {
    /// Accepts one event. Must not panic on any well-formed event.
    fn record(&self, event: &TraceEvent);
}

/// The handle threaded through the simulator.
///
/// Cheap to clone (an `Option<Arc>`). [`Tracer::emit`] takes a closure
/// so the event is only constructed when a sink is installed:
///
/// ```
/// use respin_trace::{RingSink, TraceEvent, TraceKind, Tracer};
/// use std::sync::Arc;
///
/// let off = Tracer::disabled();
/// off.emit(|| unreachable!("never constructed"));
///
/// let ring = Arc::new(RingSink::unbounded());
/// let on = Tracer::new(ring.clone());
/// on.emit(|| TraceEvent::at(3, TraceKind::Decommission { cluster: 0, core: 1 }));
/// assert_eq!(ring.snapshot().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<dyn TraceSink>>);

impl Tracer {
    /// A tracer that drops everything without constructing it.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A tracer feeding `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self(Some(sink))
    }

    /// Whether a sink is installed. Use to skip expensive snapshot
    /// bookkeeping, not as a branch that changes simulation behaviour.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `build`, or does nothing — without
    /// calling `build` — when disabled.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.record(&build());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "Tracer(enabled)"
        } else {
            "Tracer(disabled)"
        })
    }
}

/// An in-memory buffer that keeps every event it records.
pub struct RingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl RingSink {
    /// An empty sink with no capacity limit.
    pub fn unbounded() -> Self {
        Self {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Copies out the recorded events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("ring sink poisoned").clone()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut events = self.events.lock().expect("ring sink poisoned");
        events.push(event.clone());
    }
}

/// Wraps another sink, stamping a run id onto every event and
/// optionally capping the epoch range that is kept.
///
/// The experiment cache hands each de-duplicated simulation its own
/// `ScopedSink` so a batch's events can be told apart in one output
/// file, and `--trace-epochs N` maps to `limit = Some(N)`: epoch-series
/// records beyond epoch `N` are discarded at the source while discrete
/// events (consolidations, faults) are always kept.
pub struct ScopedSink {
    run: u32,
    limit: Option<u64>,
    inner: Arc<dyn TraceSink>,
}

impl ScopedSink {
    /// Scope `inner` to run id `run`, keeping epoch-series records only
    /// for epochs `< limit` when a limit is given.
    pub fn new(run: u32, limit: Option<u64>, inner: Arc<dyn TraceSink>) -> Self {
        Self { run, limit, inner }
    }
}

impl TraceSink for ScopedSink {
    fn record(&self, event: &TraceEvent) {
        if let (Some(limit), Some(epoch)) = (self.limit, event.epoch()) {
            if epoch >= limit {
                return;
            }
        }
        let mut stamped = event.clone();
        stamped.run = self.run;
        self.inner.record(&stamped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;

    fn decommission(tick: u64) -> TraceEvent {
        TraceEvent::at(
            tick,
            TraceKind::Decommission {
                cluster: 0,
                core: 0,
            },
        )
    }

    fn chip_epoch(epoch: u64) -> TraceEvent {
        TraceEvent::at(
            epoch * 100,
            TraceKind::ChipEpoch {
                epoch,
                instructions: 1,
                energy_pj: 1.0,
                epi_pj: 1.0,
                l3_miss_rate: 0.0,
                active_cores: 1,
            },
        )
    }

    #[test]
    fn disabled_tracer_never_builds() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let mut built = false;
        tracer.emit(|| {
            built = true;
            decommission(0)
        });
        assert!(!built);
    }

    #[test]
    fn ring_keeps_every_event_in_order() {
        let ring = RingSink::unbounded();
        for t in 0..5 {
            ring.record(&decommission(t));
        }
        let ticks: Vec<u64> = ring.snapshot().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_snapshot_is_a_copy() {
        let ring = RingSink::unbounded();
        ring.record(&decommission(0));
        let before = ring.snapshot();
        ring.record(&decommission(1));
        // Taking a snapshot neither drains the sink nor sees later events.
        assert_eq!(before.len(), 1);
        assert_eq!(ring.snapshot().len(), 2);
        assert_eq!(ring.snapshot()[0], before[0]);
    }

    #[test]
    fn scoped_sink_stamps_and_limits() {
        let ring = Arc::new(RingSink::unbounded());
        let scoped = ScopedSink::new(7, Some(2), ring.clone());
        scoped.record(&chip_epoch(0));
        scoped.record(&chip_epoch(1));
        scoped.record(&chip_epoch(2)); // at the limit: dropped
        scoped.record(&decommission(999)); // discrete: always kept
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|e| e.run == 7));
        assert_eq!(
            kept.iter().filter(|e| e.epoch().is_some()).count(),
            2,
            "epoch series capped at the limit"
        );
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let ring = Arc::new(RingSink::unbounded());
        let tracer = Tracer::new(ring.clone());
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let t = tracer.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        t.emit(|| decommission(i * 1000 + j));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.snapshot().len(), 400);
    }

    #[test]
    fn scoped_sink_without_a_limit_keeps_every_epoch() {
        let ring = Arc::new(RingSink::unbounded());
        let scoped = ScopedSink::new(3, None, ring.clone());
        for epoch in [0, 1, 1_000, 1_000_000] {
            scoped.record(&chip_epoch(epoch));
        }
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 4);
        assert!(kept.iter().all(|e| e.run == 3));
    }

    #[test]
    fn scoped_sink_with_a_zero_limit_keeps_only_discrete_events() {
        let ring = Arc::new(RingSink::unbounded());
        let scoped = ScopedSink::new(1, Some(0), ring.clone());
        scoped.record(&chip_epoch(0));
        scoped.record(&decommission(5));
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name(), "Decommission");
    }

    #[test]
    fn tracer_debug_says_whether_a_sink_is_installed() {
        assert_eq!(format!("{:?}", Tracer::disabled()), "Tracer(disabled)");
        assert_eq!(format!("{:?}", Tracer::default()), "Tracer(disabled)");
        let on = Tracer::new(Arc::new(RingSink::unbounded()));
        assert!(on.enabled());
        assert_eq!(format!("{on:?}"), "Tracer(enabled)");
    }
}
