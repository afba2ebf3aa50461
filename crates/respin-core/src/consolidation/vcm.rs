//! Virtual core monitor: per-cluster energy-per-instruction measurement.
//!
//! The paper's VCM reads hardware energy counters each epoch; here the
//! counters are the simulator's per-cluster energy book. The monitor keeps
//! the previous epoch's EPI so policies can evaluate the relative change
//! the Figure 5 flowchart branches on.

/// Tracks the EPI of consecutive epochs for one cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpiMonitor {
    previous: Option<f64>,
}

impl EpiMonitor {
    /// New monitor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records this epoch's EPI and returns the relative change from the
    /// previous epoch: `(epi − prev) / prev`. Returns `None` on the first
    /// epoch or when either measurement is unusable (no instructions
    /// retired).
    pub fn observe(&mut self, epi: f64) -> Option<f64> {
        if !epi.is_finite() || epi <= 0.0 {
            return None;
        }
        let delta = self.previous.map(|prev| (epi - prev) / prev);
        self.previous = Some(epi);
        delta
    }
}

/// One observed change in a cluster's healthy-core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// Epoch index (monitor-local, counted from the first observation).
    pub epoch: u64,
    /// Healthy cores before the change.
    pub from: usize,
    /// Healthy cores after the change.
    pub to: usize,
}

/// Tracks a cluster's healthy physical-core count across epochs — the
/// VCM's view of graceful degradation. Decommissioned cores only ever
/// reduce the count, so each logged event is a degradation step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthMonitor {
    healthy: Option<usize>,
    epoch: u64,
    log: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// New monitor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records this epoch's healthy-core count; returns the event when
    /// the count changed since the previous epoch.
    pub fn observe(&mut self, healthy: usize) -> Option<HealthEvent> {
        let prev = self.healthy;
        self.healthy = Some(healthy);
        self.epoch += 1;
        match prev {
            Some(p) if p != healthy => {
                let ev = HealthEvent {
                    epoch: self.epoch - 1,
                    from: p,
                    to: healthy,
                };
                self.log.push(ev);
                Some(ev)
            }
            _ => None,
        }
    }

    /// The last observed healthy-core count.
    pub fn healthy(&self) -> Option<usize> {
        self.healthy
    }

    /// All degradation events observed so far.
    pub fn log(&self) -> &[HealthEvent] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_has_no_delta() {
        let mut m = EpiMonitor::new();
        assert_eq!(m.observe(10.0), None);
        assert_eq!(m.observe(12.0), Some(0.2), "the first EPI is recorded");
    }

    #[test]
    fn relative_delta() {
        let mut m = EpiMonitor::new();
        m.observe(10.0);
        assert!((m.observe(11.0).unwrap() - 0.1).abs() < 1e-12);
        assert!((m.observe(9.9).unwrap() + 0.1).abs() < 1e-12);
    }

    #[test]
    fn unusable_epochs_are_skipped_without_clobbering_history() {
        let mut m = EpiMonitor::new();
        m.observe(10.0);
        assert_eq!(m.observe(f64::INFINITY), None);
        assert_eq!(m.observe(0.0), None);
        assert_eq!(m.observe(12.0), Some(0.2));
    }

    #[test]
    fn health_monitor_logs_degradation_steps() {
        let mut m = HealthMonitor::new();
        assert_eq!(m.observe(16), None);
        assert!(m.log().is_empty());
        assert_eq!(m.observe(16), None);
        let ev = m.observe(15).expect("core loss must be logged");
        assert_eq!((ev.from, ev.to), (16, 15));
        assert_eq!(ev.epoch, 2);
        assert_eq!(m.observe(15), None);
        assert_eq!(m.healthy(), Some(15));
        assert_eq!(m.log(), &[ev]);
    }
}
