//! Structured diagnostics for configuration and model validation.
//!
//! Every validation pass in the workspace — `ChipConfig` checking in
//! `respin-sim`, runner config loading in `respin-core`, and the static
//! invariant registry in `respin-verify` — reports problems through the
//! [`Violation`] / [`Report`] types defined here instead of panicking or
//! returning bare `String`s. Placing the vocabulary at the bottom of the
//! dependency graph (this crate) lets every layer share it without cycles.
//!
//! A [`Violation`] carries:
//! * a stable machine-readable `code` (e.g. `RAIL-ORDER`),
//! * the human name of the `invariant` it belongs to,
//! * a [`Severity`],
//! * a `location` naming the config field / table row / model state that
//!   triggered it, and
//! * a free-form `message` with the offending values.
//!
//! [`Report`] aggregates violations across passes and decides the overall
//! verdict: it is *clean* when it contains no `Error`-severity entries
//! (warnings are advisory and do not fail verification).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How severe a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: suspicious but not necessarily wrong. Does not fail a run.
    Warning,
    /// The configuration or model is invalid; verification fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One validated-invariant failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Stable machine-readable code, e.g. `RAIL-ORDER` or `FSM-STARVATION`.
    pub code: String,
    /// Human name of the invariant this violation belongs to.
    pub invariant: String,
    /// Severity of the violation.
    pub severity: Severity,
    /// Source location: config field, table row, or model state that
    /// triggered the violation (e.g. `ChipConfig.core_vdd`, `table3[2]`).
    pub location: String,
    /// Free-form detail with the offending values.
    pub message: String,
}

impl Violation {
    /// Builds an `Error`-severity violation.
    pub fn error(
        code: impl Into<String>,
        invariant: impl Into<String>,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Violation {
            code: code.into(),
            invariant: invariant.into(),
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Builds a `Warning`-severity violation.
    pub fn warning(
        code: impl Into<String>,
        invariant: impl Into<String>,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Violation {
            code: code.into(),
            invariant: invariant.into(),
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {} ({})",
            self.severity, self.code, self.location, self.message, self.invariant
        )
    }
}

/// Aggregated result of one or more validation passes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// All violations recorded, in discovery order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records one violation.
    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Absorbs another report's violations.
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
    }

    /// True when the report contains no `Error`-severity violations.
    /// Warnings alone still count as clean.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of `Error`-severity violations.
    pub fn error_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity violations.
    pub fn warning_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warning)
            .count()
    }

    /// Converts the report into a `Result`: `Ok(())` when clean, otherwise
    /// `Err(self)` carrying the violations for the caller to render.
    pub fn into_result(self) -> Result<(), Report> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(self)
        }
    }

    /// Process exit code for CLI front-ends: 0 when clean, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

impl std::error::Error for Report {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = Report::new();
        assert!(r.is_clean());
        assert_eq!(r.exit_code(), 0);
        assert!(r.into_result().is_ok());
    }

    #[test]
    fn warnings_do_not_fail() {
        let mut r = Report::new();
        r.push(Violation::warning("W1", "inv", "loc", "msg"));
        assert!(r.is_clean());
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn errors_fail_and_merge() {
        let mut a = Report::new();
        a.push(Violation::error("E1", "inv", "loc", "msg"));
        let mut b = Report::new();
        b.push(Violation::warning("W1", "inv", "loc", "msg"));
        b.merge(a);
        assert_eq!(b.violations.len(), 2);
        assert!(!b.is_clean());
        assert_eq!(b.exit_code(), 1);
        assert!(b.into_result().is_err());
    }

    #[test]
    fn display_includes_code_and_location() {
        let v = Violation::error(
            "RAIL-ORDER",
            "dual-rail ordering",
            "ChipConfig.core_vdd",
            "x",
        );
        let s = v.to_string();
        assert!(s.contains("RAIL-ORDER"));
        assert!(s.contains("ChipConfig.core_vdd"));
        assert!(s.starts_with("error"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report::new();
        r.push(Violation::error("E1", "inv", "loc", "msg"));
        r.push(Violation::warning("W1", "inv2", "loc2", "msg2"));
        let json = serde_json::to_string(&r).expect("serialize");
        let back: Report = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r);
    }

    #[test]
    fn report_display_lists_each_violation_then_the_counts() {
        let mut r = Report::new();
        r.push(Violation::error("E1", "inv", "a", "first"));
        r.push(Violation::warning("W1", "inv", "b", "second"));
        r.push(Violation::warning("W2", "inv", "c", "third"));
        let text = r.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("error[E1] at a: first"));
        assert!(lines[1].starts_with("warning[W1]"));
        assert_eq!(lines[3], "1 error(s), 2 warning(s)");
    }

    #[test]
    fn merge_appends_in_discovery_order() {
        let mut a = Report::new();
        a.push(Violation::warning("A", "inv", "loc", "msg"));
        let mut b = Report::new();
        b.push(Violation::error("B", "inv", "loc", "msg"));
        b.push(Violation::warning("C", "inv", "loc", "msg"));
        a.merge(b);
        let codes: Vec<&str> = a.violations.iter().map(|v| v.code.as_str()).collect();
        assert_eq!(codes, ["A", "B", "C"]);
    }

    #[test]
    fn errors_rank_above_warnings() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(Severity::Error.to_string(), "error");
    }
}
