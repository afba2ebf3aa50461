//! # respin-trace — epoch-level observability for the Respin stack
//!
//! The paper's claims are all *time-resolved*: the VCM consolidates on
//! per-epoch EPI deltas, half-misses emerge from transient arbiter
//! contention, and the fault machinery fires mid-run. This crate makes
//! those dynamics visible without perturbing them:
//!
//! * [`TraceEvent`] / [`TraceKind`] — the structured event taxonomy:
//!   ring-bufferable epoch time-series (per-cluster EPI, per-core
//!   frequency, half-miss rate, arbiter occupancy, L2/L3 miss rates,
//!   fault/retry/scrub counters) plus discrete events (consolidation
//!   power-off/on, migrations, decommissions, SECDED corrections).
//! * [`TraceSink`] — the collection trait. [`RingSink`] keeps every
//!   event in memory; [`ScopedSink`] stamps run ids and applies an epoch
//!   cap so long campaigns keep only what was asked for.
//! * [`Tracer`] — the handle threaded through the simulator. A disabled
//!   tracer is a `None`: [`Tracer::emit`] takes a closure, so when
//!   tracing is off *no event is even constructed*. Simulation results
//!   are bit-identical with tracing on or off — sinks observe, they
//!   never steer.
//! * [`export`] — JSONL (one event per line) and Chrome-trace
//!   (Perfetto/`chrome://tracing`-loadable) renderings.
//!
//! The crate is a leaf: it depends only on the vendored serde layer, so
//! every other Respin crate can emit into it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Tests may unwrap: a panic IS the failure report there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(clippy::all)]

pub mod event;
pub mod export;
pub mod sink;

pub use event::{finite_or_zero, TraceEvent, TraceKind};
pub use export::{canonical_order, to_chrome_trace, to_jsonl, to_jsonl_line};
pub use sink::{RingSink, ScopedSink, TraceSink, Tracer};
