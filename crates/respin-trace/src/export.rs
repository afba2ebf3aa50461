//! Renderings: JSONL for scripts, Chrome trace for eyeballs.
//!
//! JSONL is one [`TraceEvent`] per line — the stable machine interface;
//! each line decodes back to its event with `serde_json`. The
//! Chrome-trace rendering targets `chrome://tracing` and
//! Perfetto's legacy JSON loader: epoch series become counter tracks
//! (`"ph": "C"`) and discrete events become instants (`"ph": "i"`), so
//! EPI, half-miss rate and active-core count plot as stacked tracks
//! with consolidations and faults pinned on top.

use serde::Value;

use crate::event::{TraceEvent, TraceKind};

/// Picoseconds of simulated time per cache tick, mirrored from the
/// simulator's clock base (2.5 GHz cache domain).
const CACHE_PERIOD_PS: f64 = 400.0;

/// Sorts events into the canonical cross-schedule order: a **stable**
/// sort by run id.
///
/// Each simulation emits its own events in deterministic order (the
/// simulator is seeded and single-threaded per run), but a parallel
/// sweep interleaves different runs' events in the shared sink in
/// whatever order the OS schedules them. Grouping by run id — stably,
/// so within-run order is untouched — restores a total order that is a
/// pure function of *what ran*: exports of the same campaign are
/// byte-identical at every `RESPIN_THREADS`. Run ids themselves are
/// schedule-independent hashes of the run's options/label (see
/// `respin-core`'s experiment cache), which is what makes this sort
/// canonical rather than merely deterministic-per-schedule.
pub fn canonical_order(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| e.run);
}

/// Renders one event as its JSONL line (no trailing newline) — the
/// per-event unit [`to_jsonl`] is built from, exposed for incremental
/// consumers (the streaming sink, the `respin-serve` wire protocol)
/// that emit lines as events happen instead of exporting at the end.
pub fn to_jsonl_line(event: &TraceEvent) -> String {
    serde_json::to_string(event).expect("trace events always serialise")
}

/// Renders events as JSON Lines: one event per line, empty string for
/// no events.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&to_jsonl_line(ev));
        out.push('\n');
    }
    out
}

/// Renders events as a Chrome-trace (Trace Event Format) JSON object,
/// loadable in `chrome://tracing` or Perfetto.
///
/// Timestamps are microseconds of *simulated* time (tick ×
/// 400 ps). Counter samples group by variant name and cluster; the
/// track id (`pid`) is the run id so batch traces don't collide.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let trace_events: Vec<Value> = events.iter().map(chrome_event).collect();
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(trace_events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&root).expect("chrome trace always serialises")
}

fn micros(tick: u64) -> f64 {
    // Guard: ticks far beyond any simulation length lose f64 precision,
    // which is fine for a visual timeline.
    (tick as f64) * CACHE_PERIOD_PS / 1_000_000.0
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn u(v: u64) -> Value {
    Value::UInt(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// One event in Trace Event Format. `ph: "C"` counters carry their
/// samples in `args`; `ph: "i"` instants carry context in `args`.
fn chrome_event(ev: &TraceEvent) -> Value {
    let (name, ph, tid, args): (String, &str, u64, Value) = match &ev.kind {
        TraceKind::RunStart { options } => (
            "RunStart".to_string(),
            "i",
            0,
            obj(vec![("options", s(options))]),
        ),
        TraceKind::ClusterEpoch {
            cluster,
            epoch,
            instructions,
            energy_pj,
            epi_pj,
            active_cores,
            healthy_cores,
            ..
        } => (
            format!("cluster{cluster}"),
            "C",
            *cluster as u64 + 1,
            obj(vec![
                ("epoch", u(*epoch)),
                ("instructions", u(*instructions)),
                ("energy_pj", f(*energy_pj)),
                ("epi_pj", f(*epi_pj)),
                ("active_cores", u(*active_cores as u64)),
                ("healthy_cores", u(*healthy_cores as u64)),
            ]),
        ),
        TraceKind::CacheEpoch {
            cluster,
            epoch,
            half_miss_rate,
            arbiter_occupancy,
            l2_miss_rate,
            ..
        } => (
            format!("cache{cluster}"),
            "C",
            *cluster as u64 + 1,
            obj(vec![
                ("epoch", u(*epoch)),
                ("half_miss_rate", f(*half_miss_rate)),
                ("arbiter_occupancy", f(*arbiter_occupancy)),
                ("l2_miss_rate", f(*l2_miss_rate)),
            ]),
        ),
        TraceKind::ChipEpoch {
            epoch,
            epi_pj,
            l3_miss_rate,
            active_cores,
            ..
        } => (
            "chip".to_string(),
            "C",
            0,
            obj(vec![
                ("epoch", u(*epoch)),
                ("epi_pj", f(*epi_pj)),
                ("l3_miss_rate", f(*l3_miss_rate)),
                ("active_cores", u(*active_cores as u64)),
            ]),
        ),
        TraceKind::FaultEpoch {
            epoch,
            write_retries,
            ecc_corrected,
            uncorrected_escapes,
            scrubbed_lines,
            ..
        } => (
            "faults".to_string(),
            "C",
            0,
            obj(vec![
                ("epoch", u(*epoch)),
                ("write_retries", u(*write_retries)),
                ("ecc_corrected", u(*ecc_corrected)),
                ("uncorrected_escapes", u(*uncorrected_escapes)),
                ("scrubbed_lines", u(*scrubbed_lines)),
            ]),
        ),
        TraceKind::VcmDecision {
            cluster,
            epi_pj,
            current,
            target,
            ..
        } => (
            "VcmDecision".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![
                ("epi_pj", f(*epi_pj)),
                ("current", u(*current as u64)),
                ("target", u(*target as u64)),
            ]),
        ),
        TraceKind::Consolidation {
            cluster,
            from,
            to,
            total_active,
        } => (
            "Consolidation".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![
                ("from", u(*from as u64)),
                ("to", u(*to as u64)),
                ("total_active", u(*total_active as u64)),
            ]),
        ),
        TraceKind::Migration {
            cluster,
            vcore,
            to_core,
        } => (
            "Migration".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![
                ("vcore", u(*vcore as u64)),
                ("to_core", u(*to_core as u64)),
            ]),
        ),
        TraceKind::CoreFault {
            cluster,
            core,
            fault_count,
        } => (
            "CoreFault".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![
                ("core", u(*core as u64)),
                ("fault_count", u(u64::from(*fault_count))),
            ]),
        ),
        TraceKind::Decommission { cluster, core } => (
            "Decommission".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![("core", u(*core as u64))]),
        ),
        TraceKind::FaultCell {
            cluster,
            kind,
            addr,
        } => (
            "FaultCell".to_string(),
            "i",
            *cluster as u64 + 1,
            obj(vec![("kind", s(kind)), ("addr", u(*addr))]),
        ),
    };
    let mut fields = vec![
        ("name", s(&name)),
        ("ph", s(ph)),
        ("ts", f(micros(ev.tick))),
        ("pid", u(u64::from(ev.run))),
        ("tid", u(tid)),
        ("args", args),
    ];
    if ph == "i" {
        // Instant scope: "t" = thread-scoped tick mark.
        fields.push(("s", s("t")));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::at(
                0,
                TraceKind::RunStart {
                    options: "{}".into(),
                },
            ),
            TraceEvent::at(
                2500,
                TraceKind::CacheEpoch {
                    cluster: 0,
                    epoch: 0,
                    reads: 100,
                    read_misses: 10,
                    half_misses: 5,
                    writes: 40,
                    half_miss_rate: 0.05,
                    arbiter_occupancy: 1.2,
                    l2_miss_rate: 0.3,
                },
            ),
            TraceEvent::at(
                2500,
                TraceKind::Consolidation {
                    cluster: 0,
                    from: 8,
                    to: 6,
                    total_active: 30,
                },
            ),
        ]
    }

    #[test]
    fn canonical_order_groups_by_run_and_keeps_within_run_order() {
        let ev = |run: u32, tick: u64| {
            let mut e = TraceEvent::at(
                tick,
                TraceKind::RunStart {
                    options: format!("r{run}t{tick}"),
                },
            );
            e.run = run;
            e
        };
        // Two interleavings of the same three runs (ids deliberately not
        // in arrival order), as a parallel sweep would produce.
        let mut a = vec![ev(9, 0), ev(2, 0), ev(9, 1), ev(5, 0), ev(2, 1)];
        let mut b = vec![ev(2, 0), ev(2, 1), ev(9, 0), ev(5, 0), ev(9, 1)];
        canonical_order(&mut a);
        canonical_order(&mut b);
        assert_eq!(a, b, "same runs, any schedule -> same canonical order");
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        // Within one run, emission order survives the stable sort.
        let ticks: Vec<u64> = a.iter().filter(|e| e.run == 9).map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1]);
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = sample();
        let jsonl = to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len());
        let back: Vec<TraceEvent> = jsonl
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_trace_is_empty_string() {
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn chrome_trace_has_counters_and_instants() {
        let doc = to_chrome_trace(&sample());
        let value: Value = serde_json::from_str(&doc).unwrap();
        let fields = value.as_object().expect("chrome trace must be an object");
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let items = events.as_array().expect("traceEvents must be an array");
        assert_eq!(items.len(), 3);
        let phases: Vec<String> = items
            .iter()
            .map(|item| {
                let f = item.as_object().expect("event must be an object");
                let (_, ph) = f.iter().find(|(k, _)| k == "ph").unwrap();
                let Value::Str(p) = ph else {
                    panic!("ph must be a string");
                };
                p.clone()
            })
            .collect();
        assert_eq!(phases, vec!["i", "C", "i"]);
    }

    #[test]
    fn timestamps_are_simulated_micros() {
        // 2500 ticks × 400 ps = 1 µs.
        assert!((micros(2500) - 1.0).abs() < 1e-12);
    }

    fn chrome_items(events: &[TraceEvent]) -> Vec<Value> {
        let value: Value = serde_json::from_str(&to_chrome_trace(events)).unwrap();
        let fields = value.as_object().unwrap();
        let (_, items) = fields.iter().find(|(k, _)| k == "traceEvents").unwrap();
        items.as_array().unwrap().to_vec()
    }

    fn field<'v>(item: &'v Value, key: &str) -> &'v Value {
        let fields = item.as_object().unwrap();
        &fields.iter().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn chrome_tracks_are_run_and_cluster_plus_one() {
        let mut events = sample();
        for e in &mut events {
            e.run = 12;
        }
        let items = chrome_items(&events);
        for item in &items {
            assert_eq!(format!("{:?}", field(item, "pid")), "UInt(12)");
        }
        // RunStart sits on track 0; cluster 0's events on track 1.
        let tids: Vec<String> = items
            .iter()
            .map(|i| format!("{:?}", field(i, "tid")))
            .collect();
        assert_eq!(tids, ["UInt(0)", "UInt(1)", "UInt(1)"]);
    }

    #[test]
    fn only_instants_carry_a_scope() {
        for item in chrome_items(&sample()) {
            let fields = item.as_object().unwrap();
            let ph = format!("{:?}", field(&item, "ph"));
            let scoped = fields.iter().any(|(k, _)| k == "s");
            assert_eq!(scoped, ph == "Str(\"i\")", "{ph}");
        }
    }

    #[test]
    fn jsonl_lines_match_the_per_event_rendering() {
        let events = sample();
        let jsonl = to_jsonl(&events);
        assert!(jsonl.ends_with('\n'));
        for (line, ev) in jsonl.lines().zip(&events) {
            assert_eq!(line, to_jsonl_line(ev));
            assert!(!line.contains('\n'));
        }
    }
}
