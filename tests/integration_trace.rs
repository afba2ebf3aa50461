//! Observability layer: tracing must be observation-only (bit-identical
//! results) and its exports must be schema-valid.

use respin_core::arch::ArchConfig;
use respin_core::experiments::{generate_named, ExpParams, Pool, RunCache};
use respin_core::runner::{run, RunOptions};
use respin_trace::{
    canonical_order, to_chrome_trace, to_jsonl, RingSink, TraceEvent, TraceKind, Tracer,
};
use respin_workloads::Benchmark;
use std::sync::Arc;

fn opts(arch: ArchConfig) -> RunOptions {
    let mut o = RunOptions::new(arch, Benchmark::Cholesky);
    o.clusters = 2;
    o.cores_per_cluster = 4;
    o.instructions_per_thread = Some(16_000);
    o.warmup_per_thread = 4_000;
    o.epoch_instructions = Some(4_000);
    o.seed = 7;
    o
}

/// Runs `arch` twice — once silent, once traced — and returns the traced
/// result together with the captured events after asserting the two runs
/// are bit-identical.
fn run_both(arch: ArchConfig) -> (respin_sim::RunResult, Vec<respin_trace::TraceEvent>) {
    let silent = run(&opts(arch));
    let ring = Arc::new(RingSink::unbounded());
    let traced = run(&opts(arch).traced(Tracer::new(ring.clone())));
    assert_eq!(silent.ticks, traced.ticks, "{}", arch.name());
    assert_eq!(silent.instructions, traced.instructions, "{}", arch.name());
    assert_eq!(silent.energy, traced.energy, "{}", arch.name());
    assert_eq!(silent.stats, traced.stats, "{}", arch.name());
    (traced, ring.snapshot())
}

#[test]
fn tracing_does_not_perturb_results() {
    for arch in [ArchConfig::PrSramNt, ArchConfig::ShStt, ArchConfig::ShSttCc] {
        let (result, events) = run_both(arch);
        assert!(
            !events.is_empty(),
            "{}: trace must not be empty",
            arch.name()
        );
        let cluster_epochs = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::ClusterEpoch { .. }))
            .count();
        assert_eq!(
            cluster_epochs as u64,
            result.stats.epochs * 2,
            "{}: one ClusterEpoch per cluster per epoch",
            arch.name()
        );
        if arch != ArchConfig::PrSramNt {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, TraceKind::CacheEpoch { .. })),
                "{}: shared-L1 archs must emit cache epochs",
                arch.name()
            );
        }
    }
}

#[test]
fn consolidating_run_traces_decisions_and_consolidations() {
    let (_, events) = run_both(ArchConfig::ShSttCc);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::VcmDecision { .. })),
        "greedy VCM must trace its decisions"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Consolidation { .. })),
        "core consolidation must trace power-off/on transitions"
    );
}

#[test]
fn jsonl_export_roundtrips_and_validates() {
    let (_, events) = run_both(ArchConfig::ShSttCc);
    let jsonl = to_jsonl(&events);
    let parsed: Vec<TraceEvent> = jsonl
        .lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {}: {e:?}", i + 1))
        })
        .collect();
    for (i, (p, e)) in parsed.iter().zip(&events).enumerate() {
        assert_eq!(p, e, "first mismatch at event {i}");
    }
    assert_eq!(parsed, events, "JSONL must roundtrip losslessly");
    // Every line is a self-contained JSON object naming its event.
    for line in jsonl.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("each line parses");
        let obj = v.as_object().expect("each line is an object");
        for key in ["run", "tick", "kind"] {
            assert!(
                obj.iter().any(|(k, _)| k == key),
                "line missing '{key}': {line}"
            );
        }
    }
}

/// Runs a traced multi-run campaign, then the voltage sweep (custom
/// chips outside the memo), through one [`RunCache`] pinned to a pool of
/// `threads` workers, and returns the results, the voltage report and
/// the canonicalised exports.
fn traced_campaign(threads: usize) -> (Vec<Arc<respin_sim::RunResult>>, String, String, String) {
    let batch: Vec<RunOptions> = [Benchmark::Fft, Benchmark::Radix, Benchmark::Lu]
        .iter()
        .flat_map(|&b| {
            [ArchConfig::ShStt, ArchConfig::ShSttCc]
                .iter()
                .map(move |&arch| {
                    let mut o = RunOptions::new(arch, b);
                    o.clusters = 2;
                    o.cores_per_cluster = 4;
                    o.instructions_per_thread = Some(4_000);
                    o.warmup_per_thread = 1_000;
                    o.epoch_instructions = Some(1_000);
                    o.seed = 7;
                    o
                })
        })
        .collect();
    let micro = ExpParams {
        instructions_per_thread: 5_000,
        warmup_per_thread: 1_000,
        epoch_instructions: 2_000,
        seed: 42,
    };
    let ring = Arc::new(RingSink::unbounded());
    let cache = RunCache::with_tracer(ring.clone(), None).with_pool(Pool::with_threads(threads));
    let results = cache.run_all(&batch);
    let (voltage, _) = generate_named("voltage", &cache, &micro).expect("voltage exists");
    let mut events = ring.snapshot();
    canonical_order(&mut events);
    (
        results,
        voltage,
        to_jsonl(&events),
        to_chrome_trace(&events),
    )
}

#[test]
fn traced_parallel_campaign_exports_byte_identical_to_sequential() {
    let (seq_results, seq_voltage, seq_jsonl, seq_chrome) = traced_campaign(1);
    let (par_results, par_voltage, par_jsonl, par_chrome) = traced_campaign(2);
    assert_eq!(seq_results.len(), par_results.len());
    for (i, (s, p)) in seq_results.iter().zip(&par_results).enumerate() {
        assert_eq!(**s, **p, "run {i} diverged across thread counts");
    }
    assert_eq!(
        seq_voltage, par_voltage,
        "voltage report must be byte-identical at any thread count"
    );
    assert_eq!(
        seq_jsonl, par_jsonl,
        "canonical JSONL must be byte-identical at any thread count"
    );
    assert_eq!(
        seq_chrome, par_chrome,
        "canonical Chrome trace must be byte-identical at any thread count"
    );
    assert!(
        seq_jsonl.contains("voltage core_vdd="),
        "voltage runs are traced"
    );
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let (_, events) = run_both(ArchConfig::ShSttCc);
    let chrome = to_chrome_trace(&events);
    let v: serde::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
    let top = v.as_object().expect("top level is an object");
    let trace_events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v.as_array().expect("traceEvents is an array"))
        .expect("traceEvents present");
    assert!(!trace_events.is_empty());
    for ev in trace_events {
        let obj = ev.as_object().expect("event is an object");
        let ph = obj
            .iter()
            .find(|(k, _)| k == "ph")
            .and_then(|(_, v)| match v {
                serde::Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .expect("event has a phase");
        assert!(
            ph == "C" || ph == "i",
            "only counter and instant phases are emitted, got {ph}"
        );
    }
}
