//! Smoke tests for every experiment driver at micro scale: each figure
//! generates, its output is well-formed, and the headline *directions*
//! hold even on tiny runs.

#![allow(clippy::unwrap_used)]

use respin_core::experiments::{
    ablation, cluster_sweep, fig1, fig10, fig11, fig12_13, fig14, fig6, fig7, fig8, fig9,
    generate_named, ExpParams, RunCache,
};
use respin_trace::{RingSink, TraceKind};
use respin_workloads::Benchmark;
use std::sync::{Arc, OnceLock};

/// One memo for every figure test: the figures overlap (fig8's runs are
/// fig6's; fig1, fig7, fig10, fig11 and fig14 fall inside fig6 and fig9),
/// so each run is simulated once per test binary. Tests that count
/// simulations keep caches of their own.
fn shared() -> &'static RunCache {
    static CACHE: OnceLock<RunCache> = OnceLock::new();
    CACHE.get_or_init(RunCache::new)
}

fn micro() -> ExpParams {
    ExpParams {
        instructions_per_thread: 5_000,
        warmup_per_thread: 1_000,
        epoch_instructions: 2_000,
        seed: 42,
    }
}

#[test]
fn fig1_fractions_form_a_distribution_and_nt_is_leakier() {
    let d = fig1::generate(shared(), &micro());
    assert_eq!(d.rows.len(), 2);
    for r in &d.rows {
        let total = r.core_dynamic + r.core_leakage + r.cache_dynamic + r.cache_leakage + r.other;
        assert!((total - 1.0).abs() < 1e-6, "{}: {total}", r.point);
    }
    let nominal = &d.rows[0];
    let nt = &d.rows[1];
    assert!(
        nt.leakage_total > nominal.leakage_total,
        "NT must be leakage-dominated: {} vs {}",
        nt.leakage_total,
        nominal.leakage_total
    );
    assert!(nt.leakage_total > 0.5);
    assert!(d.render_text().contains("near-threshold"));
}

#[test]
fn fig6_baseline_rows_are_zero_and_stt_saves_at_large() {
    let d = fig6::generate(shared(), &micro());
    assert_eq!(d.rows.len(), 9);
    for r in d.rows.iter().filter(|r| r.config == "PR-SRAM-NT") {
        assert!(r.vs_baseline.abs() < 1e-9);
        assert!((r.leakage_mw + r.dynamic_mw - r.power_mw).abs() < 1e-6);
    }
    let stt_large = d
        .rows
        .iter()
        .find(|r| r.config == "SH-STT" && r.size == "large")
        .expect("row present");
    assert!(
        stt_large.vs_baseline < 0.0,
        "large caches must favour STT power: {}",
        stt_large.vs_baseline
    );
}

#[test]
fn fig7_shared_designs_are_faster_hp_fastest() {
    let d = fig7::generate(shared(), &micro());
    let mean = d.rows.last().expect("geomean row");
    assert_eq!(mean.benchmark, "geomean");
    assert!(mean.sh_stt < 1.0, "SH-STT mean {}", mean.sh_stt);
    assert!(mean.hp_sram_cmp < mean.sh_stt, "HP fastest");
    assert!(
        (mean.sh_stt - mean.sh_sram_nom).abs() < 0.05,
        "near-identical organisations"
    );
}

#[test]
fn fig8_stt_advantage_grows_with_cache_size() {
    let d = fig8::generate(shared(), &micro());
    let stt: Vec<f64> = d
        .rows
        .iter()
        .filter(|r| r.config == "SH-STT")
        .map(|r| r.vs_baseline)
        .collect();
    assert_eq!(stt.len(), 3); // small, medium, large
    assert!(stt[0] > stt[2], "monotone trend small→large: {stt:?}");
    // SRAM at nominal voltage must always be worse than STT at same size.
    for size in ["small", "medium", "large"] {
        let stt_v = d
            .rows
            .iter()
            .find(|r| r.config == "SH-STT" && r.size == size)
            .unwrap();
        let sram_v = d
            .rows
            .iter()
            .find(|r| r.config == "SH-SRAM-Nom" && r.size == size)
            .unwrap();
        assert!(sram_v.vs_baseline > stt_v.vs_baseline, "{size}");
    }
}

#[test]
fn fig9_has_all_configs_and_ordering() {
    let d = fig9::generate(shared(), &micro());
    assert_eq!(d.configs.len(), 7);
    assert_eq!(d.rows.len(), 14); // 13 benchmarks + geomean
    let mean = &d.rows.last().unwrap().energy;
    let idx = |name: &str| d.configs.iter().position(|c| c == name).unwrap();
    // SH-STT saves energy vs baseline; HP costs more.
    assert!(mean[idx("SH-STT")] < 1.0);
    assert!(mean[idx("HP-SRAM-CMP")] > 1.0);
    // The OS variant must be worse than hardware consolidation.
    assert!(mean[idx("SH-STT-CC-OS")] > mean[idx("SH-STT-CC")]);
}

#[test]
fn fig10_distributions_sum_to_one() {
    let d = fig10::generate(shared(), &micro());
    assert_eq!(d.rows.len(), 6); // 5 benchmarks + mean
    for r in &d.rows {
        let total: f64 = r.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{}: {total}", r.benchmark);
    }
}

#[test]
fn fig11_one_cycle_dominates() {
    let d = fig11::generate(shared(), &micro());
    let mean = d.rows.last().unwrap();
    assert_eq!(mean.benchmark, "mean");
    assert!(
        mean.cycles[0] > 0.7,
        "one-cycle fraction {}",
        mean.cycles[0]
    );
    let total: f64 = mean.cycles.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn fig12_traces_are_monotone_in_time_and_within_range() {
    let d = fig12_13::generate(shared(), &micro(), "Figure 12", Benchmark::Radix);
    assert_eq!(d.traces.len(), 2);
    for t in &d.traces {
        assert!(!t.series.is_empty());
        for w in t.series.windows(2) {
            assert!(w[1].0 >= w[0].0, "time must not run backwards");
        }
        for &(_, active) in &t.series {
            assert!((1.0..=16.0).contains(&active), "active {active}");
        }
    }
}

#[test]
fn fig14_ranges_are_consistent() {
    let d = fig14::generate(shared(), &micro());
    assert_eq!(d.rows.len(), 14);
    for r in &d.rows {
        // Every real run produces samples; min/max are None only for a
        // run with no per-cluster data at all.
        let (min, max) = (
            r.min.unwrap_or_else(|| panic!("{}: no min", r.benchmark)),
            r.max.unwrap_or_else(|| panic!("{}: no max", r.benchmark)),
        );
        assert!(min <= max, "{}", r.benchmark);
        assert!(
            r.avg >= min as f64 - 1e-9 && r.avg <= max as f64 + 1e-9,
            "{}: avg {} outside [{min}, {max}]",
            r.benchmark,
            r.avg,
        );
        assert!(max <= 16);
    }
}

#[test]
fn cluster_sweep_covers_the_paper_points() {
    let d = cluster_sweep::generate(shared(), &micro());
    let sizes: Vec<usize> = d.rows.iter().map(|r| r.cores_per_cluster).collect();
    assert_eq!(sizes, vec![4, 8, 16, 32]);
    for r in &d.rows {
        assert_eq!(r.shared_l1_kib, 16 * r.cores_per_cluster as u64);
        assert!(r.time_ratio > 0.0 && r.time_ratio.is_finite());
    }
    // Contention must grow with cluster size.
    assert!(d.rows[3].half_miss > d.rows[0].half_miss);
}

#[test]
fn ablation_produces_all_three_sweeps() {
    let d = ablation::generate(shared(), &micro());
    assert_eq!(d.epochs.len(), 4);
    assert_eq!(d.delivery.len(), 5);
    assert_eq!(d.thresholds.len(), 3);
    // Longer delivery must not reduce runtime.
    let t0 = d.delivery.first().unwrap().time_vs_default;
    let t4 = d.delivery.last().unwrap().time_vs_default;
    assert!(t4 >= t0 - 0.02, "delivery 0: {t0}, delivery 4: {t4}");
    assert!(d.render_text().contains("Consolidation interval"));
}

#[test]
fn custom_chip_experiments_trace_every_simulation() {
    // voltage: 7 voltages x 3 benchmarks; ablation: the SH-STT reference
    // + 4 epoch lengths + 5 delivery latencies + 3 thresholds;
    // resilience: baseline + 6 sweep points + the degradation pair.
    for (name, simulations) in [("voltage", 21), ("ablation", 13), ("resilience", 9)] {
        let ring = Arc::new(RingSink::unbounded());
        let cache = RunCache::with_tracer(ring.clone(), None);
        generate_named(name, &cache, &micro()).unwrap();
        let run_starts = ring
            .snapshot()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::RunStart { .. }))
            .count();
        assert_eq!(run_starts, simulations, "{name}");
    }
}

#[test]
fn cache_views_count_the_simulations_they_execute() {
    // Untraced, so the count cannot ride on the sink: every simulation
    // passes RunCache::tracer, traced or not.
    let cache = RunCache::new();
    for (name, simulations) in [("voltage", 21), ("ablation", 13), ("resilience", 9)] {
        let view = cache.view();
        generate_named(name, &view, &micro()).unwrap();
        assert_eq!(view.executed(), simulations, "{name}");
        assert_eq!(view.memo_hits(), 0, "{name}: a cold pass");
        assert_eq!(view.backing_hits(), 0, "{name}: no backing");
    }
    // The epoch sweep's 5 memoised runs are memo hits the second time;
    // the 5 delivery and 3 threshold chips are custom and run again.
    let again = cache.view();
    generate_named("ablation", &again, &micro()).unwrap();
    assert_eq!(again.executed(), 8);
    assert_eq!(again.memo_hits(), 5);
    assert_eq!(again.backing_hits(), 0);
}
