//! Property tests for the conformance checker (the verification crate's
//! own contract): arbitrary configurations either verify cleanly or
//! produce at least one well-formed violation — never a panic — and every
//! configuration the checker accepts actually constructs a [`Chip`].

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use respin_power::MemTech;
use respin_sim::{Chip, ChipConfig, CtxSwitchModel, L1Org};
use respin_variation::FrequencyBand;
use respin_verify::{verify_chip_config, CheckContext};
use respin_workloads::Benchmark;

/// Builds a `ChipConfig` from sampled knobs, spanning both the valid
/// envelope and deliberately out-of-range values.
#[allow(clippy::too_many_arguments)]
fn config_from(
    clusters: usize,
    cores_per_cluster: usize,
    core_vdd: f64,
    cache_vdd: f64,
    tech: usize,
    org: usize,
    epoch: u64,
    delivery: u64,
) -> ChipConfig {
    let mut c = ChipConfig::nt_base();
    c.clusters = clusters;
    c.cores_per_cluster = cores_per_cluster;
    c.core_vdd = core_vdd;
    c.cache_vdd = cache_vdd;
    c.cache_tech = if tech == 0 {
        MemTech::Sram
    } else {
        MemTech::SttRam
    };
    c.l1_org = if org == 0 {
        L1Org::Private
    } else {
        L1Org::SharedPerCluster
    };
    c.ctx_switch = if org == 0 {
        CtxSwitchModel::Os
    } else {
        CtxSwitchModel::Hardware
    };
    c.band = match tech + org {
        0 => FrequencyBand::NOMINAL,
        1 => FrequencyBand::NT,
        _ => FrequencyBand::WIDE,
    };
    c.epoch_instructions = epoch;
    c.delivery_ticks = delivery;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The checker's totality contract: any configuration — including
    // zero-core geometries, inverted rails, and sub-threshold voltages —
    // yields a report (no panic), the report agrees with `validate`, and
    // every violation carries enough context to act on.
    #[test]
    fn checker_is_total_and_well_formed(
        clusters in 0usize..6,
        cores_per_cluster in 0usize..20,
        core_vdd in 0.0f64..1.5,
        cache_vdd in 0.0f64..1.5,
        tech in 0usize..2,
        org in 0usize..2,
        epoch in 0u64..2_000_000,
        delivery in 0u64..4,
    ) {
        let config = config_from(
            clusters, cores_per_cluster, core_vdd, cache_vdd, tech, org, epoch, delivery,
        );
        let report = config.check();
        prop_assert_eq!(report.is_clean(), config.validate().is_ok());
        for v in &report.violations {
            prop_assert!(!v.code.is_empty(), "violation without a code: {v}");
            prop_assert!(!v.location.is_empty(), "violation without a location: {v}");
            prop_assert!(!v.message.is_empty(), "violation without a message: {v}");
        }
        // The full registry (power tables, curves, FSMs excluded) is just
        // as total over the same inputs.
        let full = verify_chip_config(&CheckContext::new("prop", config));
        prop_assert!(full.violations.len() >= report.violations.len());
    }

    // Acceptance: every configuration the checker passes must construct a
    // Chip without panicking. Small instances keep the 96 cases fast.
    #[test]
    fn verified_configs_construct_chips(
        clusters in 1usize..3,
        cpc_exp in 0u32..3,
        core_vdd in 0.32f64..1.2,
        cache_vdd in 0.4f64..1.2,
        tech in 0usize..2,
        org in 0usize..2,
        seed in 0u64..1000,
    ) {
        let config = config_from(
            clusters,
            1 << cpc_exp,
            core_vdd,
            cache_vdd,
            tech,
            org,
            50_000,
            2,
        );
        let spec = Benchmark::Fft.spec();
        match Chip::try_new(config.clone(), &spec, seed) {
            Ok(_) => prop_assert!(
                config.validate().is_ok(),
                "chip built from a config the checker rejects"
            ),
            Err(report) => {
                prop_assert!(!report.is_clean(), "rejected with a clean report");
                prop_assert!(
                    config.validate().is_err(),
                    "checker passed a config the chip rejects: {report}"
                );
            }
        }
    }
}
