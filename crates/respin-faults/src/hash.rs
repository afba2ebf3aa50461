//! Stateless seeded draws: splitmix64 finalisation over event
//! coordinates.
//!
//! ## Seed derivation contract
//!
//! Fault decisions must be reproducible (same seeds → bit-identical fault
//! traces), order-independent (the shared-L1 arbiter may reorder events
//! between epochs without perturbing unrelated draws) and free when
//! disabled (no RNG stream to advance). We therefore key every decision
//! on its *coordinates* instead of drawing from a stream:
//!
//! ```text
//! array key  = combine([chip_seed, fault_seed, DOMAIN, cluster_index])
//! write draw = unit_f64(combine([array_key, DOMAIN_WRITE, addr, tick, attempt]))
//! decay draw = unit_f64(combine([array_key, DOMAIN_RETENTION, addr, tick]))
//! core draw  = unit_f64(combine([core_key, DOMAIN_CORE, cluster, core, epoch]))
//! ```
//!
//! `chip_seed` is the simulator seed that also drives variation and
//! workloads; `fault_seed` is `FaultConfig::seed`, a salt that lets the
//! fault universe be resampled while holding everything else fixed.

/// Domain tag for STT-RAM write-attempt draws.
pub const DOMAIN_WRITE: u64 = 1;
/// Domain tag for retention-decay draws.
pub const DOMAIN_RETENTION: u64 = 2;
/// Domain tag for transient-core-fault draws.
pub const DOMAIN_CORE: u64 = 3;

/// splitmix64 finalizer: a strong 64-bit mixing permutation. Every output
/// bit depends on every input bit, which is what makes coordinate-keyed
/// draws statistically independent.
#[must_use]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a coordinate vector into one key: `mix(mix(…mix(a)+b…)+c)`.
/// Order-sensitive by design (the domain tag position matters).
#[must_use]
pub fn combine(parts: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &p in parts {
        acc = mix(acc.wrapping_add(p));
    }
    acc
}

/// Maps a hash to a uniform f64 in `[0, 1)` using the top 53 bits — the
/// standard `u64 → f64` uniform construction, exact in double precision.
#[must_use]
pub fn unit_f64(h: u64) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (h >> 11) as f64 * SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(0), mix(0));
        assert_ne!(mix(0), mix(1));
        // Adjacent inputs should differ in many bits (avalanche sanity).
        let d = (mix(41) ^ mix(42)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_eq!(combine(&[1, 2, 3]), combine(&[1, 2, 3]));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut sum = 0.0;
        for i in 0..4096u64 {
            let u = unit_f64(mix(i));
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn combine_of_nothing_is_zero_and_of_one_part_is_mix() {
        assert_eq!(combine(&[]), 0);
        for x in [0, 1, 42, u64::MAX] {
            assert_eq!(combine(&[x]), mix(x));
        }
        assert_eq!(combine(&[3, 4]), mix(mix(3).wrapping_add(4)));
    }

    #[test]
    fn unit_f64_spans_zero_to_just_below_one() {
        assert_eq!(unit_f64(0), 0.0);
        // The low 11 bits are discarded.
        assert_eq!(unit_f64((1 << 11) - 1), 0.0);
        let top = unit_f64(u64::MAX);
        assert!(top < 1.0);
        assert_eq!(top, 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn mix_has_no_collisions_on_a_dense_sample() {
        let outs: std::collections::HashSet<u64> = (0..8192u64).map(mix).collect();
        assert_eq!(outs.len(), 8192);
    }

    #[test]
    fn domain_tags_separate_draws_at_one_coordinate() {
        let tags = [DOMAIN_WRITE, DOMAIN_RETENTION, DOMAIN_CORE];
        let key = combine(&[7, 11, 0]);
        let draws: std::collections::HashSet<u64> =
            tags.iter().map(|&d| combine(&[key, d, 0x40, 9])).collect();
        assert_eq!(draws.len(), tags.len());
    }
}
