//! Crash-safety properties of the durable result store (DESIGN.md §15),
//! the one persistence layer behind both `--checkpoint-dir` and
//! `serve --store`:
//!
//! * a store holding *any* subset of a campaign's entries — one of them
//!   torn or bit-flipped, exactly what a crash or bit rot can leave
//!   behind — resumes the campaign to a report byte-identical to the
//!   uninterrupted one, and the damaged entry is re-saved clean;
//! * arbitrary bytes in an entry file never make `ResultStore::open` or
//!   `load` panic: the entry is a miss, and a later save of the same key
//!   lands a loadable entry.

use proptest::prelude::*;
use respin_core::arch::ArchConfig;
use respin_core::experiments::common::{canonical_key, ResultBacking};
use respin_core::experiments::{ResultSource, RunCache};
use respin_core::runner::RunOptions;
use respin_serve::ResultStore;
use respin_sim::RunResult;
use respin_workloads::Benchmark;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The tiny campaign under test: three distinct runs, small enough that
/// a full re-execution per proptest case stays in test-suite budget.
fn batch() -> Vec<RunOptions> {
    [
        (ArchConfig::ShStt, Benchmark::Fft, 7),
        (ArchConfig::ShSttCc, Benchmark::Ocean, 7),
        (ArchConfig::PrSramNt, Benchmark::Fft, 9),
    ]
    .into_iter()
    .map(|(arch, bench, seed)| {
        let mut o = RunOptions::new(arch, bench);
        o.clusters = 1;
        o.cores_per_cluster = 4;
        o.instructions_per_thread = Some(4_000);
        o.warmup_per_thread = 1_000;
        o.epoch_instructions = Some(1_000);
        o.seed = seed;
        o
    })
    .collect()
}

/// The campaign's "final report": every result, in batch order, in the
/// exact JSON the real reports are built from.
fn final_report(cache: &RunCache) -> String {
    cache
        .run_all(&batch())
        .iter()
        .map(|r| serde_json::to_string(r.as_ref()).expect("result serialises"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn fresh_dir(tag: &str) -> PathBuf {
    // respin-lint: allow(D003, reason="test-only temp-dir uniquifier; never reaches results")
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // respin-lint: allow(D003, reason="test-only temp-dir uniquifier; never reaches results")
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "respin-persistence-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The uninterrupted campaign, built once through a store.
struct Baseline {
    report: String,
    /// Per batch position: canonical key, live result, entry file bytes.
    entries: Vec<(String, RunResult, Vec<u8>)>,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = fresh_dir("baseline");
        let store = Arc::new(ResultStore::open(&dir, 0).expect("open store"));
        let cache = RunCache::new().with_backing(store.clone());
        let report = final_report(&cache);
        let entries = batch()
            .iter()
            .map(|o| {
                let key = canonical_key(o);
                let (result, source) = cache.run_with_source(o);
                assert_eq!(source, ResultSource::WarmMemo, "run completed");
                let result = result.as_ref().clone();
                let bytes = fs::read(store.entry_path(&key)).expect("entry saved");
                (key, result, bytes)
            })
            .collect();
        let _ = fs::remove_dir_all(&dir);
        Baseline { report, entries }
    })
}

/// Structure-aware fuzz input: pure `noise` (mode 0), or `valid` with
/// `noise` written over it at `at` (mode 1), or `valid` cut at `at`
/// with `noise` appended (mode 2).
fn mangle(valid: &[u8], noise: &[u8], mode: usize, at: usize) -> Vec<u8> {
    let at = at % (valid.len() + 1);
    match mode {
        0 => noise.to_vec(),
        1 => {
            let mut out = valid.to_vec();
            for (i, &b) in noise.iter().enumerate() {
                match out.get_mut(at + i) {
                    Some(slot) => *slot = b,
                    None => out.push(b),
                }
            }
            out
        }
        _ => {
            let mut out = valid[..at].to_vec();
            out.extend_from_slice(noise);
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A store seeded with any subset of the campaign's entries, one of
    /// them damaged, resumes to the never-interrupted report, and leaves
    /// every entry clean.
    #[test]
    fn any_damaged_store_resumes_to_an_identical_report(
        subset in 0usize..8,
        victim in 0usize..3,
        flip in 0usize..2,
        at in 0usize..1_000_000,
        mask in 1u8..16,
    ) {
        let base = baseline();
        let dir = fresh_dir("resume");
        let seeded: Vec<usize> = (0..3).filter(|i| subset & (1 << i) != 0).collect();
        {
            let store = ResultStore::open(&dir, 0).expect("open store");
            for &i in &seeded {
                fs::write(store.entry_path(&base.entries[i].0), &base.entries[i].2)
                    .expect("seed entry");
            }
        }
        // Damage one seeded entry. Both cuts remove at least one byte of
        // the record itself (dropping only the trailing newline leaves a
        // valid record). The flip stays in the low nibble: a high-bit
        // flip can turn `1.0` into `1e0`, the same number.
        let damaged = seeded.get(victim % seeded.len().max(1)).copied();
        if let Some(i) = damaged {
            let (key, _, bytes) = &base.entries[i];
            let mut bytes = bytes.clone();
            let pos = at % (bytes.len() - 1);
            if flip == 1 {
                bytes[pos] ^= mask;
            } else {
                bytes.truncate(pos);
            }
            fs::write(ResultStore::open(&dir, 0).expect("open").entry_path(key), &bytes)
                .expect("damage entry");
        }

        let store = Arc::new(ResultStore::open(&dir, 0).expect("reopen store"));
        let cache = RunCache::new().with_backing(store.clone());
        prop_assert_eq!(&final_report(&cache), &base.report);

        // Every intact seeded entry was a hit; everything else re-ran
        // and was saved, the damaged entry included, byte-clean.
        let intact = seeded.len() - usize::from(damaged.is_some());
        let stats = store.stats();
        prop_assert_eq!(stats.hits, intact as u64);
        prop_assert_eq!(stats.saves, (3 - intact) as u64);
        for (key, _, bytes) in &base.entries {
            prop_assert_eq!(&fs::read(store.entry_path(key)).expect("entry"), bytes);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Untrusted bytes as an entry file never panic `open` or `load`.
    /// Pure noise is always a miss; a mangled copy of a real entry is a
    /// miss or (when the damage happens to be benign) the exact result —
    /// never a near-miss. A later save lands an entry that loads,
    /// through this handle and a fresh one.
    #[test]
    fn arbitrary_entry_bytes_never_panic_the_store(
        entry_noise in proptest::collection::vec(0u8..=255, 1..96),
        entry_mode in 0usize..3,
        entry_at in 0usize..1_000_000,
    ) {
        let base = baseline();
        let (key, result, valid) = &base.entries[0];
        let dir = fresh_dir("fuzz");
        let entry_path = ResultStore::open(&dir, 0).expect("open store").entry_path(key);
        fs::write(&entry_path, mangle(valid, &entry_noise, entry_mode, entry_at))
            .expect("write entry");

        let store = ResultStore::open(&dir, 0).expect("open tolerates any bytes");
        match store.load(key) {
            None => {}
            Some(loaded) => {
                prop_assert!(entry_mode != 0, "pure noise must be a miss");
                prop_assert_eq!(&loaded, result);
            }
        }
        store.save(key, result);
        prop_assert_eq!(store.load(key), Some(result.clone()));
        let reopened = ResultStore::open(&dir, 0).expect("reopen");
        prop_assert_eq!(reopened.load(key), Some(result.clone()));
        let _ = fs::remove_dir_all(&dir);
    }
}
