//! The content-addressed on-disk result store behind the
//! [`RunCache`](respin_core::experiments::RunCache) — the workspace's one
//! durable record of completed runs. The daemon opens it with
//! `serve --store DIR`; the one-shot CLI opens it with
//! `--checkpoint-dir DIR`, which is what makes a killed campaign
//! resumable: re-running the same command finds every finished run here.
//!
//! Each completed run is one file, named by the 64-bit FNV-1a hash of
//! its canonical options key (`<16 hex digits>.json`) and containing a
//! single CRC-guarded record line:
//!
//! ```json
//! {"v":1,"crc":1234567890,"record":{"key":"{...options...}","outcome":{"Ok":{...}}}}
//! ```
//!
//! `crc` is FNV-1a 64 over the serialised `record` text, so a torn or
//! bit-rotted entry is detected on load; the vendored JSON round-trips
//! every finite `f64` bit-exactly, so a warm load is the exact
//! `RunResult` the live run produced. The full canonical key is stored
//! *inside* the record and verified on every load, so a (astronomically
//! unlikely) 64-bit hash collision degrades to a cache miss, never a
//! wrong result. Only completed runs are ever saved: a run that panics
//! leaves no entry, so its key is simply retried next time.
//!
//! The entry files are the store's only durable state. Every entry
//! write goes through [`atomic_write`] (tmp + fsync + rename + dir
//! fsync). `SIGKILL` at any instant leaves either the old file or the
//! new one, never a torn hybrid; the kill-and-restart integration test,
//! the `verify.sh` serve smoke gate and its kill-and-resume gate
//! exercise exactly this. `open` and a load write nothing; a save
//! writes only its own entry (and deletes what eviction picks).
//!
//! Eviction: the store carries a byte budget. An in-memory index keeps
//! each entry's size and a logical access clock (no wall clock — the
//! store lives in a result-bearing crate, rule D002); when a save pushes
//! the total over budget, least-recently-used entries are deleted until
//! it fits. Recency is not persisted: `open` lists the entry files at
//! clock zero, so entries that survive a restart rank by hash until they
//! are loaded or saved again. Any other file in the directory (the LRU
//! sidecar an older build kept, say) is ignored.

use parking_lot::Mutex;
use respin_core::experiments::common::ResultBacking;
use respin_core::persist::{atomic_write, fnv1a64};
use respin_sim::RunResult;
use serde::{de_field, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry line-format version; bump on any layout change.
const ENTRY_FORMAT_VERSION: u64 = 1;

/// The record inside an entry line: a run identity (the canonical
/// serialised `RunOptions` key) and its result.
#[derive(Serialize, Deserialize)]
struct Record {
    key: String,
    outcome: Outcome,
}

/// A stored run's outcome. Only completed runs are saved; the variant
/// wrapper is kept so entry bytes stay `"outcome":{"Ok":{...}}`.
#[derive(Serialize, Deserialize)]
enum Outcome {
    Ok(RunResult),
}

/// Serialises one entry line (without the trailing newline).
fn encode_record(key: &str, result: &RunResult) -> String {
    let record = Record {
        key: key.to_string(),
        outcome: Outcome::Ok(result.clone()),
    };
    let body = serde_json::to_string(&record).expect("store record serialises");
    let crc = fnv1a64(body.as_bytes());
    format!("{{\"v\":{ENTRY_FORMAT_VERSION},\"crc\":{crc},\"record\":{body}}}")
}

/// Parses and validates one entry line into its key and result. The
/// error string names what failed; callers treat any error as a corrupt
/// entry.
fn decode_record(line: &str) -> Result<(String, RunResult), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let version: u64 = de_field(&value, "v").map_err(|e| e.to_string())?;
    if version != ENTRY_FORMAT_VERSION {
        return Err(format!(
            "record format v{version}, this reader is v{ENTRY_FORMAT_VERSION}"
        ));
    }
    let crc: u64 = de_field(&value, "crc").map_err(|e| e.to_string())?;
    let record = value.get("record").ok_or("missing record field")?;
    // Re-serialising the parsed record reproduces the writer's exact
    // bytes (field order preserved, floats shortest-exact), so the CRC
    // check covers the full record content.
    let body = serde_json::to_string(record).map_err(|e| e.to_string())?;
    let actual = fnv1a64(body.as_bytes());
    if actual != crc {
        return Err(format!(
            "checksum mismatch: stored {crc}, computed {actual}"
        ));
    }
    let Record {
        key,
        outcome: Outcome::Ok(result),
    } = Record::from_value(record).map_err(|e| e.to_string())?;
    Ok((key, result))
}

/// Default store byte budget: 256 MiB (thousands of quick-profile
/// results; a full-profile `RunResult` line is a few KiB).
pub const DEFAULT_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// The in-memory index, guarded by one store-wide mutex: each entry's
/// size and last access on a logical clock. Never persisted.
struct Index {
    clock: u64,
    entries: BTreeMap<String, (u64, u64)>, // hash -> (bytes, seq)
}

impl Index {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|(b, _)| *b).sum()
    }
}

/// Counters snapshot for `stats` responses and the bench report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries indexed: found at `open` or saved since, less evictions
    /// and quarantines.
    pub entries: usize,
    /// Total bytes of the indexed entry files.
    pub bytes: u64,
    /// Loads that returned a result.
    pub hits: u64,
    /// Loads that found nothing (or a corrupt/foreign entry).
    pub misses: u64,
    /// Results saved.
    pub saves: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
}

/// The persistent content-addressed result store.
///
/// Thread-safe ([`ResultBacking`] requires it); all failures degrade to
/// misses or skipped saves — a persistence problem costs warm starts,
/// never a campaign.
pub struct ResultStore {
    dir: PathBuf,
    budget_bytes: u64,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    saves: AtomicU64,
    evictions: AtomicU64,
}

/// `<16 hex digits>` stem for a canonical key.
fn hash_stem(key: &str) -> String {
    format!("{:016x}", fnv1a64(key.as_bytes()))
}

/// True for file names shaped like store entries (`<16 hex>.json`).
fn is_entry_name(name: &str) -> bool {
    name.len() == 21 && name.ends_with(".json") && name[..16].bytes().all(|b| b.is_ascii_hexdigit())
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` with the given
    /// byte budget (clamped to at least one entry's worth; `0` means
    /// [`DEFAULT_BUDGET_BYTES`]).
    ///
    /// Indexes every entry file in the directory at clock zero, with
    /// its size read from the file. Opening writes nothing.
    pub fn open(dir: &Path, budget_bytes: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let budget = if budget_bytes == 0 {
            DEFAULT_BUDGET_BYTES
        } else {
            budget_bytes
        };
        let mut entries = BTreeMap::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_entry_name(&name) {
                entries.insert(name[..16].to_string(), (entry.metadata()?.len(), 0));
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            budget_bytes: budget,
            index: Mutex::new(Index { clock: 0, entries }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters + occupancy snapshot.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock();
        StoreStats {
            entries: index.entries.len(),
            bytes: index.total_bytes(),
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            saves: self.saves.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
        }
    }

    /// Absolute path of the entry file for `key`.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", hash_stem(key)))
    }

    /// Deletes LRU entries until the total fits the budget. The entry
    /// for `keep` (the one just written) is never evicted — a single
    /// over-budget result is still a warm result.
    fn evict_to_budget(&self, keep: &str) {
        let victims: Vec<String> = {
            let index = self.index.lock();
            let mut by_age: Vec<(&String, u64, u64)> = index
                .entries
                .iter()
                .map(|(hash, &(bytes, seq))| (hash, bytes, seq))
                .collect();
            by_age.sort_by_key(|&(hash, _, seq)| (seq, hash.clone()));
            let mut total = index.total_bytes();
            let mut victims = Vec::new();
            for (hash, bytes, _) in by_age {
                if total <= self.budget_bytes {
                    break;
                }
                if hash == keep {
                    continue;
                }
                total -= bytes;
                victims.push(hash.clone());
            }
            victims
        };
        for hash in victims {
            let path = self.dir.join(format!("{hash}.json"));
            if let Err(e) = std::fs::remove_file(&path) {
                if e.kind() != io::ErrorKind::NotFound {
                    eprintln!("respin-serve: eviction of {} failed: {e}", path.display());
                    continue;
                }
            }
            self.index.lock().entries.remove(&hash);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl ResultBacking for ResultStore {
    fn load(&self, key: &str) -> Option<RunResult> {
        let stem = hash_stem(key);
        if !self.index.lock().entries.contains_key(&stem) {
            self.misses.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        let path = self.dir.join(format!("{stem}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                return None;
            }
        };
        let (stored_key, result) = match decode_record(text.trim_end()) {
            Ok(decoded) => decoded,
            Err(reason) => {
                // Torn or bit-rotted: quarantine by deletion so the next
                // save can land a clean entry, and report a miss.
                eprintln!(
                    "respin-serve: corrupt store entry {} ({reason}); removing",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                self.index.lock().entries.remove(&stem);
                self.misses.fetch_add(1, Ordering::SeqCst);
                return None;
            }
        };
        if stored_key != key {
            // 64-bit hash collision (or a foreign file): the entry is
            // someone else's result. A miss, emphatically not a hit.
            self.misses.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        // LRU touch.
        {
            let mut index = self.index.lock();
            index.clock = index.clock.saturating_add(1);
            let clock = index.clock;
            if let Some(slot) = index.entries.get_mut(&stem) {
                slot.1 = clock;
            }
        }
        self.hits.fetch_add(1, Ordering::SeqCst);
        Some(result)
    }

    fn save(&self, key: &str, result: &RunResult) {
        let line = encode_record(key, result);
        let stem = hash_stem(key);
        let path = self.dir.join(format!("{stem}.json"));
        let bytes = line.len() as u64 + 1;
        if let Err(e) = atomic_write(&path, format!("{line}\n").as_bytes()) {
            eprintln!("respin-serve: store save of {} failed: {e}", path.display());
            return;
        }
        {
            let mut index = self.index.lock();
            index.clock = index.clock.saturating_add(1);
            let clock = index.clock;
            index.entries.insert(stem.clone(), (bytes, clock));
        }
        self.evict_to_budget(&stem);
        self.saves.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respin_core::experiments::common::canonical_key;
    use respin_core::experiments::ExpParams;
    use respin_core::run;
    use respin_core::ArchConfig;
    use respin_workloads::Benchmark;
    use std::sync::OnceLock;

    /// One quick-profile run, simulated once for the whole test binary.
    fn tiny_result() -> (String, RunResult) {
        static TINY: OnceLock<(String, RunResult)> = OnceLock::new();
        TINY.get_or_init(|| {
            let params = ExpParams::quick();
            let opts = params.options(ArchConfig::PrSramNt, Benchmark::Fft);
            (canonical_key(&opts), run(&opts))
        })
        .clone()
    }

    fn dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("respin-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_bytes_are_pinned() {
        let result = RunResult {
            ticks: 7,
            time_ps: 2.9,
            instructions: 3,
            energy: Default::default(),
            stats: respin_sim::ChipStats::new(1),
        };
        let line = encode_record("k", &result);
        // Stores written by earlier builds must keep loading, so this is
        // the format contract: envelope, field order, the `Ok` wrapper.
        // The CRC is FNV-1a over the record text, so pinning it pins
        // every byte of the record.
        assert!(line.starts_with(
            "{\"v\":1,\"crc\":17553618538089810901,\"record\":{\"key\":\"k\",\
             \"outcome\":{\"Ok\":{\"ticks\":7,\"time_ps\":2.9,\"instructions\":3,"
        ));
        assert!(line.ends_with(",\"fault_trace\":[]}}}}}"), "{line}");
        assert_eq!(decode_record(&line).unwrap(), ("k".to_string(), result));
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let (_, result) = tiny_result();
        // Keys are serialised options; quotes, escapes and non-ASCII must
        // survive the envelope exactly, as must every float bit.
        for key in ["{\"arch\":\"ShStt\"}", "back\\slash \"q\" µ\n"] {
            let line = encode_record(key, &result);
            assert!(!line.contains('\n'), "an entry is one line");
            let (back_key, back) = decode_record(&line).unwrap();
            assert_eq!(back_key, key);
            assert_eq!(back, result);
            assert_eq!(back.time_ps.to_bits(), result.time_ps.to_bits());
        }
    }

    #[test]
    fn corrupted_record_is_rejected() {
        let result = RunResult {
            ticks: 7,
            time_ps: 2.9,
            instructions: 3,
            energy: Default::default(),
            stats: respin_sim::ChipStats::new(1),
        };
        let line = encode_record("key", &result);
        // Flip a digit inside the record body.
        let pos = line.rfind("\"ticks\":7").expect("ticks field");
        let mut bad = line.clone().into_bytes();
        bad[pos + "\"ticks\":".len()] = b'8';
        let bad = String::from_utf8(bad).unwrap();
        let err = decode_record(&bad).expect_err("corruption must fail the CRC");
        assert!(err.contains("checksum"), "{err}");
        // A future format version is refused, not misread.
        let future = line.replacen("{\"v\":1,", "{\"v\":2,", 1);
        let err = decode_record(&future).expect_err("unknown version");
        assert!(err.contains("v2"), "{err}");
        // A torn line is not JSON at all.
        let err = decode_record(&line[..line.len() / 2]).expect_err("torn line");
        assert!(err.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn torn_entry_misses_and_the_other_entries_survive() {
        let dir = dir("torn");
        let (key, result) = tiny_result();
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            store.save("k1", &result);
            store.save(&key, &result);
        }
        // A crash mid-write of a non-atomic copy: half an entry, no newline.
        let path = dir.join(format!("{}.json", hash_stem(&key)));
        let text = std::fs::read_to_string(&path).unwrap();
        atomic_write(&path, &text.as_bytes()[..text.len() / 2]).unwrap();

        let store = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(
            store.stats().entries,
            2,
            "the torn file is still indexed at open"
        );
        assert!(store.load(&key).is_none(), "torn entry must miss");
        assert_eq!(store.load("k1").unwrap(), result, "neighbour survives");
        assert_eq!(
            store.stats().entries,
            1,
            "torn entry dropped from the index"
        );
        // Saving again lands a clean, loadable entry with the original bytes.
        store.save(&key, &result);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let reopened = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.load(&key).unwrap(), result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_directory_opens_empty_and_clean() {
        let root = dir("missing");
        let dir = root.join("nested").join("store");
        let store = ResultStore::open(&dir, 0).unwrap();
        assert!(dir.is_dir(), "open creates the directory");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "open writes no file"
        );
        assert_eq!(store.budget_bytes, DEFAULT_BUDGET_BYTES);
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                saves: 0,
                evictions: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_holding_another_key_is_a_miss_not_a_hit() {
        // What a 64-bit hash collision looks like on disk: the file for
        // `wanted` holds a valid record for a different key.
        let dir = dir("foreign");
        let (key, result) = tiny_result();
        let store = ResultStore::open(&dir, 0).unwrap();
        store.save(&key, &result);
        let wanted = "some-other-key";
        std::fs::rename(store.entry_path(&key), store.entry_path(wanted)).unwrap();
        let store = ResultStore::open(&dir, 0).unwrap();
        assert!(store.entry_path(wanted).exists(), "the file is there");
        assert!(
            store.load(wanted).is_none(),
            "but it is not this key's result"
        );
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trips_bit_identically_across_reopen() {
        let dir = dir("roundtrip");
        let (key, result) = tiny_result();
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            assert!(store.load(&key).is_none(), "cold store must miss");
            store.save(&key, &result);
            assert_eq!(store.load(&key).unwrap(), result);
        }
        // A fresh handle (fresh process, after a restart) sees the entry.
        let store = ResultStore::open(&dir, 0).unwrap();
        let warm = store.load(&key).expect("entry must survive reopen");
        assert_eq!(warm, result, "warm result must be bit-identical");
        assert_eq!(store.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_degrades_to_a_miss_and_is_quarantined() {
        let dir = dir("corrupt");
        let (key, result) = tiny_result();
        let store = ResultStore::open(&dir, 0).unwrap();
        store.save(&key, &result);
        // Flip a byte in the stored line: the CRC must catch it.
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        atomic_write(&path, &bytes).unwrap();
        let store = ResultStore::open(&dir, 0).unwrap();
        assert!(store.load(&key).is_none(), "corrupt entry must miss");
        assert!(
            !store.entry_path(&key).exists(),
            "corrupt entry must be quarantined"
        );
        // The slot is reusable.
        store.save(&key, &result);
        assert_eq!(store.load(&key).unwrap(), result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru_and_never_evicts_the_newest_save() {
        let dir = dir("evict");
        let (key, result) = tiny_result();
        // Budget of one entry (+ slack): every save evicts the LRU.
        let line_bytes = encode_record(&key, &result).len() as u64 + 1;
        let store = ResultStore::open(&dir, line_bytes + 16).unwrap();
        store.save("first-key", &result);
        store.save("second-key", &result);
        assert_eq!(store.stats().entries, 1, "budget holds one entry");
        assert!(store.load("first-key").is_none(), "LRU entry evicted");
        assert!(store.load("second-key").is_some(), "newest save kept");
        assert_eq!(store.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_set_recency() {
        let dir = dir("recency");
        let (key, result) = tiny_result();
        // Budget of two entries (+ slack): the third save evicts one.
        let line_bytes = encode_record(&key, &result).len() as u64 + 1;
        let store = ResultStore::open(&dir, 2 * line_bytes + 16).unwrap();
        store.save("a-key", &result);
        store.save("b-key", &result);
        assert!(store.load("a-key").is_some());
        store.save("c-key", &result);
        assert_eq!(store.stats().evictions, 1);
        assert!(
            store.load("b-key").is_none(),
            "the least recently used went"
        );
        assert_eq!(store.load("a-key").unwrap(), result, "the load kept a");
        assert_eq!(
            store.load("c-key").unwrap(),
            result,
            "the newest save stays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_loads_and_saves_keep_every_entry() {
        let dir = dir("race");
        let (key, result) = tiny_result();
        let store = ResultStore::open(&dir, 0).unwrap();
        store.save(&key, &result);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (store, key, result) = (&store, &key, &result);
                s.spawn(move || {
                    for i in 0..25 {
                        store.save(&format!("race-{t}-{i}"), result);
                        assert!(store.load(key).is_some());
                    }
                });
            }
        });
        let reopened = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().entries, 101);
        assert_eq!(reopened.stats().bytes, store.stats().bytes);
        assert_eq!(reopened.load(&key).unwrap(), result);
        for t in 0..4 {
            for i in 0..25 {
                assert_eq!(reopened.load(&format!("race-{t}-{i}")).unwrap(), result);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file name in `dir` with its bytes.
    fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn reopen_indexes_every_entry_file() {
        let dir = dir("reindex");
        let (key, result) = tiny_result();
        let bytes = {
            let store = ResultStore::open(&dir, 0).unwrap();
            store.save(&key, &result);
            store.save("second-key", &result);
            store.stats().bytes
        };
        let store = ResultStore::open(&dir, 0).unwrap();
        let stats = store.stats();
        assert_eq!(
            (stats.entries, stats.bytes),
            (2, bytes),
            "sizes come from the files"
        );
        assert_eq!(store.load(&key).unwrap(), result);
        assert_eq!(store.load("second-key").unwrap(), result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_and_warm_loads_write_nothing() {
        let dir = dir("readonly");
        let (key, result) = tiny_result();
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            store.save(&key, &result);
            store.save("second-key", &result);
        }
        let before = snapshot(&dir);
        assert_eq!(before.len(), 2, "one file per entry and nothing else");
        let store = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(snapshot(&dir), before, "open wrote");
        assert_eq!(store.load(&key).unwrap(), result);
        assert!(store.load("never-saved").is_none());
        assert_eq!(snapshot(&dir), before, "a load wrote");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_left_by_an_older_build_serves_every_entry() {
        // Older builds kept an LRU sidecar, `index.json`, next to the
        // entries. It is now an unrelated file: never read, never written.
        let (key, result) = tiny_result();
        let keys = [&key[..], "second-key"];
        let valid = format!(
            "{{\"v\":1,\"clock\":5,\"entries\":[{}]}}",
            keys.iter()
                .enumerate()
                .map(|(i, k)| format!(
                    "{{\"hash\":\"{}\",\"bytes\":1,\"seq\":{}}}",
                    hash_stem(k),
                    i + 3
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        for (tag, sidecar) in [
            ("older-valid", valid.into_bytes()),
            ("older-garbage", vec![0xff, b'{', 0, b'"']),
        ] {
            let dir = dir(tag);
            {
                let store = ResultStore::open(&dir, 0).unwrap();
                for k in keys {
                    store.save(k, &result);
                }
            }
            let sidecar_path = dir.join("index.json");
            std::fs::write(&sidecar_path, &sidecar).unwrap();
            let store = ResultStore::open(&dir, 0).unwrap();
            assert_eq!(store.stats().entries, 2, "{tag}: the sidecar is no entry");
            for k in keys {
                assert_eq!(store.load(k).unwrap(), result, "{tag}");
            }
            store.save("third-key", &result);
            assert_eq!(
                std::fs::read(&sidecar_path).unwrap(),
                sidecar,
                "{tag}: sidecar touched"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
