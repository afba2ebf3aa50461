//! End-to-end properties of the `respin-serve` daemon (DESIGN.md §17):
//!
//! * **Three-way byte-identity** — a result computed by the one-shot
//!   runner, served live by the daemon, or served warm from its
//!   persistent store is the same bytes, under concurrent clients
//!   mixing warm and cold keys.
//! * **Restart warmth** — a daemon killed and rebound over the same
//!   store directory serves every previously-computed key warm, with
//!   bit-identical payloads and zero re-simulation.
//! * **Fault isolation** — a run that panics mid-job stays retryable,
//!   surfaces as a structured `SRV-RUN-PANIC` error, and never poisons
//!   the content-addressed store; the connection and the daemon survive
//!   it.
//! * **Disconnect tolerance** — a client that hangs up mid-stream
//!   cannot take down the daemon or lose the job: the admitted run
//!   completes and lands warm for the next client.
//! * **Handshake** — `Hello` reports the thread budget the daemon was
//!   started with and the store occupancy its `Stats` report, which match
//!   the entry files on disk.

use respin_core::arch::ArchConfig;
use respin_core::experiments::common::{canonical_key, ResultBacking};
use respin_core::experiments::{generate_named, ExpParams, RunCache};
use respin_core::runner::RunOptions;
use respin_serve::protocol::{encode_request, request, Event, Request, CODE_RUN_PANIC};
use respin_serve::{Client, ResultSource, ServeOptions, Server, SweepOutcome};
use respin_workloads::Benchmark;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Small distinct runs: cheap enough to simulate several times in the
/// suite, distinct enough to exercise the content addressing.
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

/// A run constructed to panic inside the simulator (zero-length epochs).
fn poisoned_options() -> RunOptions {
    let mut params = ExpParams::quick();
    params.instructions_per_thread = 2_000;
    params.warmup_per_thread = 500;
    let mut o = params.options(ArchConfig::ShStt, Benchmark::Fft);
    o.clusters = 1;
    o.cores_per_cluster = 4;
    o.epoch_instructions = Some(0);
    o
}

fn fresh_dir(tag: &str) -> PathBuf {
    // respin-lint: allow(D003, reason="test-only temp-dir uniquifier; never reaches results")
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // respin-lint: allow(D003, reason="test-only temp-dir uniquifier; never reaches results")
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("respin-serve-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Starts an in-process daemon; returns its socket path and the accept
/// loop's join handle (joined after a client sends `Shutdown`).
fn start_daemon(
    dir: &std::path::Path,
    store: bool,
    threads: usize,
    max_jobs: usize,
) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = dir.join("daemon.sock");
    let opts = ServeOptions {
        socket: socket.clone(),
        store_dir: store.then(|| dir.join("store")),
        store_budget_bytes: 0,
        threads,
        max_jobs,
        quiet: true,
    };
    let server = Server::bind(&opts).expect("bind daemon");
    let handle = std::thread::spawn(move || server.run().expect("accept loop"));
    // bind() returns with the socket live; connecting needs no polling.
    (socket, handle)
}

/// The one-shot reference: serialised results straight from the runner,
/// no daemon involved.
fn direct_bytes(batch: &[RunOptions]) -> Vec<String> {
    batch
        .iter()
        .map(|o| serde_json::to_string(&respin_core::run(o)).expect("result serialises"))
        .collect()
}

#[test]
fn concurrent_clients_serve_byte_identical_results_with_warm_and_cold_keys() {
    let dir = fresh_dir("concurrent");
    let (socket, handle) = start_daemon(&dir, true, 2, 2);
    let reference = direct_bytes(&batch());

    // Seed one key warm so concurrent clients mix warm and cold.
    let mut seeder = Client::connect(&socket).expect("connect seeder");
    let seeded = seeder.sweep(vec![batch()[0].clone()], false).expect("seed");
    assert_eq!(seeded.done.live, 1, "seed run must simulate live");

    let clients: Vec<_> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let outcome = client.sweep(batch(), false).expect("sweep");
                assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
                assert_eq!(outcome.done.results, batch().len());
                for (i, result) in outcome.results.iter().enumerate() {
                    let served = serde_json::to_string(result.as_ref().expect("result present"))
                        .expect("serialises");
                    assert_eq!(
                        served, reference[i],
                        "served result {i} must be byte-identical to the one-shot runner"
                    );
                }
                outcome
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    // The seeded key must never have been re-simulated: every client
    // sees it warm (memo or store), and the daemon's memo dedups the
    // cold keys across racing clients — each is labelled `Live` for
    // exactly the one client that simulated it, and `WarmMemo` for the
    // clients that found it done or waited it out.
    for outcome in &outcomes {
        assert_ne!(
            outcome.sources[0],
            Some(ResultSource::Live),
            "seeded key must be served warm"
        );
    }
    let cold = 1..batch().len();
    for i in cold.clone() {
        let live = outcomes
            .iter()
            .filter(|o| o.sources[i] == Some(ResultSource::Live))
            .count();
        assert_eq!(live, 1, "cold key {i} must be labelled Live exactly once");
    }
    let live: usize = outcomes.iter().map(|o| o.done.live).sum();
    assert_eq!(live, cold.len(), "one simulation per distinct cold key");

    let mut closer = Client::connect(&socket).expect("connect closer");
    closer.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_duplicate_within_one_sweep_is_simulated_once_and_labelled_memo_once() {
    let dir = fresh_dir("duplicate");
    let (socket, handle) = start_daemon(&dir, true, 2, 1);
    let a = batch()[0].clone();
    let mut client = Client::connect(&socket).expect("connect");
    let outcome = client.sweep(vec![a.clone(), a], false).expect("sweep");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(
        (
            outcome.done.live,
            outcome.done.warm_memo,
            outcome.done.warm_store
        ),
        (1, 1, 0),
        "{:?}",
        outcome.done
    );
    // Two positions, two labels: one simulated, one found done or
    // waited out — which position wins the race is the scheduler's.
    assert!(outcome.sources.contains(&Some(ResultSource::Live)));
    assert!(outcome.sources.contains(&Some(ResultSource::WarmMemo)));
    assert_eq!(outcome.results[0], outcome.results[1]);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hello_reports_the_budget_and_the_store_on_disk() {
    let dir = fresh_dir("hello");
    let (threads, max_jobs) = (4, 2);
    let (socket, handle) = start_daemon(&dir, true, threads, max_jobs);
    let mut client = Client::connect(&socket).expect("connect");
    let outcome = client.sweep(batch(), false).expect("sweep");
    assert_eq!(outcome.done.live, batch().len());
    let hello = client.hello().expect("hello");
    assert_eq!(
        (hello.threads, hello.max_jobs, hello.fair_share),
        (threads, max_jobs, threads / max_jobs)
    );
    let Event::Stats {
        store_entries,
        store_bytes,
        ..
    } = client.stats().expect("stats")
    else {
        panic!("stats request answered with another event");
    };
    assert_eq!(
        (hello.store_entries, hello.store_bytes),
        (store_entries, store_bytes)
    );
    // The daemon's numbers come from its in-memory index; the entry
    // files on disk are the truth they must match.
    let mut on_disk = (0, 0);
    for entry in std::fs::read_dir(dir.join("store")).expect("store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.len() == 21 && name.ends_with(".json") {
            on_disk.0 += 1;
            on_disk.1 += entry.metadata().expect("metadata").len();
        }
    }
    assert_eq!(on_disk, (batch().len(), store_bytes));
    assert_eq!(store_entries, batch().len());
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restart_over_the_same_store_serves_every_key_warm_and_identical() {
    let dir = fresh_dir("restart");
    let reference = direct_bytes(&batch());
    let assert_identical = |phase: &str, outcome: &SweepOutcome| {
        for (i, result) in outcome.results.iter().enumerate() {
            let served = serde_json::to_string(result.as_ref().expect("result present"))
                .expect("serialises");
            assert_eq!(
                served, reference[i],
                "{phase} result {i} must be byte-identical to the one-shot runner"
            );
        }
    };

    // First daemon lifetime: compute everything live, then serve the
    // same batch again from the in-memory memo without simulating.
    let (socket, handle) = start_daemon(&dir, true, 1, 1);
    let mut client = Client::connect(&socket).expect("connect");
    let first = client.sweep(batch(), false).expect("first sweep");
    assert_eq!(first.done.live, batch().len(), "cold daemon simulates all");
    assert_identical("live", &first);
    let memo = client.sweep(batch(), false).expect("memo-warm sweep");
    assert_eq!(memo.done.live, 0, "memo-warm sweep simulates nothing");
    assert_eq!(
        memo.done.warm_memo,
        batch().len(),
        "same daemon must serve every key from its memo: {:?}",
        memo.done
    );
    assert_identical("memo-warm", &memo);
    client.shutdown().expect("shutdown");
    handle.join().expect("first daemon exits");

    // Second lifetime, same store, fresh memo: everything store-warm.
    let (socket, handle) = start_daemon(&dir, true, 1, 1);
    let mut client = Client::connect(&socket).expect("reconnect");
    let second = client.sweep(batch(), false).expect("second sweep");
    assert_eq!(
        second.done.warm_store,
        batch().len(),
        "restarted daemon must serve every key from the store: {:?}",
        second.done
    );
    assert_eq!(second.done.live, 0, "no re-simulation after restart");
    assert_identical("store-warm", &second);
    client.shutdown().expect("shutdown");
    handle.join().expect("second daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_on_a_warm_daemon_simulate_nothing() {
    let dir = fresh_dir("warm-clients");
    let (socket, handle) = start_daemon(&dir, false, 2, 2);
    let reference = direct_bytes(&batch());
    let mut warmer = Client::connect(&socket).expect("connect warmer");
    let cold = warmer.sweep(batch(), false).expect("cold sweep");
    assert_eq!(cold.done.live, batch().len(), "cold daemon simulates all");

    // Racing clients over the whole batch, then single-key requests: all
    // answered from the memo, byte-identical to the one-shot runner.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                client.sweep(batch(), false).expect("sweep")
            })
        })
        .collect();
    let mut outcomes: Vec<(SweepOutcome, &[String])> = clients
        .into_iter()
        .map(|c| (c.join().expect("client"), &reference[..]))
        .collect();
    for (i, opts) in batch().into_iter().enumerate() {
        let one = warmer.sweep(vec![opts], false).expect("single-key sweep");
        outcomes.push((one, &reference[i..=i]));
    }
    for (outcome, want) in &outcomes {
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        assert_eq!(outcome.done.live, 0, "a warm daemon simulates nothing");
        assert_eq!(outcome.done.warm_memo, want.len());
        assert_eq!(outcome.results.len(), want.len());
        for (result, want) in outcome.results.iter().zip(want.iter()) {
            let served = serde_json::to_string(result.as_ref().expect("result present"))
                .expect("serialises");
            assert_eq!(
                &served, want,
                "served result must be byte-identical to the one-shot runner"
            );
        }
    }

    warmer.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_artifacts_are_byte_identical_to_the_shared_dispatch() {
    let dir = fresh_dir("artifact");
    let (socket, handle) = start_daemon(&dir, false, 1, 1);
    let params = ExpParams::quick();
    let (want_text, want_json) =
        generate_named("table3", &RunCache::new(), &params).expect("table3 exists");

    let mut client = Client::connect(&socket).expect("connect");
    let outcome = client.experiment("table3", true).expect("experiment");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.text.as_deref(), Some(want_text.as_str()));
    assert_eq!(outcome.json.as_deref(), Some(want_json.as_str()));

    // Unknown names come back as structured errors, not hangups.
    let bogus = client.experiment("fig99", true).expect("request survives");
    assert_eq!(bogus.errors.len(), 1);
    assert_eq!(bogus.errors[0].code, "SRV-EXPERIMENT");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_run_stays_retryable_and_never_poisons_the_store() {
    let dir = fresh_dir("panic");
    let (socket, handle) = start_daemon(&dir, true, 1, 1);
    let good = batch()[0].clone();
    let bad = poisoned_options();

    let mut client = Client::connect(&socket).expect("connect");
    let outcome = client
        .sweep(vec![good.clone(), bad.clone()], false)
        .expect("sweep survives the panic");
    assert!(outcome.results[0].is_some(), "good run completes");
    assert!(outcome.results[1].is_none(), "bad run yields no result");
    assert_eq!(outcome.errors.len(), 1, "one structured error");
    assert_eq!(outcome.errors[0].code, CODE_RUN_PANIC);
    assert!(
        outcome.errors[0].message.contains("CFG-EPOCH"),
        "the error carries the panic message: {}",
        outcome.errors[0].message
    );
    assert_eq!(outcome.done.results, 1);

    // The store holds the good key and emphatically not the bad one.
    let store_dir = dir.join("store");
    let store = respin_serve::ResultStore::open(&store_dir, 0).expect("reopen store");
    assert!(
        store.load(&canonical_key(&good)).is_some(),
        "good key stored"
    );
    assert!(
        store.load(&canonical_key(&bad)).is_none(),
        "failed key must not reach the content-addressed store"
    );

    // The connection and daemon survive: the same client runs again.
    let again = client.sweep(vec![good], false).expect("connection healthy");
    assert_eq!(again.done.results, 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_disconnect_mid_stream_leaves_the_job_running_to_completion() {
    let dir = fresh_dir("hangup");
    let (socket, handle) = start_daemon(&dir, true, 1, 1);
    let run = batch()[2].clone();
    let key = canonical_key(&run);

    // A raw connection that requests a traced run and hangs up without
    // reading a single reply line.
    {
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        let line = encode_request(&request(
            1,
            Request::Run {
                options: Box::new(run.clone()),
                trace: true,
            },
        ));
        raw.write_all(line.as_bytes()).expect("send");
        raw.write_all(b"\n").expect("send newline");
        raw.flush().expect("flush");
        // Dropping the stream here closes both halves mid-stream.
    }

    // The admitted job must finish and land in the store regardless.
    // (Polled with a bounded retry count, not a wall-clock deadline —
    // rule D002 keeps `Instant` out of result-bearing crates' tests.)
    let store_dir = dir.join("store");
    let mut retries = 1200;
    loop {
        let store = respin_serve::ResultStore::open(&store_dir, 0).expect("open store");
        if store.load(&key).is_some() {
            break;
        }
        retries -= 1;
        assert!(retries > 0, "abandoned job never reached the store");
        std::thread::sleep(Duration::from_millis(50));
    }

    // And the daemon is still healthy: a new client gets the result
    // warm (memo or store), byte-identical to the one-shot runner.
    let mut client = Client::connect(&socket).expect("reconnect");
    let outcome = client.sweep(vec![run.clone()], false).expect("sweep");
    assert_ne!(
        outcome.sources[0],
        Some(ResultSource::Live),
        "abandoned job's result must be served warm"
    );
    let served =
        serde_json::to_string(outcome.results[0].as_ref().expect("result")).expect("serialises");
    assert_eq!(served, direct_bytes(&[run])[0]);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}
