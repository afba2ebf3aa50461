//! The daemon: a Unix-domain-socket listener, per-job admission
//! control, and per-connection streaming.
//!
//! Threading model: one OS thread per connection (connections are
//! long-lived and few), with **simulation** parallelism governed by a
//! shared [`respin_pool::Budget`] — the operator's single `--threads`
//! budget is divided fairly among up to `--max-jobs` concurrently
//! admitted jobs, and a job beyond that blocks in admission (the
//! client sees the gap between its request and the `Started` event).
//!
//! Fault isolation: a panicking run is caught per-run and reported to
//! the client as an `SRV-RUN-PANIC` violation — the connection and the
//! daemon survive, and the content-addressed store is never written for
//! the failed key (the save happens strictly after a successful run), so
//! the key stays retryable. A *disconnecting client* is equally
//! harmless in the other direction: the first failed write to a dead
//! peer latches the connection's `Sender`, which drops every later
//! event instead of panicking, while the admitted job runs to
//! completion, so its results still land in the memo and the store for
//! the next client.

use crate::protocol::{
    self, decode_request, encode_event, Event, Request, ResultSource, CODE_EXPERIMENT,
    CODE_RUN_PANIC,
};
use crate::store::ResultStore;
use respin_core::experiments::common::canonical_key;
use respin_core::experiments::{generate_named, ExpParams, RunCache};
use respin_core::RunOptions;
use respin_pool::{panic_message, Budget, Pool};
use respin_power::diag::Violation;
use respin_trace::{TraceEvent, TraceSink};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How the daemon is configured. Field-for-field the `serve`
/// subcommand's flags; defaults documented in `docs/OPERATIONS.md`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Socket path to bind (`--socket` / `RESPIN_SOCKET`).
    pub socket: PathBuf,
    /// Persistent store directory (`--store`); `None` = memo-only.
    pub store_dir: Option<PathBuf>,
    /// Store byte budget (`--store-budget-bytes`); 0 = the default.
    pub store_budget_bytes: u64,
    /// Total simulation thread budget (`--threads`); 0 = host parallelism.
    pub threads: usize,
    /// Concurrently admitted jobs (`--max-jobs`); 0 = 2.
    pub max_jobs: usize,
    /// Suppress per-connection stderr logging.
    pub quiet: bool,
}

impl ServeOptions {
    /// Options for `socket` with everything else defaulted.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            store_dir: None,
            store_budget_bytes: 0,
            threads: 0,
            max_jobs: 0,
            quiet: false,
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    cache: RunCache,
    store: Option<Arc<ResultStore>>,
    budget: Arc<Budget>,
    shutdown: AtomicBool,
    connections: AtomicUsize,
    quiet: bool,
}

impl Shared {
    fn log(&self, msg: impl AsRef<str>) {
        if !self.quiet {
            eprintln!("respin-serve: {}", msg.as_ref());
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it.
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the socket and opens the store.
    ///
    /// A pre-existing socket file is probed with a connect: if a daemon
    /// answers, binding fails (`AddrInUse`); a stale file from a killed
    /// daemon is removed and rebound — the recovery path after
    /// `SIGKILL` needs no manual cleanup.
    pub fn bind(opts: &ServeOptions) -> std::io::Result<Server> {
        if opts.socket.exists() {
            if UnixStream::connect(&opts.socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", opts.socket.display()),
                ));
            }
            std::fs::remove_file(&opts.socket)?;
        }
        let threads = if opts.threads == 0 {
            Pool::current().threads()
        } else {
            opts.threads
        };
        let max_jobs = if opts.max_jobs == 0 { 2 } else { opts.max_jobs };
        let mut cache = RunCache::new();
        let mut store = None;
        if let Some(dir) = &opts.store_dir {
            let opened = Arc::new(ResultStore::open(dir, opts.store_budget_bytes)?);
            cache = cache.with_backing(opened.clone());
            store = Some(opened);
        }
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            socket: opts.socket.clone(),
            shared: Arc::new(Shared {
                cache,
                store,
                budget: Arc::new(Budget::new(threads, max_jobs)),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                quiet: opts.quiet,
            }),
        })
    }

    /// The bound socket path.
    pub fn socket_path(&self) -> &std::path::Path {
        &self.socket
    }

    /// Accepts connections until a client sends `Shutdown`, then
    /// removes the socket file and returns.
    ///
    /// Shutdown is *immediate* for the accept loop but does not join
    /// in-flight connection handlers — the store's `atomic_write`
    /// discipline makes dying mid-job safe, and that is the property
    /// the operator actually needs (see `docs/OPERATIONS.md`,
    /// "Stopping").
    pub fn run(self) -> std::io::Result<()> {
        self.shared.log(format!(
            "serving on {} ({} threads / {} jobs, store: {})",
            self.socket.display(),
            self.shared.budget.total(),
            self.shared.budget.max_jobs(),
            self.shared
                .store
                .as_ref()
                .map_or("none".to_string(), |s| s.dir().display().to_string()),
        ));
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = self.shared.clone();
                    let id = shared.connections.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || handle_connection(&shared, stream, id));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        self.shared.log("shutdown requested; leaving accept loop");
        let _ = std::fs::remove_file(&self.socket);
        Ok(())
    }
}

/// The write half of one connection: serialises envelope sends and
/// latches the first failure so a hung-up client never takes down the
/// job that is computing on its behalf.
struct Sender {
    inner: Mutex<SenderState>,
}

struct SenderState {
    stream: UnixStream,
    failed: bool,
}

impl Sender {
    fn new(stream: UnixStream) -> Self {
        Self {
            inner: Mutex::new(SenderState {
                stream,
                failed: false,
            }),
        }
    }

    /// Sends one event line; returns `false` once the peer is gone.
    fn send(&self, id: u64, ev: Event) -> bool {
        let mut state = self.inner.lock().expect("sender poisoned");
        if state.failed {
            return false;
        }
        let mut line = encode_event(&protocol::event(id, ev));
        line.push('\n');
        let ok = state
            .stream
            .write_all(line.as_bytes())
            .and_then(|()| state.stream.flush())
            .is_ok();
        if !ok {
            state.failed = true;
        }
        ok
    }

    fn failed(&self) -> bool {
        self.inner.lock().expect("sender poisoned").failed
    }
}

/// Adapts a connection's [`Sender`] into a [`TraceSink`]: each trace
/// event becomes one `Trace` envelope on the wire, streamed while the
/// simulation runs.
struct EnvelopeSink {
    sender: Arc<Sender>,
    id: u64,
}

impl TraceSink for EnvelopeSink {
    fn record(&self, event: &TraceEvent) {
        self.sender.send(
            self.id,
            Event::Trace {
                event: event.clone(),
            },
        );
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: UnixStream, conn: usize) {
    let reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(e) => {
            shared.log(format!("conn {conn}: clone failed: {e}"));
            return;
        }
    };
    let sender = Arc::new(Sender::new(stream));
    shared.log(format!("conn {conn}: open"));
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let env = match decode_request(&line) {
            Ok(env) => env,
            Err(violation) => {
                // Can't trust anything further from this peer.
                sender.send(0, Event::Error { violation });
                break;
            }
        };
        let id = env.id;
        match env.req {
            Request::Hello => {
                let (entries, bytes) = store_occupancy(shared);
                sender.send(
                    id,
                    Event::Hello {
                        threads: shared.budget.total(),
                        max_jobs: shared.budget.max_jobs(),
                        fair_share: shared.budget.fair_share(),
                        store_entries: entries,
                        store_bytes: bytes,
                    },
                );
            }
            Request::Stats => {
                let (entries, bytes) = store_occupancy(shared);
                let (hits, saves) = shared
                    .store
                    .as_ref()
                    .map_or((0, 0), |s| (s.stats().hits, s.stats().saves));
                sender.send(
                    id,
                    Event::Stats {
                        memo_runs: shared.cache.len(),
                        store_entries: entries,
                        store_bytes: bytes,
                        store_hits: hits,
                        store_saves: saves,
                        active_jobs: shared.budget.active(),
                    },
                );
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                sender.send(
                    id,
                    Event::Done {
                        results: 0,
                        live: 0,
                        warm_memo: 0,
                        warm_store: 0,
                    },
                );
                break;
            }
            Request::Run { options, trace } => {
                run_sweep(shared, &sender, id, vec![*options], trace);
            }
            Request::Sweep { batch, trace } => {
                run_sweep(shared, &sender, id, batch, trace);
            }
            Request::Experiment { name, quick } => {
                run_experiment(shared, &sender, id, &name, quick);
            }
        }
        if sender.failed() {
            break;
        }
    }
    shared.log(format!("conn {conn}: closed"));
}

fn store_occupancy(shared: &Shared) -> (usize, u64) {
    shared.store.as_ref().map_or((0, 0), |s| {
        let stats = s.stats();
        (stats.entries, stats.bytes)
    })
}

/// Executes a batch under admission control, streaming each result as
/// it completes (completion order; `index` restores client order).
fn run_sweep(
    shared: &Arc<Shared>,
    sender: &Arc<Sender>,
    id: u64,
    batch: Vec<RunOptions>,
    trace: bool,
) {
    let slot = shared.budget.acquire();
    sender.send(
        id,
        Event::Started {
            granted_threads: slot.threads(),
        },
    );
    let cache = if trace {
        shared.cache.with_sink(
            Arc::new(EnvelopeSink {
                sender: sender.clone(),
                id,
            }),
            None,
        )
    } else {
        shared.cache.clone()
    };
    // Work-steal the batch across the job's granted threads; each run
    // is sent the moment it completes so a slow run never dams the
    // stream, labelled with the source the cache reported for this very
    // call. A panicking run surfaces here as an `Err` — it gets an Error
    // event instead of a Result and never touches the store.
    let indices: Vec<usize> = (0..batch.len()).collect();
    let served = slot.pool().par_map(&indices, |&i| {
        match catch_unwind(AssertUnwindSafe(|| cache.run_with_source(&batch[i]))) {
            Ok((result, source)) => {
                // Send is best-effort: when the peer is gone the run
                // still completed and is warm for the next client, so
                // it still counts as served.
                sender.send(
                    id,
                    Event::Result {
                        index: i,
                        source,
                        result: Box::new((*result).clone()),
                    },
                );
                Some(source)
            }
            Err(panic) => {
                sender.send(
                    id,
                    Event::Error {
                        violation: Violation::error(
                            CODE_RUN_PANIC,
                            "job isolation",
                            canonical_key(&batch[i]),
                            format!(
                                "run panicked ({}); key left retryable",
                                panic_message(&*panic)
                            ),
                        ),
                    },
                );
                None
            }
        }
    });
    let tally = |want| served.iter().filter(|&&s| s == Some(want)).count();
    sender.send(
        id,
        Event::Done {
            results: served.iter().flatten().count(),
            live: tally(ResultSource::Live),
            warm_memo: tally(ResultSource::WarmMemo),
            warm_store: tally(ResultSource::WarmStore),
        },
    );
    drop(slot);
}

/// Generates one named experiment under admission control; artifacts
/// stream back as `Artifact` events, byte-identical to the CLI's files.
fn run_experiment(shared: &Arc<Shared>, sender: &Arc<Sender>, id: u64, name: &str, quick: bool) {
    let slot = shared.budget.acquire();
    sender.send(
        id,
        Event::Started {
            granted_threads: slot.threads(),
        },
    );
    let params = if quick {
        ExpParams::quick()
    } else {
        ExpParams::full()
    };
    // The job's own view: its counts are what this job ran, whatever
    // other jobs do on the shared memo map and store meanwhile.
    let cache = shared.cache.view().with_pool(slot.pool());
    let outcome = catch_unwind(AssertUnwindSafe(|| generate_named(name, &cache, &params)));
    match outcome {
        Ok(Some((text, json))) => {
            sender.send(
                id,
                Event::Artifact {
                    name: name.to_string(),
                    kind: "txt".to_string(),
                    body: text,
                },
            );
            sender.send(
                id,
                Event::Artifact {
                    name: name.to_string(),
                    kind: "json".to_string(),
                    body: json,
                },
            );
            sender.send(
                id,
                Event::Done {
                    results: 2,
                    live: cache.executed(),
                    warm_memo: cache.memo_hits(),
                    warm_store: cache.backing_hits(),
                },
            );
        }
        Ok(None) => {
            sender.send(
                id,
                Event::Error {
                    violation: Violation::error(
                        CODE_EXPERIMENT,
                        "experiment dispatch",
                        name,
                        "unknown experiment name",
                    ),
                },
            );
        }
        Err(panic) => {
            sender.send(
                id,
                Event::Error {
                    violation: Violation::error(
                        CODE_RUN_PANIC,
                        "job isolation",
                        name,
                        format!(
                            "experiment panicked ({}); failed keys left retryable",
                            panic_message(&*panic)
                        ),
                    ),
                },
            );
        }
    }
    drop(slot);
}
