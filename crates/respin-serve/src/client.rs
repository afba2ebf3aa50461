//! A blocking client for the `respin-serve/v1` protocol.
//!
//! Used by the `respin-experiments client` subcommand and the
//! integration tests. The client is deliberately dumb: it frames lines, checks versions, correlates ids,
//! and reassembles streamed results into client (batch) order — all
//! interpretation beyond that belongs to the caller.

use crate::protocol::{
    decode_event, encode_request, request, Event, Request, ResultSource, PROTOCOL_VERSION,
};
use respin_core::RunOptions;
use respin_power::diag::Violation;
use respin_sim::RunResult;
use respin_trace::TraceEvent;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Summary counts from a `Done` event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoneCounts {
    /// Results delivered.
    pub results: usize,
    /// Of those, simulated live.
    pub live: usize,
    /// Of those, served from the daemon's in-memory memo.
    pub warm_memo: usize,
    /// Of those, loaded from the persistent store.
    pub warm_store: usize,
}

/// Everything a sweep request streamed back, reassembled.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Per-batch-position results (`None` = that run failed).
    pub results: Vec<Option<RunResult>>,
    /// Per-batch-position provenance labels.
    pub sources: Vec<Option<ResultSource>>,
    /// Streamed trace events, in arrival order.
    pub trace: Vec<TraceEvent>,
    /// Structured errors (`SRV-RUN-PANIC` for failed runs).
    pub errors: Vec<Violation>,
    /// The closing summary.
    pub done: DoneCounts,
    /// Threads the daemon granted this job.
    pub granted_threads: usize,
}

/// Everything an experiment request streamed back.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutcome {
    /// The text artifact, when the experiment succeeded.
    pub text: Option<String>,
    /// The JSON artifact, when the experiment succeeded.
    pub json: Option<String>,
    /// Structured errors.
    pub errors: Vec<Violation>,
    /// The closing summary.
    pub done: DoneCounts,
}

/// Daemon identity from the `Hello` handshake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HelloInfo {
    /// Total simulation thread budget.
    pub threads: usize,
    /// Concurrent jobs admitted before queueing.
    pub max_jobs: usize,
    /// Threads granted to each admitted job.
    pub fair_share: usize,
    /// Entries in the persistent store.
    pub store_entries: usize,
    /// Bytes in the persistent store.
    pub store_bytes: u64,
}

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Client {
    /// Connects to the daemon at `socket`.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// The protocol version this client speaks.
    pub fn protocol(&self) -> &'static str {
        PROTOCOL_VERSION
    }

    fn send(&mut self, req: Request) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode_request(&request(id, req));
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        Ok(id)
    }

    /// Reads one event envelope, skipping blank lines.
    fn next_event(&mut self) -> Result<(u64, Event), String> {
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".to_string());
            }
            if line.trim().is_empty() {
                continue;
            }
            let env = decode_event(&line).map_err(|v| v.to_string())?;
            return Ok((env.id, env.ev));
        }
    }

    /// Handshakes and returns the daemon's identity.
    pub fn hello(&mut self) -> Result<HelloInfo, String> {
        let id = self.send(Request::Hello)?;
        loop {
            let (got, ev) = self.next_event()?;
            if got != id {
                continue;
            }
            match ev {
                Event::Hello {
                    threads,
                    max_jobs,
                    fair_share,
                    store_entries,
                    store_bytes,
                } => {
                    return Ok(HelloInfo {
                        threads,
                        max_jobs,
                        fair_share,
                        store_entries,
                        store_bytes,
                    })
                }
                Event::Error { violation } => return Err(violation.to_string()),
                _ => {}
            }
        }
    }

    /// Runs a batch, blocking until its `Done`, reassembling streamed
    /// results into batch order.
    pub fn sweep(&mut self, batch: Vec<RunOptions>, trace: bool) -> Result<SweepOutcome, String> {
        let len = batch.len();
        let id = self.send(Request::Sweep { batch, trace })?;
        let mut outcome = SweepOutcome {
            results: vec![None; len],
            sources: vec![None; len],
            ..SweepOutcome::default()
        };
        loop {
            let (got, ev) = self.next_event()?;
            if got != id {
                continue;
            }
            match ev {
                Event::Started { granted_threads } => outcome.granted_threads = granted_threads,
                Event::Trace { event } => outcome.trace.push(event),
                Event::Result {
                    index,
                    source,
                    result,
                } if index < len => {
                    outcome.results[index] = Some(*result);
                    outcome.sources[index] = Some(source);
                }
                Event::Error { violation } => outcome.errors.push(violation),
                Event::Done {
                    results,
                    live,
                    warm_memo,
                    warm_store,
                } => {
                    outcome.done = DoneCounts {
                        results,
                        live,
                        warm_memo,
                        warm_store,
                    };
                    return Ok(outcome);
                }
                _ => {}
            }
        }
    }

    /// Runs one simulation (a one-entry sweep).
    pub fn run(&mut self, options: RunOptions, trace: bool) -> Result<SweepOutcome, String> {
        self.sweep(vec![options], trace)
    }

    /// Generates a named experiment, blocking until its `Done` (or a
    /// terminal error).
    pub fn experiment(&mut self, name: &str, quick: bool) -> Result<ExperimentOutcome, String> {
        let id = self.send(Request::Experiment {
            name: name.to_string(),
            quick,
        })?;
        let mut outcome = ExperimentOutcome::default();
        loop {
            let (got, ev) = self.next_event()?;
            if got != id {
                continue;
            }
            match ev {
                Event::Artifact { kind, body, .. } => match kind.as_str() {
                    "txt" => outcome.text = Some(body),
                    "json" => outcome.json = Some(body),
                    _ => {}
                },
                Event::Error { violation } => {
                    // Experiment errors are terminal: no Done follows an
                    // unknown name or a panic.
                    outcome.errors.push(violation);
                    return Ok(outcome);
                }
                Event::Done {
                    results,
                    live,
                    warm_memo,
                    warm_store,
                } => {
                    outcome.done = DoneCounts {
                        results,
                        live,
                        warm_memo,
                        warm_store,
                    };
                    return Ok(outcome);
                }
                _ => {}
            }
        }
    }

    /// Snapshots daemon counters.
    pub fn stats(&mut self) -> Result<Event, String> {
        let id = self.send(Request::Stats)?;
        loop {
            let (got, ev) = self.next_event()?;
            if got == id {
                return Ok(ev);
            }
        }
    }

    /// Asks the daemon to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let id = self.send(Request::Shutdown)?;
        loop {
            let (got, ev) = self.next_event()?;
            if got == id {
                return match ev {
                    Event::Done { .. } => Ok(()),
                    Event::Error { violation } => Err(violation.to_string()),
                    _ => continue,
                };
            }
        }
    }
}
