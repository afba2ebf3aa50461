//! The `respin-serve/v1` wire protocol: JSONL envelopes exchanged over
//! the daemon's Unix-domain socket.
//!
//! This module is the *implementation*; the normative specification —
//! framing, versioning, error taxonomy, a worked session transcript —
//! is `docs/PROTOCOL.md`. The two are kept in lockstep: the spec's
//! field tables are generated from these types' shapes, and the
//! round-trip tests below pin the exact JSON spellings the spec quotes.
//!
//! Design rules:
//! * **One JSON object per line**, newline-terminated, UTF-8. No
//!   framing beyond the newline; no pretty-printing on the wire.
//! * **Every line carries the protocol version** (`"proto"`). A daemon
//!   rejects mismatched versions with an `SRV-PROTO` error instead of
//!   guessing — protocol errors reuse the
//!   [`respin_power::diag::Violation`] taxonomy, so clients handle one
//!   structured error shape everywhere in the workspace.
//! * **Requests are correlated by client-chosen `id`**; every event the
//!   daemon emits echoes the id of the request it answers. One request
//!   runs at a time per connection (the connection is the job queue);
//!   concurrency comes from opening more connections.

use respin_core::RunOptions;
use respin_power::diag::Violation;
use respin_sim::RunResult;
use respin_trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// The protocol version every envelope must carry.
pub const PROTOCOL_VERSION: &str = "respin-serve/v1";

/// Violation code for malformed or version-mismatched protocol traffic.
pub const CODE_PROTO: &str = "SRV-PROTO";
/// Violation code for a run that panicked inside the daemon.
pub const CODE_RUN_PANIC: &str = "SRV-RUN-PANIC";
/// Violation code for an unknown or failed experiment request.
pub const CODE_EXPERIMENT: &str = "SRV-EXPERIMENT";

/// One client → daemon line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Must equal [`PROTOCOL_VERSION`].
    pub proto: String,
    /// Client-chosen correlation id, echoed on every reply event.
    pub id: u64,
    /// The request body.
    pub req: Request,
}

/// Request bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: ask the daemon to introduce itself.
    Hello,
    /// Run one simulation; equivalent to `Sweep` with one entry.
    Run {
        /// The run to execute (or serve warm).
        options: Box<RunOptions>,
        /// Stream per-epoch trace events while it runs.
        trace: bool,
    },
    /// Run a batch; results stream back as each completes.
    Sweep {
        /// The runs, in client order (echoed via `Result.index`).
        batch: Vec<RunOptions>,
        /// Stream per-epoch trace events while they run.
        trace: bool,
    },
    /// Generate a named experiment (`fig12`, `table3`, …); artifacts
    /// return as `Artifact` events.
    Experiment {
        /// Experiment name from
        /// [`respin_core::experiments::EXPERIMENT_NAMES`].
        name: String,
        /// Use the quick profile instead of the paper-scale one.
        quick: bool,
    },
    /// Snapshot daemon counters (memo size, store occupancy, jobs).
    Stats,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

/// What produced a served result for this request, as the daemon's
/// [`respin_core::experiments::RunCache`] reported it.
pub use respin_core::experiments::ResultSource;

/// One daemon → client line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventEnvelope {
    /// Always [`PROTOCOL_VERSION`].
    pub proto: String,
    /// The id of the request this event answers (0 for connection-level
    /// protocol errors that could not be correlated).
    pub id: u64,
    /// The event body.
    pub ev: Event,
}

/// Event bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Handshake reply.
    Hello {
        /// Total simulation thread budget.
        threads: usize,
        /// Concurrent jobs admitted before queueing.
        max_jobs: usize,
        /// Threads granted to each admitted job.
        fair_share: usize,
        /// Entries in the persistent store (0 when storeless).
        store_entries: usize,
        /// Bytes in the persistent store (0 when storeless).
        store_bytes: u64,
    },
    /// The job passed admission control and is running.
    Started {
        /// Threads granted to this job.
        granted_threads: usize,
    },
    /// One streamed trace event (only when the request set `trace`).
    Trace {
        /// The event, stamped with its stable run id.
        event: TraceEvent,
    },
    /// One completed run.
    Result {
        /// Position in the request batch (always 0 for `Run`).
        index: usize,
        /// What produced it for this request: simulated, memo-warm, or
        /// store-warm.
        source: ResultSource,
        /// The result — byte-identical to a one-shot CLI run.
        result: Box<RunResult>,
    },
    /// One experiment artifact (text or JSON rendering).
    Artifact {
        /// Experiment name.
        name: String,
        /// `"txt"` or `"json"`.
        kind: String,
        /// The artifact body, byte-identical to the CLI's file output.
        body: String,
    },
    /// Daemon counters snapshot.
    Stats {
        /// Completed runs memoised in this daemon's lifetime.
        memo_runs: usize,
        /// Entries in the persistent store.
        store_entries: usize,
        /// Bytes in the persistent store.
        store_bytes: u64,
        /// Store loads that hit.
        store_hits: u64,
        /// Store saves.
        store_saves: u64,
        /// Jobs currently admitted.
        active_jobs: usize,
    },
    /// A structured error. The connection stays usable unless the error
    /// is `SRV-PROTO` (an unparseable peer is unrecoverable).
    Error {
        /// The violation, in the workspace diagnostic taxonomy.
        violation: Violation,
    },
    /// The request is finished; counts summarise what was served.
    Done {
        /// Results delivered.
        results: usize,
        /// Of those, simulated live.
        live: usize,
        /// Of those, served from the in-memory memo.
        warm_memo: usize,
        /// Of those, loaded from the persistent store.
        warm_store: usize,
    },
}

/// Serialises a request envelope as one wire line (no newline).
pub fn encode_request(env: &RequestEnvelope) -> String {
    serde_json::to_string(env).expect("request envelope serialises")
}

/// Serialises an event envelope as one wire line (no newline).
pub fn encode_event(env: &EventEnvelope) -> String {
    serde_json::to_string(env).expect("event envelope serialises")
}

/// Parses and version-checks one client line. Errors come back as
/// ready-to-send `SRV-PROTO` violations.
pub fn decode_request(line: &str) -> Result<RequestEnvelope, Violation> {
    let env: RequestEnvelope = serde_json::from_str(line.trim_end()).map_err(|e| {
        Violation::error(
            CODE_PROTO,
            "wire protocol",
            "request line",
            format!("unparseable request: {e}"),
        )
    })?;
    if env.proto != PROTOCOL_VERSION {
        return Err(Violation::error(
            CODE_PROTO,
            "wire protocol",
            "request envelope",
            format!(
                "protocol version mismatch: client speaks {:?}, daemon speaks {PROTOCOL_VERSION:?}",
                env.proto
            ),
        ));
    }
    Ok(env)
}

/// Parses and version-checks one daemon line (client side).
pub fn decode_event(line: &str) -> Result<EventEnvelope, Violation> {
    let env: EventEnvelope = serde_json::from_str(line.trim_end()).map_err(|e| {
        Violation::error(
            CODE_PROTO,
            "wire protocol",
            "event line",
            format!("unparseable event: {e}"),
        )
    })?;
    if env.proto != PROTOCOL_VERSION {
        return Err(Violation::error(
            CODE_PROTO,
            "wire protocol",
            "event envelope",
            format!(
                "protocol version mismatch: daemon speaks {:?}, client speaks {PROTOCOL_VERSION:?}",
                env.proto
            ),
        ));
    }
    Ok(env)
}

/// Builds an event envelope at the current protocol version.
pub fn event(id: u64, ev: Event) -> EventEnvelope {
    EventEnvelope {
        proto: PROTOCOL_VERSION.to_string(),
        id,
        ev,
    }
}

/// Builds a request envelope at the current protocol version.
pub fn request(id: u64, req: Request) -> RequestEnvelope {
    RequestEnvelope {
        proto: PROTOCOL_VERSION.to_string(),
        id,
        req,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use respin_core::ArchConfig;
    use respin_workloads::Benchmark;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let cases = vec![
            Request::Hello,
            Request::Experiment {
                name: "fig12".to_string(),
                quick: true,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for (i, req) in cases.into_iter().enumerate() {
            let env = request(i as u64, req);
            let line = encode_request(&env);
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let back = decode_request(&line).expect("round trip");
            assert_eq!(back, env);
        }
    }

    #[test]
    fn events_round_trip_through_the_wire_encoding() {
        let cases = vec![
            Event::Started { granted_threads: 2 },
            Event::Done {
                results: 3,
                live: 1,
                warm_memo: 1,
                warm_store: 1,
            },
            Event::Error {
                violation: Violation::error(CODE_RUN_PANIC, "job isolation", "key", "boom"),
            },
        ];
        for (i, ev) in cases.into_iter().enumerate() {
            let env = event(i as u64, ev);
            let line = encode_event(&env);
            assert!(!line.contains('\n'));
            let back = decode_event(&line).expect("round trip");
            assert_eq!(back, env);
        }
    }

    #[test]
    fn result_sources_keep_their_wire_spelling() {
        for (source, wire) in [
            (ResultSource::Live, "\"Live\""),
            (ResultSource::WarmMemo, "\"WarmMemo\""),
            (ResultSource::WarmStore, "\"WarmStore\""),
        ] {
            assert_eq!(serde_json::to_string(&source).expect("serialises"), wire);
            assert_eq!(
                serde_json::from_str::<ResultSource>(wire).expect("parses"),
                source
            );
        }
    }

    /// A peer's JSON writer may spell any string with escapes, and may
    /// send members this daemon does not know: a `Result` line written
    /// that way, with escaped keys and variant names and an extra member
    /// of escaped and non-ASCII text, decodes to the event it encodes.
    #[test]
    fn an_escaped_non_ascii_result_line_decodes_to_the_same_event() {
        let env = event(
            7,
            Event::Result {
                index: 0,
                source: ResultSource::WarmMemo,
                result: Box::new(RunResult {
                    ticks: 7,
                    time_ps: 2.9,
                    instructions: 3,
                    energy: Default::default(),
                    stats: respin_sim::ChipStats::new(1),
                }),
            },
        );
        let mut line = encode_event(&env);
        for (plain, escaped) in [
            (
                r#"{"proto":"respin-serve/v1""#,
                r#"{"note":"h\u00e9llo ✓ \ud83d\ude00 😀 \"q\" \\ \/ \n","\u0070roto":"respin-serve\/v1""#,
            ),
            (r#""Result""#, r#""R\u0065sult""#),
            (r#""WarmMemo""#, r#""Warm\u004Demo""#),
            (r#""index""#, r#""ind\u0065x""#),
            (r#""ticks""#, r#""t\u0069cks""#),
        ] {
            assert!(line.contains(plain), "{plain} not in {line}");
            line = line.replacen(plain, escaped, 1);
        }
        assert_eq!(decode_event(&line).expect("escaped line decodes"), env);
    }

    #[test]
    fn version_mismatch_is_a_srv_proto_violation() {
        let line = r#"{"proto":"respin-serve/v0","id":1,"req":"Hello"}"#;
        let err = decode_request(line).expect_err("v0 must be rejected");
        assert_eq!(err.code, CODE_PROTO);
        assert!(err.message.contains("version mismatch"), "{}", err.message);
    }

    #[test]
    fn garbage_is_a_srv_proto_violation_not_a_panic() {
        let err = decode_request("not json at all").expect_err("garbage rejected");
        assert_eq!(err.code, CODE_PROTO);
        let err = decode_event("{\"half\":").expect_err("truncated rejected");
        assert_eq!(err.code, CODE_PROTO);
        let err = decode_request(&"[".repeat(100_000)).expect_err("deep nesting rejected");
        assert_eq!(err.code, CODE_PROTO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Untrusted lines in either direction — pure noise, or a real
        /// request or event with noise written over it or appended after a
        /// cut — decode to a message or a structured `SRV-PROTO`
        /// violation, never a panic. Noise alone is never a message.
        #[test]
        fn arbitrary_wire_lines_never_panic(
            noise in proptest::collection::vec(0u8..=255, 1..128),
            which in 0usize..4,
            mode in 0usize..3,
            at in 0usize..100_000,
        ) {
            let options = RunOptions::new(ArchConfig::ShStt, Benchmark::Fft);
            let req = match which {
                0 => Request::Hello,
                1 => Request::Run { options: Box::new(options), trace: true },
                2 => Request::Sweep { batch: vec![options; 2], trace: false },
                _ => Request::Experiment { name: "fig12".to_string(), quick: true },
            };
            let ev = match which {
                0 => Event::Hello {
                    threads: 2,
                    max_jobs: 1,
                    fair_share: 2,
                    store_entries: 3,
                    store_bytes: 4096,
                },
                1 => Event::Artifact {
                    name: "fig12".to_string(),
                    kind: "json".to_string(),
                    body: "{\"rows\": [1.5, \"x\"]}\n".to_string(),
                },
                2 => Event::Error {
                    violation: Violation::error(CODE_RUN_PANIC, "job isolation", "key", "boom"),
                },
                _ => Event::Done { results: 3, live: 1, warm_memo: 1, warm_store: 1 },
            };
            let mangle = |valid: String| -> String {
                let valid = valid.into_bytes();
                let at = at % (valid.len() + 1);
                let bytes = match mode {
                    0 => noise.clone(),
                    1 => {
                        let mut out = valid.clone();
                        out.splice(at..(at + noise.len()).min(valid.len()), noise.iter().copied());
                        out
                    }
                    _ => [&valid[..at], &noise[..]].concat(),
                };
                String::from_utf8_lossy(&bytes).into_owned()
            };
            match decode_request(&mangle(encode_request(&request(7, req)))) {
                Ok(_) => prop_assert!(mode != 0, "noise decoded as a request"),
                Err(violation) => prop_assert_eq!(violation.code, CODE_PROTO),
            }
            match decode_event(&mangle(encode_event(&event(7, ev)))) {
                Ok(_) => prop_assert!(mode != 0, "noise decoded as an event"),
                Err(violation) => prop_assert_eq!(violation.code, CODE_PROTO),
            }
        }
    }
}
