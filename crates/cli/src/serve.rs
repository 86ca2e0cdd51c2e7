//! `march-codex serve`: one resident shared engine, many concurrent clients.
//!
//! The serve loop reads **newline-delimited JSON requests** (one object per
//! line) from stdin or a TCP socket and writes one JSON response line per
//! request, in request order. Every request runs on a [`Session`] handle
//! stamped out by one process-resident [`SharedEngine`], so all clients —
//! and all requests of one client — share a single warm
//! [`ArtifactStore`](sram_sim::ArtifactStore) and worker pool.
//!
//! Request schema (`op` selects the pipeline stage; the existing `Report`
//! JSON of each stage is the response payload):
//!
//! ```json
//! {"op": "coverage", "test": "March SS", "list": "2", "cells": 8}
//! {"op": "campaign", "test": "March SS", "list": "2", "cells": 8, "sample": 4096, "seed": 7, "confidence": 0.95}
//! {"op": "generate", "list": "2", "name": "March GEN", "no_removal": false}
//! {"op": "minimise", "test": "March SL", "list": "2"}
//! {"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 4, "aggressor": 1, "cells": 6, "list": "unlinked"}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! Responses are `{"seq": N, "ok": true, "op": …, "report": {…}}` or
//! `{"seq": N, "ok": false, …, "error": {"kind": …, "message": …}}` — a
//! malformed line yields a typed `protocol` error response, never an abort.
//!
//! Concurrency: requests are multiplexed over at most
//! [`ServeOptions::max_in_flight`] concurrent jobs (the reader blocks once
//! they are all busy — natural backpressure onto the client), each job has a
//! deadline of [`ServeOptions::timeout`] (an expired job yields a typed
//! `timeout` error in its slot; its late result is discarded, though its
//! cache warming persists), and responses are re-serialised into request
//! order before writing.
//!
//! Degradation: a `shutdown` request starts a graceful drain — in-flight
//! jobs finish and are answered, new requests (on every connection) get a
//! typed `shutting_down` error, and the TCP listener stops accepting. A
//! client that goes silent past [`ServeOptions::read_timeout`] is answered
//! with a typed `timeout` error and its socket closed; a client that closes
//! its read end mid-transcript (`BrokenPipe`) ends that stream's serve loop
//! cleanly instead of panicking the writer.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::mpsc::{self, Receiver, RecvTimeoutError};
use crate::sync::{thread, Arc, Duration, Instant, Mutex, PoisonError};

use march_gen::{GeneratorConfig, MarchGenerator, SessionExt};
use sram_fault_model::FaultList;
use sram_sim::{CampaignConfig, JsonObject, PlacementStrategy, Report, SharedEngine};

use crate::args::{require_list, CoverageTarget, FaultDomain};
use crate::commands::{
    build_injection, find_primitive, lookup, resolve_list, validate_scope, CliError,
};
use crate::json::JsonValue;

/// Tuning knobs of the serve loop.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Maximum concurrently executing jobs; the reader blocks (backpressure)
    /// once this many are in flight.
    pub max_in_flight: usize,
    /// Per-job deadline: a request still unanswered this long after being
    /// accepted yields a typed `timeout` error response in its slot.
    pub timeout: Duration,
    /// Per-connection read timeout: a TCP client that sends nothing for this
    /// long is answered with a typed `timeout` error and its socket closed,
    /// so stalled clients cannot hold connection slots forever. `None` (the
    /// default) waits indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_in_flight: 4,
            timeout: Duration::from_secs(30),
            read_timeout: None,
        }
    }
}

/// One latency counter of [`ServeMetrics`]: request count, summed and maximum
/// wall-clock execution time.
#[derive(Debug, Default)]
pub struct LatencyCounter {
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyCounter {
    fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Requests recorded under this kind.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .number("count", self.count.load(Ordering::Relaxed))
            .number("total_micros", self.total_micros.load(Ordering::Relaxed))
            .number("max_micros", self.max_micros.load(Ordering::Relaxed))
            .build()
    }
}

/// Service metrics exposed by the `stats` request: per-kind latency counters
/// plus error/timeout totals. Engine-level counters (`workers_spawned`,
/// `jobs_executed`, `cache_hits`, `cached_artifacts`, `cached_dictionaries`)
/// are read live off the [`SharedEngine`].
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Latency of `coverage` requests.
    pub coverage: LatencyCounter,
    /// Latency of `campaign` requests.
    pub campaign: LatencyCounter,
    /// Latency of `generate` requests.
    pub generate: LatencyCounter,
    /// Latency of `minimise` requests.
    pub minimise: LatencyCounter,
    /// Latency of `diagnose` requests.
    pub diagnose: LatencyCounter,
    /// Latency of `stats` requests themselves.
    pub stats: LatencyCounter,
    /// Requests answered with a typed error (protocol or execution).
    pub errors: AtomicU64,
    /// Requests that exceeded their deadline.
    pub timeouts: AtomicU64,
}

impl ServeMetrics {
    fn counter(&self, op: &'static str) -> &LatencyCounter {
        match op {
            "coverage" => &self.coverage,
            "campaign" => &self.campaign,
            "generate" => &self.generate,
            "minimise" => &self.minimise,
            "diagnose" => &self.diagnose,
            _ => &self.stats,
        }
    }

    fn to_json(&self, engine: &SharedEngine) -> String {
        let requests = JsonObject::new()
            .raw("coverage", self.coverage.to_json())
            .raw("campaign", self.campaign.to_json())
            .raw("generate", self.generate.to_json())
            .raw("minimise", self.minimise.to_json())
            .raw("diagnose", self.diagnose.to_json())
            .raw("stats", self.stats.to_json())
            .build();
        let mut response = JsonObject::new()
            .number("workers_spawned", engine.workers_spawned() as u64)
            .number("jobs_executed", engine.jobs_executed() as u64)
            .number("cache_hits", engine.cache_hits() as u64)
            .number("cached_artifacts", engine.cached_artifacts() as u64)
            .number("cached_dictionaries", engine.cached_dictionaries() as u64)
            .raw("requests", requests)
            .number("errors", self.errors.load(Ordering::Relaxed))
            .number("timeouts", self.timeouts.load(Ordering::Relaxed));
        // The snapshot object appears only when persistence is attached, so
        // snapshot-less transcripts stay byte-identical to older builds.
        if let Some(snapshot) = engine.snapshot_stats() {
            let mut layer = JsonObject::new()
                .string("dir", &snapshot.dir)
                .boolean("degraded", snapshot.degraded)
                .number("hits", snapshot.hits as u64)
                .number("misses", snapshot.misses as u64)
                .number("writes", snapshot.writes as u64)
                .number("write_failures", snapshot.write_failures as u64)
                .number("quarantined", snapshot.quarantined as u64);
            if let Some(last_error) = &snapshot.last_error {
                layer = layer.string("last_error", last_error);
            }
            response = response.raw("snapshot", layer.build());
        }
        response.build()
    }
}

/// One parsed, executable request.
#[derive(Debug)]
enum Request {
    Coverage {
        test: String,
        list: FaultList,
        cells: Option<usize>,
        exhaustive: bool,
    },
    Campaign {
        test: String,
        list: FaultList,
        cells: Option<usize>,
        sample: u64,
        seed: u64,
        confidence: f64,
    },
    Generate {
        list: FaultList,
        cells: Option<usize>,
        no_removal: bool,
        name: Option<String>,
    },
    Minimise {
        test: String,
        list: FaultList,
        cells: Option<usize>,
    },
    Diagnose {
        test: String,
        fault: String,
        victim: usize,
        aggressor: Option<usize>,
        cells: usize,
        list: FaultList,
    },
    Stats,
    Shutdown,
}

impl Request {
    fn op(&self) -> &'static str {
        match self {
            Request::Coverage { .. } => "coverage",
            Request::Campaign { .. } => "campaign",
            Request::Generate { .. } => "generate",
            Request::Minimise { .. } => "minimise",
            Request::Diagnose { .. } => "diagnose",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

fn field_str(value: &JsonValue, key: &str) -> Result<Option<String>, CliError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field
            .as_str()
            .map(|text| Some(text.to_string()))
            .ok_or_else(|| CliError::Arguments(format!("field `{key}` must be a string"))),
    }
}

fn field_usize(value: &JsonValue, key: &str) -> Result<Option<usize>, CliError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field.as_usize().map(Some).ok_or_else(|| {
            CliError::Arguments(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

/// Decodes an optional exact-integer `u64` field. Fractions, negatives,
/// values past 2^53 and the infinities `1e999` parses to are all typed
/// `protocol` errors — never a silent `as`-cast truncation.
fn field_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, CliError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field.as_u64().map(Some).ok_or_else(|| {
            CliError::Arguments(format!(
                "field `{key}` must be a non-negative integer (at most 2^53)"
            ))
        }),
    }
}

/// Decodes an optional finite float field; `1e999` (infinite) and friends are
/// typed `protocol` errors.
fn field_finite_f64(value: &JsonValue, key: &str) -> Result<Option<f64>, CliError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field
            .as_finite_f64()
            .map(Some)
            .ok_or_else(|| CliError::Arguments(format!("field `{key}` must be a finite number"))),
    }
}

fn field_bool(value: &JsonValue, key: &str) -> Result<bool, CliError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(field) => field
            .as_bool()
            .ok_or_else(|| CliError::Arguments(format!("field `{key}` must be a boolean"))),
    }
}

fn required_str(value: &JsonValue, key: &str, op: &str) -> Result<String, CliError> {
    field_str(value, key)?
        .ok_or_else(|| CliError::Arguments(format!("{op} requires a string `{key}` field")))
}

/// The fault list of a request's `list`/`faults` fields, with the same
/// presence rules as the command-line flags.
fn parse_request_list(value: &JsonValue, op: &str) -> Result<FaultList, CliError> {
    let faults = match field_str(value, "faults")? {
        Some(text) => FaultDomain::parse(&text)?,
        None => FaultDomain::Ffm,
    };
    let target = field_str(value, "list")?
        .map(|text| CoverageTarget::parse(&text))
        .transpose()?;
    require_list(target, faults, op)?;
    resolve_list(target, faults)
}

/// Parses one request line into a [`Request`], with typed errors for every
/// malformed shape.
fn parse_request(line: &str) -> Result<Request, CliError> {
    let value = JsonValue::parse(line)
        .map_err(|error| CliError::Arguments(format!("malformed JSON request: {error}")))?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(CliError::Arguments(
            "request must be a JSON object".to_string(),
        ));
    }
    let op = required_str(&value, "op", "every request")?;
    match op.as_str() {
        "coverage" => Ok(Request::Coverage {
            test: field_str(&value, "test")?.unwrap_or_else(|| "March SS".to_string()),
            list: parse_request_list(&value, "coverage")?,
            cells: field_usize(&value, "cells")?,
            exhaustive: field_bool(&value, "exhaustive")?,
        }),
        "campaign" => {
            let sample = field_u64(&value, "sample")?.ok_or_else(|| {
                CliError::Arguments("campaign requires a `sample` draw count".to_string())
            })?;
            if sample == 0 {
                return Err(CliError::Arguments(
                    "field `sample` must be at least 1".to_string(),
                ));
            }
            let confidence = field_finite_f64(&value, "confidence")?.unwrap_or(0.95);
            if confidence <= 0.0 || confidence >= 1.0 {
                return Err(CliError::Arguments(
                    "field `confidence` must lie strictly between 0 and 1".to_string(),
                ));
            }
            Ok(Request::Campaign {
                test: field_str(&value, "test")?.unwrap_or_else(|| "March SS".to_string()),
                list: parse_request_list(&value, "campaign")?,
                cells: field_usize(&value, "cells")?,
                sample,
                seed: field_u64(&value, "seed")?.unwrap_or(0),
                confidence,
            })
        }
        "generate" => Ok(Request::Generate {
            list: parse_request_list(&value, "generate")?,
            cells: field_usize(&value, "cells")?,
            no_removal: field_bool(&value, "no_removal")?,
            name: field_str(&value, "name")?,
        }),
        "minimise" | "minimize" => Ok(Request::Minimise {
            test: required_str(&value, "test", "minimise")?,
            list: parse_request_list(&value, "minimise")?,
            cells: field_usize(&value, "cells")?,
        }),
        "diagnose" => Ok(Request::Diagnose {
            test: required_str(&value, "test", "diagnose")?,
            fault: required_str(&value, "fault", "diagnose")?,
            victim: field_usize(&value, "victim")?
                .ok_or_else(|| CliError::Arguments("diagnose requires `victim`".to_string()))?,
            aggressor: field_usize(&value, "aggressor")?,
            cells: field_usize(&value, "cells")?.unwrap_or(8),
            list: parse_request_list(&value, "diagnose")?,
        }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(CliError::Arguments(format!(
            "unknown op `{other}` (expected coverage, campaign, generate, minimise, diagnose, \
             stats or shutdown)"
        ))),
    }
}

/// Executes one request on a fresh session handle of `engine`, returning the
/// report JSON fragment.
fn execute(
    engine: &SharedEngine,
    metrics: &ServeMetrics,
    request: &Request,
) -> Result<String, CliError> {
    match request {
        Request::Coverage {
            test,
            list,
            cells,
            exhaustive,
        } => {
            let test = lookup(test)?;
            let mut session = engine.session();
            if *exhaustive {
                session = session.with_strategy(PlacementStrategy::Exhaustive);
            }
            if let Some(cells) = cells {
                session = session.with_memory_cells(*cells);
            }
            session
                .try_coverage(&test, list)
                .map(|report| report.to_json())
                .map_err(|error| CliError::Simulation(error.to_string()))
        }
        Request::Campaign {
            test,
            list,
            cells,
            sample,
            seed,
            confidence,
        } => {
            let test = lookup(test)?;
            let mut session = engine.session();
            if let Some(cells) = cells {
                session = session.with_memory_cells(*cells);
            }
            let config = CampaignConfig::default()
                .with_draws(*sample)
                .with_seed(*seed)
                .with_confidence(*confidence);
            session
                .try_campaign(&test, list, &config)
                .map(|report| report.to_json())
                .map_err(|error| CliError::Simulation(error.to_string()))
        }
        Request::Generate {
            list,
            cells,
            no_removal,
            name,
        } => {
            let mut session = engine.session();
            if let Some(cells) = cells {
                session = session.with_memory_cells(*cells);
            }
            validate_scope(&session, list)?;
            let config = if *no_removal {
                GeneratorConfig::without_redundancy_removal()
            } else {
                GeneratorConfig::default()
            };
            let generator = MarchGenerator::with_config(list.clone(), config)
                .named(name.clone().unwrap_or_else(|| "March GEN".to_string()));
            Ok(generator.generate_with(&session).to_json())
        }
        Request::Minimise { test, list, cells } => {
            let test = lookup(test)?;
            let mut session = engine.session();
            if let Some(cells) = cells {
                session = session.with_memory_cells(*cells);
            }
            validate_scope(&session, list)?;
            Ok(session.minimise(&test, list).to_json())
        }
        Request::Diagnose {
            test,
            fault,
            victim,
            aggressor,
            cells,
            list,
        } => {
            let test = lookup(test)?;
            let primitive = find_primitive(fault)?;
            let injected = build_injection(&primitive, *victim, *aggressor, *cells)?;
            let session = engine.session().with_memory_cells(*cells);
            validate_scope(&session, list)?;
            let syndrome = session
                .observe(&test, &injected)
                .map_err(|error| CliError::Simulation(error.to_string()))?;
            // Diagnosis goes through the memoised dictionary, so a repeated
            // query over the same (test, list, scope) is one index lookup —
            // the warm path the service exists for.
            let dictionary = session.dictionary(&test, list);
            Ok(session.diagnose(&syndrome, &dictionary).to_json())
        }
        Request::Stats => Ok(metrics.to_json(engine)),
        // Shutdown is answered inline by the reader (it must observe the
        // drain flag before the next request is parsed); this arm only keeps
        // the dispatch total if one ever reaches a worker.
        Request::Shutdown => Ok(JsonObject::new()
            .string("report", "shutdown")
            .boolean("draining", true)
            .build()),
    }
}

/// The machine-readable kind tag of a [`CliError`].
fn error_kind(error: &CliError) -> &'static str {
    match error {
        CliError::Arguments(_) => "protocol",
        CliError::UnknownTest(_) => "unknown_test",
        CliError::UnknownFault(_) => "unknown_fault",
        CliError::Simulation(_) => "simulation",
    }
}

fn error_line(seq: u64, op: Option<&str>, kind: &str, message: &str) -> String {
    let mut response = JsonObject::new().number("seq", seq).boolean("ok", false);
    if let Some(op) = op {
        response = response.string("op", op);
    }
    response
        .raw(
            "error",
            JsonObject::new()
                .string("kind", kind)
                .string("message", message)
                .build(),
        )
        .build()
}

fn ok_line(seq: u64, op: &str, report: String) -> String {
    JsonObject::new()
        .number("seq", seq)
        .boolean("ok", true)
        .string("op", op)
        .raw("report", report)
        .build()
}

/// Writes one response line and flushes, treating a broken output pipe (the
/// client closed its read end mid-transcript) as an orderly end of the
/// stream: returns `Ok(false)` so the caller stops writing, instead of
/// surfacing an error or panicking the writer thread.
fn write_line<W: Write>(output: &mut W, line: &str) -> io::Result<bool> {
    match writeln!(output, "{line}").and_then(|()| output.flush()) {
        Ok(()) => Ok(true),
        Err(error) if error.kind() == io::ErrorKind::BrokenPipe => Ok(false),
        Err(error) => Err(error),
    }
}

/// A message on the collector channel: either "seq N was accepted with this
/// deadline" (sent by the reader **before** the job is dispatched, so it
/// always arrives first) or "seq N finished with this response line".
enum Outcome {
    Accepted { seq: u64, deadline: Instant },
    Finished { seq: u64, line: String },
}

/// Re-serialises concurrently finishing jobs into request order and writes
/// one response line per request, substituting a typed `timeout` error for
/// any job that misses its deadline (the late result is then discarded).
fn collect_in_order<W: Write>(
    rx: &Receiver<Outcome>,
    output: &mut W,
    metrics: &ServeMetrics,
    timeout: Duration,
) -> io::Result<()> {
    let mut next = 0u64;
    let mut ready: HashMap<u64, String> = HashMap::new();
    let mut deadlines: HashMap<u64, Instant> = HashMap::new();
    let mut timed_out: HashSet<u64> = HashSet::new();
    loop {
        while let Some(line) = ready.remove(&next) {
            if !write_line(output, &line)? {
                return Ok(());
            }
            next += 1;
        }
        // Wait bounded by the pending head-of-line deadline (if any); other
        // seqs cannot time out earlier than `next` because deadlines are
        // assigned in accept order.
        let message = match deadlines.get(&next) {
            Some(deadline) => {
                // lint: allow(timing) — façade `Instant`: reads the explorer's
                // virtual clock under cfg(interleave), the real one otherwise.
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(message) => Some(message),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(message) => Some(message),
                Err(_) => break,
            },
        };
        match message {
            Some(Outcome::Accepted { seq, deadline }) => {
                deadlines.insert(seq, deadline);
            }
            Some(Outcome::Finished { seq, line }) => {
                deadlines.remove(&seq);
                // A slot already answered with a timeout drops its late
                // result — the response order is already fixed.
                if !timed_out.remove(&seq) {
                    ready.insert(seq, line);
                }
            }
            None => {
                deadlines.remove(&next);
                timed_out.insert(next);
                metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                ready.insert(
                    next,
                    error_line(
                        next,
                        None,
                        "timeout",
                        &format!("request exceeded the {}ms deadline", timeout.as_millis()),
                    ),
                );
            }
        }
    }
    while let Some(line) = ready.remove(&next) {
        if !write_line(output, &line)? {
            return Ok(());
        }
        next += 1;
    }
    Ok(())
}

/// Runs the serve loop over one request stream: reads NDJSON requests from
/// `input`, executes them on session handles of `engine` with at most
/// [`ServeOptions::max_in_flight`] concurrent jobs, and writes one response
/// line per request (in request order) to `output`.
///
/// Returns when `input` reaches end-of-file and every accepted request has
/// been answered.
///
/// # Errors
///
/// Returns the first I/O error of `input` or `output`; request-level failures
/// (malformed JSON, unknown tests, simulation errors, deadline misses) are
/// answered as typed JSON error responses instead.
pub fn serve_lines<R, W>(
    input: R,
    output: &mut W,
    engine: &Arc<SharedEngine>,
    metrics: &Arc<ServeMetrics>,
    options: &ServeOptions,
) -> io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let draining = AtomicBool::new(false);
    serve_lines_draining(input, output, engine, metrics, options, &draining)
}

/// [`serve_lines`] with a shared drain flag: a `shutdown` request sets the
/// flag (shared across every connection of a TCP listener), after which new
/// requests on any stream are answered with a typed `shutting_down` error
/// while already-accepted jobs finish and are answered normally.
fn serve_lines_draining<R, W>(
    mut input: R,
    output: &mut W,
    engine: &Arc<SharedEngine>,
    metrics: &Arc<ServeMetrics>,
    options: &ServeOptions,
    draining: &AtomicBool,
) -> io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let workers = options.max_in_flight.max(1);
    // Rendezvous job channel: with `workers` executors, at most
    // `max_in_flight` jobs run concurrently and the reader blocks on the
    // send once all of them are busy — backpressure without buffering.
    let (job_tx, job_rx) = mpsc::sync_channel::<(u64, Request)>(0);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (out_tx, out_rx) = mpsc::channel::<Outcome>();

    thread::scope(|scope| -> io::Result<()> {
        let collector = scope.spawn({
            let metrics = Arc::clone(metrics);
            let timeout = options.timeout;
            move || collect_in_order(&out_rx, output, &metrics, timeout)
        });
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let out_tx = out_tx.clone();
            let engine = Arc::clone(engine);
            let metrics = Arc::clone(metrics);
            scope.spawn(move || loop {
                // Poison recovery: the lock only serialises `recv` calls (no
                // job runs under it), so a panicked sibling worker leaves the
                // receiver usable and the remaining workers keep serving.
                let received = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((seq, request)) = received else {
                    break;
                };
                let op = request.op();
                // lint: allow(timing) — façade `Instant` feeding the latency
                // metrics only; never printed into response bytes.
                let started = Instant::now();
                let line = match execute(&engine, &metrics, &request) {
                    Ok(report) => ok_line(seq, op, report),
                    Err(error) => {
                        metrics.errors.fetch_add(1, Ordering::Relaxed);
                        error_line(seq, Some(op), error_kind(&error), &error.to_string())
                    }
                };
                metrics.counter(op).record(started.elapsed());
                if out_tx.send(Outcome::Finished { seq, line }).is_err() {
                    break;
                }
            });
        }
        // Drop the reader's own handle on the job receiver: the workers hold
        // their clones, so once they all exit (e.g. the collector died on a
        // broken pipe and their result sends failed) the rendezvous channel
        // closes and `job_tx.send` below errors instead of blocking forever.
        drop(job_rx);

        let mut seq = 0u64;
        let mut read_error = None;
        // Lines are read as bytes: one that is not UTF-8 is a malformed
        // request, answered at its `seq` like any other, not the end of the
        // session.
        let mut bytes = Vec::new();
        loop {
            bytes.clear();
            match input.read_until(b'\n', &mut bytes) {
                Ok(0) => break,
                Ok(_) => {}
                Err(error) => {
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        // The connection's read timeout fired: answer the
                        // would-be next request with a typed error and close
                        // the stream cleanly so a stalled client cannot hold
                        // its slot forever.
                        metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                        metrics.errors.fetch_add(1, Ordering::Relaxed);
                        let _ = out_tx.send(Outcome::Finished {
                            seq,
                            line: error_line(
                                seq,
                                None,
                                "timeout",
                                "connection idle past the read timeout; closing",
                            ),
                        });
                    } else {
                        read_error = Some(error);
                    }
                    break;
                }
            }
            let line = bytes
                .strip_suffix(b"\n")
                .map_or(&bytes[..], |line| line.strip_suffix(b"\r").unwrap_or(line));
            let line = std::str::from_utf8(line);
            if line.is_ok_and(|line| line.trim().is_empty()) {
                continue;
            }
            // Accept-order bookkeeping must reach the collector before the
            // job can finish; both messages ride the same channel, so the
            // send below happens-before any Finished for this seq.
            let _ = out_tx.send(Outcome::Accepted {
                seq,
                // lint: allow(timing) — façade `Instant`: deadline assignment
                // is what the interleave model test drives through the
                // virtual clock.
                deadline: Instant::now() + options.timeout,
            });
            let request = line
                .map_err(|_| CliError::Arguments("request line is not valid UTF-8".to_string()))
                .and_then(parse_request);
            match request {
                Ok(Request::Shutdown) => {
                    draining.store(true, Ordering::SeqCst);
                    let _ = out_tx.send(Outcome::Finished {
                        seq,
                        line: ok_line(
                            seq,
                            "shutdown",
                            JsonObject::new()
                                .string("report", "shutdown")
                                .boolean("draining", true)
                                .build(),
                        ),
                    });
                }
                Ok(request) if draining.load(Ordering::SeqCst) => {
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = out_tx.send(Outcome::Finished {
                        seq,
                        line: error_line(
                            seq,
                            Some(request.op()),
                            "shutting_down",
                            "service is draining; no new work accepted",
                        ),
                    });
                }
                Ok(request) => {
                    if job_tx.send((seq, request)).is_err() {
                        break;
                    }
                }
                Err(error) => {
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = out_tx.send(Outcome::Finished {
                        seq,
                        line: error_line(seq, None, error_kind(&error), &error.to_string()),
                    });
                }
            }
            seq += 1;
        }
        // Closing the job channel stops the workers once the queue drains;
        // their `out_tx` clones (and ours) then close the collector channel.
        drop(job_tx);
        drop(out_tx);
        let collected = collector
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("serve output collector panicked")));
        match read_error {
            Some(error) => Err(error),
            None => collected,
        }
    })
}

/// Serves every connection accepted by `listener`, one thread per client,
/// all sharing `engine`, `metrics` and the drain flag — the cross-client
/// warm cache. Accepting is non-blocking so the loop can observe a
/// `shutdown` request (from any connection) and stop taking new clients;
/// in-flight connections are drained before the function returns.
fn serve_listener(
    listener: &TcpListener,
    engine: &Arc<SharedEngine>,
    metrics: &Arc<ServeMetrics>,
    options: ServeOptions,
    draining: &AtomicBool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    thread::scope(|scope| {
        loop {
            if draining.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let engine = Arc::clone(engine);
                    let metrics = Arc::clone(metrics);
                    scope.spawn(move || {
                        // The listener is non-blocking only for accept
                        // polling; each stream reverts to blocking reads,
                        // bounded by the per-connection read timeout.
                        if stream.set_nonblocking(false).is_err() {
                            return;
                        }
                        if stream.set_read_timeout(options.read_timeout).is_err() {
                            return;
                        }
                        let reader = match stream.try_clone() {
                            Ok(clone) => BufReader::new(clone),
                            Err(_) => return,
                        };
                        let mut writer = stream;
                        let _ = serve_lines_draining(
                            reader,
                            &mut writer,
                            &engine,
                            &metrics,
                            &options,
                            draining,
                        );
                    });
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    // Nothing to accept: poll the drain flag. A plain OS
                    // sleep — the accept loop is real I/O that the
                    // interleave explorer never drives.
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        Ok(())
    })
}

/// Entry point of the `serve` subcommand: builds the resident engine on the
/// process-wide artifact store and serves stdin/stdout, or every client of a
/// TCP listener when `tcp` is set.
///
/// # Errors
///
/// Returns an [`io::Error`] when the socket cannot be bound or a stream
/// fails; per-request failures are typed JSON error responses.
pub fn run_serve(
    engine: &Arc<SharedEngine>,
    options: ServeOptions,
    tcp: Option<&str>,
) -> io::Result<()> {
    let metrics = Arc::new(ServeMetrics::default());
    let draining = AtomicBool::new(false);
    match tcp {
        Some(address) => {
            let listener = TcpListener::bind(address)?;
            // Announce the bound address (the port may have been chosen by
            // the OS via `:0`) so clients and scripts can connect. A broken
            // stdout (closed pager, detached supervisor) must not abort the
            // service — TCP clients are the real consumers here.
            let mut stdout = io::stdout();
            write_line(
                &mut stdout,
                &format!("listening on {}", listener.local_addr()?),
            )?;
            serve_listener(&listener, engine, &metrics, options, &draining)
        }
        None => {
            let stdin = io::stdin();
            // `Stdout` (unlike `StdoutLock`) is `Send`, which the collector
            // thread needs; it still locks internally per write.
            let mut stdout = io::stdout();
            serve_lines_draining(
                stdin.lock(),
                &mut stdout,
                engine,
                &metrics,
                &options,
                &draining,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_sim::ExecPolicy;
    use std::net::TcpStream;

    fn engine() -> Arc<SharedEngine> {
        SharedEngine::new(ExecPolicy::default().with_threads(2))
    }

    fn serve_script(
        engine: &Arc<SharedEngine>,
        metrics: &Arc<ServeMetrics>,
        options: &ServeOptions,
        script: &str,
    ) -> Vec<String> {
        let mut output = Vec::new();
        serve_lines(script.as_bytes(), &mut output, engine, metrics, options).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn a_request_line_that_is_not_utf8_is_a_protocol_error() {
        // The bytes of `printf '{"op": "stats"}\n\xff\xfe garbage\n{"op":
        // "stats"}\n'`: the middle line is answered at its seq with a typed
        // error, counted, and the service goes on to the next line.
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script: &[u8] = b"{\"op\": \"stats\"}\n\xff\xfe garbage\n{\"op\": \"stats\"}\n";
        let mut output = Vec::new();
        serve_lines(
            script,
            &mut output,
            &engine,
            &metrics,
            &ServeOptions::default(),
        )
        .unwrap();
        let lines: Vec<String> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"seq\": 0, \"ok\": true"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"seq\": 1, \"ok\": false"),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"kind\": \"protocol\""), "{}", lines[1]);
        assert!(lines[1].contains("not valid UTF-8"), "{}", lines[1]);
        assert!(
            lines[2].starts_with("{\"seq\": 2, \"ok\": true"),
            "{}",
            lines[2]
        );
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn answers_requests_in_order_with_shared_cache() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script = concat!(
            r#"{"op": "coverage", "test": "March ABL1", "list": "2"}"#,
            "\n",
            r#"{"op": "coverage", "test": "March ABL1", "list": "2"}"#,
            "\n",
            r#"{"op": "stats"}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\": 0, \"ok\": true, \"op\": \"coverage\""));
        assert!(lines[1].starts_with("{\"seq\": 1, \"ok\": true, \"op\": \"coverage\""));
        // Byte-identical repeated reports, answered from the shared store.
        assert_eq!(lines[0].replacen("\"seq\": 0", "\"seq\": 1", 1), lines[1]);
        assert!(engine.cache_hits() >= 1);
        assert!(lines[2].contains("\"cache_hits\": "));
        assert!(lines[2].contains("\"workers_spawned\": 1"));
        assert_eq!(metrics.coverage.count(), 2);
        assert_eq!(metrics.stats.count(), 1);
    }

    #[test]
    fn malformed_and_failing_requests_yield_typed_errors() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script = concat!(
            "this is not json\n",
            r#"{"op": "launch-missiles"}"#,
            "\n",
            r#"{"op": "coverage", "test": "no such test", "list": "2"}"#,
            "\n",
            r#"{"op": "coverage", "test": "March SS", "list": "2", "cells": 2}"#,
            "\n",
            r#"{"op": "coverage", "test": "March SS"}"#,
            "\n",
            r#"{"op": "diagnose", "test": "March SS", "fault": "<bogus>", "victim": 1, "list": "2"}"#,
            "\n",
            r#"{"op": "coverage", "test": "March SS", "list": "2", "cells": "eight"}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert_eq!(lines.len(), 7);
        for (index, kind) in [
            "protocol",
            "protocol",
            "unknown_test",
            "simulation",
            "protocol",
            "unknown_fault",
            "protocol",
        ]
        .iter()
        .enumerate()
        {
            assert!(
                lines[index].contains("\"ok\": false"),
                "line {index}: {}",
                lines[index]
            );
            assert!(
                lines[index].contains(&format!("\"kind\": \"{kind}\"")),
                "line {index}: {}",
                lines[index]
            );
            assert!(lines[index].starts_with(&format!("{{\"seq\": {index}")));
        }
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn all_ops_round_trip() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script = concat!(
            r#"{"op": "generate", "list": "2", "name": "March SRV"}"#,
            "\n",
            r#"{"op": "minimise", "test": "March SL", "list": "2"}"#,
            "\n",
            r#"{"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 4, "aggressor": 1, "cells": 6, "list": "unlinked"}"#,
            "\n",
            r#"{"op": "coverage", "faults": "af", "cells": 64}"#,
            "\n",
            r#"{"op": "campaign", "test": "March C-", "list": "1", "sample": 128, "seed": 7}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"report\": {\"report\": \"generation\""));
        assert!(lines[0].contains("March SRV"));
        assert!(lines[1].contains("\"report\": {\"report\": \"minimisation\""));
        assert!(lines[2].contains("\"report\": {\"report\": \"diagnosis\""));
        assert!(lines[2].contains("\"candidates\": ["));
        assert!(lines[3].contains("\"ok\": true"));
        assert!(lines[4].contains("\"report\": {\"report\": \"campaign\""));
        assert!(lines[4].contains("\"seed\": 7"));
        assert_eq!(metrics.generate.count(), 1);
        assert_eq!(metrics.minimise.count(), 1);
        assert_eq!(metrics.diagnose.count(), 1);
        assert_eq!(metrics.campaign.count(), 1);
    }

    #[test]
    fn campaign_requests_validate_numeric_fields() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        // Every degenerate numeric shape is a typed protocol error — the
        // infinite `1e999`, fractions, zero draws, a negative seed, an
        // out-of-range confidence and a missing draw count alike.
        let script = concat!(
            r#"{"op": "campaign", "list": "1", "sample": 1e999}"#,
            "\n",
            r#"{"op": "campaign", "list": "1", "sample": 2.5}"#,
            "\n",
            r#"{"op": "campaign", "list": "1"}"#,
            "\n",
            r#"{"op": "campaign", "list": "1", "sample": 64, "confidence": 1.5}"#,
            "\n",
            r#"{"op": "campaign", "list": "1", "sample": 64, "seed": -1}"#,
            "\n",
            r#"{"op": "campaign", "list": "1", "sample": 0}"#,
            "\n",
            r#"{"op": "campaign", "test": "March C-", "list": "1", "sample": 64, "seed": 3}"#,
            "\n",
            r#"{"op": "campaign", "test": "March C-", "list": "1", "sample": 64, "seed": 3}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert_eq!(lines.len(), 8);
        for (index, line) in lines.iter().take(6).enumerate() {
            assert!(line.contains("\"ok\": false"), "line {index}: {line}");
            assert!(
                line.contains("\"kind\": \"protocol\""),
                "line {index}: {line}"
            );
        }
        // The well-formed pair replays byte-identically (same seed, shared
        // engine) modulo the sequence number.
        assert!(lines[6].contains("\"ok\": true"));
        assert_eq!(lines[6].replacen("\"seq\": 6", "\"seq\": 7", 1), lines[7]);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.campaign.count(), 2);
    }

    #[test]
    fn campaign_requests_sample_the_eight_cell_space() {
        // Serve keeps the session's 8 cells, where the CLI's `--sample`
        // defaults to the 6-cell exhaustive scope: the same fields sample
        // 4,224 lanes here and 2,304 there. `--cells 8` is the CLI twin.
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script = concat!(
            r#"{"op": "campaign", "test": "March SS", "list": "unlinked", "sample": 200, "seed": 7}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert!(lines[0].contains("\"space\": 4224, "), "{}", lines[0]);
        let cli = crate::run_from_args([
            "coverage", "--test", "March SS", "--list", "unlinked", "--sample", "200", "--seed",
            "7", "--cells", "8", "--json",
        ])
        .unwrap();
        assert!(
            lines[0].contains(&format!("\"report\": {}", cli.trim_end())),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn repeated_diagnosis_hits_the_dictionary_cache() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let request = concat!(
            r#"{"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 4, "aggressor": 1, "cells": 6, "list": "unlinked"}"#,
            "\n",
        );
        let script = request.repeat(3);
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), &script);
        assert_eq!(lines.len(), 3);
        // Drops the leading `"seq": N` field so transcript lines can be
        // compared across their sequence numbers; fails with the offending
        // line instead of a bare unwrap panic when a response is malformed.
        let strip_seq = |line: &str| {
            let (prefix, rest) = line.split_once(',').unwrap_or_else(|| {
                panic!("malformed transcript line (no `,` after the seq field): {line:?}")
            });
            assert!(
                prefix.starts_with("{\"seq\": "),
                "malformed transcript line (expected a leading seq field): {line:?}"
            );
            rest.to_string()
        };
        assert_eq!(strip_seq(&lines[0]), strip_seq(&lines[1]));
        assert_eq!(strip_seq(&lines[0]), strip_seq(&lines[2]));
        assert_eq!(engine.cached_dictionaries(), 1);
        assert!(engine.cache_hits() >= 2);
    }

    #[test]
    fn expired_jobs_answer_with_a_timeout_error() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let options = ServeOptions {
            max_in_flight: 2,
            timeout: Duration::from_millis(0),
            read_timeout: None,
        };
        let script = concat!(
            r#"{"op": "generate", "list": "1"}"#,
            "\n",
            r#"{"op": "stats"}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &options, script);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"timeout\""), "{}", lines[0]);
        assert!(lines[0].starts_with("{\"seq\": 0"));
        assert!(metrics.timeouts.load(Ordering::Relaxed) >= 1);
        // Responses stay in request order even with the timeout interleaved.
        assert!(lines[1].starts_with("{\"seq\": 1"));
    }

    #[test]
    fn tcp_clients_share_one_engine() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();
        {
            let engine = Arc::clone(&engine);
            let metrics = Arc::clone(&metrics);
            thread::spawn(move || {
                let draining = AtomicBool::new(false);
                let _ = serve_listener(
                    &listener,
                    &engine,
                    &metrics,
                    ServeOptions::default(),
                    &draining,
                );
            });
        }
        let request = "{\"op\": \"coverage\", \"test\": \"March ABL1\", \"list\": \"2\"}\n";
        let mut replies = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(address).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            BufReader::new(&mut stream).read_line(&mut reply).unwrap();
            replies.push(reply);
        }
        assert_eq!(replies[0], replies[1]);
        assert!(replies[0].contains("\"ok\": true"));
        // The second client's identical request hit the first client's cache.
        assert!(engine.cache_hits() >= 1);
        assert_eq!(engine.cached_artifacts(), 1);
    }

    #[test]
    fn shutdown_drains_and_rejects_followup_requests() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let script = concat!(
            r#"{"op": "coverage", "test": "March ABL1", "list": "2"}"#,
            "\n",
            r#"{"op": "shutdown"}"#,
            "\n",
            r#"{"op": "coverage", "test": "March ABL1", "list": "2"}"#,
            "\n",
            r#"{"op": "stats"}"#,
            "\n",
        );
        let lines = serve_script(&engine, &metrics, &ServeOptions::default(), script);
        assert_eq!(lines.len(), 4);
        // The in-flight request before the shutdown is answered normally.
        assert!(lines[0].starts_with("{\"seq\": 0, \"ok\": true, \"op\": \"coverage\""));
        assert!(lines[1].contains("\"op\": \"shutdown\""), "{}", lines[1]);
        assert!(lines[1].contains("\"draining\": true"), "{}", lines[1]);
        // Everything after the shutdown gets a typed drain rejection, still
        // in order and still tagged with the op it tried to run.
        for (index, op) in [(2usize, "coverage"), (3, "stats")] {
            assert!(
                lines[index].contains("\"kind\": \"shutting_down\""),
                "line {index}: {}",
                lines[index]
            );
            assert!(
                lines[index].contains(&format!("\"op\": \"{op}\"")),
                "line {index}: {}",
                lines[index]
            );
        }
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 2);
    }

    /// A writer that reports `BrokenPipe` after its first successful write,
    /// like a TCP peer (or a pager on stdout) that hung up mid-transcript.
    struct HangsUpAfterOneLine {
        writes: usize,
    }

    impl Write for HangsUpAfterOneLine {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            if self.writes >= 1 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client hung up"));
            }
            self.writes += 1;
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_pipe_mid_transcript_is_an_orderly_shutdown() {
        // More requests than workers after the writer dies: the collector
        // exits on the broken pipe, the workers drain out behind it, and the
        // reader's rendezvous send errors instead of blocking forever — the
        // serve loop returns Ok rather than panicking or hanging.
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let options = ServeOptions {
            max_in_flight: 1,
            timeout: Duration::from_secs(60),
            read_timeout: None,
        };
        let script = "{\"op\": \"stats\"}\n".repeat(6);
        let mut output = HangsUpAfterOneLine { writes: 0 };
        serve_lines(script.as_bytes(), &mut output, &engine, &metrics, &options)
            .expect("a hung-up client is not a serve error");
    }

    #[test]
    fn idle_tcp_connections_time_out_with_a_typed_error() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();
        let options = ServeOptions {
            max_in_flight: 2,
            timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_millis(100)),
        };
        {
            let engine = Arc::clone(&engine);
            let metrics = Arc::clone(&metrics);
            thread::spawn(move || {
                let draining = AtomicBool::new(false);
                let _ = serve_listener(&listener, &engine, &metrics, options, &draining);
            });
        }
        // Send one request, then go silent with the connection held open.
        let mut stream = TcpStream::connect(address).unwrap();
        stream
            .write_all(b"{\"op\": \"coverage\", \"test\": \"March ABL1\", \"list\": \"2\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"ok\": true"), "{first}");
        // The server answers the idle slot with a typed timeout...
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert!(second.contains("\"kind\": \"timeout\""), "{second}");
        assert!(second.contains("read timeout"), "{second}");
        // ...and then closes the socket cleanly (EOF, not a reset).
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        assert!(metrics.timeouts.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn shutdown_stops_the_tcp_listener() {
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();
        let server = {
            let engine = Arc::clone(&engine);
            let metrics = Arc::clone(&metrics);
            thread::spawn(move || {
                let draining = AtomicBool::new(false);
                serve_listener(
                    &listener,
                    &engine,
                    &metrics,
                    ServeOptions::default(),
                    &draining,
                )
            })
        };
        let mut stream = TcpStream::connect(address).unwrap();
        stream.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        BufReader::new(&mut stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"draining\": true"), "{reply}");
        drop(stream);
        // The accept loop observes the drain flag and returns instead of
        // serving forever.
        server
            .join()
            .expect("listener thread panicked")
            .expect("graceful listener shutdown is not an error");
    }

    #[test]
    fn saturating_the_pool_never_deadlocks() {
        // More simultaneous requests than in-flight slots and worker threads:
        // the reader blocks on backpressure, the jobs multiplex over one
        // shared pool, and every request is still answered, in order.
        let engine = engine();
        let metrics = Arc::new(ServeMetrics::default());
        let options = ServeOptions {
            max_in_flight: 2,
            timeout: Duration::from_secs(60),
            read_timeout: None,
        };
        let request = concat!(
            r#"{"op": "coverage", "test": "March ABL1", "list": "2"}"#,
            "\n"
        );
        let script = request.repeat(12);
        let lines = serve_script(&engine, &metrics, &options, &script);
        assert_eq!(lines.len(), 12);
        for (index, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\": {index}, \"ok\": true")));
        }
        assert_eq!(engine.store().enumerations(), 1);
        assert_eq!(engine.cache_hits(), 11);
    }
}

/// Schedule-exploration model tests of the serve loop, compiled only under
/// `--cfg interleave` (see `sram_sim::models` for the pattern). Run with:
///
/// ```text
/// RUSTFLAGS="--cfg interleave" cargo test -p march-codex-cli --lib models::
/// ```
#[cfg(all(test, interleave))]
mod models {
    use super::*;
    use interleave::{check, Config};
    use sram_sim::ExecPolicy;

    /// In-order emission under timeout races: with a deadline short enough
    /// that the scheduler can fire it at any point, every explored schedule
    /// must still emit exactly one response per request, in request order —
    /// each slot answered either by its own result or by a substituted
    /// `timeout` error, never reordered, dropped or duplicated.
    ///
    /// `stats`-only scripts on a single-threaded engine keep the protocol
    /// surface under test exactly the serve loop's own machinery: the
    /// rendezvous job channel, the worker/collector channels, and the
    /// deadline bookkeeping.
    #[test]
    fn responses_stay_in_order_under_timeout_races() {
        let config = Config {
            max_schedules: 6000,
            preemption_bound: Some(1),
            random_schedules: 250,
            ..Config::default()
        };
        let outcome = check(&config, || {
            let engine = SharedEngine::new(ExecPolicy::default().with_threads(1));
            let metrics = Arc::new(ServeMetrics::default());
            let options = ServeOptions {
                max_in_flight: 2,
                // Nominal only: the virtual clock lets the scheduler fire or
                // hold this deadline at will, so both outcomes are explored.
                timeout: Duration::from_millis(5),
                read_timeout: None,
            };
            let script = "{\"op\": \"stats\"}\n{\"op\": \"stats\"}\n";
            let mut output = Vec::new();
            serve_lines(script.as_bytes(), &mut output, &engine, &metrics, &options)
                .expect("in-memory serve cannot fail on I/O");
            let transcript = String::from_utf8(output).expect("responses are UTF-8");
            let lines: Vec<&str> = transcript.lines().collect();
            assert_eq!(lines.len(), 2, "dropped or duplicated a response");
            for (seq, line) in lines.iter().enumerate() {
                assert!(
                    line.starts_with(&format!("{{\"seq\": {seq}, ")),
                    "response out of order at slot {seq}: {line}"
                );
                assert!(
                    line.contains("\"ok\": true") || line.contains("\"kind\": \"timeout\""),
                    "slot {seq} answered with neither a result nor a timeout: {line}"
                );
            }
        });
        assert!(outcome.schedules > 1, "no schedule diversity explored");
    }
}
