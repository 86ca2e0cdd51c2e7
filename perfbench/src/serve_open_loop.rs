//! `serve_open_loop`: the resident service under open-loop Poisson load.
//!
//! One [`SharedEngine`] (one engine thread, as the CLI resolves for ≤ 64
//! cells) answers `serve_lines` with two jobs in flight. A generator thread
//! sends requests at Poisson arrival times drawn from `--seed`, through a
//! channel, so it never waits for the service. Each request is drawn from a
//! fixed keyspace of 73 requests with Zipf-skewed popularity; the
//! keyspace uses the ops of the service smoke script (coverage, diagnose,
//! generate, minimise, campaign and a malformed line). Set-up warms the
//! store with every keyed request, so most coverage and diagnose requests
//! hit it; campaigns get a fresh seed per request and are never cached.
//!
//! Latency runs from each request's due time to the write of its response
//! line. A `stats` request sent after the last response yields the
//! per-op execute times. Every response is compared, normalised, with a
//! cold serial reference after the run.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use march_codex_cli::{serve_lines, JsonValue, ServeMetrics, ServeOptions};
use sram_fault_model::Ffm;
use sram_sim::{ExecPolicy, SharedEngine};

use crate::calibrate::Calibration;
use crate::rng::{Rng, Zipf};
use crate::serve_io::{cold_reference, normalise, ChannelReader, StampedWriter};
use crate::stats;
use crate::trace::Tracer;
use crate::{Phase, Workload};

/// Offered load, requests per second, fixed. On a 2-vCPU Xeon at 2.1 GHz it
/// keeps the two executors about 17% busy. At 800 req/s (30% busy) the
/// service tipped into overload whenever the host was slowed, and p50 and
/// tail then varied more than tenfold between runs.
pub const RATE_PER_S: f64 = 400.0;
/// Latency limit of `goodput_per_s`.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Concurrent jobs `serve_lines` runs.
const MAX_IN_FLIGHT: usize = 2;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;
const MALFORMED: &str = "this line is not JSON";
/// Ops whose execute time the `stats` response reports, with their gauges.
const EXECUTE_GAUGES: [(&str, &str); 5] = [
    ("coverage", "cli.serve.execute_ms.coverage"),
    ("campaign", "cli.serve.execute_ms.campaign"),
    ("generate", "cli.serve.execute_ms.generate"),
    ("minimise", "cli.serve.execute_ms.minimise"),
    ("diagnose", "cli.serve.execute_ms.diagnose"),
];

/// One keyspace entry: a fixed request line, or a campaign template that
/// gets a fresh seed each time it is drawn.
#[derive(Debug, Clone)]
enum Key {
    Fixed(String),
    Campaign(String),
}

impl Key {
    fn line(&self, rng: &mut Rng) -> String {
        match self {
            Key::Fixed(line) => line.clone(),
            Key::Campaign(prefix) => format!("{prefix}, \"seed\": {}}}", rng.next_u64() >> 12),
        }
    }
}

/// The keyspace in popularity order (rank 0 is the most requested). Cheap
/// coverage and diagnose queries alternate at the top; the heavier ops sit
/// at fixed ranks further down.
fn keyspace() -> Vec<Key> {
    const TESTS: [&str; 12] = [
        "March SS",
        "March C-",
        "MATS+",
        "March LF1",
        "March ABL1",
        "March LR",
        "March LA",
        "March U",
        "March B",
        "March X",
        "March Y",
        "March SL",
    ];
    let mut coverage = Vec::new();
    for test in TESTS {
        for list in ["2", "unlinked", "1"] {
            coverage.push(format!(
                "{{\"op\": \"coverage\", \"test\": \"{test}\", \"list\": \"{list}\"}}"
            ));
        }
    }
    for test in ["March SS", "March SL"] {
        for list in ["2", "unlinked"] {
            coverage.push(format!(
                "{{\"op\": \"coverage\", \"test\": \"{test}\", \"list\": \"{list}\", \"cells\": 16}}"
            ));
        }
    }
    let primitives = Ffm::all_fault_primitives();
    let mut diagnose = Vec::new();
    for (index, primitive) in primitives.iter().enumerate().step_by(2) {
        let (test, list, cells) = if index % 4 == 0 {
            ("March SS", "unlinked", 6)
        } else {
            ("March SL", "2", 8)
        };
        let victim = 1 + index % (cells - 2);
        let aggressor = if primitive.is_coupling() {
            format!(", \"aggressor\": {}", (victim + 2) % cells)
        } else {
            String::new()
        };
        diagnose.push(format!(
            "{{\"op\": \"diagnose\", \"test\": \"{test}\", \"fault\": \"{}\", \"victim\": {victim}{aggressor}, \"cells\": {cells}, \"list\": \"{list}\"}}",
            primitive.notation()
        ));
    }
    let mut keys = Vec::new();
    let mut diagnose = diagnose.into_iter();
    for line in coverage {
        keys.push(Key::Fixed(line));
        keys.extend(diagnose.next().map(Key::Fixed));
    }
    let placed = [
        (3, Key::Campaign(r#"{"op": "campaign", "test": "March SS", "list": "unlinked", "sample": 200"#.to_string())),
        (8, Key::Fixed(r#"{"op": "generate", "list": "2"}"#.to_string())),
        (12, Key::Campaign(r#"{"op": "campaign", "test": "March C-", "list": "2", "sample": 500"#.to_string())),
        (15, Key::Fixed(r#"{"op": "minimise", "test": "March SS", "list": "2"}"#.to_string())),
        (20, Key::Fixed(MALFORMED.to_string())),
        (25, Key::Fixed(r#"{"op": "generate", "list": "2", "no_removal": true}"#.to_string())),
        (30, Key::Campaign(r#"{"op": "campaign", "test": "March SS", "faults": "af", "cells": 1024, "sample": 1000"#.to_string())),
        (35, Key::Fixed(r#"{"op": "minimise", "test": "March LF1", "list": "2"}"#.to_string())),
        (50, Key::Fixed(r#"{"op": "minimise", "test": "March SL", "list": "2"}"#.to_string())),
    ];
    for (rank, key) in placed {
        keys.insert(rank.min(keys.len()), key);
    }
    keys
}

pub struct ServeOpenLoop {
    seed: u64,
    phases: u64,
    keys: Vec<Key>,
    zipf: Zipf,
    engine: Arc<SharedEngine>,
    /// Normalised reference responses, per request line.
    reference: HashMap<String, String>,
}

pub fn setup(seed: u64) -> Result<ServeOpenLoop, String> {
    let keys = keyspace();
    let engine = SharedEngine::new(ExecPolicy::default());
    let warm: Vec<&str> = keys
        .iter()
        .filter_map(|key| match key {
            Key::Fixed(line) => Some(line.as_str()),
            Key::Campaign(_) => None,
        })
        .collect();
    let mut output = Vec::new();
    serve_lines(
        warm.join("\n").as_bytes(),
        &mut output,
        &engine,
        &Arc::new(ServeMetrics::default()),
        &options(),
    )
    .map_err(|error| format!("warm-up serve failed: {error}"))?;
    Ok(ServeOpenLoop {
        seed,
        phases: 0,
        zipf: Zipf::new(keys.len(), ZIPF_S),
        keys,
        engine,
        reference: HashMap::new(),
    })
}

fn options() -> ServeOptions {
    ServeOptions {
        max_in_flight: MAX_IN_FLIGHT,
        ..ServeOptions::default()
    }
}

/// What the `stats` response reports: per-op execute totals
/// `(count, ms)` in [`EXECUTE_GAUGES`] order, errors and timeouts.
struct ServeStats {
    execute: Vec<(f64, f64)>,
    errors: f64,
    timeouts: f64,
}

fn parse_stats(line: &str) -> Option<ServeStats> {
    let value = JsonValue::parse(line).ok()?;
    let report = value.get("report")?;
    let requests = report.get("requests")?;
    let execute = EXECUTE_GAUGES
        .iter()
        .map(|(op, _)| {
            let counter = requests.get(op)?;
            let count = counter.get("count")?.as_u64()? as f64;
            let micros = counter.get("total_micros")?.as_u64()? as f64;
            Some((count, micros / 1e3))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ServeStats {
        execute,
        errors: report.get("errors")?.as_u64()? as f64,
        timeouts: report.get("timeouts")?.as_u64()? as f64,
    })
}

impl ServeOpenLoop {
    /// The requests of one phase: `(due offset, line)` pairs, Poisson
    /// arrivals over `budget`.
    fn schedule(&self, budget: Duration) -> Vec<(Duration, String)> {
        let mut rng = Rng::new(
            self.seed
                .wrapping_add(self.phases.wrapping_mul(0x9E37_79B9)),
        );
        let mut at = 0.0;
        let mut requests = Vec::new();
        loop {
            at += rng.exponential(RATE_PER_S);
            if at >= budget.as_secs_f64() && !requests.is_empty() {
                return requests;
            }
            let key = &self.keys[self.zipf.sample(&mut rng)];
            requests.push((Duration::from_secs_f64(at), key.line(&mut rng)));
        }
    }

    /// Feeds `requests` into `serve_lines` at their due times after `start`
    /// from a generator thread, then a `stats` request once every response
    /// is written. Returns the responses and each request's send lag in ms.
    fn drive(
        &self,
        requests: &[(Duration, String)],
        start: Instant,
        metrics: &Arc<ServeMetrics>,
    ) -> (StampedWriter, Vec<f64>) {
        let n = requests.len();
        let mut writer = StampedWriter::with_capacity(n + 1);
        let written = Arc::clone(&writer.written);
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        thread::scope(|scope| {
            let generator = scope.spawn(move || {
                let mut lags = Vec::with_capacity(n);
                for (due, line) in requests {
                    let due = start + *due;
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    let _ = tx.send(format!("{line}\n").into_bytes());
                }
                while written.load(Ordering::SeqCst) < n {
                    thread::sleep(Duration::from_millis(1));
                }
                let _ = tx.send(b"{\"op\": \"stats\"}\n".to_vec());
                lags
            });
            if let Err(error) = serve_lines(
                ChannelReader::new(rx),
                &mut writer,
                &self.engine,
                metrics,
                &options(),
            ) {
                eprintln!("serve_lines failed: {error}");
            }
            let lags = generator.join().expect("load generator panicked");
            (writer, lags)
        })
    }

    /// Fills the reference for every line not seen before.
    fn extend_reference(&mut self, lines: &[String]) -> Result<(), String> {
        let mut missing: Vec<String> = lines
            .iter()
            .filter(|line| !self.reference.contains_key(*line))
            .cloned()
            .collect();
        missing.sort();
        missing.dedup();
        let answers = cold_reference(&missing)?;
        self.reference.extend(missing.into_iter().zip(answers));
        Ok(())
    }
}

impl Workload for ServeOpenLoop {
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        _calibration: &mut Calibration,
    ) -> Phase {
        let requests = self.schedule(budget);
        self.phases += 1;
        let n = requests.len();
        let hits_before = self.engine.cache_hits();
        let enumerations_before = self.engine.store().enumerations();
        let start = Instant::now();
        let (writer, lags) = self.drive(&requests, start, &Arc::new(ServeMetrics::default()));

        // The trailing `stats` request counts as attempted too: its
        // response must parse.
        let mut phase = Phase {
            attempted: n as u64 + 1,
            ..Phase::default()
        };
        let lines: Vec<String> = requests.iter().map(|(_, line)| line.clone()).collect();
        let reference_ok = self
            .extend_reference(&lines)
            .map_err(|error| eprintln!("{error}"))
            .is_ok();
        let mut last = start;
        for (index, (due, line)) in requests.iter().enumerate() {
            let (Some(response), Some(&stamp)) =
                (writer.lines.get(index), writer.stamps.get(index))
            else {
                phase.failed += 1;
                continue;
            };
            let ok = reference_ok
                && self.reference.get(line) == Some(&normalise(response))
                && (line == MALFORMED || response.contains("\"ok\": true"));
            if !ok {
                phase.failed += 1;
            }
            tracer.set_op(index as u64);
            tracer.record("op", start + *due, stamp);
            let latency = stamp.saturating_duration_since(start + *due);
            phase.ops.push((latency.as_secs_f64() * 1e3, ok));
            last = last.max(stamp);
        }
        phase.busy_s = last.saturating_duration_since(start).as_secs_f64();

        tracer.gauge("loadgen.lag_p99_ms", stats::quantile(&lags, 0.99));
        tracer.gauge("loadgen.sent", n as f64);
        let hits = (self.engine.cache_hits() - hits_before) as f64;
        let enumerations = (self.engine.store().enumerations() - enumerations_before) as f64;
        tracer.count("memsim.store.hits", hits);
        tracer.count("memsim.store.enumerations", enumerations);
        tracer.gauge(
            "memsim.store.hit_ratio",
            hits / (hits + enumerations).max(1.0),
        );
        let Some(served) = writer.lines.get(n).and_then(|line| parse_stats(line)) else {
            eprintln!("no parsable stats response");
            phase.failed += 1;
            return phase;
        };
        let mut executed_ms = 0.0;
        for (&(_, gauge), &(count, ms)) in EXECUTE_GAUGES.iter().zip(&served.execute) {
            executed_ms += ms;
            tracer.gauge(gauge, ms / count.max(1.0));
        }
        // Each request's latency is its wait plus its execute time; no
        // remainder is left unattributed.
        let latency_mean = stats::mean(&phase.latencies());
        tracer.gauge(
            "cli.serve.wait_ms_mean",
            latency_mean - executed_ms / n as f64,
        );
        tracer.gauge(
            "cli.serve.busy_share",
            executed_ms / 1e3 / (MAX_IN_FLIGHT as f64 * phase.busy_s),
        );
        tracer.gauge("cli.serve.errors", served.errors);
        tracer.gauge("cli.serve.timeouts", served.timeouts);
        tracer.gauge("trace.op_ms", latency_mean);
        tracer.gauge("trace.unattributed_ms", 0.0);
        phase
    }

    fn latency_limit_ms(&self) -> f64 {
        LATENCY_LIMIT_MS
    }
}
