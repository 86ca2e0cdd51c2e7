//! `perfbench`: the end-to-end and per-layer benchmark of march-codex.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|coverage_scale|serve_open_loop|restart_snapshot> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the program through its public API only. With
//! `--trace 0` the run measures for `--seconds` and prints the end-to-end
//! metrics; with `--trace 1` it measures the first half untraced and the
//! second half traced, prints the per-layer metrics, and writes the spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`. End-to-end times are scaled to
//! the reference host by [`calibrate`]. Human-readable lines come first;
//! the last line of standard output is the JSON result. See `README.md`.

mod calibrate;
mod coverage_scale;
mod restart_snapshot;
mod rng;
mod serve_io;
mod serve_open_loop;
mod stats;
mod table1;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::Calibration;
use trace::Tracer;

/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// A closed-loop workload: one client issuing its next op when the previous
/// one returns.
pub trait ClosedLoop {
    type Output;
    /// Runs one op; only this call is timed.
    fn op(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String>;
    /// Checks one op's output, outside the timed span.
    fn check(&mut self, output: &Self::Output) -> bool;
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency and check verdict of every op that returned.
    pub ops: Vec<(f64, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds the ops took: their summed latency in a closed loop, the
    /// span from the first due time to the last response in an open loop.
    pub busy_s: f64,
    /// The host speed each op ran at, in op order: the mean of the
    /// reference-kernel times measured right before and right after it,
    /// outside its span. Empty in an open loop.
    pub kernel_ms: Vec<f64>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|&(latency, _)| latency).collect()
    }
}

/// Runs `workload` in a closed loop until `budget` is spent.
pub fn closed_loop<W: ClosedLoop>(
    workload: &mut W,
    budget: Duration,
    tracer: &mut Tracer,
    calibration: &mut Calibration,
) -> Phase {
    let mut phase = Phase::default();
    let mut busy = Duration::ZERO;
    let mut op = 0u64;
    // The host speed right before the next op.
    let mut before_ms = calibration.follow(0.0);
    while busy < budget {
        tracer.set_op(op);
        let span = tracer.begin("op");
        let started = Instant::now();
        let result = workload.op(tracer);
        let elapsed = started.elapsed();
        tracer.end(span);
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let after_ms = calibration.follow(elapsed_ms);
        phase.kernel_ms.push((before_ms + after_ms) / 2.0);
        before_ms = after_ms;
        busy += elapsed;
        phase.attempted += 1;
        let ok = match result {
            Ok(output) => workload.check(&output),
            Err(error) => {
                eprintln!("op {op} failed: {error}");
                false
            }
        };
        if !ok {
            phase.failed += 1;
        }
        phase.ops.push((elapsed_ms, ok));
        op += 1;
    }
    phase.busy_s = busy.as_secs_f64();
    phase
}

/// A workload ready to measure.
pub trait Workload {
    /// Measures for `budget`, recording spans into `tracer` and the host
    /// speed into `calibration`.
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        calibration: &mut Calibration,
    ) -> Phase;
    /// The latency limit of `goodput_per_s`.
    fn latency_limit_ms(&self) -> f64;
    /// The Table 1 complexity the workload itself produced, if it generates
    /// Table 1.
    fn table1_complexity(&self) -> Option<u64> {
        None
    }
}

impl Workload for table1::Table1 {
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        calibration: &mut Calibration,
    ) -> Phase {
        closed_loop(self, budget, tracer, calibration)
    }
    fn latency_limit_ms(&self) -> f64 {
        table1::LATENCY_LIMIT_MS
    }
    fn table1_complexity(&self) -> Option<u64> {
        Some(self.complexity)
    }
}

impl Workload for coverage_scale::CoverageScale {
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        calibration: &mut Calibration,
    ) -> Phase {
        closed_loop(self, budget, tracer, calibration)
    }
    fn latency_limit_ms(&self) -> f64 {
        coverage_scale::LATENCY_LIMIT_MS
    }
}

impl Workload for restart_snapshot::RestartSnapshot {
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        calibration: &mut Calibration,
    ) -> Phase {
        closed_loop(self, budget, tracer, calibration)
    }
    fn latency_limit_ms(&self) -> f64 {
        restart_snapshot::LATENCY_LIMIT_MS
    }
}

const WORKLOADS: [&str; 4] = [
    "table1",
    "coverage_scale",
    "serve_open_loop",
    "restart_snapshot",
];

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1" => Box::new(table1::setup(seed)?),
        "coverage_scale" => Box::new(coverage_scale::setup(seed)?),
        "serve_open_loop" => Box::new(serve_open_loop::setup(seed)?),
        "restart_snapshot" => Box::new(restart_snapshot::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    })
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Self time of every span with this name, per op, unless the workload
    /// sets a gauge under the metric's name.
    SelfMs(&'static str),
    /// The counter named like the metric, per op.
    PerOp,
    /// The gauge named like the metric, set once per run.
    Gauge,
    /// Self time of the `memsim.simulate` spans per simulated lane, in ns.
    NsPerLane,
    /// Store hits over store queries (hits plus enumerations), unless the
    /// workload sets the gauge itself.
    HitRatio,
}

/// `(metric, unit, source)` of every per-layer metric, in print order.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("memsim.enumerate.ms", "ms", Source::SelfMs("memsim.enumerate")),
    ("memsim.enumerate.lanes", "count", Source::PerOp),
    ("memsim.simulate.ms", "ms", Source::SelfMs("memsim.simulate")),
    ("memsim.simulate.lanes", "count", Source::PerOp),
    ("memsim.simulate.ns_per_lane", "ns", Source::NsPerLane),
    ("memsim.campaign_space.ms", "ms", Source::SelfMs("memsim.campaign_space")),
    ("memsim.campaign.ms", "ms", Source::SelfMs("memsim.campaign")),
    ("memsim.campaign.draws", "count", Source::PerOp),
    ("memsim.dictionary.ms", "ms", Source::SelfMs("memsim.dictionary")),
    ("memsim.snapshot.load_ms", "ms", Source::SelfMs("memsim.snapshot.load")),
    ("memsim.snapshot.hits", "count", Source::PerOp),
    ("memsim.snapshot.misses", "count", Source::PerOp),
    ("memsim.store.hits", "count", Source::PerOp),
    ("memsim.store.enumerations", "count", Source::PerOp),
    ("memsim.store.hit_ratio", "share", Source::HitRatio),
    ("memsim.pool.jobs", "count", Source::PerOp),
    ("memsim.pool.workers_spawned", "count", Source::PerOp),
    ("memsim.report.encode_ms", "ms", Source::SelfMs("memsim.report.encode")),
    ("core.lanes.ms", "ms", Source::SelfMs("core.lanes")),
    ("core.greedy.ms", "ms", Source::SelfMs("core.greedy")),
    ("core.greedy.iterations", "count", Source::PerOp),
    ("core.minimise.ms", "ms", Source::SelfMs("core.minimise")),
    ("core.minimise.removed_ops", "count", Source::PerOp),
    ("core.verify.ms", "ms", Source::SelfMs("core.verify")),
    ("cli.serve.replay_ms", "ms", Source::SelfMs("cli.serve.replay")),
    ("cli.serve.execute_ms.coverage", "ms", Source::Gauge),
    ("cli.serve.execute_ms.campaign", "ms", Source::Gauge),
    ("cli.serve.execute_ms.generate", "ms", Source::Gauge),
    ("cli.serve.execute_ms.minimise", "ms", Source::Gauge),
    ("cli.serve.execute_ms.diagnose", "ms", Source::Gauge),
    ("cli.serve.wait_ms_mean", "ms", Source::Gauge),
    ("cli.serve.busy_share", "share", Source::Gauge),
    ("cli.serve.errors", "count", Source::Gauge),
    ("cli.serve.timeouts", "count", Source::Gauge),
    ("loadgen.lag_p99_ms", "ms", Source::Gauge),
    ("loadgen.sent", "count", Source::Gauge),
    ("trace.op_ms", "ms", Source::Gauge),
    ("trace.unattributed_ms", "ms", Source::SelfMs("op")),
    ("trace.overhead_ms", "ms", Source::Gauge),
    ("trace.spans", "count", Source::Gauge),
    ("host.steal_share", "share", Source::Gauge),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks, from
/// the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's CPU time the hypervisor stole since `before`.
fn steal_share(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            (steal1 - steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// What a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `"name": {"value": …, "unit": …}` fragments.
    metrics: Vec<String>,
}

/// Threads the calibration kernel runs on: one for `table1`, whose op is
/// single-threaded; every core for the others, whose ops keep every core
/// busy for part of the op.
fn calibration_threads(workload: &str) -> usize {
    if workload == "table1" {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut calibration = Calibration::new(calibration_threads(&args.workload));
    let (mut setup_times, mut scaled_setup_times) = (Vec::new(), Vec::new());
    let mut workload = None;
    let mut before_ms = calibration.follow(0.0);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let prepared = setup(&args.workload, args.seed)?;
        let seconds = started.elapsed().as_secs_f64();
        let after_ms = calibration.follow(seconds * 1e3);
        setup_times.push(seconds);
        scaled_setup_times.push(Calibration::scaled(seconds, (before_ms + after_ms) / 2.0));
        before_ms = after_ms;
        workload = Some(prepared);
    }
    let mut workload = workload.expect("set-up ran at least once");
    let setup_s = stats::median(&scaled_setup_times);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced_run(args, workload.as_mut(), budget, &mut calibration)
    } else {
        untraced_run(
            args,
            workload.as_mut(),
            budget,
            &mut calibration,
            setup_s,
            &setup_times,
        )
    }
}

/// Measures for the whole budget and reports the end-to-end metrics, every
/// time scaled to the reference host.
fn untraced_run(
    args: &Args,
    workload: &mut dyn Workload,
    budget: Duration,
    calibration: &mut Calibration,
    setup_s: f64,
    setup_times: &[f64],
) -> Result<Outcome, String> {
    let ticks = cpu_ticks();
    let phase = workload.measure(budget, &mut Tracer::new(false), calibration);
    let steal = steal_share(ticks);
    // A closed loop measured the host speed after each op; an open loop
    // measures it once, after the phase.
    let run_kernel_ms = if phase.kernel_ms.is_empty() {
        calibration.follow(phase.busy_s * 1e3)
    } else {
        stats::median(&phase.kernel_ms)
    };
    let latencies: Vec<f64> = phase
        .ops
        .iter()
        .enumerate()
        .map(|(index, &(ms, _))| {
            let kernel_ms = phase.kernel_ms.get(index).copied();
            Calibration::scaled(ms, kernel_ms.unwrap_or(run_kernel_ms))
        })
        .collect();
    let busy_s = if phase.kernel_ms.is_empty() {
        Calibration::scaled(phase.busy_s, run_kernel_ms)
    } else {
        latencies.iter().sum::<f64>() / 1e3
    };
    let (tail, percentile, windows) = stats::windowed_tail(&latencies);
    let limit = workload.latency_limit_ms();
    let good = phase
        .ops
        .iter()
        .zip(&latencies)
        .filter(|&(&(_, ok), &latency)| ok && latency <= limit)
        .count();
    let complexity = workload
        .table1_complexity()
        .unwrap_or_else(table1::regenerate);
    let ok_share = 1.0 - phase.failed as f64 / phase.attempted.max(1) as f64;
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", phase.ops.len() as f64 / busy_s, "1/s"),
        ("latency_p50_ms", stats::median(&latencies), "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("ok_share", ok_share, "share"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("table1_complexity_n", complexity as f64, "n"),
        ("goodput_per_s", good as f64 / busy_s, "1/s"),
    ];
    println!(
        "# {} seed {}: {} ops in {:.3} s; times are scaled to the reference host: \
         kernel median {run_kernel_ms:.4} ms (reference {} ms) over {} samples on {} thread(s)",
        args.workload,
        args.seed,
        phase.attempted,
        phase.busy_s,
        calibrate::REFERENCE_MS,
        calibration.samples(),
        calibration_threads(&args.workload)
    );
    for (name, value, unit) in metrics {
        println!("{name:<22} {value:>14.4} {unit}");
    }
    println!(
        "# latency_tail_ms is p{percentile:.2}, the median over {windows} window(s) of {} ops; \
         goodput limit {limit} ms; unscaled p50 {:.4} ms; set-up runs {setup_times:?} s; \
         host steal {:.1}% of CPU time while measuring",
        latencies.len(),
        stats::median(&phase.latencies()),
        steal * 100.0
    );
    Ok(Outcome {
        correct: phase.failed == 0 && complexity == table1::COMPLEXITY && calibration.checksum_ok(),
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: metrics
            .iter()
            .map(|&(name, value, unit)| json_metric(name, value, unit))
            .collect(),
    })
}

/// Measures half the budget untraced and half traced, reports the
/// per-layer metrics and writes the spans out.
fn traced_run(
    args: &Args,
    workload: &mut dyn Workload,
    budget: Duration,
    calibration: &mut Calibration,
) -> Result<Outcome, String> {
    let untraced = workload.measure(budget / 2, &mut Tracer::new(false), calibration);
    let mut tracer = Tracer::new(true);
    let ticks = cpu_ticks();
    let traced = workload.measure(budget / 2, &mut tracer, calibration);
    tracer.gauge("host.steal_share", steal_share(ticks));
    let ops = traced.attempted.max(1) as f64;
    let traced_ms = stats::mean(&traced.latencies());
    let untraced_ms = stats::mean(&untraced.latencies());
    if tracer.gauge_value("trace.op_ms").is_none() {
        tracer.gauge("trace.op_ms", traced_ms);
    }
    tracer.gauge("trace.overhead_ms", traced_ms - untraced_ms);
    tracer.gauge("trace.spans", tracer.span_count() as f64 / ops);
    let self_ms = tracer.self_ms();
    let span_ms = |span: &str| self_ms.get(span).copied().unwrap_or(0.0);
    println!(
        "# {} seed {} traced: {} ops (untraced half {} ops, {untraced_ms:.3} ms/op)",
        args.workload, args.seed, traced.attempted, untraced.attempted
    );
    let (mut attributed, mut unattributed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for &(name, unit, source) in PER_LAYER {
        let value = match source {
            Source::SelfMs(span) => {
                let value = tracer.gauge_value(name).unwrap_or(span_ms(span) / ops);
                if span == "op" {
                    unattributed = value;
                } else {
                    attributed += value;
                }
                value
            }
            Source::PerOp => tracer.counter(name) / ops,
            Source::Gauge => tracer.gauge_value(name).unwrap_or(0.0),
            Source::NsPerLane => {
                let lanes = tracer.counter("memsim.simulate.lanes");
                if lanes > 0.0 {
                    span_ms("memsim.simulate") * 1e6 / lanes
                } else {
                    0.0
                }
            }
            Source::HitRatio => tracer.gauge_value(name).unwrap_or_else(|| {
                let hits = tracer.counter("memsim.store.hits");
                hits / (hits + tracer.counter("memsim.store.enumerations")).max(1.0)
            }),
        };
        println!("{name:<34} {value:>14.4} {unit}");
        metrics.push(json_metric(name, value, unit));
    }
    println!(
        "# per op: layers {attributed:.3} ms + unattributed {unattributed:.3} ms \
         of {traced_ms:.3} ms traced; tracing overhead {:.3} ms",
        traced_ms - untraced_ms
    );
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
    println!("# spans written to {}", path.display());
    let failed = untraced.failed + traced.failed;
    Ok(Outcome {
        correct: failed == 0 && calibration.checksum_ok(),
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                outcome.metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
