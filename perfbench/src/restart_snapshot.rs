//! `restart_snapshot`: warm restarts from a snapshot device, closed loop.
//!
//! Set-up runs a fixed coverage and diagnose script once on an engine whose
//! store persists to an in-memory snapshot device ([`MemIo`]), and keeps a
//! copy of the files it wrote. Each op then restarts: a fresh engine over a
//! fresh device holding those files (copied before the op, outside the
//! timed span), the artifacts the script needs loaded through the public
//! session calls — target lanes and fault dictionaries, both decoded from
//! snapshots — and the script replayed through `serve_lines`. Snapshot
//! decode does the work here instead of enumeration. `--seed` picks the
//! diagnosed faults and cells, which leaves the cost unchanged.

use std::collections::BTreeSet;
use std::sync::Arc;

use march_codex_cli::{serve_lines, ServeMetrics, ServeOptions};
use march_test::catalog;
use sram_fault_model::{FaultList, Ffm};
use sram_sim::{ExecPolicy, MemIo, SharedEngine, SnapshotStore};

use crate::rng::Rng;
use crate::serve_io::{cold_reference, normalise};
use crate::trace::Tracer;
use crate::ClosedLoop;

/// Latency limit of `goodput_per_s`.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
const SNAPSHOT_DIR: &str = "snapshots";
const COVERAGE_TESTS: [&str; 3] = ["March SS", "March SL", "March C-"];
const COVERAGE_LISTS: [&str; 3] = ["1", "2", "unlinked"];
const COVERAGE_CELLS: [usize; 2] = [8, 16];
/// `(test, list, cells)` of the diagnose requests; two each.
const DIAGNOSE_SCOPES: [(&str, &str, usize); 2] =
    [("March SS", "unlinked", 6), ("March SL", "2", 8)];

fn fault_list(name: &str) -> FaultList {
    match name {
        "1" => FaultList::list_1(),
        "2" => FaultList::list_2(),
        _ => FaultList::unlinked_static(),
    }
}

pub struct RestartSnapshot {
    script: Vec<String>,
    /// Distinct `(list, cells)` lane scopes the script touches.
    lane_scopes: Vec<(String, usize)>,
    reference: Vec<String>,
    files: Vec<(String, Vec<u8>)>,
    /// The device the next op restarts from, filled outside the timed span.
    next_device: Option<Arc<MemIo>>,
}

/// The fixed script: every coverage scope, then diagnose requests whose
/// faults and cells come from `seed`.
fn script(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for cells in COVERAGE_CELLS {
        for list in COVERAGE_LISTS {
            for test in COVERAGE_TESTS {
                lines.push(format!(
                    "{{\"op\": \"coverage\", \"test\": \"{test}\", \"list\": \"{list}\", \"cells\": {cells}}}"
                ));
            }
        }
    }
    let mut rng = Rng::new(seed);
    let primitives = Ffm::all_fault_primitives();
    for (test, list, cells) in DIAGNOSE_SCOPES {
        for _ in 0..2 {
            let primitive = &primitives[rng.below(primitives.len())];
            let victim = rng.below(cells);
            let aggressor = if primitive.is_coupling() {
                format!(
                    ", \"aggressor\": {}",
                    (victim + 1 + rng.below(cells - 1)) % cells
                )
            } else {
                String::new()
            };
            lines.push(format!(
                "{{\"op\": \"diagnose\", \"test\": \"{test}\", \"fault\": \"{}\", \"victim\": {victim}{aggressor}, \"cells\": {cells}, \"list\": \"{list}\"}}",
                primitive.notation()
            ));
        }
    }
    lines
}

fn serve(engine: &Arc<SharedEngine>, script: &[String]) -> Result<Vec<String>, String> {
    let mut output = Vec::new();
    let options = ServeOptions {
        max_in_flight: 2,
        ..ServeOptions::default()
    };
    serve_lines(
        script.join("\n").as_bytes(),
        &mut output,
        engine,
        &Arc::new(ServeMetrics::default()),
        &options,
    )
    .map_err(|error| format!("serve failed: {error}"))?;
    Ok(String::from_utf8_lossy(&output)
        .lines()
        .map(normalise)
        .collect())
}

/// A fresh engine (one thread: every scope is ≤ 64 cells) whose store
/// persists to `device`.
fn engine_over(device: Arc<MemIo>) -> Result<Arc<SharedEngine>, String> {
    let engine = SharedEngine::new(ExecPolicy::default());
    if engine
        .store()
        .attach_snapshots(SnapshotStore::with_io(device, SNAPSHOT_DIR))
    {
        Ok(engine)
    } else {
        Err("snapshot layer already attached".to_string())
    }
}

pub fn setup(seed: u64) -> Result<RestartSnapshot, String> {
    let script = script(seed);
    let reference = cold_reference(&script)?;
    let device = Arc::new(MemIo::new());
    let populated = serve(&engine_over(Arc::clone(&device))?, &script)?;
    if populated != reference {
        return Err("the snapshot-backed engine disagrees with the cold reference".to_string());
    }
    let files = device
        .paths()
        .into_iter()
        .filter_map(|path| device.file(&path).map(|bytes| (path, bytes)))
        .collect();
    let mut lane_scopes = BTreeSet::new();
    for cells in COVERAGE_CELLS {
        for list in COVERAGE_LISTS {
            lane_scopes.insert((list.to_string(), cells));
        }
    }
    for (_, list, cells) in DIAGNOSE_SCOPES {
        lane_scopes.insert((list.to_string(), cells));
    }
    let mut workload = RestartSnapshot {
        script,
        lane_scopes: lane_scopes.into_iter().collect(),
        reference,
        files,
        next_device: None,
    };
    workload.prepare_device();
    Ok(workload)
}

impl RestartSnapshot {
    fn prepare_device(&mut self) {
        let device = MemIo::new();
        for (path, bytes) in &self.files {
            device.insert_file(path, bytes.clone());
        }
        self.next_device = Some(Arc::new(device));
    }
}

impl ClosedLoop for RestartSnapshot {
    type Output = Vec<String>;

    fn op(&mut self, tracer: &mut Tracer) -> Result<Vec<String>, String> {
        if self.next_device.is_none() {
            // Only after a failed op, whose check did not run.
            self.prepare_device();
        }
        let device = self
            .next_device
            .take()
            .ok_or("no snapshot device prepared")?;
        let engine = engine_over(device)?;
        let snapshot_hits = || engine.snapshot_stats().map_or(0, |stats| stats.hits);
        for (list, cells) in &self.lane_scopes {
            let session = engine.session().with_memory_cells(*cells);
            let list = fault_list(list);
            let hits = snapshot_hits();
            let span = tracer.begin("memsim.snapshot.load");
            let lanes = session.target_lanes(&list);
            let name = if snapshot_hits() > hits {
                "memsim.snapshot.load"
            } else {
                "memsim.enumerate"
            };
            tracer.end_as(span, name);
            lanes.map_err(|e| e.to_string())?;
        }
        for (test, list, cells) in DIAGNOSE_SCOPES {
            let session = engine.session().with_memory_cells(cells);
            let test = catalog::by_name(test).ok_or("unknown test")?;
            let list = fault_list(list);
            tracer.span("memsim.dictionary", || session.dictionary(&test, &list));
        }
        let output = tracer.span("cli.serve.replay", || serve(&engine, &self.script))?;
        if let Some(stats) = engine.snapshot_stats() {
            tracer.count("memsim.snapshot.hits", stats.hits as f64);
            tracer.count("memsim.snapshot.misses", stats.misses as f64);
        }
        tracer.count("memsim.store.hits", engine.cache_hits() as f64);
        tracer.count(
            "memsim.store.enumerations",
            engine.store().enumerations() as f64,
        );
        Ok(output)
    }

    fn check(&mut self, output: &Vec<String>) -> bool {
        self.prepare_device();
        *output == self.reference
    }
}
