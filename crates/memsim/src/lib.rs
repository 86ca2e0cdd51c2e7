//! # `sram-sim`
//!
//! A bit-accurate SRAM **functional fault simulator**: the Rust counterpart of the
//! in-house memory fault simulator the DATE 2006 paper uses to validate its
//! generated march tests ("all generated Tests have been fault simulated by an
//! in-house developed memory fault simulator").
//!
//! The simulator:
//!
//! * models an `n`-cell one-bit-per-cell SRAM ([`Memory`]);
//! * injects *simple* fault primitives and *linked* faults on arbitrary cell
//!   assignments ([`InjectedFault`], [`LinkedFaultInstance`]);
//! * executes [`march_test::MarchTest`]s against the faulty memory in lock-step
//!   with a fault-free reference memory ([`FaultSimulator`], [`MarchRun`]);
//! * measures the **coverage** of a march test over a
//!   [`sram_fault_model::FaultList`], enumerating cell placements and data
//!   backgrounds ([`CoverageReport`]);
//! * evaluates coverage through pluggable [`SimulationBackend`]s — the scalar
//!   dual-memory engine ([`ScalarBackend`]) or the bit-parallel packed engine
//!   ([`PackedBackend`], one fault instance per bit of a [`LaneWord`]: 64 per
//!   `u64` word, 128/256 per [`W128`]/[`W256`] block, selected by
//!   [`LaneWidth`]) — fanning the fault targets out over worker threads
//!   ([`parallel_map`]);
//! * enumerates coverage lanes once per **placement shape** (single cell,
//!   cell pair, cell triple, decoder address, decoder pair), not once per
//!   target: every target of one shape shares one [`LaneSet`];
//! * simulates coverage and campaign lanes **projected** onto the at most
//!   three cells each fault instance involves: lanes sharing the rank order
//!   of those cells and their background bits form one class (at most 48 per
//!   lane set, partitioned once per set), and the backend simulates each
//!   target's fault on one representative per class on a memory of at most
//!   three cells, so the per-lane cost does not grow with the memory size.
//!   Reports are byte-identical to the full-memory walk, which the backends,
//!   [`PackedSimulator`], [`TargetBatch`], the minimiser and diagnosis keep;
//! * runs seeded Monte-Carlo **campaigns** over the exhaustive instance
//!   space — unranked draws simulated as projected classes, reported with a
//!   Wilson-score confidence interval ([`CampaignReport`]) — for memories
//!   where exhaustive enumeration is intractable;
//! * exposes the whole pipeline through one long-lived engine handle
//!   ([`Session`]), built from a unified [`ExecPolicy`] and owning a
//!   persistent [`WorkerPool`], whose methods return [`Report`]s with
//!   dependency-free JSON serialisation;
//! * shares one warm cache between any number of concurrent sessions: a
//!   process-wide [`ArtifactStore`] of immutable-keyed artifacts behind a
//!   resident [`SharedEngine`] that stamps out cheap [`Session`] handles —
//!   the substrate of the CLI's `serve` mode;
//! * optionally persists that cache crash-safely: a content-addressed,
//!   checksummed [`SnapshotStore`] replays target-lane enumerations and fault
//!   dictionaries across process restarts, quarantining corrupt files and
//!   degrading to an in-memory rebuild on any I/O failure.
//!
//! Masking between the two components of a linked fault is *emergent*: both fault
//! primitives are injected as independent behavioural rules and masking happens
//! exactly when the second primitive restores the victim cell before any read
//! observes it — mirroring Definition 6 of the paper.
//!
//! # Quick example
//!
//! ```
//! use march_test::catalog;
//! use sram_fault_model::FaultList;
//! use sram_sim::{CoverageConfig, measure_coverage};
//!
//! // March SS covers the unlinked realistic static faults...
//! let unlinked = FaultList::unlinked_static();
//! let report = measure_coverage(&catalog::march_ss(), &unlinked, &CoverageConfig::default());
//! assert_eq!(report.covered(), report.total());
//!
//! // ...but MATS+ does not.
//! let weak = measure_coverage(&catalog::mats_plus(), &unlinked, &CoverageConfig::default());
//! assert!(weak.covered() < weak.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod batch;
mod campaign;
mod coverage;
mod diagnose;
mod dictionary;
mod engine;
mod error;
mod inject;
mod lane;
mod memory;
mod parallel;
mod placement;
mod policy;
mod projection;
mod report;
mod run;
mod session;
mod snapshot;
mod store;
pub(crate) mod sync;

#[cfg(all(test, interleave))]
mod models;

pub use backend::{
    enumerate_lanes, BackendKind, CoverageLane, PackedBackend, PackedSimulator, ScalarBackend,
    SimulationBackend,
};
pub use batch::{BatchSnapshot, CandidateBatch, TargetBatch};
pub use campaign::{
    sample_draw_indices, wilson_interval, CampaignConfig, CampaignEscape, CampaignReport,
    CampaignSpace, MAX_CAMPAIGN_DRAWS,
};
pub use coverage::{
    detects_linked, detects_simple, enumerate_targets, measure_coverage, CoverageConfig,
    CoverageReport, Escape, EscapeSortKey, TargetKind,
};
pub use diagnose::{diagnose, DiagnosisCandidate, LinkTopologyExt, Syndrome, SyndromeEntry};
pub use dictionary::{DictionaryEntry, FaultDictionary};
pub use engine::{FaultSimulator, OperationOutcome};
pub use error::SimulationError;
pub use inject::{DecoderFaultInstance, InjectedFault, InstanceCells, LinkedFaultInstance};
pub use lane::{LaneWidth, LaneWord, WideWord, W128, W256};
pub use memory::{InitialState, Memory};
pub use parallel::{effective_threads, parallel_map, WorkerPool};
pub use placement::{
    enumerate_decoder_placements, enumerate_placements, PlacementStrategy, MIN_PLACEMENT_CELLS,
};
pub use policy::{ExecPolicy, DEFAULT_WAVE_COST_FACTOR};
pub use report::{json_escape, DiagnosisReport, JsonObject, Report};
pub use run::{run_march, Failure, MarchRun};
pub use session::{LaneSet, Session, TargetLanes};
pub use snapshot::{
    FsIo, IoOp, MemIo, SnapshotError, SnapshotFileInfo, SnapshotIo, SnapshotStats, SnapshotStore,
    SNAPSHOT_VERSION,
};
pub use store::{ArtifactStore, SharedEngine};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimulationError>;
