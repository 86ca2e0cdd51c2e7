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
//!   dual-memory engine ([`ScalarBackend`]), the differential reference, or
//!   the bit-parallel packed engine ([`PackedBackend`], one fault instance
//!   per bit of a 256-lane [`W256`] word), the one production engine —
//!   fanning the fault targets out over the resident [`WorkerPool`] of a
//!   [`Session`];
//! * describes coverage lanes once per **placement shape** (single cell,
//!   cell pair, cell triple, decoder address, decoder pair), not once per
//!   target: every target of one shape shares one [`LaneSet`], which counts
//!   its lanes and derives their classes without listing them;
//! * simulates coverage and campaign lanes **projected** onto the at most
//!   three cells each fault instance involves: lanes sharing the rank order
//!   of those cells and their background bits form one class (at most 48 per
//!   lane set, derived in closed form from its shape and scope), and the
//!   class representatives of a list's targets are bound once per (list,
//!   scope) into a [`ClassImage`] of shared 256-lane words (one [`W256`]
//!   per mask) whose lanes carry their own fault as masks — one simulation
//!   per word on a memory of at most three cells, not one backend call per
//!   target
//!   ([`SimulationBackend::image_verdicts`]), so no coverage or campaign
//!   cost grows with the memory size.
//!   A [`TargetBatch`] — the state the generator and the minimiser advance —
//!   starts from a copy of the same image, each representative weighted by
//!   its class's lane count, and merges lanes whose states meet as it
//!   advances. Reports, scores and generated tests are byte-identical to
//!   the full-memory walk, which the backends, [`PackedSimulator`] and
//!   diagnosis keep;
//! * runs seeded Monte-Carlo **campaigns** over the exhaustive instance
//!   space — unranked draws, each taking the verdict of its projected class,
//!   reported with a Wilson-score confidence interval ([`CampaignReport`]) —
//!   to estimate the detected share of a space's lanes;
//! * exposes the whole pipeline through one long-lived engine handle
//!   ([`Session`]), the one holder of the simulation scope (memory size,
//!   placement strategy, backgrounds), built from an [`ExecPolicy`] and
//!   owning a persistent [`WorkerPool`], whose methods return [`Report`]s
//!   with dependency-free JSON serialisation;
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
//! use sram_sim::Session;
//!
//! // March SS covers the unlinked realistic static faults...
//! let session = Session::default();
//! let unlinked = FaultList::unlinked_static();
//! let report = session.coverage(&catalog::march_ss(), &unlinked);
//! assert_eq!(report.covered(), report.total());
//!
//! // ...but MATS+ does not.
//! let weak = session.coverage(&catalog::mats_plus(), &unlinked);
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
pub use batch::{BatchSnapshot, TargetBatch};
pub use campaign::{
    sample_draw_indices, wilson_interval, CampaignConfig, CampaignEscape, CampaignReport,
    CampaignSpace, MAX_CAMPAIGN_DRAWS,
};
pub use coverage::{enumerate_targets, CoverageReport, Escape, EscapeSortKey, TargetKind};
pub use diagnose::{DiagnosisCandidate, LinkTopologyExt, Syndrome, SyndromeEntry};
pub use dictionary::{DictionaryEntry, FaultDictionary};
pub use engine::{FaultSimulator, OperationOutcome};
pub use error::SimulationError;
pub use inject::{DecoderFaultInstance, InjectedFault, InstanceCells, LinkedFaultInstance};
pub use lane::{LaneWord, WideWord, W256};
pub use memory::{InitialState, Memory};
pub use parallel::{effective_threads, WorkerPool};
pub use placement::{
    enumerate_decoder_placements, enumerate_placements, PlacementStrategy, MIN_PLACEMENT_CELLS,
};
pub use policy::ExecPolicy;
pub use projection::ClassImage;
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
