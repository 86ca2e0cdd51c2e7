//! # `march-gen`
//!
//! Automatic march-test generation for **static linked faults** in SRAMs — a Rust
//! reproduction of A. Benso, A. Bosio, S. Di Carlo, G. Di Natale, P. Prinetto,
//! *"Automatic March Tests Generations for Static Linked Faults in SRAMs"*,
//! DATE 2006.
//!
//! The crate ties the workspace together:
//!
//! * [`MemoryGraph`] and [`PatternGraph`] implement the memory model of Section 4 of
//!   the paper — the fault-free Mealy automaton `G0` and the pattern graph obtained
//!   by adding one *faulty edge* per test pattern;
//! * [`SequenceOfOperations`] implements the valid-SO notion of Section 5
//!   (Definitions 9–13): a sequence of operations bound to one cell address which
//!   translates directly into a march element with the address order dictated by the
//!   address specification;
//! * [`MarchGenerator`] implements the generation algorithm: a greedy,
//!   simulation-backed set-cover over candidate march elements (the SO library plus
//!   targeted sequences derived on demand), followed by an optional
//!   redundancy-removal pass ([`SessionExt::minimise`]) — the step that turns the
//!   "ABL"-style result into the shorter "RABL"-style one in the paper's Table 1;
//! * [`SessionExt::verify`] re-checks any march test against a fault list with the
//!   fault simulator, exactly as the paper validates its generated tests.
//!
//! Every stage runs on an [`sram_sim::Session`], which holds the simulation scope
//! and the execution policy; [`SessionExt`] adds the generation stages to it.
//!
//! # Quickstart
//!
//! ```
//! use march_gen::SessionExt;
//! use sram_fault_model::FaultList;
//! use sram_sim::Session;
//!
//! // Generate a march test for the single-cell static linked faults
//! // (the paper's Fault List #2).
//! let session = Session::default();
//! let generated = session.generate(&FaultList::list_2());
//! assert!(generated.report().is_complete());
//! // The generated test is competitive with the 11n March LF1 baseline.
//! assert!(generated.test().complexity() <= 11);
//! // Re-verify it with the fault simulator.
//! assert!(session.verify(generated.test(), &FaultList::list_2()).is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod candidates;
mod error;
mod generator;
mod graph;
mod optimize;
mod pattern_graph;
mod session;
mod so;

pub use candidates::{exhaustive_candidates, library_candidates};
pub use error::GenerationError;
pub use generator::{
    score_candidates, GeneratedTest, GenerationReport, GeneratorConfig, MarchGenerator,
};
pub use graph::{GraphEdge, MemoryGraph, MAX_GRAPH_CELLS};
pub use optimize::minimise_full_resim;
pub use pattern_graph::{FaultyEdge, PatternGraph};
pub use session::{MinimisationReport, SessionExt};
pub use so::SequenceOfOperations;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GenerationError>;
