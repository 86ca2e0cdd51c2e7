//! Coverage measurement of march tests over fault lists.
//!
//! Every fault target (simple primitive, linked fault or address-decoder
//! class) must be detected under every coverage lane — the cross product of
//! its enumerated cell placements and the configured data backgrounds. The
//! lanes depend only on the target's placement shape, so the targets of one
//! shape share one [`LaneSet`](crate::LaneSet). The lanes are not simulated
//! one by one on the whole memory: each is projected onto the at most three
//! cells its instance involves, and lanes sharing the rank order of those
//! cells and their background bits form one class. The partition into
//! classes is built once per lane set and memoised there; verdicts are
//! computed per target, the selected [`SimulationBackend`] simulating the
//! target's fault on one representative per class on a memory of at most
//! three cells (see `projection.rs` for why this is exact). The targets
//! themselves are fanned out over the worker pool of a
//! [`Session`](crate::Session) ([`measure_coverage`] is a thin shim building
//! a throwaway one). The report (counts, per-topology break-down and the
//! stable-sorted escape list, each escape being the first escaping lane in
//! enumeration order) is byte-identical to a lane-by-lane full-memory walk
//! on every backend and thread count.

use std::collections::BTreeMap;
use std::fmt;

use march_test::MarchTest;
use sram_fault_model::{Bit, DecoderFault, FaultList, FaultPrimitive, LinkTopology, LinkedFault};

use crate::backend::{enumerate_lanes, BackendKind, SimulationBackend};
use crate::lane::LaneWidth;
use crate::memory::check_backgrounds;
use crate::{InitialState, InstanceCells, LaneSet, PlacementStrategy};

/// Which kind of target escaped a march test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetKind {
    /// A simple (unlinked) fault primitive.
    Simple(FaultPrimitive),
    /// A linked fault.
    Linked(LinkedFault),
    /// An address-decoder fault class.
    Decoder(DecoderFault),
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetKind::Simple(fp) => write!(f, "{fp}"),
            TargetKind::Linked(lf) => write!(f, "{lf}"),
            TargetKind::Decoder(af) => write!(f, "{af}"),
        }
    }
}

/// One undetected (target, placement, background) combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// The fault that escaped.
    pub target: TargetKind,
    /// The cell assignment under which it escaped.
    pub cells: InstanceCells,
    /// The initial memory content under which it escaped.
    pub background: InitialState,
}

/// The total ordering key of an [`Escape`]: target notation, cell assignment
/// (victim, first aggressor, second aggressor — absent cells sort last) and a
/// background ordinal with the custom content.
pub type EscapeSortKey = (String, (usize, usize, usize), (u8, Vec<Bit>));

impl Escape {
    /// A total ordering key (target notation, cell assignment, background) used
    /// to keep escape reporting deterministic across backends and thread
    /// counts.
    #[must_use]
    pub fn sort_key(&self) -> EscapeSortKey {
        let cells = (
            self.cells.victim,
            self.cells.aggressor_first.map_or(usize::MAX, |cell| cell),
            self.cells.aggressor_second.map_or(usize::MAX, |cell| cell),
        );
        let background = match &self.background {
            InitialState::AllZero => (0, Vec::new()),
            InitialState::AllOne => (1, Vec::new()),
            InitialState::Checkerboard => (2, Vec::new()),
            InitialState::Custom(bits) => (3, bits.clone()),
        };
        (self.target.to_string(), cells, background)
    }
}

impl fmt::Display for Escape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} ({:?})",
            self.target, self.cells, self.background
        )
    }
}

/// Configuration of a coverage measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageConfig {
    /// Number of cells of the simulated memory (≥ 4).
    pub memory_cells: usize,
    /// How exhaustively cell placements are enumerated.
    pub strategy: PlacementStrategy,
    /// The initial memory contents under which the test must detect each fault.
    pub backgrounds: Vec<InitialState>,
    /// Which simulation backend evaluates the lanes of each target. Defaults
    /// to the bit-parallel packed engine, whose verdicts are byte-identical to
    /// the scalar reference (pass `BackendKind::Scalar` to opt out).
    pub backend: BackendKind,
    /// Number of worker threads the targets are fanned out over (`1` = serial,
    /// `0` = use the available parallelism). The report is identical for every
    /// value.
    pub threads: usize,
    /// The packed backend's lane width (`Auto` = narrowest word holding each
    /// target's lane count). The report is identical for every width.
    pub lane_width: LaneWidth,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            memory_cells: 8,
            strategy: PlacementStrategy::Representative,
            backgrounds: vec![InitialState::AllOne],
            backend: BackendKind::Packed,
            threads: 1,
            lane_width: LaneWidth::Auto,
        }
    }
}

impl CoverageConfig {
    /// A thorough configuration: representative placements on an 8-cell memory, but
    /// every fault must be detected under both the all-zero and the all-one
    /// background.
    #[must_use]
    pub fn thorough() -> CoverageConfig {
        CoverageConfig {
            backgrounds: vec![InitialState::AllZero, InitialState::AllOne],
            ..CoverageConfig::default()
        }
    }

    /// An exhaustive configuration: every placement on a small memory, both uniform
    /// backgrounds. Slow; intended for final verification runs.
    #[must_use]
    pub fn exhaustive() -> CoverageConfig {
        CoverageConfig {
            memory_cells: 6,
            strategy: PlacementStrategy::Exhaustive,
            backgrounds: vec![InitialState::AllZero, InitialState::AllOne],
            ..CoverageConfig::default()
        }
    }

    /// Replaces the simulation backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> CoverageConfig {
        self.backend = backend;
        self
    }

    /// Replaces the worker-thread count (`0` = available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> CoverageConfig {
        self.threads = threads;
        self
    }

    /// Replaces the packed lane width.
    #[must_use]
    pub fn with_lane_width(mut self, lane_width: LaneWidth) -> CoverageConfig {
        self.lane_width = lane_width;
        self
    }
}

/// The result of measuring a march test's coverage over a fault list.
///
/// A fault counts as *covered* only if the test detects it under **every**
/// enumerated cell placement and initial background.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    test_name: String,
    list_name: String,
    total: usize,
    covered: usize,
    escapes: Vec<Escape>,
    by_topology: BTreeMap<LinkTopology, (usize, usize)>,
}

impl CoverageReport {
    /// The march test that was evaluated.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// The fault list that was targeted.
    #[must_use]
    pub fn list_name(&self) -> &str {
        &self.list_name
    }

    /// Total number of targets in the list.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of covered targets.
    #[must_use]
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Coverage percentage (100.0 for an empty list).
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }

    /// Returns `true` if every target is covered.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.covered == self.total
    }

    /// The undetected (target, placement, background) combinations, stable-sorted
    /// by target notation, cell assignment and background so that reports are
    /// byte-identical across backends and thread counts.
    #[must_use]
    pub fn escapes(&self) -> &[Escape] {
        &self.escapes
    }

    /// Per-topology `(covered, total)` counts for the linked-fault targets.
    #[must_use]
    pub fn by_topology(&self) -> &BTreeMap<LinkTopology, (usize, usize)> {
        &self.by_topology
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {}/{} covered ({:.1}%)",
            self.test_name,
            self.list_name,
            self.covered,
            self.total,
            self.percent()
        )
    }
}

/// Measures the coverage of `test` over `list` under the given configuration.
///
/// Every simple primitive and every linked fault of the list is instantiated on the
/// placements returned by [`enumerate_placements`](crate::enumerate_placements)
/// and simulated under every configured background by the configured backend;
/// the target is covered only if every combination is detected. Targets are
/// evaluated in parallel over `config.threads` workers.
///
/// This is now a thin shim constructing a throwaway [`Session`](crate::Session)
/// per call; long-lived callers should build one session and use
/// [`Session::coverage`](crate::Session::coverage), which re-uses its worker
/// pool across queries. The report is byte-identical either way.
#[must_use]
pub fn measure_coverage(
    test: &MarchTest,
    list: &FaultList,
    config: &CoverageConfig,
) -> CoverageReport {
    crate::Session::from_coverage_config(config).coverage(test, list)
}

/// Assembles a [`CoverageReport`] from the per-target first escapes, in target
/// order — shared by the session and (through it) the legacy free function.
/// Escapes are stable-sorted by [`Escape::sort_key`] so reports are
/// byte-identical across backends and thread counts.
pub(crate) fn assemble_coverage_report(
    test_name: &str,
    list_name: &str,
    targets: &[TargetKind],
    first_escapes: Vec<Option<Escape>>,
) -> CoverageReport {
    let mut covered = 0usize;
    let mut escapes = Vec::new();
    let mut by_topology: BTreeMap<LinkTopology, (usize, usize)> = BTreeMap::new();
    for (target, escape) in targets.iter().zip(first_escapes) {
        let detected = escape.is_none();
        if let TargetKind::Linked(fault) = target {
            let entry = by_topology.entry(fault.topology()).or_insert((0, 0));
            entry.1 += 1;
            if detected {
                entry.0 += 1;
            }
        }
        match escape {
            None => covered += 1,
            Some(escape) => escapes.push(escape),
        }
    }
    escapes.sort_by_cached_key(Escape::sort_key);

    CoverageReport {
        test_name: test_name.to_string(),
        list_name: list_name.to_string(),
        total: targets.len(),
        covered,
        escapes,
        by_topology,
    }
}

/// Enumerates the fault targets of `list` in report order: every simple
/// primitive first, then every linked fault, then every address-decoder fault.
/// Both coverage measurement and the generator's target batches rely on this
/// single ordering.
#[must_use]
pub fn enumerate_targets(list: &FaultList) -> Vec<TargetKind> {
    list.simple()
        .iter()
        .map(|primitive| TargetKind::Simple(primitive.clone()))
        .chain(
            list.linked()
                .iter()
                .map(|fault| TargetKind::Linked(fault.clone())),
        )
        .chain(
            list.decoders()
                .iter()
                .map(|fault| TargetKind::Decoder(*fault)),
        )
        .collect()
}

/// The first lane of `target` the test fails on, as an [`Escape`].
fn target_escape(
    backend: &dyn SimulationBackend,
    test: &MarchTest,
    target: &TargetKind,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: &[InitialState],
) -> Option<Escape> {
    let lanes = check_backgrounds(backgrounds, memory_cells)
        .and_then(|()| enumerate_lanes(target, memory_cells, strategy, backgrounds))
        .expect("coverage scope hosts the target's placements");
    lane_escape(backend, test, target, &LaneSet::new(lanes))
}

/// The first of the pre-enumerated `lanes` the test fails on, as an
/// [`Escape`] — the shared kernel of [`target_escape`] and the session's
/// cached-lane coverage path. The lanes are projected onto the set's
/// memoised lane classes (see `projection.rs`), so the memory size does not
/// enter and only the target's fault is simulated per call.
pub(crate) fn lane_escape(
    backend: &dyn SimulationBackend,
    test: &MarchTest,
    target: &TargetKind,
    lanes: &LaneSet,
) -> Option<Escape> {
    lanes
        .classes()
        .first_undetected(backend, test, target)
        .map(|index| Escape {
            target: target.clone(),
            cells: lanes[index].cells,
            background: lanes[index].background.clone(),
        })
}

/// Returns `true` if `test` detects the given linked fault under every placement and
/// background of `config`.
#[must_use]
pub fn detects_linked(test: &MarchTest, fault: &LinkedFault, config: &CoverageConfig) -> bool {
    let backend = config.backend.instance_with(config.lane_width);
    target_escape(
        backend.as_ref(),
        test,
        &TargetKind::Linked(fault.clone()),
        config.memory_cells,
        config.strategy,
        &config.backgrounds,
    )
    .is_none()
}

/// Returns `true` if `test` detects the given simple fault primitive under every
/// placement and background of `config`.
#[must_use]
pub fn detects_simple(
    test: &MarchTest,
    primitive: &FaultPrimitive,
    config: &CoverageConfig,
) -> bool {
    let backend = config.backend.instance_with(config.lane_width);
    target_escape(
        backend.as_ref(),
        test,
        &TargetKind::Simple(primitive.clone()),
        config.memory_cells,
        config.strategy,
        &config.backgrounds,
    )
    .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::catalog;

    #[test]
    fn march_ss_covers_the_unlinked_static_faults() {
        let report = measure_coverage(
            &catalog::march_ss(),
            &FaultList::unlinked_static(),
            &CoverageConfig::thorough(),
        );
        assert!(report.is_complete(), "escapes: {:?}", report.escapes());
        assert_eq!(report.total(), 48);
        assert!((report.percent() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn mats_plus_does_not_cover_the_unlinked_static_faults() {
        let report = measure_coverage(
            &catalog::mats_plus(),
            &FaultList::unlinked_static(),
            &CoverageConfig::default(),
        );
        assert!(!report.is_complete());
        assert!(!report.escapes().is_empty());
        assert!(report.covered() > 0);
    }

    #[test]
    fn march_abl1_covers_fault_list_2() {
        let report = measure_coverage(
            &catalog::march_abl1(),
            &FaultList::list_2(),
            &CoverageConfig::thorough(),
        );
        assert!(report.is_complete(), "escapes: {:?}", report.escapes());
    }

    #[test]
    fn mats_plus_misses_single_cell_linked_faults() {
        let report = measure_coverage(
            &catalog::mats_plus(),
            &FaultList::list_2(),
            &CoverageConfig::default(),
        );
        assert!(!report.is_complete());
    }

    #[test]
    fn report_accessors() {
        let report = measure_coverage(
            &catalog::march_c_minus(),
            &FaultList::list_2(),
            &CoverageConfig::default(),
        );
        assert_eq!(report.test_name(), "March C-");
        assert!(report.list_name().contains("Fault List #2"));
        assert_eq!(report.total(), 32);
        assert!(report.by_topology().contains_key(&LinkTopology::Lf1));
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn reports_are_identical_across_backends_and_thread_counts() {
        let list = FaultList::list_1();
        let test = catalog::march_c_minus();
        let baseline = measure_coverage(&test, &list, &CoverageConfig::thorough());
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for threads in [1usize, 2, 4, 0] {
                let config = CoverageConfig::thorough()
                    .with_backend(backend)
                    .with_threads(threads);
                let report = measure_coverage(&test, &list, &config);
                assert_eq!(
                    report, baseline,
                    "report diverged for backend {backend} with {threads} threads"
                );
            }
        }
        for lane_width in LaneWidth::ALL {
            let config = CoverageConfig::thorough().with_lane_width(lane_width);
            let report = measure_coverage(&test, &list, &config);
            assert_eq!(report, baseline, "report diverged at width {lane_width}");
        }
    }

    #[test]
    fn escape_ordering_is_sorted() {
        let report = measure_coverage(
            &catalog::mats_plus(),
            &FaultList::list_1(),
            &CoverageConfig::default(),
        );
        assert!(!report.escapes().is_empty());
        let keys: Vec<_> = report.escapes().iter().map(Escape::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn detects_helpers_respect_the_backend_knob() {
        let list = FaultList::list_2();
        let fault = &list.linked()[0];
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let config = CoverageConfig::thorough().with_backend(backend);
            assert!(detects_linked(&catalog::march_sl(), fault, &config));
        }
        let primitive = &FaultList::unlinked_static().simple()[0].clone();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let config = CoverageConfig::thorough().with_backend(backend);
            assert!(detects_simple(&catalog::march_ss(), primitive, &config));
        }
    }
}
