//! Coverage measurement of march tests over fault lists.
//!
//! Every fault target (simple primitive, linked fault or address-decoder
//! class) must be detected under every coverage lane — the cross product of
//! its enumerated cell placements and the configured data backgrounds. The
//! lanes depend only on the target's placement shape, so the targets of one
//! shape share one [`LaneSet`](crate::LaneSet). The lanes are not simulated
//! one by one on the whole memory: each is projected onto the at most three
//! cells its instance involves, and lanes sharing the rank order of those
//! cells and their background bits form one class. A lane set derives its
//! classes from its shape and scope without listing its lanes, so no
//! coverage cost grows with the memory size. The class representatives of
//! every target sharing a set are packed into shared
//! 256-lane words that carry each lane's fault as per-lane masks, and the
//! selected [`SimulationBackend`](crate::SimulationBackend) runs one
//! simulation per word on a memory of at most three cells (see
//! `projection.rs` for why this is exact). The words are fanned out over the
//! worker pool of a [`Session`](crate::Session), the only entry point to
//! coverage. The report (counts, per-topology break-down and the
//! stable-sorted escape list, each escape being the first escaping lane in
//! enumeration order) is byte-identical to a lane-by-lane full-memory walk
//! on every backend and thread count.

use std::collections::BTreeMap;
use std::fmt;

use sram_fault_model::{Bit, DecoderFault, FaultList, FaultPrimitive, LinkTopology, LinkedFault};

use crate::{InitialState, InstanceCells};

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

/// Assembles a [`CoverageReport`] from the per-target first escapes, in target
/// order.
/// Escapes are stable-sorted by [`Escape::sort_key`] so reports are
/// byte-identical across backends and thread counts.
pub(crate) fn assemble_coverage_report<'t>(
    test_name: &str,
    list_name: &str,
    targets: impl IntoIterator<Item = &'t TargetKind>,
    first_escapes: Vec<Option<Escape>>,
) -> CoverageReport {
    let total = first_escapes.len();
    let mut covered = 0usize;
    let mut escapes = Vec::new();
    let mut by_topology: BTreeMap<LinkTopology, (usize, usize)> = BTreeMap::new();
    for (target, escape) in targets.into_iter().zip(first_escapes) {
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
        total,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, ExecPolicy, Session};
    use march_test::catalog;

    /// The single-background scope: 8 cells, representative placements,
    /// detection required under the all-one background only.
    fn all_one() -> Session {
        Session::default().with_backgrounds(vec![InitialState::AllOne])
    }

    #[test]
    fn march_ss_covers_the_unlinked_static_faults() {
        let report =
            Session::default().coverage(&catalog::march_ss(), &FaultList::unlinked_static());
        assert!(report.is_complete(), "escapes: {:?}", report.escapes());
        assert_eq!(report.total(), 48);
        assert!((report.percent() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn mats_plus_does_not_cover_the_unlinked_static_faults() {
        let report = all_one().coverage(&catalog::mats_plus(), &FaultList::unlinked_static());
        assert!(!report.is_complete());
        assert!(!report.escapes().is_empty());
        assert!(report.covered() > 0);
    }

    #[test]
    fn march_abl1_covers_fault_list_2() {
        let report = Session::default().coverage(&catalog::march_abl1(), &FaultList::list_2());
        assert!(report.is_complete(), "escapes: {:?}", report.escapes());
    }

    #[test]
    fn mats_plus_misses_single_cell_linked_faults() {
        let report = all_one().coverage(&catalog::mats_plus(), &FaultList::list_2());
        assert!(!report.is_complete());
    }

    #[test]
    fn report_accessors() {
        let report = all_one().coverage(&catalog::march_c_minus(), &FaultList::list_2());
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
        let baseline = Session::default().coverage(&test, &list);
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for threads in [1usize, 2, 4, 0] {
                let policy = ExecPolicy::default()
                    .with_backend(backend)
                    .with_threads(threads);
                let report = Session::new(policy).coverage(&test, &list);
                assert_eq!(
                    report, baseline,
                    "report diverged for backend {backend} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn escape_ordering_is_sorted() {
        let report = all_one().coverage(&catalog::mats_plus(), &FaultList::list_1());
        assert!(!report.escapes().is_empty());
        let keys: Vec<_> = report.escapes().iter().map(Escape::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
