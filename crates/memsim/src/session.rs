//! The session execution API: one long-lived engine handle for the whole
//! pipeline.
//!
//! A [`Session`] is built **once** from an [`ExecPolicy`] and owns everything
//! execution-related: the simulation backend instance and — when the policy
//! asks for more than one worker thread — a persistent [`WorkerPool`] that
//! outlives individual queries, so repeated coverage / generation /
//! diagnosis calls stop paying per-call thread spawn. The session is also the one holder of the *simulation
//! scope* — memory size, placement strategy and data backgrounds — and the
//! only way to run coverage, campaigns and diagnosis (the generation crate
//! extends it with generation and minimisation).
//!
//! A session built with [`Session::new`] owns a *private*
//! [`ArtifactStore`](crate::ArtifactStore) and pool; sessions handed out by a
//! [`SharedEngine`](crate::SharedEngine) are cheap handles onto one shared
//! store and one resident pool, so many concurrent sessions amortise the same
//! warm cache.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use march_test::MarchTest;
use sram_fault_model::FaultList;

use crate::backend::{cross_backgrounds, SimulationBackend};
use crate::campaign::{sample_draw_indices, CampaignConfig, CampaignEscape, CampaignReport};
use crate::coverage::{assemble_coverage_report, enumerate_targets, Escape, TargetKind};
use crate::diagnose::{enumerate_diagnosis_instances, inject_diagnosis_instance};
use crate::lane::LaneWord;
use crate::memory::check_backgrounds;
use crate::parallel::WorkerPool;
use crate::placement::{placement_shape, PlacementShape};
use crate::projection::{check_lane, ClassImage, Classes, MAX_CLASSES, WORD_LANES};
use crate::report::DiagnosisReport;
use crate::run::run_march;
use crate::store::{ArtifactKey, ArtifactStore, DictionaryKey, TargetEntry};
use crate::sync::OnceLock;
use crate::{
    BackendKind, CampaignSpace, CoverageLane, CoverageReport, DiagnosisCandidate, ExecPolicy,
    FaultDictionary, FaultSimulator, InitialState, InjectedFault, InstanceCells,
    LinkedFaultInstance, MarchRun, PlacementStrategy, Result, SimulationError, Syndrome,
    TargetBatch,
};

/// How many diagnosis instances one sweep shard simulates: large enough to
/// amortise the per-shard fault-free simulator, small enough that the shards
/// of a representative sweep still spread over every worker.
const DIAGNOSIS_SHARD: usize = 256;

/// Every fault target of a list, in [`enumerate_targets`] order, with the
/// lane set it is simulated under — the session-cached setup artifact
/// shared by coverage measurement, the greedy generator and the
/// redundancy-removal pass.
///
/// A target's lanes depend only on its placement shape (single cell, cell
/// pair, cell triple, decoder single address or decoder pair), so the
/// targets of one shape hold the **same** [`LaneSet`]: a list has at most
/// five distinct sets however many targets it has. Compare entries with
/// [`Arc::ptr_eq`] to see the sharing.
pub type TargetLanes = Vec<(TargetKind, Arc<LaneSet>)>;

/// The coverage lanes shared by every target of one placement shape under
/// one simulation scope: every placement crossed with every background,
/// placements outermost.
///
/// A set is its shape and scope, not a list of lanes. On construction it
/// derives its lane classes from them (see `projection.rs`): each class's
/// code, its first lane in enumeration order and that lane projected onto
/// the at most three cells it involves. The first lanes come in closed
/// form under uniform and checkerboard backgrounds, and from a bounded
/// number of passes over a custom image (see `placement.rs`). Coverage and
/// campaigns read only the classes, so they build no lanes and cost the
/// same at any memory size: [`LaneSet::len`] counts the lanes without
/// listing them.
///
/// The lanes are built on the first call to [`LaneSet::lanes`] and kept.
/// Only the callers that list or store every lane pay for them: a snapshot
/// of the set, the scalar [`TargetBatch`](crate::TargetBatch), and a packed
/// batch naming its pending lanes. The weight of each class — how many
/// lanes it holds — is counted on the first call that needs it, for the
/// packed batch's scores: in closed form at representative scope and under
/// uniform backgrounds, from the lanes otherwise. Coverage reads neither.
pub struct LaneSet {
    /// The shape and scope the lanes enumerate; `None` for a set over a
    /// caller's own lanes.
    space: Option<LaneSpace>,
    /// The lane classes.
    classes: Classes,
    len: usize,
    lanes: OnceLock<Vec<CoverageLane>>,
    /// The number of lanes of each class, in class order.
    weights: OnceLock<Vec<usize>>,
}

/// What the lanes of a shape's [`LaneSet`] enumerate.
struct LaneSpace {
    shape: PlacementShape,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: Arc<[InitialState]>,
}

impl LaneSet {
    /// The lane set of `shape` on a `memory_cells`-cell memory under
    /// `strategy` and `backgrounds`, which must fit the memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// when the memory cannot host the shape's placements, and
    /// [`SimulationError::LaneCountOverflow`](crate::SimulationError) when
    /// the set has more lanes than a `usize` counts.
    pub(crate) fn new(
        shape: PlacementShape,
        memory_cells: usize,
        strategy: PlacementStrategy,
        backgrounds: &Arc<[InitialState]>,
    ) -> Result<LaneSet> {
        shape.check(memory_cells)?;
        let len = shape
            .count(memory_cells, strategy)
            .and_then(|placements| usize::try_from(placements).ok())
            .and_then(|placements| placements.checked_mul(backgrounds.len()))
            .ok_or(SimulationError::LaneCountOverflow {
                cells: memory_cells,
            })?;
        let classes = Classes::first_seen(
            shape
                .class_first_lanes(memory_cells, strategy, backgrounds)
                .into_iter()
                .map(|(index, cells, background)| (index, cells, &backgrounds[background])),
        );
        Ok(LaneSet {
            space: Some(LaneSpace {
                shape,
                memory_cells,
                strategy,
                backgrounds: Arc::clone(backgrounds),
            }),
            classes,
            len,
            lanes: OnceLock::new(),
            weights: OnceLock::new(),
        })
    }

    /// The number of lanes, counted without listing them.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lanes, in enumeration order: built on the first call and kept.
    #[must_use]
    pub fn lanes(&self) -> &[CoverageLane] {
        self.lanes.get_or_init(|| match &self.space {
            Some(space) => cross_backgrounds(
                space.shape.enumerate(space.memory_cells, space.strategy),
                &space.backgrounds,
            ),
            // A set over a caller's own lanes holds them from the start.
            None => Vec::new(),
        })
    }

    /// Fills the lanes with `lanes`, read back from a snapshot of the set.
    /// Returns `false`, leaving the set as it was, when they are not as many
    /// as the set has.
    pub(crate) fn restore_lanes(&self, lanes: Vec<CoverageLane>) -> bool {
        lanes.len() == self.len && self.lanes.set(lanes).is_ok()
    }

    /// The set's lane classes.
    pub(crate) fn classes(&self) -> &Classes {
        &self.classes
    }

    /// The number of lanes of each class, in class order: counted on the
    /// first call and kept.
    pub(crate) fn weights(&self) -> &[usize] {
        self.weights.get_or_init(|| {
            let classes = &self.classes;
            let mut weights = vec![0; classes.len()];
            match &self.space {
                // Representative placements are few: every lane is walked
                // without building the set's lanes.
                Some(space) if space.strategy == PlacementStrategy::Representative => {
                    for (_, cells, background) in space.shape.class_first_lanes(
                        space.memory_cells,
                        space.strategy,
                        &space.backgrounds,
                    ) {
                        weights[classes.class_of(&cells, &space.backgrounds[background])] += 1;
                    }
                }
                // Under uniform backgrounds a class is a rank order under
                // the backgrounds of one bit, and every rank order has as
                // many placements as any other.
                Some(space) if space.backgrounds.iter().all(InitialState::is_uniform) => {
                    let per_order = space.shape.placements_per_order(space.memory_cells);
                    for (class, weight) in weights.iter_mut().enumerate() {
                        let bit = classes.get(class).lane.background.bit_at(0);
                        let backgrounds = space
                            .backgrounds
                            .iter()
                            .filter(|background| background.bit_at(0) == bit)
                            .count();
                        *weight = per_order * backgrounds;
                    }
                }
                _ => {
                    for lane in self.lanes() {
                        weights[classes.class_of(&lane.cells, &lane.background)] += 1;
                    }
                }
            }
            weights
        })
    }

    /// Checks that the set's lanes fit a `memory_cells`-cell memory: the
    /// first lane of every class of an enumerated set, every lane of a
    /// caller's own.
    pub(crate) fn check_fits(&self, memory_cells: usize) -> Result<()> {
        match &self.space {
            Some(_) => (0..self.classes.len())
                .try_for_each(|class| check_lane(&self.classes.get(class).lane, memory_cells)),
            None => self
                .lanes()
                .iter()
                .try_for_each(|lane| check_lane(lane, memory_cells)),
        }
    }
}

impl From<Vec<CoverageLane>> for LaneSet {
    /// A set over `lanes`, for callers that build a [`TargetLanes`] of
    /// their own lanes for a [`TargetBatch`](crate::TargetBatch) rather than
    /// enumerating them with [`Session::target_lanes`]. Its classes are
    /// partitioned lane by lane.
    fn from(lanes: Vec<CoverageLane>) -> LaneSet {
        LaneSet {
            space: None,
            classes: Classes::first_seen(
                lanes
                    .iter()
                    .enumerate()
                    .map(|(index, lane)| (index, lane.cells, &lane.background)),
            ),
            len: lanes.len(),
            lanes: OnceLock::from(lanes),
            weights: OnceLock::new(),
        }
    }
}

impl PartialEq for LaneSet {
    /// Sets are equal when their lanes are, which builds them.
    fn eq(&self, other: &LaneSet) -> bool {
        self.len == other.len && self.lanes() == other.lanes()
    }
}

impl fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut set = f.debug_struct("LaneSet");
        if let Some(space) = &self.space {
            set.field("shape", &space.shape)
                .field("memory_cells", &space.memory_cells)
                .field("strategy", &space.strategy)
                .field("backgrounds", &space.backgrounds.len());
        }
        set.field("len", &self.len)
            .field("classes", &self.classes.len())
            .field("lanes_built", &self.lanes.get().is_some())
            .finish()
    }
}

/// Pairs every one of `targets` with the lane set of its placement shape.
/// `set_of` runs once per distinct shape, in the order the shapes first
/// appear among the targets, and every target of that shape shares its set.
pub(crate) fn share_by_shape<E>(
    targets: Vec<TargetKind>,
    mut set_of: impl FnMut(PlacementShape) -> std::result::Result<LaneSet, E>,
) -> std::result::Result<TargetLanes, E> {
    let mut sets: Vec<(PlacementShape, Arc<LaneSet>)> = Vec::new();
    let mut entries = Vec::with_capacity(targets.len());
    for target in targets {
        let shape = placement_shape(&target);
        let set = match sets.iter().find(|(seen, _)| *seen == shape) {
            Some((_, set)) => Arc::clone(set),
            None => {
                let set = Arc::new(set_of(shape)?);
                sets.push((shape, Arc::clone(&set)));
                set
            }
        };
        entries.push((target, set));
    }
    Ok(entries)
}

/// A reusable engine handle owning the execution policy and the resident
/// worker pool of the simulation pipeline.
///
/// The session also carries the *simulation scope* — memory size, placement
/// strategy and data backgrounds — defaulting to the paper's thorough
/// verification setup (8 cells, representative placements, both uniform
/// backgrounds). Execution policy is fixed at construction; the scope is
/// adjustable with the builder methods.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{ExecPolicy, Session};
///
/// let session = Session::new(ExecPolicy::default().with_threads(2));
/// // Repeated queries re-use the same worker pool...
/// let ss = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
/// let sl = session.coverage(&catalog::march_sl(), &FaultList::list_2());
/// assert!(ss.is_complete() && sl.is_complete());
/// // ...no new workers were spawned between the calls.
/// assert_eq!(session.workers_spawned(), 1);
/// ```
#[derive(Debug)]
pub struct Session {
    policy: ExecPolicy,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: Vec<InitialState>,
    backend: Arc<dyn SimulationBackend>,
    /// `Arc`'d so sessions handed out by one
    /// [`SharedEngine`](crate::SharedEngine) multiplex over a single resident
    /// pool instead of spawning per handle.
    pool: Option<Arc<WorkerPool>>,
    /// The artifact store backing the session: memoised per-`(list, scope)`
    /// target-lane enumerations and per-`(test, list contents, scope)` fault
    /// dictionaries under immutable content-fingerprint keys. Private per
    /// session by default; shared process-wide behind a
    /// [`SharedEngine`](crate::SharedEngine).
    store: Arc<ArtifactStore>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(ExecPolicy::default())
    }
}

impl Session {
    /// Builds a session from `policy`, spawning the resident worker pool when
    /// the policy resolves to more than one thread. The simulation scope
    /// defaults to the paper's thorough setup: an 8-cell memory,
    /// representative placements, detection required under both uniform
    /// backgrounds.
    #[must_use]
    pub fn new(policy: ExecPolicy) -> Session {
        let pool = match policy.threads {
            1 => None,
            threads => Some(Arc::new(WorkerPool::new(threads))),
        };
        Session::with_shared(policy, pool, Arc::new(ArtifactStore::new()))
    }

    /// Builds a cheap handle over already-shared state: the pool and store
    /// are `Arc` bumps, not fresh resources. This is how
    /// [`SharedEngine::session`](crate::SharedEngine::session) stamps out
    /// handles.
    pub(crate) fn with_shared(
        policy: ExecPolicy,
        pool: Option<Arc<WorkerPool>>,
        store: Arc<ArtifactStore>,
    ) -> Session {
        Session {
            policy,
            memory_cells: 8,
            strategy: PlacementStrategy::Representative,
            backgrounds: vec![InitialState::AllZero, InitialState::AllOne],
            backend: Arc::from(policy.backend.instance()),
            pool,
            store,
        }
    }

    /// Replaces the simulated memory size (≥ 4 cells).
    #[must_use]
    pub fn with_memory_cells(mut self, memory_cells: usize) -> Session {
        self.memory_cells = memory_cells;
        self
    }

    /// Replaces the placement-enumeration strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PlacementStrategy) -> Session {
        self.strategy = strategy;
        self
    }

    /// Replaces the data backgrounds each fault must be detected under.
    #[must_use]
    pub fn with_backgrounds(mut self, backgrounds: Vec<InitialState>) -> Session {
        self.backgrounds = backgrounds;
        self
    }

    /// The execution policy the session was built from.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The simulated memory size in cells.
    #[must_use]
    pub fn memory_cells(&self) -> usize {
        self.memory_cells
    }

    /// The placement-enumeration strategy.
    #[must_use]
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// The data backgrounds each fault must be detected under.
    #[must_use]
    pub fn backgrounds(&self) -> &[InitialState] {
        &self.backgrounds
    }

    /// The session's backend instance (shared, stateless).
    #[must_use]
    pub fn backend_instance(&self) -> Arc<dyn SimulationBackend> {
        Arc::clone(&self.backend)
    }

    /// Returns `true` when the session owns a worker pool (resolved thread
    /// count > 1); `false` means every query runs serially on the caller.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// Total worker threads spawned since the session was built. Stays
    /// constant across queries — the observable pool-reuse guarantee.
    #[must_use]
    pub fn workers_spawned(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers_spawned())
    }

    /// Number of fan-out jobs the session's pool has executed.
    #[must_use]
    pub fn jobs_executed(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.generation())
    }

    /// Number of times a query was answered from the session's artifact store
    /// instead of re-enumerating target lanes — the observable caching
    /// guarantee, mirroring [`Session::workers_spawned`] for the pool. When
    /// the store is shared, this counts hits **across** every attached
    /// session.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.store.hits()
    }

    /// Number of distinct `(list, scope)` enumerations the session's store
    /// has cached.
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.store.cached_artifacts()
    }

    /// Number of distinct `(test, list, scope)` fault dictionaries the
    /// session's store has cached.
    #[must_use]
    pub fn cached_dictionaries(&self) -> usize {
        self.store.cached_dictionaries()
    }

    /// The artifact store backing the session — shared with every other
    /// session handle of the same [`SharedEngine`](crate::SharedEngine).
    #[must_use]
    pub fn store(&self) -> Arc<ArtifactStore> {
        Arc::clone(&self.store)
    }

    /// Every fault target of `list` with its lane set under the session's
    /// scope, memoised for the session's lifetime: the first call per
    /// `(list, scope)` builds, every later one returns the shared [`Arc`]
    /// (observable through [`Session::cache_hits`]).
    ///
    /// A set is built once per placement shape, not once per target, and
    /// lists no lanes: every target of one shape holds the same [`LaneSet`],
    /// which counts its lanes and derives its classes without building them.
    /// So exhaustive Fault List #1 costs the same at 4096 cells, where its
    /// triple set alone holds 1.37·10^11 lanes, as at 16. A snapshot replay
    /// restores the same sets, their lanes read back from the file.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// when the session's memory cannot host the list's placements,
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// when a custom background does not match the memory size, and
    /// [`SimulationError::LaneCountOverflow`](crate::SimulationError) when a
    /// set has more lanes than a `usize` counts.
    ///
    /// # Examples
    ///
    /// ```
    /// use sram_fault_model::FaultList;
    /// use sram_sim::{PlacementStrategy, Session};
    ///
    /// let session = Session::default();
    /// let first = session.target_lanes(&FaultList::list_2()).unwrap();
    /// let second = session.target_lanes(&FaultList::list_2()).unwrap();
    /// assert!(std::sync::Arc::ptr_eq(&first, &second));
    /// assert_eq!(session.cache_hits(), 1);
    /// // List #2 holds only single-cell linked faults: one shared lane set.
    /// assert!(first.iter().all(|(_, lanes)| std::sync::Arc::ptr_eq(lanes, &first[0].1)));
    ///
    /// // Every placement of List #1 on 4096 cells: the sets count their
    /// // lanes without listing them.
    /// let large = Session::default()
    ///     .with_memory_cells(4096)
    ///     .with_strategy(PlacementStrategy::Exhaustive);
    /// let lanes = large.target_lanes(&FaultList::list_1()).unwrap();
    /// let total: usize = lanes.iter().map(|(_, set)| set.len()).sum();
    /// assert_eq!(total, 53_850_705_854_464);
    /// ```
    pub fn target_lanes(&self, list: &FaultList) -> Result<Arc<TargetLanes>> {
        Ok(Arc::clone(self.target_entry(list)?.lanes()))
    }

    /// The store entry of `list` under the session's scope: its target
    /// lanes, and the class image built beside them on first use. One
    /// counted store query, like [`Session::target_lanes`].
    fn target_entry(&self, list: &FaultList) -> Result<Arc<TargetEntry>> {
        check_backgrounds(&self.backgrounds, self.memory_cells)?;
        let key = ArtifactKey::new(list, self.memory_cells, self.strategy, &self.backgrounds);
        let snapshots = self.store.snapshots();
        self.store.target_entry(&key, || {
            // Replay the crash-safe snapshot first, when one is attached: a
            // valid file short-circuits the build, anything else (miss,
            // corruption, I/O failure) degrades to the build below.
            if let Some(snapshots) = &snapshots {
                if let Some(lanes) = snapshots.load_lanes(&key, list) {
                    return Ok(Arc::new(lanes));
                }
            }
            let built = Arc::new(self.shape_sets(list, self.strategy)?);
            if let Some(snapshots) = &snapshots {
                snapshots.store_lanes(&key, &built);
            }
            Ok(built)
        })
    }

    /// Every class representative of every target of `list` under the
    /// session's scope, bound into 256-lane words once per (list, scope) and
    /// kept in the session's store beside the target lanes.
    pub(crate) fn class_image(&self, list: &FaultList) -> Result<Arc<ClassImage>> {
        Ok(self.target_entry(list)?.image())
    }

    /// A [`TargetBatch`] over every target of `list` under the session's
    /// scope and backend, as the generator and the minimiser advance it: on
    /// the packed backend a copy of the list's memoised class image, each
    /// class weighted by its lane count, so a list's classes are bound once
    /// per session however many batches start from them; on the scalar
    /// backend one simulator per lane.
    ///
    /// # Errors
    ///
    /// Those of [`Session::target_lanes`], and
    /// [`SimulationError::LaneCountOverflow`](crate::SimulationError) when
    /// the list's lanes together are more than a `usize` counts, since
    /// scores and pending counts count them.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let mut batch = session.target_batch(&FaultList::list_2())?;
    /// // 32 faults, each on one cell under two backgrounds.
    /// assert_eq!(batch.pending(), 64);
    /// for element in catalog::march_abl1().elements() {
    ///     batch.advance(element);
    /// }
    /// assert_eq!(batch.pending(), 0);
    /// # Ok::<(), sram_sim::SimulationError>(())
    /// ```
    pub fn target_batch(&self, list: &FaultList) -> Result<TargetBatch> {
        let entry = self.target_entry(list)?;
        entry
            .lanes()
            .iter()
            .try_fold(0usize, |lanes, (_, set)| lanes.checked_add(set.len()))
            .ok_or(SimulationError::LaneCountOverflow {
                cells: self.memory_cells,
            })?;
        Ok(match self.policy.backend {
            BackendKind::Scalar => TargetBatch::new(
                Arc::clone(entry.lanes()),
                self.memory_cells,
                BackendKind::Scalar,
            ),
            BackendKind::Packed => entry.batch(),
        })
    }

    /// Every target of `list` with the lane set of its shape under the
    /// session's memory and backgrounds and `strategy`, built afresh.
    fn shape_sets(&self, list: &FaultList, strategy: PlacementStrategy) -> Result<TargetLanes> {
        let backgrounds: Arc<[InitialState]> = Arc::from(self.backgrounds.as_slice());
        share_by_shape(enumerate_targets(list), |shape| {
            LaneSet::new(shape, self.memory_cells, strategy, &backgrounds)
        })
    }

    /// Fans `map` out over the session's resident workers, returning results
    /// in item order (serially on the caller when the session is not
    /// parallel). This is the deterministic-merge primitive the downstream
    /// crates (generator, minimiser) build their sharding on.
    pub fn execute<T, R, F>(&self, items: Arc<Vec<T>>, map: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        match &self.pool {
            Some(pool) => pool.map(items, map),
            None => items.iter().map(map).collect(),
        }
    }

    /// Measures the coverage of `test` over `list` under the session's scope
    /// and policy. Every target must be detected under every enumerated cell
    /// placement and background; the report is byte-identical for every
    /// backend and thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let report = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
    /// assert!(report.is_complete());
    /// ```
    #[must_use]
    pub fn coverage(&self, test: &MarchTest, list: &FaultList) -> CoverageReport {
        // lint: allow(unwrap) — the infallible convenience wrapper; callers
        // that can see scope errors use `try_coverage` instead.
        self.try_coverage(test, list).expect(
            "session scope hosts the fault-list placements (try_coverage surfaces the error)",
        )
    }

    /// Fallible form of [`Session::coverage`]: the byte-identical report, or
    /// a typed error when the session's memory scope cannot host the list's
    /// placements (e.g. fewer than 4 cells for linked faults) or a custom
    /// background does not match the memory size.
    ///
    /// Each target's lanes are projected onto the at most three cells they
    /// involve and simulated once per lane class (see the crate docs). The
    /// classes come from the target's [`LaneSet`], which derives them from
    /// its shape and scope without building lanes, and the class
    /// representatives of every target are bound into the list's
    /// [`ClassImage`] of shared 256-lane words once per (list, scope), kept
    /// in the session's store. A request runs the test on copies of the
    /// image's words, one simulation per word whatever the memory size. With
    /// a worker pool the words, not the targets, are sharded, and merged
    /// back in word order; each target still reports its first escaping
    /// class.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// for undersized memories,
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// for mis-sized custom backgrounds and
    /// [`SimulationError::LaneCountOverflow`](crate::SimulationError) for a
    /// lane set beyond `usize`.
    pub fn try_coverage(&self, test: &MarchTest, list: &FaultList) -> Result<CoverageReport> {
        let image = self.class_image(list)?;
        let target_lanes = image.targets();
        let verdicts = self.image_verdicts(test, &image);
        // A target's classes are consecutive and in class order, so its
        // first undetected lane is its first escaping class.
        let mut first_escapes: Vec<Option<Escape>> = vec![None; target_lanes.len()];
        for (&class, detected) in image.classes().iter().zip(verdicts) {
            let escape = &mut first_escapes[class.target()];
            if !detected && escape.is_none() {
                let (target, set) = &target_lanes[class.target()];
                let lane = &set.classes().get(class.class()).lane;
                *escape = Some(Escape {
                    target: target.clone(),
                    cells: lane.cells,
                    background: lane.background.clone(),
                });
            }
        }
        Ok(assemble_coverage_report(
            test.name(),
            list.name(),
            target_lanes.iter().map(|(target, _)| target),
            first_escapes,
        ))
    }

    /// The verdict of `test` on every lane of `image`, in lane order: one
    /// backend call per word, on a copy of it. With a pool the lanes are cut
    /// into as many ranges as it has threads, at most a word each, so every
    /// worker gets work even when the image is one word.
    fn image_verdicts(&self, test: &MarchTest, image: &Arc<ClassImage>) -> Vec<bool> {
        let lanes = image.classes().len();
        let shard = match &self.pool {
            Some(pool) => lanes.div_ceil(pool.threads()).clamp(1, WORD_LANES),
            None => WORD_LANES,
        };
        let shards: Arc<Vec<Range<usize>>> = Arc::new(
            (0..lanes)
                .step_by(shard)
                .map(|start| start..lanes.min(start + shard))
                .collect(),
        );
        let detected = {
            let test = test.clone();
            let backend = Arc::clone(&self.backend);
            let image = Arc::clone(image);
            self.execute(Arc::clone(&shards), move |lanes| {
                backend.image_verdicts(&test, &image, lanes.clone())
            })
        };
        shards
            .iter()
            .zip(detected)
            .flat_map(|(lanes, detected)| (0..lanes.len()).map(move |lane| detected.test_bit(lane)))
            .collect()
    }

    /// Runs a seeded Monte-Carlo coverage campaign of `test` over `list`:
    /// `config.draws` lanes are sampled from the **exhaustive**
    /// `(target, placement, background)` instance space (regardless of the
    /// session's placement strategy — sampling only makes sense over the full
    /// space) and summarised as a point estimate with a Wilson-score
    /// confidence interval.
    ///
    /// A campaign is a lookup: each draw is unranked into its target and
    /// lane and takes the verdict of the lane's class. The classes the draws
    /// hit are bound into a class image of their own, like coverage's, and
    /// simulated once each, so the cost grows with the classes hit, not with
    /// the draws or the memory.
    ///
    /// The draw sequence is a pure function of `config.seed` and the space,
    /// so the report is byte-identical across backends and thread counts. A
    /// request covering the whole space degenerates to sampling without
    /// replacement in lane order — verdict-identical to
    /// [`Session::try_coverage`] under exhaustive placements.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidCampaign`](crate::SimulationError)
    /// for a degenerate configuration, an empty space or one beyond 2^64
    /// lanes, [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// when the session's memory cannot host the list's placements, and
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// for mis-sized custom backgrounds.
    pub fn try_campaign(
        &self,
        test: &MarchTest,
        list: &FaultList,
        config: &CampaignConfig,
    ) -> Result<CampaignReport> {
        config.validate()?;
        let space = CampaignSpace::build(list, self.memory_cells, &self.backgrounds)?;
        let target_lanes = Arc::new(self.shape_sets(list, PlacementStrategy::Exhaustive)?);
        let without_replacement = config.draws >= space.total();
        let indices = sample_draw_indices(config.seed, space.total(), config.draws);
        let draws = indices.len() as u64;
        // Each draw's (target, class) pair, and the classes the draws hit.
        let mut hit = vec![0u64; target_lanes.len()];
        let draw_classes: Vec<usize> = indices
            .iter()
            .map(|&index| {
                let (slot, cells, background) = space.locate(index);
                let class = target_lanes[slot].1.classes().class_of(&cells, background);
                hit[slot] |= 1 << class;
                slot * MAX_CLASSES + class
            })
            .collect();
        let image = Arc::new(ClassImage::selected(target_lanes, &hit));
        let verdicts = self.image_verdicts(test, &image);
        let mut class_detected = vec![false; image.targets().len() * MAX_CLASSES];
        for (&class, detected) in image.classes().iter().zip(verdicts) {
            class_detected[class.target() * MAX_CLASSES + class.class()] = detected;
        }
        let detected = draw_classes
            .iter()
            .filter(|&&class| class_detected[class])
            .count() as u64;
        let mut trace = Vec::new();
        let mut truncated = false;
        for (position, (&index, _)) in indices
            .iter()
            .zip(&draw_classes)
            .enumerate()
            .filter(|(_, (_, &class))| !class_detected[class])
        {
            if trace.len() >= config.max_escapes {
                truncated = true;
                break;
            }
            let (slot, lane) = space.decode(index);
            trace.push(CampaignEscape {
                draw: position as u64,
                escape: Escape {
                    target: space.target(slot).clone(),
                    cells: lane.cells,
                    background: lane.background,
                },
            });
        }
        Ok(CampaignReport::new(
            test.name(),
            list.name(),
            space.total(),
            draws,
            detected,
            config.seed,
            config.confidence,
            without_replacement,
            trace,
            truncated,
        ))
    }

    /// Infallible form of [`Session::try_campaign`] for validated
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics when the configuration or the session scope is degenerate —
    /// callers that can see those errors use [`Session::try_campaign`].
    #[must_use]
    pub fn campaign(
        &self,
        test: &MarchTest,
        list: &FaultList,
        config: &CampaignConfig,
    ) -> CampaignReport {
        self.try_campaign(test, list, config)
            // lint: allow(unwrap) — the infallible convenience wrapper; callers
            // that can see configuration errors use `try_campaign` instead.
            .expect("campaign configuration is valid (try_campaign surfaces the error)")
    }

    /// Executes `test` against a memory with `fault` injected, under the
    /// session's memory size and first background — the session form of
    /// [`run_march`](crate::run_march).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the fault instance.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::Ffm;
    /// use sram_sim::{InjectedFault, Session};
    ///
    /// let session = Session::default();
    /// let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
    /// let fault = InjectedFault::single_cell(tf, 3, session.memory_cells())?;
    /// let run = session.run(&catalog::march_ss(), &fault)?;
    /// assert!(run.detected());
    /// # Ok::<(), sram_sim::SimulationError>(())
    /// ```
    pub fn run(&self, test: &MarchTest, fault: &InjectedFault) -> Result<MarchRun> {
        let mut simulator = self.device()?;
        simulator.inject(fault.clone());
        Ok(run_march(test, &mut simulator))
    }

    /// Like [`Session::run`] for a linked-fault instance.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the instance.
    pub fn run_linked(&self, test: &MarchTest, fault: &LinkedFaultInstance) -> Result<MarchRun> {
        let mut simulator = self.device()?;
        simulator.inject_linked(fault);
        Ok(run_march(test, &mut simulator))
    }

    /// Builds a [`FaultDictionary`] for `test` over `list` under the session's
    /// scope — the pre-computed syndrome database
    /// [`Session::diagnose`] looks candidates up in.
    ///
    /// Dictionaries are memoised per `(test, list contents, scope)` through
    /// the session's artifact cache: the first call per key simulates the
    /// whole fault space, every later one returns the shared [`Arc`]
    /// (observable through [`Session::cache_hits`], exactly like the
    /// target-lane cache). Keys are immutable, so entries are never
    /// invalidated.
    #[must_use]
    pub fn dictionary(&self, test: &MarchTest, list: &FaultList) -> Arc<FaultDictionary> {
        // Dictionaries always enumerate placements exhaustively (diagnosis
        // needs localisation) and simulate only the first data background, so
        // the key carries exactly that scope: sessions differing only in
        // coverage strategy or trailing backgrounds share one entry.
        let background = self.first_background();
        let key = DictionaryKey::new(test, list, self.memory_cells, background.clone());
        let snapshots = self.store.snapshots();
        self.store.dictionary(&key, || {
            if let Some(snapshots) = &snapshots {
                if let Some(dictionary) = snapshots.load_dictionary(&key, list) {
                    return Arc::new(dictionary);
                }
            }
            let built = Arc::new(FaultDictionary::build(
                test,
                list,
                self.memory_cells,
                &background,
            ));
            if let Some(snapshots) = &snapshots {
                snapshots.store_dictionary(&key, &built, list);
            }
            built
        })
    }

    /// Diagnoses an observed `syndrome` against a pre-computed fault
    /// `dictionary`: the returned report holds every fault instance whose
    /// recorded syndrome equals the observed one (one index lookup — the fast
    /// path for repeated queries against the same test and fault space).
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::{FaultListBuilder, Ffm};
    /// use sram_sim::{InjectedFault, Report, Session, Syndrome};
    ///
    /// let session = Session::default().with_memory_cells(6);
    /// let list = FaultListBuilder::new("tf").family(Ffm::TransitionFault).build()?;
    /// let dictionary = session.dictionary(&catalog::march_ss(), &list);
    ///
    /// // A device with an (unknown to us) transition fault on cell 4.
    /// let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
    /// let fault = InjectedFault::single_cell(tf, 4, 6)?;
    /// let syndrome = session.observe(&catalog::march_ss(), &fault)?;
    ///
    /// let report = session.diagnose(&syndrome, &dictionary);
    /// assert!(report.candidates().iter().all(|c| c.cells.victim == 4));
    /// println!("{}", report.to_json());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn diagnose(&self, syndrome: &Syndrome, dictionary: &FaultDictionary) -> DiagnosisReport {
        let candidates = dictionary
            .lookup(syndrome)
            .into_iter()
            .filter(|entry| !entry.syndrome.is_empty())
            .map(|entry| crate::DiagnosisCandidate {
                target: entry.target.clone(),
                cells: entry.cells,
            })
            .collect();
        DiagnosisReport::new(dictionary.test_name(), syndrome.clone(), candidates)
    }

    /// Diagnoses `syndrome` by a full simulation sweep of `list` under `test`,
    /// for one-off queries where building a dictionary would not amortise.
    /// The instances are those of [`Session::dictionary`] — every placement
    /// on the session's memory, simulated from its first background — so the
    /// candidates equal a dictionary lookup's, in the same order.
    ///
    /// The sweep shards its instance space over the session's resident worker
    /// pool in fixed-size ranges; each shard re-uses one scratch simulator
    /// (reset per instance with `clone_from`, so the memory buffers are
    /// allocated once per shard, not once per instance). Shard results are
    /// concatenated in enumeration order, so the report is byte-identical at
    /// every thread count.
    #[must_use]
    pub fn diagnose_sweep(
        &self,
        test: &MarchTest,
        syndrome: &Syndrome,
        list: &FaultList,
    ) -> DiagnosisReport {
        if syndrome.is_empty() {
            return DiagnosisReport::new(test.name(), syndrome.clone(), Vec::new());
        }
        let instances = enumerate_diagnosis_instances(list, self.memory_cells);
        let shards: Vec<Vec<(TargetKind, InstanceCells)>> = instances
            .chunks(DIAGNOSIS_SHARD)
            .map(<[_]>::to_vec)
            .collect();
        let test_owned = test.clone();
        let observed = syndrome.clone();
        let memory_cells = self.memory_cells;
        let background = self.first_background();
        let matches: Vec<Vec<DiagnosisCandidate>> = self.execute(Arc::new(shards), move |shard| {
            let pristine = FaultSimulator::new(memory_cells, &background)
                // lint: allow(unwrap) — the same scope was validated when the
                // session enumerated the fault list; a failure here means the
                // validation upstream regressed.
                .expect("diagnosis memory configuration is valid");
            let mut scratch = pristine.clone();
            let mut found = Vec::new();
            for (target, cells) in shard {
                scratch.clone_from(&pristine);
                inject_diagnosis_instance(&mut scratch, target, *cells, memory_cells);
                if Syndrome::observe(&test_owned, &mut scratch) == observed {
                    found.push(DiagnosisCandidate {
                        target: target.clone(),
                        cells: *cells,
                    });
                }
            }
            found
        });
        DiagnosisReport::new(
            test.name(),
            syndrome.clone(),
            matches.into_iter().flatten().collect(),
        )
    }

    /// Runs `test` on a device carrying `fault` and returns the observed
    /// syndrome — the input to [`Session::diagnose`].
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the fault instance.
    pub fn observe(&self, test: &MarchTest, fault: &InjectedFault) -> Result<Syndrome> {
        let mut simulator = self.device()?;
        simulator.inject(fault.clone());
        Ok(Syndrome::observe(test, &mut simulator))
    }

    /// A fresh fault-free simulator with the session's memory size and first
    /// background.
    fn device(&self) -> Result<FaultSimulator> {
        FaultSimulator::new(self.memory_cells, &self.first_background())
    }

    /// The background single runs, dictionaries and diagnosis sweeps simulate
    /// from: the session's first (all-zero under the default thorough scope;
    /// all-one when the session has none).
    fn first_background(&self) -> InitialState {
        self.backgrounds
            .first()
            .cloned()
            .unwrap_or(InitialState::AllOne)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::assemble_coverage_report;
    use crate::{BackendKind, Report as _, SharedEngine};
    use march_test::catalog;
    use sram_fault_model::Ffm;

    #[test]
    fn session_coverage_matches_the_legacy_path() {
        // The legacy path: every enumerated lane simulated on the full
        // memory, as coverage ran before lanes were projected onto classes.
        let list = FaultList::list_2();
        let test = catalog::march_c_minus();
        let session = Session::new(ExecPolicy::default().with_backend(BackendKind::Scalar));
        let lanes = session.target_lanes(&list).unwrap();
        let targets: Vec<TargetKind> = lanes.iter().map(|(target, _)| target.clone()).collect();
        let escapes = lanes
            .iter()
            .map(|(target, set)| {
                let lanes = set.lanes();
                session
                    .backend_instance()
                    .first_undetected(&test, target, lanes, session.memory_cells())
                    .map(|index| Escape {
                        target: target.clone(),
                        cells: lanes[index].cells,
                        background: lanes[index].background.clone(),
                    })
            })
            .collect();
        let legacy = assemble_coverage_report(test.name(), list.name(), &targets, escapes);
        assert!(!legacy.is_complete(), "March C- must escape somewhere");
        for threads in [1usize, 2, 0] {
            for backend in [BackendKind::Scalar, BackendKind::Packed] {
                let session = Session::new(
                    ExecPolicy::default()
                        .with_backend(backend)
                        .with_threads(threads),
                );
                assert_eq!(
                    session.coverage(&test, &list),
                    legacy,
                    "backend {backend}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn two_sequential_calls_share_the_pool() {
        let session = Session::new(ExecPolicy::default().with_threads(4));
        assert!(session.is_parallel());
        let spawned = session.workers_spawned();
        assert_eq!(spawned, 3);
        let list = FaultList::list_1();
        let _ = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(session.workers_spawned(), spawned);
        let _ = session.coverage(&catalog::march_ss(), &list);
        assert_eq!(session.workers_spawned(), spawned);
        assert_eq!(session.jobs_executed(), 2);
    }

    #[test]
    fn serial_sessions_spawn_nothing() {
        let session = Session::default();
        assert!(!session.is_parallel());
        assert_eq!(session.workers_spawned(), 0);
        let _ = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
        assert_eq!(session.workers_spawned(), 0);
        assert_eq!(session.jobs_executed(), 0);
    }

    #[test]
    fn run_and_observe_match_the_manual_simulator() {
        let session = Session::default();
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let fault = InjectedFault::single_cell(tf, 3, 8).unwrap();
        let run = session.run(&catalog::march_ss(), &fault).unwrap();

        let mut manual = FaultSimulator::new(8, &InitialState::AllZero).unwrap();
        manual.inject(fault.clone());
        let reference = run_march(&catalog::march_ss(), &mut manual);
        assert_eq!(run, reference);
        assert_eq!(
            session.observe(&catalog::march_ss(), &fault).unwrap(),
            Syndrome::from_run(&reference)
        );
    }

    #[test]
    fn dictionary_diagnosis_round_trip() {
        let session = Session::default().with_memory_cells(6);
        let list = FaultList::list_2();
        let dictionary = session.dictionary(&catalog::march_abl1(), &list);
        let fault = list.linked()[0].clone();
        let cells =
            crate::enumerate_placements(fault.topology(), 6, PlacementStrategy::Representative)
                .unwrap()[0];
        let instance = LinkedFaultInstance::new(fault, cells, 6).unwrap();
        let run = session
            .run_linked(&catalog::march_abl1(), &instance)
            .unwrap();
        let syndrome = Syndrome::from_run(&run);
        assert!(!syndrome.is_empty());
        let report = session.diagnose(&syndrome, &dictionary);
        assert!(!report.is_unexplained());
        assert!(report
            .candidates()
            .iter()
            .any(|candidate| candidate.cells == cells));
    }

    #[test]
    fn sweep_diagnosis_matches_the_dictionary_lookup() {
        let session = Session::default().with_memory_cells(6);
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let fault = InjectedFault::single_cell(tf, 2, 6).unwrap();
        let syndrome = session.observe(&catalog::march_ss(), &fault).unwrap();
        let list = FaultList::unlinked_static();
        let report = session.diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
        let dictionary = session.dictionary(&catalog::march_ss(), &list);
        let reference = session.diagnose(&syndrome, &dictionary);
        assert!(!report.candidates().is_empty());
        assert_eq!(report, reference);
        assert_eq!(report.test_name(), "March SS");

        // The sharded parallel sweep is byte-identical to the serial one,
        // and an empty syndrome short-circuits to an unexplained report.
        for threads in [2usize, 0] {
            let parallel =
                Session::new(ExecPolicy::default().with_threads(threads)).with_memory_cells(6);
            let sharded = parallel.diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
            assert_eq!(sharded, report, "{threads} threads");
        }
        let passing = session.diagnose_sweep(&catalog::march_ss(), &Syndrome::new(), &list);
        assert!(passing.candidates().is_empty());
        assert!(!passing.is_unexplained());
    }

    #[test]
    fn artifact_cache_memoises_target_lanes_per_list_and_scope() {
        let engine = SharedEngine::new(ExecPolicy::default());
        let session = engine.session();
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_artifacts(), 0);

        // Same list, same scope: one enumeration, then hits sharing the Arc.
        let first = session.target_lanes(&FaultList::list_2()).unwrap();
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_artifacts(), 1);
        let second = session.target_lanes(&FaultList::list_2()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(session.cache_hits(), 1);

        // A different scope over the same store keys a different entry.
        let exhaustive = engine
            .session()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive)
            .target_lanes(&FaultList::list_2())
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &exhaustive));
        assert_eq!(session.cache_hits(), 1);
        assert_eq!(session.cached_artifacts(), 2);

        // A different list under the same scope keys a third entry, and the
        // content fingerprint distinguishes lists sharing a name.
        let other = session.target_lanes(&FaultList::unlinked_static()).unwrap();
        assert_eq!(session.cached_artifacts(), 3);
        assert_ne!(other.len(), first.len());
        let renamed = FaultList::new("Fault List #2 (single-cell linked faults)");
        let empty = session.target_lanes(&renamed).unwrap();
        assert!(empty.is_empty());
        assert_eq!(session.cached_artifacts(), 4);
    }

    /// The distinct lane sets among `lanes`, by pointer.
    fn distinct_sets(lanes: &TargetLanes) -> Vec<&Arc<LaneSet>> {
        let mut sets: Vec<&Arc<LaneSet>> = Vec::new();
        for (_, set) in lanes {
            if !sets.iter().any(|seen| Arc::ptr_eq(seen, set)) {
                sets.push(set);
            }
        }
        sets
    }

    #[test]
    fn targets_of_one_placement_shape_share_one_lane_set() {
        // (list, cells, targets, distinct sets, logical lanes, distinct lanes)
        // under exhaustive placements and both uniform backgrounds.
        for (list, cells, targets, set_count, logical, distinct) in [
            (FaultList::list_1(), 16, 844, 3, 2_836_864, 7_232),
            (FaultList::address_decoder(), 4096, 5, 2, 311_296, 106_496),
        ] {
            let session = Session::default()
                .with_memory_cells(cells)
                .with_strategy(PlacementStrategy::Exhaustive);
            let lanes = session.target_lanes(&list).unwrap();
            let sets = distinct_sets(&lanes);
            assert_eq!(lanes.len(), targets, "{}", list.name());
            assert_eq!(sets.len(), set_count, "{}", list.name());
            let logical_lanes: usize = lanes.iter().map(|(_, set)| set.len()).sum();
            assert_eq!(logical_lanes, logical, "{}", list.name());
            let distinct_lanes: usize = sets.iter().map(|set| set.len()).sum();
            assert_eq!(distinct_lanes, distinct, "{}", list.name());
            // Every target holds the set of the first target of its shape.
            for (target, set) in lanes.iter() {
                let (_, first) = lanes
                    .iter()
                    .find(|(other, _)| placement_shape(other) == placement_shape(target))
                    .unwrap();
                assert!(Arc::ptr_eq(set, first), "{target}");
            }
        }
    }

    #[test]
    fn lane_classes_are_partitioned_once_per_set() {
        // A set derives its classes when it is built and lists no lanes:
        // coverage reads the classes alone, and the lanes are built once,
        // on request.
        let session = Session::default();
        let list = FaultList::list_1();
        let lanes = session.target_lanes(&list).unwrap();
        let set = &lanes[0].1;
        let first: *const Classes = set.classes();
        let _ = session.coverage(&catalog::march_sl(), &list);
        assert!(std::ptr::eq(first, set.classes()));
        assert!(
            lanes.iter().all(|(_, set)| set.lanes.get().is_none()),
            "coverage built lanes"
        );
        let built: *const [CoverageLane] = set.lanes();
        assert_eq!(set.lanes().len(), set.len());
        assert!(std::ptr::eq(built, set.lanes()));
    }

    /// The background lists the closed-form classes are checked under on
    /// a `cells`-cell memory: each uniform background alone, both orders of
    /// the pair, one uniform background twice, the pair and the
    /// checkerboard, the checkerboard alone, and an irregular custom image
    /// alone and after the pair.
    fn background_lists(cells: usize) -> Vec<Vec<InitialState>> {
        let image = InitialState::Custom(
            (0..cells)
                .map(|address| sram_fault_model::Bit::from((address * 7 + 3) % 5 < 2))
                .collect(),
        );
        let (zero, one) = (InitialState::AllZero, InitialState::AllOne);
        vec![
            vec![zero.clone()],
            vec![one.clone()],
            vec![zero.clone(), one.clone()],
            vec![one.clone(), zero.clone()],
            vec![zero.clone(), zero.clone()],
            vec![zero.clone(), one.clone(), InitialState::Checkerboard],
            vec![InitialState::Checkerboard],
            vec![image.clone()],
            vec![zero, one, image],
        ]
    }

    #[test]
    fn batches_beyond_a_usize_of_lanes_are_typed_errors() {
        // Every set of exhaustive List #1 at 2^20 cells counts its lanes in
        // a usize (2.3·10^18 for the triples), but the 392 LF3 targets
        // together hold about 9·10^20: a batch's scores would wrap.
        let session = Session::default()
            .with_memory_cells(1 << 20)
            .with_strategy(PlacementStrategy::Exhaustive);
        let list = FaultList::list_1();
        assert!(session.target_lanes(&list).is_ok());
        assert_eq!(
            session.target_batch(&list).map(|batch| batch.pending()),
            Err(SimulationError::LaneCountOverflow { cells: 1 << 20 })
        );
    }

    #[test]
    fn class_weights_are_counted_without_lanes_where_closed_form() {
        // Representative scope and uniform backgrounds weigh their classes
        // without building a lane; the packed batch's pending count is the
        // set's lane count, and coverage builds no weights.
        let list = FaultList::list_1();
        for session in [
            Session::default(),
            Session::default()
                .with_memory_cells(16)
                .with_strategy(PlacementStrategy::Exhaustive),
        ] {
            let lanes = session.target_lanes(&list).unwrap();
            let _ = session.coverage(&catalog::march_sl(), &list);
            assert!(lanes.iter().all(|(_, set)| set.weights.get().is_none()));
            let batch = session.target_batch(&list).unwrap();
            let total: usize = lanes.iter().map(|(_, set)| set.len()).sum();
            assert_eq!(batch.pending(), total);
            assert!(lanes.iter().all(|(_, set)| set.lanes.get().is_none()));
        }
    }

    #[test]
    fn closed_form_classes_equal_the_per_lane_partition() {
        use PlacementShape::{DecoderPair, DecoderSingle, Pair, Single, Triple};
        for shape in [Single, Pair, Triple, DecoderSingle, DecoderPair] {
            for strategy in [
                PlacementStrategy::Representative,
                PlacementStrategy::Exhaustive,
            ] {
                for cells in (shape.min_cells()..=17).chain([31, 64, 100]) {
                    for backgrounds in background_lists(cells) {
                        let label =
                            format!("{shape:?}, {strategy:?}, {cells} cells, {backgrounds:?}");
                        let backgrounds: Arc<[InitialState]> = Arc::from(backgrounds);
                        let set = LaneSet::new(shape, cells, strategy, &backgrounds).unwrap();
                        let classes = set.classes().clone();
                        assert!(set.lanes.get().is_none(), "{label}");
                        // The lanes are `shape_lanes`' enumeration, every
                        // placement crossed with every background, checked
                        // placement by placement in place, so that the
                        // largest sets (2.9M lanes) are held once.
                        let lanes = set.lanes();
                        let placements = shape.placements(cells, strategy).unwrap();
                        assert_eq!(set.len(), placements.len() * backgrounds.len(), "{label}");
                        assert_eq!(lanes.len(), set.len(), "{label}");
                        for (chunk, placement) in lanes.chunks(backgrounds.len()).zip(&placements) {
                            assert!(
                                chunk
                                    .iter()
                                    .zip(backgrounds.iter())
                                    .all(|(lane, background)| {
                                        lane.cells == *placement && lane.background == *background
                                    }),
                                "{label}: {placement}"
                            );
                        }
                        // The partition, and each class weighing as many
                        // lanes as it holds, from one class code per lane.
                        let (partition, counted) = Classes::counted(lanes);
                        assert_eq!(classes, partition, "{label}");
                        assert_eq!(set.weights(), counted.as_slice(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_counts_beyond_u64_are_typed_errors_on_both_paths() {
        // One LF3 on 2^22 cells: 7.4·10^19 triples, beyond u64. Wrapped,
        // the count read 1.8·10^19 and a campaign sampled a quarter of the
        // space.
        let lf3 = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 3)
            .cloned()
            .unwrap();
        let list = sram_fault_model::FaultListBuilder::new("one LF3")
            .linked(lf3)
            .build()
            .unwrap();
        let cells = 1 << 22;
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        assert!(matches!(
            CampaignSpace::build(&list, cells, &backgrounds),
            Err(SimulationError::InvalidCampaign(reason)) if reason.contains("exceeds 2^64 lanes")
        ));
        let session = Session::default()
            .with_memory_cells(cells)
            .with_strategy(PlacementStrategy::Exhaustive);
        let overflow = SimulationError::LaneCountOverflow { cells };
        assert_eq!(
            session.target_lanes(&list).map(|_| ()),
            Err(overflow.clone())
        );
        assert_eq!(
            session.try_coverage(&catalog::march_ss(), &list),
            Err(overflow)
        );
        assert!(matches!(
            session.try_campaign(&catalog::march_ss(), &list, &CampaignConfig::default()),
            Err(SimulationError::InvalidCampaign(_))
        ));
        // Representative placements stay a handful of lanes.
        let representative = Session::default().with_memory_cells(cells);
        assert_eq!(
            representative
                .try_coverage(&catalog::march_sl(), &list)
                .map(|report| report.total()),
            Ok(1)
        );
    }

    #[test]
    fn dictionary_cache_memoises_per_test_list_and_scope() {
        let session = Session::default().with_memory_cells(6);
        assert_eq!(session.cached_dictionaries(), 0);
        let list = FaultList::list_2();

        // First build populates the cache; the repeat is a hit sharing the Arc.
        let first = session.dictionary(&catalog::march_abl1(), &list);
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_dictionaries(), 1);
        let second = session.dictionary(&catalog::march_abl1(), &list);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(session.cache_hits(), 1);
        assert_eq!(session.cached_dictionaries(), 1);

        // A different test keys a different entry...
        let other_test = session.dictionary(&catalog::march_ss(), &list);
        assert!(!Arc::ptr_eq(&first, &other_test));
        assert_eq!(session.cached_dictionaries(), 2);
        assert_eq!(session.cache_hits(), 1);

        // ...as does a test sharing the name but not the notation.
        let renamed = catalog::march_ss().with_name("March ABL1");
        let aliased = session.dictionary(&renamed, &list);
        assert!(!Arc::ptr_eq(&first, &aliased));
        assert_eq!(session.cached_dictionaries(), 3);

        // The cached dictionary is byte-identical to an uncached build.
        let fresh =
            FaultDictionary::build(&catalog::march_abl1(), &list, 6, &InitialState::AllZero);
        assert_eq!(first.len(), fresh.len());
        assert_eq!(first.entries(), fresh.entries());

        // The dictionary cache and the target-lane cache share the hit
        // counter but not the entries.
        assert_eq!(session.cached_artifacts(), 0);
    }

    #[test]
    fn repeated_queries_share_the_enumeration() {
        // generate/minimise/verify all funnel through the cache: repeated
        // coverage of the same list re-enumerates nothing.
        let session = Session::default();
        let list = FaultList::list_2();
        let baseline = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(session.cache_hits(), 0);
        let repeat = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(repeat, baseline);
        assert_eq!(session.cache_hits(), 1);
        let other_test = session.coverage(&catalog::march_ss(), &list);
        assert_eq!(session.cache_hits(), 2);
        assert_eq!(other_test.total(), baseline.total());
        // The cached enumeration yields the same report as a fresh session.
        assert_eq!(
            Session::default().coverage(&catalog::march_sl(), &list),
            baseline
        );
    }

    #[test]
    fn full_space_campaign_matches_exhaustive_coverage() {
        let session = Session::default()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive);
        let list = FaultList::list_1();
        let test = catalog::mats_plus();
        let exhaustive = session.try_coverage(&test, &list).unwrap();
        let config = CampaignConfig::default()
            .with_draws(crate::MAX_CAMPAIGN_DRAWS)
            .with_max_escapes(usize::MAX);
        let report = session.try_campaign(&test, &list, &config).unwrap();
        assert!(report.without_replacement());
        assert_eq!(report.draws(), report.space());
        assert_eq!(report.detected() + report.escapes_found(), report.draws());
        assert!(!report.trace_truncated());
        // The set of escaping targets is exactly the exhaustive escape set.
        let campaign_targets: std::collections::BTreeSet<String> = report
            .trace()
            .iter()
            .map(|entry| entry.escape.target.to_string())
            .collect();
        let exhaustive_targets: std::collections::BTreeSet<String> = exhaustive
            .escapes()
            .iter()
            .map(|escape| escape.target.to_string())
            .collect();
        assert_eq!(campaign_targets, exhaustive_targets);
        assert_eq!(
            exhaustive.total() - exhaustive.covered(),
            campaign_targets.len()
        );
    }

    #[test]
    fn campaign_reports_are_identical_across_policies() {
        let list = FaultList::list_2().with_address_decoder_faults();
        let test = catalog::march_c_minus();
        let config = CampaignConfig::default().with_draws(512).with_seed(11);
        let baseline = Session::new(ExecPolicy::default().with_threads(1))
            .with_memory_cells(16)
            .try_campaign(&test, &list, &config)
            .unwrap()
            .to_json();
        for threads in [2usize, 0] {
            for backend in [BackendKind::Scalar, BackendKind::Packed] {
                let report = Session::new(
                    ExecPolicy::default()
                        .with_backend(backend)
                        .with_threads(threads),
                )
                .with_memory_cells(16)
                .try_campaign(&test, &list, &config)
                .unwrap();
                assert_eq!(
                    report.to_json(),
                    baseline,
                    "backend {backend}, {threads} threads"
                );
            }
        }
        // A different seed draws a different prefix.
        let other = Session::new(ExecPolicy::default().with_threads(1))
            .with_memory_cells(16)
            .try_campaign(&test, &list, &config.clone().with_seed(12))
            .unwrap();
        assert_ne!(other.to_json(), baseline);
    }

    #[test]
    fn campaign_surfaces_typed_configuration_errors() {
        let session = Session::default();
        let list = FaultList::list_2();
        let bad = CampaignConfig::default().with_confidence(2.0);
        assert!(matches!(
            session.try_campaign(&catalog::march_ss(), &list, &bad),
            Err(crate::SimulationError::InvalidCampaign(_))
        ));
        let small = Session::default().with_memory_cells(2);
        assert!(matches!(
            small.try_campaign(&catalog::march_ss(), &list, &CampaignConfig::default()),
            Err(crate::SimulationError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn mis_sized_custom_backgrounds_are_typed_errors() {
        // A 3-cell image on the default 8-cell scope used to panic inside
        // the simulator; it is now rejected before anything is enumerated.
        let session =
            Session::new(ExecPolicy::default()).with_backgrounds(vec![InitialState::Custom(
                vec![sram_fault_model::Bit::One; 3],
            )]);
        let mismatch = crate::SimulationError::InitialStateSizeMismatch {
            provided: 3,
            cells: 8,
        };
        let list = FaultList::list_2();
        assert_eq!(
            session.try_coverage(&catalog::march_ss(), &list),
            Err(mismatch.clone())
        );
        assert_eq!(
            session
                .try_campaign(&catalog::march_ss(), &list, &CampaignConfig::default())
                .map(|report| report.to_json()),
            Err(mismatch)
        );
        assert_eq!(session.cached_artifacts(), 0);
    }

    #[test]
    fn scope_builders_and_accessors() {
        let session = Session::default()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive)
            .with_backgrounds(vec![InitialState::AllOne]);
        assert_eq!(session.memory_cells(), 6);
        assert_eq!(session.strategy(), PlacementStrategy::Exhaustive);
        assert_eq!(session.backgrounds(), &[InitialState::AllOne]);
        assert_eq!(session.policy().backend, BackendKind::Packed);
        assert_eq!(session.policy().threads, 1);
        assert_eq!(session.backend_instance().name(), "packed");
    }
}
