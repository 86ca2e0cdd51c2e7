//! Target instances: every (fault, cell placement, background) combination a
//! generated march test must detect.

use std::fmt;

use march_test::MarchTest;
use sram_fault_model::FaultList;
use sram_sim::{
    enumerate_decoder_placements, enumerate_placements, DecoderFaultInstance, FaultSimulator,
    InitialState, InjectedFault, InstanceCells, LinkedFaultInstance, PlacementStrategy, TargetKind,
};

/// One concrete detection obligation of the generator: a fault of the target list,
/// instantiated on a specific cell assignment, simulated from a specific initial
/// memory content.
///
/// The generator works at this granularity because a march test may need different
/// elements (e.g. an ascending and a descending one) to cover the different
/// placements of the same fault.
#[derive(Debug, Clone)]
pub struct TargetInstance {
    target: TargetKind,
    cells: InstanceCells,
    background: InitialState,
    memory_cells: usize,
}

impl TargetInstance {
    /// Enumerates every target instance of a fault list.
    ///
    /// # Panics
    ///
    /// Panics if `memory_cells < 4` (the placement enumeration needs room for three
    /// distinct cells).
    #[must_use]
    pub fn enumerate(
        list: &FaultList,
        memory_cells: usize,
        strategy: PlacementStrategy,
        backgrounds: &[InitialState],
    ) -> Vec<TargetInstance> {
        let mut instances = Vec::new();
        for primitive in list.simple() {
            let topology = if primitive.is_coupling() {
                sram_fault_model::LinkTopology::Lf2CouplingThenSingle
            } else {
                sram_fault_model::LinkTopology::Lf1
            };
            let placements = enumerate_placements(topology, memory_cells, strategy)
                .expect("target instances use validated memory configurations");
            for cells in placements {
                for background in backgrounds {
                    instances.push(TargetInstance {
                        target: TargetKind::Simple(primitive.clone()),
                        cells,
                        background: background.clone(),
                        memory_cells,
                    });
                }
            }
        }
        for fault in list.linked() {
            let placements = enumerate_placements(fault.topology(), memory_cells, strategy)
                .expect("target instances use validated memory configurations");
            for cells in placements {
                for background in backgrounds {
                    instances.push(TargetInstance {
                        target: TargetKind::Linked(fault.clone()),
                        cells,
                        background: background.clone(),
                        memory_cells,
                    });
                }
            }
        }
        for fault in list.decoders() {
            let placements = enumerate_decoder_placements(*fault, memory_cells, strategy)
                .expect("target instances use validated memory configurations");
            for cells in placements {
                for background in backgrounds {
                    instances.push(TargetInstance {
                        target: TargetKind::Decoder(*fault),
                        cells,
                        background: background.clone(),
                        memory_cells,
                    });
                }
            }
        }
        instances
    }

    /// The fault being instantiated.
    #[must_use]
    pub fn target(&self) -> &TargetKind {
        &self.target
    }

    /// The cell assignment of the instance.
    #[must_use]
    pub fn cells(&self) -> InstanceCells {
        self.cells
    }

    /// The initial memory content of the instance.
    #[must_use]
    pub fn background(&self) -> &InitialState {
        &self.background
    }

    /// Builds a fault simulator with this instance injected and the configured
    /// background loaded.
    #[must_use]
    pub fn simulator(&self) -> FaultSimulator {
        let mut simulator = FaultSimulator::new(self.memory_cells, &self.background)
            .expect("target instances use validated memory configurations");
        match &self.target {
            TargetKind::Simple(primitive) => {
                let injected = if primitive.is_coupling() {
                    InjectedFault::coupling(
                        primitive.clone(),
                        self.cells.aggressor_first.expect("pair placement"),
                        self.cells.victim,
                        self.memory_cells,
                    )
                } else {
                    InjectedFault::single_cell(
                        primitive.clone(),
                        self.cells.victim,
                        self.memory_cells,
                    )
                }
                .expect("enumerated placements are valid");
                simulator.inject(injected);
            }
            TargetKind::Linked(fault) => {
                let instance =
                    LinkedFaultInstance::new(fault.clone(), self.cells, self.memory_cells)
                        .expect("enumerated placements are valid");
                simulator.inject_linked(&instance);
            }
            TargetKind::Decoder(fault) => {
                let instance = DecoderFaultInstance::new(*fault, self.cells, self.memory_cells)
                    .expect("enumerated placements are valid");
                simulator.inject_decoder(instance);
            }
        }
        simulator
    }

    /// Returns `true` if `test` detects this instance.
    #[must_use]
    pub fn is_detected_by(&self, test: &MarchTest) -> bool {
        let mut simulator = self.simulator();
        sram_sim::run_march(test, &mut simulator).detected()
    }
}

impl fmt::Display for TargetInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} ({:?})",
            self.target, self.cells, self.background
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::catalog;
    use sram_fault_model::LinkTopology;

    #[test]
    fn enumeration_counts() {
        let list = FaultList::list_2();
        let instances = TargetInstance::enumerate(
            &list,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllOne],
        );
        // LF1 faults have exactly one representative placement each.
        assert_eq!(instances.len(), list.linked().len());

        let both = TargetInstance::enumerate(
            &list,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllZero, InitialState::AllOne],
        );
        assert_eq!(both.len(), 2 * list.linked().len());
    }

    #[test]
    fn list_1_instances_cover_every_topology_placement() {
        let list = FaultList::list_1();
        let instances = TargetInstance::enumerate(
            &list,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllOne],
        );
        let lf3_count = list
            .linked()
            .iter()
            .filter(|lf| lf.topology() == LinkTopology::Lf3)
            .count();
        // LF3 gets 6 placements, LF2 gets 2, LF1 gets 1.
        assert!(instances.len() > list.linked().len() + 5 * lf3_count);
    }

    #[test]
    fn detection_matches_direct_simulation() {
        let list = FaultList::list_2();
        let instances = TargetInstance::enumerate(
            &list,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllOne],
        );
        let abl1 = catalog::march_abl1();
        assert!(instances
            .iter()
            .all(|instance| instance.is_detected_by(&abl1)));
        let mats = catalog::mats_plus();
        assert!(instances
            .iter()
            .any(|instance| !instance.is_detected_by(&mats)));
    }

    #[test]
    fn batch_incremental_execution_matches_full_runs() {
        let list = FaultList::list_2();
        let abl1 = catalog::march_abl1();
        let target_lanes = sram_sim::Session::default()
            .target_lanes_scoped(
                &list,
                8,
                PlacementStrategy::Representative,
                &[InitialState::AllOne],
            )
            .expect("8 cells host list #2");
        for backend in [sram_sim::BackendKind::Scalar, sram_sim::BackendKind::Packed] {
            for (target, lanes) in target_lanes.iter() {
                let lane_count = lanes.len();
                let mut batch =
                    sram_sim::TargetBatch::new(target.clone(), lanes.to_vec(), 8, backend);
                let mut newly = 0usize;
                for (_, element) in abl1.iter() {
                    newly += batch.advance(element);
                }
                assert_eq!(newly, lane_count, "ABL1 covers list #2 incrementally");
                assert_eq!(batch.pending(), 0);
            }
        }
    }

    #[test]
    fn display_mentions_the_cells() {
        let list = FaultList::list_2();
        let instances = TargetInstance::enumerate(
            &list,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllOne],
        );
        assert!(instances[0].to_string().contains("v="));
    }
}
