//! `coverage_scale`: memory-scale coverage, closed loop, one client.
//!
//! Each op runs three requests, each on its own cold [`Session`]:
//!
//! 1. March SS exhaustive address-decoder (AF) coverage at 4096 cells;
//! 2. March SL exhaustive Fault List #1 coverage at 16 cells;
//! 3. a seeded 2048-draw March SS AF campaign at 2^18 cells.
//!
//! (One op runs all three rather than rotating through them: the requests
//! take 150–400 ms each, and an op that sums them gives a median that does
//! not jump between request kinds from run to run.)
//!
//! Threads follow the CLI's resolution: one at ≤ 64 cells, every available
//! core above. Enumeration and the packed plane walk do the work here; the
//! generator is idle. Campaign seeds come from `--seed`.

use march_test::{catalog, MarchTest};
use sram_fault_model::FaultList;
use sram_sim::{CampaignConfig, CampaignSpace, ExecPolicy, PlacementStrategy, Report, Session};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::ClosedLoop;

/// Latency limit of `goodput_per_s`.
pub const LATENCY_LIMIT_MS: f64 = 1500.0;

const AF_CELLS: usize = 4096;
const LIST1_CELLS: usize = 16;
const CAMPAIGN_CELLS: usize = 1 << 18;
const CAMPAIGN_DRAWS: u64 = 2048;

pub struct CoverageScale {
    rng: Rng,
    march_ss: MarchTest,
    march_sl: MarchTest,
    af: FaultList,
    list1: FaultList,
}

/// One request's output, reduced to what the check compares.
pub enum Output {
    Coverage {
        covered: usize,
        total: usize,
        expected: usize,
    },
    Campaign {
        draws: u64,
        detected: u64,
        space: u64,
        built_space: u64,
    },
}

pub fn setup(seed: u64) -> Result<CoverageScale, String> {
    let mut workload = CoverageScale {
        rng: Rng::new(seed),
        march_ss: catalog::march_ss(),
        march_sl: catalog::march_sl(),
        af: FaultList::address_decoder(),
        list1: FaultList::list_1(),
    };
    // Warm-up: one op, so lazy process state (allocator, page tables) is in
    // place before timing. Each op is cold regardless.
    let outputs = workload.op(&mut Tracer::new(false))?;
    if !workload.check(&outputs) {
        return Err("coverage_scale warm-up produced a wrong result".to_string());
    }
    workload.rng = Rng::new(seed);
    Ok(workload)
}

/// The CLI's thread resolution: one worker at ≤ 64 cells, all cores above.
fn policy(cells: usize) -> ExecPolicy {
    ExecPolicy::default().with_threads(if cells > 64 { 0 } else { 1 })
}

fn record_session(session: &Session, tracer: &mut Tracer) {
    tracer.count("memsim.store.hits", session.cache_hits() as f64);
    tracer.count(
        "memsim.store.enumerations",
        session.store().enumerations() as f64,
    );
    tracer.count("memsim.pool.jobs", session.jobs_executed() as f64);
    tracer.count(
        "memsim.pool.workers_spawned",
        session.workers_spawned() as f64,
    );
}

impl CoverageScale {
    fn coverage(
        &self,
        test: &MarchTest,
        list: &FaultList,
        cells: usize,
        expected: usize,
        tracer: &mut Tracer,
    ) -> Result<Output, String> {
        let session = Session::new(policy(cells))
            .with_memory_cells(cells)
            .with_strategy(PlacementStrategy::Exhaustive);
        let lanes = tracer
            .span("memsim.enumerate", || session.target_lanes(list))
            .map_err(|e| e.to_string())?;
        let lane_count: usize = lanes.iter().map(|(_, lanes)| lanes.len()).sum();
        tracer.count("memsim.enumerate.lanes", lane_count as f64);
        let report = tracer
            .span("memsim.simulate", || session.try_coverage(test, list))
            .map_err(|e| e.to_string())?;
        tracer.count("memsim.simulate.lanes", lane_count as f64);
        tracer.span("memsim.report.encode", || report.to_json());
        record_session(&session, tracer);
        Ok(Output::Coverage {
            covered: report.covered(),
            total: report.total(),
            expected,
        })
    }

    fn campaign(&mut self, tracer: &mut Tracer) -> Result<Output, String> {
        let session = Session::new(policy(CAMPAIGN_CELLS)).with_memory_cells(CAMPAIGN_CELLS);
        let config = CampaignConfig::default()
            .with_draws(CAMPAIGN_DRAWS)
            .with_seed(self.rng.next_u64() >> 11);
        let space = tracer
            .span("memsim.campaign_space", || {
                CampaignSpace::build(&self.af, CAMPAIGN_CELLS, session.backgrounds())
            })
            .map_err(|e| e.to_string())?;
        let report = tracer
            .span("memsim.campaign", || {
                session.try_campaign(&self.march_ss, &self.af, &config)
            })
            .map_err(|e| e.to_string())?;
        tracer.count("memsim.campaign.draws", report.draws() as f64);
        tracer.span("memsim.report.encode", || report.to_json());
        record_session(&session, tracer);
        Ok(Output::Campaign {
            draws: report.draws(),
            detected: report.detected(),
            space: report.space(),
            built_space: space.total(),
        })
    }
}

impl ClosedLoop for CoverageScale {
    type Output = [Output; 3];

    fn op(&mut self, tracer: &mut Tracer) -> Result<[Output; 3], String> {
        Ok([
            self.coverage(&self.march_ss, &self.af, AF_CELLS, 5, tracer)?,
            self.coverage(&self.march_sl, &self.list1, LIST1_CELLS, 844, tracer)?,
            self.campaign(tracer)?,
        ])
    }

    fn check(&mut self, outputs: &[Output; 3]) -> bool {
        outputs.iter().all(|output| match *output {
            Output::Coverage {
                covered,
                total,
                expected,
            } => covered == expected && total == expected,
            // March SS detects every AF instance, so every draw is detected
            // whatever the seed.
            Output::Campaign {
                draws,
                detected,
                space,
                built_space,
            } => draws == CAMPAIGN_DRAWS && detected == draws && space == built_space,
        })
    }
}
