//! `sim_paper_scale`: the scheduler with kernels contributing nothing.
//!
//! `ExecMode::Simulated` over phantom tiles at paper-scale shapes: the
//! DES loop, the job DAG, namenode placement and lineage recovery — the
//! same scheduler `dense_incore` uses, used the way `repro`, `check` and
//! the optimizer's "simulate" step use it. `round_ms_p50` is host time;
//! simulated makespan, dollars and fingerprints must repeat exactly.

use std::collections::BTreeMap;

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig};
use cumulon_core::expr::InputDesc;
use cumulon_core::{Optimizer, Program, RecoveryConfig};
use cumulon_dfs::DfsConfig;
use cumulon_lang::compile_source;
use cumulon_matrix::gen::Generator;
use cumulon_serve::engine::idealized_cost_model;

use super::{derive_seed, Config, OrString, RsvdShape, RSVD_SCRIPT};
use crate::harness::{Fixture, RoundCtx};
use crate::spans::Recorder;

/// `A` is 131 072 × 65 536 (69 GB dense) in 2048² tiles, sketched to
/// width 2048: twelve jobs, ≈ 1.25 k tasks a run.
pub const SHAPE: RsvdShape = RsvdShape {
    m: 131_072,
    n: 65_536,
    k: 2048,
    tile: 2048,
};
/// Fleet of every run.
pub const NODES: u32 = 32;
/// Slots per node: one per `c1.xlarge` core.
pub const SLOTS: u32 = 8;
/// Where the search for a victim starts. At the seed commit node 4 is a
/// typical one (two recovery rounds, 16 jobs re-run); nodes 0, 1 and 3
/// exhaust the eight recovery rounds and node 2 needs 72 jobs re-run.
pub const FIRST_VICTIM: u32 = 4;

/// The simulated deployment and program, without a reference: the probes
/// run it at other thread counts.
pub struct Simulation {
    optimizer: Optimizer,
    program: Program,
    inputs: BTreeMap<String, InputDesc>,
    seed: u64,
}

impl Simulation {
    /// Compiles the RSVD chain.
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Simulation {
            optimizer: Optimizer::new(idealized_cost_model()),
            program: compile_source(RSVD_SCRIPT).or_string()?.program,
            inputs: SHAPE.inputs(),
            seed,
        })
    }

    /// Provisions a fresh fleet (a killed node stays dead, so every run
    /// needs its own), registers the generated inputs and runs the chain.
    /// Replication is 1 so that a node death loses blocks and lineage
    /// recovery, not just re-replication, has work to do.
    pub fn run(
        &self,
        rec: &mut Recorder,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> Result<RunReport, String> {
        let cluster = rec.span("cluster.provision", |_| {
            Cluster::provision_with(
                ClusterSpec::named("c1.xlarge", NODES, SLOTS).or_string()?,
                Default::default(),
                DfsConfig {
                    replication: 1,
                    ..Default::default()
                },
            )
            .or_string()
        })?;
        for (stream, (name, meta)) in [("A", SHAPE.a()), ("Omega", SHAPE.omega())]
            .into_iter()
            .enumerate()
        {
            let seed = derive_seed(self.seed, stream as u64);
            cluster
                .store()
                .register_generated(name, meta, Generator::DenseGaussian { seed })
                .or_string()?;
        }
        rec.span("cluster.run", |_| {
            self.optimizer
                .execute_on_with(
                    &cluster,
                    &self.program,
                    &self.inputs,
                    "sim",
                    ExecMode::Simulated,
                    config,
                    failures,
                    RecoveryConfig::default(),
                )
                .or_string()
        })
    }
}

/// Prepared state of the workload.
pub struct SimPaperScale {
    sim: Simulation,
    failures: FailurePlan,
    ref_clean: RunReport,
    ref_faulted: RunReport,
}

impl SimPaperScale {
    /// Runs the clean reference, then picks the victim: the first node,
    /// counting from [`FIRST_VICTIM`], whose death at half the clean
    /// makespan forces at least one job through lineage recovery and is
    /// survived. The victim does not
    /// depend on the seed, because recovery work does depend on the victim
    /// (by 2× between nodes), and rounds of different seeds must do the
    /// same work; the seed names the generators of the phantom inputs and
    /// the failure plan's coin.
    pub fn build(cfg: &Config) -> Result<Self, String> {
        let sim = Simulation::new(cfg.seed)?;
        let mut idle = Recorder::new(false, std::time::Instant::now());
        let config = SchedulerConfig::default();
        let ref_clean = sim.run(&mut idle, config, &FailurePlan::default())?;
        for offset in 0..NODES {
            let victim = (FIRST_VICTIM + offset) % NODES;
            let failures = FailurePlan {
                node_failures: vec![(ref_clean.makespan_s / 2.0, victim)],
                seed: cfg.seed,
                ..Default::default()
            };
            // Some victims lose nothing (their blocks were consumed
            // already) and some exhaust the recovery rounds; a workload
            // must be one on which no operation fails, so both are skipped.
            match sim.run(&mut idle, config, &failures) {
                Ok(ref_faulted)
                    if ref_faulted.faults.node_deaths == 1
                        && ref_faulted.faults.recovered_jobs > 0 =>
                {
                    return Ok(SimPaperScale {
                        sim,
                        failures,
                        ref_clean,
                        ref_faulted,
                    });
                }
                _ => {}
            }
        }
        Err("no node's death forced a lineage recovery".into())
    }

    /// Simulated tasks of the clean and of the faulted run.
    pub fn tasks(&self) -> (usize, usize) {
        (self.ref_clean.total_tasks(), self.ref_faulted.total_tasks())
    }

    /// The deployment and program, to run at other configurations.
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// The node death of the faulted run.
    pub fn failures(&self) -> &FailurePlan {
        &self.failures
    }

    /// The clean reference run.
    pub fn clean_reference(&self) -> &RunReport {
        &self.ref_clean
    }
}

fn same_run(got: &RunReport, want: &RunReport, what: &str) -> Result<(), String> {
    if got.fingerprint() != want.fingerprint() {
        return Err(format!(
            "{what} run differs from the reference: makespan {} vs {} s, ${} vs ${}",
            got.makespan_s, want.makespan_s, got.cost_dollars, want.cost_dollars
        ));
    }
    Ok(())
}

impl Fixture for SimPaperScale {
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
        let config = SchedulerConfig::default();
        let clean = self.sim.run(ctx.rec, config, &FailurePlan::default())?;
        let faulted = self.sim.run(ctx.rec, config, &self.failures)?;
        ctx.pause(|| {
            same_run(&clean, &self.ref_clean, "clean")?;
            same_run(&faulted, &self.ref_faulted, "faulted")?;
            if faulted.faults.node_deaths != 1 || faulted.faults.recovered_jobs == 0 {
                return Err("the injected node death did not fire".into());
            }
            Ok(())
        })
    }

    fn rounds(&self) -> u32 {
        225
    }

    fn fingerprint(&self) -> String {
        format!(
            "seed {} victim {:?}\n{}{}",
            self.sim.seed,
            self.failures.node_failures,
            self.ref_clean.fingerprint(),
            self.ref_faulted.fingerprint()
        )
    }
}
