//! `spill_scan`: the read side of the storage hierarchy, through the
//! engine, as `cumulon run --memory-budget B --prefetch-depth 4`.
//!
//! `T = X + Y` over inputs spilled at set-up, then `get_local("T")`: blob
//! get → decompress → decode → readmit, clean re-evictions, spill-aware
//! fill and prefetch, about three tile reads per write, and a kernel that
//! costs next to nothing. A change that speeds `spill_write` at the cost
//! of reads (verify-on-read, say), or the reverse, shows here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, SchedulerConfig};
use cumulon_core::expr::InputDesc;
use cumulon_core::{Optimizer, Program, RecoveryConfig};
use cumulon_dfs::{DfsConfig, SpillConfig, SpillStats};
use cumulon_lang::compile_source;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::{LocalMatrix, MatrixMeta};
use cumulon_serve::engine::idealized_cost_model;

use super::{check_close, derive_seed, engine_config, zero_heavy, Config, OrString};
use crate::harness::{Fixture, RoundCtx};

/// The program of every round.
pub const SCRIPT: &str = "T = X + Y;";
/// `X`, `Y` and `T` are 512×512 in 128² tiles: 16 tiles of 128 KiB,
/// 2 MiB each, a 6 MiB working set against a 0.6 MiB budget (under five
/// tiles resident, where one task alone touches three).
pub const SHAPE: (usize, usize) = (512, 512);
/// Tile side.
pub const TILE: usize = 128;
/// Bytes of `X`, `Y` and `T`.
pub const WORKING_SET: u64 = 3 * (SHAPE.0 * SHAPE.1 * 8) as u64;
/// Resident-tile budget: a tenth of the working set.
pub const BUDGET: u64 = WORKING_SET / 10;
/// `--prefetch-depth` of the rounds.
pub const PREFETCH_DEPTH: usize = 4;

/// Prepared state of the workload.
pub struct SpillScan {
    cluster: Cluster,
    optimizer: Optimizer,
    program: Program,
    inputs: BTreeMap<String, InputDesc>,
    ref_fingerprint: String,
    ref_t: LocalMatrix,
    runs: AtomicU64,
}

fn provision() -> Result<Cluster, String> {
    Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).or_string()?,
        Default::default(),
        DfsConfig::default(),
    )
    .or_string()
}

impl SpillScan {
    /// Generates `X` (Gaussian, stored raw) and `Y` (95 % zeros,
    /// compressed), spills both into the budgeted cluster, and takes the
    /// reference from a `threads = 1` run on an unbudgeted cluster, itself
    /// checked against `LocalMatrix` arithmetic.
    pub fn build(cfg: &Config) -> Result<Self, String> {
        let meta = MatrixMeta::new(SHAPE.0, SHAPE.1, TILE);
        let x = LocalMatrix::generate(
            meta,
            &Generator::DenseGaussian {
                seed: derive_seed(cfg.seed, 0),
            },
        );
        let y = zero_heavy(meta, derive_seed(cfg.seed, 1))?;
        let optimizer = Optimizer::new(idealized_cost_model());
        let program = compile_source(SCRIPT).or_string()?.program;
        let inputs = BTreeMap::from([
            ("X".to_string(), InputDesc::dense(meta)),
            ("Y".to_string(), InputDesc::dense(meta)),
        ]);
        let load = |cluster: &Cluster| -> Result<(), String> {
            cluster.store().put_local("X", &x).or_string()?;
            cluster.store().put_local("Y", &y).or_string()?;
            Ok(())
        };

        let unbudgeted = provision()?;
        load(&unbudgeted)?;
        let report = optimizer
            .execute_on_with(
                &unbudgeted,
                &program,
                &inputs,
                "scan",
                ExecMode::Real,
                SchedulerConfig::default().with_threads(1),
                &FailurePlan::default(),
                RecoveryConfig::default(),
            )
            .or_string()?;
        let ref_t = unbudgeted.store().get_local("T").or_string()?;
        check_close(
            &ref_t,
            &x.elementwise(&y, ElemOp::Add).or_string()?,
            "reference T vs LocalMatrix arithmetic",
        )?;

        let cluster = provision()?;
        cluster
            .store()
            .set_memory_budget(&SpillConfig {
                budget_bytes: BUDGET,
                dir: Some(cfg.scratch.join("spill_scan")),
                compress: true,
            })
            .or_string()?;
        load(&cluster)?;
        Ok(SpillScan {
            cluster,
            optimizer,
            program,
            inputs,
            ref_fingerprint: report.fingerprint(),
            ref_t,
            runs: AtomicU64::new(0),
        })
    }
}

impl Fixture for SpillScan {
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
        let prefix = format!("scan{}", self.runs.fetch_add(1, Ordering::Relaxed));
        let report = ctx.rec.span("cluster.run", |_| {
            self.optimizer
                .execute_on_with(
                    &self.cluster,
                    &self.program,
                    &self.inputs,
                    &prefix,
                    ExecMode::Real,
                    engine_config().with_prefetch(PREFETCH_DEPTH),
                    &FailurePlan::default(),
                    RecoveryConfig::default(),
                )
                .or_string()
        })?;
        let t = ctx.rec.span("dfs.get_local", |_| {
            self.cluster.store().get_local("T").or_string()
        })?;
        // Dropping `T` makes room for the next round; it is the harness's
        // housekeeping, and `spill_write` is where drops are measured.
        ctx.pause(|| {
            self.cluster.store().drop_matrix("T").or_string()?;
            if report.fingerprint() != self.ref_fingerprint {
                return Err("run fingerprint differs from the unbudgeted reference".to_string());
            }
            check_close(&t, &self.ref_t, "T vs reference")
        })
    }

    fn rounds(&self) -> u32 {
        250
    }

    fn fingerprint(&self) -> String {
        format!(
            "{}out {:016x}\n",
            self.ref_fingerprint,
            self.ref_t.frob_norm().to_bits()
        )
    }

    fn spill_stats(&self) -> Option<SpillStats> {
        self.cluster.store().dfs().spill_stats()
    }

    fn ws_over_budget(&self) -> f64 {
        WORKING_SET as f64 / BUDGET as f64
    }
}
