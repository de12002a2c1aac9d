//! `dense_incore`: everything `cumulon run` does after argv, in core.
//!
//! `matrix` GEMM does most of the work; the `dfs` handle plane and the
//! scheduler are the overhead on top; spill, deployment search and serve
//! do nothing here.

use std::collections::BTreeMap;

use cumulon_cluster::instances::by_name;
use cumulon_cluster::{ExecMode, FailurePlan, RunReport, SchedulerConfig, Trace};
use cumulon_core::expr::InputDesc;
use cumulon_core::{Constraint, Optimizer, RecoveryConfig, SearchSpace};
use cumulon_lang::compile_source;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{LocalMatrix, MatrixMeta};
use cumulon_serve::engine::idealized_cost_model;

use super::{check_close, derive_seed, engine_config, Config, OrString};
use crate::harness::{Fixture, RoundCtx};
use crate::spans::Recorder;

/// The program of every round.
pub const SCRIPT: &str = "G = A' * A; C = G * B;";
/// `A` is 1024×1024 and `B` 1024×512 in 256² tiles: 2·1024³ +
/// 2·1024²·512 ≈ 3.2 GFLOP a round, 12 MB of inputs and 12 MB of
/// products — past the last-level cache, far inside RAM. (The issue's `A`
/// had 2048 rows for two engine threads; on one thread that round took
/// 167 ms, and the shorter a round the more of them fit between a shared
/// host's busy spells.)
pub const A_SHAPE: (usize, usize) = (1024, 1024);
/// See [`A_SHAPE`].
pub const B_SHAPE: (usize, usize) = (1024, 512);
/// Tile side of both inputs.
pub const TILE: usize = 256;
/// Floating-point operations of one round.
pub const ROUND_FLOPS: f64 = 2.0 * 1024.0 * 1024.0 * 1024.0 + 2.0 * 1024.0 * 1024.0 * 512.0;

/// The inputs and planner of the round, without a reference: the probes
/// run it at other thread counts and with the program's tracing on.
pub struct Pipeline {
    a: LocalMatrix,
    b: LocalMatrix,
    inputs: BTreeMap<String, InputDesc>,
    optimizer: Optimizer,
    space: SearchSpace,
}

/// Prepared state of the workload.
pub struct DenseIncore {
    pipeline: Pipeline,
    ref_fingerprint: String,
    ref_c: LocalMatrix,
}

impl DenseIncore {
    /// Generates the inputs and computes the reference: a `threads = 1`
    /// run of the same pipeline, itself checked against `LocalMatrix`
    /// arithmetic.
    pub fn build(cfg: &Config) -> Result<Self, String> {
        let pipeline = Pipeline::new(cfg.seed)?;
        let mut idle = Recorder::new(false, std::time::Instant::now());
        let (report, ref_c) = pipeline.run(
            &mut idle,
            SchedulerConfig::default().with_threads(1),
            &Trace::disabled(),
        )?;
        let want = pipeline
            .a
            .transpose()
            .matmul(&pipeline.a)
            .and_then(|g| g.matmul(&pipeline.b))
            .or_string()?;
        check_close(&ref_c, &want, "reference C vs LocalMatrix arithmetic")?;
        Ok(DenseIncore {
            pipeline,
            ref_fingerprint: report.fingerprint(),
            ref_c,
        })
    }
}

impl Pipeline {
    /// Generates `A` and `B` from `seed`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let a_meta = MatrixMeta::new(A_SHAPE.0, A_SHAPE.1, TILE);
        let b_meta = MatrixMeta::new(B_SHAPE.0, B_SHAPE.1, TILE);
        let gaussian = |meta, stream| {
            LocalMatrix::generate(
                meta,
                &Generator::DenseGaussian {
                    seed: derive_seed(seed, stream),
                },
            )
        };
        Ok(Pipeline {
            a: gaussian(a_meta, 0),
            b: gaussian(b_meta, 1),
            inputs: BTreeMap::from([
                ("A".to_string(), InputDesc::dense(a_meta)),
                ("B".to_string(), InputDesc::dense(b_meta)),
            ]),
            optimizer: Optimizer::new(idealized_cost_model()),
            // The deployment `cumulon run` defaults to, reached through
            // the optimizer so that planning is part of the round.
            space: SearchSpace {
                instances: vec![by_name("m1.large").ok_or("m1.large left the catalog")?],
                min_nodes: 4,
                max_nodes: 4,
                slots_per_core: vec![1.0],
                ..Default::default()
            },
        })
    }

    /// compile → plan → provision → load → execute → fetch, as one call so
    /// that the reference, the rounds and the probes run the same code.
    pub fn run(
        &self,
        rec: &mut Recorder,
        config: SchedulerConfig,
        trace: &Trace,
    ) -> Result<(RunReport, LocalMatrix), String> {
        let compiled = rec.span("lang.compile", |_| compile_source(SCRIPT).or_string())?;
        let plan = rec.span("core.plan", |_| {
            self.optimizer
                .optimize(
                    &compiled.program,
                    &self.inputs,
                    self.space.clone(),
                    Constraint::Deadline(f64::MAX),
                )
                .or_string()
        })?;
        let cluster = rec.span("cluster.provision", |_| {
            self.optimizer.provision(&plan).or_string()
        })?;
        rec.span("dfs.put_local", |_| {
            cluster.store().put_local("A", &self.a).or_string()?;
            cluster.store().put_local("B", &self.b).or_string()
        })?;
        let report = rec.span("cluster.run", |_| {
            self.optimizer
                .execute_on_traced(
                    &cluster,
                    &compiled.program,
                    &self.inputs,
                    "run",
                    ExecMode::Real,
                    config,
                    &FailurePlan::default(),
                    RecoveryConfig::default(),
                    trace,
                )
                .or_string()
        })?;
        let c = rec.span("dfs.get_local", |_| {
            cluster.store().get_local("C").or_string()
        })?;
        rec.span("dfs.drop_store", |_| drop(cluster));
        Ok((report, c))
    }
}

impl Fixture for DenseIncore {
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
        let (report, c) = self
            .pipeline
            .run(ctx.rec, engine_config(), &Trace::disabled())?;
        ctx.pause(|| {
            if report.fingerprint() != self.ref_fingerprint {
                return Err("run fingerprint differs from the threads = 1 reference".to_string());
            }
            check_close(&c, &self.ref_c, "C vs reference")
        })
    }

    fn rounds(&self) -> u32 {
        170
    }

    fn fingerprint(&self) -> String {
        format!(
            "{}out {:016x}\n",
            self.ref_fingerprint,
            self.ref_c.frob_norm().to_bits()
        )
    }
}
