//! The end-to-end facade: calibrate once, then optimize and execute matrix
//! programs with one object.

use std::collections::BTreeMap;

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig};

use crate::calibrate::CostModel;
use crate::deploy::{Constraint, CostBasedChooser, DeploymentPlan, DeploymentSearch, SearchSpace};
use crate::error::{CoreError, Result};
use crate::estimate::{estimate_plan, ClusterView, PlanEstimate};
use crate::expr::{InputDesc, Program};
use crate::lower::{build_plan, instantiate};
use crate::recovery::{run_with_recovery_traced, RecoveryConfig};
use crate::rewrite;

/// DFS replication every estimate assumes, whatever the search space or
/// the cluster says.
const DEFAULT_REPLICATION: u32 = 3;

/// The Cumulon optimizer: a fitted cost model plus planning entry points.
pub struct Optimizer {
    model: CostModel,
}

impl Optimizer {
    /// Wraps an existing cost model.
    pub fn new(model: CostModel) -> Self {
        Optimizer { model }
    }

    /// The fitted model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Mutable access to the fitted model — elastic drivers refit
    /// per-instance coefficients from traced samples mid-run and install
    /// them here (see `cumulon-workloads`' elastic driver).
    pub fn model_mut(&mut self) -> &mut CostModel {
        &mut self.model
    }

    /// Runs the logical rewrite pipeline (CSE → chain DP).
    pub fn rewrite(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
    ) -> Result<Program> {
        rewrite::standard_pipeline(program, inputs)
    }

    /// Finds the best deployment for a program under a constraint.
    pub fn optimize(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        mut space: SearchSpace,
        constraint: Constraint,
    ) -> Result<DeploymentPlan> {
        space.replication = DEFAULT_REPLICATION;
        let program = self.rewrite(program, inputs)?;
        DeploymentSearch::new(&self.model, space).optimize(&program, inputs, constraint)
    }

    /// The (time, cost) skyline for a program.
    pub fn pareto(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        mut space: SearchSpace,
    ) -> Result<Vec<DeploymentPlan>> {
        space.replication = DEFAULT_REPLICATION;
        let program = self.rewrite(program, inputs)?;
        DeploymentSearch::new(&self.model, space).pareto(&program, inputs)
    }

    /// Provisions a simulated cluster matching a deployment plan.
    pub fn provision(&self, plan: &DeploymentPlan) -> Result<Cluster> {
        let spec = ClusterSpec {
            instance: plan.instance,
            nodes: plan.nodes,
            slots_per_node: plan.slots,
        };
        Cluster::provision(spec).map_err(CoreError::from)
    }

    /// Estimates a program on an existing cluster (no search).
    pub fn estimate_on(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
    ) -> Result<PlanEstimate> {
        let view = self.view_of(cluster)?;
        let program = self.rewrite(program, inputs)?;
        let coeffs = self.coeffs_for(&view)?;
        let chooser = CostBasedChooser { coeffs, view };
        let plan = build_plan(&program, inputs, &chooser, "est")?;
        estimate_plan(&plan, &view, &self.model)
    }

    /// Plans (with deployment-tuned parameters), instantiates and runs a
    /// program on an existing cluster. Inputs must already be registered in
    /// the cluster's tile store; outputs appear there after the run.
    ///
    /// `temp_prefix` namespaces intermediate matrices — pass a fresh prefix
    /// per call (e.g. the iteration number).
    pub fn execute_on(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        temp_prefix: &str,
        mode: ExecMode,
    ) -> Result<RunReport> {
        self.execute_on_with(
            cluster,
            program,
            inputs,
            temp_prefix,
            mode,
            SchedulerConfig::default(),
            &FailurePlan::default(),
            RecoveryConfig::default(),
        )
    }

    /// Like [`Optimizer::execute_on`] with explicit scheduler
    /// configuration, failure injection, and recovery policy. Runs under
    /// lineage-based recovery: if a node death or block loss aborts the
    /// run, only the producing tasks of the lost tiles are re-executed
    /// (see [`crate::recovery`]). With no failures injected the recovery
    /// path is never entered and this costs nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_on_with(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        temp_prefix: &str,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
        recovery: RecoveryConfig,
    ) -> Result<RunReport> {
        self.execute_on_traced(
            cluster,
            program,
            inputs,
            temp_prefix,
            mode,
            config,
            failures,
            recovery,
            &cumulon_trace::Trace::disabled(),
        )
    }

    /// Like [`Optimizer::execute_on_with`], recording every task attempt,
    /// job, fault event and recovery round of the execution into `trace`
    /// (see [`cumulon_trace`]). Tracing is observational only: results,
    /// outputs and the returned report are bitwise-identical whether the
    /// handle is enabled or disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_on_traced(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        temp_prefix: &str,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
        recovery: RecoveryConfig,
        trace: &cumulon_trace::Trace,
    ) -> Result<RunReport> {
        let view = self.view_of(cluster)?;
        let program = self.rewrite(program, inputs)?;
        let coeffs = self.coeffs_for(&view)?;
        let chooser = CostBasedChooser { coeffs, view };
        let plan = build_plan(&program, inputs, &chooser, temp_prefix)?;
        let dag = instantiate(&plan, cluster.store())?;
        run_with_recovery_traced(
            cluster, &plan, &dag, mode, config, failures, recovery, trace,
        )
    }

    /// Builds the deployment-tuned physical plan
    /// [`Optimizer::execute_on`] would run on this cluster, without
    /// executing it. Elastic drivers use this to pair each traced job with
    /// its [`crate::estimate::job_features`] when refitting the cost model
    /// from a run's prefix.
    pub fn build_physical(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        temp_prefix: &str,
    ) -> Result<(crate::physical::PhysPlan, ClusterView)> {
        let view = self.view_of(cluster)?;
        let program = self.rewrite(program, inputs)?;
        let coeffs = self.coeffs_for(&view)?;
        let chooser = CostBasedChooser { coeffs, view };
        let plan = build_plan(&program, inputs, &chooser, temp_prefix)?;
        Ok((plan, view))
    }

    /// Predicted phase breakdown and makespan for the plan
    /// [`Optimizer::execute_on`] would run on this cluster — the model
    /// side of a [`cumulon_trace::TraceLog::diff_against`] comparison
    /// with a traced run of the same program.
    pub fn predict_phases_on(
        &self,
        cluster: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
    ) -> Result<(cumulon_trace::PhaseBreakdown, f64)> {
        let view = self.view_of(cluster)?;
        let program = self.rewrite(program, inputs)?;
        let coeffs = self.coeffs_for(&view)?;
        let chooser = CostBasedChooser { coeffs, view };
        let plan = build_plan(&program, inputs, &chooser, "est")?;
        let phases = crate::estimate::predict_plan_phases(&plan, &view, &self.model)?;
        let est = estimate_plan(&plan, &view, &self.model)?;
        Ok((phases, est.makespan_s))
    }

    fn view_of(&self, cluster: &Cluster) -> Result<ClusterView> {
        let spec = cluster.spec();
        Ok(ClusterView {
            instance: spec.instance,
            nodes: spec.nodes,
            slots: spec.slots_per_node,
            replication: DEFAULT_REPLICATION,
        })
    }

    fn coeffs_for(&self, view: &ClusterView) -> Result<crate::calibrate::OpCoefficients> {
        self.model.require(view.instance.name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::expr::ProgramBuilder;
    use cumulon_cluster::instances::by_name;
    use cumulon_matrix::gen::Generator;
    use cumulon_matrix::{LocalMatrix, MatrixMeta};

    fn idealized_optimizer() -> Optimizer {
        Optimizer::new(crate::calibrate::idealized_cost_model())
    }

    #[test]
    fn optimize_then_execute_real() {
        let opt = idealized_optimizer();
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let at = b.transpose(a);
        let g = b.mul(at, a);
        b.output("G", g);
        let program = b.build();

        let meta = MatrixMeta::new(12, 8, 4);
        let mut inputs = BTreeMap::new();
        inputs.insert("A".into(), InputDesc::dense(meta));

        let plan = opt
            .optimize(
                &program,
                &inputs,
                SearchSpace::quick(),
                Constraint::Deadline(10_000.0),
            )
            .unwrap();
        let cluster = opt.provision(&plan).unwrap();
        let am = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform {
                seed: 1,
                lo: -1.0,
                hi: 1.0,
            },
        );
        cluster.store().put_local("A", &am).unwrap();
        let report = opt
            .execute_on(&cluster, &program, &inputs, "it0", ExecMode::Real)
            .unwrap();
        assert!(report.makespan_s > 0.0);
        let got = cluster.store().get_local("G").unwrap();
        let expect = am.transpose().matmul(&am).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
    }

    #[test]
    fn estimate_on_matches_execute_mode_roughly() {
        let opt = idealized_optimizer();
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let m = b.mul(a, a);
        b.output("A2", m);
        let program = b.build();
        let meta = MatrixMeta::new(6000, 6000, 1000);
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "A".into(),
            InputDesc {
                meta,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );

        let spec = ClusterSpec::named("c1.xlarge", 4, 8).unwrap();
        let cluster = Cluster::provision(spec).unwrap();
        cluster
            .store()
            .register_generated("A", meta, Generator::DenseGaussian { seed: 2 })
            .unwrap();
        let est = opt.estimate_on(&cluster, &program, &inputs).unwrap();
        let report = opt
            .execute_on(&cluster, &program, &inputs, "x", ExecMode::Simulated)
            .unwrap();
        let rel = (est.makespan_s - report.makespan_s).abs() / report.makespan_s;
        assert!(
            rel < 0.35,
            "estimate {} vs simulated {} (rel {rel})",
            est.makespan_s,
            report.makespan_s
        );
    }

    #[test]
    fn missing_model_for_instance_errors() {
        let opt = Optimizer::new(CostModel::default());
        let cluster = Cluster::provision(ClusterSpec::named("m1.small", 1, 1).unwrap()).unwrap();
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        b.output("O", a);
        let program = b.build();
        let mut inputs = BTreeMap::new();
        inputs.insert("A".into(), InputDesc::dense(MatrixMeta::new(4, 4, 4)));
        assert!(opt.estimate_on(&cluster, &program, &inputs).is_err());
        let _ = by_name("m1.small");
    }
}
