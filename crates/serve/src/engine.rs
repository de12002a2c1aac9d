//! The one run pipeline, and the service's per-action engine around it.
//!
//! A [`RunSpec`] says what a run executes on; [`execute`] runs it: input
//! check → provision → spill budget → spot plan → elastic run or traced
//! execute. `cumulon run`, `cumulon trace` and a served `run` all call
//! [`execute`], so a request through the service and the same program
//! through the CLI produce identical results — the `serve-isolation`
//! invariant `cumulon check` enforces. [`plan`], [`optimize`] and [`run`]
//! answer the service's actions.

use std::collections::BTreeMap;

use cumulon_cluster::{
    Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig, SpotMarket, Trace,
};
use cumulon_core::error::CoreError;
use cumulon_core::expr::InputDesc;
use cumulon_core::recovery::RecoveryConfig;
use cumulon_core::{Constraint, Optimizer, Program, Result, SearchSpace, SpotHazard};
use cumulon_lang::{compile_source, CompiledScript, InputSpec};
use cumulon_workloads::{run_elastic, ElasticDecision, ElasticPolicy, Workload};

use crate::protocol::{ErrorCode, Request};

pub use cumulon_core::calibrate::idealized_cost_model;

/// Why a `plan`, `optimize` or `run` request failed, with the wire code
/// that says whose fault it is: `bad-request` for a usage or parse error
/// (a script that does not compile, an input the request does not
/// specify), `internal` for anything a valid request hit later.
#[derive(Debug)]
pub struct RequestError {
    /// The code the service answers with.
    pub code: ErrorCode,
    /// What went wrong.
    pub error: CoreError,
}

impl From<CoreError> for RequestError {
    fn from(error: CoreError) -> Self {
        let code = match error {
            CoreError::Usage(_) | CoreError::Parse(_) => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        };
        RequestError { code, error }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

/// What a run executes on: the same fields whether it comes from
/// `cumulon run`/`trace` or a served `run`. The defaults are the wire
/// protocol's.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Generator-backed inputs, `NAME=RxC[@D][:T]` each. An input's list
    /// position + 1 seeds its generator.
    pub inputs: Vec<InputSpec>,
    /// Instance type name (default `m1.large`).
    pub instance: String,
    /// Node count (default 4).
    pub nodes: u32,
    /// Slots per node (0 = one per core).
    pub slots: u32,
    /// Real tile math instead of phantom tiles.
    pub real: bool,
    /// Scheduler worker threads for task compute, as
    /// `SchedulerConfig::threads`. Results are identical at any count.
    pub threads: usize,
    /// Run the upper half of the fleet as spot capacity under a
    /// synthetic price trace: when the market outbids us, those nodes
    /// are reclaimed in one correlated revocation (with a warning window
    /// the scheduler drains into) and the run survives via lineage
    /// recovery.
    pub spot: bool,
    /// Spot bid as a fraction of the on-demand list price (default 0.5).
    /// Needs `spot`.
    pub bid: Option<f64>,
    /// Re-provision at the end of the run: refit the cost model from the
    /// traced execution and replace revoked capacity with on-demand
    /// nodes, topping the fleet back up to `nodes`.
    pub elastic: bool,
    /// Host-memory budget in bytes for resident tile payloads (0 =
    /// unbounded). Cold tiles spill to an append-only blob store on disk
    /// and are re-admitted on read; results are bitwise-identical at any
    /// budget.
    pub memory_budget: u64,
    /// Directory for spill segment files (default: a per-process temp
    /// directory). Needs `memory_budget`.
    pub spill_dir: Option<String>,
    /// Prefetch up to this many spilled frontier tiles per wave, ahead of
    /// the demand reads (0 disables). Results, receipts and simulated
    /// time are bitwise-identical at any depth. Needs `memory_budget`.
    pub prefetch_depth: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            inputs: Vec::new(),
            instance: "m1.large".into(),
            nodes: 4,
            slots: 0,
            real: false,
            threads: 0,
            spot: false,
            bid: None,
            elastic: false,
            memory_budget: 0,
            spill_dir: None,
            prefetch_depth: 0,
        }
    }
}

impl RunSpec {
    /// Rejects a spec no run can honour, as [`CoreError::Usage`]. The CLI
    /// and the wire protocol both call this, so they reject the same
    /// specs with the same messages.
    pub fn validate(&self) -> Result<()> {
        let usage = |m: &str| Err(CoreError::Usage(m.into()));
        if self.nodes == 0 {
            return usage("nodes must be positive");
        }
        if let Some(b) = self.bid {
            if !(b > 0.0 && b.is_finite()) {
                return usage("bid must be a positive fraction of the list price");
            }
            if !self.spot {
                return usage("bid requires spot");
            }
        }
        if self.memory_budget == 0 {
            if self.spill_dir.is_some() {
                return usage("spill dir requires a memory budget");
            }
            if self.prefetch_depth != 0 {
                return usage(
                    "prefetch depth requires a memory budget (nothing spills without one)",
                );
            }
        }
        Ok(())
    }
}

/// Checks that every input the script reads has a spec, and returns the
/// planner's view of the inputs.
pub fn input_descs(
    compiled: &CompiledScript,
    inputs: &[InputSpec],
) -> Result<BTreeMap<String, InputDesc>> {
    let descs: BTreeMap<String, InputDesc> =
        inputs.iter().map(|s| (s.name.clone(), s.desc())).collect();
    match compiled.inputs.iter().find(|n| !descs.contains_key(*n)) {
        Some(missing) => Err(CoreError::Usage(format!(
            "script input '{missing}' has no input spec"
        ))),
        None => Ok(descs),
    }
}

/// Provisions the spec's cluster and registers its generated inputs.
fn provision(spec: &RunSpec) -> Result<Cluster> {
    let slots = if spec.slots == 0 {
        cumulon_cluster::instances::by_name(&spec.instance)
            .map(|i| i.cores)
            .unwrap_or(1)
    } else {
        spec.slots
    };
    // `validate` has already checked the counts, so this fails only on an
    // instance the catalog lacks: the request's fault, not the service's.
    let cluster_spec = ClusterSpec::named(&spec.instance, spec.nodes, slots)
        .map_err(|e| CoreError::Usage(e.to_string()))?;
    let cluster = Cluster::provision(cluster_spec)?;
    for (i, s) in spec.inputs.iter().enumerate() {
        cluster
            .store()
            .register_generated(&s.name, s.meta(), s.generator(i as u64 + 1))?;
    }
    Ok(cluster)
}

/// Compiles the spot position for `spec.spot`: the upper half of the
/// fleet is spot capacity on a deterministic synthetic price trace around
/// the market's typical fraction of the list price; every time the trace
/// outbids us those nodes are reclaimed together, with a warning window
/// the scheduler drains into. The trace's price steps are scaled to the
/// run's estimated makespan (an hour if the estimate fails), so crossings
/// land mid-run whatever the problem size. Returns the injected failure
/// plan and a one-line description of the position.
fn spot_plan(
    spec: &RunSpec,
    cluster: &Cluster,
    program: &Program,
    descs: &BTreeMap<String, InputDesc>,
) -> Result<(FailurePlan, String)> {
    let list = cumulon_cluster::instances::by_name(&spec.instance)
        .map(|i| i.price_per_hour)
        .ok_or_else(|| CoreError::Usage(format!("unknown instance '{}'", spec.instance)))?;
    let horizon_s = Optimizer::new(idealized_cost_model())
        .estimate_on(cluster, program, descs)
        .map(|e| e.makespan_s)
        .unwrap_or(3_600.0);
    let hazard = SpotHazard::typical();
    let spot_nodes: Vec<u32> = (spec.nodes.div_ceil(2)..spec.nodes).collect();
    let step_s = (horizon_s / 12.0).max(1e-3);
    let market = SpotMarket::synthetic(42, hazard.mean_price_fraction * list, 0.6, step_s, 48)
        .with_bid(spec.bid.unwrap_or(0.5) * list)
        .with_warning_lead(0.4 * step_s);
    let revocations = market.revocations(&spot_nodes);
    let line = format!(
        "spot   : {} node(s) bid ${:.4}/h against mean ${:.4}/h (list ${:.4}/h): \
         {} revocation event(s) on a {:.1}s-step trace",
        spot_nodes.len(),
        market.bid,
        hazard.mean_price_fraction * list,
        list,
        revocations.len(),
        step_s,
    );
    let plan = FailurePlan {
        revocations,
        ..Default::default()
    };
    Ok((plan, line))
}

/// A compiled script wrapped as a one-iteration [`Workload`], so the
/// elastic driver can trace, refit and re-provision around it. The inputs
/// are already registered, so `setup` does nothing.
struct ScriptWorkload {
    label: &'static str,
    program: Program,
    descs: BTreeMap<String, InputDesc>,
}

impl Workload for ScriptWorkload {
    fn name(&self) -> &'static str {
        self.label
    }

    fn inputs(&self, _iter: usize) -> BTreeMap<String, InputDesc> {
        self.descs.clone()
    }

    fn setup(&self, _store: &cumulon_dfs::TileStore) -> Result<()> {
        Ok(())
    }

    fn program(&self, _iter: usize) -> Program {
        self.program.clone()
    }
}

/// What [`execute`] hands back for its caller to report.
pub struct Executed {
    /// The cluster the run executed on; its store holds the outputs.
    pub cluster: Cluster,
    /// The script's inputs as the planner sees them.
    pub descs: BTreeMap<String, InputDesc>,
    /// The run's report (fingerprint source).
    pub report: RunReport,
    /// One line describing the spot position, when `spec.spot`.
    pub spot: Option<String>,
    /// The elastic driver's boundary decisions, when `spec.elastic`.
    pub decisions: Vec<ElasticDecision>,
    /// Revoked nodes an elastic run replaced with on-demand capacity.
    pub replaced: usize,
}

/// Runs `compiled` on `spec`: input check → provision → spill budget →
/// spot plan → elastic run or traced execute. `label` names the run's
/// temporary matrices; `lane` is the caller's scheduler lane (shared
/// pool, priority), whose thread count and prefetch depth `spec` sets.
/// `trace` records a non-elastic run; the elastic driver traces its own.
pub fn execute(
    spec: &RunSpec,
    compiled: &CompiledScript,
    label: &'static str,
    lane: SchedulerConfig,
    trace: &Trace,
) -> Result<Executed> {
    spec.validate()?;
    let descs = input_descs(compiled, &spec.inputs)?;
    let cluster = provision(spec)?;
    if spec.memory_budget > 0 {
        cluster
            .store()
            .set_memory_budget(&cumulon_dfs::SpillConfig {
                budget_bytes: spec.memory_budget,
                dir: spec.spill_dir.as_ref().map(std::path::PathBuf::from),
                compress: true,
            })?;
    }
    let sched = SchedulerConfig {
        threads: spec.threads,
        prefetch_depth: spec.prefetch_depth,
        ..lane
    };
    let (failures, spot) = if spec.spot {
        let (plan, line) = spot_plan(spec, &cluster, &compiled.program, &descs)?;
        (plan, Some(line))
    } else {
        (FailurePlan::default(), None)
    };
    let mode = if spec.real {
        ExecMode::Real
    } else {
        ExecMode::Simulated
    };
    let mut optimizer = Optimizer::new(idealized_cost_model());
    if !spec.elastic {
        let report = optimizer.execute_on_traced(
            &cluster,
            &compiled.program,
            &descs,
            label,
            mode,
            sched,
            &failures,
            RecoveryConfig::default(),
            trace,
        )?;
        return Ok(Executed {
            cluster,
            descs,
            report,
            spot,
            decisions: Vec::new(),
            replaced: 0,
        });
    }
    // The elastic driver traces the run itself and refits the cost model
    // from the spans; the fleet is then topped back up, replacing revoked
    // spot capacity with on-demand nodes.
    let workload = ScriptWorkload {
        label,
        program: compiled.program.clone(),
        descs: descs.clone(),
    };
    let mut run = run_elastic(
        &workload,
        &mut optimizer,
        &cluster,
        1,
        mode,
        sched,
        |_| failures.clone(),
        RecoveryConfig::default(),
        ElasticPolicy::replace_at(spec.nodes),
    )?;
    let live = cluster.live_nodes();
    let replaced = if live < spec.nodes {
        cluster.grow(spec.nodes - live).len()
    } else {
        0
    };
    let report = run
        .reports
        .pop()
        .ok_or_else(|| CoreError::Invariant("elastic run produced no report".into()))?;
    Ok(Executed {
        cluster,
        descs,
        report,
        spot,
        decisions: run.decisions,
        replaced,
    })
}

/// Result of a `plan` request: the estimate for the requested cluster.
pub struct PlanOutcome {
    /// Estimated end-to-end makespan, seconds.
    pub makespan_s: f64,
    /// Estimated cost, dollars.
    pub cost_dollars: f64,
    /// Jobs in the physical plan.
    pub jobs: usize,
}

/// Estimates the script on the request's cluster shape (fast lane).
pub fn plan(req: &Request) -> std::result::Result<PlanOutcome, RequestError> {
    let compiled = compile_source(&req.script)?;
    let descs = input_descs(&compiled, &req.run.inputs)?;
    let cluster = provision(&req.run)?;
    let optimizer = Optimizer::new(idealized_cost_model());
    let est = optimizer.estimate_on(&cluster, &compiled.program, &descs)?;
    Ok(PlanOutcome {
        makespan_s: est.makespan_s,
        cost_dollars: est.cost_dollars,
        jobs: est.jobs.len(),
    })
}

/// Result of an `optimize` request: the chosen deployment.
pub struct OptimizeOutcome {
    /// Chosen instance type name.
    pub instance: String,
    /// Chosen node count.
    pub nodes: u32,
    /// Chosen slots per node.
    pub slots: u32,
    /// Estimated makespan of the chosen plan, seconds.
    pub est_makespan_s: f64,
    /// Estimated cost of the chosen plan, dollars.
    pub est_cost_dollars: f64,
    /// One-line human summary.
    pub summary: String,
}

/// Searches deployments under the request's constraint (fast lane).
pub fn optimize(req: &Request) -> std::result::Result<OptimizeOutcome, RequestError> {
    let compiled = compile_source(&req.script)?;
    let descs = input_descs(&compiled, &req.run.inputs)?;
    let constraint = match (req.deadline_s, req.budget_dollars) {
        (Some(d), None) => Constraint::Deadline(d),
        (None, Some(b)) => Constraint::Budget(b),
        (None, None) => Constraint::Deadline(3_600.0),
        (Some(_), Some(_)) => unreachable!("rejected at parse time"),
    };
    let space = SearchSpace {
        max_nodes: req.max_nodes,
        ..Default::default()
    };
    let optimizer = Optimizer::new(idealized_cost_model());
    let plan = optimizer.optimize(&compiled.program, &descs, space, constraint)?;
    Ok(OptimizeOutcome {
        instance: plan.instance.name.to_string(),
        nodes: plan.nodes,
        slots: plan.slots,
        est_makespan_s: plan.estimate.makespan_s,
        est_cost_dollars: plan.estimate.cost_dollars,
        summary: plan.summary(),
    })
}

/// Result of a `run` request.
#[derive(Debug)]
pub struct RunOutcome {
    /// The full run report (fingerprint source).
    pub report: RunReport,
    /// Task spans the audited trace recorded (0 for an elastic run).
    pub spans: usize,
}

/// Executes the request's script end to end through [`execute`].
/// `threads` and `shared_pool` come from the service config — every
/// admitted run executes with `shared_pool` speculation at the request's
/// priority lane, and results are bitwise-identical to a private-pool or
/// single-threaded run of the same program (the determinism contract the
/// concurrency proptest pins).
pub fn run(
    req: &Request,
    threads: usize,
    shared_pool: bool,
) -> std::result::Result<RunOutcome, RequestError> {
    let compiled = compile_source(&req.script)?;
    let spec = RunSpec {
        threads,
        ..req.run.clone()
    };
    let lane = SchedulerConfig {
        shared_pool,
        lane_priority: req.priority,
        ..Default::default()
    };
    let trace = Trace::enabled();
    trace.set_request_id(&req.id);
    let report = execute(&spec, &compiled, "serve", lane, &trace)?.report;
    let spans = trace.snapshot().map_or(0, |l| l.tasks.len());
    Ok(RunOutcome { report, spans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn run_request(script: &str, inputs: &[&str]) -> Request {
        let inputs = inputs
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",");
        Request::parse(&format!(
            "{{\"schema\":\"cumulon-serve-v1\",\"id\":\"t\",\"tenant\":\"t\",\
             \"action\":\"run\",\"script\":\"{script}\",\"inputs\":[{inputs}],\
             \"instance\":\"m1.large\",\"nodes\":2,\"slots\":2}}"
        ))
        .unwrap()
    }

    #[test]
    fn run_matches_direct_pipeline_bitwise() {
        let req = run_request("G = A' * A;", &["A=40x20:10"]);
        let served = run(&req, 1, false).unwrap();
        let served_again = run(&req, 1, false).unwrap();
        assert_eq!(
            served.report.fingerprint(),
            served_again.report.fingerprint()
        );
        assert!(served.spans > 0, "trace recorded no spans");
        assert!(served.report.makespan_s > 0.0);
    }

    #[test]
    fn plan_and_optimize_fast_paths() {
        let mut req = run_request("C = A * B;", &["A=2000x2000", "B=2000x2000"]);
        let est = plan(&req).unwrap();
        assert!(est.makespan_s > 0.0 && est.cost_dollars > 0.0 && est.jobs > 0);
        req.deadline_s = Some(7_200.0);
        req.max_nodes = 8;
        let chosen = optimize(&req).unwrap();
        assert!(chosen.nodes >= 1 && chosen.nodes <= 8);
        assert!(chosen.summary.contains("est"));
    }

    #[test]
    fn missing_input_is_reported() {
        let req = run_request("C = A * B;", &["A=10x10"]);
        let err = run(&req, 1, false).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.to_string(), "script input 'B' has no input spec");
    }

    /// An instance the catalog lacks is the client's fault wherever the
    /// request's instance is used; `optimize` searches the catalog and
    /// ignores it.
    #[test]
    fn unknown_instance_is_a_bad_request() {
        let mut req = run_request("G = A' * A;", &["A=40x20:10"]);
        req.run.instance = "bogus.type".into();
        for err in [plan(&req).err().unwrap(), run(&req, 1, false).unwrap_err()] {
            assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
            assert_eq!(
                err.to_string(),
                "invalid cluster spec: unknown instance type bogus.type"
            );
        }
        req.deadline_s = Some(7_200.0);
        req.max_nodes = 8;
        assert!(optimize(&req).is_ok());
    }

    /// A script that does not parse is the client's fault on every
    /// action, and says so without calling it a planner invariant.
    #[test]
    fn parse_error_is_a_bad_request() {
        let req = run_request("G = A' *;", &["A=10x10"]);
        let errors = [
            plan(&req).err().unwrap(),
            optimize(&req).err().unwrap(),
            run(&req, 1, false).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
            assert!(matches!(err.error, CoreError::Parse(_)), "{err:?}");
            assert!(
                err.to_string().starts_with("parse error at line 1: "),
                "{err}"
            );
        }
    }
}
