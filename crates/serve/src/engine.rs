//! The service's execution engine: one function per action, mirroring
//! the `cumulon` CLI pipelines (compile → validate inputs → provision →
//! estimate/optimize/execute) so a request through the service and the
//! same program through the CLI produce identical results — the
//! `serve-isolation` invariant `cumulon check` enforces.

use std::collections::BTreeMap;

use cumulon_cluster::{
    Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig, SpotMarket, Trace,
};
use cumulon_core::error::CoreError;
use cumulon_core::expr::InputDesc;
use cumulon_core::recovery::RecoveryConfig;
use cumulon_core::{Constraint, Optimizer, Result, SearchSpace, SpotHazard};
use cumulon_lang::{compile_source, CompiledScript, InputSpec};
use cumulon_workloads::{run_elastic, ElasticPolicy, Workload};

use crate::protocol::{ErrorCode, Request};

pub use cumulon_core::calibrate::idealized_cost_model;

/// Why a `plan`, `optimize` or `run` request failed, with the wire code
/// that says whose fault it is: `bad-request` when the script does not
/// compile or names an input the request does not specify, `internal`
/// when a valid request failed later.
#[derive(Debug)]
pub struct RequestError {
    /// The code the service answers with.
    pub code: ErrorCode,
    /// What went wrong.
    pub error: CoreError,
}

impl RequestError {
    fn bad_request(error: CoreError) -> Self {
        RequestError {
            code: ErrorCode::BadRequest,
            error,
        }
    }
}

impl From<CoreError> for RequestError {
    fn from(error: CoreError) -> Self {
        RequestError {
            code: ErrorCode::Internal,
            error,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

fn compile_and_check(req: &Request) -> Result<(CompiledScript, BTreeMap<String, InputDesc>)> {
    let compiled = compile_source(&req.script)?;
    let mut map = BTreeMap::new();
    for s in &req.inputs {
        map.insert(s.name.clone(), s.desc());
    }
    for needed in &compiled.inputs {
        if !map.contains_key(needed) {
            return Err(CoreError::Invariant(format!(
                "script input '{needed}' has no inputs specification"
            )));
        }
    }
    Ok((compiled, map))
}

fn provision(inputs: &[InputSpec], instance: &str, nodes: u32, slots: u32) -> Result<Cluster> {
    let spec_slots = if slots == 0 {
        cumulon_cluster::instances::by_name(instance)
            .map(|i| i.cores)
            .unwrap_or(1)
    } else {
        slots
    };
    let cluster = Cluster::provision(
        ClusterSpec::named(instance, nodes, spec_slots).map_err(CoreError::from)?,
    )
    .map_err(CoreError::from)?;
    // Seed derivation matches the CLI (list position + 1): the same
    // request through either entry point generates the same matrices.
    for (i, s) in inputs.iter().enumerate() {
        cluster
            .store()
            .register_generated(&s.name, s.meta(), s.generator(i as u64 + 1))
            .map_err(CoreError::from)?;
    }
    Ok(cluster)
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
    let (compiled, descs) = compile_and_check(req).map_err(RequestError::bad_request)?;
    let cluster = provision(&req.inputs, &req.instance, req.nodes, req.slots)?;
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
    let (compiled, descs) = compile_and_check(req).map_err(RequestError::bad_request)?;
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

/// Compiles the spot position for a service run — same construction as
/// `cumulon run --spot`: upper half of the fleet on a deterministic
/// synthetic price trace scaled to the run's estimated horizon.
fn spot_failures(
    instance: &str,
    nodes: u32,
    bid_fraction: f64,
    horizon_s: f64,
) -> Result<FailurePlan> {
    let list = cumulon_cluster::instances::by_name(instance)
        .map(|i| i.price_per_hour)
        .ok_or_else(|| CoreError::Invariant(format!("unknown instance '{instance}'")))?;
    let hazard = SpotHazard::typical();
    let spot_nodes: Vec<u32> = (nodes.div_ceil(2)..nodes).collect();
    let step_s = (horizon_s / 12.0).max(1e-3);
    let market = SpotMarket::synthetic(42, hazard.mean_price_fraction * list, 0.6, step_s, 48)
        .with_bid(bid_fraction * list)
        .with_warning_lead(0.4 * step_s);
    Ok(FailurePlan {
        revocations: market.revocations(&spot_nodes),
        ..Default::default()
    })
}

/// A compiled script wrapped as a one-iteration workload for the elastic
/// driver (service runs with `"elastic": true`).
struct ScriptWorkload {
    program: cumulon_core::Program,
    descs: BTreeMap<String, InputDesc>,
}

impl Workload for ScriptWorkload {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn inputs(&self, _iter: usize) -> BTreeMap<String, InputDesc> {
        self.descs.clone()
    }

    fn setup(&self, _store: &cumulon_dfs::TileStore) -> Result<()> {
        Ok(())
    }

    fn program(&self, _iter: usize) -> cumulon_core::Program {
        self.program.clone()
    }
}

/// Result of a `run` request.
#[derive(Debug)]
pub struct RunOutcome {
    /// The full run report (fingerprint source).
    pub report: RunReport,
    /// Task spans the audited trace recorded.
    pub spans: usize,
}

/// Executes the request's script end to end. `threads` and `shared_pool`
/// come from the service config — every admitted run executes with
/// `shared_pool` speculation at the request's priority lane, and results
/// are bitwise-identical to a private-pool or single-threaded run of the
/// same program (the determinism contract the concurrency proptest
/// pins).
pub fn run(
    req: &Request,
    threads: usize,
    shared_pool: bool,
) -> std::result::Result<RunOutcome, RequestError> {
    let (compiled, descs) = compile_and_check(req).map_err(RequestError::bad_request)?;
    let cluster = provision(&req.inputs, &req.instance, req.nodes, req.slots)?;
    if req.memory_budget > 0 {
        let config = cumulon_dfs::SpillConfig {
            budget_bytes: req.memory_budget,
            dir: None,
            compress: true,
        };
        cluster
            .store()
            .set_memory_budget(&config)
            .map_err(CoreError::from)?;
    }
    let config = SchedulerConfig {
        threads,
        shared_pool,
        lane_priority: req.priority,
        ..Default::default()
    };
    let failures = if req.spot {
        let horizon = Optimizer::new(idealized_cost_model())
            .estimate_on(&cluster, &compiled.program, &descs)
            .map(|e| e.makespan_s)
            .unwrap_or(3_600.0);
        spot_failures(&req.instance, req.nodes, req.bid.unwrap_or(0.5), horizon)?
    } else {
        FailurePlan::default()
    };
    if req.elastic {
        // The elastic driver traces internally and tops the fleet back
        // up; request-id span tagging does not apply on this path.
        let workload = ScriptWorkload {
            program: compiled.program.clone(),
            descs: descs.clone(),
        };
        let mut optimizer = Optimizer::new(idealized_cost_model());
        let mut run = run_elastic(
            &workload,
            &mut optimizer,
            &cluster,
            1,
            ExecMode::Simulated,
            config,
            |_| failures.clone(),
            RecoveryConfig::default(),
            ElasticPolicy::replace_at(req.nodes),
        )?;
        let live = cluster.live_nodes();
        if live < req.nodes {
            cluster.grow(req.nodes - live);
        }
        let report = run
            .reports
            .pop()
            .ok_or_else(|| CoreError::Invariant("elastic run produced no report".into()))?;
        return Ok(RunOutcome { report, spans: 0 });
    }
    let optimizer = Optimizer::new(idealized_cost_model());
    let trace = Trace::enabled();
    trace.set_request_id(&req.id);
    let report = optimizer.execute_on_traced(
        &cluster,
        &compiled.program,
        &descs,
        "serve",
        ExecMode::Simulated,
        config,
        &failures,
        RecoveryConfig::default(),
        &trace,
    )?;
    let spans = trace.snapshot().map(|l| l.tasks.len()).unwrap_or(0);
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
        assert!(err.to_string().contains("'B'"), "{err}");
    }
}
