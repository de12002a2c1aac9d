//! Deployment optimization: searching instance type × cluster size × slot
//! count × plan parameters under time/budget constraints.
//!
//! For every candidate deployment the search (1) re-plans the program with
//! a cost-based split chooser tuned to that deployment, (2) estimates the
//! plan's makespan with the fitted model, and (3) prices it under the
//! space's billing policy. Three queries are offered, matching the paper's
//! use cases:
//!
//! * [`DeploymentSearch::optimize`] with [`Constraint::Deadline`] — the
//!   cheapest deployment that finishes in time;
//! * [`DeploymentSearch::optimize`] with [`Constraint::Budget`] — the
//!   fastest deployment that fits the budget;
//! * [`DeploymentSearch::pareto`] — the whole (time, cost) skyline.
//!
//! The search walks the grid row by row — one row per `(instance, slots)`,
//! node counts ascending — and plans a candidate only when admissible
//! floors on its makespan ([`DeploymentSearch::makespan_floor`]) and its
//! cost ([`DeploymentSearch::cost_floor`]) say it could still win. Under a
//! deadline it is skipped when the makespan floor exceeds the deadline or
//! the cost floor exceeds the incumbent's cost; under a budget, when the
//! cost floor exceeds the budget or the makespan floor exceeds the
//! incumbent's makespan. The makespan floor is work conservation — the
//! multiply flops no plan avoids, spread over every slot — so it shrinks
//! as the row grows and a skip is a `continue`. The row ends (`break`) at
//! the first candidate that even the shortest possible run prices out,
//! a bound that never decreases along a row. Nothing is assumed about how
//! the estimated makespan moves with the node count, and nothing is kept
//! between calls.

use std::collections::BTreeMap;

use cumulon_cluster::instances::{catalog, InstanceType};
use serde::{Deserialize, Serialize};

use crate::calibrate::{featurize, CostModel, OpCoefficients, MIN_TASK_S};
use crate::error::{CoreError, Result};
use crate::estimate::{
    add_partials_features, estimate_plan_coeffs, job_time_s, mul_features, mul_flops, mul_grid,
    ClusterView, PlanEstimate, SpotHazard, TaskFeatures,
};
use crate::expr::{ExprNode, InputDesc, NodeInfo, Program};
use crate::lower::{build_plan_inferred, PlanOptions, SplitChooser};
use crate::physical::{MulSplit, OperandStats, PhysPlan};

/// What the user is optimizing for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// Finish within this many seconds, as cheaply as possible.
    Deadline(f64),
    /// Spend at most this many dollars, as fast as possible.
    Budget(f64),
}

/// The candidate deployment grid.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Instance types to consider.
    pub instances: Vec<InstanceType>,
    /// Smallest cluster size.
    pub min_nodes: u32,
    /// Largest cluster size.
    pub max_nodes: u32,
    /// Node-count stride (1 = exhaustive).
    pub node_stride: u32,
    /// Slot-per-node options, as multiples of the core count (e.g.
    /// `[0.5, 1.0, 2.0]`). Deduplicated per instance after rounding.
    pub slots_per_core: Vec<f64>,
    /// DFS replication factor of the deployments.
    pub replication: u32,
    /// Billing policy to price candidates under.
    pub billing: cumulon_cluster::billing::BillingPolicy,
    /// Expected failure behaviour of the rented hardware. When set, every
    /// candidate is priced at its *expected* makespan under failures
    /// (task-retry inflation + lineage-recovery rework), so "cheapest
    /// under a deadline" means cheapest *at this failure rate* — bigger,
    /// briefer clusters win more often as the rate rises.
    pub failure: Option<crate::estimate::FailureModel>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            instances: catalog().to_vec(),
            min_nodes: 1,
            max_nodes: 64,
            node_stride: 1,
            slots_per_core: vec![0.5, 1.0, 2.0],
            replication: 3,
            billing: cumulon_cluster::billing::BillingPolicy::HourlyCeil,
            failure: None,
        }
    }
}

impl SearchSpace {
    /// A small space for tests: few types, few sizes.
    pub fn quick() -> Self {
        SearchSpace {
            instances: ["m1.large", "c1.xlarge"]
                .iter()
                .filter_map(|n| cumulon_cluster::instances::by_name(n))
                .collect(),
            min_nodes: 1,
            max_nodes: 16,
            node_stride: 1,
            slots_per_core: vec![1.0],
            replication: 3,
            billing: cumulon_cluster::billing::BillingPolicy::HourlyCeil,
            failure: None,
        }
    }

    /// Slot-count candidates for one instance type: `slots_per_core`
    /// multiples rounded to whole slots, deduplicated.
    pub fn slot_options(&self, instance: &InstanceType) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .slots_per_core
            .iter()
            .map(|&f| ((instance.cores as f64 * f).round() as u32).max(1))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Node-count candidates: `min_nodes`, stepping by `node_stride`, plus
    /// `max_nodes` itself. The largest cluster is always a candidate even
    /// when the stride does not divide the range — otherwise a tight
    /// deadline only the full-size cluster can meet is declared
    /// infeasible.
    pub fn node_options(&self) -> Vec<u32> {
        let mut v: Vec<u32> = (self.min_nodes..=self.max_nodes)
            .step_by(self.node_stride.max(1) as usize)
            .collect();
        if v.last() != Some(&self.max_nodes) && self.max_nodes >= self.min_nodes {
            v.push(self.max_nodes);
        }
        v
    }
}

/// A fully evaluated deployment choice.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Chosen instance type.
    pub instance: InstanceType,
    /// Chosen cluster size.
    pub nodes: u32,
    /// Chosen slots per node.
    pub slots: u32,
    /// Replication factor assumed.
    pub replication: u32,
    /// The physical plan tuned to this deployment.
    pub plan: PhysPlan,
    /// The estimate that ranked it.
    pub estimate: PlanEstimate,
}

impl DeploymentPlan {
    fn new(view: ClusterView, plan: PhysPlan, estimate: PlanEstimate) -> Self {
        DeploymentPlan {
            instance: view.instance,
            nodes: view.nodes,
            slots: view.slots,
            replication: view.replication,
            plan,
            estimate,
        }
    }

    /// The cluster view of this deployment.
    pub fn view(&self) -> ClusterView {
        ClusterView {
            instance: self.instance,
            nodes: self.nodes,
            slots: self.slots,
            replication: self.replication,
        }
    }

    /// One-line description.
    pub fn summary(&self) -> String {
        format!(
            "{} x{} ({} slots): est {:.0}s, ${:.2}",
            self.instance.name,
            self.nodes,
            self.slots,
            self.estimate.makespan_s,
            self.estimate.cost_dollars
        )
    }
}

/// The deployment optimizer.
pub struct DeploymentSearch<'a> {
    model: &'a CostModel,
    space: SearchSpace,
}

impl<'a> DeploymentSearch<'a> {
    /// Creates a search over a space with a fitted model.
    pub fn new(model: &'a CostModel, space: SearchSpace) -> Self {
        DeploymentSearch { model, space }
    }

    /// Plans + estimates the program on one deployment, from what a grid
    /// walk resolves once: the program's node information and the
    /// instance's coefficients.
    fn evaluate_inferred(
        &self,
        program: &Program,
        info: &[NodeInfo],
        coeffs: &OpCoefficients,
        view: ClusterView,
    ) -> Result<(PhysPlan, PlanEstimate)> {
        let chooser = CostBasedChooser {
            coeffs: *coeffs,
            view,
        };
        let plan = build_plan_inferred(program, info, &chooser, "t", PlanOptions::default())?;
        let estimate = estimate_plan_coeffs(
            &plan,
            &view,
            coeffs,
            self.space.billing,
            self.space.failure.as_ref(),
        );
        Ok((plan, estimate))
    }

    fn view(&self, instance: InstanceType, nodes: u32, slots: u32) -> ClusterView {
        ClusterView {
            instance,
            nodes,
            slots,
            replication: self.space.replication,
        }
    }

    /// Evaluates the full grid (used by the experiment harness).
    pub fn sweep(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
    ) -> Result<Vec<DeploymentPlan>> {
        let info = program.infer(inputs)?;
        let node_options = self.space.node_options();
        let mut out = Vec::new();
        for instance in &self.space.instances {
            let coeffs = self.model.require(instance.name)?;
            for slots in self.space.slot_options(instance) {
                for &nodes in &node_options {
                    let view = self.view(*instance, nodes, slots);
                    let (plan, estimate) = self.evaluate_inferred(program, &info, coeffs, view)?;
                    out.push(DeploymentPlan::new(view, plan, estimate));
                }
            }
        }
        Ok(out)
    }

    /// Finds the best deployment under a constraint.
    pub fn optimize(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        constraint: Constraint,
    ) -> Result<DeploymentPlan> {
        self.optimize_repeated(program, inputs, constraint, 1)
    }

    /// A lower bound on the estimated makespan of `repeat` back-to-back
    /// executions of `program` on `view`, without planning anything: the
    /// floor [`DeploymentSearch::optimize_repeated`] skips candidates by.
    ///
    /// Per execution it is the larger of two bounds, times `repeat`:
    ///
    /// * [`MIN_TASK_S`], whenever the program has an output: every output
    ///   lowers to at least one job, a topological level lasts at least its
    ///   slowest job's mean task time, and no task is predicted below
    ///   [`MIN_TASK_S`]. A program without outputs plans nothing and takes
    ///   no time.
    /// * Work conservation, `c₁ · cpu_adj · flops / (nodes · slots)`, where
    ///   `flops` sums `mul_flops` over the multiplies reachable from the
    ///   outputs, each once: lowering emits exactly one multiply job per
    ///   such node, whose tasks are charged at least these flops under any
    ///   split. The wave model gives a level at least `Σ mean · n / slots`,
    ///   and a task's prediction is at least its compute term `c₁ · flops ·
    ///   cpu_adj` — but only when no coefficient and no `σ` is negative, so
    ///   for any other model this bound is 0.
    ///
    /// Expected failures and repetition multiply the makespan by factors of
    /// at least one. The work bound is shrunk by a relative `1e-12`, since
    /// the estimate reaches the same sum through per-task products and
    /// per-job and per-level sums, rounding in a different order.
    pub fn makespan_floor(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        view: &ClusterView,
        repeat: usize,
    ) -> Result<f64> {
        let floor = WorkFloor::new(program, &program.infer(inputs)?, repeat);
        let coeffs = self.model.require(view.instance.name)?;
        Ok(floor.makespan(floor.row_work(coeffs, &view.instance, view.slots), view))
    }

    /// A lower bound on what `view` is billed for a run whose estimated
    /// makespan is at least `makespan_floor` seconds: the cluster's price
    /// for that long. It is admissible under every [`BillingPolicy`]
    /// because billed hours never decrease with the makespan.
    ///
    /// At the shortest run any program with an output can take (see
    /// [`DeploymentSearch::makespan_floor`]) this is `nodes × price` under
    /// `HourlyCeil` — non-decreasing along a row, so it ends a deadline
    /// search's row — and a few nano-dollars under `PerSecond`. At a
    /// work-conservation floor it prunes under both policies, but under
    /// `HourlyCeil` it can fall as the row grows (`nodes · ⌈work / nodes⌉`
    /// hours), so it only ever skips the one candidate.
    ///
    /// [`BillingPolicy`]: cumulon_cluster::billing::BillingPolicy
    pub fn cost_floor(&self, view: &ClusterView, makespan_floor: f64) -> f64 {
        cumulon_cluster::billing::cluster_cost(
            self.space.billing,
            view.nodes,
            view.instance.price_per_hour,
            makespan_floor,
        )
    }

    /// Finds the best deployment for `repeat` back-to-back executions of
    /// the program — the iterative-workload case, where one cluster is
    /// rented for the whole loop and the deadline/budget covers all
    /// iterations. The returned estimate reflects the *total* loop.
    pub fn optimize_repeated(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        constraint: Constraint,
        repeat: usize,
    ) -> Result<DeploymentPlan> {
        let info = program.infer(inputs)?;
        let floor = WorkFloor::new(program, &info, repeat);
        let node_options = self.space.node_options();
        let mut best: Option<DeploymentPlan> = None;
        for instance in &self.space.instances {
            let coeffs = self.model.require(instance.name)?;
            for slots in self.space.slot_options(instance) {
                let row_work = floor.row_work(coeffs, instance, slots);
                for &nodes in &node_options {
                    let view = self.view(*instance, nodes, slots);
                    let (best_cost, best_makespan) =
                        best.as_ref().map_or((f64::INFINITY, f64::INFINITY), |b| {
                            (b.estimate.cost_dollars, b.estimate.makespan_s)
                        });
                    // A candidate that even the shortest run prices out
                    // ends the row: that price is `nodes × price × billed
                    // hours of a constant`, non-decreasing along the
                    // ascending `node_options`.
                    let acceptable = match constraint {
                        Constraint::Deadline(_) => best_cost,
                        Constraint::Budget(b) => b,
                    };
                    if self.cost_floor(&view, floor.min_makespan()) > acceptable {
                        break;
                    }
                    // A candidate that can neither meet the constraint nor
                    // beat the incumbent is not worth planning. Strictly:
                    // one that could tie the incumbent's figure still
                    // reaches `pick_better`, which may prefer it on the
                    // other one.
                    let makespan_floor = floor.makespan(row_work, &view);
                    let cost_floor = self.cost_floor(&view, makespan_floor);
                    let hopeless = match constraint {
                        Constraint::Deadline(d) => makespan_floor > d || cost_floor > best_cost,
                        Constraint::Budget(b) => cost_floor > b || makespan_floor > best_makespan,
                    };
                    if hopeless {
                        continue;
                    }
                    let (plan, estimate) = self.evaluate_inferred(program, &info, coeffs, view)?;
                    let estimate = self.scale_estimate(estimate, repeat, &view);
                    let feasible = match constraint {
                        Constraint::Deadline(d) => estimate.makespan_s <= d,
                        Constraint::Budget(b) => estimate.cost_dollars <= b,
                    };
                    if feasible {
                        let candidate = DeploymentPlan::new(view, plan, estimate);
                        best = Some(match best.take() {
                            None => candidate,
                            Some(prev) => pick_better(prev, candidate, constraint),
                        });
                    }
                }
            }
        }
        best.ok_or_else(|| {
            CoreError::Infeasible(format!(
                "no deployment in the space satisfies {constraint:?}"
            ))
        })
    }

    /// The (time, cost) Pareto skyline, sorted by ascending time.
    pub fn pareto(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
    ) -> Result<Vec<DeploymentPlan>> {
        let mut all = self.sweep(program, inputs)?;
        all.sort_by(|a, b| {
            a.estimate
                .makespan_s
                .partial_cmp(&b.estimate.makespan_s)
                .expect("no NaN")
                .then(
                    a.estimate
                        .cost_dollars
                        .partial_cmp(&b.estimate.cost_dollars)
                        .expect("no NaN"),
                )
        });
        let mut skyline: Vec<DeploymentPlan> = Vec::new();
        let mut best_cost = f64::INFINITY;
        for d in all {
            if d.estimate.cost_dollars < best_cost - 1e-9 {
                best_cost = d.estimate.cost_dollars;
                skyline.push(d);
            }
        }
        Ok(skyline)
    }
}

impl<'a> DeploymentSearch<'a> {
    /// Rescales a single-execution estimate to `repeat` back-to-back runs
    /// (time multiplies; cost is re-billed over the total duration).
    fn scale_estimate(&self, est: PlanEstimate, repeat: usize, view: &ClusterView) -> PlanEstimate {
        if repeat <= 1 {
            return est;
        }
        let makespan = est.makespan_s * repeat as f64;
        let cost = cumulon_cluster::billing::cluster_cost(
            self.space.billing,
            view.nodes,
            view.instance.price_per_hour,
            makespan,
        );
        PlanEstimate {
            jobs: est.jobs,
            makespan_s: makespan,
            cost_dollars: cost,
        }
    }
}

fn pick_better(a: DeploymentPlan, b: DeploymentPlan, constraint: Constraint) -> DeploymentPlan {
    let better = match constraint {
        Constraint::Deadline(_) => {
            (b.estimate.cost_dollars, b.estimate.makespan_s)
                < (a.estimate.cost_dollars, a.estimate.makespan_s)
        }
        Constraint::Budget(_) => {
            (b.estimate.makespan_s, b.estimate.cost_dollars)
                < (a.estimate.makespan_s, a.estimate.cost_dollars)
        }
    };
    if better {
        b
    } else {
        a
    }
}

/// Relative margin a work-conservation floor is shrunk by. The estimate
/// reaches the same sum rounding in another order; each rounding moves it
/// by at most half an ulp (1.1e-16), and crossing this margin would take
/// thousands of them.
const FLOOR_SLACK: f64 = 1e-12;

/// What one search knows of every plan of a program before planning any
/// (see [`DeploymentSearch::makespan_floor`]).
struct WorkFloor {
    /// Shortest possible execution: [`MIN_TASK_S`], or 0 without outputs.
    min_run_s: f64,
    /// Multiply flops of the live `Mul` nodes, each counted once.
    mul_flops: f64,
    /// Back-to-back executions, at least one.
    repeat: f64,
}

impl WorkFloor {
    fn new(program: &Program, info: &[NodeInfo], repeat: usize) -> Self {
        let mul_flops = program
            .live_nodes()
            .into_iter()
            .filter_map(|id| match program.nodes[id] {
                ExprNode::Mul(a, b) => Some(mul_flops(
                    &OperandStats::from(&info[a]),
                    &OperandStats::from(&info[b]),
                )),
                _ => None,
            })
            .sum();
        WorkFloor {
            min_run_s: if program.outputs.is_empty() {
                0.0
            } else {
                MIN_TASK_S
            },
            mul_flops,
            repeat: repeat.max(1) as f64,
        }
    }

    /// Task-seconds of compute every plan puts on an `(instance, slots)`
    /// row: `c₁ · flops · cpu_adj`, or 0 for a model with a negative
    /// coefficient or `σ`, under which a prediction can fall below it.
    fn row_work(&self, coeffs: &OpCoefficients, instance: &InstanceType, slots: u32) -> f64 {
        if !(coeffs.c.iter().all(|&c| c >= 0.0) && coeffs.sigma >= 0.0) {
            return 0.0;
        }
        let compute = TaskFeatures {
            flops: self.mul_flops,
            ..Default::default()
        };
        coeffs.c[1] * featurize(instance, slots, &compute)[1]
    }

    /// The makespan floor of a candidate of the row `row_work` was taken on.
    fn makespan(&self, row_work: f64, view: &ClusterView) -> f64 {
        let spread = row_work / view.total_slots() as f64 * (1.0 - FLOOR_SLACK);
        spread.max(self.min_run_s) * self.repeat
    }

    /// The makespan floor of a candidate on any row.
    fn min_makespan(&self) -> f64 {
        self.min_run_s * self.repeat
    }
}

/// How a deployment's capacity is purchased.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Procurement {
    /// Reliable on-demand capacity at list price.
    OnDemand,
    /// Spot capacity bid at this fraction of the on-demand price. The
    /// cluster pays the (lower) market price while it runs but is bulk-
    /// revoked whenever the market exceeds the bid.
    Spot {
        /// Bid as a fraction of the on-demand price.
        bid_fraction: f64,
    },
}

impl Procurement {
    /// One-word label for reports.
    pub fn label(&self) -> String {
        match self {
            Procurement::OnDemand => "on-demand".into(),
            Procurement::Spot { bid_fraction } => format!("spot(bid {bid_fraction:.2})"),
        }
    }
}

/// The procurement half of the spot search space: candidate bids and
/// checkpoint intervals, plus the market model that prices their risk.
#[derive(Debug, Clone)]
pub struct SpotSearchSpace {
    /// The revocation hazard / price model of the spot market.
    pub hazard: SpotHazard,
    /// Candidate bids, as fractions of the on-demand price.
    pub bid_fractions: Vec<f64>,
    /// Candidate checkpoint intervals in seconds (`0` = no checkpoints).
    pub checkpoint_intervals_s: Vec<f64>,
    /// Wall-clock cost of writing one checkpoint.
    pub checkpoint_write_s: f64,
}

impl Default for SpotSearchSpace {
    fn default() -> Self {
        SpotSearchSpace {
            hazard: SpotHazard::typical(),
            bid_fractions: vec![0.4, 0.5, 0.7, 0.9],
            checkpoint_intervals_s: vec![0.0, 300.0, 900.0, 1800.0],
            checkpoint_write_s: 15.0,
        }
    }
}

/// One evaluated procurement option for a fixed hardware deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotChoice {
    /// How the capacity is purchased.
    pub procurement: Procurement,
    /// Checkpoint interval in seconds (`0` = none). Always `0` for
    /// on-demand, where nothing revokes mid-run.
    pub checkpoint_interval_s: f64,
    /// Expected makespan including checkpoint writes and revocation
    /// rework.
    pub expected_makespan_s: f64,
    /// Expected dollar cost at the price actually paid (market price for
    /// spot, list price for on-demand), billed over the expected makespan.
    pub expected_cost_dollars: f64,
    /// Expected seconds of redone work (half an exposure window plus
    /// restart overhead per expected revocation).
    pub expected_rework_s: f64,
}

impl SpotChoice {
    /// One-line description.
    pub fn summary(&self) -> String {
        format!(
            "{} ckpt {:.0}s: est {:.0}s (rework {:.0}s), ${:.2}",
            self.procurement.label(),
            self.checkpoint_interval_s,
            self.expected_makespan_s,
            self.expected_rework_s,
            self.expected_cost_dollars
        )
    }
}

impl<'a> DeploymentSearch<'a> {
    /// Prices every procurement option — on-demand, and each
    /// `(bid, checkpoint interval)` pair — for a fixed deployment whose
    /// failure-free makespan is `fail_free_s`. Returned in evaluation
    /// order (on-demand first), *not* sorted; callers curve-plot or
    /// `min_by` as needed.
    pub fn spot_curve(
        &self,
        deployment: &DeploymentPlan,
        spot: &SpotSearchSpace,
    ) -> Vec<SpotChoice> {
        let fail_free_s = deployment.estimate.makespan_s;
        let nodes = deployment.nodes;
        let list = deployment.instance.price_per_hour;
        let mut out = Vec::new();
        out.push(SpotChoice {
            procurement: Procurement::OnDemand,
            checkpoint_interval_s: 0.0,
            expected_makespan_s: fail_free_s,
            expected_cost_dollars: cumulon_cluster::billing::cluster_cost(
                self.space.billing,
                nodes,
                list,
                fail_free_s,
            ),
            expected_rework_s: 0.0,
        });
        // While running, spot pays the market price, not the bid; the bid
        // only buys survival. Clamp so a below-market bid cannot price
        // under what the market charges.
        let paid = list * spot.hazard.mean_price_fraction.min(1.0);
        for &bid in &spot.bid_fractions {
            for &interval in &spot.checkpoint_intervals_s {
                let (makespan, rework) = spot.hazard.expected_spot_makespan(
                    fail_free_s,
                    bid,
                    interval,
                    spot.checkpoint_write_s,
                );
                out.push(SpotChoice {
                    procurement: Procurement::Spot { bid_fraction: bid },
                    checkpoint_interval_s: interval,
                    expected_makespan_s: makespan,
                    expected_cost_dollars: cumulon_cluster::billing::cluster_cost(
                        self.space.billing,
                        nodes,
                        paid,
                        makespan,
                    ),
                    expected_rework_s: rework,
                });
            }
        }
        out
    }

    /// Finds the cheapest expected-cost procurement meeting `deadline_s`:
    /// first picks the hardware with [`DeploymentSearch::optimize`] under
    /// the deadline, then searches {on-demand} ∪ {spot(bid) × checkpoint
    /// interval} on that hardware, pricing each spot option's revocation
    /// rework with `spot.hazard`. Options whose *expected* makespan blows
    /// the deadline are infeasible. Ties break toward the shorter expected
    /// makespan.
    pub fn optimize_spot(
        &self,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        deadline_s: f64,
        spot: &SpotSearchSpace,
    ) -> Result<(DeploymentPlan, SpotChoice)> {
        let deployment = self.optimize(program, inputs, Constraint::Deadline(deadline_s))?;
        let best = self
            .spot_curve(&deployment, spot)
            .into_iter()
            .filter(|c| c.expected_makespan_s <= deadline_s)
            .min_by(|a, b| {
                (a.expected_cost_dollars, a.expected_makespan_s)
                    .partial_cmp(&(b.expected_cost_dollars, b.expected_makespan_s))
                    .expect("no NaN")
            })
            .ok_or_else(|| {
                CoreError::Infeasible(format!(
                    "no procurement meets the {deadline_s}s deadline in expectation"
                ))
            })?;
        Ok((deployment, best))
    }
}

/// Cost-based physical parameter chooser for one deployment.
pub struct CostBasedChooser {
    /// The instance's fitted coefficients.
    pub coeffs: OpCoefficients,
    /// The deployment.
    pub view: ClusterView,
}

impl CostBasedChooser {
    /// Estimated completion time of a candidate multiply (including the
    /// follow-up Add job when the shared dimension is split), costed from
    /// the operand statistics with the formulas
    /// [`job_features`](crate::estimate::job_features) applies to the jobs
    /// the split would lower to.
    pub fn mul_candidate_time(
        &self,
        a: &OperandStats,
        b: &OperandStats,
        out: &OperandStats,
        split: MulSplit,
    ) -> f64 {
        let mut total = self.job_time(mul_features(a, b, out, split, &self.view));
        let bands = split.k_bands(a.meta.grid().tile_cols);
        if bands > 1 {
            let tiles_per_task = self.tiles_per_task(out);
            total += self.job_time(add_partials_features(
                bands,
                out,
                tiles_per_task,
                &self.view,
            ));
        }
        total
    }

    /// Wave-model completion time of a job of `n_tasks` tasks with the
    /// given per-task features on this deployment.
    fn job_time(&self, (n_tasks, features): (usize, TaskFeatures)) -> f64 {
        let mean = self
            .coeffs
            .predict(&self.view.instance, self.view.slots, &features);
        job_time_s(mean, n_tasks, self.view.total_slots(), self.coeffs.sigma)
    }
}

/// Geometric candidate values `1, 2, 4, …` below `max`, then `max` itself.
fn split_candidates(max: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |x| x.checked_mul(2))
        .take_while(move |&x| x < max)
        .chain(std::iter::once(max.max(1)))
}

impl SplitChooser for CostBasedChooser {
    fn choose_mul(&self, a: &OperandStats, b: &OperandStats, out: &OperandStats) -> MulSplit {
        let (mt, kt, nt) = mul_grid(a, b);
        let mut best = MulSplit {
            ri: 1,
            rj: 1,
            rk: kt.max(1),
        };
        let mut best_time = f64::INFINITY;
        for ri in split_candidates(mt) {
            for rj in split_candidates(nt) {
                for rk in split_candidates(kt) {
                    let split = MulSplit { ri, rj, rk };
                    let t = self.mul_candidate_time(a, b, out, split);
                    if t < best_time {
                        best_time = t;
                        best = split;
                    }
                }
            }
        }
        best
    }

    fn tiles_per_task(&self, out: &OperandStats) -> usize {
        // Aim for ~2 waves of tasks, memory permitting.
        let tiles = out.meta.tile_count();
        let target_tasks = (self.view.total_slots() as usize * 2).max(1);
        let mut per_task = tiles.div_ceil(target_tasks).max(1);
        // Cap resident bytes at half a slot's share of node memory.
        let tile_mb = crate::estimate::tile_mb(out);
        let budget_mb = self.view.instance.memory_mb as f64 / self.view.slots.max(1) as f64 / 2.0;
        // Each output tile implies roughly (inputs + output) resident
        // copies; 3 is a serviceable proxy.
        let max_by_mem = (budget_mb / (3.0 * tile_mb).max(1e-9)).floor().max(1.0) as usize;
        per_task = per_task.min(max_by_mem);
        per_task
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ProgramBuilder;
    use cumulon_cluster::instances::by_name;
    use cumulon_matrix::MatrixMeta;

    fn model() -> CostModel {
        crate::calibrate::idealized_cost_model()
    }

    fn big_multiply() -> (Program, BTreeMap<String, InputDesc>) {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let x = b.input("X");
        let m = b.mul(a, x);
        b.output("C", m);
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "A".into(),
            InputDesc::dense(MatrixMeta::new(20_000, 20_000, 1000)),
        );
        inputs.insert(
            "X".into(),
            InputDesc::dense(MatrixMeta::new(20_000, 20_000, 1000)),
        );
        (b.build(), inputs)
    }

    #[test]
    fn chooser_prefers_banded_splits_for_big_multiplies() {
        let m = model();
        let view = ClusterView {
            instance: by_name("c1.xlarge").unwrap(),
            nodes: 20,
            slots: 8,
            replication: 3,
        };
        let chooser = CostBasedChooser {
            coeffs: *m.for_instance("c1.xlarge").unwrap(),
            view,
        };
        let meta = MatrixMeta::new(20_000, 20_000, 1000);
        let s = OperandStats {
            meta,
            density: 1.0,
            generated: false,
        };
        let split = chooser.choose_mul(&s, &s, &s);
        // 20×20 output tiles, 160 slots: the unit split (400 tasks × full k)
        // is plausible but the chooser must at least beat the worst cases.
        let t_best = chooser.mul_candidate_time(&s, &s, &s, split);
        let t_unit = chooser.mul_candidate_time(
            &s,
            &s,
            &s,
            MulSplit {
                ri: 1,
                rj: 1,
                rk: 20,
            },
        );
        let t_tiny = chooser.mul_candidate_time(&s, &s, &s, MulSplit::unit());
        let t_huge = chooser.mul_candidate_time(
            &s,
            &s,
            &s,
            MulSplit {
                ri: 20,
                rj: 20,
                rk: 20,
            },
        );
        assert!(t_best <= t_unit && t_best <= t_tiny && t_best <= t_huge);
    }

    #[test]
    fn node_options_include_max_nodes_with_non_dividing_stride() {
        // Stride 4 from 1 lands on 1, 5, 9, 13 — skipping 16, which must
        // still appear as the final candidate.
        let space = SearchSpace {
            min_nodes: 1,
            max_nodes: 16,
            node_stride: 4,
            ..SearchSpace::quick()
        };
        assert_eq!(space.node_options(), vec![1, 5, 9, 13, 16]);
        // A dividing stride must not duplicate the endpoint.
        let space = SearchSpace {
            min_nodes: 2,
            max_nodes: 8,
            node_stride: 2,
            ..SearchSpace::quick()
        };
        assert_eq!(space.node_options(), vec![2, 4, 6, 8]);
        // Degenerate single-point range.
        let space = SearchSpace {
            min_nodes: 5,
            max_nodes: 5,
            node_stride: 7,
            ..SearchSpace::quick()
        };
        assert_eq!(space.node_options(), vec![5]);
    }

    #[test]
    fn tight_deadline_reachable_only_at_max_nodes_is_found() {
        // With a stride that skips 16, the pre-fix search never evaluated
        // the largest cluster; a deadline only it can meet was declared
        // infeasible.
        let m = model();
        // Saturated workload: thousands of tasks per wave, so estimated
        // makespan strictly improves all the way up to the largest cluster.
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let x = b.input("X");
        let c = b.mul(a, x);
        b.output("C", c);
        let program = b.build();
        let mut inputs = BTreeMap::new();
        for name in ["A", "X"] {
            inputs.insert(
                name.to_string(),
                InputDesc::dense(MatrixMeta::new(60_000, 60_000, 1000)),
            );
        }
        let strided = SearchSpace {
            node_stride: 4,
            ..SearchSpace::quick()
        };
        let node_options = strided.node_options();
        assert_eq!(*node_options.last().unwrap(), 16);
        let search = DeploymentSearch::new(&m, strided);
        // Derive a deadline only the 16-node candidates can meet: strictly
        // between the best 16-node makespan and the best makespan at any
        // other stride point (wave quantization can make neighbours tie,
        // so the midpoint is computed from the actual estimates).
        let exhaustive = DeploymentSearch::new(&m, SearchSpace::quick());
        let sweep = exhaustive.sweep(&program, &inputs).unwrap();
        let best = |keep: &dyn Fn(u32) -> bool| {
            sweep
                .iter()
                .filter(|d| keep(d.nodes))
                .map(|d| d.estimate.makespan_s)
                .fold(f64::INFINITY, f64::min)
        };
        let best_max = best(&|n| n == 16);
        let best_rest = best(&|n| n != 16 && node_options.contains(&n));
        assert!(
            best_max < best_rest,
            "workload must discriminate the 16-node candidates: {best_max} vs {best_rest}"
        );
        let deadline = 0.5 * (best_max + best_rest);
        let plan = search
            .optimize(&program, &inputs, Constraint::Deadline(deadline))
            .expect("max_nodes candidate must be evaluated under a strided search");
        assert_eq!(plan.nodes, 16);
    }

    /// The cheapest feasible row of an exhaustive sweep, ties to the
    /// faster, then to the earlier row — what a deadline search must return.
    fn cheapest_in_time(sweep: &[DeploymentPlan], deadline_s: f64) -> &DeploymentPlan {
        sweep
            .iter()
            .filter(|d| d.estimate.makespan_s <= deadline_s)
            .reduce(|best, d| {
                let key = |d: &DeploymentPlan| (d.estimate.cost_dollars, d.estimate.makespan_s);
                if key(d) < key(best) {
                    d
                } else {
                    best
                }
            })
            .expect("a feasible row")
    }

    #[test]
    fn deadline_winner_is_the_sweep_argmin_under_both_billing_policies() {
        // 60 000² multiply due in an hour. Billed by the second, sixty
        // c1.medium finishing in 2 239 s ($5.41) undercut thirty-eight
        // taking the whole hour ($5.50): cost does not rise with the node
        // count there, and a search that stops a row at its first
        // sub-hour candidate returns the dominated x38.
        use cumulon_cluster::billing::BillingPolicy;
        let m = model();
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let x = b.input("X");
        let c = b.mul(a, x);
        b.output("C", c);
        let program = b.build();
        let inputs: BTreeMap<String, InputDesc> = ["A", "X"]
            .into_iter()
            .map(|n| {
                let meta = MatrixMeta::new(60_000, 60_000, 1000);
                (n.to_string(), InputDesc::dense(meta))
            })
            .collect();
        for billing in [BillingPolicy::HourlyCeil, BillingPolicy::PerSecond] {
            let space = SearchSpace {
                instances: vec![by_name("c1.medium").unwrap(), by_name("c1.xlarge").unwrap()],
                slots_per_core: vec![1.0],
                billing,
                ..Default::default()
            };
            let search = DeploymentSearch::new(&m, space);
            let sweep = search.sweep(&program, &inputs).unwrap();
            let expect = cheapest_in_time(&sweep, 3600.0);
            let got = search
                .optimize(&program, &inputs, Constraint::Deadline(3600.0))
                .unwrap();
            assert_eq!(
                (got.instance.name, got.nodes, got.slots),
                (expect.instance.name, expect.nodes, expect.slots),
                "{billing:?}: {} vs sweep's {}",
                got.summary(),
                expect.summary()
            );
            assert_eq!(got.estimate, expect.estimate, "{billing:?}");
        }
    }

    #[test]
    fn split_candidates_geometric() {
        let candidates = |max| split_candidates(max).collect::<Vec<_>>();
        assert_eq!(candidates(0), vec![1]);
        assert_eq!(candidates(1), vec![1]);
        assert_eq!(candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(candidates(10), vec![1, 2, 4, 8, 10]);
    }

    #[test]
    fn deadline_constrained_optimization() {
        let m = model();
        let (program, inputs) = big_multiply();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let relaxed = search
            .optimize(&program, &inputs, Constraint::Deadline(100_000.0))
            .unwrap();
        let tight = search
            .optimize(&program, &inputs, Constraint::Deadline(4_000.0))
            .unwrap();
        assert!(
            relaxed.estimate.cost_dollars <= tight.estimate.cost_dollars + 1e-9,
            "looser deadline can only be cheaper: {} vs {}",
            relaxed.summary(),
            tight.summary()
        );
        assert!(tight.estimate.makespan_s <= 4_000.0);
    }

    #[test]
    fn failure_rate_inflates_every_candidate() {
        let m = model();
        let (program, inputs) = big_multiply();
        let reliable = DeploymentSearch::new(&m, SearchSpace::quick());
        let flaky = DeploymentSearch::new(
            &m,
            SearchSpace {
                failure: Some(crate::estimate::FailureModel {
                    node_mtbf_s: 200_000.0,
                    task_failure_prob: 0.05,
                }),
                ..SearchSpace::quick()
            },
        );
        let base = reliable.sweep(&program, &inputs).unwrap();
        let under = flaky.sweep(&program, &inputs).unwrap();
        assert_eq!(base.len(), under.len());
        for (b, u) in base.iter().zip(&under) {
            assert_eq!(
                (b.nodes, b.slots, b.instance.name),
                (u.nodes, u.slots, u.instance.name)
            );
            assert!(
                u.estimate.makespan_s > b.estimate.makespan_s,
                "expected failures must lengthen {}",
                b.summary()
            );
        }
        // "Cheapest under a deadline at this failure rate" still holds the
        // deadline against the inflated estimate.
        let plan = flaky
            .optimize(&program, &inputs, Constraint::Deadline(8_000.0))
            .unwrap();
        assert!(plan.estimate.makespan_s <= 8_000.0);
        // At the same deadline the reliable cluster can only be cheaper.
        let plan_reliable = reliable
            .optimize(&program, &inputs, Constraint::Deadline(8_000.0))
            .unwrap();
        assert!(plan_reliable.estimate.cost_dollars <= plan.estimate.cost_dollars + 1e-9);
    }

    #[test]
    fn infeasible_deadline_errors() {
        let m = model();
        let (program, inputs) = big_multiply();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        assert!(matches!(
            search.optimize(&program, &inputs, Constraint::Deadline(1.0)),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn budget_constrained_optimization() {
        let m = model();
        let (program, inputs) = big_multiply();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let rich = search
            .optimize(&program, &inputs, Constraint::Budget(200.0))
            .unwrap();
        let poor = search
            .optimize(&program, &inputs, Constraint::Budget(3.0))
            .unwrap();
        assert!(rich.estimate.makespan_s <= poor.estimate.makespan_s + 1e-9);
        assert!(poor.estimate.cost_dollars <= 3.0);
    }

    #[test]
    fn pareto_skyline_is_monotone() {
        let m = model();
        let (program, inputs) = big_multiply();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let skyline = search.pareto(&program, &inputs).unwrap();
        assert!(!skyline.is_empty());
        for w in skyline.windows(2) {
            assert!(w[0].estimate.makespan_s <= w[1].estimate.makespan_s);
            assert!(w[0].estimate.cost_dollars > w[1].estimate.cost_dollars);
        }
    }

    #[test]
    fn more_nodes_never_slower_in_estimate() {
        let m = model();
        let (program, inputs) = big_multiply();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let info = program.infer(&inputs).unwrap();
        let coeffs = m.require("c1.xlarge").unwrap();
        let mut last = f64::INFINITY;
        for nodes in [2u32, 4, 8, 16] {
            let view = ClusterView {
                instance: by_name("c1.xlarge").unwrap(),
                nodes,
                slots: 8,
                replication: 3,
            };
            let (_, est) = search
                .evaluate_inferred(&program, &info, coeffs, view)
                .unwrap();
            assert!(
                est.makespan_s <= last * 1.02,
                "nodes {nodes}: {} > {last}",
                est.makespan_s
            );
            last = est.makespan_s;
        }
    }
}

#[cfg(test)]
mod spot_tests {
    use super::*;
    use crate::expr::ProgramBuilder;
    use cumulon_matrix::MatrixMeta;

    fn model() -> CostModel {
        crate::calibrate::idealized_cost_model()
    }

    fn workload() -> (Program, BTreeMap<String, InputDesc>) {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let x = b.input("X");
        let m = b.mul(a, x);
        b.output("C", m);
        let mut inputs = BTreeMap::new();
        for name in ["A", "X"] {
            inputs.insert(
                name.to_string(),
                InputDesc::dense(MatrixMeta::new(20_000, 20_000, 1000)),
            );
        }
        (b.build(), inputs)
    }

    fn search(m: &CostModel) -> DeploymentSearch<'_> {
        DeploymentSearch::new(
            m,
            SearchSpace {
                billing: cumulon_cluster::billing::BillingPolicy::PerSecond,
                ..SearchSpace::quick()
            },
        )
    }

    #[test]
    fn spot_curve_covers_grid_and_prices_risk() {
        let m = model();
        let s = search(&m);
        let (program, inputs) = workload();
        let dep = s
            .optimize(&program, &inputs, Constraint::Deadline(100_000.0))
            .unwrap();
        let spot = SpotSearchSpace::default();
        let curve = s.spot_curve(&dep, &spot);
        assert_eq!(
            curve.len(),
            1 + spot.bid_fractions.len() * spot.checkpoint_intervals_s.len()
        );
        assert_eq!(curve[0].procurement, Procurement::OnDemand);
        assert_eq!(curve[0].expected_rework_s, 0.0);
        for c in &curve[1..] {
            assert!(c.expected_makespan_s >= dep.estimate.makespan_s);
            assert!(c.expected_rework_s >= 0.0);
        }
        // At the same bid, an unchecked run reworks at least as much as a
        // checkpointed one (exposure is the whole run, not one interval).
        let at = |bid: f64, interval: f64| {
            curve
                .iter()
                .find(|c| {
                    c.procurement == Procurement::Spot { bid_fraction: bid }
                        && c.checkpoint_interval_s == interval
                })
                .unwrap()
                .expected_rework_s
        };
        assert!(at(0.5, 0.0) >= at(0.5, 300.0));
    }

    #[test]
    fn spot_on_demand_crossover_is_monotone() {
        let m = model();
        let s = search(&m);
        let (program, inputs) = workload();
        // As the spot market's mean price climbs toward list price, the
        // winner flips from spot to on-demand exactly once.
        let mut saw_on_demand = false;
        let mut spot_wins = 0;
        for frac in [0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0] {
            let spot = SpotSearchSpace {
                hazard: SpotHazard {
                    mean_price_fraction: frac,
                    ..SpotHazard::typical()
                },
                ..SpotSearchSpace::default()
            };
            let (_, choice) = s
                .optimize_spot(&program, &inputs, 100_000.0, &spot)
                .unwrap();
            match choice.procurement {
                Procurement::OnDemand => saw_on_demand = true,
                Procurement::Spot { .. } => {
                    assert!(
                        !saw_on_demand,
                        "spot must not win again after on-demand does (frac {frac})"
                    );
                    spot_wins += 1;
                }
            }
        }
        assert!(spot_wins > 0, "cheap spot markets must win");
        assert!(saw_on_demand, "spot at list price must lose");
    }

    #[test]
    fn deadline_rules_out_risky_unchecked_spot() {
        let m = model();
        let s = search(&m);
        let (program, inputs) = workload();
        let dep = s
            .optimize(&program, &inputs, Constraint::Deadline(100_000.0))
            .unwrap();
        // A vicious market: every option carries visible rework.
        let spot = SpotSearchSpace {
            hazard: SpotHazard {
                mean_price_fraction: 0.35,
                base_rate_per_hour: 20.0,
                decay: 0.1,
                restart_overhead_s: 300.0,
            },
            ..SpotSearchSpace::default()
        };
        // Deadline just above the fail-free makespan: risky spot options
        // are infeasible in expectation, on-demand still qualifies.
        let deadline = dep.estimate.makespan_s * 1.01;
        let (_, choice) = s.optimize_spot(&program, &inputs, deadline, &spot).unwrap();
        assert_eq!(choice.procurement, Procurement::OnDemand);
    }
}

#[cfg(test)]
mod iterative_tests {
    use super::*;

    use crate::expr::ProgramBuilder;

    use cumulon_matrix::MatrixMeta;

    fn model() -> CostModel {
        crate::calibrate::idealized_cost_model()
    }

    fn iteration() -> (Program, BTreeMap<String, InputDesc>) {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let m = b.mul(a, a);
        b.output("C", m);
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "A".into(),
            InputDesc::dense(MatrixMeta::new(12_000, 12_000, 1000)).generated(),
        );
        (b.build(), inputs)
    }

    #[test]
    fn repeated_runs_need_bigger_clusters_under_same_deadline() {
        let m = model();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let (program, inputs) = iteration();
        let single = search
            .optimize_repeated(&program, &inputs, Constraint::Deadline(1_800.0), 1)
            .unwrap();
        let looped = search
            .optimize_repeated(&program, &inputs, Constraint::Deadline(1_800.0), 20)
            .unwrap();
        assert!(looped.estimate.makespan_s <= 1_800.0);
        assert!(
            looped.nodes * looped.slots >= single.nodes * single.slots,
            "20 iterations in the same window need at least as much hardware: {} vs {}",
            looped.summary(),
            single.summary()
        );
        // Total-loop estimate is reported.
        assert!(looped.estimate.makespan_s > 10.0 * single.estimate.makespan_s / 20.0);
    }

    #[test]
    fn repeat_one_is_identity() {
        let m = model();
        let search = DeploymentSearch::new(&m, SearchSpace::quick());
        let (program, inputs) = iteration();
        let a = search
            .optimize(&program, &inputs, Constraint::Deadline(7_200.0))
            .unwrap();
        let b = search
            .optimize_repeated(&program, &inputs, Constraint::Deadline(7_200.0), 1)
            .unwrap();
        assert_eq!(a.estimate.makespan_s, b.estimate.makespan_s);
        assert_eq!(a.nodes, b.nodes);
    }
}
