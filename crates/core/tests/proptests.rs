//! Property tests for the planning stack, including the strongest
//! invariant we have: *any* valid program executed on the simulated
//! cluster produces exactly the numbers a driver-side reference
//! evaluation produces.

use std::collections::{BTreeMap, BTreeSet};

use cumulon_cluster::billing::{cluster_cost, BillingPolicy};
use cumulon_cluster::{Cluster, ClusterSpec, ExecMode};
use cumulon_core::calibrate::{featurize, MIN_TASK_S};
use cumulon_core::estimate::{FailureModel, TaskFeatures};
use cumulon_core::expr::{ExprId, ExprNode, InputDesc, ProgramBuilder, UnaryOp};
use cumulon_core::lower::{build_plan, build_plan_with, instantiate, PlanOptions, UnitSplits};
use cumulon_core::physical::{MatRef, PhysJob};
use cumulon_core::{
    Constraint, CoreError, CostModel, DeploymentPlan, DeploymentSearch, OpCoefficients, Program,
    SearchSpace,
};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::{LocalMatrix, MatrixMeta};
use proptest::prelude::*;

/// A recipe for building a random n×n program over two inputs.
#[derive(Debug, Clone)]
enum Step {
    Mul(usize, usize),
    Elem(u8, usize, usize),
    Transpose(usize),
    Scale(usize, i8),
    Unary(u8, usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    // Operand indices are taken modulo the current frontier length.
    let step = prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (0u8..4, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::Elem(op, a, b)),
        any::<usize>().prop_map(Step::Transpose),
        (any::<usize>(), -3i8..4).prop_map(|(a, f)| Step::Scale(a, f)),
        (0u8..3, any::<usize>()).prop_map(|(op, a)| Step::Unary(op, a)),
    ];
    proptest::collection::vec(step, 1..8)
}

fn elem_op(tag: u8) -> ElemOp {
    match tag % 4 {
        0 => ElemOp::Add,
        1 => ElemOp::Sub,
        2 => ElemOp::Mul,
        _ => ElemOp::Div,
    }
}

fn unary_op(tag: u8) -> UnaryOp {
    match tag % 3 {
        0 => UnaryOp::Abs,
        1 => UnaryOp::Square,
        // Sqrt over possibly-negative data produces NaN; use Abs ∘ Sqrt
        // composition only through Square to keep values real.
        _ => UnaryOp::Abs,
    }
}

/// Builds the program and a parallel reference evaluator plan.
fn build(steps: &[Step]) -> (Program, Vec<Step>) {
    let mut b = ProgramBuilder::new();
    let x = b.input("X");
    let y = b.input("Y");
    let mut frontier: Vec<ExprId> = vec![x, y];
    for s in steps {
        let pick = |i: usize| frontier[i % frontier.len()];
        let id = match s {
            Step::Mul(a, bb) => {
                let (a, bb) = (pick(*a), pick(*bb));
                b.mul(a, bb)
            }
            Step::Elem(op, a, bb) => {
                let (a, bb) = (pick(*a), pick(*bb));
                b.elem(elem_op(*op), a, bb)
            }
            Step::Transpose(a) => {
                let a = pick(*a);
                b.transpose(a)
            }
            Step::Scale(a, f) => {
                let a = pick(*a);
                b.scale(a, *f as f64 / 2.0)
            }
            Step::Unary(op, a) => {
                let a = pick(*a);
                b.unary(unary_op(*op), a)
            }
        };
        frontier.push(id);
    }
    b.output("OUT", *frontier.last().expect("non-empty"));
    (b.build(), steps.to_vec())
}

/// Reference evaluation with LocalMatrix, mirroring `build`.
fn reference(steps: &[Step], x: &LocalMatrix, y: &LocalMatrix) -> LocalMatrix {
    let mut frontier: Vec<LocalMatrix> = vec![x.clone(), y.clone()];
    for s in steps {
        let pick = |i: usize| frontier[i % frontier.len()].clone();
        let m = match s {
            Step::Mul(a, b) => pick(*a).matmul(&pick(*b)).expect("square mul"),
            Step::Elem(op, a, b) => pick(*a)
                .elementwise(&pick(*b), elem_op(*op))
                .expect("square elem"),
            Step::Transpose(a) => pick(*a).transpose(),
            Step::Scale(a, f) => {
                let mut m = pick(*a);
                m.scale(*f as f64 / 2.0);
                m
            }
            Step::Unary(op, a) => {
                let op = unary_op(*op);
                pick(*a).map(move |v| op.apply(v))
            }
        };
        frontier.push(m);
    }
    frontier.last().expect("non-empty").clone()
}

fn square_inputs(n: usize, tile: usize) -> BTreeMap<String, InputDesc> {
    let meta = MatrixMeta::new(n, n, tile);
    let mut m = BTreeMap::new();
    m.insert("X".to_string(), InputDesc::dense(meta));
    m.insert("Y".to_string(), InputDesc::dense(meta));
    m
}

/// A fitted model the search is held to.
#[derive(Debug, Clone)]
enum Fit {
    /// The spec sheet's coefficients.
    Idealized,
    /// The spec sheet's coefficients scaled term by term (zeros included,
    /// so compute alone can make up a prediction) under a random `σ ≥ 0`.
    Scaled([f64; 8], f64),
    /// The spec sheet with coefficient `i` negated.
    NegativeCoefficient(usize),
    /// The spec sheet with a negative `σ`.
    NegativeSigma,
}

impl Fit {
    fn coeffs(&self, instance: &cumulon_cluster::instances::InstanceType) -> OpCoefficients {
        let mut fit = OpCoefficients::idealized(instance, 2.0, 0.85);
        match self {
            Fit::Idealized => {}
            Fit::Scaled(scales, sigma) => {
                for (c, s) in fit.c.iter_mut().zip(scales) {
                    *c *= s;
                }
                fit.sigma = *sigma;
            }
            Fit::NegativeCoefficient(i) => fit.c[*i] = -fit.c[*i],
            Fit::NegativeSigma => fit.sigma = -0.3,
        }
        fit
    }

    /// Whether the work-conservation floor applies to this fit.
    fn non_negative(&self) -> bool {
        matches!(self, Fit::Idealized | Fit::Scaled(..))
    }
}

fn fits() -> impl Strategy<Value = Fit> {
    let scale = prop_oneof![Just(0.0), Just(1.0), 0.0f64..4.0];
    prop_oneof![
        2 => Just(Fit::Idealized),
        4 => (proptest::collection::vec(scale, 8..9), 0.0f64..1.0).prop_map(|(scales, sigma)| {
            Fit::Scaled(scales.try_into().expect("eight scales"), sigma)
        }),
        1 => (0usize..8).prop_map(Fit::NegativeCoefficient),
        1 => Just(Fit::NegativeSigma),
    ]
}

/// Multiply flops of the live product nodes of `program`, each once, at
/// the nodes' inferred densities: `2 · rows · inner · cols · density`.
fn live_product_flops(program: &Program, inputs: &BTreeMap<String, InputDesc>) -> f64 {
    let info = program.infer(inputs).unwrap();
    program
        .live_nodes()
        .into_iter()
        .filter_map(|id| match program.nodes[id] {
            ExprNode::Mul(a, b) => {
                let (l, r) = (&info[a], &info[b]);
                let cells = l.meta.rows as f64 * l.meta.cols as f64 * r.meta.cols as f64;
                Some(2.0 * cells * (l.density * r.density).clamp(0.0, 1.0))
            }
            _ => None,
        })
        .sum()
}

/// Random deployment grids: one to three neighbouring catalog types, node
/// ranges and strides that need not divide them, any non-empty subset of
/// the slot factors, both billing policies, with and without failures.
fn search_spaces() -> impl Strategy<Value = SearchSpace> {
    (
        (0usize..8, 1usize..=3),
        (1u32..=6, 0u32..=12, 1u32..=5),
        1u32..8,
        1u32..=3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                (first, count),
                (min_nodes, extra, node_stride),
                slot_mask,
                replication,
                per_second,
                failures,
            )| {
                SearchSpace {
                    instances: cumulon_cluster::instances::catalog()
                        .iter()
                        .skip(first)
                        .take(count)
                        .copied()
                        .collect(),
                    min_nodes,
                    max_nodes: min_nodes + extra,
                    node_stride,
                    slots_per_core: [0.5, 1.0, 2.0]
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| slot_mask & (1 << i) != 0)
                        .map(|(_, f)| *f)
                        .collect(),
                    replication,
                    billing: if per_second {
                        BillingPolicy::PerSecond
                    } else {
                        BillingPolicy::HourlyCeil
                    },
                    failure: failures.then_some(FailureModel {
                        node_mtbf_s: 40_000.0,
                        task_failure_prob: 0.05,
                    }),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, executed distributed, match the local reference.
    #[test]
    fn distributed_matches_reference(step_list in steps(), seed in 0u64..1000, fuse in any::<bool>()) {
        let n = 6;
        let tile = 4; // ragged edge on purpose
        let (program, recipe) = build(&step_list);
        let inputs = square_inputs(n, tile);
        let meta = MatrixMeta::new(n, n, tile);

        let cluster =
            Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        let xm = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform { seed, lo: -1.0, hi: 1.0 },
        );
        let ym = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform { seed: seed ^ 0xff, lo: -1.0, hi: 1.0 },
        );
        cluster.store().put_local("X", &xm).unwrap();
        cluster.store().put_local("Y", &ym).unwrap();

        let plan = build_plan_with(
            &program,
            &inputs,
            &UnitSplits,
            "t",
            PlanOptions { fuse },
        )
        .unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        cluster.run(&dag, ExecMode::Real).unwrap();
        let got = cluster.store().get_local("OUT").unwrap();
        let expect = reference(&recipe, &xm, &ym);

        // Chains of ⊘ and ⊙ can overflow; only finite expectations are
        // meaningfully comparable.
        let expect_flat = expect.to_dense_vec().unwrap();
        prop_assume!(expect_flat.iter().all(|v| v.is_finite()));
        let scale = expect_flat.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        let diff = got.max_abs_diff(&expect).unwrap();
        prop_assert!(
            diff <= 1e-9 * scale,
            "distributed result diverged: diff {diff}, scale {scale}"
        );
    }

    /// Plan structural invariant: every stored input a job reads is either
    /// an external input or the output of a job it (transitively) depends
    /// on.
    #[test]
    fn plans_are_dependency_closed(step_list in steps()) {
        let (program, _) = build(&step_list);
        let inputs = square_inputs(8, 4);
        let plan = build_plan(&program, &inputs, &UnitSplits, "t").unwrap();

        // Transitive dependency closure per job.
        let n = plan.jobs.len();
        let mut reach: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for (i, deps) in plan.deps.iter().enumerate() {
            let mut stack = deps.clone();
            while let Some(d) = stack.pop() {
                if !reach[i][d] {
                    reach[i][d] = true;
                    stack.extend(plan.deps[d].iter().copied());
                }
            }
        }
        // Producer of each matrix name.
        let mut producer: BTreeMap<String, usize> = BTreeMap::new();
        for (idx, job) in plan.jobs.iter().enumerate() {
            for out in job.output_names() {
                producer.insert(out, idx);
            }
        }
        let reads_of = |job: &PhysJob| -> Vec<MatRef> {
            match job {
                PhysJob::Mul { a, b, .. } => vec![a.clone(), b.clone()],
                PhysJob::AddPartials { partials, .. } => {
                    partials.iter().map(|p| MatRef::plain(p.clone())).collect()
                }
                PhysJob::Fused { inputs, .. } => {
                    inputs.iter().map(|(m, _)| m.clone()).collect()
                }
            }
        };
        for (idx, job) in plan.jobs.iter().enumerate() {
            for m in reads_of(job) {
                if m.name == "X" || m.name == "Y" {
                    continue; // external input
                }
                let p = producer.get(&m.name).copied();
                prop_assert!(p.is_some(), "job {idx} reads unproduced {}", m.name);
                let p = p.unwrap();
                prop_assert!(
                    reach[idx][p],
                    "job {idx} reads {} from job {p} without depending on it",
                    m.name
                );
            }
        }
    }

    /// `DeploymentSearch::sweep` evaluates *exactly* the grid implied by
    /// the space — every (instance, slots, nodes) in
    /// `instances × slot_options × node_options`, nothing missing,
    /// nothing duplicated — for arbitrary strides, ranges and slot
    /// multiples, including strides that do not divide the node range.
    #[test]
    fn sweep_covers_the_full_deployment_grid(
        min_nodes in 1u32..=6,
        extra in 0u32..=9,
        node_stride in 1u32..=5,
        slot_mask in 1u32..8, // non-empty subset of {0.5, 1.0, 2.0}
        two_instances in any::<bool>(),
    ) {
        let catalog = cumulon_cluster::instances::catalog();
        let instances: Vec<_> = catalog
            .iter()
            .take(if two_instances { 2 } else { 1 })
            .copied()
            .collect();
        let slots_per_core: Vec<f64> = [0.5, 1.0, 2.0]
            .iter()
            .enumerate()
            .filter(|(i, _)| slot_mask & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        let space = SearchSpace {
            instances: instances.clone(),
            min_nodes,
            max_nodes: min_nodes + extra,
            node_stride,
            slots_per_core,
            replication: 2,
            billing: BillingPolicy::HourlyCeil,
            failure: None,
        };

        // node_options must hit both endpoints even when the stride
        // does not divide the range.
        let nodes = space.node_options();
        prop_assert_eq!(nodes.first(), Some(&space.min_nodes));
        prop_assert_eq!(nodes.last(), Some(&space.max_nodes));
        prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]));

        let mut model = CostModel::default();
        for i in &instances {
            model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
        }
        let mut b = ProgramBuilder::new();
        let x = b.input("X");
        let y = b.input("Y");
        let m = b.mul(x, y);
        b.output("OUT", m);
        let program = b.build();
        let inputs = square_inputs(40, 10);

        let plans = DeploymentSearch::new(&model, space.clone())
            .sweep(&program, &inputs)
            .unwrap();

        let mut expected = BTreeSet::new();
        for i in &instances {
            for slots in space.slot_options(i) {
                for n in space.node_options() {
                    expected.insert((i.name.to_string(), slots, n));
                }
            }
        }
        let got: BTreeSet<_> = plans
            .iter()
            .map(|p| (p.instance.name.to_string(), p.slots, p.nodes))
            .collect();
        prop_assert_eq!(plans.len(), expected.len(), "duplicate grid points");
        prop_assert_eq!(got, expected);
    }

    /// Fused vs unfused plans have the same outputs and the unfused plan
    /// never has fewer jobs.
    #[test]
    fn fusion_only_reduces_jobs(step_list in steps()) {
        let (program, _) = build(&step_list);
        let inputs = square_inputs(8, 4);
        let fused = build_plan(&program, &inputs, &UnitSplits, "t").unwrap();
        let unfused = build_plan_with(
            &program,
            &inputs,
            &UnitSplits,
            "u",
            PlanOptions { fuse: false },
        )
        .unwrap();
        prop_assert!(unfused.jobs.len() >= fused.jobs.len());
    }
}

proptest! {
    // Planning only, nothing executes: cheap enough for many more cases
    // than the block above, and the per-second regime where a larger
    // cluster is cheaper needs them to show up.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `optimize_repeated` returns exactly the row an exhaustive `sweep`
    /// ranks first — cheapest then fastest under a deadline, fastest then
    /// cheapest under a budget, the earlier row on a full tie — with the
    /// estimate's bits intact, and is infeasible exactly when no row
    /// qualifies; and the floors that let it skip candidates never exceed
    /// any candidate's makespan or bill. The makespan floor is the live
    /// products' flops on every slot at the fit's compute rate, or
    /// `MIN_TASK_S` under a fit with a negative term.
    #[test]
    fn search_returns_the_sweep_argmin_and_its_floor_is_admissible(
        step_list in steps(),
        n_tiles in prop_oneof![Just(2usize), Just(12), Just(30), Just(60)],
        space in search_spaces(),
        (fit, density) in (fits(), prop_oneof![Just(1.0), 0.001f64..1.0]),
        (repeat, by_deadline) in (1usize..=4, any::<bool>()),
        (pivot, slack) in (
            any::<usize>(),
            prop_oneof![Just(0.5), Just(1.0), Just(1.25), Just(4.0)],
        ),
    ) {
        let billing = space.billing;
        let mut model = CostModel::default();
        for i in &space.instances {
            model.insert(i.name, fit.coeffs(i));
        }
        let (program, _) = build(&step_list);
        let mut inputs = square_inputs(n_tiles * 1000, 1000);
        if density < 1.0 {
            for desc in inputs.values_mut() {
                *desc = InputDesc::sparse(desc.meta, density);
            }
        }
        let search = DeploymentSearch::new(&model, space);

        // Every grid point as the search prices it: `repeat` executions
        // back to back, billed over the whole loop.
        let rows: Vec<(DeploymentPlan, f64, f64)> = search
            .sweep(&program, &inputs)
            .unwrap()
            .into_iter()
            .map(|row| {
                let makespan = row.estimate.makespan_s * repeat as f64;
                let cost = cluster_cost(billing, row.nodes, row.instance.price_per_hour, makespan);
                (row, makespan, cost)
            })
            .collect();
        let flops = live_product_flops(&program, &inputs);
        let shortest = MIN_TASK_S * repeat as f64;
        for (row, makespan, cost) in &rows {
            let view = row.view();
            let floor = search.makespan_floor(&program, &inputs, &view, repeat).unwrap();
            let expect = if fit.non_negative() {
                let coeffs = model.for_instance(row.instance.name).unwrap();
                let compute = TaskFeatures { flops, ..Default::default() };
                let work = coeffs.c[1] * featurize(&row.instance, row.slots, &compute)[1];
                (work / view.total_slots() as f64).max(MIN_TASK_S) * repeat as f64
            } else {
                shortest
            };
            prop_assert!(
                (floor - expect).abs() <= 1e-9 * expect,
                "floor {floor} is not the work bound {expect} on {}", row.summary()
            );
            prop_assert!(floor <= *makespan, "floor {floor} above {makespan} of {}", row.summary());
            for floor in [floor, shortest] {
                let bill = search.cost_floor(&view, floor);
                prop_assert!(bill <= *cost, "floor {bill} above {cost} of {}", row.summary());
            }
        }

        // A constraint some rows meet and some miss: a multiple of one
        // row's own figure (1.0 lands exactly on the boundary).
        let (_, pivot_makespan, pivot_cost) = &rows[pivot % rows.len()];
        let constraint = if by_deadline {
            Constraint::Deadline(pivot_makespan * slack)
        } else {
            Constraint::Budget(pivot_cost * slack)
        };
        // `None` for a row that misses the constraint, else what it is
        // ranked by.
        let rank = |&(_, makespan, cost): &(DeploymentPlan, f64, f64)| match constraint {
            Constraint::Deadline(d) => (makespan <= d).then_some((cost, makespan)),
            Constraint::Budget(b) => (cost <= b).then_some((makespan, cost)),
        };
        let mut expect: Option<&(DeploymentPlan, f64, f64)> = None;
        for row in &rows {
            if let Some(key) = rank(row) {
                if expect.and_then(rank).is_none_or(|best| key < best) {
                    expect = Some(row);
                }
            }
        }

        let got = search.optimize_repeated(&program, &inputs, constraint, repeat);
        match expect {
            None => prop_assert!(
                matches!(got, Err(CoreError::Infeasible(_))),
                "no row meets {constraint:?}, search returned {:?}",
                got.map(|d| d.summary())
            ),
            Some((row, makespan, cost)) => {
                let got = got.unwrap();
                prop_assert_eq!(
                    (got.instance.name, got.slots, got.nodes),
                    (row.instance.name, row.slots, row.nodes),
                    "{:?}: {} vs sweep's {}", constraint, got.summary(), row.summary()
                );
                prop_assert_eq!(got.estimate.makespan_s.to_bits(), makespan.to_bits());
                prop_assert_eq!(got.estimate.cost_dollars.to_bits(), cost.to_bits());
                prop_assert_eq!(&got.plan, &row.plan);
            }
        }
    }
}

/// `ProgramBuilder` needs an `elem` helper for the generic test; verify
/// the four named helpers agree with it.
#[test]
fn elem_helper_matches_named_builders() {
    let mut b1 = ProgramBuilder::new();
    let x = b1.input("X");
    let y = b1.input("Y");
    let _ = b1.elem(ElemOp::Add, x, y);
    let p1 = b1.build();
    let mut b2 = ProgramBuilder::new();
    let x = b2.input("X");
    let y = b2.input("Y");
    let _ = b2.add(x, y);
    let p2 = b2.build();
    assert_eq!(p1.nodes, p2.nodes);
}
