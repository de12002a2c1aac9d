//! The experiment suite (E1–E10, T1–T4) reconstructed from the paper's
//! abstract and public narrative; see DESIGN.md for the index and
//! EXPERIMENTS.md for expected-vs-measured shapes.
//!
//! Every experiment returns a [`Series`] — a named table of rows — so the
//! `repro` binary, the tests below and the documentation all consume the
//! same code path. Experiments run in *simulated* (phantom) mode at
//! paper scale: real tile math is covered by the test suites at small
//! scale; here the subject is time-and-dollars behaviour.

use std::collections::BTreeMap;

use cumulon::core::calibrate::{calibrate, CalibrationConfig};
use cumulon::core::lower::{build_plan, instantiate, FixedSplit};
use cumulon::core::physical::MulSplit;
use cumulon::matrix::tile::ElemOp;
use cumulon::prelude::*;
use cumulon::workloads::gnmf::Gnmf;
use cumulon::workloads::rsvd::Rsvd;

/// A printable experiment result: header plus rows.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment id, e.g. `"E2"`.
    pub id: &'static str,
    /// What the experiment shows.
    pub title: &'static str,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Series {
    fn new(id: &'static str, title: &'static str, header: &[&str]) -> Self {
        Series {
            id,
            title,
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders as a JSON object, hand-rolled with the workspace's one
    /// string escaper ([`cumulon::trace::json::escape`]), so no
    /// serializer dependency is needed.
    pub fn to_json(&self) -> String {
        use cumulon::trace::json::escape as esc;
        let header = self
            .header
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect::<Vec<_>>()
            .join(",");
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let cells = r
                    .iter()
                    .map(|c| format!("\"{}\"", esc(c)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("[{cells}]")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"header\":[{header}],\"rows\":[{rows}]}}",
            esc(self.id),
            esc(self.title)
        )
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn optimizer() -> Optimizer {
    Optimizer::new(idealized_cost_model())
}

fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn square_multiply(n: usize) -> (Program, BTreeMap<String, InputDesc>, MatrixMeta) {
    let meta = MatrixMeta::new(n, n, 1_000);
    let mut pb = ProgramBuilder::new();
    let a = pb.input("A");
    let b = pb.input("B");
    let m = pb.mul(a, b);
    pb.output("C", m);
    let mut inputs = BTreeMap::new();
    inputs.insert("A".to_string(), InputDesc::dense(meta).generated());
    inputs.insert("B".to_string(), InputDesc::dense(meta).generated());
    (pb.build(), inputs, meta)
}

fn provision_with_gen(
    instance: &str,
    nodes: u32,
    slots: u32,
    meta: MatrixMeta,
    names: &[&str],
) -> Cluster {
    let cluster =
        Cluster::provision(ClusterSpec::named(instance, nodes, slots).unwrap()).expect("provision");
    for (i, name) in names.iter().enumerate() {
        cluster
            .store()
            .register_generated(name, meta, Generator::DenseGaussian { seed: i as u64 + 1 })
            .expect("register");
    }
    cluster
}

// ---------------------------------------------------------------------------
// E1: multiply split sweep
// ---------------------------------------------------------------------------

/// E1 — job time vs. the multiply split choice is U-shaped; the cost-based
/// chooser lands near the bottom.
pub(crate) fn e1() -> Series {
    let mut s = Series::new(
        "E1",
        "multiply job time vs split (16k x 16k x 16k, c1.xlarge x10, 8 slots)",
        &["ri", "rj", "rk", "tasks", "sim time (s)", "chosen"],
    );
    let (program, inputs, meta) = square_multiply(16_000);
    let opt = optimizer();

    // Which split does the cost-based chooser pick?
    let cluster = provision_with_gen("c1.xlarge", 10, 8, meta, &["A", "B"]);
    let est_plan = {
        let coeffs = *opt.model().for_instance("c1.xlarge").unwrap();
        let view = cumulon::core::estimate::ClusterView {
            instance: cumulon::cluster::instances::by_name("c1.xlarge").unwrap(),
            nodes: 10,
            slots: 8,
            replication: 3,
        };
        let chooser = cumulon::core::deploy::CostBasedChooser { coeffs, view };
        build_plan(&program, &inputs, &chooser, "pick").unwrap()
    };
    let chosen = match &est_plan.jobs[0] {
        cumulon::core::physical::PhysJob::Mul { split, .. } => *split,
        _ => MulSplit::unit(),
    };

    for (ri, rj, rk) in [
        (1usize, 1usize, 1usize),
        (1, 1, 4),
        (1, 1, 16),
        (2, 2, 4),
        (2, 2, 16),
        (4, 4, 4),
        (4, 4, 16),
        (8, 8, 16),
        (16, 16, 16),
    ] {
        let split = MulSplit { ri, rj, rk };
        let cluster = provision_with_gen("c1.xlarge", 10, 8, meta, &["A", "B"]);
        let plan = build_plan(&program, &inputs, &FixedSplit(split, 4), "t").unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        let report = cluster.run(&dag, ExecMode::Simulated).unwrap();
        let tasks = plan.jobs.iter().map(|j| j.task_count()).sum::<usize>();
        s.push(vec![
            ri.to_string(),
            rj.to_string(),
            rk.to_string(),
            tasks.to_string(),
            f(report.makespan_s),
            if split == chosen {
                "<-- optimizer".into()
            } else {
                String::new()
            },
        ]);
    }
    // Run the optimizer's own choice too (may coincide with a row above).
    let dag = instantiate(&est_plan, cluster.store()).unwrap();
    let report = cluster.run(&dag, ExecMode::Simulated).unwrap();
    s.push(vec![
        chosen.ri.to_string(),
        chosen.rj.to_string(),
        chosen.rk.to_string(),
        est_plan
            .jobs
            .iter()
            .map(|j| j.task_count())
            .sum::<usize>()
            .to_string(),
        f(report.makespan_s),
        "(optimizer's pick)".into(),
    ]);
    s
}

// ---------------------------------------------------------------------------
// E2: Cumulon vs MapReduce baseline, dimension sweep
// ---------------------------------------------------------------------------

/// E2 — Cumulon vs the SystemML-on-MapReduce-style baseline on square
/// multiply, growing dimension.
pub(crate) fn e2() -> Series {
    let mut s = Series::new(
        "E2",
        "dense multiply: Cumulon vs MapReduce baseline (c1.xlarge x8, 8 slots)",
        &["n", "cumulon (s)", "mapreduce (s)", "speedup"],
    );
    let opt = optimizer();
    for n in [4_000usize, 8_000, 12_000, 16_000, 20_000] {
        let (program, inputs, meta) = square_multiply(n);
        let cluster = provision_with_gen("c1.xlarge", 8, 8, meta, &["A", "B"]);
        let cumulon_s = opt
            .execute_on(&cluster, &program, &inputs, "t", ExecMode::Simulated)
            .unwrap()
            .makespan_s;

        let spec = ClusterSpec::named("c1.xlarge", 8, 8).unwrap();
        let store = TileStore::new(Dfs::new(spec.nodes, DfsConfig::default()));
        for (i, name) in ["A", "B"].iter().enumerate() {
            store
                .register_generated(name, meta, Generator::DenseGaussian { seed: i as u64 + 1 })
                .unwrap();
        }
        let engine = MrEngine::new(spec, store, HardwareModel::default(), MrConfig::default());
        let prog = MrProgram::new().push(MrOp::Mul {
            a: "A".into(),
            b: "B".into(),
            out: "C".into(),
            strategy: MulStrategy::Auto,
        });
        let mr_s = prog
            .execute(&engine, ExecMode::Simulated)
            .unwrap()
            .makespan_s;
        s.push(vec![
            n.to_string(),
            f(cumulon_s),
            f(mr_s),
            format!("{:.1}x", mr_s / cumulon_s),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E3: GNMF iteration vs cluster size, Cumulon vs baseline
// ---------------------------------------------------------------------------

/// The baseline H-update as an operator-at-a-time MR program.
fn mr_gnmf_h_update(engine: &MrEngine, suffix: &str) -> f64 {
    let prog = MrProgram::new()
        .push(MrOp::Transpose {
            a: "W_0".into(),
            out: format!("Wt{suffix}"),
        })
        .push(MrOp::Mul {
            a: format!("Wt{suffix}"),
            b: "V".into(),
            out: format!("WtV{suffix}"),
            strategy: MulStrategy::Auto,
        })
        .push(MrOp::Mul {
            a: format!("Wt{suffix}"),
            b: "W_0".into(),
            out: format!("WtW{suffix}"),
            strategy: MulStrategy::Auto,
        })
        .push(MrOp::Mul {
            a: format!("WtW{suffix}"),
            b: "H_0".into(),
            out: format!("WtWH{suffix}"),
            strategy: MulStrategy::Auto,
        })
        .push(MrOp::Elementwise {
            a: "H_0".into(),
            b: format!("WtV{suffix}"),
            out: format!("Hnum{suffix}"),
            op: ElemOp::Mul,
        })
        .push(MrOp::Elementwise {
            a: format!("Hnum{suffix}"),
            b: format!("WtWH{suffix}"),
            out: format!("Hnext{suffix}"),
            op: ElemOp::Div,
        });
    prog.execute(engine, ExecMode::Simulated)
        .unwrap()
        .makespan_s
}

/// E3 — GNMF per-iteration time vs cluster size, Cumulon vs baseline.
pub(crate) fn e3() -> Series {
    let mut s = Series::new(
        "E3",
        "GNMF per-iteration time vs nodes (V: 100k x 100k @1%, rank 50, m1.xlarge)",
        &["nodes", "cumulon (s)", "mapreduce (s)", "speedup"],
    );
    let gnmf = Gnmf {
        m: 100_000,
        n: 100_000,
        rank: 50,
        tile_size: 1_000,
        density: 0.01,
        seed: 5,
    };
    let opt = optimizer();
    for nodes in [5u32, 10, 20, 40] {
        let cluster =
            Cluster::provision(ClusterSpec::named("m1.xlarge", nodes, 4).unwrap()).unwrap();
        gnmf.setup(cluster.store()).unwrap();
        let reports = gnmf.run(&opt, &cluster, 1, ExecMode::Simulated).unwrap();
        let cumulon_s = reports[0].makespan_s;

        let spec = ClusterSpec::named("m1.xlarge", nodes, 4).unwrap();
        let store = TileStore::new(Dfs::new(spec.nodes, DfsConfig::default()));
        gnmf.setup(&store).unwrap();
        let engine = MrEngine::new(spec, store, HardwareModel::default(), MrConfig::default());
        // One baseline iteration ≈ 2 × the H-update (the W-update is the
        // mirror image with the same operator count).
        let mr_s = 2.0 * mr_gnmf_h_update(&engine, &format!("_{nodes}"));
        s.push(vec![
            nodes.to_string(),
            f(cumulon_s),
            f(mr_s),
            format!("{:.1}x", mr_s / cumulon_s),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E4: RSVD scale-out
// ---------------------------------------------------------------------------

/// E4 — RSVD-1 end-to-end time vs cluster size (diminishing returns as the
/// wave count bottoms out).
pub(crate) fn e4() -> Series {
    let mut s = Series::new(
        "E4",
        "RSVD-1 (A: 400k x 200k, k=100) makespan vs nodes (c1.xlarge, 8 slots)",
        &["nodes", "makespan (s)", "cost ($)", "speedup vs 5"],
    );
    let rsvd = Rsvd {
        m: 400_000,
        n: 200_000,
        k: 100,
        tile_size: 1_000,
        power_iters: 0,
        seed: 9,
    };
    let opt = optimizer();
    let mut base = None;
    for nodes in [5u32, 10, 20, 40, 80] {
        let cluster =
            Cluster::provision(ClusterSpec::named("c1.xlarge", nodes, 8).unwrap()).unwrap();
        rsvd.setup(cluster.store()).unwrap();
        let reports = rsvd.run(&opt, &cluster, ExecMode::Simulated).unwrap();
        let total: f64 = reports.iter().map(|r| r.makespan_s).sum();
        let cost: f64 = reports.iter().map(|r| r.cost_dollars).sum();
        let base_t = *base.get_or_insert(total);
        s.push(vec![
            nodes.to_string(),
            f(total),
            format!("{cost:.2}"),
            format!("{:.1}x", base_t / total),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E5: prediction accuracy
// ---------------------------------------------------------------------------

/// E5 — estimator vs simulator across workloads and deployments.
pub(crate) fn e5() -> Series {
    let mut s = Series::new(
        "E5",
        "predicted vs simulated makespan",
        &[
            "workload",
            "deployment",
            "predicted (s)",
            "simulated (s)",
            "rel err",
        ],
    );
    let opt = optimizer();

    let mut record = |workload: &str,
                      instance: &str,
                      nodes: u32,
                      slots: u32,
                      program: &Program,
                      inputs: &BTreeMap<String, InputDesc>,
                      cluster: &Cluster| {
        let est = opt.estimate_on(cluster, program, inputs).unwrap();
        let run = opt
            .execute_on(cluster, program, inputs, "e5", ExecMode::Simulated)
            .unwrap();
        let rel = (est.makespan_s - run.makespan_s).abs() / run.makespan_s;
        s.push(vec![
            workload.to_string(),
            format!("{instance} x{nodes}/{slots}"),
            f(est.makespan_s),
            f(run.makespan_s),
            format!("{:.1}%", 100.0 * rel),
        ]);
    };

    for (instance, nodes, slots) in [("m1.large", 8u32, 2u32), ("c1.xlarge", 4, 8)] {
        let (program, inputs, meta) = square_multiply(10_000);
        let cluster = provision_with_gen(instance, nodes, slots, meta, &["A", "B"]);
        record(
            "multiply-10k",
            instance,
            nodes,
            slots,
            &program,
            &inputs,
            &cluster,
        );
    }

    let gnmf = Gnmf {
        m: 20_000,
        n: 20_000,
        rank: 20,
        tile_size: 1_000,
        density: 0.01,
        seed: 5,
    };
    for (instance, nodes, slots) in [("m1.xlarge", 10u32, 4u32), ("c1.xlarge", 6, 8)] {
        let cluster =
            Cluster::provision(ClusterSpec::named(instance, nodes, slots).unwrap()).unwrap();
        gnmf.setup(cluster.store()).unwrap();
        let program = cumulon::workloads::Workload::program(&gnmf, 0);
        let inputs = cumulon::workloads::Workload::inputs(&gnmf, 0);
        record(
            "gnmf-iter",
            instance,
            nodes,
            slots,
            &program,
            &inputs,
            &cluster,
        );
    }

    let rsvd = Rsvd {
        m: 30_000,
        n: 15_000,
        k: 50,
        tile_size: 1_000,
        power_iters: 0,
        seed: 2,
    };
    let (instance, nodes, slots) = ("m2.2xlarge", 8u32, 4u32);
    let cluster = Cluster::provision(ClusterSpec::named(instance, nodes, slots).unwrap()).unwrap();
    rsvd.setup(cluster.store()).unwrap();
    let program = cumulon::workloads::Workload::program(&rsvd, 0);
    let inputs = cumulon::workloads::Workload::inputs(&rsvd, 0);
    record(
        "rsvd-sketch",
        instance,
        nodes,
        slots,
        &program,
        &inputs,
        &cluster,
    );
    s
}

// ---------------------------------------------------------------------------
// E6: slots-per-node sweep
// ---------------------------------------------------------------------------

/// E6 — the configuration knob: slots per node has an interior optimum.
pub(crate) fn e6() -> Series {
    let mut s = Series::new(
        "E6",
        "multiply time vs slots/node (12k^3, c1.medium x16: 2 cores, 1.7GB)",
        &["slots", "sim time (s)", "note"],
    );
    let (program, inputs, meta) = square_multiply(12_000);
    let opt = optimizer();
    let mut best: Option<(u32, f64)> = None;
    let mut rows = Vec::new();
    for slots in [1u32, 2, 3, 4, 6, 8] {
        let cluster = provision_with_gen("c1.medium", 16, slots, meta, &["A", "B"]);
        let t = opt
            .execute_on(&cluster, &program, &inputs, "t", ExecMode::Simulated)
            .unwrap()
            .makespan_s;
        if best.map(|(_, bt)| t < bt).unwrap_or(true) {
            best = Some((slots, t));
        }
        rows.push((slots, t));
    }
    let (best_slots, _) = best.unwrap();
    for (slots, t) in rows {
        s.push(vec![
            slots.to_string(),
            f(t),
            if slots == best_slots {
                "<-- best".into()
            } else {
                String::new()
            },
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E7: cost vs deadline
// ---------------------------------------------------------------------------

/// E7 — the minimal cost to meet each deadline, and which deployment wins.
pub(crate) fn e7() -> Series {
    let mut s = Series::new(
        "E7",
        "min cost vs deadline (RSVD sketch, A: 400k x 200k, k=200)",
        &["deadline (min)", "cost ($)", "deployment"],
    );
    let rsvd = Rsvd {
        m: 400_000,
        n: 200_000,
        k: 200,
        tile_size: 1_000,
        power_iters: 0,
        seed: 9,
    };
    let program = cumulon::workloads::Workload::program(&rsvd, 0);
    let inputs = cumulon::workloads::Workload::inputs(&rsvd, 0);
    let opt = optimizer();
    let space = SearchSpace {
        max_nodes: 48,
        node_stride: 2,
        ..Default::default()
    };
    for deadline_min in [480.0, 240.0, 120.0, 60.0, 30.0, 15.0, 8.0, 4.0] {
        match opt.optimize(
            &program,
            &inputs,
            space.clone(),
            Constraint::Deadline(deadline_min * 60.0),
        ) {
            Ok(plan) => s.push(vec![
                format!("{deadline_min:.0}"),
                format!("{:.2}", plan.estimate.cost_dollars),
                format!(
                    "{} x{} ({} slots), est {:.0}s",
                    plan.instance.name, plan.nodes, plan.slots, plan.estimate.makespan_s
                ),
            ]),
            Err(_) => s.push(vec![
                format!("{deadline_min:.0}"),
                "-".into(),
                "infeasible".into(),
            ]),
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E8: Pareto skyline
// ---------------------------------------------------------------------------

/// E8 — the (time, cost) skyline over the deployment grid.
pub(crate) fn e8() -> Series {
    let mut s = Series::new(
        "E8",
        "time/cost Pareto skyline (GNMF iteration, V: 200k x 200k @1%, rank 50)",
        &["time (s)", "cost ($)", "deployment"],
    );
    let gnmf = Gnmf {
        m: 200_000,
        n: 200_000,
        rank: 50,
        tile_size: 1_000,
        density: 0.01,
        seed: 5,
    };
    let program = cumulon::workloads::Workload::program(&gnmf, 0);
    let inputs = cumulon::workloads::Workload::inputs(&gnmf, 0);
    let opt = optimizer();
    let space = SearchSpace {
        max_nodes: 32,
        node_stride: 4,
        ..Default::default()
    };
    let skyline = opt.pareto(&program, &inputs, space).unwrap();
    for d in skyline {
        s.push(vec![
            f(d.estimate.makespan_s),
            format!("{:.2}", d.estimate.cost_dollars),
            format!("{} x{} ({} slots)", d.instance.name, d.nodes, d.slots),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E9: chain reordering ablation
// ---------------------------------------------------------------------------

/// E9 — simulated time of a skewed 5-factor chain under three association
/// orders: naive left-assoc, flops-DP, and worst-case right-assoc.
pub(crate) fn e9() -> Series {
    let mut s = Series::new(
        "E9",
        "chain-order ablation (200 x 8k x 200 x 8k x 200 x 200 chain, m1.xlarge x8)",
        &["order", "jobs", "sim time (s)"],
    );
    let dims = [200usize, 8_000, 200, 8_000, 200, 200];
    let metas: Vec<MatrixMeta> = (0..5)
        .map(|i| MatrixMeta::new(dims[i], dims[i + 1], 200))
        .collect();
    let inputs: BTreeMap<String, InputDesc> = (0..5)
        .map(|i| (format!("M{i}"), InputDesc::dense(metas[i]).generated()))
        .collect();

    let build = |right_assoc: bool| {
        let mut pb = ProgramBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| pb.input(&format!("M{i}"))).collect();
        let root = if right_assoc {
            let mut acc = ids[4];
            for &m in ids[..4].iter().rev() {
                acc = pb.mul(m, acc);
            }
            acc
        } else {
            pb.mul_chain(&ids)
        };
        pb.output("OUT", root);
        pb.build()
    };

    let opt = optimizer();
    let run = |program: &Program, rewrite: bool| {
        let cluster = Cluster::provision(ClusterSpec::named("m1.xlarge", 8, 4).unwrap()).unwrap();
        for (i, meta) in metas.iter().enumerate() {
            cluster
                .store()
                .register_generated(
                    &format!("M{i}"),
                    *meta,
                    Generator::DenseGaussian { seed: i as u64 },
                )
                .unwrap();
        }
        // Bypass or use the rewriter depending on the ablation arm.
        if rewrite {
            let report = opt
                .execute_on(&cluster, program, &inputs, "t", ExecMode::Simulated)
                .unwrap();
            (report.jobs.len(), report.makespan_s)
        } else {
            let plan =
                build_plan(program, &inputs, &cumulon::core::lower::UnitSplits, "t").unwrap();
            let dag = instantiate(&plan, cluster.store()).unwrap();
            let report = cluster.run(&dag, ExecMode::Simulated).unwrap();
            (report.jobs.len(), report.makespan_s)
        }
    };

    let (jobs, t) = run(&build(false), false);
    s.push(vec!["left-assoc (naive)".into(), jobs.to_string(), f(t)]);
    let (jobs, t) = run(&build(true), false);
    s.push(vec!["right-assoc (worst)".into(), jobs.to_string(), f(t)]);
    let (jobs, t) = run(&build(false), true);
    s.push(vec!["cost-based DP".into(), jobs.to_string(), f(t)]);
    s
}

// ---------------------------------------------------------------------------
// E10: budget-constrained best time + hourly billing structure
// ---------------------------------------------------------------------------

/// E10 — fastest deployment within each budget; hourly billing makes
/// marginal dollars buy whole steps of speed.
pub(crate) fn e10() -> Series {
    let mut s = Series::new(
        "E10",
        "best time vs budget (multiply 20k^3)",
        &["budget ($)", "time (s)", "cost ($)", "deployment"],
    );
    let (program, inputs, _) = square_multiply(20_000);
    let opt = optimizer();
    let space = SearchSpace {
        max_nodes: 48,
        node_stride: 2,
        ..Default::default()
    };
    for budget in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        match opt.optimize(&program, &inputs, space.clone(), Constraint::Budget(budget)) {
            Ok(plan) => s.push(vec![
                format!("{budget:.0}"),
                f(plan.estimate.makespan_s),
                format!("{:.2}", plan.estimate.cost_dollars),
                format!(
                    "{} x{} ({} slots)",
                    plan.instance.name, plan.nodes, plan.slots
                ),
            ]),
            Err(_) => s.push(vec![
                format!("{budget:.0}"),
                "-".into(),
                "-".into(),
                "infeasible".into(),
            ]),
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E11: fault tolerance and speculative execution
// ---------------------------------------------------------------------------

/// E11 — makespan under injected failures and with speculative execution
/// (extension: the execution-model robustness the paper's substrate,
/// Hadoop, provides and our engine reproduces).
pub(crate) fn e11() -> Series {
    use cumulon::cluster::scheduler::{FailurePlan, SchedulerConfig};

    let mut s = Series::new(
        "E11",
        "fault tolerance (multiply 12k^3, m1.xlarge x8, 4 slots)",
        &["scenario", "sim time (s)", "retries", "overhead"],
    );
    let (program, inputs, meta) = square_multiply(12_000);
    let run = |failures: FailurePlan, config: SchedulerConfig, sigma: f64| {
        let hw = HardwareModel {
            noise: cumulon::cluster::hw::NoiseModel {
                sigma,
                seed: 0xfa11,
            },
            ..HardwareModel::default()
        };
        let cluster = Cluster::provision_with(
            ClusterSpec::named("m1.xlarge", 8, 4).unwrap(),
            hw,
            DfsConfig::default(),
        )
        .unwrap();
        for (i, name) in ["A", "B"].iter().enumerate() {
            cluster
                .store()
                .register_generated(name, meta, Generator::DenseGaussian { seed: i as u64 + 1 })
                .unwrap();
        }
        let plan = build_plan(&program, &inputs, &cumulon::core::lower::UnitSplits, "t").unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        let report = cluster
            .run_with(&dag, ExecMode::Simulated, config, &failures)
            .unwrap();
        let retries: u32 = report.jobs.iter().map(|j| j.retries()).sum();
        (report.makespan_s, retries)
    };

    let base_sigma = 0.08;
    let (base, _) = run(
        FailurePlan::default(),
        SchedulerConfig::default(),
        base_sigma,
    );
    let mut row = |name: &str, t: f64, retries: u32, base: f64| {
        s.push(vec![
            name.to_string(),
            f(t),
            retries.to_string(),
            format!("{:+.0}%", 100.0 * (t / base - 1.0)),
        ]);
    };
    row("no failures", base, 0, base);
    for p in [0.05, 0.15] {
        // Enough retry headroom that even an unlucky task (all-failing
        // draws) completes: the experiment measures retry overhead, not
        // the give-up threshold.
        let config = SchedulerConfig {
            max_attempts: 10,
            ..SchedulerConfig::default()
        };
        let (t, r) = run(
            FailurePlan {
                task_failure_prob: p,
                seed: 7,
                ..Default::default()
            },
            config,
            base_sigma,
        );
        row(&format!("task failures p={p}"), t, r, base);
    }
    let (t, r) = run(
        FailurePlan {
            node_failures: vec![(base / 2.0, 7)],
            seed: 7,
            ..Default::default()
        },
        SchedulerConfig::default(),
        base_sigma,
    );
    row("node 7 dies mid-run", t, r, base);
    // Straggler-heavy environment, with and without speculation.
    let (t_heavy, _) = run(FailurePlan::default(), SchedulerConfig::default(), 0.8);
    row("heavy stragglers (sigma=0.8)", t_heavy, 0, t_heavy);
    let (t_spec, _) = run(
        FailurePlan::default(),
        SchedulerConfig::with_speculation(),
        0.8,
    );
    row("  + speculative execution", t_spec, 0, t_heavy);
    s
}

// ---------------------------------------------------------------------------
// E12: tile-size sweep (physical design knob)
// ---------------------------------------------------------------------------

/// E12 — the tile-size physical design knob: small tiles drown in per-task
/// overhead and tiny kernels; huge tiles starve parallelism and blow the
/// memory budget.
pub(crate) fn e12() -> Series {
    let mut s = Series::new(
        "E12",
        "multiply time vs tile size (16k^3, c1.xlarge x8, 8 slots)",
        &["tile size", "tiles", "sim time (s)"],
    );
    let opt = optimizer();
    for tile in [250usize, 500, 1_000, 2_000, 4_000] {
        let meta = MatrixMeta::new(16_000, 16_000, tile);
        let mut pb = ProgramBuilder::new();
        let a = pb.input("A");
        let b = pb.input("B");
        let m = pb.mul(a, b);
        pb.output("C", m);
        let program = pb.build();
        let mut inputs = BTreeMap::new();
        inputs.insert("A".to_string(), InputDesc::dense(meta).generated());
        inputs.insert("B".to_string(), InputDesc::dense(meta).generated());
        let cluster = provision_with_gen("c1.xlarge", 8, 8, meta, &["A", "B"]);
        let t = opt
            .execute_on(&cluster, &program, &inputs, "t", ExecMode::Simulated)
            .unwrap()
            .makespan_s;
        s.push(vec![tile.to_string(), meta.tile_count().to_string(), f(t)]);
    }
    s
}

// ---------------------------------------------------------------------------
// E13: billing-policy ablation
// ---------------------------------------------------------------------------

/// E13 — hourly vs per-second billing changes what the optimizer buys:
/// hour-quantization rewards "fill the hour" deployments; per-second
/// pricing smooths the curve.
pub(crate) fn e13() -> Series {
    let mut s = Series::new(
        "E13",
        "min cost vs deadline under hourly vs per-second billing (RSVD sketch)",
        &[
            "deadline (min)",
            "hourly $ (deployment)",
            "per-second $ (deployment)",
        ],
    );
    let rsvd = Rsvd {
        m: 400_000,
        n: 200_000,
        k: 200,
        tile_size: 1_000,
        power_iters: 0,
        seed: 9,
    };
    let program = cumulon::workloads::Workload::program(&rsvd, 0);
    let inputs = cumulon::workloads::Workload::inputs(&rsvd, 0);
    let opt = optimizer();
    for deadline_min in [120.0, 60.0, 30.0, 15.0] {
        let cell = |billing| {
            let space = SearchSpace {
                max_nodes: 48,
                node_stride: 2,
                billing,
                ..Default::default()
            };
            match opt.optimize(
                &program,
                &inputs,
                space,
                Constraint::Deadline(deadline_min * 60.0),
            ) {
                Ok(p) => format!(
                    "{:.2} ({} x{})",
                    p.estimate.cost_dollars, p.instance.name, p.nodes
                ),
                Err(_) => "infeasible".to_string(),
            }
        };
        let hourly = cell(BillingPolicy::HourlyCeil);
        let per_second = cell(BillingPolicy::PerSecond);
        s.push(vec![format!("{deadline_min:.0}"), hourly, per_second]);
    }
    s
}

// ---------------------------------------------------------------------------
// E14: fusion ablation
// ---------------------------------------------------------------------------

/// E14 — value of fusing element-wise chains into single jobs (one of the
/// execution-model advantages over operator-at-a-time engines).
pub(crate) fn e14() -> Series {
    use cumulon::core::lower::{build_plan_with, PlanOptions};

    let mut s = Series::new(
        "E14",
        "GNMF iteration with and without element-wise fusion (m1.xlarge x10)",
        &["plan", "jobs", "sim time (s)"],
    );
    let gnmf = Gnmf {
        m: 100_000,
        n: 100_000,
        rank: 50,
        tile_size: 1_000,
        density: 0.01,
        seed: 5,
    };
    let program = cumulon::workloads::Workload::program(&gnmf, 0);
    let inputs = cumulon::workloads::Workload::inputs(&gnmf, 0);
    let opt = optimizer();
    for fuse in [true, false] {
        let cluster = Cluster::provision(ClusterSpec::named("m1.xlarge", 10, 4).unwrap()).unwrap();
        gnmf.setup(cluster.store()).unwrap();
        let view = cumulon::core::estimate::ClusterView {
            instance: cumulon::cluster::instances::by_name("m1.xlarge").unwrap(),
            nodes: 10,
            slots: 4,
            replication: 3,
        };
        let chooser = cumulon::core::deploy::CostBasedChooser {
            coeffs: *opt.model().for_instance("m1.xlarge").unwrap(),
            view,
        };
        let plan = build_plan_with(&program, &inputs, &chooser, "t", PlanOptions { fuse }).unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        let report = cluster.run(&dag, ExecMode::Simulated).unwrap();
        s.push(vec![
            if fuse {
                "fused (Cumulon)"
            } else {
                "unfused (op-at-a-time)"
            }
            .to_string(),
            plan.jobs.len().to_string(),
            f(report.makespan_s),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E15: job-time predictor comparison (wave model vs Monte-Carlo)
// ---------------------------------------------------------------------------

/// E15 — the paper's "simulation" technique: Monte-Carlo list-scheduling
/// simulation vs the closed-form wave model, compared against the DES
/// ground truth across straggler regimes.
pub(crate) fn e15() -> Series {
    use cumulon::core::estimate::{job_time_mc, job_time_s};
    use cumulon::core::lower::UnitSplits;

    let mut s = Series::new(
        "E15",
        "job-time prediction: wave model vs Monte-Carlo simulation (multiply 10k^3)",
        &[
            "sigma",
            "DES actual (s)",
            "wave model (s)",
            "MC sim (s)",
            "wave err",
            "MC err",
        ],
    );
    let (program, inputs, meta) = square_multiply(10_000);
    for sigma in [0.0, 0.08, 0.3, 0.6] {
        let hw = HardwareModel {
            noise: cumulon::cluster::hw::NoiseModel { sigma, seed: 0xe15 },
            ..HardwareModel::default()
        };
        let cluster = Cluster::provision_with(
            ClusterSpec::named("m1.large", 6, 2).unwrap(),
            hw,
            DfsConfig::default(),
        )
        .unwrap();
        for (i, name) in ["A", "B"].iter().enumerate() {
            cluster
                .store()
                .register_generated(name, meta, Generator::DenseGaussian { seed: i as u64 + 1 })
                .unwrap();
        }
        let plan = build_plan(&program, &inputs, &UnitSplits, "t").unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        let report = cluster.run(&dag, ExecMode::Simulated).unwrap();
        let actual = report.makespan_s;
        // Use the run's own mean task time so only the *scheduling* model
        // differs between predictors.
        let job = &report.jobs[0];
        let mean = job.mean_task_s();
        let n = job.tasks.len();
        let wave = job_time_s(mean, n, 12, sigma);
        let mc = job_time_mc(mean, n, 12, sigma, 7, 300);
        s.push(vec![
            format!("{sigma}"),
            f(actual),
            f(wave),
            f(mc),
            format!("{:+.0}%", 100.0 * (wave / actual - 1.0)),
            format!("{:+.0}%", 100.0 * (mc / actual - 1.0)),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E16: replication-factor configuration knob
// ---------------------------------------------------------------------------

/// E16 — HDFS replication: higher factors cost write bandwidth but buy
/// read locality (and fault tolerance); the optimizer's view models both.
pub(crate) fn e16() -> Series {
    let mut s = Series::new(
        "E16",
        "replication factor: multiply 12k^3 on m1.xlarge x8 (4 slots)",
        &[
            "replication",
            "sim time (s)",
            "write GB (physical)",
            "local read %",
        ],
    );
    let (program, mut inputs, meta) = square_multiply(12_000);
    // Inputs are *stored* matrices here (not generator-backed): reads must
    // exercise replication-dependent locality.
    for desc in inputs.values_mut() {
        desc.generated = false;
    }
    let opt = optimizer();
    for replication in [1usize, 2, 3, 5] {
        let spec = ClusterSpec::named("m1.xlarge", 8, 4).unwrap();
        let cluster = Cluster::provision_with(
            spec,
            HardwareModel::default(),
            DfsConfig {
                replication,
                ..Default::default()
            },
        )
        .unwrap();
        // Store A and B as real *written* matrices in phantom form, so
        // reads actually exercise replication-dependent locality.
        for (i, name) in ["A", "B"].iter().enumerate() {
            cluster.store().register(name, meta).unwrap();
            for (ti, tj) in meta.grid().iter() {
                let (r, c) = meta.tile_dims(ti, tj);
                let tile = cumulon::matrix::Tile::phantom_dense(r, c);
                let writer = cumulon::dfs::dfs::NodeId(((ti * 7 + tj * 3 + i) % 8) as u32);
                cluster
                    .store()
                    .write_tile(name, ti, tj, &tile, Some(writer))
                    .unwrap();
            }
        }
        let report = opt
            .execute_on(&cluster, &program, &inputs, "t", ExecMode::Simulated)
            .unwrap();
        let write_bytes: u64 = report
            .jobs
            .iter()
            .map(|j| j.receipt.write.local_bytes + j.receipt.write.remote_bytes)
            .sum();
        let (lr, rr) = report.jobs.iter().fold((0u64, 0u64), |(l, r), j| {
            (
                l + j.receipt.read.local_bytes,
                r + j.receipt.read.remote_bytes,
            )
        });
        s.push(vec![
            replication.to_string(),
            f(report.makespan_s),
            format!("{:.1}", write_bytes as f64 / 1e9),
            format!("{:.0}%", 100.0 * lr as f64 / (lr + rr).max(1) as f64),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E17: lineage-recovery overhead under mid-run node failure
// ---------------------------------------------------------------------------

/// E17 — fault recovery: a node dies mid-run at replication 1, taking its
/// intermediate tiles with it; lineage re-runs just the producing tasks of
/// the lost tiles. Overhead over the failure-free run is the price paid,
/// swept over when in the run the node dies.
pub(crate) fn e17() -> Series {
    use cumulon::cluster::{FailurePlan, SchedulerConfig};
    use cumulon::core::RecoveryConfig;

    let mut s = Series::new(
        "E17",
        "lineage recovery: (A*B)*C 8k^3 on m1.large x8, node killed mid-run (repl 1)",
        &[
            "kill at",
            "time (s)",
            "overhead",
            "node deaths",
            "lost blocks",
            "recovered jobs",
        ],
    );
    // A two-job multiply chain: the first job's output is the intermediate
    // whose loss forces partial re-execution up the lineage.
    let meta = MatrixMeta::new(8_000, 8_000, 1_000);
    let mut pb = ProgramBuilder::new();
    let a = pb.input("A");
    let b = pb.input("B");
    let c = pb.input("C");
    let ab = pb.mul(a, b);
    let abc = pb.mul(ab, c);
    pb.output("D", abc);
    let program = pb.build();
    let mut inputs = BTreeMap::new();
    for name in ["A", "B", "C"] {
        inputs.insert(name.to_string(), InputDesc::dense(meta).generated());
    }
    // Replication 1, generator-backed inputs: a death loses *only*
    // intermediates (source tiles re-synthesize on read), so every run is
    // recoverable and the overhead isolates re-execution cost.
    let provision = || {
        let spec = ClusterSpec::named("m1.large", 8, 2).unwrap();
        let cluster = Cluster::provision_with(
            spec,
            HardwareModel::default(),
            DfsConfig {
                replication: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            cluster
                .store()
                .register_generated(name, meta, Generator::DenseGaussian { seed: i as u64 + 1 })
                .unwrap();
        }
        cluster
    };
    let opt = optimizer();
    let clean = opt
        .execute_on(&provision(), &program, &inputs, "t", ExecMode::Simulated)
        .unwrap();
    s.push(vec![
        "(none)".to_string(),
        f(clean.makespan_s),
        "+0%".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
    ]);
    for frac in [0.25, 0.5, 0.75, 0.9] {
        let cluster = provision();
        let failures = FailurePlan {
            node_failures: vec![(clean.makespan_s * frac, 1)],
            ..Default::default()
        };
        let report = opt
            .execute_on_with(
                &cluster,
                &program,
                &inputs,
                "t",
                ExecMode::Simulated,
                SchedulerConfig::default(),
                &failures,
                RecoveryConfig::default(),
            )
            .unwrap();
        s.push(vec![
            format!("{:.0}%", 100.0 * frac),
            f(report.makespan_s),
            format!(
                "{:+.0}%",
                100.0 * (report.makespan_s / clean.makespan_s - 1.0)
            ),
            report.faults.node_deaths.to_string(),
            report.faults.lost_block_events.to_string(),
            report.faults.recovered_jobs.to_string(),
        ]);
    }
    s
}

/// E18 — where the time goes: critical-path phase attribution of the
/// Gram-matrix program (G = AᵀA), from a span-level trace of the run,
/// with the optimizer's analytic per-phase prediction alongside.
pub(crate) fn e18() -> Series {
    e18_with_log().0
}

/// The traced run behind `e18`, also returning the raw trace log so
/// `repro --trace FILE` can export the timeline JSON of the same run the
/// table was computed from.
pub fn e18_with_log() -> (Series, cumulon::cluster::TraceLog) {
    use cumulon::cluster::{FailurePlan, SchedulerConfig, Trace};
    use cumulon::core::RecoveryConfig;

    let mut s = Series::new(
        "E18",
        "critical-path attribution: G = A'A 20000x4000 on m1.large x8 (traced run)",
        &[
            "phase",
            "critical path (s)",
            "% makespan",
            "predicted (task-s)",
            "actual (task-s)",
        ],
    );
    let meta = MatrixMeta::new(20_000, 4_000, 1_000);
    let mut pb = ProgramBuilder::new();
    let a = pb.input("A");
    let at = pb.transpose(a);
    let g = pb.mul(at, a);
    pb.output("G", g);
    let program = pb.build();
    let mut inputs = BTreeMap::new();
    inputs.insert("A".to_string(), InputDesc::dense(meta).generated());
    let cluster = Cluster::provision(ClusterSpec::named("m1.large", 8, 2).unwrap()).unwrap();
    cluster
        .store()
        .register_generated("A", meta, Generator::DenseGaussian { seed: 1 })
        .unwrap();
    let opt = optimizer();
    let trace = Trace::enabled();
    let report = opt
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "t",
            ExecMode::Simulated,
            SchedulerConfig::default(),
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &trace,
        )
        .unwrap();
    let log = trace.snapshot().unwrap();
    let cp = log.critical_path();
    let (predicted, _) = opt.predict_phases_on(&cluster, &program, &inputs).unwrap();
    let actual = log.phase_totals();
    let mk = report.makespan_s.max(1e-12);
    let phases = [
        (
            "compute",
            cp.phases.compute_s,
            predicted.compute_s,
            actual.compute_s,
        ),
        ("read", cp.phases.read_s, predicted.read_s, actual.read_s),
        (
            "write",
            cp.phases.write_s,
            predicted.write_s,
            actual.write_s,
        ),
        (
            "startup",
            cp.phases.startup_s,
            predicted.startup_s,
            actual.startup_s,
        ),
        (
            "overhead",
            cp.phases.overhead_s,
            predicted.overhead_s,
            actual.overhead_s,
        ),
    ];
    for (name, path_s, pred, act) in phases {
        s.push(vec![
            name.to_string(),
            f(path_s),
            format!("{:.1}%", 100.0 * path_s / mk),
            f(pred),
            f(act),
        ]);
    }
    s.push(vec![
        "idle".to_string(),
        f(cp.idle_s),
        format!("{:.1}%", 100.0 * cp.idle_s / mk),
        "-".to_string(),
        "-".to_string(),
    ]);
    s.push(vec![
        "makespan".to_string(),
        f(report.makespan_s),
        "100.0%".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    (s, log)
}

// ---------------------------------------------------------------------------
// E19: spot vs on-demand expected cost under a deadline
// ---------------------------------------------------------------------------

/// E19 — bid-vs-checkpoint optimization: for a sweep of spot-market mean
/// prices (as fractions of the on-demand list price), search
/// {on-demand, spot(bid)} × checkpoint interval for the minimum expected
/// cost under a deadline, pricing expected rework with the revocation
/// hazard. Cheap markets favour spot with checkpoints; as the market
/// price approaches list the paid rate *and* the revocation hazard rise
/// together, so the winner flips to on-demand exactly once.
pub(crate) fn e19() -> Series {
    use cumulon::cluster::billing::BillingPolicy;
    use cumulon::core::{DeploymentSearch, SpotHazard, SpotSearchSpace};

    let mut s = Series::new(
        "E19",
        "spot vs on-demand: 20k^3 multiply, expected cost under deadline (bid x ckpt search)",
        &[
            "mean price",
            "choice",
            "ckpt (s)",
            "est time (s)",
            "rework (s)",
            "rework ratio",
            "cost ($)",
            "on-demand ($)",
        ],
    );
    let (program, inputs, _) = square_multiply(20_000);
    let model = idealized_cost_model();
    // Per-second billing keeps the expected-cost curve free of hour-ceiling
    // quantization, so the crossover the table demonstrates is clean.
    let space = SearchSpace {
        max_nodes: 16,
        node_stride: 2,
        billing: BillingPolicy::PerSecond,
        ..Default::default()
    };
    let search = DeploymentSearch::new(&model, space);
    // Deadline: 1.5x the tightest feasible makespan, so on-demand always
    // fits while risky unchecked spot configurations can price themselves
    // out through rework.
    let base = search
        .optimize(&program, &inputs, Constraint::Deadline(86_400.0))
        .expect("base deployment for E19");
    let deadline_s = 1.5 * base.estimate.makespan_s;
    for frac in [0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0] {
        let spot = SpotSearchSpace {
            hazard: SpotHazard {
                mean_price_fraction: frac,
                ..SpotHazard::typical()
            },
            ..Default::default()
        };
        let (plan, choice) = search
            .optimize_spot(&program, &inputs, deadline_s, &spot)
            .expect("spot optimization for E19");
        let curve = search.spot_curve(&plan, &spot);
        let on_demand = &curve[0];
        let fail_free = plan.estimate.makespan_s.max(1e-12);
        s.push(vec![
            format!("{:.2}x", frac),
            choice.procurement.label(),
            format!("{:.0}", choice.checkpoint_interval_s),
            f(choice.expected_makespan_s),
            format!("{:.0}", choice.expected_rework_s),
            format!("{:.1}%", 100.0 * choice.expected_rework_s / fail_free),
            format!("{:.2}", choice.expected_cost_dollars),
            format!("{:.2}", on_demand.expected_cost_dollars),
        ]);
    }
    s
}

// ---------------------------------------------------------------------------
// E20: out-of-core tile plane under pressure
// ---------------------------------------------------------------------------

/// E20 — spill transparency: Gram (`G = AᵀA`) and square GEMM runs whose
/// working sets exceed the resident-tile budget by ~10x and ~100x, in
/// *real* mode so tiles actually move through the LRU/blob machinery.
/// Every budgeted run must reproduce the unbounded run's fingerprint and
/// output bits at 1 worker thread and at N (the plane costs zero
/// simulated time by construction); the table reports the churn each
/// budget causes. The working set is measured, not assumed: a probe run
/// under an effectively unbounded plane reports its resident bytes.
pub(crate) fn e20() -> Series {
    use cumulon::cluster::{FailurePlan, SchedulerConfig, Trace};
    use cumulon::core::RecoveryConfig;
    use cumulon::dfs::{SpillConfig, SpillStats};

    let mut s = Series::new(
        "E20",
        "out-of-core tile plane: working sets ~10x/~100x the resident budget (real run)",
        &[
            "workload",
            "budget (KiB)",
            "ws/budget",
            "evict",
            "readmit",
            "spilled (MB)",
            "codec ratio",
            "identical t1/tN",
        ],
    );
    let n_threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    // (workload index, threads, budget) -> (fingerprint+output bits, stats)
    let run = |wl: usize, threads: usize, budget: u64| -> (String, Option<SpillStats>) {
        let meta = MatrixMeta::new(512, 512, 64);
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 4, 2).unwrap()).unwrap();
        if budget > 0 {
            cluster
                .store()
                .set_memory_budget(&SpillConfig::budgeted(budget))
                .unwrap();
        }
        let mut pb = ProgramBuilder::new();
        let mut inputs = BTreeMap::new();
        let output = if wl == 0 {
            cluster
                .store()
                .register_generated("A", meta, Generator::DenseGaussian { seed: 3 })
                .unwrap();
            inputs.insert("A".to_string(), InputDesc::dense(meta).generated());
            let a = pb.input("A");
            let at = pb.transpose(a);
            let g = pb.mul(at, a);
            pb.output("G", g);
            "G"
        } else {
            for (name, seed) in [("A", 3), ("B", 5)] {
                cluster
                    .store()
                    .register_generated(name, meta, Generator::DenseGaussian { seed })
                    .unwrap();
                inputs.insert(name.to_string(), InputDesc::dense(meta).generated());
            }
            let a = pb.input("A");
            let b = pb.input("B");
            let c = pb.mul(a, b);
            pb.output("C", c);
            "C"
        };
        let program = pb.build();
        let report = optimizer()
            .execute_on_traced(
                &cluster,
                &program,
                &inputs,
                "e20",
                ExecMode::Real,
                SchedulerConfig::default().with_threads(threads),
                &FailurePlan::default(),
                RecoveryConfig::default(),
                &Trace::disabled(),
            )
            .unwrap();
        // Reading the result back drags every spilled tile through the
        // blob store, so the fingerprint also covers re-admission.
        let out = cluster.store().get_local(output).unwrap();
        let fp = format!(
            "{}out {:016x}",
            report.fingerprint(),
            out.frob_norm().to_bits()
        );
        (fp, cluster.store().dfs().spill_stats())
    };
    for (wl, name) in [(0, "gram 512^2 t128"), (1, "gemm 512^2 t128")] {
        let (base_fp, none) = run(wl, 1, 0);
        debug_assert!(none.is_none());
        // Probe: an unbounded plane measures the working set and must
        // itself be invisible (it never evicts).
        let (probe_fp, probe) = run(wl, 1, u64::MAX);
        let ws = probe.expect("plane installed").resident_bytes;
        for budget in [ws / 10, ws / 100] {
            let (fp1, st1) = run(wl, 1, budget);
            let (fpn, _) = run(wl, n_threads, budget);
            let st = st1.expect("budgeted run installs a spill plane");
            s.push(vec![
                name.to_string(),
                format!("{}", budget >> 10),
                format!("{:.0}x", ws as f64 / budget.max(1) as f64),
                st.evictions.to_string(),
                st.readmissions.to_string(),
                format!("{:.1}", st.spilled_bytes_total as f64 / 1e6),
                format!("{:.2}", st.blob.compression_ratio()),
                format!(
                    "{}/{}",
                    fp1 == base_fp && probe_fp == base_fp,
                    fpn == base_fp
                ),
            ]);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E22: spill-aware scheduling with tile prefetch
// ---------------------------------------------------------------------------

/// E22 — spill-aware scheduling: out-of-core two-step pipelines (a GEMM
/// feeding a Gram, and a GEMM feeding a second GEMM) whose intermediate
/// lives in the DFS tile plane, with the scheduler's residency-preferred
/// wave resolution and frontier tile prefetch switched on. The on arm
/// must reproduce the off arm's fingerprint and output bits exactly
/// (scheduling never moves simulated time — the
/// `spill-schedule-transparency` invariant) while converting synchronous
/// demand readbacks into overlapped prefetched ones. Spill stats are
/// sampled *before* the final result readback, so the table reports the
/// traffic the scheduler can actually influence; the reduction column is
/// the synchronous-readback cut the policy buys.
pub(crate) fn e22() -> Series {
    use cumulon::cluster::{FailurePlan, SchedulerConfig, Trace};
    use cumulon::core::RecoveryConfig;
    use cumulon::dfs::{SpillConfig, SpillStats};

    let mut s = Series::new(
        "E22",
        "spill-aware scheduling: prefetch vs demand readbacks at ws/budget 10x-100x (real run)",
        &[
            "workload",
            "budget (KiB)",
            "ws/budget",
            "readback off (MB)",
            "sync on (MB)",
            "prefetched",
            "sync reduction",
            "identical t1/tN",
        ],
    );
    let n_threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    let run =
        |wl: usize, threads: usize, budget: u64, depth: usize| -> (String, Option<SpillStats>) {
            let meta = MatrixMeta::new(512, 512, 64);
            let cluster =
                Cluster::provision(ClusterSpec::named("m1.large", 4, 2).unwrap()).unwrap();
            if budget > 0 {
                cluster
                    .store()
                    .set_memory_budget(&SpillConfig::budgeted(budget))
                    .unwrap();
            }
            let mut pb = ProgramBuilder::new();
            let mut inputs = BTreeMap::new();
            for (name, seed) in [("A", 3), ("B", 5)] {
                cluster
                    .store()
                    .register_generated(name, meta, Generator::DenseGaussian { seed })
                    .unwrap();
                inputs.insert(name.to_string(), InputDesc::dense(meta).generated());
            }
            let a = pb.input("A");
            let b = pb.input("B");
            let c = pb.mul(a, b);
            // A GEMM followed by a fan of three element-wise consumers of C.
            // Each consumer is its own fused job whose tasks read one C tile
            // per output tile — the shape the boundary prefetch serves: the
            // producing multiply churns C through the budget, so by the time
            // a consumer wave resolves, its read frontier sits in the spill
            // plane. wl 1 reads C transposed (column-order readbacks).
            let src = if wl == 0 { c } else { pb.transpose(c) };
            let p = pb.add(src, a);
            pb.output("P", p);
            let q = pb.sub(src, b);
            pb.output("Q", q);
            let r = pb.scale(src, 0.5);
            pb.output("R", r);
            let output = "P";
            let program = pb.build();
            let config = SchedulerConfig::default()
                .with_threads(threads)
                .with_prefetch(depth);
            let report = optimizer()
                .execute_on_traced(
                    &cluster,
                    &program,
                    &inputs,
                    "e22",
                    ExecMode::Real,
                    config,
                    &FailurePlan::default(),
                    RecoveryConfig::default(),
                    &Trace::disabled(),
                )
                .unwrap();
            // In-run traffic only: the result readback below drags every
            // spilled output tile back synchronously no matter how the
            // scheduler behaved, so it stays out of the comparison (but
            // inside the fingerprint, covering re-admission correctness).
            let stats = cluster.store().dfs().spill_stats();
            let out = cluster.store().get_local(output).unwrap();
            let fp = format!(
                "{}out {:016x}",
                report.fingerprint(),
                out.frob_norm().to_bits()
            );
            (fp, stats)
        };
    // One wave is 8 slots (4 nodes x 2); a 16-tile frontier covers a
    // wave's band reads with headroom for the next wave.
    const DEPTH: usize = 16;
    for (wl, name) in [(0, "gemm fan-3 512^2 t64"), (1, "gemm fan-3 C' 512^2 t64")] {
        let (probe_fp, probe) = run(wl, 1, u64::MAX, 0);
        let ws = probe.expect("plane installed").resident_bytes;
        for budget in [ws / 10, ws / 100] {
            let (fp_off, st_off) = run(wl, 1, budget, 0);
            let (fp_on, st_on) = run(wl, 1, budget, DEPTH);
            let (fp_tn, _) = run(wl, n_threads, budget, DEPTH);
            let off = st_off.expect("budgeted run installs a spill plane");
            let on = st_on.expect("budgeted run installs a spill plane");
            let sync_on = on.readback_bytes_total - on.readback_bytes_avoided;
            let reduction = 1.0 - sync_on as f64 / off.readback_bytes_total.max(1) as f64;
            s.push(vec![
                name.to_string(),
                format!("{}", budget >> 10),
                format!("{:.0}x", ws as f64 / budget.max(1) as f64),
                format!("{:.1}", off.readback_bytes_total as f64 / 1e6),
                format!("{:.1}", sync_on as f64 / 1e6),
                on.prefetched_files.to_string(),
                format!("{:.0}%", 100.0 * reduction),
                format!(
                    "{}/{}",
                    fp_on == fp_off && probe_fp == fp_off,
                    fp_tn == fp_off
                ),
            ]);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// T1 — the instance-type catalog.
pub(crate) fn t1() -> Series {
    let mut s = Series::new(
        "T1",
        "instance-type catalog (EC2 2013-like)",
        &[
            "name",
            "cores",
            "GF/core",
            "mem (MB)",
            "disk r/w (MB/s)",
            "net (MB/s)",
            "$/h",
        ],
    );
    for i in catalog() {
        s.push(vec![
            i.name.to_string(),
            i.cores.to_string(),
            format!("{:.1}", i.gflops_per_core),
            i.memory_mb.to_string(),
            format!("{:.0}/{:.0}", i.disk_read_mbs, i.disk_write_mbs),
            format!("{:.0}", i.net_mbs),
            format!("{:.3}", i.price_per_hour),
        ]);
    }
    s
}

/// T2 — benchmark-fitted cost-model coefficients.
pub(crate) fn t2() -> Series {
    let mut s = Series::new(
        "T2",
        "calibrated task-time coefficients (fitted from probe benchmarks)",
        &[
            "instance",
            "c0 (s)",
            "s/GFlop",
            "s/GB lread",
            "s/GB rread",
            "s/GB lwrite",
            "s/GB rwrite",
            "sigma",
        ],
    );
    let instances: Vec<InstanceType> = ["m1.small", "m1.large", "c1.xlarge", "m2.2xlarge"]
        .iter()
        .filter_map(|n| cumulon::cluster::instances::by_name(n))
        .collect();
    let model = calibrate(&instances, &CalibrationConfig::default()).unwrap();
    for i in &instances {
        let c = model.for_instance(i.name).unwrap();
        s.push(vec![
            i.name.to_string(),
            format!("{:.2}", c.c[0]),
            format!("{:.3}", c.c[1] * 1e9),
            format!("{:.2}", c.c[2] * 1e9),
            format!("{:.2}", c.c[3] * 1e9),
            format!("{:.2}", c.c[4] * 1e9),
            format!("{:.2}", c.c[5] * 1e9),
            format!("{:.3}", c.sigma),
        ]);
    }
    s
}

/// T3 — optimizer-chosen deployments per workload under a 1-hour deadline.
pub(crate) fn t3() -> Series {
    let mut s = Series::new(
        "T3",
        "chosen deployments per workload (deadline 60 min)",
        &[
            "workload",
            "instance",
            "nodes",
            "slots",
            "est time (s)",
            "est cost ($)",
        ],
    );
    let opt = optimizer();
    let space = SearchSpace {
        max_nodes: 48,
        node_stride: 2,
        ..Default::default()
    };

    let mut entry = |name: &str, program: &Program, inputs: &BTreeMap<String, InputDesc>| match opt
        .optimize(
            program,
            inputs,
            space.clone(),
            Constraint::Deadline(3_600.0),
        ) {
        Ok(p) => s.push(vec![
            name.to_string(),
            p.instance.name.to_string(),
            p.nodes.to_string(),
            p.slots.to_string(),
            f(p.estimate.makespan_s),
            format!("{:.2}", p.estimate.cost_dollars),
        ]),
        Err(_) => s.push(vec![
            name.to_string(),
            "infeasible".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]),
    };

    let (mp, mi, _) = square_multiply(40_000);
    entry("multiply-40k", &mp, &mi);
    let gnmf = Gnmf {
        m: 200_000,
        n: 200_000,
        rank: 50,
        tile_size: 1_000,
        density: 0.01,
        seed: 5,
    };
    entry(
        "gnmf-iter",
        &cumulon::workloads::Workload::program(&gnmf, 0),
        &cumulon::workloads::Workload::inputs(&gnmf, 0),
    );
    let rsvd = Rsvd {
        m: 400_000,
        n: 200_000,
        k: 200,
        tile_size: 1_000,
        power_iters: 0,
        seed: 9,
    };
    entry(
        "rsvd-sketch",
        &cumulon::workloads::Workload::program(&rsvd, 0),
        &cumulon::workloads::Workload::inputs(&rsvd, 0),
    );
    let reg = Regression {
        rows: 20_000_000,
        features: 2_000,
        tile_size: 1_000,
        lambda: 1.0,
        seed: 2,
    };
    entry(
        "regression-ne",
        &reg.normal_eq_program(),
        &reg.normal_eq_inputs(),
    );
    s
}

/// T4 — prediction-error summary (mean/max of E5's relative errors).
pub(crate) fn t4() -> Series {
    let e5 = e5();
    let mut s = Series::new(
        "T4",
        "prediction error summary over the E5 grid",
        &["rows", "mean rel err", "max rel err"],
    );
    let errs: Vec<f64> = e5
        .rows
        .iter()
        .map(|r| {
            r.last()
                .unwrap()
                .trim_end_matches('%')
                .parse::<f64>()
                .unwrap()
                / 100.0
        })
        .collect();
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let max = errs.iter().copied().fold(0.0, f64::max);
    s.push(vec![
        errs.len().to_string(),
        format!("{:.1}%", 100.0 * mean),
        format!("{:.1}%", 100.0 * max),
    ]);
    s
}

/// All experiments in order.
pub fn all() -> Vec<Series> {
    vec![
        e1(),
        e2(),
        e3(),
        e4(),
        e5(),
        e6(),
        e7(),
        e8(),
        e9(),
        e10(),
        e11(),
        e12(),
        e13(),
        e14(),
        e15(),
        e16(),
        e17(),
        e18(),
        e19(),
        e20(),
        e22(),
        t1(),
        t2(),
        t3(),
        t4(),
    ]
}

/// Looks up one experiment by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Series> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        "e5" => Some(e5()),
        "e6" => Some(e6()),
        "e7" => Some(e7()),
        "e8" => Some(e8()),
        "e9" => Some(e9()),
        "e10" => Some(e10()),
        "e11" => Some(e11()),
        "e12" => Some(e12()),
        "e13" => Some(e13()),
        "e14" => Some(e14()),
        "e15" => Some(e15()),
        "e16" => Some(e16()),
        "e17" => Some(e17()),
        "e18" => Some(e18()),
        "e19" => Some(e19()),
        "e20" => Some(e20()),
        "e22" => Some(e22()),
        "t1" => Some(t1()),
        "t2" => Some(t2()),
        "t3" => Some(t3()),
        "t4" => Some(t4()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_render() {
        let mut s = Series::new("EX", "demo", &["a", "bb"]);
        s.push(vec!["1".into(), "2".into()]);
        let text = s.render();
        assert!(text.contains("EX: demo"));
        assert!(text.contains("bb"));
    }

    #[test]
    fn t1_covers_catalog() {
        assert_eq!(t1().rows.len(), catalog().len());
    }

    #[test]
    fn e2_shows_speedup() {
        let s = e2();
        assert_eq!(s.rows.len(), 5);
        for row in &s.rows {
            let speedup: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.0, "baseline should be slower: {row:?}");
        }
    }

    #[test]
    fn e17_shows_recovery_overhead() {
        let s = e17();
        assert_eq!(s.rows[0][3], "0", "baseline row must be failure-free");
        for row in s.rows.iter().skip(1) {
            assert_eq!(row[3], "1", "exactly one node death per run: {row:?}");
            assert!(
                row[2].starts_with('+') && row[2] != "+0%",
                "recovery must cost time: {row:?}"
            );
        }
        assert!(
            s.rows
                .iter()
                .skip(1)
                .any(|r| r[5].parse::<u64>().unwrap() > 0),
            "at least one kill must force lineage re-execution"
        );
    }

    #[test]
    fn e18_critical_path_accounts_for_makespan() {
        let (s, log) = e18_with_log();
        let cp = log.critical_path();
        let rel = (cp.accounted_s() - cp.makespan_s).abs() / cp.makespan_s.max(1e-12);
        assert!(
            rel < 0.01,
            "critical path must account for the makespan within 1%: rel {rel}"
        );
        assert_eq!(s.rows.last().unwrap()[0], "makespan");
        assert!(!log.tasks.is_empty(), "traced run must record spans");
    }

    #[test]
    fn e19_crossover_is_monotone() {
        let s = e19();
        let winners: Vec<bool> = s.rows.iter().map(|r| r[1].starts_with("spot")).collect();
        assert!(winners[0], "cheap markets must favour spot: {s:?}");
        assert!(
            !winners[winners.len() - 1],
            "at list price on-demand must win: {s:?}"
        );
        let flips = winners.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "winner must flip exactly once: {winners:?}");
        for row in &s.rows {
            let cost: f64 = row[6].parse().unwrap();
            let on_demand: f64 = row[7].parse().unwrap();
            assert!(
                cost <= on_demand + 1e-9,
                "chosen cost must never exceed the on-demand reference: {row:?}"
            );
        }
    }

    /// E20's whole point: runs whose working sets dwarf the budget must
    /// stay bitwise-identical to the unbounded run at both thread
    /// counts, and must demonstrably spill (zero churn would make the
    /// identity column vacuous).
    #[test]
    fn e20_budgeted_runs_reproduce_unbounded_bits() {
        let s = e20();
        assert_eq!(s.rows.len(), 4, "{s:?}");
        for row in &s.rows {
            assert_eq!(row[7], "true/true", "spill plane not transparent: {row:?}");
            let evictions: u64 = row[3].parse().unwrap();
            assert!(evictions > 0, "budgeted run never evicted: {row:?}");
            let spilled: f64 = row[5].parse().unwrap();
            assert!(spilled > 0.0, "no bytes spilled: {row:?}");
        }
    }

    /// E22's gate: spill-aware scheduling must stay bitwise-transparent
    /// at both thread counts, must actually prefetch, and at the milder
    /// ws/budget ~10x point must cut synchronous readback bytes by at
    /// least 30% against the spill-aware-off arm.
    #[test]
    fn e22_prefetch_cuts_sync_readbacks_transparently() {
        let s = e22();
        assert_eq!(s.rows.len(), 4, "{s:?}");
        for row in &s.rows {
            assert_eq!(row[7], "true/true", "prefetch not transparent: {row:?}");
            let prefetched: u64 = row[5].parse().unwrap();
            assert!(prefetched > 0, "frontier prefetch never fired: {row:?}");
            let reduction: f64 = row[6].trim_end_matches('%').parse().unwrap();
            let ratio: f64 = row[2].trim_end_matches('x').parse().unwrap();
            if ratio <= 20.0 {
                assert!(
                    reduction >= 30.0,
                    "sync readbacks must drop >= 30% at ws/budget ~10x: {row:?}"
                );
            } else {
                assert!(
                    reduction > 0.0,
                    "sync readbacks must still drop under heavier pressure: {row:?}"
                );
            }
        }
    }

    #[test]
    fn e6_has_interior_or_boundary_best() {
        let s = e6();
        assert!(s.rows.iter().any(|r| r[2].contains("best")));
    }

    #[test]
    fn by_id_dispatch() {
        assert!(by_id("T1").is_some());
        assert!(by_id("e10").is_some());
        assert!(by_id("nope").is_none());
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn json_escapes_and_structures() {
        let mut s = Series::new("EX", "demo \"quoted\"", &["a", "b"]);
        s.push(vec!["1".into(), "x\\y".into()]);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""id":"EX""#));
        assert!(json.contains(r#"demo \"quoted\""#));
        assert!(json.contains(r#""x\\y""#));
    }

    #[test]
    fn json_for_real_experiment_parses_shape() {
        let json = t1().to_json();
        // Cheap structural checks without a JSON parser.
        assert_eq!(json.matches("\"rows\":").count(), 1);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
