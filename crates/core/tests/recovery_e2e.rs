//! End-to-end lineage recovery: runs with a mid-run node death at
//! replication 1 (so the death actually loses tiles) must complete via
//! re-execution and produce bitwise-identical results to failure-free runs.

use std::collections::BTreeMap;

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, SchedulerConfig};
use cumulon_core::{InputDesc, Optimizer, Program, ProgramBuilder, RecoveryConfig};
use cumulon_dfs::DfsConfig;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{LocalMatrix, MatrixMeta};

const META: MatrixMeta = MatrixMeta {
    rows: 12,
    cols: 12,
    tile_size: 4,
};

fn optimizer() -> Optimizer {
    Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
}

fn input_gen(seed: u64) -> Generator {
    Generator::DenseUniform {
        seed,
        lo: -1.0,
        hi: 1.0,
    }
}

/// A replication-1 cluster with A, B, C registered as *generated* inputs:
/// immune to node death, so a mid-run kill loses only intermediates.
fn repl1_cluster(nodes: u32) -> Cluster {
    let spec = ClusterSpec::named("m1.large", nodes, 2).unwrap();
    let cluster = Cluster::provision_with(
        spec,
        Default::default(),
        DfsConfig {
            replication: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for (i, name) in ["A", "B", "C"].iter().enumerate() {
        cluster
            .store()
            .register_generated(name, META, input_gen(i as u64 + 1))
            .unwrap();
    }
    cluster
}

fn chain_program() -> (Program, BTreeMap<String, InputDesc>) {
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let bm = b.input("B");
    let cm = b.input("C");
    let ab = b.mul(a, bm);
    let abc = b.mul(ab, cm);
    b.output("ABC", abc);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    for name in ["A", "B", "C"] {
        inputs.insert(
            name.to_string(),
            InputDesc {
                meta: META,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );
    }
    (program, inputs)
}

#[test]
fn multiply_chain_recovers_from_midrun_node_death() {
    let opt = optimizer();
    let (program, inputs) = chain_program();

    // Failure-free baseline on its own cluster.
    let baseline = repl1_cluster(4);
    let clean = opt
        .execute_on(&baseline, &program, &inputs, "t", ExecMode::Real)
        .unwrap();
    let expect = baseline.store().get_local("ABC").unwrap();
    let (a, b, c) = (
        LocalMatrix::generate(META, &input_gen(1)),
        LocalMatrix::generate(META, &input_gen(2)),
        LocalMatrix::generate(META, &input_gen(3)),
    );
    let local = a.matmul(&b).unwrap().matmul(&c).unwrap();
    assert!(expect.max_abs_diff(&local).unwrap() < 1e-9);

    // Kill each node in turn mid-run: after the first job has produced
    // intermediate tiles, before the run completes. At replication 1 the
    // death loses whatever intermediates that node held; the generated
    // inputs are immune, so recovery always has a path back.
    let mid = clean.makespan_s * 0.6;
    let mut recovered_any = false;
    for node in 0..4u32 {
        let cluster = repl1_cluster(4);
        let failures = FailurePlan {
            node_failures: vec![(mid, node)],
            ..Default::default()
        };
        let report = opt
            .execute_on_with(
                &cluster,
                &program,
                &inputs,
                "t",
                ExecMode::Real,
                SchedulerConfig::default(),
                &failures,
                RecoveryConfig::default(),
            )
            .unwrap();
        assert_eq!(report.faults.node_deaths, 1, "node {node} death not seen");
        let got = cluster.store().get_local("ABC").unwrap();
        assert_eq!(
            got.max_abs_diff(&expect).unwrap(),
            0.0,
            "recovered result differs from failure-free run (node {node} killed)"
        );
        if report.faults.recovered_jobs > 0 {
            recovered_any = true;
            assert!(
                report.makespan_s > clean.makespan_s,
                "recovery overhead must show in the merged makespan"
            );
        }
    }
    // Across killing each of the 4 nodes at replication 1 mid-run, at
    // least one death must have actually forced lineage re-execution.
    assert!(recovered_any, "no node death exercised the recovery path");
}

#[test]
fn unrecoverable_when_source_input_lost() {
    let opt = optimizer();
    let (program, _) = chain_program();
    // Stored (non-generated) inputs this time: source tiles can be lost.
    let spec = ClusterSpec::named("m1.large", 2, 2).unwrap();
    let cluster = Cluster::provision_with(
        spec,
        Default::default(),
        DfsConfig {
            replication: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut inputs = BTreeMap::new();
    for (i, name) in ["A", "B", "C"].iter().enumerate() {
        let m = LocalMatrix::generate(META, &input_gen(i as u64 + 1));
        cluster.store().put_local(name, &m).unwrap();
        inputs.insert(name.to_string(), InputDesc::dense(META));
    }
    // Kill a node immediately: with replication 1 over 2 nodes some source
    // input blocks die with it, and no plan job can recompute those.
    let failures = FailurePlan {
        node_failures: vec![(0.0, 1)],
        ..Default::default()
    };
    let err = opt
        .execute_on_with(
            &cluster,
            &program,
            &inputs,
            "t",
            ExecMode::Real,
            SchedulerConfig::default(),
            &failures,
            RecoveryConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, cumulon_core::CoreError::Unrecoverable { .. }),
        "expected Unrecoverable, got: {err}"
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Whatever node dies, whenever it dies, a recovered multiply
        /// chain is bitwise-equal to the failure-free run.
        #[test]
        fn recovered_run_bitwise_equals_failure_free(node in 0u32..4, frac in 0.05f64..0.95) {
            let opt = optimizer();
            let (program, inputs) = chain_program();
            let baseline = repl1_cluster(4);
            let clean = opt
                .execute_on(&baseline, &program, &inputs, "t", ExecMode::Real)
                .unwrap();
            let expect = baseline.store().get_local("ABC").unwrap();

            let cluster = repl1_cluster(4);
            let failures = FailurePlan {
                node_failures: vec![(clean.makespan_s * frac, node)],
                ..Default::default()
            };
            let report = opt
                .execute_on_with(
                    &cluster,
                    &program,
                    &inputs,
                    "t",
                    ExecMode::Real,
                    SchedulerConfig::default(),
                    &failures,
                    RecoveryConfig::default(),
                )
                .unwrap();
            prop_assert_eq!(report.faults.node_deaths, 1);
            let got = cluster.store().get_local("ABC").unwrap();
            prop_assert_eq!(got.max_abs_diff(&expect).unwrap(), 0.0);
        }

        /// Lineage recovery composed with the worker pool: a mid-run node
        /// death recovered at N threads matches the sequential recovery
        /// run bitwise — same makespan, same fault counters, same output.
        #[test]
        fn parallel_recovery_bitwise_equals_sequential(
            node in 0u32..4,
            frac in 0.05f64..0.95,
            threads in 2usize..6,
        ) {
            let opt = optimizer();
            let (program, inputs) = chain_program();
            let run = |threads: usize| {
                let cluster = repl1_cluster(4);
                let failures = FailurePlan {
                    node_failures: vec![(40.0 * frac, node)],
                    ..Default::default()
                };
                let report = opt
                    .execute_on_with(
                        &cluster,
                        &program,
                        &inputs,
                        "t",
                        ExecMode::Real,
                        SchedulerConfig::default().with_threads(threads),
                        &failures,
                        RecoveryConfig::default(),
                    )
                    .unwrap();
                let out = cluster.store().get_local("ABC").unwrap();
                (report, out)
            };
            let (seq, seq_out) = run(1);
            let (par, par_out) = run(threads);
            prop_assert_eq!(seq.makespan_s.to_bits(), par.makespan_s.to_bits());
            prop_assert_eq!(seq.cost_dollars.to_bits(), par.cost_dollars.to_bits());
            prop_assert_eq!(seq.faults, par.faults);
            prop_assert_eq!(seq.jobs.len(), par.jobs.len());
            prop_assert_eq!(seq_out.max_abs_diff(&par_out).unwrap(), 0.0);
        }
    }
}

/// The paper-scale RSVD chain of the `sim_paper_scale` benchmark workload
/// (`Y0 = A·Ω; Y1 = A·(A'·Y0); G1 = Y1'·Y1; Bm = A'·Y1; G2 = Bm'·Bm`), built
/// node for node as the script compiler builds it.
fn rsvd_program() -> (Program, BTreeMap<String, InputDesc>) {
    let a_meta = MatrixMeta::new(131_072, 65_536, 2048);
    let omega_meta = MatrixMeta::new(65_536, 2048, 2048);
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let omega = b.input("Omega");
    let y0 = b.mul(a, omega);
    let at = b.transpose(a);
    let aty0 = b.mul(at, y0);
    let y1 = b.mul(a, aty0);
    let y1t = b.transpose(y1);
    let g1 = b.mul(y1t, y1);
    let at = b.transpose(a);
    let bm = b.mul(at, y1);
    let bmt = b.transpose(bm);
    let g2 = b.mul(bmt, bm);
    b.output("G1", g1);
    b.output("G2", g2);
    let inputs = BTreeMap::from([
        ("A".to_string(), InputDesc::dense(a_meta).generated()),
        (
            "Omega".to_string(),
            InputDesc::dense(omega_meta).generated(),
        ),
    ]);
    (b.build(), inputs)
}

/// FNV-1a over a run fingerprint: a stable 64-bit name for it.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins what lineage recovery does on the paper-scale RSVD chain when one
/// node of 32 × c1.xlarge dies at half the clean makespan, replication 1,
/// for each of the victims 0–4: the recovered-job count and fingerprint
/// of a survived run, or the give-up error. A node death walks the
/// namenode's whole namespace (`decommission_node`), so this holds the
/// failure path to the same placements, losses and re-runs whatever order
/// the namespace iterates in. Victims 0, 1 and 3 exhaust
/// `RecoveryConfig::max_rounds` — the open "recovery that gives up" case.
#[test]
fn rsvd_paper_scale_node_death_recovery_is_pinned() {
    let opt = optimizer();
    let (program, inputs) = rsvd_program();
    let cluster = || {
        let cluster = Cluster::provision_with(
            ClusterSpec::named("c1.xlarge", 32, 8).unwrap(),
            Default::default(),
            DfsConfig {
                replication: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for (stream, name) in ["A", "Omega"].into_iter().enumerate() {
            let seed = cumulon_matrix::gen::tile_seed(1, stream, 0);
            let meta = inputs[name].meta;
            cluster
                .store()
                .register_generated(name, meta, Generator::DenseGaussian { seed })
                .unwrap();
        }
        cluster
    };
    let run = |failures: &FailurePlan| {
        opt.execute_on_with(
            &cluster(),
            &program,
            &inputs,
            "sim",
            ExecMode::Simulated,
            SchedulerConfig::default(),
            failures,
            RecoveryConfig::default(),
        )
    };
    let clean = run(&FailurePlan::default()).unwrap();
    assert_eq!(fnv1a(&clean.fingerprint()), 0xc201_fb1e_3a52_6854);
    let gave_up = |job: &str, task: usize, tile: &str, completed: usize| {
        Err(format!(
            "execution failed: lineage recovery gave up after 8 rounds: task {task} of job \
             '{job}' failed after 4 attempts: storage error: all replicas lost for block 0 of \
             /matrix/{tile} ({completed} jobs completed, 1 blocks lost, 0 nodes dead)"
        ))
    };
    let want: [Result<(u64, u64), String>; 5] = [
        gave_up("mul#2", 0, "sim_m3/1_0", 2),
        gave_up("mul#4", 1, "sim_m4/14_0", 1),
        Ok((72, 0x19b4_7c11_691d_d54c)),
        gave_up("mul#4", 0, "sim_m4/29_0", 1),
        Ok((16, 0x0ed5_0298_5810_f1d3)),
    ];
    for (victim, want) in want.into_iter().enumerate() {
        let failures = FailurePlan {
            node_failures: vec![(clean.makespan_s / 2.0, victim as u32)],
            seed: 1,
            ..Default::default()
        };
        let got = run(&failures)
            .map(|r| {
                assert_eq!(r.faults.node_deaths, 1, "victim {victim}");
                (r.faults.recovered_jobs, fnv1a(&r.fingerprint()))
            })
            .map_err(|e| e.to_string());
        assert_eq!(got, want, "victim {victim}");
    }
}

#[test]
fn failure_free_run_report_is_clean() {
    let opt = optimizer();
    let (program, inputs) = chain_program();
    let cluster = repl1_cluster(3);
    let report = opt
        .execute_on(&cluster, &program, &inputs, "t", ExecMode::Real)
        .unwrap();
    assert!(report.faults.is_clean());
    assert_eq!(report.faults.recovered_jobs, 0);
    assert!(!report.summary().contains("faults"));
}
