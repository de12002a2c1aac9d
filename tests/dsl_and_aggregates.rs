//! Integration tests for the surface language: scripts compiled by
//! `cumulon-lang` must execute identically to hand-built programs and match
//! driver-side reference values.

use std::collections::BTreeMap;

use cumulon::prelude::*;

fn optimizer() -> Optimizer {
    Optimizer::new(idealized_cost_model())
}

#[test]
fn scripted_gnmf_update_matches_workload_crate() {
    // The same H-update, once through the DSL and once through the
    // hand-built GNMF workload — identical numbers.
    let gnmf = Gnmf {
        m: 24,
        n: 18,
        rank: 4,
        tile_size: 6,
        density: 0.4,
        seed: 11,
    };

    // Workload path.
    let c1 = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
    gnmf.setup(c1.store()).unwrap();
    gnmf.run(&optimizer(), &c1, 1, ExecMode::Real).unwrap();
    let h1_workload = c1.store().get_local("H_1").unwrap();

    // DSL path, from the same input matrices.
    let script =
        compile_source("WtV = W' * V;\nWtW = W' * W;\nH1 = H .* WtV ./ (WtW * H);").unwrap();
    let c2 = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
    for (script_name, store_name) in [("V", "V"), ("W", "W_0"), ("H", "H_0")] {
        let m = c1.store().get_local(store_name).unwrap();
        c2.store().put_local(script_name, &m).unwrap();
    }
    let mut descs = BTreeMap::new();
    descs.insert(
        "V".to_string(),
        InputDesc::sparse(c2.store().lookup("V").unwrap().meta, 0.4),
    );
    descs.insert(
        "W".to_string(),
        InputDesc::dense(c2.store().lookup("W").unwrap().meta),
    );
    descs.insert(
        "H".to_string(),
        InputDesc::dense(c2.store().lookup("H").unwrap().meta),
    );
    optimizer()
        .execute_on(&c2, &script.program, &descs, "dsl", ExecMode::Real)
        .unwrap();
    let h1_dsl = c2.store().get_local("H1").unwrap();

    assert!(h1_dsl.max_abs_diff(&h1_workload).unwrap() < 1e-9);
}

#[test]
fn scripted_chain_goes_through_the_optimizer() {
    // A 4-factor chain written naively right-associated in the script; the
    // optimizer's chain DP must still produce correct results.
    let script = compile_source("OUT = M0 * (M1 * (M2 * M3));").unwrap();
    assert_eq!(script.inputs, vec!["M0", "M1", "M2", "M3"]);

    let dims = [10usize, 30, 5, 20, 8];
    let cluster = Cluster::provision(ClusterSpec::named("c1.medium", 2, 2).unwrap()).unwrap();
    let mut locals = Vec::new();
    let mut descs = BTreeMap::new();
    for i in 0..4 {
        let meta = MatrixMeta::new(dims[i], dims[i + 1], 7);
        let m = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform {
                seed: i as u64,
                lo: -1.0,
                hi: 1.0,
            },
        );
        cluster.store().put_local(&format!("M{i}"), &m).unwrap();
        descs.insert(format!("M{i}"), InputDesc::dense(meta));
        locals.push(m);
    }
    optimizer()
        .execute_on(&cluster, &script.program, &descs, "chain", ExecMode::Real)
        .unwrap();
    let got = cluster.store().get_local("OUT").unwrap();
    let mut expect = locals[0].clone();
    for m in &locals[1..] {
        expect = expect.matmul(m).unwrap();
    }
    assert!(got.max_abs_diff(&expect).unwrap() < 1e-8);
}

#[test]
fn dsl_scale_and_functions_execute_correctly() {
    let script = compile_source("Y = 0.5 (A + A') + abs(-1 * A);").unwrap();
    let meta = MatrixMeta::new(12, 12, 5);
    let cluster = Cluster::provision(ClusterSpec::named("m1.small", 1, 1).unwrap()).unwrap();
    let a = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 3 });
    cluster.store().put_local("A", &a).unwrap();
    let mut descs = BTreeMap::new();
    descs.insert("A".to_string(), InputDesc::dense(meta));
    optimizer()
        .execute_on(&cluster, &script.program, &descs, "f", ExecMode::Real)
        .unwrap();
    let got = cluster.store().get_local("Y").unwrap();
    let mut sym = a
        .elementwise(&a.transpose(), cumulon::matrix::tile::ElemOp::Add)
        .unwrap();
    sym.scale(0.5);
    let expect = sym
        .elementwise(&a.map(f64::abs), cumulon::matrix::tile::ElemOp::Add)
        .unwrap();
    assert!(got.max_abs_diff(&expect).unwrap() < 1e-12);
}
