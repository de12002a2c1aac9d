//! Per-layer metrics of a traced run, never gated.
//!
//! *Probes* time public functions of one layer directly, at the sizes the
//! workloads use, and are the same in every traced run whatever the
//! workload, so any two traced runs of one commit agree on them. *Workload
//! counters* are deltas of the program's public stats and the harness's
//! spans over the traced rounds of the workload at hand.

use std::time::Instant;

use cumulon_cluster::instances::by_name;
use cumulon_cluster::{Cluster, ClusterSpec, FailurePlan, SchedulerConfig, Trace};
use cumulon_core::deploy::{CostBasedChooser, DeploymentSearch};
use cumulon_core::estimate::{estimate_plan, ClusterView};
use cumulon_core::lower::build_plan;
use cumulon_core::{Constraint, SearchSpace};
use cumulon_dfs::{BlobKey, BlobStore, Dfs, DfsConfig, SpillConfig, SpillStats, TileStore};
use cumulon_lang::compile_source;
use cumulon_matrix::compress::{lz_compress, lz_decompress, Codec};
use cumulon_matrix::gen::{
    dense_gaussian_tile, dense_uniform_tile, sparse_uniform_tile, Generator,
};
use cumulon_matrix::serialize::{decode_tile, encode_tile};
use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::{DenseTile, LocalMatrix, MatrixMeta, Tile};
use cumulon_serve::protocol::Request;
use cumulon_serve::{engine, Client, Server, Service};

use crate::harness::{Fixture, Measured};
use crate::report::{Values, SELF_TIME_LAYERS};
use crate::spans::{self, Recorder};
use crate::stats::{iqr_ratio, median, quantile};
use crate::workloads::dense_incore::{self, Pipeline};
use crate::workloads::optimize_search::Planner;
use crate::workloads::serve_mix::{service_config, Call, Expected};
use crate::workloads::sim_paper_scale::{self, SimPaperScale};
use crate::workloads::{engine_config, zero_heavy, Config, OrString, ENGINE_THREADS, RSVD_SCRIPT};

/// Tile side of the kernel, codec and store probes: `dense_incore`'s and
/// `spill_write`'s.
const TILE: usize = 256;
const TILE_BYTES: f64 = (TILE * TILE * 8) as f64;

/// Median seconds of `reps` calls of `f`, after one untimed call.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Counters of the traced rounds of `fx`, and the harness's own numbers.
pub fn workload_counters(
    fx: &dyn Fixture,
    spill_before: Option<SpillStats>,
    untraced: &Measured,
    traced: &Measured,
) -> Values {
    let rounds = traced.attempted.max(1) as f64;
    let before = spill_before.unwrap_or_default();
    let after = fx.spill_stats().unwrap_or_default();
    let per_round = |a: u64, b: u64| a.saturating_sub(b) as f64 / rounds;
    let readback = after
        .readback_bytes_total
        .saturating_sub(before.readback_bytes_total);
    let avoided = after
        .readback_bytes_avoided
        .saturating_sub(before.readback_bytes_avoided);
    let mut v = Values::from([
        (
            "dfs.evictions",
            per_round(after.evictions, before.evictions),
        ),
        (
            "dfs.readmissions",
            per_round(after.readmissions, before.readmissions),
        ),
        (
            "dfs.spilled_mb",
            per_round(after.spilled_bytes_total, before.spilled_bytes_total) / 1e6,
        ),
        ("dfs.readback_mb", readback as f64 / rounds / 1e6),
        (
            "dfs.prefetched_files",
            per_round(after.prefetched_files, before.prefetched_files),
        ),
        (
            "dfs.readback_avoided_share",
            if readback == 0 {
                0.0
            } else {
                avoided as f64 / readback as f64
            },
        ),
        (
            "dfs.blob_compression_ratio",
            if after.blob.bytes_written == 0 {
                0.0
            } else {
                after.blob.compression_ratio()
            },
        ),
        (
            "dfs.blob_dedup_hits",
            per_round(after.blob.dedup_hits, before.blob.dedup_hits),
        ),
        ("dfs.blob_segments", after.blob.segments as f64),
        (
            "dfs.blob_compactions",
            per_round(after.blob.compactions, before.blob.compactions),
        ),
        ("dfs.ws_over_budget", fx.ws_over_budget()),
        (
            "bench.span_overhead_ratio",
            median(&traced.samples_ms) / median(&untraced.samples_ms),
        ),
        ("bench.warmup_s", untraced.warmup_s),
        ("bench.round_iqr_ratio", iqr_ratio(&untraced.samples_ms)),
        ("bench.round_ms_p50", median(&untraced.samples_ms)),
        ("bench.round_ms_p90", quantile(&untraced.samples_ms, 0.9)),
    ]);
    let layers = spans::layer_self_ms(&traced.spans);
    let round_ms: f64 = spans::durations_ms(&traced.spans, spans::ROUND)
        .iter()
        .sum();
    v.insert(
        "bench.layers_over_round",
        layers.values().sum::<f64>() / round_ms,
    );
    for (layer, name) in SELF_TIME_LAYERS {
        v.insert(name, layers.get(layer).copied().unwrap_or(0.0) / rounds);
    }
    v
}

/// Every probe, bottom layer first.
pub fn run_all(cfg: &Config) -> Result<Values, String> {
    let mut v = Values::new();
    matrix(&mut v)?;
    codec(cfg, &mut v)?;
    dfs(cfg, &mut v)?;
    cluster_and_trace(cfg, &mut v)?;
    des(cfg, &mut v)?;
    core_and_lang(cfg, &mut v)?;
    serve(&mut v)?;
    Ok(v)
}

fn matrix(v: &mut Values) -> Result<(), String> {
    for (name, n, reps) in [
        ("matrix.gemm_n256_gflops", TILE, 40),
        ("matrix.gemm_n1024_gflops", 1024, 3),
    ] {
        let a = dense_uniform_tile(1, 0, 0, n, n, -1.0, 1.0);
        let b = dense_uniform_tile(2, 0, 0, n, n, -1.0, 1.0);
        let mut c = DenseTile::zeros(n, n);
        let mut status = Ok(());
        let s = time_median(reps, || status = DenseTile::gemm_acc(&mut c, &a, &b));
        status.or_string()?;
        std::hint::black_box(&c);
        v.insert(name, 2.0 * (n as f64).powi(3) / s / 1e9);
    }

    let x = Tile::dense(dense_uniform_tile(3, 0, 0, TILE, TILE, -1.0, 1.0));
    let y = Tile::dense(dense_uniform_tile(4, 0, 0, TILE, TILE, -1.0, 1.0));
    let s = time_median(200, || {
        std::hint::black_box(x.elementwise(&y, ElemOp::Add).map(|t| t.rows()).ok());
    });
    // Computed bytes: two operands read, one result written.
    v.insert("matrix.ew_gb_s", 3.0 * TILE_BYTES / s / 1e9);

    let sparse = sparse_uniform_tile(5, 0, 0, TILE, TILE, 0.05);
    let dense = dense_uniform_tile(6, 0, 0, TILE, TILE, -1.0, 1.0);
    let mut c = DenseTile::zeros(TILE, TILE);
    let mut status = Ok(());
    let s = time_median(200, || status = sparse.spmm_acc(&mut c, &dense));
    status.or_string()?;
    v.insert(
        "matrix.spmm_gflops",
        2.0 * sparse.nnz() as f64 * TILE as f64 / s / 1e9,
    );

    let s = time_median(20, || {
        std::hint::black_box(dense_gaussian_tile(7, 0, 0, TILE, TILE));
    });
    v.insert("matrix.gen_mcells_s", (TILE * TILE) as f64 / s / 1e6);
    Ok(())
}

fn codec(cfg: &Config, v: &mut Values) -> Result<(), String> {
    let meta = MatrixMeta::new(TILE, TILE, TILE);
    let dense = Tile::dense(dense_gaussian_tile(cfg.seed, 0, 0, TILE, TILE));
    let zeros = zero_heavy(meta, cfg.seed)?;
    let zeros = zeros.tile(0, 0).or_string()?;

    let s = time_median(50, || {
        std::hint::black_box(encode_tile(&dense));
    });
    v.insert("matrix.encode_mb_s", TILE_BYTES / s / 1e6);
    let wire = encode_tile(&dense);
    let mut decoded = Ok(0);
    let s = time_median(50, || decoded = decode_tile(wire.clone()).map(|t| t.rows()));
    decoded.or_string()?;
    v.insert("matrix.decode_mb_s", TILE_BYTES / s / 1e6);

    let s = time_median(5, || {
        std::hint::black_box(lz_compress(&wire));
    });
    v.insert("matrix.lz_compress_dense_mb_s", wire.len() as f64 / s / 1e6);
    let wire = encode_tile(zeros);
    let s = time_median(10, || {
        std::hint::black_box(lz_compress(&wire));
    });
    v.insert(
        "matrix.lz_compress_sparse_mb_s",
        wire.len() as f64 / s / 1e6,
    );
    let packed = lz_compress(&wire);
    v.insert(
        "matrix.lz_ratio_sparse",
        wire.len() as f64 / packed.len() as f64,
    );
    let mut unpacked = Ok(0);
    let s = time_median(20, || {
        unpacked = lz_decompress(&packed).map(|raw| raw.len())
    });
    if unpacked.or_string()? != wire.len() {
        return Err("LZSS round trip changed the length".into());
    }
    v.insert("matrix.lz_decompress_mb_s", wire.len() as f64 / s / 1e6);
    Ok(())
}

fn dfs(cfg: &Config, v: &mut Values) -> Result<(), String> {
    // Handle plane: a 16-tile matrix in and out of an unbudgeted store.
    let meta = MatrixMeta::new(4 * TILE, 4 * TILE, TILE);
    let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: cfg.seed });
    let tiles = meta.tile_count() as f64;
    let store = TileStore::new(Dfs::new(4, DfsConfig::default()));
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        let t0 = Instant::now();
        store.put_local("M", &m).or_string()?;
        writes.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(store.get_local("M").or_string()?);
        reads.push(t0.elapsed().as_secs_f64());
        store.drop_matrix("M").or_string()?;
    }
    v.insert("dfs.handle_write_tiles_s", tiles / median(&writes));
    v.insert("dfs.handle_read_tiles_s", tiles / median(&reads));

    // Blob store alone: 16 raw payloads of one encoded tile each.
    let payloads: Vec<Vec<u8>> = m
        .iter_tiles()
        .map(|(_, t)| encode_tile(t).to_vec())
        .collect();
    let keys: Vec<BlobKey> = payloads.iter().map(|p| BlobKey::digest(p)).collect();
    let bytes: f64 = payloads.iter().map(|p| p.len() as f64).sum();
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for rep in 0..3 {
        let mut blob = BlobStore::open(cfg.scratch.join(format!("probe_blob{rep}"))).or_string()?;
        let t0 = Instant::now();
        for (key, p) in keys.iter().zip(&payloads) {
            blob.put(*key, Codec::Raw, p, p.len() as u32).or_string()?;
        }
        puts.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for key in &keys {
            std::hint::black_box(blob.get(*key).or_string()?);
        }
        gets.push(t0.elapsed().as_secs_f64());
    }
    v.insert("dfs.blob_put_mb_s", bytes / median(&puts) / 1e6);
    v.insert("dfs.blob_get_mb_s", bytes / median(&gets) / 1e6);

    // Spill plane: the same matrix through a one-tile budget, so every
    // write evicts its predecessor and every read readmits.
    let store = TileStore::new(Dfs::new(4, DfsConfig::default()));
    store
        .set_memory_budget(&SpillConfig {
            budget_bytes: TILE_BYTES as u64 + 4096,
            dir: Some(cfg.scratch.join("probe_spill")),
            compress: true,
        })
        .or_string()?;
    let stats = |s: &TileStore| {
        s.dfs()
            .spill_stats()
            .ok_or("budgeted store without a plane")
    };
    let (mut evict, mut readback) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let s0 = stats(&store)?;
        let t0 = Instant::now();
        store.put_local("M", &m).or_string()?;
        let put_s = t0.elapsed().as_secs_f64();
        let s1 = stats(&store)?;
        let t0 = Instant::now();
        std::hint::black_box(store.get_local("M").or_string()?);
        let get_s = t0.elapsed().as_secs_f64();
        let s2 = stats(&store)?;
        store.drop_matrix("M").or_string()?;
        evict.push((s1.spilled_bytes_total - s0.spilled_bytes_total) as f64 / put_s / 1e6);
        readback.push((s2.readback_bytes_total - s1.readback_bytes_total) as f64 / get_s / 1e6);
    }
    v.insert("dfs.evict_mb_s", median(&evict));
    v.insert("dfs.readback_mb_s", median(&readback));
    Ok(())
}

/// The `dense_incore` round as the workload runs it, at two engine threads,
/// and with the program's own tracing on, interleaved so that drift hits
/// all three.
fn cluster_and_trace(cfg: &Config, v: &mut Values) -> Result<(), String> {
    let spec = ClusterSpec::named("m1.large", 4, 2).or_string()?;
    let s = time_median(20, || {
        std::hint::black_box(
            Cluster::provision_with(spec, Default::default(), DfsConfig::default()).is_ok(),
        );
    });
    v.insert("cluster.provision_ms", s * 1e3);

    let pipeline = Pipeline::new(cfg.seed)?;
    let two_threads = SchedulerConfig::default().with_threads(2);
    // (round wall seconds, `cluster.run` milliseconds) per configuration.
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut execs: [Vec<f64>; 3] = Default::default();
    let (mut tasks, mut locality, mut log) = (0.0, 0.0, None);
    for _ in 0..3 {
        for (i, config) in [engine_config(), two_threads, engine_config()]
            .into_iter()
            .enumerate()
        {
            let trace = if i == 2 {
                Trace::enabled()
            } else {
                Trace::disabled()
            };
            let mut rec = Recorder::new(true, Instant::now());
            let t0 = Instant::now();
            let (report, _) = pipeline.run(&mut rec, config, &trace)?;
            walls[i].push(t0.elapsed().as_secs_f64());
            execs[i].extend(spans::durations_ms(&rec.into_spans(), "cluster.run"));
            tasks = report.total_tasks() as f64;
            locality = report.locality_rate();
            log = trace.snapshot().or(log);
        }
    }
    let exec_ms = median(&execs[0]);
    v.insert("cluster.exec_ms_p50", exec_ms);
    v.insert("cluster.tasks_per_round", tasks);
    v.insert("cluster.locality_rate", locality);
    v.insert("cluster.thread_speedup", exec_ms / median(&execs[1]));
    // What the round's FLOPs would take at the probed single-tile GEMM
    // rate on every engine thread: the floor the engine's overhead sits on.
    let kernel_ms = dense_incore::ROUND_FLOPS
        / (v["matrix.gemm_n256_gflops"] * 1e9 * ENGINE_THREADS as f64)
        * 1e3;
    v.insert("cluster.exec_over_kernel_ratio", exec_ms / kernel_ms);
    v.insert(
        "trace.enabled_overhead_ratio",
        median(&walls[2]) / median(&walls[0]),
    );
    let log = log.ok_or("an enabled trace handle gave no snapshot")?;
    let s = time_median(3, || {
        std::hint::black_box(log.to_chrome_json().len());
    });
    v.insert("trace.export_ms", s * 1e3);
    Ok(())
}

fn des(cfg: &Config, v: &mut Values) -> Result<(), String> {
    let fx = SimPaperScale::build(cfg)?;
    let (clean_tasks, faulted_tasks) = fx.tasks();
    let two_threads = SchedulerConfig::default().with_threads(2);
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut idle = Recorder::new(false, Instant::now());
    for _ in 0..3 {
        for (i, (config, failures)) in [
            (SchedulerConfig::default(), &FailurePlan::default()),
            (SchedulerConfig::default(), fx.failures()),
            (two_threads, &FailurePlan::default()),
        ]
        .into_iter()
        .enumerate()
        {
            let t0 = Instant::now();
            fx.simulation().run(&mut idle, config, failures)?;
            walls[i].push(t0.elapsed().as_secs_f64());
        }
    }
    v.insert(
        "cluster.sim_tasks_per_round",
        (clean_tasks + faulted_tasks) as f64,
    );
    v.insert(
        "cluster.sim_tasks_s",
        clean_tasks as f64 / median(&walls[0]),
    );
    v.insert(
        "cluster.sim_faulted_tasks_s",
        faulted_tasks as f64 / median(&walls[1]),
    );
    v.insert(
        "cluster.sim_thread_ratio",
        median(&walls[2]) / median(&walls[0]),
    );
    let clean = fx.clean_reference();
    v.insert("cluster.sim_makespan_s", clean.makespan_s);
    v.insert("cluster.sim_cost_dollars", clean.cost_dollars);
    Ok(())
}

fn core_and_lang(cfg: &Config, v: &mut Values) -> Result<(), String> {
    let s = time_median(200, || {
        std::hint::black_box(compile_source(RSVD_SCRIPT).is_ok());
    });
    v.insert("lang.compile_us", s * 1e6);

    let planner = Planner::new(cfg.seed);
    let (optimizer, inputs) = (planner.optimizer(), planner.inputs());
    let model = optimizer.model();
    let program = compile_source(RSVD_SCRIPT).or_string()?.program;
    let rewritten = optimizer.rewrite(&program, inputs).or_string()?;

    // One candidate: lower the chain for the sim_paper_scale fleet, then
    // estimate it.
    let view = ClusterView {
        instance: by_name("c1.xlarge").ok_or("c1.xlarge left the catalog")?,
        nodes: sim_paper_scale::NODES,
        slots: sim_paper_scale::SLOTS,
        replication: 3,
    };
    let chooser = CostBasedChooser {
        coeffs: *model
            .for_instance(view.instance.name)
            .ok_or("no model for c1.xlarge")?,
        view,
    };
    let s = time_median(20, || {
        std::hint::black_box(build_plan(&rewritten, inputs, &chooser, "t").is_ok());
    });
    v.insert("core.lower_ms", s * 1e3);
    let plan = build_plan(&rewritten, inputs, &chooser, "t").or_string()?;
    let s = time_median(50, || {
        std::hint::black_box(estimate_plan(&plan, &view, model).is_ok());
    });
    v.insert("core.estimate_us_per_plan", s * 1e6);

    // The grid up to 16 nodes: every candidate lowered and estimated, then
    // the same grid searched under a budget (which prunes nothing).
    let small = SearchSpace {
        max_nodes: 16,
        ..Default::default()
    };
    let search = DeploymentSearch::new(model, small.clone());
    let mut rows = 0;
    let s = time_median(2, || {
        rows = search.sweep(&rewritten, inputs).map_or(0, |r| r.len());
    });
    v.insert("core.deploy_candidates", rows as f64);
    v.insert("core.deploy_candidates_s", rows as f64 / s);
    let s = time_median(3, || {
        std::hint::black_box(
            optimizer
                .optimize(&program, inputs, small.clone(), Constraint::Budget(50.0))
                .is_ok(),
        );
    });
    v.insert("core.optimize_budget_ms_p50", s * 1e3);

    // The two searches of the optimize_search round, span by span.
    let mut rec = Recorder::new(true, Instant::now());
    for _ in 0..5 {
        planner.decide(&mut rec)?;
    }
    let recorded = rec.into_spans();
    for (name, span) in [
        ("core.optimize_deadline_ms_p50", "core.optimize"),
        ("core.optimize_spot_ms_p50", "core.optimize_spot"),
    ] {
        v.insert(name, median(&spans::durations_ms(&recorded, span)));
    }
    Ok(())
}

fn serve(v: &mut Values) -> Result<(), String> {
    const REPS: usize = 7;
    let expected = Expected::compute()?;
    let line = |call: Call, job: &str| call.line("probe", "probe", job);

    let plan_line = line(Call::Plan, "");
    let s = time_median(500, || {
        std::hint::black_box(Request::parse(&plan_line).is_ok());
    });
    v.insert("serve.parse_us", s * 1e6);

    // The three pipelines called directly, without the service around them.
    let request = |call: Call| Request::parse(&line(call, ""));
    let (plan_req, optimize_req, run_req) = (
        request(Call::Plan)?,
        request(Call::Optimize)?,
        request(Call::Run)?,
    );
    let direct_s = time_median(REPS, || {
        std::hint::black_box(engine::plan(&plan_req).is_ok());
    }) + time_median(REPS, || {
        std::hint::black_box(engine::optimize(&optimize_req).is_ok());
    }) + time_median(REPS, || {
        std::hint::black_box(engine::run(&run_req, 1, false).is_ok());
    });

    // In process: `Service::handle`, the whole protocol minus the socket.
    let mut rejected = 0u64;
    let mut check = |call: Call, reply: &str| -> Option<String> {
        let parsed = cumulon_trace::json::parse(reply).ok()?;
        match expected.check(call, &parsed) {
            Ok(job) => job,
            Err(_) => {
                rejected += 1;
                None
            }
        }
    };
    let mut service = Service::start(service_config());
    let mut job = check(Call::Run, &service.handle(&line(Call::Run, "")))
        .ok_or("the service refused the first run")?;
    let mut handle_ms = Vec::new();
    for call in Call::ALL {
        let request = line(call, &job);
        let mut reply = String::new();
        let s = time_median(REPS, || reply = service.handle(&request));
        if let Some(j) = check(call, &reply) {
            job = j;
        }
        handle_ms.push(s * 1e3);
    }
    service.shutdown();
    v.insert("serve.handle_plan_ms_p50", handle_ms[0]);
    v.insert("serve.handle_optimize_ms_p50", handle_ms[1]);
    v.insert("serve.handle_run_ms_p50", handle_ms[2]);
    v.insert(
        "serve.core_share",
        direct_s * 1e3 / (handle_ms[0] + handle_ms[1] + handle_ms[2]),
    );

    // Over loopback: one client, one request in flight.
    let server = Server::start("127.0.0.1:0", service_config()).or_string()?;
    let mut client = Client::connect(server.addr()).or_string()?;
    let mut tcp_ms = Vec::new();
    let mut requests = 0u64;
    let wall = Instant::now();
    for call in [Call::Run, Call::Plan, Call::Optimize, Call::Status] {
        let request = line(call, &job);
        let mut samples = Vec::new();
        for _ in 0..=REPS {
            let t0 = Instant::now();
            let reply = client.request(&request).or_string()?;
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            requests += 1;
            match expected.check(call, &reply) {
                Ok(Some(j)) => job = j,
                Ok(None) => {}
                Err(_) => rejected += 1,
            }
        }
        tcp_ms.push(median(&samples[1..]));
    }
    let wall_s = wall.elapsed().as_secs_f64();
    drop(client);
    server.stop();
    v.insert("serve.tcp_run_ms_p50", tcp_ms[0]);
    v.insert("serve.tcp_plan_ms_p50", tcp_ms[1]);
    v.insert("serve.tcp_optimize_ms_p50", tcp_ms[2]);
    v.insert("serve.tcp_status_ms_p50", tcp_ms[3]);
    v.insert("serve.wire_overhead_us", (tcp_ms[3] - handle_ms[3]) * 1e3);
    v.insert("serve.req_per_s", requests as f64 / wall_s);
    v.insert("serve.rejected", rejected as f64);
    Ok(())
}
