//! The `cumulon` command-line interface: compile a script, optimize its
//! deployment, and run it on the simulated cloud.
//!
//! ```text
//! cumulon plan  <script> --input A=20000x20000 [--deadline MIN|--budget $] [--max-nodes N]
//!               [--spot [--bid FRAC]]
//! cumulon run   <script> --input A=400x200 --instance m1.large --nodes 4 [--slots S] [--real]
//!               [--spot [--bid FRAC]] [--elastic]
//! cumulon explain <script> --input A=1000x1000[@0.01]
//! cumulon check [--quick] [--report FILE.json]
//! ```
//!
//! Input specs are `NAME=ROWSxCOLS[@DENSITY][:TILE]`; matrices are
//! generator-backed (seeded, deterministic). Density `< 1` implies sparse
//! storage.

use cumulon_cluster::{SchedulerConfig, Trace};
use cumulon_core::error::CoreError;
use cumulon_core::{Constraint, DeploymentSearch, Optimizer, Result, SearchSpace, SpotSearchSpace};
use cumulon_lang::{compile_source, CompiledScript, InputSpec};
use cumulon_serve::engine::{self, Executed, RunSpec};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `plan`: deployment optimization.
    Plan {
        /// Script path.
        script: String,
        /// Input specs.
        inputs: Vec<InputSpec>,
        /// Time/budget constraint.
        constraint: Constraint,
        /// Largest cluster to consider.
        max_nodes: u32,
        /// Extend the search to {on-demand, spot(bid)} × checkpoint
        /// interval, minimizing expected cost under the deadline.
        spot: bool,
        /// Restrict the spot search to a single bid, as a fraction of the
        /// on-demand list price.
        bid: Option<f64>,
    },
    /// `run`: execute on a chosen cluster.
    Run {
        /// Script path.
        script: String,
        /// What the run executes on (`threads` 0 = all host cores).
        spec: RunSpec,
        /// Write a Chrome `trace_event` JSON timeline of the run here
        /// (load in Perfetto or `chrome://tracing`). Tracing never
        /// changes results.
        trace: Option<String>,
        /// Threads *inside* each tile kernel (1 = serial, 0 = all host
        /// cores). Bitwise-identical results at any setting; useful when
        /// a run has fewer concurrent tasks than cores.
        kernel_threads: usize,
    },
    /// `trace`: execute like `run`, then print the critical-path,
    /// slot-utilization and estimate-vs-actual reports for the traced
    /// execution (optionally also exporting the timeline JSON).
    Trace {
        /// Script path.
        script: String,
        /// What the run executes on (no spot, elastic or spill settings).
        spec: RunSpec,
        /// Also write the Chrome `trace_event` JSON timeline here.
        out_json: Option<String>,
        /// Threads inside each tile kernel (1 = serial, 0 = all cores).
        kernel_threads: usize,
    },
    /// `explain`: show the compiled program and physical plan.
    Explain {
        /// Script path.
        script: String,
        /// Input specs.
        inputs: Vec<InputSpec>,
    },
    /// `check`: run the cross-layer invariant suite (`cumulon-check`)
    /// and exit non-zero on any violation.
    Check {
        /// Reduced lattice for the CI tier-1 budget.
        quick: bool,
        /// Also write the machine-readable violation report (JSON schema
        /// `cumulon-check-v1`) to this path.
        report: Option<String>,
    },
    /// `serve`: run the long-lived optimization service (`cumulon-serve`)
    /// — concurrent `plan`/`optimize`/`run`/`check-status` requests over
    /// newline-delimited JSON (`cumulon-serve-v1`).
    Serve {
        /// Listen address (`HOST:PORT`; port 0 lets the OS pick).
        addr: String,
        /// Maximum queued runs before `queue-full` backpressure.
        queue_depth: usize,
        /// Worker threads executing queued runs.
        run_workers: usize,
        /// Scheduler threads per run (sizes the shared speculation pool).
        threads: usize,
    },
    /// `calibrate`: wall-clock-profile the tile kernels on this host,
    /// re-fit the cost model's CPU coefficients from the measurements,
    /// and report measured vs model-implied flop rates.
    Calibrate {
        /// Instance type whose coefficients to re-fit.
        instance: String,
        /// Trimmed measurement battery (CI budgets).
        quick: bool,
        /// Threads inside each tile kernel while profiling (1 = serial,
        /// 0 = all cores).
        kernel_threads: usize,
        /// Write the profile + refit coefficients (JSON schema
        /// `cumulon-calibration-v1`) to this path.
        json: Option<String>,
    },
    /// `--help` / `-h`: print the usage text.
    Help,
}

/// The usage text: `cumulon --help` prints it, and a command line with
/// no or an unknown command fails with it.
const USAGE: &str =
    "usage: cumulon <plan|run|trace|explain> <script> --input NAME=RxC[@D][:T] ...\n\
    plan:    [--deadline MIN | --budget DOLLARS] [--max-nodes N]\n\
    [--spot [--bid FRAC]]   (spot-vs-on-demand × checkpoint\n\
    interval search under the deadline)\n\
    run:     --instance TYPE --nodes N [--slots S] [--real] [--threads T]\n\
    [--kernel-threads K] [--trace FILE.json]\n\
    [--memory-budget BYTES [--spill-dir PATH] [--prefetch-depth N]]\n\
    [--spot [--bid FRAC]] [--elastic]\n\
    trace:   --instance TYPE --nodes N [--slots S] [--real] [--threads T]\n\
    [--kernel-threads K] [--trace FILE.json]   (prints critical-\n\
    path, utilization and estimate-diff reports)\n\
    check:   cumulon check [--quick] [--report FILE.json]   (runs the\n\
    cross-layer invariant suite; non-zero exit on violation)\n\
    calibrate: cumulon calibrate [--instance TYPE] [--quick]\n\
    [--kernel-threads K] [--json FILE.json]   (profiles the\n\
    tile kernels on this host and re-fits the cost model's\n\
    CPU coefficients from the measurements)\n\
    serve:   cumulon serve [--addr HOST:PORT] [--queue-depth N]\n\
    [--run-workers N] [--threads T]   (long-running multi-\n\
    tenant service; newline-delimited JSON, schema\n\
    cumulon-serve-v1 — see README \"cumulon serve\")";

/// Takes the value after `flag` and parses it, failing with "`flag`
/// needs `what`" when it is missing or does not parse.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
    what: &str,
) -> Result<T> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CoreError::Usage(format!("{flag} needs {what}")))
}

/// Parses CLI arguments (past the binary name).
pub fn parse_args(args: &[String]) -> Result<Command> {
    let usage = || CoreError::Usage(USAGE.to_string());
    let unknown =
        |other: &str, cmd: &str| CoreError::Usage(format!("unknown argument '{other}'{cmd}"));
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?.clone();
    if cmd == "--help" || cmd == "-h" {
        return Ok(Command::Help);
    }
    // `check` takes no script or inputs — it has its own tiny flag set.
    if cmd == "check" {
        let mut quick = false;
        let mut report = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--report" => report = Some(flag_value(&mut it, "--report", "a file path")?),
                other => return Err(unknown(other, " for check")),
            }
        }
        return Ok(Command::Check { quick, report });
    }
    // `serve` takes no script either: programs arrive over the wire.
    if cmd == "serve" {
        let mut addr = "127.0.0.1:7070".to_string();
        let mut queue_depth = 8usize;
        let mut run_workers = 2usize;
        let mut threads = 2usize;
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--addr" => addr = flag_value(&mut it, flag, "a value")?,
                "--queue-depth" => queue_depth = flag_value(&mut it, flag, "an integer")?,
                "--run-workers" => run_workers = flag_value(&mut it, flag, "an integer")?,
                "--threads" => threads = flag_value(&mut it, flag, "an integer")?,
                other => return Err(unknown(other, " for serve")),
            }
        }
        if queue_depth == 0 || run_workers == 0 {
            return Err(CoreError::Usage(
                "--queue-depth and --run-workers must be positive".into(),
            ));
        }
        return Ok(Command::Serve {
            addr,
            queue_depth,
            run_workers,
            threads,
        });
    }
    // `calibrate` likewise takes no script: it profiles the host itself.
    if cmd == "calibrate" {
        let mut instance = "m1.large".to_string();
        let mut quick = false;
        let mut kernel_threads = 1usize;
        let mut json = None;
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--instance" => instance = flag_value(&mut it, flag, "a value")?,
                "--quick" => quick = true,
                "--kernel-threads" => kernel_threads = flag_value(&mut it, flag, "an integer")?,
                "--json" => json = Some(flag_value(&mut it, flag, "a value")?),
                other => return Err(unknown(other, " for calibrate")),
            }
        }
        return Ok(Command::Calibrate {
            instance,
            quick,
            kernel_threads,
            json,
        });
    }
    let script = it.next().ok_or_else(usage)?.clone();
    let mut spec = RunSpec::default();
    let mut instance: Option<String> = None;
    let mut nodes: Option<u32> = None;
    let mut deadline: Option<f64> = None;
    let mut budget: Option<f64> = None;
    let mut max_nodes = 64u32;
    let mut kernel_threads = 1usize;
    let mut trace: Option<String> = None;
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--input" => spec.inputs.push(InputSpec::parse(&flag_value::<String>(
                &mut it, flag, "a value",
            )?)?),
            "--deadline" => deadline = Some(flag_value::<f64>(&mut it, flag, "minutes")? * 60.0),
            "--budget" => budget = Some(flag_value(&mut it, flag, "a dollar amount")?),
            "--max-nodes" => max_nodes = flag_value(&mut it, flag, "an integer")?,
            "--instance" => instance = Some(flag_value(&mut it, flag, "a value")?),
            "--nodes" => nodes = Some(flag_value(&mut it, flag, "an integer")?),
            "--slots" => spec.slots = flag_value(&mut it, flag, "an integer")?,
            "--real" => spec.real = true,
            "--spot" => spec.spot = true,
            "--elastic" => spec.elastic = true,
            "--bid" => spec.bid = Some(flag_value(&mut it, flag, "a fraction of the list price")?),
            "--trace" => trace = Some(flag_value(&mut it, flag, "a value")?),
            "--threads" => spec.threads = flag_value(&mut it, flag, "an integer")?,
            "--kernel-threads" => kernel_threads = flag_value(&mut it, flag, "an integer")?,
            "--memory-budget" => spec.memory_budget = flag_value(&mut it, flag, "a byte count")?,
            "--spill-dir" => spec.spill_dir = Some(flag_value(&mut it, flag, "a value")?),
            "--prefetch-depth" => spec.prefetch_depth = flag_value(&mut it, flag, "a tile count")?,
            other => return Err(unknown(other, "")),
        }
    }
    if spec.inputs.is_empty() {
        return Err(CoreError::Usage("at least one --input is required".into()));
    }
    if (spec.spot || spec.elastic) && !matches!(cmd.as_str(), "plan" | "run") {
        return Err(CoreError::Usage(format!(
            "--spot/--elastic only apply to plan and run, not {cmd}"
        )));
    }
    if (spec.memory_budget != 0 || spec.spill_dir.is_some() || spec.prefetch_depth != 0)
        && cmd != "run"
    {
        return Err(CoreError::Usage(format!(
            "--memory-budget/--spill-dir/--prefetch-depth only apply to run, not {cmd}"
        )));
    }
    if matches!(cmd.as_str(), "run" | "trace") {
        spec.instance =
            instance.ok_or_else(|| CoreError::Usage(format!("{cmd} needs --instance")))?;
        spec.nodes = nodes.ok_or_else(|| CoreError::Usage(format!("{cmd} needs --nodes")))?;
    }
    spec.validate()?;
    match cmd.as_str() {
        "plan" => {
            if spec.elastic {
                return Err(CoreError::Usage("--elastic only applies to run".into()));
            }
            let constraint = match (deadline, budget) {
                (Some(d), None) => Constraint::Deadline(d),
                (None, Some(b)) => Constraint::Budget(b),
                (None, None) => Constraint::Deadline(3_600.0),
                (Some(_), Some(_)) => {
                    return Err(CoreError::Usage(
                        "pick one of --deadline and --budget".into(),
                    ))
                }
            };
            if spec.spot && matches!(constraint, Constraint::Budget(_)) {
                return Err(CoreError::Usage(
                    "--spot prices rework against a deadline; use --deadline, not --budget".into(),
                ));
            }
            Ok(Command::Plan {
                script,
                inputs: spec.inputs,
                constraint,
                max_nodes,
                spot: spec.spot,
                bid: spec.bid,
            })
        }
        "run" => {
            if spec.elastic && trace.is_some() {
                return Err(CoreError::Usage(
                    "--elastic drives its own traced run; drop --trace".into(),
                ));
            }
            Ok(Command::Run {
                script,
                spec,
                trace,
                kernel_threads,
            })
        }
        "trace" => Ok(Command::Trace {
            script,
            spec,
            out_json: trace,
            kernel_threads,
        }),
        "explain" => Ok(Command::Explain {
            script,
            inputs: spec.inputs,
        }),
        _ => Err(usage()),
    }
}

fn load_script(path: &str) -> Result<CompiledScript> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CoreError::Usage(format!("cannot read {path}: {e}")))?;
    compile_source(&source)
}

/// Loads the script and runs it through the shared run pipeline as the
/// CLI's run.
fn run_script(
    script: &str,
    spec: &RunSpec,
    kernel_threads: usize,
    trace: &Trace,
) -> Result<(CompiledScript, Executed)> {
    cumulon_matrix::set_kernel_threads(kernel_threads);
    let compiled = load_script(script)?;
    let run = engine::execute(spec, &compiled, "cli", SchedulerConfig::default(), trace)?;
    Ok((compiled, run))
}

fn write_trace_json(
    log: &cumulon_cluster::TraceLog,
    path: &str,
    out: &mut impl std::io::Write,
) -> Result<()> {
    std::fs::write(path, log.to_chrome_json())
        .map_err(|e| CoreError::Io(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "trace  : {} spans -> {path} (load in Perfetto or chrome://tracing)",
        log.tasks.len()
    )
    .map_err(|e| CoreError::Io(format!("write failed: {e}")))?;
    Ok(())
}

/// Executes a parsed command, writing human-readable output to `out`.
pub fn execute(cmd: &Command, out: &mut impl std::io::Write) -> Result<()> {
    let w = |e: std::io::Error| CoreError::Io(format!("write failed: {e}"));
    match cmd {
        Command::Plan {
            script,
            inputs,
            constraint,
            max_nodes,
            spot,
            bid,
        } => {
            let compiled = load_script(script)?;
            let descs = engine::input_descs(&compiled, inputs)?;
            let space = SearchSpace {
                max_nodes: *max_nodes,
                ..Default::default()
            };
            let optimizer = Optimizer::new(crate::idealized_cost_model());
            if *spot {
                let Constraint::Deadline(deadline_s) = *constraint else {
                    return Err(CoreError::Usage(
                        "--spot needs a deadline to price rework against".into(),
                    ));
                };
                // The same rewritten program `plan` searches without --spot.
                let program = optimizer.rewrite(&compiled.program, &descs)?;
                let search = DeploymentSearch::new(optimizer.model(), space);
                let sspace = SpotSearchSpace {
                    bid_fractions: bid
                        .map(|b| vec![b])
                        .unwrap_or_else(|| SpotSearchSpace::default().bid_fractions),
                    ..Default::default()
                };
                let (plan, choice) = search.optimize_spot(&program, &descs, deadline_s, &sspace)?;
                let curve = search.spot_curve(&plan, &sspace);
                writeln!(out, "inputs : {:?}", compiled.inputs).map_err(w)?;
                writeln!(out, "outputs: {:?}", compiled.outputs()).map_err(w)?;
                writeln!(out, "chosen : {}", plan.summary()).map_err(w)?;
                writeln!(out, "procure: {}", choice.summary()).map_err(w)?;
                writeln!(
                    out,
                    "curve  : {} option(s) under deadline {:.0}s; on-demand reference: {}",
                    curve.len(),
                    deadline_s,
                    curve[0].summary()
                )
                .map_err(w)?;
                return Ok(());
            }
            let plan = optimizer.optimize(&compiled.program, &descs, space, *constraint)?;
            writeln!(out, "inputs : {:?}", compiled.inputs).map_err(w)?;
            writeln!(out, "outputs: {:?}", compiled.outputs()).map_err(w)?;
            writeln!(out, "chosen : {}", plan.summary()).map_err(w)?;
            writeln!(
                out,
                "plan   : {} jobs, {} tasks",
                plan.plan.jobs.len(),
                plan.plan.total_tasks()
            )
            .map_err(w)?;
            for (idx, job) in plan.plan.jobs.iter().enumerate() {
                writeln!(
                    out,
                    "  [{idx}] {:<6} -> {:?} ({} tasks)",
                    job.op_label(),
                    job.output_names(),
                    job.task_count()
                )
                .map_err(w)?;
            }
            Ok(())
        }
        Command::Run {
            script,
            spec,
            trace,
            kernel_threads,
        } => {
            let handle = if trace.is_some() {
                Trace::enabled()
            } else {
                Trace::disabled()
            };
            let (compiled, run) = run_script(script, spec, *kernel_threads, &handle)?;
            if spec.memory_budget > 0 {
                writeln!(
                    out,
                    "spill  : resident tile budget {} B, cold tiles spill to {}",
                    spec.memory_budget,
                    spec.spill_dir.as_deref().unwrap_or("a temp directory")
                )
                .map_err(w)?;
            }
            if let Some(line) = &run.spot {
                writeln!(out, "{line}").map_err(w)?;
            }
            writeln!(out, "{}", run.report.summary()).map_err(w)?;
            if spec.elastic {
                for d in &run.decisions {
                    writeln!(
                        out,
                        "elastic: boundary {}: refit {} ({} sample(s)), {}",
                        d.after_iter, d.refit, d.samples, d.reason
                    )
                    .map_err(w)?;
                }
                if run.replaced > 0 {
                    writeln!(
                        out,
                        "elastic: replaced {} revoked node(s) with on-demand capacity \
                         ({} live)",
                        run.replaced,
                        run.cluster.live_nodes()
                    )
                    .map_err(w)?;
                }
            } else {
                for job in &run.report.jobs {
                    writeln!(
                        out,
                        "  job {:<12} {:>8.1}s  {} tasks, locality {:.0}%",
                        job.name,
                        job.duration_s(),
                        job.tasks.len(),
                        100.0 * job.locality_rate()
                    )
                    .map_err(w)?;
                }
            }
            if let Some(path) = trace {
                let log = handle.snapshot().expect("trace handle is enabled");
                write_trace_json(&log, path, out)?;
            }
            if spec.memory_budget > 0 {
                if let Some(stats) = run.cluster.store().dfs().spill_stats() {
                    let ratio = if stats.blob.bytes_written > 0 {
                        stats.blob.raw_bytes_written as f64 / stats.blob.bytes_written as f64
                    } else {
                        1.0
                    };
                    writeln!(
                        out,
                        "spill  : {} eviction(s) ({} clean), {} readmission(s), {} B spilled \
                         ({ratio:.2}x compression), {} B read back",
                        stats.evictions,
                        stats.clean_evictions,
                        stats.readmissions,
                        stats.spilled_bytes_total,
                        stats.readback_bytes_total
                    )
                    .map_err(w)?;
                    if spec.prefetch_depth > 0 {
                        writeln!(
                            out,
                            "spill  : {} tile(s) prefetched, {} B of readback \
                             overlapped ahead of demand",
                            stats.prefetched_files, stats.readback_bytes_avoided
                        )
                        .map_err(w)?;
                    }
                }
            }
            if spec.real {
                for name in compiled.outputs() {
                    let m = run.cluster.store().get_local(name)?;
                    writeln!(
                        out,
                        "output {name}: {}x{}, ‖·‖_F = {:.4}",
                        m.meta().rows,
                        m.meta().cols,
                        m.frob_norm()
                    )
                    .map_err(w)?;
                }
            }
            Ok(())
        }
        Command::Trace {
            script,
            spec,
            out_json,
            kernel_threads,
        } => {
            let handle = Trace::enabled();
            let (compiled, run) = run_script(script, spec, *kernel_threads, &handle)?;
            let log = handle.snapshot().expect("trace handle is enabled");
            writeln!(out, "{}", run.report.summary()).map_err(w)?;
            if let Some(path) = out_json {
                write_trace_json(&log, path, out)?;
            }
            writeln!(out).map_err(w)?;
            writeln!(out, "{}", log.critical_path().render()).map_err(w)?;
            writeln!(out, "{}", log.utilization().render()).map_err(w)?;
            let (phases, predicted_makespan) = Optimizer::new(crate::idealized_cost_model())
                .predict_phases_on(&run.cluster, &compiled.program, &run.descs)?;
            writeln!(
                out,
                "{}",
                log.diff_against(phases, predicted_makespan).render()
            )
            .map_err(w)?;
            Ok(())
        }
        Command::Explain { script, inputs } => {
            let compiled = load_script(script)?;
            let descs = engine::input_descs(&compiled, inputs)?;
            let plan = cumulon_core::lower::build_plan(
                &compiled.program,
                &descs,
                &cumulon_core::lower::UnitSplits,
                "x",
            )?;
            writeln!(out, "inputs : {:?}", compiled.inputs).map_err(w)?;
            writeln!(out, "outputs: {:?}", compiled.outputs()).map_err(w)?;
            writeln!(
                out,
                "logical: {} expression nodes",
                compiled.program.nodes.len()
            )
            .map_err(w)?;
            writeln!(out, "physical plan ({} jobs):", plan.jobs.len()).map_err(w)?;
            for (idx, job) in plan.jobs.iter().enumerate() {
                writeln!(
                    out,
                    "  [{idx}] {:<6} deps {:?} -> {:?} ({} tasks)",
                    job.op_label(),
                    plan.deps[idx],
                    job.output_names(),
                    job.task_count()
                )
                .map_err(w)?;
            }
            Ok(())
        }
        Command::Help => writeln!(out, "{USAGE}").map_err(w),
        Command::Check { quick, report } => {
            let checks = cumulon_check::run_checks(&cumulon_check::CheckOptions { quick: *quick })?;
            writeln!(out, "{}", checks.render()).map_err(w)?;
            // Write the machine-readable report before failing, so CI can
            // upload it as an artifact even when the gate trips.
            if let Some(path) = report {
                std::fs::write(path, checks.to_json())
                    .map_err(|e| CoreError::Io(format!("cannot write {path}: {e}")))?;
                writeln!(out, "report : {path}").map_err(w)?;
            }
            if checks.passed() {
                Ok(())
            } else {
                Err(CoreError::Invariant(format!(
                    "{} invariant violation(s) — see report above",
                    checks.violations().len()
                )))
            }
        }
        Command::Serve {
            addr,
            queue_depth,
            run_workers,
            threads,
        } => {
            let config = cumulon_serve::ServiceConfig {
                queue_depth: *queue_depth,
                run_workers: *run_workers,
                threads: *threads,
                ..Default::default()
            };
            let server = cumulon_serve::Server::start(addr, config)?;
            writeln!(
                out,
                "serve  : listening on {} ({} run worker(s), queue depth {}, \
                 {} scheduler thread(s)); schema cumulon-serve-v1, one JSON \
                 request per line",
                server.addr(),
                run_workers,
                queue_depth,
                threads
            )
            .map_err(w)?;
            out.flush().map_err(w)?;
            // Daemon semantics: serve until the process is killed.
            // (`park` can wake spuriously, hence the loop.)
            loop {
                std::thread::park();
            }
        }
        Command::Calibrate {
            instance,
            quick,
            kernel_threads,
            json,
        } => {
            let inst = cumulon_cluster::instances::by_name(instance)
                .ok_or_else(|| CoreError::Usage(format!("unknown instance '{instance}'")))?;
            cumulon_matrix::set_kernel_threads(*kernel_threads);
            let profile = cumulon_core::calibrate::KernelProfile::measure(*quick);
            cumulon_matrix::set_kernel_threads(1);
            writeln!(
                out,
                "host   : simd={} kernel-threads={}",
                profile.simd_level, kernel_threads
            )
            .map_err(w)?;
            for s in &profile.samples {
                writeln!(
                    out,
                    "  {:<11} n={:<4} {:>7.2} GFLOP/s  ({:.3} ms)",
                    s.kernel,
                    s.n,
                    s.gflops(),
                    s.seconds * 1e3
                )
                .map_err(w)?;
            }
            let base = cumulon_core::OpCoefficients::idealized(&inst, 2.0, 0.85);
            let cpu_fit = cumulon_core::calibrate::refit_cpu_from_kernels(&base, &inst, &profile)?;
            // Disk tier: measure the host blob store's spill/readback
            // throughput and fit the c₇ coefficient from it, the same way
            // the kernel battery fits the CPU term.
            let spill = cumulon_core::calibrate::SpillProfile::measure(*quick)?;
            let refit = cumulon_core::calibrate::refit_disk_tier(&cpu_fit, &spill);
            let before = cumulon_core::estimate::model_implied_gflops(&base, &inst);
            let after = cumulon_core::estimate::model_implied_gflops(&refit, &inst);
            writeln!(
                out,
                "model  : {instance} implied {before:.2} -> {after:.2} GFLOP/s \
                 (measured dense peak {:.2})",
                profile.dense_gflops()
            )
            .map_err(w)?;
            writeln!(
                out,
                "spill  : writeback {:.0} MB/s, readback {:.0} MB/s -> c7 {:e} s/B",
                spill.writeback_bps() / 1e6,
                spill.readback_bps() / 1e6,
                refit.c[7]
            )
            .map_err(w)?;
            if let Some(path) = json {
                let mut samples = String::new();
                for (i, s) in profile.samples.iter().enumerate() {
                    if i > 0 {
                        samples.push(',');
                    }
                    samples.push_str(&format!(
                        "\n    {{\"kernel\": \"{}\", \"n\": {}, \"flops\": {}, \
                         \"seconds\": {:.9}, \"gflops\": {:.4}}}",
                        s.kernel,
                        s.n,
                        s.flops,
                        s.seconds,
                        s.gflops()
                    ));
                }
                let coeffs = refit
                    .c
                    .iter()
                    .map(|c| format!("{c:e}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let doc = format!(
                    "{{\n  \"schema\": \"cumulon-calibration-v1\",\n  \
                     \"instance\": \"{instance}\",\n  \
                     \"simd_level\": \"{}\",\n  \
                     \"kernel_threads\": {kernel_threads},\n  \
                     \"samples\": [{samples}\n  ],\n  \
                     \"implied_gflops_before\": {before:.4},\n  \
                     \"implied_gflops_after\": {after:.4},\n  \
                     \"spill_writeback_bps\": {:.0},\n  \
                     \"spill_readback_bps\": {:.0},\n  \
                     \"coefficients\": [{coeffs}],\n  \
                     \"sigma\": {}\n}}\n",
                    profile.simd_level,
                    spill.writeback_bps(),
                    spill.readback_bps(),
                    refit.sigma
                );
                std::fs::write(path, doc)
                    .map_err(|e| CoreError::Io(format!("cannot write {path}: {e}")))?;
                writeln!(out, "json   : {path}").map_err(w)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    // `InputSpec` parsing is unit-tested where it lives, in `cumulon-lang`.

    #[test]
    fn parse_plan_command() {
        let cmd = parse_args(&args(
            "plan s.cm --input A=100x100 --deadline 30 --max-nodes 8",
        ))
        .unwrap();
        match cmd {
            Command::Plan {
                script,
                inputs,
                constraint,
                max_nodes,
                spot,
                bid,
            } => {
                assert_eq!(script, "s.cm");
                assert_eq!(inputs.len(), 1);
                assert_eq!(constraint, Constraint::Deadline(1800.0));
                assert_eq!(max_nodes, 8);
                assert!(!spot);
                assert_eq!(bid, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_run_command() {
        let cmd = parse_args(&args(
            "run s.cm --input A=10x10 --instance m1.large --nodes 4 --slots 2 --real --threads 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                script: "s.cm".into(),
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=10x10").unwrap()],
                    instance: "m1.large".into(),
                    nodes: 4,
                    slots: 2,
                    real: true,
                    threads: 3,
                    ..RunSpec::default()
                },
                trace: None,
                kernel_threads: 1,
            }
        );
    }

    #[test]
    fn parse_spill_flags() {
        let cmd = parse_args(&args(
            "run s.cm --input A=10x10 --instance m1.large --nodes 2 \
             --memory-budget 1048576 --spill-dir /tmp/spill --prefetch-depth 8",
        ))
        .unwrap();
        match cmd {
            Command::Run { spec, .. } => {
                assert_eq!(spec.memory_budget, 1_048_576);
                assert_eq!(spec.spill_dir.as_deref(), Some("/tmp/spill"));
                assert_eq!(spec.prefetch_depth, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --spill-dir or --prefetch-depth without a budget, spill flags
        // off `run`, and non-integer values all reject.
        assert_eq!(
            parse_err("run s.cm --input A=1x1 --instance m1.large --nodes 2 --spill-dir /tmp/x"),
            "spill dir requires a memory budget"
        );
        assert!(parse_err(
            "run s.cm --input A=1x1 --instance m1.large --nodes 2 --prefetch-depth 4"
        )
        .starts_with("prefetch depth requires a memory budget"));
        assert!(parse_args(&args(
            "trace s.cm --input A=1x1 --instance m1.large --nodes 2 --memory-budget 1024"
        ))
        .is_err());
        assert!(parse_args(&args(
            "trace s.cm --input A=1x1 --instance m1.large --nodes 2 --prefetch-depth 4"
        ))
        .is_err());
        assert!(parse_args(&args("plan s.cm --input A=1x1 --memory-budget 1024")).is_err());
        assert!(parse_args(&args(
            "run s.cm --input A=1x1 --instance m1.large --nodes 2 --memory-budget lots"
        ))
        .is_err());
        assert!(parse_args(&args(
            "run s.cm --input A=1x1 --instance m1.large --nodes 2 \
             --memory-budget 1024 --prefetch-depth deep"
        ))
        .is_err());
    }

    #[test]
    fn parse_spot_flags() {
        let cmd = parse_args(&args(
            "run s.cm --input A=10x10 --instance m1.large --nodes 4 --spot --bid 0.7 --elastic",
        ))
        .unwrap();
        match cmd {
            Command::Run { spec, .. } => {
                assert!(spec.spot);
                assert_eq!(spec.bid, Some(0.7));
                assert!(spec.elastic);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse_args(&args(
            "plan s.cm --input A=10x10 --deadline 60 --spot --bid 0.5",
        ))
        .unwrap();
        match cmd {
            Command::Plan { spot, bid, .. } => {
                assert!(spot);
                assert_eq!(bid, Some(0.5));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --bid without --spot, spot under a budget, --elastic on plan,
        // spot flags on trace/explain, non-positive bids and an empty
        // fleet all reject, the run-spec checks with the service's words.
        assert_eq!(
            parse_err("run s.cm --input A=1x1 --instance m1.large --nodes 2 --bid 0.5"),
            "bid requires spot"
        );
        assert_eq!(
            parse_err("plan s.cm --input A=1x1 --bid 0.5"),
            "bid requires spot"
        );
        assert_eq!(
            parse_err("run s.cm --input A=1x1 --instance m1.large --nodes 0"),
            "nodes must be positive"
        );
        assert_eq!(
            parse_err("trace s.cm --input A=1x1 --instance m1.large --nodes 0"),
            "nodes must be positive"
        );
        assert!(parse_args(&args("plan s.cm --input A=1x1 --budget 5 --spot")).is_err());
        assert!(parse_args(&args("plan s.cm --input A=1x1 --spot --elastic")).is_err());
        assert!(parse_args(&args(
            "trace s.cm --input A=1x1 --instance m1.large --nodes 2 --spot"
        ))
        .is_err());
        assert!(parse_args(&args("explain s.cm --input A=1x1 --elastic")).is_err());
        assert_eq!(
            parse_err("run s.cm --input A=1x1 --instance m1.large --nodes 2 --spot --bid -0.2"),
            "bid must be a positive fraction of the list price"
        );
        assert!(parse_args(&args(
            "run s.cm --input A=1x1 --instance m1.large --nodes 2 --elastic --trace t.json"
        ))
        .is_err());
    }

    #[test]
    fn parse_trace_flag_and_subcommand() {
        let cmd = parse_args(&args(
            "run s.cm --input A=10x10 --instance m1.large --nodes 2 --trace out.json",
        ))
        .unwrap();
        match cmd {
            Command::Run { trace, .. } => assert_eq!(trace.as_deref(), Some("out.json")),
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse_args(&args(
            "trace s.cm --input A=10x10 --instance m1.large --nodes 2 --slots 1 --trace t.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                script: "s.cm".into(),
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=10x10").unwrap()],
                    instance: "m1.large".into(),
                    nodes: 2,
                    slots: 1,
                    ..RunSpec::default()
                },
                out_json: Some("t.json".into()),
                kernel_threads: 1,
            }
        );
        assert!(parse_args(&args("trace s.cm --input A=1x1")).is_err());
    }

    #[test]
    fn help_prints_usage_and_succeeds() {
        for flag in ["--help", "-h"] {
            let cmd = parse_args(&args(flag)).unwrap();
            assert_eq!(cmd, Command::Help);
            let mut out = Vec::new();
            execute(&cmd, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert_eq!(text, format!("{USAGE}\n"));
            assert!(text.starts_with("usage: cumulon <plan|run|trace|explain>"));
        }
        // A bare or unknown command is a usage error that is the usage
        // text and nothing more.
        for line in ["", "bogus s.cm --input A=2x2"] {
            assert_eq!(parse_err(line), USAGE, "{line:?}");
        }
    }

    #[test]
    fn parse_check_command() {
        assert_eq!(
            parse_args(&args("check")).unwrap(),
            Command::Check {
                quick: false,
                report: None
            }
        );
        assert_eq!(
            parse_args(&args("check --quick --report out.json")).unwrap(),
            Command::Check {
                quick: true,
                report: Some("out.json".into())
            }
        );
        assert!(parse_args(&args("check --report")).is_err());
        assert!(parse_args(&args("check --bogus")).is_err());
    }

    #[test]
    fn parse_calibrate_command() {
        assert_eq!(
            parse_args(&args("calibrate")).unwrap(),
            Command::Calibrate {
                instance: "m1.large".into(),
                quick: false,
                kernel_threads: 1,
                json: None,
            }
        );
        assert_eq!(
            parse_args(&args(
                "calibrate --instance c1.xlarge --quick --kernel-threads 0 --json cal.json"
            ))
            .unwrap(),
            Command::Calibrate {
                instance: "c1.xlarge".into(),
                quick: true,
                kernel_threads: 0,
                json: Some("cal.json".into()),
            }
        );
        assert!(parse_args(&args("calibrate --json")).is_err());
        assert!(parse_args(&args("calibrate --bogus")).is_err());
        // --kernel-threads is also a run/trace flag.
        match parse_args(&args(
            "run s.cm --input A=1x1 --instance m1.large --nodes 2 --kernel-threads 4",
        ))
        .unwrap()
        {
            Command::Run { kernel_threads, .. } => assert_eq!(kernel_threads, 4),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn calibrate_end_to_end() {
        let mut json_path = std::env::temp_dir();
        json_path.push(format!("cumulon_cli_cal_{}.json", std::process::id()));
        let mut out = Vec::new();
        execute(
            &Command::Calibrate {
                instance: "m1.large".into(),
                quick: true,
                kernel_threads: 1,
                json: Some(json_path.to_str().unwrap().to_string()),
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("gemm_packed"), "{text}");
        assert!(text.contains("implied"), "{text}");
        assert!(text.contains("readback"), "{text}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        let v = cumulon_trace::json::parse(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("cumulon-calibration-v1")
        );
        assert!(v
            .get("implied_gflops_after")
            .and_then(|g| g.as_f64())
            .is_some_and(|g| g > 0.0));
        assert!(v
            .get("spill_readback_bps")
            .and_then(|g| g.as_f64())
            .is_some_and(|g| g > 0.0));
        std::fs::remove_file(json_path).ok();
        // Unknown instance rejects before any measurement.
        assert!(execute(
            &Command::Calibrate {
                instance: "bogus.type".into(),
                quick: true,
                kernel_threads: 1,
                json: None,
            },
            &mut Vec::new(),
        )
        .is_err());
    }

    #[test]
    fn check_end_to_end() {
        let mut json_path = std::env::temp_dir();
        json_path.push(format!("cumulon_cli_check_{}.json", std::process::id()));
        let mut out = Vec::new();
        execute(
            &Command::Check {
                quick: true,
                report: Some(json_path.to_str().unwrap().to_string()),
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("all invariants hold"), "{text}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        let v = cumulon_trace::json::parse(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("cumulon-check-v1")
        );
        assert_eq!(v.get("passed").and_then(|p| p.as_bool()), Some(true));
        std::fs::remove_file(json_path).ok();
    }

    #[test]
    fn parse_serve_command() {
        assert_eq!(
            parse_args(&args("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7070".into(),
                queue_depth: 8,
                run_workers: 2,
                threads: 2,
            }
        );
        assert_eq!(
            parse_args(&args(
                "serve --addr 0.0.0.0:9000 --queue-depth 4 --run-workers 3 --threads 1"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                queue_depth: 4,
                run_workers: 3,
                threads: 1,
            }
        );
        assert!(parse_args(&args("serve --queue-depth 0")).is_err());
        assert!(parse_args(&args("serve --run-workers")).is_err());
        assert!(parse_args(&args("serve --bogus")).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args("plan")).is_err());
        assert!(parse_args(&args("plan s.cm")).is_err()); // no inputs
        assert!(parse_args(&args("run s.cm --input A=1x1")).is_err()); // no instance
        assert!(parse_args(&args("plan s.cm --input A=1x1 --deadline 5 --budget 2")).is_err());
        assert!(parse_args(&args("frobnicate s.cm --input A=1x1")).is_err());
        assert!(parse_args(&args("plan s.cm --input A=1x1 --bogus 3")).is_err());
        // User errors read as what the user got wrong, not as a broken
        // planner.
        assert_eq!(
            parse_err("run x.cm --input A=1x1 --bogus"),
            "unknown argument '--bogus'"
        );
        assert_eq!(
            parse_err("run x.cm --input A=1x1 --instance m1.large"),
            "run needs --nodes"
        );
        assert_eq!(
            parse_err("run x.cm --input A=1x1 --nodes many"),
            "--nodes needs an integer"
        );
        assert_eq!(
            parse_err("plan x.cm --input A=0x1"),
            "bad input 'A=0x1': dimensions and tile size must be positive"
        );
        assert_eq!(
            parse_err("check --bogus"),
            "unknown argument '--bogus' for check"
        );
    }

    /// The message `parse_args` rejects `line` with; a usage error, so
    /// nothing but the message itself.
    fn parse_err(line: &str) -> String {
        match parse_args(&args(line)) {
            Err(CoreError::Usage(m)) => m,
            other => panic!("{line:?}: want a usage error, got {other:?}"),
        }
    }

    /// A script that does not parse fails with the parser's message
    /// alone.
    #[test]
    fn script_errors_name_the_script_problem() {
        let path = write_script("G = A' *;");
        let script = path.to_str().unwrap().to_string();
        let err = execute(
            &Command::Explain {
                script,
                inputs: vec![InputSpec::parse("A=10x10").unwrap()],
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().starts_with("parse error at line 1: "),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    /// Writes `content` to a script file of its own: tests run on
    /// parallel threads of one process, so the pid alone is not unique.
    fn write_script(content: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("cumulon_cli_test_{}_{n}.cm", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    #[test]
    fn explain_and_run_end_to_end() {
        let path = write_script("G = A' * A;");
        let script = path.to_str().unwrap().to_string();

        let mut out = Vec::new();
        execute(
            &Command::Explain {
                script: script.clone(),
                inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("outputs: [\"G\"]"), "{text}");
        assert!(text.contains("physical plan"), "{text}");

        let mut out = Vec::new();
        execute(
            &Command::Run {
                script: script.clone(),
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
                    nodes: 2,
                    real: true,
                    ..RunSpec::default()
                },
                trace: None,
                kernel_threads: 1,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("output G: 20x20"), "{text}");

        std::fs::remove_file(path).ok();
    }

    /// `run --memory-budget` end to end with a budget far below the
    /// working set: the run spills, reports it, and produces the same
    /// output norm as the unbounded run above. With `--prefetch-depth`
    /// stacked on top, the output norm still may not move and the report
    /// gains the prefetch line.
    #[test]
    fn memory_budget_run_end_to_end() {
        let path = write_script("G = A' * A;");
        let script = path.to_str().unwrap().to_string();
        let run = |budget: u64, prefetch: usize| {
            let mut out = Vec::new();
            execute(
                &Command::Run {
                    script: script.clone(),
                    spec: RunSpec {
                        inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
                        nodes: 2,
                        real: true,
                        threads: 1,
                        memory_budget: budget,
                        prefetch_depth: prefetch,
                        ..RunSpec::default()
                    },
                    trace: None,
                    kernel_threads: 1,
                },
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let tight = run(2_048, 0);
        assert!(
            tight.contains("spill  : resident tile budget 2048 B"),
            "{tight}"
        );
        assert!(tight.contains("eviction(s)"), "{tight}");
        assert!(!tight.contains("prefetched"), "{tight}");
        let unbounded = run(0, 0);
        let norm = |t: &str| {
            t.lines()
                .find(|l| l.contains("output G"))
                .map(str::to_string)
                .unwrap()
        };
        assert_eq!(norm(&tight), norm(&unbounded), "spill changed the result");
        let prefetched = run(2_048, 4);
        assert!(prefetched.contains("tile(s) prefetched"), "{prefetched}");
        assert_eq!(
            norm(&prefetched),
            norm(&unbounded),
            "prefetch changed the result"
        );
        std::fs::remove_file(path).ok();
    }

    /// `run --spot --elastic` end to end: the synthetic market revokes the
    /// spot half of the fleet, the run survives, and the elastic pass
    /// refits the model and replaces the lost capacity.
    #[test]
    fn spot_elastic_run_end_to_end() {
        let path = write_script("G = A' * A;");
        let script = path.to_str().unwrap().to_string();
        let mut out = Vec::new();
        execute(
            &Command::Run {
                script,
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=60x30:10").unwrap()],
                    nodes: 4,
                    slots: 2,
                    real: true,
                    threads: 1,
                    spot: true,
                    bid: Some(0.3),
                    elastic: true,
                    ..RunSpec::default()
                },
                trace: None,
                kernel_threads: 1,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("spot   : 2 node(s) bid"), "{text}");
        assert!(text.contains("elastic: boundary 1"), "{text}");
        assert!(text.contains("output G: 30x30"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// `plan --spot` end to end: the bid × checkpoint-interval search
    /// reports a procurement choice plus the on-demand reference.
    #[test]
    fn spot_plan_end_to_end() {
        let path = write_script("C = A * B;");
        let script = path.to_str().unwrap().to_string();
        let mut out = Vec::new();
        execute(
            &Command::Plan {
                script,
                inputs: vec![
                    InputSpec::parse("A=8000x8000").unwrap(),
                    InputSpec::parse("B=8000x8000").unwrap(),
                ],
                constraint: Constraint::Deadline(7_200.0),
                max_nodes: 8,
                spot: true,
                bid: None,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("procure:"), "{text}");
        assert!(text.contains("on-demand reference:"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// `plan --spot` searches the program `plan` does: rewritten, so a
    /// chain the DP re-associates (`A * (B * x)` instead of the written
    /// `(A * B) * x`, a matrix product's worth of flops less) picks the
    /// same hardware either way.
    #[test]
    fn spot_plan_searches_the_rewritten_program() {
        let path = write_script("D = A * B * x;");
        let script = path.to_str().unwrap().to_string();
        let chosen = |spot: bool| {
            let mut out = Vec::new();
            execute(
                &Command::Plan {
                    script: script.clone(),
                    inputs: vec![
                        InputSpec::parse("A=20000x20000").unwrap(),
                        InputSpec::parse("B=20000x20000").unwrap(),
                        InputSpec::parse("x=20000x1").unwrap(),
                    ],
                    constraint: Constraint::Deadline(3_600.0),
                    max_nodes: 16,
                    spot,
                    bid: None,
                },
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            text.lines()
                .find(|l| l.starts_with("chosen :"))
                .unwrap_or_else(|| panic!("no chosen line in {text}"))
                .to_string()
        };
        assert_eq!(chosen(true), chosen(false));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_subcommand_end_to_end() {
        let path = write_script("G = A' * A;");
        let script = path.to_str().unwrap().to_string();
        let mut json_path = std::env::temp_dir();
        json_path.push(format!("cumulon_cli_trace_{}.json", std::process::id()));

        let mut out = Vec::new();
        execute(
            &Command::Trace {
                script,
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
                    nodes: 2,
                    slots: 2,
                    real: true,
                    threads: 1,
                    ..RunSpec::default()
                },
                out_json: Some(json_path.to_str().unwrap().to_string()),
                kernel_threads: 1,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Critical path"), "{text}");
        assert!(text.contains("Slot utilization"), "{text}");
        assert!(text.contains("Estimate vs actual"), "{text}");

        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"traceEvents\""), "exported JSON malformed");
        std::fs::remove_file(json_path).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn plan_end_to_end() {
        let path = write_script("C = A * B;");
        let script = path.to_str().unwrap().to_string();
        let mut out = Vec::new();
        execute(
            &Command::Plan {
                script,
                inputs: vec![
                    InputSpec::parse("A=8000x8000").unwrap(),
                    InputSpec::parse("B=8000x8000").unwrap(),
                ],
                constraint: Constraint::Deadline(3_600.0),
                max_nodes: 8,
                spot: false,
                bid: None,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("chosen :"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// A `run` spec whose instance the catalog lacks is the caller's
    /// mistake: a usage error, with no "execution failed" prefix.
    #[test]
    fn unknown_instance_is_a_usage_error() {
        let path = write_script("G = A' * A;");
        let err = execute(
            &Command::Run {
                script: path.to_str().unwrap().to_string(),
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
                    instance: "bogus.type".into(),
                    ..RunSpec::default()
                },
                trace: None,
                kernel_threads: 1,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Usage("invalid cluster spec: unknown instance type bogus.type".into())
        );
        std::fs::remove_file(path).ok();
    }

    /// A trace file that cannot be written is an I/O error naming the
    /// path, not a planner invariant.
    #[test]
    fn unwritable_trace_file_is_an_io_error() {
        let path = write_script("G = A' * A;");
        let trace = "/nonexistent/dir/t.json";
        let err = execute(
            &Command::Run {
                script: path.to_str().unwrap().to_string(),
                spec: RunSpec {
                    inputs: vec![InputSpec::parse("A=40x20:10").unwrap()],
                    nodes: 2,
                    slots: 2,
                    threads: 1,
                    ..RunSpec::default()
                },
                trace: Some(trace.into()),
                kernel_threads: 1,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Io(_)), "{err:?}");
        let message = err.to_string();
        assert!(
            message.starts_with(&format!("cannot write {trace}: ")),
            "{message}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_input_reported() {
        let path = write_script("C = A * B;");
        let script = path.to_str().unwrap().to_string();
        let err = execute(
            &Command::Explain {
                script,
                inputs: vec![InputSpec::parse("A=10x10").unwrap()],
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Usage("script input 'B' has no input spec".into())
        );
        std::fs::remove_file(path).ok();
    }
}
