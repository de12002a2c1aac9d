//! One layered, low-noise benchmark of Cumulon-RS. See README.md.
//!
//! ```text
//! cumulon-benchmark --workload <name> --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! ```

mod alloc;
mod harness;
mod host;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use harness::{measure, Fixture, Measured, Plan};
use report::Values;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Round samples of each half of a traced run (spans off, then on); the
/// rest of its time goes to the probes.
const TRACED_ROUNDS: u32 = 30;
/// Untimed rounds before either.
const WARMUP_ROUNDS: u32 = 5;
/// Cold fixture builds `setup_s` is the fastest of, in each of two
/// windows — before the rounds and after them, because a busy spell of the
/// host outlasts any one window: at least [`MIN_SETUPS`], and more — up to
/// [`MAX_SETUPS`] — while those of the window have taken under
/// [`SETUP_BUDGET_S`], because a 25 ms set-up built three times read 20 %
/// apart from run to run.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 10;
const SETUP_BUDGET_S: f64 = 0.75;
/// The floor the gated times are read at: see README.md, "Times are
/// floors".
const FLOOR_QUANTILE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: cumulon-benchmark --workload <name> --seed N [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: default_out(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?.clone(),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            name if !name.starts_with('-') && parsed.workload.is_empty() => {
                parsed.workload = name.to_string()
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

/// `out/` beside the benchmark's manifest: `cargo run` exports the
/// directory at run time; the compile-time value serves a bare binary.
fn default_out() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// The run's scratch directory, removed when the run ends however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One window of set-ups: builds the fixture several times from cold,
/// dropping each before the next; returns the last and every build time.
fn set_up(name: &str, cfg: &workloads::Config) -> Result<(Box<dyn Fixture>, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        let fx = workloads::build(name, cfg)?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS
            && (times.len() >= MAX_SETUPS || times.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if enough {
            return Ok((fx, times));
        }
    }
}

fn end_to_end(setups_s: &[f64], m: &Measured) -> Values {
    Values::from([
        (
            "setup_s",
            setups_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "round_ms_p02",
            stats::quantile(&m.samples_ms, FLOOR_QUANTILE),
        ),
        (
            "cpu_ms_per_round",
            stats::quantile(&m.cpu_samples_ms, FLOOR_QUANTILE),
        ),
        ("peak_heap_mb", m.peak_heap_bytes as f64 / 1e6),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    // Intra-kernel threading off and engine threads fixed (see
    // workloads::ENGINE_THREADS): the same configuration on any host.
    cumulon_matrix::set_kernel_threads(1);
    let scratch = Scratch(args.out.join(format!(
        "scratch-{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let cfg = workloads::Config {
        seed: args.seed,
        scratch: scratch.0.clone(),
    };
    println!(
        "workload {} seed {} trace {} | {} core(s), simd {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::cores(),
        cumulon_matrix::simd_level().name()
    );

    let sentinels = if args.trace { 9 } else { 0 };
    let sentinel_before: Vec<f64> = (0..sentinels).map(|_| host::sentinel_ms()).collect();
    let (fx, mut setups_s) = set_up(&args.workload, &cfg)?;
    // Same seed, same digest: the inputs and the reference outputs the
    // rounds are checked against derive from nothing else.
    let digest = cumulon_dfs::BlobKey::digest(fx.fingerprint().as_bytes());
    println!("reference {:016x}{:016x}", digest.0[0], digest.0[1]);
    let plan = Plan {
        warmup: WARMUP_ROUNDS,
        rounds: fx.rounds(),
        traced: false,
        deadline: Duration::from_secs_f64(args.seconds),
    };

    if !args.trace {
        let m = measure(fx.as_ref(), plan);
        drop(fx);
        setups_s.extend(set_up(&args.workload, &cfg)?.1);
        let metrics = report::collect(report::END_TO_END, &end_to_end(&setups_s, &m))?;
        print!("{}", report::table(&metrics));
        println!(
            "rounds {} attempted, {} failed ({} in warm-up); timed section {:.2} s, \
             warm-up {:.2} s; round p50 {:.4} ms, p90 {:.4} ms, IQR/median {:.4} (information)",
            m.attempted,
            m.failed,
            m.warmup_failed,
            m.wall_s,
            m.warmup_s,
            stats::median(&m.samples_ms),
            stats::quantile(&m.samples_ms, 0.9),
            stats::iqr_ratio(&m.samples_ms)
        );
        println!(
            "set-ups {} cold builds in two windows, median {:.4} s (information)",
            setups_s.len(),
            stats::median(&setups_s)
        );
        println!(
            "{}",
            report::result_line(m.correct(), m.attempted, m.failed, &metrics)
        );
        return Ok(());
    }

    let short = Plan {
        rounds: TRACED_ROUNDS,
        ..plan
    };
    let untraced = measure(fx.as_ref(), short);
    let spill_before = fx.spill_stats();
    let traced = measure(
        fx.as_ref(),
        Plan {
            warmup: 0,
            traced: true,
            ..short
        },
    );
    let mut values = probes::workload_counters(fx.as_ref(), spill_before, &untraced, &traced);
    drop(fx);
    values.extend(probes::run_all(&cfg)?);
    let sentinel: Vec<f64> = sentinel_before
        .into_iter()
        .chain((0..9).map(|_| host::sentinel_ms()))
        .collect();
    values.insert("host.sentinel_ms_p50", stats::median(&sentinel));
    values.insert("host.peak_rss_mb", host::peak_rss_mb());
    values.insert("host.cores", host::cores() as f64);

    let trace_path = args.out.join(format!("trace-{}.json", args.workload));
    std::fs::write(
        &trace_path,
        report::trace_json(&args.workload, args.seed, &traced.spans, traced.attempted),
    )
    .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let metrics = report::collect(report::PER_LAYER, &values)?;
    print!("{}", report::table(&metrics));
    println!(
        "end-to-end over {} untraced rounds, for orientation only (gate on --trace 0):",
        untraced.attempted
    );
    print!(
        "{}",
        report::table(&report::collect(
            report::END_TO_END,
            &end_to_end(&setups_s, &untraced)
        )?)
    );
    println!(
        "host: {} core(s), simd {}, {}",
        host::cores(),
        cumulon_matrix::simd_level().name(),
        host::rustc_version()
    );
    println!(
        "trace: {} spans -> {}",
        traced.spans.len(),
        trace_path.display()
    );
    let (attempted, failed) = (
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    );
    println!(
        "{}",
        report::result_line(
            untraced.correct() && traced.correct(),
            attempted,
            failed,
            &metrics
        )
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("cumulon-benchmark: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_trace::json::{parse, JsonValue};

    fn config(seed: u64, tag: &str) -> (Scratch, workloads::Config) {
        let scratch = Scratch(
            default_out().join(format!("scratch-test-{tag}-{seed}-{}", std::process::id())),
        );
        std::fs::create_dir_all(&scratch.0).unwrap();
        let cfg = workloads::Config {
            seed,
            scratch: scratch.0.clone(),
        };
        (scratch, cfg)
    }

    /// Two seeds give two sets of inputs and references, every round of
    /// both passes its output check, and both print the same metric names.
    #[test]
    fn seeds_change_fingerprints_but_not_metric_names() {
        for name in workloads::NAMES {
            let mut fingerprints = Vec::new();
            for seed in [1, 2] {
                let (_scratch, cfg) = config(seed, name);
                let fx = workloads::build(name, &cfg).unwrap();
                let (_scratch_again, cfg_again) = config(seed, &format!("{name}-again"));
                assert_eq!(
                    fx.fingerprint(),
                    workloads::build(name, &cfg_again).unwrap().fingerprint(),
                    "{name}: same seed, other inputs"
                );
                let m = measure(
                    fx.as_ref(),
                    Plan {
                        warmup: 1,
                        rounds: 2,
                        traced: true,
                        deadline: Duration::from_secs(60),
                    },
                );
                assert_eq!((m.attempted, m.failed), (2, 0), "{name} seed {seed}");
                assert!(m.correct() && fx.rounds() >= 50, "{name} seed {seed}");
                let metrics = report::collect(report::END_TO_END, &end_to_end(&[0.5], &m)).unwrap();
                let names: Vec<_> = metrics.iter().map(|(n, _, _)| *n).collect();
                let table: Vec<_> = report::END_TO_END.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, table);
                assert!(metrics.iter().all(|(_, v, _)| *v > 0.0), "{metrics:?}");
                fingerprints.push(fx.fingerprint());
            }
            assert_ne!(fingerprints[0], fingerprints[1], "{name}: seed ignored");
        }
    }

    fn names_and_units(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// BENCHMARK.json declares exactly what the binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&v, "end_to_end"), owned(report::END_TO_END));
        assert_eq!(names_and_units(&v, "per_layer"), owned(report::PER_LAYER));
        // Every workload but `spill_write` is gated (see workloads::NAMES).
        let gated: Vec<String> = names_and_units(&v, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let want: Vec<&str> = workloads::NAMES
            .into_iter()
            .filter(|n| *n != "spill_write")
            .collect();
        assert_eq!(gated, want);
        assert!(v
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|m| {
                m.get("bound")
                    .and_then(|b| b.as_f64())
                    .is_some_and(|b| b > 0.0 && b <= 0.25)
            }));
    }

    #[test]
    fn arguments_parse_in_both_spellings() {
        let to_args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&to_args(
            "--workload spill_scan --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("spill_scan", 9, 3.0, true)
        );
        let a = parse_args(&to_args("serve_mix --seed 4 --out /tmp/x")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve_mix", 4, false)
        );
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert!(parse_args(&to_args("--workload nope")).is_err());
        assert!(parse_args(&to_args("--workload serve_mix --trace 2")).is_err());
        assert!(parse_args(&to_args("--workload serve_mix --seconds 0")).is_err());
        assert!(parse_args(&to_args("--seed 1")).is_err());
    }
}
