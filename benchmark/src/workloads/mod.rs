//! The six workloads. Each module builds a [`Fixture`] from the seed at
//! set-up and runs identical rounds against it; see README.md for why
//! each exists and which layer it leans on.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;

use cumulon_cluster::SchedulerConfig;
use cumulon_core::expr::InputDesc;
use cumulon_matrix::gen::{sparse_uniform_tile, tile_seed};
use cumulon_matrix::{LocalMatrix, MatrixMeta, Tile};

use crate::harness::Fixture;

pub mod dense_incore;
pub mod optimize_search;
pub mod serve_mix;
pub mod sim_paper_scale;
pub mod spill_scan;
pub mod spill_write;

/// Workload names, in the order `run_all.sh` lists them. BENCHMARK.json
/// gates all but `spill_write`: the driver's time limit fits five
/// workloads at 20 s a run, and `spill_scan` also evicts.
pub const NAMES: [&str; 6] = [
    "dense_incore",
    "spill_write",
    "spill_scan",
    "sim_paper_scale",
    "optimize_search",
    "serve_mix",
];

/// Engine worker threads of every Real-mode round, whatever the host's
/// core count: results are comparable across hosts only at a fixed count.
/// One — task logic inline, the scheduler's canonical order and what
/// `cumulon run` does without `--threads` — because two workers and the
/// DES thread on a shared 2-core host measured the host's scheduler: the
/// fastest round of a run moved 13 % between runs. The probes report what
/// a second thread buys (`cluster.thread_speedup`).
pub const ENGINE_THREADS: usize = 1;

/// What a workload is built from.
#[derive(Debug, Clone)]
pub struct Config {
    /// `--seed`: generator seeds and request order derive from it.
    pub seed: u64,
    /// Directory for spill segments, under `--out`; the caller removes it.
    pub scratch: PathBuf,
}

/// Builds the named workload's fixture: everything `setup_s` covers.
pub fn build(name: &str, cfg: &Config) -> Result<Box<dyn Fixture>, String> {
    Ok(match name {
        "dense_incore" => Box::new(dense_incore::DenseIncore::build(cfg)?),
        "spill_write" => Box::new(spill_write::SpillWrite::build(cfg)?),
        "spill_scan" => Box::new(spill_scan::SpillScan::build(cfg)?),
        "sim_paper_scale" => Box::new(sim_paper_scale::SimPaperScale::build(cfg)?),
        "optimize_search" => Box::new(optimize_search::OptimizeSearch::build(cfg)?),
        "serve_mix" => Box::new(serve_mix::ServeMix::build(cfg)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (want one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// `Result<T, E: Display>` → `Result<T, String>`: rounds and set-up report
/// failures as text, whichever layer raised them.
pub trait OrString<T> {
    /// Stringifies the error.
    fn or_string(self) -> Result<T, String>;
}

impl<T, E: Display> OrString<T> for Result<T, E> {
    fn or_string(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

/// Independent generator seed number `stream` of a run: the matrix
/// crate's own splitmix hash, which it uses to tell a matrix's tiles apart.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    tile_seed(seed, stream as usize, 0)
}

/// Scheduler configuration of Real-mode rounds.
pub fn engine_config() -> SchedulerConfig {
    SchedulerConfig::default().with_threads(ENGINE_THREADS)
}

/// A dense-format matrix that is 95 % zeros: stored at full size, but its
/// encoding compresses, unlike Gaussian data (which LZSS stores raw).
pub fn zero_heavy(meta: MatrixMeta, seed: u64) -> Result<LocalMatrix, String> {
    let tiles = meta
        .grid()
        .iter()
        .map(|(ti, tj)| {
            let (r, c) = meta.tile_dims(ti, tj);
            Tile::dense(sparse_uniform_tile(seed, ti, tj, r, c, 0.05).to_dense())
        })
        .collect();
    LocalMatrix::from_tiles(meta, tiles).or_string()
}

/// `got` equals `want` up to rounding in a different summation order.
pub fn check_close(got: &LocalMatrix, want: &LocalMatrix, what: &str) -> Result<(), String> {
    let diff = got.max_abs_diff(want).or_string()?;
    let tol = 1e-10 * want.frob_norm().max(1.0);
    if diff.is_nan() || diff > tol {
        return Err(format!("{what}: max |diff| {diff:e} exceeds {tol:e}"));
    }
    Ok(())
}

/// The RSVD-1 chain as one script: sketch, one power iteration, and the
/// two Gram products the driver factorises.
pub const RSVD_SCRIPT: &str = "Y0 = A * Omega; Y1 = A * (A' * Y0); \
     G1 = Y1' * Y1; Bm = A' * Y1; G2 = Bm' * Bm; out G1, G2;";

/// Shapes of the RSVD inputs.
#[derive(Debug, Clone, Copy)]
pub struct RsvdShape {
    /// Rows of `A`.
    pub m: usize,
    /// Columns of `A`.
    pub n: usize,
    /// Sketch width.
    pub k: usize,
    /// Tile side.
    pub tile: usize,
}

impl RsvdShape {
    /// Meta of `A`.
    pub fn a(&self) -> MatrixMeta {
        MatrixMeta::new(self.m, self.n, self.tile)
    }

    /// Meta of `Omega`.
    pub fn omega(&self) -> MatrixMeta {
        MatrixMeta::new(self.n, self.k, self.tile)
    }

    /// Generator-backed input descriptions of [`RSVD_SCRIPT`].
    pub fn inputs(&self) -> BTreeMap<String, InputDesc> {
        BTreeMap::from([
            ("A".to_string(), InputDesc::dense(self.a()).generated()),
            (
                "Omega".to_string(),
                InputDesc::dense(self.omega()).generated(),
            ),
        ])
    }
}
