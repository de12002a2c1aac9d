//! `spill_write`: the write side of the storage hierarchy.
//!
//! A round uploads 12 MB of matrices into a tile store budgeted at a
//! tenth of that, so nearly every tile is demoted on the way in — encode →
//! `maybe_compress` → digest → `BlobStore::put` — and then drops them,
//! which kills their blob entries; across a run ≈ 1.2 GB is appended, so
//! segments roll and dead-byte compaction cycles many times. Nothing is
//! read on the clock.

use std::sync::Mutex;

use cumulon_dfs::{Dfs, DfsConfig, SpillConfig, SpillStats, TileStore};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{LocalMatrix, MatrixMeta};

use super::{derive_seed, zero_heavy, Config, OrString};
use crate::harness::{Fixture, RoundCtx};

/// Each of the two matrices is 768×1024 in 256² tiles: 12 tiles of
/// 512 KiB, 6 MiB; together 12 MiB against a 1.2 MiB budget, which holds
/// two tiles.
pub const SHAPE: (usize, usize) = (768, 1024);
/// Tile side.
pub const TILE: usize = 256;
/// Bytes of both matrices.
pub const WORKING_SET: u64 = 2 * (SHAPE.0 * SHAPE.1 * 8) as u64;
/// Resident-tile budget: a tenth of the working set.
pub const BUDGET: u64 = WORKING_SET / 10;
/// Tiles of each matrix read back and compared after a timed round's
/// upload; warm-up rounds compare everything.
const SAMPLED_TILES: usize = 2;

struct State {
    /// Dense Gaussian: LZSS finds nothing and stores it raw.
    dense: LocalMatrix,
    /// 95 % zeros in dense format: compresses.
    zeros: LocalMatrix,
    round: usize,
}

/// Prepared state of the workload.
pub struct SpillWrite {
    store: TileStore,
    state: Mutex<State>,
    fingerprint: String,
}

impl SpillWrite {
    /// Generates the two matrices and opens the budgeted store.
    pub fn build(cfg: &Config) -> Result<Self, String> {
        let meta = MatrixMeta::new(SHAPE.0, SHAPE.1, TILE);
        let dense = LocalMatrix::generate(
            meta,
            &Generator::DenseGaussian {
                seed: derive_seed(cfg.seed, 0),
            },
        );
        let zeros = zero_heavy(meta, derive_seed(cfg.seed, 1))?;
        let store = TileStore::new(Dfs::new(4, DfsConfig::default()));
        store
            .set_memory_budget(&SpillConfig {
                budget_bytes: BUDGET,
                dir: Some(cfg.scratch.join("spill_write")),
                compress: true,
            })
            .or_string()?;
        let fingerprint = format!(
            "dense {:016x} zeros {:016x} nnz {}\n",
            dense.frob_norm().to_bits(),
            zeros.frob_norm().to_bits(),
            zeros.nnz()
        );
        Ok(SpillWrite {
            store,
            state: Mutex::new(State {
                dense,
                zeros,
                round: 0,
            }),
            fingerprint,
        })
    }

    /// Byte-exact round trip of what was just uploaded: all of it in
    /// warm-up rounds, a rotating sample of tiles in timed rounds (every
    /// tile position is covered every six rounds), because reading 12 MB
    /// back through a two-tile budget costs more than the round itself.
    fn check(&self, st: &State, full: bool) -> Result<(), String> {
        for (name, want) in [("D", &st.dense), ("Z", &st.zeros)] {
            if full {
                if self.store.get_local(name).or_string()? != *want {
                    return Err(format!("{name}: get_local differs from what was put"));
                }
                continue;
            }
            let grid: Vec<(usize, usize)> = want.meta().grid().iter().collect();
            for k in 0..SAMPLED_TILES {
                let (ti, tj) = grid[(st.round * SAMPLED_TILES + k) % grid.len()];
                let (got, _) = self
                    .store
                    .read_tile(name, ti, tj, None, false)
                    .or_string()?;
                if *got != *want.tile(ti, tj).or_string()? {
                    return Err(format!("{name}[{ti},{tj}] differs from what was put"));
                }
            }
        }
        Ok(())
    }
}

impl Fixture for SpillWrite {
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
        let mut st = self.state.lock().expect("one client, no panics");
        // Fresh content every round, so no round's blobs can be answered
        // by an earlier round's digests.
        ctx.pause(|| {
            st.dense.scale(1.0 + 1e-9);
            st.zeros.scale(1.0 + 1e-9);
            st.round += 1;
        });
        ctx.rec.span("dfs.put_local", |_| {
            self.store.put_local("D", &st.dense).or_string()?;
            self.store.put_local("Z", &st.zeros).or_string()
        })?;
        let full = ctx.warmup;
        let checked = ctx.pause(|| self.check(&st, full));
        ctx.rec.span("dfs.drop_matrix", |_| {
            self.store.drop_matrix("D").or_string()?;
            self.store.drop_matrix("Z").or_string()
        })?;
        checked
    }

    fn rounds(&self) -> u32 {
        220
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn spill_stats(&self) -> Option<SpillStats> {
        self.store.dfs().spill_stats()
    }

    fn ws_over_budget(&self) -> f64 {
        WORKING_SET as f64 / BUDGET as f64
    }
}
