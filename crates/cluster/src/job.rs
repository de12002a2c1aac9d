//! Map-only jobs, tasks and the task execution context.
//!
//! A Cumulon physical plan lowers to a DAG of [`Job`]s. Each job is a bag
//! of independent [`Task`]s (no shuffle, no reduce); tasks read input tiles
//! from the tile store, compute, and write output tiles back. The
//! [`TaskCtx`] both services those requests and records a [`TaskReceipt`]
//! of everything the task consumed, which the hardware model converts into
//! simulated seconds.

use std::sync::Arc;

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::{IoReceipt, TileStore};
use cumulon_matrix::ops::Work;
use cumulon_matrix::Tile;

use crate::error::{ClusterError, Result};

/// CPU cost of generating one matrix cell (seeded RNG + store), in flops —
/// shared with the analytic estimator in `cumulon-core`.
pub const GEN_FLOPS_PER_CELL: f64 = 12.0;

/// Whether tasks materialise real tile data or metadata-only phantoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real tile math; results are collectable and verifiable.
    Real,
    /// Phantom tiles: shapes/nnz/bytes flow, values do not. Used for
    /// paper-scale experiments.
    Simulated,
}

/// Resource consumption of one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskReceipt {
    /// Kernel work performed (flops; kernel-level byte movement).
    pub work: Work,
    /// Bytes read from the DFS, split by locality.
    pub read: IoReceipt,
    /// Bytes written to the DFS (including replication traffic).
    pub write: IoReceipt,
    /// Peak memory demand of the task in MB (inputs + outputs resident).
    pub mem_mb: f64,
    /// Fixed framework-imposed seconds (e.g. MapReduce job scheduling
    /// latency), added verbatim to the task's duration.
    pub fixed_s: f64,
    /// Number of DFS file operations (tile reads + writes): each pays a
    /// per-operation overhead (namenode round trip, open, seek).
    pub io_ops: u64,
}

impl TaskReceipt {
    /// Component-wise sum (for job-level aggregation).
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn add(self, other: TaskReceipt) -> TaskReceipt {
        TaskReceipt {
            work: self.work.add(other.work),
            read: self.read.add(other.read),
            write: self.write.add(other.write),
            mem_mb: self.mem_mb.max(other.mem_mb),
            fixed_s: self.fixed_s + other.fixed_s,
            io_ops: self.io_ops + other.io_ops,
        }
    }
}

/// One output-tile write staged by a [`TaskCtx`]. The tile stays a shared
/// handle (no encoding on the write path); the scheduler commits staged
/// writes in canonical task order, so the DFS placement RNG draws follow
/// assignment order however the wave's tasks were resolved.
#[derive(Clone)]
pub(crate) struct StagedWrite {
    /// Destination matrix name.
    pub matrix: String,
    /// Tile row index.
    pub ti: usize,
    /// Tile column index.
    pub tj: usize,
    /// The output tile, shared.
    pub tile: Arc<Tile>,
    /// Logical stored size of the tile (for receipt rescaling and memory
    /// accounting).
    pub stored_bytes: u64,
}

/// One operation recorded by a recording [`TaskCtx`] (see
/// [`TaskCtx::new_recording`]). A speculative execution logs every
/// context interaction in program order; replaying the log against a fresh
/// context at the canonical time reproduces the exact receipt — including
/// f64 accumulation order — the task would have produced had it run then,
/// as long as every replayed read still returns the recorded tile.
#[derive(Clone)]
pub(crate) enum TaskOp {
    /// A successful tile read and the handle it returned.
    Read {
        /// Source matrix name.
        matrix: String,
        /// Tile row index.
        ti: usize,
        /// Tile column index.
        tj: usize,
        /// The tile the recording read returned (for replay validation).
        tile: Arc<Tile>,
    },
    /// A successful tile write.
    Write {
        /// Destination matrix name.
        matrix: String,
        /// Tile row index.
        ti: usize,
        /// Tile column index.
        tj: usize,
        /// The written tile, shared.
        tile: Arc<Tile>,
    },
    /// [`TaskCtx::charge`].
    Charge(Work),
    /// [`TaskCtx::charge_mem_mb`].
    ChargeMem(f64),
    /// [`TaskCtx::charge_read_io`].
    ChargeReadIo(IoReceipt),
    /// [`TaskCtx::charge_write_io`].
    ChargeWriteIo(IoReceipt),
    /// [`TaskCtx::charge_seconds`].
    ChargeSeconds(f64),
    /// [`TaskCtx::charge_io_ops`].
    ChargeIoOps(u64),
}

/// Execution context handed to a task's logic. Wraps the tile store with
/// receipt accounting and carries the placement decided by the scheduler.
pub struct TaskCtx {
    store: TileStore,
    /// Node this attempt runs on.
    pub node: NodeId,
    /// Execution mode for tile reads.
    pub mode: ExecMode,
    receipt: TaskReceipt,
    /// Output tiles written so far, awaiting the scheduler's commit.
    staged: Vec<StagedWrite>,
    /// Present in recording mode: the op log for later replay.
    ops: Option<Vec<TaskOp>>,
}

impl TaskCtx {
    /// Creates a context (scheduler-internal, public for tests and custom
    /// engines). [`TaskCtx::write_tile`] validates and stages instead of
    /// touching the DFS, so a wave's tasks can be resolved in any order —
    /// or on a worker thread — without perturbing the placement RNG. The
    /// scheduler commits the staged writes in canonical task order via
    /// [`TaskCtx::into_parts`].
    pub(crate) fn new(store: TileStore, node: NodeId, mode: ExecMode) -> Self {
        TaskCtx {
            store,
            node,
            mode,
            receipt: TaskReceipt::default(),
            staged: Vec::new(),
            ops: None,
        }
    }

    /// Creates a recording context for lookahead speculation: a context
    /// that also logs every interaction. The node is a placeholder —
    /// recording runs before the scheduler knows where the task will land,
    /// and nothing node-dependent survives into the log (receipts are
    /// recomputed at replay against the real node).
    pub(crate) fn new_recording(store: TileStore, mode: ExecMode) -> Self {
        TaskCtx {
            ops: Some(Vec::new()),
            ..TaskCtx::new(store, NodeId(u32::MAX), mode)
        }
    }

    /// Consumes a recording context, returning the op log.
    pub(crate) fn into_ops(self) -> Vec<TaskOp> {
        self.ops.unwrap_or_default()
    }

    /// Consumes the context, returning the receipt accumulated so far plus
    /// the staged writes. The receipt's `write` field holds only raw
    /// [`TaskCtx::charge_write_io`] charges — the scheduler adds the tile
    /// commit receipts in staging order.
    pub(crate) fn into_parts(self) -> (TaskReceipt, Vec<StagedWrite>) {
        (self.receipt, self.staged)
    }

    /// Reads a tile of a registered matrix, charging I/O and memory (and,
    /// for generator-backed matrices, the generation CPU instead of I/O).
    pub fn read_tile(&mut self, matrix: &str, ti: usize, tj: usize) -> Result<Arc<Tile>> {
        // Read-your-own-writes: a tile this task has already staged is
        // served from the staging buffer with the receipt a
        // committed-then-read-back tile would produce (the writer-local
        // replica is always placed first and read first, so the read is
        // fully local).
        if let Some(w) = self
            .staged
            .iter()
            .rev()
            .find(|w| w.matrix == matrix && w.ti == ti && w.tj == tj)
        {
            let stored = w.stored_bytes;
            let tile = Arc::clone(&w.tile);
            let io = IoReceipt {
                bytes: stored,
                local_bytes: stored,
                remote_bytes: 0,
            };
            self.receipt.read = self.receipt.read.add(io);
            if io != IoReceipt::default() {
                self.receipt.io_ops += 1;
            }
            self.receipt.mem_mb += stored as f64 / 1e6;
            if let Some(ops) = &mut self.ops {
                ops.push(TaskOp::Read {
                    matrix: matrix.to_string(),
                    ti,
                    tj,
                    tile: Arc::clone(&tile),
                });
            }
            return Ok(tile);
        }
        let phantom = self.mode == ExecMode::Simulated;
        let (tile, io) =
            self.store
                .read_or_generate_tile(matrix, ti, tj, Some(self.node), phantom)?;
        match io {
            // Generating a tile costs ~a few flops per cell of RNG work.
            None => {
                let cells = (tile.rows() * tile.cols()) as f64;
                self.receipt.work = self.receipt.work.add(Work {
                    flops: GEN_FLOPS_PER_CELL * cells,
                    bytes_in: 0.0,
                    bytes_out: 0.0,
                });
            }
            Some(io) => {
                self.receipt.read = self.receipt.read.add(io);
                if io != IoReceipt::default() {
                    self.receipt.io_ops += 1;
                }
            }
        }
        // Tiles read are resident for the task's lifetime; charge their
        // *dense logical* footprint when the tile participates in dense
        // kernels and its stored size otherwise.
        self.receipt.mem_mb += tile.stored_bytes() as f64 / 1e6;
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::Read {
                matrix: matrix.to_string(),
                ti,
                tj,
                tile: Arc::clone(&tile),
            });
        }
        Ok(tile)
    }

    /// Writes an output tile, charging I/O and memory. Accepts an owned
    /// `Tile`, an `Arc<Tile>`, or `&Tile` (cloned); hot paths hand over
    /// ownership so no payload copy happens anywhere on the write path.
    /// The tile is validated here (so a malformed write fails inside the
    /// task's logic) and its handle staged for the scheduler to commit.
    pub fn write_tile(
        &mut self,
        matrix: &str,
        ti: usize,
        tj: usize,
        tile: impl Into<Arc<Tile>>,
    ) -> Result<()> {
        let tile: Arc<Tile> = tile.into();
        self.store.validate_tile(matrix, ti, tj, &tile)?;
        self.staged.push(StagedWrite {
            matrix: matrix.to_string(),
            ti,
            tj,
            tile: Arc::clone(&tile),
            stored_bytes: tile.stored_bytes(),
        });
        self.receipt.io_ops += 1;
        self.receipt.mem_mb += tile.stored_bytes() as f64 / 1e6;
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::Write {
                matrix: matrix.to_string(),
                ti,
                tj,
                tile,
            });
        }
        Ok(())
    }

    /// Charges kernel work (the operators call this after each kernel).
    pub fn charge(&mut self, work: Work) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::Charge(work));
        }
        self.receipt.work = self.receipt.work.add(work);
    }

    /// Charges additional resident memory in MB (accumulators etc.).
    pub fn charge_mem_mb(&mut self, mb: f64) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::ChargeMem(mb));
        }
        self.receipt.mem_mb += mb;
    }

    /// Charges raw read I/O not mediated by the tile store (e.g. a
    /// baseline engine's shuffle fetch).
    pub fn charge_read_io(&mut self, io: IoReceipt) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::ChargeReadIo(io));
        }
        self.receipt.read = self.receipt.read.add(io);
    }

    /// Charges raw write I/O not mediated by the tile store (e.g. map
    /// output spills).
    pub fn charge_write_io(&mut self, io: IoReceipt) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::ChargeWriteIo(io));
        }
        self.receipt.write = self.receipt.write.add(io);
    }

    /// Charges a fixed framework delay in seconds.
    pub fn charge_seconds(&mut self, secs: f64) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::ChargeSeconds(secs));
        }
        self.receipt.fixed_s += secs;
    }

    /// Charges `n` extra DFS file operations (for engines doing raw I/O
    /// outside the tile helpers).
    pub fn charge_io_ops(&mut self, n: u64) {
        if let Some(ops) = &mut self.ops {
            ops.push(TaskOp::ChargeIoOps(n));
        }
        self.receipt.io_ops += n;
    }

    /// The accumulated receipt.
    #[cfg(test)]
    pub(crate) fn receipt(&self) -> TaskReceipt {
        self.receipt
    }

    /// Access to the tile store for operations not covered by the helpers
    /// (e.g. registering an output matrix from the driver).
    #[cfg(test)]
    pub(crate) fn store(&self) -> &TileStore {
        &self.store
    }
}

/// A tile of a named matrix: `(matrix, ti, tj)`. The name is shared, so
/// the hints and read sets of a job's tasks hold one allocation of it.
pub type TileRef = (Arc<str>, usize, usize);

/// Task logic: a function of the context. Must be `Fn` (not `FnOnce`) so
/// failed attempts can be retried, and `Send + Sync` so jobs can be
/// executed from worker threads.
pub(crate) type TaskFn = Arc<dyn Fn(&mut TaskCtx) -> Result<()> + Send + Sync>;

/// One task of a map-only job.
#[derive(Clone)]
pub struct Task {
    /// Logic to run.
    pub run: TaskFn,
    /// Matrix/tile whose locality should guide placement, if any:
    /// `(matrix, ti, tj)` of the dominant input.
    pub locality_hint: Option<TileRef>,
    /// Input tiles the task will read, in read order, when the task
    /// builder knows them (e.g. the operand band of a GEMM task). The
    /// scheduler prefetches spilled tiles from this set; when empty, the
    /// locality hint alone stands in for it. Purely advisory — never
    /// consulted on any result-bearing path.
    pub read_set: Vec<TileRef>,
}

impl Task {
    /// Creates a task from a closure.
    pub fn new(f: impl Fn(&mut TaskCtx) -> Result<()> + Send + Sync + 'static) -> Self {
        Task {
            run: Arc::new(f),
            locality_hint: None,
            read_set: Vec::new(),
        }
    }

    /// Attaches a locality hint. Pass a shared `Arc<str>` to attach the
    /// name without copying it.
    pub fn with_locality(mut self, matrix: impl Into<Arc<str>>, ti: usize, tj: usize) -> Self {
        self.locality_hint = Some((matrix.into(), ti, tj));
        self
    }

    /// Declares the input tiles the task will read, in read order, so the
    /// scheduler can prefetch exactly what is about to be demanded and
    /// nothing else.
    pub fn with_read_set(mut self, tiles: Vec<TileRef>) -> Self {
        self.read_set = tiles;
        self
    }
}

/// A map-only job: independent tasks plus bookkeeping the scheduler and
/// reports use.
#[derive(Clone)]
pub struct Job {
    /// Human-readable name, e.g. `"mul#2"`.
    pub name: String,
    /// Physical operator label for calibration, e.g. `"mul"`, `"add"`.
    pub op_label: String,
    /// The tasks.
    pub tasks: Vec<Task>,
}

impl Job {
    /// Creates a job.
    pub fn new(name: impl Into<String>, op_label: impl Into<String>, tasks: Vec<Task>) -> Self {
        Job {
            name: name.into(),
            op_label: op_label.into(),
            tasks,
        }
    }
}

/// A DAG of jobs: `deps[j]` lists jobs that must finish before job `j`
/// starts (tiles it reads are written by them).
#[derive(Clone, Default)]
pub struct JobDag {
    /// The jobs, indexed by position.
    pub jobs: Vec<Job>,
    /// Dependency lists, parallel to `jobs`.
    pub deps: Vec<Vec<usize>>,
}

impl JobDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a job with dependencies, returning its index.
    pub fn push(&mut self, job: Job, deps: Vec<usize>) -> usize {
        self.jobs.push(job);
        self.deps.push(deps);
        self.jobs.len() - 1
    }

    /// Validates the DAG: dependencies in range and acyclic (indices must
    /// point backwards, which `push` guarantees for well-formed builders).
    pub(crate) fn validate(&self) -> Result<()> {
        for (j, deps) in self.deps.iter().enumerate() {
            for &d in deps {
                if d >= self.jobs.len() {
                    return Err(ClusterError::InvalidDag(format!(
                        "job {j} depends on out-of-range job {d}"
                    )));
                }
                if d >= j {
                    return Err(ClusterError::InvalidDag(format!(
                        "job {j} depends on job {d}, which does not precede it"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total task count across jobs.
    pub fn total_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.tasks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_dfs::{Dfs, DfsConfig};
    use cumulon_matrix::MatrixMeta;

    fn ctx(mode: ExecMode) -> TaskCtx {
        let store = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                ..Default::default()
            },
        ));
        store.register("A", MatrixMeta::new(4, 4, 4)).unwrap();
        store
            .write_tile("A", 0, 0, &Tile::zeros(4, 4), Some(NodeId(0)))
            .unwrap();
        store.register("B", MatrixMeta::new(4, 4, 4)).unwrap();
        TaskCtx::new(store, NodeId(0), mode)
    }

    #[test]
    fn ctx_accounts_reads_and_writes() {
        let mut c = ctx(ExecMode::Real);
        let t = c.read_tile("A", 0, 0).unwrap();
        c.write_tile("B", 0, 0, t).unwrap();
        let r = c.receipt();
        assert!(r.read.bytes > 0);
        assert_eq!(
            r.read.local_bytes, r.read.bytes,
            "writer-local replica should be read locally"
        );
        assert!(r.mem_mb > 0.0);
        // The write is staged; committing it the way the scheduler does
        // pays replication 2: one local + one remote copy.
        let (store, node) = (c.store().clone(), c.node);
        let (_, staged) = c.into_parts();
        let w = &staged[0];
        let io = store
            .write_tile_arc(&w.matrix, w.ti, w.tj, Arc::clone(&w.tile), Some(node))
            .unwrap();
        assert!(io.remote_bytes > 0);
    }

    #[test]
    fn ctx_charges_work() {
        let mut c = ctx(ExecMode::Real);
        c.charge(Work {
            flops: 100.0,
            bytes_in: 0.0,
            bytes_out: 0.0,
        });
        c.charge(Work {
            flops: 50.0,
            bytes_in: 0.0,
            bytes_out: 0.0,
        });
        c.charge_mem_mb(12.5);
        assert_eq!(c.receipt().work.flops, 150.0);
        assert!(c.receipt().mem_mb >= 12.5);
    }

    #[test]
    fn receipt_add_takes_max_memory() {
        let a = TaskReceipt {
            mem_mb: 10.0,
            ..Default::default()
        };
        let b = TaskReceipt {
            mem_mb: 4.0,
            ..Default::default()
        };
        assert_eq!(a.add(b).mem_mb, 10.0);
    }

    #[test]
    fn dag_validation() {
        let mut dag = JobDag::new();
        let j0 = dag.push(Job::new("a", "gen", vec![]), vec![]);
        let j1 = dag.push(Job::new("b", "mul", vec![]), vec![j0]);
        assert_eq!((j0, j1), (0, 1));
        assert!(dag.validate().is_ok());

        let mut bad = JobDag::new();
        bad.push(Job::new("a", "x", vec![]), vec![5]);
        assert!(bad.validate().is_err());

        let mut cyclic = JobDag {
            jobs: vec![Job::new("a", "x", vec![])],
            deps: vec![vec![0]],
        };
        assert!(cyclic.validate().is_err());
        cyclic.deps[0] = vec![];
        assert!(cyclic.validate().is_ok());
    }

    #[test]
    fn task_retryable() {
        let task = Task::new(|_ctx| Ok(()));
        let mut c = ctx(ExecMode::Real);
        (task.run)(&mut c).unwrap();
        (task.run)(&mut c).unwrap(); // Fn, not FnOnce: retry works
    }

    #[test]
    fn locality_hint_builder() {
        let t = Task::new(|_| Ok(())).with_locality("A", 1, 2);
        assert_eq!(t.locality_hint, Some((Arc::from("A"), 1, 2)));
    }

    #[test]
    fn recording_ctx_logs_ops_in_program_order() {
        let store = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                ..Default::default()
            },
        ));
        store.register("A", MatrixMeta::new(4, 4, 4)).unwrap();
        store
            .write_tile("A", 0, 0, &Tile::zeros(4, 4), Some(NodeId(0)))
            .unwrap();
        store.register("B", MatrixMeta::new(4, 4, 4)).unwrap();
        let mut c = TaskCtx::new_recording(store, ExecMode::Real);
        let t = c.read_tile("A", 0, 0).unwrap();
        c.charge(Work {
            flops: 7.0,
            bytes_in: 0.0,
            bytes_out: 0.0,
        });
        c.write_tile("B", 0, 0, Arc::clone(&t)).unwrap();
        // Read-your-own-writes inside a recording is logged too, and the
        // handle it returns is the staged one.
        let back = c.read_tile("B", 0, 0).unwrap();
        assert!(Arc::ptr_eq(&back, &t));
        let ops = c.into_ops();
        assert_eq!(ops.len(), 4);
        assert!(matches!(&ops[0], TaskOp::Read { matrix, tile, .. }
            if matrix == "A" && Arc::ptr_eq(tile, &t)));
        assert!(matches!(&ops[1], TaskOp::Charge(w) if w.flops == 7.0));
        assert!(matches!(&ops[2], TaskOp::Write { matrix, .. } if matrix == "B"));
        assert!(matches!(&ops[3], TaskOp::Read { matrix, .. } if matrix == "B"));
    }

    #[test]
    fn staged_writes_share_the_handle() {
        let store = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                ..Default::default()
            },
        ));
        store.register("B", MatrixMeta::new(4, 4, 4)).unwrap();
        let mut c = TaskCtx::new(store, NodeId(0), ExecMode::Real);
        let t = Arc::new(Tile::zeros(4, 4));
        c.write_tile("B", 0, 0, Arc::clone(&t)).unwrap();
        let (_, staged) = c.into_parts();
        assert_eq!(staged.len(), 1);
        assert!(Arc::ptr_eq(&staged[0].tile, &t), "staging must not copy");
    }

    #[test]
    fn simulated_mode_reads_phantoms_for_generated() {
        let store = TileStore::new(Dfs::new(1, DfsConfig::default()));
        store
            .register_generated(
                "G",
                MatrixMeta::new(8, 8, 8),
                cumulon_matrix::gen::Generator::DenseGaussian { seed: 1 },
            )
            .unwrap();
        let mut c = TaskCtx::new(store, NodeId(0), ExecMode::Simulated);
        let t = c.read_tile("G", 0, 0).unwrap();
        assert!(t.is_phantom());
    }
}
