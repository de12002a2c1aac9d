//! A MapReduce engine simulated on the cumulon cluster substrate.
//!
//! An MR job is lowered to (up to) two map-only cluster jobs — the map
//! phase and the reduce phase — chained by a dependency, plus explicit
//! charges for the machinery between them:
//!
//! * **map output spill**: emitted bytes are written to local disk
//!   (`sort_spill_passes` times over, modelling multi-pass external sort);
//! * **shuffle fetch**: each reducer pulls its partition over the network;
//! * **reduce merge**: fetched bytes make `merge_passes` additional local
//!   disk round trips before the reduce function sees them;
//! * **job scheduling latency**: each MR job pays `job_startup_s` once, on
//!   its first phase's critical path.
//!
//! Values are [`TaggedTile`]s so joins (e.g. pairing A- and B-operand tiles
//! in a matrix-multiply reducer) can tell their inputs apart.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cumulon_cluster::billing::BillingPolicy;
use cumulon_cluster::scheduler::{FailurePlan, Scheduler, SchedulerConfig};
use cumulon_cluster::{
    ClusterSpec, ExecMode, HardwareModel, Job, JobDag, RunReport, Task, TaskCtx,
};
use cumulon_dfs::{IoReceipt, TileStore};
use cumulon_matrix::Tile;

use cumulon_cluster::error::Result;

/// Reduce key: an output block coordinate (or any `(u32, u32)` grouping).
pub type ReduceKey = (u32, u32);

/// A shuffle value: a tile tagged with its operand and its position along
/// the join dimension.
#[derive(Debug, Clone)]
pub struct TaggedTile {
    /// Operand tag (0 = left/A, 1 = right/B, free-form otherwise).
    pub tag: u8,
    /// Join index (e.g. the shared dimension `k` in a multiply).
    pub k: u32,
    /// The payload. Shared so a mapper fanning one tile out to many keys
    /// emits handles, not deep copies.
    pub tile: Arc<Tile>,
}

impl TaggedTile {
    /// Serialized size on the shuffle wire (tile + key/tag header).
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.tile.stored_bytes() + 16
    }
}

/// MR framework cost constants.
#[derive(Debug, Clone, Copy)]
pub struct MrConfig {
    /// Per-MR-job scheduling latency in seconds (JobTracker round trips).
    pub job_startup_s: f64,
    /// How many times map output is written to local disk before serving
    /// (1.0 = single spill; >1 models multi-pass external sort).
    pub sort_spill_passes: f64,
    /// Local-disk round trips on the reduce side before reducing.
    pub merge_passes: f64,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            job_startup_s: 15.0,
            sort_spill_passes: 1.0,
            merge_passes: 1.0,
        }
    }
}

/// Collects map emissions and tallies their bytes.
pub struct Emitter {
    out: Vec<(ReduceKey, TaggedTile)>,
    bytes: u64,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            out: Vec::new(),
            bytes: 0,
        }
    }

    /// Emits a value for a key.
    pub(crate) fn emit(&mut self, key: ReduceKey, value: TaggedTile) {
        self.bytes += value.wire_bytes();
        self.out.push((key, value));
    }

    /// Bytes emitted so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Map function: reads inputs through the task context, emits tagged tiles.
pub(crate) type MapFn = Arc<dyn Fn(&mut TaskCtx, &mut Emitter) -> Result<()> + Send + Sync>;
/// Reduce function: one key and its values; writes outputs via the context.
pub(crate) type ReduceFn =
    Arc<dyn Fn(&mut TaskCtx, ReduceKey, &[TaggedTile]) -> Result<()> + Send + Sync>;

/// Specification of one MR job.
pub struct MrJobSpec {
    /// Job name (phases are suffixed `.map` / `.reduce`).
    pub name: String,
    /// One map task per entry.
    pub mappers: Vec<MapFn>,
    /// Reduce function (ignored when `reducers == 0`).
    pub reducer: Option<ReduceFn>,
    /// Number of reduce tasks. 0 = map-only job (mappers write outputs
    /// directly through their context).
    pub reducers: usize,
    /// Indices of MR jobs (in the submitted batch) this job depends on.
    pub deps: Vec<usize>,
}

/// One slot per map task, filled with that mapper's emissions. Slots keep
/// shuffle contents independent of mapper *completion* order (map tasks may
/// run concurrently on the worker pool, and a retried attempt simply
/// overwrites its own slot); reducers merge slots in mapper-index order, so
/// reduce input order is canonical.
type ShuffleBuf = Arc<Mutex<Vec<Option<Vec<(ReduceKey, TaggedTile)>>>>>;

/// Deterministic key → reducer partitioner.
pub(crate) fn partition(key: ReduceKey, reducers: usize) -> usize {
    let h = (key.0 as u64)
        .wrapping_mul(2_654_435_761)
        .wrapping_add(key.1 as u64);
    (h % reducers.max(1) as u64) as usize
}

/// The MapReduce engine: runs batches of MR jobs on a simulated cluster.
pub struct MrEngine {
    spec: ClusterSpec,
    store: TileStore,
    hw: HardwareModel,
    config: MrConfig,
    billing: BillingPolicy,
}

impl MrEngine {
    /// Creates an engine over an existing tile store (so baselines and
    /// Cumulon can read the same inputs).
    pub fn new(spec: ClusterSpec, store: TileStore, hw: HardwareModel, config: MrConfig) -> Self {
        MrEngine {
            spec,
            store,
            hw,
            config,
            billing: BillingPolicy::HourlyCeil,
        }
    }

    /// The tile store.
    pub(crate) fn store(&self) -> &TileStore {
        &self.store
    }

    /// The cluster spec this engine schedules onto.
    pub(crate) fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Runs a batch of MR jobs (dependencies refer to batch indices).
    pub(crate) fn run(&self, specs: Vec<MrJobSpec>, mode: ExecMode) -> Result<RunReport> {
        let mut dag = JobDag::new();
        // Cluster-job index of each MR job's final phase.
        let mut final_phase: Vec<usize> = Vec::with_capacity(specs.len());
        let config = self.config;

        for spec in &specs {
            let cluster_deps: Vec<usize> = spec.deps.iter().map(|&d| final_phase[d]).collect();
            let shuffle: ShuffleBuf = Arc::new(Mutex::new(vec![None; spec.mappers.len()]));

            // --- map phase -------------------------------------------------
            let mut map_tasks = Vec::with_capacity(spec.mappers.len());
            for (idx, mapper) in spec.mappers.iter().enumerate() {
                let mapper = Arc::clone(mapper);
                let shuffle = Arc::clone(&shuffle);
                let spills = config.sort_spill_passes;
                let startup = if idx == 0 { config.job_startup_s } else { 0.0 };
                map_tasks.push(Task::new(move |ctx| {
                    ctx.charge_seconds(startup);
                    let mut emitter = Emitter::new();
                    mapper(ctx, &mut emitter)?;
                    let bytes = emitter.bytes();
                    // Spill map output to local disk (sort passes write and
                    // re-read all but the final copy).
                    ctx.charge_write_io(IoReceipt {
                        bytes: (bytes as f64 * spills) as u64,
                        local_bytes: (bytes as f64 * spills) as u64,
                        remote_bytes: 0,
                    });
                    if spills > 1.0 {
                        ctx.charge_read_io(IoReceipt {
                            bytes: (bytes as f64 * (spills - 1.0)) as u64,
                            local_bytes: (bytes as f64 * (spills - 1.0)) as u64,
                            remote_bytes: 0,
                        });
                    }
                    shuffle.lock()[idx] = Some(emitter.out);
                    Ok(())
                }));
            }
            let has_map = !map_tasks.is_empty();
            let map_job_idx = if has_map {
                Some(dag.push(
                    Job::new(format!("{}.map", spec.name), "mr-map", map_tasks),
                    cluster_deps.clone(),
                ))
            } else {
                None
            };

            // --- reduce phase ----------------------------------------------
            if spec.reducers > 0 {
                let reducer = spec
                    .reducer
                    .as_ref()
                    .expect("reducers > 0 requires a reduce function");
                let reducers = spec.reducers;
                let mut reduce_tasks = Vec::with_capacity(reducers);
                for r in 0..reducers {
                    let reducer = Arc::clone(reducer);
                    let shuffle = Arc::clone(&shuffle);
                    let merges = config.merge_passes;
                    let startup = if !has_map && r == 0 {
                        config.job_startup_s
                    } else {
                        0.0
                    };
                    reduce_tasks.push(Task::new(move |ctx| {
                        ctx.charge_seconds(startup);
                        // This reducer's partition: keys sorted, values in
                        // mapper-index order then emission order — canonical
                        // regardless of which order the map tasks finished.
                        let mine: Vec<(ReduceKey, Vec<TaggedTile>)> = {
                            let buf = shuffle.lock();
                            let mut grouped: BTreeMap<ReduceKey, Vec<TaggedTile>> = BTreeMap::new();
                            for entries in buf.iter().flatten() {
                                for (key, value) in entries {
                                    if partition(*key, reducers) == r {
                                        grouped.entry(*key).or_default().push(value.clone());
                                    }
                                }
                            }
                            grouped.into_iter().collect()
                        };
                        let fetched: u64 = mine
                            .iter()
                            .flat_map(|(_, vs)| vs.iter())
                            .map(TaggedTile::wire_bytes)
                            .sum();
                        // Shuffle fetch over the network.
                        ctx.charge_read_io(IoReceipt {
                            bytes: fetched,
                            local_bytes: 0,
                            remote_bytes: fetched,
                        });
                        // Merge passes on local disk.
                        let merge_bytes = (fetched as f64 * merges) as u64;
                        ctx.charge_write_io(IoReceipt {
                            bytes: merge_bytes,
                            local_bytes: merge_bytes,
                            remote_bytes: 0,
                        });
                        ctx.charge_read_io(IoReceipt {
                            bytes: merge_bytes,
                            local_bytes: merge_bytes,
                            remote_bytes: 0,
                        });
                        for (key, values) in &mine {
                            reducer(ctx, *key, values)?;
                        }
                        Ok(())
                    }));
                }
                let reduce_deps = match map_job_idx {
                    Some(m) => vec![m],
                    None => cluster_deps,
                };
                let idx = dag.push(
                    Job::new(format!("{}.reduce", spec.name), "mr-reduce", reduce_tasks),
                    reduce_deps,
                );
                final_phase.push(idx);
            } else {
                final_phase.push(map_job_idx.expect("job must have mappers or reducers"));
            }
        }

        let scheduler = Scheduler::new(self.spec, self.store.clone(), self.hw, self.billing);
        scheduler.run(
            &dag,
            mode,
            SchedulerConfig::default(),
            &FailurePlan::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_dfs::{Dfs, DfsConfig};
    use cumulon_matrix::{DenseTile, MatrixMeta};

    fn engine() -> MrEngine {
        let spec = ClusterSpec::named("m1.large", 2, 2).unwrap();
        let store = TileStore::new(Dfs::new(spec.nodes, DfsConfig::default()));
        MrEngine::new(spec, store, HardwareModel::default(), MrConfig::default())
    }

    fn identity_tile(n: usize) -> Tile {
        Tile::dense(DenseTile::identity(n))
    }

    #[test]
    fn map_reduce_roundtrip_sums_by_key() {
        let e = engine();
        e.store().register("out", MatrixMeta::new(2, 2, 2)).unwrap();
        // Two mappers each emit the identity to key (0,0): reducer sums.
        let mapper: MapFn = Arc::new(|_ctx, em| {
            em.emit(
                (0, 0),
                TaggedTile {
                    tag: 0,
                    k: 0,
                    tile: Arc::new(identity_tile(2)),
                },
            );
            Ok(())
        });
        let reducer: ReduceFn = Arc::new(|ctx, _key, values| {
            let mut acc = Tile::zeros(2, 2);
            for v in values {
                acc.add_assign(&v.tile)?;
                ctx.charge(cumulon_matrix::ops::add_work(&acc, &v.tile));
            }
            ctx.write_tile("out", 0, 0, &acc)?;
            Ok(())
        });
        let spec = MrJobSpec {
            name: "sum".into(),
            mappers: vec![Arc::clone(&mapper), mapper],
            reducer: Some(reducer),
            reducers: 1,
            deps: vec![],
        };
        let report = e.run(vec![spec], ExecMode::Real).unwrap();
        assert_eq!(report.jobs.len(), 2); // map + reduce phases
        let out = e.store().get_local("out").unwrap();
        assert_eq!(out.sum(), 4.0); // 2 × identity(2)
    }

    #[test]
    fn shuffle_bytes_are_charged() {
        let e = engine();
        e.store().register("out", MatrixMeta::new(2, 2, 2)).unwrap();
        let mapper: MapFn = Arc::new(|_ctx, em| {
            em.emit(
                (0, 0),
                TaggedTile {
                    tag: 0,
                    k: 0,
                    tile: Arc::new(identity_tile(2)),
                },
            );
            Ok(())
        });
        let reducer: ReduceFn = Arc::new(|ctx, _k, vs| {
            ctx.write_tile("out", 0, 0, vs[0].tile.clone())?;
            Ok(())
        });
        let spec = MrJobSpec {
            name: "x".into(),
            mappers: vec![mapper],
            reducer: Some(reducer),
            reducers: 1,
            deps: vec![],
        };
        let report = e.run(vec![spec], ExecMode::Real).unwrap();
        let map = report.job("x.map").unwrap();
        let red = report.job("x.reduce").unwrap();
        assert!(map.receipt.write.local_bytes > 0, "spill charged");
        assert!(red.receipt.read.remote_bytes > 0, "shuffle fetch charged");
        assert!(red.receipt.read.local_bytes > 0, "merge pass charged");
    }

    #[test]
    fn job_startup_lands_on_critical_path() {
        let run_with_startup = |startup: f64| {
            let spec = ClusterSpec::named("m1.large", 1, 1).unwrap();
            let store = TileStore::new(Dfs::new(1, DfsConfig::default()));
            let e = MrEngine::new(
                spec,
                store,
                HardwareModel {
                    noise: cumulon_cluster::hw::NoiseModel::none(),
                    ..Default::default()
                },
                MrConfig {
                    job_startup_s: startup,
                    ..Default::default()
                },
            );
            let mapper: MapFn = Arc::new(|_, _| Ok(()));
            let spec = MrJobSpec {
                name: "m".into(),
                mappers: vec![mapper],
                reducer: None,
                reducers: 0,
                deps: vec![],
            };
            e.run(vec![spec], ExecMode::Real).unwrap().makespan_s
        };
        let slow = run_with_startup(30.0);
        let fast = run_with_startup(0.0);
        assert!((slow - fast - 30.0).abs() < 1.0, "slow {slow} fast {fast}");
    }

    #[test]
    fn chained_jobs_respect_deps() {
        let e = engine();
        e.store().register("a", MatrixMeta::new(2, 2, 2)).unwrap();
        e.store().register("b", MatrixMeta::new(2, 2, 2)).unwrap();
        let m1: MapFn = Arc::new(|ctx, _| {
            ctx.write_tile("a", 0, 0, identity_tile(2))?;
            Ok(())
        });
        let m2: MapFn = Arc::new(|ctx, _| {
            let t = ctx.read_tile("a", 0, 0)?; // requires job 0 to be done
            ctx.write_tile("b", 0, 0, t)?;
            Ok(())
        });
        let specs = vec![
            MrJobSpec {
                name: "j0".into(),
                mappers: vec![m1],
                reducer: None,
                reducers: 0,
                deps: vec![],
            },
            MrJobSpec {
                name: "j1".into(),
                mappers: vec![m2],
                reducer: None,
                reducers: 0,
                deps: vec![0],
            },
        ];
        let report = e.run(specs, ExecMode::Real).unwrap();
        assert!(report.job("j1.map").unwrap().start_s >= report.job("j0.map").unwrap().end_s);
        assert_eq!(e.store().get_local("b").unwrap().sum(), 2.0);
    }

    #[test]
    fn partitioner_covers_all_reducers() {
        let mut seen = [false; 4];
        for i in 0..16u32 {
            for j in 0..16u32 {
                seen[partition((i, j), 4)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(partition((3, 5), 1), 0);
    }

    #[test]
    fn multiple_reducers_split_keys() {
        let e = engine();
        e.store().register("out", MatrixMeta::new(4, 4, 2)).unwrap();
        let mapper: MapFn = Arc::new(|_ctx, em| {
            for i in 0..2u32 {
                for j in 0..2u32 {
                    em.emit(
                        (i, j),
                        TaggedTile {
                            tag: 0,
                            k: 0,
                            tile: Arc::new(identity_tile(2)),
                        },
                    );
                }
            }
            Ok(())
        });
        let reducer: ReduceFn = Arc::new(|ctx, key, vs| {
            ctx.write_tile("out", key.0 as usize, key.1 as usize, vs[0].tile.clone())?;
            Ok(())
        });
        let spec = MrJobSpec {
            name: "p".into(),
            mappers: vec![mapper],
            reducer: Some(reducer),
            reducers: 3,
            deps: vec![],
        };
        e.run(vec![spec], ExecMode::Real).unwrap();
        let out = e.store().get_local("out").unwrap();
        assert_eq!(out.sum(), 8.0); // four identity(2) tiles
    }
}
