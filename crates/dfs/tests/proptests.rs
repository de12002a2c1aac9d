//! Model-based property tests for the DFS: a random sequence of
//! operations is replayed against a trivial in-memory model, and the DFS
//! must agree with the model wherever the model is defined.

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::{Dfs, DfsConfig, DfsError, IoReceipt, SpillConfig, TileStore};
use cumulon_matrix::serialize::encoded_len;
use cumulon_matrix::{DenseTile, MatrixMeta, Tile};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Write (or overwrite) file `f` of the fixed name pool: a 1×1 tile
    /// holding `fill`, charged at `len` wire bytes.
    Write {
        f: u8,
        len: u16,
        fill: u8,
        writer: u8,
    },
    /// Read file `f` from node `reader`.
    Read { f: u8, reader: u8 },
    /// Delete file `f`.
    Delete { f: u8 },
    /// Kill node `n`.
    KillNode { n: u8 },
    /// Add a node.
    AddNode,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (0u8..6, 1u16..2000, any::<u8>(), 0u8..4)
            .prop_map(|(f, len, fill, writer)| Op::Write { f, len, fill, writer }),
        3 => (0u8..6, 0u8..4).prop_map(|(f, reader)| Op::Read { f, reader }),
        2 => (0u8..6).prop_map(|f| Op::Delete { f }),
        1 => (0u8..4).prop_map(|n| Op::KillNode { n }),
        1 => Just(Op::AddNode),
    ];
    proptest::collection::vec(op, 1..40)
}

fn name(f: u8) -> String {
    format!("/f{f}")
}

/// A 1×1 tile holding `v`: the payload of every file here. Its wire
/// length is set explicitly, so block splitting sees any length.
fn tile(v: f64) -> Arc<Tile> {
    Arc::new(Tile::dense(DenseTile::from_vec(1, 1, vec![v])))
}

/// Writes `tile` at `path` as a file of `len` wire bytes.
fn write(
    dfs: &Dfs,
    path: &str,
    tile: &Arc<Tile>,
    len: u64,
    writer: NodeId,
) -> Result<IoReceipt, DfsError> {
    let replication = dfs.config().replication;
    dfs.write_tile_file(path, Arc::clone(tile), len, Some(writer), replication)
}

/// Replays `op_list` against a fresh DFS and the model: reads return
/// exactly what the model says or fail only by a loss a node failure
/// explains, and namespace and storage state match at the end.
fn agrees_with_model(op_list: &[Op], seed: u64) -> Result<(), TestCaseError> {
    let dfs = Dfs::new(
        4,
        DfsConfig {
            replication: 4,
            block_size: 256,
            seed,
            racks: 1,
        },
    );
    // Model: file name → payload, plus whether any node failure has
    // happened since the file was written (the only legitimate cause
    // of data loss).
    let mut model: HashMap<String, (Arc<Tile>, u64)> = HashMap::new();
    let mut kills_since_write: HashMap<String, bool> = HashMap::new();
    let mut live_nodes = 4i32;
    let mut next_node = 4u32;
    let mut killed = [false; 64];

    for op in op_list {
        match op {
            Op::Write {
                f,
                len,
                fill,
                writer,
            } => {
                let path = name(*f);
                let payload = tile(*fill as f64);
                let len = *len as u64;
                match write(&dfs, &path, &payload, len, NodeId(*writer as u32)) {
                    Ok(receipt) => {
                        prop_assert_eq!(receipt.bytes, len);
                        kills_since_write.insert(path.clone(), false);
                        model.insert(path, (payload, len));
                    }
                    // A write replaces the file at its path first, so a
                    // failed overwrite leaves no file behind.
                    Err(DfsError::InsufficientNodes { .. }) => {
                        prop_assert!(live_nodes == 0);
                        model.remove(&path);
                        kills_since_write.remove(&path);
                    }
                    Err(e) => prop_assert!(false, "unexpected write error {e}"),
                }
            }
            Op::Read { f, reader } => {
                let path = name(*f);
                let result = dfs.read_tile_file(&path, Some(NodeId(*reader as u32)));
                match (result, model.get(&path)) {
                    (Ok((got, receipt)), Some((expect, len))) => {
                        prop_assert!(Arc::ptr_eq(&got, expect), "read another file's tile");
                        prop_assert_eq!(receipt.bytes, *len);
                        prop_assert_eq!(receipt.local_bytes + receipt.remote_bytes, receipt.bytes);
                    }
                    (Err(DfsError::FileNotFound(_)), None) => {}
                    (Ok(_), None) => prop_assert!(false, "read of unwritten file succeeded"),
                    // Loss is only legitimate after a node failure
                    // postdating the write (every replica holder may
                    // have died before re-replication found a target).
                    (Err(DfsError::BlockLost { .. }), Some(_)) => {
                        prop_assert!(
                            kills_since_write[&path],
                            "data lost without any node failure since the write"
                        );
                    }
                    (Err(e), Some(_)) => {
                        prop_assert!(false, "wrong error for written file: {e}");
                    }
                    (Err(e), None) => {
                        prop_assert!(matches!(e, DfsError::FileNotFound(_)), "wrong error {e}")
                    }
                }
            }
            Op::Delete { f } => {
                let path = name(*f);
                kills_since_write.remove(&path);
                match (dfs.delete_file(&path), model.remove(&path)) {
                    (Ok(()), Some(_)) => {}
                    (Err(DfsError::FileNotFound(_)), None) => {}
                    (r, m) => {
                        prop_assert!(false, "delete mismatch: {r:?} vs model {:?}", m.is_some())
                    }
                }
            }
            Op::KillNode { n } => {
                if !killed[*n as usize] {
                    killed[*n as usize] = true;
                    live_nodes -= 1;
                    for flag in kills_since_write.values_mut() {
                        *flag = true;
                    }
                    let _ = dfs.kill_node(NodeId(*n as u32));
                }
            }
            Op::AddNode => {
                let id = dfs.add_node();
                prop_assert_eq!(id.0, next_node);
                killed[next_node as usize] = false;
                next_node += 1;
                live_nodes += 1;
            }
        }
    }

    // Final invariants. Logical bytes equal the model's totals: a file
    // whose every holder died keeps its namespace entry and its length,
    // like an HDFS file with missing blocks, but no stored byte. So it is
    // the files that still read back — at least one replica of every
    // block — whose bytes the datanodes must hold at least once, and the
    // namenode's replica lists must match what the datanodes hold.
    let (logical, physical) = dfs.storage_stats();
    let expect_logical: u64 = model.values().map(|(_, len)| len).sum();
    prop_assert_eq!(logical, expect_logical);
    let readable: u64 = model
        .iter()
        .filter(|(path, _)| dfs.read_tile_file(path, None).is_ok())
        .map(|(_, (_, len))| len)
        .sum();
    prop_assert!(
        physical >= readable,
        "physical {physical} < readable {readable}"
    );
    prop_assert!(dfs.storage_accounting().is_conserved());
    Ok(())
}

/// Case 411 of 4 000 of [`dfs_agrees_with_model`], pinned: nodes 0, 2
/// and 3 die, leaving `/f1` on node 1 alone; node 1 dies too, and three
/// fresh nodes join. `/f1` is lost — legitimately — so physical bytes
/// (`/f0` three times, 1 119) fall below logical ones (2 151), which the
/// model must allow. (The case as found also rewrote `/f1` twice; a
/// write replaces the file at its path, so those rewrites would replace
/// and then remove the lost file, and are left out.)
#[test]
fn dfs_agrees_with_model_after_a_file_loses_every_holder() {
    use Op::*;
    let ops = [
        Read { f: 4, reader: 0 },
        KillNode { n: 0 },
        Read { f: 0, reader: 0 },
        KillNode { n: 2 },
        Write {
            f: 1,
            len: 1778,
            fill: 32,
            writer: 0,
        },
        KillNode { n: 2 },
        Read { f: 5, reader: 3 },
        Write {
            f: 2,
            len: 1857,
            fill: 62,
            writer: 3,
        },
        KillNode { n: 3 },
        Delete { f: 5 },
        Read { f: 5, reader: 2 },
        KillNode { n: 1 },
        Delete { f: 2 },
        Read { f: 2, reader: 1 },
        Read { f: 2, reader: 2 },
        Read { f: 0, reader: 0 },
        AddNode,
        AddNode,
        AddNode,
        Read { f: 4, reader: 3 },
        Delete { f: 3 },
        Read { f: 2, reader: 0 },
        Write {
            f: 4,
            len: 419,
            fill: 106,
            writer: 0,
        },
        Delete { f: 5 },
        Write {
            f: 0,
            len: 373,
            fill: 13,
            writer: 2,
        },
        Read { f: 2, reader: 2 },
        Delete { f: 4 },
    ];
    agrees_with_model(&ops, 90).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replication ≥ live-node failures ⇒ reads always return exactly what
    /// the model says, and namespace state matches.
    #[test]
    fn dfs_agrees_with_model(op_list in ops(), seed in 0u64..100) {
        agrees_with_model(&op_list, seed)?;
    }

    /// Sequential single-node kills with replication ≥ 2 lose NOTHING:
    /// each kill leaves at least one replica of every block alive, and
    /// re-replication restores the factor before the next kill.
    #[test]
    fn sequential_kills_lose_nothing_at_repl2(
        kills in proptest::collection::vec(0u32..6, 1..8),
        files in 1u8..8,
        len in 1u16..3000,
        seed in 0u64..1000,
    ) {
        let dfs = Dfs::new(6, DfsConfig { replication: 2, block_size: 256, seed, racks: 1 });
        let mut payloads = Vec::new();
        for f in 0..files {
            let payload = tile(f as f64);
            write(&dfs, &name(f), &payload, len as u64, NodeId(f as u32 % 6)).unwrap();
            payloads.push(payload);
        }
        // Kill nodes one at a time (down to a floor of two survivors so
        // re-replication always has a target); after EVERY kill all files
        // must read back intact from a surviving node.
        let mut killed = [false; 6];
        let mut live = 6u32;
        for &n in &kills {
            if killed[n as usize] || live <= 2 {
                continue;
            }
            killed[n as usize] = true;
            live -= 1;
            dfs.kill_node(NodeId(n)).unwrap();
            let reader = (0..6u32).map(NodeId).find(|&r| dfs.is_node_live(r)).unwrap();
            for (f, expect) in payloads.iter().enumerate() {
                let (got, receipt) = dfs.read_tile_file(&name(f as u8), Some(reader)).unwrap();
                prop_assert!(Arc::ptr_eq(&got, expect));
                prop_assert_eq!(receipt.bytes, len as u64);
            }
        }
    }

    /// A correlated *whole-rack* failure with rack-aware placement loses
    /// nothing: the second replica of every block lives off-rack.
    #[test]
    fn rack_failure_loses_nothing_with_rack_aware_placement(
        dead_rack in 0u32..2,
        files in 1u8..8,
        len in 1u16..3000,
        seed in 0u64..1000,
    ) {
        let dfs = Dfs::new(6, DfsConfig { replication: 2, block_size: 256, seed, racks: 2 });
        let mut payloads = Vec::new();
        for f in 0..files {
            let payload = tile(f as f64);
            write(&dfs, &name(f), &payload, len as u64, NodeId(f as u32 % 6)).unwrap();
            payloads.push(payload);
        }
        // Node n lives in rack n % 2: kill every node of one rack at once
        // (no re-replication can help between correlated deaths).
        for n in 0..6u32 {
            if n % 2 == dead_rack {
                dfs.kill_node(NodeId(n)).unwrap();
            }
        }
        let reader = (0..6u32).map(NodeId).find(|&r| dfs.is_node_live(r)).unwrap();
        for (f, expect) in payloads.iter().enumerate() {
            let (got, receipt) = dfs.read_tile_file(&name(f as u8), Some(reader)).unwrap();
            prop_assert!(Arc::ptr_eq(&got, expect));
            prop_assert_eq!(receipt.bytes, len as u64);
        }
    }

    /// Writes are never silently truncated or padded across block splits:
    /// the read charges exactly the written length, every replica stores
    /// it, and the reader gets the written tile back.
    #[test]
    fn block_splitting_roundtrip(len in 0u64..5000, block in 1u64..512) {
        let dfs = Dfs::new(3, DfsConfig { replication: 2, block_size: block, seed: 1, racks: 1 });
        let payload = tile(1.0);
        let w = write(&dfs, "/x", &payload, len, NodeId(0)).unwrap();
        prop_assert_eq!(w.bytes, len);
        prop_assert_eq!(dfs.storage_stats(), (len, 2 * len));
        let (got, receipt) = dfs.read_tile_file("/x", Some(NodeId(1))).unwrap();
        prop_assert!(Arc::ptr_eq(&got, &payload));
        prop_assert_eq!(receipt.bytes, len);
        prop_assert!(dfs.storage_accounting().is_conserved());
    }

    /// The spill plane is invisible: any interleaving of writes,
    /// overwrites, reads, prefetches, deletes, checkpoints and node kills
    /// yields the same tiles, receipts and errors on a budgeted store as
    /// on an unbudgeted twin, and after every step the budgeted store's
    /// blob references are exactly the ones its spilled and backed files
    /// account for and its resident bytes fit the budget — also after a
    /// read that re-admitted one block and then lost the next.
    #[test]
    fn budgeted_store_agrees_with_unbudgeted_twin(
        op_list in tile_ops(),
        seed in 0u64..100,
        replication in 1usize..3,
        budget_tiles in 1u64..4,
    ) {
        let store = || TileStore::new(
            Dfs::new(4, DfsConfig { replication, block_size: 256, seed, racks: 1 }),
        );
        let (twin, tight) = (store(), store());
        let meta = MatrixMeta::new(8 * TILES as usize, 8, 8);
        let one = encoded_len(&Tile::zeros(8, 8));
        let budget = budget_tiles * one + 1;
        tight.set_memory_budget(&SpillConfig::budgeted(budget)).unwrap();
        for s in [&twin, &tight] {
            s.register("A", meta).unwrap();
        }
        for op in op_list {
            // Errors are part of the contract: compared through `Debug`.
            let same = match op {
                TileOp::Write { t, content, writer } => {
                    let run = |s: &TileStore| {
                        let w = Some(NodeId(writer as u32));
                        format!("{:?}", s.write_tile("A", t as usize, 0, &tile_content(content), w))
                    };
                    run(&twin) == run(&tight)
                }
                TileOp::Read { t, reader } => {
                    let run = |s: &TileStore| {
                        s.read_tile("A", t as usize, 0, Some(NodeId(reader as u32)), false)
                            .map(|(tile, receipt)| ((*tile).clone(), receipt))
                            .map_err(|e| format!("{e:?}"))
                    };
                    run(&twin) == run(&tight)
                }
                TileOp::Prefetch { t } => {
                    tight.prefetch_tile("A", t as usize, 0).unwrap();
                    true
                }
                TileOp::Delete { t } => {
                    // The tile store's path scheme.
                    let path = format!("/matrix/A/{t}_0");
                    let run = |s: &TileStore| format!("{:?}", s.dfs().delete_file(&path));
                    run(&twin) == run(&tight)
                }
                TileOp::Checkpoint { replication } => {
                    let run = |s: &TileStore| {
                        format!("{:?}", s.checkpoint_matrix("A", replication as usize))
                    };
                    run(&twin) == run(&tight)
                }
                TileOp::KillNode { n } => {
                    let run = |s: &TileStore| format!("{:?}", s.dfs().kill_node(NodeId(n as u32)));
                    run(&twin) == run(&tight)
                }
            };
            prop_assert!(same, "{op:?} told the twins apart");
            prop_assert!(tight.dfs().spill_conserved(), "after {op:?}");
            let resident = tight.dfs().spill_stats().unwrap().resident_bytes;
            prop_assert!(resident <= budget, "{resident} B resident over {budget} B after {op:?}");
            prop_assert!(tight.dfs().storage_accounting().is_conserved(), "after {op:?}");
            prop_assert_eq!(twin.dfs().storage_accounting(), tight.dfs().storage_accounting());
        }
        // Dropping the matrix gives every reference back.
        tight.drop_matrix("A").unwrap();
        prop_assert_eq!(tight.dfs().spill_stats().unwrap().blob.live_entries, 0);
        prop_assert!(tight.dfs().spill_conserved());
    }
}

/// Tiles of the one matrix [`budgeted_store_agrees_with_unbudgeted_twin`]
/// works on.
const TILES: u8 = 6;

#[derive(Debug, Clone)]
enum TileOp {
    /// Write (or overwrite) tile `t` with one of a few contents, so that
    /// distinct paths do share blob entries.
    Write {
        t: u8,
        content: u8,
        writer: u8,
    },
    Read {
        t: u8,
        reader: u8,
    },
    /// Re-admit tile `t` ahead of demand (budgeted store only).
    Prefetch {
        t: u8,
    },
    Delete {
        t: u8,
    },
    /// Checkpoint every tile at `replication`.
    Checkpoint {
        replication: u8,
    },
    KillNode {
        n: u8,
    },
}

fn tile_ops() -> impl Strategy<Value = Vec<TileOp>> {
    let op = prop_oneof![
        6 => (0..TILES, 0u8..4, 0u8..4)
            .prop_map(|(t, content, writer)| TileOp::Write { t, content, writer }),
        8 => (0..TILES, 0u8..4).prop_map(|(t, reader)| TileOp::Read { t, reader }),
        3 => (0..TILES).prop_map(|t| TileOp::Prefetch { t }),
        2 => (0..TILES).prop_map(|t| TileOp::Delete { t }),
        1 => (1u8..4).prop_map(|replication| TileOp::Checkpoint { replication }),
        1 => (0u8..4).prop_map(|n| TileOp::KillNode { n }),
    ];
    proptest::collection::vec(op, 1..60)
}

/// Content 0 is all zeros (compressed on disk), the rest are noise.
fn tile_content(content: u8) -> Tile {
    if content == 0 {
        return Tile::zeros(8, 8);
    }
    Tile::dense(cumulon_matrix::gen::dense_uniform_tile(
        content as u64,
        0,
        0,
        8,
        8,
        -1.0,
        1.0,
    ))
}
