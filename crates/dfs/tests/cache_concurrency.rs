//! Concurrency and eviction properties of the generated-tile cache, through
//! the public `TileStore` API only:
//!
//! * cache hits hand every concurrent reader the *same* `Arc<Tile>` —
//!   a hit is an identity share, never a payload copy;
//! * cache capacity (including eviction under hard memory pressure, and a
//!   fully disabled cache) never changes what readers observe: tiles and
//!   receipts are identical at every capacity.

use std::sync::Arc;

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::{Dfs, DfsConfig, TileStore};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{MatrixMeta, Tile};
use proptest::prelude::*;

const TILE: usize = 8;

fn store_with_capacity(seed: u64, cache_bytes: u64) -> TileStore {
    let dfs = Dfs::new(
        4,
        DfsConfig {
            replication: 2,
            block_size: 4096,
            seed,
            racks: 1,
        },
    );
    TileStore::with_cache_capacity(dfs, cache_bytes)
}

/// Writes a `tiles x 1` grid of distinct dense tiles into matrix `m`, and
/// registers a generated matrix `g` of the same shape — its tiles are the
/// ones the cache holds.
fn fill_matrix(store: &TileStore, tiles: usize) {
    let meta = MatrixMeta::new(tiles * TILE, TILE, TILE);
    store.register("m", meta).unwrap();
    store
        .register_generated("g", meta, Generator::DenseGaussian { seed: 5 })
        .unwrap();
    for t in 0..tiles {
        let tile = Tile::zeros(TILE, TILE).map(move |_| t as f64 + 0.25);
        store.write_tile("m", t, 0, &tile, Some(NodeId(0))).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After a warming read, every concurrent reader of a cached tile gets
    /// an `Arc` pointing at the very same allocation.
    #[test]
    fn concurrent_cache_hits_share_one_arc(
        seed in 0u64..1000,
        tiles in 1usize..5,
        readers in 2usize..6,
    ) {
        // Generated matrix: reads decode nothing, but do populate the cache.
        let store2 = store_with_capacity(seed, 64 << 20);
        store2
            .register_generated(
                "g",
                MatrixMeta::new(tiles * TILE, TILE, TILE),
                Generator::DenseGaussian { seed: 5 },
            )
            .unwrap();
        // Warm the cache: one canonical Arc per tile.
        let warm: Vec<Arc<Tile>> = (0..tiles)
            .map(|t| store2.read_tile("g", t, 0, Some(NodeId(0)), false).unwrap().0)
            .collect();
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let store2 = store2.clone();
                let warm = warm.clone();
                std::thread::spawn(move || {
                    for i in 0..tiles * 3 {
                        let t = (i + r) % tiles;
                        let (got, _) = store2
                            .read_tile("g", t, 0, Some(NodeId((r % 4) as u32)), false)
                            .unwrap();
                        assert!(
                            Arc::ptr_eq(&got, &warm[t]),
                            "cache hit must share the warmed Arc"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Cache capacity is unobservable: a store whose cache constantly
    /// evicts (or is disabled outright) returns the same tiles and the
    /// same receipts as one whose cache never evicts, for any read order.
    #[test]
    fn eviction_pressure_never_changes_results(
        seed in 0u64..1000,
        tiles in 2usize..6,
        reads in proptest::collection::vec((0usize..6, 0u32..4), 1..30),
    ) {
        // Same DFS seed => identical placement; only cache budgets differ.
        let roomy = store_with_capacity(seed, 64 << 20);
        let tight = store_with_capacity(seed, 600); // fits ~1 tile: constant eviction
        let none = store_with_capacity(seed, 0);
        fill_matrix(&roomy, tiles);
        fill_matrix(&tight, tiles);
        fill_matrix(&none, tiles);
        for &(t, reader) in &reads {
            let t = t % tiles;
            let r = Some(NodeId(reader));
            for name in ["m", "g"] {
                let (tile_a, io_a) = roomy.read_tile(name, t, 0, r, false).unwrap();
                let (tile_b, io_b) = tight.read_tile(name, t, 0, r, false).unwrap();
                let (tile_c, io_c) = none.read_tile(name, t, 0, r, false).unwrap();
                prop_assert_eq!(&*tile_a, &*tile_b);
                prop_assert_eq!(&*tile_a, &*tile_c);
                prop_assert_eq!(io_a, io_b);
                prop_assert_eq!(io_a, io_c);
            }
        }
    }
}
