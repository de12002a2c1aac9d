//! # cumulon-dfs
//!
//! A simulated HDFS-like distributed file system, plus the tile store
//! Cumulon layers on it.
//!
//! The real Cumulon runs on HDFS and communicates between jobs exclusively
//! through files of matrix tiles. This crate reproduces the pieces of that
//! stack the system and its optimizer actually interact with:
//!
//! * a `namenode::NameNode` holding the file → block → replica-location
//!   mapping and the live-datanode registry;
//! * [`datanode`] storage for block payloads, with capacity accounting;
//! * the [`Dfs`] façade offering create/read/delete with a replica
//!   placement policy (writer-local first replica, random remotes after,
//!   like HDFS) and **I/O receipts** — every operation reports how many
//!   bytes moved and whether the read was node-local, so the cluster
//!   simulator can charge time to the right resources;
//! * a [`TileStore`] that names matrices and maps tile coordinates to DFS
//!   files, each holding one shared tile charged at its encoded size.
//!
//! Nothing here keeps wall-clock time; the DFS reports *what happened* and
//! the discrete-event simulator in `cumulon-cluster` decides *how long it
//! took*.

#![warn(unreachable_pub)]

pub mod blob;
pub mod datanode;
pub mod dfs;
pub mod error;
pub mod namenode;
pub mod spill;
pub mod tilestore;

pub use blob::{BlobKey, BlobStats, BlobStore};
pub use dfs::{Dfs, DfsConfig, IoReceipt, NodeId, StorageAccounting};
pub use error::{DfsError, Result};
pub use spill::{SpillConfig, SpillPlane, SpillStats};
pub use tilestore::{MatrixHandle, TileStore};
