//! # cumulon-matrix
//!
//! Tiled linear-algebra substrate for Cumulon-RS.
//!
//! Cumulon stores every matrix as a grid of fixed-size square *tiles*
//! (trailing tiles may be smaller). A tile is the unit of storage, I/O and
//! computation: tasks in the execution engine read input tiles, combine them
//! with dense/sparse kernels, and emit output tiles.
//!
//! Three tile representations are provided:
//!
//! * [`DenseTile`] — row-major `f64` storage, with a packed-panel SIMD GEMM kernel;
//! * [`CsrTile`] — compressed sparse row storage for the sparse workloads
//!   (e.g. the document-term matrix in GNMF);
//! * *phantom* tiles ([`Tile::phantom`]) — metadata-only tiles (dims + an
//!   nnz estimate) that let the cluster simulator run paper-scale
//!   experiments without materialising terabytes of data. All kernels
//!   propagate phantom-ness and nnz estimates, so cost accounting stays
//!   exact while data is elided.
//!
//! The [`mod@reference`] module holds naive untiled kernels used by the test
//! suite to cross-check the tiled implementations, and [`ops`] exposes
//! flop/byte accounting shared with the cost models in `cumulon-core`.

#![warn(unreachable_pub)]

pub mod compress;
pub mod dense;
pub mod error;
pub mod gen;
pub mod local;
pub mod meta;
pub mod microkernel;
pub mod ops;
pub mod pack;
pub mod reference;
pub mod serialize;
pub mod sparse;
pub mod tile;

pub use dense::{kernel_threads, set_kernel_threads, DenseTile};
pub use error::{MatrixError, Result};
pub use local::LocalMatrix;
pub use meta::{MatrixMeta, TileGrid};
pub use microkernel::{detected_simd_level, simd_level, SimdLevel};
pub use pack::PackScratch;
pub use sparse::CsrTile;
pub use tile::{Tile, TileData};
