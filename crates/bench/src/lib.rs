//! Experiment harness for Cumulon-RS: every table and figure of the
//! reproduced evaluation has a function here that regenerates its data.
//! The `repro` binary prints them; `benchmark/` is where performance is
//! measured.

#![warn(unreachable_pub)]

pub mod experiments;

pub use experiments::Series;
