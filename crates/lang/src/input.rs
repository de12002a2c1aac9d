//! Input specifications: the `NAME=ROWSxCOLS[@DENSITY][:TILE]` syntax
//! shared by the `cumulon` CLI (`--input`) and the `cumulon serve`
//! protocol (`"inputs"` array). Lives here, next to the script compiler,
//! so every entry point parses and materializes inputs identically.

use cumulon_core::error::CoreError;
use cumulon_core::expr::InputDesc;
use cumulon_core::Result;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::MatrixMeta;

/// A parsed input specification: a named, generator-backed matrix.
///
/// ```
/// use cumulon_lang::InputSpec;
/// let s = InputSpec::parse("V=5000x4000@0.01:500").unwrap();
/// assert_eq!((s.rows, s.cols, s.tile), (5000, 4000, 500));
/// assert_eq!(s.density, 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    /// Matrix name.
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Density (1.0 = dense).
    pub density: f64,
    /// Tile size.
    pub tile: usize,
}

impl InputSpec {
    /// Parses `NAME=ROWSxCOLS[@DENSITY][:TILE]`.
    pub fn parse(spec: &str) -> Result<InputSpec> {
        let bad = |m: &str| CoreError::Usage(format!("bad input '{spec}': {m}"));
        let (name, rest) = spec.split_once('=').ok_or_else(|| bad("missing '='"))?;
        let (dims_part, tile) = match rest.split_once(':') {
            Some((d, t)) => (
                d,
                t.parse::<usize>()
                    .map_err(|_| bad("tile size must be an integer"))?,
            ),
            None => (rest, 1_000),
        };
        let (dims, density) = match dims_part.split_once('@') {
            Some((d, dens)) => (
                d,
                dens.parse::<f64>()
                    .map_err(|_| bad("density must be a number"))?,
            ),
            None => (dims_part, 1.0),
        };
        let (r, c) = dims
            .split_once('x')
            .ok_or_else(|| bad("dimensions must be RxC"))?;
        let rows = r
            .parse::<usize>()
            .map_err(|_| bad("rows must be an integer"))?;
        let cols = c
            .parse::<usize>()
            .map_err(|_| bad("cols must be an integer"))?;
        if rows == 0 || cols == 0 || tile == 0 {
            return Err(bad("dimensions and tile size must be positive"));
        }
        if !(0.0..=1.0).contains(&density) {
            return Err(bad("density must be in [0, 1]"));
        }
        Ok(InputSpec {
            name: name.to_string(),
            rows,
            cols,
            density,
            tile,
        })
    }

    /// Tile-grid metadata for the matrix this spec describes.
    pub fn meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.rows, self.cols, self.tile)
    }

    /// Optimizer-facing input description (dense or sparse by density),
    /// flagged as generator-backed.
    pub fn desc(&self) -> InputDesc {
        let mut d = if self.density < 1.0 {
            InputDesc::sparse(self.meta(), self.density)
        } else {
            InputDesc::dense(self.meta())
        };
        d.generated = true;
        d
    }

    /// The deterministic generator that materializes this input. Every
    /// entry point must derive `seed` the same way (position in the input
    /// list + 1) for run results to be comparable across the CLI and the
    /// service.
    pub fn generator(&self, seed: u64) -> Generator {
        if self.density < 1.0 {
            Generator::SparseUniform {
                seed,
                density: self.density,
            }
        } else {
            Generator::DenseGaussian { seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_spec_parsing() {
        assert_eq!(
            InputSpec::parse("A=200x100").unwrap(),
            InputSpec {
                name: "A".into(),
                rows: 200,
                cols: 100,
                density: 1.0,
                tile: 1000
            }
        );
        assert_eq!(
            InputSpec::parse("V=5000x4000@0.01:500").unwrap(),
            InputSpec {
                name: "V".into(),
                rows: 5000,
                cols: 4000,
                density: 0.01,
                tile: 500
            }
        );
        assert!(InputSpec::parse("A").is_err());
        assert!(InputSpec::parse("A=xx").is_err());
        assert!(InputSpec::parse("A=10x0").is_err());
        assert!(InputSpec::parse("A=10x10@2.0").is_err());
        assert!(InputSpec::parse("A=10x10:0").is_err());
    }

    #[test]
    fn sparse_and_dense_descriptions() {
        let dense = InputSpec::parse("A=100x100").unwrap();
        assert!(dense.desc().generated);
        assert!(matches!(
            dense.generator(3),
            Generator::DenseGaussian { seed: 3 }
        ));
        let sparse = InputSpec::parse("A=100x100@0.5").unwrap();
        assert!(matches!(
            sparse.generator(3),
            Generator::SparseUniform { seed: 3, .. }
        ));
    }
}
