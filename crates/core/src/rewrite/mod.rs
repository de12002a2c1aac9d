//! Logical rewrites over matrix programs.
//!
//! The standard pipeline runs, in order:
//!
//! 1. `cse::eliminate` — hash-consing common subexpressions, so shared
//!    intermediates (e.g. `WᵀW` appearing twice in a GNMF update) are
//!    computed once;
//! 2. `chain::reorder` — cost-based re-association of multiply chains.
//!
//! There is no transpose pushdown: the physical planner satisfies
//! `Transpose` of any materialised value with transposed tile reads, and
//! pushing transposes through shared subtrees would duplicate their
//! computation (e.g. GNMF uses both `H'` and `H'ᵀ`).

pub mod chain;
pub mod cse;

use std::collections::BTreeMap;

use crate::error::Result;
use crate::expr::{InputDesc, Program};

/// Runs the standard rewrite pipeline with the flops-based chain cost.
pub fn standard_pipeline(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
) -> Result<Program> {
    let p = cse::eliminate(program);
    chain::reorder(&p, inputs, &chain::flops_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ProgramBuilder;
    use cumulon_matrix::MatrixMeta;

    #[test]
    fn pipeline_runs_end_to_end() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let x = b.input("X");
        let y = b.input("Y");
        // ((A X) Y)ᵀ with a skewed chain: the pipeline may re-associate the
        // multiplies under the transpose.
        let axy = b.mul_chain(&[a, x, y]);
        let out = b.transpose(axy);
        b.output("O", out);
        let program = b.build();

        let mut inputs = BTreeMap::new();
        inputs.insert("A".into(), InputDesc::dense(MatrixMeta::new(1000, 10, 10)));
        inputs.insert("X".into(), InputDesc::dense(MatrixMeta::new(10, 1000, 10)));
        inputs.insert("Y".into(), InputDesc::dense(MatrixMeta::new(1000, 10, 10)));

        let rewritten = standard_pipeline(&program, &inputs).unwrap();
        // Still infers cleanly and produces the transposed output shape.
        let info = rewritten.infer(&inputs).unwrap();
        let (_, root) = &rewritten.outputs[0];
        assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (10, 1000));
    }
}
