//! # cumulon-lang
//!
//! The surface language of Cumulon-RS: a small R-flavoured linear-algebra
//! scripting language compiled to [`cumulon_core::Program`]s. This is the
//! "rapidly develop" half of the paper's pitch — statisticians write
//! assignments over named matrices, not physical plans:
//!
//! ```text
//! # GNMF multiplicative updates
//! WtV  = W' * V;
//! WtW  = W' * W;
//! H1   = H .* WtV ./ (WtW * H);
//! W1   = W .* (V * H1') ./ (W * (H1 * H1'));
//! out H1, W1;
//! ```
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! script   := { statement }
//! statement:= ident "=" expr ";"            (assignment; last ones may be outputs)
//!           | "out" ident { "," ident } ";" (declare outputs explicitly)
//! expr     := term { ("+" | "-") term }
//! term     := factor { ("*" | ".*" | "./") factor }
//! factor   := ["-"] postfix | number "*"? postfix   (scalar scaling)
//! postfix  := atom { "'" }                  (transpose suffix)
//! atom     := ident | number | "(" expr ")"
//!           | ("abs" | "sqrt" | "sq") "(" expr ")"
//! ```
//!
//! `*` is matrix product; `.*` and `./` are element-wise. A bare number in
//! multiplicative position scales a matrix. Assignments define names
//! usable in later statements; names never assigned are program inputs.
//! Without an `out` declaration, every assigned name that no later
//! statement consumes becomes an output.

#![warn(unreachable_pub)]

pub mod ast;
pub mod compile;
pub mod input;
pub mod lexer;
pub mod parser;

pub use ast::{BinOp, Expr, Script, Stmt, UnFn};
pub use compile::{compile, CompiledScript};
pub use input::InputSpec;
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::parse;

use cumulon_core::Result;

/// One-call convenience: source text → compiled program.
pub fn compile_source(source: &str) -> Result<CompiledScript> {
    let tokens = tokenize(source)?;
    let script = parse(&tokens)?;
    compile(&script)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let compiled = compile_source("G = A' * A;").unwrap();
        assert_eq!(compiled.inputs, vec!["A"]);
        assert_eq!(compiled.outputs(), vec!["G"]);
    }
}
