//! Property tests for the surface language: total functions (no panics on
//! arbitrary input) and semantic equivalence between scripted and
//! builder-built programs.

use std::collections::BTreeMap;

use cumulon_core::error::CoreError;
use cumulon_core::expr::InputDesc;
use cumulon_lang::{compile_source, parse, tokenize, InputSpec};
use cumulon_matrix::MatrixMeta;
use proptest::prelude::*;

/// `InputSpec::parse` is total: it either accepts a spec that keeps its
/// own contract (positive dimensions and tile, density in `[0, 1]`) or
/// rejects it with a `CoreError::Usage` that quotes the input.
fn parse_is_total(spec: &str) -> Result<(), TestCaseError> {
    match InputSpec::parse(spec) {
        Ok(s) => {
            prop_assert!(s.rows > 0 && s.cols > 0 && s.tile > 0, "{spec:?} -> {s:?}");
            prop_assert!((0.0..=1.0).contains(&s.density), "{spec:?} -> {s:?}");
        }
        Err(CoreError::Usage(msg)) => {
            prop_assert!(
                msg.contains(spec),
                "{spec:?}: error does not name it: {msg}"
            );
        }
        Err(e) => prop_assert!(false, "{spec:?}: not a usage error: {e}"),
    }
    Ok(())
}

/// Arbitrary bytes, made a string the way a reader that accepts any
/// input would (invalid UTF-8 becomes U+FFFD).
fn arbitrary_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        ".{0,48}",
    ]
}

/// Values for one field of an otherwise valid spec: junk, huge, zero,
/// negative, non-finite and merely malformed numbers.
fn hostile_field() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("0".to_string()),
        Just("-0".to_string()),
        Just("-1".to_string()),
        Just("NaN".to_string()),
        Just("inf".to_string()),
        Just("-inf".to_string()),
        Just("1e400".to_string()),
        Just("0x10".to_string()),
        Just(usize::MAX.to_string()),
        Just(format!("{}0", usize::MAX)),
        any::<u64>().prop_map(|v| v.to_string()),
        any::<i64>().prop_map(|v| v.to_string()),
        any::<f64>().prop_map(|v| v.to_string()),
        (-2.0f64..2.0).prop_map(|v| v.to_string()),
        proptest::collection::vec(0usize..4, 1..5)
            .prop_map(|ix| ix.iter().map(|&i| ['x', '@', ':', '='][i]).collect()),
        ".{0,8}",
    ]
}

proptest! {
    /// The lexer/parser/compiler never panic, whatever the input.
    #[test]
    fn frontend_is_total(src in ".{0,200}") {
        let _ = compile_source(&src); // may Err, must not panic
    }

    /// Structured garbage (valid tokens, random order) never panics.
    #[test]
    fn parser_total_on_token_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("A".to_string()),
                Just("=".to_string()),
                Just("+".to_string()),
                Just("*".to_string()),
                Just(".*".to_string()),
                Just("./".to_string()),
                Just("'".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(";".to_string()),
                Just("out".to_string()),
                Just("2".to_string()),
            ],
            0..24,
        )
    ) {
        let src = words.join(" ");
        if let Ok(tokens) = tokenize(&src) {
            let _ = parse(&tokens); // may Err, must not panic
        }
    }

    /// Arbitrary strings never make the input-spec parser panic.
    #[test]
    fn input_spec_parse_is_total(spec in arbitrary_text()) {
        parse_is_total(&spec)?;
    }

    /// Near-valid `NAME=RxC@D:T` specs with one field replaced by hostile
    /// text never panic either, and never yield an out-of-contract spec.
    #[test]
    fn input_spec_parse_survives_hostile_fields(field in 0usize..5, junk in hostile_field()) {
        let mut parts = ["A", "10", "20", "0.5", "4"].map(String::from);
        parts[field] = junk;
        let [name, rows, cols, density, tile] = &parts;
        parse_is_total(&format!("{name}={rows}x{cols}@{density}:{tile}"))?;
    }

    /// Whitespace and comments never change the compiled program.
    #[test]
    fn whitespace_insensitive(extra_ws in 0usize..5) {
        let tight = "G=A'*A;S=G+0.5(G.*G);";
        let pad = " ".repeat(extra_ws + 1);
        let loose = format!(
            "G ={pad}A'{pad}* A ;{pad}# comment\nS = G +{pad}0.5 (G .* G) ;"
        );
        let a = compile_source(tight).unwrap();
        let b = compile_source(&loose).unwrap();
        prop_assert_eq!(a.program.nodes, b.program.nodes);
        prop_assert_eq!(a.program.outputs, b.program.outputs);
    }
}

/// A scripted GNMF H-update compiles to a program semantically equal (same
/// inference results) to the hand-built one.
#[test]
fn script_matches_builder_semantics() {
    let script =
        compile_source("WtV = W' * V;\nWtW = W' * W;\nH1 = H .* WtV ./ (WtW * H);").unwrap();

    let mut inputs = BTreeMap::new();
    inputs.insert(
        "V".to_string(),
        InputDesc::sparse(MatrixMeta::new(60, 40, 10), 0.1),
    );
    inputs.insert(
        "W".to_string(),
        InputDesc::dense(MatrixMeta::new(60, 5, 10)),
    );
    inputs.insert(
        "H".to_string(),
        InputDesc::dense(MatrixMeta::new(5, 40, 10)),
    );

    let info = script.program.infer(&inputs).unwrap();
    let (_, root) = &script.program.outputs[0];
    assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (5, 40));

    // Same number of multiply nodes as the hand-built version.
    use cumulon_core::expr::ExprNode;
    let muls = script
        .program
        .nodes
        .iter()
        .filter(|n| matches!(n, ExprNode::Mul(_, _)))
        .count();
    assert_eq!(muls, 3, "WᵀV, WᵀW, (WᵀW)H");
}
