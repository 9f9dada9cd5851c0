//! Panic-freedom fuzzing for the input-facing surface: arbitrary bytes
//! and token soup into the lexer/parser must produce a structured
//! `ParseError`, never a panic, abort, or runaway allocation.
//!
//! The generators are deterministic (see the proptest shim), so a
//! failure here reproduces exactly on re-run.

use proptest::collection::vec;
use proptest::prelude::*;

/// Token soup vocabulary: every keyword and operator the lexer knows,
/// plus a few identifiers and literals, so random sequences reach deep
/// into the parser instead of dying at the first unknown byte.
const TOKENS: &[&str] = &[
    "fun", "fn", "let", "val", "in", "end", "if", "then", "else", "case", "of", "ref", "raise",
    "handle", "andalso", "orelse", "div", "mod", "nil", "true", "false", "=>", "->", "=", "(", ")",
    "[", "]", ",", ";", "::", ":=", ":", "|", "+", "-", "*", "^", "<", ">", "<=", ">=", "!", "#1",
    "#2", "_", "x", "f", "g", "main", "0", "1", "42", "\"s\"", "'a", "int", "string", "bool",
    "unit", "list",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte soup through the whole front end.
    #[test]
    fn lexer_and_parser_survive_random_bytes(bytes in vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = rml_syntax::lexer::lex(&src);
        let _ = rml_syntax::parse_program(&src);
    }

    /// Well-lexed but arbitrarily ordered tokens: stresses every parser
    /// production past the lexer.
    #[test]
    fn parser_survives_token_soup(picks in vec(0usize..TOKENS.len(), 0..192)) {
        let src = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" ");
        let _ = rml_syntax::parse_program(&src);
        let _ = rml_syntax::parse_expr(&src);
    }
}

/// Unbounded nesting must be rejected by the parser's depth limit — a
/// structured `ParseError`, not a stack overflow (which no harness can
/// catch).
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    let src = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
    let err = rml_syntax::parse_expr(&src).unwrap_err();
    assert!(err.msg.contains("nesting too deep"), "{}", err.msg);
    let tysrc = format!(
        "fun f (x : {}int{}) = x",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    assert!(rml_syntax::parse_program(&tysrc).is_err());
}
