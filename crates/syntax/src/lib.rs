//! Source-language front end for `rml`.
//!
//! This crate defines the ML-like surface language used throughout the
//! reproduction of Elsman's *Garbage-Collection Safety for Region-Based
//! Type-Polymorphic Programs* (PLDI 2023): interned symbols, the abstract
//! syntax tree, a hand-written lexer and recursive-descent parser, and a
//! pretty-printer.
//!
//! The language is a small but expressive subset of Standard ML:
//!
//! * literals: integers, strings, booleans, `()`
//! * `fn x => e`, application, `let ... in e end` with `val` and (mutually
//!   recursive) `fun` declarations
//! * pairs `(e1, e2)` with projections `#1 e` / `#2 e` (tuples of arity
//!   *n* parse as right-nested pairs)
//! * built-in lists: `nil`, `e :: e`, `[e, ..., e]`, and
//!   `case e of nil => e | x :: xs => e`
//! * `if`/`then`/`else`, `andalso`, `orelse`, sequencing `;`
//! * references `ref e`, `!e`, `e := e`
//! * exceptions: `exception E of ty`, `raise e`, `e handle E x => e`
//! * the usual arithmetic, comparison, and string operators, plus the
//!   effect-ful builtins `print`, `itos`, `size`, and `forcegc` (the latter
//!   triggers a reference-tracing collection, playing the role of the
//!   paper's `work ()` call)
//!
//! # Example
//!
//! ```
//! use rml_syntax::parse_program;
//! let prog = parse_program(r#"
//!     fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
//!     val main = fn () => fib 10
//! "#).unwrap();
//! assert_eq!(prog.decls.len(), 2);
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod symbol;

pub use ast::{Decl, Expr, ExprKind, FunBind, Program, TyAnn};
pub use parser::{parse_expr, parse_program, parse_program_at, ParseError};
pub use rml_session::Span;
pub use symbol::Symbol;
