//! `rml-session` — shared compiler-session services.
//!
//! The crates of the pipeline (lexer → parser → HM typing → region
//! inference → checking → benchmarks) all speak three common languages
//! defined here:
//!
//! * **spans** ([`Span`], [`SourceMap`]) — byte ranges into the source,
//!   carried by tokens and AST nodes and propagated into typed and
//!   region-annotated programs via provenance side-tables;
//! * **diagnostics** ([`Diagnostic`], [`Severity`]) — every
//!   error path produces a structured diagnostic with a stable code and a
//!   primary span, rendered with a caret underline by
//!   [`Diagnostic::render`];
//! * **interners** ([`Interner`]) — hash-consed shared values, used by the
//!   region-inference store for latent/closure sets.
//!
//! Two further cross-cutting services live here because every layer needs
//! them: the [`json`] serializer (the one authority for JSON emission —
//! benchmarks, traces, metrics) and the [`trace`] facade (spans, instant
//! events, counters; zero-cost when no sink is installed).

mod diag;
mod intern;
pub mod json;
mod span;
pub mod trace;

pub use diag::{Diagnostic, Severity};
pub use intern::Interner;
pub use json::Json;
pub use span::{SourceMap, Span};
