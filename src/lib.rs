//! `rml` — region inference with GC safety for type-polymorphic programs.
//!
//! A from-scratch Rust reproduction of Martin Elsman's *Garbage-Collection
//! Safety for Region-Based Type-Polymorphic Programs* (PLDI 2023): an
//! ML-like language compiled by Hindley–Milner typing and region inference
//! to a region-annotated calculus, validated by the paper's GC-safe region
//! type system, and executed on a page-based region heap with an
//! interleaved reference-tracing copying collector.
//!
//! This crate is the facade: it wires the pipeline
//!
//! ```text
//! source ──rml-syntax──▶ AST ──rml-hm──▶ typed AST
//!        ──rml-infer──▶ region-annotated term (+ Fig. 9 statistics)
//!        ──rml-core───▶ checked against the paper's typing rules
//!        ──rml-repr───▶ ReprInfo: finite regions + bounds, untagged regions
//!        ──rml-eval───▶ executed on the rml-runtime heap
//! ```
//!
//! [`compile`] ends by lowering the term, with its global region and its
//! [`rml_repr::ReprInfo`], into the machine's code ([`rml_eval::lower()`]),
//! so a program is lowered once however often it runs. [`execute`] hands
//! that code straight to [`rml_eval::run`]; the only choice it makes is
//! the collector default (off for strategy `r`). Run options are
//! [`ExecOpts`], defined in `rml-eval`.
//!
//! and ships the basis library ([`basis`]) and the benchmark programs
//! ([`programs`]) used to regenerate the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use rml::{compile, execute, ExecOpts, Strategy};
//! let c = compile("fun main () = 6 * 7", Strategy::Rg).unwrap();
//! let out = execute(&c, &ExecOpts::default()).unwrap();
//! assert_eq!(out.value, rml_eval::RunValue::Int(42));
//! ```

pub mod basis;
pub mod metrics;
pub mod pipeline;
pub mod programs;
pub mod torture;

pub use metrics::{MetricsSnapshot, PauseHistogram};
pub use pipeline::{
    check, check_diag, check_full, compile, compile_count, compile_with_basis, emit_ir, execute,
    render_diagnostic, CompileError, CompileTimings, Compiled,
};
pub use rml_eval::{ExecOpts, RunOutcome, RunValue};
pub use rml_infer::{SpuriousStyle, Strategy};
pub use rml_session::{Diagnostic, Json, SourceMap, Span};

/// Runs `f` on a thread with a 64 MiB stack. The recursive passes over
/// basis-sized terms exceed the default 2 MiB test-thread stack in
/// unoptimised builds, so tests that compile the basis run under this.
/// The caller's trace sink, if any, is handed on to the new thread.
pub fn run_with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let sink = rml_session::trace::current();
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(move || match sink {
            Some(sink) => rml_session::trace::scoped(sink, f),
            None => f(),
        })
        .unwrap()
        .join()
        .unwrap()
}
