//! Region inference for `rml` with GC-safety for type-polymorphic
//! programs (the inference side of Elsman, PLDI 2023).
//!
//! The entry point [`infer`] takes a Hindley–Milner typed program and
//! produces a fully region-annotated [`rml_core::Term`] plus the
//! statistics of the paper's Figure 9. Three compilation strategies are
//! supported, matching the benchmarks of Section 5:
//!
//! * [`Strategy::Rg`] — region inference + reference-tracing GC with the
//!   paper's spurious-type-variable treatment (sound),
//! * [`Strategy::RgMinus`] — as `rg` but *without* taking spurious type
//!   variables into account (the pre-paper discipline; **unsound**: the
//!   resulting programs can expose dangling pointers to the collector),
//! * [`Strategy::R`] — pure region inference à la Tofte–Talpin, no
//!   tracing collector (dangling pointers are permitted and never
//!   followed).
//!
//! # Example
//!
//! ```
//! use rml_infer::{infer, Options, Strategy};
//! let src = "fun id x = x  fun main () = id 7";
//! let prog = rml_syntax::parse_program(src).unwrap();
//! let typed = rml_hm::infer_program(&prog).unwrap();
//! let out = infer(&typed, Options::default()).unwrap();
//! // The result type-checks under the paper's Figure 4 rules:
//! let checker = rml_core::Checker {
//!     exns: out.exns.clone(),
//!     gc: rml_core::typing::GcCheck::Full,
//!     store: vec![],
//! };
//! checker.check(&Default::default(), &out.term).unwrap();
//! ```

pub mod build;
pub mod constrain;
pub mod cterm;
pub mod rty;
pub mod store;

pub use constrain::{InferError, Stats};

use rml_core::terms::Term;
use rml_core::types::Mu;
use rml_core::vars::RegVar;
use rml_hm::TProgram;
use rml_syntax::Symbol;
use std::collections::BTreeMap;

/// Compilation strategy (Section 5's `rg` / `rg-` / `r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// GC-safe region inference (this paper).
    #[default]
    Rg,
    /// Pre-paper GC conditions without spurious type variables (unsound).
    RgMinus,
    /// Pure region inference, no tracing GC.
    R,
}

/// How spurious type variables receive arrow effects (Section 2's scheme
/// (2) vs scheme (3)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpuriousStyle {
    /// Identify the variable's effect with the handle of the capturing
    /// function's arrow effect (scheme (3); what the MLKit does).
    #[default]
    Identify,
    /// Introduce a fresh *secondary* effect variable per spurious type
    /// variable (scheme (2)).
    Secondary,
}

/// Inference options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Strategy.
    pub strategy: Strategy,
    /// Spurious-variable style.
    pub style: SpuriousStyle,
}

/// The result of region inference.
#[derive(Debug)]
pub struct Output {
    /// The region-annotated program: nested lets over the top-level
    /// declarations, ending in `main ()` (or `()` if there is no `main`).
    pub term: Term,
    /// Exception constructors with their (globalised) argument types.
    pub exns: BTreeMap<Symbol, Option<Mu>>,
    /// The global (top-level) region — pre-allocated by evaluators.
    pub global: RegVar,
    /// Figure 9 statistics (spurious functions/instantiations).
    pub stats: Stats,
    /// The statistics of each top-level declaration, in source order;
    /// `stats` is their sum (the closing `main ()` call counts with the
    /// last declaration).
    pub bind_stats: Vec<Stats>,
    /// Unification-store instrumentation (find/union/closure counters).
    pub store_stats: store::StoreStats,
    /// Pretty-printable schemes of the top-level functions, in order.
    pub schemes: Vec<(Symbol, rml_core::types::Scheme)>,
    /// Binder symbol → source span of the lambda or `fun` binding that
    /// introduced it (first binding wins). Lets a checker blame, which
    /// names a binder, be rendered as an underlined source diagnostic.
    pub provenance: BTreeMap<Symbol, rml_session::Span>,
}

/// Runs region inference.
///
/// # Errors
///
/// Returns an [`InferError`] on internal shape mismatches (which indicate
/// an upstream type-checking bug) or unsupported constructs (global
/// exception-name collisions at different types).
pub fn infer(p: &TProgram, opts: Options) -> Result<Output, InferError> {
    let _span = rml_session::trace::span("region-inference", "pipeline");
    let mut c = constrain::Constrain::new(opts.strategy, opts.style);
    let (cterm, _eff) = {
        let _s = rml_session::trace::span("infer.constrain", "pipeline");
        c.program(p)?
    };
    let global_rho = c.global_rho;
    let stats = c.stats.clone();
    let bind_stats = std::mem::take(&mut c.bind_stats);
    let provenance = c.provenance.clone();
    let (mut b, exns) = build::Build::new(&mut c);
    let global = b.global_region(global_rho);
    let mut env = rml_core::TypeEnv::default();
    let (term, pi, eff) = {
        let _s = rml_session::trace::span("infer.build", "pipeline");
        b.build(&mut env, &cterm)?
    };
    // Close the program: everything not global dies here.
    let (term, _eff) = {
        let _s = rml_session::trace::span("infer.close", "pipeline");
        let (t, e) = {
            let mut fb = b;
            fb.close(&env, &pi, term, eff)
        };
        (t, e)
    };
    // Collect top-level schemes for reporting.
    let mut schemes = Vec::new();
    collect_schemes(&term, &mut schemes);
    let store_stats = c.st.stats();
    if rml_session::trace::enabled() {
        rml_session::trace::instant(
            "infer.store",
            "pipeline",
            &[
                ("find_ops", store_stats.find_ops as f64),
                ("unions", store_stats.unions as f64),
                ("closure_cache_hits", store_stats.closure_cache_hits as f64),
                ("closure_recomputes", store_stats.closure_recomputes as f64),
            ],
        );
    }
    Ok(Output {
        term,
        exns,
        global,
        stats,
        bind_stats,
        store_stats,
        schemes,
        provenance,
    })
}

fn collect_schemes(t: &Term, out: &mut Vec<(Symbol, rml_core::types::Scheme)>) {
    match t {
        Term::Let { rhs, body, .. } => {
            if let Term::Fix { defs, .. } = &**rhs {
                for d in defs.iter() {
                    if !out.iter().any(|(n, _)| *n == d.f) {
                        out.push((d.f, d.scheme.clone()));
                    }
                }
            }
            collect_schemes(rhs, out);
            collect_schemes(body, out);
        }
        Term::Letregion { body, .. } => collect_schemes(body, out),
        _ => {}
    }
}
