//! The compilation pipeline: parse → type → region-infer → analyse →
//! lower, then execute.

use rml_eval::{ExecOpts, GcPolicy, RunError, RunOutcome};
use rml_infer::{Options, SpuriousStyle, Strategy};
use rml_repr::ReprInfo;
use rml_session::{trace, Diagnostic, SourceMap};
use rml_syntax::ast::{Decl, Expr, ExprKind, Program};
use rml_syntax::Symbol;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide count of completed compilations (any strategy). The
/// benchmark harness uses deltas of this counter to assert its
/// compilation cache actually shares work.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// The number of compilations performed by this process so far.
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Wall-clock time spent in each compilation phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTimings {
    /// Lexing + parsing the user's source (with the basis, also selecting
    /// the basis declarations the program reaches; the basis itself is
    /// parsed once per process, in the first such compile).
    pub parse: Duration,
    /// Hindley–Milner typing.
    pub types: Duration,
    /// Region inference.
    pub regions: Duration,
    /// Representation analyses.
    pub repr: Duration,
    /// End-to-end compilation time.
    pub total: Duration,
}

/// A compiled program.
#[derive(Debug)]
pub struct Compiled {
    /// The user's source, as given: every span of the user's declarations
    /// is an offset into it (the basis's spans are in a range of their
    /// own, see [`render_diagnostic`]).
    pub source: String,
    /// How many basis declarations were compiled: they come first, and
    /// every later top-level declaration is the user's.
    pub basis_decls: usize,
    /// Region inference output (term, exceptions, statistics, schemes).
    pub output: rml_infer::Output,
    /// Representation analyses.
    pub repr: ReprInfo,
    /// The term lowered for the machine; every [`execute`] runs it.
    pub lowered: rml_eval::Lowered,
    /// The strategy used.
    pub strategy: Strategy,
    /// Per-phase compilation wall times.
    pub timings: CompileTimings,
}

impl Compiled {
    /// The Figure 9 statistics of the user's own declarations, the ones
    /// after the basis (the paper's per-benchmark columns exclude the
    /// Basis Library).
    pub fn own_stats(&self) -> rml_infer::Stats {
        let mut own = rml_infer::Stats::default();
        for s in &self.output.bind_stats[self.basis_decls..] {
            own.add(s);
        }
        own
    }
}

/// A compilation error from any stage, carrying a structured
/// [`Diagnostic`] (stable code, primary span when the stage knows one).
///
/// `Display` remains the stage-prefixed message, so stringly-typed
/// consumers see what they always saw; renderers pass
/// [`CompileError::diagnostic`] to [`render_diagnostic`] for the
/// underlined source excerpt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing (`E0001`).
    Parse(Diagnostic),
    /// Hindley–Milner typing (`E0002`).
    Type(Diagnostic),
    /// Region inference (`E0003`).
    Region(Diagnostic),
}

impl CompileError {
    /// The structured diagnostic behind the error.
    pub fn diagnostic(&self) -> &Diagnostic {
        match self {
            CompileError::Parse(d) | CompileError::Type(d) | CompileError::Region(d) => d,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(d) => write!(f, "parse error: {d}"),
            CompileError::Type(d) => write!(f, "{d}"),
            CompileError::Region(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a source program under a strategy.
///
/// # Errors
///
/// Returns the first stage error encountered.
pub fn compile(src: &str, strategy: Strategy) -> Result<Compiled, CompileError> {
    compile_opts(src, strategy, SpuriousStyle::default())
}

/// Compiles with an explicit spurious-variable style (the scheme (2) vs
/// scheme (3) choice of the paper's Section 2).
pub fn compile_opts(
    src: &str,
    strategy: Strategy,
    style: SpuriousStyle,
) -> Result<Compiled, CompileError> {
    compile_source(src, strategy, style, false)
}

/// Compiles `src`; `with_basis` puts in front of it the basis
/// declarations it reaches (see [`shake_basis`]).
fn compile_source(
    src: &str,
    strategy: Strategy,
    style: SpuriousStyle,
    with_basis: bool,
) -> Result<Compiled, CompileError> {
    let _compile_span = trace::span("compile", "pipeline");
    let start = Instant::now();
    let (prog, basis_decls) = {
        let _s = trace::span("parse", "pipeline");
        // The basis is parsed before the user's source is lexed, so names
        // are interned as if the basis came first in one text.
        let basis = with_basis.then(crate::basis::parsed);
        let fresh = basis.map_or(0, |(_, fresh)| *fresh);
        let (mut prog, _) = rml_syntax::parse_program_at(src, 0, fresh).map_err(|e| {
            CompileError::Parse(Diagnostic::error("E0001", e.msg.clone()).with_primary(e.span))
        })?;
        let kept = basis.map_or(0, |(b, _)| shake_basis(&mut prog, &b.decls));
        (prog, kept)
    };
    let parse = start.elapsed();
    let t = Instant::now();
    let typed = {
        let _s = trace::span("hm-typing", "pipeline");
        rml_hm::infer_program(&prog).map_err(|e| {
            let mut d = Diagnostic::error("E0002", format!("type error: {}", e.msg));
            if let Some(sp) = e.span {
                d = d.with_primary(sp);
            }
            CompileError::Type(d)
        })?
    };
    let types = t.elapsed();
    let t = Instant::now();
    // rml_infer::infer opens its own "region-inference" span.
    let output = rml_infer::infer(&typed, Options { strategy, style }).map_err(|e| {
        CompileError::Region(Diagnostic::error(
            "E0003",
            format!("region inference error: {}", e.0),
        ))
    })?;
    let regions = t.elapsed();
    let t = Instant::now();
    let repr = {
        let _s = trace::span("repr-analysis", "pipeline");
        rml_repr::analyze(&output.term)
    };
    let repr_time = t.elapsed();
    let lowered = rml_eval::lower(&output.term, output.global, &repr);
    COMPILES.fetch_add(1, Ordering::Relaxed);
    Ok(Compiled {
        source: src.to_string(),
        basis_decls,
        output,
        repr,
        lowered,
        strategy,
        timings: CompileTimings {
            parse,
            types,
            regions,
            repr: repr_time,
            total: start.elapsed(),
        },
    })
}

/// Compiles against the basis library (see [`crate::basis`]): only the
/// basis declarations the program reaches are typed and compiled, taken
/// from the basis parsed once per process. `src`'s spans stay offsets
/// into `src` (see [`render_diagnostic`]). `compile(BASIS, …)` compiles
/// the whole basis.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with_basis(src: &str, strategy: Strategy) -> Result<Compiled, CompileError> {
    compile_source(src, strategy, SpuriousStyle::default(), true)
}

/// Puts in front of `prog` the declarations of `basis` that it reaches,
/// and returns how many there are.
///
/// The walk goes from the program's last declaration to the basis's
/// first with the set of names still needed. Every declaration of the
/// program is kept, so the user's unused or ill-typed functions are
/// still checked. A basis declaration is kept only if it binds a needed
/// name (or declares an exception). A kept declaration's bound names
/// leave the set (a `fun` group's after its bodies, as it is recursive)
/// and the names it mentions join it. The mentions are every variable
/// and exception name in it, binders ignored, so the walk can only keep
/// too much.
fn shake_basis(prog: &mut Program, basis: &[Decl]) -> usize {
    let mut needed = HashSet::new();
    for d in prog.decls.iter().rev() {
        need(d, &mut needed);
    }
    let mut decls = Vec::new();
    for d in basis.iter().rev() {
        let reached = match d {
            Decl::Val(x, _) => needed.contains(x),
            Decl::Fun(binds) => binds.iter().any(|b| needed.contains(&b.name)),
            Decl::Exception(..) => true,
        };
        if reached {
            need(d, &mut needed);
            decls.push(d.clone());
        }
    }
    decls.reverse();
    let kept = decls.len();
    decls.append(&mut prog.decls);
    prog.decls = decls;
    kept
}

/// Updates the names `needed` before the kept declaration `d`.
fn need(d: &Decl, needed: &mut HashSet<Symbol>) {
    match d {
        Decl::Val(x, e) => {
            needed.remove(x);
            mentions(e, needed);
        }
        Decl::Fun(binds) => {
            for b in binds {
                mentions(&b.body, needed);
            }
            for b in binds {
                needed.remove(&b.name);
            }
        }
        // An exception constructor is no value: the name stays needed.
        Decl::Exception(..) => {}
    }
}

/// Adds every variable and exception name in `e` to `out`.
fn mentions(e: &Expr, out: &mut HashSet<Symbol>) {
    match &e.kind {
        ExprKind::Var(x) | ExprKind::Con(x, _) | ExprKind::Handle { exn: x, .. } => {
            out.insert(*x);
        }
        _ => {}
    }
    e.for_children(|c| mentions(c, out));
}

/// Renders a diagnostic from a compile of the user's program `src`
/// (labelled `name`, a file name or `<expr>`), with or without the
/// basis. A span's range names its file: a span of the basis's
/// declarations is rendered against the basis and labelled `<basis>`,
/// and any other span is an offset into `src`.
pub fn render_diagnostic(d: &Diagnostic, src: &str, name: &str) -> String {
    match crate::basis::span_in_basis(d.primary) {
        Some(span) => {
            let mut basis = d.clone();
            basis.primary = span;
            basis.render(&SourceMap::new(crate::basis::BASIS), "<basis>")
        }
        None => d.render(&SourceMap::new(src), name),
    }
}

/// Validates a compiled program against the paper's typing rules
/// (Figure 4), with the GC-safety mode matching the compilation strategy.
///
/// # Errors
///
/// Returns the checker's description of the first violated rule — for
/// `rg` output this indicates a bug; for `rg-` output on problematic
/// programs it is the expected detection of the soundness hole.
pub fn check(c: &Compiled) -> Result<(), String> {
    check_diag(c).map_err(|d| d.to_string())
}

/// As [`check`], but returns the structured [`Diagnostic`] (`E0004`): the
/// checker's blamed binder is resolved through the inference provenance
/// table to the span of the capturing lambda or `fun` binding, so the
/// renderer underlines the function the violation occurred in.
///
/// # Errors
///
/// As [`check`].
pub fn check_diag(c: &Compiled) -> Result<(), Diagnostic> {
    let gc = match c.strategy {
        Strategy::Rg => rml_core::typing::GcCheck::Full,
        Strategy::RgMinus => rml_core::typing::GcCheck::NoTyVars,
        Strategy::R => rml_core::typing::GcCheck::Off,
    };
    check_with(c, gc)
}

/// Validates against the *full* GC-safety conditions regardless of the
/// compilation strategy. On `rg-` output this is the paper's detector:
/// the Figure 4 rules with spurious type variables reject exactly the
/// programs whose collector can meet a dangling pointer (Figures 1/8).
///
/// # Errors
///
/// The first violated rule, as a source-located [`Diagnostic`].
pub fn check_full(c: &Compiled) -> Result<(), Diagnostic> {
    check_with(c, rml_core::typing::GcCheck::Full)
}

fn check_with(c: &Compiled, gc: rml_core::typing::GcCheck) -> Result<(), Diagnostic> {
    let checker = rml_core::Checker {
        exns: c.output.exns.clone(),
        gc,
        store: vec![],
    };
    checker
        .check(&rml_core::TypeEnv::default(), &c.output.term)
        .map(|_| ())
        .map_err(|e| {
            let mut d = Diagnostic::error("E0004", e.msg.clone());
            if let Some(x) = e.blame {
                d = d.with_note(format!("while checking the function bound by `{x}`"));
                if let Some(sp) = c.output.provenance.get(&x) {
                    d = d.with_primary(*sp);
                }
            }
            d
        })
}

/// Encodes a compiled program's region-annotated term, exceptions and
/// schemes in the write-only RMLI format (see [`rml_core::ir`]). Nothing
/// reads the bytes back: their length is the measured size of the
/// annotated program.
pub fn emit_ir(c: &Compiled) -> Vec<u8> {
    let prog = rml_core::ir::IrProgram {
        term: c.output.term.clone(),
        exns: c.output.exns.clone(),
        global: c.output.global,
        schemes: c.output.schemes.clone(),
    };
    rml_core::ir::encode_program(&prog)
}

/// Executes a compiled program on a fresh region heap.
///
/// # Errors
///
/// Propagates [`RunError`] — in particular `Dangling` when the collector
/// meets a dangling pointer (strategy `rg-` on the paper's programs).
pub fn execute(c: &Compiled, opts: &ExecOpts) -> Result<RunOutcome, RunError> {
    // Strategy `r` has no collector unless the caller asks for one.
    let gc = opts.gc.or(match c.strategy {
        Strategy::R => Some(GcPolicy::Off),
        _ => None,
    });
    rml_eval::run(&c.lowered, &ExecOpts { gc, ..*opts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rml_eval::RunValue;

    #[test]
    fn end_to_end() {
        let c = compile("fun main () = 1 + 2", Strategy::Rg).unwrap();
        check(&c).unwrap();
        let out = execute(&c, &ExecOpts::default()).unwrap();
        assert_eq!(out.value, RunValue::Int(3));
    }

    #[test]
    fn errors_are_reported_per_stage() {
        assert!(matches!(
            compile("val = ", Strategy::Rg),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile("val x = 1 + \"two\"", Strategy::Rg),
            Err(CompileError::Type(_))
        ));
    }

    #[test]
    fn ir_size_ignores_variable_numbering() {
        // Two compiles of one program draw different fresh variables; the
        // encoding writes each as a fixed-width id, so the measured size
        // is the same.
        let src = "fun f x = (x, [x]) fun main () = #1 (f 1)";
        let a = compile(src, Strategy::Rg).unwrap();
        let b = compile(src, Strategy::Rg).unwrap();
        assert_ne!(a.output.global, b.output.global);
        assert_eq!(emit_ir(&a).len(), emit_ir(&b).len());
    }

    #[test]
    fn basis_compiles_under_all_strategies() {
        crate::run_with_big_stack(|| {
            for s in [Strategy::Rg, Strategy::RgMinus, Strategy::R] {
                let c = compile_with_basis("fun main () = length [1, 2, 3]", s).unwrap();
                let out = execute(&c, &ExecOpts::default()).unwrap();
                assert_eq!(out.value, RunValue::Int(3));
            }
        });
    }
}
