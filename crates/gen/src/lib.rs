//! `rml-gen` — a type-directed generator (and shrinker) of well-typed
//! `rml` programs.
//!
//! The paper's soundness bug lives in *higher-order type-polymorphic*
//! territory: a composition closure capturing a value whose type
//! variable is spurious (free in the captured environment but not in the
//! closure's own type) is exactly what separates `rg` from `rg-`. A
//! fuzzer that emits first-order integer arithmetic can never get there.
//! This crate generates programs *aimed* at that territory:
//!
//! * **type-directed**: every expression is built against a target type
//!   from a small grammar (ints, bools, strings, unit, pairs, lists,
//!   refs, arrows), so generated programs are well-typed by
//!   construction — and re-validated through the real Hindley–Milner
//!   checker ([`validate`]);
//! * **biased toward the paper's hard shapes**: let-polymorphic
//!   combinators (`id`, `konst`, `compose`, `twice`, `map`, `append`,
//!   `length`) instantiated at many types, composition chains whose
//!   *intermediate* type variable is instantiated at a boxed type (the
//!   spurious-variable generator), Figure 1-style dead captures followed
//!   by a forced collection, region-polymorphic recursion (list builders
//!   and consumers), refs, and caught exceptions;
//! * **deterministic**: generation is driven by the torture rig's seeded
//!   [`rml_runtime::Xorshift64`] — no ambient randomness — so a
//!   `(seed, fuel)` pair fully determines a program. A failure reported
//!   by the `fuzzgen` driver is reproducible from its one-line seed.
//! * **terminating**: recursion only happens through structurally
//!   decreasing templates whose arguments are bounded (`e mod k`), so
//!   every generated program halts — oracle fuel is never the limiting
//!   factor.
//!
//! The companion [`shrink`](mod@shrink) module minimises failing programs by typed
//! subterm deletion and constant folding, re-validating through HM after
//! every step, so fuzzer findings check in as small `.rml` regression
//! corpus entries.
//!
//! # Example
//!
//! ```
//! use rml_gen::{generate_source, GenOpts};
//! let a = generate_source(&GenOpts { seed: 7, fuel: 40 });
//! let b = generate_source(&GenOpts { seed: 7, fuel: 40 });
//! assert_eq!(a, b); // (seed, fuel) fully determines the program
//! let prog = rml_syntax::parse_program(&a).unwrap();
//! rml_hm::infer_program(&prog).unwrap(); // well-typed by construction
//! ```

mod gen;
pub mod shrink;

pub use gen::{generate, GenOpts};
pub use shrink::{fold_constants, shrink};

use rml_syntax::Program;

/// Renders a generated program as parseable source (one declaration per
/// line, fully parenthesised — see `rml_syntax::pretty`).
pub fn generate_source(opts: &GenOpts) -> String {
    rml_syntax::pretty::program_to_string(&generate(opts))
}

/// Re-validates a program through the *real* front end: pretty-print,
/// re-parse, and run Hindley–Milner inference. This is the shrinker's
/// per-step gate and the generator's own acceptance test — a program
/// that fails here is an `rml-gen` bug.
///
/// # Errors
///
/// A description of the first re-parse or typing failure.
pub fn validate(p: &Program) -> Result<(), String> {
    let src = rml_syntax::pretty::program_to_string(p);
    let p2 = rml_syntax::parse_program(&src)
        .map_err(|e| format!("generated program does not re-parse: {} in\n{src}", e.msg))?;
    rml_hm::infer_program(&p2)
        .map_err(|e| format!("generated program does not type: {} in\n{src}", e.msg))?;
    Ok(())
}
