//! The `rml` abstract machine: executes region-annotated programs
//! ([`rml_core::Term`]) against the page-based region heap of
//! `rml-runtime`, with an interleaved reference-tracing collector.
//!
//! Unlike the substitution-based formal semantics in `rml-core` (used for
//! metatheory), this machine is a performance model of compiled code:
//!
//! * a program is [`lower()`]ed once, into a code vector with
//!   slot-resolved variables and regions, and every [`run`] of it starts
//!   from that [`Lowered`] program and a fresh heap,
//! * closures are **heap objects** that capture the values of their free
//!   variables (and the regions of their free region variables), so the
//!   collector traces real pointers — including the dangling ones that
//!   strategy `rg-` leaves behind,
//! * all live values are reachable from an enumerable **root set**
//!   (the control value, the continuation frames, and the bindings in
//!   scope), so collection can happen between any two machine steps,
//! * `letregion` pushes and pops regions on the region stack;
//!   deallocation poisons pages so stale pointers are detected,
//! * a baseline mode ([`ExecOpts::baseline`]) ignores regions entirely and
//!   runs on a single collected heap — the stand-in for a conventional
//!   tracing-GC compiler in the benchmark comparisons.
//!
//! # Example
//!
//! ```
//! use rml_eval::{lower, run, ExecOpts, RunValue};
//! let prog = rml_syntax::parse_program("fun main () = 21 + 21").unwrap();
//! let typed = rml_hm::infer_program(&prog).unwrap();
//! let out = rml_infer::infer(&typed, Default::default()).unwrap();
//! let repr = rml_repr::analyze(&out.term);
//! let lowered = lower(&out.term, out.global, &repr);
//! let res = run(&lowered, &ExecOpts::default()).unwrap();
//! assert_eq!(res.value, RunValue::Int(42));
//! ```

// The torture rig's subject: library code here must surface failures as
// structured errors, never via panicking escape hatches. Test modules
// (compiled only under `cfg(test)`) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod decode;
mod lower;
mod machine;

pub use decode::RunValue;
pub use lower::{lower, Lowered};
pub use machine::{run, ExecOpts, GcPolicy, RunError, RunOutcome, StressSchedule};
