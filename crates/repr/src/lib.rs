//! Region-representation analyses (the MLKit phases the paper's Section 4
//! says the new type system composes with [6, 43]).
//!
//! [`analyze`] owns the one decision the machine needs per
//! `letregion`-bound region ([`ReprInfo`]):
//!
//! * **Multiplicity analysis** ([`multiplicity`]): a region is *finite*
//!   (at most a known number of allocations per lifetime, provably — such
//!   regions are never collected) or *infinite* (heap pages, subject to
//!   tracing collection).
//! * **Homogeneity analysis** ([`uniform`]): a region whose objects all
//!   have one untagged-eligible kind may drop their headers (Section 6).
//!
//! Two reporting analyses are not part of that decision and run only when
//! called: droppable region parameters ([`droppable_params`]) and
//! allocation statistics ([`alloc_stats`]).
//!
//! # Example
//!
//! ```
//! let prog = rml_syntax::parse_program(
//!     "fun main () = let val p = (1, 2) in #1 p end").unwrap();
//! let typed = rml_hm::infer_program(&prog).unwrap();
//! let out = rml_infer::infer(&typed, Default::default()).unwrap();
//! let info = rml_repr::analyze(&out.term);
//! // The pair's region is finite: exactly one allocation, outside loops.
//! assert!(info.finite.values().any(|bound| *bound == 1));
//! ```

pub mod drop_regions;
pub mod multiplicity;
pub mod stats;
pub mod uniform;

pub use drop_regions::droppable_params;
pub use multiplicity::finite_regions;
pub use stats::{alloc_stats, AllocStats};
pub use uniform::uniform_regions;

use rml_core::terms::Term;
use rml_core::vars::RegVar;
use rml_runtime::UniformKind;
use std::collections::HashMap;

/// How the machine represents each `letregion`-bound region.
#[derive(Debug, Clone, Default)]
pub struct ReprInfo {
    /// Regions proven finite, each with its static multiplicity bound
    /// (objects per lifetime; enforced by the heap verifier in torture
    /// runs). A region absent here is infinite.
    pub finite: HashMap<RegVar, u64>,
    /// Kind-homogeneous regions eligible for the untagged (header-less)
    /// representation.
    pub uniform: HashMap<RegVar, UniformKind>,
}

/// Runs the representation analyses over a region-annotated program.
pub fn analyze(term: &Term) -> ReprInfo {
    ReprInfo {
        finite: finite_regions(term),
        uniform: uniform_regions(term),
    }
}

/// Parses, types and region-infers `src` under strategy `rg`.
#[cfg(test)]
fn compile(src: &str) -> Term {
    let prog = rml_syntax::parse_program(src).unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    rml_infer::infer(&typed, Default::default()).unwrap().term
}
