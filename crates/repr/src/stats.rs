//! Static allocation statistics over a region-annotated program.

use crate::multiplicity::for_children;
use rml_core::terms::Term;

/// Static counts of region constructs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `letregion` nodes.
    pub letregions: usize,
    /// Region variables bound by them.
    pub bound_regions: usize,
    /// Allocation points (all `at ρ` sites).
    pub alloc_sites: usize,
    /// Region applications.
    pub region_apps: usize,
}

/// Computes static allocation statistics.
pub fn alloc_stats(term: &Term) -> AllocStats {
    let mut s = AllocStats::default();
    go(term, &mut s);
    s
}

fn go(e: &Term, s: &mut AllocStats) {
    match e {
        Term::Letregion { rvars, .. } => {
            s.letregions += 1;
            s.bound_regions += rvars.len();
        }
        Term::Str(..)
        | Term::Pair(..)
        | Term::Cons(..)
        | Term::RefNew(..)
        | Term::Exn { .. }
        | Term::Prim(_, _, Some(_))
        | Term::Lam { .. }
        | Term::Fix { .. } => s.alloc_sites += 1,
        Term::RApp { .. } => {
            s.region_apps += 1;
            s.alloc_sites += 1;
        }
        _ => {}
    }
    for_children(e, |c| go(c, s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_constructs() {
        let term = crate::compile("fun main () = let val p = (1, \"x\") in size (#2 p) end");
        let s = alloc_stats(&term);
        assert!(s.letregions >= 1);
        assert!(s.alloc_sites >= 2); // pair + string (+ closures)
        assert!(s.region_apps >= 1); // the call to main
    }
}
