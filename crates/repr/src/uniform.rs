//! Region-homogeneity analysis for the partly tag-free representation
//! (paper Section 6): a region whose every allocation site stores the same
//! untagged-eligible kind (pairs, cons cells, or references) — and which
//! never escapes through a region application — can drop per-object
//! headers (BIBOP-style, "with regions as pages").

use crate::multiplicity::for_children;
use rml_core::terms::Term;
use rml_core::vars::RegVar;
use rml_runtime::UniformKind;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Nothing,
    Only(UniformKind),
    Mixed,
}

/// Classifies every region variable of a program: `Some(kind)` when all
/// its allocation sites — including, transitively, the allocation sites of
/// every quantified region parameter it is instantiated for — agree on an
/// untagged-eligible kind.
///
/// The analysis is interprocedural: each region application contributes a
/// flow edge *bound parameter → actual region*, and kind summaries are
/// propagated to a fixpoint (the lattice `Nothing < Only(k) < Mixed` has
/// height two, so this converges quickly).
pub fn uniform_regions(term: &Term) -> HashMap<RegVar, UniformKind> {
    let mut seen: HashMap<RegVar, Seen> = HashMap::new();
    let mut edges: Vec<(RegVar, RegVar)> = Vec::new(); // bound → actual
    collect(term, &mut seen, &mut edges);
    // Propagate along instantiation edges to a fixpoint.
    loop {
        let mut changed = false;
        for (bound, actual) in &edges {
            let from = seen.get(bound).copied().unwrap_or(Seen::Nothing);
            let into = seen.entry(*actual).or_insert(Seen::Nothing);
            let merged = match (*into, from) {
                (a, Seen::Nothing) => a,
                (Seen::Nothing, b) => b,
                (Seen::Only(a), Seen::Only(b)) if a == b => Seen::Only(a),
                _ => Seen::Mixed,
            };
            if merged != *into {
                *into = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    seen.into_iter()
        .filter_map(|(r, s)| match s {
            Seen::Only(k) => Some((r, k)),
            _ => None,
        })
        .collect()
}

fn mark(seen: &mut HashMap<RegVar, Seen>, r: RegVar, k: Option<UniformKind>) {
    let entry = seen.entry(r).or_insert(Seen::Nothing);
    *entry = match (*entry, k) {
        (Seen::Mixed, _) | (_, None) => Seen::Mixed,
        (Seen::Nothing, Some(k)) => Seen::Only(k),
        (Seen::Only(a), Some(b)) if a == b => Seen::Only(a),
        _ => Seen::Mixed,
    };
}

fn collect(e: &Term, seen: &mut HashMap<RegVar, Seen>, edges: &mut Vec<(RegVar, RegVar)>) {
    match e {
        Term::Pair(_, _, r) => mark(seen, *r, Some(UniformKind::Pair)),
        Term::Cons(_, _, r) => mark(seen, *r, Some(UniformKind::Cons)),
        Term::RefNew(_, r) => mark(seen, *r, Some(UniformKind::Ref)),
        Term::Str(_, r) | Term::Exn { at: r, .. } => mark(seen, *r, None),
        Term::Prim(_, _, Some(r)) => mark(seen, *r, None),
        Term::Lam { at, .. } => mark(seen, *at, None),
        Term::Fix { ats, .. } => {
            for r in ats.iter() {
                mark(seen, *r, None);
            }
        }
        Term::RApp { inst, at, .. } => {
            mark(seen, *at, None);
            // The actual region receives whatever the callee stores into
            // the bound parameter.
            for (bound, actual) in &inst.reg {
                edges.push((*bound, *actual));
            }
        }
        _ => {}
    }
    for_children(e, |c| collect(c, seen, edges));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> HashMap<RegVar, UniformKind> {
        uniform_regions(&crate::compile(src))
    }

    #[test]
    fn spine_region_uniform_through_instantiation() {
        // The list spine is built by a callee (`upto`) in the caller's
        // region: the interprocedural flow must classify it Cons.
        let u = analyze(
            "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
             fun len xs = case xs of nil => 0 | h :: t => 1 + len t \
             fun main () = len (upto 5)",
        );
        assert!(u.values().any(|k| *k == UniformKind::Cons), "{u:?}");
    }

    #[test]
    fn region_mixed_through_instantiation_is_rejected() {
        // One function stores pairs, another strings, into the same
        // quantified parameter position at different call sites — regions
        // that receive both kinds must not be untagged.
        let u = analyze(
            "fun mkp x = (x, x) \
             fun main () = let val a = mkp 1 val s = \"x\" ^ \"y\" in #1 a + size s end",
        );
        // No region may be classified with a kind it does not hold.
        for k in u.values() {
            assert!(matches!(
                k,
                UniformKind::Pair | UniformKind::Cons | UniformKind::Ref
            ));
        }
    }

    #[test]
    fn local_pair_region_is_uniform() {
        let u = analyze("fun main () = let val p = (1, 2) in #1 p end");
        assert!(u.values().any(|k| *k == UniformKind::Pair), "{u:?}");
    }

    #[test]
    fn ref_region_is_uniform() {
        let u = analyze("fun main () = let val r = ref 1 in !r end");
        assert!(u.values().any(|k| *k == UniformKind::Ref), "{u:?}");
    }

    #[test]
    fn mixed_region_is_not_uniform() {
        // Pair and string share a region through the result type.
        let u = analyze("fun main () = let val p = (\"a\", (1, 2)) in size (#1 p) end");
        // Whatever is uniform, nothing maps a string region.
        for k in u.values() {
            assert!(matches!(
                k,
                UniformKind::Pair | UniformKind::Cons | UniformKind::Ref
            ));
        }
    }
}
