//! Multiplicity analysis: finite vs infinite regions.
//!
//! A `letregion`-bound region is *finite* when every allocation into it
//! executes at most once per region lifetime. The conservative criterion
//! used here (a simplification of the MLKit's polymorphic multiplicity
//! analysis \[6\]):
//!
//! * every `at ρ` site inside the binding scope lies outside any nested
//!   `fn`/`fun` body (function bodies may run any number of times per
//!   lifetime of an enclosing region), and
//! * ρ is never passed at a region application (the callee could allocate
//!   into it repeatedly).
//!
//! Everything else is infinite (heap pages, collected).

use rml_core::terms::Term;
use rml_core::vars::RegVar;
use std::collections::HashMap;

/// Classifies all `letregion`-bound regions of a program in one walk: a
/// finite region maps to its static multiplicity bound, an infinite one
/// is absent.
///
/// The bound is the number of the region's allocation sites, since every
/// site of a finite region executes at most once per lifetime. A site
/// appearing in both arms of an `if` counts twice, so the bound is an
/// upper bound, never an undercount. The heap verifier enforces it at run
/// time (torture rig).
pub fn finite_regions(term: &Term) -> HashMap<RegVar, u64> {
    // Region variables are not guaranteed unique across letregions: a
    // variable is finite when any of its letregions is, with the largest
    // site count seen as its bound.
    let mut seen: HashMap<RegVar, (u64, bool)> = HashMap::new();
    walk(term, &mut |rvars, body| {
        for rv in rvars {
            let (mut count, mut deep_site, mut many) = (0u64, false, false);
            let mut on_site = |depth| {
                count += 1;
                deep_site |= depth > 0;
            };
            sites(body, *rv, 0, &mut on_site, &mut many);
            let entry = seen.entry(*rv).or_insert((0, false));
            entry.0 = entry.0.max(count);
            entry.1 |= !(many || deep_site);
        }
    });
    seen.into_iter()
        .filter_map(|(rv, (bound, finite))| finite.then_some((rv, bound)))
        .collect()
}

/// Calls `f(rvars, body)` for every `letregion` node.
fn walk(e: &Term, f: &mut impl FnMut(&[RegVar], &Term)) {
    if let Term::Letregion { rvars, body, .. } = e {
        f(rvars, body);
    }
    for_children(e, |c| walk(c, f));
}

/// Visits allocation sites targeting `rv` inside `e`; `depth` counts
/// enclosing function bodies. `many` is forced when the region escapes via
/// a region application.
fn sites(e: &Term, rv: RegVar, depth: usize, on_site: &mut impl FnMut(usize), many: &mut bool) {
    let hit = |r: RegVar| r == rv;
    match e {
        Term::Str(_, r) | Term::Pair(_, _, r) | Term::Cons(_, _, r) | Term::RefNew(_, r)
            if hit(*r) =>
        {
            on_site(depth);
        }
        Term::Lam { at, .. } if hit(*at) => {
            on_site(depth);
        }
        Term::Exn { at, .. } if hit(*at) => {
            on_site(depth);
        }
        Term::Prim(_, _, Some(r)) if hit(*r) => {
            on_site(depth);
        }
        Term::Fix { ats, .. } if ats.iter().any(|r| hit(*r)) => {
            // One closure is allocated per matching `at`, so each counts
            // as its own site (matters for the multiplicity bounds).
            for r in ats.iter() {
                if hit(*r) {
                    on_site(depth);
                }
            }
        }
        Term::RApp { inst, at, .. } => {
            if hit(*at) {
                on_site(depth);
            }
            if inst.reg.values().any(|r| hit(*r)) {
                *many = true;
            }
        }
        _ => {}
    }
    match e {
        Term::Lam { body, .. } => sites(body, rv, depth + 1, on_site, many),
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                sites(&d.body, rv, depth + 1, on_site, many);
            }
        }
        Term::Letregion { rvars, body, .. } => {
            if !rvars.contains(&rv) {
                sites(body, rv, depth, on_site, many);
            }
        }
        other => for_children(other, |c| sites(c, rv, depth, on_site, many)),
    }
}

pub(crate) fn for_children<'a>(e: &'a Term, mut f: impl FnMut(&'a Term)) {
    match e {
        Term::Var(_)
        | Term::Unit
        | Term::Int(_)
        | Term::Bool(_)
        | Term::Str(..)
        | Term::Nil(_)
        | Term::Val(_) => {}
        Term::Lam { body, .. } => f(body),
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                f(&d.body);
            }
        }
        Term::App(a, b) | Term::Assign(a, b) | Term::Pair(a, b, _) | Term::Cons(a, b, _) => {
            f(a);
            f(b);
        }
        Term::RApp { f: g, .. } => f(g),
        Term::Let { rhs, body, .. } => {
            f(rhs);
            f(body);
        }
        Term::Letregion { body, .. } => f(body),
        Term::Sel(_, a) | Term::RefNew(a, _) | Term::Deref(a) | Term::Raise(a, _) => f(a),
        Term::If(a, b, c) => {
            f(a);
            f(b);
            f(c);
        }
        Term::Prim(_, args, _) => {
            for a in args {
                f(a);
            }
        }
        Term::CaseList {
            scrut,
            nil_rhs,
            cons_rhs,
            ..
        } => {
            f(scrut);
            f(nil_rhs);
            f(cons_rhs);
        }
        Term::Exn { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        Term::Handle { body, handler, .. } => {
            f(body);
            f(handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use std::collections::HashSet;

    /// The region of the program's first pair.
    fn pair_region(e: &Term) -> Option<RegVar> {
        let mut found = match e {
            Term::Pair(_, _, r) => Some(*r),
            _ => None,
        };
        for_children(e, |c| found = found.or_else(|| pair_region(c)));
        found
    }

    /// Every `letregion`-bound region variable.
    fn bound_regions(term: &Term) -> HashSet<RegVar> {
        let mut out = HashSet::new();
        walk(term, &mut |rvars, _| out.extend(rvars.iter().copied()));
        out
    }

    #[test]
    fn single_pair_is_finite() {
        let term = compile("fun main () = let val p = (1, 2) in #1 p end");
        let finite = finite_regions(&term);
        let r = pair_region(&term).unwrap();
        assert_eq!(finite.get(&r), Some(&1), "{finite:?}");
    }

    #[test]
    fn list_spine_under_recursion_is_infinite() {
        // The spine region receives one cons per call via the region
        // application — infinite.
        let term = compile(
            "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
             fun len xs = case xs of nil => 0 | h :: t => 1 + len t \
             fun main () = len (upto 10)",
        );
        let finite = finite_regions(&term);
        assert!(bound_regions(&term).iter().any(|r| !finite.contains_key(r)));
    }

    #[test]
    fn allocation_under_lambda_is_infinite() {
        let term = compile(
            "fun main () = \
               let val mk = fn n => (n, n) \
                   val a = mk 1 \
                   val b = mk 2 \
               in #1 a + #1 b end",
        );
        // The pair region is allocated inside the lambda body.
        let r = pair_region(&term).unwrap();
        assert!(!finite_regions(&term).contains_key(&r));
    }

    #[test]
    fn bounds_cover_finite_regions() {
        // Both arms allocate into the one region of `p`: the bound counts
        // each site, so it covers whichever arm runs.
        let term = compile("fun main () = let val p = if true then (1, 2) else (3, 4) in #1 p end");
        let r = pair_region(&term).unwrap();
        assert_eq!(finite_regions(&term).get(&r), Some(&2));
    }

    #[test]
    fn classification_is_a_partition() {
        // Finite and infinite split exactly the letregion-bound regions.
        let term = compile(
            "fun f x = (x, x) \
             fun main () = let val p = (1, \"s\") in size (#2 p) + #1 (f 1) end",
        );
        let finite = finite_regions(&term);
        let bound = bound_regions(&term);
        assert!(finite.keys().all(|r| bound.contains(r)), "{finite:?}");
        assert!(!finite.is_empty());
        assert!(bound.iter().any(|r| !finite.contains_key(r)));
    }
}
