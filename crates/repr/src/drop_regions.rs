//! Drop analysis: quantified region parameters that the function body
//! never stores into (and never forwards to a callee) need not be passed
//! at run time — the MLKit's "dropping of regions" phase.

use crate::multiplicity::for_children;
use rml_core::terms::Term;
use rml_core::vars::RegVar;
use std::collections::{BTreeMap, BTreeSet};

/// For every `fun` definition: how many of its region parameters are
/// droppable, out of how many. Keyed by function name.
pub fn droppable_params(term: &Term) -> BTreeMap<String, (usize, usize)> {
    let mut out = BTreeMap::new();
    walk(term, &mut out);
    out
}

fn walk(e: &Term, out: &mut BTreeMap<String, (usize, usize)>) {
    if let Term::Fix { defs, .. } = e {
        for d in defs.iter() {
            let total = d.scheme.rvars.len();
            let mut used = BTreeSet::new();
            put_regions(&d.body, &mut used);
            let droppable = d.scheme.rvars.iter().filter(|r| !used.contains(r)).count();
            out.insert(d.f.to_string(), (droppable, total));
        }
    }
    for_children(e, |c| walk(c, out));
}

/// Regions a term may store into (put effects): allocation targets and
/// regions forwarded at region applications.
pub fn put_regions(e: &Term, out: &mut BTreeSet<RegVar>) {
    match e {
        Term::Str(_, r) | Term::Pair(_, _, r) | Term::Cons(_, _, r) | Term::RefNew(_, r) => {
            out.insert(*r);
        }
        Term::Lam { at, .. } | Term::Exn { at, .. } => {
            out.insert(*at);
        }
        Term::Prim(_, _, Some(r)) => {
            out.insert(*r);
        }
        Term::Fix { ats, .. } => {
            out.extend(ats.iter().copied());
        }
        Term::RApp { inst, at, .. } => {
            out.insert(*at);
            // Conservatively, a forwarded region may be stored into.
            out.extend(inst.reg.values().copied());
        }
        _ => {}
    }
    for_children(e, |c| put_regions(c, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> BTreeMap<String, (usize, usize)> {
        droppable_params(&crate::compile(src))
    }

    #[test]
    fn pure_arithmetic_params_are_droppable() {
        // `get`'s quantified argument regions are read, never stored into.
        let info = analyze(
            "fun first (a, b) = a \
             fun main () = first (1, 2)",
        );
        let (droppable, total) = info["first"];
        assert!(total >= 1);
        assert!(droppable >= 1, "{info:?}");
    }

    #[test]
    fn constructor_params_are_not_droppable() {
        let info = analyze(
            "fun dup x = (x, x) \
             fun main () = #1 (dup 3)",
        );
        let (droppable, total) = info["dup"];
        assert!(droppable < total, "{info:?}");
    }

    #[test]
    fn every_fun_is_reported() {
        let info = analyze("fun f x = x fun g y = (y, y) fun main () = #1 (g (f 1))");
        assert!(info.contains_key("f"));
        assert!(info.contains_key("g"));
        assert!(info.contains_key("main"));
    }
}
