//! Pretty-printing of region-annotated types, schemes, and terms in the
//! paper's notation.

use crate::terms::Term;
use crate::types::{BoxTy, Mu, Scheme};
use std::fmt::Write as _;

/// Renders a type-and-place, e.g. `(int * (string,r3), r1)`.
pub fn mu_to_string(m: &Mu) -> String {
    match m {
        Mu::Var(a) => a.to_string(),
        Mu::Int => "int".into(),
        Mu::Bool => "bool".into(),
        Mu::Unit => "unit".into(),
        Mu::Boxed(b, r) => format!("({}, {r})", boxty_to_string(b)),
    }
}

/// Renders a boxed type constructor.
pub fn boxty_to_string(t: &BoxTy) -> String {
    match t {
        BoxTy::Pair(a, b) => format!("{} * {}", mu_to_string(a), mu_to_string(b)),
        BoxTy::Arrow(a, ae, b) => format!("{} -{}-> {}", mu_to_string(a), ae, mu_to_string(b)),
        BoxTy::Str => "string".into(),
        BoxTy::Exn => "exn".into(),
        BoxTy::List(e) => format!("{} list", mu_to_string(e)),
        BoxTy::Ref(e) => format!("{} ref", mu_to_string(e)),
    }
}

/// Renders a scheme, e.g.
/// `∀r1 r2 e0 e1 (a3 : e1.{}). ((a3 -e0.{}-> unit, r1) ...)`.
pub fn scheme_to_string(s: &Scheme) -> String {
    let mut out = String::new();
    if !(s.rvars.is_empty() && s.evars.is_empty() && s.delta.is_empty()) {
        out.push('∀');
        for r in &s.rvars {
            let _ = write!(out, "{r} ");
        }
        for e in &s.evars {
            let _ = write!(out, "{e} ");
        }
        for (a, ae) in &s.delta {
            let _ = write!(out, "({a} : {ae}) ");
        }
        out.push_str(". ");
    }
    out.push_str(&boxty_to_string(&s.body));
    out
}

/// Renders a term with region annotations (compact, one line).
pub fn term_to_string(e: &Term) -> String {
    let mut s = String::new();
    term(e, &mut s);
    s
}

fn term(e: &Term, out: &mut String) {
    match e {
        Term::Var(x) => {
            let _ = write!(out, "{x}");
        }
        Term::Unit => out.push_str("()"),
        Term::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Term::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Term::Str(s, r) => {
            let _ = write!(out, "{s:?} at {r}");
        }
        Term::Val(v) => {
            let _ = write!(out, "{v:?}");
        }
        Term::Nil(_) => out.push_str("nil"),
        Term::Lam {
            param, body, at, ..
        } => {
            let _ = write!(out, "(fn at {at} {param} => ");
            term(body, out);
            out.push(')');
        }
        Term::Fix { defs, ats, index } => {
            for (i, d) in defs.iter().enumerate() {
                out.push_str(if i == 0 { "(fun " } else { " and " });
                let _ = write!(out, "{} [", d.f);
                for r in &d.scheme.rvars {
                    let _ = write!(out, "{r} ");
                }
                for e in &d.scheme.evars {
                    let _ = write!(out, "{e} ");
                }
                for (a, ae) in &d.scheme.delta {
                    let _ = write!(out, "({a}:{ae}) ");
                }
                let _ = write!(out, "] {} = ", d.param);
                term(&d.body, out);
                let _ = write!(out, " at {}", ats[i]);
            }
            let _ = write!(out, "){index}");
        }
        Term::App(a, b) => {
            out.push('(');
            term(a, out);
            out.push(' ');
            term(b, out);
            out.push(')');
        }
        Term::RApp { f, inst, at } => {
            term(f, out);
            out.push_str(" [");
            for (k, v) in &inst.reg {
                let _ = write!(out, "{k}:={v} ");
            }
            let _ = write!(out, "] at {at}");
        }
        Term::Let { x, rhs, body } => {
            let _ = write!(out, "let {x} = ");
            term(rhs, out);
            out.push_str(" in ");
            term(body, out);
            out.push_str(" end");
        }
        Term::Letregion { rvars, body, .. } => {
            out.push_str("letregion ");
            for r in rvars {
                let _ = write!(out, "{r} ");
            }
            out.push_str("in ");
            term(body, out);
            out.push_str(" end");
        }
        Term::Pair(a, b, r) => {
            out.push('(');
            term(a, out);
            out.push_str(", ");
            term(b, out);
            let _ = write!(out, ") at {r}");
        }
        Term::Sel(i, e) => {
            let _ = write!(out, "#{i} ");
            term(e, out);
        }
        Term::If(c, t, f) => {
            out.push_str("if ");
            term(c, out);
            out.push_str(" then ");
            term(t, out);
            out.push_str(" else ");
            term(f, out);
        }
        Term::Prim(op, args, r) => {
            let _ = write!(out, "{op}");
            if let Some(r) = r {
                let _ = write!(out, "[{r}]");
            }
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                term(a, out);
            }
            out.push(')');
        }
        Term::Cons(h, t, r) => {
            term(h, out);
            let _ = write!(out, " ::[{r}] ");
            term(t, out);
        }
        Term::CaseList {
            scrut,
            nil_rhs,
            head,
            tail,
            cons_rhs,
        } => {
            out.push_str("case ");
            term(scrut, out);
            out.push_str(" of nil => ");
            term(nil_rhs, out);
            let _ = write!(out, " | {head} :: {tail} => ");
            term(cons_rhs, out);
        }
        Term::RefNew(e, r) => {
            let _ = write!(out, "ref at {r} ");
            term(e, out);
        }
        Term::Deref(e) => {
            out.push('!');
            term(e, out);
        }
        Term::Assign(a, b) => {
            term(a, out);
            out.push_str(" := ");
            term(b, out);
        }
        Term::Exn { name, arg, at } => {
            let _ = write!(out, "{name}");
            if let Some(a) = arg {
                out.push(' ');
                term(a, out);
            }
            let _ = write!(out, " at {at}");
        }
        Term::Raise(e, _) => {
            out.push_str("raise ");
            term(e, out);
        }
        Term::Handle {
            body,
            exn,
            arg,
            handler,
        } => {
            term(body, out);
            let _ = write!(out, " handle {exn} {arg} => ");
            term(handler, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{ArrowEff, EffVar, RegVar};

    #[test]
    fn prints_arrow_with_effect() {
        let r = RegVar::fresh();
        let e = EffVar::fresh();
        let m = Mu::arrow(Mu::Int, ArrowEff::new(e, Default::default()), Mu::Unit, r);
        let s = mu_to_string(&m);
        assert!(s.contains("int"), "{s}");
        assert!(s.contains("unit"), "{s}");
        assert!(s.contains(&e.to_string()), "{s}");
        assert!(s.contains(&r.to_string()), "{s}");
    }

    #[test]
    fn prints_terms() {
        let r = RegVar::fresh();
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Pair(Box::new(Term::Int(1)), Box::new(Term::Int(2)), r),
        );
        let s = term_to_string(&e);
        assert!(s.starts_with("letregion"), "{s}");
        assert!(s.contains("at"), "{s}");
    }
}
