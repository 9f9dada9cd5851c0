//! Rule-by-rule tests for the Figure 4 checker: every typing rule has a
//! positive case and at least one violated side condition.

use rml_core::terms::{FixDef, Term, Value};
use rml_core::types::{BoxTy, Mu, Pi, Scheme};
use rml_core::typing::{Checker, GcCheck, TypeEnv};
use rml_core::vars::{effect, ArrowEff, Atom, EffVar, Effect, RegVar};
use rml_core::Subst;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::rc::Rc;

fn checker() -> Checker {
    Checker::default()
}

fn check(e: &Term) -> Result<(Pi, Effect), rml_core::CheckError> {
    checker().check(&TypeEnv::default(), e)
}

// ---------------------------------------------------------------- values

#[test]
fn literals_type() {
    assert_eq!(check(&Term::Int(3)).unwrap().0.as_mu(), Some(&Mu::Int));
    assert_eq!(check(&Term::Bool(true)).unwrap().0.as_mu(), Some(&Mu::Bool));
    assert_eq!(check(&Term::Unit).unwrap().0.as_mu(), Some(&Mu::Unit));
}

#[test]
fn string_has_place_and_put_effect() {
    let r = RegVar::fresh();
    let (pi, phi) = check(&Term::Str("s".into(), r)).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::string(r)));
    assert!(phi.contains(&Atom::Reg(r)));
}

#[test]
fn unbound_variable_rejected() {
    assert!(check(&Term::var("nope")).unwrap_err().contains("unbound"));
}

// ---------------------------------------------------------------- TeLam

fn id_lam(rho: RegVar, eps: EffVar) -> Term {
    let mu = Mu::arrow(Mu::Int, ArrowEff::new(eps, Effect::new()), Mu::Int, rho);
    Term::lam("x", mu, Term::var("x"), rho)
}

#[test]
fn telam_accepts_identity() {
    let rho = RegVar::fresh();
    let (pi, phi) = check(&id_lam(rho, EffVar::fresh())).unwrap();
    assert!(pi.as_mu().unwrap().as_arrow().is_some());
    assert_eq!(phi, effect([Atom::Reg(rho)]));
}

#[test]
fn telam_rejects_wrong_body_type() {
    let rho = RegVar::fresh();
    let mu = Mu::arrow(Mu::Int, ArrowEff::fresh_empty(), Mu::Bool, rho);
    let e = Term::lam("x", mu, Term::var("x"), rho);
    assert!(check(&e).unwrap_err().contains("body type mismatch"));
}

#[test]
fn telam_rejects_effect_escaping_latent() {
    // Body allocates in ρ2 but the latent effect is empty.
    let rho = RegVar::fresh();
    let rho2 = RegVar::fresh();
    let mu = Mu::arrow(
        Mu::Int,
        ArrowEff::fresh_empty(),
        Mu::pair(Mu::Int, Mu::Int, rho2),
        rho,
    );
    let body = Term::Pair(Box::new(Term::var("x")), Box::new(Term::var("x")), rho2);
    let e = Term::letregion(
        vec![rho, rho2],
        vec![],
        Term::app(Term::lam("x", mu, body, rho), Term::Int(1)),
    );
    assert!(check(&e)
        .unwrap_err()
        .contains("not included in latent effect"));
}

#[test]
fn telam_rejects_place_mismatch() {
    let rho = RegVar::fresh();
    let other = RegVar::fresh();
    let mu = Mu::arrow(Mu::Int, ArrowEff::fresh_empty(), Mu::Int, other);
    let e = Term::lam("x", mu, Term::var("x"), rho);
    assert!(check(&e).unwrap_err().contains("place"));
}

// ------------------------------------------------------------ G relation

/// A lambda capturing a string it never touches (so nothing forces the
/// region into its effect or type): full G rejects, Off accepts — this is
/// the dead-capture pattern of Figure 1 in miniature.
#[test]
fn g_modes_differ_on_dangling_capture() {
    let rho = RegVar::fresh();
    let rs = RegVar::fresh();
    let mu = Mu::arrow(Mu::Unit, ArrowEff::fresh_empty(), Mu::Int, rho);
    let lam = Term::lam("u", mu, Term::let_("_", Term::var("s"), Term::Int(0)), rho);
    let e = Term::let_("s", Term::Str("x".into(), rs), lam);
    let wrapped = Term::letregion(vec![rho, rs], vec![], Term::let_("_", e, Term::Int(0)));
    let full = Checker {
        gc: GcCheck::Full,
        ..checker()
    };
    assert!(full
        .check(&TypeEnv::default(), &wrapped)
        .unwrap_err()
        .contains("captured variable"));
    let off = Checker {
        gc: GcCheck::Off,
        ..checker()
    };
    off.check(&TypeEnv::default(), &wrapped).unwrap();
}

// ---------------------------------------------------------------- TeApp

#[test]
fn teapp_effect_includes_latent_handle_and_place() {
    let rho = RegVar::fresh();
    let eps = EffVar::fresh();
    let e = Term::app(id_lam(rho, eps), Term::Int(1));
    let (pi, phi) = check(&e).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::Int));
    assert!(phi.contains(&Atom::Eff(eps)));
    assert!(phi.contains(&Atom::Reg(rho)));
}

#[test]
fn teapp_rejects_argument_mismatch() {
    let rho = RegVar::fresh();
    let e = Term::app(id_lam(rho, EffVar::fresh()), Term::Bool(true));
    assert!(check(&e).unwrap_err().contains("argument type mismatch"));
}

#[test]
fn teapp_rejects_nonfunction() {
    let e = Term::app(Term::Int(1), Term::Int(2));
    assert!(check(&e).unwrap_err().contains("non-function"));
}

// ---------------------------------------------------------------- TeReg

#[test]
fn tereg_discharges_bound_effects() {
    let rho = RegVar::fresh();
    let e = Term::letregion(
        vec![rho],
        vec![],
        Term::Sel(
            1,
            Box::new(Term::Pair(
                Box::new(Term::Int(1)),
                Box::new(Term::Int(2)),
                rho,
            )),
        ),
    );
    let (_, phi) = check(&e).unwrap();
    assert!(phi.is_empty());
}

#[test]
fn tereg_rejects_escaping_region() {
    // The pair escapes; ρ is free in the result type.
    let rho = RegVar::fresh();
    let e = Term::letregion(
        vec![rho],
        vec![],
        Term::Pair(Box::new(Term::Int(1)), Box::new(Term::Int(2)), rho),
    );
    assert!(check(&e).unwrap_err().contains("occurs free"));
}

#[test]
fn tereg_rejects_region_free_in_env() {
    // letregion ρ where ρ is the region of an outer binding.
    let rho = RegVar::fresh();
    let e = Term::let_(
        "s",
        Term::Str("a".into(), rho),
        Term::letregion(
            vec![rho],
            vec![],
            Term::Prim(PrimOp::Size, vec![Term::var("s")], None),
        ),
    );
    let wrapped = Term::letregion(vec![rho], vec![], e);
    assert!(check(&wrapped).is_err());
}

#[test]
fn tereg_ignores_a_shadowed_binding() {
    // `s` is rebound to an int, so ρ of the first `s` is no longer free
    // in Γ and the inner letregion may bind it.
    let rho = RegVar::fresh();
    let e = Term::let_(
        "s",
        Term::Str("a".into(), rho),
        Term::let_(
            "s",
            Term::Int(1),
            Term::letregion(vec![rho], vec![], Term::var("s")),
        ),
    );
    check(&Term::letregion(vec![rho], vec![], e)).unwrap();
}

#[test]
fn type_env_counts_only_visible_bindings() {
    let x = Symbol::intern("x");
    let (r1, r2) = (RegVar::fresh(), RegVar::fresh());
    let outer = Pi::Mu(Mu::string(r1));
    let inner = Pi::Mu(Mu::string(r2));
    let mut env = TypeEnv::default();
    env.insert(x, outer.clone());
    env.with_bindings([(x, inner.clone())], |env| {
        assert_eq!(env.lookup(x), Some(&inner));
        assert!(!env.mentions(Atom::Reg(r1)));
        assert!(env.mentions(Atom::Reg(r2)));
    });
    assert_eq!(env.lookup(x), Some(&outer));
    assert!(env.mentions(Atom::Reg(r1)));
    assert!(!env.mentions(Atom::Reg(r2)));
}

// ------------------------------------------------------- pairs and lists

#[test]
fn pair_and_sel_effects() {
    let rho = RegVar::fresh();
    let e = Term::Sel(
        2,
        Box::new(Term::Pair(
            Box::new(Term::Int(1)),
            Box::new(Term::Bool(true)),
            rho,
        )),
    );
    let (pi, phi) = check(&Term::letregion(vec![rho], vec![], e)).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::Bool));
    assert!(phi.is_empty());
}

#[test]
fn cons_requires_shared_spine_region() {
    let r1 = RegVar::fresh();
    let r2 = RegVar::fresh();
    let nil = Term::Nil(Mu::list(Mu::Int, r1));
    let bad = Term::Cons(Box::new(Term::Int(1)), Box::new(nil), r2);
    let e = Term::letregion(vec![r1, r2], vec![], Term::let_("_", bad, Term::Int(0)));
    assert!(check(&e).unwrap_err().contains("spine"));
}

#[test]
fn case_branches_must_agree() {
    let r = RegVar::fresh();
    let nil = Term::Nil(Mu::list(Mu::Int, r));
    let e = Term::CaseList {
        scrut: Box::new(nil),
        nil_rhs: Box::new(Term::Int(0)),
        head: Symbol::intern("h"),
        tail: Symbol::intern("t"),
        cons_rhs: Box::new(Term::Bool(true)),
    };
    assert!(check(&Term::letregion(vec![r], vec![], e))
        .unwrap_err()
        .contains("different types"));
}

// ---------------------------------------------------------------- TeFun

fn int_id_scheme(eps: EffVar) -> Scheme {
    Scheme {
        rvars: vec![],
        evars: vec![eps],
        delta: vec![],
        body: BoxTy::Arrow(Mu::Int, ArrowEff::new(eps, Effect::new()), Mu::Int),
    }
}

fn fix1(name: &str, scheme: Scheme, body: Term, at: RegVar) -> Term {
    Term::Fix {
        defs: Rc::new(vec![FixDef {
            f: Symbol::intern(name),
            scheme,
            param: Symbol::intern("n"),
            body,
        }]),
        ats: Rc::new(vec![at]),
        index: 0,
    }
}

#[test]
fn tefun_accepts_and_rapp_instantiates() {
    let at = RegVar::fresh();
    let eps = EffVar::fresh();
    let fix = fix1("f", int_id_scheme(eps), Term::var("n"), at);
    let inst_eff = ArrowEff::fresh_empty();
    let discharged = inst_eff.handle;
    let inst = Subst::effects([(eps, inst_eff)]);
    let e = Term::letregion(
        vec![at],
        vec![discharged],
        Term::let_(
            "f",
            fix,
            Term::app(
                Term::RApp {
                    f: Box::new(Term::var("f")),
                    inst,
                    at,
                },
                Term::Int(5),
            ),
        ),
    );
    let (pi, phi) = check(&e).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::Int));
    assert!(phi.is_empty());
}

#[test]
fn tefun_rejects_quantified_var_free_in_env() {
    // Scheme quantifies ρq but ρq is the region of a captured string.
    let at = RegVar::fresh();
    let rq = RegVar::fresh();
    let eps = EffVar::fresh();
    let scheme = Scheme {
        rvars: vec![rq],
        evars: vec![eps],
        delta: vec![],
        body: BoxTy::Arrow(
            Mu::Int,
            ArrowEff::new(eps, effect([Atom::Reg(rq)])),
            Mu::Int,
        ),
    };
    let body = Term::Prim(PrimOp::Size, vec![Term::var("s")], None);
    let fix = fix1("f", scheme, body, at);
    let e = Term::letregion(
        vec![at, rq],
        vec![],
        Term::let_(
            "s",
            Term::Str("x".into(), rq),
            Term::let_("f", fix, Term::Int(0)),
        ),
    );
    assert!(check(&e)
        .unwrap_err()
        .contains("quantified variables occur free"));
}

#[test]
fn terapp_rejects_wrong_instantiation_domain() {
    let at = RegVar::fresh();
    let eps = EffVar::fresh();
    let fix = fix1("f", int_id_scheme(eps), Term::var("n"), at);
    // Missing the effect instantiation entirely.
    let e = Term::letregion(
        vec![at],
        vec![],
        Term::let_(
            "f",
            fix,
            Term::RApp {
                f: Box::new(Term::var("f")),
                inst: Subst::identity(),
                at,
            },
        ),
    );
    assert!(check(&e).unwrap_err().contains("domain mismatch"));
}

// ------------------------------------------------------------ exceptions

#[test]
fn exceptions_require_declared_constructors() {
    let r = RegVar::fresh();
    let e = Term::Exn {
        name: Symbol::intern("Nope"),
        arg: None,
        at: r,
    };
    assert!(check(&Term::letregion(
        vec![r],
        vec![],
        Term::let_("_", e, Term::Int(0))
    ))
    .unwrap_err()
    .contains("unknown exception"));
}

#[test]
fn handle_checks_and_unions_effects() {
    let r = RegVar::fresh();
    let exn = Symbol::intern("E");
    let mut ck = checker();
    ck.exns.insert(exn, Some(Mu::Int));
    let e = Term::letregion(
        vec![r],
        vec![],
        Term::Handle {
            body: Box::new(Term::Raise(
                Box::new(Term::Exn {
                    name: exn,
                    arg: Some(Box::new(Term::Int(1))),
                    at: r,
                }),
                Mu::Int,
            )),
            exn,
            arg: Symbol::intern("x"),
            handler: Box::new(Term::var("x")),
        },
    );
    let (pi, _) = ck.check(&TypeEnv::default(), &e).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::Int));
}

#[test]
fn raise_requires_exception_type() {
    let e = Term::Raise(Box::new(Term::Int(3)), Mu::Int);
    assert!(check(&e).unwrap_err().contains("non-exception"));
}

// -------------------------------------------------------------- values

#[test]
fn closure_values_type_via_tvlam() {
    let rho = RegVar::fresh();
    let mu = Mu::arrow(Mu::Int, ArrowEff::fresh_empty(), Mu::Int, rho);
    let v = Value::Clos {
        param: Symbol::intern("x"),
        ann: mu.clone(),
        body: Box::new(Term::var("x")),
        at: rho,
    };
    let pi = checker().check_value(&v).unwrap();
    assert_eq!(pi.as_mu(), Some(&mu));
}

#[test]
fn closure_value_with_dangling_payload_rejected() {
    // TvLam's frv(µ) |=v e condition: a value in a region outside frv(µ).
    let rho = RegVar::fresh();
    let dead = RegVar::fresh();
    let mu = Mu::arrow(Mu::Int, ArrowEff::fresh_empty(), Mu::Int, rho);
    let v = Value::Clos {
        param: Symbol::intern("x"),
        ann: mu,
        body: Box::new(Term::let_(
            "_",
            Term::Val(Value::Str("dead".into(), dead)),
            Term::var("x"),
        )),
        at: rho,
    };
    let err = checker().check_value(&v).unwrap_err();
    assert!(
        err.contains("not contained") || err.contains("dangling"),
        "{err}"
    );
}

#[test]
fn ref_values_need_store_typing() {
    let r = RegVar::fresh();
    let v = Value::RefLoc(0, r);
    assert!(checker().check_value(&v).is_err());
    let with_store = Checker {
        store: vec![Mu::Int],
        ..checker()
    };
    let pi = with_store.check_value(&v).unwrap();
    assert_eq!(pi.as_mu(), Some(&Mu::reference(Mu::Int, r)));
}

#[test]
fn prim_arity_and_types_enforced() {
    assert!(check(&Term::Prim(
        PrimOp::Add,
        vec![Term::Int(1), Term::Bool(true)],
        None
    ))
    .unwrap_err()
    .contains("two ints"));
    assert!(check(&Term::Prim(PrimOp::Not, vec![Term::Int(1)], None))
        .unwrap_err()
        .contains("bool"));
    let r = RegVar::fresh();
    assert!(check(&Term::letregion(
        vec![r],
        vec![],
        Term::Prim(
            PrimOp::Concat,
            vec![Term::Str("a".into(), r), Term::Str("b".into(), r)],
            None // missing result region
        )
    ))
    .unwrap_err()
    .contains("result region"));
}

#[test]
fn equality_reads_operand_regions() {
    let r = RegVar::fresh();
    let e = Term::Prim(
        PrimOp::Eq,
        vec![Term::Str("a".into(), r), Term::Str("a".into(), r)],
        None,
    );
    let (_, phi) = check(&Term::letregion(vec![r], vec![], e)).unwrap();
    assert!(phi.is_empty()); // discharged by the letregion
}
