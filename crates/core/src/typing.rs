//! The typing rules of Figure 4 as a syntax-directed checker.
//!
//! Region inference (crate `rml-infer`) produces fully annotated terms;
//! this module *validates* them against the paper's rules, synthesising a
//! `π` and an effect `φ` for every term. Effect subsumption (\[TeSub\]) is
//! folded into the places the rules need it (a lambda's body effect must be
//! a subset of the annotated latent effect).
//!
//! The checker has three GC-safety modes, matching the benchmark
//! strategies of Section 5:
//!
//! * [`GcCheck::Full`] — the paper's `G` relation (strategy `rg`),
//! * [`GcCheck::NoTyVars`] — the pre-paper side condition that treats type
//!   variables as vacuously contained (strategy `rg-`; **unsound**, the
//!   checker exists to demonstrate exactly where it fails),
//! * [`GcCheck::Off`] — no dangling-pointer conditions (strategy `r`,
//!   pure region inference à la Tofte–Talpin).

use crate::error::CheckError;
use crate::gcsafe::check_g_with;
use crate::instantiate::check_instance_with;
use crate::terms::{Term, Value};
use crate::types::{delta_frev, wf_mu, wf_pi, BoxTy, Delta, Mu, Pi, Scheme};
use crate::vars::{Atom, Effect, RegVar};
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::BTreeMap;

/// A type environment `Γ`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeEnv {
    map: BTreeMap<Symbol, Pi>,
}

impl TypeEnv {
    /// Looks up a variable.
    pub fn lookup(&self, x: Symbol) -> Option<&Pi> {
        self.map.get(&x)
    }

    /// Binds a variable (shadowing any previous binding).
    pub fn insert(&mut self, x: Symbol, pi: Pi) {
        self.map.insert(x, pi);
    }

    /// Returns an extended copy.
    pub fn extended(&self, x: Symbol, pi: Pi) -> TypeEnv {
        let mut e = self.clone();
        e.insert(x, pi);
        e
    }

    /// Free region and effect variables of all bindings.
    pub fn frev(&self, out: &mut Effect) {
        for pi in self.map.values() {
            pi.frev(out);
        }
    }

    /// Free type variables of all bindings.
    pub fn ftv(&self, out: &mut std::collections::BTreeSet<crate::vars::TyVar>) {
        for pi in self.map.values() {
            pi.ftv(out);
        }
    }

    /// Iterates over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Pi)> {
        self.map.iter()
    }
}

/// Which dangling-pointer side conditions to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcCheck {
    /// The paper's `G` relation (sound; strategy `rg`).
    #[default]
    Full,
    /// Pre-paper conditions ignoring type variables (unsound; `rg-`).
    NoTyVars,
    /// No conditions (pure region typing; strategy `r`).
    Off,
}

/// The Figure 4 checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    /// Exception constructors in scope, with their argument types.
    pub exns: BTreeMap<Symbol, Option<Mu>>,
    /// Which GC-safety conditions to enforce.
    pub gc: GcCheck,
    /// Store typing for reference cells (content type per location), used
    /// when checking run-time configurations in preservation tests.
    pub store: Vec<Mu>,
}

type CResult<T> = Result<T, CheckError>;

impl Checker {
    /// Checks a closed term in an empty type variable context.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule violation encountered.
    pub fn check(&self, gamma: &TypeEnv, e: &Term) -> CResult<(Pi, Effect)> {
        self.check_in(&Delta::new(), gamma, e)
    }

    /// Checks `Ω, Γ ⊢ e : π, φ`.
    pub fn check_in(&self, omega: &Delta, gamma: &TypeEnv, e: &Term) -> CResult<(Pi, Effect)> {
        match e {
            Term::Var(x) => match gamma.lookup(*x) {
                Some(pi) => Ok((pi.clone(), Effect::new())),
                None => Err(format!("unbound variable `{x}`").into()),
            },
            Term::Unit => Ok((Pi::Mu(Mu::Unit), Effect::new())),
            Term::Int(_) => Ok((Pi::Mu(Mu::Int), Effect::new())),
            Term::Bool(_) => Ok((Pi::Mu(Mu::Bool), Effect::new())),
            Term::Nil(mu) => {
                if !matches!(mu, Mu::Boxed(b, _) if matches!(&**b, BoxTy::List(_))) {
                    return Err("nil annotated with a non-list type".into());
                }
                Ok((Pi::Mu(mu.clone()), Effect::new()))
            }
            Term::Str(_, rho) => Ok((
                Pi::Mu(Mu::string(*rho)),
                crate::vars::effect([Atom::Reg(*rho)]),
            )),
            Term::Val(v) => Ok((self.check_value(v)?, Effect::new())),
            Term::Lam {
                param,
                ann,
                body,
                at,
            } => {
                let Some((mu1, ae, mu2, rho)) = ann.as_arrow() else {
                    return Err("lambda annotation is not an arrow type".into());
                };
                if rho != *at {
                    return Err("lambda annotation place differs from `at` region".into());
                }
                if !wf_mu(omega, ann) {
                    return Err("lambda type not well-formed in Ω".into());
                }
                let g2 = gamma.extended(*param, Pi::Mu(mu1.clone()));
                let (pb, phib) = self.check_in(omega, &g2, body)?;
                let got = pb.as_mu().ok_or("lambda body has a scheme type")?;
                if got != mu2 {
                    return Err(format!(
                        "lambda body type mismatch:\n  annotated: {mu2:?}\n  computed:  {got:?}"
                    )
                    .into());
                }
                let mut denoted = ae.latent.clone();
                denoted.insert(Atom::Eff(ae.handle));
                if !phib.is_subset(&denoted) {
                    let missing: Vec<_> = phib.difference(&denoted).collect();
                    return Err(format!(
                        "lambda body effect not included in latent effect; missing {missing:?}"
                    )
                    .into());
                }
                self.gc_condition(omega, gamma, body, &[*param], &Pi::Mu(ann.clone()))
                    .map_err(|e| e.with_blame(*param))?;
                Ok((Pi::Mu(ann.clone()), crate::vars::effect([Atom::Reg(*at)])))
            }
            Term::Fix { defs, ats, index } => {
                if defs.len() != ats.len() || *index >= defs.len() {
                    return Err("malformed fun group".into());
                }
                // Environment for the bodies: every sibling bound with its
                // ∀ρ⃗ε⃗ scheme *without* ∆ — type-monomorphic, region- and
                // effect-polymorphic recursion (rule [TeRec], extended to
                // groups).
                let mut g_rec = gamma.clone();
                for (d, at) in defs.iter().zip(ats.iter()) {
                    let f_scheme = Scheme {
                        rvars: d.scheme.rvars.clone(),
                        evars: d.scheme.evars.clone(),
                        delta: Vec::new(),
                        body: d.scheme.body.clone(),
                    };
                    g_rec.insert(d.f, Pi::Scheme(f_scheme, *at));
                }
                // Ω for the bodies includes every member's ∆ (type
                // variables are shared across a group under monomorphic
                // type recursion).
                let mut omega2 = omega.clone();
                for d in defs.iter() {
                    omega2.extend(d.scheme.delta.iter().cloned());
                }
                let group_names: Vec<Symbol> = defs.iter().map(|d| d.f).collect();
                // The ∆-disjointness condition belongs to the recursive
                // rule [TvRec]; the non-recursive rule [TvFun] permits
                // quantified effect variables in ∆ ("parameterisation of
                // effects associated with quantified type variables").
                let recursive = defs.iter().any(|d| {
                    let fv = d.body.fpv();
                    group_names.iter().any(|n| fv.contains(n))
                });
                let mut outer_tvs = std::collections::BTreeSet::new();
                gamma.ftv(&mut outer_tvs);
                for a in omega.keys() {
                    outer_tvs.insert(*a);
                }
                for (d, at) in defs.iter().zip(ats.iter()) {
                    let scheme = &d.scheme;
                    let pi = Pi::Scheme(scheme.clone(), *at);
                    let BoxTy::Arrow(mu1, ae, mu2) = &scheme.body else {
                        return Err("fun scheme body is not an arrow".into());
                    };
                    if !wf_pi(omega, &pi) {
                        return Err(format!("fun `{}` scheme not well-formed in Ω", d.f).into());
                    }
                    // Side conditions.
                    let bound: Effect = scheme
                        .rvars
                        .iter()
                        .map(|r| Atom::Reg(*r))
                        .chain(scheme.evars.iter().map(|e| Atom::Eff(*e)))
                        .collect();
                    if recursive {
                        let mut dfr = Effect::new();
                        delta_frev(&scheme.delta_map(), &mut dfr);
                        if bound.intersection(&dfr).next().is_some() {
                            return Err("recursive fun: quantified ρ⃗ε⃗ intersect frev(∆)".into());
                        }
                    }
                    let mut outer = Effect::new();
                    delta_frev(omega, &mut outer);
                    gamma.frev(&mut outer);
                    outer.insert(Atom::Reg(*at));
                    if bound.intersection(&outer).next().is_some() {
                        return Err(format!(
                            "fun `{}`: quantified variables occur free in Ω, Γ, or ρ",
                            d.f
                        )
                        .into());
                    }
                    if scheme.delta.iter().any(|(a, _)| outer_tvs.contains(a)) {
                        return Err("fun: dom(∆) occurs free in Ω or Γ".into());
                    }
                    let g2 = g_rec.extended(d.param, Pi::Mu(mu1.clone()));
                    let (pb, phib) = self.check_in(&omega2, &g2, &d.body)?;
                    let got = pb.as_mu().ok_or("fun body has a scheme type")?;
                    if got != mu2 {
                        return Err(format!(
                            "fun `{}` body type mismatch:\n  annotated: {mu2:?}\n  computed:  {got:?}",
                            d.f
                        ).into());
                    }
                    // The arrow effect ε.φ denotes {ε} ∪ φ: recursive calls
                    // put the handle itself into the body effect.
                    let mut denoted = ae.latent.clone();
                    denoted.insert(Atom::Eff(ae.handle));
                    if !phib.is_subset(&denoted) {
                        let missing: Vec<_> = phib.difference(&denoted).collect();
                        return Err(format!(
                            "fun `{}` body effect not included in latent effect; missing {missing:?}",
                            d.f
                        ).into());
                    }
                    let mut xs = group_names.clone();
                    xs.push(d.param);
                    self.gc_condition(omega, gamma, &d.body, &xs, &pi)
                        .map_err(|e| e.with_blame(d.f))?;
                }
                let pi = Pi::Scheme(defs[*index].scheme.clone(), ats[*index]);
                let eff: Effect = ats.iter().map(|r| Atom::Reg(*r)).collect();
                Ok((pi, eff))
            }
            Term::App(e1, e2) => {
                let (p1, phi1) = self.check_in(omega, gamma, e1)?;
                let m1 = p1
                    .as_mu()
                    .ok_or("applying a region-polymorphic function without region application")?;
                let Some((mu_arg, ae, mu_res, rho)) = m1.as_arrow() else {
                    return Err("application of a non-function".into());
                };
                let (p2, phi2) = self.check_in(omega, gamma, e2)?;
                let m2 = p2.as_mu().ok_or("argument has a scheme type")?;
                if m2 != mu_arg {
                    return Err(format!(
                        "argument type mismatch:\n  expected: {mu_arg:?}\n  got:      {m2:?}"
                    )
                    .into());
                }
                let mut phi = ae.latent.clone();
                phi.extend(phi1);
                phi.extend(phi2);
                phi.insert(Atom::Eff(ae.handle));
                phi.insert(Atom::Reg(rho));
                Ok((Pi::Mu(mu_res.clone()), phi))
            }
            Term::RApp { f, inst, at } => {
                let (pf, phi) = self.check_in(omega, gamma, f)?;
                let Pi::Scheme(scheme, rho2) = &pf else {
                    return Err("region application of a non-polymorphic value".into());
                };
                let vac = !matches!(self.gc, GcCheck::Full);
                let tau = check_instance_with(omega, scheme, inst, None, vac)?;
                let mut phi = phi;
                phi.insert(Atom::Reg(*at));
                phi.insert(Atom::Reg(*rho2));
                Ok((Pi::Mu(Mu::Boxed(Box::new(tau), *at)), phi))
            }
            Term::Let { x, rhs, body } => {
                let (p1, phi1) = self.check_in(omega, gamma, rhs)?;
                let g2 = gamma.extended(*x, p1);
                let (p2, phi2) = self.check_in(omega, &g2, body)?;
                let mut phi = phi1;
                phi.extend(phi2);
                Ok((p2, phi))
            }
            Term::Letregion { rvars, evars, body } => {
                let (p, phi) = self.check_in(omega, gamma, body)?;
                let mu = p.as_mu().ok_or("letregion body has a scheme type")?;
                let mut outer = Effect::new();
                delta_frev(omega, &mut outer);
                gamma.frev(&mut outer);
                mu.frev(&mut outer);
                for r in rvars {
                    if outer.contains(&Atom::Reg(*r)) {
                        return Err(format!(
                            "letregion-bound {r} occurs free in Ω, Γ, or the result type"
                        )
                        .into());
                    }
                }
                for ev in evars {
                    if outer.contains(&Atom::Eff(*ev)) {
                        return Err(format!(
                            "letregion-discharged {ev} occurs free in Ω, Γ, or the result type"
                        )
                        .into());
                    }
                }
                let mut phi2 = phi;
                for r in rvars {
                    phi2.remove(&Atom::Reg(*r));
                }
                for ev in evars {
                    phi2.remove(&Atom::Eff(*ev));
                }
                Ok((p, phi2))
            }
            Term::Pair(e1, e2, rho) => {
                let (p1, phi1) = self.check_in(omega, gamma, e1)?;
                let (p2, phi2) = self.check_in(omega, gamma, e2)?;
                let m1 = p1.as_mu().ok_or("pair component has a scheme type")?;
                let m2 = p2.as_mu().ok_or("pair component has a scheme type")?;
                let mut phi = phi1;
                phi.extend(phi2);
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(Mu::pair(m1.clone(), m2.clone(), *rho)), phi))
            }
            Term::Sel(i, e) => {
                let (p, phi) = self.check_in(omega, gamma, e)?;
                let m = p.as_mu().ok_or("projection of a scheme")?;
                let Mu::Boxed(b, rho) = m else {
                    return Err("projection of a non-pair".into());
                };
                let BoxTy::Pair(m1, m2) = &**b else {
                    return Err("projection of a non-pair".into());
                };
                let mut phi = phi;
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(if *i == 1 { m1.clone() } else { m2.clone() }), phi))
            }
            Term::If(c, t, f) => {
                let (pc, phic) = self.check_in(omega, gamma, c)?;
                if pc.as_mu() != Some(&Mu::Bool) {
                    return Err("if condition is not bool".into());
                }
                let (pt, phit) = self.check_in(omega, gamma, t)?;
                let (pf, phif) = self.check_in(omega, gamma, f)?;
                if pt != pf {
                    return Err(format!(
                        "if branches have different types:\n  then: {pt:?}\n  else: {pf:?}"
                    )
                    .into());
                }
                let mut phi = phic;
                phi.extend(phit);
                phi.extend(phif);
                Ok((pt, phi))
            }
            Term::Prim(op, args, res_rho) => self.check_prim(omega, gamma, *op, args, *res_rho),
            Term::Cons(h, t, rho) => {
                let (ph, phih) = self.check_in(omega, gamma, h)?;
                let (pt, phit) = self.check_in(omega, gamma, t)?;
                let mh = ph.as_mu().ok_or("cons head has a scheme type")?;
                let mt = pt.as_mu().ok_or("cons tail has a scheme type")?;
                let want = Mu::list(mh.clone(), *rho);
                if *mt != want {
                    return Err(format!(
                        "cons tail type mismatch (list spines share one region):\n  expected: {want:?}\n  got:      {mt:?}"
                    ).into());
                }
                let mut phi = phih;
                phi.extend(phit);
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(want), phi))
            }
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let (ps, phis) = self.check_in(omega, gamma, scrut)?;
                let ms = ps.as_mu().ok_or("case scrutinee has a scheme type")?;
                let Mu::Boxed(b, rho) = ms else {
                    return Err("case scrutinee is not a list".into());
                };
                let BoxTy::List(elem) = &**b else {
                    return Err("case scrutinee is not a list".into());
                };
                let (pn, phin) = self.check_in(omega, gamma, nil_rhs)?;
                let mut g2 = gamma.extended(*head, Pi::Mu(elem.clone()));
                g2.insert(*tail, Pi::Mu(ms.clone()));
                let (pc, phic) = self.check_in(omega, &g2, cons_rhs)?;
                if pn != pc {
                    return Err("case branches have different types".into());
                }
                let mut phi = phis;
                phi.insert(Atom::Reg(*rho));
                phi.extend(phin);
                phi.extend(phic);
                Ok((pn, phi))
            }
            Term::RefNew(e, rho) => {
                let (p, phi) = self.check_in(omega, gamma, e)?;
                let m = p.as_mu().ok_or("ref content has a scheme type")?;
                let mut phi = phi;
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(Mu::reference(m.clone(), *rho)), phi))
            }
            Term::Deref(e) => {
                let (p, phi) = self.check_in(omega, gamma, e)?;
                let m = p.as_mu().ok_or("deref of a scheme")?;
                let Mu::Boxed(b, rho) = m else {
                    return Err("deref of a non-ref".into());
                };
                let BoxTy::Ref(inner) = &**b else {
                    return Err("deref of a non-ref".into());
                };
                let mut phi = phi;
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(inner.clone()), phi))
            }
            Term::Assign(r, v) => {
                let (pr, phir) = self.check_in(omega, gamma, r)?;
                let (pv, phiv) = self.check_in(omega, gamma, v)?;
                let mr = pr.as_mu().ok_or("assign target has a scheme type")?;
                let Mu::Boxed(b, rho) = mr else {
                    return Err("assignment to a non-ref".into());
                };
                let BoxTy::Ref(inner) = &**b else {
                    return Err("assignment to a non-ref".into());
                };
                if pv.as_mu() != Some(inner) {
                    return Err("assigned value type mismatch".into());
                }
                let mut phi = phir;
                phi.extend(phiv);
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(Mu::Unit), phi))
            }
            Term::Exn { name, arg, at } => {
                let Some(want) = self.exns.get(name) else {
                    return Err(format!("unknown exception constructor `{name}`").into());
                };
                let mut phi = Effect::new();
                match (arg, want) {
                    (None, None) => {}
                    (Some(a), Some(w)) => {
                        let (pa, phia) = self.check_in(omega, gamma, a)?;
                        if pa.as_mu() != Some(w) {
                            return Err(format!("exception `{name}` argument type mismatch").into());
                        }
                        phi.extend(phia);
                    }
                    _ => return Err(format!("exception `{name}` arity mismatch").into()),
                }
                phi.insert(Atom::Reg(*at));
                Ok((Pi::Mu(Mu::exn(*at)), phi))
            }
            Term::Raise(e, ann) => {
                let (p, phi) = self.check_in(omega, gamma, e)?;
                let m = p.as_mu().ok_or("raise of a scheme")?;
                let Mu::Boxed(b, rho) = m else {
                    return Err("raise of a non-exception".into());
                };
                if !matches!(&**b, BoxTy::Exn) {
                    return Err("raise of a non-exception".into());
                }
                if !wf_mu(omega, ann) {
                    return Err("raise annotation not well-formed".into());
                }
                let mut phi = phi;
                phi.insert(Atom::Reg(*rho));
                Ok((Pi::Mu(ann.clone()), phi))
            }
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let Some(want) = self.exns.get(exn) else {
                    return Err(format!("unknown exception constructor `{exn}`").into());
                };
                let (pb, phib) = self.check_in(omega, gamma, body)?;
                let arg_mu = want.clone().unwrap_or(Mu::Unit);
                let g2 = gamma.extended(*arg, Pi::Mu(arg_mu));
                let (ph, phih) = self.check_in(omega, &g2, handler)?;
                if pb != ph {
                    return Err("handler result type differs from body".into());
                }
                let mut phi = phib;
                phi.extend(phih);
                Ok((pb, phi))
            }
        }
    }

    fn gc_condition(
        &self,
        omega: &Delta,
        gamma: &TypeEnv,
        body: &Term,
        xs: &[Symbol],
        pi: &Pi,
    ) -> CResult<()> {
        match self.gc {
            GcCheck::Off => Ok(()),
            GcCheck::Full => check_g_with(omega, gamma, body, xs, pi, false),
            GcCheck::NoTyVars => check_g_with(omega, gamma, body, xs, pi, true),
        }
    }

    fn check_prim(
        &self,
        omega: &Delta,
        gamma: &TypeEnv,
        op: PrimOp,
        args: &[Term],
        res_rho: Option<RegVar>,
    ) -> CResult<(Pi, Effect)> {
        let mut phis = Effect::new();
        let mut mus = Vec::new();
        for a in args {
            let (p, phi) = self.check_in(omega, gamma, a)?;
            let m = p.as_mu().ok_or("prim argument has a scheme type")?.clone();
            phis.extend(phi);
            mus.push(m);
        }
        let str_place = |m: &Mu| -> CResult<RegVar> {
            match m {
                Mu::Boxed(b, r) if matches!(&**b, BoxTy::Str) => Ok(*r),
                _ => Err(format!("`{op}` expects a string argument").into()),
            }
        };
        use PrimOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                if mus != [Mu::Int, Mu::Int] {
                    return Err(format!("`{op}` expects two ints").into());
                }
                Ok((Pi::Mu(Mu::Int), phis))
            }
            Neg => {
                if mus != [Mu::Int] {
                    return Err("`~` expects an int".into());
                }
                Ok((Pi::Mu(Mu::Int), phis))
            }
            Lt | Le | Gt | Ge => {
                if mus != [Mu::Int, Mu::Int] {
                    return Err(format!("`{op}` expects two ints").into());
                }
                Ok((Pi::Mu(Mu::Bool), phis))
            }
            Eq | Ne => {
                if mus.len() != 2 || mus[0] != mus[1] {
                    return Err("equality operands have different types".into());
                }
                // Equality reads both operands.
                let mut phi = phis;
                mus[0].frev(&mut phi);
                Ok((Pi::Mu(Mu::Bool), phi))
            }
            Not => {
                if mus != [Mu::Bool] {
                    return Err("`not` expects a bool".into());
                }
                Ok((Pi::Mu(Mu::Bool), phis))
            }
            Concat => {
                let r1 = str_place(&mus[0])?;
                let r2 = str_place(&mus[1])?;
                let out = res_rho.ok_or("`^` needs a result region")?;
                let mut phi = phis;
                phi.insert(Atom::Reg(r1));
                phi.insert(Atom::Reg(r2));
                phi.insert(Atom::Reg(out));
                Ok((Pi::Mu(Mu::string(out)), phi))
            }
            Size => {
                let r = str_place(&mus[0])?;
                let mut phi = phis;
                phi.insert(Atom::Reg(r));
                Ok((Pi::Mu(Mu::Int), phi))
            }
            Itos => {
                if mus != [Mu::Int] {
                    return Err("`itos` expects an int".into());
                }
                let out = res_rho.ok_or("`itos` needs a result region")?;
                let mut phi = phis;
                phi.insert(Atom::Reg(out));
                Ok((Pi::Mu(Mu::string(out)), phi))
            }
            Print => {
                let r = str_place(&mus[0])?;
                let mut phi = phis;
                phi.insert(Atom::Reg(r));
                Ok((Pi::Mu(Mu::Unit), phi))
            }
            ForceGc => {
                if mus != [Mu::Unit] {
                    return Err("`forcegc` expects unit".into());
                }
                Ok((Pi::Mu(Mu::Unit), phis))
            }
        }
    }

    /// Checks a value: `⊢ v : π` (values are closed).
    pub fn check_value(&self, v: &Value) -> CResult<Pi> {
        match v {
            Value::Int(_) => Ok(Pi::Mu(Mu::Int)),
            Value::Bool(_) => Ok(Pi::Mu(Mu::Bool)),
            Value::Unit => Ok(Pi::Mu(Mu::Unit)),
            Value::NilV(mu) => {
                if !matches!(mu, Mu::Boxed(b, _) if matches!(&**b, BoxTy::List(_))) {
                    return Err("nil value annotated with non-list type".into());
                }
                Ok(Pi::Mu(mu.clone()))
            }
            Value::Str(_, r) => Ok(Pi::Mu(Mu::string(*r))),
            Value::Pair(a, b, r) => {
                let ma = self
                    .check_value(a)?
                    .as_mu()
                    .ok_or("pair of schemes")?
                    .clone();
                let mb = self
                    .check_value(b)?
                    .as_mu()
                    .ok_or("pair of schemes")?
                    .clone();
                Ok(Pi::Mu(Mu::pair(ma, mb, *r)))
            }
            Value::Cons(h, t, r) => {
                let mh = self
                    .check_value(h)?
                    .as_mu()
                    .ok_or("cons of schemes")?
                    .clone();
                let mt = self
                    .check_value(t)?
                    .as_mu()
                    .ok_or("cons of schemes")?
                    .clone();
                let want = Mu::list(mh, *r);
                if mt != want {
                    return Err("cons value tail type mismatch".into());
                }
                Ok(Pi::Mu(want))
            }
            Value::Clos {
                param,
                ann,
                body,
                at,
            } => {
                // [TvLam]: {}, {x : µ1} ⊢ e : µ2, φ; frv(µ) |=v e.
                let lam = Term::Lam {
                    param: *param,
                    ann: ann.clone(),
                    body: body.clone(),
                    at: *at,
                };
                let (pi, _) = self.check_in(&Delta::new(), &TypeEnv::default(), &lam)?;
                let frv: crate::gcsafe::Regions = pi.frv().into_iter().collect();
                if !crate::gcsafe::expr_contained(&frv, body) {
                    return Err(
                        "closure body values not contained in frv(µ) — dangling pointer".into(),
                    );
                }
                Ok(pi)
            }
            Value::FixClos { defs, ats, index } => {
                let fix = Term::Fix {
                    defs: defs.clone(),
                    ats: ats.clone(),
                    index: *index,
                };
                let (pi, _) = self.check_in(&Delta::new(), &TypeEnv::default(), &fix)?;
                let frv: crate::gcsafe::Regions = pi.frv().into_iter().collect();
                for d in defs.iter() {
                    if !crate::gcsafe::expr_contained(&frv, &d.body) {
                        return Err("fun closure body values not contained in frv(π)".into());
                    }
                }
                Ok(pi)
            }
            Value::RefLoc(i, r) => match self.store.get(*i) {
                Some(mu) => Ok(Pi::Mu(Mu::reference(mu.clone(), *r))),
                None => Err(format!("dangling store location {i}").into()),
            },
            Value::ExnVal { name, arg, at, .. } => {
                let Some(want) = self.exns.get(name) else {
                    return Err(format!("unknown exception constructor `{name}`").into());
                };
                match (arg, want) {
                    (None, None) => {}
                    (Some(a), Some(w)) => {
                        let pa = self.check_value(a)?;
                        if pa.as_mu() != Some(w) {
                            return Err("exception value argument type mismatch".into());
                        }
                    }
                    _ => return Err("exception value arity mismatch".into()),
                }
                Ok(Pi::Mu(Mu::exn(*at)))
            }
        }
    }
}
