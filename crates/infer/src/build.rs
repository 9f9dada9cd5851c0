//! Pass 2 of region inference: resolution and `letregion` placement.
//!
//! With all unification done, this pass resolves store nodes to core
//! region/effect variables, recomputes effects bottom-up exactly as the
//! Figure 4 checker does, and inserts `letregion` at scope boundaries
//! (let right-hand sides, whole lets, function bodies, conditional and
//! case branches, handler arms, and the program top): a region (or
//! secondary effect variable) is bound at the innermost scope where it is
//! no longer free in the environment, the result type, the enclosing
//! `fun`'s quantified variables, or the pinned globals.

use crate::constrain::{Constrain, InferError};
use crate::cterm::{CFun, CTerm, FunDef, InstData};
use crate::store::Store;
use rml_core::terms::{FixDef, Term};
use rml_core::types::{BoxTy, Mu, Pi, Scheme};
use rml_core::typing::TypeEnv;
use rml_core::vars::{Atom, Effect, RegVar};
use rml_core::Subst;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::BTreeMap;
use std::rc::Rc;

type BResult<T> = Result<T, InferError>;

fn err<T>(msg: impl Into<String>) -> BResult<T> {
    Err(InferError(msg.into()))
}

/// The pass-2 context.
pub struct Build<'a> {
    st: &'a mut Store,
    pinned: Effect,
    exns: BTreeMap<Symbol, Option<Mu>>,
    scheme_memo: BTreeMap<usize, (Scheme, RegVar)>,
    /// Quantified atoms of enclosing `fun` schemes (never bindable).
    quantified: Effect,
}

impl<'a> Build<'a> {
    /// Creates the pass-2 context from the finished pass 1.
    pub fn new(c: &'a mut Constrain) -> (Build<'a>, BTreeMap<Symbol, Option<Mu>>) {
        let mut exns = BTreeMap::new();
        let exn_list: Vec<(Symbol, Option<crate::rty::RTy>)> =
            c.exns.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (name, arg) in exn_list {
            let mu = arg.map(|rty| rty.resolve(&mut c.st));
            exns.insert(name, mu);
        }
        let mut pinned = Effect::new();
        let g_rho = c.st.core_rho(c.global_rho);
        let g_eps = c.st.core_eps(c.global_eps);
        pinned.insert(Atom::Reg(g_rho));
        pinned.insert(Atom::Eff(g_eps));
        pinned.extend(c.st.core_effect_of_eps(c.global_eps));
        let b = Build {
            st: &mut c.st,
            pinned,
            exns: exns.clone(),
            scheme_memo: BTreeMap::new(),
            quantified: Effect::new(),
        };
        (b, exns)
    }

    /// The core region of the global region.
    pub fn global_region(&mut self, c_global: crate::store::RhoId) -> RegVar {
        self.st.core_rho(c_global)
    }

    /// Resolves a `FunDef`'s scheme to a core scheme and place (memoised).
    fn core_scheme(&mut self, fd: &Rc<FunDef>) -> (Scheme, RegVar) {
        let key = Rc::as_ptr(fd) as usize;
        if let Some(s) = self.scheme_memo.get(&key) {
            return s.clone();
        }
        let info = fd
            .scheme
            .borrow()
            .clone()
            .expect("fun without generalised scheme in pass 2");
        let rvars: Vec<RegVar> = info.rvars.iter().map(|r| self.st.core_rho(*r)).collect();
        let evars: Vec<_> = info.evars.iter().map(|e| self.st.core_eps(*e)).collect();
        let delta: Vec<_> = info
            .delta
            .iter()
            .map(|(a, e, _)| (*a, self.st.core_arrow_eff(*e)))
            .collect();
        let body_mu = info.body.resolve(self.st);
        let (body, place) = match body_mu {
            Mu::Boxed(b, r) => (*b, r),
            _ => (BoxTy::Str, self.st.core_rho(fd.place)), // unreachable for funs
        };
        let scheme = Scheme {
            rvars,
            evars,
            delta,
            body,
        };
        let out = (scheme, place);
        self.scheme_memo.insert(key, out.clone());
        out
    }

    /// Wraps `term` in `letregion` for every region/secondary effect
    /// variable of `eff` that is not forbidden: pinned, quantified by an
    /// enclosing `fun`, free in `env` or free in `pi`.
    pub fn close(&mut self, env: &TypeEnv, pi: &Pi, term: Term, eff: Effect) -> (Term, Effect) {
        let mut in_pi = Effect::new();
        pi.frev(&mut in_pi);
        let mut rvars = Vec::new();
        let mut evars = Vec::new();
        for a in &eff {
            if self.pinned.contains(a)
                || self.quantified.contains(a)
                || in_pi.contains(a)
                || env.mentions(*a)
            {
                continue;
            }
            match a {
                Atom::Reg(r) => rvars.push(*r),
                Atom::Eff(e) => evars.push(*e),
            }
        }
        if rvars.is_empty() && evars.is_empty() {
            return (term, eff);
        }
        let mut out = eff;
        for r in &rvars {
            out.remove(&Atom::Reg(*r));
        }
        for e in &evars {
            out.remove(&Atom::Eff(*e));
        }
        (
            Term::Letregion {
                rvars,
                evars,
                body: Box::new(term),
            },
            out,
        )
    }

    /// Builds a scoped subterm (a `letregion` placement point).
    fn scoped(&mut self, env: &mut TypeEnv, c: &CTerm) -> BResult<(Term, Pi, Effect)> {
        let (t, pi, eff) = self.build(env, c)?;
        let (t, eff) = self.close(env, &pi, t, eff);
        Ok((t, pi, eff))
    }

    /// Builds a term, returning it with its `π` and effect (computed the
    /// same way the Figure 4 checker computes them).
    pub fn build(&mut self, env: &mut TypeEnv, c: &CTerm) -> BResult<(Term, Pi, Effect)> {
        match c {
            CTerm::Var(x) => match env.lookup(*x) {
                Some(pi) => Ok((Term::Var(*x), pi.clone(), Effect::new())),
                None => err(format!("pass 2: unbound variable `{x}`")),
            },
            CTerm::Unit => Ok((Term::Unit, Pi::Mu(Mu::Unit), Effect::new())),
            CTerm::Int(n) => Ok((Term::Int(*n), Pi::Mu(Mu::Int), Effect::new())),
            CTerm::Bool(b) => Ok((Term::Bool(*b), Pi::Mu(Mu::Bool), Effect::new())),
            CTerm::Str(s, rho) => {
                let r = self.st.core_rho(*rho);
                Ok((
                    Term::Str(s.clone(), r),
                    Pi::Mu(Mu::string(r)),
                    rml_core::vars::effect([Atom::Reg(r)]),
                ))
            }
            CTerm::Inst(InstData { fun, maps, at }) => {
                let (scheme, place) = self.core_scheme(fun);
                let at_core = self.st.core_rho(*at);
                let mut subst = Subst::default();
                match maps {
                    None => {
                        // Identity instantiation (recursive/sibling call).
                        for r in &scheme.rvars {
                            subst.reg.insert(*r, *r);
                        }
                        for e in &scheme.evars {
                            // ε ↦ ε.φ(ε): look the latent up from the
                            // scheme body by re-resolving the store node.
                            subst
                                .eff
                                .insert(*e, rml_core::vars::ArrowEff::new(*e, Effect::new()));
                        }
                        // Fix up the effect substitution to carry the real
                        // latent sets (ε ↦ ε.φ where φ is ε's latent in the
                        // scheme body).
                        let mut latents: BTreeMap<rml_core::vars::EffVar, Effect> = BTreeMap::new();
                        collect_latents(&scheme.body, &mut latents);
                        for (a, ae) in &scheme.delta {
                            let _ = a;
                            latents.entry(ae.handle).or_insert(ae.latent.clone());
                        }
                        for e in &scheme.evars {
                            let lat = latents.get(e).cloned().unwrap_or_default();
                            subst.eff.insert(*e, rml_core::vars::ArrowEff::new(*e, lat));
                        }
                    }
                    Some(m) => {
                        for (b, i) in &m.rmap {
                            let bc = self.st.core_rho(*b);
                            let ic = self.st.core_rho(*i);
                            subst.reg.insert(bc, ic);
                        }
                        for (b, i) in &m.emap {
                            let bc = self.st.core_eps(*b);
                            let iae = self.st.core_arrow_eff(*i);
                            subst.eff.insert(bc, iae);
                        }
                        for (a, rty, _) in &m.tmap {
                            let mu = rty.resolve(self.st);
                            subst.ty.insert(*a, mu);
                        }
                    }
                }
                let tau = subst.boxty(&scheme.body);
                let mu = Mu::Boxed(Box::new(tau), at_core);
                let eff = rml_core::vars::effect([Atom::Reg(at_core), Atom::Reg(place)]);
                Ok((
                    Term::RApp {
                        f: Box::new(Term::Var(fun.name)),
                        inst: subst,
                        at: at_core,
                    },
                    Pi::Mu(mu),
                    eff,
                ))
            }
            CTerm::Lam { param, arrow, body } => {
                let ann = arrow.resolve(self.st);
                let Some((mu1, ae, _mu2, rho)) = ann.as_arrow() else {
                    return err("pass 2: lambda annotation is not an arrow");
                };
                let (mu1, latent_handle) = (mu1.clone(), ae.handle);
                let _ = latent_handle;
                let (bt, _bpi, _beff) =
                    env.with_bindings([(*param, Pi::Mu(mu1))], |env| self.scoped(env, body))?;
                Ok((
                    Term::Lam {
                        param: *param,
                        ann: ann.clone(),
                        body: Box::new(bt),
                        at: rho,
                    },
                    Pi::Mu(ann),
                    rml_core::vars::effect([Atom::Reg(rho)]),
                ))
            }
            CTerm::App(f, a) => {
                let (ft, fpi, feff) = self.build(env, f)?;
                let (at, api, aeff) = self.build(env, a)?;
                let fmu = fpi
                    .as_mu()
                    .ok_or_else(|| InferError("pass 2: applying a scheme".into()))?;
                let Some((_, ae, res, rho)) = fmu.as_arrow() else {
                    return err("pass 2: applying a non-arrow");
                };
                let _ = &api;
                let mut eff = ae.latent.clone();
                eff.insert(Atom::Eff(ae.handle));
                eff.insert(Atom::Reg(rho));
                let res = res.clone();
                eff.extend(feff);
                eff.extend(aeff);
                Ok((Term::App(Box::new(ft), Box::new(at)), Pi::Mu(res), eff))
            }
            CTerm::LetFun { group, body } => self.build_letfun(env, group, body),
            CTerm::Let { x, rhs, body } => {
                let (rt, rpi, reff) = self.scoped(env, rhs)?;
                let (bt, bpi, beff) =
                    env.with_bindings([(*x, rpi)], |env| self.build(env, body))?;
                let mut eff = reff;
                eff.extend(beff);
                let term = Term::Let {
                    x: *x,
                    rhs: Box::new(rt),
                    body: Box::new(bt),
                };
                // Close the whole let with the *outer* environment: the
                // bound variable's regions may die here.
                let (term, eff) = self.close(env, &bpi, term, eff);
                Ok((term, bpi, eff))
            }
            CTerm::Pair(a, b, rho) => {
                let (at, apj, aeff) = self.build(env, a)?;
                let (bt, bpj, beff) = self.build(env, b)?;
                let r = self.st.core_rho(*rho);
                let ma = apj
                    .as_mu()
                    .ok_or_else(|| InferError("pair of scheme".into()))?
                    .clone();
                let mb = bpj
                    .as_mu()
                    .ok_or_else(|| InferError("pair of scheme".into()))?
                    .clone();
                let mut eff = aeff;
                eff.extend(beff);
                eff.insert(Atom::Reg(r));
                Ok((
                    Term::Pair(Box::new(at), Box::new(bt), r),
                    Pi::Mu(Mu::pair(ma, mb, r)),
                    eff,
                ))
            }
            CTerm::Sel(i, a) => {
                let (at, apj, mut eff) = self.build(env, a)?;
                let m = apj
                    .as_mu()
                    .ok_or_else(|| InferError("sel of scheme".into()))?;
                let Mu::Boxed(b, rho) = m else {
                    return err("pass 2: projection of non-pair");
                };
                let BoxTy::Pair(m1, m2) = &**b else {
                    return err("pass 2: projection of non-pair");
                };
                eff.insert(Atom::Reg(*rho));
                let out = if *i == 1 { m1.clone() } else { m2.clone() };
                Ok((Term::Sel(*i, Box::new(at)), Pi::Mu(out), eff))
            }
            CTerm::If(c0, t, f) => {
                let (ct, _cpi, ceff) = self.build(env, c0)?;
                let (tt, tpi, teff) = self.scoped(env, t)?;
                let (ft, _fpi, feff) = self.scoped(env, f)?;
                let mut eff = ceff;
                eff.extend(teff);
                eff.extend(feff);
                Ok((Term::If(Box::new(ct), Box::new(tt), Box::new(ft)), tpi, eff))
            }
            CTerm::Prim(op, args, res) => {
                let mut terms = Vec::new();
                let mut eff = Effect::new();
                let mut mus = Vec::new();
                for a in args {
                    let (t, pi, e) = self.build(env, a)?;
                    let m = pi
                        .as_mu()
                        .ok_or_else(|| InferError("prim arg scheme".into()))?
                        .clone();
                    terms.push(t);
                    eff.extend(e);
                    mus.push(m);
                }
                for m in &mus {
                    if let Some(r) = m.place() {
                        eff.insert(Atom::Reg(r));
                    }
                }
                if matches!(op, PrimOp::Eq | PrimOp::Ne) {
                    mus[0].frev(&mut eff);
                }
                let res_core = res.map(|r| self.st.core_rho(r));
                let rty = match op {
                    PrimOp::Concat | PrimOp::Itos => {
                        let r = res_core.expect("allocating prim without region");
                        eff.insert(Atom::Reg(r));
                        Mu::string(r)
                    }
                    PrimOp::Add
                    | PrimOp::Sub
                    | PrimOp::Mul
                    | PrimOp::Div
                    | PrimOp::Mod
                    | PrimOp::Neg
                    | PrimOp::Size => Mu::Int,
                    PrimOp::Lt
                    | PrimOp::Le
                    | PrimOp::Gt
                    | PrimOp::Ge
                    | PrimOp::Eq
                    | PrimOp::Ne
                    | PrimOp::Not => Mu::Bool,
                    PrimOp::Print | PrimOp::ForceGc => Mu::Unit,
                };
                Ok((Term::Prim(*op, terms, res_core), Pi::Mu(rty), eff))
            }
            CTerm::Nil(rty) => {
                let mu = rty.resolve(self.st);
                Ok((Term::Nil(mu.clone()), Pi::Mu(mu), Effect::new()))
            }
            CTerm::Cons(h, t, rho) => {
                let (ht, _hpi, heff) = self.build(env, h)?;
                let (tt, tpi, teff) = self.build(env, t)?;
                let r = self.st.core_rho(*rho);
                let mut eff = heff;
                eff.extend(teff);
                eff.insert(Atom::Reg(r));
                Ok((Term::Cons(Box::new(ht), Box::new(tt), r), tpi, eff))
            }
            CTerm::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let (st_, spi, seff) = self.build(env, scrut)?;
                let sm = spi
                    .as_mu()
                    .ok_or_else(|| InferError("case scrutinee scheme".into()))?;
                let Mu::Boxed(b, rho) = sm else {
                    return err("pass 2: case of non-list");
                };
                let BoxTy::List(elem) = &**b else {
                    return err("pass 2: case of non-list");
                };
                let (elem, rho) = (elem.clone(), *rho);
                let (nt, npi, neff) = self.scoped(env, nil_rhs)?;
                let binds = [(*head, Pi::Mu(elem)), (*tail, spi.clone())];
                let (ct, _cpi, ceff) =
                    env.with_bindings(binds, |env| self.scoped(env, cons_rhs))?;
                let mut eff = seff;
                eff.insert(Atom::Reg(rho));
                eff.extend(neff);
                eff.extend(ceff);
                Ok((
                    Term::CaseList {
                        scrut: Box::new(st_),
                        nil_rhs: Box::new(nt),
                        head: *head,
                        tail: *tail,
                        cons_rhs: Box::new(ct),
                    },
                    npi,
                    eff,
                ))
            }
            CTerm::RefNew(a, rho) => {
                let (at, apj, mut eff) = self.build(env, a)?;
                let m = apj
                    .as_mu()
                    .ok_or_else(|| InferError("ref of scheme".into()))?
                    .clone();
                let r = self.st.core_rho(*rho);
                eff.insert(Atom::Reg(r));
                Ok((
                    Term::RefNew(Box::new(at), r),
                    Pi::Mu(Mu::reference(m, r)),
                    eff,
                ))
            }
            CTerm::Deref(a) => {
                let (at, apj, mut eff) = self.build(env, a)?;
                let m = apj
                    .as_mu()
                    .ok_or_else(|| InferError("deref of scheme".into()))?;
                let Mu::Boxed(b, rho) = m else {
                    return err("pass 2: deref of non-ref");
                };
                let BoxTy::Ref(inner) = &**b else {
                    return err("pass 2: deref of non-ref");
                };
                eff.insert(Atom::Reg(*rho));
                Ok((Term::Deref(Box::new(at)), Pi::Mu(inner.clone()), eff))
            }
            CTerm::Assign(r, v) => {
                let (rt, rpi, reff) = self.build(env, r)?;
                let (vt, _vpi, veff) = self.build(env, v)?;
                let rm = rpi
                    .as_mu()
                    .ok_or_else(|| InferError("assign of scheme".into()))?;
                let Mu::Boxed(_, rho) = rm else {
                    return err("pass 2: assign to non-ref");
                };
                let mut eff = reff;
                eff.extend(veff);
                eff.insert(Atom::Reg(*rho));
                Ok((
                    Term::Assign(Box::new(rt), Box::new(vt)),
                    Pi::Mu(Mu::Unit),
                    eff,
                ))
            }
            CTerm::Exn { name, arg, at } => {
                let r = self.st.core_rho(*at);
                let mut eff = rml_core::vars::effect([Atom::Reg(r)]);
                let argt = match arg {
                    None => None,
                    Some(a) => {
                        let (t, _pi, e) = self.build(env, a)?;
                        eff.extend(e);
                        Some(Box::new(t))
                    }
                };
                Ok((
                    Term::Exn {
                        name: *name,
                        arg: argt,
                        at: r,
                    },
                    Pi::Mu(Mu::exn(r)),
                    eff,
                ))
            }
            CTerm::Raise(a, rty) => {
                let (at, apj, mut eff) = self.build(env, a)?;
                if let Some(Mu::Boxed(_, rho)) = apj.as_mu() {
                    eff.insert(Atom::Reg(*rho));
                }
                let ann = rty.resolve(self.st);
                Ok((Term::Raise(Box::new(at), ann.clone()), Pi::Mu(ann), eff))
            }
            CTerm::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let (bt, bpi, beff) = self.scoped(env, body)?;
                let arg_mu = self.exns.get(exn).cloned().flatten().unwrap_or(Mu::Unit);
                let (ht, _hpi, heff) =
                    env.with_bindings([(*arg, Pi::Mu(arg_mu))], |env| self.scoped(env, handler))?;
                let mut eff = beff;
                eff.extend(heff);
                Ok((
                    Term::Handle {
                        body: Box::new(bt),
                        exn: *exn,
                        arg: *arg,
                        handler: Box::new(ht),
                    },
                    bpi,
                    eff,
                ))
            }
        }
    }

    fn build_letfun(
        &mut self,
        env: &mut TypeEnv,
        group: &[CFun],
        body: &CTerm,
    ) -> BResult<(Term, Pi, Effect)> {
        // Resolve schemes and places.
        let mut schemes = Vec::new();
        for m in group {
            let (scheme, place) = self.core_scheme(&m.def);
            schemes.push((scheme, place));
        }
        // Build the bodies and the continuation with all members bound,
        // the bodies with the group's quantified atoms pinned.
        let members: Vec<(Symbol, Pi)> = group
            .iter()
            .zip(&schemes)
            .map(|(m, (scheme, place))| (m.def.name, Pi::Scheme(scheme.clone(), *place)))
            .collect();
        let mut quantified = Effect::new();
        for (scheme, _) in &schemes {
            for r in &scheme.rvars {
                quantified.insert(Atom::Reg(*r));
            }
            for e in &scheme.evars {
                quantified.insert(Atom::Eff(*e));
            }
        }
        let (defs, (bt, bpi, mut eff)) = env.with_bindings(members, |env| {
            let saved_quantified = self.quantified.clone();
            self.quantified.extend(quantified.iter().copied());
            let mut defs = Vec::new();
            for (m, (scheme, _place)) in group.iter().zip(&schemes) {
                let BoxTy::Arrow(mu1, _, _) = &scheme.body else {
                    return err("pass 2: fun scheme body is not an arrow");
                };
                let (bt, _bpi, _beff) = env
                    .with_bindings([(m.param, Pi::Mu(mu1.clone()))], |env| {
                        self.scoped(env, &m.body)
                    })?;
                defs.push(FixDef {
                    f: m.def.name,
                    scheme: scheme.clone(),
                    param: m.param,
                    body: bt,
                });
            }
            self.quantified = saved_quantified;
            // Continuation.
            Ok((defs, self.build(env, body)?))
        })?;
        let defs = Rc::new(defs);
        let ats: Rc<Vec<RegVar>> = Rc::new(schemes.iter().map(|(_, p)| *p).collect());
        for (_, p) in &schemes {
            eff.insert(Atom::Reg(*p));
        }
        // let f1 = fix#0 in ... let fn = fix#n in body
        let mut term = bt;
        for (i, m) in group.iter().enumerate().rev() {
            term = Term::Let {
                x: m.def.name,
                rhs: Box::new(Term::Fix {
                    defs: defs.clone(),
                    ats: ats.clone(),
                    index: i,
                }),
                body: Box::new(term),
            };
        }
        let (term, eff) = self.close(env, &bpi, term, eff);
        Ok((term, bpi, eff))
    }
}

/// Collects `handle → latent` for every arrow effect inside a type (used
/// to build identity effect substitutions).
fn collect_latents(t: &BoxTy, out: &mut BTreeMap<rml_core::vars::EffVar, Effect>) {
    match t {
        BoxTy::Pair(a, b) => {
            collect_latents_mu(a, out);
            collect_latents_mu(b, out);
        }
        BoxTy::Arrow(a, ae, b) => {
            out.entry(ae.handle).or_insert_with(|| ae.latent.clone());
            collect_latents_mu(a, out);
            collect_latents_mu(b, out);
        }
        BoxTy::Str | BoxTy::Exn => {}
        BoxTy::List(e) | BoxTy::Ref(e) => collect_latents_mu(e, out),
    }
}

fn collect_latents_mu(m: &Mu, out: &mut BTreeMap<rml_core::vars::EffVar, Effect>) {
    if let Mu::Boxed(b, _) = m {
        collect_latents(b, out);
    }
}
