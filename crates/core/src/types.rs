//! Region-annotated types, type schemes, and type variable contexts
//! (paper Section 3.2).
//!
//! The grammar follows the paper, extended with the ground types and type
//! constructors of the full source language:
//!
//! ```text
//! µ ::= (τ, ρ) | α | int | bool | unit
//! τ ::= µ1 × µ2 | µ1 --ε.φ--> µ2 | string | µ list | µ ref | exn
//! σ ::= ∀ρ⃗ε⃗.∀∆.τ        π ::= (σ, ρ) | µ
//! ```
//!
//! A *type variable context* `Ω` (or `∆`) maps type variables to arrow
//! effects; it is the paper's device for tracking which effects the
//! instantiation of a quantified type variable must flow into.

use crate::vars::{ArrowEff, Atom, EffVar, Effect, RegVar, TyVar};
use std::collections::BTreeMap;

/// A type-and-place `µ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mu {
    /// A type variable `α`.
    Var(TyVar),
    /// Unboxed `int`.
    Int,
    /// Unboxed `bool`.
    Bool,
    /// Unboxed `unit`.
    Unit,
    /// A boxed type at a place: `(τ, ρ)`.
    Boxed(Box<BoxTy>, RegVar),
}

/// A boxed type constructor `τ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BoxTy {
    /// `µ1 × µ2`
    Pair(Mu, Mu),
    /// `µ1 --ε.φ--> µ2`
    Arrow(Mu, ArrowEff, Mu),
    /// `string`
    Str,
    /// `µ list` (the spine lives in the annotated region).
    List(Mu),
    /// `µ ref`
    Ref(Mu),
    /// `exn` (exception values are boxed).
    Exn,
}

impl Mu {
    /// Builds a boxed pair type.
    pub fn pair(a: Mu, b: Mu, rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::Pair(a, b)), rho)
    }

    /// Builds a boxed arrow type.
    pub fn arrow(a: Mu, eff: ArrowEff, b: Mu, rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::Arrow(a, eff, b)), rho)
    }

    /// Builds a boxed string type.
    pub fn string(rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::Str), rho)
    }

    /// Builds a boxed list type.
    pub fn list(elem: Mu, rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::List(elem)), rho)
    }

    /// Builds a boxed ref type.
    pub fn reference(elem: Mu, rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::Ref(elem)), rho)
    }

    /// Builds a boxed exception type.
    pub fn exn(rho: RegVar) -> Mu {
        Mu::Boxed(Box::new(BoxTy::Exn), rho)
    }

    /// The place of a boxed type, if any.
    pub fn place(&self) -> Option<RegVar> {
        match self {
            Mu::Boxed(_, r) => Some(*r),
            _ => None,
        }
    }

    /// Deconstructs an arrow type-and-place.
    pub fn as_arrow(&self) -> Option<(&Mu, &ArrowEff, &Mu, RegVar)> {
        match self {
            Mu::Boxed(b, r) => match &**b {
                BoxTy::Arrow(a, eff, c) => Some((a, eff, c, *r)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Free region and effect variables `frev(µ)`, inserted into `out`.
    pub fn frev(&self, out: &mut Effect) {
        match self {
            Mu::Var(_) | Mu::Int | Mu::Bool | Mu::Unit => {}
            Mu::Boxed(b, r) => {
                out.insert(Atom::Reg(*r));
                b.frev(out);
            }
        }
    }

    /// Free region variables `frv(µ)`.
    pub fn frv(&self) -> Vec<RegVar> {
        let mut phi = Effect::new();
        self.frev(&mut phi);
        crate::vars::regions_of(&phi).collect()
    }

    /// Free type variables, inserted into `out`.
    pub fn ftv(&self, out: &mut std::collections::BTreeSet<TyVar>) {
        match self {
            Mu::Var(a) => {
                out.insert(*a);
            }
            Mu::Int | Mu::Bool | Mu::Unit => {}
            Mu::Boxed(b, _) => b.ftv(out),
        }
    }
}

impl BoxTy {
    /// Free region and effect variables, inserted into `out`.
    pub fn frev(&self, out: &mut Effect) {
        match self {
            BoxTy::Pair(a, b) => {
                a.frev(out);
                b.frev(out);
            }
            BoxTy::Arrow(a, eff, b) => {
                a.frev(out);
                out.insert(Atom::Eff(eff.handle));
                out.extend(eff.latent.iter().copied());
                b.frev(out);
            }
            BoxTy::Str | BoxTy::Exn => {}
            BoxTy::List(e) | BoxTy::Ref(e) => e.frev(out),
        }
    }

    /// Free type variables, inserted into `out`.
    pub fn ftv(&self, out: &mut std::collections::BTreeSet<TyVar>) {
        match self {
            BoxTy::Pair(a, b) | BoxTy::Arrow(a, _, b) => {
                a.ftv(out);
                b.ftv(out);
            }
            BoxTy::Str | BoxTy::Exn => {}
            BoxTy::List(e) | BoxTy::Ref(e) => e.ftv(out),
        }
    }
}

/// A type variable context `Ω` / `∆`: a finite map from type variables to
/// arrow effects.
pub type Delta = BTreeMap<TyVar, ArrowEff>;

/// Free region and effect variables of a context.
pub fn delta_frev(d: &Delta, out: &mut Effect) {
    for ae in d.values() {
        out.insert(Atom::Eff(ae.handle));
        out.extend(ae.latent.iter().copied());
    }
}

/// A type scheme `σ = ∀ρ⃗ ε⃗. ∀∆. τ`.
///
/// The paper's grammar nests the two quantifier layers
/// (`σ ::= ∀ρ⃗ε⃗.σ | ∀∆.τ`); we keep them in normal form. The region and
/// effect variables `rvars`/`evars` and the type variables in `delta` are
/// bound in `body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheme {
    /// Quantified region variables `ρ⃗`.
    pub rvars: Vec<RegVar>,
    /// Quantified effect variables `ε⃗`.
    pub evars: Vec<EffVar>,
    /// The type variable context `∆` (quantified type variables with their
    /// arrow effects, in instantiation order).
    pub delta: Vec<(TyVar, ArrowEff)>,
    /// The scheme body `τ` — always a boxed constructor (arrows, in
    /// practice, since only functions are scheme-bound).
    pub body: BoxTy,
}

impl Scheme {
    /// A scheme with no quantification.
    pub fn mono(body: BoxTy) -> Scheme {
        Scheme {
            rvars: Vec::new(),
            evars: Vec::new(),
            delta: Vec::new(),
            body,
        }
    }

    /// The `∆` as a map.
    pub fn delta_map(&self) -> Delta {
        self.delta.iter().cloned().collect()
    }

    /// Free region and effect variables of the scheme (bound variables
    /// removed). The arrow effects in `∆` are part of the scheme, so their
    /// free atoms count, minus the bound `ρ⃗ε⃗`.
    pub fn frev(&self, out: &mut Effect) {
        let mut inner = Effect::new();
        self.body.frev(&mut inner);
        for (_, ae) in &self.delta {
            inner.insert(Atom::Eff(ae.handle));
            inner.extend(ae.latent.iter().copied());
        }
        for r in &self.rvars {
            inner.remove(&Atom::Reg(*r));
        }
        for e in &self.evars {
            inner.remove(&Atom::Eff(*e));
        }
        out.extend(inner);
    }

    /// Free type variables of the scheme (those in the body minus `∆`).
    pub fn ftv(&self, out: &mut std::collections::BTreeSet<TyVar>) {
        let mut inner = std::collections::BTreeSet::new();
        self.body.ftv(&mut inner);
        for (a, _) in &self.delta {
            inner.remove(a);
        }
        out.extend(inner);
    }
}

/// A type scheme and place `π ::= (σ, ρ) | µ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pi {
    /// `(σ, ρ)`
    Scheme(Scheme, RegVar),
    /// `µ`
    Mu(Mu),
}

impl Pi {
    /// Views the `µ` form.
    pub fn as_mu(&self) -> Option<&Mu> {
        match self {
            Pi::Mu(m) => Some(m),
            Pi::Scheme(..) => None,
        }
    }

    /// Free region and effect variables.
    pub fn frev(&self, out: &mut Effect) {
        match self {
            Pi::Scheme(s, r) => {
                out.insert(Atom::Reg(*r));
                s.frev(out);
            }
            Pi::Mu(m) => m.frev(out),
        }
    }

    /// Free region variables.
    pub fn frv(&self) -> Vec<RegVar> {
        let mut phi = Effect::new();
        self.frev(&mut phi);
        crate::vars::regions_of(&phi).collect()
    }

    /// Free type variables.
    pub fn ftv(&self, out: &mut std::collections::BTreeSet<TyVar>) {
        match self {
            Pi::Scheme(s, _) => s.ftv(out),
            Pi::Mu(m) => m.ftv(out),
        }
    }
}

impl From<Mu> for Pi {
    fn from(m: Mu) -> Pi {
        Pi::Mu(m)
    }
}

// ---------------------------------------------------------------------
// Well-formedness (paper Section 3.2).
// ---------------------------------------------------------------------

/// Well-formedness `Ω ⊢ µ`: every type variable is in `dom(Ω)`.
pub fn wf_mu(omega: &Delta, mu: &Mu) -> bool {
    match mu {
        Mu::Var(a) => omega.contains_key(a),
        Mu::Int | Mu::Bool | Mu::Unit => true,
        Mu::Boxed(b, _) => wf_boxty(omega, b),
    }
}

/// Well-formedness for boxed types.
pub fn wf_boxty(omega: &Delta, t: &BoxTy) -> bool {
    match t {
        BoxTy::Pair(a, b) => wf_mu(omega, a) && wf_mu(omega, b),
        BoxTy::Arrow(a, _, b) => wf_mu(omega, a) && wf_mu(omega, b),
        BoxTy::Str | BoxTy::Exn => true,
        BoxTy::List(e) | BoxTy::Ref(e) => wf_mu(omega, e),
    }
}

/// Well-formedness `Ω ⊢ π`: for schemes, `dom(∆) ∩ dom(Ω) = ∅` and the
/// body is well-formed in `Ω + ∆`.
pub fn wf_pi(omega: &Delta, pi: &Pi) -> bool {
    match pi {
        Pi::Mu(m) => wf_mu(omega, m),
        Pi::Scheme(s, _) => {
            if s.delta.iter().any(|(a, _)| omega.contains_key(a)) {
                return false;
            }
            let mut ext = omega.clone();
            ext.extend(s.delta.iter().cloned());
            wf_boxty(&ext, &s.body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_arrow() -> (Mu, RegVar, EffVar) {
        let r = RegVar::fresh();
        let e = EffVar::fresh();
        let mu = Mu::arrow(Mu::Int, ArrowEff::new(e, Effect::new()), Mu::Int, r);
        (mu, r, e)
    }

    #[test]
    fn frev_of_arrow() {
        let (mu, r, e) = sample_arrow();
        let mut phi = Effect::new();
        mu.frev(&mut phi);
        assert!(phi.contains(&Atom::Reg(r)));
        assert!(phi.contains(&Atom::Eff(e)));
    }

    #[test]
    fn scheme_frev_removes_bound() {
        let (mu, r, e) = sample_arrow();
        let Mu::Boxed(b, _) = mu else { panic!() };
        let outer = RegVar::fresh();
        let s = Scheme {
            rvars: vec![r],
            evars: vec![e],
            delta: vec![],
            body: *b,
        };
        let mut phi = Effect::new();
        Pi::Scheme(s, outer).frev(&mut phi);
        assert_eq!(phi, crate::vars::effect([Atom::Reg(outer)]));
    }

    #[test]
    fn delta_arrow_effects_are_free_in_scheme() {
        // ∆ = {α : ε'.{ρ'}} — ε' and ρ' are free in the scheme unless
        // quantified.
        let a = TyVar::fresh();
        let e2 = EffVar::fresh();
        let r2 = RegVar::fresh();
        let s = Scheme {
            rvars: vec![],
            evars: vec![],
            delta: vec![(a, ArrowEff::new(e2, crate::vars::effect([Atom::Reg(r2)])))],
            body: BoxTy::Arrow(Mu::Var(a), ArrowEff::fresh_empty(), Mu::Unit),
        };
        let mut phi = Effect::new();
        s.frev(&mut phi);
        assert!(phi.contains(&Atom::Eff(e2)));
        assert!(phi.contains(&Atom::Reg(r2)));
    }

    #[test]
    fn wf_requires_tyvars_in_context() {
        let a = TyVar::fresh();
        let omega = Delta::new();
        assert!(!wf_mu(&omega, &Mu::Var(a)));
        let mut omega2 = Delta::new();
        omega2.insert(a, ArrowEff::fresh_empty());
        assert!(wf_mu(&omega2, &Mu::Var(a)));
    }

    #[test]
    fn wf_scheme_rejects_shadowed_delta() {
        let a = TyVar::fresh();
        let mut omega = Delta::new();
        omega.insert(a, ArrowEff::fresh_empty());
        let s = Scheme {
            rvars: vec![],
            evars: vec![],
            delta: vec![(a, ArrowEff::fresh_empty())],
            body: BoxTy::Arrow(Mu::Var(a), ArrowEff::fresh_empty(), Mu::Unit),
        };
        assert!(!wf_pi(&omega, &Pi::Scheme(s, RegVar::fresh())));
    }

    #[test]
    fn ftv_collects() {
        let a = TyVar::fresh();
        let r = RegVar::fresh();
        let mu = Mu::pair(Mu::Var(a), Mu::Int, r);
        let mut tvs = std::collections::BTreeSet::new();
        mu.ftv(&mut tvs);
        assert!(tvs.contains(&a));
        assert_eq!(tvs.len(), 1);
    }
}
